import gc
import itertools
import random
import sys
from collections import Counter
from struct import pack

import pytest

from compocode.backtrack import (
    BacktrackStats,
    ReconstructionFailure,
    _lanes,
    _search,
    reconstruct,
    reconstruct_unique,
    tolerant_reconstruct,
)
from compocode.catalan import sr_encode
from compocode.compositions import (
    CompositionMultiset,
    compose_all,
    cumulative_weights,
    sigma_of_string,
)


def all_strings(n):
    for tup in itertools.product("01", repeat=n):
        yield "".join(tup)


def multiset_key(c):
    return tuple(tuple(sorted(c.levels[l].items())) for l in range(1, c.n + 1))


# -- brute-force oracles the search is checked against --


def build_T(prefix: str, suffix: str, sigma, n: int) -> CompositionMultiset:
    """Multiset of all substring compositions determined by a partial state.

    With |prefix| = |suffix| = L these are: substrings inside the prefix,
    substrings inside the suffix, center-spanning substrings s_i^j with
    i <= L+1 and j >= n-L, and the symmetric centers s_i^{n+1-i} for i > L+1
    (their weight is a sigma tail sum).
    """
    L = len(prefix)
    if len(suffix) != L or 2 * L > n:
        raise ValueError("prefix/suffix lengths invalid")
    h = (n + 1) // 2
    if len(sigma) != h:
        raise ValueError("sigma length must be ceil(n/2)")
    W = sum(sigma)
    pw = [0]
    for ch in prefix:
        pw.append(pw[-1] + (ch == "1"))
    swr = [0]  # swr[b] = weight of the last b characters
    for ch in reversed(suffix):
        swr.append(swr[-1] + (ch == "1"))
    levels: dict[int, Counter] = {l: Counter() for l in range(1, n + 1)}
    seen: set[tuple[int, int]] = set()

    def add(i, j, w):
        if (i, j) not in seen:
            seen.add((i, j))
            levels[j - i + 1][w] += 1

    for i in range(1, L + 1):
        for j in range(i, L + 1):
            add(i, j, pw[j] - pw[i - 1])
            add(n - L + i, n - L + j, swr[L + 1 - i] - swr[L - j])
    for i in range(1, L + 2):
        for j in range(max(i, n - L), n + 1):
            add(i, j, W - pw[i - 1] - swr[n - j])
    tail = 0
    for i in range(h, L + 1, -1):
        tail += sigma[i - 1]
        length = n + 2 - 2 * i
        if length >= 1:
            levels[length][tail] += 1
    return CompositionMultiset(n, levels)


def _ell(s: str) -> int:
    """Number of guess points: prefix/suffix weight ties followed by sigma=1."""
    n = len(s)
    count = 0
    for i in range(1, (n + 1) // 2):
        if s[:i].count("1") == s[n - i:].count("1") and s[i] != s[n - 1 - i]:
            count += 1
    return count


def confusable_oracle(n: int) -> dict[str, tuple[frozenset, int, int]]:
    """Brute force: s -> (E_s, ell_s, ell_s*) over all 2^n strings.

    E_s groups strings by composition multiset; ell_s counts the guess points
    of s and ell_s* is the maximum over E_s.
    """
    groups: dict[tuple, list[str]] = {}
    for s in all_strings(n):
        groups.setdefault(multiset_key(compose_all(s)), []).append(s)
    out = {}
    for members in groups.values():
        es = frozenset(members)
        ells = {s: _ell(s) for s in members}
        star = max(ells.values())
        for s in members:
            out[s] = (es, ells[s], star)
    return out


def test_build_T_worked_example():
    # after placing s_1 = 1, s_10 = 0 for 1010001010
    s = "1010001010"
    T = build_T("1", "0", sigma_of_string(s), 10)
    got = sorted(
        (l, w) for l in range(1, 11) for w, cnt in T.levels[l].items()
        for _ in range(cnt))
    expected = [
        (1, 0), (1, 1), (2, 0), (4, 1), (6, 2),
        (8, 3), (9, 3), (9, 4), (10, 4),
    ]
    assert got == expected


def test_build_T_empty_state_is_centers_only():
    s = "0110100110"
    T = build_T("", "", sigma_of_string(s), 10)
    # s_i^{n+1-i} for i = 1..5, plus nothing else
    got = {(l, w) for l in range(1, 11) for w in T.levels[l]}
    expect = {(10 + 2 - 2 * i, s[i - 1:11 - i].count("1")) for i in range(1, 6)}
    assert got == expect


def test_build_T_subset_of_C_random():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 14)
        s = "".join(rng.choice("01") for _ in range(n))
        c = compose_all(s)
        for L in range(n // 2 + 1):
            T = build_T(s[:L], s[n - L:], sigma_of_string(s), n)
            for l in range(1, n + 1):
                for w, cnt in T.levels[l].items():
                    assert c.levels[l][w] >= cnt, (s, L, l, w)


def test_build_T_size_matches_index_scan():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 12)
        s = "".join(rng.choice("01") for _ in range(n))
        h = (n + 1) // 2
        for L in range(n // 2 + 1):
            T = build_T(s[:L], s[n - L:], sigma_of_string(s), n)
            count = sum(sum(T.level_counter(l).values()) for l in range(1, n + 1))
            direct = sum(
                1 for i in range(1, n + 1) for j in range(i, n + 1)
                if (j <= L) or (i >= n + 1 - L)
                or (i <= L + 1 and j >= n - L)
                or (j == n + 1 - i and L + 2 <= i <= h))
            assert count == direct, (s, L)


def test_reconstruct_trivial_cases():
    assert reconstruct(compose_all("000000")) == {"000000"}
    assert reconstruct(compose_all("1")) == {"1"}
    assert reconstruct(compose_all("10")) == {"10", "01"}


def test_reconstruct_worked_example():
    s = "1010001010"
    assert reconstruct(compose_all(s)) == {s, s[::-1]}


def test_reconstruct_matches_oracle_exhaustive():
    for n in range(1, 11):
        oracle = confusable_oracle(n)
        for s in all_strings(n):
            es, _, _ = oracle[s]
            got = reconstruct(compose_all(s))
            assert got == set(es), s


def test_reconstruct_contains_input_and_reversal_closed():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 14)
        s = "".join(rng.choice("01") for _ in range(n))
        got = reconstruct(compose_all(s))
        assert s in got
        assert {v[::-1] for v in got} == got


def test_reconstruct_rejects_inconsistent_multiset():
    c = compose_all("100101")
    c.replace(2, 1, 2)
    with pytest.raises(ReconstructionFailure):
        reconstruct(c)


def test_length7_unique_up_to_reversal():
    for s, (es, _, _) in confusable_oracle(7).items():
        assert set(es) == {s, s[::-1]}


def test_oracle_group_sizes_partition():
    for n in (5, 8):
        oracle = confusable_oracle(n)
        groups = {es for es, _, _ in oracle.values()}
        assert sum(len(g) for g in groups) == 2 ** n


def test_oracle_ell_zero_on_codewords():
    rng = random.Random(2)
    for _ in range(40):
        k = rng.randint(1, 12)
        cw = sr_encode("".join(rng.choice("01") for _ in range(k)))
        n = len(cw)
        ties = [
            i for i in range(1, (n + 1) // 2)
            if cw[:i].count("1") == cw[n - i:].count("1")
            and cw[i] != cw[n - 1 - i]]
        assert ties == []


def test_reconstruct_unique_codewords_no_backtracks():
    rng = random.Random(4)
    for _ in range(60):
        k = rng.randint(1, 14)
        t = rng.choice([0, 0, 1, 2])
        cw = sr_encode("".join(rng.choice("01") for _ in range(k)), t)
        s, stats = reconstruct_unique(compose_all(cw))
        assert s == cw
        assert stats.backtracks == 0
        assert stats.guesses == 0


def test_reconstruct_unique_strict_raises_after_rollback():
    # a weight tie at position 2 whose wrong branch dies one level deeper
    with pytest.raises(ReconstructionFailure):
        reconstruct_unique(compose_all("011001"))
    stats = BacktrackStats()
    s = _search(compose_all("011001"), sigma_of_string("011001"), frozenset(),
                stats, collect_all=False)[0]
    assert s == "011001"
    assert stats.backtracks == 1 and stats.guesses >= 1


def corrupt_one_level(c, level, rng):
    old = rng.choice(sorted(c.levels[level].elements()))
    choices = [w for w in range(level + 1) if w != old]
    c.replace(level, old, rng.choice(choices))


def test_tolerant_degenerate_budget_matches_unique():
    rng = random.Random(8)
    for _ in range(20):
        k = rng.randint(1, 12)
        cw = sr_encode("".join(rng.choice("01") for _ in range(k)))
        c = compose_all(cw)
        s, _ = tolerant_reconstruct(
            c, cumulative_weights(c), sigma_of_string(cw), 0)
        assert s == cw


def test_tolerant_single_level_errors():
    rng = random.Random(13)
    done = 0
    while done < 80:
        k = rng.randint(2, 12)
        t = rng.choice([1, 2])
        cw = sr_encode("".join(rng.choice("01") for _ in range(k)), t)
        n = len(cw)
        c = compose_all(cw)
        level = rng.randint(1, n)
        corrupt_one_level(c, level, rng)
        s, _ = tolerant_reconstruct(
            c, cumulative_weights(c), sigma_of_string(cw), 1)
        assert s == cw
        done += 1


def test_tolerant_multi_level_asymmetric():
    rng = random.Random(17)
    done = 0
    while done < 60:
        k = rng.randint(4, 12)
        t = rng.choice([2, 3])
        cw = sr_encode("".join(rng.choice("01") for _ in range(k)), t)
        n = len(cw)
        c = compose_all(cw)
        pool = list(range(1, n + 1))
        rng.shuffle(pool)
        chosen = []
        for level in pool:
            if len(chosen) == t:
                break
            if any(m == n + 1 - level for m in chosen):
                continue
            chosen.append(level)
        for level in chosen:
            corrupt_one_level(c, level, rng)
        s, _ = tolerant_reconstruct(
            c, cumulative_weights(c), sigma_of_string(cw), t)
        assert s == cw
        done += 1


def test_tolerant_budget_exceeded():
    rng = random.Random(23)
    cw = sr_encode("1011010", 2)
    n = len(cw)
    c = compose_all(cw)
    for level in (2, 5, n - 3):
        corrupt_one_level(c, level, rng)
    with pytest.raises(ReconstructionFailure):
        tolerant_reconstruct(c, cumulative_weights(c), sigma_of_string(cw), 1)


def test_tolerant_rejects_mirror_pair_under_asymmetric_model():
    rng = random.Random(29)
    cw = sr_encode("10110101", 2)
    n = len(cw)
    c = compose_all(cw)
    corrupt_one_level(c, 3, rng)
    corrupt_one_level(c, n - 2, rng)
    with pytest.raises(ReconstructionFailure):
        tolerant_reconstruct(c, cumulative_weights(c), sigma_of_string(cw), 2)


def example_2_multiset():
    c = compose_all("00001111111")
    c.replace(4, 0, 4)
    return c


def example_3_multiset():
    c = compose_all("00001111111")
    c.replace(7, 7, 6)
    return c


def test_example_low_level_error_does_not_disturb_search():
    c = example_2_multiset()
    s, stats = tolerant_reconstruct(
        c, cumulative_weights(c), sigma_of_string("00001111111"), 1)
    assert s == "00001111111"
    assert stats.backtracks == 0


def test_example_high_level_error_forces_one_rollback():
    c = example_3_multiset()
    s, stats = tolerant_reconstruct(
        c, cumulative_weights(c), sigma_of_string("00001111111"), 1)
    assert s == "00001111111"
    assert stats.backtracks == 1


def _pack(values) -> int:
    """values as the 32-bit lanes of one int, the first in the lowest lane."""
    return int.from_bytes(pack(f"<{len(values)}I", *values), "little")


def test_lanes_round_trip_every_code_point_range():
    # one byte, two bytes, the surrogate block and beyond the BMP
    values = [0, 1, 255, 256, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xE000,
              0xFFFF, 0x10000, 0x10FFFF]
    v = _pack(values)
    assert [ord(ch) for ch in _lanes(v, len(values))] == values
    # lane-wise differences, as the search takes them, never borrow
    lo, hi = values[:-1], values[1:]
    diff = _lanes(_pack(hi) - _pack(lo), len(lo))
    assert [ord(ch) for ch in diff] == [b - a for a, b in zip(lo, hi)]


def test_decoding_leaves_no_reference_cycle():
    cw = sr_encode("1011001110", 0)
    c = compose_all(cw)
    decodes = (
        reconstruct_unique,
        reconstruct,
        lambda c: tolerant_reconstruct(
            c, cumulative_weights(c), sigma_of_string(cw), 1),
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        for decode in decodes:
            before = sys.getrefcount(c)
            decode(c)
            assert sys.getrefcount(c) == before, decode
    finally:
        if enabled:
            gc.enable()


def test_reconstruct_unique_has_no_recursion_cliff():
    # n = 4,103: the search runs as one loop, so no call depth grows with n
    rng = random.Random(4096)
    cw = sr_encode("".join(rng.choice("01") for _ in range(4096)))
    c = compose_all(cw)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        s, stats = reconstruct_unique(c)
    finally:
        sys.setrecursionlimit(limit)
    assert s == cw and stats.backtracks == 0
