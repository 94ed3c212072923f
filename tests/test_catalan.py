import itertools
import math
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compocode import catalan
from compocode.asym import st_params, st_redundancy
from compocode.catalan import (
    _walk,
    cb_count,
    cb_rank,
    cb_total,
    cb_unrank,
    is_catalan_bertrand,
    is_member,
    sr_decode,
    sr_encode,
    sr_params,
    sr_size,
)


def brute_cb(m):
    """Oracle: enumerate all CB strings of length m."""
    out = []
    for tup in itertools.product("01", repeat=m):
        s = "".join(tup)
        if is_catalan_bertrand(s):
            out.append(s)
    return out


def test_cb_count_small_oracle():
    for m in range(1, 13):
        strings = brute_cb(m)
        by_ones = {}
        for s in strings:
            by_ones[s.count("1")] = by_ones.get(s.count("1"), 0) + 1
        for i in range(m + 2):
            assert cb_count(m, i) == by_ones.get(i, 0), (m, i)
        assert cb_total(m) == len(strings)


def test_cb_count_examples():
    assert cb_count(4, 0) == 1
    assert cb_count(4, 1) == 2
    assert cb_total(4) == 3 == comb(4, 2) // 2
    assert all(cb_count(m, 0) == 1 for m in range(1, 20))
    # Catalan number C_3 = C(6,3)/4 = 5: balanced prefix-dominated strings
    assert comb(6, 3) // 4 == 5


def test_cb_total_closed_forms():
    # the even-length total matches the half-central-binomial form
    for m in range(2, 31, 2):
        assert cb_total(m) == comb(m, m // 2) // 2
    for m in range(1, 31):
        assert cb_total(m) == comb(m - 1, (m - 1) // 2)
        assert cb_total(m) == sum(cb_count(m, i) for i in range(m + 1))


def test_cb_rank_bijection_exhaustive():
    for m in range(1, 13):
        strings = brute_cb(m)
        ranks = sorted(cb_rank(s) for s in strings)
        assert ranks == list(range(len(strings)))
        for s in strings:
            assert cb_unrank(m, cb_rank(s)) == s


def test_cb_rank_block_structure():
    # m=4: image is {0,1,2}; 0000 is the i=0 block, 0001/0010 fill i=1
    assert cb_rank("0000") == 0
    assert {cb_rank("0001"), cb_rank("0010")} == {1, 2}
    for m in range(1, 16):
        assert cb_rank("0" * m) == 0


def test_cb_rank_rejects_non_cb():
    with pytest.raises(ValueError):
        cb_rank("01")
    with pytest.raises(ValueError):
        cb_unrank(4, 3)


def subset_bits(m, subset):
    """The length-m bit string with a 1 at each (1-based) position in subset."""
    return "".join("1" if e in subset else "0" for e in range(1, m + 1))


def partition_rank(m, subset):
    """The I mask's rank among the masks with as many ones: the walk's."""
    return _walk(m, len(subset), False, subset_bits(m, subset))[0]


def partition_unrank(m, i, rank):
    return [e for e, b in enumerate(_walk(m, i, False, target=rank)[1], 1)
            if b == "1"]


def test_partition_rank_round_trip():
    for m in range(0, 9):
        for r in range(2 ** m):
            subset = [j + 1 for j in range(m) if (r >> j) & 1]
            rank = partition_rank(m, subset)
            assert partition_unrank(m, len(subset), rank) == sorted(subset)
    # codeword-sized ranges, where the walk carries big binomials
    rng = random.Random(5)
    for m in (60, 129, 300):
        for _ in range(20):
            subset = rng.sample(range(1, m + 1), rng.randint(0, m))
            rank = partition_rank(m, subset)
            assert partition_unrank(m, len(subset), rank) == sorted(subset)


def test_partition_blocks_contiguous():
    # the i-subsets rank exactly 0 .. C(m, i) - 1, in colex order
    for m in range(9):
        for i in range(m + 1):
            subsets = sorted(itertools.combinations(range(1, m + 1), i),
                             key=lambda c: c[::-1])
            ranks = [partition_rank(m, c) for c in subsets]
            assert ranks == list(range(comb(m, i)))
    assert partition_rank(6, []) == 0


def brute_members(n, t=0):
    return [s for s in ("".join(p) for p in itertools.product("01", repeat=n))
            if is_member(s, t)]


def test_size_matches_membership_count():
    for n in range(2, 15):
        assert sr_size(n, 0) == len(brute_members(n, 0)), n
    for t in (1, 2):
        for n in range(2 * t + 2, 13, 2):
            assert sr_size(n, t) == len(brute_members(n, t)), (n, t)


def test_block_sizes_are_summed_once_per_half_length(monkeypatch):
    # sr_size(n, t) reads n and t only through hf = n/2 - t - 1, so the
    # lengths of other shifts with the same hf reuse one sum
    sums = []
    block_sizes = catalan._block_sizes
    monkeypatch.setattr(catalan, "_block_sizes",
                        lambda hf: sums.append(hf) or block_sizes(hf))
    sr_size.cache_clear()
    hf = 3517
    sizes = [sr_size(2 * hf + 2 + 2 * t, t) for t in range(4)]
    assert sums == [hf]
    assert len(set(sizes)) == 1
    assert sizes[0] == sum(block_sizes(hf)) == sr_size.__wrapped__(2 * hf + 2, 0)


def test_size_lower_bound():
    import math
    for n in range(4, 40):
        assert sr_size(n, 0) >= 2 ** (n - 3) / math.sqrt(math.pi * n)


def test_redundancy_bound():
    import math
    for k in range(8, 65):
        n = sr_params(k)
        assert n - k <= math.ceil(0.5 * math.log2(k)) + 5, (k, n)


@pytest.mark.parametrize("k, sr_red, st_red", [
    (64, 5, 66), (256, 6, 84), (1024, 7, 104), (4096, 8, 122), (16384, 9, 142)])
def test_redundancy_bounds_hold_up_to_k_16384(k, sr_red, st_red):
    # criterion 02's bound for the reconstruction code and criterion 05's
    # for the t = 3 asymmetric code, far beyond the k they are checked at
    assert sr_params(k) - k == sr_red <= math.ceil(0.5 * math.log2(k)) + 5
    _, n = st_params(k, 3)
    assert st_redundancy(k, 3) == st_red <= 9.5 * math.log2(n) + 12


def test_round_trip_at_k_16384():
    rng = random.Random(16384)
    info = "".join(rng.choice("01") for _ in range(16384))
    s = sr_encode(info)
    assert len(s) == 16393 and is_member(s)
    assert sr_decode(s, 16384) == info


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2))
def test_encode_decode_round_trip(k, t):
    import random
    rng = random.Random(k * 31 + t)
    for _ in range(20):
        info = "".join(rng.choice("01") for _ in range(k))
        cw = sr_encode(info, t)
        assert is_member(cw, t)
        assert sr_decode(cw, k, t) == info


def test_encode_decode_exhaustive_small_k():
    for k in (1, 2, 3, 4, 6, 8):
        for v in range(2 ** k):
            info = format(v, f"0{k}b")
            cw = sr_encode(info, 0)
            assert sr_decode(cw, k, 0) == info


def test_encode_is_injective():
    k = 10
    seen = set()
    for v in range(2 ** k):
        cw = sr_encode(format(v, f"0{k}b"), 0)
        assert cw not in seen
        seen.add(cw)


def prefix_suffix_gap(s, j):
    n = len(s)
    return s[:j].count("1") - s[n - j:].count("1")


def test_codeword_prefix_suffix_weight_gap():
    import random
    rng = random.Random(5)
    for t in (0, 1, 2):
        for _ in range(60):
            k = rng.randint(1, 14)
            cw = sr_encode("".join(rng.choice("01") for _ in range(k)), t)
            n = len(cw)
            for j in range(1, n // 2 + 1):
                assert prefix_suffix_gap(cw, j) != 0
            # shifted codebooks: the 0-surplus of the prefix over the mirrored
            # suffix is at least t+1 from position t+1 onwards
            for j in range(t + 1, n // 2 + 1):
                zeros_gap = cw[:j].count("0") - cw[n - j:].count("0")
                assert zeros_gap >= t + 1


def test_membership_basics():
    assert is_member("01")
    assert not is_member("11")
    assert all(not is_member("1" + s) for s in ("0", "01", "001"))
    # balanced 0..01..1 strings are members for suitable t
    assert is_member("000111", 2)
    assert is_member("0011", 1)


@pytest.mark.parametrize("call, args, match", [
    (sr_size, (10, -1), "^shift must be >= 0$"),
    (sr_size, (1, 0), "^length too short$"),
    (sr_encode, ("0120",), "^info must be a bit string$"),
    (sr_encode, ("1" * 4, 0, 6), "^info rank exceeds codebook size$"),
], ids=["shift", "odd-short", "bits", "too-many-bits"])
def test_declared_rejections(call, args, match):
    with pytest.raises(ValueError, match=match):
        call(*args)


def test_sr_encode_checks_the_codebook_size_for_every_rank():
    # why the even-length encoder checks no rank: sr_encode rejects any k
    # with 2^k > sr_size(n, t), and an odd length halves the rank into the
    # even codebook of half its size
    for t, lengths in ((0, range(3, 15)), (1, range(6, 17, 2)), (2, range(8, 19, 2))):
        for n in lengths:
            size = sr_size(n, t)
            if n % 2:
                assert size == 2 * sr_size(n - 1, 0)
            k = size.bit_length() - 1
            for v in range(2 ** k):
                info = format(v, f"0{k}b")
                cw = sr_encode(info, t, n)
                assert len(cw) == n and sr_decode(cw, k, t) == info
            with pytest.raises(ValueError, match="^info rank exceeds codebook size$"):
                sr_encode("0" * (k + 1), t, n)
