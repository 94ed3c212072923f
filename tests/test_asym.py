import itertools
import os
import random
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compocode.asym import (
    _mod3_pin,
    recover_w1,
    s1_codewords,
    s1_decode,
    s1_encode,
    s1_params,
    s1_reconstruct,
    s1_recover_sigma,
    s1_strip,
    st_decode,
    st_encode,
    st_params,
    st_redundancy,
)
from compocode.catalan import is_member
from compocode import asym, backtrack
from compocode.compositions import (
    CompositionMultiset,
    CorruptedInput,
    compose_all,
    cumulative_weights,
    sigma_from_weights,
    sigma_of_string,
)


def checksum(s):
    w = cumulative_weights(compose_all(s))
    return sum(w[:(len(s) + 1) // 2]) % 3


def corrupt(c, level, rng):
    old = rng.choice(sorted(c.levels[level].elements()))
    new = rng.choice([w for w in range(level + 1) if w != old])
    c.replace(level, old, new)


def random_info(rng, k):
    return "".join(rng.choice("01") for _ in range(k))


# -- single-error code -----------------------------------------------------


def test_s1_params_structure():
    for k in (2, 4, 8, 12):
        n = s1_params(k)
        assert n % 2 == 1
        assert (n + 1) // 2 % 3 == 0


def test_params_reject_an_empty_info_word():
    # both codes embed a reconstruction codeword, which needs k >= 1
    for params in (lambda: s1_params(0), lambda: st_params(0, 1)):
        with pytest.raises(ValueError, match="k must be >= 1"):
            params()


def test_s1_encode_invariants():
    rng = random.Random(1)
    for _ in range(40):
        k = rng.randint(1, 10)
        s = s1_encode(random_info(rng, k))
        n = len(s)
        assert s.count("1") % 2 == 0
        assert checksum(s) == 0
        assert s[1] <= s[n - 2]  # s_2 <= s_{n-1}
        inner = s[0] + s[2:n - 2] + s[n - 1]
        assert is_member(inner, 0)


def test_middle_flip_preserves_checksum():
    rng = random.Random(2)
    for _ in range(20):
        s = s1_encode(random_info(rng, rng.randint(1, 8)))
        h = (len(s) + 1) // 2
        flipped = s[:h - 1] + ("1" if s[h - 1] == "0" else "0") + s[h:]
        assert checksum(flipped) == checksum(s)


def test_s1_codewords_are_the_two_middle_bit_choices():
    for k in range(1, 11):
        for bits in itertools.product("01", repeat=k):
            info = "".join(bits)
            pair = s1_codewords(info)
            assert pair[0] == s1_encode(info)
            h = (len(pair[0]) + 1) // 2
            assert [i for i, (a, b) in enumerate(zip(*pair)) if a != b] == \
                [h - 1]
            assert [asym._checksum(s) for s in pair] == [0, 0]
            assert [s.count("1") % 2 for s in pair] == [0, 1]
            assert [s1_strip(s, k) for s in pair] == [info, info]
    # Example 2's codeword is the odd twin
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                           "example2_codeword.txt")
    with open(fixture) as f:
        assert s1_codewords("10110")[1] == f.read().strip()


def test_example_walkthrough_string_has_valid_format():
    s = "00001111111"
    assert (len(s) + 1) // 2 % 3 == 0
    assert checksum(s) == 0
    assert s[1] <= s[len(s) - 2]
    inner = s[0] + s[2:len(s) - 2] + s[len(s) - 1]
    assert is_member(inner, 0)


def test_recover_w1():
    assert recover_w1(6, 6) == 6
    assert recover_w1(6, 7) == 6
    assert recover_w1(7, 6) == 6


def test_recover_w1_exhaustive_injection():
    rng = random.Random(3)
    for _ in range(30):
        s = s1_encode(random_info(rng, rng.randint(1, 8)))
        n = len(s)
        w = cumulative_weights(compose_all(s))
        for level in (1, n):
            c = compose_all(s)
            corrupt(c, level, rng)
            wt = cumulative_weights(c)
            assert recover_w1(wt[0], wt[n - 1]) == w[0]


def test_s1_recover_sigma_clean():
    rng = random.Random(4)
    for _ in range(20):
        s = s1_encode(random_info(rng, rng.randint(1, 8)))
        c = compose_all(s)
        assert s1_recover_sigma(cumulative_weights(c), c.n) == sigma_of_string(s)


def test_s1_recover_sigma_example_corruption():
    c = compose_all("00001111111")
    c.replace(4, 0, 4)
    assert s1_recover_sigma(cumulative_weights(c), c.n) == (1, 1, 1, 1, 2, 1)


def test_s1_recover_sigma_all_single_errors_small():
    rng = random.Random(5)
    for trial in range(12):
        s = s1_encode(random_info(rng, rng.randint(1, 6)))
        n = len(s)
        true_sigma = sigma_of_string(s)
        for level in range(1, n + 1):
            base = compose_all(s)
            for old in sorted(set(base.levels[level])):
                for new in range(level + 1):
                    if new == old:
                        continue
                    c = compose_all(s)
                    c.replace(level, old, new)
                    assert s1_recover_sigma(cumulative_weights(c), c.n) == \
                        true_sigma, (s, level, old, new)


def test_s1_roundtrip_clean():
    rng = random.Random(6)
    for _ in range(20):
        k = rng.randint(1, 10)
        info = random_info(rng, k)
        s = s1_encode(info)
        assert s1_decode(compose_all(s), k) == info


def test_s1_decode_all_single_errors():
    rng = random.Random(7)
    for _ in range(8):
        k = rng.randint(1, 6)
        info = random_info(rng, k)
        s = s1_encode(info)
        n = len(s)
        for level in range(1, n + 1):
            c = compose_all(s)
            corrupt(c, level, rng)
            assert s1_decode(c, k) == info, (info, level)


def test_s1_decode_has_no_recursion_cliff():
    rng = random.Random(2048)
    info = random_info(rng, 2048)
    c = compose_all(s1_encode(info))
    corrupt(c, rng.randint(1, c.n), rng)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert s1_decode(c, 2048) == info
    finally:
        sys.setrecursionlimit(limit)


def test_s1_fixture_reconstructions():
    c2 = compose_all("00001111111")
    c2.replace(4, 0, 4)
    assert s1_reconstruct(c2) == "00001111111"
    c3 = compose_all("00001111111")
    c3.replace(7, 7, 6)
    assert s1_reconstruct(c3) == "00001111111"


@given(st.integers(-10**6, 10**6), st.integers(0, 2))
def test_mod3_pin_is_the_one_window_value_with_the_residue(base, target):
    # why s1_recover_sigma cannot fail to pin: the window holds each residue once
    v = _mod3_pin(base, target)
    assert base - 2 <= v <= base and v % 3 == target
    assert [u for u in range(base - 2, base + 1) if u % 3 == target] == [v]


def test_s1_recover_sigma_rejects_two_errors():
    rng = random.Random(8)
    s = s1_encode("10110")
    c = compose_all(s)
    corrupt(c, 3, rng)
    corrupt(c, 5, rng)
    with pytest.raises(CorruptedInput):
        s1_recover_sigma(cumulative_weights(c), c.n)


# -- t-error code ----------------------------------------------------------


def test_st_sigma_faithful_embedding():
    rng = random.Random(9)
    for t in (1, 2):
        for _ in range(10):
            k = rng.randint(1, 12)
            s = st_encode(random_info(rng, k), t)
            m, n = st_params(k, t)
            assert len(s) == n
            inner = s[:m // 2] + s[n - m // 2:]
            assert is_member(inner, t)
            sig_s = sigma_of_string(s)
            sig_inner = sigma_of_string(inner)
            assert sig_s[:m // 2] == sig_inner[:m // 2]


def test_st_roundtrip_clean():
    rng = random.Random(10)
    for t in (1, 2, 3):
        for _ in range(6):
            k = rng.randint(1, 14)
            info = random_info(rng, k)
            s = st_encode(info, t)
            assert st_decode(compose_all(s), k, t) == info


def asym_corrupt(c, t, rng):
    n = c.n
    chosen = []
    pool = list(range(1, n + 1))
    rng.shuffle(pool)
    for level in pool:
        if len(chosen) == t:
            break
        if n + 1 - level in chosen:
            continue
        chosen.append(level)
    for level in chosen:
        corrupt(c, level, rng)
    return chosen


def test_st_decode_with_asymmetric_errors():
    rng = random.Random(11)
    for t in (1, 2):
        for _ in range(25):
            k = rng.randint(2, 12)
            info = random_info(rng, k)
            s = st_encode(info, t)
            c = compose_all(s)
            asym_corrupt(c, t, rng)
            assert st_decode(c, k, t) == info


def test_st_low_level_errors_trivial_for_sigma():
    # errors at levels <= n/2 leave all mirror pairs intact only when they hit
    # the lower half; the decoder must still succeed
    rng = random.Random(12)
    for _ in range(10):
        k = rng.randint(2, 10)
        t = 2
        info = random_info(rng, k)
        s = st_encode(info, t)
        n = len(s)
        c = compose_all(s)
        levels = rng.sample(range(1, n // 2 + 1), t)
        for level in levels:
            corrupt(c, level, rng)
        assert st_decode(c, k, t) == info


def test_st_decode_corrects_every_single_error_at_k_4():
    # every codeword at k = 4, t = 1 (n = 22): each level, each weight it
    # holds, replaced by each other weight of the level
    k, t = 4, 1
    n = st_params(k, t)[1]
    assert n == 22
    decodes = 0
    for bits in itertools.product("01", repeat=k):
        info = "".join(bits)
        clean = compose_all(st_encode(info, t))
        for l in range(1, n + 1):
            for old in clean.level_counter(l):
                for new in range(l + 1):
                    if new != old:
                        c = clean.copy()
                        c.replace(l, old, new)
                        assert st_decode(c, k, t) == info, (info, l, old, new)
                        decodes += 1
    assert decodes == 15356


def adversarial_weight(old, l):
    """The replacement corrupt's adversarial mode draws: farthest from old."""
    return max((w for w in range(l + 1) if w != old), key=lambda w: abs(w - old))


@pytest.mark.parametrize("info", ["1011", "0110"])
def test_st_decode_corrects_every_non_mirror_pair_at_k_4_t_2(info):
    # n = 48: every pair of levels that are not each other's mirror, each
    # losing its lightest or heaviest element to the adversarial weight
    k, t = 4, 2
    n = st_params(k, t)[1]
    assert n == 48
    clean = compose_all(st_encode(info, t))
    ends = {l: sorted({min(clean.level_counter(l)), max(clean.level_counter(l))})
            for l in range(1, n + 1)}
    decodes = 0
    for l1, l2 in itertools.combinations(range(1, n + 1), 2):
        if l1 + l2 == n + 1:
            continue
        for o1, o2 in itertools.product(ends[l1], ends[l2]):
            c = clean.copy()
            c.replace(l1, o1, adversarial_weight(o1, l1))
            c.replace(l2, o2, adversarial_weight(o2, l2))
            assert st_decode(c, k, t) == info, (l1, o1, l2, o2)
            decodes += 1
    assert decodes > 4000


@pytest.mark.parametrize("info", ["1011", "0000", "0110"])
def test_st_decode_reports_a_failed_sigma_recovery(info):
    # two errors at levels 5 and 9 (n = 22, t = 1) mismatch two mirror pairs
    # and erase more sigma digits than the ternary code's 3t parity fills
    c = compose_all(st_encode(info, 1))
    for l in (5, 9):
        c.replace(l, min(c.level_counter(l)), min(c.level_counter(l)) + 1)
    with pytest.raises(backtrack.ReconstructionFailure,
                       match="sigma recovery failed"):
        st_decode(c, 4, 1)


@pytest.mark.parametrize("info", ["1011", "0000", "0110"])
def test_st_decode_reports_an_exhausted_tolerance_budget(info):
    # two errors at level 11 that keep its weight: sigma is exact and no
    # level is marked bad, but no string has the level's elements
    c = compose_all(st_encode(info, 1))
    lo, hi = min(c.level_counter(11)), max(c.level_counter(11))
    assert hi - lo >= 2
    c.replace(11, lo, lo + 1)
    c.replace(11, hi, hi - 1)
    with pytest.raises(backtrack.ReconstructionFailure,
                       match="tolerance budget exhausted"):
        st_decode(c, 4, 1)


def test_st_redundancy_bound():
    import math
    rng = random.Random(13)
    for t in (1, 2, 3):
        for k in (8, 16, 24, 40):
            m, n = st_params(k, t)
            r = st_redundancy(k, t)
            assert r <= (0.5 + 3 * t) * math.log2(n) + 2 * t + 6, (k, t, r, n)


def test_each_decode_validates_and_weighs_once(monkeypatch):
    # sigma recovery and the tolerant search share one shape check and one
    # weight profile per decode
    rng = random.Random(14)
    info = "1011"
    c1 = compose_all(s1_encode(info))
    corrupt(c1, 7, rng)
    c2 = compose_all(st_encode(info, 2))
    asym_corrupt(c2, 2, rng)
    calls = Counter()
    validate = CompositionMultiset.validate_shape

    def counting_validate(c):
        calls["validate_shape"] += 1
        return validate(c)

    def counting_weights(c):
        calls["cumulative_weights"] += 1
        return cumulative_weights(c)

    monkeypatch.setattr(CompositionMultiset, "validate_shape", counting_validate)
    for module in (asym, backtrack):
        monkeypatch.setattr(module, "cumulative_weights", counting_weights)
    for decode, c, args in ((s1_decode, c1, ()), (st_decode, c2, (2,))):
        calls.clear()
        assert decode(c, len(info), *args) == info
        assert calls == {"validate_shape": 1, "cumulative_weights": 1}
