import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compocode.compositions import (
    CorruptedInput,
    compose_all,
    multiset_symmetric_difference,
    sigma_of_string,
    weight,
)
from compocode import sym
from compocode.backtrack import ReconstructionFailure
from compocode.fields import BCHCode, SparsityExceeded, _field, bblock_code, field_setup
from compocode.sym import (
    BlockCodeFailure,
    DeltaObservation,
    DenseObservation,
    PolyCodeParams,
    _eval_prefix_string,
    _grid_msg_len,
    _parity_block,
    _prefix_arrays,
    _prefix_grid,
    _reconstruct_known_shell,
    as_observation,
    catalan_code_decode_bruteforce,
    catalan_code_encode,
    catalan_code_params,
    catalan_code_strip,
    catalan_number,
    catalan_rank,
    catalan_unrank,
    etn_decode,
    etn_decode_info,
    etn_encode,
    etn_encode_info,
    etn_redundancy,
    etn_split,
    is_catalan_codeword,
    multiset_to_S,
    poly_params_from_length,
    poly_params_from_payload,
    recover_error_poly,
    resolve_weight,
    string_to_P,
    verify_identity,
)

bitstrings = st.text(alphabet="01", min_size=1, max_size=12)


def random_bits(rng, k):
    return "".join(rng.choice("01") for _ in range(k))


# -- polynomial formulation --------------------------------------------------


def test_string_to_P_example():
    P = string_to_P("0100")
    assert P.terms == {(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1}
    assert (P.d_x, P.d_y) == (1, 3)


def test_multiset_to_S_example():
    S = multiset_to_S(compose_all("0100"))
    assert S.terms == {(1, 0): 1, (0, 1): 3, (1, 1): 2, (0, 2): 1,
                       (1, 2): 2, (1, 3): 1}
    assert S.n == 4


def test_identity_symbolic_exhaustive_small():
    for n in range(1, 9):
        for bits in itertools.product("01", repeat=n):
            s = "".join(bits)
            assert verify_identity(string_to_P(s),
                                   multiset_to_S(compose_all(s)), n)


@given(bitstrings)
@settings(max_examples=60, deadline=None)
def test_identity_symbolic_property(s):
    assert verify_identity(string_to_P(s), multiset_to_S(compose_all(s)),
                           len(s))


def test_identity_eval_mode():
    rng = random.Random(1)
    field = poly_params_from_payload(13, 1).field
    for _ in range(20):
        s = random_bits(rng, rng.randint(1, 64))
        assert verify_identity(string_to_P(s), multiset_to_S(compose_all(s)),
                               len(s), field=field, points=20, rng=rng)


def test_identity_detects_corruption():
    s = "0100110"
    c = compose_all(s)
    c.replace(3, 1, 2)
    assert not verify_identity(string_to_P(s), multiset_to_S(c), len(s))


def test_resolve_weight():
    # observed off by <= 1, residue mod 3 pins the value
    assert resolve_weight(6, 6 % 3, 1, 20) == 6
    assert resolve_weight(7, 6 % 3, 1, 20) == 6
    assert resolve_weight(5, 6 % 3, 1, 20) == 6
    with pytest.raises(CorruptedInput):
        resolve_weight(25, 0, 1, 20)  # no candidate in [0, n]


# -- observations ------------------------------------------------------------


def test_observations_agree_with_multiset():
    rng = random.Random(2)
    for _ in range(15):
        s = random_bits(rng, rng.randint(4, 30))
        c = compose_all(s)
        delta = DeltaObservation(s)
        dense = DenseObservation(c.copy())
        for l in range(1, len(s) + 1):
            assert delta.level_counter(l) == c.levels[l]
        assert list(delta.weight_profile()) == list(dense.weight_profile())


def test_observation_replace_tracks_multiset():
    s = "0100110101"
    c = compose_all(s)
    obs = DeltaObservation(s)
    c.replace(4, 2, 0)
    obs.replace(4, 2, 0)
    c.replace(7, 4, 5)
    obs.replace(7, 4, 5)
    for l in range(1, len(s) + 1):
        assert obs.level_counter(l) == c.levels[l]
    with pytest.raises(CorruptedInput):
        obs.replace(4, 4, 0)  # no weight-4 element left at level 4


def test_observation_sym_eval_matches_polynomial():
    field = poly_params_from_payload(13, 1).field
    q = field.q
    rng = random.Random(3)
    for _ in range(10):
        s = random_bits(rng, rng.randint(3, 20))
        obs = DeltaObservation(s)
        obs.replace(2, weight(s[:2]), (weight(s[:2]) + 1) % 3)
        dense = DenseObservation(obs_to_multiset(obs))
        for l1, l2 in [(0, 0), (1, 2), (-3, 4), (2, -2)]:
            assert obs.sym_eval(l1, l2, field) == dense.sym_eval(l1, l2, field)


def obs_to_multiset(obs):
    # rebuild a plain multiset by applying the delta directly
    c = compose_all(obs.s)
    for l, d in obs.delta.items():
        for w, cnt in d.items():
            if cnt > 0:
                c.levels[l][w] += cnt
            else:
                c.levels[l][w] += cnt
                if c.levels[l][w] == 0:
                    del c.levels[l][w]
    return c


def test_observation_correct_roundtrip():
    s = "010011010011"
    obs = DeltaObservation(s)
    obs.replace(5, 2, 4)
    error = {(4, 1): 1, (2, 3): -1}  # remove the added w=4, restore w=2
    fixed = obs.correct(error)
    base = DeltaObservation(s)
    assert list(fixed.weight_profile()) == list(base.weight_profile())
    for l in range(1, len(s) + 1):
        assert fixed.level_counter(l) == base.level_counter(l)


def test_level_counter_rejects_levels_outside_1_to_n():
    s = "0110100"
    c = compose_all(s)
    obs = DeltaObservation(s)
    for l in (-1, 0, len(s) + 1, len(s) + 2):
        with pytest.raises(KeyError):
            c.levels[l]
        with pytest.raises(KeyError):
            obs.level_counter(l)
        with pytest.raises(KeyError):
            obs.replace(l, 0, 1)
    assert obs.delta == {}


def test_as_observation_passthrough():
    c = compose_all("0101")
    assert isinstance(as_observation(c), DenseObservation)
    d = DeltaObservation("0101")
    assert as_observation(d) is d


# -- parameters and the parity block -----------------------------------------


def test_params_consistency():
    for t in (1, 2):
        p = poly_params_from_payload(13, t)
        assert p.r_hat % 4 == 0
        assert p.n == p.nu + p.r_hat
        assert (p.field.q - 1).bit_length() == p.elem_bits
        assert p.msg_len == p.a_bits + (8 * t + 1) ** 2 * p.elem_bits
        assert poly_params_from_length(p.n, t) == p


def test_params_reject_bad_inputs():
    with pytest.raises(ValueError):
        poly_params_from_payload(0, 1)
    with pytest.raises(ValueError):
        poly_params_from_payload(5, 0)
    with pytest.raises(ValueError):
        poly_params_from_length(100, 1)  # far too short for the parity block


def _params_oracle(nu, t):
    """The parameter search as it was: one BCH generator multiplied out over
    GF(2^m) per candidate field degree and per candidate elem_bits."""
    for elem_bits in range(2, 64):
        msg_len = _grid_msg_len(t, elem_bits)
        m = 2
        while True:
            m += 1
            if (1 << m) - 1 - m * t < msg_len:
                continue
            roots = set()
            for i in range(1, 2 * t + 1):
                j = i
                while j not in roots:
                    roots.add(j)
                    j = j * 2 % ((1 << m) - 1)
            n_parity = len(BCHCode._generator(_field(2, m), roots)) - 1
            if (1 << m) - 1 - n_parity >= msg_len:
                break
        code_len = msg_len + n_parity
        n = nu + 4 * code_len
        field = field_setup(n)
        if (field.q - 1).bit_length() == elem_bits:
            return PolyCodeParams(n, t, nu, 4 * code_len, field, msg_len,
                                  code_len, (2 * t).bit_length(), elem_bits)


def test_params_match_the_per_code_search():
    for t in (1, 2, 3):
        for nu in range(1, 65):
            p = poly_params_from_payload(nu, t)
            assert p == _params_oracle(nu, t), (nu, t)
            assert bblock_code(p.msg_len, t).code_len == p.code_len


def test_parity_block_reads_back():
    rng = random.Random(4)
    for _ in range(20):
        sbar = [rng.randint(0, 1) for _ in range(rng.randint(1, 40))]
        z = _parity_block(sbar)
        assert len(z) == 2 * len(sbar)
        assert all(z[j] == "0" for j in range(1, len(z), 2))
        acc = 0
        for j, ch in enumerate(z, start=1):
            acc ^= int(ch)
            if j % 2:
                assert acc == sbar[(j + 1) // 2 - 1]


# -- the systematic encoder --------------------------------------------------


def test_etn_encoder_structure_and_parities():
    rng = random.Random(5)
    for t in (1, 2):
        p = poly_params_from_payload(13, t)
        for _ in range(3):
            u = random_bits(rng, 13)
            s = etn_encode(u, t)
            assert len(s) == p.n
            pre, mid, suf = etn_split(s, t)
            assert pre == "0" * (p.r_hat // 2) and mid == u
            # level-1 weight splits into payload and parity weight
            assert weight(s) == weight(u) + weight(suf)
            # sigma over the parity half equals the suffix read backwards
            sigma = sigma_of_string(s)
            z = suf[::-1]
            assert all(sigma[j - 1] == int(z[j - 1])
                       for j in range(1, p.r_hat // 2 + 1))
            # even-level cumulative weight parities spell out sbar
            w = DeltaObservation(s).weight_profile()
            sbar = bblock_code(p.msg_len, t).encode(
                bblock_code(p.msg_len, t).decode(
                    [int(w[2 * j - 1]) % 2 for j in range(1, p.code_len + 1)]))
            assert [int(w[2 * j - 1]) % 2
                    for j in range(1, p.code_len + 1)] == list(sbar)


def test_etn_encode_rejects_wrong_length():
    p = poly_params_from_payload(13, 1)
    with pytest.raises(ValueError):
        etn_encode("0" * 12, 1, p)


def test_etn_roundtrip_clean():
    rng = random.Random(6)
    for t in (1, 2):
        u = random_bits(rng, 13)
        s = etn_encode(u, t)
        assert etn_decode(DeltaObservation(s), t) == u


def test_etn_corrects_single_errors():
    rng = random.Random(7)
    u = random_bits(rng, 13)
    s = etn_encode(u, 1)
    n = len(s)
    for _ in range(12):
        obs = DeltaObservation(s)
        l = rng.randrange(1, n + 1)
        old = rng.choice(sorted(obs.level_counter(l).elements()))
        new = rng.choice([v for v in range(l + 1) if v != old])
        obs.replace(l, old, new)
        assert etn_decode(obs, 1) == u, (l, old, new)


def test_etn_corrects_double_errors():
    rng = random.Random(8)
    u = random_bits(rng, 13)
    s = etn_encode(u, 2)
    n = len(s)
    for _ in range(4):
        obs = DeltaObservation(s)
        for l in rng.sample(range(1, n + 1), 2):
            old = rng.choice(sorted(obs.level_counter(l).elements()))
            new = rng.choice([v for v in range(l + 1) if v != old])
            obs.replace(l, old, new)
        assert etn_decode(obs, 2) == u


def test_etn_corrects_reciprocal_pair_errors():
    # both errors on mirrored levels l and n+1-l, the hardest placement
    rng = random.Random(9)
    u = random_bits(rng, 13)
    s = etn_encode(u, 2)
    n = len(s)
    for _ in range(4):
        obs = DeltaObservation(s)
        l = rng.randrange(2, n // 2)
        for lvl in (l, n + 1 - l):
            old = rng.choice(sorted(obs.level_counter(lvl).elements()))
            new = rng.choice([v for v in range(lvl + 1) if v != old])
            obs.replace(lvl, old, new)
        assert etn_decode(obs, 2) == u


def test_etn_flags_excess_errors():
    rng = random.Random(10)
    u = random_bits(rng, 13)
    s = etn_encode(u, 1)
    n = len(s)
    flagged = 0
    for _ in range(6):
        obs = DeltaObservation(s)
        for l in rng.sample(range(1, n + 1), 4):
            old = rng.choice(sorted(obs.level_counter(l).elements()))
            new = rng.choice([v for v in range(l + 1) if v != old])
            obs.replace(l, old, new)
        try:
            got = etn_decode(obs, 1)
        except (CorruptedInput, SparsityExceeded, ReconstructionFailure):
            flagged += 1
        else:
            assert got != u or True  # a miscorrection may still return bits
    assert flagged >= 4


def test_etn_info_roundtrip_and_redundancy():
    rng = random.Random(11)
    info = random_bits(rng, 8)
    c = etn_encode_info(info, 1)
    obs = DeltaObservation(c)
    l = 17
    old = sorted(obs.level_counter(l).elements())[0]
    obs.replace(l, old, (old + 1) % (l + 1))
    assert etn_decode_info(obs, 8, 1) == info
    assert etn_redundancy(8, 1) == len(c) - 8


def test_recover_error_poly_zero_error():
    # with F built from the true string, the recovered error is empty
    u = "1011001010110"
    t = 1
    s = etn_encode(u, t)
    p = poly_params_from_length(len(s), t)
    obs = DeltaObservation(s)
    from compocode.sym import _eval_prefix_string, _grid_points
    q, alpha = p.field.q, p.field.alpha
    d_x = weight(s)
    d_y = p.n - d_x
    F, p_grid = {}, {}
    for l1, l2 in _grid_points(t):
        p_grid[(l1, l2)] = _eval_prefix_string(s, l1, l2, p.field)
        scale = pow(alpha, (l1 * d_x + l2 * d_y) % (q - 1), q)
        F[(l1, l2)] = scale * (p.n + 1 + obs.sym_eval(l1, l2, p.field)) % q
    assert recover_error_poly(F, p_grid, d_x, d_y, t, p.field, p.n) == {}


def _assert_grid_matches_pointwise(s, R, field):
    grid = _prefix_grid(*_prefix_arrays(s), R, field)
    assert grid.shape == (2 * R + 1, 2 * R + 1)
    for l1 in range(-R, R + 1):
        for l2 in range(-R, R + 1):
            assert grid[l1 + R, l2 + R] == \
                _eval_prefix_string(s, l1, l2, field), (l1, l2)


def test_prefix_grid_matches_pointwise_evaluator():
    rng = random.Random(14)
    for _ in range(20):
        s = random_bits(rng, rng.randint(1, 60))
        field = field_setup(rng.randint(len(s), 200))
        _assert_grid_matches_pointwise(s, rng.randint(0, 5), field)


def test_prefix_grid_at_the_benchmark_length():
    # k = 12, t = 2: the longest codeword any shipped workload decodes
    s = etn_encode_info("101100111000", 2)
    assert len(s) == 18628
    _assert_grid_matches_pointwise(s, 8, poly_params_from_length(len(s), 2).field)


def test_prefix_grid_split_sums_agree(monkeypatch):
    # spans of 1, 2 and 5 products instead of one exact int64 dot per row
    rng = random.Random(15)
    s = random_bits(rng, 40)
    field = field_setup(300)
    whole = _prefix_grid(*_prefix_arrays(s), 3, field)
    for span in (1, 2, 5):
        monkeypatch.setattr(sym, "_EXACT_SUM", span * (field.q - 1) ** 2)
        assert np.array_equal(_prefix_grid(*_prefix_arrays(s), 3, field), whole)


def test_known_shell_rejects_a_flipped_shell_sigma():
    t = 1
    p = poly_params_from_payload(13, t)
    half = p.r_hat // 2
    s = etn_encode("1011001110001", t, p)
    suffix = s[half + p.nu:]
    sigma = sigma_of_string(s)
    obs = DeltaObservation(s)
    assert _reconstruct_known_shell(obs, half, suffix, sigma, weight(s)) == s
    rng = random.Random(16)
    for j in rng.sample(range(half), 10):
        flipped = list(sigma)
        flipped[j] = 1 - flipped[j]  # every shell pair sums to 0 or 1
        with pytest.raises(ReconstructionFailure):
            _reconstruct_known_shell(obs, half, suffix, flipped, weight(s))


# -- the Catalan-path code ---------------------------------------------------


def test_catalan_numbers():
    assert [catalan_number(h) for h in range(1, 8)] == \
        [1, 2, 5, 14, 42, 132, 429]


def test_catalan_rank_unrank_bijection():
    for h in (1, 2, 3, 4, 5):
        seen = set()
        for r in range(catalan_number(h)):
            s = catalan_unrank(r, h)
            assert catalan_rank(s) == r
            assert len(s) == 2 * h and s.count("0") == h
            seen.add(s)
        assert len(seen) == catalan_number(h)


def test_catalan_code_large_k_has_no_recursion_cliff():
    k, t = 1000, 1
    h = 1
    while math.comb(2 * h, h) // (h + 1) < 2 ** k:
        h += 1
    assert catalan_code_params(k, t) == 2 * h + 2 * (4 * t + 1)
    for r in (0, 1, 2 ** k - 1, catalan_number(h) - 1):
        assert catalan_rank(catalan_unrank(r, h)) == r


def test_catalan_rank_rejects_bad_strings():
    with pytest.raises(ValueError):
        catalan_rank("10")  # dominance violated
    with pytest.raises(ValueError):
        catalan_rank("00")  # unbalanced
    with pytest.raises(ValueError):
        catalan_rank("010")  # odd length


def test_catalan_code_format():
    n = catalan_code_params(3, 1)
    assert n == 18
    s = catalan_code_encode("101", 1)
    assert len(s) == n
    assert s.startswith("0" * 5) and s.endswith("1" * 5)
    assert is_catalan_codeword(s, 1)
    assert catalan_code_strip(s, 3, 1) == "101"
    assert not is_catalan_codeword("0" * 5 + "10010110" + "1" * 5, 1)
    assert not is_catalan_codeword(s[:-1] + "0", 1)


def test_catalan_codebook_distance():
    n = 18
    cb = ["0" * 5 + catalan_unrank(r, 4) + "1" * 5
          for r in range(catalan_number(4))]
    for a, b in itertools.combinations(cb, 2):
        d, _ = multiset_symmetric_difference(compose_all(a), compose_all(b))
        assert d >= 5


def test_catalan_decode_clean_and_single_errors():
    rng = random.Random(12)
    for info in ("000", "101", "110"):
        s = catalan_code_encode(info, 1)
        c = compose_all(s)
        assert catalan_code_decode_bruteforce(c.copy(), 1) == s
        for _ in range(6):
            cc = c.copy()
            l = rng.randrange(1, len(s) + 1)
            old = rng.choice(sorted(cc.levels[l].elements()))
            new = rng.choice([v for v in range(l + 1) if v != old])
            cc.replace(l, old, new)
            assert catalan_code_decode_bruteforce(cc, 1) == s


def test_catalan_decode_flags_unexplainable_input():
    s = catalan_code_encode("010", 1)
    c = compose_all(s)
    rng = random.Random(13)
    flagged = 0
    for _ in range(5):
        cc = c.copy()
        for l in rng.sample(range(1, len(s) + 1), 3):
            old = rng.choice(sorted(cc.levels[l].elements()))
            new = rng.choice([v for v in range(l + 1) if v != old])
            cc.replace(l, old, new)
        try:
            got = catalan_code_decode_bruteforce(cc, 1)
        except ReconstructionFailure:
            flagged += 1
        else:
            assert is_catalan_codeword(got, 1)
    assert flagged >= 1


def test_catalan_encode_rejects_overfull_info():
    with pytest.raises(ValueError):
        catalan_code_encode("1111", 1, 18)  # rank 15 > C_4 = 14


def test_blockcode_failure_is_distinct():
    assert issubclass(BlockCodeFailure, CorruptedInput)
    assert not issubclass(SparsityExceeded, CorruptedInput)
