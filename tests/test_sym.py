import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compocode.compositions import (
    CompositionMultiset,
    CorruptedInput,
    compose_all,
    cumulative_weights,
    mirror_mismatches,
    multiset_symmetric_difference,
    parse,
    serialize,
    sigma_of_string,
    weight,
)
from compocode import backtrack, compositions, fields, sym
from compocode.backtrack import ReconstructionFailure, reconstruct, tolerant_reconstruct
from compocode.catalan import sr_params
from compocode.channel import ErrorModel, build_scheme, corrupt
from compocode.fields import (
    BCHCode,
    PrimeField,
    SparsityExceeded,
    _field,
    bblock_code,
    field_setup,
    monomial_grid,
    prefix_grid,
    sparse_interpolate,
)
from compocode.sym import (
    BlockCodeFailure,
    DeltaObservation,
    PolyCodeParams,
    _eval_prefix_string,
    _grid_msg_len,
    _interpolate_rows,
    _parity_block,
    _prefix_arrays,
    _reconstruct_known_shell,
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
    is_catalan_codeword,
    multiset_to_S,
    poly_params_from_length,
    poly_params_from_payload,
    recover_error_poly,
    resolve_weight,
    string_to_P,
    verify_identity,
)
from test_asym import adversarial_weight

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


def _eval_terms(terms, bx: int, by: int, field) -> int:
    """sum c x^i y^j over {(i, j): c} at (bx, by), mod q, term by term."""
    q = field.q
    acc = 0
    for (i, j), c in terms.items():
        acc = (acc + c * pow(bx, i, q) * pow(by, j, q)) % q
    return acc


def test_identity_eval_mode():
    rng = random.Random(1)
    field = poly_params_from_payload(13, 1).field
    q = field.q
    for _ in range(20):
        s = random_bits(rng, rng.randint(1, 64))
        P, S = string_to_P(s), multiset_to_S(compose_all(s))
        for _ in range(20):
            bx, by = rng.randrange(1, q), rng.randrange(1, q)
            bxi, byi = field.inv(bx), field.inv(by)
            lhs = _eval_terms(P.terms, bx, by, field) * \
                _eval_terms(P.terms, bxi, byi, field) % q
            rhs = (len(s) + 1 + _eval_terms(S.terms, bx, by, field)
                   + _eval_terms(S.terms, bxi, byi, field)) % q
            assert lhs == rhs, s


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
        for l in range(1, len(s) + 1):
            assert delta.level_counter(l) == c.level_counter(l) == c.levels[l]
        assert list(delta.weight_profile()) == list(c.weight_profile())
        # reading levels folds both forms into the dense one alike
        assert delta.levels == c.levels and delta == c
        assert delta.level_counter(len(s)) == c.levels[len(s)]


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
    # three forms of each string with one replace: compose_all's and
    # DeltaObservation's source-backed ones, and a parsed dense one, whose
    # replace also lands in its delta
    field = poly_params_from_payload(13, 1).field
    q = field.q
    rng = random.Random(3)
    for _ in range(10):
        s = random_bits(rng, rng.randint(3, 20))
        forms = [compose_all(s), DeltaObservation(s), parse(serialize(compose_all(s)))]
        for obs in forms:
            obs.replace(2, weight(s[:2]), (weight(s[:2]) + 1) % 3)
        assert forms[2].delta == forms[0].delta and forms[2]._source is None
        grids = [obs.sym_eval(4, field) for obs in forms]
        profiles = [obs.weight_profile() for obs in forms]
        assert grids[0].shape == (9, 9)
        for obs, grid, profile in zip(forms, grids, profiles):
            assert np.array_equal(grid, grids[0])
            assert np.array_equal(profile, profiles[0])
            # and against S itself, term by term
            S = multiset_to_S(obs)
            for l1, l2 in [(0, 0), (1, 2), (-3, 4), (2, -2)]:
                x = pow(field.alpha, l1 % (q - 1), q)
                y = pow(field.alpha, l2 % (q - 1), q)
                want = (_eval_terms(S.terms, x, y, field) + _eval_terms(
                    S.terms, field.inv(x), field.inv(y), field)) % q
                assert grid[l1 + 4, l2 + 4] == want
            want = [0] * len(s)
            for (w, z), c in S.terms.items():
                want[w + z - 1] += w * c
            assert profile.tolist() == want


def test_source_backed_reads_compose_no_level(monkeypatch):
    # sym_eval and weight_profile read the string and the delta: they
    # compose no level, and the form keeps its source
    field = poly_params_from_payload(13, 1).field
    s = "0110100111010"
    obs, dense = compose_all(s), parse(serialize(compose_all(s)))
    for c in (obs, dense):
        c.replace(3, 2, 0)

    def refuse(P, l):
        raise AssertionError(f"level {l} composed")
    monkeypatch.setattr(compositions, "level_of_prefix", refuse)
    assert np.array_equal(obs.sym_eval(4, field), dense.sym_eval(4, field))
    assert np.array_equal(obs.weight_profile(), dense.weight_profile())
    assert obs._source == s and obs.delta == {3: {2: -1, 0: 1}}


def test_sym_poly_decodes_a_compose_all_observation_at_k_12():
    # the registry's decoder on compose_all's form at n = 18,628: two
    # symmetric errors decode, and the observation keeps its source
    code = build_scheme("sym-poly", 12, 2)
    rng = random.Random(43)
    info = random_bits(rng, 12)
    s = code.encode(info)
    obs, log = corrupt(compose_all(s), ErrorModel("symmetric", 2), rng)
    assert len(log) == 2 and obs._source == s
    assert code.decode(obs) == info
    assert obs._source == s and code.verify(info, obs)


def test_sym_poly_decode_of_a_compose_all_form_stays_small_at_k_4096():
    # the shell reads each sigma = 1 payload level as one bincount of the
    # source's prefix array, so the levels composed into the cache its
    # copies share are the two the channel wrote; composing and caching
    # every level it read took this decode to 182 MB under tracemalloc
    code = build_scheme("sym-poly", 4096, 2)
    rng = random.Random(44)
    info = random_bits(rng, 4096)
    s = code.encode(info)
    assert len(s) == 22716
    obs, _ = corrupt(compose_all(s), ErrorModel("symmetric", 2), rng)
    tracemalloc.start()
    try:
        assert code.decode(obs) == info
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert obs._levels.keys() == obs.delta.keys()


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
    dense = compose_all(s)
    dense.replace(5, 2, 4)
    assert dense.correct(error) == compose_all(s)
    with pytest.raises(CorruptedInput):
        compose_all(s).correct({(4, 1): 1})  # no weight-4 element at level 5


def correct_outcome(obs, error):
    try:
        fixed = obs.correct(error)
    except CorruptedInput as e:
        return str(e)
    return [fixed.level_counter(l) for l in range(1, obs.n + 1)]


def test_both_observation_forms_correct_alike():
    # a removal the multiset cannot serve fails in both forms with the same
    # message, also where a put-back at the same level keeps the level's count
    rng = random.Random(37)
    outcomes = set()
    for _ in range(300):
        s = random_bits(rng, rng.randint(1, 14))
        n = len(s)
        sparse, dense = DeltaObservation(s), compose_all(s)
        for _ in range(rng.randint(0, 2)):  # the same channel errors in both
            l = rng.randint(1, n)
            old = rng.choice(sorted(dense.level_counter(l)))
            new = rng.randint(0, l)
            sparse.replace(l, old, new)
            dense.replace(l, old, new)
        error = {}
        for _ in range(rng.randint(1, 3)):
            l = rng.randint(1, n)
            w, w2 = rng.randint(0, l), rng.randint(0, l)  # present or absent
            c = rng.choice((-2, -1, 1, 2))
            error[(w, l - w)] = error.get((w, l - w), 0) + c
            error[(w2, l - w2)] = error.get((w2, l - w2), 0) - c
        got = correct_outcome(sparse, error)
        assert got == correct_outcome(dense, error), (s, error)
        outcomes.add(isinstance(got, str))
    with pytest.raises(CorruptedInput):
        DeltaObservation("0001011").correct({(3, 0): 1, (0, 3): -1})
    assert outcomes == {True, False}
    # both report the first flaw in (level, weight) order, whatever order
    # the error or the string lists the weights in
    for s, error, message in (
            ("1100", {(2, 0): 2, (0, 2): 2, (1, 1): -4},
             "level 2 holds weight 0 -1 times"),
            ("0100110101", {(2, 0): 2, (0, 2): -2, (1, 0): 6, (0, 1): -6},
             "level 1 holds weight 1 -1 times")):
        for obs in (DeltaObservation(s), compose_all(s)):
            with pytest.raises(CorruptedInput, match=f"^{message}$"):
                obs.correct(error)


def test_level_counter_rejects_levels_outside_1_to_n():
    s = "0110100"
    c = compose_all(s)
    obs = DeltaObservation(s)
    for l in (-1, 0, len(s) + 1, len(s) + 2):
        with pytest.raises(KeyError):
            c.levels[l]
        with pytest.raises(KeyError):
            c.level_counter(l)
        with pytest.raises(KeyError):
            obs.level_counter(l)
        with pytest.raises(KeyError):
            c.level_counts(l)
        with pytest.raises(KeyError):
            obs.level_counts(l)
        with pytest.raises(KeyError):
            obs.replace(l, 0, 1)
    assert obs.delta == {}


def test_both_observation_forms_count_levels_alike():
    # level_counts(l) is level l as an int64 array over the weights 0..l in
    # both forms, and level_counter(l) its Counter view; a removal past what
    # a level holds leaves a negative count, which the sparse form refuses
    rng = random.Random(41)
    for _ in range(200):
        s = random_bits(rng, rng.randint(1, 16))
        n = len(s)
        sparse, dense = DeltaObservation(s), compose_all(s)
        for _ in range(rng.randint(0, 4)):  # the same channel errors in both
            l = rng.randint(1, n)
            old = rng.choice(sorted(dense.level_counter(l)))
            new = rng.randint(0, l)
            sparse.replace(l, old, new)
            dense.replace(l, old, new)
        for l in range(1, n + 1):
            counts = sparse.level_counts(l)
            assert counts.dtype == np.int64 and len(counts) == l + 1
            assert np.array_equal(counts, dense.level_counts(l))
            view = {w: m for w, m in enumerate(counts.tolist()) if m}
            assert sparse.level_counter(l) == dense.level_counter(l) == view
        l = rng.randint(1, n)
        w = rng.randint(0, l)
        sparse._bump(l, w, -1 - int(sparse.level_counts(l)[w]))
        for read in (sparse.level_counts, sparse.level_counter):
            with pytest.raises(CorruptedInput,
                               match=f"^negative multiplicity at level {l}$"):
                read(l)


@pytest.mark.parametrize("level, w", [(5, 1), (0, 0)])
def test_sparse_validate_shape_rejects_a_level_outside_the_string(level, w):
    # a level outside 1..n has no base windows to count a removal against
    obs = DeltaObservation("0110")
    obs._bump(level, w, -1)
    with pytest.raises(CorruptedInput, match=f"^level {level} out of range$"):
        obs.validate_shape()


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


def etn_split(s, t):
    """(zero prefix, payload, parity suffix) of a codeword-shaped string."""
    p = poly_params_from_length(len(s), t)
    half = p.r_hat // 2
    return s[:half], s[half:half + p.nu], s[half + p.nu:]


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
            parities = [int(w[2 * j - 1]) % 2 for j in range(1, p.code_len + 1)]
            assert bblock_code(p.msg_len, t).decode(parities) == parities


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


@pytest.mark.parametrize("levels", [(6312, 6892, 664), (2202, 1034, 4180),
                                    (3900, 8918, 2138), (4186, 5876, 8686)])
def test_etn_reports_undecodable_weight_parities(levels):
    # k = 4, t = 2 (n = 18,619): three errors, each raising an even level
    # below rhat/2 by 1, flip three of sbar's bits, one more than the block
    # code corrects
    code = build_scheme("sym-poly", 4, 2)
    assert code.n == 18619
    obs = code.observe(code.encode("1011"))
    for l in levels:
        obs.replace(l, min(obs.level_counter(l)), min(obs.level_counter(l)) + 1)
    with pytest.raises(BlockCodeFailure):
        code.decode(obs)


def test_etn_info_roundtrip_and_redundancy():
    rng = random.Random(11)
    info = random_bits(rng, 8)
    c = etn_encode_info(info, 1)
    obs = DeltaObservation(c)
    l = 17
    old = sorted(obs.level_counter(l).elements())[0]
    obs.replace(l, old, (old + 1) % (l + 1))
    assert etn_decode_info(obs, 8, 1) == info
    # the length, and so the redundancy n - k, follows from the payload: the
    # k-bit reconstruction codeword
    assert len(c) == poly_params_from_payload(sr_params(8, 0), 1).n


def test_etn_decodes_a_dense_multiset_end_to_end():
    # the CLI's parsed-file path: the whole quadratic multiset, no delta
    rng = random.Random(17)
    info = random_bits(rng, 8)
    s = etn_encode_info(info, 1)
    c = compose_all(s)
    l = rng.randrange(1, len(s) + 1)
    old = rng.choice(sorted(c.level_counter(l).elements()))
    c.replace(l, old, rng.choice([v for v in range(l + 1) if v != old]))
    assert etn_decode_info(c, 8, 1) == info


def test_recover_error_poly_zero_error():
    # with the Etilde grid built from the true string, the recovered error is
    # empty; every grid value here comes from the pointwise evaluator
    u = "1011001010110"
    t = 1
    s = etn_encode(u, t)
    p = poly_params_from_length(len(s), t)
    obs = DeltaObservation(s)
    q, alpha = p.field.q, p.field.alpha
    d_x = weight(s)
    d_y = p.n - d_x
    R = 4 * t
    s_grid = obs.sym_eval(R, p.field)
    assert s_grid.shape == (2 * R + 1, 2 * R + 1)
    e_grid = np.zeros_like(s_grid)
    for l1 in range(-R, R + 1):
        for l2 in range(-R, R + 1):
            pp = _eval_prefix_string(s, l1, l2, p.field) \
                * _eval_prefix_string(s, -l1, -l2, p.field)
            scale = pow(alpha, (l1 * d_x + l2 * d_y) % (q - 1), q)
            e_grid[l1 + R, l2 + R] = \
                scale * (p.n + 1 + int(s_grid[l1 + R, l2 + R]) - pp) % q
    assert not e_grid.any()
    assert recover_error_poly(e_grid, d_x, d_y, t, p.field, p.n) == {}


def planted_grid(terms, d_x, d_y, p):
    """The grid of sum c x^(dx+i) y^(dy+j) over terms {(i, j): c}, term by term."""
    q, alpha, R = p.field.q, p.field.alpha, 4 * p.t
    etilde = {(d_x + i, d_y + j): c for (i, j), c in terms.items()}
    return np.array([[_eval_terms(etilde, pow(alpha, l1 % (q - 1), q),
                                  pow(alpha, l2 % (q - 1), q), p.field)
                      for l2 in range(-R, R + 1)] for l1 in range(-R, R + 1)])


def trace_terms(error):
    """E(x,y) + E(1/x,1/y) as {(i, j): c}: each term and its mirror."""
    return {k: c for (w, z), c in error.items() for k in ((w, z), (-w, -z))}


def test_recover_error_poly_reads_a_planted_error():
    # Etilde of a known level-preserving error, evaluated term by term
    t = 2
    p = poly_params_from_payload(13, t)
    error = {(3, 4): 1, (5, 2): -1, (9, 1): 1, (8, 2): -1}
    d_x, d_y = 40, p.n - 40
    e_grid = planted_grid(trace_terms(error), d_x, d_y, p)
    assert recover_error_poly(e_grid, d_x, d_y, t, p.field, p.n) == error


_PAIR = {(3, 4): 1, (5, 2): -1}
_N = poly_params_from_payload(13, 2).n
_HALF = _N // 2 + 1  # p + r > n at (_HALF, _HALF)


@pytest.mark.parametrize("terms, raises", [
    ({(3, -2): 1, (-3, 2): 1}, CorruptedInput),  # a mixed-sign pair
    ({**trace_terms(_PAIR), (-3, -4): -1}, CorruptedInput),  # a flipped mirror
    ({k: c for k, c in trace_terms(_PAIR).items() if k != (-3, -4)},
     CorruptedInput),  # a missing mirror
    ({**trace_terms(_PAIR), (0, 0): 1}, CorruptedInput),  # an origin term
    (trace_terms({(3, 4): 3, (5, 2): -3}), CorruptedInput),  # coefficient t + 1
    (trace_terms({(3, 4): 2, (5, 2): -2, (9, 1): 1, (8, 2): -1}),
     CorruptedInput),  # error mass 6 > 2t
    (trace_terms({(3, 4): 1, (5, 3): -1}), CorruptedInput),  # levels 7 and 8
    (trace_terms({(_HALF, _HALF): 1, (_HALF + 1, _HALF - 1): -1}),
     CorruptedInput),  # p + r > n
    (trace_terms({(_N + 1, 0): 1, (_N, 1): -1}),
     CorruptedInput),  # an x-exponent outside the degree window
    (trace_terms({(0, _N + 1): 1, (1, _N): -1}),
     CorruptedInput),  # a y-exponent outside the degree window
    (trace_terms({(3, 4): 1, (3, 5): -1, (4, 3): 1, (4, 4): -1, (5, 2): 1}),
     SparsityExceeded),  # 10 terms > 4t on 6 x-exponents
], ids=["mixed-sign", "flipped-mirror", "missing-mirror", "origin",
        "coefficient", "mass", "unbalanced-level", "beyond-n", "x-window",
        "y-window", "too-many-terms"])
def test_recover_error_poly_rejects_a_planted_trace(terms, raises):
    t = 2
    p = poly_params_from_payload(13, t)
    d_x, d_y = 40, p.n - 40
    with pytest.raises(raises):
        recover_error_poly(planted_grid(terms, d_x, d_y, p), d_x, d_y, t,
                           p.field, p.n)


def column_monomials_grid(t, n):
    """recover_error_poly's arguments, dx = dy = n, for a grid whose column l2
    is the lone monomial x^(n + l2 + R): each column fits one term, and
    together they hold 2R + 1 x-exponents."""
    field, R = field_setup(n), 4 * t
    q, alpha = field.q, field.alpha
    grid = np.array([[pow(alpha, l1 * (n + l2 + R) % (q - 1), q)
                      for l2 in range(-R, R + 1)] for l1 in range(-R, R + 1)])
    return grid, n, n, t, field, n


@pytest.mark.parametrize("call, args, exc, match", [
    (poly_params_from_length, (4000, 0), ValueError, "^t must be >= 1$"),
    (lambda: recover_error_poly(*column_monomials_grid(1, 40)), (),
     SparsityExceeded, "^more than 4t x-exponents in the error trace$"),
    (catalan_code_params, (0, 1), ValueError, "^need k >= 1 and t >= 0$"),
    (catalan_code_strip, ("0" + catalan_unrank(4, 3) + "1", 2, 0), ValueError,
     "^codeword outside the 2\\^k information range$"),
    (catalan_code_decode_bruteforce, (compose_all("0" * 11), 1), ValueError,
     "^length incompatible with the code format$"),
], ids=["poly-t", "x-exponents", "catalan-k", "strip", "catalan-length"])
def test_declared_rejections(call, args, exc, match):
    with pytest.raises(exc, match=match):
        call(*args)


@pytest.mark.parametrize("s", ["0" * 5 + "1" * 5, "0" * 6 + "1" * 7])
def test_is_catalan_codeword_rejects_a_short_or_odd_string(s):
    assert not is_catalan_codeword(s, 1)


# -- shared-support interpolation ---------------------------------------------


def sparse_values(poly, T, field):
    """E(alpha^l) for l = -T..T, E given as {exponent: coefficient}."""
    q, alpha = field.q, field.alpha
    return [sum(c * pow(alpha, e * l % (q - 1), q) for e, c in poly.items()) % q
            for l in range(-T, T + 1)]


def shared_support_rows(case, rng, T, field):
    """Rows of 2T+1 values whose polynomials share a support, per case."""
    q = field.q
    support = rng.sample(range(q - 1), rng.randint(1, T))
    polys = [{e: rng.randrange(1, q) for e in support}
             for _ in range(rng.randint(1, 6))]
    if case == "subset":
        polys = [{e: c for e, c in p.items() if rng.random() < 0.5} for p in polys]
    elif case == "extra-term":
        # the hint has it too: past T terms the hint fails, every row falls back
        extra = rng.choice([e for e in range(q - 1) if e not in support])
        rng.choice(polys)[extra] = rng.randrange(1, q)
    elif case == "zero-rows":
        polys = [p if rng.random() < 0.5 else {} for p in polys]
    elif case == "wide-union":
        polys = [{e: rng.randrange(1, q) for e in rng.sample(range(q - 1), T)}
                 for _ in range(rng.randint(2, 6))]
    elif case == "cancelling-hint":
        # row_1 = -row_0 / 2 on some exponents: 1 row_0 + 2 row_1 drops them
        half = pow(2, -1, q)
        polys = polys[:1] + [{e: -c * half % q if rng.random() < 0.5 else c
                              for e, c in polys[0].items()}]
    return [sparse_values(p, T, field) for p in polys]


def interpolate_each(rows, T, field, interpolate):
    """Each row's items in order, up to the first exception as (type, text)."""
    out = []
    try:
        for poly in interpolate(rows, T, field):
            out.append(list(poly.items()))
    except ValueError as e:
        out.append((type(e), str(e)))
    return out


def per_row(rows, T, field):
    return (sparse_interpolate(row, T, field) for row in rows)


@pytest.mark.parametrize("case", ["one-support", "subset", "extra-term",
                                  "zero-rows", "wide-union", "cancelling-hint"])
def test_shared_support_rows_match_per_row_interpolation(case):
    rng = random.Random(f"shared-{case}")
    for field in (field_setup(50), field_setup(1000)):
        for _ in range(150):
            T = rng.randint(1, 6)
            rows = shared_support_rows(case, rng, T, field)
            assert interpolate_each(rows, T, field, _interpolate_rows) == \
                interpolate_each(rows, T, field, per_row), (case, T, rows)


def test_a_two_error_decode_interpolates_at_most_twice(monkeypatch):
    # one full interpolation per stage: each row is fitted on its support
    rng = random.Random(31)
    u = random_bits(rng, 13)
    s = etn_encode(u, 2)
    calls = []

    def counting(evals, T, field):
        calls.append(T)
        return sparse_interpolate(evals, T, field)

    monkeypatch.setattr(sym, "sparse_interpolate", counting)
    for _ in range(4):
        obs, _ = corrupt(DeltaObservation(s), ErrorModel("symmetric", 2), rng)
        calls.clear()
        assert etn_decode(obs, 2) == u
        assert len(calls) <= 2


def test_an_in_budget_decode_builds_one_support_fit_per_stage(monkeypatch):
    # each stage fits its rows on the support its mix's locator finds: the
    # fit is built once, not once for the mix and once for the rows
    built = []

    class Counting(fields.SupportFit):
        def __init__(self, support, T, field):
            built.append(tuple(support))
            super().__init__(support, T, field)

    monkeypatch.setattr(fields, "SupportFit", Counting)
    monkeypatch.setattr(sym, "SupportFit", Counting)
    rng = random.Random(31)
    u = random_bits(rng, 13)
    s = etn_encode(u, 2)
    for _ in range(4):
        obs, _ = corrupt(DeltaObservation(s), ErrorModel("symmetric", 2), rng)
        built.clear()
        assert etn_decode(obs, 2) == u
        assert 0 < len(built) <= 2


@pytest.mark.parametrize("s", ["0000000", "0001000", "long"])
def test_prefix_grid_column_at_y_one_matches_the_terms(s):
    # at y = alpha^0 = 1, P(x, 1) sums x^(ones) over every prefix
    if s == "long":
        s = random_bits(random.Random(43), 5000)
    field, R = field_setup(len(s)), 4
    column = prefix_grid(s, R, field)[:, R]
    q = field.q
    for l1 in range(-R, R + 1):
        ones, want = 0, 1  # the empty prefix
        for ch in s:
            ones += ch == "1"
            want += pow(field.alpha, l1 * ones % (q - 1), q)
        assert column[l1 + R] == want % q, l1


def _assert_grid_matches_pointwise(s, R, field):
    grid = monomial_grid(*_prefix_arrays(s), R, field)
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
    # blocks of 1, 2 and 5 terms instead of one block for all 41 terms,
    # bounded either by float64 exactness or by the block size
    rng = random.Random(15)
    s = random_bits(rng, 40)
    mult = np.array([rng.randrange(-3, 9) for _ in range(41)])
    field = field_setup(300)
    whole = monomial_grid(*_prefix_arrays(s), 3, field)
    weighted = monomial_grid(*_prefix_arrays(s), 3, field, mult)
    for name, bound in (("_EXACT_SUM", (field.q - 1) ** 2), ("_BLOCK", 1)):
        for span in (1, 2, 5):
            with monkeypatch.context() as m:
                m.setattr(fields, name, span * bound)
                assert np.array_equal(
                    monomial_grid(*_prefix_arrays(s), 3, field), whole)
                assert np.array_equal(
                    monomial_grid(*_prefix_arrays(s), 3, field, mult), weighted)


def _assert_runs_grid_matches(s, R, field):
    # prefix_grid against the one-term-per-prefix grid and pointwise
    grid = prefix_grid(s, R, field)
    assert grid.shape == (2 * R + 1, 2 * R + 1)
    assert np.array_equal(grid, monomial_grid(*_prefix_arrays(s), R, field))
    for l1 in range(-R, R + 1):
        for l2 in range(-R, R + 1):
            assert grid[l1 + R, l2 + R] == \
                _eval_prefix_string(s, l1, l2, field), (s, R, l1, l2)


def test_prefix_grid_by_runs_on_edge_strings():
    field = field_setup(300)
    for s in ("", "0", "1", "0" * 40, "1" * 40, "01" * 20, "10" * 20):
        for R in (0, 1, 4):
            _assert_runs_grid_matches(s, R, field)
    # the zero run etn_decode evaluates at k = 12, t = 2
    p = poly_params_from_length(18628, 2)
    _assert_runs_grid_matches("0" * (p.r_hat // 2), 8, p.field)


def test_prefix_grid_by_runs_on_random_strings():
    # sparse, even and ones-majority strings (many empty runs); small fields
    # included: with q - 1 <= R several l2 put y at 1
    rng = random.Random(31)
    for _ in range(60):
        ones = rng.choice((0.2, 0.5, 0.8))
        s = "".join("01"[rng.random() < ones] for _ in range(rng.randint(1, 200)))
        field = field_setup(rng.randint(len(s), 300))
        _assert_runs_grid_matches(s, rng.randint(0, 8), field)
    _assert_runs_grid_matches("0110", 8, field_setup(1))


def test_prefix_grid_by_runs_at_the_benchmark_length():
    s = etn_encode_info("101100111000", 2)
    assert len(s) == 18628
    _assert_runs_grid_matches(s, 8, poly_params_from_length(len(s), 2).field)


def test_prefix_grid_by_runs_split_sums_agree(monkeypatch):
    # blocks of 1, 2 and 5 monomials instead of one exact float64 product,
    # bounded either by exactness or by the block size
    rng = random.Random(32)
    field = field_setup(300)
    strings = [random_bits(rng, 40), "1" * 30 + "0" * 3 + "1" * 7]
    whole = [monomial_grid(*_prefix_arrays(s), 3, field) for s in strings]
    for name, bound in (("_EXACT_SUM", (field.q - 1) ** 2), ("_BLOCK", 1)):
        for span in (1, 2, 5):
            with monkeypatch.context() as m:
                m.setattr(fields, name, span * bound)
                for s, grid in zip(strings, whole):
                    assert np.array_equal(prefix_grid(s, 3, field), grid)


def test_sym_poly_decode_sums_strings_by_runs_in_the_shared_product(monkeypatch):
    # prefix_grid's product goes through fields._grid_sum, not through
    # monomial_grid: the source goes in as one term per run of prefixes
    # (wt + 1 in all), and no call takes one term per prefix
    sizes = []

    def counting(xe, ye, R, field, mult=None, col=None):
        sizes.append(len(xe))
        return grid_sum(xe, ye, R, field, mult, col)

    grid_sum = fields._grid_sum
    monkeypatch.setattr(fields, "_grid_sum", counting)
    rng = random.Random(29)
    info = random_bits(rng, 12)
    s = etn_encode_info(info, 2)
    obs, _ = corrupt(DeltaObservation(s), ErrorModel("symmetric", 2), rng)
    runs = s.count("1") + 1
    sizes.clear()
    assert etn_decode_info(obs, 12, 2) == info
    assert runs in sizes
    assert max(sizes) <= max(sum(map(len, obs.delta.values())), runs) < len(s) // 8


def test_monomial_grid_stays_exact_where_the_float64_bound_binds():
    # q near 2^20 puts about 8,000 products in a block, so 60,000 terms take
    # eight blocks; one block would sum past 2^53 and round
    rng = random.Random(33)
    field = field_setup(1 << 19)
    q, alpha = field.q, field.alpha
    assert fields._EXACT_SUM // (q - 1) ** 2 < 60000 < fields._BLOCK
    xe, ye = (np.array([rng.randrange(q - 1) for _ in range(60000)]) for _ in "xy")
    mult = np.array([rng.randrange(-q, q) for _ in range(60000)])
    grid = monomial_grid(xe, ye, 1, field, mult)
    for l1 in (-1, 0, 1):
        for l2 in (-1, 0, 1):
            want = sum(int(m) * pow(alpha, (l1 * int(a) + l2 * int(b)) % (q - 1), q)
                       for a, b, m in zip(xe, ye, mult)) % q
            assert grid[l1 + 1, l2 + 1] == want, (l1, l2)


def test_monomial_grid_refuses_a_field_beyond_float64_exactness():
    # one product (q - 1)^2 must fit in 2^53; the check comes before the
    # q - 1 entry alpha table is built
    q = 94906297  # the least prime with (q - 1)^2 > 2^53
    assert (q - 1) ** 2 > fields._EXACT_SUM
    field = PrimeField(q, next(g for g in range(2, q) if fields._generates(g, q)))
    with pytest.raises(ValueError, match="too large"):
        monomial_grid(np.array([0]), np.array([0]), 0, field)


def test_known_shell_rejects_a_flipped_shell_sigma():
    t = 1
    p = poly_params_from_payload(13, t)
    half = p.r_hat // 2
    s = etn_encode("1011001110001", t, p)
    zeta = s[half + p.nu:]
    sigma = sigma_of_string(s)
    obs = DeltaObservation(s)
    assert _reconstruct_known_shell(obs, zeta, sigma) == s
    rng = random.Random(16)
    for j in rng.sample(range(half), 10):
        flipped = list(sigma)
        flipped[j] = 1 - flipped[j]  # every shell pair sums to 0 or 1
        with pytest.raises(ReconstructionFailure):
            _reconstruct_known_shell(obs, zeta, flipped)


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


def structured_errors(clean, t):
    """Levels 1, 2, ceil(n/2), n - 1, n and the payload's bounds r/2, r/2 + 1
    and r/2 + nu of the codeword observation clean, each with its lightest
    and its heaviest weight replaced by the adversarial weight and by a
    neighbour, the smallest change."""
    n = clean.n
    p = poly_params_from_length(n, t)
    half = p.r_hat // 2
    for l in sorted({1, 2, (n + 1) // 2, n - 1, n, half, half + 1, half + p.nu}):
        ws = clean.level_counter(l)
        for old in sorted({min(ws), max(ws)}):
            near = old + 1 if old < l else old - 1
            for new in sorted({near, adversarial_weight(old, l)}):
                yield l, old, new


def test_sym_poly_corrects_structured_single_errors_at_k_4():
    code = build_scheme("sym-poly", 4, 1)
    decodes = 0
    for v in range(16):
        info = format(v, "04b")
        clean = code.observe(code.encode(info))
        for l, old, new in structured_errors(clean, 1):
            c = clean.copy()
            c.replace(l, old, new)
            assert code.decode(c) == info, (info, l, old, new)
            decodes += 1
    assert decodes >= 16 * 20


def test_sym_poly_corrects_mirror_pairs_at_t_2():
    # the symmetric model may hit a level and its mirror: each structured
    # error below the middle, with its mirror's heaviest weight moved as far
    # as it goes
    code = build_scheme("sym-poly", 4, 2)
    n = code.n
    info = "1011"
    clean = code.observe(code.encode(info))
    errors = [e for e in structured_errors(clean, 2) if 2 * e[0] < n + 1]
    for l, old, new in errors:
        c = clean.copy()
        c.replace(l, old, new)
        heavy = max(clean.level_counter(n + 1 - l))
        c.replace(n + 1 - l, heavy, adversarial_weight(heavy, n + 1 - l))
        assert code.decode(c) == info, (l, old, new)
    assert len(errors) >= 12


@pytest.mark.parametrize("t, h", itertools.product((1, 2, 3), (3, 4, 5)))
def test_catalan_codebook_distance(t, h):
    # why the decoder stops at its first codeword: two codewords within t
    # replacements of one observation are at most 4t elements apart
    pad = 4 * t + 1
    cb = [compose_all("0" * pad + catalan_unrank(r, h) + "1" * pad)
          for r in range(catalan_number(h))]
    for a, b in itertools.combinations(cb, 2):
        d, _ = multiset_symmetric_difference(a, b)
        assert d >= 4 * t + 1


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


def test_catalan_decode_reverts_a_pair_that_leaves_no_mismatch():
    # k = 4, t = 2 (n = 28): levels 10 and 19 both gain 1 in weight, so no
    # mirror pair is mismatched and the first revert may take any level
    code = build_scheme("sym-catalan", 4, 2)
    assert code.n == 28
    c = code.observe(code.encode("1011"))
    for l in (10, 19):
        c.replace(l, min(c.level_counter(l)), min(c.level_counter(l)) + 1)
    assert not mirror_mismatches(cumulative_weights(c), c.n)
    assert code.decode(c) == "1011"


def test_catalan_decode_stops_at_the_first_codeword(monkeypatch):
    # the clean observation is the first candidate, and its one search
    # finds the codeword, which the code's distance makes the only one
    calls = []
    search = backtrack.tolerant_reconstruct

    def counting_search(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(backtrack, "tolerant_reconstruct", counting_search)
    code = build_scheme("sym-catalan", 4, 2)
    assert code.decode(code.observe(code.encode("1011"))) == "1011"
    assert len(calls) == 1


def test_catalan_decode_weighs_the_observation_once(monkeypatch):
    # each revert moves one level weight, so the candidate enumeration
    # carries the profile down instead of re-summing every level per node;
    # replace checks each revert, so no candidate's shape is checked again
    calls, shapes = [], []
    weigh = sym.cumulative_weights
    validate = CompositionMultiset.validate_shape

    def counting_weights(c):
        calls.append(c)
        return weigh(c)

    def counting_validate(c):
        shapes.append(c)
        return validate(c)

    monkeypatch.setattr(sym, "cumulative_weights", counting_weights)
    monkeypatch.setattr(CompositionMultiset, "validate_shape", counting_validate)
    rng = random.Random(15)
    s = catalan_code_encode("101", 1)
    for errors in (0, 1):
        c, _ = corrupt(compose_all(s), ErrorModel("symmetric", errors), rng)
        calls.clear()
        shapes.clear()
        assert catalan_code_decode_bruteforce(c, 1) == s
        assert calls == [c] and shapes == [c]


def test_catalan_codewords_reconstruct_uniquely_up_to_reversal():
    # why the decoder takes one solution per candidate: a codeword's
    # prefixes are strictly lighter than its suffixes, so its multiset has
    # no other string but its reversal, which the search never returns first
    for t in range(3):
        for k in range(1, 7):
            for v in range(2 ** k):
                s = catalan_code_encode(format(v, f"0{k}b"), t)
                c = compose_all(s)
                assert reconstruct(c) == {s, s[::-1]}, (s, t)
                first, _ = tolerant_reconstruct(c, cumulative_weights(c),
                                                sigma_of_string(s), 0)
                assert first == s


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


def test_catalan_encode_fits_the_top_info_word():
    # the derived length holds every rank below 2^k, so 1^k encodes
    for k in range(1, 17):
        for t in range(3):
            s = catalan_code_encode("1" * k, t)
            assert len(s) == catalan_code_params(k, t)
            assert catalan_code_strip(s, k, t) == "1" * k


def test_blockcode_failure_is_distinct():
    assert issubclass(BlockCodeFailure, CorruptedInput)
    assert not issubclass(SparsityExceeded, CorruptedInput)
