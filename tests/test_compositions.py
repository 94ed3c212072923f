import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compocode.asym import s1_decode, st_decode
from compocode.backtrack import ReconstructionFailure, reconstruct, tolerant_reconstruct
from compocode.channel import ErrorModel, build_scheme, corrupt
import compocode
from compocode.compositions import (
    ARRAY_FROM,
    CompositionMultiset,
    CorruptedInput,
    _differences,
    check_bits,
    compose_all,
    cumulative_weights,
    level_differences,
    multiset_symmetric_difference,
    parse,
    serialize,
    sigma_from_weights,
    sigma_of_string,
    sigma_partial,
    weights_from_sigma,
)
from compocode.fields import field_setup
from compocode.sym import DeltaObservation

bitstrings = st.text(alphabet="01", min_size=1, max_size=40)


def brute_levels(s):
    """Independent oracle: enumerate substrings directly."""
    n = len(s)
    return {
        l: Counter(s[i:i + l].count("1") for i in range(n - l + 1))
        for l in range(1, n + 1)
    }


def all_strings(n):
    for tup in itertools.product("01", repeat=n):
        yield "".join(tup)


def test_compose_all_level2_example():
    c = compose_all("100101")
    assert c.levels[2] == Counter({1: 4, 0: 1})


def test_compose_all_single_bit():
    c = compose_all("0")
    assert c.levels == {1: Counter({0: 1})}


def test_compose_all_0100_matches_polynomial_form():
    # x + 3y + 2xy + y^2 + 2xy^2 + xy^3 as per-level weights
    c = compose_all("0100")
    assert c.levels[1] == Counter({1: 1, 0: 3})
    assert c.levels[2] == Counter({1: 2, 0: 1})
    assert c.levels[3] == Counter({1: 2})
    assert c.levels[4] == Counter({1: 1})


def test_compose_all_rejects_empty():
    with pytest.raises(ValueError):
        compose_all("")


@given(bitstrings)
def test_compose_all_matches_brute_force(s):
    assert compose_all(s).levels == brute_levels(s)


@given(bitstrings)
def test_level_sizes(s):
    c = compose_all(s)
    for l in range(1, c.n + 1):
        assert sum(c.level_counter(l).values()) == c.n - l + 1


@given(bitstrings)
def test_reversal_invariance(s):
    assert compose_all(s) == compose_all(s[::-1])


def test_cumulative_weights_examples():
    w = cumulative_weights(compose_all("100101"))
    assert w[0] == 3 and w[5] == 3
    assert cumulative_weights(compose_all("0100"))[1] == 2


@given(bitstrings)
def test_weight_mirror_symmetry(s):
    w = cumulative_weights(compose_all(s))
    n = len(s)
    for l in range(1, n + 1):
        assert w[l - 1] == w[n - l]


def test_sigma_examples():
    w = cumulative_weights(compose_all("1010001010"))
    assert sigma_from_weights(w, 10) == (1, 1, 1, 1, 0)
    w = cumulative_weights(compose_all("00001111111"))
    assert sigma_from_weights(w, 11) == (1, 1, 1, 1, 2, 1)
    w = cumulative_weights(compose_all("0" * 7))
    assert sigma_from_weights(w, 7) == (0, 0, 0, 0)


def test_sigma_exhaustive_small():
    for n in range(1, 11):
        for s in all_strings(n):
            w = cumulative_weights(compose_all(s))
            assert sigma_from_weights(w, n) == sigma_of_string(s)


@given(bitstrings)
def test_sigma_matches_direct(s):
    w = cumulative_weights(compose_all(s))
    assert sigma_from_weights(w, len(s)) == sigma_of_string(s)


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=80))
def test_differences_telescope_to_w1(wp):
    # why sigma_from_weights needs no sum check: sigma_1 + ... + sigma_h = w_1
    # for every integer profile, not only for real ones
    assert sum(_differences(wp, (len(wp) + 1) // 2)) == wp[0]


def sigma_outcome(wp, n):
    """sigma_from_weights' values as a list, or its exception's type and message."""
    try:
        sigma = sigma_from_weights(wp, n)
    except ValueError as e:
        return type(e), str(e)
    if isinstance(wp, np.ndarray):
        assert isinstance(sigma, np.ndarray) and sigma.dtype == np.int64
        return sigma.tolist()
    return list(sigma)


def assert_sigma_paths_agree(wp, n):
    h = (n + 1) // 2
    for prof in (wp, wp[:h], wp[:h - 1]):  # the last one is too short
        assert sigma_outcome(np.array(prof, dtype=np.int64), n) == \
            sigma_outcome(prof, n), (prof, n)


def perturbed(rng, w):
    """w with +-1..3 added at 1-3 random levels."""
    w = list(w)
    for _ in range(rng.randint(1, 3)):
        w[rng.randrange(len(w))] += rng.choice((-3, -2, -1, 1, 2, 3))
    return w


def test_sigma_array_path_matches_the_list_path():
    # the list path is the reference: same values, or the same exception
    # type and message, on real profiles and on profiles with entries out of
    # range, for odd and even n
    rng = random.Random(27)
    for n in range(1, 11):
        for s in all_strings(n):
            w = list(cumulative_weights(compose_all(s)))
            assert_sigma_paths_agree(w, n)
            assert_sigma_paths_agree(perturbed(rng, w), n)
    outcomes = Counter()
    for _ in range(300):
        n = rng.randint(1, 300)
        w = list(cumulative_weights(compose_all(
            "".join(rng.choice("01") for _ in range(n)))))
        for wp in (w, perturbed(rng, w)):
            assert_sigma_paths_agree(wp, n)
            outcomes[type(sigma_outcome(wp, n))] += 1
    assert outcomes[list] > 300 and outcomes[tuple] > 50, outcomes


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=80),
       st.integers(1, 160))
def test_sigma_array_path_matches_the_list_path_on_any_profile(wp, n):
    assert_sigma_paths_agree(wp, n)


def test_sigma_rejects_corrupt_profile():
    w = list(cumulative_weights(compose_all("100101")))
    w[1] += 5
    with pytest.raises(CorruptedInput):
        sigma_from_weights(w, 6)


@given(bitstrings)
def test_weights_from_sigma_round_trip(s):
    n = len(s)
    w = cumulative_weights(compose_all(s))
    sigma = sigma_from_weights(w, n)
    assert weights_from_sigma(sigma, w[0], n) == w


def test_weights_from_sigma_zero():
    assert weights_from_sigma((0, 0, 0), 0, 6) == (0,) * 6


def test_weights_from_sigma_formula_value():
    # w_2 = 2*w_1 - sigma_1 for s=1010001010, against the direct count
    w = cumulative_weights(compose_all("1010001010"))
    assert w[1] == 2 * w[0] - 1


def test_sigma_partial_clean_has_no_erasures():
    for s in ("1010001010", "00001111111", "110", "0"):
        n = len(s)
        w = cumulative_weights(compose_all(s))
        sigma, known = sigma_partial(w, n)
        assert all(known)
        assert sigma == sigma_of_string(s)


def test_sigma_partial_single_error_mask():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(10, 20)
        s = "".join(rng.choice("01") for _ in range(n))
        c = compose_all(s)
        h = (n + 1) // 2
        j = rng.randint(3, h - 2)
        lvl = rng.choice([j, n + 1 - j])
        old_w = rng.choice(sorted(c.levels[lvl]))
        new_w = (old_w + rng.randint(1, lvl)) % (lvl + 1)
        if new_w == old_w:
            continue
        c.replace(lvl, old_w, new_w)
        w = cumulative_weights(c)
        sigma, known = sigma_partial(w, n)
        erased = {i + 1 for i, k in enumerate(known) if not k}
        assert erased == {j - 1, j, j + 1}
        true_sigma = sigma_of_string(s)
        for i, k in enumerate(known):
            if k:
                assert sigma[i] == true_sigma[i]


def _random_replace(c, rng):
    """Swap a random element of a random level of c; returns (l, old, new)."""
    l = rng.randint(1, c.n)
    old = rng.choice(sorted(c.level_counter(l)))
    new = rng.choice([w for w in range(l + 1) if w != old])
    c.replace(l, old, new)
    return l, old, new


def test_symmetric_difference_of_one_source_matches_the_dense_forms():
    # forms of one string compare only their written levels; the dense
    # forms compare every level
    rng = random.Random(17)
    for _ in range(200):
        s = "".join(rng.choice("01") for _ in range(rng.randint(1, 30)))
        base = compose_all(s)
        a, b = base.copy(), compose_all(s)
        for c in (a, b):
            for _ in range(rng.randint(0, 4)):
                l, old, new = _random_replace(c, rng)
                if rng.random() < 0.3:  # restore the level's contents
                    c.replace(l, new, old)
        for x, y in ((a, b), (b, a), (a, base), (base, b)):
            assert multiset_symmetric_difference(x, y) == multiset_symmetric_difference(
                parse(serialize(x)), parse(serialize(y)))
    a, b = compose_all("0110100111" * 50), compose_all("0110100111" * 50)
    b.replace(300, 180, 181)
    assert multiset_symmetric_difference(a, b) == (2, {300: [(180, 1), (181, -1)]})
    assert set(a._levels) | set(b._levels) == {300}  # composed by replace alone


def _outcome(f, *args):
    """f(*args), or the type and message of the declared failure it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("scheme", ["recon", "asym1", "asym-t"])
def test_source_backed_and_dense_forms_agree(scheme):
    # the same writes, valid or not, leave the three forms giving the same
    # answer to every query and every decoder; each refuses to read a level
    # with a negative count, so the forms are compared level by level only
    # where no level has one
    k, t = 6, (1 if scheme == "asym-t" else 0)
    code = build_scheme(scheme, k, t)
    decode = {"recon": reconstruct, "asym1": lambda c: s1_decode(c, k),
              "asym-t": lambda c: st_decode(c, k, t)}[scheme]
    rng = random.Random(23)
    for trial in range(40):
        s = code.encode("".join(rng.choice("01") for _ in range(k)))
        forms = [compose_all(s), parse(serialize(compose_all(s))), DeltaObservation(s)]
        for _ in range(rng.randint(0, 3)):
            state = rng.getstate()
            for c in forms:
                rng.setstate(state)
                _random_replace(c, rng)
        lazy, dense, sparse = forms
        if trial % 4 == 1:  # swap one element through correct, on copies
            l = rng.randint(1, len(s))
            old = rng.choice(sorted(lazy.level_counter(l)))
            new = rng.choice([w for w in range(l + 1) if w != old])
            error = {(old, l - old): 1, (new, l - new): -1}
            forms = lazy, dense, sparse = [c.correct(error) for c in forms]
        if trial % 4 == 3:  # a level of the wrong size, weight or count
            l = rng.randint(1, len(s))
            w, by = rng.choice([(0, 1), (l + 1, 1), (max(lazy.level_counter(l)) + 1, -1)])
            for c in forms:
                c._bump(l, w, by)
        shape = _outcome(lazy.validate_shape)
        for c in forms:
            assert cumulative_weights(c) == cumulative_weights(lazy)
            assert {type(w) for w in cumulative_weights(c)} == {int}
            assert _outcome(c.validate_shape) == shape
            assert _outcome(decode, c) == _outcome(decode, lazy)
        if shape is None:
            args = (cumulative_weights(lazy), sigma_of_string(s), 1)
            for c in forms:
                assert _outcome(tolerant_reconstruct, c, *args) == \
                    _outcome(tolerant_reconstruct, lazy, *args)
        reads = [_outcome(lazy.level_counter, l) for l in range(1, len(s) + 1)]
        for c in forms:
            assert [_outcome(c.level_counter, l) for l in range(1, len(s) + 1)] == reads
        readable = forms if all(isinstance(r, Counter) for r in reads) else []
        # forms of one source compare their deltas, the others every level
        refs = [compose_all(s), DeltaObservation(s), parse(serialize(compose_all(s)))]
        for x in readable:
            for y in readable:
                assert x == y
                assert multiset_symmetric_difference(x, y) == (0, {})
            for r in refs:
                assert multiset_symmetric_difference(x, r) == \
                    multiset_symmetric_difference(dense, refs[2])
        assert lazy == sparse and sparse == lazy
        for c in readable:
            assert c.levels == dense.levels


def _all_reads(c, field):
    """Every read of c, each as its value or its declared failure."""
    levels = range(1, c.n + 1)
    return (_outcome(c.validate_shape),
            [_outcome(c.level_counter, l) for l in levels],
            [_outcome(lambda l: c.level_counts(l).tolist(), l) for l in levels],
            c.weight_profile().tolist(), c.sym_eval(4, field).tolist())


@pytest.mark.parametrize("n", [ARRAY_FROM - 1, ARRAY_FROM])
def test_forms_agree_on_each_side_of_the_array_threshold(n):
    # compose_all's P is a list below ARRAY_FROM and an int64 array from
    # it; either way the form answers every read as the parsed dense form
    # does, before and after the same replaces and corrections, and both
    # refuse a level with a negative count
    rng = random.Random(n)
    s = "".join(rng.choice("01") for _ in range(n))
    field = field_setup(n)
    lazy = compose_all(s)
    assert isinstance(lazy._P, list) is (n < ARRAY_FROM)
    forms = lazy, dense = [lazy, parse(serialize(lazy))]
    fresh = [compose_all(s), parse(serialize(compose_all(s)))]

    def agree():
        assert _all_reads(lazy, field) == _all_reads(dense, field)
        for c in forms:
            assert lazy == c
            assert [multiset_symmetric_difference(c, r) for r in fresh] == \
                [multiset_symmetric_difference(dense, fresh[1])] * 2

    agree()
    swaps = []
    for l in rng.sample(range(1, n + 1), 3):
        old = rng.choice(sorted(lazy.level_counter(l)))
        new = rng.choice([w for w in range(l + 1) if w != old])
        swaps.append((l, old, new))
        for c in forms:
            c.replace(l, old, new)
    agree()
    assert multiset_symmetric_difference(lazy, fresh[0])[0] == 6
    l, old, new = swaps[0]
    forms = lazy, dense = [c.correct({(new, l - new): 1, (old, l - old): -1})
                           for c in forms]
    agree()
    l, old, new = swaps[1]
    m = lazy.level_counter(l)[old] + 1  # one more than the level holds
    flaw = f"level {l} holds weight {old} -1 times"
    for c in forms:
        with pytest.raises(CorruptedInput, match=f"^{flaw}$"):
            c.correct({(old, l - old): m, (new, l - new): -m})
        c._bump(l, old, -m)
    assert _all_reads(lazy, field) == _all_reads(dense, field)
    for c in forms:
        assert _outcome(c.validate_shape) == (CorruptedInput, flaw)
        for read in (c.level_counter, c.level_counts):
            with pytest.raises(CorruptedInput, match=f"^negative multiplicity at level {l}$"):
                read(l)


@pytest.mark.parametrize("n", [ARRAY_FROM - 1, ARRAY_FROM])
def test_corrupt_draws_alike_on_every_form(n):
    # the channel draws each level's element from counts on an array P
    # and from a Counter otherwise: the same log, generator state and
    # multiset on the source-backed and the parsed dense form
    rng = random.Random(n + 1)
    s = "".join(rng.choice("01") for _ in range(n))
    lazy = compose_all(s)
    dense = parse(serialize(lazy))
    for kind in ("asymmetric", "symmetric"):
        for adversarial in (False, True):
            outs = []
            for c in (lazy, dense):
                g = random.Random(f"{kind}:{adversarial}")
                out, log = corrupt(c, ErrorModel(kind, 3), g, adversarial)
                outs.append((out, log, g.getstate()))
            (a, log, state), (b, *rest) = outs
            assert [log, state] == rest and len(log) == 3
            assert a.delta == b.delta and a._source == s
            for l, _, _ in log:
                assert np.array_equal(a.level_counts(l), b.level_counts(l))
    assert lazy == dense
    # an array P's draw and replace compose no level into the shared cache
    assert (not lazy._levels) is (n >= ARRAY_FROM)


def test_an_array_backed_form_keeps_levels_only_when_asked():
    # a list P caches each level it composes; an array P composes one on
    # every read unless keep_levels is set, and then caches it in the base
    # its copies share
    assert compose_all("0110").keep_levels
    c = compose_all("0011" * (ARRAY_FROM // 4))
    assert not c.keep_levels
    level = c.level_counter(7)
    assert not c._levels and c.level_counter(7) == level
    kept = c.copy()
    kept.keep_levels = True
    assert kept.level_counter(7) == level and c._levels.keys() == {7}
    assert kept.copy().level_counter(7) is c._levels[7]


NO_NUMPY_READS = """
import sys
from compocode.compositions import ARRAY_FROM, compose_all
n = ARRAY_FROM + int(sys.argv[1])
c = compose_all(("0110100" * n)[:n])
c.replace(3, 2, 0)
c.validate_shape()
c.levels
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize("offset, numpy_loaded", [(-1, "False"), (0, "True")])
def test_reading_every_level_below_the_threshold_loads_no_numpy(offset, numpy_loaded):
    # below ARRAY_FROM a form counts its levels in Python; from it, by
    # bincount of an int64 array
    env = dict(os.environ, PYTHONPATH=str(Path(compocode.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", NO_NUMPY_READS, str(offset)],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.split() == [numpy_loaded]


def test_tolerant_reconstruct_checks_the_written_levels_of_its_source():
    # level 2 keeps its weight but loses two 1s: the search, which checks
    # levels 9 .. 5, finds the source string, and only level 2 refutes it
    s = "0010110111"
    assert tolerant_reconstruct(compose_all(s), cumulative_weights(compose_all(s)),
                                sigma_of_string(s), 0)[0] == s
    c = compose_all(s)
    c.replace(2, 1, 2)
    c.replace(2, 1, 0)
    assert cumulative_weights(c) == cumulative_weights(compose_all(s))
    with pytest.raises(ReconstructionFailure):
        tolerant_reconstruct(c, cumulative_weights(c), sigma_of_string(s), 0)


def test_reading_levels_makes_the_multiset_dense():
    c = compose_all("0110")
    c.replace(3, 2, 3)
    c.levels[4] = Counter({2: 1, 1: 0})  # a write the source would not see
    assert c.level_counter(4) == Counter({2: 1})
    assert cumulative_weights(c) == (2, 4, 5, 2)
    assert c.copy().levels == c.levels


@pytest.mark.parametrize("n", [ARRAY_FROM - 1, ARRAY_FROM])
def test_level_differences_agree_on_every_path(n):
    # two forms of one source compare deltas; a reversed source has the
    # same levels and is compared level by level, as Counters below
    # ARRAY_FROM and as count arrays from it
    rng = random.Random(n)
    s = "".join(rng.choice("01") for _ in range(n))
    clean = compose_all(s)
    obs, _ = corrupt(clean, ErrorModel("symmetric", 3), rng)
    want = [(l, sorted((w, -c) for w, c in d.items())) for l, d in sorted(obs.delta.items())]
    flipped = [(l, [(w, -d) for w, d in diffs]) for l, diffs in want]
    for base in (clean, compose_all(s[::-1])):
        assert list(level_differences(base, obs)) == want
        assert list(level_differences(obs, base)) == flipped
        some = [l for l, _ in want[1:]] + [1, n]
        assert list(level_differences(base, obs, sorted(some))) == want[1:]
    assert multiset_symmetric_difference(clean, obs) == (6, dict(want))
    assert next(level_differences(clean, compose_all(s[::-1])), None) is None


@pytest.mark.parametrize("n", [ARRAY_FROM - 1, ARRAY_FROM])
@pytest.mark.parametrize("w", [-1, 1001])
def test_level_counts_rejects_a_weight_outside_the_level(n, w):
    # a delta weight of -1 used to read as weight l, and l + 1 raised a
    # bare IndexError
    c = compose_all(("0110100" * n)[:n])
    l = 1000
    c._bump(l, max(c.level_counter(l)), -1)
    c._bump(l, w, 1)
    with pytest.raises(CorruptedInput, match=f"^level {l} contains weight {w} out of range$"):
        c.level_counts(l)
    dense = CompositionMultiset(3, {1: Counter({0: 2, w: 1})})
    with pytest.raises(CorruptedInput, match=f"^level 1 contains weight {w} out of range$"):
        dense.level_counts(1)


def test_symmetric_difference():
    c1 = compose_all("100101")
    assert multiset_symmetric_difference(c1, c1)[0] == 0
    c2 = c1.copy()
    c2.replace(2, 1, 0)
    count, detail = multiset_symmetric_difference(c1, c2)
    assert count == 2
    assert set(detail) == {2}


@settings(max_examples=60)
@given(bitstrings)
def test_serialize_parse_round_trip(s):
    c = compose_all(s)
    assert parse(serialize(c)) == c


def test_parse_rejects_bad_level_count():
    c = compose_all("0100")
    text = serialize(c).replace("2: 0 1 1", "2: 0 1 1 1")
    with pytest.raises(CorruptedInput):
        parse(text)


@pytest.mark.parametrize("spelling", ["01", "+1", "1_0", "00", "-0", "\u0661",
                                      "\uff11", "1\u0660"])
def test_parse_takes_one_spelling_per_number(spelling):
    # int() reads each of these, and serialize writes none of them
    text = serialize(compose_all("0100"))
    for bad in (text.replace("n=4", f"n={spelling}"),
                text.replace("\n2:", f"\n{spelling}:"),
                text.replace("2: 0 1 1", f"2: 0 1 {spelling}")):
        assert bad != text
        with pytest.raises(CorruptedInput, match="malformed"):
            parse(bad)


def test_parse_accepts_corrupted_but_well_formed():
    c = compose_all("0100")
    c.replace(2, 1, 2)
    assert parse(serialize(c)) == c


@pytest.mark.parametrize("level", [Counter({2: 1, 3: 1, 1: -1}), Counter({2: 1, 1: 0})])
def test_validate_shape_rejects_multiplicities_below_one(level):
    # the level still holds one element in all, so only the count check
    # can catch it; the negative count would make w_4 read 4, not 2
    c = compose_all("0110")
    c.levels[4] = level
    with pytest.raises(CorruptedInput):
        c.validate_shape()


def test_copy_shares_levels_until_written():
    src = compose_all("0110100111")
    before = {l: Counter(level) for l, level in src.levels.items()}
    cp = src.copy()
    cp.replace(3, 1, 3)
    cp.correct({(0, 2): -1, (1, 1): 1})
    assert src.levels == before
    assert cp.copy().correct({(3, 0): 1, (1, 2): -1}) == src
    # the source's own writes after a copy leave the copy alone too
    cp2 = src.copy()
    src.replace(5, 2, 5)
    assert cp2.levels == before
    assert src.levels[5] != before[5]


def test_corrupt_leaves_its_input_unchanged():
    src = compose_all("0110100111")
    before = {l: Counter(level) for l, level in src.levels.items()}
    for kind in ("asymmetric", "symmetric"):
        out, log = corrupt(src, ErrorModel(kind, 3), random.Random(1))
        assert len(log) == 3 and out != src
        assert src.levels == before


@pytest.mark.parametrize("call, args, match", [
    (check_bits, ("01a",), "^bit strings must consist of '0'/'1' characters$"),
    (lambda: compose_all("0110").replace(2, 1, 3), (), "^weight 3 invalid at level 2$"),
    (multiset_symmetric_difference, (compose_all("01"), compose_all("011")),
     "^multisets describe strings of different lengths$"),
], ids=["bits", "new-weight", "lengths"])
def test_declared_rejections(call, args, match):
    with pytest.raises(ValueError, match=match):
        call(*args)


@settings(max_examples=400)
@given(st.text(alphabet=["0", "1", "١", "１", "2", " ", "\t", "\n", "\x00", "a"],
               max_size=12)
       | st.text(max_size=12))
def test_check_bits_accepts_exactly_the_nonempty_bit_strings(s):
    # the ASCII-and-delete test accepts the strings a set test accepts:
    # other digits (Arabic-Indic, fullwidth), whitespace and NUL are refused
    if s and set(s) <= {"0", "1"}:
        assert check_bits(s) is s
    else:
        with pytest.raises(ValueError):
            check_bits(s)


def test_a_multiset_equals_only_a_multiset():
    c = compose_all("0110")
    assert c.__eq__("0110") is NotImplemented
    assert c != "0110" and c == compose_all("0110")


def test_sigma_keeps_the_middle_entry_of_odd_n_a_bit():
    # why the sym-poly shell takes the middle bit of odd n unchecked: every
    # profile sigma_from_weights accepts has a middle entry of 0 or 1
    with pytest.raises(CorruptedInput, match="^sigma_2 = 2 out of range"):
        sigma_from_weights([2, 4, 2], 3)
    for n in (1, 3, 5, 7, 9):
        for s in all_strings(n):
            w = list(cumulative_weights(compose_all(s)))
            for d in range(-3, 4):
                wp = w[:n // 2] + [w[n // 2] + d] + w[n // 2 + 1:]
                try:
                    sigma = sigma_from_weights(wp, n)
                except CorruptedInput:
                    continue
                assert sigma[-1] in (0, 1), (s, d)
