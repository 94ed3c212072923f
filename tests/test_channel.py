import dataclasses
import random
import tracemalloc

import pytest

from compocode.backtrack import ReconstructionFailure
from compocode.channel import (
    REGISTRY,
    ErrorModel,
    TrialReport,
    _random_info,
    _shuffle,
    build_scheme,
    corrupt,
    run_trials,
)
from compocode.compositions import ARRAY_FROM, CompositionMultiset, compose_all, \
    multiset_symmetric_difference


def test_corrupt_zero_errors_is_identity():
    c = compose_all("100101")
    out, log = corrupt(c, ErrorModel("symmetric", 0), random.Random(1))
    assert out == c and log == []


def test_corrupt_counts_and_shape():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(6, 20)
        s = "".join(rng.choice("01") for _ in range(n))
        c = compose_all(s)
        t = rng.randint(1, 3)
        out, log = corrupt(c, ErrorModel("symmetric", t), rng=rng)
        assert len(log) == t
        count, detail = multiset_symmetric_difference(c, out)
        assert count == 2 * t
        for l in range(1, n + 1):
            assert sum(out.level_counter(l).values()) == n - l + 1


def test_corrupt_asymmetric_avoids_reciprocal_pairs():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(8, 20)
        s = "".join(rng.choice("01") for _ in range(n))
        out, log = corrupt(
            compose_all(s), ErrorModel("asymmetric", 3), rng=rng)
        levels = [l for l, _, _ in log]
        assert len(set(levels)) == len(levels)
        for l in levels:
            if n + 1 - l != l:
                assert (n + 1 - l) not in levels


def test_corrupt_can_produce_worked_example():
    c = compose_all("00001111111")
    # level 4: the single 0^4 swapped for 1^4
    out = c.copy()
    out.replace(4, 0, 4)
    found = False
    for seed in range(400):
        cand, log = corrupt(c, ErrorModel("symmetric", 1),
                            random.Random(seed))
        if cand == out:
            found = True
            break
    assert found


# every n below 300, then n = 2^j - 1, 2^j, 2^j + 1 up to j = 15
SHUFFLE_LENGTHS = [*range(300),
                   *(2 ** j + d for j in range(9, 16) for d in (-1, 0, 1))]


def test_shuffle_makes_the_draws_and_swaps_of_random_shuffle():
    # every block boundary of the inlined loop, where i + 1 gains a bit
    for n in SHUFFLE_LENGTHS:
        for seed in range(3):
            want, got = list(range(n)), list(range(n))
            stdlib, inlined = random.Random(seed), random.Random(seed)
            stdlib.shuffle(want)
            _shuffle(got, inlined)
            assert got == want, (n, seed)
            assert inlined.getstate() == stdlib.getstate(), (n, seed)


def test_corrupt_pins_the_bench_draws():
    # op 0 of the bench at seed 1, as drawn before the shuffle was inlined:
    # the log and the generator's next word after corrupt
    from compocode.asym import st_encode
    from compocode.sym import DeltaObservation, etn_encode_info
    rng = random.Random("1:0")
    obs = DeltaObservation(etn_encode_info(_random_info(rng, 12), 2))
    assert obs.n == 18628
    _, log = corrupt(obs, ErrorModel("symmetric", 2), rng)
    assert log == [(1384, 356, 49), (18469, 2381, 13978)]
    assert rng.getrandbits(32) == 2346983913
    rng = random.Random("1:0")
    obs = compose_all(st_encode(_random_info(rng, 128), 3))
    assert obs.n == 212
    _, log = corrupt(obs, ErrorModel("asymmetric", 3), rng)
    assert log == [(31, 18, 0), (34, 16, 25), (40, 17, 27)]
    assert rng.getrandbits(32) == 2292558868


def test_run_trials_recon_perfect():
    model = ErrorModel("symmetric", 0)
    rep = run_trials("recon", {"k": 10}, model, trials=30, seed=5)
    assert rep.successes == 30
    assert rep.mean_backtracks == 0.0


def test_run_trials_asym1():
    model = ErrorModel("asymmetric", 1)
    rep = run_trials("asym1", {"k": 8}, model, trials=25, seed=6)
    assert rep.success_rate == 1.0


def test_run_trials_asym_t():
    model = ErrorModel("asymmetric", 2)
    rep = run_trials("asym-t", {"k": 10, "t": 2}, model, trials=15, seed=7)
    assert rep.success_rate == 1.0


def test_report_determinism():
    model = ErrorModel("asymmetric", 1)
    a = run_trials("asym1", {"k": 6}, model, trials=10, seed=42)
    b = run_trials("asym1", {"k": 6}, model, trials=10, seed=42)
    assert a.to_json() == b.to_json()
    assert a.to_csv_row() == b.to_csv_row()
    c = run_trials("asym1", {"k": 6}, model, trials=10, seed=43)
    assert c.to_json() != a.to_json() or c.successes == a.successes


def test_report_accounting():
    rep = TrialReport("x", {}, 10, 7, {"boom": 3}, seed=1)
    assert rep.successes + sum(rep.failures.values()) == rep.trials
    assert rep.success_rate == 0.7


FLIP = str.maketrans("01", "10")


def failing_recon(exc, recon=REGISTRY["recon"]):
    """The recon builder with a decoder that raises exc."""
    def build(k, t):
        def decode(c):
            raise exc
        return dataclasses.replace(recon(k, t), decoder=decode)
    return build


def flipping(build):
    """The scheme builder with a decoder that complements the word it found."""
    def flipped(k, t):
        code = build(k, t)
        return dataclasses.replace(
            code, decoder=lambda c: code.decoder(c).translate(FLIP))
    return flipped


def test_run_trials_counts_decode_failures_and_raises_faults(monkeypatch):
    model, recon = ErrorModel("symmetric", 0), REGISTRY["recon"]
    monkeypatch.setitem(REGISTRY, "recon",
                        failing_recon(ReconstructionFailure("no string")))
    rep = run_trials("recon", {"k": 4}, model, trials=2)
    assert rep.failures == {"ReconstructionFailure": 2}
    # a programming error is not a channel failure
    monkeypatch.setitem(REGISTRY, "recon", failing_recon(TypeError("bug")))
    with pytest.raises(TypeError):
        run_trials("recon", {"k": 4}, model, trials=2)
    # a decoder that returns a wrong word is counted, not raised
    monkeypatch.setitem(REGISTRY, "recon", flipping(recon))
    rep = run_trials("recon", {"k": 4}, model, trials=3)
    assert (rep.successes, rep.failures) == (0, {"wrong-output": 3})


@pytest.mark.parametrize("call, args, match", [
    (ErrorModel, ("symmetric", -1), "^t must be >= 0$"),
    (build_scheme, ("asym-t", 0, 1), "^scheme asym-t: k must be >= 1$"),
    (run_trials, ("recon", {"k": 4}, ErrorModel("asymmetric", 0), -1),
     "^trials must be >= 0$"),
], ids=["negative-t", "k-below-1", "negative-trials"])
def test_declared_rejections(call, args, match):
    with pytest.raises(ValueError, match=match):
        call(*args)


def test_unknown_scheme_and_model():
    with pytest.raises(ValueError):
        run_trials("nope", {"k": 4}, ErrorModel("symmetric", 0), 1)
    with pytest.raises(ValueError):
        ErrorModel("weird", 1)


# small (k, t) per scheme and the channel each one corrects
ROUND_TRIP = {
    "recon": (12, 0, ErrorModel("asymmetric", 0)),
    "asym1": (8, 0, ErrorModel("asymmetric", 1)),
    "asym-t": (10, 2, ErrorModel("asymmetric", 2)),
    "sym-poly": (8, 1, ErrorModel("symmetric", 1)),
    "sym-catalan": (3, 1, ErrorModel("symmetric", 1)),
}


@pytest.mark.parametrize("name", list(REGISTRY))
def test_registry_round_trip(name):
    k, t, model = ROUND_TRIP[name]
    code = build_scheme(name, k, t)
    rng = random.Random(name)
    for _ in range(3):
        info = "".join(rng.choice("01") for _ in range(k))
        assert code.n == len(code.encode(info))
        obs, log = corrupt(code.observe(code.encode(info)), model, rng)
        assert len(log) == model.t
        assert code.decode(obs) == info
        assert code.verify(info, obs)
        other = ("1" if info[0] == "0" else "0") + info[1:]
        assert not code.verify(other, code.observe(code.encode(info)))
        assert not code.verify(other, obs)
        # beyond the budget verify still answers, for either info word
        for extra in (1, 2):
            model_over = ErrorModel(model.kind, model.t + extra)
            bad, _ = corrupt(code.observe(code.encode(info)), model_over, rng)
            for word in (info, other):
                assert type(code.verify(word, bad)) is bool
    # a codeword of another length is no codeword of this code; k + 4, as
    # asym1 at k + 2 = 10 keeps n = 17
    wider = build_scheme(name, k + 4, t)
    info = "".join(rng.choice("01") for _ in range(k + 4))
    obs = wider.observe(wider.encode(info))
    assert obs.n != code.observe(code.encode(info[:k])).n
    assert code.verify(info[:k], obs) is False
    # nor is an info word of another length, which encodes to another n
    obs = code.observe(code.encode(info[:k]))
    assert code.verify(info[:k + 1], obs) is False


@pytest.mark.parametrize("name", list(REGISTRY))
def test_verify_is_false_for_an_info_word_that_is_no_bit_string(name):
    # a k-character word with a non-bit is no info word: False, not a raise
    k, t, _ = ROUND_TRIP[name]
    code = build_scheme(name, k, t)
    info = "10" * (k // 2) + "1" * (k % 2)
    obs = code.observe(code.encode(info))
    assert code.verify(info, obs) is True
    for bad in ("a" + info[1:], info[:-1] + "2", " " * k, "\u0661" + info[1:]):
        assert code.verify(bad, obs) is False, bad


@pytest.mark.parametrize("name", list(REGISTRY))
def test_decode_rejects_a_codeword_of_another_length(name):
    # the low-rank k = 10 codeword ranks as 0011 in recon, sym-poly and
    # sym-catalan, whose decoders would read it at k = 4 without the check
    t = 1 if name in ("asym-t", "sym-poly", "sym-catalan") else 0
    wider = build_scheme(name, 10, t)
    obs = wider.observe(wider.encode("0000000011"))
    with pytest.raises(ValueError,
                       match=f"length {obs.n} does not match parameters"):
        build_scheme(name, 4, t).decode(obs)


class _CountedReads:
    """An observation's multiset queries, counting the levels read, with
    no source string."""

    _source = None

    def __init__(self, obs):
        self.obs, self.n, self.reads = obs, obs.n, 0

    def validate_shape(self):
        return self.obs.validate_shape()

    def weight_profile(self):
        return self.obs.weight_profile()

    def level_counts(self, l):
        self.reads += 1
        return self.obs.level_counts(l)

    def level_counter(self, l):
        self.reads += 1
        return self.obs.level_counter(l)


def test_every_verify_stops_at_the_first_level_past_2t():
    # asym1 at k = 64 (n = 77, below ARRAY_FROM, so levels are read as
    # Counters): one swap at each of levels 3 and 4 puts the observation 4
    # elements from the codeword by level 4, and its twin, one more 1 in
    # the middle, differs at level 1 by 2 and at level 2 by 4
    code = build_scheme("asym1", 64)
    info = _random_info(random.Random(8), 64)
    clean = code.observe(code.encode(info))
    obs = clean.copy()
    for l in (3, 4):
        obs.replace(l, min(obs.level_counter(l)), max(obs.level_counter(l)))
    far = _CountedReads(obs)
    assert code.verify(info, far) is False
    assert code.n < ARRAY_FROM and far.reads == 4 + 2
    # the codeword's own multiset is read in full, once
    near = _CountedReads(clean)
    assert code.verify(info, near) is True and near.reads == code.n


def test_sym_poly_verify_bounds_the_multiset_distance():
    # 58 replacements in weight-preserving pairs, at levels 100 .. 2,900:
    # every level weight stays as it was, but the multiset is 116 elements
    # from the codeword's, far beyond t = 1
    code = build_scheme("sym-poly", 4, 1)
    assert code.n == 4595
    info = "1011"
    s = code.encode(info)
    one, _ = corrupt(code.observe(s), ErrorModel("symmetric", 1),
                     random.Random(5))
    for base in (s, s[::-1]):
        obs = code.observe(base)
        for l in range(100, 3000, 100):
            lo, hi = min(obs.level_counter(l)), max(obs.level_counter(l))
            obs.replace(l, lo, lo + 1)
            obs.replace(l, hi, hi - 1)
        assert sum(abs(c) for d in obs.delta.values() for c in d.values()) == 116
        assert obs.weight_profile().tolist() == \
            code.observe(s).weight_profile().tolist()
        assert code.verify(info, obs) is False
    # verify reads level by level and stops at the first level that takes
    # the distance past 2t
    far = _CountedReads(obs)
    assert code.verify(info, far) is False
    assert far.reads == 100
    assert code.verify(info, one) is True
    assert code.verify(info, compose_all(s)) is True
    # a level that lost an element it never held is no multiset, though it
    # is 2 elements from the codeword's: verify still answers
    bad = code.observe(s)
    l = 2000
    w = max(bad.level_counter(l)) + 1
    bad._bump(l, w, -1)
    bad._bump(l, w - 1, 1)
    assert code.verify(info, bad) is False


def test_sym_poly_verify_reads_the_delta_of_the_codeword(monkeypatch):
    # on an observation of the re-encoded codeword verify compares deltas
    # and reads no level; the all-levels comparison, reached through a
    # wrapper that hides the source string or on another source string,
    # gives the same answers
    code = build_scheme("sym-poly", 4, 1)
    info = "1011"
    s = code.encode(info)
    cases = []
    for base in (s, s[::-1]):
        for errors in (0, 1, 2):
            obs, _ = corrupt(code.observe(base), ErrorModel("symmetric", errors),
                             random.Random(errors))
            cases.append((base, obs, code.verify(info, _CountedReads(obs))))
    assert [want for *_, want in cases] == [True, True, False] * 2
    for base, obs, want in cases[3:]:
        assert code.verify(info, obs) is want
    monkeypatch.setattr(CompositionMultiset, "level_counts", None)  # no level read
    for base, obs, want in cases[:3]:
        assert code.verify(info, obs) is want


LARGE_K = [("recon", 0, 0, "asymmetric"), ("asym1", 0, 1, "asymmetric"),
           ("asym-t", 3, 3, "asymmetric"), ("sym-poly", 2, 2, "symmetric")]


@pytest.mark.parametrize("name, t, errors, kind", LARGE_K,
                         ids=[f"{name}-{t}-{e}" for name, t, e, _ in LARGE_K])
def test_a_large_k_trial_decodes_the_sent_word(name, t, errors, kind):
    # no size cliff at k = 4,096 (n = 4,104 to 22,716)
    report = run_trials(name, {"k": 4096, "t": t}, ErrorModel(kind, errors),
                        1, seed=3)
    assert report.successes == 1, report.failures


def test_an_error_free_recon_decode_at_k_4096_caches_no_level():
    # an array P keeps no composed level, and one search reads a level
    # again only on a backtrack; caching the 2,052 levels it read peaked
    # at 4.0 MB under tracemalloc
    code = build_scheme("recon", 4096)
    rng = random.Random(45)
    info = _random_info(rng, 4096)
    obs, _ = corrupt(code.observe(code.encode(info)), ErrorModel("asymmetric", 0), rng)
    tracemalloc.start()
    try:
        assert code.decode(obs) == info
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert not obs._levels


def test_a_sym_catalan_decode_above_the_array_threshold_keeps_its_levels():
    # the brute force searches one candidate copy after another over the
    # same levels, so it keeps them; composing them anew per candidate
    # took two k = 2,048 trials from 1.33 to 1.75 s (medians of six runs
    # on a 2-core VM)
    code = build_scheme("sym-catalan", 2048, 1)
    rng = random.Random(46)
    info = _random_info(rng, 2048)
    obs, _ = corrupt(code.observe(code.encode(info)), ErrorModel("symmetric", 1), rng)
    assert obs.n >= ARRAY_FROM and not obs._levels
    assert code.decode(obs) == info
    assert len(obs._levels) > obs.n // 4


@pytest.mark.parametrize("w", [2001, -1])
def test_sym_poly_verify_rejects_a_weight_outside_the_level(w):
    # level 2,000 swaps an element it holds for one of weight l + 1 or -1:
    # the level read used to index past its count array (IndexError) or
    # wrap -1 round to weight l (True)
    code = build_scheme("sym-poly", 4, 1)
    info = "1011"
    obs = code.observe(code.encode(info))
    obs._bump(2000, max(obs.level_counter(2000)), -1)
    obs._bump(2000, w, 1)
    assert code.verify(info, obs) is False


def test_sym_poly_verify_rejects_a_removal_past_the_last_level():
    code = build_scheme("sym-poly", 4, 1)
    info = "1011"
    obs = code.observe(code.encode(info))
    obs._bump(code.n + 1, 1, -1)
    assert code.verify(info, obs) is False


def test_a_moved_level_weight_costs_an_even_gap_of_two_or_more():
    # why sym-poly's verify counts no mismatched weights: levels of equal
    # size differ by an even number of elements, 2 or more where their
    # weights differ, so a distance <= 2t leaves at most t weights moved
    rng = random.Random(43)
    for _ in range(300):
        s = "".join(rng.choice("01") for _ in range(rng.randint(3, 24)))
        clean = compose_all(s)
        obs, _ = corrupt(clean, ErrorModel("symmetric", rng.randint(1, 3)), rng,
                         adversarial=rng.random() < 0.3)
        weights = clean.weight_profile(), obs.weight_profile()
        for l in range(1, len(s) + 1):
            gap = abs(clean.level_counts(l) - obs.level_counts(l)).sum()
            assert gap % 2 == 0
            assert gap >= 2 or weights[0][l - 1] == weights[1][l - 1]


def test_dense_verify_rejects_a_level_of_the_wrong_size():
    # one extra element at level 40 is 1 element from the codeword's
    # multiset, within asym1's distance of 2, but no multiset of a string
    code = build_scheme("asym1", 64)
    info = "10" * 32
    obs = compose_all(code.encode(info))
    obs.levels[40][min(obs.levels[40])] += 1
    assert code.verify(info, obs) is False
    assert code.verify(info, compose_all(code.encode(info))) is True
