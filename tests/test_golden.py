"""Codewords and field tables pinned across commits.

The values were recorded from the implementation before the finite fields
were folded into one table type (sympy-backed prime fields, separate GF(3^e)
and GF(2^m) classes, a recursive Catalan path count).  Any change to a field
modulus, a table scan order or a ranker shows up here as a changed codeword.
"""

import hashlib
import itertools
import random

import pytest

from compocode.asym import s1_params, st_encode, st_params
from compocode.catalan import sr_params, sr_size
from compocode.channel import ErrorModel, run_trials
from compocode.fields import GF, BCHCode, ternary_erasure_encode, ternary_field_params
from compocode.sym import catalan_code_encode, etn_encode_info


def test_st_encode_pinned():
    assert st_encode("1011001110001011110010110", 2) == (
        "0000001010101110101010011010011100010011111111101101110001110100011111")


def test_etn_encode_info_pinned():
    s = etn_encode_info("10110010", 1)
    assert len(s) == 4600
    assert hashlib.sha256(s.encode()).hexdigest() == (
        "a1a3d64ef5b15517f59106ea6b56fc17062f169fd4ab1aa5a8c98f74f9d5edaf")


def test_catalan_code_encode_pinned():
    assert catalan_code_encode("101101", 1) == "0000000011100110111111"


def test_ternary_erasure_encode_pinned():
    rng = random.Random(3)
    msg = [rng.randrange(3) for _ in range(100)]
    assert ternary_field_params(100, 6) == 4
    assert ternary_erasure_encode(msg, 6)[100:] == [
        2, 0, 1, 0, 0, 0, 1, 2, 1, 1, 0, 2,
        2, 0, 2, 1, 2, 1, 2, 0, 2, 2, 0, 0]


def test_bch_encode_pinned():
    rng = random.Random(4627)
    msg = [rng.randrange(2) for _ in range(4627)]
    code = BCHCode(4627, 2)
    assert code.f.m == 13
    assert code.g == [1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0,
                      0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1]
    assert "".join(map(str, code.encode(msg)[4627:])) == \
        "10000101100101000010111101"


# the modulus x^m + r(x) packed base p: for GF(3^2), 14 is x^2 + x + 2
@pytest.mark.parametrize("p, m, packed", [
    (3, 1, 4), (3, 2, 14), (3, 3, 34), (3, 4, 86), (3, 5, 250), (3, 6, 734),
    (2, 3, 11), (2, 4, 19), (2, 5, 37), (2, 6, 67), (2, 7, 131), (2, 8, 285),
    (2, 9, 529), (2, 10, 1033), (2, 11, 2053), (2, 12, 4179),
    (2, 13, 8219),  # x^13 + x^4 + x^3 + x + 1
    (2, 14, 16427),
])
def test_field_modulus_pinned(p, m, packed):
    assert GF(p, m).modulus == packed


# sr_params(k, t) for k = 1..300: the value at k = 1, then the step to each
# next k, recorded from the implementation that re-summed sr_size on every
# call (before sr_size and sr_params were memoised)
SR_PARAMS_STEPS = {
    0: (3,
        "2111121111111111111111111111111111112111111111111111111111111111"
        "1111111111111111111111111111111111111111111111111111111111111111"
        "1111111111111111111111111111121111111111111111111111111111111111"
        "1111111111111111111111111111111111111111111111111111111111111111"
        "1111111111111111111111111111111111111111111"),
    1: (6,
        "2020220202020202020202020202020202022020202020202020202020202020"
        "2020202020202020202020202020202020202020202020202020202020202020"
        "2020202020202020202020202020220202020202020202020202020202020202"
        "0202020202020202020202020202020202020202020202020202020202020202"
        "0202020202020202020202020202020202020202020"),
    2: (8,
        "2020220202020202020202020202020202022020202020202020202020202020"
        "2020202020202020202020202020202020202020202020202020202020202020"
        "2020202020202020202020202020220202020202020202020202020202020202"
        "0202020202020202020202020202020202020202020202020202020202020202"
        "0202020202020202020202020202020202020202020"),
    3: (10,
        "2020220202020202020202020202020202022020202020202020202020202020"
        "2020202020202020202020202020202020202020202020202020202020202020"
        "2020202020202020202020202020220202020202020202020202020202020202"
        "0202020202020202020202020202020202020202020202020202020202020202"
        "0202020202020202020202020202020202020202020"),
}


def recorded_sr_params(t):
    first, steps = SR_PARAMS_STEPS[t]
    return list(itertools.accumulate(map(int, steps), initial=first))


@pytest.mark.parametrize("t", range(4))
def test_sr_params_pinned(t):
    assert [sr_params(k, t) for k in range(1, 301)] == recorded_sr_params(t)


def test_code_lengths_pinned():
    assert s1_params(64) == 77
    assert st_params(128, 3) == (140, 212)
    assert st_params(25, 2) == (34, 70)


@pytest.mark.parametrize("t", range(4))
def test_memoised_sr_size_matches_the_sum(t):
    lengths = range(2 * t + 2, recorded_sr_params(t)[-1] + 1, 1 if t == 0 else 2)
    assert [sr_size(n, t) for n in lengths] == \
        [sr_size.__wrapped__(n, t) for n in lengths]


# same-seed run_trials reports, in budget and beyond it, for every scheme;
# recorded while ternary_erasure_decode and BCHCode.decode still returned
# only the message and their callers re-encoded it
TRIAL_REPORTS = [
    ("recon", {"k": 16}, "asymmetric", 0, 20,
     '{"failures": {}, "mean_backtracks": 0.0, "params": {"k": 16}, '
     '"scheme": "recon", "seed": 1, "success_rate": 1.0, "successes": 20, '
     '"trials": 20}'),
    ("recon", {"k": 16}, "asymmetric", 1, 20,
     '{"failures": {"ReconstructionFailure": 20}, "mean_backtracks": 0.0, '
     '"params": {"k": 16}, "scheme": "recon", "seed": 1, "success_rate": 0.0, '
     '"successes": 0, "trials": 20}'),
    ("asym1", {"k": 16}, "asymmetric", 1, 30,
     '{"failures": {}, "mean_backtracks": 0.0, "params": {"k": 16}, '
     '"scheme": "asym1", "seed": 1, "success_rate": 1.0, "successes": 30, '
     '"trials": 30}'),
    ("asym1", {"k": 16}, "asymmetric", 2, 30,
     '{"failures": {"CorruptedInput": 30}, "mean_backtracks": 0.0, '
     '"params": {"k": 16}, "scheme": "asym1", "seed": 1, "success_rate": 0.0, '
     '"successes": 0, "trials": 30}'),
    ("asym-t", {"k": 16, "t": 2}, "symmetric", 2, 100,
     '{"failures": {"ReconstructionFailure": 3}, "mean_backtracks": 0.0, '
     '"params": {"k": 16, "t": 2}, "scheme": "asym-t", "seed": 1, '
     '"success_rate": 0.97, "successes": 97, "trials": 100}'),
    ("asym-t", {"k": 16, "t": 2}, "asymmetric", 3, 30,
     '{"failures": {"ReconstructionFailure": 30}, "mean_backtracks": 0.0, '
     '"params": {"k": 16, "t": 2}, "scheme": "asym-t", "seed": 1, '
     '"success_rate": 0.0, "successes": 0, "trials": 30}'),
    ("sym-poly", {"k": 4, "t": 1}, "symmetric", 1, 3,
     '{"failures": {}, "mean_backtracks": 0.0, "params": {"k": 4, "t": 1}, '
     '"scheme": "sym-poly", "seed": 1, "success_rate": 1.0, "successes": 3, '
     '"trials": 3}'),
    ("sym-poly", {"k": 4, "t": 1}, "symmetric", 2, 3,
     '{"failures": {"SparsityExceeded": 3}, "mean_backtracks": 0.0, '
     '"params": {"k": 4, "t": 1}, "scheme": "sym-poly", "seed": 1, '
     '"success_rate": 0.0, "successes": 0, "trials": 3}'),
    ("sym-catalan", {"k": 4, "t": 1}, "symmetric", 1, 10,
     '{"failures": {}, "mean_backtracks": 0.0, "params": {"k": 4, "t": 1}, '
     '"scheme": "sym-catalan", "seed": 1, "success_rate": 1.0, '
     '"successes": 10, "trials": 10}'),
    ("sym-catalan", {"k": 4, "t": 1}, "symmetric", 2, 10,
     '{"failures": {"ReconstructionFailure": 10}, "mean_backtracks": 0.0, '
     '"params": {"k": 4, "t": 1}, "scheme": "sym-catalan", "seed": 1, '
     '"success_rate": 0.0, "successes": 0, "trials": 10}'),
]


@pytest.mark.parametrize("scheme, params, kind, errors, trials, report",
                         TRIAL_REPORTS)
def test_trial_reports_pinned(scheme, params, kind, errors, trials, report):
    got = run_trials(scheme, params, ErrorModel(kind, errors), trials, seed=1)
    assert got.to_json() == report
