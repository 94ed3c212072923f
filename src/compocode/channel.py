"""Channel models, a reproducible trial harness and the scheme registry.

An error replaces one multiset element with a different composition of the
same length.  The asymmetric model additionally never corrupts both of the
reciprocal levels l and n+1-l; the symmetric model has no placement rule.
All randomness flows through seeded random.Random instances, with a
per-trial derived seed, so reports are bit-identical across runs.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Callable

from .compositions import CorruptedInput, check_length, compose_all, \
    level_differences


@dataclass(frozen=True)
class ErrorModel:
    kind: str  # "asymmetric" | "symmetric"
    t: int

    def __post_init__(self):
        if self.kind not in ("asymmetric", "symmetric"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.t < 0:
            raise ValueError("t must be >= 0")


def _shuffle(x: list, rng: random.Random) -> None:
    """Shuffle x in place with exactly the draws and swaps of rng.shuffle(x).

    CPython 3.10-3.13's Random.shuffle swaps x[i] with x[j] for i = len(x)-1
    down to 1, j = _randbelow_with_getrandbits(i + 1): getrandbits((i + 1)
    .bit_length()) redrawn until it is at most i.  This inlines that
    Fisher-Yates loop (Durstenfeld, CACM Algorithm 235, 1964), with the bit
    length computed once per block of i that share it.
    """
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the block's last i, where i + 1 = 2^(k-1)
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1


def corrupt(c, model: ErrorModel, rng: random.Random, adversarial=False):
    """Apply exactly model.t replacements to an observation, drawing from rng.

    Returns (corrupted copy, log); the log lists (level, removed weight,
    added weight) per error.  The t levels come from the Fisher-Yates
    draws of random.shuffle, inlined in _shuffle, so a seed picks the same
    levels as rng.shuffle would.  In adversarial mode the replacement
    maximizes the weight change instead of being uniform.
    """
    n = c.n
    out = c.copy()
    chosen: list[int] = []
    pool = list(range(1, n + 1))
    _shuffle(pool, rng)
    for level in pool:
        if len(chosen) == model.t:
            break
        if model.kind == "asymmetric" and (n + 1 - level) in chosen:
            continue
        chosen.append(level)
    if len(chosen) < model.t:
        raise ValueError("not enough levels for the requested error count")
    log = []
    for level in sorted(chosen):
        # rng.choice(seq) is seq[_randbelow(len(seq))]: draw as if from lists
        old = out.draw_weight(level, rng.choice)
        if adversarial:
            others = [w for w in range(level + 1) if w != old]
            new = max(others, key=lambda w: abs(w - old))
        else:
            new = rng.choice(range(level))
            new += new >= old
        # replace without its recount: old was drawn, new is in 0..level
        out._bump(level, old, -1)
        out._bump(level, new, 1)
        log.append((level, old, new))
    return out, log


@dataclass
class TrialReport:
    scheme: str
    params: dict
    trials: int
    successes: int
    failures: dict = field(default_factory=dict)  # cause -> count
    mean_backtracks: float = 0.0  # recon raises on a rollback; no decode counts one
    wall_seconds: float = 0.0
    seed: int = 0

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 1.0

    def to_json(self) -> str:
        # wall_seconds is informational only and excluded so that reports are
        # bit-identical across same-seed runs
        d = dict(self.__dict__)
        del d["wall_seconds"]
        d["success_rate"] = self.success_rate
        return json.dumps(d, sort_keys=True)

    def csv_header(self) -> str:
        return "scheme,params,trials,successes,success_rate,mean_backtracks,seed"

    def to_csv_row(self) -> str:
        pstr = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (f"{self.scheme},{pstr},{self.trials},{self.successes},"
                f"{self.success_rate},{self.mean_backtracks},{self.seed}")


def _random_info(rng, k):
    return "".join(rng.choice("01") for _ in range(k))


@dataclass(frozen=True)
class Scheme:
    """One code at fixed parameters, as sim, the CLI and the tests use it.

    encode maps k info bits to the codeword of length n, and observe maps
    the codeword to the observation the channel corrupts.  decode(obs) and
    verify(info, obs) check obs.n against n, the one length check of every
    scheme.  decode then calls the builder's decoder; it returns the info
    word and raises ValueError on another length.  verify, the same for
    every scheme, re-encodes info (codewords(info), or the one codeword
    encode(info)) and is True when one of its codewords lies within t
    errors of obs; it runs no decoder and never raises: an info word of
    another length than k or with a character other than 0 and 1, obs of
    another length than n or an obs that fails validate_shape is False.
    params names the code in reports: k, and t for the schemes that take
    one.
    """

    params: dict
    n: int
    encode: Callable[[str], str]
    observe: Callable
    decoder: Callable
    t: int
    codewords: Callable | None = None

    def decode(self, obs) -> str:
        check_length(obs.n, self.n)
        return self.decoder(obs)

    def verify(self, info: str, obs) -> bool:
        if obs.n != self.n or len(info) != self.params["k"] or set(info) - {"0", "1"}:
            return False
        try:
            obs.validate_shape()
        except CorruptedInput:  # obs is no multiset
            return False
        codewords = self.codewords(info) if self.codewords else (self.encode(info),)
        return any(_within(s, obs, self.t) for s in codewords)


def _within(clean: str, obs, t: int) -> bool:
    """Whether C(clean) is within t replacements (2t elements) of obs; it
    reads level by level and stops at the first that takes it past 2t."""
    gaps = accumulate(sum(abs(d) for _, d in diffs)
                      for _, diffs in level_differences(compose_all(clean), obs))
    return all(d <= 2 * t for d in gaps)


# Builders import their scheme's modules, so importing channel loads no numpy.


def _recon(k: int, t: int) -> Scheme:
    if t:
        raise ValueError("t must be 0")
    from .backtrack import reconstruct_unique
    from .catalan import sr_decode, sr_encode, sr_params
    return Scheme({"k": k}, sr_params(k, 0), sr_encode, compose_all,
                  lambda c: sr_decode(reconstruct_unique(c)[0], k, 0), 0)


def _asym1(k: int, t: int) -> Scheme:
    if t:
        raise ValueError("t must be 0")
    from .asym import s1_codewords, s1_decode, s1_encode, s1_params
    return Scheme({"k": k}, s1_params(k), s1_encode, compose_all,
                  partial(s1_decode, k=k), 1, s1_codewords)


def _asym_t(k: int, t: int) -> Scheme:
    from .asym import st_decode, st_encode, st_params
    return Scheme({"k": k, "t": t}, st_params(k, t)[1], partial(st_encode, t=t),
                  compose_all, partial(st_decode, k=k, t=t), t)


def _sym_poly(k: int, t: int) -> Scheme:
    from .catalan import sr_params
    from .sym import etn_decode_info, etn_encode_info, poly_params_from_payload
    n = poly_params_from_payload(sr_params(k, 0), t).n
    return Scheme({"k": k, "t": t}, n, partial(etn_encode_info, t=t), compose_all,
                  partial(etn_decode_info, k=k, t=t), t)


def _sym_catalan(k: int, t: int) -> Scheme:
    from .sym import catalan_code_decode_bruteforce, catalan_code_encode, \
        catalan_code_params, catalan_code_strip
    n = catalan_code_params(k, t)  # rejects t < 0 before any trial
    return Scheme({"k": k, "t": t}, n, partial(catalan_code_encode, t=t), compose_all,
                  lambda c: catalan_code_strip(
                      catalan_code_decode_bruteforce(c, t), k, t), t)


REGISTRY = {"recon": _recon, "asym1": _asym1, "asym-t": _asym_t,
            "sym-poly": _sym_poly, "sym-catalan": _sym_catalan}


def build_scheme(name: str, k: int, t: int = 0) -> Scheme:
    """The registered scheme `name` at (k, t); recon and asym1 take t = 0.

    A bad (k, t) raises ValueError here, before anything is encoded; the
    encoders derive their lengths from the info word.
    """
    if name not in REGISTRY:
        raise ValueError(f"unknown scheme {name!r}")
    try:
        if k < 1:
            raise ValueError("k must be >= 1")
        return REGISTRY[name](k, t)
    except ValueError as e:
        raise ValueError(f"scheme {name}: {e}") from e


def run_trials(scheme: str, params: dict, model: ErrorModel, trials: int,
               seed: int = 0) -> TrialReport:
    if trials < 0:
        raise ValueError("trials must be >= 0")
    code = build_scheme(scheme, params["k"], params.get("t", 0))
    k = params["k"]
    successes = 0
    failures: dict[str, int] = {}
    start = time.perf_counter()
    for i in range(trials):
        rng = random.Random(f"{seed}:{i}")
        info = _random_info(rng, k)
        # a parameter or channel error propagates: only decode can fail a trial
        c, _ = corrupt(code.observe(code.encode(info)), model, rng)
        try:
            if code.decode(c) == info:
                successes += 1
            else:
                failures["wrong-output"] = failures.get("wrong-output", 0) + 1
        except ValueError as e:  # every declared decode failure is one
            cause = type(e).__name__
            failures[cause] = failures.get(cause, 0) + 1
    elapsed = time.perf_counter() - start
    return TrialReport(
        scheme=scheme, params=dict(sorted(code.params.items())), trials=trials,
        successes=successes, failures=failures,
        wall_seconds=round(elapsed, 3), seed=seed)
