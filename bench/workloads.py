"""The benchmark's four seeded workloads.

An op is one seeded trial, run in the order `compocode.channel.run_trials`
uses: draw the info word from `random.Random(f"{seed}:{i}")`, encode,
observe, corrupt with the same generator, decode.  It returns
`(sent, decoded, channel_log)`; the caller compares the first two.

Every call into the package goes through a module attribute looked up in
the op (`catalan.sr_encode`, not a name bound at set-up), so that the
tracer's rebinding reaches the calls.  This module imports nothing from
`compocode` at import time: `setup` imports only the modules the op calls,
which is what `setup_s` charges for; each op derives its code's
parameters, as a caller's first call does.
"""

from __future__ import annotations

import os
import random
import shutil

# Every decoder signals a decode failure with one of these ValueError
# subclasses, named by (module, class) so that classifying an exception
# imports nothing (importing `fields` would pull in sympy).
DECODE_FAILURE_TYPES = (
    ("compocode.compositions", "CorruptedInput"),
    ("compocode.backtrack", "ReconstructionFailure"),
    ("compocode.fields", "SparsityExceeded"),
    ("compocode.fields", "EraseBudgetExceeded"),
    ("compocode.sym", "BlockCodeFailure"),
)
# `sr_decode` raises a bare ValueError on a non-codeword.
SR_DECODE_ERRORS = ("membership violation", "codeword outside the 2^k")


class CliDecodeFailure(Exception):
    """`compocode decode` exited 4: the CLI's decode-failure code."""


def is_decode_failure(exc: BaseException) -> bool:
    """True for the declared decode failures; False for programming errors."""
    if isinstance(exc, CliDecodeFailure):
        return True
    names = {(k.__module__, k.__qualname__) for k in type(exc).__mro__}
    if names.intersection(DECODE_FAILURE_TYPES):
        return True
    return type(exc) is ValueError and str(exc).startswith(SR_DECODE_ERRORS)


def random_info(rng: random.Random, k: int) -> str:
    """The info word `run_trials` draws (`channel._random_info`)."""
    return "".join(rng.choice("01") for _ in range(k))


class Workload:
    """One closed-loop client: `setup` once, then `op(i)` for i = 0, 1, ..."""

    name = ""
    why = ""
    k = 0
    # ops per second as measured on the machine README.md describes; sizes
    # the traced run, which does a fixed number of ops so that its counts
    # repeat exactly for a seed
    nominal_ops_per_s = 1.0

    def setup(self, seed: int) -> None:
        self.seed = seed

    def op(self, i: int):
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def _rng(self, i: int) -> random.Random:
        return random.Random(f"{self.seed}:{i}")


class Recon(Workload):
    name = "recon-k256"
    why = ("error-free readout: compose_all, sr_params and backtracking; "
           "no fields work, no sympy import")
    k = 256
    nominal_ops_per_s = 20.0

    def setup(self, seed):
        super().setup(seed)
        from compocode import backtrack, catalan, channel  # noqa: F401
        self.model = channel.ErrorModel("asymmetric", 0)

    def op(self, i):
        from compocode import backtrack, catalan, channel, compositions
        rng = self._rng(i)
        info = random_info(rng, self.k)
        s = catalan.sr_encode(info, 0)
        c, log = channel.corrupt(compositions.compose_all(s), self.model, rng)
        s2, _ = backtrack.reconstruct_unique(c)
        return info, catalan.sr_decode(s2, self.k, 0), log


class AsymT(Workload):
    name = "asym-t-k128-t3"
    why = ("3 asymmetric errors: GF(3^e) erasure coding dominates; "
           "compose_all and tolerant backtracking take the rest")
    k = 128
    t = 3
    nominal_ops_per_s = 9.0

    def setup(self, seed):
        super().setup(seed)
        from compocode import asym, channel  # noqa: F401 - set-up imports
        self.model = channel.ErrorModel("asymmetric", self.t)

    def op(self, i):
        from compocode import asym, channel, compositions
        rng = self._rng(i)
        info = random_info(rng, self.k)
        s = asym.st_encode(info, self.t)
        c, log = channel.corrupt(compositions.compose_all(s), self.model, rng)
        return info, asym.st_decode(c, self.k, self.t), log


class SymPoly(Workload):
    name = "sym-poly-k12-t2"
    why = ("2 symmetric errors on n=18628: BCH, sparse interpolation, "
           "shell reconstruction; never builds the quadratic multiset")
    k = 12
    t = 2
    nominal_ops_per_s = 4.5

    def setup(self, seed):
        super().setup(seed)
        from compocode import channel, sym  # noqa: F401 - set-up imports
        self.model = channel.ErrorModel("symmetric", self.t)

    def op(self, i):
        from compocode import channel, sym
        rng = self._rng(i)
        info = random_info(rng, self.k)
        s = sym.etn_encode_info(info, self.t)
        c, log = channel.corrupt(sym.DeltaObservation(s), self.model, rng)
        return info, sym.etn_decode_info(c, self.k, self.t), log


class CliAsym1(Workload):
    name = "cli-asym1-k64"
    why = ("four in-process CLI commands on files: text format, manifests, "
           "the re-encode check and the single-error code")
    k = 64
    nominal_ops_per_s = 40.0

    def __init__(self, tmp_root: str):
        self.tmp_root = tmp_root

    def setup(self, seed):
        super().setup(seed)
        import compocode.cli  # noqa: F401 - the import a CLI user pays
        self.dir = os.path.join(self.tmp_root, f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.path = {name: os.path.join(self.dir, name + ".txt")
                     for name in ("info", "cw", "ms", "bad", "out")}

    def _main(self, *argv):
        from compocode import cli
        code = cli.main(list(argv))
        if code == cli.EXIT_DECODE:
            raise CliDecodeFailure(f"{argv[0]} exited {code}")
        if code != cli.EXIT_OK:
            raise RuntimeError(f"compocode {' '.join(argv)} exited {code}")

    def op(self, i):
        rng = self._rng(i)
        info = random_info(rng, self.k)
        corrupt_seed = rng.randrange(2 ** 32)
        p = self.path
        scheme = ("--scheme", "asym1", "--k", str(self.k))
        with open(p["info"], "w") as f:
            f.write(info + "\n")
        self._main("encode", *scheme, "--input", p["info"], "--output", p["cw"])
        self._main("compose", "--input", p["cw"], "--output", p["ms"])
        self._main("corrupt", "--model", "asym", "--errors", "1",
                   "--seed", str(corrupt_seed),
                   "--input", p["ms"], "--output", p["bad"])
        self._main("decode", *scheme, "--input", p["bad"], "--output", p["out"])
        with open(p["out"]) as f:
            got = f.read().strip()
        return info, got, corrupt_seed

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def make(name: str, tmp_root: str) -> Workload:
    """The workload called `name`; `tmp_root` holds the CLI's files."""
    for cls in (Recon, AsymT, SymPoly):
        if cls.name == name:
            return cls()
    if name == CliAsym1.name:
        return CliAsym1(tmp_root)
    raise KeyError(name)


NAMES = (Recon.name, AsymT.name, SymPoly.name, CliAsym1.name)
