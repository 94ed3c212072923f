"""Spans around calls into compocode's modules, installed from outside.

`Tracer.install` rebinds each traced function in the module that defines it
and in every module that imported it by name (`compocode.asym` holds its
own `ternary_erasure_decode`), and traced methods on their class, so that
nothing under `src/` changes.  Modules that import lazily inside a function
read the defining module at call time and so reach the wrapper too.

A span's self time is its duration minus the durations of the spans it
directly contains.  The table below traces the entry points the benchmark's
per-layer metrics name.  Functions without a span (private helpers, and
small public ones such as `weights_from_sigma` or `st_params`) count toward
the self time of the span that called them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

MODULES = ("compositions", "catalan", "backtrack", "fields", "asym", "sym",
           "channel", "cli")

# span name "module.function" -> the other modules that import it by name.
# Install fails if a listed binding is missing or if a module binds a
# traced function without being listed, so a rename cannot drop a span.
FUNCTIONS = {
    "compositions.compose_all": ("backtrack", "channel"),
    "compositions.cumulative_weights": ("backtrack", "asym", "sym"),
    "compositions.sigma_from_weights": ("backtrack", "sym"),
    "compositions.parse": ("cli",),
    "compositions.serialize": ("cli",),
    "catalan.sr_encode": ("asym", "sym"),
    "catalan.sr_decode": ("asym", "sym"),
    "backtrack.reconstruct_unique": (),
    "backtrack.tolerant_reconstruct": ("asym",),
    "fields.ternary_erasure_encode": ("asym",),
    "fields.ternary_erasure_decode": ("asym",),
    "fields.sparse_interpolate": ("sym",),
    "asym.st_encode": (),
    "asym.st_decode": (),
    "asym.s1_encode": (),
    "asym.s1_decode": (),
    "asym.s1_reconstruct": (),
    "sym.recover_error_poly": (),
    "sym.etn_encode": (),
    "sym.etn_decode": (),
    "channel.corrupt": ("cli",),
}

# span name "module.Class.method" -> the attribute wrapped on the class
METHODS = {
    "fields.BCHCode.encode": "encode",
    "fields.BCHCode.decode": "decode",
    "sym.DeltaObservation.new": "__init__",
    "sym.DeltaObservation.sym_eval": "sym_eval",
    "sym.DeltaObservation.level_counter": "level_counter",
}

# `cli.main` gets one span per subcommand: cli.encode, cli.decode, ...
CLI_COMMANDS = ("encode", "compose", "corrupt", "decode")


def _count_backtracks(tracer: "Tracer", result) -> None:
    # reconstruct_unique and tolerant_reconstruct return (string, stats)
    stats = result[1]
    tracer.count("backtrack.backtracks", stats.backtracks)
    tracer.count("backtrack.guesses", stats.guesses)


ON_RESULT = {
    "backtrack.reconstruct_unique": _count_backtracks,
    "backtrack.tolerant_reconstruct": _count_backtracks,
}


def _module(name: str):
    return importlib.import_module(f"compocode.{name}")


def _cli_span(args) -> str:
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def span_names() -> list[str]:
    """Every span an installed tracer can record."""
    return ([*FUNCTIONS, *METHODS]
            + [f"cli.{cmd}" for cmd in CLI_COMMANDS])


class Tracer:
    """Aggregated spans: per name, calls, total seconds and self seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.top_s = 0.0                   # time inside outermost spans
        self._open: list[float] = []       # child seconds of each open span
        self._bound: list[tuple] = []      # (owner, attr, original)

    def count(self, name: str, by: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def wrap(self, name, fn, on_result=None):
        """`fn` inside a span called `name`, or `name(args)` if callable.

        The wrapper returns fn's value and re-raises its exceptions; the
        span is recorded either way.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            self._open.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                child = self._open.pop()
                rec = self.spans.setdefault(span, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - child
                if self._open:
                    self._open[-1] += duration
                else:
                    self.top_s += duration
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._bound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced name; raise LookupError on a stale table."""
        if self._bound:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = {m: _module(m) for m in MODULES}
        originals = {}
        for span, importers in FUNCTIONS.items():
            home, attr = span.split(".")
            original = getattr(modules[home], attr)
            originals[id(original)] = span
            wrapped = self.wrap(span, original, ON_RESULT.get(span))
            for m in (home, *importers):
                if getattr(modules[m], attr, None) is not original:
                    raise LookupError(
                        f"compocode.{m}.{attr} is not {span}: update "
                        "FUNCTIONS in tracer.py")
                self._rebind(modules[m], attr, wrapped)
        for span, attr in METHODS.items():
            home, cls_name, _ = span.split(".")
            cls = getattr(modules[home], cls_name)
            if attr not in vars(cls):
                raise LookupError(f"{cls.__qualname__}.{attr} is missing: "
                                  "update METHODS in tracer.py")
            self._rebind(cls, attr, self.wrap(span, vars(cls)[attr]))
        self._rebind(modules["cli"], "main",
                     self.wrap(_cli_span, modules["cli"].main))
        for m, module in modules.items():
            for key, value in vars(module).items():
                if id(value) in originals:
                    raise LookupError(
                        f"compocode.{m}.{key} binds {originals[id(value)]} "
                        "untraced: add it to FUNCTIONS in tracer.py")

    def uninstall(self) -> None:
        while self._bound:
            owner, attr, original = self._bound.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
