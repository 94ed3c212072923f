"""compocode benchmark: one seeded closed-loop workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload recon-k256 --seed 1 --seconds 25 --trace 0

One client in one process, no threads: each op starts when the previous
one has finished.  With `--trace 0` the run prints the end-to-end metrics;
with `--trace 1` a separate traced run prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
summary.  Exit code 0 on a finished run, 2 when the package source is
missing, and a traceback for any error that is not a declared decode
failure.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")

import tracer  # noqa: E402
import workloads  # noqa: E402

WARMUP_OPS = 2    # fill the package's parameter caches before timing
DIGEST_OPS = 8    # the digest covers ops 0..7, which every run performs
SETUP_RUNS = 5    # fresh interpreters per setup_s median
IMPORT_RUNS = 3   # fresh interpreters per cli.import_ms median
REPEATS = 2       # runs of each timed op; the shortest counts
# The reference kernel's time on an uncontended 2-core x86-64 VM with
# Python 3.11 (see README.md, "Machine-speed scaling").
REF_KERNEL_S = 0.8e-3

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# spans whose calls per op are reported as well as their self time
CALL_COUNTS = ("compositions.compose_all", "fields.sparse_interpolate",
               "sym.DeltaObservation.sym_eval",
               "sym.DeltaObservation.level_counter")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for span in tracer.span_names():
        if span.startswith("cli."):
            out.append((f"{span}_ms", "ms", "lower"))
            continue
        if span in CALL_COUNTS:
            out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_ms", "ms", "lower"))
    out += [("backtrack.backtracks", "count", "lower"),
            ("backtrack.guesses", "count", "lower")]
    out += [(f"cli.import_ms{part}", "ms", "lower")
            for part in ("", ".sympy", ".numpy", ".other")]
    out += [("trace.op_ms", "ms", "lower"),
            ("trace.unattributed_ms", "ms", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


class Tally:
    """Correctness, failures and the determinism digest over a run's ops."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.causes: dict[str, int] = {}
        self.rows: dict[int, tuple[str, str]] = {}  # i -> (inputs, outputs)

    def run(self, i: int) -> float:
        """Run op i, check it, and return its duration in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            sent, got, log = self.workload.op(i)
        except (ValueError, workloads.CliDecodeFailure) as e:
            duration = time.perf_counter() - start
            if not workloads.is_decode_failure(e):
                raise
            self._fail(type(e).__name__)
            if i < DIGEST_OPS:
                self.rows[i] = ("", type(e).__name__)
            return duration
        duration = time.perf_counter() - start
        if got != sent:
            self.wrong += 1
            self._fail("wrong-output")
        if i < DIGEST_OPS:
            self.rows[i] = (f"{sent}:{log}", got)
        return duration

    def digests(self) -> tuple[str, str]:
        """sha256 prefixes of the inputs and the outputs of ops 0..7."""
        return tuple(
            hashlib.sha256("".join(f"{i}:{self.rows[i][part]}\n"
                                   for i in sorted(self.rows)).encode()
                           ).hexdigest()[:16]
            for part in (0, 1))

    def _fail(self, cause: str) -> None:
        self.failed += 1
        self.causes[cause] = self.causes.get(cause, 0) + 1


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def reference_kernel() -> float:
    """Seconds a fixed pure-Python job takes on this machine right now.

    The job (nested lists, tuple keys, a dict) runs twice with the garbage
    collector off and the second run is timed, so its time follows how much
    CPU other tenants leave, not the state of the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            rows = [[j * i % 13 for j in range(40)] for i in range(300)]
            counts: dict = {}
            for row in rows:
                key = tuple(row[:5])
                counts[key] = counts.get(key, 0) + sum(row)
            elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed


def scaled(seconds: float, kernel_s: float) -> float:
    """A time measured while the kernel took kernel_s, at reference speed."""
    return seconds * REF_KERNEL_S / kernel_s


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median seconds from interpreter spawn to the first op done.

    Returns (scaled to reference speed, as measured).
    """
    samples, raw = [], []
    for _ in range(SETUP_RUNS):
        before = reference_kernel()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed),
             TMP_ROOT],
            capture_output=True, text=True, timeout=120, check=True)
        took = float(proc.stdout.split()[-1]) - start
        raw.append(took)
        samples.append(scaled(took, (before + reference_kernel()) / 2))
    return statistics.median(samples), statistics.median(raw)


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \| ( *)(\S+)$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split `-X importtime` output into compocode total, sympy, numpy (ms)."""
    total = 0.0
    parts = {"sympy": 0.0, "numpy": 0.0}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative_ms = int(m.group(2)) / 1000
        indent, name = len(m.group(3)), m.group(4)
        if indent == 0 and name.split(".")[0] == "compocode":
            total += cumulative_ms
        if name in parts and not parts[name]:
            parts[name] = cumulative_ms
    return {"cli.import_ms": total,
            "cli.import_ms.sympy": parts["sympy"],
            "cli.import_ms.numpy": parts["numpy"],
            "cli.import_ms.other": total - parts["sympy"] - parts["numpy"]}


def measure_import() -> dict[str, float]:
    """The CLI's import cost in a fresh interpreter: the median-total run."""
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import compocode.cli"],
            capture_output=True, text=True, timeout=120, check=True,
            env=_child_env())
        runs.append(parse_importtime(proc.stderr))
    runs.sort(key=lambda r: r["cli.import_ms"])
    return runs[len(runs) // 2]


def p90_rank(n: int) -> int:
    """Nearest rank of the 90th percentile among n samples (1-based)."""
    return max(1, -(-n * 9 // 10))


def op_metrics(durations: list[float]) -> dict[str, float]:
    durations = sorted(durations)
    return {"ops_per_s": len(durations) / sum(durations),
            "op_ms_p50": statistics.median(durations) * 1e3,
            "op_ms_p90": durations[p90_rank(len(durations)) - 1] * 1e3}


def run_untraced(workload, tally: Tally, seconds: float) -> tuple[dict, list]:
    """Ops for `seconds`, each timed and scaled by the kernel run after it.

    Each op runs REPEATS times in a row and keeps its shortest scaled time,
    which drops most stalls that hit the op but not the kernel after it.

    The metrics are at reference speed; the same figures as measured are
    returned under "wall." keys for the summary.
    """
    setup, setup_wall = measure_setup(workload.name, workload.seed)
    for i in range(WARMUP_OPS):
        tally.run(i)
    durations, kernels = [], []
    i = WARMUP_OPS
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or i < DIGEST_OPS:
        runs = [(tally.run(i), reference_kernel()) for _ in range(REPEATS)]
        d, k = min(runs, key=lambda run: scaled(*run))
        durations.append(d)
        kernels.append(k)
        i += 1
    metrics = op_metrics([scaled(d, k) for d, k in zip(durations, kernels)])
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics.update({f"wall.{k}": v for k, v in op_metrics(durations).items()})
    metrics["wall.setup_s"] = setup_wall
    metrics["wall.speed"] = REF_KERNEL_S / statistics.median(kernels)
    return metrics, durations


def run_traced(workload, tally: Tally, seconds: float) -> tuple[dict, list]:
    """A fixed number of ops, each run traced and untraced.

    The op count depends only on `seconds` and the workload, so call counts
    and backtrack counts repeat exactly for a seed.  Each op runs twice,
    alternating which run goes first, so drift in machine speed and the
    second run's warmer caches fall on both sides of `overhead_ratio`.
    """
    metrics = measure_import()
    for i in range(WARMUP_OPS):
        tally.run(i)
    n = max(DIGEST_OPS, round(seconds * workload.nominal_ops_per_s / 2))
    ops = range(WARMUP_OPS, WARMUP_OPS + n)
    t = tracer.Tracer()
    traced, untraced = [], []
    for i in ops:
        if i % 2:
            untraced.append(tally.run(i))
        with t.installed():
            traced.append(tally.run(i))
        if not i % 2:
            untraced.append(tally.run(i))
    for span in tracer.span_names():
        calls, _, self_s = t.spans.get(span, (0, 0.0, 0.0))
        if span.startswith("cli."):
            metrics[f"{span}_ms"] = self_s * 1e3 / n
            continue
        if span in CALL_COUNTS:
            metrics[f"{span}.calls"] = calls / n
        metrics[f"{span}.self_ms"] = self_s * 1e3 / n
    for name in ("backtrack.backtracks", "backtrack.guesses"):
        metrics[name] = t.counts.get(name, 0) / n
    metrics["trace.op_ms"] = sum(traced) * 1e3 / n
    metrics["trace.unattributed_ms"] = (sum(traced) - t.top_s) * 1e3 / n
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    return metrics, sorted(traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "compocode", "__init__.py")):
        print(f"error: no package source at {SRC}/compocode; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = workloads.make(args.workload, TMP_ROOT)
    tally = Tally(workload)
    workload.setup(args.seed)
    try:
        if args.trace:
            values, samples = run_traced(workload, tally, args.seconds)
            spec = per_layer_metrics()
        else:
            values, samples = run_untraced(workload, tally, args.seconds)
            spec = END_TO_END
    finally:
        workload.teardown()
        with contextlib.suppress(OSError):
            os.rmdir(TMP_ROOT)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in spec}
    width = max(len(name) for name, _, _ in spec)
    print(f"workload {workload.name} seed {args.seed} "
          f"trace {args.trace}: {len(samples)} timed ops, "
          f"{len(samples) - p90_rank(len(samples))} beyond p90")
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print("  as measured, without speed scaling: "
              + ", ".join(f"{k[5:]} {v:.6g}" for k, v in values.items()
                          if k.startswith("wall.")))
    print(f"  fail_ratio {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted}) causes {tally.causes}")
    inputs, outputs = tally.digests()
    print(f"  digest of ops 0..{DIGEST_OPS - 1}: inputs {inputs} "
          f"outputs {outputs}")
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
