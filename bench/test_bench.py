"""The benchmark's own tests: tracer, failure classes, seeds, result line.

Run from the repository root:  python3 -m pytest -q bench
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that moves only when the test moves it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- tracer -----------------------------------------------------------------


def test_wrapper_returns_value_and_reraises():
    t = tracer.Tracer()
    value = object()
    assert t.wrap("ok", lambda a, b=1: (value, a, b))(3, b=4) == (value, 3, 4)

    def boom():
        raise KeyError("boom")
    with pytest.raises(KeyError, match="boom"):
        t.wrap("boom", boom)()
    assert t.spans["ok"][0] == 1 and t.spans["boom"][0] == 1
    assert t._open == []


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    wrapped_leaf = t.wrap("leaf", leaf)
    outer = t.wrap("outer", t.wrap("middle", middle))
    outer()
    calls, total, self_s = t.spans["middle"]
    assert (calls, total) == (1, 5.5)
    assert self_s == total - 2 * 2.0 == 1.5
    assert t.spans["leaf"] == [2, 4.0, 4.0]
    assert t.spans["outer"] == [1, 5.5, 0.0]
    assert t.top_s == 5.5


def test_every_traced_name_exists_where_listed():
    for span, importers in tracer.FUNCTIONS.items():
        home, attr = span.split(".")
        original = getattr(importlib.import_module(f"compocode.{home}"), attr)
        for m in importers:
            module = importlib.import_module(f"compocode.{m}")
            assert getattr(module, attr, None) is original, f"{m}.{attr}"
    for span, attr in tracer.METHODS.items():
        home, cls_name, _ = span.split(".")
        cls = getattr(importlib.import_module(f"compocode.{home}"), cls_name)
        assert attr in vars(cls), span
    assert callable(importlib.import_module("compocode.cli").main)


def test_install_rebinds_everywhere_and_uninstall_restores():
    modules = [importlib.import_module(f"compocode.{m}")
               for m in tracer.MODULES]
    before = [dict(vars(m)) for m in modules]
    t = tracer.Tracer()
    with t.installed():
        from compocode import asym, fields
        assert asym.ternary_erasure_decode is not \
            before[tracer.MODULES.index("asym")]["ternary_erasure_decode"]
        assert asym.ternary_erasure_decode.__wrapped__ is \
            before[tracer.MODULES.index("fields")]["ternary_erasure_decode"]
        assert fields.BCHCode.decode.__wrapped__ is not None
    assert [dict(vars(m)) for m in modules] == before
    assert not hasattr(fields.BCHCode.decode, "__wrapped__")


def test_install_fails_loudly_on_a_stale_table(monkeypatch):
    monkeypatch.setitem(tracer.FUNCTIONS, "compositions.compose_all",
                        ("backtrack",))  # channel's binding left out
    from compocode import channel, compositions
    original = compositions.compose_all
    with pytest.raises(LookupError, match="channel.compose_all"):
        tracer.Tracer().install()
    assert compositions.compose_all is original
    assert channel.compose_all is original


# -- failure classification -------------------------------------------------


def test_declared_decode_failures_exist():
    for module, name in workloads.DECODE_FAILURE_TYPES:
        cls = getattr(importlib.import_module(module), name)
        assert issubclass(cls, ValueError)
        assert workloads.is_decode_failure(cls("x"))


def test_sr_decode_non_codeword_is_a_decode_failure():
    from compocode.catalan import sr_decode
    with pytest.raises(ValueError) as info:
        sr_decode("1" * 20, 8, 0)
    assert workloads.is_decode_failure(info.value)


def test_programming_errors_are_not_decode_failures():
    assert not workloads.is_decode_failure(ValueError("k must be >= 1"))
    assert not workloads.is_decode_failure(IndexError("list index"))


def test_programming_error_aborts_the_run(monkeypatch):
    w = workloads.make("recon-k256", "")
    w.setup(1)
    monkeypatch.setattr(w, "op", lambda i: [][i])
    with pytest.raises(IndexError):
        run.Tally(w).run(0)


# -- seeds and determinism --------------------------------------------------


def _digests(seed):
    w = workloads.make("recon-k256", "")
    w.setup(seed)
    tally = run.Tally(w)
    for i in range(run.DIGEST_OPS):
        tally.run(i)
    assert tally.failed == 0 and tally.wrong == 0
    return tally.digests()


def test_digest_repeats_per_seed_and_inputs_change_with_it():
    first = _digests(1)
    assert _digests(1) == first
    assert _digests(2)[0] != first[0]


def test_cli_workload_keeps_files_inside_its_tmp_root(tmp_path):
    w = workloads.make("cli-asym1-k64", str(tmp_path))
    w.setup(3)
    sent, got, _ = w.op(0)
    assert sent == got
    assert os.listdir(tmp_path) == [f"cli-{os.getpid()}"]
    w.teardown()
    assert os.listdir(tmp_path) == []


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   compocode",
        "import time:      1000 |     200000 |     numpy",
        "import time:      2000 |     300000 |     sympy",
        "import time:       500 |     510000 |   compocode.fields",
        "import time:       400 |     520000 | compocode.cli",
        "import time:        50 |         50 | sympy.extra",
    ])
    assert run.parse_importtime(stderr) == {
        "cli.import_ms": 520.0, "cli.import_ms.sympy": 300.0,
        "cli.import_ms.numpy": 200.0, "cli.import_ms.other": 20.0}


# -- the result line --------------------------------------------------------


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-1])


def test_traced_run_adds_up_and_repeats(capsys):
    argv = ("--workload", "cli-asym1-k64", "--seed", "5", "--seconds", "0.1",
            "--trace", "1")
    first = _result(capsys, *argv)
    assert first["correct"] and first["failed"] == 0
    m = {k: v["value"] for k, v in first["metrics"].items()}
    assert list(m) == [name for name, _, _ in run.per_layer_metrics()]
    spans = sum(v for k, v in m.items()
                if k.endswith(".self_ms")
                or (k.startswith("cli.") and "import" not in k))
    assert spans + m["trace.unattributed_ms"] == pytest.approx(
        m["trace.op_ms"])
    assert m["fields.ternary_erasure_decode.self_ms"] == 0
    second = _result(capsys, *argv)
    exact = [k for k in m if k.endswith(".calls") or k.startswith("backtrack.b")
             or k == "backtrack.guesses"]
    assert exact
    assert {k: second["metrics"][k]["value"] for k in exact} == \
        {k: m[k] for k in exact}


def test_untraced_run_reports_end_to_end_metrics(capsys):
    result = _result(capsys, "--workload", "cli-asym1-k64", "--seed", "1",
                     "--seconds", "0.1", "--trace", "0")
    assert result["correct"] and result["attempted"] >= run.DIGEST_OPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {name: unit for name, unit, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_metrics_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(name, workloads.make(name, "").why) for name in workloads.NAMES]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.per_layer_metrics()


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recon-k256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""
