import io
import json
import os
import subprocess
import sys

import pytest

import compocode
from compocode.channel import REGISTRY
from compocode.cli import main
from compocode.compositions import compose_all, parse, serialize
from test_channel import flipping

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_encode_decode_roundtrip_recon(tmp_path, capsys, monkeypatch):
    info = "101001010101"
    inp = tmp_path / "info.txt"
    inp.write_text(info + "\n")
    cw = tmp_path / "cw.txt"
    code, _, _ = run(capsys, "encode", "--scheme", "recon", "--k", "12",
                     "--input", str(inp), "--output", str(cw))
    assert code == 0
    manifest = json.loads((tmp_path / "cw.txt.manifest.json").read_text())
    assert manifest["scheme"] == "recon" and manifest["k"] == 12
    ms = tmp_path / "ms.txt"
    code, _, _ = run(capsys, "compose", "--input", str(cw),
                     "--output", str(ms))
    assert code == 0
    code, out, _ = run(capsys, "decode", "--scheme", "recon", "--k", "12",
                       "--input", str(ms))
    assert code == 0 and out.strip() == info


def test_manifest_records_the_argv_main_parsed(tmp_path, capsys, monkeypatch):
    # an in-process caller's argv, not the host process's
    monkeypatch.setattr(sys, "argv", ["host", "--whatever"])
    inp = tmp_path / "info.txt"
    inp.write_text("1010\n")
    argv = ["encode", "--scheme", "recon", "--k", "4", "--input", str(inp),
            "--output", str(tmp_path / "cw.txt")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "cw.txt.manifest.json").read_text())
    assert manifest["command"] == " ".join(argv)


def test_compose_format_roundtrips(tmp_path, capsys):
    for s in ("010110", "00001111111", "01" * 15 + "1"):
        inp = tmp_path / "cw.txt"
        inp.write_text(s + "\n")
        code, out, _ = run(capsys, "compose", "--input", str(inp))
        assert code == 0
        assert parse(out) == compose_all(s)
        assert serialize(parse(out)) == out


def test_example_pipeline_from_fixtures(capsys):
    # the checked-in corrupted multisets decode back to the same info as
    # the clean codeword they came from
    code, clean_out, _ = run(capsys, "decode", "--scheme", "asym1", "--k",
                             "5", "--input",
                             os.path.join(FIXTURES, "example2_clean.txt"))
    assert code == 0
    for fx in ("example2_corrupted.txt", "example3_corrupted.txt"):
        code, out, _ = run(capsys, "decode", "--scheme", "asym1", "--k", "5",
                           "--input", os.path.join(FIXTURES, fx))
        assert code == 0 and out == clean_out


def test_corrupt_then_decode_asym_t(tmp_path, capsys):
    info = "1011001010"
    inp = tmp_path / "info.txt"
    inp.write_text(info)
    cw = tmp_path / "cw.txt"
    assert run(capsys, "encode", "--scheme", "asym-t", "--t", "2", "--k",
               "10", "--input", str(inp), "--output", str(cw))[0] == 0
    manifest = json.loads((tmp_path / "cw.txt.manifest.json").read_text())
    assert manifest["redundancy"] == manifest["n"] - 10
    ms = tmp_path / "ms.txt"
    assert run(capsys, "compose", "--input", str(cw),
               "--output", str(ms))[0] == 0
    bad = tmp_path / "bad.txt"
    code, _, _ = run(capsys, "corrupt", "--model", "asym", "--errors", "2",
                     "--seed", "7", "--input", str(ms), "--output", str(bad))
    assert code == 0
    log = json.loads((tmp_path / "bad.txt.manifest.json").read_text())
    assert len(log["error_log"]) == 2
    code, out, _ = run(capsys, "decode", "--scheme", "asym-t", "--t", "2",
                       "--k", "10", "--input", str(bad))
    assert code == 0 and out.strip() == info


def test_decode_over_budget_exits_4(tmp_path, capsys):
    info = "10110"
    inp = tmp_path / "info.txt"
    inp.write_text(info)
    cw = tmp_path / "cw.txt"
    run(capsys, "encode", "--scheme", "asym1", "--k", "5",
        "--input", str(inp), "--output", str(cw))
    ms = tmp_path / "ms.txt"
    run(capsys, "compose", "--input", str(cw), "--output", str(ms))
    bad = tmp_path / "bad.txt"
    run(capsys, "corrupt", "--model", "sym", "--errors", "3", "--seed", "1",
        "--input", str(ms), "--output", str(bad))
    code, out, err = run(capsys, "decode", "--scheme", "asym1", "--k", "5",
                         "--input", str(bad))
    # never a silently wrong answer: either a clean failure or the truth
    if code == 0:
        assert out.strip() == info
    else:
        assert code == 4 and "decode" in err


@pytest.mark.parametrize("scheme, t, k, message", [
    ("asym1", 0, 11, "length 17 does not match parameters"),
    ("asym1", 0, 20, "length 17 does not match parameters"),
    ("recon", 0, 4, "length 14 does not match parameters (7)"),
    ("sym-catalan", 1, 4, "length 26 does not match parameters (20)"),
], ids=["asym1-11", "asym1-20", "recon-4", "sym-catalan-4"])
def test_decode_rejects_a_multiset_of_another_length(tmp_path, capsys, scheme,
                                                      t, k, message):
    # an asym1 k = 10 codeword has n = 17; s1_params(11) = 23 and
    # s1_params(20) = 29.  The recon and sym-catalan rankers would read this
    # low-rank codeword as 0011; their decoders check the length first
    inp = tmp_path / "info.txt"
    inp.write_text("0000000011")
    cw, ms = tmp_path / "cw.txt", tmp_path / "ms.txt"
    params = ("--scheme", scheme, "--t", str(t))
    run(capsys, "encode", *params, "--k", "10", "--input", str(inp),
        "--output", str(cw))
    run(capsys, "compose", "--input", str(cw), "--output", str(ms))
    code, out, err = run(capsys, "decode", *params, "--k", str(k),
                         "--input", str(ms))
    assert code == 4 and out == ""
    assert message in err


def test_sym_catalan_cli_pipeline(tmp_path, capsys):
    info = "101"
    inp = tmp_path / "info.txt"
    inp.write_text(info)
    cw = tmp_path / "cw.txt"
    assert run(capsys, "encode", "--scheme", "sym-catalan", "--t", "1",
               "--k", "3", "--input", str(inp), "--output", str(cw))[0] == 0
    ms = tmp_path / "ms.txt"
    run(capsys, "compose", "--input", str(cw), "--output", str(ms))
    bad = tmp_path / "bad.txt"
    run(capsys, "corrupt", "--model", "sym", "--errors", "1", "--seed", "2",
        "--input", str(ms), "--output", str(bad))
    code, out, _ = run(capsys, "decode", "--scheme", "sym-catalan", "--t",
                       "1", "--k", "3", "--input", str(bad))
    assert code == 0 and out.strip() == info


def test_golden_sym_poly_codeword(capsys):
    # fixed systematic encoder output for the all-zero info word
    from compocode.sym import etn_encode_info
    with open(os.path.join(FIXTURES, "sym_poly_t1_k8_zero_info.txt")) as f:
        golden = f.read().strip()
    assert etn_encode_info("0" * 8, 1) == golden


def test_exit_codes(tmp_path, capsys):
    # unknown scheme -> argparse exits 2
    with pytest.raises(SystemExit) as ei:
        main(["encode", "--scheme", "nope", "--k", "4"])
    assert ei.value.code == 2
    # info length mismatch -> 3
    inp = tmp_path / "info.txt"
    inp.write_text("10")
    assert run(capsys, "encode", "--scheme", "recon", "--k", "5",
               "--input", str(inp))[0] == 3
    # malformed multiset -> 3
    bad = tmp_path / "bad.txt"
    bad.write_text("not a multiset\n")
    assert run(capsys, "decode", "--scheme", "recon", "--k", "5",
               "--input", str(bad))[0] == 3
    # t missing for a t-parameterized scheme -> 2
    inp2 = tmp_path / "i2.txt"
    inp2.write_text("1010")
    assert run(capsys, "encode", "--scheme", "asym-t", "--k", "4",
               "--input", str(inp2))[0] == 2
    # negative k -> 2
    assert run(capsys, "encode", "--scheme", "recon", "--k", "0",
               "--input", str(inp2))[0] == 2
    # negative error count -> 2, not a traceback
    ms = tmp_path / "ms.txt"
    ms.write_text(serialize(compose_all("0110100")))
    code, _, err = run(capsys, "corrupt", "--model", "asym", "--errors", "-1",
                       "--input", str(ms))
    assert code == 2 and err == "error: --errors must be >= 0\n"
    code, out, err = run(capsys, "sim", "--scheme", "recon", "--k", "4",
                         "--model", "asym", "--errors", "-1", "--trials", "1")
    assert code == 2 and out == "" and err == "error: --errors must be >= 0\n"


@pytest.mark.parametrize("argv, stdin, code, err", [
    (("encode", "--scheme", "recon", "--k", "4"), "10a1\n", 3,
     "error: malformed bit string: bit strings must consist of '0'/'1' "
     "characters\n"),
    (("sim", "--scheme", "asym-t", "--k", "4", "--t", "-1", "--model", "asym",
      "--errors", "1", "--trials", "1"), "", 2, "error: --t must be >= 0\n"),
    (("sim", "--scheme", "recon", "--k", "8", "--errors", "0", "--model", "asym",
      "--trials", "-3"), "", 2, "error: --trials must be >= 0\n"),
    (("encode", "--scheme", "recon", "--k", "0"), "10\n", 2,
     "error: --k must be >= 1\n"),
], ids=["bad-bit", "negative-t", "negative-trials", "zero-k"])
def test_declared_rejections_exit_with_their_codes(capsys, monkeypatch, argv,
                                                   stdin, code, err):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert run(capsys, *argv) == (code, "", err)


@pytest.mark.parametrize("unwritable", ["output", "manifest"])
def test_an_unwritable_output_exits_2(tmp_path, capsys, unwritable):
    # a missing directory for the output, or a directory in the manifest's
    # place: a bad parameter, not a traceback
    inp = tmp_path / "cw.txt"
    inp.write_text("0110100\n")
    out = tmp_path / "ms.txt"
    if unwritable == "output":
        out = tmp_path / "missing" / "ms.txt"
        bad = str(out)
    else:
        bad = str(out) + ".manifest.json"
        os.mkdir(bad)
    code, stdout, err = run(capsys, "compose", "--input", str(inp),
                            "--output", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {bad}: ") and \
        err.count("\n") == 1, err


def test_decode_exits_4_when_the_output_fails_verification(capsys, monkeypatch):
    # a decoder that returns the complement of the info word it found: the
    # re-encode check, not the decoder, rejects it
    monkeypatch.setitem(REGISTRY, "asym1", flipping(REGISTRY["asym1"]))
    assert run(capsys, "decode", "--scheme", "asym1", "--k", "5", "--input",
               os.path.join(FIXTURES, "example2_corrupted.txt")) == \
        (4, "", "error: re-encode verification failed: output does not "
         "explain the observed multiset within the error budget\n")


def test_sim_exits_2_when_the_channel_cannot_place_the_errors(tmp_path,
                                                             capsys):
    # corrupt's refusal is a parameter error, as in the corrupt command,
    # not a decode failure counted in the report
    msg = "error: not enough levels for the requested error count\n"
    ms = tmp_path / "ms.txt"
    ms.write_text(serialize(compose_all("011")))
    code, out, err = run(capsys, "corrupt", "--model", "asym", "--errors",
                         "50", "--input", str(ms))
    assert (code, out, err) == (2, "", msg)
    code, out, err = run(capsys, "sim", "--scheme", "recon", "--k", "1",
                         "--model", "asym", "--errors", "50", "--trials", "3",
                         "--format", "json")
    assert (code, out, err) == (2, "", msg)


UNDECODABLE = b"n=2\n1: 0 \xff\n2: 1\n"  # 0xff starts no UTF-8 sequence


@pytest.mark.parametrize("via", ["input", "stdin"])
def test_undecodable_input_exits_3(tmp_path, capsys, monkeypatch, via):
    # a byte the text encoding cannot decode makes the input malformed; a
    # strict UTF-8 stdin stands for a UTF-8 locale's
    argv = ["decode", "--scheme", "recon", "--k", "1"]
    if via == "input":
        bad = tmp_path / "bad.txt"
        bad.write_bytes(UNDECODABLE)
        argv += ["--input", str(bad)]
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(UNDECODABLE), encoding="utf-8", errors="strict"))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("old, new", [
    ("n=11", "n=1_1"), ("\n11: 7", "\n11: +7"), ("\n9: 5", "\n09: 5"),
    ("\n1: 0 0 0 0 1", "\n1: 0 0 0 0 \u0661")])
def test_decode_rejects_non_canonical_numbers(tmp_path, capsys, old, new):
    # int() reads each respelling as the number it replaces; the text format
    # spells every number one way, so the file is malformed
    with open(os.path.join(FIXTURES, "example2_clean.txt")) as f:
        text = f.read()
    assert old in text
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace(old, new, 1), encoding="utf-8")
    code, out, err = run(capsys, "decode", "--scheme", "asym1", "--k", "5",
                         "--input", str(bad))
    assert code == 3 and out == "" and "malformed multiset file" in err


def test_sim_determinism_and_formats(tmp_path, capsys):
    args = ["sim", "--scheme", "asym1", "--k", "6", "--model", "asym",
            "--errors", "1", "--trials", "12", "--seed", "42"]
    code, a, _ = run(capsys, *args)
    code2, b, _ = run(capsys, *args)
    assert code == code2 == 0 and a == b
    assert a.splitlines()[0].startswith("scheme,")
    code, j, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    rep = json.loads(j)
    assert rep["success_rate"] == 1.0 and rep["trials"] == 12


def test_sim_report_file_with_manifest(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _, _ = run(capsys, "sim", "--scheme", "recon", "--k", "8",
                     "--model", "sym", "--errors", "0", "--trials", "5",
                     "--seed", "1", "--output", str(out))
    assert code == 0
    assert out.exists() and (tmp_path / "report.csv.manifest.json").exists()
    manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
    assert manifest["success_rate"] == 1.0


def test_one_parameter_rule_for_sim_encode_and_decode(tmp_path, capsys):
    inp = tmp_path / "info.txt"
    inp.write_text("1010")
    sim = ("sim", "--model", "sym", "--errors", "0", "--trials", "3")
    # t = 0 is a bad parameter for asym-t and sym-poly, and any other t for
    # recon and asym1, in every command
    for scheme, t in (("asym-t", 0), ("sym-poly", 0), ("recon", 3), ("asym1", 5)):
        params = ("--scheme", scheme, "--k", "4", "--t", str(t))
        code, _, enc_err = run(capsys, "encode", *params, "--input", str(inp))
        assert code == 2 and enc_err.startswith(f"error: scheme {scheme}: ")
        code, out, sim_err = run(capsys, *sim, *params)
        assert code == 2 and out == "" and sim_err == enc_err
        code, _, dec_err = run(capsys, "decode", *params, "--input",
                               os.path.join(FIXTURES, "example2_clean.txt"))
        assert code == 2 and dec_err == enc_err
    # sym-catalan defines its t = 0 code, and every command runs it
    params = ("--scheme", "sym-catalan", "--k", "4", "--t", "0")
    cw = tmp_path / "cw.txt"
    assert run(capsys, "encode", *params, "--input", str(inp),
               "--output", str(cw))[0] == 0
    ms = tmp_path / "ms.txt"
    assert run(capsys, "compose", "--input", str(cw), "--output", str(ms))[0] == 0
    code, out, _ = run(capsys, "decode", *params, "--input", str(ms))
    assert code == 0 and out.strip() == "1010"
    code, out, _ = run(capsys, *sim, *params, "--format", "json")
    assert code == 0 and json.loads(out)["success_rate"] == 1.0


def run_fresh(argv, env):
    """Exit code and stderr of argv run alone by a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "compocode.cli", *argv],
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stderr


def outputs(path):
    """A command's output file and its manifest without the argv it records."""
    if not os.path.exists(path):
        return None
    with open(path) as f, open(path + ".manifest.json") as g:
        text, manifest = f.read(), json.load(g)
    del manifest["command"]
    return text, manifest


def test_the_shared_parser_leaks_nothing_between_calls(tmp_path, capsys,
                                                       monkeypatch):
    # one process runs the sequence on one parser; each command then runs
    # alone on the same inputs and must give the same files, stderr and code
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(compocode.__file__)))
    shared, alone = tmp_path / "shared", tmp_path / "alone"
    shared.mkdir()
    alone.mkdir()
    info = tmp_path / "info.txt"
    info.write_text("101100\n")
    asym1 = ("--scheme", "asym1", "--k", "6")
    corrupt = ("corrupt", "--model", "asym", "--errors", "1", "--seed", "3")
    steps = [
        ("cw", ("encode", *asym1, "--input", str(info))),
        ("ms", ("compose", "--input", str(shared / "cw"))),
        ("adv", (*corrupt, "--adversarial", "--input", str(shared / "ms"))),
        ("bad", (*corrupt, "--input", str(shared / "ms"))),
        ("err", ("corrupt", "--adversarial", "--model", "asym", "--errors",
                 "1", "--seed", "x", "--input", str(shared / "ms"))),
        ("sim", ("sim", "--scheme", "asym-t", "--k", "4", "--t", "2",
                 "--model", "asym", "--errors", "2", "--trials", "3")),
        ("out", ("decode", *asym1, "--input", str(shared / "bad"))),
        ("out-adv", ("decode", *asym1, "--input", str(shared / "adv"))),
    ]
    results = {}
    for name, argv in steps:
        try:
            code = main([*argv, "--output", str(shared / name)])
        except SystemExit as e:
            code = e.code
        results[name] = code, capsys.readouterr().err
    assert [code for code, _ in results.values()] == [0, 0, 0, 0, 2, 0, 0, 0]
    assert outputs(str(shared / "adv")) != outputs(str(shared / "bad"))
    for name, argv in steps:
        assert run_fresh([*argv, "--output", str(alone / name)], env) == \
            results[name], name
        assert outputs(str(alone / name)) == outputs(str(shared / name)), name
