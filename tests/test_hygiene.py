"""Package-wide rules checked over the source itself."""

import ast
import importlib.util
import itertools
import os
import pkgutil
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import compocode
from compocode import asym, backtrack, fields, sym
from compocode.catalan import sr_decode, sr_encode, sr_size
from compocode.channel import ErrorModel, build_scheme, corrupt
from compocode.compositions import compose_all, sigma_of_string

PACKAGE_DIR = Path(compocode.__file__).parent


def test_importing_every_module_loads_no_sympy():
    modules = [f"compocode.{m.name}" for m in pkgutil.iter_modules([str(PACKAGE_DIR)])]
    code = "; ".join(f"import {m}" for m in modules) + \
        "; import sys; print('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_source_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("modules, absent", [
    # the set-up of error-free reconstruction: numpy costs more to import
    # than that whole set-up takes
    (("compocode.channel", "compocode.backtrack", "compocode.catalan"),
     ("numpy",)),
    # the registry imports each scheme's modules only when it is built
    (("compocode.cli",), ("compocode.sym", "compocode.asym")),
], ids=["recon-setup-no-numpy", "cli-no-scheme-modules"])
def test_cold_start_imports_stay_lazy(modules, absent):
    code = "; ".join(f"import {m}" for m in modules) + \
        f"; import sys; print([m for m in {absent!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


CLI_PARSERS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from compocode import cli
counts = [len(built)]
for _ in range(2):
    try:
        cli.main(["encode", "--k", "x"])
    except SystemExit:
        pass
    counts.append(len(built))
print(counts)
"""


def test_cli_builds_its_parser_once_on_first_use():
    # importing the CLI builds no parser; the first main() builds the parser
    # and its five subcommand parsers, and later calls reuse them
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", CLI_PARSERS], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[0, 6, 6]"


TRIAL = """
import random, sys
from compocode.channel import ErrorModel, build_scheme, corrupt
name, k, t, kind, errors = sys.argv[1:]
code = build_scheme(name, int(k), int(t))
rng = random.Random(1)
info = "".join(rng.choice("01") for _ in range(int(k)))
c, _ = corrupt(code.observe(code.encode(info)), ErrorModel(kind, int(errors)),
               rng)
got = code.decode(c)
print(got == info, code.verify(got, c), "numpy" in sys.modules)
"""


def run_trial(*argv):
    """One trial of a scheme in a fresh interpreter: whether it decoded,
    whether verify agreed, and whether numpy was loaded."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", TRIAL, *map(str, argv)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return out.split()


def test_recon_trial_loads_no_numpy():
    # a lazy import inside compose or the search would pass the import-only
    # check above, yet cost recon its memory and start-up time on first use
    assert run_trial("recon", 64, 0, "asymmetric", 0) == ["True", "True", "False"]


@pytest.mark.parametrize("argv, numpy_loaded", [
    (("asym1", 64, 0, "asymmetric", 1), "False"),
    (("asym-t", 64, 3, "asymmetric", 3), "False"),
    # the GF(q) grids, sparse interpolation and BCH code of sym-poly are
    # numpy's only users
    (("sym-poly", 8, 1, "symmetric", 1), "True"),
], ids=["asym1", "asym-t", "sym-poly"])
def test_only_sym_poly_trials_load_numpy(argv, numpy_loaded):
    assert run_trial(*argv) == ["True", "True", numpy_loaded]


ASYM1_CLI = """
import sys
from compocode import cli
info, cw, ms, bad = sys.argv[1:]
params = ["--scheme", "asym1", "--k", "5"]
for argv in (["encode", *params, "--input", info, "--output", cw],
             ["compose", "--input", cw, "--output", ms],
             ["corrupt", "--model", "asym", "--errors", "1", "--seed", "1",
              "--input", ms, "--output", bad],
             ["decode", *params, "--input", bad]):
    print(cli.main(argv))
print("numpy" in sys.modules)
"""


def test_asym1_cli_decode_loads_no_numpy(tmp_path):
    files = [tmp_path / f for f in ("info.txt", "cw.txt", "ms.txt", "bad.txt")]
    files[0].write_text("10110")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", ASYM1_CLI, *map(str, files)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.split() == ["0", "0", "0", "10110", "0", "False"]


def load_bench_module(name):
    # bench/ is not a package and is not collected by this suite
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_binds_every_traced_function():
    # the tracer fails to install when a module drops or adds a by-name
    # import of a function it traces
    tracer = load_bench_module("tracer")
    t = tracer.Tracer()
    t.install()
    t.uninstall()


def test_sr_decode_failures_are_classified_by_the_bench():
    # the bench counts a bare ValueError as a decode failure only by its
    # message, so every non-codeword must raise one the bench recognises
    workloads = load_bench_module("workloads")
    messages = set()
    for n in range(3, 13):
        for t in range(3):
            try:
                k = sr_size(n, t).bit_length() - 1
            except ValueError:
                k = 1  # no shift-t code of length n: nothing is a member
            if k < 1:
                continue  # a one-word codebook carries no info bit
            for tup in itertools.product("01", repeat=n):
                s = "".join(tup)
                try:
                    info = sr_decode(s, k, t)
                except ValueError as e:
                    assert workloads.is_decode_failure(e), (s, t, e)
                    messages.add(str(e).split(":")[0])
                    continue
                assert sr_encode(info, t, n) == s, (s, t)
    assert messages == {"membership violation",
                        "codeword outside the 2^k information range"}


def count_catalan_combs(monkeypatch):
    """The (n, k) pairs of every catalan.comb call from here on."""
    from compocode import catalan
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return comb(a, b)

    comb = catalan.comb
    monkeypatch.setattr(catalan, "comb", counting)
    return calls


def codeword_1024():
    """A k = 1,024 info word and its codeword."""
    rng = random.Random(1)
    info = "".join(rng.choice("01") for _ in range(1024))
    return info, sr_encode(info)


def test_sr_decode_walks_the_codeword_once(monkeypatch):
    # membership and rank share one pass, the block offsets are read, not
    # summed, and the walks over the I mask and the CB string carry their
    # binomials by ratio: a few binomials per decode, at any k
    info, s = codeword_1024()
    calls = count_catalan_combs(monkeypatch)
    assert sr_decode(s, 1024) == info
    assert len(calls) <= 8


def test_sr_encode_reads_its_block_offsets(monkeypatch):
    # the 1-count block is a lookup in the cumulative table, cb_unrank
    # steps its block bounds C(m-1, i) by ratio, and the walks carry their
    # binomials: a few binomials per encode, at any k
    info, s = codeword_1024()
    calls = count_catalan_combs(monkeypatch)
    assert sr_encode(info) == s
    assert len(calls) <= 8


def counting(calls, name, fn):
    """fn, counting each call in calls[name]."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_no_decoder_calls_an_encoder(monkeypatch):
    # the systematic decoders return the whole corrected codeword, so the
    # t-error decoders never re-encode what they just decoded
    calls = Counter()
    monkeypatch.setattr(asym, "ternary_erasure_encode",
                        counting(calls, "ternary", asym.ternary_erasure_encode))
    monkeypatch.setattr(fields.BCHCode, "encode",
                        counting(calls, "bch", fields.BCHCode.encode))
    rng = random.Random(28)
    info = "".join(rng.choice("01") for _ in range(16))
    c, _ = corrupt(compose_all(asym.st_encode(info, 2)),
                   ErrorModel("asymmetric", 2), rng)
    u = sr_encode(info[:8], 0)
    obs, _ = corrupt(sym.DeltaObservation(sym.etn_encode(u, 1)),
                     ErrorModel("symmetric", 1), rng)
    calls.clear()
    assert asym.st_decode(c, 16, 2) == info
    assert sym.etn_decode(obs, 1) == u
    assert calls == {}


def test_ternary_erasure_encode_stays_within_its_field_call_bound(monkeypatch):
    # the barycentric weights and l(x) come from prefix sums of Zech logs, so
    # only the sum over the K nodes adds in the field, once per node and
    # check symbol; pairwise weights made more than 300,000 calls here
    calls = Counter()
    for name in ("add", "sub", "mul", "inv"):
        monkeypatch.setattr(fields.GF, name,
                            counting(calls, name, getattr(fields.GF, name)))
    # 2,055 sigma digits and 9 check symbols: asym-t at k = 4,096, t = 3
    msg_len, n_era = 2055, 9
    e = fields.ternary_field_params(msg_len, n_era)
    N = -(-msg_len // e) + n_era
    assert N == 343 + n_era
    rng = random.Random(32)
    fields.ternary_erasure_encode([rng.randrange(3) for _ in range(msg_len)],
                                  n_era)
    assert 0 < sum(calls.values()) <= 8 * N * n_era


def test_no_verify_calls_a_decoder(monkeypatch):
    # verify re-encodes info and measures how far obs lies from its
    # codewords, so the check never reruns the decoder it checks
    def refuse(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"verify ran {name}")
        return raising

    for module, name in ((backtrack, "reconstruct_unique"),
                         (backtrack, "tolerant_reconstruct"),
                         (asym, "s1_reconstruct"), (sym, "etn_decode"),
                         (sym, "catalan_code_decode_bruteforce")):
        monkeypatch.setattr(module, name, refuse(name))
    rng = random.Random(29)
    # scheme -> (k, t, the channel it corrects)
    for name, (k, t, model) in {
            "recon": (8, 0, ErrorModel("asymmetric", 0)),
            "asym1": (8, 0, ErrorModel("asymmetric", 1)),
            "asym-t": (8, 2, ErrorModel("asymmetric", 2)),
            "sym-poly": (6, 1, ErrorModel("symmetric", 1)),
            "sym-catalan": (3, 1, ErrorModel("symmetric", 1))}.items():
        code = build_scheme(name, k, t)
        info = "".join(rng.choice("01") for _ in range(k))
        obs, _ = corrupt(code.observe(code.encode(info)), model, rng)
        assert code.verify(info, obs), name


def test_sym_poly_decode_grids_no_string_term_by_term(monkeypatch):
    # a string's P goes on the grid by runs (fields.prefix_grid): one
    # monomial per one of the codeword, not one per prefix; other calls get
    # the error delta or one-term shifts
    sizes = []

    def counting(xe, ye, R, field, mult=None):
        sizes.append(len(xe))
        return grid(xe, ye, R, field, mult)

    grid = fields.monomial_grid
    monkeypatch.setattr(fields, "monomial_grid", counting)
    monkeypatch.setattr(sym, "monomial_grid", counting)
    rng = random.Random(29)
    info = "".join(rng.choice("01") for _ in range(12))
    s = sym.etn_encode_info(info, 2)
    assert len(s) == 18628
    obs, _ = corrupt(sym.DeltaObservation(s), ErrorModel("symmetric", 2), rng)
    terms = sum(map(len, obs.delta.values()))
    runs = s.count("1") + 1
    assert 0 < terms and runs < len(s) // 8
    sizes.clear()
    assert sym.etn_decode_info(obs, 12, 2) == info
    assert sizes and max(sizes) <= max(terms, runs)


@pytest.mark.parametrize("k, t", [(12, 2), (40, 1), (256, 2)])
def test_sym_poly_decode_reads_one_level_per_ambiguous_payload_pair(
        monkeypatch, k, t):
    # the known shell and the payload pairs with sigma 0 or 2 are set
    # without a level; a payload pair k (0-based) with sigma 1 reads level
    # n - k - 1 once
    levels = []
    read = sym.DeltaObservation.level_counts

    def recording(self, l):
        levels.append(l)
        return read(self, l)

    monkeypatch.setattr(sym.DeltaObservation, "level_counts", recording)
    rng = random.Random(35)
    for _ in range(10):
        info = "".join(rng.choice("01") for _ in range(k))
        s = sym.etn_encode_info(info, t)
        n, half = len(s), sym.poly_params_from_length(len(s), t).r_hat // 2
        sigma = sigma_of_string(s)
        obs, _ = corrupt(sym.DeltaObservation(s), ErrorModel("symmetric", t), rng)
        levels.clear()
        assert sym.etn_decode(obs, t) == s[half:n - half]
        assert levels == [n - k - 1 for k in range(half, n // 2) if sigma[k] == 1]
