"""Command-line front end: encode, compose, corrupt, decode, sim.

Text-first I/O: codewords and info words are bit strings, multisets use the
serialize/parse format.  Every output file gets a JSON run manifest written
next to it (<output>.manifest.json); with stdout output the manifest goes to
stderr.  Exit codes are stable API: 0 ok, 2 bad parameters, 3 malformed
input, 4 decode failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys

from . import __version__
from .channel import REGISTRY, ErrorModel, build_scheme, corrupt, run_trials
from .compositions import (
    CompositionMultiset,
    CorruptedInput,
    check_bits,
    parse,
    serialize,
)

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_INPUT = 3
EXIT_DECODE = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read_input(args) -> str:
    try:  # bytes the text encoding cannot decode are malformed input too
        if not args.input:
            return sys.stdin.read()
        with open(args.input) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(EXIT_INPUT,
                       f"cannot read {args.input or 'stdin'}: {e}") from e


def _emit(args, text: str, manifest: dict) -> None:
    manifest["output_digest"] = _digest(text)
    if args.output:
        for path, body in ((args.output, text), (args.output + ".manifest.json",
                           json.dumps(manifest, indent=2, sort_keys=True) + "\n")):
            try:
                with open(path, "w") as f:
                    f.write(body)
            except OSError as e:
                raise CliError(EXIT_PARAMS, f"cannot write {path}: {e}") from e
    else:
        sys.stdout.write(text)
        print(json.dumps(manifest, sort_keys=True), file=sys.stderr)


def _manifest(args, extra: dict | None = None) -> dict:
    m = {"command": " ".join(args.argv), "version": __version__}
    for key in ("scheme", "k", "t", "seed", "model", "errors", "trials"):
        if hasattr(args, key) and getattr(args, key) is not None:
            m[key] = getattr(args, key)
    if extra:
        m.update(extra)
    return m


def _scheme(args):
    try:
        return build_scheme(args.scheme, args.k, args.t)
    except ValueError as e:
        raise CliError(EXIT_PARAMS, str(e)) from e


def _parse_bits(text: str) -> str:
    bits = text.strip()
    try:
        check_bits(bits)
    except ValueError as e:
        raise CliError(EXIT_INPUT, f"malformed bit string: {e}") from e
    return bits


def _parse_multiset(text: str) -> CompositionMultiset:
    try:
        return parse(text)
    except CorruptedInput as e:
        raise CliError(EXIT_INPUT, f"malformed multiset file: {e}") from e


def cmd_encode(args) -> int:
    code = _scheme(args)
    info = _parse_bits(_read_input(args))
    if len(info) != args.k:
        raise CliError(EXIT_INPUT,
                       f"info length {len(info)} does not match --k {args.k}")
    s = code.encode(info)
    manifest = _manifest(args, {"n": len(s), "redundancy": len(s) - args.k,
                                "input_digest": _digest(info)})
    _emit(args, s + "\n", manifest)
    return EXIT_OK


def cmd_compose(args) -> int:
    s = _parse_bits(_read_input(args))
    from .compositions import compose_all
    text = serialize(compose_all(s))
    _emit(args, text, _manifest(args, {"n": len(s),
                                       "input_digest": _digest(s)}))
    return EXIT_OK


def cmd_corrupt(args) -> int:
    text = _read_input(args)
    c = _parse_multiset(text)
    kind = {"asym": "asymmetric", "sym": "symmetric"}[args.model]
    try:
        out, log = corrupt(c, ErrorModel(kind, args.errors),
                           random.Random(args.seed), args.adversarial)
    except ValueError as e:
        raise CliError(EXIT_PARAMS, str(e)) from e
    manifest = _manifest(args, {
        "n": c.n, "input_digest": _digest(text),
        "error_log": [list(e) for e in log]})
    _emit(args, serialize(out), manifest)
    return EXIT_OK


def cmd_decode(args) -> int:
    code = _scheme(args)
    text = _read_input(args)
    c = _parse_multiset(text)
    try:
        info = code.decode(c)
        if not code.verify(info, c):
            raise CliError(
                EXIT_DECODE,
                "re-encode verification failed: output does not explain "
                "the observed multiset within the error budget")
    except ValueError as e:
        raise CliError(EXIT_DECODE, f"decode failed: {e}") from e
    manifest = _manifest(args, {"n": c.n, "input_digest": _digest(text),
                                "verified": True})
    _emit(args, info + "\n", manifest)
    return EXIT_OK


def cmd_sim(args) -> int:
    kind = {"asym": "asymmetric", "sym": "symmetric"}[args.model]
    try:
        model = ErrorModel(kind, args.errors)
        report = run_trials(args.scheme, {"k": args.k, "t": args.t}, model,
                            args.trials, seed=args.seed)
    except ValueError as e:
        raise CliError(EXIT_PARAMS, str(e)) from e
    if args.format == "json":
        text = report.to_json() + "\n"
    else:
        text = report.csv_header() + "\n" + report.to_csv_row() + "\n"
    _emit(args, text, _manifest(args, {"success_rate": report.success_rate}))
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parse_args keeps no
    state, so every main() call shares it."""
    ap = argparse.ArgumentParser(
        prog="compocode",
        description="encode, corrupt, and decode strings observed as "
                    "composition multisets")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, scheme=True):
        p.add_argument("--input", help="input file (default: stdin)")
        p.add_argument("--output", help="output file (default: stdout)")
        if scheme:
            p.add_argument("--scheme", required=True, choices=tuple(REGISTRY))
            p.add_argument("--k", type=int, required=True,
                           help="information length")
            p.add_argument("--t", type=int, default=0,
                           help="error-correction radius")

    p = sub.add_parser("encode", help="info bits -> codeword")
    common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("compose", help="codeword -> multiset file")
    common(p, scheme=False)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("corrupt", help="inject composition errors")
    common(p, scheme=False)
    p.add_argument("--model", required=True, choices=("asym", "sym"))
    p.add_argument("--errors", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--adversarial", action="store_true",
                   help="maximize the weight change of each error")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("decode", help="multiset file -> info bits")
    common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sim", help="run seeded decode-rate trials")
    common(p)
    p.add_argument("--model", required=True, choices=("asym", "sym"))
    p.add_argument("--errors", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sim)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv  # the manifests' command
    for name, least in (("k", 1), ("t", 0), ("errors", 0), ("trials", 0)):
        if getattr(args, name, least) < least:
            print(f"error: --{name} must be >= {least}", file=sys.stderr)
            return EXIT_PARAMS
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
