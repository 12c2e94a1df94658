"""Command-line surface: vdw, check1d, construct, verify, gen.

Every output document starts with a ``# runconfig`` header echoing the
full configuration; re-running a command with that configuration
reproduces the document byte for byte.  ``--workers`` is validated and
echoed but changes neither speed nor output.

Each command imports only the modules it runs: ``vdw`` loads the
pure-Python search alone and never numpy, ``gen`` neither the certificate
nor the pipeline, and ``verify`` not the pipeline.  The commands read the
library names they call as attributes of this module, so a caller may
patch them here.

Exit codes: 0 success, 1 negative verdict, 2 budget exhausted,
3 precondition failure, 64 usage error, 70 internal error.
"""

from __future__ import annotations

import argparse
import sys

from . import KINDS
from .vdw import DEFAULT_BUDGET, BudgetExhaustedError, dump_vdw_result, vdw_number

# the library names the commands call, read as attributes of this module
# through ``_lib`` and bound here from the package on first use
_LAZY = frozenset({
    "ConstructionError", "RefusalError", "Scale", "dump_window1d", "fg_construct",
    "gen_example", "is_ps_at_scale", "load_window1d", "parse", "serialize", "verify_fg",
})


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


_lib = sys.modules[__name__]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_PRECONDITION = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="syndetic", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--out", default="-", help="output path, - for stdout")

    sp = sub.add_parser("vdw", help="compute a van der Waerden number")
    sp.add_argument("colors", type=int)
    sp.add_argument("terms", type=int)
    common(sp)

    sp = sub.add_parser("check1d", help="piecewise-syndeticity check at one scale")
    sp.add_argument("input")
    sp.add_argument("radius", type=int)
    sp.add_argument("length", type=int)
    common(sp)

    sp = sub.add_parser("construct", help="run the pipeline, emit a certificate")
    sp.add_argument("input")
    sp.add_argument("radius", type=int)
    sp.add_argument("steps", type=int)
    sp.add_argument("--r2d", type=int, default=None)
    sp.add_argument("--min-scale", type=int, default=1)
    common(sp)

    sp = sub.add_parser("verify", help="re-check a certificate against its input")
    sp.add_argument("cert")
    sp.add_argument("input")
    common(sp)

    sp = sub.add_parser("gen", help="write a generated example set")
    sp.add_argument("kind", choices=KINDS)
    sp.add_argument("--window", type=int, nargs=2, required=True, metavar=("LO", "HI"))
    sp.add_argument("--period", type=int)
    sp.add_argument("--residues", type=str, help="comma-separated, e.g. 0,2")
    sp.add_argument("--block", type=int)
    sp.add_argument("--gap", type=int)
    sp.add_argument("--density", type=float)
    common(sp)

    return p


def _header(args, keys: list[str]) -> str:
    parts = [f"{k}={getattr(args, k.replace('-', '_'))}" for k in keys]
    parts += [f"seed={args.seed}", f"budget={args.budget}", f"workers={args.workers}",
              f"out={args.out}"]
    return f"# runconfig {args.command} " + " ".join(parts) + "\n"


def _emit(args, doc: str) -> None:
    if args.out == "-":
        sys.stdout.write(doc)
    else:
        with open(args.out, "w", newline="") as f:
            f.write(doc)


def _load_set(path: str):
    with open(path) as f:
        return _lib.load_window1d(f.read())


def _cmd_vdw(args) -> int:
    res = vdw_number(args.colors, args.terms, args.budget)
    doc = _header(args, ["colors", "terms"]) + dump_vdw_result(res)
    _emit(args, doc)
    return EXIT_OK if res.exhaustive else EXIT_BUDGET


def _cmd_check1d(args) -> int:
    s = _load_set(args.input)
    witness = _lib.is_ps_at_scale(s, _lib.Scale(args.radius, args.length))
    head = _header(args, ["input", "radius", "length"])
    if witness is None:
        _emit(args, head + "ABSENT\n")
        return EXIT_NEGATIVE
    _emit(args, head + f"witness {witness.start}\n")
    return EXIT_OK


def _cmd_construct(args) -> int:
    s = _load_set(args.input)
    try:
        cert = _lib.fg_construct(
            s,
            args.radius,
            args.steps,
            radius_2d=args.r2d,
            budget=args.budget,
            min_length=args.min_scale,
        )
    except _lib.ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    head = _header(args, ["input", "radius", "steps", "r2d", "min_scale"])
    _emit(args, head + _lib.serialize(cert))
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.cert) as f:
        cert = _lib.parse(f.read())
    s = _load_set(args.input)
    head = _header(args, ["cert", "input"])
    try:
        verdict = _lib.verify_fg(cert, s, vdw_budget=args.budget)
    except _lib.RefusalError as exc:
        _emit(args, head + f"REFUSED {exc}\n")
        return EXIT_PRECONDITION
    lines = [head]
    if verdict.passed:
        lines.append("PASS\n")
    else:
        lines.append(f"FAIL {verdict.failed_claim}\n")
        lines.append(f"detail {verdict.detail}\n")
    for note in verdict.notes:
        lines.append(f"note {note}\n")
    _emit(args, "".join(lines))
    return EXIT_OK if verdict.passed else EXIT_NEGATIVE


def _cmd_gen(args) -> int:
    params: dict = {"window": (args.window[0], args.window[1])}
    for name in ("period", "block", "gap", "density"):
        if (value := getattr(args, name)) is not None:
            params[name] = value
    if args.residues is not None:
        try:
            params["residues"] = [int(r) for r in args.residues.split(",") if r != ""]
        except ValueError:
            raise ValueError(f"malformed residue list {args.residues!r}") from None
    s = _lib.gen_example(args.kind, params, args.seed)

    def show(v):
        return ",".join(str(x) for x in v) if isinstance(v, list) else v

    header = _header(args, ["kind"]).rstrip("\n")
    given = [
        f"window={args.window[0]}:{args.window[1]}",
        *(f"{k}={show(v)}" for k, v in sorted(params.items()) if k != "window"),
    ]
    doc = header + " " + " ".join(given) + "\n" + _lib.dump_window1d(s)
    _emit(args, doc)
    return EXIT_OK


_DISPATCH = {
    "vdw": _cmd_vdw,
    "check1d": _cmd_check1d,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, MemoryError, OSError) as exc:
        # every allocation here is sized by an argument or an input
        # document, so a request too large to allocate is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
    except Exception as exc:
        # a failure main() does not map is a fault of the program, never a
        # verdict on the input
        import traceback

        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        code = EXIT_INTERNAL
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
