"""Command line front end.

Subcommands: validate, rho, rho-inv, rectify, evacuate, eviction, expand,
check-qsym, verify.  Tableaux are read from a file argument or stdin, in the
canonical text format or the JSON format (auto-detected); ``--json`` writes
tableau output as JSON.  Exit codes: 0 success, 1 counterexample or failed
check, 2 invalid input, 64 usage error, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import os
import sys

# Every library name is read off the package, which loads a name's module on
# first access, so a call loads no module its subcommand does not use.
lib = sys.modules[__package__]

EX_OK = 0
EX_COUNTEREXAMPLE = 1
EX_INVALID_INPUT = 2
EX_USAGE = 64
EX_BROKEN_PIPE = 141  # 128 + SIGPIPE


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # ``type=int`` flags read their value with ctrect's one integer rule;
        # argparse still names the type ``int`` in its message.
        self.register("type", int, lib.parse_int)

    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        if path != "-":
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        # Stdin's bytes are read as a file's are, strict UTF-8 with universal
        # newlines: the text layer's encoding and error handler follow the
        # locale.  A stream with no bytes under it, as io.StringIO, is text.
        if sys.stdin is None:  # closed at start-up
            raise lib.ParseError("stdin: closed")
        stdin = getattr(sys.stdin, "buffer", None)
        if stdin is None:
            return sys.stdin.read()
        return stdin.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        source = "stdin" if path == "-" else path
        raise lib.ParseError(f"{source}: not UTF-8 text (byte {exc.start})") from None


def _read_tableau(path: str) -> lib.Filling:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return lib.filling_from_json(text)
    return lib.parse_filling(text)


def _emit_tableau(f: lib.Filling, as_json: bool) -> None:
    print(lib.filling_to_json(f) if as_json else lib.render_filling(f))


def _parse_parts(raw: str) -> tuple[int, ...]:
    try:
        parts = tuple(map(lib.parse_int, raw.split(",")))
    except ValueError:
        raise lib.ParseError(f"bad shape {raw!r}: expected comma-separated integers")
    if any(p < 1 for p in parts):
        raise lib.ParseError(f"bad shape {raw!r}: parts must be positive")
    return parts


def _parse_k_range(raw: str) -> tuple[int, int]:
    # A ValueError, not a ParseError: a bad flag is a usage error (exit 64).
    lo, sep, hi = raw.partition("..")
    try:
        k_lo, k_hi = map(lib.parse_int, (lo, hi) if sep else (raw, raw))
        ok = 1 <= k_lo <= k_hi
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"bad --k-range {raw!r}: expected A..B with 1 <= A <= B, or one K >= 1")
    return k_lo, k_hi


def _cmd_validate(args) -> int:
    f = _read_tableau(args.file)
    found = lib.violations(args.kind, f)
    if found:
        for v in found:
            print(v)
        return EX_INVALID_INPUT
    print(f"valid {args.kind}")
    return EX_OK


def _cmd_map(args) -> int:
    op = getattr(lib, args.command.replace("-", "_"))
    try:
        out = op(_read_tableau(args.file))
    except lib.InvalidTableauError:
        raise
    except ValueError as exc:  # e.g. an entry above evacuate's cell count: bad input, not usage
        raise lib.ParseError(str(exc)) from exc
    _emit_tableau(out, args.json)
    return EX_OK


def _cmd_rectify(args) -> int:
    if args.trace and args.json:
        raise ValueError("--json does not apply to --trace output")
    f = _read_tableau(args.file)
    if args.trace:
        steps = lib.phi_steps if args.kind == "ct" else lib.rectify_k_steps
        for label, state in steps(f, args.cells):
            print(f"== {label}")
            text = lib.render_filling(state)
            if text:
                print(text)
    elif args.kind == "ct":
        _emit_tableau(lib.phi(f, args.cells), args.json)
    else:
        result, traces = lib.rectify_k(f, args.cells)
        _emit_tableau(result, args.json)
        report = lib.shifting_entries(traces)
        for c in sorted(report):
            print(f"shift column {c}: {' '.join(str(e) for e in report[c])}", file=sys.stderr)
    return EX_OK


def _cmd_eviction(args) -> int:
    report = lib.eviction(_read_tableau(args.file), args.cells)
    for c in sorted(report):
        print(f"column {c}: {' '.join(str(e) for e in report[c])}")
    return EX_OK


def _cmd_expand(args) -> int:
    parts = _parse_parts(args.parts)
    if args.vars < 1:
        raise ValueError(f"--vars must be at least 1, got {args.vars}")
    expand = {"schur": lib.schur_expand, "msym": lib.monomial_sym_expand, "mqsym": lib.monomial_qsym_expand}
    try:
        poly = expand[args.basis](parts, args.vars)
    except ValueError as exc:  # e.g. a non-partition shape for schur/msym
        raise lib.ParseError(str(exc)) from exc
    text = lib.render_polynomial(poly)
    if text:
        print(text)
    return EX_OK


def _cmd_check_qsym(args) -> int:
    poly = lib.parse_polynomial(_read_text(args.file))
    qsym = lib.is_quasisymmetric(poly)
    print(f"quasisymmetric: {'true' if qsym else 'false'}")
    print(f"symmetric: {'true' if lib.is_symmetric(poly) else 'false'}")
    return EX_OK if qsym else EX_COUNTEREXAMPLE


def _cmd_verify(args) -> int:
    k_range = _parse_k_range(args.k_range) if args.k_range else None
    # --out is opened once before the sweep, so that an unwritable path fails
    # at once, and for appending, so that a run stopped before the write
    # leaves a file that was there as it was, and none that was not.
    created = args.out and not os.path.exists(args.out)
    if args.out:
        open(args.out, "a", encoding="utf-8").close()
    try:
        report = lib.run_property(
            args.property, args.max_cells, args.max_entry, k_range=k_range, jobs=args.jobs
        )
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    print(report.render())
    print(f"time: {report.seconds:.2f}s", file=sys.stderr)
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
            handle.write("\n")
    return EX_OK if report.ok else EX_COUNTEREXAMPLE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctrect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def tableau_command(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", nargs="?", default="-", help="tableau file, or - for stdin")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("validate", help="check a filling against one tableau family")
    p.add_argument("--kind", choices=lib.KINDS, required=True)
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_validate)

    tableau_command("rho", _cmd_map, "composition tableau -> reverse SSYT")
    tableau_command("rho-inv", _cmd_map, "reverse SSYT -> composition tableau")

    p = tableau_command("rectify", _cmd_rectify, "rectify k first-column cells")
    p.add_argument("--cells", type=int, default=1, metavar="K", help="number of first-column cells")
    p.add_argument("--kind", choices=("rssyt", "ct"), required=True)
    p.add_argument("--trace", action="store_true", help="print every intermediate diagram")

    tableau_command("evacuate", _cmd_map, "evacuation of a reverse SSYT")

    p = sub.add_parser("eviction", help="shifting entries via the eviction ordering")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--cells", type=int, default=1, metavar="K")
    p.set_defaults(func=_cmd_eviction)

    p = sub.add_parser("expand", help="expand a polynomial basis element")
    p.add_argument("basis", choices=("schur", "msym", "mqsym"))
    p.add_argument("parts", help="shape as comma-separated parts, e.g. 2,1")
    p.add_argument("--vars", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("check-qsym", help="test a polynomial file for quasisymmetry")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_check_qsym)

    p = sub.add_parser("verify", help="exhaustively check a property within bounds")
    # Not ``choices``: listing the names would load ``verify`` on every call.
    # ``run_property`` rejects an unknown name with the full list (exit 64).
    p.add_argument("--property", required=True)
    p.add_argument("--max-cells", type=int, required=True)
    p.add_argument("--max-entry", type=int, required=True)
    p.add_argument("--k-range", metavar="A..B", help="restrict k (default: 1..rows)")
    p.add_argument(
        "--jobs", type=int, help="at most this many worker processes (default: one per usable CPU)"
    )
    p.add_argument("--out", metavar="FILE", help="also write the report as JSON")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        if sys.stdout is None:  # closed at start-up: the output went nowhere
            return EX_BROKEN_PIPE
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  What is left to
        # write goes to devnull, and the status is a shell's for a process
        # killed by SIGPIPE, so a cut-off report is no success.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EX_BROKEN_PIPE
    except (lib.ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_INVALID_INPUT
    except lib.InvalidTableauError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return EX_INVALID_INPUT
    except lib.InvariantViolationError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EX_COUNTEREXAMPLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
