"""Command-line surface: single brackets, tables, verification suites, transforms.

All behavior is controlled by flags (no environment variables) and every file
output is byte-reproducible: fixed sort orders, fixed key order, floats
rendered at 10 significant digits from the correctly rounded double.

Exit codes: 0 success, 1 validation error, 2 verification failure, 3 I/O error,
4 out of memory, 130 interrupted (Ctrl-C).
A KernelError (the oracle's kernel solve did not give a one-dimensional
kernel) or a SurdSumError (an exact sum left the sign * sqrt(rational)
domain) is a verification failure: exit 2 with an `error:` line.  A
MemoryError exits 4 and a KeyboardInterrupt exits 130, each with one line on
standard error and no traceback.
"""

from __future__ import annotations

import argparse
import sys

from .brackets import (
    Convention,
    bracket,
    bracket_pochhammer,
    barred_sign,
    table,
)
from .exactnum import DomainError, SurdSumError, SurdValue
from .fockoracle import KernelError
from .labels import LabelError, UnsupportedDimensionError
from .transform import OperatorSpec, deformed_matrix
from .verify import CLI_SUITES, run_cli_suite

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3
EXIT_MEMORY = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports an interrupted command


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _float_text(value: float) -> str:
    return format(value, ".10g")


def format_surd(value: SurdValue) -> str:
    """Human-readable line: exact form, then '=' rational or approximate float."""
    if value.is_zero:
        return "0"
    exact = value.render()
    rat = value.rational_value()
    if rat is not None:
        return f"{exact} = {rat}"
    return f"{exact} ≈ {_float_text(value.to_float())}"


def _surd_fields(value: SurdValue, approx: float) -> tuple[int, str, str, str]:
    """Sign, radicand numerator and denominator, and the text of approx = value.to_float()."""
    return (
        value.sign,
        str(value.radicand.numerator),
        str(value.radicand.denominator),
        _float_text(approx),
    )


def _entry_record(labels: str, value: SurdValue, approx: float) -> str:
    """One entry line of a format_version 1 document, its label fields first."""
    sign, num, den, flt = _surd_fields(value, approx)
    return (
        f'    {{{labels}, "sign": {sign}, '
        f'"radicand_num": "{num}", "radicand_den": "{den}", "float": {flt}}}'
    )


def _json_document(header: dict, records: list[str]) -> str:
    """The format_version 1 layout: the header's JSON values by key, then the entry records."""
    lines = ["{", f'  "format_version": {FORMAT_VERSION},']
    lines += [f'  "{key}": {value},' for key, value in header.items()]
    lines += ['  "entries": [', ",\n".join(records), "  ]", "}"]
    return "\n".join(lines) + "\n"


def render_table_json(tab) -> str:
    header = {"nu": tab.nu, "N": tab.N, "tau": tab.tau, "convention": f'"{tab.convention.value}"'}
    records = [
        _entry_record(f'"n": {n}, "sigma": {sigma}', tab.entries[i][j], tab.floats[i][j])
        for i, n in enumerate(tab.ns)
        for j, sigma in enumerate(tab.sigmas)
    ]
    return _json_document(header, records)


def render_table_csv(tab) -> str:
    lines = ["nu,N,tau,n,sigma,sign,radicand_num,radicand_den,float"]
    for i, n in enumerate(tab.ns):
        for j, sigma in enumerate(tab.sigmas):
            sign, num, den, flt = _surd_fields(tab.entries[i][j], tab.floats[i][j])
            lines.append(f"{tab.nu},{tab.N},{tab.tau},{n},{sigma},{sign},{num},{den},{flt}")
    return "\n".join(lines) + "\n"


def render_transform_json(mat) -> str:
    backed = ", ".join(f"[{i}, {j}]" for i, j in sorted(mat.oracle_backed))
    header = {
        "nu": mat.nu,
        "N": mat.N,
        "tau": mat.tau,
        "op": f'"{mat.op.value}"',
        "convention": f'"{mat.convention.value}"',
        "oracle_backed": f"[{backed}]",
    }
    records = [
        _entry_record(f'"sigma_row": {srow}, "sigma_col": {scol}', value, value.to_float())
        for srow, row in zip(mat.sigmas, mat.entries)
        for scol, value in zip(mat.sigmas, row)
    ]
    return _json_document(header, records)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def cmd_bracket(args) -> int:
    convention = Convention(args.convention)
    if args.pochhammer:
        value = bracket_pochhammer(args.nu, args.N, args.n, args.sigma, args.tau)
        if convention is Convention.BARRED and barred_sign(args.n, args.tau) < 0:
            value = -value
    else:
        value = bracket(args.nu, args.N, args.n, args.sigma, args.tau, convention)
    print(format_surd(value))
    return EXIT_OK


def cmd_table(args) -> int:
    tab = table(args.nu, args.N, args.tau, Convention(args.convention))
    if not tab.is_orthogonal():
        print("orthogonality check: FAIL", file=sys.stderr)
        return EXIT_VERIFICATION
    print(f"orthogonality check: PASS ({len(tab.ns)}x{len(tab.sigmas)} exact)")
    text = render_table_csv(tab) if args.format == "csv" else render_table_json(tab)
    _emit(text, args.out)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(CLI_SUITES) if args.suites is None else args.suites.split(",")
    for i, name in enumerate(names):
        if name not in CLI_SUITES:
            raise _UsageError(
                f"unknown suite {name!r}; available: {','.join(CLI_SUITES)}"
            )
        if name in names[:i]:
            raise _UsageError(f"suite {name!r} is named twice")
    all_passed = True
    total = 0
    for name in names:
        for result in run_cli_suite(name, args.nu_max, args.N_max):
            print(result.line())
            total += result.checked
            all_passed = all_passed and result.passed
    if all_passed:
        print(f"PASS 100% ({total} checks, nu<= {args.nu_max}, N<= {args.N_max})")
        return EXIT_OK
    print("FAIL: at least one exact check did not hold", file=sys.stderr)
    return EXIT_VERIFICATION


def cmd_transform(args) -> int:
    mat = deformed_matrix(
        args.nu, args.N, args.tau, OperatorSpec(args.op), Convention(args.convention)
    )
    _emit(render_transform_json(mat), args.out)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="chainbrackets",
        description=(
            "Exact transformation brackets between the spherical and deformed "
            "boson oscillator chains, with built-in certification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="compute a single bracket")
    p.add_argument("--nu", type=int, required=True, help="dimension nu >= 2")
    p.add_argument("--N", dest="N", type=int, required=True, help="total boson number")
    p.add_argument("--n", type=int, required=True, help="oscillator-chain label n")
    p.add_argument("--sigma", type=int, required=True, help="deformed-chain label sigma")
    p.add_argument("--tau", type=int, required=True, help="shared label tau")
    p.add_argument(
        "--convention",
        choices=[c.value for c in Convention],
        default=Convention.STANDARD.value,
    )
    p.add_argument(
        "--pochhammer",
        action="store_true",
        help="evaluate through the Pochhammer-series route",
    )
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("table", help="emit the full bracket table for fixed tau")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--N", dest="N", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument(
        "--convention",
        choices=[c.value for c in Convention],
        default=Convention.STANDARD.value,
    )
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run exact certification suites")
    p.add_argument("--nu-max", dest="nu_max", type=int, default=3)
    p.add_argument("--N-max", dest="N_max", type=int, default=6)
    p.add_argument(
        "--suites",
        default=None,
        help=f"comma-separated subset of: {','.join(CLI_SUITES)} (default: all)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", help="transform an operator to the deformed chain")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--N", dest="N", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument(
        "--op", choices=[o.value for o in OperatorSpec], required=True,
        help="bnum: non-scalar boson count; snum: scalar count; pair: pair exchange",
    )
    p.add_argument(
        "--convention",
        choices=[c.value for c in Convention],
        default=Convention.STANDARD.value,
    )
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_transform)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (LabelError, UnsupportedDimensionError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KernelError, SurdSumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: out of memory; try a smaller range", file=sys.stderr)
        return EXIT_MEMORY
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
