"""Command-line front end emitting deterministic JSON/CSV reports.

Exit codes: 0 success, 2 usage or parse failure, 3 numeric failure,
4 enumeration budget exceeded.  Reports embed the tool version and the full
flag configuration and contain no timestamps, so identical invocations
produce byte-identical output.  The environment variable SHIFTLAB_MAX_CELLS
caps enumeration budgets (tree leaves, follower cells).

The argument parser is built once per process, on the first main() call, and
reused by every later call; main() looks up the cmd_* handler of the chosen
subcommand by name each time, so rebinding a handler takes effect at once.
Argument errors are usage errors like any other: one line and exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from collections.abc import Callable

from . import __version__, beta, blocks, entropy, props, sgap

_USAGE_EXIT = 2
_NUMERIC_EXIT = 3
_BUDGET_EXIT = 4

_DEFAULT_CELL_BUDGET = 200_000


def _cell_budget() -> int:
    raw = os.environ.get("SHIFTLAB_MAX_CELLS")
    if raw is None:
        return _DEFAULT_CELL_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise sgap.SpecSyntaxError(f"SHIFTLAB_MAX_CELLS must be an integer: {raw!r}") from exc
    if value < 1:
        raise sgap.SpecSyntaxError("SHIFTLAB_MAX_CELLS must be positive")
    return value


def _spec_source(args) -> tuple[str, object]:
    """Resolve --s / --sft / --even-shift into a counting source."""
    picked = [
        name
        for name, present in (
            ("--s", args.s is not None),
            ("--sft", getattr(args, "sft", None) is not None),
            ("--even-shift", getattr(args, "even_shift", False)),
        )
        if present
    ]
    if len(picked) != 1:
        raise sgap.SpecSyntaxError("exactly one of --s, --sft, --even-shift is required")
    if args.s is not None:
        return "sgap", sgap.parse_sgap_spec(args.s)
    if getattr(args, "even_shift", False):
        return "automaton", blocks.even_shift_automaton()
    if not getattr(args, "alphabet", None):
        raise sgap.SpecSyntaxError("--sft requires --alphabet")
    forbidden = [w for w in args.sft.split(",") if w]
    aut = blocks.build_sft_automaton(args.alphabet, forbidden)
    return "automaton", aut


def _count_table(kind, source, n_max) -> blocks.BlockCountTable:
    if kind == "sgap":
        return blocks.sgap_count_table(source, n_max)
    return blocks.automaton_count_table(source, n_max)


def _emit(args, report: dict, to_csv: Callable[[], str] | None = None) -> None:
    """Write the report as JSON, or as the text to_csv builds under --format csv."""
    if args.format == "csv":
        if to_csv is None:
            raise sgap.SpecSyntaxError(
                f"command {report['command']!r} has no CSV form; use --format json"
            )
        payload = to_csv()
    else:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(payload)


def _report(command: str, config: dict, result: dict) -> dict:
    clean = {k: v for k, v in config.items() if v is not None}
    return {
        "tool": "shiftlab",
        "version": __version__,
        "command": command,
        "config": clean,
        "result": result,
    }


def cmd_entropy(args) -> None:
    spec = sgap.parse_sgap_spec(args.s)
    res = entropy.solve_sgap_entropy(spec, tol=args.tol)
    _emit(args, _report("entropy", _config(args), res.to_report()))


def cmd_classify(args) -> None:
    spec = sgap.parse_sgap_spec(args.s)
    c = sgap.classify(spec)
    result = {
        "spec": spec.render(),
        "is_sft": c.is_sft,
        "is_almost_specified": c.is_almost_specified,
        "is_mixing": c.is_mixing,
        "has_specification": c.has_specification,
        "gap_sup": c.gap_sup,
        "gcd_value": c.gcd_value,
    }
    _emit(args, _report("classify", _config(args), result))


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _require_printable(flag: str, value: int, what: str, numbers) -> None:
    """Refuse, as a budget failure, an integer longer than the interpreter's
    limit for converting integers to text (sys.get_int_max_str_digits(),
    0 for none).  The limit is process-wide and belongs to whoever runs
    the interpreter, so it is read here and never changed."""
    limit = sys.get_int_max_str_digits()
    top = max(numbers, key=int.bit_length)
    # A b-bit integer has at most b * log10(2) + 1 decimal digits.
    if limit == 0 or top.bit_length() * 0.30103 < limit - 1:
        return
    if abs(top) >= 10**limit:
        raise blocks.SizeGuardError(
            f"{flag} {value} gives a {what} of {top.bit_length()} bits, more than "
            f"the {limit} decimal digits the interpreter converts to text"
        )


def cmd_blocks(args) -> None:
    _require_positive("--n", args.n)
    kind, source = _spec_source(args)
    table = _count_table(kind, source, args.n)
    _require_printable("--n", args.n, "count", table.counts.values())
    result = {
        "n": args.n,
        "counts": {str(n): c for n, c in sorted(table.counts.items())},
        "count_at_n": table.counts[args.n],
    }

    def to_csv() -> str:
        buf = io.StringIO()
        table.write_csv(buf)
        return buf.getvalue()

    _emit(args, _report("blocks", _config(args), result), to_csv)


def cmd_check_bsm(args) -> None:
    _require_positive("--depth", args.depth)
    kind, source = _spec_source(args)
    table = _count_table(kind, source, 2 * args.depth)
    report = props.bsm_estimate(table, args.depth)
    k = report.k_estimate
    _require_printable("--depth", args.depth, "K_estimate part", (k.numerator, k.denominator))
    _emit(args, _report("check-bsm", _config(args), report.to_report()))


def cmd_check_balanced(args) -> None:
    spec = sgap.parse_sgap_spec(args.s)
    report = props.balanced_estimate(
        spec, args.word_max, args.r_max, max_cells=_cell_budget()
    )
    _emit(args, _report("check-balanced", _config(args), report.to_report()))


def cmd_gibbs(args) -> None:
    spec = sgap.parse_sgap_spec(args.s)
    h = entropy.solve_sgap_entropy(spec, tol=args.tol).entropy
    diag = props.gibbs_diagnostics(spec, h, args.depth, max_cells=_cell_budget())
    result = {
        "entropy": h,
        "c1": str(diag.c1),
        "c2": str(diag.c2),
        "ratios": {str(n): r for n, r in sorted(diag.ratios.items())},
        "cell_count": len(diag.finite_level_cells),
        "all_cells_pass": diag.all_cells_pass(),
    }

    def to_csv() -> str:
        lines = ["omega,r,k,mu_value,lower,upper,passes"]
        for cell in diag.finite_level_cells:
            lines.append(
                f"{cell.omega},{cell.r},{cell.k},{cell.mu_value},"
                f"{cell.lower},{cell.upper},{cell.passes()}"
            )
        return "\n".join(lines) + "\n"

    _emit(args, _report("gibbs", _config(args), result), to_csv)


def cmd_expand(args) -> None:
    ctx = beta.BetaContext(args.lam, membership_tol=args.tol)
    expander = beta.greedy_expansion if args.mode == "greedy" else beta.lazy_expansion
    prefix = expander(args.x, ctx, args.depth)
    _emit(args, _report("expand", _config(args), prefix.to_report()))


def cmd_enumerate_one(args) -> None:
    ctx = beta.BetaContext(args.lam, membership_tol=args.tol)
    max_leaves = args.max_leaves if args.max_leaves is not None else _cell_budget()
    leaves = beta.enumerate_expansions_of_one(ctx, args.depth, max_leaves=max_leaves)
    result = {
        "leaf_count": len(leaves),
        "leaves": [
            {
                "digits": leaf.digit_word(),
                "ambiguous": leaf.ambiguous,
                "residual": leaf.residual(),
            }
            for leaf in leaves
        ],
    }
    _emit(args, _report("enumerate-one", _config(args), result))


def cmd_kl(args) -> None:
    lam = beta.komornik_loreti_constant(args.tol)
    result = {
        "lambda_kl": lam,
        "log2_lambda_kl": math.log2(lam),
        "ln_lambda_kl": math.log(lam),
    }
    _emit(args, _report("kl", _config(args), result))


def cmd_bridge(args) -> None:
    modes = [
        args.digits is not None,
        args.pre is not None or args.pat is not None,
        args.s is not None,
    ]
    if sum(modes) != 1:
        raise sgap.SpecSyntaxError(
            "bridge needs exactly one of --digits, --pre/--pat, or --s"
        )
    if args.s is not None:
        if args.length is None:
            raise sgap.SpecSyntaxError("--s direction requires --length")
        spec = sgap.parse_sgap_spec(args.s)
        result = {
            "direction": "spec_to_digits",
            "digits": beta.expansion_from_sgap(spec, args.length),
            "spec": spec.render(),
        }
    else:
        if args.digits is not None:
            spec = beta.sgap_from_expansion(args.digits, length=args.length)
        else:
            if args.pre is None or args.pat is None:
                raise sgap.SpecSyntaxError("eventually periodic input needs --pre and --pat")
            spec = beta.sgap_from_expansion((args.pre, args.pat))
        res = entropy.solve_sgap_entropy(spec, tol=args.tol)
        result = {
            "direction": "digits_to_spec",
            "spec": spec.render(),
            "lambda": res.lam,
            "entropy": res.entropy,
        }
    _emit(args, _report("bridge", _config(args), result))


def _config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "command"}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports errors as SpecSyntaxError, not by
    printing its usage and exiting; subparsers are built from this class."""

    def error(self, message):
        raise sgap.SpecSyntaxError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shiftlab",
        description="gap-shift combinatorics, entropy, and expansion reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("entropy", help="root of the gap series and its entropy")
    p.add_argument("--s", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    p = sub.add_parser("classify", help="finite-type/mixing/specification predicates")
    p.add_argument("--s", required=True)
    common(p)

    p = sub.add_parser("blocks", help="exact block counts up to a length")
    p.add_argument("--s")
    p.add_argument("--sft", help="comma-separated forbidden blocks")
    p.add_argument("--alphabet")
    p.add_argument("--even-shift", action="store_true")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("check-bsm", help="supermultiplicativity constant estimate")
    p.add_argument("--s")
    p.add_argument("--sft")
    p.add_argument("--alphabet")
    p.add_argument("--even-shift", action="store_true")
    p.add_argument("--depth", type=int, required=True)
    common(p)

    p = sub.add_parser("check-balanced", help="follower-density lower estimate")
    p.add_argument("--s", required=True)
    p.add_argument("--word-max", type=int, default=16)
    p.add_argument("--r-max", type=int, default=10)
    common(p)

    p = sub.add_parser("gibbs", help="finite-level cylinder-measure diagnostics")
    p.add_argument("--s", required=True)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    p = sub.add_parser("expand", help="greedy or lazy expansion of a point")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--mode", choices=("greedy", "lazy"), default="greedy")
    p.add_argument("--depth", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-12)
    common(p)

    p = sub.add_parser("enumerate-one", help="digit tree of the expansions of 1")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--max-leaves", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    common(p)

    p = sub.add_parser("kl", help="smallest base with a unique expansion of 1")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    p = sub.add_parser("bridge", help="digit words <-> gap sets, with entropy")
    p.add_argument("--digits")
    p.add_argument("--pre")
    p.add_argument("--pat")
    p.add_argument("--s")
    p.add_argument("--length", type=int)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if not math.isfinite(getattr(args, "tol", 0.0)):
            raise ValueError(f"--tol must be finite, got {args.tol}")
        globals()["cmd_" + args.command.replace("-", "_")](args)
        return 0
    except (sgap.SpecSyntaxError, sgap.EmptySetError) as exc:
        print(f"shiftlab: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except blocks.EmptyShiftError as exc:
        print(f"shiftlab: empty shift: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (blocks.SizeGuardError, beta.LeafBudgetError) as exc:
        print(f"shiftlab: budget exceeded: {exc}", file=sys.stderr)
        return _BUDGET_EXIT
    except (entropy.EntropySolveError, ArithmeticError) as exc:
        print(f"shiftlab: numeric failure: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except ValueError as exc:
        print(f"shiftlab: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
