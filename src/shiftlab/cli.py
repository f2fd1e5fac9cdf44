"""Command-line front end, the one module that builds report fields.

Exit codes: 0 success, 2 usage or parse failure, 3 numeric failure,
4 enumeration budget exceeded.  Reports embed the tool version and the full
flag configuration and contain no timestamps, so identical invocations
produce byte-identical output; the CSV rows of blocks end in CRLF.  The
environment variable SHIFTLAB_MAX_CELLS caps enumeration budgets (tree
leaves, follower cells, the digits of expand --depth and of bridge --s
--length).

The argument parser is built once per process, on the first main() call, and
reused by every later call.  Each argv is parsed once, by one parser: when its
first word names a subcommand, that subcommand's own parser reads the rest,
as the top-level parser would hand it on; only an argv that names none (no
words, -h, an unknown command) reaches the top-level parser.  main() looks
up the cmd_* handler of the chosen subcommand by name each time, so
rebinding a handler takes effect at once.  Argument errors are usage errors
like any other: one line and exit code 2.

JSON reports are written by _dumps, which gives the bytes of
json.dumps(report, indent=2, sort_keys=True) without the standard
library's pure-Python indenting encoder: containers are joined from lists
and each scalar is converted by the C or builtin function of its exact type,
looked up in the comprehension that joins its container, so only nested
containers and unknown types (which raise TypeError) make a recursive call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

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


def _table_builder(args) -> Callable[[int], blocks.BlockCountTable]:
    """Resolve --s / --sft / --even-shift into the count-table builder of
    that source, which takes the largest length.  --even-shift names the
    gap set of the even numbers, ep:pre=;pat=1,0, counted like any --s."""
    if sum((args.s is not None, args.sft is not None, args.even_shift)) != 1:
        raise sgap.SpecSyntaxError("exactly one of --s, --sft, --even-shift is required")
    if (args.alphabet is None) != (args.sft is None):
        raise sgap.SpecSyntaxError("--alphabet applies only to --sft, which requires it")
    if args.even_shift:
        return functools.partial(blocks.sgap_count_table, sgap.periodic_gaps(b"", b"\1\0"))
    if args.s is not None:
        return functools.partial(blocks.sgap_count_table, sgap.parse_sgap_spec(args.s))
    aut = blocks.build_sft_automaton(args.alphabet, [w for w in args.sft.split(",") if w])
    return functools.partial(blocks.automaton_count_table, aut)


# json.dumps spells these three floats unlike float.__repr__.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


# The text of each scalar type a report holds, looked up by exact type.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _dumps(value, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, byte
    for byte, for dicts with str keys, lists, tuples and the scalars of
    _SCALAR_TEXT; indent is the line break and indent of value's own line.
    Any other key or value type raises TypeError."""
    kind = type(value)
    if kind is dict or kind is list or kind is tuple:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = indent + "  "
        # Scalars are written here; only containers and unknown types recurse.
        scalar = _SCALAR_TEXT.get
        if kind is not dict:
            items = [text(v) if (text := scalar(type(v))) else _dumps(v, inner) for v in value]
            return "[" + inner + ("," + inner).join(items) + indent + "]"
        if set(map(type, value)) != {str}:
            raise TypeError("report keys must be str")
        items = [
            encode_basestring_ascii(k)
            + ": "
            + (text(v) if (text := scalar(type(v := value[k]))) else _dumps(v, inner))
            for k in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    text = _SCALAR_TEXT.get(kind)
    if text is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return text(value)


def _emit(args, result: dict, to_csv: Callable[[], str] | None = None) -> None:
    """Write the report of args.command, its set flags and result as JSON,
    or the text to_csv builds under --format csv (offered only by the
    commands that pass one)."""
    if args.format == "csv":
        payload = to_csv()
    else:
        report = {
            "tool": "shiftlab",
            "version": __version__,
            "command": args.command,
            "config": {
                k: v for k, v in vars(args).items() if k != "command" and v is not None
            },
            "result": result,
        }
        payload = _dumps(report) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(payload)


def cmd_entropy(args) -> None:
    res = entropy.solve_sgap_entropy(sgap.parse_sgap_spec(args.s), tol=args.tol)
    result = {
        "lambda": res.lam,
        "entropy": res.entropy,
        "log_base": 2.0,
        "lambda_lo": res.lambda_lo,
        "lambda_hi": res.lambda_hi,
    }
    _emit(args, result)


def cmd_classify(args) -> None:
    spec = sgap.parse_sgap_spec(args.s)
    _emit(args, {"spec": spec.render(), **dataclasses.asdict(sgap.classify(spec))})


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _require_within_budget(flag: str, value: int) -> None:
    """Refuse, as a budget failure, a flag that sizes a digit word beyond
    the cell budget, before any digit is made."""
    budget = _cell_budget()
    if value > budget:
        raise blocks.SizeGuardError(f"{flag} {value} exceeds the budget {budget}")


def _require_printable(flag: str, value: int, what: str, numbers) -> None:
    """Refuse, as a budget failure, an integer longer than the interpreter's
    limit for converting integers to text (sys.get_int_max_str_digits(),
    0 for none).  The limit is process-wide and belongs to whoever runs
    the interpreter, so it is read here and never changed."""
    limit = sys.get_int_max_str_digits()
    top = max(map(abs, numbers))
    # A b-bit integer has at most b * log10(2) + 1 decimal digits.
    if limit == 0 or top.bit_length() * 0.30103 < limit - 1:
        return
    if top >= 10**limit:
        raise blocks.SizeGuardError(
            f"{flag} {value} gives a {what} of {top.bit_length()} bits, more than "
            f"the {limit} decimal digits the interpreter converts to text"
        )


def _counts_csv(counts: dict[int, int]) -> str:
    """The CSV of a table's counts, one CRLF-ended line per length."""
    rows = ["n,count,log2_count,log2_count_over_n\r\n"]
    for n, c in counts.items():
        l2 = blocks.log2_int(c)
        rows.append(f"{n},{c},{l2:.12g},{l2 / n:.12g}\r\n")
    return "".join(rows)


def cmd_blocks(args) -> None:
    _require_positive("--n", args.n)
    counts = _table_builder(args)(args.n).counts
    _require_printable("--n", args.n, "count", counts.values())
    result = {
        "n": args.n,
        "counts": {str(n): c for n, c in counts.items()},
        "count_at_n": counts[args.n],
    }
    _emit(args, result, functools.partial(_counts_csv, counts))


def _estimate_result(flag: str, value: int, name: str, report) -> dict:
    """The result fields of report at flag's value, its estimate as text once the parts pass."""
    _require_printable(flag, value, name + " part", report.estimate.as_integer_ratio())
    return {
        "depth_tested": value,
        "verdict": report.verdict,
        name: str(report.estimate),
        name + "_float": float(report.estimate),
        "witness": list(report.witness),
    }


def cmd_check_bsm(args) -> None:
    _require_positive("--depth", args.depth)
    report = props.bsm_estimate(_table_builder(args)(2 * args.depth), args.depth)
    _emit(args, _estimate_result("--depth", args.depth, "K_estimate", report))


def cmd_check_balanced(args) -> None:
    spec = sgap.parse_sgap_spec(args.s)
    report = props.balanced_estimate(spec, args.word_max, args.r_max, max_cells=_cell_budget())
    _emit(args, _estimate_result("--r-max", args.r_max, "B_estimate", report))


def cmd_gibbs(args) -> None:
    spec = sgap.parse_sgap_spec(args.s)
    h = entropy.solve_sgap_entropy(spec, tol=args.tol).entropy
    diag = props.gibbs_diagnostics(spec, h, args.depth, max_cells=_cell_budget())
    band = (*diag.c1.as_integer_ratio(), *diag.c2.as_integer_ratio())
    _require_printable("--depth", args.depth, "Gibbs band constant part", band)
    result = {
        "entropy": h,
        "c1": str(diag.c1),
        "c2": str(diag.c2),
        "ratios": {str(n): r for n, r in diag.ratios.items()},
        "cell_count": len(diag),
        "all_cells_pass": diag.all_cells_pass(),
    }

    def to_csv() -> str:
        cells = list(diag)
        parts = (
            n for c in cells for f in (c.mu_value, c.lower, c.upper) for n in f.as_integer_ratio()
        )
        _require_printable("--depth", args.depth, "Gibbs cell part", parts)
        rows = (
            f"{c.omega},{c.r},{c.k},{c.mu_value},{c.lower},{c.upper},{c.passes()}\n" for c in cells
        )
        return "omega,r,k,mu_value,lower,upper,passes\n" + "".join(rows)

    _emit(args, result, to_csv)


def cmd_expand(args) -> None:
    ctx = beta.BetaContext(args.lam, membership_tol=args.tol)
    ctx.require_in_interval(args.x)  # a usage error goes before the budget
    _require_within_budget("--depth", args.depth)
    expander = beta.greedy_expansion if args.mode == "greedy" else beta.lazy_expansion
    prefix = expander(args.x, ctx, args.depth)
    result = {
        "lambda": prefix.lam,
        "digits": prefix.digit_word(),
        "branch_flags": list(prefix.flags),
        "residual": prefix.residual(),
    }
    _emit(args, result)


def cmd_enumerate_one(args) -> None:
    ctx = beta.BetaContext(args.lam, membership_tol=args.tol)
    max_leaves = args.max_leaves if args.max_leaves is not None else _cell_budget()
    _require_positive("--max-leaves", max_leaves)
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
    _emit(args, result)


def cmd_kl(args) -> None:
    lam = beta.komornik_loreti_constant(args.tol)
    result = {
        "lambda_kl": lam,
        "log2_lambda_kl": math.log2(lam),
        "ln_lambda_kl": math.log(lam),
    }
    _emit(args, result)


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
    if args.length is not None:
        if args.s is None and args.digits is None:
            raise sgap.SpecSyntaxError("--length applies to --digits and --s, not --pre/--pat")
        _require_positive("--length", args.length)
    if args.tol <= 0:  # the --s direction never reaches the entropy solver
        raise ValueError("tolerance must be positive")
    if args.s is not None:
        if args.length is None:
            raise sgap.SpecSyntaxError("--s direction requires --length")
        spec = sgap.parse_sgap_spec(args.s)
        _require_within_budget("--length", args.length)
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
    _emit(args, result)


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
    # Each subcommand's own parser by name, filled in by add_parser below.
    parser.commands = sub.choices

    def common(p, formats=("json",)):
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write the report to a file")

    def sources(p):  # the flags _table_builder reads
        p.add_argument("--s")
        p.add_argument("--sft", help="comma-separated forbidden blocks")
        p.add_argument("--alphabet")
        p.add_argument("--even-shift", action="store_true")

    p = sub.add_parser("entropy", help="root of the gap series and its entropy")
    p.add_argument("--s", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    p = sub.add_parser("classify", help="finite-type/mixing/specification predicates")
    p.add_argument("--s", required=True)
    common(p)

    p = sub.add_parser("blocks", help="exact block counts up to a length")
    sources(p)
    p.add_argument("--n", type=int, required=True)
    common(p, ("json", "csv"))

    p = sub.add_parser("check-bsm", help="supermultiplicativity constant estimate")
    sources(p)
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
    common(p, ("json", "csv"))

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


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv read by the parser of the subcommand argv[0] names, else (no
    words, -h, an unknown command) by the top-level parser."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if not math.isfinite(getattr(args, "tol", 0.0)):
            raise ValueError(f"--tol must be finite, got {args.tol}")
        globals()["cmd_" + args.command.replace("-", "_")](args)
        return 0
    except blocks.EmptyShiftError as exc:
        print(f"shiftlab: empty shift: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except blocks.SizeGuardError as exc:
        print(f"shiftlab: budget exceeded: {exc}", file=sys.stderr)
        return _BUDGET_EXIT
    except ArithmeticError as exc:
        print(f"shiftlab: numeric failure: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except ValueError as exc:
        print(f"shiftlab: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
