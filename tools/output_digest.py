"""One digest of everything the CLI prints for the benchmark's requests.

    python3 tools/output_digest.py [--each] ROOT SEED [SEED ...]

Builds the request lists of every workload in ``perfbench/workloads.py``
(taken from the checkout this script sits in) for each seed, adds a
``--format csv`` variant of every blocks and gibbs request that lacks one,
appends the fixed edge argvs of ``EDGE_ARGVS`` once, and runs each
argv in-process through ``shiftlab.cli.main`` imported from ``ROOT/src``.
It prints one ``command NAME argvs N sha256 HEX`` line per subcommand, in
name order, and last the line ``argvs N sha256 HEX`` over all of them:
the number of argvs and one SHA-256 over their exit codes, standard output
and standard error.  Two checkouts print the same line exactly when those
outputs are byte-identical, so a mismatch in the last line is named by the
command lines above it.  With ``--each`` these lines follow one
``SHA256 ARGV-JSON`` line per argv, in run order, so a diff of two
checkouts' outputs names each argv whose output moved.  Standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

OWN_CHECKOUT = Path(__file__).resolve().parent.parent
CSV_COMMANDS = ("blocks", "gibbs")

_FLOOR, _BELOW_FLOOR = "8.881784197001252e-16", "8.881784197001251e-16"
_GOLDEN, _KL = "1.618033988749895", "1.787231650182966"
# Fixed argvs the benchmark's requests leave out, one group per reason.
EDGE_ARGVS = [
    # kl down to adjacent doubles: it has no 2**-50 floor and stops there.
    *(["kl", "--tol", tol] for tol in ("1", "1e-15", "4e-16", "1e-300", "5e-324")),
    # The 2**-50 floor and the double just below it, where entropy exits 3.
    # No argv is known to reach the entropy solver's precision cap.
    *(
        [*argv, "--tol", tol]
        for tol in (_FLOOR, _BELOW_FLOOR)
        for argv in (
            ["entropy", "--s", "{0,1}"],
            ["entropy", "--s", "co{0}"],
            ["entropy", "--s", "ep:pre=;pat=0,1"],
            ["bridge", "--digits", "0110100110010110"],
            ["gibbs", "--s", "co{0}"],
            ["kl"],
        )
    ),
    # One member per period p, whose root 2**(1/p) crowds 1.
    *(
        ["entropy", "--s", "ep:pre=;pat=" + "0," * (p - 1) + "1"]
        for p in (256, 257, 300, 400, 100000)
    ),
    # Long greedy and lazy orbits.
    *(
        ["expand", "--lambda", lam, "--x", "1.0", "--mode", mode, "--depth", "300"]
        for lam in (_GOLDEN, _KL, "1.3")
        for mode in ("greedy", "lazy")
    ),
    # The digit tree near the golden ratio and the smallest univoque base.
    *(["enumerate-one", "--lambda", lam, "--depth", "24"] for lam in (_GOLDEN, _KL)),
    # Switch-region endpoints 1/lambda and 1/(lambda(lambda-1)) at lambda 1.8
    # under a zero ambiguity band, where the flag reads ambiguous.
    ["expand", "--lambda", "1.8", "--x", "0.5555555555555556", "--tol", "0"],
    ["expand", "--lambda", "1.8", "--x", "0.6944444444444443", "--mode", "lazy", "--tol", "0"],
    *(
        ["enumerate-one", "--lambda", lam, "--tol", "0", "--depth", "20"]
        for lam in (_GOLDEN, _KL)
    ),
    # 15 subsets for the shift avoiding 0000 and 1111; benchmark automata have 5.
    ["blocks", "--sft", "0000,1111", "--alphabet", "01", "--n", "400", "--format", "csv"],
    ["check-bsm", "--sft", "0000,1111", "--alphabet", "01", "--depth", "200"],
    # Deep check-bsm scans: every ratio ties (co{}) or creeps up to its
    # supremum, so many pairs of each row reach the exact test, and {2,5}
    # (gcd 3) keeps most rows past the slope bound.
    ["check-bsm", "--s", "co{}", "--depth", "300"],
    ["check-bsm", "--even-shift", "--depth", "400"],
    ["check-bsm", "--s", "{2,5}", "--depth", "400"],
    ["check-bsm", "--s", "ep:pre=;pat=0,0,1", "--depth", "800"],
    # Deep scans whose counts oscillate with the gcd 3 of {2,5} and 2 of
    # {1,3}, and a gibbs window over the oscillating rows of {1,3}.
    ["check-bsm", "--s", "{2,5}", "--depth", "800"],
    ["check-bsm", "--s", "{1,3}", "--depth", "1500"],
    ["gibbs", "--s", "{1,3}", "--depth", "60"],
    # Counts past 2**1024, whose log2 no double conversion reaches: the CSV
    # log columns of sft4 and co{0} and a check-bsm scan of co{0}.
    ["blocks", "--sft", "ac,ad,bd,ca,cb,da,db", "--alphabet", "abcd", "--n", "1100", "--format", "csv"],
    ["check-bsm", "--s", "co{0}", "--depth", "1500"],
    ["blocks", "--s", "co{0}", "--n", "3000", "--format", "csv"],
    # Usage errors (exit 2): a non-binary --pre/--pat word, a leaf budget
    # below one, a --length below one or given with --pre/--pat.
    ["bridge", "--pre", "1", "--pat", "2"],
    ["bridge", "--pre", "1,0", "--pat", "1"],
    ["enumerate-one", "--lambda", "1.5", "--max-leaves", "0"],
    ["bridge", "--digits", "101", "--length=-1"],
    ["bridge", "--pre", "1", "--pat", "0", "--length", "3"],
    # Gibbs rows: the first depth whose ratio 2**(n*h) overflows a double, a
    # single representative under CSV, and co{}, whose all-zero rows share
    # the count table's class.
    ["gibbs", "--s", "{0,1}", "--depth", "1475"],
    ["gibbs", "--s", "{0}", "--depth", "2", "--format", "csv"],
    ["gibbs", "--s", "co{}", "--depth", "4"],
    # A --tol of 0 in the bridge --s direction exits 2 as in the others.
    ["bridge", "--s", "{0}", "--length", "3", "--tol", "0"],
    # ep: bit lists whose constant period leaves a finite set, co{} and the
    # empty set (exit 2), and the period-400 sparse set.
    *(
        ["classify", "--s", spec]
        for spec in ("ep:pre=0,1,0;pat=0,0", "ep:pre=1,1;pat=1,1", "ep:pre=0,0;pat=0")
    ),
    ["classify", "--s", "ep:pre=;pat=" + "0," * 399 + "1"],
    # Three descriptions of {0} and the odd naturals, one as --pre/--pat
    # words, and (1,0) typed 500 times, whose period is two bits.
    *(
        ["classify", "--s", spec]
        for spec in ("ep:pre=1,1;pat=0,1", "ep:pre=1;pat=1,0", "ep:pre=1;pat=1,0,1,0")
    ),
    ["bridge", "--pre", "1", "--pat", "1010"],
    ["entropy", "--s", "ep:pre=;pat=" + ",".join("10" * 500)],
    ["check-bsm", "--s", "ep:pre=;pat=" + ",".join("10" * 500), "--depth", "750"],
    # A cofinite set with a dense head of 20000 members, so the count
    # kernel, the entropy head and the follower pass each cost 20000 per
    # step: pinned before their cost is made to follow the description's runs.
    ["check-bsm", "--s", "co{20000}", "--depth", "50"],
    ["entropy", "--s", "co{20000}"],
    ["check-balanced", "--s", "co{20000}", "--r-max", "5"],
    # The largest digit tree of the benchmark's bases: 592 leaves.
    ["enumerate-one", "--lambda", "1.442418082864579", "--depth", "18"],
    # Deep trees at the depth cap: 763 leaves of 64 digits, and a leaf
    # budget exhausted 64 levels down (exit 4).
    ["enumerate-one", "--lambda", "1.8", "--depth", "64"],
    ["enumerate-one", "--lambda", "1.3", "--depth", "64", "--max-leaves", "3000"],
    # Forbidden-block presentations: a stranded state that pruning removes, a
    # one-letter block, an empty shift (exit 2), the reducible shift avoiding
    # 20 and 21, and single blocks of length 7 over three letters and of
    # length 10 over four, which a higher-block presentation gives 3**6 and
    # 4**9 states.
    ["blocks", "--sft", "ba,bb", "--alphabet", "ab", "--n", "6"],
    ["blocks", "--sft", "2,00", "--alphabet", "012", "--n", "30", "--format", "csv"],
    ["blocks", "--sft", "00,01,10,11", "--alphabet", "01", "--n", "3"],
    ["check-bsm", "--sft", "20,21", "--alphabet", "012", "--depth", "40"],
    ["blocks", "--sft", "0000000", "--alphabet", "012", "--n", "40"],
    ["blocks", "--sft", "0" * 10, "--alphabet", "0123", "--n", "20"],
    # Leaf edges at lambda 1.5: a leaf budget of exactly its 28 leaves at
    # depth 10 (exit 0) and one fewer (exit 4), and tolerances so wide that
    # every step is ambiguous, 1e308 with an infinite orbit slack 8 * tol.
    *(
        ["enumerate-one", "--lambda", "1.5", "--depth", "10", "--max-leaves", leaves]
        for leaves in ("28", "27")
    ),
    ["enumerate-one", "--lambda", "1.5", "--depth", "8", "--tol", "1e300"],
    ["enumerate-one", "--lambda", "1.5", "--depth", "6", "--tol", "1e308"],
    # --alphabet without --sft (exit 2).
    ["blocks", "--s", "{0}", "--alphabet", "01", "--n", "3"],
    ["check-bsm", "--even-shift", "--alphabet", "01", "--depth", "3"],
]


def _load_workloads():
    """perfbench/workloads.py of this checkout, loaded by its path under a
    private name.  sys.path is left alone, and the module sits in
    sys.modules only while its body runs, where its dataclasses look it up."""
    path = OWN_CHECKOUT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_output_digest_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def argvs(seeds) -> list[list[str]]:
    workloads = _load_workloads()
    out = []
    for seed in seeds:
        for workload in workloads.BUILDERS:
            for request in workloads.build(workload, seed):
                out.append(request.argv)
                if request.command in CSV_COMMANDS and "csv" not in request.argv:
                    out.append([*request.argv, "--format", "csv"])
    return out + EDGE_ARGVS


def run(main, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is exit code 1 for a CLI user
            code = 1
            # The message alone: a traceback holds the checkout's paths.
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--each", action="store_true", help="also print one line per argv")
    parser.add_argument("root", type=Path, help="checkout whose src/shiftlab is run")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    if not (src / "shiftlab" / "__init__.py").is_file():
        raise SystemExit(f"output_digest: no shiftlab sources under {src}")
    sys.path.insert(0, str(src))
    import shiftlab.cli

    if src not in Path(shiftlab.cli.__file__).resolve().parents:
        raise SystemExit(f"output_digest: imported shiftlab from {shiftlab.cli.__file__}")

    requests = argvs(args.seeds)
    digest = hashlib.sha256()
    counts, digests = Counter(), defaultdict(hashlib.sha256)
    for argv in requests:
        record = json.dumps(run(shiftlab.cli.main, argv)).encode() + b"\n"
        if args.each:
            print(hashlib.sha256(record).hexdigest(), json.dumps(argv))
        digest.update(record)
        counts[argv[0]] += 1
        digests[argv[0]].update(record)
    for name in sorted(digests):
        print(f"command {name} argvs {counts[name]} sha256 {digests[name].hexdigest()}")
    print(f"argvs {len(requests)} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
