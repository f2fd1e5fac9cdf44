"""Seeded request lists for the three shiftlab workloads.

Every request is one argv for ``shiftlab.cli.main``.  Sizes, bases and
periods come from a fixed stratified grid (see ``_Grid``): log-uniform for
sizes, linear for bases and periods, the same for every seed.  The seed
picks the gap sets, words, points to expand and the order.  The largest
two thirds of each kind of sized request take their gap sets from
``FIXED_SETS`` instead (see ``_sets``): at the same depth check-bsm costs
up to twice as much on one gap set as on another, and these requests decide
a workload's wall time and latencies, so runs with different seeds still
measure comparable amounts of work.  ``scale`` multiplies every count; the
self-test runs scale 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

_GOLDEN_STEP = (math.sqrt(5.0) - 1.0) / 2.0

FOUR_LETTER = ("abcd", "ac,ad,bd,ca,cb,da,db")
THREE_LETTER = ("abc", "aa,bc")
GOLDEN_MEAN = ("01", "11")
AUTOMATA = {
    "even": ["--even-shift"],
    "sft4": ["--sft", FOUR_LETTER[1], "--alphabet", FOUR_LETTER[0]],
    "golden": ["--sft", GOLDEN_MEAN[1], "--alphabet", GOLDEN_MEAN[0]],
    "sft3": ["--sft", THREE_LETTER[1], "--alphabet", THREE_LETTER[0]],
}
FORMS = ("finite", "cofinite", "periodic")
# Gap sets of the largest requests of each kind, taken in turn.
FIXED_SETS = {
    "finite": ("{0,1,3,4,7}", "{1,2,4,6,9,11}", "{0,2,5,8}"),
    "cofinite": ("co{0}", "co{1,3}", "co{2,4,5}"),
    "periodic": ("ep:pre=;pat=0,0,1", "ep:pre=1;pat=1,1,0", "ep:pre=0,1,0;pat=1,0,1"),
}
SPARSE_PERIODS = (2, 400)
# The entropy solver exits 3 on the sparse sets with these periods: its
# 512-term probe sees only one member of the set.  Requests in this slice
# may fail without making the run incorrect; a fixed solver passes them.
KNOWN_FAILING_PERIODS = (257, 400)

WHY = {
    "tables": "one long counting DP per request: blocks JSON/CSV and check-bsm "
    "on all gap-set forms and four automata, sizes up to n = 1500",
    "followers": "many short follower DPs per request from check-balanced and "
    "gibbs, with Fraction minima and one entropy solve per gibbs",
    "expansions": "many small entropy, bridge, classify, expand, enumerate-one "
    "and kl requests: per-request CLI cost, entropy solver and beta tree",
}


@dataclass
class Request:
    argv: list[str]
    command: str
    form: str | None = None  # finite, cofinite, periodic, automaton or None
    known_failure: bool = False
    params: dict = field(default_factory=dict)


class _Grid:
    """Stratified values: the i-th of k values lies in the i-th of k equal
    slices of the range.  Each call takes the next slot of a low-discrepancy
    sequence as its position inside the slices, so the values of different
    categories interleave instead of piling up at the same points."""

    def __init__(self):
        self.slot = 0

    def linear(self, k: int, lo: float, hi: float) -> list[float]:
        self.slot += 1
        pos = (self.slot * _GOLDEN_STEP) % 1.0
        return [lo + (i + pos) / k * (hi - lo) for i in range(k)]

    def log(self, k: int, lo: float, hi: float) -> list[int]:
        return [round(math.exp(v)) for v in self.linear(k, math.log(lo), math.log(hi))]


def _pairing(k: int) -> list[int]:
    """A fixed permutation that pairs small with large slices evenly."""
    step = next(m for m in range(k // 2 + 1, k) if math.gcd(m, k) == 1)
    return [(i * step) % k for i in range(k)]


def _bits(values) -> str:
    return ",".join(str(v) for v in values)


def _gap_set(rng: random.Random, form: str) -> str:
    if form == "finite":
        top = rng.randint(2, 12)
        members = [n for n in range(top) if rng.random() < 0.5] + [top]
        return "{" + _bits(members) + "}"
    if form == "cofinite":
        return "co{" + _bits(sorted(rng.sample(range(6), rng.randint(0, 3)))) + "}"
    pre = [rng.randint(0, 1) for _ in range(rng.randint(0, 3))]
    while True:
        pat = [rng.randint(0, 1) for _ in range(rng.randint(2, 4))]
        if 0 < sum(pat) < len(pat):
            return f"ep:pre={_bits(pre)};pat={_bits(pat)}"


def _sets(rng: random.Random, form: str, sizes) -> list[str]:
    """Gap sets for requests of these sizes: the seed draws them for the
    smallest third, the largest two thirds cycle through FIXED_SETS[form]."""
    k = len(sizes)
    rank = {i: r for r, i in enumerate(sorted(range(k), key=lambda i: sizes[i]))}
    fixed = FIXED_SETS[form]
    drawn = {i: _gap_set(rng, form) for i in range(k) if rank[i] < k // 3}
    return [drawn.get(i) or fixed[rank[i] % len(fixed)] for i in range(k)]


def sparse_gap_set(period: int) -> str:
    """ep:pre=;pat=0^(p-1),1 -- the multiples of p, shifted down by one."""
    return "ep:pre=;pat=" + _bits([0] * (period - 1) + [1])


def _formats(k: int) -> list[str]:
    """JSON and CSV on alternate slices, JSON on the top one."""
    return [("json", "csv")[(k - 1 - i) % 2] for i in range(k)]


def _tables(rng: random.Random, scale: int) -> list[Request]:
    grid, out = _Grid(), []
    for form in FORMS:
        k = 6 * scale
        sizes = grid.log(k, 16, 1500)
        for n, fmt, s in zip(sizes, _formats(k), _sets(rng, form, sizes)):
            out.append(Request(["blocks", "--s", s, "--n", str(n), "--format", fmt],
                               "blocks", form, params={"s": s, "n": n, "format": fmt}))
        depths = grid.log(2 * scale, 8, 750)
        for depth, s in zip(depths, _sets(rng, form, depths)):
            out.append(Request(["check-bsm", "--s", s, "--depth", str(depth)],
                               "check-bsm", form, params={"s": s, "depth": depth}))
    for name, flags in AUTOMATA.items():
        k = 5 * scale
        for n, fmt in zip(grid.log(k, 16, 300), _formats(k)):
            out.append(Request(["blocks", *flags, "--n", str(n), "--format", fmt],
                               "blocks", "automaton",
                               params={"automaton": name, "n": n, "format": fmt}))
        for depth in grid.log(2 * scale, 8, 150):
            out.append(Request(["check-bsm", *flags, "--depth", str(depth)],
                               "check-bsm", "automaton",
                               params={"automaton": name, "depth": depth}))
    return out


def _followers(rng: random.Random, scale: int) -> list[Request]:
    grid, out = _Grid(), []
    for form in FORMS:
        k = 12 * scale
        word_maxes = grid.log(k, 8, 90)
        r_maxes = grid.log(k, 8, 90)
        pairs = [(w, r_maxes[j]) for w, j in zip(word_maxes, _pairing(k))]
        sets = _sets(rng, form, [w * r for w, r in pairs])
        for (w, r), s in zip(pairs, sets):
            out.append(Request(
                ["check-balanced", "--s", s, "--word-max", str(w), "--r-max", str(r)],
                "check-balanced", form, params={"s": s, "word_max": w, "r_max": r}))
        depths = grid.log(6 * scale, 8, 90)
        for depth, s in zip(depths, _sets(rng, form, depths)):
            out.append(Request(["gibbs", "--s", s, "--depth", str(depth)],
                               "gibbs", form, params={"s": s, "depth": depth, "tol": 1e-10}))
    return out


def _expansions(rng: random.Random, scale: int) -> list[Request]:
    grid, out = _Grid(), []
    tols = (1e-8, 1e-10, 1e-12)

    def entropy(s, form, tol, **extra):
        return Request(["entropy", "--s", s, "--tol", repr(tol)], "entropy", form,
                       params={"s": s, "tol": tol, **extra})

    for form in FORMS:
        for i in range(5 * scale):
            out.append(entropy(_gap_set(rng, form), form, tols[i % 3]))
    lo, hi = SPARSE_PERIODS
    for x in grid.linear(30 * scale, lo, hi + 1):
        p = int(x)
        req = entropy(sparse_gap_set(p), "periodic", 1e-10, period=p)
        req.known_failure = KNOWN_FAILING_PERIODS[0] <= p <= KNOWN_FAILING_PERIODS[1]
        out.append(req)
    for i in range(9 * scale):
        form = FORMS[i % 3]
        s = _gap_set(rng, form)
        out.append(Request(["classify", "--s", s], "classify", form, params={"s": s}))
    for _ in range(4 * scale):
        word = "1" + "".join(rng.choice("01") for _ in range(rng.randint(5, 23)))
        word = "".join(rng.sample(word, len(word)))
        out.append(Request(["bridge", "--digits", word], "bridge", "finite",
                           params={"digits": word, "tol": 1e-10}))
    for _ in range(3 * scale):
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        pat = "1" + "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        out.append(Request(["bridge", "--pre", pre, "--pat", pat], "bridge", "periodic",
                           params={"pre": pre, "pat": pat, "tol": 1e-10}))
    for i in range(3 * scale):
        form = FORMS[i % 3]
        s = _gap_set(rng, form)
        length = rng.randint(8, 40)
        out.append(Request(["bridge", "--s", s, "--length", str(length)], "bridge", form,
                           params={"s": s, "length": length}))
    k = 10 * scale
    depths = grid.linear(k, 8, 49)
    for i, (lam, j) in enumerate(zip(grid.linear(k, 1.3, 1.95), _pairing(k))):
        x = rng.uniform(0.0, 1.0 / (lam - 1.0))
        mode = ("greedy", "lazy")[i % 2]
        depth = int(depths[j])
        out.append(Request(["expand", "--lambda", repr(lam), "--x", repr(x), "--mode", mode,
                            "--depth", str(depth)], "expand",
                           params={"lam": lam, "x": x, "mode": mode, "depth": depth,
                                   "tol": 1e-12}))
    k = 13 * scale
    depths = grid.linear(k, 6, 19)
    for lam, j in zip(grid.linear(k, 1.3, 1.95), _pairing(k)):
        depth = int(depths[j])
        out.append(Request(["enumerate-one", "--lambda", repr(lam), "--depth", str(depth)],
                           "enumerate-one", params={"lam": lam, "depth": depth, "tol": 1e-12}))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    for x in grid.linear(2 * scale, 6, 19):
        depth = int(x)
        out.append(Request(["enumerate-one", "--lambda", repr(golden), "--depth", str(depth)],
                           "enumerate-one", params={"lam": golden, "depth": depth,
                                                    "tol": 1e-12, "golden": True}))
    for i in range(3 * scale):
        tol = tols[i % 3]
        out.append(Request(["kl", "--tol", repr(tol)], "kl", params={"tol": tol}))
    return out


SCALE = {"tables": 2, "followers": 2, "expansions": 6}
BUILDERS = {"tables": _tables, "followers": _followers, "expansions": _expansions}


def build(workload: str, seed: int, scale: int | None = None) -> list[Request]:
    """The workload's request list for a seed, in a seeded order.  scale
    multiplies the number of requests of every kind."""
    index = list(BUILDERS).index(workload)
    rng = random.Random(seed * len(BUILDERS) + index)
    requests = BUILDERS[workload](rng, SCALE[workload] if scale is None else scale)
    rng.shuffle(requests)
    return requests


def describe(workload: str, requests: list[Request]) -> dict:
    """Why the workload exists and its share of requests by command and form."""

    def shares(key):
        tally: dict[str, int] = {}
        for r in requests:
            k = key(r) or "none"
            tally[k] = tally.get(k, 0) + 1
        return {k: round(v / len(requests), 4) for k, v in sorted(tally.items())}

    known = [r for r in requests if r.known_failure]
    meta = {
        "why": WHY[workload],
        "requests": len(requests),
        "share_by_command": shares(lambda r: r.command),
        "share_by_form": shares(lambda r: r.form),
    }
    if workload == "expansions":
        lo, hi = KNOWN_FAILING_PERIODS
        meta["known_failing_slice"] = {
            "what": f"entropy on ep:pre=;pat=0^(p-1),1 with p in {lo}..{hi}: "
            "the solver exits 3",
            "requests": len(known),
        }
    return meta
