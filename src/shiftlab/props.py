"""Finite-depth certification of supermultiplicativity and follower balance.

All verdicts here are explicitly finite-depth observations with witnesses,
never proofs: the underlying properties quantify over all lengths.  The
estimates are exact rationals.

K_estimate is the largest observed counts(m) * counts(n) / counts(m + n);
it is at least 1 because factor languages are submultiplicative.
B_estimate is the smallest observed follower density
|followers(omega, r)| / counts(r); it lies in (0, 1] because an admissible
word always has at least one admissible continuation.

bsm_estimate takes log2 of every count once and, before forming any
big-integer product, scores each pair (m, n) by the float
log2 counts(m) + log2 counts(n) - log2 counts(m + n).  Pairs scoring below
the best score so far minus twice a margin of (1 + max log2 count) * 2**-44
are strictly worse than the best and are skipped, whole rows at a time;
the rest are compared exactly.  The margin is proven larger than the float
error of the scores (see the comment in bsm_estimate), so K, the witness
and the verdict are those of the full exact search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from operator import le, sub

from .blocks import (
    BlockCountTable,
    SizeGuardError,
    _follower_profiles,
    sgap_count_table,
)
# A private name, so the benchmark tracer (which wraps public names) charges
# the 2 * depth calls per bsm_estimate to bsm_estimate itself.
from .entropy import log2_int as _log2_int
from .sgap import SGapSpec

VERDICT_BSM = "ConsistentWithBSM"
VERDICT_BALANCED = "ConsistentWithBalanced"
VERDICT_DECAY = "RatioDecayDetected"
VERDICT_INCONCLUSIVE = "Inconclusive"

# Observed max changing by less than 1% over the last quartile of depths
# counts as stable.
_STABLE_FACTOR = Fraction(101, 100)
_DECAY_FACTOR = 4


@dataclass(frozen=True)
class PropertyReport:
    k_estimate: Fraction | None
    b_estimate: Fraction | None
    depth_tested: int
    verdict: str
    witness: tuple | None = None

    def to_report(self) -> dict:
        out = {"depth_tested": self.depth_tested, "verdict": self.verdict}
        if self.k_estimate is not None:
            out["K_estimate"] = str(self.k_estimate)
            out["K_estimate_float"] = float(self.k_estimate)
        if self.b_estimate is not None:
            out["B_estimate"] = str(self.b_estimate)
            out["B_estimate_float"] = float(self.b_estimate)
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def bsm_estimate(table: BlockCountTable, depth: int) -> PropertyReport:
    """Largest product-over-sum count ratio for lengths up to depth.

    Needs counts up to 2 * depth.  The verdict is consistency, not proof:
    stable maxima over the last quartile of depths read as consistent with
    bounded supermultiplicativity, growing maxima as inconclusive.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    table.require(2 * depth)
    counts = table.counts
    if not all(counts[n] for n in range(2, 2 * depth + 1)):
        raise ZeroDivisionError("block count of zero in the table")

    # Pair (m, d) scores L[m] - L[m + d] + L[d], a float log2 of its ratio;
    # a pair scoring below cut is strictly worse than the best so far, and
    # the strict test below would never let it replace the best.
    #
    # Why.  Let B = 1 + max(L) and let s, s* be the exact log2 ratios of a
    # pair and of the best.  Each L[n] = log2_int(counts[n]) is within
    # 6 * B * 2**-52 of log2 counts[n]: at most 2**-52 from rounding the
    # count (or its top 64 bits, 2**-62 more) to a double, 4 ulp allowed for
    # libm's log2 (common libms stay within 1) and half an ulp for adding
    # the shift, where an ulp of a value below B is at most B * 2**-52.
    # Every float below is a sum of at most three L values and 2 * margin,
    # so at most 3 * B in size, and each of the five roundings (row entry,
    # best_score twice, cut, floor) moves it by at most 1.5 * B * 2**-52.
    # So row[m - 1] < floor gives s < s* - 2 * margin + 43.5 * B * 2**-52,
    # and 2 * margin = B * 2**-43 > 43.5 * B * 2**-52 gives s < s*.
    logs = [0.0] + [_log2_int(counts[n]) for n in range(1, 2 * depth + 1)]
    margin = (1.0 + max(logs)) * 2.0**-44
    cut = best_score = -math.inf

    # Ratios stay integer pairs (numerator, denominator) compared by
    # cross-multiplying; only the extrema become Fractions.
    best_num, best_den = 0, 1
    witness = None
    anchor_depth = max(1, (3 * depth) // 4)
    anchor = (0, 1)
    for d in range(1, depth + 1):
        # Pairs with max(m, n) == d extend the previous depth's maximum;
        # row[m - 1] = L[m] - L[m + d], compared with cut - L[d].
        row = list(map(sub, logs[1 : d + 1], logs[d + 1 : 2 * d + 1]))
        floor = cut - logs[d]
        if max(row) >= floor:
            for m in compress(range(1, d + 1), map(le, repeat(floor), row)):
                num, den = counts[m] * counts[d], counts[m + d]
                if num * best_den > best_num * den:
                    best_num, best_den, witness = num, den, (m, d)
                    best_score = row[m - 1] + logs[d]
            cut = best_score - 2 * margin
        if d == anchor_depth:
            anchor = (best_num, best_den)

    # Stable: best <= anchor * _STABLE_FACTOR.
    stable = (
        best_num * anchor[1] * _STABLE_FACTOR.denominator
        <= anchor[0] * best_den * _STABLE_FACTOR.numerator
    )
    best = Fraction(best_num, best_den)
    return PropertyReport(
        k_estimate=best,
        b_estimate=None,
        depth_tested=depth,
        verdict=VERDICT_BSM if stable else VERDICT_INCONCLUSIVE,
        witness=witness,
    )


def _suffix_run_followers(
    spec: SGapSpec, word_length_max: int, r_max: int, max_cells: int | None
) -> tuple[list[str], list[list[int]]]:
    """One admissible word per follower class, shortest first, with its
    follower counts for lengths 0..r_max.

    The follower structure of a word depends only on whether it contains a
    one and on its trailing zero run, so '1' + zeros and all-zero words
    cover every class realisable within the length budget.
    """
    reps = ["1" + "0" * k for k in range(word_length_max) if spec.tail_allows(k)]
    reps += ["0" * k for k in range(1, word_length_max + 1) if spec.tail_allows(k)]
    if max_cells is not None and len(reps) * r_max > max_cells:
        raise SizeGuardError(
            f"{len(reps) * r_max} follower cells exceed the budget {max_cells}"
        )
    return reps, _follower_profiles(spec, reps, r_max)


def _min_density(reps, profiles, counts, r_max: int) -> PropertyReport:
    """Smallest follower density profile[r] / counts[r] for 1 <= r <= r_max,
    the first one met in word order and then length order."""
    # Densities stay integer pairs compared by cross-multiplying, as in
    # bsm_estimate; None means no pair seen yet.
    best = best_at_half = None
    witness = None
    half = r_max // 2
    for omega, profile in zip(reps, profiles):
        for r in range(1, r_max + 1):
            num, den = profile[r], counts[r]
            if best is None or num * best[1] < best[0] * den:
                best, witness = (num, den), (omega, r)
            if r <= half and (
                best_at_half is None or num * best_at_half[1] < best_at_half[0] * den
            ):
                best_at_half = (num, den)

    if best is None or not 0 < best[0] <= best[1]:
        raise ArithmeticError("smallest follower density outside (0, 1]")
    decayed = (
        half >= 1
        and best_at_half is not None
        and best[0] * _DECAY_FACTOR * best_at_half[1] <= best_at_half[0] * best[1]
    )
    best = Fraction(*best)
    return PropertyReport(
        k_estimate=None,
        b_estimate=best,
        depth_tested=r_max,
        verdict=VERDICT_DECAY if decayed else VERDICT_BALANCED,
        witness=witness,
    )


def balanced_estimate(
    spec: SGapSpec,
    word_length_max: int,
    r_max: int,
    max_cells: int | None = None,
) -> PropertyReport:
    """Smallest observed follower density over suffix-run representatives.

    The verdict flags decay when the running minimum drops by a factor of
    4 or more between half depth and full depth; otherwise the data is
    consistent with a uniform lower bound.
    """
    if r_max < 1 or word_length_max < 1:
        raise ValueError("window sizes must be >= 1")
    reps, profiles = _suffix_run_followers(spec, word_length_max, r_max, max_cells)
    counts = sgap_count_table(spec, r_max).counts
    return _min_density(reps, profiles, counts, r_max)


def almost_specified_floor(table: BlockCountTable, connector_max: int) -> Fraction:
    """Connector-based lower bound for follower densities.

    For a shift in which any two words u, w have a connector v with
    |v| <= N and uvw admissible, the follower density is at least
    1 / (1 + counts(1) + ... + counts(N)); pass that N as connector_max.
    The bound holds only for a true connector bound: the gap supremum is
    not one, since in the shift of {3,10} (gap supremum 7) the shortest
    connector from 10000 to 0^9 1 is 00000010, of length 8.
    """
    table.require(connector_max)
    return Fraction(1, 1 + sum(table.counts[j] for j in range(1, connector_max + 1)))


@dataclass(frozen=True)
class GibbsCell:
    omega: str
    r: int
    k: int
    mu_value: Fraction
    lower: Fraction
    upper: Fraction

    def passes(self) -> bool:
        return self.lower <= self.mu_value <= self.upper


@dataclass
class GibbsDiagnostics:
    """Finite-level cylinder-measure diagnostics.

    ratios holds 2 ** (n * h) / counts(n); each cell compares the level
    measure follower(omega, k) / counts(r + k) of the cylinder of omega
    (|omega| = r) against the band [c1 / counts(r), c2 / counts(r)] built
    from the observed balance and supermultiplicativity constants.
    """

    ratios: dict[int, float] = field(default_factory=dict)
    finite_level_cells: list[GibbsCell] = field(default_factory=list)
    c1: Fraction = Fraction(1)
    c2: Fraction = Fraction(1)

    def all_cells_pass(self) -> bool:
        return all(cell.passes() for cell in self.finite_level_cells)


def gibbs_diagnostics(
    spec: SGapSpec, h: float, depth: int, max_cells: int | None = None
) -> GibbsDiagnostics:
    """Level-n count ratios and cylinder cells for the gap shift."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    window = depth // 2
    reps, profiles = _suffix_run_followers(spec, window, window, max_cells)
    table = sgap_count_table(spec, depth)

    ratios = {n: 2.0 ** (n * h) / table.counts[n] for n in range(1, depth + 1)}
    c2 = bsm_estimate(table, window).k_estimate
    c1 = _min_density(reps, profiles, table.counts, window).b_estimate

    # Sorted words give cells sorted by (omega, r, k): each word has one r.
    cells = []
    for omega, profile in sorted(zip(reps, profiles)):
        r = len(omega)
        lower, upper = c1 / table.counts[r], c2 / table.counts[r]
        for k in range(1, window + 1):
            mu = Fraction(profile[k], table.counts[r + k])
            cells.append(GibbsCell(omega, r, k, mu, lower, upper))
    return GibbsDiagnostics(ratios=ratios, finite_level_cells=cells, c1=c1, c2=c2)
