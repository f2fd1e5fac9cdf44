"""Finite-depth certification of supermultiplicativity and follower balance.

All verdicts here are explicitly finite-depth observations with witnesses,
never proofs: the underlying properties quantify over all lengths.  The
estimates are exact rationals.

K_estimate is the largest observed counts(m) * counts(n) / counts(m + n);
it is at least 1 because factor languages are submultiplicative.
B_estimate is the smallest observed follower density
|followers(omega, r)| / counts(r); it lies in (0, 1] because an admissible
word always has at least one admissible continuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .blocks import (
    BlockCountTable,
    SizeGuardError,
    _follower_profiles,
    sgap_count_table,
)
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

    # Ratios stay integer pairs (numerator, denominator) compared by
    # cross-multiplying; only the extrema become Fractions.
    best_num, best_den = 0, 1
    witness = None
    anchor_depth = max(1, (3 * depth) // 4)
    anchor = (0, 1)
    for d in range(1, depth + 1):
        # Pairs with max(m, n) == d extend the previous depth's maximum.
        for m in range(1, d + 1):
            num, den = counts[m] * counts[d], counts[m + d]
            if num * best_den > best_num * den:
                best_num, best_den, witness = num, den, (m, d)
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


def almost_specified_floor(table: BlockCountTable, gap_sup: int) -> Fraction:
    """Connector-based lower bound for follower densities.

    For a shift with connector length at most N between any two words, the
    follower density is at least 1 / (1 + counts(1) + ... + counts(N)).
    """
    table.require(gap_sup)
    return Fraction(1, 1 + sum(table.counts[j] for j in range(1, gap_sup + 1)))


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
