"""Finite-depth certification of supermultiplicativity and follower balance.

All verdicts here are explicitly finite-depth observations with witnesses,
never proofs: the underlying properties quantify over all lengths.  The
estimates are exact rationals.  Counts pass as the count row
counts[0..n], with counts[0] = 1 for the empty word.

bsm_estimate and balanced_estimate each return a PropertyReport holding
one estimate, a verdict and a witness.  bsm_estimate's estimate is K, the
largest observed counts(m) * counts(n) / counts(m + n); it is at least 1
because factor languages are submultiplicative.  balanced_estimate's is B,
the smallest observed follower density |followers(omega, r)| / counts(r);
it lies in (0, 1] because an admissible word always has at least one
admissible continuation.

gibbs_diagnostics returns a GibbsDiagnostics: the kernel's count row and
follower rows, the band constants c1 = B and c2 = K over its window, and
the iterable of its cells, each built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import le, mul, sub

from .blocks import SizeGuardError, _follower_profiles
from .sgap import SGapSpec

VERDICT_BSM = "ConsistentWithBSM"
VERDICT_BALANCED = "ConsistentWithBalanced"
VERDICT_DECAY = "RatioDecayDetected"
VERDICT_INCONCLUSIVE = "Inconclusive"

# Observed max changing by less than 1% over the last quartile of depths
# counts as stable.
_STABLE_FACTOR = Fraction(101, 100)
_DECAY_FACTOR = 4
# bsm_estimate bounds a row per residue class only when each class holds
# this many of its m: shorter classes cost more to bound and score one by
# one than they save (for gcd 2 and 3 the two break even near 30).
_CLASS_MEMBERS = 30


@dataclass(frozen=True)
class PropertyReport:
    estimate: Fraction
    verdict: str
    witness: tuple


def _extremes(g: list[float], depth: int, period: int) -> tuple[list[float], list[float]]:
    """Per residue class mod period, for period <= depth: top[n], for
    1 <= n <= depth, is the largest g[k] over 1 <= k <= n, and low[n], for
    n <= depth + period, the smallest g[k] over n <= k <= 2 * depth, with
    k = n (mod period) in both.

    One strided accumulate per class builds each; low starts from one
    C-level min over the class's tail past depth + period, the last index
    bsm_estimate reads.
    """
    top, low = g[: depth + 1], g[: depth + period + 1]
    for r in range(1, period + 1):
        top[r::period] = accumulate(g[r : depth + 1 : period], max)
        end = depth + r
        tail = min(g[end::period])
        low[end::-period] = accumulate(g[end - period :: -period], min, initial=tail)
    return top, low


def bsm_estimate(counts: list[int], depth: int, period: int = 1) -> PropertyReport:
    """Largest product-over-sum count ratio for lengths up to depth.

    Needs the count row to 2 * depth.  period sets only the speed: every
    period >= 1 gives the same report.  For an S-gap shift pass the gcd d
    of {n + 1 : n in S}.  Its counts oscillate as c(n) ~ C_(n mod d) *
    lambda**n, so one bound over a whole row mixes the largest C with the
    smallest and rules out few rows.  A row whose residue classes mod d
    hold _CLASS_MEMBERS m or more is bounded class by class, and only the
    classes whose bound reaches the best so far are scored.  The verdict
    is consistency, not proof: stable maxima over the last quartile of
    depths read as consistent with bounded supermultiplicativity, growing
    maxima as inconclusive.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if period < 1:
        raise ValueError("period must be >= 1")
    if len(counts) <= 2 * depth:
        raise ValueError(f"count row stops before length {2 * depth}")
    if not all(counts[1 : 2 * depth + 1]):
        raise ZeroDivisionError("block count of zero in the table")

    # Pair (m, d) scores L[m] - L[m + d] + L[d], a float log2 of its ratio;
    # a pair scoring below cut is strictly worse than the best so far, and
    # the strict test below would never let it replace the best.  So K,
    # the witness and the verdict are those of the full exact search.
    #
    # Why.  Let B = 1 + max(L) and let s, s* be the exact log2 ratios of a
    # pair and of the best.  Each L[n] = math.log2(counts[n]) is within
    # 6 * B * 2**-52 of log2 counts[n]: at most 2**-52 from rounding the
    # count to a double, or past the double range CPython's _PyLong_Frexp
    # mantissa in [0.5, 1) (both correctly rounded), 4 ulp allowed for libm's
    # log2 (common libms stay within 1) and, past that range, half an ulp for
    # adding the exponent, where an ulp of a value below B is at most B * 2**-52.
    # Every float below is a sum of at most three L values and 2 * margin,
    # so at most 3 * B in size, and each of the five roundings (row entry,
    # best_score twice, cut, floor) moves it by at most 1.5 * B * 2**-52.
    # So a row entry below floor gives s < s* - 2 * margin + 43.5 * B * 2**-52,
    # and 2 * margin = B * 2**-43 > 43.5 * B * 2**-52 gives s < s*.
    #
    # Pairs are ruled out by a slope h: with g[n] = L[n] - n*h,
    # L[m] + L[d] - L[m + d] = g[m] + g[d] - g[m + d] for every h.  Let D be
    # the period and take the pairs of row d whose m = m0 (mod D), the class
    # of its first m0, 1 <= m0 <= D, and let e <= d be its last m.  With top
    # and low the _extremes of g mod D, each g[m] is at most top[e], and
    # each g[m + d] is at least low[m0 + d], since m + d >= m0 + d in that
    # class.  So no score of the class exceeds its bound top[e] + g[d] -
    # low[m0 + d].  Only these two memberships are used, so the bound holds
    # for every D >= 1, and for D = 1 it bounds the whole row.  |h| is
    # B / depth at most, up to rounding, so |n*h| < 3 * B and |g[n]| < 4 * B,
    # and two roundings put each g within 3.5 * B * 2**-52 of L[n] - n*h.
    # Its three g and its own two roundings (of sums below 8 * B and
    # 12 * B) leave the float bound at most 20.5 * B * 2**-52 below the
    # exact L[m] + L[d] - L[m + d] of any pair in the class.  Rounding
    # skip = cut - margin, the row entry and floor adds 4.5 * B * 2**-52,
    # and margin = B * 2**-44 exceeds 25 * B * 2**-52: a class whose bound
    # is below skip has every row entry below floor, so skipping it is the
    # float test above rejecting it whole.  Each row is tested by its bound
    # for D = 1, then, from split on, class by class: each kept class is a
    # piece; a tie between pieces goes to the least m.  When the counts
    # settle on c(n) ~ C_(n mod D) * lambda**n the bounds rule out all but
    # a few classes; ratios that tie or creep up to their supremum keep
    # near-ties in every row.
    #
    # Such a row's passing pairs are settled by their exact maximum R of
    # counts[m] / counts[m + d], least m on a tie, and one strict test of
    # R * counts[d] against the best.  Testing the pairs one by one, in
    # ascending m, against the best would end the row at max(best,
    # R * counts[d]), and would move the witness only when R * counts[d]
    # beats the best, to the least m reaching R: a later tie never
    # replaces.  So K, the witness and the verdict are unchanged, at two
    # products per pair instead of three.
    logs = [0.0, *map(math.log2, counts[1 : 2 * depth + 1])]
    margin = (1.0 + max(logs)) * 2.0**-44
    h = (logs[2 * depth] - logs[depth]) / depth
    g = [x - n * h for n, x in enumerate(logs)]
    top, low = _extremes(g, depth, 1)
    # Rows from split on also bound their classes.
    split = period * _CLASS_MEMBERS if period > 1 else depth + 1
    if split <= depth:
        class_top, class_low = _extremes(g, depth, period)
    starts = range(1, period + 1)
    cut = skip = best_score = -math.inf

    # Ratios stay integer pairs (numerator, denominator) compared by
    # cross-multiplying; only the extrema become Fractions.
    best_num, best_den = 0, 1
    witness = None
    anchor_depth = max(1, (3 * depth) // 4)
    anchor = (0, 1)
    for d in range(1, depth + 1):
        # Pairs with max(m, n) == d extend the previous depth's maximum;
        # each row entry L[m] - L[m + d] is compared with cut - L[d].
        if top[d] + g[d] - low[d + 1] >= skip:
            floor = cut - logs[d]
            # The row's pieces (first m, step): the whole row, or the
            # classes whose own bound reaches skip, top at their last m <= d.
            pieces = [(1, 1)]
            if d >= split:
                kept = [
                    (m0, period)
                    for m0 in starts
                    if class_top[d - (d - m0) % period] + g[d] - class_low[m0 + d] >= skip
                ]
                if len(kept) < period:
                    pieces = kept
            # The row's exact maximum of counts[m] / counts[m + d] over the
            # pairs that pass, its least m on a tie; then one test.
            row_num, row_den = 0, 1
            for m0, step in pieces:
                row = list(map(sub, logs[m0 : d + 1 : step], logs[m0 + d : 2 * d + 1 : step]))
                if max(row) >= floor:
                    for m in compress(range(m0, d + 1, step), map(le, repeat(floor), row)):
                        num, den = counts[m], counts[m + d]
                        left, right = num * row_den, row_num * den
                        if left > right or left == right and m < row_m:
                            row_num, row_den, row_m = num, den, m
            if row_num:
                num = row_num * counts[d]
                if num * best_den > best_num * row_den:
                    best_num, best_den, witness = num, row_den, (row_m, d)
                    best_score = logs[row_m] - logs[row_m + d] + logs[d]
                cut = best_score - 2 * margin
                skip = cut - margin
        if d == anchor_depth:
            anchor = (best_num, best_den)

    # Stable: best <= anchor * _STABLE_FACTOR.
    stable = (
        best_num * anchor[1] * _STABLE_FACTOR.denominator
        <= anchor[0] * best_den * _STABLE_FACTOR.numerator
    )
    verdict = VERDICT_BSM if stable else VERDICT_INCONCLUSIVE
    return PropertyReport(Fraction(best_num, best_den), verdict, witness)


def _check_cells(cells: int, max_cells: int | None) -> None:
    """Refuse, before any row is built, a request of more than max_cells
    follower cells."""
    if max_cells is not None and cells > max_cells:
        raise SizeGuardError(f"{cells} follower cells exceed the budget {max_cells}")


def _suffix_runs(spec: SGapSpec, w: int) -> tuple[range, range]:
    """The suffix-run representatives up to length w: the trailing runs k
    of the words '1' + 0^k (ones) and of the all-zero words 0^k (zeros).

    A finite set admits only the runs below q = max + 1.  The ranges
    allocate nothing, so a budget can be checked on their lengths first.
    """
    q, p = spec.run_classes()
    return range(w if p else min(w, q)), range(1, w + 1 if p else min(w + 1, q))


def _class_starts(spec: SGapSpec, ones: range, zeros: range) -> list[tuple[bool, int]]:
    """The first of the _suffix_runs representatives of each follower
    class, as (holds a one, trailing run), in representative order: every
    '1' + zeros before every all-zero word, shorter first.

    Runs past q + p fold onto earlier classes after a one, and all-zero
    words share one class when p > 0.
    """
    q, p = spec.run_classes()
    starts = [(True, run) for run in ones[: q + p]]
    return starts + [(False, run) for run in (zeros[:1] if p else zeros)]


def _min_density(starts, profiles, counts, r_max: int) -> PropertyReport:
    """Smallest follower density profile[r] / counts[r] for 1 <= r <= r_max,
    the first one met in start order and then length order.

    starts are the _class_starts of the profiles.  A later word of a class
    repeats its first word's row, so it never holds a strictly smaller
    density: the first minimum over every word is the one found here.
    """
    # Densities stay integer pairs compared by cross-multiplying, as in
    # bsm_estimate; (1, 0) lies above every density, and every counts[r] is
    # at least 1, so the first cell replaces it.
    best = best_at_half = (1, 0)
    witness = None
    half = r_max // 2
    for start, profile in zip(starts, profiles):
        for r in range(1, r_max + 1):
            num, den = profile[r], counts[r]
            if num * best[1] < best[0] * den:
                best, witness = (num, den), (start, r)
            if r <= half and num * best_at_half[1] < best_at_half[0] * den:
                best_at_half = (num, den)

    if witness is None or not 0 < best[0] <= best[1]:
        raise ArithmeticError("smallest follower density outside (0, 1]")
    decayed = half >= 1 and (
        best[0] * _DECAY_FACTOR * best_at_half[1] <= best_at_half[0] * best[1]
    )
    (has_one, run), r = witness
    verdict = VERDICT_DECAY if decayed else VERDICT_BALANCED
    return PropertyReport(Fraction(*best), verdict, ("1" * has_one + "0" * run, r))


def balanced_estimate(
    spec: SGapSpec,
    word_length_max: int,
    r_max: int,
    max_cells: int | None = None,
) -> PropertyReport:
    """Smallest observed follower density over suffix-run representatives.

    Only the first representative of each follower class is read, so the
    cost is O((q + p) * r_max) whatever word_length_max is, and max_cells
    caps those classes times r_max.  The verdict flags decay when the
    running minimum drops by a factor of 4 or more between half depth and
    full depth; otherwise the data is consistent with a uniform lower bound.
    """
    if r_max < 1 or word_length_max < 1:
        raise ValueError("window sizes must be >= 1")
    starts = _class_starts(spec, *_suffix_runs(spec, word_length_max))
    _check_cells(len(starts) * r_max, max_cells)
    counts, profiles = _follower_profiles(spec, starts, r_max)
    return _min_density(starts, profiles, counts, r_max)


def almost_specified_floor(counts: list[int], connector_max: int) -> Fraction:
    """Connector-based lower bound for follower densities.

    For a shift in which any two words u, w have a connector v with
    |v| <= N and uvw admissible, the follower density is at least
    1 / (1 + counts(1) + ... + counts(N)); pass that N as connector_max.
    The bound holds only for a true connector bound: the gap supremum is
    not one, since in the shift of {3,10} (gap supremum 7) the shortest
    connector from 10000 to 0^9 1 is 00000010, of length 8.
    """
    if len(counts) <= connector_max:
        raise ValueError(f"count row stops before length {connector_max}")
    return Fraction(1, 1 + sum(counts[1 : connector_max + 1]))


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

    ratios holds 2 ** (n * h) / counts(n), finite at any depth; each cell
    (omega, k), with 1 <= k <= window, compares the level measure
    follower(omega, k) / counts(r + k) of the cylinder of omega
    (|omega| = r) against the band [c1 / counts(r), c2 / counts(r)] built
    from the observed balance and supermultiplicativity constants.  reps
    holds every suffix-run representative up to the window in sorted order
    (all-zero words, then '1' + zeros, shorter first) and profiles their
    follower counts for lengths 0..depth as the kernel returns them: words
    of one follower class share one list; cells read lengths 1..window.
    counts is the kernel's count row, counts[n] for n = 0..depth.

    The diagnostics are the iterable of their cells, sorted by (omega, r, k)
    and each built with its Fractions only when read.  Since f <= counts(k)
    and counts(r + k) <= counts(r) * counts(k), every cell passes the band
    of c1 = B_estimate and c2 = K_estimate over the window, which
    gibbs_diagnostics takes: all_cells_pass only cross-checks the integer
    arithmetic and is no evidence of a Gibbs state.
    """

    ratios: dict[int, float]
    c1: Fraction
    c2: Fraction
    window: int
    reps: list[str]
    profiles: list[list[int]]
    counts: list[int]

    def __len__(self) -> int:
        return len(self.reps) * self.window

    def __iter__(self):
        counts = self.counts
        for omega, profile in zip(self.reps, self.profiles):
            r = len(omega)
            lower, upper = self.c1 / counts[r], self.c2 / counts[r]
            for k in range(1, self.window + 1):
                yield GibbsCell(omega, r, k, Fraction(profile[k], counts[r + k]), lower, upper)

    # perfbench/tracing.py reads this on every traced gibbs request.
    @property
    def finite_level_cells(self) -> GibbsDiagnostics:
        return self

    def all_cells_pass(self) -> bool:
        """Whether every cell lies in its band, decided in integers: with
        c1 = a / b, c2 = c / d and f the follower count of the cell,
        a * counts(r + k) <= b * counts(r) * f and
        f * d * counts(r) <= c * counts(r + k), one C-level pass over each
        word's row."""
        w, counts = self.window, self.counts
        a, b = self.c1.numerator, self.c1.denominator
        c, d = self.c2.numerator, self.c2.denominator
        # a * counts(n) and c * counts(n) are shared by every word, so each
        # cell costs two products.
        lows = list(map(mul, repeat(a), counts))
        highs = list(map(mul, repeat(c), counts))
        for omega, profile in zip(self.reps, self.profiles):
            r = len(omega)
            f, base = profile[1 : w + 1], counts[r]
            if not (
                all(map(le, lows[r + 1 : r + w + 1], map(mul, repeat(b * base), f)))
                and all(map(le, map(mul, repeat(d * base), f), highs[r + 1 : r + w + 1]))
            ):
                return False
        return True


def _ratio(nh: float, count: int) -> float:
    """2 ** nh / count, through logarithms only where a double overflows."""
    try:
        return 2.0**nh / count
    except OverflowError:
        return 2.0 ** (nh - math.log2(count))


def gibbs_diagnostics(
    spec: SGapSpec, h: float, depth: int, max_cells: int | None = None
) -> GibbsDiagnostics:
    """Level-n count ratios and cylinder cells for the gap shift."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    window = depth // 2
    # Every admissible '1' + zeros and all-zero word up to the window gets
    # its cells, counted from the range ends: len() overflows past sys.maxsize.
    ones, zeros = _suffix_runs(spec, window)
    _check_cells((ones.stop - ones.start + zeros.stop - zeros.start) * window, max_cells)
    starts = _class_starts(spec, ones, zeros)
    # Sorted representatives: all-zero words, then '1' + zeros.
    runs = [(False, run) for run in zeros] + [(True, run) for run in ones]
    counts, rows = _follower_profiles(spec, runs, depth)
    row_of = dict(zip(runs, rows))  # every class start is one of the runs
    return GibbsDiagnostics(
        ratios={n: _ratio(n * h, counts[n]) for n in range(1, depth + 1)},
        c2=bsm_estimate(counts, window, spec.gcd()).estimate,
        c1=_min_density(starts, map(row_of.get, starts), counts, window).estimate,
        window=window,
        reps=["1" * has_one + "0" * run for has_one, run in runs],
        profiles=rows,
        counts=counts,
    )
