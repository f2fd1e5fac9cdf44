"""Entropy of gap shifts: certified root solving and count-based bounds.

The entropy of the shift of a gap set S is log2 of the unique root in [1, 2]
of the strictly decreasing series

    f(x) = sum over n in S of x ** -(n + 1) ,

since f(2) <= 1 always and f(x) -> |S| > 1 as x -> 1+ whenever S has at
least two members.  Infinite sets are truncated at a depth whose geometric
tail is certified below a tenth of the requested tolerance, so the returned
root carries an explicit residual-plus-tail certificate.

_series and _bisect are the package's one evaluation of such a series and
its one bracket halving: beta.komornik_loreti_constant solves the series of
the parity-doubling digits with both, and beta.ExpansionPrefix.partial_sum
is _series over the positions of its one digits.

For count tables, a shift whose block counts satisfy the bounded
supermultiplicativity inequality with constant K pins its entropy between
(log2 counts(n) - log2 K) / n and log2 counts(n) / n for every n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from fractions import Fraction

from .blocks import BlockCountTable
from .sgap import SGapSpec

DEFAULT_TOL = 1e-10
_MAX_TRUNCATION = 2_000_000
_MIN_TOL = 2.0**-50


class EntropySolveError(ArithmeticError):
    """The requested tolerance could not be certified."""


def log2_int(x: int) -> float:
    """log2 of a positive integer of any size."""
    if x <= 0:
        raise ValueError("log2_int needs a positive integer")
    if x.bit_length() <= 512:
        return math.log2(x)
    shift = x.bit_length() - 64
    return math.log2(x >> shift) + shift


def _log2_real(value) -> float:
    if isinstance(value, Fraction):
        return log2_int(value.numerator) - log2_int(value.denominator)
    if isinstance(value, int):
        return log2_int(value)
    return math.log2(value)


@dataclass(frozen=True)
class EntropyResult:
    """Root of the gap series with its numeric certificate.

    residual is |f(lambda) - 1| over the truncated series at the returned
    lambda; tail_bound bounds the truncation error of the series over the
    whole bracket; residual + tail_bound stays below the requested
    tolerance.
    """

    lam: float
    entropy: float
    residual: float
    tail_bound: float
    iterations: int
    truncation_depth: int | None

    def to_report(self) -> dict:
        return {
            "lambda": self.lam,
            "entropy": self.entropy,
            "log_base": 2.0,
            "residual": self.residual,
            "tail_bound": self.tail_bound,
            "truncation_depth": self.truncation_depth,
        }


def _series(members, lam: float) -> float:
    """sum over n in members of lam ** -(n + 1), rounded once from the
    exact sum (fsum), so the order of the members does not matter."""
    return math.fsum(lam ** (-(n + 1)) for n in reversed(members))


def _series_derivative(members, lam: float) -> float:
    return -math.fsum((n + 1) * lam ** (-(n + 2)) for n in reversed(members))


def _bisect(series, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Halve [lo, hi] around the root of the decreasing series(x) = 1.

    lo moves only to points where the series is above 1, hi only to points
    where it is at most 1.  Stops when the bracket is at most tol / 2 wide
    or its ends are adjacent doubles; returns (lo, hi, halvings).
    """
    steps = 0
    while hi - lo > tol / 2:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        if series(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        steps += 1
    return lo, hi, steps


def solve_sgap_entropy(spec: SGapSpec, tol: float = DEFAULT_TOL) -> EntropyResult:
    """Solve f(lambda) = 1 for the gap set, certified to the tolerance.

    Bisection on the truncated series down to a bracket of width tol / 2,
    then up to five Newton steps clamped inside the bracket.  A singleton
    set has its root exactly at 1 (entropy zero) and is returned directly;
    the full set of naturals has its root exactly at 2.  A tolerance below
    2**-50, four ulps at 1, raises EntropySolveError before any work.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    # The residual is a float near 1, so it carries rounding error of a few
    # ulps at 1 (2**-52 each); below _MIN_TOL it cannot certify anything.
    if tol < _MIN_TOL:
        raise EntropySolveError(f"tolerance {tol:.3e} is below the float floor 2**-50")

    if spec.size() == 1:
        return EntropyResult(1.0, 0.0, 0.0, 0.0, 0, None)
    if spec.is_full():
        return EntropyResult(2.0, 1.0, 0.0, 0.0, 0, None)

    if spec.is_finite():
        members = spec.members_up_to(spec.max_element())
        depth = None
        tail_bound = 0.0
        lo = _shrink_lower_bracket(members, 1.5)
    else:
        probe = spec.members_up_to(512)
        lo = _shrink_lower_bracket(probe, 1.5)
        depth = _truncation_depth(lo, tol)
        members = spec.members_up_to(depth - 1) if depth - 1 >= 0 else []
        tail_bound = lo ** (-depth) / (lo - 1.0)

    hi = 2.0
    if not (_series(members, lo) > 1.0 >= _series(members, hi) - 1e-15):
        raise EntropySolveError("failed to bracket the series root in [1, 2]")

    # The bracket never stalls.  Every double in [1, 2] is a multiple of
    # 2**-52.  While the loop runs, hi - lo > tol / 2 >= 2**-51, so the
    # bracket is at least 3 ulps wide, and mid, within 2**-53 of the true
    # midpoint, lies strictly inside: the adjacent-doubles stop never ends
    # this solve.  A halving leaves at most w / 2 + 2**-53 of a width
    # w <= 1, so at most 52 halvings run, and iterations counts them all.
    # _bisect moves lo only where the series is > 1 and hi only where it is
    # <= 1, so series(lo) > 1 >= series(hi) - 1e-15 holds throughout.
    lo, hi, iterations = _bisect(partial(_series, members), lo, hi, tol)
    x = 0.5 * (lo + hi)
    for _ in range(5):
        fx = _series(members, x) - 1.0
        if abs(fx) < 1e-15:
            break
        dfx = _series_derivative(members, x)
        if dfx == 0.0:
            break
        step = x - fx / dfx
        if not (lo <= step <= hi):
            break
        x = step

    residual = abs(_series(members, x) - 1.0)
    if residual + tail_bound >= tol:
        raise EntropySolveError(
            f"certificate {residual + tail_bound:.3e} not below tolerance {tol:.3e}"
        )
    return EntropyResult(
        lam=x,
        entropy=math.log2(x),
        residual=residual,
        tail_bound=tail_bound,
        iterations=iterations,
        truncation_depth=depth,
    )


def _shrink_lower_bracket(members, start: float) -> float:
    """Largest probed lambda with partial series certifiably above one.

    The partial sum is a lower bound of the full series, so its exceeding
    one certifies the bracket for the infinite set as well.
    """
    lo = start
    while _series(members, lo) <= 1.0:
        lo = 1.0 + (lo - 1.0) / 4.0
        if lo - 1.0 < 1e-15:
            raise EntropySolveError("root is indistinguishable from 1 at float precision")
    return lo


def _truncation_depth(lo: float, tol: float) -> int:
    """Smallest depth N with lo**-N / (lo - 1) below tol / 10."""
    target = tol / 10.0 * (lo - 1.0)
    depth = max(8, math.ceil(-math.log(target) / math.log(lo)) + 1)
    if depth > _MAX_TRUNCATION:
        raise EntropySolveError("truncation depth exceeds budget; root too close to 1")
    return depth


def entropy_bounds_from_counts(
    table: BlockCountTable, K, n: int
) -> tuple[float, float]:
    """Two-sided entropy bounds from a single block count.

    Valid whenever the counts are boundedly supermultiplicative with
    constant K: lower = (log2 counts(n) - log2 K) / n, upper =
    log2 counts(n) / n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if K < 1:
        raise ValueError("the supermultiplicativity constant is >= 1")
    table.require(n)
    l2 = log2_int(table.counts[n])
    return (l2 - _log2_real(K)) / n, l2 / n


def entropy_slope_diagnostic(
    table: BlockCountTable, n_max: int
) -> list[tuple[int, float]]:
    """Per-length upper bounds log2 counts(n) / n on the entropy.

    Submultiplicativity of factor counts makes every value an upper bound
    of the limit and the sequence converge to it from above.
    """
    table.require(n_max)
    return [(n, log2_int(table.counts[n]) / n) for n in range(1, n_max + 1)]
