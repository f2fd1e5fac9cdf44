"""Entropy of gap shifts by certified root solving.

The entropy of the shift of a gap set S is log2 of the unique root in [1, 2]
of the strictly decreasing series

    f(x) = sum over n in S of x ** -(n + 1) ,

since f(2) <= 1 always (a sum of distinct powers of 1/2) and f(x) -> |S| > 1
as x -> 1+ whenever S has at least two members.  The root is the base in
which the digit word of S expands 1 (Parry's beta-expansion of 1).

For S = (preperiod, period) with q = len(preperiod) and p = len(period) the
series has the closed form

    f(x) = A(1/x) + x ** -q * B(1/x) / (1 - x ** -p) ,

where A(y) sums y ** (n + 1) over the preperiod members and B(y) sums
y ** (j + 1) over the period members (B = 0 for a finite set).  One float
evaluation costs O(members of the description), whatever the tolerance and
however close the root lies to 1.  The solver bisects [1, 2] on it, but
first narrows a float bracket around the root by Illinois regula falsi; a
halving whose midpoint lies outside that bracket takes its side without an
evaluation.  While f is unknown at the bracket's lower end, it tries a point
from a model that is exact for one member per period p, whose root is
2**(1/p) (Parry 1960).  At tolerance 1e-10 a solve of {0,2,5,8} takes 13
evaluations where the halvings alone take 36, and one member per period p
from 2 to 1100 takes 6 to 17 where they take 36 to 46.  The bracket and
halving count reported are still those of the bisection.

The final bracket is certified exactly.  With y = 1/x,

    P(y) = (A(y) - 1) * (1 - y ** p) + y ** q * B(y)     (P = A - 1 if finite)

has integer coefficients and, for y in (0, 1), the sign of f - 1.  Its
constant term is -1, so a rational root of P is 1/b for an integer b: no
double in (1, 2) is a root, and the sign of P at a bracket end is decided by
fixed-point interval arithmetic whose working precision doubles, from 128
bits, until the interval excludes 0.  A precision above
_MAX_PRECISION_BITS raises SizeGuardError (CLI exit 4).  A float value
farther than its rounding bound from 1 has the sign of f - 1 at any
double: the float bracket moves an end only on such a value, and bisection
steps whose value lies nearer take the exact sign, so no step leaves the
exact bracket.

_root_bracket is the package's one certified bisection, and it certifies
both ends of its bracket.  It takes a series as two primitives of a double
x: value(x), f(x) in floats with a proven bound on its error, and
interval(x, w), an integer interval holding 2**(2w) times a function with
the sign of f(x) - 1.  _side (the sign a float value proves) and _sign (the
precision loop) are derived from them once, for every series.
solve_sgap_entropy passes the closed form above (_gap_series), whose value
powers each member afresh, since every evaluation has a new base;
beta.komornik_loreti_constant passes _THUE_MORSE, the Thue-Morse digits'
series summed as a product.
beta.ExpansionPrefix.partial_sum sums the same terms lam ** -(j + 1), but
reads them from one power table of its base and length.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress, repeat
from typing import NamedTuple

from .sgap import SGapSpec, SizeGuardError

DEFAULT_TOL = 1e-10
_MIN_TOL = 2.0**-50
# Where f <= 2, the float closed form is off by at most 2**-48 / (1 - x**-p)
# (1 for a finite set): each power and each fsum is within an ulp, 2**-52
# relative, and the denominator 1 - x**-p scales the error of x**-p by
# x**-p / (1 - x**-p).  A value farther than twice that from 1 has the sign
# of f - 1; nearer ones are decided exactly.
_FLOAT_MARGIN = 2.0**-47
_START_PRECISION_BITS = 128
_MAX_PRECISION_BITS = 1 << 16


class EntropySolveError(ArithmeticError):
    """The requested tolerance could not be certified."""


@dataclass(frozen=True)
class EntropyResult:
    """Root of the gap series with its exact bracket.

    f(lambda_lo) > 1 >= f(lambda_hi), both signs decided exactly, so the
    root lies in [lambda_lo, lambda_hi], which is at most the requested
    tolerance wide; lam is the double at its midpoint.  A singleton set
    (root 1) and the full set (root 2) report the root as both ends.
    """

    lam: float
    entropy: float
    lambda_lo: float
    lambda_hi: float
    iterations: int


def _mul(a: tuple[int, int], b: tuple[int, int], w: int) -> tuple[int, int]:
    """Product of two nonnegative fixed-point intervals with w fractional
    bits, its lower end rounded down and its upper end up."""
    return a[0] * b[0] >> w, -(-a[1] * b[1] >> w)


def _power(y: tuple[int, int], k: int, w: int) -> tuple[int, int]:
    result = (1 << w, 1 << w)
    while k:
        if k & 1:
            result = _mul(result, y, w)
        k >>= 1
        if k:
            y = _mul(y, y, w)
    return result


def _reciprocal(x: float, w: int) -> tuple[int, int]:
    """The fixed-point interval of 1/x with w fractional bits, for a
    positive double x, its lower end rounded down and its upper end up."""
    num, den = x.as_integer_ratio()
    return (den << w) // num, -(-(den << w) // num)


class _Series(NamedTuple):
    """A series f, decreasing on (1, 2], by the two primitives the bisection
    reads: value(x) is f(x) in floats with a proven bound on its error, and
    interval(x, w) an integer interval holding 2**(2w) * g(x), where g has
    the sign of f(x) - 1."""

    value: Callable[[float], tuple[float, float]]
    interval: Callable[[float, int], tuple[int, int]]


def _side(series: _Series, x: float) -> tuple[float, int]:
    """f(x) in floats and the sign of f(x) - 1 it proves: +1 or -1 when it
    lies farther than its error bound from 1, else 0."""
    value, bound = series.value(x)
    return value, (value - 1.0 > bound) - (1.0 - value > bound)


def _sign(series: _Series, x: float) -> int:
    """The exact sign of f(x) - 1, +1 or -1: the sign of series.interval(x,
    w) once it excludes 0, its precision w doubling from
    _START_PRECISION_BITS."""
    w = _START_PRECISION_BITS
    while w <= _MAX_PRECISION_BITS:
        low, high = series.interval(x, w)
        if low > 0 or high < 0:
            return 1 if low > 0 else -1
        w *= 2
    raise SizeGuardError(
        f"the sign of the series at {x!r} needs more than "
        f"{_MAX_PRECISION_BITS} bits of precision"
    )


def _gap_series(spec: SGapSpec) -> _Series:
    """The closed form of a gap set's series, its terms built once: the
    exponents -(n + 1) of the members n in the preperiod (head) and in the
    first period copy (cycle, empty for a finite set), each increasing in n.
    value sums each with fsum, rounded once from the exact sum, so the order
    of the terms does not matter; interval holds P(1/lam) * 2**(2w)."""
    q, p = len(spec.preperiod), len(spec.period)
    head = list(compress(range(-1, -q - 1, -1), spec.preperiod))
    cycle = list(compress(range(-q - 1, -q - p - 1, -1), spec.period))

    def value(x: float) -> tuple[float, float]:
        total = math.fsum(map(pow, repeat(x), head))
        if not cycle:
            return total, _FLOAT_MARGIN
        tail = 1.0 - x**-p
        return total + math.fsum(map(pow, repeat(x), cycle)) / tail, _FLOAT_MARGIN / tail

    def interval(lam: float, w: int) -> tuple[int, int]:
        one = 1 << w
        y = _reciprocal(lam, w)
        # y ** (n + 1) for the members in increasing order, each from the
        # last times y to the gap, and the head and cycle sums of them.
        gaps: dict[int, tuple[int, int]] = {}
        power, exponent, sums = (one, one), 0, []
        for exponents in (head, cycle):
            low = high = 0
            for e in exponents:
                gap = -e - exponent
                if gap not in gaps:
                    gaps[gap] = _power(y, gap, w)
                power, exponent = _mul(power, gaps[gap], w), -e
                low, high = low + power[0], high + power[1]
            sums.append((low, high))
        (a_lo, a_hi), (c_lo, c_hi) = sums
        if not cycle:
            return (a_lo - one) << w, (a_hi - one) << w
        s_lo, s_hi = gaps.get(p) or _power(y, p, w)
        ends = [x * z for x in (a_lo - one, a_hi - one) for z in (one - s_hi, one - s_lo)]
        return min(ends) + (c_lo << w), max(ends) + (c_hi << w)

    return _Series(value, interval)


# The Thue-Morse digits t(j), the parity of the ones in the binary digits of
# j, have the series f(x) = sum over j >= 1 of t(j) * x ** -j.  With y = 1/x,
# sum over j >= 0 of (-1) ** t(j) * y ** j = prod over k >= 0 of
# (1 - y ** 2 ** k) (Allouche & Shallit 1999), and (-1) ** t = 1 - 2t, so
#
#     f(x) = (1 / (1 - y) - P(y)) / 2 ,  P(y) = prod over k of (1 - y ** 2 ** k) ,
#
# and f(x) - 1 has the sign of 1 - (1 - y) * (P(y) + 2).  The factors from
# k = K on multiply to R in [0, 1], and with z = y ** 2 ** K to R >= 1 - 2z:
# 1 - R <= z + z**2 + z**4 + ..., which is at most 2z for z <= 1/2.
_THUE_MORSE_FACTORS = 9


def _thue_morse_float(x: float) -> tuple[float, float]:
    """f(x) from the first _THUE_MORSE_FACTORS factors, in floats, and a
    bound on its error, for a double x in (1, 2].

    With u = 2**-53: x - 1 is exact, so 1 / (1 - y) = x / (x - 1) is off
    by at most 2u / (x - 1).  The float y ** 2 ** k is off by at most
    2 ** (k + 1) * u relatively, and 2 ** k * y ** 2 ** k is at most twice
    the sum of y ** n over 2 ** (k - 1) < n <= 2 ** k, so the factors are
    off by at most 4u / (x - 1) + 9u together, and the products add 9u.  The
    difference rounds within 2u / (x - 1); halved, the value is within
    4u / (x - 1) + 9u < 2**-49 / (x - 1) of the truncated series.  The
    truncation moves f by P_K * (1 - R) / 2 <= min(1, 2z) / 2 <= z.  The
    bound 2**-48 / (x - 1) + 2z doubles both, to cover the second-order
    terms and the rounding of z itself.
    """
    y = 1.0 / x
    product = 1.0
    for _ in range(_THUE_MORSE_FACTORS):
        product *= 1.0 - y
        y *= y
    return 0.5 * (x / (x - 1.0) - product), 2.0**-48 / (x - 1.0) + 2.0 * y


def _thue_morse_interval(x: float, w: int) -> tuple[int, int]:
    """An integer interval holding (1 - (1 - y) * (P(y) + 2)) * 2**(2w),
    y = 1/x, for a double x in [1, 2]: factors are taken until z, the next
    factor's power of y, is at most 2**-w, and the omitted ones lie in
    [1 - 2z, 1].  The series diverges at 1, where no factor count bounds
    the product; its sign there is +1."""
    if x == 1.0:
        return 1, 1
    one = 1 << w
    y = _reciprocal(x, w)
    product, z = (one, one), y
    while z[1] > 1:
        product = _mul(product, (one - z[1], one - z[0]), w)
        z = _mul(z, z, w)
    low = (product[0] * (one - 2 * z[1]) >> w) + 2 * one
    high = product[1] + 2 * one
    return one * one - (one - y[0]) * high, one * one - (one - y[1]) * low


# The Thue-Morse digits' series, the one of beta.komornik_loreti_constant.
_THUE_MORSE = _Series(_thue_morse_float, _thue_morse_interval)


def _float_bracket(series: _Series, tol: float) -> tuple[float, float]:
    """(a, b) with a < root < b, every move proven by a float value alone.

    While f(a) is still unknown (a = 1), it steps at most twice to the
    point where log(1 + 1/f) would reach log 2 if it were proportional to
    log x, b ** (log 2 / log1p(1 / f(b))) clamped to at most b - tol / 8;
    for one member per period, f(x) = 1 / (x**p - 1), that is the root
    2**(1/p).  It takes that point when it lies below the midpoint, where
    a halving would move b, or when the clamp holds, and else halves.
    Then it steps by Illinois regula falsi: to the false-position point of
    the ends' values of f - 1, halving the value of an end kept twice in a
    row, or to the midpoint if that point is not strictly inside.  Stops
    when the bracket is at most tol / 4 wide or its ends are adjacent
    doubles, or when a point's value lies within its error bound of 1; the
    points tol / 8 either side of that one may then still move an end.
    """
    a, b, f_b = 1.0, 2.0, series.value(2.0)[0]
    g_a, g_b = math.inf, f_b - 1.0
    moved = 0  # +1 after a move of a, -1 after a move of b
    tries = 2  # model points left while a = 1
    while b - a > tol / 4:
        x = 0.5 * (a + b)
        if g_a < math.inf:
            if a < (y := b - g_b * (b - a) / (g_b - g_a)) < b:
                x = y
        elif tries and f_b > 0.0:  # f(2) underflows to 0 from period 1075 on
            y = min(b ** (math.log(2.0) / math.log1p(1.0 / f_b)), b - tol / 8)
            if a < y < x or y == b - tol / 8:
                x, tries = y, tries - 1
        if not a < x < b:  # a and b are adjacent doubles
            break
        value, side = _side(series, x)
        if not side:
            for y in (x - tol / 8, x + tol / 8):
                side = _side(series, y)[1] if a < y < b and y != x else 0
                if side > 0:
                    a = y
                elif side < 0:
                    b = y
            break
        if side > 0:
            if moved > 0:
                g_b *= 0.5
            a, g_a, moved = x, value - 1.0, 1
        else:
            if moved < 0:
                g_a *= 0.5
            b, g_b, f_b, moved = x, value - 1.0, value, -1
    return a, b


def _root_bracket(series: _Series, tol: float) -> tuple[float, float, int]:
    """Halve [1, 2] around the root of f = 1 and certify both ends.

    Every halving takes the side of the exact sign of f(mid) - 1, so the
    bracket after k halvings is the dyadic cell of width 2**-k that holds
    the root: (lo, hi, halvings) are those of the plain bisection.
    _float_bracket first narrows (a, b) around the root, so a midpoint
    outside (a, b) takes its side unevaluated; one inside takes _side, and
    _sign when the float value proves nothing.  Stops when the bracket is
    at most tol / 2 wide and the float values of f at its ends differ by
    at most tol, or when its ends are adjacent doubles; an end's value is
    the one that moved it, or is evaluated for that test.  f(lo) > 1 and,
    unless hi = 2 (f(2) <= 1 for both series), f(hi) < 1 are checked
    exactly, else EntropySolveError is raised.
    """
    a, b = _float_bracket(series, tol)
    # f tends to |S| >= 2 or to infinity as x -> 1+, so lo = 1 lies above
    # the root; f_lo = inf keeps the bisection going until lo has moved.
    lo, hi, f_lo, f_hi, steps = 1.0, 2.0, math.inf, None, 0
    while True:
        if hi - lo <= tol / 2:
            if f_lo is None:
                f_lo = series.value(lo)[0]
            if f_hi is None:
                f_hi = series.value(hi)[0]
            if f_lo - f_hi <= tol:
                break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        if mid <= a:
            lo, f_lo = mid, None
        elif mid >= b:
            hi, f_hi = mid, None
        else:
            value, side = _side(series, mid)
            if side > 0 or not side and _sign(series, mid) > 0:
                lo, f_lo = mid, value
            else:
                hi, f_hi = mid, value
        steps += 1
    if _sign(series, lo) < 0 or hi < 2.0 and _sign(series, hi) > 0:
        raise EntropySolveError(f"bracket [{lo!r}, {hi!r}] failed its exact sign check")
    return lo, hi, steps


def solve_sgap_entropy(spec: SGapSpec, tol: float = DEFAULT_TOL) -> EntropyResult:
    """Solve f(lambda) = 1 for the gap set, with an exact bracket.

    The bracket is _root_bracket's on the closed form: at most tol / 2
    wide, both ends' signs checked exactly.  A singleton set has its root
    exactly at 1 (entropy zero) and the full set of naturals at 2; both are
    returned directly.  A tolerance below 2**-50, four ulps at 1, raises
    EntropySolveError before any evaluation, and a NaN one ValueError.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    # Doubles in [1, 2) lie 2**-52 apart and float values of f near 1 are a
    # few ulps of 1 off, so below _MIN_TOL neither stop can be promised.
    if tol < _MIN_TOL:
        raise EntropySolveError(f"tolerance {tol:.3e} is below the float floor 2**-50")

    if spec.size() == 1:
        return EntropyResult(1.0, 0.0, 1.0, 1.0, 0)
    if spec.is_full():
        return EntropyResult(2.0, 1.0, 2.0, 2.0, 0)

    lo, hi, iterations = _root_bracket(_gap_series(spec), tol)
    lam = 0.5 * (lo + hi)
    return EntropyResult(lam, math.log2(lam), lo, hi, iterations)
