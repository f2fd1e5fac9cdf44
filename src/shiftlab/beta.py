"""Binary expansions in a non-integer base lambda in (1, 2).

Digits act through the maps T0(x) = lambda * x and T1(x) = lambda * x - 1
on the interval [0, 1/(lambda-1)].  A point has a digit choice exactly when
it lies in the switch region [1/lambda, 1/(lambda*(lambda-1))]; the greedy
expansion always takes the largest admissible digit and the lazy expansion
the smallest.

Floating point cannot decide membership at the region's endpoints, so every
branch test is three-way: strictly inside, strictly outside, or within
membership_tol of an endpoint.  One table, _DIGITS, maps each reading to
the digits it admits: greedy takes its last entry, lazy its first, and tree
enumeration explores all of them.  Near-endpoint steps therefore keep the
mathematically closed-endpoint digit (greedy 1, lazy 0) and are flagged as
ambiguous rather than silently resolved, while the tree lets impossible
branches die when their orbit leaves the interval.  Greedy and lazy are one
walk, _expand, that reads the flag, takes the digit at its end of the
flag's entry and maps y to lambda * y - d.  The three-way test is one
function per base, BetaContext.region_of, built on first use with the
tolerance and the region's ends bound; the walk and the tree both call it.
The tree writes its path in place, step k at index k of three lists, and
hands the lists to a leaf builder at each leaf, which copies what it keeps:
by default _prefix, which _expand also uses, makes the ExpansionPrefix; a
caller that wants only a report passes a builder that makes the report
instead, so no prefix is built for it.

A report costs no Python call per digit: its digit word, _digit_text, is one
bytes.translate of the 0/1 digits, and its sums, _one_weight_sum, fsum the
one positions' weights out of a power table of the base and length,
_powers, which a report builder fetches once per tree for all its leaves.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress, cycle, islice
from typing import NamedTuple

from . import sgap
from .entropy import (
    _MAX_PRECISION_BITS,
    _MIN_TOL,
    _THUE_MORSE,
    _gap_series,
    _root_bracket,
    _sign,
)
from .sgap import SGapSpec

FORCED0 = "forced0"
FORCED1 = "forced1"
SWITCH = "switch"
AMBIGUOUS = "ambiguous"

# The digits each switch-region reading admits, smallest first.
_DIGITS = {FORCED0: (0,), FORCED1: (1,), SWITCH: (0, 1), AMBIGUOUS: (0, 1)}
# Digit bytes 0 and 1 as the characters "0" and "1".
_DIGIT_CHARS = bytes.maketrans(b"\0\1", b"01")


def _powers(lam, length: int) -> tuple:
    """lam ** -(j + 1) for j < length: the weight of each digit position."""
    return tuple(lam ** -(j + 1) for j in range(length))


def _digit_text(digits) -> str:
    """The 0/1 digits as a word of the characters "0" and "1"."""
    return bytes(digits).translate(_DIGIT_CHARS).decode()


def _one_weight_sum(weights, digits) -> float:
    """The sum of the weights at the one digits, rounded once (fsum)."""
    return math.fsum(compress(weights, digits))


class LeafBudgetError(sgap.SizeGuardError):
    """Tree enumeration exhausted its leaf budget; partial holds the records
    its leaf builder made for the leaves before the budget ran out."""

    def __init__(self, message: str, partial: list):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class BetaContext:
    """Base lambda with its interval and switch-region endpoints."""

    lam: float
    membership_tol: float = 1e-12

    def __post_init__(self):
        if not (1.0 < self.lam < 2.0):
            raise ValueError("base must lie strictly between 1 and 2")
        if not self.membership_tol >= 0.0:
            raise ValueError("membership tolerance must be >= 0")

    # Computed on first read and kept, like the region test bound to them.
    @cached_property
    def interval_right(self) -> float:
        return 1.0 / (self.lam - 1.0)

    @cached_property
    def switch_lo(self) -> float:
        return 1.0 / self.lam

    @cached_property
    def switch_hi(self) -> float:
        return 1.0 / (self.lam * (self.lam - 1.0))

    @cached_property
    def region_of(self) -> Callable[[float], str]:
        """The three-way switch-region test with the ambiguity band, y to
        its flag: one function per base, with the tolerance and the region's
        ends bound, so a step reads no attribute."""
        tol, lo, hi = self.membership_tol, self.switch_lo, self.switch_hi

        def region_of(y: float) -> str:
            if abs(y - lo) <= tol or abs(y - hi) <= tol:
                return AMBIGUOUS
            if y < lo:
                return FORCED0
            if y > hi:
                return FORCED1
            return SWITCH

        return region_of

    def require_in_interval(self, x: float) -> None:
        tol = max(self.membership_tol, 1e-12)
        if not (-tol <= x <= self.interval_right + tol):
            raise ValueError(
                f"{x!r} outside [0, {self.interval_right!r}] for base {self.lam!r}"
            )


class ExpansionPrefix(NamedTuple):
    """A finite digit word with its orbit and per-step branch annotations.

    orbit[k] is the image of start after the first k + 1 digits; flags[k]
    describes the switch-region position of the point the k-th digit was
    read from.

    A named tuple: immutable, equal and hashed by its fields, and built by
    one tuple construction, so a digit tree's leaves cost no per-field
    attribute store.
    """

    lam: float
    start: float
    digits: tuple[int, ...]
    orbit: tuple[float, ...]
    flags: tuple[str, ...]

    def digit_word(self) -> str:
        return _digit_text(self.digits)

    def partial_sum(self, upto: int | None = None) -> float:
        """sum of digit j * lam ** -j over the first upto digits (all by
        default): the weights of the one positions from the base's power
        table, rounded once from the exact sum (fsum)."""
        digits = self.digits if upto is None else self.digits[:upto]
        return _one_weight_sum(_powers(self.lam, len(self.digits)), digits)

    def residual(self) -> float:
        return abs(self.start - self.partial_sum())


def _prefix(lam: float, start: float, digits, orbit, flags) -> ExpansionPrefix:
    """The prefix from start in base lam along the path lists digits, orbit
    and flags, copied into tuples."""
    return ExpansionPrefix(lam, start, tuple(digits), tuple(orbit), tuple(flags))


def _expand(x: float, ctx: BetaContext, depth: int, end: int) -> ExpansionPrefix:
    """depth steps from x, each taking the digit at index end of the digits
    its flag admits: -1 for greedy, 0 for lazy."""
    ctx.require_in_interval(x)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lam, region_of, y = ctx.lam, ctx.region_of, x
    digits, orbit, flags = [], [], []
    for _ in range(depth):
        flag = region_of(y)
        digit = _DIGITS[flag][end]
        y = lam * y - digit
        digits.append(digit)
        orbit.append(y)
        flags.append(flag)
    return _prefix(lam, x, digits, orbit, flags)


def greedy_expansion(x: float, ctx: BetaContext, depth: int) -> ExpansionPrefix:
    """Largest-digit expansion: digit 1 whenever the point allows it."""
    return _expand(x, ctx, depth, -1)


def lazy_expansion(x: float, ctx: BetaContext, depth: int) -> ExpansionPrefix:
    """Smallest-digit expansion: digit 0 whenever the point allows it."""
    return _expand(x, ctx, depth, 0)


def max_zero_run_bound(delta: float, ctx: BetaContext) -> int:
    """Smallest N whose N-fold zero action escapes the interval from delta.

    Any expansion whose orbit stays strictly above delta has all zero runs
    shorter than the returned N: after N zero digits the point would exceed
    the right interval endpoint.
    """
    if not (0.0 < delta <= ctx.interval_right):
        raise ValueError("delta must lie in (0, interval_right]")
    right = ctx.interval_right
    value = delta
    for n in range(1, 4096):
        value *= ctx.lam
        # Ulp-scale slack so an exact endpoint ratio (delta = right / lam)
        # still counts as reaching the boundary after one step.
        if value >= right * (1.0 - 1e-14):
            return n
    raise ArithmeticError("zero-run bound did not converge within 4096 steps")


def enumerate_expansions_of_one(
    ctx: BetaContext,
    depth: int,
    max_leaves: int = 4096,
    leaf: Callable[[list, list, list], object] | None = None,
) -> list:
    """Depth-first tree of digit choices for expansions of 1: the record
    leaf(digits, orbit, flags) makes of each leaf, in digit lexicographic
    order, so the first leaf is the lazy expansion of 1 and the last the
    greedy one.

    Both digits are explored inside the switch region and within tolerance
    of its endpoints (the closed region genuinely branches at endpoints);
    near-endpoint steps are flagged ambiguous.  Children whose orbit leaves
    the interval beyond a small slack are dropped, which is how spurious
    ambiguous branches die out.

    leaf gets the walk's path lists, each of length depth, as they stand at
    the leaf: digits[k], orbit[k] and flags[k] are the digit, the image and
    the flag of step k, as in ExpansionPrefix.  The walk overwrites the
    lists after the call, so leaf must copy what it keeps.  By default the
    record is the leaf's ExpansionPrefix from 1 in base ctx.lam.  When the
    budget of max_leaves records runs out, the LeafBudgetError raised holds
    in partial the records made so far, the first max_leaves of the tree's.
    """
    if not (1 <= depth <= 64):
        raise ValueError("depth must be in 1..64")
    if max_leaves < 1:
        raise ValueError("max_leaves must be >= 1")
    slack = max(8.0 * ctx.membership_tol, 1e-10)
    low, high = -slack, ctx.interval_right + slack
    lam, region_of, last = ctx.lam, ctx.region_of, depth - 1
    if leaf is None:
        leaf = partial(_prefix, lam, 1.0)
    leaves = []
    # The path from the root, written in place: step k's digit, orbit point
    # and flag at index k, handed to leaf at each leaf.
    digits, orbit, flags = [0] * depth, [0.0] * depth, [""] * depth

    def grow(y: float, k: int):
        flags[k] = flag = region_of(y)
        scaled = lam * y
        for digit in _DIGITS[flag]:
            child = scaled - digit
            if not low <= child <= high:
                continue
            digits[k] = digit
            orbit[k] = child
            if k < last:
                grow(child, k + 1)
            elif len(leaves) < max_leaves:
                leaves.append(leaf(digits, orbit, flags))
            else:
                raise LeafBudgetError(f"leaf budget {max_leaves} exhausted", leaves)

    grow(1.0, 0)
    return leaves


def komornik_loreti_constant(tol: float = 1e-12) -> float:
    """Root of sum_j t(j) * lambda**-j = 1 over the Thue-Morse digits t(j),
    the parity of the ones in the binary digits of j.

    This is the smallest base in which 1 has a unique binary expansion
    (Komornik & Loreti 1998).  The full series, summed as a product
    (entropy._THUE_MORSE), goes through the entropy solver's certified
    bisection, entropy._root_bracket, down to tol / 2 or adjacent doubles.
    It checks exactly that the series exceeds 1 at lo and is below 1 at hi
    (unless hi = 2), else raises EntropySolveError, an ArithmeticError.  So
    the constant lies in [lo, hi], and the midpoint is returned.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    lo, hi, _ = _root_bracket(_THUE_MORSE, tol)
    return 0.5 * (lo + hi)


def sgap_from_expansion(digits, length: int | None = None) -> SGapSpec:
    """Gap set of a digit sequence: n is a member iff digit n + 1 is one.

    digits is either a finite 0/1 word (optionally truncated to length) or
    a (preperiod, period) pair of 0/1 words for an eventually periodic
    sequence.  Because members are digit positions shifted down by one, the
    characteristic bits of the set are the digit word itself, then zeros if
    finite.  Every word is checked to be binary before any digit is read.
    """
    pair = isinstance(digits, tuple)
    words = digits if pair else (str(digits)[:length].rstrip("0"), "0")
    if any(ch not in "01" for word in words for ch in word):
        raise ValueError("digit word must be binary")
    if not pair and not words[0]:
        raise sgap.EmptySetError("digit word with no ones encodes the empty set")
    return sgap.periodic_gaps(*words)


def expansion_from_sgap(spec: SGapSpec, length: int) -> str:
    """Indicator digit word of a gap set: digit j is one iff j - 1 is a member.

    The digits are the set's characteristic bits, the preperiod followed by
    the cycled period, read straight off the description.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    bits = islice(chain(spec.preperiod, cycle(spec.period)), length)
    return _digit_text(bits)


def specified_gap_set(lam: float, tol: float) -> SGapSpec:
    """A finite S with lam - tol < lambda_S <= lam whose shift has specification.

    j is in S when digit j + 1 of the greedy expansion of 1 in base lam is
    1, up to the first N with lam**-N / (lam - 1) < tol / 4.  The remainder
    r_j after j digits is an integer over den**j (lam = num / den), so each
    digit is exact.  1 = f_S(lam) + r_N*lam**-N with r_N in [0, 1), so
    f_S(lam) <= 1 and 1 - f_S(lam) < tol / 4.  The first digit is 1, so 0
    is in S, f_S(lam - tol) - f_S(lam) >= 1/(lam - tol) - 1/lam > tol / 4,
    and one exact sign checks f_S > 1 at lam - tol.  A finite S holding 0
    has gcd 1, so it gives a mixing SFT, which has specification.  Raises
    ValueError for lam outside (1, 2) or tol outside [2**-50, lam - 1),
    SizeGuardError before any digit when N times the bits of den exceeds
    _MAX_PRECISION_BITS, and ArithmeticError on a failed sign.
    """
    if not (1.0 < lam < 2.0 and _MIN_TOL <= tol < lam - 1.0):
        raise ValueError(f"need 1 < lam < 2 and 2**-50 <= tol < lam - 1, not {lam!r}, {tol!r}")
    num, den = lam.as_integer_ratio()
    n = math.floor(math.log(4.0 / (tol * (lam - 1.0)), lam)) + 1
    if n * den.bit_length() > _MAX_PRECISION_BITS:
        raise sgap.SizeGuardError(f"{n} greedy digits of 1 in base {lam!r} are too many")
    members, rem, scale = [], 1, 1  # the remainder is rem / scale
    for j in range(n):
        rem, scale = rem * num, scale * den
        if rem >= scale:
            rem -= scale
            members.append(j)
    spec = sgap.explicit_gaps(members)
    if _sign(_gap_series(spec), lam - tol) <= 0:
        raise ArithmeticError(f"the gap series at {lam - tol!r} failed its exact sign check")
    return spec
