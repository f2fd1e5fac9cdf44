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
flag's entry and maps y to lambda * y - d.

A prefix's report costs no Python call per digit: its digit word is one
bytes.translate of the 0/1 digits, and its partial sums fsum the one
positions' weights out of one power table per base and length, cached, so
that every leaf of a tree shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress, cycle, islice
from typing import NamedTuple

from . import sgap
from .entropy import _MAX_PRECISION_BITS, _MIN_TOL, _exact_sign, _gap_terms, _root_bracket
from .sgap import SGapSpec

FORCED0 = "forced0"
FORCED1 = "forced1"
SWITCH = "switch"
AMBIGUOUS = "ambiguous"

# The digits each switch-region reading admits, smallest first.
_DIGITS = {FORCED0: (0,), FORCED1: (1,), SWITCH: (0, 1), AMBIGUOUS: (0, 1)}
# Digit bytes 0 and 1 as the characters "0" and "1".
_DIGIT_CHARS = bytes.maketrans(b"\0\1", b"01")


# Typed, since 1.5 == Fraction(3, 2) but the powers of one are floats and
# of the other exact fractions, which can round differently.
@lru_cache(maxsize=8, typed=True)
def _powers(lam, length: int) -> tuple:
    """lam ** -(j + 1) for j < length: the weight of each digit position,
    shared by every prefix of one base."""
    return tuple(lam ** -(j + 1) for j in range(length))


class LeafBudgetError(sgap.SizeGuardError):
    """Tree enumeration exhausted its leaf budget; partial leaves attached."""

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

    # Computed on first read and kept: region_of reads them on every step.
    @cached_property
    def interval_right(self) -> float:
        return 1.0 / (self.lam - 1.0)

    @cached_property
    def switch_lo(self) -> float:
        return 1.0 / self.lam

    @cached_property
    def switch_hi(self) -> float:
        return 1.0 / (self.lam * (self.lam - 1.0))

    def region_of(self, y: float) -> str:
        """Three-way switch-region test with the ambiguity band."""
        tol = self.membership_tol
        if abs(y - self.switch_lo) <= tol or abs(y - self.switch_hi) <= tol:
            return AMBIGUOUS
        if y < self.switch_lo:
            return FORCED0
        if y > self.switch_hi:
            return FORCED1
        return SWITCH

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

    @property
    def ambiguous(self) -> bool:
        return AMBIGUOUS in self.flags

    def digit_word(self) -> str:
        return bytes(self.digits).translate(_DIGIT_CHARS).decode()

    def partial_sum(self, upto: int | None = None) -> float:
        """sum of digit j * lam ** -j over the first upto digits (all by
        default): the weights of the one positions from the base's power
        table, rounded once from the exact sum (fsum)."""
        table = _powers(self.lam, len(self.digits))
        return math.fsum(compress(table, self.digits[:upto]))

    def residual(self) -> float:
        return abs(self.start - self.partial_sum())


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
    return ExpansionPrefix(lam, x, tuple(digits), tuple(orbit), tuple(flags))


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
    ctx: BetaContext, depth: int, max_leaves: int = 4096
) -> list[ExpansionPrefix]:
    """Depth-first tree of digit choices for expansions of 1.

    Both digits are explored inside the switch region and within tolerance
    of its endpoints (the closed region genuinely branches at endpoints);
    near-endpoint steps mark the prefix ambiguous.  Children whose orbit
    leaves the interval beyond a small slack are dropped, which is how
    spurious ambiguous branches die out.  Leaves come back in digit
    lexicographic order, so the first is the lazy expansion of 1 and the
    last the greedy one.
    """
    if not (1 <= depth <= 64):
        raise ValueError("depth must be in 1..64")
    if max_leaves < 1:
        raise ValueError("max_leaves must be >= 1")
    slack = max(8.0 * ctx.membership_tol, 1e-10)
    low, high = -slack, ctx.interval_right + slack
    lam, region_of, last = ctx.lam, ctx.region_of, depth - 1
    leaves: list[ExpansionPrefix] = []
    # The path from the root, one stack each: pushed on the way down and
    # popped on the way back; a leaf's tuples are the stacks plus its last
    # step.
    digits, orbit, flags = [], [], []

    def grow(y: float):
        flag = region_of(y)
        at_leaf = len(digits) == last
        scaled = lam * y
        for digit in _DIGITS[flag]:
            child = scaled - digit
            if not low <= child <= high:
                continue
            if not at_leaf:
                digits.append(digit)
                orbit.append(child)
                flags.append(flag)
                grow(child)
                digits.pop()
                orbit.pop()
                flags.pop()
            elif len(leaves) < max_leaves:
                leaf = ExpansionPrefix(lam, 1.0, (*digits, digit), (*orbit, child), (*flags, flag))
                leaves.append(leaf)
            else:
                raise LeafBudgetError(f"leaf budget {max_leaves} exhausted", leaves)

    grow(1.0)
    return leaves


def thue_morse(n: int) -> int:
    """n-th bit of the parity-doubling sequence, t(2i) = t(i) and
    t(2i+1) = 1 - t(i): the parity of the ones in the binary digits of n."""
    if n < 0:
        raise ValueError("index must be a natural")
    return bin(n).count("1") & 1


_KL_SERIES_TERMS = 256


def komornik_loreti_constant(tol: float = 1e-12) -> float:
    """Root of sum_j t(j) * lambda**-j = 1 over the parity-doubling bits.

    This is the smallest base in which 1 has a unique binary expansion.  The
    digits t(1..256), read as a gap set (a digit word is its set's
    characteristic bits), go through the entropy solver's certified
    bisection, entropy._root_bracket, down to tol / 2 or adjacent doubles:
    their series exceeds 1 at lo, and so does the full series, which only
    adds terms.  At hi the set that adds every position after 256 has a
    series above the full one and above the 256 digits' one, and its exact
    sign must be negative, or ArithmeticError is raised; so the constant
    lies in [lo, hi], and hi needs no sign of its own.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    bits = [thue_morse(j) for j in range(1, _KL_SERIES_TERMS + 1)]
    lo, hi, _ = _root_bracket(_gap_terms(sgap.periodic_gaps(bits, [0])), tol)
    if _exact_sign(_gap_terms(sgap.periodic_gaps(bits, [1])), hi) > 0:
        raise ArithmeticError(f"the series tail may exceed 1 at {hi!r}")
    return 0.5 * (lo + hi)


def sgap_from_expansion(digits, length: int | None = None) -> SGapSpec:
    """Gap set of a digit sequence: n is a member iff digit n + 1 is one.

    digits is either a finite 0/1 word (optionally truncated to length) or
    a (preperiod, period) pair of 0/1 words for an eventually periodic
    sequence.  Because members are digit positions shifted down by one, the
    characteristic bits of the set are the digit word itself.  Every word
    is checked to be binary before any digit is read.
    """
    pair = isinstance(digits, tuple)
    words = digits if pair else (str(digits)[:length],)
    if any(ch not in "01" for word in words for ch in word):
        raise ValueError("digit word must be binary")
    if pair:
        return sgap.periodic_gaps(*words)
    members = [j - 1 for j, ch in enumerate(words[0], start=1) if ch == "1"]
    if not members:
        raise sgap.EmptySetError("digit word with no ones encodes the empty set")
    return sgap.explicit_gaps(members)


def expansion_from_sgap(spec: SGapSpec, length: int) -> str:
    """Indicator digit word of a gap set: digit j is one iff j - 1 is a member.

    The digits are the set's characteristic bits, the preperiod followed by
    the cycled period, read straight off the description.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    bits = islice(chain(spec.preperiod, cycle(spec.period)), length)
    return bytes(bits).translate(_DIGIT_CHARS).decode()


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
    if _exact_sign(_gap_terms(spec), lam - tol) <= 0:
        raise ArithmeticError(f"the gap series at {lam - tol!r} failed its exact sign check")
    return spec
