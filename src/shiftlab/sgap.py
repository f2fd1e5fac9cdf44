"""Finite descriptions of gap sets and the classification of their shifts.

A gap set S is a nonempty set of naturals (0 included).  The associated
binary shift consists of the bi-infinite sequences in which the length of
every maximal zero run between successive ones lies in S.  Every gap set
described here is one value: an eventually periodic characteristic sequence
(preperiod, period), bit n set iff n in S.  It has three text forms, and
render() picks the first that fits:

* a finite set, period (0,)          ``{0,2,5}``
* a cofinite set, period (1,)        ``co{3}``       (``co{}`` is all naturals)
* any other set                      ``ep:pre=1,0;pat=0,1``

Each value is the shortest description of its set (periodic_gaps), so
equal values are equal sets and render() prints one text per set.  The
empty set is rejected, and a description longer than DESCRIPTION_BIT_LIMIT
bits raises SizeGuardError before it is built.  This keeps every
classification predicate decidable by finite inspection.

Parsing costs time linear in the text, with no Python loop over the bits of
an ep: description: a regular expression checks the grammar, and each bit
list becomes a byte string by one slice (a bit sits at every even offset)
and one bytes.translate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count, cycle
from math import gcd
from operator import not_, sub


class SpecSyntaxError(ValueError):
    """The gap-set text does not conform to the grammar."""


class EmptySetError(ValueError):
    """The description encodes the empty set."""


class SizeGuardError(RuntimeError):
    """An enumeration, determinisation or description budget was exceeded."""


# Largest len(preperiod) + len(period) a description may have; parse,
# classify and render all cost time linear in it.
DESCRIPTION_BIT_LIMIT = 1 << 20


@dataclass(frozen=True)
class SGapSpec:
    """A gap set as an eventually periodic characteristic sequence.

    Bit n of preperiod + period + period + ... is set iff n is in S.  Only
    periodic_gaps builds one: its period is primitive and its preperiod is
    empty or ends in a bit unlike the period's last, so a finite set has
    period (0,) and a cofinite one period (1,).
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def is_finite(self) -> bool:
        return self.period == (0,)

    def is_full(self) -> bool:
        """True iff the set is all of the naturals."""
        return not self.preperiod and self.period == (1,)

    def size(self) -> int | None:
        """Number of members for finite sets, None for infinite ones."""
        return sum(self.preperiod) if self.is_finite() else None

    def members_up_to(self, bound: int) -> list[int]:
        """Exactly the members <= bound, in increasing order."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        q = len(self.preperiod)
        members = list(compress(range(min(q, bound + 1)), self.preperiod))
        if bound >= q and not self.is_finite():
            members.extend(compress(range(q, bound + 1), cycle(self.period)))
        return members

    def run_classes(self) -> tuple[int, int]:
        """Zero-run classes (q, p) of the counting DP.

        Runs r < q are told apart exactly; a run r >= q behaves like
        q + (r - q) % p, both as a member and as a boundary run.  p == 0
        only for finite sets, where q = max + 1 and no run of length q or
        more is admissible; for infinite sets every boundary run is.
        """
        q = len(self.preperiod)
        return q, 0 if self.is_finite() else len(self.period)

    def gcd(self) -> int:
        """gcd{n + 1 : n in S}, read off the bits below q + 2p.

        For an infinite set they hold some member n >= q and n + p, so the
        gcd divides p and every later member's n + 1.
        """
        return gcd(*compress(count(1), self.preperiod + self.period * 2))

    def render(self) -> str:
        """The shortest text form: {..} if finite, co{..} if cofinite,
        ep:pre=..;pat=.. otherwise."""
        if self.is_finite():
            return "{" + _join(compress(count(), self.preperiod)) + "}"
        if self.period == (1,):
            holes = map(not_, self.preperiod)
            return "co{" + _join(compress(count(), holes)) + "}"
        return f"ep:pre={_join(self.preperiod)};pat={_join(self.period)}"


def _join(values) -> str:
    return ",".join(map(str, values))


def _check_size(bits: int) -> None:
    if bits > DESCRIPTION_BIT_LIMIT:
        raise SizeGuardError(
            f"gap-set description of {bits} bits exceeds the limit "
            f"{DESCRIPTION_BIT_LIMIT}"
        )


def _marked(length: int, fill: int, positions) -> SGapSpec:
    """length bits equal to fill, flipped at the given positions, then fill."""
    _check_size(length + 1)
    bits = bytearray([fill]) * length
    for n in positions:
        bits[n] = 1 - fill
    return periodic_gaps(bytes(bits), bytes([fill]))


def explicit_gaps(values) -> SGapSpec:
    """The finite set of the given naturals; it must be nonempty."""
    elems = set(int(v) for v in values)
    if not elems:
        raise EmptySetError("gap set must be nonempty")
    if min(elems) < 0:
        raise SpecSyntaxError("gap set members must be naturals")
    return _marked(max(elems) + 1, 0, elems)


def cofinite_gaps(excluded) -> SGapSpec:
    """All naturals except the given ones."""
    excl = set(int(v) for v in excluded)
    if excl and min(excl) < 0:
        raise SpecSyntaxError("excluded values must be naturals")
    return _marked(max(excl, default=-1) + 1, 1, excl)


# Byte 0 to bit 0 and every other byte to bit 1.
_BYTE_BITS = bytes([0]) + bytes([1]) * 255


def periodic_gaps(preperiod, period) -> SGapSpec:
    """The shortest description of an eventually periodic set.

    The period is cut to its primitive root, and the preperiod before its
    trailing bits that the period continues backwards, the period turning
    with them.  So an all-zero period gives the finite form (rejected when
    it has no member) and an all-one period the cofinite form.
    """
    _check_size(len(preperiod) + len(period))
    # Each bit is read as a number and becomes 0 or 1; a byte string does
    # so in one translate, and any other sequence bit by bit.
    pre, pat = (
        bits.translate(_BYTE_BITS) if isinstance(bits, bytes) else bytes(map(bool, map(int, bits)))
        for bits in (preperiod, period)
    )
    if not pat:
        raise SpecSyntaxError("period must be nonempty")
    pat = pat[: (pat + pat).find(pat, 1)]
    if pre[-1:] == pat[-1:]:
        # Tile the period back over the preperiod; each trailing zero byte of
        # their XOR is one bit that the period continues.
        tiled = pat * (len(pre) // len(pat) + 1)
        diff = int.from_bytes(pre, "big") ^ int.from_bytes(tiled[len(tiled) - len(pre) :], "big")
        cut = len(pre) - ((diff & -diff).bit_length() - 1) // 8 if diff else 0
        pre, pat = pre[:cut], (pre + pat)[cut : cut + len(pat)]
    if pat == b"\0" and not pre:
        raise EmptySetError("all-zero tail with empty preperiod support")
    return SGapSpec(tuple(pre), tuple(pat))


_SET_RE = re.compile(r"^(co)?\{\s*(\d+(?:\s*,\s*\d+)*)?\s*\}$")
_PERIODIC_RE = re.compile(r"^ep:pre=([01](?:,[01])*)?;pat=([01](?:,[01])*)$")
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def parse_sgap_spec(text: str) -> SGapSpec:
    """Parse a gap-set description; returns the shortest form of its set."""
    text = text.strip()
    m = _SET_RE.match(text)
    if m:
        vals = [] if m.group(2) is None else [int(v) for v in m.group(2).split(",")]
        if m.group(1):
            return cofinite_gaps(vals)
        if not vals:
            raise EmptySetError("explicit gap set must be nonempty")
        return explicit_gaps(vals)
    m = _PERIODIC_RE.match(text)
    if m:
        # The grammar puts one bit at every even offset of a bit list.
        pre, pat = (
            (group or "")[::2].encode().translate(_BIT_BYTES) for group in m.group(1, 2)
        )
        return periodic_gaps(pre, pat)
    raise SpecSyntaxError(f"unrecognised gap-set description: {text!r}")


@dataclass(frozen=True)
class Classification:
    """Decidable dynamical predicates of the shift defined by a gap set.

    gap_sup is the supremum of differences between consecutive members
    (0 for a singleton, where there are no consecutive pairs); gcd_value
    is gcd{n + 1 : n in S}.  Every representable description has bounded
    gaps, so gap_sup is always a finite integer here.
    """

    is_sft: bool
    is_almost_specified: bool
    is_mixing: bool
    has_specification: bool
    gap_sup: int
    gcd_value: int


def classify(spec: SGapSpec) -> Classification:
    """Classify the shift of a gap set by finite inspection.

    The gap supremum stabilises within the preperiod plus three periods.
    Period (0,) or (1,) means a finite or cofinite set, whose shift is of
    finite type.
    """
    q, p = len(spec.preperiod), len(spec.period)
    members = spec.members_up_to(q + 3 * p - 1)
    gap_sup = max(map(sub, members[1:], members), default=0)
    gcd_value = spec.gcd()
    # Every description has bounded gaps between members.
    is_almost_specified = True
    is_mixing = gcd_value == 1
    return Classification(
        is_sft=p == 1,
        is_almost_specified=is_almost_specified,
        is_mixing=is_mixing,
        has_specification=is_almost_specified and is_mixing,
        gap_sup=gap_sup,
        gcd_value=gcd_value,
    )
