"""Finite descriptions of gap sets and the classification of their shifts.

A gap set S is a nonempty set of naturals (0 included).  The associated
binary shift consists of the bi-infinite sequences in which the length of
every maximal zero run between successive ones lies in S.  Three finite
descriptions are supported:

* an explicit finite list            ``{0,2,5}``
* a cofinite set by excluded values  ``co{3}``       (``co{}`` is all naturals)
* an eventually periodic characteristic sequence
                                     ``ep:pre=1,0;pat=0,1``  (bit n set iff n in S)

Descriptions are normalised on construction: an eventually periodic form
whose period is all zeros collapses to an explicit list, one whose period is
all ones collapses to a cofinite set, and the empty set is rejected.  This
keeps every classification predicate decidable by finite inspection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from math import gcd


class SpecSyntaxError(ValueError):
    """The gap-set text does not conform to the grammar."""


class EmptySetError(ValueError):
    """The description encodes the empty set."""


class SGapSpec:
    """Common interface of the three gap-set descriptions."""

    def contains(self, n: int) -> bool:
        raise NotImplementedError

    def is_finite(self) -> bool:
        raise NotImplementedError

    def is_full(self) -> bool:
        """True iff the set is all of the naturals."""
        return False

    def max_element(self) -> int | None:
        """Largest member for finite sets, None for infinite ones."""
        return None

    def min_element(self) -> int:
        n = 0
        while not self.contains(n):
            n += 1
        return n

    def size(self) -> int | None:
        """Number of members for finite sets, None for infinite ones."""
        return None

    def tail_allows(self, k: int) -> bool:
        """True iff some member is >= k.

        This is the boundary-run condition: a zero run of length k that is
        not closed by a one on both sides is admissible exactly when it can
        be extended to a run whose full length lies in the set.
        """
        m = self.max_element()
        return m is None or k <= m

    def members_up_to(self, bound: int) -> list[int]:
        """Exactly the members <= bound, in increasing order."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        return [n for n in range(bound + 1) if self.contains(n)]

    def run_classes(self) -> tuple[int, int]:
        """Zero-run classes (q, p) of the counting DP.

        Runs r < q are told apart exactly; a run r >= q behaves like
        q + (r - q) % p for membership and for tail_allows.  p == 0 only for
        finite sets, where q = max + 1 and no run of length q or more is
        admissible; for infinite sets tail_allows holds for every run.
        """
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitGaps(SGapSpec):
    """A finite gap set listed element by element, strictly increasing."""

    elements: tuple[int, ...]

    def contains(self, n: int) -> bool:
        return n in self.elements

    def is_finite(self) -> bool:
        return True

    def max_element(self) -> int | None:
        return self.elements[-1]

    def min_element(self) -> int:
        return self.elements[0]

    def size(self) -> int | None:
        return len(self.elements)

    def members_up_to(self, bound: int) -> list[int]:
        if bound < 0:
            raise ValueError("bound must be >= 0")
        return [n for n in self.elements if n <= bound]

    def run_classes(self) -> tuple[int, int]:
        return self.elements[-1] + 1, 0

    def render(self) -> str:
        return "{" + ",".join(str(n) for n in self.elements) + "}"


@dataclass(frozen=True)
class CofiniteGaps(SGapSpec):
    """All naturals except a finite excluded set (sorted)."""

    excluded: tuple[int, ...]

    def contains(self, n: int) -> bool:
        return n >= 0 and n not in self.excluded

    def is_finite(self) -> bool:
        return False

    def is_full(self) -> bool:
        return not self.excluded

    def run_classes(self) -> tuple[int, int]:
        return (self.excluded[-1] + 1 if self.excluded else 0), 1

    def render(self) -> str:
        return "co{" + ",".join(str(n) for n in self.excluded) + "}"


@dataclass(frozen=True)
class PeriodicGaps(SGapSpec):
    """Eventually periodic characteristic sequence: bit n set iff n in S.

    Normalisation guarantees the period contains both a set and an unset
    bit, so the set is infinite but not cofinite.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if n < len(self.preperiod):
            return bool(self.preperiod[n])
        return bool(self.period[(n - len(self.preperiod)) % len(self.period)])

    def is_finite(self) -> bool:
        return False

    def run_classes(self) -> tuple[int, int]:
        return len(self.preperiod), len(self.period)

    def render(self) -> str:
        pre = ",".join(str(b) for b in self.preperiod)
        pat = ",".join(str(b) for b in self.period)
        return f"ep:pre={pre};pat={pat}"


def explicit_gaps(values) -> ExplicitGaps:
    """Normalised explicit description: sorted, deduplicated, nonempty."""
    elems = sorted(set(int(v) for v in values))
    if not elems:
        raise EmptySetError("gap set must be nonempty")
    if elems[0] < 0:
        raise SpecSyntaxError("gap set members must be naturals")
    return ExplicitGaps(tuple(elems))


def cofinite_gaps(excluded) -> CofiniteGaps:
    """Cofinite description from its finite excluded set."""
    excl = sorted(set(int(v) for v in excluded))
    if excl and excl[0] < 0:
        raise SpecSyntaxError("excluded values must be naturals")
    return CofiniteGaps(tuple(excl))


def periodic_gaps(preperiod, period) -> SGapSpec:
    """Eventually periodic description, normalised.

    An all-zero period collapses to the explicit set carried by the
    preperiod (or is rejected when that set is empty); an all-one period
    collapses to a cofinite set.
    """
    pre = tuple(int(bool(int(b))) for b in preperiod)
    pat = tuple(int(bool(int(b))) for b in period)
    if not pat:
        raise SpecSyntaxError("period must be nonempty")
    if not any(pat):
        members = [i for i, b in enumerate(pre) if b]
        if not members:
            raise EmptySetError("all-zero tail with empty preperiod support")
        return ExplicitGaps(tuple(members))
    if all(pat):
        return CofiniteGaps(tuple(i for i, b in enumerate(pre) if not b))
    return PeriodicGaps(pre, pat)


_EXPLICIT_RE = re.compile(r"^\{\s*(\d+(\s*,\s*\d+)*)?\s*\}$")
_COFINITE_RE = re.compile(r"^co\{\s*(\d+(\s*,\s*\d+)*)?\s*\}$")
_PERIODIC_RE = re.compile(r"^ep:pre=([01](,[01])*)?;pat=([01](,[01])*)$")


def parse_sgap_spec(text: str) -> SGapSpec:
    """Parse a gap-set description; returns the normalised form."""
    text = text.strip()
    m = _EXPLICIT_RE.match(text)
    if m:
        if m.group(1) is None:
            raise EmptySetError("explicit gap set must be nonempty")
        return explicit_gaps(int(v) for v in m.group(1).split(","))
    m = _COFINITE_RE.match(text)
    if m:
        vals = [] if m.group(1) is None else [int(v) for v in m.group(1).split(",")]
        return cofinite_gaps(vals)
    m = _PERIODIC_RE.match(text)
    if m:
        pre = [] if m.group(1) is None else [int(b) for b in m.group(1).split(",")]
        pat = [int(b) for b in m.group(3).split(",")]
        return periodic_gaps(pre, pat)
    raise SpecSyntaxError(f"unrecognised gap-set description: {text!r}")


def members_up_to(spec: SGapSpec, bound: int) -> list[int]:
    return spec.members_up_to(bound)


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


def _gap_sup_of(members: list[int]) -> int:
    if len(members) < 2:
        return 0
    return max(b - a for a, b in zip(members, members[1:]))


def classify(spec: SGapSpec) -> Classification:
    """Classify the shift of a gap set by finite inspection.

    Finite and cofinite sets give shifts of finite type.  The gap supremum
    and the gcd of shifted members stabilise within one window of the
    description: the preperiod plus three periods for gaps, the preperiod
    plus two periods (folded with the period length) for the gcd.
    """
    if isinstance(spec, ExplicitGaps):
        members = list(spec.elements)
        gap_sup = _gap_sup_of(members)
        gcd_value = reduce(gcd, (n + 1 for n in members))
        is_sft = True
    elif isinstance(spec, CofiniteGaps):
        hi = (spec.excluded[-1] if spec.excluded else 0) + 2
        members = spec.members_up_to(hi)
        gap_sup = _gap_sup_of(members)
        gcd_value = reduce(gcd, (n + 1 for n in members))
        is_sft = True
    elif isinstance(spec, PeriodicGaps):
        q, p = len(spec.preperiod), len(spec.period)
        gap_sup = _gap_sup_of(spec.members_up_to(q + 3 * p - 1))
        gcd_value = reduce(
            gcd, (n + 1 for n in spec.members_up_to(q + 2 * p - 1)), p
        )
        is_sft = False
    else:
        raise TypeError(f"not a gap-set description: {spec!r}")

    # All three finite descriptions have bounded gaps between members.
    is_almost_specified = True
    is_mixing = gcd_value == 1
    return Classification(
        is_sft=is_sft,
        is_almost_specified=is_almost_specified,
        is_mixing=is_mixing,
        has_specification=is_almost_specified and is_mixing,
        gap_sup=gap_sup,
        gcd_value=gcd_value,
    )
