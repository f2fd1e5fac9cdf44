"""Independent reference values for the benchmark's output checks.

Nothing here imports shiftlab.  Gap sets are parsed from their text form
into (preperiod bits, period bits), and every count is derived from the
definition of the factor language in a different way from the library's
run-length DP: a word is split at its first one, and h(m) counts the words
of length m that start with a one and have every interior zero run in S.
Strided prefix sums over the period make a whole table cost O(n * (q + p)).
The formulas are cross-checked against brute-force enumeration at small n.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product

KOMORNIK_LORETI = 1.787231650182965933013274890337
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
BRUTE_FORCE_MAX_N = 10


class GapSet:
    """Gap set as an eventually periodic characteristic sequence."""

    def __init__(self, pre, pat):
        self.pre = tuple(pre)
        self.pat = tuple(pat)
        self.q = len(self.pre)
        self.p = len(self.pat)
        self.finite = not any(self.pat)
        members = [n for n, b in enumerate(self.pre) if b]
        self.max_member = max(members) if self.finite else None
        if self.finite and not members:
            raise ValueError("empty gap set")

    @property
    def key(self):
        return self.pre, self.pat

    def contains(self, n: int) -> bool:
        if n < self.q:
            return bool(self.pre[n])
        return bool(self.pat[(n - self.q) % self.p])

    def tail(self, k: int) -> bool:
        """Some member is >= k."""
        return not self.finite or k <= self.max_member

    def members_up_to(self, bound: int) -> list[int]:
        return [n for n in range(bound + 1) if self.contains(n)]

    def same_set(self, other: "GapSet") -> bool:
        bound = 2 * (self.q + other.q) + 4 * self.p * other.p
        return all(self.contains(n) == other.contains(n) for n in range(bound))

    def series(self, x: float) -> float:
        """Closed form of sum over n in S of x ** -(n + 1)."""
        head = math.fsum(x ** -(n + 1) for n, b in enumerate(self.pre) if b)
        if self.finite:
            return head
        cycle = math.fsum(
            x ** -(self.q + j + 1) for j, b in enumerate(self.pat) if b
        )
        return head + cycle / (1.0 - x ** -self.p)


_LIST = r"\s*(\d+(?:\s*,\s*\d+)*)?\s*"
_BITS = r"([01](?:,[01])*)?"


def parse_gap_set(text: str) -> GapSet:
    text = text.strip()
    m = re.fullmatch(r"\{" + _LIST + r"\}", text)
    if m:
        members = {int(v) for v in m.group(1).split(",")}
        return GapSet([int(n in members) for n in range(max(members) + 1)], [0])
    m = re.fullmatch(r"co\{" + _LIST + r"\}", text)
    if m:
        excluded = {int(v) for v in m.group(1).split(",")} if m.group(1) else set()
        top = max(excluded) + 1 if excluded else 0
        return GapSet([int(n not in excluded) for n in range(top)], [1])
    m = re.fullmatch(r"ep:pre=" + _BITS + r";pat=" + _BITS, text)
    if m:
        pre = [int(b) for b in m.group(1).split(",")] if m.group(1) else []
        return GapSet(pre, [int(b) for b in m.group(2).split(",")])
    raise ValueError(f"not a gap-set description: {text!r}")


def _word_ok(gs: GapSet, word: str) -> bool:
    ones = [i for i, ch in enumerate(word) if ch == "1"]
    if not ones:
        return gs.tail(len(word))
    return (
        gs.tail(ones[0])
        and gs.tail(len(word) - 1 - ones[-1])
        and all(gs.contains(b - a - 1) for a, b in zip(ones, ones[1:]))
    )


def brute_force_counts(gs: GapSet, n_max: int) -> list[int]:
    """Counts for lengths 0..n_max by filtering every binary word."""
    return [1] + [
        sum(_word_ok(gs, "".join(w)) for w in product("01", repeat=n))
        for n in range(1, n_max + 1)
    ]


def _starts_with_one(gs: GapSet, n_max: int) -> list[int]:
    """h[m]: words of length m that start with a one (h[0] = 0)."""
    h = [0] * (n_max + 1)
    strided = [0] * (n_max + 1)  # strided[x] = h[x] + strided[x - p]
    pre_members = [s for s, b in enumerate(gs.pre) if b]
    pat_offsets = [gs.q + j for j, b in enumerate(gs.pat) if b]
    for m in range(1, n_max + 1):
        x = m - 1  # length after the leading one
        total = int(gs.tail(x))
        for s in pre_members:
            if s > x - 1:
                break
            total += h[x - s]
        for off in pat_offsets:
            if x - off >= 1:
                total += strided[x - off]
        h[m] = total
        strided[m] = total + (strided[m - gs.p] if m - gs.p >= 1 else 0)
    return h


@lru_cache(maxsize=8)
def _gap_counts(key, n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    gs = GapSet(*key)
    h = _starts_with_one(gs, n_max)
    counts = [1]
    running = 0  # sum of h[n - a] over the admissible prefix runs a
    for n in range(1, n_max + 1):
        # Words of length n: all zeros, or a prefix run a then a one.
        running += h[n]
        if gs.finite and n - gs.max_member - 1 >= 1:
            running -= h[n - gs.max_member - 1]
        counts.append(int(gs.tail(n)) + running)
    small = min(n_max, BRUTE_FORCE_MAX_N)
    if counts[: small + 1] != brute_force_counts(gs, small):
        raise AssertionError(f"reference counts disagree with brute force for {key}")
    return tuple(counts), tuple(h)


def gap_counts(gs: GapSet, n_max: int) -> tuple[int, ...]:
    """Block counts for lengths 0..n_max."""
    return _gap_counts(gs.key, n_max)[0]


def sft_counts(alphabet: str, forbidden: list[str], n_max: int) -> tuple[int, ...]:
    """Counts of a one-step SFT whose graph has no stranded vertex."""
    if any(len(w) != 2 for w in forbidden):
        raise ValueError("reference handles forbidden 2-blocks only")
    edges = {a: [b for b in alphabet if a + b not in forbidden] for a in alphabet}
    vec = {a: 1 for a in alphabet}
    counts = [1, len(alphabet)]
    for _ in range(2, n_max + 1):
        vec = {a: sum(vec[b] for b in edges[a]) for a in alphabet}
        counts.append(sum(vec.values()))
    return tuple(counts)


def fibonacci_counts(n_max: int) -> tuple[int, ...]:
    """F(n + 2): binary words of length n without two adjacent ones."""
    fib = [0, 1]
    while len(fib) < n_max + 3:
        fib.append(fib[-1] + fib[-2])
    return tuple(fib[n + 2] for n in range(n_max + 1))


def four_letter_counts(n_max: int) -> tuple[int, ...]:
    """(n + 7) * 2 ** (n - 2) for the four-letter SFT, 4 at n = 1."""
    return tuple([1, 4] + [(n + 7) * 2 ** (n - 2) for n in range(2, n_max + 1)])


def bsm_constant(counts, depth: int) -> Fraction:
    """max over 1 <= m <= n <= depth of counts[m] * counts[n] / counts[m + n]."""
    logs = [0.0] + [math.log2(c) for c in counts[1 : 2 * depth + 1]]

    def log_ratios():
        for m in range(1, depth + 1):
            for n in range(m, depth + 1):
                yield logs[m] + logs[n] - logs[m + n], m, n

    best = max(v for v, _, _ in log_ratios())
    # Floats only shortlist; the maximum is decided exactly.
    return max(
        Fraction(counts[m] * counts[n], counts[m + n])
        for v, m, n in log_ratios()
        if v >= best - 1e-9
    )


def follower_classes(gs: GapSet, word_max: int) -> list[tuple[bool, int]]:
    """(contains a one, trailing zero run) of admissible words up to word_max."""
    with_one = [(True, t) for t in range(word_max) if gs.tail(t)]
    zeros = [(False, t) for t in range(1, word_max + 1) if gs.tail(t)]
    return with_one + zeros


def min_follower_density(gs: GapSet, word_max: int, r_max: int) -> Fraction:
    """Smallest followers(omega, r) / counts(r) over word classes and 1 <= r <= r_max.

    f(t, r) = [t closes a run] * h[r] + f(t + 1, r - 1), with f(t, 0) = 1 when
    a run of t can still be extended; a run closed after a one must lie in
    S, a leading run only needs room.
    """
    t_top = word_max + r_max + 1
    counts, h = _gap_counts(gs.key, max(r_max, 1))
    best = None
    for has_one in (True, False):
        closes = gs.contains if has_one else gs.tail
        ts = [t for one, t in follower_classes(gs, word_max) if one == has_one]
        if not ts:
            continue
        prev = [int(gs.tail(t)) for t in range(t_top + 1)]  # r = 0
        for r in range(1, r_max + 1):
            cur = [
                closes(t) * h[r] + prev[t + 1] for t in range(t_top + 1 - r)
            ]
            c = counts[r]
            for t in ts:
                f = cur[t]
                if best is None or f * best[1] < best[0] * c:
                    best = (f, c)
            prev = cur
    return Fraction(*best)


def gcd_and_gap_sup(gs: GapSet) -> tuple[int, int]:
    bound = gs.max_member if gs.finite else gs.q + 4 * gs.p + 2
    members = gs.members_up_to(bound)
    g = 0
    for n in members:
        g = math.gcd(g, n + 1)
    gaps = [b - a for a, b in zip(members, members[1:])]
    return g, max(gaps, default=0)


def is_sft(gs: GapSet) -> bool:
    """Finite or cofinite sets give shifts of finite type."""
    return gs.finite or all(gs.pat)


def golden_leaf_words(depth: int) -> set[str]:
    """Length-depth prefixes of the three families of expansions of 1 in the
    golden base: (10)^inf, (10)^n 11 0^inf and (10)^n 0 1^inf."""
    words = {("10" * depth)[:depth]}
    for n in range(depth):
        words.add(("10" * n + "11" + "0" * depth)[:depth])
        words.add(("10" * n + "0" + "1" * depth)[:depth])
    return words


def expansion_leaves(lam: float, depth: int, slack: float) -> set[str]:
    """Digit words of the given length whose orbit of 1 stays in
    [-slack, 1/(lam-1) + slack]; any digit is tried at every step."""
    right = 1.0 / (lam - 1.0)
    out = set()
    stack = [(1.0, "")]
    while stack:
        y, word = stack.pop()
        if len(word) == depth:
            out.add(word)
            continue
        for digit in (0, 1):
            child = lam * y - digit
            if -slack <= child <= right + slack:
                stack.append((child, word + str(digit)))
    return out
