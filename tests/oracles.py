"""Independent oracles used by the tests.

Everything here recomputes answers from definitions, without touching the
counting DPs, the subset-construction word counter, or the entropy solver
it is checking: a bisection on the closed form of the gap series whose
bracket ends get the exact sign of an integer polynomial.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import product

from shiftlab.sgap import cofinite_gaps, explicit_gaps, periodic_gaps

# Finite, cofinite and eventually periodic sets of the benchmark's shape,
# plus the extremes of the run-class quotient: a single class (co{}), a
# single state with no wrap ({0}) and a long period with no preperiod.
QUOTIENT_SETS = [
    "{0,1,3,4,7}",
    "{1,2,4,6,9,11}",
    "{0,2,5,8}",
    "co{0}",
    "co{1,3}",
    "co{2,4,5}",
    "ep:pre=;pat=0,0,1",
    "ep:pre=1;pat=1,1,0",
    "ep:pre=0,1,0;pat=1,0,1",
    "co{}",
    "{0}",
    "ep:pre=;pat=" + ",".join(["0"] * 49 + ["1"]),
]


def member(spec, n: int) -> bool:
    """Bit n of the description: the preperiod, then the period cyclically."""
    if n < 0:
        return False
    q = len(spec.preperiod)
    if n < q:
        return bool(spec.preperiod[n])
    return bool(spec.period[(n - q) % len(spec.period)])


def same_set(a, b) -> bool:
    """Whether two descriptions encode one set.  Past both preperiods the
    bits have periods p1 and p2, so agreeing on p1 + p2 more positions
    makes them agree everywhere (Fine and Wilf 1965); the first
    q1 + q2 + p1 + p2 bits cover that window."""
    window = len(a.preperiod) + len(b.preperiod) + len(a.period) + len(b.period)
    return all(member(a, n) == member(b, n) for n in range(window))


def tail_ok(spec, k: int) -> bool:
    """Some member is >= k: the largest member of a finite set is its last
    preperiod bit."""
    return (not spec.is_finite()) or k < len(spec.preperiod)


def sgap_word_ok(spec, word: str) -> bool:
    """Definition-based admissibility: interior runs in S, boundary runs
    extendable, all-zero words extendable."""
    ones = [i for i, ch in enumerate(word) if ch == "1"]
    if not ones:
        return tail_ok(spec, len(word))
    if not tail_ok(spec, ones[0]):
        return False
    if not tail_ok(spec, len(word) - 1 - ones[-1]):
        return False
    return all(member(spec, b - a - 1) for a, b in zip(ones, ones[1:]))


def brute_words_sgap(spec, n: int) -> list[str]:
    return [
        "".join(bits)
        for bits in product("01", repeat=n)
        if sgap_word_ok(spec, "".join(bits))
    ]


@lru_cache(maxsize=None)
def _signature_table(n: int) -> dict:
    """Bucket all binary length-n words by (prefix run, suffix run,
    distinct interior runs); None is the all-zero signature."""
    table: dict = {}
    for bits in range(1 << n):
        word = format(bits, f"0{n}b")
        ones = [i for i, ch in enumerate(word) if ch == "1"]
        if not ones:
            sig = None
        else:
            interior = frozenset(b - a - 1 for a, b in zip(ones, ones[1:]))
            sig = (ones[0], n - 1 - ones[-1], interior)
        table[sig] = table.get(sig, 0) + 1
    return table


def brute_count_sgap(spec, n: int) -> int:
    """Exhaustive count over all 2^n words, via signature buckets."""
    total = 0
    for sig, cnt in _signature_table(n).items():
        if sig is None:
            ok = tail_ok(spec, n)
        else:
            prefix, suffix, interior = sig
            ok = (
                tail_ok(spec, prefix)
                and tail_ok(spec, suffix)
                and all(member(spec, r) for r in interior)
            )
        if ok:
            total += cnt
    return total


def run_length_counts(spec, n_max: int, prefix: str = "") -> list[int]:
    """Admissible words prefix + alpha for |alpha| = 0..n_max.

    A plain unbounded run-length DP over (one seen yet, trailing zero run):
    a one closes the trailing run, which must be tail-extendable when it is
    the leading run and a member when it is interior; a word counts when
    its trailing run is tail-extendable.  Run lengths are never folded, so
    the state space grows with the length.
    """

    def step(states: dict, letter: str) -> dict:
        out: dict = {}
        for (seen_one, run), cnt in states.items():
            if letter == "0":
                # A run no member reaches can neither close nor end a word.
                if not tail_ok(spec, run + 1):
                    continue
                key = (seen_one, run + 1)
            elif member(spec, run) if seen_one else tail_ok(spec, run):
                key = (True, 0)
            else:
                continue
            out[key] = out.get(key, 0) + cnt
        return out

    def total(states: dict) -> int:
        return sum(cnt for (_, run), cnt in states.items() if tail_ok(spec, run))

    states = {(False, 0): 1}
    for letter in prefix:
        states = step(states, letter)
    counts = [total(states)]
    for _ in range(n_max):
        grown = step(states, "0")
        for key, cnt in step(states, "1").items():
            grown[key] = grown.get(key, 0) + cnt
        states = grown
        counts.append(total(states))
    return counts


def bsm_reference(counts, depth: int) -> tuple:
    """(K, witness, verdict) from the definition: the largest
    counts[m] * counts[d] / counts[m + d] over 1 <= m <= d <= depth, scanned
    by d and then m, a pair replacing the best only when strictly larger.
    The verdict reads consistent with bounded supermultiplicativity when
    the maximum exceeds the maximum over d <= max(1, 3 * depth // 4) by at
    most 1%."""
    best = witness = at_anchor = None
    for d in range(1, depth + 1):
        for m in range(1, d + 1):
            ratio = Fraction(counts[m] * counts[d], counts[m + d])
            if best is None or ratio > best:
                best, witness = ratio, (m, d)
        if d == max(1, 3 * depth // 4):
            at_anchor = best
    stable = best <= at_anchor * Fraction(101, 100)
    return best, witness, "ConsistentWithBSM" if stable else "Inconclusive"


def exact_log2(c: int) -> Decimal:
    """log2 c of a positive integer to 60 significant digits: the natural
    logarithms of c and of 2, each correctly rounded in Decimal, and their
    quotient."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(c).ln() / Decimal(2).ln()


def even_word_ok(word: str) -> bool:
    """No odd zero run between two ones."""
    ones = [i for i, ch in enumerate(word) if ch == "1"]
    return all((b - a - 1) % 2 == 0 for a, b in zip(ones, ones[1:]))


def brute_count_even(n: int) -> int:
    return sum(
        1 for bits in product("01", repeat=n) if even_word_ok("".join(bits))
    )


def gap_presentation(spec) -> tuple[tuple[str, ...], tuple[str, ...], dict]:
    """States, alphabet and transitions of the right-resolving presentation
    of the gap shift, from the description alone.

    With q the preperiod length and p the period length (0 for a finite
    set), state c is the class of the zero run since the last one: runs
    below q are told apart, and longer runs only modulo p.  A 0 moves class
    c to c + 1, wrapping from q + p - 1 to q; for a finite set, class q - 1
    (the largest member) has no 0-edge.  A 1 moves a member class to class
    0.  The states are then pruned to the essential part.  For the even
    numbers this is the two-state presentation of the even shift, where an
    all-zero word of any length leaves both states possible, so the subset
    construction keeps a two-state subset at every length.
    """
    q = len(spec.preperiod)
    p = 0 if spec.is_finite() else len(spec.period)
    edges = {}
    for c in range(q + p):
        if c + 1 < q + p:
            edges[(str(c), "0")] = str(c + 1)
        elif p:
            edges[(str(c), "0")] = str(q)
        if member(spec, c):
            edges[(str(c), "1")] = "0"
    states, edges = _essential({str(c) for c in range(q + p)}, "01", edges)
    return states, ("0", "1"), edges


def sft_blocks(spec) -> list[str]:
    """Forbidden blocks of a finite or cofinite gap set: 1 0^k 1 for each
    excluded k, up to the largest member M of a finite set, which also
    forbids 0^(M + 1), written as its two one-letter extensions so that
    the presentation has a stranded state to prune.  Empty for co{}, the
    full shift."""
    q = len(spec.preperiod)
    blocks = ["1" + "0" * k + "1" for k in range(q) if not member(spec, k)]
    if spec.is_finite():
        blocks += ["0" * q + "0", "0" * q + "1"]
    return blocks


def clean_words(alphabet, forbidden, n: int) -> set[str]:
    """The length-n words over alphabet with no factor in forbidden."""
    words = ("".join(t) for t in product(alphabet, repeat=n))
    return {
        w
        for w in words
        if not any(w[i:j] in forbidden for i in range(n) for j in range(i + 1, n + 1))
    }


def higher_block_graph(alphabet, forbidden) -> tuple[tuple[str, ...], dict]:
    """The higher-block presentation of the shift avoiding forbidden, from
    its definition.  With m the longest block, the states are the clean
    (m-1)-words and each clean m-word w is an edge w[:-1] -w[-1]-> w[1:];
    states lacking an incoming or an outgoing edge are removed until none
    is left.  Returns the sorted states and the transitions, both empty
    when the shift is."""
    letters = tuple(dict.fromkeys(alphabet))
    bad = set(forbidden)
    m = max(map(len, bad))
    states = clean_words(letters, bad, m - 1)
    edges = {(w[:-1], w[-1]): w[1:] for w in clean_words(letters, bad, m)}
    return _essential(states, letters, edges)


def trie_graph(alphabet, forbidden) -> tuple[tuple[str, ...], dict]:
    """The presentation of the shift avoiding forbidden by the trie of its
    blocks, from its definition.  The states are the proper prefixes of the
    blocks in which no block occurs; on a letter a, u goes to the longest
    suffix of u + a that is a state, and has no edge when some block is a
    suffix of u + a.  Pruned like higher_block_graph."""
    letters = tuple(dict.fromkeys(alphabet))
    bad = set(forbidden)
    prefixes = {w[:i] for w in bad for i in range(len(w))}
    states = {u for u in prefixes if not any(w in u for w in bad)}
    edges = {}
    for u in states:
        for a in letters:
            v = u + a
            if not any(v.endswith(w) for w in bad):
                edges[(u, a)] = next(v[i:] for i in range(len(v) + 1) if v[i:] in states)
    return _essential(states, letters, edges)


def _essential(states: set, letters, edges: dict) -> tuple[tuple[str, ...], dict]:
    """The sorted states on bi-infinite paths and the edges between them:
    states lacking an incoming or an outgoing edge are removed until none
    is left."""
    while True:
        stranded = {
            u
            for u in states
            if all((u, a) not in edges for a in letters)
            or u not in edges.values()
        }
        if not stranded:
            return tuple(sorted(states)), edges
        states -= stranded
        edges = {
            (u, a): v
            for (u, a), v in edges.items()
            if u not in stranded and v not in stranded
        }


def spectral_radius_2x2(a, b, c, d, iterations: int = 200) -> float:
    """Power iteration on [[a, b], [c, d]] with nonnegative entries."""
    x, y = 1.0, 1.0
    rho = 0.0
    for _ in range(iterations):
        nx, ny = a * x + b * y, c * x + d * y
        rho = max(nx, ny)
        x, y = nx / rho, ny / rho
    return rho


def closed_series(spec, lam: float) -> float:
    """Closed form of sum over S of lam**-(n+1): the preperiod terms plus
    the period terms summed as a geometric series in lam**-p."""
    q, p = len(spec.preperiod), len(spec.period)
    head = math.fsum(lam ** -(i + 1) for i, b in enumerate(spec.preperiod) if b)
    cycle = math.fsum(lam ** -(q + j + 1) for j, b in enumerate(spec.period) if b)
    return head + cycle / (1.0 - lam**-p)


def _scaled_sum(bits, d: int, m: int) -> int:
    """m**len(bits) times the sum of (d/m)**(i + 1) over the set bits i."""
    total, power = 0, 1
    for bit in bits:
        power *= d
        total = total * m + bit * power
    return total


def closed_series_exceeds_one(spec, x: float) -> bool:
    """Whether the closed form of the series exceeds 1 at the double x > 1,
    decided exactly.  With y = 1/x = d/m in lowest terms, the closed form
    minus 1 is (A(y) - 1) + y**q * B(y) / (1 - y**p); times the positive
    m**(q + p) * (1 - y**p) it is the integer below."""
    m, d = x.as_integer_ratio()
    q, p = len(spec.preperiod), len(spec.period)
    head, cycle = _scaled_sum(spec.preperiod, d, m), _scaled_sum(spec.period, d, m)
    return (head - m**q) * (m**p - d**p) + d**q * cycle > 0


def reference_bracket(spec, tol: float) -> tuple[float, float, int]:
    """(lo, hi, halvings) of a plain bisection of [1, 2] for the root of the
    gap series, each side taken from the exact sign of the closed form.

    It stops when the bracket is at most tol / 2 wide and closed_series at
    its ends differs by at most tol (read as infinite at 1), or when its
    ends are adjacent doubles.
    """
    lo, hi, f_lo, f_hi, steps = 1.0, 2.0, math.inf, closed_series(spec, 2.0), 0
    while hi - lo > tol / 2 or f_lo - f_hi > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if closed_series_exceeds_one(spec, mid):
            lo, f_lo = mid, closed_series(spec, mid)
        else:
            hi, f_hi = mid, closed_series(spec, mid)
        steps += 1
    return lo, hi, steps


def count_constants(spec, lam: float) -> tuple[int, list[float]]:
    """(d, [C_0, ..., C_(d-1)]) with c(n) / lam**n -> C_(n mod d), for the
    shift of S at its root lam, from renewal theory (Feller vol. 1 ch. XIII)
    and no counting DP.

    A word with a one is 0^a 1 v 1 0^b: interior runs in S, and boundary
    runs a, b admissible (some member is >= a).  The words 1 v 1 of length
    k + 1 are the renewals at k of the block lengths n + 1, n in S, whose
    weights lam**-(n + 1) sum to 1; with mean M = sum (n + 1) lam**-(n + 1)
    and span d = gcd{n + 1 : n in S} their count over lam**k tends to d / M
    when d divides k, else 0.  Summed over a and b, that is
    C_r = d / (lam M) * sum of lam**-(a + b) over a + b = r - 1 (mod d).
    The all-zero words add at most one word per length.  Sums over an
    infinite set stop where lam**-n falls below 2**-80.
    """
    q, p = len(spec.preperiod), len(spec.period)
    top = q + 2 * p + math.ceil(80 / math.log2(lam))
    members = [n for n in range(top) if member(spec, n)]
    d = math.gcd(*(n + 1 for n in members))
    mean = math.fsum((n + 1) * lam ** -(n + 1) for n in members)
    # The weight of the admissible runs a = j (mod d).
    runs = [math.fsum(lam**-a for a in range(j, top, d) if tail_ok(spec, a)) for j in range(d)]
    scale = d / (lam * mean)
    return d, [
        scale * math.fsum(runs[j] * runs[(r - 1 - j) % d] for j in range(d)) for r in range(d)
    ]


def gap_series_exact(members, x) -> Fraction:
    """sum over n in members of x**-(n+1), exactly, for a rational x."""
    y = 1 / Fraction(x)
    return sum((y ** (n + 1) for n in members), Fraction(0))


def thue_morse_series_exact(x, n: int) -> tuple[Fraction, Fraction]:
    """An interval of fractions holding sum over j >= 1 of t(j) * x**-j for
    x > 1, t(j) the parity of the ones in the binary digits of j: the first
    n terms summed exactly, plus the rest, which lies between 0 and the
    all-ones tail x**-(n+1) / (1 - 1/x)."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    # sum over j <= n of t(j) * den**j * num**(n - j), by Horner's rule.
    total, power = 0, 1
    for j in range(1, n + 1):
        power *= den
        total = total * num + (bin(j).count("1") & 1) * power
    head = Fraction(total, num**n)
    return head, head + x ** -(n + 1) / (1 - 1 / x)


def bisect_decreasing(f, lo: float, hi: float, target: float, tol: float) -> float:
    """Root of a strictly decreasing f on [lo, hi] with f(lo) > target > f(hi)."""
    assert f(lo) > target > f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def greedy_orbit_of_one(lam: float, tol: float, steps: int) -> list[str]:
    """Where each of the first steps points of the greedy orbit of 1 in
    base lam lies against the switch region [1/lam, 1/(lam*(lam-1))]:
    'near' within tol of an endpoint, else 'inside' or 'outside'.

    A digit d maps y to lam*y - d; the greedy digit is 1 whenever
    lam*y - 1 >= 0, i.e. y >= 1/lam, and near that endpoint the closed
    endpoint's digit 1 is kept.
    """
    lo, hi = 1.0 / lam, 1.0 / (lam * (lam - 1.0))
    y, out = 1.0, []
    for _ in range(steps):
        near_lo = abs(y - lo) <= tol
        if near_lo or abs(y - hi) <= tol:
            out.append("near")
        else:
            out.append("inside" if lo <= y <= hi else "outside")
        y = lam * y - (1 if y >= lo or near_lo else 0)
    return out


class TreeBudgetExhausted(Exception):
    """digit_tree reached leaf max_leaves + 1; partial holds the first max_leaves."""

    def __init__(self, partial: list):
        super().__init__(f"leaf budget {len(partial)} exhausted")
        self.partial = partial


def digit_tree(lam: float, depth: int, tol: float, max_leaves: int | None = None) -> list[tuple]:
    """(digits, orbit, flags) of every expansion of 1 in base lam to depth
    digits, in digit order, grown depth first from the definition.

    A point y within tol of an end of the switch region [1/lam,
    1/(lam*(lam-1))] reads 'ambiguous', one below it 'forced0', one above
    'forced1' and one inside 'switch'; a forced point admits its one digit,
    the others both, smallest first.  A digit d sends y to lam*y - d, and a
    child farther than max(8 tol, 1e-10) outside [0, 1/(lam-1)] is dropped.
    Reaching leaf max_leaves + 1 (None for no budget) raises
    TreeBudgetExhausted holding the first max_leaves leaves.
    """
    lo, hi, right = 1.0 / lam, 1.0 / (lam * (lam - 1.0)), 1.0 / (lam - 1.0)
    slack = max(8.0 * tol, 1e-10)
    leaves = []

    def walk(digits, orbit, flags, y):
        if len(digits) == depth:
            if len(leaves) == max_leaves:
                raise TreeBudgetExhausted(leaves)
            leaves.append((digits, orbit, flags))
            return
        if abs(y - lo) <= tol or abs(y - hi) <= tol:
            flag, admitted = "ambiguous", (0, 1)
        elif y < lo:
            flag, admitted = "forced0", (0,)
        elif y > hi:
            flag, admitted = "forced1", (1,)
        else:
            flag, admitted = "switch", (0, 1)
        for d in admitted:
            child = lam * y - d
            if -slack <= child <= right + slack:
                walk(digits + (d,), orbit + (child,), flags + (flag,), child)

    walk((), (), (), 1.0)
    return leaves


def random_spec(rng: random.Random):
    kind = rng.choice(("explicit", "cofinite", "periodic"))
    if kind == "explicit":
        return explicit_gaps(rng.sample(range(0, 17), rng.randint(1, 6)))
    if kind == "cofinite":
        return cofinite_gaps(rng.sample(range(0, 9), rng.randint(0, 5)))
    pre = [rng.randint(0, 1) for _ in range(rng.randint(0, 4))]
    pat = [rng.randint(0, 1) for _ in range(rng.randint(1, 6))]
    if not any(pat) and not any(pre):
        pat[rng.randrange(len(pat))] = 1
    return periodic_gaps(pre, pat)


def random_specs(count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [random_spec(rng) for _ in range(count)]


def greedy_digits_of_one(lam: float, n: int) -> list[int]:
    """The first n greedy digits of 1 in base lam, in exact fractions: the
    digit is 1 whenever lam * x >= 1, and x then becomes lam * x - digit."""
    base, x, digits = Fraction(lam), Fraction(1), []
    for _ in range(n):
        x *= base
        digits.append(int(x >= 1))
        x -= digits[-1]
    return digits


def max_zero_run(word: str) -> int:
    return max((len(chunk) for chunk in word.split("1")), default=0)


def golden_family(word: str) -> tuple[str, int | None]:
    """(family, n) of the golden-base expansion of 1 that word begins, from
    the definitions: the alternation 1010... first, then (10)^n 11 000...
    and (10)^n 0 111... for each n.  A larger n than len(word) / 2 only
    repeats the alternation prefix."""
    length = len(word)
    if word == ("10" * length)[:length]:
        return "Periodic10", None
    for n in range(length):
        if word == ("10" * n + "11" + "0" * length)[:length]:
            return "Family11ZerosTail", n
        if word == ("10" * n + "0" + "1" * length)[:length]:
            return "Family01OnesTail", n
    return "NotAPrefix", None
