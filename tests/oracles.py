"""Independent oracles used by the tests.

Everything here recomputes answers from definitions, without touching the
counting DPs, the subset-construction word counter, or the truncated-series
solver it is checking.
"""

from __future__ import annotations

import math
import random
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


def tail_ok(spec, k: int) -> bool:
    return (not spec.is_finite()) or spec.max_element() >= k


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
    return all(spec.contains(b - a - 1) for a, b in zip(ones, ones[1:]))


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
                and all(spec.contains(r) for r in interior)
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
            elif spec.contains(run) if seen_one else tail_ok(spec, run):
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


def even_word_ok(word: str) -> bool:
    """No odd zero run between two ones."""
    ones = [i for i, ch in enumerate(word) if ch == "1"]
    return all((b - a - 1) % 2 == 0 for a, b in zip(ones, ones[1:]))


def brute_count_even(n: int) -> int:
    return sum(
        1 for bits in product("01", repeat=n) if even_word_ok("".join(bits))
    )


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


def max_zero_run(word: str) -> int:
    return max((len(chunk) for chunk in word.split("1")), default=0)
