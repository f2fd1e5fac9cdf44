"""Exact language-size computations for gap shifts and labeled presentations.

Counting for gap shifts uses a run-length dynamic program whose state is the
trailing zero run of the word (split by whether a one has occurred yet).
Runs at or past the preperiod q of the gap set matter only modulo its period
p, so the DP keeps q + p run classes (SGapSpec.run_classes) and a table of
lengths 1..n costs O(n * (q + p)) big-integer additions, not O(n^2).  All
counts are exact Python integers.  Finite-type shifts given by forbidden
blocks are presented as higher-block automata, and sofic presentations such
as the even shift are counted by determinising the label action over subsets
of states; one pass of that construction yields the counts of every length
up to n, in O(n * subsets * letters) steps.

Word admissibility here is the factor language of a closed shift: every
interior maximal zero run (flanked by ones) must lie in the gap set, while a
boundary run of length k only needs some member >= k, and the all-zero word
of length n needs some member >= n.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import compress, product

from .sgap import SGapSpec, SizeGuardError

Word = str

SUBSET_STATE_LIMIT = 1 << 20
ENUMERATION_LENGTH_LIMIT = 22


class EmptyShiftError(ValueError):
    """The forbidden blocks leave no bi-infinite sequence at all."""


class InadmissibleWordError(ValueError):
    """A word that is not in the factor language was supplied."""


def _zero_run_profile(word: Word) -> tuple[int, list[int], int, bool]:
    """Return (prefix run, interior runs, suffix run, is_all_zero)."""
    ones = [i for i, ch in enumerate(word) if ch == "1"]
    if not ones:
        return len(word), [], len(word), True
    interior = [b - a - 1 for a, b in zip(ones, ones[1:])]
    return ones[0], interior, len(word) - 1 - ones[-1], False


def word_is_admissible(spec: SGapSpec, word: Word) -> bool:
    """Factor-language membership for a binary word, checked directly."""
    if any(ch not in "01" for ch in word):
        raise ValueError("gap-shift words are binary")
    prefix, interior, suffix, all_zero = _zero_run_profile(word)
    if all_zero:
        return spec.tail_allows(len(word))
    if not spec.tail_allows(prefix) or not spec.tail_allows(suffix):
        return False
    return all(spec.contains(r) for r in interior)


def _count_extensions(
    spec: SGapSpec, steps: int, start_run: int, start_has_one: bool
) -> list[int]:
    """Run-length DP: admissible extension counts for lengths 0..steps.

    The state is the run class of the current trailing zero run (see
    SGapSpec.run_classes), so one step costs O(q + p) whatever steps is.
    Words that do not yet contain a one are tracked separately because
    their run is a boundary run, not an interior one.  tail_allows holds
    for every run of every class, so each class counts towards the total.
    """
    q, p = spec.run_classes()
    closes = [spec.contains(r) for r in range(q + p)]

    def fold(r: int) -> int | None:
        """Run class of a zero run, None if no member is that long."""
        if r < q:
            return r
        return q + (r - q) % p if p else None

    runs = [0] * (q + p)
    start = fold(start_run)
    if start_has_one:
        zero_prefix = None
        if start is not None:
            runs[start] = 1
        out = [int(start is not None)]
    else:
        # The empty extension of an all-zero word is counted even when the
        # word itself is too long to extend.
        zero_prefix = start
        out = [1]

    for _ in range(steps):
        ones = sum(compress(runs, closes))
        if zero_prefix is not None:
            ones += 1
            zero_prefix = fold(zero_prefix + 1)
        # A zero lengthens every run: the last class wraps to class q, or
        # dies when p == 0 because no member is q or longer.
        last = runs.pop()
        runs.insert(0, ones)
        if p:
            runs[q] += last
        out.append(sum(runs) + (zero_prefix is not None))
    return out


def count_blocks_sgap(spec: SGapSpec, n: int) -> int:
    """Exact number of admissible binary words of length n >= 1."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    return _count_extensions(spec, n, 0, False)[n]


def enumerate_blocks_sgap(spec: SGapSpec, n: int) -> list[Word]:
    """All admissible words of length n in lexicographic order.

    Deliberately brute force (filters every binary word of length n) so it
    can serve as an independent cross-check of the counting DP; guarded
    against exponential blowup.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    if n > ENUMERATION_LENGTH_LIMIT:
        raise SizeGuardError(
            f"enumeration limited to length {ENUMERATION_LENGTH_LIMIT}, got {n}"
        )
    words = []
    for bits in product("01", repeat=n):
        word = "".join(bits)
        if word_is_admissible(spec, word):
            words.append(word)
    return words


def follower_count(spec: SGapSpec, omega: Word, r: int) -> int:
    """Exact number of length-r words that may follow omega.

    The continuation structure depends only on whether omega contains a one
    and on its trailing zero run, which is what the DP consumes.
    """
    if r < 1:
        raise ValueError("follower length must be >= 1")
    if not word_is_admissible(spec, omega):
        raise InadmissibleWordError(f"not an admissible word: {omega!r}")
    return follower_profile(spec, omega, r)[r]


def follower_profile(spec: SGapSpec, omega: Word, r_max: int) -> list[int]:
    """Follower counts of omega for every length 0..r_max at once."""
    has_one = "1" in omega
    trailing = len(omega) - len(omega.rstrip("0"))
    return _count_extensions(spec, r_max, trailing, has_one)


@dataclass
class ShiftAutomaton:
    """Deterministic-per-letter labeled transition presentation.

    Words are read starting from any state (the factor-language
    convention); transitions is a partial map from (state, letter) to state.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: dict[tuple[str, str], str]

    def __post_init__(self):
        for (src, letter), dst in self.transitions.items():
            if src not in self.states or dst not in self.states:
                raise ValueError("transition endpoints must be states")
            if letter not in self.alphabet:
                raise ValueError(f"letter {letter!r} not in alphabet")
        sources = {src for (src, _) in self.transitions}
        if set(self.states) - sources:
            raise ValueError("every state needs at least one outgoing transition")

    def edge_count(self) -> int:
        return len(self.transitions)


def build_sft_automaton(alphabet, forbidden) -> ShiftAutomaton:
    """Higher-block presentation of the shift avoiding the given blocks.

    States are the locally admissible (m-1)-blocks, where m is the longest
    forbidden length; states without both an incoming and an outgoing edge
    are pruned to a fixed point so that readable words are exactly the
    factors of bi-infinite admissible sequences.
    """
    letters = tuple(dict.fromkeys(alphabet))
    if not letters:
        raise ValueError("alphabet must be nonempty")
    bad = [str(w) for w in forbidden]
    if not bad or any(not w for w in bad):
        raise ValueError("forbidden blocks must be nonempty words")
    for w in bad:
        if any(ch not in letters for ch in w):
            raise ValueError(f"forbidden block {w!r} uses letters outside the alphabet")
    m = max(len(w) for w in bad)
    if m < 2:
        raise ValueError("longest forbidden block must have length >= 2")
    bad_set = set(bad)

    def clean(word: str) -> bool:
        return not any(
            word[i : i + L] in bad_set
            for L in range(1, m + 1)
            for i in range(len(word) - L + 1)
        )

    if len(letters) ** (m - 1) > SUBSET_STATE_LIMIT:
        raise SizeGuardError("state space of the higher-block presentation too large")

    states = {"".join(t) for t in product(letters, repeat=m - 1) if clean("".join(t))}
    edges = {}
    for u in states:
        for a in letters:
            extended = u + a
            # u is already clean, so only factors ending at the new letter
            # need checking, i.e. the suffixes of u + a.
            if any(extended[-L:] in bad_set for L in range(1, m + 1)):
                continue
            v = extended[1:]
            if v in states:
                edges[(u, a)] = v

    # Prune to the essential part: states on bi-infinite paths.
    while True:
        has_out = {u for (u, _) in edges}
        has_in = {v for v in edges.values()}
        keep = states & has_out & has_in
        if keep == states:
            break
        states = keep
        edges = {
            (u, a): v for (u, a), v in edges.items() if u in states and v in states
        }
    if not states:
        raise EmptyShiftError("forbidden blocks leave an empty shift")

    return ShiftAutomaton(
        states=tuple(sorted(states)),
        alphabet=letters,
        transitions=edges,
    )


def even_shift_automaton() -> ShiftAutomaton:
    """Two-state presentation of the even shift.

    Runs of zeros between ones are forced to even length: the one-labeled
    loop sits on the parity-even state and zeros toggle parity.
    """
    return ShiftAutomaton(
        states=("even", "odd"),
        alphabet=("0", "1"),
        transitions={
            ("even", "1"): "even",
            ("even", "0"): "odd",
            ("odd", "0"): "even",
        },
    )


def count_blocks_automaton(aut: ShiftAutomaton, n: int) -> int:
    """Number of distinct length-n label words readable in the automaton."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    return automaton_count_table(aut, n).counts[n]


@dataclass
class BlockCountTable:
    """Exact block counts by length."""

    counts: dict[int, int] = field(default_factory=dict)

    def require(self, n_max: int) -> None:
        missing = [n for n in range(1, n_max + 1) if n not in self.counts]
        if missing:
            raise ValueError(f"table missing counts for lengths {missing}")

    def write_csv(self, fileobj) -> None:
        from .entropy import log2_int  # local import to avoid a cycle

        writer = csv.writer(fileobj)
        writer.writerow(["n", "count", "log2_count", "log2_count_over_n"])
        for n in sorted(self.counts):
            c = self.counts[n]
            l2 = log2_int(c)
            writer.writerow([n, c, f"{l2:.12g}", f"{l2 / n:.12g}"])


def sgap_count_table(spec: SGapSpec, n_max: int) -> BlockCountTable:
    profile = _count_extensions(spec, n_max, 0, False)
    return BlockCountTable(counts={n: profile[n] for n in range(1, n_max + 1)})


def automaton_count_table(aut: ShiftAutomaton, n_max: int) -> BlockCountTable:
    """Distinct readable label words of every length 1..n_max, in one pass.

    Reading from several start states makes the presentation effectively
    nondeterministic, so words are deduplicated by walking the subset
    construction; layer n holds how many words lead to each subset, and the
    number of discovered subsets is budget-limited.
    """
    start = frozenset(aut.states)
    step_cache: dict[tuple[frozenset, str], frozenset] = {}
    seen_subsets = {start}
    layer = {start: 1} if start else {}
    counts = {}
    for n in range(1, n_max + 1):
        nxt: dict[frozenset, int] = {}
        for subset, cnt in layer.items():
            for a in aut.alphabet:
                key = (subset, a)
                target = step_cache.get(key)
                if target is None:
                    target = frozenset(
                        aut.transitions[(q, a)]
                        for q in subset
                        if (q, a) in aut.transitions
                    )
                    step_cache[key] = target
                if not target:
                    continue
                if target not in seen_subsets:
                    seen_subsets.add(target)
                    if len(seen_subsets) > SUBSET_STATE_LIMIT:
                        raise SizeGuardError("determinisation exceeded subset budget")
                nxt[target] = nxt.get(target, 0) + cnt
        layer = nxt
        counts[n] = sum(layer.values())
    return BlockCountTable(counts=counts)
