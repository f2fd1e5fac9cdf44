"""Exact language-size computations for gap shifts and labeled presentations.

Counting for gap shifts is one backward run-length pass (_follower_profiles).
The followers of a word depend only on whether it contains a one and on its
trailing zero run; runs at or past the preperiod q of the gap set matter only
modulo its period p, so the pass keeps one extension count per run class
(SGapSpec.run_classes).  Each step moves a ring offset and adds one count to
the member classes, so it costs O(members below q + p) plus one read per
class in use.  A pass to length n from runs up to b sees only the members
below w = b + n and whether S reaches w, so a description longer than that
window is counted on its members below w and w itself.  Words of one class
share one row, so a single pass to length n serves any number of start
words at a cost set by their classes, at most 2(q + p) + 2, not by their
number.  The count row counts[0..n], the empty word's followers, comes
first.  All counts are exact Python integers.
Finite-type shifts given by forbidden blocks are presented by the trie of
their blocks: a state is the longest clean proper prefix of a block that the
word read so far ends in, so there are at most 1 + sum(|b| - 1) states.
These presentations are counted by determinising the label action over
subsets of states; one pass of that construction yields the counts of every
length up to n.  Each subset's letter images are computed once, on the step
after it is found, through one successor map per letter, as integer
(source, target) edges; each length then costs O(edges) big-integer
additions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from .sgap import SGapSpec, SizeGuardError, explicit_gaps

SUBSET_STATE_LIMIT = 1 << 20
# The start of the empty word, whose followers are the block counts.
_EMPTY = (False, 0)


class EmptyShiftError(ValueError):
    """The forbidden blocks leave no bi-infinite sequence at all."""


def _follower_profiles(spec: SGapSpec, starts, r_max: int) -> tuple[list[int], list[list[int]]]:
    """The count row, then each start's follower counts to r_max, in one pass.

    A start is what the followers of a word depend on: whether it holds a
    one, and its trailing zero run.  The count row is the row of (False, 0),
    the empty word, so counts[0] = 1.  ext[c] counts the extensions of a word
    that holds a one and ends in a run of class c (SGapSpec.run_classes);
    ext starts at 1 for every class and one backward step shifts it by one
    class (the last class wraps to class q, or dies when p == 0) and then
    adds ext[0], the count after a closing one, to every member class.  ext
    lives in a ring with a moving base, so after an O(q + p) setup a step
    costs O(members below q + p) plus one read per class.  When q + p
    exceeds w + 1, w the longest run of a start's class plus r_max, the
    pass runs on the members below w and w instead.  A word with no one
    may close its run at any boundary run that some member reaches, so its
    counts are prefix sums of the successive ext[0].  An inadmissible word
    keeps the convention of the empty extension: 1 at length 0 for an
    all-zero word, 0 after a one.

    Words of one class share one row, built once: after a one, the run
    class, with every run of q or more dead when p == 0; with no one, one
    row for all runs when p > 0, else the run below q and one dead row.
    So the pass costs O(classes) per step, however many starts share them.
    The returned lists are shared between starts and must not be mutated.
    """
    q, p = spec.run_classes()

    def class_key(has_one: bool, run: int) -> tuple[bool, int]:
        if p and not has_one:
            return False, 0  # every run extends, so one row serves all
        if run >= q:
            run = q + (run - q) % p if p else q  # q: dead when p == 0
        return has_one, run

    keys = [class_key(*start) for start in starts]
    rows: dict[tuple[bool, int], list[int]] = {key: [] for key in (_EMPTY, *keys)}
    # The rows see the members below w and whether S reaches w, which it
    # does whenever q + p > w + 1; so past that the pass runs on the finite
    # set of those members and w, and reads each class at its own run.  As
    # w >= r_max, the runs are read only when that can hold.
    if q + p > r_max + 1:
        w = max(run for _, run in rows) + r_max
        if w and q + p > w + 1:
            spec = explicit_gaps([*spec.members_up_to(w - 1), w])
            q, p = spec.run_classes()
    size = q + p
    closing = spec.members_up_to(size - 1)
    # The count of class c sits at ext[(base + c) % size].
    ext, base = [1] * size, 0
    reads = []
    for (has_one, c), row in rows.items():
        if has_one and c < size:
            reads.append((row, c))
        elif has_one:
            row.extend([0] * (r_max + 1))

    heads = []  # ext[0] after k steps, for k = 0..r_max - 1
    for k in range(r_max + 1):
        for row, c in reads:
            row.append(ext[(base + c) % size])
        if k == r_max:
            break
        head = ext[base]
        heads.append(head)
        ext[base] = ext[(base + q) % size] if p else 0
        base = (base + 1) % size
        for c in closing:
            ext[(base + c) % size] += head

    # sums[k] counts the length-k extensions of an all-zero word that hold a
    # one, if every boundary run may close: a first one at j leaves the
    # ext[0] of k - 1 - j steps.
    sums = list(accumulate(heads, initial=0))
    for (has_one, run), row in rows.items():
        if has_one:
            continue
        if not p and run >= q:
            row.extend([1] + [0] * r_max)
            continue
        # The run may stay open through fewer than d more letters (through
        # all of them when p > 0); past that a first one comes within d.
        d = r_max + 1 if p else q - run
        row.extend(1 + s for s in sums[:d])
        row.extend(map(sub, sums[d:], sums))
    return rows[_EMPTY], [rows[key] for key in keys]


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
        if not self.states:
            raise ValueError("an automaton needs at least one state")
        known = set(self.states)
        for (src, letter), dst in self.transitions.items():
            if src not in known or dst not in known:
                raise ValueError("transition endpoints must be states")
            if letter not in self.alphabet:
                raise ValueError(f"letter {letter!r} not in alphabet")
        sources = {src for (src, _) in self.transitions}
        if known - sources:
            raise ValueError("every state needs at least one outgoing transition")


def build_sft_automaton(alphabet, forbidden) -> ShiftAutomaton:
    """Presentation of the shift avoiding the given blocks by their trie.

    States are the proper prefixes of the blocks in which no block occurs;
    on a letter a, u goes to the longest suffix of u + a that is a state,
    unless a block ends at a.  Built shortest first, fail(u), the longest
    proper suffix of u that is a state, comes before u, and a block ends at
    u + a when u + a is one or one ends at fail(u) + a.  The letters of the
    prefixes and the rows, states times letters, are bounded by 2^20 before
    any is built.  States lacking an incoming or an outgoing edge are pruned
    to a fixed point, so readable words are the factors of the shift's points.
    """
    letters = dict.fromkeys(alphabet)
    if not letters:
        raise ValueError("alphabet must be nonempty")
    bad = [str(w) for w in forbidden]
    if not bad or any(not w for w in bad):
        raise ValueError("forbidden blocks must be nonempty words")
    for w in bad:
        if any(ch not in letters for ch in w):
            raise ValueError(f"forbidden block {w!r} uses letters outside the alphabet")
    bad_set = set(bad)
    text = sum(len(w) * (len(w) - 1) // 2 for w in bad_set)
    rows = (1 + sum(len(w) - 1 for w in bad_set)) * len(letters)
    if max(text, rows) > SUBSET_STATE_LIMIT:
        raise SizeGuardError("forbidden blocks exceed the presentation budget")
    prefixes = {w[:i] for w in bad_set for i in range(len(w))}

    states, fail, edges = [""], {}, {}
    for u in states:  # appended to, shortest first, as it is read
        for a in letters:
            v = u + a
            if v in bad_set or (u and (fail[u], a) not in edges):
                continue
            target = edges[(fail[u], a)] if u else ""
            if v in prefixes:
                fail[v], target = target, v
                states.append(v)
            edges[(u, a)] = target
    states = set(states)

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
        alphabet=tuple(letters),
        transitions=edges,
    )


@dataclass
class BlockCountTable:
    """Exact block counts by length; the benchmark tracer reads them off both kernels."""

    counts: dict[int, int]


def sgap_count_table(spec: SGapSpec, n_max: int) -> BlockCountTable:
    counts = _follower_profiles(spec, [], n_max)[0]
    return BlockCountTable(counts=dict(enumerate(counts[1:], start=1)))


def automaton_count_table(aut: ShiftAutomaton, n_max: int) -> BlockCountTable:
    """Distinct readable label words of every length 1..n_max, in one pass.

    Reading from several start states makes the presentation effectively
    nondeterministic, so words are deduplicated by walking the subset
    construction.  Subsets are numbered as they are found, and each one's
    letter images become integer (source, target) edges on the step after
    it is found, so discovery proceeds layer by layer and the subset budget
    trips at the first length whose layers exceed it.  Layer n holds how
    many words lead to each subset; it is advanced over the edge list.
    """
    subsets = [frozenset(aut.states)]
    index = {subsets[0]: 0}
    edges: list[tuple[int, int]] = []
    layer = [1]
    expanded = 0
    counts = {}
    # One successor map per letter; states are selected by membership, as
    # the trie's root state "" is falsy.
    steps: dict[str, dict[str, str]] = {a: {} for a in aut.alphabet}
    for (q, a), target in aut.transitions.items():
        steps[a][q] = target
    for n in range(1, n_max + 1):
        found = len(subsets)
        for source in range(expanded, found):
            subset = subsets[source]
            for step in steps.values():
                target = frozenset(map(step.__getitem__, filter(step.__contains__, subset)))
                if not target:
                    continue
                t = index.get(target)
                if t is None:
                    t = index[target] = len(subsets)
                    subsets.append(target)
                    if len(subsets) > SUBSET_STATE_LIMIT:
                        raise SizeGuardError("determinisation exceeded subset budget")
                edges.append((source, t))
        expanded = found
        nxt = [0] * len(subsets)
        for source, t in edges:
            nxt[t] += layer[source]
        layer = nxt
        counts[n] = sum(layer)
    return BlockCountTable(counts=counts)
