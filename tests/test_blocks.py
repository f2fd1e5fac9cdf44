import csv
import io
import math
import random
import time
from decimal import Decimal

import pytest

from shiftlab.blocks import (
    EmptyShiftError,
    ShiftAutomaton,
    _follower_profiles,
    automaton_count_table,
    build_sft_automaton,
    sgap_count_table,
)
from shiftlab.cli import _counts_csv
from shiftlab.sgap import SizeGuardError, classify, parse_sgap_spec, periodic_gaps

import oracles
from conftest import count_row

EX31_FORBIDDEN = ["ac", "ad", "bd", "ca", "cb", "da", "db"]
# The even shift twice: its gap set, ep:pre=;pat=1,0, and the oracles'
# two-state presentation of it, whose subsets never all collapse to one state.
EVEN = periodic_gaps(b"", b"\1\0")


def even_shift_automaton():
    return ShiftAutomaton(*oracles.gap_presentation(EVEN))


def _followers(spec, words, r_max):
    """Follower rows of the words for lengths 0..r_max, in one kernel call:
    a word enters as whether it holds a one and its trailing zero run."""
    starts = [("1" in w, len(w) - len(w.rstrip("0"))) for w in words]
    return _follower_profiles(spec, starts, r_max)[1]


def test_count_single_zero_gap():
    spec = parse_sgap_spec("{0}")
    assert [sgap_count_table(spec, n).counts[n] for n in (1, 2, 5, 9)] == [1, 1, 1, 1]


def test_count_full_shift():
    spec = parse_sgap_spec("co{}")
    assert [sgap_count_table(spec, n).counts[n] for n in (1, 3, 10)] == [2, 8, 1024]


def test_count_gap_one():
    # Oracle first: filter all 2^3 words by the run conditions.
    spec = parse_sgap_spec("{1}")
    assert oracles.brute_words_sgap(spec, 3) == ["010", "101"]
    assert sgap_count_table(spec, 3).counts[3] == 2


def test_enumerate_examples():
    assert oracles.brute_words_sgap(parse_sgap_spec("{1}"), 2) == ["01", "10"]
    assert oracles.brute_words_sgap(parse_sgap_spec("{0}"), 1) == ["1"]
    full = parse_sgap_spec("co{}")
    assert oracles.brute_words_sgap(full, 2) == ["00", "01", "10", "11"]


def test_follower_examples():
    assert _followers(parse_sgap_spec("{2}"), ["100"], 1)[0][1] == 1
    full = parse_sgap_spec("co{}")
    for r in (1, 3, 7):
        assert _followers(full, ["010"], r)[0][r] == 2**r
    doubling = parse_sgap_spec("{0,1,2,4,8,16,32}")
    assert _followers(doubling, ["1" + "0" * 17], 8)[0][8] == 1


def test_follower_matches_brute_force(corpus):
    for spec in corpus:
        for omega in ("1", "10", "100", "0", "00", "11", "0110"):
            if not oracles.sgap_word_ok(spec, omega):
                continue
            for r in (1, 2, 5, 8):
                brute = sum(
                    1
                    for alpha in oracles.brute_words_sgap(spec, r)
                    if oracles.sgap_word_ok(spec, omega + alpha)
                )
                assert _followers(spec, [omega], r)[0][r] == brute, (spec, omega, r)


def test_oracle_equivalence_small(corpus):
    for spec in corpus:
        for n in range(1, 11):
            assert sgap_count_table(spec, n).counts[n] == len(oracles.brute_words_sgap(spec, n))


def test_submultiplicativity(corpus):
    for spec in corpus:
        counts = sgap_count_table(spec, 20).counts
        for m in range(1, 20):
            for n in range(1, 21 - m):
                assert counts[m + n] <= counts[m] * counts[n]


def test_follower_decomposition(corpus):
    # Summing follower counts over all length-m words recovers counts(m+n).
    for spec in corpus:
        counts = sgap_count_table(spec, 16).counts
        for m in (1, 3, 6, 8):
            for n in (1, 4, 8):
                words = oracles.brute_words_sgap(spec, m)
                total = sum(row[n] for row in _followers(spec, words, n))
                assert total == counts[m + n]


@pytest.mark.parametrize("text", oracles.QUOTIENT_SETS)
def test_count_table_matches_unbounded_dp(text):
    spec = parse_sgap_spec(text)
    reference = oracles.run_length_counts(spec, 600)
    counts = sgap_count_table(spec, 600).counts
    assert [counts[n] for n in range(1, 601)] == reference[1:]


@pytest.mark.parametrize("text", oracles.QUOTIENT_SETS)
def test_follower_profile_matches_unbounded_dp(text):
    # Start runs on both sides of the preperiod and past two full periods,
    # where the DP folds the run before the first step.
    spec = parse_sgap_spec(text)
    q, p = spec.run_classes()
    starts = {0, 1, q, q + p - 1, q + 2 * p, q + 2 * p + 1, q + 3 * p + 1, 7 * (q + p) + 5}
    checked = 0
    for t in sorted(starts):
        for omega in ("1" + "0" * t, "0" * t):
            if not omega or not oracles.sgap_word_ok(spec, omega):
                continue
            reference = oracles.run_length_counts(spec, 120, prefix=omega)
            assert _followers(spec, [omega], 120)[0] == reference, (text, omega)
            checked += 1
    assert checked >= 1


CLASS_ROW_SETS = oracles.QUOTIENT_SETS + [
    spec.render() for spec in oracles.random_specs(12, 8083)
]


@pytest.mark.parametrize("text", CLASS_ROW_SETS)
def test_class_rows_match_unbounded_dp(text):
    # Words up to 3(q + p) + 7 letters, all in one kernel call: an
    # admissible head ending in a one (or none) and then every trailing
    # run, so runs past two periods and the empty word occur, and for a
    # finite set dead runs after a one and inadmissible all-zero words.
    # Only the trailing run of a word may be inadmissible: the kernel reads
    # nothing else.
    spec = parse_sgap_spec(text)
    q, p = spec.run_classes()
    length, r_max = 3 * (q + p) + 7, 12
    heads = [""] + [
        w for n in range(1, 6) for w in oracles.brute_words_sgap(spec, n) if w[-1] == "1"
    ]
    words = [head + "0" * t for head in heads for t in range(length - len(head) + 1)]
    assert words[0] == ""
    assert p or any(not oracles.sgap_word_ok(spec, w) for w in words)
    rows = _followers(spec, words, r_max)
    for omega, row in zip(words, rows):
        expected = oracles.run_length_counts(spec, r_max, prefix=omega)
        if "1" not in omega and not oracles.sgap_word_ok(spec, omega):
            expected[0] = 1  # the empty extension, by convention
        assert row == expected, omega
    table = sgap_count_table(spec, r_max).counts
    assert rows[0] == [1] + [table[n] for n in range(1, r_max + 1)]
    # Words of one class share one row.
    assert len({id(row) for row in rows}) <= 2 * (q + p) + 2


@pytest.mark.parametrize("text", CLASS_ROW_SETS)
def test_count_row_comes_first(text):
    # The pass returns the count row before the start rows, with or
    # without starts: the row the count table holds, after counts[0] = 1.
    spec = parse_sgap_spec(text)
    for n in (1, 12, 60):
        counts = count_row(sgap_count_table(spec, n))
        assert _follower_profiles(spec, [], n) == (counts, [])
        assert counts == oracles.run_length_counts(spec, n)
        assert _follower_profiles(spec, [(True, 0)], n)[0] == counts


def test_follower_rows_on_short_windows_of_long_descriptions():
    # Rows to r_max from runs up to b see only the members below
    # w = b + r_max and whether S reaches w, so a long description counts
    # on that window; its start classes still come from the whole
    # description.  Starts past a finite set's maximum (dead after a one)
    # and past two periods, and r_max = 0, are drawn too.
    rng = random.Random(35)
    cut = 0
    for _ in range(300):
        density = rng.random()
        pre = [int(rng.random() < density) for _ in range(rng.randint(0, 60))]
        pat = [int(rng.random() < density) for _ in range(rng.choice((1, rng.randint(1, 30))))]
        if not any(pre + pat):
            pre.append(1)
        spec = periodic_gaps(pre, pat)
        q, p = spec.run_classes()
        starts = [
            (rng.random() < 0.7, rng.choice((rng.randint(0, 8), rng.randint(0, q + 2 * p + 3))))
            for _ in range(rng.randint(0, 5))
        ]
        r_max = rng.choice((0, rng.randint(1, 10)))
        counts, rows = _follower_profiles(spec, starts, r_max)
        assert counts == oracles.run_length_counts(spec, r_max), spec.render()
        for (has_one, run), row in zip(starts, rows, strict=True):
            omega = "1" * has_one + "0" * run
            expected = oracles.run_length_counts(spec, r_max, prefix=omega)
            if not has_one and not oracles.sgap_word_ok(spec, omega):
                expected[0] = 1  # the empty extension, by convention
            assert row == expected, (spec.render(), omega, r_max)
        w = max((run for _, run in starts), default=0) + r_max
        cut += 0 < w < q + p - 1
    assert cut > 150


# Gap sets of gcd 1, 2 ({1,3}) and 3 (ep:pre=;pat=0,0,1 and {2,5}).
CONSTANT_SETS = [
    "{0,2,5}",
    "co{0}",
    "ep:pre=;pat=1,0",
    "{1,3}",
    "ep:pre=;pat=0,0,1",
    "{2,5}",
    "ep:pre=1;pat=1,1,0",
    "co{1,3}",
]


@pytest.mark.parametrize("text", CONSTANT_SETS)
def test_count_row_tends_to_renewal_constants(text):
    # c(n) / lambda**n tends to C_(n mod d), which the oracle takes from
    # renewal theory: the relative error falls over n = 8, 16, 32 and is
    # within 1e-9 at n = 800.
    spec = parse_sgap_spec(text)
    lo, hi, _ = oracles.reference_bracket(spec, 1e-15)
    lam = (lo + hi) / 2
    d, constants = oracles.count_constants(spec, lam)
    assert d == classify(spec).gcd_value
    counts = count_row(sgap_count_table(spec, 800))
    errors = [abs(counts[n] / lam**n / constants[n % d] - 1) for n in (8, 16, 32, 800)]
    assert errors[0] > errors[1] > errors[2], errors
    assert errors[3] <= 1e-9, errors


def test_follower_profile_dead_starts():
    # An inadmissible word keeps only the empty extension of an all-zero
    # word; after a one, a run no member reaches has no extension at all.
    spec = parse_sgap_spec("{0,2,5}")
    assert _followers(spec, ["0" * 6], 9)[0] == [1] + [0] * 9
    assert _followers(spec, ["0" * 40], 9)[0] == [1] + [0] * 9
    assert _followers(spec, ["1" + "0" * 6], 9)[0] == [0] * 10
    assert _followers(spec, ["01" + "0" * 40], 9)[0] == [0] * 10
    assert _followers(spec, ["0" * 5], 3)[0] == oracles.run_length_counts(
        spec, 3, prefix="0" * 5
    )


def test_count_sparse_finite_set_of_huge_maximum():
    # Below the larger member only runs of ones occur: 0^a 1^b 0^c with
    # b >= 1, or the all-zero word.
    spec = parse_sgap_spec("{0,1000000}")
    counts = sgap_count_table(spec, 1419).counts
    assert all(counts[n] == n * (n + 1) // 2 + 1 for n in range(1, 1420))
    assert sgap_count_table(spec, 1419).counts[1419] == 1419 * 1420 // 2 + 1


def test_build_sft_four_letter_example():
    aut = build_sft_automaton("abcd", EX31_FORBIDDEN)
    assert len(aut.states) == 4
    assert len(aut.transitions) == 9


def test_build_sft_no_adjacent_ones():
    aut = build_sft_automaton("01", ["11"])
    assert len(aut.states) == 2
    assert len(aut.transitions) == 3


def test_build_sft_empty_shift():
    with pytest.raises(EmptyShiftError):
        build_sft_automaton("01", ["00", "01", "10", "11"])


def test_build_sft_prunes_stranded_states():
    # 'b' only appears as a dead end: ab admissible, but b has no successor,
    # so only the empty prefix, with its a-loop, is left.
    aut = build_sft_automaton("ab", ["ba", "bb"])
    assert aut.states == ("",)
    assert len(aut.transitions) == 1


def _random_forbidden(rng):
    """An alphabet of 1-4 letters and 1-6 blocks of length 1-5, the longest
    of length at least 2."""
    letters = "0123"[: rng.randint(1, 4)]
    m = rng.randint(2, 5)
    lengths = [m] + [rng.randint(1, m) for _ in range(rng.randint(0, 5))]
    return letters, ["".join(rng.choices(letters, k=k)) for k in lengths]


PRESENTATION_CASES = [
    ("ab", ["ba", "bb"]),  # b is stranded
    ("abc", ["aa", "ab", "ac", "bb", "bc"]),  # a, then b, is stranded
    ("012", ["2", "00"]),  # a one-letter block
    ("012", ["1", "2", "00"]),  # only one-letter blocks survive: empty
    ("01", ["1"]),  # only one-letter blocks: the shift of 0s
    ("01", ["0", "1"]),  # only one-letter blocks: empty
    ("01", ["00", "01", "10", "11"]),  # empty
    ("0", ["00"]),  # empty
    ("012", ["20", "21"]),
    ("01", ["0000", "1111"]),
    ("abcd", EX31_FORBIDDEN),
]


def _check_higher_block_oracle(alphabet, forbidden) -> tuple[str, ...]:
    """build_sft_automaton is the oracles' trie presentation, state for
    state; it is empty with the higher-block presentation, and otherwise
    has no more states and the same count table to n = 12."""
    states, edges = oracles.trie_graph(alphabet, forbidden)
    block_states, block_edges = oracles.higher_block_graph(alphabet, forbidden)
    assert bool(states) == bool(block_states)
    if not states:
        with pytest.raises(EmptyShiftError):
            build_sft_automaton(alphabet, forbidden)
        return states
    aut = build_sft_automaton(alphabet, forbidden)
    assert (aut.states, aut.alphabet, aut.transitions) == (
        states,
        tuple(dict.fromkeys(alphabet)),
        edges,
    )
    assert len(states) <= len(block_states)
    higher_block = ShiftAutomaton(block_states, aut.alphabet, block_edges)
    assert automaton_count_table(aut, 12).counts == automaton_count_table(higher_block, 12).counts
    return states


@pytest.mark.parametrize(
    "alphabet, forbidden",
    PRESENTATION_CASES,
    ids=[f"{a}:{','.join(f)}" for a, f in PRESENTATION_CASES],
)
def test_build_sft_matches_higher_block_oracle(alphabet, forbidden):
    _check_higher_block_oracle(alphabet, forbidden)


def test_build_sft_matches_higher_block_oracle_on_random_blocks():
    rng = random.Random(1601)
    empty = stranded = one_letter = 0
    for _ in range(600):
        alphabet, forbidden = _random_forbidden(rng)
        states = _check_higher_block_oracle(alphabet, forbidden)
        prefixes = {w[:i] for w in forbidden for i in range(len(w))}
        clean = [u for u in prefixes if not any(w in u for w in forbidden)]
        empty += not states
        stranded += 0 < len(states) < len(clean)
        one_letter += any(len(w) == 1 for w in forbidden)
    assert empty and stranded and one_letter


def test_build_sft_grows_a_large_presentation_quickly():
    # The 8 proper prefixes of 0^8, where a higher-block presentation has
    # 4**7 states: each is one more 0, and any other letter returns to the
    # empty prefix.
    start = time.perf_counter()
    aut = build_sft_automaton("0123", ["0" * 8])
    assert time.perf_counter() - start < 3.0
    assert len(aut.states) == 8 and len(aut.transitions) == 7 + 8 * 3
    assert (aut.states, aut.transitions) == oracles.trie_graph("0123", ["0" * 8])


def test_presentation_budget_is_checked_on_the_blocks(monkeypatch):
    # 0^100000 would spell about 5 * 10**9 prefix letters: refused unbuilt.
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="presentation budget"):
        build_sft_automaton("01", ["0" * 100_000])
    assert time.perf_counter() - start < 0.5
    # Under a budget of 100, 0^14 spells 91 prefix letters and 0^15 105;
    # over ten letters 0^10 has 10 * 10 rows and 0^11 11 * 10.
    monkeypatch.setattr("shiftlab.blocks.SUBSET_STATE_LIMIT", 100)
    assert len(build_sft_automaton("01", ["0" * 14]).states) == 14
    assert len(build_sft_automaton("0123456789", ["0" * 10]).states) == 10
    for alphabet, block in [("01", "0" * 15), ("0123456789", "0" * 11)]:
        with pytest.raises(SizeGuardError):
            build_sft_automaton(alphabet, [block])


def test_four_letter_closed_form():
    aut = build_sft_automaton("abcd", EX31_FORBIDDEN)
    assert automaton_count_table(aut, 1).counts[1] == 4
    for n in range(2, 13):
        assert automaton_count_table(aut, n).counts[n] == (n + 7) * 2 ** (n - 2)


def test_even_shift_counts():
    aut = even_shift_automaton()
    assert automaton_count_table(aut, 1).counts[1] == 2
    assert automaton_count_table(aut, 3).counts[3] == 7
    assert automaton_count_table(aut, 4).counts[4] == 12


def test_even_shift_matches_brute_force():
    # The two-state presentation and the gap set of the even numbers both
    # count the words of the even shift.
    aut = even_shift_automaton()
    for n in range(1, 17):
        assert automaton_count_table(aut, n).counts[n] == oracles.brute_count_even(n)
        assert sgap_count_table(EVEN, n).counts[n] == oracles.brute_count_even(n)


def test_higher_block_automaton_counts_match_gap_dp():
    # S = {0,1} allows zero runs of length 0 and 1, so 00 is the only
    # forbidden block of its gap shift.
    aut = build_sft_automaton("01", ["00"])
    spec = parse_sgap_spec("{0,1}")
    for n in range(1, 14):
        assert automaton_count_table(aut, n).counts[n] == sgap_count_table(spec, n).counts[n]


def test_csv_export():
    table = sgap_count_table(parse_sgap_spec("co{}"), 4)
    lines = _counts_csv(count_row(table)).strip().splitlines()
    assert lines[0] == "n,count,log2_count,log2_count_over_n"
    assert lines[1] == "1,2,1,1"
    assert lines[4].startswith("4,16,4,")


def test_automaton_without_states_is_refused():
    # Every word is read from some state, so a stateless presentation has
    # no count table to export: refuse it where it is built.
    with pytest.raises(ValueError, match="at least one state"):
        ShiftAutomaton((), ("0",), {})


def test_automaton_table_builder():
    table = automaton_count_table(even_shift_automaton(), 6)
    assert table.counts[4] == 12 and table.counts[6] == 33


def test_automaton_table_one_pass_matches_per_length_counts():
    aut = build_sft_automaton("abcd", EX31_FORBIDDEN)
    counts = automaton_count_table(aut, 300).counts
    assert sorted(counts) == list(range(1, 301))
    for n in range(1, 41):
        assert counts[n] == automaton_count_table(aut, n).counts[n]
    assert counts[1] == 4
    for n in range(2, 301):
        assert counts[n] == (n + 7) * 2 ** (n - 2)


def test_even_shift_table_matches_even_gap_dp():
    # The even shift is the gap shift of the even numbers.
    counts = automaton_count_table(even_shift_automaton(), 300).counts
    reference = oracles.run_length_counts(parse_sgap_spec("ep:pre=;pat=1,0"), 300)
    assert [counts[n] for n in range(1, 301)] == reference[1:]
    assert counts == sgap_count_table(EVEN, 300).counts


def test_subset_budget_trips_at_the_first_layer_past_it(monkeypatch):
    # Start included, this presentation's subset construction has found 3, 7
    # and 15 subsets after lengths 1, 2 and 3.  A budget of 7 must admit a
    # table to length 2 and refuse one to length 3, which pins discovery to
    # one layer per length rather than the whole closure up front.
    aut = build_sft_automaton("01", ["0000", "1111"])
    monkeypatch.setattr("shiftlab.blocks.SUBSET_STATE_LIMIT", 7)
    assert automaton_count_table(aut, 2).counts == {1: 2, 2: 4}
    with pytest.raises(SizeGuardError):
        automaton_count_table(aut, 3)


def _csv_writer_oracle(table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "count", "log2_count", "log2_count_over_n"])
    for n in sorted(table.counts):
        l2 = math.log2(table.counts[n])
        writer.writerow([n, table.counts[n], f"{l2:.12g}", f"{l2 / n:.12g}"])
    return buf.getvalue()


@pytest.mark.parametrize(
    "build",
    [
        lambda n: sgap_count_table(parse_sgap_spec("{0,1,3,4,7}"), n),
        lambda n: automaton_count_table(even_shift_automaton(), n),
        lambda n: automaton_count_table(build_sft_automaton("01", ["11"]), n),
        lambda n: automaton_count_table(build_sft_automaton("abc", ["aa", "bc"]), n),
        lambda n: automaton_count_table(build_sft_automaton("abcd", EX31_FORBIDDEN), n),
    ],
    ids=["gap-set", "even", "golden", "sft3", "sft4"],
)
def test_csv_export_matches_csv_writer_bytes(build):
    table = build(1500)
    text = _counts_csv(count_row(table))
    assert text == _csv_writer_oracle(table)
    assert text.count("\r\n") == 1501 and text.endswith("\r\n")


def _twelve_digits(x: Decimal) -> Decimal:
    return Decimal(format(x, ".12g"))


def test_csv_log_columns_are_the_exact_logs_to_twelve_digits():
    # Each log cell is log2 c or log2 c / n rounded to 12 significant
    # digits, unless the exact value lies within 1e-14 (relative) of a
    # rounding boundary, where the float's own error may pick either
    # neighbour.  Of these 11,200 cells, 122 lie that near; each holds the
    # exact rounding.
    rows = [
        *(
            count_row(sgap_count_table(parse_sgap_spec(s), 1500))
            for s in ("co{0}", "{0,1,3,4,7}", "ep:pre=;pat=0,0,1")
        ),
        count_row(automaton_count_table(build_sft_automaton("abcd", EX31_FORBIDDEN), 1100)),
    ]
    near = 0
    for counts in rows:
        lines = _counts_csv(counts).splitlines()[1:]
        assert len(lines) == len(counts) - 1
        for n, line in enumerate(lines, start=1):
            cells = line.split(",")
            exact = oracles.exact_log2(counts[n])
            for cell, value in zip(cells[2:], (exact, exact / n)):
                low, high = value * Decimal("0.99999999999999"), value * Decimal("1.00000000000001")
                if _twelve_digits(low) != _twelve_digits(high):
                    near += 1
                    assert Decimal(cell) in (_twelve_digits(low), _twelve_digits(high))
                else:
                    assert Decimal(cell) == _twelve_digits(value), (n, cell, value)
    assert near == 122


@pytest.mark.parametrize(
    "alphabet, forbidden, s",
    [("01", ["11"], "co{0}"), ("01", ["000"], "{0,1,2}"), ("01", ["11", "0000"], "{1,2,3}")],
)
def test_long_sft_tables_match_gap_dp(alphabet, forbidden, s):
    aut = build_sft_automaton(alphabet, forbidden)
    table = automaton_count_table(aut, 300)
    assert table.counts == sgap_count_table(parse_sgap_spec(s), 300).counts


# Finite and cofinite sets are also given as forbidden blocks, except co{},
# the full shift, which has none.
PRESENTED_SPECS = oracles.random_specs(300, 2617)
SFT_SPECS = [s for s in PRESENTED_SPECS if s.period in ((0,), (1,)) and oracles.sft_blocks(s)]


def test_even_shift_presentation_has_two_states():
    assert oracles.gap_presentation(EVEN) == (
        ("0", "1"),
        ("0", "1"),
        {("0", "0"): "1", ("0", "1"): "0", ("1", "0"): "0"},
    )


def test_gap_presentation_counts_match_gap_kernel():
    for spec in PRESENTED_SPECS:
        aut = ShiftAutomaton(*oracles.gap_presentation(spec))
        table = automaton_count_table(aut, 30)
        assert table.counts == sgap_count_table(spec, 30).counts, spec.render()


@pytest.mark.parametrize("text", oracles.QUOTIENT_SETS)
def test_gap_presentation_long_tables_match_gap_kernel(text):
    spec = parse_sgap_spec(text)
    aut = ShiftAutomaton(*oracles.gap_presentation(spec))
    assert automaton_count_table(aut, 300).counts == sgap_count_table(spec, 300).counts


def test_sft_blocks_counts_match_gap_kernel():
    assert len(SFT_SPECS) > 150
    for spec in SFT_SPECS:
        aut = build_sft_automaton("01", oracles.sft_blocks(spec))
        table = automaton_count_table(aut, 40)
        assert table.counts == sgap_count_table(spec, 40).counts, spec.render()
