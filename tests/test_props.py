import math
import random
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from shiftlab.blocks import (
    _follower_profiles,
    automaton_count_table,
    build_sft_automaton,
    sgap_count_table,
)
from shiftlab import cli
from shiftlab.entropy import solve_sgap_entropy
from shiftlab.props import (
    VERDICT_BALANCED,
    VERDICT_BSM,
    VERDICT_DECAY,
    VERDICT_INCONCLUSIVE,
    almost_specified_floor,
    balanced_estimate,
    bsm_estimate,
    gibbs_diagnostics,
)
from shiftlab.sgap import SizeGuardError, classify, parse_sgap_spec

import oracles
from conftest import CORPUS_STRINGS, count_row

DOUBLING = "{0,1,2,4,8,16,32}"
# The even shift's gap set, which --even-shift names.
EVEN = parse_sgap_spec("ep:pre=;pat=1,0")
# The three --sft automata of the benchmark's count tables.
BSM_AUTOMATA = {
    "golden": lambda: build_sft_automaton("01", ["11"]),
    "sft3": lambda: build_sft_automaton("abc", ["aa", "bc"]),
    "sft4": lambda: build_sft_automaton("abcd", ["ac", "ad", "bd", "ca", "cb", "da", "db"]),
}
# Every pair ties (co{}), or the ratios climb to their supremum, so many
# pairs score within the float margin of the best and reach the exact test.
BSM_TIE_SETS = ["ep:pre=;pat=0,0,1", "ep:pre=;pat=1,0", "ep:pre=1;pat=1,1,0"]
BSM_SOURCES = (
    CORPUS_STRINGS
    + [spec.render() for spec in oracles.random_specs(6, 4177)]
    + BSM_TIE_SETS
    + list(BSM_AUTOMATA)
)


def test_bsm_full_shift_is_exactly_one():
    table = count_row(sgap_count_table(parse_sgap_spec("co{}"), 20))
    rep = bsm_estimate(table, 10)
    assert rep.estimate == 1 and rep.verdict == VERDICT_BSM
    # Every pair ties, and a tie never replaces the first maximum.
    assert rep.witness == (1, 1)


def test_bsm_even_shift_constant_below_four():
    table = count_row(sgap_count_table(EVEN, 28))
    rep = bsm_estimate(table, 10)
    assert 1 < rep.estimate <= 4
    # The maximum approaches phi^3 / sqrt(5); it reads stable at depth 14.
    assert bsm_estimate(table, 14).verdict == VERDICT_BSM
    assert float(bsm_estimate(table, 14).estimate) == pytest.approx(1.892, abs=2e-3)


def test_bsm_even_shift_exact_inequality():
    counts = sgap_count_table(EVEN, 20).counts
    for m in range(1, 11):
        for n in range(1, 11):
            assert counts[m] * counts[n] <= 4 * counts[m + n]


def test_bsm_four_letter_example_grows():
    aut = build_sft_automaton("abcd", ["ac", "ad", "bd", "ca", "cb", "da", "db"])
    table = count_row(automaton_count_table(aut, 24))
    rep = bsm_estimate(table, 12)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.estimate > bsm_estimate(table, 8).estimate


def test_bsm_maximising_pair_identity(corpus):
    for spec in corpus:
        counts = count_row(sgap_count_table(spec, 16))
        rep = bsm_estimate(counts, 8)
        m, n = rep.witness
        lhs = rep.estimate * counts[m + n]
        assert lhs == counts[m] * counts[n]
        assert rep.estimate >= 1


@pytest.mark.parametrize("source", BSM_SOURCES)
def test_bsm_matches_reference(source):
    # K, witness and verdict equal the plain Fraction maximum at every depth
    # up to 40 and at 300, where the counts run to hundreds of bits.
    if source in BSM_AUTOMATA:
        table = automaton_count_table(BSM_AUTOMATA[source](), 600)
    else:
        table = sgap_count_table(parse_sgap_spec(source), 600)
    counts = count_row(table)
    # A gap set's own gcd as the period, as check-bsm passes it.
    period = 1 if source in BSM_AUTOMATA else parse_sgap_spec(source).gcd()
    for depth in [*range(1, 41), 300]:
        rep = bsm_estimate(counts, depth)
        got = (rep.estimate, rep.witness, rep.verdict)
        assert got == oracles.bsm_reference(counts, depth), depth
        assert bsm_estimate(counts, depth, period) == rep, depth


def test_bsm_margin_covers_float_rounding():
    # log2 c2 rounds down and log2 c3 up, so the float score of (1, 2) falls
    # below that of (1, 1) although its ratio is larger: only the margin
    # keeps the true maximum in the exact test.
    c1 = 1 << 100
    c2 = (1 << 150) + int(0.9 * math.log(2) * 2**104)
    c3 = (c2 * c2 - 1) >> 100  # the largest c3 with c2 / c3 > c1 / c2
    counts = [1, c1, c2, c3, 1 << 400]
    logs = list(map(math.log2, counts))
    assert logs[1] - logs[3] + logs[2] < 2 * logs[1] - logs[2]
    rep = bsm_estimate(counts, 2)
    assert rep.witness == (1, 2)
    assert (rep.estimate, rep.witness, rep.verdict) == oracles.bsm_reference(counts, 2)


def test_math_log2_meets_the_bsm_error_budget():
    # The premise of bsm_estimate's "Why.": each L[n] = math.log2(counts[n])
    # lies within 6 * (1 + log2 c) * 2**-52 of log2 c, on both of CPython's
    # paths for an int: one double conversion, or a mantissa and exponent.
    rng = random.Random(37)
    widths = rng.choices(range(1, 4201), k=400)
    cases = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in widths]
    cases += [2**k + e for k in (*range(508, 517), *range(1020, 1029)) for e in (-1, 0, 1)]
    # Past the largest double, 2**1024 - 2**971, an int rounds to 2**1024
    # from the halfway point on, so float() overflows and math.log2 takes
    # the _PyLong_Frexp path.
    edge = 2**1024 - 2**970
    assert float(edge - 1) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(edge)
    cases += [edge - 1, edge, edge + 1, *(rng.randrange(edge, 2**1024) for _ in range(20))]
    for c in cases:
        exact = oracles.exact_log2(c)
        error = abs(Decimal(math.log2(c)) - exact)
        assert error <= 6 * (1 + exact) * Decimal(2) ** -52, c


def _random_counts(rng, n_max):
    """Positive counts no shift produces: runs of counts below 4, flat runs,
    jumps of hundreds of bits, drops and small steps, so the slope fitted
    to L[depth..2 * depth] often fits the rest of the row badly."""
    counts, c = [1], rng.randint(1, 3)
    for n in range(1, n_max + 1):
        kind = rng.randrange(6)
        if kind == 0:
            c = rng.randint(1, 3)
        elif kind == 2:
            c = (c << rng.randint(100, 400)) + rng.getrandbits(64)
        elif kind == 3:
            c = max(1, c >> rng.randint(1, 60))
        elif kind > 3:
            c = c * rng.randint(1, 5) + rng.randint(0, 3)
        counts.append(c)  # kind 1 repeats the last count
    return counts


@pytest.mark.parametrize("seed", range(16))
def test_bsm_row_bound_matches_reference_on_random_tables(seed):
    counts = _random_counts(random.Random(seed), 80)
    for depth in range(1, 41):
        rep = bsm_estimate(counts, depth)
        got = (rep.estimate, rep.witness, rep.verdict)
        assert got == oracles.bsm_reference(counts, depth), depth


def test_bsm_row_bound_within_margin_of_cut_still_scans():
    # Row 2's bound, attained by the pair (1, 2), lies half a margin below
    # cut: above skip = cut - margin, so the row is built and rejected by
    # the float test itself.
    c1, c2, c4 = 1 << 100, 1 << 150, 1 << 400
    margin = (1.0 + math.log2(c4)) * 2.0**-44
    c3 = (1 << 200) + int(2.5 * margin * math.log(2) * 2**200)
    counts = [1, c1, c2, c3, c4]
    logs = [0.0] + [math.log2(counts[n]) for n in range(1, 5)]
    h = (logs[4] - logs[2]) / 2
    g = [x - n * h for n, x in enumerate(logs)]
    bound = max(g[1], g[2]) + g[2] - min(g[3], g[4])
    cut = 2 * logs[1] - logs[2] - 2 * margin
    assert cut - margin <= bound < cut
    rep = bsm_estimate(counts, 2)
    assert rep.witness == (1, 1)
    assert (rep.estimate, rep.witness, rep.verdict) == oracles.bsm_reference(counts, 2)


# Ratios c(m) * c(d) / c(m + d) by row d: 3; 3/2, 3/2; 3, 18, 18;
# 18, 9, 9, 3; then 6 and 12 at most in rows 5 and 6.  Row 3 holds two exact
# maxima above the best, and row 4's maximum only equals it.
TIE_ROWS = [1, 3, 3, 6, 6, 1, 2, 4, 12, 1, 9, 16, 2]


@pytest.mark.parametrize("depth", range(1, 7))
def test_bsm_row_ties_keep_the_first_maximum(depth):
    # The anchor row 3 * depth // 4 is row 3 at depth 4 and row 4 at depth
    # 6.  Neither tie moves the witness off (2, 3).
    rep = bsm_estimate(TIE_ROWS, depth)
    got = (rep.estimate, rep.witness, rep.verdict)
    assert got == oracles.bsm_reference(TIE_ROWS, depth)
    if depth >= 3:
        assert (rep.estimate, rep.witness) == (18, (2, 3))
    if depth in (4, 6):
        assert rep.verdict == VERDICT_BSM


def _tied_counts(rng, n_max):
    """_random_counts with runs of k * 2**n planted over it.  Inside a run,
    every pair (m, d) with m and m + d in the run has the ratio
    counts[d] / 2**d, so rows hold exact ties, and rows whose d lies in the
    run as well tie each other at k."""
    counts = _random_counts(rng, n_max)
    for _ in range(rng.randint(1, 4)):
        start = rng.randint(1, n_max)
        k = rng.choice([1, 3, rng.getrandbits(200) | 1])
        for n in range(start, min(n_max, start + rng.randint(2, 30)) + 1):
            counts[n] = k << (n - start)
    return counts


@pytest.mark.parametrize("seed", range(16))
def test_bsm_planted_ties_match_reference_on_random_tables(seed):
    counts = _tied_counts(random.Random(seed), 80)
    for depth in range(1, 41):
        rep = bsm_estimate(counts, depth)
        got = (rep.estimate, rep.witness, rep.verdict)
        assert got == oracles.bsm_reference(counts, depth), depth


# Gap sets of gcd 3, 2, 4 and 3 and the even shift (gcd 1), whose counts
# oscillate with the residue of n.
PERIOD_SETS = ["{2,5}", "{1,3}", "{3,7}", "ep:pre=;pat=0,0,1", "ep:pre=;pat=1,0"]


def _period_tables():
    """(count row, depths) pairs: the random tables, TIE_ROWS, and the count
    rows of PERIOD_SETS."""
    for seed in range(16):
        yield _random_counts(random.Random(seed), 80), range(1, 41)
    yield TIE_ROWS, range(1, 7)
    for text in PERIOD_SETS:
        yield count_row(sgap_count_table(parse_sgap_spec(text), 120)), range(1, 61)


@pytest.mark.parametrize("members", [1, 30])
def test_bsm_any_period_matches_reference(monkeypatch, members):
    # The period sets only the speed: right or wrong, every period gives
    # the exact search's report.  With classes of one member, every row
    # from d = period on is bounded class by class.
    monkeypatch.setattr("shiftlab.props._CLASS_MEMBERS", members)
    for counts, depths in _period_tables():
        for depth in depths:
            want = oracles.bsm_reference(counts, depth)
            for period in range(1, 7):
                rep = bsm_estimate(counts, depth, period)
                assert (rep.estimate, rep.witness, rep.verdict) == want, (depth, period)


def test_bsm_refuses_a_period_below_one():
    with pytest.raises(ValueError, match="period must be >= 1"):
        bsm_estimate(TIE_ROWS, 4, 0)


# Float scores (row entries) check-bsm built before it bounded its rows per
# residue class of the gcd: the gcd-3 sets must now score at most half as
# many, the gcd-1 sets exactly as many.
PARENT_SCORES = [
    ("{2,5}", 800, 213_870),
    ("ep:pre=;pat=0,0,1", 539, 97_218),
    ("{0,2,5,8}", 750, 78),
    ("co{0}", 412, 1),
]


@pytest.mark.parametrize(("text", "depth", "parent"), PARENT_SCORES)
def test_check_bsm_scores_per_residue_class(monkeypatch, capsys, text, depth, parent):
    scores = 0

    def counted(a, b):
        nonlocal scores
        scores += 1
        return a - b

    # sub builds the row entries and nothing else in props.
    monkeypatch.setattr("shiftlab.props.sub", counted)
    assert cli.main(["check-bsm", "--s", text, "--depth", str(depth)]) == 0
    capsys.readouterr()
    if parse_sgap_spec(text).gcd() > 1:
        assert scores <= parent // 2
    else:
        assert scores == parent


class _CountedInt(int):
    """An int that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _CountedInt.products += 1
        return int.__mul__(self, other)

    def __rmul__(self, other):
        _CountedInt.products += 1
        return int.__rmul__(self, other)


def test_bsm_near_ties_cost_two_products_per_pair():
    # The even shift's ratios creep up to their supremum, so every row
    # keeps near-ties for the exact stage.  Three products per passing
    # pair, each tested against the best, took 95 938 here.
    counts = count_row(sgap_count_table(EVEN, 600))
    counted = list(map(_CountedInt, counts))
    _CountedInt.products = 0
    rep = bsm_estimate(counted, 300)
    assert 0 < _CountedInt.products <= 70_000
    assert rep == bsm_estimate(counts, 300)


@pytest.mark.parametrize("zero_at", [1, 2, 5, 8])
def test_bsm_zero_count_raises_one_error(zero_at):
    counts = [1 << n for n in range(9)]
    counts[zero_at] = 0
    with pytest.raises(ZeroDivisionError, match="block count of zero in the table"):
        bsm_estimate(counts, 4)


def test_estimators_refuse_a_row_one_entry_short():
    # bsm_estimate reads counts[0..2 * depth] and almost_specified_floor
    # counts[0..connector_max]: a row one entry shorter is refused, and the
    # exact length reads as the whole row.
    counts = count_row(sgap_count_table(EVEN, 40))
    for depth in (1, 4, 20):
        with pytest.raises(ValueError, match="count row stops before"):
            bsm_estimate(counts[: 2 * depth], depth)
        assert bsm_estimate(counts[: 2 * depth + 1], depth) == bsm_estimate(counts, depth)
    for n in (1, 5, 40):
        with pytest.raises(ValueError, match="count row stops before"):
            almost_specified_floor(counts[:n], n)
        assert almost_specified_floor(counts[: n + 1], n) == almost_specified_floor(counts, n)
    assert almost_specified_floor(counts, 2) == Fraction(1, 1 + 2 + 4)


def test_balanced_full_shift():
    rep = balanced_estimate(parse_sgap_spec("co{}"), 10, 8)
    assert rep.estimate == 1 and rep.verdict == VERDICT_BALANCED
    assert rep.witness == ("1", 1)


def test_balanced_doubling_gaps_decay():
    spec = parse_sgap_spec(DOUBLING)
    rep = balanced_estimate(spec, 34, 12)
    assert rep.verdict == VERDICT_DECAY
    omega, _ = rep.witness
    assert omega.startswith("1") and set(omega[1:]) <= {"0"}
    rep6 = balanced_estimate(spec, 34, 6)
    assert rep.estimate * 4 <= rep6.estimate


def test_balanced_positive_gaps_bounded_below():
    spec = parse_sgap_spec("co{0}")
    rep = balanced_estimate(spec, 16, 12)
    table = count_row(sgap_count_table(spec, 4))
    assert rep.verdict == VERDICT_BALANCED
    assert rep.estimate >= almost_specified_floor(table, classify(spec).gap_sup)


def test_connector_floor_across_corpus(corpus):
    for spec in corpus:
        gap_sup = classify(spec).gap_sup
        if gap_sup == 0:
            floor = Fraction(1)
        else:
            floor = almost_specified_floor(count_row(sgap_count_table(spec, gap_sup)), gap_sup)
        rep = balanced_estimate(spec, max(12, gap_sup + 2), 10)
        assert rep.estimate >= floor, spec


def test_gap_sup_is_not_a_connector_bound():
    # The corpus floors above take N = gap_sup; that is no theorem.
    spec = parse_sgap_spec("{3,10}")
    assert classify(spec).gap_sup == 7
    u, w = "10000", "0" * 9 + "1"
    assert oracles.sgap_word_ok(spec, u) and oracles.sgap_word_ok(spec, w)
    connectors = [
        "".join(bits)
        for k in range(9)
        for bits in product("01", repeat=k)
        if oracles.sgap_word_ok(spec, u + "".join(bits) + w)
    ]
    assert connectors == ["00000010"]


def test_k_bounded_by_inverse_b(corpus):
    # Balance at a window forces supermultiplicativity on the same window.
    for spec in corpus:
        d = 6
        table = count_row(sgap_count_table(spec, 2 * d))
        k_rep = bsm_estimate(table, d)
        b_rep = balanced_estimate(spec, d, d)
        assert k_rep.estimate <= 1 / b_rep.estimate


def test_ratio_band_implies_k_band(corpus):
    # Observed count ratios at all lengths up to 2d bound the observed
    # supermultiplicativity constant by c2 / c1^2.
    for spec in corpus:
        d = 7
        res = solve_sgap_entropy(spec, tol=1e-10)
        table = sgap_count_table(spec, 2 * d)
        ratios = [2.0 ** (n * res.entropy) / table.counts[n] for n in range(1, 2 * d + 1)]
        c1, c2 = min(ratios), max(ratios)
        k_est = float(bsm_estimate(count_row(table), d).estimate)
        assert k_est <= c2 / c1**2 * (1 + 1e-9), spec


def test_certified_k_implies_ratio_band():
    # With the proved constants (even shift K = 4, full shift K = 1) the
    # count ratios stay inside [1/K, 1].
    table = sgap_count_table(EVEN, 20)
    h = math.log2((1 + math.sqrt(5)) / 2)
    for n in range(1, 21):
        ratio = 2.0 ** (n * h) / table.counts[n]
        assert 0.25 - 1e-9 <= ratio <= 1.0 + 1e-9
    full = sgap_count_table(parse_sgap_spec("co{}"), 10)
    for n in range(1, 11):
        assert 2.0**n / full.counts[n] == 1.0


def test_gibbs_full_shift_exact():
    diag = gibbs_diagnostics(parse_sgap_spec("co{}"), 1.0, 12)
    assert all(v == 1.0 for v in diag.ratios.values())
    assert diag.c1 == 1 and diag.c2 == 1
    assert diag.all_cells_pass()
    cell = list(diag)[0]
    assert cell.lower == cell.mu_value == cell.upper


def test_gibbs_positive_gaps_band_stable():
    spec = parse_sgap_spec("co{0}")
    h = solve_sgap_entropy(spec, tol=1e-12).entropy
    diag = gibbs_diagnostics(spec, h, 14)
    ratios = list(diag.ratios.values())
    assert max(ratios) / min(ratios) < 1.2
    assert diag.all_cells_pass()
    # Band endpoints must barely move when the depth grows.
    deeper = gibbs_diagnostics(spec, h, 18)
    assert min(deeper.ratios.values()) == pytest.approx(min(ratios), rel=0.05)


def test_gibbs_cells_obey_band_by_construction(corpus):
    for spec in corpus:
        h = solve_sgap_entropy(spec, tol=1e-10).entropy
        diag = gibbs_diagnostics(spec, h, 10)
        assert diag.all_cells_pass(), spec
        assert all(0 < c.mu_value <= 1 for c in diag.finite_level_cells)


def test_gibbs_doubling_violates_corpus_band():
    # The doubling-gap cells fall below any level band the bounded-gap
    # reference shifts satisfy.
    def min_normalised_cell(spec_text):
        spec = parse_sgap_spec(spec_text)
        h = solve_sgap_entropy(spec, tol=1e-10).entropy
        diag = gibbs_diagnostics(spec, h, 14)
        counts = sgap_count_table(spec, 14).counts
        return min(
            float(c.mu_value * counts[c.r]) for c in diag.finite_level_cells
        )

    bounded_floor = min(
        min_normalised_cell(s) for s in ("co{}", "co{0}", "{0,1}")
    )
    assert min_normalised_cell(DOUBLING) < bounded_floor / 4


def test_gibbs_cell_values_match_follower_counts():
    spec = parse_sgap_spec("{0,2,5}")
    h = solve_sgap_entropy(spec, tol=1e-10).entropy
    diag = gibbs_diagnostics(spec, h, 10)
    counts = oracles.run_length_counts(spec, 10)
    for cell in list(diag)[:40]:
        followers = oracles.run_length_counts(spec, cell.k, prefix=cell.omega)
        expected = Fraction(followers[cell.k], counts[cell.r + cell.k])
        assert cell.mu_value == expected


def test_gibbs_reads_every_row_from_one_kernel_pass(monkeypatch, corpus):
    # One pass over distinct starts serves the count table, c1 and every
    # cell, and the diagnostics keep the rows that pass returned.
    calls = []

    def recording(spec, starts, r_max):
        counts, rows = _follower_profiles(spec, starts, r_max)
        calls.append((list(starts), counts, rows))
        return counts, rows

    monkeypatch.setattr("shiftlab.props._follower_profiles", recording)
    for spec in corpus + oracles.random_specs(20, 3301):
        for depth in (2, 7, 30):
            calls.clear()
            diag = gibbs_diagnostics(spec, 1.0, depth)
            assert len(calls) == 1, (spec, depth)
            starts, counts, rows = calls[0]
            assert len(set(starts)) == len(starts), (spec, depth)
            assert diag.counts is counts
            assert all(got is row for got, row in zip(diag.profiles, rows, strict=True))
            assert all(len(row) == depth + 1 for row in diag.profiles)
            window = depth // 2
            expected = balanced_estimate(spec, window, window).estimate
            assert diag.c1 == expected, (spec, depth)


def test_gibbs_hands_its_kernel_row_to_bsm_estimate(monkeypatch, corpus):
    # c2 is estimated on the very count row the kernel pass returned, not
    # on a copy or a table rebuilt from it, with the gap set's gcd as period.
    returned, estimated, periods = [], [], []

    def kernel(spec, starts, r_max):
        counts, rows = _follower_profiles(spec, starts, r_max)
        returned.append(counts)
        return counts, rows

    def estimate(counts, depth, period):
        estimated.append(counts)
        periods.append(period)
        return bsm_estimate(counts, depth, period)

    monkeypatch.setattr("shiftlab.props._follower_profiles", kernel)
    monkeypatch.setattr("shiftlab.props.bsm_estimate", estimate)
    for spec in corpus:
        returned.clear()
        estimated.clear()
        diag = gibbs_diagnostics(spec, 1.0, 12)
        assert len(returned) == len(estimated) == 1, spec
        assert estimated[0] is returned[0] is diag.counts, spec
        assert periods[-1] == classify(spec).gcd_value, spec
        assert diag.c2 == bsm_estimate(returned[0], 6).estimate


def _band_readings(diag):
    """all_cells_pass() and the reading of the Fraction cells, which must agree."""
    return diag.all_cells_pass(), all(c.passes() for c in diag.finite_level_cells)


def test_integer_band_check_matches_cells(corpus):
    # The integer test decides the band exactly as the Fraction cells do,
    # at the observed constants and at the tightest band the cells allow,
    # where a cell sits on each end: moving either end inwards by one part
    # in 10**6 must fail both readings.
    nudge = Fraction(1, 10**6)
    for spec in corpus + oracles.random_specs(20, 11):
        for depth in (2, 3, 5, 8, 13, 21, 30, 40):
            diag = gibbs_diagnostics(spec, 1.0, depth)
            cells = list(diag.finite_level_cells)
            assert len(diag) == len(cells) == len(diag.finite_level_cells)
            # The diagnostics are the iterable of their cells.
            assert list(diag) == cells
            assert diag.finite_level_cells is diag
            assert cells == sorted(cells, key=lambda c: (c.omega, c.r, c.k))
            assert _band_readings(diag) == (True, True), (spec, depth)

            levels = [c.mu_value * diag.counts[c.r] for c in cells]
            lo, hi = min(levels), max(levels)
            for c1, c2, ok in (
                (lo, hi, True),
                (lo * (1 + nudge), hi, False),
                (lo, hi * (1 - nudge), False),
            ):
                moved = replace(diag, c1=c1, c2=c2)
                assert _band_readings(moved) == (ok, ok), (spec, depth, c1, c2)


def _first_minimum_density(spec, word_max, r_max):
    """(estimate, witness, verdict): every suffix-run representative within
    the window, its density at every length, the first minimum in
    representative then length order, and decay when the minimum over
    r <= r_max // 2 is at least 4 times that minimum."""
    reps = ["1" + "0" * k for k in range(word_max)]
    reps += ["0" * k for k in range(1, word_max + 1)]
    counts = oracles.run_length_counts(spec, r_max)
    cells = []
    for omega in reps:
        if not oracles.sgap_word_ok(spec, omega):
            continue
        followers = oracles.run_length_counts(spec, r_max, prefix=omega)
        for r in range(1, r_max + 1):
            cells.append((Fraction(followers[r], counts[r]), (omega, r)))
    estimate, witness = min(cells, key=lambda cell: cell[0])
    at_half = [density for density, (_, r) in cells if r <= r_max // 2]
    decayed = at_half and min(at_half) >= 4 * estimate
    return estimate, witness, VERDICT_DECAY if decayed else VERDICT_BALANCED


@pytest.mark.parametrize("text", oracles.QUOTIENT_SETS)
def test_balanced_minimum_matches_unbounded_dp(text):
    spec = parse_sgap_spec(text)
    rep = balanced_estimate(spec, 56, 12)
    assert (rep.estimate, rep.witness, rep.verdict) == _first_minimum_density(spec, 56, 12)


@pytest.mark.parametrize("r_max", [1, 2, 3, 12])
def test_balanced_verdict_matches_definition(r_max):
    # At r_max 1 the half window r <= r_max // 2 is empty, so nothing
    # decays; at 3 and 12 the doubling gaps decay.
    verdicts = set()
    for text in [*oracles.QUOTIENT_SETS, DOUBLING]:
        spec = parse_sgap_spec(text)
        rep = balanced_estimate(spec, 34, r_max)
        want = _first_minimum_density(spec, 34, r_max)
        assert (rep.estimate, rep.witness, rep.verdict) == want, text
        verdicts.add(rep.verdict)
    assert (VERDICT_DECAY in verdicts) == (r_max >= 3)


@pytest.mark.parametrize(
    "text",
    oracles.QUOTIENT_SETS + [spec.render() for spec in oracles.random_specs(12, 8083)],
)
def test_balanced_first_class_words_match_every_word(text):
    # balanced_estimate reads only the first word of each follower class;
    # the oracle reads all 400 words of a window 200 long, past several
    # periods of every set, and must find the same first minimum.
    spec = parse_sgap_spec(text)
    rep = balanced_estimate(spec, 200, 12)
    assert (rep.estimate, rep.witness, rep.verdict) == _first_minimum_density(spec, 200, 12)


def _representatives(spec, word_max):
    """Every admissible '1' + zeros and all-zero word of the window, as
    (holds a one, trailing run)."""
    reps = [(True, k) for k in range(word_max) if oracles.tail_ok(spec, k)]
    return reps + [(False, k) for k in range(1, word_max + 1) if oracles.tail_ok(spec, k)]


def test_cell_budget_counts_every_representative(corpus):
    # gibbs builds every cell, so its budget counts all admissible '1' +
    # zeros and all-zero words of the window, without building them: a
    # budget one cell short refuses it.
    for spec in corpus + oracles.random_specs(20, 8081):
        for word_max in (2, 5, 17, 40):
            cells = len(_representatives(spec, word_max)) * word_max
            gibbs_diagnostics(spec, 1.0, 2 * word_max + 1, max_cells=cells)
            with pytest.raises(SizeGuardError, match=f"^{cells} follower cells"):
                gibbs_diagnostics(spec, 1.0, 2 * word_max, max_cells=cells - 1)


def test_balanced_cell_budget_counts_follower_rows(corpus):
    # check-balanced reads one row per follower class, so its budget counts
    # the distinct rows the kernel builds for every representative of the
    # window, times r_max: a budget one cell short refuses it.
    for spec in corpus + oracles.random_specs(20, 8081):
        for word_max in (1, 2, 5, 17, 40):
            _, rows = _follower_profiles(spec, _representatives(spec, word_max), 3)
            cells = len({id(row) for row in rows}) * 3
            balanced_estimate(spec, word_max, 3, max_cells=cells)
            with pytest.raises(SizeGuardError, match=f"^{cells} follower cells exceed"):
                balanced_estimate(spec, word_max, 3, max_cells=cells - 1)
