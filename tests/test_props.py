import math
from fractions import Fraction
from itertools import product

import pytest

from shiftlab.blocks import (
    BlockCountTable,
    automaton_count_table,
    build_sft_automaton,
    even_shift_automaton,
    sgap_count_table,
)
from shiftlab.entropy import log2_int, solve_sgap_entropy
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
from shiftlab.sgap import classify, parse_sgap_spec

import oracles
from conftest import CORPUS_STRINGS

DOUBLING = "{0,1,2,4,8,16,32}"
# The four automata of the benchmark's count tables.
BSM_AUTOMATA = {
    "even": even_shift_automaton,
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
    table = sgap_count_table(parse_sgap_spec("co{}"), 20)
    rep = bsm_estimate(table, 10)
    assert rep.k_estimate == 1 and rep.verdict == VERDICT_BSM
    # Every pair ties, and a tie never replaces the first maximum.
    assert rep.witness == (1, 1)


def test_bsm_even_shift_constant_below_four():
    table = automaton_count_table(even_shift_automaton(), 28)
    rep = bsm_estimate(table, 10)
    assert 1 < rep.k_estimate <= 4
    # The maximum approaches phi^3 / sqrt(5); it reads stable at depth 14.
    assert bsm_estimate(table, 14).verdict == VERDICT_BSM
    assert float(bsm_estimate(table, 14).k_estimate) == pytest.approx(1.892, abs=2e-3)


def test_bsm_even_shift_exact_inequality():
    counts = automaton_count_table(even_shift_automaton(), 20).counts
    for m in range(1, 11):
        for n in range(1, 11):
            assert counts[m] * counts[n] <= 4 * counts[m + n]


def test_bsm_four_letter_example_grows():
    aut = build_sft_automaton("abcd", ["ac", "ad", "bd", "ca", "cb", "da", "db"])
    table = automaton_count_table(aut, 24)
    rep = bsm_estimate(table, 12)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.k_estimate > bsm_estimate(table, 8).k_estimate


def test_bsm_maximising_pair_identity(corpus):
    for spec in corpus:
        table = sgap_count_table(spec, 16)
        rep = bsm_estimate(table, 8)
        m, n = rep.witness
        lhs = rep.k_estimate * table.counts[m + n]
        assert lhs == table.counts[m] * table.counts[n]
        assert rep.k_estimate >= 1


@pytest.mark.parametrize("source", BSM_SOURCES)
def test_bsm_matches_reference(source):
    # K, witness and verdict equal the plain Fraction maximum at every depth
    # up to 40 and at 300, where the counts run to hundreds of bits.
    if source in BSM_AUTOMATA:
        table = automaton_count_table(BSM_AUTOMATA[source](), 600)
    else:
        table = sgap_count_table(parse_sgap_spec(source), 600)
    for depth in [*range(1, 41), 300]:
        rep = bsm_estimate(table, depth)
        got = (rep.k_estimate, rep.witness, rep.verdict)
        assert got == oracles.bsm_reference(table.counts, depth), depth


def test_bsm_margin_covers_float_rounding():
    # log2 c2 rounds down and log2 c3 up, so the float score of (1, 2) falls
    # below that of (1, 1) although its ratio is larger: only the margin
    # keeps the true maximum in the exact test.
    c1 = 1 << 100
    c2 = (1 << 150) + int(0.9 * math.log(2) * 2**104)
    c3 = (c2 * c2 - 1) >> 100  # the largest c3 with c2 / c3 > c1 / c2
    table = BlockCountTable({1: c1, 2: c2, 3: c3, 4: 1 << 400})
    logs = {n: log2_int(c) for n, c in table.counts.items()}
    assert logs[1] - logs[3] + logs[2] < 2 * logs[1] - logs[2]
    rep = bsm_estimate(table, 2)
    assert rep.witness == (1, 2)
    assert (rep.k_estimate, rep.witness, rep.verdict) == oracles.bsm_reference(
        table.counts, 2
    )


def test_balanced_full_shift():
    rep = balanced_estimate(parse_sgap_spec("co{}"), 10, 8)
    assert rep.b_estimate == 1 and rep.verdict == VERDICT_BALANCED
    assert rep.witness == ("1", 1)


def test_balanced_doubling_gaps_decay():
    spec = parse_sgap_spec(DOUBLING)
    rep = balanced_estimate(spec, 34, 12)
    assert rep.verdict == VERDICT_DECAY
    omega, _ = rep.witness
    assert omega.startswith("1") and set(omega[1:]) <= {"0"}
    rep6 = balanced_estimate(spec, 34, 6)
    assert rep.b_estimate * 4 <= rep6.b_estimate


def test_balanced_positive_gaps_bounded_below():
    spec = parse_sgap_spec("co{0}")
    rep = balanced_estimate(spec, 16, 12)
    table = sgap_count_table(spec, 4)
    assert rep.verdict == VERDICT_BALANCED
    assert rep.b_estimate >= almost_specified_floor(table, classify(spec).gap_sup)


def test_connector_floor_across_corpus(corpus):
    for spec in corpus:
        gap_sup = classify(spec).gap_sup
        if gap_sup == 0:
            floor = Fraction(1)
        else:
            floor = almost_specified_floor(sgap_count_table(spec, gap_sup), gap_sup)
        rep = balanced_estimate(spec, max(12, gap_sup + 2), 10)
        assert rep.b_estimate >= floor, spec


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
        table = sgap_count_table(spec, 2 * d)
        k_rep = bsm_estimate(table, d)
        b_rep = balanced_estimate(spec, d, d)
        assert k_rep.k_estimate <= 1 / b_rep.b_estimate


def test_ratio_band_implies_k_band(corpus):
    # Observed count ratios at all lengths up to 2d bound the observed
    # supermultiplicativity constant by c2 / c1^2.
    for spec in corpus:
        d = 7
        res = solve_sgap_entropy(spec, tol=1e-10)
        table = sgap_count_table(spec, 2 * d)
        ratios = [2.0 ** (n * res.entropy) / table.counts[n] for n in range(1, 2 * d + 1)]
        c1, c2 = min(ratios), max(ratios)
        k_est = float(bsm_estimate(table, d).k_estimate)
        assert k_est <= c2 / c1**2 * (1 + 1e-9), spec


def test_certified_k_implies_ratio_band():
    # With the proved constants (even shift K = 4, full shift K = 1) the
    # count ratios stay inside [1/K, 1].
    table = automaton_count_table(even_shift_automaton(), 20)
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
    cell = diag.finite_level_cells[0]
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
    for cell in diag.finite_level_cells[:40]:
        followers = oracles.run_length_counts(spec, cell.k, prefix=cell.omega)
        expected = Fraction(followers[cell.k], counts[cell.r + cell.k])
        assert cell.mu_value == expected


@pytest.mark.parametrize("text", oracles.QUOTIENT_SETS)
def test_balanced_minimum_matches_unbounded_dp(text):
    # Every suffix-run representative within the window, its density at
    # every length, the first minimum in representative then length order.
    spec = parse_sgap_spec(text)
    word_max, r_max = 56, 12
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
    density, witness = min(cells, key=lambda cell: cell[0])
    rep = balanced_estimate(spec, word_max, r_max)
    assert (rep.b_estimate, rep.witness) == (density, witness)
