"""Acceptance gate: one test per published or independently derived target.

Each test prints a single pass/fail line (visible with `pytest -s`) and
enforces its wall-clock budget.
"""

import contextlib
import io
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

from shiftlab.beta import (
    BetaContext,
    enumerate_expansions_of_one,
    greedy_expansion,
    komornik_loreti_constant,
    lazy_expansion,
    max_zero_run_bound,
    specified_gap_set,
)
from shiftlab.blocks import (
    automaton_count_table,
    build_sft_automaton,
    log2_int,
    sgap_count_table,
)
from shiftlab.cli import main as cli_main
from shiftlab.entropy import solve_sgap_entropy
from shiftlab.props import (
    VERDICT_DECAY,
    almost_specified_floor,
    balanced_estimate,
    bsm_estimate,
    gibbs_diagnostics,
)
from shiftlab.sgap import classify, parse_sgap_spec

import oracles
from conftest import CORPUS_STRINGS

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _gate(name, limit_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"{name} took {elapsed:.2f}s"


def test_criterion_1_four_letter_closed_form():
    def body():
        aut = build_sft_automaton("abcd", ["ac", "ad", "bd", "ca", "cb", "da", "db"])
        assert automaton_count_table(aut, 1).counts[1] == 4
        for n in range(2, 13):
            assert automaton_count_table(aut, n).counts[n] == (n + 7) * 2 ** (n - 2)

    _gate("1 four-letter closed form", 1.0, body)


def test_criterion_2_even_shift_bsm_bound():
    def body():
        counts = sgap_count_table(parse_sgap_spec("ep:pre=;pat=1,0"), 20).counts
        for m in range(1, 11):
            for n in range(1, 11):
                assert counts[m] * counts[n] <= 4 * counts[m + n]

    _gate("2 even-shift K=4 bound", 1.0, body)


def test_criterion_2b_deep_bsm_search():
    # Counts up to 4166 bits settle on the golden slope, so the row bound
    # rules out all but a few of the 3000 rows before any float is scored,
    # and the float filter sends few pairs to the exact integer test.
    def body():
        table = sgap_count_table(parse_sgap_spec("co{0}"), 6000)
        rep = bsm_estimate(table, 3000)
        assert rep.witness == (1, 1) and rep.estimate == Fraction(4, 3)

    _gate("2b deep BSM search", 5.0, body)


def test_criterion_2b2_bsm_scan_is_linear_for_settling_counts():
    # 50 million pairs at depth 10000: a quadratic row scan takes seconds,
    # the row bound leaves the count table (~0.1 s) as the cost.
    def body():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["check-bsm", "--s", "co{0}", "--depth", "10000"])
        result = json.loads(out.getvalue())["result"]
        assert code == 0 and result["witness"] == [1, 1] and result["K_estimate"] == "4/3"

    _gate("2b2 linear BSM scan", 2.0, body)


def test_criterion_2c_deep_gibbs_band():
    # 500,000 cells, decided in integers without building one of them.
    def body():
        spec = parse_sgap_spec("co{0,1,4}")
        h = solve_sgap_entropy(spec, tol=1e-10).entropy
        diag = gibbs_diagnostics(spec, h, 1000)
        assert len(diag) == 500_000
        assert diag.all_cells_pass()

    _gate("2c deep Gibbs band", 1.2, body)


def test_criterion_2d_balanced_reads_one_word_per_class():
    # 4000 words of a window 2000 long fall into 7 follower classes.
    def body():
        spec = parse_sgap_spec("ep:pre=0,1,0;pat=1,0,1")
        rep = balanced_estimate(spec, 2000, 500)
        assert rep.witness == ("1", 5)

    _gate("2d balanced estimate per class", 0.15, body)


def _peak_bytes(body):
    tracemalloc.start()
    try:
        body()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_criterion_2e_follower_memory(monkeypatch):
    # Neither a wide window nor a refused one builds a word past the first
    # of its class: 10,000 words share 3 classes, and a gibbs depth whose
    # cells exceed the budget exits 4 before any word or count is built.
    monkeypatch.delenv("SHIFTLAB_MAX_CELLS", raising=False)

    def body():
        spec = parse_sgap_spec("co{0}")
        assert _peak_bytes(lambda: balanced_estimate(spec, 5000, 4)) < 1 << 20
        err = io.StringIO()
        codes = []
        with contextlib.redirect_stderr(err):
            peak = _peak_bytes(
                lambda: codes.append(cli_main(["gibbs", "--s", "co{0}", "--depth", "30000"]))
            )
        assert codes == [4] and "follower cells exceed the budget" in err.getvalue()
        assert peak < 1 << 20

    _gate("2e follower memory", 5.0, body)


def test_criterion_3_golden_entropy_and_slope():
    def body():
        spec = parse_sgap_spec("co{0}")
        res = solve_sgap_entropy(spec, tol=1e-10)
        assert abs(res.lam - PHI) < 1e-9
        table = sgap_count_table(spec, 18)
        slope = log2_int(table.counts[18]) / 18
        assert 0.0 <= slope - math.log2(res.lam) < 0.08

    _gate("3 golden entropy + slope", 5.0, body)


def test_criterion_4_komornik_loreti():
    def body():
        lam = komornik_loreti_constant(1e-6)
        assert round(lam, 3) == 1.787
        assert abs(math.log(lam) - 0.580) < 1e-3

    _gate("4 smallest univoque base", 1.0, body)


def test_criterion_5_golden_leaves_classify():
    def body():
        leaves = enumerate_expansions_of_one(BetaContext(PHI), 12, 512)
        assert leaves
        for leaf in leaves:
            assert oracles.golden_family(leaf.digit_word())[0] != "NotAPrefix"

    _gate("5 golden-base expansion families", 1.0, body)


def test_criterion_6_balanced_decay_witness():
    def body():
        spec = parse_sgap_spec("{0,1,2,4,8,16,32}")
        rep12 = balanced_estimate(spec, 34, 12)
        assert rep12.verdict == VERDICT_DECAY
        omega, _ = rep12.witness
        assert omega[0] == "1" and set(omega[1:]) <= {"0"}
        rep6 = balanced_estimate(spec, 34, 6)
        assert rep12.estimate <= rep6.estimate / 4

    _gate("6 unbounded-gap follower decay", 30.0, body)


def test_criterion_7_connector_floor():
    def body():
        for text in CORPUS_STRINGS:
            spec = parse_sgap_spec(text)
            gap_sup = classify(spec).gap_sup
            if gap_sup == 0:
                floor = Fraction(1)
            else:
                table = sgap_count_table(spec, gap_sup)
                floor = almost_specified_floor(table, gap_sup)
            rep = balanced_estimate(spec, max(12, gap_sup + 2), 10)
            assert rep.estimate >= floor, text

    _gate("7 connector lower bound", 30.0, body)


def test_criterion_8_oracle_equivalence():
    def body():
        rng = random.Random(20260810)
        for _ in range(200):
            spec = oracles.random_spec(rng)
            for n in range(1, 15):
                assert sgap_count_table(spec, n).counts[n] == oracles.brute_count_sgap(spec, n)

    _gate("8 count vs enumeration oracle", 60.0, body)


def test_criterion_9_property_suite():
    def body():
        rng = random.Random(97)
        for _ in range(500):
            lam = rng.uniform(1.05, 1.95)
            ctx = BetaContext(lam)
            x = rng.uniform(0.0, ctx.interval_right)
            gen = rng.choice((greedy_expansion, lazy_expansion))
            depth = 48
            prefix = gen(x, ctx, depth)

            # Partial-sum identity at orbit-algebra tolerance.
            for k in (1, depth // 2, depth):
                lhs = x - prefix.partial_sum(k)
                rhs = lam**-k * prefix.orbit[k - 1]
                assert abs(lhs - rhs) < 1e-10

            # Absorbing intervals.
            if gen is greedy_expansion:
                entered = False
                for y in prefix.orbit:
                    if entered:
                        assert y < 1.0 + 1e-9
                    if y < 1.0:
                        entered = True
            else:
                threshold = (2.0 - lam) / (lam - 1.0)
                entered = False
                for y in prefix.orbit:
                    if entered:
                        assert y > threshold - 1e-9
                    if y > threshold:
                        entered = True
                # Zero-run bound from the orbit floor.
                if x > 1e-6:
                    delta = min(x, threshold) * (1 - 1e-9)
                    bound = max_zero_run_bound(delta, ctx)
                    assert oracles.max_zero_run(prefix.digit_word()) < bound

            # Count sandwich for a random gap set: the slope upper-bounds
            # the solved entropy, and the window-certified constant closes
            # the lower bound.
            spec = oracles.random_spec(rng)
            res = solve_sgap_entropy(spec, tol=1e-9)
            table = sgap_count_table(spec, 12)
            k_window = max(
                max(table.counts[j] / res.lam**j for j in range(1, 13)), 1.0
            )
            for n in (4, 12):
                l2 = log2_int(table.counts[n])
                lower, upper = (l2 - math.log2(k_window)) / n, l2 / n
                assert lower <= res.entropy + 1e-9
                assert upper >= res.entropy - 1e-9

    _gate("9 randomized property suite", 60.0, body)


def test_criterion_10_specified_gap_set_of_any_entropy():
    # The abstract: for every q in (0, 1) some S-gap shift has specification
    # and entropy q.  On a grid of q, a finite S whose base lies in
    # (2**q - tol, 2**q], certified both ways by the solver's bracket.
    def body():
        tol = 1e-10
        for i in range(1, 20):
            lam = 2.0 ** (i / 20)
            spec = specified_gap_set(lam, tol)
            assert spec.is_finite() and classify(spec).has_specification
            res = solve_sgap_entropy(spec, tol=tol)
            assert res.lambda_lo <= lam and lam - tol < res.lambda_hi
            assert abs(res.entropy - i / 20) < 1e-9

    _gate("10 specified gap set of any entropy", 1.0, body)
