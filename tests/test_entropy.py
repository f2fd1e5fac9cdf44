import math

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.blocks import automaton_count_table, even_shift_automaton, sgap_count_table
from shiftlab.entropy import (
    EntropySolveError,
    _bisect,
    entropy_bounds_from_counts,
    entropy_slope_diagnostic,
    log2_int,
    solve_sgap_entropy,
)
from shiftlab.props import bsm_estimate
from shiftlab.sgap import parse_sgap_spec

import oracles
from conftest import CORPUS_STRINGS

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_full_shift_exact():
    res = solve_sgap_entropy(parse_sgap_spec("co{}"))
    assert res.lam == 2.0 and res.entropy == 1.0


def test_singleton_exact():
    res = solve_sgap_entropy(parse_sgap_spec("{0}"))
    assert res.lam == 1.0 and res.entropy == 0.0
    assert solve_sgap_entropy(parse_sgap_spec("{7}")).entropy == 0.0


def test_positive_gaps_give_golden_ratio():
    res = solve_sgap_entropy(parse_sgap_spec("co{0}"), tol=1e-10)
    assert abs(res.lam - PHI) < 1e-9
    assert res.residual + res.tail_bound < 1e-10
    assert res.truncation_depth is not None


def test_golden_mean_set():
    # Independent oracle: bisect 1/x + 1/x^2 - 1 directly.
    target = oracles.bisect_decreasing(
        lambda x: 1 / x + 1 / x**2, 1.0 + 1e-9, 2.0, 1.0, 1e-13
    )
    res = solve_sgap_entropy(parse_sgap_spec("{0,1}"), tol=1e-12)
    assert abs(res.lam - target) < 1e-11
    assert abs(res.lam - PHI) < 1e-11


def test_odd_gaps_root_is_sqrt2():
    res = solve_sgap_entropy(parse_sgap_spec("ep:pre=;pat=0,1"), tol=1e-12)
    assert abs(res.lam - math.sqrt(2.0)) < 1e-11


def test_solver_matches_closed_form_series(corpus):
    # The closed geometric form of the series is an independent evaluation
    # route; its bisection root must agree with the truncated-series solver.
    for spec in corpus:
        if spec.size() == 1 or spec.is_full():
            continue
        res = solve_sgap_entropy(spec, tol=1e-11)
        target = oracles.bisect_decreasing(
            lambda x: oracles.closed_series(spec, x), 1.0 + 1e-9, 2.0, 1.0, 1e-13
        )
        assert abs(res.lam - target) < 5e-11, spec


# (lambda, entropy, iterations) of every corpus set, as exact doubles, at
# the default tolerance and at the float floor 2**-50.
_EXACT = {
    1e-10: [
        (1.0, 0.0, 0),
        (1.618033988749895, 0.6942419136306174, 34),
        (1.5384965922131477, 0.6215212480896332, 34),
        (1.272019649514069, 0.3471209568153087, 35),
        (1.89203625544194, 0.919939734050007, 34),
        (2.0, 1.0, 0),
        (1.6180339887498831, 0.6942419136306068, 34),
        (1.9331849818995204, 0.9509796922312425, 34),
        (1.4219750143068974, 0.5078961154128689, 35),
        (1.4142135623730951, 0.5000000000000001, 35),
        (1.8019377358048383, 0.8495491610973281, 34),
        (1.5589798779816466, 0.6406023070456801, 34),
    ],
    2.0**-50: [
        (1.0, 0.0, 0),
        (1.6180339887498947, 0.6942419136306172, 50),
        (1.5384965922131475, 0.6215212480896329, 50),
        (1.2720196495140688, 0.3471209568153084, 51),
        (1.8920362554419399, 0.9199397340500068, 50),
        (2.0, 1.0, 0),
        (1.6180339887498947, 0.6942419136306172, 50),
        (1.9331849818995204, 0.9509796922312425, 50),
        (1.4219750143068974, 0.5078961154128689, 51),
        (1.4142135623730951, 0.5000000000000001, 51),
        (1.8019377358048383, 0.8495491610973281, 50),
        (1.558979877981751, 0.6406023070457766, 50),
    ],
}


@pytest.mark.parametrize("tol", sorted(_EXACT))
def test_solver_exact_values(tol):
    for text, expected in zip(CORPUS_STRINGS, _EXACT[tol], strict=True):
        res = solve_sgap_entropy(parse_sgap_spec(text), tol)
        assert (res.lam, res.entropy, res.iterations) == expected, text


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1.0, 1.5, exclude_min=True),
    st.floats(0.0, 1.0),
    st.floats(2.0**-50, 1.0),
)
def test_bisect_reaches_half_tolerance(lo, frac, tol):
    # With tol >= 2**-50 inside [1, 2] the bracket always narrows to tol / 2,
    # so the adjacent-doubles stop never ends an entropy solve.
    root = lo + frac * (2.0 - lo)

    def series(x):
        return root / x

    a, b, steps = _bisect(series, lo, 2.0, tol)
    assert lo <= a < b <= 2.0 and b - a <= tol / 2
    assert steps <= 52
    assert a == lo or series(a) > 1.0
    assert b == 2.0 or series(b) <= 1.0


def test_monotone_in_the_gap_set():
    nested = ["{0}", "{0,1}", "{0,1,2}", "{0,1,2,3}", "{0,1,2,3,4}"]
    lams = [solve_sgap_entropy(parse_sgap_spec(s), 1e-12).lam for s in nested]
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_entropy_result_certificate(corpus):
    for spec in corpus:
        res = solve_sgap_entropy(spec, tol=1e-9)
        assert 1.0 <= res.lam <= 2.0
        assert res.residual + res.tail_bound < 1e-9
        assert res.entropy == pytest.approx(math.log2(res.lam), abs=1e-15)


def test_unreachable_tolerance_raises():
    with pytest.raises((EntropySolveError, ValueError)):
        solve_sgap_entropy(parse_sgap_spec("{0,1}"), tol=0.0)


def test_bounds_full_shift():
    table = sgap_count_table(parse_sgap_spec("co{}"), 8)
    assert entropy_bounds_from_counts(table, 1, 5) == (1.0, 1.0)


def test_bounds_even_shift_sandwich():
    table = automaton_count_table(even_shift_automaton(), 10)
    lower, upper = entropy_bounds_from_counts(table, 4, 10)
    assert upper - lower == pytest.approx(0.2, abs=1e-12)
    assert lower <= math.log2(PHI) <= upper


def test_bounds_positive_gaps_with_estimated_constant():
    spec = parse_sgap_spec("co{0}")
    table = sgap_count_table(spec, 16)
    k_est = bsm_estimate(table, 8).k_estimate
    lower, upper = entropy_bounds_from_counts(table, k_est, 16)
    assert lower <= math.log2(PHI) <= upper


def test_slope_diagnostic_full_shift():
    table = sgap_count_table(parse_sgap_spec("co{}"), 10)
    assert all(v == 1.0 for _, v in entropy_slope_diagnostic(table, 10))


def test_slope_diagnostic_even_shift():
    # Independent oracle: spectral radius of the two-state presentation.
    rho = oracles.spectral_radius_2x2(1, 1, 1, 0)
    h = math.log2(rho)
    assert abs(rho - PHI) < 1e-12
    table = automaton_count_table(even_shift_automaton(), 16)
    slopes = [v for _, v in entropy_slope_diagnostic(table, 16)]
    assert all(v >= h - 1e-12 for v in slopes)
    assert slopes[-1] - h < slopes[0] - h


def test_slope_upper_bounds_solver(corpus):
    for spec in corpus:
        res = solve_sgap_entropy(spec, tol=1e-10)
        table = sgap_count_table(spec, 18)
        for n, v in entropy_slope_diagnostic(table, 18):
            assert v >= res.entropy - 1e-9, (spec, n)


def test_slope_excess_bounded_by_estimated_constant(corpus):
    for spec in corpus:
        res = solve_sgap_entropy(spec, tol=1e-10)
        table = sgap_count_table(spec, 18)
        k_est = bsm_estimate(table, 9).k_estimate
        c = math.log2(float(k_est)) if k_est > 1 else 0.0
        # Window-certified constant: counts(n) <= K * lam^n on the window.
        k_window = max(
            table.counts[j] / res.lam**j for j in range(1, 19)
        )
        k_valid = max(float(k_est), k_window)
        for n in range(1, 19):
            slope = log2_int(table.counts[n]) / n
            assert 0.0 <= slope - res.entropy + 1e-9
            assert slope - res.entropy <= math.log2(k_valid) / n + 1e-9


def test_log2_int_large_values():
    assert log2_int(2**1000) == pytest.approx(1000.0)
    assert log2_int(3**500) == pytest.approx(500 * math.log2(3), rel=1e-12)
