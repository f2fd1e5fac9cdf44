import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from shiftlab import entropy
from shiftlab.beta import komornik_loreti_constant, specified_gap_set
from shiftlab.blocks import log2_int, sgap_count_table
from shiftlab.entropy import (
    EntropySolveError,
    _exact_sign,
    _gap_terms,
    _root_bracket,
    _sign_interval,
    solve_sgap_entropy,
)
from shiftlab.props import bsm_estimate
from shiftlab.sgap import parse_sgap_spec, periodic_gaps

import oracles
from conftest import CORPUS_STRINGS

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def assert_bracket(res, tol):
    assert res.lambda_lo <= res.lam <= res.lambda_hi
    assert res.lambda_hi - res.lambda_lo <= tol


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
    assert_bracket(res, 1e-10)


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
# the default tolerance and at the float floor 2**-50.  The solver bisects
# [1, 2] on the closed form of the series and reports the midpoint of its
# exact bracket; the earlier pins were roots of a truncated series, Newton
# polished, so every value here moved by up to the tolerance.
_EXACT = {
    1e-10: [
        (1.0, 0.0, 0),
        (1.6180339887359878, 0.6942419136182173, 35),
        (1.5384965922130505, 0.6215212480895419, 35),
        (1.2720196495210985, 0.34712095682328137, 35),
        (1.8920362554345047, 0.9199397340443375, 35),
        (2.0, 1.0, 0),
        (1.6180339887359878, 0.6942419136182173, 35),
        (1.933184981913655, 0.9509796922417909, 35),
        (1.4219750143020065, 0.5078961154079067, 36),
        (1.4142135623696959, 0.4999999999965324, 35),
        (1.8019377357995836, 0.8495491610931211, 35),
        (1.558979877983802, 0.6406023070476746, 35),
    ],
    2.0**-50: [
        (1.0, 0.0, 0),
        (1.6180339887498947, 0.6942419136306172, 51),
        (1.538496592213148, 0.6215212480896334, 51),
        (1.2720196495140688, 0.3471209568153084, 51),
        (1.8920362554419399, 0.9199397340500068, 51),
        (2.0, 1.0, 0),
        (1.618033988749895, 0.6942419136306174, 52),
        (1.9331849818995204, 0.9509796922312425, 51),
        (1.4219750143068977, 0.5078961154128692, 52),
        (1.414213562373095, 0.4999999999999999, 52),
        (1.8019377358048383, 0.8495491610973281, 51),
        (1.5589798779817508, 0.6406023070457765, 52),
    ],
}


@pytest.mark.parametrize("tol", sorted(_EXACT))
def test_solver_exact_values(tol):
    for text, expected in zip(CORPUS_STRINGS, _EXACT[tol], strict=True):
        res = solve_sgap_entropy(parse_sgap_spec(text), tol)
        assert (res.lam, res.entropy, res.iterations) == expected, text
        assert res.lambda_lo <= expected[0] <= res.lambda_hi, text


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.floats(2.0**-50, 1.0))
def test_bisect_reaches_half_tolerance(rng, tol):
    # With tol >= 2**-50 inside [1, 2] the bracket always narrows to tol / 2,
    # so the adjacent-doubles stop never ends an entropy solve.  A singleton
    # has its root at 1, where no bracket can close; the solver returns it
    # directly.
    spec = oracles.random_spec(rng)
    assume(spec.size() != 1)
    terms = _gap_terms(spec)
    a, b, steps = _root_bracket(terms, tol)
    assert 1.0 < a < b <= 2.0 and b - a <= tol / 2
    assert steps <= 52
    assert _exact_sign(terms, a) > 0
    assert b == 2.0 or _exact_sign(terms, b) < 0


def _small_descriptions(max_bits):
    """Every set with a (preperiod, period) description of at most max_bits
    bits, once each, but for the empty set, the singletons and the full set,
    whose roots the solver does not bisect for."""
    specs = {}
    for length in range(1, max_bits + 1):
        for q in range(length):
            for bits in itertools.product((0, 1), repeat=length):
                if any(bits):
                    spec = periodic_gaps(bits[:q], bits[q:])
                    if spec.size() != 1 and not spec.is_full():
                        specs[spec] = None
    return list(specs)


_REFERENCE_SETS = [
    *_small_descriptions(6),
    *(periodic_gaps([], [0] * (p - 1) + [1]) for p in (2, 50, 256, 257, 400)),
    # kl's set: the parity-doubling digits t(1..256).
    periodic_gaps([bin(j).count("1") & 1 for j in range(1, 257)], [0]),
]


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 2.0**-50, 0.3])
def test_root_bracket_is_the_reference_bisection(tol):
    # The float bracket only skips evaluations: the ends and the halving
    # count are those of a bisection that takes every side exactly.
    for spec in _REFERENCE_SETS:
        expected = oracles.reference_bracket(spec, tol)
        assert _root_bracket(_gap_terms(spec), tol) == expected, spec.render()


@pytest.mark.parametrize(
    "solve, most",
    [
        (lambda: komornik_loreti_constant(1e-10), 20),
        (lambda: solve_sgap_entropy(parse_sgap_spec("{0,2,5,8}"), 1e-10), 20),
        (lambda: solve_sgap_entropy(periodic_gaps([], [0] * 299 + [1]), 1e-10), 32),
    ],
    ids=["kl", "{0,2,5,8}", "period300"],
)
def test_series_evaluations_per_solve(monkeypatch, solve, most):
    # A bisection alone evaluates the series 36 times for the first two and
    # 44 times for period 300; the counts are deterministic.
    calls = []
    series = entropy._closed_series
    monkeypatch.setattr(entropy, "_closed_series", lambda *args: calls.append(1) or series(*args))
    solve()
    assert 0 < len(calls) <= most


# Each gap set with a polynomial in lambda, negative below its root and
# positive above it; the certified ends must straddle that root exactly.
# One member per period p has the root 2**(1/p).
_ROOT_POLYNOMIALS = [
    pytest.param("{0,1}", lambda x: x * x - x - 1, id="{0,1}"),
    pytest.param("co{0}", lambda x: x * x - x - 1, id="co{0}"),
    # The float series reads 1 + 2**-52 at 1.3802775690976141, above the root.
    pytest.param("co{0,1,2}", lambda x: x**4 - x**3 - 1, id="co{0,1,2}"),
    *(
        pytest.param(
            "ep:pre=;pat=" + "0," * (p - 1) + "1", lambda x, p=p: x**p - 2, id=f"period{p}"
        )
        for p in (2, 256, 257, 300, 400)
    ),
]


@pytest.mark.parametrize("tol", [1e-10, 2.0**-50])
@pytest.mark.parametrize("text, poly", _ROOT_POLYNOMIALS)
def test_certified_ends_straddle_the_root_exactly(text, poly, tol):
    spec = parse_sgap_spec(text)
    res = solve_sgap_entropy(spec, tol)
    assert poly(Fraction(res.lambda_lo)) < 0 < poly(Fraction(res.lambda_hi))
    assert_bracket(res, tol)
    # The series is steep near 1 (slope -2p at 2**(1/p)), so a bracket
    # tol/2 wide is not enough: the series at lambda is within tol of 1.
    assert abs(oracles.closed_series(spec, res.lam) - 1.0) <= tol + 1e-12


@pytest.mark.parametrize("text, poly", _ROOT_POLYNOMIALS)
def test_exact_sign_at_the_doubles_around_the_root(text, poly):
    # The last double below the root, found with the polynomial alone, and
    # three doubles on each side of it.  Near the root the float series can
    # round to exactly 1 (at 1.6180339887498947 for {0,1}), so only an exact
    # sign gets all of them right.
    lo, hi = 1.0, 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if poly(Fraction(mid)) < 0 else (lo, mid)
    terms = _gap_terms(parse_sgap_spec(text))
    x = lo
    for _ in range(3):
        x = math.nextafter(x, 0.0)
    for _ in range(7):
        assert _exact_sign(terms, x) == (1 if poly(Fraction(x)) < 0 else -1), x
        x = math.nextafter(x, 2.0)


@pytest.mark.parametrize("w", [8, 16, 128])
@pytest.mark.parametrize("lam", [1.3, 1.5, 1.7, 1.9])
@pytest.mark.parametrize("text", ["{0,1}", "{0,2,5}", "{0,1,2,4,8,16,32}"])
def test_sign_interval_holds_the_finite_series(text, lam, w):
    # For a finite set the interval holds (f(lam) - 1) * 2**(2w), with f
    # summed exactly: its ends are rounded outward at every product.
    spec = parse_sgap_spec(text)
    exact = sum(Fraction(lam) ** -(n + 1) for n in spec.members_up_to(len(spec.preperiod) - 1))
    low, high = _sign_interval(_gap_terms(spec), lam, w)
    assert low <= (exact - 1) * 2 ** (2 * w) <= high


def test_bracket_of_the_specified_gap_set_holds_its_base():
    # The set's root lies in (lam - tol, lam], so the solver's bracket at
    # tolerance tol lies within err = tol of lam.
    lam, tol = 1.8, 1e-12
    spec = specified_gap_set(lam, tol)
    assert spec.is_finite()
    members = spec.members_up_to(len(spec.preperiod) - 1)
    res = solve_sgap_entropy(spec, tol=tol)
    # The ends bracket the root of the set's own series, summed exactly.
    def series(x):
        return sum(Fraction(x) ** -(n + 1) for n in members)

    assert series(res.lambda_lo) > 1 >= series(res.lambda_hi)
    err = tol
    assert res.lambda_lo - err <= lam <= res.lambda_hi + err
    assert_bracket(res, 1e-12)


def test_monotone_in_the_gap_set():
    nested = ["{0}", "{0,1}", "{0,1,2}", "{0,1,2,3}", "{0,1,2,3,4}"]
    lams = [solve_sgap_entropy(parse_sgap_spec(s), 1e-12).lam for s in nested]
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_entropy_result_certificate(corpus):
    for spec in corpus:
        res = solve_sgap_entropy(spec, tol=1e-9)
        assert 1.0 <= res.lam <= 2.0
        assert_bracket(res, 1e-9)
        assert res.entropy == pytest.approx(math.log2(res.lam), abs=1e-15)


def test_unreachable_tolerance_raises():
    with pytest.raises((EntropySolveError, ValueError)):
        solve_sgap_entropy(parse_sgap_spec("{0,1}"), tol=0.0)


def test_nan_tolerance_is_refused():
    # Every comparison with NaN is false, so a NaN tolerance would stop the
    # bisection before its first step.
    with pytest.raises(ValueError, match="tolerance must be positive"):
        solve_sgap_entropy(parse_sgap_spec("{0,1}"), math.nan)


def test_bounds_full_shift():
    # With K = 1 the sandwich (log2 c - log2 K) / n <= h <= log2 c / n closes.
    table = sgap_count_table(parse_sgap_spec("co{}"), 8)
    l2 = log2_int(table.counts[5])
    assert ((l2 - log2_int(1)) / 5, l2 / 5) == (1.0, 1.0)


def test_bounds_even_shift_sandwich():
    table = sgap_count_table(parse_sgap_spec("ep:pre=;pat=1,0"), 10)
    l2 = log2_int(table.counts[10])
    lower, upper = (l2 - log2_int(4)) / 10, l2 / 10
    assert upper - lower == pytest.approx(0.2, abs=1e-12)
    assert lower <= math.log2(PHI) <= upper


def test_bounds_positive_gaps_with_estimated_constant():
    spec = parse_sgap_spec("co{0}")
    table = sgap_count_table(spec, 16)
    k_est = bsm_estimate(table, 8).estimate
    log2_k = log2_int(k_est.numerator) - log2_int(k_est.denominator)
    l2 = log2_int(table.counts[16])
    lower, upper = (l2 - log2_k) / 16, l2 / 16
    assert lower <= math.log2(PHI) <= upper


def test_slope_diagnostic_full_shift():
    table = sgap_count_table(parse_sgap_spec("co{}"), 10)
    assert all(log2_int(table.counts[n]) / n == 1.0 for n in range(1, 11))


def test_slope_diagnostic_even_shift():
    # Independent oracle: spectral radius of the two-state presentation.
    rho = oracles.spectral_radius_2x2(1, 1, 1, 0)
    h = math.log2(rho)
    assert abs(rho - PHI) < 1e-12
    table = sgap_count_table(parse_sgap_spec("ep:pre=;pat=1,0"), 16)
    slopes = [log2_int(table.counts[n]) / n for n in range(1, 17)]
    assert all(v >= h - 1e-12 for v in slopes)
    assert slopes[-1] - h < slopes[0] - h


def test_slope_upper_bounds_solver(corpus):
    for spec in corpus:
        res = solve_sgap_entropy(spec, tol=1e-10)
        table = sgap_count_table(spec, 18)
        for n in range(1, 19):
            assert log2_int(table.counts[n]) / n >= res.entropy - 1e-9, (spec, n)


def test_slope_excess_bounded_by_estimated_constant(corpus):
    for spec in corpus:
        res = solve_sgap_entropy(spec, tol=1e-10)
        table = sgap_count_table(spec, 18)
        k_est = bsm_estimate(table, 9).estimate
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
