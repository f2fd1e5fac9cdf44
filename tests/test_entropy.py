import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from shiftlab import beta, entropy
from shiftlab.beta import komornik_loreti_constant, specified_gap_set
from shiftlab.blocks import sgap_count_table
from shiftlab.entropy import (
    EntropySolveError,
    _MIN_TOL,
    _THUE_MORSE,
    _gap_series,
    _root_bracket,
    _side,
    _sign,
    _thue_morse_float,
    solve_sgap_entropy,
)
from shiftlab.props import bsm_estimate
from shiftlab.sgap import parse_sgap_spec, periodic_gaps

import oracles
from conftest import CORPUS_STRINGS, count_row

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
    series = _gap_series(spec)
    a, b, steps = _root_bracket(series, tol)
    assert 1.0 < a < b <= 2.0 and b - a <= tol / 2
    assert steps <= 52
    assert _sign(series, a) > 0
    assert b == 2.0 or _sign(series, b) < 0


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
    *(periodic_gaps([], [0] * (p - 1) + [1]) for p in (2, 50, 256, 257, 400, 1100)),
    # kl's set: the parity-doubling digits t(1..256).
    periodic_gaps([bin(j).count("1") & 1 for j in range(1, 257)], [0]),
]


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 2.0**-50, 0.3])
def test_root_bracket_is_the_reference_bisection(tol):
    # The float bracket only skips evaluations: the ends and the halving
    # count are those of a bisection that takes every side exactly.
    for spec in _REFERENCE_SETS:
        expected = oracles.reference_bracket(spec, tol)
        assert _root_bracket(_gap_series(spec), tol) == expected, spec.render()


@pytest.mark.parametrize(
    "solve, counted, most",
    [
        (lambda: komornik_loreti_constant(1e-10), "_thue_morse_float", 20),
        (lambda: komornik_loreti_constant(1e-15), "_thue_morse_float", 40),
        (lambda: solve_sgap_entropy(parse_sgap_spec("{0,2,5,8}"), 1e-10), "_gap_series", 20),
        *(
            (
                lambda p=p: solve_sgap_entropy(periodic_gaps([], [0] * (p - 1) + [1]), 1e-10),
                "_gap_series",
                most,
            )
            for p, most in ((300, 13), (2, 6), (50, 11), (400, 13), (1100, 16))
        ),
    ],
    ids=["kl", "kl1e-15", "{0,2,5,8}", "period300", "period2", "period50", "period400",
         "period1100"],
)
def test_series_evaluations_per_solve(monkeypatch, solve, counted, most):
    # A bisection alone evaluates the series 36 times for the first two and
    # 36 to 46 times for one member per period 2 to 1100, whose root
    # 2**(1/p) the float bracket's first model point finds (f(2) underflows
    # to 0.0 at period 1100); the counts are deterministic.  kl sums the
    # Thue-Morse product and never the gap closed form.
    calls = {}

    def counting(name, series):
        def value(x):
            calls.setdefault(name, []).append(1)
            return series.value(x)

        return series._replace(value=value)

    gap_series = entropy._gap_series
    for module in (entropy, beta):
        monkeypatch.setattr(
            module, "_gap_series", lambda spec: counting("_gap_series", gap_series(spec))
        )
    monkeypatch.setattr(beta, "_THUE_MORSE", counting("_thue_morse_float", beta._THUE_MORSE))
    solve()
    assert 0 < len(calls.get(counted, [])) <= most
    assert calls.keys() == {counted}


def test_thue_morse_product_within_its_margin_of_the_series():
    # The float product lies within its proven bound of the series, and the
    # exact sign agrees with the exact partial sum wherever the sum's
    # interval, tail included, excludes 1.
    rng = random.Random(34)
    for _ in range(500):
        x = rng.uniform(1.05, 2.0)
        # Enough terms that the tail is below 2**-60.
        low, high = oracles.thue_morse_series_exact(x, int(70 / math.log2(x)))
        value, margin = _thue_morse_float(x)
        assert low - Fraction(margin) <= value <= high + Fraction(margin), x
        if low > 1 or high < 1:
            assert _sign(_THUE_MORSE, x) == (1 if low > 1 else -1), x


def test_proven_float_sides_agree_with_exact_signs():
    # Wherever a float value lies farther than its error bound from 1, the
    # sign it proves is the exact one: at seeded doubles in (1, 2], at the
    # doubles next to the root and at 2**k ulps from it, where the value
    # crosses its bound.  The series are 200 seeded gap sets, three of them
    # with roots close to 1, and the Thue-Morse product.
    specs = [spec for spec in oracles.random_specs(260, 35) if spec.size() != 1]
    specs = [spec for spec in specs if not spec.is_full()][:197]
    specs += [periodic_gaps([], [0] * (p - 1) + [1]) for p in (50, 257, 400)]
    named = [(spec.render(), _gap_series(spec)) for spec in specs] + [("kl", _THUE_MORSE)]
    rng = random.Random(35)
    proven = 0
    for name, series in named:
        lo, hi, _ = _root_bracket(series, _MIN_TOL)
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if _sign(series, mid) > 0 else (lo, mid)
        near = [lo + k * math.ulp(lo) for k in range(-3, 4)]
        steps = [lo + sign * 2.0**k * math.ulp(lo) for k in range(2, 40, 3) for sign in (-1, 1)]
        seeded = [rng.uniform(1.0, 2.0) for _ in range(10)] + [2.0]
        for x in near + steps + seeded:
            if not 1.0 < x <= 2.0:
                continue
            side = _side(series, x)[1]
            if side:
                proven += 1
                assert side == _sign(series, x), (name, x)
    assert proven > 3000


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


def _recording_widths(monkeypatch, series, start):
    """series with its interval reads recorded by width, and _sign starting
    from start bits."""
    monkeypatch.setattr(entropy, "_START_PRECISION_BITS", start)
    widths = []

    def interval(x, w):
        widths.append(w)
        return series.interval(x, w)

    return series._replace(interval=interval), widths


# The default start, under the tests' first ids, and 8 bits, from which the
# precision doubles before a sign near a root is decided.
@pytest.mark.parametrize(
    "text, poly, start",
    [
        pytest.param(*param.values, start, id=param.id + ("" if start == 128 else "-start8"))
        for param in _ROOT_POLYNOMIALS
        for start in (128, 8)
    ],
)
def test_exact_sign_at_the_doubles_around_the_root(monkeypatch, text, poly, start):
    # The last double below the root, found with the polynomial alone, and
    # three doubles on each side of it.  Near the root the float series can
    # round to exactly 1 (at 1.6180339887498947 for {0,1}), so only an exact
    # sign gets all of them right.
    lo, hi = 1.0, 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if poly(Fraction(mid)) < 0 else (lo, mid)
    series, widths = _recording_widths(monkeypatch, _gap_series(parse_sgap_spec(text)), start)
    x = lo
    for _ in range(3):
        x = math.nextafter(x, 0.0)
    for _ in range(7):
        assert _sign(series, x) == (1 if poly(Fraction(x)) < 0 else -1), x
        x = math.nextafter(x, 2.0)
    assert start == 128 or max(widths) > start


@pytest.mark.parametrize("start", [128, 8])
def test_exact_sign_of_the_thue_morse_series_around_kl(monkeypatch, start):
    # The two adjacent doubles either side of the Komornik-Loreti constant.
    series, widths = _recording_widths(monkeypatch, _THUE_MORSE, start)
    assert (_sign(series, 1.787231650182966), _sign(series, 1.7872316501829661)) == (1, -1)
    assert start == 128 or max(widths) > start


@pytest.mark.parametrize("w", [8, 16, 128])
@pytest.mark.parametrize("lam", [1.3, 1.5, 1.7, 1.9])
@pytest.mark.parametrize("text", ["{0,1}", "{0,2,5}", "{0,1,2,4,8,16,32}"])
def test_sign_interval_holds_the_finite_series(text, lam, w):
    # For a finite set the interval holds (f(lam) - 1) * 2**(2w), with f
    # summed exactly: its ends are rounded outward at every product.
    spec = parse_sgap_spec(text)
    exact = sum(Fraction(lam) ** -(n + 1) for n in spec.members_up_to(len(spec.preperiod) - 1))
    low, high = _gap_series(spec).interval(lam, w)
    assert low <= (exact - 1) * 2 ** (2 * w) <= high


@pytest.mark.parametrize("w", [8, 16, 128])
@pytest.mark.parametrize("lam", [1.3, 1.5, 1.7, 1.9])
@pytest.mark.parametrize(
    "text",
    [
        "co{0}",
        "ep:pre=;pat=0,1",
        "ep:pre=1;pat=1,0",
        "ep:pre=0,1;pat=1,1,0",
        "co{0,1,4}",
        pytest.param(
            "ep:pre=;pat=" + ",".join("1" if j in (4, 19, 29) else "0" for j in range(30)),
            id="period30",
        ),
    ],
)
def test_gap_interval_holds_the_periodic_polynomial(text, lam, w):
    # For a periodic set the interval holds P(1/lam) * 2**(2w), with
    # P(y) = (A(y) - 1) * (1 - y**p) + sum over the period's members j of
    # y**(q + j + 1) and A(y) the sum over the preperiod's members n of
    # y**(n + 1), summed exactly from the description's bits.
    spec = parse_sgap_spec(text)
    q, p = len(spec.preperiod), len(spec.period)
    assert any(spec.period)
    y = 1 / Fraction(lam)
    head = sum(y ** (n + 1) for n, bit in enumerate(spec.preperiod) if bit)
    cycle = sum(y ** (q + j + 1) for j, bit in enumerate(spec.period) if bit)
    exact = (head - 1) * (1 - y**p) + cycle
    low, high = _gap_series(spec).interval(lam, w)
    assert low <= exact * 2 ** (2 * w) <= high


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
    l2 = math.log2(table.counts[5])
    assert ((l2 - math.log2(1)) / 5, l2 / 5) == (1.0, 1.0)


def test_bounds_even_shift_sandwich():
    table = sgap_count_table(parse_sgap_spec("ep:pre=;pat=1,0"), 10)
    l2 = math.log2(table.counts[10])
    lower, upper = (l2 - math.log2(4)) / 10, l2 / 10
    assert upper - lower == pytest.approx(0.2, abs=1e-12)
    assert lower <= math.log2(PHI) <= upper


def test_bounds_positive_gaps_with_estimated_constant():
    spec = parse_sgap_spec("co{0}")
    table = sgap_count_table(spec, 16)
    k_est = bsm_estimate(count_row(table), 8).estimate
    log2_k = math.log2(k_est.numerator) - math.log2(k_est.denominator)
    l2 = math.log2(table.counts[16])
    lower, upper = (l2 - log2_k) / 16, l2 / 16
    assert lower <= math.log2(PHI) <= upper


def test_slope_diagnostic_full_shift():
    table = sgap_count_table(parse_sgap_spec("co{}"), 10)
    assert all(math.log2(table.counts[n]) / n == 1.0 for n in range(1, 11))


def test_slope_diagnostic_even_shift():
    # Independent oracle: spectral radius of the two-state presentation.
    rho = oracles.spectral_radius_2x2(1, 1, 1, 0)
    h = math.log2(rho)
    assert abs(rho - PHI) < 1e-12
    table = sgap_count_table(parse_sgap_spec("ep:pre=;pat=1,0"), 16)
    slopes = [math.log2(table.counts[n]) / n for n in range(1, 17)]
    assert all(v >= h - 1e-12 for v in slopes)
    assert slopes[-1] - h < slopes[0] - h


def test_slope_upper_bounds_solver(corpus):
    for spec in corpus:
        res = solve_sgap_entropy(spec, tol=1e-10)
        table = sgap_count_table(spec, 18)
        for n in range(1, 19):
            assert math.log2(table.counts[n]) / n >= res.entropy - 1e-9, (spec, n)


def test_slope_excess_bounded_by_estimated_constant(corpus):
    for spec in corpus:
        res = solve_sgap_entropy(spec, tol=1e-10)
        table = sgap_count_table(spec, 18)
        k_est = bsm_estimate(count_row(table), 9).estimate
        c = math.log2(float(k_est)) if k_est > 1 else 0.0
        # Window-certified constant: counts(n) <= K * lam^n on the window.
        k_window = max(
            table.counts[j] / res.lam**j for j in range(1, 19)
        )
        k_valid = max(float(k_est), k_window)
        for n in range(1, 19):
            slope = math.log2(table.counts[n]) / n
            assert 0.0 <= slope - res.entropy + 1e-9
            assert slope - res.entropy <= math.log2(k_valid) / n + 1e-9
