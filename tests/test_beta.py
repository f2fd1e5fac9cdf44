import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import beta
from shiftlab.beta import (
    AMBIGUOUS,
    FORCED0,
    FORCED1,
    SWITCH,
    BetaContext,
    ExpansionPrefix,
    LeafBudgetError,
    enumerate_expansions_of_one,
    expansion_from_sgap,
    greedy_expansion,
    komornik_loreti_constant,
    lazy_expansion,
    max_zero_run_bound,
    sgap_from_expansion,
    specified_gap_set,
)
from shiftlab.entropy import (
    _THUE_MORSE,
    _gap_series,
    _root_bracket,
    _sign,
    solve_sgap_entropy,
)
from shiftlab.sgap import (
    EmptySetError,
    SizeGuardError,
    classify,
    explicit_gaps,
    parse_sgap_spec,
    periodic_gaps,
)

import oracles

PHI = (1.0 + math.sqrt(5.0)) / 2.0
KL_REF = komornik_loreti_constant(1e-14)

lam_strategy = st.floats(min_value=1.05, max_value=1.95)


def test_apply_map_fixed_points():
    # The first orbit point of a one-digit walk is the digit action
    # lambda * x - digit: 0 and the right end are fixed by their forced digit.
    ctx = BetaContext(1.7)
    assert lazy_expansion(0.0, ctx, 1).orbit[0] == 0.0
    top = ctx.interval_right
    assert greedy_expansion(top, ctx, 1).orbit[0] == pytest.approx(top, abs=1e-12)
    phi_ctx = BetaContext(PHI)
    assert greedy_expansion(1.0, phi_ctx, 1).orbit[0] == pytest.approx(PHI - 1.0, abs=1e-12)


def test_context_geometry():
    ctx = BetaContext(1.5)
    assert ctx.switch_lo < ctx.switch_hi < ctx.interval_right
    with pytest.raises(ValueError):
        BetaContext(1.0)
    with pytest.raises(ValueError):
        BetaContext(2.0)


def test_greedy_examples():
    ctx = BetaContext(PHI)
    assert greedy_expansion(1.0, ctx, 5).digits == (1, 1, 0, 0, 0)
    assert greedy_expansion(0.0, BetaContext(1.4), 6).digits == (0,) * 6
    ctx17 = BetaContext(1.7)
    assert greedy_expansion(ctx17.interval_right, ctx17, 4).digits == (1, 1, 1, 1)


def test_lazy_examples():
    ctx = BetaContext(PHI)
    assert lazy_expansion(1.0, ctx, 5).digits == (0, 1, 1, 1, 1)
    assert lazy_expansion(0.0, BetaContext(1.3), 5).digits == (0,) * 5


def test_expansion_rejects_outside_interval():
    ctx = BetaContext(1.5)
    with pytest.raises(ValueError):
        greedy_expansion(ctx.interval_right + 0.1, ctx, 4)


def test_lazy_zero_runs_bounded():
    ctx = BetaContext(1.5)
    prefix = lazy_expansion(0.3, ctx, 200)
    # Valid orbit floor: the start point or the absorbing interval's left
    # endpoint, whichever is smaller.
    delta = min(0.3, (2.0 - 1.5) / (1.5 - 1.0))
    bound = max_zero_run_bound(delta, ctx)
    assert oracles.max_zero_run(prefix.digit_word()) < bound


def test_zero_run_bound_examples():
    assert max_zero_run_bound(0.1, BetaContext(1.5)) == 8
    ctx = BetaContext(1.5)
    assert max_zero_run_bound(ctx.interval_right / ctx.lam, ctx) == 1
    assert max_zero_run_bound(0.5, BetaContext(PHI)) == 3


def test_enumerate_golden_families():
    ctx = BetaContext(PHI)
    for depth in (10, 12):
        leaves = enumerate_expansions_of_one(ctx, depth, 256)
        assert len(leaves) > 3
        words = [leaf.digit_word() for leaf in leaves]
        assert words == sorted(words)
        for word in words:
            assert oracles.golden_family(word)[0] != "NotAPrefix", word


def test_enumerate_forced_first_digit():
    leaves = enumerate_expansions_of_one(BetaContext(1.9), 1, 8)
    assert [leaf.digit_word() for leaf in leaves] == ["1"]
    assert leaves[0].flags == ("forced1",)


def test_enumerate_univoque_base_single_leaf():
    leaves = enumerate_expansions_of_one(BetaContext(KL_REF), 30, 64)
    assert len(leaves) == 1
    digits = leaves[0].digits
    assert digits == tuple(bin(j).count("1") & 1 for j in range(1, 31))


def test_enumerate_budget_error_carries_partial():
    with pytest.raises(LeafBudgetError) as err:
        enumerate_expansions_of_one(BetaContext(PHI), 12, max_leaves=3)
    assert len(err.value.partial) == 3
    # A budget below one leaf is a bad argument, not an exhausted budget.
    for budget in (0, -3):
        with pytest.raises(ValueError, match="max_leaves"):
            enumerate_expansions_of_one(BetaContext(PHI), 12, max_leaves=budget)


def test_enumerate_leaves_keep_their_own_paths():
    # Each leaf holds tuples of its own root-to-leaf path, so the path lists
    # the walk overwrites after taking a leaf never show in an earlier one.
    ctx = BetaContext(1.442418082864579)
    leaves = enumerate_expansions_of_one(ctx, 18)
    assert len(leaves) == 592
    assert len({leaf.digits for leaf in leaves}) == len(leaves)
    for leaf in leaves:
        assert {type(leaf.digits), type(leaf.orbit), type(leaf.flags)} == {tuple}
        assert len(leaf.digits) == len(leaf.orbit) == len(leaf.flags) == 18
        y = 1.0
        for digit, point, flag in zip(leaf.digits, leaf.orbit, leaf.flags):
            assert digit in {FORCED0: (0,), FORCED1: (1,)}.get(flag, (0, 1))
            y = ctx.lam * y - digit
            assert point == y


@pytest.mark.parametrize("lam, depth", [(PHI, 12), (1.442418082864579, 10)])
def test_enumerate_budget_partial_is_the_unbounded_prefix(lam, depth):
    ctx = BetaContext(lam)
    leaves = enumerate_expansions_of_one(ctx, depth)
    for budget in range(1, len(leaves)):
        with pytest.raises(LeafBudgetError) as err:
            enumerate_expansions_of_one(ctx, depth, max_leaves=budget)
        assert err.value.partial == leaves[:budget]
    assert enumerate_expansions_of_one(ctx, depth, max_leaves=len(leaves)) == leaves


def test_leaf_record_is_immutable_and_hashed_by_its_fields():
    ctx = BetaContext(PHI)
    leaves = enumerate_expansions_of_one(ctx, 10)
    again = enumerate_expansions_of_one(ctx, 10)
    assert leaves == again and all(a is not b for a, b in zip(leaves, again))
    assert [hash(leaf) for leaf in leaves] == [hash(leaf) for leaf in again]
    with pytest.raises(LeafBudgetError) as err:
        enumerate_expansions_of_one(ctx, 10, max_leaves=3)
    assert err.value.partial == leaves[:3]
    leaf = leaves[0]
    fields = ("lam", "start", "digits", "orbit", "flags")
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(leaf, field, getattr(leaf, field))
    # A named tuple: equal to the plain tuple of its fields, in this order.
    assert leaf._fields == fields and leaf == tuple(getattr(leaf, f) for f in fields)


# phi, the smallest univoque base and a seeded sample of 298 of the bases
# 1 + i/997 in (1, 2).
_LEAF_END_BASES = [PHI, KL_REF] + [
    1 + i / 997 for i in random.Random(13).sample(range(1, 997), 298)
]


# phi, the smallest univoque base and a seeded grid of bases in (1, 2).
_TREE_BASES = [PHI, KL_REF] + [1 + i / 97 for i in random.Random(5).sample(range(1, 97), 4)]


def _path(digits, orbit, flags):
    """A leaf builder that records the tree's path lists as three tuples."""
    assert {type(digits), type(orbit), type(flags)} == {list}
    return tuple(digits), tuple(orbit), tuple(flags)


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-6, 1e300, 1e308])
def test_tree_matches_definition_oracle(tol):
    # At 1e300 every step is ambiguous and every child kept, so the tree
    # has 2**depth leaves: past depth 12 only phi runs there.  At 1e308 the
    # slack 8 * tol is infinite.  A budget one short of the leaf count
    # carries every leaf but the last.  A leaf builder gets, leaf for leaf,
    # the paths the default leaves hold, and a budget error carries its own
    # records.
    for lam in _TREE_BASES:
        ctx = BetaContext(lam, membership_tol=tol)
        for depth in range(1, 17 if tol < 1 or lam == PHI else 13):
            expected = oracles.digit_tree(lam, depth, tol)
            leaves = enumerate_expansions_of_one(ctx, depth, max_leaves=len(expected))
            assert [(x.digits, x.orbit, x.flags) for x in leaves] == expected, (lam, depth)
            assert all(x.lam == lam and x.start == 1.0 for x in leaves)
            paths = enumerate_expansions_of_one(ctx, depth, len(expected), leaf=_path)
            assert paths == expected, (lam, depth)
            if len(expected) > 1:
                with pytest.raises(LeafBudgetError) as err:
                    enumerate_expansions_of_one(ctx, depth, max_leaves=len(expected) - 1)
                partial = [(x.digits, x.orbit, x.flags) for x in err.value.partial]
                assert partial == expected[:-1], (lam, depth)
                with pytest.raises(LeafBudgetError) as err:
                    enumerate_expansions_of_one(ctx, depth, len(expected) - 1, leaf=_path)
                assert err.value.partial == expected[:-1], (lam, depth)


@pytest.mark.parametrize("depth", [30, 40])
def test_tree_drops_children_outside_the_interval(depth):
    # At phi the tree branches on switch and ambiguous steps, and some
    # children leave the interval beyond the slack: at depth 40 nine are
    # dropped and 22 leaves stay.  So some prefix of the leaves admits two
    # digits but leads on with one.
    expected = oracles.digit_tree(PHI, depth, 1e-12)
    leaves = enumerate_expansions_of_one(BetaContext(PHI, membership_tol=1e-12), depth)
    assert [(x.digits, x.orbit, x.flags) for x in leaves] == expected
    children = {}
    for x in leaves:
        for k in range(depth):
            if x.flags[k] in (SWITCH, AMBIGUOUS):
                children.setdefault(x.digits[:k], set()).add(x.digits[k])
    assert any(len(digits) == 1 for digits in children.values())


# Trees with more leaves than this get a budget below it, so the oracle
# walks no more than this many leaves per draw.
_DRAW_LEAF_CAP = 2000


def _tree_outcome(walk, budget_error) -> tuple[str, list]:
    """("leaves", the leaves) of walk(), or ("partial", the leaves held by
    its budget_error)."""
    try:
        return "leaves", walk()
    except budget_error as exc:
        return "partial", exc.partial


def test_tree_matches_depth_first_oracle_under_budgets():
    # 300 seeded draws of base, depth and tolerance, each with a leaf budget
    # that is unlimited or below the leaf count: the tree and the oracle
    # give the same leaves, or the same partial list at the same leaf.
    rng = random.Random(30)
    outcomes = set()
    for _ in range(300):
        lam, depth = rng.uniform(1.05, 1.95), rng.randint(1, 20)
        tol = rng.choice((0.0, 1e-12, 1e-9, 1e-6))
        kind, leaves = _tree_outcome(
            lambda: oracles.digit_tree(lam, depth, tol, _DRAW_LEAF_CAP),
            oracles.TreeBudgetExhausted,
        )
        if kind == "partial":
            budget = rng.randint(1, _DRAW_LEAF_CAP)
        elif len(leaves) > 1 and rng.random() < 0.5:
            budget = rng.randint(1, len(leaves) - 1)
        else:
            budget = None
        expected = _tree_outcome(
            lambda: oracles.digit_tree(lam, depth, tol, budget), oracles.TreeBudgetExhausted
        )
        ctx = BetaContext(lam, membership_tol=tol)
        got = _tree_outcome(
            lambda: enumerate_expansions_of_one(ctx, depth, max_leaves=budget or sys.maxsize),
            LeafBudgetError,
        )
        records = [(x.digits, x.orbit, x.flags) for x in got[1]]
        assert (got[0], records) == expected, (lam, depth, tol, budget)
        outcomes.add((expected[0], tol))
    assert len(outcomes) == 8  # both outcomes under every tolerance


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-6])
def test_tree_end_leaves_are_greedy_and_lazy(tol):
    # Greedy takes the largest admissible digit at every step and lazy the
    # smallest, so in a tree listed in digit order they are the last and
    # the first leaf: same digits, same orbit, same flags.
    for lam in _LEAF_END_BASES:
        ctx = BetaContext(lam, membership_tol=tol)
        for depth in (8, 16):
            leaves = enumerate_expansions_of_one(ctx, depth, max_leaves=1 << 16)
            for leaf, walk in ((leaves[-1], greedy_expansion), (leaves[0], lazy_expansion)):
                expected = walk(1.0, ctx, depth)
                assert (leaf.digits, leaf.orbit, leaf.flags) == (
                    expected.digits,
                    expected.orbit,
                    expected.flags,
                ), (lam, tol, depth, walk.__name__)


# Words with trailing zeros.  At phi, lam ** -55 in floats and the exact
# power rounded to a float differ, so the second word sums differently.
_SUM_WORDS = [(1, 0, 1, 1, 0, 0), (0,) * 54 + (1,) + (0,) * 5, (1,) * 20, (0, 0)]


def test_partial_sum_reads_the_power_table():
    # A float base and an equal Fraction one take turns, so a power table
    # shared between them would give one of them the other's weights.
    def expected(lam, word, k):
        return math.fsum(lam ** -(j + 1) for j in range(len(word))[:k] if word[j])

    for lam in (PHI, Fraction(PHI), PHI, Fraction(PHI)):
        for word in _SUM_WORDS:
            prefix = ExpansionPrefix(lam, 1.0, word, (), ())
            for k in [*range(len(word) + 3), None]:
                assert prefix.partial_sum(k) == expected(lam, word, k), (lam, word, k)
            assert prefix.residual() == abs(1.0 - expected(lam, word, None))
    word = _SUM_WORDS[1]
    assert expected(PHI, word, None) != expected(Fraction(PHI), word, None)


def test_enumerate_leaf_sums_approximate_one():
    for lam in (PHI, 1.42, 1.76):
        ctx = BetaContext(lam)
        depth = 14
        leaves = enumerate_expansions_of_one(ctx, depth, 4096)
        tolerance = lam**-depth * ctx.interval_right * (1 + 1e-6) + 1e-9
        for leaf in leaves:
            assert abs(1.0 - leaf.partial_sum()) <= tolerance


def _first_choice(ctx, depth):
    """(step, flag) of the first digit choice on the greedy orbit of 1, or
    (None, None) when depth steps are all forced.  Up to its first choice
    the greedy expansion of 1 is its only expansion."""
    flags = greedy_expansion(1.0, ctx, depth).flags
    return next(
        ((k, f) for k, f in enumerate(flags, 1) if f not in (FORCED0, FORCED1)),
        (None, None),
    )


def test_univoque_golden():
    # Default tolerance reads the exact endpoint hits as ambiguous; with a
    # zero band the strict branch shows at step 2.
    step, flag = _first_choice(BetaContext(PHI), 40)
    assert flag in (SWITCH, AMBIGUOUS) and step <= 2
    assert _first_choice(BetaContext(PHI, membership_tol=0.0), 40) == (2, SWITCH)


def test_univoque_below_kl_branches():
    assert _first_choice(BetaContext(1.3), 40)[1] == SWITCH
    assert _first_choice(BetaContext(1.7), 40)[1] == SWITCH


def test_univoque_at_kl_never_strictly_branches():
    # Orbit margins shrink like lam**-(2**k) at steps 2**k, so a wide
    # ambiguity band is the honest reading; a strict branch must not occur.
    flag = _first_choice(BetaContext(KL_REF, membership_tol=1e-6), 40)[1]
    assert flag != SWITCH
    assert flag in (None, AMBIGUOUS)
    assert _first_choice(BetaContext(KL_REF), 28) == (None, None)


def test_komornik_loreti_value():
    lam = komornik_loreti_constant(1e-6)
    assert round(lam, 3) == 1.787
    assert abs(math.log(lam) - 0.580) < 1e-3
    assert math.log2(lam) == pytest.approx(0.8377, abs=5e-4)


def test_komornik_loreti_residual():
    lam = komornik_loreti_constant(1e-12)
    residual = abs(
        math.fsum((bin(j).count("1") & 1) * lam**-j for j in range(64, 0, -1)) - 1.0
    )
    assert residual < 1e-9


@pytest.mark.parametrize(
    "tol, lam",
    [
        (1.0, 1.75),
        (0.1, 1.796875),
        (1e-6, 1.787231683731079),
        (1e-12, 1.7872316501827754),
        (1e-15, 1.7872316501829661),
        (2.0**-50, 1.7872316501829661),
        (4e-16, 1.787231650182966),
        (1e-300, 1.787231650182966),
        (5e-324, 1.787231650182966),
    ],
)
def test_komornik_loreti_exact_values(tol, lam):
    # Exact doubles: the bracket stops at tol / 2 or, from 4e-16 down, at
    # adjacent doubles.
    assert komornik_loreti_constant(tol) == lam


_KL_TOLS_RNG = random.Random(34)
# 200 tolerances drawn log-uniformly in [1e-17, 1].
_KL_TOLS = [10.0 ** _KL_TOLS_RNG.uniform(-17.0, 0.0) for _ in range(200)]


@pytest.mark.parametrize("tol", [1.0, 1e-10, 1e-15, 2.0**-50, 4e-16, 5e-324, *_KL_TOLS])
def test_komornik_loreti_bracket_holds_the_constant_exactly(tol):
    # The first 256 digits' series exceeds 1 at lo, and with the tail
    # sum_{j>256} x**-j = x**-256 / (x - 1) added it is at most 1 at hi, so
    # the root of the infinite series lies in [lo, hi].
    bits = [bin(j).count("1") % 2 for j in range(1, 257)]
    members = [n for n, bit in enumerate(bits) if bit]
    lo, hi, _ = _root_bracket(_gap_series(periodic_gaps(bits, [0])), tol)
    assert komornik_loreti_constant(tol) == 0.5 * (lo + hi)
    assert oracles.gap_series_exact(members, lo) > 1
    x = Fraction(hi)
    assert oracles.gap_series_exact(members, x) + x**-256 / (x - 1) <= 1


def test_both_series_sign_the_doubles_around_the_constant_alike():
    # The roots of the 256 digits' series and of the full one lie within
    # about 4e-65 of each other, and these two adjacent doubles straddle
    # both: every double gets the same exact sign from either series, so
    # no kl report depends on which series is bisected.
    below, above = 1.787231650182966, 1.7872316501829661
    assert math.nextafter(below, 2.0) == above
    bits = [bin(j).count("1") & 1 for j in range(1, 257)]
    series = _gap_series(periodic_gaps(bits, [0]))
    assert (_sign(series, below), _sign(series, above)) == (1, -1)
    assert (_sign(_THUE_MORSE, below), _sign(_THUE_MORSE, above)) == (1, -1)


def test_infinite_tolerance_takes_no_step():
    # No halving is needed, so the bracket stays [1, 2] and its lower end
    # is signed at 1, where the product has no finite factor count.
    assert _sign(_THUE_MORSE, 1.0) == 1
    assert komornik_loreti_constant(math.inf) == 1.5


def test_nan_tolerance_is_refused():
    # Every comparison with NaN is false, so a NaN tolerance would stop the
    # bisection before its first step.
    with pytest.raises(ValueError, match="tolerance must be positive"):
        komornik_loreti_constant(math.nan)


def test_nan_membership_tolerance_is_refused():
    # A NaN band would fail every interval test: no digit tree child and no
    # start point would lie in the interval.
    with pytest.raises(ValueError, match="membership tolerance must be >= 0"):
        BetaContext(1.5, membership_tol=math.nan)


@pytest.mark.parametrize(
    "lam, residuals",
    [
        (PHI, (0.0, 6.827871601444713e-14, 3.4139358007223564e-14, 3.419486915845482e-14)),
        (1.787231650182966, (1.1102230246251565e-16, 1.1102230246251565e-16, 0.0, 0.0)),
        (1.3, (2.6810830444645717e-08, 1.428615579168735e-07, 1.2710872909771354e-09,
               1.346980778027529e-07)),
        (1.9, (0.0, 0.0, 0.0, 0.0)),
    ],
)
def test_prefix_residual_exact_values(lam, residuals):
    # residual() of greedy and lazy prefixes of 1 and of 0.5 at depth 64,
    # pinned as exact doubles.
    ctx = BetaContext(lam)
    got = tuple(
        expand(x, ctx, 64).residual()
        for x in (1.0, 0.5)
        for expand in (greedy_expansion, lazy_expansion)
    )
    assert got == residuals


def test_sgap_from_expansion_words():
    assert sgap_from_expansion("11000000").render() == "{0,1}"
    assert sgap_from_expansion(("0", "1")).render() == "co{0}"
    assert sgap_from_expansion("10101", length=3).render() == "{0,2}"
    with pytest.raises(EmptySetError):
        sgap_from_expansion("0000")
    # Both words of a pair are checked like a single word, before any digit
    # is read: periodic_gaps alone would read 2 as a one.
    for digits in ("012", ("1", "2"), ("1,0", "1")):
        with pytest.raises(ValueError, match="digit word must be binary"):
            sgap_from_expansion(digits)


def test_expansion_from_sgap_words():
    assert expansion_from_sgap(parse_sgap_spec("{0,2}"), 4) == "1010"
    assert expansion_from_sgap(parse_sgap_spec("co{0}"), 5) == "01111"


def test_expansion_from_sgap_is_membership(corpus):
    # The word is read off the description's bits; it must agree with
    # membership at every position, also for lengths inside the preperiod.
    for spec in corpus + oracles.random_specs(40, 17):
        q, p = len(spec.preperiod), len(spec.period)
        for length in (1, 2, max(1, q - 1), q + 2 * p + 3):
            expected = "".join(str(int(oracles.member(spec, n))) for n in range(length))
            assert expansion_from_sgap(spec, length) == expected, (spec, length)


def test_bridge_round_trip(corpus):
    for spec in corpus:
        word = expansion_from_sgap(spec, 40)
        if "1" not in word:
            continue
        back = sgap_from_expansion(word)
        assert back.members_up_to(39) == spec.members_up_to(39)


def test_bridge_thue_morse_prefix_hits_kl():
    word = "".join(str(bin(j).count("1") & 1) for j in range(1, 49))
    spec = sgap_from_expansion((word, "10"))
    res = solve_sgap_entropy(spec, tol=1e-12)
    assert abs(res.lam - KL_REF) < 1e-10


def test_bridge_residual_round_trip(corpus):
    # Expansion digits of the solved base resum to 1 within the tail bound.
    for spec in corpus:
        if spec.size() == 1:
            continue
        res = solve_sgap_entropy(spec, tol=1e-11)
        word = expansion_from_sgap(spec, 220)
        total = math.fsum(
            int(ch) * res.lam ** -(j + 1) for j, ch in enumerate(word)
        )
        tail = res.lam**-220 / (res.lam - 1.0)
        assert abs(total - 1.0) <= tail + 1e-9


_TOLS = [1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 2.0**-50]


def test_construction_golden():
    # The golden double lies a hair above the golden ratio, so its greedy
    # expansion of 1 is 11 and then zeros up to digit 79: cut at any
    # tolerance down to 2**-50 (76 digits), it is {0,1}.
    for tol in _TOLS:
        assert specified_gap_set(PHI, tol).render() == "{0,1}", tol


def test_construction_above_golden():
    spec = specified_gap_set(1.8, 1e-12)
    word = expansion_from_sgap(spec, len(spec.preperiod))
    assert word.startswith("11")
    # A greedy expansion of 1 is at least each of its shifts (Parry).
    assert all(word[n:] + "0" * n <= word for n in range(1, len(word)))
    assert classify(spec).has_specification


def test_construction_rejects_small_base():
    for lam, tol in [(1.0, 1e-10), (2.0, 1e-10), (1.5, 2.0**-51), (1.5, 0.5), (1.5, math.nan)]:
        with pytest.raises(ValueError):
            specified_gap_set(lam, tol)
    specified_gap_set(1.5, 2.0**-50)
    specified_gap_set(1.5, math.nextafter(0.5, 0.0))
    # 1.01 needs 2917 digits at 1e-10, and each carries 53 more bits.
    with pytest.raises(SizeGuardError, match="2917"):
        specified_gap_set(1.01, 1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_specified_gap_set_is_the_cut_greedy_expansion(seed):
    # Its members are the one positions of the first N exact greedy digits,
    # and f_S(lam) <= 1 < f_S(lam - tol) holds in fractions.
    rng = random.Random(seed)
    for _ in range(75):
        lam, tol = 2.0 ** rng.uniform(0.06, 0.99), rng.choice(_TOLS)
        spec = specified_gap_set(lam, tol)
        n = 1
        while lam**-n / (lam - 1) >= tol / 4:
            n += 1
        digits = oracles.greedy_digits_of_one(lam, n)
        members = [j for j, digit in enumerate(digits) if digit]
        assert spec == explicit_gaps(members), (lam, tol)
        lo = Fraction(lam) - Fraction(tol)
        assert oracles.gap_series_exact(members, lam) <= 1 < oracles.gap_series_exact(members, lo)
        assert classify(spec).has_specification


def test_failed_sign_check_raises(monkeypatch):
    monkeypatch.setattr(beta, "_sign", lambda series, x: -1)
    with pytest.raises(ArithmeticError):
        specified_gap_set(1.8, 1e-12)


def test_walks_are_incomplete_only_when_cut_short():
    # No walk stops early: greedy, lazy and every leaf of the digit tree
    # run to their depth, with one orbit point and one flag per digit.
    walks = [
        (greedy_expansion(1.0, BetaContext(1.3), 60), 60),
        (lazy_expansion(0.5, BetaContext(1.9, membership_tol=0.0), 60), 60),
        *((leaf, 12) for leaf in enumerate_expansions_of_one(BetaContext(1.7), 12)),
    ]
    for prefix, depth in walks:
        assert len(prefix.digits) == len(prefix.orbit) == len(prefix.flags) == depth


def test_ehj_examples():
    # The golden-base expansion families of 1 (Erdős, Horváth & Joó 1991),
    # read from their definitions by the oracle.
    assert oracles.golden_family("10101")[0] == "Periodic10"
    assert oracles.golden_family("101100") == ("Family11ZerosTail", 1)
    assert oracles.golden_family("111")[0] == "NotAPrefix"
    assert oracles.golden_family("01111")[0] == "Family01OnesTail"
    assert oracles.golden_family("01111")[1] == 0
    assert oracles.golden_family("1100000")[0] == "Family11ZerosTail"


# The named bases and, to keep the runtime near a second, a seeded sample
# of 200 of the 996 bases 1 + i/997 for each of five membership
# tolerances (the whole 5005-point grid agrees too, in about 5 s).
_NAMED_BASES = [PHI, KL_REF, 1.3, 1.7, 1.9]


# How a direct walk's reading of each orbit point appears among the flags.
_ORACLE_FLAGS = {"near": (AMBIGUOUS,), "inside": (SWITCH,), "outside": (FORCED0, FORCED1)}


@pytest.mark.parametrize("seed, tol", enumerate([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
def test_orbit_readings_match_direct_walk(seed, tol):
    # Every flag of the greedy expansion of 1 must agree with a direct walk
    # of the orbit written from the definitions, so the first choice and the
    # share of choices read off the flags are those of the walk.
    grid = random.Random(seed).sample(range(1, 997), 200)
    for lam in _NAMED_BASES + [1 + i / 997 for i in grid]:
        ctx = BetaContext(lam, membership_tol=tol)
        where = oracles.greedy_orbit_of_one(lam, tol, 500)
        flags = greedy_expansion(1.0, ctx, 500).flags
        assert len(flags) == len(where) == 500
        for k, (w, flag) in enumerate(zip(where, flags), 1):
            assert flag in _ORACLE_FLAGS[w], (lam, tol, k)


def test_switch_frequency_golden_positive():
    flags = greedy_expansion(1.0, BetaContext(PHI), 200).flags
    assert sum(f in (SWITCH, AMBIGUOUS) for f in flags) / 200 > 0.0


def test_switch_frequency_kl_zero_over_window():
    flags = greedy_expansion(1.0, BetaContext(KL_REF), 30).flags
    assert sum(f in (SWITCH, AMBIGUOUS) for f in flags) / 30 == 0.0


def test_switch_frequency_high_base_regression():
    flags = greedy_expansion(1.0, BetaContext(1.9), 100_000).flags
    freq = sum(f in (SWITCH, AMBIGUOUS) for f in flags) / 100_000
    assert 0.04 < freq < 0.09


@settings(max_examples=60, deadline=None)
@given(lam_strategy, st.floats(0.0, 1.0), st.booleans())
def test_partial_sum_identity(lam, frac, lazy):
    ctx = BetaContext(lam)
    x = frac * ctx.interval_right
    gen = lazy_expansion if lazy else greedy_expansion
    prefix = gen(x, ctx, 48)
    for k in (1, 7, 23, 48):
        lhs = x - prefix.partial_sum(k)
        rhs = lam**-k * prefix.orbit[k - 1]
        assert abs(lhs - rhs) < 1e-10


@settings(max_examples=60, deadline=None)
@given(lam_strategy, st.floats(0.0, 1.0))
def test_greedy_digit_dominates_lazy(lam, frac):
    ctx = BetaContext(lam)
    x = frac * ctx.interval_right
    g = greedy_expansion(x, ctx, 1).digits[0]
    l = lazy_expansion(x, ctx, 1).digits[0]
    assert g >= l


@settings(max_examples=40, deadline=None)
@given(lam_strategy, st.floats(0.001, 0.999))
def test_greedy_absorbing_interval(lam, frac):
    ctx = BetaContext(lam)
    x = frac * ctx.interval_right
    prefix = greedy_expansion(x, ctx, 300)
    entered = False
    for y in prefix.orbit:
        if entered:
            assert y < 1.0 + 1e-9
        if y < 1.0:
            entered = True
    assert entered


@settings(max_examples=40, deadline=None)
@given(lam_strategy, st.floats(0.01, 1.0))
def test_lazy_absorbing_interval(lam, frac):
    ctx = BetaContext(lam)
    x = max(frac * ctx.interval_right, 1e-3)
    prefix = lazy_expansion(x, ctx, 400)
    threshold = (2.0 - lam) / (lam - 1.0)
    entered = False
    for y in prefix.orbit:
        if entered:
            assert y > threshold - 1e-9
        if y > threshold:
            entered = True
    assert entered


@settings(max_examples=40, deadline=None)
@given(lam_strategy, st.floats(0.01, 1.0))
def test_lazy_zero_run_bound_property(lam, frac):
    ctx = BetaContext(lam)
    x = max(frac * ctx.interval_right, 1e-3)
    prefix = lazy_expansion(x, ctx, 250)
    # Shrinking the orbit floor by 1e-9 keeps the bound on the sound side
    # of the boundary comparison for adversarial draws.
    delta = min(x, (2.0 - lam) / (lam - 1.0)) * (1 - 1e-9)
    bound = max_zero_run_bound(delta, ctx)
    assert oracles.max_zero_run(prefix.digit_word()) < bound


@settings(max_examples=40, deadline=None)
@given(lam_strategy, st.floats(0.0, 1.0))
def test_flags_reflect_switch_membership(lam, frac):
    ctx = BetaContext(lam)
    x = frac * ctx.interval_right
    prefix = greedy_expansion(x, ctx, 40)
    points = (x,) + prefix.orbit[:-1]
    tol = ctx.membership_tol
    for y, flag in zip(points, prefix.flags):
        in_switch = ctx.switch_lo - tol <= y <= ctx.switch_hi + tol
        assert (flag in (SWITCH, AMBIGUOUS)) == in_switch
