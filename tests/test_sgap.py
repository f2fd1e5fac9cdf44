from itertools import product

import pytest
from hypothesis import given, strategies as st

from shiftlab.sgap import (
    DESCRIPTION_BIT_LIMIT,
    EmptySetError,
    SGapSpec,
    SizeGuardError,
    SpecSyntaxError,
    classify,
    cofinite_gaps,
    explicit_gaps,
    parse_sgap_spec,
    periodic_gaps,
)

import oracles


def test_parse_explicit():
    assert parse_sgap_spec("{0,2,5}") == SGapSpec((1, 0, 1, 0, 0, 1), (0,))


def test_parse_cofinite():
    spec = parse_sgap_spec("co{0}")
    assert spec == SGapSpec((0,), (1,))
    assert [oracles.member(spec, n) for n in (0, 1, 10**6)] == [False, True, True]


def test_parse_periodic_odds():
    spec = parse_sgap_spec("ep:pre=;pat=0,1")
    assert spec.members_up_to(6) == [1, 3, 5]


def test_parse_rejects_garbage():
    for text in ["", "{0,2", "co", "ep:pat=1", "{a}", "ep:pre=2;pat=1"]:
        with pytest.raises(SpecSyntaxError):
            parse_sgap_spec(text)


def test_parse_rejects_empty_set():
    with pytest.raises(EmptySetError):
        parse_sgap_spec("{}")
    with pytest.raises(EmptySetError):
        parse_sgap_spec("ep:pre=;pat=0,0")


def test_periodic_degenerate_forms_normalise():
    assert periodic_gaps([1, 0, 1], [0, 0]) == SGapSpec((1, 0, 1), (0,))
    assert periodic_gaps([0, 1], [1, 1]) == SGapSpec((0,), (1,))
    assert periodic_gaps([], [1]) == SGapSpec((), (1,))
    for typed, short in [
        ("ep:pre=0,1,1;pat=1,1", "co{0}"),
        ("ep:pre=1,0,1,0;pat=0,0", "{0,2}"),
    ]:
        spec = parse_sgap_spec(typed)
        assert spec == parse_sgap_spec(short)
        assert spec.render() == short


def _outcome(build, *args):
    """The spec build(*args) returns, or the type of what it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc)


def test_parse_periodic_matches_int_lists():
    # Every ep: text of at most 8 bits, against periodic_gaps on int lists.
    for bits in range(1, 9):
        for word in product((0, 1), repeat=bits):
            for cut in range(bits):
                pre, pat = list(word[:cut]), list(word[cut:])
                text = f"ep:pre={','.join(map(str, pre))};pat={','.join(map(str, pat))}"
                expected = _outcome(periodic_gaps, pre, pat)
                assert _outcome(parse_sgap_spec, text) == expected, text


def test_periodic_gaps_reads_bytes_as_int_lists():
    # Every word of up to 3 of these byte values, split into a preperiod
    # and a (possibly empty) period: the same spec or the same error.
    for length in range(4):
        for word in product((0, 1, 2, 48, 49, 255), repeat=length):
            for cut in range(length + 1):
                pre, pat = list(word[:cut]), list(word[cut:])
                expected = _outcome(periodic_gaps, pre, pat)
                assert _outcome(periodic_gaps, bytes(pre), bytes(pat)) == expected, word
    limit = [255] * (DESCRIPTION_BIT_LIMIT - 1)
    assert periodic_gaps(bytes(limit), b"\0") == periodic_gaps(limit, [0])
    for pre, pat in ((limit, [0, 1]), ([], [0] * (DESCRIPTION_BIT_LIMIT + 1))):
        for form in (list, bytes):
            with pytest.raises(SizeGuardError):
                periodic_gaps(form(pre), form(pat))


def test_parse_periodic_size_guard_boundary():
    ones = "1," * (DESCRIPTION_BIT_LIMIT - 2)
    spec = parse_sgap_spec(f"ep:pre={ones}0;pat=1")
    assert len(spec.preperiod) + len(spec.period) == DESCRIPTION_BIT_LIMIT
    assert spec == periodic_gaps([1] * (DESCRIPTION_BIT_LIMIT - 2) + [0], [1])
    with pytest.raises(SizeGuardError):
        parse_sgap_spec(f"ep:pre={ones}0;pat=1,0")


def test_members_up_to_examples():
    assert parse_sgap_spec("co{0}").members_up_to(4) == [1, 2, 3, 4]
    assert parse_sgap_spec("{0,2,5}").members_up_to(3) == [0, 2]
    assert parse_sgap_spec("ep:pre=;pat=0,1").members_up_to(6) == [1, 3, 5]


def test_members_match_characteristic_semantics(corpus):
    for spec in corpus:
        members = set(spec.members_up_to(10**4))
        for n in list(range(200)) + [2500, 9999, 10**4]:
            assert (n in members) == oracles.member(spec, n)


def test_classify_finite_example():
    c = classify(parse_sgap_spec("{0,2,5}"))
    assert c.is_sft and c.gap_sup == 3 and c.gcd_value == 1
    assert c.is_mixing and c.has_specification


def test_classify_odds():
    c = classify(parse_sgap_spec("ep:pre=;pat=0,1"))
    assert c.gcd_value == 2 and not c.is_mixing
    assert c.is_almost_specified and c.gap_sup == 2
    assert not c.has_specification and not c.is_sft


def test_classify_full():
    c = classify(parse_sgap_spec("co{}"))
    assert c.is_sft and c.gap_sup == 1 and c.gcd_value == 1 and c.has_specification


def test_classify_cofinite_gap():
    assert classify(parse_sgap_spec("co{3}")).gap_sup == 2
    assert classify(parse_sgap_spec("co{0}")).gap_sup == 1
    assert classify(parse_sgap_spec("co{3}")).is_sft


def test_classify_singleton_convention():
    c = classify(parse_sgap_spec("{4}"))
    assert c.gap_sup == 0 and c.gcd_value == 5 and not c.is_mixing


def test_specification_iff_bounded_gaps_and_gcd_one(corpus):
    for spec in corpus + oracles.random_specs(60, seed=11):
        c = classify(spec)
        assert c.has_specification == (c.is_almost_specified and c.gcd_value == 1)


def test_periodic_gcd_matches_long_window():
    # The windowed gcd must agree with a direct gcd over a long prefix.
    from math import gcd
    from functools import reduce

    for spec in oracles.random_specs(80, seed=23):
        c = classify(spec)
        direct = reduce(gcd, (n + 1 for n in spec.members_up_to(500)))
        assert c.gcd_value == direct


def test_periodic_gap_sup_matches_long_window():
    for spec in oracles.random_specs(80, seed=29):
        members = spec.members_up_to(600)
        direct = max((b - a for a, b in zip(members, members[1:])), default=0)
        assert classify(spec).gap_sup == direct


@st.composite
def spec_strategy(draw):
    kind = draw(st.sampled_from(["explicit", "cofinite", "periodic"]))
    if kind == "explicit":
        vals = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8))
        return explicit_gaps(vals)
    if kind == "cofinite":
        vals = draw(st.lists(st.integers(0, 12), max_size=6))
        return cofinite_gaps(vals)
    pre = draw(st.lists(st.integers(0, 1), max_size=5))
    pat = draw(st.lists(st.integers(0, 1), min_size=1, max_size=6))
    if not any(pat) and not any(pre):
        pat = pat[:-1] + [1]
    return periodic_gaps(pre, pat)


@given(spec_strategy())
def test_render_parse_round_trip(spec):
    assert parse_sgap_spec(spec.render()) == spec


@given(spec_strategy(), st.integers(0, 400))
def test_members_monotone_and_bounded(spec, bound):
    members = spec.members_up_to(bound)
    assert members == sorted(set(members))
    assert all(0 <= n <= bound for n in members)


def test_run_classes_values():
    assert parse_sgap_spec("{0,2,5}").run_classes() == (6, 0)
    assert parse_sgap_spec("co{}").run_classes() == (0, 1)
    assert parse_sgap_spec("co{1,3}").run_classes() == (4, 1)
    assert parse_sgap_spec("ep:pre=0,1,0;pat=1,0,1").run_classes() == (3, 3)


def test_run_classes_fold_preserves_membership(corpus):
    for spec in corpus:
        q, p = spec.run_classes()
        for r in range(q, q + 5 * max(p, 1) + 3):
            if p == 0:
                assert not oracles.member(spec, r) and not oracles.tail_ok(spec, r)
                continue
            folded = q + (r - q) % p
            assert oracles.member(spec, r) == oracles.member(spec, folded), (spec, r)
            assert oracles.tail_ok(spec, r) and oracles.tail_ok(spec, folded)
