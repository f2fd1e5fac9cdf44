import random
import time
from itertools import product
from types import SimpleNamespace

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
        assert c.gcd_value == spec.gcd() == direct


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


def _description(pre, pat):
    """A raw description, as typed, for the oracles."""
    return SimpleNamespace(preperiod=tuple(pre), period=tuple(pat))


def _random_pairs(count: int, seed: int):
    """Pairs of raw (preperiod, period) bit lists of nonempty sets.  Each
    draw makes a variant of one description that encodes its set: the
    period repeated up to three times, with j of those bits rotated into
    the preperiod.  A third of the pairs are a description and its variant,
    a third a variant and the last pair's first description, and a third a
    description and its variant with one bit flipped.  A quarter of the
    periods are constant."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        pre = [rng.randint(0, 1) for _ in range(rng.randint(0, 5))]
        pat = [rng.randint(0, 1) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.25:
            pat = pat[:1] * len(pat)
        if not any(pre + pat):
            continue
        tiled = pat * rng.randint(1, 3)
        j = rng.randrange(len(tiled) + 1)
        variant = (pre + tiled[:j], tiled[j:] + tiled[:j])
        kind = rng.randrange(3)
        if kind == 0 or not pairs:
            pairs.append(((pre, pat), variant))
        elif kind == 1:
            pairs.append((pairs[-1][0], variant))
        else:
            flipped = [list(variant[0]), list(variant[1])]
            part = flipped[0] if flipped[0] and rng.random() < 0.5 else flipped[1]
            part[rng.randrange(len(part))] ^= 1
            if any(flipped[0] + flipped[1]):
                pairs.append(((pre, pat), tuple(flipped)))
    return pairs


def test_render_parse_round_trip_on_random_descriptions():
    # Raw descriptions, most of them not in their shortest form, and the
    # oracles' random specs: each value encodes what was typed and its
    # text parses back to it.
    for a, b in _random_pairs(1500, seed=41):
        for pre, pat in (a, b):
            spec = periodic_gaps(pre, pat)
            assert oracles.same_set(spec, _description(pre, pat)), (pre, pat)
            assert parse_sgap_spec(spec.render()) == spec, (pre, pat)
    for spec in oracles.random_specs(300, seed=37):
        assert parse_sgap_spec(spec.render()) == spec


def test_equal_values_are_equal_sets():
    for a, b in _random_pairs(3000, seed=43):
        one_set = oracles.same_set(_description(*a), _description(*b))
        assert (periodic_gaps(*a) == periodic_gaps(*b)) == one_set, (a, b)
    odds = ["ep:pre=1,1;pat=0,1", "ep:pre=1;pat=1,0", "ep:pre=1;pat=1,0,1,0"]
    assert {parse_sgap_spec(text).render() for text in odds} == {"ep:pre=1;pat=1,0"}


def _small_descriptions(bits: int):
    """Every raw description of at most bits bits that encodes a nonempty set."""
    for length in range(1, bits + 1):
        for word in product((0, 1), repeat=length):
            if any(word):
                for cut in range(length):
                    yield word[:cut], word[cut:]


def test_values_are_the_shortest_descriptions():
    # Among the 3550 descriptions of at most 8 bits, two encode one set
    # exactly when their first 16 bits agree (Fine and Wilf): 1715 sets.
    # Each set's value has the shortest preperiod and the shortest period
    # of any of them, and one text.
    by_set = {}
    for pre, pat in _small_descriptions(8):
        key = tuple(oracles.member(_description(pre, pat), n) for n in range(16))
        by_set.setdefault(key, []).append((pre, pat))
    texts = set()
    for descriptions in by_set.values():
        values = {periodic_gaps(pre, pat) for pre, pat in descriptions}
        assert len(values) == 1, descriptions
        (value,) = values
        assert len(value.preperiod) == min(len(pre) for pre, _ in descriptions)
        assert len(value.period) == min(len(pat) for _, pat in descriptions)
        texts.add(value.render())
    assert len(texts) == len(by_set) == 1715


def test_render_gives_one_text_per_set():
    for a, b in _random_pairs(3000, seed=47):
        specs = periodic_gaps(*a), periodic_gaps(*b)
        same = oracles.same_set(*specs)
        assert (specs[0].render() == specs[1].render()) == same, (a, b)
        for spec in specs:
            rendered = parse_sgap_spec(spec.render())
            assert rendered == spec and rendered.render() == spec.render()


def test_long_descriptions_shorten_in_linear_time():
    # (1,0) typed 2**19 times, and a preperiod that the period continues
    # for all but its first bit, each at or just under the description limit.
    start = time.perf_counter()
    spec = parse_sgap_spec("ep:pre=;pat=" + ",".join("10" * (DESCRIPTION_BIT_LIMIT // 2)))
    assert spec == periodic_gaps([], [1, 0])
    pre = "0" + "01" * (DESCRIPTION_BIT_LIMIT // 2 - 3)
    spec = parse_sgap_spec(f"ep:pre={','.join(pre)};pat=0,1,0,1")
    assert spec == periodic_gaps([0], [0, 1])
    assert time.perf_counter() - start < 2.0
    with pytest.raises(SizeGuardError):
        parse_sgap_spec("ep:pre=1;pat=" + ",".join("10" * (DESCRIPTION_BIT_LIMIT // 2)))


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
