"""The universal grading group and tensor-word equivalence."""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootatlas import grading
from rootatlas.classify import build_atlas
from rootatlas.cli import run
from rootatlas.grading import (
    TensorRelation,
    generate_relations,
    grading_class,
    grading_presentation,
    matches_fundamental_group,
    restrict_relations,
    tensor_equivalent,
    universal_grading_group,
)
from rootatlas.lattice import fundamental_group, weight_class_data
from rootatlas.repring import dominant_weights_up_to, tensor_decompose
from rootatlas.rootsys import build_root_system, parse_cartan_type

_SYSTEMS = {
    name: build_root_system(parse_cartan_type(name))
    for name in ["A1", "A2", "B2", "C2", "G2", "A3"]
}


def test_generate_relations_bound_zero():
    rels = generate_relations(_SYSTEMS["A2"], 0)
    assert rels == [TensorRelation((0, 0), (0, 0), (0, 0))]


def test_generate_relations_a1():
    rels = generate_relations(_SYSTEMS["A1"], 1)
    assert TensorRelation((0,), (1,), (1,)) in rels
    assert TensorRelation((2,), (1,), (1,)) in rels
    rels2 = generate_relations(_SYSTEMS["A1"], 2)
    assert TensorRelation((0,), (2,), (2,)) in rels2
    # children can exceed the bound before restriction
    assert TensorRelation((4,), (2,), (2,)) in rels2


def test_generate_relations_sound():
    # each relation's child really is a constituent of left (x) right
    rs = _SYSTEMS["B2"]
    for r in generate_relations(rs, 2):
        assert r.child in tensor_decompose(rs, r.left, r.right)


def test_restrict_relations():
    rs = _SYSTEMS["A1"]
    gens = dominant_weights_up_to(rs, 2)
    rels = restrict_relations(generate_relations(rs, 2), gens)
    children = {r.child for r in rels}
    assert (4,) not in children
    assert (2,) in children


def _restricted_presentation(rs, bound):
    # the reference: every relation built, then restricted to the
    # generators
    gens = dominant_weights_up_to(rs, bound)
    rels = restrict_relations(generate_relations(rs, bound), gens)
    return universal_grading_group(rels, gens)


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"]
    + ["A1xA1xA1", "A3xA1", "B2xG2"],
)
def test_grading_presentation_keeps_the_restricted_full_list(name):
    rs = build_root_system(parse_cartan_type(name))
    for bound in (0, 1, 2):
        pres = grading_presentation(rs, bound)
        old = _restricted_presentation(rs, bound)
        for field in dataclasses.fields(pres):
            assert getattr(pres, field.name) == getattr(old, field.name), field.name
        assert list(pres.class_map.items()) == list(old.class_map.items())


def test_generate_relations_keeps_the_children_asked_for():
    rng = random.Random(30)
    for name in ["A2", "B2", "G2", "A3"]:
        rs = _SYSTEMS[name]
        full = generate_relations(rs, 2)
        children = sorted({r.child for r in full})
        # half the constituents, some above the bound, with a weight that
        # is no constituent at all
        kept = frozenset(rng.sample(children, len(children) // 2)) | {(9,) * rs.rank}
        assert kept != frozenset(dominant_weights_up_to(rs, 2))
        assert generate_relations(rs, 2, _children=kept) == [
            r for r in full if r.child in kept
        ]
        assert generate_relations(rs, 2, _children=frozenset()) == []


def test_universal_grading_trivial_example():
    pres = universal_grading_group([TensorRelation((0,), (0,), (0,))], [(0,)])
    assert pres.quotient.invariant_factors == ()
    assert pres.free_rank == 0
    assert pres.class_map == {(0,): ()}


def test_universal_grading_no_relations_is_free():
    pres = universal_grading_group([], [(0,), (1,)])
    assert pres.quotient.invariant_factors == ()
    assert pres.free_rank == 2


def test_universal_grading_rejects_unknown_weights():
    with pytest.raises(ValueError):
        universal_grading_group([TensorRelation((4,), (2,), (2,))], [(2,)])
    # the first weight outside the generators is named, relation by relation
    # and child, left, right within one
    relations = [
        TensorRelation((0,), (2,), (2,)),
        TensorRelation((2,), (3,), (5,)),
        TensorRelation((4,), (0,), (0,)),
    ]
    with pytest.raises(ValueError, match=r"relation weight \(3,\) is not a generator"):
        universal_grading_group(relations, [(0,), (2,)])


def test_universal_grading_deduplicates_generators():
    pres = universal_grading_group([], [(0,), (0,), (1,)])
    assert pres.generators == ((0,), (1,))


def test_a1_grading_is_parity():
    pres = grading_presentation(_SYSTEMS["A1"], 2)
    assert pres.quotient.invariant_factors == (2,)
    assert pres.free_rank == 0
    assert pres.class_map[(0,)] == (0,)
    assert pres.class_map[(2,)] == (0,)
    assert pres.class_map[(1,)] == (1,)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2"])
@pytest.mark.parametrize("bound", [2, 3])
def test_grading_recovers_fundamental_group(name, bound):
    rs = _SYSTEMS[name]
    pres = grading_presentation(rs, bound)
    assert pres.free_rank == 0
    assert pres.quotient == fundamental_group(rs.cartan_type)
    assert matches_fundamental_group(pres, rs)


def _automorphisms(group):
    """Every automorphism of a small group, as a dict on its elements:
    the additive bijections, found by trying every permutation."""
    elements = list(group.elements())
    for images in itertools.permutations(elements):
        table = dict(zip(elements, images))
        if all(
            table[group.add(x, y)] == group.add(table[x], table[y])
            for x in elements
            for y in elements
        ):
            yield table


def _matches_by_search(pres, rs):
    data = weight_class_data(rs.cartan_type)
    if pres.free_rank or pres.quotient != data.group:
        return False
    return any(
        all(iso[pres.class_map[g]] == data.class_of(g) for g in pres.generators)
        for iso in _automorphisms(data.group)
    )


def test_matches_fundamental_group_up_to_automorphism():
    # negation is a nontrivial automorphism of Z/4
    rs = _SYSTEMS["A3"]
    pres = grading_presentation(rs, 2)
    negated = {g: ((-c) % 4,) for g, (c,) in pres.class_map.items()}
    assert negated != pres.class_map
    assert matches_fundamental_group(dataclasses.replace(pres, class_map=negated), rs)


def test_matches_fundamental_group_rejects_non_additive_class_map():
    rs = _SYSTEMS["A3"]
    pres = grading_presentation(rs, 2)
    swapped = dict(pres.class_map)
    swapped[(1, 0, 0)], swapped[(0, 1, 0)] = swapped[(0, 1, 0)], swapped[(1, 0, 0)]
    tampered = dataclasses.replace(pres, class_map=swapped)
    assert not matches_fundamental_group(tampered, rs)


def test_matches_fundamental_group_rejects_wrong_quotient():
    rs = _SYSTEMS["A1"]
    # bound 0 presents the trivial group
    assert not matches_fundamental_group(grading_presentation(rs, 0), rs)
    # too few relations present Z/4, larger than the weight classes Z/2
    gens = dominant_weights_up_to(rs, 2)
    rels = [
        TensorRelation((0,), (0,), (0,)),
        TensorRelation((2,), (1,), (1,)),
        TensorRelation((0,), (2,), (2,)),
    ]
    pres = universal_grading_group(rels, gens)
    assert pres.quotient.invariant_factors == (4,)
    assert not matches_fundamental_group(pres, rs)


def test_matches_fundamental_group_rejects_non_injective_class_map():
    # Z/4 presented on weights of class 0 and 2 only: the generator's class
    # maps to class 2, so the induced map doubles and is not injective
    rs = _SYSTEMS["A3"]
    zero, x, y = (0, 0, 0), (0, 1, 0), (0, 2, 0)
    rels = [
        TensorRelation(zero, zero, zero),
        TensorRelation(y, x, x),
        TensorRelation(zero, y, y),
    ]
    pres = universal_grading_group(rels, [zero, x, y])
    assert pres.quotient == fundamental_group(rs.cartan_type)
    assert grading_class(rs, x) == (2,)
    assert not matches_fundamental_group(pres, rs)
    assert not _matches_by_search(pres, rs)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "G2", "D4", "A1xA1"])
def test_matches_fundamental_group_agrees_with_search(name):
    rs = build_root_system(parse_cartan_type(name))
    group = fundamental_group(rs.cartan_type)
    for bound in (1, 2):
        pres = grading_presentation(rs, bound)
        # the true class map under every automorphism, then every pair of
        # generators' classes swapped
        variants = [
            {g: iso[c] for g, c in pres.class_map.items()}
            for iso in _automorphisms(group)
        ]
        for a, b in itertools.combinations(pres.generators, 2):
            swapped = dict(pres.class_map)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            variants.append(swapped)
        for class_map in variants:
            tampered = dataclasses.replace(pres, class_map=class_map)
            assert matches_fundamental_group(tampered, rs) == _matches_by_search(
                tampered, rs
            )


def test_grade_product_of_five_a1_matches(capsys):
    assert run(["grade", "A1xA1xA1xA1xA1", "--bound", "1"]) == 0
    assert "matches fundamental group: yes" in capsys.readouterr().out


def test_grading_class_a1():
    rs = _SYSTEMS["A1"]
    for n in range(7):
        assert grading_class(rs, (n,)) == (n % 2,)


def test_grading_class_kills_roots():
    for name in ["A2", "B2", "A3", "G2"]:
        rs = _SYSTEMS[name]
        zero = grading_class(rs, (0,) * rs.rank)
        for root in rs.all_roots:
            assert grading_class(rs, root) == zero


def test_grading_class_additive():
    rs = _SYSTEMS["A3"]
    group = fundamental_group(rs.cartan_type)
    for v in [(1, 0, 0), (0, 1, 2), (2, 1, 1)]:
        for w in [(0, 0, 1), (1, 1, 0)]:
            s = tuple(a + b for a, b in zip(v, w))
            assert grading_class(rs, s) == group.add(
                grading_class(rs, v), grading_class(rs, w)
            )


def test_grading_class_generator_order():
    rs = _SYSTEMS["A2"]
    cls = grading_class(rs, (1, 0))
    assert cls != (0,)  # generates Z/3


def test_tensor_equivalent_reflexive():
    rs = _SYSTEMS["A2"]
    assert tensor_equivalent(rs, (2, 2), (2, 2)) == ((2, 2),)


def test_tensor_equivalent_a1_examples():
    rs = _SYSTEMS["A1"]
    word = tensor_equivalent(rs, (0,), (2,))
    assert word == ((1,), (1,))
    assert tensor_equivalent(rs, (0,), (1,)) is None
    assert tensor_equivalent(rs, (1,), (3,)) is not None


def test_tensor_equivalent_certificate_is_valid():
    rs = _SYSTEMS["A2"]
    a, b = (3, 0), (0, 0)
    word = tensor_equivalent(rs, a, b)
    assert word is not None
    # replay the word: both targets must be constituents of the product
    constituents = {word[0]}
    for factor in word[1:]:
        new = set()
        for nu in constituents:
            new.update(tensor_decompose(rs, nu, factor))
        constituents = new
    assert a in constituents and b in constituents


def _counted_decompositions(monkeypatch) -> list:
    grading._word_constituents.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return tensor_decompose(*args)

    monkeypatch.setattr(grading, "tensor_decompose", counted)
    return calls


def test_repeated_equivalence_decomposes_nothing(monkeypatch):
    rs = _SYSTEMS["A2"]
    calls = _counted_decompositions(monkeypatch)
    word = tensor_equivalent(rs, (3, 0), (0, 0))
    assert word is not None and calls
    calls.clear()
    assert tensor_equivalent(rs, (3, 0), (0, 0)) == word
    assert calls == []


def test_different_classes_decompose_nothing(monkeypatch):
    # classes 3 and 2 of Z/4: no word can hold both, so none is built
    calls = _counted_decompositions(monkeypatch)
    assert tensor_equivalent(_SYSTEMS["A3"], (1, 0, 0), (0, 1, 0)) is None
    assert calls == []
    assert grading._word_constituents.cache_info().currsize == 0


def test_repeated_search_builds_no_letters(monkeypatch):
    rs = _SYSTEMS["A3"]
    grading._letters.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return dominant_weights_up_to(*args)

    monkeypatch.setattr(grading, "dominant_weights_up_to", counted)
    assert tensor_equivalent(rs, (2, 0, 0), (0, 1, 0), bound=2) is not None
    assert calls == [(rs, 2)]
    calls.clear()
    # another pair, of class 1 of Z/4 rather than 2, on the same (type, bound)
    assert tensor_equivalent(rs, (1, 0, 0), (0, 0, 3), bound=2) is not None
    assert calls == []


def test_search_decomposes_only_words_of_the_first_class(monkeypatch):
    rs = _SYSTEMS["A3"]
    data = weight_class_data(rs.cartan_type)
    cached = grading._word_constituents
    cached.cache_clear()
    words, nesting = [], [0]

    def outermost(components, word):
        if not nesting[0]:
            words.append(word)
        nesting[0] += 1
        try:
            return cached(components, word)
        finally:
            nesting[0] -= 1

    monkeypatch.setattr(grading, "_word_constituents", outermost)
    # one class of Z/4, but no product of two letters of sum <= 1 holds
    # (3, 0, 0), nor one of three letters (4, 0, 0): both searches run to the
    # end, through every word of the class in combinations_with_replacement
    # order, shorter words first
    letters = dominant_weights_up_to(rs, 1)
    for a, b, depth in [((3, 0, 0), (0, 0, 1), 2), ((4, 0, 0), (0, 0, 0), 3)]:
        words.clear()
        assert tensor_equivalent(rs, a, b, bound=1, depth=depth) is None
        target = data.class_of(a)[0]
        expected = [
            word
            for length in range(2, depth + 1)
            for word in itertools.combinations_with_replacement(letters, length)
            if sum(data.class_of(letter)[0] for letter in word) % 4 == target
        ]
        assert words == expected and words


# (type, bound, depth, pairs): G2 has a trivial class group, A1xA1 is
# reducible, D4 has two invariant factors
_PARITY_CORPUS = [
    ("A3", 3, 4, 150),
    ("A1xA1", 3, 4, 80),
    ("D4", 2, 3, 80),
    ("B3", 2, 3, 80),
    ("C3", 2, 3, 80),
    ("G2", 2, 4, 80),
    ("A2", 3, 4, 120),
]


def test_tensor_equivalent_answers_pinned():
    # the digest was taken before the search skipped any word by its class:
    # a skipped word cannot hold the first weight, so no answer may move
    rng = random.Random(8)
    results = []
    for name, bound, depth, count in _PARITY_CORPUS:
        rs = build_root_system(parse_cartan_type(name))
        pool = dominant_weights_up_to(rs, bound + 1)
        for _ in range(count):
            a, b = rng.choice(pool), rng.choice(pool)
            word = tensor_equivalent(rs, a, b, bound=bound, depth=depth)
            results.append([name, a, b, word])
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "2f74790b7f97205325f188908a287856b1eac13b13faf5d349fd38ef1792d263"
    )


def test_tensor_equivalent_sound():
    # a found word forces equal weight classes
    rs = _SYSTEMS["B2"]
    weights = dominant_weights_up_to(rs, 2)
    for a, b in itertools.combinations(weights, 2):
        word = tensor_equivalent(rs, a, b, bound=2, depth=3)
        if word is not None:
            assert grading_class(rs, a) == grading_class(rs, b)


def test_tensor_equivalent_validates_input():
    rs = _SYSTEMS["A2"]
    with pytest.raises(ValueError):
        tensor_equivalent(rs, (1, -1), (0, 0))
    with pytest.raises(ValueError, match="^depth 0 must be at least 1$"):
        tensor_equivalent(rs, (1, 0), (0, 0), depth=0)
    with pytest.raises(ValueError, match="^bound -1 must be at least 0$"):
        tensor_equivalent(rs, (1, 0), (0, 0), bound=-1)
    with pytest.raises(ValueError, match="^bound True must be an int$"):
        tensor_equivalent(rs, (1, 0), (0, 0), bound=True)
    with pytest.raises(ValueError, match="^depth 3.0 must be an int$"):
        tensor_equivalent(rs, (1, 0), (0, 0), depth=3.0)
    # the input checks run before the class check: these pairs lie in
    # different classes of Z/4
    a3 = _SYSTEMS["A3"]
    for a, b, kwargs in [
        ((-1, 0, 0), (0, 1, 0), {}),
        ((1, 0), (0, 1, 0), {}),
        ((1, 0, 0), (0, 1, 0), {"depth": 0}),
        ((1, 0, 0), (0, 1, 0), {"bound": -1}),
        ((1, 0, 0), (0, 1, 0), {"bound": 2.0}),
        ((1, 0, 0), (1, 0, 0), {"bound": 2.0}),
    ]:
        with pytest.raises(ValueError):
            tensor_equivalent(a3, a, b, **kwargs)
    # the letters are cached by (type, bound) and 2.0 == 2 == True + 1, so a
    # float or bool must be refused before it can read the int's entry
    a, b = (2, 0, 0), (0, 1, 0)
    assert tensor_equivalent(a3, a, b, bound=2) is not None
    for kwargs in [{"bound": 2.0}, {"bound": True}, {"depth": 3.0}, {"depth": True}]:
        with pytest.raises(ValueError):
            tensor_equivalent(a3, a, b, **kwargs)


@pytest.mark.parametrize("bound", [True, False, 1.0, 2.5, "1"])
def test_bound_must_be_an_int(bound):
    # True == 1 == 1.0: a bool ran as 1 and wrote "bound": true into the
    # atlas JSON, and a float failed later with TypeError from range
    rs = _SYSTEMS["A2"]
    calls = [
        lambda: dominant_weights_up_to(rs, bound),
        lambda: generate_relations(rs, bound),
        lambda: grading_presentation(rs, bound),
        lambda: build_atlas(1, bound),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be an int$"):
            call()


def test_relations_hold_in_weight_class_group():
    # child and left + right always agree modulo the root lattice
    for name in ["A2", "G2"]:
        rs = _SYSTEMS[name]
        group = fundamental_group(rs.cartan_type)
        for r in generate_relations(rs, 2):
            lhs = grading_class(rs, r.child)
            rhs = group.add(grading_class(rs, r.left), grading_class(rs, r.right))
            assert lhs == rhs


@given(bound=st.integers(min_value=1, max_value=3))
@settings(max_examples=6, deadline=None)
def test_grading_quotient_surjects_onto_weight_classes(bound):
    # the presented quotient is never smaller than the weight-class group
    rs = _SYSTEMS["A3"]
    pres = grading_presentation(rs, bound)
    assert pres.free_rank == 0
    assert pres.quotient.order % fundamental_group(rs.cartan_type).order == 0
