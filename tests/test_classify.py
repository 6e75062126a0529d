import collections
import copy
import hashlib
import io
import itertools
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootatlas import classify, grading, lattice
from rootatlas.classify import (
    admissible_irreducible_types,
    atlas_to_json,
    build_atlas,
    build_entry,
    decompose_semisimple,
    entry_to_json,
    hasse_edges,
    label_diagram,
)
from rootatlas.cli import run
from rootatlas.grading import grading_presentation
from rootatlas.lattice import (
    Diagram,
    EnumerationCapError,
    FiniteAbelianGroup,
    Subgroup,
    adjoint_diagram,
    diagrams,
    full_subgroup,
    fundamental_group,
    isogeny_order,
    simply_connected_diagram,
)
from rootatlas.repring import dominant_weights_up_to
from rootatlas.rootsys import build_root_system, parse_cartan_type


def _types(entries):
    return [str(e.cartan_type) for e in entries]


def test_admissible_type_ordering():
    got = [str(t) for t in admissible_irreducible_types(4)]
    assert got == [
        "A1",
        "A2",
        "B2",
        "C2",
        "G2",
        "A3",
        "B3",
        "C3",
        "A4",
        "B4",
        "C4",
        "D4",
        "F4",
    ]


def test_admissible_types_rank_8_includes_exceptionals():
    got = [str(t) for t in admissible_irreducible_types(8)]
    assert "E6" in got and "E7" in got and "E8" in got
    assert got.index("E6") < got.index("E7") < got.index("E8")


def test_a1_entry():
    entry = build_entry(parse_cartan_type("A1"), bound=2)
    assert entry.error is None
    assert entry.fundamental_group.invariant_factors == (2,)
    assert len(entry.diagrams) == 2
    centers = [d.center.invariant_factors for d in entry.diagrams]
    assert centers == [(2,), ()]
    assert entry.isogeny_edges == ((0, 1),)
    assert entry.grading.matches is True
    assert entry.grading.presentation.quotient.invariant_factors == (2,)


def test_a3_chain():
    entry = build_entry(parse_cartan_type("A3"), bound=1)
    assert len(entry.diagrams) == 3
    orders = [d.diagram.subgroup.order for d in entry.diagrams]
    assert orders == [4, 2, 1]
    # total order: a 3-chain has exactly the two covering edges
    assert entry.isogeny_edges == ((0, 1), (1, 2))


def test_d4_five_diagrams():
    entry = build_entry(parse_cartan_type("D4"), bound=1)
    assert len(entry.diagrams) == 5
    orders = [d.diagram.subgroup.order for d in entry.diagrams]
    assert orders == [4, 2, 2, 2, 1]
    # three incomparable middles, each covered by the top and covering the bottom
    assert entry.isogeny_edges == (
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 4),
        (2, 4),
        (3, 4),
    )


def test_labels():
    entry = build_entry(parse_cartan_type("A3"), bound=1)
    labels = [d.label for d in entry.diagrams]
    assert labels == ["A3 simply-connected", "A3 intermediate#1", "A3 adjoint"]
    g2 = build_entry(parse_cartan_type("G2"), bound=1)
    # trivial fundamental group: the unique diagram is both ends of the chain
    assert [d.label for d in g2.diagrams] == ["G2 simply-connected"]


def test_label_diagram_roundtrip_d4():
    ds = diagrams(parse_cartan_type("D4"))
    labels = [label_diagram(d) for d in ds]
    assert labels[0] == "D4 simply-connected"
    assert labels[-1] == "D4 adjoint"
    assert labels[1:4] == [
        "D4 intermediate#1",
        "D4 intermediate#2",
        "D4 intermediate#3",
    ]


def test_atlas_entry_order_and_gradings():
    entries = build_atlas(max_rank=2, bound=2)
    assert _types(entries) == ["A1", "A2", "B2", "C2", "G2"]
    for entry in entries:
        assert entry.error is None
        assert entry.grading.error is None
        assert entry.grading.matches is True
        assert (
            entry.grading.presentation.quotient
            == fundamental_group(entry.cartan_type)
        )


def test_simply_connected_center_matches_fundamental_group():
    for entry in build_atlas(max_rank=3, bound=1):
        assert entry.diagrams[0].center == entry.fundamental_group
        assert entry.diagrams[-1].center.invariant_factors == ()


def test_grading_dim_cap_skips():
    entry = build_entry(parse_cartan_type("A2"), bound=2, grading_dim_cap=5)
    assert entry.grading.presentation is None
    assert entry.grading.matches is None
    assert "exceeds the cap" in entry.grading.error
    # the rest of the entry is still intact
    assert len(entry.diagrams) == 2
    assert entry.error is None


def test_enumeration_cap_embeds_error():
    t = parse_cartan_type("x".join(["A1"] * 7))
    entry = build_entry(t, bound=1, enumeration_cap=64)
    assert entry.error is not None
    assert entry.diagrams == ()
    assert entry.fundamental_group.order == 128


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_atlas(True, 1),
        lambda: build_atlas(1.5),
        lambda: build_atlas(2, 1, enumeration_cap=True),
        lambda: build_atlas(2, 1, grading_dim_cap=2.0e7),
        lambda: build_entry(parse_cartan_type("A3"), True, enumeration_cap=1),
        lambda: build_entry(parse_cartan_type("A1"), 1.0),
        lambda: atlas_to_json([], max_rank=2, bound=1.0),
        lambda: atlas_to_json([], max_rank=False, bound=1),
        lambda: atlas_to_json([], 2, 1, enumeration_cap=64.0),
        lambda: atlas_to_json([], 2, 1, grading_dim_cap=True),
        lambda: lattice.enumerate_subgroups(FiniteAbelianGroup((2,)), 2.0),
    ],
)
def test_atlas_counts_must_be_ints(call):
    # a bool or float count would reach the atlas JSON as written
    with pytest.raises(ValueError, match="must be an int$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_atlas(-1, 1), "max_rank -1 must be at least 1"),
        (lambda: build_atlas(0, 1), "max_rank 0 must be at least 1"),
        (lambda: build_atlas(2, -1), "bound -1 must be at least 0"),
        (
            lambda: atlas_to_json(
                [], max_rank=-1, bound=1, enumeration_cap=-5, grading_dim_cap=0
            ),
            "max_rank -1 must be at least 1",
        ),
        (lambda: atlas_to_json([], 2, -1), "bound -1 must be at least 0"),
        (lambda: atlas_to_json([], 2, 1, 0), "enumeration_cap 0 must be at least 1"),
        (
            lambda: build_entry(parse_cartan_type("A3"), 1, enumeration_cap=0),
            "enumeration_cap 0 must be at least 1",
        ),
        (
            lambda: build_entry(parse_cartan_type("A3"), 1, grading_dim_cap=-1),
            "grading_dim_cap -1 must be at least 1",
        ),
        (
            lambda: lattice.enumerate_subgroups(FiniteAbelianGroup((2,)), 0),
            "cap 0 must be at least 1",
        ),
    ],
)
def test_atlas_counts_below_the_cli_limits_are_refused(call, message):
    # the CLI refuses these counts before any work; so does the library
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "name, bound, relations",
    [("A2", 2, 30), ("G2", 2, 62), ("B3", 1, 14), ("D4", 1, 19)],
)
def test_plain_build_entry_keeps_the_full_presentation(name, bound, relations):
    # every relation in order, the class map and the quotient
    t = parse_cartan_type(name)
    full = grading_presentation(build_root_system(t), bound)
    assert len(full.relations) == relations
    assert build_entry(t, bound).grading.presentation == full


def _summary(g):
    """What the atlas reads of a grading: its quotient, free rank and match."""
    pres = g.presentation
    return g.bound, g.error, g.matches, pres.quotient, pres.free_rank


def _count_products(monkeypatch, *modules):
    """Count each ``tensor_decompose`` call made through ``modules`` by its
    module, root system and pair."""
    calls = collections.Counter()
    for module in modules:

        def counted(rs, lam, mu, _name=module.__name__, _fn=module.tensor_decompose):
            calls[_name, rs, lam, mu] += 1
            return _fn(rs, lam, mu)

        monkeypatch.setattr(module, "tensor_decompose", counted)
    return calls


@pytest.mark.parametrize(
    "name",
    [str(t) for t in admissible_irreducible_types(4)] + ["A1xA1xA1", "A3xA1"],
)
def test_early_grading_agrees_with_the_full_path(name):
    # closed early or not, the relations read give the full list's summary;
    # when the full list does not present P/Q, as at bound 0 with P/Q
    # nontrivial, every relation of it is read
    t = parse_cartan_type(name)
    for bound in (0, 1, 2):
        full = build_entry(t, bound).grading
        early = build_entry(t, bound, _early=True).grading
        assert _summary(early) == _summary(full)
        read = collections.Counter(early.presentation.relations)
        assert read <= collections.Counter(full.presentation.relations)
        if not full.matches:
            assert read == collections.Counter(full.presentation.relations)
        if bound == 0:
            assert full.matches == (fundamental_group(t).order == 1)


@pytest.mark.parametrize(
    "name, bound", [("A2", 1), ("B3", 2), ("D4", 1), ("G2", 2), ("A3xA1", 1)]
)
def test_a_rejected_close_reads_on_to_the_full_summary(monkeypatch, name, bound):
    # a pivot product that always reads |P/Q| closes on the first pair, whose
    # relations do not present P/Q: the guard rejects them, and every pair is
    # then read once and all the relations read are presented
    t = parse_cartan_type(name)
    rs = build_root_system(t)
    full = build_entry(t, bound).grading
    order = fundamental_group(t).order
    monkeypatch.setattr(classify, "prod", lambda pivots: order)
    verdicts = []

    def guard(*args, _fn=classify.matches_fundamental_group):
        verdicts.append(_fn(*args))
        return verdicts[-1]

    monkeypatch.setattr(classify, "matches_fundamental_group", guard)
    calls = _count_products(monkeypatch, classify, grading)
    early = build_entry(t, bound, _early=True).grading
    assert verdicts == [False, full.matches]
    assert _summary(early) == _summary(full)
    gens = dominant_weights_up_to(rs, bound)
    assert calls == collections.Counter(
        ("rootatlas.classify", rs, lam, mu)
        for lam, mu in itertools.combinations_with_replacement(gens, 2)
    )


def test_atlas_verb_decomposes_each_product_once_at_bound_0(monkeypatch):
    # no nontrivial P/Q closes at bound 0, so each entry reads its one
    # product, 0 (x) 0, and presents it without decomposing it again
    calls = _count_products(monkeypatch, classify, grading)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run("atlas --max-rank 6 --bound 0 --format json".split()) == 0
    zero = [
        (build_root_system(t), (0,) * t.rank) for t in admissible_irreducible_types(6)
    ]
    assert calls == collections.Counter(
        ("rootatlas.classify", rs, w, w) for rs, w in zero
    )
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "76d1520b10f83be51d1943c53e0323d9d80449e3d549d875c5cd2d092f9f5d5e"
    )


def test_atlas_verb_takes_the_early_path(monkeypatch):
    # 614 of the default atlas's 4,010 products, none of them through the
    # full relation list, and the bytes the full path gives
    calls = _count_products(monkeypatch, classify, grading)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run("atlas --max-rank 4 --bound 3 --format json".split()) == 0
    assert {name for name, *_ in calls} == {"rootatlas.classify"}
    assert set(calls.values()) == {1}
    assert len(calls) == 614
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "2b9e02456727f9edb730cd9615ab5adcee766647ce79b8ebf7b6f8426bb744a8"
    )


def test_json_shape():
    entry = build_entry(parse_cartan_type("A3"), bound=1)
    data = entry_to_json(entry)
    assert data["type"] == "A3"
    assert data["fundamental_group"] == [4]
    assert [d["center"] for d in data["diagrams"]] == [[4], [2], []]
    assert data["isogeny_edges"] == [[0, 1], [1, 2]]
    assert data["grading"]["bound"] == 1
    assert data["grading"]["error"] is None
    json.dumps(data)  # must be serializable as-is


def test_atlas_json_deterministic():
    a = atlas_to_json(build_atlas(max_rank=2, bound=2), max_rank=2, bound=2)
    b = atlas_to_json(build_atlas(max_rank=2, bound=2), max_rank=2, bound=2)
    assert json.dumps(a, indent=2) == json.dumps(b, indent=2)
    assert a["parameters"]["max_rank"] == 2
    assert a["parameters"]["bound"] == 2


def test_decompose_semisimple():
    dec = decompose_semisimple(parse_cartan_type("A1xA2"))
    assert [str(b.cartan_type) for b in dec.components] == ["A1", "A2"]
    assert [b.start for b in dec.components] == [1, 2]
    assert [g.invariant_factors for g in dec.component_groups] == [(2,), (3,)]
    assert dec.fundamental_group.invariant_factors == (6,)


def test_decompose_irreducible_is_single_block():
    dec = decompose_semisimple(parse_cartan_type("F4"))
    assert len(dec.components) == 1
    assert dec.fundamental_group.invariant_factors == ()


@pytest.mark.parametrize("name", ["B2", "C2"])
def test_b2_c2_both_present_and_distinct(name):
    entry = build_entry(parse_cartan_type(name), bound=1)
    assert str(entry.cartan_type) == name
    assert entry.fundamental_group.invariant_factors == (2,)
    assert len(entry.diagrams) == 2


def _oracle_covers(ds):
    """Cover pairs of the isogeny order read from element-set inclusion,
    without the library's lattice membership test."""
    sets = [d.subgroup.elements() for d in ds]
    n = len(ds)
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and sets[j] <= sets[i]
        and not any(
            sets[j] <= sets[k] <= sets[i] for k in range(n) if k not in (i, j)
        )
    )


# A1xA1xA1xA1 (67 diagrams) and A3xA3 (15) give the oracle and the sublists
# larger lattices that are not chains
_ORACLE_TYPES = [
    "A3", "D4", "A1xA3", "A1xA1xA1", "A2xA2", "A1xA2xA3", "A1xA1xA1xA1", "A3xA3",
]


@pytest.mark.parametrize("name", _ORACLE_TYPES)
def test_hasse_edges_match_inclusion_oracle(name):
    ds = diagrams(parse_cartan_type(name))
    assert hasse_edges(ds) == _oracle_covers(ds)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_ORACLE_TYPES).flatmap(
        lambda name: st.lists(
            st.sampled_from(diagrams(parse_cartan_type(name))), max_size=9
        )
    )
)
def test_hasse_edges_on_sublists_with_repeats(ds):
    assert hasse_edges(ds) == _oracle_covers(ds)


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, int(n**0.5) + 1))


@pytest.mark.parametrize(
    "name",
    ["A3", "D4", "A1xA3", "A1xA1xA1", "A1xA1xA1xA1", "A1xA1xA1xA1xA1",
     "A2xA2xA2", "A1xA2xA3", "D4xA3", "A3xA3", "A1xA1xA3xA3"],
)
def test_hasse_edges_are_the_inclusions_of_prime_index(name):
    # in an abelian group H < K is a cover exactly when K/H has no proper
    # nontrivial subgroup, that is when [K:H] is prime; on a full list every
    # subgroup is present, so the covers are the inclusions of prime index
    ds = diagrams(parse_cartan_type(name))
    orders = [d.subgroup.order for d in ds]
    n = len(ds)
    assert hasse_edges(ds) == tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if orders[i] % orders[j] == 0
        and _is_prime(orders[i] // orders[j])
        and isogeny_order(ds[i], ds[j])
    )


def test_hasse_edges_refuses_mixed_types():
    a1 = diagrams(parse_cartan_type("A1"))
    b2 = diagrams(parse_cartan_type("B2"))
    with pytest.raises(ValueError, match="different Cartan types"):
        hasse_edges([a1[0], b2[0]])
    with pytest.raises(ValueError, match="different Cartan types"):
        hasse_edges(a1 + b2[1:])


def _count_enumerations(monkeypatch):
    calls = []
    enumerate_subgroups = lattice.enumerate_subgroups

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_subgroups(*args, **kwargs)

    monkeypatch.setattr(lattice, "enumerate_subgroups", counted)
    return calls


def test_classify_enumerates_once(monkeypatch, capsys):
    calls = _count_enumerations(monkeypatch)
    lattice._diagrams.cache_clear()
    assert run(["classify", "A1xA1xA1xA1"]) == 0
    assert "[66] A1xA1xA1xA1 adjoint" in capsys.readouterr().out
    assert len(calls) == 1


def test_build_entry_enumerates_once(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    lattice._diagrams.cache_clear()
    entry = build_entry(parse_cartan_type("A1xA1xA1xA1"), bound=1)
    assert len(entry.diagrams) == 67
    assert len(calls) == 1


def test_ends_are_labelled_above_the_cap():
    t = parse_cartan_type("x".join(["A1"] * 7))
    name = str(t)
    assert label_diagram(simply_connected_diagram(t)) == f"{name} simply-connected"
    assert label_diagram(adjoint_diagram(t)) == f"{name} adjoint"


def test_intermediate_label_needs_the_cap():
    middle = diagrams(parse_cartan_type("D4"))[2]
    assert label_diagram(middle) == "D4 intermediate#2"
    with pytest.raises(EnumerationCapError):
        label_diagram(middle, cap=3)


def test_label_refuses_a_diagram_outside_the_list():
    # the order-2 subgroup of A3's Z/4 is intermediate in size for D4, but
    # no diagram of D4, whose weight classes form Z/2 x Z/2: it cannot even
    # be built
    d4 = parse_cartan_type("D4")
    half = diagrams(parse_cartan_type("A3"))[1].subgroup
    with pytest.raises(ValueError):
        Diagram(d4, half)
    # the right ambient group, but a basis not in Hermite form (3 is not
    # reduced below the pivot 2): it would equal no enumerated subgroup, so
    # it cannot be built either
    with pytest.raises(ValueError, match="not in Hermite form"):
        Subgroup(fundamental_group(d4), ((1, 1),), ((1, 3), (0, 2)))
    # label_diagram still refuses a subgroup changed after its checks
    skew = copy.copy(diagrams(d4)[2].subgroup)
    object.__setattr__(skew, "basis", ((1, 3), (0, 2)))
    assert skew.order == 2
    with pytest.raises(ValueError, match="not among the diagrams"):
        label_diagram(Diagram(d4, skew))


def test_diagram_refuses_a_subgroup_of_another_group():
    a3 = parse_cartan_type("A3")
    z2 = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError, match=r"\(2,\).*\(4,\)"):
        Diagram(a3, full_subgroup(z2))


def test_classify_a1x5_output_pinned(capsys):
    # P/Q of order 32: 374 diagrams, each labelled from one enumeration
    assert run(["classify", "A1xA1xA1xA1xA1", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "e628a5d74ea7e99eaff9c0f0910dbaf1de60fae12419c630e941b0d4976fdde4"
    )
