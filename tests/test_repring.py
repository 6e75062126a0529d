"""Dimensions, weight multiplicities, and tensor decompositions.

The three routes check each other: the Weyl product formula against the
total mass of the Freudenthal multiset, and decompositions against both
dimension conservation and pointwise character convolution.
"""

import hashlib
import itertools
import math
import random
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootatlas import repring, rootsys
from rootatlas.grading import grading_class, tensor_equivalent
from rootatlas.lattice import diagrams, weight_class_data, weight_in_lattice
from rootatlas.repring import (
    clebsch_gordan_sl2,
    dominant_weight_multiplicities,
    dominant_weights_up_to,
    sorted_decomposition,
    tensor_decompose,
    weight_multiplicities,
    weyl_dim,
)
from rootatlas.rootsys import (
    build_root_system,
    dominant_representative,
    parse_cartan_type,
    simple_reflection,
    weyl_orbit,
)
from weyl_character import character_defect

_SYSTEMS = {
    name: build_root_system(parse_cartan_type(name))
    for name in ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D4", "F4", "A1xA1"]
}


def _cold_caches():
    """Empty repring's caches and the generated reflection kernels."""
    for helper in (
        rootsys._reflection_kernels,
        repring._dominant_table,
        repring._orbit,
        repring._minus_rho,
        repring._weyl_dim,
        repring._root_classes,
        repring._bonds,
        repring._wall_kernel,
        repring._support_roots,
        repring._orbit_walls,
        repring._module,
        repring._orbit_sums,
    ):
        helper.cache_clear()


# the repring outputs of a seeded corpus, in item order, pinned by one
# sha256: every pair of dominant weights of coordinate sum at most 2, with
# a seeded sample of the pairs on F4 and E6.  The A3 pair (0,1,1), (0,2,0)
# has nu = (-2,1,-1) in the smaller factor, whose rho-shifted vector
# (-1,4,0) has a negative coordinate before a zero.
PARITY_CORPUS = [
    ("A3", None),
    ("B3", None),
    ("C3", None),
    ("D4", None),
    ("G2", None),
    ("F4", 60),
    ("E6", 60),
    ("A2xB2", None),
    ("A1xA1", None),
]
PARITY_SHA256 = "f7b027914008af4aea2fc84ea11fc00d3b644c57b0e45f0ed1a2f41ac64686aa"


def test_repring_outputs_match_pinned_digest():
    _cold_caches()
    rng = random.Random(1)
    digest = hashlib.sha256()

    def feed(result):
        digest.update(repr(list(result.items())).encode())

    for name, sample in PARITY_CORPUS:
        rs = build_root_system(parse_cartan_type(name))
        weights = dominant_weights_up_to(rs, 2)
        pairs = list(itertools.combinations_with_replacement(weights, 2))
        if sample is not None:
            pairs = rng.sample(pairs, sample)
        for lam in weights:
            feed(dominant_weight_multiplicities(rs, lam))
            feed(weight_multiplicities(rs, lam))
        # the first order computes the product, the second reads the cache
        for lam, mu in pairs:
            feed(tensor_decompose(rs, lam, mu))
            feed(tensor_decompose(rs, mu, lam))
    assert digest.hexdigest() == PARITY_SHA256


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4", "F4", "A1xA2"])
def test_weight_multiset_order_is_table_then_orbit_order(name):
    # the invariant behind the digest's item order: the dominant weights in
    # table order, each followed through its Weyl orbit in the orbit's own
    # iteration order
    rs = build_root_system(parse_cartan_type(name))
    _cold_caches()
    for lam in dominant_weights_up_to(rs, 2):
        expected = [
            (w, m)
            for mu, m in dominant_weight_multiplicities(rs, lam).items()
            for w in weyl_orbit(rs, mu)
        ]
        assert list(weight_multiplicities(rs, lam).items()) == expected


def _parity_pairs():
    """Each pair of the parity corpus, the same seeded sample on F4 and E6."""
    rng = random.Random(1)
    for name, sample in PARITY_CORPUS:
        rs = build_root_system(parse_cartan_type(name))
        weights = dominant_weights_up_to(rs, 2)
        pairs = list(itertools.combinations_with_replacement(weights, 2))
        if sample is not None:
            pairs = rng.sample(pairs, sample)
        for lam, mu in pairs:
            yield rs, lam, mu


def test_result_keys_are_shared_weights():
    # every constituent is the one tuple that _minus_rho keeps for its
    # weight, so products with a constituent in common, in either argument
    # order, hold one object for it, and a repeated product adds no miss
    _cold_caches()
    shared = {}
    for rs, lam, mu in _parity_pairs():
        first = tensor_decompose(rs, lam, mu)
        misses = repring._minus_rho.cache_info().misses
        again = tensor_decompose(rs, mu, lam)
        assert repring._minus_rho.cache_info().misses == misses
        for w in [*first, *again]:
            assert w is repring._minus_rho(tuple(c + 1 for c in w))
            assert w is shared.setdefault(w, w)
    assert shared


def _selector_cases():
    # each pair of the parity corpus both ways round, then pairings past a
    # byte: A1 (300) and (299); A2 (255,300) over the module (0,256), whose
    # weights reach -256 at a simple wall; and A2 (100,154) over (0,256),
    # where lam + rho pairs to 256 with the coroot of alpha_1 + alpha_2 and
    # nu = (-256, 0) meets that wall alone
    for rs, lam, mu in _parity_pairs():
        yield rs, lam, mu
        yield rs, mu, lam
    yield _SYSTEMS["A1"], (300,), (299,)
    yield _SYSTEMS["A1"], (299,), (300,)
    yield _SYSTEMS["A2"], (255, 300), (0, 256)
    yield _SYSTEMS["A2"], (100, 154), (0, 256)


def _height_two_coroots(rs):
    return [p.coroot for p in rs.positive_root_data if sum(p.simple_coords) == 2]


def test_wall_selector_matches_the_direct_wall_test():
    # the decomposition drops nu when lam + rho + nu has a zero coordinate
    # or pairs to zero with the coroot of a root of height two; the masks
    # take the height-two columns in positive_root_data order
    _cold_caches()
    walls = height_two = past_a_byte = height_two_past_a_byte = 0
    for rs, lam, mu in _selector_cases():
        shifted = [c + 1 for c in lam]
        coroots = _height_two_coroots(rs)
        pairings = shifted + [sum(map(mul, k, shifted)) for k in coroots]
        wm = weight_multiplicities(rs, mu)
        keys, blocks = repring._module(rs, mu)
        assert keys == tuple(wm)
        # the blocks tile the module, each its orbit in iteration order
        tiles = [keys[start:end] for _, _, start, end, _ in blocks]
        assert tiles == [tuple(repring._orbit(rs, dom)) for dom, *_ in blocks]
        assert tuple(itertools.chain(*tiles)) == keys
        selector = b"".join(
            repring._off_walls(walls, pairings, end - start)
            for _, _, start, end, walls in blocks
        )
        shifted_weights = [tuple(map(add, shifted, nu)) for nu in wm]
        off_simple = [0 not in v for v in shifted_weights]
        direct = [
            s and all(sum(map(mul, k, v)) for k in coroots)
            for s, v in zip(off_simple, shifted_weights)
        ]
        assert list(selector) == direct
        only_higher = sum(off_simple) - sum(direct)
        walls += direct.count(False)
        height_two += only_higher
        if max(pairings) > 255:
            past_a_byte += direct.count(False)
            height_two_past_a_byte += only_higher
    assert walls and height_two and past_a_byte and height_two_past_a_byte


@pytest.mark.parametrize("name", ["B3", "C3", "G2", "F4", "D4", "A2xB2"])
def test_bonds_are_the_height_two_roots(name):
    rs = build_root_system(parse_cartan_type(name))
    rank = rs.rank
    m = rs.cartan_matrix
    edges = {(i, j) for i in range(rank) for j in range(i + 1, rank) if m[i][j]}
    bonds = repring._bonds(rs)
    assert len(bonds) == len(edges)
    assert {(i, j) for i, j, _, _ in bonds} == edges
    coroots = {p.simple_coords: p.coroot for p in rs.positive_root_data}
    for i, j, ki, kj in bonds:
        k = coroots[tuple(int(n in (i, j)) for n in range(rank))]
        assert (ki, kj) == (k[i], k[j]) and sum(k) == ki + kj
    # a short root alpha_i + alpha_j beside a long simple root alpha_i has
    # coroot (norm_i / norm) alpha_i^vee + alpha_j^vee
    expected = {
        "B3": {(0, 1, 1, 1), (1, 2, 2, 1)},
        "C3": {(0, 1, 1, 1), (1, 2, 1, 2)},
        "G2": {(0, 1, 1, 3)},
        "F4": {(0, 1, 1, 1), (1, 2, 2, 1), (2, 3, 1, 1)},
    }
    if name in expected:
        assert set(bonds) == expected[name]


def test_parity_corpus_straightens_a_weight_onto_a_wall():
    # a shifted weight off the simple walls and the walls of the height-two
    # roots passes the decomposition's wall test, yet may be singular: then
    # it straightens onto a wall, and only the check after straightening
    # drops it.  The digest covers that check only if some weight of the
    # corpus is of this kind
    def reaches_a_wall(name):
        rs = build_root_system(parse_cartan_type(name))
        coroots = _height_two_coroots(rs)
        weights = dominant_weights_up_to(rs, 2)
        for pair in itertools.combinations_with_replacement(weights, 2):
            # the decomposition runs over the weights of the factor of
            # smaller (dimension, weight)
            small, big = sorted(pair, key=lambda w: (weyl_dim(rs, w), w))
            for nu in weight_multiplicities(rs, small):
                v = tuple(b + 1 + c for b, c in zip(big, nu))
                if 0 in v or any(sum(map(mul, k, v)) == 0 for k in coroots):
                    continue
                if dominant_representative(rs, v)[2]:
                    return True
        return False

    assert any(
        reaches_a_wall(name) for name, sample in PARITY_CORPUS if sample is None
    )



# the dominant tables of every dominant weight up to a coordinate sum, in
# item order, pinned by one sha256; E8 at sum 1 includes its fundamental
# weights of largest dimension
TABLE_CORPUS = [
    *((name, 3) for name in ("F4", "G2", "B4", "C4", "D4", "A2xB2", "A1xG2")),
    *((name, 2) for name in ("E6", "E7", "A5", "B5", "A1xA1xA1")),
    ("E8", 1),
]
TABLE_SHA256 = "e20fcd1187f92f9b5439fbafd0bb267217c6d3fb5f65abdca2a2ee0559aee5bf"


def test_dominant_tables_match_pinned_digest():
    _cold_caches()
    digest = hashlib.sha256()
    for name, bound in TABLE_CORPUS:
        rs = build_root_system(parse_cartan_type(name))
        for lam in dominant_weights_up_to(rs, bound):
            table = dominant_weight_multiplicities(rs, lam)
            digest.update(repr(list(table.items())).encode())
    assert digest.hexdigest() == TABLE_SHA256


# every irreducible type of rank <= 7, and E8; the products put roots of
# equal length with no coordinate off the zeros in different components of
# the diagram on the zeros, also across factors
ROOT_CLASS_TYPES = (
    "A1 A2 B2 C2 G2 A3 B3 C3 A4 B4 C4 D4 F4 A5 B5 C5 D5 A6 B6 C6 D6 E6 "
    "A7 B7 C7 D7 E7 E8 A1xA1 A2xB2 A2xA2 A1xA1xA3 B2xA1xA1 G2xA2"
).split()


@pytest.mark.parametrize("name", ROOT_CLASS_TYPES)
def test_root_classes_are_the_reflection_orbits_up_to_sign(name):
    rs = build_root_system(parse_cartan_type(name))
    positive = rs.positive_roots
    for size in range(rs.rank + 1):
        for zeros in itertools.combinations(range(rs.rank), size):
            # the classes of the relation alpha ~ +-s_j(alpha), by closure
            parts = {}
            for root in sorted(positive):
                if root in parts:
                    continue
                part = {root}
                queue = [root]
                while queue:
                    v = queue.pop()
                    for j in zeros:
                        t = simple_reflection(rs, j + 1, v)
                        t = t if t in positive else tuple(-c for c in t)
                        if t not in part:
                            part.add(t)
                            queue.append(t)
                for v in part:
                    parts[v] = frozenset(part)
            classes = repring._root_classes(rs, zeros)
            assert sum(n for _, n in classes) == len(positive)
            found = [parts[p.root] for p, _ in classes]
            assert set(found) == set(parts.values())
            assert len(found) == len(set(found))
            assert [n for _, n in classes] == [len(part) for part in found]
            # each class is named by its first root, in root order
            firsts = {}
            for p in rs.positive_root_data:
                firsts.setdefault(parts[p.root], p)
            assert classes == tuple((p, len(part)) for part, p in firsts.items())
    singletons = repring._root_classes(rs, ())
    assert singletons == tuple((p, 1) for p in rs.positive_root_data)

# frozen dimensions for standard small modules
KNOWN_DIMS = [
    ("A1", (0,), 1),
    ("A1", (1,), 2),
    ("A1", (7,), 8),
    ("A2", (1, 0), 3),
    ("A2", (0, 1), 3),
    ("A2", (1, 1), 8),
    ("A2", (3, 0), 10),
    ("A2", (2, 2), 27),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B2", (1, 1), 16),
    ("C2", (1, 0), 4),
    ("C2", (0, 1), 5),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("A3", (1, 0, 0), 4),
    ("A3", (0, 1, 0), 6),
    ("A3", (1, 0, 1), 15),
    ("B3", (1, 0, 0), 7),
    ("B3", (0, 0, 1), 8),
    ("B3", (0, 1, 0), 21),
    ("C3", (1, 0, 0), 6),
    ("C3", (0, 1, 0), 14),
    ("D4", (1, 0, 0, 0), 8),
    ("D4", (0, 0, 1, 0), 8),
    ("D4", (0, 0, 0, 1), 8),
    ("D4", (0, 1, 0, 0), 28),
    ("F4", (0, 0, 0, 1), 26),
    ("F4", (1, 0, 0, 0), 52),
]


@pytest.mark.parametrize("name,lam,dim", KNOWN_DIMS)
def test_weyl_dim_known_values(name, lam, dim):
    assert weyl_dim(_SYSTEMS[name], lam) == dim


def test_weyl_dim_exceptional_fundamentals():
    e6 = build_root_system(parse_cartan_type("E6"))
    e7 = build_root_system(parse_cartan_type("E7"))
    e8 = build_root_system(parse_cartan_type("E8"))
    assert weyl_dim(e6, (1, 0, 0, 0, 0, 0)) == 27
    assert weyl_dim(e6, (0, 1, 0, 0, 0, 0)) == 78  # adjoint
    assert weyl_dim(e7, (0, 0, 0, 0, 0, 0, 1)) == 56
    assert weyl_dim(e7, (1, 0, 0, 0, 0, 0, 0)) == 133  # adjoint
    assert weyl_dim(e8, (0, 0, 0, 0, 0, 0, 0, 1)) == 248  # adjoint


def test_adjoint_dimension_is_root_count_plus_rank():
    for name in ["A2", "B2", "C2", "G2", "A3", "B3", "D4", "F4"]:
        rs = _SYSTEMS[name]
        highest = max(
            rs.positive_roots, key=lambda r: sum(_expand(rs, r))
        )
        assert weyl_dim(rs, highest) == len(rs.all_roots) + rs.rank


def _expand(rs, root):
    for p in rs.positive_root_data:
        if p.root == root:
            return p.simple_coords
    raise AssertionError


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(_SYSTEMS["A2"], (1, -1))
    with pytest.raises(ValueError):
        weight_multiplicities(_SYSTEMS["A2"], (-1, 0))
    with pytest.raises(ValueError):
        tensor_decompose(_SYSTEMS["A2"], (1, 0), (0, -1))


def _numbers(result):
    """Every number in a result built of dicts, tuples, sets and ints."""
    if isinstance(result, dict):
        result = list(result.items())
    if isinstance(result, (list, tuple, frozenset)):
        for part in result:
            yield from _numbers(part)
    elif result is not None:
        yield result


_WEIGHT_CALLS = {
    "tensor_decompose": lambda rs, w: tensor_decompose(rs, w, (0, 1)),
    "weight_multiplicities": weight_multiplicities,
    "dominant_weight_multiplicities": dominant_weight_multiplicities,
    "weyl_dim": weyl_dim,
    "weyl_orbit": weyl_orbit,
    "tensor_equivalent": lambda rs, w: tensor_equivalent(rs, w, (0, 2)),
}


@pytest.mark.parametrize("name", sorted(_WEIGHT_CALLS))
@pytest.mark.parametrize("bad", [(1.0, 0), (True, 0), (1, 0.0)])
def test_non_int_coordinates_are_refused(name, bad):
    # the caches are keyed by value and 1.0 == True == 1, so a float or bool
    # weight let through would hand its keys to the integer calls after it
    rs = _SYSTEMS["A2"]
    call = _WEIGHT_CALLS[name]
    _cold_caches()
    with pytest.raises(ValueError, match="not an int"):
        call(rs, bad)
    numbers = list(_numbers(call(rs, (1, 0))))
    assert numbers and {type(c) for c in numbers} == {int}
    assert {type(c) for c in _numbers(tensor_decompose(rs, (1, 1), (1, 0)))} == {int}


_TUPLE_CALLS = {
    **_WEIGHT_CALLS,
    "dominant_representative": dominant_representative,
    "simple_reflection": lambda rs, w: simple_reflection(rs, 1, w),
    "grading_class": grading_class,
    "weight_in_lattice": lambda rs, w: weight_in_lattice(
        rs, w, diagrams(rs.cartan_type)[0]
    ),
}


@pytest.mark.parametrize("name", sorted(_TUPLE_CALLS))
def test_list_weights_are_refused(name):
    # the caches hash weights and order them against tuples: a list is
    # refused at the door, whichever call it reaches, not deep inside
    rs = _SYSTEMS["A2"]
    call = _TUPLE_CALLS[name]
    _cold_caches()
    with pytest.raises(ValueError, match="not a tuple"):
        call(rs, [1, 0])
    assert list(_numbers(call(rs, (1, 0))))


def test_weyl_dim_matches_freudenthal_mass():
    # two independent routes to the dimension must agree, on the first
    # call and on the second, which reads the cached orbits
    _cold_caches()
    cases = [
        ("A1", (4,)),
        ("A2", (2, 1)),
        ("B2", (1, 2)),
        ("C2", (2, 0)),
        ("G2", (1, 1)),
        ("A3", (1, 1, 1)),
        ("B3", (1, 0, 1)),
        ("C3", (0, 1, 1)),
        ("D4", (1, 1, 0, 0)),
        ("F4", (1, 0, 0, 1)),
        ("A1xA1", (2, 3)),
    ]
    for name, lam in cases:
        rs = _SYSTEMS[name]
        for _ in range(2):
            assert sum(weight_multiplicities(rs, lam).values()) == weyl_dim(rs, lam)


def test_weight_multiplicities_trivial_and_small():
    a1 = _SYSTEMS["A1"]
    assert weight_multiplicities(a1, (0,)) == {(0,): 1}
    assert weight_multiplicities(a1, (2,)) == {(2,): 1, (0,): 1, (-2,): 1}
    a2 = _SYSTEMS["A2"]
    adjoint = weight_multiplicities(a2, (1, 1))
    assert adjoint[(0, 0)] == 2
    for root in build_root_system(parse_cartan_type("A2")).all_roots:
        assert adjoint[root] == 1
    assert sum(adjoint.values()) == 8


def test_weight_multiplicities_weyl_invariant():
    for name, lam in [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 0))]:
        rs = _SYSTEMS[name]
        wm = weight_multiplicities(rs, lam)
        for w, m in wm.items():
            for v in weyl_orbit(rs, w):
                assert wm[v] == m


def test_dominant_multiplicities_all_positive():
    rs = _SYSTEMS["B3"]
    table = dominant_weight_multiplicities(rs, (1, 1, 0))
    assert table[(1, 1, 0)] == 1
    assert all(m >= 1 for m in table.values())


def test_tensor_with_trivial_factor():
    for name, lam in [("A2", (2, 1)), ("G2", (1, 1))]:
        rs = _SYSTEMS[name]
        zero = (0,) * rs.rank
        assert tensor_decompose(rs, lam, zero) == {lam: 1}
        assert tensor_decompose(rs, zero, lam) == {lam: 1}


def test_tensor_examples():
    a1 = _SYSTEMS["A1"]
    assert tensor_decompose(a1, (2,), (1,)) == {(3,): 1, (1,): 1}
    a2 = _SYSTEMS["A2"]
    assert tensor_decompose(a2, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}
    # 8 (x) 8 = 27 + 10 + 10bar + 8 + 8 + 1
    eights = tensor_decompose(a2, (1, 1), (1, 1))
    assert eights == {
        (2, 2): 1,
        (3, 0): 1,
        (0, 3): 1,
        (1, 1): 2,
        (0, 0): 1,
    }


def test_tensor_argument_symmetry():
    a2 = _SYSTEMS["A2"]
    assert tensor_decompose(a2, (2, 0), (0, 1)) == tensor_decompose(a2, (0, 1), (2, 0))


@pytest.mark.parametrize(
    "name,lam,mu",
    [
        ("A2", (2, 0), (0, 1)),
        ("A2", (1, 0), (0, 1)),
        ("B3", (1, 0, 1), (0, 1, 0)),
        ("G2", (1, 1), (2, 0)),
        ("D4", (0, 1, 0, 0), (1, 0, 1, 1)),
    ],
)
def test_tensor_argument_order_keeps_item_order(name, lam, mu):
    rs = _SYSTEMS[name]
    _cold_caches()
    first = list(tensor_decompose(rs, lam, mu).items())
    assert list(tensor_decompose(rs, mu, lam).items()) == first
    assert list(tensor_decompose(rs, lam, mu).items()) == first
    _cold_caches()
    assert list(tensor_decompose(rs, mu, lam).items()) == first


def test_mutating_results_leaves_caches_intact():
    rs = _SYSTEMS["B2"]
    _cold_caches()
    for call in (
        lambda: weight_multiplicities(rs, (1, 1)),
        lambda: tensor_decompose(rs, (1, 1), (0, 2)),
    ):
        expected = list(call().items())
        first = call()
        first[(9, 9)] = 1
        first[expected[0][0]] += 5
        assert list(call().items()) == expected
        call().clear()
        assert list(call().items()) == expected


def _count_calls(monkeypatch, module, name):
    """Record the calls made through ``module.name`` for the rest of the test."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_straightenings(monkeypatch):
    """Record every point that the ``block`` kernel, fetched by repring from
    ``_reflection_kernels``, receives for the rest of the test: the points
    that a decomposition straightens."""
    points = []
    kernels = repring._reflection_kernels

    def fetch(rs):
        orbit, straighten, block = kernels(rs)

        def counted(shifted, block_points):
            block_points = list(block_points)
            points.extend(block_points)
            return block(shifted, block_points)

        return orbit, straighten, counted

    monkeypatch.setattr(repring, "_reflection_kernels", fetch)
    return points


def test_repeated_calls_hit_the_caches(monkeypatch):
    rs = _SYSTEMS["B3"]
    lam, mu = (1, 0, 1), (0, 1, 0)
    _cold_caches()
    multisets = _count_calls(monkeypatch, repring, "weight_multiplicities")
    orbits = _count_calls(monkeypatch, repring, "weyl_orbit")
    straightened = _count_straightenings(monkeypatch)
    first = list(tensor_decompose(rs, lam, mu).items())
    assert multisets and orbits and straightened
    memo = repring._orbit_sums(rs)
    assert set(memo) == {(lam, dom) for dom in repring._dominant_table(rs, mu)}
    multisets.clear()
    orbits.clear()
    straightened.clear()
    # a repeat, in either argument order, builds no multiset, orbit, mask or
    # sum and computes no Weyl dimension: it reads them all from the caches
    dims = repring._weyl_dim.cache_info()
    masks = repring._orbit_walls.cache_info(), repring._module.cache_info()
    sums = dict(memo)
    for a, b in [(lam, mu), (mu, lam), (lam, mu)]:
        assert list(tensor_decompose(rs, a, b).items()) == first
    assert multisets == [] and orbits == [] and straightened == []
    assert repring._weyl_dim.cache_info().misses == dims.misses
    assert repring._orbit_walls.cache_info().misses == masks[0].misses
    assert repring._module.cache_info().misses == masks[1].misses
    assert memo == sums and all(memo[k] is sums[k] for k in sums)

    # a second product with the same smaller factor builds no new multiset
    # and no new masks: it is one hit on the cached module, and it adds one
    # orbit sum per dominant weight of that factor
    masks = repring._orbit_walls.cache_info(), repring._module.cache_info()
    assert masks[1].currsize == 1
    tensor_decompose(rs, (2, 0, 1), mu)
    assert multisets == []
    assert repring._orbit_walls.cache_info().misses == masks[0].misses
    assert repring._module.cache_info().misses == masks[1].misses
    assert repring._module.cache_info().hits == masks[1].hits + 1
    table = repring._dominant_table(rs, mu)
    assert len(memo) == 2 * len(table)
    # the module holds the cached orbit masks themselves, in table order
    keys, blocks = repring._module(rs, mu)
    assert [(dom, m) for dom, m, *_ in blocks] == list(table.items())
    assert all(
        walls is repring._orbit_walls(rs, dom)[1] for dom, _, _, _, walls in blocks
    )

    orbits.clear()
    weights = list(weight_multiplicities(rs, (2, 0, 0)).items())
    assert orbits
    orbits.clear()
    assert list(weight_multiplicities(rs, (2, 0, 0)).items()) == weights
    assert orbits == []


def test_module_does_not_alias_the_multiset_it_was_built_from(monkeypatch):
    rs = _SYSTEMS["B3"]
    mu = (0, 1, 0)
    _cold_caches()
    expected = list(tensor_decompose(rs, (2, 0, 1), mu).items())
    _cold_caches()
    built = []
    original = repring.weight_multiplicities

    def recorded(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(repring, "weight_multiplicities", recorded)
    tensor_decompose(rs, (1, 0, 1), mu)
    assert len(built) == 1
    built[0].clear()
    assert list(tensor_decompose(rs, (2, 0, 1), mu).items()) == expected
    assert len(built) == 1


# the orbit-sum memo's corpus: a seeded sample of the pairs of dominant
# weights of coordinate sum at most 2 on each type
MEMO_CORPUS = [("B3", 40), ("F4", 12), ("E6", 8), ("A2xB2", 40)]


def _memo_pairs(name, sample):
    rs = build_root_system(parse_cartan_type(name))
    weights = dominant_weights_up_to(rs, 2)
    pairs = list(itertools.combinations_with_replacement(weights, 2))
    return rs, weights, random.Random(name).sample(pairs, sample)


def _larger_first(rs, lam, mu):
    """The factors of V(lam) (x) V(mu), the larger (dimension, weight) first."""
    return sorted((lam, mu), key=lambda w: (weyl_dim(rs, w), w), reverse=True)


@pytest.mark.parametrize("name,sample", MEMO_CORPUS)
def test_warm_orbit_sums_give_the_cold_items(name, sample):
    # a product whose orbit sums were stored by other products, with the
    # same larger factor and a smaller factor that shares a dominant weight
    # with this one, gives the items that it gives with the memo empty
    rs, weights, pairs = _memo_pairs(name, sample)
    hits = 0
    for pair in pairs:
        big, small = _larger_first(rs, *pair)
        repring._orbit_sums.cache_clear()
        cold = list(tensor_decompose(rs, big, small).items())
        table = dominant_weight_multiplicities(rs, small)
        others = [
            w
            for w in weights
            if w != small
            and (weyl_dim(rs, w), w) < (weyl_dim(rs, big), big)
            and not table.keys().isdisjoint(dominant_weight_multiplicities(rs, w))
        ]
        repring._orbit_sums.cache_clear()
        for w in others[:3]:
            tensor_decompose(rs, big, w)
            tensor_decompose(rs, w, big)
        memo = repring._orbit_sums(rs)
        hits += sum((big, dom) in memo for dom in table)
        assert list(tensor_decompose(rs, big, small).items()) == cold
    assert hits


def _straighten_every_weight(rs, lam, mu):
    """The items of V(lam) (x) V(mu) with no memo and no wall masks: lam +
    rho + nu straightened by dominant_representative for every item nu of
    the smaller factor's weight multiset, in item order."""
    big, small = _larger_first(rs, lam, mu)
    acc = {}
    for nu, m in weight_multiplicities(rs, small).items():
        v = tuple(b + 1 + c for b, c in zip(big, nu))
        dom, sign, singular = dominant_representative(rs, v)
        if not singular:
            acc[dom] = acc.get(dom, 0) + sign * m
    return [(tuple(c - 1 for c in w), m) for w, m in acc.items() if m]


@pytest.mark.parametrize("name,sample", MEMO_CORPUS)
def test_tensor_items_match_straightening_every_weight(name, sample):
    # one sweep with the memo kept throughout, so most products read some
    # of their orbit sums from earlier ones
    rs, _, pairs = _memo_pairs(name, sample)
    _cold_caches()
    for lam, mu in pairs:
        expected = _straighten_every_weight(rs, lam, mu)
        assert list(tensor_decompose(rs, lam, mu).items()) == expected
        assert list(tensor_decompose(rs, mu, lam).items()) == expected


def test_cold_tensor_decompose_does_not_rebuild_the_root_system():
    rs = _SYSTEMS["B3"]
    _cold_caches()
    before = build_root_system.cache_info()
    tensor_decompose(rs, (1, 0, 1), (0, 1, 0))
    after = build_root_system.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_rebuilt_root_system_hits_the_same_entries():
    # the caches are keyed by root systems: a system built afresh, outside
    # build_root_system's cache, is equal, hashes the same and finds them
    rs = _SYSTEMS["B3"]
    _cold_caches()
    first = list(tensor_decompose(rs, (1, 0, 1), (0, 1, 0)).items())
    rebuilt = build_root_system.__wrapped__(rs.cartan_type)
    assert rebuilt is not rs and rebuilt == rs and hash(rebuilt) == hash(rs)
    before = repring._module.cache_info()
    assert list(tensor_decompose(rebuilt, (1, 0, 1), (0, 1, 0)).items()) == first
    after = repring._module.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    assert repring._orbit_sums(rebuilt) is repring._orbit_sums(rs)


def test_equal_rank_types_do_not_share_cache_entries():
    names = ["A2", "A1xA1", "B2", "C2", "G2"]

    def compute(rs):
        return (
            list(weight_multiplicities(rs, (1, 1)).items()),
            list(tensor_decompose(rs, (1, 0), (1, 1)).items()),
        )

    alone = {}
    for name in names:
        _cold_caches()
        alone[name] = compute(_SYSTEMS[name])
    assert dict(alone["A1xA1"][0]) == {(1, 1): 1, (-1, 1): 1, (1, -1): 1, (-1, -1): 1}
    assert dict(alone["A1xA1"][1]) == {(2, 1): 1, (0, 1): 1}
    assert dict(alone["A2"][1]) == {(2, 1): 1, (0, 2): 1, (1, 0): 1}
    _cold_caches()
    for name in names:
        assert compute(_SYSTEMS[name]) == alone[name]


def _convolve(x, y):
    out = {}
    for w1, m1 in x.items():
        for w2, m2 in y.items():
            key = tuple(a + b for a, b in zip(w1, w2))
            out[key] = out.get(key, 0) + m1 * m2
    return out


@pytest.mark.parametrize(
    "name,lam,mu",
    [
        ("A1", (3,), (2,)),
        ("A2", (1, 1), (2, 0)),
        ("B2", (1, 1), (0, 2)),
        ("C2", (2, 0), (1, 1)),
        ("G2", (1, 0), (0, 1)),
        ("A3", (1, 0, 1), (0, 1, 0)),
        ("A3", (0, 2, 0), (0, 1, 1)),
        ("D4", (0, 0, 1, 1), (0, 0, 0, 2)),
        ("F4", (0, 0, 0, 2), (0, 0, 0, 2)),
    ],
)
def test_tensor_matches_character_convolution(name, lam, mu):
    rs = _SYSTEMS[name]
    product = _convolve(
        weight_multiplicities(rs, lam), weight_multiplicities(rs, mu)
    )
    recombined = {}
    for child, mult in tensor_decompose(rs, lam, mu).items():
        for w, m in weight_multiplicities(rs, child).items():
            recombined[w] = recombined.get(w, 0) + mult * m
    assert product == recombined



def _lr_coefficients(lam, mu, rows):
    """The Littlewood-Richardson rule (Fulton, Young Tableaux, section 5):
    the coefficient of s_nu in s_lam * s_mu over partitions of at most
    ``rows`` rows counts the skew tableaux on nu/lam of content mu whose
    reading word (rows top to bottom, each right to left) is a lattice word.
    The tableaux grow one label at a time, label k as a horizontal strip
    ``add`` of mu_k boxes; in the reading word, the labels k through row r
    may not outnumber the labels k - 1 above row r."""
    out = {}

    def grow(k, shape, prev):
        if k == len(mu):
            nu = tuple(shape)
            out[nu] = out.get(nu, 0) + 1
            return

        def place(r, add, left, seen):
            if r == rows:
                if not left:
                    grow(k + 1, [a + b for a, b in zip(shape, add)], add)
                return
            room = left if r == 0 else min(left, shape[r - 1] - shape[r])
            above = sum(prev[:r]) if k else mu[k]
            for x in range(min(room, above - seen) + 1):
                place(r + 1, add + [x], left - x, seen + x)

        place(0, [], mu[k], 0)

    grow(0, list(lam) + [0] * (rows - len(lam)), None)
    return out


def _partition(w):
    """The partition of an A_n highest weight: column lengths read off the
    fundamental coordinates, n + 1 parts with the last zero."""
    return tuple(sum(w[i:]) for i in range(len(w))) + (0,)


def _sl_weight(nu):
    return tuple(a - b for a, b in zip(nu, nu[1:]))


def test_lr_rule_small_cases():
    # s_(1) s_(1) = s_(2) + s_(1,1); s_(2,1)^2 in three rows
    assert _lr_coefficients((1,), (1,), 2) == {(2, 0): 1, (1, 1): 1}
    square = _lr_coefficients((2, 1), (2, 1), 3)
    assert square[(3, 2, 1)] == 2
    assert square == {
        (4, 2, 0): 1, (4, 1, 1): 1, (3, 3, 0): 1, (3, 2, 1): 2,
        (2, 2, 2): 1,
    }


# the whole A5 pool of the tensor-cold benchmark, of which each seed draws
# two pairs in three: every pair of weights of coordinate sum 1 or 2, none
# of them near its dimension cap
def test_tensor_matches_littlewood_richardson_on_a5():
    rs = build_root_system(parse_cartan_type("A5"))
    weights = [w for w in dominant_weights_up_to(rs, 2) if sum(w)]
    assert max(weyl_dim(rs, w) for w in weights) < 1000
    for lam, mu in itertools.combinations_with_replacement(weights, 2):
        expected = {}
        for nu, c in _lr_coefficients(_partition(lam), _partition(mu), 6).items():
            w = _sl_weight(nu)
            expected[w] = expected.get(w, 0) + c
        assert tensor_decompose(rs, lam, mu) == expected, (lam, mu)

def test_tensor_dimension_conservation():
    for name, lam, mu in [
        ("B3", (1, 0, 1), (0, 1, 0)),
        ("D4", (0, 1, 0, 0), (1, 0, 1, 1)),
        ("F4", (0, 0, 0, 1), (1, 0, 0, 0)),
    ]:
        rs = _SYSTEMS[name]
        dec = tensor_decompose(rs, lam, mu)
        assert weyl_dim(rs, lam) * weyl_dim(rs, mu) == sum(
            m * weyl_dim(rs, w) for w, m in dec.items()
        )


def test_tensor_constituents_congruent_mod_roots():
    # every constituent lies over the same weight class as lam + mu
    for name, lam, mu in [("A2", (2, 1), (1, 1)), ("A3", (1, 0, 1), (0, 2, 0))]:
        rs = _SYSTEMS[name]
        data = weight_class_data(rs.cartan_type)
        target = data.class_of(tuple(a + b for a, b in zip(lam, mu)))
        for child in tensor_decompose(rs, lam, mu):
            assert data.class_of(child) == target


def test_clebsch_gordan_examples():
    assert clebsch_gordan_sl2(2, 1) == {(3,): 1, (1,): 1}
    assert clebsch_gordan_sl2(5, 0) == {(5,): 1}
    assert clebsch_gordan_sl2(1, 1) == {(2,): 1, (0,): 1}
    assert clebsch_gordan_sl2(3, 3) == {(6,): 1, (4,): 1, (2,): 1, (0,): 1}
    with pytest.raises(ValueError):
        clebsch_gordan_sl2(-1, 2)


@given(
    m=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_clebsch_gordan_matches_general_algorithm(m, n):
    a1 = _SYSTEMS["A1"]
    assert tensor_decompose(a1, (m,), (n,)) == clebsch_gordan_sl2(m, n)


def test_dominant_weights_up_to():
    a2 = _SYSTEMS["A2"]
    assert dominant_weights_up_to(a2, 2) == [
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 0),
        (1, 1),
        (2, 0),
    ]
    a1 = _SYSTEMS["A1"]
    assert dominant_weights_up_to(a1, 3) == [(0,), (1,), (2,), (3,)]
    assert dominant_weights_up_to(a2, 0) == [(0, 0)]
    with pytest.raises(ValueError):
        dominant_weights_up_to(a2, -1)


@pytest.mark.parametrize("rank", range(1, 7))
def test_dominant_weights_up_to_match_a_filtered_product(rank):
    # itertools.product runs in lexicographic order, so the filter keeps it
    rs = build_root_system(parse_cartan_type(f"A{rank}"))
    for bound in range(4):
        box = itertools.product(range(bound + 1), repeat=rank)
        assert dominant_weights_up_to(rs, bound) == [w for w in box if sum(w) <= bound]


@pytest.mark.parametrize("name, bound", [("A30", 1), ("E8", 3)])
def test_dominant_weights_up_to_count_the_sums(name, bound):
    # the weights of coordinate sum at most b in rank r: C(r + b, b) of them
    rs = build_root_system(parse_cartan_type(name))
    weights = dominant_weights_up_to(rs, bound)
    assert len(weights) == len(set(weights)) == math.comb(rs.rank + bound, bound)
    assert weights == sorted(weights)
    assert all(len(w) == rs.rank and min(w) >= 0 and sum(w) <= bound for w in weights)


@pytest.mark.parametrize(
    "name, lam",
    [
        ("G2", (1, 1)),
        ("B3", (1, 0, 1)),
        ("D4", (1, 0, 1, 1)),
        ("F4", (0, 0, 0, 2)),
        ("F4", (1, 0, 0, 1)),
    ],
)
def test_weyl_character_formula(name, lam):
    # an oracle that reads only the Cartan matrix: chi_lam * A_rho fixes
    # every multiplicity.  E6 (1,0,0,0,0,0) takes seconds, so it runs as
    # tests/weyl_character.py outside the suite
    assert character_defect(_SYSTEMS[name], lam) == {}


def test_dominant_weights_count():
    # stars and bars: C(rank + bound, rank)
    import math

    for name, bound in [("A3", 3), ("D4", 2), ("B3", 4)]:
        rs = _SYSTEMS[name]
        count = math.comb(rs.rank + bound, rs.rank)
        assert len(dominant_weights_up_to(rs, bound)) == count


def test_sorted_decomposition_order():
    dec = {(1,): 1, (3,): 1}
    assert sorted_decomposition(dec) == [((3,), 1), ((1,), 1)]


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_tensor_conservation_random_small(data):
    name = data.draw(st.sampled_from(["A1", "A2", "B2", "G2"]))
    rs = _SYSTEMS[name]
    lam = tuple(
        data.draw(st.integers(min_value=0, max_value=2)) for _ in range(rs.rank)
    )
    mu = tuple(
        data.draw(st.integers(min_value=0, max_value=2)) for _ in range(rs.rank)
    )
    dec = tensor_decompose(rs, lam, mu)
    assert weyl_dim(rs, lam) * weyl_dim(rs, mu) == sum(
        m * weyl_dim(rs, w) for w, m in dec.items()
    )
    assert all(m > 0 for m in dec.values())
