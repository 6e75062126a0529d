"""Root system construction and Weyl group action."""

import hashlib
import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootatlas import rootsys
from rootatlas.classify import admissible_irreducible_types
from rootatlas.repring import dominant_weights_up_to
from rootatlas.rootsys import (
    CartanType,
    CartanTypeError,
    build_root_system,
    cartan_matrix,
    dominant_representative,
    format_weight,
    parse_cartan_type,
    parse_weight,
    rho,
    simple_norms,
    simple_reflection,
    weyl_orbit,
)
from time_limit import time_limit


def test_parse_single_component():
    t = parse_cartan_type("A3")
    assert t.components == (("A", 3),)
    assert t.rank == 3
    assert t.is_irreducible
    assert str(t) == "A3"


def test_parse_product():
    t = parse_cartan_type("B2xG2")
    assert t.components == (("B", 2), ("G", 2))
    assert t.rank == 4
    assert not t.is_irreducible
    assert str(t) == "B2xG2"


@pytest.mark.parametrize(
    "bad",
    ["", "D3", "H4", "A0", "E9", "E5", "F3", "G3", "B1", "C1", "b2", "A1x", "xA1", "A1xx A2", "A1 A2", "A-1",
     "A1\n", "A1\nxB2"],
)
def test_parse_rejects(bad):
    with pytest.raises(CartanTypeError):
        parse_cartan_type(bad)


@pytest.mark.parametrize(
    "components",
    [
        (),
        (("Z", 3),),
        (("B", 1),),
        (("D", 3),),
        (("A", 0),),
        (("A", 1), ("E", 9)),
        (("B", 2.0),),
        (("A", True),),
    ],
)
def test_direct_construction_rejects(components):
    with pytest.raises(CartanTypeError):
        CartanType(components)


def test_parse_error_names_component():
    with pytest.raises(CartanTypeError, match="D3"):
        parse_cartan_type("A1xD3")


def test_cartan_matrix_a2():
    assert cartan_matrix(parse_cartan_type("A2")) == ((2, -1), (-1, 2))


def test_cartan_matrix_b2_c2_transposed():
    b2 = cartan_matrix(parse_cartan_type("B2"))
    c2 = cartan_matrix(parse_cartan_type("C2"))
    assert b2 == ((2, -1), (-2, 2))
    assert c2 == ((2, -2), (-1, 2))


def test_cartan_matrix_product_blocks():
    m = cartan_matrix(parse_cartan_type("A1xA2"))
    assert m == ((2, 0, 0), (0, 2, -1), (0, -1, 2))


def test_symmetrizability():
    # norms[i] * m[i][j] == norms[j] * m[j][i] for every type
    for name in ["A4", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2", "B3xC3"]:
        t = parse_cartan_type(name)
        m = cartan_matrix(t)
        d = simple_norms(t)
        n = t.rank
        for i in range(n):
            for j in range(n):
                assert d[i] * m[i][j] == d[j] * m[j][i], (name, i, j)


# number of roots per irreducible type
ROOT_COUNTS = {
    "A1": 2,
    "A2": 6,
    "A3": 12,
    "A4": 20,
    "B2": 8,
    "B3": 18,
    "B4": 32,
    "C2": 8,
    "C3": 18,
    "C4": 32,
    "D4": 24,
    "D5": 40,
    "G2": 12,
    "F4": 48,
    "E6": 72,
    "E7": 126,
    "E8": 240,
}


@pytest.mark.parametrize("name,count", sorted(ROOT_COUNTS.items()))
def test_root_counts(name, count):
    rs = build_root_system(parse_cartan_type(name))
    assert len(rs.all_roots) == count
    assert len(rs.positive_roots) == count // 2


def test_root_counts_product():
    rs = build_root_system(parse_cartan_type("B2xG2"))
    assert len(rs.all_roots) == 8 + 12
    assert len(rs.positive_roots) == 10


def test_a1_roots():
    rs = build_root_system(parse_cartan_type("A1"))
    assert rs.all_roots == {(2,), (-2,)}
    assert rs.positive_roots == {(2,)}


def test_roots_closed_under_negation():
    for name in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = build_root_system(parse_cartan_type(name))
        for r in rs.all_roots:
            assert tuple(-c for c in r) in rs.all_roots
        assert len(rs.positive_roots) * 2 == len(rs.all_roots)


def test_simple_roots_are_cartan_columns():
    rs = build_root_system(parse_cartan_type("G2"))
    m = rs.cartan_matrix
    for j, root in enumerate(rs.simple_roots):
        assert root == tuple(m[i][j] for i in range(rs.rank))
        assert root in rs.positive_roots


def test_positive_root_data_consistency():
    # weight coordinates must re-derive from the simple-root expansion,
    # and coroot pairings against fundamental weights must be integral
    for name in ["A2", "B3", "C3", "D4", "G2", "F4"]:
        rs = build_root_system(parse_cartan_type(name))
        m = rs.cartan_matrix
        n = rs.rank
        for p in rs.positive_root_data:
            recomputed = tuple(
                sum(m[i][j] * p.simple_coords[j] for j in range(n)) for i in range(n)
            )
            assert recomputed == p.root
            # <alpha, alpha^vee> = 2
            assert sum(k * c for k, c in zip(p.coroot, p.root)) == 2
            # norm * coroot pairing equals the inner product via simple norms
            for w in rs.simple_roots:
                lhs = p.norm * sum(k * c for k, c in zip(p.coroot, w))
                rhs = sum(
                    p.simple_coords[j] * rs.simple_norms[j] * w[j] for j in range(n)
                )
                assert lhs == rhs


# the root data of these types, pinned by one sha256: each positive root's
# data in order, the sorted root sets, the simple roots and the sparse
# reflection table
ROOT_DATA_TYPES = [
    "A1", "A4", "B2", "B5", "C2", "C5", "D4", "D6", "E6", "E7", "E8", "F4", "G2",
    "A1xB2xG2",
]
ROOT_DATA_SHA256 = "07a5bda7f736ec44cb05bc15b3b132888202b7cf503c549e8b3911684e46bce3"


def test_root_data_match_pinned_digest():
    digest = hashlib.sha256()
    for name in ROOT_DATA_TYPES:
        rs = build_root_system(parse_cartan_type(name))
        data = [(p.root, p.simple_coords, p.coroot, p.norm) for p in rs.positive_root_data]
        digest.update(repr((
            data,
            sorted(rs.all_roots),
            sorted(rs.positive_roots),
            rs.simple_roots,
            rs.reflection_cols,
        )).encode())
    assert digest.hexdigest() == ROOT_DATA_SHA256


# the Cartan matrix and simple norms of every admissible irreducible type up
# to rank 12 and of three products, pinned by one sha256
CARTAN_TYPES = admissible_irreducible_types(12) + [
    parse_cartan_type(name) for name in ["A1xB2xG2", "F4xC3", "E6xD5xA2"]
]
CARTAN_SHA256 = "6f667adc4e696d889820ee4345bcd1773db7b8dbc5d5e5798bb2cd98666c75df"


def test_cartan_data_match_pinned_digest():
    digest = hashlib.sha256()
    for t in CARTAN_TYPES:
        digest.update(repr((str(t), cartan_matrix(t), simple_norms(t))).encode())
    assert digest.hexdigest() == CARTAN_SHA256


def test_rho_is_half_sum_of_positive_roots():
    for name in ["A1", "A3", "B2", "C3", "D4", "G2", "F4", "B2xG2"]:
        rs = build_root_system(parse_cartan_type(name))
        total = [0] * rs.rank
        for r in rs.positive_roots:
            for i, c in enumerate(r):
                total[i] += c
        assert tuple(total) == tuple(2 * c for c in rho(rs))


def test_simple_reflection_examples():
    a1 = build_root_system(parse_cartan_type("A1"))
    assert simple_reflection(a1, 1, (3,)) == (-3,)
    assert simple_reflection(a1, 1, (0,)) == (0,)
    a2 = build_root_system(parse_cartan_type("A2"))
    assert simple_reflection(a2, 1, (1, 0)) == (-1, 1)


def test_simple_reflection_index_errors():
    rs = build_root_system(parse_cartan_type("A2"))
    with pytest.raises(IndexError):
        simple_reflection(rs, 0, (1, 0))
    with pytest.raises(IndexError):
        simple_reflection(rs, 3, (1, 0))


def test_weight_length_checked():
    rs = build_root_system(parse_cartan_type("A2"))
    with pytest.raises(ValueError):
        simple_reflection(rs, 1, (1, 0, 0))
    with pytest.raises(ValueError):
        weyl_orbit(rs, (1,))


_SYSTEMS = {
    name: build_root_system(parse_cartan_type(name))
    for name in ["A1", "A2", "B2", "G2", "A3", "B3", "A1xB2"]
}


@given(
    name=st.sampled_from(sorted(_SYSTEMS)),
    data=st.data(),
)
def test_simple_reflection_involution(name, data):
    rs = _SYSTEMS[name]
    w = tuple(
        data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(rs.rank)
    )
    i = data.draw(st.integers(min_value=1, max_value=rs.rank))
    assert simple_reflection(rs, i, simple_reflection(rs, i, w)) == w


@given(
    name=st.sampled_from(["A1", "A2", "B2", "G2", "A3"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_orbit_has_unique_dominant_element(name, data):
    rs = _SYSTEMS[name]
    w = tuple(
        data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(rs.rank)
    )
    orbit = weyl_orbit(rs, w)
    dominants = [v for v in orbit if all(c >= 0 for c in v)]
    assert len(dominants) == 1
    rep, sign, singular = dominant_representative(rs, w)
    assert rep == dominants[0]
    assert w in orbit
    assert sign in (-1, 1)
    if not singular:
        assert all(c > 0 for c in rep)
    # singular means the orbit sits on a wall: some coordinate of the
    # dominant representative vanishes (the origin is the extreme case)
    assert singular == (0 in rep)


def test_orbit_sizes():
    a2 = _SYSTEMS["A2"]
    assert len(weyl_orbit(a2, (0, 0))) == 1
    assert len(weyl_orbit(a2, (1, 0))) == 3
    assert len(weyl_orbit(a2, (1, 1))) == 6  # regular: full Weyl group size
    g2 = _SYSTEMS["G2"]
    assert len(weyl_orbit(g2, (1, 1))) == 12
    b2 = _SYSTEMS["B2"]
    assert len(weyl_orbit(b2, (1, 1))) == 8


def test_dominant_representative_examples():
    a1 = _SYSTEMS["A1"]
    assert dominant_representative(a1, (-3,)) == ((3,), -1, False)
    assert dominant_representative(a1, (3,)) == ((3,), 1, False)
    rep, _, singular = dominant_representative(a1, (0,))
    assert rep == (0,) and singular


# dominant_representative on seeded weights with coordinates in -4..4,
# pinned by one sha256; 15030 of the 27000 are singular
STRAIGHTEN_TYPES = ["A2", "B2", "G2", "A3", "C3", "D4", "F4", "E6", "A1xB2"]
STRAIGHTEN_SHA256 = "693ab853fbf8ac613c44b9dd310bab78af2ae152dfc2d5496b4ec2475be179f6"


def _seeded_weights(name, count):
    rng = random.Random(name)
    rank = build_root_system(parse_cartan_type(name)).rank
    return [tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(count)]


def test_dominant_representative_matches_pinned_digest():
    digest = hashlib.sha256()
    for name in STRAIGHTEN_TYPES:
        rs = build_root_system(parse_cartan_type(name))
        results = [dominant_representative(rs, w) for w in _seeded_weights(name, 3000)]
        digest.update(repr(results).encode())
    assert digest.hexdigest() == STRAIGHTEN_SHA256


@pytest.mark.parametrize("name", STRAIGHTEN_TYPES)
def test_dominant_representative_sign_counts_negative_coroots(name):
    # an oracle that reflects nothing: the sign is the parity of the
    # positive roots whose coroot pairs negatively with w, and w is
    # singular exactly when some coroot pairs to zero with it
    rs = build_root_system(parse_cartan_type(name))
    for w in _seeded_weights(name, 500):
        pairings = [sum(map(mul, p.coroot, w)) for p in rs.positive_root_data]
        _, sign, singular = dominant_representative(rs, w)
        assert sign == (-1) ** sum(x < 0 for x in pairings)
        assert singular == (0 in pairings)


def test_orbit_respects_product_blocks():
    rs = _SYSTEMS["A1xB2"]
    orbit = weyl_orbit(rs, (1, 1, 1))
    a1 = weyl_orbit(_SYSTEMS["A1"], (1,))
    b2 = weyl_orbit(_SYSTEMS["B2"], (1, 1))
    assert orbit == frozenset(
        (x,) + y for (x,) in a1 for y in b2
    )


def test_weight_parse_format():
    assert parse_weight("1,0,2", 3) == (1, 0, 2)
    assert parse_weight("2", 1) == (2,)
    assert parse_weight("-1, 3", 2) == (-1, 3)
    assert parse_weight(" +1 ,\t-0, 07 ", 3) == (1, 0, 7)
    assert format_weight((1, 0, 2)) == "1,0,2"
    with pytest.raises(ValueError):
        parse_weight("1,0", 3)
    with pytest.raises(ValueError):
        parse_weight("1,a", 2)


@pytest.mark.parametrize("bad", ["1_0,2", "\u0663", "1,\u0661", "--1,0", "+-1"])
def test_weight_parse_accepts_only_ascii_integers(bad):
    # int() alone would read "1_0" as 10 and the Arabic-Indic digit as 3
    with pytest.raises(ValueError, match="malformed weight"):
        parse_weight(bad, len(bad.split(",")))


def test_cartan_type_hashable_and_ordered_components():
    t1 = parse_cartan_type("A1xB2")
    t2 = CartanType((("A", 1), ("B", 2)))
    assert t1 == t2 and hash(t1) == hash(t2)
    assert str(parse_cartan_type("B2xA1")) == "B2xA1"  # order preserved


def _reference_orbit(rs, w):
    """The orbit closure as a plain loop over the sparse reflection table:
    the traversal the generated kernel must keep, insertion order included."""
    cols = rs.reflection_cols
    seen = {w}
    queue = [w]
    while queue:
        v = queue.pop()
        for i in range(rs.rank):
            c = v[i]
            if c == 0:
                continue
            out = list(v)
            for j, a in cols[i]:
                out[j] -= c * a
            t = tuple(out)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return frozenset(seen)


def _reference_straighten(rs, w):
    """Straightening by a plain loop that reflects at the least coordinate."""
    v = list(w)
    sign = 1
    while (c := min(v)) < 0:
        for j, a in rs.reflection_cols[v.index(c)]:
            v[j] -= c * a
        sign = -sign
    return tuple(v), sign


def _reference_block(rs, shifted, points):
    """The signed count of the regular dominant weights that ``shifted + n``
    straightens to, n over ``points``, in order of first occurrence."""
    sums = {}
    for n in points:
        v, sign = _reference_straighten(rs, [s + c for s, c in zip(shifted, n)])
        if 0 not in v:
            sums[v] = sums.get(v, 0) + sign
    return sums


def _reference_walls(rs, orbit):
    """The wall masks of the ``walls`` kernel of ``rootsys._kernel``, by one
    pass per column: the rank coordinates, then k_i v_i + k_j v_j per bond,
    with the floors 1 and k_i + k_j."""
    cols = list(zip(*orbit))
    floors = [1] * rs.rank
    for i, j, ki, kj in rootsys._bonds(rs):
        cols.append(tuple(ki * a + kj * b for a, b in zip(cols[i], cols[j])))
        floors.append(ki + kj)
    walls = []
    for col, floor in zip(cols, floors):
        flags = {}
        for k, c in enumerate(col):
            if c <= -floor:
                flags.setdefault(c, bytearray(len(col)))[k] = 1
        walls.append({-c: int(b[::-1].hex()[1::2], 2) for c, b in flags.items()})
    return walls


def _orbit_size(rs, w):
    """|W w| for dominant w, as |W| / |W_w| by the product over the positive
    roots of (height + 1) / height (the Poincare polynomial at 1): only the
    roots that pair nonzero with w are left after the division."""
    num = den = 1
    for p in rs.positive_root_data:
        if sum(map(mul, p.coroot, w)):
            height = sum(p.simple_coords)
            num *= height + 1
            den *= height
    size, r = divmod(num, den)
    assert r == 0
    return size


# every admissible irreducible type of rank <= 8, four products and three
# types of rank 30, each with the largest coordinate sum of its weights;
# an orbit larger than ORBIT_CAP is left out, so that the plain loops stay
# fast on E8 and at rank 30
KERNEL_CASES = [(str(t), 2) for t in admissible_irreducible_types(8)] + [
    ("A1xA1", 2), ("A1xB2xG2", 2), ("G2xA2", 2), ("A2xB2", 2),
    ("A1xG2", 2), ("B2xG2", 2),
    ("A30", 1), ("B30", 1), ("D30", 1),
]
ORBIT_CAP = 2000

# more weights for the orbit closure, at the edges of its packed keys:
# negative and non-dominant weights, a coordinate of 10**6, the zero weight,
# products whose factors have different largest coroot coefficients M, and
# E8, whose M is 6.  Over a base that leaves M out, two points of G2's
# (1, 2) orbit share a key, and the closure loses them
EDGE_WEIGHTS = {
    "A1": [(0,), (-3,), (10**6,)],
    "G2": [(1, 2), (-1, -2), (-(10**6), 1)],
    "A1xG2": [(0, 1, 2), (-5, -1, -2), (10**6, 0, 0), (1, -(10**6), 3)],
    "B2xG2": [(0, 0, 0, 0), (0, 0, 1, 2), (1, -2, -1, -2), (0, 10**6, 0, -1)],
    "E8": [(0,) * 8, (0,) * 7 + (-1,), (0,) * 6 + (1, -2), (0,) * 6 + (-(10**6), 10**6)],
}


@pytest.mark.parametrize("name, bound", KERNEL_CASES)
def test_generated_kernels_match_the_plain_loops(name, bound):
    rs = build_root_system(parse_cartan_type(name))
    rng = random.Random(name)
    # each kept dominant weight and a seeded point of its orbit, most often
    # not dominant, with the orbits the plain loop gives from each
    expected = {}
    for lam in dominant_weights_up_to(rs, bound):
        size = _orbit_size(rs, lam)
        if size > ORBIT_CAP:
            continue
        expected[lam] = _reference_orbit(rs, lam)
        assert len(expected[lam]) == size
        w = rng.choice(sorted(expected[lam]))
        expected[w] = _reference_orbit(rs, w)
    for w in EDGE_WEIGHTS.get(name, ()):
        expected[w] = _reference_orbit(rs, w)
    assert expected
    seeded = [tuple(rng.randint(-4, 4) for _ in range(rs.rank)) for _ in range(100)]
    weights = list(expected) + seeded
    # a wrong kernel may never stop, and a wrong orbit may grow without
    # end: the straightenings run first, under a time limit
    with time_limit(30):
        for w in weights:
            dom, sign, singular = dominant_representative(rs, w)
            assert (dom, sign) == _reference_straighten(rs, w)
            assert singular == (0 in dom)
            pairings = [sum(map(mul, p.coroot, w)) for p in rs.positive_root_data]
            assert sign == (-1) ** sum(x < 0 for x in pairings)
        for w, orbit in expected.items():
            # the same frozenset, iterated in the same order
            assert list(weyl_orbit(rs, w)) == list(orbit)
            # the same masks, each column's values in the same order
            walls = rootsys._kernel(rs, "walls")(weyl_orbit(rs, w))
            assert [list(d.items()) for d in walls] == [
                list(d.items()) for d in _reference_walls(rs, list(orbit))
            ]
        # the block sums of each orbit and of the seeded points, shifted by
        # a seeded dominant weight plus rho; on A1, A2 and G2 also an orbit
        # and shifts with coordinates past 255
        block = rootsys._kernel(rs, "block")
        orbits = [list(orbit) for orbit in expected.values()]
        orbits.append(seeded)
        tops = [bound]
        if name in ("A1", "A2", "G2"):
            big = tuple(rng.randint(256, 999) for _ in range(rs.rank))
            orbits.append(list(_reference_orbit(rs, big)))
            tops.append(999)
        # with the inline wall test, block skips the points on a simple or
        # height-two wall before straightening them: they are singular, so
        # the items stay the same, in the same order
        for top in tops:
            for points in orbits:
                shifted = [rng.randint(0, top) + 1 for _ in range(rs.rank)]
                expected_items = list(_reference_block(rs, shifted, points).items())
                assert list(block(shifted, iter(points)).items()) == expected_items
                got = block(shifted, iter(points), True)
                assert list(got.items()) == expected_items


@pytest.mark.parametrize(
    "column", [((0, 2), (1, -2.0)), ((0, 2), (1, -1.0)), ((0, 2.0), (1, -2))]
)
def test_kernel_sources_inline_only_int_coefficients(column):
    # every coefficient is formatted with "d", so a non-int one never
    # reaches the generated source: straighten and block share the chain
    # of reflections that refuses it
    rs = build_root_system(parse_cartan_type("B2"))
    cols = (column,) + rs.reflection_cols[1:]
    bad = rootsys.RootSystem(**{**vars(rs), "reflection_cols": cols})
    with pytest.raises(ValueError):
        rootsys._kernel_sources.__wrapped__(bad)


@pytest.mark.parametrize("bond", [(0, 1, 2.0, 1), (0, 1, 1.0, 1), (0, 1, 1, 1.0)])
def test_block_wall_test_inlines_only_int_coefficients(monkeypatch, bond):
    # block's inline wall test formats each column's coefficients with "d"
    # too; the same column with int coefficients reaches block's source
    rs = build_root_system(parse_cartan_type("B2"))
    monkeypatch.setattr(rootsys, "_wall_columns", lambda _: (bond,))
    with pytest.raises(ValueError):
        rootsys._kernel_sources.__wrapped__(rs)
    monkeypatch.setattr(rootsys, "_wall_columns", lambda _: (tuple(map(int, bond)),))
    term = "2 * v0 + v1" if bond[2] == 2 else "v0 + v1"
    assert f"if walls and not ({term}): continue" in (
        rootsys._kernel_sources.__wrapped__(rs)["block"]
    )


@pytest.mark.parametrize("bond", [(0, 1, 2.0, 1), (0, 1, 1.0, 1), (0, 1, 1, 1.0)])
def test_wall_kernel_inlines_only_int_coefficients(monkeypatch, bond):
    # the walls kernel formats each column's coefficients and floor with "d"
    # too; the same column with int coefficients reaches its source
    rs = build_root_system(parse_cartan_type("B2"))
    monkeypatch.setattr(rootsys, "_wall_columns", lambda _: (bond,))
    with pytest.raises(ValueError):
        rootsys._kernel_sources.__wrapped__(rs)
    monkeypatch.setattr(rootsys, "_wall_columns", lambda _: (tuple(map(int, bond)),))
    term, floor = ("2 * v0 + v1", 3) if bond[2] == 2 else ("v0 + v1", 2)
    assert f"if (x := {term}) <= -{floor}: f0[x][k] = 1" in (
        rootsys._kernel_sources.__wrapped__(rs)["walls"]
    )
