"""Reduced root systems for the classical and exceptional Cartan types.

Weights are integer coordinate tuples against the fundamental weights, so
the simple roots are the columns of the Cartan matrix stored here (entry
``[i][j]`` is the pairing of the j-th simple root with the i-th simple
coroot).  The matrix follows from the Dynkin diagram's bonds and the
simple roots' norms.  Node numbering follows Bourbaki.  Everything is
exact: plain Python integers, no floating point anywhere.
"""

from __future__ import annotations

import functools
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import partial, reduce
from itertools import repeat
from operator import mul, or_

Weight = tuple[int, ...]

# admissible ranks per family: (minimum, maximum or None for unbounded)
_ADMISSIBLE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_COMPONENT_RE = re.compile(r"([A-Z])([0-9]+)")
_COORDINATE_RE = re.compile(r"[+-]?[0-9]+")


class CartanTypeError(ValueError):
    """Malformed or inadmissible Cartan type expression."""


@dataclass(frozen=True)
class CartanType:
    """An ordered product of irreducible Cartan types, e.g. B2xG2.

    Raises CartanTypeError when empty, or on a component of unknown family
    or inadmissible rank.
    """

    components: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.components:
            raise CartanTypeError("empty Cartan type")
        for family, n in self.components:
            part = f"{family}{n}"
            if family not in _ADMISSIBLE:
                raise CartanTypeError(f"unknown family {family!r} in component {part!r}")
            lo, hi = _ADMISSIBLE[family]
            if type(n) is not int or n < lo or (hi is not None and n > hi):
                raise CartanTypeError(f"inadmissible rank {n} for component {part!r}")

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.components)

    @property
    def is_irreducible(self) -> bool:
        return len(self.components) == 1

    def __str__(self) -> str:
        return "x".join(f"{family}{n}" for family, n in self.components)


def parse_cartan_type(text: str) -> CartanType:
    """Parse expressions like ``"A3"`` or ``"B2xG2"`` (lowercase x joins).

    Raises CartanTypeError naming the offending component on bad input.
    """
    if not text:
        raise CartanTypeError("empty Cartan type")
    components = []
    for part in text.split("x"):
        m = _COMPONENT_RE.fullmatch(part)
        if not m:
            raise CartanTypeError(f"malformed component {part!r} in {text!r}")
        components.append((m.group(1), int(m.group(2))))
    return CartanType(tuple(components))


def _irreducible_bonds(family: str, n: int) -> list[tuple[int, int]]:
    """Edges of the Dynkin diagram of one irreducible type, 0-based."""
    if family == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if family == "E":
        return [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    return [(i, i + 1) for i in range(n - 1)]


def _irreducible_norms(family: str, n: int) -> list[int]:
    """Half square lengths of the simple roots, scaled to coprime integers:
    the one place that says which simple roots are long."""
    if family == "B":
        return [2] * (n - 1) + [1]
    if family == "C":
        return [1] * (n - 1) + [2]
    if family == "F":
        return [2, 2, 1, 1]
    if family == "G":
        return [1, 3]
    return [1] * n


def cartan_matrix(t: CartanType) -> tuple[tuple[int, ...], ...]:
    """Block-diagonal Cartan matrix of ``t`` with columns as simple roots.

    Entry ``[i][j]`` is 2(alpha_j, alpha_i)/(alpha_i, alpha_i).  With
    (alpha_i, alpha_i) = 2 norm_i, distinct simple roots joined by a bond
    have (alpha_i, alpha_j) = -max(norm_i, norm_j), and the others 0.
    """
    norms = simple_norms(t)
    rank = len(norms)
    m = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    offset = 0
    for family, n in t.components:
        for a, b in _irreducible_bonds(family, n):
            i, j = offset + a, offset + b
            inner = max(norms[i], norms[j])
            m[i][j] = -inner // norms[i]
            m[j][i] = -inner // norms[j]
        offset += n
    return tuple(tuple(row) for row in m)


def simple_norms(t: CartanType) -> tuple[int, ...]:
    norms: list[int] = []
    for family, n in t.components:
        norms.extend(_irreducible_norms(family, n))
    return tuple(norms)


@dataclass(frozen=True)
class PositiveRootData:
    """One positive root with its coordinates in three bases.

    ``root`` is in fundamental-weight coordinates, ``simple_coords`` over
    the simple roots, ``coroot`` expands the coroot over simple coroots.
    ``norm`` is (alpha, alpha)/2 in the same integer scaling as the simple
    norms, so pairings (v, alpha) = norm * sum(coroot_i * v_i) stay exact.
    """

    root: Weight
    simple_coords: tuple[int, ...]
    coroot: tuple[int, ...]
    norm: int


@dataclass(frozen=True, repr=False)
class RootSystem:
    cartan_type: CartanType
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    simple_roots: tuple[Weight, ...]
    positive_roots: frozenset[Weight]
    all_roots: frozenset[Weight]
    simple_norms: tuple[int, ...]
    positive_root_data: tuple[PositiveRootData, ...]
    # sparse reflection table: reflection_cols[i] lists the nonzero
    # (row, entry) pairs of column i of the Cartan matrix
    reflection_cols: tuple[tuple[tuple[int, int], ...], ...]

    # equal root systems have equal types, so this agrees with the
    # field-by-field __eq__; the tuple hashes in C, but this method runs as
    # Python bytecode on every lookup in the caches of repring and grading,
    # which are keyed by root systems
    def __hash__(self) -> int:
        return hash(self.cartan_type.components)

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


@functools.cache
def build_root_system(t: CartanType) -> RootSystem:
    """Construct the root system as the reflection closure of the simple roots."""
    m = cartan_matrix(t)
    rank = t.rank
    norms = simple_norms(t)
    columns = tuple(tuple(m[i][j] for i in range(rank)) for j in range(rank))
    refl_cols = tuple(
        tuple((i, m[i][j]) for i in range(rank) if m[i][j] != 0) for j in range(rank)
    )

    # track each root's coordinates over the simple roots; its norm and
    # coroot follow from them, so only the positive roots compute those.
    # A reflection at a zero coordinate fixes the root, so it is skipped
    seen: dict[Weight, tuple[int, ...]] = {
        columns[j]: tuple(int(i == j) for i in range(rank)) for j in range(rank)
    }
    queue = list(columns)
    while queue:
        root = queue.pop()
        for i, c in enumerate(root):
            if c == 0:
                continue
            out = list(root)
            for j, a in refl_cols[i]:
                out[j] -= c * a
            new_root = tuple(out)
            if new_root not in seen:
                simple = list(seen[root])
                simple[i] -= c
                seen[new_root] = tuple(simple)
                queue.append(new_root)

    positive = []
    for root, simple in seen.items():
        if min(simple) >= 0:
            # (alpha, alpha)/2 = sum_j s_j (alpha_j, alpha)/2 with
            # (alpha_j, alpha) = norm_j * root_j, and alpha^vee = alpha/norm
            # expands over the simple coroots as s_j * norm_j / norm
            norm = sum(map(mul, simple, map(mul, norms, root))) // 2
            coroot = tuple(s * n // norm for s, n in zip(simple, norms))
            positive.append(PositiveRootData(root, simple, coroot, norm))
    positive.sort(key=lambda p: (sum(p.simple_coords), p.simple_coords))

    return RootSystem(
        cartan_type=t,
        rank=rank,
        cartan_matrix=m,
        simple_roots=columns,
        positive_roots=frozenset(p.root for p in positive),
        all_roots=frozenset(seen),
        simple_norms=norms,
        positive_root_data=tuple(positive),
        reflection_cols=refl_cols,
    )


def rho(rs: RootSystem) -> Weight:
    """Half the sum of positive roots: the all-ones coordinate vector."""
    return (1,) * rs.rank


def simple_reflection(rs: RootSystem, i: int, w: Weight) -> Weight:
    """Reflect ``w`` in the wall of the i-th simple root (1-based index)."""
    if not 1 <= i <= rs.rank:
        raise IndexError(f"reflection index {i} out of range 1..{rs.rank}")
    _check_weight(rs, w)
    c = w[i - 1]
    out = list(w)
    for j, a in rs.reflection_cols[i - 1]:
        out[j] -= c * a
    return tuple(out)


def weyl_orbit(rs: RootSystem, w: Weight) -> frozenset[Weight]:
    """The full Weyl group orbit of ``w``, by closure under simple reflections."""
    _check_weight(rs, w)
    powers, steps = _orbit_keys(rs, sum(map(abs, w)))
    return _kernel(rs, "orbit")(w, sum(map(mul, w, powers)), *steps)


@functools.cache
def _orbit_keys(rs: RootSystem, size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The powers B**j of the odd base B that packs the orbit of a weight
    whose coordinates have absolute sum ``size``, and the key sum_j a_j B**j
    of each simple root alpha_i = (a_j): the step of the reflection s_i.
    The key of a point x is sum_j x_j B**j.

    Every coordinate of the orbit of w is <w, beta^vee> for a coroot beta^vee
    = +-sum c_k alpha_k^vee with 0 <= c_k <= M, M the largest coefficient of
    a positive coroot over the simple coroots (1 for A, 2 for B, C and D, 3
    for G2 and E6, 4 for F4 and E7, 6 for E8).  So its absolute value is at
    most M * size < B / 2 with B = 2 M size + 3, and the coordinates of a
    point are the balanced base-B digits of its key, which are unique:
    distinct points have distinct keys."""
    bound = max(max(p.coroot) for p in rs.positive_root_data)
    base = 2 * bound * size + 3
    powers = tuple(base**j for j in range(rs.rank))
    steps = tuple(sum(a * powers[j] for j, a in col) for col in rs.reflection_cols)
    return powers, steps


def dominant_representative(rs: RootSystem, w: Weight) -> tuple[Weight, int, bool]:
    """Straighten ``w`` into the dominant chamber.

    Returns (dominant weight, sign, singular).  The sign is (-1)**k for the
    k reflections applied, k being the number of positive roots whose
    coroot pairs negatively with ``w``; ``singular`` is set when a
    reflection fixes ``w``, that is when the dominant weight has a zero
    coordinate.
    """
    _check_weight(rs, w)
    dom, sign = _kernel(rs, "straighten")(w)
    return dom, sign, 0 in dom


@functools.cache
def _bonds(rs: RootSystem) -> tuple[tuple[int, int, int, int], ...]:
    """One (i, j, k_i, k_j) per positive root alpha_i + alpha_j of height
    two, one per bond of the Dynkin diagram, in ``positive_root_data``
    order: its coroot is k_i alpha_i^vee + k_j alpha_j^vee."""
    bonds = []
    for p in rs.positive_root_data:
        if sum(p.simple_coords) == 2:
            i, j = (n for n, s in enumerate(p.simple_coords) if s)
            bonds.append((i, j, p.coroot[i], p.coroot[j]))
    return tuple(bonds)


@functools.cache
def _wall_columns(rs: RootSystem) -> tuple[tuple[int, int, int, int], ...]:
    """The wall columns of ``rs``: one (i, j, k_i, k_j) per root whose wall
    the tensor layer tests, the pairing k_i v_i + k_j v_j of a weight v
    with its coroot k_i alpha_i^vee + k_j alpha_j^vee.  First (i, i, 1, 0),
    the coordinate v_i, per simple root, then the items of ``_bonds``.  A
    shifted weight (a dominant weight plus rho) pairs to at least the
    column's floor k_i + k_j with each."""
    return tuple((i, i, 1, 0) for i in range(rs.rank)) + _bonds(rs)


def _wall_pairings(rs: RootSystem, shifted: list[int]) -> list[int]:
    """The pairing of ``shifted`` with each wall column, in column order."""
    return [ki * shifted[i] + kj * shifted[j] for i, j, ki, kj in _wall_columns(rs)]


def _listed(items) -> str:
    # "x, y, " reads as a tuple on either side of an assignment, rank 1 too
    return "".join(f"{x}, " for x in items)


@functools.cache
def _kernel_sources(rs: RootSystem) -> dict[str, str]:
    """The sources of the four kernels of ``rs``, generated from
    ``reflection_cols`` and ``_wall_columns`` with every coefficient and
    floor inlined by the ``d`` format, which refuses anything but an int.
    ``_kernel`` compiles each one the first time it is asked for.

    ``orbit(w, key, step0, step1, ...)`` returns the frozenset
    ``weyl_orbit`` returns.  It keeps the traversal of a plain closure
    exactly: ``seen = {w}``, a stack popped from its end, the reflections
    s_i by ascending i with a zero coordinate skipped (s_i fixes it), and
    ``frozenset(seen)``.  A frozenset iterates in an order that depends on
    the order of insertion, and that order is the item order of
    ``weight_multiplicities`` and ``tensor_decompose``, so no other
    traversal may replace this one.

    Only the test "seen?" differs: it asks it of one packed int per point,
    kept on a second stack beside the point.  ``key`` is the key of w over
    the base B of ``_orbit_keys`` and ``step_i`` the key of alpha_i, so s_i
    takes the key k of a point v to k - v_i * step_i, one multiply-subtract,
    and the image tuple is built only when its key is new.  Distinct points
    of the orbit have distinct keys, so a key is new exactly when its point
    is, and ``seen`` gets the same tuples in the same order as the plain
    closure's.  B is odd: a set finds an int key's slot from its low bits,
    and every power of an odd base reaches them, while over a power of two
    they hold only the first coordinates, and keys that differ only further
    on collide there.

    ``straighten(w)`` takes any iterable of ``rank`` ints and returns the
    dominant weight in the Weyl orbit of ``w`` and the sign (-1)**k of the k
    simple reflections that reach it, reflecting at the first negative
    coordinate each time.  A reflection at a negative coordinate removes
    exactly one root from N(w) = {alpha > 0 : <w, alpha^vee> < 0}, and N is
    empty only at a dominant weight, so k = |N(w)| whichever negative
    coordinate is taken, singular ``w`` included: the end and the sign do
    not depend on the choice.

    ``block(shifted, points, walls=False)`` straightens ``shifted + n``
    for each point n of the iterable ``points``, in its order, by the same
    reflections, and returns the dict from each regular dominant weight
    reached, in order of first occurrence, to the sum of its signs.  A
    straightened weight is dominant, so its coordinates are at least 0, and
    ``v0 and v1 and ...`` holds exactly when none is 0: the weight is kept
    exactly when it is regular.  With ``walls`` true, block first skips
    each v = shifted + n with a wall column 0.  The reflection in that
    column's root fixes v, so v is singular, straightens to a singular
    weight and would be dropped anyway: the flag saves its straightening
    and changes nothing in the dict, its order or its sums.

    ``walls(orbit)`` returns the wall masks of the frozenset ``orbit``: per
    wall column, the map from each c with -c among the column's values, at
    or below minus its floor, to the int whose bit k is set when point k
    of ``orbit``, in its iteration order, has -c there.  ``_off_walls``
    reads them.  One pass over the orbit tests each column inline and, for
    each value kept, sets one 0/1 byte per position: a pass per column, or
    per value, costs more once the bond columns take many values.  A
    coordinate column is tested as it is, and a bond column computed once,
    in the test, by an assignment expression.  Each column's values map to
    byte strings through a ``defaultdict``, which makes a value's string at
    its first point and so keeps the values in order of first occurrence.
    """
    v = [f"v{j}" for j in range(rs.rank)]
    steps = [f"step{j}" for j in range(rs.rank)]
    orbit = [
        f"def orbit(w, key, {_listed(steps)}):",
        "    seen = {w}; queue = [w]; pop = queue.pop; push = queue.append; add = seen.add",
        "    keys = {key}; stack = [key]; kpop = stack.pop; kpush = stack.append; note = keys.add",
        "    while queue:",
        f"        {_listed(v)}= pop(); k = kpop()",
    ]
    # the straightening chain: s_i at the first negative coordinate v_i
    chain = []
    for i, col in enumerate(rs.reflection_cols):
        # s_i sets v_j to v_j - a v_i for each (j, a) of column i
        moved = {}
        for j, a in col:
            k = f"{abs(a):d}"
            step = f"v{i}" if k == "1" else f"{k} * v{i}"
            if j == i and a == 2:
                moved[j] = f"-v{i}"
            else:
                moved[j] = f"v{j} {'+' if a < 0 else '-'} {step}"
        image = _listed(moved.get(j, x) for j, x in enumerate(v))
        orbit += [
            f"        if v{i}:",
            f"            q = k - v{i} * step{i}",
            f"            if q not in keys: note(q); t = ({image}); add(t); push(t); kpush(q)",
        ]
        lhs, rhs = _listed(v[j] for j in moved), _listed(moved.values())
        chain.append(f"{'el' if i else ''}if v{i} < 0: {lhs}= {rhs}")
    orbit.append("    return frozenset(seen)")
    straighten = [
        "def straighten(w):",
        f"    {_listed(v)}= w",
        "    sign = 1",
        "    while True:",
        *(f"        {line}" for line in chain),
        f"        else: return ({_listed(v)}), sign",
        "        sign = -sign",
    ]
    # each column as k_i * v_i + k_j * v_j, a coefficient 1 and a term 0 left out
    columns = [
        " + ".join(f"{k:d} * v{n}".removeprefix("1 * ") for n, k in ((i, ki), (j, kj)) if k)
        for i, j, ki, kj in _wall_columns(rs)
    ]
    s = [f"s{j}" for j in range(rs.rank)]
    n = [f"n{j}" for j in range(rs.rank)]
    block = [
        "def block(shifted, points, walls=False):",
        f"    {_listed(s)}= shifted",
        "    sums = {}; get = sums.get",
        f"    for {_listed(n)}in points:",
        *map("        {} = {} + {}".format, v, s, n),
        f"        if walls and not ({' and '.join(columns)}): continue",
        "        sign = 1",
        "        while True:",
        *(f"            {line}" for line in chain),
        "            else: break",
        "            sign = -sign",
        f"        if {' and '.join(v)}:",
        f"            t = ({_listed(v)})",
        "            sums[t] = get(t, 0) + sign",
        "    return sums",
    ]
    flags = [f"f{c}" for c in range(len(columns))]
    walls = [
        "def walls(orbit):",
        "    row = partial(bytearray, len(orbit))",
        f"    {_listed(flags)}= {_listed(['defaultdict(row)'] * len(flags))}",
        f"    for k, ({_listed(v)}) in enumerate(orbit):",
    ]
    for f, x, (_, _, ki, kj) in zip(flags, columns, _wall_columns(rs)):
        x, test = (x, x) if x.isidentifier() else ("x", f"(x := {x})")
        walls.append(f"        if {test} <= -{ki + kj:d}: {f}[{x}][k] = 1")
    walls += [
        "    return tuple(",
        "        {-c: int(b.translate(binary)[::-1], 2) for c, b in f.items()}",
        f"        for f in ({_listed(flags)})",
        "    )",
    ]
    kernels = {"orbit": orbit, "straighten": straighten, "block": block, "walls": walls}
    return {name: "\n".join(lines) for name, lines in kernels.items()}


@functools.cache
def _kernel(rs: RootSystem, name: str):
    """The kernel ``name`` of ``rs`` (see ``_kernel_sources``), compiled at
    its first use: ``weights`` never needs ``block`` or ``walls``."""
    namespace = {"binary": _TO_BINARY, "defaultdict": defaultdict, "partial": partial}
    exec(_kernel_sources(rs)[name], namespace)
    return namespace[name]


# a 0/1 byte string reversed and read as binary, so that byte k is bit k
_TO_BINARY = bytes.maketrans(b"\x00\x01", b"01")
# binary digits, lowest bit first, as the selector of the bits left clear
_CLEAR = bytes.maketrans(b"01", b"\x01\x00")


def _off_walls(walls: tuple[dict[int, int], ...], pairings: list[int], size: int) -> bytes:
    """One byte per point of an orbit of ``size`` points with wall masks
    ``walls``: 1 when no wall column of the point is minus the matching
    entry of ``pairings``, else 0.

    With ``pairings`` from ``_wall_pairings``, the orbit's points on a wall
    of the shifted weight are the OR over the columns of one mask each."""
    wall = reduce(or_, map(dict.get, walls, pairings, repeat(0)), 0)
    return format(wall, f"0{size}b")[::-1].encode().translate(_CLEAR)


_INT_ONLY = frozenset({int})


def _check_weight(rs: RootSystem, w: Weight) -> None:
    # the caches hash weights and order them as tuples, which a list cannot be
    if type(w) is not tuple:
        raise ValueError(f"weight {w!r} is not a tuple")
    if len(w) != rs.rank:
        raise ValueError(f"weight {w} has length {len(w)}, expected {rs.rank}")
    # the caches key weights by value, and 1.0 == True == 1: a float or bool
    # coordinate would hand its own keys to later integer calls.  The set of
    # types is built in C, so the check runs no bytecode per coordinate
    if set(map(type, w)) != _INT_ONLY:
        raise ValueError(f"weight {w} has a coordinate that is not an int")


def _require_ints(low: int, **counts: int) -> None:
    # True == 1 == 1.0 hash alike, so a bool or float would pass for an int
    for name, value in counts.items():
        if type(value) is not int:
            raise ValueError(f"{name} {value!r} must be an int")
        if value < low:
            raise ValueError(f"{name} {value} must be at least {low}")


def _require_dominant(rs: RootSystem, w: Weight) -> None:
    _check_weight(rs, w)
    if min(w) < 0:
        raise ValueError(f"weight {w} is not dominant")


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def parse_weight(text: str, rank: int) -> Weight:
    """Parse ``"1,0,2"`` (a bare integer is accepted at rank 1)."""
    parts = [p.strip() for p in text.split(",")]
    if not all(map(_COORDINATE_RE.fullmatch, parts)):
        raise ValueError(f"malformed weight {text!r}")
    coords = tuple(map(int, parts))
    if len(coords) != rank:
        raise ValueError(f"weight {text!r} has {len(coords)} coordinates, expected {rank}")
    return coords


def format_weight(w: Weight) -> str:
    return ",".join(str(c) for c in w)
