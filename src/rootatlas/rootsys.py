"""Reduced root systems for the classical and exceptional Cartan types.

Weights are integer coordinate tuples against the fundamental weights, so
the simple roots are the columns of the Cartan matrix stored here (entry
``[i][j]`` is the pairing of the j-th simple root with the i-th simple
coroot).  Node numbering follows Bourbaki.  Everything is exact: plain
Python integers, no floating point anywhere.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

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

_COMPONENT_RE = re.compile(r"^([A-Z])([0-9]+)$")


class CartanTypeError(ValueError):
    """Malformed or inadmissible Cartan type expression."""


@dataclass(frozen=True)
class CartanType:
    """An ordered product of irreducible Cartan types, e.g. B2xG2."""

    components: tuple[tuple[str, int], ...]

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
        m = _COMPONENT_RE.match(part)
        if not m:
            raise CartanTypeError(f"malformed component {part!r} in {text!r}")
        family, n = m.group(1), int(m.group(2))
        if family not in _ADMISSIBLE:
            raise CartanTypeError(f"unknown family {family!r} in component {part!r}")
        lo, hi = _ADMISSIBLE[family]
        if n < lo or (hi is not None and n > hi):
            raise CartanTypeError(f"inadmissible rank {n} for component {part!r}")
        components.append((family, n))
    return CartanType(tuple(components))


def _irreducible_cartan_columns(family: str, n: int) -> list[list[int]]:
    """Cartan matrix of one irreducible type, columns = simple roots."""
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i: int, j: int) -> None:
        m[i][j] = -1
        m[j][i] = -1

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            join(i, i + 1)
        if family == "B" and n >= 2:
            # alpha_n short: its column pairs -2 against the last coroot
            m[n - 1][n - 2] = -2
        if family == "C" and n >= 2:
            # alpha_n long: the (n-1)-st column pairs -2 against coroot n
            m[n - 2][n - 1] = -2
    elif family == "D":
        for i in range(n - 2):
            join(i, i + 1)
        join(n - 3, n - 1)
    elif family == "E":
        join(0, 2)
        join(1, 3)
        for i in range(2, n - 1):
            join(i, i + 1)
    elif family == "F":
        for i in range(3):
            join(i, i + 1)
        m[2][1] = -2
    elif family == "G":
        m[0][1] = -3
        m[1][0] = -1
    return m


def _irreducible_norms(family: str, n: int) -> list[int]:
    """Half square lengths of the simple roots, scaled to coprime integers."""
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
    """Block-diagonal Cartan matrix of ``t`` with columns as simple roots."""
    rank = t.rank
    m = [[0] * rank for _ in range(rank)]
    offset = 0
    for family, n in t.components:
        block = _irreducible_cartan_columns(family, n)
        for i in range(n):
            for j in range(n):
                m[offset + i][offset + j] = block[i][j]
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
    reflection_cols: tuple[tuple[tuple[int, int], ...], ...] = field(hash=False)

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


@functools.cache
def build_root_system(t: CartanType) -> RootSystem:
    """Construct the root system as the reflection closure of the simple roots."""
    m = cartan_matrix(t)
    rank = t.rank
    norms = simple_norms(t)
    columns = tuple(tuple(m[i][j] for i in range(rank)) for j in range(rank))

    def unit(i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(rank))

    # track (weight coords, simple-root coords, coroot coords, norm)
    seen: dict[Weight, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
    queue: list[Weight] = []
    for j in range(rank):
        seen[columns[j]] = (unit(j), unit(j), norms[j])
        queue.append(columns[j])
    while queue:
        root = queue.pop()
        simple, coroot, norm = seen[root]
        for i in range(rank):
            c = root[i]
            new_root = tuple(root[j] - c * m[j][i] for j in range(rank))
            if new_root in seen:
                continue
            new_simple = tuple(
                simple[j] - c if j == i else simple[j] for j in range(rank)
            )
            pair = sum(m[j][i] * coroot[j] for j in range(rank))
            new_coroot = tuple(
                coroot[j] - pair if j == i else coroot[j] for j in range(rank)
            )
            seen[new_root] = (new_simple, new_coroot, norm)
            queue.append(new_root)

    positive = []
    for root, (simple, coroot, norm) in seen.items():
        if all(c >= 0 for c in simple):
            positive.append(PositiveRootData(root, simple, coroot, norm))
    positive.sort(key=lambda p: (sum(p.simple_coords), p.simple_coords))

    refl_cols = tuple(
        tuple((i, m[i][j]) for i in range(rank) if m[i][j] != 0) for j in range(rank)
    )
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
    cols = rs.reflection_cols
    rank = rs.rank
    seen = {w}
    queue = [w]
    while queue:
        v = queue.pop()
        for i in range(rank):
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


def dominant_representative(rs: RootSystem, w: Weight) -> tuple[Weight, int, bool]:
    """Straighten ``w`` into the dominant chamber.

    Returns (dominant weight, sign, singular).  The sign is (-1)**k for the
    k reflections applied; when the orbit touches a wall (some coordinate
    hits zero) ``singular`` is set and the sign carries no meaning.
    """
    _check_weight(rs, w)
    cols = rs.reflection_cols
    rank = rs.rank
    v = list(w)
    sign = 1
    singular = False
    while True:
        neg = -1
        for j in range(rank):
            c = v[j]
            if c == 0:
                singular = True
            elif c < 0:
                neg = j
                break
        if neg < 0:
            return tuple(v), sign, singular
        c = v[neg]
        for j, a in cols[neg]:
            v[j] -= c * a
        sign = -sign


def _check_weight(rs: RootSystem, w: Weight) -> None:
    if len(w) != rs.rank:
        raise ValueError(f"weight {w} has length {len(w)}, expected {rs.rank}")


def _require_dominant(rs: RootSystem, w: Weight) -> None:
    _check_weight(rs, w)
    if not is_dominant(w):
        raise ValueError(f"weight {w} is not dominant")


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def parse_weight(text: str, rank: int) -> Weight:
    """Parse ``"1,0,2"`` (a bare integer is accepted at rank 1)."""
    parts = text.split(",")
    try:
        coords = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError(f"malformed weight {text!r}") from None
    if len(coords) != rank:
        raise ValueError(f"weight {text!r} has {len(coords)} coordinates, expected {rank}")
    return coords


def format_weight(w: Weight) -> str:
    return ",".join(str(c) for c in w)
