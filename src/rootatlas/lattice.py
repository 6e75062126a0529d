"""Integer lattice quotients: Smith and Hermite normal forms, the weight
lattice modulo the root lattice, and the subgroup lattice in between.

All matrices are lists of rows over Python integers; normal forms are
computed by exact elementary operations, tracking only the unimodular
transforms that the caller reads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod

from .rootsys import CartanType, RootSystem, Weight, _check_weight, cartan_matrix

Matrix = tuple[tuple[int, ...], ...]

# the largest weight-class group whose subgroups are enumerated by default
DEFAULT_ENUMERATION_CAP = 64


class EnumerationCapError(RuntimeError):
    """Subgroup enumeration refused: the ambient group exceeds the cap."""


def smith_normal_form(m, *, _right=True) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (left, diag, right) with left*m*right == diag, both transforms
    unimodular, and the diagonal nonnegative with each entry dividing the
    next.  Works for any shape, including empty matrices; rows of unequal
    length raise ValueError.  Inside this module, ``_right=False`` returns
    None for right and skips building it (columns x columns: one per
    relation of a cokernel); left and diag come from the same operations
    either way.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError(f"rows of unequal lengths {[len(row) for row in a]}")
    left = [[int(i == j) for j in range(rows)] for i in range(rows)]
    # with no rows to update, the column operations touch only ``a``
    right = [[int(i == j) for j in range(cols)] for i in range(cols)] if _right else []

    for t in range(min(rows, cols)):
        while True:
            # the first entry of least magnitude in row-major order; no
            # nonzero entry is smaller than a unit, so the search stops there
            best, i = 0, t
            for k in range(t, rows):
                v = min(map(abs, filter(None, a[k][t:])), default=0)
                if v and (not best or v < best):
                    best, i = v, k
                    if v == 1:
                        break
            if not best:
                break
            j = t + list(map(abs, a[i][t:])).index(best)
            a[t], a[i] = a[i], a[t]
            left[t], left[i] = left[i], left[t]
            if j != t:
                for row in itertools.chain(a, right):
                    row[t], row[j] = row[j], row[t]
            # clear the pivot column with multiples of row t, then the pivot
            # row with multiples of column t; neither pass changes its source
            p, top, top_left = a[t][t], a[t], left[t]
            for k in range(t + 1, rows):
                if q := a[k][t] // p:
                    a[k] = [x - q * y for x, y in zip(a[k], top)]
                    left[k] = [x - q * y for x, y in zip(left[k], top_left)]
            qs = [0] * (t + 1) + [x // p for x in top[t + 1:]]
            for mat in (a, right):
                for k, row in enumerate(mat):
                    if c := row[t]:
                        mat[k] = [x - q * c for x, q in zip(row, qs)]
            if any(row[t] for row in a[t + 1:]) or any(a[t][t + 1:]):
                continue
            # enforce divisibility of the remaining submatrix by the pivot
            strays = (k for k in range(t + 1, rows) if any(x % p for x in a[k][t + 1:]))
            stray = next(strays, None) if abs(p) > 1 else None
            if stray is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[stray])]
            left[t] = [x + y for x, y in zip(left[t], left[stray])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]

    return (
        tuple(tuple(r) for r in left),
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in right) if _right else None,
    )


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group in invariant-factor form d1 | d2 | ... | dk.

    Elements are coordinate tuples modulo the factors; the empty factor
    list is the trivial group, whose only element is the empty tuple.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for d, e in zip(self.invariant_factors, self.invariant_factors[1:]):
            if e % d:
                raise ValueError(
                    f"invariant factors {self.invariant_factors} violate divisibility"
                )

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def elements(self):
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def reduce(self, vec) -> tuple[int, ...]:
        return tuple(v % d for v, d in zip(vec, self.invariant_factors))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple(
            (a + b) % d for a, b, d in zip(x, y, self.invariant_factors)
        )


def cokernel(m, width: int) -> tuple[tuple[int, ...], int, Matrix, Matrix]:
    """Structure of Z^width modulo the column span of ``m`` (width x k).

    Returns (invariant factors > 1, free rank, torsion rows, free rows):
    the listed rows of the left Smith transform project a vector onto its
    torsion coordinates (to be taken mod the factors) and free coordinates.
    An empty ``m`` means no relations; any other must have ``width`` rows.
    """
    m = m or [()] * width
    if len(m) != width:
        raise ValueError(f"relation matrix has {len(m)} rows, expected {width}")
    left, diag, _ = smith_normal_form(m, _right=False)
    factors = []
    torsion_rows = []
    free_rows = []
    for i, row in enumerate(diag):
        d = row[i] if i < len(row) else 0
        if d == 0:
            free_rows.append(left[i])
        elif d > 1:
            factors.append(d)
            torsion_rows.append(left[i])
    return tuple(factors), len(free_rows), tuple(torsion_rows), tuple(free_rows)


@dataclass(frozen=True)
class WeightClassData:
    """The quotient of the weight lattice by the root lattice, with the
    projection taking fundamental-weight coordinates to quotient coordinates."""

    group: FiniteAbelianGroup
    torsion_rows: Matrix

    def class_of(self, w: Weight) -> tuple[int, ...]:
        return tuple(
            sum(r * c for r, c in zip(row, w)) % d
            for row, d in zip(self.torsion_rows, self.group.invariant_factors)
        )


@functools.cache
def weight_class_data(t: CartanType) -> WeightClassData:
    factors, free, torsion_rows, _ = cokernel(cartan_matrix(t), t.rank)
    if free:
        raise AssertionError("Cartan matrix must be nonsingular")
    return WeightClassData(FiniteAbelianGroup(factors), torsion_rows)


def fundamental_group(t: CartanType) -> FiniteAbelianGroup:
    """The weight lattice modulo the root lattice, in invariant-factor form."""
    return weight_class_data(t).group


def hermite_basis(rows, k: int) -> Matrix:
    """Canonical upper-triangular basis of the full-rank lattice spanned by
    ``rows`` in Z^k: positive pivots on the diagonal, entries above each
    pivot reduced to [0, pivot)."""
    work = [list(r) for r in rows]
    basis = []
    for col in range(k):
        pool = [r for r in work if r[col] != 0]
        if not pool:
            raise ValueError("rows do not span a full-rank lattice")
        # gcd-combine everything with a nonzero entry in this column
        while len(pool) > 1:
            pool.sort(key=lambda r: abs(r[col]))
            head = pool[0]
            rest = []
            for r in pool[1:]:
                q = r[col] // head[col]
                new = [x - q * y for x, y in zip(r, head)]
                if new[col]:
                    rest.append(new)
                elif any(new):
                    work.append(new)
            pool = [head] + rest
        pivot = pool[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        work = [r for r in work if r[col] == 0 and any(r)]
        basis.append(pivot)
    # reduce entries above each pivot
    for j in range(k):
        for i in range(j):
            q = basis[i][j] // basis[j][j]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
    return tuple(tuple(r) for r in basis)


def _lattice_contains(basis: Matrix, vec) -> bool:
    """Membership of an integer vector in the lattice given by an
    upper-triangular basis."""
    v = list(vec)
    for j in range(len(basis)):
        if v[j] % basis[j][j]:
            return False
        q = v[j] // basis[j][j]
        if q:
            v = [x - q * y for x, y in zip(v, basis[j])]
    return not any(v)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a finite abelian group, canonically presented.

    ``basis`` is the Hermite-form basis of the preimage lattice in Z^k
    (which contains the relation lattice diag(invariant factors)), so two
    equal subgroups always compare equal.  ``generators`` lists the
    nonzero basis vectors reduced modulo the invariant factors.
    """

    ambient: FiniteAbelianGroup
    generators: tuple[tuple[int, ...], ...]
    basis: Matrix

    @property
    def order(self) -> int:
        index = prod(self.basis[j][j] for j in range(len(self.basis)))
        return self.ambient.order // index

    def contains(self, element) -> bool:
        if len(element) != len(self.ambient.invariant_factors):
            raise ValueError("element length does not match the ambient group")
        return _lattice_contains(self.basis, element)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("subgroups of different ambient groups")
        return all(self.contains(g) for g in other.generators)

    def elements(self) -> frozenset[tuple[int, ...]]:
        seen = {(0,) * len(self.ambient.invariant_factors)}
        queue = list(seen)
        while queue:
            x = queue.pop()
            for g in self.generators:
                y = self.ambient.add(x, g)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)


def _subgroup_from_basis(group: FiniteAbelianGroup, basis: Matrix) -> Subgroup:
    gens = []
    for row in basis:
        g = group.reduce(row)
        if any(g):
            gens.append(g)
    return Subgroup(group, tuple(gens), basis)


def subgroup_from_generators(group: FiniteAbelianGroup, gens) -> Subgroup:
    """The subgroup generated by the given element coordinate vectors."""
    k = len(group.invariant_factors)
    rows = []
    for g in gens:
        if len(g) != k:
            raise ValueError(f"generator {g} has length {len(g)}, expected {k}")
        rows.append(list(g))
    for j, d in enumerate(group.invariant_factors):
        rows.append([d if i == j else 0 for i in range(k)])
    return _subgroup_from_basis(group, hermite_basis(rows, k))


def trivial_subgroup(group: FiniteAbelianGroup) -> Subgroup:
    return subgroup_from_generators(group, ())


def full_subgroup(group: FiniteAbelianGroup) -> Subgroup:
    k = len(group.invariant_factors)
    basis = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    return _subgroup_from_basis(group, basis)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_subgroups(
    group: FiniteAbelianGroup, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Subgroup]:
    """All subgroups, sorted by (order, canonical basis).

    Candidates are the Hermite-form bases of full-rank lattices between
    the relation lattice and Z^k; the divisibility constraint on the
    diagonal is forced by containment of the relations, the rest is an
    explicit membership filter.
    """
    if group.order > cap:
        raise EnumerationCapError(
            f"group of order {group.order} exceeds the enumeration cap {cap}"
        )
    k = len(group.invariant_factors)
    column_choices = []
    for j, d in enumerate(group.invariant_factors):
        choices = []
        for pivot in _divisors(d):
            for above in itertools.product(range(pivot), repeat=j):
                choices.append(above + (pivot,))
        column_choices.append(choices)

    found = []
    relations = [
        tuple(d if i == j else 0 for i in range(k))
        for j, d in enumerate(group.invariant_factors)
    ]
    for cols in itertools.product(*column_choices):
        basis = tuple(
            tuple(cols[j][i] if i <= j else 0 for j in range(k)) for i in range(k)
        )
        if all(_lattice_contains(basis, rel) for rel in relations):
            found.append(_subgroup_from_basis(group, basis))
    found.sort(key=lambda s: (s.order, s.basis))
    return found


def subgroup_invariant_factors(s: Subgroup) -> FiniteAbelianGroup:
    """The abstract isomorphism type of a subgroup.

    Writes the ambient relations in the subgroup's lattice basis and reads
    the invariant factors from the Smith form of that integer matrix.
    """
    k = len(s.ambient.invariant_factors)
    basis = s.basis
    # rows x of diag(d) * basis^{-1}, solving x * basis = d * e_j by exact
    # integer forward substitution down the upper-triangular basis
    rows = []
    for j, d in enumerate(s.ambient.invariant_factors):
        row = []
        for i in range(k):
            acc = (d if i == j else 0) - sum(row[l] * basis[l][i] for l in range(i))
            q, r = divmod(acc, basis[i][i])
            if r:
                raise AssertionError("relations do not lie in the subgroup lattice")
            row.append(q)
        rows.append(row)
    _, diag, _ = smith_normal_form(rows, _right=False)
    factors = tuple(diag[i][i] for i in range(k) if diag[i][i] > 1)
    return FiniteAbelianGroup(factors)


@dataclass(frozen=True)
class Diagram:
    """A Cartan type together with a lattice between roots and weights,
    recorded as the corresponding subgroup of the weight-class group."""

    cartan_type: CartanType
    subgroup: Subgroup


def diagrams(t: CartanType, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Diagram]:
    """All diagrams for ``t``, largest subgroup (simply connected) first,
    enumerated once per (type, cap); each call returns a fresh list."""
    return list(_diagrams(t, cap))


# the diagrams in order, each mapped to the position label_diagram reads
@functools.cache
def _diagrams(t: CartanType, cap: int) -> dict[Diagram, int]:
    subs = enumerate_subgroups(fundamental_group(t), cap)
    subs.sort(key=lambda s: (-s.order, s.basis))
    return {Diagram(t, s): i for i, s in enumerate(subs)}


def simply_connected_diagram(t: CartanType) -> Diagram:
    return Diagram(t, full_subgroup(fundamental_group(t)))


def adjoint_diagram(t: CartanType) -> Diagram:
    return Diagram(t, trivial_subgroup(fundamental_group(t)))


def center_char_group(d: Diagram) -> FiniteAbelianGroup:
    """The character group of the center: the subgroup as an abstract group."""
    return subgroup_invariant_factors(d.subgroup)


def weight_in_lattice(rs: RootSystem, w: Weight, d: Diagram) -> bool:
    """Whether ``w`` lies in the character lattice picked out by ``d``."""
    if rs.cartan_type != d.cartan_type:
        raise ValueError(
            f"weight of type {rs.cartan_type} tested against diagram of type {d.cartan_type}"
        )
    _check_weight(rs, w)
    cls = weight_class_data(rs.cartan_type).class_of(w)
    return d.subgroup.contains(cls)


@dataclass(frozen=True)
class ComponentBlock:
    """One irreducible factor with its 1-based coordinate range."""

    cartan_type: CartanType
    start: int
    stop: int


def irreducible_components(t: CartanType) -> list[ComponentBlock]:
    blocks = []
    offset = 0
    for family, n in t.components:
        blocks.append(
            ComponentBlock(CartanType(((family, n),)), offset + 1, offset + n)
        )
        offset += n
    return blocks


def isogeny_order(d1: Diagram, d2: Diagram) -> bool:
    """True when d1 covers d2 in the isogeny direction: the character
    lattice of d1 contains that of d2 (simply connected sits on top)."""
    if d1.cartan_type != d2.cartan_type:
        raise ValueError("diagrams of different Cartan types are incomparable")
    return d1.subgroup.contains_subgroup(d2.subgroup)
