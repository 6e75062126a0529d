"""Integer lattice quotients: Smith and Hermite normal forms, the weight
lattice modulo the root lattice, and the subgroup lattice in between.

All matrices are lists of rows over Python integers; normal forms are
computed by exact elementary operations, tracking only the unimodular
transforms that the caller reads.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import prod

from .rootsys import (
    CartanType,
    RootSystem,
    Weight,
    _check_weight,
    _require_ints,
    cartan_matrix,
)

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
    length, or an entry whose type is not exactly int (bool and float
    included), raise ValueError.  Inside this module, ``_right=False``
    returns None for right and skips building it (columns x columns: one
    per relation of a cokernel); left and diag come from the same
    operations either way.

    The pivot is the first entry of least magnitude in row-major order
    over rows t onwards.  Those rows are zero left of column t, so a unit
    is found by C scans of whole rows; only when no row holds one are the
    magnitudes compared.  With no right transform, a unit pivot is
    cleared in one step after its row operations.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError(f"rows of unequal lengths {[len(row) for row in a]}")
    _require_int_entries(a)
    left = [[int(i == j) for j in range(rows)] for i in range(rows)]
    # with no rows to update, the column operations touch only ``a``
    right = [[int(i == j) for j in range(cols)] for i in range(cols)] if _right else []

    for t in range(min(rows, cols)):
        while True:
            i, j = _pivot(a, t)
            if i is None:
                break
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
            if not _right and (p == 1 or p == -1):
                # the column pass below would give the same, as both of
                # these hold: no right transform is tracked, and the row
                # operations left every other row zero in column t, so it
                # would change row t of ``a`` alone; and p = +-1 over int
                # entries, so each x - (x // p) * p is 0 and row t is p*e_t
                a[t] = [0] * cols
                a[t][t] = p
                break
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


def _pivot(a, t: int) -> tuple[int | None, int | None]:
    """(row, column) of the first entry of least magnitude, in row-major
    order, in rows t onwards of ``a``, or (None, None) when they are zero.

    Every entry of those rows left of column t is zero, so whole rows are
    scanned.  No nonzero entry is smaller than a unit: the first row that
    holds one, at its first unit, is the answer, found by ``in`` and
    ``operator.indexOf`` in C; magnitudes are compared only when no row
    holds one."""
    for i in range(t, len(a)):
        row = a[i]
        if 1 in row or -1 in row:
            return i, operator.indexOf(map(abs, row), 1)
    best, i = 0, None
    for k in range(t, len(a)):
        v = min(map(abs, filter(None, a[k])), default=0)
        if v and (not best or v < best):
            best, i = v, k
    if i is None:
        return None, None
    return i, operator.indexOf(map(abs, a[i]), best)


def _require_int_entries(rows) -> None:
    # x - (x // p) * p is 0 for a unit p only over ints, and 1.0 == True == 1
    # would pass the unit scan.  Counting a row's types runs in C, with no
    # bytecode per entry
    for row in rows:
        if list(map(type, row)).count(int) != len(row):
            bad = next(x for x in row if type(x) is not int)
            raise ValueError(f"matrix entry {bad!r} is not an int")


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group in invariant-factor form d1 | d2 | ... | dk.

    Elements are coordinate tuples modulo the factors; the empty factor
    list is the trivial group, whose only element is the empty tuple.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        for d in self.invariant_factors:
            if type(d) is not int or d < 2:
                raise ValueError(f"invariant factor {d!r} must be an int >= 2")
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
        factors = self.invariant_factors
        if len(vec) != len(factors):
            raise ValueError(f"element {tuple(vec)} does not match the factors {factors}")
        return tuple(map(operator.mod, vec, factors))

    def add(self, x, y) -> tuple[int, ...]:
        # map stops at its shortest input, so a short element would give a
        # short sum
        factors = self.invariant_factors
        if len(x) != len(factors) or len(y) != len(factors):
            raise ValueError(f"elements {x} and {y} do not match the factors {factors}")
        return tuple(map(operator.mod, map(operator.add, x, y), factors))


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
    projection taking fundamental-weight coordinates, ``rank`` of them, to
    quotient coordinates."""

    group: FiniteAbelianGroup
    torsion_rows: Matrix
    rank: int

    def class_of(self, w: Weight) -> tuple[int, ...]:
        if len(w) != self.rank:
            raise ValueError(f"weight {w} has length {len(w)}, expected {self.rank}")
        rows, factors = self.torsion_rows, self.group.invariant_factors
        return tuple([sum(map(operator.mul, row, w)) % d for row, d in zip(rows, factors)])


@functools.cache
def weight_class_data(t: CartanType) -> WeightClassData:
    factors, free, torsion_rows, _ = cokernel(cartan_matrix(t), t.rank)
    if free:
        raise AssertionError("Cartan matrix must be nonsingular")
    return WeightClassData(FiniteAbelianGroup(factors), torsion_rows, t.rank)


def fundamental_group(t: CartanType) -> FiniteAbelianGroup:
    """The weight lattice modulo the root lattice, in invariant-factor form."""
    return weight_class_data(t).group


def _insert_row(basis: list, v: list[int]) -> None:
    """Insert the row ``v`` into the echelon table ``basis``, one slot per
    column, the empty ones None: an empty slot takes the row, and at a full
    slot Euclid down that column leaves the gcd in the slot and the row
    walks on.  The rows in the table span the lattice of the rows inserted."""
    for col in range(len(basis)):
        if not v[col]:
            continue
        head = basis[col]
        if head is None:
            basis[col] = v
            return
        while v[col]:
            q = head[col] // v[col]
            head, v = v, [x - q * y for x, y in zip(head, v)]
        basis[col] = head


def hermite_basis(rows, k: int) -> Matrix:
    """Canonical upper-triangular basis of the full-rank lattice spanned by
    ``rows`` in Z^k: positive pivots on the diagonal, entries above each
    pivot reduced to [0, pivot).

    Each row is inserted into an echelon table by ``_insert_row``.  The
    Hermite form of a lattice is unique, so the route taken cannot change
    the result.  An entry whose type is not exactly int raises ValueError."""
    work = [list(r) for r in rows]
    for r in work:
        if len(r) != k:
            raise ValueError(f"row {tuple(r)} has length {len(r)}, expected {k}")
    _require_int_entries(work)
    basis = [None] * k
    for v in work:
        _insert_row(basis, v)
    if None in basis:
        raise ValueError("rows do not span a full-rank lattice")
    # make each pivot positive, then reduce the entries above it
    for j in range(k):
        if basis[j][j] < 0:
            basis[j] = [-x for x in basis[j]]
        for i in range(j):
            q = basis[i][j] // basis[j][j]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
    return tuple(tuple(r) for r in basis)


def _lattice_coordinates(basis: Matrix, vec) -> list[int] | None:
    """The integer x with x * basis == vec, solved by forward substitution
    down an upper-triangular basis, or None when ``vec`` is not in its
    lattice."""
    v = list(vec)
    x = []
    for j, row in enumerate(basis):
        p = row[j]
        if v[j] % p:
            return None
        q = v[j] // p
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        x.append(q)
    return x


def _relation_rows(group: FiniteAbelianGroup) -> list[tuple[int, ...]]:
    """The rows of diag(invariant factors), which span the lattice of
    vectors that reduce to zero in ``group``."""
    factors = group.invariant_factors
    return [
        tuple(d if i == j else 0 for i in range(len(factors)))
        for j, d in enumerate(factors)
    ]


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a finite abelian group, canonically presented.

    ``basis`` is the Hermite-form basis of the preimage lattice in Z^k
    (which contains the relation lattice diag(invariant factors)), so two
    equal subgroups always compare equal.  ``generators`` lists the
    nonzero basis vectors reduced modulo the invariant factors.  Any other
    basis or generator list raises ValueError, so that ``contains`` may
    solve by forward substitution.
    """

    ambient: FiniteAbelianGroup
    generators: tuple[tuple[int, ...], ...]
    basis: Matrix

    def __post_init__(self):
        k = len(self.ambient.invariant_factors)
        basis = self.basis
        if len(basis) != k or any(len(row) != k for row in basis):
            raise ValueError(f"basis {basis} is not {k} x {k}")
        for i, row in enumerate(basis):
            if row[i] < 1 or any(row[:i]) or not all(
                0 <= row[j] < basis[j][j] for j in range(i + 1, k)
            ):
                raise ValueError(f"basis {basis} is not in Hermite form")
        for rel in _relation_rows(self.ambient):
            if _lattice_coordinates(basis, rel) is None:
                raise ValueError(f"basis {basis} leaves out the relation {rel}")
        if self.generators != _reduced_rows(self.ambient, basis):
            raise ValueError(
                f"generators {self.generators} are not the reduced nonzero"
                f" rows of the basis {basis}"
            )

    @property
    def order(self) -> int:
        index = prod(self.basis[j][j] for j in range(len(self.basis)))
        return self.ambient.order // index

    def contains(self, element) -> bool:
        if len(element) != len(self.ambient.invariant_factors):
            raise ValueError("element length does not match the ambient group")
        return _lattice_coordinates(self.basis, element) is not None

    def contains_subgroup(self, other: "Subgroup") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("subgroups of different ambient groups")
        return all(self.contains(g) for g in other.generators)

    def elements(self) -> frozenset[tuple[int, ...]]:
        # the sums of c_j times basis row j, 0 <= c_j < n_j / d_j for the
        # invariant factor n_j and the pivot d_j, give each element once: at
        # the first j where two coefficient vectors differ, their sums differ
        # by a nonzero multiple of d_j below n_j
        group = self.ambient
        out = [(0,) * len(group.invariant_factors)]
        for j, row in enumerate(self.basis):
            steps = group.invariant_factors[j] // row[j]
            mults = [group.reduce([c * x for x in row]) for c in range(1, steps)]
            out += [group.add(x, m) for m in mults for x in out]
        return frozenset(out)


def _reduced_rows(group: FiniteAbelianGroup, basis: Matrix) -> Matrix:
    """The rows of ``basis`` reduced into ``group``, the zero ones left out."""
    return tuple(g for g in map(group.reduce, basis) if any(g))


def _subgroup_from_basis(group: FiniteAbelianGroup, basis: Matrix) -> Subgroup:
    return Subgroup(group, _reduced_rows(group, basis), basis)


def subgroup_from_generators(group: FiniteAbelianGroup, gens) -> Subgroup:
    """The subgroup generated by the given element coordinate vectors."""
    k = len(group.invariant_factors)
    rows = [*gens, *_relation_rows(group)]
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
    the relation lattice and Z^k, built from the last row up: the pivot of
    row i divides the i-th invariant factor, the entries right of it lie
    below the pivots of their columns, and the i-th relation, whose forward
    substitution reads rows i onwards only, must lie in the lattice of the
    rows built so far before any row above them is tried.
    """
    _require_ints(1, cap=cap)
    if group.order > cap:
        raise EnumerationCapError(
            f"group of order {group.order} exceeds the enumeration cap {cap}"
        )
    factors = group.invariant_factors
    k = len(factors)
    found = []

    def extend(rows: tuple[tuple[int, ...], ...]) -> None:
        i = k - len(rows)
        if i == 0:
            found.append(_subgroup_from_basis(group, rows))
            return
        i -= 1
        # the relation d_i e_i, cut to columns i onwards
        relation = (factors[i],) + (0,) * len(rows)
        tails = [row[i:] for row in rows]
        entries = [range(row[i + 1 + n]) for n, row in enumerate(rows)]
        for pivot in _divisors(factors[i]):
            for above in itertools.product(*entries):
                head = (pivot, *above)
                if _lattice_coordinates((head, *tails), relation) is not None:
                    extend(((0,) * i + head, *rows))

    extend(())
    found.sort(key=lambda s: (s.order, s.basis))
    return found


def subgroup_invariant_factors(s: Subgroup) -> FiniteAbelianGroup:
    """The abstract isomorphism type of a subgroup.

    Writes the ambient relations in the subgroup's lattice basis and reads
    the invariant factors through ``cokernel`` of that square integer
    matrix, whose Smith form has the same diagonal as its transpose's.
    """
    # the rows of diag(d) * basis^{-1}: each relation in the basis's coordinates
    rows = [_lattice_coordinates(s.basis, rel) for rel in _relation_rows(s.ambient)]
    if None in rows:
        raise AssertionError("relations do not lie in the subgroup lattice")
    return FiniteAbelianGroup(cokernel(rows, len(rows))[0])


@dataclass(frozen=True)
class Diagram:
    """A Cartan type together with a lattice between roots and weights,
    recorded as the corresponding subgroup of the weight-class group."""

    cartan_type: CartanType
    subgroup: Subgroup

    def __post_init__(self):
        group = fundamental_group(self.cartan_type)
        if self.subgroup.ambient != group:
            raise ValueError(
                f"subgroup of {self.subgroup.ambient} given for {self.cartan_type},"
                f" whose weight classes form {group}"
            )


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
