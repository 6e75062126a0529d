"""The universal grading group of the highest-weight tensor ring.

Dominant weights generate a free abelian group subject to one relation per
tensor constituent: a constituent is declared congruent to the sum of the
two factors.  The finite quotient this presents is compared against the
weight-class group, and pairs of weights can be certified equivalent by
exhibiting a tensor word containing both.  The word search builds its
letters and their classes in P/Q once per (root system, bound), in the
``_letters`` cache keyed by that pair.

A presentation keeps only the relations whose constituent is a generator,
and ``generate_relations`` drops every other constituent before it builds
a relation.  Every constituent of V(lambda) (x) V(mu) lies in
lambda + mu + Q (Humphreys, Introduction to Lie Algebras and
Representation Theory, 21.3), so the relations kept still present P/Q.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import neg

from .lattice import FiniteAbelianGroup, cokernel, weight_class_data
from .repring import dominant_weights_up_to, tensor_decompose
from .rootsys import (
    RootSystem,
    Weight,
    _check_weight,
    _require_dominant,
    _require_ints,
)


@dataclass(frozen=True)
class TensorRelation:
    """child occurs in left (x) right, hence child = left + right in any
    grading of the tensor ring."""

    child: Weight
    left: Weight
    right: Weight


def generate_relations(
    rs: RootSystem, bound: int, *, _children=None
) -> list[TensorRelation]:
    """Relations from all unordered pairs of dominant weights with
    coordinate sum at most ``bound``, one per distinct constituent.

    ``_children``, a set of weights, keeps only the relations whose
    constituent lies in it, dropped before any relation is built; the
    relations kept are those of the full list, in the same order.  It is
    a keyword here rather than a helper of its own so that
    ``grading_presentation`` still runs this layer."""
    weights = dominant_weights_up_to(rs, bound)
    relations = []
    for lam, mu in itertools.combinations_with_replacement(weights, 2):
        constituents = tensor_decompose(rs, lam, mu)
        if _children is not None:
            constituents = filter(_children.__contains__, constituents)
        for child in sorted(constituents, reverse=True):
            relations.append(TensorRelation(child, lam, mu))
    return relations


def restrict_relations(
    relations, generators
) -> list[TensorRelation]:
    """Drop relations whose constituent falls outside the generator set.

    The library no longer calls this: ``grading_presentation`` drops those
    constituents inside ``generate_relations``."""
    gens = set(generators)
    return [
        r
        for r in relations
        if r.child in gens and r.left in gens and r.right in gens
    ]


@dataclass(frozen=True)
class GradingPresentation:
    """A presented quotient of the free group on the generators.

    ``class_map`` sends each generator to its quotient coordinates:
    torsion coordinates (mod the invariant factors) followed by free
    coordinates.  For a tensor ring of a semisimple algebra the free rank
    is zero; it is reported rather than assumed.
    """

    generators: tuple[Weight, ...]
    relations: tuple[TensorRelation, ...]
    quotient: FiniteAbelianGroup
    free_rank: int
    class_map: dict[Weight, tuple[int, ...]]


def universal_grading_group(relations, generators) -> GradingPresentation:
    """Quotient of the free abelian group on ``generators`` by
    child - left - right for every relation."""
    gens: list[Weight] = list(dict.fromkeys(generators))
    index = {g: i for i, g in enumerate(gens)}

    # columns of the relation matrix span the subgroup being quotiented
    width = len(gens)
    matrix = [[0] * len(relations) for _ in range(width)]
    for j, r in enumerate(relations):
        ends = (r.child, r.left, r.right)
        rows = tuple(map(index.get, ends))
        if None in rows:
            raise ValueError(
                f"relation weight {ends[rows.index(None)]} is not a generator"
            )
        child, left, right = rows
        matrix[child][j] += 1
        matrix[left][j] -= 1
        matrix[right][j] -= 1

    factors, free_rank, torsion_rows, free_rows = cokernel(matrix, width)
    quotient = FiniteAbelianGroup(factors)
    class_map = {}
    for g in gens:
        i = index[g]
        torsion = tuple(
            row[i] % d for row, d in zip(torsion_rows, factors)
        )
        free = tuple(row[i] for row in free_rows)
        class_map[g] = torsion + free
    return GradingPresentation(
        generators=tuple(gens),
        relations=tuple(relations),
        quotient=quotient,
        free_rank=free_rank,
        class_map=class_map,
    )


def grading_presentation(rs: RootSystem, bound: int) -> GradingPresentation:
    """The truncated universal grading group at the given bound."""
    gens = dominant_weights_up_to(rs, bound)
    # both factors of every product are generators, so a relation belongs
    # to the presentation when its constituent is one
    rels = generate_relations(rs, bound, _children=frozenset(gens))
    return universal_grading_group(rels, gens)


def grading_class(rs: RootSystem, w: Weight) -> tuple[int, ...]:
    """The image of ``w`` in the weight-class group, in invariant-factor
    coordinates."""
    _check_weight(rs, w)
    return weight_class_data(rs.cartan_type).class_of(w)


def matches_fundamental_group(pres: GradingPresentation, rs: RootSystem) -> bool:
    """Whether the presented quotient is the weight-class group, with the
    class map realizing reduction modulo the root lattice.

    Quotient coordinates are only canonical up to a group automorphism, so
    ``class_map[g] -> class_of(g)`` is extended additively by a walk over
    the quotient from zero; it matches when the extension never gives an
    element two images, reaches every element and is injective.
    """
    data = weight_class_data(rs.cartan_type)
    group = data.group
    if pres.free_rank != 0 or pres.quotient != group:
        return False
    steps = {(pres.class_map[g], data.class_of(g)) for g in pres.generators}
    zero = (0,) * len(group.invariant_factors)
    image = {zero: zero}
    queue = [zero]
    for x in queue:
        for s, t in steps:
            y, z = group.add(x, s), group.add(image[x], t)
            if y not in image:
                image[y] = z
                queue.append(y)
            elif image[y] != z:
                return False
    return len(image) == group.order and len(set(image.values())) == group.order


@functools.cache
def _word_constituents(rs: RootSystem, word: tuple) -> frozenset[Weight]:
    if len(word) == 1:
        return frozenset(word)
    last = word[-1]
    out = set()
    for nu in _word_constituents(rs, word[:-1]):
        out.update(tensor_decompose(rs, nu, last))
    return frozenset(out)


@functools.cache
def _letters(
    rs: RootSystem, bound: int
) -> tuple[dict[Weight, tuple[int, ...]], dict[tuple[int, ...], list[Weight]]]:
    """The letters of a word search, ``dominant_weights_up_to(rs, bound)``
    in its lexicographic order: each mapped to minus its class in P/Q (the
    class of its negative), and the letters of each class."""
    class_of = weight_class_data(rs.cartan_type).class_of
    letters = dominant_weights_up_to(rs, bound)
    minus = {w: class_of(tuple(map(neg, w))) for w in letters}
    by_class: dict[tuple[int, ...], list[Weight]] = {}
    for w in letters:
        by_class.setdefault(class_of(w), []).append(w)
    return minus, by_class


def tensor_equivalent(
    rs: RootSystem,
    a: Weight,
    b: Weight,
    bound: int = 3,
    depth: int = 4,
) -> tuple[Weight, ...] | None:
    """Search for a tensor word containing both ``a`` and ``b`` as
    constituents; factors are dominant weights with coordinate sum at most
    ``bound``, words have at most ``depth`` letters, shorter words first.

    Returns the certificate word, or None when the search space is
    exhausted (which does not certify inequivalence).

    Every constituent of a word lies in the class of P/Q that sums its
    letters' classes, so a pair in different classes returns None at once
    and a word whose letters sum to another class is never decomposed.
    The letters and their classes are built once per (root system, bound)
    and kept in the ``_letters`` cache; ``bound`` and ``depth`` must be
    ints, since the cache keys by value and 2.0 == 2.
    """
    for w in (a, b):
        _require_dominant(rs, w)
    # one inline test on the path of every query; _require_ints runs only
    # to raise, so a bad limit reads as it does everywhere else
    if type(bound) is not int or type(depth) is not int or bound < 0 or depth < 1:
        _require_ints(0, bound=bound)
        _require_ints(1, depth=depth)
    if a == b:
        return (a,)
    data = weight_class_data(rs.cartan_type)
    target = data.class_of(a)
    if data.class_of(b) != target:
        return None
    minus, by_class = _letters(rs, bound)
    add = data.group.add
    for length in range(2, depth + 1):
        # each prefix's classes are subtracted from the target once; its
        # words end in the letters of the class left over, from the
        # prefix's last letter on, in the order combinations_with_replacement
        # gives the words of this length
        for prefix in itertools.combinations_with_replacement(minus, length - 1):
            need = functools.reduce(add, map(minus.__getitem__, prefix), target)
            lasts = by_class.get(need, ())
            for last in lasts[bisect_left(lasts, prefix[-1]):]:
                word = prefix + (last,)
                constituents = _word_constituents(rs, word)
                if a in constituents and b in constituents:
                    return word
    return None
