"""Highest-weight representation arithmetic over the rationals.

Dimensions come from the Weyl product formula, weight multiplicities from
the Freudenthal recursion, and tensor product decompositions from the
signed straightening of rho-shifted weights.  Both the recursion and the
decomposition straighten through ``rootsys._straighten``; the decomposition
first drops every shifted weight with a zero coordinate, most of the weights
of a large product, by a wall test read from cached bitmasks.  Two
independent routes are deliberately kept: dimensions can be cross-checked
as the total mass of the weight multiset, and decompositions against the
convolution of weight multisets.  All values are exact integers.

The recursion sums its root strings over classes of positive roots, not
over each root (Moody and Patera, Fast recursion formula for weight
multiplicities, Bull. AMS 7, 1982; Humphreys, Introduction to Lie Algebras
and Representation Theory, 22.3).  The simple reflections at the zero
coordinates of a weight mu fix mu, and the multiplicities and the form are
Weyl-invariant, so the roots of one of their orbits, each taken up to
sign, have equal string sums through mu: one string per class, times the
class size, gives the same exact sum.

Seven ``functools.cache`` helpers keep work that repeats across calls,
and every call returns a fresh dict, so a caller may change what it gets:

- ``_dominant_table``: dominant multiplicities, keyed by (root system,
  highest weight);
- ``_orbit``: the Weyl orbit of each dominant weight, keyed by (root
  system, dominant weight), as the frozenset ``weyl_orbit`` returns: a
  weight multiset is built from it in C with the hashes it already holds,
  and its iteration order fixes the item order of the multiset;
- ``_decomposition``: decompositions, keyed by (root system, smaller
  weight, larger weight), so both argument orders share an entry and a hit
  computes no Weyl dimension;
- ``_weyl_dim``: Weyl dimensions, keyed by (root system, highest weight),
  so the two that order each new decomposition are computed once;
- ``_root_classes``: the classes of positive roots that the recursion sums
  over, keyed by (root system, zero coordinates of the weight);
- ``_orbit_walls``: wall masks of one orbit, keyed by (root system,
  dominant weight): for each coordinate i and each value -c < 0 it takes,
  an int whose bit k is set when point k of the ``_orbit`` frozenset, in
  its iteration order, has -c at i;
- ``_module``: the module V(lam), keyed by (root system, highest weight).
  It holds the weights and the multiplicities of ``weight_multiplicities``
  as two tuples, so only the first decomposition with V(lam) as its
  smaller factor builds that dict, and it holds wall masks over the whole
  module: the ``_orbit_walls`` masks of each orbit, shifted by the sizes
  of the orbits before it.  The multiset lists the dominant weights in
  ``_dominant_table`` order, each followed by its cached orbit in
  iteration order, so bit k of a mask is item k of
  ``weight_multiplicities``.  For a weight nu of V(mu), lam + rho + nu has
  a zero coordinate exactly when nu_i = -(lam_i + 1) for some i, so a
  decomposition finds the weights it drops in rank ORs.  The masks hold
  only for the cached frozensets: clear ``_orbit_walls`` and ``_module``
  with ``_orbit``.

The highest weights in cached decompositions are shared tuples: an eighth
cache, ``_intern``, returns the first tuple it was given for each value.
"""

from __future__ import annotations

import functools
from itertools import compress, repeat
from operator import add, eq, mul, or_, sub

from .rootsys import (
    PositiveRootData,
    RootSystem,
    Weight,
    _require_dominant,
    _straighten,
    weyl_orbit,
)

WeightMultiset = dict[Weight, int]
Decomposition = dict[Weight, int]


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """dim V(lam) as the product over positive roots of the shifted-to-plain
    coroot pairing ratio of lam + rho against rho."""
    _require_dominant(rs, lam)
    return _weyl_dim(rs, tuple(lam))


@functools.cache
def _weyl_dim(rs: RootSystem, lam: Weight) -> int:
    num = 1
    den = 1
    shifted = [c + 1 for c in lam]
    for p in rs.positive_root_data:
        k = p.coroot
        num *= sum(map(mul, k, shifted))
        den *= sum(k)
    q, r = divmod(num, den)
    if r:
        raise AssertionError("Weyl dimension must be an integer")
    return q


def dominant_weight_multiplicities(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V(lam), by the Freudenthal
    recursion.

    The dominant support is generated by walking positive-root subtractions
    that stay in the dominant cone; each multiplicity is then accumulated
    from the already-known weights strictly above it along root strings.
    """
    _require_dominant(rs, lam)
    return dict(_dominant_table(rs, lam))


@functools.cache
def _dominant_table(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    rank = rs.rank
    norms = rs.simple_norms
    cols = rs.reflection_cols
    positive = rs.positive_root_data

    # dominant weights below lam, with lam - mu expanded over simple roots
    diffs: dict[Weight, tuple[int, ...]] = {lam: (0,) * rank}
    queue = [lam]
    while queue:
        w = queue.pop()
        base = diffs[w]
        for p in positive:
            v = tuple(map(sub, w, p.root))
            if v in diffs or min(v) < 0:
                continue
            diffs[v] = tuple(map(add, base, p.simple_coords))
            queue.append(v)

    order = sorted(diffs, key=lambda w: (sum(diffs[w]), w))
    table: dict[Weight, int] = {}
    two_rho_shift = [c + 2 for c in lam]
    for mu in order:
        diff = diffs[mu]
        if not any(diff):
            table[mu] = 1
            continue
        # the reflections at mu's zero coordinates fix mu, so the roots of
        # one of their classes have equal string sums: a root with
        # (mu, alpha) > 0 stays positive, and at (mu, alpha) = 0 the strings
        # of alpha and -alpha through mu give the same sum
        acc = 0
        zeros = tuple(i for i, c in enumerate(mu) if not c)
        for p, size in _root_classes(rs, zeros):
            proot = p.root
            pcoroot = p.coroot
            string = 0
            v = mu
            while True:
                v = tuple(map(add, v, proot))
                # the multiplicity of v is that of its dominant representative
                m = table.get(_straighten(cols, v)[0], 0)
                if m == 0:
                    break
                string += m * sum(map(mul, pcoroot, v))
            acc += size * string * p.norm
        # (lam + mu + 2 rho, lam - mu) in the same integer scaling
        den = sum(
            diff[i] * norms[i] * (two_rho_shift[i] + mu[i]) for i in range(rank)
        )
        mult, r = divmod(2 * acc, den)
        if r:
            raise AssertionError("Freudenthal recursion must divide exactly")
        table[mu] = mult
    return table


@functools.cache
def _root_classes(
    rs: RootSystem, zeros: tuple[int, ...]
) -> tuple[tuple[PositiveRootData, int], ...]:
    """The orbits of the simple reflections s_j, j in ``zeros``, on the
    positive roots, a root sent below zero replaced by its negative: the
    first root of each orbit in ``positive_root_data`` order, with the size
    of the orbit."""
    cols = rs.reflection_cols
    positive = rs.positive_roots
    seen: set[Weight] = set()
    classes = []
    for p in rs.positive_root_data:
        if p.root in seen:
            continue
        orbit = {p.root}
        queue = [p.root]
        while queue:
            v = queue.pop()
            for j in zeros:
                c = v[j]
                if c == 0:
                    continue
                out = list(v)
                for i, a in cols[j]:
                    out[i] -= c * a
                t = tuple(out)
                if t not in positive:
                    t = tuple(-x for x in t)
                if t not in orbit:
                    orbit.add(t)
                    queue.append(t)
        seen |= orbit
        classes.append((p, len(orbit)))
    return tuple(classes)


def weight_multiplicities(rs: RootSystem, lam: Weight) -> WeightMultiset:
    """The full weight multiset of V(lam): Weyl-invariant, total mass the
    Weyl dimension."""
    out: WeightMultiset = {}
    for mu, m in dominant_weight_multiplicities(rs, lam).items():
        out.update(dict.fromkeys(_orbit(rs, mu), m))
    return out


@functools.cache
def _orbit(rs: RootSystem, mu: Weight) -> frozenset[Weight]:
    return weyl_orbit(rs, mu)


# a 0/1 byte string reversed and read as binary, so that byte k is bit k
_TO_BINARY = bytes.maketrans(b"\x00\x01", b"01")
# binary digits, lowest bit first, as the selector of the bits left clear
_CLEAR = bytes.maketrans(b"01", b"\x01\x00")


@functools.cache
def _orbit_walls(rs: RootSystem, mu: Weight) -> tuple[dict[int, int], ...]:
    """Per coordinate i, the map from each c > 0 with -c among the i-th
    coordinates of ``_orbit(rs, mu)`` to the bitmask of the positions, in
    the orbit's iteration order, whose i-th coordinate is -c."""
    return tuple(
        {
            -c: int(bytes(map(eq, col, repeat(c))).translate(_TO_BINARY)[::-1], 2)
            for c in set(col)
            if c < 0
        }
        for col in zip(*_orbit(rs, mu))
    )


@functools.cache
def _module(
    rs: RootSystem, lam: Weight
) -> tuple[tuple[Weight, ...], tuple[int, ...], tuple[dict[int, int], ...]]:
    """The weights of V(lam) and their multiplicities, as two tuples in the
    item order of ``weight_multiplicities``, with the masks of
    ``_orbit_walls`` over all of them: each orbit's masks shifted past the
    orbits before it in table order, so that bit k stands for item k."""
    wm = weight_multiplicities(rs, lam)
    walls: list[dict[int, int]] = [{} for _ in range(rs.rank)]
    offset = 0
    for mu in _dominant_table(rs, lam):
        for out, masks in zip(walls, _orbit_walls(rs, mu)):
            for c, bits in masks.items():
                out[c] = out.get(c, 0) | bits << offset
        offset += len(_orbit(rs, mu))
    return tuple(wm), tuple(wm.values()), tuple(walls)


def _off_walls(
    walls: tuple[dict[int, int], ...], shifted: list[int], size: int
) -> bytes:
    """One byte per item nu of the ``size`` items whose wall masks are
    ``walls``: 1 when ``shifted + nu`` has no zero coordinate, else 0.

    A zero at coordinate i means nu_i = -shifted[i], so the wall items are
    the OR over i of one cached mask each."""
    wall = functools.reduce(or_, map(dict.get, walls, shifted, repeat(0)), 0)
    return format(wall, f"0{size}b")[::-1].encode().translate(_CLEAR)


# one shared tuple per highest weight, the first one seen, so that cached
# decompositions do not each hold their own copy
@functools.cache
def _intern(w: Weight) -> Weight:
    return w


def tensor_decompose(rs: RootSystem, lam: Weight, mu: Weight) -> Decomposition:
    """Decompose V(lam) (x) V(mu) into highest weights with multiplicities.

    Iterates over the weight multiset of the smaller factor: each weight nu
    contributes the signed straightening of lam + rho + nu, with weights on
    chamber walls dropped.  Cancellation leaves the true nonnegative
    multiplicities.
    """
    _require_dominant(rs, lam)
    _require_dominant(rs, mu)
    return dict(_decomposition(rs, min(lam, mu), max(lam, mu)))


@functools.cache
def _decomposition(rs: RootSystem, lam: Weight, mu: Weight) -> Decomposition:
    if (weyl_dim(rs, mu), mu) > (weyl_dim(rs, lam), lam):
        lam, mu = mu, lam

    cols = rs.reflection_cols
    shifted = [c + 1 for c in lam]
    keys, mults, walls = _module(rs, mu)
    acc: dict[Weight, int] = {}
    # a weight nu with a zero coordinate in lam + rho + nu lies on a wall: a
    # simple reflection fixes it, so it is singular and contributes nothing.
    # The cached masks of V(mu) mark these items for this lam, and compress
    # skips them without running any bytecode for them
    for nu, mult in compress(
        zip(keys, mults), _off_walls(walls, shifted, len(keys))
    ):
        v, sign = _straighten(cols, map(add, shifted, nu))
        # a weight off the simple walls may still lie on another wall;
        # reflections keep it singular, so it straightens onto a simple one
        if 0 in v:
            continue
        # keyed by the rho-shifted weight; rho comes off the survivors below
        acc[v] = acc.get(v, 0) + sign * mult

    result = {}
    for w, m in acc.items():
        if m:
            result[_intern(tuple(map(sub, w, repeat(1))))] = m
    if min(result.values(), default=0) < 0:
        raise AssertionError("cancellation must leave positives")
    return result


def clebsch_gordan_sl2(m: int, n: int) -> Decomposition:
    """V(m) (x) V(n) for the rank-one system: one copy of V(k) for k from
    |m - n| up to m + n in steps of two."""
    if m < 0 or n < 0:
        raise ValueError("highest weights must be nonnegative")
    return {(k,): 1 for k in range(m + n, abs(m - n) - 1, -2)}


def dominant_weights_up_to(rs: RootSystem, bound: int) -> list[Weight]:
    """All dominant weights with coordinate sum at most ``bound``, in
    lexicographic order."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    out: list[Weight] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if len(prefix) == rs.rank:
            out.append(prefix)
            return
        for c in range(remaining + 1):
            extend(prefix + (c,), remaining - c)

    extend((), bound)
    return out


def sorted_decomposition(dec: Decomposition) -> list[tuple[Weight, int]]:
    """Deterministic presentation: highest weights first (descending lex)."""
    return sorted(dec.items(), key=lambda kv: kv[0], reverse=True)
