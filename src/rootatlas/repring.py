"""Highest-weight representation arithmetic over the rationals.

Dimensions come from the Weyl product formula, weight multiplicities from
the Freudenthal recursion, and tensor product decompositions from the
signed straightening of rho-shifted weights.  The recursion straightens
through ``rootsys._straighten``, and the decomposition runs the same loop
inline.  Two independent routes are deliberately kept: dimensions can be
cross-checked as the total mass of the weight multiset, and decompositions
against the convolution of weight multisets.  All values are exact
integers.

Three ``functools.cache`` helpers keep work that repeats across calls,
and every call returns a fresh dict, so a caller may change what it gets.
Each is keyed by ``rs.cartan_type.components``, a plain tuple where a
CartanType would hash in Python, and builds the root system on a miss:

- ``_dominant_table``: dominant multiplicities, keyed by (type components,
  highest weight);
- ``_flat_orbit``: the Weyl orbit of each dominant weight, keyed by (type
  components, dominant weight), as one flat tuple of coordinates;
- ``_decomposition``: decompositions, keyed by (type components, smaller
  weight, larger weight), so both argument orders share an entry and a hit
  computes no Weyl dimension.

The highest weights in cached decompositions are shared tuples: a fourth
cache, ``_intern``, returns the first tuple it was given for each value.
"""

from __future__ import annotations

import functools
from operator import add, mul, sub

from .rootsys import (
    CartanType,
    RootSystem,
    Weight,
    _require_dominant,
    _straighten,
    build_root_system,
    weyl_orbit,
)

WeightMultiset = dict[Weight, int]
Decomposition = dict[Weight, int]


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """dim V(lam) as the product over positive roots of the shifted-to-plain
    coroot pairing ratio of lam + rho against rho."""
    _require_dominant(rs, lam)
    num = 1
    den = 1
    shifted = [c + 1 for c in lam]
    for p in rs.positive_root_data:
        k = p.coroot
        num *= sum(a * b for a, b in zip(k, shifted))
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
    return dict(_dominant_table(rs.cartan_type.components, lam))


@functools.cache
def _dominant_table(components: tuple, lam: Weight) -> dict[Weight, int]:
    rs = build_root_system(CartanType(components))
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
        acc = 0
        for p in positive:
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
            acc += string * p.norm
        # (lam + mu + 2 rho, lam - mu) in the same integer scaling
        den = sum(
            diff[i] * norms[i] * (two_rho_shift[i] + mu[i]) for i in range(rank)
        )
        mult, r = divmod(2 * acc, den)
        if r:
            raise AssertionError("Freudenthal recursion must divide exactly")
        table[mu] = mult
    return table


def weight_multiplicities(rs: RootSystem, lam: Weight) -> WeightMultiset:
    """The full weight multiset of V(lam): Weyl-invariant, total mass the
    Weyl dimension."""
    table = dominant_weight_multiplicities(rs, lam)
    components = rs.cartan_type.components
    rank = rs.rank
    out: WeightMultiset = {}
    for mu, m in table.items():
        for w in zip(*[iter(_flat_orbit(components, mu))] * rank):
            out[w] = m
    return out


# each orbit is one flat tuple, since a tuple per point costs about three
# times the memory; it keeps the orbit frozenset's iteration order, which
# fixes the item order of weight multisets
@functools.cache
def _flat_orbit(components: tuple, mu: Weight) -> tuple[int, ...]:
    rs = build_root_system(CartanType(components))
    return tuple(c for w in weyl_orbit(rs, mu) for c in w)


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
    return dict(_decomposition(rs.cartan_type.components, min(lam, mu), max(lam, mu)))


@functools.cache
def _decomposition(components: tuple, lam: Weight, mu: Weight) -> Decomposition:
    rs = build_root_system(CartanType(components))
    if (weyl_dim(rs, mu), mu) > (weyl_dim(rs, lam), lam):
        lam, mu = mu, lam

    cols = rs.reflection_cols
    shifted = [c + 1 for c in lam]
    acc: dict[Weight, int] = {}
    for nu, mult in weight_multiplicities(rs, mu).items():
        v = tuple(map(add, shifted, nu))
        # a weight with a zero coordinate lies on a wall: a simple reflection
        # fixes it, so it is singular and contributes nothing.  Reflections
        # keep a weight singular or regular, so it goes at the first zero,
        # before straightening or at the dominant end of it
        if 0 in v:
            continue
        c = min(v)
        if c < 0:
            # the loop of rootsys._straighten, kept inline to carry the sign
            # in mult: calling the helper here made the tensor-cold
            # benchmark's wall time about 5% longer
            vec = list(v)
            while c < 0:
                for j, a in cols[vec.index(c)]:
                    vec[j] -= c * a
                mult = -mult
                c = min(vec)
            if c == 0:
                continue
            v = tuple(vec)
        # keyed by the rho-shifted weight; rho comes off the survivors below
        acc[v] = acc.get(v, 0) + mult

    result = {}
    for w, m in acc.items():
        if m:
            result[_intern(tuple(c - 1 for c in w))] = m
    if any(m < 0 for m in result.values()):
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
