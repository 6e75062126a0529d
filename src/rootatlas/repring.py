"""Highest-weight representation arithmetic over the rationals.

Dimensions come from the Weyl product formula, weight multiplicities from
the Freudenthal recursion, and tensor product decompositions from the
signed straightening of rho-shifted weights.  The recursion straightens
through the straightener that ``rootsys._reflection_kernels`` generates
for the root system, and the decomposition through its ``block`` kernel,
which straightens the weights of one orbit and sums their signs in one
call; each is fetched once per call.  The decomposition first drops every
shifted weight on the wall of a simple root or of a root of height two,
most of the weights of a large product, by a wall test read from cached
bitmasks.  Two independent routes are deliberately kept: dimensions can be
cross-checked as the total mass of the weight multiset, and decompositions
against the convolution of weight multisets.  All values are exact
integers.

The recursion sums its root strings over classes of positive roots, not
over each root (Moody and Patera, Fast recursion formula for weight
multiplicities, Bull. AMS 7, 1982; Humphreys, Introduction to Lie Algebras
and Representation Theory, 22.3).  The simple reflections at the zero
coordinates of a weight mu fix mu, and the multiplicities and the form are
Weyl-invariant, so the roots of one of their orbits, each taken up to
sign, have equal string sums through mu: one string per class, times the
class size, gives the same exact sum.

The walk that finds the dominant weights below the highest weight tries
w - alpha for each positive root alpha at each weight w it reaches.  It
first compares w with alpha at alpha's largest coordinate a = alpha_i: when
w_i < a, w - alpha has a negative coordinate, and the root is skipped
without building the weight.

Ten ``functools.cache`` helpers keep work that repeats across calls,
and every call returns a fresh dict, so a caller may change what it gets:

- ``_dominant_table``: dominant multiplicities, keyed by (root system,
  highest weight);
- ``_orbit``: the Weyl orbit of each dominant weight, keyed by (root
  system, dominant weight), as the frozenset ``weyl_orbit`` returns: a
  weight multiset is built from it in C with the hashes it already holds,
  and its iteration order fixes the item order of the multiset;
- ``_weyl_dim``: Weyl dimensions, keyed by (root system, highest weight);
  each decomposition reads its two factors' dimensions there to pick the
  smaller factor;
- ``_support_roots``: per root system, one (i, a, root, simple
  coordinates) per positive root, in ``positive_root_data`` order, with a
  = root[i] its largest coordinate, for the walk's pre-test;
- ``_root_classes``: the classes of positive roots that the recursion sums
  over, keyed by (root system, zero coordinates of the weight): the roots
  of one norm and one set of simple coordinates off the zeros, or, with
  none there, of one component of the Dynkin diagram on the zeros (Azad,
  Barry and Seitz, Comm. Algebra 18, 1990);
- ``_bonds``: per root system, the roots alpha_i + alpha_j of height two,
  one per bond of the Dynkin diagram, as (i, j, k_i, k_j) with coroot
  k_i alpha_i^vee + k_j alpha_j^vee;
- ``_orbit_walls``: the size and the wall masks of one orbit, keyed by
  (root system, dominant weight).  Its wall columns are the rank
  coordinates nu_i, then k_i nu_i + k_j nu_j for each of the ``_bonds``;
  for each column and each value -c it takes at or below minus the least
  pairing a shifted weight can have there (1, or k_i + k_j), an int whose
  bit k is set when point k of the ``_orbit`` frozenset, in its iteration
  order, has -c there;
- ``_wall_kernel``: per root system, the body of ``_orbit_walls``,
  generated from ``_bonds`` with every coefficient and floor inlined: one
  pass over the orbit that tests each coordinate of a point against 0 and
  computes each of its bond columns once;
- ``_module``: the module V(mu), keyed by (root system, highest weight):
  the weights of ``weight_multiplicities`` as one tuple, in its item
  order, and one block (mu', m, start, end, masks) per dominant weight
  mu' in ``_dominant_table`` order, with m its multiplicity and masks the
  cached ``_orbit_walls`` entry.  The multiset lists each dominant
  weight's cached orbit in iteration order, so weights[start:end] is
  W mu' in that order and bit k of its masks is weight start + k;
- ``_orbit_sums``: per root system, one dict, the memo of orbit sums.
  V(mu)'s weights are the orbits W mu' with multiplicity m, so the signed
  straightening of lam + rho + nu, summed over nu in W mu', depends only
  on (lam, mu'), the key.  The value is the straightened weights with rho
  taken off, in first-occurrence order, as the tuples that ``_minus_rho``
  shares, and their signed counts.  Keys whose count is 0 stay: a
  decomposition adds m times each block's sums in block order, so its keys
  reach the result in the order that a walk over every weight gives them.

Each block is added in one ``dict.update`` over C iterators, safe because
a block's weights are distinct: each ``get`` reads the sum from before the
block.  A C filter on the sums' values then gives the result.

A decomposition reads the wall masks only for a block that the memo lacks.
For a weight nu of V(mu), lam + rho + nu pairs to zero with alpha^vee
exactly when the column of alpha is minus the pairing of lam + rho with
alpha^vee, so it finds the weights it drops in one OR per column, then hands
the rest to ``block``, which straightens them and drops those that reach a
wall of a higher root.  A block found in the memo reads no mask and
straightens nothing.  The masks and the memo's key order hold only for the
cached frozensets: clear ``_orbit_walls``, ``_module`` and ``_orbit_sums``
with ``_orbit``.  ``_module`` builds its weights through
``weight_multiplicities``, called through the module attribute, so each
module is built once and the benchmark's traced ``weight_multiplicities``
layer still records it.

Why height two: a shifted weight that one simple reflection s_i takes onto
the wall of a neighbouring alpha_j lay on the wall of s_i alpha_j, which is
alpha_i + alpha_j when the bond is simple.  Weights one reflection away
from dominant are most of the singular ones a product straightens, so
these walls catch nearly all of them, and a column per higher root costs
more than the straightenings it saves.

An eleventh cache, ``_minus_rho``, takes rho off a straightened weight and
keeps one tuple per highest weight, which the memo's keys and the relations
callers keep share.  It is injective, so the memo's keys keep their order.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from functools import partial, reduce
from itertools import compress, repeat
from operator import add, mul, or_, sub

from .rootsys import (
    PositiveRootData,
    RootSystem,
    Weight,
    _listed,
    _reflection_kernels,
    _require_dominant,
    _require_ints,
    weyl_orbit,
)

WeightMultiset = dict[Weight, int]
Decomposition = dict[Weight, int]


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """dim V(lam) as the product over positive roots of the shifted-to-plain
    coroot pairing ratio of lam + rho against rho."""
    _require_dominant(rs, lam)
    return _weyl_dim(rs, lam)


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
    straighten = _reflection_kernels(rs)[1]
    support = _support_roots(rs)

    # dominant weights below lam, with lam - mu expanded over simple roots
    diffs: dict[Weight, tuple[int, ...]] = {lam: (0,) * rank}
    queue = [lam]
    while queue:
        w = queue.pop()
        base = diffs[w]
        for i, a, root, coords in support:
            # w - root has coordinate w[i] - a < 0 there: not dominant
            if w[i] < a:
                continue
            v = tuple(map(sub, w, root))
            if v in diffs or min(v) < 0:
                continue
            diffs[v] = tuple(map(add, base, coords))
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
                m = table.get(straighten(v)[0], 0)
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
def _support_roots(
    rs: RootSystem,
) -> tuple[tuple[int, int, Weight, tuple[int, ...]], ...]:
    """One (i, a, root, simple_coords) per positive root, in
    ``positive_root_data`` order, with a = root[i] the root's largest
    coordinate: a dominant w with w[i] < a has w - root off the dominant
    cone."""
    out = []
    for p in rs.positive_root_data:
        a = max(p.root)
        out.append((p.root.index(a), a, p.root, p.simple_coords))
    return tuple(out)


@functools.cache
def _root_classes(
    rs: RootSystem, zeros: tuple[int, ...]
) -> tuple[tuple[PositiveRootData, int], ...]:
    """The orbits of the simple reflections s_j, j in ``zeros``, on the
    positive roots up to sign, read off the roots by the rule of Azad, Barry
    and Seitz (1990) in the module docstring: the first root of each orbit
    in ``positive_root_data`` order, with the size of the orbit."""
    # label each zero by the least index of its component, in len(zeros) sweeps
    comp = {j: j for j in zeros}
    for i in zeros * len(zeros):
        comp[i] = min(comp[j] for j in zeros if rs.cartan_matrix[i][j])
    classes: dict[tuple, list] = {}
    for p in rs.positive_root_data:
        shape = tuple(c for i, c in enumerate(p.simple_coords) if i not in comp)
        if not any(shape):
            shape = comp[next(j for j in zeros if p.simple_coords[j])]
        classes.setdefault((p.norm, shape), [p, 0])[1] += 1
    return tuple(map(tuple, classes.values()))


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
# an orbit's size and its wall masks, one dict per wall column
_OrbitWalls = tuple[int, tuple[dict[int, int], ...]]


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
def _orbit_walls(rs: RootSystem, mu: Weight) -> _OrbitWalls:
    """The size of ``_orbit(rs, mu)`` and, per wall column, the map from
    each c with -c among the column's values to the bitmask of the
    positions, in the orbit's iteration order, where the column is -c.  The
    columns are the rank coordinates nu_i, then k_i nu_i + k_j nu_j per item
    of ``_bonds``.  A shifted weight pairs to at least 1 with a simple
    coroot and to at least k_i + k_j with the coroot of alpha_i + alpha_j,
    so only the values -c at or below these are kept."""
    return _wall_kernel(rs)(_orbit(rs, mu))


@functools.cache
def _wall_kernel(rs: RootSystem):
    """The body of ``_orbit_walls`` for ``rs``, generated from ``_bonds``
    with every coefficient and floor inlined by the ``d`` format, which
    refuses anything but an int.

    One pass over the orbit tests each column inline and, for each value
    kept, sets one 0/1 byte per position: a pass per column, or per value,
    costs more once the bond columns take many values.  A simple column is
    a coordinate, whose floor 1 makes its test ``v_i < 0``; a bond column
    is computed once, in the test, by an assignment expression.  Each
    column's values map to byte strings through a ``defaultdict``, which
    makes a value's string at its first point and so keeps the values in
    order of first occurrence."""
    v = [f"v{j}" for j in range(rs.rank)]
    flags = [f"f{c}" for c in range(rs.rank + len(_bonds(rs)))]
    lines = [
        "def walls(orbit):",
        "    size = len(orbit)",
        "    row = partial(bytearray, size)",
        f"    {_listed(flags)}= {_listed(['defaultdict(row)'] * len(flags))}",
        f"    for k, ({_listed(v)}) in enumerate(orbit):",
    ]
    lines += map("        if {1} < 0: {0}[{1}][k] = 1".format, flags, v)
    for f, (i, j, ki, kj) in zip(flags[rs.rank :], _bonds(rs)):
        # "d" refuses a coefficient or a floor that is not an int
        terms = [f"{k:d} * v{n}" for n, k in ((i, ki), (j, kj))]
        x = " + ".join(t.removeprefix("1 * ") for t in terms)
        lines.append(f"        if (x := {x}) <= -{ki + kj:d}: {f}[x][k] = 1")
    lines += [
        "    return size, tuple(",
        "        {-c: int(b.translate(binary)[::-1], 2) for c, b in f.items()}",
        f"        for f in ({_listed(flags)})",
        "    )",
    ]
    namespace = {"binary": _TO_BINARY, "defaultdict": defaultdict, "partial": partial}
    exec("\n".join(lines), namespace)
    return namespace["walls"]


# a dominant weight mu' of a module, its multiplicity m, the slice
# [start, end) of the module's weights that is W mu', and its wall masks
_Block = tuple[Weight, int, int, int, tuple[dict[int, int], ...]]
# the straightened weights of one orbit block less rho, in first-occurrence
# order, and the signed count of each
_OrbitSum = tuple[tuple[Weight, ...], tuple[int, ...]]


@functools.cache
def _module(
    rs: RootSystem, lam: Weight
) -> tuple[tuple[Weight, ...], tuple[_Block, ...]]:
    """The weights of V(lam) in the item order of ``weight_multiplicities``,
    with one block per dominant weight in ``_dominant_table`` order."""
    keys = tuple(weight_multiplicities(rs, lam))
    blocks = []
    start = 0
    for mu, m in _dominant_table(rs, lam).items():
        size, walls = _orbit_walls(rs, mu)
        blocks.append((mu, m, start, start + size, walls))
        start += size
    return keys, tuple(blocks)


def _off_walls(
    walls: tuple[dict[int, int], ...], pairings: list[int], size: int
) -> bytes:
    """One byte per point of an orbit of ``size`` points with wall masks
    ``walls``: 1 when no wall column of the point is minus the matching
    entry of ``pairings``, else 0.

    With ``pairings`` the coroot pairings of a shifted weight, column by
    column, the orbit's wall points are the OR over the columns of one
    cached mask each."""
    wall = reduce(or_, map(dict.get, walls, pairings, repeat(0)), 0)
    return format(wall, f"0{size}b")[::-1].encode().translate(_CLEAR)


@functools.cache
def _orbit_sums(rs: RootSystem) -> dict[tuple[Weight, Weight], _OrbitSum]:
    """The memo of orbit sums of one root system, keyed by (lam, mu')."""
    return {}


# one tuple per highest weight, shared by the memo's keys and the results
@functools.cache
def _minus_rho(v: Weight) -> Weight:
    return tuple(map(sub, v, repeat(1)))


def tensor_decompose(rs: RootSystem, lam: Weight, mu: Weight) -> Decomposition:
    """Decompose V(lam) (x) V(mu) into highest weights with multiplicities.

    Iterates over the weight multiset of the smaller factor: each weight nu
    contributes the signed straightening of lam + rho + nu, with weights on
    chamber walls dropped.  Cancellation leaves the true nonnegative
    multiplicities.  The sum over each Weyl orbit of the smaller factor is
    kept per (lam, orbit), so a later product with the same larger factor
    and an orbit in common straightens that orbit no more.
    """
    _require_dominant(rs, lam)
    _require_dominant(rs, mu)
    if (_weyl_dim(rs, mu), mu) > (_weyl_dim(rs, lam), lam):
        lam, mu = mu, lam

    pairings = None
    keys, blocks = _module(rs, mu)
    memo = _orbit_sums(rs)
    acc: dict[Weight, int] = {}
    for dom, mult, start, end, walls in blocks:
        entry = memo.get((lam, dom))
        if entry is None:
            if pairings is None:
                block = _reflection_kernels(rs)[2]
                shifted = [c + 1 for c in lam]
                pairings = shifted + [
                    ki * shifted[i] + kj * shifted[j] for i, j, ki, kj in _bonds(rs)
                ]
            # a weight nu such that lam + rho + nu pairs to zero with a simple
            # coroot or the coroot of a root of height two lies on a wall:
            # the reflection in that root fixes it, so it is singular and
            # contributes nothing.  The cached masks of the orbit mark these
            # points for this lam, and compress skips them without running
            # any bytecode for them.  A weight off these walls may still lie
            # on a higher root's wall; reflections keep it singular, so it
            # straightens onto a simple one, and block drops it there
            selector = _off_walls(walls, pairings, end - start)
            sums = block(shifted, compress(keys[start:end], selector))
            # a key whose sum is 0 stays: it fixes where the key first
            # enters the product, and so the product's item order
            entry = memo[lam, dom] = tuple(map(_minus_rho, sums)), tuple(sums.values())
        # a block's weights are distinct: each get reads the sum from before the block
        weights, counts = entry
        added = map(mul, counts, repeat(mult))
        acc.update(zip(weights, map(add, map(acc.get, weights, repeat(0)), added)))

    result = dict(compress(acc.items(), acc.values()))
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
    # True == 1.0 == 1: a bool would run as 1 and reach the atlas JSON as true
    _require_ints(0, bound=bound)
    # one coordinate a level, each prefix extended by ascending c: lex order
    out: list[Weight] = [()]
    for _ in range(rs.rank):
        out = [w + (c,) for w in out for c in range(bound - sum(w) + 1)]
    return out


def sorted_decomposition(dec: Decomposition) -> list[tuple[Weight, int]]:
    """Deterministic presentation: highest weights first (descending lex)."""
    return sorted(dec.items(), key=lambda kv: kv[0], reverse=True)
