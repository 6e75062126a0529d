"""Highest-weight representation arithmetic over the rationals.

Dimensions come from the Weyl product formula, weight multiplicities from
the Freudenthal recursion, and tensor product decompositions from the
signed straightening of rho-shifted weights.  The recursion straightens
through the ``straighten`` kernel of ``rootsys._kernel``, and the
decomposition through its ``block`` kernel, which straightens the weights
of one orbit and sums their signs in one call; each is fetched once per
call.  Two independent routes are deliberately kept: dimensions can be
cross-checked as the total mass of the weight multiset, and
decompositions against the convolution of weight multisets.  All values
are exact integers.

The recursion sums its root strings over classes of positive roots, not
over each root (Moody and Patera, Fast recursion formula for weight
multiplicities, Bull. AMS 7, 1982; Humphreys, Introduction to Lie Algebras
and Representation Theory, 22.3).  The simple reflections at the zero
coordinates of a weight mu fix mu, and the multiplicities and the form are
Weyl-invariant, so the roots of one of their orbits, each taken up to
sign, have equal string sums through mu: one string per class, times the
class size, gives the same exact sum.  The classes are read off the roots
(Azad, Barry and Seitz, Comm. Algebra 18, 1990): the roots of one norm and
one set of simple coordinates off the zeros, or, with none there, of one
component of the Dynkin diagram on the zeros.

The walk that finds the dominant weights below the highest weight tries
w - alpha for each positive root alpha at each weight w it reaches.  It
first compares w with alpha at alpha's largest coordinate a = alpha_i: when
w_i < a, w - alpha has a negative coordinate, and the root is skipped
without building the weight.

The ``functools.cache`` helpers keep work that repeats across calls, and
every call returns a fresh dict, so a caller may change what it gets.
``_orbit`` keeps the frozenset ``weyl_orbit`` returns: a weight multiset
is built from it in C with the hashes it already holds, and its iteration
order fixes the item order of the multisets and the products.  Each
decomposition reads its two factors' dimensions from ``_weyl_dim`` to pick
the smaller factor, whose ``_module`` it then walks block by block.

``_orbit_sums`` is the memo of orbit sums.  V(mu)'s weights are the orbits
W mu' with multiplicity m, so the signed straightening of lam + rho + nu,
summed over nu in W mu', depends only on (lam, mu'), the key.  Keys whose
count is 0 stay: a decomposition adds m times each block's sums in block
order, so its keys reach the result in the order that a walk over every
weight gives them.  ``_minus_rho`` keeps one tuple per highest weight,
which the memo's keys and the relations callers keep share; it is
injective, so the memo's keys keep their order.  Each block is added in
one ``dict.update`` over C iterators, safe because a block's weights are
distinct: each ``get`` reads the sum from before the block.  A C filter
on the sums' values then gives the result.

A decomposition tests the walls only for a block that the memo lacks, in
one of two ways chosen by the size of its orbit; both drop the same
points.  An orbit of fewer than ``_MASK_MIN_POINTS`` points goes to
``block`` whole, with its inline wall test on.  For a larger orbit, lam +
rho + nu lies on the wall of a column exactly when the column of nu is
minus the pairing of lam + rho there, so the decomposition finds the
weights it drops in one OR of the orbit's cached ``_orbit_walls`` masks
per column and hands only the rest to ``block``.  Either way ``block``
straightens what it keeps and drops those that reach a wall of a higher
root.  Building masks costs a pass over the orbit and, once per root
system, the ``walls`` kernel's compile; on a small orbit that is more than
the inline test costs on the points the masks would skip.  A block found
in the memo reads no mask and straightens nothing.  The masks and the
memo's key order hold only for the cached frozensets: clear
``_orbit_walls``, ``_module`` and ``_orbit_sums`` with ``_orbit``.
``_module`` builds its weights through ``weight_multiplicities``, called
through the module attribute, so each module is built once and the
benchmark's traced ``weight_multiplicities`` layer still records it.

Why height two: a shifted weight that one simple reflection s_i takes onto
the wall of a neighbouring alpha_j lay on the wall of s_i alpha_j, which is
alpha_i + alpha_j when the bond is simple.  Weights one reflection away
from dominant are most of the singular ones a product straightens, so
these walls catch nearly all of them, and a column per higher root costs
more than the straightenings it saves.
"""

from __future__ import annotations

import functools
from itertools import compress, repeat
from operator import add, mul, sub

from .rootsys import (
    PositiveRootData,
    RootSystem,
    Weight,
    _kernel,
    _off_walls,
    _require_dominant,
    _require_ints,
    _wall_pairings,
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
    straighten = _kernel(rs, "straighten")
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


# the least orbit size whose misses read wall masks: below it, building the
# masks, and the walls kernel for a type that meets no larger orbit, costs
# more than block's inline wall test on the points the masks would skip
_MASK_MIN_POINTS = 64


@functools.cache
def _orbit_walls(rs: RootSystem, mu: Weight) -> tuple[dict[int, int], ...]:
    """The wall masks of ``_orbit(rs, mu)``, from the ``walls`` kernel."""
    return _kernel(rs, "walls")(_orbit(rs, mu))


# a dominant weight mu' of a module, its multiplicity m, and the slice
# [start, end) of the module's weights that is W mu'
_Block = tuple[Weight, int, int, int]
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
        end = start + len(_orbit(rs, mu))
        blocks.append((mu, m, start, end))
        start = end
    return keys, tuple(blocks)


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

    shifted = pairings = None
    keys, blocks = _module(rs, mu)
    memo = _orbit_sums(rs)
    acc: dict[Weight, int] = {}
    for dom, mult, start, end in blocks:
        entry = memo.get((lam, dom))
        if entry is None:
            if shifted is None:
                block = _kernel(rs, "block")
                shifted = [c + 1 for c in lam]
            # a weight nu such that lam + rho + nu pairs to zero with a simple
            # coroot or the coroot of a root of height two lies on a wall:
            # the reflection in that root fixes it, so it is singular and
            # contributes nothing.  A small orbit goes to block whole, which
            # skips these points by an inline test before straightening.  On
            # a large one, the cached masks of the orbit mark them for this
            # lam, and compress skips them without running any bytecode for
            # them.  A weight off these walls may still lie on a higher
            # root's wall; reflections keep it singular, so it straightens
            # onto a simple one, and block drops it there
            if end - start < _MASK_MIN_POINTS:
                sums = block(shifted, keys[start:end], True)
            else:
                if pairings is None:
                    pairings = _wall_pairings(rs, shifted)
                selector = _off_walls(_orbit_walls(rs, dom), pairings, end - start)
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
