"""The classification atlas: every diagram of every admissible irreducible
type up to a rank bound, with centers, the isogeny poset, and the grading
group cross-check.

Output is deterministic: entries are ordered by (rank, family), diagrams
from simply connected down to adjoint, and the JSON form is stable byte
for byte across runs with equal parameters.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import and_

from .grading import (
    GradingPresentation,
    TensorRelation,
    grading_presentation,
    matches_fundamental_group,
    universal_grading_group,
)
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    ComponentBlock,
    Diagram,
    EnumerationCapError,
    FiniteAbelianGroup,
    Subgroup,
    _diagrams,
    _insert_row,
    center_char_group,
    diagrams,
    fundamental_group,
    irreducible_components,
)
from .repring import dominant_weights_up_to, tensor_decompose, weyl_dim
from .rootsys import (
    CartanType,
    CartanTypeError,
    RootSystem,
    Weight,
    _require_ints,
    build_root_system,
    parse_cartan_type,
)

DEFAULT_GRADING_DIM_CAP = 20_000_000


@dataclass(frozen=True)
class DiagramInfo:
    diagram: Diagram
    center: FiniteAbelianGroup
    label: str


@dataclass(frozen=True)
class GradingSummary:
    bound: int
    presentation: GradingPresentation | None
    matches: bool | None
    error: str | None


@dataclass(frozen=True)
class AtlasEntry:
    cartan_type: CartanType
    fundamental_group: FiniteAbelianGroup
    diagrams: tuple[DiagramInfo, ...]
    isogeny_edges: tuple[tuple[int, int], ...]
    grading: GradingSummary
    error: str | None


def admissible_irreducible_types(max_rank: int) -> list[CartanType]:
    """All irreducible admissible types of rank <= max_rank, ordered by
    (rank, family letter)."""
    _require_ints(1, max_rank=max_rank)
    found = []
    for rank in range(1, max_rank + 1):
        for family in "ABCDEFG":
            try:
                found.append(parse_cartan_type(f"{family}{rank}"))
            except CartanTypeError:
                continue
    return found


def label_diagram(d: Diagram, cap: int = DEFAULT_ENUMERATION_CAP) -> str:
    """Name a diagram by its place in the isogeny chain: the full subgroup
    is simply connected, the trivial one adjoint, anything else is numbered
    among the intermediates in canonical order.  Only an intermediate needs
    the (cached) enumeration, so the two ends are named above the cap too."""
    prefix = str(d.cartan_type)
    order = d.subgroup.order
    if order == fundamental_group(d.cartan_type).order:
        return f"{prefix} simply-connected"
    if order == 1:
        return f"{prefix} adjoint"
    # the simply connected diagram is at 0, so intermediates count from 1
    k = _diagrams(d.cartan_type, cap).get(d)
    if k is None:
        raise ValueError(f"{d} is not among the diagrams of {prefix}")
    return f"{prefix} intermediate#{k}"


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def hasse_edges(ds: list[Diagram]) -> tuple[tuple[int, int], ...]:
    """Cover relations of the isogeny order, from larger lattice to smaller, at
    the cost of one pass over the elements of each subgroup, one AND per
    generator and one mask test per comparable pair."""
    if len({d.cartan_type for d in ds}) > 1:
        raise ValueError("diagrams of different Cartan types are incomparable")
    # for each element of P/Q, the diagrams whose subgroup holds it
    holders: dict[tuple[int, ...], int] = {}
    for i, d in enumerate(ds):
        for g in d.subgroup.elements():
            holders[g] = holders.get(g, 0) | 1 << i
    # starting from every diagram puts the trivial subgroup below them all
    everything = (1 << len(ds)) - 1
    above = [
        reduce(and_, map(holders.__getitem__, d.subgroup.generators), everything)
        & ~(1 << j)
        for j, d in enumerate(ds)
    ]
    below = [0] * len(ds)
    for j, mask in enumerate(above):
        for i in _bits(mask):
            below[i] |= 1 << j
    return tuple(
        (i, j)
        for i, mask in enumerate(below)
        for j in _bits(mask)
        if not mask & above[j]
    )


def _early_grading(
    rs: RootSystem, dims: dict[Weight, int], bound: int
) -> GradingSummary:
    """The grading summary over the generators ``dims``, each with its Weyl
    dimension, read off the first tensor relations that present P/Q.

    The pairs are read by sorted Weyl dimensions, and each relation whose
    constituent is a generator enters an echelon table as child - left -
    right.  Every constituent of V(lambda) (x) V(mu) lies in lambda + mu + Q,
    so every relation lies in the kernel K of Z^gens -> P/Q.  Once the table
    is full and its pivots multiply to |P/Q|, the relations read span a
    sublattice of K with K's index when that map is onto, hence K: the
    quotient, free rank and match are the full list's.
    ``matches_fundamental_group`` checks this once.  With no close, or a
    rejected one, the remaining pairs are each read once, and all the
    relations read are presented: the full list's, in another order."""
    gens = list(dims)
    index = {g: i for i, g in enumerate(gens)}
    n = len(index)
    order = fundamental_group(rs.cartan_type).order
    pairs = sorted(
        itertools.combinations_with_replacement(gens, 2),
        key=lambda pair: sorted((dims[pair[0]], dims[pair[1]])),
    )
    basis = [None] * n
    read = []
    testing = True
    for lam, mu in pairs:
        children = filter(index.__contains__, tensor_decompose(rs, lam, mu))
        for child in sorted(children, reverse=True):
            read.append(TensorRelation(child, lam, mu))
            v = [0] * n
            v[index[child]] += 1
            v[index[lam]] -= 1
            v[index[mu]] -= 1
            _insert_row(basis, v)
        # the index in Z^gens of the relations read, 0 while a slot is empty
        pivots = prod(abs(row[i]) if row else 0 for i, row in enumerate(basis))
        if testing and pivots == order:
            pres = universal_grading_group(read, gens)
            if matches_fundamental_group(pres, rs):
                return GradingSummary(bound, pres, True, None)
            testing = False
    pres = universal_grading_group(read, gens)
    return GradingSummary(bound, pres, matches_fundamental_group(pres, rs), None)


def _entry_grading(
    t: CartanType, bound: int, dim_cap: int, early: bool = False
) -> GradingSummary:
    rs = build_root_system(t)
    dims = {g: weyl_dim(rs, g) for g in dominant_weights_up_to(rs, bound)}
    worst = max(dims.values())
    if worst > dim_cap:
        return GradingSummary(
            bound=bound,
            presentation=None,
            matches=None,
            error=(
                f"skipped: generator dimension {worst} exceeds the cap {dim_cap}"
            ),
        )
    if early:
        return _early_grading(rs, dims, bound)
    pres = grading_presentation(rs, bound)
    return GradingSummary(
        bound=bound,
        presentation=pres,
        matches=matches_fundamental_group(pres, rs),
        error=None,
    )


def _diagram_infos(
    t: CartanType, cap: int
) -> tuple[tuple[DiagramInfo, ...], tuple[tuple[int, int], ...]]:
    """Every diagram of ``t`` with its center and label, and the isogeny
    cover edges between them, from one subgroup enumeration."""
    ds = diagrams(t, cap)
    infos = tuple(
        DiagramInfo(d, center_char_group(d), label_diagram(d, cap)) for d in ds
    )
    return infos, hasse_edges(ds)


def build_entry(
    t: CartanType,
    bound: int,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    grading_dim_cap: int = DEFAULT_GRADING_DIM_CAP,
    *,
    _early: bool = False,
) -> AtlasEntry:
    """One atlas entry.  ``_early`` reads the grading through
    ``_early_grading``, with the same quotient, free rank and match;
    ``grading.presentation`` then holds only the relations read, in the
    order read.  Without it the presentation is the full one."""
    _require_ints(0, bound=bound)
    _require_ints(1, enumeration_cap=enumeration_cap, grading_dim_cap=grading_dim_cap)
    group = fundamental_group(t)
    try:
        infos, edges = _diagram_infos(t, enumeration_cap)
    except EnumerationCapError as exc:
        return AtlasEntry(
            cartan_type=t,
            fundamental_group=group,
            diagrams=(),
            isogeny_edges=(),
            grading=GradingSummary(bound, None, None, "skipped: diagrams unavailable"),
            error=str(exc),
        )
    return AtlasEntry(
        cartan_type=t,
        fundamental_group=group,
        diagrams=infos,
        isogeny_edges=edges,
        grading=_entry_grading(t, bound, grading_dim_cap, _early),
        error=None,
    )


def build_atlas(
    max_rank: int = 4,
    bound: int = 3,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    grading_dim_cap: int = DEFAULT_GRADING_DIM_CAP,
) -> list[AtlasEntry]:
    return [
        build_entry(t, bound, enumeration_cap, grading_dim_cap)
        for t in admissible_irreducible_types(max_rank)
    ]


@dataclass(frozen=True)
class SemisimpleDecomposition:
    cartan_type: CartanType
    components: tuple[ComponentBlock, ...]
    component_groups: tuple[FiniteAbelianGroup, ...]
    fundamental_group: FiniteAbelianGroup


def decompose_semisimple(t: CartanType) -> SemisimpleDecomposition:
    """Split a product type into irreducible blocks and exhibit its
    fundamental group as the direct sum of the component groups."""
    blocks = irreducible_components(t)
    groups = tuple(fundamental_group(b.cartan_type) for b in blocks)
    return SemisimpleDecomposition(
        cartan_type=t,
        components=tuple(blocks),
        component_groups=groups,
        fundamental_group=fundamental_group(t),
    )


# ---------------------------------------------------------------------------
# serialization


def group_to_json(g: FiniteAbelianGroup) -> list[int]:
    return list(g.invariant_factors)


def subgroup_to_json(s: Subgroup) -> list[list[int]]:
    return [list(g) for g in s.generators]


def diagram_info_to_json(info: DiagramInfo) -> dict:
    return {
        "label": info.label,
        "subgroup": subgroup_to_json(info.diagram.subgroup),
        "center": group_to_json(info.center),
    }


def grading_to_json(g: GradingSummary) -> dict:
    return {
        "bound": g.bound,
        "invariant_factors": (
            None
            if g.presentation is None
            else list(g.presentation.quotient.invariant_factors)
        ),
        "free_rank": None if g.presentation is None else g.presentation.free_rank,
        "matches_fundamental_group": g.matches,
        "error": g.error,
    }


def entry_to_json(entry: AtlasEntry) -> dict:
    return {
        "type": str(entry.cartan_type),
        "fundamental_group": group_to_json(entry.fundamental_group),
        "diagrams": [diagram_info_to_json(i) for i in entry.diagrams],
        "isogeny_edges": [list(e) for e in entry.isogeny_edges],
        "grading": grading_to_json(entry.grading),
        "error": entry.error,
    }


def atlas_to_json(
    entries: list[AtlasEntry],
    max_rank: int,
    bound: int,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    grading_dim_cap: int = DEFAULT_GRADING_DIM_CAP,
) -> dict:
    parameters = {
        "max_rank": max_rank,
        "bound": bound,
        "enumeration_cap": enumeration_cap,
        "grading_dim_cap": grading_dim_cap,
    }
    _require_ints(1, max_rank=max_rank)
    _require_ints(0, bound=bound)
    _require_ints(1, enumeration_cap=enumeration_cap, grading_dim_cap=grading_dim_cap)
    return {"parameters": parameters, "entries": [entry_to_json(e) for e in entries]}
