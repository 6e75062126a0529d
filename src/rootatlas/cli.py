"""Command line front end.

Verbs mirror the library: inspect root systems, compute dimensions and
weight multiplicities, decompose tensor products, present grading groups,
search for tensor-generation certificates, and emit the classification
atlas.  Exit status is 0 on success, 1 when a computation refuses to run
(an enumeration cap was hit), 2 on bad input, and 141 (128 + SIGPIPE)
when stdout is closed before the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys

from .classify import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_GRADING_DIM_CAP,
    _diagram_infos,
    admissible_irreducible_types,
    atlas_to_json,
    build_entry,
    decompose_semisimple,
    diagram_info_to_json,
)
from .grading import (
    grading_class,
    grading_presentation,
    matches_fundamental_group,
    tensor_equivalent,
)
from .lattice import (
    EnumerationCapError,
    FiniteAbelianGroup,
    Subgroup,
    fundamental_group,
)
from .repring import (
    dominant_weight_multiplicities,
    sorted_decomposition,
    tensor_decompose,
    weyl_dim,
)
from .rootsys import (
    CartanTypeError,
    build_root_system,
    format_weight,
    parse_cartan_type,
    parse_weight,
)


def _fmt_group(g: FiniteAbelianGroup) -> str:
    if not g.invariant_factors:
        return "trivial"
    return " x ".join(f"Z/{n}" for n in g.invariant_factors)


def _fmt_subgroup(s: Subgroup) -> str:
    if not s.generators:
        return "trivial"
    inner = "; ".join(",".join(str(c) for c in g) for g in s.generators)
    return f"<{inner}>"


def _emit(payload: dict) -> int:
    print(json.dumps(payload, indent=2))
    return 0


def _typed(type_text: str, *weight_texts: str) -> tuple:
    """The Cartan type, its root system and the weights, each checked
    against the rank first: a bad weight on A400 is refused at once."""
    t = parse_cartan_type(type_text)
    weights = [parse_weight(w, t.rank) for w in weight_texts]
    return t, build_root_system(t), *weights


def _cmd_roots(args) -> int:
    t, rs = _typed(args.type)
    if args.format == "json":
        return _emit(
            {
                "type": str(t),
                "rank": rs.rank,
                "root_count": len(rs.all_roots),
                "positive_roots": [
                    {
                        "root": list(d.root),
                        "height": sum(d.simple_coords),
                        "norm": d.norm,
                    }
                    for d in rs.positive_root_data
                ],
            }
        )
    print(f"type: {t}")
    print(f"rank: {rs.rank}")
    print(f"root count: {len(rs.all_roots)}")
    print("positive roots (fundamental weight coordinates):")
    for d in rs.positive_root_data:
        height = sum(d.simple_coords)
        print(f"  {format_weight(d.root)}  height {height}  norm {d.norm}")
    return 0


def _cmd_weights(args) -> int:
    t, rs, lam = _typed(args.type, args.weight)
    table = dominant_weight_multiplicities(rs, lam)
    items = sorted_decomposition(table)
    dim = weyl_dim(rs, lam)
    if args.format == "json":
        return _emit(
            {
                "type": str(t),
                "highest_weight": list(lam),
                "dimension": dim,
                "dominant_multiplicities": [
                    {"weight": list(w), "multiplicity": m} for w, m in items
                ],
            }
        )
    print(f"type: {t}")
    print(f"highest weight: {format_weight(lam)}")
    print(f"dimension: {dim}")
    print("dominant weight multiplicities:")
    for w, m in items:
        print(f"  {format_weight(w)}: {m}")
    return 0


def _cmd_dim(args) -> int:
    t, rs, lam = _typed(args.type, args.weight)
    dim = weyl_dim(rs, lam)
    if args.format == "json":
        return _emit({"type": str(t), "weight": list(lam), "dimension": dim})
    print(dim)
    return 0


def _cmd_tensor(args) -> int:
    t, rs, lam, mu = _typed(args.type, args.left, args.right)
    items = sorted_decomposition(tensor_decompose(rs, lam, mu))
    if args.format == "json":
        return _emit(
            {
                "type": str(t),
                "factors": [list(lam), list(mu)],
                "decomposition": [
                    {"weight": list(w), "multiplicity": m} for w, m in items
                ],
            }
        )
    print(", ".join(f"{format_weight(w)}:{m}" for w, m in items))
    return 0


def _cmd_grade(args) -> int:
    if args.weight is not None:
        t, rs, lam = _typed(args.type, args.weight)
        cls = grading_class(rs, lam)
        group = fundamental_group(t)
        if args.format == "json":
            return _emit(
                {
                    "type": str(t),
                    "weight": list(lam),
                    "class": list(cls),
                    "group": list(group.invariant_factors),
                }
            )
        if not group.invariant_factors:
            print("class: trivial (the fundamental group is trivial)")
        else:
            print(f"class: {','.join(map(str, cls))} in {_fmt_group(group)}")
        return 0
    t, rs = _typed(args.type)
    pres = grading_presentation(rs, args.bound)
    matches = matches_fundamental_group(pres, rs)
    factors = pres.quotient.invariant_factors
    if args.format == "json":
        return _emit(
            {
                "type": str(t),
                "bound": args.bound,
                "generators": [list(g) for g in pres.generators],
                "relation_count": len(pres.relations),
                "invariant_factors": list(factors),
                "free_rank": pres.free_rank,
                "class_map": [
                    {"weight": list(g), "class": list(pres.class_map[g])}
                    for g in pres.generators
                ],
                "matches_fundamental_group": matches,
            }
        )
    print(f"type: {t}")
    print(f"bound: {args.bound}")
    print(f"generators: {len(pres.generators)}")
    print(f"relations: {len(pres.relations)}")
    print(f"grading group: {_fmt_group(pres.quotient)}")
    print(f"free rank: {pres.free_rank}")
    print(f"matches fundamental group: {'yes' if matches else 'no'}")
    return 0


def _cmd_equiv(args) -> int:
    t, rs, lam, mu = _typed(args.type, args.left, args.right)
    word = tensor_equivalent(rs, lam, mu, bound=args.bound, depth=args.depth)
    if args.format == "json":
        return _emit(
            {
                "type": str(t),
                "weights": [list(lam), list(mu)],
                "bound": args.bound,
                "depth": args.depth,
                "equivalent": word is not None,
                "word": None if word is None else [list(w) for w in word],
            }
        )
    if word is None:
        print("equivalent: no")
    else:
        print("equivalent: yes")
        print("word: " + " * ".join(format_weight(w) for w in word))
    return 0


def _cmd_classify(args) -> int:
    t = parse_cartan_type(args.type)
    infos, edges = _diagram_infos(t, args.enumeration_cap)
    dec = decompose_semisimple(t)
    if args.format == "json":
        return _emit(
            {
                "type": str(t),
                "fundamental_group": list(dec.fundamental_group.invariant_factors),
                "components": [
                    {
                        "type": str(b.cartan_type),
                        "nodes": [b.start, b.stop],
                        "fundamental_group": list(g.invariant_factors),
                    }
                    for b, g in zip(dec.components, dec.component_groups)
                ],
                "diagrams": [diagram_info_to_json(i) for i in infos],
                "isogeny_edges": [list(e) for e in edges],
            }
        )
    print(f"type: {t}")
    print(f"fundamental group: {_fmt_group(dec.fundamental_group)}")
    parts = ", ".join(
        f"{b.cartan_type} (nodes {b.start}..{b.stop}, {_fmt_group(g)})"
        for b, g in zip(dec.components, dec.component_groups)
    )
    print(f"components: {parts}")
    print("diagrams:")
    for i, info in enumerate(infos):
        sub = _fmt_subgroup(info.diagram.subgroup)
        print(f"  [{i}] {info.label}  subgroup {sub}  center {_fmt_group(info.center)}")
    print("isogeny edges:")
    for i, j in edges:
        print(f"  {infos[i].label} -> {infos[j].label}")
    orders = [info.diagram.subgroup.order for info in infos]
    if any(orders.count(o) > 1 for o in set(orders)):
        print(
            "note: subgroups of equal order are listed as distinct character "
            "lattices; diagram symmetries (triality for D4) may identify the "
            "corresponding groups."
        )
    return 0


def _cmd_atlas(args) -> int:
    # the atlas reads only the quotient, free rank and match
    entries = [
        build_entry(
            t, args.bound, args.enumeration_cap, args.grading_dim_cap, _early=True
        )
        for t in admissible_irreducible_types(args.max_rank)
    ]
    if args.format == "json":
        return _emit(
            atlas_to_json(
                entries,
                max_rank=args.max_rank,
                bound=args.bound,
                enumeration_cap=args.enumeration_cap,
                grading_dim_cap=args.grading_dim_cap,
            )
        )
    print(f"atlas: max rank {args.max_rank}, grading bound {args.bound}")
    for e in entries:
        name = str(e.cartan_type)
        if e.error is not None:
            print(f"{name:<4} error: {e.error}")
            continue
        g = e.grading
        if g.error is not None:
            grading_text = g.error
        else:
            status = "yes" if g.matches else "no"
            grading_text = f"{_fmt_group(g.presentation.quotient)} (matches: {status})"
        pi1 = _fmt_group(e.fundamental_group)
        print(
            f"{name:<4} pi1 {pi1:<14} diagrams {len(e.diagrams)}  "
            f"grading {grading_text}"
        )
    return 0


_NEGATIVE_WEIGHT = re.compile(r"-\d")


class _Parser(argparse.ArgumentParser):
    """Reads ``-1,0`` as a weight, not an option: argparse alone does so
    only for a bare number, and no option here starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_WEIGHT


def _take_grade_weight(args, extras: list[str]) -> list[str]:
    """Give ``grade`` back a weight that follows an option.

    argparse fills the optional weight with nothing as soon as an option
    follows the type, so in ``grade A2 --bound 2 1,0`` the weight ends up
    among the unrecognized arguments, behind ``--`` if one was given.  (Its
    ``parse_intermixed_args`` refuses a parser with subparsers.)  Returns
    the arguments that are still unrecognized.
    """
    if args.command != "grade" or args.weight is not None:
        return extras
    dashed = extras[:1] == ["--"]
    rest = extras[dashed:]
    if len(rest) > 1:
        return extras
    if rest:
        token = rest[0]
        if not dashed and token.startswith("-") and not _NEGATIVE_WEIGHT.match(token):
            return extras
        args.weight = token
    return []


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rootatlas",
        description="Exact root system and isogeny atlas computations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common], help="list the roots of a type")
    p.add_argument("type")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser(
        "weights", parents=[common],
        help="dominant weight multiplicities of an irreducible module",
    )
    p.add_argument("type")
    p.add_argument("weight")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("dim", parents=[common], help="dimension of a highest weight module")
    p.add_argument("type")
    p.add_argument("weight")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("tensor", parents=[common], help="decompose a tensor product")
    p.add_argument("type")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser(
        "grade", parents=[common],
        help="class of a weight in P/Q, or the universal grading group",
    )
    p.add_argument("type")
    p.add_argument(
        "weight", nargs="?", default=None,
        help="weight to classify; omit to present the whole grading group",
    )
    p.add_argument("--bound", type=int, default=3, help="generator coordinate sum bound")
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser(
        "equiv", parents=[common],
        help="search for a tensor word proving two weights generate each other",
    )
    p.add_argument("type")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--bound", type=int, default=3, help="letter coordinate sum bound")
    p.add_argument("--depth", type=int, default=4, help="maximum word length")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser(
        "classify", parents=[common],
        help="diagrams, centers, and isogeny order for one type",
    )
    p.add_argument("type")
    p.add_argument(
        "--enumeration-cap", type=int, default=DEFAULT_ENUMERATION_CAP,
        help="largest fundamental group order to enumerate",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "atlas", parents=[common],
        help="classification atlas over all admissible irreducible types",
    )
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument(
        "--enumeration-cap", type=int, default=DEFAULT_ENUMERATION_CAP,
        help="largest fundamental group order to enumerate",
    )
    p.add_argument(
        "--grading-dim-cap", type=int, default=DEFAULT_GRADING_DIM_CAP,
        help="skip an entry's grading when a generator module is larger than this",
    )
    p.set_defaults(func=_cmd_atlas)

    return parser


def _validate(args) -> str | None:
    limits = (
        ("bound", 0),
        ("depth", 1),
        ("max_rank", 1),
        ("enumeration_cap", 1),
        ("grading_dim_cap", 1),
    )
    for name, low in limits:
        value = getattr(args, name, None)
        if value is not None and value < low:
            return f"--{name.replace('_', '-')} must be at least {low}"
    return None


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        extras = _take_grade_weight(args, extras)
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    problem = _validate(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CartanTypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): nothing more can be
        # written, so point stdout at devnull to keep the exit-time flush
        # from failing too, and exit as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + signal.SIGPIPE
    raise SystemExit(code)


if __name__ == "__main__":
    main()
