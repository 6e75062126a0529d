#!/usr/bin/env python3
"""Build the classification atlas and write it as JSON, the same bytes as
`rootatlas atlas --format json`.

Like the atlas verb, each entry's grading stops at the first tensor
relations that present P/Q.  Per-entry wall time goes to stderr.
README.md's paragraph on the default atlas gives its measured time and
memory and where the time goes.
"""

import argparse
import json
import sys
import time

from rootatlas.classify import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_GRADING_DIM_CAP,
    admissible_irreducible_types,
    atlas_to_json,
    build_entry,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=int, default=4)
    ap.add_argument("--bound", type=int, default=3)
    ap.add_argument("--enumeration-cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    ap.add_argument("--grading-dim-cap", type=int, default=DEFAULT_GRADING_DIM_CAP)
    ap.add_argument("--output", default="atlas.json", help="output path, - for stdout")
    args = ap.parse_args()

    entries = []
    for t in admissible_irreducible_types(args.max_rank):
        t0 = time.monotonic()
        entry = build_entry(
            t, args.bound, args.enumeration_cap, args.grading_dim_cap, _early=True
        )
        entries.append(entry)
        status = entry.error or entry.grading.error or "ok"
        print(f"{t}: {time.monotonic() - t0:.2f}s ({status})", file=sys.stderr)

    blob = json.dumps(
        atlas_to_json(
            entries,
            max_rank=args.max_rank,
            bound=args.bound,
            enumeration_cap=args.enumeration_cap,
            grading_dim_cap=args.grading_dim_cap,
        ),
        indent=2,
    )
    if args.output == "-":
        print(blob)
    else:
        with open(args.output, "w") as fh:
            fh.write(blob + "\n")
        print(f"wrote {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
