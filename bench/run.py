"""Benchmark of rootatlas, stdlib only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs in
a fresh interpreter (``worker.py``), one process with one thread, so the
library's module caches start cold as they do for a CLI invocation.
Repetitions run one after another until the next one would end after
``--seconds``; a run makes at least three untraced repetitions, or with
``--trace 1`` at least two untraced and two traced ones, alternating.

Every time the benchmark reports is at the reference speed of
``speedref.py``: a time taken on its work clock, which leaves out the speed
samples, times the mean speed of the samples taken in and around it.  The
speed of a process on a shared host swings by up to 1.8 times, more than
any bound an end-to-end metric may have; scaled this way, the times of one
workload vary by a few per cent.  The raw wall time and the speed go to
stderr.

``--trace 0`` reports the end-to-end metrics of the untraced repetitions:

    setup_s      worker start through import and input generation (median
                 over the untraced repetitions and ``SETUP_ONLY`` more
                 workers before each, which stop after set-up)
    wall_s       the timed loop (median)
    op_p50_ms    median time of one operation, pooled over repetitions
    op_p95_ms    95th percentile of the time of one operation, pooled over
                 repetitions
    peak_rss_mb  the worker's ru_maxrss (median)

On atlas-r5b2 one operation is one atlas entry: 17 a repetition, so its
95th percentile is close to the slowest entry.

``--trace 1`` reports the per-layer metrics of the traced repetitions (see
``tracer.py``) and ``trace.overhead_share``: the median, over traced
repetitions, of the traced wall time over that of the untraced repetition
just before it, minus one.

Every repetition checks its outputs after the timed loop.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable summary, with ``fail_share``, the
median operation time and the sample counts, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402

# the names of workloads.WORKLOADS; this process does not import the library
WORKLOADS = ("atlas-r5b2", "tensor-cold", "equiv-warm")
MIN_UNTRACED = 3
MIN_TRACED = 2
# extra workers that stop after set-up, started before each untraced
# repetition: one set-up time varies by about 15% from launch to launch,
# so the median needs more samples than there are repetitions
SETUP_ONLY = 2
# every run, with its repetitions and checks, must end well inside 180 s
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    # str hashing decides the iteration order of some sets; fix it so that
    # work counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec: dict, deadline: float) -> dict:
    spec = dict(spec, launched=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=worker_env(),
            timeout=max(5.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} repetition ran past the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def repetitions(workload, seed, seconds, trace, small=False, corrupt=False):
    """Untraced and traced repetitions of one workload, within the budget,
    and the set-up times of the untraced and the set-up-only workers."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    reps = {False: [], True: []}
    setups = []
    last_s = {False: 0.0, True: 0.0}
    while True:
        traced = bool(trace) and len(reps[True]) < len(reps[False])
        if trace:
            short = len(reps[True]) < MIN_TRACED
        else:
            short = len(reps[False]) < MIN_UNTRACED
        if not short and time.perf_counter() - start + last_s[traced] > seconds:
            break
        spec = {
            "workload": workload,
            "seed": seed,
            "small": small,
            "trace": traced,
            "corrupt": corrupt,
            "setup_only": False,
        }
        t0 = time.perf_counter()
        if not traced:
            for _ in range(SETUP_ONLY):
                setups.append(run_worker(dict(spec, setup_only=True), deadline)["setup_s"])
        reps[traced].append(run_worker(spec, deadline))
        last_s[traced] = time.perf_counter() - t0
    setups += [r["setup_s"] for r in reps[False]]
    return reps[False], reps[True], setups


def percentile(samples: list, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(untraced: list, setups: list) -> dict:
    ops = [ms for rep in untraced for ms in rep["op_ms"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
        "op_p50_ms": (percentile(ops, 50), "ms"),
        "op_p95_ms": (percentile(ops, 95), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
    }


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def per_layer(untraced: list, traced: list, failures: list) -> dict:
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            statistics.median(r["trace"]["self_s"][layer] for r in traced),
            "s",
        )
    exact = traced[0]["trace"]["exact"]
    if any(r["trace"]["exact"] != exact for r in traced[1:]):
        failures.append("exact work counts differ between traced repetitions")
    tensor_calls = exact["repring.tensor_decompose.spans"]
    equiv_calls = exact["grading.tensor_equivalent.spans"]
    out.update(
        {
            "rootsys.weyl_orbit.calls": (exact["rootsys.weyl_orbit.spans"], "count"),
            "rootsys.weyl_orbit.points": (exact["rootsys.weyl_orbit.points"], "count"),
            "repring.weight_multiplicities.weights": (
                exact["repring.weight_multiplicities.weights"],
                "count",
            ),
            "repring.tensor_decompose.calls": (tensor_calls, "count"),
            "repring.tensor_decompose.repeat_share": (
                share(exact["repring.tensor_decompose.repeats"], tensor_calls),
                "share",
            ),
            "grading.generate_relations.relations": (
                exact["grading.generate_relations.relations"],
                "count",
            ),
            "grading.universal_grading_group.matrix_cells": (
                exact["grading.universal_grading_group.matrix_cells"],
                "count",
            ),
            "lattice.smith_normal_form.calls": (exact["lattice.smith_normal_form.spans"], "count"),
            "lattice.smith_normal_form.cells": (exact["lattice.smith_normal_form.cells"], "count"),
            "grading.tensor_equivalent.found_share": (
                share(exact["grading.tensor_equivalent.found"], equiv_calls),
                "share",
            ),
            # each traced repetition against the untraced one just before
            # it, so that slow drift in machine speed cancels
            "trace.overhead_share": (
                statistics.median(t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced))
                - 1,
                "share",
            ),
        }
    )
    return out


def run(workload, seed, seconds, trace, small=False, corrupt=False) -> dict:
    """Measure one workload and check its outputs; the result object plus
    the details the stderr summary shows."""
    untraced, traced, setups = repetitions(workload, seed, seconds, trace, small, corrupt)
    reps = untraced + traced
    failures = [f for r in reps for f in r["failures"]]
    failed = sum(min(len(r["failures"]), r["attempted"]) for r in reps)
    checks = []
    metrics = per_layer(untraced, traced, checks) if trace else end_to_end(untraced, setups)
    failures += checks
    failed += len(checks)
    attempted = sum(r["attempted"] for r in reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": {
            "fail_share": failed / attempted,
            "failures": failures,
            "repetitions": {"untraced": len(untraced), "traced": len(traced)},
            "op_samples": sum(len(r["op_ms"]) for r in untraced),
            "setup_samples": len(setups),
            "traced_wall_s": statistics.median(r["wall_s"] for r in traced) if traced else None,
            "raw_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
            "speed": statistics.median(r["speed"] for r in reps),
            "speed_samples": min(r["speed_samples"] for r in reps),
        },
    }


def summarize(workload: str, result: dict) -> None:
    d = result["details"]
    print(
        f"{workload}: {d['repetitions']['untraced']} untraced and "
        f"{d['repetitions']['traced']} traced repetitions, "
        f"{d['op_samples']} untraced operation samples, {d['setup_samples']} set-up samples",
        file=sys.stderr,
    )
    for name, m in result["metrics"].items():
        line = f"  {name:<46} {m['value']:>14.6g} {m['unit']}"
        if name.endswith(".self_s") and d["traced_wall_s"]:
            line += f"   ({m['value'] / d['traced_wall_s']:.1%} of traced wall)"
        print(line, file=sys.stderr)
    print(
        f"  {'raw wall, at the measured speed':<46} {d['raw_wall_s']:>14.6g} s "
        f"(speed {d['speed']:.3f} of reference, at least {d['speed_samples']} samples "
        f"a repetition)",
        file=sys.stderr,
    )
    print(
        f"  {'fail_share':<46} {d['fail_share']:>14.6g} share "
        f"({result['failed']} of {result['attempted']})",
        file=sys.stderr,
    )
    for failure in d["failures"][:20]:
        print(f"  FAILED: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rootatlas", "__init__.py")):
        print("bench: src/rootatlas not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    # write the bytecode once, so no repetition pays for compiling it
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC, HERE],
        check=True,
        env=worker_env(),
        stdout=subprocess.DEVNULL,
    )
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    summarize(args.workload, result)
    del result["details"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
