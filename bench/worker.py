"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 bench/worker.py SPEC`` where SPEC is a JSON
object with the keys ``workload``, ``seed``, ``small``, ``trace``,
``corrupt``, ``setup_only`` and ``launched`` (the parent's
``time.perf_counter()`` just before it started this process; on Linux that
clock is CLOCK_MONOTONIC, which all processes share).  Prints one JSON
object on stdout.  A ``setup_only`` worker stops after set-up.

Times are taken on ``speedref.work_clock`` and reported at the reference
speed: set-up, the loop and each operation are multiplied by the speed
``speedref`` measured around them, and self times by the mean speed of the
repetition.  The raw wall time of the loop and the mean speed go along for
the stderr summary.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(spec: dict) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    import speedref

    speedref.start()
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]](spec["seed"], spec["small"])
    launched, set_up = spec["launched"], speedref.work_clock()
    if spec["setup_only"]:
        speedref.stop()
        return {"setup_s": (set_up - launched) * speedref.local_speed(launched, set_up)}

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    # (start, duration) of each operation on the work clock
    ops: list[tuple[float, float]] = []
    t0 = time.perf_counter()
    w0 = speedref.work_clock()
    result = workload.run(ops)
    w1 = speedref.work_clock()
    raw_wall_s = time.perf_counter() - t0
    speed, samples = speedref.stop()
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if spec["corrupt"]:
        result = workload.corrupt(result)
    failures = workload.check(result, ops)
    out = {
        "setup_s": (set_up - launched) * speedref.local_speed(launched, set_up),
        "wall_s": (w1 - w0) * speedref.local_speed(w0, w1),
        "op_ms": [dt * 1e3 * speedref.local_speed(t, t + dt) for t, dt in ops],
        "raw_wall_s": raw_wall_s,
        "speed": speed,
        "speed_samples": samples,
        "peak_rss_mb": rss_mb,
        "attempted": workload.attempted(),
        "failures": failures,
    }
    if tracer is not None:
        report = tracer.report(speed)
        for layer in workload.expected_layers:
            if report["exact"][f"{layer}.spans"] == 0:
                failures.append(f"layer {layer} recorded no spans")
        out["trace"] = report
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
