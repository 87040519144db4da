"""Layered benchmark of blocksmith: four closed-loop workloads, one client.

    python3 perfbench/run.py --workload casebook|signed|sweep|trees \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``. A run repeats passes over the workload's job list while another
pass still fits in ``--seconds`` (at least one pass), checks every job's
output against ``fixtures.json`` and prints one JSON object as its last
line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
writing the spans to ``.bench_trace/``.

End-to-end times are scaled by the host gauge (see ``HostGauge``); the
lines above the JSON give them as measured too.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("casebook", "signed", "sweep", "trees")
SETUP_REPEATS = 9
GAUGE_EVERY_S = 0.5
GAUGE_NOMINAL_S = 0.020
SETUP_CODE = """
import time
t0 = time.perf_counter()
import blocksmith.cli
from blocksmith import casebook
casebook.load_local_data()
for d in (13, 14, 15):
    casebook.load_rules(d)
    casebook.load_realizations(d)
print(time.perf_counter() - t0)
"""


def prepare() -> None:
    """Point the interpreter and the program's environment at the checkout."""
    src = ROOT / "src"
    if not (src / "blocksmith" / "__init__.py").is_file():
        raise SystemExit(f"error: no blocksmith sources under {src}")
    os.environ["BLOCKSMITH_MAX_SUM"] = "22"  # the sweep reaches entry sum 22
    os.environ.pop("BLOCKSMITH_KERNEL", None)  # let the program pick its kernel
    sys.path.insert(0, str(src))
    import blocksmith

    if Path(blocksmith.__file__).resolve().parent != (src / "blocksmith").resolve():
        raise SystemExit(f"error: blocksmith imported from {blocksmith.__file__}, not {src}")


def load_fixtures() -> dict:
    path = HERE / "fixtures.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def reference_work() -> int:
    """Fixed pure-Python work that gauges the host's speed: fraction-free
    elimination of a constant 6x6 integer matrix, repeated."""
    base = [[(i * 7 + j * 3) % 11 + (12 if i == j else 0) for j in range(6)] for i in range(6)]
    acc = 0
    for _ in range(1000):
        a = [row[:] for row in base]
        prev = 1
        for k in range(6):
            akk = a[k][k]
            for i in range(k + 1, 6):
                for j in range(k + 1, 6):
                    a[i][j] = (akk * a[i][j] - a[i][k] * a[k][j]) // prev
            prev = akk
        acc += prev
    return acc


class HostGauge:
    """Times ``reference_work`` between jobs, at most every GAUGE_EVERY_S.

    The host is a shared virtual machine whose speed drifts by up to a
    third over minutes. ``factor()`` scales the run's times to the host
    speed at which ``reference_work`` takes GAUGE_NOMINAL_S, so that runs
    made in slow and fast periods compare.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0.0

    def maybe_sample(self) -> None:
        if time.perf_counter() < self._next:
            return
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._next = t1 + GAUGE_EVERY_S

    def factor(self) -> float:
        return GAUGE_NOMINAL_S / statistics.median(self.samples)


class Tally:
    """Latencies, pass walls and failures of the passes of one kind."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0


def run_pass(jobs, expected: dict, fingerprint, tally: Tally, tracer=None,
             gauge: HostGauge | None = None) -> None:
    """Run one pass; only the program calls are timed, not the checks."""
    wall = 0.0
    for key, thunk in jobs:
        if gauge is not None:
            gauge.maybe_sample()
        if tracer is not None:
            tracer.job = f"{tally.attempted}:{key}"  # unique per job run
        t0 = time.perf_counter()
        try:
            out = thunk()
        except Exception:
            dt = time.perf_counter() - t0
            ok = False
            traceback.print_exc(limit=3, file=sys.stderr)
        else:
            dt = time.perf_counter() - t0
            ok = fingerprint(out) == expected.get(key)
            if not ok:
                print(f"fingerprint mismatch on job {key}", file=sys.stderr)
        wall += dt
        tally.latencies.append(dt)
        tally.attempted += 1
        tally.failed += not ok
    tally.walls.append(wall)


def measure_setup() -> float:
    """Median time, in fresh processes, to import the CLI and load its data."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def once() -> float:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(proc.stdout.strip().splitlines()[-1])

    once()  # writes bytecode caches on a fresh checkout
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def run(workload: str, seed: int, seconds: float, trace: bool, fixtures: dict,
        trace_dir: Path | None = None) -> dict:
    import tracing
    import workloads

    expected = fixtures[workload]
    fingerprint = workloads.FINGERPRINT[workload]
    passes = workloads.PASSES[workload](random.Random(seed), fixtures)
    gauge = HostGauge()
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer() if trace else None
    setup_s = None if trace else measure_setup()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(next(passes), expected, fingerprint, plain, gauge=gauge)
        if tracer is not None:
            tracer.install()
            try:
                run_pass(next(passes), expected, fingerprint, traced, tracer, gauge)
            finally:
                tracer.uninstall()
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > seconds:
            break

    gauge_ms = 1000 * statistics.median(gauge.samples)
    if tracer is None:
        lat = plain.latencies
        raw = {
            "wall_s": statistics.median(plain.walls),
            "job_p50_ms": 1000 * statistics.median(lat),
            "job_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            "setup_s": setup_s,
        }
        scale = gauge.factor()
        metrics = {name: (value * scale, name.rsplit("_", 1)[1]) for name, value in raw.items()}
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        )
        tallies = [plain]
    else:
        raw = {}
        metrics = tracing.per_layer_metrics(
            tracer, len(traced.walls),
            statistics.median(traced.walls), statistics.median(plain.walls),
        )
        metrics["host.gauge_ms"] = (gauge_ms, "ms")
        if trace_dir is not None:
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{workload}-seed{seed}.jsonl")
        tallies = [plain, traced]

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    return {
        "workload": workload,
        "passes": sum(len(t.walls) for t in tallies),
        "samples": len(plain.latencies),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "gauge_ms": gauge_ms,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prepare()
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), load_fixtures(),
              trace_dir=ROOT / ".bench_trace")
    frac = res["failed"] / res["attempted"]
    print(f"workload {res['workload']}: {res['passes']} passes, {res['attempted']} jobs, "
          f"{res['samples']} latency samples, failed_frac {frac:.4f}, "
          f"host gauge {res['gauge_ms']:.3f} ms (nominal {1000 * GAUGE_NOMINAL_S:.1f} ms)")
    for name, (value, unit) in res["metrics"].items():
        measured = f"  (as measured {res['raw'][name]:.6f})" if name in res["raw"] else ""
        print(f"  {name:<26} {value:>14.6f} {unit}{measured}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
