"""Self-tests of the benchmark itself, on short versions of each workload.

    python3 perfbench/selftest.py

Checks that
- every binding of a traced function is wrapped, in each module that
  imports it by name, and each workload reaches the layers it is meant to
  exercise and no layer it is meant to leave alone;
- a corrupted fingerprint is caught and counted as a failed job;
- the deterministic counters repeat exactly across two traced runs with
  the same seed.
"""

from __future__ import annotations

import copy
import random
import sys

from run import Tally, load_fixtures, prepare, run_pass



# Layers each workload must reach, and layers it must never call.
EXPECTED = {
    "casebook": (
        {"cli.dispatch", "casebook.run", "cartan.enumerate", "cartan.screen",
         "intmat.canonical", "gram.solve", "gram.verify", "gram.column",
         "kernel.search", "contrib.matrix", "brauer.classify", "brauer.trees"},
        set(),
    ),
    "signed": (
        {"gram.solve", "gram.verify", "kernel.search"},
        {"cli.dispatch", "casebook.run", "cartan.enumerate", "cartan.screen",
         "intmat.canonical", "gram.column", "contrib.matrix", "brauer.classify",
         "brauer.trees"},
    ),
    "sweep": (
        {"cartan.enumerate", "cartan.screen", "intmat.canonical", "gram.solve",
         "gram.verify", "kernel.search", "contrib.matrix"},
        {"cli.dispatch", "casebook.run", "gram.column", "brauer.classify",
         "brauer.trees"},
    ),
    "trees": (
        {"brauer.classify", "brauer.trees", "intmat.canonical"},
        {"cli.dispatch", "casebook.run", "cartan.enumerate", "cartan.screen",
         "gram.solve", "gram.verify", "gram.column", "kernel.search",
         "contrib.matrix"},
    ),
}

# Bindings made by "from .module import name" that calls go through.
REQUIRED_BINDINGS = {
    "blocksmith.casebook.solve", "blocksmith.cli.solve",
    "blocksmith.casebook.enumerate_cartan", "blocksmith.cli.enumerate_cartan",
    "blocksmith.casebook.filter_block_feasible", "blocksmith.cli.filter_block_feasible",
    "blocksmith.casebook.classify_defect1", "blocksmith.cli.classify_defect1",
    "blocksmith.casebook.contribution_matrix", "blocksmith.cli.contribution_matrix",
    "blocksmith.casebook.solve_orthogonal_column",
    "blocksmith.cartan.canonical_perm_form", "blocksmith.brauer.canonical_perm_form",
}

DETERMINISTIC = (
    "kernel.raw_sequences", "gram.solutions", "gram.canonical_ratio",
    "cartan.candidates", "intmat.canonical_calls", "brauer.trees",
    "brauer.matches", "gram.columns",
)

# A few jobs of the first pass of each workload, picked so that every
# expected layer is reached; the sweep pass is a generator of jobs.
SHORT = {
    "casebook": lambda w, rng, fx: next(w.casebook_passes(rng, fx))[:3],
    "signed": lambda w, rng, fx: next(w.signed_passes(rng, fx))[:6],
    "sweep": lambda w, rng, fx: w.sweep_pass([(15, 1), (15, 3), (16, 4)]),
    "trees": lambda w, rng, fx: [
        job for job in next(w.trees_passes(rng, fx)) if job[0] in ("20", "24", "25")
    ],
}


def short_jobs(workload: str, seed: int, fixtures: dict):
    import workloads

    return SHORT[workload](workloads, random.Random(seed), fixtures)


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    # an explicit raise, so the checks also run under python -O
    if not condition:
        raise CheckFailed(message)


def traced_short_run(workload: str, seed: int, fixtures: dict):
    """One traced short pass; returns the tracer, its tally and per-layer metrics."""
    import tracing
    import workloads

    jobs = short_jobs(workload, seed, fixtures)
    tally = Tally()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_pass(jobs, fixtures[workload], workloads.FINGERPRINT[workload], tally, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.per_layer_metrics(tracer, 1, tally.walls[0], tally.walls[0])
    return tracer, tally, metrics


def test_bindings() -> None:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = set(tracer.bindings())
    finally:
        tracer.uninstall()
    missing = REQUIRED_BINDINGS - wrapped
    check(not missing, f"bindings left unwrapped: {sorted(missing)}")
    from blocksmith import gram

    check(not hasattr(gram.solve, "__wrapped__"), "uninstall left a wrapper behind")


def test_layer_coverage(fixtures: dict) -> None:
    from tracing import layer_times

    for workload, (must, never) in EXPECTED.items():
        tracer, tally, _ = traced_short_run(workload, 1, fixtures)
        check(tally.failed == 0, f"{workload}: {tally.failed} jobs failed")
        _, _, calls = layer_times(tracer.spans)
        zero = sorted(name for name in must if calls.get(name, 0) == 0)
        check(not zero, f"{workload}: no spans for {zero}")
        stray = sorted(name for name in never if calls.get(name, 0))
        check(not stray, f"{workload}: unexpected spans for {stray}")


def test_corrupted_fingerprint_fails(fixtures: dict) -> None:
    import workloads

    def recording(jobs, keys: list):
        for key, thunk in jobs:
            keys.append(key)
            yield key, thunk

    for workload in EXPECTED:
        fingerprint = workloads.FINGERPRINT[workload]
        keys: list[str] = []
        good = Tally()
        run_pass(recording(short_jobs(workload, 3, fixtures), keys),
                 fixtures[workload], fingerprint, good)
        check(good.failed == 0, f"{workload}: stored fingerprints do not match")
        bad = copy.deepcopy(fixtures[workload])
        bad[keys[0]] = "corrupted"
        tally = Tally()
        run_pass(short_jobs(workload, 3, fixtures), bad, fingerprint, tally)
        frac = tally.failed / tally.attempted
        check(frac > 0, f"{workload}: corrupted fingerprint for {keys[0]} went unnoticed")


def test_counters_repeat(fixtures: dict) -> None:
    for workload in EXPECTED:
        first = traced_short_run(workload, 7, fixtures)[2]
        second = traced_short_run(workload, 7, fixtures)[2]
        for name in DETERMINISTIC:
            check(first[name] == second[name],
                  f"{workload}: {name} differs across runs: {first[name]} vs {second[name]}")


def main() -> int:
    prepare()
    fixtures = load_fixtures()
    tests = [
        ("bindings", test_bindings),
        ("layer coverage", lambda: test_layer_coverage(fixtures)),
        ("corrupted fingerprint", lambda: test_corrupted_fingerprint_fails(fixtures)),
        ("counters repeat", lambda: test_counters_repeat(fixtures)),
    ]
    failures = 0
    for name, test in tests:
        try:
            test()
        except CheckFailed as e:
            failures += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
