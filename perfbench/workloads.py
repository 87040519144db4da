"""The four benchmark workloads: job lists and output fingerprints.

Each workload is a generator of passes; a pass is an iterable of
``(key, thunk)`` jobs, and ``thunk()`` makes the program calls the job
times. ``FINGERPRINT[name](output)`` reduces a job's output to the value
stored under ``key`` in ``fixtures.json``, which was recorded from the seed
code by ``make_fixtures.py``.

Every program call looks its function up on the defining module at call
time (``gram.solve``, not a local alias), so the tracer's wrappers apply.
``src`` must be on ``sys.path`` before this module is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from functools import partial

from blocksmith import brauer, cartan, cli, contrib, gram
from blocksmith.intmat import IntMatrix

CASEBOOK_DIMS = (13, 14, 15)
CASEBOOK_ROUNDS = 20
SIGNED_SUMS = range(13, 17)
# Share of each entry sum's candidates that a signed pass draws. The whole
# pool of sums 13..16 takes about 14 s; drawing 5/6 of it keeps a pass near
# 10 s while the draw's median and 90th-percentile job cost stay within a
# few percent from seed to seed.
SIGNED_SHARE = 5 / 6
SWEEP_SUMS = range(13, 23)
# Dimensions 20..34 reach 8-edge trees, and canonical_perm_form takes two
# thirds of a pass (5 s); 35 and 36 would add 9 s, leaving two passes per
# run, too few for steady latency percentiles.
TREES_DIMS = range(20, 35)


def _sha(obj) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def matrix_key(rows) -> str:
    return json.dumps([list(r) for r in rows], separators=(",", ":"))


def sizes(n: int) -> range:
    """Every candidate size l that entry sum n admits."""
    l = 1
    while cartan.min_sum_for_l(l + 1) <= n:
        l += 1
    return range(1, l + 1)


# -- casebook: the paper's per-dimension case analyses through the CLI ----

def casebook_job(dim: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(["casebook", "run", "--dim", str(dim)])
    return code, buf.getvalue()


def _casebook_fp(out) -> dict:
    code, text = out
    return {
        "exit": code,
        "sha256": _sha(text.encode()),
        "regressions": len(json.loads(text)["payload"]["regressions"]),
    }


def casebook_passes(rng: random.Random, fixtures: dict):
    while True:
        jobs = []
        for _ in range(CASEBOOK_ROUNDS):
            dims = list(CASEBOOK_DIMS)
            rng.shuffle(dims)
            jobs += [(str(d), partial(casebook_job, d)) for d in dims]
        yield jobs


# -- signed: signed Gram search on a stratified draw from a stored pool ---

def signed_job(problem):
    return gram.solve(problem)


def _solutions_fp(sols) -> dict:
    return {"solutions": len(sols), "sha256": _sha([s.q.to_lists() for s in sols])}


def draw_signed(rng: random.Random, cost: dict) -> list[str]:
    """A stratified draw of SIGNED_SHARE of the pool's targets per entry sum.

    ``cost`` maps each pool target to the kernel's PSD-check count, recorded
    with the fixtures; it predicts search time closely. Within an entry sum
    the targets are ordered by it and cut into as many equal strata as are
    drawn, and one target is drawn from each, so every draw spans the same
    range of costs.
    """
    drawn = []
    for n in SIGNED_SUMS:
        keys = sorted(
            (k for k in cost if sum(map(sum, json.loads(k))) == n),
            key=lambda k: (cost[k], k),
        )
        m = len(keys)
        count = round(m * SIGNED_SHARE)
        for i in range(count):
            drawn.append(rng.choice(keys[i * m // count:(i + 1) * m // count]))
    return drawn


def signed_passes(rng: random.Random, fixtures: dict):
    jobs = []
    for key in draw_signed(rng, fixtures["signed_cost"]):
        problem = gram.GramProblem(IntMatrix.from_rows(json.loads(key)), sign_mode="signed")
        jobs.append((key, partial(signed_job, problem)))
    while True:
        rng.shuffle(jobs)
        yield list(jobs)


# -- sweep: enumerate, screen, nonnegative solve, contribution -----------
# One job enumerates and screens an (entry sum, size) group; then one job
# per feasible candidate solves it and derives the contribution diagonals.
# The jobs are many, so the latency percentiles are steady.

def sweep_screen_job(n: int, l: int):
    cands = cartan.enumerate_cartan(n, l)
    feasible = []
    for c in cands:
        verdict = cartan.filter_block_feasible(c)
        if verdict.feasible:
            feasible.append((c, verdict.defect_order))
    return len(cands), feasible


def sweep_resolve_job(cand, defect_order: int):
    return [
        list(contrib.contribution_matrix(s.q, cand.matrix, defect_order).diagonal)
        for s in gram.solve(gram.GramProblem(cand.matrix))
    ]


def _sweep_fp(out) -> str:
    if isinstance(out, tuple):  # a screened group
        count, feasible = out
        return f"{count}/{len(feasible)}/{_sha([c.matrix.to_lists() for c, _ in feasible])[:16]}"
    return f"{len(out)}/{_sha(out)[:16]}"


def _collect(found: list, thunk):
    out = thunk()
    found.extend(out[1])
    return out


def sweep_pass(groups):
    """The jobs of one pass over the (entry sum, size) groups, in order.

    A generator: the runner runs each job before asking for the next, so a
    group's feasible candidates are known when their jobs are made. A group
    whose job failed yields no candidate jobs.
    """
    for n, l in groups:
        found: list = []
        yield f"{n}/{l}", partial(_collect, found, partial(sweep_screen_job, n, l))
        for cand, defect_order in found:
            yield matrix_key(cand.matrix.rows), partial(sweep_resolve_job, cand, defect_order)


def sweep_passes(rng: random.Random, fixtures: dict):
    groups = [(n, l) for n in SWEEP_SUMS for l in sizes(n)]
    while True:
        rng.shuffle(groups)
        yield sweep_pass(list(groups))


# -- trees: defect-one Brauer tree classification -------------------------

def trees_job(n: int):
    return brauer.classify_defect1(n)


def _trees_fp(matches) -> str:
    return _sha([m.to_obj() for m in matches])


def trees_passes(rng: random.Random, fixtures: dict):
    jobs = [(str(n), partial(trees_job, n)) for n in TREES_DIMS]
    while True:
        rng.shuffle(jobs)
        yield list(jobs)


PASSES = {
    "casebook": casebook_passes,
    "signed": signed_passes,
    "sweep": sweep_passes,
    "trees": trees_passes,
}

FINGERPRINT = {
    "casebook": _casebook_fp,
    "signed": _solutions_fp,
    "sweep": _sweep_fp,
    "trees": _trees_fp,
}
