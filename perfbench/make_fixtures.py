"""Record the expected output fingerprint of every benchmark job.

    python3 perfbench/make_fixtures.py

Run once, from the root of a checkout of the code the fixtures should pin;
it rewrites ``perfbench/fixtures.json``. The ``signed`` section doubles as
the pool the signed workload draws from: every candidate Cartan matrix of
entry sums 13..16 with its signed solution count and digest. ``signed_cost``
holds each pool target's number of PSD checks in the pure-Python kernel,
which the draw stratifies by.
"""

from __future__ import annotations

import json

from run import HERE, prepare


def main() -> None:
    prepare()
    import workloads as w
    from blocksmith import _kernel, _kernel_py, cartan, gram

    if _kernel.available_backends() != ("python",):
        raise SystemExit("record fixtures with the pure-Python kernel only")
    psd_checks = 0
    is_psd = _kernel_py._is_psd

    def counting_is_psd(a):
        nonlocal psd_checks
        psd_checks += 1
        return is_psd(a)

    fixtures: dict = {
        "casebook": {}, "signed": {}, "signed_cost": {}, "sweep": {}, "trees": {},
    }
    for d in w.CASEBOOK_DIMS:
        fp = w.FINGERPRINT["casebook"](w.casebook_job(d))
        if fp["exit"] != 0 or fp["regressions"]:
            raise SystemExit(f"casebook dimension {d} does not pass: {fp}")
        fixtures["casebook"][str(d)] = fp
    for n in w.SIGNED_SUMS:
        for l in w.sizes(n):
            for c in cartan.enumerate_cartan(n, l):
                problem = gram.GramProblem(c.matrix, sign_mode="signed")
                key = w.matrix_key(c.matrix.rows)
                psd_checks = 0
                _kernel_py._is_psd = counting_is_psd
                try:
                    sols = w.signed_job(problem)
                finally:
                    _kernel_py._is_psd = is_psd
                fixtures["signed"][key] = w.FINGERPRINT["signed"](sols)
                fixtures["signed_cost"][key] = psd_checks
    for n in w.SWEEP_SUMS:
        for l in w.sizes(n):
            group = w.sweep_screen_job(n, l)
            fixtures["sweep"][f"{n}/{l}"] = w.FINGERPRINT["sweep"](group)
            for c, defect_order in group[1]:
                key = w.matrix_key(c.matrix.rows)
                fixtures["sweep"][key] = w.FINGERPRINT["sweep"](
                    w.sweep_resolve_job(c, defect_order)
                )
    for n in w.TREES_DIMS:
        fixtures["trees"][str(n)] = w.FINGERPRINT["trees"](w.trees_job(n))
    (HERE / "fixtures.json").write_text(
        json.dumps(fixtures, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
