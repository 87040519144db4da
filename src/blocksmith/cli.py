"""Command-line front end.

Every invocation prints one JSON envelope to stdout:
{command, inputs_digest, status, payload}, with sorted keys and a trailing
newline, so identical inputs give byte-identical output. Exit codes:
0 ok, 1 invalid input, 2 proved empty, 3 casebook regression.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any, Sequence

from . import casebook as cb
from .brauer import (
    BrauerTreeError,
    classify_defect1,
    cartan_of_tree,
    enumerate_trees,
    invariants_of_tree,
    shape_name,
    _marked_code,
)
from .cartan import (
    CartanEnumError,
    enumerate_cartan,
    filter_block_feasible,
)
from .contrib import (
    ContributionError,
    contribution_matrix,
    heights_from_contribution,
)
from .gram import GramInputError, GramProblem, solve
from .intmat import (
    IntMatrix,
    MatrixError,
    matrix_from_obj,
    smith_normal_form,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_EMPTY = 2
EXIT_REGRESSION = 3


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise CliError(message)


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": ")) + "\n"


def _digest(command: str, inputs: Any) -> str:
    canon = json.dumps(
        {"command": command, "inputs": inputs},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _envelope(command: str, inputs: Any, status: str, payload: Any) -> dict:
    return {
        "command": command,
        "inputs_digest": _digest(command, inputs),
        "status": status,
        "payload": payload,
    }


def _invalid_input(command: str, inputs: Any, error: Exception) -> dict:
    return _envelope(command, inputs, "invalid_input", {"error": str(error)})


def _read_json_file(path: str, missing: str) -> Any:
    """The JSON value in the file at ``path``. A missing file raises the
    CliError ``missing``; another read error or malformed JSON names the
    path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(missing)
    except OSError as e:
        raise CliError(f"{path}: cannot read file: {e.strerror}")
    except json.JSONDecodeError as e:
        raise CliError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        )


def _parse_matrix(text: str) -> IntMatrix:
    """Inline JSON, or a path to a JSON file."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        missing = (
            f"matrix argument is neither valid JSON (error at position "
            f"{e.pos}: {e.msg}) nor an existing file: {text!r}"
        )
        try:
            exists = Path(text).exists()
        except OSError:
            # a name the system cannot look up, e.g. one past its length limit
            exists = False
        if not exists:
            raise CliError(missing)
        obj = _read_json_file(text, missing)
    try:
        return matrix_from_obj(obj)
    except MatrixError as e:
        raise CliError(str(e))


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty item, such as the one in ``1,``
    or in the empty string, is refused."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"expected comma-separated integers, got {text!r}")


def _parse_row_count(text: str) -> int | tuple[int, int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            return (int(lo), int(hi))
        except ValueError:
            raise CliError(f"bad row-count range {text!r}")
    try:
        return int(text)
    except ValueError:
        raise CliError(f"bad row count {text!r}")


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The parser of every command, built on the first dispatch and reused:
    parsing leaves no state in it (an appended default is copied before it
    grows, and an error raises ``CliError`` instead of exiting)."""
    p = _Parser(prog="blocksmith", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("enumerate-cartan", help="candidate Cartan matrices")
    pc.add_argument("--sum", type=int, required=True, dest="entry_sum")
    pc.add_argument("--l", type=int, required=True, dest="size")
    pc.add_argument("--feasible-only", action="store_true")
    pc.add_argument("--format", choices=("json", "csv", "table"), default="json")

    pg = sub.add_parser(
        "solve-gram",
        help="integral Gram decompositions",
        description=(
            "All integer Q with Q^t Q = C under the given constraints. Every "
            "row r of Q obeys r.adj(C).r^t < det C, with equality only when "
            "det C = 1, so [[4]] decomposes as four rows [1] but not as [2]."
        ),
    )
    pg.add_argument("--gram", required=True)
    pg.add_argument("--signed", action="store_true")
    pg.add_argument("--rows", default=None, help="exact count K or range K1..K2")
    pg.add_argument("--fixed", action="append", default=[],
                    help="known block whose cross-Gram with the solution vanishes")
    pg.add_argument("--diag", default=None,
                    help="prescribed contribution diagonal, comma-separated")
    pg.add_argument("--defect-order", type=int, default=None)
    pg.add_argument("--zero-rows", default=None, help="forced zero rows, comma-separated")
    pg.add_argument("--allow-zero-rows", action="store_true")

    ps = sub.add_parser("snf", help="Smith normal form")
    ps.add_argument("--matrix", required=True)

    pm = sub.add_parser("contribution", help="contribution matrix of a decomposition")
    pm.add_argument("--q", required=True)
    pm.add_argument("--c", required=True)
    pm.add_argument("--defect-order", type=int, required=True)
    pm.add_argument("--p", type=int, default=None)
    pm.add_argument("--heights", action="store_true")

    ph = sub.add_parser("heights", help="heights from a contribution diagonal")
    group = ph.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", default=None)
    group.add_argument("--diag", default=None)
    ph.add_argument("--p", type=int, required=True)

    pt = sub.add_parser("brauer-trees", help="Brauer trees and their Cartan data")
    tgroup = pt.add_mutually_exclusive_group(required=True)
    tgroup.add_argument("--edges", type=int, default=None)
    tgroup.add_argument("--dim", type=int, default=None)
    pt.add_argument("--multiplicity", type=int, default=1,
                    help="exceptional multiplicity for --edges listings")
    pt.add_argument("--format", choices=("json", "table"), default="json")

    pk = sub.add_parser("casebook", help="replay a per-dimension case analysis")
    ksub = pk.add_subparsers(dest="casebook_command", required=True)
    krun = ksub.add_parser("run")
    krun.add_argument("--dim", type=int, required=True)
    krun.add_argument("--rules", default=None)
    krun.add_argument("--report", default=None)
    krun.add_argument("--table", action="store_true")
    return p


def _cmd_enumerate(args) -> tuple[dict, int, str | None]:
    cands = enumerate_cartan(args.entry_sum, args.size)
    rows = []
    for c in cands:
        verdict = filter_block_feasible(c)
        if args.feasible_only and not verdict.feasible:
            continue
        obj = c.to_obj()
        obj["feasibility"] = verdict.to_obj()
        rows.append(obj)
    inputs = {
        "sum": args.entry_sum,
        "l": args.size,
        "feasible_only": args.feasible_only,
    }
    text = None
    if args.format == "csv":
        lines = ["matrix,det,elementary_divisors,verdict"]
        for obj in rows:
            flat = " ".join(str(x) for row in obj["matrix"] for x in row)
            divs = " ".join(str(d) for d in obj["elementary_divisors"])
            v = obj["feasibility"]
            verdict_s = "feasible" if v["feasible"] else v.get("reason", "infeasible")
            lines.append(f"{flat},{obj['det']},{divs},{verdict_s}")
        text = "\n".join(lines) + "\n"
    elif args.format == "table":
        lines = []
        for obj in rows:
            flat = " ".join(str(x) for row in obj["matrix"] for x in row)
            v = obj["feasibility"]
            verdict_s = "feasible" if v["feasible"] else v.get("reason", "infeasible")
            lines.append(f"{flat:<30} det={obj['det']:<4} {verdict_s}")
        text = "\n".join(lines) + "\n" if lines else "(no candidates)\n"
    return _envelope("enumerate-cartan", inputs, "ok", {"candidates": rows}), EXIT_OK, text


def _cmd_solve_gram(args) -> tuple[dict, int, str | None]:
    gram = _parse_matrix(args.gram)
    fixed = tuple(_parse_matrix(f) for f in args.fixed)
    diag = _parse_int_list(args.diag) if args.diag is not None else None
    zero = frozenset(_parse_int_list(args.zero_rows)) if args.zero_rows else frozenset()
    row_count = _parse_row_count(args.rows) if args.rows is not None else None
    problem = GramProblem(
        target_gram=gram,
        sign_mode="signed" if args.signed else "nonnegative",
        row_count=row_count,
        require_nonzero_rows=not args.allow_zero_rows,
        fixed_blocks=fixed,
        diag_constraints=diag,
        defect_order=args.defect_order,
        zero_rows=zero,
    )
    sols = solve(problem)
    inputs = {
        "gram": gram.to_lists(),
        "signed": args.signed,
        "rows": list(row_count) if isinstance(row_count, tuple) else row_count,
        "fixed": [f.to_lists() for f in fixed],
        "diag": list(diag) if diag else None,
        "defect_order": args.defect_order,
        "zero_rows": sorted(zero),
        "allow_zero_rows": args.allow_zero_rows,
    }
    payload = {
        "count": len(sols),
        "solutions": [{"rows": s.q.to_lists()} for s in sols],
    }
    status = "ok" if sols else "proved_empty"
    code = EXIT_OK if sols else EXIT_EMPTY
    return _envelope("solve-gram", inputs, status, payload), code, None


def _cmd_snf(args) -> tuple[dict, int, str | None]:
    m = _parse_matrix(args.matrix)
    res = smith_normal_form(m)
    payload = {
        "diagonal": list(res.diagonal),
        "left_transform": res.left_transform.to_lists(),
        "right_transform": res.right_transform.to_lists(),
    }
    return (
        _envelope("snf", {"matrix": m.to_lists()}, "ok", payload),
        EXIT_OK,
        None,
    )


def _cmd_contribution(args) -> tuple[dict, int, str | None]:
    q = _parse_matrix(args.q)
    c = _parse_matrix(args.c)
    res = contribution_matrix(q, c, args.defect_order)
    payload: dict = {
        "matrix": res.matrix.to_lists(),
        "diagonal": list(res.diagonal),
        "defect_order": args.defect_order,
    }
    if args.heights or args.p is not None:
        if args.p is None:
            raise CliError("--heights needs --p")
        prof = heights_from_contribution(res, args.p)
        payload["heights"] = list(prof.heights)
        payload["height_zero_count"] = prof.height_zero_count
    inputs = {
        "q": q.to_lists(),
        "c": c.to_lists(),
        "defect_order": args.defect_order,
        "p": args.p,
    }
    return _envelope("contribution", inputs, "ok", payload), EXIT_OK, None


def _cmd_heights(args) -> tuple[dict, int, str | None]:
    if args.matrix is not None:
        m = _parse_matrix(args.matrix)
        inputs: dict = {"matrix": m.to_lists(), "p": args.p}
    else:
        diag = _parse_int_list(args.diag)
        m = IntMatrix.diagonal(diag)
        inputs = {"diag": list(diag), "p": args.p}
    prof = heights_from_contribution(m, args.p)
    payload = {
        "heights": list(prof.heights),
        "height_zero_count": prof.height_zero_count,
    }
    return _envelope("heights", inputs, "ok", payload), EXIT_OK, None


def _tree_obj(tree, cartan: IntMatrix) -> dict:
    inv = invariants_of_tree(tree)
    return {
        "tree_code": _marked_code(tree.adjacency, tree.exceptional),
        "shape": shape_name(tree),
        "exceptional_vertex": tree.exceptional,
        "m": tree.multiplicity,
        "p": inv.p,
        "cartan": cartan.to_lists(),
        "dim": inv.dim_a,
        "k": inv.k,
        "l": inv.l,
    }


def _cmd_brauer_trees(args) -> tuple[dict, int, str | None]:
    if args.edges is not None:
        trees = enumerate_trees(args.edges, multiplicity=args.multiplicity)
        rows = [_tree_obj(t, cartan_of_tree(t)) for t in trees]
        inputs: dict = {"edges": args.edges, "multiplicity": args.multiplicity}
    else:
        # a match carries its Cartan matrix in canonical permutation form
        rows = [_tree_obj(r.tree, r.cartan) for r in classify_defect1(args.dim)]
        inputs = {"dim": args.dim}
    text = None
    if args.format == "table":
        lines = []
        for obj in rows:
            flat = " ".join(str(x) for row in obj["cartan"] for x in row)
            lines.append(
                f"{obj['shape']:<16} m={obj['m']:<3} p={obj['p'] or '-':<4} "
                f"l={obj['l']} k={obj['k']} dim={obj['dim']:<4} [{flat}]"
            )
        text = "\n".join(lines) + "\n" if lines else "(no trees)\n"
    return _envelope("brauer-trees", inputs, "ok", {"trees": rows}), EXIT_OK, text


def _cmd_casebook(args) -> tuple[dict, int, str | None]:
    """``casebook run``. A run that fails is reported under the command name
    and inputs digest its success would carry."""
    inputs = {"dim": args.dim, "rules": args.rules}
    try:
        report = cb.run_dimension(args.dim, rules=_load_rules(args.rules))
        obj = report.to_obj()
        if args.report:
            _write_report(args.report, obj)
    except _INPUT_ERRORS as e:
        return _invalid_input("casebook-run", inputs, e), EXIT_INVALID, None
    status = "regression" if report.regressions else "ok"
    code = EXIT_REGRESSION if report.regressions else EXIT_OK
    payload = {
        "final_table": obj["final_table"],
        "verdict_counts": _verdict_counts(obj),
        "regressions": obj["regressions"],
        "report_path": args.report,
    }
    text = None
    if args.table:
        lines = [f"dimension {args.dim}: {len(obj['final_table'])} Morita classes"]
        for row in obj["final_table"]:
            lines.append(f"  {row['defect_group']:<6} {row['morita_class']}")
        for cand in obj["candidates"]:
            flat = " ".join(str(x) for r in cand["matrix"] for x in r)
            lines.append(f"  [{flat}] -> {cand['verdict']}")
        text = "\n".join(lines) + "\n"
    return _envelope("casebook-run", inputs, status, payload), code, text


def _load_rules(path: str | None) -> list | None:
    if path is None:
        return None
    return cb.read_rules(_read_json_file(path, f"rules file not found: {path}"), path)


def _write_report(path: str, obj: dict) -> None:
    try:
        Path(path).write_text(
            json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    except OSError as e:
        raise CliError(f"{path}: cannot write report: {e.strerror}")


def _verdict_counts(obj: dict) -> dict:
    counts: dict[str, int] = {}
    for cand in obj["candidates"]:
        counts[cand["verdict"]] = counts.get(cand["verdict"], 0) + 1
    return dict(sorted(counts.items()))


_HANDLERS = {
    "enumerate-cartan": _cmd_enumerate,
    "solve-gram": _cmd_solve_gram,
    "snf": _cmd_snf,
    "contribution": _cmd_contribution,
    "heights": _cmd_heights,
    "brauer-trees": _cmd_brauer_trees,
    "casebook": _cmd_casebook,
}

_INPUT_ERRORS = (
    CliError,
    MatrixError,
    GramInputError,
    CartanEnumError,
    ContributionError,
    BrauerTreeError,
    cb.CasebookError,
)


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        envelope, code, text = _HANDLERS[args.command](args)
    except _INPUT_ERRORS as e:
        envelope = _invalid_input(argv[0] if argv else "", {"argv": list(argv)}, e)
        sys.stdout.write(_dumps(envelope))
        return EXIT_INVALID
    if text is not None:
        sys.stdout.write(text)
    else:
        sys.stdout.write(_dumps(envelope))
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
