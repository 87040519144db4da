"""Declarative replay of per-dimension case analyses.

For each entry sum the engine enumerates candidates, applies the arithmetic
feasibility screen, routes prime-determinant candidates through the Brauer
tree classification, and then executes a per-candidate rule chain loaded
from a data file. Computational rules (solver runs, congruences, counting
checks) are executed; external_citation rules only record a statement.
Every feasible candidate ends with exactly one terminal verdict from
{realized, excluded, infeasible, open_flagged, unresolved}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from types import GenericAlias
from typing import Any, Sequence

from . import brauer
from .brauer import classify_defect1
from .cartan import (
    CartanCandidate,
    enumerate_cartan,
    filter_block_feasible,
    min_sum_for_l,
)
from .contrib import contribution_matrix, heights_from_contribution
from .gram import GramProblem, GramSolution, row_forms, solve, solve_orthogonal_column
from .intmat import IntMatrix, matrix_from_obj, p_adic_valuation

# Rule schema. A field holds an int, bool or str (exactly that type), a
# list[int] or list[str], a matrix (IntMatrix), anything (object), a row count
# (_ROW_COUNT) or a nested object given as (fields, required keys).
_ROW_COUNT = "an integer or [low, high]"
_NAMES = {int: "an integer", bool: "a boolean", str: "a string", dict: "a JSON object"}
_REF = ({"rule": str, "row_count": int}, {"rule"})
_RULE = (
    {"id": str, "candidate": IntMatrix, "kind": str, "params": dict, "citation": str,
     "expected_outcome": object, "verdict": str, "requires_data": list[str]},
    {"id", "candidate", "kind"},
)
# the params each kind reads; a solver_run with "orthogonal" reads nothing else
_ORTHOGONAL = ({"orthogonal": (
    {"gram_value": int, "q1_from": _REF, "q1": IntMatrix, "signed": bool,
     "zero_rows": list[int]},
    {"gram_value"},
)}, {"orthogonal"})
_PARAMS = {
    "solver_run": ({
        "gram": IntMatrix, "gram_from_data": str, "fixed_from": _REF,
        "row_count": _ROW_COUNT, "sign_mode": str, "require_nonzero_rows": bool,
        "zero_rows": list[int], "contribution": bool, "defect_order": int, "p": int,
        "k_minus_l": bool, "valuation_filter": (
            {"p": int, "required_valuation": int, "row_indices": list[int]},
            {"p", "required_valuation", "row_indices"},
        ),
    }, set()),
    "congruence": ({"p": int, "quotients": list[str]}, {"p"}),
    "brauer_count": ({"quotient": str, "l_b": int, "match_rule": str}, {"quotient"}),
    "external_citation": ({}, set()),
}
RULE_KINDS = tuple(_PARAMS)

VERDICTS = ("realized", "excluded", "infeasible", "open_flagged", "unresolved")

SKIPPED_OUTCOME = "skipped — external data not supplied"


class CasebookError(ValueError):
    pass


@dataclass(frozen=True)
class LocalDatum:
    """One row of local block data for an inertial quotient E."""

    inertial_quotient_name: str
    order_E: int
    class_count_E: int
    l_central: tuple[int, ...] = ()
    l_noncentral: tuple[int, ...] = ()
    realizing_group: str | None = None

    def __post_init__(self):
        if self.order_E < 1 or self.class_count_E < 1:
            raise CasebookError("orders and class counts must be positive")
        if self.class_count_E > self.order_E:
            raise CasebookError("class count cannot exceed group order")
        if any(x < 1 for x in self.l_central + self.l_noncentral):
            raise CasebookError("all l-values must be at least 1")


@dataclass(frozen=True)
class CaseRule:
    rule_id: str
    candidate: IntMatrix
    kind: str
    params: dict = field(default_factory=dict)
    expected_outcome: dict | None = None
    citation: str | None = None
    verdict: str | None = None
    requires_data: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise CasebookError(f"unknown rule kind {self.kind!r}")
        if self.kind == "external_citation" and not self.citation:
            raise CasebookError("external_citation rules must carry a citation")
        if self.verdict is not None and self.verdict not in VERDICTS:
            raise CasebookError(f"unknown verdict {self.verdict!r}")


@dataclass
class CaseReport:
    dimension: int
    candidates: list[dict]
    final_table: list[dict]
    regressions: list[dict]

    def to_obj(self) -> dict:
        return {
            "dimension": self.dimension,
            "candidates": self.candidates,
            "final_table": self.final_table,
            "regressions": self.regressions,
        }


def congruence_filter(l_value: int, d: LocalDatum, p: int) -> bool:
    """l(B) must agree with |E| mod 8 when p = 2 and mod 3 when p = 3.

    The datum itself must satisfy |E| == k(E) under the same modulus; an
    inconsistent datum is a data error, not a filtering result.
    """
    if p == 2:
        modulus = 8
    elif p == 3:
        modulus = 3
    else:
        raise CasebookError("congruence filter applies only to p in {2, 3}")
    if l_value < 1:
        raise CasebookError("l must be positive")
    if (d.order_E - d.class_count_E) % modulus != 0:
        raise CasebookError(
            f"datum {d.inertial_quotient_name}: |E| and k(E) disagree mod {modulus}"
        )
    return (l_value - d.order_E) % modulus == 0


def brauer_count_check(l_b: int, d: LocalDatum) -> int:
    """k(B) predicted by summing l-values over all subsections."""
    if l_b < 1:
        raise CasebookError("l(B) must be positive")
    return l_b + sum(d.l_central) + sum(d.l_noncentral)


def _load_json(name: str) -> Any:
    path = resources.files("blocksmith").joinpath(f"data/{name}")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def load_local_data() -> dict:
    return _load_json("local_data.json")


def load_realizations(dimension: int) -> list[dict]:
    table = _load_json("realizations.json")
    return table.get(str(dimension), [])


def subsection_data(raw: dict | None = None) -> dict[str, LocalDatum]:
    raw = raw if raw is not None else load_local_data()
    out = {}
    for row in raw["subsection_table"]:
        d = LocalDatum(
            inertial_quotient_name=row["inertial_quotient_name"],
            order_E=row["order_E"],
            class_count_E=row["class_count_E"],
            l_central=tuple(row["l_central"]),
            l_noncentral=tuple(row["l_noncentral"]),
            realizing_group=row.get("realizing_group"),
        )
        out[d.inertial_quotient_name] = d
    return out


def quotient_catalog(raw: dict | None = None) -> dict[str, LocalDatum]:
    """Class-count data for every quoted inertial quotient, merged with the
    richer subsection rows where available."""
    raw = raw if raw is not None else load_local_data()
    out = subsection_data(raw)
    for name, rec in raw["group_class_counts"].items():
        if name not in out:
            out[name] = LocalDatum(
                inertial_quotient_name=name,
                order_E=rec["order"],
                class_count_E=rec["classes"],
            )
    return out


def load_rules(dimension: int) -> list[CaseRule]:
    try:
        raw = _load_json(f"rules_dim{dimension}.json")
    except FileNotFoundError:
        return []
    return [_rule_from_obj(obj) for obj in raw]


def _is(value: Any, kind: Any) -> bool:
    if kind is _ROW_COUNT:
        return type(value) is int or _is(value, list[int]) and len(value) == 2
    if isinstance(kind, GenericAlias):
        return isinstance(value, list) and all(_is(x, kind.__args__[0]) for x in value)
    return kind is object or type(value) is kind


def _check(value: Any, kind: Any, where: str) -> None:
    """Raise CasebookError unless value matches the schema kind."""
    if kind is IntMatrix:
        matrix_from_obj(value)
    elif isinstance(kind, tuple):
        fields, required = kind
        _check(value, dict, where)
        unknown = sorted(set(value) - set(fields))
        if unknown:
            raise CasebookError(f"{where} has unknown keys {', '.join(unknown)}")
        missing = sorted(required - set(value))
        if missing:
            raise CasebookError(f"{where} lacks {', '.join(missing)}")
        for key, item in value.items():
            _check(item, fields[key], f"{where}.{key}")
    elif not _is(value, kind):
        raise CasebookError(f"{where} must be {_NAMES.get(kind, kind)}, got {value!r}")


def _check_params(kind: str, params: dict, where: str) -> None:
    if kind == "solver_run" and "orthogonal" in params:
        _check(params, _ORTHOGONAL, where)
        if ("q1" in params["orthogonal"]) == ("q1_from" in params["orthogonal"]):
            raise CasebookError(f"{where}.orthogonal needs exactly one of q1, q1_from")
        return
    _check(params, _PARAMS[kind], where)
    if "gram" in params and "gram_from_data" in params:
        raise CasebookError(f"{where} gives both gram and gram_from_data")
    if "valuation_filter" in params:
        k = params.get("row_count", params.get("fixed_from", {}).get("row_count"))
        if type(k) is not int:
            raise CasebookError(f"{where}.valuation_filter needs a fixed row count")
        if not all(0 <= i < k for i in params["valuation_filter"]["row_indices"]):
            raise CasebookError(f"{where}.valuation_filter.row_indices out of range")


def _rule_from_obj(obj: Any) -> CaseRule:
    """A rule from its JSON object, checked against the schema above."""
    where = f"rule {obj.get('id', obj) if isinstance(obj, dict) else obj!r}"
    _check(obj, _RULE, where)
    rule = CaseRule(
        rule_id=obj["id"],
        candidate=matrix_from_obj(obj["candidate"]),
        kind=obj["kind"],
        params=obj.get("params", {}),
        expected_outcome=obj.get("expected_outcome"),
        citation=obj.get("citation"),
        verdict=obj.get("verdict"),
        requires_data=tuple(obj.get("requires_data", ())),
    )
    _check_params(rule.kind, rule.params, f"{where} params")
    return rule


def det25_decomposition(
    c: IntMatrix | None = None,
) -> tuple[GramSolution, int]:
    """The distinguished determinant-25 instance: a unique decomposition
    with 8 rows, so k - l = 5."""
    target = c if c is not None else IntMatrix.from_rows(
        [[5, 1, 1], [1, 3, 0], [1, 0, 2]]
    )
    sols = solve(GramProblem(target_gram=target))
    if len(sols) != 1:
        raise CasebookError(
            f"expected a unique decomposition, solver returned {len(sols)}"
        )
    sol = sols[0]
    return sol, sol.q.row_count - target.col_count


def _data_lookup(data: dict, dotted: str) -> Any:
    node: Any = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _outcome_matches(expected: Any, actual: Any) -> bool:
    """Subset comparison: every expected key/value must appear in the actual
    outcome; lists and scalars must match exactly."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return False
        return all(
            k in actual and _outcome_matches(v, actual[k])
            for k, v in expected.items()
        )
    return expected == actual


class _Engine:
    def __init__(self, data: dict, catalog: dict[str, LocalDatum]):
        self.data = data
        self.catalog = catalog
        # (candidate, rule_id) -> the Gram solutions of that solver rule;
        # an orthogonal-column rule stores none
        self.solutions: dict[tuple[IntMatrix, str], list[GramSolution]] = {}

    def stored_solutions(self, cand: IntMatrix, rule_id: str) -> list[GramSolution]:
        if (cand, rule_id) not in self.solutions:
            raise CasebookError(f"rule {rule_id!r} has no stored artifacts")
        return self.solutions[cand, rule_id]

    def resolve_q1(self, cand: IntMatrix, spec_: dict) -> IntMatrix:
        want = spec_.get("row_count")
        sols = self.stored_solutions(cand, spec_["rule"])
        matches = [s for s in sols if want is None or s.q.row_count == want]
        if len(matches) != 1:
            raise CasebookError(
                f"artifact lookup for rule {spec_['rule']!r} row_count {want} "
                f"matched {len(matches)} solutions"
            )
        return matches[0].q

    def run_solver_rule(self, cand: CartanCandidate, rule: CaseRule) -> dict:
        params = rule.params
        if "orthogonal" in params:
            return self._run_orthogonal(cand, rule)
        if "gram_from_data" in params:
            gram_obj = _data_lookup(self.data, params["gram_from_data"])
            if gram_obj is None:
                raise CasebookError(
                    f"data key {params['gram_from_data']!r} is absent"
                )
            gram = matrix_from_obj(gram_obj)
        elif "gram" in params:
            gram = matrix_from_obj(params["gram"])
        else:
            gram = cand.matrix

        fixed: tuple[IntMatrix, ...] = ()
        if "fixed_from" in params:
            fixed = (self.resolve_q1(cand.matrix, params["fixed_from"]),)
        row_count = params.get("row_count")
        if isinstance(row_count, list):
            row_count = tuple(row_count)
        problem = GramProblem(
            target_gram=gram,
            sign_mode=params.get("sign_mode", "nonnegative"),
            row_count=row_count,
            require_nonzero_rows=params.get("require_nonzero_rows", True),
            fixed_blocks=fixed,
            zero_rows=frozenset(params.get("zero_rows", ())),
        )
        sols = solve(problem)
        outcome: dict = {
            "solution_count": len(sols),
            "row_counts": sorted(s.q.row_count for s in sols),
        }
        if not sols:
            outcome["proved_empty"] = True
        self.solutions[cand.matrix, rule.rule_id] = sols

        if params.get("contribution"):
            defect = params.get("defect_order", cand_defect(cand))
            diags = []
            k0s = []
            for s in sols:
                res = contribution_matrix(s.q, gram, defect)
                diags.append(list(res.diagonal))
                p = params.get("p")
                if p is not None:
                    k0s.append(
                        heights_from_contribution(res, p).height_zero_count
                    )
            outcome["contribution_diagonals"] = diags
            if k0s:
                outcome["height_zero_counts"] = k0s
        if params.get("k_minus_l"):
            if len(sols) != 1:
                raise CasebookError("k_minus_l needs a unique solution")
            outcome["k_minus_l"] = sols[0].q.row_count - gram.col_count
        if "valuation_filter" in params:
            outcome.update(
                self._apply_valuation_filter(
                    gram, sols, params["valuation_filter"],
                    params.get("defect_order", cand_defect(cand)),
                )
            )
        return outcome

    def _apply_valuation_filter(
        self,
        gram: IntMatrix,
        sols: Sequence[GramSolution],
        filt: dict,
        defect_order: int,
    ) -> dict:
        p = filt["p"]
        required = filt["required_valuation"]
        indices = filt["row_indices"]
        forms = row_forms(gram)
        d = forms.det
        survivors = []
        for s in sols:
            ok = True
            for i in indices:
                row = s.q.rows[i]
                m_ii, rem = divmod(defect_order * forms[row, row], d)
                if rem:
                    raise CasebookError(
                        "valuation filter: contribution entry is not integral; "
                        "defect order does not match the decomposition"
                    )
                if m_ii == 0 or p_adic_valuation(m_ii, p) != required:
                    ok = False
                    break
            if ok:
                survivors.append(s)
        out = {"survivor_count": len(survivors)}
        if not survivors:
            out["proved_empty"] = True
        return out

    def _run_orthogonal(self, cand: CartanCandidate, rule: CaseRule) -> dict:
        spec_ = rule.params["orthogonal"]
        if "q1_from" in spec_:
            q1 = self.resolve_q1(cand.matrix, spec_["q1_from"])
        else:
            q1 = matrix_from_obj(spec_["q1"])
        cols = solve_orthogonal_column(
            q1,
            spec_["gram_value"],
            signed=spec_.get("signed", True),
            zero_rows=frozenset(spec_.get("zero_rows", ())),
        )
        outcome: dict = {"column_count": len(cols)}
        if not cols:
            outcome["proved_empty"] = True
        self.solutions[cand.matrix, rule.rule_id] = []
        return outcome

    def run_congruence_rule(self, cand: CartanCandidate, rule: CaseRule) -> dict:
        p = rule.params["p"]
        names = rule.params.get("quotients", sorted(self.catalog))
        consistent = []
        for name in names:
            if name not in self.catalog:
                raise CasebookError(f"unknown inertial quotient {name!r}")
            if congruence_filter(cand.l, self.catalog[name], p):
                consistent.append(name)
        return {"consistent": consistent}

    def run_brauer_count_rule(self, cand: CartanCandidate, rule: CaseRule) -> dict:
        name = rule.params["quotient"]
        if name not in self.catalog:
            raise CasebookError(f"unknown inertial quotient {name!r}")
        datum = self.catalog[name]
        if not datum.l_central and not datum.l_noncentral:
            raise CasebookError(
                f"no subsection data for {name!r}; counting check impossible"
            )
        k = brauer_count_check(rule.params.get("l_b", cand.l), datum)
        outcome: dict = {"k": k}
        match_rule = rule.params.get("match_rule")
        if match_rule:
            sols = self.stored_solutions(cand.matrix, match_rule)
            outcome["row_count_match"] = k in (s.q.row_count for s in sols)
        return outcome


def cand_defect(cand: CartanCandidate) -> int:
    return cand.divisors[-1]


def run_dimension(
    n: int,
    rules: Sequence[CaseRule] | None = None,
    data: dict | None = None,
    realizations: list[dict] | None = None,
) -> CaseReport:
    """Enumerate, screen, and resolve every candidate of entry sum n.

    With rules=None the packaged rule set for n is loaded (empty for
    dimensions without one). A rule naming a candidate that enumeration
    does not produce is an error: it signals drift between the rule file
    and the enumeration.
    """
    if n < 1:
        raise CasebookError("dimension must be positive")
    if rules is None:
        rules = load_rules(n)
    if data is None:
        data = load_local_data()
    if realizations is None:
        realizations = load_realizations(n)
    catalog = quotient_catalog(data)
    realization_index: dict[IntMatrix, list[dict]] = {}
    for row in realizations:
        m = matrix_from_obj(row["matrix"])
        realization_index.setdefault(m, []).append(row)

    candidates: list[CartanCandidate] = []
    l = 1
    while min_sum_for_l(l) <= n:
        candidates.extend(enumerate_cartan(n, l))
        l += 1
    by_matrix = {c.matrix: c for c in candidates}

    for rule in rules:
        if rule.candidate not in by_matrix:
            raise CasebookError(
                f"rule {rule.rule_id!r} references a candidate that was not "
                f"enumerated: {rule.candidate.to_lists()}"
            )
    rules_by_candidate: dict[IntMatrix, list[CaseRule]] = {}
    for rule in rules:
        rules_by_candidate.setdefault(rule.candidate, []).append(rule)

    tree_matches = {r.cartan: r for r in classify_defect1(n)}
    engine = _Engine(data, catalog)
    run_rule = {
        "solver_run": engine.run_solver_rule,
        "congruence": engine.run_congruence_rule,
        "brauer_count": engine.run_brauer_count_rule,
        "external_citation": lambda cand, rule: {"recorded": True},
    }
    report_candidates = []
    regressions: list[dict] = []
    final_rows: list[dict] = []

    for cand in candidates:
        trail: list[dict] = []
        verdict: str | None = None

        feas = filter_block_feasible(cand)
        trail.append(
            {"rule": "auto:feasibility", "kind": "feasibility", "outcome": feas.to_obj()}
        )
        if not feas.feasible:
            verdict = "infeasible"
        elif feas.defect_order == feas.p:
            # a missing match excludes the candidate only if trees with l
            # edges were enumerated
            if cand.l > brauer.EDGE_BOUND:
                raise CasebookError(
                    f"candidate {cand.matrix.to_lists()} needs trees with {cand.l} "
                    f"edges, beyond the bound {brauer.EDGE_BOUND}"
                )
            match = tree_matches.get(cand.matrix)
            outcome: dict = {"matched": match is not None}
            if match is not None:
                outcome.update(
                    {
                        "shape": match.shape,
                        "multiplicity": match.multiplicity,
                        "p": match.p,
                    }
                )
            trail.append(
                {
                    "rule": "auto:tree_resolution",
                    "kind": "tree_resolution",
                    "outcome": outcome,
                }
            )
            if match is None:
                verdict = "excluded"
            elif cand.matrix in realization_index:
                verdict = "realized"

        if verdict != "infeasible":
            for rule in rules_by_candidate.get(cand.matrix, []):
                entry: dict = {"rule": rule.rule_id, "kind": rule.kind}
                missing = [
                    key
                    for key in rule.requires_data
                    if _data_lookup(data, key) is None
                ]
                if missing:
                    entry["outcome"] = SKIPPED_OUTCOME
                    trail.append(entry)
                    continue
                outcome = run_rule[rule.kind](cand, rule)
                entry["outcome"] = outcome
                if rule.citation:
                    entry["citation"] = rule.citation
                trail.append(entry)
                if rule.expected_outcome is not None and not _outcome_matches(
                    rule.expected_outcome, outcome
                ):
                    regressions.append(
                        {
                            "rule": rule.rule_id,
                            "candidate": cand.matrix.to_lists(),
                            "expected": rule.expected_outcome,
                            "actual": outcome,
                        }
                    )
                if rule.verdict is not None:
                    verdict = rule.verdict

        if verdict is None:
            verdict = "unresolved"
        if verdict == "realized":
            for row in realization_index.get(cand.matrix, []):
                final_rows.append(
                    {
                        "defect_group": row["defect_group"],
                        "morita_class": row["morita_class"],
                    }
                )
        report_candidates.append(
            {
                "matrix": cand.matrix.to_lists(),
                "l": cand.l,
                "det": cand.det,
                "verdict": verdict,
                "verdicts": trail,
            }
        )

    final_rows.sort(key=lambda r: (r["defect_group"], r["morita_class"]))
    return CaseReport(
        dimension=n,
        candidates=report_candidates,
        final_table=final_rows,
        regressions=regressions,
    )
