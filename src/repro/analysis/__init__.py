"""repro.analysis — project-specific static analysis.

A small AST rule engine codifying the numeric-correctness invariants
this reproduction has actually been burned by (or is structurally
prone to), so train/serve parity bugs of the PR-3 class are caught
mechanically instead of re-found in review:

* **Rule engine** (:mod:`repro.analysis.engine`) — per-rule ``RPRxxx``
  codes, path scoping (``src`` vs ``test``), and line-level
  ``# repro: noqa[RPRxxx]`` suppressions with an optional trailing
  justification.
* **Rules** (:mod:`repro.analysis.rules`) — the per-file RPR1xx
  rules, each motivated by a concrete bug class (see README "Static
  analysis").
* **Array contracts** (:mod:`repro.analysis.contracts`) — declarative
  shape/dtype specifications for the hot ``repro.nn`` kernels, checked
  statically where literal shapes allow
  (:mod:`repro.analysis.dataflow`, codes RPR201/RPR202) and asserted at
  runtime in tests otherwise.
* **Interprocedural layer** — one shared core
  (:mod:`repro.analysis.callgraph` symbol table, call graph and
  per-function node lists; :mod:`repro.analysis.cfgutils` frame walk,
  held-lock scanner and bounded fixpoint) feeding five analyses the
  engine runs at most once per project each: array-contract
  propagation (:mod:`repro.analysis.dataflow`, RPR201–RPR202),
  determinism taint (:mod:`repro.analysis.determinism`,
  RPR301–RPR303), ``# guarded-by:`` lock discipline
  (:mod:`repro.analysis.locks`, RPR401–RPR403), async safety
  (:mod:`repro.analysis.asyncrules`, RPR501–RPR504) and route-status
  contracts (:mod:`repro.analysis.routestatus`, RPR110).
* **Reporters** (:mod:`repro.analysis.reporters`) — text, JSON, and
  SARIF output over the same finding records.

Run it over the repository::

    python -m repro.analysis src tests benchmarks examples bench
    repro-events analyze src tests benchmarks --format json

Exit codes: 0 (clean), 1 (findings), 2 (usage error).
"""

from repro.analysis.contracts import (
    CONTRACTS,
    ArraySpec,
    ContractError,
    KernelContract,
    check_call,
)
from repro.analysis.engine import (
    Finding,
    ProjectRule,
    Rule,
    all_rules,
    analyze_files,
    analyze_paths,
    analyze_source,
    iter_python_files,
    rules_by_code,
    scope_for_path,
)
from repro.analysis.main import main
from repro.analysis.reporters import render_json, render_sarif, render_text

__all__ = [
    "ArraySpec",
    "CONTRACTS",
    "ContractError",
    "Finding",
    "KernelContract",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_files",
    "analyze_paths",
    "analyze_source",
    "check_call",
    "iter_python_files",
    "main",
    "render_json",
    "render_sarif",
    "render_text",
    "rules_by_code",
    "scope_for_path",
]
