"""repro.analysis — project-specific static analysis.

A small AST rule engine codifying the numeric-correctness invariants
this reproduction has actually been burned by (or is structurally
prone to), so train/serve parity bugs of the PR-3 class are caught
mechanically instead of re-found in review:

* **Rule engine** (:mod:`repro.analysis.engine`) — one kind of rule:
  an *analysis* over the whole project, registered
  (``register_analysis``) under the ``RPRxxx`` codes it emits; path
  scoping (every rule applies to ``src`` files only) and line-level
  ``# repro: noqa[RPRxxx]`` suppressions with an optional trailing
  justification.
* **The analyses** — one shared core (:mod:`repro.analysis.callgraph`
  symbol table, call graph and per-function node lists;
  :mod:`repro.analysis.cfgutils` frame walk, held-lock scanner and
  bounded fixpoint) under seven analyses the engine runs at most once
  per project each.  Three read one file at a time
  (:mod:`repro.analysis.rules`: cosine reimplementation RPR101, float
  equality RPR105, the telemetry name grammar RPR103/108/109), each
  motivated by a concrete bug class (see README "Static analysis");
  four are interprocedural: determinism taint
  (:mod:`repro.analysis.determinism`, RPR301–RPR303), ``# guarded-by:``
  lock discipline (:mod:`repro.analysis.locks`, RPR401–RPR402), async
  safety (:mod:`repro.analysis.asyncrules`, RPR501/503/504) and
  route-status contracts (:mod:`repro.analysis.routestatus`, RPR110).

Run it over the repository (one text report, on stdout)::

    python -m repro.analysis src
    python -m repro.analysis src --select RPR301,RPR302

Exit codes: 0 (clean), 1 (findings), 2 (usage error).
"""
