"""repro.analyze — static analysis over synthetic kernels and corpora.

Three passes, one premise: everything PMM *learns* about the kernel is
also statically *computable* from its construction, so the analysis
layer provides the ground truth the learning stack is measured against.

- :mod:`repro.analyze.deps` — the argument-dependency oracle.  Slices
  every block's mandatory branch predicates into exact
  ``(syscall, ArgPath)`` steering slots (``ArgCondition``) and def-use
  resolved producer chains (``StateCondition``), packaged as
  :class:`StaticOracleLocalizer`, the upper-bound row of the Table-1
  selector comparison and a precise steering source for directed
  fuzzing.
- :mod:`repro.analyze.reach` — reachability and solvability.  A
  path-state DFS decides per-path satisfiability under an
  interval+bitmask abstract domain; statically-dead blocks are exposed
  so fuzzing loops stop wasting budget on unreachable targets.
- :mod:`repro.analyze.witness` — concretization.  Builds a program that
  provably reaches a target block (producers, state setup, satisfying
  slot values), the executable soundness proof for the oracle.
- :mod:`repro.analyze.lint` — a pluggable check registry with severities
  and a canonical ``findings.json``, gating kernel invariants (live bug
  chains, slot tokens in condition assembly, producible state flags) and
  corpus hygiene (resource ordering, dangling fds, NULL pointers that
  pin predicates) in CI via ``analyze --strict``.
- :mod:`repro.analyze.impact` (+ :mod:`repro.analyze.distance`) — the
  patch-impact pass.  Statically diffs per-syscall CFGs between two
  releases into a canonical :class:`ImpactReport`, classifies every
  changed block (solvable / unsteerable / unreachable) into the
  :class:`TargetManifest` that ``fuzz --directed patch:<a>..<b>``
  consumes, and computes the AFLGo-style :class:`DistanceField` (CFG
  edges plus StateCondition producer edges) the
  :class:`PatchDirector` schedules against.  The same field with
  producer edges priced at infinity is the plain reverse hop count
  SyzDirect-style directed fuzzing ranks seeds by.
"""

from repro.analyze.deps import (
    BlockDependencies,
    DependencyOracle,
    Predicate,
    StateDependency,
    StaticOracleLocalizer,
    SteeringSlot,
    static_truths,
)
from repro.analyze.distance import STATE_EDGE_COST, DistanceField
from repro.analyze.impact import (
    HandlerDiff,
    ImpactReport,
    ImpactTarget,
    PatchDirector,
    PredicateChange,
    TargetManifest,
    build_target_manifest,
    classify_block,
    compute_impact,
    describe_condition,
    run_impact_checks,
)
from repro.analyze.lint import (
    Check,
    Finding,
    Severity,
    findings_json,
    load_findings,
    registered_checks,
    run_corpus_checks,
    run_kernel_checks,
    strict_failures,
    table_mismatch_findings,
)
from repro.analyze.reach import (
    AbstractValue,
    FlagRequirement,
    PathState,
    PathWitness,
    ReachabilityAnalysis,
)
from repro.analyze.witness import WitnessBuilder, witness_program

__all__ = [
    "AbstractValue",
    "BlockDependencies",
    "Check",
    "DependencyOracle",
    "DistanceField",
    "Finding",
    "FlagRequirement",
    "HandlerDiff",
    "ImpactReport",
    "ImpactTarget",
    "PatchDirector",
    "PathState",
    "PathWitness",
    "Predicate",
    "PredicateChange",
    "ReachabilityAnalysis",
    "STATE_EDGE_COST",
    "Severity",
    "StateDependency",
    "StaticOracleLocalizer",
    "SteeringSlot",
    "TargetManifest",
    "WitnessBuilder",
    "build_target_manifest",
    "classify_block",
    "compute_impact",
    "describe_condition",
    "findings_json",
    "load_findings",
    "registered_checks",
    "run_corpus_checks",
    "run_kernel_checks",
    "run_impact_checks",
    "static_truths",
    "strict_failures",
    "table_mismatch_findings",
    "witness_program",
]
