"""Jepsen-style chaos fuzzing on the deterministic simulator.

The paper's qualitative claims are all of the form "discipline X preserves
correctness *under failures*" (§3.2); this package falsifies them under
randomized adversaries instead of two scripted scenarios:

- :mod:`repro.chaos.config` — :class:`ChaosConfig`, the declarative fault
  budget (which node classes are fair game, max concurrent faults, min
  heal windows, rate/duration bounds);
- :mod:`repro.chaos.nemesis` — the seeded :class:`Nemesis` sampling fault
  :class:`Episode` schedules within the budget, compiled down to the
  shared :class:`repro.core.FaultPlan` execution path;
- :mod:`repro.chaos.history` — Jepsen-style invoke/ok/fail/info histories
  with virtual-clock timestamps and span ids;
- :mod:`repro.chaos.oracles` — pluggable invariant oracles over histories
  and final state (conservation, exactly-once, saga atomicity, snapshot
  audits);
- :mod:`repro.chaos.scenarios` — the four runtimes under test behind one
  scenario interface (microservice saga, actor transactions,
  transactional dataflow, FaaS workflows);
- :mod:`repro.chaos.runner` — one seeded trial end to end;
- :mod:`repro.chaos.shrinker` — deterministic schedule minimization and
  standalone repro artifacts.
"""

from repro.chaos.config import ChaosConfig
from repro.chaos.history import History, HistoryEvent
from repro.chaos.nemesis import Episode, Nemesis, compile_plan
from repro.chaos.oracles import (
    ConservationOracle,
    Oracle,
    SagaAtomicityOracle,
    SnapshotAuditOracle,
    TransferExactlyOnceOracle,
)
from repro.chaos.runner import RUNTIMES, TrialResult, run_trial
from repro.chaos.scenarios import CONTROL_RUNTIMES, build_scenario
from repro.chaos.shrinker import ReproArtifact, ShrinkReport, shrink

__all__ = [
    "CONTROL_RUNTIMES",
    "ChaosConfig",
    "ConservationOracle",
    "Episode",
    "History",
    "HistoryEvent",
    "Nemesis",
    "Oracle",
    "RUNTIMES",
    "ReproArtifact",
    "SagaAtomicityOracle",
    "ShrinkReport",
    "SnapshotAuditOracle",
    "TransferExactlyOnceOracle",
    "TrialResult",
    "build_scenario",
    "compile_plan",
    "run_trial",
    "shrink",
]
