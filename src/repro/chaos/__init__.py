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
- :mod:`repro.chaos.oracles` — the oracle interface plus the oracles no
  app spec compiles (saga atomicity, snapshot audits);
- :mod:`repro.chaos.scenarios` — the nine runtimes under test behind one
  scenario interface: seven kernel-app deployments
  (:class:`~repro.chaos.scenarios.AppScenario`, judged by spec-compiled
  oracles), the saga shop and the flooded service;
- :mod:`repro.chaos.runner` — one seeded trial end to end;
- :mod:`repro.chaos.shrinker` — deterministic schedule minimization and
  standalone repro artifacts.
"""

from repro.chaos.config import ChaosConfig
from repro.chaos.history import History, HistoryEvent
from repro.chaos.nemesis import Episode, Nemesis, compile_plan
from repro.chaos.oracles import Oracle, SagaAtomicityOracle, SnapshotAuditOracle
from repro.chaos.runner import RUNTIMES, TrialResult, run_trial
from repro.chaos.scenarios import CONTROL_RUNTIMES, build_scenario
from repro.chaos.shrinker import ReproArtifact, ShrinkReport, shrink

__all__ = [
    "CONTROL_RUNTIMES",
    "ChaosConfig",
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
    "TrialResult",
    "build_scenario",
    "compile_plan",
    "run_trial",
    "shrink",
]
