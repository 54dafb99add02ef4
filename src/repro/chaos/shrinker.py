"""Deterministic schedule minimization and standalone repro artifacts.

Given a failing trial, the shrinker looks for the smallest fault schedule
(fewest episodes, shortest downtimes, narrowest partitions, lowest rates)
that still produces *a* violation for the same (runtime, seed).  Every
candidate is judged by actually re-running the trial — the simulator is
deterministic, so each re-run is exact, and the final minimized schedule
is saved as a :class:`ReproArtifact` that replays byte-identically from
just a seed and a plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.chaos.config import ChaosConfig
from repro.chaos.nemesis import Episode
from repro.chaos.runner import TrialResult, run_trial
from repro.core.faults import FaultPlan

ARTIFACT_VERSION = 1
#: candidate schedules one shrink may try
MAX_TRIALS = 64


@dataclass
class ShrinkReport:
    """What the shrinker did and what it converged to."""

    episodes: list[Episode]
    result: TrialResult
    trials: int
    initial_events: int

    @property
    def final_events(self) -> int:
        return len(self.result.plan.events)


def shrink(
    runtime: str,
    seed: int,
    episodes: list[Episode],
    config: Optional[ChaosConfig] = None,
    broken: bool = False,
) -> ShrinkReport:
    """Minimize ``episodes`` while the trial still finds a violation.

    Greedy passes, each to fixpoint, in order of payoff: drop whole
    episodes, halve durations, halve rates, narrow partition groups.
    The candidate count is bounded by ``MAX_TRIALS``.
    """
    budget = {"left": MAX_TRIALS}

    def fails(candidate: list[Episode]) -> Optional[TrialResult]:
        if budget["left"] <= 0:
            return None
        budget["left"] -= 1
        result = run_trial(
            runtime, seed, config=config, episodes=list(candidate), broken=broken,
        )
        return result if result.violations else None

    current = list(episodes)
    best = fails(current)
    if best is None:
        raise ValueError(
            "shrink() needs a failing schedule: the given episodes produced "
            "no violation"
        )
    initial_events = len(best.plan.events)

    # Pass 1: drop episodes, one at a time, to fixpoint.
    changed = True
    while changed and budget["left"] > 0:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            result = fails(candidate)
            if result is not None:
                current, best, changed = candidate, result, True
                break

    def try_replace(index: int, replacement: Episode) -> bool:
        nonlocal current, best
        candidate = list(current)
        candidate[index] = replacement
        result = fails(candidate)
        if result is not None:
            current, best = candidate, result
            return True
        return False

    # Pass 2: halve durations (a couple of rounds each).
    for index in range(len(current)):
        for _round in range(2):
            episode = current[index]
            if episode.duration < 10.0 or budget["left"] <= 0:
                break
            shorter = Episode(
                kind=episode.kind, start=episode.start,
                duration=round(episode.duration / 2, 3),
                target=episode.target, group_a=episode.group_a,
                group_b=episode.group_b, rate=episode.rate,
            )
            if not try_replace(index, shorter):
                break

    # Pass 3: halve rates on loss/duplication/delay bursts.
    for index in range(len(current)):
        for _round in range(2):
            episode = current[index]
            if episode.rate <= 0.02 or budget["left"] <= 0:
                break
            weaker = Episode(
                kind=episode.kind, start=episode.start,
                duration=episode.duration, target=episode.target,
                group_a=episode.group_a, group_b=episode.group_b,
                rate=round(episode.rate / 2, 4),
            )
            if not try_replace(index, weaker):
                break

    # Pass 4: narrow partition groups to singletons where possible.
    for index in range(len(current)):
        episode = current[index]
        if episode.kind != "partition":
            continue
        for side in ("group_a", "group_b"):
            group = getattr(current[index], side)
            while len(group) > 1 and budget["left"] > 0:
                narrowed_group = group[1:]
                episode = current[index]
                narrowed = Episode(
                    kind=episode.kind, start=episode.start,
                    duration=episode.duration, target=episode.target,
                    group_a=narrowed_group if side == "group_a" else episode.group_a,
                    group_b=narrowed_group if side == "group_b" else episode.group_b,
                    rate=episode.rate,
                )
                if not try_replace(index, narrowed):
                    break
                group = narrowed_group

    return ShrinkReport(
        episodes=current, result=best,
        trials=MAX_TRIALS - budget["left"], initial_events=initial_events,
    )


@dataclass
class ReproArtifact:
    """A standalone, replayable witness of a chaos violation."""

    runtime: str
    seed: int
    broken: bool
    fast_path: bool
    plan: dict
    episodes: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    history_digest: str = ""
    version: int = ARTIFACT_VERSION

    @classmethod
    def from_result(cls, result: TrialResult) -> "ReproArtifact":
        return cls(
            runtime=result.runtime,
            seed=result.seed,
            broken=result.broken,
            fast_path=result.fast_path,
            plan=result.plan.to_dict(),
            episodes=[e.to_dict() for e in result.episodes],
            violations=[
                {"invariant": v.invariant, "detail": v.detail}
                for v in result.violations
            ],
            history_digest=result.history_digest,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "runtime": self.runtime,
                "seed": self.seed,
                "broken": self.broken,
                "fast_path": self.fast_path,
                "plan": self.plan,
                "episodes": self.episodes,
                "violations": self.violations,
                "history_digest": self.history_digest,
            },
            indent=2, sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReproArtifact":
        data = json.loads(text)
        version = data.get("version", 0)
        if version != ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact version {version!r}")
        return cls(
            runtime=data["runtime"],
            seed=data["seed"],
            broken=data.get("broken", False),
            fast_path=data.get("fast_path", True),
            plan=data["plan"],
            episodes=data.get("episodes", []),
            violations=data.get("violations", []),
            history_digest=data.get("history_digest", ""),
            version=version,
        )

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path) -> "ReproArtifact":
        return cls.from_json(Path(path).read_text())

    def replay(self) -> TrialResult:
        """Re-run the recorded trial; deterministic given the same build."""
        return run_trial(
            self.runtime, self.seed,
            plan=FaultPlan.from_dict(self.plan),
            fast_path=self.fast_path, broken=self.broken,
        )

    def matches(self, result: TrialResult) -> bool:
        """Did a replay reproduce the recorded observation exactly?"""
        replayed = [
            {"invariant": v.invariant, "detail": v.detail}
            for v in result.violations
        ]
        return (
            replayed == self.violations
            and result.history_digest == self.history_digest
        )
