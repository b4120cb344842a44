"""Deterministic, seedable symbolic world: ground-truth fluents, observability
masks, noisy observations, timed action outcomes and a scripted perturbation
schedule.

Fluents only change when an action completes or a perturbation fires; all
randomness (observation noise, action success draws) comes from one seeded
generator so a (scenario, seed) pair replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .domain import ActionTemplate, StateRegistry


class ProtocolError(RuntimeError):
    """Simulator misuse, e.g. starting an action while one is running."""


@dataclass(frozen=True)
class PerturbationEvent:
    """Scripted external interference: fluent and/or observability changes."""

    at_tick: int
    assignments: tuple[tuple[str, int], ...] = ()
    observability_changes: tuple[tuple[str, bool], ...] = ()


@dataclass
class RunningAction:
    template: ActionTemplate
    started_at: int
    will_succeed: bool
    status: str = "running"  # running | succeeded | failed | cancelled


class World:
    def __init__(
        self,
        registry: StateRegistry,
        fluents: Mapping[str, int],
        observable: Mapping[str, bool],
        seed: int = 0,
        noise_p: float = 0.0,
        deterministic: bool = False,
    ):
        self.registry = registry
        self.fluents: dict[str, int] = {}
        for state in registry:
            idx = fluents[state.id]
            if not 0 <= idx < state.m:
                raise ValueError(f"fluent {state.id}: index {idx} out of range")
            self.fluents[state.id] = idx
        self.observable = {s.id: observable.get(s.id, True) for s in registry}
        self.noise_p = noise_p
        self.deterministic = deterministic
        self.rng = np.random.default_rng(seed)
        self.tick = 0
        self.running: Optional[RunningAction] = None
        self.last_result: Optional[RunningAction] = None
        self._applied_events = 0

    def observe(self) -> dict[str, Optional[int]]:
        """Value index of each observable fluent, flipped to a random wrong
        value with probability noise_p; None for unobservable states."""
        out: dict[str, Optional[int]] = {}
        for state in self.registry:
            if not self.observable[state.id]:
                out[state.id] = None
                continue
            idx = self.fluents[state.id]
            if self.noise_p > 0.0 and self.rng.random() < self.noise_p:
                wrong = [i for i in range(state.m) if i != idx]
                idx = wrong[self.rng.integers(len(wrong))]
            out[state.id] = idx
        return out

    def start_action(self, template: ActionTemplate) -> RunningAction:
        if self.running is not None:
            raise ProtocolError(
                f"cannot start {template.name}: {self.running.template.name} is running")
        if self.deterministic:
            ok = True
        else:
            ok = bool(self.rng.random() < template.success_probability)
        self.running = RunningAction(template, self.tick, ok)
        return self.running

    def cancel_running(self):
        if self.running is not None:
            self.running.status = "cancelled"
            self.running = None

    def step(self, schedule: Sequence[PerturbationEvent] = ()):
        """Advance one tick: finish a due action (applying its postconditions
        on success) and fire perturbation events scheduled for the new tick."""
        self.tick += 1
        self.last_result = None
        run = self.running
        if run is not None and self.tick - run.started_at >= run.template.duration_ticks:
            if run.will_succeed:
                for sid, idx in run.template.postconditions:
                    self.fluents[sid] = idx
                run.status = "succeeded"
            else:
                run.status = "failed"
            self.last_result = run
            self.running = None
        while (self._applied_events < len(schedule)
               and schedule[self._applied_events].at_tick <= self.tick):
            event = schedule[self._applied_events]
            for sid, idx in event.assignments:
                self.registry.get(sid)  # raises for unknown states
                self.fluents[sid] = idx
            for sid, flag in event.observability_changes:
                self.registry.get(sid)
                self.observable[sid] = flag
            self._applied_events += 1
