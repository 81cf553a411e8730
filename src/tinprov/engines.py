"""Engine configuration and construction."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Optional

from .core import (
    ELEMENT_POLICIES,
    PROPORTIONAL_POLICIES,
    ConfigError,
    NoProvEngine,
    Policy,
)
from .gentime import GenTimeEngine
from .proportional import ProportionalSparseEngine
from .receipt import ReceiptEngine
from .scalable import BudgetSpec, ScopeMap


@dataclass
class EngineConfig:
    """Validated bundle of policy, scope mechanism and tracking options."""

    policy: Policy
    scope: Optional[ScopeMap] = None
    window: Optional[int] = None
    budget: Optional[BudgetSpec] = None
    track_paths: bool = False
    coalesce: bool = False
    epsilon: float = 1e-9

    def validate(self) -> None:
        mechanisms = sum(x is not None for x in (self.scope, self.window, self.budget))
        if mechanisms > 1:
            raise ConfigError("selective/grouped, window and budget are mutually exclusive")
        if mechanisms and self.policy not in PROPORTIONAL_POLICIES:
            raise ConfigError(
                "selective/grouped, window and budget only apply to proportional policies"
            )
        if (self.window is not None or self.budget is not None) and self.policy is not Policy.PROP_SPARSE:
            raise ConfigError("window and budget mechanisms need sparse provenance lists")
        if self.track_paths and self.policy not in ELEMENT_POLICIES:
            raise ConfigError("path tracking is only meaningful for element policies")
        if self.coalesce:
            if self.policy not in (Policy.LEAST_RECENTLY_BORN, Policy.MOST_RECENTLY_BORN):
                raise ConfigError("coalescing applies to generation-time policies only")
            if self.track_paths:
                raise ConfigError("coalescing would merge parcels with distinct paths")
        if self.window is not None and self.window < 1:
            raise ConfigError("window must be a positive interaction count")
        if not (isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigError("epsilon must be finite and non-negative")


def build_engine(cfg: EngineConfig, n_vertices: int):
    cfg.validate()
    policy = cfg.policy
    if policy is Policy.NOPROV:
        return NoProvEngine(n_vertices, cfg.epsilon)
    if policy in (Policy.LEAST_RECENTLY_BORN, Policy.MOST_RECENTLY_BORN):
        return GenTimeEngine(
            n_vertices,
            most_recent=policy is Policy.MOST_RECENTLY_BORN,
            epsilon=cfg.epsilon,
            track_paths=cfg.track_paths,
            coalesce=cfg.coalesce,
        )
    if policy in (Policy.FIFO, Policy.LIFO):
        return ReceiptEngine(
            n_vertices,
            lifo=policy is Policy.LIFO,
            epsilon=cfg.epsilon,
            track_paths=cfg.track_paths,
        )
    return ProportionalSparseEngine(
        n_vertices,
        scope=cfg.scope,
        epsilon=cfg.epsilon,
        budget=cfg.budget,
        window=cfg.window,
        dense=policy is Policy.PROP_DENSE,
    )
