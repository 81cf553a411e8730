"""Engine configuration and construction."""

from __future__ import annotations

from dataclasses import dataclass
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
    """Bundle of policy, scope mechanism and tracking options."""

    policy: Policy
    scope: Optional[ScopeMap] = None
    window: Optional[int] = None
    budget: Optional[BudgetSpec] = None
    track_paths: bool = False
    coalesce: bool = False
    epsilon: float = 1e-9

    def validate(self) -> None:
        """Raise ConfigError for what ``build_engine`` would refuse, at no input size."""
        build_engine(self, 0)


def build_engine(cfg: EngineConfig, n_vertices: int):
    """The engine ``cfg`` names.  Which policy takes which option is stated
    here; the engines' constructors check the options' values."""
    policy = cfg.policy
    gentime = policy in (Policy.LEAST_RECENTLY_BORN, Policy.MOST_RECENTLY_BORN)
    if policy not in PROPORTIONAL_POLICIES and (cfg.scope, cfg.window, cfg.budget) != (None,) * 3:
        raise ConfigError(
            "selective/grouped, window and budget only apply to proportional policies"
        )
    if (cfg.window is not None or cfg.budget is not None) and policy is not Policy.PROP_SPARSE:
        raise ConfigError("window and budget mechanisms need sparse provenance lists")
    if cfg.track_paths and policy not in ELEMENT_POLICIES:
        raise ConfigError("path tracking is only meaningful for element policies")
    if cfg.coalesce and not gentime:
        raise ConfigError("coalescing applies to generation-time policies only")
    if policy is Policy.NOPROV:
        return NoProvEngine(n_vertices, cfg.epsilon)
    if gentime:
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
