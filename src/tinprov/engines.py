"""Engine construction."""

from __future__ import annotations

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


def build_engine(
    policy: Policy,
    n_vertices: int,
    *,
    scope: Optional[ScopeMap] = None,
    window: Optional[int] = None,
    budget: Optional[BudgetSpec] = None,
    track_paths: bool = False,
    coalesce: bool = False,
    epsilon: float = 1e-9,
):
    """The engine for ``policy`` and its options.  Which policy takes which
    option is stated here; the engines' constructors check the options' values.
    ``n_vertices=0`` checks a configuration before the input is read."""
    gentime = policy in (Policy.LEAST_RECENTLY_BORN, Policy.MOST_RECENTLY_BORN)
    if policy not in PROPORTIONAL_POLICIES and (scope, window, budget) != (None,) * 3:
        raise ConfigError(
            "selective/grouped, window and budget only apply to proportional policies"
        )
    if (window is not None or budget is not None) and policy is not Policy.PROP_SPARSE:
        raise ConfigError("window and budget mechanisms need sparse provenance lists")
    if track_paths and policy not in ELEMENT_POLICIES:
        raise ConfigError("path tracking is only meaningful for element policies")
    if coalesce and not gentime:
        raise ConfigError("coalescing applies to generation-time policies only")
    if policy is Policy.NOPROV:
        return NoProvEngine(n_vertices, epsilon)
    if gentime:
        return GenTimeEngine(
            n_vertices,
            most_recent=policy is Policy.MOST_RECENTLY_BORN,
            epsilon=epsilon,
            track_paths=track_paths,
            coalesce=coalesce,
        )
    if policy in (Policy.FIFO, Policy.LIFO):
        return ReceiptEngine(
            n_vertices,
            lifo=policy is Policy.LIFO,
            epsilon=epsilon,
            track_paths=track_paths,
        )
    return ProportionalSparseEngine(
        n_vertices,
        scope=scope,
        epsilon=epsilon,
        budget=budget,
        window=window,
        dense=policy is Policy.PROP_DENSE,
    )
