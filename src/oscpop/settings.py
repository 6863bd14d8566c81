"""Solver and scan settings.

The CLI builds one flag per field of these dataclasses for every
command, so they live apart from the solvers and import no numpy:
parsing a command line loads no solver. ``capacity`` re-exports
SolverConfig and ``discretemap`` re-exports ScanConfig.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SolverConfig", "ScanConfig"]


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by the integrators and the quadrature.

    abs_tol / rel_tol bound the local error of adaptive algorithms,
    max_step / min_step bound integrator step sizes, and max_iterations
    caps attempted steps or panel subdivisions per call.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_step: float = math.inf
    min_step: float = 1e-13
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError(
                f"tolerances must be positive and finite, got abs_tol={self.abs_tol}, rel_tol={self.rel_tol}"
            )
        if not (0.0 < self.min_step < self.max_step):
            raise ValueError("need 0 < min_step < max_step")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class ScanConfig:
    """Attractor-detection settings; the single source of their defaults.

    An orbit counts as diverged once a value is non-finite or its
    normalized coordinate leaves [-10, 10].
    """

    transient: int = 10_000
    window: int = 512
    match_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.transient < 0 or self.window < 4:
            raise ValueError("need transient >= 0 and window >= 4")
        if not 0.0 < self.match_tol < math.inf:
            raise ValueError(f"match_tol must be positive and finite, got {self.match_tol}")
