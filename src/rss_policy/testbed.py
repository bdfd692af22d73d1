"""Instance generators for the scalability and factorial benchmark designs.

The factorial design crosses review/order cost levels with five demand
models (Poisson plus normal at four uncertainty levels) and six demand
patterns. Pattern shapes are defined here (ramp slopes, sinusoid
amplitudes) and every pattern is rescaled to the same total demand
``base_mean * T`` so costs are comparable across patterns; substitute
your own mean vectors if you need different shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostParams
from .demand import DemandSpec
from .model import Instance

PATTERNS = ("STA", "INC", "DEC", "LCY1", "LCY2", "RAND")
ANALYSIS_COST_LEVELS = (20.0, 40.0, 80.0, 160.0, 320.0)
ANALYSIS_CVS = (0.1, 0.2, 0.3, 0.4)
ANALYSIS_BASE_MEAN = 50.0


@dataclass(frozen=True)
class PatternSpec:
    """A demand pattern: shape name, per-period base level and horizon.

    ``seed`` only matters for the erratic RAND pattern.
    """

    kind: str
    base_mean: float
    T: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PATTERNS:
            raise ValueError(f"unknown pattern {self.kind!r}; expected one of {PATTERNS}")
        if self.base_mean <= 0:
            raise ValueError("base mean must be positive")
        if self.T < 1:
            raise ValueError("horizon must be positive")


def pattern_means(spec: PatternSpec) -> np.ndarray:
    """Per-period mean demand for a pattern, normalized to total
    ``base_mean * T``."""
    T, base = spec.T, spec.base_mean
    u = np.arange(T) / (T - 1) if T > 1 else np.zeros(1)
    if spec.kind == "STA":
        mu = np.full(T, base)
    elif spec.kind == "INC":
        mu = base * (0.4 + 1.2 * u)
    elif spec.kind == "DEC":
        mu = (base * (0.4 + 1.2 * u))[::-1]
    elif spec.kind == "LCY1":
        mu = base * (1.0 + 0.6 * np.sin(np.pi * u))
    elif spec.kind == "LCY2":
        mu = base * (1.0 + 0.6 * np.sin(2.0 * np.pi * u))
    else:  # RAND
        rng = np.random.default_rng(spec.seed)
        mu = base * rng.uniform(0.4, 1.6, size=T)
    mu = np.maximum(mu, 1e-9)
    return mu * (base * T / mu.sum())


def gen_scalability(T: int, n: int, seed: int) -> list[Instance]:
    """Instances for scaling studies: h = 1, uniform K and W in [80, 320],
    uniform b in [4, 16], independent Poisson means in [30, 70]."""
    if n < 1:
        raise ValueError("need at least one instance")
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        params = CostParams(
            K=float(rng.uniform(80.0, 320.0)),
            W=float(rng.uniform(80.0, 320.0)),
            h=1.0,
            b=float(rng.uniform(4.0, 16.0)),
        )
        demand = tuple(
            DemandSpec(kind="poisson", mean=float(m))
            for m in rng.uniform(30.0, 70.0, size=T)
        )
        out.append(
            Instance(
                T=T,
                params=params,
                I0=0,
                demand=demand,
                label=f"scal-T{T}-{k:03d}",
            )
        )
    return out


def _demand_models() -> list[tuple[str, str, float]]:
    """(tag, kind, cv) for the five demand models of the factorial design."""
    models = [("poisson", "poisson", 0.0)]
    models += [(f"normal{cv}", "normal", cv) for cv in ANALYSIS_CVS]
    return models


def gen_analysis(T: int, seed: int = 0) -> list[Instance]:
    """Full factorial design for one horizon: 5 K levels x 5 W levels x
    5 demand models x 6 patterns = 750 instances, h = 1, b = 10 and a
    base mean demand of ``ANALYSIS_BASE_MEAN`` per period.

    The RAND pattern's mean vector is drawn once per horizon (from
    ``seed``) and shared across all cost cells, so the pattern itself is
    the experimental factor.
    """
    if T not in (10, 20):
        raise ValueError("the factorial design is defined for T in {10, 20}")
    means_by_pattern = {
        pat: pattern_means(PatternSpec(kind=pat, base_mean=ANALYSIS_BASE_MEAN, T=T, seed=seed + T))
        for pat in PATTERNS
    }
    out = []
    for K in ANALYSIS_COST_LEVELS:
        for W in ANALYSIS_COST_LEVELS:
            for tag, kind, cv in _demand_models():
                for pat in PATTERNS:
                    demand = tuple(
                        DemandSpec(kind=kind, mean=float(m), cv=cv)
                        for m in means_by_pattern[pat]
                    )
                    out.append(
                        Instance(
                            T=T,
                            params=CostParams(K=K, W=W, h=1.0, b=10.0),
                            I0=0,
                            demand=demand,
                            label=f"analysis-T{T}-K{K:g}-W{W:g}-{tag}-{pat}",
                        )
                    )
    return out
