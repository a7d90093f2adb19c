"""Per-order bound table and the two closed-form chromatic bounds.

Each table row records, for graphs with no complete minor of order t+1:
the extremal edge count (when one is used), the minimum-degree bound
delta it yields, the independence guarantee alpha for delta-vertex
neighborhood graphs, and the resulting palette bound delta - alpha + 2.
Rows exist for t = 2..10 in proven mode and t = 6..8 in conjectured
mode (conjectured minimum-degree values, no edge bound behind them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .indep import gamma_constant, independence_guarantee
from .minor import EXTREMAL_EDGE_BOUNDS

PROVEN_T_RANGE = range(2, 11)
CONJECTURED_DELTA = {6: 7, 7: 8, 8: 10}

# Direct minimum-degree statements for the rows without an edge-count row.
_DIRECT_DELTA = {2: 1, 3: 2}

# Stated small-graph independence guarantees, cross-checked at row build.
_STATED_ALPHA = {2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2, 9: 3, 10: 3}

# Best chromatic bounds from the wider literature, shown for context only.
BEST_KNOWN_CHI = {5: 5, 6: 8, 7: 10}


@dataclass(frozen=True)
class EdgeBound:
    coeff: int
    const: int
    min_vertices: int


@dataclass(frozen=True)
class BoundRow:
    t: int
    edge_bound: EdgeBound | None
    delta: int
    delta_provenance: str  # "proven" | "conjectured"
    alpha: int
    chi_bound: int
    best_known_chi: int | None
    hadwiger_target: int


def delta_from_edge_bound(coeff: int, const: int) -> int:
    """Average degree below 2*coeff forces a vertex of degree <= 2*coeff - 1."""
    if coeff < 1 or const < 1:
        raise ValueError("edge bound coefficients must be positive")
    return 2 * coeff - 1


def _alpha_for(delta: int, t: int) -> int:
    """Independence guarantee for delta-vertex graphs with no order-t minor:
    the best of variants (a) and (b), or the single-vertex case directly."""
    if delta == 1:
        return 1
    best = independence_guarantee(delta, t, "a").alpha
    if t >= 5:
        best = max(best, independence_guarantee(delta, t, "b").alpha)
    return best


def table_row(t: int, mode: str = "proven") -> BoundRow:
    if mode not in ("proven", "conjectured"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "conjectured":
        if t not in CONJECTURED_DELTA:
            raise ValueError(f"no conjectured row for t={t}")
        delta = CONJECTURED_DELTA[t]
        edge_bound = None
    else:
        if t not in PROVEN_T_RANGE:
            raise ValueError(f"no proven row for t={t}")
        if t in _DIRECT_DELTA:
            delta = _DIRECT_DELTA[t]
            edge_bound = None
        else:
            coeff, const, min_vertices = EXTREMAL_EDGE_BOUNDS[t + 1]
            edge_bound = EdgeBound(coeff, const, min_vertices)
            delta = delta_from_edge_bound(coeff, const)
    alpha = _alpha_for(delta, t - 1)
    if mode == "proven" and alpha != _STATED_ALPHA[t]:
        raise AssertionError(
            f"recomputed alpha {alpha} disagrees with the stated value "
            f"{_STATED_ALPHA[t]} for t={t}"
        )
    return BoundRow(
        t=t,
        edge_bound=edge_bound,
        delta=delta,
        delta_provenance=mode,
        alpha=alpha,
        chi_bound=delta - alpha + 2,
        best_known_chi=BEST_KNOWN_CHI.get(t) if mode == "proven" else None,
        hadwiger_target=t,
    )


def full_table(mode: str = "proven") -> list[BoundRow]:
    ts = PROVEN_T_RANGE if mode == "proven" else sorted(CONJECTURED_DELTA)
    return [table_row(t, mode) for t in ts]


def chi_upper_bound_b(delta: int, t: int) -> Fraction:
    """delta - (2*delta - 5)/(4t - 14) + 3/2, exactly; floor it to use it."""
    if t < 6:
        raise ValueError("t must be >= 6")
    return Fraction(delta) - Fraction(2 * delta - 5, 4 * t - 14) + Fraction(3, 2)


def chi_upper_bound_c(delta: int, t: int) -> float:
    """delta * (1 - 1/((2 - gamma)(t - 1))) + 2; floor it to use it."""
    if t < 6:
        raise ValueError("t must be >= 6")
    gamma = gamma_constant()
    return delta * (1.0 - 1.0 / ((2.0 - gamma) * (t - 1))) + 2.0


def best_closed_form_chi(delta: int, t: int) -> int:
    """The usable integer bound: the better of the two closed forms."""
    return min(
        math.floor(chi_upper_bound_b(delta, t)),
        math.floor(chi_upper_bound_c(delta, t)),
    )
