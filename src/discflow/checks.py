"""Sweeps over the paper's exact objects, shared by `discflow verify` and
the acceptance gate.  Each fixes its grid and returns the worst value(s);
none raises on a violation, the caller holds the tolerance."""
from __future__ import annotations

import math

import numpy as np

from . import barriers as bar
from . import hairclip as hc

#: Dirichlet offsets of the arc, angle-law and barrier sweeps
D_GRID = (0.3, 0.7, 1.0)


def hyperbolic_identity_residual() -> float:
    """max |a^2 - b^2 - 1| over 50 offsets d in [0.1, 1]."""
    return max(abs(cfg.a ** 2 - cfg.b ** 2 - 1.0)
               for cfg in map(bar.ProblemConfig, np.linspace(0.1, 1.0, 50)))


def _orthogonality(arc: bar.ArcBarrier) -> float:
    # a circle meets the unit circle orthogonally iff |center|^2 = 1 + r^2
    return abs(arc.center @ arc.center - 1.0 - arc.radius ** 2)


def arc_residuals() -> tuple[float, float]:
    """Worst orthogonality residual of the DN and NN arcs (25 angles each)
    and worst distance of o from the DN circles."""
    worst_orth = worst_origin = 0.0
    for d in D_GRID:
        cfg = bar.ProblemConfig(d)
        for theta in np.linspace(0.05, math.pi - 0.05, 25):
            arc = bar.dn_arc(cfg, theta)
            worst_orth = max(worst_orth, _orthogonality(arc))
            worst_origin = max(worst_origin,
                               abs(math.hypot(-d - arc.center[0], -arc.center[1])
                                   - arc.radius))
    for theta in np.linspace(0.05, 0.5 * math.pi - 0.05, 25):
        worst_orth = max(worst_orth, _orthogonality(bar.nn_arc(theta)))
    return worst_orth, worst_origin


def angle_law_residuals() -> tuple[float, float]:
    """Worst |theta_minus - RK4| on every 25th ODE step, and worst
    |theta_minus - arccos(1 - e^t)| at d = 1 on 400 times."""
    worst = 0.0
    for d in D_GRID:
        cfg = bar.ProblemConfig(d)
        t_grid, th_grid = bar.integrate_characteristic_ode(
            cfg, -10.0, min(cfg.omega - 0.01, 5.0))
        sub = slice(0, None, 25)
        worst = max(worst, float(np.abs(
            bar.theta_minus(cfg, t_grid[sub]) - th_grid[sub]).max()))
    ts = np.linspace(-10.0, math.log(2.0) - 0.01, 400)
    closed = float(np.abs(bar.theta_minus(bar.ProblemConfig(1.0), ts)
                          - np.arccos(1.0 - np.exp(ts))).max())
    return worst, closed


def barrier_min_slack() -> float:
    """Least slack over 80 slices (DN per d, and NN) on their time windows."""
    families = [(bar.ProblemConfig(d), bar.ArcKind.DIRICHLET_NEUMANN) for d in D_GRID]
    families.append((bar.ProblemConfig(1.0), bar.ArcKind.NEUMANN_NEUMANN))
    return min(rep.min_slack for cfg, kind in families
               for rep in bar.window_reports(cfg, kind))


def eigenvalue_residual() -> float:
    """max |tanh(lam0 (1 + d)) - lam0| over 50 offsets d in [0.05, 1]."""
    ds = np.linspace(0.05, 1.0, 50)
    return max(abs(hc.Eigenvalue(lam, d).residual)
               for lam, d in zip(hc.lambda0_roots(ds).tolist(), ds.tolist()))


def pairing_residuals() -> tuple[float, bool]:
    """Over 10 offsets times 10 angles: worst |atan(slope) - theta| of the
    orthogonal slice at its circle endpoint, and whether the pairing
    function decreases strictly on 1000 scales."""
    worst = 0.0
    decreasing = True
    ds = np.repeat(np.linspace(0.1, 1.0, 10), 10).tolist()
    thetas = np.tile(np.linspace(0.1, 0.5 * math.pi - 0.05, 10), 10).tolist()
    pairs = hc.solve_orthogonal_pairs(thetas, ds)
    for (lam, t), theta, d in zip(pairs, thetas, ds):
        worst = max(worst, hc.tangent_residual(hc.HairclipSlice(lam=lam, t=t, d=d), theta))
        lam_hi = 0.5 * math.pi / math.sin(theta)
        # one 1000-scale grid per lane: a 100 x 1000 array would raise peak memory
        g = hc.pairing_function_g(np.linspace(1e-4, lam_hi * (1 - 1e-9), 1000), theta, d)
        decreasing = decreasing and bool(np.all(np.diff(g) < 0.0))
    return worst, decreasing
