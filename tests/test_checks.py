"""The verify sweeps in discflow.checks equal the compositions of the
one-object calls they batch, to the bit."""
import math

import numpy as np
import pytest

from discflow import barriers as bar
from discflow import checks
from discflow import hairclip as hc


def test_pairing_residuals_equal_per_pair_calls():
    worst = 0.0
    decreasing = True
    for d in np.linspace(0.1, 1.0, 10):
        for theta in np.linspace(0.1, 0.5 * math.pi - 0.05, 10):
            lam, t = hc.solve_orthogonal_pair(float(theta), float(d))
            s = hc.HairclipSlice(lam=lam, t=t, d=float(d))
            worst = max(worst, abs(math.atan(float(hc.slice_slope(s, math.cos(theta))))
                                   - theta))
            lam_hi = 0.5 * math.pi / math.sin(theta)
            g = hc.pairing_function_g(np.linspace(1e-4, lam_hi * (1 - 1e-9), 1000),
                                      float(theta), float(d))
            decreasing = decreasing and bool(np.all(np.diff(g) < 0.0))
    assert checks.pairing_residuals() == (worst, decreasing)


def test_barrier_min_slack_equals_per_slice_calls():
    worst = math.inf
    families = [(bar.ProblemConfig(d), bar.ArcKind.DIRICHLET_NEUMANN) for d in checks.D_GRID]
    families.append((bar.ProblemConfig(1.0), bar.ArcKind.NEUMANN_NEUMANN))
    for cfg, kind in families:
        for t in bar.time_window(cfg, kind):
            worst = min(worst,
                        bar.verify_barrier_inequality(cfg, kind, float(t)).min_slack)
    assert checks.barrier_min_slack() == worst


def test_eigenvalue_residual_equals_per_offset_calls():
    want = max(abs(hc.lambda0(float(d)).residual) for d in np.linspace(0.05, 1.0, 50))
    assert checks.eigenvalue_residual() == want


def test_angle_law_residuals_equal_per_time_calls():
    worst = 0.0
    for d in checks.D_GRID:
        cfg = bar.ProblemConfig(d)
        t_grid, th_grid = bar.integrate_characteristic_ode(
            cfg, -10.0, min(cfg.omega - 0.01, 5.0))
        sub = slice(0, None, 25)
        inv = [bar.theta_minus(cfg, t) for t in t_grid[sub].tolist()]
        worst = max(worst, float(np.abs(np.array(inv) - th_grid[sub]).max()))
    ts = np.linspace(-10.0, math.log(2.0) - 0.01, 400)
    inv = [bar.theta_minus(bar.ProblemConfig(1.0), t) for t in ts.tolist()]
    closed = float(np.abs(np.array(inv) - np.arccos(1.0 - np.exp(ts))).max())
    assert checks.angle_law_residuals() == (worst, closed)
