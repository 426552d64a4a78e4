"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL ...` line.  The heavy flow
runs are shared session fixtures; their wall time is charged to the
criterion that owns them.
"""
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from discflow.analysis import area_balance, compare_grim_reaper, extract_blowup, fit_asymptotics
from discflow.checks import (
    angle_law_residuals,
    barrier_min_slack,
    eigenvalue_residual,
    pairing_residuals,
)
from discflow.flow import (
    FlowRunConfig,
    hausdorff_to_minimizing_arc,
    maximum_principle_check,
    run,
    speed_bound_check,
    theta_bar_ode_check,
)
from discflow.geometry import Curve, curvature_profile, enclosed_area
from discflow.hairclip import initial_curve, lambda0, solve_orthogonal_pair


def sample_circle_arc(center, radius, psi0, psi1, n):
    """Nodes of a circular arc sampled uniformly in its own angle."""
    psi = np.linspace(psi0, psi1, n + 1)
    cx, cy = float(center[0]), float(center[1])
    return np.column_stack([cx + radius * np.cos(psi), cy + radius * np.sin(psi)])


def report(num, ok, detail, seconds=None):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    if seconds is not None:
        line += f" ({seconds:.1f}s)"
    print(line, flush=True)


def timed_run(d, rho, n, record_every, t_end=None):
    t0 = time.perf_counter()
    c = initial_curve(rho, d, n)
    lam, _ = solve_orthogonal_pair(rho, d)
    traj = run(FlowRunConfig(d=d, initial=c, n=n, t_end=t_end,
                             record_every=record_every))
    traj.rho = rho
    traj.lambda_ref = lam
    return {"traj": traj, "wall": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def run_c4_128():
    return timed_run(0.5, 0.3, 128, 200)


@pytest.fixture(scope="session")
def run_c4_256():
    return timed_run(0.5, 0.3, 256, 800)


@pytest.fixture(scope="session")
def run_c5():
    return timed_run(0.5, 1e-2, 128, 100, t_end=12.5)


@pytest.fixture(scope="session")
def run_c6_128():
    return timed_run(1.0, 0.3, 128, 100)


@pytest.fixture(scope="session")
def run_c6_256():
    return timed_run(1.0, 0.3, 256, 400)


def test_criterion_1_barrier_ode_agreement():
    t0 = time.perf_counter()
    worst, closed = angle_law_residuals()
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and closed < 1e-12 and elapsed < 1.0
    report(1, ok, f"RK4 vs closed form: |dtheta|={worst:.2e} (<1e-8), "
                  f"d=1 arccos form: {closed:.2e} (<1e-12)", elapsed)
    assert worst < 1e-8
    assert closed < 1e-12
    assert elapsed < 1.0


def test_criterion_2_barrier_inequalities():
    t0 = time.perf_counter()
    min_slack = barrier_min_slack()
    elapsed = time.perf_counter() - t0
    ok = min_slack >= -1e-10 and elapsed < 1.0
    report(2, ok, f"DN+NN min slack {min_slack:.2e} (>= -1e-10) over 80 slices",
           elapsed)
    assert min_slack >= -1e-10
    assert elapsed < 1.0


def test_criterion_3_eigenvalue_and_pairing():
    t0 = time.perf_counter()
    worst_resid = eigenvalue_residual()
    oracle_1 = brentq(lambda x: math.tanh(2.0 * x) - x, 1e-6, 1.0 - 1e-12, xtol=1e-14)
    oracle_05 = brentq(lambda x: math.tanh(1.5 * x) - x, 1e-6, 1.0 - 1e-12, xtol=1e-14)
    lam_1, lam_05 = lambda0(1.0).lambda0, lambda0(0.5).lambda0
    values_ok = (abs(lam_1 - oracle_1) < 1e-10 and abs(lam_05 - oracle_05) < 1e-10
                 and abs(lam_1 - 0.9575) < 1e-4 and abs(lam_05 - 0.858) < 1e-3)
    worst_pair, mono_ok = pairing_residuals()
    elapsed = time.perf_counter() - t0
    ok = (worst_resid < 1e-12 and values_ok and worst_pair < 1e-8
          and mono_ok and elapsed < 5.0)
    report(3, ok, f"eigen residual {worst_resid:.2e} (<1e-12), "
                  f"lam0(1)={lam_1:.6f}, lam0(0.5)={lam_05:.6f}, "
                  f"pairing residual {worst_pair:.2e} (<1e-8), "
                  f"g decreasing: {mono_ok}", elapsed)
    assert worst_resid < 1e-12
    assert values_ok
    assert worst_pair < 1e-8
    assert mono_ok
    assert elapsed < 5.0


def test_criterion_4_long_time_convergence(run_c4_128, run_c4_256):
    wall = run_c4_128["wall"] + run_c4_256["wall"]
    tr128, tr256 = run_c4_128["traj"], run_c4_256["traj"]
    final = tr128.states[-1]
    dist = hausdorff_to_minimizing_arc(final.curve.nodes, 0.5)
    kap = final.diagnostics.kappa_max
    same_outcome = (tr128.outcome.kind == tr256.outcome.kind
                    == "converged_to_minimizer")
    ok = dist < 1e-3 and kap < 1e-3 and same_outcome and wall < 300.0
    report(4, ok, f"d=0.5 outcome {tr128.outcome.kind} at both N; "
                  f"hausdorff {dist:.2e} (<1e-3), kappa {kap:.2e} (<1e-3)", wall)
    assert same_outcome
    assert dist < 1e-3
    assert kap < 1e-3
    assert wall < 300.0


def test_criterion_5_backward_rate(run_c5):
    t0 = time.perf_counter()
    traj = run_c5["traj"]
    lam0 = lambda0(0.5).lambda0
    fit = fit_asymptotics(traj, lam0)
    rel = abs(fit.rate - lam0 ** 2) / lam0 ** 2
    wall = run_c5["wall"] + (time.perf_counter() - t0)
    ok = rel < 0.03 and fit.profile_error < 0.02 and fit.A > 0.0 and wall < 300.0
    report(5, ok, f"rate {fit.rate:.5f} vs lam0^2 {lam0 ** 2:.5f} "
                  f"(rel {rel:.4f} < 0.03), profile L2 error "
                  f"{fit.profile_error:.4f} (<0.02), A={fit.A:.3e}>0", wall)
    assert rel < 0.03
    assert fit.profile_error < 0.02
    assert fit.A > 0.0
    assert wall < 300.0


def test_criterion_6_extinction_and_blowup(run_c6_128, run_c6_256):
    t0 = time.perf_counter()
    tr128, tr256 = run_c6_128["traj"], run_c6_256["traj"]
    both_extinct = tr128.outcome.kind == tr256.outcome.kind == "extinct"
    w128, w256 = tr128.outcome.time, tr256.outcome.time
    omega_rel = abs(w128 - w256) / w256
    seq = extract_blowup(tr256, count=8)
    rep = compare_grim_reaper(seq, window_halfwidth=1.0)
    ind = rep.type2_indicator
    type2 = all(b > a for a, b in zip(ind, ind[1:]))
    wall = run_c6_128["wall"] + run_c6_256["wall"] + (time.perf_counter() - t0)
    ok = (both_extinct and omega_rel < 0.02 and type2
          and rep.sup_deviation < 0.05 and rep.tip_identity_error < 0.05
          and wall < 600.0)
    report(6, ok, f"extinct at {w128:.4f}/{w256:.4f} (rel {omega_rel:.4f} < 0.02); "
                  f"type-II indicator increasing: {type2}; soliton deviation "
                  f"{rep.sup_deviation:.4f} (<0.05); tip identity error "
                  f"{rep.tip_identity_error:.4f} (<0.05)", wall)
    assert both_extinct
    assert omega_rel < 0.02
    assert type2
    assert rep.sup_deviation < 0.05
    assert rep.tip_identity_error < 0.05
    assert wall < 600.0


def test_criterion_7_maximum_principle_invariants(run_c4_128, run_c4_256,
                                                  run_c5, run_c6_128,
                                                  run_c6_256):
    t0 = time.perf_counter()
    rows = []
    all_ok = True
    for name, bundle in (("c4/128", run_c4_128), ("c4/256", run_c4_256),
                         ("c5", run_c5), ("c6/128", run_c6_128),
                         ("c6/256", run_c6_256)):
        traj = bundle["traj"]
        mp = maximum_principle_check(traj)
        ode = theta_bar_ode_check(traj, raise_on_fail=False)
        speed = speed_bound_check(traj, traj.lambda_ref, raise_on_fail=False)
        run_ok = (mp.passed and ode.max_barrier_excess <= 5e-3
                  and speed.min_margin >= -1e-3)
        all_ok = all_ok and run_ok
        rows.append(f"{name}:{'ok' if run_ok else 'BAD'}")
    elapsed = time.perf_counter() - t0
    report(7, all_ok, "kappa/kappa_s/gradient/curvature bounds, theta_bar vs "
                      "subsolution, speed bound on " + ", ".join(rows), elapsed)
    assert all_ok


def test_criterion_8_area_first_variation(run_c4_128, run_c4_256):
    t0 = time.perf_counter()
    rep128 = area_balance(run_c4_128["traj"])
    rep256 = area_balance(run_c4_256["traj"])
    factor = rep128.max_discrepancy / rep256.max_discrepancy
    elapsed = time.perf_counter() - t0
    ok = rep128.max_discrepancy < 5e-3 and factor >= 3.0
    report(8, ok, f"max |dA/dt + spread| = {rep128.max_discrepancy:.2e} "
                  f"(<5e-3) at N=128, improvement x{factor:.2f} (>=3) at N=256",
           elapsed)
    assert rep128.max_discrepancy < 5e-3
    assert factor >= 3.0


def test_criterion_9_geometry_oracles():
    t0 = time.perf_counter()

    # curvature order: the circumscribed-circle estimator is exact on
    # circles (checked below, far stronger than O(1/N^2)), so the
    # Richardson ratio is measured on a non-circular analytic convex arc
    aa, bb = 1.0, 0.6

    def kappa_exact(t):
        return aa * bb / (aa ** 2 * np.sin(t) ** 2 + bb ** 2 * np.cos(t) ** 2) ** 1.5

    errs = []
    for n in (64, 128, 256):
        t = np.linspace(0.2, math.pi - 0.2, n + 1)
        nodes = np.column_stack([aa * np.cos(t), bb * np.sin(t)])
        c = Curve(nodes=nodes)
        prof = curvature_profile(c)
        errs.append(float(np.abs(prof.kappa[1:-1] - kappa_exact(t[1:-1])).max()))
    curv_ratios = (errs[0] / errs[1], errs[1] / errs[2])

    circle_exact = 0.0
    for n in (32, 64, 128):
        t = np.linspace(math.pi, 0.0, n + 1)
        nodes = np.column_stack([np.cos(t), np.sin(t)])
        c = Curve(nodes=nodes)
        circle_exact = max(circle_exact,
                           float(np.abs(curvature_profile(c).kappa - 1.0).max()))

    # enclosed area of an analytic circular-arc region vs its exact value
    d, theta = 0.5, 0.5 * math.pi
    a_coef = 0.5 * (1.0 / d + d)
    r = (a_coef + math.cos(theta)) / math.sin(theta)
    center = np.array([math.cos(theta) - r * math.sin(theta),
                       math.sin(theta) + r * math.cos(theta)])
    psi0 = math.atan2(-center[1], -d - center[0])
    psi1 = math.atan2(math.sin(theta) - center[1], math.cos(theta) - center[0])
    dpsi = (psi1 - psi0 + math.pi) % (2.0 * math.pi) - math.pi
    e0 = np.array([math.cos(psi0), math.sin(psi0)])
    e1 = np.array([math.cos(psi0 + dpsi), math.sin(psi0 + dpsi)])
    exact = (0.5 * r * r * dpsi
             + 0.5 * r * (center[0] * (e1[1] - e0[1]) - center[1] * (e1[0] - e0[0]))
             + 0.5 * (math.pi - theta))
    area_errs = []
    for n in (64, 128, 256):
        nodes = sample_circle_arc(center, r, psi0, psi0 + dpsi, n)
        c = Curve(nodes=nodes)
        area_errs.append(abs(enclosed_area(c) - exact))
    area_ratios = (area_errs[0] / area_errs[1], area_errs[1] / area_errs[2])

    elapsed = time.perf_counter() - t0
    ok = (min(curv_ratios) >= 3.5 and circle_exact < 1e-12
          and min(area_ratios) >= 3.5)
    report(9, ok, f"curvature order-2 ratios {curv_ratios[0]:.2f}/"
                  f"{curv_ratios[1]:.2f} (>=3.5), circles exact to "
                  f"{circle_exact:.1e}, area ratios {area_ratios[0]:.2f}/"
                  f"{area_ratios[1]:.2f} (>=3.5)", elapsed)
    assert min(curv_ratios) >= 3.5
    assert circle_exact < 1e-12
    assert min(area_ratios) >= 3.5
