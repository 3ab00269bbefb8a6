"""End-to-end acceptance checks, one scorecard line per check.

Every test prints "acceptance NN <name>: PASS/FAIL (detail)" through the
capture-disabled channel before asserting, so a full run produces a
readable scorecard even when a check fails.  Two checks (05a and 09b)
assert targets that this implementation does not reach and are expected
to fail; README.md discusses both.
"""

import math
import time

import numpy as np
import pytest

from spanova.asp import (
    AspConfig,
    extrapolate_lambda,
    fit_rate,
    order_based,
)
from spanova.data import Dataset, unit_domains
from spanova.gcv import gcv_score, minimize_lambda, skip_select
from spanova.kernels import (
    LABEL_PARAMETRIC,
    LABEL_SMOOTH,
    AnovaTerm,
    PredictorDomain,
    cubic_kernel_part,
    discrete_kernel_part,
    full_two_way_model,
    main_effects_model,
    term_gram,
)
from spanova.simulate import (
    analytic_lambda_periodic,
    oracle_lambda_midgrid,
    run_benchmark,
)
from spanova.solver import (
    DesignRows,
    assemble_blocks,
    demmler_reinsch,
    hat_trace,
    part_traces,
    select_basis,
    solve_penalized,
)


def _report(capsys, name, ok, detail=""):
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)


def _random_problem(seed, n, d, q, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    eta = np.sin(2 * np.pi * x[:, 0])
    if d > 1:
        eta = eta + np.exp(x[:, 1]) * x[:, 0]
    y = eta + noise * rng.standard_normal(n)
    spec = full_two_way_model(unit_domains(d)) if d > 1 else main_effects_model(unit_domains(1))
    ds = Dataset(x=x, y=y, domains=spec.domains)
    basis = select_basis(n, q, seed=seed)
    return ds, spec, basis


# --------------------------------------------------- 01 solver equivalence


def test_01_solver_matches_dense_kkt(capsys):
    """The reference solves the same stationarity system in its stacked
    least-squares form: the bordered normal equations square the
    conditioning and cannot referee at 1e-8 when the basis is full."""
    start = time.time()
    worst = 0.0
    for seed in range(20):
        d = 1 + seed % 2
        ds, spec, basis = _random_problem(seed, 30, d, 30)
        blocks = assemble_blocks(ds, spec, basis)
        t, (k, q) = blocks.t, blocks.combine(np.ones(spec.n_penalized))
        nlam = 10.0 ** (-4 + seed % 3)
        m = t.shape[1]
        nq = q.shape[0]
        q_r = q + 1e-10 * np.trace(q) / nq * np.eye(nq)
        dd, cc = solve_penalized(t, k, q, ds.y, nlam)

        def objective(dv, cv):
            r = ds.y - t @ dv - k @ cv
            return float(r @ r + nlam * cv @ q_r @ cv)

        ell = np.linalg.cholesky(q_r)
        x_full = np.vstack([
            np.hstack([t, k]),
            np.hstack([np.zeros((nq, m)), np.sqrt(nlam) * ell.T]),
        ])
        y_full = np.concatenate([ds.y, np.zeros(nq)])
        beta = np.linalg.lstsq(x_full, y_full, rcond=None)[0]
        ref = objective(beta[:m], beta[m:])
        worst = max(worst, abs(objective(dd, cc) - ref) / abs(ref))
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(capsys, "01 solver-oracle-equivalence", ok,
            f"worst rel objective gap {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


# ------------------------------------------- 02 residual-map eigen identity


def test_02_residual_map_identity(capsys):
    b = 50
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(b, 1))
    spec = main_effects_model(unit_domains(1))
    ds = Dataset(x=x, y=np.zeros(b), domains=spec.domains)
    blocks = assemble_blocks(ds, spec, select_basis(b, b, seed=2))
    t, (k, q) = blocks.t, blocks.combine(np.ones(1))
    system = demmler_reinsch(t, k)
    eye = np.eye(b)
    worst = 0.0
    for lam in (1e-6, 1e-3, 1e-1):
        blam = b * lam
        _, apply_a = hat_trace(t, k, q, blam)
        a_dense = np.column_stack([apply_a(eye[:, i]) for i in range(b)])
        ref = system.z @ ((blam / (system.values + blam))[:, None] * system.z.T)
        worst = max(worst, np.abs((eye - a_dense) - ref).max())
    ok = worst <= 1e-6
    _report(capsys, "02 residual-map-eigen-identity", ok,
            f"max-norm gap {worst:.2e} over three lambdas")
    assert worst <= 1e-6


# ------------------------------------------------------ 03 score brute force


def _dense_svd_score(t, k, q, y, nlam):
    n, m = t.shape
    nq = q.shape[0]
    q_r = q + 1e-10 * np.trace(q) / nq * np.eye(nq)
    ell = np.linalg.cholesky(q_r)
    x_top = np.hstack([t, k])
    x_full = np.vstack([x_top, np.hstack([np.zeros((nq, m)), np.sqrt(nlam) * ell.T])])
    u, s, vt = np.linalg.svd(x_full, full_matrices=False)
    pinv = (vt.T / s) @ u.T
    a = x_top @ pinv[:, :n]
    resid = y - a @ y
    return (resid @ resid / n) / ((n - np.trace(a)) / n) ** 2


def test_03_lambda_search_brute_force(capsys):
    grid = np.linspace(-12, 3, 400)
    step = grid[1] - grid[0]
    worst_steps = 0.0
    for seed in range(10):
        ds, spec, basis = _random_problem(seed, 35 + seed, 1, 16)
        blocks = assemble_blocks(ds, spec, basis)
        k, q = blocks.combine(np.ones(1))
        res = minimize_lambda(blocks.t, k, q, ds.y)
        scores = [gcv_score(blocks.t, k, q, ds.y, 10.0**g) for g in grid]
        best = grid[int(np.argmin(scores))]
        worst_steps = max(worst_steps, abs(res.params.log10_nlam - best) / step)
    ds, spec, basis = _random_problem(40, 40, 1, 20)
    blocks = assemble_blocks(ds, spec, basis)
    k, q = blocks.combine(np.ones(1))
    worst_rel = 0.0
    for lg in (-8, -6, -4, -2, 0):
        mine = gcv_score(blocks.t, k, q, ds.y, 10.0**lg)
        ref = _dense_svd_score(blocks.t, k, q, ds.y, 10.0**lg)
        worst_rel = max(worst_rel, abs(mine - ref) / abs(ref))
    ok = worst_steps <= 1.0 + 1e-9 and worst_rel <= 1e-8
    _report(capsys, "03 score-brute-force", ok,
            f"argmin within {worst_steps:.2f} grid steps, score rel gap {worst_rel:.2e}")
    assert worst_steps <= 1.0 + 1e-9
    assert worst_rel <= 1e-8


# ------------------------------------------------ 04 starting-value algebra


def test_04_starting_value_hand_arithmetic(capsys):
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(5, 2))
    y = np.array([0.7, -0.2, 1.4, 0.3, -1.1])
    spec = main_effects_model(unit_domains(2))
    assert spec.n_penalized == 2
    ds = Dataset(x=x, y=y, domains=spec.domains)
    blocks = assemble_blocks(ds, spec, select_basis(5, 4, seed=0))
    from spanova.gcv import _stage_one

    rows = DesignRows(ds, spec, blocks.basis)
    theta1, c = _stage_one(rows, part_traces(ds, spec))
    hand = []
    for delta, qp in enumerate(blocks.q_parts):
        acc = 0.0
        for i in range(4):
            row = 0.0
            for j in range(4):
                row += qp[i, j] * c[j]
            acc += c[i] * row
        hand.append(theta1[delta] ** 2 * acc)
    res = skip_select(ds, spec, blocks.basis)
    gap = float(np.abs(res.params.theta / np.asarray(hand) - 1.0).max())
    ok = gap <= 1e-12
    _report(capsys, "04 starting-value-hand-arithmetic", ok,
            f"worst rel gap {gap:.2e}")
    np.testing.assert_allclose(res.params.theta, hand, rtol=1e-12)


# ----------------------------------------- 05 risk-optimal lambda rate law


def _sine(x):
    return np.sin(2.0 * np.pi * x)


def test_05a_oracle_lambda_rate_slope(capsys):
    """Expected FAIL: the asserted band -0.80 +/- 0.15 is the rough
    (p = 1) end of lambda* ~ n^{-4/(4p+1)}.  The truth sin(2 pi x) is a
    single eigenfunction of the periodic penalty and sits at the smooth
    (p = 2) end: the closed form analytic_lambda_periodic(2, ...) decays as
    n^{-4/9}, a slope of -0.444 over these sizes, and the measured slope is
    -0.489.  README.md documents the measurement."""
    start = time.time()
    grid = np.logspace(-9, -1, 300)
    sizes = (500, 1000, 2000, 4000, 8000)
    lams = []
    for n in sizes:
        res = oracle_lambda_midgrid(n, _sine, 0.5, grid)
        assert not res.boundary
        lams.append(res.lam)
    slope = float(np.polyfit(np.log(sizes), np.log(lams), 1)[0])
    elapsed = time.time() - start
    ok = -0.95 <= slope <= -0.65 and elapsed < 120.0
    _report(capsys, "05a oracle-rate-slope", ok,
            f"slope {slope:.4f} vs [-0.95, -0.65], {elapsed:.1f}s")
    assert elapsed < 120.0
    assert -0.95 <= slope <= -0.65


def test_05b_oracle_matches_analytic_constant(capsys):
    grid = np.logspace(-9, -1, 300)
    res = oracle_lambda_midgrid(4096, _sine, 0.5, grid)
    analytic = analytic_lambda_periodic(2, 0.25, (2.0 * np.pi) ** 8 / 2.0, 4096)
    ratio = res.lam / analytic
    ok = 1.0 / 3.0 <= ratio <= 3.0
    _report(capsys, "05b oracle-vs-analytic-factor", ok,
            f"oracle/analytic ratio {ratio:.3f}")
    assert 1.0 / 3.0 <= ratio <= 3.0


# --------------------------------------------- 06 extrapolation arithmetic


def test_06_extrapolation_arithmetic(capsys):
    lam = extrapolate_lambda(1e-3, 20000, 595, r=3.0, p=1.0)
    want = 1e-3 * (20000.0 / 595.0) ** -0.75
    exact_extrap = lam == want
    exact_order = order_based(10000, 3.0, 1.0) == 1e-3
    ok = exact_extrap and exact_order
    _report(capsys, "06 extrapolation-arithmetic", ok,
            f"extrapolated {lam:.6e} exact={exact_extrap}, order-based exact={exact_order}")
    assert exact_extrap
    assert exact_order


# ------------------------------------------------- 07 decay-rate recovery


def test_07_rate_fit_recovery(capsys):
    sizes = np.array([200.0, 320.0, 500.0, 800.0, 1250.0, 2000.0])
    worst = 0.0
    for c_true, g_true in ((0.37, 0.6), (1e-2, 0.75)):
        fit = fit_rate(sizes, c_true * sizes ** (-g_true))
        worst = max(worst, abs(fit.c - c_true) / c_true, abs(fit.gamma - g_true))
    ok = worst <= 1e-6
    _report(capsys, "07 decay-rate-recovery", ok,
            f"worst parameter error {worst:.2e}")
    assert worst <= 1e-6


# ------------------------------------------- 08 single-effect benchmark


def test_08_single_effect_benchmark(capsys):
    start = time.time()
    cells = []
    for snr, cap in ((5.0, 0.5), (7.0, 0.5), (1.0, 1.0)):
        rows = run_benchmark("u2", 2000, snr, ["asp-u"], replicates=20,
                             seed=2026, config=AspConfig())
        med = float(np.median([r.log_re for r in rows if r.method == "asp-u"]))
        cells.append((snr, med, cap))
    elapsed = time.time() - start
    ok = all(med <= cap for _, med, cap in cells) and elapsed < 600.0
    detail = ", ".join(f"snr {snr:g}: median log-re {med:+.4f} (cap {cap})"
                       for snr, med, cap in cells)
    _report(capsys, "08 single-effect-benchmark", ok, f"{detail}, {elapsed:.0f}s")
    assert elapsed < 600.0
    for snr, med, cap in cells:
        assert med <= cap, f"snr {snr}: median {med} above {cap}"


# ------------------------------------------ 09 two-way benchmark and speed


@pytest.fixture(scope="module")
def two_way_benchmark():
    start = time.time()
    rows = run_benchmark("m1", 3000, 5.0, ["asp-u"], replicates=10,
                         seed=2026, config=AspConfig())
    return rows, time.time() - start


def test_09a_two_way_benchmark_accuracy(capsys, two_way_benchmark):
    rows, elapsed = two_way_benchmark
    med = float(np.median([abs(r.log_re) for r in rows if r.method == "asp-u"]))
    ok = med <= 0.7 and elapsed < 1200.0
    _report(capsys, "09a two-way-benchmark-accuracy", ok,
            f"median |log-re| {med:.4f} (cap 0.7), {elapsed:.0f}s")
    assert elapsed < 1200.0
    assert med <= 0.7


def test_09b_two_way_selection_speed(capsys, two_way_benchmark):
    """Expected FAIL: at n = 3000 full GCV searches once on rows
    compressed to p = 299, while asp-u runs the same search five times on
    subsamples, so the < 0.2x target is out of reach at this size.
    Measured on a 2-CPU machine: 1.7-1.9 at n = 3000, 0.46-0.47 at
    n = 20000 and 0.14 at n = 50000.  README.md documents the
    measurements."""
    rows, _ = two_way_benchmark
    t_asp = float(np.median([r.wall_time_seconds for r in rows if r.method == "asp-u"]))
    t_gcv = float(np.median([r.wall_time_seconds for r in rows if r.method == "gcv"]))
    ratio = t_asp / t_gcv
    ok = ratio < 0.2
    _report(capsys, "09b two-way-selection-speed", ok,
            f"selection time ratio {ratio:.3f} vs < 0.2")
    assert ratio < 0.2


# ------------------------------------------------- 10 kernel invariants


def test_10_kernel_invariants(capsys):
    rng = np.random.default_rng(10)
    x = rng.uniform(size=40)
    domains = unit_domains(2)
    failures = []

    sym = np.abs(cubic_kernel_part(LABEL_SMOOTH, x[:, None], x[None, :])
                 - cubic_kernel_part(LABEL_SMOOTH, x[None, :], x[:, None]).T).max()
    if sym > 1e-14:
        failures.append(f"symmetry {sym:.1e}")

    for term in (AnovaTerm(predictors=(0,), labels=(LABEL_SMOOTH,),
                           penalized=True),
                 AnovaTerm(predictors=(0, 1),
                           labels=(LABEL_PARAMETRIC, LABEL_SMOOTH),
                           penalized=True),
                 AnovaTerm(predictors=(0, 1),
                           labels=(LABEL_SMOOTH, LABEL_SMOOTH),
                           penalized=True)):
        rows = rng.uniform(size=(30, 2))
        gram = term_gram(term, domains, rows, rows)
        lo = float(np.linalg.eigvalsh((gram + gram.T) / 2.0).min())
        if lo < -1e-10:
            failures.append(f"psd {term.labels} {lo:.1e}")

    # zero mean: integrating either argument over [0, 1] kills the kernel.
    # The kernel is piecewise polynomial with a break on the diagonal, so
    # integrate [0, x] and [x, 1] separately; Gauss is then exact.
    nodes, weights = np.polynomial.legendre.leggauss(8)
    nodes = (nodes + 1.0) / 2.0
    weights = weights / 2.0
    for label in (LABEL_PARAMETRIC, LABEL_SMOOTH):
        y_lo = x[:, None] * nodes[None, :]
        y_hi = x[:, None] + (1.0 - x[:, None]) * nodes[None, :]
        mean = (x * (cubic_kernel_part(label, x[:, None], y_lo) @ weights)
                + (1.0 - x) * (cubic_kernel_part(label, x[:, None], y_hi) @ weights))
        worst = np.abs(mean).max()
        if worst > 1e-12:
            failures.append(f"zero-mean {label} {worst:.1e}")

    levels = np.arange(1, 7, dtype=float)
    contrast = discrete_kernel_part(LABEL_SMOOTH, 6,
                                    levels[:, None], levels[None, :])
    row_sum = np.abs(contrast.sum(axis=1)).max()
    if row_sum > 1e-14:
        failures.append(f"discrete row-sum {row_sum:.1e}")

    ok = not failures
    _report(capsys, "10 kernel-invariants", ok,
            "; ".join(failures) if failures else "symmetry, psd, zero-mean, row-sum all hold")
    assert not failures


# ------------------------------------------------------- 11 term counting


def test_11_term_counts(capsys):
    counts = {}
    for d in (2, 3, 4):
        spec = full_two_way_model(unit_domains(d))
        counts[d] = spec.n_penalized
    expected = {d: d + 3 * d * (d - 1) // 2 for d in (2, 3, 4)}
    ok = counts == expected and counts[2] == 5
    _report(capsys, "11 term-counts", ok,
            ", ".join(f"d={d}: S={counts[d]} (want {expected[d]})" for d in (2, 3, 4)))
    assert counts[2] == 5
    assert counts == expected
