import tracemalloc

import numpy as np
import pytest

from spanova import solver
from spanova.data import Dataset, unit_domains
from spanova.kernels import PredictorDomain, full_two_way_model, main_effects_model
from spanova.gcv import _trial, gcv_score, minimize_lambda
from spanova.simulate import SCENARIOS, gen_data
from spanova.solver import (
    SmoothingParams,
    assemble_blocks,
    basis_count,
    compressed_blocks,
    demmler_reinsch,
    fit_model,
    hat_trace,
    predict,
    select_basis,
    solve_penalized,
)
from spanova.util import InputError, NumericalError


def make_problem(seed, n, d=1, q=None, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    eta = np.sin(2 * np.pi * x[:, 0])
    if d > 1:
        eta = eta + np.exp(x[:, 1]) * x[:, 0]
    y = eta + noise * rng.standard_normal(n)
    spec = full_two_way_model(unit_domains(d)) if d > 1 else main_effects_model(unit_domains(1))
    ds = Dataset(x=x, y=y, domains=spec.domains)
    basis = select_basis(n, n if q is None else q, seed=seed)
    return ds, spec, basis


def theta_design(ds, spec, basis, theta):
    """(T, K(theta), Q(theta)) of the n-row reference blocks."""
    blocks = assemble_blocks(ds, spec, basis)
    return (blocks.t, *blocks.combine(theta))


def objective(t, k, q_r, y, nlam, d, c):
    r = y - t @ d - k @ c
    return float(r @ r + nlam * c @ q_r @ c)


def dense_kkt_solution(t, k, q_r, y, nlam):
    m = t.shape[1]
    top = np.hstack([t.T @ t, t.T @ k])
    bot = np.hstack([k.T @ t, k.T @ k + nlam * q_r])
    lhs = np.vstack([top, bot])
    rhs = np.concatenate([t.T @ y, k.T @ y])
    sol = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    return sol[:m], sol[m:]


def dense_stacked_reference(t, k, q_r, y, nlam):
    """(d, fitted, tr A) from a dense SVD least-squares solve of the stacked form."""
    n, m = t.shape
    nq = k.shape[1]
    top = np.hstack([t, k])
    stack = np.vstack([top, np.hstack([np.zeros((nq, m)),
                                       np.sqrt(nlam) * np.linalg.cholesky(q_r).T])])
    beta = np.linalg.lstsq(stack, np.concatenate([y, np.zeros(nq)]), rcond=None)[0]
    u, sv, _ = np.linalg.svd(stack, full_matrices=False)
    u = u[:, sv > sv[0] * max(stack.shape) * np.finfo(float).eps]
    return beta[:m], top @ beta, float((u[:n] ** 2).sum())


# ------------------------------------------------------------------- solving


def test_solver_matches_dense_kkt():
    """Objective parity with an independent dense solve on random problems."""
    for seed in range(8):
        n = 25 + seed
        d = 1 + seed % 2
        ds, spec, basis = make_problem(seed, n, d=d, q=max(12, n // 2))
        t, k, q = theta_design(ds, spec, basis, np.ones(spec.n_penalized))
        nlam = 10.0 ** (-4 + seed % 3)
        dd, cc = solve_penalized(t, k, q, ds.y, nlam)
        q_r = q + 1e-10 * np.trace(q) / q.shape[0] * np.eye(q.shape[0])
        d0, c0 = dense_kkt_solution(t, k, q_r, ds.y, nlam)
        obj = objective(t, k, q_r, ds.y, nlam, dd, cc)
        ref = objective(t, k, q_r, ds.y, nlam, d0, c0)
        assert obj == pytest.approx(ref, rel=1e-8)


def test_solution_beats_random_perturbations():
    ds, spec, basis = make_problem(3, 30, d=1, q=15)
    t, k, q = theta_design(ds, spec, basis, np.ones(1))
    nlam = 1e-3
    dd, cc = solve_penalized(t, k, q, ds.y, nlam)
    q_r = q + 1e-10 * np.trace(q) / q.shape[0] * np.eye(q.shape[0])
    best = objective(t, k, q_r, ds.y, nlam, dd, cc)
    rng = np.random.default_rng(17)
    for _ in range(100):
        pd = dd + 1e-3 * rng.standard_normal(dd.shape)
        pc = cc + 1e-3 * rng.standard_normal(cc.shape)
        assert best <= objective(t, k, q_r, ds.y, nlam, pd, pc) + 1e-8


def test_full_basis_matches_classic_bordered_system():
    """With q = n the reduced-rank fit equals the full representer solution."""
    for seed in (0, 1):
        for nlam in (1e-3, 1e-4):
            ds, spec, basis = make_problem(seed, 35, d=1)
            t, k, q = theta_design(ds, spec, basis, np.ones(1))
            assert k.shape == (35, 35)
            dd, cc = solve_penalized(t, k, q, ds.y, nlam)
            fitted = t @ dd + k @ cc
            # the same minimizer solves (K + nlam I)c + Td = y with T'c = 0,
            # which is numerically stable where the normal equations are not
            n, m = t.shape
            lhs = np.vstack([
                np.hstack([k + nlam * np.eye(n), t]),
                np.hstack([t.T, np.zeros((m, m))]),
            ])
            sol = np.linalg.solve(lhs, np.concatenate([ds.y, np.zeros(m)]))
            fitted0 = t @ sol[n:] + k @ sol[:n]
            np.testing.assert_allclose(fitted, fitted0, atol=1e-8)


def test_singular_gram_is_handled_by_ridge():
    # duplicated basis rows make Q exactly singular
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(size=10), rng.uniform(size=10)])
    x = np.concatenate([x, x[:4]])[:, None]
    y = rng.standard_normal(x.shape[0])
    spec = main_effects_model(unit_domains(1))
    ds = Dataset(x=x, y=y, domains=spec.domains)
    from spanova.solver import BasisSelection

    basis = BasisSelection(indices=np.concatenate([np.arange(16), [20, 21]]))
    t, k, q = theta_design(ds, spec, basis, np.ones(1))
    dd, cc = solve_penalized(t, k, q, ds.y, 1e-5)
    assert np.isfinite(dd).all() and np.isfinite(cc).all()
    fitted = t @ dd + k @ cc
    assert np.isfinite(fitted).all()


def test_fit_model_tiny_nlam_yields_finite_fit():
    """Any positive nlam must produce a fit, however ill-conditioned."""
    from spanova.solver import BasisSelection

    rng = np.random.default_rng(33)
    n = 120
    x = rng.uniform(size=(n, 1))
    x[1, 0] = x[0, 0]
    y = np.sin(2 * np.pi * x[:, 0]) + 0.3 * rng.standard_normal(n)
    spec = main_effects_model(unit_domains(1))
    ds = Dataset(x=x, y=y, domains=spec.domains)
    blocks = assemble_blocks(ds, spec, BasisSelection(indices=np.arange(16)))
    fit = fit_model(ds, spec, SmoothingParams.from_values(1e-12, [1.0]),
                    basis=blocks.basis)
    assert np.isfinite(fit.fitted).all()
    assert np.isfinite(fit.d).all() and np.isfinite(fit.c).all()
    assert np.isfinite(fit.gcv) and fit.gcv > 0
    # effectively unpenalized: the fit saturates the basis, whose tied rows
    # 0 and 1 give K two equal columns, so rank([T, K]) = M + q - 1
    k, q = blocks.combine(np.ones(1))
    assert fit.trace_a == pytest.approx(
        np.linalg.matrix_rank(np.hstack([blocks.t, k])), abs=0.1)
    q_r = q + 1e-10 * np.trace(q) / q.shape[0] * np.eye(q.shape[0])
    _, _, trace_ref = dense_stacked_reference(blocks.t, k, q_r, ds.y, 1e-12)
    assert fit.trace_a == pytest.approx(trace_ref, abs=1e-6)
    resid = ds.y - fit.fitted
    assert np.abs(blocks.t.T @ resid).max() < 1e-9


def test_fit_model_matches_dense_stacked_reference():
    """The fit and its score match a dense stacked solve and ``gcv_score``."""
    ds, spec, basis = make_problem(0, 40, d=1, q=20)
    blocks = assemble_blocks(ds, spec, basis)
    k, q = blocks.combine(np.ones(1))
    q_r = q + 1e-10 * np.trace(q) / q.shape[0] * np.eye(q.shape[0])
    for nlam in (1e-8, 1e-4, 1e-2, 1.0):
        fit = fit_model(ds, spec, SmoothingParams.from_values(nlam, [1.0]),
                        basis=blocks.basis)
        d_ref, fitted_ref, trace_ref = dense_stacked_reference(blocks.t, k, q_r, ds.y, nlam)
        np.testing.assert_allclose(fit.fitted, fitted_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(fit.d, d_ref, rtol=0, atol=1e-9)
        assert fit.trace_a == pytest.approx(trace_ref, abs=1e-8)
        assert fit.gcv == pytest.approx(gcv_score(blocks.t, k, q, ds.y, nlam), rel=1e-12)


# ------------------------------------------------------------------ hat trace


def dense_hat(apply_a, n):
    return np.column_stack([apply_a(e) for e in np.eye(n)])


def test_hat_trace_matches_dense_map():
    for seed, nlam in ((0, 1e-4), (1, 1e-2), (2, 1.0)):
        ds, spec, basis = make_problem(seed, 30, d=2, q=18)
        t, k, q = theta_design(ds, spec, basis, np.ones(spec.n_penalized))
        tr, apply_a = hat_trace(t, k, q, nlam)
        a = dense_hat(apply_a, 30)
        assert tr == pytest.approx(np.trace(a), abs=1e-7)
        w = np.linalg.eigvalsh((a + a.T) / 2)
        assert w.min() > -1e-8 and w.max() < 1 + 1e-8


def test_hat_trace_limits():
    ds, spec, basis = make_problem(4, 40, d=1, q=20)
    t, k, q = theta_design(ds, spec, basis, np.ones(1))
    tr_stiff, _ = hat_trace(t, k, q, 1e12)
    # the smoother collapses to the parametric projection
    assert tr_stiff == pytest.approx(t.shape[1], abs=1e-3)
    tr_loose, _ = hat_trace(t, k, q, 1e-9)
    assert tr_loose > tr_stiff
    assert tr_loose < 40 + 1e-6


def test_apply_a_is_linear():
    ds, spec, basis = make_problem(6, 25, d=1, q=14)
    t, k, q = theta_design(ds, spec, basis, np.ones(1))
    _, apply_a = hat_trace(t, k, q, 1e-3)
    rng = np.random.default_rng(8)
    y1 = rng.standard_normal(25)
    y2 = rng.standard_normal(25)
    lhs = apply_a(2.5 * y1 + y2)
    rhs = 2.5 * apply_a(y1) + apply_a(y2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ----------------------------------------------------------- demmler-reinsch


def test_demmler_reinsch_reconstructs_residual_map():
    """I - A(lam) = blam Z (D + blam I)^{-1} Z' for the full-basis smoother."""
    rng = np.random.default_rng(12)
    b = 40
    x = rng.uniform(size=(b, 1))
    spec = main_effects_model(unit_domains(1))
    ds = Dataset(x=x, y=rng.standard_normal(b), domains=spec.domains)
    basis = select_basis(b, b, seed=0)
    t, k, q = theta_design(ds, spec, basis, np.ones(1))
    es = demmler_reinsch(t, k)
    assert es.z.shape == (b, b - t.shape[1])
    # Z is orthonormal and annihilates the null design
    np.testing.assert_allclose(es.z.T @ es.z, np.eye(b - t.shape[1]), atol=1e-10)
    np.testing.assert_allclose(es.z.T @ t, 0.0, atol=1e-10)
    assert es.values.min() > -1e-10 * max(es.values.max(), 1.0)
    assert (np.diff(es.values) >= -1e-12).all()
    for lam in (1e-6, 1e-3, 1e-1):
        blam = b * lam
        _, apply_a = hat_trace(t, k, k, blam)
        resid_dense = np.eye(b) - dense_hat(apply_a, b)
        resid_eig = blam * (es.z / (es.values + blam)) @ es.z.T
        assert np.abs(resid_dense - resid_eig).max() < 1e-6


def test_demmler_reinsch_rejects_rank_deficient_null():
    t = np.ones((10, 2))
    with pytest.raises(InputError):
        demmler_reinsch(t, np.eye(10))


# ------------------------------------------------------------------ plumbing


def test_basis_count_rule():
    assert basis_count(3000) == 59
    assert basis_count(21263) == 92
    assert basis_count(3000, coef=4.3) == 25
    with pytest.raises(InputError):
        basis_count(0)


def test_select_basis_deterministic_and_bounded():
    b1 = select_basis(100, 20, seed=42)
    b2 = select_basis(100, 20, seed=42)
    np.testing.assert_array_equal(b1.indices, b2.indices)
    assert b1.q == 20
    assert b1.indices.min() >= 0 and b1.indices.max() < 100
    b3 = select_basis(100, 20, seed=43)
    assert not np.array_equal(b1.indices, b3.indices)
    with pytest.raises(InputError):
        select_basis(10, 11)


def test_fit_is_reproducible():
    ds, spec, basis = make_problem(9, 50, d=2, q=20)
    params = SmoothingParams.from_values(1e-3, np.ones(spec.n_penalized))
    f1 = fit_model(ds, spec, params, basis)
    f2 = fit_model(ds, spec, params, basis)
    np.testing.assert_array_equal(f1.fitted, f2.fitted)
    assert f1.trace_a == f2.trace_a


def test_assemble_validations():
    """The fit runs the checks of the design builders before forming K(theta)."""
    ds, spec, basis = make_problem(1, 30, d=1, q=15)
    with pytest.raises(InputError):
        fit_model(ds, spec, SmoothingParams.from_values(1e-2, np.ones(1)),
                  select_basis(30, 2, seed=0))  # q <= M
    rng = np.random.default_rng(0)
    x = np.column_stack([rng.uniform(size=30), np.full(30, 0.5)])
    spec2 = full_two_way_model(unit_domains(2))
    ds2 = Dataset(x=x, y=rng.standard_normal(30), domains=spec2.domains)
    with pytest.raises(InputError):
        # constant predictor duplicates the intercept column
        fit_model(ds2, spec2, SmoothingParams.from_values(1e-2, np.ones(5)),
                  select_basis(30, 15, seed=0))


def test_combine_weights_blocks():
    ds, spec, basis = make_problem(2, 30, d=2, q=16)
    blocks = assemble_blocks(ds, spec, basis)
    theta = np.array([0.5, 2.0, 1.0, 3.0, 0.25])
    k, q = blocks.combine(theta)
    k_ref = sum(w * kp for w, kp in zip(theta, blocks.k_parts))
    q_ref = sum(w * qp for w, qp in zip(theta, blocks.q_parts))
    np.testing.assert_allclose(k, k_ref, atol=1e-14)
    np.testing.assert_allclose(q, q_ref, atol=1e-14)
    with pytest.raises(InputError):
        blocks.combine(np.ones(4))


def test_sweep_updates_match_fresh_combine():
    """full_gcv's one-block trials, and the K and Q it accepts from them,
    agree with a fresh combine, in the complement rows a trial reads."""
    ds, spec, basis = make_problem(3, 200, d=2, q=16)
    blocks, y = compressed_blocks(ds, spec, basis)
    m = blocks.n_null
    rng = np.random.default_rng(4)
    theta = 10.0 ** rng.uniform(-1.0, 1.0, blocks.n_penalized)
    k, q = blocks.combine(theta)
    for delta in list(range(blocks.n_penalized)) * 3:
        new = 10.0 ** rng.uniform(-1.0, 1.0)
        design, q_trial = _trial(blocks, k, q, y, delta, new - theta[delta])
        stack = design.stack()
        theta[delta] = new
        k_ref, q_ref = blocks.combine(theta)
        np.testing.assert_allclose(stack[:blocks.n - m, :-1], k_ref[m:], rtol=0.0,
                                   atol=1e-12 * np.abs(k_ref).max())
        assert np.array_equal(stack[:blocks.n - m, -1], y[m:])
        k, q = design.k, q_trial
    np.testing.assert_allclose(k, k_ref, rtol=0.0, atol=1e-12 * np.abs(k_ref).max())
    np.testing.assert_allclose(q, q_ref, rtol=0.0, atol=1e-12 * np.abs(q_ref).max())


@pytest.mark.parametrize("chunk", [7, 40, 2048])
def test_compress_keeps_cross_products(monkeypatch, chunk):
    """[T, K_1 .. K_S, y]'[T, K_1 .. K_S, y] survives the chunked QR; y'y
    is split into f'f and rss_offset.  150 rows leave a partial last chunk
    at every size but the largest, which takes them in one."""
    monkeypatch.setattr(solver, "COMPRESS_CHUNK", chunk)
    ds, spec, basis = make_problem(5, 150, d=1, q=17)
    blocks = assemble_blocks(ds, spec, basis)
    small, f = compressed_blocks(ds, spec, basis)
    p = blocks.n_null + blocks.q
    assert small.t.shape == (p, blocks.n_null) and f.shape == (p,)
    assert small.n_obs == 150
    assert all(np.array_equal(a, b) for a, b in zip(small.q_parts, blocks.q_parts, strict=True))
    full = np.hstack([blocks.t, *blocks.k_parts])
    reduced = np.hstack([small.t, *small.k_parts])
    scale = np.abs(full.T @ full).max()
    np.testing.assert_allclose(reduced.T @ reduced, full.T @ full, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(reduced.T @ f, full.T @ ds.y, rtol=0.0, atol=1e-12 * scale)
    assert f @ f + small.rss_offset == pytest.approx(ds.y @ ds.y, rel=1e-12)
    assert np.allclose(np.tril(reduced[:, :p], -1), 0.0)


def test_compress_absorbs_t_without_compressing_when_p_reaches_n():
    """m4's 87 penalized terms give p = M + S q far above n: the n rows stay,
    but the blocks and y are rotated so T reads [R_T; 0], with the same
    cross products."""
    sim = gen_data("m4", 300, 5.0, seed=0)
    y = sim.dataset.y
    spec, basis = SCENARIOS["m4"].spec, select_basis(300, basis_count(300), seed=0)
    blocks = assemble_blocks(sim.dataset, spec, basis)
    assert blocks.n_null + blocks.n_penalized * blocks.q + 1 >= blocks.n
    small, f = compressed_blocks(sim.dataset, spec, basis)
    assert small.n == small.n_obs == 300 and small.rss_offset == 0.0
    assert not np.tril(small.t, -1).any()
    full = np.hstack([blocks.t, *blocks.k_parts[:3], y[:, None]])
    rotated = np.hstack([small.t, *small.k_parts[:3], f[:, None]])
    np.testing.assert_allclose(rotated.T @ rotated, full.T @ full, rtol=0.0,
                               atol=1e-12 * np.abs(full.T @ full).max())


def test_smoothing_params_round_trip():
    p = SmoothingParams.from_values(1e-4, [2.0, 0.5])
    assert p.nlam == pytest.approx(1e-4, rel=1e-12)
    np.testing.assert_allclose(p.theta, [2.0, 0.5], rtol=1e-12)
    with pytest.raises(InputError):
        SmoothingParams.from_values(-1.0, [1.0])
    with pytest.raises(InputError):
        SmoothingParams(float("nan"), (0.0,))


# ------------------------------------------------------------------- predict


def test_predict_reproduces_training_rows():
    ds, spec, basis = make_problem(7, 40, d=2, q=18)
    params = SmoothingParams.from_values(1e-3, np.ones(spec.n_penalized))
    fit = fit_model(ds, spec, params, basis)
    pred, flags = predict(fit, spec, ds.x)
    np.testing.assert_allclose(pred, fit.fitted, atol=1e-10)
    assert not flags.any()


def test_predict_parametric_when_c_zero():
    ds, spec, basis = make_problem(8, 30, d=1, q=15)
    params = SmoothingParams.from_values(1e-2, [1.0])
    fit = fit_model(ds, spec, params, basis)
    fit.c[:] = 0.0
    blocks = assemble_blocks(ds, spec, basis)
    pred, _ = predict(fit, spec, ds.x)
    np.testing.assert_allclose(pred, blocks.t @ fit.d, atol=1e-12)


def test_predict_clamps_and_warns():
    ds, spec, basis = make_problem(10, 30, d=1, q=15)
    params = SmoothingParams.from_values(1e-2, [1.0])
    fit = fit_model(ds, spec, params, basis)
    with pytest.warns(UserWarning, match="clamped"):
        pred, flags = predict(fit, spec, np.array([[1.7], [0.5]]))
    assert flags.tolist() == [True, False]
    ref, _ = predict(fit, spec, np.array([[1.0]]))
    assert pred[0] == pytest.approx(ref[0], abs=1e-12)


# ------------------------------------------------- refits from K(theta) alone


def discrete_problem(n=300, seed=6):
    """A continuous and a 3-level discrete predictor with their interaction."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.uniform(size=n), rng.integers(1, 4, size=n).astype(float)])
    y = np.sin(2 * np.pi * x[:, 0]) + 0.5 * (x[:, 1] == 2) + 0.2 * rng.standard_normal(n)
    spec = full_two_way_model((PredictorDomain.continuous(), PredictorDomain.discrete(3)))
    return Dataset(x=x, y=y, domains=spec.domains), spec


@pytest.mark.parametrize("name, n", [("u2", 300), ("m1", 3000), ("m2", 400), ("m4", 300),
                                     ("discrete", 300)])
def test_assemble_equals_blocks_combine(name, n):
    """K(theta) read from its row source tile by tile, and in
    COMPRESS_CHUNK-row chunks, equals blocks.combine bit for bit (m1 spans
    two chunks), as do the fit's T and Q(theta)."""
    if name == "discrete":
        ds, spec = discrete_problem(n)
    else:
        ds, spec = gen_data(name, n, 5.0, seed=1).dataset, SCENARIOS[name].spec
    basis = select_basis(ds.n, basis_count(ds.n), seed=3)
    blocks = assemble_blocks(ds, spec, basis)
    theta = 10.0 ** np.random.default_rng(2).uniform(-1.0, 1.0, spec.n_penalized)
    k_ref, q_ref = blocks.combine(theta)
    rows = solver._kernel_rows(spec, ds.x, ds.x[basis.indices], theta)
    tiles = list(solver._tiles(0, ds.n, basis.q))
    chunks = [(lo, min(lo + solver.COMPRESS_CHUNK, ds.n))
              for lo in range(0, ds.n, solver.COMPRESS_CHUNK)]
    assert len(chunks) == (2 if name == "m1" else 1)
    for spans in (tiles, chunks):
        assert np.array_equal(np.vstack([rows(a, b) for a, b in spans]), k_ref)
    design = solver.DesignRows(ds, spec, basis)
    assert np.array_equal(design.t, blocks.t)
    assert np.array_equal(solver._weighted_sum(theta, design.q_parts), q_ref)


@pytest.mark.parametrize("name, n", [("m1", 3000), ("m1", 4099), ("m4", 800)])
def test_predict_at_training_rows_equals_fitted(name, n):
    """predict's tiles and the fit's K(theta) c sum every row in the same
    order, so the predictions are the fitted values bit for bit; at 4099
    rows a loop over 2048-row chunks left a 3-row block, whose 3 rows
    drifted by 1e-14."""
    sim = gen_data(name, n, 5.0, seed=1)
    spec = SCENARIOS[name].spec
    basis = select_basis(n, basis_count(n), seed=3)
    theta = 10.0 ** np.random.default_rng(2).uniform(-1.0, 1.0, spec.n_penalized)
    fit = fit_model(sim.dataset, spec, SmoothingParams.from_values(1e-3, theta), basis)
    pred, flags = predict(fit, spec, sim.dataset.x)
    assert np.array_equal(pred, fit.fitted) and not flags.any()


@pytest.mark.parametrize("name", ["m1", "discrete"])
def test_predict_on_zero_rows_returns_empty_arrays(name):
    if name == "discrete":
        ds, spec = discrete_problem()
    else:
        ds, spec = gen_data(name, 300, 5.0, seed=1).dataset, SCENARIOS[name].spec
    basis = select_basis(ds.n, basis_count(ds.n), seed=3)
    params = SmoothingParams.from_values(1e-4, np.ones(spec.n_penalized))
    fit = fit_model(ds, spec, params, basis=basis)
    eta, flags = predict(fit, spec, np.zeros((0, spec.n_predictors)))
    assert eta.shape == (0,) and eta.dtype == float
    assert flags.shape == (0,) and flags.dtype == bool


def test_refit_memory_stays_near_one_kernel_design():
    """The per-term n-row blocks took 8 n q doubles, and K(theta) plus the
    stacked solve's copy of it about 2; K(theta) compressed chunk by chunk
    takes about 1.2."""
    sim = gen_data("m1", 20000, 5.0, seed=0)
    basis = select_basis(20000, basis_count(20000), seed=0)
    params = SmoothingParams.from_values(1e-4, np.ones(SCENARIOS["m1"].spec.n_penalized))
    tracemalloc.start()
    try:
        fit_model(sim.dataset, SCENARIOS["m1"].spec, params, basis=basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 20000 * basis.q * 8


def test_refits_and_predict_form_no_per_term_n_row_block(monkeypatch, tmp_path):
    """fit_model(basis=), ``spanova fit``'s refit, estimate_p and predict
    never call assemble_blocks, and every kernel block they form has at
    most COMPRESS_CHUNK rows."""
    import spanova
    from spanova import asp, cli, simulate

    def forbidden(*args, **kwargs):
        raise AssertionError("per-term blocks assembled")

    for module in (spanova, solver, asp, cli, simulate):
        monkeypatch.setattr(module, "assemble_blocks", forbidden, raising=False)
    block_rows = []
    real_grams = solver.term_grams

    def recording(terms, domains, x_rows, z_rows):
        block_rows.append(np.atleast_2d(x_rows).shape[0])
        return real_grams(terms, domains, x_rows, z_rows)

    monkeypatch.setattr(solver, "term_grams", recording)
    n = 5000
    sim = gen_data("m1", n, 5.0, seed=4)
    spec = SCENARIOS["m1"].spec
    basis = select_basis(n, basis_count(n), seed=4)
    fit = fit_model(sim.dataset, spec, SmoothingParams.from_values(1e-3, np.ones(5)),
                    basis=basis)
    pred, _ = predict(fit, spec, sim.dataset.x)
    np.testing.assert_allclose(pred, fit.fitted, rtol=0.0, atol=1e-10)
    assert asp.estimate_p(sim.dataset, spec, 1e-6, np.ones(5), 400) in (1, 2)
    train = tmp_path / "train.csv"
    assert cli.main(["simulate", "--scenario", "m1", "--n", str(n), "--snr", "5",
                     "--out", str(train)]) == 0
    assert cli.main(["fit", "--data", str(train), "--response", "y", "--model", "1,2,1:2",
                     "--method", "order", "--out", str(tmp_path / "fit.json")]) == 0
    assert block_rows and max(block_rows) <= solver.COMPRESS_CHUNK < n


ENTRY_POINTS = {
    "gcv_score": lambda t, k, q, y: gcv_score(t, k, q, y, 1e-2),
    "minimize_lambda": minimize_lambda,
    "solve_penalized": lambda t, k, q, y: solve_penalized(t, k, q, y, 1e-2),
    "hat_trace": lambda t, k, q, y: hat_trace(t, k, q, 1e-2)[1](y),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_array_entry_points_check_their_inputs(entry):
    """The public array-level entry points reject what CompiledDesign trusts."""
    call = ENTRY_POINTS[entry]
    ds, spec, basis = make_problem(3, 40, q=12)
    t, k, q = theta_design(ds, spec, basis, np.ones(1))
    call(t, k, q, ds.y)
    asym = q.copy()
    asym[0, 1] += 1e-6
    with pytest.raises(InputError, match="symmetric"):
        call(t, k, asym, ds.y)
    with pytest.raises(InputError, match="row counts"):
        call(t, k[:-1], q, ds.y)
    with pytest.raises(InputError, match="row counts"):
        call(t, k, q, ds.y[:-1])
    with pytest.raises(InputError, match="square"):
        call(t, k, q[:-1, :-1], ds.y)


def test_compiled_design_rejects_unabsorbed_t():
    """CompiledDesign rotates nothing: a T with an entry below its diagonal
    would be scored as if it were [R_T; 0], so it raises."""
    ds, spec, basis = make_problem(3, 40, q=12)
    t, k, q = theta_design(ds, spec, basis, np.ones(1))
    m = t.shape[1]
    assert solver._compressed_design(t, k, q, ds.y).n == m + basis.q
    with pytest.raises(NumericalError, match="below its diagonal"):
        solver.CompiledDesign(t, k, q, ds.y, ds.n)
    absorbed = np.zeros_like(t)
    absorbed[:m] = np.triu(t[:m])
    solver.CompiledDesign(absorbed, k, q, ds.y, ds.n)
    absorbed[-1, 0] = 1e-300
    with pytest.raises(NumericalError, match="below its diagonal"):
        solver.CompiledDesign(absorbed, k, q, ds.y, ds.n)
    # an entry below the diagonal of the top M x M block, the rows below it zero
    absorbed[-1, 0] = 0.0
    absorbed[m - 1, 0] = 1e-300
    with pytest.raises(NumericalError, match="below its diagonal"):
        solver.CompiledDesign(absorbed, k, q, ds.y, ds.n)
    with pytest.raises(NumericalError, match="fewer rows than columns"):
        solver.CompiledDesign(np.triu(t[:m - 1]), k[:m - 1], q, ds.y[:m - 1], m - 1)


def test_single_designs_construct_no_null_qr(monkeypatch):
    """Every design at one theta is built by compression; only full_gcv on
    rows that p + 1 >= n keeps in memory rotates its blocks by T's QR."""
    from spanova import asp, gcv

    def forbidden(*args, **kwargs):
        raise AssertionError("NullQR constructed")

    monkeypatch.setattr(solver, "NullQR", forbidden)
    ds, spec, basis = make_problem(3, 40, q=12)
    t, k, q = theta_design(ds, spec, basis, np.ones(1))
    fit_model(ds, spec, SmoothingParams.from_values(1e-2, [1.0]), basis)
    gcv_score(t, k, q, ds.y, 1e-2)
    solve_penalized(t, k, q, ds.y, 1e-2)
    hat_trace(t, k, q, 1e-2)[1](ds.y)
    minimize_lambda(t, k, q, ds.y)
    for name, n in (("m1", 1200), ("m4", 300)):
        sim = gen_data(name, n, 5.0, seed=0)
        spec = SCENARIOS[name].spec
        basis = select_basis(n, basis_count(n), seed=0)
        assert solver.streams_rows(sim.dataset, spec, basis) == (name == "m1")
        gcv.skip_select(sim.dataset, spec, basis)
        asp.estimate_p(sim.dataset, spec, 1e-6, np.ones(spec.n_penalized), n // 4)
        if name == "m1":
            gcv.full_gcv(sim.dataset, spec, basis, max_iter=1)
        else:
            with pytest.raises(AssertionError, match="NullQR"):
                gcv.full_gcv(sim.dataset, spec, basis, max_iter=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_predictors(bad):
    """A non-finite cell would come back as a NaN prediction flagged in range."""
    ds, spec, basis = make_problem(7, 40, d=2, q=18)
    fit = fit_model(ds, spec, SmoothingParams.from_values(1e-3, np.ones(spec.n_penalized)),
                    basis)
    new = ds.x[:3].copy()
    new[1, 1] = bad
    with pytest.raises(InputError, match="column 1"):
        predict(fit, spec, new)
