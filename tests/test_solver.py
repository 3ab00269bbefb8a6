import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from spanova import kernels, solver
from spanova.data import Dataset, unit_domains
from spanova.kernels import (PredictorDomain, full_two_way_model, main_effects_model,
                             null_basis_matrix, term_grams)
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


def _rank_case_rows(case):
    """Two predictors of a full two-way model (M = 4) whose null design T
    is rank deficient, or full rank but badly scaled."""
    rng = np.random.default_rng(8)
    u, v = rng.uniform(size=(2, 2000))
    rare = np.zeros(2000)
    rare[rng.choice(2000, 10, replace=False)] = 1.0
    return {
        "constant": np.column_stack([u, np.full(2000, 0.5)]),
        "rare-level": np.column_stack([u, rare]),
        # a subsample that misses the rare level holds a constant column
        "rare-level-missing": np.column_stack([u, rare])[rare == 0.0],
        "narrow-1e-7": np.column_stack([u, 0.5 + 1e-7 * v]),
        # 1.8 times the threshold, and 0.018 times it
        "narrow-1e-11": np.column_stack([u, 0.5 + 1e-11 * v]),
        "narrow-1e-13": np.column_stack([u, 0.5 + 1e-13 * v]),
    }[case]


@pytest.mark.parametrize("case", ["constant", "rare-level", "rare-level-missing",
                                  "narrow-1e-7", "narrow-1e-11", "narrow-1e-13"])
def test_null_design_rank_check_agrees_with_matrix_rank(case, monkeypatch):
    """The rank check on T's triangle from a chunked QR, and solve_penalized's
    on the same T, raise exactly when numpy.linalg.matrix_rank(T) < M, with
    one message, and the fit raises before it forms any kernel row."""
    x = _rank_case_rows(case)
    spec = full_two_way_model(unit_domains(2))
    ds = Dataset(x=x, y=np.random.default_rng(1).standard_normal(x.shape[0]),
                 domains=spec.domains)
    basis = select_basis(ds.n, 30, seed=0)
    t = null_basis_matrix(spec, x)
    deficient = np.linalg.matrix_rank(t) < spec.null_dim
    assert deficient == (case not in ("rare-level", "narrow-1e-7", "narrow-1e-11"))
    message = r"^null basis is rank deficient on this sample$"
    k = np.random.default_rng(2).standard_normal((ds.n, 6))
    with pytest.raises(InputError, match=message) if deficient else contextlib.nullcontext():
        solve_penalized(t, k, np.eye(6), ds.y, 1e-2)
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("a kernel row was formed")

    for module in (kernels, solver):
        monkeypatch.setattr(module, "term_grams", spy)
    if not deficient:
        solver.null_design(ds, spec, basis)
        return
    with pytest.raises(InputError, match=message):
        solver.null_design(ds, spec, basis)
    with pytest.raises(InputError, match=message):
        fit_model(ds, spec, SmoothingParams.from_values(1e-2, np.ones(spec.n_penalized)), basis)
    assert calls == []


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
    blocks = compressed_blocks(ds, spec, basis)
    m = blocks.n_null
    rng = np.random.default_rng(4)
    theta = 10.0 ** rng.uniform(-1.0, 1.0, blocks.n_penalized)
    design = blocks.design_at(theta)
    for delta in list(range(blocks.n_penalized)) * 3:
        new = 10.0 ** rng.uniform(-1.0, 1.0)
        trial = _trial(blocks, design, delta, new - theta[delta])
        stack = trial.stack()
        theta[delta] = new
        k_ref, q_ref = blocks.combine(theta)
        np.testing.assert_allclose(stack[:blocks.n - m, :-1], k_ref[m:], rtol=0.0,
                                   atol=1e-12 * np.abs(k_ref).max())
        assert np.array_equal(stack[:blocks.n - m, -1], blocks.y[m:])
        design = trial
    np.testing.assert_allclose(design.k, k_ref, rtol=0.0, atol=1e-12 * np.abs(k_ref).max())
    np.testing.assert_allclose(design.q, q_ref, rtol=0.0, atol=1e-12 * np.abs(q_ref).max())


@pytest.mark.parametrize("chunk", [7, 40, 2048])
def test_compress_keeps_cross_products(monkeypatch, chunk):
    """[T, K_1 .. K_S, y]'[T, K_1 .. K_S, y] survives the chunked QR in its
    p + 1 rows, y'y = f'f included.  150 rows leave a partial last chunk at
    every size but the largest, which takes them in one."""
    monkeypatch.setattr(solver, "COMPRESS_CHUNK", chunk)
    ds, spec, basis = make_problem(5, 150, d=1, q=17)
    blocks = assemble_blocks(ds, spec, basis)
    small = compressed_blocks(ds, spec, basis)
    f = small.y
    p = blocks.n_null + blocks.q
    assert small.t.shape == (p + 1, blocks.n_null) and f.shape == (p + 1,)
    assert small.n_obs == 150
    assert all(np.array_equal(a, b) for a, b in zip(small.q_parts, blocks.q_parts, strict=True))
    full = np.hstack([blocks.t, *blocks.k_parts])
    reduced = np.hstack([small.t, *small.k_parts])
    scale = np.abs(full.T @ full).max()
    np.testing.assert_allclose(reduced.T @ reduced, full.T @ full, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(reduced.T @ f, full.T @ ds.y, rtol=0.0, atol=1e-12 * scale)
    assert f @ f == pytest.approx(ds.y @ ds.y, rel=1e-12)
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
    small = compressed_blocks(sim.dataset, spec, basis)
    f = small.y
    assert small.n == small.n_obs == 300
    assert f @ f == pytest.approx(y @ y, rel=1e-12)
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
    two chunks), as do T's rows from the fit's row source and Q(theta)."""
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
    design = solver.DesignRows(ds, spec, basis)
    for spans in (tiles, chunks, [(0, ds.n)]):
        assert np.array_equal(np.vstack([rows(a, b) for a, b in spans]), k_ref)
        assert np.array_equal(np.vstack([design.null_rows(a, b) for a, b in spans]),
                              null_basis_matrix(spec, ds.x))
    assert np.array_equal(solver._weighted_sum(theta, design.q_parts), q_ref)


@pytest.mark.parametrize("name", ["u2", "m1", "m2", "m4", "discrete"])
def test_kernel_tiles_equal_the_weighted_sum_of_term_grams(name):
    """K(theta)'s tiles, read full, then shorter, then full again in one
    reused workspace, equal _weighted_sum(theta, term_grams(...)) at their
    rows bit for bit, as does a plain call, which returns rows the caller
    owns.  A row slice of one F-ordered 2-D buffer would not be contiguous,
    so dgemm would write into a copy and leave the short tile stale with no
    error."""
    if name == "discrete":
        ds, spec = discrete_problem(1000)
    else:
        ds, spec = gen_data(name, 1000, 5.0, seed=2).dataset, SCENARIOS[name].spec
    z = ds.x[select_basis(ds.n, 77, seed=1).indices]
    theta = 10.0 ** np.random.default_rng(4).uniform(-1.0, 1.0, spec.n_penalized)
    rows = solver._kernel_rows(spec, ds.x, z, theta)
    (_, full), *_ = solver._tiles(0, ds.n, z.shape[0])
    tiles = []
    for a, b in [(0, full), (full, full + 5), (full + 5, 2 * full + 5)]:
        ref = solver._weighted_sum(theta, term_grams(spec.penalized_terms, spec.domains,
                                                    ds.x[a:b], z))
        tile = rows.tile(a, b)
        assert tile.shape == (b - a, z.shape[0]) and tile.flags.f_contiguous
        assert np.array_equal(tile, ref)
        tiles.append(tile)
        owned = rows(a, b)
        assert np.array_equal(owned, ref) and not np.shares_memory(owned, tile)
    assert all(np.shares_memory(tile, tiles[0]) for tile in tiles)


def test_a_kernel_pass_reuses_one_workspace():
    """A pass of 20 or more tiles that keeps every tile it reads peaks at most
    one tile's bytes above a pass of one tile: the tiles are views of one
    workspace, not arrays allocated per tile."""
    spec = SCENARIOS["m1"].spec
    ds = gen_data("m1", 9000, 5.0, seed=3).dataset
    z = ds.x[select_basis(ds.n, 77, seed=3).indices]
    theta = np.ones(spec.n_penalized)
    spans = list(solver._tiles(0, ds.n, z.shape[0]))
    full = spans[0][1]
    assert len(spans) >= 20

    def one_pass(stop):
        rows = solver._kernel_rows(spec, ds.x, z, theta)
        return [rows.tile(a, b) for a, b in solver._tiles(0, stop, z.shape[0])]

    tile_bytes = full * z.shape[0] * 8
    assert _traced_peak(lambda: one_pass(ds.n)) <= _traced_peak(lambda: one_pass(full)) + tile_bytes


@pytest.mark.parametrize("name, n", [("m1", 3000), ("m1", 4099), ("m4", 800)])
def test_predict_at_training_rows_equals_fitted(name, n):
    """predict's tiles and the fit's K(theta) c sum every row in the same
    order, so the predictions are the fitted values bit for bit, whether
    ``fitted`` is read before or after predict runs; at 4099 rows a loop
    over 2048-row chunks left a 3-row block, whose 3 rows drifted by
    1e-14.  A copy with other coefficients keeps the fit's fitted values."""
    sim = gen_data(name, n, 5.0, seed=1)
    spec = SCENARIOS[name].spec
    basis = select_basis(n, basis_count(n), seed=3)
    theta = 10.0 ** np.random.default_rng(2).uniform(-1.0, 1.0, spec.n_penalized)
    params = SmoothingParams.from_values(1e-3, theta)
    fit = fit_model(sim.dataset, spec, params, basis)
    pred, flags = predict(fit, spec, sim.dataset.x)
    assert np.array_equal(pred, fit.fitted) and not flags.any()
    read_first = fit_model(sim.dataset, spec, params, basis)
    fitted = read_first.fitted
    assert np.array_equal(fitted, predict(read_first, spec, sim.dataset.x)[0])
    assert np.array_equal(fitted, pred) and read_first.fitted is fitted
    changed = dataclasses.replace(fit_model(sim.dataset, spec, params, basis), c=2.0 * fit.c)
    assert np.array_equal(changed.fitted, pred)


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


@pytest.mark.parametrize("shape", [(300, 41), (41, 41), (20, 35)])
def test_r_factor_is_the_stack_itself(shape):
    """R comes back as the top rows of the factored stack: it shares the
    stack's memory, its strict lower triangle is exactly zero, and its upper
    triangle equals np.triu of a QR of a copy bit for bit."""
    stack = np.asfortranarray(np.random.default_rng(5).standard_normal(shape))
    top = min(shape)
    a, _, info = sla.lapack.dgeqrt(min(solver.QR_BLOCK, top), stack.copy(order="F"))
    assert info == 0
    r = solver._r_factor(stack)
    assert r.shape == (top, shape[1])
    assert np.shares_memory(r, stack)
    assert not np.tril(r, -1).any()
    assert np.array_equal(r, np.triu(a[:top]))


def test_refit_memory_stays_near_one_kernel_design():
    """The per-term n-row blocks took 8 n q doubles, K(theta) plus the
    stacked solve's copy of it about 2, and one n x q K(theta) compressed
    chunk by chunk about 1.04 (at 2e5 rows); streamed from its rows, with
    the fitted values deferred, the fit holds no n x q array.  Its
    O(q^2 + chunk q) buffers stay under 0.1 n q at 2e5 rows (0.35 at 2e4)."""
    n = 200000
    sim = gen_data("m1", n, 5.0, seed=0)
    basis = select_basis(n, basis_count(n), seed=0)
    params = SmoothingParams.from_values(1e-4, np.ones(SCENARIOS["m1"].spec.n_penalized))
    tracemalloc.start()
    try:
        fit_model(sim.dataset, SCENARIOS["m1"].spec, params, basis=basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n * basis.q * 8


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_and_predict_peaks_grow_by_less_than_one_null_design_row():
    """From n to 4n rows of m1 on one basis, the traced peaks of fit_model
    with its fitted values, and of predict, grow by less than 8 M bytes a
    row, so neither holds an n x M array beside x, y and its output.
    Forming T whole, with the rank check's SVD copy of it, the fit grew by
    39 bytes a row and predict by 86 (M = 4); streaming T's rows, 0.5 and
    27 (predict's model-scale x, clamp mask, flags and values)."""
    spec = SCENARIOS["m1"].spec
    params = SmoothingParams.from_values(1e-4, np.ones(spec.n_penalized))
    peaks = []
    for n in (25000, 100000):
        ds = gen_data("m1", n, 5.0, seed=0).dataset
        basis = select_basis(n, 60, seed=0)
        fit_peak = _traced_peak(lambda: fit_model(ds, spec, params, basis).fitted)
        fit = fit_model(ds, spec, params, basis)
        peaks.append((fit_peak, _traced_peak(lambda: predict(fit, spec, ds.x))))
    growth = (np.subtract(peaks[1], peaks[0]) / 75000).tolist()
    assert max(growth) < 8 * spec.null_dim, growth


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
    # a T whose last column is repeated, exactly or scaled by 1 + 1e-13
    for extra in (t[:, -1], t[:, -1] * (1.0 + 1e-13)):
        with pytest.raises(InputError, match="rank deficient"):
            call(np.column_stack([t, extra]), k, q, ds.y)
    with pytest.raises(InputError, match="at least 3 rows"):
        call(t[:2], k[:2], q, ds.y[:2])
    bad = t.copy()
    bad[3, 1] = np.nan
    with pytest.raises(InputError, match="finite"):
        call(bad, k, q, ds.y)


def test_compiled_design_rejects_unabsorbed_t():
    """CompiledDesign rotates nothing: blocks whose T is not [R_T; 0] would
    be scored as if it were, so their design_at raises."""
    ds, spec, basis = make_problem(3, 40, q=12)
    t, k, q = theta_design(ds, spec, basis, np.ones(1))
    m = t.shape[1]
    design = solver._checked_design(t, k, q, ds.y)
    assert design.n == m + basis.q + 1
    assert design.y @ design.y == pytest.approx(ds.y @ ds.y, rel=1e-12)
    blocks = assemble_blocks(ds, spec, basis)
    with pytest.raises(NumericalError, match="not absorbed"):
        blocks.design_at(np.ones(1))
    absorbed = np.zeros_like(t)
    absorbed[:m] = np.triu(t[:m])
    blocks.t = absorbed
    blocks.design_at(np.ones(1))
    absorbed[-1, 0] = 1e-300
    with pytest.raises(NumericalError, match="not absorbed"):
        blocks.design_at(np.ones(1))
    # an entry below the diagonal of the top M x M block, the rows below it zero
    absorbed[-1, 0] = 0.0
    absorbed[m - 1, 0] = 1e-300
    with pytest.raises(NumericalError, match="not absorbed"):
        blocks.design_at(np.ones(1))
    blocks.t = np.triu(t[:m - 1])
    with pytest.raises(NumericalError, match="not absorbed"):
        blocks.design_at(np.ones(1))


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


def test_from_raw_and_predict_scale_rows_by_one_rule():
    """``Dataset.from_raw`` and ``predict`` read one column per domain:
    a table with more columns used to lose the extra ones silently, and
    one with fewer failed with an IndexError.  A cell outside a continuous
    range is an error on the way in and a flagged, clamped row in predict."""
    domains = (PredictorDomain.continuous(0.0, 10.0), PredictorDomain.discrete((2.0, 5.0)))
    raw = np.array([[0.0, 2.0], [5.0, 5.0], [10.0, 2.0]])
    y = np.array([1.0, 2.0, 4.0])
    ds = Dataset.from_raw(raw, y, domains)
    np.testing.assert_array_equal(ds.x, [[0.0, 1.0], [0.5, 2.0], [1.0, 1.0]])
    assert ds.x.flags.c_contiguous
    # ``columns`` reads the predictors out of a wider table, in its order
    wide = np.column_stack([raw[:, 1], y, raw[:, 0]])
    np.testing.assert_array_equal(Dataset.from_raw(wide, y, domains, [2, 0]).x, ds.x)
    for cols in (np.column_stack([raw, raw[:, :1]]), raw[:, :1]):
        match = rf"2 predictor columns, got shape \(3, {cols.shape[1]}\)"
        with pytest.raises(InputError, match=match):
            Dataset.from_raw(cols, y, domains)
    with pytest.raises(InputError, match=r"column 0 has values outside the declared range"):
        Dataset.from_raw(raw * [1.5, 1.0], y, domains)
    spec = main_effects_model(domains)
    fit = fit_model(ds, spec, SmoothingParams.from_values(1e-2, np.ones(spec.n_penalized)),
                    select_basis(3, 3, seed=0))
    with pytest.warns(UserWarning, match="1 prediction row"):
        eta, flags = predict(fit, spec, raw * [1.5, 1.0])
    assert flags.tolist() == [False, False, True]
    np.testing.assert_allclose(eta[2], predict(fit, spec, raw[2])[0], rtol=1e-12)
