import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanova.data import Dataset, unit_domains
from spanova.gcv import (
    GcvResult,
    LambdaProfile,
    _exact_score,
    full_gcv,
    gcv_score,
    golden_minimize,
    minimize_lambda,
    skip_select,
    skip_stage_one,
)
from spanova.kernels import ModelSpec, main_effects_model
from spanova.simulate import SCENARIOS, gen_data
from spanova.solver import (
    BasisSelection,
    CompiledDesign,
    DesignBlocks,
    SmoothingParams,
    _stacked_fit,
    assemble_blocks,
    basis_count,
    fit_model,
    select_basis,
)
from spanova.util import NumericalError


def smooth_problem(seed, n=40, q=20, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 1))
    y = np.sin(2 * np.pi * x[:, 0]) + noise * rng.standard_normal(n)
    spec = main_effects_model(unit_domains(1))
    ds = Dataset(x=x, y=y, domains=spec.domains)
    blocks = assemble_blocks(ds, spec, select_basis(n, q, seed=seed))
    return ds, spec, blocks


def two_term_problem(seed, n=80, q=18, noise=0.3, second_weight=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 2))
    eta = np.sin(2 * np.pi * x[:, 0]) + second_weight * np.cos(2 * np.pi * x[:, 1])
    y = eta + noise * rng.standard_normal(n)
    spec = main_effects_model(unit_domains(2))
    ds = Dataset(x=x, y=y, domains=spec.domains)
    blocks = assemble_blocks(ds, spec, select_basis(n, q, seed=seed))
    return ds, spec, blocks


def collinear_problem(n=120, q=16):
    """Two identical rows sit in the basis, so K'K is exactly singular."""
    rng = np.random.default_rng(33)
    x = rng.uniform(size=(n, 1))
    x[1, 0] = x[0, 0]
    y = np.sin(2 * np.pi * x[:, 0]) + 0.3 * rng.standard_normal(n)
    spec = main_effects_model(unit_domains(1))
    ds = Dataset(x=x, y=y, domains=spec.domains)
    blocks = assemble_blocks(ds, spec, BasisSelection(indices=np.arange(q)))
    return ds, spec, blocks


def scenario_problem(scenario, n, seed=0):
    sim = gen_data(scenario, n, 5.0, seed=seed)
    blocks = assemble_blocks(sim.dataset, SCENARIOS[scenario].spec,
                             select_basis(n, basis_count(n), seed=seed))
    return sim.dataset, blocks


def design_at(blocks, y, theta):
    """The exact-score inputs at theta, on the rows ``blocks`` holds."""
    k, q = blocks.combine(theta)
    return CompiledDesign(blocks.t, k, q, y, blocks.n_obs, blocks.rss_offset)


def dense_svd_score(t, k, q, y, nlam):
    """Independent evaluation: dense pseudo-inverse of the stacked problem."""
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


# ------------------------------------------------------------------- scoring


def test_gcv_score_matches_independent_dense():
    ds, spec, blocks = smooth_problem(0)
    k, q = blocks.combine(np.ones(1))
    for lg in (-8, -6, -4, -2, 0):
        mine = gcv_score(blocks.t, k, q, ds.y, 10.0**lg)
        ref = dense_svd_score(blocks.t, k, q, ds.y, 10.0**lg)
        assert mine == pytest.approx(ref, rel=1e-8)


def test_gcv_score_scale_equivariance():
    ds, spec, blocks = smooth_problem(1)
    k, q = blocks.combine(np.ones(1))
    base = gcv_score(blocks.t, k, q, ds.y, 1e-3)
    # alpha a power of two keeps the scaling exact in floating point
    scaled = gcv_score(blocks.t, k, q, 4.0 * ds.y, 1e-3)
    assert scaled == 16.0 * base


def test_gcv_score_argmin_scale_invariant():
    ds, spec, blocks = smooth_problem(2)
    k, q = blocks.combine(np.ones(1))
    grid = np.linspace(-9, 2, 45)
    s1 = [gcv_score(blocks.t, k, q, ds.y, 10.0**g) for g in grid]
    s2 = [gcv_score(blocks.t, k, q, 4.0 * ds.y, 10.0**g) for g in grid]
    assert int(np.argmin(s1)) == int(np.argmin(s2))


def test_gcv_score_zero_for_parametric_response():
    ds, spec, blocks = smooth_problem(3)
    y = 2.0 + 3.0 * ds.x[:, 0]
    k, q = blocks.combine(np.ones(1))
    assert gcv_score(blocks.t, k, q, y, 1e-2) < 1e-20


def test_gcv_score_noise_plateau_matches_variance():
    """At huge nlam with only an intercept, G is the scaled sample variance."""
    rng = np.random.default_rng(9)
    n = 200
    x = rng.uniform(size=(n, 1))
    y = rng.standard_normal(n)
    base = main_effects_model(unit_domains(1))
    spec = ModelSpec(domains=base.domains, effects=base.effects,
                     null_terms=(), penalized_terms=base.penalized_terms)
    assert spec.null_dim == 1
    ds = Dataset(x=x, y=y, domains=spec.domains)
    blocks = assemble_blocks(ds, spec, select_basis(n, 20, seed=0))
    k, q = blocks.combine(np.ones(1))
    got = gcv_score(blocks.t, k, q, y, 1e12)
    want = np.var(y) * n**2 / (n - 1) ** 2
    assert got == pytest.approx(want, rel=0.02)


def test_theta_lambda_redundancy():
    """Scaling all theta and nlam together leaves the fit unchanged."""
    ds, spec, blocks = two_term_problem(4)
    beta = 3.7
    p1 = SmoothingParams.from_values(1e-3, [1.0, 2.0])
    p2 = SmoothingParams.from_values(beta * 1e-3, [beta * 1.0, beta * 2.0])
    f1 = fit_model(ds, spec, p1, blocks=blocks)
    f2 = fit_model(ds, spec, p2, blocks=blocks)
    np.testing.assert_allclose(f1.fitted, f2.fitted, atol=1e-10)


# --------------------------------------------------------- compressed scores


def assert_compressed_scores_match(blocks, y, thetas, log_nlams):
    small, f = blocks.compress(y)
    assert small.n == blocks.n_null + blocks.n_penalized * blocks.q < blocks.n
    assert small.n_obs == blocks.n
    for theta in thetas:
        direct, compressed = design_at(blocks, y, theta), design_at(small, f, theta)
        assert compressed.n == small.n and compressed.n_obs == blocks.n
        lam_profile = LambdaProfile(compressed)
        for lg in log_nlams:
            want = _exact_score(direct, 10.0**lg)
            assert _exact_score(compressed, 10.0**lg) == pytest.approx(want, rel=1e-10)
            assert lam_profile.score(lg) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("scenario", ["u2", "m1", "m2"])
def test_compressed_exact_score_matches_direct(scenario):
    """At nlam <= 1e-6, u2's direct score itself moves by about 1e-10 under
    a row permutation, so the points stay above that."""
    ds, blocks = scenario_problem(scenario, 1500)
    rng = np.random.default_rng(3)
    thetas = [np.ones(blocks.n_penalized)]
    thetas += [10.0 ** rng.uniform(-1.0, 1.0, blocks.n_penalized) for _ in range(2)]
    assert_compressed_scores_match(blocks, ds.y, thetas, (-5.0, -3.0, -1.0, 1.0))


def test_compressed_exact_score_matches_direct_on_tied_basis():
    """The tied columns of compressed K are equal only to rounding; the
    profile never forms K'K, so it scores them as the exact path does."""
    ds, spec, blocks = collinear_problem()
    assert np.linalg.matrix_rank(np.hstack([blocks.t, blocks.k_parts[0]])) < \
        blocks.n_null + blocks.q
    assert_compressed_scores_match(blocks, ds.y, [np.ones(1), np.array([7.0])],
                                   (-8.0, -5.0, -2.0, 1.0))


def test_profile_coefficients_match_stacked_fit():
    """The profile's (d, c) equal the stacked-QR fit's on compressed rows.

    The tied basis is left out: its c is not identified along the tied
    direction, so two correct solvers may return different c there.
    """
    ds, blocks = scenario_problem("m1", 1500)
    small, f = blocks.compress(ds.y)
    design = design_at(small, f, np.ones(blocks.n_penalized))
    profile = LambdaProfile(design)
    for nlam in (1e-8, 1e-4, 1.0):
        d, c = profile.coefficients(nlam)
        d_ref, c_ref, _, _ = _stacked_fit(design, nlam)
        assert np.abs(d - d_ref).max() <= 1e-9 * np.abs(d_ref).max()
        assert np.abs(c - c_ref).max() <= 1e-9 * np.abs(c_ref).max()


@functools.cache
def compressed_two_term():
    ds, spec, blocks = two_term_problem(23, n=200, q=18)
    return blocks.compress(ds.y)


@settings(max_examples=30, deadline=None)
@given(log_scale=st.floats(-3.0, 3.0), log_nlam=st.floats(-6.0, 2.0),
       log_theta=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_compressed_score_invariant_to_common_scale(log_scale, log_nlam, log_theta):
    """Only nlam/theta is identified: (theta, nlam) -> (s theta, s nlam)."""
    small, f = compressed_two_term()
    theta, s = 10.0 ** np.array(log_theta), 10.0**log_scale
    base = _exact_score(design_at(small, f, theta), 10.0**log_nlam)
    scaled = _exact_score(design_at(small, f, s * theta), s * 10.0**log_nlam)
    assert np.isfinite(base)
    assert scaled == pytest.approx(base, rel=1e-10)


def test_full_gcv_on_compressed_blocks_matches_direct_search():
    """full_gcv compresses on entry; compressed input gives the same search."""
    ds, spec, blocks = two_term_problem(24, n=300, q=18)
    small, f = blocks.compress(ds.y)
    assert small.n < blocks.n
    direct, compressed = full_gcv(blocks, ds.y), full_gcv(small, f)
    assert compressed.params == direct.params
    assert compressed.score == direct.score
    fit = fit_model(ds, spec, direct.params, blocks=blocks)
    assert fit.gcv == pytest.approx(direct.score, rel=1e-10)


# ----------------------------------------------------------------- minimizer


def test_golden_minimize_synthetic_quadratic():
    x, fx, boundary = golden_minimize(lambda t: (t + 4.0) ** 2 + 1.0)
    assert abs(x + 4.0) < 1e-4
    assert fx == pytest.approx(1.0, abs=1e-8)
    assert not boundary


def test_golden_minimize_flags_boundary():
    x, fx, boundary = golden_minimize(lambda t: t)
    assert boundary
    assert x == pytest.approx(-12.0, abs=1e-3)


def test_golden_minimize_rejects_all_infinite():
    with pytest.raises(NumericalError):
        golden_minimize(lambda t: np.full(np.shape(t), np.inf))


def test_profile_batch_scores_match_single_scores_and_exact():
    from spanova.gcv import LambdaProfile, _exact_score

    ds, spec, blocks = two_term_problem(21)
    k, q = blocks.combine(np.array([1.0, 0.3]))
    design = CompiledDesign(blocks.t, k, q, ds.y)
    profile = LambdaProfile(design)
    grid = np.linspace(-12, 3, 61)
    np.testing.assert_allclose(profile.score(grid), [profile.score(g) for g in grid],
                               rtol=1e-12)
    for lg in (-9.0, -5.0, -2.0, 1.0):
        assert profile.score(lg) == pytest.approx(_exact_score(design, 10.0**lg), rel=1e-9)


def test_minimize_lambda_within_one_grid_step():
    grid = np.linspace(-12, 3, 400)
    step = grid[1] - grid[0]
    for seed in range(10):
        noise = 0.2 + 0.1 * (seed % 3)
        ds, spec, blocks = smooth_problem(seed, n=35 + seed, q=16)
        k, q = blocks.combine(np.ones(1))
        res = minimize_lambda(blocks.t, k, q, ds.y)
        scores = [gcv_score(blocks.t, k, q, ds.y, 10.0**g) for g in grid]
        best = grid[int(np.argmin(scores))]
        assert abs(res.params.log10_nlam - best) <= step + 1e-12


def test_minimize_lambda_flags_monotone_score():
    # pure noise against an intercept-only null: smoothing never helps,
    # so the score decreases toward the stiff boundary
    rng = np.random.default_rng(21)
    n = 60
    x = rng.uniform(size=(n, 1))
    y = rng.standard_normal(n)
    base = main_effects_model(unit_domains(1))
    spec = ModelSpec(domains=base.domains, effects=base.effects,
                     null_terms=(), penalized_terms=base.penalized_terms)
    ds = Dataset(x=x, y=y, domains=spec.domains)
    blocks = assemble_blocks(ds, spec, select_basis(n, 15, seed=2))
    k, q = blocks.combine(np.ones(1))
    res = minimize_lambda(blocks.t, k, q, ds.y)
    assert res.params.log10_nlam >= 3.0 - 0.26
    assert not res.converged
    assert "lambda-boundary" in res.flags


def test_minimize_lambda_deterministic():
    ds, spec, blocks = smooth_problem(6)
    k, q = blocks.combine(np.ones(1))
    r1 = minimize_lambda(blocks.t, k, q, ds.y)
    r2 = minimize_lambda(blocks.t, k, q, ds.y)
    assert r1 == r2


def test_minimize_lambda_survives_collinear_basis():
    """A singular K'K must not fabricate a score minimum at tiny nlam."""
    from spanova.gcv import _exact_score, _profile_at

    ds, spec, blocks = collinear_problem()
    k, q = blocks.combine(np.ones(1))
    res = minimize_lambda(blocks.t, k, q, ds.y)
    grid = np.linspace(-12, 3, 400)
    scores = [gcv_score(blocks.t, k, q, ds.y, 10.0**g) for g in grid]
    best = grid[int(np.argmin(scores))]
    assert abs(res.params.log10_nlam - best) <= grid[1] - grid[0] + 1e-12
    assert res.converged
    # the profile stays truthful deep below the resolvable spectrum
    _, profile = _profile_at(blocks, ds.y, np.ones(1))
    design = CompiledDesign(blocks.t, k, q, ds.y)
    for lg in (-12.0, -9.0, -6.0, -3.0):
        assert profile.score(lg) == pytest.approx(
            _exact_score(design, 10.0**lg), rel=1e-9)


# ---------------------------------------------------------------------- skip


def test_skip_stage_two_arithmetic_by_hand():
    """theta_delta0 = theta_delta^2 c'Q_delta c on a 5-point, 2-term problem."""
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(5, 2))
    y = np.array([0.7, -0.2, 1.4, 0.3, -1.1])
    spec = main_effects_model(unit_domains(2))
    ds = Dataset(x=x, y=y, domains=spec.domains)
    blocks = assemble_blocks(ds, spec, select_basis(5, 4, seed=0))
    theta1, _, c = skip_stage_one(blocks, ds.y)
    # hand arithmetic: explicit accumulation of the quadratic forms
    hand = []
    for delta, qp in enumerate(blocks.q_parts):
        acc = 0.0
        for i in range(4):
            row = 0.0
            for j in range(4):
                row += qp[i, j] * c[j]
            acc += c[i] * row
        hand.append(theta1[delta] ** 2 * acc)
    res = skip_select(blocks, ds.y)
    np.testing.assert_allclose(res.params.theta, hand, rtol=1e-13)


def test_skip_trace_normalization_stage():
    from spanova.kernels import term_gram_diag

    ds, spec, blocks = two_term_problem(5)
    theta1, _, _ = skip_stage_one(blocks, ds.y)
    for delta, term in enumerate(spec.penalized_terms):
        tr = term_gram_diag(term, spec.domains, ds.x).sum()
        assert theta1[delta] == pytest.approx(1.0 / tr, rel=1e-14)


def test_skip_dominant_component_gets_largest_weight():
    # the response uses predictor 1 only, so its term should dominate
    ds, spec, blocks = two_term_problem(7, n=150, q=22, noise=0.1, second_weight=0.0)
    res = skip_select(blocks, ds.y)
    theta = res.params.theta
    assert theta[0] > 10 * theta[1]


def test_skip_floors_zero_quadratic_form():
    ds, spec, blocks = smooth_problem(8, n=60, q=14)
    dead = DesignBlocks(
        t=blocks.t,
        k_parts=(blocks.k_parts[0], np.zeros_like(blocks.k_parts[0])),
        q_parts=(blocks.q_parts[0], np.zeros_like(blocks.q_parts[0])),
        part_traces=np.array([blocks.part_traces[0], 1.0]),
        basis=blocks.basis,
        basis_rows=blocks.basis_rows,
    )
    res = skip_select(dead, ds.y)
    assert "theta-floor" in res.flags
    theta = res.params.theta
    assert theta[1] == pytest.approx(1e-12 * theta[0], rel=1e-10)


@pytest.mark.parametrize("scenario, n", [("m1", 2000), ("m4", 1000)])
def test_skip_select_invariant_to_response_scale(scenario, n):
    """theta_0 scales with y^2; the nlam it reports follows, on any scale."""
    ds, blocks = scenario_problem(scenario, n)
    base = skip_select(blocks, ds.y)
    assert not base.flags
    for a in (1e-4, 1e4):
        res = skip_select(blocks, a * ds.y)
        assert res.params.log10_nlam - 2 * np.log10(a) == \
            pytest.approx(base.params.log10_nlam, abs=1e-3)
        np.testing.assert_allclose(np.asarray(res.params.log10_theta) - 2 * np.log10(a),
                                   base.params.log10_theta, atol=1e-6)
        assert res.flags == base.flags


# ------------------------------------------------------------------ full gcv


def test_full_gcv_improves_on_skip():
    ds, spec, blocks = two_term_problem(10)
    sk = skip_select(blocks, ds.y)
    fg = full_gcv(blocks, ds.y)
    assert fg.score <= sk.score + 1e-12


def test_full_gcv_trace_nonincreasing_and_deterministic():
    ds, spec, blocks = two_term_problem(11)
    fg = full_gcv(blocks, ds.y)
    assert all(a >= b - 1e-15 for a, b in zip(fg.score_trace, fg.score_trace[1:]))
    fg2 = full_gcv(blocks, ds.y)
    assert fg == fg2
    assert fg.iterations <= 30
    assert fg.score > 0


def test_full_gcv_single_term_reduces_to_lambda_search():
    ds, spec, blocks = smooth_problem(12, n=60, q=18)
    fg = full_gcv(blocks, ds.y)
    k, q = blocks.combine(fg.params.theta)
    ml = minimize_lambda(blocks.t, k, q, ds.y, theta=fg.params.theta)
    f1 = fit_model(ds, spec, fg.params, blocks=blocks)
    f2 = fit_model(ds, spec, ml.params, blocks=blocks)
    np.testing.assert_allclose(f1.fitted, f2.fitted, atol=1e-8)


def test_full_gcv_pins_theta_scale():
    """Only nlam/theta_delta is identified; the common scale is pinned.

    Without the pin a drifting scale can push the identified optimum
    outside the fixed nlam window, trapping the search on the
    undersmoothed plateau.
    """
    ds2, spec2, blocks2 = two_term_problem(15)
    fg2 = full_gcv(blocks2, ds2.y)
    assert abs(np.mean(fg2.params.log10_theta)) < 1e-9
    ds1, spec1, blocks1 = smooth_problem(16, n=60, q=18)
    fg1 = full_gcv(blocks1, ds1.y)
    assert abs(fg1.params.log10_theta[0]) < 1e-12
    assert -12.0 <= fg1.params.log10_nlam <= 3.0


def test_full_gcv_beats_three_dimensional_grid():
    """Within 0.1% of a brute-force (theta1, theta2, nlam) grid search."""
    from spanova.gcv import LambdaProfile, _profile_at

    ds, spec, blocks = two_term_problem(14, n=60, q=14)
    fg = full_gcv(blocks, ds.y)
    best = np.inf
    for lt1 in np.linspace(-2, 6, 20):
        for lt2 in np.linspace(-2, 6, 20):
            _, profile = _profile_at(blocks, ds.y, np.array([10.0**lt1, 10.0**lt2]))
            for lg in np.linspace(-12, 3, 40):
                val = profile.score(lg)
                if val < best:
                    best = val
    assert fg.score <= best * (1 + 1e-3)


# ------------------------------------------------------------- one BLAS copy


def test_search_and_fit_call_no_numpy_lapack(monkeypatch):
    """The search and the fit run their LAPACK work on scipy's OpenBLAS.

    numpy and scipy bundle separate OpenBLAS copies, and calls alternating
    between them at two threads stall each other, so a numpy.linalg call
    that creeps back into these paths fails here.
    """
    from spanova import asp

    ds, blocks = scenario_problem("m1", 400, seed=2)
    theta = np.ones(blocks.n_penalized)
    expected = (full_gcv(blocks, ds.y), skip_select(blocks, ds.y))

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg called in the search or the fit")

    for name in ("eigh", "solve", "cholesky", "qr", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    assert (full_gcv(blocks, ds.y), skip_select(blocks, ds.y)) == expected
    d, c, fitted, trace_a = _stacked_fit(design_at(blocks, ds.y, theta), 1e-3)
    assert np.isfinite(fitted).all() and 0.0 < trace_a < ds.n
    sel = asp.asp_uniform(ds, SCENARIOS["m1"].spec, asp.AspConfig(jobs=1))
    assert np.isfinite(sel.params.log10_nlam)
