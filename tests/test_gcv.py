import dataclasses
import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanova import gcv, solver
from spanova.asp import full_sample_basis
from spanova.data import Dataset, unit_domains
from spanova.gcv import (
    GcvResult,
    LambdaProfile,
    _exact_score,
    at_window_edge,
    full_gcv,
    gcv_score,
    golden_minimize,
    minimize_lambda,
    skip_search,
    skip_select,
)
from spanova.kernels import ModelSpec, main_effects_model
from spanova.simulate import SCENARIOS, gen_data
from spanova.solver import (
    BasisSelection,
    CompiledDesign,
    DesignRows,
    SmoothingParams,
    _checked_design,
    _stacked_fit,
    assemble_blocks,
    basis_count,
    compressed_blocks,
    fit_model,
    part_traces,
    select_basis,
)
from spanova.util import InputError, NumericalError


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


def rotated_design(blocks, y, theta):
    """The exact-score inputs at theta on all n rows of raw ``blocks``,
    rotated by T's QR: a reference independent of the chunked compression."""
    k, q = blocks.combine(theta)
    null = solver.NullQR(blocks.t)
    return CompiledDesign(null.triangle(), null.rotate(k), q, null.rotate(y), blocks.n)


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
    f1 = fit_model(ds, spec, p1, basis=blocks.basis)
    f2 = fit_model(ds, spec, p2, basis=blocks.basis)
    np.testing.assert_allclose(f1.fitted, f2.fitted, atol=1e-10)


# --------------------------------------------------------- compressed scores


def assert_compressed_scores_match(ds, spec, blocks, thetas, log_nlams):
    y = ds.y
    small = compressed_blocks(ds, spec, blocks.basis)
    assert small.n == blocks.n_null + blocks.n_penalized * blocks.q + 1 < blocks.n
    assert small.n_obs == blocks.n
    for theta in thetas:
        direct, compressed = rotated_design(blocks, y, theta), small.design_at(theta)
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
    assert_compressed_scores_match(ds, SCENARIOS[scenario].spec, blocks, thetas,
                                   (-5.0, -3.0, -1.0, 1.0))


def test_compressed_exact_score_matches_direct_on_tied_basis():
    """The tied columns of compressed K are equal only to rounding; the
    profile never forms K'K, so it scores them as the exact path does."""
    ds, spec, blocks = collinear_problem()
    assert np.linalg.matrix_rank(np.hstack([blocks.t, blocks.k_parts[0]])) < \
        blocks.n_null + blocks.q
    assert_compressed_scores_match(ds, spec, blocks, [np.ones(1), np.array([7.0])],
                                   (-8.0, -5.0, -2.0, 1.0))


@functools.cache
def compressed_two_term():
    ds, spec, blocks = two_term_problem(23, n=200, q=18)
    return compressed_blocks(ds, spec, blocks.basis)


@settings(max_examples=30, deadline=None)
@given(log_scale=st.floats(-3.0, 3.0), log_nlam=st.floats(-6.0, 2.0),
       log_theta=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_compressed_score_invariant_to_common_scale(log_scale, log_nlam, log_theta):
    """Only nlam/theta is identified: (theta, nlam) -> (s theta, s nlam)."""
    small = compressed_two_term()
    theta, s = 10.0 ** np.array(log_theta), 10.0**log_scale
    base = _exact_score(small.design_at(theta), 10.0**log_nlam)
    scaled = _exact_score(small.design_at(s * theta), s * 10.0**log_nlam)
    assert np.isfinite(base)
    assert scaled == pytest.approx(base, rel=1e-10)


@pytest.mark.parametrize("scenario", ["u2", "m1", "m2"])
def test_full_gcv_on_compressed_rows_matches_rotated_rows(monkeypatch, scenario):
    """full_gcv on the rows compressed to p + 1 rows selects what it selects on
    the n rows rotated by T's QR: the scores agree to rounding."""
    ds, blocks = scenario_problem(scenario, 600)
    spec = SCENARIOS[scenario].spec
    assert solver.streams_rows(ds, spec, blocks.basis)
    compressed = full_gcv(ds, spec, blocks.basis)
    monkeypatch.setattr(solver, "streams_rows", lambda *args: False)
    assert compressed_blocks(ds, spec, blocks.basis).n == ds.n
    rotated = full_gcv(ds, spec, blocks.basis)
    assert compressed.score == pytest.approx(rotated.score, rel=1e-10)
    assert compressed.params.log10_nlam == pytest.approx(rotated.params.log10_nlam, abs=1e-9)
    np.testing.assert_allclose(compressed.params.log10_theta, rotated.params.log10_theta,
                               rtol=0.0, atol=1e-9)
    fit = fit_model(ds, spec, compressed.params, basis=blocks.basis)
    assert fit.gcv == pytest.approx(compressed.score, rel=1e-10)


# ----------------------------------------------------------------- minimizer


def test_golden_minimize_synthetic_quadratic():
    x, fx = golden_minimize(lambda t: (t + 4.0) ** 2 + 1.0)
    assert abs(x + 4.0) < 1e-4
    assert fx == pytest.approx(1.0, abs=1e-8)
    assert not at_window_edge(x)


def test_golden_minimize_flags_boundary():
    x, fx = golden_minimize(lambda t: t)
    assert at_window_edge(x)
    assert x == pytest.approx(-12.0, abs=1e-3)


def test_window_rule_covers_the_edge_band_and_beyond():
    lo, hi, tol = gcv.LOG_NLAM_LO, gcv.LOG_NLAM_HI, gcv.LAMBDA_TOL
    for x in (lo, lo + tol, hi - tol, hi, lo - 1.0, hi + 0.437, float("nan")):
        assert at_window_edge(x), x
    for x in (lo + 2 * tol, -4.0, hi - 2 * tol):
        assert not at_window_edge(x), x


def test_golden_minimize_rejects_all_infinite():
    with pytest.raises(NumericalError):
        golden_minimize(lambda t: np.full(np.shape(t), np.inf))


def searched_designs():
    """One design of each kind a search scores: compressed blocks (m1, p + 1 < n),
    blocks rotated by T's QR (m4, p + 1 >= n) and streamed rows."""
    rng = np.random.default_rng(5)
    for scenario, n in (("m1", 400), ("m4", 300)):
        sim = gen_data(scenario, n, 5.0, seed=1)
        spec = SCENARIOS[scenario].spec
        basis = select_basis(n, basis_count(n), seed=1)
        theta = 10.0 ** rng.uniform(-1.0, 1.0, spec.n_penalized)
        assert solver.streams_rows(sim.dataset, spec, basis) == (scenario == "m1")
        yield compressed_blocks(sim.dataset, spec, basis).design_at(theta)
        if scenario == "m1":
            yield DesignRows(sim.dataset, spec, basis).design_at(theta)


def test_profile_batch_scores_match_single_scores_and_exact():
    ds, spec, blocks = two_term_problem(21)
    k, q = blocks.combine(np.array([1.0, 0.3]))
    designs = [_checked_design(blocks.t, k, q, ds.y), *searched_designs()]
    assert len(designs) == 4
    grid = np.linspace(-12, 3, 61)
    for design in designs:
        profile = LambdaProfile(design)
        np.testing.assert_allclose(profile.score(grid), [profile.score(g) for g in grid],
                                   rtol=1e-12)
        for lg in (-9.0, -5.0, -2.0, 1.0):
            assert profile.score(lg) == pytest.approx(_exact_score(design, 10.0**lg),
                                                      rel=1e-9)


def test_each_design_factors_its_penalty_once(monkeypatch):
    """Q_r is factored once per design, in the solver, and the profile and
    the stacked-QR solve share the factor: skip's stage-one design is
    profiled and then solved, and estimate_p's design scored twice."""
    import sys

    import scipy.linalg as sla

    from spanova import asp

    factored, callers = [], set()

    def spy(real):
        def factor(a, *args, **kwargs):
            factored.append(a)
            callers.add(sys._getframe(1).f_globals["__name__"])
            return real(a, *args, **kwargs)
        return factor

    monkeypatch.setattr(sla.lapack, "dpotrf", spy(sla.lapack.dpotrf))
    monkeypatch.setattr(sla, "cholesky", spy(sla.cholesky))
    ds, blocks = scenario_problem("m1", 400, seed=2)
    spec = SCENARIOS["m1"].spec
    skip_select(ds, spec, blocks.basis)
    full_gcv(ds, spec, blocks.basis, max_iter=2)
    asp.estimate_p(ds, spec, 1e-3, np.ones(blocks.n_penalized), 150, asp.AspConfig(jobs=1))
    assert len(factored) > 10
    # every factored Q_r is held in the list, so equal ids mean one array factored twice
    assert len({id(a) for a in factored}) == len(factored)
    assert callers == {"spanova.solver"}


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
        # the scan's minimum is the score of record: the stacked QR agrees
        assert res.score == pytest.approx(
            gcv_score(blocks.t, k, q, ds.y, res.params.nlam), rel=1e-9)


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
    from spanova.gcv import _exact_score

    ds, spec, blocks = collinear_problem()
    k, q = blocks.combine(np.ones(1))
    res = minimize_lambda(blocks.t, k, q, ds.y)
    grid = np.linspace(-12, 3, 400)
    scores = [gcv_score(blocks.t, k, q, ds.y, 10.0**g) for g in grid]
    best = grid[int(np.argmin(scores))]
    assert abs(res.params.log10_nlam - best) <= grid[1] - grid[0] + 1e-12
    assert res.converged
    # the profile stays truthful deep below the resolvable spectrum
    design = compressed_blocks(ds, spec, blocks.basis).design_at(np.ones(1))
    profile = LambdaProfile(design)
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
    rows = DesignRows(ds, spec, blocks.basis)
    theta1, c = gcv._stage_one(rows, part_traces(ds, spec))
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
    res = skip_select(ds, spec, blocks.basis)
    np.testing.assert_allclose(res.params.theta, hand, rtol=1e-13)


def test_skip_trace_normalization_stage():
    from spanova.kernels import term_gram_diag

    ds, spec, blocks = two_term_problem(5)
    rows = DesignRows(ds, spec, blocks.basis)
    theta1, _ = gcv._stage_one(rows, part_traces(ds, spec))
    for delta, term in enumerate(spec.penalized_terms):
        tr = term_gram_diag(term, spec.domains, ds.x).sum()
        assert theta1[delta] == pytest.approx(1.0 / tr, rel=1e-14)


def test_skip_dominant_component_gets_largest_weight():
    # the response uses predictor 1 only, so its term should dominate
    ds, spec, blocks = two_term_problem(7, n=150, q=22, noise=0.1, second_weight=0.0)
    res = skip_select(ds, spec, blocks.basis)
    theta = res.params.theta
    assert theta[0] > 10 * theta[1]


def test_skip_floors_zero_quadratic_form():
    ds, spec, blocks = smooth_problem(8, n=60, q=14)
    dead = dataclasses.replace(
        blocks,
        k_parts=(blocks.k_parts[0], np.zeros_like(blocks.k_parts[0])),
        q_parts=(blocks.q_parts[0], np.zeros_like(blocks.q_parts[0])),
    )
    source = types.SimpleNamespace(
        design_at=lambda theta: _checked_design(dead.t, *dead.combine(theta), ds.y),
        q_parts=dead.q_parts)
    res = skip_search(source, np.array([part_traces(ds, spec)[0], 1.0]))
    assert "theta-floor" in res.flags
    theta = res.params.theta
    assert theta[1] == pytest.approx(1e-12 * theta[0], rel=1e-10)


@pytest.mark.parametrize("scenario, n", [("m1", 2000), ("m4", 1000)])
def test_skip_select_invariant_to_response_scale(scenario, n):
    """theta_0 scales with y^2; the nlam it reports follows, on any scale."""
    ds, blocks = scenario_problem(scenario, n)
    spec = SCENARIOS[scenario].spec
    base = skip_select(ds, spec, blocks.basis)
    assert not base.flags
    # the scan's minimum is the score of record: the fit at its params agrees
    fit = fit_model(ds, spec, base.params, basis=blocks.basis)
    assert fit.gcv == pytest.approx(base.score, rel=1e-9)
    for a in (1e-4, 1e4):
        scaled = Dataset(x=ds.x, y=a * ds.y, domains=ds.domains)
        res = skip_select(scaled, spec, blocks.basis)
        assert res.params.log10_nlam - 2 * np.log10(a) == \
            pytest.approx(base.params.log10_nlam, abs=1e-3)
        np.testing.assert_allclose(np.asarray(res.params.log10_theta) - 2 * np.log10(a),
                                   base.params.log10_theta, atol=1e-6)
        assert res.flags == base.flags


# ------------------------------------------------------------- invariances


def assert_same_selection(res, base, score_scale=1.0):
    assert res.params.log10_nlam == pytest.approx(base.params.log10_nlam, abs=1e-8)
    np.testing.assert_allclose(res.params.log10_theta, base.params.log10_theta,
                               rtol=0.0, atol=1e-8)
    assert res.score / score_scale == pytest.approx(base.score, rel=1e-8)


@pytest.mark.parametrize("scenario", ["u2", "m1", "m2"])
def test_selection_invariant_to_row_order(scenario):
    """Permuted rows, with the basis indices carried along, select the same."""
    n = 1000
    ds, blocks = scenario_problem(scenario, n)
    perm = np.random.default_rng(5).permutation(n)
    moved_to = np.argsort(perm)  # row i of ds is row moved_to[i] of shuffled
    shuffled = ds.take(perm)
    spec = SCENARIOS[scenario].spec
    shuffled_basis = BasisSelection(indices=moved_to[blocks.basis.indices])
    for select in (full_gcv, skip_select):
        assert_same_selection(select(shuffled, spec, shuffled_basis),
                              select(ds, spec, blocks.basis))


def test_full_gcv_invariant_to_affine_response():
    """y -> a y + b scales the score by a^2 and moves no parameter: theta is
    pinned to geometric mean 1 and the intercept absorbs b."""
    ds, blocks = scenario_problem("m1", 1000)
    spec = SCENARIOS["m1"].spec
    base = full_gcv(ds, spec, blocks.basis)
    for a, b in ((1e4, 0.0), (1e-4, 0.0), (1e8, 0.0), (1e-8, 0.0), (1.0, 1e3), (3.0, -7.0)):
        moved = Dataset(x=ds.x, y=a * ds.y + b, domains=ds.domains)
        assert_same_selection(full_gcv(moved, spec, blocks.basis), base, score_scale=a * a)


# ------------------------------------------------------------------ full gcv


def test_full_gcv_improves_on_skip():
    ds, spec, blocks = two_term_problem(10)
    sk = skip_select(ds, spec, blocks.basis)
    fg = full_gcv(ds, spec, blocks.basis)
    assert fg.score <= sk.score + 1e-12


def test_full_gcv_runs_no_input_check(monkeypatch):
    """Theta trials and profiles build their designs unchecked; only the
    public array-level entry points run the shape and symmetry checks."""
    calls = []
    real = solver._checked_design

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (solver, gcv):
        monkeypatch.setattr(module, "_checked_design", counting)
    ds, spec, blocks = two_term_problem(12)
    fg = full_gcv(ds, spec, blocks.basis, max_iter=3)
    assert fg.iterations >= 1
    assert calls == []
    k, q = blocks.combine(fg.params.theta)
    gcv_score(blocks.t, k, q, ds.y, fg.params)
    assert len(calls) == 1


def test_full_gcv_trace_nonincreasing_and_deterministic():
    ds, spec, blocks = two_term_problem(11)
    fg = full_gcv(ds, spec, blocks.basis)
    assert all(a >= b - 1e-15 for a, b in zip(fg.score_trace, fg.score_trace[1:]))
    fg2 = full_gcv(ds, spec, blocks.basis)
    assert fg == fg2
    assert fg.iterations <= 30
    assert fg.score > 0


def test_full_gcv_flags_its_iteration_cap():
    """A search stopped by ``max_iter`` says so in its flags, which the
    selection result (and so fit.json) carries; a converged one does not."""
    from spanova.asp import AspConfig, gcv_select

    ds, spec, blocks = two_term_problem(0, second_weight=0.2)
    capped = full_gcv(ds, spec, blocks.basis, max_iter=1)
    assert not capped.converged and "iteration-cap" in capped.flags
    done = full_gcv(ds, spec, blocks.basis)
    assert done.converged and done.iterations > 1 and "iteration-cap" not in done.flags
    assert "iteration-cap" in gcv_select(ds, spec, AspConfig(gcv_max_iter=1, jobs=1)).flags


def test_full_gcv_single_term_reduces_to_lambda_search():
    ds, spec, blocks = smooth_problem(12, n=60, q=18)
    fg = full_gcv(ds, spec, blocks.basis)
    k, q = blocks.combine(fg.params.theta)
    ml = minimize_lambda(blocks.t, k, q, ds.y, theta=fg.params.theta)
    f1 = fit_model(ds, spec, fg.params, basis=blocks.basis)
    f2 = fit_model(ds, spec, ml.params, basis=blocks.basis)
    np.testing.assert_allclose(f1.fitted, f2.fitted, atol=1e-8)


def test_full_gcv_pins_theta_scale():
    """Only nlam/theta_delta is identified; the common scale is pinned.

    Without the pin a drifting scale can push the identified optimum
    outside the fixed nlam window, trapping the search on the
    undersmoothed plateau.
    """
    ds2, spec2, blocks2 = two_term_problem(15)
    fg2 = full_gcv(ds2, spec2, blocks2.basis)
    assert abs(np.mean(fg2.params.log10_theta)) < 1e-9
    ds1, spec1, blocks1 = smooth_problem(16, n=60, q=18)
    fg1 = full_gcv(ds1, spec1, blocks1.basis)
    assert abs(fg1.params.log10_theta[0]) < 1e-12
    assert -12.0 <= fg1.params.log10_nlam <= 3.0


def test_full_gcv_beats_three_dimensional_grid():
    """Within 0.1% of a brute-force (theta1, theta2, nlam) grid search."""
    ds, spec, blocks = two_term_problem(14, n=60, q=14)
    fg = full_gcv(ds, spec, blocks.basis)
    small = compressed_blocks(ds, spec, blocks.basis)
    best = np.inf
    for lt1 in np.linspace(-2, 6, 20):
        for lt2 in np.linspace(-2, 6, 20):
            profile = LambdaProfile(small.design_at(np.array([10.0**lt1, 10.0**lt2])))
            for lg in np.linspace(-12, 3, 40):
                val = profile.score(lg)
                if val < best:
                    best = val
    assert fg.score <= best * (1 + 1e-3)


def test_full_gcv_combines_k_once_per_iteration(monkeypatch):
    """The search holds one design: skip's two, the first one after the
    init, and one per iteration for the nlam profile, whose design starts
    the next sweep; the sweep itself recombines nothing."""
    sim = gen_data("m1", 3000, 5.0, seed=0)
    spec = SCENARIOS["m1"].spec
    calls = []
    real = solver.DesignBlocks.combine

    def counting(self, theta):
        calls.append(theta)
        return real(self, theta)

    monkeypatch.setattr(solver.DesignBlocks, "combine", counting)
    res = full_gcv(sim.dataset, spec, full_sample_basis(3000, spec.null_dim), max_iter=4)
    assert res.iterations >= 2
    assert len(calls) == 3 + res.iterations


def test_public_searches_reject_constant_response():
    """On a constant y, skip_select returned log10 nlam -32.4 and full_gcv
    3.43 with a score of 3e-29, and neither raised nor flagged."""
    data = gen_data("m1", 300, 5.0, seed=1).dataset
    spec = SCENARIOS["m1"].spec
    flat = Dataset(x=data.x, y=np.full(300, 2.0), domains=data.domains)
    basis = full_sample_basis(300, spec.null_dim)
    for search in (full_gcv, skip_select):
        with pytest.raises(InputError, match="response is constant"):
            search(flat, spec, basis)
    for max_iter in (0, -3):
        with pytest.raises(InputError, match=f"max_iter must be at least 1, got {max_iter}"):
            full_gcv(data, spec, basis, max_iter=max_iter)


# ------------------------------------------------------------- one BLAS copy


def test_search_and_fit_call_no_numpy_lapack(monkeypatch):
    """The search, the fit and predict run their LAPACK work on scipy's OpenBLAS.

    numpy and scipy bundle separate OpenBLAS copies, and calls alternating
    between them at two threads stall each other, so a numpy.linalg call
    that creeps back into these paths fails here.  numpy's helpers such as
    ``matrix_rank`` call the module-internal functions of
    ``numpy.linalg._linalg``, so those are patched too.
    """
    from spanova import asp
    from spanova.solver import predict

    ds, blocks = scenario_problem("m1", 400, seed=2)
    spec = SCENARIOS["m1"].spec
    theta = np.ones(blocks.n_penalized)
    expected = (full_gcv(ds, spec, blocks.basis), skip_select(ds, spec, blocks.basis))

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg called in the search or the fit")

    for module in (np.linalg, np.linalg._linalg):
        for name in ("eigh", "solve", "cholesky", "qr", "svd", "lstsq", "matrix_rank"):
            monkeypatch.setattr(module, name, forbidden)
    assert (full_gcv(ds, spec, blocks.basis), skip_select(ds, spec, blocks.basis)) == expected
    k, q = blocks.combine(theta)
    d, c, trace_a = _stacked_fit(_checked_design(blocks.t, k, q, ds.y), 1e-3)
    fitted = blocks.t @ d + k @ c
    assert np.isfinite(fitted).all() and 0.0 < trace_a < ds.n
    config = asp.AspConfig(jobs=1)
    for selector in (asp.asp_uniform, asp.gcv_select, asp.skip_selection):
        sel = selector(ds, spec, config)
        assert np.isfinite(sel.params.log10_nlam)
    fit = fit_model(ds, spec, sel.params, basis=asp.full_sample_basis(ds.n, spec.null_dim))
    pred, _ = predict(fit, spec, ds.x[:50])
    np.testing.assert_allclose(pred, fit.fitted[:50], rtol=1e-10, atol=1e-12)


# -------------------------------------------------------- one design builder


def test_asp_holds_no_design_builder():
    """The selections hand the rows to gcv, whose searches build their own
    designs, so the stream-or-not choice is made in one place
    (``solver.compressed_blocks``).  A builder that creeps back into asp,
    or a second stream-or-not choice into gcv, fails here."""
    from spanova import asp

    builders = ("DesignRows", "DesignBlocks", "assemble_blocks", "compressed_blocks",
                "streams_rows", "_compressed_design", "_checked_design", "_kernel_rows",
                "gcv_score")
    assert [name for name in builders if hasattr(asp, name)] == []
    assert [name for name in ("streams_rows", "assemble_blocks", "_compressed_design")
            if hasattr(gcv, name)] == []
