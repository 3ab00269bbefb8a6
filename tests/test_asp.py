import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from spanova import asp
from spanova.asp import (
    AspConfig,
    RateFit,
    SubsampleFit,
    _aggregate,
    asp_asymptotic,
    asp_uniform,
    estimate_p,
    extrapolate_lambda,
    fit_rate,
    gcv_select,
    order_based,
    order_selection,
    rate_exponent,
    skip_selection,
    subsample_size,
)
from spanova.data import Dataset, unit_domains
from spanova.kernels import PredictorDomain, full_two_way_model, main_effects_model
from spanova.simulate import SCENARIOS, gen_data
from spanova.util import InputError, derive_rng


def sine_dataset(n, seed=0, noise=0.2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 1))
    y = np.sin(2 * np.pi * x[:, 0]) + noise * rng.standard_normal(n)
    domains = unit_domains(1)
    return Dataset.from_raw(x, y, domains), main_effects_model(domains)


FAST = AspConfig(b_coef=20.0, n_subsamples=3, gcv_max_iter=8, jobs=1, seed=7)


def test_subsample_size_frozen_examples():
    cfg = AspConfig()
    assert subsample_size(20000, cfg) == 595
    assert subsample_size(10**6, cfg) == 1581
    assert subsample_size(160000, cfg) == 1000


def test_subsample_size_clamps():
    cfg = AspConfig()
    # upper clamp: the rule exceeds n for small samples
    assert subsample_size(100, cfg) == 100
    # lower clamp keeps room for the unpenalized columns
    assert subsample_size(40, cfg, null_dim=25) == 40
    with pytest.raises(InputError):
        subsample_size(30, cfg, null_dim=25)


def test_rate_exponent_values():
    assert rate_exponent(3.0, 1.0) == 0.75
    assert rate_exponent(3.0, 2.0) == pytest.approx(3.0 / 7.0, rel=1e-15)
    with pytest.raises(InputError):
        rate_exponent(1.0, 1.0)
    with pytest.raises(InputError):
        rate_exponent(3.0, 2.5)


def test_order_based_exact_and_validated():
    assert order_based(10000, 3.0, 1.0) == 1e-3
    assert order_based(1, 3.0, 1.0, c=0.37) == 0.37
    assert order_based(512, 4.0, 2.0) == pytest.approx(512.0 ** (-4.0 / 9.0), rel=1e-15)
    with pytest.raises(InputError):
        order_based(0, 3.0, 1.0)
    with pytest.raises(InputError):
        order_based(100, 3.0, 1.0, c=-1.0)


def test_extrapolation_identity_is_exact_arithmetic():
    lam = extrapolate_lambda(1e-3, 20000, 595, 3.0, 1.0)
    assert lam == 1e-3 * (20000 / 595) ** (-0.75)
    assert lam == pytest.approx(7.16333443475973e-05, rel=1e-12)
    # doubling the sample at (r, p) = (3, 1) and (3, 2)
    assert extrapolate_lambda(1e-3, 1190, 595, 3.0, 1.0) == pytest.approx(
        5.946035575013605e-04, rel=1e-12)
    assert extrapolate_lambda(1e-3, 1190, 595, 3.0, 2.0) == pytest.approx(
        7.429971445684742e-04, rel=1e-12)
    with pytest.raises(InputError):
        extrapolate_lambda(1e-3, 100, 200, 3.0, 1.0)


def test_extrapolated_lambda_monotone_in_n():
    values = [extrapolate_lambda(1e-3, n, 595, 3.0, 1.0)
              for n in (595, 1000, 5000, 20000, 10**6)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_config_validation():
    with pytest.raises(InputError):
        AspConfig(b_coef=0.0)
    with pytest.raises(InputError):
        AspConfig(b_max_coef=10.0)
    with pytest.raises(InputError):
        AspConfig(n_sizes=1)
    with pytest.raises(InputError):
        AspConfig(p_default=3.0)
    with pytest.raises(InputError):
        AspConfig(b_factor=0.5)
    for name in ("b_coef", "b_max_coef", "b_factor", "r_default", "p_default",
                 "order_c", "basis_coef", "basis_exp"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InputError, match=f"^{name} must be finite"):
                AspConfig(**{name: value})
    # finiteness is the only new rule: a zero order constant stays accepted
    assert AspConfig(order_c=0.0).order_c == 0.0


def test_fit_rate_recovers_noiseless_law():
    sizes = np.array([300, 420, 580, 810, 1130, 1580])
    for c_true, gamma_true in ((0.37, 0.6), (1e-2, 0.75)):
        lams = c_true * sizes.astype(float) ** (-gamma_true)
        fit = fit_rate(sizes, lams)
        assert fit.c == pytest.approx(c_true, rel=1e-6)
        assert fit.gamma == pytest.approx(gamma_true, abs=1e-6)
        assert not fit.clamped
        assert fit.rss < 1e-18


def test_fit_rate_representative_orders():
    sizes = np.array([300.0, 600.0, 1200.0])
    # gamma = 0.6 sits inside the r = 3 band
    fit = fit_rate(sizes, 0.5 * sizes ** -0.6)
    assert fit.r == 3.0
    assert fit.p == pytest.approx(1.0 / 0.6 - 1.0 / 3.0, abs=1e-9)
    # gamma = 0.75 is the p = 1 edge of that band
    fit = fit_rate(sizes, 0.5 * sizes ** -0.75)
    assert (fit.r, fit.p) == (3.0, pytest.approx(1.0, abs=1e-9))
    # gamma = 0.9 forces p = 1 with r solved from the level set
    fit = fit_rate(sizes, 0.5 * sizes ** -0.9)
    assert fit.p == 1.0
    assert fit.r == pytest.approx(0.9 / 0.1, rel=1e-9)
    # gamma = 0.4 forces p = 2
    fit = fit_rate(sizes, 0.5 * sizes ** -0.4)
    assert fit.p == 2.0
    assert fit.r == pytest.approx(0.4 / 0.2, rel=1e-9)


def test_fit_rate_clamps_gamma():
    sizes = np.array([300.0, 600.0, 1200.0])
    fit = fit_rate(sizes, 5.0 * sizes ** -0.1)
    assert fit.clamped
    assert fit.gamma == pytest.approx(1.0 / 3.0, rel=1e-15)
    # the constant is refit at the clamped slope
    log_c = np.mean(np.log(5.0 * sizes ** -0.1) + fit.gamma * np.log(sizes))
    assert fit.c == pytest.approx(np.exp(log_c), rel=1e-12)
    assert fit.p == 2.0
    fit = fit_rate(sizes, sizes ** -2.0)
    assert fit.clamped
    assert fit.gamma == pytest.approx(1.0 - 1e-6, rel=1e-12)
    assert fit.p == 1.0


def test_fit_rate_input_validation():
    with pytest.raises(InputError):
        fit_rate([300.0], [1e-3])
    with pytest.raises(InputError):
        fit_rate([300.0, 600.0], [1e-3, -1e-3])


def test_log_median_aggregation_resists_corruption():
    lams = [9.0e-4, 9.5e-4, 1.0e-3, 1.05e-3, 1.1e-3]
    thetas = [(1.0, 2.0)] * 5
    fits = [SubsampleFit(size=100, lam=l, theta=t, score=1.0, converged=True)
            for l, t in zip(lams, thetas)]
    clean_lam, clean_theta = _aggregate(fits)
    corrupted = list(fits)
    corrupted[4] = SubsampleFit(size=100, lam=lams[4] * 1e6,
                                theta=(1e6, 2e6), score=1.0, converged=True)
    lam, theta = _aggregate(corrupted)
    assert 9.0e-4 <= lam <= 1.1e-3
    assert lam == clean_lam
    assert theta == clean_theta


def test_asp_uniform_structure_and_identity():
    data, spec = sine_dataset(400, seed=3)
    res = asp_uniform(data, spec, FAST)
    assert res.method == "asp-u"
    assert res.r == 3.0
    assert res.p in (1.0, 2.0)
    assert res.subsample_size == subsample_size(400, FAST, spec.null_dim)
    assert len(res.fits) == FAST.n_subsamples
    assert all(f.size == res.subsample_size for f in res.fits)
    # the extrapolation identity holds exactly in the reported fields
    assert res.lambda_full == extrapolate_lambda(
        res.lambda_sub, data.n, res.subsample_size, res.r, res.p)
    assert res.params.nlam == pytest.approx(data.n * res.lambda_full, rel=1e-12)
    assert res.params.theta == pytest.approx(res.theta, rel=1e-12)
    assert res.seconds > 0


def test_asp_uniform_deterministic():
    data, spec = sine_dataset(400, seed=5)
    a = asp_uniform(data, spec, FAST)
    b = asp_uniform(data, spec, FAST)
    assert a.lambda_full == b.lambda_full
    assert a.theta == b.theta
    assert a.p == b.p
    assert a.fits == b.fits


@pytest.mark.parametrize("scale", [1e-4, 1e4])
def test_asp_uniform_invariant_to_response_scale(scale):
    """y -> a y moves neither nlam nor theta: every subsample search and
    the p estimate see the same scores up to the factor a^2."""
    data = gen_data("m1", 2000, snr=5.0, seed=0).dataset
    spec = SCENARIOS["m1"].spec
    base = asp_uniform(data, spec, AspConfig(jobs=1))
    scaled = asp_uniform(Dataset(x=data.x, y=scale * data.y, domains=data.domains), spec,
                         AspConfig(jobs=1))
    assert scaled.p == base.p
    assert scaled.params.log10_nlam == pytest.approx(base.params.log10_nlam, abs=1e-8)
    np.testing.assert_allclose(scaled.params.log10_theta, base.params.log10_theta,
                               rtol=0.0, atol=1e-8)


def test_asp_uniform_aggregates_medians_of_logs():
    data, spec = sine_dataset(400, seed=11)
    res = asp_uniform(data, spec, FAST)
    assert res.lambda_sub == pytest.approx(
        np.exp(np.median(np.log([f.lam for f in res.fits]))), rel=1e-12)
    theta_mat = np.log([f.theta for f in res.fits])
    assert res.theta == pytest.approx(
        np.exp(np.median(theta_mat, axis=0)), rel=1e-12)


def test_estimate_p_tie_goes_to_one():
    data, spec = sine_dataset(200, seed=2)
    cfg = AspConfig(b_factor=1.0, jobs=1, seed=1)
    # B = b makes both candidate lambdas identical, so the tie rule decides
    assert estimate_p(data, spec, 1e-3, (1.0,), 150, cfg) == 1


def test_asp_uniform_skips_p_estimation_when_b_equals_n():
    data, spec = sine_dataset(60, seed=4)
    cfg = AspConfig(b_coef=50.0, n_subsamples=3, gcv_max_iter=5, jobs=1, seed=7,
                    p_default=2.0)
    assert subsample_size(60, cfg, spec.null_dim) == 60
    res = asp_uniform(data, spec, cfg)
    assert res.p == 2.0


def test_asp_asymptotic_structure():
    data, spec = sine_dataset(400, seed=9)
    cfg = AspConfig(b_coef=15.0, b_max_coef=40.0, n_sizes=4, n_subsamples=2,
                    gcv_max_iter=6, jobs=1, seed=13)
    res = asp_asymptotic(data, spec, cfg)
    assert res.method == "asp-a"
    assert isinstance(res.rate, RateFit)
    assert 1.0 / 3.0 <= res.rate.gamma < 1.0
    assert res.lambda_full == res.rate.c * 400.0 ** (-res.rate.gamma)
    sizes = sorted({f.size for f in res.fits})
    assert len(sizes) >= 2
    assert res.subsample_size == sizes[-1]
    # theta comes from the largest size only
    top = [f for f in res.fits if f.size == sizes[-1]]
    theta_mat = np.log([f.theta for f in top])
    assert res.theta == pytest.approx(np.exp(np.median(theta_mat, axis=0)), rel=1e-12)


def test_asp_asymptotic_deterministic():
    data, spec = sine_dataset(400, seed=17)
    cfg = AspConfig(b_coef=15.0, b_max_coef=40.0, n_sizes=3, n_subsamples=2,
                    gcv_max_iter=5, jobs=1, seed=23)
    a = asp_asymptotic(data, spec, cfg)
    b = asp_asymptotic(data, spec, cfg)
    assert a.lambda_full == b.lambda_full
    assert a.theta == b.theta
    assert a.rate == b.rate


ASP_A_SMALL = AspConfig(b_coef=15.0, b_max_coef=40.0, n_sizes=4, n_subsamples=2,
                        gcv_max_iter=5, jobs=1, seed=23)


def test_asp_asymptotic_pool_matches_serial(monkeypatch):
    """One pool fits the whole ladder, with the serial path's draws and fits.

    With one CPU reported, the serial path and each pool worker run one BLAS
    thread, so the fits agree bit for bit.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    data, spec = sine_dataset(400, seed=17)
    serial = asp_asymptotic(data, spec, ASP_A_SMALL)
    pooled = asp_asymptotic(data, spec, replace(ASP_A_SMALL, jobs=2))
    assert len(serial.fits) == ASP_A_SMALL.n_sizes * ASP_A_SMALL.n_subsamples
    assert pooled.fits == serial.fits
    assert pooled.params == serial.params
    assert pooled.rate == serial.rate


def test_asp_asymptotic_flags_and_skips_a_dropped_size(monkeypatch):
    data, spec = sine_dataset(400, seed=9)
    full = asp_asymptotic(data, spec, ASP_A_SMALL)
    sizes = sorted({f.size for f in full.fits})
    assert len(sizes) >= 3
    lost = sizes[1]
    fit_one = asp._fit_subsample
    monkeypatch.setattr(asp, "_fit_subsample",
                        lambda job: None if job[0].n == lost else fit_one(job))
    res = asp_asymptotic(data, spec, ASP_A_SMALL)
    assert f"subsamples-dropped:{lost}:{ASP_A_SMALL.n_subsamples}" in res.flags
    # the other sizes keep their own draws, and the rate leaves the lost size out
    assert res.fits == tuple(f for f in full.fits if f.size != lost)
    kept = [b for b in sizes if b != lost]
    lams = [_aggregate([f for f in full.fits if f.size == b])[0] for b in kept]
    assert res.rate == fit_rate(kept, lams)


def test_asp_uniform_flags_dropped_subsamples(monkeypatch):
    data, spec = sine_dataset(400, seed=8)
    full = asp_uniform(data, spec, FAST)
    seen = []
    fit_one = asp._fit_subsample

    def drop_first(job):
        seen.append(job)
        return None if len(seen) == 1 else fit_one(job)

    monkeypatch.setattr(asp, "_fit_subsample", drop_first)
    res = asp_uniform(data, spec, FAST)
    assert "subsamples-dropped:1" in res.flags
    assert res.fits == full.fits[1:]


def rare_level_dataset(n=2000, seed=3):
    """Continuous x 4-level data whose fourth level holds 0.1% of the rows."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(size=n)
    level = rng.integers(1, 4, size=n).astype(float)
    level[rng.choice(n, size=n // 1000, replace=False)] = 4.0
    y = np.sin(2 * np.pi * x1) + 0.3 * level + 0.2 * rng.standard_normal(n)
    domains = (PredictorDomain.continuous(), PredictorDomain.discrete(4))
    return Dataset(x=np.column_stack([x1, level]), y=y, domains=domains)


@pytest.mark.parametrize("selector", [gcv_select, asp_uniform, asp_asymptotic])
def test_selectors_survive_a_rare_discrete_level(selector, monkeypatch):
    data = rare_level_dataset()
    spec = full_two_way_model(data.domains)
    subsamples = []
    fit_one = asp._fit_subsample

    def record(job):
        subsamples.append(job[0])
        return fit_one(job)

    monkeypatch.setattr(asp, "_fit_subsample", record)
    cfg = AspConfig(n_sizes=3, n_subsamples=2, gcv_max_iter=4, jobs=1, seed=2)
    res = selector(data, spec, cfg)
    assert np.isfinite(res.params.log10_nlam)
    assert np.isfinite(res.params.log10_theta).all()
    if subsamples:
        # the rare level is missing from some subsample, which still fits
        assert any((sub.x[:, 1] != 4.0).all() for sub in subsamples)
        assert not any("subsamples-dropped" in flag for flag in res.flags)


@pytest.mark.parametrize("selector", [gcv_select, skip_selection, asp_uniform,
                                      order_selection])
def test_selectors_on_a_discrete_only_model(selector):
    """A model of one discrete predictor has a shrinkage term and no spline.

    Open question, not decided here: whether asp-u should carry the spline
    rate law over to a shrinkage-only term, as it does today.
    """
    rng = np.random.default_rng(4)
    level = rng.integers(1, 6, size=600).astype(float)
    means = np.array([0.0, 0.5, -0.3, 1.0, 0.2])
    y = means[level.astype(int) - 1] + 0.3 * rng.standard_normal(600)
    domains = (PredictorDomain.discrete(5),)
    data = Dataset(x=level[:, None], y=y, domains=domains)
    cfg = AspConfig(n_subsamples=2, gcv_max_iter=4, jobs=1, seed=2)
    res = selector(data, main_effects_model(domains), cfg)
    assert np.isfinite(res.params.log10_nlam)
    assert np.isfinite(res.params.log10_theta).all()


def test_full_sample_wrappers():
    data, spec = sine_dataset(300, seed=21)
    cfg = AspConfig(jobs=1, seed=3, gcv_max_iter=8)
    g = gcv_select(data, spec, cfg)
    s = skip_selection(data, spec, cfg)
    o = order_selection(data, spec, cfg)
    assert (g.method, s.method, o.method) == ("gcv", "skip", "order")
    for res in (g, s, o):
        assert res.lambda_full > 0
        assert res.n == 300
        assert res.params.nlam == pytest.approx(300 * res.lambda_full, rel=1e-12)
    assert o.lambda_full == order_based(300, cfg.r_default, cfg.p_default)


def test_order_selection_uses_trace_normalized_theta():
    rng = np.random.default_rng(31)
    x = rng.uniform(size=(250, 2))
    y = np.sin(2 * np.pi * x[:, 0]) + x[:, 1] + 0.1 * rng.standard_normal(250)
    domains = unit_domains(2)
    data = Dataset.from_raw(x, y, domains)
    spec = main_effects_model(domains)
    cfg = AspConfig(jobs=1, seed=5)
    res = order_selection(data, spec, cfg)
    from spanova.solver import assemble_blocks, basis_count, select_basis
    basis = select_basis(250, basis_count(250), seed=cfg.seed)
    blocks = assemble_blocks(data, spec, basis)
    assert res.theta == pytest.approx(1.0 / blocks.part_traces, rel=1e-12)


def test_order_selection_checks_inputs_without_kernel_blocks(monkeypatch):
    from spanova.kernels import full_two_way_model

    rng = np.random.default_rng(6)
    x = np.column_stack([rng.uniform(size=60), np.full(60, 0.5)])
    spec = full_two_way_model(unit_domains(2))
    data = Dataset(x=x, y=rng.standard_normal(60), domains=spec.domains)
    # a constant predictor duplicates the intercept column
    with pytest.raises(InputError, match="rank deficient"):
        order_selection(data, spec, AspConfig(jobs=1))

    def no_blocks(*args):
        raise AssertionError("order_selection assembled kernel blocks")

    monkeypatch.setattr(asp, "assemble_blocks", no_blocks)
    data, spec = sine_dataset(250, seed=5)
    assert order_selection(data, spec, AspConfig(jobs=1)).theta[0] > 0


@pytest.mark.parametrize("selector", [gcv_select, skip_selection, asp_uniform,
                                      asp_asymptotic])
def test_selectors_reject_constant_response(selector, monkeypatch):
    """A constant y has no smoothing parameter to select; the check runs
    before any kernel block is assembled."""
    data = gen_data("m1", 2000, snr=5.0, seed=0).dataset
    data = Dataset(x=data.x, y=np.full(data.n, 3.0), domains=data.domains)

    def no_blocks(*args):
        raise AssertionError("kernel blocks assembled for a constant response")

    monkeypatch.setattr(asp, "assemble_blocks", no_blocks)
    with pytest.raises(InputError, match="response is constant"):
        selector(data, SCENARIOS["m1"].spec, AspConfig(jobs=1))


def test_subsample_jobs_carry_only_their_rows(monkeypatch):
    data, spec = sine_dataset(400, seed=8)
    seen = []
    fit_one = asp._fit_subsample

    def record(job):
        seen.append(job)
        return fit_one(job)

    monkeypatch.setattr(asp, "_fit_subsample", record)
    res = asp_uniform(data, spec, FAST)
    b = res.subsample_size
    assert len(seen) == FAST.n_subsamples
    for k, (sub, _, basis, _) in enumerate(seen):
        rng = derive_rng(FAST.seed, 21, k)
        rows = np.sort(rng.choice(data.n, size=b, replace=False))
        np.testing.assert_array_equal(sub.x, data.x[rows])
        np.testing.assert_array_equal(sub.y, data.y[rows])
        assert basis.indices.max() < b


def test_asp_uniform_pool_matches_serial():
    data = gen_data("m1", 500, snr=5.0, seed=19).dataset
    spec = SCENARIOS["m1"].spec
    cfg = AspConfig(n_subsamples=3, gcv_max_iter=4, seed=29, jobs=1)
    serial = asp_uniform(data, spec, cfg)
    pooled = asp_uniform(data, spec, replace(cfg, jobs=2))
    assert len(pooled.fits) == len(serial.fits)
    assert pooled.params.log10_nlam == pytest.approx(serial.params.log10_nlam, abs=1e-8)
    np.testing.assert_allclose(np.log10(pooled.theta), np.log10(serial.theta),
                               rtol=0.0, atol=1e-8)


def _blas_thread_counts(raise_to=None):
    """Thread count of each loaded OpenBLAS copy, after an optional cap."""
    if raise_to is not None:
        asp._cap_blas_threads(raise_to)
    return {name: getter() for name, (getter, _) in asp._openblas_thread_controls().items()}


@pytest.mark.skipif(not asp._openblas_thread_controls(),
                    reason="no OpenBLAS copy exports scipy_openblas_set_num_threads64_"
                           " or scipy_openblas_set_num_threads")
def test_pool_workers_cap_blas_threads():
    workers = 2
    cap = max(1, (os.cpu_count() or 1) // workers)
    parent = _blas_thread_counts()
    with asp._subsample_pool(workers) as pool:
        capped = pool.submit(_blas_thread_counts).result(timeout=60)
        # a cap above the current count never raises it
        kept = pool.submit(_blas_thread_counts, cap + 64).result(timeout=60)
    assert set(capped) == set(parent)
    assert all(count <= cap for count in capped.values()), capped
    assert kept == capped
    assert _blas_thread_counts() == parent


def _thread_count():
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not asp._openblas_thread_controls()
                    or not os.path.isdir("/proc/self/task")
                    or multiprocessing.get_start_method() != "fork",
                    reason="needs OpenBLAS thread controls, /proc and forked workers")
def test_forked_pool_workers_start_no_blas_threads(monkeypatch):
    """Workers inherit the caller's cap instead of restarting OpenBLAS's
    thread server, whose new threads would spin against the fits."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # 2 workers, one BLAS thread each
    parent = _blas_thread_counts()
    with asp._capped_blas_threads(asp._pool_blas_threads(2)), asp._subsample_pool(2) as pool:
        assert pool.submit(_thread_count).result(timeout=60) == 1
        assert all(count == 1 for count in pool.submit(_blas_thread_counts).result(timeout=60).values())
    assert _blas_thread_counts() == parent


def test_fit_rate_slope_standard_error_closed_form():
    """log b = 0, 1, 2 and log lambda = 0, -0.5 + e, -1: slope 0.5, residuals
    (-e, 2e, -e)/3, so se = sqrt((2 e^2 / 3) / 1 / 2) = e / sqrt(3)."""
    e = 0.3
    fit = fit_rate(np.exp([0.0, 1.0, 2.0]), np.exp([0.0, -0.5 + e, -1.0]))
    assert fit.gamma == pytest.approx(0.5, abs=1e-12)
    assert fit.gamma_se == pytest.approx(e / np.sqrt(3.0), rel=1e-12)
    # the unclamped slope's error, also when the clamp binds
    sizes = np.array([300.0, 420.0, 580.0, 810.0, 1130.0])
    lams = 5.0 * sizes ** -0.1 * np.exp([0.02, -0.01, 0.03, -0.04, 0.01])
    clamped = fit_rate(sizes, lams)
    x, y = np.log(sizes), np.log(lams)
    slope, icept = np.polyfit(x, y, 1)
    resid = y - (icept + slope * x)
    want = np.sqrt(resid @ resid / 3.0 / ((x - x.mean()) @ (x - x.mean())))
    assert clamped.clamped and clamped.gamma_se == pytest.approx(want, rel=1e-9)
    assert fit_rate([300.0, 600.0], [1e-3, 6e-4]).gamma_se is None


def test_asp_uniform_reports_subsample_boundary_hits():
    """On 14 rows of m1 every subsample is the whole sample; gcv ends on the
    nlam boundary, and so does each of asp-u's searches, which says so."""
    sim = gen_data("m1", 14, 5.0, seed=2)
    spec = SCENARIOS["m1"].spec
    cfg = AspConfig(jobs=1)
    full = gcv_select(sim.dataset, spec, cfg)
    assert "lambda-boundary" in full.flags
    res = asp_uniform(sim.dataset, spec, cfg)
    assert res.params.log10_nlam == pytest.approx(full.params.log10_nlam, abs=1e-12)
    assert all("lambda-boundary" in f.flags for f in res.fits)
    assert f"subsample-lambda-boundary:{cfg.n_subsamples}" in res.flags
    assert res.dropped == ()


def test_dropped_subsamples_keep_their_exception_text(monkeypatch):
    from spanova.util import NumericalError

    data, spec = sine_dataset(400, seed=8)
    calls = []
    real = asp.full_gcv

    def fail_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalError("no luck")
        return real(*args, **kwargs)

    monkeypatch.setattr(asp, "full_gcv", fail_first)
    res = asp_uniform(data, spec, FAST)
    b = subsample_size(400, FAST)
    assert "subsamples-dropped:1" in res.flags
    assert res.dropped == (f"b={b}: NumericalError: no luck",)
