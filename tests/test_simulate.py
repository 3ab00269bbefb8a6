import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from spanova import asp, simulate
from spanova.asp import AspConfig
from spanova.simulate import (
    SCENARIOS,
    analytic_lambda_periodic,
    gen_data,
    get_scenario,
    loss,
    oracle_lambda,
    oracle_lambda_midgrid,
    relative_efficacy,
    run_benchmark,
    scenario_eval,
)
from spanova.util import InputError


def test_registry_dimensions_and_spec_sizes():
    expected = {
        # identifier: (dimension, penalized terms, null columns)
        "u1": (1, 1, 2),
        "u2": (1, 1, 2),
        "u3": (1, 1, 2),
        "m1": (2, 5, 4),
        "m2": (3, 3, 4),
        "m3": (3, 7, 4),
        "m4": (18, 87, 34),
    }
    assert set(SCENARIOS) == set(expected)
    for ident, (d, s, m) in expected.items():
        scn = get_scenario(ident)
        assert scn.dimension == d
        assert scn.spec.n_penalized == s
        assert scn.spec.null_dim == m


def test_scenario_eval_spot_values():
    assert scenario_eval("u2", [0.75]) == 0.0
    assert scenario_eval("u2", [0.25]) == pytest.approx(10.0, rel=1e-12)
    assert scenario_eval("u3", [0.2]) == 0.0
    assert scenario_eval("u3", [0.5]) == pytest.approx(0.0, abs=1e-12)
    # above 3/4 the second piece subtracts from the first ramp
    assert scenario_eval("u3", [0.8]) == pytest.approx(
        10.0 * 0.3 + 2.0 * (-0.05), rel=1e-12)
    assert scenario_eval("m2", (0.5, 0.0, 0.0)) == pytest.approx(11.0, rel=1e-14)


def test_scenario_eval_u1_is_beta_mixture():
    x = np.linspace(0.0, 1.0, 11)
    got = scenario_eval("u1", x[:, None])
    want = (beta_dist.pdf(x, 20, 5) + beta_dist.pdf(x, 12, 12)
            + beta_dist.pdf(x, 7, 30)) / 3.0
    assert got == pytest.approx(want, rel=1e-12)


def test_scenario_eval_m1_peak_structure():
    # near the first bump center the first term dominates
    val = scenario_eval("m1", (0.2, 0.3))
    first = 0.75 / (np.pi * 0.3 * 0.4)
    second = 0.45 / (np.pi * 0.3 * 0.4) * np.exp(-0.25 / 0.09 - 0.25 / 0.16)
    assert val == pytest.approx(first + second, rel=1e-12)


def test_scenario_eval_m3_hand_value():
    val = scenario_eval("m3", (0.25, 0.5, 0.75))
    want = 10 * 0.5 + 10 * np.sin(np.pi * 0.25) + 5 * np.cos(2 * np.pi * (-0.25))
    assert val == pytest.approx(want, rel=1e-12)


def test_scenario_eval_m4_block_sums():
    # at the origin only the nine pairwise exponentials contribute
    assert scenario_eval("m4", np.zeros(18)) == pytest.approx(9.0, rel=1e-12)
    row = np.full(18, 0.5)
    g1 = 1e6 * 0.5**17
    g2 = np.exp(3 * 0.25)
    g3 = 15.0 * np.sin(np.pi) / (2.0 - np.sin(np.pi * 0.5))
    assert scenario_eval("m4", row) == pytest.approx(
        18 * g1 + 9 * g2 + 6 * g3, rel=1e-12)


def test_scenario_eval_validation():
    with pytest.raises(InputError):
        scenario_eval("u9", [0.5])
    with pytest.raises(InputError):
        scenario_eval("m1", [0.5])
    with pytest.raises(InputError):
        scenario_eval("u2", [1.5])


def test_gen_data_noise_calibration():
    sim = gen_data("u2", 100000, snr=2.0, seed=4)
    resid = sim.dataset.y - sim.eta
    assert np.std(resid) / np.std(sim.eta) == pytest.approx(0.5, rel=0.02)
    assert sim.sigma == pytest.approx(np.std(sim.eta, ddof=1) / 2.0, rel=1e-12)
    assert np.all(sim.dataset.x >= 0.0) and np.all(sim.dataset.x <= 1.0)
    assert abs(sim.dataset.x.mean() - 0.5) < 0.01


def test_gen_data_high_snr_recovers_truth():
    sim = gen_data("u1", 500, snr=1e9, seed=1)
    assert np.max(np.abs(sim.dataset.y - sim.eta)) < 1e-6 * np.std(sim.eta)


def test_gen_data_deterministic():
    a = gen_data("m1", 200, snr=5.0, seed=9)
    b = gen_data("m1", 200, snr=5.0, seed=9)
    assert np.array_equal(a.dataset.x, b.dataset.x)
    assert np.array_equal(a.dataset.y, b.dataset.y)
    assert a.sigma == b.sigma


def test_gen_data_validation():
    with pytest.raises(InputError):
        gen_data("u1", 5, snr=1.0)
    with pytest.raises(InputError):
        gen_data("u1", 100, snr=0.0)
    # nan used to reach the data as non-finite y, and inf to draw noiseless data
    for snr in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="snr must be positive and finite"):
            gen_data("u1", 100, snr=snr)


def test_loss_hand_values():
    assert loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert loss([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]) == 1.0
    assert loss([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == pytest.approx(4.0 / 3.0, rel=1e-15)
    with pytest.raises(InputError):
        loss([1.0, 2.0], [1.0, 2.0, 3.0])


def test_relative_efficacy_identities():
    true = np.zeros(4)
    bench = np.array([1.0, -1.0, 1.0, -1.0])
    re, log_re = relative_efficacy(bench, bench, true)
    assert (re, log_re) == (1.0, 0.0)
    re, log_re = relative_efficacy(2.0 * bench, bench, true)
    assert re == pytest.approx(4.0, rel=1e-14)
    assert log_re == pytest.approx(np.log(4.0), rel=1e-14)
    with pytest.raises(InputError):
        relative_efficacy(bench, true, true)


def _cubic_design(n):
    x = (np.arange(n) + 0.5) / n
    t = np.column_stack([np.ones(n), x - 0.5])
    from spanova.kernels import eval_bernoulli
    k = (np.outer(eval_bernoulli(2, x), eval_bernoulli(2, x))
         - eval_bernoulli(4, np.abs(np.subtract.outer(x, x))))
    return x, t, k


def test_oracle_lambda_no_noise_prefers_no_smoothing():
    x, t, k = _cubic_design(120)
    eta = np.sin(2 * np.pi * x)
    grid = np.logspace(-9, -1, 60)
    res = oracle_lambda(t, k, eta, sigma=0.0, lam_grid=grid)
    assert res.lam == grid[0]
    assert res.boundary


def test_oracle_lambda_parametric_truth_prefers_max_smoothing():
    x, t, k = _cubic_design(120)
    eta = 1.0 + 2.0 * (x - 0.5)
    grid = np.logspace(-9, -1, 60)
    res = oracle_lambda(t, k, eta, sigma=0.5, lam_grid=grid)
    assert res.lam == grid[-1]
    assert res.boundary


def test_oracle_lambda_interior_minimum_beats_neighbors():
    x, t, k = _cubic_design(300)
    eta = np.sin(2 * np.pi * x)
    grid = np.logspace(-9, -1, 200)
    res = oracle_lambda(t, k, eta, sigma=0.5, lam_grid=grid)
    assert not res.boundary
    i = int(np.argmin(res.risks))
    assert res.risks[i] <= res.risks[i - 1]
    assert res.risks[i] <= res.risks[i + 1]


def test_oracle_grid_validation():
    x, t, k = _cubic_design(50)
    with pytest.raises(InputError):
        oracle_lambda(t, k, np.sin(x), 0.5, [1e-3])
    with pytest.raises(InputError):
        oracle_lambda(t, k, np.sin(x), 0.5, [1e-3, 1e-4])


def test_midgrid_oracle_matches_dense():
    grid = np.logspace(-9, -1, 200)
    eta_fn = lambda x: np.sin(2 * np.pi * x)
    for n in (400, 700):
        x, t, k = _cubic_design(n)
        dense = oracle_lambda(t, k, eta_fn(x), 0.5, grid)
        fast = oracle_lambda_midgrid(n, eta_fn, 0.5, grid, n_eigs=120)
        assert fast.lam == dense.lam
        assert np.max(np.abs(fast.risks - dense.risks) / dense.risks) < 1e-3


def test_analytic_lambda_constant_and_scaling():
    # quartic integral has the closed form 3 pi sqrt(2)/16
    from spanova.simulate import _spectral_constant
    assert _spectral_constant(2) == pytest.approx(3.0 / (8.0 * np.sqrt(2.0)), rel=1e-8)
    norm = (2 * np.pi) ** 8 / 2.0
    base = analytic_lambda_periodic(2, 0.25, norm, 4096)
    assert base > 0
    # doubling sigma^2 scales lambda by 2^{4/9}
    assert analytic_lambda_periodic(2, 0.5, norm, 4096) == pytest.approx(
        base * 2.0 ** (4.0 / 9.0), rel=1e-12)
    # doubling n scales lambda by 2^{-4/9}
    assert analytic_lambda_periodic(2, 0.25, norm, 8192) == pytest.approx(
        base * 2.0 ** (-4.0 / 9.0), rel=1e-12)
    with pytest.raises(InputError):
        analytic_lambda_periodic(4, 0.25, norm, 100)
    with pytest.raises(InputError):
        analytic_lambda_periodic(2, 0.25, 0.0, 100)


FAST_BENCH = AspConfig(b_coef=15.0, n_subsamples=2, gcv_max_iter=6, jobs=1, seed=3)


def test_run_benchmark_rows_and_determinism():
    rows = run_benchmark("u2", 300, 5.0, ["asp-u", "order"], replicates=2,
                         seed=11, config=FAST_BENCH)
    assert len(rows) == 6
    by_method = {}
    for r in rows:
        assert r.scenario == "u2" and r.n == 300 and r.snr == 5.0
        assert r.loss > 0 and np.isfinite(r.log_re)
        by_method.setdefault(r.method, []).append(r)
    assert set(by_method) == {"gcv", "asp-u", "order"}
    assert all(r.log_re == 0.0 for r in by_method["gcv"])
    again = run_benchmark("u2", 300, 5.0, ["asp-u", "order"], replicates=2,
                          seed=11, config=FAST_BENCH)
    # timing fields vary between runs; every numeric result must not
    key = lambda r: (r.scenario, r.n, r.snr, r.method, r.replicate, r.loss, r.log_re)
    assert [key(r) for r in rows] == [key(r) for r in again]


def test_run_benchmark_validation():
    with pytest.raises(InputError):
        run_benchmark("u2", 300, 5.0, ["nope"], replicates=1)
    with pytest.raises(InputError):
        run_benchmark("u2", 300, 5.0, ["order"], replicates=0)


def test_run_benchmark_capped_benchmark_iterations():
    rows = run_benchmark("u2", 300, 5.0, ["order"], replicates=1, seed=2,
                         config=FAST_BENCH, benchmark_max_iter=1)
    gcv_row = [r for r in rows if r.method == "gcv"][0]
    assert gcv_row.loss > 0


def test_selection_stays_in_grid_basin_on_hostile_replicate():
    """Regression: this draw once drove the theta scale to 1e16, boxing the
    nlam window onto the undersmoothed plateau and crashing the refit."""
    from spanova.asp import full_sample_basis, gcv_select
    from spanova.gcv import gcv_score
    from spanova.solver import SmoothingParams, assemble_blocks, fit_model
    from spanova.util import derive_rng

    spec = get_scenario("u2").spec
    rep_seed = int(derive_rng(2026, 81, 7).integers(2**31))
    data = gen_data("u2", 2000, 5.0, seed=rep_seed)
    cfg = AspConfig(seed=rep_seed, jobs=1)
    sel = gcv_select(data.dataset, spec, cfg)
    assert abs(float(np.mean(np.log10(sel.theta)))) < 1e-9
    basis = full_sample_basis(data.dataset.n, spec.null_dim, cfg)
    blocks = assemble_blocks(data.dataset, spec, basis)
    k, q = blocks.combine(sel.theta)
    sel_score = gcv_score(blocks.t, k, q, data.dataset.y, sel.params.nlam)
    grid_best = min(
        gcv_score(blocks.t, k, q, data.dataset.y, 10.0**lg)
        for lg in np.linspace(-12, 3, 61))
    assert sel_score <= grid_best * (1 + 1e-3)
    fit = fit_model(data.dataset, spec, sel.params, basis=basis)
    assert loss(fit.fitted, data.eta) < 0.02
    # the historical runaway parameters must at least fit without crashing
    runaway = SmoothingParams(-11.814, (16.760,))
    old = fit_model(data.dataset, spec, runaway, basis=basis)
    assert np.isfinite(old.fitted).all() and np.isfinite(old.gcv)


def test_run_benchmark_refits_build_no_per_term_blocks(monkeypatch):
    """Neither the searches nor the refits build per-term n-row blocks: the
    searches stream the rows and the refits form K(theta) from the basis,
    so every kernel block has at most COMPRESS_CHUNK rows."""
    from spanova import gcv, solver

    def forbidden(*args):
        raise AssertionError("run_benchmark assembled per-term blocks")

    for module in (asp, gcv, simulate, solver):
        monkeypatch.setattr(module, "assemble_blocks", forbidden, raising=False)
    block_rows = []
    real_grams = solver.term_grams

    def recording(terms, domains, x_rows, z_rows):
        block_rows.append(np.atleast_2d(x_rows).shape[0])
        return real_grams(terms, domains, x_rows, z_rows)

    monkeypatch.setattr(solver, "term_grams", recording)
    monkeypatch.setattr(solver, "COMPRESS_CHUNK", 64)
    records = run_benchmark("u2", 300, 5.0, ["order", "skip"], 1, config=AspConfig(jobs=1))
    assert [r.method for r in records] == ["gcv", "order", "skip"]
    assert block_rows and max(block_rows) <= 64
