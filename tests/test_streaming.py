"""Full-sample selections stream the n rows: compressed chunk by chunk,
with no per-term n-row block, and the same selections as the blocks held
in memory."""

import tracemalloc

import numpy as np
import pytest

from spanova import asp, solver
from spanova.asp import AspConfig, asp_uniform, full_sample_basis, gcv_select, skip_selection
from spanova.data import Dataset, unit_domains
from spanova.gcv import skip_search, skip_select
from spanova.kernels import main_effects_model
from spanova.simulate import SCENARIOS, gen_data
from spanova.solver import (
    BasisSelection,
    DesignRows,
    assemble_blocks,
    basis_count,
    compressed_blocks,
    select_basis,
)


def tied_problem(n=120, q=16):
    """Two identical rows sit in the basis, so K'K is exactly singular."""
    rng = np.random.default_rng(33)
    x = rng.uniform(size=(n, 1))
    x[1, 0] = x[0, 0]
    y = np.sin(2 * np.pi * x[:, 0]) + 0.3 * rng.standard_normal(n)
    spec = main_effects_model(unit_domains(1))
    return Dataset(x=x, y=y, domains=spec.domains), spec, BasisSelection(indices=np.arange(q))


def scenario_problem(scenario, n, seed=0):
    sim = gen_data(scenario, n, 5.0, seed=seed)
    return sim.dataset, SCENARIOS[scenario].spec, select_basis(n, basis_count(n), seed=seed)


@pytest.mark.parametrize("chunk", [7, 40, 2048])
@pytest.mark.parametrize("problem", ["u2", "m1", "m2", "tied"])
def test_streamed_blocks_equal_in_memory_compression(monkeypatch, problem, chunk):
    """300 rows (120 tied) leave a partial last chunk at every size but the
    largest, which takes them in one."""
    monkeypatch.setattr(solver, "COMPRESS_CHUNK", chunk)
    ds, spec, basis = tied_problem() if problem == "tied" else scenario_problem(problem, 300)
    want, f_want = assemble_blocks(ds, spec, basis).compress(ds.y)
    got, f = compressed_blocks(ds, spec, basis)
    assert got.n == spec.null_dim + spec.n_penalized * basis.q < ds.n
    assert np.array_equal(got.t, want.t)
    assert len(got.k_parts) == len(want.k_parts)
    assert all(np.array_equal(a, b) for a, b in zip(got.k_parts, want.k_parts))
    assert all(np.array_equal(a, b) for a, b in zip(got.q_parts, want.q_parts))
    assert np.array_equal(got.part_traces, want.part_traces)
    assert np.array_equal(f, f_want)
    assert got.rss_offset == want.rss_offset and got.n_obs == want.n_obs == ds.n


def test_builder_rotates_in_memory_blocks_when_p_reaches_n():
    """m4's 87 penalized terms give p = M + S q far above n: the blocks are
    rotated in place as they form, bit-identical to rotated copies."""
    ds, spec, basis = scenario_problem("m4", 300)
    want, f_want = assemble_blocks(ds, spec, basis).compress(ds.y)
    got, f = compressed_blocks(ds, spec, basis)
    assert got.n == want.n == 300 and got.n_obs == 300 and got.rss_offset == 0.0
    assert np.array_equal(got.t, want.t) and not np.tril(got.t, -1).any()
    assert all(np.array_equal(a, b) for a, b in zip(got.k_parts, want.k_parts))
    assert np.array_equal(f, f_want)


@pytest.mark.parametrize("scenario", ["u2", "m1", "m2"])
def test_streamed_skip_matches_in_memory_skip(scenario):
    """Two streamed (M + q + 1)-column compressions score as the n rows do;
    2500 rows take two chunks."""
    sim = gen_data(scenario, 2500, 5.0, seed=4)
    spec, cfg = SCENARIOS[scenario].spec, AspConfig(jobs=1, seed=4)
    basis = full_sample_basis(sim.dataset.n, spec.null_dim, cfg)
    want = skip_select(assemble_blocks(sim.dataset, spec, basis), sim.dataset.y)
    rows = DesignRows(sim.dataset, spec, basis)
    got = skip_search(rows.design_at, rows.part_traces, rows.q_parts)
    assert got.score == pytest.approx(want.score, rel=1e-10)
    assert got.flags == want.flags
    selected = skip_selection(sim.dataset, spec, cfg).params
    for params in (got.params, selected):
        assert params.log10_nlam == pytest.approx(want.params.log10_nlam, abs=1e-10)
        np.testing.assert_allclose(params.log10_theta, want.params.log10_theta,
                                   rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streamed_selections_equal_in_memory_path(monkeypatch, seed):
    """gcv and asp-u select bit for bit what the searches select on blocks
    held in memory, which ``full_gcv`` compresses on entry."""
    sim = gen_data("m1", 2500, 5.0, seed=seed)
    spec, cfg = SCENARIOS["m1"].spec, AspConfig(jobs=1, seed=seed)
    streamed = [select(sim.dataset, spec, cfg).params for select in (gcv_select, asp_uniform)]
    monkeypatch.setattr(asp, "compressed_blocks",
                        lambda ds, spec, basis: (assemble_blocks(ds, spec, basis), ds.y))
    in_memory = [select(sim.dataset, spec, cfg).params for select in (gcv_select, asp_uniform)]
    assert streamed == in_memory


@pytest.mark.parametrize("selector", [gcv_select, skip_selection])
def test_full_sample_selections_hold_no_per_term_n_row_blocks(selector):
    """S n q doubles of per-term blocks are 74 MB here; the streamed
    selection's traced peak stays below half of that."""
    n = 20000
    sim = gen_data("m1", n, 5.0, seed=0)
    spec, cfg = SCENARIOS["m1"].spec, AspConfig(jobs=1)
    per_term = spec.n_penalized * n * full_sample_basis(n, spec.null_dim, cfg).q * 8
    tracemalloc.start()
    try:
        selector(sim.dataset, spec, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_term / 2
