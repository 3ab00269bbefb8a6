"""Full-sample selections stream the n rows: compressed chunk by chunk,
with no per-term n-row block, and the same selections as the blocks held
in memory."""

import dataclasses
import tracemalloc
import types

import numpy as np
import pytest

from spanova import gcv, solver
from spanova.asp import AspConfig, asp_uniform, full_sample_basis, gcv_select, skip_selection
from spanova.data import Dataset, unit_domains
from spanova.gcv import skip_search, skip_select
from spanova.kernels import main_effects_model
from spanova.simulate import SCENARIOS, gen_data
from spanova.solver import (
    BasisSelection,
    assemble_blocks,
    basis_count,
    compressed_blocks,
    part_traces,
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


def in_memory_compression(ds, spec, basis):
    """``compressed_blocks``' result from the blocks held in memory: their
    rows compressed by ``_compress_rows`` where p + 1 < n, and otherwise
    rotated, all S blocks in one array, by T's QR."""
    blocks = assemble_blocks(ds, spec, basis)
    s, q = blocks.n_penalized, blocks.q
    if solver.streams_rows(ds, spec, basis):
        t, k_parts, f = solver._compress_rows(
            lambda lo, hi: blocks.t[lo:hi], lambda lo, hi: (kp[lo:hi] for kp in blocks.k_parts),
            ds.y, blocks.n_null, s, q)
        return dataclasses.replace(blocks, t=t, k_parts=k_parts, y=f)
    null = solver.NullQR(blocks.t)
    rotated = null.rotate(np.hstack(blocks.k_parts))
    k_parts = tuple(rotated[:, j * q:(j + 1) * q] for j in range(s))
    return dataclasses.replace(blocks, t=null.triangle(), k_parts=k_parts, y=null.rotate(ds.y))


@pytest.mark.parametrize("chunk", [7, 40, 2048])
@pytest.mark.parametrize("problem", ["u2", "m1", "m2", "tied"])
def test_streamed_blocks_equal_in_memory_compression(monkeypatch, problem, chunk):
    """300 rows (120 tied) leave a partial last chunk at every size but the
    largest, which takes them in one."""
    monkeypatch.setattr(solver, "COMPRESS_CHUNK", chunk)
    ds, spec, basis = tied_problem() if problem == "tied" else scenario_problem(problem, 300)
    want = in_memory_compression(ds, spec, basis)
    got = compressed_blocks(ds, spec, basis)
    assert got.n == spec.null_dim + spec.n_penalized * basis.q + 1 < ds.n
    assert np.array_equal(got.t, want.t)
    assert len(got.k_parts) == len(want.k_parts)
    assert all(np.array_equal(a, b) for a, b in zip(got.k_parts, want.k_parts))
    assert all(np.array_equal(a, b) for a, b in zip(got.q_parts, want.q_parts))
    assert np.array_equal(got.y, want.y)
    assert got.n_obs == want.n_obs == ds.n


def test_builder_rotates_in_memory_blocks_when_p_reaches_n():
    """m4's 87 penalized terms give p = M + S q far above n: the blocks are
    rotated in place as they form, bit-identical to rotated copies."""
    ds, spec, basis = scenario_problem("m4", 300)
    want = in_memory_compression(ds, spec, basis)
    got = compressed_blocks(ds, spec, basis)
    assert got.n == want.n == 300 and got.n_obs == 300
    assert np.array_equal(got.t, want.t) and not np.tril(got.t, -1).any()
    assert all(np.array_equal(a, b) for a, b in zip(got.k_parts, want.k_parts))
    assert np.array_equal(got.y, want.y)


def in_memory_skip(ds, spec, basis):
    """``skip_search`` on [T, K(theta), y] combined from the n-row blocks
    held in memory and compressed there by ``_checked_design``."""
    blocks = assemble_blocks(ds, spec, basis)
    source = types.SimpleNamespace(
        design_at=lambda theta: solver._checked_design(blocks.t, *blocks.combine(theta), ds.y),
        q_parts=blocks.q_parts)
    return skip_search(source, part_traces(ds, spec))


@pytest.mark.parametrize("scenario", ["u2", "m1", "m2", "m4"])
def test_streamed_skip_matches_in_memory_skip(scenario):
    """skip streams its two (M + q + 1)-column compressions from the rows
    on every data shape and selects bit for bit what the blocks held in
    memory select.  2500 rows take two chunks; m4's 87 terms at 300 rows
    give p + 1 >= n, where ``compressed_blocks`` would not stream."""
    sim = gen_data(scenario, 300 if scenario == "m4" else 2500, 5.0, seed=4)
    spec, cfg = SCENARIOS[scenario].spec, AspConfig(jobs=1, seed=4)
    basis = full_sample_basis(sim.dataset.n, spec.null_dim, cfg)
    assert solver.streams_rows(sim.dataset, spec, basis) == (scenario != "m4")
    want = in_memory_skip(sim.dataset, spec, basis)
    got = skip_select(sim.dataset, spec, basis)
    assert got.params == want.params
    assert got.score == want.score and got.flags == want.flags
    assert skip_selection(sim.dataset, spec, cfg).params == want.params


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streamed_selections_equal_in_memory_path(monkeypatch, seed):
    """gcv and asp-u select bit for bit what the searches select on blocks
    held in memory and compressed there."""
    sim = gen_data("m1", 2500, 5.0, seed=seed)
    spec, cfg = SCENARIOS["m1"].spec, AspConfig(jobs=1, seed=seed)
    streamed = [select(sim.dataset, spec, cfg).params for select in (gcv_select, asp_uniform)]
    monkeypatch.setattr(gcv, "compressed_blocks", in_memory_compression)
    in_memory = [select(sim.dataset, spec, cfg).params for select in (gcv_select, asp_uniform)]
    assert streamed == in_memory


def test_compression_holds_its_stack_and_one_copy_of_r():
    """The chunked QR keeps R in its stack from chunk to chunk and copies it
    once at the end, so the traced peak stays below the
    (p + 1 + COMPRESS_CHUNK) x (p + 1) stack plus 1.75 (p + 1)^2 doubles;
    a per-chunk copy of R and per-block copies at the end took 2.43."""
    n, q = 3000, 160
    sim = gen_data("m1", n, 5.0, seed=0)
    spec = SCENARIOS["m1"].spec
    p1 = spec.null_dim + spec.n_penalized * q + 1
    stack = (p1 + min(solver.COMPRESS_CHUNK, n)) * p1
    tracemalloc.start()
    try:
        compressed_blocks(sim.dataset, spec, select_basis(n, q, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (stack + 1.75 * p1 * p1) * 8


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
