"""T absorbed once: every stacked QR of a search factors only the K and y columns.

The references below factor the with-T stack [[T, K, y], [0, sqrt(nlam) L', 0]]
as the solver did before T was absorbed, so they check the complement-row
scores, profiles and searches against an independent evaluation.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from spanova import gcv, solver
from spanova.asp import AspConfig, full_sample_basis, gcv_select
from spanova.gcv import LambdaProfile, _exact_score, full_gcv
from spanova.simulate import SCENARIOS, gen_data
from spanova.solver import (
    CompiledDesign,
    assemble_blocks,
    basis_count,
    compressed_blocks,
    select_basis,
)

NLAMS = 10.0 ** np.arange(-8.0, 3.0)


def with_t_score(t, k, q, y, nlam, n_obs, rss_offset):
    """GCV score from one R-only QR of [[T, K, y], [0, sqrt(nlam) L', 0]]."""
    n, m = t.shape
    nq = k.shape[1]
    q_r = q + 1e-10 * np.trace(q) / nq * np.eye(nq)
    ell = np.linalg.cholesky(q_r)
    stack = np.zeros((n + nq, m + nq + 1))
    stack[:n, :m], stack[:n, m:m + nq], stack[:n, -1] = t, k, y
    stack[n:, m:m + nq] = np.sqrt(nlam) * ell.T
    r = sla.qr(stack, mode="r")[0][:m + nq]
    beta = sla.solve_triangular(r[:, :-1], r[:, -1])
    resid = y - t @ beta[:m] - k @ beta[m:]
    w = sla.solve_triangular(r[m:, m:-1], ell, trans="T")
    trace_a = m + nq - nlam * (w * w).sum()
    return ((resid @ resid + rss_offset) / n_obs) / ((n_obs - trace_a) / n_obs) ** 2


def problem(scenario, n, seed=0):
    sim = gen_data(scenario, n, 5.0, seed=seed)
    spec = SCENARIOS[scenario].spec
    basis = select_basis(n, basis_count(n), seed=seed)
    return sim.dataset, spec, basis


@pytest.mark.parametrize("scenario,n", [("u2", 1500), ("m1", 1500), ("m2", 1500), ("m4", 300)])
def test_absorbed_scores_match_with_t_stack(scenario, n):
    """The exact score and the profile equal the with-T stacked score, nlam
    from 1e-8 to 1e2: on the compressed rows of u2, m1 and m2, and on the
    caller's n rows of wide m4, whose blocks are rotated, not compressed."""
    ds, spec, basis = problem(scenario, n)
    blocks, f = compressed_blocks(ds, spec, basis)
    assert not np.tril(blocks.t, -1).any()
    theta = 10.0 ** np.random.default_rng(1).uniform(-1.0, 1.0, blocks.n_penalized)
    k, q = blocks.combine(theta)
    design = CompiledDesign(blocks.t, k, q, f, blocks.n_obs, blocks.rss_offset)
    profile = LambdaProfile(design)
    if scenario == "m4":
        assert blocks.n == n
        dense = assemble_blocks(ds, spec, basis)
        reference = (dense.t, dense.combine(theta)[0], q, ds.y)
    else:
        assert blocks.n < n
        reference = (blocks.t, k, q, f)
    for nlam in NLAMS:
        want = with_t_score(*reference, nlam, n, blocks.rss_offset)
        assert _exact_score(design, nlam) == pytest.approx(want, rel=1e-12)
        assert profile.score(np.log10(nlam)) == pytest.approx(want, rel=1e-12)


def search_problem(scenario="m1", n=1200, seed=3):
    """The rows of a search and the blocks ``full_gcv`` builds from them."""
    ds, spec, basis = problem(scenario, n, seed)
    return (ds, spec, basis), compressed_blocks(ds, spec, basis)


# m4's 87 coordinates include flat ones, where the sweep's curvature estimate
# (f+ - 2f + f-)/h^2 turns the trial scores' 1e-16 rounding into about 1e-9
# of log theta (measured: 1.3e-9 in 1 of 87 coordinates, the trials
# themselves agreeing to 9e-16).
@pytest.mark.parametrize("scenario,n,tol", [("m1", 1200, 1e-9), ("m2", 1200, 1e-9),
                                            ("m4", 300, 1e-8)])
def test_full_gcv_matches_with_t_trial_scores(monkeypatch, scenario, n, tol):
    """Every theta trial scores as the with-T stack does, and a search that
    scores its trials by the with-T stack lands on the same parameters."""
    rows, (blocks, f) = search_problem(scenario, n)
    real, real_trial = gcv._exact_score, gcv._trial
    latest = {}

    def recording(*args):
        # the design holds Q only ridged; the reference ridges the trial's Q itself
        latest["design"], latest["q"] = trial = real_trial(*args)
        return trial

    def reference(design, nlam):
        assert design is latest["design"]
        return with_t_score(blocks.t, design.k, latest["q"], f, nlam, design.n_obs,
                            design.rss_offset)

    def checked(design, nlam):
        got = real(design, nlam)
        assert got == pytest.approx(reference(design, nlam), rel=1e-12)
        return got

    monkeypatch.setattr(gcv, "_trial", recording)
    monkeypatch.setattr(gcv, "_exact_score", checked)
    want = full_gcv(*rows, max_iter=3)
    monkeypatch.setattr(gcv, "_exact_score", reference)
    got = full_gcv(*rows, max_iter=3)
    assert got.params.log10_nlam == pytest.approx(want.params.log10_nlam, abs=tol)
    np.testing.assert_allclose(got.params.log10_theta, want.params.log10_theta, rtol=0.0,
                               atol=tol)


@pytest.mark.parametrize("scenario,n", [("m1", 1200), ("m4", 300)])
def test_every_full_gcv_score_is_of_a_compiled_design(monkeypatch, scenario, n):
    """full_gcv's theta trials are ordinary designs: every exact score of its
    search, on compressed m1 rows and on rotated m4 rows alike, receives a
    ``CompiledDesign``."""
    rows, _ = search_problem(scenario, n)
    kinds = []
    real = gcv._exact_score

    def spy(design, nlam):
        kinds.append(type(design))
        return real(design, nlam)

    monkeypatch.setattr(gcv, "_exact_score", spy)
    full_gcv(*rows, max_iter=2)
    assert kinds and set(kinds) == {CompiledDesign}


@pytest.mark.parametrize("scenario,n", [("m1", 1200), ("m4", 300)])
def test_search_qrs_factor_only_k_and_y_columns(monkeypatch, scenario, n):
    """full_gcv's blocks hold T as [R_T; 0], so no QR of its search, after
    the blocks are built, sees T's columns."""
    rows, (blocks, f) = search_problem(scenario, n)
    widths = []
    real = solver._r_factor

    def recording(stack):
        widths.append(stack.shape[1])
        return real(stack)

    monkeypatch.setattr(gcv, "compressed_blocks", lambda *args: (blocks, f))
    monkeypatch.setattr(solver, "_r_factor", recording)
    monkeypatch.setattr(gcv, "_r_factor", recording)
    full_gcv(*rows, max_iter=2)
    assert widths and max(widths) <= blocks.q + 1


def test_wide_gcv_select_holds_one_copy_of_the_blocks():
    """m4 at 300 rows (S = 87) keeps its blocks in memory, rotated in place:
    the peak stays below 1.5 S n q doubles, which a second copy would pass."""
    sim = gen_data("m4", 300, 5.0, seed=0)
    spec = SCENARIOS["m4"].spec
    config = AspConfig(gcv_max_iter=1, jobs=1)
    q = full_sample_basis(300, spec.null_dim, config).q
    tracemalloc.start()
    try:
        gcv_select(sim.dataset, spec, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * spec.n_penalized * 300 * q * 8
