import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from spanova import kernels
from spanova.data import Dataset
from spanova.kernels import (
    AnovaTerm,
    PredictorDomain,
    build_model,
    cubic_kernel_part,
    discrete_kernel_part,
    enumerate_terms,
    eval_bernoulli,
    full_two_way_model,
    main_effects_model,
    null_basis,
    null_basis_matrix,
    term_gram,
    term_gram_diag,
    term_kernel,
)
from spanova.simulate import SCENARIOS
from spanova.solver import BasisSelection, assemble_blocks
from spanova.util import InputError


def unit(d):
    return tuple(PredictorDomain.continuous(0.0, 1.0) for _ in range(d))


# ---------------------------------------------------------------- polynomials


def test_bernoulli_frozen_values():
    assert eval_bernoulli(1, 0.25) == -0.25
    assert eval_bernoulli(2, 0.0) == pytest.approx(1.0 / 12, abs=1e-15)
    assert eval_bernoulli(4, 0.0) == pytest.approx(-1.0 / 720, abs=1e-15)
    assert eval_bernoulli(2, 0.3) == pytest.approx(-13.0 / 600, abs=1e-15)
    assert eval_bernoulli(4, 0.4) == pytest.approx(91.0 / 90000, abs=1e-15)


def test_bernoulli_fourier_series_agreement():
    # the scaled polynomials equal their cosine series on [0, 1]; the
    # order-2 series tail is O(1/N), the order-4 tail O(1/N^3)
    nu = np.arange(1, 3000)
    for t in (0.0, 0.125, 0.4, 0.77, 1.0):
        s2 = 2 * np.sum(np.cos(2 * np.pi * nu * t) / nu**2) / (2 * np.pi) ** 2
        s4 = -2 * np.sum(np.cos(2 * np.pi * nu * t) / nu**4) / (2 * np.pi) ** 4
        assert eval_bernoulli(2, t) == pytest.approx(s2, abs=3e-5)
        assert eval_bernoulli(4, t) == pytest.approx(s4, abs=1e-12)


def test_bernoulli_reflection_symmetry():
    for t in np.linspace(0, 1, 17):
        assert eval_bernoulli(2, t) == pytest.approx(eval_bernoulli(2, 1 - t), abs=1e-15)
        assert eval_bernoulli(4, t) == pytest.approx(eval_bernoulli(4, 1 - t), abs=1e-15)


def test_bernoulli_domain_and_order_checks():
    with pytest.raises(InputError):
        eval_bernoulli(1, -0.1)
    with pytest.raises(InputError):
        eval_bernoulli(4, 1.2)
    with pytest.raises(InputError):
        eval_bernoulli(3, 0.5)


# ------------------------------------------------------------- cubic kernels


def test_cubic_kernel_frozen_values():
    assert cubic_kernel_part("1", 0.0, 0.0) == pytest.approx(1.0 / 120, abs=1e-15)
    assert cubic_kernel_part("1", 0.3, 0.7) == pytest.approx(-13.0 / 24000, abs=1e-15)
    assert cubic_kernel_part("01", 0.3, 0.7) == pytest.approx(-0.04, abs=1e-15)


def test_cubic_kernel_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(size=2)
        for label in ("01", "1"):
            assert cubic_kernel_part(label, a, b) == pytest.approx(
                cubic_kernel_part(label, b, a), abs=1e-15
            )


def test_cubic_kernel_zero_mean():
    """Both subspace kernels integrate to zero in each argument."""
    xg, wg = leggauss(30)

    def integrate(f, a, b):
        u = (b - a) / 2 * xg + (a + b) / 2
        return (b - a) / 2 * np.sum(wg * f(u))

    for x in (0.0, 0.3, 0.62, 1.0):
        # split at the |x - u| kink so the quadrature is exact
        total = integrate(lambda u: cubic_kernel_part("1", x, u), 0.0, x) + integrate(
            lambda u: cubic_kernel_part("1", x, u), x, 1.0
        )
        assert abs(total) < 1e-14
        assert abs(integrate(lambda u: cubic_kernel_part("01", x, u), 0.0, 1.0)) < 1e-14


def test_cubic_kernel_psd():
    rng = np.random.default_rng(11)
    x = rng.uniform(size=40)
    for label in ("01", "1"):
        gram = cubic_kernel_part(label, x[:, None], x[None, :])
        w = np.linalg.eigvalsh((gram + gram.T) / 2)
        assert w.min() > -1e-10 * max(w.max(), 1.0)


def test_cubic_kernel_rejects_out_of_range():
    with pytest.raises(InputError):
        cubic_kernel_part("1", -0.2, 0.5)
    with pytest.raises(InputError):
        cubic_kernel_part("bogus", 0.2, 0.5)


# ---------------------------------------------------------- discrete kernels


def test_discrete_kernel_values_and_row_sums():
    k = 4
    levels = np.arange(1, k + 1)
    gram0 = discrete_kernel_part("0", k, levels[:, None], levels[None, :])
    gram1 = discrete_kernel_part("1", k, levels[:, None], levels[None, :])
    assert np.allclose(gram0, 1.0 / k)
    assert gram1[0, 0] == pytest.approx(1 - 1.0 / k)
    assert gram1[0, 1] == pytest.approx(-1.0 / k)
    # each row of the contrast kernel sums to zero; the mean kernel to one
    assert np.allclose(gram1.sum(axis=1), 0.0, atol=1e-15)
    assert np.allclose(gram0.sum(axis=1), 1.0, atol=1e-15)


def test_discrete_kernel_psd():
    k = 5
    levels = np.arange(1, k + 1)
    for label in ("0", "1"):
        gram = discrete_kernel_part(label, k, levels[:, None], levels[None, :])
        w = np.linalg.eigvalsh(gram)
        assert w.min() > -1e-12


def test_discrete_kernel_rejects_bad_levels():
    with pytest.raises(InputError):
        discrete_kernel_part("1", 3, 0, 1)
    with pytest.raises(InputError):
        discrete_kernel_part("1", 3, 1.5, 1)
    with pytest.raises(InputError):
        discrete_kernel_part("7", 3, 1, 1)


# ------------------------------------------------------------- model building


def test_full_two_way_d2_term_counts():
    spec = full_two_way_model(unit(2))
    assert spec.n_penalized == 5
    assert spec.null_dim == 4
    # penalized deltas are sequential from 1
    assert [t.delta for t in spec.penalized_terms] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_full_two_way_counting_rule(d):
    """S = d + 3 d(d-1)/2 penalized terms for the continuous two-way model."""
    spec = full_two_way_model(unit(d))
    assert spec.n_penalized == d + 3 * d * (d - 1) // 2
    assert spec.null_dim == 1 + d + d * (d - 1) // 2


def test_main_effects_model_counts():
    spec = main_effects_model(unit(3))
    assert spec.n_penalized == 3
    assert spec.null_dim == 4


def test_partial_model_counts():
    # one main effect plus two specific interactions
    spec = build_model(unit(3), [(1,), (1, 2), (0, 1)])
    assert spec.n_penalized == 7
    assert spec.null_dim == 4


def test_high_dimensional_block_model_counts():
    # 18 mains, 9 disjoint pairs, 6 disjoint triples
    effects = [(j,) for j in range(18)]
    effects += [(2 * j, 2 * j + 1) for j in range(9)]
    effects += [(3 * j, 3 * j + 1, 3 * j + 2) for j in range(6)]
    spec = build_model(unit(18), effects)
    assert spec.n_penalized == 18 + 9 * 3 + 6 * 7
    assert spec.null_dim == 1 + 18 + 9 + 6


def test_discrete_factor_terms_are_penalized():
    # a discrete factor's contrast space carries its own shrinkage weight,
    # so enumeration assigns it the smooth label and no null columns
    domains = (PredictorDomain.continuous(0, 1), PredictorDomain.discrete(3))
    spec = build_model(domains, [(0,), (1,), (0, 1)])
    assert spec.null_dim == 2
    assert spec.n_penalized == 4
    labels = {(t.predictors, t.labels) for t in spec.penalized_terms}
    assert ((1,), ("1",)) in labels
    assert ((0, 1), ("01", "1")) in labels
    assert ((0, 1), ("1", "1")) in labels
    assert all(
        lab != "01" or spec.domains[p].is_continuous
        for t in spec.penalized_terms
        for p, lab in zip(t.predictors, t.labels)
    )


def test_enumerate_terms_canonicalizes_and_validates():
    spec = enumerate_terms(unit(2), [(1, 0)])
    assert spec.effects == ((0, 1),)
    with pytest.raises(InputError):
        enumerate_terms(unit(2), [(0,), (0,)])
    with pytest.raises(InputError):
        enumerate_terms(unit(2), [(0, 0)])
    with pytest.raises(InputError):
        enumerate_terms(unit(2), [(2,)])
    with pytest.raises(InputError):
        enumerate_terms(unit(2), [()])


def test_term_structural_validation():
    with pytest.raises(InputError):
        AnovaTerm(predictors=(0,), labels=("01",), penalized=True, delta=1)
    with pytest.raises(InputError):
        AnovaTerm(predictors=(1, 0), labels=("1", "1"), penalized=True, delta=1)


# ----------------------------------------------------------------- null basis


def test_null_basis_frozen_example():
    spec = full_two_way_model(unit(2))
    row = np.array([0.0, 1.0])
    np.testing.assert_allclose(null_basis(spec, row), [1.0, -0.5, 0.5, -0.25], atol=1e-15)


def test_null_basis_matrix_matches_rowwise():
    rng = np.random.default_rng(2)
    spec = full_two_way_model(unit(2))
    x = rng.uniform(size=(13, 2))
    mat = null_basis_matrix(spec, x)
    assert mat.shape == (13, 4)
    for i in range(13):
        np.testing.assert_allclose(mat[i], null_basis(spec, x[i]), atol=1e-14)


@pytest.mark.parametrize("spec", [
    *(scn.spec for scn in SCENARIOS.values()),
    full_two_way_model((PredictorDomain.continuous(), PredictorDomain.discrete(3))),
], ids=[*SCENARIOS, "discrete"])
def test_null_basis_matrix_on_zero_rows(spec):
    mat = null_basis_matrix(spec, np.zeros((0, spec.n_predictors)))
    assert mat.shape == (0, spec.null_dim)


def test_null_basis_discrete_contrasts_manual_spec():
    # unpenalized factor contrasts are available through a hand-built spec
    from spanova.kernels import ModelSpec

    domains = (PredictorDomain.discrete(3),)
    contrast_term = AnovaTerm(predictors=(0,), labels=("1",), penalized=False)
    smooth_term = AnovaTerm(predictors=(0,), labels=("1",), penalized=True, delta=1)
    spec = ModelSpec(domains=domains, effects=((0,),),
                     null_terms=(contrast_term,), penalized_terms=(smooth_term,))
    assert spec.null_dim == 3
    # centered indicator contrasts for levels 1..K-1
    np.testing.assert_allclose(null_basis(spec, np.array([1.0])), [1.0, 2 / 3, -1 / 3])
    np.testing.assert_allclose(null_basis(spec, np.array([3.0])), [1.0, -1 / 3, -1 / 3])
    cols = null_basis_matrix(spec, np.array([[1.0], [2.0], [3.0]]))
    # contrasts sum to zero across a balanced design
    np.testing.assert_allclose(cols[:, 1:].sum(axis=0), 0.0, atol=1e-15)


# ------------------------------------------------------------------ term grams


def test_term_gram_matches_scalar_kernel():
    rng = np.random.default_rng(7)
    domains = (
        PredictorDomain.continuous(0, 1),
        PredictorDomain.continuous(0, 1),
        PredictorDomain.discrete(3),
    )
    spec = build_model(domains, [(0, 1), (1, 2)])
    x = np.column_stack([
        rng.uniform(size=9),
        rng.uniform(size=9),
        rng.integers(1, 4, size=9).astype(float),
    ])
    z = x[:4]
    for term in spec.penalized_terms:
        gram = term_gram(term, domains, x, z)
        assert gram.shape == (9, 4)
        for i in range(9):
            for j in range(4):
                assert gram[i, j] == pytest.approx(
                    term_kernel(term, domains, x[i], z[j]), abs=1e-14
                )
        diag = term_gram_diag(term, domains, x)
        for i in range(9):
            assert diag[i] == pytest.approx(term_kernel(term, domains, x[i], x[i]), abs=1e-14)


def test_term_gram_psd_for_interactions():
    rng = np.random.default_rng(9)
    spec = full_two_way_model(unit(2))
    x = rng.uniform(size=(30, 2))
    for term in spec.penalized_terms:
        gram = term_gram(term, spec.domains, x, x)
        w = np.linalg.eigvalsh((gram + gram.T) / 2)
        assert w.min() > -1e-10 * max(w.max(), 1.0)


def loop_term_gram(term, domains, x, z):
    """Reference: one term's block, every factor formed afresh."""
    out = np.ones((x.shape[0], z.shape[0]))
    for j, lab in zip(term.predictors, term.labels):
        xc, zc = x[:, j], z[:, j]
        if not domains[j].is_continuous:
            out *= (xc[:, None] == zc[None, :]).astype(float) - 1.0 / domains[j].n_levels
        elif lab == "01":
            out *= np.outer(xc - 0.5, zc - 0.5)
        else:
            out *= (np.outer(eval_bernoulli(2, xc), eval_bernoulli(2, zc))
                    - eval_bernoulli(4, np.abs(xc[:, None] - zc[None, :])))
    return out


def mixed_spec():
    domains = unit(2) + (PredictorDomain.discrete(3),)
    return full_two_way_model(domains)


def spec_rows(spec, n, seed):
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(size=n) if dom.is_continuous
            else rng.integers(1, dom.n_levels + 1, size=n).astype(float)
            for dom in spec.domains]
    return np.column_stack(cols)


ASSEMBLY_SPECS = [SCENARIOS[name].spec for name in ("u2", "m1", "m2", "m4")] + [mixed_spec()]


@pytest.mark.parametrize("spec", ASSEMBLY_SPECS, ids=["u2", "m1", "m2", "m4", "discrete"])
def test_per_term_blocks_fill_a_column_slice_of_a_stack(spec):
    """The per-term row source writes each tile's blocks side by side into a
    column slice of an F-ordered stack, neither F- nor C-contiguous, as
    _compress_rows' fill does.  Tiles full, then short, then full again,
    formed in one workspace, give loop_term_gram's blocks bit for bit, as
    does term_gram, and the stack's entries outside the slice keep their
    NaN."""
    x = spec_rows(spec, 40, seed=3)
    z = x[::4]
    terms, m = spec.penalized_terms, z.shape[0]
    width = len(terms) * m
    rows = kernels.KernelRows(terms, spec.domains, z)
    stack = np.full((x.shape[0] + 6, 3 + width + 2), np.nan, order="F")
    work = None
    for a, b in [(0, 16), (16, 21), (21, 37), (37, 40)]:
        view = stack[a:b, 3:3 + width]
        assert not (view.flags.f_contiguous or view.flags.c_contiguous)
        assert rows.tile(x[a:b], view) is view
        work = work or list(rows._work.values())
        assert all(a is b for a, b in zip(rows._work.values(), work, strict=True))
    assert np.isnan(stack[:, :3]).all() and np.isnan(stack[:, 3 + width:]).all()
    assert np.isnan(stack[x.shape[0]:]).all()
    for i, term in enumerate(terms):
        ref = loop_term_gram(term, spec.domains, x, z)
        assert np.array_equal(stack[:x.shape[0], 3 + i * m:3 + (i + 1) * m], ref)
        assert np.array_equal(term_gram(term, spec.domains, x, z), ref)


@pytest.mark.parametrize("spec", ASSEMBLY_SPECS, ids=["u2", "m1", "m2", "m4", "discrete"])
def test_assemble_blocks_unchanged_by_shared_factors(spec):
    x = spec_rows(spec, 120, seed=4)
    ds = Dataset(x=x, y=np.zeros(120), domains=spec.domains)
    basis = BasisSelection(indices=np.arange(0, 120, 3))
    blocks = assemble_blocks(ds, spec, basis)
    z = x[basis.indices]
    for term, kp, qp in zip(spec.penalized_terms, blocks.k_parts, blocks.q_parts, strict=True):
        assert np.array_equal(kp, loop_term_gram(term, spec.domains, x, z))
        q_ref = loop_term_gram(term, spec.domains, z, z)
        assert np.array_equal(qp, (q_ref + q_ref.T) / 2.0)


@pytest.mark.parametrize("spec", ASSEMBLY_SPECS, ids=["u2", "m1", "m2", "m4", "discrete"])
def test_one_workspace_serves_every_form_and_height(spec):
    """One source, asked in turn for per-term tiles into a column slice of a
    NaN-filled stack, a taller K(theta) tile that grows its workspace, the
    Gram at its basis rows and a short K(theta) tile, gives each the bits
    that a fresh source gives it.  A view kept across the workspace's
    growth, or a form that reads another form's buffers, fails here."""
    x = spec_rows(spec, 60, seed=5)
    z = x[::4]
    terms, m = spec.penalized_terms, z.shape[0]
    theta = 10.0 ** np.random.default_rng(6).uniform(-1.0, 1.0, len(terms))

    def per_term(source):
        stack = np.full((24, 2 + len(terms) * m + 1), np.nan, order="F")
        source.tile(x[:20], stack[2:22, 2:-1])
        return stack

    calls = [per_term,
             lambda source: source.tile(x, weights=theta).copy(),
             lambda source: source.tile(z),
             lambda source: source.tile(x[5:12], weights=theta).copy()]
    shared = kernels.KernelRows(terms, spec.domains, z)
    for call in calls:
        fresh = call(kernels.KernelRows(terms, spec.domains, z))
        assert np.array_equal(call(shared), fresh, equal_nan=True)


def test_kernel_rows_are_the_one_row_source():
    """Kernel rows are formed one way, by ``KernelRows``: no ``term_grams``
    or ``_kernel_rows`` is left in kernels or solver, a source is not
    called for rows but given them per tile, and ``_gram_factor``, which
    forms each factor, is called from ``KernelRows`` alone.  A second row
    path that creeps back fails here."""
    import inspect

    from spanova import solver

    assert [(mod.__name__, name) for mod in (kernels, solver)
            for name in ("term_grams", "_kernel_rows") if hasattr(mod, name)] == []
    assert "__call__" not in vars(kernels.KernelRows)
    assert inspect.getsource(kernels).count("_gram_factor(") == 2  # its definition and one call
    assert "_gram_factor(" in inspect.getsource(kernels.KernelRows)
    assert "_gram_factor" not in inspect.getsource(solver)


# points where x == z, where x or z is 0, 0.5 or 1, and pairs one ulp apart
OUTER_POINTS = np.array([0.0, 0.5, 1.0, 0.3, np.nextafter(0.3, 1.0), np.nextafter(0.5, 0.0),
                         np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)])


@pytest.mark.parametrize("q", [1, 77])
@pytest.mark.parametrize("h", [1, 4, 425])
def test_rank2_products_equal_ufunc_outer(h, q):
    """x_i - z_j as [x, 1][1; -z] and a_i b_j as [a, 0][b; 0], by dgemm,
    equal np.subtract.outer and np.multiply.outer, written in place into
    an F-ordered output whose old entries (NaN) are never read.  The
    random points beyond OUTER_POINTS pair x_i with z_i one ulp above it."""
    rng = np.random.default_rng(h * q)
    base = rng.uniform(size=max(h, q))
    for sx in range(OUTER_POINTS.size):
        for sz in range(OUTER_POINTS.size):
            x = np.concatenate([np.roll(OUTER_POINTS, sx), base])[:h]
            z = np.concatenate([np.roll(OUTER_POINTS, sz), np.nextafter(base, 1.0)])[:q]
            a, b = x - 0.5, z - 0.5
            out = np.full((h, q), np.nan, order="F")
            diff = kernels._rank2(x, 1.0, kernels._basis_operand(1.0, -z), out)
            assert np.shares_memory(diff, out)
            assert np.array_equal(out, np.subtract.outer(x, z))
            out[...] = np.nan
            kernels._rank2(a, 0.0, kernels._basis_operand(b, 0.0), out)
            assert np.array_equal(out, np.multiply.outer(a, b))


# --------------------------------------------------------------------- domains


def test_domain_rescale_continuous():
    dom = PredictorDomain.continuous(2.0, 6.0)
    scaled, mask = dom.rescale(np.array([2.0, 4.0, 6.0, 7.0, 1.0]))
    np.testing.assert_allclose(scaled, [0.0, 0.5, 1.0, 1.0, 0.0])
    assert mask.tolist() == [False, False, False, True, True]


def test_domain_rescale_discrete():
    dom = PredictorDomain.discrete((10.0, 20.0, 30.0))
    scaled, mask = dom.rescale(np.array([20.0, 10.0, 30.0]))
    np.testing.assert_allclose(scaled, [2.0, 1.0, 3.0])
    assert not mask.any()
    with pytest.raises(InputError):
        dom.rescale(np.array([25.0]))


def test_domain_validation():
    with pytest.raises(InputError):
        PredictorDomain.continuous(1.0, 1.0)
    with pytest.raises(InputError):
        PredictorDomain.discrete(1)
