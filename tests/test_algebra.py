import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from qistate import algebra
from qistate.algebra import (AlgebraDescriptor, AlgebraElement, State, batch_slices,
                             density_power, evaluate, identity, matrix_unit_basis, max_entry,
                             require_faithful, stack, unvec, vec)
from qistate.matcore import InputError, PreconditionError, dagger
from generators import hs_matrix, left_mult_matrix, state_from_density


def random_element(rng, desc):
    return AlgebraElement(desc, [rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n))
                                 for n in desc.block_dims])


def random_faithful(rng, desc):
    blocks = []
    total = sum(desc.block_dims)
    for n in desc.block_dims:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(m @ dagger(m) + 0.2 * np.eye(n))
    x = AlgebraElement(desc, blocks)
    return state_from_density((1.0 / x.trace().real) * x)


def modular_flow(phi, a, z):
    """rho^{iz} a rho^{-iz}, from ``density_power``."""
    return density_power(phi, z) @ a @ density_power(phi, -z)


def hs_inner(a, b):
    """sum_i tr(a_i* b_i), the Hilbert-Schmidt inner product."""
    return sum(np.trace(dagger(x) @ y) for x, y in zip(a.blocks, b.blocks))


def test_descriptor_validation():
    with pytest.raises(InputError):
        AlgebraDescriptor(())
    with pytest.raises(InputError):
        AlgebraDescriptor((2, 0))
    assert AlgebraDescriptor((2, 3)).dim == 13


def test_evaluate_identity_is_one(rng):
    desc = AlgebraDescriptor((2, 3))
    phi = random_faithful(rng, desc)
    assert evaluate(phi, identity(desc)) == pytest.approx(1.0)


def test_evaluate_direct_trace():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])]))
    a = AlgebraElement(desc, [np.diag([1.0, 0.0])])
    assert evaluate(phi, a) == pytest.approx(1 / 3)


def test_evaluate_linearity(rng):
    desc = AlgebraDescriptor((2, 2))
    phi = random_faithful(rng, desc)
    a, b = random_element(rng, desc), random_element(rng, desc)
    al, be = 0.3 - 1.1j, 2.0 + 0.4j
    assert abs(evaluate(phi, al * a + be * b)
               - al * evaluate(phi, a) - be * evaluate(phi, b)) < 1e-12


def test_evaluate_descriptor_mismatch(rng):
    phi = random_faithful(rng, AlgebraDescriptor((2,)))
    with pytest.raises(InputError, match="mismatch"):
        evaluate(phi, identity(AlgebraDescriptor((3,))))


def test_is_faithful():
    desc = AlgebraDescriptor((2,))
    require_faithful(state_from_density(AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])])))
    with pytest.raises(PreconditionError, match="faithful: min density eigenvalue -?0.000e"):
        require_faithful(state_from_density(AlgebraElement(desc, [np.diag([1.0, 0.0])])))


def test_is_faithful_matches_eigen_oracle(rng):
    desc = AlgebraDescriptor((3,))
    phi = random_faithful(rng, desc)
    mn = np.min(np.linalg.eigvalsh(phi.density.blocks[0]))
    require_faithful(phi, tol_pos=0.99 * mn)
    with pytest.raises(PreconditionError) as exc:
        require_faithful(phi, tol_pos=1.01 * mn)
    reported = float(str(exc.value).split("eigenvalue ")[1].split(" <=")[0])
    assert reported == pytest.approx(mn, rel=1e-3)


def test_modular_flow_at_zero(rng):
    desc = AlgebraDescriptor((2, 2))
    phi = random_faithful(rng, desc)
    a = random_element(rng, desc)
    assert (modular_flow(phi, a, 0.0) - a).op_norm() < 1e-12


def test_modular_flow_fixes_commutant_of_density(rng):
    desc = AlgebraDescriptor((3,))
    phi = random_faithful(rng, desc)
    # a polynomial in rho commutes with it and is flow-invariant
    rho = phi.density
    a = rho @ rho + 0.7 * rho
    out = modular_flow(phi, a, 1.3)
    assert (out - a).op_norm() < 1e-10


def test_modular_flow_is_multiplicative(rng):
    desc = AlgebraDescriptor((2, 3))
    phi = random_faithful(rng, desc)
    a, b = random_element(rng, desc), random_element(rng, desc)
    z = 0.8 - 0.6j
    lhs = modular_flow(phi, a @ b, z)
    rhs = modular_flow(phi, a, z) @ modular_flow(phi, b, z)
    assert (lhs - rhs).op_norm() < 1e-10 * max(1.0, rhs.op_norm())


def test_modular_invariance_of_state(rng):
    desc = AlgebraDescriptor((2, 2))
    phi = random_faithful(rng, desc)
    a = random_element(rng, desc)
    for t in (-2.0, 0.5, 3.7):
        assert abs(evaluate(phi, modular_flow(phi, a, t)) - evaluate(phi, a)) < 1e-10


def test_kms_identity(rng):
    # phi(ab) = phi(b sigma_{-i}(a)): trace cyclicity at finite dimension
    desc = AlgebraDescriptor((3, 2))
    phi = random_faithful(rng, desc)
    a, b = random_element(rng, desc), random_element(rng, desc)
    lhs = evaluate(phi, a @ b)
    rhs = evaluate(phi, b @ modular_flow(phi, a, -1.0j))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_modular_flow_requires_faithful():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1.0, 0.0])]))
    with pytest.raises(PreconditionError, match="not faithful"):
        density_power(phi, 1.0)


def test_gns_embed_identity_gives_density_root(rng):
    desc = AlgebraDescriptor((2,))
    phi = random_faithful(rng, desc)
    xi = identity(desc) @ density_power(phi, -0.5j)
    assert np.allclose(xi.blocks[0] @ xi.blocks[0], phi.density.blocks[0])
    assert np.vdot(vec(xi), vec(xi)) == pytest.approx(1.0)


def test_gns_reproduces_state(rng):
    desc = AlgebraDescriptor((2, 3))
    phi = random_faithful(rng, desc)
    x, y = random_element(rng, desc), random_element(rng, desc)
    root = density_power(phi, -0.5j)
    lhs = np.vdot(vec(x @ root), vec(y @ root))
    rhs = evaluate(phi, x.adjoint() @ y)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_gns_isometry(rng):
    desc = AlgebraDescriptor((2, 2))
    phi = random_faithful(rng, desc)
    x = random_element(rng, desc)
    xi = x @ density_power(phi, -0.5j)
    assert abs(np.linalg.norm(vec(xi)) ** 2 - evaluate(phi, x.adjoint() @ x).real) < 1e-10


def test_vec_unvec_roundtrip(rng):
    desc = AlgebraDescriptor((2, 3))
    a = random_element(rng, desc)
    assert same(unvec(desc, vec(a)), a)
    assert len(vec(a)) == desc.dim


def test_vec_is_hs_isometry(rng):
    desc = AlgebraDescriptor((2, 2))
    a, b = random_element(rng, desc), random_element(rng, desc)
    assert abs(np.vdot(vec(a), vec(b)) - hs_inner(a, b)) < 1e-12


def test_left_mult_matrix(rng):
    desc = AlgebraDescriptor((2, 3))
    x, xi = random_element(rng, desc), random_element(rng, desc)
    assert np.allclose(left_mult_matrix(x) @ vec(xi), vec(x @ xi))


# Block dimensions and a seed for the random entries of the operands.
block_dims = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=30, deadline=None)
@given(block_dims, seeds)
def test_mult_matrices_act_by_multiplication(dims, seed):
    rng = np.random.default_rng(seed)
    desc = AlgebraDescriptor(dims)
    x, xi = random_element(rng, desc), random_element(rng, desc)
    assert np.allclose(left_mult_matrix(x) @ vec(xi), vec(x @ xi), atol=1e-12)
    # blockwise 1 kron x_i for column-major vec
    kron = block_diag(*(np.kron(np.eye(len(b)), b) for b in x.blocks))
    assert np.linalg.norm(left_mult_matrix(x) - kron, 2) < 1e-14


@settings(max_examples=30, deadline=None)
@given(block_dims, seeds)
def test_left_and_right_multiplications_commute(dims, seed):
    rng = np.random.default_rng(seed)
    desc = AlgebraDescriptor(dims)
    y = random_element(rng, desc)
    lx = left_mult_matrix(random_element(rng, desc))
    ry = hs_matrix(desc, lambda units: units @ y)
    assert np.linalg.norm(lx @ ry - ry @ lx, 2) < 1e-12 * max(1.0, np.linalg.norm(lx @ ry, 2))


def test_matrix_unit_basis_is_orthonormal():
    desc = AlgebraDescriptor((2, 2))
    basis = matrix_unit_basis(desc)
    assert basis.batch == (desc.dim,)
    assert np.array_equal(vec(basis), np.eye(desc.dim))
    gram = np.array([[hs_inner(a, b) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(desc.dim))


def test_state_validation():
    desc = AlgebraDescriptor((2,))
    with pytest.raises(InputError, match="trace"):
        State(desc, AlgebraElement(desc, [np.diag([1.0, 0.5])]))
    with pytest.raises(InputError, match="Hermitian"):
        State(desc, AlgebraElement(desc, [np.array([[0.5, 0.5], [0.0, 0.5]])]))
    with pytest.raises(InputError, match="PSD"):
        State(desc, AlgebraElement(desc, [np.diag([1.5, -0.5])]))


# -- elements with a batch axis ----------------------------------------------------

def random_stack(rng, desc, size):
    return stack(random_element(rng, desc) for _ in range(size))


def same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))


@settings(max_examples=30, deadline=None)
@given(block_dims, seeds, st.integers(1, 4))
def test_batched_arithmetic_matches_each_index(dims, seed, size):
    rng = np.random.default_rng(seed)
    desc = AlgebraDescriptor(dims)
    x, y = random_stack(rng, desc, size), random_stack(rng, desc, size)
    single = random_element(rng, desc)
    assert x.batch == (size,) and single.batch == ()
    for k in range(size):
        assert same((x + y)[k], x[k] + y[k])
        assert same((x - y)[k], x[k] - y[k])
        assert same((x @ y)[k], x[k] @ y[k])
        assert same((x @ single)[k], x[k] @ single)
        assert same((single @ x)[k], single @ x[k])
        assert same(((0.5 - 2j) * x)[k], (0.5 - 2j) * x[k])
        assert same(x.adjoint()[k], x[k].adjoint())
        assert same(x.inv()[k], x[k].inv())
        assert same(list(x)[k], x[k])


@settings(max_examples=30, deadline=None)
@given(block_dims, seeds, st.integers(1, 4))
def test_batched_trace_evaluate_and_vec_match_each_index(dims, seed, size):
    rng = np.random.default_rng(seed)
    desc = AlgebraDescriptor(dims)
    phi = random_faithful(rng, desc)
    x = random_stack(rng, desc, size)
    tr, val, v = x.trace(), evaluate(phi, x), vec(x)
    assert tr.shape == val.shape == (size,)
    assert v.shape == (size, desc.dim)
    for k in range(size):
        # trace sums the diagonal of each matrix: the last two axes
        assert tr[k] == x[k].trace()
        assert tr[k] == sum(np.trace(b[k]) for b in x.blocks)
        assert val[k] == evaluate(phi, x[k])
        assert np.array_equal(v[k], vec(x[k]))
    assert same(unvec(desc, v), x)
    # numpy sums 1 x 1 blocks pairwise, so the mean matches the running sum
    # only up to roundoff
    running = (1.0 / size) * sum(list(x)[1:], x[0])
    assert (x.mean() - running).op_norm() <= 1e-15 * max(1.0, x.op_norm())


@settings(max_examples=30, deadline=None)
@given(block_dims, seeds, st.integers(1, 4))
def test_max_entry_is_the_largest_value_on_the_matrix_units(dims, seed, size):
    # The functional a |-> tr(y a), evaluated as ``evaluate`` does, on each
    # matrix unit: products by 0 and 1 and sums of zeros, so the value on
    # E_ij is y_ji bit for bit, and the largest |value| is ``max_entry``.
    rng = np.random.default_rng(seed)
    desc = AlgebraDescriptor(dims)
    y = random_stack(rng, desc, size)
    functional = State._unchecked(desc, y, 0.0)
    values = np.stack([evaluate(functional, unit) for unit in matrix_unit_basis(desc)], axis=-1)
    # the units come in vec order, so the values are vec of each y transposed
    assert np.array_equal(values, np.conj(vec(y.adjoint())))
    assert max_entry(y) == float(np.max(np.abs(values)))


@settings(max_examples=30, deadline=None)
@given(block_dims, seeds, st.integers(1, 4))
def test_batched_reductions_take_the_worst_index(dims, seed, size):
    rng = np.random.default_rng(seed)
    desc = AlgebraDescriptor(dims)
    x = random_stack(rng, desc, size)
    h = x @ x.adjoint()
    assert x.op_norm() == max(x[k].op_norm() for k in range(size))
    assert x.herm_residual() == max(x[k].herm_residual() for k in range(size))
    assert x.min_sv() == min(x[k].min_sv() for k in range(size))
    assert h.min_eig() == min(h[k].min_eig() for k in range(size))


def test_constructor_rejects_bad_stacks():
    desc = AlgebraDescriptor((2, 3))
    with pytest.raises(InputError, match="square"):
        AlgebraElement(desc, [np.zeros((4, 2, 3)), np.zeros((4, 3, 3))])
    with pytest.raises(InputError, match="non-finite"):
        bad = np.zeros((4, 3, 3))
        bad[2, 1, 0] = np.inf
        AlgebraElement(desc, [np.zeros((4, 2, 2)), bad])
    with pytest.raises(InputError, match="batch shapes"):
        AlgebraElement(desc, [np.zeros((4, 2, 2)), np.zeros((3, 3, 3))])
    with pytest.raises(InputError, match="batch shapes"):
        AlgebraElement(desc, [np.zeros((2, 2)), np.zeros((1, 3, 3))])
    with pytest.raises(InputError, match="do not match"):
        AlgebraElement(desc, [np.zeros((4, 3, 3)), np.zeros((4, 2, 2))])


def test_overflowing_product_raises_when_its_norm_is_read():
    # derived elements are built unchecked, so the overflow to inf (and the
    # inf - inf = nan of the complex product) surfaces where a norm or a
    # spectrum is read, as the constructor's InputError
    desc = AlgebraDescriptor((2, 1))
    x = AlgebraElement(desc, [np.full((2, 2), 1e200), np.ones((1, 1))])
    with np.errstate(over="ignore", invalid="ignore"):
        y = x @ x
        assert not np.all(np.isfinite(y.blocks[0]))
        for read in (y.op_norm, y.op_norms, y.min_svs, y.min_eigs, y.herm_residual):
            with pytest.raises(InputError, match="non-finite"):
                read()


def test_unvec_rejects_wrong_length():
    desc = AlgebraDescriptor((2, 3))
    with pytest.raises(InputError, match="descriptor dim"):
        unvec(desc, np.zeros((4, desc.dim + 1)))


@given(st.integers(0, 40), st.integers(1, 40), st.integers(1, 30))
def test_batch_slices_partition_the_range(n, inner, limit):
    old, algebra.STACK_LIMIT = algebra.STACK_LIMIT, limit
    try:
        slices = batch_slices(n, inner)
    finally:
        algebra.STACK_LIMIT = old
    covered = [k for s in slices for k in range(n)[s]]
    assert covered == list(range(n))
    assert all(len(range(n)[s]) <= max(1, limit // inner) for s in slices)
