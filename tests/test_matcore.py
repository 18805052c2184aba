import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qistate.matcore import (TOL_EQ, InputError, PreconditionError, dagger, herm_eig,
                             is_unitary, max_op_norm, op_norm, op_norms, op_norms_within,
                             psd_sqrt)
from generators import imag_power    # the power laws are stated on the oracle


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + dagger(m)) / 2


def random_pd(rng, n, shift=0.1):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ dagger(m) + shift * np.eye(n)


def test_op_norm_identity():
    assert op_norm(np.eye(2)) == pytest.approx(1.0)


def test_op_norm_diagonal():
    assert op_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0)


def test_op_norm_matches_eigenvalue_oracle(rng):
    a = random_hermitian(rng, 5)
    # independent oracle: full eigendecomposition
    oracle = np.max(np.abs(np.linalg.eigvalsh(a)))
    assert abs(op_norm(a) - oracle) < 1e-12


def test_op_norm_rejects_nonfinite():
    with pytest.raises(InputError, match="non-finite"):
        op_norm(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(InputError, match="square"):
        op_norm(np.ones((2, 3)))


def test_herm_eig_diagonal():
    w, v = herm_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])


def test_herm_eig_pauli_x():
    # hand diagonalization: eigenvalues -1, 1
    w, v = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    assert np.linalg.norm(dagger(v) @ v - np.eye(2)) < 1e-10


def test_herm_eig_reconstruction(rng):
    a = random_hermitian(rng, 6)
    w, v = herm_eig(a)
    assert np.linalg.norm((v * w) @ dagger(v) - a) < 1e-10


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))


def test_psd_sqrt_diagonal():
    root = psd_sqrt(np.diag([2.0, 0.5]))
    assert np.allclose(root, np.diag([np.sqrt(2.0), np.sqrt(0.5)]))


def test_psd_sqrt_squares_back(rng):
    a = random_pd(rng, 5, shift=0.0)
    b = psd_sqrt(a)
    assert np.linalg.norm(b @ b - a) < 1e-10 * max(1.0, op_norm(a))
    assert np.linalg.norm(b - dagger(b)) < 1e-10


def test_psd_sqrt_clips_tiny_negative_eigenvalues():
    a = np.diag([1.0, -5e-11])
    b = psd_sqrt(a, tol_pos=1e-10)
    assert b[1, 1] == 0.0


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(PreconditionError, match="not positive semidefinite"):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_imag_power_identity_any_exponent():
    for z in (0.0, 1.0, -0.5j, 2.0 + 1.0j):
        assert np.allclose(imag_power(np.eye(2), z), np.eye(2))


def test_imag_power_scalar_case():
    a = np.diag([np.e, np.e])
    # a^{i(-i)} = a
    assert np.allclose(imag_power(a, -1.0j), a)


def test_imag_power_zero_exponent(rng):
    a = random_pd(rng, 4)
    assert np.linalg.norm(imag_power(a, 0.0) - np.eye(4)) <= 1e-12


def test_imag_power_group_law(rng):
    a = random_pd(rng, 4)
    z, w = 0.7 - 0.3j, -1.1 + 0.4j
    lhs = imag_power(a, z) @ imag_power(a, w)
    rhs = imag_power(a, z + w)
    assert np.linalg.norm(lhs - rhs) < 1e-10 * max(1.0, op_norm(rhs))


def test_imag_power_half_gives_root(rng):
    a = random_pd(rng, 3)
    assert np.allclose(imag_power(a, -0.5j), psd_sqrt(a))


def test_op_norm_submultiplicative(rng):
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-10


def test_op_norms_match_op_norm_per_matrix(rng):
    stack = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
    norms = op_norms(stack)
    assert norms.shape == (7,)
    # equal to the last bit, so stacked sweeps report what per-matrix loops did
    assert np.array_equal(norms, [op_norm(m) for m in stack])


def test_herm_eig_of_a_stack_is_each_hermitian_part(rng):
    # herm_eig tests nothing: a non-Hermitian matrix gives the eigensystem
    # of its Hermitian part, matrix by matrix
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    stack[1] *= 1e6
    w, v = herm_eig(stack)
    for k, m in enumerate(stack):
        part = (m + dagger(m)) / 2
        wk, vk = herm_eig(part)
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
        assert np.linalg.norm((v[k] * w[k]) @ dagger(v[k]) - part, 2) < 1e-12 * op_norm(part)


def test_stack_reductions_match_each_matrix(rng):
    stack = np.stack([random_pd(rng, 3) for _ in range(5)])
    w, v = herm_eig(stack)
    for k, m in enumerate(stack):
        wk, vk = herm_eig(m)
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
        assert np.array_equal(psd_sqrt(stack)[k], psd_sqrt(m))
    assert op_norm(stack) == max(op_norm(m) for m in stack)


def test_is_unitary_judges_each_matrix_of_a_stack(rng):
    u = random_unitaries(rng, 3, 4)
    u[1] *= 1.0 + 1e-6
    assert list(is_unitary(u)) == [True, False, True]
    assert [bool(is_unitary(m)) for m in u] == [True, False, True]
    # judged at TOL_EQ: ||u u* - 1|| is about 2 delta for u scaled by 1 + delta
    assert is_unitary((1.0 + TOL_EQ / 4) * u[0]) and not is_unitary((1.0 + TOL_EQ) * u[0])


# -- max_op_norm against one SVD per matrix -------------------------------------

def full_sweep(stacks):
    """The largest SVD norm over the stacks, one SVD per matrix."""
    return max((float(np.max(np.linalg.norm(s, 2, axis=(-2, -1)))) for s in stacks if s.size),
               default=0.0)


def count_svds(monkeypatch):
    """Count the matrices that reach np.linalg.svd."""
    count = [0]
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return count


def random_unitaries(rng, size, n):
    m = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    return np.linalg.qr(m)[0]


def wide_range_stack(rng, size, n):
    """U diag(s) V with singular values spread over twelve decades, so that
    ||A|| / ||A||_F runs from about 1/sqrt(n) to 1."""
    s = 10.0 ** rng.uniform(-6.0, 6.0, (size, n))
    return (random_unitaries(rng, size, n) * s[:, None, :]) @ random_unitaries(rng, size, n)


def rank_one_stack(rng, size, n):
    """Phase-rotated copies of one rank-1 matrix: equal norms in exact
    arithmetic, ||A|| = ||A||_F, so ties come down to the last bits."""
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phases = np.exp(2j * np.pi * rng.uniform(size=size))
    return phases[:, None, None] * np.outer(u, v)


seeds = st.integers(0, 2 ** 32 - 1)
sizes = st.integers(1, 40)
dims = st.integers(1, 6)


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, dims)
def test_max_op_norm_is_the_full_sweep_on_a_wide_range(seed, size, n):
    rng = np.random.default_rng(seed)
    stack = wide_range_stack(rng, size, n)
    assert max_op_norm([stack]) == full_sweep([stack])
    # the same matrices one at a time, and a stack of stacks
    assert max_op_norm(list(stack)) == full_sweep([stack])
    assert max_op_norm([stack.reshape((1, size, n, n))]) == full_sweep([stack])


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, dims)
def test_max_op_norm_is_the_full_sweep_on_rank_one_ties(seed, size, n):
    rng = np.random.default_rng(seed)
    stack = rank_one_stack(rng, size, n)
    assert max_op_norm([stack]) == full_sweep([stack])


@settings(max_examples=40, deadline=None)
@given(seeds, st.lists(st.tuples(sizes, dims), min_size=1, max_size=5))
def test_max_op_norm_pools_blocks_of_different_size(seed, shapes):
    rng = np.random.default_rng(seed)
    pool = [(wide_range_stack if k % 2 else rank_one_stack)(rng, size, n)
            * 10.0 ** rng.uniform(-3.0, 3.0) for k, (size, n) in enumerate(shapes)]
    assert max_op_norm(pool) == full_sweep(pool)
    assert max_op_norm(reversed(pool)) == full_sweep(pool)


@settings(max_examples=40, deadline=None)
@given(seeds, sizes, dims)
def test_op_norms_within_decides_as_one_svd_per_matrix(seed, size, n):
    rng = np.random.default_rng(seed)
    stack = (wide_range_stack if seed % 2 else rank_one_stack)(rng, size, n)
    norms = op_norms(stack)
    # limits at the computed norms themselves, between them and beyond
    for limit in [0.0, *norms[:4], *np.quantile(norms, [0.25, 0.75]), 2.0 * np.max(norms)]:
        assert np.array_equal(op_norms_within(stack, limit), norms <= limit)


def test_max_op_norm_takes_no_svd_of_zero_or_empty_stacks(monkeypatch):
    count = count_svds(monkeypatch)
    assert max_op_norm([np.zeros((5, 3, 3)), np.zeros((0, 4, 4)), np.zeros((2, 0, 0))]) == 0.0
    assert max_op_norm([]) == 0.0
    assert op_norm(np.zeros((7, 2, 2))) == 0.0
    assert count[0] == 0


def test_max_op_norm_stops_at_a_dominant_matrix(monkeypatch, rng):
    # the identity times 10 beats the Frobenius bound of every other matrix
    stack = rng.standard_normal((30, 4, 4)) / 8
    stack[17] = 10.0 * np.eye(4)
    count = count_svds(monkeypatch)
    assert max_op_norm([stack]) == 10.0
    assert count[0] == 1


def test_max_op_norm_finds_a_rank_one_matrix_behind_flat_ones(rng):
    # ten matrices with ||A||_F = 2 ||A|| come first in Frobenius order; the
    # largest norm belongs to the rank-1 matrix in the last chunk
    stack = np.stack([np.eye(4)] * 10 + [np.diag([1.9, 0.0, 0.0, 0.0])])
    assert max_op_norm([stack]) == full_sweep([stack]) == 1.9


@pytest.mark.parametrize("scale", [1e153, 1e154])
def test_max_op_norm_falls_back_when_frobenius_overflows(monkeypatch, rng, scale):
    # entries in [scale, 2 scale): at 1e154 the sum of squares overflows,
    # although every operator norm is finite
    stack = scale * (1.0 + rng.uniform(size=(6, 3, 3))) * np.exp(1j * rng.uniform(size=(6, 3, 3)))
    with np.errstate(over="ignore"):
        overflows = not np.all(np.isfinite(np.linalg.norm(stack, axis=(-2, -1))))
    assert overflows == (scale == 1e154)
    count = count_svds(monkeypatch)
    assert max_op_norm([stack]) == full_sweep([stack]) < np.inf
    if overflows:
        assert count[0] == 6
