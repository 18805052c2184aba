import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qistate.algebra import AlgebraDescriptor, AlgebraElement, identity, vec
from qistate.actions import apply, close_group
from qistate.analysis import Analysis
from qistate.expectation import (FixedAlgebra, commutant_f0, cond_expectation,
                                 e0_projection, expectation_checks, fixed_algebra,
                                 projection_residual, uniqueness_probe, verify_ks)
from qistate.matcore import PreconditionError, TOL_EQ, TOL_POS, dagger, psd_sqrt
from generators import (all_passed, conjugate_generator, dense_unitaries, hs_matrix,
                        inner_generator, left_mult_matrix, multiplication_table,
                        permutation_generator, random_faithful_density, random_instance, random_strong_instance,
                        random_unitary, shift_matrix, state_from_density, trivial_group)


# -- the stacked kernels that the two-pass routine replaced --------------------

def reference_fixed_vectors(mats, n: int, cutoff: float) -> np.ndarray:
    """Orthonormal basis (columns) of the vectors that every n x n matrix in
    ``mats`` fixes: the kernel of the (len(mats) N) x N stack of M - 1, with
    the rank cutoff of ``expectation._kernel_onb``."""
    if len(mats) == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(np.vstack([m - np.eye(n) for m in mats]), full_matrices=False)
    rank = int(np.sum(s > cutoff * s.max(initial=1.0)))
    return dagger(vh)[:, rank:]


def reference_projections(an):
    """Projections onto B and onto ran E0, each from one stacked kernel over
    every element but the identity: of A(g) - 1, and of the dense U_g - 1."""
    desc, group = an.phi.descriptor, an.group
    actions = hs_matrix(desc, lambda units: apply(group.elements, units))
    b = reference_fixed_vectors(actions[1:], desc.dim, an.tol_pos)
    e0 = reference_fixed_vectors(dense_unitaries(an)[1:], desc.dim, an.tol_pos)
    return b @ dagger(b), e0 @ dagger(e0)


def swap_with_inner_instance(rng, n: int):
    """M_n + M_n with the block swap and the shift on block 0, in a random
    frame, and a generic state: a non-abelian group of order 2 n^2."""
    desc = AlgebraDescriptor((n, n))
    frame = [random_unitary(rng, n) for _ in range(2)]
    gens = [conjugate_generator(g, frame) for g in
            (permutation_generator(desc, (1, 0)), inner_generator(desc, 0, shift_matrix(n)))]
    phi = state_from_density(random_faithful_density(rng, desc))
    return phi, close_group(gens, cap=2 * n * n)


def drawn_instance(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "generic":
        inst = random_instance(rng)
    elif kind == "strong":
        inst = random_strong_instance(rng)
    elif kind == "swap_with_inner":
        return swap_with_inner_instance(rng, int(rng.integers(2, 4)))
    else:
        desc = AlgebraDescriptor((1, 2))
        return state_from_density(random_faithful_density(rng, desc)), trivial_group(desc)
    return inst.phi, inst.group


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["generic", "strong", "swap_with_inner", "trivial"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fixed_vectors_match_stacked_kernels(kind, seed):
    phi, group = drawn_instance(kind, seed)
    an = Analysis(phi, group, TOL_EQ, TOL_POS)
    b_ref, e0_ref = reference_projections(an)
    q, fa = an.e0, an.fixed
    assert fa.dimension == round(np.trace(b_ref).real)
    assert q.shape[1] == round(np.trace(e0_ref).real)
    assert np.linalg.norm(fa.q @ dagger(fa.q) - b_ref, 2) <= 1e-12
    assert np.linalg.norm(q @ dagger(q) - e0_ref, 2) <= 1e-12


def test_group_pass_of_fixed_vectors_shrinks_e0():
    # U_g is not a representation here: the vectors that the generators fix
    # span a plane, and only the pass over every element finds that no
    # vector is fixed by all of them
    phi, group = drawn_instance("generic", 19)
    an = Analysis(phi, group, TOL_EQ, TOL_POS)
    _, e0_ref = reference_projections(an)
    us = dense_unitaries(an)
    by_generators = reference_fixed_vectors([us[k] for k in group.first_layer], phi.descriptor.dim,
                                            an.tol_pos)
    assert an.e0.shape[1] == round(np.trace(e0_ref).real) == 0
    assert by_generators.shape[1] == 2
    assert np.linalg.norm(an.e0 @ dagger(an.e0) - e0_ref, 2) <= 1e-12


def test_swap_with_inner_group_is_non_abelian_and_not_strong(rng):
    phi, group = swap_with_inner_instance(rng, 3)
    mult = multiplication_table(group)
    assert group.order == 18 and np.any(mult != mult.T)
    assert not Analysis(phi, group, TOL_EQ, TOL_POS).strong


def test_first_layer_is_the_distinct_non_identity_generators():
    desc = AlgebraDescriptor((2, 2))
    swap, shift = permutation_generator(desc, (1, 0)), inner_generator(desc, 0, shift_matrix(2))
    ident = inner_generator(desc, 0, np.eye(2))
    group = close_group([ident, swap, shift, swap])
    assert group.first_layer == range(1, 3)
    # the right Cayley graph has a column per distinct non-identity generator
    assert group.right.shape == (group.order, 2)
    assert close_group([ident]).first_layer == range(1, 1)
    assert close_group([ident]).right.shape == (1, 0)


def test_fixed_algebra_trivial_group_is_everything():
    desc = AlgebraDescriptor((2, 3))
    fa = fixed_algebra(trivial_group(desc), TOL_EQ, TOL_POS)
    assert fa.dimension == desc.dim


def test_fixed_algebra_qubit(qubit):
    # solving X a X = a on M_2 leaves span{1, X}
    fa = fixed_algebra(qubit.group, TOL_EQ, TOL_POS)
    assert fa.dimension == 2
    x_mat = AlgebraElement(qubit.descriptor, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    assert fa.span_distance(x_mat) < 1e-10
    assert fa.span_distance(identity(qubit.descriptor)) < 1e-10


def test_fixed_algebra_block_swap(m2m2_swap):
    # fixed points of the swap are the pairs (a, a)
    fa = fixed_algebra(m2m2_swap.group, TOL_EQ, TOL_POS)
    assert fa.dimension == 4
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    fixed = AlgebraElement(m2m2_swap.descriptor, [a, a])
    assert fa.span_distance(fixed) < 1e-10
    lopsided = AlgebraElement(m2m2_swap.descriptor, [a, np.zeros((2, 2))])
    assert fa.span_distance(lopsided) > 0.5


def test_fixed_algebra_basis_elements_are_fixed(rng):
    inst = random_strong_instance(rng)
    fa = fixed_algebra(inst.group, TOL_EQ, TOL_POS)
    for b in fa.basis:
        for g in inst.group.elements:
            assert (apply(g, b) - b).op_norm() < 1e-9


def test_cond_expectation_trivial_group_is_identity(rng):
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])]))
    grp = trivial_group(desc)
    cert = Analysis(phi, grp, TOL_EQ, TOL_POS).certificate
    Phi = cond_expectation(cert, grp, fixed_algebra(grp, TOL_EQ, TOL_POS), TOL_POS)
    a = AlgebraElement(desc, [rng.standard_normal((2, 2))])
    assert (Phi(a) - a).op_norm() < 1e-12


def test_cond_expectation_qubit_hand_value(qubit):
    Phi = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS).Phi
    out = Phi(AlgebraElement(qubit.descriptor, [np.diag([1.0, 0.0])]))
    assert np.allclose(out.blocks[0], np.eye(2) / 2)


def test_cond_expectation_swap_averages_blocks(m2m2_swap, rng):
    Phi = Analysis(m2m2_swap.phi, m2m2_swap.group, TOL_EQ, TOL_POS).Phi
    a1 = rng.standard_normal((2, 2))
    a2 = rng.standard_normal((2, 2))
    out = Phi(AlgebraElement(m2m2_swap.descriptor, [a1, a2]))
    mean = (a1 + a2) / 2
    assert np.allclose(out.blocks[0], mean) and np.allclose(out.blocks[1], mean)


def test_cond_expectation_rejects_non_invariant_state(qubit):
    # the certificate as invariant_state would make it for phi itself, which
    # the qubit group does not leave invariant
    cert = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS).certificate
    rho = qubit.phi.density
    res = (apply(qubit.group.elements, rho) - rho).op_norm()
    invariance = dataclasses.replace(cert.invariance, residual=res,
                                     passed=res <= TOL_EQ * max(1.0, rho.op_norm()))
    cert = dataclasses.replace(cert, psi=qubit.phi, invariance=invariance)
    with pytest.raises(PreconditionError, match="not invariant"):
        cond_expectation(cert, qubit.group, fixed_algebra(qubit.group, TOL_EQ, TOL_POS),
                         TOL_POS)


def test_expectation_defining_properties(rng, probe_rng):
    inst = random_strong_instance(rng)
    checks = expectation_checks(Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS), probe_rng)
    assert all_passed(checks), [(c.name, c.residual) for c in checks]


def test_expectation_contraction_and_group_invariance(rng):
    inst = random_strong_instance(rng)
    Phi = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS).Phi
    for _ in range(5):
        a = AlgebraElement(inst.descriptor,
                           [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                            for n in inst.descriptor.block_dims])
        assert Phi(a).op_norm() <= a.op_norm() + 1e-10
        for g in inst.group.elements:
            assert (Phi(apply(g, a)) - Phi(a)).op_norm() < 1e-10
        # Schwarz-type positivity
        schwarz = Phi(a.adjoint() @ a) - Phi(a).adjoint() @ Phi(a)
        assert schwarz.min_eig() > -1e-9 * max(1.0, a.op_norm() ** 2)


def test_e0_trivial_group():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])]))
    q = Analysis(phi, trivial_group(desc), TOL_EQ, TOL_POS).e0
    assert np.allclose(q @ dagger(q), np.eye(desc.dim))


def test_e0_is_projection(qubit):
    an = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS)
    q = e0_projection(an.group, an.roots[1], an.factors[0], TOL_POS)
    m = q @ dagger(q)
    assert np.linalg.norm(m @ m - m, 2) < 1e-10
    assert np.linalg.norm(m - m.conj().T, 2) < 1e-10
    assert abs(projection_residual(q) - np.linalg.norm(m @ m - m, 2)) < 1e-15


def test_projection_residual_is_that_of_q_q_star(rng):
    # columns that are not orthonormal: Q Q* is then no projection
    for r in (0, 1, 3):
        q = (rng.standard_normal((6, r)) + 1j * rng.standard_normal((6, r))) / 2
        m = q @ dagger(q)
        expected = np.linalg.norm(m @ m - m, 2)
        assert abs(projection_residual(q) - expected) <= 1e-12 * max(1.0, expected)


def test_e0_contains_invariant_vector_strong(rng):
    # d^{1/2} rho^{1/2} is U_g-invariant in the strong case
    for _ in range(4):
        inst = random_strong_instance(rng)
        an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
        d = an.certificate.d
        droot = AlgebraElement(inst.descriptor, [psd_sqrt(b) for b in d.blocks])
        xi = vec(droot @ inst.phi.power(0.5))
        for u in dense_unitaries(an):
            assert np.linalg.norm(u @ xi - xi) < 1e-9
        q = an.e0
        assert np.linalg.norm(q @ (dagger(q) @ xi) - xi) < 1e-9


def test_e0_rank_matches_averaging_oracle_strong(qubit):
    # strong case: {U_g} is a unitary group, so its average is exactly E0
    an = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS)
    us, q = dense_unitaries(an), an.e0
    avg = sum(us) / len(us)
    assert np.linalg.norm(avg - q @ dagger(q), 2) < 1e-10
    rank = q.shape[1]
    eigs = np.linalg.eigvalsh((avg + avg.conj().T) / 2)
    assert int(np.sum(eigs > 1 - 1e-9)) == rank


def test_verify_ks_invariant_case_reduces():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.eye(2) / 2]))
    grp = close_group([inner_generator(desc, 0, np.array([[0, 1.], [1., 0]]))], cap=4)
    checks = verify_ks(Analysis(phi, grp, TOL_EQ, TOL_POS))
    assert all_passed(checks) and max(c.residual for c in checks) <= 1e-12


def test_verify_ks_qubit(qubit):
    checks = verify_ks(Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS))
    assert all_passed(checks) and max(c.residual for c in checks) < 1e-12


def test_verify_ks_random_strong(rng):
    inst = random_strong_instance(rng)
    checks = verify_ks(Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS))
    assert all_passed(checks), [(c.name, c.residual) for c in checks]


def test_verify_ks_rejects_non_strong(nonstrong):
    with pytest.raises(PreconditionError, match="not strongly"):
        verify_ks(Analysis(nonstrong.phi, nonstrong.group, TOL_EQ, TOL_POS))


def test_uniqueness_probe(qubit):
    assert uniqueness_probe(Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS)).passed


def test_commutant_f0_trivial_group():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])]))
    report = Analysis(phi, trivial_group(desc), TOL_EQ, TOL_POS).f0
    # B = A, E0 = 1, and B' (right multiplications) applied to L2 spans it
    assert report.identity_residual < 1e-10


def test_commutant_f0_qubit(qubit):
    report = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS).f0
    assert report.identity_residual < 1e-10
    # B = span{1, X} is abelian of dim 2; B' in M_4 has dimension 8
    assert report.commutant_dim == 8


def test_commutant_f0_block_swap(m2m2_swap):
    report = Analysis(m2m2_swap.phi, m2m2_swap.group, TOL_EQ, TOL_POS).f0
    assert report.identity_residual < 1e-10


def test_commutant_f0_random_strong(rng):
    inst = random_strong_instance(rng)
    report = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS).f0
    assert report.identity_residual <= TOL_EQ, (inst.descriptor.block_dims,
                                                report.identity_residual)


def reference_f0(fa, e0):
    """Dense oracle for F0 and dim B': solve T L_b = L_b T for all N x N
    operators T, then project onto the span of T xi for xi in ran E0, given
    as the dense projection ``e0``."""
    n = len(e0)
    ident = np.eye(n)
    rows = []
    for b in fa.basis:
        lb = left_mult_matrix(b)
        rows.append(np.kron(lb.T, ident) - np.kron(ident, lb))   # vec(T L_b - L_b T)
    _, s, vh = np.linalg.svd(np.vstack(rows))
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0])))
    commutant = [vh[k].conj().reshape((n, n), order="F") for k in range(rank, n * n)]
    w, v = np.linalg.eigh(e0)
    images = np.hstack([np.zeros((n, 0))] + [t @ v[:, w > 0.5] for t in commutant])
    u, s, _ = np.linalg.svd(images, full_matrices=False)
    u = u[:, s > 1e-10 * max([1.0, *s])]
    return u @ u.conj().T, len(commutant)


@pytest.mark.parametrize("name", ["qubit", "c2_swap", "m2m2_swap", "nonstrong"])
def test_commutant_f0_matches_dense_oracle(name, request):
    inst = request.getfixturevalue(name)
    an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
    f0, dim = reference_f0(an.fixed, an.e0 @ dagger(an.e0))
    assert an.f0.commutant_dim == dim
    assert np.linalg.norm(left_mult_matrix(an.f0.p) - f0, 2) < 1e-10


def vector_basis(xi):
    """E0 onto the line of xi, as its basis: one normalized column."""
    v = vec(xi)
    return (v / np.linalg.norm(v))[:, None]


FULL, RANK_ONE = np.eye(2) / np.sqrt(2), np.array([[0.0, 1.0], [0.0, 0.0]])
P_RANK_ONE = np.diag([1.0, 0.0])


@pytest.mark.parametrize("swap, xi, p", [
    # B = A: B' xi keeps block 0, with columns in the column space of xi_0;
    # an invertible xi_0 gives F0 = L_{z_0}
    (False, [FULL, np.zeros((2, 2))], [np.eye(2), np.zeros((2, 2))]),
    (False, [RANK_ONE, np.zeros((2, 2))], [P_RANK_ONE, np.zeros((2, 2))]),
    # B = {(a, a)}: the swap intertwines the blocks, so B' carries a
    # block-1 vector into block 0 as well
    (True, [np.zeros((2, 2)), FULL], [np.eye(2), np.eye(2)]),
    (True, [np.zeros((2, 2)), RANK_ONE], [P_RANK_ONE, P_RANK_ONE]),
])
def test_commutant_f0_on_one_vector(swap, xi, p):
    desc = AlgebraDescriptor((2, 2))
    gen = permutation_generator(desc, (1, 0) if swap else (0, 1))
    fa = fixed_algebra(close_group([gen], cap=4), TOL_EQ, TOL_POS)
    q = vector_basis(AlgebraElement(desc, xi))
    report = commutant_f0(fa, q, TOL_POS)
    expected = left_mult_matrix(AlgebraElement(desc, p))
    assert np.linalg.norm(left_mult_matrix(report.p) - expected, 2) < 1e-12
    assert np.linalg.norm(reference_f0(fa, q @ dagger(q))[0] - expected, 2) < 1e-10
    assert (report.identity_residual <= TOL_EQ) == (swap and xi[1] is FULL)


def test_commutant_f0_on_m17_with_scalar_fixed_algebra():
    # N = 289: B = C 1, so B' is every operator, dim 289^2, and a faithful
    # vector is cyclic for it
    desc = AlgebraDescriptor((17,))
    fa = FixedAlgebra(desc, vec(identity(desc))[:, None] / np.sqrt(17))
    root = AlgebraElement(desc, [np.diag(np.sqrt(np.arange(1.0, 18.0)))])
    report = commutant_f0(fa, vector_basis(root), TOL_POS)
    assert report.commutant_dim == 289 ** 2
    assert report.identity_residual < 1e-12
