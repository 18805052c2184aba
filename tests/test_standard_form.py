import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qistate.algebra import AlgebraDescriptor, AlgebraElement, identity, unvec, vec
from qistate.actions import apply, close_group, identity_automorphism, inverse
from qistate.analysis import Analysis
from qistate.cocycle import rn_cocycle
from qistate.matcore import PreconditionError, TOL_EQ, TOL_POS
from qistate.standard_form import (a_g, gamma_factorization, lemma_chain_checks, u_g,
                                   verify_covariance, verify_representation, verify_unitarity)
from generators import (all_passed, dense_unitaries, random_instance, random_strong_instance,
                        state_from_density)


def random_l2(rng, desc):
    return AlgebraElement(desc, [rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n))
                                 for n in desc.block_dims])


def hs_norm(x):
    return np.linalg.norm(vec(x))


def test_a_g_identity_element(qubit):
    # the group's first element is the identity: a_1 = v_1 = 1
    an = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS)
    for factor in a_g(qubit.group, an.roots):
        assert (factor[0] - identity(qubit.descriptor)).op_norm() <= 1e-12


def test_a_g_qubit_strong_case(qubit):
    # strong case: a_g = x_g^{1/2} = diag(sqrt 2, 1/sqrt 2)
    a = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS).a[1]
    assert np.allclose(a.blocks[0], np.diag([np.sqrt(2.0), 1 / np.sqrt(2.0)]))


def test_a_g_squares_to_half_flowed_cocycle(rng):
    inst = random_instance(rng)
    phi = inst.phi
    root, root_inv = phi.power(0.5), phi.power(-0.5)
    an = Analysis(phi, inst.group, TOL_EQ, TOL_POS)
    for i, g in enumerate(inst.group.elements):
        a = an.a[i]
        x = rn_cocycle(phi, g)
        flow = root @ x @ root_inv
        assert (a @ a - flow).op_norm() < 1e-9 * max(1.0, flow.op_norm())
        assert a.min_eig() > 0


# Relative size of roundoff in the oracle laws below; over 600 random
# instances the largest seen is 34 ulps.
ROUNDOFF = 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_laws_that_builders_no_longer_test_hold_at_roundoff(seed, strong):
    # Identities of the construction, which no builder refuses any more:
    # a_g^2 = rho^{1/2} x_g rho^{-1/2} and a_g^2 >= 1/||x_{g^-1}|| for a_g,
    # rho x_g = g^-1(rho) Hermitian PSD for sz_domination, and rho_psi >= 0
    # for invariant_state.
    make = random_strong_instance if strong else random_instance
    inst = make(np.random.default_rng(seed))
    an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
    x, a, (root, root_inv) = an.table.entries, an.a, an.roots
    flow, square = root @ x @ root_inv, a @ a
    assert np.all((square - flow).op_norms() <= ROUNDOFF * np.maximum(1.0, flow.op_norms()))
    alpha = 1.0 / x[an.group.inv].op_norms()
    assert np.all(alpha - square.min_eigs() <= ROUNDOFF * np.maximum(1.0, alpha))
    m = inst.phi.density @ x
    scale = np.maximum(1.0, m.op_norms())
    assert np.all((m - m.adjoint()).op_norms() <= ROUNDOFF * scale)
    assert np.all(m.min_eigs() >= -ROUNDOFF * scale)
    assert an.certificate.psi.density.min_eig() >= -ROUNDOFF


def reference_u_g(phi, g, roots, ag):
    # column by column: U_g e_m = vec(g^-1(e_m rho^{-1/2}) rho^{1/2} a_g)
    root, root_inv = roots
    n = phi.descriptor.dim
    mat = np.empty((n, n), dtype=complex)
    for m in range(n):
        xi = unvec(phi.descriptor, np.eye(n)[:, m])
        mat[:, m] = vec(apply(inverse(g), xi @ root_inv) @ root @ ag)
    return mat


def test_u_g_matches_column_oracle(qubit, nonstrong, rng):
    for inst in (qubit, nonstrong, random_instance(rng), random_instance(rng)):
        an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
        for g, ag, u in zip(inst.group.elements, an.a, dense_unitaries(an)):
            ref = reference_u_g(inst.phi, g, an.roots, ag)
            assert np.linalg.norm(u - ref, 2) < 1e-12 * max(1.0, np.linalg.norm(ref, 2))


def test_u_g_identity(qubit):
    an = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS)
    u = u_g(qubit.group.elements[0], an.roots[1], an.factors[0][0])
    assert np.allclose(u, np.eye(qubit.descriptor.dim))


def test_u_g_on_cyclic_vector(rng):
    # U_g(rho^{1/2}) = rho^{1/2} a_g  (x = 1 case)
    inst = random_instance(rng)
    phi = inst.phi
    root = phi.power(0.5)
    an = Analysis(phi, inst.group, TOL_EQ, TOL_POS)
    for i, u in enumerate(dense_unitaries(an)):
        lhs = unvec(inst.descriptor, u @ vec(root))
        rhs = root @ an.a[i]
        assert hs_norm(lhs - rhs) < 1e-10 * max(1.0, hs_norm(rhs))


def test_u_g_isometry_on_random_vectors(rng):
    inst = random_instance(rng, AlgebraDescriptor((2, 2)))
    an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
    for u in dense_unitaries(an):
        for _ in range(4):
            xi, eta = random_l2(rng, inst.descriptor), random_l2(rng, inst.descriptor)
            lhs = np.vdot(u @ vec(xi), u @ vec(eta))
            rhs = np.vdot(vec(xi), vec(eta))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_u_g_unitary_both_sides(rng):
    inst = random_instance(rng)
    n = inst.descriptor.dim
    for u in dense_unitaries(Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)):
        assert np.linalg.norm(u.conj().T @ u - np.eye(n), 2) < 1e-9
        assert np.linalg.norm(u @ u.conj().T - np.eye(n), 2) < 1e-9


def test_u_g_intertwines_gns_embedding(rng):
    # U_g(x rho^{1/2}) = g^-1(x) rho^{1/2} a_g
    from qistate.actions import apply, inverse
    inst = random_instance(rng)
    phi = inst.phi
    root = phi.power(0.5)
    x = random_l2(rng, inst.descriptor)
    an = Analysis(phi, inst.group, TOL_EQ, TOL_POS)
    for i, (g, u) in enumerate(zip(inst.group.elements, dense_unitaries(an))):
        lhs = unvec(inst.descriptor, u @ vec(x @ root))
        rhs = apply(inverse(g), x) @ root @ an.a[i]
        assert hs_norm(lhs - rhs) < 1e-9 * max(1.0, hs_norm(rhs))


def test_covariance_trivial_group(rng):
    from qistate.actions import close_group, identity_automorphism
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])]))
    grp = close_group([identity_automorphism(desc)], cap=2)
    assert verify_covariance(Analysis(phi, grp, TOL_EQ, TOL_POS)).residual <= 1e-12


def test_covariance_qubit(qubit):
    assert verify_covariance(Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS)).residual < 1e-12


def test_covariance_random(rng):
    inst = random_instance(rng)
    assert verify_covariance(Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)).passed


def test_representation_strong(qubit):
    an = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS)
    assert an.strong
    check = verify_representation(an)
    assert check.asserted and check.passed and check.residual < 1e-12


def test_representation_nonstrong_reported_not_asserted(nonstrong):
    an = Analysis(nonstrong.phi, nonstrong.group, TOL_EQ, TOL_POS)
    assert not an.strong
    check = verify_representation(an)
    assert not check.asserted
    assert np.isfinite(check.residual)
    # and the deviation is visibly nonzero for this instance
    assert check.residual > 1e-6


def test_representation_random_strong(rng):
    inst = random_strong_instance(rng)
    an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
    assert an.strong
    assert verify_representation(an).passed


def test_gamma_factorization_trivial():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])]))
    grp = close_group([identity_automorphism(desc)], cap=2)
    an = Analysis(phi, grp, TOL_EQ, TOL_POS)
    checks = gamma_factorization(an)
    gamma, d = an.certificate.psi.power(0.5) @ an.roots[1], an.certificate.d
    assert (gamma - identity(desc)).op_norm() < 1e-10
    assert (d - identity(desc)).op_norm() < 1e-10
    assert all_passed(checks)


def test_gamma_factorization_qubit_hand_values(qubit):
    an = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS)
    checks = gamma_factorization(an)
    gamma, d = an.certificate.psi.power(0.5) @ an.roots[1], an.certificate.d
    assert np.allclose(gamma.blocks[0], np.diag([np.sqrt(1.5), np.sqrt(0.75)]))
    assert np.allclose(d.adjoint().blocks[0], np.diag([1.5, 0.75]))
    assert all_passed(checks) and max(c.residual for c in checks) < 1e-12


def test_gamma_factorization_random(rng):
    for make in (random_strong_instance, random_instance):
        inst = make(rng)
        checks = gamma_factorization(Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS))
        assert all_passed(checks), [(c.name, c.residual) for c in checks]


def test_lemma_chain_random(rng):
    inst = random_instance(rng)
    assert all_passed(lemma_chain_checks(Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)))


def test_lemma_chain_strong_extras(rng):
    inst = random_strong_instance(rng)
    an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
    assert an.strong
    checks = lemma_chain_checks(an)
    assert all_passed(checks)
    names = {c.name for c in checks}
    assert "a_g_is_root" in names and "a_g_root_commute" in names


@pytest.mark.parametrize("name", ["nonstrong", "m2m2_swap"])
def test_non_unitary_implementation_is_refused(name, request):
    # v_g scaled by 1.01 makes ||v_g v_g* - 1|| = 1.01^2 - 1 = 0.0201
    inst = request.getfixturevalue(name)
    an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
    a, v = an.polar
    an.polar = (a, 1.01 * v)
    # the implement laws, E0 and the dense unitaries share one refusal
    for build in (verify_unitarity, verify_covariance, verify_representation,
                  lambda an: an.e0, dense_unitaries):
        with pytest.raises(PreconditionError,
                           match=r"implementing operator is not unitary: residual 2\.010e-02"):
            build(an)


@pytest.mark.parametrize("name", ["nonstrong", "m2m2_swap"])
def test_predual_via_a_g_fails_on_a_wrong_inverse_root(name, request):
    # a_g and v_g are polar factors of g^-1(rho^{-1/2}) rho^{1/2} for any
    # rho^{-1/2}: with a wrong one U_g stays unitary, and only a_g's fit
    # to g^-1(rho) shows the error
    inst = request.getfixturevalue(name)
    an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
    root, root_inv = an.roots
    skew = AlgebraElement(inst.descriptor,
                          [np.diag(1.0 + 1e-6 * np.arange(n)) for n in inst.descriptor.block_dims])
    an.roots = (root, skew @ root_inv)
    assert all_passed(verify_unitarity(an))
    checks = {c.name: c for c in lemma_chain_checks(an)}
    assert checks["predual_via_x_g"].passed
    assert not checks["predual_via_a_g"].passed
    assert checks["predual_via_a_g"].residual > 1e-7


def test_a_g_requires_faithful():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1.0, 0.0])]))
    grp = close_group([identity_automorphism(desc)], cap=2)
    with pytest.raises(PreconditionError, match="not faithful"):
        Analysis(phi, grp, TOL_EQ, TOL_POS).a[0]
