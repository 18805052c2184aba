import numpy as np
import pytest

from qistate.algebra import (AlgebraDescriptor, AlgebraElement, evaluate, identity,
                             matrix_unit_basis)
from qistate.actions import apply, close_group, inverse, predual
from qistate.cocycle import (build_table, is_strongly_qi,
                             random_psd_probe, rn_cocycle, sandwich_check,
                             sz_domination, verify_adjoint_relation,
                             verify_cocycle_identity, verify_inverse_formula)
from qistate.matcore import PreconditionError, TOL_EQ, TOL_POS
from generators import (all_passed, hadamard2, inner_generator, multiplication_table,
                        random_instance, random_strong_instance, state_from_density)


def test_rn_cocycle_identity_element(qubit):
    x = rn_cocycle(qubit.phi, qubit.group.elements[0])
    assert (x - identity(qubit.descriptor)).op_norm() <= 1e-12


def test_rn_cocycle_qubit_hand_value(qubit):
    # rho = diag(1/3, 2/3), flip: x_g = rho^-1 X rho X = diag(2, 1/2)
    x = rn_cocycle(qubit.phi, qubit.group.elements[1])
    assert np.allclose(x.blocks[0], np.diag([2.0, 0.5]))


def test_rn_cocycle_commutative_swap(c2_swap):
    # p = (1/4, 3/4): ratios of the swapped vector are (3, 1/3)
    x = rn_cocycle(c2_swap.phi, c2_swap.group.elements[1])
    assert np.allclose([x.blocks[0][0, 0], x.blocks[1][0, 0]], [3.0, 1 / 3])


def test_rn_cocycle_invariant_state_gives_identity(rng):
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.eye(2) / 2]))
    g = inner_generator(desc, 0, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert (rn_cocycle(phi, g) - identity(desc)).op_norm() <= 1e-12


def test_rn_cocycle_requires_faithful():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1.0, 0.0])]))
    g = inner_generator(desc, 0, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(PreconditionError, match="not faithful"):
        rn_cocycle(phi, g)


def test_build_table_lambda_values(qubit, c2_swap):
    assert build_table(qubit.phi, qubit.group).lambda_bound == pytest.approx(2.0)
    assert build_table(c2_swap.phi, c2_swap.group).lambda_bound == pytest.approx(3.0)


def test_lambda_one_for_invariant_state():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.eye(2) / 2]))
    grp = close_group([inner_generator(desc, 0, np.array([[0, 1.], [1., 0]]))], cap=4)
    table = build_table(phi, grp)
    assert table.lambda_bound == pytest.approx(1.0)
    assert all((x - identity(desc)).op_norm() <= 1e-12 for x in table.entries)


def test_cocycle_identity_qubit(qubit):
    table = build_table(qubit.phi, qubit.group)
    assert verify_cocycle_identity(table).residual < 1e-12
    assert verify_inverse_formula(table).residual < 1e-12
    assert verify_adjoint_relation(table).residual < 1e-12


def test_inverse_formula_hand_check(qubit):
    # x_g^-1 = diag(1/2, 2) equals X diag(2, 1/2) X
    table = build_table(qubit.phi, qubit.group)
    g = qubit.group.elements[1]
    lhs = table.entries[1].inv()
    rhs = apply(inverse(g), table.entries[1])
    assert np.allclose(lhs.blocks[0], np.diag([0.5, 2.0]))
    assert (lhs - rhs).op_norm() < 1e-12


def test_adjoint_relation_hand_check(qubit):
    # rho x_g = diag(2/3, 1/3) = x_g* rho
    table = build_table(qubit.phi, qubit.group)
    prod = qubit.phi.density @ table.entries[1]
    assert np.allclose(prod.blocks[0], np.diag([2 / 3, 1 / 3]))


def test_cocycle_axioms_on_random_instances(rng):
    for _ in range(15):
        inst = random_instance(rng)
        table = build_table(inst.phi, inst.group)
        assert verify_cocycle_identity(table).passed
        assert verify_inverse_formula(table).passed
        assert verify_adjoint_relation(table).passed
        assert (table.entries[0] - identity(inst.descriptor)).op_norm() <= 1e-12
        assert table.lambda_bound >= 1.0 - 1e-12


def test_commutative_oracle(rng):
    # all 1x1 blocks: the cocycle is the elementwise ratio p_{perm(i)}/p_i
    k = 5
    desc = AlgebraDescriptor((1,) * k)
    p = 0.1 + rng.random(k)
    p /= p.sum()
    phi = state_from_density(AlgebraElement(
        desc, [np.array([[pi]]) for pi in p]))
    perm = tuple(np.roll(np.arange(k), 1))
    from generators import permutation_generator
    g = permutation_generator(desc, perm)
    x = rn_cocycle(phi, g)
    got = np.array([x.blocks[i][0, 0].real for i in range(k)])
    oracle = np.array([p[perm[i]] / p[i] for i in range(k)])
    assert np.max(np.abs(got - oracle)) < 1e-12


def test_base_change_consistency(rng):
    # the table of phi o g0 relates to the original by
    # x^{phi o g0}_g = (x_{g0})^-1 x_{g0 g}
    inst = random_instance(rng, AlgebraDescriptor((2, 2)))
    phi, grp = inst.phi, inst.group
    table = build_table(phi, grp)
    mult = multiplication_table(grp)
    for i0 in range(grp.order):
        g0 = grp.elements[i0]
        rho2 = predual(g0, phi.density)
        phi2 = state_from_density(rho2)
        table2 = build_table(phi2, grp)
        x0_inv = table.entries[i0].inv()
        for j in range(grp.order):
            expected = x0_inv @ table.entries[mult[i0, j]]
            assert (table2.entries[j] - expected).op_norm() < 1e-9 * max(
                1.0, expected.op_norm())


def test_is_strongly_qi_qubit(qubit):
    table = build_table(qubit.phi, qubit.group)
    strong, checks = is_strongly_qi(table, TOL_EQ, TOL_POS)
    assert strong and all_passed(checks)
    # spectrum window [1/lambda, lambda] = [1/2, 2]
    spec = np.linalg.eigvalsh(table.entries[1].blocks[0])
    assert spec.min() >= 0.5 - 1e-12 and spec.max() <= 2.0 + 1e-12


def test_is_strongly_qi_detects_failure(rng):
    # Hadamard twist: rho and g(rho) do not commute, cocycle not Hermitian
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])]))
    grp = close_group([inner_generator(desc, 0, hadamard2())], cap=4)
    table = build_table(phi, grp)
    strong, _ = is_strongly_qi(table, TOL_EQ, TOL_POS)
    assert not strong
    # oracle: the commutator [rho, predual(rho)] is visibly nonzero
    comm = (phi.density @ predual(grp.elements[1], phi.density)
            - predual(grp.elements[1], phi.density) @ phi.density)
    assert comm.op_norm() > 1e-3


def test_is_strongly_qi_trivially_true_for_invariant():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.eye(2) / 2]))
    grp = close_group([inner_generator(desc, 0, np.array([[0, 1.], [1., 0]]))], cap=4)
    strong, checks = is_strongly_qi(build_table(phi, grp), TOL_EQ, TOL_POS)
    assert strong and all_passed(checks)


def test_sz_domination_identity_is_equality(probe_rng):
    # an invariant state: every x_g is the identity, so phi(x_g a) = ||x_g|| phi(a)
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.eye(2) / 2]))
    grp = close_group([inner_generator(desc, 0, np.array([[0, 1.], [1., 0]]))], cap=4)
    probes = [random_psd_probe(probe_rng, desc) for _ in range(5)]
    check = sz_domination(build_table(phi, grp), probes)
    assert check.passed and check.residual <= 1e-12


def test_sz_domination_on_cocycle_elements(rng, probe_rng):
    for _ in range(5):
        inst = random_instance(rng)
        probes = [random_psd_probe(probe_rng, inst.descriptor) for _ in range(5)]
        assert sz_domination(build_table(inst.phi, inst.group), probes).passed


def test_sandwich_qubit_hand_value(qubit, rng):
    # a = diag(1, 0): phi(x_g a) = 2/3 inside [phi(a)/2, 2 phi(a)] = [1/6, 2/3]
    table = build_table(qubit.phi, qubit.group)
    a = AlgebraElement(qubit.descriptor, [np.diag([1.0, 0.0])])
    check = sandwich_check(table, [a])
    assert check.passed
    from qistate.algebra import evaluate
    assert evaluate(qubit.phi, table.entries[1] @ a).real == pytest.approx(2 / 3)


def test_sandwich_equalities_for_invariant(probe_rng):
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.eye(2) / 2]))
    grp = close_group([inner_generator(desc, 0, np.array([[0, 1.], [1., 0]]))], cap=4)
    table = build_table(phi, grp)
    probes = [random_psd_probe(probe_rng, desc) for _ in range(5)]
    check = sandwich_check(table, probes)
    assert check.passed and check.residual <= 1e-12


def test_sandwich_random_instances(rng, probe_rng):
    for _ in range(5):
        inst = random_instance(rng)
        table = build_table(inst.phi, inst.group)
        probes = [random_psd_probe(probe_rng, inst.descriptor) for _ in range(5)]
        assert sandwich_check(table, probes).passed


def test_strong_instances_are_strong(rng):
    for _ in range(8):
        inst = random_strong_instance(rng)
        strong, checks = is_strongly_qi(build_table(inst.phi, inst.group), TOL_EQ, TOL_POS)
        assert strong and all_passed(checks)


def matrix_unit_defect(phi, g, x):
    """Oracle: max |phi(g(E)) - phi(x E)| by a loop over the matrix units."""
    return max(abs(evaluate(phi, apply(g, a)) - evaluate(phi, x @ a))
               for a in matrix_unit_basis(phi.descriptor))


def multi_block_instances(rng):
    for dims in ((2, 2), (1, 1, 2), (2, 2, 3), (3, 3)):
        yield random_instance(rng, AlgebraDescriptor(dims))


def test_table_satisfies_the_defining_relation(rng):
    # phi(g(a)) = phi(x_g a) holds by construction, up to roundoff
    for inst in multi_block_instances(rng):
        table = build_table(inst.phi, inst.group)
        for g, x in zip(inst.group.elements, table.entries):
            assert matrix_unit_defect(inst.phi, g, x) <= 1e-14 * max(1.0, x.op_norm())
