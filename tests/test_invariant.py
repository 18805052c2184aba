import dataclasses
import random

import numpy as np
import pytest

from qistate.algebra import AlgebraDescriptor, AlgebraElement, evaluate, identity
from qistate.actions import apply, close_group
from qistate.analysis import Analysis
from qistate.cocycle import build_table, random_psd_probe
from qistate.invariant import (cocycle_from_d, fixed_density_d, gamma_map,
                               gamma_properties_check, invariant_state,
                               strong_case_check)
from qistate.matcore import PreconditionError, TOL_EQ, TOL_POS
from generators import (all_passed, inner_generator, multiplication_table, random_instance,
                        random_strong_instance, state_from_density)


def invariant_qubit():
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.eye(2) / 2]))
    grp = close_group([inner_generator(desc, 0, np.array([[0, 1.], [1., 0]]))], cap=4)
    return phi, grp


def test_gamma_identity_element(qubit):
    a = random_psd_probe(random.Random(0), qubit.descriptor)
    out = gamma_map(build_table(qubit.phi, qubit.group), 0, a)
    assert (out - a).op_norm() <= 1e-12


def test_gamma_permutes_cocycle_entries(qubit):
    # Gamma_g(x_h) = x_{h g^-1}, checked via the group table
    table = build_table(qubit.phi, qubit.group)
    grp = qubit.group
    mult = multiplication_table(grp)
    for i in range(grp.order):
        for h in range(grp.order):
            lhs = gamma_map(table, i, table.entries[h])
            rhs = table.entries[mult[h, grp.inv[i]]]
            assert (lhs - rhs).op_norm() < 1e-12


def test_gamma_composition_random(rng, probe_rng):
    inst = random_instance(rng, AlgebraDescriptor((2, 2)))
    grp = inst.group
    table = build_table(inst.phi, grp)
    a = random_psd_probe(probe_rng, inst.descriptor)
    mult = multiplication_table(grp)
    for i in range(grp.order):
        for j in range(grp.order):
            lhs = gamma_map(table, mult[i, j], a)
            rhs = gamma_map(table, i, gamma_map(table, j, a))
            assert (lhs - rhs).op_norm() < 1e-10 * max(1.0, rhs.op_norm())


def test_gamma_properties_trivial_group(probe_rng):
    desc = AlgebraDescriptor((2,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])]))
    grp = close_group([inner_generator(desc, 0, np.eye(2))], cap=2)
    checks = gamma_properties_check(Analysis(phi, grp, TOL_EQ, TOL_POS), probe_rng)
    assert all_passed(checks) and max(c.residual for c in checks) <= 1e-12


def test_gamma_properties_qubit(qubit, probe_rng):
    checks = gamma_properties_check(Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS),
                                    probe_rng)
    assert all_passed(checks) and max(c.residual for c in checks) < 1e-12


def test_gamma_properties_random(rng, probe_rng):
    inst = random_instance(rng)
    assert all_passed(gamma_properties_check(Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS),
                                             probe_rng))


def test_fixed_density_invariant_state():
    phi, grp = invariant_qubit()
    d, _ = fixed_density_d(build_table(phi, grp), TOL_EQ)
    assert (d - identity(phi.descriptor)).op_norm() <= 1e-12


def test_fixed_density_qubit_hand_value(qubit):
    # d = (1 + diag(2, 1/2)) / 2 = diag(3/2, 3/4)
    d, _ = fixed_density_d(build_table(qubit.phi, qubit.group), TOL_EQ)
    assert np.allclose(d.blocks[0], np.diag([1.5, 0.75]))
    assert evaluate(qubit.phi, d).real == pytest.approx(1.0)


def test_fixed_density_c2_hand_value(c2_swap):
    # mean of (1,1) and (3, 1/3)
    d, _ = fixed_density_d(build_table(c2_swap.phi, c2_swap.group), TOL_EQ)
    assert d.blocks[0][0, 0].real == pytest.approx(2.0)
    assert d.blocks[1][0, 0].real == pytest.approx(2 / 3)


def test_fixed_density_is_gamma_fixed(rng):
    inst = random_instance(rng)
    table = build_table(inst.phi, inst.group)
    d, residual = fixed_density_d(table, TOL_EQ)
    for i in range(inst.group.order):
        assert (gamma_map(table, i, d) - d).op_norm() < 1e-9 * max(1.0, d.op_norm())
    # the stacked residual is the loop's max_g ||Gamma_g(d) - d||
    loop = max((gamma_map(table, i, d) - d).op_norm() for i in range(inst.group.order))
    assert abs(residual - loop) <= 1e-12


def test_invariant_state_qubit_is_tracial(qubit):
    table = build_table(qubit.phi, qubit.group)
    cert = invariant_state(table, TOL_EQ, TOL_POS)
    assert np.allclose(cert.psi.density.blocks[0], np.eye(2) / 2)
    assert table.lambda_bound == pytest.approx(2.0)
    assert [c.passed for c in cert.checks] == [True, True, True]


def test_invariant_state_fixed_point_case():
    phi, grp = invariant_qubit()
    cert = invariant_state(build_table(phi, grp), TOL_EQ, TOL_POS)
    assert (cert.d - identity(phi.descriptor)).op_norm() <= 1e-12
    assert (cert.psi.density - phi.density).op_norm() <= 1e-12


def test_invariant_state_c2_uniform(c2_swap):
    cert = invariant_state(build_table(c2_swap.phi, c2_swap.group), TOL_EQ, TOL_POS)
    assert cert.psi.density.blocks[0][0, 0].real == pytest.approx(0.5)
    assert cert.psi.density.blocks[1][0, 0].real == pytest.approx(0.5)


def test_invariant_state_invariance_and_margin(rng):
    from qistate.actions import predual
    for _ in range(6):
        inst = random_instance(rng)
        table = build_table(inst.phi, inst.group)
        cert = invariant_state(table, TOL_EQ, TOL_POS)
        rho_psi = cert.psi.density
        for g in inst.group.elements:
            assert (predual(g, rho_psi) - rho_psi).op_norm() < 1e-9
        # faithfulness margin from the sandwich bound
        assert rho_psi.min_eig() >= inst.phi.density.min_eig() / table.lambda_bound - 1e-9
        # psi o g = psi as functionals
        from qistate.algebra import matrix_unit_basis
        for a in matrix_unit_basis(inst.descriptor):
            for g in inst.group.elements:
                assert abs(evaluate(cert.psi, apply(g, a))
                           - evaluate(cert.psi, a)) < 1e-9


def test_perturbed_table_fails_the_gamma_fixed_d_check(nonstrong):
    # x_k + delta rho^-1 h with h Hermitian and traceless keeps phi(d) = 1
    # and rho d Hermitian, so no refusal fires; but the average is no longer
    # Gamma-fixed, and the reported check must say so
    table = build_table(nonstrong.phi, nonstrong.group)
    desc, k = nonstrong.descriptor, 1
    rng = np.random.default_rng(3)
    m = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         for n in desc.block_dims]
    h = AlgebraElement(desc, [b + b.conj().T for b in m])
    h = h - (sum(np.trace(b).real for b in h.blocks) / sum(desc.block_dims)) * identity(desc)
    blocks = [b.copy() for b in table.entries.blocks]
    for b, y in zip(blocks, (1e-3 * nonstrong.phi.density.inv() @ h).blocks):
        b[k] += y
    bad = dataclasses.replace(table, entries=AlgebraElement(desc, blocks))
    cert = invariant_state(bad, TOL_EQ, TOL_POS)
    assert not cert.gamma_fixed.passed
    assert cert.gamma_fixed.residual > 1e3 * cert.gamma_fixed.threshold
    assert abs(evaluate(nonstrong.phi, cert.d) - 1.0) <= TOL_EQ


def test_cocycle_from_d_identity_case():
    phi, grp = invariant_qubit()
    x = cocycle_from_d(build_table(phi, grp), identity(phi.descriptor), 1)
    assert (x - identity(phi.descriptor)).op_norm() <= 1e-12


def test_cocycle_from_d_qubit_hand_value(qubit):
    # d X d^-1 X = diag(3/2 * 4/3, 3/4 * 2/3) = diag(2, 1/2)
    table = build_table(qubit.phi, qubit.group)
    x = cocycle_from_d(table, fixed_density_d(table, TOL_EQ)[0], 1)
    assert np.allclose(x.blocks[0], np.diag([2.0, 0.5]))


def test_cocycle_from_d_roundtrip_and_bound(rng):
    for _ in range(6):
        inst = random_strong_instance(rng)
        table = build_table(inst.phi, inst.group)
        cert = invariant_state(table, TOL_EQ, TOL_POS)
        bound = cert.d.op_norm() * cert.d.inv().op_norm()
        for i in range(inst.group.order):
            x = cocycle_from_d(table, cert.d, i)
            assert (x - table.entries[i]).op_norm() < 1e-9 * max(1.0, bound)
            assert x.op_norm() <= bound + 1e-9


def test_cocycle_from_d_rejects_singular_d(qubit):
    d = AlgebraElement(qubit.descriptor, [np.diag([1.0, 0.0])])
    with pytest.raises(PreconditionError, match="singular"):
        cocycle_from_d(build_table(qubit.phi, qubit.group), d, 1)


def test_cocycle_from_d_rejects_non_invariant(qubit):
    # d = rho gives psi proportional to rho^2, not flip-invariant
    d = 1.0 / evaluate(qubit.phi, qubit.phi.density).real * qubit.phi.density
    with pytest.raises(PreconditionError, match="not invariant"):
        cocycle_from_d(build_table(qubit.phi, qubit.group), d, 1)


def test_strong_case_qubit(qubit):
    an = Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS)
    checks = strong_case_check(an)
    assert all_passed(checks)
    d, _ = fixed_density_d(an.table, TOL_EQ)
    spec = np.linalg.eigvalsh(d.blocks[0])
    assert spec.min() >= 0.5 - 1e-12 and spec.max() <= 2.0 + 1e-12
    g = qubit.group.elements[1]
    assert (d @ apply(g, d) - apply(g, d) @ d).op_norm() < 1e-12


def test_strong_case_trivially_passes_for_invariant():
    phi, grp = invariant_qubit()
    assert all_passed(strong_case_check(Analysis(phi, grp, TOL_EQ, TOL_POS)))


def test_strong_case_random_generate_and_verify(rng):
    for _ in range(6):
        inst = random_strong_instance(rng)
        assert all_passed(strong_case_check(Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)))


def test_strong_case_rejects_non_strong(nonstrong):
    with pytest.raises(PreconditionError, match="not strongly"):
        strong_case_check(Analysis(nonstrong.phi, nonstrong.group, TOL_EQ, TOL_POS))
