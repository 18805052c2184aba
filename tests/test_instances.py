import numpy as np

from qistate.actions import equal_as_maps, identity_automorphism, predual
from qistate.algebra import evaluate
from qistate.cocycle import build_table, is_strongly_qi
from qistate.matcore import TOL_EQ, TOL_POS
from generators import (all_passed, clock_matrix, multiplication_table, qubit_instance,
                        random_descriptor, random_group, random_instance,
                        random_strong_instance, shift_matrix)


def test_shift_and_clock_orders():
    for n in (2, 3, 4):
        s, c = shift_matrix(n), clock_matrix(n)
        assert np.allclose(np.linalg.matrix_power(s, n), np.eye(n))
        assert np.allclose(np.linalg.matrix_power(c, n), np.eye(n))
        assert np.linalg.norm(s.conj().T @ s - np.eye(n)) < 1e-14


def test_random_descriptor_bounds(rng):
    for _ in range(20):
        desc = random_descriptor(rng)
        assert 1 <= desc.num_blocks <= 3
        assert all(d in (1, 2, 3) for d in desc.block_dims)


def test_random_group_is_closed(rng):
    for _ in range(10):
        desc = random_descriptor(rng)
        grp = random_group(rng, desc)
        assert 1 <= grp.order <= 24
        # tables are consistent permutations
        mult = multiplication_table(grp)
        for i in range(grp.order):
            assert sorted(mult[i]) == list(range(grp.order))
            assert mult[i, grp.inv[i]] == 0
        assert equal_as_maps(grp.elements[0], identity_automorphism(desc))


def test_random_instance_is_quasi_invariant(rng):
    inst = random_instance(rng)
    table = build_table(inst.phi, inst.group)   # raises if inconsistent
    assert table.lambda_bound >= 1.0 - 1e-12


def test_random_strong_instance_is_strong(rng):
    for _ in range(10):
        inst = random_strong_instance(rng)
        strong, checks = is_strongly_qi(build_table(inst.phi, inst.group), TOL_EQ, TOL_POS)
        assert strong and all_passed(checks)


def test_strong_instance_model_data_consistent(rng):
    # the construction's d implements the construction's invariant state
    inst = random_strong_instance(rng)
    lhs = inst.phi.density @ inst.model_d
    assert (lhs - inst.model_psi_density).op_norm() < 1e-10
    for g in inst.group.elements:
        assert (predual(g, inst.model_psi_density)
                - inst.model_psi_density).op_norm() < 1e-10
    assert abs(evaluate(inst.phi, inst.model_d) - 1.0) < 1e-10


def test_generic_instance_is_rarely_strong(rng):
    # a generic state aligned with nothing should not have Hermitian cocycles
    hits = 0
    for _ in range(10):
        inst = random_instance(rng)
        if inst.group.order == 1:
            continue
        strong, _ = is_strongly_qi(build_table(inst.phi, inst.group), TOL_EQ, TOL_POS)
        hits += bool(strong)
    assert hits <= 2


def test_qubit_instance_matches_reference():
    inst = qubit_instance()
    assert inst.group.order == 2
    assert np.allclose(inst.phi.density.blocks[0], np.diag([1 / 3, 2 / 3]))
