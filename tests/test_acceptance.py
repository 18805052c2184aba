"""Acceptance suite: each test drives one exit criterion at its stated
tolerance over randomized instance families and prints a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import numpy as np
import pytest

from qistate.algebra import AlgebraDescriptor, AlgebraElement, evaluate, matrix_unit_basis
from qistate.actions import apply, close_group
from qistate.analysis import Analysis
from qistate.cocycle import (build_table, random_psd_probe, sandwich_check,
                             sz_domination,
                             verify_adjoint_relation, verify_cocycle_identity,
                             verify_inverse_formula)
from qistate.commutative import (AxBElement, axb_chain_rule, axb_quasi_invariance,
                                 symmetric_grid, translation_chain_rule,
                                 translation_quasi_invariance, unboundedness_witness)
from qistate.expectation import (cond_expectation, expectation_checks,
                                 fixed_algebra, verify_ks)
from qistate.invariant import (cocycle_from_d, fixed_density_d,
                               invariant_state, strong_case_check)
from qistate.matcore import TOL_EQ, TOL_POS
from qistate.standard_form import (gamma_factorization, lemma_chain_checks,
                                   verify_covariance, verify_representation)
from qistate.trace import (invariant_trace, is_center_ergodic, trace_density,
                           verify_density_relations)
from generators import (all_passed, c2_swap_instance, dense_unitaries, m2m2_swap_instance,
                        nonstrong_instance, permutation_generator, qubit_instance, random_instance,
                        random_strong_instance, state_from_density)
from test_trace import invariance_solution_space

TOL = 1e-9


def report(criterion, passed, detail=""):
    line = f"{'PASS' if passed else 'FAIL'} {criterion}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    assert passed, line


@pytest.fixture(scope="module")
def instance_family():
    """The shared pool: 200 generic instances, dims in {1,2,3}, k <= 3."""
    rng = np.random.default_rng(987654321)
    return [random_instance(rng) for _ in range(200)], rng


@pytest.fixture(scope="module")
def strong_family():
    rng = np.random.default_rng(24681357)
    shipped = [qubit_instance(), c2_swap_instance(), m2m2_swap_instance()]
    return shipped + [random_strong_instance(rng) for _ in range(40)], rng


def test_criterion_1_cocycle_axioms(instance_family):
    instances, _ = instance_family
    t0 = time.time()
    worst = 0.0
    for inst in instances:
        table = build_table(inst.phi, inst.group)
        for check in (verify_cocycle_identity(table),
                      verify_inverse_formula(table),
                      verify_adjoint_relation(table)):
            assert check.passed, (inst.descriptor.block_dims, check.name,
                                  check.residual, check.threshold)
            worst = max(worst, check.residual / max(1.0, check.threshold / TOL))
    elapsed = time.time() - t0
    report("criterion 1: cocycle identity, inverse formula, adjoint relation "
           "< 1e-9 relative on 200 random instances",
           worst < TOL and elapsed < 60.0,
           f"worst rel residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_domination_and_sandwich(instance_family):
    instances, _ = instance_family
    rng = random.Random(987654321)
    n_probes, worst = 0, 0.0
    for inst in instances:
        table = build_table(inst.phi, inst.group)
        probes = [random_psd_probe(rng, inst.descriptor) for _ in range(5)]
        n_probes += len(probes)
        sw = sandwich_check(table, probes)
        assert sw.passed, (inst.descriptor.block_dims, sw.residual)
        worst = max(worst, sw.residual / max(1.0, table.lambda_bound))
        dom = sz_domination(table, probes)
        assert dom.passed
        # the largest residual over the group bounds each relative one
        worst = max(worst, dom.residual)
        if n_probes >= 1000:
            break
    report("criterion 2: positive-form domination and two-sided sandwich "
           "bounds hold on 1000 PSD probes",
           n_probes >= 1000 and worst < TOL,
           f"{n_probes} probes, worst violation {worst:.2e}")


def test_criterion_3_invariant_state_roundtrip(strong_family):
    instances, _ = strong_family
    worst = 0.0
    for inst in instances:
        an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
        cert, table = an.certificate, an.table
        lam = table.lambda_bound
        # forward: Gamma-fixed d, invariant psi, faithfulness margin
        assert cert.gamma_fixed.residual < TOL * max(1.0, cert.d.op_norm())
        assert cert.invariance.residual < TOL
        margin_floor = inst.phi.density.min_eig() / lam - TOL
        assert cert.psi.density.min_eig() >= margin_floor
        # converse: d reproduces the cocycle with the norm bound
        bound = cert.d.op_norm() * cert.d.inv().op_norm()
        for i in range(inst.group.order):
            x = cocycle_from_d(table, cert.d, i)
            diff = (x - table.entries[i]).op_norm()
            worst = max(worst, diff / max(1.0, lam))
            assert diff < TOL * max(1.0, lam)
            assert x.op_norm() <= bound + TOL
    report("criterion 3: invariant-state roundtrip (forward and converse) "
           "on all strongly quasi-invariant instances",
           True, f"{len(instances)} instances, worst residual {worst:.2e}")


def test_criterion_4_strong_structure(strong_family):
    instances, _ = strong_family
    for inst in instances:
        an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
        table = an.table
        lam = table.lambda_bound
        d, _ = fixed_density_d(table, TOL_EQ)
        for x in list(table.entries) + [d]:
            for block in x.blocks:
                spec = np.linalg.eigvalsh(block)
                assert spec.min() >= 1.0 / lam - TOL
                assert spec.max() <= lam + TOL
        for g in inst.group.elements:
            gd = apply(g, d)
            assert (d @ gd - gd @ d).op_norm() < TOL * max(1.0, d.op_norm() ** 2)
        assert all_passed(strong_case_check(an))
    report("criterion 4: strong case gives spectra inside [1/lambda, lambda] "
           "and a commuting orbit of d", True,
           f"{len(instances)} instances")


def test_criterion_5_spatial_implementation(strong_family):
    rng = np.random.default_rng(11235813)
    strong_instances = strong_family[0][:12]
    generic = [random_instance(rng) for _ in range(8)] + [nonstrong_instance()]
    worst = 0.0
    for inst in strong_instances + generic:
        an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
        strong, us = an.strong, dense_unitaries(an)
        n = inst.descriptor.dim
        for u in us:
            worst = max(worst,
                        np.linalg.norm(u.conj().T @ u - np.eye(n), 2),
                        np.linalg.norm(u @ u.conj().T - np.eye(n), 2))
        cov = verify_covariance(an)
        assert cov.passed
        worst = max(worst, cov.residual)
        chain = lemma_chain_checks(an)
        assert all_passed(chain), [(c.name, c.residual) for c in chain]
        gchecks = gamma_factorization(an)
        assert all_passed(gchecks), [(c.name, c.residual) for c in gchecks]
        rep = verify_representation(an)
        if strong:
            assert rep.passed and rep.residual < TOL
            worst = max(worst, rep.residual)
        else:
            assert np.isfinite(rep.residual)   # diagnostic only
    report("criterion 5: unitarity, covariance, density chain, factorizations "
           "< 1e-9; product rule on strong instances", worst < TOL,
           f"worst residual {worst:.2e}")


def test_criterion_6_expectation_suite():
    rng = np.random.default_rng(31415926)
    probe_rng = random.Random(31415926)
    instances = [qubit_instance(), c2_swap_instance(), m2m2_swap_instance()]
    # random strong instances up to the N <= 64 cap
    dims_pool = [(2, 2), (3, 3), (2, 2, 2), (3, 3, 2), (1, 2, 3),
                 (4, 4), (4, 4, 4)]
    for dims in dims_pool:
        instances.append(random_strong_instance(rng, AlgebraDescriptor(dims)))
    assert all(i.descriptor.dim <= 64 for i in instances)
    worst = 0.0
    for inst in instances:
        an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
        checks = expectation_checks(an, probe_rng)
        assert all_passed(checks), [(c.name, c.residual) for c in checks]
        worst = max(worst, max(c.residual for c in checks))
        ks = verify_ks(an)
        assert all_passed(ks), [(c.name, c.residual) for c in ks]
        worst = max(worst, max(c.residual for c in ks))
        f0 = an.f0
        assert f0.identity_residual < TOL, (inst.descriptor.block_dims,
                                            f0.identity_residual)
        worst = max(worst, f0.identity_residual)
    report("criterion 6: expectation laws, compression/decomposition/mean "
           "formulas, and F0 = 1 on strong instances with dim <= 64",
           worst < TOL, f"{len(instances)} instances, worst {worst:.2e}")


def test_criterion_7_invariant_trace():
    rng = np.random.default_rng(27182818)
    instances = [qubit_instance(), c2_swap_instance(), m2m2_swap_instance(),
                 nonstrong_instance()]
    while len(instances) < 24:
        inst = random_instance(rng)
        if is_center_ergodic(inst.group):
            instances.append(inst)
    worst = 0.0
    for inst in instances:
        assert is_center_ergodic(inst.group)
        assert invariance_solution_space(inst.group).shape[1] == 1
        # tau is the block trace: every weight is 1
        assert np.array_equal(invariant_trace(inst.group), np.ones(inst.descriptor.num_blocks))
        c = trace_density(inst.phi, TOL_POS)
        for a in matrix_unit_basis(inst.descriptor):
            diff = abs(evaluate(inst.phi, a) - (c @ a).trace())
            worst = max(worst, diff)
            assert diff < TOL
        an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
        rel = verify_density_relations(an)
        assert all_passed(rel), [(ch.name, ch.residual) for ch in rel]
        worst = max(worst, max(c.residual for c in rel) / max(1.0, an.table.lambda_bound))
    report("criterion 7: unique invariant trace and its density relations "
           "on center-ergodic instances", worst < TOL,
           f"{len(instances)} instances, worst {worst:.2e}")


def test_criterion_8_commutative_suite():
    rng = np.random.default_rng(16180339)
    grid = symmetric_grid(100.0, 1001)
    worst_pointwise = 0.0
    for _ in range(20):
        t1, t2 = rng.uniform(-5.0, 5.0, size=2)
        cs = translation_chain_rule([(float(t1), float(t2))], grid)
        assert cs.passed
        worst_pointwise = max(worst_pointwise, cs.residual)
        e1 = AxBElement(float(rng.uniform(0.3, 4.0)), float(rng.uniform(-3.0, 3.0)))
        e2 = AxBElement(float(rng.uniform(0.3, 4.0)), float(rng.uniform(-3.0, 3.0)))
        ca = axb_chain_rule([(e1, e2)], grid)
        assert ca.passed
        worst_pointwise = max(worst_pointwise, ca.residual)
    assert worst_pointwise < 1e-12

    bump = lambda s: np.exp(-0.5 * np.asarray(s, dtype=float) ** 2)
    assert translation_quasi_invariance(1.0, bump).passed
    assert axb_quasi_invariance(AxBElement(2.0, 1.0), bump).passed

    witness_ok = True
    for t in (1.0, 3.0, 10.0):
        witness_ok &= unboundedness_witness(t).passed
    report("criterion 8: pointwise cocycle identities < 1e-12 on 1001-point "
           "grids, quadrature quasi-invariance within budget, witnesses 1+t^2",
           witness_ok, f"worst pointwise {worst_pointwise:.2e}")


def test_criterion_9_commutative_brute_force_oracle():
    rng = np.random.default_rng(14142135)
    worst = 0.0
    for k in (2, 3, 4, 5, 6, 8):
        desc = AlgebraDescriptor((1,) * k)
        p = 0.1 + rng.random(k)
        p /= p.sum()
        phi = state_from_density(AlgebraElement(
            desc, [np.array([[v]]) for v in p]))
        perm = tuple(np.roll(np.arange(k), 1))       # transitive cycle
        group = close_group([permutation_generator(desc, perm)], cap=k + 1)

        # elementwise probability-vector oracle, no matrix machinery
        perms = [g.perm for g in group.elements]
        xs_oracle = [np.array([p[pi[i]] / p[i] for i in range(k)])
                     for pi in perms]
        d_oracle = np.mean(xs_oracle, axis=0)
        psi_oracle = p * d_oracle
        c_oracle = p.copy()                          # unit trace weights

        def flat(x):
            return np.array([x.blocks[i][0, 0].real for i in range(k)])

        table = build_table(phi, group)
        for i in range(group.order):
            worst = max(worst, np.max(np.abs(flat(table.entries[i]) - xs_oracle[i])))
        cert = invariant_state(table, TOL_EQ, TOL_POS)
        worst = max(worst, np.max(np.abs(flat(cert.d) - d_oracle)))
        worst = max(worst, np.max(np.abs(flat(cert.psi.density) - psi_oracle)))

        Phi = cond_expectation(cert, group, fixed_algebra(group, TOL_EQ, TOL_POS), TOL_POS)
        probe_vec = rng.random(k)
        probe = AlgebraElement(desc, [np.array([[v]]) for v in probe_vec])
        phi_oracle = np.mean([probe_vec[list(pi)] for pi in perms], axis=0)
        # averaging a |-> a o perm over the group hits every rotation once
        worst = max(worst, np.max(np.abs(flat(Phi(probe)) - phi_oracle)))

        worst = max(worst, np.max(np.abs(invariant_trace(group) - np.ones(k))))
        c = trace_density(phi, TOL_POS)
        worst = max(worst, np.max(np.abs(flat(c) - c_oracle)))
    report("criterion 9: commutative pipeline matches the elementwise "
           "probability-vector oracle within 1e-12", worst < 1e-12,
           f"worst deviation {worst:.2e}")
