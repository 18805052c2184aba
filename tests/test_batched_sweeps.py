"""The stacked group sweeps against the per-element loops they replaced.

The reference functions below are the loop versions of the Gamma suite,
the expectation checks, the fixed-algebra closure check and ``verify_ks``:
one checked element and one ``apply`` at a time.  The stacked versions must
reproduce every residual to 1e-12 and must not do quadratic work.
"""

import sys

import numpy as np
import pytest

from qistate import actions
from qistate.actions import apply, close_group
from qistate.algebra import (AlgebraDescriptor, AlgebraElement, evaluate, identity,
                             left_mult_matrix, matrix_unit_basis, state_from_density,
                             unvec, vec)
from qistate.analysis import Analysis
from qistate.cocycle import random_probe
from qistate.expectation import closure_residual, expectation_checks, verify_ks
from qistate.instances import (clock_matrix, inner_generator, permutation_generator,
                               random_faithful_density, random_instance,
                               random_strong_instance, shift_matrix)
from qistate.invariant import gamma_map, gamma_properties_check
from qistate.matcore import TOL_EQ, TOL_POS, dagger


# -- the loops the stacked sweeps replaced -------------------------------------

def reference_phi(group, a):
    out = 0.0 * a
    for g in group.elements:
        out = out + apply(g, a)
    return (1.0 / group.order) * out


def reference_span_distance(fa, a):
    return (a - unvec(fa.descriptor, fa.q @ (dagger(fa.q) @ vec(a)))).hs_norm()


def reference_gamma_properties(an, rng, n_probes=4):
    table = an.table
    phi, group = table.phi, table.group
    probes = [random_probe(rng, phi.descriptor) for _ in range(n_probes)]
    out = dict.fromkeys(("gamma_permutes_cocycle", "gamma_multiplicative",
                         "gamma_preserves_state", "gamma_twisted_product",
                         "gamma_adjoint"), 0.0)
    for i in range(group.order):
        for h in range(group.order):
            lhs = gamma_map(table, i, table.entries[h])
            rhs = table.entries[group.mult[h, group.inv[i]]]
            out["gamma_permutes_cocycle"] = max(out["gamma_permutes_cocycle"],
                                                (lhs - rhs).op_norm())
    for i in range(group.order):
        for j in range(group.order):
            for a in probes:
                lhs = gamma_map(table, group.mult[i, j], a)
                rhs = gamma_map(table, i, gamma_map(table, j, a))
                out["gamma_multiplicative"] = max(out["gamma_multiplicative"],
                                                  (lhs - rhs).op_norm() / max(1.0, a.op_norm()))
    for i in range(group.order):
        for a in matrix_unit_basis(phi.descriptor):
            out["gamma_preserves_state"] = max(
                out["gamma_preserves_state"],
                abs(evaluate(phi, gamma_map(table, i, a)) - evaluate(phi, a)))
    for i in range(group.order):
        xinv = table.inverses[group.inv[i]]
        for a in probes[:2]:
            for b in probes[2:]:
                lhs = gamma_map(table, i, a @ b)
                rhs = gamma_map(table, i, a) @ xinv @ gamma_map(table, i, b)
                out["gamma_twisted_product"] = max(
                    out["gamma_twisted_product"],
                    (lhs - rhs).op_norm() / max(1.0, a.op_norm() * b.op_norm()))
    for i in range(group.order):
        x, xinv = table.entries[group.inv[i]], table.inverses[group.inv[i]]
        for a in probes:
            lhs = gamma_map(table, i, a).adjoint()
            rhs = xinv @ gamma_map(table, i, a.adjoint()) @ x.adjoint()
            out["gamma_adjoint"] = max(out["gamma_adjoint"],
                                       (lhs - rhs).op_norm() / max(1.0, a.op_norm()))
    return out


def reference_expectation_checks(an, rng, n_probes=4):
    psi, group, fa = an.certificate.psi, an.group, an.fixed
    desc = psi.descriptor
    probes = [random_probe(rng, desc) for _ in range(n_probes)]
    ident = identity(desc)

    def phi_(a):
        return reference_phi(group, a)

    out = {
        "range": max(reference_span_distance(fa, phi_(a)) for a in probes),
        "idempotent": max((phi_(phi_(a)) - phi_(a)).op_norm() for a in probes),
        "unital": (phi_(ident) - ident).op_norm(),
    }
    pos_defect = 0.0
    for a in probes:
        p = a @ a.adjoint()
        pos_defect = max(pos_defect, max(0.0, -phi_(p).min_eig() / max(1.0, p.op_norm())))
    out["positive"] = pos_defect
    out["state_invariance"] = max(abs(evaluate(psi, phi_(a)) - evaluate(psi, a))
                                  for a in matrix_unit_basis(desc))
    worst = 0.0
    for b in fa.basis:
        for c in fa.basis:
            for a in probes[:2]:
                worst = max(worst, (phi_(b @ a @ c) - b @ phi_(a) @ c).op_norm()
                            / max(1.0, a.op_norm()))
    out["bimodule"] = worst
    return out


def reference_closure_residual(fa):
    worst = 0.0
    for b in fa.basis:
        worst = max(worst, reference_span_distance(fa, b.adjoint()))
        for c in fa.basis:
            worst = max(worst, reference_span_distance(fa, b @ c))
    return worst


def reference_verify_ks(an):
    phi, psi, group = an.phi, an.certificate.psi, an.group
    us, e0, d = an.unitaries, an.e0, an.certificate.d
    basis = matrix_unit_basis(phi.descriptor)

    def phi_(a):
        return reference_phi(group, a)

    compression = 0.0
    for b in basis:
        lhs = left_mult_matrix(phi_(b)) @ e0.matrix
        rhs = e0.matrix @ left_mult_matrix(b) @ e0.matrix
        compression = max(compression, float(np.linalg.norm(lhs - rhs, 2)))
    d_inv = d.inv()
    decomposition = max(abs(evaluate(phi, a) - evaluate(psi, phi_(d_inv @ a))) for a in basis)
    mean_worst = 0.0
    for b in basis:
        mean = np.zeros((phi.descriptor.dim,) * 2, dtype=complex)
        for i in range(group.order):
            mean += us[group.inv[i]].matrix @ left_mult_matrix(b) @ us[i].matrix
        mean /= group.order
        mean_worst = max(mean_worst, float(np.linalg.norm(mean - left_mult_matrix(phi_(b)), 2)))
    return {"compression": compression, "state_decomposition": decomposition,
            "mean_formula": mean_worst}


# -- instances -------------------------------------------------------------------

def _random(dims, seed, strong=False):
    make = random_strong_instance if strong else random_instance
    return make(np.random.default_rng(seed), AlgebraDescriptor(dims))


INSTANCES = {
    "qubit": lambda request: request.getfixturevalue("qubit"),
    "c2_swap": lambda request: request.getfixturevalue("c2_swap"),
    "m2m2_swap": lambda request: request.getfixturevalue("m2m2_swap"),
    "nonstrong_weyl3": lambda request: request.getfixturevalue("nonstrong"),
    # a 3-cycle of the blocks and a non-abelian group (mult is not symmetric)
    "random_222": lambda request: _random((2, 2, 2), 0),
    # a block swap with inner unitaries, non-abelian
    "random_33": lambda request: _random((3, 3), 0),
    "random_strong": lambda request: _random((2, 2, 2), 1, strong=True),
}


STRONG = ("qubit", "c2_swap", "m2m2_swap", "random_strong")


def make_analysis(name, request):
    inst = INSTANCES[name](request)
    return Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)


@pytest.fixture(params=sorted(INSTANCES))
def analysis(request):
    return make_analysis(request.param, request)


def assert_residuals_match(checks, reference):
    got = {c.name: c.residual for c in checks}
    assert set(reference) <= set(got)
    for name, value in reference.items():
        assert abs(got[name] - value) <= 1e-12, (name, got[name], value)


def test_random_instances_move_blocks_and_do_not_commute():
    for dims in ((2, 2, 2), (3, 3)):
        group = _random(dims, 0).group
        assert np.any(group.mult != group.mult.T)
        assert any(g.perm != tuple(range(len(dims))) for g in group.elements)
        assert any(np.linalg.norm(u - np.eye(len(u))) > 1e-3
                   for g in group.elements for u in g.unitaries)
    assert any(g.perm != g.inv_perm for g in _random((2, 2, 2), 0).group.elements)


def test_gamma_properties_match_loops(analysis):
    checks = gamma_properties_check(analysis, np.random.default_rng(7))
    reference = reference_gamma_properties(analysis, np.random.default_rng(7))
    assert_residuals_match(checks, reference)


def test_expectation_checks_match_loops(analysis):
    checks = expectation_checks(analysis, np.random.default_rng(7))
    reference = reference_expectation_checks(analysis, np.random.default_rng(7))
    assert_residuals_match(checks, reference)


def test_closure_residual_matches_loops(analysis):
    fa = analysis.fixed
    assert abs(closure_residual(fa) - reference_closure_residual(fa)) <= 1e-12


@pytest.mark.parametrize("name", STRONG)
def test_verify_ks_matches_loops(name, request):
    an = make_analysis(name, request)
    assert an.strong
    assert_residuals_match(verify_ks(an), reference_verify_ks(an))


# -- work count ------------------------------------------------------------------

def count_work(monkeypatch, run):
    """Calls of ``actions.apply`` (through every binding in a loaded qistate
    module) and ``AlgebraElement`` constructions made by ``run()``."""
    counts = {"apply": 0, "element": 0}
    original_apply, original_init = actions.apply, AlgebraElement.__init__

    def counted_apply(*args, **kwargs):
        counts["apply"] += 1
        return original_apply(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["element"] += 1
        original_init(self, *args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "qistate" or key.startswith("qistate."):
            for attr, value in list(vars(module).items()):
                if value is original_apply:
                    monkeypatch.setattr(module, attr, counted_apply)
    monkeypatch.setattr(AlgebraElement, "__init__", counted_init)
    run()
    monkeypatch.undo()
    return counts


# Allowed work per sweep, in units of |G| + dim B + N.  Before the sweeps
# were stacked, the Gamma suite on Weyl(5) made about 9000 apply calls
# (|G|^2 pairs times probes), and fixed_algebra plus expectation_checks on
# 2 x M_5 made one projection per pair of basis elements.
WORK_FACTOR = 2


def test_gamma_suite_work_is_linear(monkeypatch):
    desc = AlgebraDescriptor((5,))
    group = close_group([inner_generator(desc, 0, shift_matrix(5)),
                         inner_generator(desc, 0, clock_matrix(5))])
    phi = state_from_density(random_faithful_density(np.random.default_rng(3), desc))
    an = Analysis(phi, group, TOL_EQ, TOL_POS)
    an.table
    counts = count_work(monkeypatch, lambda: gamma_properties_check(an))
    size = group.order + 1 + desc.dim
    assert counts["apply"] + counts["element"] <= WORK_FACTOR * size, counts


def test_expectation_work_is_linear(monkeypatch):
    desc = AlgebraDescriptor((5, 5))
    group = close_group([permutation_generator(desc, [1, 0])])
    phi = state_from_density(random_faithful_density(np.random.default_rng(3), desc))
    an = Analysis(phi, group, TOL_EQ, TOL_POS)
    an.certificate

    def run():
        an.fixed
        expectation_checks(an)

    counts = count_work(monkeypatch, run)
    size = group.order + an.fixed.dimension + desc.dim
    assert an.fixed.dimension == 25
    assert counts["apply"] + counts["element"] <= WORK_FACTOR * size, counts
