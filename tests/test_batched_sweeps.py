"""The batched group sweeps against the per-element loops they replaced.

The reference functions below are the loop versions of the cocycle
table, ``a_g``, the cocycle laws, positive-form domination, the Gamma
suite, the invariant state, the lemma chain and the Gamma factorization,
the trace laws, the expectation checks, the fixed-algebra closure check
and ``verify_ks``: one unbatched element and one ``apply`` at a time.  The laws of the spatial implementation U_g are checked
against dense N x N matrices assembled from kron products.  The batched
versions must reproduce every residual to 1e-12 (the U_g laws to 1e-14)
and must not do quadratic work; the table, ``a_g``, the inverse formula and
positive-form domination must match their loops bit for bit, and the
table must raise its error in the loop's order.

The Gamma suite reads laws (ii), (iv) and (v) at their worst case over
the unit ball; it must match a loop of that form, and the probe loops it
replaced stay as an oracle that those worst cases bound.

The three pair laws that the checks take on the Cayley edges (the chain
rule, Gamma law (ii) and the product rule) have loops over the edges,
which the checks must match, and loops and stacked sweeps over all |G|^2
pairs on a multiplication table built here.  On the test instances the
edge and all-pairs verdicts agree; near a threshold they can differ, and
the edge check can pass where the all-pairs residual exceeds it.
"""

import dataclasses
import functools
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from qistate import actions, algebra, matcore
from qistate.actions import apply, close_group, inverse, predual
from qistate.algebra import (AlgebraDescriptor, AlgebraElement, evaluate, identity,
                             matrix_unit_basis, stack, unvec, vec, worst_op_norm)
from qistate.analysis import Analysis
from qistate.cli import parse_instance
from qistate.cocycle import (build_table, is_strongly_qi, random_probe, random_psd_probe,
                             rn_cocycle, sandwich_check, sz_domination,
                             verify_adjoint_relation, verify_cocycle_identity,
                             verify_inverse_formula)
from qistate.expectation import (ConditionalExpectation, FixedAlgebra, closure_residual,
                                 expectation_checks, fixed_algebra, verify_ks)
from qistate.invariant import (fixed_density_d, gamma_map, gamma_properties_check,
                               strong_case_check)
from qistate.matcore import PreconditionError, TOL_EQ, TOL_POS, dagger
from qistate.reporting import EDGES, residual_check
from qistate.standard_form import (gamma_factorization, lemma_chain_checks,
                                   verify_covariance, verify_representation, verify_unitarity)
from qistate.trace import trace_invariance_check, verify_density_relations
from generators import (Instance, c2_swap_instance, clock_matrix, dense_unitaries,
                        graded_instance, inner_generator, left_mult_matrix,
                        m2m2_swap_instance, multiplication_table, nonstrong_instance,
                        permutation_generator, qubit_instance, random_faithful_density,
                        random_instance, random_strong_instance, rho_power, shift_matrix,
                        state_from_density, symmetric_generators)

from test_actions import reference_action_matrix
from test_expectation import reference_projections

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


# -- the loops the stacked sweeps replaced -------------------------------------

def reference_phi(group, a):
    out = 0.0 * a
    for g in group.elements:
        out = out + apply(g, a)
    return (1.0 / group.order) * out


def reference_twirl(group, left=np.conj, right=lambda u: u):
    """The matrix of Phi in vec coordinates, summed map by map: block
    (i, perm_g^-1(i)) gains kron(left(u_{g,i}), right(u_{g,i})) / |G|."""
    desc = group.descriptor
    ofs = np.cumsum((0,) + tuple(n * n for n in desc.block_dims))
    k = np.zeros((desc.dim, desc.dim), dtype=complex)
    for g in group.elements:
        for i, (j, u) in enumerate(zip(g.inv_perm, g.unitaries)):
            k[ofs[i]:ofs[i + 1], ofs[j]:ofs[j + 1]] += np.kron(left(u), right(u)) / group.order
    return k


def reference_span_distance(fa, a):
    gap = a - unvec(fa.descriptor, fa.q @ (dagger(fa.q) @ vec(a)))
    return float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in gap.blocks)))


def reference_predual(g, a):
    return apply(inverse(g), a)


def pair_indices(group, edges=True):
    """The index pairs (g, h) of a pair law: g a generator (``first_layer``)
    and every h on the Cayley edges, else all |G|^2 pairs."""
    gs = group.first_layer if edges else range(group.order)
    return [(g, h) for g in gs for h in range(group.order)]


def reference_table(phi, group, tol_pos=TOL_POS):
    """Entries, inverses and lambda of the cocycle table, one rn_cocycle
    call and one singularity test per group element, then each inverse
    x_g^-1 = g^-1(x_{g^-1}) by one predual per element."""
    entries = []
    for g in group.elements:
        x = rn_cocycle(phi, g, tol_pos=tol_pos)
        if x.min_sv() <= tol_pos * max(1.0, x.op_norm()):
            raise PreconditionError("cocycle element is numerically singular")
        entries.append(x)
    inverses = stack(predual(g, entries[k]) for g, k in zip(group.elements, group.inv))
    entries = stack(entries)
    return entries, inverses, max(entries.op_norm(), inverses.op_norm())


def reference_polar(an):
    """a_g and v_g stacked, from one SVD g^-1(rho^{-1/2}) rho^{1/2} = U S W*
    per group element and block: a_g = W S^-1 W*, v_g = U W*."""
    root, root_inv = an.roots
    a, v = [], []
    for g in an.group.elements:
        svds = [np.linalg.svd(b) for b in (predual(g, root_inv) @ root).blocks]
        a.append(AlgebraElement(root.descriptor, [(dagger(wh) / s) @ wh for _, s, wh in svds]))
        v.append(AlgebraElement(root.descriptor, [u @ wh for u, _, wh in svds]))
    return stack(a), stack(v)


def reference_sz_domination(phi, a, probes):
    """Positive-form domination for one element a."""
    bound = a.op_norm()
    worst = 0.0
    for x in probes:
        worst = max(worst, (evaluate(phi, a @ x) - bound * evaluate(phi, x)).real)
    return residual_check("sz_domination", "phi(a x) <= ||a|| phi(x) for x >= 0",
                          max(0.0, worst), TOL_EQ, bound)


def reference_domination(table, probes):
    """The check of the element with the largest residual, the first of equals."""
    return max((reference_sz_domination(table.phi, a, probes) for a in table.entries),
               key=lambda c: c.residual)


def reference_cocycle_laws(table, probes, edges=True):
    """Chain rule (on the Cayley edges, or on all pairs), inverse formula,
    adjoint relation and sandwich bounds."""
    grp, rho, lam = table.group, table.phi.density, table.lambda_bound
    xs, x_invs = list(table.entries), list(table.inverses)
    mult = multiplication_table(grp)
    chain = 0.0
    for i1, i2 in pair_indices(grp, edges):
        g1inv = grp.elements[grp.inv[i1]]
        chain = max(chain, (xs[mult[i2, i1]] - xs[i1] @ apply(g1inv, xs[i2])).op_norm())
    inverse_formula = max((x @ x_inv - identity(table.phi.descriptor)).op_norm()
                          for x, x_inv in zip(xs, x_invs))
    adjoint = max((rho @ x - x.adjoint() @ rho).op_norm() for x in xs)
    sandwich = 0.0
    for a in probes:
        base = evaluate(table.phi, a).real
        for x, x_inv in zip(xs, x_invs):
            for val in (evaluate(table.phi, x @ a).real,
                        evaluate(table.phi, a @ x_inv.adjoint()).real):
                sandwich = max(sandwich, base / lam - val, val - lam * base)
    return {"cocycle_identity": chain, "inverse_formula": inverse_formula,
            "adjoint_relation": adjoint, "sandwich": max(0.0, sandwich)}


def reference_strong_qi(table, tol_eq, tol_pos):
    xs, rho, lam = list(table.entries), table.phi.density, table.lambda_bound
    out = {"self_adjoint": max(x.herm_residual() for x in xs)}
    if out["self_adjoint"] > tol_eq * max(1.0, max(x.op_norm() for x in xs)):
        return out
    min_spec = min(x.min_eig() for x in xs)
    max_spec = max(max(matcore.herm_eig(b)[0][-1] for b in x.blocks) for x in xs)
    out["positive"] = max(0.0, tol_pos - min_spec)
    out["spectrum_window"] = max(0.0, 1.0 / lam - min_spec, max_spec - lam)
    comm = 0.0
    for i, x in enumerate(xs):
        for y in xs[i + 1:]:
            comm = max(comm, (x @ y - y @ x).op_norm())
    out["pairwise_commuting"] = comm
    out["centralizer"] = max((rho @ x - x @ rho).op_norm() for x in xs)
    return out


def reference_d(table):
    xs = list(table.entries)
    d = xs[0]
    for x in xs[1:]:
        d = d + x
    d = (1.0 / table.group.order) * d
    worst = max((gamma_map(table, i, d) - d).op_norm() for i in range(table.group.order))
    return d, worst


def reference_invariance(group, rho_psi):
    return max((reference_predual(g, rho_psi) - rho_psi).op_norm() for g in group.elements)


def reference_strong_case(an):
    d = an.certificate.d
    return {"d_orbit_commutes": max((d @ apply(g, d) - apply(g, d) @ d).op_norm()
                                    for g in an.group.elements)}


def reference_lemma_chain(an):
    rho, root = an.phi.density, an.roots[0]
    out = dict.fromkeys(("predual_via_a_g", "predual_via_x_g", "density_intertwine"), 0.0)
    if an.strong:
        out.update(a_g_is_root=0.0, a_g_root_commute=0.0)
    for g, ag, x in zip(an.group.elements, an.a, an.table.entries):
        target = reference_predual(g, rho)
        out["predual_via_a_g"] = max(out["predual_via_a_g"],
                                     (target - root @ ag @ ag @ root).op_norm())
        out["predual_via_x_g"] = max(out["predual_via_x_g"],
                                     (target - x.adjoint() @ rho).op_norm())
        out["density_intertwine"] = max(out["density_intertwine"],
                                        (x.adjoint() @ rho - rho @ x).op_norm())
        if an.strong:
            xr = AlgebraElement(an.phi.descriptor,
                                [matcore.psd_sqrt(0.5 * (b + dagger(b)), tol_pos=an.tol_pos)
                                 for b in x.blocks])
            out["a_g_is_root"] = max(out["a_g_is_root"], (ag - xr).op_norm())
            out["a_g_root_commute"] = max(out["a_g_root_commute"],
                                          (ag @ root - root @ ag).op_norm())
    return out


def reference_cocycle_factorization(an):
    rho, root_inv = an.phi.density, an.roots[1]
    rho_inv = rho.inv()
    gamma = rho_power(an.certificate.psi, -0.5j) @ root_inv
    gamma_inv = gamma.inv()
    worst = 0.0
    for g, x in zip(an.group.elements, an.table.entries):
        gamma_g = reference_predual(g, gamma_inv) @ gamma
        worst = max(worst, (x.adjoint()
                            - gamma_g @ (rho @ gamma_g.adjoint() @ rho_inv)).op_norm())
    return {"cocycle_factorization": worst}


def reference_trace_laws(an, probes):
    c, table = an.phi.density, an.table    # the trace density, at unit weights
    group = table.group
    out = {"trace_density_predual": 0.0, "trace_density_intertwine": 0.0,
           "trace_invariance": 0.0}
    for i, g in enumerate(group.elements):
        x_inv_g, x = table.entries[group.inv[i]], table.entries[i]
        out["trace_density_predual"] = max(out["trace_density_predual"],
                                           (apply(g, c) - c @ x_inv_g).op_norm())
        out["trace_density_intertwine"] = max(out["trace_density_intertwine"],
                                              (x.adjoint() @ c - c @ x).op_norm())
    for a in probes:
        for g in group.elements:
            out["trace_invariance"] = max(out["trace_invariance"],
                                          abs(apply(g, a).trace() - a.trace()))
    return out


def reference_gamma_properties(an, rng, n_probes=4, edges=True, floor=1.0):
    """The Gamma laws; (i) and (ii) on the Cayley edges, or on all pairs.
    (ii), (iv) and (v) are sampled on random probes a (and b), each residual
    divided by max(floor, ||a||) (or max(floor, ||a|| ||b||))."""
    table = an.table
    phi, group = table.phi, table.group
    probes = [random_probe(rng, phi.descriptor) for _ in range(n_probes)]
    mult = multiplication_table(group)
    out = dict.fromkeys(("gamma_permutes_cocycle", "gamma_multiplicative",
                         "gamma_preserves_state", "gamma_twisted_product",
                         "gamma_adjoint"), 0.0)
    # (i) Gamma_{g^-1}(x_h) = x_{hg}, the chain rule at (g, h)
    for g, h in pair_indices(group, edges):
        lhs = gamma_map(table, group.inv[g], table.entries[h])
        rhs = table.entries[mult[h, g]]
        out["gamma_permutes_cocycle"] = max(out["gamma_permutes_cocycle"],
                                            (lhs - rhs).op_norm())
    # (ii) Gamma_{ij} = Gamma_i Gamma_j, with j the generator on the edges
    for j, i in pair_indices(group, edges):
        for a in probes:
            lhs = gamma_map(table, mult[i, j], a)
            rhs = gamma_map(table, i, gamma_map(table, j, a))
            out["gamma_multiplicative"] = max(out["gamma_multiplicative"],
                                              (lhs - rhs).op_norm() / max(floor, a.op_norm()))
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
                    (lhs - rhs).op_norm() / max(floor, a.op_norm() * b.op_norm()))
    for i in range(group.order):
        x, xinv = table.entries[group.inv[i]], table.inverses[group.inv[i]]
        for a in probes:
            lhs = gamma_map(table, i, a).adjoint()
            rhs = xinv @ gamma_map(table, i, a.adjoint()) @ x.adjoint()
            out["gamma_adjoint"] = max(out["gamma_adjoint"],
                                       (lhs - rhs).op_norm() / max(floor, a.op_norm()))
    return out


def reference_gamma_worst_cases(an, edges=True):
    """The Gamma laws at their worst case over the unit ball, one element
    at a time: (ii) as Gamma_{ij}(1) - Gamma_i Gamma_j(1), and (iv) and (v)
    as max ||X_i|| ||F_i|| over the blocks i of X = x_{g^-1} and of
    F = 1 - X^-1 X, from one SVD per matrix; (i) and (iii) as the loops."""
    table = an.table
    group, one = table.group, identity(an.phi.descriptor)
    mult = multiplication_table(group)
    out = reference_gamma_properties(an, None, n_probes=0, edges=edges)
    out["gamma_multiplicative"] = max(
        (gamma_map(table, mult[i, j], one) - gamma_map(table, i, gamma_map(table, j, one)))
        .op_norm() for j, i in pair_indices(group, edges))
    out["gamma_twisted_product"] = out["gamma_adjoint"] = max(
        np.linalg.svd(x)[1][0] * np.linalg.svd(np.eye(len(x)) - x_inv @ x)[1][0]
        for k in group.inv
        for x, x_inv in zip(table.entries[k].blocks, table.inverses[k].blocks))
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
    """The three laws of ``verify_ks`` as dense N x N spectral norms, on the
    dense U_g and the E0 of the stacked reference kernel."""
    phi, psi, group = an.phi, an.certificate.psi, an.group
    us, e0, d = dense_unitaries(an), reference_projections(an)[1], an.certificate.d
    basis = matrix_unit_basis(phi.descriptor)

    def phi_(a):
        return reference_phi(group, a)

    compression = 0.0
    for b in basis:
        lhs = left_mult_matrix(phi_(b)) @ e0
        rhs = e0 @ left_mult_matrix(b) @ e0
        compression = max(compression, float(np.linalg.norm(lhs - rhs, 2)))
    d_inv = d.inv()
    decomposition = max(abs(evaluate(phi, a) - evaluate(psi, phi_(d_inv @ a))) for a in basis)
    mean_worst = 0.0
    for b in basis:
        mean = np.zeros((phi.descriptor.dim,) * 2, dtype=complex)
        for i in range(group.order):
            mean += us[group.inv[i]] @ left_mult_matrix(b) @ us[i]
        mean /= group.order
        mean_worst = max(mean_worst, float(np.linalg.norm(mean - left_mult_matrix(phi_(b)), 2)))
    return {"compression": compression, "state_decomposition": decomposition,
            "mean_formula": mean_worst}


def reference_left_mult(x):
    return block_diag(*(np.kron(np.eye(len(b)), b) for b in x.blocks))


def reference_right_mult(x):
    return block_diag(*(np.kron(b.T, np.eye(len(b))) for b in x.blocks))


def reference_unitaries(an):
    """U_g = R(rho^{1/2} a_g) A(g^-1) R(rho^{-1/2}) as dense kron products."""
    root, root_inv = an.roots
    return [reference_right_mult(root @ ag) @ reference_action_matrix(inverse(g))
            @ reference_right_mult(root_inv) for g, ag in zip(an.group.elements, an.a)]


def reference_implement_laws(an, edges=True):
    """Unitarity on both sides, covariance over the matrix units and the
    product rule on the Cayley edges or over all pairs, each as a dense
    spectral norm."""
    group, n = an.group, an.phi.descriptor.dim
    us = reference_unitaries(an)
    out = {"unitary_isometry": max(np.linalg.norm(dagger(u) @ u - np.eye(n), 2) for u in us),
           "unitary_surjective": max(np.linalg.norm(u @ dagger(u) - np.eye(n), 2) for u in us)}
    covariance = 0.0
    for g, u in zip(group.elements, us):
        for x in matrix_unit_basis(an.phi.descriptor):
            lhs = dagger(u) @ reference_left_mult(x) @ u
            covariance = max(covariance,
                             np.linalg.norm(lhs - reference_left_mult(apply(g, x)), 2))
    out["covariance"] = covariance
    mult = multiplication_table(group)
    out["representation"] = max(np.linalg.norm(us[i] @ us[j] - us[mult[j, i]], 2)
                                for i, j in pair_indices(group, edges))
    return out


def all_pairs_sweeps(an):
    """The three edge-checked laws over all |G|^2 pairs, in the stacked
    forms the checks took before they moved to the Cayley edges, on the
    multiplication table built here; Gamma law (ii) at a = 1, where
    Gamma_h(1) = x_{h^-1}."""
    table, group = an.table, an.group
    x, xi, mult = table.entries, table.entries[group.inv], multiplication_table(group)
    out = {"cocycle_identity": worst_op_norm(
        x[mult[:, i]] - x[i] @ apply(group.elements[group.inv[i]], x)
        for i in range(group.order))}
    out["gamma_multiplicative"] = worst_op_norm(
        xi[mult[:, h]] - xi @ apply(group.elements, xi[h]) for h in range(group.order))
    w, v, _ = an.factors
    z = v @ an.roots[1]
    out["representation"] = worst_op_norm(apply(group.elements, z[h])[group.inv] @ w - v[mult[h]]
                                          for h in range(group.order))
    return out


# -- instances -------------------------------------------------------------------

def _random(dims, seed, strong=False):
    make = random_strong_instance if strong else random_instance
    return make(np.random.default_rng(seed), AlgebraDescriptor(dims))


def _workload(name, seed=401):
    """A benchmark workload's instance, from ``perfbench/workloads.py``."""
    w = workloads.WORKLOADS[name]
    _, phi, gens, tols, cap = parse_instance(workloads.instance(w, seed))
    return Instance(phi.descriptor, phi, close_group(gens, cap=cap, tol=tols["tol_eq"]), w.strong)


def _symmetric(k, d, seed=5):
    """S_k permuting k blocks M_d, from one transposition and one k-cycle,
    with a diagonal state: strongly quasi-invariant and non-abelian."""
    desc = AlgebraDescriptor((d,) * k)
    gens = symmetric_generators(desc)
    density = random_faithful_density(np.random.default_rng(seed), desc, diagonal=True)
    return Instance(desc, state_from_density(density), close_group(gens), strong=True)


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
# the loops compare on these; the edge checks are also held to the all-pairs
# sweeps on the larger instances below
LOOPED = sorted(INSTANCES)
INSTANCES.update({
    "weyl5-suite": lambda request: _workload("weyl5-suite"),
    "blocks2x5-strong": lambda request: _workload("blocks2x5-strong"),
    "weyl8-closure": lambda request: _workload("weyl8-closure"),
    "s5_5xM3": lambda request: _symmetric(5, 3),
})


STRONG = ("qubit", "c2_swap", "m2m2_swap", "random_strong")


def make_analysis(name, request):
    inst = INSTANCES[name](request)
    return Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)


@pytest.fixture(params=LOOPED)
def analysis(request):
    return make_analysis(request.param, request)


def assert_residuals_match(checks, reference, tol=1e-12):
    got = {c.name: c.residual for c in checks}
    assert set(reference) <= set(got)
    for name, value in reference.items():
        assert abs(got[name] - value) <= tol, (name, got[name], value)


def test_random_instances_move_blocks_and_do_not_commute():
    for dims in ((2, 2, 2), (3, 3)):
        group = _random(dims, 0).group
        mult = multiplication_table(group)
        assert np.any(mult != mult.T)
        assert np.any(group.elements.perm != np.arange(len(dims)))
        assert any(np.linalg.norm(u - np.eye(len(u))) > 1e-3
                   for g in group.elements for u in g.unitaries)
    elements = _random((2, 2, 2), 0).group.elements
    assert np.any(elements.perm != elements.inv_perm)


def check_probes(desc, seed=11, n=8):
    rng = random.Random(seed)
    return [random_psd_probe(rng, desc) for _ in range(n)] + [identity(desc)]


def test_cocycle_laws_match_loops(analysis):
    table = analysis.table
    probes = check_probes(analysis.phi.descriptor)
    checks = [verify_cocycle_identity(table), verify_inverse_formula(table),
              verify_adjoint_relation(table), sandwich_check(table, probes)]
    assert_residuals_match(checks, reference_cocycle_laws(table, probes))


def blocks_equal(x, y):
    return all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))


def test_table_and_a_g_match_loops_bit_for_bit(analysis):
    table, group = analysis.table, analysis.group
    entries, inverses, lam = reference_table(analysis.phi, group)
    assert blocks_equal(table.entries, entries) and blocks_equal(table.inverses, inverses)
    assert table.lambda_bound == lam
    a, v = reference_polar(analysis)
    assert blocks_equal(analysis.a, a) and blocks_equal(analysis.polar[1], v)


def test_inverse_formula_and_domination_match_loops_bit_for_bit(analysis):
    table = analysis.table
    probes = check_probes(analysis.phi.descriptor)
    reference = reference_cocycle_laws(table, probes)["inverse_formula"]
    assert verify_inverse_formula(table).residual == reference
    assert sz_domination(table, probes) == reference_domination(table, probes)


def error_text(run):
    with pytest.raises(PreconditionError) as info:
        run()
    return str(info.value)


def test_table_errors_come_in_loop_order():
    # Weyl(3) with clock first, on a diagonal density: the clock fixes rho,
    # every other element moves its diagonal, and x_g = rho^-1 g^-1(rho)
    # then has min_sv / max(1, ||x_g||) = (0.1 / 0.7)^2 < tol_pos
    desc = AlgebraDescriptor((3,))
    phi = state_from_density(AlgebraElement(desc, [np.diag([0.7, 0.2, 0.1])]))
    group = close_group([inner_generator(desc, 0, clock_matrix(3)),
                         inner_generator(desc, 0, shift_matrix(3))])
    tol_pos = 0.05
    x = build_table(phi, group).entries
    ratio = np.array([x[k].min_sv() / max(1.0, x[k].op_norm()) for k in range(group.order)])
    first = int(np.flatnonzero(ratio <= tol_pos)[0])
    assert 0 < first < group.order - 1 and phi.density.min_eig() > tol_pos
    text = error_text(lambda: build_table(phi, group, tol_pos=tol_pos))
    assert text == error_text(lambda: reference_table(phi, group, tol_pos=tol_pos))
    assert text == "cocycle element is numerically singular"


def test_violated_sandwich_matches_loops(analysis):
    # below the true bound the sandwich fails, so its residual is not clipped to 0
    table = dataclasses.replace(analysis.table, lambda_bound=1.0)
    probes = check_probes(analysis.phi.descriptor)
    check = sandwich_check(table, probes)
    reference = reference_cocycle_laws(table, probes)["sandwich"]
    assert (check.residual > 0.0) == (analysis.table.lambda_bound > 1.0 + 1e-9)
    assert abs(check.residual - reference) <= 1e-12


def test_strong_qi_matches_loops(analysis):
    checks = is_strongly_qi(analysis)
    reference = reference_strong_qi(analysis.table, TOL_EQ, TOL_POS)
    assert [c.name for c in checks] == list(reference)
    assert analysis.strong == (len(reference) > 1)
    assert_residuals_match(checks, reference)


def test_d_and_invariance_match_loops(analysis):
    d, worst = fixed_density_d(analysis.table, TOL_EQ)
    ref_d, ref_worst = reference_d(analysis.table)
    # numpy sums the |G| x_g in order, as the loop does
    assert all(np.array_equal(a, b) for a, b in zip(d.blocks, ref_d.blocks))
    assert abs(worst - ref_worst) <= 1e-12
    cert = analysis.certificate
    assert abs(cert.invariance.residual
               - reference_invariance(analysis.group, cert.psi.density)) <= 1e-12


@pytest.mark.parametrize("name", STRONG)
def test_strong_case_matches_loops(name, request):
    an = make_analysis(name, request)
    assert an.strong
    assert_residuals_match(strong_case_check(an), reference_strong_case(an))


def test_lemma_chain_and_factorization_match_loops(analysis):
    assert_residuals_match(lemma_chain_checks(analysis), reference_lemma_chain(analysis))
    assert_residuals_match(gamma_factorization(analysis),
                           reference_cocycle_factorization(analysis))


def test_trace_laws_match_loops(analysis):
    probes = check_probes(analysis.phi.descriptor, n=6)[:6]
    checks = list(verify_density_relations(analysis)) + [trace_invariance_check(analysis, probes)]
    assert_residuals_match(checks, reference_trace_laws(analysis, probes))


def with_table(an, **fields):
    """A fresh Analysis of the instance of ``an``, its table with ``fields`` replaced."""
    out = Analysis(an.phi, an.group, TOL_EQ, TOL_POS)
    out.table = dataclasses.replace(an.table, **fields)
    return out


def scaled_at(x, k, factor):
    """The stack ``x`` with its element k multiplied by ``factor``."""
    blocks = [b.copy() for b in x.blocks]
    for b in blocks:
        b[k] *= factor
    return AlgebraElement(x.descriptor, blocks)


def test_gamma_properties_match_loops(analysis):
    assert_residuals_match(gamma_properties_check(analysis),
                           reference_gamma_worst_cases(analysis))


# Each exact residual of (ii), (iv) and (v) is a supremum over the unit ball,
# so it bounds the probe residuals divided by ||a|| (||a|| ||b||), up to
# roundoff.  Each law is a difference of products of at most three factors
# of norm <= lam (two Gamma_g(a), with ||Gamma_g|| <= ||x_{g^-1}||, and one
# inverse), so either side carries an error of order n u lam^3, n the
# largest block dimension and u the unit roundoff: a product of n x n
# matrices is exact up to n u times the product of the norms (Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.5).  On 600
# draws, half of them on tables with skewed entries, the probe residual
# exceeded the exact one by at most 5.9 n u lam^3; c = 32 leaves a factor 5.
@settings(max_examples=30, deadline=None)
@given(strong=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_gamma_worst_cases_bound_the_probes(strong, seed):
    inst = (random_strong_instance if strong else random_instance)(np.random.default_rng(seed))
    desc = inst.descriptor
    an = Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS)
    skew = identity(desc) + 0.3 * random_probe(random.Random(seed), desc)
    # the table, and the table with skewed entries and its own inverses kept,
    # which violates (ii), (iv) and (v)
    for case in (an, with_table(an, entries=an.table.entries @ skew)):
        table = case.table
        lam = max(table.entries.op_norm(), table.inverses.op_norm())
        slack = 32 * max(desc.block_dims) * np.finfo(float).eps / 2 * lam ** 3
        exact = {c.name: c.residual for c in gamma_properties_check(case)}
        probes = reference_gamma_properties(case, random.Random(seed), floor=0.0)
        for law in ("gamma_multiplicative", "gamma_twisted_product", "gamma_adjoint"):
            assert exact[law] >= probes[law] - slack, (law, exact[law], probes[law], slack)


def test_expectation_checks_match_loops(analysis, monkeypatch):
    reference = reference_expectation_checks(analysis, random.Random(7))
    # the bimodule sweep stacks dim B products of N entries per basis
    # element b: the bundled and random instances fit one slice, and a limit
    # of one b's entries makes the sweep run in dim B slices
    per_b = analysis.fixed.dimension * analysis.phi.descriptor.dim
    for limit in (algebra.STACK_LIMIT, per_b):
        monkeypatch.setattr(algebra, "STACK_LIMIT", limit)
        assert_residuals_match(expectation_checks(analysis, random.Random(7)),
                               reference)


# the bundled groups, and groups whose K has zero blocks (the swap of 2 of
# 3 blocks), many maps per block pair (S_5) or complex entries (the random
# instances)
TWIRL_GROUPS = {
    **{make.__name__: lambda make=make: make().group
       for make in (qubit_instance, c2_swap_instance, m2m2_swap_instance, nonstrong_instance)},
    "s5_5xM3": lambda: close_group(symmetric_generators(AlgebraDescriptor((3,) * 5))),
    "swap_2_of_3": lambda: close_group([permutation_generator(AlgebraDescriptor((2, 2, 2)),
                                                              [1, 0, 2])]),
    "random_222": lambda: _random((2, 2, 2), 0).group,
    "random_33": lambda: _random((3, 3), 0).group,
}


@functools.lru_cache(maxsize=None)
def twirl_case(name):
    group = TWIRL_GROUPS[name]()
    return group, ConditionalExpectation(group, fixed_algebra(group, TOL_EQ, TOL_POS))


def random_stack(seed, desc, count):
    rng = np.random.default_rng(seed)
    return unvec(desc, rng.standard_normal((count, desc.dim))
                 + 1j * rng.standard_normal((count, desc.dim)))


def phi_errors(Phi, group, a):
    """How far Phi and Phi_* on the stack a are from the group sums."""
    phi_ref = reference_phi(group, a)
    predual_ref = (1.0 / group.order) * sum((reference_predual(g, a) for g in group.elements),
                                            0.0 * a)
    return (Phi(a) - phi_ref).op_norm(), (Phi.predual(a) - predual_ref).op_norm()


@pytest.mark.parametrize("name", sorted(TWIRL_GROUPS))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 3))
def test_phi_matches_the_group_sum(name, seed, count):
    group, Phi = twirl_case(name)
    a = random_stack(seed, group.descriptor, count)
    tol = 1e-13 * max(1.0, a.op_norm())
    assert max(phi_errors(Phi, group, a)) <= tol
    assert np.max(np.abs(Phi.k - reference_twirl(group))) <= 1e-14


def test_twirl_with_the_kron_factors_swapped_fails():
    # kron(u, conj(u)) is the twirl in row-major coordinates.  In the
    # column-major ones of ``vec`` it averages a |-> conj(u) a u^T, which
    # for Weyl(3) is the same mean: its unitaries' conjugates are the same
    # maps, so K is real, and no property of Phi tells the two apart.  The
    # random block swap with inner unitaries has a complex K, where it fails.
    for name, same in (("nonstrong_instance", True), ("random_33", False)):
        group, Phi = twirl_case(name)
        swapped = ConditionalExpectation(group, Phi.fixed)
        swapped.k = reference_twirl(group, left=lambda u: u, right=np.conj)
        a = random_stack(0, group.descriptor, 3)
        tol = 1e-13 * a.op_norm()
        assert max(phi_errors(Phi, group, a)) <= tol
        errors = phi_errors(swapped, group, a)
        assert (max(errors) <= tol) == same, (name, errors)
        assert same or min(errors) > 1e-2, (name, errors)


# With the laws violated the residuals are O(1) and differ from pair to
# pair, so a sweep that skips pairs no longer matches the loops.  A law
# that fails on some pair fails on some edge too, so the edge residual
# exceeds 1e-3 wherever the all-pairs one does.
def test_violated_gamma_laws_match_loops(analysis):
    table = analysis.table
    skew = identity(table.phi.descriptor) + 0.3 * random_probe(
        random.Random(11), table.phi.descriptor)
    entries = table.entries @ skew
    an = with_table(analysis, entries=entries, inverses=entries.inv())
    checks = gamma_properties_check(an)
    assert_residuals_match(checks, reference_gamma_worst_cases(an))
    assert {c.name for c in checks if c.residual > 1e-3} >= {
        "gamma_permutes_cocycle", "gamma_preserves_state"}
    all_pairs = reference_gamma_worst_cases(an, edges=False)
    got = {c.name: c.residual for c in checks}
    assert all(got[law] > 1e-3 for law, value in all_pairs.items() if value > 1e-3)
    # one wrong inverse, x_s^-1 scaled by 1 + 1e-3 for a generator s, breaks
    # (iv) and (v) by ||F|| = 1e-3 alone; one wrong entry x_{s^-1} breaks (ii)
    # on the edge (s^-1, s), where x_1 - x_s s^-1(x_{s^-1}) = 0 is the chain rule
    s = analysis.group.first_layer[0]
    for field, k, broken in (("inverses", s, {"gamma_twisted_product", "gamma_adjoint"}),
                             ("entries", analysis.group.inv[s], {"gamma_multiplicative"})):
        an = with_table(analysis, **{field: scaled_at(getattr(table, field), k, 1 + 1e-3)})
        checks = gamma_properties_check(an)
        assert_residuals_match(checks, reference_gamma_worst_cases(an))
        assert broken <= {c.name for c in checks if not c.passed}, field


# A psi that the group moves and a perturbed d, with Phi set directly
# (``cond_expectation`` refuses a non-invariant psi): state_invariance and
# state_decomposition, each one density identity, read 0.08 to 0.4 and must
# match the matrix-unit loops.  Without the mean in Phi_*, or with d^-1 on
# the left of Phi_*(rho_psi), they would not.
@pytest.mark.parametrize("name", STRONG)
def test_violated_state_laws_match_loops(name, request):
    an = make_analysis(name, request)
    desc = an.phi.descriptor
    psi = state_from_density(random_faithful_density(np.random.default_rng(0), desc))
    d = an.certificate.d @ (identity(desc) + 0.3 * random_probe(random.Random(11), desc))
    an.certificate = dataclasses.replace(an.certificate, psi=psi, d=d)
    an.Phi = ConditionalExpectation(an.group, an.fixed)
    checks = expectation_checks(an, random.Random(7)) + verify_ks(an)
    assert_residuals_match(checks, {**reference_expectation_checks(an, random.Random(7)),
                                    **reference_verify_ks(an)})
    got = {c.name: c.residual for c in checks}
    assert got["state_invariance"] > 1e-3 and got["state_decomposition"] > 1e-3


# On these instances the residuals lie far from the thresholds, on either
# side, and the edge and all-pairs verdicts agree.
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_edge_and_all_pairs_verdicts_agree_away_from_the_threshold(name, request):
    an = make_analysis(name, request)
    checks = {c.name: c for c in [verify_cocycle_identity(an.table),
                                  *gamma_properties_check(an),
                                  verify_representation(an)]}
    for law, residual in all_pairs_sweeps(an).items():
        check = checks[law]
        assert (residual <= check.threshold) == check.passed, (law, residual, check)
        assert EDGES in check.detail
    assert checks["gamma_permutes_cocycle"].residual == checks["cocycle_identity"].residual
    # the product rule holds exactly in the strong case
    assert checks["representation"].passed == an.strong


def test_edge_check_can_pass_where_the_all_pairs_residual_exceeds_the_threshold():
    # The recursion in ``verify_cocycle_identity`` multiplies an edge error
    # by ||x_s|| at each step of a word, so the residual over all pairs can
    # exceed the edge residual.  On the graded instance at m = 1e-5 the chain
    # rule reads 4.3e-7 on the edges and 2.0e-6 over all pairs, at the scale
    # max(1, ||x_g||) = 5.6e4: at a tol_eq between 7.6e-12 and 3.6e-11 the
    # edge check passes while the all-pairs residual exceeds the threshold.
    _, phi, gens, _, _ = parse_instance(graded_instance(1e-5))
    group = close_group(gens)
    table = build_table(phi, group)
    residual = reference_cocycle_laws(table, [], edges=False)["cocycle_identity"]
    for tol_eq, all_pairs_within in ((TOL_EQ, True), (2e-11, False)):
        check = verify_cocycle_identity(table, tol_eq)
        assert check.passed
        assert (residual <= check.threshold) == all_pairs_within, (tol_eq, residual, check)


def test_violated_bimodule_matches_loops(analysis, monkeypatch):
    an = Analysis(analysis.phi, analysis.group, TOL_EQ, TOL_POS)
    an.certificate
    # every matrix unit in place of the fixed-point basis; each b stacks
    # dim products of dim entries, so the limit gives slices of three b's
    dim = an.phi.descriptor.dim
    monkeypatch.setattr(algebra, "STACK_LIMIT", 3 * dim * dim)
    an.fixed = FixedAlgebra(an.phi.descriptor, np.eye(dim))
    an.Phi = ConditionalExpectation(an.group, an.fixed)
    checks = expectation_checks(an, random.Random(7))
    reference = reference_expectation_checks(an, random.Random(7))
    assert_residuals_match(checks, reference)
    bimodule = next(c for c in checks if c.name == "bimodule")
    assert (an.group.order == 1) == (bimodule.residual < 1e-3)


def test_closure_residual_matches_loops(analysis):
    fa = analysis.fixed
    assert abs(closure_residual(fa) - reference_closure_residual(fa)) <= 1e-12


def test_dense_unitaries_match_kron_products(analysis):
    for u, ref in zip(dense_unitaries(analysis), reference_unitaries(analysis)):
        assert np.linalg.norm(u - ref, 2) <= 1e-14 * max(1.0, np.linalg.norm(ref, 2))


def implement_laws(an):
    return list(verify_unitarity(an)) + [verify_covariance(an), verify_representation(an)]


def test_implement_laws_match_dense_loops(analysis):
    reference = reference_implement_laws(analysis)
    checks = implement_laws(analysis)
    assert [c.name for c in checks] == ["unitary_isometry", "unitary_surjective",
                                        "covariance", "representation"]
    assert_residuals_match(checks, reference, tol=1e-14)
    # the product rule fails off the strong case
    assert (checks[-1].residual > 1e-6) == (not analysis.strong)


def test_product_rule_sweeps_every_generator():
    # Off the strong case the deviation is O(1) and differs from edge to
    # edge, and the set of edges does not depend on the order in which the
    # generators are listed; a sweep that skipped a generator would read a
    # different maximum for one of the two orders.  A redundant generator
    # adds its edges, so the recorded deviation depends on the listed
    # generators: with shift^2 listed too it rises, here to the maximum
    # over all pairs.
    desc = AlgebraDescriptor((5,))
    shift = inner_generator(desc, 0, shift_matrix(5))
    clock = inner_generator(desc, 0, clock_matrix(5))
    shift2 = inner_generator(desc, 0, shift_matrix(5) @ shift_matrix(5))
    phi = state_from_density(random_faithful_density(np.random.default_rng(0), desc))
    analyses = [Analysis(phi, close_group(gens), TOL_EQ, TOL_POS)
                for gens in ([shift, clock], [clock, shift], [shift, clock, shift2])]
    deviations = [verify_representation(an).residual for an in analyses]
    assert deviations[0] > 1e-3
    assert abs(deviations[0] - deviations[1]) <= 1e-12 * deviations[0]
    assert deviations[2] > deviations[0] + 1e-3
    all_pairs = all_pairs_sweeps(analyses[0])["representation"]
    assert abs(deviations[2] - all_pairs) <= 1e-12


@pytest.mark.parametrize("name", STRONG)
def test_verify_ks_matches_loops(name, request, monkeypatch):
    an = make_analysis(name, request)
    assert an.strong
    reference = reference_verify_ks(an)
    # each sweep stacks at least N entries per matrix unit (N r for the
    # compression, |G| N for the mean formula), so a limit of N entries
    # takes one matrix unit per slice
    for limit in (algebra.STACK_LIMIT, an.phi.descriptor.dim):
        monkeypatch.setattr(algebra, "STACK_LIMIT", limit)
        assert_residuals_match(verify_ks(an), reference)


def test_mean_formula_reduction_matches_dense_products(analysis):
    # U_{g^-1} U_g = R(m_g) with m_g = 1 for the true factors, even off the
    # strong case, so the residual is roundoff there.  Perturbed w_g give
    # m_g != 1 and an O(1e-2) residual, which checks the reduction
    # U_{g^-1} L_b U_g = L_{g(b)} R(m_g) against the dense products.
    an, group, desc = analysis, analysis.group, analysis.phi.descriptor
    rng = random.Random(3)
    w = an.factors[0] @ stack(identity(desc) + 0.05 * random_probe(rng, desc)
                              for _ in range(group.order))
    v = actions.predual(group.elements, an.roots[1]) @ w
    an.factors = (w, v, an.factors[2])
    an.strong = True
    reference = reference_verify_ks(an)
    assert (reference["mean_formula"] > 1e-3) == (group.order > 1)
    got = {c.name: c.residual for c in verify_ks(an)}
    for law, value in reference.items():
        assert abs(got[law] - value) <= 1e-12 * max(1.0, value), (law, got[law], value)


# -- work count ------------------------------------------------------------------

def count_work(monkeypatch, run):
    """Calls of ``actions.apply`` (through every binding in a loaded qistate
    module and in this one) and ``AlgebraElement`` constructions made by
    ``run()``."""
    counts = {"apply": 0, "element": 0}
    original_apply, original_init = actions.apply, AlgebraElement.__init__

    def counted_apply(*args, **kwargs):
        counts["apply"] += 1
        return original_apply(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["element"] += 1
        original_init(self, *args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "qistate" or key.startswith("qistate.") or key == __name__:
            for attr, value in list(vars(module).items()):
                if value is original_apply:
                    monkeypatch.setattr(module, attr, counted_apply)
    monkeypatch.setattr(AlgebraElement, "__init__", counted_init)
    run()
    monkeypatch.undo()
    return counts


# Allowed work per sweep: apply calls plus element constructions, per unit
# of a size linear in |G|, the probes, dim B and N.  The per-element loops
# the sweeps replaced do work per pair (|G|^2 pairs, |G| x probes,
# dim B^2 x probes): the Gamma suite on Weyl(5) made about 9000 apply
# calls.  Each guard also counts its reference loops on the same instance
# and requires them to exceed its bound, so that the bound tells the two
# apart.
def assert_linear(monkeypatch, run, reference, bound):
    counts = count_work(monkeypatch, run)
    assert sum(counts.values()) <= bound, counts
    loops = count_work(monkeypatch, reference)
    assert sum(loops.values()) > bound, loops


def weyl5_analysis(density=None):
    desc = AlgebraDescriptor((5,))
    group = close_group([inner_generator(desc, 0, shift_matrix(5)),
                         inner_generator(desc, 0, clock_matrix(5))])
    if density is None:
        density = random_faithful_density(np.random.default_rng(3), desc)
    an = Analysis(state_from_density(density), group, TOL_EQ, TOL_POS)
    an.table
    return an


def test_gamma_suite_work_is_linear(monkeypatch):
    an = weyl5_analysis()
    size = an.group.order + 1 + an.phi.descriptor.dim
    assert_linear(monkeypatch, lambda: gamma_properties_check(an),
                  lambda: reference_gamma_properties(an, random.Random(0), edges=False),
                  2 * size)


def test_expectation_work_is_linear(monkeypatch):
    desc = AlgebraDescriptor((5, 5))
    group = close_group([permutation_generator(desc, [1, 0])])
    phi = state_from_density(random_faithful_density(np.random.default_rng(3), desc))
    an = Analysis(phi, group, TOL_EQ, TOL_POS)
    an.certificate

    def run():
        an.fixed
        expectation_checks(an, random.Random(0))

    assert an.fixed.dimension == 25
    size = group.order + an.fixed.dimension + desc.dim
    assert_linear(monkeypatch, run,
                  lambda: reference_expectation_checks(an, random.Random(0)), 2 * size)


def test_check_cocycle_laws_work_is_linear(monkeypatch):
    # the tracial state: strongly quasi-invariant, so every sweep runs
    an = weyl5_analysis(AlgebraElement(AlgebraDescriptor((5,)), [np.eye(5) / 5]))
    table, probes = an.table, check_probes(an.phi.descriptor)
    assert an.strong

    def run():
        verify_cocycle_identity(table)
        verify_inverse_formula(table)
        verify_adjoint_relation(table)
        sandwich_check(table, probes)
        for name in ("self_adjoint", "strong"):    # built again, as a command would
            an.__dict__.pop(name, None)
        is_strongly_qi(an)

    def reference():
        reference_cocycle_laws(table, probes, edges=False)
        reference_strong_qi(table, TOL_EQ, TOL_POS)

    # the chain rule, the inverse formula and the commuting sweep each loop
    # over the group with a few element operations per step
    assert_linear(monkeypatch, run, reference, 12 * (an.group.order + len(probes)))


def test_implement_laws_work_is_linear(monkeypatch):
    an = weyl5_analysis()
    an.strong, an.a

    def run():
        an.__dict__.pop("factors", None)
        implement_laws(an)

    # the factors and each law take a few stacked elements, and the
    # product rule one predual per generator: 2 on Weyl(5); the dense
    # loops make an apply call per group element and matrix unit
    assert_linear(monkeypatch, run, lambda: reference_implement_laws(an, edges=False), 30)


def test_trace_laws_work_is_linear(monkeypatch):
    an = weyl5_analysis()
    probes = check_probes(an.phi.descriptor, n=24)[:24]

    def run():
        verify_density_relations(an)
        trace_invariance_check(an, probes)

    assert_linear(monkeypatch, run, lambda: reference_trace_laws(an, probes),
                  an.group.order + len(probes))


def count_svd_matrices(monkeypatch, run):
    """The number of matrices that reach np.linalg.svd in ``run()``."""
    count = [0]
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    run()
    monkeypatch.undo()
    return count[0]


def test_check_laws_take_linearly_many_svds(monkeypatch):
    # the generic Weyl(5) instance: not strongly quasi-invariant, so the
    # worst cases are roundoff that differs from pair to pair
    an = weyl5_analysis()
    phi, group, probes = an.phi, an.group, check_probes(an.phi.descriptor)

    def run():
        fresh = Analysis(phi, group, TOL_EQ, TOL_POS)
        table = fresh.table
        verify_cocycle_identity(table)
        verify_inverse_formula(table)
        verify_adjoint_relation(table)
        sandwich_check(table, probes)
        is_strongly_qi(fresh)
        sz_domination(table, probes)

    def reference():
        reference_table(phi, group)
        reference_cocycle_laws(an.table, probes, edges=False)
        reference_strong_qi(an.table, TOL_EQ, TOL_POS)
        reference_domination(an.table, probes)

    # at most 9 matrices per unit: per-element norms for the table and the
    # domination test, pruned sweeps for the rest; the loops
    # take one SVD per pair in the chain rule alone (|G|^2 = 625)
    bound = 9 * (group.order + len(probes))
    assert count_svd_matrices(monkeypatch, run) <= bound
    assert count_svd_matrices(monkeypatch, reference) > bound
