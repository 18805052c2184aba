"""Spatial implementation of the group action on the Hilbert-Schmidt space.

With rho the density of a faithful state, a_g is the positive square root
of rho^{-1/2} g^{-1}(rho) rho^{-1/2}, read with v_g off the polar
decomposition g^-1(rho^{-1/2}) rho^{1/2} = v_g a_g^-1, and U_g extends
x rho^{1/2} |-> g^{-1}(x) rho^{1/2} a_g to a unitary with
U_g* L_x U_g = L_{g(x)}.  In the strongly quasi-invariant case
a_g = x_g^{1/2} and U_g U_h = U_{hg}, so g |-> U_g* is a unitary
representation; otherwise the deviation from the product rule is only
measured, never asserted.

U_g = R(w_g) A(g^-1) R(rho^{-1/2}) is kept as its block factors
w_g = rho^{1/2} a_g and v_g = U_g 1 = g^-1(rho^{-1/2}) w_g, with L, R left
and right multiplication and A(g) xi = g(xi) unitary: each law of U_g is
a norm of blocks.  No command builds U_g's dense matrix (``u_g``); E0 and
``verify_ks`` in ``expectation`` also work on these factors.
"""

import numpy as np

from . import matcore
from .algebra import (AlgebraElement, identity, matrix_unit_basis, require_faithful, vec,
                      worst_op_norm)
from .actions import Automorphism, FiniteGroup, predual
from .matcore import PreconditionError, dagger
from .reporting import EDGES, Check, residual_check


def a_g(group: FiniteGroup, roots) -> tuple:
    """(a_g, v_g) for every g, stacked in group order, given ``roots`` =
    (rho^{1/2}, rho^{-1/2}): the polar decomposition v_g a_g^-1 of
    K_g = g^-1(rho^{-1/2}) rho^{1/2}, since K_g* K_g = rho^{1/2} g^-1(rho^-1) rho^{1/2}
    is the inverse of a_g^2 = rho^{-1/2} g^-1(rho) rho^{-1/2}.  One SVD
    K_g = U S W* per block gives v_g = U W* and a_g = W S^-1 W* (Higham,
    Functions of Matrices, 2008, ch. 8), unitary and positive to roundoff;
    nothing of condition number cond(rho)^2 is inverted or rooted.
    ``implement`` reports their fit to the state,
    rho^{1/2} a_g^2 rho^{1/2} = g^-1(rho), as ``predual_via_a_g``."""
    k = predual(group.elements, roots[1]) @ roots[0]
    svds = [np.linalg.svd(b) for b in k.blocks]
    a = [(dagger(wh) / s[..., None, :]) @ wh for _, s, wh in svds]
    return (AlgebraElement._unchecked(k.descriptor, a),
            AlgebraElement._unchecked(k.descriptor, [u @ wh for u, _, wh in svds]))


def spatial_factors(roots, a: AlgebraElement, v: AlgebraElement, tol_eq: float):
    """(w_g, v_g) stacked in group order, w_g = rho^{1/2} a_g with ``roots``
    = (rho^{1/2}, rho^{-1/2}), and max_g ||v_g v_g* - 1||, the residual of
    ``verify_unitarity``'s isometry law and of ``verify_covariance``.
    Refuses U_g when ||v_g v_g* - 1|| > tol_eq max(1, ||v_g||^2), since
    U_g* U_g = R(g(v_g v_g*)) (see ``verify_unitarity``) and
    ||U_g||^2 = ||v_g v_g*|| = ||v_g||^2: a guard, as v_g is a polar factor."""
    w = roots[0] @ a
    vv = v @ v.adjoint()
    res, sq = (vv - identity(a.descriptor)).op_norms(), vv.op_norms()
    bad = res > tol_eq * np.maximum(1.0, sq)
    if np.any(bad):
        raise PreconditionError(
            f"implementing operator is not unitary: residual {res[np.argmax(bad)]:.3e}")
    return w, v, float(np.max(res))


def u_g(g: Automorphism, root_inv: AlgebraElement, wg: AlgebraElement) -> np.ndarray:
    """Dense matrix of U_g xi = g^-1(xi rho^{-1/2}) w_g, given rho^{-1/2}
    and w_g = rho^{1/2} a_g: column m is vec of U_g on the m-th matrix unit."""
    units = matrix_unit_basis(wg.descriptor)
    return np.swapaxes(vec(predual(g, units @ root_inv) @ wg), -1, -2)


def group_unitaries(group: FiniteGroup, root_inv: AlgebraElement, w: AlgebraElement):
    """U_g for each group element, given w_g stacked in group order."""
    return [u_g(g, root_inv, wg) for g, wg in zip(group.elements, w)]


def verify_unitarity(an) -> list:
    """U_g* U_g = 1 and U_g U_g* = 1 over the whole group.

    By R(y) R(z) = R(zy) and A(g) R(z) A(g^-1) = R(g(z)),
    U_g* U_g = R(rho^{-1/2}) A(g) R(w_g w_g*) A(g^-1) R(rho^{-1/2}) = R(y_g)
    with y_g = rho^{-1/2} g(w_g w_g*) rho^{-1/2} = g(v_g v_g*), and
    U_g U_g* = R(w_g) R(g^-1(rho^-1)) R(w_g*) = R(v_g* v_g).  As
    ||R(z)|| = ||z|| and g is isometric, the residuals are
    ||v_g v_g* - 1|| and ||v_g* v_g - 1||; ``spatial_factors`` took the first.
    Both read roundoff, as v_g is a polar factor (``a_g``).
    """
    _, v, isometry = an.factors
    return [residual_check("unitary_isometry", "U_g* U_g = 1", isometry, an.tol_eq),
            residual_check("unitary_surjective", "U_g U_g* = 1",
                           (v.adjoint() @ v - identity(an.phi.descriptor)).op_norm(), an.tol_eq)]


def verify_covariance(an) -> Check:
    """U_g* L_x U_g = L_{g(x)} over the whole group and the matrix units x.

    L_x commutes with R and A(g) L_x A(g^-1) = L_{g(x)}, so as in
    ``verify_unitarity`` U_g* L_x U_g = L_{g(x)} R(y_g), y_g = g(v_g v_g*).
    By ||L_a R_b|| = max_i ||a_i|| ||b_i||, the residual is
    max_i ||g(x)_i|| ||(y_g - 1)_i||.  g carries a matrix unit to a norm-one
    unit of one block, every block is reached and g is isometric, so the
    worst case over x is ||v_g v_g* - 1||, which ``spatial_factors`` took.
    """
    return residual_check("covariance", "U_g* L_x U_g = L_{g(x)}", an.factors[2], an.tol_eq)


def verify_representation(an) -> Check:
    """Product rule U_g U_h = U_{hg} on the Cayley edges of the listed
    generators: asserted in the strong case, else a diagnostic that depends on them.

    Moving R(w_h rho^{-1/2}) through A(g^-1) gives U_g U_h =
    R(g^-1(w_h rho^{-1/2}) w_g) A((hg)^-1) R(rho^{-1/2}), so U_g U_h - U_{hg}
    = R(D) A((hg)^-1) R(rho^{-1/2}) = R((hg)^-1(rho^{-1/2}) D) A((hg)^-1),
    D = g^-1(w_h rho^{-1/2}) w_g - w_{hg}.  A is unitary, so the residual
    is ||g^-1(v_h rho^{-1/2}) w_g - v_{hg}||, taken for each generator s
    and every h at once, with v_{hs} read at ``right[:, s]`` (``EDGES``).
    With P(g, h) = U_g U_h - U_{hg}, exactly P(1, h) = 0 as U_1 = 1, and
    P(g's, h) = P(s, hg') + U_s P(g', h) - P(s, g') U_h.
    """
    group, strong, (w, v, _) = an.group, an.strong, an.factors
    z = v @ an.roots[1]
    worst = worst_op_norm(predual(group.elements[g], z) @ w[g] - v[group.right[:, s]]
                          for s, g in enumerate(group.first_layer))
    return residual_check("representation", "U_g U_h = U_{hg}", worst, an.tol_eq,
                          asserted=strong,
                          detail=(EDGES if strong else "recorded only: product rule unproven "
                                  f"here; {EDGES}; the value depends on the listed generators"))


def gamma_factorization(an):
    """Invertible gamma with rho_psi^{1/2} = gamma rho^{1/2}, for psi the
    invariant state of the instance analysis ``an``.

    Verifies rho_psi = gamma rho gamma*, d* = gamma sigma_{-i}(gamma*)
    for the certificate's d (rho_psi is the Hermitian part of rho d), and
    x_g* = gamma_g sigma_{-i}(gamma_g*) with gamma_g = g^-1(gamma^-1) gamma
    over the group.  Returns (gamma, d, checks).
    """
    tol_eq, tol_pos = an.tol_eq, an.tol_pos
    psi, d = an.certificate.psi, an.certificate.d
    rho, rho_psi = an.phi.density, psi.density
    root, root_inv = an.roots
    require_faithful(psi, tol_pos)
    psi_root = psi.power(0.5)
    gamma = psi_root @ root_inv

    def sigma_minus_i(x):
        return rho @ x @ an.table.rho_inv

    group, x = an.group, an.table.entries
    gamma_g = predual(group.elements, gamma.inv()) @ gamma
    return gamma, d, [
        residual_check("gamma_root_link", "rho_psi^{1/2} = gamma rho^{1/2}",
                       (psi_root - gamma @ root).op_norm(), tol_eq, psi_root.op_norm()),
        residual_check("gamma_density_link", "rho_psi = gamma rho gamma*",
                       (rho_psi - gamma @ rho @ gamma.adjoint()).op_norm(), tol_eq,
                       rho_psi.op_norm()),
        residual_check("d_factorization", "d* = gamma sigma_{-i}(gamma*)",
                       (d.adjoint() - gamma @ sigma_minus_i(gamma.adjoint())).op_norm(), tol_eq,
                       d.op_norm()),
        residual_check("cocycle_factorization", "x_g* = gamma_g sigma_{-i}(gamma_g*)",
                       (x.adjoint() - gamma_g @ sigma_minus_i(gamma_g.adjoint())).op_norm(),
                       tol_eq, max(1.0, an.table.entry_norm))]


def lemma_chain_checks(an) -> list:
    """Density identities tying the predual action, a_g and the cocycle:
    g^*(rho) = rho^{1/2} a_g^2 rho^{1/2} = x_g* rho = rho x_g; in the strong
    case additionally a_g = x_g^{1/2} and a_g rho^{1/2} = rho^{1/2} a_g."""
    rho, strong, tol_eq, tol_pos = an.phi.density, an.strong, an.tol_eq, an.tol_pos
    root, a, x, target = an.roots[0], an.a, an.table.entries, an.table.predual_rho
    scale = max(1.0, an.table.entry_norm)
    checks = [residual_check("predual_via_a_g", "g^*(rho) = rho^{1/2} a_g^2 rho^{1/2}",
                             (target - root @ a @ a @ root).op_norm(), tol_eq, scale),
              residual_check("predual_via_x_g", "g^*(rho) = x_g* rho",
                             (target - x.adjoint() @ rho).op_norm(), tol_eq, scale),
              residual_check("density_intertwine", "x_g* rho = rho x_g",
                             (x.adjoint() @ rho - rho @ x).op_norm(), tol_eq, scale)]
    if strong:
        xr = AlgebraElement._unchecked(
            an.phi.descriptor, [matcore.psd_sqrt(b, tol_pos=tol_pos) for b in x.blocks])
        checks.append(residual_check("a_g_is_root", "a_g = x_g^{1/2}",
                                     (a - xr).op_norm(), tol_eq, scale))
        checks.append(residual_check("a_g_root_commute", "a_g rho^{1/2} = rho^{1/2} a_g",
                                     (a @ root - root @ a).op_norm(), tol_eq, scale))
    return checks
