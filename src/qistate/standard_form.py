"""Spatial implementation of the group action on the Hilbert-Schmidt space.

With rho the density of a faithful state, a_g is the positive square root
of rho^{-1/2} g^{-1}(rho) rho^{-1/2}, and U_g extends
x rho^{1/2} |-> g^{-1}(x) rho^{1/2} a_g to a unitary with
U_g* L_x U_g = L_{g(x)}.  In the strongly quasi-invariant case
a_g = x_g^{1/2} and U_g U_h = U_{hg}, so g |-> U_g* is a unitary
representation; otherwise the deviation from the product rule is only
measured, never asserted.
"""

from dataclasses import dataclass

import numpy as np

from . import matcore
from .algebra import (AlgebraDescriptor, AlgebraElement, State, density_power,
                      left_mult_matrix, matrix_unit_basis, right_mult_matrix)
from .actions import Automorphism, FiniteGroup, action_matrix, apply, apply_all, inverse, predual
from .matcore import PreconditionError, dagger
from .reporting import Check, CheckSet, residual_check


@dataclass
class L2Operator:
    """Dense matrix acting on Hilbert-Schmidt coordinates (block-major,
    column-major within a block)."""

    descriptor: AlgebraDescriptor
    matrix: np.ndarray
    unitarity_residual: float = None
    projection_residual: float = None


def a_g(phi: State, g: Automorphism, roots, x_g: AlgebraElement,
        x_ginv: AlgebraElement, tol_eq: float, tol_pos: float) -> AlgebraElement:
    """Positive invertible a_g with rho^{1/2} a_g^2 rho^{1/2} = g^-1(rho),
    given ``roots`` = (rho^{1/2}, rho^{-1/2}) and the cocycle elements x_g
    and x_{g^-1}.

    Also satisfies a_g^2 = rho^{1/2} x_g rho^{-1/2} and
    a_g^2 >= 1/||x_{g^-1}||.
    """
    root, root_inv = roots
    middle = root_inv @ predual(g, phi.density) @ root_inv
    sym = 0.5 * (middle + middle.adjoint())
    a = AlgebraElement(phi.descriptor,
                       [matcore.psd_sqrt(b, tol_pos=tol_pos) for b in sym.blocks])
    # Consistency with the modular picture of the cocycle.
    flow = root @ x_g @ root_inv
    defect = (a @ a - flow).op_norm()
    if defect > tol_eq * max(1.0, flow.op_norm()):
        raise PreconditionError(f"a_g^2 deviates from the half-flowed cocycle by {defect:.3e}")
    alpha = 1.0 / x_ginv.op_norm()
    if (a @ a).min_eig() < alpha - tol_eq * max(1.0, alpha):
        raise PreconditionError("a_g^2 lost its uniform lower bound")
    return a


def u_g(phi: State, g: Automorphism, roots, ag: AlgebraElement, tol_eq: float) -> L2Operator:
    """The unitary xi |-> g^-1(xi rho^{-1/2}) rho^{1/2} a_g on Hilbert-Schmidt
    coordinates, given ``roots`` = (rho^{1/2}, rho^{-1/2}) and a_g: the
    product R(rho^{1/2} a_g) A(g^-1) R(rho^{-1/2}) of right multiplications
    and the action matrix."""
    root, root_inv = roots
    mat = (right_mult_matrix(root @ ag) @ action_matrix(inverse(g))
           @ right_mult_matrix(root_inv))
    n = phi.descriptor.dim
    res = float(np.linalg.norm(dagger(mat) @ mat - np.eye(n), 2))
    if res > tol_eq * max(1.0, float(np.linalg.norm(mat, 2)) ** 2):
        raise PreconditionError(f"implementing operator is not unitary: residual {res:.3e}")
    return L2Operator(phi.descriptor, mat, unitarity_residual=res)


def group_unitaries(phi: State, group: FiniteGroup, roots, a, tol_eq: float):
    """U_g for each group element, given a_g in group order."""
    return [u_g(phi, g, roots, ag, tol_eq) for g, ag in zip(group.elements, a)]


def verify_covariance(an) -> Check:
    """U_g* L_x U_g = L_{g(x)} over the whole group and a basis of the algebra."""
    worst = 0.0
    basis = matrix_unit_basis(an.phi.descriptor)
    for g, u in zip(an.group.elements, an.unitaries):
        for x in basis:
            lhs = dagger(u.matrix) @ left_mult_matrix(x) @ u.matrix
            rhs = left_mult_matrix(apply(g, x))
            worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return residual_check("covariance", "U_g* L_x U_g = L_{g(x)}", worst, an.tol_eq)


def verify_representation(an) -> Check:
    """Product rule U_g U_h = U_{hg}; asserted only in the strong case,
    otherwise the deviation is recorded as a diagnostic."""
    us, group, strong = an.unitaries, an.group, an.strong
    worst = 0.0
    for i in range(group.order):
        for j in range(group.order):
            lhs = us[i].matrix @ us[j].matrix
            rhs = us[group.mult[j, i]].matrix
            worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return residual_check("representation", "U_g U_h = U_{hg}", worst, an.tol_eq,
                          asserted=strong,
                          detail="" if strong else "recorded only: product rule unproven here")


def gamma_factorization(an):
    """Invertible gamma with rho_psi^{1/2} = gamma rho^{1/2}, for psi the
    invariant state of the instance analysis ``an``.

    Verifies rho_psi = gamma rho gamma*, d* = gamma sigma_{-i}(gamma*)
    for the linking element d = rho^-1 rho_psi, and
    x_g* = gamma_g sigma_{-i}(gamma_g*) with gamma_g = g^-1(gamma^-1) gamma
    over the group.  Returns (gamma, d, CheckSet).
    """
    tol_eq, tol_pos = an.tol_eq, an.tol_pos
    psi = an.certificate.psi
    rho, rho_psi = an.phi.density, psi.density
    root, root_inv = an.roots
    rho_inv = rho.inv()
    psi_root = density_power(psi, -0.5j, tol_pos)
    gamma = psi_root @ root_inv
    d = rho_inv @ rho_psi
    if d.min_sv() <= tol_pos * max(1.0, d.op_norm()):
        raise PreconditionError("linking element d = rho^-1 rho_psi is singular")

    checks = CheckSet()
    checks.add(residual_check("gamma_root_link", "rho_psi^{1/2} = gamma rho^{1/2}",
                              (psi_root - gamma @ root).op_norm(), tol_eq,
                              psi_root.op_norm()))
    checks.add(residual_check("gamma_density_link", "rho_psi = gamma rho gamma*",
                              (rho_psi - gamma @ rho @ gamma.adjoint()).op_norm(),
                              tol_eq, rho_psi.op_norm()))

    def sigma_minus_i(x):
        return rho @ x @ rho_inv

    lhs = d.adjoint()
    rhs = gamma @ sigma_minus_i(gamma.adjoint())
    checks.add(residual_check("d_factorization", "d* = gamma sigma_{-i}(gamma*)",
                              (lhs - rhs).op_norm(), tol_eq, d.op_norm()))

    group, x = an.group, an.table.entries
    gamma_g = apply_all(group, gamma.inv())[group.inv] @ gamma
    worst = (x.adjoint() - gamma_g @ sigma_minus_i(gamma_g.adjoint())).op_norm()
    scale = max(1.0, x.op_norm())
    checks.add(residual_check("cocycle_factorization",
                              "x_g* = gamma_g sigma_{-i}(gamma_g*)",
                              worst, tol_eq, scale))
    return gamma, d, checks


def lemma_chain_checks(an) -> CheckSet:
    """Density identities tying the predual action, a_g and the cocycle:
    g^*(rho) = rho^{1/2} a_g^2 rho^{1/2} = x_g* rho = rho x_g; in the strong
    case additionally a_g = x_g^{1/2} and a_g rho^{1/2} = rho^{1/2} a_g."""
    rho, strong, tol_eq, tol_pos = an.phi.density, an.strong, an.tol_eq, an.tol_pos
    root, a, x, group = an.roots[0], an.a, an.table.entries, an.group
    target = apply_all(group, rho)[group.inv]
    scale = max(1.0, x.op_norm())
    checks = CheckSet()
    checks.add(residual_check("predual_via_a_g", "g^*(rho) = rho^{1/2} a_g^2 rho^{1/2}",
                              (target - root @ a @ a @ root).op_norm(), tol_eq, scale))
    checks.add(residual_check("predual_via_x_g", "g^*(rho) = x_g* rho",
                              (target - x.adjoint() @ rho).op_norm(), tol_eq, scale))
    checks.add(residual_check("density_intertwine", "x_g* rho = rho x_g",
                              (x.adjoint() @ rho - rho @ x).op_norm(), tol_eq, scale))
    if strong:
        xr = AlgebraElement(an.phi.descriptor,
                            [matcore.psd_sqrt(0.5 * (b + dagger(b)), tol_pos=tol_pos)
                             for b in x.blocks])
        checks.add(residual_check("a_g_is_root", "a_g = x_g^{1/2}",
                                  (a - xr).op_norm(), tol_eq, scale))
        checks.add(residual_check("a_g_root_commute", "a_g rho^{1/2} = rho^{1/2} a_g",
                                  (a @ root - root @ a).op_norm(), tol_eq, scale))
    return checks
