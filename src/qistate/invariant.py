"""Construction of an invariant state from a uniformly bounded cocycle.

The maps Gamma_g(a) = x_{g^-1} g(a) permute the cocycle elements, so the
uniform average d of all x_g is a Gamma-fixed element with phi(d) = 1.
psi(a) = phi(d a) is then a faithful invariant state sandwiched between
phi/lambda and lambda*phi.  Conversely any invertible d implementing an
invariant state reproduces the cocycle as x_g = d g^-1(d^-1) with
||x_g|| <= ||d|| ||d^-1||; when d can be taken positive the state is
strongly quasi-invariant and the orbit of d commutes, [d, g(d)] = 0.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraElement, State, evaluate, evaluate_blocks,
                      matrix_unit_basis, state_from_density)
from .actions import apply, apply_all, inverse, predual
from .cocycle import CocycleTable, random_probe
from .matcore import PreconditionError, TOL_EQ, TOL_POS, dagger, max_op_distance
from .reporting import CheckSet, residual_check


def gamma_map(table: CocycleTable, i: int, a: AlgebraElement) -> AlgebraElement:
    """Gamma_g(a) = x_{g^-1} g(a) for g the group element with index ``i``."""
    group = table.group
    return table.entries[group.inv[i]] @ apply(group.elements[i], a)


def _gamma_all(table: CocycleTable, blocks) -> list:
    """Gamma_g(a) = x_{g^-1} g(a) for every g, from the blocks of a: one
    (|G|, ..., n_i, n_i) stack per block, as ``apply_all`` lays it out."""
    inv = table.group.inv
    out = []
    for x, ga in zip(table.stacks, apply_all(table.group, blocks)):
        x = x[inv]
        out.append(x.reshape(x.shape[:1] + (1,) * (ga.ndim - 3) + x.shape[1:]) @ ga)
    return out


def gamma_properties_check(an, rng=None, n_probes: int = 4) -> CheckSet:
    """The five algebraic properties of the Gamma maps, over the whole group.

    Each law is evaluated for all g at once on stacked blocks; a sweep over
    pairs loops over its second index, so that no intermediate holds a
    |G|^2 family.
    """
    rng = rng or np.random.default_rng(0)
    table, tol_eq = an.table, an.tol_eq
    phi, group = table.phi, table.group
    checks = CheckSet()
    probes = [random_probe(rng, phi.descriptor) for _ in range(n_probes)]
    gammas = [_gamma_all(table, a.blocks) for a in probes]
    inv = np.array(group.inv)

    # (i) Gamma_g(x_h) = x_{h g^-1}
    worst = 0.0
    for h in range(group.order):
        lhs = _gamma_all(table, [s[h] for s in table.stacks])
        rows = group.mult[h, inv]
        worst = max(worst, max_op_distance(lhs, [s[rows] for s in table.stacks]))
    checks.add(residual_check("gamma_permutes_cocycle", "Gamma_g(x_h) = x_{h g^-1}",
                              worst, tol_eq, table.lambda_bound))

    # (ii) Gamma_{gh} = Gamma_g o Gamma_h
    worst = 0.0
    for a, ga in zip(probes, gammas):
        scale = max(1.0, a.op_norm())
        for h in range(group.order):
            lhs = [s[group.mult[:, h]] for s in ga]
            rhs = _gamma_all(table, [s[h] for s in ga])
            worst = max(worst, max_op_distance(lhs, rhs) / scale)
    checks.add(residual_check("gamma_multiplicative", "Gamma_{gh} = Gamma_g Gamma_h",
                              worst, tol_eq, table.lambda_bound ** 2))

    # (iii) phi o Gamma_g = phi
    worst = 0.0
    for a in matrix_unit_basis(phi.descriptor):
        lhs = evaluate_blocks(phi, _gamma_all(table, a.blocks))
        worst = max(worst, float(np.max(np.abs(lhs - evaluate(phi, a)))))
    checks.add(residual_check("gamma_preserves_state", "phi(Gamma_g(a)) = phi(a)",
                              worst, tol_eq))

    # (iv) Gamma_g(ab) = Gamma_g(a) (x_{g^-1})^-1 Gamma_g(b)
    worst = 0.0
    xinv = [s[inv] for s in table.inverse_stacks]
    for a, ga in zip(probes[:2], gammas[:2]):
        for b, gb in zip(probes[2:], gammas[2:]):
            lhs = _gamma_all(table, (a @ b).blocks)
            rhs = [p @ q @ r for p, q, r in zip(ga, xinv, gb)]
            worst = max(worst, max_op_distance(lhs, rhs)
                        / max(1.0, a.op_norm() * b.op_norm()))
    checks.add(residual_check("gamma_twisted_product",
                              "Gamma_g(ab) = Gamma_g(a) x_{g^-1}^-1 Gamma_g(b)",
                              worst, tol_eq, table.lambda_bound ** 2))

    # (v) Gamma_g(a)* = (x_{g^-1})^-1 Gamma_g(a*) (x_{g^-1})*
    worst = 0.0
    x = [s[inv] for s in table.stacks]
    for a, ga in zip(probes, gammas):
        rhs = [p @ q @ dagger(r)
               for p, q, r in zip(xinv, _gamma_all(table, a.adjoint().blocks), x)]
        lhs = [dagger(s) for s in ga]
        worst = max(worst, max_op_distance(lhs, rhs) / max(1.0, a.op_norm()))
    checks.add(residual_check("gamma_adjoint",
                              "Gamma_g(a)* = x_{g^-1}^-1 Gamma_g(a*) x_{g^-1}*",
                              worst, tol_eq, table.lambda_bound ** 2))
    return checks


def fixed_density_d(table: CocycleTable, tol_eq: float) -> tuple:
    """Gamma-fixed element d = average of all cocycle entries; phi(d) = 1.

    Exact for finite groups because Gamma_g permutes the x_h.  Returns d
    and its Gamma-fixedness residual max_g ||Gamma_g(d) - d||.
    """
    d = table.entries[0]
    for x in table.entries[1:]:
        d = d + x
    d = (1.0 / table.group.order) * d
    worst = max_op_distance(_gamma_all(table, d.blocks), d.blocks)
    if worst > tol_eq * max(1.0, d.op_norm()):
        raise PreconditionError(f"averaged element is not Gamma-fixed: residual {worst:.3e}")
    defect = abs(evaluate(table.phi, d) - 1.0)
    if defect > tol_eq:
        raise PreconditionError(f"phi(d) = 1 fails by {defect:.3e}")
    return d, worst


@dataclass
class InvariantCertificate:
    """Invariant state psi = phi(d .) together with its verification residuals."""

    d: AlgebraElement
    psi: State
    lambda_used: float
    residuals: dict


def invariant_state(table: CocycleTable, tol_eq: float, tol_pos: float) -> InvariantCertificate:
    """Forward construction: d, then psi(a) = phi(d a) as an explicit state.

    The density of psi is the symmetrization of rho d, accepted only when
    the anti-Hermitian part is at roundoff level and the result is PSD.
    """
    phi, group = table.phi, table.group
    d, gamma_res = fixed_density_d(table, tol_eq=tol_eq)
    rho = phi.density
    rho_d = rho @ d
    skew = (rho_d - rho_d.adjoint()).op_norm()
    if skew > tol_eq * max(1.0, rho_d.op_norm()):
        raise PreconditionError(
            f"rho d has anti-Hermitian part {skew:.3e}; cannot assemble the invariant density"
        )
    rho_psi = 0.5 * (rho_d + rho_d.adjoint())
    mn = rho_psi.min_eig()
    if mn < -tol_pos:
        raise PreconditionError(f"rho d is not PSD: min eigenvalue {mn:.3e}")
    psi = state_from_density(rho_psi, tol_eq=max(tol_eq, 1e-9), tol_pos=tol_pos)

    inv_res = max((predual(g, rho_psi) - rho_psi).op_norm() for g in group.elements)
    # psi is sandwiched between phi/lambda and lambda*phi, hence faithful.
    margin = mn - (phi.density.min_eig() / table.lambda_bound)
    residuals = {
        "gamma_fixed": gamma_res,
        "invariance": inv_res,
        "faithfulness_margin": margin,
        "normalization": abs(evaluate(phi, d) - 1.0),
        "skew_part": skew,
        "min_singular_value_d": d.min_sv(),
        "asserts": {
            "invariance": inv_res <= tol_eq * max(1.0, rho_psi.op_norm()),
            "faithful": mn > tol_pos,
        },
    }
    return InvariantCertificate(d, psi, table.lambda_bound, residuals)


def cocycle_from_d(table: CocycleTable, d: AlgebraElement, i: int,
                   tol_eq: float = TOL_EQ, tol_pos: float = TOL_POS) -> AlgebraElement:
    """Converse direction: x_g = d g^-1(d^-1) for an invertible d whose
    state psi = phi(d .) is invariant, with g the group element with index
    ``i``; checked against the table's x_g and the bound
    ||x_g|| <= ||d|| ||d^-1||."""
    phi, g = table.phi, table.group.elements[i]
    if d.min_sv() <= tol_pos * max(1.0, d.op_norm()):
        raise PreconditionError("d is numerically singular")
    d_inv = d.inv()
    rho_d = phi.density @ d
    rho_psi = 0.5 * (rho_d + rho_d.adjoint())
    worst = max((predual(h, rho_psi) - rho_psi).op_norm()
                for h in (g, inverse(g)))
    if worst > tol_eq * max(1.0, rho_psi.op_norm()):
        raise PreconditionError(
            f"phi(d .) is not invariant under g: residual {worst:.3e}"
        )
    x = d @ apply(inverse(g), d_inv)
    direct = table.entries[i]
    defect = (x - direct).op_norm()
    if defect > tol_eq * max(1.0, direct.op_norm()):
        raise PreconditionError(
            f"d g^-1(d^-1) disagrees with the direct cocycle by {defect:.3e}"
        )
    bound = d.op_norm() * d_inv.op_norm()
    if x.op_norm() > bound + tol_eq * max(1.0, bound):
        raise PreconditionError("cocycle norm exceeds ||d|| ||d^-1||")
    return x


def strong_case_check(an) -> CheckSet:
    """Extra structure in the strongly quasi-invariant case: d is positive
    with spectrum in [1/lambda, lambda] and commutes with its orbit."""
    if not an.strong:
        raise PreconditionError("state is not strongly quasi-invariant")
    d, lam, tol_eq = an.certificate.d, an.table.lambda_bound, an.tol_eq
    checks = CheckSet()
    checks.add(residual_check("d_self_adjoint", "d = d*", d.herm_residual(),
                              tol_eq, d.op_norm()))
    lo, hi = d.min_eig(), max(np.linalg.eigvalsh(b)[-1] for b in d.blocks)
    checks.add(residual_check("d_spectrum_window", "1/lambda <= d <= lambda",
                              max(0.0, 1.0 / lam - lo, hi - lam), tol_eq, lam))
    worst = max((d @ apply(g, d) - apply(g, d) @ d).op_norm() for g in an.group.elements)
    checks.add(residual_check("d_orbit_commutes", "[d, g(d)] = 0",
                              worst, tol_eq, d.op_norm() ** 2))
    return checks
