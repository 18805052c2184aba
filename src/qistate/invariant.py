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

from . import matcore
from .algebra import AlgebraElement, State, evaluate, max_entry, stack, worst_op_norm
from .actions import apply, predual
from .cocycle import CocycleTable, random_probe, verify_cocycle_identity
from .matcore import PreconditionError, TOL_EQ, TOL_POS
from .reporting import EDGES, Check, residual_check


def gamma_map(table: CocycleTable, i: int, a: AlgebraElement) -> AlgebraElement:
    """Gamma_g(a) = x_{g^-1} g(a) for g the group element with index ``i``."""
    group = table.group
    return table.entries[group.inv[i]] @ apply(group.elements[i], a)


def _gamma_all(xi: AlgebraElement, group, a: AlgebraElement) -> AlgebraElement:
    """Gamma_g(a) = x_{g^-1} g(a) for every g, with the group axis first and
    the batch axes of ``a`` after it; ``xi`` is the table's entries
    gathered at ``group.inv``, so that ``xi[k]`` is x_{g^-1} for the
    element g with index k."""
    return xi[(slice(None),) + (None,) * len(a.batch)] @ apply(group.elements, a)


# Random probes a, b of the Gamma laws; (iv) pairs the first two with the rest.
N_PROBES = 4


def gamma_properties_check(an, rng) -> list:
    """The five algebraic properties of the Gamma maps, over the whole group.

    Each law is one expression on group-stacked elements.  The pair laws
    take the Cayley edges (``EDGES``): (i) reads the chain rule, and (ii)
    takes h = s a generator and every g, one expression per s.  With
    D(g, h) = Gamma_{gh} - Gamma_g Gamma_h, exactly D(g, 1) = 0 as
    Gamma_1 = 1, and D(g, h's) = D(gh', s) + D(g, h') Gamma_s - Gamma_g D(h', s).

    (iii) phi(Gamma_g(a)) = tr(g^-1(rho x_{g^-1}) a), so its residual over the
    matrix units E, max |phi(Gamma_g(E)) - phi(E)|, is ``max_entry`` of
    g^-1(rho x_{g^-1}) - rho; x_{g^-1} is the table's, as ``predual_rho``
    would give rho x_{g^-1} = g(rho) and make the law hold by construction.
    """
    table, tol_eq = an.table, an.tol_eq
    phi, group, x, rho = table.phi, table.group, table.entries, table.phi.density
    xi, xi_inv = x[group.inv], table.inverses[group.inv]    # x_{g^-1}, its inverse
    probes = stack(random_probe(rng, phi.descriptor) for _ in range(N_PROBES))
    norms = [a.op_norm() for a in probes]
    gammas = _gamma_all(xi, group, probes)    # [g, p] = Gamma_g(a_p)

    # (i) Gamma_g(x_h) = x_{g^-1} g(x_h) = x_{h g^-1} is the chain rule at
    # g1 = g^-1, g2 = h, so its residual is that of the chain-rule sweep
    checks = [residual_check("gamma_permutes_cocycle", "Gamma_g(x_h) = x_{h g^-1}",
                             verify_cocycle_identity(table, tol_eq).residual, tol_eq,
                             table.lambda_bound, detail=EDGES)]

    # (ii) Gamma_{gs} = Gamma_g o Gamma_s; gammas[group.right[:, s], p] is Gamma_{gs}(a_p)
    worst = max(worst_op_norm(gammas[group.right[:, s], p] - _gamma_all(xi, group, gammas[h, p])
                              for s, h in enumerate(group.first_layer)) / max(1.0, norms[p])
                for p in range(N_PROBES))
    checks.append(residual_check("gamma_multiplicative", "Gamma_{gh} = Gamma_g Gamma_h",
                                 worst, tol_eq, table.lambda_bound ** 2, detail=EDGES))

    # (iii) phi o Gamma_g = phi, on the densities
    checks.append(residual_check("gamma_preserves_state", "phi(Gamma_g(a)) = phi(a)",
                                 max_entry(predual(group.elements, rho @ xi) - rho), tol_eq))

    # (iv) Gamma_g(ab) = Gamma_g(a) (x_{g^-1})^-1 Gamma_g(b), with a among the
    # first two probes and b among the others
    lhs = _gamma_all(xi, group, probes[:2, None] @ probes[None, 2:])
    diff = lhs - gammas[:, :2, None] @ xi_inv[:, None, None] @ gammas[:, None, 2:]
    worst = max(diff[:, i, j].op_norm() / max(1.0, norms[i] * norms[2 + j])
                for i in range(2) for j in range(N_PROBES - 2))
    checks.append(residual_check("gamma_twisted_product",
                                 "Gamma_g(ab) = Gamma_g(a) x_{g^-1}^-1 Gamma_g(b)",
                                 worst, tol_eq, table.lambda_bound ** 2))

    # (v) Gamma_g(a)* = (x_{g^-1})^-1 Gamma_g(a*) (x_{g^-1})*
    rhs = xi_inv[:, None] @ _gamma_all(xi, group, probes.adjoint()) @ xi.adjoint()[:, None]
    diff = gammas.adjoint() - rhs
    worst = max(diff[:, p].op_norm() / max(1.0, norms[p]) for p in range(N_PROBES))
    checks.append(residual_check("gamma_adjoint",
                                 "Gamma_g(a)* = x_{g^-1}^-1 Gamma_g(a*) x_{g^-1}*",
                                 worst, tol_eq, table.lambda_bound ** 2))
    return checks


def fixed_density_d(table: CocycleTable, tol_eq: float) -> tuple:
    """Gamma-fixed element d = average of all cocycle entries; phi(d) = 1.

    Exact for finite groups because Gamma_g permutes the x_h.  Returns d
    and its Gamma-fixedness residual max_g ||Gamma_g(d) - d||, which is not
    refused here: ``invariant_state`` reports it as ``gamma_fixed_d``, at
    the threshold a refusal would use.  phi(d) = 1 is refused, since
    ``invariant_state`` takes it as the trace of psi.
    """
    d = table.entries.mean()
    worst = (_gamma_all(table.entries[table.group.inv], table.group, d) - d).op_norm()
    defect = abs(evaluate(table.phi, d) - 1.0)
    if defect > tol_eq:
        raise PreconditionError(f"phi(d) = 1 fails by {defect:.3e}")
    return d, worst


@dataclass
class InvariantCertificate:
    """Invariant state psi = phi(d .) with the checks of its construction."""

    d: AlgebraElement
    psi: State
    gamma_fixed: Check    # Gamma_g(d) = d
    invariance: Check     # psi o g = psi
    faithful: Check       # psi >= phi/lambda, and psi faithful

    @property
    def checks(self) -> list:
        return [self.gamma_fixed, self.invariance, self.faithful]


def invariant_state(table: CocycleTable, tol_eq: float, tol_pos: float) -> InvariantCertificate:
    """Forward construction: d, then psi(a) = phi(d a) as an explicit state.

    The density of psi is the symmetrization of rho d, accepted only when
    the anti-Hermitian part is at roundoff level.  It is Hermitian by
    construction, and its trace is the real part of phi(d) = 1, which
    ``fixed_density_d`` checks; so psi is not validated again.  It is not
    refused for a negative eigenvalue: rho d = mean_g g^-1(rho) is a mean
    of PSD matrices, ``psi_faithful`` asserts the stronger min eig > tol_pos,
    and the builders that use psi (``gamma_factorization``,
    ``cond_expectation``) refuse a non-faithful one.  psi keeps the spectrum
    of rho_psi taken here, so its min eig and its root read one decomposition.
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
    psi = State._unchecked(rho_psi.descriptor, rho_psi,
                           [matcore.herm_eig(b) for b in rho_psi.blocks])

    inv_res = (apply(group.elements, rho_psi) - rho_psi).op_norm()
    # psi is sandwiched between phi/lambda and lambda*phi, hence faithful;
    # the check also asks that its min eigenvalue clear tol_pos
    shortfall = max(0.0, phi.min_eig / table.lambda_bound - psi.min_eig)
    return InvariantCertificate(
        d, psi,
        residual_check("gamma_fixed_d", "Gamma_g(d) = d", gamma_res, tol_eq, d.op_norm()),
        residual_check("psi_invariant", "psi o g = psi", inv_res, tol_eq, rho_psi.op_norm()),
        Check("psi_faithful", "psi >= phi/lambda stays faithful", shortfall, tol_eq,
              shortfall <= tol_eq and psi.min_eig > tol_pos))


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
    worst = max((apply(g, rho_psi) - rho_psi).op_norm(),
                (predual(g, rho_psi) - rho_psi).op_norm())
    if worst > tol_eq * max(1.0, rho_psi.op_norm()):
        raise PreconditionError(
            f"phi(d .) is not invariant under g: residual {worst:.3e}"
        )
    x = d @ predual(g, d_inv)
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


def strong_case_check(an) -> list:
    """Extra structure in the strongly quasi-invariant case: d is positive
    with spectrum in [1/lambda, lambda] and commutes with its orbit."""
    if not an.strong:
        raise PreconditionError("state is not strongly quasi-invariant")
    d, lam, tol_eq = an.certificate.d, an.table.lambda_bound, an.tol_eq
    spectra = [matcore.herm_eig(b)[0] for b in d.blocks]
    lo, hi = min(float(w[0]) for w in spectra), max(float(w[-1]) for w in spectra)
    orbit = apply(an.group.elements, d)
    return [residual_check("d_self_adjoint", "d = d*", d.herm_residual(), tol_eq, d.op_norm()),
            residual_check("d_spectrum_window", "1/lambda <= d <= lambda",
                           max(0.0, 1.0 / lam - lo, hi - lam), tol_eq, lam),
            residual_check("d_orbit_commutes", "[d, g(d)] = 0",
                           (d @ orbit - orbit @ d).op_norm(), tol_eq, d.op_norm() ** 2)]
