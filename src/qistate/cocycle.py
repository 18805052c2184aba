"""Radon-Nikodym cocycles of a quasi-invariant state under a finite group.

For a faithful state phi with density rho and an automorphism g, the
cocycle element x_g is the unique solution of phi(g(a)) = phi(x_g a); at
finite dimension x_g = rho^-1 g^-1(rho).  The table of all x_g carries the
uniform bound lambda = max_g max(||x_g||, ||x_g^-1||), the chain rule
x_{hg} = x_g g^-1(x_h), the inverse formula x_g^-1 = g^-1(x_{g^-1}) (the
table's inverses, so no x_g is inverted), and the adjoint relation
rho x_g = x_g* rho.  A state is strongly quasi-invariant when every x_g
is self-adjoint; then the x_g are positive, commute pairwise, lie in the
centralizer of phi, and their spectra sit in [1/lambda, lambda].
"""

import random
from dataclasses import dataclass

import numpy as np

from . import matcore
from .algebra import AlgebraElement, State, evaluate, identity, require_faithful, worst_op_norm
from .actions import Automorphism, FiniteGroup, predual
from .matcore import PreconditionError, TOL_EQ, TOL_POS
from .reporting import EDGES, Check, residual_check


def rn_cocycle(phi: State, g: Automorphism, tol_pos: float = TOL_POS) -> AlgebraElement:
    """x_g = rho^-1 g^-1(rho), for a faithful phi.  phi(g(a)) = phi(x_g a)
    holds by construction, tr(rho g(a)) = tr(g^-1(rho) a), so testing it
    against the g^-1(rho) that x_g is built from could only measure roundoff."""
    require_faithful(phi, tol_pos)
    rho = phi.density
    return rho.inv() @ predual(g, rho)


@dataclass
class CocycleTable:
    """All cocycle elements x_g of a group and their inverses, each as one
    element stacked over the group: ``entries[k]`` is x_g for the group
    element with index k, rho^-1 g^-1(rho) = ``rho_inv @ predual_rho`` with
    ``rho_inv`` the one LU inverse of rho, and ``inverses[k]`` its inverse g^-1(x_{g^-1}).  ``entry_norm`` is
    max_g ||x_g||, ``inverse_norm`` max_g ||x_g^-1||, and lambda the larger."""

    phi: State
    group: FiniteGroup
    entries: AlgebraElement
    inverses: AlgebraElement
    predual_rho: AlgebraElement
    rho_inv: AlgebraElement
    entry_norm: float
    inverse_norm: float
    lambda_bound: float


def build_table(phi: State, group: FiniteGroup, tol_pos: float = TOL_POS) -> CocycleTable:
    """Compute every x_g and the uniform bound lambda, as stacks over the
    group; refuses when some x_g has min_sv(x_g) <= tol_pos max(1, ||x_g||)."""
    require_faithful(phi, tol_pos)
    predual_rho = predual(group.elements, phi.density)
    rho_inv = phi.density.inv()
    entries = rho_inv @ predual_rho
    svs = [matcore.singular_values(b) for b in entries.blocks]
    norms = np.max([s[..., 0] for s in svs], axis=0)
    if np.any(np.min([s[..., -1] for s in svs], axis=0) <= tol_pos * np.maximum(1.0, norms)):
        raise PreconditionError("cocycle element is numerically singular")
    inverses = predual(group.elements, entries[group.inv])
    entry_norm, inverse_norm = float(np.max(norms)), inverses.op_norm()
    return CocycleTable(phi, group, entries, inverses, predual_rho, rho_inv, entry_norm,
                        inverse_norm, max(entry_norm, inverse_norm))


def verify_cocycle_identity(table: CocycleTable, tol_eq: float = TOL_EQ) -> Check:
    """Chain rule x_{hg} = x_g g^-1(x_h) on the Cayley edges (``EDGES``):
    for each generator s, x_{hs} - x_s s^-1(x_h) for every h at once, with
    x_{hs} read at ``right[:, s]``, in one ``worst_op_norm`` pool.  With
    E(g, h) = x_{hg} - x_g g^-1(x_h), exactly E(1, h) = 0 as x_1 = 1, and
    E(g's, h) = x_s s^-1(E(g', h)) - E(s, g') (g's)^-1(x_h) + E(s, hg').
    """
    grp, x = table.group, table.entries
    worst = worst_op_norm(x[grp.right[:, s]] - x[g] @ predual(grp.elements[g], x)
                          for s, g in enumerate(grp.first_layer))
    return residual_check("cocycle_identity", "x_{hg} = x_g g^-1(x_h)",
                          worst, tol_eq, max(1.0, table.entry_norm), detail=EDGES)


def verify_inverse_formula(table: CocycleTable, tol_eq: float = TOL_EQ) -> Check:
    """x_g g^-1(x_{g^-1}) = 1, the chain rule at (g, g^-1) as x_1 = 1, for
    every g at once: the table's inverses tested against its entries."""
    worst = (table.entries @ table.inverses - identity(table.phi.descriptor)).op_norm()
    return residual_check("inverse_formula", "x_g^-1 = g^-1(x_{g^-1})",
                          worst, tol_eq, max(1.0, table.inverse_norm))


def verify_adjoint_relation(table: CocycleTable, tol_eq: float = TOL_EQ) -> Check:
    """rho x_g = x_g* rho, the density form of phi(x_g a) = phi(a x_g*)."""
    rho, x = table.phi.density, table.entries
    return residual_check("adjoint_relation", "rho x_g = x_g* rho",
                          (rho @ x - x.adjoint() @ rho).op_norm(), tol_eq,
                          max(1.0, table.entry_norm))


def self_adjoint_check(table: CocycleTable, tol_eq: float) -> Check:
    """x_g = x_g* for every g, recorded: its pass is strong quasi-invariance."""
    return residual_check("self_adjoint", "x_g = x_g*", table.entries.herm_residual(), tol_eq,
                          table.entry_norm, asserted=False,
                          detail="decides strong quasi-invariance")


def is_strongly_qi(an) -> list:
    """The analysis ``an``'s recorded ``self_adjoint`` check, whose pass
    alone is ``an.strong``, plus the consequences when it holds: checks of
    positive definiteness, pairwise commutation, centralizer membership
    [rho, x_g] = 0, and spectra inside [1/lambda, lambda]."""
    checks = [an.self_adjoint]
    if not an.strong:
        return checks

    table, tol_eq, tol_pos = an.table, an.tol_eq, an.tol_pos
    x, scale, lam = table.entries, table.entry_norm, table.lambda_bound
    spectra = [matcore.herm_eig(b)[0] for b in x.blocks]
    min_spec = min(float(np.min(w[..., 0])) for w in spectra)
    max_spec = max(float(np.max(w[..., -1])) for w in spectra)
    checks.append(residual_check("positive", "x_g > 0",
                                 max(0.0, tol_pos - min_spec), tol_pos))
    checks.append(residual_check(
        "spectrum_window", "1/lambda <= x_g <= lambda",
        max(0.0, 1.0 / lam - min_spec, max_spec - lam), tol_eq, lam))
    # x_g against every later x_h at once
    comm = worst_op_norm(x[k] @ x[k + 1:] - x[k + 1:] @ x[k] for k in range(table.group.order))
    checks.append(residual_check("pairwise_commuting", "[x_g, x_h] = 0",
                                 comm, tol_eq, scale * scale))
    rho = table.phi.density
    checks.append(residual_check("centralizer", "[rho, x_g] = 0",
                                 (rho @ x - x @ rho).op_norm(), tol_eq, scale))
    return checks


def sz_domination(table: CocycleTable, probes, tol_eq: float = TOL_EQ) -> Check:
    """Domination of a positive form: phi(x_g a) <= ||x_g|| phi(a) for
    a >= 0, over the whole group; ``probes`` is an iterable of PSD elements.
    The check reported is that of the element with the largest residual
    (the first of equals).

    The form a |-> phi(x_g a) is positive for every g, because
    rho x_g = g^-1(rho) is PSD by construction; so that is not tested.
    """
    phi, x = table.phi, table.entries
    bound = x.op_norms()
    worst = np.zeros(len(bound))
    for a in probes:
        worst = np.maximum(worst, (evaluate(phi, x @ a) - bound * evaluate(phi, a)).real)
    k = np.argmax(worst)
    return residual_check("sz_domination", "phi(a x) <= ||a|| phi(x) for x >= 0",
                          float(worst[k]), tol_eq, float(bound[k]))


def sandwich_check(table: CocycleTable, probes, tol_eq: float = TOL_EQ) -> Check:
    """Two-sided bounds (1/lambda) phi(a) <= phi(x_g a), phi(a (x_g^-1)*) <= lambda phi(a),
    for each probe a over the whole group at once."""
    phi, lam, x = table.phi, table.lambda_bound, table.entries
    x_inv_adj = table.inverses.adjoint()
    worst = 0.0
    for a in probes:
        base = evaluate(phi, a).real
        for val in (evaluate(phi, x @ a).real, evaluate(phi, a @ x_inv_adj).real):
            worst = max(worst, float(np.max(base / lam - val)), float(np.max(val - lam * base)))
    return residual_check("sandwich", "phi(a)/lambda <= phi(x_g a), phi(a (x_g^-1)*) <= lambda phi(a)",
                          max(0.0, worst), tol_eq, lam)


def random_probe(rng: random.Random, descriptor) -> AlgebraElement:
    """Random element with independent standard complex Gaussian entries,
    drawn block by block (``matcore.gaussian_block``)."""
    return AlgebraElement(descriptor, [matcore.gaussian_block(rng, n)
                                       for n in descriptor.block_dims])


def random_psd_probe(rng: random.Random, descriptor) -> AlgebraElement:
    """Random PSD element m m*, normalized to operator norm 1."""
    m = random_probe(rng, descriptor)
    x = m @ m.adjoint()
    return (1.0 / max(x.op_norm(), 1e-300)) * x
