"""Radon-Nikodym cocycles of a quasi-invariant state under a finite group.

For a faithful state phi with density rho and an automorphism g, the
cocycle element x_g is the unique solution of phi(g(a)) = phi(x_g a); at
finite dimension x_g = rho^-1 g^-1(rho).  The table of all x_g carries the
uniform bound lambda = max_g max(||x_g||, ||x_g^-1||), the chain rule
x_{hg} = x_g g^-1(x_h), the inverse formula, and the adjoint relation
rho x_g = x_g* rho.  A state is strongly quasi-invariant when every x_g is
self-adjoint; then the x_g are positive, commute pairwise, lie in the
centralizer of phi, and their spectra sit in [1/lambda, lambda].
"""

import random
from dataclasses import dataclass

import numpy as np

from . import matcore
from .algebra import AlgebraElement, State, evaluate, require_faithful, worst_op_norm
from .actions import Automorphism, FiniteGroup, apply, predual
from .matcore import PreconditionError, TOL_EQ, TOL_POS, dagger
from .reporting import Check, CheckSet, residual_check


def rn_cocycle(phi: State, g: Automorphism, tol_pos: float = TOL_POS,
               tol_eq: float = TOL_EQ) -> AlgebraElement:
    """x_g = rho^-1 g^-1(rho), checked against phi(g(a)) = phi(x_g a)."""
    require_faithful(phi, tol_pos)
    rho = phi.density
    x = rho.inv() @ predual(g, rho)
    _require_cocycles(x, _cocycle_defect(phi, g, x), tol_eq)
    return x


def _cocycle_defect(phi: State, g: Automorphism, x: AlgebraElement):
    """max |phi(g(E)) - phi(x E)| over the matrix units E; one value per
    element when ``g`` is the group and ``x`` a stack over it.

    For E = E_rc in block j, g(E) is u E u* in block perm(j) with
    u = u_{perm(j)}, so phi(g(E)) = (u* rho_{perm(j)} u)_{cr} = g^-1(rho)_{cr}
    and phi(x E) = (rho_j x_j)_{cr}: one entrywise comparison per block.
    """
    rho = phi.density
    if isinstance(g, FiniteGroup):
        target = predual(g, rho).blocks
    else:    # g's own unitaries, whatever x was computed from
        target = [dagger(g.unitaries[p]) @ rho.blocks[p] @ g.unitaries[p] for p in g.perm]
    return np.max([np.max(np.abs(t - r @ xb), axis=(-2, -1))
                   for t, r, xb in zip(target, rho.blocks, x.blocks)], axis=0)


def _require_cocycles(x: AlgebraElement, defect, tol_eq: float, tol_pos: float = None):
    """The operator norms of x, one element or a stack, after raising for
    the first element whose defect exceeds tol_eq max(1, ||x_g||) or, when
    ``tol_pos`` is given, whose smallest singular value is at most
    tol_pos max(1, ||x_g||)."""
    norms = x.op_norms()
    scale = np.maximum(1.0, norms)
    inconsistent = defect > tol_eq * scale
    singular = np.zeros_like(inconsistent)
    if tol_pos is not None:
        singular = x.min_svs() <= tol_pos * scale
    bad = inconsistent | singular
    if np.any(bad):
        k = np.argmax(bad)
        if inconsistent.flat[k]:
            raise PreconditionError(f"cocycle defect {defect.flat[k]:.3e}: "
                                    "state/automorphism pair is inconsistent")
        raise PreconditionError("cocycle element is numerically singular")
    return norms


@dataclass
class CocycleTable:
    """All cocycle elements x_g of a group and their inverses, each as one
    element stacked over the group: ``entries[k]`` is x_g for the group
    element with index k."""

    phi: State
    group: FiniteGroup
    entries: AlgebraElement
    inverses: AlgebraElement
    lambda_bound: float


def build_table(phi: State, group: FiniteGroup, tol_pos: float = TOL_POS,
                tol_eq: float = TOL_EQ) -> CocycleTable:
    """Compute every x_g and the uniform bound lambda, as stacks over the
    group: the checks of ``rn_cocycle`` and the singularity test, each
    raising for the first failing element."""
    require_faithful(phi, tol_pos)
    entries = phi.density.inv() @ predual(group, phi.density)
    norms = _require_cocycles(entries, _cocycle_defect(phi, group, entries), tol_eq, tol_pos)
    inverses = entries.inv()
    lam = max(float(np.max(norms)), inverses.op_norm())
    return CocycleTable(phi, group, entries, inverses, float(lam))


def verify_cocycle_identity(table: CocycleTable, tol_eq: float = TOL_EQ) -> Check:
    """Chain rule over all pairs: x_{g2 g1} = x_{g1} g1^-1(x_{g2}).

    For each g1, one ``apply`` of g1^-1 to the whole table gives the law
    for every g2 at once; the norms of all steps share one
    ``worst_op_norm`` pool.
    """
    grp, x = table.group, table.entries
    worst = worst_op_norm(x[grp.mult[:, i1]] - x[i1] @ apply(grp.elements[grp.inv[i1]], x)
                          for i1 in range(grp.order))
    return residual_check("cocycle_identity", "x_{hg} = x_g g^-1(x_h)",
                          worst, tol_eq, max(1.0, x.op_norm()))


def verify_inverse_formula(table: CocycleTable, tol_eq: float = TOL_EQ) -> Check:
    """Matrix inverse of x_g against g^-1(x_{g^-1}), for every g at once."""
    grp, x = table.group, table.entries
    worst = (table.inverses - predual(grp, x[grp.inv])).op_norm()
    return residual_check("inverse_formula", "x_g^-1 = g^-1(x_{g^-1})",
                          worst, tol_eq, max(1.0, table.inverses.op_norm()))


def verify_adjoint_relation(table: CocycleTable, tol_eq: float = TOL_EQ) -> Check:
    """rho x_g = x_g* rho, the density form of phi(x_g a) = phi(a x_g*)."""
    rho, x = table.phi.density, table.entries
    return residual_check("adjoint_relation", "rho x_g = x_g* rho",
                          (rho @ x - x.adjoint() @ rho).op_norm(), tol_eq,
                          max(1.0, x.op_norm()))


def is_strongly_qi(table: CocycleTable, tol_eq: float, tol_pos: float):
    """Self-adjointness of every x_g, plus the consequences when it holds.

    Returns (strong?, CheckSet).  When strong, the checks assert positive
    definiteness, pairwise commutation, centralizer membership
    [rho, x_g] = 0, and spectra inside [1/lambda, lambda].
    """
    checks = CheckSet()
    x = table.entries
    herm, scale = x.herm_residual(), x.op_norm()
    strong = herm <= tol_eq * max(1.0, scale)
    checks.add(residual_check("self_adjoint", "x_g = x_g*", herm, tol_eq, scale,
                              asserted=False,
                              detail="decides strong quasi-invariance"))
    if not strong:
        return False, checks

    lam = table.lambda_bound
    spectra = [matcore.herm_eig(b)[0] for b in x.blocks]
    min_spec = min(float(np.min(w[..., 0])) for w in spectra)
    max_spec = max(float(np.max(w[..., -1])) for w in spectra)
    checks.add(residual_check("positive", "x_g > 0",
                              max(0.0, tol_pos - min_spec), tol_pos))
    checks.add(residual_check(
        "spectrum_window", "1/lambda <= x_g <= lambda",
        max(0.0, 1.0 / lam - min_spec, max_spec - lam), tol_eq, lam))
    # x_g against every later x_h at once
    comm = worst_op_norm(x[k] @ x[k + 1:] - x[k + 1:] @ x[k] for k in range(table.group.order))
    checks.add(residual_check("pairwise_commuting", "[x_g, x_h] = 0",
                              comm, tol_eq, scale * scale))
    rho = table.phi.density
    checks.add(residual_check("centralizer", "[rho, x_g] = 0",
                              (rho @ x - x @ rho).op_norm(), tol_eq, scale))
    return checks.passed, checks


def sz_domination(phi: State, a: AlgebraElement, probes,
                  tol_eq: float = TOL_EQ, tol_pos: float = TOL_POS) -> Check:
    """Domination of a positive form: phi(a x) <= ||a|| phi(x) for x >= 0.

    Requires the form x |-> phi(a x) to be positive, i.e. rho a Hermitian
    PSD; ``probes`` is an iterable of PSD elements.  For a stack ``a`` the
    requirement is tested for every element, raising for the first that
    fails, and the check reported is that of the element with the largest
    residual (the first of equals).
    """
    a = a if a.batch else a[None]
    rho = phi.density
    m = rho @ a
    herm = np.max([matcore.op_norms(b - dagger(b)) for b in m.blocks], axis=0)
    scale = np.maximum(1.0, m.op_norms())
    not_herm = herm > tol_eq * scale
    mn = m.min_eigs()
    bad = not_herm | (mn < -tol_pos * scale)
    if np.any(bad):
        k = np.argmax(bad)
        if not_herm[k]:
            raise PreconditionError(
                f"L_a phi not positive: rho a Hermiticity {herm[k]:.3e}")
        raise PreconditionError(f"L_a phi not positive: min eigenvalue {mn[k]:.3e}")
    bound = a.op_norms()
    worst = np.zeros(len(bound))
    for x in probes:
        worst = np.maximum(worst, (evaluate(phi, a @ x) - bound * evaluate(phi, x)).real)
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
