"""Fixed-point algebra, averaging conditional expectation, and the two
projections that characterize it on the Hilbert-Schmidt space.

The fixed-point algebra B is the joint kernel of (g - id) over the group;
the conditional expectation is the uniform group average, which is the
unique invariant mean for a finite group.  E0 projects onto the vectors
fixed by every implementing unitary U_g, and F0 projects onto the span of
B' E0; for a strongly quasi-invariant state with bounded cocycle F0 is
the identity.  B and E0 are each held as an orthonormal basis of their
range in vec coordinates, found by ``_fixed_vectors``.
"""

from dataclasses import dataclass

import numpy as np

from . import matcore
from .algebra import (AlgebraDescriptor, AlgebraElement, batch_slices, identity,
                      matrix_unit_basis, max_entry, require_faithful, stack, unvec, vec,
                      worst_op_norm)
from .actions import FiniteGroup, apply, predual
from .cocycle import random_probe
from .invariant import InvariantCertificate
from .matcore import PreconditionError, dagger, op_norm
from .reporting import Check, residual_check


def _kernel_onb(stacked: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of a stacked constraint map;
    singular values up to ``cutoff`` times max(1, the largest) count as
    zero.  A tall map is first reduced to the triangular factor of its QR
    decomposition, which has the same singular values and right singular
    vectors."""
    if len(stacked) > stacked.shape[1]:
        stacked = np.linalg.qr(stacked, mode="r")
    _, s, vh = np.linalg.svd(stacked)
    rank = int(np.sum(s > cutoff * s.max(initial=1.0)))
    return dagger(vh)[:, rank:]


def _range_onb(m: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of ``m``, with the
    cutoff of ``_kernel_onb``."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > cutoff * s.max(initial=1.0)]


def _fixed_vectors(group: FiniteGroup, images, cutoff: float) -> np.ndarray:
    """Orthonormal columns (vec coordinates) spanning the vectors that the
    map T_g of every element g fixes.  ``images(idx, xi)`` is the stack of
    T_g(xi_j) over the elements g = group.elements[idx] and the elements
    xi_j of the stack xi, with the map axis first.

    Two passes narrow Q, with orthonormal columns, from the whole space:
    first over the generators (the first layer), then over every element
    but the identity on the basis that is left; that basis is small, and
    where T is not a representation the second pass is needed.  Q c is
    fixed by every T of a pass exactly when (T Q - Q) c = 0, so Q becomes
    Q K for K ``_kernel_onb`` of the T Q - Q stacked.
    """
    q = np.eye(group.descriptor.dim)
    for idx in (group.first_layer, slice(1, None)):
        r = q.shape[1]
        if r == 0:
            break
        moved = np.swapaxes(vec(images(idx, unvec(group.descriptor, q.T))), -1, -2)
        q = q @ _kernel_onb((moved - q).reshape(-1, r), cutoff)
    return q


@dataclass
class FixedAlgebra:
    """Fixed points of the action: the columns of ``q`` are a Hilbert-Schmidt
    orthonormal basis of B in vec coordinates, and ``basis`` is that basis
    as one element stacked over its dim B members."""

    descriptor: AlgebraDescriptor
    q: np.ndarray

    def __post_init__(self):
        self.basis = unvec(self.descriptor, self.q.T)

    @property
    def dimension(self) -> int:
        return self.q.shape[1]

    def span_distance(self, a: AlgebraElement) -> float:
        """Hilbert-Schmidt distance to B, |a - Q Q* a|; the largest over a stack."""
        v = vec(a)
        return float(np.max(np.linalg.norm(v - (v @ np.conj(self.q)) @ self.q.T, axis=-1)))


def closure_residual(fa: FixedAlgebra) -> float:
    """Largest distance to B of b* and of b c over the basis elements b, c.

    Takes every b* at once, then loops over b with every c at once, so no
    intermediate holds a dim B^2 family.
    """
    b = fa.basis
    return max([fa.span_distance(b.adjoint())]
               + [fa.span_distance(b[k] @ b) for k in range(fa.dimension)])


def fixed_algebra(group: FiniteGroup, tol_eq: float, tol_pos: float) -> FixedAlgebra:
    """Joint kernel of (A(g) - 1) over the group, with closure verification;
    A(g) is the map a |-> g(a), a representation, so the second pass of
    ``_fixed_vectors`` only confirms the first."""
    fa = FixedAlgebra(group.descriptor, _fixed_vectors(
        group, lambda idx, xi: apply(group.elements[idx], xi), tol_pos))
    worst = closure_residual(fa)
    norm = max(1.0, fa.basis.op_norm())
    if worst > tol_eq * max(1.0, norm ** 2):
        raise PreconditionError(f"fixed space is not closed under product/adjoint: {worst:.3e}")
    return fa


@dataclass
class ConditionalExpectation:
    """Uniform group average onto the fixed-point algebra."""

    group: FiniteGroup
    fixed: FixedAlgebra

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        """(1/|G|) sum_g g(a), for one element or each element of a stack."""
        return apply(self.group.elements, a).mean()

    def predual(self, y: AlgebraElement) -> AlgebraElement:
        """Phi_*(y) = (1/|G|) sum_g g^-1(y), the density of a |-> tr(y Phi(a))."""
        return predual(self.group.elements, y).mean()


def cond_expectation(cert: InvariantCertificate, group: FiniteGroup, fixed: FixedAlgebra,
                     tol_pos: float) -> ConditionalExpectation:
    """The averaging expectation onto ``fixed``, admissible only for a
    faithful psi whose invariance the certificate ``cert`` of
    ``invariant_state`` asserts."""
    require_faithful(cert.psi, tol_pos)
    if not cert.invariance.passed:
        raise PreconditionError(f"state is not invariant: residual {cert.invariance.residual:.3e}")
    return ConditionalExpectation(group, fixed)


# Random probes of the expectation's laws; the bimodule law takes the first two.
N_PROBES = 4


def expectation_checks(an, rng) -> list:
    """Defining properties: range, idempotence, unitality, positivity,
    invariance of psi, bimodule law over the fixed basis.

    The probes are averaged as one stack; the bimodule law takes every c
    and as many b at once as ``batch_slices`` allows, probe by probe.
    psi(Phi(a)) = tr(Phi_*(rho_psi) a), so the residual of the invariance of
    psi over the matrix units is ``max_entry`` of Phi_*(rho_psi) - rho_psi.
    """
    psi, Phi, tol_eq = an.certificate.psi, an.Phi, an.tol_eq
    desc, order = psi.descriptor, Phi.group.order
    probes = stack(random_probe(rng, desc) for _ in range(N_PROBES))
    ident = identity(desc)
    phi_probes = Phi(probes)

    checks = [residual_check("range", "Phi(a) is a fixed point",
                             Phi.fixed.span_distance(phi_probes), tol_eq),
              residual_check("idempotent", "Phi(Phi(a)) = Phi(a)",
                             (Phi(phi_probes) - phi_probes).op_norm(), tol_eq),
              residual_check("unital", "Phi(1) = 1", (Phi(ident) - ident).op_norm(), tol_eq)]
    squares = probes @ probes.adjoint()
    phi_squares = Phi(squares)
    pos_defect = max(max(0.0, -phi_squares[p].min_eig() / max(1.0, squares[p].op_norm()))
                     for p in range(N_PROBES))
    checks.append(residual_check("positive", "Phi(a* a) >= 0", pos_defect, tol_eq))
    checks.append(residual_check("state_invariance", "psi(Phi(a)) = psi(a)",
                                 max_entry(Phi.predual(psi.density) - psi.density), tol_eq))
    worst = 0.0
    c = Phi.fixed.basis
    slices = batch_slices(Phi.fixed.dimension, order * Phi.fixed.dimension)
    for a, phi_a in zip(probes[:2], phi_probes[:2]):
        sweep = worst_op_norm(Phi(c[bs, None] @ a @ c) - c[bs, None] @ phi_a @ c
                              for bs in slices)
        worst = max(worst, sweep / max(1.0, a.op_norm()))
    checks.append(residual_check("bimodule", "Phi(b a c) = b Phi(a) c for fixed b, c",
                                 worst, tol_eq))
    return checks


def e0_projection(group: FiniteGroup, root_inv: AlgebraElement, w: AlgebraElement,
                  tol_pos: float) -> np.ndarray:
    """Orthonormal basis Q (columns, vec coordinates) of the vectors that
    every U_g fixes, so that E0 = Q Q*; given rho^{-1/2} and w_g stacked in
    group order.  U_g xi = g^-1(xi rho^{-1/2}) w_g is applied to the basis
    on its factors, by the two passes of ``_fixed_vectors``."""
    return _fixed_vectors(
        group, lambda idx, xi: predual(group.elements[idx], (xi @ root_inv)[None]) @ w[idx, None],
        tol_pos)


def projection_residual(q: np.ndarray) -> float:
    """||E0^2 - E0|| for E0 = Q Q* (Hermitian by construction).  With
    G = Q* Q, E0^2 - E0 = Q (G - 1) Q*, and ||Q M Q*|| = ||G^{1/2} M G^{1/2}||,
    which for M = G - 1 is ||G^2 - G||, an r x r norm."""
    g = dagger(q) @ q
    return op_norm(g @ g - g)


def projection_checks(an) -> list:
    """E0 is a projection, and F0 = 1, which is asserted only in the strong
    bounded case and passes, recorded, outside it."""
    f0 = residual_check("f0_identity", "F0 = [B' E0] = 1", an.f0.identity_residual,
                        an.tol_eq, asserted=an.strong,
                        detail="asserted only in the strong bounded case")
    f0.passed = f0.passed or not an.strong
    return [residual_check("e0_projection", "E0 = E0* = E0^2", projection_residual(an.e0),
                           an.tol_eq), f0]


def _on_basis(a: AlgebraElement, xi: AlgebraElement) -> np.ndarray:
    """L_a Q for each element of the stack ``a``, with xi the columns of Q
    as elements: an (len(a), N, r) array."""
    return np.swapaxes(vec(a[:, None] @ xi), -1, -2)


def verify_ks(an) -> list:
    """Characterizations of the expectation in the strong bounded case:
    the compression law Phi(b) E0 = E0 L_b E0 and the group-mean formula,
    each over the matrix units b in slices (``batch_slices``), and the
    state decomposition phi(a) = psi(Phi(d^-1 a)).

    State decomposition.  psi(Phi(d^-1 a)) = tr(Phi_*(rho_psi) d^-1 a), so its
    residual over the matrix units is ``max_entry`` of rho - Phi_*(rho_psi) d^-1.

    Compression.  E0 = Q Q* with Q* Q = 1, so
    L_{Phi(b)} E0 - E0 L_b E0 = (L_{Phi(b)} Q - Q (Q* L_b Q)) Q*, and
    ||M Q*|| = ||M Q* Q M*||^{1/2} = ||M||: the residual is the norm of an
    N x r matrix.

    Mean formula.  U_g = R(w_g) A(g^-1) R(rho^{-1/2}), with R right
    multiplication, so U_{g^-1} L_b U_g xi
    = g(b g^-1(xi rho^{-1/2}) w_g rho^{-1/2}) w_{g^-1} = g(b) xi m_g, with
    m_g = rho^{-1/2} g(w_g rho^{-1/2}) w_{g^-1} = g(v_g) v_{g^-1}, as
    w_g = g^-1(rho^{1/2}) v_g.  Phi(b) = mean_g g(b), so
    mean_g U_{g^-1} L_b U_g - L_{Phi(b)} = mean_g L_{g(b)} R(m_g - 1).  It
    acts on each block i on its own, by mean_g kron((m_g - 1)_i^T, g(b)_i)
    in column-major coordinates, so its norm is the largest over the
    blocks of these n_i^2 x n_i^2 norms.
    """
    if not an.strong:
        raise PreconditionError("state is not strongly quasi-invariant")
    phi, group, tol_eq = an.phi, an.group, an.tol_eq
    psi, d = an.certificate.psi, an.certificate.d
    if d.min_sv() <= an.tol_pos * max(1.0, d.op_norm()):
        raise PreconditionError("invariant-state element d is singular")
    Phi, q, desc = an.Phi, an.e0, phi.descriptor

    basis = matrix_unit_basis(desc)
    xi = unvec(desc, q.T)
    compression = matcore.max_op_norm(
        _on_basis(Phi(basis[us]), xi) - q @ (dagger(q) @ _on_basis(basis[us], xi))
        for us in batch_slices(desc.dim, max(1, q.shape[1])))

    worst = max_entry(phi.density - Phi.predual(psi.density) @ d.inv())

    v = an.factors[1][group.inv]
    m = predual(group.elements, v)[group.inv] @ v - identity(desc)     # m_g - 1, in group order
    # per block, unit and index pair (a, b), (c, d): mean_g (m_g - 1)[c, a] g(unit)[b, d]
    mean_worst = matcore.max_op_norm(
        (np.einsum("gca,gubd->uabcd", mb, gb) / group.order).reshape(-1, mb[0].size, mb[0].size)
        for us in batch_slices(desc.dim, max(group.order, max(desc.block_dims) ** 2))
        for mb, gb in zip(m.blocks, apply(group.elements, basis[us]).blocks))
    return [residual_check("compression", "Phi(b) E0 = E0 b E0", compression, tol_eq),
            residual_check("state_decomposition", "phi(a) = psi(Phi(d^-1 a))", worst, tol_eq),
            residual_check("mean_formula",
                           "Phi(b) = mean_g U_{g^-1} b U_g on the Hilbert-Schmidt space",
                           mean_worst, tol_eq)]


def uniqueness_probe(an) -> Check:
    """Solve the compression law for each matrix unit b and compare with the
    averaging expectation; unique solution within the linear class.

    With E0 = Q Q*, L_a E0 = E0 L_b E0 holds exactly when it holds
    right-multiplied by Q: L_a Q = Q (Q* L_b Q), N r equations for the
    coefficients of a = sum_k c_k E_k.  One least-squares solve takes every
    b as a right-hand side.
    """
    Phi, q, desc = an.Phi, an.e0, an.phi.descriptor
    basis = matrix_unit_basis(desc)
    on_q = _on_basis(basis, unvec(desc, q.T))
    design = on_q.reshape(desc.dim, -1).T
    targets = (q @ (dagger(q) @ on_q)).reshape(desc.dim, -1).T
    coeff, *_ = np.linalg.lstsq(design, targets, rcond=None)
    # matrix units are in vec order, so sum_k coeff_k E_k is unvec(coeff)
    worst = (unvec(desc, coeff.T) - Phi(basis)).op_norm()
    return residual_check("expectation_unique",
                          "the compression law determines Phi", worst, an.tol_eq)


@dataclass
class CommutantReport:
    p: AlgebraElement    # F0 = L_p
    commutant_dim: int
    identity_residual: float


def commutant_f0(fa: FixedAlgebra, e0: np.ndarray, tol_pos: float) -> CommutantReport:
    """Projection F0 onto span(B' E0 L2) for B = ``fa`` the fixed-point algebra
    and E0 = Q Q*, Q = ``e0`` with orthonormal columns.

    An operator commuting with every left multiplication from B maps block
    j to block i by xi_j |-> Q xi_j P, with Q in homs(i, j), the
    intertwiners b_i Q = Q b_j over B, and P any n_j x n_i matrix.  So in
    block i the span is every matrix whose columns lie in
    C_i = span of Q K_j over j and Q in homs(i, j), where K_j is the column
    space of the block-j parts of ran E0, and F0 = L_P for P_i the
    projection onto C_i.
    """
    desc = fa.descriptor
    dims = desc.block_dims
    k = len(dims)
    homs = {}
    commutant_dim = 0
    for i in range(k):
        for j in range(k):
            ni, nj = dims[i], dims[j]
            rows = [np.kron(np.eye(nj), bi) - np.kron(bj.T, np.eye(ni))
                    for bi, bj in zip(fa.basis.blocks[i], fa.basis.blocks[j])]
            basis_mat = _kernel_onb(np.vstack(rows), tol_pos)
            homs[(i, j)] = [basis_mat[:, t].reshape((ni, nj), order="F")
                            for t in range(basis_mat.shape[1])]
            commutant_dim += ni * nj * len(homs[(i, j)])

    # K_j is spanned by the columns of block j of Q's columns, which span ran E0
    ks = [_range_onb(np.moveaxis(b, 0, 1).reshape(b.shape[1], -1), tol_pos)
          for b in unvec(desc, e0.T).blocks]
    proj = []
    for i in range(k):
        c = _range_onb(np.hstack([q @ ks[j] for j in range(k) for q in homs[(i, j)]]),
                       tol_pos)
        proj.append(c @ dagger(c))
    p = AlgebraElement._unchecked(desc, proj)
    return CommutantReport(p, commutant_dim, (p - identity(desc)).op_norm())
