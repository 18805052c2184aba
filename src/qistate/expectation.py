"""Fixed-point algebra, averaging conditional expectation, and the two
projections that characterize it on the Hilbert-Schmidt space.

The fixed-point algebra B is the joint kernel of (g - id) over the group;
the conditional expectation is the uniform group average, which is the
unique invariant mean for a finite group.  E0 projects onto the vectors
fixed by every implementing unitary U_g, and F0 projects onto the span of
B' E0; for a strongly quasi-invariant state with bounded cocycle F0 is
the identity.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraDescriptor, AlgebraElement, batch_slices, evaluate,
                      hs_matrix, identity, left_mult_matrix, matrix_unit_basis,
                      require_faithful, stack, unvec, vec, worst_op_norm)
from .actions import FiniteGroup, apply_all
from .cocycle import random_probe
from .invariant import InvariantCertificate
from .matcore import PreconditionError, dagger, op_norm
from .reporting import Check, CheckSet, residual_check
from .standard_form import L2Operator


def _kernel_onb(stacked: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of a stacked constraint map
    with at least as many rows as columns; singular values up to ``cutoff``
    times max(1, the largest) count as zero."""
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > cutoff * s.max(initial=1.0)))
    return dagger(vh)[:, rank:]


def _range_onb(m: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of ``m``, with the
    cutoff of ``_kernel_onb``."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > cutoff * s.max(initial=1.0)]


def _joint_fixed_vectors(mats, n: int, cutoff: float) -> np.ndarray:
    """Orthonormal basis (columns) of the vectors that every n x n matrix in
    the sequence or stack ``mats`` fixes."""
    if len(mats) == 0:
        return np.eye(n)
    return _kernel_onb(np.vstack([m - np.eye(n) for m in mats]), cutoff)


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
    A(g) is the matrix of a |-> g(a), the first element the identity."""
    desc = group.descriptor
    actions = hs_matrix(desc, lambda units: apply_all(group, units))
    fa = FixedAlgebra(desc, _joint_fixed_vectors(actions[1:], desc.dim, tol_pos))
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
        return apply_all(self.group, a).mean()


def cond_expectation(cert: InvariantCertificate, group: FiniteGroup, fixed: FixedAlgebra,
                     tol_pos: float) -> ConditionalExpectation:
    """The averaging expectation onto ``fixed``, admissible only for a
    faithful psi whose invariance the certificate ``cert`` of
    ``invariant_state`` asserts."""
    require_faithful(cert.psi, tol_pos)
    if not cert.residuals["asserts"]["invariance"]:
        raise PreconditionError(
            f"state is not invariant: residual {cert.residuals['invariance']:.3e}")
    return ConditionalExpectation(group, fixed)


# Random probes of the expectation's laws; the bimodule law takes the first two.
N_PROBES = 4


def expectation_checks(an, rng) -> CheckSet:
    """Defining properties: range, idempotence, unitality, positivity,
    invariance of psi, bimodule law over the fixed basis.

    The probes and the matrix units are each averaged as one stack; the
    bimodule law takes every c and as many b at once as ``batch_slices``
    allows, probe by probe.
    """
    psi, Phi, tol_eq = an.certificate.psi, an.Phi, an.tol_eq
    desc, order = psi.descriptor, Phi.group.order
    checks = CheckSet()
    probes = stack(random_probe(rng, desc) for _ in range(N_PROBES))
    ident = identity(desc)
    phi_probes = Phi(probes)

    checks.add(residual_check("range", "Phi(a) is a fixed point",
                              Phi.fixed.span_distance(phi_probes), tol_eq))
    checks.add(residual_check("idempotent", "Phi(Phi(a)) = Phi(a)",
                              (Phi(phi_probes) - phi_probes).op_norm(), tol_eq))
    checks.add(residual_check("unital", "Phi(1) = 1",
                              (Phi(ident) - ident).op_norm(), tol_eq))
    squares = probes @ probes.adjoint()
    phi_squares = Phi(squares)
    pos_defect = max(max(0.0, -phi_squares[p].min_eig() / max(1.0, squares[p].op_norm()))
                     for p in range(N_PROBES))
    checks.add(residual_check("positive", "Phi(a* a) >= 0", pos_defect, tol_eq))
    units = matrix_unit_basis(desc)
    checks.add(residual_check(
        "state_invariance", "psi(Phi(a)) = psi(a)",
        max(float(np.max(np.abs(evaluate(psi, Phi(units[us])) - evaluate(psi, units[us]))))
            for us in batch_slices(desc.dim, order)), tol_eq))
    worst = 0.0
    c = Phi.fixed.basis
    slices = batch_slices(Phi.fixed.dimension, order * Phi.fixed.dimension)
    for a, phi_a in zip(probes[:2], phi_probes[:2]):
        sweep = worst_op_norm(Phi(c[bs, None] @ a @ c) - c[bs, None] @ phi_a @ c
                              for bs in slices)
        worst = max(worst, sweep / max(1.0, a.op_norm()))
    checks.add(residual_check("bimodule", "Phi(b a c) = b Phi(a) c for fixed b, c",
                              worst, tol_eq))
    return checks


def e0_projection(unitaries, tol_pos: float) -> L2Operator:
    """Orthogonal projection onto the joint fixed vectors of all U_g; the
    first unitary is that of the identity element."""
    desc = unitaries[0].descriptor
    q = _joint_fixed_vectors([u.matrix for u in unitaries[1:]], desc.dim, tol_pos)
    e0 = q @ dagger(q)
    res = op_norm(e0 @ e0 - e0)
    return L2Operator(desc, e0, projection_residual=res)


def verify_ks(an) -> CheckSet:
    """Characterizations of the expectation in the strong bounded case:
    the compression law Phi(b) E0 = E0 L_b E0, the state decomposition
    phi(a) = psi(Phi(d^-1 a)), and the group-mean formula."""
    if not an.strong:
        raise PreconditionError("state is not strongly quasi-invariant")
    phi, group, tol_eq = an.phi, an.group, an.tol_eq
    psi, d = an.certificate.psi, an.certificate.d
    if d.min_sv() <= an.tol_pos * max(1.0, d.op_norm()):
        raise PreconditionError("invariant-state element d is singular")
    Phi, us, e0 = an.Phi, an.unitaries, an.e0

    checks = CheckSet()
    basis = matrix_unit_basis(phi.descriptor)
    e0m = e0.matrix

    # L_b has ones at (rows, cols) for a matrix unit b: M L_b N = M[:, rows] @ N[cols, :]
    compression = mean_worst = 0.0
    for b in basis:
        rows, cols = np.nonzero(left_mult_matrix(b))
        l_phi = left_mult_matrix(Phi(b))
        compression = max(compression, float(np.linalg.norm(
            l_phi @ e0m - e0m[:, rows] @ e0m[cols, :], 2)))
        mean = np.zeros_like(l_phi)
        for i in range(group.order):
            mean += us[group.inv[i]].matrix[:, rows] @ us[i].matrix[cols, :]
        mean /= group.order
        mean_worst = max(mean_worst, float(np.linalg.norm(mean - l_phi, 2)))
    checks.add(residual_check("compression", "Phi(b) E0 = E0 b E0", compression, tol_eq))

    d_inv = d.inv()
    worst = max(float(np.max(np.abs(evaluate(phi, basis[us])
                                    - evaluate(psi, Phi(d_inv @ basis[us])))))
                for us in batch_slices(phi.descriptor.dim, group.order))
    checks.add(residual_check("state_decomposition",
                              "phi(a) = psi(Phi(d^-1 a))", worst, tol_eq))

    checks.add(residual_check("mean_formula",
                              "Phi(b) = mean_g U_{g^-1} b U_g on the Hilbert-Schmidt space",
                              mean_worst, tol_eq))
    return checks


def uniqueness_probe(an) -> Check:
    """Solve the compression law for each basis element and compare with the
    averaging expectation; unique solution within the linear class."""
    Phi, e0 = an.Phi, an.e0
    basis = matrix_unit_basis(an.phi.descriptor)
    design = np.column_stack([(left_mult_matrix(b) @ e0.matrix).ravel()
                              for b in basis])
    worst = 0.0
    for b in basis:
        target = (e0.matrix @ left_mult_matrix(b) @ e0.matrix).ravel()
        coeff, *_ = np.linalg.lstsq(design, target, rcond=None)
        # matrix units are in vec order, so sum_k coeff_k E_k is unvec(coeff)
        worst = max(worst, (unvec(b.descriptor, coeff) - Phi(b)).op_norm())
    return residual_check("expectation_unique",
                          "the compression law determines Phi", worst, an.tol_eq)


@dataclass
class CommutantReport:
    p: AlgebraElement    # F0 = L_p
    commutant_dim: int
    is_identity: bool
    identity_residual: float
    commutation_residual: float


def commutant_f0(fa: FixedAlgebra, e0: L2Operator, tol_eq: float,
                 tol_pos: float) -> CommutantReport:
    """Projection F0 onto span(B' E0 L2) for B = ``fa`` the fixed-point algebra.

    An operator commuting with every left multiplication from B maps block
    j to block i by xi_j |-> Q xi_j P, with Q in homs(i, j), the
    intertwiners b_i Q = Q b_j over B, and P any n_j x n_i matrix.  So in
    block i the span is every matrix whose columns lie in
    C_i = span of Q K_j over j and Q in homs(i, j), where K_j is the column
    space of the block-j parts of ran E0, and F0 = L_P for P_i the
    projection onto C_i.
    """
    desc = e0.descriptor
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

    # K_j is spanned by the columns of block j of E0's columns, which span ran E0
    ks = [_range_onb(np.hstack(b), tol_pos) for b in unvec(desc, e0.matrix.T).blocks]
    proj = []
    for i in range(k):
        c = _range_onb(np.hstack([q @ ks[j] for j in range(k) for q in homs[(i, j)]]),
                       tol_pos)
        proj.append(c @ dagger(c))
    p = AlgebraElement._unchecked(desc, proj)
    id_res = (p - identity(desc)).op_norm()

    # Spot-check that the structured commutant really commutes with L_B.
    comm_res = 0.0
    for (i, j), qs in homs.items():
        for q in qs[:2]:
            for bi, bj in zip(fa.basis.blocks[i], fa.basis.blocks[j]):
                comm_res = max(comm_res, float(np.linalg.norm(bi @ q - q @ bj)))
    return CommutantReport(p, commutant_dim, id_res <= tol_eq * 1.0, id_res, comm_res)
