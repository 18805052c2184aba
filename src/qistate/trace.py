"""Invariant traces for actions that are ergodic on the center.

A weighted sum of block traces tau(a) = sum_i w_i tr(a_i) is invariant
exactly when the weights are constant along the orbits of the block
permutations.  Ergodicity of the center action is transitivity of that
permutation action, and then the invariant trace is unique up to scale.
The density of a state phi with respect to tau is c_i = rho_i / w_i and
satisfies the predual relations g(c) = c x_{g^-1} and x_g* c = c x_g.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, State, require_faithful
from .actions import FiniteGroup, apply
from .matcore import PreconditionError
from .reporting import Check, residual_check


@dataclass
class TraceFunctional:
    """tau(a) = sum_i weights[i] tr(a_i), all weights positive."""

    descriptor: object
    weights: np.ndarray

    def __call__(self, a: AlgebraElement):
        """tau(a): a complex number, or an array over the batch of a stack."""
        return sum(w * b.trace(axis1=-2, axis2=-1) for w, b in zip(self.weights, a.blocks))


def is_center_ergodic(group: FiniteGroup) -> bool:
    """True iff the block-permutation action is transitive."""
    return len(group.block_orbits()) == 1


def invariant_trace(group: FiniteGroup) -> TraceFunctional:
    """The invariant trace with weight 1 on block 0; requires ergodicity.

    Invariant weights are exactly the functions constant on the block
    orbits, so the solution space has one dimension per orbit.  The trace
    is unique up to scale iff the action is transitive, and then every
    weight is 1.
    """
    if not is_center_ergodic(group):
        raise PreconditionError(
            "trace not unique: the action is not ergodic on the center, so the "
            f"solution space has dimension {len(group.block_orbits())}")
    return TraceFunctional(group.descriptor, np.ones(group.descriptor.num_blocks))


def trace_density(phi: State, tau: TraceFunctional, tol_pos: float) -> AlgebraElement:
    """c with phi(a) = tau(c a): c_i = rho_i / w_i."""
    require_faithful(phi, tol_pos)
    return AlgebraElement._unchecked(phi.descriptor,
                                     [b / w for b, w in zip(phi.density.blocks, tau.weights)])


def verify_density_relations(an) -> list:
    """Predual and intertwining relations of the trace density with the cocycle."""
    c, table, tol_eq = an.c, an.table, an.tol_eq
    group, x = table.group, table.entries
    scale = max(1.0, table.lambda_bound * c.op_norm())
    # predual of g^-1 acting on densities is g itself
    return [residual_check("trace_density_predual", "(g^-1)^*(c) = c x_{g^-1}",
                           (apply(group.elements, c) - c @ x[group.inv]).op_norm(), tol_eq, scale),
            residual_check("trace_density_intertwine", "x_g* c = c x_g",
                           (x.adjoint() @ c - c @ x).op_norm(), tol_eq, scale)]


def trace_invariance_check(an, probes) -> Check:
    """tau(g(a)) = tau(a) for each probe a over the whole group at once."""
    tau = an.tau
    worst = max(float(np.max(np.abs(tau(apply(an.group.elements, a)) - tau(a)))) for a in probes)
    return residual_check("trace_invariance", "tau(g(a)) = tau(a)", worst, an.tol_eq)


def trace_property_check(an, probes) -> Check:
    """tau(ab) = tau(ba) for each probe a and each of the first three probes b."""
    tau = an.tau
    worst = 0.0
    for a in probes:
        for b in probes[:3]:
            worst = max(worst, abs(tau(a @ b) - tau(b @ a)))
    return residual_check("trace_property", "tau(ab) = tau(ba)", worst, an.tol_eq)
