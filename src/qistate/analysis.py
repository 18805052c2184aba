"""One analysis per instance: each artifact of the paper's chain, built once.

The cocycle table x_g and its bound lambda give d and the invariant state
psi; with rho^{1/2} they give a_g and the block factors of U_g, then B,
Phi, E0 and F0; the invariant trace tau gives the density c of phi.  Each
artifact is a cached property that calls its builder once, with the
instance's tolerances, on the upstream artifacts it consumes.  The check
suites read them from here.
"""

from functools import cached_property

from .actions import FiniteGroup
from .algebra import State, density_power
from .cocycle import build_table, is_strongly_qi
from .expectation import commutant_f0, cond_expectation, e0_projection, fixed_algebra
from .invariant import invariant_state
from .standard_form import a_g, spatial_factors
from .trace import invariant_trace, trace_density


class Analysis:
    """A faithful state, a finite group acting on its algebra, and the
    tolerances every artifact is built with."""

    def __init__(self, phi: State, group: FiniteGroup, tol_eq: float, tol_pos: float):
        self.phi, self.group, self.tol_eq, self.tol_pos = phi, group, tol_eq, tol_pos

    @cached_property
    def roots(self):
        """(rho^{1/2}, rho^{-1/2})."""
        return (density_power(self.phi, -0.5j, self.tol_pos),
                density_power(self.phi, 0.5j, self.tol_pos))

    @cached_property
    def table(self):
        return build_table(self.phi, self.group, self.tol_pos)

    @cached_property
    def strong_qi(self):
        """(strong?, checks) of ``is_strongly_qi``."""
        return is_strongly_qi(self.table, self.tol_eq, self.tol_pos)

    @property
    def strong(self) -> bool:
        return self.strong_qi[0]

    @cached_property
    def a(self):
        """a_g for each group element, stacked in group order."""
        return a_g(self.table.predual_rho, self.roots[1], self.tol_pos)

    @cached_property
    def factors(self):
        """(w_g, v_g) of U_g stacked in group order, and max_g ||v_g v_g* - 1||;
        refuses a non-unitary U_g."""
        return spatial_factors(self.group, self.roots, self.a, self.tol_eq)

    @cached_property
    def certificate(self):
        """d and the invariant state psi, with their residuals."""
        return invariant_state(self.table, self.tol_eq, self.tol_pos)

    @cached_property
    def fixed(self):
        return fixed_algebra(self.group, self.tol_eq, self.tol_pos)

    @cached_property
    def Phi(self):
        return cond_expectation(self.certificate, self.group, self.fixed, self.tol_pos)

    @cached_property
    def e0(self):
        """Orthonormal basis Q of the vectors every U_g fixes; E0 = Q Q*."""
        return e0_projection(self.group, self.roots[1], self.factors[0], self.tol_pos)

    @cached_property
    def f0(self):
        return commutant_f0(self.fixed, self.e0, self.tol_pos)

    @cached_property
    def tau(self):
        return invariant_trace(self.group)

    @cached_property
    def c(self):
        return trace_density(self.phi, self.tau, self.tol_pos)
