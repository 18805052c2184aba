"""Numerical laboratory for quasi-invariant states on finite-dimensional
von Neumann algebras: Radon-Nikodym cocycles of group actions, invariant
states, spatial implementations, conditional expectations onto fixed
points, and invariant traces, all verified at machine precision."""

__version__ = "0.1.0"

from .algebra import AlgebraDescriptor, AlgebraElement, State, evaluate, identity
from .actions import (Automorphism, FiniteGroup, apply, close_group, compose,
                      equal_as_maps, identity_automorphism, inverse, predual)
from .cocycle import (CocycleTable, build_table, is_strongly_qi, rn_cocycle,
                      sandwich_check, sz_domination, verify_adjoint_relation,
                      verify_cocycle_identity, verify_inverse_formula)
from .invariant import (InvariantCertificate, cocycle_from_d, fixed_density_d,
                        gamma_map, gamma_properties_check, invariant_state,
                        strong_case_check)
from .standard_form import (a_g, gamma_factorization, u_g,
                            verify_covariance, verify_representation, verify_unitarity)
from .expectation import (ConditionalExpectation, FixedAlgebra, commutant_f0,
                          cond_expectation, e0_projection, fixed_algebra,
                          verify_ks)
from .trace import (TraceFunctional, invariant_trace, is_center_ergodic,
                    trace_density, verify_density_relations)
from .analysis import Analysis
from .matcore import InputError, PreconditionError
