"""Commutative checks on the real line: the Cauchy state, translation
cocycles, and the affine group, where the uniform cocycle bound fails.

The state is phi(f) = (1/pi) integral f(s)/(1+s^2) ds.  Translations give
the closed-form cocycle x_t(s) = (1+s^2)/(1+(s+t)^2), the affine maps
f |-> f(at+b) (a > 0) give x_{(a,b)}(t) = a(1+t^2)/(a^2+(t-b)^2).  Both
satisfy their cocycle laws as exact rational identities; neither family
is uniformly bounded, witnessed by sup x_t >= 1 + t^2.

Functions are plain vectorized callables; grids are probe sets only,
since translations by arbitrary reals do not preserve a grid.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .matcore import InputError, PreconditionError
from .reporting import Check, CheckSet, residual_check

# Threshold of the pointwise chain rules, relative to the largest cocycle value.
TOL_POINTWISE = 1e-12


# Tolerances and subinterval limit of the adaptive quadrature of the state.
QUAD_ABS_TOL = 1e-11
QUAD_REL_TOL = 1e-11
QUAD_LIMIT = 400


@dataclass(frozen=True)
class StateValue:
    """Quadrature value with its full error budget."""

    value: float
    quad_error: float
    tail_bound: float

    @property
    def budget(self) -> float:
        return self.quad_error + self.tail_bound


def cauchy_tail_bound(sup_norm: float, radius: float) -> float:
    """Mass of the Cauchy weight outside [-R, R], times the sup of |f|."""
    return sup_norm * (1.0 - (2.0 / math.pi) * math.atan(radius))


def cauchy_state(f, radius: float = 100.0, sup_norm: float = None,
                 points=None) -> StateValue:
    """(1/pi) integral of f(s)/(1+s^2) over [-radius, radius] plus an analytic tail bar.

    ``sup_norm`` bounds |f| outside the truncation (default: sampled sup
    over the window); ``points`` flags known breakpoints of f.
    """
    def integrand(s):
        return f(np.asarray(s)) / (math.pi * (1.0 + s * s))

    sample = f(np.linspace(-radius, radius, 2001))
    if not np.all(np.isfinite(sample)):
        raise InputError("function diverges on the quadrature window")
    if sup_norm is None:
        sup_norm = float(np.max(np.abs(sample)))
    value, err = integrate.quad(integrand, -radius, radius, epsabs=QUAD_ABS_TOL,
                                epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT, points=points)
    return StateValue(float(value), float(err), cauchy_tail_bound(sup_norm, radius))


def translation_cocycle(t: float):
    """x_t(s) = (1+s^2)/(1+(s+t)^2): the density ratio under s |-> s - t."""
    def x(s):
        s = np.asarray(s, dtype=float)
        return (1.0 + s * s) / (1.0 + (s + t) ** 2)
    return x


def translate(f, t: float):
    """(tau_t f)(s) = f(s - t)."""
    return lambda s: f(np.asarray(s, dtype=float) - t)


def symmetric_grid(radius: float, n: int, extra=()) -> np.ndarray:
    g = np.linspace(-radius, radius, int(n))
    if extra:
        g = np.union1d(g, np.asarray(extra, dtype=float))
    return g


def verify_translation_identities(t1: float, t2: float, samples,
                                  f=None, f_sup: float = None,
                                  radius: float = 100.0) -> CheckSet:
    """Pointwise chain rule x_{t1+t2}(s) = x_{t1}(s) x_{t2}(s+t1) on the
    sample set, and quadrature quasi-invariance phi(tau_t f) = phi(x_t f)
    when a bounded f is supplied."""
    s = np.asarray(samples, dtype=float)
    lhs = translation_cocycle(t1 + t2)(s)
    rhs = translation_cocycle(t1)(s) * translation_cocycle(t2)(s + t1)
    checks = CheckSet()
    checks.add(residual_check("translation_chain_rule",
                              "x_{t1+t2}(s) = x_{t1}(s) x_{t2}(s+t1)",
                              float(np.max(np.abs(lhs - rhs))), TOL_POINTWISE,
                              float(np.max(np.abs(lhs)))))
    if f is not None:
        x1 = translation_cocycle(t1)
        if f_sup is None:
            f_sup = float(np.max(np.abs(f(s))))
        lhs_v = cauchy_state(translate(f, t1), radius, sup_norm=f_sup)
        # Global bound sup_s x_t(s) <= 2(1 + t^2) keeps the tail bar honest.
        rhs_v = cauchy_state(lambda u: x1(u) * f(u), radius,
                             sup_norm=f_sup * 2.0 * (1.0 + t1 * t1))
        budget = lhs_v.budget + rhs_v.budget + 1e-12
        checks.add(Check("translation_quasi_invariance",
                         "phi(tau_t f) = phi(x_t f)",
                         abs(lhs_v.value - rhs_v.value), budget,
                         abs(lhs_v.value - rhs_v.value) <= budget))
    return checks


def unboundedness_witness(t: float, radius: float = 100.0, n: int = 4001,
                          tol: float = 1e-9) -> dict:
    """sup x_t and sup 1/x_t both reach 1 + t^2 (at s = -t and s = 0)."""
    grid = symmetric_grid(radius, n, extra=(-t, 0.0, t))
    x = translation_cocycle(t)(grid)
    witness = 1.0 + t * t
    sup_x = float(np.max(x))
    sup_inv = float(np.max(1.0 / x))
    return {
        "witness": witness,
        "peak_value": float(translation_cocycle(t)(np.array([-t]))[0]),
        "sup_x": sup_x,
        "sup_x_inv": sup_inv,
        "passed": sup_x >= witness - tol and sup_inv >= witness - tol,
    }


# -- the affine (ax+b) family ------------------------------------------------

@dataclass(frozen=True)
class AxBElement:
    """Parameters of the substitution f |-> f(a t + b)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a == 0:
            raise InputError("affine element needs a != 0")


AXB_IDENTITY = AxBElement(1.0, 0.0)


def axb_apply(e: AxBElement, f):
    """(pi_e f)(t) = f(a t + b)."""
    return lambda t: f(e.a * np.asarray(t, dtype=float) + e.b)


def axb_compose(e1: AxBElement, e2: AxBElement) -> AxBElement:
    """pi_{e1 o e2} = pi_{e1} pi_{e2}: (a,b) o (c,d) = (c a, c b + d)."""
    return AxBElement(e2.a * e1.a, e2.a * e1.b + e2.b)


def axb_inverse(e: AxBElement) -> AxBElement:
    return AxBElement(1.0 / e.a, -e.b / e.a)


def axb_cocycle(e: AxBElement):
    """x_{(a,b)}(t) = a(1+t^2)/(a^2+(t-b)^2), valid for a > 0.

    For a < 0 this expression goes negative while a density ratio cannot;
    the orientation-reversing case is excluded rather than silently fixed.
    """
    if e.a <= 0:
        raise PreconditionError(
            "cocycle formula requires a > 0: a density ratio must stay positive"
        )

    def x(t):
        t = np.asarray(t, dtype=float)
        return e.a * (1.0 + t * t) / (e.a ** 2 + (t - e.b) ** 2)
    return x


def verify_axb(e1: AxBElement, e2: AxBElement, samples,
               f=None, f_sup: float = None, radius: float = 100.0) -> CheckSet:
    """Cocycle chain rule under the group law, quadrature quasi-invariance,
    and the empty-fixed-set illustration for a non-constant function."""
    s = np.asarray(samples, dtype=float)
    prod = axb_compose(e2, e1)               # acts as pi_{e2} after pi_{e1}
    lhs = axb_cocycle(prod)(s)
    inv1 = axb_inverse(e1)
    rhs = axb_cocycle(e1)(s) * axb_apply(inv1, axb_cocycle(e2))(s)
    checks = CheckSet()
    checks.add(residual_check("axb_chain_rule",
                              "x_{e2 e1}(t) = x_{e1}(t) x_{e2}(t/a1 - b1/a1)",
                              float(np.max(np.abs(lhs - rhs))), TOL_POINTWISE,
                              float(np.max(np.abs(lhs)))))
    if f is not None:
        x1 = axb_cocycle(e1)
        if f_sup is None:
            f_sup = float(np.max(np.abs(f(np.linspace(
                -radius * abs(e1.a) - abs(e1.b),
                radius * abs(e1.a) + abs(e1.b), 2001)))))
        lhs_v = cauchy_state(axb_apply(e1, f), radius, sup_norm=f_sup)
        # Global bound sup_t x_{(a,b)}(t) <= (1+2b^2)/a + 2a.
        x_sup = (1.0 + 2.0 * e1.b ** 2) / e1.a + 2.0 * e1.a
        rhs_v = cauchy_state(lambda u: x1(u) * f(u), radius, sup_norm=f_sup * x_sup)
        budget = lhs_v.budget + rhs_v.budget + 1e-12
        checks.add(Check("axb_quasi_invariance", "phi(pi_e f) = phi(x_e f)",
                         abs(lhs_v.value - rhs_v.value), budget,
                         abs(lhs_v.value - rhs_v.value) <= budget))
        # Illustration: a strictly varying bounded function is moved by the
        # orbit at every grid point except (at most) the single fixed point
        # of each affine map, and those do not coincide generically.
        probe = np.arctan
        fixed = ((np.abs(axb_apply(e1, probe)(s) - probe(s)) <= 1e-12)
                 & (np.abs(axb_apply(e2, probe)(s) - probe(s)) <= 1e-12))
        fixed_fraction = float(np.mean(fixed))
        checks.add(Check("axb_no_fixed_function",
                         "orbit of a non-constant function fixes no grid point",
                         fixed_fraction, 1e-12, fixed_fraction <= 1e-12,
                         asserted=False,
                         detail="illustration of the trivial fixed algebra"))
    return checks
