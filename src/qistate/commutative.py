"""Commutative checks on the real line: the Cauchy state, translation
cocycles, and the affine group, where the uniform cocycle bound fails.

The state is phi(f) = (1/pi) integral f(s)/(1+s^2) ds; under s = tan(theta)
it is the mean of f(tan theta) over (-pi/2, pi/2), which one Gauss-Legendre
rule in theta computes, with no window and no tail.  The affine maps
f |-> f(at+b) (a > 0) give x_{(a,b)}(t) = a(1+t^2)/(a^2+(t-b)^2); the
translations f |-> f(s - t) are the maps (1, -t), with the cocycle
x_t(s) = (1+s^2)/(1+(s+t)^2).  Both families satisfy their cocycle laws
as exact rational identities; neither is uniformly bounded, witnessed by
sup x_t >= 1 + t^2.

Functions are plain vectorized callables; grids are probe sets only,
since translations by arbitrary reals do not preserve a grid.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .matcore import InputError, PreconditionError
from .reporting import Check, residual_check

# Threshold of the pointwise chain rules.
TOL_POINTWISE = 1e-12
# Threshold of the unboundedness witnesses: sup x_t and sup 1/x_t against 1 + t^2.
TOL_WITNESS = 1e-9

# Nodes of the Gauss-Legendre rule of the state; odd, so that s = 0 is a
# node, and the rule on (STATE_NODES + 1) / 2 nodes gives the estimate.
STATE_NODES = 257
# Both rules, as nodes s = tan(theta) and weights of the mean over (-pi/2, pi/2).
_RULES = [(np.tan(0.5 * math.pi * x), 0.5 * w)
          for x, w in map(leggauss, (STATE_NODES, (STATE_NODES + 1) // 2))]


def cauchy_state(f) -> tuple[float, float]:
    """phi(f) = (1/pi) integral of f(tan theta) over (-pi/2, pi/2) by the
    rule on STATE_NODES nodes, and the error estimate |Q_n - Q_{(n+1)/2}|.
    The rule is for smooth f(tan theta): at a jump the estimate gives only
    the size of the error."""
    sums = []
    for s, w in _RULES:
        values = f(s)
        if not np.all(np.isfinite(values)):
            raise InputError("function diverges at a node of the state's rule")
        sums.append(float(w @ values))
    return sums[0], abs(sums[0] - sums[1])


def symmetric_grid(radius: float, n: int, extra=()) -> np.ndarray:
    g = np.linspace(-radius, radius, int(n))
    if extra:
        g = np.union1d(g, np.asarray(extra, dtype=float))
    return g


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


def _finite_on(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values``, refused unless finite: a NaN would pass any fold by max."""
    if not np.all(np.isfinite(values)):
        raise PreconditionError(
            f"cocycle values are not finite on the {grid.size}-point grid of "
            f"[{grid.min():g}, {grid.max():g}]")
    return values


def _chain_rule(name: str, law: str, pairs, samples) -> Check:
    """x_{e2 e1}(t) = x_{e1}(t) x_{e2}(t/a1 - b1/a1) on the samples, worst
    over the pairs (e1, e2) of ``pairs``; e2 e1 acts as pi_{e2} after
    pi_{e1}."""
    s = np.asarray(samples, dtype=float)
    worst = 0.0
    for e1, e2 in pairs:
        with np.errstate(over="ignore", invalid="ignore"):    # _finite_on refuses the result
            lhs = axb_cocycle(axb_compose(e2, e1))(s)
            rhs = axb_cocycle(e1)(s) * axb_apply(axb_inverse(e1), axb_cocycle(e2))(s)
            defect = np.abs(lhs - rhs)
        worst = max(worst, float(np.max(_finite_on(s, defect))))
    return residual_check(name, law, worst, TOL_POINTWISE)


def _quasi_invariance(name: str, law: str, e: AxBElement, f) -> Check:
    """phi(pi_e f) = phi(x_e f) by the state's rule, within the error
    estimates of both sides."""
    x = axb_cocycle(e)
    lhs, lhs_error = cauchy_state(axb_apply(e, f))
    rhs, rhs_error = cauchy_state(lambda u: x(u) * f(u))
    return residual_check(name, law, abs(lhs - rhs), lhs_error + rhs_error + 1e-12)


def axb_chain_rule(pairs, samples) -> Check:
    """The affine chain rule over the pairs (e1, e2) of ``pairs``."""
    return _chain_rule("axb_chain_rule", "affine cocycle chain rule", pairs, samples)


def axb_quasi_invariance(e: AxBElement, f) -> Check:
    """phi(pi_e f) = phi(x_e f)."""
    return _quasi_invariance("axb_quasi_invariance", "phi(pi_e f) = phi(x_e f)", e, f)


# -- translations --------------------------------------------------------------
# tau_t f(s) = f(s - t) is pi_e for e = (1, -t), with the cocycle
# x_t(s) = x_{(1,-t)}(s) = (1+s^2)/(1+(s+t)^2), bit for bit.

def translation_chain_rule(shifts, samples) -> Check:
    """x_{t1+t2}(s) = x_{t1}(s) x_{t2}(s+t1) on the samples, worst over the
    pairs (t1, t2) of ``shifts``: the affine chain rule at (1, -t1), (1, -t2)."""
    pairs = [(AxBElement(1.0, -t1), AxBElement(1.0, -t2)) for t1, t2 in shifts]
    return _chain_rule("translation_chain_rule", "x_{t1+t2}(s) = x_{t1}(s) x_{t2}(s+t1)",
                       pairs, samples)


def translation_quasi_invariance(t: float, f) -> Check:
    """phi(tau_t f) = phi(x_t f)."""
    return _quasi_invariance("translation_quasi_invariance", "phi(tau_t f) = phi(x_t f)",
                             AxBElement(1.0, -t), f)


def unboundedness_witness(t: float, radius: float = 100.0, n: int = 4001) -> Check:
    """sup x_t and sup 1/x_t both reach 1 + t^2 (at s = -t and s = 0), on a
    grid of n points of [-radius, radius] with -t, 0 and t added; the
    residual is how far the smaller grid sup falls short of 1 + t^2."""
    grid = symmetric_grid(radius, n, extra=(-t, 0.0, t))
    with np.errstate(over="ignore", invalid="ignore"):    # _finite_on refuses the result
        x = axb_cocycle(AxBElement(1.0, -t))(grid)
    x = _finite_on(grid, x)
    reach = min(float(np.max(x)), float(np.max(1.0 / x)))
    return residual_check(f"unbounded_witness_t{t:g}", "sup x_t and sup 1/x_t reach 1 + t^2",
                          max(0.0, 1.0 + t * t - reach), TOL_WITNESS)


def counterexample_checks(rng, radius: float, n: int) -> list:
    """Both chain rules at five random draws of ``rng`` on the symmetric
    n-point grid of [-radius, radius], quasi-invariance of a Gaussian bump,
    and the unboundedness witnesses at t = 1, 3 and 10."""
    grid = symmetric_grid(radius, n)
    shifts = [(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)) for _ in range(5)]
    pairs = [(AxBElement(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0)),
              AxBElement(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0))) for _ in range(5)]

    def bump(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-0.5 * s * s)

    return [translation_chain_rule(shifts, grid),
            translation_quasi_invariance(1.0, bump),
            *(unboundedness_witness(t, radius, n) for t in (1.0, 3.0, 10.0)),
            axb_chain_rule(pairs, grid),
            axb_quasi_invariance(AxBElement(2.0, 0.0), bump)]
