import math
import random

import numpy as np
import pytest

from qistate.commutative import (AXB_IDENTITY, STATE_NODES, AxBElement, axb_apply,
                                 axb_chain_rule, axb_cocycle, axb_compose, axb_inverse,
                                 axb_quasi_invariance, cauchy_state, counterexample_checks,
                                 symmetric_grid, translation_chain_rule,
                                 translation_quasi_invariance, unboundedness_witness)
from qistate.matcore import InputError, PreconditionError

# Roundoff of one rule: a sum of STATE_NODES terms of weights summing to 1,
# each term of size at most sup|f| (1 here), at the unit roundoff.
ROUNDOFF = STATE_NODES * np.finfo(float).eps / 2


def gauss_bump(s):
    return np.exp(-0.5 * np.asarray(s, dtype=float) ** 2)


def test_cauchy_state_normalization():
    value, estimate = cauchy_state(lambda s: np.ones_like(np.asarray(s, dtype=float)))
    assert abs(value - 1.0) <= estimate + ROUNDOFF


def test_cauchy_state_gauss_bump_vs_closed_form():
    # (1/pi) integral e^{-s^2/2}/(1+s^2) ds = e^{1/2} erfc(2^{-1/2}); the
    # rule hits it to 8.5e-15 against an estimate of 1.2e-14
    value, estimate = cauchy_state(gauss_bump)
    assert abs(value - math.exp(0.5) * math.erfc(2 ** -0.5)) <= estimate + ROUNDOFF


def test_cauchy_state_indicator_vs_arctan_oracle():
    # exact oracle: phi(1_[a,b]) = (arctan b - arctan a)/pi.  The rule is for
    # smooth f(tan theta): at the jumps it is off by 2e-3, and the estimate
    # (3.4e-3) still covers that.
    a, b = -1.5, 2.0
    ind = lambda s: np.where((np.asarray(s) >= a) & (np.asarray(s) <= b), 1.0, 0.0)
    value, estimate = cauchy_state(ind)
    oracle = (math.atan(b) - math.atan(a)) / math.pi
    assert abs(value - oracle) <= estimate + 1e-12


def test_cauchy_state_linearity():
    f = gauss_bump
    g = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float) ** 2)
    al, be = 2.5, -0.75
    combo = lambda s: al * f(s) + be * g(s)
    v1, e1 = cauchy_state(combo)
    v2a, e2a = cauchy_state(f)
    v2b, e2b = cauchy_state(g)
    budget = e1 + abs(al) * e2a + abs(be) * e2b
    assert abs(v1 - al * v2a - be * v2b) <= budget + 1e-12


def test_cauchy_state_rejects_divergent():
    # s = 0 is a node of the rule, where 1/s is infinite
    with np.errstate(divide="ignore"):
        with pytest.raises(InputError, match="diverges"):
            cauchy_state(lambda s: 1.0 / np.asarray(s, dtype=float))


def translation_cocycle(t):
    """x_t, the cocycle of the translation tau_t = (1, -t)."""
    return axb_cocycle(AxBElement(1.0, -t))


def test_translation_cocycle_values():
    assert translation_cocycle(0.0)(np.array([3.3]))[0] == pytest.approx(1.0)
    # substitute s = 0, t = 1
    assert translation_cocycle(1.0)(np.array([0.0]))[0] == pytest.approx(0.5)
    # at s = -t the value is 1 + t^2
    assert translation_cocycle(3.0)(np.array([-3.0]))[0] == pytest.approx(10.0)


def test_translation_chain_rule_zero():
    grid = symmetric_grid(50.0, 101)
    assert translation_chain_rule([(0.0, 0.0)], grid).residual == 0.0


def test_translation_chain_rule_grid():
    grid = symmetric_grid(100.0, 1001)
    check = translation_chain_rule([(1.0, 2.0), (-3.5, 0.25)], grid)
    assert check.passed and check.residual < 1e-12


def test_translation_quasi_invariance_bump():
    c = translation_quasi_invariance(1.0, gauss_bump)
    assert c.passed, (c.residual, c.threshold)


def test_unboundedness_witness_values():
    # at t = 0 both sups are 1 = 1 + t^2 exactly
    w0 = unboundedness_witness(0.0)
    assert w0.passed and w0.residual == 0.0 and w0.name == "unbounded_witness_t0"
    # the residual is how far the smaller of the two sups on the grid falls
    # short of 1 + t^2: a defect, 0 where the grid sups exceed 1 + t^2
    for t in (3.0, 10.0):
        grid = symmetric_grid(100.0, 4001, extra=(-t, 0.0, t))
        x = translation_cocycle(t)(grid)
        w = unboundedness_witness(t)
        assert w.passed and w.threshold == 1e-9
        assert w.residual == max(0.0, 1.0 + t * t - min(np.max(x), np.max(1.0 / x)))
    # on the default grid the sups of x_3 exceed 1 + 3^2
    assert unboundedness_witness(3.0).residual == 0.0


def test_witness_grows_without_bound():
    # x_t(-t) = 1 + t^2, and a window that stops short of s = -t still has
    # -t and 0 added to its grid, so the witness is reached at every radius
    peaks = [translation_cocycle(t)(np.array([-t]))[0] for t in (1.0, 3.0, 10.0)]
    assert peaks == [2.0, 10.0, 101.0]
    assert all(unboundedness_witness(t, radius=1.0, n=3).passed for t in (1.0, 3.0, 10.0))


def test_non_finite_cocycle_values_are_refused():
    # 1 + s^2 overflows on this grid, and the cocycle values there are NaN:
    # folded by max they would read as a residual of 0
    grid = symmetric_grid(1e160, 11)
    refusal = r"not finite on the \d+-point grid of \[-1e\+160, 1e\+160\]"
    with np.errstate(over="ignore", invalid="ignore"):
        for check in (lambda: translation_chain_rule([(1.0, 2.0)], grid),
                      lambda: axb_chain_rule([(AxBElement(2.0, 1.0),
                                               AxBElement(3.0, 4.0))], grid),
                      lambda: unboundedness_witness(3.0, 1e160, 11)):
            with pytest.raises(PreconditionError, match=refusal):
                check()


def test_axb_identity_element():
    x = axb_cocycle(AXB_IDENTITY)
    grid = symmetric_grid(10.0, 101)
    assert np.max(np.abs(x(grid) - 1.0)) == 0.0


def test_axb_cocycle_value():
    # substitute t = 0 in a(1+t^2)/(a^2+(t-b)^2)
    assert axb_cocycle(AxBElement(2.0, 0.0))(np.array([0.0]))[0] == pytest.approx(0.5)


def test_axb_compose_hand_value():
    # f(3(2t+1)+4) = f(6t+7)
    assert axb_compose(AxBElement(2.0, 1.0), AxBElement(3.0, 4.0)) == AxBElement(6.0, 7.0)
    t = np.array([0.3, -1.7, 2.0])
    f = np.sin
    chained = axb_apply(AxBElement(2.0, 1.0), axb_apply(AxBElement(3.0, 4.0), f))(t)
    direct = axb_apply(AxBElement(6.0, 7.0), f)(t)
    assert np.max(np.abs(chained - direct)) == 0.0


def test_axb_inverse():
    e = AxBElement(2.0, -3.0)
    assert axb_compose(e, axb_inverse(e)) == AXB_IDENTITY
    assert axb_compose(axb_inverse(e), e) == AXB_IDENTITY


def test_axb_rejects_nonpositive_a():
    with pytest.raises(PreconditionError, match="a > 0"):
        axb_cocycle(AxBElement(-1.0, 0.0))
    with pytest.raises(InputError):
        AxBElement(0.0, 1.0)


def test_axb_chain_rule_identity_pair():
    grid = symmetric_grid(50.0, 101)
    assert axb_chain_rule([(AXB_IDENTITY, AXB_IDENTITY)], grid).residual == 0.0


def test_axb_chain_rule_grid():
    grid = symmetric_grid(100.0, 1001)
    check = axb_chain_rule([(AxBElement(2.0, 1.0), AxBElement(3.0, 4.0)),
                            (AxBElement(0.5, -2.0), AxBElement(1.5, 0.0))], grid)
    assert check.passed and check.residual < 1e-12


def test_axb_quasi_invariance():
    assert axb_quasi_invariance(AxBElement(2.0, 0.0), gauss_bump).passed


def test_translation_embeds_in_axb():
    # tau_t f(s) = f(s - t) is (1, -t), and x_t(s) = (1+s^2)/(1+(s+t)^2), bit for bit
    t, s = 1.7, np.linspace(-5, 5, 11)
    f = np.cos
    assert np.array_equal(axb_apply(AxBElement(1.0, -t), f)(s), f(s - t))
    assert np.array_equal(translation_cocycle(t)(s), (1.0 + s * s) / (1.0 + (s + t) ** 2))


def test_counterexample_checks_in_report_order():
    checks = counterexample_checks(random.Random(0), 100.0, 301)
    assert [c.name for c in checks] == [
        "translation_chain_rule", "translation_quasi_invariance", "unbounded_witness_t1",
        "unbounded_witness_t3", "unbounded_witness_t10", "axb_chain_rule",
        "axb_quasi_invariance"]
    assert all(c.passed and c.asserted for c in checks)
    # both thresholds are the two sides' estimates over the 1e-12 floor
    for c in checks:
        if c.name.endswith("quasi_invariance"):
            assert c.threshold < 1e-9, (c.name, c.threshold)
