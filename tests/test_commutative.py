import math

import numpy as np
import pytest

from qistate.commutative import (AXB_IDENTITY, AxBElement,
                                 axb_apply, axb_cocycle, axb_compose,
                                 axb_inverse, cauchy_state, cauchy_tail_bound,
                                 symmetric_grid,
                                 translate, translation_cocycle,
                                 unboundedness_witness,
                                 verify_translation_identities, verify_axb)
from qistate.matcore import InputError, PreconditionError


def gauss_bump(s):
    return np.exp(-0.5 * np.asarray(s, dtype=float) ** 2)


def test_cauchy_state_normalization():
    v = cauchy_state(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                     sup_norm=1.0)
    assert abs(v.value - 1.0) <= v.budget


def test_cauchy_state_indicator_vs_arctan_oracle():
    # exact oracle: phi(1_[a,b]) = (arctan b - arctan a)/pi
    a, b = -1.5, 2.0
    ind = lambda s: np.where((np.asarray(s) >= a) & (np.asarray(s) <= b), 1.0, 0.0)
    v = cauchy_state(ind, sup_norm=1.0, points=[a, b])
    oracle = (math.atan(b) - math.atan(a)) / math.pi
    assert abs(v.value - oracle) <= v.budget + 1e-12


def test_cauchy_state_linearity():
    f = gauss_bump
    g = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float) ** 2)
    al, be = 2.5, -0.75
    combo = lambda s: al * f(s) + be * g(s)
    v1 = cauchy_state(combo, sup_norm=abs(al) + abs(be))
    v2a = cauchy_state(f, sup_norm=1.0)
    v2b = cauchy_state(g, sup_norm=1.0)
    budget = v1.budget + abs(al) * v2a.budget + abs(be) * v2b.budget
    assert abs(v1.value - al * v2a.value - be * v2b.value) <= budget + 1e-12


def test_cauchy_state_rejects_divergent():
    with np.errstate(divide="ignore"):
        with pytest.raises(InputError, match="diverges"):
            cauchy_state(lambda s: 1.0 / np.asarray(s, dtype=float))


def test_tail_bound_matches_arctan():
    assert cauchy_tail_bound(1.0, 100.0) == pytest.approx(
        1.0 - 2.0 * math.atan(100.0) / math.pi)


def test_translation_cocycle_values():
    assert translation_cocycle(0.0)(np.array([3.3]))[0] == pytest.approx(1.0)
    # substitute s = 0, t = 1
    assert translation_cocycle(1.0)(np.array([0.0]))[0] == pytest.approx(0.5)
    # at s = -t the value is 1 + t^2
    assert translation_cocycle(3.0)(np.array([-3.0]))[0] == pytest.approx(10.0)


def test_translation_chain_rule_zero():
    grid = symmetric_grid(50.0, 101)
    checks = verify_translation_identities(0.0, 0.0, grid)
    assert checks["translation_chain_rule"].residual == 0.0


def test_translation_chain_rule_grid():
    grid = symmetric_grid(100.0, 1001)
    checks = verify_translation_identities(1.0, 2.0, grid)
    assert checks["translation_chain_rule"].residual < 1e-12


def test_translation_quasi_invariance_bump():
    grid = symmetric_grid(100.0, 1001)
    checks = verify_translation_identities(1.0, 2.0, grid, f=gauss_bump, f_sup=1.0)
    c = checks["translation_quasi_invariance"]
    assert c.passed, (c.residual, c.threshold)


def test_quasi_invariance_budget_shrinks_with_radius():
    grid = symmetric_grid(20.0, 201)
    budgets = []
    for radius in (25.0, 100.0, 400.0):
        checks = verify_translation_identities(
            1.0, 0.0, grid, f=gauss_bump, f_sup=1.0, radius=radius)
        budgets.append(checks["translation_quasi_invariance"].threshold)
    assert budgets[0] > budgets[1] > budgets[2]


def test_unboundedness_witness_values():
    assert unboundedness_witness(0.0)["witness"] == pytest.approx(1.0)
    w3 = unboundedness_witness(3.0)
    assert w3["witness"] == pytest.approx(10.0)
    assert w3["peak_value"] == pytest.approx(10.0)
    assert w3["passed"]
    w10 = unboundedness_witness(10.0)
    assert w10["witness"] == pytest.approx(101.0)
    assert w10["sup_x"] >= 101.0 - 1e-9 and w10["sup_x_inv"] >= 101.0 - 1e-9


def test_witness_grows_without_bound():
    values = [unboundedness_witness(t)["witness"] for t in (1.0, 3.0, 10.0)]
    assert values == pytest.approx([2.0, 10.0, 101.0])


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
    checks = verify_axb(AXB_IDENTITY, AXB_IDENTITY, grid)
    assert checks["axb_chain_rule"].residual == 0.0


def test_axb_chain_rule_grid():
    grid = symmetric_grid(100.0, 1001)
    checks = verify_axb(AxBElement(2.0, 1.0), AxBElement(3.0, 4.0), grid)
    assert checks["axb_chain_rule"].residual < 1e-12


def test_axb_quasi_invariance_and_fixed_set():
    grid = symmetric_grid(100.0, 1001)
    checks = verify_axb(AxBElement(2.0, 0.0), AxBElement(3.0, 4.0), grid,
                        f=gauss_bump, f_sup=1.0)
    assert checks["axb_quasi_invariance"].passed
    # e1 fixes t=0, e2 fixes t=-2: no common grid fixed point
    assert checks["axb_no_fixed_function"].residual == 0.0


def test_translation_embeds_in_axb():
    # tau_t corresponds to (1, -t)
    t, s = 1.7, np.linspace(-5, 5, 11)
    f = np.cos
    assert np.allclose(axb_apply(AxBElement(1.0, -t), f)(s), translate(f, t)(s))
