import json
import os

import numpy as np
import pytest

from qistate.algebra import AlgebraDescriptor, AlgebraElement, evaluate
from qistate.actions import close_group
from qistate.analysis import Analysis
from qistate.cli import parse_instance
from qistate.cocycle import build_table, random_psd_probe
from qistate.matcore import PreconditionError, TOL_EQ, TOL_POS
from qistate.trace import (invariant_trace, is_center_ergodic, trace_density,
                           trace_invariance_check, verify_density_relations)
from generators import (all_passed, inner_generator, permutation_generator, random_instance,
                        random_strong_instance, symmetric_generators)

REPO_INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


def invariance_solution_space(group):
    """Independent oracle: kernel of the weight constraints
    w_{perm(i)} = w_i over all g, by SVD."""
    k = group.descriptor.num_blocks
    rows = []
    for g in group.elements:
        p = np.zeros((k, k))
        for j in range(k):
            p[g.perm[j], j] = 1.0
        rows.append(p - np.eye(k))
    _, s, vh = np.linalg.svd(np.vstack(rows))
    tol = 1e-12 * max(1.0, s[0] if len(s) else 1.0)
    rank = int(np.sum(s > tol))
    return vh.T[:, rank:]


def test_single_block_is_ergodic(qubit):
    assert is_center_ergodic(qubit.group)


def test_transitive_swap_is_ergodic(m2m2_swap):
    assert is_center_ergodic(m2m2_swap.group)


def test_inner_only_action_is_not_ergodic():
    desc = AlgebraDescriptor((2, 2))
    g = inner_generator(desc, 0, np.array([[0.0, 1.0], [1.0, 0.0]]))
    grp = close_group([g], cap=4)
    assert not is_center_ergodic(grp)


def bundled_group(name):
    with open(os.path.join(REPO_INSTANCES, name)) as fh:
        _, _, gens, tols, cap = parse_instance(json.load(fh))
    return close_group(gens, cap=cap, tol=tols["tol_eq"])


# each group with its number of block orbits
ORBIT_COUNTS = {
    **{name: (lambda name=name: bundled_group(name), 1)
       for name in ("qubit.json", "c2_swap.json", "m2m2_swap.json", "nonstrong_weyl3.json")},
    "s5_5xM3": (lambda: close_group(symmetric_generators(AlgebraDescriptor((3,) * 5))), 1),
    "swap_2_of_3": (lambda: close_group([permutation_generator(AlgebraDescriptor((2, 2, 2)),
                                                               [1, 0, 2])]), 2),
}


@pytest.mark.parametrize("name", sorted(ORBIT_COUNTS))
def test_block_orbits_agree_with_burnside(name):
    # Burnside's lemma: the number of orbits is the mean number of fixed blocks
    build, orbits = ORBIT_COUNTS[name]
    group = build()
    fixed = group.elements.perm == np.arange(group.descriptor.num_blocks)
    assert len(group.block_orbits()) == orbits and fixed.sum() == orbits * group.order
    assert is_center_ergodic(group) == (orbits == 1)


def test_invariant_trace_single_block(qubit):
    assert np.allclose(invariant_trace(qubit.group), [1.0])
    a = AlgebraElement(qubit.descriptor, [np.diag([2.0, 5.0])])
    assert a.trace() == pytest.approx(7.0)


def test_invariant_trace_swap_weights(m2m2_swap):
    assert np.allclose(invariant_trace(m2m2_swap.group), [1.0, 1.0])


def test_invariant_trace_rejects_non_ergodic():
    desc = AlgebraDescriptor((2, 2))
    g = inner_generator(desc, 0, np.array([[0.0, 1.0], [1.0, 0.0]]))
    grp = close_group([g], cap=4)
    with pytest.raises(PreconditionError, match="dimension 2"):
        invariant_trace(grp)


def test_invariant_trace_is_invariant_and_tracial(probe_rng, m2m2_swap):
    probes = [random_psd_probe(probe_rng, m2m2_swap.descriptor) for _ in range(5)]
    an = Analysis(m2m2_swap.phi, m2m2_swap.group, TOL_EQ, TOL_POS)
    assert trace_invariance_check(an, probes).passed
    for a in probes:
        for b in probes:
            assert abs((a @ b).trace() - (b @ a).trace()) < 1e-10


def test_trace_density_unit_weights_gives_density(qubit):
    c = trace_density(qubit.phi, TOL_POS)
    assert (c - qubit.phi.density).op_norm() <= 1e-12
    assert np.allclose(c.blocks[0], np.diag([1 / 3, 2 / 3]))


def test_trace_density_reproduces_state(rng, m2m2_swap):
    c = trace_density(m2m2_swap.phi, TOL_POS)
    for _ in range(5):
        a = AlgebraElement(m2m2_swap.descriptor,
                           [rng.standard_normal((2, 2)) for _ in range(2)])
        assert abs(evaluate(m2m2_swap.phi, a) - (c @ a).trace()) < 1e-12
    assert c.min_eig() > 0


def test_density_relations_identity_element(qubit):
    checks = verify_density_relations(Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS))
    assert all_passed(checks)


def test_density_relations_qubit_hand_check(qubit):
    # X c X = diag(2/3, 1/3) = c x_g with c = diag(1/3, 2/3), x_g = diag(2, 1/2)
    table = build_table(qubit.phi, qubit.group)
    c = trace_density(qubit.phi, TOL_POS)
    from qistate.actions import apply
    g = qubit.group.elements[1]
    lhs = apply(g, c)
    assert np.allclose(lhs.blocks[0], np.diag([2 / 3, 1 / 3]))
    rhs = c @ table.entries[1]
    assert np.allclose(rhs.blocks[0], np.diag([2 / 3, 1 / 3]))
    assert all_passed(verify_density_relations(Analysis(qubit.phi, qubit.group, TOL_EQ, TOL_POS)))


def test_density_relations_random_ergodic(rng):
    hits = 0
    while hits < 4:
        inst = random_strong_instance(rng)
        if not is_center_ergodic(inst.group):
            continue
        hits += 1
        checks = verify_density_relations(Analysis(inst.phi, inst.group, TOL_EQ, TOL_POS))
        assert all_passed(checks), [(c.name, c.residual) for c in checks]


def test_uniqueness_dimension_is_one_when_ergodic(rng):
    desc = AlgebraDescriptor((2, 2, 2))
    cycle = permutation_generator(desc, (1, 2, 0))
    grp = close_group([cycle], cap=6)
    assert is_center_ergodic(grp)
    assert invariance_solution_space(grp).shape[1] == 1


def test_invariant_trace_matches_svd_oracle(rng):
    # The oracle's solution space has one dimension per block orbit; when
    # it is one, it is spanned by the unit weights invariant_trace returns.
    seen = set()
    for _ in range(60):
        desc = AlgebraDescriptor(tuple(int(n) for n in rng.choice((1, 2), size=4)))
        grp = random_instance(rng, desc).group
        space = invariance_solution_space(grp)
        assert space.shape[1] == len(grp.block_orbits())
        seen.add(space.shape[1] == 1)
        if space.shape[1] == 1:
            w = np.real(space[:, 0] / space[0, 0])
            weights = invariant_trace(grp)
            assert np.allclose(w, weights, atol=1e-12)
            assert np.all(weights == 1.0)
        else:
            with pytest.raises(PreconditionError, match="trace not unique"):
                invariant_trace(grp)
    assert seen == {True, False}
