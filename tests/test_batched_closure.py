"""The layer-batched closure against the per-visit closure it replaced.

``per_visit_closure`` is ``close_group`` done one step at a time: each
product composed, keyed, looked up and added alone, with the same index,
cap and unitarity test, then each element's inverse looked up alone.  The
batched closure must list the same elements in the same order and give
the same Cayley graph and inverse table, and refuse with the same
messages.
"""

import json
import os

import numpy as np
import pytest

from qistate import actions
from qistate.actions import (Automorphism, MapIndex, close_group, compose, equal_as_maps,
                             identity_automorphism, inverse)
from qistate.algebra import AlgebraDescriptor
from qistate.cli import parse_instance
from qistate.matcore import InputError, TOL_EQ
from generators import (clock_matrix, conjugate_generator, inner_generator,
                        permutation_generator, random_unitary, shift_matrix)

REPO_INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")
BUNDLED = ["qubit.json", "c2_swap.json", "m2m2_swap.json", "nonstrong_weyl3.json"]


def per_visit_closure(generators, cap=10000, tol=TOL_EQ):
    """Breadth-first closure one product at a time, over every listed
    generator; returns (elements, right, inv), with ``right`` on the
    columns of the first generator of each distinct non-identity one."""
    desc = generators[0].descriptor
    index = MapIndex(desc, tol)
    ident = identity_automorphism(desc)[None]
    index.add(ident, index.keys(ident))
    right, frontier = [[0] * len(generators)], []

    def find(g):
        key = index.keys(g[None])[0]
        return key, [i for i in index.near(key) if equal_as_maps(index.elements[i], g, index.tol)]

    def visit(k, s, g, check_cap):
        key, hits = find(g)
        j = hits[0] if hits else -1
        if j < 0:
            if check_cap and index.size >= cap:
                raise InputError(f"group not finite at cap {cap}")
            j = index.size
            index.add(g[None], [key])
            right.append([0] * len(generators))
            frontier.append(j)
        right[k][s] = j

    for s, g in enumerate(generators):
        visit(0, s, g, check_cap=False)
    while frontier:
        layer, frontier = frontier, []
        for k in layer:
            for s, gen in enumerate(generators):
                visit(k, s, compose(index.elements[k], gen), check_cap=True)
        if frontier:
            actions._require_unitary(index.elements[frontier[0]:])

    inv = []
    for k in range(index.size):
        hits = find(inverse(index.elements[k]))[1]
        if len(hits) != 1:
            raise InputError(f"closure is inconsistent at tol_eq {tol:.3g}: element {k} has "
                             f"{len(hits)} inverses, not one; try a smaller --tol-eq")
        inv.append(hits[0])
    columns = [right[0].index(j) for j in sorted(set(right[0]) - {0})]
    return index.elements, np.array(right, dtype=int)[:, columns], inv


def assert_same_closure(generators, **kwargs):
    grp = close_group(generators, **kwargs)
    elements, right, inv = per_visit_closure(generators, **kwargs)
    assert grp.order == len(elements)
    assert np.array_equal(grp.elements.perm, elements.perm)
    assert np.all(equal_as_maps(grp.elements, elements))
    assert np.array_equal(grp.right, right)
    assert grp.inv == inv
    return grp


def weyl_generators(n):
    desc = AlgebraDescriptor((n,))
    return [inner_generator(desc, 0, shift_matrix(n)),
            inner_generator(desc, 0, clock_matrix(n))]


def bundled_generators(name):
    with open(os.path.join(REPO_INSTANCES, name)) as fh:
        _, _, gens, tols, _ = parse_instance(json.load(fh))
    return gens, tols["tol_eq"]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_instances(name):
    gens, tol = bundled_generators(name)
    assert_same_closure(gens, tol=tol)


@pytest.mark.parametrize("n", [5, 8])
def test_weyl(n):
    assert assert_same_closure(weyl_generators(n)).order == n * n


@pytest.mark.parametrize("k,d", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_cyclic_blocks(rng, k, d):
    desc = AlgebraDescriptor((d,) * k)
    cycle = permutation_generator(desc, [(j + 1) % k for j in range(k)])
    assert assert_same_closure([cycle]).order == k
    # the same cycle and a shift on every block, in a random frame
    frame = [random_unitary(rng, d) for _ in range(k)]
    shift = Automorphism(desc, range(k), [shift_matrix(d)] * k)
    gens = [conjugate_generator(cycle, frame), conjugate_generator(shift, frame)]
    assert assert_same_closure(gens).order == k * d


@pytest.mark.parametrize("angles, tol", [((2.95, 5.4), 0.207), ((4.75, 1.86), 0.273),
                                         ((1.78, 6.04), 0.059)])
def test_product_equal_to_two_elements_takes_the_lower_index(angles, tol):
    # At a coarse tolerance a product can be equal as maps to two elements
    # that are not equal to each other.  The same can befall an inverse,
    # which the closure then refuses, naming the element: at 0.207 and 0.059.
    desc = AlgebraDescriptor((2,))
    gens = [inner_generator(desc, 0, np.diag([1.0, np.exp(1j * t)])) for t in angles]
    refused = {0.207: 4, 0.059: 5}.get(tol)
    if refused is None:
        assert_same_closure(gens, tol=tol)
        return
    message = refusal(close_group, gens, tol=tol)
    assert message == refusal(per_visit_closure, gens, tol=tol)
    assert message == (f"closure is inconsistent at tol_eq {tol:.3g}: element {refused} has "
                       "2 inverses, not one; try a smaller --tol-eq")


def test_tolerance_zero_closes_at_the_floor():
    gens, _ = bundled_generators("nonstrong_weyl3.json")
    assert assert_same_closure(gens, cap=50, tol=0.0).order == 9


def refusal(closure, generators, **kwargs):
    with pytest.raises(InputError) as exc:
        closure(generators, **kwargs)
    return str(exc.value)


@pytest.mark.parametrize("gens, cap", [
    # an irrational rotation generates an infinite group
    ([inner_generator(AlgebraDescriptor((2,)), 0, np.diag([1.0, np.exp(1j)]))], 50),
    (weyl_generators(5), 10),
    # the generators themselves are not held to the cap
    (weyl_generators(3), 1),
])
def test_cap_refusal(gens, cap):
    message = refusal(close_group, gens, cap=cap)
    assert message == refusal(per_visit_closure, gens, cap=cap)
    assert message == f"group not finite at cap {cap}"


def test_inconsistent_closure_names_the_tolerance_and_the_element():
    # Two diagonal M_2 rotations by random angles: at tol_eq 0.2 equality as
    # maps is not transitive, and element 1 ends up with two inverses.
    desc = AlgebraDescriptor((2,))
    angles = np.random.default_rng(6).uniform(0.0, 2.0 * np.pi, 2)
    gens = [inner_generator(desc, 0, np.diag([1.0, np.exp(1j * t)])) for t in angles]
    message = refusal(close_group, gens, cap=1000, tol=0.2)
    assert message == refusal(per_visit_closure, gens, cap=1000, tol=0.2)
    assert message == ("closure is inconsistent at tol_eq 0.2: element 1 has 2 inverses, "
                       "not one; try a smaller --tol-eq")
    # at the default tolerance the rotations generate an infinite group
    assert refusal(close_group, gens, cap=50) == "group not finite at cap 50"


def test_cap_equal_to_the_order_closes():
    assert assert_same_closure(weyl_generators(5), cap=25).order == 25


def test_non_unitary_block_refusal():
    # each generator passes the unitarity test at TOL_EQ, but the square of
    # the scaled shift on block 1 does not
    desc = AlgebraDescriptor((2, 3))
    scaled = Automorphism(desc, (0, 1), [np.eye(2), (1.0 + 4e-10) * shift_matrix(3)])
    gens = [scaled, inner_generator(desc, 0, shift_matrix(2))]
    message = refusal(close_group, gens)
    assert message == refusal(per_visit_closure, gens)
    assert message == "matrix for block 1 is not unitary"
