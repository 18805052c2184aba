import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qistate import actions
from qistate.actions import (Automorphism, apply, close_group, compose, equal_as_maps,
                             identity_automorphism, inverse, predual, stack_maps)
from qistate.algebra import AlgebraDescriptor, AlgebraElement, identity, stack, vec
from qistate.cli import parse_instance
from qistate.matcore import InputError, TOL_EQ
from generators import (clock_matrix, conjugate_generator, hs_matrix, inner_generator,
                        multiplication_table, permutation_generator, random_group,
                        random_unitary, shift_matrix)

REPO_INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def random_element(rng, desc):
    return AlgebraElement(desc, [rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n))
                                 for n in desc.block_dims])


def random_automorphism(rng, desc):
    # block dims here are all equal, so any cyclic shift is allowed
    k = desc.num_blocks
    shift = int(rng.integers(k))
    perm = tuple((j + shift) % k for j in range(k))
    us = [random_unitary(rng, n) for n in desc.block_dims]
    return Automorphism(desc, perm, us)


def test_apply_identity(rng):
    desc = AlgebraDescriptor((2, 3))
    a = random_element(rng, desc)
    assert (apply(identity_automorphism(desc), a) - a).op_norm() == 0.0


def test_apply_pauli_flip():
    # hand computation: X diag(1,0) X = diag(0,1)
    desc = AlgebraDescriptor((2,))
    g = inner_generator(desc, 0, X)
    a = AlgebraElement(desc, [np.diag([1.0, 0.0])])
    assert np.allclose(apply(g, a).blocks[0], np.diag([0.0, 1.0]))


def test_apply_is_isometric_multiplicative_star(rng):
    desc = AlgebraDescriptor((2, 2, 2))
    g = random_automorphism(rng, desc)
    a, b = random_element(rng, desc), random_element(rng, desc)
    assert abs(apply(g, a).op_norm() - a.op_norm()) < 1e-10
    assert (apply(g, a @ b) - apply(g, a) @ apply(g, b)).op_norm() < 1e-10
    assert (apply(g, a.adjoint()) - apply(g, a).adjoint()).op_norm() < 1e-10
    assert (apply(g, identity(desc)) - identity(desc)).op_norm() < 1e-12


def test_perm_must_preserve_dimensions():
    desc = AlgebraDescriptor((2, 3))
    with pytest.raises(InputError, match="dim"):
        Automorphism(desc, (1, 0), [np.eye(2), np.eye(3)])


def test_compose_matches_sequential_action(rng):
    desc = AlgebraDescriptor((2, 2))
    g, h = random_automorphism(rng, desc), random_automorphism(rng, desc)
    a = random_element(rng, desc)
    assert (apply(compose(g, h), a) - apply(g, apply(h, a))).op_norm() < 1e-10


def test_compose_with_identity(rng):
    desc = AlgebraDescriptor((3, 3))
    g = random_automorphism(rng, desc)
    e = identity_automorphism(desc)
    assert equal_as_maps(compose(g, e), g)
    assert equal_as_maps(compose(e, g), g)


def test_swap_is_involution(rng):
    desc = AlgebraDescriptor((2, 2))
    swap = permutation_generator(desc, (1, 0))
    a = random_element(rng, desc)
    assert (apply(compose(swap, swap), a) - a).op_norm() < 1e-12


def test_associativity(rng):
    desc = AlgebraDescriptor((2, 2))
    f, g, h = (random_automorphism(rng, desc) for _ in range(3))
    a = random_element(rng, desc)
    lhs = apply(compose(compose(f, g), h), a)
    rhs = apply(compose(f, compose(g, h)), a)
    assert (lhs - rhs).op_norm() < 1e-10


def test_inverse(rng):
    desc = AlgebraDescriptor((2, 2, 2))
    g = random_automorphism(rng, desc)
    a = random_element(rng, desc)
    assert (apply(compose(g, inverse(g)), a) - a).op_norm() < 1e-10
    assert (apply(compose(inverse(g), g), a) - a).op_norm() < 1e-10


def dimension_preserving_automorphism(rng, desc):
    # a random permutation within each class of equal block dimensions
    dims = desc.block_dims
    perm = list(range(len(dims)))
    for n in set(dims):
        same = [j for j, d in enumerate(dims) if d == n]
        for j, p in zip(same, rng.permutation(same)):
            perm[j] = int(p)
    return Automorphism(desc, perm, [random_unitary(rng, n) for n in dims])


block_dims = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
seeds = st.integers(0, 2 ** 32 - 1)


def action_matrix(g):
    """A(g), the matrix of a |-> g(a) on Hilbert-Schmidt coordinates."""
    return hs_matrix(g.descriptor, lambda units: apply(g, units))


def reference_action_matrix(g):
    # block j goes to block perm(j) by conj(u) kron u, since
    # vec(u a u*) = (conj(u) kron u) vec(a) for column-major vec
    dims = g.descriptor.block_dims
    out = np.zeros((g.descriptor.dim,) * 2, dtype=complex)
    offsets = np.cumsum([0] + [d * d for d in dims])
    for j, d in enumerate(dims):
        i = g.perm[j]
        u = g.unitaries[i]
        out[offsets[i]:offsets[i] + d * d, offsets[j]:offsets[j] + d * d] = np.kron(np.conj(u), u)
    return out


@settings(max_examples=30, deadline=None)
@given(block_dims, seeds)
def test_hs_matrix_of_an_automorphism_acts_as_it_and_is_unitary(dims, seed):
    rng = np.random.default_rng(seed)
    desc = AlgebraDescriptor(dims)
    g = dimension_preserving_automorphism(rng, desc)
    a = action_matrix(g)
    xi = random_element(rng, desc)
    assert np.linalg.norm(a - reference_action_matrix(g), 2) < 1e-14
    assert np.allclose(a @ vec(xi), vec(apply(g, xi)), atol=1e-12)
    assert np.linalg.norm(a.conj().T @ a - np.eye(desc.dim), 2) < 1e-12


@settings(max_examples=30, deadline=None)
@given(block_dims, seeds)
def test_hs_matrix_of_automorphisms_is_multiplicative(dims, seed):
    rng = np.random.default_rng(seed)
    desc = AlgebraDescriptor(dims)
    g = dimension_preserving_automorphism(rng, desc)
    h = dimension_preserving_automorphism(rng, desc)
    assert np.linalg.norm(action_matrix(compose(g, h))
                          - action_matrix(g) @ action_matrix(h), 2) < 1e-12


# three equal blocks, so that the group may cycle them (perm != inv_perm)
cyclable_dims = block_dims | st.integers(1, 3).map(lambda n: (n, n, n))


def same_bits(x, y) -> bool:
    """Equal arrays, or elements or automorphisms with equal arrays."""
    if isinstance(x, AlgebraElement):
        return all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))
    return (np.array_equal(x.perm, y.perm) and np.array_equal(x.inv_perm, y.inv_perm)
            and all(np.array_equal(a, b) for a, b in zip(x.unitaries, y.unitaries)))


@settings(max_examples=30, deadline=None)
@given(cyclable_dims, seeds, st.integers(0, 3))
def test_stack_gives_the_bits_of_one_map_at_a_time(dims, seed, batch):
    # batch 0: one element; otherwise a stack of that many
    rng = np.random.default_rng(seed)
    desc = AlgebraDescriptor(dims)
    grp = random_group(rng, desc)
    gs = grp.elements
    elements = [random_element(rng, desc) for _ in range(max(batch, 1))]
    a = stack(elements) if batch else elements[0]
    # apply: the axis of the maps first, then the batch axes of a
    out = apply(gs, a)
    assert out.batch == (len(gs),) + a.batch
    assert all(same_bits(out[k], apply(g, a)) for k, g in enumerate(gs))
    # predual: a passed to every map, or a stack paired with the maps
    out = predual(gs, a[None])
    assert out.batch == (len(gs),) + a.batch
    assert all(same_bits(out[k], predual(g, a)) for k, g in enumerate(gs))
    paired = stack(random_element(rng, desc) for _ in gs)
    assert all(same_bits(predual(gs, paired)[k], predual(g, paired[k]))
               for k, g in enumerate(gs))
    # g^-1 over the group: apply read at the inverse's index is predual
    assert (apply(gs, a)[grp.inv] - predual(gs, a[None])).op_norm() <= 1e-12 * max(
        1.0, a.op_norm())
    # inverse: map by map
    assert all(same_bits(inverse(gs)[k], inverse(g)) for k, g in enumerate(gs))
    # compose: every g_k o h_s, k-major
    hs = gs[rng.permutation(len(gs))[:3]]
    prod = compose(gs, hs)
    assert prod.batch == (len(gs) * len(hs),)
    assert all(same_bits(prod[k * len(hs) + s], compose(g, h))
               for k, g in enumerate(gs) for s, h in enumerate(hs))
    assert all(same_bits(compose(g, hs)[s], compose(g, h))
               for g in gs for s, h in enumerate(hs))
    # equal_as_maps: entry by entry
    shuffled = gs[rng.permutation(len(gs))]
    got = equal_as_maps(gs, shuffled)
    assert got.shape == (len(gs),)
    assert got.tolist() == [bool(equal_as_maps(g, h)) for g, h in zip(gs, shuffled)]


def test_equal_as_maps_phase_freedom(rng):
    desc = AlgebraDescriptor((2,))
    u = random_unitary(rng, 2)
    g = inner_generator(desc, 0, u)
    h = inner_generator(desc, 0, np.exp(0.7j) * u)
    assert equal_as_maps(g, h)


def test_equal_as_maps_distinguishes():
    desc = AlgebraDescriptor((2,))
    # X and Z conjugation differ on the matrix unit e_11
    assert not equal_as_maps(inner_generator(desc, 0, X),
                             inner_generator(desc, 0, Z))


def pair_is_equal_as_maps(g, h, tol):
    """One SVD per block, on u_h* u_g minus its phase."""
    for ug, uh in zip(g.unitaries, h.unitaries):
        w = uh.conj().T @ ug
        n = len(w)
        t = np.trace(w) / n
        if abs(t) < 0.5 or np.linalg.svd(w - t / abs(t) * np.eye(n),
                                         compute_uv=False)[0] > tol * max(1.0, n):
            return False
    return np.array_equal(g.perm, h.perm)


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_equal_as_maps_of_stacks_decides_each_pair(rng, tol):
    # two blocks of each dimension, so that pairs differ in permutation or
    # in blocks; each turned copy has one block turned near the tolerance
    desc = AlgebraDescriptor((2, 2, 3, 3))
    grp = random_group(rng, desc)
    turned = []
    for g in grp.elements:
        us = list(g.unitaries)
        b = rng.integers(len(us))
        us[b] = us[b] @ random_unitary_near_one(rng, len(us[b]), tol)
        turned.append(Automorphism(desc, g.perm, us))
    both = stack_maps(list(grp.elements) + turned)
    a, b = np.divmod(np.arange(2 * grp.order ** 2), 2 * grp.order)
    got = equal_as_maps(grp.elements[a], both[b], tol)
    assert got.tolist() == [pair_is_equal_as_maps(grp.elements[i], both[j], tol)
                            for i, j in zip(a, b)]
    own_copy = equal_as_maps(grp.elements, stack_maps(turned), tol)
    assert 0 < np.count_nonzero(own_copy) < grp.order


def random_unitary_near_one(rng, n, tol):
    """exp(iH) for a random Hermitian H of spectral radius n tol times a
    random factor in [0.3, 3]."""
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(h + h.conj().T)
    angles = n * tol * rng.uniform(0.3, 3.0) * w / np.max(np.abs(w))
    return (v * np.exp(1j * angles)) @ v.conj().T


def test_close_group_trivial():
    desc = AlgebraDescriptor((2,))
    grp = close_group([identity_automorphism(desc)], cap=4)
    assert grp.order == 1


def test_close_group_involution():
    desc = AlgebraDescriptor((2,))
    grp = close_group([inner_generator(desc, 0, X)], cap=8)
    assert grp.order == 2
    assert grp.inv == [0, 1]


def test_close_group_commuting_product():
    # block swap and a simultaneous spin flip generate Z2 x Z2
    desc = AlgebraDescriptor((2, 2))
    swap = permutation_generator(desc, (1, 0))
    flip = Automorphism(desc, (0, 1), [X, X])
    grp = close_group([swap, flip], cap=16)
    assert grp.order == 4
    mult = multiplication_table(grp)
    for i in range(4):
        assert sorted(mult[i]) == list(range(4))
        assert sorted(mult[:, i]) == list(range(4))


def test_close_group_hits_cap_for_infinite_order():
    desc = AlgebraDescriptor((2,))
    # irrational rotation: conjugation has infinite order
    theta = np.sqrt(2.0)
    u = np.diag([1.0, np.exp(1j * theta)])
    with pytest.raises(InputError, match="not finite at cap"):
        close_group([inner_generator(desc, 0, u)], cap=40)


def test_close_group_at_tol_zero_compares_at_the_roundoff_floor():
    # clock^3 = 1 only up to roundoff: at tol 0 the closure must still
    # recognise it, by comparing at the floor derived in MapIndex.cell_width
    data = json.load(open(os.path.join(REPO_INSTANCES, "nonstrong_weyl3.json")))
    group = close_group(parse_instance(data)[2], cap=50, tol=0.0)
    assert group.order == 9
    assert group.index.tol == 32 * 3 * np.finfo(float).eps


@pytest.mark.parametrize("gens", [("shift",), ("shift", "clock")])
def test_close_group_refuses_products_that_drift_from_unitary(gens):
    # each generator is unitary to 8e-10 < TOL_EQ, its square only to 1.6e-9
    desc = AlgebraDescriptor((3,))
    mats = {"shift": shift_matrix(3), "clock": clock_matrix(3)}
    scaled = [inner_generator(desc, 0, (1.0 + 4e-10) * mats[name]) for name in gens]
    with pytest.raises(InputError, match="matrix for block 0 is not unitary"):
        close_group(scaled)


def test_predual_identity(rng):
    desc = AlgebraDescriptor((2, 2))
    rho = random_element(rng, desc)
    assert (predual(identity_automorphism(desc), rho) - rho).op_norm() == 0.0


def test_predual_hand_value():
    desc = AlgebraDescriptor((2,))
    g = inner_generator(desc, 0, X)
    rho = AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])])
    assert np.allclose(predual(g, rho).blocks[0], np.diag([2 / 3, 1 / 3]))


def test_predual_trace_duality(rng):
    desc = AlgebraDescriptor((2, 2))
    g = random_automorphism(rng, desc)
    rho, a = random_element(rng, desc), random_element(rng, desc)
    lhs = (predual(g, rho) @ a).trace()
    rhs = (rho @ apply(g, a)).trace()
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_predual_preserves_positivity_and_trace(rng):
    desc = AlgebraDescriptor((3, 3))
    g = random_automorphism(rng, desc)
    m = random_element(rng, desc)
    rho = m @ m.adjoint()
    out = predual(g, rho)
    assert out.min_eig() > -1e-10
    assert abs(out.trace() - rho.trace()) < 1e-10 * abs(rho.trace())


def test_predual_contravariance(rng):
    desc = AlgebraDescriptor((2, 2))
    g, h = random_automorphism(rng, desc), random_automorphism(rng, desc)
    rho = random_element(rng, desc)
    lhs = predual(compose(g, h), rho)
    rhs = predual(h, predual(g, rho))
    assert (lhs - rhs).op_norm() < 1e-10


def test_block_orbits():
    desc = AlgebraDescriptor((2, 2, 3))
    swap = permutation_generator(desc, (1, 0, 2))
    grp = close_group([swap], cap=4)
    assert grp.block_orbits() == [[0, 1], [2]]


# -- closure against the O(|G|^3) compose-and-scan reference -------------------

def reference_closure(generators, cap=10000, tol=TOL_EQ):
    """The original closure: breadth-first search with a linear scan per
    lookup, then every product composed and scanned.  Returns
    (elements, mult, inv)."""
    desc = generators[0].descriptor
    elements = [identity_automorphism(desc)]

    def find(g):
        for i, e in enumerate(elements):
            if equal_as_maps(e, g, tol):
                return i
        return -1

    frontier = []
    for g in generators:
        if find(g) < 0:
            elements.append(g)
            frontier.append(g)
    while frontier:
        new_frontier = []
        for g in frontier:
            for s in generators:
                gs = compose(g, s)
                if find(gs) < 0:
                    if len(elements) >= cap:
                        raise InputError(f"group not finite at cap {cap}")
                    elements.append(gs)
                    new_frontier.append(gs)
        frontier = new_frontier

    n = len(elements)
    mult = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            mult[i, j] = find(compose(elements[i], elements[j]))
    assert np.all(mult >= 0), "product left the set"
    inv = [int(np.nonzero(mult[i] == 0)[0][0]) for i in range(n)]
    return elements, mult, inv


def assert_matches_reference(generators, tol=TOL_EQ):
    grp = close_group(generators, tol=tol)
    elements, mult, inv = reference_closure(generators, tol=tol)
    assert grp.order == len(elements)
    for e, r in zip(grp.elements, elements):
        assert np.array_equal(e.perm, r.perm)
        for ue, ur in zip(e.unitaries, r.unitaries):
            assert np.array_equal(ue, ur)
    assert np.array_equal(multiplication_table(grp), mult)
    assert np.array_equal(grp.right, mult[:, list(grp.first_layer)])
    assert grp.inv == inv
    return grp


def weyl_generators(n):
    desc = AlgebraDescriptor((n,))
    return [inner_generator(desc, 0, shift_matrix(n)),
            inner_generator(desc, 0, clock_matrix(n))]


def with_block_phases(rng, g):
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=g.descriptor.num_blocks)
    return Automorphism(g.descriptor, g.perm,
                        [np.exp(1j * t) * u for t, u in zip(thetas, g.unitaries)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closure_matches_reference_weyl(n):
    grp = assert_matches_reference(weyl_generators(n))
    assert grp.order == n * n


@pytest.mark.parametrize("name", ["qubit.json", "c2_swap.json", "m2m2_swap.json",
                                  "nonstrong_weyl3.json"])
def test_closure_matches_reference_bundled(name):
    with open(os.path.join(REPO_INSTANCES, name)) as fh:
        _, _, gens, tols, _ = parse_instance(json.load(fh))
    assert_matches_reference(gens, tol=tols["tol_eq"])


@pytest.mark.parametrize("k,d", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_closure_matches_reference_cyclic_blocks(rng, k, d):
    desc = AlgebraDescriptor((d,) * k)
    cycle = permutation_generator(desc, [(j + 1) % k for j in range(k)])
    grp = assert_matches_reference([cycle])
    assert grp.order == k
    # the same cycle and a shift on every block, in a random frame
    frame = [random_unitary(rng, d) for _ in range(k)]
    shift = Automorphism(desc, range(k), [shift_matrix(d)] * k)
    gens = [conjugate_generator(cycle, frame), conjugate_generator(shift, frame)]
    assert assert_matches_reference(gens).order == k * d


def test_closure_matches_reference_random_phases(rng):
    desc = AlgebraDescriptor((2, 2, 3))
    gens = [permutation_generator(desc, (1, 0, 2)),
            inner_generator(desc, 2, clock_matrix(3)),
            inner_generator(desc, 0, shift_matrix(2))]
    for gens_ in (weyl_generators(4), gens):
        plain = close_group(gens_)
        phased = assert_matches_reference([with_block_phases(rng, g) for g in gens_])
        assert phased.order == plain.order
        assert np.array_equal(phased.right, plain.right)
        assert phased.inv == plain.inv


def test_closure_matches_reference_duplicate_and_identity_generators():
    shift, clock = weyl_generators(3)
    e = identity_automorphism(shift.descriptor)
    for gens in ([shift, clock, shift], [e, shift, clock], [shift, e, clock, clock]):
        assert assert_matches_reference(gens).order == 9


def test_closure_composes_once_per_element_and_generator(monkeypatch):
    calls = []

    def counting(g, h):
        # the closure composes a whole layer with every generator per call
        calls.append(len(g) * len(h))
        return compose(g, h)

    monkeypatch.setattr(actions, "compose", counting)
    gens = weyl_generators(5)
    grp = close_group(gens)
    assert sum(calls) == (grp.order - 1) * len(gens)


def find(index, g):
    """Lowest index of an element of ``index`` equal to g as a map, or -1:
    a lookup without insertion, in the neighbouring cells."""
    if g.descriptor != index.descriptor:
        return -1
    return next((i for i in index.near(index.keys(g[None])[0])
                 if equal_as_maps(index.elements[i], g, index.tol)), -1)


def edge_perturbation(rng, index, g, tol):
    """g with each unitary turned by exp(i eps H), H = +-1 on the spectrum of
    the direction that moves block i's fingerprint term the most, and eps
    about as large as equal_as_maps(g, ., tol) allows."""
    directions = []
    for i, (u, j) in enumerate(zip(g.unitaries, g.inv_perm)):
        # first order: the term moves by -eps Im tr(H [R, T*]), T = u* S u
        t = actions.dagger(u) @ index.probes_s[i] @ u
        c = index.probes_r[j] @ actions.dagger(t) - actions.dagger(t) @ index.probes_r[j]
        w, v = np.linalg.eigh((c - actions.dagger(c)) / 2j)
        sign = np.where(w >= 0, 1.0, -1.0) * rng.choice((1.0, -1.0))
        directions.append((u, v, sign))

    def turned(eps):
        return Automorphism(g.descriptor, g.perm,
                            [u @ (v * np.exp(1j * eps * sign)) @ actions.dagger(v)
                             for u, v, sign in directions])

    eps = tol * max(g.descriptor.block_dims)
    while not equal_as_maps(g, turned(eps), tol):
        eps *= 0.9
    return turned(eps)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-4])
def test_maps_perturbed_within_tol_deduplicate(rng, tol):
    gens = weyl_generators(4)
    grp = close_group(gens, tol=tol)
    index = grp.index
    crossed, widest = 0, 0.0
    for i, g in enumerate(grp.elements):
        for _ in range(4):
            h = edge_perturbation(rng, index, g, tol)
            gap = np.subtract(*index.fingerprints(stack_maps([g, h])))
            widest = max(widest, abs(gap.real), abs(gap.imag))
            crossed += index.keys(g[None]) != index.keys(h[None])
            assert find(index, h) == i
    # the derived cell width bounds the gap, and is not loose by much
    assert 0.25 * index.width < widest <= index.width
    # the neighbouring cells, not only the own cell, find the perturbed maps
    assert crossed > 0


def test_element_index_member(rng):
    grp = close_group(weyl_generators(4))
    for i, j in [(0, 0), (3, 7), (15, 2)]:
        g = with_block_phases(rng, compose(grp.elements[i], grp.elements[j]))
        assert find(grp.index, g) == multiplication_table(grp)[i, j]


def test_element_index_non_member_is_absent(rng):
    grp = close_group(weyl_generators(4))
    stranger = inner_generator(grp.descriptor, 0, random_unitary(rng, 4))
    assert find(grp.index, stranger) == -1
    assert find(grp.index, identity_automorphism(AlgebraDescriptor((2, 2)))) == -1
