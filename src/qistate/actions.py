"""Automorphisms of block algebras and their closure into finite groups.

Every *-automorphism of a direct sum of matrix blocks is a
dimension-preserving permutation of the blocks composed with one unitary
conjugation per block: g(a)_i = u_i a_{perm^-1(i)} u_i*.  Unitaries are
only determined up to a phase per block, so map equality is tested by
action, not by comparing unitaries.
"""

import math
import random

import numpy as np

from . import matcore
from .algebra import AlgebraDescriptor, AlgebraElement
from .matcore import InputError, TOL_EQ, dagger


class Automorphism:
    """Block permutation plus per-block unitary conjugation.

    ``perm[j]`` is the block index that input block j is carried to;
    ``unitaries[i]`` conjugates on the target block i.
    """

    __slots__ = ("descriptor", "perm", "unitaries", "inv_perm")

    def __init__(self, descriptor: AlgebraDescriptor, perm, unitaries):
        perm = tuple(int(p) for p in perm)
        k = descriptor.num_blocks
        if sorted(perm) != list(range(k)):
            raise InputError(f"perm {perm} is not a permutation of 0..{k - 1}")
        dims = descriptor.block_dims
        for j, p in enumerate(perm):
            if dims[p] != dims[j]:
                raise InputError(
                    f"permutation maps block {j} (dim {dims[j]}) to "
                    f"block {p} (dim {dims[p]})"
                )
        unitaries = [matcore.as_square(u) for u in unitaries]
        if tuple(u.shape[0] for u in unitaries) != dims:
            raise InputError("unitary shapes do not match block dims")
        for i, u in enumerate(unitaries):
            if not matcore.is_unitary(u):
                raise InputError(f"matrix for block {i} is not unitary")
        inv_perm = [0] * k
        for j, p in enumerate(perm):
            inv_perm[p] = j
        self.descriptor = descriptor
        self.perm = perm
        self.unitaries = unitaries
        self.inv_perm = tuple(inv_perm)

    @classmethod
    def _unchecked(cls, descriptor, perm, unitaries, inv_perm):
        """An automorphism from parts known to be valid, such as products of
        checked automorphisms: no permutation or unitarity test."""
        g = object.__new__(cls)
        g.descriptor, g.perm, g.unitaries, g.inv_perm = descriptor, perm, unitaries, inv_perm
        return g


def identity_automorphism(descriptor: AlgebraDescriptor) -> Automorphism:
    return Automorphism(descriptor, range(descriptor.num_blocks),
                        [np.eye(n) for n in descriptor.block_dims])


def apply(g: Automorphism, a: AlgebraElement) -> AlgebraElement:
    """g(a)_i = u_i a_{perm^-1(i)} u_i*."""
    if g.descriptor != a.descriptor:
        raise InputError("automorphism and element live on different algebras")
    blocks = [u @ a.blocks[j] @ dagger(u)
              for u, j in zip(g.unitaries, g.inv_perm)]
    return AlgebraElement._unchecked(a.descriptor, blocks)


def apply_all(group: "FiniteGroup", a: AlgebraElement) -> AlgebraElement:
    """g(a) for every element g of ``group``, with the group axis first.

    Block i is the stack of u_i a_{perm^-1(i)} u_i* over the group, in
    element order; the batch axes of ``a`` follow the group axis.
    """
    out = []
    for u, src in zip(group.unitary_stacks, group.source_blocks):
        b = a.blocks[src[0]]
        u = u.reshape(u.shape[:1] + (1,) * (b.ndim - 2) + u.shape[1:])
        res = np.empty(u.shape[:1] + b.shape, dtype=complex)
        for j in set(src.tolist()):
            sel = src == j
            res[sel] = u[sel] @ a.blocks[j] @ dagger(u[sel])
        out.append(res)
    return AlgebraElement._unchecked(a.descriptor, out)


def compose(g, h: Automorphism):
    """The automorphism a |-> g(h(a)).  Its unitaries are products of
    checked ones and are not tested again (``close_group`` tests the
    elements it keeps).  For ``g`` a list of automorphisms, the list of the
    g_k o h, each block's unitaries multiplied as one stack per source block
    (the same bits as one product at a time)."""
    gs = g if isinstance(g, list) else [g]
    if any(a.descriptor != h.descriptor for a in gs):
        raise InputError("cannot compose automorphisms of different algebras")
    products = []
    for i in range(h.descriptor.num_blocks):
        us = np.array([a.unitaries[i] for a in gs])
        src = np.array([a.inv_perm[i] for a in gs])
        for j in set(src.tolist()):
            sel = src == j
            us[sel] = us[sel] @ h.unitaries[j]
        products.append(us)
    out = [Automorphism._unchecked(h.descriptor, tuple(a.perm[p] for p in h.perm),
                                   [us[k] for us in products],
                                   tuple(h.inv_perm[q] for q in a.inv_perm))
           for k, a in enumerate(gs)]
    return out if isinstance(g, list) else out[0]


def inverse(g: Automorphism) -> Automorphism:
    unitaries = [dagger(g.unitaries[g.perm[j]])
                 for j in range(g.descriptor.num_blocks)]
    return Automorphism._unchecked(g.descriptor, g.inv_perm, unitaries, g.perm)


def predual(g, a: AlgebraElement) -> AlgebraElement:
    """Predual action on densities: tr(predual(g, rho) a) = tr(rho g(a)).

    Since block automorphisms preserve the total trace this is just g^-1
    applied to the density, read off g's own unitaries: block j is
    u_p* a_p u_p with p = perm(j).  For ``g`` a ``FiniteGroup`` it is
    g^-1(a) for every element g, with the group axis first; ``a`` is then
    one element, or a stack over the group in element order whose entry k
    goes to the k-th element's inverse.
    """
    if g.descriptor != a.descriptor:
        raise InputError("automorphism and element live on different algebras")
    if isinstance(g, Automorphism):
        return AlgebraElement._unchecked(a.descriptor, [dagger(g.unitaries[p]) @ a.blocks[p]
                                                        @ g.unitaries[p] for p in g.perm])
    out = []
    for j, targets in enumerate(g.target_blocks):
        res = np.empty((g.order,) + a.blocks[j].shape[-2:], dtype=complex)
        for p in set(targets.tolist()):
            sel = targets == p
            u = g.unitary_stacks[p][sel]
            res[sel] = dagger(u) @ (a.blocks[p][sel] if a.batch else a.blocks[p]) @ u
        out.append(res)
    return AlgebraElement._unchecked(a.descriptor, out)


def equal_as_maps(g, h, tol: float = TOL_EQ):
    """True when g and h act identically; unitaries may differ by phases.

    For g and h equal-length lists of automorphisms of one algebra, a bool
    array with one entry per pair (g_k, h_k): each block's products u_h* u_g,
    traces and norm tests are taken as one stack, with the bits and the
    decision of one pair at a time.
    """
    if isinstance(g, Automorphism):
        return bool(equal_as_maps([g], [h], tol)[0])
    # Maps with different block permutations differ on some matrix unit.
    same = np.array([a.descriptor == b.descriptor and a.perm == b.perm
                     for a, b in zip(g, h)], dtype=bool)
    for i in range(g[0].descriptor.num_blocks if g else 0):
        live = np.flatnonzero(same)
        if live.size == 0:
            break
        # uh* ug must be a scalar phase for the conjugations to agree.
        w = (dagger(np.array([h[k].unitaries[i] for k in live]))
             @ np.array([g[k].unitaries[i] for k in live]))
        n = w.shape[-1]
        t = np.trace(w, axis1=-2, axis2=-1) / n
        near = np.abs(t) >= 0.5    # far from any phase: cheap reject
        phase = t[near] / np.abs(t[near])
        agree = np.zeros(live.size, dtype=bool)
        agree[near] = matcore.op_norms_within(w[near] - phase[:, None, None] * np.eye(n),
                                              tol * max(1.0, float(n)))
        same[live] = agree
    return same


def _near(cells: dict, key: tuple) -> list:
    """Sorted entries of ``cells`` in the 3 x 3 cells around ``key``, with
    the same block permutation."""
    perm, re, im = key
    found = [i for a in (-1, 0, 1) for b in (-1, 0, 1)
             for i in cells.get((perm, re + a, im + b), ())]
    found.sort()
    return found


class MapIndex:
    """Automorphisms kept for lookup up to equality as maps, by a hashed fingerprint.

    The fingerprint of g is f(g) = sum_i <S_i, g(R)_i>
    = sum_i tr(S_i* u_i R_{perm^-1(i)} u_i*) for fixed, seeded probe blocks
    R and S of unit Frobenius norm.  It is blind to the per-block phases of
    the unitaries, and it moves by at most ``cell_width(tol)`` between two
    maps that ``equal_as_maps`` accepts at ``tol``, floored at its own roundoff.
    The key of g is its block permutation plus the real and imaginary parts
    of f(g) rounded down to a grid of that width, so two such maps have keys
    at most one cell apart: ``insert`` probes the 3 x 3 neighbouring cells and
    confirms every candidate with ``equal_as_maps``.
    """

    _PROBE_SEED = 20241204

    def __init__(self, descriptor: AlgebraDescriptor, tol: float = TOL_EQ):
        rng = random.Random(self._PROBE_SEED)
        self.descriptor = descriptor
        self.tol = max(tol, 32.0 * max(descriptor.block_dims) * np.finfo(float).eps)
        self.probes_r = [_unit_probe(rng, n) for n in descriptor.block_dims]
        self.probes_s = [_unit_probe(rng, n) for n in descriptor.block_dims]
        self.width = self.cell_width(self.tol)
        self.elements = []
        self.cells = {}

    def cell_width(self, tol: float) -> float:
        """Bound on |f(g) - f(h)| over pairs with equal_as_maps(g, h, tol).

        Blocks are unitary to within t = TOL_EQ (what ``Automorphism``
        checks), and equal_as_maps bounds ||u_h* u_g - phase||
        by tol max(1, n).  So u_g = u_h (phase + E) with
        ||E|| <= e = (tol max(1, n) + t) / (1 - t), and
        ||g(R)_i - h(R)_i||_F <= (1 + t)(2e + e^2) ||R_i||_F, which bounds
        block i's share of the gap since ||S_i||_F = 1.  The term
        8 n^2 eps per block covers the roundoff of both fingerprints.

        The index compares at tol >= 32 n eps, n the largest block: below,
        equal_as_maps cannot confirm equal maps and the closure grows to its
        cap.  The computed u_h* u_g is off by up to n gamma_n, about n^2 eps
        (Higham, Accuracy and Stability, 3.5, with ||u||_F = sqrt(n)), the
        phase test adds a few eps, and its threshold is tol max(1, n); 32
        covers the constants and the roundoff of the search paths' products.
        """
        t, eps = TOL_EQ, np.finfo(float).eps
        width = 0.0
        for n in self.descriptor.block_dims:
            e = (tol * max(1.0, n) + t) / (1.0 - t)
            width += (1.0 + t) * (2.0 * e + e * e) + 8.0 * n * n * eps
        return width

    def fingerprints(self, gs) -> np.ndarray:
        """f(g) for each automorphism of the list ``gs``, from one stacked
        product per block and source block."""
        f = np.zeros(len(gs), dtype=complex)
        for i, s in enumerate(self.probes_s):
            us = np.array([g.unitaries[i] for g in gs])
            src = np.array([g.inv_perm[i] for g in gs])
            for j in set(src.tolist()):
                sel = src == j
                u = us[sel]
                f[sel] += np.einsum("kab,ab->k", u @ self.probes_r[j] @ dagger(u), s.conj())
        return f

    def keys(self, gs) -> list:
        """The key of each automorphism of the list ``gs``."""
        return [(g.perm, math.floor(z.real / self.width), math.floor(z.imag / self.width))
                for g, z in zip(gs, self.fingerprints(gs).tolist())]

    def near(self, key: tuple) -> list:
        """Indices of the elements whose keys are at most one cell from ``key``."""
        return _near(self.cells, key)

    def insert(self, gs, keys: list) -> list:
        """The index of each of ``gs`` in turn: the lowest index of an element
        equal to it as a map among those held and those appended for earlier
        entries of ``gs``, else the index at which it is appended.

        Candidates come from the neighbouring cells, and every candidate
        pair is confirmed by one stacked ``equal_as_maps``.
        """
        pairs, cells = [], {}
        for q, key in enumerate(keys):
            pairs += [(q, i, False) for i in self.near(key)]
            pairs += [(q, p, True) for p in _near(cells, key)]
            cells.setdefault(key, []).append(q)
        equal = equal_as_maps([gs[p] if own else self.elements[p] for _, p, own in pairs],
                              [gs[q] for q, _, _ in pairs], self.tol)
        hits = [[] for _ in gs]
        for (q, p, own), hit in zip(pairs, equal):
            if hit:
                hits[q].append((p, own))
        out, appended = [], set()
        for q, g in enumerate(gs):
            # held elements come first and earlier entries in order, so the
            # first hit that is an element has the lowest index
            j = next((out[p] if own else p for p, own in hits[q]
                      if not own or p in appended), -1)
            if j < 0:
                j = self.add(g, keys[q])
                appended.add(q)
            out.append(j)
        return out

    def add(self, g: Automorphism, key: tuple) -> int:
        """Append g (assumed absent) and return its index."""
        self.elements.append(g)
        self.cells.setdefault(key, []).append(len(self.elements) - 1)
        return len(self.elements) - 1


def _unit_probe(rng: random.Random, n: int) -> np.ndarray:
    m = matcore.gaussian_block(rng, n)
    return m / np.linalg.norm(m)


class FiniteGroup:
    """Closed list of automorphisms with composition and inverse tables.

    ``index`` is the closure's fingerprint index over ``elements``, and
    ``first_layer`` the indices of its first search layer: the distinct
    non-identity generators.  For each block i, ``unitary_stacks[i]`` stacks
    every element's block-i unitary as a (|G|, n_i, n_i) array,
    ``source_blocks[i]`` holds the (|G|,) block indices inv_perm[i] that each
    element carries to block i, and ``target_blocks[i]`` the block indices
    perm[i] it carries block i to.
    """

    __slots__ = ("descriptor", "elements", "mult", "inv", "index", "first_layer",
                 "unitary_stacks", "source_blocks", "target_blocks")

    def __init__(self, descriptor, elements, mult, inv, index: MapIndex, first_layer: range):
        self.descriptor = descriptor
        self.elements = elements
        self.mult = mult            # mult[i][j] = index of elements[i] o elements[j]
        self.inv = inv
        self.index = index
        self.first_layer = first_layer
        blocks = range(descriptor.num_blocks)
        self.unitary_stacks = [np.array([g.unitaries[i] for g in elements]) for i in blocks]
        self.source_blocks = [np.array([g.inv_perm[i] for g in elements]) for i in blocks]
        self.target_blocks = [np.array([g.perm[i] for g in elements]) for i in blocks]

    @property
    def order(self) -> int:
        return len(self.elements)

    def block_orbits(self):
        """Orbits of the block-permutation action on block indices."""
        k = self.descriptor.num_blocks
        seen, orbits = set(), []
        for start in range(k):
            if start in seen:
                continue
            orbit, frontier = {start}, [start]
            while frontier:
                j = frontier.pop()
                for g in self.elements:
                    p = g.perm[j]
                    if p not in orbit:
                        orbit.add(p)
                        frontier.append(p)
            seen |= orbit
            orbits.append(sorted(orbit))
        return orbits


def close_group(generators, cap: int = 10000, tol: float = TOL_EQ) -> FiniteGroup:
    """Breadth-first closure of a generator set under composition.

    Elements are listed in breadth-first order from the identity: the
    distinct generators, then each frontier element composed with each
    generator in turn.  The search takes a whole layer at a time: it
    composes the layer with each generator as stacks (``compose``), and
    ``MapIndex.insert`` looks every product up at once (phase-invariant
    fingerprint on a grid derived from ``tol``, confirmed by one stacked
    ``equal_as_maps``), in the order of one product at a time.  So it makes
    (|G| - 1) |S| products for |S| generators.  It records the right Cayley
    graph right[k, s] = index of elements[k] o generators[s], and each
    element's parent and generator in the search tree.  The multiplication
    table then follows from integer lookups alone, one layer at a time in
    search order: elements[c] = elements[parent(c)] o generators[s(c)]
    gives mult[:, c] = right[mult[:, parent(c)], s(c)], and parents lie in
    earlier layers.  Raises once the closure exceeds ``cap`` elements
    (generators of infinite order).

    ``compose`` does not test its products for unitarity; instead the
    elements each layer of the search adds are tested at once, by
    ``Automorphism``'s default test, before the next layer grows from them.
    """
    if not generators:
        raise InputError("need at least one generator")
    desc = generators[0].descriptor
    for g in generators:
        if g.descriptor != desc:
            raise InputError("generators live on different algebras")

    index = MapIndex(desc, tol)
    ident = identity_automorphism(desc)
    index.add(ident, index.keys([ident])[0])
    elements = index.elements
    right, parent, via = [[0] * len(generators)], [0], [0]
    layers = [1]    # index of the first element of each layer, and the end
    products, sources = list(generators), [(0, s) for s in range(len(generators))]
    while products:
        found = index.insert(products, index.keys(products))
        # the generators themselves are not held to the cap
        if len(layers) > 1 and len(elements) > max(cap, layers[-1]):
            raise InputError(f"group not finite at cap {cap}")
        for (k, s), j in zip(sources, found):
            if j == len(parent):    # the product that added element j
                right.append([0] * len(generators))
                parent.append(k)
                via.append(s)
            right[k][s] = j
        layer = elements[layers[-1]:]
        layers.append(len(elements))
        if not layer:
            break
        if len(layers) > 2:
            _require_unitary(layer)
        products = [p for ps in zip(*(compose(layer, gen) for gen in generators)) for p in ps]
        sources = [(k, s) for k in range(layers[-2], layers[-1])
                   for s in range(len(generators))]

    n = len(elements)
    right, parent, via = np.array(right, dtype=int), np.array(parent), np.array(via)
    mult = np.empty((n, n), dtype=int)
    mult[:, 0] = np.arange(n)
    for lo, hi in zip(layers, layers[1:]):
        c = np.arange(lo, hi)
        mult[:, c] = right[mult[:, parent[c]], via[c]]
    is_identity = mult == 0
    counts = np.count_nonzero(is_identity, axis=1)
    if np.any(counts != 1):    # at a coarse tol equality as maps is not transitive
        k = int(np.argmax(counts != 1))
        raise InputError(f"closure is inconsistent at tol_eq {tol:.3g}: element {k} has "
                         f"{counts[k]} inverses, not one; try a smaller --tol-eq")
    inv = [int(i) for i in np.argmax(is_identity, axis=1)]
    return FiniteGroup(desc, elements, mult, inv, index, range(1, layers[1]))


def _require_unitary(elements) -> None:
    """Raise for the first of ``elements`` with a block that fails
    ``matcore.is_unitary`` at TOL_EQ, naming the block."""
    bad = np.array([~matcore.is_unitary(np.array([g.unitaries[i] for g in elements]))
                    for i in range(elements[0].descriptor.num_blocks)])
    if np.any(bad):
        i = int(np.argmax(bad[:, np.argmax(np.any(bad, axis=0))]))
        raise InputError(f"matrix for block {i} is not unitary")

