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


def compose(g: Automorphism, h: Automorphism) -> Automorphism:
    """The automorphism a |-> g(h(a)).  Its unitaries are products of
    checked ones and are not tested again (``close_group`` tests the
    elements it keeps)."""
    if g.descriptor != h.descriptor:
        raise InputError("cannot compose automorphisms of different algebras")
    perm = tuple(g.perm[p] for p in h.perm)
    unitaries = [g.unitaries[i] @ h.unitaries[g.inv_perm[i]]
                 for i in range(g.descriptor.num_blocks)]
    inv_perm = tuple(h.inv_perm[q] for q in g.inv_perm)
    return Automorphism._unchecked(g.descriptor, perm, unitaries, inv_perm)


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


def equal_as_maps(g: Automorphism, h: Automorphism, tol: float = TOL_EQ) -> bool:
    """True when g and h act identically; unitaries may differ by phases."""
    if g.descriptor != h.descriptor:
        return False
    if g.perm != h.perm:
        # Maps with different block permutations differ on some matrix unit.
        return False
    for ug, uh in zip(g.unitaries, h.unitaries):
        # uh* ug must be a scalar phase for the conjugations to agree.
        w = dagger(uh) @ ug
        n = w.shape[0]
        t = np.trace(w) / n
        if abs(t) < 0.5:  # far from any phase: cheap reject
            return False
        phase = t / abs(t)
        if matcore.op_norm(w - phase * np.eye(n)) > tol * max(1.0, float(n)):
            return False
    return True


class MapIndex:
    """Automorphisms kept for lookup up to equality as maps, by a hashed fingerprint.

    The fingerprint of g is f(g) = sum_i <S_i, g(R)_i>
    = sum_i tr(S_i* u_i R_{perm^-1(i)} u_i*) for fixed, seeded probe blocks
    R and S of unit Frobenius norm.  It is blind to the per-block phases of
    the unitaries, and it moves by at most ``cell_width(tol)`` between two
    maps that ``equal_as_maps`` accepts at ``tol``, floored at its own roundoff.
    The key of g is its block permutation plus the real and imaginary parts
    of f(g) rounded down to a grid of that width, so two such maps have keys
    at most one cell apart: a lookup probes the 3 x 3 neighbouring cells and
    confirms every candidate with ``equal_as_maps``.
    """

    _PROBE_SEED = 20241204

    def __init__(self, descriptor: AlgebraDescriptor, tol: float = TOL_EQ):
        # The standard-library generator keeps numpy.random (a lazy import
        # of several milliseconds) out of every closure.
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

    def fingerprint(self, g: Automorphism) -> complex:
        return complex(sum(np.vdot(s, u @ self.probes_r[j] @ dagger(u))
                           for s, u, j in zip(self.probes_s, g.unitaries, g.inv_perm)))

    def key(self, g: Automorphism) -> tuple:
        f = self.fingerprint(g)
        return (g.perm, math.floor(f.real / self.width),
                math.floor(f.imag / self.width))

    def find(self, g: Automorphism, key: tuple = None) -> int:
        """Lowest index of an element equal to g as a map, or -1."""
        if g.descriptor != self.descriptor:
            return -1
        perm, re, im = key or self.key(g)
        candidates = sorted(i for a in (-1, 0, 1) for b in (-1, 0, 1)
                            for i in self.cells.get((perm, re + a, im + b), ()))
        for i in candidates:
            if equal_as_maps(self.elements[i], g, self.tol):
                return i
        return -1

    def add(self, g: Automorphism, key: tuple = None) -> int:
        """Append g (assumed absent) and return its index."""
        self.elements.append(g)
        self.cells.setdefault(key or self.key(g), []).append(len(self.elements) - 1)
        return len(self.elements) - 1


def _unit_probe(rng: random.Random, n: int) -> np.ndarray:
    m = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                  for _ in range(n * n)]).reshape(n, n)
    return m / np.linalg.norm(m)


class FiniteGroup:
    """Closed list of automorphisms with composition and inverse tables.

    ``index`` is the closure's fingerprint index over ``elements``.  For
    each block i, ``unitary_stacks[i]`` stacks every element's block-i
    unitary as a (|G|, n_i, n_i) array, ``source_blocks[i]`` holds the
    (|G|,) block indices inv_perm[i] that each element carries to block i,
    and ``target_blocks[i]`` the block indices perm[i] it carries block i to.
    """

    __slots__ = ("descriptor", "elements", "mult", "inv", "index",
                 "unitary_stacks", "source_blocks", "target_blocks")

    def __init__(self, descriptor, elements, mult, inv, index: MapIndex):
        self.descriptor = descriptor
        self.elements = elements
        self.mult = mult            # mult[i][j] = index of elements[i] o elements[j]
        self.inv = inv
        self.index = index
        blocks = range(descriptor.num_blocks)
        self.unitary_stacks = [np.stack([g.unitaries[i] for g in elements]) for i in blocks]
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
    generator in turn.  Every candidate is looked up in a ``MapIndex``
    (phase-invariant fingerprint on a grid derived from ``tol``, confirmed
    by ``equal_as_maps``), so the search makes (|G| - 1) |S| ``compose``
    calls for |S| generators.  It records the right Cayley graph
    right[k, s] = index of elements[k] o generators[s], and each element's
    parent and generator in the search tree.  The multiplication table then
    follows from integer lookups alone, column by column in search order:
    elements[c] = elements[parent(c)] o generators[s(c)] gives
    mult[:, c] = right[mult[:, parent(c)], s(c)].  Raises once the closure
    exceeds ``cap`` elements (generators of infinite order).

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
    index.add(identity_automorphism(desc))
    elements = index.elements
    right = [[0] * len(generators)]
    parent, via = [0], [0]
    frontier = []

    def visit(k, s, g, check_cap):
        key = index.key(g)
        j = index.find(g, key=key)
        if j < 0:
            if check_cap and len(elements) >= cap:
                raise InputError(f"group not finite at cap {cap}")
            j = index.add(g, key)
            right.append([0] * len(generators))
            parent.append(k)
            via.append(s)
            frontier.append(j)
        right[k][s] = j

    for s, g in enumerate(generators):
        visit(0, s, g, check_cap=False)
    while frontier:
        layer, frontier = frontier, []
        for k in layer:
            for s, gen in enumerate(generators):
                visit(k, s, compose(elements[k], gen), check_cap=True)
        if frontier:
            _require_unitary(elements[frontier[0]:])

    n = len(elements)
    right = np.array(right, dtype=int)
    mult = np.empty((n, n), dtype=int)
    mult[:, 0] = np.arange(n)
    for c in range(1, n):
        mult[:, c] = right[mult[:, parent[c]], via[c]]
    is_identity = mult == 0
    if np.any(np.count_nonzero(is_identity, axis=1) != 1):
        raise InputError("closure is inconsistent: no unique inverse")
    inv = [int(i) for i in np.argmax(is_identity, axis=1)]
    return FiniteGroup(desc, elements, mult, inv, index)


def _require_unitary(elements) -> None:
    """Raise for the first of ``elements`` with a block that fails
    ``matcore.is_unitary`` at TOL_EQ, naming the block."""
    bad = np.array([~matcore.is_unitary(np.stack([g.unitaries[i] for g in elements]))
                    for i in range(elements[0].descriptor.num_blocks)])
    if np.any(bad):
        i = int(np.argmax(bad[:, np.argmax(np.any(bad, axis=0))]))
        raise InputError(f"matrix for block {i} is not unitary")

