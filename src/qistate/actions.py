"""Automorphisms of block algebras and their closure into finite groups.

Every *-automorphism of a direct sum of matrix blocks is a
dimension-preserving permutation of the blocks composed with one unitary
conjugation per block: g(a)_i = u_i a_{perm^-1(i)} u_i*.  Unitaries are
only determined up to a phase per block, so map equality is tested by
action, not by comparing unitaries.

An ``Automorphism`` may stand for a stack of maps, as an
``AlgebraElement`` may stand for a stack of elements: ``apply``,
``predual``, ``compose`` and ``equal_as_maps`` take one map or a stack
alike, one map being the stack of batch shape ().  So the elements of a
finite group are one stack, and one expression acts by all of them.
"""

import math
import random

import numpy as np

from . import matcore
from .algebra import AlgebraDescriptor, AlgebraElement
from .matcore import InputError, TOL_EQ, dagger


class Automorphism:
    """Block permutation plus per-block unitary conjugation, or a stack of them.

    ``perm[j]`` is the block index that input block j is carried to,
    ``inv_perm`` the inverse permutation, and ``unitaries[i]`` conjugates on
    the target block i.  A stack of m maps carries a leading batch axis:
    ``perm`` and ``inv_perm`` are (m, k) int arrays and ``unitaries[i]`` is
    an (m, n_i, n_i) stack; ``g[k]`` indexes it.  The public constructor
    validates one map; ``_unchecked`` builds either.
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
        if tuple(u.shape for u in unitaries) != tuple((n, n) for n in dims):
            raise InputError("unitary shapes do not match block dims")
        for i, u in enumerate(unitaries):
            if not matcore.is_unitary(u):
                raise InputError(f"matrix for block {i} is not unitary")
        self.descriptor = descriptor
        self.perm = np.array(perm, dtype=int)
        self.unitaries = unitaries
        self.inv_perm = np.argsort(self.perm)

    @classmethod
    def _unchecked(cls, descriptor, perm, unitaries, inv_perm):
        """An automorphism or a stack from parts known to be valid, such as
        products of checked automorphisms: no permutation or unitarity test."""
        g = object.__new__(cls)
        g.descriptor, g.perm, g.unitaries, g.inv_perm = descriptor, perm, unitaries, inv_perm
        return g

    @property
    def batch(self) -> tuple:
        """Leading batch shape: () for one map, (m,) for a stack of m."""
        return self.perm.shape[:-1]

    def __len__(self) -> int:
        return self.batch[0]

    def __getitem__(self, k):
        """Index the batch axis: one map for an integer, else a stack."""
        return self._unchecked(self.descriptor, self.perm[k], [u[k] for u in self.unitaries],
                               self.inv_perm[k])


def identity_automorphism(descriptor: AlgebraDescriptor) -> Automorphism:
    return Automorphism(descriptor, range(descriptor.num_blocks),
                        [np.eye(n) for n in descriptor.block_dims])


def stack_maps(maps) -> Automorphism:
    """Automorphisms of one algebra as one stack, in order."""
    maps = list(maps)
    return Automorphism._unchecked(maps[0].descriptor, np.array([g.perm for g in maps]),
                                   [np.array(us) for us in zip(*(g.unitaries for g in maps))],
                                   np.array([g.inv_perm for g in maps]))


def _by_block(blocks: np.ndarray, shape: tuple, f) -> np.ndarray:
    """An array of ``shape`` whose rows at sel = (blocks == j) are f(sel, j),
    for each block index j in ``blocks``: the maps of a stack that read or
    write the same block are taken as one stack (sel a full slice when
    they all do)."""
    found = set(blocks.tolist())
    if len(found) == 1:
        return f(slice(None), found.pop())
    out = np.empty(shape, dtype=complex)
    for j in found:
        sel = blocks == j
        out[sel] = f(sel, j)
    return out


def apply(g: Automorphism, a: AlgebraElement) -> AlgebraElement:
    """g(a)_i = u_i a_{perm^-1(i)} u_i*, for each map of g and each element
    of a: the batch axis of g comes first, then the batch axes of a."""
    if g.descriptor != a.descriptor:
        raise InputError("automorphism and element live on different algebras")
    out = []
    for u, src in zip(g.unitaries, g.inv_perm.reshape(-1, g.descriptor.num_blocks).T):
        n = u.shape[-1]
        u = u.reshape((-1,) + (1,) * len(a.batch) + (n, n))
        res = _by_block(src, (len(src),) + a.batch + (n, n),
                        lambda sel, j: u[sel] @ a.blocks[j] @ dagger(u[sel]))
        out.append(res.reshape(g.batch + a.batch + (n, n)))
    return AlgebraElement._unchecked(a.descriptor, out)


def compose(g: Automorphism, h: Automorphism) -> Automorphism:
    """The maps a |-> g_k(h_s(a)) for every map g_k of g and h_s of h,
    k-major: one map for two, else a stack of len(g) len(h).  Block i's
    unitary is u^g_i u^h_{perm_g^-1(i)}, a product of checked ones, and is
    not tested again (``close_group`` tests the elements it keeps)."""
    if g.descriptor != h.descriptor:
        raise InputError("cannot compose automorphisms of different algebras")
    k = g.descriptor.num_blocks
    gp, gi = g.perm.reshape(-1, k), g.inv_perm.reshape(-1, k)
    hp, hi = h.perm.reshape(-1, k), h.inv_perm.reshape(-1, k)
    batch = (len(gp) * len(hp),) if g.batch or h.batch else ()
    unitaries = []
    for u, src in zip(g.unitaries, gi.T):
        n = u.shape[-1]
        u = u.reshape(-1, 1, n, n)
        unitaries.append(_by_block(src, (len(gp), len(hp), n, n),
                                   lambda sel, j: u[sel] @ h.unitaries[j].reshape(-1, n, n))
                         .reshape(batch + (n, n)))
    # perm(j) = perm_g(perm_h(j)) and perm^-1(i) = perm_h^-1(perm_g^-1(i))
    perm = gp[np.arange(len(gp))[:, None, None], hp[None]]
    inv_perm = hi[np.arange(len(hp))[None, :, None], gi[:, None]]
    return Automorphism._unchecked(g.descriptor, perm.reshape(batch + (k,)), unitaries,
                                   inv_perm.reshape(batch + (k,)))


def inverse(g: Automorphism) -> Automorphism:
    """g^-1 for one map g."""
    unitaries = [dagger(g.unitaries[p]) for p in g.perm]
    return Automorphism._unchecked(g.descriptor, g.inv_perm, unitaries, g.perm)


def predual(g: Automorphism, a: AlgebraElement) -> AlgebraElement:
    """Predual action on densities: tr(predual(g, rho) a) = tr(rho g(a)).

    Since block automorphisms preserve the total trace this is just g^-1
    applied to the density, read off g's own unitaries: block j is
    u_p* a_p u_p with p = perm(j).  One map passes the batch axes of ``a``
    through.  For a stack, ``a`` is one element, or a stack whose first
    axis pairs with the maps (or has length 1): entry k goes to the k-th
    map's inverse.
    """
    if g.descriptor != a.descriptor:
        raise InputError("automorphism and element live on different algebras")
    targets = g.perm.reshape(-1, g.descriptor.num_blocks)
    # a with one leading axis, paired with the maps or of length 1
    lead = a if g.batch and a.batch else a[None]
    rest = lead.batch[1:]    # the batch axes of a that pass through
    out = []
    for j, tgt in enumerate(targets.T):
        n = a.blocks[j].shape[-1]

        def conjugate(sel, p):
            u = g.unitaries[p].reshape((-1,) + (1,) * len(rest) + (n, n))[sel]
            b = lead.blocks[p]
            return dagger(u) @ np.broadcast_to(b, (len(tgt),) + b.shape[1:])[sel] @ u

        res = _by_block(tgt, (len(tgt),) + rest + (n, n), conjugate)
        out.append(res.reshape(g.batch + rest + (n, n)))
    return AlgebraElement._unchecked(a.descriptor, out)


def equal_as_maps(g: Automorphism, h: Automorphism, tol: float = TOL_EQ):
    """Whether g_k and h_k act identically, entry by entry of two stacks of
    one batch shape (a bool for two maps); unitaries may differ by phases.
    Each block's products u_h* u_g, traces and norm tests are taken as one
    stack, with the bits and the decision of one pair at a time."""
    if g.descriptor != h.descriptor:
        raise InputError("cannot compare automorphisms of different algebras")
    # Maps with different block permutations differ on some matrix unit.
    same = np.all(g.perm == h.perm, axis=-1).reshape(-1)
    for ug, uh in zip(g.unitaries, h.unitaries):
        live = np.flatnonzero(same)
        if live.size == 0:
            break
        n = ug.shape[-1]
        # uh* ug must be a scalar phase for the conjugations to agree.
        w = dagger(uh.reshape(-1, n, n)[live]) @ ug.reshape(-1, n, n)[live]
        t = np.trace(w, axis1=-2, axis2=-1) / n
        near = np.abs(t) >= 0.5    # far from any phase: cheap reject
        phase = t[near] / np.abs(t[near])
        agree = np.zeros(live.size, dtype=bool)
        agree[near] = matcore.op_norms_within(w[near] - phase[:, None, None] * np.eye(n),
                                              tol * max(1.0, float(n)))
        same[live] = agree
    return same.reshape(g.batch)[()]


def _near(cells: dict, key: tuple) -> list:
    """Sorted entries of the 3 x 3 cells around ``key`` with the same block
    permutation; ``cells`` holds each grid row (perm, re) as a dict by im."""
    perm, re, im = key
    found = []
    for a in (-1, 0, 1):
        row = cells.get((perm, re + a))
        if row:
            for b in (-1, 0, 1):
                found += row.get(im + b, ())
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

    The held maps are one stack, ``elements``, in arrays with spare rows.
    """

    _PROBE_SEED = 20241204

    def __init__(self, descriptor: AlgebraDescriptor, tol: float = TOL_EQ):
        rng = random.Random(self._PROBE_SEED)
        self.descriptor = descriptor
        self.tol = max(tol, 32.0 * max(descriptor.block_dims) * np.finfo(float).eps)
        self.probes_r = [_unit_probe(rng, n) for n in descriptor.block_dims]
        self.probes_s = [_unit_probe(rng, n) for n in descriptor.block_dims]
        self.width = self.cell_width(self.tol)
        self.size = 0
        k = descriptor.num_blocks
        # perm, inv_perm and each block's unitaries, with spare rows
        self._rows = [np.empty((0, k), dtype=int), np.empty((0, k), dtype=int)] + [
            np.empty((0, n, n), dtype=complex) for n in descriptor.block_dims]
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

    def _rows_of(self, idx) -> Automorphism:
        """Rows ``idx`` of the arrays, held or spare, as maps."""
        perm, inv_perm, *unitaries = (a[idx] for a in self._rows)
        return Automorphism._unchecked(self.descriptor, perm, unitaries, inv_perm)

    @property
    def elements(self) -> Automorphism:
        """The held maps as one stack, in index order."""
        return self._rows_of(slice(0, self.size))

    def fingerprints(self, gs: Automorphism) -> np.ndarray:
        """f(g) for each map of the stack ``gs``: one ``apply`` of the stack
        to R, paired with S block by block."""
        moved = apply(gs, AlgebraElement._unchecked(self.descriptor, self.probes_r))
        return sum(np.einsum("kab,ab->k", b, s.conj())
                   for b, s in zip(moved.blocks, self.probes_s))

    def keys(self, gs: Automorphism) -> list:
        """The key of each map of the stack ``gs``."""
        return [(tuple(p), math.floor(z.real / self.width), math.floor(z.imag / self.width))
                for p, z in zip(gs.perm.tolist(), self.fingerprints(gs).tolist())]

    def near(self, key: tuple) -> list:
        """Indices of the elements whose keys are at most one cell from ``key``."""
        return _near(self.cells, key)

    def insert(self, gs: Automorphism, keys: list) -> list:
        """The index of each map of the stack ``gs`` in turn: the lowest index
        of an element equal to it as a map among those held and those
        appended for earlier entries of ``gs``, else the index at which it is
        appended.

        Candidates come from the neighbouring cells.  While they are
        confirmed, ``gs`` fills the rows after the held elements, so entry q
        is candidate size + q, and one stacked ``equal_as_maps`` confirms
        every candidate pair.
        """
        n, pairs, cells = self.size, [], {}
        for q, key in enumerate(keys):
            pairs += [(q, i) for i in self.near(key)]
            pairs += [(q, n + p) for p in _near(cells, key)]
            cells.setdefault(key[:2], {}).setdefault(key[2], []).append(q)
        pairs = np.array(pairs, dtype=int).reshape(-1, 2)
        self._put(gs)
        hits = [[] for _ in keys]
        for q, p in pairs[equal_as_maps(self._rows_of(pairs[:, 1]), gs[pairs[:, 0]],
                                        self.tol)].tolist():
            hits[q].append(p)
        out, appended = [], {}
        for q in range(len(keys)):
            # held elements come first and earlier entries in order, so the
            # first hit that is an element has the lowest index
            j = next((out[p - n] if p >= n else p for p in hits[q]
                      if p < n or p - n in appended), -1)
            if j < 0:
                j = appended[q] = n + len(appended)
            out.append(j)
        self.add(self._rows_of(n + np.array(list(appended), dtype=int)),
                 [keys[q] for q in appended])
        return out

    def _put(self, gs: Automorphism) -> None:
        """Write the stack gs into the rows after the held elements; the
        capacity at least doubles when it grows, so that appending copies
        O(|G|) maps in all."""
        n, m = self.size, len(gs)
        if n + m > len(self._rows[0]):
            self._rows = [np.concatenate([a[:n], np.empty((max(n, m),) + a.shape[1:], a.dtype)])
                          for a in self._rows]
        for a, b in zip(self._rows, [gs.perm, gs.inv_perm, *gs.unitaries]):
            a[n:n + m] = b

    def add(self, gs: Automorphism, keys: list) -> None:
        """Append the stack gs, whose maps are assumed absent and whose keys
        are ``keys``."""
        self._put(gs)
        for q, key in enumerate(keys):
            self.cells.setdefault(key[:2], {}).setdefault(key[2], []).append(self.size + q)
        self.size += len(keys)


def _unit_probe(rng: random.Random, n: int) -> np.ndarray:
    m = matcore.gaussian_block(rng, n)
    return m / np.linalg.norm(m)


class FiniteGroup:
    """A finite group of automorphisms: its elements as one stack, with
    composition and inverse tables.

    ``index`` is the closure's fingerprint index over ``elements``, and
    ``first_layer`` the indices of its first search layer: the distinct
    non-identity generators.
    """

    __slots__ = ("descriptor", "elements", "mult", "inv", "index", "first_layer")

    def __init__(self, descriptor, elements: Automorphism, mult, inv, index: MapIndex,
                 first_layer: range):
        self.descriptor = descriptor
        self.elements = elements
        self.mult = mult            # mult[i][j] = index of elements[i] o elements[j]
        self.inv = inv
        self.index = index
        self.first_layer = first_layer

    @property
    def order(self) -> int:
        return len(self.elements)

    def block_orbits(self):
        """Orbits of the block-permutation action on block indices, each
        sorted, in order of their least block: as the elements form a group,
        the orbit of block j is the set of its images perm(j)."""
        return [list(o) for o in sorted({tuple(sorted(set(col)))
                                         for col in self.elements.perm.T.tolist()})]


def close_group(generators, cap: int = 10000, tol: float = TOL_EQ) -> FiniteGroup:
    """Breadth-first closure of a generator set under composition.

    ``generators`` is an iterable of automorphisms (a list, or a stack).
    Elements are listed in breadth-first order from the identity: the
    distinct generators, then each frontier element composed with each
    generator in turn.  The search takes a whole layer at a time: one
    ``compose`` of the layer with the generators, and ``MapIndex.insert``
    looks every product up at once (phase-invariant fingerprint on a grid
    derived from ``tol``, confirmed by stacked ``equal_as_maps``), in the
    order of one product at a time.  So it makes (|G| - 1) |S| products for
    |S| generators.  It records the right Cayley graph right[k, s] = index
    of elements[k] o generators[s], and each element's parent and generator
    in the search tree.  The multiplication table then follows from integer
    lookups alone, one layer at a time in search order:
    elements[c] = elements[parent(c)] o generators[s(c)] gives
    mult[:, c] = right[mult[:, parent(c)], s(c)], and parents lie in
    earlier layers.  Raises once the closure exceeds ``cap`` elements
    (generators of infinite order).

    ``compose`` does not test its products for unitarity; instead the
    elements each layer of the search adds are tested at once, by
    ``Automorphism``'s default test, before the next layer grows from them.
    """
    generators = list(generators)
    if not generators:
        raise InputError("need at least one generator")
    desc = generators[0].descriptor
    for g in generators:
        if g.descriptor != desc:
            raise InputError("generators live on different algebras")
    gens = stack_maps(generators)

    index = MapIndex(desc, tol)
    ident = identity_automorphism(desc)[None]
    index.add(ident, index.keys(ident))
    right, parent, via = [[0] * len(gens)], [0], [0]
    layers = [1]    # index of the first element of each layer, and the end
    products, sources = gens, [(0, s) for s in range(len(gens))]
    while True:
        found = index.insert(products, index.keys(products))
        # the generators themselves are not held to the cap
        if len(layers) > 1 and index.size > max(cap, layers[-1]):
            raise InputError(f"group not finite at cap {cap}")
        for (k, s), j in zip(sources, found):
            if j == len(parent):    # the product that added element j
                right.append([0] * len(gens))
                parent.append(k)
                via.append(s)
            right[k][s] = j
        layer = index.elements[layers[-1]:]
        layers.append(index.size)
        if not len(layer):
            break
        if len(layers) > 2:
            _require_unitary(layer)
        products = compose(layer, gens)
        sources = [(k, s) for k in range(layers[-2], layers[-1]) for s in range(len(gens))]

    n = index.size
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
    return FiniteGroup(desc, index.elements, mult, inv, index, range(1, layers[1]))


def _require_unitary(g: Automorphism) -> None:
    """Raise for the first map of the stack g with a block that fails
    ``matcore.is_unitary`` at TOL_EQ, naming the block."""
    bad = np.array([~matcore.is_unitary(u) for u in g.unitaries])
    if np.any(bad):
        i = int(np.argmax(bad[:, np.argmax(np.any(bad, axis=0))]))
        raise InputError(f"matrix for block {i} is not unitary")
