"""Test fixtures: states and finite automorphism groups to test on, the
four reference instances and the writer of their instance files, and the
dense Hilbert-Schmidt matrices that tests use as oracles.

Finite closures are guaranteed by construction: model generators are
monomial matrices (permutation times roots of unity) or block
permutations, whose generated automorphism groups are finite, and the
whole generating set is conjugated by one random block unitary to make
the matrices generic.  Strongly quasi-invariant instances come from the
converse construction: a diagonal invariant density, a commuting diagonal
positive element, and the induced state, all pushed through the frame.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from qistate.algebra import AlgebraDescriptor, AlgebraElement, State, matrix_unit_basis, vec
from qistate.actions import (Automorphism, FiniteGroup, close_group, identity_automorphism,
                             predual)
from qistate.cli import element_to_json, matrix_to_json
from qistate.matcore import InputError, TOL_EQ, TOL_POS, dagger
from qistate.standard_form import group_unitaries


def hs_matrix(descriptor: AlgebraDescriptor, f) -> np.ndarray:
    """Matrix of a linear map on the Hilbert-Schmidt space: column m is
    vec(f(e_m)) for the m-th matrix unit e_m.  ``f`` takes the stacked
    matrix units; batch axes it puts in front of theirs lead the result."""
    return np.swapaxes(vec(f(matrix_unit_basis(descriptor))), -1, -2)


def left_mult_matrix(x: AlgebraElement) -> np.ndarray:
    """Matrix of xi |-> x xi on Hilbert-Schmidt coordinates."""
    return hs_matrix(x.descriptor, lambda units: x @ units)


def dense_unitaries(an) -> list:
    """Dense U_g for each group element of the analysis ``an``, in group order."""
    return group_unitaries(an.group, an.roots[1], an.factors[0])


def all_passed(checks) -> bool:
    """Every asserted check of a suite's list passes."""
    return all(c.passed for c in checks if c.asserted)


def state_from_density(density: AlgebraElement) -> State:
    return State(density.descriptor, density)


def trivial_group(descriptor: AlgebraDescriptor) -> FiniteGroup:
    return close_group([identity_automorphism(descriptor)], cap=2)


def shift_matrix(n: int) -> np.ndarray:
    """Cyclic shift: e_j |-> e_{j+1 mod n}; order n."""
    m = np.zeros((n, n), dtype=complex)
    for j in range(n):
        m[(j + 1) % n, j] = 1.0
    return m


def clock_matrix(n: int) -> np.ndarray:
    """diag(1, w, ..., w^{n-1}) with w = exp(2 pi i / n); order n."""
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def hadamard2() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def random_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_faithful_density(rng, desc: AlgebraDescriptor, floor: float = 0.05,
                            diagonal: bool = False) -> AlgebraElement:
    total = sum(desc.block_dims)
    p = floor + rng.random(total)
    p = p / p.sum()
    blocks, ofs = [], 0
    for n in desc.block_dims:
        diag = np.diag(p[ofs:ofs + n]).astype(complex)
        if diagonal:
            blocks.append(diag)
        else:
            w = random_unitary(rng, n)
            blocks.append(w @ diag @ dagger(w))
        ofs += n
    return AlgebraElement(desc, blocks)


def conjugate_generator(g: Automorphism, frame) -> Automorphism:
    """Ad(W) g Ad(W)^-1 for a block unitary W = (+) frame[i]."""
    new_us = [frame[i] @ g.unitaries[i] @ dagger(frame[g.inv_perm[i]])
              for i in range(g.descriptor.num_blocks)]
    return Automorphism(g.descriptor, g.perm, new_us)


def inner_generator(desc: AlgebraDescriptor, block: int, unitary) -> Automorphism:
    us = [np.eye(n, dtype=complex) for n in desc.block_dims]
    us[block] = np.asarray(unitary, dtype=complex)
    return Automorphism(desc, range(desc.num_blocks), us)


def permutation_generator(desc: AlgebraDescriptor, perm) -> Automorphism:
    return Automorphism(desc, perm, [np.eye(n, dtype=complex) for n in desc.block_dims])


def _model_generators(rng, desc: AlgebraDescriptor, want: int = 2):
    """Monomial-model generators with a finite (and small) closure."""
    gens = []
    dims = desc.block_dims
    # blocks grouped by dimension, for dimension-preserving permutations
    classes = {}
    for i, n in enumerate(dims):
        classes.setdefault(n, []).append(i)
    movable = [c for c in classes.values() if len(c) >= 2]
    inner_blocks = [i for i, n in enumerate(dims) if n >= 2]

    choices = []
    if inner_blocks:
        choices.append("shift")
        choices.append("clock")
    if movable:
        choices.append("cycle")
    if not choices:
        return [identity_automorphism(desc)]
    for _ in range(want):
        kind = choices[rng.integers(len(choices))]
        if kind == "shift":
            b = inner_blocks[rng.integers(len(inner_blocks))]
            gens.append(inner_generator(desc, b, shift_matrix(dims[b])))
        elif kind == "clock":
            b = inner_blocks[rng.integers(len(inner_blocks))]
            gens.append(inner_generator(desc, b, clock_matrix(dims[b])))
        else:
            cls = movable[rng.integers(len(movable))]
            perm = list(range(desc.num_blocks))
            rolled = cls[1:] + cls[:1]
            for src, dst in zip(cls, rolled):
                perm[src] = dst
            gens.append(permutation_generator(desc, perm))
    return gens


def random_descriptor(rng, max_blocks: int = 3, dims=(1, 2, 3)) -> AlgebraDescriptor:
    k = int(rng.integers(1, max_blocks + 1))
    return AlgebraDescriptor(tuple(int(rng.choice(dims)) for _ in range(k)))


def random_group(rng, desc: AlgebraDescriptor, max_order: int = 24,
                 strong_model: bool = False, frame=None) -> FiniteGroup:
    """Finite automorphism group with |G| <= max_order.

    ``strong_model`` keeps the generators monomial (no frame), so the
    diagonal algebra stays invariant; otherwise the set is conjugated by a
    random block frame.
    """
    for attempt in (2, 1, 0):
        gens = _model_generators(rng, desc, want=max(1, attempt))
        if not strong_model:
            fr = frame if frame is not None else [random_unitary(rng, n)
                                                  for n in desc.block_dims]
            gens = [conjugate_generator(g, fr) for g in gens]
        try:
            return close_group(gens, cap=max_order)
        except InputError:
            continue
    return trivial_group(desc)


@dataclass
class Instance:
    """A state/group pair, with the construction data kept for oracles."""

    descriptor: AlgebraDescriptor
    phi: State
    group: FiniteGroup
    strong: bool
    generators: list = None
    frame: list = None
    model_d: AlgebraElement = None
    model_psi_density: AlgebraElement = None


def random_instance(rng, desc: AlgebraDescriptor = None, max_order: int = 24) -> Instance:
    """Generic instance: any faithful state is quasi-invariant, and a
    random one is almost never strongly so."""
    desc = desc or random_descriptor(rng)
    group = random_group(rng, desc, max_order=max_order)
    phi = state_from_density(random_faithful_density(rng, desc))
    return Instance(desc, phi, group, strong=False)


def random_strong_instance(rng, desc: AlgebraDescriptor = None,
                           max_order: int = 24) -> Instance:
    """Strongly quasi-invariant instance built from the converse direction:
    diagonal invariant density rho_psi, commuting positive diagonal d,
    phi = normalized psi(d^-1 .), then one global frame change."""
    desc = desc or random_descriptor(rng)
    model = random_group(rng, desc, max_order=max_order, strong_model=True)

    rho0 = random_faithful_density(rng, desc, diagonal=True)
    acc = predual(model.elements[0], rho0)
    for g in model.elements[1:]:
        acc = acc + predual(g, rho0)
    rho_psi = (1.0 / model.order) * acc

    d_entries = [np.diag(0.5 + 1.5 * rng.random(n)).astype(complex)
                 for n in desc.block_dims]
    d0 = AlgebraElement(desc, d_entries)
    raw = d0.inv() @ rho_psi
    scale = raw.trace().real
    rho_phi = (1.0 / scale) * raw
    d_model = scale * d0      # then psi(a) = phi(d a) exactly

    frame = [random_unitary(rng, n) for n in desc.block_dims]
    gens = [conjugate_generator(g, frame) for g in model.elements[1:]] or \
           [identity_automorphism(desc)]
    group = close_group(gens, cap=max_order)

    def push(x):
        return AlgebraElement(desc, [w @ b @ dagger(w) for w, b in zip(frame, x.blocks)])

    phi = state_from_density(push(rho_phi))
    return Instance(desc, phi, group, strong=True, frame=frame,
                    model_d=push(d_model), model_psi_density=push(rho_psi))


# -- shipped reference instances ---------------------------------------------

def qubit_instance() -> Instance:
    """M_2, rho = diag(1/3, 2/3), spin-flip conjugation; lambda = 2."""
    desc = AlgebraDescriptor((2,))
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    gens = [inner_generator(desc, 0, x)]
    group = close_group(gens, cap=4)
    phi = state_from_density(AlgebraElement(desc, [np.diag([1 / 3, 2 / 3])]))
    return Instance(desc, phi, group, strong=True, generators=gens)


def c2_swap_instance() -> Instance:
    """Two scalar blocks with weights (1/4, 3/4) and the swap; lambda = 3."""
    desc = AlgebraDescriptor((1, 1))
    gens = [permutation_generator(desc, (1, 0))]
    group = close_group(gens, cap=4)
    phi = state_from_density(AlgebraElement(
        desc, [np.array([[0.25]]), np.array([[0.75]])]))
    return Instance(desc, phi, group, strong=True, generators=gens)


def m2m2_swap_instance() -> Instance:
    """M_2 (+) M_2 with commuting diagonal densities and the block swap."""
    desc = AlgebraDescriptor((2, 2))
    gens = [permutation_generator(desc, (1, 0))]
    group = close_group(gens, cap=4)
    phi = state_from_density(AlgebraElement(
        desc, [np.diag([0.1, 0.2]), np.diag([0.3, 0.4])]))
    return Instance(desc, phi, group, strong=True, generators=gens)


def instance_to_json(phi: State, generators) -> dict:
    """Instance file data, as ``cli.parse_instance`` reads it."""
    return {
        "algebra": {"block_dims": list(phi.descriptor.block_dims)},
        "state": {"density": element_to_json(phi.density)},
        "group": {"generators": [
            {"perm": g.perm.tolist(),
             "unitaries": [matrix_to_json(u) for u in g.unitaries]}
            for g in generators]},
        "tolerances": {"tol_eq": TOL_EQ, "tol_pos": TOL_POS},
        "closure_cap": 10000,
    }


def write_bundled_instances(directory: str) -> list:
    """Write the reference instance files that ship in ``instances/``."""
    os.makedirs(directory, exist_ok=True)
    bundle = {
        "qubit.json": qubit_instance(),
        "c2_swap.json": c2_swap_instance(),
        "m2m2_swap.json": m2m2_swap_instance(),
        "nonstrong_weyl3.json": nonstrong_instance(),
    }
    paths = []
    for name, inst in bundle.items():
        gens = inst.generators or inst.group.elements[1:] or [inst.group.elements[0]]
        data = instance_to_json(inst.phi, gens)
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def nonstrong_instance(seed: int = 20240601) -> Instance:
    """Random-seeded instance whose cocycle is not self-adjoint: the
    shift/clock pair on M_3 (group of order 9) with a generic state, where
    the implementing unitaries visibly fail the product rule."""
    rng = np.random.default_rng(seed)
    desc = AlgebraDescriptor((3,))
    gens = [inner_generator(desc, 0, shift_matrix(3)),
            inner_generator(desc, 0, clock_matrix(3))]
    group = close_group(gens, cap=16)
    phi = state_from_density(random_faithful_density(rng, desc))
    return Instance(desc, phi, group, strong=False, generators=gens)
