"""Finite-dimensional von Neumann algebras as direct sums of matrix blocks.

An algebra is described by its block dimensions (n_1, ..., n_k); its
elements are lists of dense complex blocks.  An element may also stand for
a stack of elements: every block then carries the same leading batch shape,
arithmetic broadcasts over it, the reductions (``op_norm``,
``herm_residual``, ``min_eig``, ``min_sv``) take the worst case over it,
``op_norms`` and ``min_eigs`` give one value per element, and ``x[k]``
indexes it.  So one expression states a law for one element
or for every group element at once.  Normal states are stored by their
density matrix.  The Hilbert-Schmidt space of block matrices doubles as
the GNS space: vectors use the same block layout as algebra elements, the
algebra acts by left multiplication, and the cyclic vector of a faithful
state is the positive root of its density.

The public ``AlgebraElement`` constructor and ``State`` validate their
input; elements derived from checked ones are built by ``_unchecked``.

``vec`` and ``unvec`` alone fix the Hilbert-Schmidt coordinates
(block-major, column-major within a block); operators on that space stay
maps of elements, and a basis of a subspace is a matrix of coordinate columns.
"""

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import InputError, PreconditionError, TOL_EQ, TOL_HERM, TOL_POS, dagger


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Block dimensions (n_1, ..., n_k) of a sum of full matrix algebras."""

    block_dims: tuple

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if not dims or any(n < 1 for n in dims):
            raise InputError(f"block dims must be positive integers, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def dim(self) -> int:
        """Linear dimension sum(n_i^2); also the Hilbert-Schmidt dimension."""
        return int(sum(n * n for n in self.block_dims))


class AlgebraElement:
    """One complex n_i x n_i block per summand of the algebra; every block
    may carry the same leading batch shape, making the element a stack."""

    __slots__ = ("descriptor", "blocks")

    def __init__(self, descriptor: AlgebraDescriptor, blocks):
        blocks = [matcore.as_square(b) for b in blocks]
        dims = tuple(b.shape[-1] for b in blocks)
        if dims != descriptor.block_dims:
            raise InputError(
                f"block shapes {dims} do not match descriptor {descriptor.block_dims}"
            )
        batches = {b.shape[:-2] for b in blocks}
        if len(batches) > 1:
            raise InputError(f"blocks carry different batch shapes {sorted(batches)}")
        self.descriptor = descriptor
        self.blocks = blocks

    @classmethod
    def _unchecked(cls, descriptor: AlgebraDescriptor, blocks: list):
        """An element from blocks derived from checked ones: no test."""
        x = object.__new__(cls)
        x.descriptor, x.blocks = descriptor, blocks
        return x

    @property
    def batch(self) -> tuple:
        """Leading batch shape; () for a single element."""
        return self.blocks[0].shape[:-2]

    def __getitem__(self, k):
        """Index the batch axes."""
        return self._unchecked(self.descriptor, [b[k] for b in self.blocks])

    def __iter__(self):
        """The elements along the first batch axis."""
        return (self[k] for k in range(self.batch[0]))

    # -- arithmetic (broadcasts over batch axes) -----------------------------
    def __add__(self, other):
        _same_descriptor(self, other)
        return self._unchecked(self.descriptor, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        _same_descriptor(self, other)
        return self._unchecked(self.descriptor, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar):
        return self._unchecked(self.descriptor, [complex(scalar) * b for b in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other):
        _same_descriptor(self, other)
        return self._unchecked(self.descriptor, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self):
        return self._unchecked(self.descriptor, [dagger(b) for b in self.blocks])

    def inv(self):
        return self._unchecked(self.descriptor, [np.linalg.inv(b) for b in self.blocks])

    def mean(self):
        """Average over the first batch axis."""
        scale = 1.0 / self.batch[0]
        return self._unchecked(self.descriptor, [np.sum(b, axis=0) * scale for b in self.blocks])

    def trace(self):
        """sum_i tr(a_i): a complex number, or an array over the batch."""
        return sum(b.trace(axis1=-2, axis2=-1) for b in self.blocks)

    # -- reductions: the worst case over the batch ---------------------------
    def op_norm(self) -> float:
        return matcore.max_op_norm(self.blocks)

    def op_norms(self) -> np.ndarray:
        """||x|| of each element, an array of the batch shape."""
        return np.max([matcore.op_norms(b) for b in self.blocks], axis=0)

    def herm_residual(self) -> float:
        return matcore.max_op_norm(b - dagger(b) for b in self.blocks)

    def min_eig(self) -> float:
        return float(np.min(self.min_eigs()))

    def min_eigs(self) -> np.ndarray:
        """Smallest eigenvalue of each (Hermitian) element, an array of the
        batch shape."""
        return np.min([matcore.herm_eig(b)[0][..., 0] for b in self.blocks], axis=0)

    def min_sv(self) -> float:
        return float(np.min(self.min_svs()))

    def min_svs(self) -> np.ndarray:
        """Smallest singular value of each element, an array of the batch shape."""
        return np.min([matcore.singular_values(b)[..., -1] for b in self.blocks], axis=0)


def _same_descriptor(a, b):
    if a.descriptor != b.descriptor:
        raise InputError(
            f"descriptor mismatch: {a.descriptor.block_dims} vs {b.descriptor.block_dims}"
        )


def identity(descriptor: AlgebraDescriptor) -> AlgebraElement:
    return AlgebraElement(descriptor, [np.eye(n) for n in descriptor.block_dims])


def matrix_unit_basis(descriptor: AlgebraDescriptor) -> AlgebraElement:
    """Hilbert-Schmidt orthonormal basis of matrix units, stacked in vec
    order: element m is unvec of the m-th coordinate vector."""
    return unvec(descriptor, np.eye(descriptor.dim))


# -- vectorization of the Hilbert-Schmidt space -----------------------------

def vec(x: AlgebraElement) -> np.ndarray:
    """Coordinates along the last axis, block-major and column-major within
    a block; the batch axes of ``x`` lead."""
    return np.concatenate([np.swapaxes(b, -1, -2).reshape(b.shape[:-2] + (b.shape[-1] ** 2,))
                           for b in x.blocks], axis=-1)


def unvec(descriptor: AlgebraDescriptor, v: np.ndarray) -> AlgebraElement:
    """Element from coordinates along the last axis of ``v``; its leading
    axes become batch axes."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != (descriptor.dim,):
        raise InputError(f"vector shape {v.shape} does not end in descriptor dim {descriptor.dim}")
    blocks, ofs = [], 0
    for n in descriptor.block_dims:
        seg = v[..., ofs:ofs + n * n].reshape(v.shape[:-1] + (n, n))
        blocks.append(np.swapaxes(seg, -1, -2))
        ofs += n * n
    return AlgebraElement._unchecked(descriptor, blocks)


def stack(elements) -> AlgebraElement:
    """The elements as one element with a new leading batch axis."""
    elements = list(elements)
    return AlgebraElement._unchecked(elements[0].descriptor,
                                     [np.stack(bs) for bs in zip(*(x.blocks for x in elements))])


def worst_op_norm(elements) -> float:
    """Largest operator norm over an iterable of elements or stacks: every
    block of every element in one ``matcore.max_op_norm`` pool, so a later
    slice of a sweep takes SVDs only where it can beat the earlier ones."""
    return matcore.max_op_norm(b for x in elements for b in x.blocks)


def max_entry(x: AlgebraElement) -> float:
    """Largest |entry| of an element or a stack: for a density y, max |tr(y E)|
    over the matrix units E, as tr(y E_ij) = y_ji exactly (products by 0, 1)."""
    return max(float(np.max(np.abs(b))) for b in x.blocks)


# A sweep over pairs stacks at most this many elements at once.
STACK_LIMIT = 1024


def batch_slices(n: int, inner: int) -> list:
    """Consecutive slices of range(n) for a sweep in which each index
    stacks ``inner`` elements: each slice takes STACK_LIMIT // inner
    indices, and at least one."""
    width = max(1, STACK_LIMIT // inner)
    return [slice(k, k + width) for k in range(0, n, width)]


# -- states -----------------------------------------------------------------

class State:
    """Normal state given by its density: Hermitian PSD blocks, total trace 1."""

    __slots__ = ("descriptor", "density", "min_eig")    # min_eig of the density

    def __init__(self, descriptor: AlgebraDescriptor, density: AlgebraElement,
                 tol_eq: float = TOL_EQ, tol_pos: float = TOL_POS):
        if density.descriptor != descriptor:
            raise InputError("density descriptor does not match the algebra")
        res = density.herm_residual()
        if res > TOL_HERM * max(1.0, density.op_norm()):
            raise InputError(f"density is not Hermitian: residual {res:.3e}")
        mn = density.min_eig()
        if mn < -tol_pos:
            raise InputError(f"density is not PSD: min eigenvalue {mn:.3e}")
        tr = density.trace()
        if abs(tr - 1.0) > tol_eq * 1.0:
            raise InputError(f"density trace {tr.real:.12g} != 1")
        self.descriptor = descriptor
        self.density = density
        self.min_eig = mn

    @classmethod
    def _unchecked(cls, descriptor: AlgebraDescriptor, density: AlgebraElement,
                   min_eig: float):
        """A state from a density derived from checked ones and known to be
        Hermitian with unit trace, given its smallest eigenvalue: no test."""
        phi = object.__new__(cls)
        phi.descriptor, phi.density, phi.min_eig = descriptor, density, min_eig
        return phi


def evaluate(phi: State, a: AlgebraElement):
    """phi(a) = sum_i tr(rho_i a_i): a complex number, or an array over the
    batch of a stack."""
    _same_descriptor(phi.density, a)
    return sum((r @ b).trace(axis1=-2, axis2=-1)
               for r, b in zip(phi.density.blocks, a.blocks))


def require_faithful(phi: State, tol_pos: float = TOL_POS) -> None:
    """Raise unless every eigenvalue of the density exceeds ``tol_pos``."""
    if phi.min_eig <= tol_pos:
        raise PreconditionError(
            f"state is not faithful: min density eigenvalue {phi.min_eig:.3e} <= {tol_pos:.1e}"
        )


def density_power(phi: State, z: complex, tol_pos: float = TOL_POS) -> AlgebraElement:
    """rho^{iz} blockwise; requires a faithful state."""
    require_faithful(phi, tol_pos)
    return AlgebraElement._unchecked(
        phi.descriptor,
        [matcore.imag_power(b, z, tol_pos=tol_pos) for b in phi.density.blocks],
    )
