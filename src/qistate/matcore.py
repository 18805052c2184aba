"""Dense complex matrix primitives: norms, Hermitian spectra, matrix powers.

Everything downstream works with square complex matrices in double
precision.  Tolerance defaults live here and are shared by the whole
package; callers can override them per call.
"""

import numpy as np

# Hermiticity residual, relative to the operand norm.
TOL_HERM = 1e-10
# Cutoff for "numerically zero / negative" eigenvalues and singular values.
TOL_POS = 1e-10
# Equality tolerance for residual checks, relative to operand norms.
TOL_EQ = 1e-9


class InputError(ValueError):
    """Malformed numerical input (non-finite, non-square, wrong shape)."""


class PreconditionError(ValueError):
    """An operation was called outside its mathematical domain."""


def as_square(a) -> np.ndarray:
    """Validate and return ``a`` as a finite square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise InputError("matrix has non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.swapaxes(-1, -2).conj()


def op_norm(a) -> float:
    """Operator norm (largest singular value)."""
    m = as_square(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix in a stack of shape (..., n, n)."""
    return np.linalg.norm(stack, 2, axis=(-2, -1))


def max_op_distance(lhs, rhs) -> float:
    """Largest operator-norm distance between matching matrices of two
    block lists, block i of one broadcasting against block i of the other."""
    return max(float(np.max(op_norms(a - b))) for a, b in zip(lhs, rhs))


def herm_residual(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - dagger(a), 2))


def herm_eig(a, tol_herm: float = TOL_HERM):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix V) with
    a = V diag(w) V*.  Raises if ``a`` is not Hermitian within
    ``tol_herm`` relative to its norm.
    """
    m = as_square(a)
    scale = max(op_norm(m), 1e-300)
    res = herm_residual(m)
    # relative criterion, with an absolute floor so that matrices that are
    # zero up to roundoff still count as Hermitian
    if res > tol_herm * scale + 100 * np.finfo(float).eps:
        raise InputError(
            f"matrix is not Hermitian: residual {res:.3e} exceeds "
            f"{tol_herm:.1e} * norm {scale:.3e}"
        )
    w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    return w, v


def psd_sqrt(a, tol_pos: float = TOL_POS, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues in [-tol_pos, 0] are clipped to zero; anything below
    -tol_pos is an error.
    """
    w, v = herm_eig(a, tol_herm=tol_herm)
    if w[0] < -tol_pos:
        raise PreconditionError(
            f"not positive semidefinite: min eigenvalue {w[0]:.3e} < -{tol_pos:.1e}"
        )
    root = np.sqrt(np.clip(w, 0.0, None))
    return (v * root) @ dagger(v)


def imag_power(a, z: complex, tol_pos: float = TOL_POS,
               tol_herm: float = TOL_HERM) -> np.ndarray:
    """a^{iz} for Hermitian positive definite ``a``, via the spectral calculus.

    z = 0 gives the identity, z = -i the matrix itself, z = -i/2 the
    principal positive root.
    """
    w, v = herm_eig(a, tol_herm=tol_herm)
    if w[0] <= tol_pos:
        raise PreconditionError(
            f"not positive definite: min eigenvalue {w[0]:.3e} <= {tol_pos:.1e}"
        )
    phases = np.exp(1j * complex(z) * np.log(w))
    return (v * phases) @ dagger(v)


def min_eig(a, tol_herm: float = TOL_HERM) -> float:
    w, _ = herm_eig(a, tol_herm=tol_herm)
    return float(w[0])


def min_sv(a) -> float:
    """Smallest singular value."""
    m = as_square(a)
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def is_unitary(u, tol: float = TOL_EQ) -> bool:
    m = as_square(u)
    return op_norm(m @ dagger(m) - np.eye(m.shape[0])) <= tol * max(1.0, op_norm(m) ** 2)
