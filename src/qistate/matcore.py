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
    """Validate and return ``a`` as a finite square complex matrix, or a
    stack of them with leading batch axes."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise InputError("matrix has non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.swapaxes(-1, -2).conj()


def op_norm(a) -> float:
    """Operator norm (largest singular value); the largest over a stack."""
    m = as_square(a)
    if m.size == 0:
        return 0.0
    return float(np.max(op_norms(m)))


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix in a stack of shape (..., n, n)."""
    return np.linalg.norm(stack, 2, axis=(-2, -1))


def herm_residual(a: np.ndarray) -> float:
    """||a - a*||; the largest over a stack."""
    return float(np.max(op_norms(a - dagger(a)), initial=0.0))


def herm_eig(a, tol_herm: float = TOL_HERM):
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack.

    Returns (eigenvalues ascending, unitary eigenvector matrices V) with
    a = V diag(w) V*.  Raises if a matrix is not Hermitian within
    ``tol_herm`` relative to its own norm.
    """
    m = as_square(a)
    scale = np.maximum(op_norms(m), 1e-300)
    res = op_norms(m - dagger(m))
    # relative criterion, with an absolute floor so that matrices that are
    # zero up to roundoff still count as Hermitian
    bad = res > tol_herm * scale + 100 * np.finfo(float).eps
    if np.any(bad):
        k = np.argmax(bad)
        raise InputError(
            f"matrix is not Hermitian: residual {res.flat[k]:.3e} exceeds "
            f"{tol_herm:.1e} * norm {scale.flat[k]:.3e}"
        )
    w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    return w, v


def psd_sqrt(a, tol_pos: float = TOL_POS, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix, or of each
    matrix in a stack.

    Eigenvalues in [-tol_pos, 0] are clipped to zero; anything below
    -tol_pos is an error.
    """
    w, v = herm_eig(a, tol_herm=tol_herm)
    mn = np.min(w[..., 0])
    if mn < -tol_pos:
        raise PreconditionError(
            f"not positive semidefinite: min eigenvalue {mn:.3e} < -{tol_pos:.1e}"
        )
    root = np.sqrt(np.clip(w, 0.0, None))
    return (v * root[..., None, :]) @ dagger(v)


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
    """Smallest eigenvalue of a Hermitian matrix; the smallest over a stack."""
    w, _ = herm_eig(a, tol_herm=tol_herm)
    return float(np.min(w[..., 0]))


def min_sv(a) -> float:
    """Smallest singular value; the smallest over a stack."""
    m = as_square(a)
    return float(np.min(np.linalg.svd(m, compute_uv=False)[..., -1]))


def is_unitary(u, tol: float = TOL_EQ) -> bool:
    m = as_square(u)
    return op_norm(m @ dagger(m) - np.eye(m.shape[0])) <= tol * max(1.0, op_norm(m) ** 2)
