"""Dense complex matrix primitives: norms, Hermitian spectra, matrix powers.

Everything downstream works with square complex matrices in double
precision, validated by ``as_square`` where they enter; singular values
refuse a non-finite entry that arithmetic produced.  TOL_HERM is read by
``algebra.State`` alone; TOL_POS and TOL_EQ are the library defaults,
which the commands replace by the instance's.  Every worst-case operator
norm goes through ``max_op_norm``, which skips the SVD of each matrix whose
Frobenius norm cannot beat the running maximum and returns the same float
as one SVD per matrix; ``op_norms_within`` decides ||A|| <= limit per
matrix from the same bound, with the decision of one SVD per matrix.
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


def gaussian_block(rng, n: int) -> np.ndarray:
    """n x n matrix of independent standard complex Gaussian entries, drawn
    row by row from a ``random.Random``, real part before imaginary part.
    The standard library generator keeps numpy.random (a lazy import of
    several milliseconds) out of every command."""
    return np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                     for _ in range(n * n)]).reshape(n, n)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.swapaxes(-1, -2).conj()


def op_norm(a) -> float:
    """Operator norm (largest singular value); the largest over a stack."""
    return max_op_norm([as_square(a)])


def singular_values(stack: np.ndarray) -> np.ndarray:
    """Descending singular values of each matrix in a stack (..., m, n);
    raises for a non-finite entry, on which LAPACK fails or returns NaN."""
    if not np.all(np.isfinite(stack)):
        raise InputError("matrix has non-finite entries")
    return np.linalg.svd(stack, compute_uv=False)


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix in a stack of shape (..., n, n)."""
    return singular_values(stack)[..., 0]


# c in the Frobenius bound f (1 + c n^2 u) of max_op_norm.
FRO_SLACK = 64.0


def max_op_norm(stacks) -> float:
    """Largest operator norm over an iterable of matrices or stacks of
    them (0.0 if there is none), as one SVD per matrix would give it.  A
    matrix need not be square; n below is then its larger dimension.

    ||A||_2 <= ||A||_F (Golub & Van Loan, Matrix Computations, 2.3), so
    each stack gets its Frobenius norms in one pass, and a matrix takes an
    SVD only while its bound f (1 + c n^2 u) exceeds the running maximum:
    in descending order of f, in chunks of widths 1, 2, 4, ...  The bound
    holds for the computed values, with u the unit roundoff.  The computed
    f is ||A||_F (1 + t) with |t| <= (n^2 + 2) u: the squares of the real
    and of the imaginary parts are two sums of n^2 rounded products each,
    in any order (gamma_{n^2}), their sum one rounding more, and the root
    halves what is left and adds one.  LAPACK's gesdd bidiagonalizes A + E
    with Householder reflections, ||E||_F <= c_1 n^2 u ||A||_F (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, 19.3), and then
    finds the bidiagonal's singular values to relative accuracy c_2 n u;
    so the computed sigma_1 is at most ||A||_F (1 + c_1 n^2 u)(1 + c_2 n u).
    Any c above 1 + c_1 + c_2 and the second-order terms covers both; the
    constants of these bounds are small, and c = FRO_SLACK leaves a wide
    margin.  A skipped matrix therefore cannot exceed the maximum, and
    numpy's stacked SVD gives a matrix the same bits in any stack, so the
    result is the float that the full sweep returns.  A stack whose Frobenius
    norms overflow takes the full SVD (which refuses a non-finite entry).
    """
    best = 0.0
    for stack in stacks:
        if stack.size == 0:
            continue
        mats = stack.reshape((-1,) + stack.shape[-2:])
        bound = frobenius_bounds(mats)
        if not np.all(np.isfinite(bound)):
            best = max(best, float(np.max(op_norms(mats))))
            continue
        order = np.argsort(-bound, kind="stable")
        start, width = 0, 1
        while start < len(order):
            chunk = order[start:start + width]
            chunk = chunk[bound[chunk] > best]
            if chunk.size == 0:
                break
            best = max(best, float(np.max(op_norms(mats[chunk]))))
            start, width = start + width, 2 * width
    return best


def frobenius_bounds(mats: np.ndarray) -> np.ndarray:
    """f (1 + c n^2 u) for each matrix of a stack (k, m, n), f its computed
    Frobenius norm and n here the larger dimension: at least the computed
    largest singular value (see ``max_op_norm``); inf or nan where f
    overflows or an entry is not finite."""
    n = max(mats.shape[-2:])
    # einsum makes no temporary the size of the stack
    parts = (mats.real, mats.imag) if np.iscomplexobj(mats) else (mats,)
    with np.errstate(over="ignore"):
        fro = np.sqrt(sum(np.einsum("kij,kij->k", p, p) for p in parts))
    return fro * (1.0 + FRO_SLACK * n * n * np.finfo(float).eps)


def op_norms_within(mats: np.ndarray, limit: float) -> np.ndarray:
    """||A|| <= limit for each matrix of a stack (k, n, n), as one SVD per
    matrix decides it; a matrix whose ``frobenius_bounds`` entry is within
    the limit takes no SVD."""
    within = frobenius_bounds(mats) <= limit
    rest = ~within
    if np.any(rest):
        within[rest] = op_norms(mats[rest]) <= limit
    return within


def herm_eig(a):
    """Eigendecomposition of the Hermitian part (a + a*)/2 of a matrix, or
    of each matrix in a stack: (eigenvalues ascending, unitary V) with
    (a + a*)/2 = V diag(w) V*.  Whether ``a`` is Hermitian is not tested."""
    m = as_square(a)
    return np.linalg.eigh((m + dagger(m)) / 2.0)


def psd_sqrt(a, tol_pos: float = TOL_POS) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix, or of each
    matrix in a stack, read as its Hermitian part (see ``herm_eig``).

    Eigenvalues in [-tol_pos, 0] are clipped to zero; anything below
    -tol_pos is an error.
    """
    w, v = herm_eig(a)
    bad = w[..., 0] < -tol_pos
    if np.any(bad):    # the first failing matrix of a stack
        mn = w[..., 0].flat[np.argmax(bad)]
        raise PreconditionError(
            f"not positive semidefinite: min eigenvalue {mn:.3e} < -{tol_pos:.1e}"
        )
    root = np.sqrt(np.clip(w, 0.0, None))
    return (v * root[..., None, :]) @ dagger(v)


def imag_power(a, z: complex, tol_pos: float = TOL_POS) -> np.ndarray:
    """a^{iz} for Hermitian positive definite ``a``, via the spectral calculus.

    z = 0 gives the identity, z = -i the matrix itself, z = -i/2 the
    principal positive root.
    """
    w, v = herm_eig(a)
    if w[0] <= tol_pos:
        raise PreconditionError(
            f"not positive definite: min eigenvalue {w[0]:.3e} <= {tol_pos:.1e}"
        )
    phases = np.exp(1j * complex(z) * np.log(w))
    return (v * phases) @ dagger(v)


def is_unitary(u: np.ndarray):
    """||u u* - 1|| <= TOL_EQ max(1, ||u||^2): a bool, or one per matrix of a
    stack.  ``u`` is a square matrix or stack that ``as_square`` has already
    passed, or a product of such.  A matrix whose ``frobenius_bounds`` entry
    for u u* - 1 is within TOL_EQ passes without an SVD."""
    n = u.shape[-1]
    mats = u.reshape((-1, n, n))
    res = mats @ dagger(mats) - np.eye(n)
    ok = frobenius_bounds(res) <= TOL_EQ
    rest = ~ok
    if np.any(rest):
        ok[rest] = op_norms(res[rest]) <= TOL_EQ * np.maximum(1.0, op_norms(mats[rest]) ** 2)
    return ok.reshape(u.shape[:-2])[()]
