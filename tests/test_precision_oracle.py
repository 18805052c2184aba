"""The cocycle table's inverses and the polar factor v_g against a 50-digit
oracle on the graded conditioning family, where cond(rho) is 6e3 to 6e4.

The oracle takes the instance's floats as exact: rho as parsed, and each
group element's unitary u_g, with g^-1(y) = u_g* y u_g as ``predual``
reads it.  Then x_g^-1 = g^-1(rho)^-1 rho, and v_g is the unitary polar
factor of g^-1(rho^{-1/2}) rho^{1/2}.  Inverting x_g in double precision
misses x_g^-1 by a relative 1.3e-9 to 1.1e-7 here, and v_g taken from the
root of rho^{-1/2} g^-1(rho) rho^{-1/2} is not unitary to 1e-9.  Read by
the inverse formula, x_g^-1 is off by a relative 4.5e-13 to 5.2e-12; the
polar factor v_g is off by 1.6e-13 to 1.4e-12.
"""

import numpy as np
import pytest

from qistate.actions import close_group
from qistate.analysis import Analysis
from qistate.cli import parse_instance
from generators import graded_instance

mpmath = pytest.importorskip("mpmath")

FORWARD_ERROR = 1e-10


def to_mp(a):
    return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])


def to_numpy(m):
    return np.array([[complex(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])


def mp_power(h, p):
    """h^p for a Hermitian positive definite mp matrix h."""
    w, q = mpmath.eighe(h)
    return q * mpmath.diag([mpmath.power(x, p) for x in w]) * q.transpose_conj()


def distance(computed, exact):
    return float(np.linalg.norm(computed - to_numpy(exact), 2))


@pytest.mark.parametrize("m", [1e-4, 3e-5, 1e-5])
def test_inverses_and_polar_factors_match_a_50_digit_oracle(m):
    _, phi, gens, tols, cap = parse_instance(graded_instance(m))
    an = Analysis(phi, close_group(gens, cap=cap, tol=tols["tol_eq"]),
                  tols["tol_eq"], tols["tol_pos"])
    inverses, v = an.table.inverses, an.factors[1]
    with mpmath.workdps(50):
        rho = to_mp(phi.density.blocks[0])
        root, root_inv = mp_power(rho, mpmath.mpf(1) / 2), mp_power(rho, -mpmath.mpf(1) / 2)
        for k, u in enumerate(an.group.elements.unitaries[0]):
            u = to_mp(u)

            def pre(y):
                return u.transpose_conj() * y * u

            x_inv = mpmath.inverse(pre(rho)) * rho
            assert (distance(inverses.blocks[0][k], x_inv)
                    <= FORWARD_ERROR * np.linalg.norm(to_numpy(x_inv), 2)), k
            left, _, right = mpmath.svd_c(pre(root_inv) * root)
            assert distance(v.blocks[0][k], left * right) <= FORWARD_ERROR, k
