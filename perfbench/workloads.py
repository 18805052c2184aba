"""Workload instances for the qistate CLI benchmark.

Instances are generated here with numpy alone and written in the CLI's
instance format (complex entries as [re, im] pairs), so the inputs depend
only on the workload and the seed, never on the code under test.  The
workload table also states the report facts known by construction, which
the oracle checks.
"""

import json
from dataclasses import dataclass

import numpy as np

COMMANDS = ("check", "invariant", "implement", "expectation", "trace")


@dataclass(frozen=True)
class Workload:
    name: str
    block_dims: tuple        # the algebra: one M_n block per entry
    commands: tuple          # CLI commands run, in this order, per instance
    group_order: int
    strong: bool             # is the generated state strongly quasi-invariant?
    fixed_algebra_dim: int   # dim B of the fixed-point algebra
    why: str

    @property
    def l2_dimension(self) -> int:
        return sum(n * n for n in self.block_dims)


WORKLOADS = {w.name: w for w in (
    Workload("weyl5-suite", (5,), COMMANDS, 25, False, 1,
             "Weyl(5) on M_5, generic state: |G|^2 group sweeps, mainly the "
             "Gamma suite in invariant; the non-strong branches run"),
    Workload("blocks2x5-strong", (5, 5), COMMANDS, 2, True, 25,
             "cyclic swap on M_5+M_5, diagonal state: the expectation layer and "
             "the strong-only paths dominate; group layers nearly idle"),
    Workload("weyl8-closure", (8,), ("check", "trace"), 64, False, 1,
             "Weyl(8) on M_8, generic state: group closure and the |G|^2 "
             "chain-rule sweep dominate check and trace"),
)}

# Tiny instance run once, untimed, in every set-up: it compiles and pages in
# the package and its imports, so that no timed process pays for a cold
# start.
WARMUP = Workload("warmup", (2,), ("check",), 4, False, 1, "set-up warm-up")


def _pair(z) -> list:
    return [float(z.real), float(z.imag)]


def _matrix_json(m) -> list:
    return [[_pair(z) for z in row] for row in m]


def _random_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _weyl_generators(n: int) -> list:
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    return [{"perm": [0], "unitaries": [_matrix_json(u)]} for u in (shift, clock)]


def _cyclic_generators(k: int, n: int) -> list:
    return [{"perm": [(j + 1) % k for j in range(k)],
             "unitaries": [_matrix_json(np.eye(n, dtype=complex))] * k}]


def _densities(rng, block_dims, diagonal: bool) -> list:
    """Faithful density blocks with eigenvalues bounded away from zero;
    diagonal blocks give a strongly quasi-invariant state under a block
    permutation, a random eigenbasis a generic one."""
    p = 0.05 + rng.random(sum(block_dims))
    p /= p.sum()
    blocks, ofs = [], 0
    for n in block_dims:
        rho = np.diag(p[ofs:ofs + n]).astype(complex)
        if not diagonal:
            w = _random_unitary(rng, n)
            rho = w @ rho @ np.conj(w.T)
            rho = 0.5 * (rho + np.conj(rho.T))
        blocks.append(rho)
        ofs += n
    return blocks


def instance(workload: Workload, seed: int) -> dict:
    """The workload's instance for ``seed``, as CLI instance JSON data."""
    rng = np.random.default_rng(seed)
    dims = workload.block_dims
    if len(dims) == 1:
        gens = _weyl_generators(dims[0])
    else:
        gens = _cyclic_generators(len(dims), dims[0])
    blocks = _densities(rng, dims, diagonal=workload.strong)
    return {
        "algebra": {"block_dims": list(dims)},
        "state": {"density": [_matrix_json(b) for b in blocks]},
        "group": {"generators": gens},
    }


def instance_text(workload: Workload, seed: int) -> str:
    return json.dumps(instance(workload, seed), sort_keys=True) + "\n"
