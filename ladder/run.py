"""Scale ladder: each instance command on instances from |G| = 2 to 40320.

    python3 ladder/run.py LABEL

Writes ``BENCH_<LABEL>.json`` at the repository root: machine facts, then
for each rung and command the wall time, exit code, peak RSS and the
SHA-256 of the stdout (``report_sha256``, the report; null on a timeout) of
one ``python -m qistate.cli`` process run on this checkout's ``src``.  Each
rung also has a ``closure`` row: a process that loads the instance and
closes its group, as every command does first, and nothing else.  Each
process is pinned to one CPU with BLAS threads 1, and runs under a
``TIMEOUT_S`` timeout; a process that outlives it is killed and recorded
as a timeout, with its time up to the kill.

``perfbench/reference.py``, a fixed job that tracks the machine's speed,
runs the same way before the first cell and after each one.  Each cell
records ``ref_s``, the mean of the reference times just before and just
after it, and ``wall_ref = wall_s / ref_s``: compare ladders on
``wall_ref``, which follows the machine's drift for cells of a second or
more.  Cells of about 0.15 s are mostly interpreter start-up, which
drifts differently from the reference, so re-run such a cell as
alternating pairs before calling it slower.  Two ladders run side by side,
one per CPU, distort the memory-bound cells: ``S_8`` ``invariant`` read
10.5 s in ``BENCH_26.json``, run beside another ladder, against 6.7-6.9 s
alone.  Compare large cells from ladders run alone, or from alternating
pairs.

The rungs, at seed 401 where random (densities from
``perfbench/workloads.py``, which is only imported; generators from
``tests/generators.py``):

- Weyl(n), n = 8, 10, 12, 16, 20, 24: shift and clock on M_n, generic
  state, |G| = n^2.
- k x M_d, (k, d) = (2, 8), (4, 6) and (2, 10): the cyclic shift of the
  blocks (``workloads.py``), diagonal state (strongly quasi-invariant),
  |G| = k.
- S_k on k x M_d, (k, d) = (5, 3), (6, 2), (7, 2) and (8, 2): one
  transposition and one k-cycle of the blocks, diagonal state, |G| = k!;
  S_8 at closure cap 50000.  Its ``check`` outlives the timeout, in the
  all-pairs commutation sweep of the strong case.
- Clifford(2 qubits): H x 1, S x 1, 1 x H, 1 x S and CNOT on M_4, generic
  state, |G| = 11520, closure cap 20000.
- The graded conditioning family (``generators.graded_instance``) at the
  ten values of m from 1e-2 to 1e-9: M_3 under Weyl(3), |G| = 9, with
  cond(rho) about 0.6/m.  Several of its cells exit 1 or 3; the exit code
  and the last stderr line record how.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
import workloads  # noqa: E402
from generators import (generators_to_json, graded_instance, inner_generator,  # noqa: E402
                        symmetric_generators)
from qistate.algebra import AlgebraDescriptor  # noqa: E402

SEED = 401
TIMEOUT_S = 300.0    # per process
# the part of every command that the closure row times on its own
CLOSURE = ("import sys; from qistate.actions import close_group; "
           "from qistate.cli import load_instance; "
           "(_, _, gens, tols, cap), _ = load_instance(sys.argv[1]); "
           "close_group(gens, cap=cap, tol=tols['tol_eq'])")
# row name -> the interpreter arguments before the instance path
ROWS = {"closure": ["-c", CLOSURE],
        **{c: ["-m", "qistate.cli", c, "--input"] for c in workloads.COMMANDS}}
BLAS_ONE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS")}


def weyl(n: int) -> dict:
    w = replace(workloads.WORKLOADS["weyl5-suite"], block_dims=(n,))
    return workloads.instance(w, SEED)


def blocks(k: int, d: int) -> dict:
    w = replace(workloads.WORKLOADS["blocks2x5-strong"], block_dims=(d,) * k)
    return workloads.instance(w, SEED)


def symmetric(k: int, d: int) -> dict:
    data = blocks(k, d)
    gens = symmetric_generators(AlgebraDescriptor((d,) * k))
    data["group"]["generators"] = generators_to_json(gens)
    return data


def clifford2() -> dict:
    data = weyl(4)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = np.diag([1, 1j])
    one = np.eye(2)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    gens = [np.kron(h, one), np.kron(s, one), np.kron(one, h), np.kron(one, s), cnot]
    desc = AlgebraDescriptor((4,))
    data["group"]["generators"] = generators_to_json(inner_generator(desc, 0, u) for u in gens)
    data["closure_cap"] = 20000
    return data


# name -> (instance data, N, |G|)
RUNGS = {
    **{f"weyl{n}": (lambda n=n: weyl(n), n * n, n * n) for n in (8, 10, 12, 16, 20, 24)},
    **{f"blocks{k}xM{d}": (lambda k=k, d=d: blocks(k, d), k * d * d, k)
       for k, d in ((2, 8), (4, 6), (2, 10))},
    "s5-5xM3": (lambda: symmetric(5, 3), 45, 120),
    "s6-6xM2": (lambda: symmetric(6, 2), 24, 720),
    "s7-7xM2": (lambda: symmetric(7, 2), 28, 5040),
    "s8-8xM2": (lambda: dict(symmetric(8, 2), closure_cap=50000), 32, 40320),
    "clifford2": (clifford2, 16, 11520),
    **{f"graded{m:g}": (lambda m=m: graded_instance(m), 9, 9)
       for m in (1e-2, 1e-3, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 1e-7, 1e-8, 1e-9)},
}


def run_one(argv, timeout: float, cpu: int) -> dict:
    """Run ``argv`` pinned to ``cpu``; wall time, exit code, peak RSS
    (``os.wait4``) and the SHA-256 of its stdout, or a timeout once
    ``timeout`` seconds have passed.  The stdout goes to a temporary file:
    a pipe could fill and stall the child while its exit is polled."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ONE_THREAD)
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.PIPE,
                                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.01)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)    # keeps Popen from reaping again
        err = proc.stderr.read().decode(errors="replace").strip()
        proc.stderr.close()
        out.seek(0)
        digest = None if timed_out else hashlib.sha256(out.read()).hexdigest()
    return {"wall_s": round(wall, 3), "exit_code": None if timed_out else proc.returncode,
            "timeout": timed_out, "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "stderr": err.splitlines()[-1] if err else "", "report_sha256": digest}


def reference(cpu: int) -> float:
    """Wall time of one pinned run of ``perfbench/reference.py``."""
    res = run_one([sys.executable, str(ROOT / "perfbench" / "reference.py")], TIMEOUT_S, cpu)
    if res["exit_code"] != 0:
        raise RuntimeError(f"reference process exited {res['exit_code']}: {res['stderr']}")
    return res["wall_s"]


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu_model": model, "cpus": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the output is BENCH_<label>.json")
    label = parser.parse_args(argv).label
    cpu = max(os.sched_getaffinity(0))
    runs, refs = [], [reference(cpu)]
    with tempfile.TemporaryDirectory() as tmp:
        for name, (build, dim, order) in RUNGS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(build(), sort_keys=True))
            for command, args in ROWS.items():
                res = run_one([sys.executable, *args, str(path)], TIMEOUT_S, cpu)
                refs.append(reference(cpu))
                ref_s = (refs[-2] + refs[-1]) / 2
                runs.append({"rung": name, "N": dim, "group_order": order,
                             "command": command, **res, "ref_s": round(ref_s, 3),
                             "wall_ref": round(res["wall_s"] / ref_s, 3)})
                print(f"{name:10s} {command:12s} {res['wall_s']:8.2f} s "
                      f"{res['wall_s'] / ref_s:7.2f} ref "
                      f"{res['peak_rss_mb']:8.1f} MB  exit {res['exit_code']}"
                      + ("  TIMEOUT" if res["timeout"] else ""), flush=True)
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps({"label": label, "seed": SEED, "timeout_s": TIMEOUT_S,
                               "cpu": cpu, "blas_threads": 1, "machine": machine(),
                               "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
