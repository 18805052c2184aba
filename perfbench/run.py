"""Benchmark of the qistate command-line verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is one generated
instance (see workloads.py and NOTES.md) pushed through a fixed sequence of
``qistate <command> --input FILE`` invocations.  Every invocation is a
fresh process, started only after the previous one exits (a closed loop
with one client), with the BLAS thread count pinned.  Every report is
checked by the oracle; a failing invocation counts in ``failed`` and its
time is not used.

``--trace 0`` repeats the sequence for about ``--seconds`` and reports the
end-to-end metrics.  Command times are reported in multiples of the time
of reference.py, run between consecutive commands, because the speed of a
shared machine drifts by more than the bounds within minutes; the record
line keeps the times in seconds too.  ``--trace 1`` runs each command
plain and then under tracer.py, and reports the per-layer metrics in
seconds and counts.  The last stdout
line is the result object; the line before it records the environment
and the sample counts.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = 1         # pinned in every child process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# What the installed ``qistate`` script runs (tracer.py calls the same main).
CLI_CODE = "import sys; from qistate.cli import main; sys.exit(main())"
HARD_LIMIT_S = 170.0     # every child is killed once the run gets this old
E2E_UNITS = {"setup_s": "s", "setup_ref": "ref", "suite_ref": "ref",
             "cmd.check_ref": "ref", "cmd.trace_ref": "ref", "peak_rss_mb": "MB"}
# Commands with a cmd.<name>_ref metric; every workload runs them.
GATED_COMMANDS = tuple(k[len("cmd."):-len("_ref")] for k in E2E_UNITS if k.startswith("cmd."))
LAYER_UNITS = {"cli.import_s": "s", **tracer.metric_units(),
               "reporting.max_headroom": "ratio", "bench.trace_overhead_s": "s",
               "machine.calib_s": "s"}


class SetupError(RuntimeError):
    """The checkout cannot run the workload; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("QISTATE_LOG", None)
    return env


class Runner:
    """Starts one child at a time and measures it from spawn to exit."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.kill_at = started + HARD_LIMIT_S
        self.env = child_env()

    def invoke(self, argv, tag: str):
        """Returns (wall seconds, exit code, peak RSS in MB, stdout text)."""
        out_path = self.workdir / f"{tag}.out"
        with open(out_path, "wb") as out, open(self.workdir / f"{tag}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(0.0, self.kill_at - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text()

    def reference(self) -> float:
        """Wall time of one run of reference.py."""
        wall, code, _, _ = self.invoke([str(BENCH / "reference.py")], "reference")
        if code != 0:
            raise SetupError(f"reference process exited {code}")
        return wall

    def cli(self, command: str, instance: Path, tag: str):
        return self.invoke(["-c", CLI_CODE, command, "--input", str(instance)], tag)

    def traced(self, command: str, instance: Path, tag: str, cmd_id: int):
        spans = self.workdir / f"{tag}.spans.json"
        result = self.invoke([str(BENCH / "tracer.py"), "--spans", str(spans),
                              "--cmd-id", str(cmd_id), "--",
                              command, "--input", str(instance)], tag)
        return result, spans


def environment(seed: int, calib_s: float, cpu: int) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "machine.calib_s": calib_s,
    }


def set_up(workload, seed: int, runner: Runner) -> Path:
    """Writes the instances and runs the untimed warm-up invocation."""
    instance = runner.workdir / "instance.json"
    instance.write_text(workloads.instance_text(workload, seed))
    warm = runner.workdir / "warmup.json"
    warm.write_text(workloads.instance_text(workloads.WARMUP, seed))
    _, code, _, _ = runner.cli("check", warm, "warmup")
    if code != 0:
        err = (runner.workdir / "warmup.err").read_text().strip().splitlines()
        raise SetupError(f"warm-up invocation exited {code}: {err[-1] if err else ''}")
    return instance


class Tally:
    """Oracle verdicts over every invocation of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.first_names = {}
        self.attempted = 0
        self.failures = []

    def judge(self, command: str, code: int, stdout: str, extra=()) -> bool:
        self.attempted += 1
        try:
            names = oracle.check_names(json.loads(stdout))
        except json.JSONDecodeError:
            names = None
        self.first_names.setdefault(command, names)
        found = oracle.problems(self.workload, command, code, stdout,
                                self.first_names[command]) + list(extra)
        if found:
            self.failures.append(f"{command}: {'; '.join(found)}")
        return not found


def plain_loop(workload, instance: Path, runner: Runner, tally: Tally, seconds: float,
               refs: list):
    """Closed loop over the command sequence for about ``seconds``.

    The reference process runs between consecutive commands, and each
    command's time is also reported over the mean of the two reference
    times around it.  A pass's time is the sum of its commands' times.
    A pass starts only if it would still end before the deadline, should
    it take as long as the previous pass.  The time left after the last
    pass goes to more samples of the commands that have a metric of their
    own (``GATED_COMMANDS``), in turn, each started only if its previous
    duration and a reference run still fit.
    """
    samples = {c: [] for c in workload.commands}
    suites, peak_rss, last, pass_s = [], 0.0, {}, 0.0
    deadline = time.perf_counter() + seconds
    while True:
        pass_start = time.perf_counter()
        full = not last or pass_start + pass_s <= deadline
        done = []
        for cmd in workload.commands if full else GATED_COMMANDS:
            if not full and time.perf_counter() + last[cmd] + refs[-1] > deadline:
                continue
            wall, code, rss, stdout = runner.cli(cmd, instance, cmd)
            refs.append(runner.reference())
            done.append((cmd, wall, wall / ((refs[-2] + refs[-1]) / 2), code, rss, stdout))
        ok = True
        for cmd, wall, ratio, code, rss, stdout in done:
            last[cmd] = wall
            if tally.judge(cmd, code, stdout):
                samples[cmd].append((wall, ratio))
                peak_rss = max(peak_rss, rss)
            else:
                ok = False
        if not done:
            return samples, suites, peak_rss
        if full:
            pass_s = time.perf_counter() - pass_start
            if ok:
                suites.append((sum(d[1] for d in done), sum(d[2] for d in done)))


def traced_loop(workload, instance: Path, runner: Runner, tally: Tally, seconds: float):
    """Passes over the command sequence for about ``seconds`` (at least one),
    running each command plain and then traced, back to back, so that the
    tracing overhead is measured over seconds, not over a drifting pass.

    Only passes in which every plain and traced command passed the oracle
    give per-layer numbers.  The ``*.calls`` counts must repeat exactly in
    every such pass; a pass whose counts differ from the first counts as a
    failure.
    """
    plain_walls, traced_walls, per_pass, imports, headroom = [], [], [], [], 0.0
    command_s = {c: [] for c in workload.commands}
    deadline = time.perf_counter() + seconds
    while True:
        pass_start, plain_wall, traced_wall, loaded = time.perf_counter(), 0.0, 0.0, {}
        for i, cmd in enumerate(workload.commands):
            wall, code, _, plain = runner.cli(cmd, instance, cmd)
            plain_ok = tally.judge(cmd, code, plain)
            plain_wall += wall
            (wall, code, _, stdout), spans = runner.traced(cmd, instance, f"{cmd}.traced", i)
            traced_wall += wall
            extra = [] if stdout == plain else ["traced report differs from untraced"]
            if not spans.exists():
                extra.append("no spans written")
            if tally.judge(cmd, code, stdout, extra) and plain_ok:
                headroom = max(headroom, oracle.max_headroom(stdout))
                loaded[cmd] = json.loads(spans.read_text())

        if len(loaded) == len(workload.commands):
            plain_walls.append(plain_wall)
            traced_walls.append(traced_wall)
            for cmd, doc in loaded.items():
                imports.append(doc["import_s"])
                _, start, end, _, _ = doc["spans"][0]     # the command's own span
                command_s[cmd].append(end - start)
            metrics = tracer.pass_metrics(loaded.values(), workload.group_order)
            tally.attempted += 1      # the count check is one more verdict
            if per_pass and _calls(metrics) != _calls(per_pass[0]):
                tally.failures.append("traced pass: *.calls differ from the first pass")
            else:
                per_pass.append(metrics)
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            break
    if not per_pass:
        per_pass.append(tracer.pass_metrics((), workload.group_order))
    layers = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    layers["cli.import_s"] = statistics.median(imports) if imports else 0.0
    layers["reporting.max_headroom"] = headroom
    layers["bench.trace_overhead_s"] = statistics.median(
        [t - p for t, p in zip(traced_walls, plain_walls)] or [0.0])
    return layers, {"plain_pass_s": plain_walls, "traced_pass_s": traced_walls,
                    "traced_command_s": command_s, "good_traced_passes": len(traced_walls)}


def _calls(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(".calls")}


def high_percentile(values):
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(values, n=100)[q - 1]
    return None


def summarize(samples) -> dict:
    """Sample count, medians and (when there are enough samples) a high
    percentile of (seconds, reference multiples) pairs."""
    out = {"samples": len(samples)}
    for i, unit in enumerate(("s", "ref")):
        values = [pair[i] for pair in samples]
        if values:
            out[f"median_{unit}"] = statistics.median(values)
            hp = high_percentile(values)
            if hp:
                out[f"{hp[0]}_{unit}"] = hp[1]
    return out


def median_ref(samples) -> float:
    return statistics.median(pair[1] for pair in samples) if samples else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qistate CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    workload = workloads.WORKLOADS[args.workload]
    # One CPU for this process and every child: on a shared machine the
    # CPUs run at different speeds, and a process landing on one or the
    # other would add that difference to every sample.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        if not (ROOT / "src" / "qistate" / "cli.py").is_file():
            raise SetupError(f"no qistate sources under {ROOT / 'src'}")
        workdir = ROOT / ".perfbench" / workload.name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        runner = Runner(workdir, started)
        # The reference process runs before and after each set-up, so that
        # set-up time is also reported in reference units (setup_ref).
        refs, setups, setup_refs = [runner.reference()], [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            instance = set_up(workload, args.seed, runner)
            setups.append(time.perf_counter() - start)
            refs.append(runner.reference())
            setup_refs.append(setups[-1] / ((refs[-2] + refs[-1]) / 2))
    except (SetupError, OSError) as exc:
        print(f"perfbench: cannot set up {workload.name}: {exc}", file=sys.stderr)
        return 2

    tally = Tally(workload)
    record = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
              "setup_s": setups, "setup_ref": setup_refs, "loop": "closed, one client, one process at a time"}
    if args.trace:
        layers, extra = traced_loop(workload, instance, runner, tally, args.seconds)
        record.update(extra)
        layers["machine.calib_s"] = statistics.median(refs)
        metrics = {k: {"value": float(layers[k]), "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        samples, suites, peak_rss = plain_loop(workload, instance, runner, tally,
                                               args.seconds, refs)
        record["commands"] = {c: summarize(v) for c, v in samples.items()}
        record["suite"] = summarize(suites)
        values = {"setup_s": statistics.median(setups),
                  "setup_ref": statistics.median(setup_refs), "suite_ref": median_ref(suites),
                  "peak_rss_mb": peak_rss,
                  **{f"cmd.{c}_ref": median_ref(samples[c]) for c in GATED_COMMANDS}}
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    record["reference_s"] = refs
    record["env"] = environment(args.seed, statistics.median(refs), cpu)
    failed = len(tally.failures)
    record["failed_frac"] = failed / max(1, tally.attempted)
    record["failures"] = tally.failures[:10]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
