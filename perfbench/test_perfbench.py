"""Tests of the benchmark itself: its inputs, its oracle and its tracing.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
import run
import tracer
import workloads
from qistate import cli

ROOT = Path(__file__).resolve().parent.parent

# Small instances of the two workload families: every command runs in
# well under a second, and the strong one takes the strong-only paths.
TINY = (
    replace(workloads.WORKLOADS["weyl5-suite"], name="weyl2", block_dims=(2,),
            group_order=4),
    replace(workloads.WORKLOADS["blocks2x5-strong"], name="blocks2x2",
            block_dims=(2, 2), fixed_algebra_dim=4),
)


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("instances")
    files = {}
    for w in TINY:
        path = base / f"{w.name}.json"
        path.write_text(workloads.instance_text(w, seed=3))
        files[w.name] = str(path)
    return files


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_traced(argv, spans_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tracer.main(["--spans", str(spans_path), "--", *argv])
    return code, out.getvalue(), json.loads(Path(spans_path).read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_instance_bytes(name):
    w = workloads.WORKLOADS[name]
    assert workloads.instance_text(w, 11) == workloads.instance_text(w, 11)
    assert workloads.instance_text(w, 11) != workloads.instance_text(w, 12)


def test_instances_have_the_stated_structure():
    for w in TINY:
        data = json.loads(workloads.instance_text(w, 5))
        desc, phi, gens, _, _ = cli.parse_instance(data)
        assert desc.dim == w.l2_dimension
        assert cli.close_group(gens).order == w.group_order


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_oracle_accepts_real_reports(w, tiny_files):
    for command in w.commands:
        code, stdout = run_cli([command, "--input", tiny_files[w.name]])
        names = oracle.check_names(json.loads(stdout))
        assert oracle.problems(w, command, code, stdout, names) == []


def test_oracle_flags_failing_check_wrong_order_and_names(tiny_files):
    w = TINY[0]
    code, stdout = run_cli(["check", "--input", tiny_files[w.name]])
    names = oracle.check_names(json.loads(stdout))

    failing = json.loads(stdout)
    failing["checks"][0].update({"pass": False, "asserted": True})
    failing["pass"] = False
    found = oracle.problems(w, "check", 1, json.dumps(failing), names)
    assert any("does not pass" in p for p in found)
    assert any("exit code 1" in p for p in found)

    wrong_order = json.loads(stdout)
    wrong_order["summary"]["group_order"] = w.group_order + 1
    found = oracle.problems(w, "check", code, json.dumps(wrong_order), names)
    assert found == [f"summary group_order = {w.group_order + 1}, "
                     f"expected {w.group_order}"]

    assert oracle.problems(w, "check", code, stdout, names[1:]) == [
        "check names differ from the first run"]
    assert oracle.problems(w, "check", code, "not json", names) == ["report is not JSON"]


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_traced_reports_are_byte_identical(w, tiny_files, tmp_path):
    for command in w.commands:
        argv = [command, "--input", tiny_files[w.name]]
        plain_code, plain = run_cli(argv)
        traced_code, traced, doc = run_traced(argv, tmp_path / "spans.json")
        assert (traced_code, traced) == (plain_code, plain)
        assert doc["spans"] and not doc["missing"]


def test_call_counts_repeat_across_traced_runs(tiny_files, tmp_path):
    w = TINY[1]
    runs = []
    for attempt in range(2):
        docs = []
        for i, command in enumerate(w.commands):
            spans = tmp_path / f"{attempt}-{command}.json"
            run_traced([command, "--input", tiny_files[w.name]], spans)
            docs.append(json.loads(spans.read_text()))
        runs.append(tracer.pass_metrics(docs, w.group_order))
    calls = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in runs]
    assert calls[0] == calls[1]
    assert calls[0]["cocycle.build_table.calls"] > 0
    assert calls[0]["expectation.fixed_algebra.calls"] > 0
    assert not hasattr(cli.build_table, "__wrapped__")   # bindings restored


def test_layer_times_subtract_nested_spans():
    names = ["cli.check", "cocycle.build_table", "actions.apply"]
    spans = [(0, 0.0, 10.0, -1, 0),
             (1, 1.0, 5.0, 0, 0),       # build_table, 4 s
             (1, 1.5, 3.5, 1, 0),       # nested build_table, not counted twice
             (2, 2.0, 3.0, 2, 0),       # apply inside it, 1 s
             (2, 6.0, 6.5, 0, 0)]       # apply called by the command, 0.5 s
    m = tracer.pass_metrics([{"names": names, "spans": spans, "counts": {}}], 4)
    assert m["cocycle.build_table_s"] == 4.0
    assert m["cocycle.self_s"] == 3.0
    assert m["actions.self_s"] == 1.5
    assert m["cocycle.build_table.calls"] == 2
    assert m["cocycle.build_table.per_cmd"] == 2.0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}


class FakeRunner:
    """Stands in for run.Runner on a fake clock: each command, plain or
    traced, prints its report and takes ``cost[command]`` seconds, and each
    reference run takes 1 s.  Each traced command writes a spans document
    whose primitive count is taken from ``counts`` in turn."""

    def __init__(self, workdir, reports, cost, counts=()):
        self.workdir, self.reports, self.cost = workdir, reports, cost
        self.counts, self.now = iter(counts), 0.0

    def cli(self, command, instance, tag):
        self.now += self.cost[command]
        return self.cost[command], 0, 50.0, self.reports[command]

    def reference(self):
        self.now += 1.0
        return 1.0

    def traced(self, command, instance, tag, cmd_id):
        spans = self.workdir / f"{tag}.spans.json"
        spans.write_text(json.dumps({
            "import_s": 0.5, "names": [f"cli.{command}"],
            "spans": [(0, 0.0, 1.0, -1, cmd_id)],
            "counts": {"matcore.as_square": next(self.counts)}, "missing": []}))
        return self.cli(command, instance, tag), spans


@pytest.fixture
def fake(tiny_files, tmp_path, monkeypatch):
    """A FakeRunner for the weyl2 instance with real reports, and the
    benchmark's clock set to the fake one."""
    def make(commands, cost, counts=(), edit=None):
        w = replace(TINY[0], commands=commands)
        reports = {}
        for c in commands:
            report = json.loads(run_cli([c, "--input", tiny_files[w.name]])[1])
            reports[c] = json.dumps(edit(report) if edit else report)
        runner = FakeRunner(tmp_path, reports, cost, counts)
        monkeypatch.setattr(run.time, "perf_counter", lambda: runner.now)
        return w, runner
    return make


def test_plain_loop_gives_the_time_after_the_last_pass_to_gated_commands(fake):
    w, runner = fake(("check", "invariant", "trace"),
                     {"check": 1.0, "invariant": 5.0, "trace": 1.0})
    # A pass takes 10 s with its references: two fit in 25 s, and the
    # last 5 s give check and trace one more sample each.
    samples, suites, _ = run.plain_loop(w, None, runner, run.Tally(w), 25.0, [1.0])
    assert {c: len(v) for c, v in samples.items()} == {"check": 3, "invariant": 2, "trace": 3}
    assert suites == [(7.0, 7.0), (7.0, 7.0)]
    assert run.GATED_COMMANDS == ("check", "trace")


def test_traced_loop_fails_when_call_counts_change(fake):
    # A pass (the command plain, then traced) takes 2 s: two fit in 4 s.
    w, runner = fake(("check",), {"check": 1.0}, counts=[7, 7])
    tally = run.Tally(w)
    layers, extra = run.traced_loop(w, None, runner, tally, 4.0)
    assert tally.failures == [] and extra["good_traced_passes"] == 2
    assert layers["matcore.as_square.calls"] == 7

    w, runner = fake(("check",), {"check": 1.0}, counts=[7, 8])
    tally = run.Tally(w)
    layers, extra = run.traced_loop(w, None, runner, tally, 4.0)
    assert tally.failures == ["traced pass: *.calls differ from the first pass"]
    assert layers["matcore.as_square.calls"] == 7


def test_traced_loop_drops_failing_commands(fake):
    def wrong_order(report):
        report["summary"]["group_order"] += 1
        return report
    w, runner = fake(("check",), {"check": 1.0}, counts=[7], edit=wrong_order)
    tally = run.Tally(w)
    layers, extra = run.traced_loop(w, None, runner, tally, 0.0)
    assert len(tally.failures) == 2 and extra["good_traced_passes"] == 0
    assert layers["matcore.as_square.calls"] == 0
