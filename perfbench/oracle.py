"""Output oracle for one CLI invocation of a benchmark workload.

A command passes when it exits 0, its report passes, it reports the same
set of check names as the first run of that command, and the summary
fields known by construction of the workload's instance have their
values.
"""

import json

# Summary fields each command reports that the instance construction fixes.
SUMMARY_FIELDS = {
    "check": ("group_order", "strong_qi"),
    "invariant": ("group_order", "strong_qi"),
    "implement": ("group_order", "strong_qi", "l2_dimension"),
    "expectation": ("group_order", "strong_qi", "fixed_algebra_dim"),
    "trace": ("group_order", "trace_weights"),
}


def expected_summary(workload) -> dict:
    return {
        "group_order": workload.group_order,
        "strong_qi": workload.strong,
        "l2_dimension": workload.l2_dimension,
        "fixed_algebra_dim": workload.fixed_algebra_dim,
        "trace_weights": [1.0] * len(workload.block_dims),
    }


def check_names(report: dict) -> list:
    return sorted(c["name"] for c in report.get("checks", []))


def problems(workload, command: str, exit_code: int, stdout: str,
             reference_names=None) -> list:
    """Everything wrong with one invocation; empty when it passes."""
    found = []
    if exit_code != 0:
        found.append(f"exit code {exit_code}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return found + ["report is not JSON"]
    if report.get("command") != command:
        found.append(f"report is for command {report.get('command')!r}")
    if report.get("pass") is not True:
        failing = [c["name"] for c in report.get("checks", [])
                   if c.get("asserted") and not c.get("pass")]
        found.append(f"report does not pass (failing: {', '.join(failing)})")
    if reference_names is not None and check_names(report) != reference_names:
        found.append("check names differ from the first run")
    summary = report.get("summary") or {}
    want = expected_summary(workload)
    for key in SUMMARY_FIELDS.get(command, ()):
        got = summary.get(key)
        if key == "trace_weights":
            ok = (isinstance(got, list) and len(got) == len(want[key])
                  and all(abs(w - 1.0) <= 1e-9 for w in got))
        else:
            ok = got == want[key] and type(got) is type(want[key])
        if not ok:
            found.append(f"summary {key} = {got!r}, expected {want[key]!r}")
    return found


def max_headroom(stdout: str) -> float:
    """Largest residual / threshold over the report's asserted checks."""
    report = json.loads(stdout)
    return max((c["residual"] / c["threshold"] for c in report["checks"]
                if c["asserted"] and c["threshold"] > 0), default=0.0)
