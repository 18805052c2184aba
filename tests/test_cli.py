import collections
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qistate import cocycle, expectation, matcore, standard_form
from qistate.algebra import AlgebraElement
from qistate.analysis import Analysis
from qistate.cli import (EXIT_CHECK_FAILURE, EXIT_PASS, EXIT_PRECONDITION, EXIT_VALIDATION,
                         InstanceFormatError, main, matrix_to_json, parse_instance)
from generators import (graded_instance, instance_to_json, m2m2_swap_instance,
                        nonstrong_instance, qubit_instance, write_bundled_instances)

REPO_INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


@pytest.fixture(scope="module")
def qubit_file(tmp_path_factory):
    inst = qubit_instance()
    path = tmp_path_factory.mktemp("inst") / "qubit.json"
    path.write_text(json.dumps(instance_to_json(inst.phi, inst.generators)))
    return str(path)


def run_cli(argv):
    return main(argv)


def test_instance_roundtrip():
    inst = qubit_instance()
    data = instance_to_json(inst.phi, inst.generators)
    desc, phi, gens, tols, cap = parse_instance(json.loads(json.dumps(data)))
    assert desc.block_dims == (2,)
    assert (phi.density - inst.phi.density).op_norm() < 1e-15
    assert len(gens) == 1 and cap == 10000


def test_parse_rejects_bad_trace(qubit_file):
    data = json.load(open(qubit_file))
    data["state"]["density"][0][0][0] = [0.5, 0.0]
    with pytest.raises(InstanceFormatError, match="state.density"):
        parse_instance(data)


def test_parse_rejects_bad_entry(qubit_file):
    data = json.load(open(qubit_file))
    data["state"]["density"][0][0][1] = "oops"
    with pytest.raises(InstanceFormatError, match=r"state.density\[0\]\[0\]\[1\]"):
        parse_instance(data)


def test_parse_rejects_bad_generator(qubit_file):
    data = json.load(open(qubit_file))
    data["group"]["generators"][0]["perm"] = [0, 1]
    with pytest.raises(InstanceFormatError, match=r"group.generators\[0\].perm"):
        parse_instance(data)


def test_cmd_check_passes(qubit_file, capsys, tmp_path):
    out = str(tmp_path / "report.json")
    code = run_cli(["check", "--input", qubit_file, "--out", out])
    assert code == EXIT_PASS
    report = json.load(open(out))
    assert report["pass"] is True
    assert report["summary"]["lambda"] == pytest.approx(2.0)
    assert report["summary"]["group_order"] == 2
    assert report["summary"]["strong_qi"] is True
    assert all("law" in c and "residual" in c for c in report["checks"])


def test_cmd_check_invariant_state_lambda_one(tmp_path):
    # flip-invariant density: every cocycle is the identity, lambda = 1
    inst = qubit_instance()
    data = instance_to_json(inst.phi, inst.generators)
    data["state"]["density"][0] = [[[0.5, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [0.5, 0.0]]]
    path = tmp_path / "inv.json"
    path.write_text(json.dumps(data))
    out = str(tmp_path / "report.json")
    assert run_cli(["check", "--input", str(path), "--out", out]) == EXIT_PASS
    report = json.load(open(out))
    assert report["summary"]["lambda"] == pytest.approx(1.0)


def test_cmd_check_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    data = instance_to_json(qubit_instance().phi, qubit_instance().generators)
    data["state"]["density"][0][0][0] = [0.9, 0.0]
    bad.write_text(json.dumps(data))
    assert run_cli(["check", "--input", str(bad)]) == EXIT_VALIDATION
    assert "state.density" in capsys.readouterr().err


@pytest.mark.parametrize("path, keys, value", [
    ("state.density[0][1][1]", ("state", "density", 0, 1, 1), [float("nan"), 0.0]),
    ("group.generators[0].unitaries[0][0][1]",
     ("group", "generators", 0, "unitaries", 0, 0, 1), [0.0, float("inf")]),
])
def test_cmd_check_rejects_non_finite_entries(tmp_path, capsys, path, keys, value):
    # json writes and reads NaN and Infinity
    data = instance_to_json(qubit_instance().phi, qubit_instance().generators)
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run_cli(["check", "--input", str(bad)]) == EXIT_VALIDATION
    assert f"{path}: entry is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("keys, value, flags, path", [
    (("state",), [1.0], [], "state"),
    (("group",), "swap", [], "group"),
    (("group", "generators", 0), 5, [], "group.generators[0]"),
    (("tolerances",), [1e-9], [], "tolerances"),
    (("tolerances",), [], [], "tolerances"),
    (("tolerances",), 0, [], "tolerances"),
    (("tolerances",), False, [], "tolerances"),
    (("tolerances",), None, [], "tolerances"),
    (("state", "density", 0, 0, 0), [True, 0.0], [], "state.density[0][0][0]"),
    (("state", "density", 0, 0, 1), [0.0, False], [], "state.density[0][0][1]"),
    (("tolerances", "tol_eq"), "tight", [], "tolerances.tol_eq"),
    (("tolerances", "tol_eq"), float("nan"), [], "tolerances.tol_eq"),
    (("tolerances", "tol_eq"), 10 ** 400, [], "tolerances.tol_eq"),
    (("tolerances", "tol_pos"), -1e-10, [], "tolerances.tol_pos"),
    (("tolerances", "tol_pos"), float("inf"), [], "tolerances.tol_pos"),
    (("closure_cap",), "many", [], "closure_cap"),
    (("closure_cap",), 2.5, [], "closure_cap"),
    (("closure_cap",), 0, [], "closure_cap"),
    ((), None, ["--tol-eq", "nan"], "--tol-eq"),
    ((), None, ["--tol-eq", "-1"], "--tol-eq"),
    ((), None, ["--tol-pos", "inf"], "--tol-pos"),
    ((), None, ["--closure-cap", "0"], "--closure-cap"),
    ((), None, ["--seed", "-1"], "--seed"),
], ids=[
    "state-list", "group-string", "generator-number", "tolerances-list",
    "tolerances-empty-list", "tolerances-zero", "tolerances-false", "tolerances-null",
    "re-bool", "im-bool", "tol_eq-string",
    "tol_eq-nan", "tol_eq-huge-int", "tol_pos-negative", "tol_pos-inf", "closure_cap-string",
    "closure_cap-float", "closure_cap-zero", "flag-tol-eq-nan", "flag-tol-eq-negative",
    "flag-tol-pos-inf", "flag-closure-cap-zero", "flag-seed-negative",
])
def test_malformed_fields_and_flags_are_validation_errors(tmp_path, capsys, keys, value,
                                                          flags, path):
    # exit 2 naming the field, not a traceback (exit 1) or a closure that
    # never matches an element (negative tol_eq) or an ignored cap of 0, or
    # a negative seed that the generator would take for its absolute value,
    # a falsy value read as no tolerances, or a bool read as a number
    data = instance_to_json(qubit_instance().phi, qubit_instance().generators)
    if keys:
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run_cli(["check", "--input", str(bad)] + flags) == EXIT_VALIDATION
    assert f"validation error at {path}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("keys, value, path, message", [
    (("group", "generators", 0, "perm"), ["x", 0], "group.generators[0]", "not an integer"),
    (("group", "generators", 0, "perm"), [None, 0], "group.generators[0]", "not an integer"),
    (("group", "generators", 0, "perm"), [1.7, 0.2], "group.generators[0]", "not an integer"),
    (("group", "generators", 0, "perm"), [True, False], "group.generators[0]",
     "not an integer"),
    (("algebra", "block_dims"), [True, True], "algebra.block_dims", "positive integers"),
], ids=["perm-string", "perm-null", "perm-float", "perm-bool", "block_dims-bool"])
def test_non_integer_perms_and_dims_are_validation_errors(tmp_path, capsys, keys, value,
                                                          path, message):
    # exit 2 naming the field: not a traceback (exit 1), or a float or bool
    # read as an integer, which made [1.7, 0.2] the swap and [true, true]
    # the dims (1, 1)
    data = json.load(open(os.path.join(REPO_INSTANCES, "m2m2_swap.json")))
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run_cli(["check", "--input", str(bad)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"validation error at {path}: ") and message in err


@pytest.mark.parametrize("target, reason", [
    ("missing/report.json", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_unwritable_out_is_a_validation_error_after_the_report(qubit_file, tmp_path, capsys,
                                                                target, reason):
    # the report is printed first; the failed write then exits 2 naming --out
    out = str(tmp_path / target)
    assert run_cli(["check", "--input", qubit_file, "--out", out]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert json.loads(captured.out)["command"] == "check"
    assert captured.err == f"validation error at --out: cannot write {out} ({reason})\n"


@pytest.mark.parametrize("density, tols, code, message", [
    # min eigenvalue -5e-9: not PSD at the default tol_pos, and at 1e-8 PSD
    # but not faithful
    (np.diag([1 + 5e-9, -5e-9]), {}, EXIT_VALIDATION, "density is not PSD"),
    (np.diag([1 + 5e-9, -5e-9]), {"tol_pos": 1e-8}, EXIT_PRECONDITION,
     "state is not faithful"),
    # trace off by 2e-6: refused at the default tol_eq, accepted at 1e-5
    (np.diag([0.3, 0.7 + 2e-6]), {}, EXIT_VALIDATION, "density trace"),
    (np.diag([0.3, 0.7 + 2e-6]), {"tol_eq": 1e-5}, EXIT_PASS, ""),
], ids=["not-psd", "psd-within-tol_pos", "trace-off", "trace-within-tol_eq"])
def test_tolerance_flags_reach_the_state_validation(tmp_path, capsys, density, tols, code,
                                                     message):
    # a flag replaces the file's value before the state is validated, so a
    # tolerance acts the same given either way
    data = instance_to_json(qubit_instance().phi, qubit_instance().generators)
    data["state"]["density"] = [matrix_to_json(density)]
    data.pop("tolerances", None)
    by_flag = tmp_path / "by_flag.json"
    by_flag.write_text(json.dumps(data))
    by_file = tmp_path / "by_file.json"
    by_file.write_text(json.dumps(dict(data, tolerances=tols)))
    flags = [f for name, value in tols.items() for f in (f"--{name.replace('_', '-')}", str(value))]
    results = []
    for argv in (["--input", str(by_flag), *flags], ["--input", str(by_file)]):
        results.append(run_cli(["trace", *argv]))
        err = capsys.readouterr().err
        assert message in err and (message or err == "")
    assert results == [code, code]


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    (b'{"state": "\xe9"}', "cannot decode"),
], ids=["missing", "latin-1"])
def test_unreadable_input_is_a_validation_error(tmp_path, capsys, content, message):
    # exit 2 naming --input, not an uncaught OSError or UnicodeDecodeError (exit 1)
    path = tmp_path / "instance.json"
    if content is not None:
        path.write_bytes(content)
    assert run_cli(["check", "--input", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error at --input: " in err and message in err


@pytest.mark.parametrize("flags", [
    ["--grid-N", "0"], ["--grid-N", "-5"], ["--grid-R", "0"], ["--grid-R", "-1"],
    ["--grid-R", "nan"], ["--grid-R", "inf"],
])
def test_counterexample_grid_flags_are_validation_errors(capsys, flags):
    # exit 2 naming the flag, not a traceback (N < 1), chain rules checked on
    # the one sample s = 0 (R = 0, where each chain-rule grid collapses) or a
    # refusal of non-finite cocycle values (NaN)
    assert run_cli(["counterexample"] + flags) == EXIT_VALIDATION
    assert f"validation error at {flags[0]}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("radius, code", [("1e150", EXIT_PASS), ("1e200", EXIT_PRECONDITION)])
def test_counterexample_refuses_non_finite_cocycle_values(radius, code, capsys):
    # at R = 1e200, 1 + s^2 overflows and the cocycle values on the grid are
    # NaN, which would pass every chain rule and witness as a residual of 0
    assert run_cli(["counterexample", "--grid-R", radius, "--grid-N", "301"]) == code
    err = capsys.readouterr().err
    assert ("cocycle values are not finite on the" in err) == (code == EXIT_PRECONDITION)


def test_counterexample_refusal_is_the_only_stderr_line():
    # the overflow on the grid is refused by its result, with no numpy
    # RuntimeWarning printed before the refusal
    proc = subprocess.run(
        [sys.executable, "-m", "qistate.cli", "counterexample", "--grid-R", "1e160"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_PRECONDITION
    assert proc.stderr.splitlines() == [
        "precondition violation: cocycle values are not finite on the 1001-point grid "
        "of [-1e+160, 1e+160]"]


def test_cmd_check_precondition_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    data = instance_to_json(qubit_instance().phi, qubit_instance().generators)
    data["state"]["density"][0] = [[[1.0, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [0.0, 0.0]]]
    bad.write_text(json.dumps(data))
    assert run_cli(["check", "--input", str(bad)]) == EXIT_PRECONDITION
    assert "faithful" in capsys.readouterr().err


def test_cmd_invariant_serializes_outputs(qubit_file, tmp_path):
    out = str(tmp_path / "report.json")
    assert run_cli(["invariant", "--input", qubit_file, "--out", out]) == EXIT_PASS
    report = json.load(open(out))
    d = np.array([[complex(*e) for e in row] for row in report["summary"]["d"][0]])
    assert np.allclose(d, np.diag([1.5, 0.75]))
    rho_psi = np.array([[complex(*e) for e in row]
                        for row in report["summary"]["psi_density"][0]])
    assert np.allclose(rho_psi, np.eye(2) / 2)


def test_cmd_implement(qubit_file, tmp_path):
    out = str(tmp_path / "report.json")
    assert run_cli(["implement", "--input", qubit_file, "--out", out]) == EXIT_PASS
    report = json.load(open(out))
    assert report["summary"]["representation_deviation"] < 1e-12


def test_cmd_implement_nonstrong_reports_deviation(tmp_path):
    inst = nonstrong_instance()
    path = tmp_path / "ns.json"
    path.write_text(json.dumps(instance_to_json(inst.phi, inst.generators)))
    out = str(tmp_path / "report.json")
    assert run_cli(["implement", "--input", str(path), "--out", out]) == EXIT_PASS
    report = json.load(open(out))
    rep = [c for c in report["checks"] if c["name"] == "representation"][0]
    assert rep["asserted"] is False
    assert rep["residual"] > 1e-6          # recorded, not asserted


def test_cmd_expectation(qubit_file, tmp_path):
    out = str(tmp_path / "report.json")
    assert run_cli(["expectation", "--input", qubit_file, "--out", out]) == EXIT_PASS
    report = json.load(open(out))
    assert report["summary"]["fixed_algebra_dim"] == 2
    f0 = [c for c in report["checks"] if c["name"] == "f0_identity"][0]
    assert f0["pass"] and f0["residual"] < 1e-9


def test_cmd_trace(qubit_file, tmp_path):
    out = str(tmp_path / "report.json")
    assert run_cli(["trace", "--input", qubit_file, "--out", out]) == EXIT_PASS
    report = json.load(open(out))
    assert report["summary"]["trace_weights"] == [1.0]


def test_cmd_trace_non_ergodic_exits_3(tmp_path, capsys):
    # two blocks, inner-only action: center has a fixed projection
    inst = m2m2_swap_instance()
    data = instance_to_json(inst.phi, inst.generators)
    data["group"]["generators"][0]["perm"] = [0, 1]   # drop the swap
    path = tmp_path / "ne.json"
    path.write_text(json.dumps(data))
    assert run_cli(["trace", "--input", str(path)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "not unique" in err and "ergodic" in err


def test_cmd_counterexample(tmp_path):
    out = str(tmp_path / "report.json")
    assert run_cli(["counterexample", "--grid-N", "301", "--out", out]) == EXIT_PASS
    report = json.load(open(out))
    names = {c["name"] for c in report["checks"]}
    assert "translation_chain_rule" in names
    assert "unbounded_witness_t3" in names
    assert "axb_chain_rule" in names


def test_reports_are_deterministic(qubit_file, tmp_path):
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    run_cli(["check", "--input", qubit_file, "--seed", "7", "--out", out1])
    run_cli(["check", "--input", qubit_file, "--seed", "7", "--out", out2])
    assert open(out1).read() == open(out2).read()


def test_bundled_instances_pass_check(tmp_path):
    paths = write_bundled_instances(str(tmp_path / "bundle"))
    assert len(paths) == 4
    for p in paths:
        # the generators reproduce the files the repo ships
        with open(p) as made, open(os.path.join(REPO_INSTANCES, os.path.basename(p))) as shipped:
            assert made.read() == shipped.read()
        assert run_cli(["check", "--input", p]) == EXIT_PASS


def test_repo_ships_bundled_instances():
    for name in ("qubit.json", "c2_swap.json", "m2m2_swap.json",
                 "nonstrong_weyl3.json"):
        path = os.path.join(REPO_INSTANCES, name)
        assert os.path.exists(path), f"missing bundled instance {name}"
        parse_instance(json.load(open(path)))


def test_console_entry_point_env_logging(qubit_file):
    env = dict(os.environ, QISTATE_LOG="INFO")
    proc = subprocess.run(
        [sys.executable, "-m", "qistate.cli", "check", "--input", qubit_file],
        capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_PASS
    assert "closed group of order 2" in proc.stderr


def test_import_leaves_scipy_for_counterexample(qubit_file):
    # no command loads scipy: the Cauchy state is one numpy Gauss-Legendre
    # rule, and scipy is a test dependency only
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = (
        "import contextlib, io, sys, qistate.cli\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded on import'\n"
        f"for command in {INSTANCE_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert qistate.cli.main([command, '--input', {qubit_file!r}]) == 0, command\n"
        "code = qistate.cli.main(['counterexample', '--grid-N', '301'])\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
        "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_start_up_loads_neither_numpy_random_nor_logging():
    # probes come from the standard library, and logging is loaded only
    # under QISTATE_LOG
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {k: v for k, v in os.environ.items() if k != "QISTATE_LOG"}
    instances = [os.path.join(REPO_INSTANCES, name)
                 for name in ("m2m2_swap.json", "nonstrong_weyl3.json")]
    script = (
        "import contextlib, io, sys, qistate.cli\n"
        f"for path in {instances!r}:\n"
        "    for command in ('check', 'invariant', 'expectation', 'trace'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert qistate.cli.main([command, '--input', path]) == 0, command\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random loaded'\n"
        "assert 'logging' not in sys.modules, 'logging loaded'\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(env, PYTHONPATH=path))
    assert proc.returncode == EXIT_PASS, proc.stderr


EVERY_COMMAND = "{check,invariant,implement,expectation,trace,counterexample}"


@pytest.mark.parametrize("argv, code, listed", [
    (["-h"], EXIT_PASS, EVERY_COMMAND),
    ([], EXIT_VALIDATION, EVERY_COMMAND),
    (["frobnicate"], EXIT_VALIDATION, "(choose from 'check', 'invariant', 'implement', "
                                      "'expectation', 'trace', 'counterexample')"),
    # only the named command's subparser is built; the usage line still
    # names every command
    (["implement", "--input", "x.json", "--seed", "1"], EXIT_VALIDATION, EVERY_COMMAND),
])
def test_help_and_errors_name_every_command(argv, code, listed, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == code
    out = capsys.readouterr()
    assert listed in out.out + out.err


INSTANCE_COMMANDS = ("check", "invariant", "implement", "expectation", "trace")


def test_instance_tolerances_reach_every_command(tmp_path, capsys):
    # A faithful qubit state with min eigenvalue 5e-11: above the file's
    # tol_pos = 1e-12, below the default 1e-10.  Every command must use the
    # file's tolerances and so stop where check stops.
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    rho = q @ np.diag([1 - 5e-11, 5e-11]) @ q.conj().T
    shift, clock = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    data = {"algebra": {"block_dims": [2]},
            "state": {"density": [matrix_to_json(0.5 * (rho + rho.conj().T))]},
            "group": {"generators": [{"perm": [0], "unitaries": [matrix_to_json(u)]}
                                     for u in (shift, clock)]},
            "tolerances": {"tol_eq": 1e-5, "tol_pos": 1e-12}}
    path = tmp_path / "ill.json"
    path.write_text(json.dumps(data))
    for command in INSTANCE_COMMANDS:
        assert run_cli([command, "--input", str(path)]) == EXIT_PRECONDITION
        assert "cocycle element is numerically singular" in capsys.readouterr().err


# The graded conditioning family (``generators.graded_instance``): every
# command must pass, or refuse with an error that names the conditioning.
GRADED_M = (1e-2, 1e-3, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 1e-7, 1e-8, 1e-9)


@pytest.mark.parametrize("m, command", [pytest.param(m, command, id=f"{m:g}-{command}")
                                        for m in GRADED_M for command in INSTANCE_COMMANDS])
def test_nearly_singular_state_is_refused_as_singular(m, command, tmp_path, capsys):
    # Below m = 1e-5 some x_g = rho^-1 g^-1(rho) is ill-conditioned (at
    # m = 1e-9, cond(rho) = 6e8), and the refusal names that, not an
    # inconsistency, in every command and before any later artifact is built.
    path = tmp_path / "nearly_singular.json"
    path.write_text(json.dumps(graded_instance(m)))
    code = run_cli([command, "--input", str(path)])
    err = capsys.readouterr().err.strip()
    if m >= 1e-5:
        assert (code, err) == (EXIT_PASS, "")
    else:
        assert (code, err) == (EXIT_PRECONDITION,
                               "precondition violation: cocycle element is numerically singular")


@pytest.mark.parametrize("argv", [
    ["check", "--input", "x.json", "--grid-N", "5"],
    ["implement", "--input", "x.json", "--seed", "1"],
    ["counterexample", "--tol-eq", "1e-9"],
    ["invariant", "--input", "x.json", "--seed", "1"],
])
def test_flags_are_registered_only_where_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "expectation", "trace", "counterexample"])
def test_seed_is_validated_before_the_instance_is_read(command, tmp_path, capsys):
    # the input names no file, so a seed read after the instance would
    # report the missing file instead
    inputs = [] if command == "counterexample" else ["--input", str(tmp_path / "none.json")]
    assert run_cli([command, *inputs, "--seed", "-1"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error at --seed")


@pytest.mark.parametrize("command", INSTANCE_COMMANDS)
def test_each_artifact_is_built_once_per_command(command, monkeypatch, capsys):
    # Every binding of a builder in every loaded qistate module is replaced,
    # so a call by name from any module is counted.
    inst = m2m2_swap_instance()
    psi = Analysis(inst.phi, inst.group, matcore.TOL_EQ, matcore.TOL_POS).certificate.psi
    densities = [*inst.phi.density.blocks, *psi.density.blocks]
    calls, decomposed, herm_eig = collections.Counter(), [], matcore.herm_eig
    modules = [m for key, m in list(sys.modules.items())
               if key == "qistate" or key.startswith("qistate.")]
    for fn in (cocycle.build_table, cocycle.self_adjoint_check, cocycle.is_strongly_qi,
               expectation.fixed_algebra, expectation.e0_projection, standard_form.u_g,
               standard_form.group_unitaries, herm_eig):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            if _fn is herm_eig:
                decomposed.append(np.array(args[0]))
            return _fn(*args, **kwargs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    inv, inverted = AlgebraElement.inv, []

    def recorded_inv(x):
        inverted.append(x.blocks)
        return inv(x)
    monkeypatch.setattr(AlgebraElement, "inv", recorded_inv)
    path = os.path.join(REPO_INSTANCES, "m2m2_swap.json")
    assert run_cli([command, "--input", path]) == EXIT_PASS
    capsys.readouterr()
    # each block of rho and of rho_psi is decomposed at most once: the
    # states keep their spectra (the two blocks of rho_psi are equal)
    for b in densities:
        def same(m, b=b):
            return m.shape == b.shape and np.array_equal(m, b)
        assert sum(map(same, decomposed)) <= sum(map(same, densities))
    # rho is LU-inverted once, by the cocycle table
    rho = inst.phi.density.blocks
    assert sum(all(map(np.array_equal, blocks, rho)) for blocks in inverted) == 1
    assert calls["build_table"] == 1
    # one decision of strong quasi-invariance, which trace does not read
    assert calls["self_adjoint_check"] == (command != "trace")
    # the state is strong, and only check builds the consequence checks,
    # among them the |G|^2/2 commuting sweep
    assert calls["is_strongly_qi"] == (command == "check")
    assert calls["fixed_algebra"] == calls["e0_projection"] == (command == "expectation")
    # every law of U_g is taken on its block factors: no command builds it dense
    assert calls["group_unitaries"] == calls["u_g"] == 0


def test_strong_state_self_adjoint_to_roundoff_passes_every_command(tmp_path):
    # M_2 + M_2 with the block swap: x_g is self-adjoint to 3.8e-10, within
    # tol_eq, so the state is strongly quasi-invariant; no eigendecomposition
    # may then refuse x_g, a_g or d for a Hermiticity residual above 1e-10.
    data = json.load(open(os.path.join(REPO_INSTANCES, "m2m2_swap.json")))
    data["state"]["density"] = [matrix_to_json([[0.3, 1e-10], [1e-10, 0.2]]),
                                matrix_to_json(np.diag([0.15, 0.35]))]
    path = tmp_path / "strong.json"
    path.write_text(json.dumps(data))
    for command in INSTANCE_COMMANDS:
        out = tmp_path / f"{command}.json"
        assert run_cli([command, "--input", str(path), "--out", str(out)]) == EXIT_PASS
        report = json.load(open(out))
        if command == "check":
            checks = {c["name"]: c for c in report["checks"]}
            assert checks["self_adjoint"]["residual"] > 1e-10
        if command != "trace":    # the trace report has no strong flag
            assert report["summary"]["strong_qi"] is True


def test_self_adjoint_check_alone_decides_strong(tmp_path, capsys):
    # Weyl(3) on M_3 at rho = 1/3 + 1e-3 h: x_g is self-adjoint to 1.6e-4
    # and the x_g commute to 3.1e-4, so at tol_eq = 2.2e-4 the self_adjoint
    # check passes and pairwise_commuting fails.  The state reads strong in
    # every command, and check reports the failing consequence (exit 1).
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = h + h.conj().T
    rho = np.eye(3) / 3 + 1e-3 * (h - np.trace(h) / 3 * np.eye(3))
    shift, clock = np.roll(np.eye(3), 1, axis=0), np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    data = {"algebra": {"block_dims": [3]}, "state": {"density": [matrix_to_json(rho)]},
            "group": {"generators": [{"perm": [0], "unitaries": [matrix_to_json(u)]}
                                     for u in (shift, clock)]},
            "tolerances": {"tol_eq": 2.2e-4}}
    path = tmp_path / "hermitian_not_commuting.json"
    path.write_text(json.dumps(data))

    def run(command):
        out = tmp_path / f"{command}.json"
        code = run_cli([command, "--input", str(path), "--out", str(out)])
        return code, json.load(open(out))

    code, report = run("check")
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert code == EXIT_CHECK_FAILURE and report["summary"]["strong_qi"] is True
    assert [name for name, passed in checks.items() if not passed] == ["pairwise_commuting"]
    code, report = run("invariant")
    assert code == EXIT_PASS and report["summary"]["strong_qi"] is True
    assert "d_orbit_commutes" in {c["name"] for c in report["checks"]}
    capsys.readouterr()


@pytest.mark.parametrize("command", INSTANCE_COMMANDS)
def test_non_finite_intermediate_is_a_precondition_violation(tmp_path, capsys, command):
    # tol_pos = 0 admits a density eigenvalue of 1e-320, whose inverse
    # overflows: the cocycle entries are not finite, and the first norm
    # taken of them must refuse, not fail inside LAPACK.
    data = json.load(open(os.path.join(REPO_INSTANCES, "qubit.json")))
    data["state"]["density"] = [matrix_to_json(np.diag([1.0, 1e-320]))]
    data["tolerances"]["tol_pos"] = 0.0
    path = tmp_path / "denormal.json"
    path.write_text(json.dumps(data))
    assert run_cli([command, "--input", str(path)]) == EXIT_PRECONDITION
    assert "matrix has non-finite entries" in capsys.readouterr().err
