"""Every function defined in ``src/qistate`` is entered by some command.

The five instance commands run on the four bundled instances, and
``counterexample`` on a small grid, in process under ``sys.setprofile``.
Each function definition in the package's source must match the code
object of some call made on the way.  Code that only tests use lives
under ``tests/``; the few library functions that stay unreached are
listed in UNREACHED with their reasons.
"""

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

import qistate
from qistate.cli import EXIT_PASS, main

SRC = Path(qistate.__file__).resolve().parent
INSTANCES = Path(__file__).resolve().parent.parent / "instances"
INSTANCE_COMMANDS = ("check", "invariant", "implement", "expectation", "trace")

# perfbench/tracer.py puts a span on each of these and asserts that it
# finds every spanned name, so they stay although no command calls them.
UNREACHED = {
    "actions.inverse": "one element's inverse; commands read the group's inverse table",
    "cocycle.rn_cocycle": "one element's x_g; commands build all of them in build_table",
    "invariant.gamma_map": "one element's Gamma_g; the suites take the whole group at once",
    "invariant.cocycle_from_d": "the converse x_g = d g^-1(d^-1), which no report checks yet",
    "expectation.uniqueness_probe": "the uniqueness of Phi, which no report checks yet",
    "standard_form.u_g": "spanned by perfbench's tracer; dense test oracle",
    "standard_form.group_unitaries": "spanned by perfbench's tracer; dense test oracle",
}


def defined_functions() -> dict:
    """Dotted name -> (source file, first line of its code object) for each
    def and lambda in the package; a decorated def starts at its first
    decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[name] = (str(path), first)
                visit(child, path, name + ".")
            elif isinstance(child, ast.Lambda):
                found[f"{prefix}<lambda:{child.lineno}>"] = (str(path), child.lineno)
                visit(child, path, prefix)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return found


def entered_by_commands() -> set:
    """(resolved file, first line) of every Python code object called."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    runs = [[command, "--input", str(INSTANCES / name)]
            for name in sorted(os.listdir(INSTANCES)) for command in INSTANCE_COMMANDS]
    runs.append(["counterexample", "--grid-N", "301"])
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == EXIT_PASS, argv
    finally:
        sys.setprofile(previous)
    return {(str(Path(f).resolve()), line) for f, line in calls}


def test_every_function_is_reached_by_a_command():
    assert len(os.listdir(INSTANCES)) == 4
    entered = entered_by_commands()
    unreached = {name for name, where in defined_functions().items() if where not in entered}
    assert unreached == set(UNREACHED)
