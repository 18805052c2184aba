"""The names that ``perfbench/tracer.py`` wraps still exist in ``qistate``.

The tracer puts a span on each function in its SPANNED table, counts the
calls of each in COUNTED, and counts checked element constructions by
wrapping ``AlgebraElement.__init__``.  A name it cannot find is listed as
missing only when the benchmark's own tests run, so these tests read the
two tables from the tracer's source with ``ast``, without importing it.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

from qistate.algebra import AlgebraElement

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_table(name: str) -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {TRACER}")


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_tracer_names_are_callables_of_their_modules(table):
    names = tracer_table(table)
    assert names
    for layer, functions in names.items():
        module = importlib.import_module(f"qistate.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"qistate.{layer}.{name}"


def test_element_constructor_is_a_plain_function():
    # the tracer replaces it with a counting wrapper and puts it back
    assert isinstance(vars(AlgebraElement)["__init__"], types.FunctionType)
