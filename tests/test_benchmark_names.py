"""The functions that the benchmark's per-layer metrics name must exist.

`perfbench/run.py --trace 1` wraps every public function of its traced
modules and refuses to run ("no rule computes the per-layer metric") when a
metric of BENCHMARK.json names one that is gone.  This test fails first.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_py_literal(name: str):
    """The literal assigned to `name` at the top level of perfbench/run.py."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"perfbench/run.py assigns no {name}")


def _traced_functions() -> list[tuple[str, str]]:
    """(module, function) of every per-layer metric `<module>.<function>.<field>`
    whose module the tracer wraps and whose field the tracer records."""
    modules = ast.literal_eval(_run_py_literal("TRACED_MODULES"))
    fields = {key.value for key in _run_py_literal("FIELDS").keys}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = []
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[0] in modules and parts[2] in fields:
            named.append((parts[0], parts[1]))
    return sorted(set(named))


def test_the_tracer_fields_are_known():
    fields = {key.value for key in _run_py_literal("FIELDS").keys}
    assert {"calls", "busy_s", "self_s", "sources", "records", "connected_ratio"} <= fields


@pytest.mark.parametrize("module, function", _traced_functions(),
                         ids=[".".join(mf) for mf in _traced_functions()])
def test_named_function_is_public(module, function):
    mod = importlib.import_module(f"periwiener.{module}")
    fn = getattr(mod, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, (
        f"BENCHMARK.json names {module}.{function}, which periwiener.{module} does not define")
