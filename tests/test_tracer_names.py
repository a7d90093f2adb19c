"""The benchmark tracer wraps functions of the package by name; a rename
or deletion in src/ must show here, not only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers() -> dict[str, tuple[str, ...]]:
    # Read, not import: importing would write bytecode under bench/.
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS assignment in bench/tracing.py")


def test_every_traced_name_is_a_callable_of_its_module():
    layers = _layers()
    assert layers
    for module, names in layers.items():
        mod = importlib.import_module(f"minorcolor.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"minorcolor.{module}.{name}"
