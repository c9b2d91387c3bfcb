"""The span names the benchmark reads still name functions of the package.

`bench/launch.py` wraps every public function defined in a `viskey` module
as a span named `<module>.<function>`, and `bench/spans.py` reads spans by
those names. A metric whose function was renamed or deleted reads 0 without
an error; this test fails instead. It parses `bench/spans.py` rather than
importing it, so no benchmark code runs here.
"""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def span_names():
    """The values of WINDOW_MS and WINDOW_CALLS, and every string literal
    passed to `named(...)` or `of_roots(...)`."""
    names = set()
    for node in ast.walk(ast.parse(SPANS.read_text())):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in ("WINDOW_MS", "WINDOW_CALLS") for t in node.targets):
            names.update(ast.literal_eval(node.value).values())
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("named", "of_roots")
              and node.args and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
    return names


def test_span_names_are_public_functions():
    names = span_names()
    assert {"bitimage.downsample_majority", "ocr.normalize_glyph", "cas.authenticate"} <= names
    for name in names:
        if name.startswith("cas.verb."):  # roots of the wrapped request dispatcher
            continue
        # the read and write spans carry the PBM variant as a suffix
        module, _, func = name.removesuffix(".P1").removesuffix(".P4").partition(".")
        mod = importlib.import_module(f"viskey.{module}")
        fn = getattr(mod, func, None)
        assert (not func.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__), name
