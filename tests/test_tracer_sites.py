"""The benchmark tracer wraps program functions by name; keep those names valid.

``bench/spans.py`` is read, never changed, here: a renamed function or
argument fails this test instead of a traced benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
TRACER_ONLY = "noqa: F401 -- the benchmark tracer wraps"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(path):
    mod_name, attr = path.split(":")
    owner = importlib.import_module(f"unionerm.{mod_name}")
    assert hasattr(owner, attr), f"{path} does not resolve"
    return getattr(owner, attr)


def _site_paths(spans):
    paths = [p for _, ps in spans.SPAN_SITES + spans.CALL_COUNTERS for p in ps]
    return paths + [p for _, p, _ in spans.ARG_COUNTERS] + list(spans.COUNT_BATCH_SITES)


def test_every_traced_site_resolves():
    for path in _site_paths(_spans()):
        assert callable(_resolve(path)), path


def test_counted_arguments_are_parameters():
    spans = _spans()
    for name, path, arg in spans.ARG_COUNTERS:
        if arg is not None:
            assert arg in inspect.signature(_resolve(path)).parameters, (name, path, arg)
    for path in spans.COUNT_BATCH_SITES:
        params = inspect.signature(_resolve(path)).parameters
        assert {"law", "n", "trials", "seed"} <= set(params), path


def test_tracer_only_imports_are_traced_sites():
    # a name that src/ imports only for the tracer must still be wrapped under
    # that name; otherwise the import outlives its site
    marked = []
    for path in sorted((ROOT / "src" / "unionerm").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                marked += [f"{path.stem}:{a.asname or a.name}" for a in node.names if TRACER_ONLY in lines[a.lineno - 1]]
    assert {"experiments:compute_bound_inputs", "experiments:thresholds_and_bounds"} <= set(marked)
    sites = set(_site_paths(_spans()))
    assert [m for m in marked if m not in sites] == []
