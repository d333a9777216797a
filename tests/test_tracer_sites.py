"""The benchmark tracer wraps program functions by name; keep those names valid.

``bench/spans.py`` is read, never changed, here: a renamed function or
argument fails this test instead of a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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


def test_every_traced_site_resolves():
    spans = _spans()
    paths = [p for _, ps in spans.SPAN_SITES + spans.CALL_COUNTERS for p in ps]
    paths += [p for _, p, _ in spans.ARG_COUNTERS] + list(spans.COUNT_BATCH_SITES)
    for path in paths:
        assert callable(_resolve(path)), path


def test_counted_arguments_are_parameters():
    spans = _spans()
    for name, path, arg in spans.ARG_COUNTERS:
        if arg is not None:
            assert arg in inspect.signature(_resolve(path)).parameters, (name, path, arg)
    for path in spans.COUNT_BATCH_SITES:
        params = inspect.signature(_resolve(path)).parameters
        assert {"law", "n", "trials", "seed"} <= set(params), path
