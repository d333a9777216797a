"""In-memory span tracer that wraps the program's public functions.

Nothing in ``src/`` knows about it: ``Tracer.install`` replaces a public
function in the namespace where its caller looks it up (for example
``experiments.sample_dataset``, which ``run_trials`` calls, or
``bounds.iter_count_batches``) and ``uninstall`` puts the original back, so
untraced rounds run the unmodified program.

A span is (span id, parent span id, operation id, layer name, start, end),
with times relative to the tracer's creation.  A layer's self time is the
sum over its spans of duration minus the time covered by child spans.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
from collections import Counter, defaultdict

# (layer name, module attribute paths to wrap)
# A path is "module:attribute".  Wrapping the same function under two lookup
# sites records one span per call, because each call goes through exactly
# one of them.
SPAN_SITES = [
    ("cli.load_config", ["cli:load_config"]),
    ("cli.write", ["cli:write_json", "cli:write_csv", "cli:_write_text",
                   "svgplot:line_chart", "svgplot:bar_chart"]),
    ("model.sample_dataset", ["experiments:sample_dataset"]),
    ("model.validate_collection", ["population:validate_collection"]),
    ("population.profile", ["population:profile", "cli:build_profile"]),
    ("population.excess_risk", ["experiments:excess_risk"]),
    ("erm.solve", ["erm:solve"]),
    ("experiments.run_trials", ["experiments:run_trials"]),
    ("experiments.gaussian_limit", ["experiments:sample_gaussian_limit"]),
    ("processes.snapshot", ["experiments:process_snapshot"]),
    ("processes.expected_sup", ["bounds:expected_sup", "localization:expected_sup"]),
    ("bounds.quadratic_form_variance_sup", ["bounds:quadratic_form_variance_sup"]),
    ("bounds.class_moments", ["bounds:class_moments"]),
    ("bounds.compute_bound_inputs", ["cli:compute_bound_inputs", "experiments:compute_bound_inputs"]),
    ("bounds.thresholds_and_bounds", ["cli:thresholds_and_bounds", "experiments:thresholds_and_bounds"]),
    ("localization.choose_k", ["localization:choose_k"]),
]

# (counter name, paths): every call adds one, no span is recorded
CALL_COUNTERS = [
    ("erm.fit_linear_calls", ["erm:fit_linear"]),
    ("localization.iterate_calls", ["localization:iterate", "experiments:iterate"]),
    # a complexity value that is not cached calls one of these two
    ("localization.complexity_misses", ["localization:explicit_complexity", "localization:expected_sup"]),
]

# (counter name, path, argument summed over calls)
ARG_COUNTERS = [
    ("model.sample_dataset_calls", "experiments:sample_dataset", None),
    ("model.rows_sampled", "experiments:sample_dataset", "n"),
    ("experiments.trials_run", "experiments:run_trials", "trials"),
]

COUNT_BATCH_SITES = ["bounds:iter_count_batches", "processes:iter_count_batches"]

TIME_LAYERS = [name for name, _ in SPAN_SITES] + ["processes.count_batches"]
COUNTS = [name for name, _ in CALL_COUNTERS] + [name for name, _, _ in ARG_COUNTERS] + [
    "processes.count_rows_drawn",
    "processes.count_rows_distinct",
]


class Tracer:
    """Spans and counters for the rounds it is installed for."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []
        self.op: tuple | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        self.reset_round()

    # -- round bookkeeping -------------------------------------------------

    def reset_round(self) -> None:
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._streams: set = set()

    def round_metrics(self) -> dict:
        out = {f"{name}_s": self.self_time.get(name, 0.0) for name in TIME_LAYERS}
        out.update({name: int(self.counts.get(name, 0)) for name in COUNTS})
        return out

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        sid, parent, name, start, child = self._stack.pop()
        dur = end - start
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        self.spans.append((sid, parent, self.op, name, start - self.t0, end - self.t0))

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _arg_wrapper(self, fn, counters: list[tuple[str, str | None]]):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            for name, arg in counters:
                self.counts[name] += 1 if arg is None else int(bound[arg])
            return fn(*args, **kwargs)

        return wrapper

    def _count_batches_wrapper(self, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            weights = a["law"].weights
            stream = (hashlib.sha1(weights.tobytes()).hexdigest(), int(a["n"]), int(a["trials"]), int(a["seed"]))
            fresh = stream not in self._streams
            self._streams.add(stream)
            batches = fn(*args, **kwargs)
            while True:
                # the time to draw a batch is spent inside next()
                self.enter("processes.count_batches")
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counts["processes.count_rows_drawn"] += batch.shape[0]
                if fresh:
                    self.counts["processes.count_rows_distinct"] += batch.shape[0]
                yield batch

        return wrapper

    def _patch(self, path: str, make) -> None:
        mod_name, attr = path.split(":")
        owner = self.modules[mod_name]
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every site.  Counters wrap innermost, spans outermost."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        arg_sites: dict[str, list] = defaultdict(list)
        for name, path, arg in ARG_COUNTERS:
            arg_sites[path].append((name, arg))
        for path, counters in arg_sites.items():
            self._patch(path, lambda fn, c=counters: self._arg_wrapper(fn, c))
        for name, paths in CALL_COUNTERS:
            for path in paths:
                self._patch(path, lambda fn, n=name: self._count_wrapper(fn, n))
        for path in COUNT_BATCH_SITES:
            self._patch(path, self._count_batches_wrapper)
        for name, paths in SPAN_SITES:
            for path in paths:
                self._patch(path, lambda fn, n=name: self._span_wrapper(fn, n))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str, summary: dict) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "span_fields": ["id", "parent", "op", "layer", "start_s", "end_s"],
                    "summary": summary,
                    "spans": self.spans,
                },
                f,
                separators=(",", ":"),
            )
