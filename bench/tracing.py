"""Span tracing of the deferral layers, installed from outside the package.

The traced run wraps every public module-level function of the layer modules
(plus the methods in ``METHODS``).  A function is replaced wherever callers
look it up: in its defining module and in every ``deferral`` module that
imported it by name, including aliases such as ``buffer_capacity``.  Each
wrapper records a span ``(op, span_id, parent_id, name, start, end)`` and a
call count; spans stay in memory and are written out once, at the end.
"""

import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "deferral"
LAYERS = ("profiles", "strategies", "buffer", "simulate", "population", "cli")

#: Public methods traced besides module-level functions, as
#: (layer, class, method).  Per-row methods such as ``SlotScheme.slot_of``
#: stay unwrapped: a span per log row would cost more than the row itself.
METHODS = (("population", "PopulationStudy", "write_csvs"),)

#: Name of the span the benchmark opens around each operation; its self
#: time is the part of the operation spent outside every traced function.
OP_SPAN = "op"

#: Traced functions whose arguments and results feed the counters below.
OBSERVED = (
    "population.read_records",
    "population.ingest",
    "population.write_csvs",
    "simulate.run_simulation",
    "simulate.empirical_vs_analytic",
)


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.observed: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._bindings = self._bind()

    def _wrap(self, name, fn):
        spans, calls, stack, ids = self.spans, self.calls, self._stack, self._ids
        observed = self.observed if name in OBSERVED else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, span_id, parent, name, start, end))
                calls[name] += 1
            if observed is not None:
                observed.append((name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _bind(self):
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        bindings = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for other_attr, obj in list(vars(other).items()):
                        if obj is fn:
                            bindings.append((other, other_attr, fn, wrapper))
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            fn = cls.__dict__[method]
            bindings.append((cls, method, fn, self._wrap(f"{layer}.{method}", fn)))
        return bindings

    @contextmanager
    def recording(self, op: int):
        """Install the wrappers and open the operation's root span."""
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        self.op = op
        span_id = next(self._ids)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((op, span_id, -1, OP_SPAN, start, end))
            for owner, attr, fn, _ in self._bindings:
                setattr(owner, attr, fn)

    def write(self, path, header: dict) -> None:
        """Write the header, the call counts and every span as JSON lines."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.write(json.dumps({"calls": dict(sorted(self.calls.items()))}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (overlapping children are counted once).
    """
    children = defaultdict(list)
    for _, span_id, parent, _, start, end in spans:
        children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for _, span_id, _, name, start, end in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


def observed_counts(observed) -> Counter:
    """Counters derived from the arguments and results of one operation's
    observed calls; run after the operation, outside its spans."""
    counts = Counter()
    users_seen = 0
    for name, args, kwargs, result in observed:
        if name == "population.read_records":
            records, row_errors = result
            counts["population.rows_read"] += len(records) + len(row_errors)
            counts["population.rows_rejected"] += len(row_errors)
            users_seen += len({rec.user_id for rec in records})
        elif name == "population.ingest":
            counts["population.users_kept"] += len(result)
        elif name == "population.write_csvs":
            counts["population.bytes_written"] += sum(Path(p).stat().st_size for p in result)
        elif name == "simulate.run_simulation":
            cfg = args[0] if args else kwargs["cfg"]
            counts["simulate.slot_steps"] += cfg.cycles * cfg.profile.n
        elif name == "simulate.empirical_vs_analytic":
            counts["simulate.flags"] += len(result.flags)
    if users_seen:
        counts["population.users_skipped"] = users_seen - counts["population.users_kept"]
    return counts
