"""In-memory spans around the public calls of the ecuindex package.

The benchmark's traced run installs a wrapper on every public function it
may time: the functions in ``ecuindex.__all__``, the public functions of
``ecuindex.pipeline`` and the public readers and writers of
``ecuindex.panelio``.  A wrapper replaces the function wherever a module of
the package holds it, so calls the CLI and the pipeline make internally are
timed too.  No ``_``-prefixed function is wrapped or called.

Spans made inside a worker process of a process pool stay in that process
and are lost; the benchmark takes per-firm numbers from a workers=1 run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

# extra fields a span records from the wrapped call's return value
ANNOTATE = {
    "hmm.em_fit": lambda r: {"e_steps": len(r.loglik_trace), "converged": bool(r.converged)},
    "pipeline.fit_firm": lambda r: {"degenerate": bool(r.report.degenerate)},
    "pipeline.fit_panel": lambda r: {"fitted": len(r[0]), "skipped": len(r[1])},
}


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id: str | None = None

    @contextmanager
    def run(self, run_id: str):
        prev, self.run_id = self.run_id, run_id
        try:
            yield
        finally:
            self.run_id = prev

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    rec.update(annotate(result))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def qualified_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def public_functions() -> dict:
    """Map each wrappable function object to its ``module.function`` name."""
    import ecuindex
    from ecuindex import panelio, pipeline

    found = {}
    for name in ecuindex.__all__:
        obj = getattr(ecuindex, name)
        if inspect.isfunction(obj):
            found[obj] = qualified_name(obj)
    for mod in (pipeline, panelio):
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found[obj] = qualified_name(obj)
    return found


@contextmanager
def tracing(tracer: Tracer):
    """Wrap every public function while the block runs, then restore them."""
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in public_functions().items()}
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "ecuindex" and not modname.startswith("ecuindex."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                patched.append((mod, attr, obj))
    try:
        yield tracer
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def select(spans, name: str, runs) -> list[dict]:
    return [s for s in spans if s["name"] == name and s["run"] in runs]


def total(spans, name: str, runs) -> float:
    return sum(duration(s) for s in select(spans, name, runs))


def children_time(spans, parent_id: int, names=None) -> float:
    """Time covered by the direct children of a span, optionally only those named."""
    return sum(duration(s) for s in spans
               if s["parent"] == parent_id and (names is None or s["name"] in names))


def self_time_by_layer(spans, runs) -> dict[str, float]:
    """Per layer (the module part of a span name): duration minus direct children."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + duration(s)
    out: dict[str, float] = {}
    for s in spans:
        if s["run"] in runs:
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + duration(s) - child.get(s["id"], 0.0)
    return out


def has_ancestor(spans, rec: dict, name: str) -> bool:
    parent = rec["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False
