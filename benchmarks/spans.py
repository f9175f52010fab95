"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper on every
package module that holds it, since modules that import a function by name
look it up in their own namespace.  Each call records a span (id, parent
id, name, start, end); spans stay in memory until ``write``.  Self time is
a span's duration minus the intervals its child spans cover, and the
bookkeeping a wrapper does for its counters is counted as covered by the
child, so it never lands in a parent's self time.
"""

from __future__ import annotations

import functools
import os
import time
from types import ModuleType
from typing import Callable, Optional

# (module, function) pairs; the span name is "<module>.<function>"
TRACED = {
    "graph": ("load_graph", "add_inverse_triples", "augment_description", "classify_relation", "k_hop_neighbors"),
    "encoder": ("tokenize", "forward_hr", "forward_tail", "encode_backward", "save_checkpoint", "load_checkpoint"),
    "contrastive": ("assemble_candidates", "limit_negatives", "infonce_loss", "margin_loss", "margin_tau_loss"),
    "training": ("train", "build_token_cache", "run_batch", "clip_gradients", "apply_update"),
    "evaluation": ("build_index", "query_vector", "rerank_scores", "rank_one", "evaluate", "predict_topk"),
}


class _Frame:
    __slots__ = ("span_id", "covered")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.covered = 0


class Tracer:
    """Collects spans, per-name self time and call counts, and hook counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self._stack = [_Frame(0)]
        self._restore: list[tuple[ModuleType, str, Callable]] = []

    def install(self, modules: dict[str, ModuleType], hooks: dict[str, tuple]) -> None:
        """Wrap every function in ``TRACED``; ``hooks`` maps a span name to (before, after).

        ``before(args)`` runs ahead of the call and returns a state;
        ``after(args, result, state)`` runs after it.  Neither is timed.
        """
        for module_name, functions in TRACED.items():
            home = modules[module_name]
            for fn_name in functions:
                original = getattr(home, fn_name)
                name = f"{module_name}.{fn_name}"
                before, after = hooks.get(name, (None, None))
                wrapper = self._wrap(name, original, before, after)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable, before: Optional[Callable], after: Optional[Callable]):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls
        self_ns.setdefault(name, 0)
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cover_start = clock()
            state = before(args) if before is not None else None
            parent = stack[-1]
            frame = _Frame(len(spans) + 1)
            spans.append(None)  # reserve the id; filled in when the span ends
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame.span_id - 1] = (frame.span_id, parent.span_id, name, start, end)
                self_ns[name] += end - start - frame.covered
                calls[name] += 1
            if after is not None:
                after(args, result, state)
            parent.covered += clock() - cover_start
            return result

        return wrapper

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def count(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)

    def write(self, path: str) -> None:
        """One span per line: id, parent id, name, start ns, end ns."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write("%d\t%d\t%s\t%d\t%d\n" % span)
        os.replace(tmp, path)
