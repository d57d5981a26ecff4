"""In-memory spans recorded around calls into gatevm's modules.

A span is named ``<layer>.<call>``, where the layer is the gatevm module
that was called. Spans nest: a span's self time is its duration minus the
durations of its children, and a layer's self time is the sum of the self
times of its spans. The benchmark's own root span per case is the layer
``bench``; its self time is the part of the case no gatevm call covers.
"""
from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

LAYERS = ("qasm", "vc", "passes", "codegen", "transpiler", "runtime", "sim")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case = ""

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.case)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` run inside a span; ``on_call`` sees the arguments first."""
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def case_spans(self, case: str) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.case == case]

    def write_json(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def summarize(spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Per case: inclusive time and call count per span name, self time per
    layer (``self.<layer>``), and the root's wall time (``wall``)."""
    child_time: dict[int, float] = {}
    for _, s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, float] = {f"self.{layer}": 0.0 for layer in LAYERS + ("bench",)}
    out["wall"] = 0.0
    for i, s in spans:
        duration = s.end - s.start
        layer = s.name.split(".", 1)[0]
        out[f"self.{layer}"] += duration - child_time.get(i, 0.0)
        out[f"{s.name}.time"] = out.get(f"{s.name}.time", 0.0) + duration
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        if s.parent is None:
            out["wall"] += duration
    return out


@contextlib.contextmanager
def patched(module, **replacements):
    """Temporarily rebind module globals, restoring them on exit."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)
