"""Per-layer spans for slopecover commands, recorded from outside the library.

The tracer replaces each traced function by a timing wrapper at the places
the CLI looks it up: the module globals of ``slopecover.cli`` and
``slopecover.bench`` and the modules ``cli.svg_mod`` and ``cli.bench_mod``.
The library source is not touched, and the originals are put back after
each traced command. A function that no longer exists at any of those
places is reported as absent, with zero calls, instead of failing the run.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

# layer -> public functions traced in it
LAYERS = {
    "terrain": ("generate_terrain", "load_height_grid", "aggregate"),
    "graph": ("build_graph", "average_slope"),
    "spanning": ("minimum_spanning_tree", "classical_spanning_tree", "tree_weight"),
    "coverage": ("circumnavigate", "path_cost", "count_sacrificed_cells", "save_path",
                 "load_path_file", "validate_path"),
    "svg": ("render_svg",),
    "bench": ("run_benchmark", "trend_statistics"),
}
ROOT = "cli"


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


# span name -> {count name: reader(result, args, kwargs)}
COUNTS: dict[str, dict[str, Callable[[Any, tuple, dict], int]]] = {
    "graph.build_graph": {
        "nodes": lambda result, a, k: len(result.nodes),
        "edges": lambda result, a, k: len(result.edges),
    },
    "coverage.circumnavigate": {"cells": lambda result, a, k: len(result.cells)},
    "terrain.load_height_grid": {
        "bytes": lambda result, a, k: os.path.getsize(_arg(a, k, 0, "path")),
    },
    "coverage.save_path": {"bytes": lambda result, a, k: os.path.getsize(_arg(a, k, 1, "file"))},
    "svg.render_svg": {"bytes": lambda result, a, k: _text_bytes(result)},
}
UNREADABLE = -1  # a count whose reader failed, e.g. after a return type changed


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    """Keeps spans and counts in memory; ``write`` saves the spans as JSON lines."""

    def __init__(self, sites: list[Any]):
        self.sites = list({id(site): site for site in sites}.values())
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.run = 0
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self.absent = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns
                       if not any(hasattr(site, fn) for site in self.sites)]

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter() - self._t0, 0.0, parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter() - self._t0
        self._stack.pop()

    def _count(self, name: str, result: Any, args: tuple, kwargs: dict) -> None:
        for count, read in COUNTS.get(name, {}).items():
            try:
                value = int(read(result, args, kwargs))
            except (AttributeError, TypeError, IndexError, KeyError, OSError):
                value = UNREADABLE
            key = (self.run, f"{name}.{count}")
            before = self.counts.get(key, 0)
            self.counts[key] = UNREADABLE if UNREADABLE in (value, before) else before + value

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self._count(name, result, args, kwargs)
            return result

        return traced

    @contextmanager
    def command(self, run: int) -> Iterator[None]:
        """Trace one command: wrap every traced function, open the root span."""
        self.run = run
        saved = []
        for layer, fns in LAYERS.items():
            for fn in fns:
                for site in self.sites:
                    original = getattr(site, fn, None)
                    if original is not None:
                        saved.append((site, fn, original))
                        setattr(site, fn, self._wrap(f"{layer}.{fn}", original))
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)
            for site, fn, original in saved:
                setattr(site, fn, original)

    def metrics(self, run: int) -> dict[str, float]:
        """Self time and calls per traced function, the counts, and the root's
        own time, for one traced command."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.run == run and span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                out[f"{layer}.{fn}.self_s"] = 0.0
                out[f"{layer}.{fn}.calls"] = 0
        for name, counts in COUNTS.items():
            for count in counts:
                out[f"{name}.{count}"] = self.counts.get((run, f"{name}.{count}"), 0)
        for index, span in enumerate(self.spans):
            if span.run != run:
                continue
            own = span.end - span.start - _covered(span, children.get(index, []))
            if span.name == ROOT:
                out[f"{ROOT}.self_s"] = own
            else:
                out[f"{span.name}.self_s"] += own
                out[f"{span.name}.calls"] += 1
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total
