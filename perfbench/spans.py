"""Spans the benchmark records around calls into the syndetic package.

A span has an id, a parent, an operation id (one per corpus instance or CLI
command), a name ``<layer>.<function>``, an optional tag, a start, an end
and optional work counts read from the call's result.  Spans are kept in
memory and written out once, when the run ends.  Nothing here changes the
package: calls are timed by swapping module attributes for wrappers, from
the benchmark's own files, and swapping them back afterwards.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import astuple, dataclass

# the package modules, which are the layers a span is charged to
LAYERS = ("cli", "textio", "certificate", "pipeline", "windows", "vdw", "generators")


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: str | None
    name: str
    tag: str | None
    start: float
    end: float = 0.0
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Spans of one operation, nested by a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), parent, self.op, name, tag, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, counts=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counts is not None:
                s.counts = counts(result)
            return result

        return traced

    def adopt(self, rows: list, op: str) -> None:
        """Append spans a child process wrote, under the span open now."""
        base = len(self.spans)
        parent = self._open[-1] if self._open else None
        for sid, par, _, name, tag, start, end, counts in rows:
            up = parent if par is None else base + par
            self.spans.append(Span(base + sid, up, op, name, tag, start, end, counts))

    def rows(self) -> list[list]:
        return [list(astuple(s)) for s in self.spans]


class CallCounter:
    """Counts calls without timing them; used by untraced runs."""

    def __init__(self):
        self.calls: Counter = Counter()

    def wrap(self, fn, name: str, counts=None):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


@contextmanager
def patched(targets, wrap):
    """Replace each target attribute by ``wrap(original, name, counts)``
    and restore the originals on exit."""
    saved = []
    try:
        for module, attr, name, counts in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original, name, counts))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _runs(s) -> dict:
    import numpy as np  # imported here so that cli.import covers numpy

    edges = np.diff(s.mask.astype(np.int8), prepend=0, append=0)
    return {"run_lines": int(np.count_nonzero(edges == 1))}


def library_targets() -> list[tuple]:
    """Every public call the benchmark times, in each namespace it is
    called from: ``(module, attribute, span name, counts)``."""
    from syndetic import certificate, cli, generators, pipeline, vdw

    def cert_text(text):
        return {"cert_bytes": len(text.encode()), "pt_lines": text.count("\npt ")}

    def pairs(ps):
        return {"pair_count": ps.pairs.count, "boundary_excluded": ps.boundary_excluded}

    return [
        (cli, "load_window1d", "textio.load_window1d", _runs),
        (cli, "dump_window1d", "textio.dump_window1d", None),
        (cli, "fg_construct", "pipeline.fg_construct", None),
        (cli, "serialize", "certificate.serialize", cert_text),
        (cli, "parse", "certificate.parse", None),
        (cli, "verify_fg", "certificate.verify_fg", None),
        (generators, "striped_set", "generators.gen", None),
        (generators, "periodic_set", "generators.gen", None),
        (pipeline, "fg_construct", "pipeline.fg_construct", None),
        (pipeline, "set_digest", "certificate.set_digest", None),
        (pipeline, "shifted_union_1d", "windows.shifted_union_1d", None),
        (pipeline, "max_run_length", "windows.max_run_length", None),
        (pipeline, "vdw_span", "vdw.vdw_span", None),
        (pipeline, "progression_pairs", "pipeline.progression_pairs", pairs),
        (pipeline, "color_classes", "pipeline.color_classes", lambda c: {"classes": len(c)}),
        (pipeline, "pigeonhole_extract", "pipeline.pigeonhole_extract",
         lambda r: {"class_count": r[1].count}),
        (pipeline, "affine_image", "pipeline.affine_image", None),
        (pipeline, "ps_scale_2d", "windows.ps_scale_2d", None),
        (certificate, "verify_fg", "certificate.verify_fg", None),
        (certificate, "set_digest", "certificate.set_digest", None),
        (certificate, "dump_window1d", "textio.dump_window1d", None),
        (certificate, "is_ps_at_scale", "windows.is_ps_at_scale", None),
        (certificate, "ps_scale_2d", "windows.ps_scale_2d", None),
        (certificate, "shifted_union_1d", "windows.shifted_union_1d", None),
        (certificate, "vdw_number", "vdw.vdw_number", None),
        (vdw, "vdw_number", "vdw.vdw_number", None),
    ]


def summarize(spans: list[Span]) -> tuple[dict, Counter, Counter, dict]:
    """Inclusive seconds and call count per span name (and per name.tag),
    summed work counts (also per count.tag), and self seconds per layer.

    A span's self time is its duration minus that of its direct children.
    """
    total: dict = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    children: dict = defaultdict(float)
    for s in spans:
        keys = [s.name] + ([f"{s.name}.{s.tag}"] if s.tag else [])
        for key in keys:
            total[key] += s.seconds
            calls[key] += 1
        for k, v in (s.counts or {}).items():
            counts[k] += v
            if s.tag:
                counts[f"{k}.{s.tag}"] += v
        if s.parent is not None:
            children[s.parent] += s.seconds
    self_time: dict = defaultdict(float)
    for s in spans:
        self_time[s.layer] += s.seconds - children[s.id]
    return total, calls, counts, self_time
