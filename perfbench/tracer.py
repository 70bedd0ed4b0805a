"""Layer tracing for the benchmark's traced runs.

`install` wraps, from outside, the functions at each layer boundary of spinlink.
Each name is patched in every module that binds it: `xcalc` imports `H`
and `relation_table` by name, `spinpoly` imports `build_X`, so patching
only the defining module would miss those calls. Recursive functions
(`_trace_word`, `_reduce_top`, `_annular_eval`, `_tuples`) call themselves
through module globals, so the wrappers see every level.

A timed wrapper opens a span: name, start, end, parent span and the
current item id as request id. A layer's `.s` is the time of its outermost
spans (recursion is not counted twice); `.self_s` subtracts the time of
child spans. Span times are read from the worker's normalized clock
(calibrate.py), so the probes it interleaves are not counted in any span.
Hot scalar operations are counted without a span.
"""

from __future__ import annotations

import functools
import json
import sys

MAX_KEPT_SPANS = 200_000

# Spans kept for the span dump; every other timed name is only aggregated.
KEPT = {
    "cli.main", "rep.H", "rep.linop_matmul", "rep.linop_tensor", "clifford.wenzl_C",
    "xcalc.build_X", "xcalc.rank_of", "xcalc.relation_suite", "xcalc.change_of_basis_check",
    "xcalc.scaledop_matmul", "spinpoly.crossing_data", "spinpoly.raw_trace", "iqsym.trace_eval",
    "iqsym.reduce_top", "schur.bilinear_form", "schur.left_multiply_c",
}


class _Open:
    __slots__ = ("sid", "name", "start", "child")

    def __init__(self, sid: int, name: str, start: float):
        self.sid, self.name, self.start, self.child = sid, name, start, 0.0


class Tracer:
    """Spans and counters of one worker process, kept in memory."""

    def __init__(self, clock):
        self.clock = clock  # calibrate.Clock.now: probe time is not counted in any span
        self.request = "setup"
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[_Open] = []
        self.next_id = 0
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.trace_cache_start = 0
        self.finish = lambda: None  # set by install: flushes state read at the end

    def add(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def timed(self, name: str, fn):
        keep = name in KEPT
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Open(self.next_id, name, clock())
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span)
            self.depth[name] = self.depth.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.depth[name] -= 1
                dur = end - span.start
                self.calls[name] = self.calls.get(name, 0) + 1
                if not self.depth[name]:
                    self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - span.child
                if parent is not None:
                    parent.child += dur
                if keep:
                    if len(self.spans) < MAX_KEPT_SPANS:
                        self.spans.append((span.sid, name, span.start, end,
                                           parent.sid if parent else None, self.request))
                    else:
                        self.dropped += 1

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "request"],
                       "dropped": self.dropped, "spans": self.spans}, fh)


def _patch(owners, attr: str, wrapper) -> None:
    for owner in owners:
        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every spinlink module."""
    from spinlink import cli, clifford, iqsym, qalg, rep, schur, spinpoly, xcalc

    t = tracer
    lp, rf, linop, scaled = qalg.LaurentPoly, qalg.RatFunc, rep.LinOp, xcalc.ScaledOp

    # scalar layer
    lp.__mul__ = t.counted("qalg.laurent_mul", lp.__mul__)
    lp.__rmul__ = t.counted("qalg.laurent_mul", lp.__rmul__)
    rf.__init__ = t.counted("qalg.ratfunc_new", rf.__init__)
    _patch((qalg, xcalc), "poly_gcd", t.timed("qalg.poly_gcd", qalg.poly_gcd))

    # operator layer
    linop.__matmul__ = t.timed("rep.linop_matmul", linop.__matmul__)
    linop.tensor = t.timed("rep.linop_tensor", linop.tensor)
    scaled.__matmul__ = t.timed("xcalc.scaledop_matmul", scaled.__matmul__)

    # construction layer
    _patch((rep, xcalc), "H", t.timed("rep.H", rep.H))
    clifford.wenzl_C = t.timed("clifford.wenzl_C", clifford.wenzl_C)
    _patch((xcalc, spinpoly), "build_X", t.timed("xcalc.build_X", xcalc.build_X))
    _patch((iqsym, xcalc), "relation_table", t.timed("iqsym.relation_table", iqsym.relation_table))
    seen_crossings = set()
    crossing = t.timed("spinpoly.crossing_data", spinpoly._crossing_data)

    def crossing_data(n, sign):
        cols, den = crossing(n, sign)
        if (n, sign) not in seen_crossings:
            seen_crossings.add((n, sign))
            t.add("spinpoly.crossing_data.nnz", sum(len(col) for col in cols.values()))
        return cols, den

    spinpoly._crossing_data = crossing_data

    # verification layer
    for name in ("rank_of", "relation_suite", "change_of_basis_check"):
        setattr(xcalc, name, t.timed(f"xcalc.{name}", getattr(xcalc, name)))
    cli.main = t.timed("cli.main", cli.main)

    # evaluation layer: spin matrix route
    spinpoly._raw_trace = t.timed("spinpoly.raw_trace", spinpoly._raw_trace)
    tuples = spinpoly._tuples

    def counted_tuples(dim, m):
        # only the outermost call yields start columns; inner calls build tails
        if sys._getframe(1).f_code is tuples.__code__:
            return tuples(dim, m)
        return _count_yields(tuples(dim, m))

    def _count_yields(gen):
        for column in gen:
            t.add("spinpoly.columns")
            yield column

    spinpoly._tuples = counted_tuples

    # evaluation layer: spin symbolic route
    trace_eval = t.timed("iqsym.trace_eval", iqsym.trace_eval)

    def counted_trace_eval(elem, m, n):
        t.add("iqsym.expanded_terms", len(elem.terms))
        return trace_eval(elem, m, n)

    iqsym.trace_eval = counted_trace_eval
    iqsym._reduce_top = t.timed("iqsym.reduce_top", iqsym._reduce_top)
    iqsym._trace_word = t.counted("iqsym.trace_word", iqsym._trace_word)

    # evaluation layer: sl_N annular route
    bilinear_form = t.timed("schur.bilinear_form", schur.bilinear_form)

    def counted_bilinear_form(x, y=None):
        if y is None:
            t.add("schur.expanded_words", len(x.terms))
        return bilinear_form(x, y)

    schur.bilinear_form = counted_bilinear_form
    schur._left_multiply_c = t.timed("schur.left_multiply_c", schur._left_multiply_c)
    annular = t.counted("schur.annular_eval", schur._annular_eval)
    last_cache: list[dict] = []

    def annular_eval(word, a, N, cache, depth):
        # bilinear_form makes one cache per call; add each one's final size
        if not last_cache or last_cache[0] is not cache:
            _flush_annular_cache(t, last_cache)
            last_cache[:] = [cache]
        return annular(word, a, N, cache, depth)

    schur._annular_eval = annular_eval
    t.finish = lambda: _flush_annular_cache(t, last_cache)
    t.trace_cache_start = len(iqsym._trace_cache.values)


def _flush_annular_cache(t: Tracer, last_cache: list[dict]) -> None:
    if last_cache:
        t.add("schur.annular_cache.size", len(last_cache.pop()))


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced worker, by name."""
    from spinlink import iqsym

    t.finish()
    calls, total = t.calls, t.total

    def ratio(hits: int, attempts: int) -> float:
        return hits / attempts if attempts else 0.0

    trace_calls = calls.get("iqsym.trace_word", 0)
    trace_misses = len(iqsym._trace_cache.values) - t.trace_cache_start
    annular_calls = calls.get("schur.annular_eval", 0)
    annular_size = t.counts.get("schur.annular_cache.size", 0)
    out = {}
    for name in ("qalg.laurent_mul", "qalg.poly_gcd", "qalg.ratfunc_new", "rep.H", "rep.linop_matmul",
                 "rep.linop_tensor", "xcalc.build_X", "iqsym.reduce_top", "iqsym.trace_word",
                 "schur.annular_eval"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("qalg.poly_gcd", "rep.H", "rep.linop_matmul", "rep.linop_tensor", "clifford.wenzl_C",
                 "xcalc.build_X", "xcalc.rank_of", "xcalc.relation_suite", "xcalc.change_of_basis_check",
                 "xcalc.scaledop_matmul", "spinpoly.crossing_data", "spinpoly.raw_trace",
                 "iqsym.reduce_top", "iqsym.relation_table", "schur.left_multiply_c",
                 "schur.bilinear_form"):
        out[f"{name}.s"] = total.get(name, 0.0)
    for name in ("spinpoly.crossing_data.nnz", "spinpoly.columns", "iqsym.expanded_terms",
                 "schur.expanded_words", "schur.annular_cache.size"):
        out[name] = t.counts.get(name, 0)
    out["iqsym.trace_cache.size"] = len(iqsym._trace_cache.values)
    out["iqsym.trace_cache.hit_ratio"] = ratio(trace_calls - trace_misses, trace_calls)
    out["schur.annular_cache.hit_ratio"] = ratio(annular_calls - annular_size, annular_calls)
    out["cli.main.self_s"] = t.self_time.get("cli.main", 0.0)
    return out
