"""Tracing of maxseg's public functions from outside the package.

``Tracer.install`` replaces each traced function, in every loaded ``maxseg``
module that holds a reference to it, with a timing wrapper; ``uninstall``
puts the originals back.  Coarse calls (ingest, prefix sums, bounds, solve,
the solver algorithms) each record a span: name, start, end, parent span and
operation id.  ``build_sequence`` calls made by ``solve`` itself (the copies
of heavy-item split pieces) record no span, so their time stays in solve's
self time and ``core.build_sequence`` covers ingest and set-up only.  The per-query sweep calls, the per-block inits and report
rendering are too many to record one by one, so each is aggregated into
calls plus busy time under its parent span.  Spans stay in memory and are
written out once, by ``write``, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter
from typing import Dict, List

SPANNED = [
    ("maxseg.bio", "parse_fasta"),
    ("maxseg.bio", "map_to_sequence"),
    ("maxseg.bio", "parse_tsv"),
    ("maxseg.core", "build_sequence"),
    ("maxseg.core", "compute_bounds"),
    ("maxseg.solvers", "solve"),
    ("maxseg.solvers", "max_density_uniform"),
    ("maxseg.solvers", "max_density_general"),
    ("maxseg.solvers", "max_density_min_width"),
    ("maxseg.solvers", "sliding_window"),
]
AGGREGATED = [
    ("maxseg.sweep_left", "initialize_min_width"),
    ("maxseg.sweep_left", "find_match_min_width"),
    ("maxseg.sweep_right", "initialize_max_width"),
    ("maxseg.sweep_right", "find_match_max_width"),
]
ALGORITHMS = ("solvers.max_density_uniform", "solvers.max_density_general",
              "solvers.max_density_min_width", "solvers.sliding_window")
COUNTER_FIELDS = ("init_merges", "descent_steps", "bitonic_steps", "scan_steps")


class _Frame:
    __slots__ = ("sid", "name", "parent", "op", "start", "child_s", "snap", "inner", "extra")

    def __init__(self, sid, name, parent, op, start, snap):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.child_s = 0.0  # inclusive seconds of child spans
        self.snap = snap  # aggregate totals when the span opened
        self.inner = [0] * len(snap)  # aggregate deltas of child spans
        self.extra: Dict[str, object] = {}


class Tracer:
    """Span recorder; one instance per traced process.

    Aggregated calls only bump a per-name ``[calls, busy_s]`` total; a span
    snapshots those totals when it opens and attributes the difference, less
    its child spans' share, to itself when it closes.  That keeps the cost of
    a hot call to two clock reads and two additions.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self.aggregates: List[dict] = []
        self._stack: List[_Frame] = []
        self._next_sid = 1
        self._patches: List[tuple] = []
        self._acc_names: List[str] = []
        self._accs: List[list] = []

    # -- recording -------------------------------------------------------

    def _totals(self) -> list:
        return [x for acc in self._accs for x in acc]

    def _open(self, name: str, op=None) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(self._next_sid, name, parent.sid if parent else None,
                       parent.op if parent else op, perf_counter(), self._totals())
        self._next_sid += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        end = perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        dur = end - frame.start
        inclusive = [now - then for now, then in zip(self._totals(), frame.snap)]
        own = [whole - inner for whole, inner in zip(inclusive, frame.inner)]
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += dur
            parent.inner = [a + b for a, b in zip(parent.inner, inclusive)]
        self.spans.append({
            "id": frame.sid, "name": frame.name, "op": frame.op,
            "parent": frame.parent, "start": frame.start, "end": end,
            "self_s": dur - frame.child_s - sum(own[1::2]), **frame.extra,
        })
        for k, agg_name in enumerate(self._acc_names):
            if own[2 * k]:
                self.aggregates.append({"name": agg_name, "parent": frame.sid, "op": frame.op,
                                        "calls": own[2 * k], "busy_s": own[2 * k + 1]})
        return dur

    def begin_op(self, op_id) -> _Frame:
        """Open the root span of one operation; traced calls nest under it."""
        return self._open("op", op_id)

    def end_op(self, frame: _Frame) -> float:
        """Close an operation's root span and return its wall seconds."""
        return self._close(frame)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        is_solve = name == "solvers.solve"
        is_algorithm = name in ALGORITHMS
        is_build = name == "core.build_sequence"
        if is_solve or is_algorithm:
            from maxseg import core, fastpath

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if is_build and parent is not None and parent.name == "solvers.solve":
                return fn(*args, **kwargs)  # a split copy: solve's own time
            if is_solve and kwargs.get("counters") is None:
                kwargs["counters"] = core.OpCounters()
            frame = tracer._open(name)
            if is_algorithm and parent is not None and parent.name == "solvers.solve":
                frame.extra["piece"] = True
                frame.extra["eligible"] = bool(fastpath.eligible(args[0]))
            try:
                result = fn(*args, **kwargs)
                if is_solve:
                    c = kwargs["counters"]
                    for f in COUNTER_FIELDS:
                        frame.extra[f] = getattr(c, f)
                elif name == "core.compute_bounds":
                    frame.extra["cursor_advances"] = result.cursor_advances
                elif name in ("core.build_sequence", "bio.parse_tsv", "bio.map_to_sequence"):
                    frame.extra["items"] = result.n
                return result
            finally:
                tracer._close(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def _accumulator(self, name: str) -> list:
        if name not in self._acc_names:
            self._acc_names.append(name)
            self._accs.append([0, 0.0])
        return self._accs[self._acc_names.index(name)]

    def _agg_wrapper(self, name: str, fn):
        acc = self._accumulator(name)
        clock = perf_counter

        if name.startswith(("sweep_left.find_match", "sweep_right.find_match")):
            def wrapper(state, i):  # the hottest call: keep the wrapper minimal
                t0 = clock()
                result = fn(state, i)
                acc[1] += clock() - t0
                acc[0] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                acc[1] += clock() - t0
                acc[0] += 1
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install -------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "maxseg" or mod_name.startswith("maxseg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every traced function; imports the maxseg modules it needs."""
        import importlib

        import maxseg.cli  # noqa: F401  (loads every module that holds a reference)

        for mod_name, fn_name in SPANNED + AGGREGATED:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, fn_name)
            name = f"{mod_name.split('.', 1)[1]}.{fn_name}"
            make = self._span_wrapper if (mod_name, fn_name) in SPANNED else self._agg_wrapper
            self._replace_everywhere(original, make(name, original))

        report = maxseg.cli.SegmentReport
        from_segment = report.from_segment  # bound to the class
        line = report.line
        self._patches.append((report, "from_segment", vars(report)["from_segment"]))
        self._patches.append((report, "line", line))
        report.from_segment = staticmethod(self._agg_wrapper("cli.render", from_segment))
        report.line = self._agg_wrapper("cli.render", line)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def document(self) -> dict:
        return {"spans": self.spans, "aggregates": self.aggregates}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.document(), fh)


def per_op_layers(doc: dict) -> Dict[object, Dict[str, float]]:
    """Per-operation layer totals from one trace document.

    Times are inclusive busy seconds per layer; ``.calls`` count calls;
    ``solvers.solve.self_s`` is solve time minus the spans and aggregated
    calls beneath it (split and its piece copies, dispatch and tie
    normalization).
    """
    ops: Dict[object, Dict[str, float]] = {}

    def bump(op, key, amount):
        layers = ops.setdefault(op, {})
        layers[key] = layers.get(key, 0) + amount

    for s in doc["spans"]:
        op, name = s["op"], s["name"]
        if name == "op":
            continue
        bump(op, f"{name}.s", s["end"] - s["start"])
        bump(op, f"{name}.calls", 1)
        if name == "solvers.solve":
            bump(op, "solvers.solve.self_s", s["self_s"])
            for f in COUNTER_FIELDS:
                bump(op, f"solvers.counters.{f}", s[f])
        if "cursor_advances" in s:
            bump(op, "core.compute_bounds.cursor_advances", s["cursor_advances"])
        if "items" in s:
            bump(op, f"{name}.items", s["items"])
        if s.get("piece"):
            bump(op, "solvers.pieces", 1)
            bump(op, "fastpath.eligible_pieces", int(s["eligible"]))
    for a in doc["aggregates"]:
        bump(a["op"], f"{a['name']}.s", a["busy_s"])
        bump(a["op"], f"{a['name']}.calls", a["calls"])
    return ops


def median_layers(ops: List[Dict[str, float]], keys: List[str]) -> Dict[str, float]:
    """Median of each key over the operations that reach that layer (0 if none)."""
    out = {}
    for key in keys:
        values = [layers[key] for layers in ops if key in layers]
        out[key] = statistics.median(values) if values else 0.0
    return out
