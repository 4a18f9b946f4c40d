"""Spans around trisum's layers, recorded from outside the package.

Each wrapper replaces a function under the name its caller looks it up
by.  series.py calls `harmonic` through its own module globals, so the
counter goes on trisum.series.harmonic, not on trisum.specfun.harmonic;
closed_sum reaches C_of through trisum.closedform.C_of, and so on.
Nothing in src/ changes: install() swaps the module attributes and
uninstall() puts the originals back.

A span is [name, start, end, parent, op, tag]: parent indexes the span
list (-1 for none), op is the sequence number of the benchmark op that
caused it, and tag is the suite name for run_suite spans.  Spans stay in
memory and are written once, at the end, by write().
"""

from __future__ import annotations

import time
from collections import Counter

# span name -> the (module, attribute) pairs its callers look it up by
SPANS = {
    "harness.run_suite": [("harness", "run_suite"), ("cli", "run_suite")],
    "harness.emit_report": [("harness", "emit_report"), ("cli", "emit_report")],
    "closedform.closed_sum": [("closedform", "closed_sum"), ("harness", "closed_sum"),
                              ("cli", "closed_sum")],
    "closedform.C_of": [("closedform", "C_of")],
    "jets.coeff": [("closedform", "coeff_a"), ("closedform", "coeff_b")],
    "roots.solve_cubic": [("closedform", "solve_cubic")],
    "specfun.dilog": [("specfun", "dilog"), ("closedform", "dilog"), ("harness", "dilog"),
                      ("cli", "dilog")],
    "series.sum_series": [("series", "sum_series"), ("harness", "sum_series"),
                          ("cli", "sum_series")],
    "quadrature.sqv": [("quadrature", "series_via_quadrature"),
                       ("harness", "series_via_quadrature"), ("cli", "series_via_quadrature")],
    "quadrature.tanh_sinh": [("quadrature", "tanh_sinh"), ("harness", "tanh_sinh")],
}

# Leaf functions called too often for a span each: counted only.
COUNTED = {
    "specfun.harmonic": [("series", "harmonic"), ("harness", "harmonic")],
    "series.terms": [("series", "_numerator_float")],
    "quadrature.levels": [("quadrature", "_level_nodes")],
}

CHILD_MARK = "PERFBENCH-SPANS "


class Tracer:
    def __init__(self, trisum):
        import sys
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._root = -1
        self._swaps = []   # (module, attribute, original, wrapper)
        for table, make in ((SPANS, self._span), (COUNTED, self._count)):
            for name, sites in table.items():
                for mod_name, attr in sites:
                    module = sys.modules.get(f"{trisum.__name__}.{mod_name}")
                    if module is None:       # e.g. trisum.cli outside the CLI
                        continue
                    original = getattr(module, attr)
                    self._swaps.append((module, attr, original, make(name, original)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tagged = name == "harness.run_suite"

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   args[0] if tagged else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        counts, spans, stack = self.counts, self.spans, self.stack

        if name == "series.terms":
            # _numerator_float also serves base_term; count only the terms
            # sum_series adds
            def wrapper(*args, **kwargs):
                if stack and spans[stack[-1]][0] == "series.sum_series":
                    counts[name] += 1
                return fn(*args, **kwargs)
        elif name == "quadrature.levels":
            def wrapper(*args, **kwargs):
                nodes = fn(*args, **kwargs)
                counts[name] += 1
                counts["quadrature.nodes"] += len(nodes[0])
                return nodes
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    def begin_op(self, op: int, label) -> None:
        self.op = op
        self._root = len(self.spans)
        self.stack.append(self._root)
        self.spans.append(["bench.op", 0.0, 0.0, -1, op, str(label)])
        self.spans[-1][1] = time.perf_counter()

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def adopt_child(self, stderr: str) -> float:
        """Append the spans a traced CLI child wrote to stderr under the
        last op begun; return the child's main() seconds."""
        import json
        for line in stderr.splitlines():
            if line.startswith(CHILD_MARK):
                doc = json.loads(line[len(CHILD_MARK):])
                break
        else:
            raise ValueError("traced CLI child wrote no spans")
        self.counts.update(doc["counts"])
        base = len(self.spans)
        for name, start, end, parent, _, tag in doc["spans"]:
            self.spans.append([name, start, end, self._root if parent < 0 else parent + base,
                               self.op, tag])
        return doc["main_s"]

    def summary(self, factors: list[float]) -> dict:
        """Per span name: calls, inclusive and self seconds, each span
        rescaled by the host correction of the op it belongs to."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, op, tag) in enumerate(self.spans):
            f = factors[op]
            dur = end - start
            keys = [name] if tag is None or name == "bench.op" else [name, f"{name}.{tag}"]
            for key in keys:
                agg = out.setdefault(key, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur * f
                agg[2] += (dur - child[i]) * f
        return out

    def write(self, path: str) -> None:
        import csv
        import os
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start", "end", "parent", "op", "tag"])
            for i, (name, start, end, parent, op, tag) in enumerate(self.spans):
                w.writerow([i, name, repr(start), repr(end), parent, op, "" if tag is None else tag])


def parse_importtime(stderr: str) -> dict:
    """Milliseconds from `python -X importtime` of a script that imports
    trisum.cli: the cumulative import of trisum and trisum.cli, of numpy,
    and the self time of trisum's own modules."""
    total = numpy = own = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        top = not name.startswith("  ")     # importtime indents nested imports
        name = name.strip()
        if top and name in ("trisum", "trisum.cli"):
            total += int(cum_us) / 1000.0
        elif name == "numpy":
            numpy = int(cum_us) / 1000.0
        if name == "trisum" or name.startswith("trisum."):
            own += int(self_us) / 1000.0
    return {"import_total_ms": total, "import_numpy_ms": numpy, "import_self_ms": own}
