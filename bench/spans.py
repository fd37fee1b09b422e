"""In-memory spans around the package's entry points, installed from outside.

Each entry point is wrapped under the name its caller looks it up by: a
function imported into ``semse.harness`` is patched there, one called from
inside ``semse.allocator`` is patched in that module, and the surface's
methods are patched on the class. ``Tracer.install`` swaps the wrappers in
and ``Tracer.uninstall`` restores the originals, so untraced runs in the
same process call the package untouched.

A span is ``[name, start, end, parent]``. The wrapper stores only the
clock readings, plus the arguments and result of the calls whose counts are
computed afterwards (``points``, ``pairs``, ``cells``, ``served_frac``,
``feasible_pair_frac``), so no counting work lands inside a parent span.
"""

from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

# (span name, module, attribute path in it). An entry point that no longer
# exists is skipped and reports calls = 0.
ENTRY_POINTS = (
    ("channel.sample_drop", "semse.harness", "sample_drop"),
    ("allocator.allocate_semantic", "semse.harness", "allocate_semantic"),
    ("allocator.allocate_conventional", "semse.harness", "allocate_conventional"),
    ("allocator.build_pair_plans", "semse.allocator", "build_pair_plans"),
    ("allocator.weight_matrix", "semse.allocator", "weight_matrix"),
    ("allocator.hungarian_max", "semse.allocator", "hungarian_max"),
    ("allocator.conventional_weights", "semse.allocator", "conventional_weights"),
    ("link_adaptation.table_se", "semse.allocator", "table_se"),
    ("link_adaptation.shannon_se", "semse.allocator", "shannon_se"),
    ("similarity.query_all_k", "semse.similarity", "SimilaritySurface.query_all_k"),
    ("similarity.query", "semse.similarity", "SimilaritySurface.query"),
)

# spans whose (args, result) are kept for the counts computed after the run
_RECORDED = {"similarity.query_all_k", "allocator.build_pair_plans", "allocator.hungarian_max"}


class Tracer:
    """Collects spans for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.recorded: dict[str, list] = {name: [] for name in _RECORDED}
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = self.recorded.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if keep is not None:
                keep.append((args, out))
            return out

        return wrapper

    def install(self) -> None:
        for name, module, path in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def summary(self, wall_s: float) -> tuple[dict, dict]:
        """(counts, times) of the run.

        Counts are calls per span name and the work counts, which repeat
        exactly for the same code and inputs. Times are self time per span
        name, ``harness.self_s`` (traced wall time not covered by any span)
        and ``trace.coverage_frac`` (span time over traced wall time).
        """
        child_time = [0.0] * len(self.spans)
        roots = 0.0
        for _name, start, end, parent in self.spans:
            if parent < 0:
                roots += end - start
            else:
                child_time[parent] += end - start
        counts = {f"{name}.calls": 0 for name, _module, _path in ENTRY_POINTS}
        times = {f"{name}.self_s": 0.0 for name, _module, _path in ENTRY_POINTS}
        for (name, start, end, _parent), covered in zip(self.spans, child_time):
            counts[f"{name}.calls"] += 1
            times[f"{name}.self_s"] += end - start - covered
        counts.update(self.counts())
        times["harness.self_s"] = wall_s - roots
        times["trace.coverage_frac"] = roots / wall_s
        return counts, times

    def counts(self) -> dict:
        """Work counts computed from the recorded input shapes and results."""
        points = sum(
            len(surface.k_values) * np.size(snr)
            for (surface, snr, *_), _out in self.recorded["similarity.query_all_k"]
        )
        pairs = sum(np.size(args[0]) for args, _out in self.recorded["allocator.build_pair_plans"])
        cells = matched = slots = positive = entries = 0
        for args, out in self.recorded["allocator.hungarian_max"]:
            w = np.asarray(args[0])
            cells += max(w.shape) ** 2
            matched += len(out.pairs)
            slots += min(w.shape)
            positive += int(np.count_nonzero(w > 0.0))
            entries += w.size
        return {
            "similarity.query_all_k.points": int(points),
            "allocator.build_pair_plans.pairs": int(pairs),
            "allocator.hungarian_max.cells": int(cells),
            "allocator.served_frac": matched / slots if slots else 0.0,
            "allocator.feasible_pair_frac": positive / entries if entries else 0.0,
        }

    def matchings(self):
        """(weights, reported total) of every ``hungarian_max`` call."""
        return [(np.asarray(args[0], dtype=float), out.total_weight)
                for args, out in self.recorded["allocator.hungarian_max"]]
