"""Outside-in tracing: spans around calls into each layer's public functions.

A :class:`Tracer` swaps each traced function for a timing wrapper in every
``dmslearn`` module that binds it, and each traced method on its class,
and puts the originals back on exit. Spans (name, start, end, parent) are
kept in memory; a span's self time is its duration minus the durations of
its child spans, which never overlap because the program runs on one
thread.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from dmslearn import consensus, data, numerics, reports, secagg, threats, topology

# Span name -> functions it covers, patched wherever a module binds them.
FUNCTIONS = {
    "topology.mixing_matrix": (topology.mixing_matrix,),
    "numerics.local_step": (numerics.local_step,),
    "consensus.round": (consensus.dms_round, consensus.ctl_round, consensus.fedavg_round),
    "consensus.run_training": (consensus.run_training,),
    "experiment.disagreement": (consensus.max_disagreement,),
    "secagg.aggregate": (secagg.secure_aggregate,),
    "secagg.share": (secagg.share,),
    "secagg.reconstruct": (secagg.reconstruct,),
    "data.generate": (data.gen_synthetic_load,),
    "data.kmeans": (data.kmeans,),
    "data.window": (data.window_dataset,),
    "reports.write": (reports.write_report, reports.write_summary_csv, reports.write_transcript),
}
# Span name -> (class, method).
METHODS = {
    "topology.advance": (topology.MarkovSchedule, "advance"),
    "numerics.forward": (numerics.MlpModel, "forward"),
    "consensus.monitor": (consensus.ConvergenceMonitor, "record"),
    "threats.hook": (threats.PoisonPolicy, "hook"),
}
# Per-layer metric -> span name; ``_s`` metrics sum self time, ``_calls`` count.
SPAN_METRICS = {
    "topology.advance_s": "topology.advance",
    "topology.mixing_matrix_calls": "topology.mixing_matrix",
    "numerics.local_step_s": "numerics.local_step",
    "numerics.local_step_calls": "numerics.local_step",
    "numerics.forward_s": "numerics.forward",
    "threats.hook_s": "threats.hook",
    "consensus.round_self_s": "consensus.round",
    "consensus.loop_self_s": "consensus.run_training",
    "consensus.monitor_s": "consensus.monitor",
    "experiment.on_round_s": "experiment.on_round",
    "experiment.disagreement_s": "experiment.disagreement",
    "secagg.share_s": "secagg.share",
    "secagg.share_calls": "secagg.share",
    "secagg.reconstruct_s": "secagg.reconstruct",
    "secagg.reconstruct_calls": "secagg.reconstruct",
    "secagg.aggregate_self_s": "secagg.aggregate",
    "data.generate_s": "data.generate",
    "data.kmeans_s": "data.kmeans",
    "data.window_s": "data.window",
    "reports.write_s": "reports.write",
}
ROOT_SPAN = "entry"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.patched_names: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self.transcripts: dict[int, secagg.Transcript] = {}
        self.secure_bytes = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _wrapper(self, name: str, fn):
        timed = self.wrap(name, fn)
        if name == "consensus.run_training":

            def run_training(*args, **kwargs):
                if kwargs.get("on_round") is not None:
                    kwargs["on_round"] = self.wrap("experiment.on_round", kwargs["on_round"])
                return timed(*args, **kwargs)

            return run_training
        if name == "secagg.aggregate":

            def secure_aggregate(*args, **kwargs):
                transcript = kwargs.get("transcript")
                before = transcript.bytes if transcript is not None else 0
                try:
                    return timed(*args, **kwargs)
                finally:
                    if transcript is not None:
                        self.transcripts[id(transcript)] = transcript
                        self.secure_bytes += transcript.bytes - before

            return secure_aggregate
        if name == "threats.hook":
            # The method builds the hook; time the hook it returns.
            return lambda policy: self.wrap(name, fn(policy))
        return timed

    def _set(self, owner, attr: str, value) -> None:
        self.patched_names.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def patched(self):
        """Swap in the wrappers; always put the originals back."""
        modules = [m for n, m in sys.modules.items() if n == "dmslearn" or n.startswith("dmslearn.")]
        try:
            for name, fns in FUNCTIONS.items():
                for fn in fns:
                    wrapper = self._wrapper(name, fn)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is fn:
                                self._set(module, attr, wrapper)
            for name, (cls, attr) in METHODS.items():
                self._set(cls, attr, self._wrapper(name, vars(cls)[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(self.patched_names):
                setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Names that do not hold their original object."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.patched_names
            if vars(owner)[attr] is not original
        ]

    def self_times(self) -> tuple[dict[str, float], Counter]:
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, children):
            totals[name] += end - start - child
            calls[name] += 1
        return totals, calls

    def check_spans(self, wall: float) -> list[str]:
        """Problems with the spans, given the call's wall time timed apart."""
        problems = [f"span {name} ends before it starts" for name, start, end, _ in self.spans if end < start]
        total = sum(self.self_times()[0].values())
        if total > wall:
            problems.append(f"self times {total:.6f} s exceed the call's wall time {wall:.6f} s")
        return problems

    def metrics(self) -> dict[str, dict]:
        totals, calls = self.self_times()
        out = {}
        for metric, span in SPAN_METRICS.items():
            if metric.endswith("_calls"):
                out[metric] = {"value": calls[span], "unit": "count"}
            else:
                out[metric] = {"value": totals[span], "unit": "s"}
        rounds = calls["consensus.round"]
        out["secagg.bytes_per_round"] = {
            "value": self.secure_bytes / rounds if rounds else 0,
            "unit": "bytes",
        }
        out["secagg.retained_payload_elems"] = {
            "value": sum(len(e.payload) for t in self.transcripts.values() for e in t.entries),
            "unit": "count",
        }
        return out

    def write(self, path: Path) -> None:
        totals, calls = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"self_s": totals, "calls": calls, "spans": self.spans}, fh)
