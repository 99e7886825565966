"""Layer spans for the benchmark's traced pass.

A Tracer replaces public qempar callables with timing wrappers and puts the
originals back when it is closed, so the program itself carries no tracing
code. Set-up calls and whole runs are kept as individual spans
(name, start, end, parent, cell). Per-event calls happen hundreds of
thousands of times per run, so they are kept as one aggregate per
(cell, name, parent): call count and summed seconds.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from qempar import engine, link_metrics
from qempar.dispatch import ReassemblyBuffer
from qempar.energy import EnergyLedger
from qempar.engine import Event
from qempar.link_metrics import NetworkState


def _count_bridges(tracer, args, topo) -> None:
    tracer.counts["topology.bridges"] += sum(map(len, topo.extended_links.values())) // 2


def _count_paths(tracer, args, path_set) -> None:
    tracer.counts["routing.paths"] += len(path_set)


# (owner, attribute, span name, keep individual spans, result observer)
LAYERS = [
    (engine, "place_nodes", "topology.place_nodes", True, _count_bridges),
    (engine, "beacon_exchange", "routing.beacon_exchange", True, None),
    (engine, "discover_paths", "routing.discover_paths", True, _count_paths),
    (engine, "minhop_paths", "routing.minhop_paths", True, _count_paths),
    (link_metrics, "topo_neighbors", "topology.neighbors", False, None),
    (link_metrics, "suitability", "link_metrics.suitability", False, None),
    (NetworkState, "active_transmitters_near", "link_metrics.carrier_sense", False, None),
    (NetworkState, "record_send", "link_metrics.record_send", False, None),
    (NetworkState, "record_receive", "link_metrics.record_receive", False, None),
    (EnergyLedger, "add", "energy.ledger_add", False, None),
    (ReassemblyBuffer, "reassemble", "dispatch.reassemble", False, None),
    (Event, "to_json", "engine.to_json", False, None),
]
RUN = "engine.run"


class _Probe:
    """A caller and a no-op callee for Tracer.wrapper_cost."""

    calls = 100_000

    def noop(self, a, b):
        pass

    def loop(self):
        for _ in range(self.calls):
            self.noop(1, 2)


class Tracer:
    """Timing wrappers around qempar callables, installed until close()."""

    def __init__(self):
        self.cell = -1
        self.spans: list[tuple] = []
        self.totals: dict[tuple, list] = {}
        self.counts: Counter = Counter()
        self._stack: list[str] = []
        self._restore: list[tuple] = []

    @classmethod
    def layers(cls) -> "Tracer":
        """A tracer over every layer; each engine.run call opens a new cell."""
        tracer = cls()
        tracer.wrap(engine, "run", RUN, keep_spans=True, new_cell=True)
        for owner, attr, name, keep, observe in LAYERS:
            tracer.wrap(owner, attr, name, keep_spans=keep, observe=observe)
        return tracer

    @classmethod
    def wrapper_cost(cls) -> float:
        """Seconds one wrapped call adds to its caller's self time.

        The wrapper's own call and its bookkeeping fall outside the callee's
        span, so they are charged to the caller. Measured as the traced self
        time of a loop of no-op calls less the same loop untraced, per call;
        the least of three repeats.
        """
        costs = []
        for _ in range(3):
            probe = _Probe()
            t0 = perf_counter()
            probe.loop()
            bare = perf_counter() - t0
            with cls() as tracer:
                tracer.wrap(_Probe, "noop", "probe.noop")
                tracer.wrap(_Probe, "loop", "probe.loop")
                probe.loop()
            costs.append((tracer.self_seconds("probe.loop") - bare) / _Probe.calls)
        return min(costs)

    def wrap(self, owner, attr: str, name: str, keep_spans: bool = False,
             observe=None, new_cell: bool = False) -> None:
        original = getattr(owner, attr)
        stack, totals, spans = self._stack, self.totals, self.spans

        def traced(*args, **kwargs):
            if new_cell:
                self.cell += 1
            parent = stack[-1] if stack else None
            stack.append(name)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                key = (self.cell, name, parent)
                agg = totals.get(key)
                if agg is None:
                    totals[key] = [1, t1 - t0]
                else:
                    agg[0] += 1
                    agg[1] += t1 - t0
                if keep_spans:
                    spans.append((name, t0, t1, parent, self.cell))
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def close(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def calls(self, *names: str) -> int:
        return sum(agg[0] for (_, n, _), agg in self.totals.items() if n in names)

    def seconds(self, *names: str) -> float:
        """Inclusive host seconds spent in the named calls."""
        return sum(agg[1] for (_, n, _), agg in self.totals.items() if n in names)

    def child_calls(self, name: str) -> int:
        """Calls made directly from inside `name`."""
        return sum(agg[0] for (_, _, p), agg in self.totals.items() if p == name)

    def self_seconds(self, name: str) -> float:
        """Seconds in `name` not covered by its direct child spans."""
        children = sum(agg[1] for (_, _, p), agg in self.totals.items() if p == name)
        return self.seconds(name) - children

    def to_dict(self) -> dict:
        return {
            "spans": [dict(zip(("name", "start", "end", "parent", "cell"), s))
                      for s in self.spans],
            "aggregates": [{"cell": c, "name": n, "parent": p, "calls": a[0], "seconds": a[1]}
                           for (c, n, p), a in self.totals.items()],
            "counts": dict(self.counts),
        }
