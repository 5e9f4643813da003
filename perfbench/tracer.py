"""Spans and exact counts around the package's public functions.

``install`` replaces each traced function with a wrapper in every ``anoncka``
module namespace that binds it, because ``from .qsim import measure`` and the
like copy the function into the importing module and calls made through that
copy would otherwise escape the trace. Methods and classmethods are patched
on their class. The returned callable restores every original.

A span is (id, parent id, name, start, end). Self time is a span's duration
minus the time covered by its child spans. Aggregates are kept for every
span; the span records themselves are kept for the first ``SPAN_LOG_LIMIT``
spans only, so a long traced run stays small in memory.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable

import numpy as np

from spec import PER_LAYER

SPAN_LOG_LIMIT = 50_000

# (module, function, span name) for plain functions.
FUNCTIONS = (
    ("qsim", "measure", "qsim.measure"),
    ("qsim", "sample_ensemble", "qsim.sample_ensemble"),
    ("qsim", "apply_pauli_z", "qsim.apply_pauli_z"),
    ("qsim", "reorder_qubits", "qsim.reorder_qubits"),
    ("qsim", "werner_ghz", "qsim.werner_ghz"),
    ("qsim", "density_from_ensemble", "qsim.density_from_ensemble"),
    ("qsim", "trace_distance", "qsim.trace_distance"),
    ("netmodel", "extract_view", "netmodel.extract_view"),
    ("protocols", "verification", "protocols.verification"),
    ("protocols", "notification", "protocols.notification"),
    ("protocols", "ame", "protocols.ame"),
    ("protocols", "avka", "protocols.avka"),
    ("adversary", "run_with_adversary", "adversary.run_with_adversary"),
    ("analysis", "check_theorem1", "analysis.check_theorem1"),
    ("analysis", "estimate_anonymity_tvd", "analysis.estimate_anonymity_tvd"),
    ("analysis", "serialize_view", "analysis.serialize_view"),
    ("analysis", "parity_projection", "analysis.parity_projection"),
    ("cli", "main", "cli.main"),
)

MODULES = ("qsim", "netmodel", "protocols", "adversary", "analysis", "cli", "rng")

# Spans whose per-call durations are kept for a median.
KEEP_DURATIONS = frozenset(
    name.rsplit(".", 1)[0] for name in PER_LAYER if name.endswith(".us_p50")
)

class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "durations")

    def __init__(self, keep: bool):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations: list[float] | None = [] if keep else None


class CountingGenerator:
    """Forwards to a numpy Generator and counts the values each draw returns."""

    def __init__(self, gen: np.random.Generator, counts: dict, key: str):
        self._gen = gen
        self._counts = counts
        self._key = key

    def _counted(self, out):
        self._counts[self._key] += out.size if isinstance(out, np.ndarray) else 1
        return out

    def random(self, *args, **kwargs):
        return self._counted(self._gen.random(*args, **kwargs))

    def integers(self, *args, **kwargs):
        return self._counted(self._gen.integers(*args, **kwargs))

    def permutation(self, *args, **kwargs):
        return self._counted(self._gen.permutation(*args, **kwargs))

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def forward(*args, **kwargs):
            return self._counted(attr(*args, **kwargs))

        return forward


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.ame_rounds_in_avka = 0
        self._stack: list[list] = []  # [span id, child seconds, name]
        self._next_id = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, _Stat(name in KEEP_DURATIONS))
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if stat.durations is not None:
                    stat.durations.append(duration)
                if parent is not None:
                    parent[1] += duration
                    if name == "protocols.ame" and parent[2] == "protocols.avka":
                        self.ame_rounds_in_avka += 1
                if len(spans) < SPAN_LOG_LIMIT:
                    spans.append((span_id, None if parent is None else parent[0], name, start, end))
                else:
                    self.spans_dropped += 1

        traced.__wrapped__ = fn
        return traced

    def counting_bundle(self, bundle):
        counts = self.counts

        def proxy(gen, stream):
            return CountingGenerator(gen, counts, f"rng.draws.{stream}")

        return type(bundle)(
            parties=tuple(proxy(g, "party") for g in bundle.parties),
            network=proxy(bundle.network, "network"),
            coin=proxy(bundle.coin, "coin"),
            source=proxy(bundle.source, "source"),
            adversary=proxy(bundle.adversary, "adversary"),
        )

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``spec.PER_LAYER`` except the overhead ratio."""
        out: dict[str, float] = {}
        for name in PER_LAYER:
            if name == "bench.trace_overhead_ratio":
                continue
            layer, _, field = name.rpartition(".")
            stat = self.stats.get(layer)
            if name == "protocols.avka.round_us":
                rounds = self.ame_rounds_in_avka
                out[name] = stat.total_s / rounds * 1e6 if stat and rounds else 0.0
            elif field in ("calls", "constructions"):
                out[name] = stat.calls if stat else 0
            elif field == "self_s":
                out[name] = stat.self_s if stat else 0.0
            elif field == "us_p50":
                out[name] = statistics.median(stat.durations) * 1e6 if stat and stat.durations else 0.0
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "start": start, "end": end}))
                fh.write("\n")
            if self.spans_dropped:
                fh.write(json.dumps({"dropped": self.spans_dropped}) + "\n")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced functions everywhere they are bound; return the undo."""
    modules = [importlib.import_module("anoncka")]
    modules += [importlib.import_module(f"anoncka.{m}") for m in MODULES]
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for module, func, span in FUNCTIONS:
        original = getattr(importlib.import_module(f"anoncka.{module}"), func)
        wrapped = tracer.wrap(span, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    patch(m, attr, wrapped)

    from anoncka.netmodel import Network
    from anoncka.qsim import StateVector
    from anoncka.rng import RngBundle

    counts = tracer.counts

    validate = StateVector.__post_init__

    def post_init(self):
        validate(self)
        counts["qsim.statevector.amps_validated"] += 2**self.n_qubits

    patch(StateVector, "__post_init__", tracer.wrap("qsim.statevector", post_init))
    patch(Network, "__init__", tracer.wrap("netmodel.network", Network.__init__))

    def channel(name: str, method: Callable, entries: Callable[[object], int]) -> Callable:
        def counted(net, *args, **kwargs):
            c = net.counters
            private, broadcast = c.private_bits_sent, c.broadcast_bits_sent
            out = method(net, *args, **kwargs)
            counts["netmodel.private_bits"] += c.private_bits_sent - private
            counts["netmodel.broadcast_bits"] += c.broadcast_bits_sent - broadcast
            counts["netmodel.transcript_entries"] += entries(out)
            return out

        return tracer.wrap(name, counted)

    one = lambda out: 1
    patch(Network, "send_private", channel("netmodel.send_private", Network.send_private, one))
    patch(Network, "keep_share", channel("netmodel.keep_share", Network.keep_share, one))
    patch(Network, "broadcast_round", channel("netmodel.broadcast_round", Network.broadcast_round, len))
    patch(Network, "broadcast_public", channel("netmodel.broadcast_public", Network.broadcast_public, one))

    for ctor in ("from_seed", "from_generator"):
        build = RngBundle.__dict__[ctor].__func__

        def counted_ctor(cls, *args, _build=build, **kwargs):
            return tracer.counting_bundle(_build(cls, *args, **kwargs))

        patch(RngBundle, ctor, classmethod(tracer.wrap("rng.bundle", counted_ctor)))

    def undo() -> None:
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)

    return undo
