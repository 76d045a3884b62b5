"""Running one op, checking its output, and fingerprinting it.

An op runs either untraced, through the public entry points a user calls
(``run_method`` and the self-contained tests), or traced, through the
public ``gmeans_family`` / ``dipmeans_family`` with a timing subclass of
the same criterion ``run_method`` would pass. Both paths must give the
same fingerprint: the split-log statistics and decisions plus the
assignment, or the test's statistic, p-value and decision.
"""

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from sigcluster import (
    ADCriterion,
    DipViewerCriterion,
    SigtestConfig,
    SigtestCriterion,
    ari,
    dipmeans_family,
    gmeans_family,
)

from workloads import Op, call_cluster, call_test


class CheckFailed(Exception):
    """An op returned output that violates an invariant."""


@dataclass
class Outcome:
    """What one op produced, kept for the checks and the quality metrics."""

    fingerprint: str
    rejects: tuple = ()          # test decisions, one per input
    ks: tuple = ()               # (k, k_true) per clustered dataset
    aris: tuple = ()
    records: int = 0             # split-log records
    accepted: int = 0            # splits accepted


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def check_clustering(result, data) -> None:
    """The invariants every clustering result must satisfy."""
    if result.replayed_k() != result.k:
        raise CheckFailed(f"{data.name}: replayed_k {result.replayed_k()} != k {result.k}")
    a = np.asarray(result.assignment)
    if a.shape != (data.n,):
        raise CheckFailed(f"{data.name}: assignment shape {a.shape}")
    if a.min() < 0 or a.max() >= result.k:
        raise CheckFailed(f"{data.name}: labels outside [0, {result.k})")


def cluster_parts(result):
    parts = [result.k, np.asarray(result.assignment, dtype=np.int64).tobytes()]
    for rec in result.split_log:
        parts.append((rec.round, rec.cluster_id, rec.criterion,
                      float(rec.statistic).hex(), rec.decision, rec.accepted, rec.n))
    return parts


def _finish_cluster(results, inputs) -> Outcome:
    parts, ks, aris, records, accepted = [], [], [], 0, 0
    for result, (data, k_true, _) in zip(results, inputs):
        check_clustering(result, data)
        parts += cluster_parts(result)
        ks.append((result.k, k_true))
        aris.append(ari(result.assignment, data.labels))
        records += len(result.split_log)
        accepted += sum(rec.accepted for rec in result.split_log)
    return Outcome(_digest(parts), ks=tuple(ks), aris=tuple(aris),
                   records=records, accepted=accepted)


def _finish_test(stat, p, reject) -> Outcome:
    return Outcome(_digest([float(stat).hex(), p, bool(reject)]), rejects=(bool(reject),))


def _finish(op: Op, raw) -> Outcome:
    if op.is_test:
        return _finish_test(*raw)
    return _finish_cluster(raw, op.inputs)


def run_op(op: Op):
    """Untraced: the public calls a user makes. Returns (seconds, outcome);
    only the library calls are inside the timed interval."""
    t0 = time.perf_counter()
    if op.is_test:
        raw = call_test(op.kind, op.inputs[0])
    else:
        raw = [call_cluster(op.kind, d, s) for d, _, s in op.inputs]
    elapsed = time.perf_counter() - t0
    return elapsed, _finish(op, raw)


# --- traced path -------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    reject: bool | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans kept in memory; written out once the run ends."""

    spans: list = field(default_factory=list)
    _op_span: int | None = None
    _op_id: int = -1

    def begin_op(self, name: str, op_id: int) -> None:
        self._op_id = op_id
        self._op_span = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, None, op_id))

    def end_op(self) -> Span:
        span = self.spans[self._op_span]
        span.end = time.perf_counter()
        self._op_span = None
        return span

    def child(self, name: str, start: float, end: float, reject=None) -> None:
        self.spans.append(Span(name, start, end, self._op_span, self._op_id, reject))


class _Timed:
    """Records a 'criterion' span around every call of the criterion."""

    def test(self, y):
        t0 = time.perf_counter()
        stat, reject = super().test(y)
        self.tracer.child(f"criterion.{self.name}", t0, time.perf_counter(), bool(reject))
        return stat, reject


@dataclass(frozen=True)
class TimedAD(_Timed, ADCriterion):
    tracer: Tracer = field(default=None, compare=False)


@dataclass(frozen=True)
class TimedSigtest(_Timed, SigtestCriterion):
    tracer: Tracer = field(default=None, compare=False)


@dataclass(frozen=True)
class TimedDipViewer(_Timed, DipViewerCriterion):
    tracer: Tracer = field(default=None, compare=False)


def _traced_family(kind: str, data, run_seed: int, tracer: Tracer):
    """The family call run_method makes, with the timing criterion."""
    if kind == "gmeans":
        return gmeans_family(data, TimedAD(tracer=tracer), run_seed)
    if kind == "gmeans+":
        return gmeans_family(data, TimedSigtest(SigtestConfig(), tracer=tracer), run_seed)
    if kind == "dipmeans":
        return dipmeans_family(data, TimedDipViewer(tracer=tracer), run_seed)
    if kind == "dipmeans+":
        return dipmeans_family(data, TimedSigtest(SigtestConfig(), tracer=tracer), run_seed)
    raise ValueError(kind)


def run_op_traced(op: Op, op_id: int, tracer: Tracer):
    tracer.begin_op(op.kind, op_id)
    try:
        if op.is_test:
            raw = call_test(op.kind, op.inputs[0])
        else:
            raw = [_traced_family(op.kind, d, s, tracer) for d, _, s in op.inputs]
    finally:
        span = tracer.end_op()
    return span.duration, _finish(op, raw)
