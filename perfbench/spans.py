"""Spans around calls into each layer of ``pppca``, and the per-layer metrics
derived from them.

A :class:`Tracer` replaces each traced public function in the namespace
where the session code looks it up (``share_matrix`` in ``pppca.protocol``,
``encrypt`` in ``pppca.paillier``, ``send`` on ``TcpEndpoint``, ...) by a
wrapper that records one span per call: name, session, thread, parent span,
wall start and end, and thread CPU start and end.  Thread CPU time
(``time.thread_time``) is used for busy time because the role threads share
the interpreter lock, so wall time would charge a call for the time other
threads held it.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import pppca.encoding as encoding
import pppca.linalg as linalg
import pppca.paillier as paillier
import pppca.protocol as protocol
import pppca.transport as transport
from pppca.messages import header_size


def _gram_macs(args, result):
    rows, cols = args[0].shape
    return rows * cols * (cols + 1) // 2  # computed, not counted inside gram


def _fixed_values(args, result):
    return args[0].size


def _shares_drawn(args, result):
    ring, parties = args[0], args[1]
    return len(ring) * len(ring[0]) * (parties - 1)


def _encoded_bytes(args, result):
    return len(result)


def _decoded_bytes(args, result):
    return len(args[0])


def _frame_bytes(args, result):
    return header_size() + len(args[1].payload)


# (owner, attribute, span name, amount recorded per call).  Role ``run``
# methods are the parents of the layer spans on their threads.
TARGETS = [
    (paillier, "keygen", "paillier.keygen", None),
    (paillier, "encrypt", "paillier.encrypt", None),
    (paillier, "decrypt", "paillier.decrypt", None),
    (paillier, "add_enc_matrix", "paillier.fold", None),
    (paillier, "encode_float", "encoding.float_encode", None),
    (encoding.EncodedFloat, "decode", "encoding.float_decode", None),
    (protocol, "matrix_encode_fixed", "encoding.fixed_encode", _fixed_values),
    (protocol, "matrix_decode_fixed", "encoding.fixed_decode", None),
    (linalg, "gram", "linalg.gram", _gram_macs),
    (linalg, "column_sums", "linalg.column_sums", None),
    (linalg, "jacobi_eigh", "linalg.jacobi", None),
    (linalg, "project", "linalg.project", None),
    (protocol, "share_matrix", "sharing.share", _shares_drawn),
    (protocol, "add_local_matrix", "sharing.local_sum", None),
    (protocol, "reconstruct_matrix", "sharing.reconstruct", None),
    (protocol, "encode_share_matrix", "messages.share_codec", _encoded_bytes),
    (protocol, "decode_share_matrix", "messages.share_codec", _decoded_bytes),
    (protocol, "encode_real_matrix", "messages.real_codec", _encoded_bytes),
    (protocol, "decode_real_matrix", "messages.real_codec", _decoded_bytes),
    (protocol, "encode_encrypted_matrix", "messages.cipher_codec", _encoded_bytes),
    (protocol, "decode_encrypted_matrix", "messages.cipher_codec", _decoded_bytes),
    (transport.TcpEndpoint, "send", "transport.send", _frame_bytes),
    (transport.TcpEndpoint, "recv", "transport.recv", None),
    (protocol.ServerRole, "run", "protocol.server", None),
    (protocol.ProviderRole, "run", "protocol.provider", None),
    (protocol.ConsumerRole, "run", "protocol.consumer", None),
]

ROLE_SPANS = ("protocol.server", "protocol.provider", "protocol.consumer")

# (metric, unit, better, span name, quantity).  Quantities: "self" is thread
# CPU minus that of child spans, "cpu" the busy time of the slowest thread,
# "wall" elapsed time, "calls" the span count and "amount" the summed amount.
LAYER_METRICS = [
    ("paillier.keygen_s", "s", "lower", "paillier.keygen", "self"),
    ("paillier.encrypt_s", "s", "lower", "paillier.encrypt", "self"),
    ("paillier.encryptions", "count", "lower", "paillier.encrypt", "calls"),
    ("paillier.decrypt_s", "s", "lower", "paillier.decrypt", "self"),
    ("paillier.decryptions", "count", "lower", "paillier.decrypt", "calls"),
    ("paillier.fold_s", "s", "lower", "paillier.fold", "self"),
    ("encoding.float_encode_s", "s", "lower", "encoding.float_encode", "self"),
    ("encoding.float_decode_s", "s", "lower", "encoding.float_decode", "self"),
    ("encoding.fixed_encode_s", "s", "lower", "encoding.fixed_encode", "self"),
    ("encoding.fixed_values", "count", "lower", "encoding.fixed_encode", "amount"),
    ("encoding.fixed_decode_s", "s", "lower", "encoding.fixed_decode", "self"),
    ("linalg.gram_s", "s", "lower", "linalg.gram", "self"),
    ("linalg.gram_macs", "count", "lower", "linalg.gram", "amount"),
    ("linalg.column_sums_s", "s", "lower", "linalg.column_sums", "self"),
    ("linalg.jacobi_s", "s", "lower", "linalg.jacobi", "self"),
    ("linalg.project_s", "s", "lower", "linalg.project", "self"),
    ("sharing.share_s", "s", "lower", "sharing.share", "self"),
    ("sharing.shares_drawn", "count", "lower", "sharing.share", "amount"),
    ("sharing.local_sum_s", "s", "lower", "sharing.local_sum", "self"),
    ("sharing.reconstruct_s", "s", "lower", "sharing.reconstruct", "self"),
    ("messages.share_codec_s", "s", "lower", "messages.share_codec", "self"),
    ("messages.share_codec_bytes", "B", "lower", "messages.share_codec", "amount"),
    ("messages.real_codec_s", "s", "lower", "messages.real_codec", "self"),
    ("messages.real_codec_bytes", "B", "lower", "messages.real_codec", "amount"),
    ("messages.cipher_codec_s", "s", "lower", "messages.cipher_codec", "self"),
    ("messages.cipher_codec_bytes", "B", "lower", "messages.cipher_codec", "amount"),
    ("transport.frames_sent", "count", "lower", "transport.send", "calls"),
    ("transport.bytes_sent", "B", "lower", "transport.send", "amount"),
    ("transport.send_s", "s", "lower", "transport.send", "self"),
    ("transport.recv_wait_s", "s", "lower", "transport.recv", "wall"),
    ("protocol.server_busy_s", "s", "lower", "protocol.server", "cpu"),
    ("protocol.provider_busy_s", "s", "lower", "protocol.provider", "cpu"),
    ("protocol.consumer_busy_s", "s", "lower", "protocol.consumer", "cpu"),
]

# Reported by the traced run beside the layer metrics.
RUN_METRICS = [
    ("trace.session_s", "s", "lower"),
    ("trace.role_cpu_covered", "%", "higher"),
]


@dataclass
class Span:
    id: int
    name: str
    session: int
    thread: str
    parent: int | None  # id of the enclosing span on the same thread
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    amount: int = 0


class Tracer:
    """Installs the wrappers while in use, and collects spans.

    ``session`` tags the spans of the session now running; sessions run one
    after another.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.session = 0
        self._ids = itertools.count()  # next() is atomic across threads
        self._open = threading.local()
        self._restore = []

    def _wrap(self, original, name, amount_of):
        spans, local = self.spans, self._open

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(
                next(self._ids), name, self.session, threading.current_thread().name,
                stack[-1].id if stack else None,
                time.perf_counter(), 0.0, time.thread_time(), 0.0,
            )
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.cpu_end = time.thread_time()
                span.end = time.perf_counter()
                stack.pop()
            if amount_of is not None:
                span.amount = amount_of(args, result)
            return result

        return traced

    def recording(self, session: int) -> "Tracer":
        """Tag the coming spans with ``session``; use as a context manager."""
        self.session = session
        return self

    def __enter__(self):
        for owner, attr, name, amount_of in TARGETS:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, amount_of))
            self._restore.append((owner, attr, original if own else None))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)  # inherited: uncover the base class's
            else:
                setattr(owner, attr, original)
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Thread CPU of each span minus the part its child spans cover."""
    own = {s.id: s.cpu_end - s.cpu_start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.cpu_end - s.cpu_start
    return [own[s.id] for s in spans]


def session_metrics(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per-layer metrics of each traced session, keyed by session."""
    own = self_times(spans)
    totals: dict[int, dict[tuple[str, str], float]] = defaultdict(lambda: defaultdict(float))
    busy: dict[int, dict[tuple[str, str], float]] = defaultdict(lambda: defaultdict(float))
    for s, self_cpu in zip(spans, own):
        t = totals[s.session]
        t[s.name, "self"] += self_cpu
        t[s.name, "wall"] += s.end - s.start
        t[s.name, "calls"] += 1
        t[s.name, "amount"] += s.amount
        busy[s.session][s.name, s.thread] += s.cpu_end - s.cpu_start
        if s.name not in ROLE_SPANS:
            t["covered", "self"] += self_cpu
    out = {}
    for session, t in totals.items():
        per_thread = busy[session]
        metrics = {}
        for metric, _, _, name, quantity in LAYER_METRICS:
            if quantity == "cpu":
                metrics[metric] = max(
                    (v for (n, _), v in per_thread.items() if n == name), default=0.0
                )
            else:
                metrics[metric] = t[name, quantity]
        role_cpu = sum(v for (n, _), v in per_thread.items() if n in ROLE_SPANS)
        metrics["trace.role_cpu_covered"] = 100.0 * t["covered", "self"] / role_cpu
        out[session] = metrics
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Totals over the whole run per span name: calls, wall, CPU, self CPU."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, self_cpu in zip(spans, own):
        row = table[s.name]
        row["calls"] += 1
        row["wall_s"] += s.end - s.start
        row["cpu_s"] += s.cpu_end - s.cpu_start
        row["self_cpu_s"] += self_cpu
        row["amount"] += s.amount
    return {name: dict(row) for name, row in sorted(table.items())}


def layer_report(spans: list[Span], session_s: list[float]) -> dict[str, dict]:
    """Every per-layer metric as the median over the traced sessions."""
    per_session = list(session_metrics(spans).values())
    report = {}
    for metric, unit, *_ in LAYER_METRICS + RUN_METRICS:
        values = session_s if metric == "trace.session_s" else [m[metric] for m in per_session]
        report[metric] = {"value": statistics.median(values), "unit": unit}
    return report
