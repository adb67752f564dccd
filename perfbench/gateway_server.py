#!/usr/bin/env python3
"""The serving process of ``perception-served``.

Starts a ``RecognitionGateway`` backed by a 1-worker
``RecognitionService`` (canonical enrolment), prints ``{"port": N}``
and then obeys one command per stdin line:

* ``trace`` — start tracing the gateway queue and the service queue
  (``--trace`` runs only; the observer is wired at start-up), then
  print ``{"tracing": true}`` (``false`` without ``--trace``);
* ``stats`` — print the layer figures since ``trace`` as one JSON line;
* ``quit`` (or end of input) — stop the gateway and the service, write
  the spans to ``--spans`` and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.gateway.scheduling import WeightedFairQueue  # noqa: E402
from repro.gateway.server import RecognitionGateway  # noqa: E402
from repro.recognition.pipeline import SaxSignRecognizer  # noqa: E402
from repro.service import RecognitionService, ServiceClassifier  # noqa: E402

from tracer import Tracer  # noqa: E402


class ServerTrace:
    """Queue-wait spans for the gateway and the service.

    A gateway request waits from ``WeightedFairQueue.push`` to ``pop``;
    a service request waits from ``RecognitionService.submit`` until
    the dispatcher flushes the batch holding it (the service queue is
    FIFO, so a flush of *n* closes the *n* oldest waits)."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.active = False
        self._pushed: dict[int, float] = {}
        self._submitted: deque = deque()
        self.baseline = None

    def start(self, service: RecognitionService, gateway: RecognitionGateway) -> None:
        trace = self
        tracer = self.tracer
        push, pop, submit = WeightedFairQueue.push, WeightedFairQueue.pop, RecognitionService.submit

        def traced_push(queue, tenant, item):
            trace._pushed[id(item)] = time.perf_counter()
            tracer.count("gateway.admitted")
            return push(queue, tenant, item)

        def traced_pop(queue):
            popped = pop(queue)
            if popped is not None:
                pushed = trace._pushed.pop(id(popped[1]), None)
                if pushed is not None:
                    tag = popped[1].request_id
                    tracer.add_span("gateway.queue", pushed, time.perf_counter(), tag)
            return popped

        def traced_submit(svc, *args, **kwargs):
            trace._submitted.append(time.perf_counter())
            return submit(svc, *args, **kwargs)

        WeightedFairQueue.push = traced_push
        WeightedFairQueue.pop = traced_pop
        RecognitionService.submit = traced_submit
        self.baseline = (service.stats, gateway.stats)
        self.active = True

    def observe(self, event: str, data: dict) -> None:
        """Service observer: a batch flush ends its requests' waits."""
        if not self.active or event != "batch_flush":
            return
        now = time.perf_counter()
        for _ in range(data["size"]):
            if not self._submitted:
                break
            self.tracer.add_span("service.queue", self._submitted.popleft(), now)

    def figures(self, service: RecognitionService, gateway: RecognitionGateway) -> dict:
        """The service and gateway layer metrics since :meth:`start`."""
        if self.baseline is None:
            return {}
        svc0, gw0 = self.baseline
        svc, gw = service.stats, gateway.stats
        batches = svc.batches - svc0.batches
        filled = sum(f * c for f, c in svc.batch_fill.items()) - sum(
            f * c for f, c in svc0.batch_fill.items()
        )
        spans = self.tracer.summary()
        return {
            "service.batches": batches,
            "service.batch_fill": filled / batches if batches else 0.0,
            "service.queue_wait_ms": _mean_ms(spans.durations("service.queue")),
            "service.worker_busy_s": sum(s.busy_s for s in svc.shards)
            - sum(s.busy_s for s in svc0.shards),
            "gateway.admitted": self.tracer.counters["gateway.admitted"],
            "gateway.shed": gw.shed_total - gw0.shed_total,
            "gateway.queue_wait_ms": _mean_ms(spans.durations("gateway.queue")),
        }


def _mean_ms(durations) -> float:
    return float(durations.mean()) * 1e3 if len(durations) else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="perception-served gateway process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    warnings.simplefilter("error", DeprecationWarning)
    trace = ServerTrace() if args.trace else None
    recognizer = SaxSignRecognizer()
    recognizer.enroll_canonical_views()
    service = RecognitionService(
        recognizer.database,
        workers=1,
        observer=trace.observe if trace is not None else None,
    ).start()
    gateway = RecognitionGateway([ServiceClassifier(service, owns_service=True)], own_backends=True)
    try:
        gateway.start()
        print(json.dumps({"port": gateway.address[1]}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                if trace is not None:
                    trace.start(service, gateway)
                print(json.dumps({"tracing": trace is not None}), flush=True)
            elif command == "stats":
                figures = trace.figures(service, gateway) if trace is not None else {}
                print(json.dumps(figures), flush=True)
            elif command == "quit":
                break
    finally:
        gateway.close()
        service.stop()
    if trace is not None and args.spans:
        trace.tracer.dump(Path(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
