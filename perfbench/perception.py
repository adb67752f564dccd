"""``perception-served``: cold-cache perception served by a gateway.

One closed-loop caller resolves seeded batches of 1-16 pairwise-distinct
observation queries through ``RecognizerPerception``'s public seams
(``query``, ``pending_misses``, ``render_batch``, ``preprocess_batch``,
``match_batch``).  Every query misses the result cache, so render,
preprocess and SAX match do the work and the world none.  The match
goes through the ``Classifier`` protocol to a ``GatewayClassifier``:
over TCP to a ``RecognitionGateway`` backed by a 1-worker
``RecognitionService`` in a separate process (``gateway_server.py``).
End-to-end call times are calibrated by the caller's host speed
(``common.HostClock``): render and preprocess, in the caller, take
about nine tenths of a call.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.gateway.client import GatewayClassifier
from repro.protocol.recognizer import RecognizerPerception
from repro.recognition.pipeline import SaxSignRecognizer

from common import OUT_DIR, HostClock, Result, median_setup, percentile, tail
from layers import layer_metrics, wrap_perception
from observations import SETTINGS, QuerySource
from parity import scalar_parity
from tracer import Tracer

HERE = Path(__file__).resolve().parent
PARITY_SAMPLES = 24
#: Calls whose usable series are re-sent and compared bit for bit.
WIRE_SAMPLES = 24
STOP_TIMEOUT_S = 30.0
#: Tail percentile of batch-call times.
TAIL_PERCENTILE = 90.0


class GatewayProcess:
    """The serving process (``gateway_server.py``), started and stopped."""

    def __init__(self, trace: bool, spans: Path | None = None) -> None:
        command = [sys.executable, str(HERE / "gateway_server.py")]
        if trace:
            command += ["--trace", "--spans", str(spans)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=HERE.parent
        )
        line = self.process.stdout.readline()
        try:
            self.port = json.loads(line)["port"]
        except (ValueError, KeyError):
            self.close()
            raise RuntimeError(f"gateway process did not start: {line!r}") from None

    def command(self, text: str, reply: bool = False):
        """Send one command line; with *reply*, read one JSON line back."""
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline()) if reply else None

    def close(self) -> None:
        """Ask the process to quit; kill it if it does not."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _same(a, b) -> bool:
    """Bit-identical ``MatchResult``s (floats compared by their bits)."""
    return (
        a.label == b.label
        and a.runner_up_label == b.runner_up_label
        and a.distance.hex() == b.distance.hex()
        and a.runner_up_distance.hex() == b.runner_up_distance.hex()
    )


def _correct(shown, verdict) -> bool:
    """A communicative sign must be read as itself; IDLE (no signal)
    must not be read as a communicative sign."""
    if shown.is_communicative:
        return verdict is shown
    return verdict is None or not verdict.is_communicative


class ServedRun:
    def __init__(self, seed: int, trace: bool) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.recognizer = SaxSignRecognizer()
        self.recognizer.enroll_canonical_views()
        spans = OUT_DIR / f"spans-perception-served-seed{seed}.npz"
        self.setup_s, self.server = median_setup(lambda: GatewayProcess(trace, spans))
        try:
            self.classifier = GatewayClassifier(
                "127.0.0.1", self.server.port, tenant="perception"
            )
        except OSError:
            self.server.close()
            raise

    def resolve(
        self, seconds: float, batches: list | None = None, host: HostClock | None = None
    ) -> dict:
        """Resolve fresh batches for *seconds* of host time (or exactly
        *batches*), each on an empty cache.  Call times are calibrated
        by *host* when given, else host times."""
        perception = RecognizerPerception(recognizer=self.recognizer, classifier=self.classifier)
        views = [perception.with_render_settings(settings) for settings in SETTINGS]
        source = QuerySource(self.seed)
        seen: set = set()
        out = {
            "calls": [], "frames": 0, "right": 0, "failed": 0,
            "resolved": [], "batches": [], "series": [],
        }
        elapsed = 0.0
        while (batches is None and elapsed < seconds) or (
            batches is not None and len(out["batches"]) < len(batches)
        ):
            batch = batches[len(out["batches"])] if batches is not None else source.batch()
            start = time.perf_counter()
            queries = [views[s].query(camera, human) for camera, human, s in batch]
            misses = perception.pending_misses(queries)
            frames = perception.render_batch(misses)
            pres = perception.preprocess_batch(misses, frames)
            verdicts = perception.match_batch(misses, pres)
            call_s = time.perf_counter() - start
            elapsed += call_s
            out["calls"].append(host.scale(call_s) if host is not None else call_s)
            out["batches"].append(batch)
            out["series"].append([pre.series for pre in pres if pre.ok])
            fresh = None not in queries and not seen.intersection(queries)
            if not fresh or len(misses) != len(queries):
                out["failed"] += len(batch)
                continue
            seen.update(queries)
            out["frames"] += len(queries)
            out["resolved"].extend(zip(queries, verdicts))
            out["right"] += sum(
                _correct(human.current_sign, verdict)
                for (_, human, _), verdict in zip(batch, verdicts)
            )
        out["elapsed"] = elapsed
        return out

    def wire_parity(self, series_batches) -> tuple[int, int]:
        """Re-send a seeded sample of calls' series through the gateway;
        every reply must be bit-identical to in-process ``classify_batch``."""
        database = self.recognizer.database
        sample = [s for s in series_batches if s]
        wrong = 0
        for series in self.rng.sample(sample, min(WIRE_SAMPLES, len(sample))):
            got = self.classifier.classify_batch(series)
            want = database.classify_batch(series)
            wrong += len(got) != len(want) or not all(map(_same, got, want))
        return min(WIRE_SAMPLES, len(sample)), wrong

    def untraced(self, seconds: float) -> Result:
        host = HostClock()
        out = self.resolve(seconds, host=host)
        checked, unreproduced, mismatches = scalar_parity(
            self.recognizer, out["resolved"], self.rng, PARITY_SAMPLES
        )
        sent, wrong = self.wire_parity(out["series"])
        calls = out["calls"]
        attempted = out["frames"] + out["failed"] + checked + sent
        failed = out["failed"] + unreproduced + mismatches + wrong
        frames_per_s = out["frames"] / sum(calls)
        call_p50 = percentile(calls, 50.0) * 1e3
        call_tail = tail(calls, TAIL_PERCENTILE) * 1e3
        return Result(
            attempted=attempted,
            failed=failed,
            correct=failed == 0,
            metrics={
                "setup_s": (self.setup_s, "s"),
                "throughput_per_s": (frames_per_s, "1/s"),
                "latency_p50_ms": (call_p50, "ms"),
                "latency_tail_ms": (call_tail, "ms"),
                "ok_frac": ((attempted - failed) / attempted, "ratio"),
            },
            detail={
                "calls": len(calls),
                "call_s": out["elapsed"],
                "calibrated_call_s": sum(calls),
                "probe_p50_ms": percentile(host.probes, 50.0) * 1e3,
                "frames": out["frames"],
                "mean_batch": statistics.fmean(len(b) for b in out["batches"]),
                "parity_checked": checked,
                "parity_unreproduced": unreproduced,
                "parity_mismatches": mismatches,
                "wire_checked": sent,
                "wire_mismatches": wrong,
                "frames_per_s": (frames_per_s, "1/s"),
                "call_p50_ms": (call_p50, "ms"),
                "call_p90_ms": (call_tail, "ms"),
                "accuracy": (out["right"] / out["frames"], "ratio"),
            },
        )

    def traced(self, seconds: float) -> Result:
        """Half the time untraced, then the same batches traced (in this
        process and in the gateway process) on a fresh cache."""
        plain = self.resolve(seconds / 2.0)
        # The server replies once its wrappers are in place, so no
        # traced request can race the start of tracing.
        if not self.server.command("trace", reply=True).get("tracing"):
            raise RuntimeError("gateway process did not start tracing")
        tracer = Tracer()
        wrap_perception(tracer)
        start = time.perf_counter()
        try:
            traced = self.resolve(0.0, batches=plain["batches"])
        finally:
            tracer.unwrap_all()
        wall_s = time.perf_counter() - start
        figures = self.server.command("stats", reply=True)
        tracer.dump(OUT_DIR / f"spans-perception-served-caller-seed{self.seed}.npz")
        overhead = (plain["frames"] / plain["elapsed"]) / (traced["frames"] / traced["elapsed"])
        metrics = layer_metrics(tracer, wall_s=wall_s, overhead_frac=overhead - 1.0, extra=figures)
        attempted = plain["frames"] + traced["frames"] + plain["failed"] + traced["failed"]
        failed = plain["failed"] + traced["failed"]
        return Result(attempted, failed, failed == 0, metrics, {"spans": len(tracer.name_ids)})

    def close(self) -> None:
        self.classifier.close()
        self.server.close()


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    runner = ServedRun(seed, trace)
    try:
        return runner.traced(seconds) if trace else runner.untraced(seconds)
    finally:
        runner.close()
