"""The two fleet workloads: ``fleet-orchard`` and ``surveillance-recorded``.

Both build fleets only through ``FleetSpec`` on the sync executor with
the in-process recognizer, run each fleet to completion, and repeat
with the next seeded fleet until the run's time is used up.  Build
time is set-up, not run time.  The end-to-end figures are calibrated:
each tick's and each build's host time is scaled to the reference
host's speed (``common.HostClock``).
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from repro.mission.fleet import FleetSpec, build_fleet
from repro.mission.orchard import OrchardConfig
from repro.mission.surveillance import SurveillancePhase, build_surveillance_fleet
from repro.protocol.negotiation import NegotiationConfig
from repro.protocol.recognizer import RecognizerPerception
from repro.recorder import FlightRecorder, read_lines
from repro.recorder.events import is_deterministic, parse_line

from common import (
    OUT_DIR,
    REFERENCE_PROBE_S,
    HostClock,
    Result,
    percentile,
    probe_s,
    samples_for_tail,
    tail,
)
from layers import layer_metrics, wrap_fleet, wrap_graph_nodes
from parity import scalar_parity
from tracer import Tracer

#: Missions per fleet.  Fleets repeat until the run's time is used up.
#: Four orchard missions keep T-FLEET's (16 missions) layer split closer
#: than two do (README.md, "Fleet size") and leave room for a
#: mission-partitioned fleet of two or more processes.
ORCHARD_FLEET_SIZE = 4
GUARD_FLEET_SIZE = 3
#: Fleets built per run at the least, so set-up has a median of nine.
MIN_BUILDS = 9
#: Cache-miss queries per fleet re-resolved on the scalar path.
PARITY_SAMPLES = 6
FLEET_TIMEOUT_TICKS = 200_000

# The T-FLEET shape: small dense orchards, every trap blocked by a
# worker, 25 Hz observation while waiting for an answer.
ORCHARD = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
    seed=0,
)
NEGOTIATION = NegotiationConfig(observe_interval_s=0.04)

# Compact patrol orchard; three intruders released 1.5 s apart.
GUARD_ORCHARD = OrchardConfig(
    rows=2,
    trees_per_row=4,
    traps_per_row=0,
    workers=1,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=0.0,
)
INTRUDERS = 3
BURST_START_S = 4.0
BURST_SPACING_S = 1.5


@contextmanager
def captured_matches(sink: list):
    """Collect every ``(query, verdict)`` the fleet's match stage resolves.

    One extra call per match batch (a few hundred per fleet), so the
    untraced runs keep it too; it is how the parity check finds the
    fleet's real cache-miss queries."""
    original = RecognizerPerception.match_batch

    def match_batch(self, misses, pres):
        signs = original(self, misses, pres)
        sink.extend(zip(misses, signs))
        return signs

    RecognizerPerception.match_batch = match_batch
    try:
        yield sink
    finally:
        RecognizerPerception.match_batch = original


def _drive(fleet, tick_times: list, host: HostClock | None = None) -> tuple[int, float]:
    """Run *fleet* to completion; returns ``(active mission-ticks
    stepped, summed tick time)``.

    *tick_times* gets the time of every tick on which the whole fleet
    was still flying (the tail with fewer missions is excluded, so the
    figure does not depend on how missions finish).  With *host*, tick
    times are calibrated by it; without, they are host times."""
    fleet.start()
    size = active = len(fleet.missions)
    stepped = 0
    ticks_s = 0.0
    clock = time.perf_counter
    while not fleet.finished:
        if fleet.ticks >= FLEET_TIMEOUT_TICKS:
            raise TimeoutError(f"fleet still flying after {fleet.ticks} ticks")
        start = clock()
        still = fleet.tick()
        elapsed = clock() - start
        if host is not None:
            elapsed = host.scale(elapsed)
        ticks_s += elapsed
        if active == size:
            tick_times.append(elapsed)
        stepped += active
        active = still
    return stepped, ticks_s


class _FleetRun:
    """Shared loop of both fleet workloads; subclasses build and check."""

    name = ""
    fleet_size = 1
    recorded = False
    #: Tail percentile of full-fleet tick times, fixed per workload so
    #: it lands among the ticks that render frames (README.md).
    tail_percentile = 99.9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.build_times: list[float] = []
        self.temp_dir = tempfile.mkdtemp(prefix="perfbench-", dir=OUT_DIR)

    def base_seed(self, index: int) -> int:
        return self.seed * 1000 + index * self.fleet_size

    def build(self, index: int):
        raise NotImplementedError

    def check(self, fleet, report, resolved) -> tuple[int, int]:
        """Returns ``(ops attempted, ops failed)`` for one finished fleet."""
        raise NotImplementedError

    def timed_build(self, index: int, tracer: Tracer | None = None):
        """Build fleet *index*, recording its calibrated build time."""
        factor = REFERENCE_PROBE_S / probe_s()
        start = time.perf_counter()
        fleet = self.build(index)
        self.build_times.append((time.perf_counter() - start) * factor)
        if tracer is not None:
            wrap_graph_nodes(tracer, fleet.graph)
        return fleet

    def run_fleets(
        self,
        seconds: float,
        tracer: Tracer | None = None,
        count: int | None = None,
        host: HostClock | None = None,
    ):
        """Run fleets until *seconds* of fleet time have passed and the
        full-fleet ticks suffice for the tail percentile, or *count* fleets.

        Returns a dict of totals; build time is excluded from ``run_s``
        (host time) and ``ticks_s`` (summed tick time, calibrated by
        *host* when given)."""
        totals = {
            "fleets": 0, "mission_ticks": 0, "run_s": 0.0, "ticks_s": 0.0,
            "attempted": 0, "failed": 0,
        }
        tick_times: list[float] = []
        self.tally = defaultdict(float)
        self.resolution_s: list[float] = []
        # A traced run records spans only while fleets fly: building and
        # checking a fleet stay out of the traced window, as out of run_s.
        outside = tracer.paused if tracer is not None else nullcontext
        needed = samples_for_tail(self.tail_percentile)
        while (
            count is None and (totals["run_s"] < seconds or len(tick_times) < needed)
        ) or (count is not None and totals["fleets"] < count):
            index = totals["fleets"]
            with outside():
                fleet = self.timed_build(index, tracer)
            resolved: list = []
            with captured_matches(resolved):
                start = time.perf_counter()
                try:
                    stepped, ticks_s = _drive(fleet, tick_times, host)
                    totals["mission_ticks"] += stepped
                    totals["ticks_s"] += ticks_s
                    report = fleet.report()
                finally:
                    fleet.close()
                totals["run_s"] += time.perf_counter() - start
            with outside():
                attempted, failed = self.check(fleet, report, resolved)
            totals["attempted"] += attempted
            totals["failed"] += failed
            totals["fleets"] += 1
        totals["tick_times"] = tick_times
        return totals

    def setup_s(self) -> float:
        while len(self.build_times) < MIN_BUILDS:
            self.timed_build(len(self.build_times)).close()
        return statistics.median(self.build_times)

    def close(self) -> None:
        shutil.rmtree(self.temp_dir, ignore_errors=True)

    # -- the two modes ---------------------------------------------------------------

    def untraced(self, seconds: float) -> Result:
        host = HostClock()
        totals = self.run_fleets(seconds, host=host)
        ticks = totals["tick_times"]
        detail = self.quality()
        detail.update(
            fleets=totals["fleets"],
            missions=totals["fleets"] * self.fleet_size,
            mission_ticks=totals["mission_ticks"],
            full_fleet_ticks=len(ticks),
            run_s=totals["run_s"],
            ticks_s=totals["ticks_s"],
            probes=len(host.probes),
            probe_p50_ms=percentile(host.probes, 50.0) * 1e3,
            probe_p90_ms=percentile(host.probes, 90.0) * 1e3,
        )
        rate = totals["mission_ticks"] / totals["ticks_s"]
        detail["mission_ticks_per_s"] = (rate, "1/s")
        return Result(
            attempted=totals["attempted"],
            failed=totals["failed"],
            correct=totals["failed"] == 0,
            metrics={
                "setup_s": (self.setup_s(), "s"),
                "throughput_per_s": (rate, "1/s"),
                "latency_p50_ms": (percentile(ticks, 50.0) * 1e3, "ms"),
                "latency_tail_ms": (tail(ticks, self.tail_percentile) * 1e3, "ms"),
                "ok_frac": (
                    (totals["attempted"] - totals["failed"]) / totals["attempted"],
                    "ratio",
                ),
            },
            detail=detail,
        )

    def traced(self, seconds: float) -> Result:
        """Half the time untraced, then the same fleets traced."""
        plain = self.run_fleets(seconds / 2.0)
        tracer = Tracer()
        wrap_fleet(tracer, recorded=self.recorded)
        tracer.tag = 0
        try:
            traced = self.run_fleets(0.0, tracer=tracer, count=plain["fleets"])
        finally:
            tracer.unwrap_all()
        plain_rate = plain["mission_ticks"] / plain["run_s"]
        traced_rate = traced["mission_ticks"] / traced["run_s"]
        tracer.dump(OUT_DIR / f"spans-{self.name}-seed{self.seed}.npz")
        metrics = layer_metrics(
            tracer,
            wall_s=traced["run_s"],
            overhead_frac=plain_rate / traced_rate - 1.0,
            extra=self.layer_extra(),
        )
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        return Result(attempted, failed, failed == 0, metrics, {"spans": len(tracer.name_ids)})

    def quality(self) -> dict:
        """The workload's own outcome figures (detail, not metrics)."""
        raise NotImplementedError

    def layer_extra(self) -> dict:
        return {}


class OrchardRun(_FleetRun):
    """``fleet-orchard``: dense trap-reading fleets run to completion."""

    name = "fleet-orchard"
    fleet_size = ORCHARD_FLEET_SIZE
    # 0.9-2 % of full-fleet ticks render: p99.5 is among them and
    # spreads less over seeds than p99.9.
    tail_percentile = 99.5

    def build(self, index: int):
        return build_fleet(
            FleetSpec(
                count=self.fleet_size,
                base_seed=self.base_seed(index),
                config=ORCHARD,
                negotiation=NEGOTIATION,
            )
        )

    def check(self, fleet, report, resolved) -> tuple[int, int]:
        unfinished = sum(1 for m in fleet.missions if not m.finished)
        recognizer = fleet.missions[0].perception.recognizer
        checked, unreproduced, mismatches = scalar_parity(
            recognizer, resolved, self.rng, PARITY_SAMPLES
        )
        self.tally["parity_checked"] += checked
        self.tally["parity_unreproduced"] += unreproduced
        self.tally["parity_mismatches"] += mismatches
        self.tally["traps_read"] += report.traps_read
        # A finished mission has read or skipped every trap it planned.
        self.tally["traps_planned"] += sum(
            m.report.traps_read + len(m.report.skipped_traps) for m in fleet.missions
        )
        return len(fleet.missions) + checked, unfinished + unreproduced + mismatches

    def quality(self) -> dict:
        detail = {key: int(value) for key, value in self.tally.items()}
        detail["traps_read_frac"] = (
            self.tally["traps_read"] / self.tally["traps_planned"],
            "ratio",
        )
        return detail


class SurveillanceRun(_FleetRun):
    """``surveillance-recorded``: guard fleets under an intruder burst,
    each with a flight recorder writing to a temporary directory."""

    name = "surveillance-recorded"
    fleet_size = GUARD_FLEET_SIZE
    recorded = True
    # 0.57-0.82 % of full-fleet ticks render: p99.5 would sit at the edge.
    tail_percentile = 99.9

    def build(self, index: int):
        path = f"{self.temp_dir}/fleet-{len(self.build_times)}.jsonl"
        return build_surveillance_fleet(
            FleetSpec(
                count=self.fleet_size,
                base_seed=self.base_seed(index),
                config=GUARD_ORCHARD,
                intruders=INTRUDERS,
                burst_start_s=BURST_START_S,
                burst_spacing_s=BURST_SPACING_S,
                recorder=FlightRecorder(path),
            )
        )

    def check(self, fleet, report, resolved) -> tuple[int, int]:
        failed = 0
        for mission in fleet.missions:
            result = mission.report
            unresolved = result.challenges - result.compliant - len(result.escalations)
            # A safety abort (e.g. a wind-limit emergency) ends the
            # mission mid-challenge: that one challenge ends with the
            # recorded abort instead of a verdict.
            cut = int(mission.executor.phase is SurveillancePhase.ABORTED and unresolved == 1)
            failed += (not mission.finished) or unresolved != cut
            self.tally["challenges_cut_by_abort"] += cut
            self.tally["challenges"] += result.challenges
            self.tally["intruders"] += INTRUDERS
            emitter = mission.executor.emitter
            for event in emitter.of_kind("intruder_compliant") + emitter.of_kind("escalation"):
                j = int(event.detail["human"].rsplit("_", 1)[1])
                self.resolution_s.append(event.time_s - (BURST_START_S + j * BURST_SPACING_S))
        lines = read_lines(report.recording_path)
        self.tally["recorded_bytes"] += os.path.getsize(report.recording_path)
        footer = parse_line(lines[-1])
        body = [line for line in lines[:-1] if is_deterministic(parse_line(line)["kind"])]
        digest = hashlib.sha256()
        for line in body:
            digest.update(line.encode("utf-8") + b"\n")
        intact = (
            footer["kind"] == "end"
            and footer["data"]["events"] == len(body)
            and footer["data"]["sha256"] == digest.hexdigest()
        )
        return len(fleet.missions) + 1, failed + (not intact)

    def quality(self) -> dict:
        detail = {key: int(value) for key, value in self.tally.items()}
        detail["escalation_sim_s"] = (statistics.median(self.resolution_s), "s")
        return detail

    def layer_extra(self) -> dict:
        return {"recorder.bytes": self.tally["recorded_bytes"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    runner = OrchardRun(seed) if workload == "fleet-orchard" else SurveillanceRun(seed)
    try:
        return runner.traced(seconds) if trace else runner.untraced(seconds)
    finally:
        runner.close()
