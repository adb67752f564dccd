"""Recognition-in-the-loop perception for mission-scale simulation.

:class:`RecognizerPerception` implements the
:class:`~repro.protocol.perception.Perception` interface with the *real*
batched recognition stack: it renders the interlocutor's current pose
through the drone's camera and classifies the frame via
:func:`~repro.recognition.preprocess.preprocess_frames` +
:meth:`~repro.sax.database.SignDatabase.classify_batch`.  Unlike
:class:`~repro.protocol.perception.SaxPerception` (the single-frame
reference used by the envelope benchmarks) it is built to sit inside a
*fleet* of concurrent missions:

* **Trust envelope** — queries outside the pipeline's *measured*
  reliable zone (:class:`RecognitionEnvelope`) return ``None`` without
  rendering, exactly as the calibrated
  :class:`~repro.protocol.perception.OraclePerception` refuses geometry
  outside its envelope.  The azimuth bound is much tighter than the
  oracle's (25° vs 65°): from ~30° relative azimuth upward the
  foreshortened IDLE silhouette starts aliasing into NO/ATTENTION
  (false-positive distances 0.43–0.54, just under the 0.55 acceptance
  threshold), so a mission-grade perception must not trust reads
  there.  During negotiation the interlocutor faces the drone
  (azimuth ≈ 0°), so the tighter gate is behaviourally transparent —
  the Oracle-parity contract in ``docs/ARCHITECTURE.md`` makes this
  precise.
* **Pose-quantised memoisation** — the camera pose is snapped to a
  small grid (``pose_quantum_m``) before rendering, making repeated
  observations of a hovering drone watching a held sign *identical*
  queries; their classification is answered from an LRU cache instead
  of re-rendering.  Quantisation is part of the perception's semantics
  (applied on every path), so cached and uncached answers can never
  disagree.
* **Cross-mission batching** — :meth:`prefetch` resolves any number of
  distinct queries (typically one per mission per fleet tick) through a
  single ``preprocess_frames`` + ``classify_batch`` pass; per-frame
  results are bit-identical to the scalar path, so a batched fleet
  replays a sequential run exactly.
* **Budget accounting** — one cumulative
  :class:`~repro.recognition.budget.FrameBudget` spans the perception's
  lifetime; ``render`` and ``classify`` are top-level stages and the
  recogniser's internal split is folded in as dotted sub-stages, so a
  fleet run reports amortised per-frame cost like every other engine in
  the repo.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import astuple, dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.geometry.camera import CameraIntrinsics, PinholeCamera
from repro.geometry.vec import Vec3
from repro.human.agent import HumanAgent
from repro.human.pose import BodyDimensions, HumanPose, pose_for_sign
from repro.human.render import RenderSettings, render_frame
from repro.human.signs import MarshallingSign
from repro.protocol.perception import ObservationGeometry
from repro.recognition.budget import BudgetReport, FrameBudget, StageTiming
from repro.recognition.classifier import Classifier, resolve_classify_callable
from repro.recognition.pipeline import (
    TORSO_CENTRE_HEIGHT_M,
    SaxSignRecognizer,
    observation_elevation_deg,
)
from repro.recognition.preprocess import preprocess_frames
from repro.vision.image import Image

if TYPE_CHECKING:  # pragma: no cover — import would be cycle-free but lazy
    from repro.service import RecognitionService

__all__ = [
    "RecognitionEnvelope",
    "ObservationQuery",
    "PerceptionStats",
    "RecognizerPerception",
]

# Drone camera intrinsics used for every mission observation (matches
# SaxPerception and the canonical enrolment views).
_OBSERVATION_INTRINSICS = CameraIntrinsics(240, 240, 280.0)


def _label_to_sign(label: str | None) -> MarshallingSign | None:
    """Map a database label onto the built-in sign enum, exactly as
    :attr:`~repro.recognition.pipeline.Recognition.sign` does (``None``
    for rejections and custom labels)."""
    if label is None:
        return None
    try:
        return MarshallingSign(label)
    except ValueError:
        return None


@dataclass(frozen=True, slots=True)
class RecognitionEnvelope:
    """The geometry region inside which the SAX pipeline is trusted.

    Altitude and range bounds mirror the calibrated oracle envelope;
    the azimuth bound is the *measured* zone in which every
    communicative sign is read correctly across persona leans (±12°)
    and — critically — the IDLE pose is reliably rejected under every
    built-in lighting condition.  From ~30° azimuth upward the
    oblique IDLE silhouette aliases into NO/ATTENTION; inside 25° no
    false positive was found across the distance/altitude jitter a
    buffeted hover produces.  Beyond the envelope, recognition results
    are discarded rather than trusted.
    """

    min_altitude_m: float = 2.0
    max_azimuth_deg: float = 25.0
    max_range_m: float = 12.0

    def allows(self, geometry: ObservationGeometry) -> bool:
        """Return ``True`` when *geometry* is inside the trust region."""
        slant = math.hypot(geometry.horizontal_distance_m, geometry.altitude_m)
        return (
            geometry.altitude_m >= self.min_altitude_m
            and geometry.relative_azimuth_deg <= self.max_azimuth_deg
            and slant <= self.max_range_m
        )


@dataclass(frozen=True)
class ObservationQuery:
    """One fully-specified render-and-classify request.

    Equality and hash cover every input that influences the rendered
    frame (signalled pose, body dimensions, quantised camera position,
    photometric settings), so equal queries are guaranteed to produce
    pixel-identical frames — the contract the memoisation cache relies
    on.  ``dimensions`` itself is carried for rendering but excluded
    from comparison in favour of its value tuple ``dim_key``.
    """

    sign: MarshallingSign
    lean_deg: float
    human_x: float
    human_y: float
    facing_deg: float
    camera_x: float
    camera_y: float
    camera_z: float
    settings: RenderSettings
    dim_key: tuple[float, ...]
    dimensions: BodyDimensions = field(compare=False)

    @staticmethod
    def build(
        drone_position: Vec3,
        human: HumanAgent,
        settings: RenderSettings,
        pose_quantum_m: float,
    ) -> "ObservationQuery":
        """Build the query for observing *human* from *drone_position*.

        The camera position is snapped to the ``pose_quantum_m`` grid;
        everything else is taken from the human's current state.
        """
        if pose_quantum_m > 0:
            q = pose_quantum_m
            cx = round(drone_position.x / q) * q
            cy = round(drone_position.y / q) * q
            cz = round(drone_position.z / q) * q
        else:
            cx, cy, cz = drone_position.x, drone_position.y, drone_position.z
        return ObservationQuery(
            sign=human.current_sign,
            lean_deg=human.current_lean_deg,
            human_x=human.position.x,
            human_y=human.position.y,
            facing_deg=human.facing_deg,
            camera_x=cx,
            camera_y=cy,
            camera_z=cz,
            settings=settings,
            dim_key=astuple(human.dimensions),
            dimensions=human.dimensions,
        )

    @property
    def camera_position(self) -> Vec3:
        """The quantised camera position."""
        return Vec3(self.camera_x, self.camera_y, self.camera_z)

    @property
    def torso_target(self) -> Vec3:
        """The camera look-at point (signaller's torso centre)."""
        return Vec3(self.human_x, self.human_y, TORSO_CENTRE_HEIGHT_M)

    @property
    def elevation_deg(self) -> float:
        """Observation elevation used for perspective rectification."""
        horizontal = math.hypot(
            self.camera_x - self.human_x, self.camera_y - self.human_y
        )
        return observation_elevation_deg(self.camera_z, max(horizontal, 0.1))

    def pose(self) -> HumanPose:
        """The signaller's skeleton for this query."""
        return pose_for_sign(
            self.sign,
            position=Vec3(self.human_x, self.human_y, 0.0),
            facing_deg=self.facing_deg,
            dimensions=self.dimensions,
            lean_deg=self.lean_deg,
        )

    def camera(self) -> PinholeCamera:
        """The observing drone camera for this query."""
        return PinholeCamera(
            position=self.camera_position,
            target=self.torso_target,
            intrinsics=_OBSERVATION_INTRINSICS,
        )

    def render(self) -> Image:
        """Render the query's frame (deterministic)."""
        return render_frame(self.pose(), self.camera(), self.settings)


@dataclass(frozen=True, slots=True)
class PerceptionStats:
    """Counters describing how a :class:`RecognizerPerception` worked."""

    observations: int
    gated: int
    cache_hits: int
    frames_classified: int
    batch_calls: int

    @property
    def rendered_fraction(self) -> float:
        """Fraction of observations that needed a fresh render."""
        if self.observations == 0:
            return 0.0
        return self.frames_classified / self.observations


class _PerceptionCore:
    """State shared by every view of one perception: recogniser, cache,
    cumulative budget and counters."""

    def __init__(
        self,
        recognizer: SaxSignRecognizer,
        memoize: bool,
        per_frame: bool,
        max_cache_entries: int,
        classifier: Classifier | None = None,
        service: "RecognitionService | None" = None,
    ) -> None:
        self.recognizer = recognizer
        self.memoize = memoize
        self.per_frame = per_frame
        self.max_cache_entries = max_cache_entries
        self.classifier = classifier
        self.classify_callable = resolve_classify_callable(classifier)
        self.service = (
            service if service is not None else getattr(classifier, "service", None)
        )
        self.cache: OrderedDict[ObservationQuery, MarshallingSign | None] = OrderedDict()
        self.budget = FrameBudget(budget_s=recognizer.frame_budget_s)
        self.observations = 0
        self.gated = 0
        self.cache_hits = 0
        self.frames_classified = 0
        self.batch_calls = 0

    # -- classification -------------------------------------------------------------

    def lookup(self, query: ObservationQuery) -> tuple[bool, MarshallingSign | None]:
        """Return ``(hit, sign)`` for *query* from the LRU cache."""
        if not self.memoize or query not in self.cache:
            return False, None
        self.cache.move_to_end(query)
        return True, self.cache[query]

    def miss_filter(
        self, queries: Sequence[ObservationQuery | None]
    ) -> list[ObservationQuery]:
        """The deduplicated cache misses of *queries*, in order.

        Drops ``None`` entries and already-cached queries (touching
        their LRU slots exactly as a lookup would); empty when
        memoisation is off, since there is no cache to fill.
        """
        if not self.memoize:
            return []
        misses: list[ObservationQuery] = []
        seen: set[ObservationQuery] = set()
        for query in queries:
            if query is None or query in seen:
                continue
            seen.add(query)
            hit, _ = self.lookup(query)
            if not hit:
                misses.append(query)
        return misses

    def classify(self, queries: Sequence[ObservationQuery]) -> list[MarshallingSign | None]:
        """Render and classify *queries* (already deduplicated misses).

        Composes the granular stage methods the fleet pipeline wires as
        dataflow nodes — :meth:`render_queries`,
        :meth:`preprocess_rendered`, :meth:`match_preprocessed` — in
        the default batched mode; the scalar
        :meth:`SaxSignRecognizer.recognise` per frame when ``per_frame``
        is set (the naive reference loop the fleet benchmark compares
        against).
        """
        if not queries:
            return []
        frames = self.render_queries(queries)
        if self.per_frame:
            with self.budget.stage("classify"):
                results = [
                    self.recognizer.recognise(frame, elevation_deg=query.elevation_deg)
                    for query, frame in zip(queries, frames)
                ]
            self._fold_substages(results)
            return self._finish(queries, [result.sign for result in results])
        pres = self.preprocess_rendered(queries, frames)
        return self.match_preprocessed(queries, pres)

    def render_queries(self, queries: Sequence[ObservationQuery]) -> list[Image]:
        """Render every query's frame, timed as the ``render`` stage."""
        with self.budget.stage("render"):
            return [query.render() for query in queries]

    def preprocess_rendered(
        self, queries: Sequence[ObservationQuery], frames: Sequence[Image]
    ) -> list:
        """Run the batched vision front-end over rendered query frames.

        One :func:`~repro.recognition.preprocess.preprocess_frames`
        call over the whole batch, timed as the ``classify.preprocess``
        sub-stage; returns the per-frame ``PreprocessResult`` list.
        """
        elevations = [query.elevation_deg for query in queries]
        with self.budget.stage("classify"):
            with self.budget.substage("preprocess"):
                return preprocess_frames(
                    frames,
                    self.recognizer.preprocess_settings,
                    elevation_deg=elevations,
                )

    def match_preprocessed(
        self, queries: Sequence[ObservationQuery], pres: Sequence
    ) -> list[MarshallingSign | None]:
        """SAX-match preprocessed queries and fill the result cache.

        One batched classifier call over the usable series (routed
        through the configured :class:`Classifier` backend — a shard
        pool or a network gateway — when one is set; results stay
        bit-identical by the sharding- and gateway-parity contracts),
        timed as the ``classify.sax_match`` sub-stage.  Per-frame
        verdicts map onto :class:`~repro.human.signs.MarshallingSign`
        exactly as :attr:`~repro.recognition.pipeline.Recognition.sign`
        does; unusable frames (no silhouette) read ``None``.
        """
        usable = [pre.series for pre in pres if pre.ok]
        classifier = (
            self.classify_callable
            if self.classify_callable is not None
            else self.recognizer.database.classify_batch
        )
        with self.budget.stage("classify"):
            with self.budget.substage("sax_match"):
                matches = iter(classifier(usable) if usable else [])
            self.batch_calls += 1
        signs: list[MarshallingSign | None] = []
        for pre in pres:
            signs.append(_label_to_sign(next(matches).label) if pre.ok else None)
        return self._finish(queries, signs)

    def _finish(
        self,
        queries: Sequence[ObservationQuery],
        signs: list[MarshallingSign | None],
    ) -> list[MarshallingSign | None]:
        """Account classified frames and fill the LRU cache."""
        self.frames_classified += len(queries)
        self.budget.frame_count = max(1, self.frames_classified)
        if self.memoize:
            for query, sign in zip(queries, signs):
                self.cache[query] = sign
            while len(self.cache) > self.max_cache_entries:
                self.cache.popitem(last=False)
        return signs

    def _fold_substages(self, results) -> None:
        """Fold the recogniser's internal stage split into the
        cumulative budget as dotted sub-stages of ``classify``."""
        totals: dict[str, float] = {}
        seen: set[int] = set()
        for result in results:
            if id(result.budget) in seen:  # batched results share one report
                continue
            seen.add(id(result.budget))
            for timing in result.budget.stages:
                if "." in timing.stage:
                    continue
                totals[timing.stage] = totals.get(timing.stage, 0.0) + timing.duration_s
        for stage, duration in totals.items():
            self.budget.timings.append(StageTiming(f"classify.{stage}", duration))

    def stats(self) -> PerceptionStats:
        """Snapshot the counters."""
        return PerceptionStats(
            observations=self.observations,
            gated=self.gated,
            cache_hits=self.cache_hits,
            frames_classified=self.frames_classified,
            batch_calls=self.batch_calls,
        )


class RecognizerPerception:
    """Batched, envelope-gated, memoising full-pipeline perception.

    Implements the :class:`~repro.protocol.perception.Perception`
    protocol, so it drops into
    :class:`~repro.protocol.negotiation.NegotiationController` and
    :class:`~repro.mission.executor.MissionExecutor` wherever an
    :class:`~repro.protocol.perception.OraclePerception` would.

    Parameters
    ----------
    recognizer:
        A ready :class:`~repro.recognition.pipeline.SaxSignRecognizer`;
        built and enrolled with canonical views when omitted.
    render_settings:
        Photometric conditions of this view's renders (per-mission
        lighting); defaults to baseline :class:`RenderSettings`.
    envelope:
        Geometry trust region; see :class:`RecognitionEnvelope`.
    per_frame:
        Run the scalar single-frame pipeline with no batching — the
        naive reference loop benchmarked by ``bench_fleet.py``.
        Normally combined with ``memoize=False``.
    memoize:
        Cache classification results keyed by the full observation
        query (pose + quantised camera + lighting).
    pose_quantum_m:
        Camera-position grid step; 0 disables quantisation.
    max_cache_entries:
        LRU capacity of the result cache.
    classifier:
        Optional :class:`~repro.recognition.classifier.Classifier`
        backend (e.g. a
        :class:`~repro.service.classifier.ServiceClassifier` over a
        shard pool, or a
        :class:`~repro.gateway.client.GatewayClassifier` over the
        network gateway): the ``sax_match`` stage of every batched
        classification is routed through it instead of the in-process
        ``classify_batch``.  Results are bit-identical (the sharding-
        and gateway-parity contracts), so this only changes *where* the
        matching work runs.  The caller owns the classifier lifecycle.
    service:
        **Deprecated** — pass
        ``classifier=ServiceClassifier(service)`` instead.  Accepted
        for one release as a :class:`DeprecationWarning` shim wrapping
        the service in a
        :class:`~repro.service.classifier.ServiceClassifier`.
    """

    def __init__(
        self,
        recognizer: SaxSignRecognizer | None = None,
        render_settings: RenderSettings | None = None,
        envelope: RecognitionEnvelope | None = None,
        per_frame: bool = False,
        memoize: bool = True,
        pose_quantum_m: float = 0.05,
        max_cache_entries: int = 8192,
        classifier: Classifier | None = None,
        service: "RecognitionService | None" = None,
    ) -> None:
        if service is not None:
            warnings.warn(
                "RecognizerPerception(service=...) is deprecated; pass "
                "classifier=ServiceClassifier(service) instead",
                DeprecationWarning,
                stacklevel=2,
            )
            if classifier is not None:
                raise ValueError("pass either classifier= or service=, not both")
            from repro.service.classifier import ServiceClassifier

            classifier = ServiceClassifier(service)
        if recognizer is None:
            recognizer = SaxSignRecognizer()
            recognizer.enroll_canonical_views()
        elif not recognizer.enrolled_signs:
            recognizer.enroll_canonical_views()
        self.render_settings = (
            render_settings if render_settings is not None else RenderSettings()
        )
        self.envelope = envelope if envelope is not None else RecognitionEnvelope()
        self.pose_quantum_m = pose_quantum_m
        self._core = _PerceptionCore(
            recognizer=recognizer,
            memoize=memoize,
            per_frame=per_frame,
            max_cache_entries=max_cache_entries,
            classifier=classifier,
            service=service,
        )

    # -- views ----------------------------------------------------------------------

    def with_render_settings(self, render_settings: RenderSettings) -> "RecognizerPerception":
        """A view of this perception under different lighting.

        The returned instance shares the recogniser, cache, budget and
        counters — a fleet gives each mission its own lighting view
        while all observations flow through one batched core.
        """
        twin = RecognizerPerception.__new__(RecognizerPerception)
        twin.render_settings = render_settings
        twin.envelope = self.envelope
        twin.pose_quantum_m = self.pose_quantum_m
        twin._core = self._core
        return twin

    @property
    def recognizer(self) -> SaxSignRecognizer:
        """The underlying shared recogniser."""
        return self._core.recognizer

    @property
    def classifier(self) -> Classifier | None:
        """The configured classifier backend, when one is set."""
        return self._core.classifier

    @property
    def service(self) -> "RecognitionService | None":
        """The backing recognition service, when service-backed
        (directly via the deprecated ``service=`` shim, or through a
        :class:`~repro.service.classifier.ServiceClassifier`)."""
        return self._core.service

    @property
    def core_key(self) -> int:
        """Identity of the shared core: views share caches iff equal."""
        return id(self._core)

    # -- query construction ---------------------------------------------------------

    def query(
        self, drone_position: Vec3, human: HumanAgent
    ) -> ObservationQuery | None:
        """The render-and-classify request for this observation.

        Returns ``None`` when the observation is decided *without*
        recognition: geometry outside the trust envelope, or a
        degenerate camera pose — those observations read ``None``.
        """
        torso = human.position3() + Vec3(0.0, 0.0, TORSO_CENTRE_HEIGHT_M)
        if drone_position.is_close(torso, tol=1e-6):
            return None
        query = ObservationQuery.build(
            drone_position, human, self.render_settings, self.pose_quantum_m
        )
        if query.camera_position.is_close(query.torso_target, tol=1e-6):
            return None
        geometry = ObservationGeometry.between(query.camera_position, human)
        if not self.envelope.allows(geometry):
            return None
        return query

    # -- Perception protocol ----------------------------------------------------------

    def observe(self, drone_position: Vec3, human: HumanAgent) -> MarshallingSign | None:
        """Read the human's sign through the full batched pipeline."""
        core = self._core
        core.observations += 1
        query = self.query(drone_position, human)
        if query is None:
            core.gated += 1
            return None
        hit, sign = core.lookup(query)
        if hit:
            core.cache_hits += 1
            return sign
        return core.classify([query])[0]

    # -- fleet batching ----------------------------------------------------------------

    def prefetch(self, queries: Sequence[ObservationQuery | None]) -> int:
        """Resolve many queries through one batched recogniser pass.

        Deduplicates, drops ``None`` entries and already-cached queries,
        renders the misses and classifies them in a single
        ``preprocess_frames`` + ``classify_batch`` call, filling the
        cache so subsequent :meth:`observe` calls are pure lookups.
        Returns the number of frames actually classified.  No-op when
        memoisation is off (there is no cache to fill).
        """
        misses = self._core.miss_filter(queries)
        self._core.classify(misses)
        return len(misses)

    # -- pipeline-node seams ------------------------------------------------------------
    #
    # The fleet dataflow graph (repro.mission.pipeline) decomposes
    # prefetch() into one node per stage; these methods are the seams
    # those nodes call.  classify()/prefetch() compose the very same
    # methods, so the graph path cannot diverge from the direct path.

    @property
    def per_frame(self) -> bool:
        """``True`` in the scalar per-frame reference mode (no batching)."""
        return self._core.per_frame

    def pending_misses(
        self, queries: Sequence[ObservationQuery | None]
    ) -> list[ObservationQuery]:
        """Node seam: deduplicated cache misses of *queries*, in order
        (empty when memoisation is off — nothing to prefetch)."""
        return self._core.miss_filter(queries)

    def render_batch(self, misses: Sequence[ObservationQuery]) -> list[Image]:
        """Node seam: render every missed query's frame (``render`` stage)."""
        return self._core.render_queries(misses)

    def preprocess_batch(
        self, misses: Sequence[ObservationQuery], frames: Sequence[Image]
    ) -> list:
        """Node seam: batched vision front-end over rendered frames
        (``classify.preprocess`` sub-stage)."""
        return self._core.preprocess_rendered(misses, frames)

    def match_batch(
        self, misses: Sequence[ObservationQuery], pres: Sequence
    ) -> list[MarshallingSign | None]:
        """Node seam: batched SAX match + result-cache fill
        (``classify.sax_match`` sub-stage; service-routed when
        service-backed)."""
        return self._core.match_preprocessed(misses, pres)

    def peek(self, query: ObservationQuery) -> tuple[bool, MarshallingSign | None]:
        """Read *query*'s cached verdict without disturbing the cache.

        Unlike ``lookup`` this neither promotes the entry in the LRU
        order nor bumps any counter — the flight recorder's
        zero-intrusion read of what ``match`` just resolved.
        """
        cache = self._core.cache
        if query in cache:
            return True, cache[query]
        return False, None

    # -- reporting ----------------------------------------------------------------------

    @property
    def stats(self) -> PerceptionStats:
        """Counters for this perception (shared across views)."""
        return self._core.stats()

    def budget_report(self) -> BudgetReport:
        """Cumulative stage timings, amortised over classified frames."""
        return self._core.budget.report()
