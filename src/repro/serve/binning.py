"""Length-binned coalescing: compose batches the subwarp scheduler likes.

Arrival-order batches over mixed traffic (250 bp Illumina extensions
interleaved with multi-kbp PacBio ones) are exactly the unsorted,
imbalanced workload the paper's subwarp scheduling fights: a warp
retires with its slowest subwarp, so one long job idles every lane
sharing the warp (Sec. IV-C), and no single subwarp size suits both
length regimes (Fig. 8c puts dataset A's optimum at 8-16 and dataset
B's higher).

The :class:`LengthBinner` routes pending jobs into geometric length
bins; batches then form *within* a bin, so each launch sees
near-homogeneous work and can use that bin's own tuned subwarp size.
:class:`BinTuner` picks it the same way
:meth:`SalobaAligner.tune_subwarp` does — run the timing model at
every legal size over a sample, adopt the winner — and can also
delegate micro-batch sizing to :meth:`BatchRunner.tune_batch_size`
so per-call overheads stay amortized.
"""

from __future__ import annotations

import time
from bisect import bisect_left

from ..baselines.base import ExtensionJob
from ..core.batching import BatchRunner
from ..core.config import SUBWARP_SIZES, SalobaConfig
from ..core.kernel import SalobaKernel
from ..engine.base import AUTO_ENGINE, find_engines, resolve_engine
from ..gpusim.device import DeviceProfile
from ..obs.tracer import NULL_TRACER
from ..resilience.errors import AlignmentError, CapacityExceeded
from ..resilience.faults import FaultPlan

__all__ = ["DEFAULT_BIN_EDGES", "LengthBinner", "BinTuner", "race_candidates"]

#: Geometric upper edges (bp); jobs longer than the last edge share a
#: tail bin.  Chosen to straddle the paper's Fig. 6 length sweep.
DEFAULT_BIN_EDGES = (128, 256, 512, 1024, 2048, 4096)


def race_candidates() -> tuple[str, ...]:
    """Engine names eligible for the per-bin auto-race, sorted.

    The serve path's exact contract: engines that are bit-identical on
    scores to the full-table local affine optimum.  Queried from the
    registry by capability, not hard-coded — a newly registered exact
    local backend joins the race automatically, while bounded or
    alternative-endpoint backends (banded, x-drop, semiglobal, NW)
    are excluded because their *results* differ and a wall-clock race
    must never change scores.
    """
    return find_engines(exactness="exact", gap_model="affine", endpoints="local")


class LengthBinner:
    """Map jobs to length bins by their longer sequence."""

    def __init__(self, edges: tuple[int, ...] = DEFAULT_BIN_EDGES):
        if not edges:
            raise ValueError("need at least one bin edge")
        if list(edges) != sorted(set(edges)):
            raise ValueError("bin edges must be strictly increasing")
        if edges[0] < 1:
            raise ValueError("bin edges must be positive lengths")
        self.edges = tuple(edges)

    @property
    def n_bins(self) -> int:
        return len(self.edges) + 1

    def bin_index(self, job: ExtensionJob) -> int:
        """The bin for *job*, keyed on ``max(ref_len, query_len)``.

        The longer sequence drives both the chunk count and the
        subwarp queue load, so it is the balance-relevant length.
        """
        return bisect_left(self.edges, max(job.ref_len, job.query_len))

    def label(self, index: int) -> str:
        """Human-readable bin name for histograms (``"<=512"`` etc.)."""
        if index >= len(self.edges):
            return f">{self.edges[-1]}"
        return f"<={self.edges[index]}"


class BinTuner:
    """Per-bin kernel configuration, tuned lazily on first traffic.

    The first batch routed to a bin doubles as its tuning sample: the
    timing model runs at every legal subwarp size (cheap - model-only)
    and the bin keeps the winning kernel for the rest of the service's
    life.  ``fixed_subwarp`` in the constructor disables tuning (used
    by the benchmark's "no binning benefit" ablation).

    With ``engine=AUTO_ENGINE`` (``"auto"``) the same first-traffic
    pass additionally races every registered execution engine on the
    bin's sample — a real wall-clock measurement, since engines differ
    *only* in host speed — and pins the winner per bin (the Fig. 8c
    machinery applied to backend choice).  The
    modeled clock, metrics, and trace timings stay engine-independent
    by construction; only ``bin.tune`` spans gain the (machine-
    dependent) selection attributes, and only in auto mode.
    """

    def __init__(
        self,
        scoring,
        config: SalobaConfig,
        device: DeviceProfile,
        *,
        fault_plan: FaultPlan | None = None,
        sample_cap: int = 64,
        autotune: bool = True,
        tracer=None,
        engine=None,
        engine_sample_cap: int = 64,
    ):
        self.scoring = scoring
        self.config = config
        self.device = device
        self.fault_plan = fault_plan
        self.sample_cap = sample_cap
        self.autotune = autotune
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Exact-scoring backend shared by every bin kernel (see
        #: :mod:`repro.engine`); model-only tuning probes never run it.
        #: ``AUTO_ENGINE`` switches to per-bin adaptive selection, in
        #: which case :attr:`engine` stays None and each bin's choice
        #: lands in :attr:`chosen_engines`.
        self.adaptive_engine = isinstance(engine, str) and engine == AUTO_ENGINE
        self.engine = None if self.adaptive_engine else engine
        #: Jobs in the engine race's final heat.  Engine ranking is
        #: batch-size-dependent, so the final must run near the batch
        #: size the bin will actually serve; the cap bounds the (real,
        #: wall-clock) probe cost.  See :meth:`_race_engines`.
        self.engine_sample_cap = engine_sample_cap
        self._kernels: dict[int, SalobaKernel] = {}
        self.chosen_subwarps: dict[int, int] = {}
        #: Engine actually used per bin (adaptive winner, or the fixed
        #: engine's registry name).
        self.chosen_engines: dict[int, str] = {}
        #: Adaptive mode only: per-bin wall-clock probe milliseconds
        #: per engine name (benchmark reporting; machine-dependent).
        self.engine_probe_ms: dict[int, dict[str, float]] = {}

    def _make_kernel(self, subwarp_size: int, engine=None) -> SalobaKernel:
        return SalobaKernel(
            self.scoring,
            self.config.with_(subwarp_size=subwarp_size),
            fault_plan=self.fault_plan,
            engine=engine if engine is not None else self.engine,
        )

    def _probe_kernel(self, subwarp_size: int) -> SalobaKernel:
        """A fault-free twin for tuning probes.

        The explicit disabled plan masks any plan installed on the
        *device* profile too — probes are timing-model measurements,
        not production launches, so injected faults must neither bias
        them (stall dilation) nor abort them (capacity skips raising
        out of :meth:`AlignmentService.drain` after requests were
        already popped from the admission queue).
        """
        return SalobaKernel(
            self.scoring,
            self.config.with_(subwarp_size=subwarp_size),
            fault_plan=FaultPlan(),
        )

    def kernel_for(self, bin_index: int, sample: list[ExtensionJob]) -> SalobaKernel:
        """The bin's kernel, tuning it on *sample* at first sight.

        Tuning never raises: probes run fault-free (see
        :meth:`_probe_kernel`), candidates the device cannot fit are
        skipped, and if *every* candidate fails the bin falls back to
        ``config.subwarp_size`` — capacity problems then surface as
        per-job failure records from the isolation executor, not as an
        exception that strands queued requests.
        """
        kernel = self._kernels.get(bin_index)
        if kernel is not None:
            return kernel
        best = self.config.subwarp_size
        probed_ms: dict[int, float] = {}
        skipped: list[int] = []
        if self.autotune and sample:
            probe = sample[: self.sample_cap]
            best_t = float("inf")
            for s in SUBWARP_SIZES:
                try:
                    res = self._probe_kernel(s).run(probe, self.device)
                except AlignmentError:
                    skipped.append(s)
                    continue
                if not res.ok:
                    skipped.append(s)
                    continue
                t = res.timing.total_ms
                probed_ms[s] = t
                if t < best_t:
                    best, best_t = s, t
        engine = None
        engine_ms: dict[str, float] = {}
        engine_skipped: list[str] = []
        if self.adaptive_engine and sample:
            engine, engine_ms, engine_skipped = self._race_engines(sample)
        kernel = self._make_kernel(best, engine=engine)
        self._kernels[bin_index] = kernel
        self.chosen_subwarps[bin_index] = best
        self.chosen_engines[bin_index] = kernel.engine.name
        if self.adaptive_engine:
            self.engine_probe_ms[bin_index] = engine_ms
        if self.tracer:
            attrs = dict(
                bin=bin_index, chosen=best,
                candidates_ms={str(s): t for s, t in probed_ms.items()},
                skipped=skipped, sample=min(len(sample), self.sample_cap),
            )
            if self.adaptive_engine:
                # Auto mode only: these attrs carry real wall-clock
                # measurements, so they are machine-dependent — fixed-
                # engine traces must stay byte-identical across
                # engines, hence the gate.
                attrs.update(
                    engine=kernel.engine.name,
                    engine_wall_ms={n: round(t, 3) for n, t in engine_ms.items()},
                    engine_skipped=engine_skipped,
                )
            self.tracer.add("bin.tune", 0.0, **attrs)
        return kernel

    def _race_engines(self, sample: list[ExtensionJob]):
        """Wall-clock-race the eligible registered engines on the bin
        sample.

        Returns ``(winner_name, wall_ms_by_name, skipped_names)``.
        Only engines whose capability descriptor matches the serve
        path's contract — exact, affine-gap, local endpoints
        (:func:`race_candidates`) — enter the race: the registry also
        carries bounded and alternative-endpoint backends (banded,
        x-drop, semiglobal, NW) whose *results* differ, and letting
        one of those win on speed would silently change scores.
        Eligible engines differ only in host wall-clock speed (scores
        are bit-identical by contract), so throughput is the *only*
        axis to pick on and a real timing is the honest measurement —
        it is machine-dependent, which is why the choice never leaks
        into the modeled clock or metrics.

        The race runs in two stages because engine ranking is batch-
        size-dependent (the batched engines amortize per-row Python
        overhead across the batch) while the slowest engine is orders
        of magnitude off the pace (the per-pair reference dataflow
        runs seconds per long pair): a **screen** on a four-job prefix
        eliminates all but the two fastest engines cheaply, then the
        **final** re-races the two survivors on the full sample (up to
        ``engine_sample_cap`` jobs — the representative batch size the
        bin will actually serve).  Sub-10 ms probes re-run once and
        keep the minimum so fast engines are not ranked on a single
        noisy timing; ties break on the registry name; an engine that
        raises a taxonomy error (:class:`~repro.resilience.errors.
        AlignmentError`) is skipped, and if every engine fails the
        reference backend wins by forfeit.  Any other exception is a
        broken engine, not a lost race, and propagates.  The returned timings are each
        engine's wall at the *largest* sample it raced.
        """
        timings: dict[str, float] = {}
        skipped: list[str] = []

        def heat(names, probe) -> dict[str, float]:
            round_t: dict[str, float] = {}
            for name in names:
                eng = resolve_engine(name)

                def once() -> float:
                    t0 = time.perf_counter()
                    eng.score_batch(probe, self.scoring, config=self.config)
                    return (time.perf_counter() - t0) * 1e3

                try:
                    t = once()
                    if t < 10.0:
                        t = min(t, once())
                except AlignmentError:
                    if name not in skipped:
                        skipped.append(name)
                    continue
                round_t[name] = t
            return round_t

        final_size = min(len(sample), self.engine_sample_cap)
        screen_size = min(4, final_size)
        screen_t = heat(race_candidates(), sample[:screen_size])
        timings.update(screen_t)
        if not screen_t:
            return "reference", timings, skipped
        ranked = sorted(screen_t, key=lambda n: (screen_t[n], n))
        finalists = ranked[:2]
        if len(finalists) > 1 and final_size > screen_size:
            final_t = heat(finalists, sample[:final_size])
            if final_t:
                timings.update(final_t)
                ranked = sorted(final_t, key=lambda n: (final_t[n], n))
        return ranked[0], timings, skipped

    def set_engine(self, engine) -> None:
        """Swap the scoring backend; tuned bins keep their subwarps.

        Kernels for already-tuned bins are rebuilt against the new
        engine from the recorded ``chosen_subwarps`` — no re-tuning
        runs, so no new ``bin.tune`` spans and no modeled-time drift.
        Passing ``AUTO_ENGINE`` switches *future* bins to adaptive
        selection; already-tuned bins keep their current engines
        (their tuning samples are gone, so there is nothing to race).
        """
        if isinstance(engine, str) and engine == AUTO_ENGINE:
            self.adaptive_engine = True
            self.engine = None
            return
        self.adaptive_engine = False
        self.engine = engine
        self._kernels = {
            b: self._make_kernel(s) for b, s in self.chosen_subwarps.items()
        }
        for b, kernel in self._kernels.items():
            self.chosen_engines[b] = kernel.engine.name

    def tune_batch_size(
        self,
        bin_index: int,
        sample: list[ExtensionJob],
        *,
        candidates: tuple[int, ...] = (256, 1024, 4096),
        stream_length: int = 20_000,
        default: int = 4096,
    ) -> int:
        """Micro-batch size for a bin, via :meth:`BatchRunner.tune_batch_size`.

        When every tuning candidate exceeds device capacity the
        fallback *default* is itself probed before being handed back:
        a default the device cannot fit would only defer the failure
        to the first production launch, so that case re-raises
        :class:`CapacityExceeded` (taxonomy-typed, chained to the
        tuner's) instead of silently returning an over-capacity size.
        """
        kernel = self.kernel_for(bin_index, sample)
        runner = BatchRunner(kernel, self.device, batch_size=default)
        try:
            return runner.tune_batch_size(
                sample[: self.sample_cap],
                candidates=candidates,
                stream_length=stream_length,
            )
        except CapacityExceeded as exc:
            probe_jobs = sample[: self.sample_cap]
            reps = -(-default // max(1, len(probe_jobs)))
            probe = (probe_jobs * reps)[:default]
            res = self._probe_kernel(
                self.chosen_subwarps.get(bin_index, self.config.subwarp_size)
            ).run(probe, self.device)
            if not res.ok:
                raise CapacityExceeded(
                    f"bin {bin_index}: no tuning candidate fits the device and "
                    f"neither does the fallback batch size {default} "
                    f"({res.skipped})"
                ) from exc
            return default
