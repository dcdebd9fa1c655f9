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

from bisect import bisect_left

from ..baselines.base import ExtensionJob
from ..core.batching import BatchRunner
from ..core.config import SUBWARP_SIZES, SalobaConfig
from ..core.kernel import SalobaKernel
from ..gpusim.device import DeviceProfile
from ..obs.tracer import NULL_TRACER
from ..resilience.errors import AlignmentError, CapacityExceeded
from ..resilience.faults import FaultPlan

__all__ = ["DEFAULT_BIN_EDGES", "LengthBinner", "BinTuner"]

#: Geometric upper edges (bp); jobs longer than the last edge share a
#: tail bin.  Chosen to straddle the paper's Fig. 6 length sweep.
DEFAULT_BIN_EDGES = (128, 256, 512, 1024, 2048, 4096)


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
        self.engine = engine
        self._kernels: dict[int, SalobaKernel] = {}
        self.chosen_subwarps: dict[int, int] = {}
        #: The engine's registry name per tuned bin.
        self.chosen_engines: dict[int, str] = {}

    def _make_kernel(self, subwarp_size: int) -> SalobaKernel:
        return SalobaKernel(
            self.scoring,
            self.config.with_(subwarp_size=subwarp_size),
            fault_plan=self.fault_plan,
            engine=self.engine,
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
        kernel = self._make_kernel(best)
        self._kernels[bin_index] = kernel
        self.chosen_subwarps[bin_index] = best
        self.chosen_engines[bin_index] = kernel.engine.name
        if self.tracer:
            self.tracer.add(
                "bin.tune", 0.0, bin=bin_index, chosen=best,
                candidates_ms={str(s): t for s, t in probed_ms.items()},
                skipped=skipped, sample=min(len(sample), self.sample_cap),
            )
        return kernel

    def set_engine(self, engine) -> None:
        """Swap the scoring backend; tuned bins keep their subwarps.

        Kernels for already-tuned bins are rebuilt against the new
        engine from the recorded ``chosen_subwarps`` — no re-tuning
        runs, so no new ``bin.tune`` spans and no modeled-time drift.
        """
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
