"""Striped-engine benchmark: three fixed engines vs per-bin adaptive.

The engine registry now holds three backends whose wall-clock ranking
can be *length-dependent*: the batched row sweep pays ``m`` row steps
of whole-row passes per group, while the striped sweep pays ``m * p``
row steps plus the occasional lazy-F lap (see
:mod:`repro.engine.striped`).  Where no single fixed engine wins
every bin of the serve layer's mixed dataset A+B stream, ``--engine
auto`` (:data:`~repro.engine.AUTO_ENGINE`) is the answer: each length
bin races the registered engines on its first-traffic sample and pins
its own winner.

This benchmark runs the same scored mixed stream through four
otherwise identical :class:`~repro.serve.service.AlignmentService`
instances — ``reference``, ``batched``, ``striped``, and ``auto`` —
and reports:

* **wall-clock per engine** plus the adaptive service's ratio against
  the best *fixed* engine (the ISSUE-8 acceptance bar: auto must not
  lose to any single fixed choice, modulo probe noise);
* **per-bin adaptive choices** and the probe timings behind them
  (machine-dependent, stripped from the deterministic artifact);
* **every engine-contract equivalence** — modeled clock, metric
  snapshots, and scores must agree across all four runs, Chrome
  traces must be byte-identical across the three *fixed* runs (the
  auto run's ``bin.tune`` spans legitimately carry machine-dependent
  selection attributes), and a sample of unique pairs re-scores
  against the quadratic row-scan oracle through the striped engine.

Wall-clock numbers and adaptive choices are machine noise by
definition, so the JSON artifact comes in two flavours:
:meth:`StripedBenchResult.to_json` (everything, committed as
``BENCH_striped.json``) and
:meth:`StripedBenchResult.deterministic_json` (wall and choice fields
stripped), which the CI ``engine-matrix`` job ``cmp``\\ s across
reruns.

Shared by ``benchmarks/bench_striped.py`` (pytest harness and
``--quick`` CLI smoke mode).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from ..align.scoring import ScoringScheme
from ..align.smith_waterman import sw_align_slow
from ..core.config import SalobaConfig
from ..gpusim.device import GTX1650, DeviceProfile
from ..obs import Tracer, chrome_trace_json
from ..serve.bench import mixed_stream
from ..serve.service import AlignmentService
from .base import AUTO_ENGINE, engine_names
from .striped import striped_sw_align

__all__ = ["StripedBenchResult", "run_striped_bench"]

#: Machine-dependent fields stripped from the deterministic artifact:
#: wall-clock timings and everything derived from them, including the
#: adaptive service's per-bin choices.
_WALL_FIELDS = (
    "wall_ms",
    "pairs_per_s",
    "best_fixed",
    "auto_vs_best_fixed",
    "auto_bins",
    "auto_probe_ms",
)


@dataclass
class StripedBenchResult:
    """Everything the striped/adaptive benchmark measured."""

    n_requests: int
    n_unique: int
    device: str
    b_max_length: int | None
    #: Wall milliseconds per service: the three fixed engine names
    #: plus ``"auto"``.
    wall_ms: dict = field(default_factory=dict)
    pairs_per_s: dict = field(default_factory=dict)
    best_fixed: str = ""
    #: ``wall_ms["auto"] / wall_ms[best_fixed]`` — < 1 means the
    #: adaptive service beat every single fixed engine outright.
    auto_vs_best_fixed: float = 0.0
    #: Bin label -> engine the adaptive service pinned there.
    auto_bins: dict = field(default_factory=dict)
    #: Bin label -> {engine: probe wall ms} behind each choice.
    auto_probe_ms: dict = field(default_factory=dict)
    modeled_ms: float = 0.0
    modeled_identical: bool = False
    metrics_identical: bool = False
    trace_identical: bool = False
    scores_identical: bool = False
    oracle_checked: int = 0
    oracle_identical: bool = False
    score_digest: str = ""
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every engine-contract equivalence held.

        Deliberately excludes the wall-clock comparisons: those are
        the benchmark's *findings*, not invariants a noisy CI box
        should gate on.
        """
        return (
            self.modeled_identical
            and self.metrics_identical
            and self.trace_identical
            and self.scores_identical
            and self.oracle_identical
        )

    @property
    def text(self) -> str:
        def _flag(good: bool, yes: str, no: str) -> str:
            return yes if good else no

        lines = [
            f"striped-bench on {self.device}: {self.n_requests} scored requests "
            f"({self.n_unique} unique, long-read cap "
            f"{self.b_max_length if self.b_max_length else 'profile'})",
        ]
        for name in sorted(self.wall_ms):
            tag = " <- best fixed" if name == self.best_fixed else ""
            lines.append(
                f"  engine {name:<10}: {self.wall_ms[name]:10.1f} ms wall "
                f"({self.pairs_per_s[name]:8.1f} pairs/s){tag}"
            )
        lines.append(
            f"  auto vs best fixed           : {self.auto_vs_best_fixed:10.3f} x "
            + _flag(self.auto_vs_best_fixed <= 1.0, "(adaptive wins outright)",
                    "(within probe overhead)" if self.auto_vs_best_fixed <= 1.1
                    else "(ADAPTIVE LOST)")
        )
        for label in sorted(self.auto_bins):
            lines.append(f"    bin {label:<8} -> {self.auto_bins[label]}")
        lines += [
            f"  modeled clock                : {self.modeled_ms:10.3f} ms, "
            + _flag(self.modeled_identical, "identical across all four runs", "DIVERGED"),
            "  metric snapshots             : "
            + _flag(self.metrics_identical, "equal across all four runs", "DIVERGED"),
            "  chrome traces (fixed runs)   : "
            + _flag(self.trace_identical, "byte-identical", "DIVERGED"),
            f"  scores across runs           : {self.n_requests} requests "
            + _flag(self.scores_identical, "bit-identical", "MISMATCH"),
            f"  row-scan oracle (striped)    : {self.oracle_checked} pairs "
            + _flag(self.oracle_identical, "bit-identical", "MISMATCH"),
            f"  score digest                 : {self.score_digest}",
        ]
        return "\n".join(lines)

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.__dict__, **dumps_kwargs)

    def deterministic_json(self, **dumps_kwargs) -> str:
        """The artifact minus wall-clock noise (CI rerun ``cmp``)."""
        payload = {k: v for k, v in self.__dict__.items() if k not in _WALL_FIELDS}
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(payload, **dumps_kwargs)


def _scored_run(stream, scoring, config, device, *, engine, n_waves: int):
    """One scored service pass.

    The pre-tune runs *before* the timer starts: it is where bins
    pick subwarps, batch sizes, and (in auto mode) engines, and the
    fixed-engine services get the identical untimed pass so the timed
    section compares pure steady-state serving.  It tunes on the
    **first wave** specifically: per-bin tuning samples then have the
    same sizes as the per-wave production batches, so the adaptive
    engine race's final heat runs at the batch size each bin will
    actually serve (engine ranking is batch-size-dependent — see
    :meth:`~repro.serve.binning.BinTuner._race_engines`).
    Returns ``(wall_ms, clock_ms, results, metrics, trace, service)``.
    """
    tracer = Tracer()
    service = AlignmentService(
        scoring, config, device,
        compute_scores=True,
        max_queue_depth=max(len(stream), 1),
        tracer=tracer,
        engine=engine,
    )
    wave = -(-len(stream) // max(n_waves, 1))
    service.tune(stream[:wave])
    t0 = time.perf_counter()
    handles = []
    for lo in range(0, len(stream), wave):
        handles.extend(service.submit_jobs(stream[lo : lo + wave]))
        service.flush()
    wall_ms = (time.perf_counter() - t0) * 1e3
    results = [h.result() for h in handles]
    return (
        wall_ms,
        service.clock_ms,
        results,
        service.metrics().to_dict(),
        chrome_trace_json(tracer),
        service,
    )


def _score_digest(results) -> str:
    import hashlib

    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.score},{r.ref_end},{r.query_end};".encode())
    return h.hexdigest()[:16]


def run_striped_bench(
    n_requests: int = 240,
    *,
    b_fraction: float = 0.15,
    duplicate_fraction: float = 0.25,
    seed: int = 0,
    b_max_length: int | None = 1200,
    device: DeviceProfile = GTX1650,
    scoring: ScoringScheme | None = None,
    config: SalobaConfig | None = None,
    n_waves: int = 4,
    oracle_pairs: int = 12,
    oracle_max_length: int = 320,
) -> StripedBenchResult:
    """Race every fixed engine plus the adaptive service on one stream.

    The long-read tail is capped at *b_max_length* to keep the
    reference pass affordable — the cap shapes all four streams
    identically, so the comparisons stay like-for-like.
    """
    scoring = scoring or ScoringScheme()
    config = config or SalobaConfig()
    stream = mixed_stream(
        n_requests, b_fraction=b_fraction,
        duplicate_fraction=duplicate_fraction, seed=seed,
        b_max_length=b_max_length,
    )
    unique_map = {(j.ref.tobytes(), j.query.tobytes()): j for j in stream}
    unique = list(unique_map.values())

    runs = {}
    for name in (*engine_names(), AUTO_ENGINE):
        runs[name] = _scored_run(
            stream, scoring, config, device, engine=name, n_waves=n_waves
        )

    ref_wall, ref_clock, ref_results, ref_metrics, ref_trace, _ = runs["reference"]
    fixed = tuple(engine_names())
    auto_service = runs[AUTO_ENGINE][5]
    auto_bins = {
        auto_service.binner.label(b): e
        for b, e in sorted(auto_service.tuner.chosen_engines.items())
    }
    auto_probe_ms = {
        auto_service.binner.label(b): {n: round(t, 3) for n, t in ms.items()}
        for b, ms in sorted(auto_service.tuner.engine_probe_ms.items())
    }

    wall_ms = {n: runs[n][0] for n in runs}
    best_fixed = min(fixed, key=lambda n: (wall_ms[n], n))
    auto_wall = wall_ms[AUTO_ENGINE]

    oracle_sample = [
        j for j in unique if max(j.ref_len, j.query_len) <= oracle_max_length
    ][:oracle_pairs]
    oracle_scores = striped_sw_align(
        [(j.ref, j.query) for j in oracle_sample], scoring
    )
    oracle_identical = all(
        got.score == sw_align_slow(j.ref, j.query, scoring).score
        for j, got in zip(oracle_sample, oracle_scores)
    )

    return StripedBenchResult(
        n_requests=len(stream),
        n_unique=len(unique),
        device=device.name,
        b_max_length=b_max_length,
        wall_ms=wall_ms,
        pairs_per_s={
            n: (len(stream) / w * 1e3 if w else 0.0) for n, w in wall_ms.items()
        },
        best_fixed=best_fixed,
        auto_vs_best_fixed=(
            auto_wall / wall_ms[best_fixed] if wall_ms[best_fixed] else float("inf")
        ),
        auto_bins=auto_bins,
        auto_probe_ms=auto_probe_ms,
        modeled_ms=ref_clock,
        modeled_identical=all(runs[n][1] == ref_clock for n in runs),
        metrics_identical=all(runs[n][3] == ref_metrics for n in runs),
        trace_identical=all(runs[n][4] == ref_trace for n in fixed),
        scores_identical=all(
            a.score == b.score
            for n in runs
            for a, b in zip(ref_results, runs[n][2])
        ),
        oracle_checked=len(oracle_sample),
        oracle_identical=oracle_identical,
        score_digest=_score_digest(ref_results),
        metrics=ref_metrics,
    )
