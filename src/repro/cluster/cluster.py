"""The cluster facade: route, steal, step, fail over, settle.

:class:`AlignmentCluster` shards one request stream over N
:class:`~repro.cluster.worker.ClusterWorker`\\ s and runs a
discrete-event loop on the shared **modeled** timeline:

1. ``submit`` routes every request immediately through the
   :class:`~repro.cluster.router.Router` (policy chosen at
   construction) onto a live worker's backlog;
2. ``run`` repeatedly lets idle workers steal
   (:class:`~repro.cluster.stealing.WorkStealer`), then steps the
   *earliest* busy worker — the worker whose local clock is furthest
   behind — one micro-batch forward.  Worker clocks only advance while
   executing, so "earliest clock" is exactly "next event on the wall
   timeline" and the interleaving is deterministic (ties break toward
   the lower worker index);
3. every served request settles **exactly once** through the
   :class:`~repro.cluster.failover.SettlementLedger`; a worker dying
   mid-run (``WorkerSpec.down_at_ms``) hands its orphans to the
   :class:`~repro.cluster.failover.FailoverCoordinator`, which re-routes
   them onto the surviving replicas.

Because execution order never affects alignment *scores* (the DP
result depends only on the sequences), every routing policy — and
stealing on or off — produces bit-identical results; only the modeled
schedule (makespan, utilization, cache hits) changes.  The tests pin
both properties down.

Two additions serve the self-healing control plane (:mod:`repro.control`):

**Windowed metrics.** ``run(window_ms=W, on_window=f)`` slices the
wall timeline into fixed-width windows and emits a
:class:`~repro.cluster.metrics.WindowSnapshot` (counter deltas +
per-worker rates + the jobs settled in the window) at each boundary —
the boundary is crossed exactly when the next event's clock passes it,
so window emission never perturbs the schedule.  The callback may
*reconfigure the cluster mid-run* through the methods below.

**Mid-run reconfiguration.** :meth:`add_worker`, :meth:`retire_worker`,
:meth:`replace_worker`, :meth:`reshard`, :meth:`set_policy`,
:meth:`resize_cache`, and :meth:`set_engine` mutate a *running*
cluster deterministically: joining workers start their clock at the
reconfiguration instant, retirement re-routes the backlog through the
normal router (counted in ``rebalanced``, not ``failovers``), and
every mutation is itself a pure function of the call arguments — two
runs applying the same remediations at the same boundaries stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import replace

from ..align.scoring import ScoringScheme
from ..baselines.base import ExtensionJob
from ..core.config import SalobaConfig
from ..obs.export import merged_chrome_trace_json
from ..obs.tracer import Tracer
from ..resilience.errors import AlignmentError, CapacityExceeded
from ..resilience.faults import job_key
from ..resilience.report import FailureRecord
from ..resilience.retry import RetryPolicy
from ..seqs.alphabet import encode
from ..serve.request import RequestHandle
from .failover import FailoverCoordinator, SettlementLedger
from .metrics import ClusterMetrics, WindowSnapshot, WorkerWindow, aggregate
from .router import Router
from .stealing import WorkStealer
from .worker import ClusterRequest, ClusterWorker, WorkerSpec

__all__ = ["AlignmentCluster"]


class AlignmentCluster:
    """A sharded multi-worker alignment service on one modeled clock.

    Parameters
    ----------
    specs:
        One :class:`WorkerSpec` per worker (devices may differ).
    scoring / config / compute_scores / retry_policy:
        Forwarded to every worker's private
        :class:`~repro.serve.service.AlignmentService`.
    policy:
        Routing policy name (see :data:`~repro.cluster.router.ROUTING_POLICIES`).
    stealing:
        Enable work stealing between workers (default True).
    steal_penalty_ms_per_job:
        Modeled migration charge per stolen request on the thief's
        clock (sequence re-transfer; the cold thief cache is implicit).
    trace:
        Give every worker its own :class:`~repro.obs.Tracer`;
        :meth:`merged_trace_json` then exports one chrome trace with a
        thread lane per worker.
    engine:
        Cluster-wide default exact-scoring backend (see
        :mod:`repro.engine`); any worker whose spec sets its own
        ``engine`` overrides it.  Scores and the modeled schedule are
        engine-independent, so heterogeneous-engine clusters stay
        bit-identical to homogeneous ones.
    qos:
        Optional :class:`~repro.qos.QoSPolicy`.  Quotas and overload
        shedding are enforced **once, at the cluster ingress**
        (rejections settle handles as ``CapacityExceeded``, counted in
        :attr:`quota_rejections` by reason); each worker's private
        service runs the same policy :meth:`~repro.qos.QoSPolicy.
        without_quotas`, so WFQ lanes and the degradation ladder's
        approximate tiers apply per worker while the bounded worker
        submit can never reject.  A cluster-level
        :class:`~repro.qos.OverloadController` watches the aggregate
        ingress backlog each event-loop round and *forces* its level
        onto every live worker (``service.set_overload_level``), so
        the fleet degrades and recovers in lockstep rather than each
        replica guessing from its own (always tiny) local queue.

    Examples
    --------
    >>> from repro.cluster import AlignmentCluster, WorkerSpec
    >>> cl = AlignmentCluster([WorkerSpec("w0"), WorkerSpec("w1")])
    >>> h = cl.submit("ACGTACGTAC", "ACGTACGTAC")
    >>> m = cl.run()
    >>> h.result().score
    10
    >>> m.completed
    1
    """

    def __init__(
        self,
        specs: list[WorkerSpec],
        *,
        scoring: ScoringScheme | None = None,
        config: SalobaConfig | None = None,
        compute_scores: bool = True,
        policy: str = "least_loaded",
        stealing: bool = True,
        steal_penalty_ms_per_job: float = 0.002,
        qos_backlog_capacity: int | None = None,
        trace: bool = False,
        retry_policy: RetryPolicy | None = None,
        engine=None,
        qos=None,
    ):
        if not specs:
            raise ValueError("a cluster needs at least one worker spec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"worker names must be unique, got {names}")
        self.scoring = scoring or ScoringScheme()
        self.qos = qos
        #: Ingress backlog (queued requests) regarded as pressure 1.0
        #: by the fleet overload controller; defaults to the live
        #: workers' combined ``max_batch_jobs``.
        self.qos_backlog_capacity = qos_backlog_capacity
        if qos is not None:
            from ..qos.overload import OverloadController
            from ..qos.tiers import SHED_LEVEL

            self._worker_qos = qos.without_quotas()
            self._fleet_overload = OverloadController(qos.overload)
            self._shed_level = min(SHED_LEVEL, qos.overload.max_level)
        else:
            self._worker_qos = None
            self._fleet_overload = None
            self._shed_level = None
        #: Ingress rejections by reason code (``tenant_depth``,
        #: ``tenant_cells``, ``overload_shed``) — QoS clusters only.
        self.quota_rejections: dict[str, int] = {}
        # Construction parameters are kept: mid-run reconfiguration
        # (and the control plane's shadow replays) build new workers
        # and whole shadow clusters from them.
        self.config = config
        self.compute_scores = compute_scores
        self.retry_policy = retry_policy
        self.traced = trace
        self.default_engine = engine
        self.steal_penalty_ms_per_job = steal_penalty_ms_per_job
        self.workers = [
            self._build_worker(i, spec) for i, spec in enumerate(specs)
        ]
        self.router = Router(policy)
        self.stealer = (
            WorkStealer(penalty_ms_per_job=steal_penalty_ms_per_job)
            if stealing else None
        )
        self.ledger = SettlementLedger()
        self.failover = FailoverCoordinator(self.router, self.ledger)
        self._next_id = 0
        self._submitted = 0
        self.handles: list[RequestHandle] = []
        #: Requests re-homed by voluntary reconfiguration (retirement,
        #: resharding) — deliberate moves, not failure recovery.
        self.rebalanced = 0
        #: WindowSnapshots of the most recent windowed :meth:`run`.
        self.windows: list[WindowSnapshot] = []
        self._window_jobs: list[ExtensionJob] = []

    def _build_worker(self, index: int, spec: WorkerSpec) -> ClusterWorker:
        return ClusterWorker(
            index, spec,
            scoring=self.scoring, config=self.config,
            compute_scores=self.compute_scores,
            retry_policy=self.retry_policy,
            tracer=Tracer() if self.traced else None,
            engine=self.default_engine,
            qos=self._worker_qos,
        )

    # ----- submission ------------------------------------------------------

    @property
    def policy(self) -> str:
        return self.router.policy

    @property
    def stealing(self) -> bool:
        return self.stealer is not None

    def _new_handle(self, tenant: str = "default") -> RequestHandle:
        handle = RequestHandle(self._next_id, tenant=tenant)
        self._next_id += 1
        return handle

    def submit(self, query, ref, *, deadline_ms: float | None = None,
               tenant: str = "default") -> RequestHandle:
        """Route one ``(query, reference)`` pair onto a worker.

        ``deadline_ms`` is an absolute instant on the shared wall
        timeline: a request still queued when its worker's clock
        passes it is dropped as ``DeadlineExceeded`` instead of
        executed (the cluster-level SLO).  Malformed sequences resolve
        the handle immediately as failed (``JobRejected`` taxonomy),
        mirroring the single-service behaviour; a cluster with no live
        worker fails the request with ``CapacityExceeded`` instead of
        raising, and so do QoS ingress rejections (tenant quota
        exceeded, best-effort shed at the ladder's top level).
        """
        self._submitted += 1
        handle = self._new_handle(tenant)
        self.handles.append(handle)
        try:
            job = ExtensionJob(ref=encode(ref), query=encode(query))
        except (AlignmentError, ValueError, TypeError) as exc:
            name = type(exc).__name__ if isinstance(exc, AlignmentError) else "JobRejected"
            self.ledger.settle_fail_handle(
                handle,
                FailureRecord(handle.request_id, name, str(exc), attempts=0),
                completed_ms=0.0,
            )
            return handle
        self._place_job(job, handle, deadline_ms=deadline_ms, tenant=tenant)
        return handle

    def submit_jobs(self, jobs: list[ExtensionJob], *,
                    deadline_ms: float | None = None,
                    tenant: str = "default") -> list[RequestHandle]:
        """Bulk-route pre-built extension jobs (the benchmark path)."""
        out = []
        for job in jobs:
            self._submitted += 1
            handle = self._new_handle(tenant)
            self.handles.append(handle)
            self._place_job(job, handle, deadline_ms=deadline_ms, tenant=tenant)
            out.append(handle)
        return out

    def tenant_backlog(self, tenant: str) -> tuple[int, int]:
        """Queued ``(requests, cells)`` for *tenant* across live workers."""
        depth = cells = 0
        for w in self.workers:
            if not w.alive:
                continue
            for q in w._backlog.values():
                for req in q:
                    if req.tenant == tenant:
                        depth += 1
                        cells += req.est_cells
        return depth, cells

    def _ingress_reason(self, job: ExtensionJob, tenant: str) -> tuple[str, str] | None:
        """QoS ingress gate: ``(reason, message)`` or None to admit."""
        if self.qos is None:
            return None
        if (self.qos.shed
                and self._fleet_overload.effective_level >= self._shed_level
                and self.qos.tenant(tenant).tenant_class == "best_effort"):
            return ("overload_shed",
                    f"overload shed: best-effort tenant {tenant!r} refused at "
                    f"fleet degradation level {self._fleet_overload.effective_level}")
        policy = self.qos.tenant(tenant)
        if policy.max_depth is None and policy.max_cells is None:
            return None
        depth, cells = self.tenant_backlog(tenant)
        if policy.max_depth is not None and depth >= policy.max_depth:
            return ("tenant_depth",
                    f"tenant {tenant!r} already has {depth} request(s) queued "
                    f"(quota {policy.max_depth})")
        if policy.max_cells is not None and cells + job.cells > policy.max_cells:
            return ("tenant_cells",
                    f"admitting this job would put tenant {tenant!r} at "
                    f"{cells + job.cells} queued cell(s) (quota {policy.max_cells})")
        return None

    def _place_job(self, job: ExtensionJob, handle: RequestHandle, *,
                   deadline_ms: float | None = None,
                   tenant: str = "default") -> None:
        req = ClusterRequest(
            job=job, handle=handle, key=job_key(job), est_cells=job.cells,
            deadline_ms=deadline_ms, tenant=tenant,
        )
        why = self._ingress_reason(job, tenant)
        if why is not None:
            reason, message = why
            self.quota_rejections[reason] = self.quota_rejections.get(reason, 0) + 1
            self.ledger.settle_fail(
                req,
                FailureRecord(req.request_id, "CapacityExceeded", message, attempts=0),
                completed_ms=0.0,
            )
            return
        try:
            self.router.place(req, self.workers)
        except CapacityExceeded as exc:
            self.ledger.settle_fail(
                req,
                FailureRecord(req.request_id, "CapacityExceeded", str(exc), attempts=0),
                completed_ms=0.0,
            )

    # ----- the discrete-event loop -----------------------------------------

    @property
    def pending(self) -> int:
        """Requests placed on live workers but not yet resolved."""
        return sum(w.backlog_n for w in self.workers if w.alive)

    @property
    def frontier_ms(self) -> float:
        """The wall instant of the next event (earliest busy clock),
        falling back to the latest clock when no work is pending."""
        busy = [w.clock_ms for w in self.workers if w.alive and w.backlog_n > 0]
        if busy:
            return min(busy)
        return max((w.clock_ms for w in self.workers), default=0.0)

    def _next_worker(self) -> ClusterWorker | None:
        """The earliest-clock live worker holding work (= next event)."""
        busy = [w for w in self.workers if w.alive and w.backlog_n > 0]
        if not busy:
            return None
        return min(busy, key=lambda w: (w.clock_ms, w.index))

    def _steal_round(self) -> None:
        """Let every idle live worker attempt one steal, earliest
        clock first — idle thieves are exactly the workers the next
        batch would otherwise leave behind the makespan."""
        idle = sorted(
            (w for w in self.workers if w.alive and w.backlog_n == 0),
            key=lambda w: (w.clock_ms, w.index),
        )
        for thief in idle:
            self.stealer.try_steal(thief, self.workers)

    def _settle_served(self, worker: ClusterWorker, served: list[ClusterRequest]) -> None:
        """Resolve cluster handles from the worker-service outcomes."""
        for req in served:
            sh = req.service_handle
            assert sh is not None and sh.done
            self._window_jobs.append(req.job)
            if sh.ok:
                self.ledger.settle_ok(
                    req, sh.result_value,
                    completed_ms=worker.clock_ms,
                    service_ms=sh.service_ms,
                    from_cache=sh.from_cache,
                    tier=sh.tier,
                )
            else:
                assert sh.failure is not None
                record = replace(
                    sh.failure, job_index=req.request_id,
                    attempts=max(sh.failure.attempts, req.hops + 1),
                )
                self.ledger.settle_fail(req, record, completed_ms=worker.clock_ms)

    def _settle_expired(self, worker: ClusterWorker,
                        expired: list[ClusterRequest]) -> None:
        """Fail requests whose wall-clock deadline passed in queue."""
        for req in expired:
            self._window_jobs.append(req.job)
            self.ledger.settle_fail(
                req,
                FailureRecord(
                    req.request_id, "DeadlineExceeded",
                    f"request was still queued on worker {worker.name!r} at "
                    f"{worker.clock_ms:g} ms, past its cluster deadline of "
                    f"{req.deadline_ms:g} ms",
                    attempts=req.hops,
                ),
                completed_ms=worker.clock_ms,
            )

    def run(self, *, window_ms: float | None = None,
            on_window=None) -> ClusterMetrics:
        """Drive the cluster until every placed request has resolved.

        Returns the final :meth:`metrics` snapshot.  Deterministic for
        a deterministic submission stream: the loop's only inputs are
        worker clocks, indices, and backlog contents.

        With ``window_ms`` set, the run also emits a
        :class:`WindowSnapshot` every ``window_ms`` of wall time
        (collected on :attr:`windows`), passing each to *on_window*
        right at the boundary.  Window emission itself never perturbs
        the schedule; the callback, however, may reconfigure the
        cluster (add/retire workers, swap policy, ...) and thereby
        steer the rest of the run — that is the control plane's
        entry point.
        """
        windowed = window_ms is not None
        if windowed:
            if window_ms <= 0:
                raise ValueError("window_ms must be positive")
            self.windows = []
            self._window_jobs = []
            mark = self._window_mark()
            boundary = window_ms
        while True:
            if self.stealer is not None and len(self.workers) > 1:
                self._steal_round()
            self._observe_fleet()
            worker = self._next_worker()
            if worker is None:
                break
            if windowed and worker.clock_ms >= boundary:
                # Every event before the boundary has happened: close
                # the window, let the control plane act, then resume.
                mark = self._emit_window(boundary - window_ms, boundary,
                                         mark, on_window)
                boundary += window_ms
                continue
            outcome = worker.step()
            if outcome.expired:
                self._settle_expired(worker, outcome.expired)
            if outcome.died:
                self.failover.handle_device_down(
                    worker, outcome.orphans, self.workers, now_ms=worker.clock_ms
                )
            elif outcome.served:
                self._settle_served(worker, outcome.served)
        if windowed:
            # Close the trailing partial window at the makespan so the
            # windows partition the whole run.
            start = boundary - window_ms
            end = max((w.clock_ms for w in self.workers), default=start)
            self._emit_window(start, max(end, start), mark, on_window)
        return self.metrics()

    def _observe_fleet(self) -> None:
        """One fleet-overload round: observe the aggregate ingress
        backlog (relative to the live workers' batch capacity) and
        force the resulting ladder level onto every live worker so the
        whole fleet degrades — and recovers — in lockstep."""
        if self._fleet_overload is None:
            return
        capacity = self.qos_backlog_capacity or sum(
            w.spec.max_batch_jobs for w in self.workers if w.alive
        )
        pressure = self.pending / capacity if capacity else 0.0
        self._fleet_overload.observe(pressure)
        level = self._fleet_overload.effective_level
        for w in self.workers:
            if w.alive:
                w.service.set_overload_level(level)

    # ----- windowed rollups ------------------------------------------------

    def _window_mark(self) -> dict:
        """Cumulative counter values a window's deltas are taken from."""
        return {
            "completed": self.ledger.completed,
            "failed": self.ledger.failed,
            "deadline_misses": self.ledger.failure_counts.get("DeadlineExceeded", 0),
            "steals": self.stealer.steal_count if self.stealer else 0,
            "jobs_stolen": self.stealer.jobs_stolen if self.stealer else 0,
            "failovers": self.failover.failovers,
            "unroutable": self.failover.unroutable,
            "workers_lost": self.failover.workers_lost,
            "workers": {
                w.name: (
                    w.clock_ms, w.steal_penalty_ms, w.service.clock_ms,
                    w.served, w.expired, w.served_cells,
                    w.service.cache.stats.hits if w.service.cache else 0,
                    w.service.cache.stats.misses if w.service.cache else 0,
                )
                for w in self.workers
            },
        }

    def _emit_window(self, start_ms: float, end_ms: float, mark: dict,
                     on_window) -> dict:
        """Build the ``[start, end)`` snapshot, deliver it, re-mark."""
        worker_windows = []
        for w in self.workers:
            prev = mark["workers"].get(
                w.name, (w.joined_at_ms, 0.0, 0.0, 0, 0, 0, 0, 0)
            )
            (clock0, penalty0, svc0, served0, expired0, cells0,
             hits0, misses0) = prev
            busy = w.clock_ms - clock0
            cells = w.served_cells - cells0
            # Observed slowdown: the worker's wall-clock advance over
            # its own service clock's advance (the modeled execution
            # time its internal accounting reports, overheads and all).
            # Steal penalties land on the wall clock only, so they are
            # excluded; a healthy worker measures exactly 1.0 and a
            # degraded one measures its dilation factor.
            exec_ms = busy - (w.steal_penalty_ms - penalty0)
            nominal = w.service.clock_ms - svc0
            dilation = exec_ms / nominal if nominal > 0.0 else 1.0
            worker_windows.append(WorkerWindow(
                name=w.name,
                alive=w.alive,
                dead=w.dead,
                retired=w.retired,
                busy_ms=busy,
                served=w.served - served0,
                expired=w.expired - expired0,
                cells=cells,
                nominal_ms=nominal,
                dilation=dilation,
                queue_depth=w.backlog_n,
                cache_hits=(w.service.cache.stats.hits if w.service.cache else 0) - hits0,
                cache_misses=(w.service.cache.stats.misses if w.service.cache else 0) - misses0,
            ))
        busy_alive = [ww.busy_ms for ww in worker_windows
                      if ww.alive and ww.busy_ms > 0.0]
        mean_busy = sum(busy_alive) / len(busy_alive) if busy_alive else 0.0
        hits = sum(ww.cache_hits for ww in worker_windows)
        misses = sum(ww.cache_misses for ww in worker_windows)
        snap = WindowSnapshot(
            index=len(self.windows),
            start_ms=start_ms,
            end_ms=end_ms,
            completed=self.ledger.completed - mark["completed"],
            failed=self.ledger.failed - mark["failed"],
            deadline_misses=(
                self.ledger.failure_counts.get("DeadlineExceeded", 0)
                - mark["deadline_misses"]
            ),
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            pending=self.pending,
            steals=(self.stealer.steal_count if self.stealer else 0) - mark["steals"],
            jobs_stolen=(self.stealer.jobs_stolen if self.stealer else 0) - mark["jobs_stolen"],
            failovers=self.failover.failovers - mark["failovers"],
            unroutable=self.failover.unroutable - mark["unroutable"],
            workers_lost=self.failover.workers_lost - mark["workers_lost"],
            imbalance=(max(busy_alive) / mean_busy) if mean_busy else 1.0,
            workers=tuple(worker_windows),
            jobs=tuple(self._window_jobs),
        )
        self._window_jobs = []
        self.windows.append(snap)
        if on_window is not None:
            on_window(snap)
        return self._window_mark()

    # ----- mid-run reconfiguration -----------------------------------------

    def worker_by_name(self, name: str) -> ClusterWorker:
        for w in self.workers:
            if w.name == name:
                return w
        raise ValueError(f"no worker named {name!r} in the cluster")

    def add_worker(self, spec: WorkerSpec, *,
                   now_ms: float | None = None) -> ClusterWorker:
        """Join a fresh worker to the pool at wall instant *now_ms*.

        The newcomer's clock starts at the join instant (it was not
        there before, so it cannot have been busy); its busy time and
        utilization account from there.  Defaults to the frontier.
        """
        if any(w.name == spec.name for w in self.workers):
            raise ValueError(f"worker name {spec.name!r} already in the cluster")
        now = self.frontier_ms if now_ms is None else now_ms
        worker = self._build_worker(len(self.workers), spec)
        worker.clock_ms = worker.joined_at_ms = now
        self.workers.append(worker)
        return worker

    def retire_worker(self, name: str, *, now_ms: float | None = None) -> int:
        """Voluntarily remove a worker; its backlog is re-routed.

        Returns the number of requests re-homed (``rebalanced``).  A
        retired worker takes no further placements and is not a lost
        device; retiring an already-dead worker is bookkeeping only.
        Orphans that find no live replica settle as ``CapacityExceeded``.
        """
        worker = self.worker_by_name(name)
        if worker.retired:
            return 0
        now = worker.clock_ms if now_ms is None else now_ms
        worker.retired = True
        moved = 0
        for req in worker.drain_backlog():
            req.service_handle = None
            try:
                self.router.place(req, self.workers)
                moved += 1
            except CapacityExceeded as exc:
                self.ledger.settle_fail(
                    req,
                    FailureRecord(req.request_id, "CapacityExceeded", str(exc),
                                  attempts=req.hops),
                    completed_ms=now,
                )
        self.rebalanced += moved
        return moved

    def replace_worker(self, name: str, spec: WorkerSpec, *,
                       now_ms: float | None = None) -> ClusterWorker:
        """Swap one replica for a fresh one in a single reconfiguration.

        The newcomer joins *first*, so the retiree's backlog can land
        on it — the control plane's standard remedy for a dead or
        degraded replica.
        """
        now = self.frontier_ms if now_ms is None else now_ms
        worker = self.add_worker(spec, now_ms=now)
        self.retire_worker(name, now_ms=now)
        return worker

    def reshard(self, *, now_ms: float | None = None) -> int:
        """Pull every queued request and re-place it through the router.

        Deterministic: backlogs drain in worker-index order, each in
        its own deterministic bin order, and the router places one
        request at a time.  Returns the number of requests that moved
        to a *different* worker (all re-placements count toward
        ``rebalanced``).
        """
        del now_ms  # uniform reconfiguration signature; resharding is instant
        staged: list[tuple[ClusterRequest, int]] = []
        for w in self.workers:
            if not w.alive:
                continue
            staged.extend((req, w.index) for req in w.drain_backlog())
        moved = 0
        for req, origin in staged:
            target = self.router.place(req, self.workers)
            if target.index != origin:
                moved += 1
        self.rebalanced += len(staged)
        return moved

    def set_policy(self, policy: str) -> None:
        """Swap the routing policy for every placement from now on."""
        old = self.router
        self.router = Router(policy)
        self.router.placements = old.placements
        self.failover.router = self.router

    def resize_cache(self, name: str, max_bytes: int) -> None:
        """Resize one worker's private result cache in place."""
        self.worker_by_name(name).service.resize_cache(max_bytes)

    def set_engine(self, name: str, engine) -> None:
        """Swap one worker's exact-scoring backend (wall-clock only:
        scores and the modeled schedule are engine-independent)."""
        self.worker_by_name(name).service.set_engine(engine)

    # ----- observability ---------------------------------------------------

    def qos_metrics(self) -> dict | None:
        """Fleet QoS snapshot, or ``None`` when QoS is disabled.

        ``{"level", "level_shifts", "peak_pressure", "quota_rejections",
        "workers": {name: QoSMetrics.to_dict()}}`` — the fleet level is
        the cluster controller's (every live worker is forced to it);
        per-worker entries carry WFQ/degradation detail.
        """
        if self._fleet_overload is None:
            return None
        return {
            "level": self._fleet_overload.effective_level,
            "level_shifts": self._fleet_overload.shifts,
            "peak_pressure": self._fleet_overload.peak_pressure,
            "quota_rejections": dict(sorted(self.quota_rejections.items())),
            "workers": {
                w.name: w.service.qos_metrics().to_dict() for w in self.workers
            },
        }

    def metrics(self) -> ClusterMetrics:
        """Deterministic aggregate snapshot (see :mod:`.metrics`)."""
        return aggregate(
            policy=self.policy,
            stealing=self.stealing,
            workers=self.workers,
            ledger=self.ledger,
            stealer=self.stealer,
            failover=self.failover,
            n_requests=self._submitted,
            rebalanced=self.rebalanced,
        )

    def merged_trace_json(self) -> str:
        """One chrome trace with a thread lane per traced worker."""
        traced = [(w.name, w.tracer) for w in self.workers if w.tracer is not None]
        if not traced:
            raise ValueError(
                "cluster was built with trace=False; no tracers to export"
            )
        return merged_chrome_trace_json(traced)
