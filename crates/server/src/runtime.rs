//! The service runtime: registry + snapshot store + worker threads.
//!
//! [`Server::serve`] drives many concurrent sessions' request streams
//! against one registered binary, addressed by its [`BinaryId`] handle.
//! Sessions go into per-worker run queues with work stealing
//! ([`WorkQueues`]): a worker drains its own queue front-first and, when
//! empty, steals from a sibling's back — a slow session no longer strands
//! the sessions queued behind it the way the old static round-robin shards
//! did.  Each worker owns the VM instances of the sessions it runs (VMs are
//! plain `Send` state, nothing is shared mutably across workers), so the
//! simulation stays deterministic per session while the host-side work is
//! genuinely parallel.
//!
//! Per-session VMs are copy-on-write forks of a per-version
//! [`SessionTemplate`](crate::store::SessionTemplate) kept in the server's
//! [`SnapshotStore`] — the binary is loaded once per *version*, not per
//! session or per worker, and sessions share its clean pages.
//!
//! Every session *pins* the binary's active version at session start
//! ([`Registry::checkout_active`]) and releases it when its stream ends, so
//! a blue/green promotion that lands mid-serve only affects sessions that
//! start after it — in-flight sessions finish on the version they began
//! with, and the drained old version retires once the last session ends and
//! the store sweeps its template.
//!
//! Two execution modes make the serving cost model measurable:
//!
//! * [`ExecMode::Cold`] — every request pays load + setup on a fresh VM
//!   (the repeated cold compile-and-execute our earlier reproduction did).
//! * [`ExecMode::Pooled`] — per-session warm instances are rewound to their
//!   post-setup snapshot between requests (O(dirty pages)), the paper's
//!   many-requests-per-load deployment.
//!
//! [`Server::serve_scaled`] is the third entry point: it runs an
//! [`ArrivalPlan`] through the deterministic virtual-time scheduler
//! ([`run_virtual`]) over forked instances — bounded admission,
//! backpressure (shed/defer), EDF dispatch — and reports queueing-aware
//! latency tails plus per-session resident-page statistics, the 10^4–10^5
//! session experiment.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use confllvm_vm::{Outcome, Vm, VmOptions};

use crate::handles::{BinaryId, SessionId, VersionId};
use crate::metrics::{RequestMetrics, StreamMetrics};
use crate::pool::{PoolOptions, PooledInstance, SpawnError, VmPool};
use crate::registry::{Registry, ServiceBinary};
use crate::sched::{run_virtual, ArrivalPlan, ExecCost, SchedulerConfig, WorkQueues};
use crate::session::{Request, SessionSpec};
use crate::store::SnapshotStore;

/// How requests are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Fresh VM + setup per request.
    Cold,
    /// Warm per-session instances with snapshot/reset between requests.
    Pooled,
}

impl ExecMode {
    /// Short lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Cold => "cold",
            ExecMode::Pooled => "pooled",
        }
    }
}

/// Runtime configuration, built fluently:
/// `ServerConfig::new().workers(8)`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads driving sessions (host-side parallelism).
    pub workers: usize,
    /// Options for every VM the runtime spawns.
    pub vm: VmOptions,
    /// Snapshot-restore cost model for pooled instances.
    pub pool: PoolOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            vm: VmOptions::default(),
            pool: PoolOptions::default(),
        }
    }
}

impl ServerConfig {
    /// The default configuration (4 workers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the VM options.
    pub fn vm(mut self, vm: VmOptions) -> Self {
        self.vm = vm;
        self
    }

    /// Set the pool cost model.
    pub fn pool(mut self, pool: PoolOptions) -> Self {
        self.pool = pool;
        self
    }
}

/// A serving failure.
#[derive(Debug)]
pub enum ServeError {
    /// The handle does not name a submitted binary.
    UnknownBinary {
        /// The unknown handle.
        binary: BinaryId,
    },
    /// The binary exists but nothing is promoted: versions may be warm,
    /// draining or rejected, but none is active to serve new sessions.
    NoActiveVersion {
        /// The binary with nothing active.
        binary: BinaryId,
    },
    /// Two sessions share an id.  Instances are keyed by session id, so
    /// admitting this would serve one client's requests against another
    /// client's private state.
    DuplicateSession {
        /// The colliding id.
        id: SessionId,
    },
    /// An instance could not be spawned.
    Spawn(SpawnError),
    /// A request faulted (the instrumentation stopping an attempted leak is
    /// a fault, so a serving test failing here is meaningful).
    Request {
        /// The session whose request failed.
        session: SessionId,
        /// Index of the request in the session's stream.
        index: usize,
        /// How the request ended.
        outcome: Outcome,
    },
    /// A scale run's arrival plan referenced a request the session spec
    /// does not have (plan and specs must be built from the same
    /// [`ArrivalPlan::per_session_counts`]).
    PlanMismatch {
        /// The session with too few requests.
        session: SessionId,
        /// The missing request index.
        index: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownBinary { binary } => write!(f, "no such binary {binary}"),
            ServeError::NoActiveVersion { binary } => {
                write!(f, "{binary} has no active version (nothing promoted)")
            }
            ServeError::DuplicateSession { id } => {
                write!(f, "duplicate {id} in one serve call")
            }
            ServeError::Spawn(e) => write!(f, "instance spawn failed: {e}"),
            ServeError::Request {
                session,
                index,
                outcome,
            } => write!(f, "{session} request {index} failed: {outcome:?}"),
            ServeError::PlanMismatch { session, index } => write!(
                f,
                "{session} has no request {index}: arrival plan and session \
                 specs disagree"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SpawnError> for ServeError {
    fn from(e: SpawnError) -> Self {
        ServeError::Spawn(e)
    }
}

/// What one session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The session this outcome belongs to.
    pub id: SessionId,
    /// The version the session was pinned to for its whole stream.
    pub version: VersionId,
    /// Exit code of each request's entry, in execution order (stream order
    /// for `serve`; scheduler dispatch order for `serve_scaled`, where shed
    /// requests never execute).
    pub exit_codes: Vec<i64>,
    /// Bytes this session's requests sent on the network in clear —
    /// attacker-observable.
    pub sent: Vec<u8>,
    /// Bytes this session's requests appended to the log —
    /// attacker-observable.
    pub log: Vec<u8>,
    /// The session's aggregated request metrics.
    pub metrics: StreamMetrics,
}

impl SessionOutcome {
    /// An outcome with nothing served yet.
    fn empty(id: SessionId, version: VersionId) -> Self {
        SessionOutcome {
            id,
            version,
            exit_codes: Vec::new(),
            sent: Vec::new(),
            log: Vec::new(),
            metrics: StreamMetrics::default(),
        }
    }
}

/// The result of serving a set of streams.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The served binary's handle.
    pub binary: BinaryId,
    /// The served binary's name (for display).
    pub name: String,
    /// Execution mode of the run.
    pub mode: ExecMode,
    /// Per-session outcomes, sorted by session id.
    pub sessions: Vec<SessionOutcome>,
    /// All sessions' metrics merged.
    pub metrics: StreamMetrics,
    /// Warm instances spawned (pooled mode; cold mode spawns per request and
    /// reports the request count here).
    pub instances_spawned: u64,
    /// Host-side wall time for the whole run, microseconds (includes the
    /// compile-free load/setup work cold mode repeats per request).
    pub host_micros: u128,
}

impl ServiceReport {
    /// The attacker-observable trace of every session, concatenated in
    /// session order — what the two-run equivalence tests compare.
    pub fn observable(&self) -> Vec<u8> {
        observable_of(&self.sessions)
    }

    /// How many sessions were served by `version` — what the hot-swap
    /// tests count per side of the blue/green cut.
    pub fn sessions_on(&self, version: VersionId) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.version == version)
            .count()
    }
}

fn observable_of(sessions: &[SessionOutcome]) -> Vec<u8> {
    let mut v = Vec::new();
    for s in sessions {
        v.extend_from_slice(&s.sent);
        v.extend_from_slice(&s.log);
    }
    v
}

/// Per-session resident-memory statistics of a scale run, in 4 KiB pages.
/// "Parked" is the steady-state footprint of an idle session (measured
/// after rewinding every instance to its snapshot); "peak" is the largest
/// footprint any request left behind before its rewind.
#[derive(Debug, Clone, Default)]
pub struct ResidentStats {
    /// Pages in the shared template snapshot — paid once per *version*.
    pub template_pages: usize,
    /// Mean private pages per parked session.
    pub mean_parked_pages: f64,
    pub max_parked_pages: usize,
    pub total_parked_pages: usize,
    /// Mean of each session's peak private-page count.
    pub mean_peak_pages: f64,
    /// Copy-on-write faults taken across all sessions.
    pub cow_faults: u64,
    /// Sessions that were given an instance.  A CoW-forked session is
    /// forked on its first request, so this is the number of distinct
    /// sessions that executed; the isolated baseline and per-fork-setup
    /// templates spawn every session up front.
    pub materialised_sessions: usize,
}

/// The result of a virtual-time scale run ([`Server::serve_scaled`]).
#[derive(Debug, Clone)]
pub struct ScaleReport {
    pub binary: BinaryId,
    /// The served binary's name (for display).
    pub name: String,
    /// The version the whole run was pinned to.
    pub version: VersionId,
    /// Per-session outcomes, sorted by session id.
    pub sessions: Vec<SessionOutcome>,
    /// All sessions' metrics merged, including the scheduler's shed/defer
    /// counters, queue-depth samples and virtual latencies.
    pub metrics: StreamMetrics,
    /// Requests executed (arrivals minus shed).
    pub executed: u64,
    /// Admission windows the scheduler ran.
    pub windows: u64,
    /// Virtual makespan of the run in simulated cycles.
    pub makespan_cycles: u64,
    pub resident: ResidentStats,
    /// Per-window telemetry from the scheduler: one
    /// [`WindowStat`](confllvm_obs::WindowStat) per admission window, with
    /// per-request CoW faults filled in and the run's verify-cache-hit
    /// delta charged to the first window (the checkout happens before any
    /// window opens).
    pub series: confllvm_obs::WindowSeries,
    /// Burn-rate evaluation of the window series against
    /// [`SloRules::default`](confllvm_obs::SloRules) — fast and slow
    /// breach excursions, counted edge-triggered.
    pub slo: confllvm_obs::SloReport,
    /// Host-side wall time for the whole run, microseconds.
    pub host_micros: u128,
}

impl ScaleReport {
    /// The attacker-observable trace of every session, concatenated in
    /// session order — compared across forked vs isolated spawn modes.
    pub fn observable(&self) -> Vec<u8> {
        observable_of(&self.sessions)
    }
}

/// The service runtime.  Shares its [`Registry`] with submitters, so
/// serving and (re-)registration run concurrently against one source of
/// truth; keeps a [`SnapshotStore`] of per-version fork templates.
#[derive(Debug)]
pub struct Server {
    /// The shared verify-then-load registry.
    pub registry: Arc<Registry>,
    /// Runtime configuration.
    pub config: ServerConfig,
    /// Per-version fork templates (pin-counted against the registry).
    store: SnapshotStore,
}

impl Default for Server {
    fn default() -> Self {
        Server::new(Arc::new(Registry::default()), ServerConfig::default())
    }
}

impl Server {
    /// A runtime over a shared registry.
    pub fn new(registry: Arc<Registry>, config: ServerConfig) -> Self {
        let store = SnapshotStore::new(Arc::clone(&registry));
        Server {
            registry,
            config,
            store,
        }
    }

    /// Fork templates currently held (and versions pinned) by this server.
    pub fn live_templates(&self) -> usize {
        self.store.live_templates()
    }

    /// Fail fast on an unknown handle or an unpromoted binary; returns the
    /// service name.
    fn probe(&self, binary: BinaryId) -> Result<String, ServeError> {
        let (_, probe) = checkout(&self.registry, binary)?;
        let name = probe.name.clone();
        self.registry.release(probe.version_id);
        Ok(name)
    }

    /// Serve every session's request stream against `binary`'s active
    /// version, spreading sessions over work-stealing worker threads.  Each
    /// session pins the version active *when it starts* and keeps it for
    /// its whole stream.
    pub fn serve(
        &self,
        binary: BinaryId,
        sessions: &[SessionSpec],
        mode: ExecMode,
    ) -> Result<ServiceReport, ServeError> {
        // Fail fast before any worker starts (individual sessions still
        // re-checkout so a mid-run promotion is picked up by later
        // sessions).
        let name = self.probe(binary)?;
        let mut ids = std::collections::HashSet::new();
        for s in sessions {
            if !ids.insert(s.id) {
                return Err(ServeError::DuplicateSession { id: s.id });
            }
        }
        let started = Instant::now();
        let mut obs_span = confllvm_obs::recorder().span("server", "server.serve");
        if obs_span.active() {
            obs_span.attr("sessions", sessions.len());
            obs_span.attr("mode", mode.name());
            obs_span.attr("workers", self.config.workers);
        }

        let workers = self.config.workers.max(1).min(sessions.len().max(1));
        let queues = WorkQueues::new(workers, 0..sessions.len());
        let abort = AtomicBool::new(false);

        type WorkerYield = (Vec<(usize, Result<SessionOutcome, ServeError>)>, u64);
        let results: Vec<WorkerYield> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let abort = &abort;
                    let store = &self.store;
                    let registry = Arc::clone(&self.registry);
                    let vm_opts = self.config.vm.clone();
                    let pool_opts = self.config.pool;
                    scope.spawn(move || {
                        run_worker(
                            w, queues, abort, store, &registry, binary, vm_opts, pool_opts,
                            sessions, mode, started,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });

        let mut outcomes = Vec::with_capacity(sessions.len());
        let mut spawned = 0;
        let mut errors: Vec<(usize, ServeError)> = Vec::new();
        for (worker_outcomes, worker_spawned) in results {
            spawned += worker_spawned;
            for (index, r) in worker_outcomes {
                match r {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(e) => errors.push((index, e)),
                }
            }
        }
        // Retire drained versions whose last session just released.
        self.store.sweep();
        if let Some((_, e)) = errors.into_iter().min_by_key(|(i, _)| *i) {
            return Err(e);
        }
        outcomes.sort_by_key(|s| s.id);
        let mut metrics = StreamMetrics::default();
        for s in &outcomes {
            metrics.merge(&s.metrics);
        }
        if obs_span.active() {
            obs_span.attr("instances_spawned", spawned);
            obs_span.attr("requests", metrics.requests);
        }
        Ok(ServiceReport {
            binary,
            name,
            mode,
            sessions: outcomes,
            metrics,
            instances_spawned: spawned,
            host_micros: started.elapsed().as_micros(),
        })
    }

    /// Run an [`ArrivalPlan`] against `binary` through the deterministic
    /// virtual-time scheduler: bounded admission windows, shed/defer
    /// backpressure, EDF dispatch over `sched.model_workers` virtual
    /// workers.  All sessions fork from the version's shared template (or
    /// spawn fully isolated under [`PoolOptions::isolate_sessions`] — the
    /// baseline), and the report carries queueing-aware latency tails plus
    /// resident-page statistics.  When a fresh fork is pristine (the setup
    /// is shared and sessions are not isolated) a session is forked on its
    /// first dispatched request, so only sessions that execute are ever
    /// forked ([`ResidentStats::materialised_sessions`]).
    ///
    /// `sessions[i]` must have at least as many requests as the plan sends
    /// to session `i` (build the specs from
    /// [`ArrivalPlan::per_session_counts`]).
    pub fn serve_scaled(
        &self,
        binary: BinaryId,
        sessions: &[SessionSpec],
        plan: &ArrivalPlan,
        sched: &SchedulerConfig,
    ) -> Result<ScaleReport, ServeError> {
        let rec = confllvm_obs::recorder();
        let started = Instant::now();
        let cache_hits_before = self.registry.cache_stats().hits;
        let (version, service) = checkout(&self.registry, binary)?;
        let name = service.name.clone();
        let mut span = rec.span("server", "server.scale");
        let finish = |r: &Registry, store: &SnapshotStore| {
            r.release(version);
            store.sweep();
        };

        let mut vm_opts = self.config.vm.clone();
        vm_opts.allocator = service.config.allocator();
        let template = match self.store.template(version, &service, vm_opts) {
            Ok(t) => t,
            Err(e) => {
                finish(&self.registry, &self.store);
                return Err(e.into());
            }
        };
        let pool_opts = self.config.pool;

        // A session's instance is spawned from the template on its first
        // dispatched request when a fresh one is provably pristine (a CoW
        // fork of a shared setup owns no page and takes no fault until it
        // runs), so a session that never executes is never forked and parks
        // at exactly what an untouched fork would: zero pages, zero faults.
        // Instances that hold private pages from birth — the isolated
        // baseline, and per-fork setup, which can also fail at admission —
        // are still spawned up front so residency is measured honestly and
        // spawn errors surface before the run.
        let mut instances: Vec<Option<PooledInstance>> = sessions.iter().map(|_| None).collect();
        if !template.fork_is_pristine(&pool_opts) {
            for (slot, s) in instances.iter_mut().zip(sessions) {
                match template.session_instance(&s.world, &pool_opts) {
                    Ok(i) => *slot = Some(i),
                    Err(e) => {
                        finish(&self.registry, &self.store);
                        return Err(e.into());
                    }
                }
            }
        }

        let mut outcomes: Vec<SessionOutcome> = sessions
            .iter()
            .map(|s| SessionOutcome::empty(s.id, version))
            .collect();
        let mut peak_pages = vec![0usize; sessions.len()];
        let mut first_error: Option<ServeError> = None;

        let drain = ExecCost {
            cycles: 1,
            cow_faults: 0,
        };
        let mut sched_result = run_virtual(sched, plan, |si, ri| {
            if first_error.is_some() {
                return drain; // drain the plan cheaply once the run has failed
            }
            let Some(req) = sessions[si].requests.get(ri) else {
                first_error = Some(ServeError::PlanMismatch {
                    session: sessions[si].id,
                    index: ri,
                });
                return drain;
            };
            let slot = &mut instances[si];
            if slot.is_none() {
                match template.session_instance(&sessions[si].world, &pool_opts) {
                    Ok(i) => *slot = Some(i),
                    Err(e) => {
                        first_error = Some(e.into());
                        return drain;
                    }
                }
            }
            let inst = slot.as_mut().expect("materialised above");
            let cow_before = inst.vm.cow_faults();
            let (dirty, restore_cycles) = inst.reset(&pool_opts);
            let baselines = (inst.sent_baseline, inst.log_baseline);
            let out = &mut outcomes[si];
            let mut m = match execute_request(&mut inst.vm, baselines, req, ri, false, out) {
                Ok(m) => m,
                Err(e) => {
                    first_error = Some(e);
                    return drain;
                }
            };
            m.restore_cycles = restore_cycles;
            m.dirty_pages = dirty;
            m.cycles += restore_cycles;
            out.metrics.add(&m);
            peak_pages[si] = peak_pages[si].max(inst.vm.resident_private_pages());
            ExecCost {
                cycles: m.cycles,
                cow_faults: inst.vm.cow_faults() - cow_before,
            }
        });

        if let Some(e) = first_error {
            finish(&self.registry, &self.store);
            return Err(e);
        }

        // Park every materialised session (rewind to its snapshot) and
        // measure what an idle session actually keeps resident.  A session
        // that was never forked holds nothing, exactly like an untouched
        // fork, so it counts as zero pages and zero faults.
        let mut parked: Vec<usize> = Vec::with_capacity(instances.len());
        let mut cow_faults = 0u64;
        for inst in instances.iter_mut().flatten() {
            inst.reset(&pool_opts);
            parked.push(inst.resident_private_pages());
            cow_faults += inst.vm.cow_faults();
        }
        let n = sessions.len().max(1);
        let resident = ResidentStats {
            template_pages: template.shared_pages(),
            mean_parked_pages: parked.iter().sum::<usize>() as f64 / n as f64,
            max_parked_pages: parked.iter().copied().max().unwrap_or(0),
            total_parked_pages: parked.iter().sum(),
            mean_peak_pages: peak_pages.iter().sum::<usize>() as f64 / n as f64,
            cow_faults,
            materialised_sessions: parked.len(),
        };

        let mut metrics = StreamMetrics::default();
        outcomes.sort_by_key(|s| s.id);
        for o in &outcomes {
            metrics.merge(&o.metrics);
        }
        metrics.shed = sched_result.shed;
        metrics.deferred = sched_result.deferred;
        for &d in &sched_result.queue_depth_samples {
            metrics.record_queue_depth(d);
        }
        for c in &sched_result.completions {
            metrics.add_virtual_latency(c.latency_cycles);
        }

        // Lift the scheduler's window series into the report: charge the
        // run's verify-cache-hit delta to the first window (checkout and
        // template build happen before any window opens), then run the
        // burn-rate monitor over it — every breach excursion is counted
        // and recorded as an `slo.breach.*` event.
        let mut series = std::mem::take(&mut sched_result.series);
        if let Some(w) = series.first_mut() {
            w.verify_cache_hits = self.registry.cache_stats().hits - cache_hits_before;
        }
        let slo = confllvm_obs::SloMonitor::evaluate(confllvm_obs::SloRules::default(), &series);

        if span.active() {
            span.attr("sessions", sessions.len());
            span.attr("executed", sched_result.executed);
            span.attr("shed", sched_result.shed);
            span.attr("windows", sched_result.windows);
            span.attr("forked", !pool_opts.isolate_sessions);
            span.attr("materialised", resident.materialised_sessions);
            span.attr("template_pages", resident.template_pages);
            span.attr("total_parked_pages", resident.total_parked_pages);
            span.attr("slo_fast_breaches", slo.fast_breaches);
            span.attr("slo_slow_breaches", slo.slow_breaches);
            span.cycles(sched_result.makespan_cycles);
        }
        drop(span);
        finish(&self.registry, &self.store);

        Ok(ScaleReport {
            binary,
            name,
            version,
            sessions: outcomes,
            metrics,
            executed: sched_result.executed,
            windows: sched_result.windows,
            makespan_cycles: sched_result.makespan_cycles,
            resident,
            series,
            slo,
            host_micros: started.elapsed().as_micros(),
        })
    }
}

/// One worker's run loop: pop (or steal) session indices until the queues
/// drain or a sibling aborts the run.  Each session checks out the active
/// version at its start (pinning it), serves its whole stream on a pool
/// forked from that version's template, and releases it at the end —
/// success or failure.  Returns `(index, outcome)` pairs plus the number of
/// VMs this worker spawned.
///
/// With the recorder enabled, each session records a `server`-layer span
/// carrying its pinned version and how long it waited behind earlier
/// sessions (`queue_wait_nanos`, measured from `queued_at`, the instant
/// `serve` enqueued the sessions), and every stolen pop bumps the
/// `server.steal` counter.
/// What one worker hands back: `(session index, outcome)` pairs in the
/// order it ran them, plus how many VMs it spawned.
type WorkerOutcomes = (Vec<(usize, Result<SessionOutcome, ServeError>)>, u64);

#[allow(clippy::too_many_arguments)]
fn run_worker(
    worker: usize,
    queues: &WorkQueues<usize>,
    abort: &AtomicBool,
    store: &SnapshotStore,
    registry: &Registry,
    binary: BinaryId,
    vm_opts: VmOptions,
    pool_opts: PoolOptions,
    sessions: &[SessionSpec],
    mode: ExecMode,
    queued_at: Instant,
) -> WorkerOutcomes {
    let rec = confllvm_obs::recorder();
    let mut pools: HashMap<VersionId, VmPool> = HashMap::new();
    let mut outcomes = Vec::new();
    let mut cold_spawned = 0u64;
    while !abort.load(Ordering::Relaxed) {
        let Some((index, stolen)) = queues.pop(worker) else {
            break;
        };
        if stolen {
            rec.count("server.steal", 1);
        }
        let session = &sessions[index];
        let result = run_one_session(
            store, registry, binary, &vm_opts, pool_opts, &mut pools, session, mode, queued_at,
        );
        if let ExecMode::Cold = mode {
            cold_spawned += session.requests.len() as u64;
        }
        if result.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        outcomes.push((index, result));
    }
    let spawned = match mode {
        ExecMode::Pooled => pools.values().map(|p| p.spawned).sum(),
        ExecMode::Cold => cold_spawned,
    };
    (outcomes, spawned)
}

/// Serve one session end to end: checkout → pool lookup (building the
/// version's template through the store on first use) → stream → release.
#[allow(clippy::too_many_arguments)]
fn run_one_session(
    store: &SnapshotStore,
    registry: &Registry,
    binary: BinaryId,
    vm_opts: &VmOptions,
    pool_opts: PoolOptions,
    pools: &mut HashMap<VersionId, VmPool>,
    session: &SessionSpec,
    mode: ExecMode,
    queued_at: Instant,
) -> Result<SessionOutcome, ServeError> {
    let rec = confllvm_obs::recorder();
    let mut span = rec.span("server", "server.session");
    let queue_wait_nanos = span.active().then(|| queued_at.elapsed().as_nanos() as u64);
    let (version, service) = checkout(registry, binary)?;
    let pool = match pools.entry(version) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(slot) => {
            let mut opts = vm_opts.clone();
            opts.allocator = service.config.allocator();
            match store.template(version, &service, opts) {
                Ok(template) => slot.insert(VmPool::new(template, pool_opts)),
                Err(e) => {
                    registry.release(version);
                    return Err(e.into());
                }
            }
        }
    };
    let result = match mode {
        ExecMode::Pooled => run_session_pooled(pool, version, session),
        ExecMode::Cold => run_session_cold(pool, version, session),
    };
    registry.release(version);
    if span.active() {
        span.attr("session", session.id.raw());
        span.attr("version", version.raw());
        span.attr("requests", session.requests.len());
        span.attr("queue_wait_nanos", queue_wait_nanos.unwrap_or(0));
        rec.count("server.queue_wait_nanos", queue_wait_nanos.unwrap_or(0));
        rec.count("server.sessions", 1);
    }
    result
}

fn run_session_pooled(
    pool: &mut VmPool,
    version: VersionId,
    session: &SessionSpec,
) -> Result<SessionOutcome, ServeError> {
    let pool_opts = pool.opts;
    let inst = pool.instance(session.id, &session.world)?;
    let mut out = SessionOutcome::empty(session.id, version);
    for (index, req) in session.requests.iter().enumerate() {
        let rec = confllvm_obs::recorder();
        let mut req_span = rec.span("server", "server.request");
        let host_t0 = Instant::now();
        let (dirty, restore_cycles) = {
            let mut restore_span = rec.span("server", "server.restore");
            let (dirty, restore_cycles) = inst.reset(&pool_opts);
            if restore_span.active() {
                restore_span.attr("dirty_pages", dirty);
                restore_span.cycles(restore_cycles);
            }
            (dirty, restore_cycles)
        };
        let baselines = (inst.sent_baseline, inst.log_baseline);
        let mut m = execute_request(&mut inst.vm, baselines, req, index, true, &mut out)?;
        m.restore_cycles = restore_cycles;
        m.dirty_pages = dirty;
        m.cycles += restore_cycles;
        m.host_nanos = Some(host_t0.elapsed().as_nanos() as u64);
        if req_span.active() {
            req_span.attr("index", index);
            req_span.attr("dirty_pages", m.dirty_pages);
            req_span.attr("restore_cycles", m.restore_cycles);
            req_span.attr("tcross", m.stack_switches);
            req_span.attr("extern_cycles", m.extern_cycles);
            req_span.cycles(m.cycles);
        }
        drop(req_span);
        out.metrics.add(&m);
    }
    Ok(out)
}

fn run_session_cold(
    pool: &VmPool,
    version: VersionId,
    session: &SessionSpec,
) -> Result<SessionOutcome, ServeError> {
    let mut out = SessionOutcome::empty(session.id, version);
    for (index, req) in session.requests.iter().enumerate() {
        let rec = confllvm_obs::recorder();
        let mut req_span = rec.span("server", "server.request");
        let host_t0 = Instant::now();
        let (mut vm, setup_cycles) = {
            let mut spawn_span = rec.span("server", "server.spawn");
            let (vm, setup_cycles) = pool.spawn_cold(&session.world)?;
            if spawn_span.active() {
                spawn_span.cycles(setup_cycles);
            }
            (vm, setup_cycles)
        };
        let baselines = (vm.world.sent.len(), vm.world.log.len());
        let mut m = execute_request(&mut vm, baselines, req, index, true, &mut out)?;
        m.setup_cycles = setup_cycles;
        m.cycles += setup_cycles;
        m.host_nanos = Some(host_t0.elapsed().as_nanos() as u64);
        if req_span.active() {
            req_span.attr("index", index);
            req_span.attr("setup_cycles", m.setup_cycles);
            req_span.attr("tcross", m.stack_switches);
            req_span.attr("extern_cycles", m.extern_cycles);
            req_span.cycles(m.cycles);
        }
        drop(req_span);
        out.metrics.add(&m);
    }
    Ok(out)
}

/// Pin `binary`'s active version, telling an unknown handle apart from a
/// known binary with no promoted version.
fn checkout(
    registry: &Registry,
    binary: BinaryId,
) -> Result<(VersionId, Arc<ServiceBinary>), ServeError> {
    registry.checkout_active(binary).ok_or_else(|| {
        if registry.versions(binary).is_empty() {
            ServeError::UnknownBinary { binary }
        } else {
            ServeError::NoActiveVersion { binary }
        }
    })
}

/// Run one request on a session's VM and record its application results in
/// `out`: push the request's input, run the entry (inside a
/// `server.execute` span when `exec_span`), turn any outcome but `Exit`
/// into [`ServeError::Request`], and append the exit code plus the bytes
/// sent and logged past `baselines` (the `(sent, log)` lengths the request
/// started from).  Returns the request's metrics; the caller adds its
/// restore or setup cost and folds them into `out.metrics`.
fn execute_request(
    vm: &mut Vm,
    baselines: (usize, usize),
    req: &Request,
    index: usize,
    exec_span: bool,
    out: &mut SessionOutcome,
) -> Result<RequestMetrics, ServeError> {
    if let Some(input) = &req.input {
        vm.world.push_request(input);
    }
    let before = vm.stats.clone();
    let result = {
        let _span = exec_span.then(|| confllvm_obs::recorder().span("server", "server.execute"));
        vm.run_function(&req.entry, &req.args)
    };
    match result.outcome {
        Outcome::Exit(code) => out.exit_codes.push(code),
        outcome => {
            return Err(ServeError::Request {
                session: out.id,
                index,
                outcome,
            })
        }
    }
    let (sent, log) = baselines;
    out.sent.extend_from_slice(&vm.world.sent[sent..]);
    out.log.extend_from_slice(&vm.world.log[log..]);
    Ok(RequestMetrics::from_stats_delta(&before, &vm.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{SetupSpec, VerifyPolicy};
    use crate::reqgen::{ArrivalOptions, RequestGen, StreamKind};
    use crate::sched::Backpressure;
    use confllvm_core::{CompileOptions, Config};
    use confllvm_workloads::{ldap, nginx};

    fn ldap_server(config: Config, entries: i64) -> (Server, BinaryId) {
        let policy = if config.is_instrumented() {
            VerifyPolicy::RequireVerified
        } else {
            VerifyPolicy::AllowUnverifiable
        };
        let registry = Arc::new(Registry::new(policy));
        let opts = CompileOptions {
            config,
            entry: ldap::SETUP_ENTRY.to_string(),
            ..Default::default()
        };
        registry
            .deploy_source(
                "ldap",
                &ldap::annotated_source(),
                &opts,
                Some(SetupSpec::new(ldap::SETUP_ENTRY, &[entries])),
            )
            .expect("registers");
        let binary = registry.binary_id("ldap").unwrap();
        (Server::new(registry, ServerConfig::default()), binary)
    }

    fn ldap_sessions(n: usize, requests: usize, entries: usize) -> Vec<SessionSpec> {
        (0..n)
            .map(|id| {
                let mut w = confllvm_vm::World::new();
                w.set_password("user", format!("secret-of-{id}").as_bytes());
                let reqs = RequestGen::new(1000 + id as u64).stream(
                    StreamKind::LdapMix {
                        entries,
                        hit_pct: 50,
                    },
                    requests,
                );
                SessionSpec::new(id, w, reqs)
            })
            .collect()
    }

    fn nginx_server() -> (Server, BinaryId) {
        let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
        let opts = CompileOptions {
            config: Config::OurSeg,
            entry: nginx::SETUP_ENTRY.to_string(),
            ..Default::default()
        };
        registry
            .deploy_source(
                "nginx",
                nginx::SOURCE,
                &opts,
                Some(SetupSpec::new(nginx::SETUP_ENTRY, &[])),
            )
            .unwrap();
        let binary = registry.binary_id("nginx").unwrap();
        (Server::new(registry, ServerConfig::new()), binary)
    }

    #[test]
    fn pooled_and_cold_agree_on_results_and_observables() {
        let (server, binary) = ldap_server(Config::OurMpx, 32);
        let sessions = ldap_sessions(3, 6, 32);
        let cold = server.serve(binary, &sessions, ExecMode::Cold).unwrap();
        let pooled = server.serve(binary, &sessions, ExecMode::Pooled).unwrap();
        assert_eq!(cold.sessions.len(), 3);
        for (c, p) in cold.sessions.iter().zip(&pooled.sessions) {
            assert_eq!(c.id, p.id);
            assert_eq!(c.version, p.version, "one deployed version serves both");
            assert_eq!(c.exit_codes, p.exit_codes, "mode must not change results");
            assert_eq!(c.sent, p.sent, "mode must not change the observable trace");
            assert_eq!(c.log, p.log);
        }
        // Pooled skips setup per request, so per-request cycles are strictly
        // lower; cold spawned one VM per request, pooled one per session.
        assert!(pooled.metrics.mean_cycles() < cold.metrics.mean_cycles());
        assert_eq!(cold.instances_spawned, 18);
        assert_eq!(pooled.instances_spawned, 3);
        assert_eq!(pooled.metrics.requests, 18);
        assert!(pooled.metrics.restore_cycles > 0);
        assert_eq!(cold.metrics.restore_cycles, 0);
        assert!(cold.metrics.setup_cycles > 0);
        assert!(
            pooled.metrics.host_nanos > 0,
            "requests must carry measured host time"
        );
    }

    #[test]
    fn nginx_streams_serve_under_all_modes() {
        let (server, binary) = nginx_server();
        let sessions: Vec<SessionSpec> = (0..2u64)
            .map(|id| {
                let world = nginx::file_world(3, 512, id as u8);
                let reqs = RequestGen::new(id).stream(
                    StreamKind::NginxFiles {
                        files: 3,
                        response_size: 512,
                    },
                    4,
                );
                SessionSpec::new(id, world, reqs)
            })
            .collect();
        for mode in [ExecMode::Cold, ExecMode::Pooled] {
            let report = server.serve(binary, &sessions, mode).unwrap();
            assert_eq!(report.metrics.requests, 8);
            for s in &report.sessions {
                assert!(s.exit_codes.iter().all(|c| *c == 1), "{:?}", s.exit_codes);
                assert_eq!(s.sent.len(), 4 * 512, "each request sends one response");
                assert!(!s.log.is_empty());
            }
            assert!(report.metrics.extern_calls > 0);
            assert!(
                report.metrics.stack_switches > 0,
                "OurSeg separates U/T memory, so every trusted call switches stacks"
            );
        }
    }

    #[test]
    fn unknown_binary_and_unpromoted_binary_are_distinct_errors() {
        let server = Server::default();
        let bogus = {
            // Mint a real handle in a different registry: unknown here.
            let other = Registry::default();
            let opts = CompileOptions::for_config(Config::OurMpx);
            other
                .deploy_source("ldap", &ldap::annotated_source(), &opts, None)
                .unwrap();
            other.binary_id("ldap").unwrap()
        };
        let err = server.serve(bogus, &[], ExecMode::Pooled).unwrap_err();
        assert!(matches!(err, ServeError::UnknownBinary { .. }), "{err}");

        // Submitted but never promoted: a different, actionable error.
        let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
        let opts = CompileOptions::for_config(Config::OurMpx);
        registry
            .submit_source("ldap", &ldap::annotated_source(), &opts, None)
            .unwrap();
        let binary = registry.binary_id("ldap").unwrap();
        let server = Server::new(registry, ServerConfig::new());
        let err = server.serve(binary, &[], ExecMode::Pooled).unwrap_err();
        assert!(matches!(err, ServeError::NoActiveVersion { .. }), "{err}");
    }

    #[test]
    fn duplicate_session_ids_are_refused() {
        // Instances are keyed by session id; two sessions sharing an id
        // would serve one client against the other's private state.
        let (server, binary) = ldap_server(Config::OurMpx, 32);
        let mut sessions = ldap_sessions(2, 2, 32);
        sessions[1].id = sessions[0].id;
        let err = server
            .serve(binary, &sessions, ExecMode::Pooled)
            .unwrap_err();
        assert!(matches!(err, ServeError::DuplicateSession { .. }), "{err}");
    }

    #[test]
    fn worker_count_does_not_change_outcomes() {
        let sessions = ldap_sessions(5, 4, 32);
        let (mut single, binary_a) = ldap_server(Config::OurMpx, 32);
        single.config = ServerConfig::new().workers(1);
        let (mut many, binary_b) = ldap_server(Config::OurMpx, 32);
        many.config = ServerConfig::new().workers(8);
        let a = single.serve(binary_a, &sessions, ExecMode::Pooled).unwrap();
        let b = many.serve(binary_b, &sessions, ExecMode::Pooled).unwrap();
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.exit_codes, y.exit_codes);
            assert_eq!(x.sent, y.sent);
            assert_eq!(x.log, y.log);
        }
        assert_eq!(a.metrics.total_cycles, b.metrics.total_cycles);
    }

    #[test]
    fn promotion_between_serves_moves_new_sessions_to_the_new_version() {
        let (server, binary) = ldap_server(Config::OurMpx, 32);
        let v1 = server.registry.active_version(binary).unwrap();
        let sessions = ldap_sessions(2, 3, 32);
        let before = server.serve(binary, &sessions, ExecMode::Pooled).unwrap();
        assert_eq!(before.sessions_on(v1), 2);
        assert_eq!(server.live_templates(), 1, "v1's template is cached");

        // Roll the same source as v2 and cut over.
        let opts = CompileOptions {
            config: Config::OurMpx,
            entry: ldap::SETUP_ENTRY.to_string(),
            ..Default::default()
        };
        let v2 = server
            .registry
            .submit_source(
                "ldap",
                &ldap::annotated_source(),
                &opts,
                Some(SetupSpec::new(ldap::SETUP_ENTRY, &[32])),
            )
            .unwrap();
        server.registry.promote(v2).unwrap();
        let after = server.serve(binary, &sessions, ExecMode::Pooled).unwrap();
        assert_eq!(after.sessions_on(v2), 2);
        assert_eq!(after.sessions_on(v1), 0);
        assert_eq!(
            server.live_templates(),
            1,
            "the sweep evicted v1's template after the cut-over"
        );
        // Same source, same streams: the swap is observably invisible.
        assert_eq!(before.observable(), after.observable());
        for (x, y) in before.sessions.iter().zip(&after.sessions) {
            assert_eq!(x.exit_codes, y.exit_codes);
        }
    }

    fn scale_plan(sessions: usize, arrivals: usize) -> ArrivalPlan {
        RequestGen::new(9).arrival_plan(&ArrivalOptions {
            sessions,
            arrivals,
            zipf: true,
            window_cycles: 50_000,
            on_windows: 2,
            off_windows: 1,
            on_per_window: 8,
            off_per_window: 2,
        })
    }

    /// `sessions` nginx sessions, each with as many requests as `plan`
    /// sends it.
    fn nginx_scale_specs(plan: &ArrivalPlan, sessions: usize) -> Vec<SessionSpec> {
        plan.per_session_counts(sessions)
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let world = nginx::file_world(2, 256, i as u8);
                let reqs = RequestGen::new(100 + i as u64).stream(
                    StreamKind::NginxFiles {
                        files: 2,
                        response_size: 256,
                    },
                    count,
                );
                SessionSpec::new(i, world, reqs)
            })
            .collect()
    }

    fn scale_inputs(sessions: usize, arrivals: usize) -> (Vec<SessionSpec>, ArrivalPlan) {
        let plan = scale_plan(sessions, arrivals);
        (nginx_scale_specs(&plan, sessions), plan)
    }

    fn isolated_server(server: &Server) -> Server {
        let config = ServerConfig::new().pool(PoolOptions {
            isolate_sessions: true,
            ..Default::default()
        });
        Server::new(Arc::clone(&server.registry), config)
    }

    fn sessions_executed(r: &ScaleReport) -> usize {
        r.sessions
            .iter()
            .filter(|s| !s.exit_codes.is_empty())
            .count()
    }

    #[test]
    fn scaled_forked_run_matches_isolated_and_slashes_resident_pages() {
        let (server, binary) = nginx_server();
        let (sessions, plan) = scale_inputs(48, 192);
        let sched = SchedulerConfig::default();
        let forked = server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();

        let isolated = isolated_server(&server)
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();

        // Byte-identical observables and results: CoW forking is invisible
        // to clients.
        assert_eq!(forked.observable(), isolated.observable());
        assert_eq!(forked.executed, isolated.executed);
        assert_eq!(forked.executed, 192);
        for (f, i) in forked.sessions.iter().zip(&isolated.sessions) {
            assert_eq!(f.id, i.id);
            assert_eq!(f.exit_codes, i.exit_codes);
        }
        // Identical costs mean identical schedules, down to the tail.
        assert_eq!(
            forked.metrics.virtual_percentile_milli(999),
            isolated.metrics.virtual_percentile_milli(999)
        );

        // The residency win: the file server's setup is shareable, so a
        // parked forked session keeps ~0 private pages while the isolated
        // baseline keeps its whole address space.
        assert!(forked.resident.template_pages > 0);
        assert!(
            isolated.resident.mean_parked_pages
                >= 10.0 * forked.resident.mean_parked_pages.max(0.1),
            "expected >=10x drop: isolated {} vs forked {}",
            isolated.resident.mean_parked_pages,
            forked.resident.mean_parked_pages
        );
        assert!(forked.resident.cow_faults > 0, "requests must CoW-fault");
    }

    #[test]
    fn forked_sessions_materialise_on_first_request_only() {
        // Fold a 48-session plan onto its first 6 sessions: 42 of the 48
        // sessions never receive a request.
        let (n, k) = (48, 6);
        let mut plan = scale_plan(n, 96);
        for a in &mut plan.arrivals {
            a.session %= k;
        }
        let (server, binary) = nginx_server();
        let sched = SchedulerConfig::default();
        let sessions = nginx_scale_specs(&plan, n);
        let lazy = server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();
        assert_eq!(lazy.executed, 96);
        assert_eq!(sessions_executed(&lazy), k);
        assert_eq!(
            lazy.resident.materialised_sessions, k,
            "only sessions that executed are forked"
        );

        // The same plan over exactly the k busy sessions materialises all
        // of them, so it is what forking every session up front would
        // measure for them; the 42 idle sessions must add nothing to it.
        let busy = server
            .serve_scaled(binary, &nginx_scale_specs(&plan, k), &plan, &sched)
            .unwrap();
        assert_eq!(busy.resident.materialised_sessions, k);
        assert_eq!(lazy.observable(), busy.observable());
        assert_eq!(lazy.makespan_cycles, busy.makespan_cycles);
        let (l, b) = (&lazy.resident, &busy.resident);
        assert_eq!(l.template_pages, b.template_pages);
        assert_eq!(l.total_parked_pages, b.total_parked_pages);
        assert_eq!(l.max_parked_pages, b.max_parked_pages);
        assert_eq!(l.cow_faults, b.cow_faults);
        assert!(l.cow_faults > 0, "requests must CoW-fault");
        assert!(
            (l.mean_peak_pages * n as f64 - b.mean_peak_pages * k as f64).abs() < 1e-9,
            "idle sessions contribute zero peak pages: {} over {n} vs {} over {k}",
            l.mean_peak_pages,
            b.mean_peak_pages
        );

        // Against the isolated baseline, which spawns every session up
        // front: identical observables, and the residency win intact.
        let isolated = isolated_server(&server)
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();
        assert_eq!(isolated.resident.materialised_sessions, n);
        assert_eq!(lazy.observable(), isolated.observable());
        assert_eq!(lazy.executed, isolated.executed);
        for (f, i) in lazy.sessions.iter().zip(&isolated.sessions) {
            assert_eq!(f.exit_codes, i.exit_codes);
        }
        assert!(
            isolated.resident.mean_parked_pages >= 10.0 * lazy.resident.mean_parked_pages.max(0.1),
            "expected >=10x drop: isolated {} vs forked {}",
            isolated.resident.mean_parked_pages,
            lazy.resident.mean_parked_pages
        );
    }

    #[test]
    fn per_fork_setup_sessions_are_still_spawned_up_front() {
        // ldap's `populate` reads the session's passwords, so its setup
        // runs in every fork: a fresh fork is not pristine and every
        // session is materialised before the run, idle or not.
        let (server, binary) = ldap_server(Config::OurMpx, 32);
        let n = 12;
        let plan = scale_plan(n, 24);
        let sessions: Vec<SessionSpec> = plan
            .per_session_counts(n)
            .iter()
            .enumerate()
            .map(|(id, &count)| {
                let mut w = confllvm_vm::World::new();
                w.set_password("user", format!("secret-of-{id}").as_bytes());
                let reqs = RequestGen::new(1000 + id as u64).stream(
                    StreamKind::LdapMix {
                        entries: 32,
                        hit_pct: 50,
                    },
                    count,
                );
                SessionSpec::new(id, w, reqs)
            })
            .collect();
        let sched = SchedulerConfig::default();
        let forked = server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();
        let isolated = isolated_server(&server)
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();
        assert!(
            sessions_executed(&forked) < n,
            "the plan must leave some sessions idle"
        );
        assert_eq!(forked.resident.materialised_sessions, n);
        assert_eq!(isolated.resident.materialised_sessions, n);
        assert!(
            forked.resident.mean_parked_pages > 0.0,
            "per-fork setup leaves private pages in every session"
        );
        assert_eq!(forked.executed, isolated.executed);
        assert_eq!(forked.observable(), isolated.observable());
        for (f, i) in forked.sessions.iter().zip(&isolated.sessions) {
            assert_eq!(f.id, i.id);
            assert_eq!(f.exit_codes, i.exit_codes);
        }
    }

    #[test]
    fn overload_sheds_and_the_virtual_tail_sees_queueing() {
        let (server, binary) = nginx_server();
        let (sessions, plan) = scale_inputs(32, 256);
        // One slow virtual worker and a tiny queue: a burst must overflow.
        let sched = SchedulerConfig {
            model_workers: 1,
            queue_capacity: 4,
            backpressure: Backpressure::Shed,
            slo_cycles: 100_000,
            window_cycles: 50_000,
            defer_age_windows: u64::MAX,
        };
        let r = server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();
        assert!(r.metrics.shed > 0, "overload must shed");
        assert_eq!(r.executed + r.metrics.shed, 256);
        assert!(r.metrics.max_queue_depth() > 0);
        assert!(
            r.metrics.virtual_percentile_milli(999) > r.metrics.percentile_milli(999),
            "queueing must push the end-to-end tail above pure service time"
        );
        // The window series mirrors the run totals (nothing dropped at this
        // size) and the burn-rate monitor sees the overload.
        assert_eq!(r.series.dropped(), 0);
        assert_eq!(r.series.len() as u64, r.windows);
        let (w_shed, w_executed) = r
            .series
            .iter()
            .fold((0u64, 0u64), |(s, e), w| (s + w.shed, e + w.executed));
        assert_eq!(w_shed, r.metrics.shed);
        assert_eq!(w_executed, r.executed);
        assert!(
            r.slo.fast_breaches >= 1,
            "a shedding overload run must trip the fast burn rule: {:?}",
            r.slo
        );
        // Deterministic: the same plan yields the same schedule.
        let r2 = server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();
        assert_eq!(r.metrics.shed, r2.metrics.shed);
        assert_eq!(r.makespan_cycles, r2.makespan_cycles);
        assert_eq!(r.observable(), r2.observable());
        assert_eq!(r.slo.total_breaches(), r2.slo.total_breaches());
    }

    #[test]
    fn scale_plan_mismatch_is_reported_not_panicked() {
        let (server, binary) = nginx_server();
        let (mut sessions, plan) = scale_inputs(8, 40);
        // Drop one session's requests so the plan points past the end.
        let victim = plan.arrivals[0].session;
        sessions[victim].requests.clear();
        let err = server
            .serve_scaled(binary, &sessions, &plan, &SchedulerConfig::default())
            .unwrap_err();
        assert!(matches!(err, ServeError::PlanMismatch { .. }), "{err}");
    }
}
