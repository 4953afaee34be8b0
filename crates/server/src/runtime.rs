//! The service runtime: registry + snapshot store + one serving loop.
//!
//! Both entry points run requests through the same private loop
//! (`serve_loop`): the version's fork template (one load per *version*,
//! kept in the server's [`SnapshotStore`]) → each session's instance,
//! created on its first request → reset to its snapshot (or, in cold mode,
//! a fresh VM with setup re-run) → `execute_request` → metrics →
//! [`WindowStat`](confllvm_obs::WindowStat).  The loop's dispatch order is
//! the deterministic virtual-time scheduler ([`run_virtual`]): windowed
//! admission into an EDF queue with a sequence-number tie-break.
//!
//! * [`Server::serve_scaled`] runs a caller's [`ArrivalPlan`] through the
//!   loop under a [`SchedulerConfig`] — bounded admission, shed/defer
//!   backpressure, EDF over modelled workers — and reports queueing-aware
//!   latency tails, the window series and per-session resident pages: the
//!   10^4–10^5-session experiment.
//! * [`Server::serve`] runs a *closed-loop* plan: every session's requests
//!   arrive at cycle 0 in stream order, the queue is unbounded and nothing
//!   is shed, so EDF with the sequence tie-break runs each session's whole
//!   stream before the next session's.  For host parallelism the sessions
//!   are split statically over `ServerConfig::workers` scoped threads
//!   (session `i` goes to worker `i % workers`); each worker runs the loop
//!   over its share and the outcomes are merged in session-id order.
//!   Instances are plain `Send` state owned by one worker, so the
//!   simulation stays deterministic per session while the host-side work is
//!   parallel.
//!
//! Each call pins the binary's active version **once**, through a guard
//! that releases the pin and sweeps the store when dropped — on success,
//! on an error return, or while a panic unwinds.  A blue/green promotion
//! therefore affects the calls that start after it: every session of one
//! call runs on the version the call began with, and a drained old version
//! retires once the last call pinned to it ends and the store sweeps its
//! template.
//!
//! Two execution modes make the serving cost model measurable:
//!
//! * [`ExecMode::Cold`] — every request pays load + setup on a fresh VM
//!   (the repeated cold compile-and-execute our earlier reproduction did).
//! * [`ExecMode::Pooled`] — per-session warm instances are rewound to their
//!   post-setup snapshot between requests (O(dirty pages)), the paper's
//!   many-requests-per-load deployment.  `serve_scaled` always runs pooled.
//!
//! Observability: `serve` records a `server.serve` span per call and a
//! `server.request` span per request with its `server.restore` (pooled) or
//! `server.spawn` (cold) and `server.execute` phases; `serve_scaled`
//! records one `server.scale` span and leaves per-request accounting to its
//! window series.  There is no per-session span, steal counter or
//! host-queue-wait counter: sessions are not queued on the host.

use std::sync::Arc;
use std::time::Instant;

use confllvm_vm::{Outcome, Vm, VmOptions};

use crate::handles::{BinaryId, SessionId, VersionId};
use crate::metrics::{RequestMetrics, StreamMetrics};
use crate::pool::{PoolOptions, PooledInstance, SpawnError};
use crate::registry::{Registry, ServiceBinary};
use crate::sched::{
    run_virtual, Arrival, ArrivalPlan, Backpressure, ExecCost, SchedResult, SchedulerConfig,
};
use crate::session::{Request, SessionSpec};
use crate::store::{SessionTemplate, SnapshotStore};

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
    /// Host threads `serve` splits sessions over (session `i` runs on
    /// thread `i % workers`).
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
    /// The version the serve call was pinned to (one per call, so every
    /// session of a call reports the same version).
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

    /// Pin `binary`'s active version for one call, telling an unknown
    /// handle apart from a known binary with no promoted version.  The pin
    /// is released (and the store swept) when the guard drops.
    fn checkout(&self, binary: BinaryId) -> Result<VersionPin<'_>, ServeError> {
        let (version, service) = self.registry.checkout_active(binary).ok_or_else(|| {
            if self.registry.versions(binary).is_empty() {
                ServeError::UnknownBinary { binary }
            } else {
                ServeError::NoActiveVersion { binary }
            }
        })?;
        Ok(VersionPin {
            server: self,
            version,
            service,
        })
    }

    /// The pinned version's fork template, built through the store on
    /// first use.
    fn template(&self, pin: &VersionPin<'_>) -> Result<Arc<SessionTemplate>, ServeError> {
        let mut vm_opts = self.config.vm.clone();
        vm_opts.allocator = pin.service.config.allocator();
        Ok(self.store.template(pin.version, &pin.service, vm_opts)?)
    }

    /// Serve every session's request stream against `binary`'s active
    /// version, pinned once for the whole call.  The sessions are split
    /// statically over `ServerConfig::workers` threads (session `i` runs on
    /// worker `i % workers`); each worker runs the serving loop over its
    /// share as a closed-loop plan — every request queued at cycle 0 in
    /// stream order, so each session's stream runs to completion before the
    /// next session starts.
    pub fn serve(
        &self,
        binary: BinaryId,
        sessions: &[SessionSpec],
        mode: ExecMode,
    ) -> Result<ServiceReport, ServeError> {
        let pin = self.checkout(binary)?;
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
        let template = self.template(&pin)?;
        let ctx = LoopCtx {
            template: &template,
            pool: self.config.pool,
            mode,
            request_spans: true,
        };

        let workers = self.config.workers.max(1).min(sessions.len().max(1));
        let results: Vec<Result<LoopRun, (usize, ServeError)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let ctx = &ctx;
                    scope.spawn(move || {
                        let share: Vec<&SessionSpec> =
                            sessions.iter().skip(w).step_by(workers).collect();
                        serve_loop(ctx, &share, &closed_loop_plan(&share), &CLOSED_LOOP)
                            .map_err(|(i, e)| (w + i * workers, e))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

        let mut outcomes = Vec::with_capacity(sessions.len());
        let mut spawned = 0;
        let mut errors = Vec::new();
        for result in results {
            match result {
                Ok(run) => {
                    spawned += run.spawned;
                    outcomes.extend(run.outcomes);
                }
                Err(e) => errors.push(e),
            }
        }
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
            name: pin.service.name.clone(),
            mode,
            sessions: outcomes,
            metrics,
            instances_spawned: spawned,
            host_micros: started.elapsed().as_micros(),
        })
    }

    /// Run an [`ArrivalPlan`] against `binary` through the serving loop
    /// under `sched`: bounded admission windows, shed/defer backpressure,
    /// EDF dispatch over `sched.model_workers` virtual workers.  All
    /// sessions fork from the version's shared template (or spawn fully
    /// isolated under [`PoolOptions::isolate_sessions`] — the baseline), and
    /// the report carries queueing-aware latency tails plus resident-page
    /// statistics.  When a fresh fork is pristine (the setup is shared and
    /// sessions are not isolated) a session is forked on its first
    /// dispatched request, so only sessions that execute are ever forked
    /// ([`ResidentStats::materialised_sessions`]).
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
        let pin = self.checkout(binary)?;
        let mut span = rec.span("server", "server.scale");
        let template = self.template(&pin)?;
        let pool_opts = self.config.pool;
        let ctx = LoopCtx {
            template: &template,
            pool: pool_opts,
            mode: ExecMode::Pooled,
            request_spans: false,
        };
        let share: Vec<&SessionSpec> = sessions.iter().collect();
        let mut run = serve_loop(&ctx, &share, plan, sched).map_err(|(_, e)| e)?;

        // Park every materialised session (rewind to its snapshot) and
        // measure what an idle session actually keeps resident.  A session
        // that was never forked holds nothing, exactly like an untouched
        // fork, so it counts as zero pages and zero faults.
        let mut parked: Vec<usize> = Vec::with_capacity(run.instances.len());
        let mut cow_faults = 0u64;
        for inst in run.instances.iter_mut().flatten() {
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
            mean_peak_pages: run.peak_pages.iter().sum::<usize>() as f64 / n as f64,
            cow_faults,
            materialised_sessions: parked.len(),
        };

        let sched_result = &mut run.sched;
        let mut outcomes = run.outcomes;
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
        let (version, name) = (pin.version, pin.service.name.clone());
        drop(pin);

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

/// One version pinned for one serve call.  Dropping the guard — on
/// success, on an error return, or while a panic unwinds — releases the
/// pin and sweeps the store, so a failed run can never hold a drained
/// version open.
struct VersionPin<'a> {
    server: &'a Server,
    version: VersionId,
    service: Arc<ServiceBinary>,
}

impl Drop for VersionPin<'_> {
    fn drop(&mut self) {
        self.server.registry.release(self.version);
        // Retire drained versions whose last pin just went.
        self.server.store.sweep();
    }
}

/// The dispatch policy of `serve`'s closed loop: one modelled worker, an
/// unbounded queue and a window no arrival can miss, so nothing is ever
/// shed or deferred; a zero SLO gives every arrival the same deadline and
/// leaves the order to the sequence-number tie-break — plan order.
const CLOSED_LOOP: SchedulerConfig = SchedulerConfig {
    model_workers: 1,
    queue_capacity: usize::MAX,
    backpressure: Backpressure::Shed,
    slo_cycles: 0,
    window_cycles: u64::MAX,
    defer_age_windows: u64::MAX,
};

/// Every request of every session in `share`, arriving at cycle 0 in
/// stream order, session-major.
fn closed_loop_plan(share: &[&SessionSpec]) -> ArrivalPlan {
    let arrivals = share
        .iter()
        .enumerate()
        .flat_map(|(session, spec)| {
            (0..spec.requests.len()).map(move |request| Arrival {
                vtime: 0,
                session,
                request,
            })
        })
        .collect();
    ArrivalPlan { arrivals }
}

/// What the serving loop runs against, and how.
struct LoopCtx<'a> {
    template: &'a SessionTemplate,
    pool: PoolOptions,
    mode: ExecMode,
    /// Record a `server.request` span, with its restore/spawn and execute
    /// phases, per request.  `serve` does; the scale sweep, whose requests
    /// the window series accounts for, does not.
    request_spans: bool,
}

/// What one pass of the serving loop leaves behind, indexed like the
/// sessions it ran.
struct LoopRun {
    outcomes: Vec<SessionOutcome>,
    /// Each session's warm instance; `None` for a session never given one
    /// (and for every session in cold mode).
    instances: Vec<Option<PooledInstance>>,
    /// The largest private-page count any of a session's requests left
    /// behind before its rewind.
    peak_pages: Vec<usize>,
    /// VMs spawned: warm instances when pooled, one per request when cold.
    spawned: u64,
    sched: SchedResult,
}

/// The serving loop: run `plan` over `sessions` through the virtual-time
/// scheduler, each dispatched request going through [`run_request`].  On
/// the first failure the rest of the plan drains without executing, and
/// the error comes back with the index of the session it hit.
fn serve_loop(
    ctx: &LoopCtx<'_>,
    sessions: &[&SessionSpec],
    plan: &ArrivalPlan,
    sched: &SchedulerConfig,
) -> Result<LoopRun, (usize, ServeError)> {
    let version = ctx.template.version;
    let mut run = LoopRun {
        outcomes: sessions
            .iter()
            .map(|s| SessionOutcome::empty(s.id, version))
            .collect(),
        instances: sessions.iter().map(|_| None).collect(),
        peak_pages: vec![0; sessions.len()],
        spawned: 0,
        sched: SchedResult::default(),
    };

    // A session's instance is spawned from the template on its first
    // dispatched request when a fresh one is provably pristine (a CoW fork
    // of a shared setup owns no page and takes no fault until it runs), so
    // a session that never executes is never forked and parks at exactly
    // what an untouched fork would: zero pages, zero faults.  Instances
    // that hold private pages from birth — the isolated baseline, and
    // per-fork setup, which can also fail at admission — are still spawned
    // up front so residency is measured honestly and spawn errors surface
    // before the run.
    if ctx.mode == ExecMode::Pooled && !ctx.template.fork_is_pristine(&ctx.pool) {
        for (i, (slot, s)) in run.instances.iter_mut().zip(sessions).enumerate() {
            let inst = ctx
                .template
                .session_instance(&s.world, &ctx.pool)
                .map_err(|e| (i, e.into()))?;
            *slot = Some(inst);
            run.spawned += 1;
        }
    }

    let mut first_error = None;
    let drain = ExecCost {
        cycles: 1,
        cow_faults: 0,
    };
    run.sched = run_virtual(sched, plan, |si, ri| {
        if first_error.is_some() {
            return drain; // drain the plan cheaply once the run has failed
        }
        let slot = &mut run.instances[si];
        let (out, peak) = (&mut run.outcomes[si], &mut run.peak_pages[si]);
        match run_request(ctx, sessions[si], ri, slot, out, peak, &mut run.spawned) {
            Ok(cost) => cost,
            Err(e) => {
                first_error = Some((si, e));
                drain
            }
        }
    });
    match first_error {
        Some(e) => Err(e),
        None => Ok(run),
    }
}

/// Run request `index` of `session`: take its warm instance (spawning it
/// into `slot` on first use) and rewind it, or spawn a cold VM; execute;
/// fold the request's metrics into `out`.  Returns what the request
/// occupied its worker for.
fn run_request(
    ctx: &LoopCtx<'_>,
    session: &SessionSpec,
    index: usize,
    slot: &mut Option<PooledInstance>,
    out: &mut SessionOutcome,
    peak_pages: &mut usize,
    spawned: &mut u64,
) -> Result<ExecCost, ServeError> {
    let req = session
        .requests
        .get(index)
        .ok_or(ServeError::PlanMismatch {
            session: session.id,
            index,
        })?;
    let rec = confllvm_obs::recorder();
    let span = |name| ctx.request_spans.then(|| rec.span("server", name));
    let mut req_span = span("server.request");

    let mut cold_vm;
    let (vm, baselines, cow_before, setup_cycles, restore_cycles, dirty) = match ctx.mode {
        ExecMode::Pooled => {
            if slot.is_none() {
                *slot = Some(ctx.template.session_instance(&session.world, &ctx.pool)?);
                *spawned += 1;
            }
            let inst = slot.as_mut().expect("materialised above");
            let cow_before = inst.vm.cow_faults();
            let mut restore_span = span("server.restore");
            let (dirty, restore_cycles) = inst.reset(&ctx.pool);
            if let Some(s) = restore_span.as_mut().filter(|s| s.active()) {
                s.attr("dirty_pages", dirty);
                s.cycles(restore_cycles);
            }
            drop(restore_span);
            let baselines = (inst.sent_baseline, inst.log_baseline);
            (
                &mut inst.vm,
                baselines,
                cow_before,
                0,
                restore_cycles,
                dirty,
            )
        }
        ExecMode::Cold => {
            let mut spawn_span = span("server.spawn");
            let (vm, setup_cycles) = ctx.template.spawn_cold(&session.world)?;
            *spawned += 1;
            if let Some(s) = spawn_span.as_mut().filter(|s| s.active()) {
                s.cycles(setup_cycles);
            }
            drop(spawn_span);
            cold_vm = vm;
            let baselines = (cold_vm.world.sent.len(), cold_vm.world.log.len());
            (&mut cold_vm, baselines, 0, setup_cycles, 0, 0)
        }
    };
    let mut m = execute_request(vm, baselines, req, index, ctx.request_spans, out)?;
    m.setup_cycles = setup_cycles;
    m.restore_cycles = restore_cycles;
    m.dirty_pages = dirty;
    m.cycles += setup_cycles + restore_cycles;
    *peak_pages = (*peak_pages).max(vm.resident_private_pages());
    if let Some(s) = req_span.as_mut().filter(|s| s.active()) {
        s.attr("index", index);
        match ctx.mode {
            ExecMode::Pooled => {
                s.attr("dirty_pages", m.dirty_pages);
                s.attr("restore_cycles", m.restore_cycles);
            }
            ExecMode::Cold => s.attr("setup_cycles", m.setup_cycles),
        }
        s.attr("tcross", m.stack_switches);
        s.attr("extern_cycles", m.extern_cycles);
        s.cycles(m.cycles);
    }
    drop(req_span);
    out.metrics.add(&m);
    Ok(ExecCost {
        cycles: m.cycles,
        cow_faults: vm.cow_faults() - cow_before,
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
        // The failed run released its pin: only the store's template pin
        // remains, and dropping the server releases that too.
        let registry = Arc::clone(&server.registry);
        let v = registry.active_version(binary).unwrap();
        assert_eq!(registry.version_info(v).unwrap().pins, 1);
        drop(server);
        assert_eq!(registry.version_info(v).unwrap().pins, 0);
    }

    #[test]
    fn a_faulting_setup_fails_serve_without_leaking_a_pin() {
        // The setup divides by its argument, zero: it faults against the
        // template's reference world (so it is not shared) and in every
        // session's own instance.
        const SOURCE: &str = "
            int setup(int n) { return 100 / n; }
            int handle(int x) { return x; }
        ";
        let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
        let opts = CompileOptions {
            config: Config::OurMpx,
            entry: "setup".to_string(),
            ..Default::default()
        };
        let v = registry
            .deploy_source("faulty", SOURCE, &opts, Some(SetupSpec::new("setup", &[0])))
            .expect("the service verifies; only its setup faults at run time");
        let binary = registry.binary_id("faulty").unwrap();
        let sessions: Vec<SessionSpec> = (0..3u64)
            .map(|id| {
                SessionSpec::new(
                    id,
                    confllvm_vm::World::new(),
                    vec![Request::new("handle", &[id as i64])],
                )
            })
            .collect();
        for mode in [ExecMode::Pooled, ExecMode::Cold] {
            let server = Server::new(Arc::clone(&registry), ServerConfig::new());
            let err = server.serve(binary, &sessions, mode).unwrap_err();
            assert!(
                matches!(err, ServeError::Spawn(SpawnError::Setup { .. })),
                "{mode:?}: {err}"
            );
            assert_eq!(
                registry.version_info(v).unwrap().pins,
                server.live_templates() as u64,
                "{mode:?}: only the store's template may still pin the version"
            );
            drop(server);
            assert_eq!(registry.version_info(v).unwrap().pins, 0, "{mode:?}");
        }
    }

    #[test]
    fn a_panic_while_pinned_releases_the_pin() {
        let (server, binary) = nginx_server();
        let v = server.registry.active_version(binary).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _pin = server.checkout(binary).unwrap();
            assert_eq!(server.registry.version_info(v).unwrap().pins, 1);
            panic!("a worker failed mid-run");
        }));
        assert!(result.is_err());
        assert_eq!(server.registry.version_info(v).unwrap().pins, 0);
    }
}
