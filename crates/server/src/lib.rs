//! # confllvm-server
//!
//! The paper's deployment model (Sections 2 and 7) is a *service*: a cloud
//! provider receives an untrusted binary from a developer, runs ConfVerify on
//! it once at load time, and — only if verification succeeds — serves many
//! requests through it against the trusted library T.  This crate is that
//! serving layer on top of the simulator:
//!
//! * [`handles`] — the opaque typed handles ([`BinaryId`], [`VersionId`],
//!   [`SessionId`]) that replaced the string-keyed API: a service, one
//!   submitted build of it, and one client session are different things
//!   with different lifetimes, and the types now say which is which.
//! * [`registry`] — the **versioned verify-then-load** registry.  Every
//!   submission gets a [`VersionId`] and walks
//!   `Verifying → Warm → Active → Draining → Retired` (or `Rejected`);
//!   promotion is the atomic blue/green cut-over, and only promoted
//!   versions can serve.  Verification runs outside the registry lock on a
//!   parallel work queue, through a content-hash
//!   [`VerifyCache`](confllvm_verify::VerifyCache) that makes
//!   re-submitting unchanged content O(1).  See `crates/server/README.md`
//!   for the full state machine.
//! * [`store`] — the version-keyed [`SnapshotStore`] of fork templates: one
//!   load (and, when provably session-independent, one setup run) per
//!   *version*, snapshotted; every session is a copy-on-write
//!   [`Vm::fork`](confllvm_vm::Vm::fork) of that snapshot.  Templates hold
//!   registry pins so blue/green hot-swap still drains correctly.
//! * [`pool`] — per-session warm instances forked from the template.
//!   Between requests an instance is rewound to its snapshot in O(dirty
//!   pages) instead of paying compile + load + setup; parked, it keeps only
//!   its CoW-faulted pages resident.
//! * [`sched`] — the deterministic virtual-time scheduler (bounded
//!   admission windows, shed/defer backpressure, EDF dispatch) every
//!   request is dispatched through.
//! * [`session`] — requests and per-session state.  Every session carries its
//!   own [`World`](confllvm_vm::World) (its private passwords / secret
//!   files), so confidentiality can be tested end-to-end: identical request
//!   streams over different private state must produce identical
//!   attacker-observable output.
//! * [`reqgen`] — a deterministic request generator for the evaluation's
//!   request mixes (file-serving, directory hit/miss).
//! * [`metrics`] — per-request and per-stream aggregation: throughput,
//!   latency percentiles, executed checks, and the split between
//!   application cycles and U↔T crossing cycles.
//! * [`runtime`] — the [`Server`]: registry + snapshot store + one serving
//!   loop.  [`Server::serve`] runs closed-loop streams of many sessions,
//!   split statically over host threads, in either [`ExecMode::Cold`]
//!   (fresh VM + setup per request) or [`ExecMode::Pooled`] (fork +
//!   snapshot/reset) mode; [`Server::serve_scaled`] runs backpressured
//!   virtual-time arrival plans.  Each call pins the active version once,
//!   so a promotion mid-call never swaps a binary under a live session.
//!
//! The `server_throughput` and `verify_scale` sections of the `repro`
//! driver are built on this crate.

pub mod handles;
pub mod metrics;
pub mod pool;
pub mod registry;
pub mod reqgen;
pub mod runtime;
pub mod sched;
pub mod session;
pub mod store;

pub use handles::{BinaryId, SessionId, VersionId};
pub use metrics::{RequestMetrics, StreamMetrics};
pub use pool::{PoolOptions, PooledInstance};
pub use registry::{
    PromoteError, RegisterError, Registry, ServiceBinary, SetupSpec, VerifyPolicy, VersionInfo,
    VersionState,
};
pub use reqgen::{ArrivalOptions, RequestGen, StreamKind, ZipfCdf};
pub use runtime::{
    ExecMode, ResidentStats, ScaleReport, ServeError, Server, ServerConfig, ServiceReport,
    SessionOutcome,
};
pub use sched::{
    Arrival, ArrivalPlan, Backpressure, Completion, ExecCost, SchedResult, SchedulerConfig,
};
pub use session::{Request, SessionSpec, SessionSpecBuilder};
pub use store::{SessionTemplate, SnapshotStore};
