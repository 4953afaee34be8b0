//! Tracing a virtual-time scale run.
//!
//! `Server::serve_scaled` measures no host time per request (its latencies
//! are virtual): a traced run records no per-request host-time histogram
//! and no per-request `server.request` span, and it must fork exactly the
//! sessions it executes.  This is a test binary of its own because it
//! toggles the process-global recorder: no concurrently running test can
//! record into it or switch it off mid-run.

use std::sync::Arc;

use confllvm_core::{CompileOptions, Config};
use confllvm_server::{
    ArrivalOptions, Registry, RequestGen, SchedulerConfig, Server, ServerConfig, SessionSpec,
    SetupSpec, StreamKind, VerifyPolicy,
};
use confllvm_workloads::nginx;

#[test]
fn traced_scale_run_records_no_host_time_and_forks_only_executed_sessions() {
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
        .expect("nginx deploys");
    let binary = registry.binary_id("nginx").unwrap();
    let server = Server::new(registry, ServerConfig::new());

    let sessions = 64;
    let plan = RequestGen::new(5).arrival_plan(&ArrivalOptions {
        sessions,
        arrivals: 96,
        zipf: true,
        window_cycles: 50_000,
        on_windows: 2,
        off_windows: 1,
        on_per_window: 8,
        off_per_window: 2,
    });
    let specs: Vec<SessionSpec> = plan
        .per_session_counts(sessions)
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            let reqs = RequestGen::new(i as u64).stream(
                StreamKind::NginxFiles {
                    files: 2,
                    response_size: 256,
                },
                count,
            );
            SessionSpec::new(i, nginx::file_world(2, 256, i as u8), reqs)
        })
        .collect();

    let rec = confllvm_obs::recorder();
    rec.clear();
    rec.set_enabled(true);
    let report = server
        .serve_scaled(binary, &specs, &plan, &SchedulerConfig::default())
        .expect("scale run succeeds");
    rec.set_enabled(false);
    let snap = rec.snapshot();

    let samples = |name: &str| snap.histograms.get(name).map_or(0, |h| h.count());
    assert!(report.executed > 0);
    assert_eq!(
        samples("server.request.cycles"),
        report.executed,
        "the recorder saw every executed request"
    );
    assert_eq!(
        samples("server.queue_depth"),
        report.windows,
        "one queue-depth sample per admission window"
    );
    assert_eq!(
        samples("server.request.host_nanos"),
        0,
        "unmeasured host time must not be recorded as zeros"
    );
    assert_eq!(
        snap.events().filter(|e| e.name == "server.request").count(),
        0,
        "the window series, not a span per request, accounts for a sweep"
    );

    // One fork per distinct executed session, none for the rest.
    let executed_sessions = report
        .sessions
        .iter()
        .filter(|s| !s.exit_codes.is_empty())
        .count();
    assert!(
        executed_sessions < sessions,
        "the plan leaves sessions idle"
    );
    assert_eq!(report.resident.materialised_sessions, executed_sessions);
    let forks = snap.events().filter(|e| e.name == "vm.fork").count();
    assert_eq!(forks, executed_sessions);
}
