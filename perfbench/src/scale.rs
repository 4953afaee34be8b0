//! `scale`: 10⁴ copy-on-write sessions under a bursty arrival plan.
//!
//! Every round is one `Server::serve_scaled` call on nginx/OurMPX: 10⁴
//! sessions forked from the version's template, driven by a seeded,
//! zipf-skewed on/off arrival plan through the virtual-time scheduler
//! (an open loop in virtual time).  An operation is one such sweep.

use std::sync::Arc;

use confllvm_core::Config;
use confllvm_server::{
    ArrivalOptions, ArrivalPlan, BinaryId, Registry, RequestGen, SchedulerConfig, Server,
    ServerConfig, SessionSpec, SetupSpec, StreamKind, VerifyPolicy,
};
use confllvm_workloads::nginx;

use crate::compose::{self, Item};
use crate::stats::{stream, thread_cpu_ns};
use crate::trace::span;
use crate::{Ctx, Round, Sample, Workload};

const SESSIONS: usize = 10_000;
const FILES: usize = 2;
const RESPONSE_SIZE: usize = 512;

pub struct Scale {
    server: Server,
    binary: BinaryId,
    plan: ArrivalPlan,
    specs: Vec<SessionSpec>,
    sched: SchedulerConfig,
    last_vcycles_p99: u64,
    last_parked_pages: f64,
    last_peak_pages: f64,
}

impl Scale {
    fn sweep(&mut self, ctx: &mut Ctx) -> Round {
        let mut round = Round {
            ops: 1,
            ..Default::default()
        };
        let op = ctx.op();
        let t0 = thread_cpu_ns();
        let report = {
            let _s = span("server.scale", op);
            self.server
                .serve_scaled(self.binary, &self.specs, &self.plan, &self.sched)
        };
        let latency = thread_cpu_ns() - t0;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: serve_scaled: {e}");
                round.failed = 1;
                return round;
            }
        };
        round.samples.push(Sample {
            kind: 0,
            ns: latency,
        });
        let _s = span("bench.check", op);
        let m = &report.metrics;
        let mut ok = report.executed + m.shed == self.plan.len() as u64;
        let mut served = 0u64;
        for outcome in &report.sessions {
            served += outcome.exit_codes.len() as u64;
            ok &= outcome.exit_codes.iter().all(|&c| c == 1)
                && outcome.sent.len() == outcome.exit_codes.len() * RESPONSE_SIZE;
        }
        ok &= served == report.executed;
        if !ok {
            eprintln!("perfbench: scale: a sweep failed its output checks");
            round.failed = 1;
        }
        ctx.add("shed", m.shed as f64);
        ctx.add("cow_faults", report.resident.cow_faults as f64);
        ctx.max("queue_depth_max", m.max_queue_depth() as f64);
        self.last_vcycles_p99 = m.virtual_percentile_milli(990);
        self.last_parked_pages = report.resident.mean_parked_pages;
        self.last_peak_pages = report.resident.mean_peak_pages;
        round
    }
}

impl Workload for Scale {
    const SETUPS: usize = 5;

    fn setup(seed: u64) -> Result<Self, String> {
        let item = Item::new(
            "nginx",
            nginx::SOURCE.to_string(),
            Config::OurMpx,
            nginx::SETUP_ENTRY,
            Some(SetupSpec::new(nginx::SETUP_ENTRY, &[])),
        )?;
        let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
        compose::deploy(&registry, &item)?;
        let binary = registry
            .binary_id(&item.name)
            .ok_or("nginx is not registered")?;
        // Bursts hotter than the four modelled workers drain in a window,
        // so the bounded admission queue fills and sheds.
        let plan = stream(seed, 3).arrival_plan(&ArrivalOptions {
            sessions: SESSIONS,
            arrivals: SESSIONS / 4,
            zipf: true,
            window_cycles: 50_000,
            on_windows: 3,
            off_windows: 2,
            on_per_window: 96,
            off_per_window: 4,
        });
        let counts = plan.per_session_counts(SESSIONS);
        let mut files: RequestGen = stream(seed, 4);
        let specs = (0..SESSIONS)
            .map(|id| {
                let world = nginx::file_world(FILES, RESPONSE_SIZE, (files.next_u64() % 251) as u8);
                let requests = RequestGen::new(files.next_u64()).stream(
                    StreamKind::NginxFiles {
                        files: FILES,
                        response_size: RESPONSE_SIZE,
                    },
                    counts[id],
                );
                SessionSpec::new(id, world, requests)
            })
            .collect();
        let mut s = Scale {
            server: Server::new(registry, ServerConfig::new()),
            binary,
            plan,
            specs,
            sched: SchedulerConfig::default(),
            last_vcycles_p99: 0,
            last_parked_pages: 0.0,
            last_peak_pages: 0.0,
        };
        // Warm up: the first sweep builds the template and its translation.
        if s.sweep(&mut Ctx::default()).failed > 0 {
            return Err("the warm-up sweep failed".into());
        }
        Ok(s)
    }

    fn round(&mut self, ctx: &mut Ctx) -> Round {
        self.sweep(ctx)
    }

    fn layer_metrics(&self, _ctx: &Ctx) -> Vec<(&'static str, f64)> {
        vec![
            ("sim.sweep_vcycles_p99", self.last_vcycles_p99 as f64),
            ("sim.parked_pages_per_session", self.last_parked_pages),
            ("sim.peak_pages_per_session", self.last_peak_pages),
        ]
    }
}
