//! Serving-result fingerprint golden: `Server::serve` over the two service
//! workloads, in both execution modes and both deployed configurations,
//! must reproduce exactly the committed results.
//!
//! Each (mode, workload, config) run is pinned by every session's exit
//! codes, the run's total and p99 request cycles, the instances it spawned
//! and a 64-bit FNV-1a hash of its attacker-observable trace
//! (`ServiceReport::observable`).  Scheduler or runtime refactors (how
//! sessions are split over host threads, how requests are dispatched, how
//! instances are spawned and rewound) must leave this table untouched.  On
//! a mismatch the test prints the full recomputed table so an *intended*
//! serving change can be reviewed and committed in one step.

use std::sync::Arc;

use confllvm_repro::core::{CompileOptions, Config};
use confllvm_repro::server::{
    ExecMode, Registry, RequestGen, Server, ServerConfig, ServiceReport, SessionSpec, SetupSpec,
    StreamKind, VerifyPolicy,
};
use confllvm_repro::vm::World;
use confllvm_repro::workloads::{ldap, nginx};

/// Sessions per run: more than the default four workers, so at least one
/// worker serves two sessions.
const SESSIONS: usize = 5;
/// Requests per session.
const REQUESTS: usize = 3;

/// One pinned run.
struct Golden {
    mode: &'static str,
    workload: &'static str,
    config: &'static str,
    exit_codes: &'static [&'static [i64]],
    total_cycles: u64,
    p99_cycles: u64,
    instances_spawned: u64,
    observable_fnv: u64,
}

/// What one run produced, in the shape of [`Golden`].
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    mode: &'static str,
    workload: &'static str,
    config: &'static str,
    exit_codes: Vec<Vec<i64>>,
    total_cycles: u64,
    p99_cycles: u64,
    instances_spawned: u64,
    observable_fnv: u64,
}

impl Fingerprint {
    fn of(g: &Golden) -> Self {
        Fingerprint {
            mode: g.mode,
            workload: g.workload,
            config: g.config,
            exit_codes: g.exit_codes.iter().map(|c| c.to_vec()).collect(),
            total_cycles: g.total_cycles,
            p99_cycles: g.p99_cycles,
            instances_spawned: g.instances_spawned,
            observable_fnv: g.observable_fnv,
        }
    }

    fn row(&self) -> String {
        let codes: Vec<String> = self
            .exit_codes
            .iter()
            .map(|c| {
                let c: Vec<String> = c.iter().map(i64::to_string).collect();
                format!("&[{}]", c.join(", "))
            })
            .collect();
        format!(
            "    Golden {{ mode: {:?}, workload: {:?}, config: {:?}, exit_codes: &[{}], \
             total_cycles: {}, p99_cycles: {}, instances_spawned: {}, \
             observable_fnv: {:#018x} }},\n",
            self.mode,
            self.workload,
            self.config,
            codes.join(", "),
            self.total_cycles,
            self.p99_cycles,
            self.instances_spawned,
            self.observable_fnv
        )
    }
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { mode: "cold", workload: "nginx", config: "OurMPX", exit_codes: &[&[1, 1, 1], &[1, 1, 1], &[1, 1, 1], &[1, 1, 1], &[1, 1, 1]], total_cycles: 803100, p99_cycles: 53540, instances_spawned: 15, observable_fnv: 0x41760bac44871988 },
    Golden { mode: "cold", workload: "nginx", config: "OurSeg", exit_codes: &[&[1, 1, 1], &[1, 1, 1], &[1, 1, 1], &[1, 1, 1], &[1, 1, 1]], total_cycles: 778815, p99_cycles: 51921, instances_spawned: 15, observable_fnv: 0x41760bac44871988 },
    Golden { mode: "cold", workload: "ldap", config: "OurMPX", exit_codes: &[&[0, 1, 1], &[0, 0, 0], &[0, 0, 0], &[1, 1, 0], &[1, 1, 0]], total_cycles: 1510860, p99_cycles: 101021, instances_spawned: 15, observable_fnv: 0x2cba16de965f0a39 },
    Golden { mode: "cold", workload: "ldap", config: "OurSeg", exit_codes: &[&[0, 1, 1], &[0, 0, 0], &[0, 0, 0], &[1, 1, 0], &[1, 1, 0]], total_cycles: 1467150, p99_cycles: 98104, instances_spawned: 15, observable_fnv: 0x2cba16de965f0a39 },
    Golden { mode: "pooled", workload: "nginx", config: "OurMPX", exit_codes: &[&[1, 1, 1], &[1, 1, 1], &[1, 1, 1], &[1, 1, 1], &[1, 1, 1]], total_cycles: 141465, p99_cycles: 9511, instances_spawned: 5, observable_fnv: 0x41760bac44871988 },
    Golden { mode: "pooled", workload: "nginx", config: "OurSeg", exit_codes: &[&[1, 1, 1], &[1, 1, 1], &[1, 1, 1], &[1, 1, 1], &[1, 1, 1]], total_cycles: 136470, p99_cycles: 9178, instances_spawned: 5, observable_fnv: 0x41760bac44871988 },
    Golden { mode: "pooled", workload: "ldap", config: "OurMPX", exit_codes: &[&[0, 1, 1], &[0, 0, 0], &[0, 0, 0], &[1, 1, 0], &[1, 1, 0]], total_cycles: 10425, p99_cycles: 1032, instances_spawned: 5, observable_fnv: 0x2cba16de965f0a39 },
    Golden { mode: "pooled", workload: "ldap", config: "OurSeg", exit_codes: &[&[0, 1, 1], &[0, 0, 0], &[0, 0, 0], &[1, 1, 0], &[1, 1, 0]], total_cycles: 10065, p99_cycles: 1005, instances_spawned: 5, observable_fnv: 0x2cba16de965f0a39 },
];

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn deploy(workload: &str, config: Config) -> Server {
    let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
    let (source, setup) = match workload {
        "nginx" => (
            nginx::SOURCE.to_string(),
            SetupSpec::new(nginx::SETUP_ENTRY, &[]),
        ),
        _ => (
            ldap::annotated_source(),
            SetupSpec::new(ldap::SETUP_ENTRY, &[32]),
        ),
    };
    let opts = CompileOptions {
        config,
        entry: setup.entry.clone(),
        ..Default::default()
    };
    registry
        .deploy_source(workload, &source, &opts, Some(setup))
        .unwrap_or_else(|e| panic!("{workload} must deploy under {config}: {e}"));
    Server::new(registry, ServerConfig::default())
}

fn sessions(workload: &str) -> Vec<SessionSpec> {
    (0..SESSIONS)
        .map(|id| {
            let seed = 40 + id as u64;
            if workload == "nginx" {
                let world = nginx::file_world(3, 512, id as u8);
                let kind = StreamKind::NginxFiles {
                    files: 3,
                    response_size: 512,
                };
                SessionSpec::new(id, world, RequestGen::new(seed).stream(kind, REQUESTS))
            } else {
                let mut world = World::new();
                world.set_password("user", format!("fingerprint-secret-{id}").as_bytes());
                let kind = StreamKind::LdapMix {
                    entries: 32,
                    hit_pct: 50,
                };
                SessionSpec::new(id, world, RequestGen::new(seed).stream(kind, REQUESTS))
            }
        })
        .collect()
}

fn fingerprint(
    mode: ExecMode,
    workload: &'static str,
    config: Config,
    r: &ServiceReport,
) -> Fingerprint {
    Fingerprint {
        mode: mode.name(),
        workload,
        config: config.name(),
        exit_codes: r.sessions.iter().map(|s| s.exit_codes.clone()).collect(),
        total_cycles: r.metrics.total_cycles,
        p99_cycles: r.metrics.percentile(99),
        instances_spawned: r.instances_spawned,
        observable_fnv: fnv1a(&r.observable()),
    }
}

fn fingerprints() -> Vec<Fingerprint> {
    let mut out = Vec::new();
    for mode in [ExecMode::Cold, ExecMode::Pooled] {
        for workload in ["nginx", "ldap"] {
            for config in [Config::OurMpx, Config::OurSeg] {
                let server = deploy(workload, config);
                let binary = server.registry.binary_id(workload).unwrap();
                let report = server
                    .serve(binary, &sessions(workload), mode)
                    .unwrap_or_else(|e| panic!("{workload} {config} {mode:?}: {e}"));
                out.push(fingerprint(mode, workload, config, &report));
            }
        }
    }
    out
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn served_results_match_the_golden_table() {
    let actual = fingerprints();
    let table: String = actual.iter().map(Fingerprint::row).collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "golden table size differs; recomputed table:\n{table}"
    );
    for (got, want) in actual.iter().zip(GOLDEN) {
        assert_eq!(
            got,
            &Fingerprint::of(want),
            "served results changed for {} {} {}; recomputed table:\n{table}",
            got.mode,
            got.workload,
            got.config
        );
    }
}
