//! `deploy`: a closed loop of fleet submissions.
//!
//! Each round takes a fresh `Registry` (so a cold verify cache) and submits
//! the nine SPEC stand-ins plus nginx, ldap, privado and merkle under
//! OurMPX and OurSeg, in a seeded order.  An operation is one submission:
//! its latency runs from `parse` to the end of `promote`.

use confllvm_core::Config;
use confllvm_server::{Registry, RequestGen, VerifyPolicy};
use confllvm_workloads::{ldap, merkle, nginx, privado, spec};

use crate::compose::{self, Item};
use crate::stats::{shuffle, stream, thread_cpu_ns};
use crate::trace::op_span;
use crate::{Ctx, Round, Sample, Workload};

pub struct Deploy {
    fleet: Vec<Item>,
    rng: RequestGen,
}

/// The fleet: every program under both deployed configurations.
pub fn fleet() -> Result<Vec<Item>, String> {
    let mut programs: Vec<(&'static str, String, &'static str)> = spec::KERNELS
        .iter()
        .map(|k| (k.name, k.source.to_string(), "run"))
        .collect();
    programs.push(("nginx", nginx::SOURCE.to_string(), nginx::SETUP_ENTRY));
    programs.push(("ldap", ldap::annotated_source(), ldap::SETUP_ENTRY));
    programs.push(("privado", privado::SOURCE.to_string(), "classify"));
    programs.push(("merkle", merkle::SOURCE.to_string(), "read_file_blocks"));
    let mut items = Vec::new();
    for config in [Config::OurMpx, Config::OurSeg] {
        for (name, source, entry) in &programs {
            items.push(Item::new(name, source.clone(), config, entry, None)?);
        }
    }
    Ok(items)
}

impl Deploy {
    fn submit_all(&mut self, ctx: &mut Ctx, round: &mut Round) {
        let registry = Registry::new(VerifyPolicy::RequireVerified);
        let mut order: Vec<usize> = (0..self.fleet.len()).collect();
        shuffle(&mut order, &mut self.rng);
        for i in order {
            let item = &self.fleet[i];
            let op = ctx.op();
            let _op = op_span(op, item.program, item.config.name());
            let t0 = thread_cpu_ns();
            let submitted = compose::submit(&registry, item, op);
            let latency = thread_cpu_ns() - t0;
            round.ops += 1;
            match submitted {
                Ok((version, sizes)) => {
                    round.samples.push(Sample {
                        kind: i,
                        ns: latency,
                    });
                    ctx.add("ir_insts", sizes.ir_insts as f64);
                    ctx.add("machine_insts", sizes.machine_insts as f64);
                    ctx.add("bound_checks", sizes.bound_checks as f64);
                    ctx.add("code_words", sizes.code_words as f64);
                    if !compose::check_active(&registry, item, version, op) {
                        eprintln!("perfbench: {}: check failed", item.name);
                        round.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    round.failed += 1;
                }
            }
        }
    }
}

impl Workload for Deploy {
    const SETUPS: usize = 15;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut d = Deploy {
            fleet: fleet()?,
            rng: stream(seed, 1),
        };
        // Warm up: one untimed round.
        let mut warm = Round::default();
        d.submit_all(&mut Ctx::default(), &mut warm);
        if warm.failed > 0 {
            return Err(format!("{} submission(s) failed in warm-up", warm.failed));
        }
        Ok(d)
    }

    fn round(&mut self, ctx: &mut Ctx) -> Round {
        let mut round = Round::default();
        self.submit_all(ctx, &mut round);
        round
    }

    fn layer_metrics(&self, _ctx: &Ctx) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
