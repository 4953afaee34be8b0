//! The repository's benchmark: one command that sets up a workload, runs it
//! in a closed loop for a fixed time, checks every output and prints the
//! end-to-end metrics (or, with `--trace 1`, the per-layer ones) as the
//! last line of standard output.
//!
//! ```text
//! perfbench --workload <deploy|scale> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! the layer → metric → workload map.

mod compose;
mod deploy;
mod scale;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use confllvm_obs::recorder;

use crate::stats::{median, percentile};
use crate::trace::{Attribution, LABELS};

/// Per-run state shared with the workloads: the benchmark's own operation
/// ids and the counts the workloads report per round.
#[derive(Debug, Default)]
pub struct Ctx {
    next_op: u64,
    /// Sums over every round.
    pub sums: BTreeMap<&'static str, f64>,
    /// Maxima over every round.
    pub maxima: BTreeMap<&'static str, f64>,
}

impl Ctx {
    /// A fresh operation id (never 0).
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_insert(0.0) += value;
    }

    pub fn max(&mut self, key: &'static str, value: f64) {
        let m = self.maxima.entry(key).or_insert(f64::MIN);
        *m = m.max(value);
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }
}

/// One timed operation: which kind it was and its host time.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Operations of one kind repeat the same work every round (one fleet
    /// program under one configuration, or the sweep).
    pub kind: usize,
    /// CPU time of the thread that ran the operation, nanoseconds.  These
    /// operations run on one thread and never block, so on an idle host
    /// this is their wall time; CPU time leaves out the time a shared host
    /// steals from the virtual CPU.
    pub ns: f64,
}

/// What one round of a workload did.
#[derive(Debug, Default)]
pub struct Round {
    /// Every timed operation of the round.
    pub samples: Vec<Sample>,
    /// Operations attempted (and checked).
    pub ops: u64,
    pub failed: u64,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Times set-up is repeated; `setup_s` is the median.
    const SETUPS: usize;
    /// Compile, register and warm up, from the run's seed.
    fn setup(seed: u64) -> Result<Self, String>;
    /// One closed-loop round.
    fn round(&mut self, ctx: &mut Ctx) -> Round;
    /// Per-layer metrics the workload reads from the program's reports.
    fn layer_metrics(&self, ctx: &Ctx) -> Vec<(&'static str, f64)>;
}

/// Per-layer metrics, in output order: name, unit.  Self-time shares of
/// the traced wall time follow as `<label>_pct` for every trace label.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("trace.round_ms", "ms"),
    ("trace.op_us_p50_on", "us"),
    ("trace.op_us_p50_off", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.events_per_op", "count"),
    ("ir.insts_per_op", "count"),
    ("codegen.minsts_per_op", "count"),
    ("codegen.checks_per_op", "count"),
    ("machine.words_per_op", "count"),
    ("verifier.cache_misses_per_op", "count"),
    ("vm.insts_per_op", "count"),
    ("vm.sim_cycles_per_op", "cycles"),
    ("vm.extern_calls_per_op", "count"),
    ("vm.dirty_pages_per_op", "pages"),
    ("vm.cow_faults_per_op", "count"),
    ("vm.translations_per_op", "count"),
    ("vm.forks_per_op", "count"),
    ("vm.restores_per_op", "count"),
    ("vm.blockcache_hit_ratio", "ratio"),
    ("vm.checks_per_kinst", "count"),
    ("vm.minst_per_s", "M/s"),
    ("sched.shed_per_op", "count"),
    ("sched.queue_depth_max", "count"),
    ("sim.sweep_vcycles_p99", "cycles"),
    ("sim.parked_pages_per_session", "pages"),
    ("sim.peak_pages_per_session", "pages"),
];

/// Traced rounds per run at most: worker threads keep their ring
/// buffers' capacity after a drain, so tracing every round of a long run
/// would grow memory without bound.
const MAX_TRACED_ROUNDS: u64 = 64;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <deploy|scale> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "deploy" => run::<deploy::Deploy>(&args),
        "scale" => run::<scale::Scale>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Set up, run the timed loop, check, and render the result line.
fn run<W: Workload>(args: &Args) -> Result<String, String> {
    let rec = recorder();
    rec.set_enabled(false);

    let mut setup_secs = Vec::with_capacity(W::SETUPS);
    let mut state = None;
    for _ in 0..W::SETUPS {
        drop(state.take());
        let t0 = stats::process_cpu_s();
        state = Some(W::setup(args.seed)?);
        setup_secs.push(stats::process_cpu_s() - t0);
    }
    let mut w = state.expect("at least one set-up");
    let (mut attempted, mut failed) = (0, 0);

    let mut ctx = Ctx::default();
    let mut attribution = Attribution::new();
    // Fastest sample of every operation kind, ns.
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    let (mut p50_on, mut p50_off) = (Vec::new(), Vec::new());
    let mut traced_ops = 0u64;
    let mut index = 0u64;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while index == 0 || Instant::now() < deadline {
        let traced =
            args.trace && index.is_multiple_of(2) && attribution.rounds < MAX_TRACED_ROUNDS;
        if traced {
            rec.clear();
            rec.set_enabled(true);
        }
        let round = {
            let _root = trace::span(trace::ROUND, 0);
            w.round(&mut ctx)
        };
        if traced {
            rec.set_enabled(false);
            attribution.absorb(&rec.snapshot())?;
            rec.clear();
            traced_ops += round.ops;
        }
        // Traced and untraced rounds alternate while tracing lasts: their
        // latencies, side by side, are the tracing overhead.
        if args.trace && index < 2 * MAX_TRACED_ROUNDS {
            let ns: Vec<f64> = round.samples.iter().map(|s| s.ns).collect();
            if traced { &mut p50_on } else { &mut p50_off }.push(percentile(&ns, 50.0));
        }
        for s in &round.samples {
            let b = best.entry(s.kind).or_insert(f64::INFINITY);
            *b = b.min(s.ns);
        }
        ctx.add("ops", round.ops as f64);
        attempted += round.ops;
        failed += round.failed;
        index += 1;
    }
    // A shared host only ever adds time to an operation (another tenant
    // taking the core, the shared cache or the memory bus), in phases
    // longer than a round, while single-threaded CPU time has a floor, the
    // operation's own cost.  So every kind's fastest repetition is what
    // repeats from run to run: the metrics are percentiles across kinds
    // and the rate of one round made of those repetitions.
    let fastest: Vec<f64> = best.values().copied().collect();
    let op_p50_ns = percentile(&fastest, 50.0);
    let op_p90_ns = percentile(&fastest, 90.0);
    let ops_per_cpu_s = fastest.len() as f64 / fastest.iter().sum::<f64>() * 1e9;

    let mut correct = failed == 0;
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let error_ns = attribution.identity_error_ns();
        if error_ns > 1e-6 * attribution.total_ns as f64 + 1.0 {
            correct = false;
            eprintln!("perfbench: per-layer self times miss the traced wall time by {error_ns} ns");
        }
        let layer = layer_metrics(&w, &ctx, &attribution, traced_ops, &p50_on, &p50_off);
        print_layers(&attribution);
        write_trace(&args.workload, &attribution)?;
        layer
    } else {
        [
            ("setup_s", median(&setup_secs), "s"),
            ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
            ("op_us_p50", op_p50_ns / 1e3, "us"),
            ("op_us_p90", op_p90_ns / 1e3, "us"),
            ("ops_per_cpu_s", ops_per_cpu_s, "1/s"),
        ]
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), value, unit))
        .collect()
    };
    println!(
        "# {} seed={} rounds={} attempted={} failed={} setups_s={:?}",
        args.workload, args.seed, index, attempted, failed, setup_secs
    );
    for (name, value, unit) in &metrics {
        println!("# {name:<32} {value:>16.4} {unit}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn layer_metrics<W: Workload>(
    w: &W,
    ctx: &Ctx,
    a: &Attribution,
    traced_ops: u64,
    p50_on: &[f64],
    p50_off: &[f64],
) -> Vec<(String, f64, &'static str)> {
    let ops = traced_ops as f64;
    let all_ops = ctx.sum("ops");
    let on = median(p50_on) / 1e3;
    let off = median(p50_off) / 1e3;
    let insts = a.attr_sum("vm.run.instructions") as f64;
    let hits = a.counter("vm.blockcache.hits") as f64;
    let misses = a.counter("vm.blockcache.misses") as f64;
    let run_ns = a.self_ns[LABELS.iter().position(|l| *l == "vm.run").expect("label")];
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert(
        "trace.round_ms",
        ratio(a.total_ns as f64 / 1e6, a.rounds as f64),
    );
    values.insert("trace.op_us_p50_on", on);
    values.insert("trace.op_us_p50_off", off);
    values.insert("trace.overhead_pct", (ratio(on, off) - 1.0) * 100.0);
    values.insert("trace.events_per_op", ratio(a.events as f64, ops));
    values.insert("ir.insts_per_op", ratio(ctx.sum("ir_insts"), all_ops));
    values.insert(
        "codegen.minsts_per_op",
        ratio(ctx.sum("machine_insts"), all_ops),
    );
    values.insert(
        "codegen.checks_per_op",
        ratio(ctx.sum("bound_checks"), all_ops),
    );
    values.insert(
        "machine.words_per_op",
        ratio(ctx.sum("code_words"), all_ops),
    );
    values.insert(
        "verifier.cache_misses_per_op",
        ratio(a.counter("verify.cache.proc_misses") as f64, ops),
    );
    values.insert("vm.insts_per_op", ratio(insts, ops));
    values.insert(
        "vm.sim_cycles_per_op",
        ratio(a.attr_sum("vm.run.cycles") as f64, ops),
    );
    values.insert(
        "vm.extern_calls_per_op",
        ratio(a.attr_sum("vm.run.extern_calls") as f64, ops),
    );
    values.insert(
        "vm.dirty_pages_per_op",
        ratio(a.attr_sum("vm.restore.dirty_pages") as f64, ops),
    );
    values.insert(
        "vm.cow_faults_per_op",
        ratio(ctx.sum("cow_faults"), all_ops),
    );
    values.insert(
        "vm.translations_per_op",
        ratio(a.count("vm.translate") as f64, ops),
    );
    values.insert("vm.forks_per_op", ratio(a.count("vm.fork") as f64, ops));
    values.insert(
        "vm.restores_per_op",
        ratio(a.count("vm.restore") as f64, ops),
    );
    values.insert("vm.blockcache_hit_ratio", ratio(hits, hits + misses));
    values.insert(
        "vm.checks_per_kinst",
        ratio(a.attr_sum("vm.run.bound_checks") as f64 * 1e3, insts),
    );
    values.insert("vm.minst_per_s", ratio(insts * 1e3, run_ns));
    values.insert("sched.shed_per_op", ratio(ctx.sum("shed"), all_ops));
    values.insert(
        "sched.queue_depth_max",
        ctx.maxima.get("queue_depth_max").copied().unwrap_or(0.0),
    );
    for (name, v) in w.layer_metrics(ctx) {
        values.insert(name, v);
    }
    let total = a.total_ns as f64;
    let mut out: Vec<(String, f64, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            (name.to_string(), value, unit)
        })
        .collect();
    for (label, ns) in LABELS.iter().zip(&a.self_ns) {
        out.push((format!("{label}_pct"), ratio(ns * 100.0, total), "%"));
    }
    out
}

fn print_layers(a: &Attribution) {
    println!(
        "# traced rounds={} wall={:.3} ms events={}",
        a.rounds,
        a.total_ns as f64 / 1e6,
        a.events
    );
    println!("# {:<20} {:>12} {:>8}", "layer", "self ms", "share");
    let total = a.total_ns as f64;
    for (label, ns) in LABELS.iter().zip(&a.self_ns) {
        if *ns > 0.0 {
            println!(
                "# {label:<20} {:>12.3} {:>7.2}%",
                ns / 1e6,
                ratio(ns * 100.0, total)
            );
        }
    }
    println!(
        "# {:<20} {:>12.3} (self times + unattributed; traced wall {:.3} ms)",
        "sum",
        a.self_ns.iter().sum::<f64>() / 1e6,
        total / 1e6
    );
}

/// Write the traced run's spans and attribution under `out/` in this
/// crate's directory.
fn write_trace(workload: &str, a: &Attribution) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    std::fs::write(&path, a.jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# trace written to {}", path.display());
    Ok(())
}
