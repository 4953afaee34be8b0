//! `repro` — regenerate the tables and figures of the ConfLLVM evaluation.
//!
//! Usage:
//! ```text
//! repro [--section <name>[,<name>...]]... [--quick] [--usage]
//!       [--trace <out.json>] [--metrics-json <out.json>]
//!       [--metrics-series <out.jsonl>] [--profile-folded <out.folded>]
//! repro --diff-bench <actual.json> <golden.json>
//! repro --check-trace <trace.json>
//! ```
//! With no section selection, everything is reproduced.  `--quick` shrinks
//! the workload parameters (useful in CI); the numbers remain comparable in
//! shape.  `--section <name>` runs one or more evaluation sections
//! (repeatable, comma-separated lists accepted, e.g. `--section nginx,ldap`).
//! Every measured section writes its numbers to `BENCH_<section>.json`.
//!
//! `--trace` and `--metrics-json` enable the observability recorder for
//! whatever runs — they compose with any `--section` selection — and write
//! a Chrome `trace_event` JSON (load it at `ui.perfetto.dev`) and an
//! aggregated metrics JSON after the sections finish.

use confllvm_bench::*;

/// Every evaluation section: canonical name, workload aliases accepted by
/// `--section`, and a description.
const SECTIONS: [(&str, &[&str], &str); 13] = [
    (
        "fig5",
        &["spec"],
        "SPEC CPU stand-ins, execution time vs Base",
    ),
    (
        "fig6",
        &["nginx"],
        "NGINX stand-in, throughput vs Base",
    ),
    (
        "ldap",
        &[],
        "OpenLDAP stand-in, hit/miss query throughput",
    ),
    (
        "fig7",
        &["privado"],
        "Privado stand-in, classification latency",
    ),
    (
        "fig8",
        &["merkle"],
        "Merkle FS stand-in, multi-threaded read time",
    ),
    ("vuln", &[], "Section 7.6 vulnerability injection"),
    (
        "porting",
        &[],
        "porting effort (annotations + trusted interface)",
    ),
    (
        "ablation_passes",
        &[],
        "machine pass pipelines on OurMPX: PR-1 trio vs +hoist +cross-block",
    ),
    (
        "server_throughput",
        &["server"],
        "serving layer: verify-then-load, VM pooling, cold vs pooled request streams",
    ),
    (
        "verify_scale",
        &["verify"],
        "fleet-scale ConfVerify: parallel vs serial, content-hash cache, blue/green hot-swap",
    ),
    (
        "server_scale",
        &["scale"],
        "serving layer at scale: CoW session forks + backpressured virtual-time scheduler, 10^4-10^5 sessions",
    ),
    (
        "interp_speed",
        &["interp"],
        "block execution engine vs legacy decode-per-step interpreter: host time on SPEC stand-ins + pooled serving mix, asserts >=3x with bit-identical counters",
    ),
    (
        "profile",
        &[],
        "deterministic sampling profiler: SPEC stand-ins + serving legs, per-check-site attribution cross-checked against ablation_passes, PR-1 vs full-pipeline differential",
    ),
];

fn usage() -> String {
    let mut out = String::new();
    out.push_str("usage: repro [--section <name>[,<name>...]]... [--quick] [--usage]\n");
    out.push_str("             [--trace <out.json>] [--metrics-json <out.json>]\n");
    out.push_str("             [--metrics-series <out.jsonl>] [--profile-folded <out.folded>]\n");
    out.push_str("       repro --diff-bench <actual.json> <golden.json>\n");
    out.push_str("       repro --check-trace <trace.json>\n\n");
    out.push_str("sections (each but porting writes BENCH_<section>.json):\n");
    for (name, aliases, desc) in SECTIONS {
        let label = if aliases.is_empty() {
            name.to_string()
        } else {
            format!("{name} ({})", aliases.join(", "))
        };
        out.push_str(&format!("  {label:<28}{desc}\n"));
    }
    out.push_str(
        "\nobservability (composes with any --section selection):\n  \
         --trace <out.json>          record spans while the selected sections run and\n  \
                                     write a Chrome trace_event file (open in Perfetto)\n  \
         --metrics-json <out.json>   write aggregated counters/histograms/span totals\n  \
         --metrics-series <out.jsonl> write the server_scale largest point's per-window\n  \
                                     telemetry as JSONL (needs the server_scale section)\n  \
         --profile-folded <out>      enable the deterministic sampling profiler for the\n  \
                                     selected sections and write a collapsed-stack file\n  \
                                     (flamegraph.pl / speedscope compatible); with\n  \
                                     --section profile, writes that section's export\n  \
         --check-trace <trace.json>  validate a trace file: well-formed Chrome JSON with\n  \
                                     spans from all of compiler, verifier, vm and server,\n  \
                                     failing on any ring-buffer drops\n",
    );
    out
}

fn valid_section_names() -> String {
    SECTIONS
        .iter()
        .flat_map(|(name, aliases, _)| std::iter::once(*name).chain(aliases.iter().copied()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Resolve one `--section` operand (a comma-separated list of names or
/// aliases) into `selected`, pushing every unknown name onto `unknown`
/// instead of bailing at the first — the caller reports them all together
/// before anything runs.  An operand naming no section at all (empty or
/// only commas) is also an error — silently selecting nothing would fall
/// back to running everything.
fn resolve_sections(list: &str, selected: &mut Vec<&'static str>, unknown: &mut Vec<String>) {
    let mut any = false;
    for part in list.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        any = true;
        match SECTIONS
            .iter()
            .find(|(name, aliases, _)| *name == part || aliases.contains(&part))
        {
            Some((name, _, _)) => selected.push(name),
            None => unknown.push(part.to_string()),
        }
    }
    if !any {
        unknown.push(list.to_string());
    }
}

/// CI mode: diff a freshly emitted benchmark JSON against the checked-in
/// golden copy under the [`BenchReport::diff`] tolerance classes.  Exit 0
/// on pass, 1 on mismatch, 2 on I/O or parse trouble.
fn diff_bench(actual_path: &str, golden_path: &str) -> ! {
    let read = |p: &str| {
        let parsed = std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read `{p}`: {e}"))
            .and_then(|text| BenchReport::parse(&text).map_err(|e| format!("`{p}`: {e}")));
        parsed.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    };
    let errors = read(actual_path).diff(&read(golden_path));
    if errors.is_empty() {
        println!("bench diff OK: `{actual_path}` matches `{golden_path}` within tolerance");
        std::process::exit(0);
    }
    eprintln!("bench diff FAILED ({} mismatches):", errors.len());
    for e in &errors {
        eprintln!("  {e}");
    }
    std::process::exit(1);
}

/// Report one written output file, or exit 1 naming it.
fn wrote_or_exit(path: &str, res: std::io::Result<()>) {
    match res {
        Ok(()) => println!("   wrote {path}"),
        Err(e) => {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Write a section's report to `BENCH_<section>.json` in the working
/// directory.
fn emit(report: &BenchReport) {
    let path = format!("BENCH_{}.json", report.section());
    wrote_or_exit(&path, report.write(std::path::Path::new(&path)));
}

/// Standalone trace validation: well-formed Chrome `trace_event` JSON that
/// contains spans from every instrumented layer.  Exit 0 on pass, 1 on a
/// malformed or incomplete trace, 2 on I/O trouble.
fn check_trace(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(2);
        }
    };
    // Specific operations a full trace must cover on top of the per-layer
    // categories: the block engine's one-time translation build.
    const REQUIRED_SPANS: [&str; 1] = ["vm.translate"];
    match confllvm_obs::validate_chrome_trace(&text) {
        Ok(check) => {
            let mut missing = check.missing_categories(&confllvm_obs::LAYERS);
            missing.extend(check.missing_names(&REQUIRED_SPANS));
            // A wrapped ring means the trace silently undercounts: report
            // which threads dropped and fail alongside missing coverage.
            if check.dropped_total() > 0 {
                for (tid, count) in &check.dropped {
                    eprintln!(
                        "trace DROPS: thread {tid} dropped {count} events to ring wrap-around"
                    );
                }
            }
            if missing.is_empty() && check.dropped_total() == 0 {
                println!(
                    "trace OK: `{path}` has {} events covering all layers ({}) and {}, 0 dropped",
                    check.events,
                    confllvm_obs::LAYERS.join(", "),
                    REQUIRED_SPANS.join(", ")
                );
                std::process::exit(0);
            }
            if !missing.is_empty() {
                eprintln!(
                    "trace INCOMPLETE: `{path}` has {} events but no spans from: {}",
                    check.events,
                    missing.join(", ")
                );
            } else {
                eprintln!(
                    "trace INCOMPLETE: `{path}` has {} events but dropped {}",
                    check.events,
                    check.dropped_total()
                );
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("trace INVALID: `{path}`: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff-bench") {
        let (Some(actual), Some(golden)) = (args.get(1), args.get(2)) else {
            eprintln!("error: --diff-bench needs <actual.json> <golden.json>");
            eprint!("{}", usage());
            std::process::exit(2);
        };
        diff_bench(actual, golden);
    }
    if args.first().map(String::as_str) == Some("--check-trace") {
        let Some(path) = args.get(1) else {
            eprintln!("error: --check-trace needs <trace.json>");
            eprint!("{}", usage());
            std::process::exit(2);
        };
        check_trace(path);
    }
    let mut selected: Vec<&'static str> = Vec::new();
    let mut unknown: Vec<String> = Vec::new();
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut series_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--quick" => quick = true,
            "--usage" | "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            "--section" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    eprintln!("error: --section needs a section name");
                    eprint!("{}", usage());
                    std::process::exit(2);
                };
                resolve_sections(list, &mut selected, &mut unknown);
            }
            "--trace" | "--metrics-json" | "--metrics-series" | "--profile-folded" => {
                let flag = a;
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("error: {flag} needs an output path");
                    eprint!("{}", usage());
                    std::process::exit(2);
                };
                match flag {
                    "--trace" => trace_path = Some(path.clone()),
                    "--metrics-json" => metrics_path = Some(path.clone()),
                    "--metrics-series" => series_path = Some(path.clone()),
                    _ => folded_path = Some(path.clone()),
                }
            }
            flag => {
                eprintln!("error: unknown flag `{flag}`");
                eprint!("{}", usage());
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // Every requested name was validated above; report ALL the unknown ones
    // together before running anything, so a long multi-section run never
    // does hours of work and then trips over a typo in the last operand.
    if !unknown.is_empty() {
        for u in &unknown {
            eprintln!("error: unknown section `{u}`");
        }
        eprintln!("valid sections: {}", valid_section_names());
        eprint!("{}", usage());
        std::process::exit(2);
    }
    let all = selected.is_empty();
    let want = |name: &str| all || selected.contains(&name);

    // `--metrics-series` exports the server_scale section's window series;
    // without that section in the run there is nothing to export.
    if series_path.is_some() && !want("server_scale") {
        eprintln!("error: --metrics-series needs the server_scale section in the run");
        eprint!("{}", usage());
        std::process::exit(2);
    }

    // Observability: recording is off unless an export was asked for, so a
    // plain run never pays for tracing.
    let recording = trace_path.is_some() || metrics_path.is_some();
    if recording {
        confllvm_obs::recorder().set_enabled(true);
    }
    // `--profile-folded` without the profile section samples whatever runs
    // through the process-wide profiler; the profile section manages the
    // profiler itself (interval, clearing, perturbation checks), so when it
    // is in the run the flag exports that section's combined profile
    // instead.
    let global_profile = folded_path.is_some() && !want("profile");
    if global_profile {
        let prof = confllvm_obs::profiler();
        prof.clear();
        prof.set_enabled(true);
    }

    let spec_scale = if quick { 8 } else { 1 };
    let nginx_requests = if quick { 2 } else { 4 };
    let nginx_sizes: &[usize] = if quick {
        &[0, 1024, 10 * 1024]
    } else {
        &[0, 1024, 2 * 1024, 5 * 1024, 10 * 1024, 20 * 1024, 40 * 1024]
    };
    let ldap_entries = if quick { 64 } else { 512 };
    let ldap_queries = if quick { 64 } else { 512 };
    let privado_images = 1;
    let merkle_blocks = if quick { 2 } else { 8 };
    let merkle_threads = 6;

    let emit_figure = |section: &str, fig: &Figure| {
        println!("{}", fig.render());
        emit(&fig.figure_json(section, quick));
    };

    if want("fig5") {
        emit_figure("fig5", &fig5_spec(spec_scale));
    }
    if want("fig6") {
        emit_figure("fig6", &fig6_nginx(nginx_requests, nginx_sizes));
    }
    if want("ldap") {
        emit_figure("ldap", &ldap_table(ldap_entries, ldap_queries));
    }
    if want("fig7") {
        emit_figure("fig7", &fig7_privado(privado_images));
    }
    if want("fig8") {
        emit_figure("fig8", &fig8_merkle(merkle_blocks, 1024, merkle_threads));
    }
    if want("vuln") {
        let rows = vuln_rows();
        println!("{}", vuln_table_for(&rows));
        emit(&vuln_json(&rows, quick));
    }
    if want("porting") {
        println!("{}", porting_table());
    }
    if want("ablation_passes") {
        let rows = ablation_passes_rows(spec_scale);
        println!("{}", ablation_passes_table_for(&rows));
        emit(&ablation_passes_json(&rows, quick));
    }
    if want("server_throughput") {
        let rows = server_throughput_rows(quick);
        println!("{}", server_throughput_table_for(&rows));
        emit(&server_throughput_json(&rows, quick));
    }
    if want("verify_scale") {
        let report = verify_scale_report(quick);
        println!("{}", render_verify_scale(&report));
        emit(&verify_scale_json(&report));
    }
    if want("server_scale") {
        let report = server_scale_report(quick);
        println!("{}", render_server_scale(&report));
        emit(&server_scale_json(&report));
        if let Some(out) = &series_path {
            wrote_or_exit(out, std::fs::write(out, &report.metrics_series));
        }
    }
    if want("interp_speed") {
        let report = interp_speed_report(quick);
        println!("{}", render_interp_speed(&report));
        emit(&interp_speed_json(&report));
    }
    if want("profile") {
        let report = profile_report(quick);
        println!("{}", render_profile(&report));
        emit(&profile_json(&report));
        if let Some(out) = &folded_path {
            wrote_or_exit(out, std::fs::write(out, &report.folded));
        }
    }
    if global_profile {
        let prof = confllvm_obs::profiler();
        prof.set_enabled(false);
        let profile = prof.take();
        let out = folded_path
            .as_deref()
            .expect("global_profile implies a path");
        wrote_or_exit(out, std::fs::write(out, profile.folded()));
        println!(
            "   ({} samples over {} stacks)",
            profile.total_samples(),
            profile.samples.len()
        );
    }

    if recording {
        let rec = confllvm_obs::recorder();
        rec.set_enabled(false);
        let snap = rec.snapshot();
        print!("{}", confllvm_obs::summary_table(&snap));
        if let Some(path) = &trace_path {
            wrote_or_exit(
                path,
                std::fs::write(path, confllvm_obs::chrome_trace_json(&snap)),
            );
        }
        if let Some(path) = &metrics_path {
            wrote_or_exit(
                path,
                std::fs::write(path, confllvm_obs::metrics_json(&snap)),
            );
        }
    }
}
