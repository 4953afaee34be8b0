//! The traced run: spans recorded around every public call the benchmark
//! makes, merged with the spans the program itself already emits, and
//! turned into per-layer self times.
//!
//! Benchmark spans go through the process-wide `confllvm_obs` recorder in
//! category `bench`, so they share one clock with the program's own spans
//! (`verify.binary`, `vm.run`, `vm.fork`, ...).  Each carries the
//! benchmark's own operation id (`op`); the parent of a span is the span
//! that encloses it on the same thread.  Program spans are never matched by
//! the registry's `VersionId` — ids restart at 1 in every fresh `Registry`
//! and the recorder is process-global — only by time containment under a
//! benchmark span.
//!
//! After every traced round the recorder is drained (snapshot + clear), so
//! the per-thread ring (65 536 events) only has to hold one round; a round
//! that dropped an event fails the run.
//!
//! Self time: a span's duration minus the part its children cover.  Across
//! threads, each instant of wall time is split evenly between the
//! innermost spans open on the worker threads; when no worker-thread span
//! is open the instant belongs to the innermost span open on the main
//! thread.  The root span of each round is the benchmark's own loop, whose
//! self time is the unattributed remainder.  By construction the per-label
//! self times sum to the rounds' wall time.

use std::collections::BTreeMap;

use confllvm_obs::{recorder, AttrValue, Event, EventKind, Span, TraceSnapshot};

/// Every attribution label, in report order.  The last one collects the
/// benchmark's own time (the round and operation wrappers).
pub const LABELS: &[&str] = &[
    "minic.parse",
    "minic.sema",
    "ir.lower",
    "ir.passes",
    "ir.taint",
    "codegen",
    "server.submit",
    "verifier.binary",
    "verifier.proc",
    "server.promote",
    "machine.encode",
    "vm.load",
    "vm.translate",
    "vm.run",
    "vm.restore",
    "vm.fork",
    "vm.snapshot",
    "server.fork",
    "server.template",
    "server.scale",
    "bench.check",
    "unattributed",
];

const UNATTRIBUTED: usize = LABELS.len() - 1;

/// Name of the root span wrapping one round of a workload.
pub const ROUND: &str = "round";
/// Name of the span wrapping one benchmark operation.
pub const OP: &str = "op";

/// Open a benchmark span tagged with operation id `op` (inert, and
/// free, while the recorder is off).
pub fn span(name: &'static str, op: u64) -> Span<'static> {
    let mut s = recorder().span("bench", name);
    if s.active() {
        s.attr("op", op);
    }
    s
}

/// Open the span of operation `op`, tagged with the program and the
/// configuration it runs, so the trace file can be grouped by either.
pub fn op_span(op: u64, program: &'static str, config: &'static str) -> Span<'static> {
    let mut s = span(OP, op);
    if s.active() {
        s.attr("program", program);
        s.attr("config", config);
    }
    s
}

fn label_index(name: &str) -> Option<usize> {
    LABELS.iter().position(|l| *l == name)
}

/// The label a program-emitted span is charged to; `None` inherits the
/// enclosing span's label (IR and machine pass spans, for example, are
/// charged to the benchmark stage that ran the pass manager).
fn program_label(name: &str) -> Option<usize> {
    let label = match name {
        "codegen.module" => "codegen",
        "verify.binary" | "verify.fleet_task" => "verifier.binary",
        "verify.proc" => "verifier.proc",
        other => other,
    };
    label_index(label)
}

fn attr_text(e: &Event, key: &str) -> Option<&'static str> {
    e.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            AttrValue::Text(t) => Some(*t),
            _ => None,
        })
}

fn attr_u64(e: &Event, key: &str) -> u64 {
    e.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |(_, v)| match v {
            AttrValue::U64(x) => *x,
            AttrValue::I64(x) => (*x).max(0) as u64,
            _ => 0,
        })
}

/// One benchmark span as written to the trace file.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `program` and `config` tags of an operation span.
    pub program: Option<&'static str>,
    pub config: Option<&'static str>,
}

/// Per-layer totals over every traced round.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self time per [`LABELS`] entry, nanoseconds.
    pub self_ns: Vec<f64>,
    /// Wall time of the traced rounds (sum of root spans), nanoseconds.
    pub total_ns: u64,
    pub rounds: u64,
    pub events: u64,
    /// The program's counters, summed over traced rounds.
    pub counters: BTreeMap<&'static str, u64>,
    /// Occurrences of each span name.
    pub span_counts: BTreeMap<&'static str, u64>,
    /// Sums of selected span attributes, keyed `span.attr`.
    pub attr_sums: BTreeMap<String, u64>,
    /// Per benchmark operation: self time per label, nanoseconds.
    pub per_op: BTreeMap<u64, Vec<f64>>,
    pub spans: Vec<SpanRecord>,
    next_id: u64,
}

struct Node<'a> {
    ev: &'a Event,
    end: u64,
    label: usize,
    op: u64,
    id: u64,
    children: Vec<usize>,
}

struct Segment {
    start: u64,
    end: u64,
    label: usize,
    op: u64,
    worker: bool,
}

/// Attribute sums the per-layer metrics read from program spans.
const SUMMED_ATTRS: &[(&str, &str)] = &[
    ("vm.run", "instructions"),
    ("vm.run", "bound_checks"),
    ("vm.run", "extern_calls"),
    ("vm.restore", "dirty_pages"),
];

impl Attribution {
    pub fn new() -> Self {
        Attribution {
            self_ns: vec![0.0; LABELS.len()],
            ..Default::default()
        }
    }

    /// Fold one drained round into the totals.  Fails if the recorder
    /// dropped an event or the round has no root span.
    pub fn absorb(&mut self, snap: &TraceSnapshot) -> Result<(), String> {
        if snap.dropped() > 0 {
            return Err(format!(
                "the recorder dropped {} event(s) in one round",
                snap.dropped()
            ));
        }
        for (name, v) in &snap.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        let mut segments = Vec::new();
        let mut root_ns = None;
        for thread in &snap.threads {
            self.events += thread.events.len() as u64;
            let mut order: Vec<usize> = (0..thread.events.len())
                .filter(|&i| thread.events[i].kind == EventKind::Complete)
                .collect();
            // Parents first: earlier start, then longer, then recorded
            // later (a child is recorded before its parent).
            order.sort_by(|&a, &b| {
                let (ea, eb) = (&thread.events[a], &thread.events[b]);
                ea.start_nanos
                    .cmp(&eb.start_nanos)
                    .then(eb.dur_nanos.cmp(&ea.dur_nanos))
                    .then(b.cmp(&a))
            });
            let nodes = self.build_tree(order.iter().map(|&i| &thread.events[i]));
            let worker = !nodes
                .iter()
                .any(|n| n.ev.cat == "bench" && n.ev.name == ROUND);
            if !worker {
                for n in nodes.iter().filter(|n| n.ev.name == ROUND) {
                    *root_ns.get_or_insert(0) += n.ev.dur_nanos;
                }
            }
            for node in &nodes {
                let mut cursor = node.ev.start_nanos;
                for &c in &node.children {
                    let child = &nodes[c];
                    if child.ev.start_nanos > cursor {
                        segments.push(Segment {
                            start: cursor,
                            end: child.ev.start_nanos,
                            label: node.label,
                            op: node.op,
                            worker,
                        });
                    }
                    cursor = cursor.max(child.end);
                }
                if node.end > cursor {
                    segments.push(Segment {
                        start: cursor,
                        end: node.end,
                        label: node.label,
                        op: node.op,
                        worker,
                    });
                }
            }
        }
        let Some(root_ns) = root_ns else {
            return Err("a traced round recorded no root span".to_string());
        };
        self.total_ns += root_ns;
        self.rounds += 1;
        self.sweep(&segments);
        Ok(())
    }

    fn build_tree<'a>(&mut self, events: impl Iterator<Item = &'a Event>) -> Vec<Node<'a>> {
        let mut nodes: Vec<Node<'a>> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for ev in events {
            let end = ev.start_nanos + ev.dur_nanos;
            while let Some(&top) = stack.last() {
                if nodes[top].end >= end && nodes[top].ev.start_nanos <= ev.start_nanos {
                    break;
                }
                stack.pop();
            }
            let parent = stack.last().copied();
            let (parent_label, parent_op) =
                parent.map_or((UNATTRIBUTED, 0), |p| (nodes[p].label, nodes[p].op));
            let (label, op, id) = if ev.cat == "bench" {
                self.next_id += 1;
                let label = if ev.name == ROUND || ev.name == OP {
                    UNATTRIBUTED
                } else {
                    label_index(ev.name).unwrap_or(UNATTRIBUTED)
                };
                (label, attr_u64(ev, "op"), self.next_id)
            } else {
                (program_label(ev.name).unwrap_or(parent_label), parent_op, 0)
            };
            if id != 0 {
                let parent_id = stack
                    .iter()
                    .rev()
                    .map(|&i| nodes[i].id)
                    .find(|&i| i != 0)
                    .unwrap_or(0);
                self.spans.push(SpanRecord {
                    id,
                    parent: parent_id,
                    op,
                    name: ev.name,
                    start_ns: ev.start_nanos,
                    end_ns: end,
                    program: attr_text(ev, "program"),
                    config: attr_text(ev, "config"),
                });
            }
            *self.span_counts.entry(ev.name).or_insert(0) += 1;
            for (span_name, key) in SUMMED_ATTRS {
                if ev.name == *span_name {
                    *self
                        .attr_sums
                        .entry(format!("{span_name}.{key}"))
                        .or_insert(0) += attr_u64(ev, key);
                }
            }
            if ev.name == "vm.run" {
                *self.attr_sums.entry("vm.run.cycles".into()).or_insert(0) += ev.cycles;
            }
            let index = nodes.len();
            if let Some(p) = parent {
                nodes[p].children.push(index);
            }
            nodes.push(Node {
                ev,
                end,
                label,
                op,
                id,
                children: Vec::new(),
            });
            stack.push(index);
        }
        nodes
    }

    /// Split wall time between the open segments (see the module docs).
    fn sweep(&mut self, segments: &[Segment]) {
        let mut points: Vec<(u64, bool, usize)> = Vec::with_capacity(segments.len() * 2);
        for (i, s) in segments.iter().enumerate() {
            points.push((s.start, true, i));
            points.push((s.end, false, i));
        }
        // Ends before starts at the same instant.
        points.sort_by_key(|&(t, is_start, _)| (t, is_start));
        let mut workers: Vec<usize> = Vec::new();
        let mut main: Option<usize> = None;
        let mut prev = points.first().map_or(0, |p| p.0);
        for (t, is_start, i) in points {
            if t > prev {
                let d = (t - prev) as f64;
                // Worker-thread spans carry no operation id of their own:
                // they belong to the operation open on the main thread.
                let main_op = main.map_or(0, |m| segments[m].op);
                if !workers.is_empty() {
                    let share = d / workers.len() as f64;
                    for &w in &workers {
                        let seg = &segments[w];
                        let op = if seg.op == 0 { main_op } else { seg.op };
                        self.charge(seg.label, op, share);
                    }
                } else if let Some(m) = main {
                    self.charge(segments[m].label, main_op, d);
                }
                prev = t;
            }
            let seg = &segments[i];
            match (seg.worker, is_start) {
                (true, true) => workers.push(i),
                (true, false) => workers.retain(|&w| w != i),
                (false, true) => main = Some(i),
                (false, false) => {
                    if main == Some(i) {
                        main = None;
                    }
                }
            }
        }
    }

    fn charge(&mut self, label: usize, op: u64, ns: f64) {
        self.self_ns[label] += ns;
        if op != 0 {
            self.per_op
                .entry(op)
                .or_insert_with(|| vec![0.0; LABELS.len()])[label] += ns;
        }
    }

    /// `|sum of self times - traced wall time|`, nanoseconds.
    pub fn identity_error_ns(&self) -> f64 {
        (self.self_ns.iter().sum::<f64>() - self.total_ns as f64).abs()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn attr_sum(&self, key: &str) -> u64 {
        self.attr_sums.get(key).copied().unwrap_or(0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.span_counts.get(name).copied().unwrap_or(0)
    }

    /// The benchmark spans, per-operation attribution and per-label totals
    /// as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let mut tags = String::new();
            for (key, value) in [("program", s.program), ("config", s.config)] {
                if let Some(v) = value {
                    tags.push_str(&format!(",\"{key}\":\"{v}\""));
                }
            }
            out.push_str(&format!(
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}{tags}}}\n",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            ));
        }
        for (op, ns) in &self.per_op {
            out.push_str(&format!(
                "{{\"type\":\"op\",\"op\":{op},\"self_ns\":{}}}\n",
                label_map(ns)
            ));
        }
        out.push_str(&format!(
            "{{\"type\":\"total\",\"wall_ns\":{},\"self_ns\":{}}}\n",
            self.total_ns,
            label_map(&self.self_ns)
        ));
        out
    }
}

fn label_map(ns: &[f64]) -> String {
    let fields: Vec<String> = LABELS
        .iter()
        .zip(ns)
        .filter(|(_, v)| **v > 0.0)
        .map(|(l, v)| format!("\"{l}\":{v:.0}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}
