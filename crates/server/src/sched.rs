//! The deterministic, backpressured virtual-time scheduler.
//!
//! [`run_virtual`] is the one dispatch loop of the serving runtime: both
//! `Server::serve` (a closed-loop plan per host thread) and
//! `Server::serve_scaled` (a caller's plan) run their requests through it.
//! Arrivals (from
//! [`RequestGen::arrival_plan`](crate::reqgen::RequestGen::arrival_plan), or
//! every request at cycle 0 for the closed loop) are admitted in fixed
//! windows into a bounded queue; overflow is either **shed** (counted,
//! dropped) or **deferred** (retried next window, its wait charged to
//! latency); a fixed set of model workers drains the queue in
//! earliest-deadline-first order, ties broken by arrival sequence number.
//! Everything is integer arithmetic over simulated cycles with total-order
//! tie-breaks, so queue depths, shed counts and the p99.9 latency tail are
//! byte-stable across hosts — the same rule the rest of the workspace
//! applies to cycle counts.
//!
//! Virtual time is sound here because every request is served from a
//! snapshot-reset instance: its simulated cost does not depend on when the
//! scheduler runs it, only on *which* (session, request) it is.  The
//! executor callback returns that cost and the loop does the bookkeeping.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use confllvm_obs::{WindowSeries, WindowStat};

/// What to do with an arrival that finds the admission queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Drop it and count it — the client sees an `Overloaded` outcome.
    Shed,
    /// Retry it at the next admission window; the extra wait is charged to
    /// its latency.
    Defer,
}

/// Tuning for the virtual-time run loop.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Modelled worker count (virtual — independent of host threads).
    pub model_workers: usize,
    /// Bound on the admission queue; arrivals past it hit `backpressure`.
    pub queue_capacity: usize,
    pub backpressure: Backpressure,
    /// Service-level objective: an arrival's deadline is its arrival time
    /// plus this, and dispatch order is earliest-deadline-first.
    pub slo_cycles: u64,
    /// Admission window width in simulated cycles.
    pub window_cycles: u64,
    /// Under [`Backpressure::Defer`], how many deferral events one arrival
    /// may accumulate before it is shed instead of retried (counted as
    /// `server.defer_aged_shed`).  An unbounded deferred set would otherwise
    /// retry a sustained overload forever, each retry long past its SLO.
    /// `u64::MAX` disables aging.
    pub defer_age_windows: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            model_workers: 4,
            queue_capacity: 64,
            backpressure: Backpressure::Shed,
            slo_cycles: 200_000,
            window_cycles: 50_000,
            defer_age_windows: u64::MAX,
        }
    }
}

/// What one executed request cost, as reported by the executor callback.
/// Plain `u64` cycle costs convert (`cycles` only), so simple callers and
/// tests can keep returning a number; the serving layer also reports the
/// request's copy-on-write faults so the per-window telemetry can carry
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCost {
    /// Simulated cycles occupying the worker (service + restore).
    pub cycles: u64,
    /// Copy-on-write faults the request took.
    pub cow_faults: u64,
}

impl From<u64> for ExecCost {
    fn from(cycles: u64) -> Self {
        ExecCost {
            cycles,
            cow_faults: 0,
        }
    }
}

/// One request arriving at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in simulated cycles.
    pub vtime: u64,
    /// Index into the serve call's session list.
    pub session: usize,
    /// Index into that session's request list.
    pub request: usize,
}

/// A generated arrival schedule (see
/// [`RequestGen::arrival_plan`](crate::reqgen::RequestGen::arrival_plan)).
#[derive(Debug, Clone, Default)]
pub struct ArrivalPlan {
    /// Arrivals in non-decreasing `vtime` order.
    pub arrivals: Vec<Arrival>,
}

impl ArrivalPlan {
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// How many requests each of `sessions` sessions receives — the shape
    /// the serve call needs to build matching `SessionSpec`s.
    pub fn per_session_counts(&self, sessions: usize) -> Vec<usize> {
        let mut counts = vec![0usize; sessions];
        for a in &self.arrivals {
            counts[a.session] += 1;
        }
        counts
    }
}

/// One executed request's accounting.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub session: usize,
    pub request: usize,
    /// Completion minus arrival — queue wait (admission + dispatch delay)
    /// plus service time, in simulated cycles.
    pub latency_cycles: u64,
}

/// What the virtual-time run loop measured.
#[derive(Debug, Clone, Default)]
pub struct SchedResult {
    /// Requests actually executed (arrivals minus shed).
    pub executed: u64,
    /// Arrivals dropped — by [`Backpressure::Shed`] at admission, or by
    /// deferral aging (also counted separately in `defer_aged_shed`).
    pub shed: u64,
    /// Deferral events under [`Backpressure::Defer`] (one arrival can defer
    /// across several windows and count several times).
    pub deferred: u64,
    /// Deferred arrivals shed because they aged past
    /// [`SchedulerConfig::defer_age_windows`] deferral events.
    pub defer_aged_shed: u64,
    /// Admission windows the loop ran.
    pub windows: u64,
    /// Queue depth sampled once per window, after admission.
    pub queue_depth_samples: Vec<u64>,
    pub completions: Vec<Completion>,
    /// Latest completion time in simulated cycles.
    pub makespan_cycles: u64,
    /// Per-window telemetry: one [`WindowStat`] per admission window in a
    /// bounded ring (long overload runs drop the oldest windows, counted).
    pub series: WindowSeries,
}

impl SchedResult {
    /// Nearest-rank latency percentile at per-mille resolution (999 =
    /// p99.9) over the executed requests.
    pub fn latency_percentile_milli(&self, per_mille: u32) -> u64 {
        let lat: Vec<u64> = self.completions.iter().map(|c| c.latency_cycles).collect();
        confllvm_obs::exact_percentile_milli(&lat, per_mille)
    }

    pub fn max_queue_depth(&self) -> u64 {
        self.queue_depth_samples.iter().copied().max().unwrap_or(0)
    }

    pub fn mean_queue_depth(&self) -> f64 {
        if self.queue_depth_samples.is_empty() {
            return 0.0;
        }
        self.queue_depth_samples.iter().sum::<u64>() as f64 / self.queue_depth_samples.len() as f64
    }
}

/// Queue entry, ordered so that `BinaryHeap<Reverse<QueueItem>>` pops
/// earliest-deadline-first with the arrival sequence number as a total-order
/// tie-break (determinism requires no partial orders anywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueueItem {
    deadline: u64,
    seq: usize,
    vtime: u64,
    session: usize,
    request: usize,
}

/// Run `plan` through the windowed, backpressured virtual-time loop.
/// `execute(session, request)` must perform the request and return its
/// simulated cost (service + restore — everything that occupies a worker),
/// either as plain cycles (`u64`) or as an [`ExecCost`] when it also has
/// per-request CoW faults to report.
///
/// Besides the run totals, every admission window aggregates one
/// [`WindowStat`] into `SchedResult::series`: arrivals, admissions,
/// sheds/defers, queue depth, this window's p99/p99.9 completion latency,
/// CoW faults, and the good/bad split (a request is *bad* if it was shed,
/// aged out, or completed past `slo_cycles`) the SLO burn-rate monitor
/// consumes.
pub fn run_virtual<F, C>(cfg: &SchedulerConfig, plan: &ArrivalPlan, mut execute: F) -> SchedResult
where
    F: FnMut(usize, usize) -> C,
    C: Into<ExecCost>,
{
    let rec = confllvm_obs::recorder();
    let window = cfg.window_cycles.max(1);
    let capacity = cfg.queue_capacity.max(1);
    let mut workers = vec![0u64; cfg.model_workers.max(1)];
    let mut queue: BinaryHeap<Reverse<QueueItem>> = BinaryHeap::new();
    // Each deferred item carries how many deferral events it has seen, for
    // the aging bound.
    let mut deferred: VecDeque<(QueueItem, u64)> = VecDeque::new();
    let mut result = SchedResult::default();
    // This window's completion latencies, for the per-window percentiles
    // (cleared every window; the buffer is reused).
    let mut window_lat: Vec<u64> = Vec::new();

    // Arrivals are admitted in plan order; the seq doubles as the EDF
    // tie-break.
    let mut next = 0usize;
    let mut window_start = plan
        .arrivals
        .first()
        .map_or(0, |a| a.vtime / window * window);

    while next < plan.arrivals.len() || !deferred.is_empty() || !queue.is_empty() {
        let window_end = window_start + window;
        let mut wstat = WindowStat {
            index: result.windows,
            start_cycle: window_start,
            ..WindowStat::default()
        };

        // Admit: deferred retries first (they arrived earliest), then new
        // arrivals landing inside this window.
        let mut retries = std::mem::take(&mut deferred);
        while let Some((item, defers)) = retries.pop_front() {
            if queue.len() < capacity {
                queue.push(Reverse(item));
                wstat.admitted += 1;
            } else if defers >= cfg.defer_age_windows {
                // Aged out: sustained overload has deferred this arrival
                // past the bound — shed it instead of retrying forever.
                result.shed += 1;
                result.defer_aged_shed += 1;
                wstat.shed += 1;
                wstat.bad += 1;
                rec.count("server.defer_aged_shed", 1);
            } else {
                result.deferred += 1;
                wstat.deferred += 1;
                deferred.push_back((item, defers + 1));
            }
        }
        while next < plan.arrivals.len() && plan.arrivals[next].vtime < window_end {
            let a = plan.arrivals[next];
            let item = QueueItem {
                deadline: a.vtime + cfg.slo_cycles,
                seq: next,
                vtime: a.vtime,
                session: a.session,
                request: a.request,
            };
            next += 1;
            wstat.arrivals += 1;
            if queue.len() < capacity {
                queue.push(Reverse(item));
                wstat.admitted += 1;
            } else {
                match cfg.backpressure {
                    Backpressure::Shed => {
                        result.shed += 1;
                        wstat.shed += 1;
                        wstat.bad += 1;
                        rec.count("server.shed", 1);
                    }
                    Backpressure::Defer => {
                        result.deferred += 1;
                        wstat.deferred += 1;
                        deferred.push_back((item, 1));
                    }
                }
            }
        }
        result.windows += 1;
        let depth = queue.len() as u64;
        result.queue_depth_samples.push(depth);
        wstat.queue_depth = depth;

        // Dispatch: any worker whose clock is inside the window picks the
        // most urgent queued request; service may run past the window edge
        // (that worker just starts late next window).
        window_lat.clear();
        while let Some((widx, &vclock)) = workers
            .iter()
            .enumerate()
            .filter(|(_, &v)| v < window_end)
            .min_by_key(|(i, &v)| (v, *i))
        {
            let Some(Reverse(item)) = queue.pop() else {
                break;
            };
            let start = vclock.max(item.vtime);
            let cost: ExecCost = execute(item.session, item.request).into();
            let done = start + cost.cycles;
            workers[widx] = done;
            result.executed += 1;
            result.makespan_cycles = result.makespan_cycles.max(done);
            let latency_cycles = done - item.vtime;
            result.completions.push(Completion {
                session: item.session,
                request: item.request,
                latency_cycles,
            });
            wstat.executed += 1;
            wstat.cow_faults += cost.cow_faults;
            window_lat.push(latency_cycles);
            if latency_cycles <= cfg.slo_cycles {
                wstat.good += 1;
            } else {
                wstat.bad += 1;
            }
        }
        wstat.p99_cycles = confllvm_obs::exact_percentile_milli(&window_lat, 990);
        wstat.p999_cycles = confllvm_obs::exact_percentile_milli(&window_lat, 999);
        result.series.push(wstat);

        window_start = window_end;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(arrivals: &[(u64, usize, usize)]) -> ArrivalPlan {
        ArrivalPlan {
            arrivals: arrivals
                .iter()
                .map(|&(vtime, session, request)| Arrival {
                    vtime,
                    session,
                    request,
                })
                .collect(),
        }
    }

    #[test]
    fn uncontended_arrivals_all_execute_with_service_only_latency() {
        let cfg = SchedulerConfig {
            model_workers: 2,
            queue_capacity: 8,
            window_cycles: 100,
            slo_cycles: 1000,
            backpressure: Backpressure::Shed,
            defer_age_windows: u64::MAX,
        };
        let p = plan(&[(0, 0, 0), (10, 1, 0), (250, 0, 1)]);
        let r = run_virtual(&cfg, &p, |_, _| 40u64);
        assert_eq!(r.executed, 3);
        assert_eq!(r.shed, 0);
        // Two workers, two simultaneous-ish arrivals: both run immediately.
        assert_eq!(r.completions[0].latency_cycles, 40);
        assert_eq!(r.completions[1].latency_cycles, 40);
        assert_eq!(r.completions[2].latency_cycles, 40);
        assert_eq!(r.makespan_cycles, 290);
    }

    #[test]
    fn queue_overflow_sheds_exactly_the_overflow() {
        let cfg = SchedulerConfig {
            model_workers: 1,
            queue_capacity: 2,
            window_cycles: 100,
            slo_cycles: 100,
            backpressure: Backpressure::Shed,
            defer_age_windows: u64::MAX,
        };
        // Five arrivals in one window; the single worker drains the queue
        // during the window, so admission sees the capacity bound only for
        // what piles up before dispatch: 2 admitted, 3 shed.
        let p = plan(&[(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3), (4, 0, 4)]);
        let r = run_virtual(&cfg, &p, |_, _| 1000u64);
        assert_eq!(r.executed + r.shed, 5);
        assert_eq!(r.shed, 3);
        assert_eq!(r.max_queue_depth(), 2);
    }

    #[test]
    fn defer_retries_until_capacity_frees_and_charges_the_wait() {
        let cfg = SchedulerConfig {
            model_workers: 1,
            queue_capacity: 1,
            window_cycles: 100,
            slo_cycles: 100,
            backpressure: Backpressure::Defer,
            defer_age_windows: u64::MAX,
        };
        let p = plan(&[(0, 0, 0), (1, 0, 1), (2, 0, 2)]);
        let r = run_virtual(&cfg, &p, |_, _| 50u64);
        assert_eq!(r.executed, 3, "defer never drops work");
        assert_eq!(r.shed, 0);
        assert!(
            r.deferred >= 2,
            "overflow must have deferred: {}",
            r.deferred
        );
        // The last request waited at least one full window beyond arrival.
        let worst = r
            .completions
            .iter()
            .map(|c| c.latency_cycles)
            .max()
            .unwrap();
        assert!(worst > cfg.window_cycles, "worst latency {worst}");
    }

    #[test]
    fn over_age_deferrals_are_shed_and_counted() {
        let cfg = SchedulerConfig {
            model_workers: 1,
            queue_capacity: 1,
            window_cycles: 100,
            slo_cycles: 100,
            backpressure: Backpressure::Defer,
            defer_age_windows: 2,
        };
        // The single worker wedges on a 100k-cycle request, so the queue
        // stays full for ~1000 windows — far past the 2-deferral age bound.
        let p = plan(&[(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3)]);
        let r = run_virtual(&cfg, &p, |_, _| 100_000u64);
        assert_eq!(r.executed + r.shed, 4, "no arrival may vanish");
        // Window 0 admits item 0; items 1-3 defer.  The queue drains once per
        // window, so window 1 re-admits item 1 while items 2 and 3 defer a
        // second time and age out at window 2.
        assert_eq!(r.executed, 2);
        assert_eq!(r.defer_aged_shed, 2, "aged deferrals must be shed: {r:?}");
        assert_eq!(r.defer_aged_shed, r.shed, "all sheds here come from aging");
        assert_eq!(r.deferred, 5);
    }

    #[test]
    fn dispatch_is_earliest_deadline_first() {
        let cfg = SchedulerConfig {
            model_workers: 1,
            queue_capacity: 8,
            window_cycles: 1000,
            slo_cycles: 10,
            backpressure: Backpressure::Shed,
            defer_age_windows: u64::MAX,
        };
        // Both in the same window; the later arrival has the earlier
        // deadline? No — deadline = vtime + slo, so arrival order == EDF
        // order here.  Instead give the later arrival an earlier vtime via
        // plan order: arrivals are admitted by plan order, dispatch must
        // re-order by deadline.
        let p = plan(&[(500, 1, 0), (100, 0, 0)]);
        let r = run_virtual(&cfg, &p, |_, _| 7u64);
        assert_eq!(r.executed, 2);
        // Session 0 (deadline 110) must run before session 1 (deadline 510).
        assert_eq!(r.completions[0].session, 0);
        assert_eq!(r.completions[1].session, 1);
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = SchedulerConfig::default();
        let p = plan(&[(0, 0, 0), (100, 1, 0), (100, 2, 0), (40_000, 0, 1)]);
        let a = run_virtual(&cfg, &p, |s, r| 100 + (s as u64) * 7 + (r as u64));
        let b = run_virtual(&cfg, &p, |s, r| 100 + (s as u64) * 7 + (r as u64));
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.queue_depth_samples, b.queue_depth_samples);
        assert_eq!(
            a.latency_percentile_milli(999),
            b.latency_percentile_milli(999)
        );
    }

    #[test]
    fn empty_plan_terminates_immediately() {
        let r = run_virtual(
            &SchedulerConfig::default(),
            &ArrivalPlan::default(),
            |_, _| 1u64,
        );
        assert_eq!(r.executed, 0);
        assert_eq!(r.windows, 0);
    }
}
