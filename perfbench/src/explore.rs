//! `explore_deep`: the `awareness-deep` model check under
//! `Budget::deep()` with the 2 s horizon — four racing publications
//! over causal multicast to three rights-gated replicas, capped at
//! 20,000 schedules, so the work per pass is fixed.
//!
//! Here odp-sim serves thousands of small sim builds and single
//! `step_nth` steps rather than bulk throughput; odp-check's DPOR core
//! and the stepping it drives take most of the time. An op is one
//! explored schedule. The seed is the scenario's sim seed, which sets
//! the network jitter and so the schedule space; pass `k` explores the
//! scenario under sub-seed `seed ^ (k << 32)`, and latencies are the
//! median over passes, so a run spans several jitter draws.
//!
//! `setup_s` is the mean time of the sim builds the explorer asks the
//! factory for, one per schedule, median over passes. Those builds are
//! spread across the whole pass, so the figure averages over the
//! host's speed swings the way `ops_per_s` does; a separate block of
//! builds (a few µs each, under a millisecond in all) catches the host
//! in one state and read either ~1.8 or ~3.3 µs from run to run.
//!
//! Output checks: the sound scenario yields no violation, and the
//! disarmed one (`gating_deep_sim(_, false)`) does.
//!
//! The traced run times the calls the explorer makes into the
//! scenario: the factory (`check.factory`), each invariant
//! (`check.invariant`) and the fingerprint (`check.fingerprint`),
//! through closures and an `Invariant` wrapper passed to
//! `Explorer::explore_hashed`; the rest of the exploration is
//! `check.explore`. A probe invariant (`check.probe`) records, per
//! schedule, the virtual time of the last message delivery.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use odp_awareness::dist::BusWire;
use odp_check::explore::{Budget, Explorer, Invariant, Report};
use odp_check::invariants::awareness::{fingerprint, gating_deep_sim, RightsGated};
use odp_groupcomm::multicast::GcMsg;
use odp_sim::sim::{PendingEvent, Sim};
use odp_sim::time::SimTime;

use crate::stats::{self, median, PassPercentiles, Stopwatch};
use crate::trace;
use crate::Outcome;

type Msg = GcMsg<BusWire>;

/// The scenario's first publication.
const FIRST_PUBLISH: SimTime = SimTime::from_millis(1);

fn budget() -> Budget {
    Budget::deep().with_horizon(SimTime::from_secs(2))
}

/// Times the wrapped invariant's checks as `check.invariant` spans.
struct TimedInvariant(Box<dyn Invariant<Msg>>);

impl Invariant<Msg> for TimedInvariant {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn check_step(&mut self, sim: &Sim<Msg>) -> Result<(), String> {
        trace::span("check.invariant", None, || self.0.check_step(sim))
    }

    fn check_quiescent(&mut self, sim: &Sim<Msg>) -> Result<(), String> {
        trace::span("check.invariant", None, || self.0.check_quiescent(sim))
    }
}

/// Records when the schedule's last message was delivered; never fails.
struct LatencyProbe {
    last_delivery: SimTime,
    out: Rc<RefCell<Vec<f64>>>,
}

impl Invariant<Msg> for LatencyProbe {
    fn name(&self) -> &'static str {
        "latency-probe"
    }

    fn check_step(&mut self, sim: &Sim<Msg>) -> Result<(), String> {
        trace::span("check.probe", None, || {
            if let Some(PendingEvent::Deliver { .. }) = sim.last_executed().map(|e| e.desc) {
                self.last_delivery = sim.now();
            }
        });
        Ok(())
    }

    fn check_quiescent(&mut self, _sim: &Sim<Msg>) -> Result<(), String> {
        let ms = self
            .last_delivery
            .saturating_since(FIRST_PUBLISH)
            .as_micros() as f64
            / 1e3;
        self.out.borrow_mut().push(ms);
        Ok(())
    }
}

/// One full exploration: the report, the wall time of each schedule,
/// the per-schedule delivery horizon, and the mean seconds per factory
/// build.
fn explore(seed: u64, gated: bool) -> (Report, Vec<f64>, Vec<f64>, f64) {
    let clock = Stopwatch::start();
    let starts = RefCell::new(Vec::with_capacity(budget().max_runs));
    let build_ns = Cell::new(0u64);
    let horizons = Rc::new(RefCell::new(Vec::with_capacity(budget().max_runs)));
    let report = trace::span("check.explore", None, || {
        Explorer::new(seed, budget()).explore_hashed(
            |s| {
                let start = clock.nanos();
                starts.borrow_mut().push(start);
                let sim = trace::span("check.factory", None, || gating_deep_sim(s, gated));
                build_ns.set(build_ns.get() + (clock.nanos() - start));
                sim
            },
            || -> Vec<Box<dyn Invariant<Msg>>> {
                vec![
                    Box::new(TimedInvariant(Box::new(RightsGated::for_gating_sim()))),
                    Box::new(LatencyProbe {
                        last_delivery: FIRST_PUBLISH,
                        out: Rc::clone(&horizons),
                    }),
                ]
            },
            |sim: &Sim<Msg>| trace::span("check.fingerprint", None, || fingerprint(sim)),
        )
    });
    let end = clock.nanos();
    let starts = starts.into_inner();
    let walls: Vec<f64> = starts
        .iter()
        .zip(starts.iter().skip(1).chain([&end]))
        .map(|(from, to)| (to - from) as f64 / 1e3)
        .collect();
    let horizons = horizons.borrow().clone();
    let build_s = build_ns.get() as f64 / 1e9 / starts.len().max(1) as f64;
    (report, walls, horizons, build_s)
}

pub fn run(seed: u64, budget_time: Duration, traced: bool) -> Outcome {
    let mut builds = Vec::new();
    let mut out = Outcome::default();
    let (mut rates, mut cpu_s) = (Vec::new(), 0.0);
    let mut walls = PassPercentiles::default();
    let mut horizons = PassPercentiles::default();
    let mut first: Option<Report> = None;
    let mut pass = 0u64;
    let iterations = stats::repeat_within(budget_time, || {
        trace::span("bench", None, || {
            let sub_seed = seed ^ (pass << 32);
            pass += 1;
            let (cpu0, start) = (stats::cpu_seconds(), Stopwatch::start());
            let (report, mut w, mut h, build_s) = explore(sub_seed, true);
            rates.push(report.runs as f64 / start.secs());
            cpu_s += stats::cpu_seconds() - cpu0;
            builds.push(build_s);
            if let Some(v) = &report.violation {
                out.problems.push(format!("sound scenario violated: {v}"));
                out.failed += 1;
            }
            out.attempted += report.runs as u64;
            out.events += report.events;
            walls.add(&mut w);
            horizons.add(&mut h);
            first.get_or_insert(report);
        });
    });

    // The detector must still detect: the disarmed fixture, outside the
    // measurement and the trace.
    let tracer = trace::uninstall();
    let (disarmed, _, _, _) = explore(seed, false);
    if let Some(t) = tracer {
        trace::install(t);
    }
    if disarmed.violation.is_none() {
        out.problems
            .push("disarmed scenario: no violation found".to_owned());
    }

    let ops = out.attempted as f64;
    out.iterations = iterations;
    out.e2e.setup_s = median(&mut builds);
    out.e2e.ops_per_s = median(&mut rates);
    (out.e2e.virt_latency_ms_p50, out.e2e.virt_latency_ms_p99) = horizons.medians();
    (out.e2e.latency_us_p50, out.e2e.latency_us_p99) = walls.medians();
    out.e2e.cpu_us_per_op = cpu_s * 1e6 / ops;
    // Counts come from the first pass (sub-seed = seed), so they repeat
    // exactly whatever the number of passes.
    if let (true, Some(r)) = (traced, first) {
        out.layers = vec![
            ("sim.events_per_op", r.events as f64 / r.runs.max(1) as f64),
            ("check.runs", r.runs as f64),
            ("check.sleep_pruned", r.stats.sleep_pruned as f64),
            ("check.hash_pruned", r.stats.hash_pruned as f64),
            ("check.racing_pairs", r.stats.racing_pairs as f64),
            (
                "check.disarmed_found",
                f64::from(u8::from(disarmed.violation.is_some())),
            ),
        ];
    }
    out
}
