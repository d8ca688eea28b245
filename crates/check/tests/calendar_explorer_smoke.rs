//! Explorer smoke test for the default event queue (the radix heap
//! behind `QueueKind::Calendar`, which keeps the name of the calendar
//! queue it replaced): the existing deep dOPT convergence check
//! explores the *identical* schedule space whether the simulator runs
//! on the default queue or the pre-refactor `BTreeMap` queue — same
//! `ExploreStats`, same run/event counts, and byte-identical schedules
//! (the executed `seq` stream of every run).
//!
//! This is the contract that keeps every recorded `seed:choices`
//! counterexample in the repo replayable across the queue swap.

use std::cell::RefCell;
use std::rc::Rc;

use odp_check::explore::{Budget, Explorer, Invariant, Report};
use odp_check::invariants::replication::{
    dopt_deep_sim_on, dopt_sim_on, dopt_sites, fingerprint_for, Converged,
};
use odp_concurrency::dopt::RemoteOp;
use odp_sim::prelude::*;

/// Wraps [`Converged`] and additionally records, per explored run, the
/// sequence numbers of every executed event — a byte-exact transcript
/// of the schedule the explorer drove.
struct ScheduleRecorder {
    inner: Converged,
    current: Vec<u64>,
    runs: Rc<RefCell<Vec<Vec<u64>>>>,
}

impl ScheduleRecorder {
    fn new(sites: Vec<NodeId>, runs: Rc<RefCell<Vec<Vec<u64>>>>) -> Self {
        ScheduleRecorder {
            inner: Converged::new(sites),
            current: Vec::new(),
            runs,
        }
    }
}

impl Invariant<RemoteOp> for ScheduleRecorder {
    fn name(&self) -> &'static str {
        "schedule-recorder"
    }

    fn check_step(&mut self, sim: &Sim<RemoteOp>) -> Result<(), String> {
        self.current
            .extend(sim.last_executed().iter().map(|e| e.desc.seq()));
        self.inner.check_step(sim)
    }

    fn check_quiescent(&mut self, sim: &Sim<RemoteOp>) -> Result<(), String> {
        self.runs
            .borrow_mut()
            .push(std::mem::take(&mut self.current));
        self.inner.check_quiescent(sim)
    }
}

fn explore_deep_on(queue: QueueKind) -> (Report, Vec<Vec<u64>>) {
    let runs = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&runs);
    let ex = Explorer::new(11, Budget::deep());
    let report = ex.explore_hashed(
        move |seed| dopt_deep_sim_on(seed, queue),
        move || {
            vec![
                Box::new(ScheduleRecorder::new(dopt_sites(2), Rc::clone(&sink)))
                    as Box<dyn Invariant<RemoteOp>>,
            ]
        },
        fingerprint_for(dopt_sites(2)),
    );
    let schedules = runs.borrow().clone();
    (report, schedules)
}

fn assert_reports_match(cal: &Report, leg: &Report) {
    assert_eq!(cal.runs, leg.runs, "run counts diverged");
    assert_eq!(cal.events, leg.events, "event counts diverged");
    assert_eq!(cal.complete, leg.complete);
    assert_eq!(
        cal.violation.is_none(),
        leg.violation.is_none(),
        "one queue found a violation the other did not"
    );
    assert_eq!(cal.stats.naive_bound, leg.stats.naive_bound);
    assert_eq!(cal.stats.sleep_pruned, leg.stats.sleep_pruned);
    assert_eq!(cal.stats.hash_pruned, leg.stats.hash_pruned);
    assert_eq!(cal.stats.racing_pairs, leg.stats.racing_pairs);
    assert_eq!(
        cal.stats.reduction_factor.to_bits(),
        leg.stats.reduction_factor.to_bits()
    );
}

/// The headline check: the deep dOPT exploration (DPOR + state
/// hashing, depth-10 budget) is schedule-for-schedule identical on
/// both queue implementations.
#[test]
fn deep_dopt_exploration_is_identical_on_both_queues() {
    let (cal_report, cal_runs) = explore_deep_on(QueueKind::Calendar);
    let (leg_report, leg_runs) = explore_deep_on(QueueKind::Legacy);
    assert!(
        cal_report.violation.is_none(),
        "two-site dOPT must converge: {:?}",
        cal_report.violation
    );
    assert_reports_match(&cal_report, &leg_report);
    assert_eq!(cal_runs.len(), leg_runs.len(), "schedule counts diverged");
    for (i, (a, b)) in cal_runs.iter().zip(&leg_runs).enumerate() {
        assert_eq!(a, b, "schedule #{i} diverged between queues");
    }
}

/// The three-site dOPT-puzzle scenario finds the same divergence
/// counterexample (same seed, same choice trace) on both queues.
#[test]
fn dopt_puzzle_counterexample_is_identical_on_both_queues() {
    let run = |queue: QueueKind| {
        Explorer::new(7, Budget::default()).explore(
            move |seed| dopt_sim_on(seed, 3, queue),
            || vec![Box::new(Converged::new(dopt_sites(3))) as Box<dyn Invariant<RemoteOp>>],
        )
    };
    let cal = run(QueueKind::Calendar);
    let leg = run(QueueKind::Legacy);
    assert_reports_match(&cal, &leg);
    let cx_cal = cal.violation.expect("dOPT puzzle must surface");
    let cx_leg = leg.violation.expect("dOPT puzzle must surface");
    assert_eq!(cx_cal.trace(), cx_leg.trace(), "counterexamples diverged");
    assert_eq!(cx_cal.violation, cx_leg.violation);
}
