//! The middleware's benchmark: one command, four workloads, every
//! end-to-end metric by name with its unit, and a separate traced run
//! that breaks the time down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campus_rush|shared_edit|explore_deep|tcp_awareness> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates the workload's inputs and the program receives
//! only those inputs. Each run measures for about `--seconds`,
//! repeating the workload's pass over its inputs (`shared_edit`, whose
//! known defect fails a few writes a pass, makes a pass count fixed by
//! `--seconds` so its failures repeat exactly), checks the outputs,
//! prints a table, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed output
//! check prints `"correct": false` and exits with code 1.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured
//! untraced. "Op" means one agenda slot (`campus_rush`), one read or
//! write (`shared_edit`), one explored schedule (`explore_deep`) or one
//! publish (`tcp_awareness`).
//!
//! - `setup_s`: median time to build the sims or the fleet (for
//!   `tcp_awareness` until the last peer-up; for `explore_deep` the
//!   mean of the explorer's own sim builds in a pass).
//! - `ops_per_s`: ops per second of measured wall time; for the sims,
//!   the median over passes of each pass's rate.
//! - `virt_latency_ms_p50`/`_p99` (no bound, see [`UNBOUNDED`]): op
//!   latency on the program's own
//!   clock. In the sims that is virtual time: submit to ack
//!   (`campus_rush`), write submit to applied at every replica
//!   (`shared_edit`), first publish to the last message delivered in
//!   each explored schedule (`explore_deep`). On TCP the program clock
//!   is the wall clock, and the span runs from the sender's publish
//!   handler to the receiver's delivery handler.
//! - `latency_us_p50`, and `latency_us_p99` (no bound): op latency in
//!   wall time: due time to
//!   delivery at the peer (`tcp_awareness`), wall time the simulator
//!   takes from submit to completion (`campus_rush`, `shared_edit`
//!   writes), wall time per schedule (`explore_deep`).
//! - `cpu_us_per_op`: process CPU time (user + system, every thread)
//!   per op over the measured window.
//! - `peak_rss_mb`: the process's peak resident memory (one process per
//!   run, so one workload per peak).
//! - `failed_ratio` (no bound): failed ops over attempted ops, the same
//!   count as the JSON's `failed`/`attempted`.
//!
//! With `--trace 1` the run first measures untraced for half the time
//! (the base of `trace_overhead`), then installs the span recorder and
//! the allocation counter for the other half and prints every
//! per-layer metric. Layers a workload does not load read 0. Span
//! files go to `perfbench/out/`.

mod campus;
mod explore;
mod shared_edit;
mod stats;
mod tcp;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// End-to-end metrics with their units, in `BENCHMARK.json` order:
/// the ones steady enough from run to run to carry a regression bound.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed beside those but carrying no bound, and
/// listed again with the traced run's per-layer metrics. Virtual-time
/// latency is fixed by the seed, not by how fast the code runs: a
/// change that moves it changed behaviour, which the repository's
/// differential suites judge. The p99s swing with the host's scheduling
/// on loopback TCP (0.2 to 20 ms between runs at one rate), and
/// `failed_ratio` is 0 on a healthy run, so neither has a relative
/// bound.
const UNBOUNDED: [(&str, &str); 4] = [
    ("virt_latency_ms_p50", "ms"),
    ("virt_latency_ms_p99", "ms"),
    ("latency_us_p99", "us"),
    ("failed_ratio", "ratio"),
];

/// Per-layer metrics with their units, in `BENCHMARK.json` order.
/// Times ending in `_s` are per pass over the workload's inputs;
/// counts without `_per_` are per pass too.
const PER_LAYER: [(&str, &str); 61] = [
    ("virt_latency_ms_p50", "ms"),
    ("virt_latency_ms_p99", "ms"),
    ("latency_us_p99", "us"),
    ("failed_ratio", "ratio"),
    ("trace_overhead", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.spans", "count"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("bench.self_s", "s"),
    ("app.self_s", "s"),
    ("sim.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_op", "count"),
    ("sim.peak_pending", "count"),
    ("sim.build_s", "s"),
    ("sim.sent", "count"),
    ("sim.sent_bytes", "B"),
    ("sim.dropped_loss", "count"),
    ("sim.trace_events", "count"),
    ("sim.allocs_per_event", "count"),
    ("groupcomm.self_s", "s"),
    ("groupcomm.calls", "count"),
    ("groupcomm.timer_calls", "count"),
    ("groupcomm.msgs_per_op", "count"),
    ("groupcomm.held_back_end", "count"),
    ("groupcomm.unacked_end", "count"),
    ("groupcomm.allocs_per_call", "count"),
    ("core.write_s", "s"),
    ("core.submit_s", "s"),
    ("core.read_s", "s"),
    ("core.writes", "count"),
    ("core.reads", "count"),
    ("core.awareness_deliveries", "count"),
    ("core.history_len", "count"),
    ("core.allocs_per_call", "count"),
    ("awareness.self_s", "s"),
    ("awareness.deliveries", "count"),
    ("telemetry.collect_s", "s"),
    ("telemetry.spans", "count"),
    ("telemetry.unclosed", "count"),
    ("net.driver_self_s", "s"),
    ("net.driver_cpu_us_per_op", "us"),
    ("net.tx_frames_per_op", "count"),
    ("net.tx_bytes_per_op", "B"),
    ("net.rx_frames_per_op", "count"),
    ("net.gaps", "count"),
    ("net.link_duplicates", "count"),
    ("net.evicted", "count"),
    ("net.gen_late_ms_max", "ms"),
    ("check.self_s", "s"),
    ("check.factory_s", "s"),
    ("check.invariant_s", "s"),
    ("check.fingerprint_s", "s"),
    ("check.runs", "count"),
    ("check.sleep_pruned", "count"),
    ("check.hash_pruned", "count"),
    ("check.racing_pairs", "count"),
    ("check.disarmed_found", "count"),
    ("check.probe_s", "s"),
];

/// The end-to-end metrics of one untraced measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub virt_latency_ms_p50: f64,
    pub virt_latency_ms_p99: f64,
    pub latency_us_p50: f64,
    pub latency_us_p99: f64,
    pub cpu_us_per_op: f64,
}

/// What a workload hands back from one measurement.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    pub e2e: EndToEnd,
    /// Passes over the workload's inputs.
    pub iterations: u32,
    /// Sim events processed across every pass.
    pub events: u64,
    /// Per-layer metrics the workload reads from the program's own
    /// counters (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Extra tracks recorded on other threads (TCP drivers).
    pub tracks: Vec<trace::Tracer>,
}

type Workload = fn(u64, Duration, bool) -> Outcome;

const WORKLOADS: [(&str, Workload); 4] = [
    ("campus_rush", campus::run),
    ("shared_edit", shared_edit::run),
    ("explore_deep", explore::run),
    ("tcp_awareness", tcp::run),
];

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
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(name, workload)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "perfbench: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let budget = Duration::from_secs(args.seconds);
    let (out, metrics) = if args.trace {
        traced_run(name, workload, args.seed, budget)
    } else {
        let out = workload(args.seed, budget, false);
        let metrics = end_to_end(&out);
        (out, metrics)
    };
    report(name, args.seed, args.trace, out, metrics)
}

fn failed_ratio(out: &Outcome) -> f64 {
    out.failed as f64 / out.attempted.max(1) as f64
}

fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64)> {
    let e = out.e2e;
    vec![
        ("setup_s", e.setup_s),
        ("ops_per_s", e.ops_per_s),
        ("latency_us_p50", e.latency_us_p50),
        ("cpu_us_per_op", e.cpu_us_per_op),
        ("peak_rss_mb", stats::peak_rss_mb()),
        ("virt_latency_ms_p50", e.virt_latency_ms_p50),
        ("virt_latency_ms_p99", e.virt_latency_ms_p99),
        ("latency_us_p99", e.latency_us_p99),
        ("failed_ratio", failed_ratio(out)),
    ]
}

/// Untraced for half the budget, then traced for the other half.
fn traced_run(
    name: &str,
    workload: Workload,
    seed: u64,
    budget: Duration,
) -> (Outcome, Vec<(&'static str, f64)>) {
    let mut base = workload(seed, budget / 2, false);
    trace::install(trace::Tracer::new(stats::Stopwatch::start()));
    trace::set_counting(true);
    let allocs0 = trace::process_allocs();
    let mut out = workload(seed, budget / 2, true);
    let allocs1 = trace::process_allocs();
    trace::set_counting(false);
    // The tracer was installed on this thread three statements up.
    // odp-check: allow(unwrap)
    let mut tracer = trace::uninstall().expect("tracer installed above");
    for track in out.tracks.drain(..) {
        tracer.absorb(track);
    }

    let ops = out.attempted.max(1) as f64;
    let iters = f64::from(out.iterations.max(1));
    let per_iter = |layer: &str| tracer.layer(layer).self_ns as f64 / 1e9 / iters;
    let calls = |layer: &str| tracer.layer(layer).calls as f64;
    let allocs = |layer: &str| tracer.layer(layer).self_allocs as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let gc = ["groupcomm", "groupcomm.tick"];
    let core = ["core.write", "core.submit", "core.read"];
    let sum = |names: &[&str], f: &dyn Fn(&str) -> f64| names.iter().map(|n| f(n)).sum::<f64>();
    let events = out.events as f64;
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("virt_latency_ms_p50", base.e2e.virt_latency_ms_p50),
        ("virt_latency_ms_p99", base.e2e.virt_latency_ms_p99),
        ("latency_us_p99", base.e2e.latency_us_p99),
        ("failed_ratio", failed_ratio(&base)),
        (
            "trace_overhead",
            ratio(out.e2e.ops_per_s, base.e2e.ops_per_s),
        ),
        ("trace.wall_s", tracer.root_ns() as f64 / 1e9),
        ("trace.self_sum_s", tracer.self_sum_ns() as f64 / 1e9),
        ("trace.spans", tracer.spans_total() as f64),
        ("alloc.count_per_op", (allocs1.0 - allocs0.0) as f64 / ops),
        ("alloc.bytes_per_op", (allocs1.1 - allocs0.1) as f64 / ops),
        ("bench.self_s", per_iter("bench")),
        ("app.self_s", per_iter("app")),
        ("sim.self_s", per_iter("sim.run")),
        (
            "sim.ns_per_event",
            ratio(tracer.layer("sim.run").self_ns as f64, events),
        ),
        (
            "sim.build_s",
            ratio(
                tracer.layer("sim.build").self_ns as f64 / 1e9,
                calls("sim.build"),
            ),
        ),
        ("sim.allocs_per_event", ratio(allocs("sim.run"), events)),
        ("groupcomm.self_s", sum(&gc, &per_iter)),
        ("groupcomm.calls", sum(&gc, &calls) / iters),
        ("groupcomm.timer_calls", calls("groupcomm.tick") / iters),
        (
            "groupcomm.allocs_per_call",
            ratio(sum(&gc, &allocs), sum(&gc, &calls)),
        ),
        ("core.write_s", per_iter("core.write")),
        ("core.submit_s", per_iter("core.submit")),
        ("core.read_s", per_iter("core.read")),
        ("core.writes", calls("core.write") / iters),
        ("core.reads", calls("core.read") / iters),
        (
            "core.allocs_per_call",
            ratio(sum(&core, &allocs), sum(&core, &calls)),
        ),
        ("awareness.self_s", per_iter("awareness")),
        ("telemetry.collect_s", per_iter("telemetry.collect")),
        ("net.driver_self_s", per_iter("net.driver")),
        ("check.self_s", per_iter("check.explore")),
        ("check.factory_s", per_iter("check.factory")),
        ("check.invariant_s", per_iter("check.invariant")),
        ("check.fingerprint_s", per_iter("check.fingerprint")),
        ("check.probe_s", per_iter("check.probe")),
    ];
    metrics.append(&mut out.layers);
    out.problems.append(&mut base.problems);

    if !tracer.balanced() {
        out.problems.push("traced run left spans open".to_owned());
    }
    if tracer.self_sum_ns() != tracer.root_ns() {
        out.problems.push(format!(
            "layer self times add up to {} ns, not the traced wall time {} ns",
            tracer.self_sum_ns(),
            tracer.root_ns()
        ));
    }
    let path = std::path::Path::new("perfbench/out").join(format!("{name}-{seed}.spans.tsv"));
    match tracer.write_spans(&path) {
        Ok(()) => println!(
            "spans: {} kept of {} in {}",
            tracer.spans_total().min(trace::SPAN_CAP as u64),
            tracer.spans_total(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    (out, metrics)
}

fn report(
    name: &str,
    seed: u64,
    traced: bool,
    mut out: Outcome,
    measured: Vec<(&'static str, f64)>,
) -> ExitCode {
    let listed: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let shown: Vec<(&str, &str)> = if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().chain(&UNBOUNDED).copied().collect()
    };
    for (metric, _) in &measured {
        if !shown.iter().any(|(n, _)| n == metric) {
            out.problems
                .push(format!("metric {metric} is not declared"));
        }
    }
    let value_of = |metric: &str| {
        measured
            .iter()
            .rev()
            .find(|(n, _)| *n == metric)
            .map_or(0.0, |(_, v)| *v)
    };
    println!(
        "{name} seed {seed} ({}): {} attempted, {} failed",
        if traced { "traced" } else { "untraced" },
        out.attempted,
        out.failed
    );
    for &(metric, unit) in &shown {
        let value = value_of(metric);
        let gated = !traced && listed.iter().any(|(n, _)| *n == metric);
        println!(
            "  {metric:<28} {value:>16.6} {unit:<6}{}",
            if gated || traced { "" } else { "  (no bound)" }
        );
        if gated && !(value.is_finite() && value > 0.0) {
            out.problems.push(format!("{metric} measured {value}"));
        }
    }
    if out.attempted == 0 {
        out.problems.push("no op was attempted".to_owned());
    }
    // A check repeated on every pass reports once.
    out.problems.sort();
    out.problems.dedup();
    for problem in &out.problems {
        println!("CHECK FAILED: {problem}");
    }
    let correct = out.problems.is_empty();
    let metrics: Vec<String> = listed
        .iter()
        .map(|&(metric, unit)| {
            let v = value_of(metric);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{metric}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
