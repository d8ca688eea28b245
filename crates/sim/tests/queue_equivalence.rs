//! Differential suite: the default radix-heap queue and the
//! pre-refactor `BTreeMap` queue drain every workload in the identical
//! `(time, seq)` order, with identical `ExecutedEvent` streams, RNG
//! draws, traces and metrics — the determinism contract DPOR
//! exploration and trace replay rely on.

use std::collections::BTreeMap;

use odp_sim::prelude::*;
use proptest::prelude::*;

/// A protocol actor that exercises every effect kind: fan-out sends,
/// re-armed timers, cancellations, RNG draws, sized sends and traces.
struct Churner {
    peers: Vec<NodeId>,
    live_timer: Option<TimerId>,
    handled: u64,
}

impl Churner {
    fn new(peers: Vec<NodeId>) -> Self {
        Churner {
            peers,
            live_timer: None,
            handled: 0,
        }
    }
}

impl Actor<u32> for Churner {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.set_timer(SimDuration::from_millis(3), 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
        self.handled += 1;
        match msg % 4 {
            0 => {
                let peer = self.peers[(msg as usize / 4) % self.peers.len()];
                let jitter = ctx
                    .rng()
                    .jittered(SimDuration::from_micros(200), SimDuration::from_micros(150));
                ctx.send_sized(peer, msg / 2, 64 + (msg as usize % 700));
                ctx.set_timer(jitter, u64::from(msg));
            }
            1 => {
                if let Some(t) = self.live_timer.take() {
                    ctx.cancel_timer(t);
                }
                self.live_timer = Some(ctx.set_timer(SimDuration::from_millis(1), 1));
            }
            2 => ctx.send(from, msg.saturating_sub(3)),
            _ => ctx.trace("churn.sink", msg.to_string()),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _timer: TimerId, tag: u64) {
        if tag > 0 && ctx.rng().chance(0.5) {
            let peer = self.peers[tag as usize % self.peers.len()];
            ctx.send(peer, (tag as u32).saturating_sub(5));
        }
        ctx.trace("churn.timer", tag.to_string());
    }
}

fn lossy_net() -> Network {
    let mut spec = LinkSpec::lan();
    spec.loss = 0.02;
    let mut net = Network::new(spec);
    net.set_default_link(spec);
    net
}

/// Builds the scenario on the given queue, injects `injections`
/// scripted `(at_us, from, to, msg)` stimuli, and drains it to
/// quiescence collecting every executed event.
fn drain_on(
    kind: QueueKind,
    seed: u64,
    nodes: u32,
    injections: &[(u64, u32, u32, u32)],
) -> (Vec<ExecutedEvent>, Sim<u32>) {
    let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    let mut sim = SimBuilder::new(seed)
        .network(lossy_net())
        .queue(kind)
        .max_events(500_000)
        .build();
    for &me in &ids {
        let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != me).collect();
        sim.add_actor(me, Churner::new(peers));
    }
    for &(at, from, to, msg) in injections {
        sim.inject(
            SimTime::from_micros(at),
            NodeId(from % nodes),
            NodeId(to % nodes),
            msg,
        );
    }
    let mut executed = Vec::new();
    while sim.step() {
        executed.extend(sim.last_executed());
    }
    (executed, sim)
}

fn assert_equivalent(seed: u64, nodes: u32, injections: &[(u64, u32, u32, u32)]) {
    let (cal_exec, cal) = drain_on(QueueKind::Calendar, seed, nodes, injections);
    let (leg_exec, leg) = drain_on(QueueKind::Legacy, seed, nodes, injections);
    assert_eq!(cal_exec.len(), leg_exec.len(), "event counts diverged");
    for (i, (a, b)) in cal_exec.iter().zip(&leg_exec).enumerate() {
        assert_eq!(a, b, "executed event #{i} diverged");
    }
    assert_eq!(cal.now(), leg.now());
    assert_eq!(cal.trace().events(), leg.trace().events());
    for name in [
        "sim.sent",
        "sim.sent_bytes",
        "sim.delivered",
        "sim.dropped.Loss",
        "sim.no_actor",
    ] {
        assert_eq!(
            cal.metrics().counter(name),
            leg.metrics().counter(name),
            "metric {name} diverged"
        );
    }
}

/// The headline satellite check: 10,000 randomly timed injections drain
/// in identical order through both queues — same seeds, same
/// `ExecutedEvent` streams.
#[test]
fn ten_thousand_random_injections_drain_identically() {
    let mut rng = DetRng::seed_from(0xCA1E_DA12);
    let mut injections = Vec::with_capacity(10_000);
    for _ in 0..10_000 {
        let at = rng.range_u64(0, 2_000_000); // anywhere in the first 2s
        let from = rng.index(8) as u32;
        let to = rng.index(8) as u32;
        let msg = rng.range_u64(0, 10_000) as u32;
        injections.push((at, from, to, msg));
    }
    assert_equivalent(0xDE5, 8, &injections);
}

/// Same-instant storms (many events on one tick) exercise the radix
/// heap's `head` refills and same-tick appends while `head` drains.
#[test]
fn same_tick_storms_drain_identically() {
    let mut injections = Vec::new();
    for burst in 0..20u64 {
        for k in 0..50u32 {
            injections.push((burst * 1_000, k, (k + 1) % 6, k * 3));
        }
    }
    assert_equivalent(0xBEE, 6, &injections);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary smaller workloads: any injection schedule, any seed,
    /// both queues agree event-for-event.
    #[test]
    fn queues_agree_on_arbitrary_workloads(
        seed in any::<u64>(),
        injections in prop::collection::vec(
            (0u64..500_000, 0u32..5, 0u32..5, 0u32..1_000),
            1..120,
        ),
    ) {
        assert_equivalent(seed, 5, &injections);
    }
}

/// What one driver action in [`interleave_on`] observed.
#[derive(Debug, PartialEq)]
enum Observed {
    Executed(ExecutedEvent),
    Run(RunOutcome),
    Now(SimTime),
}

/// Applies one drawn `(op, arg, from, to, msg)` action: a `step`, a
/// `step_nth` below the pending count, or a deadline-bounded run
/// followed by an injection.
fn apply(sim: &mut Sim<u32>, op: (u8, u64, u32, u32, u32), seen: &mut Vec<Observed>) {
    let (kind, arg, from, to, msg) = op;
    let stepped = match kind {
        0..=3 => sim.step(),
        4..=5 => {
            let pending = sim.pending_events().len();
            pending > 0 && sim.step_nth(arg as usize % pending)
        }
        _ => {
            // Stop short of (or past) the next event, then inject
            // between the deadline and whatever is still queued. After
            // a `step_nth` the deadline may also fall before `now`.
            let base = sim.now().as_micros().saturating_sub(1_000);
            let deadline = SimTime::from_micros(base + arg % 4_000);
            seen.push(Observed::Run(sim.run(Until::At(deadline))));
            let at = sim.now() + SimDuration::from_micros(arg % 97);
            sim.inject(at, NodeId(from), NodeId(to), msg);
            false
        }
    };
    if stepped {
        seen.extend(sim.last_executed().map(Observed::Executed));
    }
    seen.push(Observed::Now(sim.now()));
}

/// Runs `ops` on a fresh five-node scenario over `kind`, then drains
/// it, returning what each action observed, the sim and its non-zero
/// `sim.*` counters.
fn interleave_on(
    kind: QueueKind,
    seed: u64,
    ops: &[(u8, u64, u32, u32, u32)],
) -> (Vec<Observed>, Sim<u32>, BTreeMap<String, u64>) {
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    let mut sim = SimBuilder::new(seed)
        .network(lossy_net())
        .queue(kind)
        .max_events(200_000)
        .build();
    for &me in &ids {
        let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != me).collect();
        sim.add_actor(me, Churner::new(peers));
    }
    let mut seen = Vec::new();
    for &op in ops {
        apply(&mut sim, op, &mut seen);
    }
    while sim.step() {
        seen.extend(sim.last_executed().map(Observed::Executed));
    }
    let counters = sim
        .metrics()
        .counters()
        .filter(|&(name, v)| name.starts_with("sim.") && v > 0)
        .map(|(name, v)| (name.to_string(), v))
        .collect();
    (seen, sim, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The explorer's paths, not just `step()`: arbitrary interleavings
    /// of `step`, `step_nth(k)` for any `k` below the pending count,
    /// and deadline-bounded runs followed by an injection produce the
    /// same executed events, clock and counters on both queues.
    #[test]
    fn queues_agree_under_step_nth_and_deadline_injections(
        seed in any::<u64>(),
        ops in prop::collection::vec(
            (0u8..8, any::<u64>(), 0u32..5, 0u32..5, 0u32..1_000),
            1..200,
        ),
    ) {
        let (cal_seen, cal, cal_counters) = interleave_on(QueueKind::Calendar, seed, &ops);
        let (leg_seen, leg, leg_counters) = interleave_on(QueueKind::Legacy, seed, &ops);
        prop_assert_eq!(cal_seen.len(), leg_seen.len());
        for (a, b) in cal_seen.iter().zip(&leg_seen) {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(cal.now(), leg.now());
        prop_assert_eq!(cal.trace().events(), leg.trace().events());
        prop_assert_eq!(cal_counters, leg_counters);
    }
}
