//! `campus_rush`: the campus-at-rush-hour scenario at its 20,000-agent
//! acceptance rung, telemetry off.
//!
//! Every agent enqueues its whole agenda of minute-aligned slots at
//! arrival; each slot fans presence out to two colleagues (every
//! receipt cancels and re-arms a lease timer), writes to the domain
//! workspace with a pre-armed 32-deep retry ladder that the ack reaps,
//! and every third slot asks a trader. About 9.5 million events pass
//! through a pending set that peaks near 6.6 million while the handlers
//! stay trivial, so odp-sim's calendar queue and dispatch do nearly all
//! the work. Load is open loop in virtual time: slots fire on schedule
//! whatever the backlog.
//!
//! An op is one agenda slot. Its latency runs from the workspace write
//! the slot submits to the ack that reaps the ladder, in virtual time
//! and in wall time (how long the simulator takes to carry the write
//! through). The actors are this benchmark's own copy of the scenario;
//! the traced run times them through [`Timed`], an `Actor` wrapper,
//! and charges the rest of `Sim::run` to the sim layer.

use std::time::Duration;

use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, QueueKind, RunOutcome, Sim, SimBuilder, Until};
use odp_sim::time::SimDuration;

use crate::stats::{self, median, PassPercentiles, Stopwatch};
use crate::trace;
use crate::Outcome;

const DOMAINS: u32 = 4;
const AGENTS: u32 = 20_000;
const AGENDA: u64 = 12;
const SLOT_GAP_SECS: u64 = 60;
const FANOUT: usize = 2;
const LEASE_SECS: u64 = 150;
const RETRIES: usize = 32;
const RETRY_GAP_SECS: u64 = 60;
const LOOKUP_EVERY: u64 = 3;
const LEASE_TAG: u64 = u64::MAX;
const RETRY_TAG: u64 = u64::MAX - 1;
/// Sim builds timed for `setup_s`; only the last one is run.
const SETUP_BUILDS: usize = 5;

#[derive(Debug, Clone)]
enum CampusMsg {
    LookupReq { job: u32 },
    LookupDone { job: u32 },
    Presence { slot: u32 },
    WsWrite { write_seq: u64, len: u32 },
    WsAck { write_seq: u64 },
}

fn trader_of(domain: u32) -> NodeId {
    NodeId(domain)
}
fn workspace_of(domain: u32) -> NodeId {
    NodeId(DOMAINS + domain)
}
fn agent_node(i: u32) -> NodeId {
    NodeId(2 * DOMAINS + i)
}

/// Times every callback of the wrapped actor as one `app` span.
pub struct Timed<A> {
    inner: A,
}

impl<M: 'static, A: Actor<M>> Actor<M> for Timed<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        trace::span("app", None, || self.inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M) {
        trace::span("app", None, || self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: TimerId, tag: u64) {
        trace::span("app", None, || self.inner.on_timer(ctx, timer, tag));
    }
}

struct TraderDesk {
    resolved: u64,
}

impl Actor<CampusMsg> for TraderDesk {
    fn on_message(&mut self, ctx: &mut Ctx<'_, CampusMsg>, from: NodeId, msg: CampusMsg) {
        if let CampusMsg::LookupReq { job } = msg {
            self.resolved += 1;
            ctx.send(from, CampusMsg::LookupDone { job });
        }
    }
}

struct Workspace {
    len: u64,
    writes: u64,
}

impl Actor<CampusMsg> for Workspace {
    fn on_message(&mut self, ctx: &mut Ctx<'_, CampusMsg>, from: NodeId, msg: CampusMsg) {
        if let CampusMsg::WsWrite { write_seq, len } = msg {
            self.len += u64::from(len);
            self.writes += 1;
            ctx.send(from, CampusMsg::WsAck { write_seq });
        }
    }
}

/// An armed write: its id, its retry ladder and when it was submitted.
struct Ladder {
    write_seq: u64,
    timers: Vec<TimerId>,
    submitted: Stopwatch,
}

struct AgentScript {
    index: u32,
    slots_walked: u64,
    lookups_done: u64,
    acks: u64,
    lease_timeouts: u64,
    retries_fired: u64,
    leases: Vec<(NodeId, TimerId)>,
    ladders: Vec<Ladder>,
    checksum: u64,
    /// `(virtual µs, wall ns)` from write submit to ack, per acked write.
    latencies: Vec<(u64, u64)>,
}

impl AgentScript {
    fn new(index: u32) -> Self {
        AgentScript {
            index,
            slots_walked: 0,
            lookups_done: 0,
            acks: 0,
            lease_timeouts: 0,
            retries_fired: 0,
            leases: Vec::new(),
            ladders: Vec::new(),
            checksum: 0,
            latencies: Vec::with_capacity(AGENDA as usize),
        }
    }

    fn domain(&self) -> u32 {
        self.index % DOMAINS
    }

    fn peers(&self) -> [NodeId; FANOUT] {
        [
            agent_node((self.index + DOMAINS) % AGENTS),
            agent_node((self.index + 1) % AGENTS),
        ]
    }
}

impl Actor<CampusMsg> for AgentScript {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CampusMsg>) {
        for slot in 0..AGENDA {
            ctx.set_timer(SimDuration::from_secs(SLOT_GAP_SECS * (slot + 1)), slot);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, CampusMsg>, from: NodeId, msg: CampusMsg) {
        match msg {
            CampusMsg::LookupDone { job } => {
                self.lookups_done += 1;
                self.checksum ^= u64::from(job);
            }
            CampusMsg::WsAck { write_seq } => {
                self.acks += 1;
                if let Some(at) = self.ladders.iter().position(|l| l.write_seq == write_seq) {
                    let ladder = self.ladders.swap_remove(at);
                    for id in ladder.timers {
                        ctx.cancel_timer(id);
                    }
                    let slot = write_seq & 0xFFFF;
                    let submitted_us = SLOT_GAP_SECS * (slot + 1) * 1_000_000;
                    self.latencies.push((
                        ctx.now().as_micros() - submitted_us,
                        ladder.submitted.nanos(),
                    ));
                }
            }
            CampusMsg::Presence { slot } => {
                self.checksum ^= u64::from(slot);
                let now_us = ctx.now().as_micros();
                let fire_us = (now_us + LEASE_SECS * 1_000_000).next_multiple_of(1_000_000);
                let id = ctx.set_timer(SimDuration::from_micros(fire_us - now_us), LEASE_TAG);
                if let Some(entry) = self.leases.iter_mut().find(|(peer, _)| *peer == from) {
                    ctx.cancel_timer(entry.1);
                    entry.1 = id;
                } else {
                    self.leases.push((from, id));
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CampusMsg>, _timer: TimerId, tag: u64) {
        match tag {
            LEASE_TAG => self.lease_timeouts += 1,
            RETRY_TAG => self.retries_fired += 1,
            slot => {
                self.slots_walked += 1;
                let note = CampusMsg::Presence { slot: slot as u32 };
                for peer in self.peers() {
                    ctx.send(peer, note.clone());
                }
                let write_seq = u64::from(self.index) << 16 | slot;
                let submitted = Stopwatch::start();
                ctx.send_sized(
                    workspace_of(self.domain()),
                    CampusMsg::WsWrite {
                        write_seq,
                        len: 16 + self.index % 240,
                    },
                    512,
                );
                let timers: Vec<TimerId> = (0..RETRIES)
                    .map(|j| {
                        let backoff = ctx.rng().jittered(
                            SimDuration::from_secs(RETRY_GAP_SECS * (j as u64 + 1)),
                            SimDuration::from_secs(3 * RETRY_GAP_SECS / 4),
                        );
                        ctx.set_timer(backoff, RETRY_TAG)
                    })
                    .collect();
                self.ladders.push(Ladder {
                    write_seq,
                    timers,
                    submitted,
                });
                if slot.is_multiple_of(LOOKUP_EVERY) {
                    let domain = if slot.is_multiple_of(4 * LOOKUP_EVERY) {
                        (self.domain() + 1) % DOMAINS
                    } else {
                        self.domain()
                    };
                    ctx.send(
                        trader_of(domain),
                        CampusMsg::LookupReq {
                            job: self.index ^ slot as u32,
                        },
                    );
                }
            }
        }
    }
}

/// Builds the campus; the seed drives the sim's jitter and backoff
/// draws, so it is the whole of the generated input.
fn build(seed: u64) -> Sim<CampusMsg> {
    trace::span("sim.build", None, || {
        let mut net = Network::new(LinkSpec::lan());
        net.set_default_link(LinkSpec::lan());
        let mut sim: Sim<CampusMsg> = SimBuilder::new(seed)
            .network(net)
            .queue(QueueKind::Calendar)
            .telemetry(false)
            .max_events(200_000_000)
            .build();
        for d in 0..DOMAINS {
            sim.add_actor(
                trader_of(d),
                Timed {
                    inner: TraderDesk { resolved: 0 },
                },
            );
            sim.add_actor(
                workspace_of(d),
                Timed {
                    inner: Workspace { len: 0, writes: 0 },
                },
            );
        }
        for i in 0..AGENTS {
            sim.add_actor(
                agent_node(i),
                Timed {
                    inner: AgentScript::new(i),
                },
            );
        }
        sim
    })
}

/// The audit of `campus_rush_hour`, counting instead of panicking:
/// returns `(unacked writes, problems)`.
fn audit(sim: &Sim<CampusMsg>, run: RunOutcome) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    if run != RunOutcome::Quiesced {
        problems.push(format!("campus did not drain: {run:?}"));
    }
    let mut resolved = 0u64;
    let mut ws_writes = 0u64;
    for d in 0..DOMAINS {
        if let Some(t) = sim.get(ActorHandle::<Timed<TraderDesk>>::of(trader_of(d))) {
            resolved += t.inner.resolved;
        }
        if let Some(w) = sim.get(ActorHandle::<Timed<Workspace>>::of(workspace_of(d))) {
            ws_writes += w.inner.writes;
        }
    }
    let (mut lookups_done, mut acks, mut timeouts, mut unreaped) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..AGENTS {
        let Some(a) = sim.get(ActorHandle::<Timed<AgentScript>>::of(agent_node(i))) else {
            problems.push(format!("agent {i} missing"));
            continue;
        };
        let a = &a.inner;
        if a.slots_walked != AGENDA {
            problems.push(format!(
                "agent {i} walked {} of {AGENDA} slots",
                a.slots_walked
            ));
        }
        if a.retries_fired != 0 {
            problems.push(format!("agent {i} saw a retry fire before its ack"));
        }
        unreaped += a.ladders.len() as u64;
        lookups_done += a.lookups_done;
        acks += a.acks;
        timeouts += a.lease_timeouts;
    }
    let expected_writes = u64::from(AGENTS) * AGENDA;
    let lookups_per_agent = (0..AGENDA)
        .filter(|s| s.is_multiple_of(LOOKUP_EVERY))
        .count() as u64;
    for (what, got, want) in [
        ("trader lookups answered", lookups_done, resolved),
        (
            "trader lookups made",
            resolved,
            u64::from(AGENTS) * lookups_per_agent,
        ),
        ("workspace writes acked", acks, ws_writes),
        ("workspace writes", ws_writes, expected_writes),
        (
            "lease expiries",
            timeouts,
            u64::from(AGENTS) * FANOUT as u64,
        ),
    ] {
        if got != want {
            problems.push(format!("{what}: {got}, expected {want}"));
        }
    }
    (expected_writes.saturating_sub(acks) + unreaped, problems)
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    let mut builds = Vec::with_capacity(SETUP_BUILDS);
    let mut sim = None;
    for _ in 0..SETUP_BUILDS {
        drop(sim.take());
        let start = Stopwatch::start();
        sim = Some(build(seed));
        builds.push(start.secs());
    }

    let mut out = Outcome::default();
    let mut rates = Vec::new();
    let mut cpu_s = 0.0;
    let mut events = 0u64;
    let mut peak_pending = 0usize;
    let mut virt_ms = PassPercentiles::default();
    let mut wall_us = PassPercentiles::default();
    let mut counters = (0u64, 0u64, 0u64, 0u64);
    let iterations = stats::repeat_within(budget, || {
        trace::span("bench", None, || {
            let mut s = sim.take().unwrap_or_else(|| build(seed));
            let (cpu0, start) = (stats::cpu_seconds(), Stopwatch::start());
            let outcome = trace::span("sim.run", None, || s.run(Until::Idle));
            rates.push((u64::from(AGENTS) * AGENDA) as f64 / start.secs());
            cpu_s += stats::cpu_seconds() - cpu0;
            let (failed, problems) = audit(&s, outcome);
            out.attempted += u64::from(AGENTS) * AGENDA;
            out.failed += failed;
            out.problems.extend(problems);
            events += s.events_processed();
            peak_pending = peak_pending.max(s.peak_pending());
            let m = s.metrics();
            counters = (
                m.counter("sim.sent"),
                m.counter("sim.sent_bytes"),
                m.counter("sim.dropped.Loss"),
                s.trace().len() as u64,
            );
            let (mut virt, mut wall) = (Vec::new(), Vec::new());
            for i in 0..AGENTS {
                if let Some(a) = s.get(ActorHandle::<Timed<AgentScript>>::of(agent_node(i))) {
                    for &(v, w) in &a.inner.latencies {
                        virt.push(v as f64 / 1e3);
                        wall.push(w as f64 / 1e3);
                    }
                }
            }
            virt_ms.add(&mut virt);
            wall_us.add(&mut wall);
        });
    });

    let ops = out.attempted as f64;
    out.e2e.setup_s = median(&mut builds);
    out.e2e.ops_per_s = median(&mut rates);
    (out.e2e.virt_latency_ms_p50, out.e2e.virt_latency_ms_p99) = virt_ms.medians();
    (out.e2e.latency_us_p50, out.e2e.latency_us_p99) = wall_us.medians();
    out.e2e.cpu_us_per_op = cpu_s * 1e6 / ops;
    out.iterations = iterations;
    out.events = events;
    if traced {
        out.layers = vec![
            ("sim.events_per_op", events as f64 / ops),
            ("sim.peak_pending", peak_pending as f64),
            ("sim.sent", counters.0 as f64),
            ("sim.sent_bytes", counters.1 as f64),
            ("sim.dropped_loss", counters.2 as f64),
            ("sim.trace_events", counters.3 as f64),
        ];
    }
    out
}
