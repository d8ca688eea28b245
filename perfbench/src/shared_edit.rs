//! `shared_edit`: E13's replicated workspace at 8 replicas × 400
//! writes over the 15 ms WAN with 0.1 % loss, span telemetry on.
//!
//! Writes go out over totally ordered reliable multicast; each one is
//! accompanied by four local reads through `WorkspaceReplica::peek`
//! (access check, store read and an awareness `View` publish). The run
//! ends with a `Collector` and `TelemetryReport` over the sim's spans.
//! Handlers dominate here — groupcomm, cscw-core's workspace with
//! access and awareness, and telemetry — while the pending set stays in
//! the thousands, so the scheduler barely matters: the reverse of
//! `campus_rush`.
//!
//! The seed generates every write (replica, due time, artefact, value)
//! and is the sim's seed, which decides the WAN's jitter and losses.
//! A run makes a fixed number of passes for its length (see
//! [`PASSES_PER_SECOND`]) rather than as many as fit, so a seed and a
//! length give the same ops and the same failures on every run.
//! An op is one read or one write. A write fails when it is not applied
//! at every replica by the horizon, and its latency counts as
//! unbounded. Known defect, left visible: `GroupEngine` sends a
//! `SeqRequest` once with no ack or retransmit, so a WAN loss that hits
//! one leaves that write held back at every replica forever.
//!
//! The traced run hosts each `GroupActor` through [`Layer`], a
//! `TransportActor` wrapper under `SimHost` (spans `groupcomm`,
//! `groupcomm.tick`), and runs the workspace replica inside [`Editor`],
//! a `GroupApp` wrapper (spans `core.submit`, `core.write`,
//! `core.read`).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use cscw_core::replicated::{WorkspaceReplica, WsOp};
use cscw_core::workspace::{ObjectId, SharedWorkspace};
use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, RoleId};
use odp_access::rights::Rights;
use odp_awareness::events::ActivityKind;
use odp_groupcomm::actors::{GroupActor, GroupApp};
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{Delivery, GcMsg, Ordering, Reliability};
use odp_net::actor::TransportActor;
use odp_net::ctx::NetCtx;
use odp_net::sim_host::SimHost;
use odp_sim::actor::TimerId;
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, Sim, SimBuilder, Until};
use odp_sim::rng::DetRng;
use odp_sim::time::{SimDuration, SimTime};
use odp_telemetry::collector::Collector;
use odp_telemetry::report::TelemetryReport;

use crate::stats::{self, median, PassPercentiles, Stopwatch};
use crate::trace;
use crate::Outcome;

const REPLICAS: u32 = 8;
const WRITES_EACH: u32 = 400;
const READS_PER_WRITE: u64 = 4;
const OBJECTS: u64 = 4;
/// Mean gap between one replica's writes; each is due at a random
/// point of its own gap-wide slot.
const WRITE_GAP_MS: u64 = 50;
/// Writes end near 20 s; the last 10 s let retransmits settle.
const HORIZON: SimDuration = SimDuration::from_secs(30);
/// Passes per second of the run's time budget. A pass takes about
/// 0.27 s on a 2-vCPU x86-64 VM, so a run measures for a little less
/// than its budget there.
const PASSES_PER_SECOND: f64 = 3.0;

type Replica = SimHost<Layer<GroupActor<WsOp, Editor>>>;

/// Times the hosted actor's callbacks: messages as `groupcomm`, timer
/// ticks as `groupcomm.tick`, each tagged with the write it serves.
pub struct Layer<A> {
    inner: A,
}

/// Op id of a write (1-based), from the `e-<replica>-<n>-...` values
/// the generator writes.
fn write_index(value: &str) -> Option<u64> {
    let mut parts = value.split('-').skip(1);
    let replica: u64 = parts.next()?.parse().ok()?;
    let n: u64 = parts.next()?.parse().ok()?;
    Some(replica * u64::from(WRITES_EACH) + n)
}

fn op_of(msg: &GcMsg<WsOp>) -> Option<u64> {
    match msg {
        GcMsg::AppCmd(op) => write_index(&op.value).map(|i| i + 1),
        GcMsg::Data(d) => write_index(&d.payload.value).map(|i| i + 1),
        _ => None,
    }
}

impl<A: TransportActor<GcMsg<WsOp>>> TransportActor<GcMsg<WsOp>> for Layer<A> {
    fn on_start(&mut self, ctx: &mut dyn NetCtx<GcMsg<WsOp>>) {
        trace::span("groupcomm", None, || self.inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx<GcMsg<WsOp>>, from: NodeId, msg: GcMsg<WsOp>) {
        let op = op_of(&msg);
        trace::span("groupcomm", op, || self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx<GcMsg<WsOp>>, timer: TimerId, tag: u64) {
        trace::span("groupcomm.tick", None, || {
            self.inner.on_timer(ctx, timer, tag)
        });
    }
}

/// Per write: submit and completion on both clocks.
#[derive(Default, Clone)]
struct WriteRecord {
    submit_virt_us: u64,
    submit_wall: Option<Stopwatch>,
    applied: u32,
    done_virt_us: u64,
    done_wall_ns: u64,
}

#[derive(Default)]
struct Ledger {
    writes: Vec<WriteRecord>,
    reads_ok: u64,
    reads_failed: u64,
}

/// The workspace replica as a `GroupApp`, with the four reads per
/// write and the bookkeeping for latency.
pub struct Editor {
    replica: WorkspaceReplica,
    me: NodeId,
    ledger: Rc<RefCell<Ledger>>,
}

impl GroupApp<WsOp> for Editor {
    fn on_command(&mut self, ctx: &mut dyn NetCtx<GcMsg<WsOp>>, cmd: WsOp) -> Option<WsOp> {
        let now = ctx.now();
        let mut ledger = self.ledger.borrow_mut();
        if let Some(w) = write_index(&cmd.value).and_then(|i| ledger.writes.get_mut(i as usize)) {
            w.submit_virt_us = now.as_micros();
            w.submit_wall = Some(Stopwatch::start());
        }
        for k in 0..READS_PER_WRITE {
            let object = 1 + (cmd.object - 1 + k) % OBJECTS;
            let read = trace::span("core.read", None, || {
                self.replica.peek(self.me, object, now)
            });
            match read {
                Some(_) => ledger.reads_ok += 1,
                None => ledger.reads_failed += 1,
            }
        }
        drop(ledger);
        trace::span("core.submit", None, || self.replica.on_command(ctx, cmd))
    }

    fn on_deliver(&mut self, ctx: &mut dyn NetCtx<GcMsg<WsOp>>, d: Delivery<WsOp>) {
        let index = write_index(&d.payload.value);
        trace::span("core.write", None, || self.replica.on_deliver(ctx, d));
        let mut ledger = self.ledger.borrow_mut();
        if let Some(w) = index.and_then(|i| ledger.writes.get_mut(i as usize)) {
            w.applied += 1;
            if w.applied == REPLICAS {
                w.done_virt_us = ctx.now().as_micros();
                w.done_wall_ns = w.submit_wall.map_or(0, |s| s.nanos());
            }
        }
    }
}

/// The generated input: `(due, replica, op)` per write.
fn generate(seed: u64) -> Vec<(SimTime, u32, WsOp)> {
    let mut rng = DetRng::seed_from(seed ^ 0x5EED_ED17);
    let mut writes = Vec::with_capacity((REPLICAS * WRITES_EACH) as usize);
    for i in 0..REPLICAS {
        for n in 0..WRITES_EACH {
            let slot_us = 10_000 + u64::from(n) * WRITE_GAP_MS * 1_000;
            let due = SimTime::from_micros(slot_us + rng.range_u64(0, WRITE_GAP_MS * 1_000));
            let op = WsOp {
                actor: i,
                object: 1 + rng.range_u64(0, OBJECTS),
                value: format!("e-{i}-{n}-{:08x}", rng.next_u64() as u32),
            };
            writes.push((due, i, op));
        }
    }
    writes
}

fn workspace() -> SharedWorkspace {
    let mut ws = SharedWorkspace::new();
    ws.policy_mut()
        .add_rule(RoleId(1), "shared".into(), Rights::ALL, Effect::Allow);
    for i in 0..REPLICAS {
        ws.policy_mut().assign(Subject(i), RoleId(1));
        ws.register_observer(NodeId(i), 0.0);
    }
    for k in 1..=OBJECTS {
        ws.create_artefact(ObjectId(k), format!("shared/{k}").as_str(), "v0");
    }
    ws
}

fn build(
    seed: u64,
    writes: &[(SimTime, u32, WsOp)],
    ledger: &Rc<RefCell<Ledger>>,
) -> Sim<GcMsg<WsOp>> {
    trace::span("sim.build", None, || {
        let view = View::initial(GroupId(0), (0..REPLICAS).map(NodeId));
        let link = LinkSpec::wan(SimDuration::from_millis(15));
        let mut net = Network::new(link);
        net.set_default_link(link);
        let mut sim: Sim<GcMsg<WsOp>> = SimBuilder::new(seed).network(net).build();
        for i in 0..REPLICAS {
            let editor = Editor {
                replica: WorkspaceReplica::new(workspace()),
                me: NodeId(i),
                ledger: Rc::clone(ledger),
            };
            let mut actor = GroupActor::new(
                NodeId(i),
                view.clone(),
                Ordering::Total,
                Reliability::reliable(),
                editor,
            );
            actor.set_telemetry(true);
            sim.add_actor(NodeId(i), SimHost::new(Layer { inner: actor }));
        }
        for (due, i, op) in writes {
            sim.inject(*due, NodeId(*i), NodeId(*i), GcMsg::AppCmd(op.clone()));
        }
        sim
    })
}

fn replica(sim: &Sim<GcMsg<WsOp>>, i: u32) -> Option<&GroupActor<WsOp, Editor>> {
    sim.get(ActorHandle::<Replica>::of(NodeId(i)))
        .map(|h| &h.inner().inner)
}

/// End-of-run state read off the replicas.
#[derive(Default)]
struct EndState {
    held_back: u64,
    unacked: u64,
    history_len: u64,
    awareness: u64,
}

/// Replicas must agree on the order of applied edits and end with
/// identical artefact values.
fn audit(sim: &mut Sim<GcMsg<WsOp>>, problems: &mut Vec<String>) -> EndState {
    let mut end = EndState::default();
    let mut orders: Vec<Vec<(u32, String)>> = Vec::new();
    for i in 0..REPLICAS {
        let Some(r) = replica(sim, i) else {
            problems.push(format!("replica {i} missing"));
            continue;
        };
        end.held_back += r.engine().held_back() as u64;
        end.unacked += r.engine().unacked() as u64;
        let app = r.app().replica.workspace();
        end.history_len += app.history().len() as u64;
        end.awareness += r.app().replica.awareness_delivered();
        orders.push(
            app.history()
                .iter()
                .filter(|h| h.kind == ActivityKind::Edit)
                .map(|h| (h.who, h.artefact.clone()))
                .collect(),
        );
    }
    if orders.windows(2).any(|w| w[0] != w[1]) {
        problems.push("replicas applied edits in different orders".to_owned());
    }
    let now = sim.now();
    let mut finals: Vec<Vec<Option<String>>> = Vec::new();
    for i in 0..REPLICAS {
        if let Some(h) = sim.get_mut(ActorHandle::<Replica>::of(NodeId(i))) {
            let app = h.inner_mut().inner.app_mut();
            finals.push(
                (1..=OBJECTS)
                    .map(|k| app.replica.peek(NodeId(i), k, now))
                    .collect(),
            );
        }
    }
    if finals.windows(2).any(|w| w[0] != w[1]) || finals.iter().flatten().any(Option::is_none) {
        problems.push("replicas ended with different artefact values".to_owned());
    }
    end
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    let writes = generate(seed);
    let mut out = Outcome::default();
    let mut builds = Vec::new();
    let (mut rates, mut cpu_s) = (Vec::new(), 0.0);
    let mut virt_ms = PassPercentiles::default();
    let mut wall_us = PassPercentiles::default();
    let mut layers = Vec::new();
    let passes = (budget.as_secs_f64() * PASSES_PER_SECOND).round() as u32;
    let iterations = stats::repeat(passes, || {
        trace::span("bench", None, || {
            let ledger = Rc::new(RefCell::new(Ledger {
                writes: vec![WriteRecord::default(); writes.len()],
                ..Ledger::default()
            }));
            let start = Stopwatch::start();
            let mut sim = build(seed, &writes, &ledger);
            builds.push(start.secs());

            let (cpu0, start) = (stats::cpu_seconds(), Stopwatch::start());
            trace::span("sim.run", None, || sim.run(Until::For(HORIZON)));
            let report = trace::span("telemetry.collect", None, || {
                let collector = Collector::from_trace(sim.trace());
                let formed = collector.well_formed();
                (
                    formed,
                    TelemetryReport::from_collector(seed, &collector, sim.trace().dropped()),
                )
            });
            let secs = start.secs();
            cpu_s += stats::cpu_seconds() - cpu0;

            let (formed, report) = report;
            if let Err(e) = formed {
                out.problems
                    .push(format!("span DAG is not well-formed: {e}"));
            }
            let end = audit(&mut sim, &mut out.problems);
            let ledger = ledger.borrow();
            let failed_writes = ledger
                .writes
                .iter()
                .filter(|w| w.applied < REPLICAS)
                .count() as u64;
            let pass_ops = writes.len() as u64 + ledger.reads_ok + ledger.reads_failed;
            rates.push(pass_ops as f64 / secs);
            out.attempted += pass_ops;
            out.failed += failed_writes + ledger.reads_failed;
            out.events += sim.events_processed();
            let (mut virt, mut wall): (Vec<f64>, Vec<f64>) = ledger
                .writes
                .iter()
                .map(|w| {
                    if w.applied < REPLICAS {
                        (f64::INFINITY, f64::INFINITY)
                    } else {
                        (
                            (w.done_virt_us - w.submit_virt_us) as f64 / 1e3,
                            w.done_wall_ns as f64 / 1e3,
                        )
                    }
                })
                .unzip();
            virt_ms.add(&mut virt);
            wall_us.add(&mut wall);
            let ops = pass_ops as f64;
            let m = sim.metrics();
            layers = vec![
                ("sim.events_per_op", sim.events_processed() as f64 / ops),
                ("sim.peak_pending", sim.peak_pending() as f64),
                ("sim.sent", m.counter("sim.sent") as f64),
                ("sim.sent_bytes", m.counter("sim.sent_bytes") as f64),
                ("sim.dropped_loss", m.counter("sim.dropped.Loss") as f64),
                ("sim.trace_events", sim.trace().len() as f64),
                ("groupcomm.msgs_per_op", m.counter("sim.sent") as f64 / ops),
                ("groupcomm.held_back_end", end.held_back as f64),
                ("groupcomm.unacked_end", end.unacked as f64),
                ("core.awareness_deliveries", end.awareness as f64),
                ("core.history_len", end.history_len as f64),
                ("telemetry.spans", report.spans as f64),
                ("telemetry.unclosed", report.unclosed as f64),
            ];
            if report.unclosed != 0 {
                out.problems
                    .push(format!("{} spans never closed", report.unclosed));
            }
        });
    });

    let ops = out.attempted as f64;
    out.iterations = iterations;
    out.e2e.setup_s = median(&mut builds);
    out.e2e.ops_per_s = median(&mut rates);
    (out.e2e.virt_latency_ms_p50, out.e2e.virt_latency_ms_p99) = virt_ms.medians();
    (out.e2e.latency_us_p50, out.e2e.latency_us_p99) = wall_us.medians();
    out.e2e.cpu_us_per_op = cpu_s * 1e6 / ops;
    if traced {
        out.layers = layers;
    }
    out
}
