//! `tcp_awareness`: two `BusActor` nodes on loopback — causal reliable
//! multicast through odp-net's `SessionLayer`, wire codec and threaded
//! TCP driver, one connection between them.
//!
//! One generator on the main thread publishes open loop at a fixed
//! rate, alternating the publishing node, whatever the nodes' backlog.
//! Each publish is timed from its due time, so a stall counts against
//! every publish it delays, and the generator reports how late it ran.
//! This is the only workload where odp-net runs and latency is real.
//! The seed decides the nodes' RNG streams and the artefact of each
//! publish.
//!
//! Set-up ends when the probe wrapper has seen every peer come up.
//! `SessionLayer` starts its peers alive and raises `on_peer_up` only
//! for a peer that returns after being declared down, so on a fresh
//! fleet the wrapper takes the first delivery from the peer as its
//! peer-up: each node publishes one readiness event, and set-up ends
//! when each has surfaced at the other node. The output checks are a complete delivery census (every publish surfaced
//! exactly once, at the other node) and zero session gaps.
//!
//! [`Probe`] is the `TransportActor` wrapper hosted by `TcpNode`: it
//! stamps publishes and deliveries and, in the traced run, times each
//! callback as an `awareness` span on a tracer it owns, since the
//! driver thread is not the benchmark's. After the node stops, the
//! rest of the driver thread's life is charged to `net.driver`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use odp_awareness::bus::{CoopEvent, CoopKind, EventBus};
use odp_awareness::dist::{BusActor, BusWire};
use odp_awareness::events::ActivityKind;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_net::actor::TransportActor;
use odp_net::ctx::NetCtx;
use odp_net::tcp::{TcpConfig, TcpHandle, TcpNode, TcpReport};
use odp_sim::actor::TimerId;
use odp_sim::net::NodeId;
use odp_sim::rng::DetRng;
use odp_sim::time::SimTime;

use crate::stats::{self, median, percentile, Stopwatch};
use crate::trace::{self, Tracer};
use crate::Outcome;

type Msg = GcMsg<BusWire>;

const NODES: u32 = 2;
/// Publishes per second, open loop.
const RATE_PER_S: u64 = 10_000;
/// Publishing before the measured window, to warm caches and buffers.
const WARMUP: Duration = Duration::from_millis(500);
/// Fleets built for `setup_s`; only the last one runs the workload.
const SETUP_FLEETS: usize = 7;
/// How long set-up may wait for peers, and the tail for deliveries.
const PATIENCE: Duration = Duration::from_secs(10);
/// Publish indices from here on are readiness events, not workload.
const READY_BASE: u64 = 1 << 62;
const ARTEFACTS: [&str; 4] = ["doc/plan", "doc/notes", "doc/budget", "doc/minutes"];

/// Counters the probes share with the generator.
#[derive(Default)]
struct Shared {
    /// Nodes that have heard from their peer.
    ready: AtomicUsize,
    delivered: AtomicU64,
}

/// Stamps and times one node's `BusActor`.
pub struct Probe {
    inner: BusActor,
    shared: Arc<Shared>,
    epoch: Stopwatch,
    /// `(publish, ns since epoch)` when the publisher's handler ran.
    published: Vec<(u64, u64)>,
    /// `(publish, ns since epoch)` when the delivery surfaced.
    received: Vec<(u64, u64)>,
    tracer: Option<Tracer>,
}

impl Probe {
    fn timed(&mut self, call: impl FnOnce(&mut BusActor)) {
        match &mut self.tracer {
            Some(t) => t.span("awareness", None, || call(&mut self.inner)),
            None => call(&mut self.inner),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.nanos()
    }
}

impl TransportActor<Msg> for Probe {
    fn on_start(&mut self, ctx: &mut dyn NetCtx<Msg>) {
        self.timed(|a| TransportActor::on_start(a, ctx));
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx<Msg>, from: NodeId, msg: Msg) {
        if let GcMsg::AppCmd(w) = &msg {
            let stamp = (w.event.at.as_micros(), self.now_ns());
            self.published.push(stamp);
        }
        let before = self.inner.delivered().len();
        self.timed(|a| TransportActor::on_message(a, ctx, from, msg));
        if self.inner.delivered().len() > before {
            let now = self.now_ns();
            let mut surfaced = 0;
            for d in &self.inner.delivered()[before..] {
                let index = d.event.at.as_micros();
                if index >= READY_BASE {
                    self.shared.ready.fetch_add(1, Ordering::SeqCst);
                } else {
                    self.received.push((index, now));
                    surfaced += 1;
                }
            }
            self.shared.delivered.fetch_add(surfaced, Ordering::Relaxed);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx<Msg>, timer: TimerId, tag: u64) {
        self.timed(|a| TransportActor::on_timer(a, ctx, timer, tag));
    }

    fn on_peer_up(&mut self, ctx: &mut dyn NetCtx<Msg>, peer: NodeId) {
        self.timed(|a| a.on_peer_up(ctx, peer));
    }

    fn on_peer_down(&mut self, ctx: &mut dyn NetCtx<Msg>, peer: NodeId) {
        self.timed(|a| a.on_peer_down(ctx, peer));
    }
}

struct Fleet {
    handles: Vec<TcpHandle<Probe, Msg>>,
    shared: Arc<Shared>,
    spawned_ns: u64,
}

fn open_bus() -> EventBus {
    let mut bus = EventBus::new();
    for i in 0..NODES {
        bus.register(NodeId(i), 0.0);
    }
    bus
}

/// Binds, spawns and waits until every node has heard from its peer.
fn fleet(seed: u64, epoch: Stopwatch, traced: bool) -> Result<Fleet, String> {
    let mut nodes = Vec::new();
    for i in 0..NODES {
        let cfg = TcpConfig {
            seed,
            ..TcpConfig::default()
        };
        nodes.push(TcpNode::bind(NodeId(i), cfg).map_err(|e| format!("bind node {i}: {e}"))?);
    }
    let mut addrs: BTreeMap<NodeId, SocketAddr> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        addrs.insert(NodeId(i as u32), n.local_addr().map_err(|e| e.to_string())?);
    }
    let shared = Arc::new(Shared::default());
    let view = View::initial(GroupId(0), (0..NODES).map(NodeId));
    let spawned_ns = epoch.nanos();
    let handles = nodes
        .into_iter()
        .enumerate()
        .map(|(i, mut node)| {
            node.set_peers(addrs.clone());
            node.spawn(Probe {
                inner: BusActor::new(NodeId(i as u32), view.clone(), open_bus()),
                shared: Arc::clone(&shared),
                epoch,
                published: Vec::new(),
                received: Vec::new(),
                tracer: traced.then(|| Tracer::new(epoch)),
            })
        })
        .collect();
    let fleet = Fleet {
        handles,
        shared,
        spawned_ns,
    };
    for (i, h) in fleet.handles.iter().enumerate() {
        h.inject(
            NodeId(i as u32),
            publish(READY_BASE + i as u64, ARTEFACTS[0]),
        );
    }
    let waiting = Stopwatch::start();
    while fleet.shared.ready.load(Ordering::SeqCst) < NODES as usize {
        if waiting.elapsed() > PATIENCE {
            stop(fleet, epoch);
            return Err("peers never came up".to_owned());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(fleet)
}

/// Stops every node; returns each probe with its report, and the
/// driver tracks closed over the node's lifetime.
fn stop(fleet: Fleet, epoch: Stopwatch) -> Vec<Result<(Probe, TcpReport), String>> {
    fleet
        .handles
        .into_iter()
        .map(|h| {
            let (mut probe, report) = h.stop().map_err(|e| e.to_string())?;
            let stopped_ns = epoch.nanos();
            if let Some(t) = probe.tracer.as_mut() {
                t.enclose("net.driver", fleet.spawned_ns, stopped_ns);
            }
            Ok((probe, report))
        })
        .collect()
}

fn publish(index: u64, artefact: &str) -> Msg {
    let publisher = (index % u64::from(NODES)) as u32;
    GcMsg::AppCmd(BusWire::new(CoopEvent::broadcast(
        NodeId(publisher),
        artefact,
        SimTime::from_micros(index),
        CoopKind::Activity(ActivityKind::Edit),
    )))
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let epoch = trace::installed_epoch().unwrap_or_else(Stopwatch::start);
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..SETUP_FLEETS {
        if let Some(f) = running.take() {
            stop(f, epoch);
        }
        let start = Stopwatch::start();
        match fleet(seed, epoch, traced) {
            Ok(f) => running = Some(f),
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        }
        setups.push(start.secs());
    }
    let Some(fleet) = running else {
        return out;
    };

    // The generator: publish `i` is due at `i / RATE` after the start.
    let mut rng = DetRng::seed_from(seed);
    let interval_ns = 1_000_000_000 / RATE_PER_S;
    let warmup_n = WARMUP.as_nanos() as u64 / interval_ns;
    let total_n = warmup_n + budget.as_nanos() as u64 / interval_ns;
    let mut due_ns = Vec::with_capacity(total_n as usize);
    let mut late_max_ns = 0u64;
    let mut cpu_at_window = 0.0;
    let mut cpu_s = 0.0;
    let mut window = Stopwatch::start();
    trace::span("bench", None, || {
        let start = epoch.nanos();
        for i in 0..total_n {
            if i == warmup_n {
                cpu_at_window = stats::cpu_seconds();
                window = Stopwatch::start();
            }
            let due = start + i * interval_ns;
            let now = epoch.nanos();
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            if i >= warmup_n {
                late_max_ns = late_max_ns.max(epoch.nanos().saturating_sub(due));
            }
            let publisher = (i % u64::from(NODES)) as u32;
            let artefact = ARTEFACTS[rng.index(ARTEFACTS.len())];
            fleet.handles[publisher as usize].inject(NodeId(publisher), publish(i, artefact));
            due_ns.push(due);
        }
        let draining = Stopwatch::start();
        while fleet.shared.delivered.load(Ordering::Relaxed) < total_n
            && draining.elapsed() < PATIENCE
        {
            std::thread::sleep(Duration::from_micros(100));
        }
        cpu_s = stats::cpu_seconds() - cpu_at_window;
    });
    let window_s = window.secs();

    let mut received: Vec<Vec<(u64, u64)>> = vec![Vec::new(); NODES as usize];
    let mut published = vec![None; total_n as usize];
    let (mut gaps, mut dups, mut evicted) = (0u64, 0u64, 0u64);
    let (mut tx_frames, mut tx_bytes, mut rx_frames) = (0u64, 0u64, 0u64);
    let mut handler_ns = 0u64;
    for (i, stopped) in stop(fleet, epoch).into_iter().enumerate() {
        let (probe, report) = match stopped {
            Ok(s) => s,
            Err(e) => {
                out.problems.push(format!("node {i} failed to stop: {e}"));
                continue;
            }
        };
        gaps += report.stats.gaps;
        dups += report.stats.link_duplicates;
        evicted += report.stats.evicted;
        tx_frames += report.metrics.counter("net.tcp.tx_frames");
        tx_bytes += report.metrics.counter("net.tcp.tx_bytes");
        rx_frames += report.metrics.counter("net.tcp.rx_frames");
        for &(index, at) in &probe.published {
            if let Some(p) = published.get_mut(index as usize) {
                *p = Some(at);
            }
        }
        received[i] = probe.received;
        if let Some(t) = probe.tracer {
            handler_ns += t.layer("awareness").self_ns;
            out.tracks.push(t);
        }
    }

    // Census: publish `i` surfaces exactly once, at the other node.
    let mut seen = vec![0u32; total_n as usize];
    let mut arrival = vec![0u64; total_n as usize];
    for (node, list) in received.iter().enumerate() {
        for &(index, at) in list {
            match seen.get_mut(index as usize) {
                Some(n) if index % u64::from(NODES) != node as u64 => {
                    *n += 1;
                    arrival[index as usize] = at;
                }
                _ => out
                    .problems
                    .push(format!("publish {index} surfaced at node {node}")),
            }
        }
    }
    let duplicated = seen.iter().filter(|&&n| n > 1).count();
    if duplicated > 0 {
        out.problems
            .push(format!("{duplicated} publishes surfaced more than once"));
    }
    if gaps > 0 {
        out.problems.push(format!("{gaps} session sequence gaps"));
    }
    out.attempted = total_n;
    out.failed = seen.iter().filter(|&&n| n == 0).count() as u64;

    let mut real_us = Vec::new();
    let mut handler_us = Vec::new();
    for i in warmup_n as usize..total_n as usize {
        if seen[i] == 0 {
            real_us.push(f64::INFINITY);
            handler_us.push(f64::INFINITY);
            continue;
        }
        real_us.push(arrival[i].saturating_sub(due_ns[i]) as f64 / 1e3);
        let sent = published[i].unwrap_or(due_ns[i]);
        handler_us.push(arrival[i].saturating_sub(sent) as f64 / 1e6);
    }
    let measured = (total_n - warmup_n) as f64;
    out.iterations = 1;
    out.e2e.setup_s = median(&mut setups);
    out.e2e.ops_per_s = measured / window_s;
    out.e2e.virt_latency_ms_p50 = percentile(&mut handler_us, 50.0);
    out.e2e.virt_latency_ms_p99 = percentile(&mut handler_us, 99.0);
    out.e2e.latency_us_p50 = percentile(&mut real_us, 50.0);
    out.e2e.latency_us_p99 = percentile(&mut real_us, 99.0);
    out.e2e.cpu_us_per_op = cpu_s * 1e6 / measured;
    if traced {
        let all = total_n as f64;
        let delivered: u64 = received.iter().map(|r| r.len() as u64).sum();
        out.layers = vec![
            ("awareness.deliveries", delivered as f64),
            (
                "net.driver_cpu_us_per_op",
                (cpu_s * 1e9 - handler_ns as f64 * measured / all) / 1e3 / measured,
            ),
            ("net.tx_frames_per_op", tx_frames as f64 / all),
            ("net.tx_bytes_per_op", tx_bytes as f64 / all),
            ("net.rx_frames_per_op", rx_frames as f64 / all),
            ("net.gaps", gaps as f64),
            ("net.link_duplicates", dups as f64),
            ("net.evicted", evicted as f64),
            ("net.gen_late_ms_max", late_max_ns as f64 / 1e6),
        ];
    }
    out
}
