//! Campus-at-rush-hour scale bench for the radix-heap DES core:
//! tens of thousands of scripted agents across federated domains all
//! hitting the infrastructure at once, and writes `BENCH_scale.json`.
//!
//! The workload models the paper's campus scenario at its least
//! charitable moment — start of the working day. Each of `DOMAINS`
//! federated domains hosts a trader, a shared-workspace service, and a
//! slice of the agent population. Every agent walks a pre-scheduled
//! agenda of minute-aligned slots (the whole day is enqueued at
//! arrival, so the scheduler carries the full rush in its pending set)
//! and each slot exercises the three cooperative actions the paper's
//! support environment must absorb at scale:
//!
//! - **awareness fan-out with presence leases** — publish presence to
//!   colleagues (one same-domain, one federated); every receipt
//!   cancels and re-arms the sender's lease timer, the classic
//!   failure-detector churn of an awareness service;
//! - **shared-workspace write with a pre-armed retry ladder** — append
//!   to the domain's active document with `RETRIES` retransmit timers
//!   scheduled up front; the ack cancels the whole ladder, so the
//!   scheduler reaps them as cancelled pops;
//! - **trader lookup** — resolve a service offer, every third slot,
//!   some federated to a remote domain.
//!
//! The cancel-heavy mix is deliberate: it drives the pending set to
//! millions of entries and makes the *scheduler* — not actor dispatch —
//! the bottleneck, which is exactly the regime the radix-heap queue
//! exists for.
//!
//! The bench climbs an agent-count ladder on the default queue,
//! reporting wall-clock events/sec and peak queue depth per rung, then
//! replays the acceptance rung on the pre-refactor engine
//! (`QueueKind::Legacy`: `BTreeMap` queue, map-indexed dispatch,
//! per-event allocation, string-keyed metrics) to report the speedup
//! ratio. Both runs are the *same* deterministic simulation — the
//! legacy replay is the recorded baseline the ratio is judged against,
//! and the bench asserts they processed identical event counts.
//!
//! Measured honestly: with `--quick` on a 2-vCPU Xeon VM the radix
//! heap clears the rush at 2.0–2.6M events/sec, 4.3–5.5x the legacy
//! engine (the calendar wheel it replaced managed 1.1–1.2M, 2.2–2.8x).
//! A `BTreeMap` keyed by `(time, seq)` is already a cache-efficient
//! B-tree, so the gap comes from touching each entry only a few times
//! in sequential sweeps, not from asymptotics. DESIGN.md §10 carries
//! the breakdown.
//!
//! ```text
//! cargo run -p cscw-bench --bin campus_rush_hour --release \
//!     [OUT.json] [--floor FLOOR.json] [--quick]
//! ```
//!
//! With `--floor`, the bench fails (exit 1) if the acceptance rung's
//! events/sec falls more than 20 % below the checked-in floor — the
//! CI regression gate. `--quick` runs only the acceptance rung.

use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, QueueKind, RunOutcome, Sim, SimBuilder, Until};
use odp_sim::time::SimDuration;

/// Federated domains on the campus.
const DOMAINS: u32 = 4;
/// Minute-aligned agenda slots each agent walks during the rush.
const AGENDA: u64 = 12;
/// Gap between agenda slots.
const SLOT_GAP_SECS: u64 = 60;
/// Presence fan-out per slot: one same-domain colleague, one federated.
const FANOUT: usize = 2;
/// Presence-lease timeout base (re-armed on every heartbeat received).
const LEASE_SECS: u64 = 150;
/// Retransmit timers pre-armed per workspace write; the ack cancels
/// them all. Sized so ladders from the whole rush stay pending at
/// once — the depth the scheduler must stay O(1) under.
const RETRIES: usize = 32;
/// Gap between rungs of one retry ladder.
const RETRY_GAP_SECS: u64 = 60;
/// A trader lookup fires every this-many agenda slots.
const LOOKUP_EVERY: u64 = 3;
/// Timer tag for presence-lease expiry.
const LEASE_TAG: u64 = u64::MAX;
/// Timer tag for a workspace-write retransmit slot.
const RETRY_TAG: u64 = u64::MAX - 1;
/// The agent-count ladder; the third rung is the acceptance rung.
const LADDER: [u32; 4] = [5_000, 10_000, 20_000, 40_000];
/// The rung the legacy baseline and the floor gate are judged at.
const ACCEPTANCE_AGENTS: u32 = 20_000;
/// Minimum default/legacy speedup the bench enforces. The radix heap
/// measures 4.3–5.5x with `--quick` on a 2-vCPU Xeon VM (see DESIGN.md
/// §10 for the breakdown); the gate sits well below that so it trips
/// on real regressions, not scheduler noise on shared CI runners.
const MIN_RATIO: f64 = 1.2;

/// Wire protocol of the campus infrastructure.
#[derive(Debug, Clone)]
enum CampusMsg {
    /// Agent asks a trader to resolve a service offer.
    LookupReq { job: u32 },
    /// Trader resolution (hit or federated miss) back to the agent.
    LookupDone { job: u32 },
    /// Presence notification fanned out to colleagues.
    Presence { slot: u32 },
    /// Append to the domain's shared workspace.
    WsWrite { write_seq: u64, len: u32 },
    /// Workspace acknowledges the identified write.
    WsAck { write_seq: u64 },
}

/// Node-id layout: traders, then workspaces, then agents.
fn trader_of(domain: u32) -> NodeId {
    NodeId(domain)
}
fn workspace_of(domain: u32) -> NodeId {
    NodeId(DOMAINS + domain)
}
fn agent_node(i: u32) -> NodeId {
    NodeId(2 * DOMAINS + i)
}

/// The domain trader: resolves lookups immediately (the offer store is
/// warm at rush hour) and counts arrivals.
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

/// The domain's shared-workspace service: applies writes in arrival
/// order and acks each one.
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

/// One scripted campus inhabitant.
struct AgentScript {
    index: u32,
    population: u32,
    slots_walked: u64,
    lookups_done: u64,
    acks: u64,
    presence_heard: u64,
    /// Leases fired without a renewing heartbeat — after the rush ends,
    /// exactly one per watched colleague.
    lease_timeouts: u64,
    /// Retransmit slots that fired before the ack — zero on a campus
    /// LAN.
    retries_fired: u64,
    writes_sent: u64,
    /// Active presence leases: `(colleague, armed timer)`.
    leases: Vec<(NodeId, TimerId)>,
    /// Pre-armed retry ladders by write sequence.
    ladders: Vec<(u64, Vec<TimerId>)>,
    /// XOR of every payload heard, so received fields are live state.
    checksum: u64,
}

impl AgentScript {
    fn domain(&self) -> u32 {
        self.index % DOMAINS
    }

    /// One same-domain colleague and one colleague in the next domain,
    /// so awareness traffic crosses the federation boundary too.
    fn peers(&self) -> [NodeId; FANOUT] {
        [
            agent_node((self.index + DOMAINS) % self.population),
            agent_node((self.index + 1) % self.population),
        ]
    }
}

impl Actor<CampusMsg> for AgentScript {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CampusMsg>) {
        // The whole agenda is enqueued at arrival — minute-aligned
        // slots shared by every agent, so the scheduler sees the rush
        // as it will happen: huge same-tick bursts over a deep horizon.
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
                // The write landed: reap the whole pre-armed ladder.
                if let Some(at) = self.ladders.iter().position(|(s, _)| *s == write_seq) {
                    let (_, ladder) = self.ladders.swap_remove(at);
                    for id in ladder {
                        ctx.cancel_timer(id);
                    }
                }
            }
            CampusMsg::Presence { slot } => {
                self.presence_heard += 1;
                self.checksum ^= u64::from(slot);
                // Failure-detector churn: every heartbeat cancels and
                // re-arms the sender's lease. Deadlines are rounded up
                // to the next whole second — coarse detector deadlines
                // keep expiries tick-aligned no matter how network
                // jitter scatters the heartbeat arrivals.
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
                ctx.send_sized(
                    workspace_of(self.domain()),
                    CampusMsg::WsWrite {
                        write_seq,
                        len: 16 + self.index % 240,
                    },
                    512,
                );
                self.writes_sent += 1;
                // Pre-arm the retry ladder with per-rung backoff
                // jitter (decorrelated retries, the standard cure for
                // retry storms): the pending set holds millions of
                // scattered instants, the regime that separates the
                // queues.
                let ladder: Vec<TimerId> = (0..RETRIES)
                    .map(|j| {
                        let backoff = ctx.rng().jittered(
                            SimDuration::from_secs(RETRY_GAP_SECS * (j as u64 + 1)),
                            SimDuration::from_secs(3 * RETRY_GAP_SECS / 4),
                        );
                        ctx.set_timer(backoff, RETRY_TAG)
                    })
                    .collect();
                self.ladders.push((write_seq, ladder));
                if slot.is_multiple_of(LOOKUP_EVERY) {
                    // Every fourth lookup is federated to the next domain.
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

/// Builds the campus at the given population on the given queue.
fn campus(seed: u64, agents: u32, queue: QueueKind) -> Sim<CampusMsg> {
    // One campus LAN as the network default link: per-pair topology
    // would cost O(agents^2) link entries for identical specs.
    let mut net = Network::new(LinkSpec::lan());
    net.set_default_link(LinkSpec::lan());
    let mut sim: Sim<CampusMsg> = SimBuilder::new(seed)
        .network(net)
        .queue(queue)
        .telemetry(false)
        .max_events(200_000_000)
        .build();
    for d in 0..DOMAINS {
        sim.add_actor(trader_of(d), TraderDesk { resolved: 0 });
        sim.add_actor(workspace_of(d), Workspace { len: 0, writes: 0 });
    }
    for i in 0..agents {
        sim.add_actor(
            agent_node(i),
            AgentScript {
                index: i,
                population: agents,
                slots_walked: 0,
                lookups_done: 0,
                acks: 0,
                presence_heard: 0,
                lease_timeouts: 0,
                retries_fired: 0,
                writes_sent: 0,
                leases: Vec::new(),
                ladders: Vec::new(),
                checksum: 0,
            },
        );
    }
    sim
}

/// One timed rung: events/sec over the whole rush hour, the events
/// processed, peak queue depth, and the finished sim for auditing.
struct Rung {
    agents: u32,
    events: u64,
    wall_ns: u128,
    events_per_sec: f64,
    peak_pending: usize,
}

fn run_rung(seed: u64, agents: u32, queue: QueueKind) -> Rung {
    let mut sim = campus(seed, agents, queue);
    let start = std::time::Instant::now(); // odp-check: allow(wallclock)
    let outcome = sim.run(Until::Idle);
    let wall_ns = start.elapsed().as_nanos();
    assert_eq!(outcome, RunOutcome::Quiesced, "campus must drain");
    audit(&sim, agents);
    let events = sim.events_processed();
    Rung {
        agents,
        events,
        wall_ns,
        events_per_sec: events as f64 / (wall_ns as f64 / 1e9),
        peak_pending: sim.peak_pending(),
    }
}

/// Cross-checks the finished campus: every trader lookup was answered,
/// every workspace write acked with its retry ladder fully reaped,
/// and every presence lease eventually timed out exactly once per
/// watched colleague (LAN loss is zero, so the counts are exact).
fn audit(sim: &Sim<CampusMsg>, agents: u32) {
    let mut resolved = 0u64;
    let mut ws_writes = 0u64;
    for d in 0..DOMAINS {
        let t: &TraderDesk = sim.get(ActorHandle::of(trader_of(d))).expect("trader");
        resolved += t.resolved;
        let w: &Workspace = sim
            .get(ActorHandle::of(workspace_of(d)))
            .expect("workspace");
        ws_writes += w.writes;
    }
    let mut lookups_done = 0u64;
    let mut acks = 0u64;
    let mut timeouts = 0u64;
    for i in 0..agents {
        let a: &AgentScript = sim.get(ActorHandle::of(agent_node(i))).expect("agent");
        assert_eq!(a.slots_walked, AGENDA, "agent {i} missed agenda slots");
        assert_eq!(
            a.retries_fired, 0,
            "agent {i} saw a retry fire before its ack"
        );
        assert!(a.ladders.is_empty(), "agent {i} holds an unreaped ladder");
        lookups_done += a.lookups_done;
        acks += a.acks;
        timeouts += a.lease_timeouts;
    }
    assert_eq!(resolved, lookups_done, "unanswered trader lookups");
    assert_eq!(ws_writes, acks, "unacked workspace writes");
    assert_eq!(ws_writes, u64::from(agents) * AGENDA);
    let lookups_per_agent = (0..AGENDA)
        .filter(|s| s.is_multiple_of(LOOKUP_EVERY))
        .count() as u64;
    assert_eq!(resolved, u64::from(agents) * lookups_per_agent);
    // After the rush, the final lease per (watcher, colleague) pair
    // fires unrenewed: in-degree equals FANOUT for every agent.
    assert_eq!(timeouts, u64::from(agents) * FANOUT as u64);
}

/// Reads `{"events_per_sec_floor": N}` from the checked-in floor file
/// with a no-dependency scan.
fn read_floor(path: &str) -> f64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("campus_rush_hour: cannot read floor {path}: {e}"));
    let key = "\"events_per_sec_floor\"";
    let at = text.find(key).expect("floor key missing") + key.len();
    let rest = text[at..].trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().expect("floor value unparsable")
}

fn main() {
    let mut out_path = "BENCH_scale.json".to_owned();
    let mut floor_path: Option<String> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--floor" => floor_path = Some(args.next().expect("--floor needs a path")),
            "--quick" => quick = true,
            other => out_path = other.to_owned(),
        }
    }
    let seed = cscw_bench::REPORT_SEED;

    let ladder: Vec<u32> = if quick {
        vec![ACCEPTANCE_AGENTS]
    } else {
        LADDER.to_vec()
    };

    println!(
        "campus at rush hour (seed {seed}, {DOMAINS} domains, {AGENDA} agenda slots, \
         {RETRIES}-deep retry ladders):"
    );
    let mut rungs = Vec::new();
    for &agents in &ladder {
        let r = run_rung(seed, agents, QueueKind::Calendar);
        println!(
            "  {:>6} agents  {:>9} events  {:>7.1} ms  {:>12.0} events/sec  peak queue {}",
            r.agents,
            r.events,
            r.wall_ns as f64 / 1e6,
            r.events_per_sec,
            r.peak_pending,
        );
        rungs.push(r);
    }

    // The legacy baseline replay at the acceptance rung: the identical
    // deterministic run on the pre-refactor BTreeMap engine.
    let legacy = run_rung(seed, ACCEPTANCE_AGENTS, QueueKind::Legacy);
    let accepted = rungs
        .iter()
        .find(|r| r.agents == ACCEPTANCE_AGENTS)
        .expect("acceptance rung must be in the ladder");
    assert_eq!(
        legacy.events, accepted.events,
        "legacy and calendar runs diverged — determinism broken"
    );
    let ratio = accepted.events_per_sec / legacy.events_per_sec;
    println!(
        "  legacy baseline at {ACCEPTANCE_AGENTS} agents: {:>12.0} events/sec — calendar is {ratio:.1}x",
        legacy.events_per_sec,
    );
    if ratio < MIN_RATIO {
        eprintln!("campus_rush_hour: calendar/legacy ratio {ratio:.2} below required {MIN_RATIO}");
        std::process::exit(1);
    }

    // Max sustainable population: the largest rung that still clears
    // half the acceptance rung's throughput (i.e. scaling stays within
    // 2x of linear instead of collapsing).
    let max_sustainable = rungs
        .iter()
        .filter(|r| r.events_per_sec >= accepted.events_per_sec / 2.0)
        .map(|r| r.agents)
        .max()
        .unwrap_or(0);

    if let Some(fp) = &floor_path {
        let floor = read_floor(fp);
        if accepted.events_per_sec < floor * 0.8 {
            eprintln!(
                "campus_rush_hour: {:.0} events/sec regressed >20% below floor {floor:.0}",
                accepted.events_per_sec,
            );
            std::process::exit(1);
        }
        println!(
            "  floor check ok: {:.0} >= 0.8 * {floor:.0}",
            accepted.events_per_sec
        );
    }

    let rung_json: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"agents\":{},\"events\":{},\"wall_ns\":{},\
                 \"events_per_sec\":{:.0},\"peak_pending\":{}}}",
                r.agents, r.events, r.wall_ns, r.events_per_sec, r.peak_pending,
            )
        })
        .collect();
    let json = format!(
        "{{\"workload\":\"campus-rush-hour\",\"seed\":{seed},\"domains\":{DOMAINS},\
         \"agenda_slots\":{AGENDA},\"retry_ladder\":{RETRIES},\"rungs\":[{}],\
         \"events_per_sec\":{:.0},\"peak_pending\":{},\
         \"legacy_events_per_sec\":{:.0},\"ratio_vs_legacy\":{ratio:.2},\
         \"max_sustainable_agents\":{max_sustainable}}}",
        rung_json.join(","),
        accepted.events_per_sec,
        accepted.peak_pending,
        legacy.events_per_sec,
    );
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("campus_rush_hour: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("  max sustainable population {max_sustainable} agents");
    println!("  wrote {out_path}");
}
