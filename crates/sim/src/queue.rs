//! Event queues for the engine: a monotone radix heap (default) and
//! the pre-refactor `BTreeMap` queue (retained for differential
//! testing and as the scale-bench baseline).
//!
//! Both implementations drain events in exactly the same `(time, seq)`
//! total order, so a run is bit-identical regardless of which queue it
//! executes on — the radix heap only changes *how fast* the order is
//! produced, never the order itself. See DESIGN.md §10 for the
//! determinism argument.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

use crate::net::NodeId;
use crate::time::SimTime;

/// Which event-queue implementation a [`crate::sim::Sim`] runs on.
///
/// Selected at construction via
/// [`SimBuilder::queue`](crate::sim::SimBuilder::queue); the default is
/// [`QueueKind::Calendar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The fast engine path: a monotone radix heap keyed on event time
    /// (amortized O(1) insert, at most 64 moves per event before its
    /// pop) with arena-dispatched actors. It keeps the name of the
    /// calendar queue it replaced because benchmarks, tests and the
    /// explorer smoke suite select the default engine by this name.
    #[default]
    Calendar,
    /// The pre-refactor engine path: a `BTreeMap<(SimTime, seq)>` event
    /// queue and map-indexed actor dispatch. Retained so differential
    /// tests and `campus_rush_hour` can replay identical schedules
    /// through both engines and compare.
    Legacy,
}

/// Payload-independent description of a queued event. Stored alongside
/// each entry so [`crate::sim::Sim::pending_events`] and the lazily
/// armed explorer index can describe events without touching payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvMeta {
    Start(NodeId),
    Deliver { from: NodeId, to: NodeId },
    Timer(NodeId),
    NetChange,
}

/// One queued event with its total-order key and description.
pub(crate) struct QueueEntry<T> {
    pub time: SimTime,
    pub seq: u64,
    pub meta: EvMeta,
    pub payload: T,
}

/// A monotone radix heap over event time (Ahuja, Mehlhorn, Orlin &
/// Tarjan, J. ACM 1990).
///
/// `last` is the time of the most recent min-pop, and no queued entry
/// is earlier. Entries at exactly `last` wait in `head`; any other
/// entry sits in bucket `64 - (time ^ last).leading_zeros()` (stored at
/// `buckets[b - 1]`), the position of the highest bit in which its time
/// differs from `last`. A bucket's entries therefore all precede every
/// entry of a higher bucket, and `occupied` (bit `b - 1` set iff bucket
/// `b` is non-empty) finds the lowest one with one `trailing_zeros`.
///
/// When `head` runs dry, a pop moves `last` to the lowest bucket's
/// minimum and redistributes that bucket around it: entries at the new
/// `last` go to `head`, the rest to strictly lower buckets. Higher
/// buckets keep their index, since the new `last` agrees with the old
/// one above the redistributed bit. Each entry therefore moves at most
/// 64 times over its life, and nothing needs tuning.
///
/// Every bucket, and `head`, stays in `seq` order: seqs are assigned
/// in enqueue order, inserts append, redistribution fills empty lower
/// buckets in the order it reads, and removal shifts rather than swaps.
/// Draining `head` front to back is exactly `(time, seq)` order.
pub(crate) struct RadixHeap<T> {
    head: VecDeque<QueueEntry<T>>,
    buckets: [Vec<QueueEntry<T>>; 64],
    occupied: u64,
    last: SimTime,
    len: usize,
    /// Ordered `(time, seq) -> meta` side index, armed lazily by the
    /// first `pending_events`/`step_nth` call and mirrored on every
    /// insert/remove thereafter. Explorer workloads pay O(log n) per
    /// queue operation for O(k) ordered traversal and O(log n)
    /// arbitrary-rank lookup; plain runs never build it.
    index: RefCell<Option<BTreeMap<(SimTime, u64), EvMeta>>>,
}

impl<T> RadixHeap<T> {
    fn new() -> Self {
        RadixHeap {
            head: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: SimTime::ZERO,
            len: 0,
            index: RefCell::new(None),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The bucket `time` belongs in relative to `last`; 0 means `head`.
    fn bucket_of(&self, time: SimTime) -> usize {
        64 - (time.as_micros() ^ self.last.as_micros()).leading_zeros() as usize
    }

    fn place(&mut self, e: QueueEntry<T>) {
        match self.bucket_of(e.time) {
            0 => self.head.push_back(e),
            b => {
                self.buckets[b - 1].push(e);
                self.occupied |= 1 << (b - 1);
            }
        }
    }

    fn insert(&mut self, e: QueueEntry<T>) {
        // The engine only schedules at or after `now`, and `last` never
        // passes `now`. An earlier key would land in the wrong bucket
        // and silently reorder the drain, so this stays a hard check.
        assert!(
            e.time >= self.last,
            "event at {:?} queued before the last popped time {:?}",
            e.time,
            self.last
        );
        if let Some(idx) = self.index.get_mut() {
            idx.insert((e.time, e.seq), e.meta);
        }
        self.len += 1;
        self.place(e);
    }

    /// Refills the empty `head` from the lowest non-empty bucket, iff
    /// that bucket's minimum is due at or before `limit`. A deadline
    /// miss leaves `last` alone, so later injections before the next
    /// queued event stay legal inserts.
    fn refill(&mut self, limit: SimTime) -> bool {
        debug_assert!(self.head.is_empty());
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize;
        let min = self.buckets[b]
            .iter()
            .map(|e| e.time)
            .min()
            .expect("an occupied bucket holds entries");
        if min > limit {
            return false;
        }
        self.last = min;
        self.occupied &= !(1 << b);
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        for e in bucket.drain(..) {
            self.place(e);
        }
        // Hand the emptied vector back so its capacity is reused.
        self.buckets[b] = bucket;
        true
    }

    fn pop_first_at_or_before(&mut self, limit: SimTime) -> Option<QueueEntry<T>> {
        if self.head.is_empty() {
            if !self.refill(limit) {
                return None;
            }
        } else if self.last > limit {
            return None;
        }
        let e = self.head.pop_front()?;
        self.len -= 1;
        if let Some(idx) = self.index.get_mut() {
            idx.remove(&(e.time, e.seq));
        }
        Some(e)
    }

    fn peek_key(&self) -> Option<(SimTime, u64)> {
        if let Some(front) = self.head.front() {
            return Some((front.time, front.seq));
        }
        if self.occupied == 0 {
            return None;
        }
        // The bucket is seq-ordered and `min_by_key` keeps the first of
        // equal minima, so this is the least seq at the least time.
        let b = self.occupied.trailing_zeros() as usize;
        self.buckets[b]
            .iter()
            .min_by_key(|e| e.time)
            .map(|e| (e.time, e.seq))
    }

    fn remove_key(&mut self, time: SimTime, seq: u64) -> Option<QueueEntry<T>> {
        let e = match self.bucket_of(time) {
            0 => {
                let i = self.head.iter().position(|e| e.seq == seq)?;
                self.head.remove(i)?
            }
            b => {
                let bucket = &mut self.buckets[b - 1];
                let i = bucket.iter().position(|e| e.seq == seq)?;
                // `remove`, never `swap_remove`: the bucket must stay in
                // seq order.
                let e = bucket.remove(i);
                if bucket.is_empty() {
                    self.occupied &= !(1 << (b - 1));
                }
                e
            }
        };
        self.len -= 1;
        if let Some(idx) = self.index.get_mut() {
            idx.remove(&(e.time, e.seq));
        }
        Some(e)
    }

    fn remove_nth(&mut self, n: usize) -> Option<QueueEntry<T>> {
        self.arm_index();
        let key = self
            .index
            .borrow()
            .as_ref()
            .and_then(|idx| idx.keys().nth(n).copied())?;
        self.remove_key(key.0, key.1)
    }

    fn arm_index(&self) {
        let mut idx = self.index.borrow_mut();
        if idx.is_some() {
            return;
        }
        let entries = self.head.iter().chain(self.buckets.iter().flatten());
        *idx = Some(entries.map(|e| ((e.time, e.seq), e.meta)).collect());
    }

    fn for_each_in_order(&self, mut f: impl FnMut(SimTime, u64, EvMeta)) {
        self.arm_index();
        if let Some(idx) = self.index.borrow().as_ref() {
            for (&(time, seq), &meta) in idx {
                f(time, seq, meta);
            }
        }
    }
}

/// The engine-facing queue: one API, two implementations, identical
/// drain order.
pub(crate) enum EventQueue<T> {
    /// Boxed: 64 inline bucket headers would make every `EventQueue`
    /// (and `Sim`) ~1.6 KB wider.
    Radix(Box<RadixHeap<T>>),
    Legacy(BTreeMap<(SimTime, u64), (EvMeta, T)>),
}

impl<T> EventQueue<T> {
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Calendar => EventQueue::Radix(Box::new(RadixHeap::new())),
            QueueKind::Legacy => EventQueue::Legacy(BTreeMap::new()),
        }
    }

    pub fn kind(&self) -> QueueKind {
        match self {
            EventQueue::Radix(_) => QueueKind::Calendar,
            EventQueue::Legacy(_) => QueueKind::Legacy,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            EventQueue::Radix(q) => q.len(),
            EventQueue::Legacy(map) => map.len(),
        }
    }

    pub fn insert(&mut self, time: SimTime, seq: u64, meta: EvMeta, payload: T) {
        match self {
            EventQueue::Radix(q) => q.insert(QueueEntry {
                time,
                seq,
                meta,
                payload,
            }),
            EventQueue::Legacy(map) => {
                map.insert((time, seq), (meta, payload));
            }
        }
    }

    pub fn pop_first(&mut self) -> Option<QueueEntry<T>> {
        self.pop_first_at_or_before(SimTime::MAX)
    }

    /// Pops the earliest event iff it is due at or before `limit` — the
    /// single-scan primitive behind both `run(Until::Idle)` and the
    /// deadline-bounded runs.
    pub fn pop_first_at_or_before(&mut self, limit: SimTime) -> Option<QueueEntry<T>> {
        match self {
            EventQueue::Radix(q) => q.pop_first_at_or_before(limit),
            EventQueue::Legacy(map) => {
                let (&(time, _), _) = map.first_key_value()?;
                if time > limit {
                    return None;
                }
                map.pop_first()
                    .map(|((time, seq), (meta, payload))| QueueEntry {
                        time,
                        seq,
                        meta,
                        payload,
                    })
            }
        }
    }

    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        match self {
            EventQueue::Radix(q) => q.peek_key(),
            EventQueue::Legacy(map) => map.keys().next().copied(),
        }
    }

    /// Removes the `n`-th queued event in `(time, seq)` order.
    pub fn remove_nth(&mut self, n: usize) -> Option<QueueEntry<T>> {
        match self {
            EventQueue::Radix(q) => q.remove_nth(n),
            EventQueue::Legacy(map) => {
                let key = map.keys().nth(n).copied()?;
                map.remove(&key).map(|(meta, payload)| QueueEntry {
                    time: key.0,
                    seq: key.1,
                    meta,
                    payload,
                })
            }
        }
    }

    /// Visits every queued event's `(time, seq, meta)` in drain order.
    pub fn for_each_in_order(&self, mut f: impl FnMut(SimTime, u64, EvMeta)) {
        match self {
            EventQueue::Radix(q) => q.for_each_in_order(f),
            EventQueue::Legacy(map) => {
                for (&(time, seq), &(meta, _)) in map.iter() {
                    f(time, seq, meta);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [QueueKind; 2] = [QueueKind::Calendar, QueueKind::Legacy];

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn entry(us: u64, seq: u64) -> (SimTime, u64, EvMeta, u64) {
        (t(us), seq, EvMeta::Timer(NodeId(0)), seq)
    }

    fn drain(q: &mut EventQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_first() {
            out.push((e.time.as_micros(), e.seq));
        }
        out
    }

    #[test]
    fn calendar_drains_in_time_seq_order() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        let times = [5_000u64, 10, 99_000, 10, 0, 5_000, 1 << 44];
        for (seq, &us) in times.iter().enumerate() {
            let (time, seq, meta, payload) = entry(us, seq as u64);
            q.insert(time, seq, meta, payload);
        }
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &us)| (us, s as u64))
            .collect();
        expect.sort();
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn calendar_matches_legacy_on_random_workload() {
        let mut cal = EventQueue::new(QueueKind::Calendar);
        let mut leg = EventQueue::new(QueueKind::Legacy);
        // A deterministic pseudo-random mix of inserts and pops.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut low_water = 0u64; // pops only move forward in time
        for seq in 0..2_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(seq);
            let us = low_water + (state >> 33) % 1_000_000;
            let (time, s, meta, payload) = entry(us, seq);
            cal.insert(time, s, meta, payload);
            leg.insert(time, s, meta, payload);
            if state & 3 == 0 {
                let a = cal.pop_first().map(|e| (e.time, e.seq, e.payload));
                let b = leg.pop_first().map(|e| (e.time, e.seq, e.payload));
                assert_eq!(a, b);
                if let Some((popped, _, _)) = a {
                    low_water = popped.as_micros();
                }
            }
        }
        assert_eq!(drain(&mut cal), drain(&mut leg));
    }

    #[test]
    fn same_tick_inserts_during_batch_stay_in_seq_order() {
        for kind in KINDS {
            let mut q = EventQueue::new(kind);
            // A later event first, so the tick-100 entries start out in
            // a bucket rather than in `head`.
            q.insert(t(200), 0, EvMeta::NetChange, 0);
            for s in 1..5u64 {
                let (time, seq, meta, payload) = entry(100, s);
                q.insert(time, seq, meta, payload);
            }
            // Pop one: moves the 4-event tick 100 into `head`.
            let first = q.pop_first().expect("queued");
            assert_eq!((first.time, first.seq), (t(100), 1));
            // While `head` drains, enqueue two more at the same tick.
            for s in 10..12u64 {
                let (time, seq, meta, payload) = entry(100, s);
                q.insert(time, seq, meta, payload);
            }
            let rest: Vec<u64> = std::iter::from_fn(|| q.pop_first().map(|e| e.seq)).collect();
            assert_eq!(rest, vec![2, 3, 4, 10, 11, 0], "{kind:?}");
        }
    }

    #[test]
    fn remove_nth_and_ordered_traversal_agree_with_legacy() {
        let mut cal = EventQueue::new(QueueKind::Calendar);
        let mut leg = EventQueue::new(QueueKind::Legacy);
        for (seq, us) in [(0u64, 300u64), (1, 100), (2, 200), (3, 100), (4, 700)] {
            cal.insert(t(us), seq, EvMeta::NetChange, seq);
            leg.insert(t(us), seq, EvMeta::NetChange, seq);
        }
        let mut cal_keys = Vec::new();
        let mut leg_keys = Vec::new();
        cal.for_each_in_order(|time, seq, _| cal_keys.push((time, seq)));
        leg.for_each_in_order(|time, seq, _| leg_keys.push((time, seq)));
        assert_eq!(cal_keys, leg_keys);
        // Remove the 2nd-smallest from both; drains must still agree.
        let a = cal.remove_nth(2).expect("in range");
        let b = leg.remove_nth(2).expect("in range");
        assert_eq!((a.time, a.seq), (b.time, b.seq));
        assert!(cal.remove_nth(9).is_none());
        assert!(leg.remove_nth(9).is_none());
        assert_eq!(drain(&mut cal), drain(&mut leg));
    }

    #[test]
    fn index_stays_consistent_across_inserts_after_arming() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        for s in 0..8u64 {
            q.insert(t(s * 10), s, EvMeta::NetChange, s);
        }
        // Arm the index, then keep inserting and popping through it.
        let mut seen = Vec::new();
        q.for_each_in_order(|_, seq, _| seen.push(seq));
        assert_eq!(seen.len(), 8);
        q.insert(t(5), 100, EvMeta::NetChange, 100);
        let first = q.pop_first().expect("nonempty");
        assert_eq!(first.seq, 0, "t=0 precedes the late t=5 insert");
        let mut after = Vec::new();
        q.for_each_in_order(|_, seq, _| after.push(seq));
        assert_eq!(after[0], 100, "armed index saw the new insert");
        assert_eq!(after.len(), 8);
    }

    #[test]
    fn wide_spread_drains_sorted_through_growth() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        // Thousands of entries over a 50 s span, so redistributions
        // cascade through many bucket levels.
        let n = 10_000u64;
        for s in 0..n {
            let us = (s * 7_919) % 50_000_000;
            q.insert(t(us), s, EvMeta::NetChange, s);
        }
        assert_eq!(q.len(), n as usize);
        let drained = drain(&mut q);
        assert_eq!(drained.len(), n as usize);
        assert!(drained.windows(2).all(|w| w[0] <= w[1]), "sorted drain");
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        for kind in KINDS {
            let mut q = EventQueue::new(kind);
            // Far apart, up to the largest key: each lands in a
            // different high bucket.
            q.insert(SimTime::MAX, 0, EvMeta::NetChange, 0);
            q.insert(t(1 << 50), 1, EvMeta::NetChange, 1);
            q.insert(t(0), 2, EvMeta::NetChange, 2);
            q.insert(t(1 << 30), 3, EvMeta::NetChange, 3);
            q.insert(SimTime::MAX, 4, EvMeta::NetChange, 4);
            assert_eq!(
                drain(&mut q),
                vec![
                    (0, 2),
                    (1 << 30, 3),
                    (1 << 50, 1),
                    (u64::MAX, 0),
                    (u64::MAX, 4)
                ],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn deadline_bounded_pop_leaves_later_events() {
        for kind in KINDS {
            let mut q = EventQueue::new(kind);
            q.insert(t(10), 0, EvMeta::NetChange, 0);
            q.insert(t(20), 1, EvMeta::NetChange, 1);
            q.insert(t(10), 2, EvMeta::NetChange, 2);
            assert!(q.pop_first_at_or_before(t(5)).is_none());
            assert_eq!(q.pop_first_at_or_before(t(10)).map(|e| e.seq), Some(0));
            // A limit below the tick already being drained.
            assert!(q.pop_first_at_or_before(t(9)).is_none());
            assert_eq!(q.pop_first_at_or_before(t(15)).map(|e| e.seq), Some(2));
            assert!(q.pop_first_at_or_before(t(15)).is_none());
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_key(), Some((t(20), 1)));
        }
    }

    #[test]
    fn removing_from_a_bucket_keeps_same_time_entries_in_seq_order() {
        for kind in KINDS {
            let mut q = EventQueue::new(kind);
            // Pop t=0 so the rest share one bucket rather than `head`;
            // t=900 goes in first so the bucket ends in t=700 entries.
            q.insert(t(0), 0, EvMeta::NetChange, 0);
            q.insert(t(900), 1, EvMeta::NetChange, 1);
            for s in 2..7u64 {
                q.insert(t(700), s, EvMeta::NetChange, s);
            }
            assert_eq!(q.pop_first().map(|e| e.seq), Some(0));
            // Rank 1 is (700, seq 3), in the middle of the bucket.
            assert_eq!(q.remove_nth(1).map(|e| e.seq), Some(3), "{kind:?}");
            assert_eq!(
                drain(&mut q),
                vec![(700, 2), (700, 4), (700, 5), (700, 6), (900, 1)],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn injection_after_a_deadline_miss_drains_first() {
        use crate::actor::{Actor, Ctx};
        use crate::sim::{RunOutcome, SimBuilder, Until};

        struct Sink;
        impl Actor<u32> for Sink {
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        }

        for kind in KINDS {
            let mut sim = SimBuilder::new(1).queue(kind).build();
            sim.add_actor(NodeId(0), Sink);
            sim.inject(t(1_000), NodeId(0), NodeId(0), 1);
            let d = t(500);
            assert_eq!(sim.run(Until::At(d)), RunOutcome::DeadlineHit);
            assert_eq!(sim.now(), d);
            // Earlier than the queued t=1000 event: a deadline miss
            // must not have moved the queue past it.
            sim.inject(t(501), NodeId(0), NodeId(0), 2);
            let mut times = Vec::new();
            while sim.step() {
                times.extend(sim.last_executed().map(|e| e.desc.time()));
            }
            assert_eq!(times, vec![t(501), t(1_000)], "{kind:?}");
        }
    }
}
