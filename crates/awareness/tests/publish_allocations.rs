//! Allocation guard for the rights-gated bus.
//!
//! A gated `EventBus::publish` allocates the output vector, the event's
//! artefact path once, and one owned event per delivery — nothing per
//! rights check. A counting global allocator (per thread, so parallel
//! tests do not interfere) pins that at `deliveries + 2` whatever the
//! number of rules and of suppressed observers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, ObjectPath, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use odp_awareness::bus::{CoopEvent, CoopKind, EventBus};
use odp_awareness::events::ActivityKind;
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A resize counts as an allocation: it may move the block.
        bump();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const OBSERVERS: u32 = 8;

/// A bus with `OBSERVERS` observers; the first `readers` of them may
/// read `doc/*`. `extra_rules` pads the policy with rules on other
/// subtrees and deeper denies that do not apply to `doc/sec/para`.
fn gated_bus(readers: u32, extra_rules: u32) -> EventBus {
    let mut policy = RbacPolicy::new();
    policy.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
    for i in 0..extra_rules {
        policy.add_rule(
            RoleId(2 + i % 3),
            ObjectPath::new(format!("other/{i}")),
            Rights::READ,
            Effect::Allow,
        );
        policy.add_rule(
            RoleId(1),
            ObjectPath::new(format!("doc/sec/para/{i}")),
            Rights::READ,
            Effect::Deny,
        );
    }
    policy.add_inheritance(RoleId(4), RoleId(1));
    for s in 0..OBSERVERS {
        policy.assign(Subject(s), RoleId(if s < readers { 4 } else { 2 }));
    }
    let mut bus = EventBus::new();
    bus.set_policy(policy);
    for s in 0..OBSERVERS {
        bus.register(NodeId(s), 0.0);
    }
    bus
}

/// Publishes one broadcast from observer 0 and returns the deliveries
/// and the allocations the call made.
fn publish_counting(bus: &mut EventBus, artefact: &str) -> (u64, u64) {
    let event = CoopEvent::broadcast(
        NodeId(0),
        artefact,
        SimTime::ZERO,
        CoopKind::Activity(ActivityKind::Edit),
    );
    let before = allocs();
    let out = bus.publish(event);
    let spent = allocs() - before;
    (out.len() as u64, spent)
}

#[test]
fn gated_publish_allocates_only_its_output() {
    for readers in 0..=OBSERVERS {
        for extra_rules in [0, 1, 16, 64] {
            let mut bus = gated_bus(readers, extra_rules);
            let (deliveries, spent) = publish_counting(&mut bus, "doc/sec/para");
            // Observer 0 is the actor; every other reader hears it.
            assert_eq!(deliveries, u64::from(readers.saturating_sub(1)));
            assert!(
                spent <= deliveries + 2,
                "{readers} readers, {extra_rules} extra rules: \
                 {spent} allocations for {deliveries} deliveries"
            );
        }
    }
}

/// An artefact that is not normalised takes the cleaning path (the
/// copied input, a parts vector and the joined result): three
/// allocations once per event, never per observer.
#[test]
fn unnormalised_artefacts_are_parsed_once_per_event() {
    for readers in 0..=OBSERVERS {
        let mut bus = gated_bus(readers, 16);
        let (deliveries, spent) = publish_counting(&mut bus, "/doc//sec/para/");
        assert_eq!(deliveries, u64::from(readers.saturating_sub(1)));
        assert!(
            spent <= deliveries + 4,
            "{readers} readers: {spent} allocations for {deliveries} deliveries"
        );
    }
}
