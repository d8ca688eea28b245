#![warn(missing_docs)]

//! # odp-fabric — the zero-copy message fabric
//!
//! The delivery hot path moves three kinds of data millions of times
//! per run: envelope payloads (multicast fan-out clones one payload per
//! peer), telemetry span records (two per instrumented hop), and small
//! ordered maps that exist only so iteration order is deterministic.
//! This crate provides the byte-oriented primitives every
//! envelope-carrying crate shares, and *nothing else* — it sits below
//! `odp-sim` in the dependency graph and deliberately depends on no
//! other workspace crate, which is why times are raw microsecond `u64`s
//! and nodes raw `u32`s here (the sim layer re-exports them with its
//! `SimTime`/`NodeId` vocabulary).
//!
//! Three pieces:
//!
//! - [`Payload`](bytes::Payload): cheaply-cloneable Arc-backed shared
//!   bytes with copy-on-write. Fan-out to N peers bumps a refcount N
//!   times instead of copying the body N times; the first writer to a
//!   shared buffer pays one copy.
//! - [`SpanContext`] + [`SpanLog`]: the one span identity every layer
//!   records and carries, and the binary log it is recorded into.
//!   Kinds are interned to a small [`KindId`]; one span record is a
//!   fixed-size push.
//! - [`SortedVecMap`](map::SortedVecMap): a binary-searched sorted
//!   vector with the `BTreeMap` API subset the hot sites use. Sound
//!   wherever the map is small-to-medium and iteration order (not
//!   asymptotic insert/remove) is what the BTreeMap was buying —
//!   retransmit buffers, observer registries, lookup caches.

pub mod bytes;
pub mod map;
pub mod span;

pub use bytes::Payload;
pub use map::SortedVecMap;
pub use span::{KindId, SpanContext, SpanEvent, SpanLog, SpanOp};

/// Everything a consuming crate usually wants.
pub mod prelude {
    pub use crate::bytes::Payload;
    pub use crate::map::SortedVecMap;
    pub use crate::span::{KindId, SpanContext, SpanEvent, SpanLog, SpanOp};
}
