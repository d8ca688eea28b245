//! Deterministic causal spans.
//!
//! A [`SpanContext`] names one unit of causally-related work: a group
//! RPC, one member's service of it, a trader import, a media frame in
//! flight. Contexts are minted from the simulation's seeded
//! [`DetRng`] — never from a wallclock or an OS entropy source — so a
//! run's entire span graph is a pure function of its seed.
//!
//! Spans ride protocol envelopes through the [`Carrier`] trait, so
//! causality survives multicast fan-out, federation hops and stream
//! binding, and are recorded into the run's binary span log through
//! `span_open` / `span_close` on the actor context. A
//! [`crate::collector::Collector`] assembles them afterwards.

use odp_sim::rng::DetRng;

/// The identity of one span within a causal trace, minted here with
/// [`mint_root`] / [`mint_child`].
///
/// # Examples
///
/// ```
/// use odp_sim::rng::DetRng;
/// use odp_telemetry::span::{mint_child, mint_root};
///
/// let mut rng = DetRng::seed_from(7);
/// let root = mint_root(&mut rng);
/// let child = mint_child(&root, &mut rng);
/// assert_eq!(child.trace_id, root.trace_id);
/// assert_eq!(child.parent, Some(root.span_id));
/// ```
pub use odp_fabric::SpanContext;

/// Mints a fresh root span from the deterministic generator: one draw
/// for the trace id, then one for the span id.
pub fn mint_root(rng: &mut DetRng) -> SpanContext {
    let trace_id = rng.next_u64();
    SpanContext::root_with(trace_id, rng.next_u64())
}

/// Mints a child of `parent` from the deterministic generator (one
/// draw, for the span id).
pub fn mint_child(parent: &SpanContext, rng: &mut DetRng) -> SpanContext {
    parent.child_with(rng.next_u64())
}

/// A protocol envelope that can piggyback a span context.
///
/// Implemented by `odp_groupcomm`'s multicast/RPC envelopes,
/// `odp_trader`'s lookup messages and `odp_streams`' frames; anything
/// that forwards or transforms a carrier should propagate its span so
/// the collector can stitch the hop into the causal DAG.
pub trait Carrier {
    /// The span riding on this envelope, if any.
    fn span(&self) -> Option<SpanContext>;
    /// Attaches (or clears) the riding span.
    fn set_span(&mut self, span: Option<SpanContext>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_net::error::NetError;
    use odp_net::wire::{WireCodec, WireReader};

    #[test]
    fn carrier_roundtrips_with_and_without_parent() {
        for (span, len) in [
            (SpanContext::root_with(0xdead_beef, 1), 17),
            (SpanContext::root_with(7, 3).child_with(u64::MAX), 25),
        ] {
            let mut buf = vec![0xAA]; // leading junk the caller already consumed
            let start = buf.len();
            span.encode(&mut buf);
            assert_eq!(buf.len() - start, len);
            let mut r = WireReader::new(&buf[start..]);
            assert_eq!(SpanContext::decode(&mut r), Ok(span));
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn truncated_and_hostile_bytes_error() {
        let mut buf = Vec::new();
        SpanContext::root_with(1, 3).child_with(2).encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                SpanContext::decode(&mut WireReader::new(&buf[..cut])).is_err(),
                "cut {cut}"
            );
        }
        let mut bad = buf.clone();
        bad[16] = 9; // invalid option tag
        assert_eq!(
            SpanContext::decode(&mut WireReader::new(&bad)),
            Err(NetError::BadTag {
                what: "Option",
                tag: 9
            })
        );
    }

    #[test]
    fn minting_is_deterministic_per_seed() {
        let mut a = DetRng::seed_from(42);
        let mut b = DetRng::seed_from(42);
        let ra = mint_root(&mut a);
        let rb = mint_root(&mut b);
        assert_eq!(ra, rb);
        let child = mint_child(&ra, &mut a);
        assert_eq!(child, mint_child(&rb, &mut b));
        // Draw order: trace id, then span id, then one draw per child.
        let mut raw = DetRng::seed_from(42);
        let trace_id = raw.next_u64();
        assert_eq!(ra, SpanContext::root_with(trace_id, raw.next_u64()));
        assert_eq!(child, ra.child_with(raw.next_u64()));
    }

    #[test]
    fn explicit_ctors_link_parent() {
        let root = SpanContext::root_with(9, 1);
        let child = root.child_with(2);
        assert_eq!(child.trace_id, 9);
        assert_eq!(child.parent, Some(1));
    }
}
