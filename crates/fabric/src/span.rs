//! The span identity and the binary span log.
//!
//! A [`SpanContext`] names one unit of causally-related work: a group
//! RPC, one member's service of it, a trader import, a media frame in
//! flight. It lives here, below the simulator, so the sim's trace, the
//! transport contexts and every instrumented actor share one type.
//!
//! A span record is one fixed-size push into a [`SpanLog`]: the ids
//! travel as raw `u64`s and the kind string is interned once per
//! distinct kind into a [`KindId`].

/// The identity of one span within a causal trace.
///
/// `trace_id` groups every span descending from one root; `span_id` is
/// unique within the run; `parent` is the causally preceding span's id
/// (`None` for a root).
///
/// # Examples
///
/// ```
/// use odp_fabric::span::SpanContext;
///
/// let root = SpanContext::root_with(9, 1);
/// let child = root.child_with(2);
/// assert_eq!(child.trace_id, root.trace_id);
/// assert_eq!(child.parent, Some(root.span_id));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanContext {
    /// Groups all spans of one causal trace.
    pub trace_id: u64,
    /// This span's unique id.
    pub span_id: u64,
    /// The parent span's id, if any.
    pub parent: Option<u64>,
}

impl SpanContext {
    /// Builds a root span from explicit ids (for counter-based minting
    /// where no rng is in scope, e.g. session engines).
    pub fn root_with(trace_id: u64, span_id: u64) -> Self {
        SpanContext {
            trace_id,
            span_id,
            parent: None,
        }
    }

    /// Builds a child of `self` from an explicit id.
    pub fn child_with(&self, span_id: u64) -> Self {
        SpanContext {
            trace_id: self.trace_id,
            span_id,
            parent: Some(self.span_id),
        }
    }
}

/// An interned span-kind: index into a [`SpanLog`]'s kind table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KindId(pub u16);

/// One span operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOp {
    /// A span opened, with its interned kind.
    Open {
        /// The span identity.
        span: SpanContext,
        /// Which kind, resolvable via [`SpanLog::kind`].
        kind: KindId,
    },
    /// A span closed.
    Close {
        /// The trace the closing span belongs to.
        trace_id: u64,
        /// The closing span's id.
        span_id: u64,
    },
}

/// One timestamped span record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event time in microseconds since the epoch of the owning run.
    pub time_us: u64,
    /// The recording node's raw id.
    pub node: u32,
    /// What happened.
    pub op: SpanOp,
}

/// The append-only binary span log: a kind-interning table plus a flat
/// vector of fixed-size [`SpanEvent`]s. Recording a span is one
/// (amortised) allocation-free push; the collector resolves kinds back
/// to strings after the run.
///
/// ```
/// use odp_fabric::span::{SpanContext, SpanLog, SpanOp};
///
/// let mut log = SpanLog::new();
/// let root = SpanContext::root_with(1, 10);
/// log.open(0, 0, root, "rpc.call");
/// log.close(250, 0, 1, 10);
/// assert_eq!(log.len(), 2);
/// let SpanOp::Open { kind, .. } = log.events()[0].op else { panic!() };
/// assert_eq!(log.kind(kind), "rpc.call");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    kinds: Vec<String>,
    events: Vec<SpanEvent>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Interns `kind`, returning the existing id when seen before. The
    /// table is scanned linearly — real workloads have a handful of
    /// distinct kinds, and first-use order keeps ids deterministic.
    /// Beyond `u16::MAX` distinct kinds new entries collapse onto the
    /// last id rather than growing unboundedly.
    pub fn intern(&mut self, kind: &str) -> KindId {
        if let Some(at) = self.kinds.iter().position(|k| k == kind) {
            return KindId(at as u16);
        }
        if self.kinds.len() > usize::from(u16::MAX) {
            return KindId(u16::MAX);
        }
        self.kinds.push(kind.to_owned());
        KindId((self.kinds.len() - 1) as u16)
    }

    /// Resolves an interned kind; `"?"` for an id this log never issued.
    pub fn kind(&self, id: KindId) -> &str {
        self.kinds
            .get(usize::from(id.0))
            .map_or("?", String::as_str)
    }

    /// Records a span open.
    pub fn open(&mut self, time_us: u64, node: u32, span: SpanContext, kind: &str) {
        let kind = self.intern(kind);
        self.events.push(SpanEvent {
            time_us,
            node,
            op: SpanOp::Open { span, kind },
        });
    }

    /// Records a span close.
    pub fn close(&mut self, time_us: u64, node: u32, trace_id: u64, span_id: u64) {
        self.events.push(SpanEvent {
            time_us,
            node,
            op: SpanOp::Close { trace_id, span_id },
        });
    }

    /// The events, in record order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// The interned kind table, in first-use order.
    pub fn kinds(&self) -> &[String] {
        &self.kinds
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all events and interned kinds.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_first_use_ordered_and_stable() {
        let mut log = SpanLog::new();
        let a = log.intern("gc.mcast");
        let b = log.intern("gc.deliver");
        assert_eq!(log.intern("gc.mcast"), a);
        assert_ne!(a, b);
        assert_eq!(log.kind(a), "gc.mcast");
        assert_eq!(log.kind(KindId(999)), "?");
    }

    #[test]
    fn open_close_record_in_order() {
        let mut log = SpanLog::new();
        log.open(5, 2, SpanContext::root_with(1, 1), "k");
        log.close(9, 2, 1, 1);
        assert_eq!(log.len(), 2);
        assert!(matches!(
            log.events()[1].op,
            SpanOp::Close {
                trace_id: 1,
                span_id: 1
            }
        ));
        log.clear();
        assert!(log.is_empty());
        assert!(log.kinds().is_empty());
    }
}
