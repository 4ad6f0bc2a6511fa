//! Request-scoped causal tracing: trace contexts.
//!
//! A [`TraceCtx`] is minted (by [`crate::TraceHandle::begin_traced`]) when a
//! guest operation enters a traced plane — an RPC exit round trip, a
//! virtio fast-path publish, an IVC publish — and is carried alongside
//! the request through every hand-off (channel slots, descriptors, ring
//! messages, completion events). Each hop records a child span linked to
//! its parent, so the Chrome-trace export can stitch one request across
//! execution contexts with flow arrows, and the latency-attribution
//! report (see [`crate::attrib`]) can decompose its end-to-end time.
//! When fault recovery fires, the profiler's recovery marks
//! ([`crate::RecoveryMark`]) point into the same spans, so every healed
//! fault comes with the causal trail of the victim request.
//!
//! Determinism contract: contexts derive only from simulated events and
//! are never fed back into scheduling decisions, so enabling tracing
//! leaves same-seed schedules and fingerprints byte-identical.

use crate::profiler::SpanId;

/// A request-scoped causal context: the trace a hop belongs to and the
/// span the next hop should parent itself under.
///
/// `NULL` (the default) marks an untraced request: every carrying field
/// defaults to it, and every span method treats it as "do not
/// link". Contexts are minted only while span capture is enabled, so a
/// disabled run never allocates trace ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceCtx {
    /// Trace id shared by every hop of one request; `0` when untraced.
    pub trace: u64,
    /// The span the next hop should record as its parent.
    pub parent: SpanId,
}

impl TraceCtx {
    /// The untraced context.
    pub const NULL: TraceCtx = TraceCtx {
        trace: 0,
        parent: SpanId::NULL,
    };

    /// Returns `true` for an untraced context.
    pub fn is_null(self) -> bool {
        self.trace == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_ctx_is_default() {
        assert_eq!(TraceCtx::default(), TraceCtx::NULL);
        assert!(TraceCtx::NULL.is_null());
    }
}
