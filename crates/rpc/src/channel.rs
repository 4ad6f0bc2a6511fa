//! The timing-aware shared-memory call channel.

use std::fmt;

use cg_machine::HwParams;
use cg_sim::{SimTime, SpanKind, TraceCtx, TraceHandle, TraceKind};

/// Errors from channel misuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// A request was posted while one was already outstanding.
    Busy,
    /// A response was posted with no request being served.
    NoRequest,
    /// An operation was attempted before the value became visible (the
    /// cache line has not yet transferred) — indicates the caller polled
    /// without honouring the visibility timestamp.
    NotVisible,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ChannelError::Busy => "a request is already outstanding",
            ChannelError::NoRequest => "no request is being served",
            ChannelError::NotVisible => "value not yet visible to this core",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ChannelError {}

/// Phase of the request/response protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// No call in flight.
    Idle,
    /// A request is posted (possibly not yet visible to the server).
    Requested,
    /// The server has taken the request and is working on it.
    Serving,
    /// A response is posted (possibly not yet visible to the client).
    Responded,
}

/// A single-slot RPC channel between one client core and one server core.
///
/// The channel records *when* each value was posted; a reader on another
/// core observes it only once the cache-line transfer has elapsed. This is
/// how the simulation charges realistic costs to busy-wait RPC without
/// simulating individual poll iterations.
///
/// # Example
///
/// ```
/// use cg_machine::HwParams;
/// use cg_rpc::SyncChannel;
/// use cg_sim::SimTime;
///
/// let params = HwParams::small();
/// let mut ch: SyncChannel<u32, u32> = SyncChannel::new();
/// let t0 = SimTime::ZERO;
/// ch.post_request(7, t0).unwrap();
/// // The server can't see it immediately...
/// let visible = ch.request_visible_at(&params).unwrap();
/// assert!(visible > t0);
/// // ...but once the line has transferred, it takes the request.
/// let req = ch.take_request(visible, &params).unwrap();
/// assert_eq!(req, 7);
/// ```
#[derive(Debug)]
pub struct SyncChannel<Req, Resp> {
    state: ChannelState,
    request: Option<(Req, SimTime)>,
    response: Option<(Resp, SimTime)>,
    calls_completed: u64,
    calls_aborted: u64,
    /// Observation handle (disabled by default): records protocol
    /// transitions, and each async leg of a call — request
    /// posted→taken, response posted→taken — as its own span.
    trace: TraceHandle,
    /// Realm/vCPU owning this channel, for trace attribution.
    owner: (u32, u32),
    /// Causal context riding the posted request slot: set by the client
    /// after posting, linking the server-side pickup into the request's
    /// trace. Purely observational — never read by protocol logic.
    req_ctx: TraceCtx,
    /// Causal context riding the posted response slot (set by the
    /// server after posting).
    resp_ctx: TraceCtx,
}

impl<Req, Resp> Default for SyncChannel<Req, Resp> {
    fn default() -> Self {
        SyncChannel::new()
    }
}

impl<Req, Resp> SyncChannel<Req, Resp> {
    /// Creates an idle channel.
    pub fn new() -> SyncChannel<Req, Resp> {
        SyncChannel::with_trace(TraceHandle::disabled(), 0, 0)
    }

    /// Creates an idle channel recording through `trace`, attributed to
    /// realm `realm` / vCPU `vcpu`.
    pub fn with_trace(trace: TraceHandle, realm: u32, vcpu: u32) -> SyncChannel<Req, Resp> {
        SyncChannel {
            state: ChannelState::Idle,
            request: None,
            response: None,
            calls_completed: 0,
            calls_aborted: 0,
            trace,
            owner: (realm, vcpu),
            req_ctx: TraceCtx::NULL,
            resp_ctx: TraceCtx::NULL,
        }
    }

    /// Attaches the causal context of the posted request (client side,
    /// immediately after [`SyncChannel::post_request`]).
    pub fn set_request_ctx(&mut self, ctx: TraceCtx) {
        self.req_ctx = ctx;
    }

    /// The causal context riding the posted request.
    pub fn request_ctx(&self) -> TraceCtx {
        self.req_ctx
    }

    /// Attaches the causal context of the posted response (server side,
    /// immediately after [`SyncChannel::post_response`]).
    pub fn set_response_ctx(&mut self, ctx: TraceCtx) {
        self.resp_ctx = ctx;
    }

    /// The causal context riding the posted response.
    pub fn response_ctx(&self) -> TraceCtx {
        self.resp_ctx
    }

    fn trace_transition(&self, what: &'static str) {
        let (realm, vcpu) = self.owner;
        let state = self.state;
        self.trace
            .record_vm(TraceKind::Rpc, None, Some(realm), Some(vcpu), || {
                format!("chan.{what} -> {state:?}")
            });
    }

    /// Current protocol phase.
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// Number of completed request/response round trips.
    pub fn calls_completed(&self) -> u64 {
        self.calls_completed
    }

    /// Number of calls abandoned mid-protocol by [`SyncChannel::abort`]
    /// or [`SyncChannel::reset`].
    pub fn calls_aborted(&self) -> u64 {
        self.calls_aborted
    }

    /// Client: posts a request at time `now`.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Busy`] if a call is already in flight.
    pub fn post_request(&mut self, req: Req, now: SimTime) -> Result<(), ChannelError> {
        if self.state != ChannelState::Idle {
            return Err(ChannelError::Busy);
        }
        self.request = Some((req, now));
        self.state = ChannelState::Requested;
        self.trace_transition("post_request");
        Ok(())
    }

    /// When the posted request becomes visible to the server core.
    pub fn request_visible_at(&self, params: &HwParams) -> Option<SimTime> {
        self.request
            .as_ref()
            .map(|(_, posted)| *posted + params.cache_line_transfer)
    }

    /// Server: takes the request at time `now`.
    ///
    /// # Errors
    ///
    /// [`ChannelError::NoRequest`] if nothing is posted;
    /// [`ChannelError::NotVisible`] if the request has not yet transferred
    /// to this core.
    pub fn take_request(&mut self, now: SimTime, params: &HwParams) -> Result<Req, ChannelError> {
        if self.state != ChannelState::Requested {
            return Err(ChannelError::NoRequest);
        }
        let visible = self.request_visible_at(params).expect("state Requested");
        if now < visible {
            return Err(ChannelError::NotVisible);
        }
        let (req, posted) = self.request.take().expect("state Requested");
        self.state = ChannelState::Serving;
        self.trace_transition("take_request");
        self.trace.record_span_child(
            SpanKind::RpcRequest,
            None,
            Some(self.owner.0),
            Some(self.owner.1),
            posted,
            now,
            self.req_ctx,
        );
        Ok(req)
    }

    /// Server: posts the response at time `now`.
    ///
    /// # Errors
    ///
    /// [`ChannelError::NoRequest`] unless a request is being served.
    pub fn post_response(&mut self, resp: Resp, now: SimTime) -> Result<(), ChannelError> {
        if self.state != ChannelState::Serving {
            return Err(ChannelError::NoRequest);
        }
        self.response = Some((resp, now));
        self.state = ChannelState::Responded;
        self.trace_transition("post_response");
        Ok(())
    }

    /// When the posted response becomes visible to the client core.
    pub fn response_visible_at(&self, params: &HwParams) -> Option<SimTime> {
        self.response
            .as_ref()
            .map(|(_, posted)| *posted + params.cache_line_transfer)
    }

    /// Client: takes the response at time `now`, completing the call.
    ///
    /// # Errors
    ///
    /// [`ChannelError::NoRequest`] if no response is posted;
    /// [`ChannelError::NotVisible`] before the transfer completes.
    pub fn take_response(&mut self, now: SimTime, params: &HwParams) -> Result<Resp, ChannelError> {
        if self.state != ChannelState::Responded {
            return Err(ChannelError::NoRequest);
        }
        let visible = self.response_visible_at(params).expect("state Responded");
        if now < visible {
            return Err(ChannelError::NotVisible);
        }
        let (resp, posted) = self.response.take().expect("state Responded");
        self.state = ChannelState::Idle;
        self.calls_completed += 1;
        self.trace_transition("take_response");
        self.trace.record_span_child(
            SpanKind::RpcResponse,
            None,
            Some(self.owner.0),
            Some(self.owner.1),
            posted,
            now,
            self.resp_ctx,
        );
        Ok(resp)
    }

    /// Returns `true` if a response is posted (visible or not) — used by
    /// the wake-up thread scanning channels after a doorbell IPI.
    pub fn has_response(&self) -> bool {
        self.state == ChannelState::Responded
    }

    /// Returns `true` if a request is posted (visible or not).
    pub fn has_request(&self) -> bool {
        self.state == ChannelState::Requested
    }

    /// Server: idempotently re-posts an already-posted response at time
    /// `now` — the recovery half of a client retry. Re-writing the same
    /// cache line can only *improve* visibility: the response becomes
    /// visible at the earlier of its original transfer and a fresh
    /// transfer starting now (repairing a delayed/lost first write).
    ///
    /// # Errors
    ///
    /// [`ChannelError::NoRequest`] unless a response is posted.
    pub fn repost_response(&mut self, now: SimTime) -> Result<(), ChannelError> {
        if self.state != ChannelState::Responded {
            return Err(ChannelError::NoRequest);
        }
        let (_, posted) = self.response.as_mut().expect("state Responded");
        *posted = (*posted).min(now);
        self.trace_transition("repost_response");
        Ok(())
    }

    /// Aborts an in-flight call, returning the phase it was abandoned in
    /// (`None` if the channel was already idle). Unlike the bare
    /// [`SyncChannel::reset`] this is the deliberate teardown path the
    /// KVM layer uses: the abandoned call is counted and traced so the
    /// divergence harness sees the protocol state die.
    pub fn abort(&mut self) -> Option<ChannelState> {
        if self.state == ChannelState::Idle {
            return None;
        }
        let prior = self.state;
        self.abandon("abort", prior);
        Some(prior)
    }

    /// Abandons any in-flight call (e.g. vCPU destroyed mid-exit).
    ///
    /// An abandoned in-flight call is counted in
    /// [`SyncChannel::calls_aborted`] and emits a `chan.reset` trace
    /// transition — resetting used to be silent, which left the
    /// divergence harness blind to aborted protocol state.
    pub fn reset(&mut self) {
        if self.state == ChannelState::Idle {
            self.request = None;
            self.response = None;
            return;
        }
        let prior = self.state;
        self.abandon("reset", prior);
    }

    fn abandon(&mut self, what: &'static str, prior: ChannelState) {
        self.state = ChannelState::Idle;
        self.request = None;
        self.response = None;
        self.req_ctx = TraceCtx::NULL;
        self.resp_ctx = TraceCtx::NULL;
        self.calls_aborted += 1;
        let (realm, vcpu) = self.owner;
        self.trace
            .record_vm(TraceKind::Rpc, None, Some(realm), Some(vcpu), || {
                format!("chan.{what} aborted {prior:?} -> Idle")
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_sim::SimDuration;

    fn params() -> HwParams {
        HwParams::small()
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A span store and a handle recording into it.
    fn spans() -> (cg_sim::Profiler, TraceHandle) {
        let (profiler, trace) = (cg_sim::Profiler::capture(), TraceHandle::disabled());
        trace.attach_spans(&profiler);
        (profiler, trace)
    }

    #[test]
    fn full_round_trip() {
        let p = params();
        let mut ch: SyncChannel<&str, &str> = SyncChannel::new();
        assert_eq!(ch.state(), ChannelState::Idle);

        ch.post_request("ping", t(0)).unwrap();
        assert_eq!(ch.state(), ChannelState::Requested);
        assert!(ch.has_request());

        let vis = ch.request_visible_at(&p).unwrap();
        assert_eq!(vis, t(0) + p.cache_line_transfer);
        assert_eq!(ch.take_request(t(1), &p), Err(ChannelError::NotVisible));
        assert_eq!(ch.take_request(vis, &p).unwrap(), "ping");
        assert_eq!(ch.state(), ChannelState::Serving);

        ch.post_response("pong", vis).unwrap();
        assert!(ch.has_response());
        let rvis = ch.response_visible_at(&p).unwrap();
        assert_eq!(ch.take_response(vis, &p), Err(ChannelError::NotVisible));
        assert_eq!(ch.take_response(rvis, &p).unwrap(), "pong");
        assert_eq!(ch.state(), ChannelState::Idle);
        assert_eq!(ch.calls_completed(), 1);
    }

    #[test]
    fn double_request_rejected() {
        let mut ch: SyncChannel<u8, u8> = SyncChannel::new();
        ch.post_request(1, t(0)).unwrap();
        assert_eq!(ch.post_request(2, t(5)), Err(ChannelError::Busy));
    }

    #[test]
    fn response_without_request_rejected() {
        let mut ch: SyncChannel<u8, u8> = SyncChannel::new();
        assert_eq!(ch.post_response(1, t(0)), Err(ChannelError::NoRequest));
        ch.post_request(1, t(0)).unwrap();
        // Still Requested, not Serving.
        assert_eq!(ch.post_response(1, t(0)), Err(ChannelError::NoRequest));
    }

    #[test]
    fn take_response_in_wrong_state_rejected() {
        let p = params();
        let mut ch: SyncChannel<u8, u8> = SyncChannel::new();
        assert_eq!(ch.take_response(t(100), &p), Err(ChannelError::NoRequest));
        assert_eq!(ch.take_request(t(100), &p), Err(ChannelError::NoRequest));
    }

    #[test]
    fn reset_abandons_in_flight_call() {
        let p = params();
        let mut ch: SyncChannel<u8, u8> = SyncChannel::new();
        ch.post_request(1, t(0)).unwrap();
        ch.reset();
        assert_eq!(ch.state(), ChannelState::Idle);
        ch.post_request(2, t(10)).unwrap();
        let vis = ch.request_visible_at(&p).unwrap();
        assert_eq!(ch.take_request(vis, &p).unwrap(), 2);
    }

    #[test]
    fn reset_counts_and_traces_abandoned_calls() {
        let trace = cg_sim::TraceHandle::capture();
        let mut ch: SyncChannel<u8, u8> = SyncChannel::with_trace(trace.clone(), 3, 1);
        // Idle reset: nothing abandoned, nothing counted.
        ch.reset();
        assert_eq!(ch.calls_aborted(), 0);
        // In-flight reset: counted and traced.
        ch.post_request(1, t(0)).unwrap();
        ch.reset();
        assert_eq!(ch.calls_aborted(), 1);
        let records = trace.snapshot();
        let reset_rec = records
            .iter()
            .find(|r| r.detail.contains("chan.reset"))
            .expect("reset must leave a trace record");
        assert!(
            reset_rec.detail.contains("Requested"),
            "record should name the abandoned phase: {}",
            reset_rec.detail
        );
        assert_eq!(reset_rec.realm, Some(3));
        assert_eq!(reset_rec.rec, Some(1));
    }

    #[test]
    fn abort_reports_the_abandoned_phase() {
        let p = params();
        let mut ch: SyncChannel<u8, u8> = SyncChannel::new();
        assert_eq!(ch.abort(), None);
        ch.post_request(1, t(0)).unwrap();
        assert_eq!(ch.abort(), Some(ChannelState::Requested));
        assert_eq!(ch.state(), ChannelState::Idle);
        ch.post_request(2, t(10)).unwrap();
        let vis = ch.request_visible_at(&p).unwrap();
        ch.take_request(vis, &p).unwrap();
        ch.post_response(3, vis).unwrap();
        assert_eq!(ch.abort(), Some(ChannelState::Responded));
        assert_eq!(ch.calls_aborted(), 2);
        assert_eq!(ch.calls_completed(), 0);
    }

    #[test]
    fn repost_response_only_improves_visibility() {
        let p = params();
        let mut ch: SyncChannel<u8, u8> = SyncChannel::new();
        assert_eq!(ch.repost_response(t(0)), Err(ChannelError::NoRequest));
        ch.post_request(1, t(0)).unwrap();
        let vis = ch.request_visible_at(&p).unwrap();
        ch.take_request(vis, &p).unwrap();
        // A (fault-delayed) future-stamped response...
        ch.post_response(2, t(10_000)).unwrap();
        let delayed = ch.response_visible_at(&p).unwrap();
        // ...re-posted now becomes visible from now.
        ch.repost_response(t(500)).unwrap();
        let repaired = ch.response_visible_at(&p).unwrap();
        assert!(repaired < delayed);
        assert_eq!(repaired, t(500) + p.cache_line_transfer);
        // Re-posting *later* than the original post is a no-op.
        ch.repost_response(t(9_999)).unwrap();
        assert_eq!(ch.response_visible_at(&p).unwrap(), repaired);
        assert_eq!(ch.take_response(repaired, &p).unwrap(), 2);
    }

    #[test]
    fn profiler_records_both_legs() {
        let p = params();
        let (profiler, trace) = spans();
        let mut ch: SyncChannel<u8, u8> = SyncChannel::with_trace(trace, 3, 1);
        ch.post_request(1, t(0)).unwrap();
        let vis = ch.request_visible_at(&p).unwrap();
        ch.take_request(vis, &p).unwrap();
        ch.post_response(2, vis).unwrap();
        let rvis = ch.response_visible_at(&p).unwrap();
        ch.take_response(rvis, &p).unwrap();
        let spans = profiler.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::RpcRequest);
        assert_eq!(spans[1].kind, SpanKind::RpcResponse);
        assert_eq!(spans[0].realm, Some(3));
        assert_eq!(spans[0].duration(), p.cache_line_transfer);
    }

    #[test]
    fn ctx_links_channel_legs_into_the_trace() {
        let p = params();
        let (profiler, trace) = spans();
        let mut ch: SyncChannel<u8, u8> = SyncChannel::with_trace(trace.clone(), 1, 0);
        let (root, ctx) = trace.begin_traced(SpanKind::ExitRoundTrip, Some(1), Some(1), Some(0));
        ch.post_request(1, t(0)).unwrap();
        ch.set_request_ctx(ctx);
        assert_eq!(ch.request_ctx(), ctx);
        let vis = ch.request_visible_at(&p).unwrap();
        ch.take_request(vis, &p).unwrap();
        trace.end(root);
        let spans = profiler.snapshot();
        let req = spans
            .iter()
            .find(|s| s.kind == SpanKind::RpcRequest)
            .unwrap();
        assert_eq!(req.trace, ctx.trace);
        assert_eq!(req.parent, 1, "request leg parents under the root span");
        // Abandoning the call clears the carried contexts.
        ch.post_response(2, vis).unwrap();
        ch.set_response_ctx(ctx);
        ch.abort();
        assert!(ch.response_ctx().is_null());
        assert!(ch.request_ctx().is_null());
    }

    #[test]
    fn multiple_round_trips_count() {
        let p = params();
        let mut ch: SyncChannel<u64, u64> = SyncChannel::new();
        let mut now = t(0);
        for i in 0..10 {
            ch.post_request(i, now).unwrap();
            now = ch.request_visible_at(&p).unwrap();
            let r = ch.take_request(now, &p).unwrap();
            ch.post_response(r * 2, now).unwrap();
            now = ch.response_visible_at(&p).unwrap();
            assert_eq!(ch.take_response(now, &p).unwrap(), i * 2);
            now += SimDuration::nanos(50);
        }
        assert_eq!(ch.calls_completed(), 10);
    }
}
