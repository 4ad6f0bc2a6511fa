//! Property test: the [`cg_rpc::SyncChannel`] request/response protocol
//! against a reference state machine.
//!
//! Arbitrary interleavings of client/server operations — including
//! mis-sequenced calls and premature takes that have not honoured the
//! cache-line visibility timestamp — must only ever produce the three
//! documented errors ([`ChannelError::Busy`], [`ChannelError::NoRequest`],
//! [`ChannelError::NotVisible`]), and the channel must agree with the
//! model after every step: no lost values, no phantom responses, no
//! inconsistent phase.

use cg_machine::HwParams;
use cg_rpc::{CallAborted, ChannelError, ChannelState, RetryPolicy, SyncChannel};
use cg_sim::{FaultInjector, FaultPlan, SimDuration, SimTime};
use proptest::prelude::*;

/// One step of the interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Client posts a request carrying `payload`.
    PostRequest(u64),
    /// Server attempts to take the request; if `wait` it first advances
    /// time past the visibility horizon, otherwise it may poll too early.
    TakeRequest { wait: bool },
    /// Server posts a response carrying `payload`.
    PostResponse(u64),
    /// Client attempts to take the response (same `wait` semantics).
    TakeResponse { wait: bool },
    /// Let simulated time pass.
    Advance(u64),
    /// Abandon any in-flight call (vCPU teardown path).
    Reset,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1_000_000).prop_map(Op::PostRequest),
        prop::bool::ANY.prop_map(|wait| Op::TakeRequest { wait }),
        (0u64..1_000_000).prop_map(Op::PostResponse),
        prop::bool::ANY.prop_map(|wait| Op::TakeResponse { wait }),
        (0u64..2_000).prop_map(Op::Advance),
        Just(Op::Reset),
    ]
}

/// The reference model: the protocol phase plus the in-flight payloads
/// and their post times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Idle,
    Requested { payload: u64, posted: SimTime },
    Serving { request: u64 },
    Responded { payload: u64, posted: SimTime },
}

impl Model {
    fn state(&self) -> ChannelState {
        match self {
            Model::Idle => ChannelState::Idle,
            Model::Requested { .. } => ChannelState::Requested,
            Model::Serving { .. } => ChannelState::Serving,
            Model::Responded { .. } => ChannelState::Responded,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn channel_agrees_with_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let params = HwParams::small();
        let transfer = params.cache_line_transfer;
        let mut ch: SyncChannel<u64, u64> = SyncChannel::new();
        let mut model = Model::Idle;
        let mut now = SimTime::ZERO;
        let mut completed = 0u64;

        for op in ops {
            match op {
                Op::Advance(ns) => now += SimDuration::nanos(ns),
                Op::PostRequest(payload) => {
                    let got = ch.post_request(payload, now);
                    match model {
                        Model::Idle => {
                            prop_assert_eq!(got, Ok(()));
                            model = Model::Requested { payload, posted: now };
                        }
                        _ => prop_assert_eq!(got, Err(ChannelError::Busy)),
                    }
                }
                Op::TakeRequest { wait } => {
                    if wait {
                        if let Some(v) = ch.request_visible_at(&params) {
                            now = now.max(v);
                        }
                    }
                    let got = ch.take_request(now, &params);
                    match model {
                        Model::Requested { payload, posted } => {
                            if now < posted + transfer {
                                prop_assert_eq!(got, Err(ChannelError::NotVisible));
                            } else {
                                prop_assert_eq!(got, Ok(payload));
                                model = Model::Serving { request: payload };
                            }
                        }
                        _ => prop_assert_eq!(got, Err(ChannelError::NoRequest)),
                    }
                }
                Op::PostResponse(payload) => {
                    let got = ch.post_response(payload, now);
                    match model {
                        Model::Serving { .. } => {
                            prop_assert_eq!(got, Ok(()));
                            model = Model::Responded { payload, posted: now };
                        }
                        _ => prop_assert_eq!(got, Err(ChannelError::NoRequest)),
                    }
                }
                Op::TakeResponse { wait } => {
                    if wait {
                        if let Some(v) = ch.response_visible_at(&params) {
                            now = now.max(v);
                        }
                    }
                    let got = ch.take_response(now, &params);
                    match model {
                        Model::Responded { payload, posted } => {
                            if now < posted + transfer {
                                prop_assert_eq!(got, Err(ChannelError::NotVisible));
                            } else {
                                prop_assert_eq!(got, Ok(payload));
                                model = Model::Idle;
                                completed += 1;
                            }
                        }
                        _ => prop_assert_eq!(got, Err(ChannelError::NoRequest)),
                    }
                }
                Op::Reset => {
                    ch.reset();
                    model = Model::Idle;
                }
            }

            // The channel must agree with the model after every step.
            prop_assert_eq!(ch.state(), model.state());
            prop_assert_eq!(ch.calls_completed(), completed);
            prop_assert_eq!(ch.has_request(), model.state() == ChannelState::Requested);
            prop_assert_eq!(ch.has_response(), model.state() == ChannelState::Responded);
            // Visibility timestamps exist exactly while a value is posted,
            // and always lag the post by the cache-line transfer.
            match model {
                Model::Requested { posted, .. } => {
                    prop_assert_eq!(ch.request_visible_at(&params), Some(posted + transfer));
                }
                _ => prop_assert_eq!(ch.request_visible_at(&params), None),
            }
            match model {
                Model::Responded { posted, .. } => {
                    prop_assert_eq!(ch.response_visible_at(&params), Some(posted + transfer));
                }
                _ => prop_assert_eq!(ch.response_visible_at(&params), None),
            }
        }
    }
}

/// Drives one async call end to end under the fault injector: the
/// server only notices the request if the poll notice isn't wedged, and
/// the client only notices the response if the doorbell isn't dropped.
/// Each client timeout re-kicks the stuck side; after `max_retries` the
/// call is abandoned through [`SyncChannel::abort`] as a typed
/// [`CallAborted`]. Every fault the injector's decisions inject is
/// added to `faults`.
fn drive_call(
    ch: &mut SyncChannel<u64, u64>,
    injector: &mut FaultInjector,
    policy: &RetryPolicy,
    params: &HwParams,
    now: &mut SimTime,
    payload: u64,
    faults: &mut u64,
) -> Result<u64, CallAborted> {
    let mut hit = |fired: bool| {
        *faults += u64::from(fired);
        fired
    };
    ch.post_request(payload, *now).expect("channel idle");
    let mut served = !hit(injector.wedge_request());
    let mut delivered = false;
    let mut attempt = 0u32;
    loop {
        if served && ch.has_request() {
            *now = (*now).max(ch.request_visible_at(params).expect("posted"));
            let req = ch.take_request(*now, params).expect("visible");
            ch.post_response(req.wrapping_mul(2), *now)
                .expect("serving");
            delivered = !hit(injector.drop_doorbell());
        }
        if delivered && ch.has_response() {
            *now = (*now).max(ch.response_visible_at(params).expect("posted"));
            return Ok(ch.take_response(*now, params).expect("visible"));
        }
        // The client's timeout fires with the call still in flight.
        if attempt >= policy.max_retries {
            let phase = ch.abort().expect("call in flight");
            return Err(CallAborted {
                attempts: attempt + 1,
                phase,
            });
        }
        attempt += 1;
        *now += policy.timeout_for(attempt);
        match ch.state() {
            ChannelState::Requested => served = !hit(injector.wedge_request()),
            ChannelState::Responded => {
                ch.repost_response(*now).expect("responded");
                delivered = !hit(injector.drop_doorbell());
            }
            other => unreachable!("timeout with channel {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite 3: under any seeded fault schedule, every call either
    /// completes (possibly via retries) or surfaces a typed
    /// [`CallAborted`] — the channel is never left stuck mid-protocol.
    #[test]
    fn fault_schedules_always_resolve(
        seed in 0u64..u64::MAX,
        wedge_pct in 0u32..=100,
        drop_pct in 0u32..=100,
        max_retries in 0u32..6,
        calls in 1usize..25,
    ) {
        let plan = FaultPlan {
            wedge_request_p: wedge_pct as f64 / 100.0,
            drop_doorbell_p: drop_pct as f64 / 100.0,
            ..FaultPlan::none()
        };
        let mut injector = FaultInjector::new(seed, plan);
        let policy = RetryPolicy {
            timeout: SimDuration::micros(50),
            max_retries,
            backoff: 2.0,
        };
        let params = HwParams::small();
        let mut ch: SyncChannel<u64, u64> = SyncChannel::new();
        let mut now = SimTime::ZERO;
        let mut completed = 0u64;
        let mut aborted = 0u64;

        for i in 0..calls as u64 {
            match drive_call(&mut ch, &mut injector, &policy, &params, &mut now, i, &mut 0) {
                Ok(v) => {
                    prop_assert_eq!(v, i.wrapping_mul(2));
                    completed += 1;
                }
                Err(e) => {
                    prop_assert_eq!(e.attempts, policy.max_retries + 1);
                    prop_assert!(
                        matches!(e.phase, ChannelState::Requested | ChannelState::Responded),
                        "abandoned mid-protocol phase, got {:?}", e.phase
                    );
                    aborted += 1;
                }
            }
            // Never stuck: whatever happened, the channel is reusable.
            prop_assert_eq!(ch.state(), ChannelState::Idle);
            now += SimDuration::micros(1);
        }
        prop_assert_eq!(ch.calls_completed(), completed);
        prop_assert_eq!(ch.calls_aborted(), aborted);
        prop_assert_eq!(completed + aborted, calls as u64);
    }

    /// The fault injector's decision stream is a pure function of
    /// (seed, plan): replaying it yields the same call outcomes.
    #[test]
    fn fault_schedule_replay_is_identical(
        seed in 0u64..u64::MAX,
        drop_pct in 1u32..=50,
        calls in 1usize..15,
    ) {
        let plan = FaultPlan {
            drop_doorbell_p: drop_pct as f64 / 100.0,
            ..FaultPlan::none()
        };
        let policy = RetryPolicy {
            timeout: SimDuration::micros(50),
            max_retries: 2,
            backoff: 2.0,
        };
        let params = HwParams::small();
        let run = || {
            let mut injector = FaultInjector::new(seed, plan.clone());
            let mut ch: SyncChannel<u64, u64> = SyncChannel::new();
            let mut now = SimTime::ZERO;
            let mut outcomes = Vec::new();
            let mut faults = 0;
            for i in 0..calls as u64 {
                let out =
                    drive_call(&mut ch, &mut injector, &policy, &params, &mut now, i, &mut faults);
                outcomes.push(out.is_ok());
                now += SimDuration::micros(1);
            }
            (outcomes, faults)
        };
        prop_assert_eq!(run(), run());
    }
}
