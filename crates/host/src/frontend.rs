//! The serving front-end: per-tenant admission control for the fleet
//! plane.
//!
//! A node that serves external traffic runs one front-end alongside the
//! VMM: it terminates tenant requests, decides per tenant whether each
//! may enter (token-bucket rate limit + queue-depth cap + ring
//! backpressure), and sheds the rest with a typed reason instead of
//! letting an overload collapse the guests' virtqueues. Like every
//! other host component, it is a passive state machine: `cg-core`'s
//! fleet driver calls it at each arrival and completion and schedules
//! the implied events itself.

use cg_sim::{SimDuration, SimTime};

/// Why the front-end refused a request admission.
///
/// Every rejection is attributed to exactly one reason so the shed
/// accounting closes: `admitted + shed + in-flight == offered`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedReason {
    /// The tenant's token bucket was empty (sustained rate above its
    /// contracted admission rate).
    RateLimited,
    /// The tenant already has its maximum number of requests queued or
    /// in service (queue-depth cap).
    QueueFull,
    /// The node's delivery rings are too full: backpressure from ring
    /// occupancy closed the gate for all tenants on the node.
    Backpressure,
    /// The front-end itself was stalled (injected fault or host
    /// interference) and dropped the request on the floor.
    FrontendStalled,
    /// The tenant's CVM is not currently able to serve (paused,
    /// migrating, or not yet admitted to any node).
    TenantUnavailable,
}

impl ShedReason {
    /// Every reason, in counter order.
    pub const ALL: [ShedReason; 5] = [
        ShedReason::RateLimited,
        ShedReason::QueueFull,
        ShedReason::Backpressure,
        ShedReason::FrontendStalled,
        ShedReason::TenantUnavailable,
    ];

    /// Short human-readable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::QueueFull => "queue_full",
            ShedReason::Backpressure => "backpressure",
            ShedReason::FrontendStalled => "stalled",
            ShedReason::TenantUnavailable => "unavailable",
        }
    }
}

/// A deterministic token bucket: `rate` tokens per second, holding at
/// most `burst`.
///
/// Refill is computed lazily from elapsed simulated time, so the
/// bucket never needs its own timer events and two same-seed runs see
/// byte-identical token states.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Sustained admission rate in tokens per second.
    rate: f64,
    /// Bucket capacity (maximum burst).
    burst: f64,
    /// Tokens currently available.
    tokens: f64,
    /// Last refill instant.
    last: SimTime,
}

impl TokenBucket {
    /// A bucket refilling at `rate` per second with capacity `burst`,
    /// starting full.
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        TokenBucket {
            rate: rate.max(0.0),
            burst: burst.max(0.0),
            tokens: burst.max(0.0),
            last: SimTime::ZERO,
        }
    }

    /// Tokens available at `now` (after lazy refill).
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Takes one token if available. Returns `false` (and takes
    /// nothing) when the bucket is empty.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last {
            let dt = now.duration_since(self.last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.last = now;
        }
    }
}

/// Per-tenant admission policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Sustained admission rate (requests per second).
    pub rate_per_sec: f64,
    /// Burst allowance (token-bucket capacity).
    pub burst: f64,
    /// Maximum requests queued or in service for the tenant at once.
    pub queue_cap: u32,
}

impl AdmissionPolicy {
    /// A policy admitting `rate_per_sec` with a burst of a quarter
    /// second's worth of traffic and a queue cap of `queue_cap`.
    pub fn per_second(rate_per_sec: f64, queue_cap: u32) -> AdmissionPolicy {
        AdmissionPolicy {
            rate_per_sec,
            burst: (rate_per_sec / 4.0).max(4.0),
            queue_cap,
        }
    }
}

/// The admission gate for one tenant on one node's front-end.
///
/// Tracks the tenant's token bucket and in-flight count and attributes
/// every rejection to a [`ShedReason`].
#[derive(Debug, Clone)]
pub struct TenantGate {
    policy: AdmissionPolicy,
    bucket: TokenBucket,
    in_flight: u32,
    admitted: u64,
    shed: [u64; ShedReason::ALL.len()],
}

impl TenantGate {
    /// A gate enforcing `policy`.
    pub fn new(policy: AdmissionPolicy) -> TenantGate {
        TenantGate {
            bucket: TokenBucket::new(policy.rate_per_sec, policy.burst),
            policy,
            in_flight: 0,
            admitted: 0,
            shed: [0; ShedReason::ALL.len()],
        }
    }

    /// Decides admission for one request arriving at `now`.
    ///
    /// `backpressured` reflects node-level ring occupancy (closes the
    /// gate regardless of per-tenant budget); `available` is whether
    /// the tenant CVM can currently serve at all.
    ///
    /// # Errors
    ///
    /// Returns the [`ShedReason`] attributed to a refused request (and
    /// counts it).
    pub fn try_admit(
        &mut self,
        now: SimTime,
        backpressured: bool,
        available: bool,
    ) -> Result<(), ShedReason> {
        if !available {
            return Err(self.shed(ShedReason::TenantUnavailable));
        }
        if backpressured {
            return Err(self.shed(ShedReason::Backpressure));
        }
        if self.in_flight >= self.policy.queue_cap {
            return Err(self.shed(ShedReason::QueueFull));
        }
        if !self.bucket.try_take(now) {
            return Err(self.shed(ShedReason::RateLimited));
        }
        self.in_flight += 1;
        self.admitted += 1;
        Ok(())
    }

    /// Records a request dropped because the front-end itself stalled
    /// (the request never reached the admission decision).
    pub fn drop_stalled(&mut self) -> ShedReason {
        self.shed(ShedReason::FrontendStalled)
    }

    fn shed(&mut self, reason: ShedReason) -> ShedReason {
        let idx = ShedReason::ALL.iter().position(|r| *r == reason).unwrap();
        self.shed[idx] += 1;
        reason
    }

    /// A previously admitted request completed (or was abandoned):
    /// frees its queue slot.
    pub fn complete(&mut self) {
        debug_assert!(self.in_flight > 0, "completion without admission");
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Requests currently admitted but not yet completed.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests shed for `reason` so far.
    pub fn shed_count(&self, reason: ShedReason) -> u64 {
        let idx = ShedReason::ALL.iter().position(|r| *r == reason).unwrap();
        self.shed[idx]
    }

    /// Requests shed across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// The policy this gate enforces.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Replaces the policy (e.g. after an elastic resize changed the
    /// tenant's contracted rate), keeping the current bucket level
    /// clamped to the new burst.
    pub fn set_policy(&mut self, policy: AdmissionPolicy) {
        let level = self.bucket.tokens.min(policy.burst);
        let last = self.bucket.last;
        self.bucket = TokenBucket::new(policy.rate_per_sec, policy.burst);
        self.bucket.tokens = level;
        self.bucket.last = last;
        self.policy = policy;
    }
}

/// Node-level front-end bookkeeping: one per serving node, owning a
/// [`TenantGate`] per tenant hosted there plus the node-wide
/// backpressure threshold.
#[derive(Debug)]
pub struct FrontEnd {
    gates: Vec<TenantGate>,
    /// Close all gates while node ring occupancy is at or above this
    /// many outstanding requests.
    backpressure_cap: u32,
    /// Cost charged to the host core per admission decision.
    admit_cost: SimDuration,
    /// Injected stall the front-end is serving out (requests arriving
    /// before this instant are dropped as [`ShedReason::FrontendStalled`]).
    stalled_until: SimTime,
}

impl FrontEnd {
    /// A front-end with one gate per entry of `policies`, applying
    /// node-wide backpressure at `backpressure_cap` outstanding
    /// requests.
    pub fn new(policies: &[AdmissionPolicy], backpressure_cap: u32) -> FrontEnd {
        FrontEnd {
            gates: policies.iter().map(|p| TenantGate::new(*p)).collect(),
            backpressure_cap,
            admit_cost: SimDuration::nanos(400),
            stalled_until: SimTime::ZERO,
        }
    }

    /// Number of tenant gates.
    pub fn num_tenants(&self) -> usize {
        self.gates.len()
    }

    /// Immutable access to tenant `t`'s gate.
    pub fn gate(&self, t: usize) -> &TenantGate {
        &self.gates[t]
    }

    /// Mutable access to tenant `t`'s gate.
    pub fn gate_mut(&mut self, t: usize) -> &mut TenantGate {
        &mut self.gates[t]
    }

    /// Outstanding admitted requests across every tenant on the node.
    pub fn node_in_flight(&self) -> u32 {
        self.gates.iter().map(|g| g.in_flight()).sum()
    }

    /// Whether node-level backpressure is currently closing the gates.
    pub fn backpressured(&self) -> bool {
        self.node_in_flight() >= self.backpressure_cap
    }

    /// The per-decision host-core cost of running the admission path.
    pub fn admit_cost(&self) -> SimDuration {
        self.admit_cost
    }

    /// Begins an injected front-end stall lasting `len` from `now`.
    pub fn stall(&mut self, now: SimTime, len: SimDuration) {
        self.stalled_until = self.stalled_until.max(now + len);
    }

    /// Whether the front-end is stalled at `now`.
    pub fn is_stalled(&self, now: SimTime) -> bool {
        now < self.stalled_until
    }

    /// Decides admission for one request for tenant `t` at `now`,
    /// applying the stall window, node backpressure, and the tenant
    /// gate in that order.
    ///
    /// # Errors
    ///
    /// Returns the attributed [`ShedReason`] when the request is shed.
    pub fn admit(&mut self, t: usize, now: SimTime, available: bool) -> Result<(), ShedReason> {
        if self.is_stalled(now) {
            return Err(self.gates[t].drop_stalled());
        }
        let bp = self.backpressured();
        self.gates[t].try_admit(now, bp, available)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(rate: f64, cap: u32) -> AdmissionPolicy {
        AdmissionPolicy {
            rate_per_sec: rate,
            burst: 4.0,
            queue_cap: cap,
        }
    }

    #[test]
    fn bucket_refills_at_rate() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        assert!(b.try_take(SimTime::ZERO));
        assert!(b.try_take(SimTime::ZERO));
        assert!(!b.try_take(SimTime::ZERO), "burst exhausted");
        // 1 ms at 1000/s refills one token.
        let later = SimTime::from_nanos(1_000_000);
        assert!(b.try_take(later));
        assert!(!b.try_take(later));
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        let much_later = SimTime::from_nanos(5_000_000_000);
        assert!((b.available(much_later) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gate_rate_limits_and_counts() {
        let mut g = TenantGate::new(policy(1000.0, 100));
        for _ in 0..4 {
            assert!(g.try_admit(SimTime::ZERO, false, true).is_ok());
        }
        assert_eq!(
            g.try_admit(SimTime::ZERO, false, true),
            Err(ShedReason::RateLimited)
        );
        assert_eq!(g.admitted(), 4);
        assert_eq!(g.shed_count(ShedReason::RateLimited), 1);
        assert_eq!(g.shed_total(), 1);
        assert_eq!(g.in_flight(), 4);
    }

    #[test]
    fn gate_enforces_queue_cap_and_frees_on_complete() {
        let mut g = TenantGate::new(policy(1e9, 2));
        assert!(g.try_admit(SimTime::ZERO, false, true).is_ok());
        assert!(g.try_admit(SimTime::ZERO, false, true).is_ok());
        assert_eq!(
            g.try_admit(SimTime::ZERO, false, true),
            Err(ShedReason::QueueFull)
        );
        g.complete();
        assert!(g.try_admit(SimTime::ZERO, false, true).is_ok());
    }

    #[test]
    fn shed_reasons_attributed_in_priority_order() {
        let mut g = TenantGate::new(policy(1e9, 1));
        assert_eq!(
            g.try_admit(SimTime::ZERO, true, false),
            Err(ShedReason::TenantUnavailable),
            "unavailability outranks backpressure"
        );
        assert_eq!(
            g.try_admit(SimTime::ZERO, true, true),
            Err(ShedReason::Backpressure)
        );
        assert_eq!(g.shed_total(), 2);
    }

    #[test]
    fn frontend_backpressure_closes_all_gates() {
        let mut fe = FrontEnd::new(&[policy(1e9, 10), policy(1e9, 10)], 3);
        assert!(fe.admit(0, SimTime::ZERO, true).is_ok());
        assert!(fe.admit(0, SimTime::ZERO, true).is_ok());
        assert!(fe.admit(1, SimTime::ZERO, true).is_ok());
        assert!(fe.backpressured());
        assert_eq!(
            fe.admit(1, SimTime::ZERO, true),
            Err(ShedReason::Backpressure)
        );
        fe.gate_mut(0).complete();
        assert!(fe.admit(1, SimTime::ZERO, true).is_ok());
    }

    #[test]
    fn frontend_stall_drops_requests_until_expiry() {
        let mut fe = FrontEnd::new(&[policy(1e9, 10)], 100);
        fe.stall(SimTime::ZERO, SimDuration::micros(10));
        assert_eq!(
            fe.admit(0, SimTime::from_nanos(5_000), true),
            Err(ShedReason::FrontendStalled)
        );
        assert!(fe.admit(0, SimTime::from_nanos(10_000), true).is_ok());
        assert_eq!(fe.gate(0).shed_count(ShedReason::FrontendStalled), 1);
    }

    #[test]
    fn policy_swap_keeps_bucket_level() {
        let mut g = TenantGate::new(policy(1000.0, 100));
        assert!(g.try_admit(SimTime::ZERO, false, true).is_ok());
        g.set_policy(AdmissionPolicy {
            rate_per_sec: 2000.0,
            burst: 2.0,
            queue_cap: 100,
        });
        // 3 tokens remained but the new burst clamps to 2.
        let mut avail = g.bucket.clone();
        assert!((avail.available(SimTime::ZERO) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn accounting_identity_holds() {
        let mut g = TenantGate::new(policy(1000.0, 2));
        let mut offered = 0u64;
        for i in 0..50u64 {
            offered += 1;
            let t = SimTime::from_nanos(i * 100_000);
            let _ = g.try_admit(t, i % 7 == 0, i % 11 != 0);
            if i % 3 == 0 && g.in_flight() > 0 {
                g.complete();
            }
        }
        assert_eq!(
            g.admitted() + g.shed_total(),
            offered,
            "every offered request is admitted or shed"
        );
    }
}
