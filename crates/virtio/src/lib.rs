//! Split virtqueues in unprotected shared memory.
//!
//! The paper's residual I/O bottleneck (§5.3) is that every virtio kick
//! is a synchronous VM exit through the host — exactly the kind of
//! shared-core round trip core gapping exists to remove. This crate
//! models the fix: virtio 1.x *split* virtqueues (descriptor table +
//! avail ring + used ring) laid out in the machine's `NonSecure` shared
//! granules (the same unprotected memory that carries the run-call
//! channels), with `VIRTIO_F_EVENT_IDX`-style notification suppression
//! on both directions. Guest submissions become descriptor writes plus
//! an occasional cross-core doorbell; host completions become used-ring
//! writes plus an occasional delegated interrupt.
//!
//! Index arithmetic is the real thing: `avail_idx`/`used_idx` are
//! free-running `u16`s that wrap modulo 2^16 while the ring itself wraps
//! modulo its (power-of-two) size, and the suppression predicate is the
//! spec's `vring_need_event`. Payloads are simulation-level
//! [`Descriptor`]s rather than guest-physical scatter lists.
//!
//! # Example
//!
//! ```
//! use cg_machine::GranuleAddr;
//! use cg_virtio::{Descriptor, QueueLayout, VirtQueue};
//!
//! let layout = QueueLayout::new(GranuleAddr::new(0x8000_0000).unwrap(), 256);
//! let mut q = VirtQueue::new(layout, 256, true);
//! q.enable_kicks(); // device idle: next submission must notify
//! q.push(Descriptor::net(1500, 7)).unwrap();
//! assert!(q.should_kick()); // first submission after idle kicks
//! q.push(Descriptor::net(1500, 8)).unwrap();
//! assert!(!q.should_kick()); // device now active: suppressed
//! assert_eq!(q.pop_avail().unwrap().cookie, 7);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;

use cg_machine::memory::GRANULE_SIZE;
use cg_machine::GranuleAddr;
use cg_sim::TraceCtx;

/// The virtio 1.x split-ring suppression predicate (`vring_need_event`):
/// should the producer notify, given the consumer-published `event`
/// index, the producer's new free-running index, and its value at the
/// previous notification decision? All arithmetic wraps modulo 2^16.
#[inline]
pub fn need_event(event: u16, new_idx: u16, old_idx: u16) -> bool {
    new_idx.wrapping_sub(event).wrapping_sub(1) < new_idx.wrapping_sub(old_idx)
}

/// One queue entry: the simulation-level stand-in for a descriptor
/// chain (the guest-physical scatter list is not modelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Payload length in bytes.
    pub bytes: u64,
    /// Opaque routing cookie: the flow id for network packets, the
    /// request tag for disk requests.
    pub cookie: u64,
    /// Device-writable chain (disk write / inbound buffer).
    pub is_write: bool,
    /// Causal trace context riding the descriptor across the publish →
    /// backend → completion → drain hops. Purely observational: never
    /// read by queue logic, `NULL` when tracing is off.
    pub ctx: TraceCtx,
}

impl Descriptor {
    /// A network-transmit descriptor carrying `bytes` on `flow`.
    pub fn net(bytes: u64, flow: u64) -> Descriptor {
        Descriptor {
            bytes,
            cookie: flow,
            is_write: false,
            ctx: TraceCtx::NULL,
        }
    }

    /// A disk-request descriptor for `tag`.
    pub fn disk(bytes: u64, tag: u64, is_write: bool) -> Descriptor {
        Descriptor {
            bytes,
            cookie: tag,
            is_write,
            ctx: TraceCtx::NULL,
        }
    }

    /// The same descriptor carrying causal context `ctx`.
    pub fn with_ctx(mut self, ctx: TraceCtx) -> Descriptor {
        self.ctx = ctx;
        self
    }
}

/// The queue is full: every descriptor is in flight (submitted but not
/// yet recycled by a used-ring consumption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "virtqueue full: all descriptors in flight")
    }
}

impl std::error::Error for QueueFull {}

/// Where a queue's three rings live in the shared (NonSecure) granule
/// space.
///
/// Sizes follow the virtio 1.x split-ring formulas — 16 bytes per
/// descriptor, `6 + 2·size + 2` for the avail ring (the trailing word is
/// `used_event`), `6 + 8·size + 2` for the used ring (trailing
/// `avail_event`) — with each ring granule-aligned so host and guest map
/// them independently, as the run-call mailboxes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLayout {
    /// Descriptor table base.
    pub desc: GranuleAddr,
    /// Avail (driver → device) ring base.
    pub avail: GranuleAddr,
    /// Used (device → driver) ring base.
    pub used: GranuleAddr,
    /// Total granules the queue occupies starting at `desc`.
    pub granules: u64,
}

impl QueueLayout {
    /// Lays a queue of `size` descriptors out at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two (a virtio split
    /// ring requirement).
    pub fn new(base: GranuleAddr, size: u16) -> QueueLayout {
        assert!(
            size != 0 && size.is_power_of_two(),
            "virtqueue size must be a non-zero power of two"
        );
        let granules_for = |bytes: u64| bytes.div_ceil(GRANULE_SIZE);
        let desc_bytes = 16 * u64::from(size);
        let avail_bytes = 6 + 2 * u64::from(size) + 2;
        let used_bytes = 6 + 8 * u64::from(size) + 2;
        let desc = base;
        let avail = desc.offset(granules_for(desc_bytes));
        let used = avail.offset(granules_for(avail_bytes));
        let granules =
            granules_for(desc_bytes) + granules_for(avail_bytes) + granules_for(used_bytes);
        QueueLayout {
            desc,
            avail,
            used,
            granules,
        }
    }
}

/// One split virtqueue, modelling both the driver (guest) side and the
/// device (host I/O plane) side.
///
/// Free-running `u16` indices, spec suppression arithmetic, FIFO
/// payload transport. With `event_idx` off every kick and every
/// completion notifies (the suppression ablation).
#[derive(Debug)]
pub struct VirtQueue {
    layout: QueueLayout,
    size: u16,
    event_idx: bool,
    // Driver (guest) side.
    avail_idx: u16,
    used_event: u16,
    last_used_seen: u16,
    kick_cursor: u16,
    // Device (host) side.
    used_idx: u16,
    avail_event: u16,
    last_avail_seen: u16,
    irq_cursor: u16,
    // Payload transport (stands in for the descriptor table contents).
    avail_ring: VecDeque<Descriptor>,
    used_ring: VecDeque<Descriptor>,
}

impl VirtQueue {
    /// Creates an empty queue of `size` descriptors at `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    pub fn new(layout: QueueLayout, size: u16, event_idx: bool) -> VirtQueue {
        VirtQueue::seeded_at(layout, size, event_idx, 0)
    }

    /// As [`VirtQueue::new`], but starts every free-running index at
    /// `start` instead of zero — lets tests sit the indices right below
    /// the 2^16 wrap without performing 65 000 warm-up operations.
    pub fn seeded_at(layout: QueueLayout, size: u16, event_idx: bool, start: u16) -> VirtQueue {
        assert!(
            size != 0 && size.is_power_of_two(),
            "virtqueue size must be a non-zero power of two"
        );
        VirtQueue {
            layout,
            size,
            event_idx,
            avail_idx: start,
            used_event: start,
            last_used_seen: start,
            kick_cursor: start,
            used_idx: start,
            avail_event: start,
            last_avail_seen: start,
            irq_cursor: start,
            avail_ring: VecDeque::new(),
            used_ring: VecDeque::new(),
        }
    }

    /// The queue's shared-memory layout.
    pub fn layout(&self) -> QueueLayout {
        self.layout
    }

    /// Ring size (descriptor count).
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Whether EVENT_IDX suppression is negotiated.
    pub fn event_idx(&self) -> bool {
        self.event_idx
    }

    /// Descriptors in flight: submitted but not yet recycled by the
    /// driver consuming their used entries.
    pub fn in_flight(&self) -> u16 {
        self.avail_idx.wrapping_sub(self.last_used_seen)
    }

    // ---------------- driver (guest) side ----------------

    /// Driver submits one descriptor: writes the table entry and
    /// publishes it on the avail ring.
    pub fn push(&mut self, d: Descriptor) -> Result<(), QueueFull> {
        if self.in_flight() >= self.size {
            return Err(QueueFull);
        }
        self.avail_ring.push_back(d);
        self.avail_idx = self.avail_idx.wrapping_add(1);
        Ok(())
    }

    /// Driver notification decision for everything published since the
    /// previous decision. Always `true` without EVENT_IDX; with it, the
    /// spec predicate against the device-published `avail_event` — a
    /// stale `avail_event` (device actively polling) suppresses the
    /// kick, a current one (device about to idle) demands it.
    pub fn should_kick(&mut self) -> bool {
        let old = self.kick_cursor;
        self.kick_cursor = self.avail_idx;
        !self.event_idx || need_event(self.avail_event, self.avail_idx, old)
    }

    /// Driver drains the used ring, recycling descriptors and publishing
    /// `used_event` so the next completion after this point interrupts.
    pub fn consume_used(&mut self) -> Vec<Descriptor> {
        let drained: Vec<Descriptor> = self.used_ring.drain(..).collect();
        self.last_used_seen = self.used_idx;
        self.used_event = self.used_idx;
        drained
    }

    /// Used entries the driver has not consumed yet.
    pub fn used_len(&self) -> u16 {
        self.used_idx.wrapping_sub(self.last_used_seen)
    }

    // ---------------- device (host I/O plane) side ----------------

    /// Avail entries the device has not consumed yet.
    pub fn avail_len(&self) -> u16 {
        self.avail_idx.wrapping_sub(self.last_avail_seen)
    }

    /// Device consumes the next avail entry, if any.
    pub fn pop_avail(&mut self) -> Option<Descriptor> {
        let d = self.avail_ring.pop_front()?;
        self.last_avail_seen = self.last_avail_seen.wrapping_add(1);
        Some(d)
    }

    /// Device drains every currently-published avail entry as one batch.
    pub fn pop_avail_batch(&mut self) -> Vec<Descriptor> {
        let batch: Vec<Descriptor> = self.avail_ring.drain(..).collect();
        self.last_avail_seen = self.last_avail_seen.wrapping_add(batch.len() as u16);
        batch
    }

    /// Device is about to idle: publish `avail_event` at the
    /// everything-seen point so exactly the next submission kicks.
    /// While the device polls, `avail_event` goes stale and submissions
    /// coalesce kick-free — the EVENT_IDX batching the fast path lives
    /// on.
    pub fn enable_kicks(&mut self) {
        self.avail_event = self.avail_idx;
    }

    /// Device completes one entry onto the used ring.
    pub fn push_used(&mut self, d: Descriptor) {
        self.used_ring.push_back(d);
        self.used_idx = self.used_idx.wrapping_add(1);
    }

    /// Device interrupt decision for everything completed since the
    /// previous decision: the mirror of [`VirtQueue::should_kick`]
    /// against the driver-published `used_event`. While an earlier
    /// completion interrupt is still undelivered the driver has not
    /// re-armed `used_event`, so follow-on completions coalesce onto it.
    pub fn should_interrupt(&mut self) -> bool {
        let old = self.irq_cursor;
        self.irq_cursor = self.used_idx;
        !self.event_idx || need_event(self.used_event, self.used_idx, old)
    }
}

/// One vCPU's queue pair for a device: a `tx` queue for submissions
/// (transmit / disk requests, completions posted back as used entries)
/// and an `rx` queue of guest-posted receive buffers the device fills.
#[derive(Debug)]
pub struct QueuePair {
    /// Driver → device submissions.
    pub tx: VirtQueue,
    /// Device → driver deliveries into pre-posted buffers.
    pub rx: VirtQueue,
}

impl QueuePair {
    /// Lays both queues out back-to-back starting at `base` and
    /// pre-posts every rx buffer, as a driver does at setup.
    pub fn new(base: GranuleAddr, size: u16, event_idx: bool) -> QueuePair {
        let tx_layout = QueueLayout::new(base, size);
        let rx_layout = QueueLayout::new(base.offset(tx_layout.granules), size);
        let tx = VirtQueue::new(tx_layout, size, event_idx);
        let mut rx = VirtQueue::new(rx_layout, size, event_idx);
        for _ in 0..size {
            rx.push(Descriptor {
                bytes: 0,
                cookie: 0,
                is_write: true,
                ctx: TraceCtx::NULL,
            })
            .expect("empty rx ring accepts its own size");
        }
        QueuePair { tx, rx }
    }

    /// Total granules of shared memory the pair occupies.
    pub fn granules(&self) -> u64 {
        self.tx.layout().granules + self.rx.layout().granules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> QueueLayout {
        QueueLayout::new(GranuleAddr::new(0x8000_0000).unwrap(), 256)
    }

    fn q(size: u16, event_idx: bool) -> VirtQueue {
        VirtQueue::new(
            QueueLayout::new(GranuleAddr::new(0x8000_0000).unwrap(), size),
            size,
            event_idx,
        )
    }

    #[test]
    fn layout_is_granule_aligned_and_ordered() {
        let l = layout();
        assert!(l.desc.as_u64() < l.avail.as_u64());
        assert!(l.avail.as_u64() < l.used.as_u64());
        // 256 descriptors: 4096 B table, 520 B avail, 2056 B used.
        assert_eq!(l.granules, 1 + 1 + 1);
        assert_eq!(l.used.as_u64() - l.desc.as_u64(), 2 * GRANULE_SIZE);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_size_rejected() {
        QueueLayout::new(GranuleAddr::new(0x8000_0000).unwrap(), 96);
    }

    #[test]
    fn fifo_transport_and_full_detection() {
        let mut v = q(4, true);
        for i in 0..4 {
            v.push(Descriptor::net(64, i)).unwrap();
        }
        assert_eq!(v.push(Descriptor::net(64, 9)), Err(QueueFull));
        assert_eq!(v.in_flight(), 4);
        let batch = v.pop_avail_batch();
        assert_eq!(
            batch.iter().map(|d| d.cookie).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        // Still full: descriptors recycle only on used consumption.
        assert_eq!(v.push(Descriptor::net(64, 9)), Err(QueueFull));
        for d in batch {
            v.push_used(d);
        }
        assert!(v.consume_used().len() == 4);
        assert_eq!(v.in_flight(), 0);
        v.push(Descriptor::net(64, 9)).unwrap();
    }

    #[test]
    fn event_idx_gives_one_kick_per_idle_period() {
        let mut v = q(256, true);
        v.enable_kicks();
        let mut kicks = Vec::new();
        for i in 0..100 {
            v.push(Descriptor::net(64, i)).unwrap();
            kicks.push(v.should_kick());
        }
        assert!(kicks[0], "first submission after idle kicks");
        assert!(
            kicks[1..].iter().all(|k| !k),
            "device active: later kicks suppressed"
        );
        assert_eq!(v.pop_avail_batch().len(), 100);
        v.enable_kicks();
        v.push(Descriptor::net(64, 100)).unwrap();
        assert!(v.should_kick(), "idle again: next submission kicks");
    }

    #[test]
    fn suppression_off_always_kicks_and_interrupts() {
        let mut v = q(256, false);
        let mut kicks = 0;
        for i in 0..10 {
            v.push(Descriptor::net(64, i)).unwrap();
            kicks += u32::from(v.should_kick());
        }
        let mut irqs = 0;
        for d in v.pop_avail_batch() {
            v.push_used(d);
            irqs += u32::from(v.should_interrupt());
        }
        assert_eq!((kicks, irqs), (10, 10));
    }

    #[test]
    fn completions_coalesce_until_driver_drains() {
        let mut v = q(256, true);
        for i in 0..3 {
            v.push(Descriptor::disk(4096, i, false)).unwrap();
        }
        let batch = v.pop_avail_batch();
        v.push_used(batch[0]);
        assert!(v.should_interrupt(), "first completion interrupts");
        v.push_used(batch[1]);
        assert!(
            !v.should_interrupt(),
            "second coalesces onto the pending irq"
        );
        let drained = v.consume_used();
        assert_eq!(drained.len(), 2);
        v.push_used(batch[2]);
        assert!(v.should_interrupt(), "post-drain completion re-interrupts");
    }

    #[test]
    fn indices_wrap_at_u16_boundary() {
        let l = QueueLayout::new(GranuleAddr::new(0x8000_0000).unwrap(), 8);
        let mut v = VirtQueue::seeded_at(l, 8, true, u16::MAX - 2);
        v.enable_kicks();
        for i in 0..6u64 {
            v.push(Descriptor::net(64, i)).unwrap();
            v.should_kick();
        }
        assert_eq!(v.avail_len(), 6);
        let batch = v.pop_avail_batch();
        assert_eq!(batch.len(), 6);
        for d in batch {
            v.push_used(d);
        }
        assert_eq!(v.used_len(), 6);
        let drained = v.consume_used();
        assert_eq!(
            drained.iter().map(|d| d.cookie).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 5]
        );
        assert_eq!(v.in_flight(), 0);
    }

    #[test]
    fn queue_pair_prefills_rx_and_does_not_overlap() {
        let pair = QueuePair::new(GranuleAddr::new(0x9000_0000).unwrap(), 128, true);
        assert_eq!(pair.rx.avail_len(), 128, "rx buffers pre-posted");
        assert_eq!(pair.tx.avail_len(), 0);
        let tx_end = pair.tx.layout().desc.as_u64() + pair.tx.layout().granules * GRANULE_SIZE;
        assert!(
            pair.rx.layout().desc.as_u64() >= tx_end,
            "rings must not overlap"
        );
    }

    #[test]
    fn need_event_matches_spec_cases() {
        // Straight from the virtio spec: notify iff the consumer's event
        // index lies in the half-open window (old, new].
        assert!(need_event(1, 2, 1));
        assert!(!need_event(0, 2, 1));
        assert!(!need_event(2, 2, 1));
        // Wrapping window.
        assert!(need_event(u16::MAX, 1, u16::MAX - 1));
        assert!(!need_event(3, 1, u16::MAX - 1));
    }

    #[test]
    fn need_event_wrap_boundary_exactly_one_past_event() {
        // The audited boundary: new_idx advanced exactly once past the
        // armed event index, with the increment crossing the u16
        // wraparound. Arming at event = old = 0xFFFF and publishing one
        // entry (new = 0x0000) must notify:
        assert!(need_event(u16::MAX, 0, u16::MAX));
        // An event index one before the window must not — it was
        // already passed before `old`:
        assert!(!need_event(u16::MAX - 1, 0, u16::MAX));
        // The mirror boundary away from the wrap behaves identically.
        assert!(need_event(7, 8, 7));
        assert!(!need_event(6, 8, 7));
        // new == old (no progress since the last decision): never
        // notify, on either side of the wrap.
        assert!(!need_event(u16::MAX, u16::MAX, u16::MAX));
        assert!(!need_event(0, 0, 0));
        // Window spanning the wrap, probing every edge: the notify
        // window is [old, new) mod 2^16 — old included, new excluded.
        assert!(need_event(u16::MAX - 3, 2, u16::MAX - 3)); // old: included
        assert!(need_event(u16::MAX, 2, u16::MAX - 3)); // inside, pre-wrap
        assert!(need_event(1, 2, u16::MAX - 3)); // inside, post-wrap
        assert!(!need_event(2, 2, u16::MAX - 3)); // new itself: excluded
        assert!(!need_event(3, 2, u16::MAX - 3)); // past new: excluded
    }

    #[test]
    fn wrap_boundary_kick_fires_on_first_post_wrap_submission() {
        // End-to-end pin of the same boundary through VirtQueue: arm at
        // 0xFFFF, publish one descriptor (index wraps to 0x0000) — the
        // kick must fire, and a second publish must coalesce.
        let l = QueueLayout::new(GranuleAddr::new(0x8000_0000).unwrap(), 8);
        let mut v = VirtQueue::seeded_at(l, 8, true, u16::MAX);
        v.enable_kicks();
        v.push(Descriptor::net(64, 0)).unwrap();
        assert!(v.should_kick(), "first submission across the wrap kicks");
        v.push(Descriptor::net(64, 1)).unwrap();
        assert!(!v.should_kick(), "second submission coalesces");
    }
}
