//! The cancellable, deterministically ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A handle to a scheduled event, used to cancel it before it fires.
///
/// A token names a slot of the queue's slot vector and the slot's
/// generation when the event was scheduled: the low 32 bits are the slot
/// index, the high 32 bits the generation. A slot's generation moves on
/// whenever its event fires or is cancelled, so a token that outlives its
/// event stops matching, even once the slot holds a newer event.
/// Cancelling such a token (or one already cancelled) is a harmless no-op
/// that returns `false`. A generation wraps after 2^32 reuses of one slot,
/// far beyond any simulation's lifetime for a held token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventToken(u64);

impl EventToken {
    fn new(slot: u32, generation: u32) -> EventToken {
        EventToken(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A heap entry: the ordering key plus the token of the slot holding the
/// event. The entry is a tombstone once the slot's generation moved on.
#[derive(Debug)]
struct Entry {
    time: SimTime,
    scheduled_at: SimTime,
    seq: u64,
    token: EventToken,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        (other.time, other.scheduled_at, other.seq).cmp(&(self.time, self.scheduled_at, self.seq))
    }
}

/// One slot of the slot vector: the pending event, if any, and the
/// generation tokens for it carry.
#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    event: Option<E>,
}

/// A future-event queue over an arbitrary event type `E`.
///
/// Events fire in `(time, scheduled_at, schedule-order)` order, where
/// `scheduled_at` is the clock when the event was scheduled. Plain
/// scheduling stamps the current clock, which never decreases as the
/// schedule order grows, so same-instant events fire in schedule order.
/// [`EventQueue::schedule_as_of`] sets `scheduled_at` explicitly, placing
/// an event among same-instant events as if it had been scheduled at
/// another time, earlier or later than now.
///
/// The queue tracks the current simulation clock: [`EventQueue::pop`]
/// advances it to the fired event's timestamp, and scheduling in the past
/// is a logic error.
///
/// Pending events live in a generation-checked slot vector; the heap holds
/// only keys and tokens. Cancelling frees the slot at once and leaves a
/// tombstone in the heap that pops skip.
///
/// # Example
///
/// ```
/// use cg_sim::{EventQueue, SimDuration};
///
/// let mut q = EventQueue::new();
/// let tok = q.schedule_after(SimDuration::nanos(10), "cancel me");
/// q.schedule_after(SimDuration::nanos(20), "keep me");
/// assert!(q.cancel(tok));
/// let (_, e) = q.pop().unwrap();
/// assert_eq!(e, "keep me");
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    slots: Vec<Slot<E>>,
    /// Indices of slots holding no event, reused last-freed first.
    free: Vec<u32>,
    /// Events pending and not cancelled.
    live: usize,
    now: SimTime,
    /// `scheduled_at` of the most recently popped event.
    popped_scheduled_at: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            now: SimTime::ZERO,
            popped_scheduled_at: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Returns the current simulation clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// When the most recently popped event was scheduled: its
    /// `scheduled_at`, the middle of its ordering key. [`SimTime::ZERO`]
    /// before the first pop.
    pub fn last_scheduled_at(&self) -> SimTime {
        self.popped_scheduled_at
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock: an event in the past
    /// indicates a causality bug in the caller.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        self.schedule_as_of(at, self.now, event)
    }

    /// Schedules `event` to fire at `at` as if it had been scheduled at
    /// `as_of`: among the events for `at`, it fires after those scheduled
    /// before `as_of` and before those scheduled after it. `as_of` may be
    /// in the future: a caller that plans ahead schedules an event now
    /// that it would otherwise have scheduled at `as_of`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock, if `as_of` is after
    /// `at`, or if the event would sort before the event being handled.
    pub fn schedule_as_of(&mut self, at: SimTime, as_of: SimTime, event: E) -> EventToken {
        assert!(
            at >= self.now,
            "scheduled event at {at} is before current time {}",
            self.now
        );
        assert!(as_of <= at, "as-of time {as_of} is after firing time {at}");
        assert!(
            at > self.now || as_of >= self.popped_scheduled_at,
            "as-of event at {at} would sort before the event being handled"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].event = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slot index fits in 32 bits");
                self.slots.push(Slot {
                    generation: 0,
                    event: Some(event),
                });
                slot
            }
        };
        let token = EventToken::new(slot, self.slots[slot as usize].generation);
        self.heap.push(Entry {
            time: at,
            scheduled_at: as_of,
            seq,
            token,
        });
        self.live += 1;
        token
    }

    /// Schedules `event` to fire `after` from the current clock.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now + after, event)
    }

    /// Schedules `event` to fire at the current instant (after all events
    /// already scheduled for this instant).
    pub fn schedule_now(&mut self, event: E) -> EventToken {
        self.schedule_at(self.now, event)
    }

    /// Is `token`'s event still pending?
    fn is_live(&self, token: EventToken) -> bool {
        self.slots
            .get(token.slot())
            .is_some_and(|s| s.generation == token.generation())
    }

    /// Empties `slot`, moving its generation on so every token and heap
    /// entry naming the old event goes stale, and returns the event.
    fn release(&mut self, slot: usize) -> Option<E> {
        let s = &mut self.slots[slot];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        s.event.take()
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if !self.is_live(token) {
            return false;
        }
        self.release(token.slot());
        self.maybe_compact();
        true
    }

    /// Rebuilds the heap without tombstones once they dominate it.
    ///
    /// Cancellation is lazy (tombstones are skipped on pop/peek), so a
    /// workload that cancels most of what it schedules — e.g. timers that
    /// are re-armed every segment — would otherwise grow the heap without
    /// bound even while `len()` stays small. When more than half the heap
    /// is tombstones (and the heap is big enough for the rebuild to be
    /// worth it), filter them out in one O(n) pass. The amortised cost per
    /// cancel stays O(log n): each rebuild removes at least half the heap,
    /// so an entry is touched by at most O(log n) rebuilds.
    fn maybe_compact(&mut self) {
        const MIN_HEAP_FOR_COMPACTION: usize = 64;
        let tombstones = self.heap.len() - self.live;
        if self.heap.len() < MIN_HEAP_FOR_COMPACTION || tombstones * 2 <= self.heap.len() {
            return;
        }
        let slots = &self.slots;
        self.heap
            .retain(|e| slots[e.token.slot()].generation == e.token.generation());
    }

    /// Number of entries physically in the heap, including cancelled
    /// tombstones not yet removed. Exposed for tests asserting that lazy
    /// cancellation does not leak memory.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when no live events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if !self.is_live(entry.token) {
                continue;
            }
            let event = self
                .release(entry.token.slot())
                .expect("a live slot holds its event");
            self.now = entry.time;
            self.popped_scheduled_at = entry.scheduled_at;
            return Some((entry.time, event));
        }
        None
    }

    /// Returns the timestamp of the next live event without firing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.is_live(entry.token) {
                return Some(entry.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Returns the number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Moves the clock as if an event keyed `(at, scheduled_at)` had
    /// just popped, for an owner that accounts for events it never
    /// queued (a run of boundaries or periodic fires worked out in
    /// closed form): the last one it counts may be the last event a run
    /// handles. Returns whether the clock moved; a key that sorts before
    /// the last popped event's leaves it as it is.
    ///
    /// # Panics
    ///
    /// Panics if a pending event fires before `at`.
    pub fn note_pop(&mut self, at: SimTime, scheduled_at: SimTime) -> bool {
        if (at, scheduled_at) <= (self.now, self.popped_scheduled_at) {
            return false;
        }
        self.advance_to(at);
        self.popped_scheduled_at = scheduled_at;
        true
    }

    /// Advances the clock directly to `at` without firing an event.
    ///
    /// Useful when an external driver wants to account for idle time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or if a pending event is scheduled
    /// before `at` (skipping events would break causality).
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot rewind the clock");
        if let Some(next) = self.peek_time() {
            assert!(
                next >= at,
                "advance_to({at}) would skip an event pending at {next}"
            );
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    fn cancel_prevents_fire() {
        let mut q = EventQueue::new();
        let tok = q.schedule_after(SimDuration::nanos(1), "a");
        q.schedule_after(SimDuration::nanos(2), "b");
        assert!(q.cancel(tok));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule_after(SimDuration::nanos(1), "a");
        q.pop();
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 0);
        // The queue stays usable and consistent afterwards.
        q.schedule_after(SimDuration::nanos(1), "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancel_after_fire_with_other_pending_events() {
        let mut q = EventQueue::new();
        let tok = q.schedule_after(SimDuration::nanos(1), "a");
        q.pop();
        q.schedule_after(SimDuration::nanos(5), "b");
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancel_twice_reports_false() {
        let mut q = EventQueue::new();
        let tok = q.schedule_after(SimDuration::nanos(1), ());
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.schedule_after(SimDuration::nanos(1), "x");
        q.schedule_after(SimDuration::nanos(9), "y");
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::nanos(10), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_nanos(100));
        assert_eq!(q.now(), SimTime::from_nanos(100));
    }

    #[test]
    #[should_panic(expected = "would skip an event")]
    fn advance_past_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::nanos(5), ());
        q.advance_to(SimTime::from_nanos(50));
    }

    #[test]
    fn schedule_now_fires_after_existing_same_instant_events() {
        let mut q = EventQueue::new();
        q.schedule_now("first");
        q.schedule_now("second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn schedule_now_after_pop_orders_behind_same_instant_events() {
        // An event handler that reacts to a pop by scheduling follow-up
        // work "now" must run after everything else already scheduled for
        // that same instant — this is what makes same-seed runs replayable.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        assert_eq!(q.pop().unwrap().1, "a");
        // Handler for "a" schedules a reaction at the same instant.
        q.schedule_now("a-followup");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "a-followup");
    }

    #[test]
    fn massive_cancellation_does_not_grow_heap() {
        // Regression test for tombstone leakage: schedule/cancel 100k
        // timer-like events while keeping a few live ones, and assert the
        // physical heap stays bounded by a small multiple of the live set.
        let mut q = EventQueue::new();
        let mut live = Vec::new();
        for i in 0..10u64 {
            live.push(q.schedule_at(SimTime::from_nanos(1_000_000 + i), i));
        }
        for i in 0..100_000u64 {
            let tok = q.schedule_at(SimTime::from_nanos(500_000 + (i % 64)), i);
            assert!(q.cancel(tok));
            assert_eq!(q.len(), 10, "live count must be unaffected");
            assert!(
                q.heap_len() <= 256,
                "heap grew to {} entries after {} cancels",
                q.heap_len(),
                i + 1
            );
        }
        // All live events still fire, in order.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "would sort before the event being handled")]
    fn as_of_event_cannot_precede_the_current_event() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(10), ());
        q.pop(); // scheduled at 10, popped at 10
        q.schedule_as_of(SimTime::from_nanos(10), SimTime::from_nanos(5), ());
    }

    #[test]
    fn note_pop_moves_the_clock_to_a_later_key_only() {
        let t = SimTime::from_nanos;
        let mut q = EventQueue::new();
        q.schedule_at(t(10), ());
        q.schedule_at(t(30), ());
        q.pop(); // keyed (10, 0)
        assert!(!q.note_pop(t(10), t(0)), "the popped event's own key");
        assert!(!q.note_pop(t(5), t(5)), "an earlier time");
        assert!(q.note_pop(t(10), t(4)));
        assert_eq!((q.now(), q.last_scheduled_at()), (t(10), t(4)));
        assert!(q.note_pop(t(30), t(20)), "up to the next pending event");
        assert_eq!((q.now(), q.last_scheduled_at()), (t(30), t(20)));
    }

    #[test]
    #[should_panic(expected = "would skip an event")]
    fn note_pop_past_a_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), ());
        q.note_pop(SimTime::from_nanos(11), SimTime::ZERO);
    }

    #[test]
    fn compaction_preserves_ordering_and_cancellation_semantics() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        let mut drop_toks = Vec::new();
        for i in 0..200u64 {
            let tok = q.schedule_at(SimTime::from_nanos(i), i);
            if i % 3 == 0 {
                keep.push(i);
            } else {
                drop_toks.push(tok);
            }
        }
        for tok in drop_toks {
            assert!(q.cancel(tok));
            // Cancelling after compaction already removed the tombstone
            // must still report false on a second attempt.
            assert!(!q.cancel(tok));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, keep);
    }
}
