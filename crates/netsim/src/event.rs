//! The discrete-event calendar.
//!
//! [`EventQueue`] pops events in strict `(time, seq)` order, where `seq`
//! is a monotonically increasing tie-breaker assigned at scheduling time,
//! so same-instant events pop in scheduling (FIFO) order. It runs on a
//! hierarchical timing wheel: six levels of 64 slots each, 2^16 ns
//! (~65 µs) of resolution at level zero and a 2^52 ns (~52 day) horizon
//! overall. Schedule and pop are O(1) amortised: an event lands in the
//! slot selected by the highest bit in which its quantised time differs
//! from the cursor, each level keeps a 64-bit occupancy bitmap so the next
//! non-empty slot is a `trailing_zeros`, and far-future events cascade
//! down one level at a time as the cursor approaches them. Events beyond
//! the horizon sit in an overflow list that re-enters the wheel when the
//! cursor jumps.
//!
//! [`HeapCalendar`] is the reference model: the classic binary min-heap of
//! `(time, seq, event)` with the same contract. No simulation runs on it;
//! the order-equivalence property tests and the `event_core` benchmark
//! compare the wheel against it.
//!
//! [`EventQueue::rewind`] returns to an empty calendar at time zero
//! without giving back any allocation, which is what lets one persistent
//! queue drive packet walk after packet walk with no per-walk allocation.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the wheel's slot granularity in nanoseconds: 2^16 ns ≈ 65.5 µs.
/// Walk hops are hundreds of microseconds to hundreds of milliseconds, so
/// level 0 already separates almost every pair of events.
const GRAIN_BITS: u32 = 16;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Six levels of six bits cover 2^36 grains ≈ 52 days of
/// simulated time from the cursor before the overflow list is needed.
const LEVELS: usize = 6;

/// A time-ordered event calendar.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    next_seq: u64,
    now: SimTime,
}

/// One pending event inside the wheel: absolute nanoseconds, scheduling
/// sequence number, payload.
#[derive(Debug, Clone)]
struct Slot<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// The hierarchical timing wheel.
///
/// Invariants (all maintained by `place`/`advance`):
/// * every slotted event `t` satisfies `(t >> GRAIN) ^ (cursor >> GRAIN)
///   < 2^36` — i.e. it is within the horizon of the current cursor;
/// * within a level, occupied slot indices are strictly greater than the
///   cursor's index at that level, so slot index order is time order and
///   the next slot is `occupancy.trailing_zeros()` (no wrap-around);
/// * every overflow event's quantised time differs from the cursor above
///   the horizon, so overflow events are strictly later than every slotted
///   event — overflow only needs consulting when the wheel drains empty;
/// * `current` holds the events of the slot the cursor sits in (plus any
///   events scheduled behind the cursor after a peek cascaded it forward
///   — see `place`), sorted by `(at, seq)` descending so the next event
///   pops from the back; every slotted event is later than everything in
///   `current`.
#[derive(Debug, Clone)]
struct Wheel<E> {
    /// `LEVELS * SLOTS` buckets, allocated lazily on first schedule so an
    /// empty queue (e.g. the hollow value `std::mem::take` leaves behind)
    /// costs nothing.
    slots: Vec<Vec<Slot<E>>>,
    /// One occupancy bitmap per level; bit `i` set ⇔ `slots[level*SLOTS+i]`
    /// is non-empty.
    occupancy: [u64; LEVELS],
    /// The cursor slot's events, sorted descending; popped from the back.
    current: Vec<Slot<E>>,
    /// Events beyond the horizon, unordered.
    overflow: Vec<Slot<E>>,
    /// Minimum `at` in `overflow`, `u64::MAX` when empty.
    overflow_min: u64,
    /// Base time of the slot the cursor sits in (grain-aligned ns).
    cursor: u64,
    /// Events slotted in levels (excludes `current` and `overflow`).
    slotted: usize,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            slots: Vec::new(),
            occupancy: [0; LEVELS],
            current: Vec::new(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            cursor: 0,
            slotted: 0,
        }
    }

    fn len(&self) -> usize {
        self.slotted + self.current.len() + self.overflow.len()
    }

    /// Level an event at `at` belongs to, given the current cursor:
    /// the highest 6-bit group in which the quantised times differ.
    /// `None` means the current slot; `Some(LEVELS)` means overflow.
    fn level_for(&self, at: u64) -> Option<usize> {
        let x = (at >> GRAIN_BITS) ^ (self.cursor >> GRAIN_BITS);
        if x == 0 {
            None
        } else {
            Some((63 - x.leading_zeros()) as usize / SLOT_BITS as usize)
        }
    }

    fn place(&mut self, entry: Slot<E>) {
        if entry.at < self.cursor {
            // Behind the cursor: legal when the caller schedules after a
            // peek already cascaded the wheel forward (peek must expose
            // the next slotted event, but the event being placed now is
            // earlier and still in the future of the last *pop*). The
            // slot walk can no longer reach this time, so the entry
            // joins `current`, which always drains before the wheel
            // advances again — `(at, seq)` order is preserved.
            let key = (entry.at, entry.seq);
            let pos = self.current.partition_point(|s| (s.at, s.seq) > key);
            self.current.insert(pos, entry);
            return;
        }
        match self.level_for(entry.at) {
            None => {
                // The cursor's own slot: keep `current` sorted descending.
                let key = (entry.at, entry.seq);
                let pos = self.current.partition_point(|s| (s.at, s.seq) > key);
                self.current.insert(pos, entry);
            }
            Some(level) if level < LEVELS => {
                if self.slots.is_empty() {
                    self.slots.resize_with(LEVELS * SLOTS, Vec::new);
                }
                let idx = ((entry.at >> (GRAIN_BITS + SLOT_BITS * level as u32))
                    & (SLOTS as u64 - 1)) as usize;
                self.occupancy[level] |= 1 << idx;
                self.slots[level * SLOTS + idx].push(entry);
                self.slotted += 1;
            }
            Some(_) => {
                self.overflow_min = self.overflow_min.min(entry.at);
                self.overflow.push(entry);
            }
        }
    }

    /// Refill `current` from the next non-empty slot (cascading far slots
    /// down level by level), jumping to the overflow list if the wheel
    /// proper is empty. Leaves `current` non-empty unless the queue is.
    fn advance(&mut self) {
        if self.slotted == 0 {
            if self.overflow.is_empty() {
                return;
            }
            // Jump the cursor to the earliest overflow event and re-home
            // everything that now fits under the horizon.
            self.cursor = self.overflow_min & !((1 << GRAIN_BITS) - 1);
            self.overflow_min = u64::MAX;
            let mut spill = std::mem::take(&mut self.overflow);
            for entry in spill.drain(..) {
                // Entries still beyond the new horizon land back in
                // `self.overflow`.
                self.place(entry);
            }
            if self.overflow.is_empty() {
                // Full drain: hand the capacity-keeping buffer back.
                self.overflow = spill;
            }
            if self.current.len() > 1 {
                self.current
                    .sort_unstable_by_key(|e| Reverse((e.at, e.seq)));
            }
            if !self.current.is_empty() {
                return;
            }
        }
        while self.slotted > 0 {
            let level = (0..LEVELS)
                .find(|&l| self.occupancy[l] != 0)
                .expect("slotted > 0 but no occupancy bit set");
            let idx = self.occupancy[level].trailing_zeros() as usize;
            self.occupancy[level] &= !(1 << idx);
            let mut bucket = std::mem::take(&mut self.slots[level * SLOTS + idx]);
            self.slotted -= bucket.len();
            // Move the cursor to the base of the chosen slot: keep the
            // bits above this level, substitute the slot index, zero the
            // rest.
            let shift = GRAIN_BITS + SLOT_BITS * level as u32;
            let above = if shift + SLOT_BITS >= 64 {
                0
            } else {
                (self.cursor >> (shift + SLOT_BITS)) << (shift + SLOT_BITS)
            };
            self.cursor = above | ((idx as u64) << shift);
            if level == 0 {
                // Exact slot: these are the next events.
                self.current.append(&mut bucket);
                self.slots[level * SLOTS + idx] = bucket;
                self.current
                    .sort_unstable_by_key(|e| Reverse((e.at, e.seq)));
                return;
            }
            // Far slot: redistribute one level (or more) down.
            for entry in bucket.drain(..) {
                self.place(entry);
            }
            self.slots[level * SLOTS + idx] = bucket;
            if !self.current.is_empty() {
                // Redistribution landed events in the cursor slot itself
                // (already sorted by `place`).
                return;
            }
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.is_empty() {
            self.advance();
        }
        let entry = self.current.pop()?;
        Some((SimTime::from_nanos(entry.at), entry.event))
    }

    fn rewind(&mut self) {
        if self.slotted > 0 {
            for level in 0..LEVELS {
                let mut occ = self.occupancy[level];
                while occ != 0 {
                    let idx = occ.trailing_zeros() as usize;
                    occ &= !(1 << idx);
                    self.slots[level * SLOTS + idx].clear();
                }
                self.occupancy[level] = 0;
            }
            self.slotted = 0;
        }
        self.current.clear();
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.cursor = 0;
    }

    fn capacity(&self) -> usize {
        self.slots.iter().map(Vec::capacity).sum::<usize>()
            + self.current.capacity()
            + self.overflow.capacity()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero. Allocates nothing until the first
    /// schedule.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in a discrete-event
    /// simulation (causality violation); this panics rather than silently
    /// reordering history.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule at {at} before now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.place(Slot {
            at: at.as_nanos(),
            seq,
            event,
        });
    }

    /// Schedule `event` after a relative delay from now.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now.after(delay), event);
    }

    /// Rewind to an empty calendar at time zero, keeping every allocation
    /// (wheel slots, cursor slot, overflow list). This is what lets a
    /// persistent queue drive one packet walk after another without
    /// reallocating per walk.
    pub fn rewind(&mut self) {
        self.wheel.rewind();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// Timestamp and payload of the next event without popping it — the
    /// clock does not advance and the pending set is unchanged. Takes
    /// `&mut self` because the wheel may need to cascade far slots down
    /// to expose its next event (a pure rearrangement; `(time, seq)`
    /// order is unaffected). The service scheduler uses this to look at
    /// the next fire time before deciding whether to advance the clock.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        let wheel = &mut self.wheel;
        if wheel.current.is_empty() {
            wheel.advance();
        }
        wheel
            .current
            .last()
            .map(|slot| (SimTime::from_nanos(slot.at), &slot.event))
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.wheel.pop()?;
        self.now = at;
        Some((at, event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total reserved event capacity across the wheel's buffers — the
    /// no-per-walk-allocation tests assert this is stable across reuse.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.wheel.capacity()
    }
}

/// The reference calendar: a binary min-heap of `(time, seq, event)` with
/// exactly [`EventQueue`]'s contract — strict `(time, seq)` pop order,
/// FIFO same-instant ties, a panic on scheduling before `now`, and a
/// [`rewind`](Self::rewind) that restarts `seq` at zero. It exists only
/// as the oracle the property tests and the `event_core` benchmark
/// compare the wheel against; no simulation runs on it.
#[derive(Debug)]
pub struct HeapCalendar<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct HeapEntry<E> {
    key: Reverse<(SimTime, u64)>,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> Default for HeapCalendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapCalendar<E> {
    /// An empty calendar at time zero.
    #[must_use]
    pub fn new() -> Self {
        HeapCalendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`; panics when `at` is before
    /// [`now`](Self::now), like [`EventQueue::schedule`].
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule at {at} before now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            key: Reverse((at, seq)),
            event,
        });
    }

    /// Schedule `event` after a relative delay from now.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now.after(delay), event);
    }

    /// Rewind to an empty calendar at time zero.
    pub fn rewind(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        let Reverse((at, _)) = entry.key;
        self.now = at;
        Some((at, entry.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(5.0), "c");
        q.schedule(SimTime::from_ms(1.0), "a");
        q.schedule(SimTime::from_ms(3.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(2.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(7.5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(7.5));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(10.0), "first");
        q.pop();
        q.schedule_after(SimTime::from_ms(5.0), "second");
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_ms(15.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(10.0), ());
        q.pop();
        q.schedule(SimTime::from_ms(1.0), ());
    }

    #[test]
    fn rewind_resets_time_and_clears_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(10.0), "a");
        q.pop();
        q.schedule(SimTime::from_ms(20.0), "b");
        q.rewind();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        // Scheduling at t=0 is legal again after a rewind.
        q.schedule(SimTime::ZERO, "c");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "c")));
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_ms(1.0), ());
        q.schedule(SimTime::from_ms(2.0), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn rewind_keeps_capacity() {
        let mut q = EventQueue::new();
        for i in 0..256u64 {
            q.schedule(SimTime::from_nanos(i * 1_000_003), i);
        }
        while q.pop().is_some() {}
        q.rewind();
        let cap = q.capacity();
        assert!(cap > 0, "the wheel should retain its buffers");
        for round in 0..8 {
            for i in 0..256u64 {
                q.schedule(SimTime::from_nanos(i * 1_000_003), i);
            }
            while q.pop().is_some() {}
            q.rewind();
            assert_eq!(q.capacity(), cap, "round {round} reallocated");
        }
    }

    #[test]
    fn wheel_handles_far_future_and_overflow() {
        // Events spread over every level plus the overflow list, with
        // same-instant ties, must still pop in exact (time, seq) order.
        let mut wheel = EventQueue::new();
        let mut heap = HeapCalendar::new();
        let times: Vec<u64> = vec![
            0,
            1,
            (1 << GRAIN_BITS) - 1,
            1 << GRAIN_BITS,
            (1 << GRAIN_BITS) + 1,
            1 << (GRAIN_BITS + SLOT_BITS),
            (1 << (GRAIN_BITS + 2 * SLOT_BITS)) + 12_345,
            (1 << (GRAIN_BITS + 5 * SLOT_BITS)) + 6_789,
            1 << (GRAIN_BITS + 6 * SLOT_BITS), // beyond the horizon
            (1 << (GRAIN_BITS + 6 * SLOT_BITS)) + (1 << GRAIN_BITS),
            u64::MAX / 2,
            1,
            0,
        ];
        for &t in &times {
            wheel.schedule(SimTime::from_nanos(t), t);
            heap.schedule(SimTime::from_nanos(t), t);
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_interleaves_scheduling_with_popping() {
        // A walk-like workload: pop one, schedule the next hop relative to
        // now, across slot and level boundaries.
        let mut wheel = EventQueue::new();
        let mut heap = HeapCalendar::new();
        wheel.schedule(SimTime::ZERO, 0u64);
        heap.schedule(SimTime::ZERO, 0u64);
        let mut step = 0u64;
        while let Some((wt, we)) = wheel.pop() {
            let (ht, he) = heap.pop().expect("heap ran dry first");
            assert_eq!((wt, we), (ht, he));
            if step < 500 {
                step += 1;
                // Growing, slot-straddling delays: ~65 µs … ~8 ms.
                let delay = SimTime::from_nanos((step % 7 + 1) * 69_997 * (step % 17 + 1));
                wheel.schedule_after(delay, step);
                heap.schedule_after(delay, step);
                if step.is_multiple_of(3) {
                    // Plus a same-instant tie.
                    wheel.schedule(wheel.now(), step + 1000);
                    heap.schedule(heap.now(), step + 1000);
                }
            }
        }
        assert!(heap.pop().is_none());
    }

    #[test]
    fn peek_matches_pop_without_consuming() {
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        // Spread across slots, levels, and the overflow list, with a
        // same-instant tie, so the wheel has to cascade to peek.
        let times: Vec<u64> = vec![
            5 * 1_000_000,
            1_000_000,
            1_000_000,
            1 << (GRAIN_BITS + 2 * SLOT_BITS),
            1 << (GRAIN_BITS + 6 * SLOT_BITS),
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let before = q.len();
        while !q.is_empty() {
            let now_before = q.now();
            let (peek_at, &peek_ev) = q.peek().expect("non-empty queue peeks");
            assert_eq!(q.now(), now_before, "peek moved the clock");
            let (at, ev) = q.pop().unwrap();
            assert_eq!((peek_at, peek_ev), (at, ev));
        }
        assert_eq!(before, times.len());
        assert!(q.peek().is_none());
    }

    #[test]
    fn scheduling_behind_a_peeked_cursor_keeps_time_order() {
        // A recurring-job pattern: drain an instant, peek (the wheel
        // cascades its cursor to the next occupied slot — possibly far
        // ahead), then schedule the next recurrence *earlier* than the
        // peeked time. The wheel must still deliver in the heap's order.
        const DAY: u64 = 86_400_000_000_000;
        let mut wheel = EventQueue::new();
        let mut heap = HeapCalendar::new();
        for (at, job) in [(0, 0u32), (7 * DAY, 1u32)] {
            // A daily job firing at 0 and a weekly job.
            wheel.schedule(SimTime::from_nanos(at), job);
            heap.schedule(SimTime::from_nanos(at), job);
        }
        let mut order = Vec::new();
        while let Some((at, ev)) = wheel.pop() {
            assert_eq!(heap.pop(), Some((at, ev)), "after {order:?}");
            order.push((at.as_nanos() / DAY, ev));
            let t = at.as_nanos();
            if ev == 0 && t < 10 * DAY {
                // Peek first — this cascades the wheel's cursor up to
                // the weekly entry before the daily one lands.
                let _ = wheel.peek();
                wheel.schedule(SimTime::from_nanos(t + DAY), 0u32);
                heap.schedule(SimTime::from_nanos(t + DAY), 0u32);
            }
        }
        assert!(heap.pop().is_none());
        assert!(order.windows(2).all(|w| w[0].0 <= w[1].0), "{order:?}");
    }
}
