//! The calendar-equivalence contract: the timing wheel behind
//! [`EventQueue`] pops events in *identical* `(time, seq)` order to the
//! binary-heap reference model [`HeapCalendar`] — including same-instant
//! FIFO ties, schedule-while-popping interleavings across
//! slot/level/horizon boundaries, and reuse through `rewind()`.

use proptest::prelude::*;
use roam_netsim::{EventQueue, HeapCalendar, SimTime};

/// The wheel's overflow horizon: events whose quantised time differs from
/// the cursor at or above bit 52 wait in the overflow list.
const HORIZON: u64 = 1 << 52;

/// The wheel and the heap oracle driven in lockstep; every pop asserts
/// that both return the same `(time, event)` and agree on clock and size.
struct Lockstep {
    wheel: EventQueue<u32>,
    heap: HeapCalendar<u32>,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            wheel: EventQueue::new(),
            heap: HeapCalendar::new(),
        }
    }

    fn schedule(&mut self, at: SimTime, event: u32) {
        self.wheel.schedule(at, event);
        self.heap.schedule(at, event);
    }

    fn schedule_after(&mut self, delay: SimTime, event: u32) {
        self.wheel.schedule_after(delay, event);
        self.heap.schedule_after(delay, event);
    }

    fn now(&self) -> SimTime {
        self.wheel.now()
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let w = self.wheel.pop();
        assert_eq!(w, self.heap.pop(), "pop diverged");
        assert_eq!(self.wheel.now(), self.heap.now(), "clocks diverged");
        assert_eq!(self.wheel.len(), self.heap.len(), "sizes diverged");
        w
    }

    /// Pop everything, asserting the pops never go back in time.
    fn drain(&mut self) {
        let mut prev = SimTime::ZERO;
        while let Some((at, _)) = self.pop() {
            assert!(at >= prev, "time went backwards");
            prev = at;
        }
    }

    fn rewind(&mut self) {
        self.wheel.rewind();
        self.heap.rewind();
        assert!(self.wheel.is_empty() && self.heap.is_empty());
        assert_eq!(self.wheel.now(), SimTime::ZERO);
    }
}

/// One scripted action against both calendars.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delay_ns` (relative keeps the script causal).
    After(u64),
    /// Schedule `copies` events at exactly `now` — a same-instant burst.
    Burst(u8),
    /// Pop once and compare.
    Pop,
    /// Rewind both queues and keep going.
    Rewind,
}

fn op() -> impl Strategy<Value = Op> {
    // Repeated arms stand in for weights (the vendored `prop_oneof!` is
    // uniform): pops dominate so scripts actually drain what they build.
    prop_oneof![
        // Delays spanning sub-slot (< 2^16 ns), multi-slot, multi-level
        // and beyond-horizon (> 2^52 ns) magnitudes.
        (0u32..63).prop_map(|bits| Op::After(1u64 << bits)),
        (0u64..200_000_000).prop_map(Op::After),
        (0u64..200_000_000).prop_map(Op::After),
        (0u64..200_000_000).prop_map(Op::After),
        (1u8..8).prop_map(Op::Burst),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Rewind),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Run an arbitrary schedule/pop/rewind script against both calendars
    /// in lockstep; every pop must return the same (time, event) pair, and
    /// a final drain must agree on the leftovers.
    #[test]
    fn wheel_pops_in_heap_order(ops in proptest::collection::vec(op(), 1..120)) {
        let mut q = Lockstep::new();
        let mut tag = 0u32;
        for op in ops {
            match op {
                Op::After(delay_ns) => {
                    q.schedule_after(SimTime::from_nanos(delay_ns), tag);
                    tag += 1;
                }
                Op::Burst(copies) => {
                    for _ in 0..copies {
                        q.schedule(q.now(), tag);
                        tag += 1;
                    }
                }
                Op::Pop => {
                    q.pop();
                }
                Op::Rewind => q.rewind(),
            }
        }
        q.drain();
    }

    /// Absolute-time stress: a pile of arbitrary timestamps (clustered by
    /// construction to force same-instant ties) scheduled up front pops in
    /// exact sorted-by-(time, seq) order, then the queues are rewound and
    /// reused to prove no state leaks across walks.
    #[test]
    fn preloaded_timestamps_pop_sorted_and_rewind_cleanly(
        times in proptest::collection::vec((0u64..1 << 54, 0u64..4), 1..300),
        rounds in 1usize..3,
    ) {
        let mut q = Lockstep::new();
        for _ in 0..rounds {
            for (i, &(coarse, jitter)) in times.iter().enumerate() {
                // Quantising coarse and re-adding a tiny jitter clusters
                // many entries into the same nanosecond.
                q.schedule(SimTime::from_nanos((coarse >> 8 << 8) + jitter), i as u32);
            }
            q.drain();
            q.rewind();
        }
    }
}

/// The three schedule mixes of the `event_core` benchmark, 4k events
/// each, timed as `i -> ns`.
fn uniform(i: u32) -> u64 {
    // Timers scattered over the u32 nanosecond range (~4.3 s),
    // Knuth-hashed so insertion order fights pop order.
    u64::from(i.wrapping_mul(2_654_435_761))
}

fn bursty(i: u32) -> u64 {
    // 64-event same-tick bursts: the FIFO tie-break path.
    u64::from(i / 64) * 1_000_000
}

fn longtail(i: u32) -> u64 {
    // Exponentially spread timers from 1 ns out to ~9 min: cascades
    // through the wheel's upper levels.
    (1u64 << (i % 40)) | u64::from(i)
}

/// Each benchmark mix pops in heap order on one long-lived queue pair
/// across several `rewind()` reuses, including a rewind of a half-drained
/// calendar.
#[test]
fn benchmark_mixes_pop_in_heap_order_across_rewinds() {
    for (name, mix) in [
        ("uniform", uniform as fn(u32) -> u64),
        ("bursty", bursty),
        ("longtail", longtail),
    ] {
        let mut q = Lockstep::new();
        for round in 0..4 {
            for i in 0..4_000u32 {
                q.schedule(SimTime::from_nanos(mix(i)), i);
            }
            if round == 1 {
                for _ in 0..2_000 {
                    assert!(q.pop().is_some(), "{name}: ran dry early");
                }
            } else {
                q.drain();
            }
            q.rewind();
        }
    }
}

/// A walk that crosses the 2^52 ns overflow horizon: absolute events on
/// both sides of it and of 2^53, a cursor parked just below it, relative
/// delays that straddle it, and rescheduling while the cursor jumps into
/// the overflow list — repeated over rewinds with a shifted start.
#[test]
fn script_across_the_overflow_horizon_pops_in_heap_order() {
    let mut q = Lockstep::new();
    for round in 0..3u64 {
        let below = HORIZON - 5_000_000 - round * 65_537;
        q.schedule(SimTime::ZERO, 0);
        let absolute = [
            below,
            HORIZON - 1,
            HORIZON,
            HORIZON,
            HORIZON + 1,
            HORIZON + 70_000,
            2 * HORIZON - 1,
            2 * HORIZON + 12_345,
        ];
        for (tag, at) in (1..).zip(absolute) {
            q.schedule(SimTime::from_nanos(at), tag);
        }
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(below), 1)));
        // Parked just below the horizon: these land on both sides of it.
        for (tag, delay) in (100..).zip([4_999_999, 5_000_000, 5_000_001, 10_000_000, HORIZON]) {
            q.schedule_after(SimTime::from_nanos(delay), tag);
        }
        let mut tag = 200;
        while q.pop().is_some() {
            if tag < 264 {
                q.schedule_after(SimTime::from_nanos(u64::from(tag) * 40_000_003), tag);
                if tag.is_multiple_of(8) {
                    q.schedule(q.now(), tag + 1_000);
                    q.schedule_after(SimTime::from_nanos(HORIZON - 1), tag + 2_000);
                }
                tag += 1;
            }
        }
        q.rewind();
    }
}

/// Same-instant FIFO, pinned explicitly (not just via the reference
/// model): bursts scheduled at one instant pop in scheduling order even
/// when the burst is interleaved with earlier and later events.
#[test]
fn same_instant_bursts_pop_fifo() {
    let mut q = EventQueue::new();
    let t = SimTime::from_ms(3.0);
    q.schedule(SimTime::from_ms(9.0), 100u32);
    for i in 0..32 {
        q.schedule(t, i);
    }
    q.schedule(SimTime::from_ms(1.0), 200);
    assert_eq!(q.pop(), Some((SimTime::from_ms(1.0), 200)));
    for i in 0..32 {
        assert_eq!(q.pop(), Some((t, i)));
    }
    assert_eq!(q.pop(), Some((SimTime::from_ms(9.0), 100)));
    assert!(q.pop().is_none());
}

/// Rewound queues keep their buffers: scheduling the same walk-sized load
/// again allocates nothing new (the telemetry calendar-depth counter in
/// `roam-netsim`'s network tests pins the same property end-to-end).
#[test]
fn rewind_reuse_holds_capacity_steady() {
    let mut q = EventQueue::new();
    let walk = |q: &mut EventQueue<u32>| {
        for hop in 0..24u64 {
            q.schedule(SimTime::from_nanos(hop * 3_000_017), hop as u32);
        }
        while q.pop().is_some() {}
        q.rewind();
    };
    walk(&mut q);
    let cap = q.capacity();
    for _ in 0..64 {
        walk(&mut q);
        assert_eq!(q.capacity(), cap, "the wheel reallocated across walks");
    }
}
