//! The pending-event set.
//!
//! [`EventQueue`] is a time-ordered priority queue of application-defined
//! events with a strictly deterministic total order: events fire in
//! increasing timestamp order, and events scheduled for the same instant fire
//! in the order they were scheduled (FIFO). Determinism is essential — every
//! experiment in this repository must be exactly reproducible from its seed.
//!
//! The queue owns the simulation clock: popping an event advances `now` to
//! the event's timestamp. Scheduling in the past is a logic error and panics.
//!
//! ## Implementation: hybrid calendar queue over an event slab
//!
//! Simulated delays cluster tightly around the hardware constants (tens of
//! nanoseconds for links, routers and DRAM), so a comparison-based heap pays
//! `O(log n)` sift costs for what is nearly FIFO traffic. Instead the queue
//! parks each event in a slab slot and orders 32-byte records
//! `(time, key, slot)` in three tiers, ordered by distance from the clock:
//!
//! * **front** — every pending record in the *current* bucket (and any
//!   record scheduled at-or-before it), kept sorted by `(time, key)` in a
//!   `Vec` read from a moving head; `pop` is `O(1)` and a same-instant
//!   `schedule_now` is a sorted insert near the tail.
//! * **ring** — `NUM_BUCKETS` FIFO buckets of 2^`BUCKET_WIDTH_BITS`
//!   picoseconds each covering the near future; scheduling is an `O(1)`
//!   push plus an occupancy-bitmap update.
//! * **overflow** — a `BinaryHeap` for the far future beyond the ring
//!   horizon (timeouts, sampling probes).
//!
//! When `front` drains, *refill* advances the epoch straight to the earliest
//! non-empty bucket (bitmap scan / overflow peek), swaps that bucket's
//! record vector in as `front` and sorts it — restoring the exact `(time, key)`
//! order a global heap would have produced. The slot never enters a
//! comparison, so the total order is identical to the previous
//! `BinaryHeap` implementation, which survives as a `#[cfg(test)]` oracle
//! driven against the calendar queue by seeded differential tests.
//!
//! Moving records instead of events keeps every tier move and every sort
//! swap at 32 bytes whatever the event type's size; the event itself is
//! written once on `schedule` and read once on `pop`. Freed slots are
//! reused LIFO, so the slab stays as large as the peak pending count.

use crate::time::{SimDuration, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Log2 of the bucket width in picoseconds: 2^14 ps ≈ 16.4 ns, about a
/// sixth of one fabric hop (≈ 90 ns: 60 ns router, serialization, 20 ns
/// link). The 256-node serving world schedules ~20 events per 65.5 ns, so
/// a bucket holds about five records and each refill's sort stays short.
const BUCKET_WIDTH_BITS: u32 = 14;
/// Number of ring buckets; the ring horizon is `NUM_BUCKETS * 16.4 ns ≈
/// 16.8 us` ahead of the current bucket. Must be a multiple of 64 for the
/// occupancy bitmap.
const NUM_BUCKETS: usize = 1024;
/// Occupancy bitmap words.
const BITMAP_WORDS: usize = NUM_BUCKETS / 64;

/// A pending event's position in the total order plus the slab slot that
/// holds the event. Equality and order look at `(at, key)` only.
#[derive(Clone, Copy)]
struct Rec {
    at: SimTime,
    key: u128,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Rec>() == 32);

impl Rec {
    #[inline]
    fn order(&self) -> (SimTime, u128) {
        (self.at, self.key)
    }
}

impl PartialEq for Rec {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Rec {}

impl PartialOrd for Rec {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rec {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order().cmp(&other.order())
    }
}

/// Time-ordered pending-event set with a deterministic total order.
///
/// ```
/// use cohfree_sim::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule_in(SimDuration::ns(10), "b");
/// q.schedule_in(SimDuration::ns(5), "a");
/// q.schedule_in(SimDuration::ns(10), "c"); // same instant as "b", after it
///
/// assert_eq!(q.pop(), Some((SimTime::ZERO + SimDuration::ns(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::ZERO + SimDuration::ns(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime::ZERO + SimDuration::ns(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// `front[head..]` holds all pending records in bucket `epoch` or
    /// earlier, sorted ascending by `(at, key)`; `front[..head]` are popped
    /// leftovers. Non-empty whenever `len > 0` (eager refill), so `pop` and
    /// `peek_time` never search the ring.
    front: Vec<Rec>,
    head: usize,
    /// Near-future FIFO buckets; slot `b % NUM_BUCKETS` holds records whose
    /// bucket `b` lies in `(epoch, epoch + NUM_BUCKETS)`.
    ring: Box<[Vec<Rec>; NUM_BUCKETS]>,
    /// One bit per ring slot: set iff the slot is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Far-future records beyond the ring horizon.
    overflow: BinaryHeap<Reverse<Rec>>,
    /// Event slab: `events[r.slot]` is `Some` exactly while record `r` is
    /// pending.
    events: Vec<Option<E>>,
    /// Vacant slab slots.
    free: Vec<u32>,
    /// Absolute index of the bucket `front` currently covers.
    epoch: u64,
    len: usize,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.0 >> BUCKET_WIDTH_BITS
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            front: Vec::new(),
            head: 0,
            ring: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: [0; BITMAP_WORDS],
            overflow: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            epoch: 0,
            len: 0,
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `event` at absolute instant `at`.
    ///
    /// Events scheduled this way are keyed by an internal monotone sequence
    /// counter, so same-instant events fire in FIFO order.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — the engine never
    /// travels backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = self.seq as u128;
        self.seq += 1;
        self.schedule_keyed(at, key, event);
    }

    /// Schedule `event` at absolute instant `at` under an explicit ordering
    /// `key`: pending events fire in ascending `(at, key)` order.
    ///
    /// A caller that derives each key from the computation that scheduled
    /// the event (rather than from insertion order) fixes the tie order of
    /// same-instant events independently of how its handlers interleave
    /// their `schedule` calls. Keys must be unique per instant; the plain
    /// [`EventQueue::schedule`] path reserves the low range by spending its
    /// `u64` sequence counter as the key.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u128, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} < now={now}",
            at = at,
            now = self.now
        );
        let rec = Rec {
            at,
            key,
            slot: self.park(event),
        };
        self.len += 1;
        if self.len == 1 {
            // Queue was empty: adopt this event's bucket as the epoch and
            // serve it straight from `front`.
            self.epoch = bucket_of(at);
            self.front.clear();
            self.head = 0;
            self.front.push(rec);
            return;
        }
        let b = bucket_of(at);
        if b <= self.epoch {
            // Current (or earlier-than-epoch) bucket: sorted insert keeps
            // `front` the exact prefix of the global order. Sequence-keyed
            // events carry the largest key, so ties land after existing
            // same-instant events (FIFO) and the common "latest time" case
            // inserts at the tail in O(1).
            if self.head >= 64 && 2 * self.head >= self.front.len() {
                // Drop the popped prefix of a long-lived front; this moves
                // no more records than were popped since the last drop.
                self.front.drain(..self.head);
                self.head = 0;
            }
            let idx = self.front[self.head..].partition_point(|r| r.order() < rec.order());
            self.front.insert(self.head + idx, rec);
        } else if b - self.epoch < NUM_BUCKETS as u64 {
            let slot = (b % NUM_BUCKETS as u64) as usize;
            self.ring[slot].push(rec);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.overflow.push(Reverse(rec));
        }
    }

    /// Store `event` in a vacant slab slot and return the slot.
    #[inline]
    fn park(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.events[slot as usize].is_none());
                self.events[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.events.len()).expect("pending events exceed u32");
                self.events.push(Some(event));
                slot
            }
        }
    }

    /// Schedule `event` after `delay` from the current clock.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Schedule `event` at the current instant (fires after all events
    /// already scheduled for this instant).
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.schedule(self.now, event);
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front.get(self.head).map(|r| r.at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(at, _, event)| (at, event))
    }

    /// [`EventQueue::pop`], but also returning the event's ordering key.
    /// Engines that derive scheduling keys from the currently executing
    /// event (same-instant causality chains) need the key in hand.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u128, E)> {
        let Rec { at, key, slot } = *self.front.get(self.head)?;
        self.head += 1;
        debug_assert!(at >= self.now, "event queue clock regression");
        let event = self.events[slot as usize]
            .take()
            .expect("a pending record owns its slab slot");
        self.free.push(slot);
        self.now = at;
        self.processed += 1;
        self.len -= 1;
        if self.head == self.front.len() && self.len > 0 {
            self.refill();
        }
        Some((at, key, event))
    }

    /// Drain and drop all pending events without advancing the clock.
    /// The sequence counter keeps counting, so ordering guarantees span
    /// a clear.
    pub fn clear(&mut self) {
        self.front.clear();
        self.head = 0;
        let mut remaining = self.occupied;
        for (w, word) in remaining.iter_mut().enumerate() {
            while *word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                self.ring[slot].clear();
                *word &= *word - 1;
            }
        }
        self.occupied = [0; BITMAP_WORDS];
        self.overflow.clear();
        self.events.clear();
        self.free.clear();
        self.len = 0;
    }

    /// Advance `epoch` to the earliest non-empty bucket and make its
    /// records (ring slot plus any overflow stragglers in the same bucket)
    /// the new `front`, sorted by `(at, key)`. Called only when `front` is
    /// drained and events remain.
    #[cold]
    fn refill(&mut self) {
        debug_assert!(self.head == self.front.len() && self.len > 0);
        let e_slot = (self.epoch % NUM_BUCKETS as u64) as usize;
        let ring_bucket = self
            .next_occupied_slot((e_slot + 1) % NUM_BUCKETS)
            .map(|slot| {
                let delta = (slot + NUM_BUCKETS - e_slot) % NUM_BUCKETS;
                debug_assert!(delta > 0);
                self.epoch + delta as u64
            });
        let ovf_bucket = self.overflow.peek().map(|r| bucket_of(r.0.at));
        self.epoch = match (ring_bucket, ovf_bucket) {
            (Some(r), Some(o)) => r.min(o),
            (Some(r), None) => r,
            (None, Some(o)) => o,
            (None, None) => unreachable!("refill with no pending events"),
        };
        // The drained front's buffer goes back to the ring as the
        // (empty) vector of the slot it replaces: no record is copied and
        // every buffer keeps its capacity.
        self.front.clear();
        self.head = 0;
        let slot = (self.epoch % NUM_BUCKETS as u64) as usize;
        if self.occupied[slot / 64] & (1 << (slot % 64)) != 0 {
            debug_assert!(self.ring[slot]
                .iter()
                .all(|r| bucket_of(r.at) == self.epoch));
            std::mem::swap(&mut self.front, &mut self.ring[slot]);
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        // Overflow may hold records inside the (advanced) ring window; they
        // are picked up bucket-by-bucket as the epoch reaches them.
        while self
            .overflow
            .peek()
            .is_some_and(|r| bucket_of(r.0.at) == self.epoch)
        {
            let Reverse(rec) = self.overflow.pop().expect("peeked");
            self.front.push(rec);
        }
        self.front.sort_unstable();
        debug_assert!(!self.front.is_empty());
        debug_assert!(
            self.front.windows(2).all(|w| w[0] < w[1]),
            "two pending events share an (at, key)"
        );
    }

    /// First occupied ring slot in circular order starting at `start`, or
    /// `None` if the ring is empty. Word-at-a-time bitmap scan.
    #[inline]
    fn next_occupied_slot(&self, start: usize) -> Option<usize> {
        let (sw, sb) = (start / 64, start % 64);
        let w = self.occupied[sw] & (u64::MAX << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        for k in 1..BITMAP_WORDS {
            let wi = (sw + k) % BITMAP_WORDS;
            let w = self.occupied[wi];
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        // Wrapped around to the start word: check the bits below `start`.
        let w = self.occupied[sw] & !(u64::MAX << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        None
    }

    /// Run the event loop to completion: pop every event and feed it to
    /// `handler`, which may schedule further events. Returns the number of
    /// events processed by this call.
    ///
    /// The `step_limit` guards against accidental non-termination (a model
    /// bug that endlessly reschedules); exceeding it panics with the current
    /// simulated time to aid debugging.
    pub fn run<F>(&mut self, step_limit: u64, mut handler: F) -> u64
    where
        F: FnMut(SimTime, E, &mut Self),
    {
        let mut steps = 0;
        while let Some((at, ev)) = self.pop() {
            handler(at, ev, self);
            steps += 1;
            assert!(
                steps <= step_limit,
                "event loop exceeded step limit {step_limit} at {at}"
            );
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Width of one calendar bucket in picoseconds.
    const BUCKET_WIDTH_PS: u64 = 1 << BUCKET_WIDTH_BITS;

    /// Oracle heap entry: ordered by `(time, key)` ascending.
    struct Entry<E> {
        at: SimTime,
        key: u128,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.key == other.key
        }
    }
    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest (time, key) pops first.
            (other.at, other.key).cmp(&(self.at, self.key))
        }
    }

    /// The original `BinaryHeap`-only implementation, kept as the ordering
    /// oracle for the differential tests below.
    struct OracleQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        now: SimTime,
        seq: u64,
        processed: u64,
    }

    impl<E> OracleQueue<E> {
        fn new() -> Self {
            OracleQueue {
                heap: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
                processed: 0,
            }
        }
        fn schedule(&mut self, at: SimTime, event: E) {
            let key = self.seq as u128;
            self.seq += 1;
            self.schedule_keyed(at, key, event);
        }
        fn schedule_keyed(&mut self, at: SimTime, key: u128, event: E) {
            assert!(at >= self.now);
            self.heap.push(Entry { at, key, event });
        }
        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.pop_entry().map(|(at, _, event)| (at, event))
        }
        fn pop_entry(&mut self) -> Option<(SimTime, u128, E)> {
            let entry = self.heap.pop()?;
            self.now = entry.at;
            self.processed += 1;
            Some((entry.at, entry.key, entry.event))
        }
        fn clear(&mut self) {
            self.heap.clear();
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), 3u32);
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(SimTime(42), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_and_is_monotone() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), ());
        q.schedule(SimTime(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(5));
        q.pop();
        assert_eq!(q.now(), SimTime(9));
        assert_eq!(q.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    fn schedule_now_fires_after_existing_same_instant_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, "first");
        q.schedule_now("second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn run_drives_cascading_events() {
        // A chain: each event below 10 schedules its successor 1ns later.
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0u64);
        let mut seen = Vec::new();
        let steps = q.run(1_000, |_, ev, q| {
            seen.push(ev);
            if ev < 10 {
                q.schedule_in(SimDuration::ns(1), ev + 1);
            }
        });
        assert_eq!(steps, 11);
        assert_eq!(seen, (0..=10).collect::<Vec<_>>());
        assert_eq!(q.now().as_ns(), 10);
    }

    #[test]
    #[should_panic(expected = "step limit")]
    fn run_panics_past_step_limit() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.run(10, |_, _, q| q.schedule_in(SimDuration::ns(1), ()));
    }

    #[test]
    fn peek_and_clear() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(7), 1u8);
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn events_cross_the_ring_horizon_in_order() {
        // One event per bucket-sized stride far past the ring horizon, plus
        // near-future fillers, interleaved: order must still be global.
        let mut q = EventQueue::new();
        let horizon = BUCKET_WIDTH_PS * NUM_BUCKETS as u64;
        q.schedule(SimTime(3 * horizon), 30u64);
        q.schedule(SimTime(7), 1);
        q.schedule(SimTime(horizon + 5), 20);
        q.schedule(SimTime(BUCKET_WIDTH_PS + 1), 2);
        q.schedule(SimTime(3 * horizon), 31); // same far instant, FIFO
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 20, 30, 31]);
        assert_eq!(q.now(), SimTime(3 * horizon));
    }

    #[test]
    fn clear_keeps_clock_and_sequence_counter() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), 0u32);
        q.schedule(SimTime(BUCKET_WIDTH_PS * 500), 1); // overflow tier
        q.schedule(SimTime(BUCKET_WIDTH_PS * 2), 2); // ring tier
        assert_eq!(q.pop(), Some((SimTime(100), 0)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        // The clock does not rewind, and scheduling before it still panics.
        assert_eq!(q.now(), SimTime(100));
        assert_eq!(q.processed(), 1);
        // FIFO ordering spans the clear: the sequence counter keeps
        // counting, so a pre-clear tie-breaker can never outrank a
        // post-clear event at the same instant.
        q.schedule(SimTime(200), 10);
        q.schedule(SimTime(200), 11);
        assert_eq!(q.pop(), Some((SimTime(200), 10)));
        assert_eq!(q.pop(), Some((SimTime(200), 11)));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn clear_then_reschedule_in_an_earlier_bucket_works() {
        // After a far-future-only population the epoch sits far ahead;
        // clearing and scheduling near-past-the-clock must still serve the
        // new event first.
        let mut q = EventQueue::new();
        q.schedule(SimTime(BUCKET_WIDTH_PS * 1000), 1u32);
        q.clear();
        q.schedule(SimTime(5), 2);
        q.schedule(SimTime(BUCKET_WIDTH_PS * 1000), 3);
        assert_eq!(q.pop(), Some((SimTime(5), 2)));
        assert_eq!(q.pop(), Some((SimTime(BUCKET_WIDTH_PS * 1000), 3)));
    }

    #[test]
    fn keyed_scheduling_orders_by_key_within_an_instant() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime(50), 7, "c");
        q.schedule_keyed(SimTime(50), 2, "a");
        q.schedule_keyed(SimTime(10), u128::MAX, "first");
        q.schedule_keyed(SimTime(50), 3, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "a", "b", "c"]);
        assert_eq!(q.peek_time(), None);
    }

    /// The differential net from the issue: ~1M seeded random
    /// schedule/pop/clear interleavings against the `BinaryHeap` oracle,
    /// with heavy same-instant collisions and far-future outliers crossing
    /// the bucket horizon. Pop sequences, clock values and processed counts
    /// must match exactly.
    #[test]
    fn differential_against_binary_heap_oracle() {
        let mut rng = Rng::new(0xC0FFEE);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut o: OracleQueue<u64> = OracleQueue::new();
        let mut next_id = 0u64;
        let horizon = BUCKET_WIDTH_PS * NUM_BUCKETS as u64;
        let mut ops = 0u64;
        while ops < 1_000_000 {
            match rng.below(100) {
                // 55%: schedule with a tier-stressing delay distribution.
                0..=54 => {
                    let delay = match rng.below(10) {
                        // Same instant — collides with everything pending now.
                        0..=2 => 0,
                        // Within the current bucket.
                        3..=4 => rng.below(BUCKET_WIDTH_PS),
                        // Near future: a few buckets out.
                        5..=7 => rng.below(BUCKET_WIDTH_PS * 8),
                        // Across the ring — lands near the horizon edge.
                        8 => horizon - BUCKET_WIDTH_PS * 2 + rng.below(BUCKET_WIDTH_PS * 4),
                        // Far-future outlier, deep in the overflow tier.
                        _ => horizon * (1 + rng.below(4)) + rng.below(horizon),
                    };
                    let at = q.now() + SimDuration(delay);
                    q.schedule(at, next_id);
                    o.schedule(at, next_id);
                    next_id += 1;
                }
                // 44%: pop and compare.
                55..=98 => {
                    let got = q.pop();
                    let want = o.pop();
                    assert_eq!(got, want, "pop diverged after {ops} ops");
                    assert_eq!(q.now(), o.now, "clock diverged after {ops} ops");
                }
                // 1%: clear both.
                _ => {
                    q.clear();
                    o.clear();
                    assert!(q.is_empty());
                    assert_eq!(q.peek_time(), None);
                }
            }
            assert_eq!(q.len(), o.heap.len());
            ops += 1;
        }
        // Drain what's left; sequences must stay identical to the end.
        loop {
            let got = q.pop();
            let want = o.pop();
            assert_eq!(got, want, "drain diverged");
            if got.is_none() {
                break;
            }
        }
        assert_eq!(q.processed(), o.processed);
        assert_eq!(q.now(), o.now);
        assert!(q.processed() > 300_000, "pop arm under-exercised");
    }

    /// The `World`'s side of the API: ~1M seeded `schedule_keyed` /
    /// `pop_entry` / `clear` operations against the oracle. Keys are
    /// non-monotone `u128`s (a random high half over a unique low half).
    /// A third of the schedules reuse an instant that pending events
    /// already hold, so ties are split across tiers: the earlier event was
    /// parked in overflow or the ring, the later one in the ring or
    /// `front`. The queue also repeatedly drains and runs one-event chains
    /// (every schedule lands on an empty queue, as on the blocking path).
    /// Pops, keys, clocks, lengths and counts must match exactly.
    #[test]
    fn keyed_differential_against_binary_heap_oracle() {
        let mut rng = Rng::new(0x5EED_4B3D);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut o: OracleQueue<u64> = OracleQueue::new();
        let horizon = BUCKET_WIDTH_PS * NUM_BUCKETS as u64;
        let mut instants: Vec<SimTime> = Vec::new();
        let mut next_id = 0u64;
        let (mut max_ring, mut max_overflow, mut chain_links) = (0usize, 0usize, 0u64);
        let key_for = |rng: &mut Rng, id: u64| -> u128 {
            let hi = match rng.below(4) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64(),
            };
            (hi as u128) << 64 | id as u128
        };
        let delay = |rng: &mut Rng| match rng.below(10) {
            0..=1 => 0,
            2..=3 => rng.below(BUCKET_WIDTH_PS),
            4..=6 => rng.below(BUCKET_WIDTH_PS * 16),
            7 => horizon - BUCKET_WIDTH_PS * 2 + rng.below(BUCKET_WIDTH_PS * 4),
            _ => horizon * (1 + rng.below(3)) + rng.below(horizon),
        };
        let mut ops = 0u64;
        while ops < 1_000_000 {
            match rng.below(100) {
                0..=51 => {
                    let reuse = rng.below(3) == 0 && !instants.is_empty();
                    let at = if reuse {
                        instants[rng.below(instants.len() as u64) as usize]
                    } else {
                        q.now() + SimDuration(delay(&mut rng))
                    };
                    let at = at.max(q.now());
                    if instants.len() < 256 {
                        instants.push(at);
                    } else {
                        instants[rng.below(256) as usize] = at;
                    }
                    let key = key_for(&mut rng, next_id);
                    q.schedule_keyed(at, key, next_id);
                    o.schedule_keyed(at, key, next_id);
                    next_id += 1;
                }
                52..=94 => {
                    assert_eq!(q.pop_entry(), o.pop_entry(), "pop diverged after {ops} ops");
                    assert_eq!(q.now(), o.now, "clock diverged after {ops} ops");
                }
                95..=98 => {
                    // Drain, then a chain of one-event schedule/pop pairs.
                    loop {
                        let got = q.pop_entry();
                        assert_eq!(got, o.pop_entry(), "drain diverged after {ops} ops");
                        if got.is_none() {
                            break;
                        }
                    }
                    for _ in 0..rng.range(1, 24) {
                        let at = q.now() + SimDuration(delay(&mut rng));
                        let key = key_for(&mut rng, next_id);
                        q.schedule_keyed(at, key, next_id);
                        o.schedule_keyed(at, key, next_id);
                        next_id += 1;
                        assert_eq!(q.peek_time(), Some(at));
                        assert_eq!(
                            q.pop_entry(),
                            o.pop_entry(),
                            "chain diverged after {ops} ops"
                        );
                        assert!(q.is_empty());
                        chain_links += 1;
                    }
                }
                _ => {
                    q.clear();
                    o.clear();
                    assert!(q.is_empty());
                    assert_eq!(q.peek_time(), None);
                }
            }
            assert_eq!(q.len(), o.heap.len());
            max_ring = max_ring.max(q.ring.iter().map(Vec::len).sum());
            max_overflow = max_overflow.max(q.overflow.len());
            ops += 1;
        }
        loop {
            let got = q.pop_entry();
            assert_eq!(got, o.pop_entry(), "final drain diverged");
            if got.is_none() {
                break;
            }
        }
        assert_eq!(q.processed(), o.processed);
        assert_eq!(q.now(), o.now);
        assert!(q.processed() > 300_000, "pop arm under-exercised");
        assert!(max_ring > 16 && max_overflow > 16, "tiers under-exercised");
        assert!(chain_links > 100_000, "chain arm under-exercised");
    }
}
