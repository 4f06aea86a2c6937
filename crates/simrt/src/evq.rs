//! The event queue of the discrete-event core.
//!
//! [`crate::sim::Sim`] dispatches events in `(time, seq)` order — `time` is
//! virtual nanoseconds, `seq` the unique push sequence number. [`Wheel`], a
//! hierarchical timing wheel (Varghese & Lauck), provides that order: far
//! events land in time-bucketed slots in O(1), cascading toward a small
//! near-term heap (`due`) that provides the final total order. Ties are
//! resolved by `seq`, never by insertion order or bucket layout, so the pop
//! order is exactly that of a `BinaryHeap<Reverse<Entry>>` over the same
//! pushes — the unit tests below check the wheel against that heap, and
//! `benches/event_queue.rs` times the two at 10k/100k/1M concurrent timers
//! (see `results/event_queue_bench.txt`).
//!
//! The simulator keeps two wheels: one for lane events and one for
//! cluster-wide control events (fault firings, chaos draws, process
//! restarts, reconfiguration), which run with exclusive access to the whole
//! world between lane-dispatch segments.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Total-order key of an event.
pub type EvKey = (SimTime, u64);

/// One queued event: a `(time, seq)` key plus an arbitrary payload.
#[derive(Debug, Clone)]
pub struct Entry<T> {
    /// Fire time, virtual ns.
    pub time: SimTime,
    /// Global push sequence number (unique; the tiebreak at equal times).
    pub seq: u64,
    /// The event payload.
    pub item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> EvKey {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

// ---------------------------------------------------------------------------
// Hierarchical timing wheel.
// ---------------------------------------------------------------------------

/// Virtual ns per wheel tick (4.096 µs — comparable to the simulator's
/// typical inter-event gap).
const TICK_SHIFT: u64 = 12;
/// Slots per level (64).
const SLOT_SHIFT: u64 = 6;
const SLOTS: usize = 1 << SLOT_SHIFT;
/// Wheel levels; level `l` slots span `64^l` ticks. Four levels cover
/// `2^(12+24)` ns ≈ 68.7 virtual seconds from the cursor.
const LEVELS: usize = 4;
/// Ticks covered by the whole wheel; events beyond go to the overflow heap.
const WHEEL_SPAN: u64 = 1 << (SLOT_SHIFT * LEVELS as u64);

fn tick_of(time: SimTime) -> u64 {
    time >> TICK_SHIFT
}

/// Hashed hierarchical timing wheel.
///
/// Invariant: every event with `tick < cur_tick` lives in `due` (a heap, so
/// the final `(time, seq)` order never depends on bucket layout); every
/// event with `tick >= cur_tick` lives in the slot of the lowest level whose
/// window contained it at insert time, or in `overflow` past the horizon.
/// `due`'s minimum is therefore always the global minimum.
#[derive(Debug)]
pub struct Wheel<T> {
    due: BinaryHeap<Reverse<Entry<T>>>,
    /// `LEVELS × SLOTS` buckets (unordered within a bucket).
    slots: Vec<Vec<Entry<T>>>,
    /// Occupancy per level, to skip empty regions in O(1).
    level_count: [usize; LEVELS],
    cur_tick: u64,
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    len: usize,
}

impl<T> Default for Wheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Wheel<T> {
    /// An empty wheel with its cursor at tick 0.
    pub fn new() -> Self {
        Wheel {
            due: BinaryHeap::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            level_count: [0; LEVELS],
            cur_tick: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Inserts an event.
    pub fn push(&mut self, e: Entry<T>) {
        self.len += 1;
        if tick_of(e.time) < self.cur_tick {
            self.due.push(Reverse(e));
        } else {
            self.insert_wheel(e);
        }
    }

    /// Places an event with `tick >= cur_tick` into the lowest level whose
    /// window reaches it.
    fn insert_wheel(&mut self, e: Entry<T>) {
        let t = tick_of(e.time);
        let delta = t - self.cur_tick;
        for l in 0..LEVELS {
            if delta < 1u64 << (SLOT_SHIFT * (l as u64 + 1)) {
                let idx = ((t >> (SLOT_SHIFT * l as u64)) & (SLOTS as u64 - 1)) as usize;
                self.slots[l * SLOTS + idx].push(e);
                self.level_count[l] += 1;
                return;
            }
        }
        self.overflow.push(Reverse(e));
    }

    fn wheel_occupancy(&self) -> usize {
        self.level_count.iter().sum::<usize>() + self.overflow.len()
    }

    /// Advances the cursor until at least one event cohort lands in `due`.
    /// Precondition: the wheel (slots or overflow) is non-empty.
    fn advance(&mut self) {
        loop {
            if self.level_count[0] > 0 {
                // Scan level 0 within the current rotation; the first
                // non-empty slot holds the next cohort.
                let rot_end = ((self.cur_tick >> SLOT_SHIFT) + 1) << SLOT_SHIFT;
                for t in self.cur_tick..rot_end {
                    let idx = (t & (SLOTS as u64 - 1)) as usize;
                    if !self.slots[idx].is_empty() {
                        let n = self.slots[idx].len();
                        for e in self.slots[idx].drain(..) {
                            self.due.push(Reverse(e));
                        }
                        self.level_count[0] -= n;
                        self.cur_tick = t + 1;
                        // The drain may leave the cursor exactly on a level
                        // boundary; the cascade must still run or the next
                        // advance would jump past the un-cascaded slot and
                        // deliver its events a full rotation late.
                        self.cascade();
                        return;
                    }
                }
                self.cur_tick = rot_end;
            } else if self.level_count[1..].iter().any(|c| *c > 0) {
                // Nothing near-term: skip to the next rotation boundary.
                self.cur_tick = ((self.cur_tick >> SLOT_SHIFT) + 1) << SLOT_SHIFT;
            } else {
                // Only the overflow holds events: jump straight to its
                // minimum and pull everything within the horizon back in.
                let Some(Reverse(head)) = self.overflow.peek() else {
                    return; // Defensive: violated precondition.
                };
                self.cur_tick = tick_of(head.time);
                while let Some(Reverse(h)) = self.overflow.peek() {
                    if tick_of(h.time) - self.cur_tick >= WHEEL_SPAN {
                        break;
                    }
                    let Reverse(e) = self.overflow.pop().expect("peeked");
                    self.insert_wheel(e);
                }
                continue;
            }
            self.cascade();
        }
    }

    /// When the cursor sits on a slot boundary of a higher level, drains
    /// that level's newly-entered slot down into finer levels — top level
    /// first, so nested re-insertions land ahead of the entered lower slots.
    /// A no-op at unaligned cursors.
    fn cascade(&mut self) {
        let entered = self.cur_tick;
        for l in (1..LEVELS).rev() {
            if self.level_count[l] == 0 {
                continue;
            }
            let width = 1u64 << (SLOT_SHIFT * l as u64);
            if entered & (width - 1) != 0 {
                continue;
            }
            let idx = ((entered >> (SLOT_SHIFT * l as u64)) & (SLOTS as u64 - 1)) as usize;
            let slot = l * SLOTS + idx;
            if self.slots[slot].is_empty() {
                continue;
            }
            let moved = std::mem::take(&mut self.slots[slot]);
            self.level_count[l] -= moved.len();
            for e in moved {
                self.insert_wheel(e);
            }
        }
    }

    fn ensure_due(&mut self) {
        while self.due.is_empty() && self.wheel_occupancy() > 0 {
            self.advance();
        }
    }

    /// The minimum `(time, seq)` key, if any. Takes `&mut self` because the
    /// wheel may cascade buckets to find its minimum.
    pub fn peek_key(&mut self) -> Option<EvKey> {
        self.ensure_due();
        self.due.peek().map(|Reverse(e)| e.key())
    }

    /// Removes and returns the minimum event.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.ensure_due();
        let Reverse(e) = self.due.pop()?;
        self.len -= 1;
        Some(e)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const TICK: SimTime = 1 << TICK_SHIFT;

    fn e(time: SimTime, seq: u64) -> Entry<u64> {
        Entry {
            time,
            seq,
            item: seq,
        }
    }

    /// Drains a wheel fully, returning the pop order as keys.
    fn drain<T>(q: &mut Wheel<T>) -> Vec<EvKey> {
        let mut out = Vec::new();
        while let Some(x) = q.pop() {
            out.push((x.time, x.seq));
        }
        out
    }

    /// Feeds a wheel and the reference `BinaryHeap<Reverse<Entry>>` the same
    /// pushes and pops, asserting after every pop that both agree on the
    /// popped key, the peeked key, and the population.
    struct Oracle {
        heap: BinaryHeap<Reverse<Entry<u64>>>,
        wheel: Wheel<u64>,
        pops: usize,
    }

    impl Oracle {
        fn new() -> Self {
            Oracle {
                heap: BinaryHeap::new(),
                wheel: Wheel::new(),
                pops: 0,
            }
        }

        fn push(&mut self, time: SimTime, seq: u64) {
            self.heap.push(Reverse(e(time, seq)));
            self.wheel.push(e(time, seq));
        }

        /// Pops from both, returning the popped time.
        fn pop(&mut self) -> Option<SimTime> {
            let want = self.heap.peek().map(|Reverse(x)| x.key());
            assert_eq!(self.wheel.peek_key(), want, "peek #{}", self.pops);
            let a = self.heap.pop().map(|Reverse(x)| x.key());
            let b = self.wheel.pop().map(|x| x.key());
            assert_eq!(a, b, "wheel diverged from the heap at pop #{}", self.pops);
            assert_eq!(self.wheel.len(), self.heap.len());
            self.pops += usize::from(a.is_some());
            a.map(|(t, _)| t)
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.wheel.is_empty());
        }
    }

    #[test]
    fn ties_resolve_by_seq() {
        let mut q = Wheel::new();
        // Same timestamp, shuffled insertion order.
        for seq in [5u64, 1, 9, 0, 3] {
            q.push(e(1_000, seq));
        }
        assert_eq!(
            drain(&mut q),
            vec![(1_000, 0), (1_000, 1), (1_000, 3), (1_000, 5), (1_000, 9)]
        );
    }

    #[test]
    fn wheel_matches_heap_on_random_interleaving() {
        let mut rng = SmallRng::seed_from_u64(99);

        // Input 1: random pushes (near, far, same-tick, and tied times)
        // interleaved with pops that advance the clock like the simulator.
        let mut q = Oracle::new();
        let mut seq = 0u64;
        let mut now: SimTime = 0;
        for _ in 0..20_000 {
            if rng.gen::<f64>() < 0.55 || q.heap.is_empty() {
                let dt = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(0..2_000),
                    1 => rng.gen_range(0..1_000_000),
                    2 => rng.gen_range(0..5_000_000_000),
                    _ => 0,
                };
                q.push(now + dt, seq);
                seq += 1;
            } else {
                now = q.pop().expect("non-empty");
            }
        }
        q.drain();
        assert!(q.pops > 10_000);

        // Input 2: a 200-key equal-time storm with shuffled `seq`s, with a
        // pop every 16 pushes so later keys land behind the cursor (in
        // `due`) as well as in the wheel.
        let mut q = Oracle::new();
        let mut seqs: Vec<u64> = (0..200).collect();
        for i in (1..seqs.len()).rev() {
            seqs.swap(i, rng.gen_range(0..i + 1));
        }
        let t = 3 * 64 * TICK + 17;
        for (i, &s) in seqs.iter().enumerate() {
            q.push(t, s);
            if i % 16 == 15 {
                q.pop();
            }
        }
        q.drain();
        assert_eq!(q.pops, 200);

        // Input 3: cohorts on level-1 (64-tick) and level-2 (4096-tick)
        // rotation boundaries and one tick either side, then re-arms that
        // land exactly on the next level-1 boundary after each pop — the
        // cursor positions where a cascade must run before the scan moves.
        let mut q = Oracle::new();
        let mut seq = 0u64;
        for width in [64, 64 * 64] {
            for k in 1..4u64 {
                for tick in [k * width - 1, k * width, k * width + 1] {
                    for jitter in [0, 1, TICK - 1] {
                        q.push(tick * TICK + jitter, seq);
                        seq += 1;
                    }
                }
            }
        }
        let mut rearms = 0;
        while let Some(t) = q.pop() {
            if rearms < 300 && q.pops.is_multiple_of(3) {
                let next_rotation = ((tick_of(t) >> SLOT_SHIFT) + 1) << SLOT_SHIFT;
                q.push(next_rotation * TICK, seq);
                seq += 1;
                rearms += 1;
            }
        }
        assert!(q.wheel.is_empty());
        assert_eq!(q.pops as u64, seq);
    }

    #[test]
    fn wheel_handles_overflow_horizon() {
        let mut q = Wheel::new();
        // Far beyond the 68.7 s horizon, plus a near event.
        q.push(e(500_000_000_000, 1));
        q.push(e(10, 2));
        q.push(e(900_000_000_000, 0));
        assert_eq!(
            drain(&mut q),
            vec![(10, 2), (500_000_000_000, 1), (900_000_000_000, 0)]
        );
    }

    /// Regression: a cohort drain that leaves the cursor exactly on a
    /// rotation boundary must still cascade the newly-entered level-1 slot.
    /// Without the cascade, the event at tick 70 here was skipped past and
    /// delivered after tick 130's cohort.
    #[test]
    fn wheel_cascades_when_drain_ends_on_rotation_boundary() {
        let mut q = Wheel::new();
        q.push(e(63 * TICK, 0)); // level 0, last slot of rotation 0
        q.push(e(70 * TICK, 1)); // level 1, slot 1 (ticks 64..127)
        q.push(e(130 * TICK, 2)); // level 1, slot 2 (ticks 128..191)

        // Popping seq 0 drains tick 63 and parks the cursor at tick 64 — a
        // rotation boundary whose level-1 slot holds seq 1.
        assert_eq!(
            drain(&mut q),
            vec![(63 * TICK, 0), (70 * TICK, 1), (130 * TICK, 2)]
        );
    }
}
