//! The event queue of the discrete-event core.
//!
//! [`crate::sim::Sim`] dispatches events in `(time, seq)` order — `time` is
//! virtual nanoseconds, `seq` the unique push sequence number. [`Wheel`], a
//! hierarchical timing wheel (Varghese & Lauck), provides that order: far
//! events land in time-bucketed slots in O(1) and cascade down to level 0,
//! whose next occupied slot is swapped out whole as the due run (`due`),
//! sorted once, descending, so a pop is a `Vec::pop`. One 64-bit occupancy
//! bitmap per level lets the cursor jump to the next occupied slot with
//! `trailing_zeros`, skipping idle ticks and empty rotations in one step.
//! Ties are resolved by `seq`, never by insertion order or bucket layout, so
//! the pop order is exactly that of a `BinaryHeap<Reverse<Entry>>` over the
//! same pushes — the unit tests below check the wheel against that heap.
//! `DESIGN.md` §6 records why the simulator keeps the wheel rather than a
//! heap, measured end to end with `examples/benchmark`.
//!
//! The simulator keeps one wheel for every event: host events and
//! cluster-wide control events (fault firings, chaos draws, process
//! restarts, reconfiguration) share it and interleave in `(time, seq)`
//! order. Its run loop pops with [`Wheel::pop_until`], which never moves
//! the cursor past the run horizon.

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
/// Invariant: every event with `tick < cur_tick` lives in `due`, a run kept
/// strictly descending by `(time, seq)` (keys are unique), so its minimum is
/// `last()` and the order never depends on bucket layout; every event with
/// `tick >= cur_tick` lives in the slot of the lowest level whose window
/// contained it at insert time, or in `overflow` if that was past the wheel
/// span — `advance` moves overflow events into the wheel before the cursor
/// can reach them. `due`'s last entry is therefore the global minimum.
///
/// Bit `i` of `occ[l]` is set exactly when `slots[l * SLOTS + i]` is
/// non-empty, so `advance` finds the next occupied slot of a level with one
/// `trailing_zeros` instead of walking ticks and rotations. An occupied
/// slot of level `l >= 1` lies 1 to 64 slots past the cursor's, so the slot
/// whose index equals the cursor's is the wrapped one, 64 slots ahead.
#[derive(Debug)]
pub struct Wheel<T> {
    due: Vec<Entry<T>>,
    /// `LEVELS × SLOTS` buckets (unordered within a bucket).
    slots: Vec<Vec<Entry<T>>>,
    /// Occupancy bitmap per level, one bit per slot.
    occ: [u64; LEVELS],
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
            due: Vec::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            cur_tick: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Inserts an event.
    pub fn push(&mut self, e: Entry<T>) {
        self.len += 1;
        if tick_of(e.time) < self.cur_tick {
            let i = self.due.partition_point(|x| x.key() > e.key());
            self.due.insert(i, e);
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
                self.occ[l] |= 1 << idx;
                return;
            }
        }
        self.overflow.push(Reverse(e));
    }

    /// Moves the cursor one step toward tick `stop`, never past it: swaps
    /// the next level-0 cohort of the current rotation out whole as `due`,
    /// or jumps to the next tick where a slot must cascade (or to `stop`,
    /// whichever is first). Parking at `stop` keeps events pushed later for
    /// earlier ticks in wheel slots rather than inserted into `due`.
    /// Preconditions: `due` is empty and the wheel (slots or overflow) is not.
    fn advance(&mut self, stop: u64) {
        // One step moves the cursor at most to the next occupied slot, less
        // than a wheel span, so pulling the overflow in first keeps the
        // cursor from passing its events.
        self.refill();
        let rot_start = self.cur_tick & !(SLOTS as u64 - 1);
        let near = self.occ[0] & (u64::MAX << (self.cur_tick - rot_start));
        if near != 0 {
            // The lowest set bit at or after the cursor is the next cohort;
            // it lies before the rotation end, so parking at `stop` short
            // of it crosses no slot boundary.
            let idx = near.trailing_zeros() as usize;
            let t = rot_start + idx as u64;
            if t >= stop {
                self.cur_tick = stop;
                return;
            }
            self.occ[0] &= !(1 << idx);
            std::mem::swap(&mut self.slots[idx], &mut self.due);
            if self.due.len() > 1 {
                self.due.sort_unstable_by(|a, b| b.cmp(a));
            }
            // The swap may leave the cursor exactly on a level boundary;
            // the cascade must still run or the next advance would jump past
            // the un-cascaded slot and deliver its events a rotation late.
            self.cur_tick = t + 1;
        } else {
            // Level 0 holds only wrapped bits (next rotation), or nothing:
            // then the next cascade is at the earliest occupied higher slot,
            // or at the overflow's minimum when every slot is empty.
            let next = if self.occ[0] != 0 {
                rot_start + SLOTS as u64
            } else {
                self.next_slot_start()
            };
            // Every occupied slot starts at or after `next`, so parking at an
            // earlier `stop` enters only empty slots.
            if next > stop {
                self.cur_tick = stop;
                return;
            }
            self.cur_tick = next;
        }
        self.cascade();
    }

    /// The earliest start tick of an occupied level-1..3 slot, or the
    /// overflow's minimum tick if those levels are empty (`u64::MAX` if
    /// that is empty too).
    fn next_slot_start(&self) -> u64 {
        let mut next = self
            .overflow
            .peek()
            .map_or(u64::MAX, |Reverse(h)| tick_of(h.time));
        for l in 1..LEVELS {
            if self.occ[l] == 0 {
                continue;
            }
            let shift = SLOT_SHIFT * l as u64;
            let cur = self.cur_tick >> shift;
            let c = (cur + 1) as u32 & (SLOTS as u32 - 1);
            let ahead = u64::from(self.occ[l].rotate_right(c).trailing_zeros());
            next = next.min((cur + 1 + ahead) << shift);
        }
        next
    }

    /// Moves every overflow event within a wheel span of the cursor into
    /// the wheel.
    fn refill(&mut self) {
        while let Some(Reverse(h)) = self.overflow.peek() {
            if tick_of(h.time) >= self.cur_tick + WHEEL_SPAN {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.insert_wheel(e);
        }
    }

    /// When the cursor sits on a slot boundary of a higher level, drains
    /// that level's newly-entered slot down into finer levels — top level
    /// first, so nested re-insertions land ahead of the entered lower slots.
    /// A no-op at unaligned cursors.
    fn cascade(&mut self) {
        let entered = self.cur_tick;
        for l in (1..LEVELS).rev() {
            let width = 1u64 << (SLOT_SHIFT * l as u64);
            if entered & (width - 1) != 0 {
                continue;
            }
            let idx = ((entered >> (SLOT_SHIFT * l as u64)) & (SLOTS as u64 - 1)) as usize;
            if self.occ[l] & (1 << idx) == 0 {
                continue;
            }
            self.occ[l] &= !(1 << idx);
            for e in std::mem::take(&mut self.slots[l * SLOTS + idx]) {
                self.insert_wheel(e);
            }
        }
    }

    /// Fills `due` with the next cohort, looking no further than tick
    /// `stop` (exclusive).
    fn ensure_due(&mut self, stop: u64) {
        while self.due.is_empty() && self.len > 0 && self.cur_tick < stop {
            self.advance(stop);
        }
    }

    /// Removes and returns the minimum event.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the minimum event, `due`'s last entry, if its
    /// time is at most `until`. The cursor stops at `until`'s tick, so a run
    /// loop that pops up to a horizon never jumps the wheel ahead to a far
    /// event (a fault seconds away) and sorts everything pushed before it
    /// into `due` one insertion at a time. An empty wheel moves its cursor
    /// straight to `until`'s tick (never back), so the next push does not
    /// leave idle ticks for `advance` to cross.
    pub fn pop_until(&mut self, until: SimTime) -> Option<Entry<T>> {
        if self.len == 0 {
            self.cur_tick = self.cur_tick.max(tick_of(until));
            return None;
        }
        self.ensure_due(tick_of(until) + 1);
        let e = self.due.pop_if(|x| x.time <= until)?;
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
    /// popped key and the population, and after every push and pop that
    /// each occupancy bit matches its slot and that `due` is a strictly
    /// descending run of keys whose ticks are all behind the cursor.
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
            self.check_layout();
        }

        /// Bit `i` of `occ[l]` is set if and only if slot `l * SLOTS + i`
        /// is non-empty; `due` is strictly descending by key, so its last
        /// entry is its minimum, and holds only ticks below the cursor.
        fn check_layout(&self) {
            let due = &self.wheel.due;
            for w in due.windows(2) {
                assert!(
                    w[0].key() > w[1].key(),
                    "`due` not strictly descending at pop #{}: {:?} then {:?}",
                    self.pops,
                    w[0].key(),
                    w[1].key()
                );
            }
            for x in due {
                assert!(
                    tick_of(x.time) < self.wheel.cur_tick,
                    "`due` holds {:?}, not behind cursor tick {} at pop #{}",
                    x.key(),
                    self.wheel.cur_tick,
                    self.pops
                );
            }
            for (l, &bits) in self.wheel.occ.iter().enumerate() {
                for i in 0..SLOTS {
                    assert_eq!(
                        bits >> i & 1 == 1,
                        !self.wheel.slots[l * SLOTS + i].is_empty(),
                        "occupancy bit {i} of level {l} at pop #{}",
                        self.pops
                    );
                }
            }
        }

        /// Pops from both, returning the popped time.
        fn pop(&mut self) -> Option<SimTime> {
            let a = self.heap.pop().map(|Reverse(x)| x.key());
            let b = self.wheel.pop().map(|x| x.key());
            assert_eq!(a, b, "wheel diverged from the heap at pop #{}", self.pops);
            assert_eq!(self.wheel.len(), self.heap.len());
            self.check_layout();
            self.pops += usize::from(a.is_some());
            a.map(|(t, _)| t)
        }

        /// Pops from both if the minimum is due by `until`.
        fn pop_until(&mut self, until: SimTime) -> Option<SimTime> {
            let want = match self.heap.peek() {
                Some(Reverse(x)) if x.time <= until => Some(x.key()),
                _ => None,
            };
            let got = self.wheel.pop_until(until).map(|x| x.key());
            assert_eq!(
                got, want,
                "pop_until({until}) diverged at pop #{}",
                self.pops
            );
            if want.is_some() {
                self.heap.pop();
                self.pops += 1;
            }
            assert_eq!(self.wheel.len(), self.heap.len());
            self.check_layout();
            want.map(|(t, _)| t)
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
        // pop every 16 pushes so later keys land behind the cursor (inserted
        // into `due`) as well as in the wheel.
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

        // Input 4: a run loop that drains up to a horizon, then pushes
        // more, with far events (seconds ahead, some past the wheel span)
        // pending the whole time — the horizon-bounded pops must agree
        // with the heap and leave nothing behind.
        let mut q = Oracle::new();
        let mut seq = 0u64;
        for k in 1..=4u64 {
            q.push(k * 20_000_000_000, seq);
            seq += 1;
        }
        let mut now: SimTime = 0;
        for _ in 0..5_000 {
            for _ in 0..rng.gen_range(0..4u32) {
                let dt = match rng.gen_range(0..3u32) {
                    0 => rng.gen_range(0..50_000),
                    1 => rng.gen_range(0..5_000_000),
                    _ => rng.gen_range(0..3_000_000_000),
                };
                q.push(now + dt, seq);
                seq += 1;
            }
            now += rng.gen_range(0..200_000);
            while q.pop_until(now).is_some() {}
        }
        q.drain();
        assert_eq!(q.pops as u64, seq);

        // Input 5: one event more than a wheel span ahead while a chain of
        // near events (re-armed every step, some landing seconds past the
        // far one) keeps slots occupied and walks `now` past it — the far
        // event must leave the overflow before the cursor reaches it.
        let mut q = Oracle::new();
        let far = (WHEEL_SPAN << TICK_SHIFT) + 1_000_000_007;
        q.push(far, 0);
        let mut seq = 1u64;
        let mut now: SimTime = 0;
        while now < far + 5_000_000_000 {
            for _ in 0..rng.gen_range(1..3u32) {
                let dt = if rng.gen_bool(0.05) {
                    rng.gen_range(0..3_000_000_000)
                } else {
                    rng.gen_range(0..100_000_000)
                };
                q.push(now + dt, seq);
                seq += 1;
            }
            now += rng.gen_range(0..60_000_000);
            while q.pop_until(now).is_some() {}
        }
        q.drain();
        assert_eq!(q.pops as u64, seq);

        // Input 6: per level `l` = 1..3, an event `64^(l+1) - 1` ticks ahead
        // of a cursor unaligned at every level, with the lower levels empty.
        // It lands in the level-`l` slot whose index equals the cursor's,
        // the wrapped slot 64 slots ahead, so the cursor must jump to that
        // slot's start: not to the current slot's, nor a rotation late. A
        // tie with a higher seq, a later time in the same tick and an event
        // one level-`l` slot earlier pin the heap order around it.
        let cursor = 5 * 64 * 64 * 64 + 7 * 64 * 64 + 9 * 64 + 11;
        for l in 1..LEVELS as u64 {
            let mut q = Oracle::new();
            assert!(q.pop_until(cursor * TICK).is_none());
            assert_eq!(q.wheel.cur_tick, cursor);
            let t = (cursor + (1 << (SLOT_SHIFT * (l + 1))) - 1) * TICK + 5;
            let earlier = t - (TICK << (SLOT_SHIFT * l));
            q.push(t, 2);
            let idx = (cursor >> (SLOT_SHIFT * l)) & (SLOTS as u64 - 1);
            assert_eq!(q.wheel.occ[l as usize], 1 << idx, "level {l}");
            q.push(t, 3);
            q.push(t + 1, 1);
            q.push(earlier, 0);
            assert!(q.pop_until(earlier - 1).is_none());
            assert_eq!(q.pop(), Some(earlier));
            assert!(q.pop_until(t - 1).is_none());
            assert_eq!(q.pop_until(t), Some(t));
            assert_eq!(q.pop_until(t), Some(t));
            assert!(q.pop_until(t).is_none());
            q.drain();
            assert_eq!(q.pops, 4);
        }
    }

    /// Popping up to a horizon leaves the cursor at the horizon even when
    /// the next event is far away, so a later push for an earlier time
    /// lands in a wheel slot, not in `due`.
    #[test]
    fn pop_until_stops_the_cursor_at_the_horizon() {
        let mut q = Wheel::new();
        q.push(e(5_000_000_000, 0));
        assert!(q.pop_until(1_000_000).is_none());
        assert_eq!(q.cur_tick, tick_of(1_000_000) + 1);
        q.push(e(2_000_000, 1));
        assert!(q.due.is_empty(), "the near event went to a slot");
        assert!(q.pop_until(1_999_999).is_none());
        assert_eq!(q.pop_until(2_000_000).map(|x| x.seq), Some(1));
        assert_eq!(q.pop().map(|x| x.seq), Some(0));
    }

    /// Popping an empty wheel moves the cursor to the horizon's tick, never
    /// back, so an event pushed just after a long idle gap sits in a
    /// level-0 slot instead of a level-2 slot that `advance` would reach
    /// only after walking every empty rotation of the gap.
    #[test]
    fn pop_until_on_an_empty_wheel_moves_the_cursor_to_the_horizon() {
        let mut q = Wheel::new();
        q.push(e(10 * TICK, 0));
        assert_eq!(q.pop_until(10 * TICK).map(|x| x.seq), Some(0));
        assert_eq!(q.cur_tick, 11);
        assert!(q.pop_until(100_000 * TICK).is_none());
        assert_eq!(q.cur_tick, 100_000);
        assert!(q.pop_until(50 * TICK).is_none());
        assert_eq!(q.cur_tick, 100_000, "the cursor never moves back");
        q.push(e(100_000 * TICK, 1));
        q.push(e(100_003 * TICK, 2));
        assert!(q.due.is_empty());
        assert_eq!(q.occ, [1 << (100_000 % 64) | 1 << (100_003 % 64), 0, 0, 0]);
        assert_eq!(
            drain(&mut q),
            vec![(100_000 * TICK, 1), (100_003 * TICK, 2)]
        );
    }

    /// A drained multi-event cohort takes late pushes for its own tick, as
    /// in a same-time storm: before, between and after its remaining keys,
    /// and below the last popped key, as a lower host context can push at
    /// `now`. Every pop must match the heap.
    #[test]
    fn late_pushes_into_a_drained_cohort_match_the_heap() {
        let ctx = |c: u64, n: u64| (c << 48) | n;
        let t = 7 * TICK + 100;
        let mut q = Oracle::new();
        for (dt, s) in [
            (900, ctx(3, 3)),
            (0, ctx(5, 0)),
            (50, ctx(4, 0)),
            (0, ctx(3, 0)),
            (50, ctx(3, 2)),
            (0, ctx(3, 1)),
        ] {
            q.push(t + dt, s);
        }
        assert_eq!(q.pop(), Some(t));
        assert_eq!(q.wheel.due.len(), 5, "the cohort left its slot whole");
        assert!(q.wheel.slots.iter().all(Vec::is_empty));
        // Below the last popped key (t, ctx(3, 0)): a lower context at `now`.
        q.push(t, ctx(1, 0));
        // Between (t, ctx(3, 1)) and (t, ctx(5, 0)), and between the two
        // keys at t + 50.
        q.push(t, ctx(4, 7));
        q.push(t + 50, ctx(3, 9));
        // After the whole run: a tie with the largest key, and the drained
        // tick's last nanosecond.
        q.push(t + 900, ctx(9, 0));
        q.push(8 * TICK - 1, ctx(0, 0));
        assert_eq!(q.pop(), Some(t));
        assert_eq!(q.pop(), Some(t));
        // Behind the last popped key again, now mid-run.
        q.push(t, ctx(2, 0));
        q.drain();
        assert_eq!(q.pops, 12);

        // The same pattern at random: a storm of 2..40 keys in one tick,
        // some popped, then late keys for that tick (at or after the last
        // popped time, any context) interleaved with pops.
        let mut rng = SmallRng::seed_from_u64(31);
        let mut q = Oracle::new();
        let mut n = 0u64;
        let mut key = |rng: &mut SmallRng| {
            n += 1;
            ctx(rng.gen_range(0..8), n)
        };
        for round in 1..=300u64 {
            let base = round * 3 * TICK;
            for _ in 0..rng.gen_range(2..40u32) {
                q.push(base + rng.gen_range(0..TICK), key(&mut rng));
            }
            let mut now = q.pop().expect("storm");
            for _ in 0..rng.gen_range(0..60u32) {
                if rng.gen_bool(0.5) {
                    let end = base + TICK;
                    q.push(rng.gen_range(now..end), key(&mut rng));
                } else if let Some(t) = q.pop() {
                    now = t;
                }
            }
            q.drain();
        }
        assert!(q.pops > 10_000);
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
