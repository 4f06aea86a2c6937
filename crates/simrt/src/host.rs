//! Processor-sharing host model.
//!
//! Each host runs its active jobs under egalitarian processor sharing with a
//! per-job speed cap of one core: with `n` active jobs and `c` effective
//! cores, every job progresses at rate `min(1, c/n)` (cores beyond `n` idle).
//! This is the standard model for CPU-bound request processing and is what
//! produces the latency blow-ups under overload that the metastability
//! experiments rely on.
//!
//! The implementation uses the *virtual time* technique to stay `O(log n)`
//! per operation: all active jobs accrue service at the same rate, so a
//! single accumulator `v` (total service received per active job) orders
//! completions — a job entering with `w` ns of work completes when `v`
//! reaches `v_enter + w`. Jobs can be **frozen** (their process is in a
//! stop-the-world GC pause): frozen jobs keep their residual work and do not
//! count towards `n`. A **hog** (CPU contention injected by the anomaly
//! driver, standing in for FIRM's anomaly injector) reduces effective cores.
//!
//! Jobs live in a slab that owns each job's continuation `C` (what to run
//! when the work is done), so the per-job path does no hashing and, once
//! the slab and heap have grown to the host's working set, no allocation:
//! [`PsHost::add`] returns an opaque [`JobId`] handle, and
//! [`PsHost::collect_due`], [`PsHost::cancel`] and [`PsHost::cancel_proc`]
//! hand the continuations back. Active jobs are ordered by a binary min-heap
//! over `(deadline, admission seq)` with lazy deletion: every (re)activation
//! bumps the slot's epoch, and heap entries whose epoch no longer matches an
//! active slot (left behind by a freeze or a cancel) are skipped when they
//! surface. Equal deadlines complete in admission order. Freeze, unfreeze
//! and crash scan the slab; they run once per GC pause or crash, not per job.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[cfg(test)]
mod tests;

/// Handle to a job on one [`PsHost`], returned by [`PsHost::add`] and
/// [`PsHost::add_frozen`]. It names the job's slab slot and its host-local
/// admission sequence number, so a handle whose job has already finished is
/// recognised as stale even after the slot has been reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobId {
    slot: u32,
    seq: u64,
}

/// Minimum effective cores, so hogs can never fully wedge a host.
const MIN_CORES: f64 = 0.05;

/// Process tag for jobs that are never frozen by GC (the GC pause itself,
/// serialization work attributed to the runtime, hog placeholders).
pub const NO_PROC: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Free,
    Active,
    Frozen,
}

#[derive(Debug)]
struct Slot<C> {
    state: State,
    /// Bumped on every (re)activation; heap entries carrying an older epoch
    /// are stale.
    epoch: u32,
    /// Host-local admission sequence number.
    seq: u64,
    /// Virtual deadline while active; residual work (ns) while frozen.
    val: f64,
    /// Process tag.
    proc: usize,
    /// `Some` exactly while the slot is occupied.
    cont: Option<C>,
}

/// Active-order heap entry, smallest first: `(deadline bits, seq, slot,
/// epoch)`. Deadlines are non-negative, so their bit patterns order like the
/// values; `seq` is unique, so `slot` and `epoch` never decide the order.
type Entry = Reverse<(u64, u64, u32, u32)>;

/// A processor-sharing host whose jobs carry continuations of type `C`.
#[derive(Debug)]
pub struct PsHost<C> {
    cores: f64,
    hog_cores: f64,
    /// Virtual service accumulated per active job, ns.
    v: f64,
    last_update: SimTime,
    slots: Vec<Slot<C>>,
    /// Free slot indices (reused last-in, first-out).
    free: Vec<u32>,
    /// Active jobs by virtual deadline, with lazily deleted stale entries.
    heap: BinaryHeap<Entry>,
    active: usize,
    frozen: usize,
    /// Next admission sequence number.
    next_seq: u64,
    /// Total CPU-ns of work completed (for utilization accounting).
    pub completed_work_ns: f64,
}

// The host model is plain owned data; `Sim` embeds one per host and is
// itself `Send`, so any shared-state regression here must fail to compile.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<PsHost<()>>();

impl<C> PsHost<C> {
    /// Creates a host with the given core count.
    pub fn new(cores: f64) -> Self {
        assert!(cores > 0.0);
        PsHost {
            cores,
            hog_cores: 0.0,
            v: 0.0,
            last_update: 0,
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            active: 0,
            frozen: 0,
            next_seq: 0,
            completed_work_ns: 0.0,
        }
    }

    fn effective_cores(&self) -> f64 {
        (self.cores - self.hog_cores).max(MIN_CORES)
    }

    /// Per-job progress rate with the current active set.
    fn rate(&self) -> f64 {
        let n = self.active;
        if n == 0 {
            0.0
        } else {
            (self.effective_cores() / n as f64).min(1.0)
        }
    }

    /// Advances virtual time to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        let dt = (now - self.last_update) as f64;
        let rate = self.rate();
        if rate > 0.0 && dt > 0.0 {
            self.v += dt * rate;
            self.completed_work_ns += dt * rate * self.active as f64;
        }
        self.last_update = now;
    }

    /// Occupies a slot with a new job in `state`; `val` is its deadline
    /// (active) or residual work (frozen).
    fn occupy(&mut self, state: State, val: f64, proc: usize, cont: C) -> JobId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let fresh = Slot {
            state,
            epoch: 0,
            seq,
            val,
            proc,
            cont: Some(cont),
        };
        let slot = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                // Keep the epoch: heap entries of the slot's previous job
                // must stay stale.
                *s = Slot {
                    epoch: s.epoch,
                    ..fresh
                };
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("job slab exceeds u32 slots");
                self.slots.push(fresh);
                i
            }
        };
        JobId { slot, seq }
    }

    /// Makes the job in `slot` active at the deadline in its `val`.
    fn activate(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.val >= 0.0 && s.val.is_finite());
        s.state = State::Active;
        s.epoch = s.epoch.wrapping_add(1);
        self.heap
            .push(Reverse((s.val.to_bits(), s.seq, slot, s.epoch)));
        self.active += 1;
    }

    /// Frees an occupied slot and returns its continuation.
    fn release(&mut self, slot: u32) -> C {
        let s = &mut self.slots[slot as usize];
        match s.state {
            State::Active => self.active -= 1,
            State::Frozen => self.frozen -= 1,
            State::Free => unreachable!("released a free slot"),
        }
        s.state = State::Free;
        self.free.push(slot);
        let cont = s.cont.take().expect("occupied slot has a continuation");
        self.drop_stale_if_idle();
        cont
    }

    /// With no active job every heap entry is stale: drop them all at once.
    fn drop_stale_if_idle(&mut self) {
        if self.active == 0 {
            self.heap.clear();
        }
    }

    /// The earliest active job as `(deadline, slot)`, discarding stale heap
    /// entries on the way.
    fn peek_active(&mut self) -> Option<(f64, u32)> {
        while let Some(&Reverse((bits, _, slot, epoch))) = self.heap.peek() {
            let s = &self.slots[slot as usize];
            if s.state == State::Active && s.epoch == epoch {
                return Some((f64::from_bits(bits), slot));
            }
            self.heap.pop();
        }
        None
    }

    /// Adds a job with `work_ns` of CPU work for process `proc`; `cont` is
    /// handed back when the job completes or is cancelled.
    pub fn add(&mut self, now: SimTime, work_ns: f64, proc: usize, cont: C) -> JobId {
        self.advance(now);
        let deadline = self.v + work_ns.max(0.0);
        let id = self.occupy(State::Active, deadline, proc, cont);
        self.activate(id.slot);
        id
    }

    /// Adds a job that starts frozen (its process is mid-GC).
    pub fn add_frozen(&mut self, now: SimTime, work_ns: f64, proc: usize, cont: C) -> JobId {
        self.advance(now);
        self.frozen += 1;
        self.occupy(State::Frozen, work_ns.max(0.0), proc, cont)
    }

    /// Removes a job without completing it (e.g. its frame was dropped) and
    /// returns its continuation; `None` if the job already finished.
    pub fn cancel(&mut self, now: SimTime, job: JobId) -> Option<C> {
        self.advance(now);
        let s = self.slots.get(job.slot as usize)?;
        if s.state == State::Free || s.seq != job.seq {
            return None;
        }
        Some(self.release(job.slot))
    }

    /// Appends to `out` the continuations of all jobs whose work is finished
    /// as of `now`, in completion order.
    pub fn collect_due(&mut self, now: SimTime, out: &mut Vec<C>) {
        self.advance(now);
        // Tolerance: one femto-fraction of v to absorb f64 rounding from the
        // time quantization in `next_completion`.
        let cutoff = self.v * (1.0 + 1e-12) + 1e-6;
        while let Some((deadline, slot)) = self.peek_active() {
            if deadline > cutoff {
                break;
            }
            self.heap.pop();
            out.push(self.release(slot));
        }
    }

    /// When the next job completes, if nothing else changes. Returns a time
    /// `>= now` (rounded up to whole ns).
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let (deadline, _) = self.peek_active()?;
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let remaining_v = (deadline - self.v).max(0.0);
        let dt = (remaining_v / rate).ceil() as u64;
        Some(now + dt)
    }

    /// Freezes all jobs of `proc` (stop-the-world pause begins).
    pub fn freeze_proc(&mut self, now: SimTime, proc: usize) {
        self.advance(now);
        let v = self.v;
        for s in &mut self.slots {
            if s.state == State::Active && s.proc == proc {
                s.state = State::Frozen;
                s.val = (s.val - v).max(0.0);
                self.active -= 1;
                self.frozen += 1;
            }
        }
        self.drop_stale_if_idle();
    }

    /// Removes every job (active or frozen) of `proc` without completing it
    /// — the process crashed. Returns their continuations in admission order
    /// so callers process them deterministically.
    pub fn cancel_proc(&mut self, now: SimTime, proc: usize) -> Vec<C> {
        self.advance(now);
        let mut victims: Vec<(u64, u32)> = self
            .slots
            .iter()
            .zip(0u32..)
            .filter(|(s, _)| s.state != State::Free && s.proc == proc)
            .map(|(s, i)| (s.seq, i))
            .collect();
        victims.sort_unstable();
        victims.into_iter().map(|(_, i)| self.release(i)).collect()
    }

    /// Unfreezes all jobs of `proc` (pause ends).
    pub fn unfreeze_proc(&mut self, now: SimTime, proc: usize) {
        self.advance(now);
        for i in 0..self.slots.len() {
            let s = &mut self.slots[i];
            if s.state == State::Frozen && s.proc == proc {
                // `v + residual` (IEEE addition commutes bit for bit).
                s.val += self.v;
                self.frozen -= 1;
                self.activate(i as u32);
            }
        }
    }

    /// Adjusts CPU contention by `delta` cores (positive = more contention).
    pub fn adjust_hog(&mut self, now: SimTime, delta: f64) {
        self.advance(now);
        self.hog_cores = (self.hog_cores + delta).max(0.0);
    }

    /// Number of currently active (unfrozen) jobs.
    pub fn active_jobs(&self) -> usize {
        self.active
    }

    /// Number of frozen jobs.
    pub fn frozen_jobs(&self) -> usize {
        self.frozen
    }

    /// Current hog level in cores.
    pub fn hog_cores(&self) -> f64 {
        self.hog_cores
    }

    /// Configured cores.
    pub fn cores(&self) -> f64 {
        self.cores
    }
}
