use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::*;

/// The previous map-based implementation, kept verbatim as the reference the
/// slab host is checked against: a `BTreeMap` ordered by `(deadline bits,
/// job id)` plus `HashMap`s for deadlines, frozen residuals and process
/// tags. Job ids are the caller's admission numbers, so its tie order is the
/// slab's admission order.
mod oracle {
    use std::collections::{BTreeMap, HashMap};

    use super::MIN_CORES;
    use crate::time::SimTime;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct JobId(pub u64);

    fn key(v: f64) -> u64 {
        debug_assert!(v >= 0.0 && v.is_finite());
        v.to_bits()
    }

    #[derive(Debug)]
    pub struct PsHost {
        cores: f64,
        pub hog_cores: f64,
        pub v: f64,
        last_update: SimTime,
        queue: BTreeMap<(u64, JobId), f64>,
        deadlines: HashMap<JobId, f64>,
        frozen: HashMap<JobId, (f64, usize)>,
        job_proc: HashMap<JobId, usize>,
        pub completed_work_ns: f64,
    }

    impl PsHost {
        pub fn new(cores: f64) -> Self {
            assert!(cores > 0.0);
            PsHost {
                cores,
                hog_cores: 0.0,
                v: 0.0,
                last_update: 0,
                queue: BTreeMap::new(),
                deadlines: HashMap::new(),
                frozen: HashMap::new(),
                job_proc: HashMap::new(),
                completed_work_ns: 0.0,
            }
        }

        fn effective_cores(&self) -> f64 {
            (self.cores - self.hog_cores).max(MIN_CORES)
        }

        fn rate(&self) -> f64 {
            let n = self.queue.len();
            if n == 0 {
                0.0
            } else {
                (self.effective_cores() / n as f64).min(1.0)
            }
        }

        fn advance(&mut self, now: SimTime) {
            debug_assert!(now >= self.last_update, "time went backwards");
            let dt = (now - self.last_update) as f64;
            let rate = self.rate();
            if rate > 0.0 && dt > 0.0 {
                self.v += dt * rate;
                self.completed_work_ns += dt * rate * self.queue.len() as f64;
            }
            self.last_update = now;
        }

        pub fn add(&mut self, now: SimTime, job: JobId, work_ns: f64, proc: usize) {
            self.advance(now);
            let deadline = self.v + work_ns.max(0.0);
            self.queue.insert((key(deadline), job), deadline);
            self.deadlines.insert(job, deadline);
            self.job_proc.insert(job, proc);
        }

        pub fn add_frozen(&mut self, now: SimTime, job: JobId, work_ns: f64, proc: usize) {
            self.advance(now);
            self.frozen.insert(job, (work_ns.max(0.0), proc));
        }

        pub fn cancel(&mut self, now: SimTime, job: JobId) {
            self.advance(now);
            if let Some(d) = self.deadlines.remove(&job) {
                self.queue.remove(&(key(d), job));
                self.job_proc.remove(&job);
            }
            self.frozen.remove(&job);
        }

        pub fn collect_due(&mut self, now: SimTime) -> Vec<JobId> {
            self.advance(now);
            let mut done = Vec::new();
            let cutoff = self.v * (1.0 + 1e-12) + 1e-6;
            while let Some((&(k, job), &deadline)) = self.queue.iter().next() {
                if deadline <= cutoff {
                    self.queue.remove(&(k, job));
                    self.deadlines.remove(&job);
                    self.job_proc.remove(&job);
                    done.push(job);
                } else {
                    break;
                }
            }
            done
        }

        pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
            self.advance(now);
            let (_, &deadline) = self.queue.iter().next()?;
            let rate = self.rate();
            if rate <= 0.0 {
                return None;
            }
            let remaining_v = (deadline - self.v).max(0.0);
            let dt = (remaining_v / rate).ceil() as u64;
            Some(now + dt)
        }

        pub fn freeze_proc(&mut self, now: SimTime, proc: usize) {
            self.advance(now);
            let victims: Vec<JobId> = self
                .job_proc
                .iter()
                .filter(|(_, p)| **p == proc)
                .map(|(j, _)| *j)
                .collect();
            for job in victims {
                let d = self
                    .deadlines
                    .remove(&job)
                    .expect("active job has deadline");
                self.queue.remove(&(key(d), job));
                self.job_proc.remove(&job);
                let residual = (d - self.v).max(0.0);
                self.frozen.insert(job, (residual, proc));
            }
        }

        pub fn cancel_proc(&mut self, now: SimTime, proc: usize) -> Vec<JobId> {
            self.advance(now);
            let mut victims: Vec<JobId> = self
                .job_proc
                .iter()
                .filter(|(_, p)| **p == proc)
                .map(|(j, _)| *j)
                .collect();
            for job in &victims {
                let d = self.deadlines.remove(job).expect("active job has deadline");
                self.queue.remove(&(key(d), *job));
                self.job_proc.remove(job);
            }
            let frozen: Vec<JobId> = self
                .frozen
                .iter()
                .filter(|(_, (_, p))| *p == proc)
                .map(|(j, _)| *j)
                .collect();
            for job in frozen {
                self.frozen.remove(&job);
                victims.push(job);
            }
            victims.sort_unstable();
            victims
        }

        pub fn unfreeze_proc(&mut self, now: SimTime, proc: usize) {
            self.advance(now);
            let thawed: Vec<(JobId, f64)> = self
                .frozen
                .iter()
                .filter(|(_, (_, p))| *p == proc)
                .map(|(j, (w, _))| (*j, *w))
                .collect();
            for (job, work) in thawed {
                self.frozen.remove(&job);
                let deadline = self.v + work;
                self.queue.insert((key(deadline), job), deadline);
                self.deadlines.insert(job, deadline);
                self.job_proc.insert(job, proc);
            }
        }

        pub fn adjust_hog(&mut self, now: SimTime, delta: f64) {
            self.advance(now);
            self.hog_cores = (self.hog_cores + delta).max(0.0);
        }

        pub fn active_jobs(&self) -> usize {
            self.queue.len()
        }

        pub fn frozen_jobs(&self) -> usize {
            self.frozen.len()
        }
    }
}

// ---------------------------------------------------------------------------
// Unit tests (continuations are plain `u64` tags).
// ---------------------------------------------------------------------------

fn drain_at(h: &mut PsHost<u64>, t: SimTime) -> Vec<u64> {
    let mut out = Vec::new();
    h.collect_due(t, &mut out);
    out
}

#[test]
fn single_job_completes_after_its_work() {
    let mut h = PsHost::new(2.0);
    h.add(0, 1000.0, 0, 1);
    assert_eq!(h.next_completion(0), Some(1000));
    assert!(drain_at(&mut h, 999).is_empty());
    assert_eq!(drain_at(&mut h, 1000), vec![1]);
    assert_eq!(h.active_jobs(), 0);
}

#[test]
fn two_jobs_share_one_core() {
    let mut h = PsHost::new(1.0);
    h.add(0, 1000.0, 0, 1);
    h.add(0, 1000.0, 0, 2);
    // Each runs at rate 0.5 → both due at t=2000, in admission order.
    assert_eq!(h.next_completion(0), Some(2000));
    assert_eq!(drain_at(&mut h, 2000), vec![1, 2]);
}

#[test]
fn many_cores_cap_per_job_rate_at_one() {
    let mut h = PsHost::new(48.0);
    h.add(0, 5000.0, 0, 1);
    // Single job cannot exceed one core.
    assert_eq!(h.next_completion(0), Some(5000));
}

#[test]
fn later_arrival_slows_everyone() {
    let mut h = PsHost::new(1.0);
    h.add(0, 1000.0, 0, 1);
    // At t=500, job1 has 500 left; a second job arrives.
    h.add(500, 500.0, 0, 2);
    // Both progress at 0.5: job1 done at 500 + 1000 = 1500; job2 too.
    assert_eq!(h.next_completion(500), Some(1500));
    let done = drain_at(&mut h, 1500);
    assert_eq!(done.len(), 2);
}

#[test]
fn freeze_pauses_progress_and_unfreeze_resumes() {
    let mut h = PsHost::new(1.0);
    h.add(0, 1000.0, 7, 1);
    h.freeze_proc(200, 7);
    assert_eq!(h.active_jobs(), 0);
    assert_eq!(h.frozen_jobs(), 1);
    assert_eq!(h.next_completion(500), None);
    h.unfreeze_proc(1000, 7);
    // 800 ns of work remained.
    assert_eq!(h.next_completion(1000), Some(1800));
    assert_eq!(drain_at(&mut h, 1800), vec![1]);
}

#[test]
fn freeze_only_targets_one_proc() {
    let mut h = PsHost::new(2.0);
    h.add(0, 1000.0, 1, 1);
    h.add(0, 1000.0, 2, 2);
    h.freeze_proc(0, 1);
    assert_eq!(h.active_jobs(), 1);
    // Job 2 now runs alone at full speed.
    assert_eq!(h.next_completion(0), Some(1000));
    assert_eq!(drain_at(&mut h, 1000), vec![2]);
}

#[test]
fn hog_reduces_effective_cores() {
    let mut h = PsHost::new(2.0);
    h.adjust_hog(0, 1.0);
    h.add(0, 1000.0, 0, 1);
    h.add(0, 1000.0, 0, 2);
    // 1 effective core shared by 2 jobs → rate 0.5 → done at 2000.
    assert_eq!(h.next_completion(0), Some(2000));
    h.adjust_hog(500, -1.0);
    assert_eq!(h.hog_cores(), 0.0);
    // At t=500 each had 750 left, now at rate 1 → done at 1250.
    assert_eq!(h.next_completion(500), Some(1250));
}

#[test]
fn hog_never_fully_stops_host() {
    let mut h = PsHost::new(1.0);
    h.adjust_hog(0, 100.0);
    h.add(0, 100.0, 0, 1);
    let t = h.next_completion(0).unwrap();
    assert!(t >= 100 && t <= 100.0 as u64 * (1.0 / MIN_CORES) as u64 + 1);
}

#[test]
fn cancel_removes_job() {
    let mut h = PsHost::new(1.0);
    let j1 = h.add(0, 1000.0, 0, 1);
    h.add(0, 1000.0, 0, 2);
    assert_eq!(h.cancel(100, j1), Some(1));
    assert_eq!(h.active_jobs(), 1);
    // Job 2 had 950 left at t=100, full speed now → 1050.
    assert_eq!(h.next_completion(100), Some(1050));
}

#[test]
fn cancel_proc_removes_active_and_frozen_jobs_in_admission_order() {
    let mut h = PsHost::new(2.0);
    h.add(0, 1000.0, 7, 3);
    h.add(0, 1000.0, 7, 1);
    h.add(0, 1000.0, 8, 2);
    h.add_frozen(0, 400.0, 7, 5);
    let victims = h.cancel_proc(100, 7);
    assert_eq!(victims, vec![3, 1, 5]);
    assert_eq!(h.active_jobs(), 1);
    assert_eq!(h.frozen_jobs(), 0);
    // Three active jobs on two cores ran at 2/3 speed for 100 ns, so the
    // survivor has 1000 - 66.67 left; alone at full speed → ⌈933.3⌉.
    assert_eq!(h.next_completion(100), Some(1034));
    assert_eq!(drain_at(&mut h, 1034), vec![2]);
}

#[test]
fn zero_work_jobs_complete_immediately() {
    let mut h = PsHost::new(1.0);
    h.add(0, 0.0, 0, 1);
    assert_eq!(h.next_completion(0), Some(0));
    assert_eq!(drain_at(&mut h, 0), vec![1]);
}

#[test]
fn add_frozen_then_unfreeze() {
    let mut h = PsHost::new(1.0);
    h.add_frozen(0, 500.0, 3, 1);
    assert_eq!(h.active_jobs(), 0);
    h.unfreeze_proc(100, 3);
    assert_eq!(h.next_completion(100), Some(600));
}

#[test]
fn work_conservation() {
    // Throw a batch of jobs at the host and verify completed work equals
    // the sum of job sizes once all are drained.
    let mut h = PsHost::new(3.0);
    let mut total = 0.0;
    for i in 0..50u64 {
        let w = 100.0 + (i * 37 % 500) as f64;
        total += w;
        h.add(i * 10, w, (i % 4) as usize, i);
    }
    let mut t = 500;
    let mut done = 0;
    let mut buf = Vec::new();
    while done < 50 {
        if let Some(next) = h.next_completion(t) {
            t = next;
            buf.clear();
            h.collect_due(t, &mut buf);
            done += buf.len();
        } else {
            panic!("stalled with {done} done");
        }
    }
    // Event-time quantization (ceil to whole ns) can over-account a few
    // ns of work per completion event.
    assert!(
        (h.completed_work_ns - total).abs() < total * 1e-3 + 1_000.0,
        "completed={} expected={}",
        h.completed_work_ns,
        total
    );
}

#[test]
fn cancel_of_a_finished_job_whose_slot_was_reused_returns_none() {
    let mut h = PsHost::new(1.0);
    let a = h.add(0, 100.0, 0, 1);
    assert_eq!(drain_at(&mut h, 100), vec![1]);
    let b = h.add(100, 100.0, 0, 2);
    assert_eq!(b.slot, a.slot, "the freed slot is reused");
    assert_eq!(h.cancel(150, a), None);
    assert_eq!(h.active_jobs(), 1);
    assert_eq!(h.cancel(150, b), Some(2));
    assert_eq!(h.cancel(150, b), None);
    assert_eq!(h.active_jobs(), 0);
}

#[test]
fn refreeze_with_no_active_jobs_restores_the_deadline_bit_for_bit() {
    let mut h = PsHost::new(1.0);
    h.add(0, 1000.0, 1, 1);
    h.freeze_proc(300, 1);
    // Nothing runs while frozen, so `v` stands still and the deadline comes
    // back unchanged.
    h.unfreeze_proc(900, 1);
    let s = &h.slots[0];
    assert_eq!(s.val.to_bits(), 1000.0f64.to_bits());
    assert_eq!(h.next_completion(900), Some(1600));
    assert_eq!(drain_at(&mut h, 1600), vec![1]);
}

// ---------------------------------------------------------------------------
// Differential test against the reference implementation.
// ---------------------------------------------------------------------------

/// The slab host and the reference host driven in lockstep.
struct Lockstep {
    new: PsHost<u64>,
    old: oracle::PsHost,
    t: SimTime,
    /// Every handle ever issued, with its tag (the reference's job id).
    handles: Vec<(JobId, u64)>,
    /// Whether each tag is still on the host (active or frozen).
    live: Vec<bool>,
    buf: Vec<u64>,
}

const PROCS: [usize; 4] = [0, 1, 2, NO_PROC];

impl Lockstep {
    fn new(cores: f64) -> Self {
        Lockstep {
            new: PsHost::new(cores),
            old: oracle::PsHost::new(cores),
            t: 0,
            handles: Vec::new(),
            live: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn add(&mut self, work: f64, proc: usize, frozen: bool) {
        let tag = self.live.len() as u64;
        let h = if frozen {
            self.old.add_frozen(self.t, oracle::JobId(tag), work, proc);
            self.new.add_frozen(self.t, work, proc, tag)
        } else {
            self.old.add(self.t, oracle::JobId(tag), work, proc);
            self.new.add(self.t, work, proc, tag)
        };
        self.handles.push((h, tag));
        self.live.push(true);
    }

    fn cancel(&mut self, idx: usize) {
        let (h, tag) = self.handles[idx];
        let expect = std::mem::replace(&mut self.live[tag as usize], false).then_some(tag);
        self.old.cancel(self.t, oracle::JobId(tag));
        assert_eq!(self.new.cancel(self.t, h), expect, "cancel of tag {tag}");
    }

    fn cancel_proc(&mut self, proc: usize) {
        let old: Vec<u64> = self
            .old
            .cancel_proc(self.t, proc)
            .into_iter()
            .map(|j| j.0)
            .collect();
        let new = self.new.cancel_proc(self.t, proc);
        assert_eq!(new, old, "cancel_proc({proc}) at t={}", self.t);
        self.retire(&new);
    }

    fn collect(&mut self) {
        let old: Vec<u64> = self
            .old
            .collect_due(self.t)
            .into_iter()
            .map(|j| j.0)
            .collect();
        self.buf.clear();
        self.new.collect_due(self.t, &mut self.buf);
        assert_eq!(self.buf, old, "completion order at t={}", self.t);
        let done = std::mem::take(&mut self.buf);
        self.retire(&done);
        self.buf = done;
    }

    fn retire(&mut self, tags: &[u64]) {
        for &t in tags {
            assert!(std::mem::replace(&mut self.live[t as usize], false));
        }
    }

    /// Compares every observable; `next_completion` is queried on both.
    fn check(&mut self) -> Option<SimTime> {
        let next = self.new.next_completion(self.t);
        assert_eq!(
            next,
            self.old.next_completion(self.t),
            "next_completion at t={}",
            self.t
        );
        assert_eq!(self.new.active_jobs(), self.old.active_jobs());
        assert_eq!(self.new.frozen_jobs(), self.old.frozen_jobs());
        assert_eq!(self.new.v.to_bits(), self.old.v.to_bits());
        assert_eq!(
            self.new.completed_work_ns.to_bits(),
            self.old.completed_work_ns.to_bits()
        );
        assert_eq!(self.new.hog_cores().to_bits(), self.old.hog_cores.to_bits());
        next
    }
}

fn random_work(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => 0.0,
        1 => -5.0,
        // A few fixed sizes make equal deadlines common.
        2..=5 => [250.0, 1000.0, 4000.0][rng.gen_range(0..3usize)],
        _ => rng.gen_range(0.0..5000.0),
    }
}

fn run_lockstep(seed: u64, ops: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cores = [0.5, 1.0, 2.0, 3.0, 8.0][rng.gen_range(0..5usize)];
    let mut ls = Lockstep::new(cores);
    let mut next = None;
    for _ in 0..ops {
        match rng.gen_range(0..100u32) {
            0..=29 => {
                let proc = PROCS[rng.gen_range(0..PROCS.len())];
                ls.add(random_work(&mut rng), proc, false);
            }
            30..=34 => {
                let proc = PROCS[rng.gen_range(0..PROCS.len())];
                ls.add(random_work(&mut rng), proc, true);
            }
            35..=39 => {
                // Equal-deadline storm: one instant, one size.
                let w = random_work(&mut rng);
                for _ in 0..rng.gen_range(2..20usize) {
                    let proc = PROCS[rng.gen_range(0..PROCS.len())];
                    ls.add(w, proc, false);
                }
            }
            40..=46 if !ls.handles.is_empty() => {
                // Any handle: live, finished, or finished with its slot reused.
                let idx = rng.gen_range(0..ls.handles.len());
                ls.cancel(idx);
            }
            47..=53 => {
                let p = rng.gen_range(0..3usize);
                ls.old.freeze_proc(ls.t, p);
                ls.new.freeze_proc(ls.t, p);
            }
            54..=60 => {
                let p = rng.gen_range(0..3usize);
                ls.old.unfreeze_proc(ls.t, p);
                ls.new.unfreeze_proc(ls.t, p);
            }
            61..=63 => ls.cancel_proc(PROCS[rng.gen_range(0..PROCS.len())]),
            64..=67 => {
                let delta = if ls.new.hog_cores() > 0.0 && rng.gen_bool(0.5) {
                    -ls.new.hog_cores()
                } else {
                    rng.gen_range(-1.0..2.5)
                };
                ls.old.adjust_hog(ls.t, delta);
                ls.new.adjust_hog(ls.t, delta);
            }
            68..=84 => {
                // Jump to the next completion (the simulator's `HostCheck`).
                if let Some(t) = next {
                    ls.t = t;
                }
                ls.collect();
            }
            _ => {
                ls.t += [0, 1, 37, 500, 4000][rng.gen_range(0..5usize)];
                ls.collect();
            }
        }
        next = ls.check();
    }
    // Drain: thaw everything and run to completion.
    for p in PROCS {
        ls.old.unfreeze_proc(ls.t, p);
        ls.new.unfreeze_proc(ls.t, p);
    }
    ls.old.adjust_hog(ls.t, -1e9);
    ls.new.adjust_hog(ls.t, -1e9);
    while let Some(t) = ls.check() {
        ls.t = t;
        ls.collect();
    }
    assert_eq!(ls.new.active_jobs() + ls.new.frozen_jobs(), 0);
    assert!(
        ls.live.iter().all(|l| !l),
        "every job completed or cancelled"
    );
}

#[test]
fn slab_host_matches_the_map_reference_on_random_operations() {
    for seed in 0..200 {
        run_lockstep(seed, 400);
    }
}

#[test]
fn slab_host_matches_the_map_reference_through_gc_cycles() {
    // Freeze/unfreeze cycles with and without other active work, including
    // pauses that start and end with no job running (the re-activated
    // deadline then equals the old one bit for bit).
    for seed in 0..20u64 {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let mut ls = Lockstep::new(2.0);
        for round in 0..40 {
            let background = round % 3 != 0;
            for _ in 0..rng.gen_range(1..6usize) {
                ls.add(random_work(&mut rng), 1, false);
            }
            if background {
                ls.add(random_work(&mut rng), 0, false);
            }
            ls.t += rng.gen_range(0..300u64);
            ls.collect();
            ls.check();
            ls.old.freeze_proc(ls.t, 1);
            ls.new.freeze_proc(ls.t, 1);
            ls.add(random_work(&mut rng), 1, true);
            ls.check();
            ls.t += rng.gen_range(0..2000u64);
            ls.collect();
            ls.old.unfreeze_proc(ls.t, 1);
            ls.new.unfreeze_proc(ls.t, 1);
            if let Some(t) = ls.check() {
                ls.t = t;
                ls.collect();
            }
            ls.check();
        }
        while let Some(t) = ls.check() {
            ls.t = t;
            ls.collect();
        }
        assert!(ls.live.iter().all(|l| !l));
    }
}
