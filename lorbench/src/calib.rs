//! A fixed reference task that measures how fast the host runs right now.
//!
//! On a shared host the same episode can take 30–50% longer for minutes at
//! a time while neighbours contend for the core, its caches and memory, so
//! raw host seconds of two runs of the same code differ by more than the
//! changes the benchmark must resolve.  An episode runs a short pass of this
//! task every few tens of milliseconds of its own work ([`HostTimer`]) and
//! scales the host seconds of that work by the passes around it, to what
//! they would be on a host where one pass takes [`REFERENCE_HOST_S`].  The
//! task does the same kind of work as the simulator — ordered-map range
//! lookups, inserts and removals as in a free-space index, hash-map lookups
//! as in a key directory, heap allocation and a little floating point — so
//! it slows down with it.  It belongs to the benchmark, not to the program,
//! so no change to the program changes it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one reference pass takes on the host the scaled host-time
/// metrics are expressed for: about an unloaded core of the 2-vCPU Xeon
/// the benchmark was tuned on.
pub const REFERENCE_HOST_S: f64 = 0.004;

/// Steps of one pass: about 4 ms on that host.
const STEPS: u64 = 50_000;

/// Positions the pass draws from.
const SPACE: u64 = 1_000_000;

/// Host seconds of timed work after which [`HostTimer`] runs a pass.
const SAMPLE_EVERY_S: f64 = 0.02;

/// Accumulates host seconds of work and the same seconds scaled to the
/// reference host.  It runs a reference pass when it starts, whenever
/// [`SAMPLE_EVERY_S`] of timed work has gone without one, and when it is
/// read; work between two passes is scaled by their mean.  Work that runs
/// on several threads is sampled by a pass on as many threads at once,
/// each thread's time counting equally.
#[derive(Debug)]
pub struct HostTimer {
    threads: usize,
    last_pass_s: f64,
    unsampled_s: f64,
    host_s: f64,
    scaled_s: f64,
    passes: u32,
    pass_s: f64,
}

impl HostTimer {
    /// Starts with a reference pass, for work on `threads` threads.
    pub fn new(threads: usize) -> Self {
        let mut timer = HostTimer {
            threads: threads.max(1),
            last_pass_s: 0.0,
            unsampled_s: 0.0,
            host_s: 0.0,
            scaled_s: 0.0,
            passes: 0,
            pass_s: 0.0,
        };
        timer.last_pass_s = timer.pass();
        timer
    }

    fn pass(&mut self) -> f64 {
        let secs = if self.threads == 1 {
            reference_s()
        } else {
            std::thread::scope(|scope| {
                let passes: Vec<_> = (0..self.threads)
                    .map(|_| scope.spawn(reference_s))
                    .collect();
                passes
                    .into_iter()
                    .map(|pass| pass.join().expect("a reference pass never panics"))
                    .sum::<f64>()
            }) / self.threads as f64
        };
        self.passes += 1;
        self.pass_s += secs;
        secs
    }

    fn sample(&mut self) {
        let now = self.pass();
        self.scaled_s += self.unsampled_s * REFERENCE_HOST_S / (0.5 * (self.last_pass_s + now));
        self.host_s += self.unsampled_s;
        self.unsampled_s = 0.0;
        self.last_pass_s = now;
    }

    /// Adds the work done since `since`.
    pub fn add(&mut self, since: Instant) {
        self.unsampled_s += since.elapsed().as_secs_f64();
        if self.unsampled_s >= SAMPLE_EVERY_S {
            self.sample();
        }
    }

    /// Host seconds and scaled seconds of the work added since the last
    /// call, after a closing pass.
    pub fn take(&mut self) -> (f64, f64) {
        self.sample();
        (
            std::mem::take(&mut self.host_s),
            std::mem::take(&mut self.scaled_s),
        )
    }

    /// Mean host seconds of the passes run so far.
    pub fn mean_pass_s(&self) -> f64 {
        self.pass_s / f64::from(self.passes.max(1))
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Host seconds of one pass of the reference task.
///
/// Each step draws a position and a length, takes the first free run at or
/// after the position, and either splits it (recording an owner), or
/// consumes it whole (looking its owner up), or, past the last run, adds a
/// new one.
pub fn reference_s() -> f64 {
    let started = Instant::now();
    let mut free: BTreeMap<u64, u64> = BTreeMap::new();
    let mut owner: HashMap<u64, u64> = HashMap::new();
    let mut state = 7u64;
    let mut acc = 0.0f64;
    for step in 0..STEPS {
        let draw = splitmix(&mut state);
        let at = draw % SPACE;
        let want = 1 + (draw >> 40) % 64;
        match free.range(at..).next().map(|(&start, &len)| (start, len)) {
            Some((start, len)) if len > want => {
                free.remove(&start);
                free.insert(start + want, len - want);
                owner.insert(start, step);
            }
            Some((start, _)) => {
                free.remove(&start);
                acc += owner.get(&start).copied().unwrap_or(step) as f64 * 1e-9;
            }
            None => {
                free.insert(at, want * 3);
            }
        }
        acc += (want as f64).sqrt();
    }
    black_box((acc, free.len(), owner.len()));
    started.elapsed().as_secs_f64()
}
