//! The run model: set-up → warm-up → timed region → drain → checks.
//!
//! Host-closed, sim-open: arrivals are open-loop (Poisson) in *simulated*
//! time; in host time one thread runs the simulation as fast as it can
//! and the harness reports simulated work per wall second. The timed
//! region is a fixed number of steps per workload (scaled by `--seconds`),
//! so two commits measure the same simulated work and a same-seed run
//! reaches the same simulated state — which `sim_digest` pins.

use crate::probe::NoArrivals;
use crate::stats::median;
use crate::system::Outcome;
use crate::workloads::{build, Built, Variant, Workload, STEP_SECS};
use std::time::Instant;

/// Slices the timed region is cut into. Short slices let the per-slice
/// minimum over the repetitions dodge interference that comes and goes
/// within a second.
const SLICES: u64 = 100;
/// Warm-up length as a share of the timed region.
const WARMUP_SHARE: f64 = 0.05;
/// Times the timed region is repeated, each on a fresh build of the same
/// seed (so every repetition simulates exactly the same thing).
pub const REPS: usize = 5;
/// Builds are added to a set-up window until this much wall time is spent…
const SETUP_BUDGET_SECS: f64 = 0.05;
/// …within these limits.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 15..=2_000;
/// The drain gives up after this many simulated seconds.
const DRAIN_CAP_SECS: f64 = 900.0;
/// The drain stops once the system has looked idle this long, simulated
/// seconds (covers link retransmits and rejoin timers the public
/// accessors do not show).
const DRAIN_CALM_SECS: f64 = 3.0;

/// How long one repetition of the timed region is, in steps, for a
/// `--seconds` value.
pub fn region_steps(workload: Workload, seconds: u64) -> u64 {
    // Whole slices, so every slice has the same length.
    let steps = workload.steps_per_second_asked() * seconds.max(1);
    (steps / SLICES).max(1) * SLICES
}

/// Hand the allocator's free pages back to the kernel, so that `VmRSS`
/// reads what the program still holds and not the high-water mark of its
/// transient copies (a late hedge cancellation clones a whole controller:
/// whether one falls near the end of the region depends on the seed and
/// moved `rss_growth_mb` by a twentieth). glibc only; elsewhere a no-op.
fn release_free_pages() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases pages
        // of chunks the allocator already holds free; one thread runs here.
        unsafe { malloc_trim(0) };
    }
}

/// Resident and peak resident set of this process, MiB, from
/// `/proc/self/status` (`VmRSS`, `VmHWM`).
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(f64::NAN, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Median wall seconds of building the workload's system and sources,
/// over one window of enough builds to steady a sub-millisecond time.
fn setup_window(workload: Workload, seed: u64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < *SETUP_REPS.start()
        || (samples.len() < *SETUP_REPS.end()
            && started.elapsed().as_secs_f64() < SETUP_BUDGET_SECS)
    {
        let t = Instant::now();
        let built = build(workload, Variant::Plain, seed, false);
        samples.push(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(built));
    }
    median(&samples)
}

/// What one pass over the timed region measured.
#[derive(Debug, Clone)]
pub struct Region {
    /// Steps in the region.
    pub steps: u64,
    /// Wall seconds of each slice.
    pub slice_secs: Vec<f64>,
    /// Outcome at the end of the warm-up.
    pub before: Outcome,
    /// Outcome at the end of the region.
    pub after: Outcome,
    /// Requests issued during the region.
    pub issued: u64,
}

impl Region {
    /// Wall seconds of the whole region (clock stopped between slices).
    pub fn wall_secs(&self) -> f64 {
        self.slice_secs.iter().sum()
    }

    /// Simulated seconds the region covers.
    pub fn sim_secs(&self) -> f64 {
        (self.after.sim_us - self.before.sim_us) as f64 / 1e6
    }

    /// Requests that reached a terminal state during the region.
    pub fn terminal(&self) -> u64 {
        self.after.terminal() - self.before.terminal()
    }

    /// Requests completed during the region.
    pub fn completed(&self) -> u64 {
        self.after.completed() - self.before.completed()
    }
}

/// Hooks a traced pass hangs on the stepping loop.
pub trait StepObserver {
    /// Whether to read a clock around every step and report it to
    /// [`Self::after_step`] (otherwise only every slice is timed).
    fn times_steps(&self) -> bool {
        false
    }

    /// Called once, after the warm-up and before the first timed step.
    fn region_starts(&mut self, _built: &Built) {}

    /// Called after every step of the timed region with its wall time.
    fn after_step(&mut self, _built: &Built, _step: u64, _nanos: u64) {}

    /// Called once, after the last timed step and before the outcome is
    /// read (which clones the per-request books).
    fn region_ends(&mut self) {}
}

/// The untraced pass observes nothing.
pub struct NoObserver;

impl StepObserver for NoObserver {}

/// Reads the process's memory around a region. Only the first repetition
/// of a run carries it: later ones reuse the heap the first one grew, and
/// handing that heap back would make them pay its page faults again.
#[derive(Debug, Clone, Copy, Default)]
pub struct Memory {
    /// `VmRSS` at the end of the warm-up, free pages released, MiB.
    pub rss_before_mb: f64,
    /// `VmRSS` at the end of the region, free pages released, MiB.
    pub rss_after_mb: f64,
    /// `VmHWM` at the end of the region, MiB.
    pub peak_rss_mb: f64,
}

impl StepObserver for Memory {
    fn region_starts(&mut self, _built: &Built) {
        release_free_pages();
        self.rss_before_mb = rss_mb().0;
    }

    fn region_ends(&mut self) {
        self.peak_rss_mb = rss_mb().1;
        release_free_pages();
        self.rss_after_mb = rss_mb().0;
    }
}

/// Warm `built` up and run the timed region.
pub fn run_region(built: &mut Built, steps: u64, observer: &mut dyn StepObserver) -> Region {
    let warmup = ((steps as f64 * WARMUP_SHARE) as u64).max(1);
    for _ in 0..warmup {
        built.system.step(&mut built.source);
    }
    let before = built.system.outcome();
    let issued_before = built.source.issued();
    observer.region_starts(built);

    let per_slice = steps / SLICES.min(steps);
    let mut slice_secs = Vec::with_capacity(SLICES as usize);
    let mut step = 0;
    while step < steps {
        let n = per_slice.min(steps - step);
        let slice_started = Instant::now();
        if observer.times_steps() {
            for i in 0..n {
                let t = Instant::now();
                built.system.step(&mut built.source);
                let nanos = t.elapsed().as_nanos() as u64;
                observer.after_step(built, step + i, nanos);
            }
        } else {
            for _ in 0..n {
                built.system.step(&mut built.source);
            }
        }
        slice_secs.push(slice_started.elapsed().as_secs_f64());
        step += n;
    }
    observer.region_ends();
    let after = built.system.outcome();
    Region {
        steps,
        slice_secs,
        before,
        after,
        issued: built.source.issued() - issued_before,
    }
}

/// The timed region repeated on fresh builds of one seed.
///
/// The reference box shares its memory system with other tenants, and
/// their activity slows a run in bursts that last seconds: identical
/// repetitions differ by a third. The disturbance only ever *adds* time,
/// and a same-seed repetition does exactly the same work in slice `i`, so
/// the fastest of the repetitions' `i`-th slices is the best estimate of
/// what slice `i` costs undisturbed. Summing those keeps every genuine
/// cost — including one-off bursts such as a partition heal, which every
/// repetition pays — and drops most of the interference.
pub struct Repeated {
    /// The first repetition (the deterministic outputs are read off it).
    pub first: Region,
    /// The process's memory around the first repetition's region.
    pub memory: Memory,
    /// Per slice, the fastest wall seconds over the repetitions.
    pub best_slice_secs: Vec<f64>,
    /// Set-up time: before each repetition a window of builds is timed
    /// and its median taken; this is the fastest window's, for the same
    /// reason the slices take the fastest repetition.
    pub setup_secs: f64,
    /// Whether every repetition ended in the same simulated state.
    pub deterministic: bool,
    /// The last repetition's system, for the drain.
    pub last: Built,
}

impl Repeated {
    /// Undisturbed wall seconds of one pass over the region.
    pub fn best_wall_secs(&self) -> f64 {
        self.best_slice_secs.iter().sum()
    }

    /// Steps per wall second, undisturbed.
    pub fn steps_per_sec(&self) -> f64 {
        self.first.steps as f64 / self.best_wall_secs()
    }
}

/// Run the untraced timed region `reps` times on fresh builds.
pub fn run_repeated(
    workload: Workload,
    variant: Variant,
    seed: u64,
    steps: u64,
    reps: usize,
) -> Repeated {
    let mut setup_secs = f64::INFINITY;
    let mut best_slice_secs = Vec::new();
    let mut first: Option<Region> = None;
    let mut memory = Memory::default();
    let mut last: Option<Built> = None;
    let mut deterministic = true;
    for _ in 0..reps.max(1) {
        // Free the previous repetition's books before building the next.
        drop(last.take());
        setup_secs = setup_secs.min(setup_window(workload, seed));
        let mut built = build(workload, variant, seed, false);
        let region = if first.is_none() {
            run_region(&mut built, steps, &mut memory)
        } else {
            run_region(&mut built, steps, &mut NoObserver)
        };
        match &first {
            None => {
                best_slice_secs = region.slice_secs.clone();
                first = Some(region);
            }
            Some(first) => {
                deterministic &= region.after == first.after && region.issued == first.issued;
                for (best, s) in best_slice_secs.iter_mut().zip(&region.slice_secs) {
                    *best = best.min(*s);
                }
            }
        }
        last = Some(built);
    }
    Repeated {
        first: first.expect("at least one repetition ran"),
        memory,
        best_slice_secs,
        setup_secs,
        deterministic,
        last: last.expect("at least one repetition ran"),
    }
}

/// What the drain found.
#[derive(Debug, Clone)]
pub struct Drained {
    /// Requests issued over the whole run.
    pub issued: u64,
    /// Requests in a terminal state after the drain.
    pub terminal: u64,
    /// Simulated seconds the drain took.
    pub sim_secs: f64,
}

impl Drained {
    /// Requests not in exactly one terminal state: lost or double-booked.
    pub fn failed(&self) -> u64 {
        self.issued.abs_diff(self.terminal)
    }
}

/// Cut the arrivals and step until the system has been idle for a while
/// (or the cap is hit), then check the books: every request issued must
/// be in exactly one terminal state.
pub fn drain(built: &mut Built) -> Drained {
    built.system.stop_injecting();
    let started = built.system.now();
    let check_every = 50;
    let calm_checks = (DRAIN_CALM_SECS / STEP_SECS) as u64 / check_every;
    let mut calm = 0;
    let mut steps = 0u64;
    while calm < calm_checks && (steps as f64) * STEP_SECS < DRAIN_CAP_SECS {
        for _ in 0..check_every {
            built.system.step(&mut NoArrivals);
        }
        steps += check_every;
        calm = if built.system.looks_idle() {
            calm + 1
        } else {
            0
        };
    }
    Drained {
        issued: built.source.issued(),
        terminal: built.system.outcome().terminal(),
        sim_secs: built.system.now().since(started).as_secs_f64(),
    }
}
