//! Process-level measurements and small statistics helpers.

use std::os::raw::{c_int, c_long};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two timevals
/// followed by fourteen longs, of which only `ru_maxrss` is read here.
#[repr(C)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
}

/// CPU time and peak memory of this process, all threads included.
#[derive(Debug, Clone, Copy)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Peak resident set size (Linux `VmHWM`), MiB.
    pub peak_rss_mib: f64,
}

impl Rusage {
    pub fn now() -> Rusage {
        let mut raw = std::mem::MaybeUninit::<RawRusage>::zeroed();
        // SAFETY: `raw` is a valid, writable `struct rusage` for this
        // target (layout above); RUSAGE_SELF (0) is always accepted, and
        // the kernel fills the whole struct before returning 0.
        let rc = unsafe { getrusage(0, raw.as_mut_ptr()) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        // SAFETY: zero-initialised above and filled by the kernel.
        let raw = unsafe { raw.assume_init() };
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Rusage {
            user_s: secs(&raw.ru_utime),
            sys_s: secs(&raw.ru_stime),
            peak_rss_mib: raw.ru_maxrss as f64 / 1024.0,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Linear-interpolated quantile of an already sorted sample; 0 if empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile_sorted(&sorted(v), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs `set_up` `repeats` times, each on a clean slate (the previous world
/// is dropped first), and returns the last world with the median set-up
/// time in seconds.
pub fn repeat_set_up<W>(repeats: usize, mut set_up: impl FnMut() -> W) -> (W, f64) {
    let mut secs = Vec::with_capacity(repeats);
    let mut world = None;
    for _ in 0..repeats.max(1) {
        drop(world.take());
        let t0 = Instant::now();
        world = Some(set_up());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (world.expect("set up at least once"), median(secs))
}

/// One slice of the measured phase: a few dozen rank requests, one serve
/// pass, one sim sweep.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub requests: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Clock of the measured phase. Correctness checks run inside
/// [`Phase::pause`], which keeps their wall and CPU time out of every
/// figure; the phase is cut into [`Block`]s so that throughput and CPU per
/// request can be reported as medians over blocks, which one noisy second
/// on a shared machine does not move.
pub struct Phase {
    t0: Instant,
    paused: Duration,
    paused_cpu_s: f64,
    /// Measured wall and process CPU seconds at the last block boundary.
    mark: (f64, f64),
    blocks: Vec<Block>,
}

impl Phase {
    pub fn start() -> Phase {
        Phase {
            t0: Instant::now(),
            paused: Duration::ZERO,
            paused_cpu_s: 0.0,
            mark: (0.0, Rusage::now().cpu_s()),
            blocks: Vec::new(),
        }
    }

    /// Measured seconds so far, pauses excluded.
    pub fn elapsed_s(&self) -> f64 {
        (self.t0.elapsed() - self.paused).as_secs_f64()
    }

    /// Runs `f` off the clock.
    pub fn pause<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (t, c) = (Instant::now(), Rusage::now().cpu_s());
        let r = f();
        self.paused += t.elapsed();
        self.paused_cpu_s += Rusage::now().cpu_s() - c;
        r
    }

    /// Closes the block that served `requests` since the last boundary.
    pub fn end_block(&mut self, requests: u64) {
        let now = (self.elapsed_s(), Rusage::now().cpu_s() - self.paused_cpu_s);
        self.blocks.push(Block {
            requests,
            wall_s: now.0 - self.mark.0,
            cpu_s: now.1 - self.mark.1,
        });
        self.mark = now;
    }

    /// Total measured seconds (up to the last block boundary) and the blocks.
    pub fn finish(self) -> (f64, Vec<Block>) {
        (self.mark.0, self.blocks)
    }
}
