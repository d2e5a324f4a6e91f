//! The host's speed, measured beside the workload, so that latency and
//! goodput can be reported at a fixed reference speed.
//!
//! On a shared 2-vCPU host the engine's speed swings by ±30% over minutes
//! as neighbours come and go, which moves a run's latency quantiles far
//! more than run-to-run noise does. A probe, the same fixed piece of work
//! every time (dependent loads from a 128 KiB table, integer multiplies
//! and a square root, about 0.25 ms), is timed on the calling thread's
//! CPU clock: waiting for a core does not count, a slower core does. Its
//! median over a phase says how fast the host was during that phase. The
//! table fits the core's own cache, so the probe does not compete with
//! the engine for memory bandwidth and slows neither.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Linux's per-thread CPU-time clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that `clock_gettime` only writes into, and
    // the clock id is one the kernel defines for every thread.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the thread CPU clock is unavailable");
    time.sec as u64 * 1_000_000_000 + time.nsec as u64
}

/// Words in the probe's table (128 KiB).
const TABLE: usize = 1 << 14;
/// Rounds of the probe.
const ROUNDS: usize = 40_000;
/// The probe's CPU time on the reference host. Figures reported at
/// reference speed are scaled as if the probe had taken this long.
pub const REFERENCE_NS: f64 = 250_000.0;
/// How often a probe is taken: about 1% of one core.
const INTERVAL: Duration = Duration::from_millis(25);

thread_local! {
    static TABLE_WORDS: RefCell<Vec<u64>> = RefCell::new(
        (0..TABLE as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect(),
    );
}

/// Runs the probe once and returns the CPU nanoseconds it took.
fn probe_ns() -> f64 {
    TABLE_WORDS.with(|table| {
        let mut table = table.borrow_mut();
        let start = thread_cpu_ns();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut f = 1.0f64;
        for _ in 0..ROUNDS {
            let i = (x as usize) & (TABLE - 1);
            x = (x ^ table[i]).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            table[i] = x;
            f = (f + (x >> 44) as f64).sqrt();
        }
        std::hint::black_box((x, f));
        (thread_cpu_ns() - start) as f64
    })
}

/// Probe timings of one phase, taken at most every [`INTERVAL`] by
/// whichever generator thread has time for one: when the next probe is
/// due, and the probes so far.
pub struct Probes(Mutex<(Instant, Vec<f64>)>);

impl Default for Probes {
    fn default() -> Self {
        Probes(Mutex::new((Instant::now(), Vec::new())))
    }
}

impl Probes {
    /// Takes a probe if one is due and no other thread is taking one;
    /// returns whether it did.
    pub fn maybe(&self) -> bool {
        let Ok(mut state) = self.0.try_lock() else {
            return false;
        };
        let now = Instant::now();
        if now < state.0 {
            return false;
        }
        state.0 = now + INTERVAL;
        state.1.push(probe_ns());
        true
    }

    /// The probes taken so far (at least one), emptying the list for the
    /// next phase.
    pub fn take(&self) -> Vec<f64> {
        let mut samples = std::mem::take(&mut self.0.lock().expect("probe lock").1);
        if samples.is_empty() {
            samples.push(probe_ns());
        }
        samples
    }
}

/// `count` probes taken back to back.
pub fn burst(count: usize) -> Vec<f64> {
    (0..count).map(|_| probe_ns()).collect()
}

/// How much slower than the reference host a phase ran: the median of its
/// probes over [`REFERENCE_NS`]. Latency at reference speed is latency
/// divided by this; throughput is multiplied by it.
pub fn slowdown(probes: &[f64]) -> f64 {
    crate::report::median(probes) / REFERENCE_NS
}
