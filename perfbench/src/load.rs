//! Load generation: the seeded open-loop arrival schedule, the closed-loop
//! goodput phase, and the per-thread recorder every request reports to.
//!
//! The generator runs `nproc` threads in this one process. In the open loop
//! they share one schedule: the next flow goes to whichever thread is free,
//! which sleeps until the flow is due. A flow's first request is timed from
//! its due time, so a stall that delays later arrivals shows up in their
//! latency; the lateness itself is reported as generator lag.

use crate::speed::Probes;
use crate::trace::{Attribution, Span};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own seeded generator for arrival times and
/// request mixes. The warehouse data itself comes from `sdwp_datagen`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// The request types whose latency the benchmark reports (logout is
/// issued and counted, but users do not wait on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Login,
    Select,
    Dashboard,
    Pivot,
    Ryw,
    Logout,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Login,
        Kind::Select,
        Kind::Dashboard,
        Kind::Pivot,
        Kind::Ryw,
        Kind::Logout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Login => "login",
            Kind::Select => "select",
            Kind::Dashboard => "dashboard",
            Kind::Pivot => "pivot",
            Kind::Ryw => "ryw",
            Kind::Logout => "logout",
        }
    }
}

/// One finished request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// When the request was due, in seconds since the run's origin.
    pub at_s: f64,
    /// From when the request was due to when its answer arrived.
    pub latency_us: f64,
    /// From when the request was sent to when its answer arrived (the
    /// root span's length).
    pub service_us: f64,
    pub ok: bool,
}

/// What one generator thread observed. Merged after a phase.
pub struct Recorder {
    pub thread: usize,
    pub traced: bool,
    origin: Instant,
    next_id: u64,
    pub samples: Vec<Sample>,
    pub lags_us: Vec<f64>,
    /// Requests scheduled for this thread's flows (open loop only).
    pub offered: u64,
    /// The first failure messages, for the diagnostic lines.
    pub failures: Vec<String>,
    /// Correctness mismatches found while the answers arrived.
    pub gate_errors: Vec<String>,
    pub spans: Vec<Span>,
    pub checks: Vec<crate::oracle::Check>,
    pub attribution: Attribution,
    /// Facts matched, summed over the panels of successful answers.
    pub facts_matched: u64,
    /// `facts_scanned` of successful engine-path pivots (analysts).
    pub facts_scanned: u64,
    pub scanned_pivots: u64,
    pub selection_rules: u64,
    pub selections: u64,
}

impl Recorder {
    pub fn new(thread: usize, traced: bool, origin: Instant) -> Self {
        Recorder {
            thread,
            traced,
            origin,
            next_id: (thread as u64 + 1) << 40,
            samples: Vec::new(),
            lags_us: Vec::new(),
            offered: 0,
            failures: Vec::new(),
            gate_errors: Vec::new(),
            spans: Vec::new(),
            checks: Vec::new(),
            attribution: Attribution::default(),
            facts_matched: 0,
            facts_scanned: 0,
            scanned_pivots: 0,
            selection_rules: 0,
            selections: 0,
        }
    }

    /// A fresh span / request id, unique across threads.
    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished request: its latency from `due`, its service
    /// time from `start`, and in traced runs its root span (`id` comes
    /// from [`Recorder::next_id`], so child spans can point at it).
    pub fn request(
        &mut self,
        id: u64,
        kind: Kind,
        due: Instant,
        start: Instant,
        end: Instant,
        outcome: Result<(), String>,
    ) {
        let ok = outcome.is_ok();
        if let Err(message) = outcome {
            if self.failures.len() < 8 {
                self.failures.push(format!("{}: {message}", kind.name()));
            }
        }
        self.samples.push(Sample {
            kind,
            at_s: due.saturating_duration_since(self.origin).as_secs_f64(),
            latency_us: end.saturating_duration_since(due).as_secs_f64() * 1e6,
            service_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            ok,
        });
        if self.traced {
            self.spans.push(Span {
                id,
                parent: 0,
                request: id,
                name: kind.name(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Records a child span of request `request` (traced runs only).
    pub fn child(&mut self, request: u64, name: &'static str, start: Instant, end: Instant) {
        if self.traced {
            let id = self.next_id();
            self.spans.push(Span {
                id,
                parent: request,
                request,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Records a span that belongs to no user request (feed submissions,
    /// set-up steps).
    pub fn background(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.traced {
            let id = self.next_id();
            self.spans.push(Span {
                id,
                parent: 0,
                request: id,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Folds another thread's observations into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.samples.extend(other.samples);
        self.lags_us.extend(other.lags_us);
        self.offered += other.offered;
        for failure in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(failure);
            }
        }
        self.gate_errors.extend(other.gate_errors);
        self.spans.extend(other.spans);
        self.checks.extend(other.checks);
        self.attribution.absorb(&other.attribution);
        self.facts_matched += other.facts_matched;
        self.facts_scanned += other.facts_scanned;
        self.scanned_pivots += other.scanned_pivots;
        self.selection_rules += other.selection_rules;
        self.selections += other.selections;
    }
}

/// What runs beside the user requests and needs the generator's threads
/// to keep time for it (the ingest feed). Polled before every flow and
/// while a thread waits for its next arrival.
pub trait Background: Sync {
    /// Does whatever work is due now.
    fn pump(&self, rec: &mut Recorder);
    /// When the next background work falls due, if any is scheduled.
    fn next_due(&self) -> Option<Instant>;
}

/// One flow of the open-loop schedule, `at` after the window opens.
pub struct Scheduled<F> {
    pub at: Duration,
    pub flow: F,
}

/// An arrival schedule at `rate` flows per second over `window`: one
/// arrival at a seeded uniform offset inside each `1 / rate` slot, each
/// flow drawn from the workload's mix by the same seeded stream. Arrivals
/// are independent of the system's progress (open loop), but, unlike a
/// Poisson stream, never bunch up more than two to a slot, which keeps
/// the run-to-run spread of the latency quantiles small.
pub fn open_schedule<F>(
    rng: &mut Rng,
    rate: f64,
    window: Duration,
    mut draw: impl FnMut(&mut Rng) -> F,
) -> Vec<Scheduled<F>> {
    let slots = (window.as_secs_f64() * rate) as u64;
    (0..slots)
        .map(|slot| Scheduled {
            at: Duration::from_secs_f64((slot as f64 + rng.unit()) / rate),
            flow: draw(rng),
        })
        .collect()
}

/// The least time to the next arrival in which a waiting thread takes a
/// host speed probe (about 0.25 ms of work) before it sleeps.
const PROBE_SLACK: Duration = Duration::from_millis(2);

/// Sleeps until `until` while keeping background work on time. The
/// generator never spins: on a small host a spinning thread would take a
/// core from the engine's own workers. The sleep's wake-up delay counts
/// as generator lag.
fn wait_until(until: Instant, background: &dyn Background, probes: &Probes, rec: &mut Recorder) {
    loop {
        background.pump(rec);
        let now = Instant::now();
        if now >= until {
            return;
        }
        if until - now >= PROBE_SLACK && probes.maybe() {
            continue;
        }
        let wake = background.next_due().map_or(until, |due| due.min(until));
        std::thread::sleep(wake.saturating_duration_since(now));
    }
}

/// Runs an open-loop schedule on `threads` generator threads; `exec`
/// runs one flow whose first request is due at the given instant and
/// returns how many requests the flow was planned to send. A thread with
/// time to spare before its next arrival takes the due host speed probe.
pub fn run_open<F: Sync>(
    threads: usize,
    traced: bool,
    origin: Instant,
    schedule: &[Scheduled<F>],
    background: &dyn Background,
    probes: &Probes,
    exec: &(dyn Fn(&mut Recorder, &F, Instant) -> u64 + Sync),
) -> (Recorder, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let next = &next;
                scope.spawn(move || {
                    let mut rec = Recorder::new(thread, traced, origin);
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = schedule.get(index) else {
                            break;
                        };
                        let due = start + item.at;
                        wait_until(due, background, probes, &mut rec);
                        rec.lags_us.push(
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6,
                        );
                        rec.offered += exec(&mut rec, &item.flow, due);
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("generator thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    (merge(recorders, traced, origin), elapsed)
}

/// Runs the closed-loop goodput phase: each of `threads` clients sends its
/// next flow as soon as the previous one finished, for `length`, taking
/// the due host speed probe between flows.
#[allow(clippy::too_many_arguments)]
pub fn run_closed<F>(
    threads: usize,
    seed: u64,
    length: Duration,
    origin: Instant,
    background: &dyn Background,
    probes: &Probes,
    draw: &(dyn Fn(&mut Rng) -> F + Sync),
    exec: &(dyn Fn(&mut Recorder, &F, Instant) -> u64 + Sync),
) -> Recorder {
    let end = Instant::now() + length;
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(thread, false, origin);
                    let mut rng = Rng::new(seed, 0xC105_ED00 + thread as u64);
                    while Instant::now() < end {
                        background.pump(&mut rec);
                        probes.maybe();
                        let flow = draw(&mut rng);
                        exec(&mut rec, &flow, Instant::now());
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("generator thread panicked"))
            .collect()
    });
    merge(recorders, false, origin)
}

fn merge(recorders: Vec<Recorder>, traced: bool, origin: Instant) -> Recorder {
    let mut all = Recorder::new(0, traced, origin);
    for rec in recorders {
        all.absorb(rec);
    }
    all
}
