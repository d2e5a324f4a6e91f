//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <web_sessions|analyst_pivots|dashboards_under_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload's engine up five times, four of them in child
//! processes of its own, and reports the median set-up time. With
//! `--trace 0` it runs the seeded open-loop schedule for 60% of
//! `--seconds` and a closed-loop goodput phase for the rest, and reports
//! latency and goodput at reference host speed (see `speed.rs`). With
//! `--trace 1` the open-loop window runs twice, each for half of
//! `--seconds`, untraced and then traced, and the per-layer metrics come
//! from the traced one. Every run passes the correctness gate or reports
//! `"correct": false`. The last line of standard output is the JSON
//! result; the lines before it are the run record and every metric with
//! its unit and sample count. See README.md for the workloads and what
//! each metric should respond to.

mod load;
mod oracle;
mod report;
mod speed;
mod trace;
mod workload;

use load::{open_schedule, run_closed, run_open, Kind, Recorder, Rng, Scheduled};
use report::{goodput, headline_ms, latency, median, p99_supported, quantile, Metrics};
use speed::Probes;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use trace::Counters;
use workload::{Bench, Flow, Name, Params, SetupSeconds, SetupTimes};

/// Set-ups per run, each in a process of its own; `setup_s` is the median
/// of their times at reference speed. A process's set-up time depends on
/// where its memory landed: on a 2-vCPU development host it varied by
/// ±20% between processes started a second apart, but by a few percent
/// within one process.
const SETUPS: usize = 5;
/// Share of `--seconds` the open-loop window takes; the closed-loop
/// goodput phase takes the rest. A traced run instead spends half of
/// `--seconds` on each of its two open-loop windows.
const OPEN_SHARE: f64 = 0.6;
/// Cap on generator threads: each web_sessions thread owns a session
/// class, and the metrics registry holds eight classes.
const MAX_THREADS: usize = 6;
/// Pre-threshold logins timed after a traced web_sessions window.
const PRE_THRESHOLD_LOGINS: usize = 50;
/// Host speed probes taken just before and just after each set-up.
const SETUP_PROBES: usize = 20;
/// The flag that makes the benchmark a set-up process.
const SETUP_ONLY: &str = "--setup-only";

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up the workload, print its [`SetupSeconds`] line and exit: the
    /// benchmark runs itself this way for each set-up but its own.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Name::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if parsed.is_nan() || parsed <= 0.0 || parsed > 600.0 {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            SETUP_ONLY => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Name::ALL.map(Name::as_str).join("|")
            );
            std::process::exit(2);
        }
    };
    if args.setup_only {
        match timed_setup(args.workload, args.seed, worker_threads()) {
            Ok((_, _, seconds)) => println!("{}", seconds.line()),
            Err(error) => {
                eprintln!("perfbench: {error}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Err(error) = run(&args) {
        eprintln!("perfbench: {error}");
        std::process::exit(1);
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository revision when run from a git checkout, else "unknown".
fn revision() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One open-loop window over `schedule`, with the feed running beside it.
fn open_window(
    bench: &Bench,
    schedule: &[Scheduled<Flow>],
    traced: bool,
    origin: Instant,
    probes: &Probes,
) -> (Recorder, Duration) {
    if let Some(feed) = &bench.feed {
        feed.start(Instant::now());
    }
    let exec =
        |rec: &mut Recorder, flow: &Flow, due: Instant| bench.run(rec, rec.thread, flow, due);
    let result = run_open(
        bench.threads,
        traced,
        origin,
        schedule,
        bench.background(),
        probes,
        &exec,
    );
    if let Some(feed) = &bench.feed {
        feed.stop();
    }
    result
}

/// The closed-loop goodput phase, with the feed running beside it.
fn closed_phase(
    bench: &Bench,
    seed: u64,
    length: Duration,
    origin: Instant,
    probes: &Probes,
) -> Recorder {
    if let Some(feed) = &bench.feed {
        feed.start(Instant::now());
    }
    let draw = |rng: &mut Rng| bench.draw(rng);
    let exec =
        |rec: &mut Recorder, flow: &Flow, due: Instant| bench.run(rec, rec.thread, flow, due);
    let closed = run_closed(
        bench.threads,
        seed,
        length,
        origin,
        bench.background(),
        probes,
        &draw,
        &exec,
    );
    if let Some(feed) = &bench.feed {
        feed.stop();
    }
    closed
}

/// Drains the ingest pipeline and checks its accounting over the run:
/// every batch the feed sent was accepted or refused, and every accepted
/// batch was applied, failed or is still queued. Returns the summary
/// line, the batches sent and the batches refused or failed.
fn ingest_balance(
    bench: &Bench,
    start: &Counters,
    sent_before: u64,
    gate_errors: &mut Vec<String>,
) -> Result<(String, u64, u64), String> {
    let Some(feed) = &bench.feed else {
        return Ok((String::new(), 0, 0));
    };
    feed.flush()?;
    let end = Counters::read(bench.engine());
    let sent = feed.submitted.load(Ordering::Relaxed) - sent_before;
    let accepted = end.ingest_submitted - start.ingest_submitted;
    let rejected = end.ingest_rejected - start.ingest_rejected;
    let applied = end.ingest_applied - start.ingest_applied;
    let failed = end.ingest_failed - start.ingest_failed;
    if end.ingest_submitted != end.ingest_applied + end.ingest_failed + end.ingest_queue_depth {
        gate_errors.push(format!(
            "ingest accounting does not balance: submitted {} != applied {} + failed {} + queued {}",
            end.ingest_submitted, end.ingest_applied, end.ingest_failed, end.ingest_queue_depth
        ));
    }
    if sent != accepted + rejected {
        gate_errors.push(format!(
            "the feed sent {sent} batches, the pipeline saw {}",
            accepted + rejected
        ));
    }
    let line = format!(
        "ingest batches_sent={sent} accepted={accepted} rejected={rejected} applied={applied} failed={failed} queued={}",
        end.ingest_queue_depth
    );
    Ok((line, sent, rejected + failed))
}

/// The run record: what a result must be read with, so that runs from
/// different hosts, seeds or settings are never compared silently.
fn run_record(
    args: &Args,
    bench: &Bench,
    params: &Params,
    window: Duration,
    flows: usize,
    plain: &Recorder,
    speeds: &[(&str, f64, usize)],
) -> String {
    let config = &bench.config;
    let limits: Vec<String> = params
        .limits_ms
        .iter()
        .map(|(kind, ms)| format!("\"{}\": {ms}", kind.name()))
        .collect();
    let samples: Vec<String> = Kind::ALL
        .iter()
        .map(|&kind| format!("\"{}\": {}", kind.name(), latency(plain, kind).samples))
        .collect();
    let speeds: Vec<String> = speeds
        .iter()
        .map(|(phase, slowdown, probes)| {
            format!("\"{phase}\": {{\"slowdown\": {slowdown:.4}, \"probes\": {probes}}}")
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"generator_threads\": {}, \
         \"revision\": \"{}\", \"scenario\": {{\"seed\": {}, \"stores\": {}, \"cities\": {}, \"customers\": {}, \"products\": {}, \
         \"days\": {}, \"sales\": {}, \"airports\": {}, \"train_lines\": {}}}, \"offered_flows_per_s\": {}, \"open_window_s\": {:.3}, \
         \"flows_scheduled\": {flows}, \"primary\": \"{}\", \"latency_limits_ms\": {{{}}}, \"samples\": {{{}}}, \
         \"lag_p50_ms\": {:.4}, \"lag_p99_ms\": {:.4}, \"lag_max_ms\": {:.4}, \"probe_reference_ns\": {}, \"host_speed\": {{{}}}}}",
        args.workload.as_str(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, usize::from),
        bench.threads,
        revision(),
        config.seed,
        config.stores,
        config.cities,
        config.customers,
        config.products,
        config.days,
        config.sales,
        config.airports,
        config.train_lines,
        params.rate,
        window.as_secs_f64(),
        params.primary.name(),
        limits.join(", "),
        samples.join(", "),
        quantile(&plain.lags_us, 0.5) / 1e3,
        quantile(&plain.lags_us, 0.99) / 1e3,
        plain.lags_us.iter().copied().fold(0.0, f64::max) / 1e3,
        speed::REFERENCE_NS,
        speeds.join(", "),
    )
}

/// The host speed of the phase that just ended, from the probes taken
/// during it.
fn phase_speed(phase: &'static str, probes: &Probes) -> (&'static str, f64, usize) {
    let taken = probes.take();
    (phase, speed::slowdown(&taken), taken.len())
}

/// Every request type's latency line: the headline p50 and p90 (median
/// over the window's time slices), the whole window's p99 where at least
/// ten samples lie beyond it, all at reference speed; then the sample
/// count, the failures, and the p50 as measured and as service time.
fn latency_lines(plain: &Recorder, slowdown: f64) -> Vec<String> {
    let mut lines = Vec::new();
    for kind in [
        Kind::Login,
        Kind::Select,
        Kind::Dashboard,
        Kind::Pivot,
        Kind::Ryw,
    ] {
        let l = latency(plain, kind);
        if l.attempted == 0 {
            continue;
        }
        let name = kind.name();
        let p99 = if p99_supported(l.samples) {
            format!("{name}_p99_ms {:.4} ms", l.p99_ms / slowdown)
        } else {
            format!("{name}_p99_ms n/a (fewer than 10 samples beyond it)")
        };
        let p50 = headline_ms(plain, kind, 0.5);
        lines.push(format!(
            "metric {name}_p50_ms {:.4} ms | {name}_p90_ms {:.4} ms | {p99} | n={} failed={} measured_p50_ms={p50:.4} service_p50_ms={:.4}",
            p50 / slowdown,
            headline_ms(plain, kind, 0.9) / slowdown,
            l.samples,
            l.failed,
            l.service_p50_ms
        ));
    }
    let failed = plain.samples.iter().filter(|s| !s.ok).count();
    lines.push(format!(
        "metric failed_ratio {:.6} ratio | failed={failed} attempted={}",
        failed as f64 / plain.samples.len().max(1) as f64,
        plain.samples.len()
    ));
    lines
}

fn out_dir() -> Result<PathBuf, String> {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    Ok(out)
}

fn failed_count(rec: &Recorder) -> u64 {
    rec.samples.iter().filter(|s| !s.ok).count() as u64
}

/// Generator threads: `nproc`, capped at [`MAX_THREADS`].
fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_THREADS)
}

/// Sets the workload up, with the host's slowdown from probes taken just
/// before and just after.
fn timed_setup(
    name: Name,
    seed: u64,
    threads: usize,
) -> Result<(Bench, SetupTimes, SetupSeconds), String> {
    let mut probes = speed::burst(SETUP_PROBES);
    let (bench, times) = Bench::setup(name, seed, threads)?;
    probes.extend(speed::burst(SETUP_PROBES));
    let seconds = times.seconds(speed::slowdown(&probes));
    Ok((bench, times, seconds))
}

/// Runs one set-up in a fresh process of this benchmark and reads its
/// timings.
fn setup_in_child(args: &Args) -> Result<SetupSeconds, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot find the benchmark binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.as_str()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args([SETUP_ONLY, "1"])
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .filter(|_| out.status.success())
        .and_then(SetupSeconds::parse)
        .ok_or_else(|| {
            format!(
                "set-up process failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })
}

fn run(args: &Args) -> Result<(), String> {
    let name = args.workload;
    let threads = worker_threads();
    let origin = Instant::now();

    let mut setups = (1..SETUPS)
        .map(|_| setup_in_child(args))
        .collect::<Result<Vec<_>, _>>()?;
    let (bench, own_setup, own_seconds) = timed_setup(name, args.seed, threads)?;
    setups.push(own_seconds);
    let setup_s = median(
        &setups
            .iter()
            .map(|s| s.total_s / s.slowdown)
            .collect::<Vec<_>>(),
    );
    let params = bench.params.clone();
    let window = Duration::from_secs_f64(args.seconds * if args.trace { 0.5 } else { OPEN_SHARE });
    let mut schedule = open_schedule(
        &mut Rng::new(args.seed, 0x09E7),
        params.rate,
        window,
        |rng| bench.draw(rng),
    );
    bench.mark_checks(&mut schedule, &mut Rng::new(args.seed, 0xC4EC));

    let probes = Probes::default();
    let start_counters = Counters::read(bench.engine());
    let sent_before = bench
        .feed
        .as_ref()
        .map_or(0, |f| f.submitted.load(Ordering::Relaxed));
    let (mut plain, plain_elapsed) = open_window(&bench, &schedule, false, origin, &probes);
    // Each phase's host speed: (phase, slowdown, probes taken).
    let mut speeds = vec![phase_speed("open", &probes)];
    let open_slowdown = speeds[0].1;
    let mut attempted = plain.samples.len() as u64;
    let mut failed = failed_count(&plain);
    let mut gate_errors = std::mem::take(&mut plain.gate_errors);
    let mut checks = std::mem::take(&mut plain.checks);
    let mut failures = plain.failures.clone();
    let mut lines = latency_lines(&plain, open_slowdown);

    let metrics = if args.trace {
        let before = Counters::read(bench.engine());
        let (mut traced, traced_elapsed) = open_window(&bench, &schedule, true, origin, &probes);
        let after = Counters::read(bench.engine());
        speeds.push(phase_speed("traced", &probes));
        let pre_threshold_logins = match name {
            Name::WebSessions => bench
                .pre_threshold_logins(PRE_THRESHOLD_LOGINS)
                .unwrap_or_else(|error| {
                    gate_errors.push(error);
                    Vec::new()
                }),
            _ => Vec::new(),
        };
        for &(step, start, end) in &own_setup.steps {
            traced.background(step, start, end);
        }
        attempted += traced.samples.len() as u64;
        failed += failed_count(&traced);
        let (layer, recon) = report::per_layer(&report::LayerInputs {
            name,
            traced: &traced,
            before: &before,
            after: &after,
            window_s: traced_elapsed.as_secs_f64(),
            plain: &plain,
            plain_elapsed_s: plain_elapsed.as_secs_f64(),
            slowdowns: (open_slowdown, speeds[1].1),
            pre_threshold_logins: &pre_threshold_logins,
            setups: &setups,
            queue_depth_max: bench
                .feed
                .as_ref()
                .map_or(0, |f| f.queue_depth_max.load(Ordering::Relaxed)),
        });
        lines.extend(recon.iter().map(|row| row.line()));
        let path = out_dir()?.join(format!("trace-{}-{}.jsonl", name.as_str(), args.seed));
        trace::write_spans(&path, &traced.spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        lines.push(format!(
            "trace {} spans written to {}",
            traced.spans.len(),
            path.display()
        ));
        failures.extend(traced.failures);
        gate_errors.extend(traced.gate_errors);
        checks.extend(traced.checks);
        layer
    } else {
        let length = Duration::from_secs_f64(args.seconds * (1.0 - OPEN_SHARE));
        let closed = closed_phase(&bench, args.seed, length, origin, &probes);
        speeds.push(phase_speed("closed", &probes));
        let closed_slowdown = speeds[1].1;
        attempted += closed.samples.len() as u64;
        failed += failed_count(&closed);
        let goodput = goodput(&closed, &params);
        lines.push(format!(
            "metric goodput_rps {:.3} 1/s at reference speed (measured {goodput:.3}) | closed loop, {threads} clients, {} requests",
            goodput * closed_slowdown,
            closed.samples.len()
        ));
        failures.extend(closed.failures);
        gate_errors.extend(closed.gate_errors);
        let mut m = Metrics::default();
        m.push("setup_s", setup_s, "s");
        m.push("peak_rss_mb", peak_rss_mb(), "MB");
        m.push("goodput_rps", goodput * closed_slowdown, "1/s");
        m.push(
            "dashboard_p50_ms",
            headline_ms(&plain, Kind::Dashboard, 0.5) / open_slowdown,
            "ms",
        );
        m.push(
            "primary_p50_ms",
            headline_ms(&plain, params.primary, 0.5) / open_slowdown,
            "ms",
        );
        m
    };

    let (ingest_line, sent, refused) =
        ingest_balance(&bench, &start_counters, sent_before, &mut gate_errors)?;
    attempted += sent;
    failed += refused;
    let verdict = oracle::verify(&checks);
    gate_errors.extend(verdict.errors.iter().cloned());
    if verdict.answers == 0 {
        gate_errors.push("the correctness gate sampled no answer".into());
    }
    let correct = gate_errors.is_empty();

    let record = run_record(
        args,
        &bench,
        &params,
        window,
        schedule.len(),
        &plain,
        &speeds,
    );
    let record_path = out_dir()?.join(format!(
        "record-{}-{}-trace{}.json",
        name.as_str(),
        args.seed,
        args.trace as u8
    ));
    std::fs::write(&record_path, format!("{record}\n"))
        .map_err(|e| format!("cannot write {}: {e}", record_path.display()))?;

    println!("record {record}");
    for line in &lines {
        println!("{line}");
    }
    println!(
        "metric setup_s {setup_s:.4} s at reference speed | median of {} set-ups, each in its own process: measured {:?} s, slowdowns {:?}",
        setups.len(),
        setups
            .iter()
            .map(|s| (s.total_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        setups
            .iter()
            .map(|s| (s.slowdown * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!("metric peak_rss_mb {:.1} MB", peak_rss_mb());
    if !ingest_line.is_empty() {
        println!("{ingest_line}");
    }
    println!(
        "gate answers={} panels={} indeterminate={} errors={}",
        verdict.answers,
        verdict.panels,
        verdict.indeterminate,
        gate_errors.len()
    );
    for error in gate_errors.iter().take(10) {
        println!("gate error: {error}");
    }
    for failure in failures.iter().take(8) {
        println!("failure: {failure}");
    }
    for (metric, value, unit) in &metrics.0 {
        println!("{metric} {value} {unit}");
    }
    println!("{}", metrics.json(correct, attempted, failed));
    Ok(())
}
