//! Turning what a run observed into named metrics: latency summaries,
//! the per-layer figures of the traced window, the reconciliation of
//! stage sums against root spans, and the final JSON line.

use crate::load::{Kind, Recorder, Sample};
use crate::trace::{mean, Attribution, Counters, StageSum};
use crate::workload::{Name, Params};
use sdwp::obs::Stage;
use std::fmt::Write;

/// The `q`-quantile of `values` (linear interpolation between ranks).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Whether a p99 has at least ten samples beyond it.
pub fn p99_supported(samples: usize) -> bool {
    samples >= 1000
}

/// Latency of one request type over successful requests only (failed
/// requests count in `failed_ratio`, never as latency samples).
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub attempted: usize,
    pub failed: usize,
    pub samples: usize,
    pub p99_ms: f64,
    /// Median time from send to answer, without the wait for a free
    /// generator thread.
    pub service_p50_ms: f64,
}

pub fn latency(rec: &Recorder, kind: Kind) -> Latency {
    let of_kind = rec.samples.iter().filter(|s| s.kind == kind);
    let attempted = of_kind.clone().count();
    let ok: Vec<f64> = of_kind
        .filter(|s| s.ok)
        .map(|s| s.latency_us / 1e3)
        .collect();
    Latency {
        attempted,
        failed: attempted - ok.len(),
        samples: ok.len(),
        p99_ms: quantile(&ok, 0.99),
        service_p50_ms: quantile(
            &rec.samples
                .iter()
                .filter(|s| s.kind == kind && s.ok)
                .map(|s| s.service_us / 1e3)
                .collect::<Vec<_>>(),
            0.5,
        ),
    }
}

/// Equal time slices a phase is cut into for its headline figures.
pub const SLICES: usize = 10;

/// Splits samples into [`SLICES`] equal slices of the time they span.
fn slices<'a>(samples: impl Iterator<Item = &'a Sample>) -> (Vec<Vec<&'a Sample>>, f64) {
    let samples: Vec<&Sample> = samples.collect();
    let low = samples.iter().map(|s| s.at_s).fold(f64::INFINITY, f64::min);
    let high = samples
        .iter()
        .map(|s| s.at_s)
        .fold(f64::NEG_INFINITY, f64::max);
    let width = (high - low) / SLICES as f64;
    let mut slices = vec![Vec::new(); SLICES];
    for sample in samples {
        let index = if width > 0.0 {
            ((sample.at_s - low) / width) as usize
        } else {
            0
        };
        slices[index.min(SLICES - 1)].push(sample);
    }
    (slices, width)
}

/// A latency quantile (ms) of one request type as a headline figure: the
/// median over the window's time slices of each slice's quantile, so a
/// few noisy seconds on a shared host move one slice and not the figure.
pub fn headline_ms(rec: &Recorder, kind: Kind, q: f64) -> f64 {
    let (slices, _) = slices(rec.samples.iter().filter(|s| s.kind == kind && s.ok));
    let per_slice: Vec<f64> = slices
        .iter()
        .filter(|slice| !slice.is_empty())
        .map(|slice| {
            quantile(
                &slice.iter().map(|s| s.latency_us / 1e3).collect::<Vec<_>>(),
                q,
            )
        })
        .collect();
    median(&per_slice)
}

/// Requests per second that succeeded within their type's latency limit,
/// as the median over the phase's time slices.
pub fn goodput(rec: &Recorder, params: &Params) -> f64 {
    let (slices, width) = slices(rec.samples.iter());
    if width <= 0.0 {
        return 0.0;
    }
    let per_slice: Vec<f64> = slices
        .iter()
        .map(|slice| {
            let good = slice
                .iter()
                .filter(|s| {
                    s.ok && params
                        .limit_us(s.kind)
                        .is_none_or(|limit| s.latency_us <= limit)
                })
                .count();
            good as f64 / width
        })
        .collect();
    median(&per_slice)
}

/// Named metrics in output order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (index, (name, value, unit)) in self.0.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Span durations (µs) of every span called `name`.
fn span_micros(rec: &Recorder, name: &str) -> Vec<f64> {
    rec.spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.micros())
        .collect()
}

/// Total µs of the spans called `name` inside user requests.
fn child_micros(rec: &Recorder, name: &str) -> f64 {
    rec.spans
        .iter()
        .filter(|span| span.name == name && span.parent != 0)
        .map(|span| span.micros())
        .sum()
}

fn mean_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Engine stage sums per request type over the traced window. In
/// web_sessions the stage histograms of each request's own session class
/// were read around it; elsewhere the window's deltas are split by which
/// request type alone records a stage (analysts: `query_*` stages are
/// pivots, `batch_*` dashboards; under ingest: the `dash` class is the
/// readers, `writer` the read-your-writes flow).
pub fn attribution(name: Name, rec: &Recorder, before: &Counters, after: &Counters) -> Attribution {
    if name == Name::WebSessions {
        return rec.attribution.clone();
    }
    let mut attribution = Attribution::default();
    for stage in Stage::ALL {
        let owners: Vec<(Kind, StageSum)> = match name {
            Name::AnalystPivots => {
                let kind = if stage.name().starts_with("query_") {
                    Kind::Pivot
                } else if stage.name().starts_with("batch_") {
                    Kind::Dashboard
                } else {
                    continue;
                };
                vec![(kind, after.stage_all(before, stage))]
            }
            _ => vec![
                (
                    Kind::Dashboard,
                    after.stage_delta(before, stage, |c| c == "dash"),
                ),
                (
                    Kind::Ryw,
                    after.stage_delta(before, stage, |c| c == "writer"),
                ),
            ],
        };
        for (kind, sum) in owners {
            if sum.0 > 0 {
                attribution.add(kind, stage.name(), sum);
            }
        }
    }
    attribution
}

/// One request type's root spans against the engine time under them.
#[derive(Debug, Clone)]
pub struct Reconciliation {
    pub kind: Kind,
    pub requests: usize,
    pub root_us: f64,
    /// Engine time the root covers: the type's total stage, plus for the
    /// write flow the spans around its direct ingest and pin calls.
    pub covered_us: f64,
    pub core_total: &'static str,
    pub core_total_us: f64,
    pub parts: Vec<(&'static str, f64)>,
    pub core_remainder: &'static str,
}

impl Reconciliation {
    pub fn web_unattributed_us(&self) -> f64 {
        self.root_us - self.covered_us
    }

    pub fn core_unattributed_us(&self) -> f64 {
        self.core_total_us - self.parts.iter().map(|p| p.1).sum::<f64>()
    }

    pub fn line(&self) -> String {
        let parts: Vec<String> = self
            .parts
            .iter()
            .map(|(name, us)| format!("{name}={us:.0}"))
            .collect();
        format!(
            "recon {} n={} root_us={:.0} covered_us={:.0} web_unattributed_us={:.0} ({:.1}% of root) \
             core_total[{}]={:.0} parts[{}] core_unattributed_us={:.0} ({:.1}% of core total: {})",
            self.kind.name(),
            self.requests,
            self.root_us,
            self.covered_us,
            self.web_unattributed_us(),
            100.0 * ratio(self.web_unattributed_us(), self.root_us),
            self.core_total,
            self.core_total_us,
            parts.join(" "),
            self.core_unattributed_us(),
            100.0 * ratio(self.core_unattributed_us(), self.core_total_us),
            self.core_remainder,
        )
    }
}

const RULE_PARTS: [Stage; 2] = [Stage::RuleCondition, Stage::RuleEffect];
const BATCH_PARTS: [Stage; 5] = [
    Stage::CacheLookup,
    Stage::BatchResolve,
    Stage::BatchScan,
    Stage::BatchMerge,
    Stage::BatchFinalize,
];
const QUERY_PARTS: [Stage; 5] = [
    Stage::CacheLookup,
    Stage::QueryResolve,
    Stage::QueryScan,
    Stage::QueryMerge,
    Stage::QueryFinalize,
];
/// Child spans of the write flow around direct engine calls.
const RYW_CALLS: [&str; 3] = [
    "ingest.try_submit",
    "ingest.flush",
    "core.pin_session_generation",
];

pub fn reconcile(name: Name, rec: &Recorder, attribution: &Attribution) -> Vec<Reconciliation> {
    let mut rows = Vec::new();
    for kind in Kind::ALL {
        let roots: Vec<f64> = rec
            .samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.service_us)
            .collect();
        if roots.is_empty() {
            continue;
        }
        let sum = |stage: Stage| attribution.get(kind, stage).1 as f64;
        let (core_total, core_total_us, parts): (&'static str, f64, &[Stage]) = match kind {
            Kind::Login => ("session_start", sum(Stage::SessionStart), &RULE_PARTS),
            Kind::Logout => ("session_end", sum(Stage::SessionEnd), &RULE_PARTS),
            Kind::Select => (
                "rule_condition+rule_effect",
                sum(Stage::RuleCondition) + sum(Stage::RuleEffect),
                &RULE_PARTS,
            ),
            Kind::Dashboard | Kind::Ryw => ("batch_total", sum(Stage::BatchTotal), &BATCH_PARTS),
            Kind::Pivot => ("query_total", sum(Stage::QueryTotal), &QUERY_PARTS),
        };
        // Analysts share the default class between pivots and dashboards,
        // so their cache lookups cannot be split by type.
        let shared_lookup = name == Name::AnalystPivots;
        let parts: Vec<(&'static str, f64)> = parts
            .iter()
            .filter(|stage| !(shared_lookup && **stage == Stage::CacheLookup))
            .map(|&stage| (stage.name(), sum(stage)))
            .collect();
        let calls: f64 = if kind == Kind::Ryw {
            RYW_CALLS.iter().map(|call| child_micros(rec, call)).sum()
        } else {
            0.0
        };
        let core_remainder = match kind {
            Kind::Login => "view build, report, session insert",
            Kind::Logout => "session removal",
            Kind::Select => "none: parts are the total",
            _ if shared_lookup => "admission, cache lookup and fill, result clone",
            _ => "admission, read-your-writes wait, cache fill, result clone",
        };
        rows.push(Reconciliation {
            kind,
            requests: roots.len(),
            root_us: roots.iter().sum(),
            covered_us: core_total_us + calls,
            core_total,
            core_total_us,
            parts,
            core_remainder,
        });
    }
    rows
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub name: Name,
    /// The traced window and its counters.
    pub traced: &'a Recorder,
    pub before: &'a Counters,
    pub after: &'a Counters,
    pub window_s: f64,
    /// The untraced window of the same run (same seed, rate and length).
    pub plain: &'a Recorder,
    pub plain_elapsed_s: f64,
    /// Host slowdown of the untraced and the traced window.
    pub slowdowns: (f64, f64),
    /// Times (µs) of logins below the interest threshold, taken after
    /// the traced window (web_sessions only).
    pub pre_threshold_logins: &'a [f64],
    pub setups: &'a [crate::workload::SetupSeconds],
    pub queue_depth_max: u64,
}

pub fn per_layer(input: &LayerInputs<'_>) -> (Metrics, Vec<Reconciliation>) {
    let (rec, b, a) = (input.traced, input.before, input.after);
    let stage = |stage: Stage| mean(a.stage_all(b, stage));
    let attribution = attribution(input.name, rec, b, a);
    let recon = reconcile(input.name, rec, &attribution);
    let root_of = |kind: Kind| {
        recon
            .iter()
            .find(|r| r.kind == kind)
            .map_or(0.0, |r| r.root_us)
    };
    let mut m = Metrics::default();

    m.push("prml.effect_mean_us", stage(Stage::RuleEffect), "us");
    m.push(
        "prml.effect_share_of_login",
        ratio(
            attribution.get(Kind::Login, Stage::RuleEffect).1 as f64,
            root_of(Kind::Login),
        ),
        "ratio",
    );
    // A login below the threshold runs the same rules except
    // `TrainAirportCity`'s effect; the median difference is its share.
    let post_threshold: Vec<f64> = rec
        .samples
        .iter()
        .filter(|s| s.kind == Kind::Login && s.ok)
        .map(|s| s.service_us)
        .collect();
    m.push(
        "prml.train_airport_city_share_of_login",
        if input.pre_threshold_logins.is_empty() {
            0.0
        } else {
            1.0 - ratio(median(input.pre_threshold_logins), median(&post_threshold))
        },
        "ratio",
    );
    m.push(
        "core.session_start_mean_us",
        stage(Stage::SessionStart),
        "us",
    );
    m.push("prml.condition_mean_us", stage(Stage::RuleCondition), "us");
    m.push(
        "prml.rules_matched_per_selection",
        ratio(rec.selection_rules as f64, rec.selections as f64),
        "count",
    );
    let hits = (a.cache_hits - b.cache_hits) as f64;
    let misses = (a.cache_misses - b.cache_misses) as f64;
    m.push(
        "core.result_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.push("core.cache_lookup_mean_us", stage(Stage::CacheLookup), "us");
    for (stage_id, name) in [
        (Stage::QueryResolve, "olap.query_resolve_mean_us"),
        (Stage::QueryScan, "olap.query_scan_mean_us"),
        (Stage::QueryMerge, "olap.query_merge_mean_us"),
        (Stage::QueryFinalize, "olap.query_finalize_mean_us"),
    ] {
        m.push(name, stage(stage_id), "us");
    }
    let query_scan = a.stage_all(b, Stage::QueryScan);
    let rows_per_pivot = ratio(rec.facts_scanned as f64, rec.scanned_pivots as f64);
    m.push(
        "olap.scan_ns_per_row",
        ratio(
            query_scan.1 as f64 * 1e3,
            query_scan.0 as f64 * rows_per_pivot,
        ),
        "ns",
    );
    m.push(
        "core.result_cache_evictions",
        (a.cache_evictions - b.cache_evictions) as f64,
        "count",
    );
    for (stage_id, name) in [
        (Stage::BatchResolve, "olap.batch_resolve_mean_us"),
        (Stage::BatchScan, "olap.batch_scan_mean_us"),
        (Stage::BatchMerge, "olap.batch_merge_mean_us"),
        (Stage::BatchFinalize, "olap.batch_finalize_mean_us"),
    ] {
        m.push(name, stage(stage_id), "us");
    }
    let answered = rec
        .samples
        .iter()
        .filter(|s| s.ok && matches!(s.kind, Kind::Dashboard | Kind::Pivot | Kind::Ryw))
        .count();
    m.push(
        "olap.facts_matched_per_request",
        ratio(rec.facts_matched as f64, answered as f64),
        "count",
    );
    m.push("olap.pool_wait_mean_us", stage(Stage::SchedulerWait), "us");
    let scans = query_scan.0 + a.stage_all(b, Stage::BatchScan).0;
    m.push(
        "olap.pool_items_per_query",
        ratio((a.pool_dispatched - b.pool_dispatched) as f64, scans as f64),
        "count",
    );
    m.push(
        "core.admission_shed",
        (a.pool_shed - b.pool_shed) as f64,
        "count",
    );
    let dict_hits = (a.dict_hits - b.dict_hits) as f64;
    let dict_misses = (a.dict_misses - b.dict_misses) as f64;
    m.push(
        "olap.dict_cache_hit_ratio",
        ratio(dict_hits, dict_hits + dict_misses),
        "ratio",
    );
    m.push(
        "core.result_cache_invalidations",
        (a.cache_invalidations - b.cache_invalidations) as f64,
        "count",
    );
    m.push(
        "ingest.epochs_per_s",
        ratio((a.ingest_epochs - b.ingest_epochs) as f64, input.window_s),
        "1/s",
    );
    m.push(
        "ingest.validate_mean_us",
        stage(Stage::IngestValidate),
        "us",
    );
    m.push("ingest.apply_mean_us", stage(Stage::IngestApply), "us");
    m.push("ingest.publish_mean_us", stage(Stage::IngestPublish), "us");
    let flushes = span_micros(rec, "ingest.flush");
    m.push("ingest.flush_mean_us", mean_of(&flushes), "us");
    m.push("ingest.flush_p99_us", quantile(&flushes, 0.99), "us");
    m.push(
        "core.pin_mean_us",
        mean_of(&span_micros(rec, "core.pin_session_generation")),
        "us",
    );
    let mut batch_total = (0u64, 0.0f64);
    for kind in [Kind::Dashboard, Kind::Ryw] {
        let total = attribution.get(kind, Stage::BatchTotal);
        let parts: u64 = BATCH_PARTS
            .iter()
            .map(|&s| attribution.get(kind, s).1)
            .sum();
        batch_total.0 += total.0;
        batch_total.1 += total.1 as f64 - parts as f64;
    }
    m.push(
        "core.wait_unattributed_mean_us",
        ratio(batch_total.1, batch_total.0 as f64),
        "us",
    );
    m.push(
        "ingest.submit_mean_us",
        mean_of(&span_micros(rec, "ingest.try_submit")),
        "us",
    );
    let submitted = (a.ingest_submitted - b.ingest_submitted) as f64;
    let rejected = (a.ingest_rejected - b.ingest_rejected) as f64;
    m.push(
        "ingest.backpressure_ratio",
        ratio(rejected, submitted + rejected),
        "ratio",
    );
    m.push(
        "ingest.queue_depth_max",
        input.queue_depth_max as f64,
        "count",
    );
    m.push(
        "ingest.live_rows_drift",
        ratio(
            a.sales_live_rows as f64 - b.sales_live_rows as f64,
            b.sales_live_rows as f64,
        ),
        "ratio",
    );
    let root: f64 = recon.iter().map(|r| r.root_us).sum();
    let uncovered: f64 = recon.iter().map(|r| r.web_unattributed_us()).sum();
    m.push("web.unattributed_ratio", ratio(uncovered, root), "ratio");
    let setup = |step: &str| {
        median(
            &input
                .setups
                .iter()
                .map(|t| t.step(step))
                .collect::<Vec<_>>(),
        )
    };
    m.push("setup.datagen_s", setup("setup.datagen"), "s");
    m.push("setup.engine_build_s", setup("setup.engine_build"), "s");
    m.push("prml.add_rules_ms", setup("setup.add_rules") * 1e3, "ms");
    m.push("setup.warmup_s", setup("setup.warmup"), "s");
    let plain = input.plain;
    m.push(
        "loadgen.lag_p50_ms",
        quantile(&plain.lags_us, 0.5) / 1e3,
        "ms",
    );
    m.push(
        "loadgen.lag_p99_ms",
        quantile(&plain.lags_us, 0.99) / 1e3,
        "ms",
    );
    m.push(
        "loadgen.offered_rps",
        ratio(plain.offered as f64, input.plain_elapsed_s),
        "1/s",
    );
    m.push(
        "loadgen.completed_rps",
        ratio(plain.samples.len() as f64, input.plain_elapsed_s),
        "1/s",
    );
    let mean_latency =
        |rec: &Recorder| mean_of(&rec.samples.iter().map(|s| s.latency_us).collect::<Vec<_>>());
    // Both windows at reference speed, so a host that sped up or slowed
    // down between them does not pass for tracing overhead.
    let (plain_slowdown, traced_slowdown) = input.slowdowns;
    m.push(
        "trace.overhead_ratio",
        ratio(
            mean_latency(rec) / traced_slowdown,
            mean_latency(plain) / plain_slowdown,
        ) - 1.0,
        "ratio",
    );
    for kind in [
        Kind::Login,
        Kind::Select,
        Kind::Dashboard,
        Kind::Pivot,
        Kind::Ryw,
    ] {
        let row = recon.iter().find(|r| r.kind == kind);
        m.push(
            format!("recon.{}_web_unattributed_ratio", kind.name()),
            row.map_or(0.0, |r| ratio(r.web_unattributed_us(), r.root_us)),
            "ratio",
        );
        m.push(
            format!("recon.{}_core_unattributed_ratio", kind.name()),
            row.map_or(0.0, |r| ratio(r.core_unattributed_us(), r.core_total_us)),
            "ratio",
        );
    }
    (m, recon)
}
