//! Tracing: the benchmark's own spans (root spans around every request,
//! child spans around the calls it makes itself), and deltas of the
//! engine's public counters and stage histograms around a window.
//!
//! Stage figures use the registry's exact `sum_micros / count`, not its
//! log2-bucket quantiles.

use crate::load::Kind;
use sdwp::core::PersonalizationEngine;
use sdwp::obs::{ClassId, MetricsRegistry, Stage, MAX_CLASSES};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One span: a request's root (`parent == 0`) or a call inside it.
/// Times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Writes spans as JSON lines, oldest first.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut spans: Vec<&Span> = spans.iter().collect();
    spans.sort_by_key(|span| (span.start_ns, span.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.id, span.parent, span.request, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

/// `(count, sum µs)` of one stage histogram.
pub type StageSum = (u64, u64);

/// Engine stage sums attributed to the request kind that caused them.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    pub sums: BTreeMap<(Kind, &'static str), StageSum>,
}

impl Attribution {
    pub fn add(&mut self, kind: Kind, stage: &'static str, sum: StageSum) {
        let slot = self.sums.entry((kind, stage)).or_default();
        slot.0 += sum.0;
        slot.1 += sum.1;
    }

    pub fn get(&self, kind: Kind, stage: Stage) -> StageSum {
        self.sums
            .get(&(kind, stage.name()))
            .copied()
            .unwrap_or_default()
    }

    pub fn absorb(&mut self, other: &Attribution) {
        for (&(kind, stage), &sum) in &other.sums {
            self.add(kind, stage, sum);
        }
    }

    /// Adds the difference of two probes of one class to `kind`.
    pub fn add_delta(&mut self, kind: Kind, before: &[StageSum], after: &[StageSum]) {
        for ((stage, b), a) in Stage::ALL.iter().zip(before).zip(after) {
            let delta = (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1));
            if delta.0 > 0 {
                self.add(kind, stage.name(), delta);
            }
        }
    }
}

/// Every stage's `(count, sum)` for one class, in `Stage::ALL` order.
pub fn probe(metrics: &MetricsRegistry, class: ClassId) -> Vec<StageSum> {
    Stage::ALL
        .iter()
        .map(|&stage| {
            let hist = metrics.stage_histogram(stage, class);
            (hist.count, hist.sum_micros)
        })
        .collect()
}

/// The engine's public counters at one instant.
#[derive(Debug, Clone)]
pub struct Counters {
    /// `[stage][class]` histogram sums, `Stage::ALL` order.
    pub stages: Vec<Vec<StageSum>>,
    pub class_names: Vec<String>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_invalidations: u64,
    pub dict_hits: u64,
    pub dict_misses: u64,
    pub pool_dispatched: u64,
    pub pool_shed: u64,
    pub ingest_submitted: u64,
    pub ingest_rejected: u64,
    pub ingest_applied: u64,
    pub ingest_failed: u64,
    pub ingest_epochs: u64,
    pub ingest_queue_depth: u64,
    pub sales_live_rows: u64,
}

impl Counters {
    /// Reads every public counter of the engine.
    pub fn read(engine: &PersonalizationEngine) -> Self {
        let metrics = engine.metrics();
        let stages = Stage::ALL
            .iter()
            .map(|&stage| {
                (0..MAX_CLASSES)
                    .map(|class| {
                        let hist = metrics.stage_histogram(stage, ClassId(class as u8));
                        (hist.count, hist.sum_micros)
                    })
                    .collect()
            })
            .collect();
        let cache = engine.cache_stats();
        let dict = engine.dict_cache_stats();
        let (pool_dispatched, pool_shed) = engine.morsel_pool().map_or((0, 0), |pool| {
            let stats = pool.stats();
            stats.tenants.iter().fold((0, 0), |(d, s), tenant| {
                (d + tenant.dispatched_total, s + tenant.shed_total)
            })
        });
        let ingest = engine.ingest_stats().unwrap_or_default();
        let sales_live_rows = engine
            .cube()
            .fact_table_stats()
            .into_iter()
            .find(|stats| stats.fact == "Sales")
            .map_or(0, |stats| stats.live_rows as u64);
        Counters {
            stages,
            class_names: metrics.class_names(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_invalidations: cache.invalidations,
            dict_hits: dict.hits,
            dict_misses: dict.misses,
            pool_dispatched,
            pool_shed,
            ingest_submitted: ingest.batches_submitted,
            ingest_rejected: ingest.batches_rejected,
            ingest_applied: ingest.batches_applied,
            ingest_failed: ingest.batches_failed,
            ingest_epochs: ingest.epochs_published,
            ingest_queue_depth: ingest.queue_depth,
            sales_live_rows,
        }
    }

    /// One stage's sum over the classes `keep` accepts, minus the same
    /// sum in `before`.
    pub fn stage_delta(
        &self,
        before: &Counters,
        stage: Stage,
        keep: impl Fn(&str) -> bool,
    ) -> StageSum {
        let index = Stage::ALL
            .iter()
            .position(|&s| s == stage)
            .expect("stage is listed in Stage::ALL");
        let mut total = (0, 0);
        for (class, name) in self.class_names.iter().enumerate() {
            if !keep(name) {
                continue;
            }
            let (a, b) = (self.stages[index][class], before.stages[index][class]);
            total.0 += a.0.saturating_sub(b.0);
            total.1 += a.1.saturating_sub(b.1);
        }
        total
    }

    /// A stage's delta over every class.
    pub fn stage_all(&self, before: &Counters, stage: Stage) -> StageSum {
        self.stage_delta(before, stage, |_| true)
    }
}

/// `sum / count` as a mean, 0 when nothing was recorded.
pub fn mean(sum: StageSum) -> f64 {
    if sum.0 == 0 {
        0.0
    } else {
        sum.1 as f64 / sum.0 as f64
    }
}
