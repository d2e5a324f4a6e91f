//! B18 — observability overhead: the B12 standalone roll-up and a
//! B16-style shared-scan batch executed three ways — no observability
//! handle at all, a *disabled* registry (the production default when
//! metrics are off: one branch, no clock reads), and an *enabled*
//! registry recording every stage into its latency histograms.
//!
//! Acceptance: the enabled-registry run must stay within 5% of the
//! no-obs baseline on both hot paths, and the disabled-registry run
//! must be indistinguishable from it (~0 cost). A raw-recording group
//! measures the primitive itself: one `record_micros` call is two
//! relaxed `fetch_add`s, a few nanoseconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdwp_bench::run_query;
use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};
use sdwp_obs::{ClassId, MetricsRegistry, Stage};
use sdwp_olap::{
    AttributeRef, CellValue, Cube, ExecOptions, ExecutionConfig, Query, QueryEngine, QueryObs,
    StageFamily,
};
use std::hint::black_box;
use std::time::Duration;

/// Fact rows in the benchmark cube (matches the B12 floor).
const FACT_ROWS: usize = 100_000;
const STORES: usize = 64;
const CITIES: usize = 8;
/// Panels in the batched variant.
const BATCH_PANELS: usize = 8;

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

/// The B12 scaling cube: 64 stores across 8 cities, 100k sales rows.
fn scaling_cube() -> Cube {
    let schema = SchemaBuilder::new("ScalingDW")
        .dimension(
            DimensionBuilder::new("Store")
                .simple_level("Store", "name")
                .simple_level("City", "name")
                .build(),
        )
        .fact(
            FactBuilder::new("Sales")
                .measure("UnitSales", AttributeType::Float)
                .measure_with(
                    "StoreCost",
                    AttributeType::Float,
                    sdwp_model::AggregationFunction::Avg,
                )
                .dimension("Store")
                .build(),
        )
        .build()
        .expect("scaling schema is valid");
    let mut cube = Cube::new(schema);
    for store in 0..STORES {
        cube.add_dimension_member(
            "Store",
            vec![
                ("Store.name", CellValue::from(format!("S{store}"))),
                ("City.name", CellValue::from(format!("C{}", store % CITIES))),
            ],
        )
        .expect("member loads");
    }
    for row in 0..FACT_ROWS {
        let store = (row * 7 + row / STORES) % STORES;
        cube.add_fact_row(
            "Sales",
            vec![("Store", store)],
            vec![
                ("UnitSales", CellValue::Float((row % 97) as f64 * 0.25)),
                ("StoreCost", CellValue::Float((row % 53) as f64 * 0.5)),
            ],
        )
        .expect("fact loads");
    }
    cube
}

/// An 8-panel dashboard over the scaling cube: alternating group-bys
/// and measures so the batch exercises dictionary sharing and per-panel
/// finalize like B16 does.
fn dashboard(panels: usize) -> Vec<Query> {
    (0..panels)
        .map(|panel| {
            let level = if panel % 2 == 0 { "City" } else { "Store" };
            let measure = if panel % 3 == 0 {
                "StoreCost"
            } else {
                "UnitSales"
            };
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", level, "name"))
                .measure(measure)
        })
        .collect()
}

/// The three observability variants each hot path is measured under.
fn variants() -> [(&'static str, Option<MetricsRegistry>); 3] {
    [
        ("no-obs", None),
        ("disabled-registry", Some(MetricsRegistry::disabled())),
        ("enabled-registry", Some(MetricsRegistry::new())),
    ]
}

fn bench_metrics_overhead(c: &mut Criterion) {
    let cube = scaling_cube();
    let engine = QueryEngine::with_config(ExecutionConfig::default().with_cache_capacity(0));
    let query = Query::over("Sales")
        .group_by(AttributeRef::new("Store", "City", "name"))
        .measure("UnitSales")
        .measure("StoreCost");
    let batch = dashboard(BATCH_PANELS);

    // -- B12 standalone roll-up under each variant ----------------------
    let mut group = c.benchmark_group("B18_metrics_overhead/standalone");
    group.throughput(Throughput::Elements(FACT_ROWS as u64));
    for (label, registry) in variants() {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let options = ExecOptions {
                obs: registry.as_ref().map(|registry| QueryObs {
                    registry,
                    class: ClassId::DEFAULT,
                    generation: 1,
                    family: StageFamily::Query,
                }),
                ..ExecOptions::default()
            };
            b.iter(|| {
                run_query(&engine, &cube, black_box(&query), &options).expect("roll-up executes")
            })
        });
    }
    group.finish();

    // -- B16-style shared-scan batch under each variant -----------------
    let mut group = c.benchmark_group("B18_metrics_overhead/batch");
    group.throughput(Throughput::Elements(FACT_ROWS as u64));
    for (label, registry) in variants() {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let options = ExecOptions {
                obs: registry.as_ref().map(|registry| QueryObs {
                    registry,
                    class: ClassId::DEFAULT,
                    generation: 1,
                    family: StageFamily::Batch,
                }),
                ..ExecOptions::default()
            };
            b.iter(|| {
                for result in engine.execute(&cube, black_box(&batch), &options) {
                    black_box(result.expect("panel executes"));
                }
            })
        });
    }
    group.finish();

    // -- the recording primitive itself ---------------------------------
    let mut group = c.benchmark_group("B18_metrics_overhead/record");
    let enabled = MetricsRegistry::new();
    let disabled = MetricsRegistry::disabled();
    group.bench_function("record_micros/enabled", |b| {
        b.iter(|| enabled.record_micros(Stage::QueryScan, ClassId::DEFAULT, black_box(1234)))
    });
    group.bench_function("record_micros/disabled", |b| {
        b.iter(|| disabled.record_micros(Stage::QueryScan, ClassId::DEFAULT, black_box(1234)))
    });
    group.bench_function("span/enabled", |b| {
        b.iter(|| enabled.span(Stage::QueryScan, ClassId::DEFAULT).finish())
    });
    group.bench_function("span/disabled", |b| {
        b.iter(|| disabled.span(Stage::QueryScan, ClassId::DEFAULT).finish())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_metrics_overhead
}
criterion_main!(benches);
