//! B15 — grouped aggregation: dense group ids + selection vectors vs the
//! string-key row-at-a-time baseline.
//!
//! The grouped morsel path resolves group keys to dense integer slots
//! (one dictionary walk per query, one `u32` index per row) and
//! accumulates through the grouped slice kernels; the serial reference
//! still builds a `String` key per row through a `CellValue` cache — the
//! exact code every grouped query ran before the dense-id rebuild, kept
//! as the baseline. Two sweeps:
//!
//! * **cardinality sweep** (100k fact rows, 10 → 100k groups): the dense
//!   flat path stays near-flat until the slot vectors outgrow the cache;
//!   the `dense-hashed` curve (the same scan with the flat path disabled)
//!   shows what the integer-keyed fallback costs above
//!   `group_slot_limit`;
//! * **worker sweep** (1k groups): morsel-parallel scaling of the dense
//!   path — flat on a 1-core runner, ~1/min(workers, cores) on real
//!   hardware.
//!
//! The acceptance pair (`acceptance-*`, 10k rows / 1k groups) is the
//! scale the PR gate compares: dense must beat the string-key baseline by
//! ≥ 3× even at one worker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdwp_bench::run_query;
use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};
use sdwp_olap::{
    AttributeRef, CellValue, Cube, ExecOptions, ExecutionConfig, InstanceView, Query, QueryEngine,
};
use std::hint::black_box;
use std::time::Duration;

/// Fact rows of the cardinality/worker sweeps.
const FACT_ROWS: usize = 100_000;
/// Group cardinalities swept (dictionary-distinct key values).
const CARDINALITIES: [usize; 4] = [10, 1_000, 10_000, 100_000];

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

/// A flat events cube: one `Key` dimension with `cardinality` members
/// (each a distinct text key), `rows` fact rows spread over the members,
/// one dyadic float measure.
fn grouped_cube(rows: usize, cardinality: usize) -> Cube {
    let schema = SchemaBuilder::new("GroupedDW")
        .dimension(
            DimensionBuilder::new("Key")
                .simple_level("Key", "name")
                .build(),
        )
        .fact(
            FactBuilder::new("Events")
                .measure("Value", AttributeType::Float)
                .measure_with(
                    "Score",
                    AttributeType::Float,
                    sdwp_model::AggregationFunction::Avg,
                )
                .dimension("Key")
                .build(),
        )
        .build()
        .expect("grouped schema is valid");
    let mut cube = Cube::new(schema);
    for member in 0..cardinality {
        cube.add_dimension_member(
            "Key",
            vec![("Key.name", CellValue::from(format!("K{member}")))],
        )
        .expect("member loads");
    }
    // A cheap deterministic spread; dyadic values keep sums exact.
    for row in 0..rows {
        let member = (row * 7 + row / 64) % cardinality;
        cube.add_fact_row(
            "Events",
            vec![("Key", member)],
            vec![
                ("Value", CellValue::Float((row % 97) as f64 * 0.25)),
                ("Score", CellValue::Float((row % 53) as f64 * 0.5)),
            ],
        )
        .expect("fact loads");
    }
    cube
}

fn groupby_query() -> Query {
    Query::over("Events")
        .group_by(AttributeRef::new("Key", "Key", "name"))
        .measure("Value")
        .measure("Score")
}

fn bench_grouped_aggregate(c: &mut Criterion) {
    println!(
        "available parallelism: {} core(s)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let query = groupby_query();
    let mut group = c.benchmark_group("B15_grouped_aggregate");
    group.throughput(Throughput::Elements(FACT_ROWS as u64));

    // Cardinality sweep: string-key baseline vs dense flat vs dense
    // hashed (flat path disabled), all single-worker so the comparison is
    // per-row cost, not parallelism.
    for cardinality in CARDINALITIES {
        let cube = grouped_cube(FACT_ROWS, cardinality);
        let serial = QueryEngine::with_config(ExecutionConfig::serial().with_cache_capacity(0));
        group.bench_with_input(
            BenchmarkId::new("string-key-serial", cardinality),
            &cardinality,
            |b, _| {
                b.iter(|| {
                    serial
                        .execute_serial_with_view(
                            &cube,
                            black_box(&query),
                            &InstanceView::unrestricted(),
                        )
                        .unwrap()
                })
            },
        );
        let dense = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                // Keep the flat path live across the whole sweep (the
                // dictionary reserves a null slot, hence the +1).
                .with_group_slot_limit(CARDINALITIES[3] + 1),
        );
        group.bench_with_input(
            BenchmarkId::new("dense-flat", cardinality),
            &cardinality,
            |b, _| {
                b.iter(|| {
                    run_query(&dense, &cube, black_box(&query), &ExecOptions::default()).unwrap()
                })
            },
        );
        let hashed = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_group_slot_limit(0),
        );
        group.bench_with_input(
            BenchmarkId::new("dense-hashed", cardinality),
            &cardinality,
            |b, _| {
                b.iter(|| {
                    run_query(&hashed, &cube, black_box(&query), &ExecOptions::default()).unwrap()
                })
            },
        );
    }

    // Worker sweep at 1k groups: morsel-parallel scaling of the dense
    // path.
    let cube = grouped_cube(FACT_ROWS, 1_000);
    for workers in [1usize, 2, 4, 8] {
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(workers)
                .with_cache_capacity(0),
        );
        group.bench_with_input(
            BenchmarkId::new("dense-workers", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    run_query(&engine, &cube, black_box(&query), &ExecOptions::default()).unwrap()
                })
            },
        );
    }
    group.finish();

    // The acceptance pair: 10k rows / 1k groups, dense (1 worker) must be
    // ≥ 3× the string-key baseline.
    let cube = grouped_cube(10_000, 1_000);
    let mut acceptance = c.benchmark_group("B15_acceptance_10k_rows_1k_groups");
    acceptance.throughput(Throughput::Elements(10_000));
    let serial = QueryEngine::with_config(ExecutionConfig::serial().with_cache_capacity(0));
    acceptance.bench_function("string-key-baseline", |b| {
        b.iter(|| {
            serial
                .execute_serial_with_view(&cube, black_box(&query), &InstanceView::unrestricted())
                .unwrap()
        })
    });
    let dense = QueryEngine::with_config(
        ExecutionConfig::default()
            .with_workers(1)
            .with_cache_capacity(0),
    );
    acceptance.bench_function("dense-grouped", |b| {
        b.iter(|| run_query(&dense, &cube, black_box(&query), &ExecOptions::default()).unwrap())
    });
    acceptance.finish();
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_grouped_aggregate
}
criterion_main!(benches);
