//! B12 — morsel-parallel group-by scaling: the same roll-up over a
//! ≥100 000-row fact table executed by the serial reference and by the
//! morsel pipeline at 1, 2, 4 and 8 workers. On an N-core machine the
//! parallel curve should drop towards 1/min(workers, N) of the
//! single-worker time; on a single-core CI runner flatness (no regression
//! from the morsel split) is the signal.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdwp_bench::run_query;
use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};
use sdwp_olap::{
    AttributeRef, CellValue, Cube, ExecOptions, ExecutionConfig, InstanceView, Query, QueryEngine,
};
use std::hint::black_box;
use std::time::Duration;

/// Fact rows in the benchmark cube (the acceptance floor is 100k).
const FACT_ROWS: usize = 100_000;
const STORES: usize = 64;
const CITIES: usize = 8;

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

/// A flat sales cube sized for throughput measurement: 64 stores across
/// 8 cities, one fact row per synthetic sale.
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
    // A cheap deterministic value stream; exact dyadic values keep sums
    // reproducible across runs.
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

fn bench_parallel_scaling(c: &mut Criterion) {
    println!(
        "available parallelism: {} core(s)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let cube = scaling_cube();
    let query = Query::over("Sales")
        .group_by(AttributeRef::new("Store", "City", "name"))
        .measure("UnitSales")
        .measure("StoreCost");

    let mut group = c.benchmark_group("B12_parallel_groupby_scaling");
    group.throughput(Throughput::Elements(FACT_ROWS as u64));

    let serial = QueryEngine::with_config(ExecutionConfig::serial().with_cache_capacity(0));
    group.bench_function("serial-reference", |b| {
        b.iter(|| {
            serial
                .execute_serial_with_view(&cube, black_box(&query), &InstanceView::unrestricted())
                .unwrap()
        })
    });

    for workers in [1usize, 2, 4, 8] {
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(workers)
                .with_cache_capacity(0),
        );
        group.bench_with_input(
            BenchmarkId::new("morsel-workers", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    run_query(&engine, &cube, black_box(&query), &ExecOptions::default()).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_parallel_scaling
}
criterion_main!(benches);
