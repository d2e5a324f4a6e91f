//! B19 — tenant interference: a latency-bound dashboard tenant sharing
//! the morsel worker pool with a saturating analyst tenant, across three
//! regimes — solo (no co-tenant), contended with no policy (equal
//! shares, unlimited admission), and contended under the full tenant
//! policy: the dashboard weighted 8:1 and the analyst class budgeted to
//! one guaranteed in-flight query with a single queued helper, so
//! excess analyst callers park in admission instead of competing for
//! cores.
//!
//! Acceptance: under the governed regime the dashboard's p99 with a
//! saturating co-tenant stays within ~2× of its solo p99 (the open
//! regime lets every analyst call and its helpers race the dashboard,
//! which is exactly the starvation the weights and budgets prevent).
//! On hosts with a single hardware thread the tail is bounded by OS
//! preemption instead — the admitted analyst's *caller* scans on its
//! own thread, which the engine-level scheduler cannot deschedule — so
//! there the ~2× target applies to the mean and the governed/open gap
//! carries the story. A fourth group times the pooled roll-up solo and
//! unobserved, the baseline the observed solo regime is read against.
//!
//! Criterion reports the mean; the `B19 summary` lines printed per
//! regime carry the p50/p99 of the explicit sample loop that
//! EXPERIMENTS.md quotes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sdwp_bench::run_query;
use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};
use sdwp_obs::MetricsRegistry;
use sdwp_olap::{
    AttributeRef, CellValue, Cube, ExecOptions, ExecutionConfig, MorselPool, PoolConfig, Query,
    QueryEngine, QueryObs, StageFamily, TenantPolicy,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fact rows in the benchmark cube (matches the B12 floor).
const FACT_ROWS: usize = 100_000;
const STORES: usize = 64;
const CITIES: usize = 8;
/// Saturating analyst threads in the contended regimes.
const ANALYST_THREADS: usize = 2;
/// Explicit dashboard latency samples per regime for the p50/p99 lines.
const SAMPLES: usize = 300;

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

/// The dashboard tenant's latency-bound panel: a city roll-up.
fn dashboard_query() -> Query {
    Query::over("Sales")
        .group_by(AttributeRef::new("Store", "City", "name"))
        .measure("UnitSales")
}

/// The analyst tenant's saturating workload: a store-level group-by
/// with every measure plus a COUNT DISTINCT — many more groups and far
/// wider accumulation than a panel, resubmitted in a tight loop so the
/// analyst class always has work in flight.
fn analyst_query() -> Query {
    Query::over("Sales")
        .group_by(AttributeRef::new("Store", "Store", "name"))
        .measure("UnitSales")
        .measure("StoreCost")
        .measure_agg("UnitSales", sdwp_model::AggregationFunction::CountDistinct)
}

fn percentile(sorted_micros: &[u64], q: f64) -> u64 {
    if sorted_micros.is_empty() {
        return 0;
    }
    let rank = ((sorted_micros.len() as f64 - 1.0) * q).round() as usize;
    sorted_micros[rank.min(sorted_micros.len() - 1)]
}

/// Runs `SAMPLES` dashboard queries, returning sorted per-query
/// latencies in microseconds.
fn sample_dashboard(engine: &QueryEngine, cube: &Cube, options: &ExecOptions<'_>) -> Vec<u64> {
    let query = dashboard_query();
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let result = run_query(engine, cube, &query, options).expect("dashboard panel executes");
        samples.push(start.elapsed().as_micros() as u64);
        black_box(result);
    }
    samples.sort_unstable();
    samples
}

fn bench_tenant_interference(c: &mut Criterion) {
    let cube = Arc::new(scaling_cube());
    let registry = Arc::new(MetricsRegistry::new());
    let dashboard_class = registry.register_class("dashboard");
    let analyst_class = registry.register_class("analyst");
    let config = ExecutionConfig::default()
        .with_workers(4)
        .with_cache_capacity(0);

    // -- the interference matrix ----------------------------------------
    let mut group = c.benchmark_group("B19_tenant_interference/dashboard");
    group.throughput(Throughput::Elements(FACT_ROWS as u64));
    let mut solo_p99 = 0u64;
    for (label, analysts, governed) in [
        ("solo", 0usize, false),
        ("contended-open", ANALYST_THREADS, false),
        ("contended-governed", ANALYST_THREADS, true),
    ] {
        let pool = Arc::new(MorselPool::with_registry(
            PoolConfig::default().with_workers(3),
            Arc::clone(&registry),
        ));
        if governed {
            // The full policy toolkit: the dashboard outweighs the
            // analyst 8:1 in the worker scheduler, and the analyst class
            // is budgeted to one guaranteed in-flight query with at most
            // one queued helper item — its other callers park in
            // admission until the slot frees.
            pool.set_policy(dashboard_class, TenantPolicy::default().with_weight(8));
            pool.set_policy(
                analyst_class,
                TenantPolicy::default()
                    .with_max_in_flight(1)
                    .with_max_queued(1),
            );
        } else {
            pool.set_policy(dashboard_class, TenantPolicy::default());
            pool.set_policy(analyst_class, TenantPolicy::default());
        }
        let engine = Arc::new(QueryEngine::with_pool(config, Arc::clone(&pool)));

        // Saturating co-tenant: analyst threads loop their heavy query
        // through the same pool until told to stop. Each call takes its
        // admission slot first, exactly as the serving layer's gate does
        // — in the governed regime that parks every analyst but one.
        let stop = Arc::new(AtomicBool::new(false));
        let analysts: Vec<_> = (0..analysts)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let cube = Arc::clone(&cube);
                let pool = Arc::clone(&pool);
                let stop = Arc::clone(&stop);
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    let query = analyst_query();
                    let options = ExecOptions {
                        obs: Some(QueryObs {
                            registry: &registry,
                            class: analyst_class,
                            generation: 1,
                            family: StageFamily::Query,
                        }),
                        ..ExecOptions::default()
                    };
                    while !stop.load(Ordering::Relaxed) {
                        let _slot = pool
                            .try_admit(analyst_class)
                            .expect("guaranteed tenants are never shed");
                        black_box(
                            run_query(&engine, &cube, &query, &options)
                                .expect("analyst query executes"),
                        );
                    }
                })
            })
            .collect();

        let options = ExecOptions {
            obs: Some(QueryObs {
                registry: &registry,
                class: dashboard_class,
                generation: 1,
                family: StageFamily::Query,
            }),
            ..ExecOptions::default()
        };
        let samples = sample_dashboard(&engine, &cube, &options);
        let (p50, p90, p95, p99) = (
            percentile(&samples, 0.5),
            percentile(&samples, 0.9),
            percentile(&samples, 0.95),
            percentile(&samples, 0.99),
        );
        if label == "solo" {
            solo_p99 = p99;
        }
        let vs_solo = if solo_p99 > 0 {
            p99 as f64 / solo_p99 as f64
        } else {
            1.0
        };
        eprintln!(
            "B19 summary {label}: dashboard p50={p50}µs p90={p90}µs p95={p95}µs \
             p99={p99}µs ({vs_solo:.2}x solo p99)"
        );

        group.bench_function(label, |b| {
            let query = dashboard_query();
            b.iter(|| {
                run_query(&engine, &cube, black_box(&query), &options)
                    .expect("dashboard panel executes")
            })
        });

        stop.store(true, Ordering::Relaxed);
        for analyst in analysts {
            analyst.join().expect("analyst thread exits");
        }
    }
    group.finish();

    // -- the pooled roll-up, solo and unobserved --------------------------
    let mut group = c.benchmark_group("B19_tenant_interference/executor");
    group.throughput(Throughput::Elements(FACT_ROWS as u64));
    let query = dashboard_query();
    let pool = Arc::new(MorselPool::new(PoolConfig::default().with_workers(3)));
    let pooled = QueryEngine::with_pool(config, Arc::clone(&pool));
    let options = ExecOptions::default();
    group.bench_function("worker-pool", |b| {
        b.iter(|| {
            run_query(&pooled, &cube, black_box(&query), &options).expect("pooled roll-up executes")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_tenant_interference
}
criterion_main!(benches);
