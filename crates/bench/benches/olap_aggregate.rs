//! B8 — OLAP aggregation ablation: the same roll-up executed (a) with no
//! restriction, (b) through an attribute slice, (c) through a spatial
//! dimension filter and (d) through a personalized instance view, to show
//! where the pre-computed selection pays off — all through the
//! morsel-parallel executor, with the serial reference alongside for the
//! executor's own ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use sdwp_bench::{default_scenario, run_query};
use sdwp_geometry::Point;
use sdwp_olap::{
    AttributeRef, ExecOptions, ExecutionConfig, Filter, InstanceView, Query, QueryEngine,
};
use std::hint::black_box;
use std::time::Duration;

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
}

fn bench_olap_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("B8_olap_aggregation_ablation");
    let scenario = default_scenario();
    let cube = &scenario.cube;
    let engine = QueryEngine::new();
    let base_query = Query::over("Sales")
        .group_by(AttributeRef::new("Store", "City", "name"))
        .measure("UnitSales")
        .measure("StoreSales");

    group.bench_function("unrestricted", |b| {
        b.iter(|| {
            run_query(
                &engine,
                cube,
                black_box(&base_query),
                &ExecOptions::default(),
            )
            .unwrap()
        })
    });

    // The classic row-at-a-time loop, as the executor baseline.
    let serial = QueryEngine::with_config(ExecutionConfig::serial());
    group.bench_function("unrestricted-serial-reference", |b| {
        b.iter(|| {
            serial
                .execute_serial_with_view(
                    cube,
                    black_box(&base_query),
                    &InstanceView::unrestricted(),
                )
                .unwrap()
        })
    });

    let sliced = base_query
        .clone()
        .filter_dimension("Store", Filter::eq("State.name", "North-West"));
    group.bench_function("attribute-slice", |b| {
        b.iter(|| run_query(&engine, cube, black_box(&sliced), &ExecOptions::default()).unwrap())
    });

    let store0 = scenario.retail.stores[0].location;
    let spatial = base_query.clone().filter_dimension(
        "Store",
        Filter::within_km(
            "Store.geometry",
            Point::new(store0.x(), store0.y()).into(),
            25.0,
        ),
    );
    group.bench_function("spatial-filter-25km", |b| {
        b.iter(|| run_query(&engine, cube, black_box(&spatial), &ExecOptions::default()).unwrap())
    });

    // A personalized view pre-computed once (what SelectInstance produces).
    let selected: Vec<usize> = scenario
        .retail
        .stores
        .iter()
        .enumerate()
        .filter(|(_, s)| s.location.distance(&store0) < 25.0)
        .map(|(i, _)| i)
        .collect();
    let mut view = InstanceView::unrestricted();
    view.select_dimension_members("Store", selected);
    group.bench_function("personalized-view-25km", |b| {
        let options = ExecOptions::with_view(&view);
        b.iter(|| run_query(&engine, cube, black_box(&base_query), &options).unwrap())
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_olap_aggregate
}
criterion_main!(benches);
