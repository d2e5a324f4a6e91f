//! Snapshot-consistency suite for the streaming-ingestion subsystem.
//!
//! The write path's contract: visibility advances only at epoch
//! boundaries, whole batches at a time. These tests pin the observable
//! consequences:
//!
//! * a concurrent reader can never observe a partially applied
//!   [`DeltaBatch`] — every snapshot it loads contains a whole number of
//!   batches;
//! * a query issued during active ingestion returns exactly what the
//!   serial reference executor returns against the snapshot it observed —
//!   morsel-parallel and row-at-a-time execution stay equivalent on a cube
//!   mid-ingest (appends, upserts and retractions included);
//! * routing an update stream through the bounded-channel pipeline ends in
//!   the same warehouse state as applying the same batches inline, for
//!   arbitrary ticker shapes and epoch policies (property-tested).

use proptest::prelude::*;
use sdwp::core::PersonalizationEngine;
use sdwp::datagen::{PaperScenario, RetailTicker, ScenarioConfig, TickerConfig};
use sdwp::ingest::{DeltaBatch, EpochPolicy, IngestConfig};
use sdwp::olap::{
    AttributeRef, CellValue, Cube, ExecOptions, ExecutionConfig, InstanceView, Query, QueryEngine,
    QueryResult,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// One query through [`QueryEngine::execute`], as a batch of one.
fn run(engine: &QueryEngine, cube: &Cube, query: &Query, view: &InstanceView) -> QueryResult {
    engine
        .execute(
            cube,
            std::slice::from_ref(query),
            &ExecOptions::with_view(view),
        )
        .remove(0)
        .expect("query runs")
}

fn queries() -> Vec<Query> {
    vec![
        Query::over("Sales").measure("UnitSales"),
        Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales")
            .measure("StoreSales"),
        Query::over("Sales")
            .group_by(AttributeRef::new("Product", "Category", "name"))
            .measure_agg("UnitSales", sdwp::model::AggregationFunction::Count)
            .measure_agg("StoreCost", sdwp::model::AggregationFunction::Avg),
    ]
}

/// Readers racing an append-only ingest stream must never see a snapshot
/// holding a fraction of a batch, and what they see must match the serial
/// reference on the exact snapshot they observed.
#[test]
fn concurrent_readers_never_observe_a_torn_batch() {
    const ROWS_PER_BATCH: usize = 7;
    const BATCHES: usize = 60;

    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let base_rows = scenario.retail.sales.len();
    let engine = Arc::new(PersonalizationEngine::new(scenario.cube.clone()));
    // Publish every ~2.5 batches so readers race plenty of generations.
    let ingest = engine.start_ingest(
        IngestConfig::default().with_epoch(
            EpochPolicy::default()
                .with_max_rows(ROWS_PER_BATCH * 5 / 2)
                .with_max_interval(std::time::Duration::from_millis(1)),
        ),
    );

    let count_query =
        Query::over("Sales").measure_agg("UnitSales", sdwp::model::AggregationFunction::Count);
    let sum_query = Query::over("Sales").measure("UnitSales");
    let parallel = QueryEngine::with_config(
        ExecutionConfig::default()
            .with_workers(4)
            .with_morsel_rows(64),
    );
    let serial = QueryEngine::with_config(ExecutionConfig::serial());
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            let count_query = count_query.clone();
            let sum_query = sum_query.clone();
            let parallel = parallel.clone();
            let serial = serial.clone();
            thread::spawn(move || {
                let view = InstanceView::unrestricted();
                let mut observed_generations = 0u64;
                while !done.load(Ordering::Relaxed) {
                    // Pin the exact snapshot a query would observe.
                    let (generation, cube) = engine.cube_versioned();
                    let counted = run(&parallel, &cube, &count_query, &view);
                    let summed = run(&parallel, &cube, &sum_query, &view);
                    let count = counted.rows[0].values[0].as_number().unwrap() as usize;
                    let sum = summed.rows[0].values[0].as_number().unwrap();
                    // Whole batches only: every batch appends exactly
                    // ROWS_PER_BATCH rows of UnitSales = 1.
                    let ingested = count - base_rows;
                    assert_eq!(
                        ingested % ROWS_PER_BATCH,
                        0,
                        "observed a torn batch at generation {generation}: \
                         {ingested} ingested rows is not a whole number of batches"
                    );
                    let base_sum = summed_base();
                    assert!(
                        (sum - (base_sum + ingested as f64)).abs() < 1e-6,
                        "snapshot sum inconsistent with whole-batch visibility"
                    );
                    // The parallel result equals the serial reference on
                    // the very snapshot it observed.
                    assert_eq!(
                        counted,
                        serial
                            .execute_serial_with_view(&cube, &count_query, &view)
                            .unwrap()
                    );
                    assert_eq!(
                        summed,
                        serial
                            .execute_serial_with_view(&cube, &sum_query, &view)
                            .unwrap()
                    );
                    observed_generations = observed_generations.max(generation);
                }
                observed_generations
            })
        })
        .collect();

    // The base scenario's total is needed inside the readers; recompute it
    // once here (deterministic seed).
    fn summed_base() -> f64 {
        thread_local! {
            static BASE: f64 = PaperScenario::generate(ScenarioConfig::tiny())
                .retail
                .total_unit_sales();
        }
        BASE.with(|b| *b)
    }

    for _ in 0..BATCHES {
        let mut batch = DeltaBatch::new();
        for _ in 0..ROWS_PER_BATCH {
            batch = batch.append(
                "Sales",
                vec![
                    ("Store", 0usize),
                    ("Customer", 0usize),
                    ("Product", 0usize),
                    ("Time", 0usize),
                ],
                vec![("UnitSales", CellValue::Float(1.0))],
            );
        }
        ingest.submit(batch).expect("pipeline accepts the batch");
    }
    ingest.flush().expect("stream drains");
    done.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader never observed a torn batch");
    }

    // Everything arrived.
    let final_count = engine.cube().total_live_fact_rows();
    assert_eq!(final_count, base_rows + ROWS_PER_BATCH * BATCHES);
    let stats = engine.ingest_stats().unwrap();
    assert_eq!(stats.rows_appended as usize, ROWS_PER_BATCH * BATCHES);
    assert!(stats.epochs_published >= 1);
}

/// Serial vs morsel-parallel comparison on arbitrary (non-dyadic) floats:
/// group keys, scan counters and row sets must match exactly; summed
/// float values to 1e-9 relative — serial row-at-a-time and morsel-merged
/// addition associate differently, so the last ulp may differ (the
/// parallel executor's bit-exactness contract is *worker-count*
/// invariance at a fixed morsel size, asserted separately below).
fn assert_equivalent(a: &sdwp::olap::QueryResult, b: &sdwp::olap::QueryResult) {
    assert_eq!(a.key_names, b.key_names);
    assert_eq!(a.value_names, b.value_names);
    assert_eq!(a.facts_scanned, b.facts_scanned);
    assert_eq!(a.facts_matched, b.facts_matched);
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
        assert_eq!(ra.keys, rb.keys);
        assert_eq!(ra.values.len(), rb.values.len());
        for (va, vb) in ra.values.iter().zip(rb.values.iter()) {
            match (va.as_number(), vb.as_number()) {
                (Some(na), Some(nb)) => {
                    let scale = na.abs().max(nb.abs()).max(1.0);
                    assert!(
                        (na - nb).abs() <= 1e-9 * scale,
                        "float divergence beyond rounding: {na} vs {nb}"
                    );
                }
                _ => assert_eq!(va, vb),
            }
        }
    }
}

/// Serial and morsel-parallel execution stay equivalent on snapshots taken
/// mid-ingest of a full mixed workload (appends + corrections +
/// retractions), including through a personalized view.
#[test]
fn serial_and_parallel_agree_on_snapshots_mid_ingest() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let engine = Arc::new(PersonalizationEngine::new(scenario.cube.clone()));
    let ingest = engine.start_ingest(
        IngestConfig::default().with_epoch(
            EpochPolicy::default()
                .with_max_rows(16)
                .with_max_interval(std::time::Duration::from_millis(1)),
        ),
    );

    let mut view = InstanceView::unrestricted();
    // Restrict to half the stores: ingested rows referencing hidden stores
    // must stay hidden.
    view.select_dimension_members("Store", 0..scenario.retail.stores.len() / 2);
    let views = [InstanceView::unrestricted(), view];
    let parallel = QueryEngine::with_config(
        ExecutionConfig::default()
            .with_workers(8)
            .with_morsel_rows(32),
    );
    let one_worker = QueryEngine::with_config(
        ExecutionConfig::default()
            .with_workers(1)
            .with_morsel_rows(32),
    );
    let serial = QueryEngine::with_config(ExecutionConfig::serial());

    let mut ticker = RetailTicker::new(
        &scenario,
        TickerConfig::default()
            .with_appends(6)
            .with_corrections(2)
            .with_retractions(2),
    );
    for round in 0..40 {
        ingest.submit(ticker.next_batch()).unwrap();
        if round % 5 == 0 {
            let (_, cube) = engine.cube_versioned();
            for query in &queries() {
                for view in &views {
                    let result = run(&parallel, &cube, query, view);
                    // Worker-count invariance is bit-exact at a fixed
                    // morsel size, mid-ingest included.
                    assert_eq!(
                        result,
                        run(&one_worker, &cube, query, view),
                        "worker-count divergence at round {round}"
                    );
                    assert_equivalent(
                        &result,
                        &serial.execute_serial_with_view(&cube, query, view).unwrap(),
                    );
                }
            }
        }
    }
    ingest.flush().unwrap();
    let (_, cube) = engine.cube_versioned();
    for query in &queries() {
        assert_equivalent(
            &run(&parallel, &cube, query, &views[1]),
            &serial
                .execute_serial_with_view(&cube, query, &views[1])
                .unwrap(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Routing an arbitrary update stream through the bounded-channel
    /// pipeline (arbitrary epoch policy, so publication points vary) ends
    /// in exactly the warehouse state of applying the same batches inline.
    #[test]
    fn pipeline_matches_inline_application(
        seed in 0u64..1_000,
        appends in 1usize..8,
        corrections in 0usize..4,
        retractions in 0usize..3,
        batches in 1usize..20,
        epoch_rows in 1usize..64,
    ) {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let config = TickerConfig::default()
            .with_seed(seed)
            .with_appends(appends)
            .with_corrections(corrections)
            .with_retractions(retractions);

        // Inline reference: apply every batch directly.
        let mut reference = scenario.cube.clone();
        for batch in RetailTicker::new(&scenario, config).take(batches) {
            batch.validate(&reference).expect("ticker batches validate");
            batch.apply(&mut reference);
        }

        // Pipeline path: same batches through the ingest worker.
        let engine = PersonalizationEngine::new(scenario.cube.clone());
        let ingest = engine.start_ingest(IngestConfig::default().with_epoch(
            EpochPolicy::default().with_max_rows(epoch_rows),
        ));
        for batch in RetailTicker::new(&scenario, config).take(batches) {
            ingest.submit(batch).expect("pipeline accepts the batch");
        }
        ingest.flush().expect("stream drains");

        let snapshot = engine.cube();
        prop_assert_eq!(snapshot.total_fact_rows(), reference.total_fact_rows());
        prop_assert_eq!(snapshot.total_live_fact_rows(), reference.total_live_fact_rows());
        let executor = QueryEngine::new();
        let view = InstanceView::unrestricted();
        for query in &queries() {
            prop_assert_eq!(
                run(&executor, &snapshot, query, &view),
                run(&executor, &reference, query, &view),
            );
        }
        // No batch was rejected or failed along the way.
        let stats = engine.ingest_stats().unwrap();
        prop_assert_eq!(stats.batches_failed, 0);
        prop_assert_eq!(stats.batches_applied, batches as u64);
    }
}
