//! Chaos suite: armed failpoints × concurrent sessions.
//!
//! The contract under injected faults is all-or-nothing per query:
//! every concurrent caller either gets a result **bit-identical to the
//! serial reference** (survivors are never silently degraded) or a
//! *typed* lifecycle refusal — the injected error's message, the
//! contained [`CoreError::ExecutionPanicked`], or
//! [`CoreError::DeadlineExceeded`] — and after the chaos is disarmed
//! the engine serves exactly as before: no invariant drift in the pool
//! gauges, the result cache, or the warehouse itself. The ingest side
//! gets the same treatment: a supervised worker that panics mid-stream
//! restarts with consistent stats, and the warehouse ends at exactly
//! the rows of the batches that survived.
//!
//! The failpoint registry and the chaos seed are process-global, so
//! every test serialises on [`serial`] and disarms through a drop
//! guard — a failed assertion cannot leak an armed point into the next
//! test. Each round is seeded ([`fault::set_seed`]), so a failure here
//! reproduces exactly under the same seed.
//!
//! The whole file only exists under `--features failpoints`; the
//! default build compiles none of it (and none of the hooks it arms).

#![cfg(feature = "failpoints")]

use sdwp::core::{CoreError, PersonalizationEngine};
use sdwp::datagen::{PaperScenario, RetailTicker, ScenarioConfig, TickerConfig};
use sdwp::ingest::{EpochPolicy, IngestConfig};
use sdwp::model::AggregationFunction;
use sdwp::olap::fault::{self, FailAction};
use sdwp::olap::{
    AttributeRef, ExecOptions, ExecutionConfig, InstanceView, OlapError, Query, QueryEngine,
    QueryResult,
};
use sdwp::user::LocationContext;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

const THREADS: usize = 4;
const ROUNDS: usize = 8;
/// Chaos seeds swept per matrix cell: each shifts the firing phase of
/// every armed point, so the same cell explores different
/// interleavings while staying reproducible run to run.
const SEEDS: [u64; 3] = [1, 7, 13];

/// The failpoint registry is process-global: every test takes this lock.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Disarms everything on drop, even when an assertion unwinds.
struct Teardown;
impl Drop for Teardown {
    fn drop(&mut self) {
        fault::disarm_all();
        fault::set_seed(0);
    }
}

/// Silences *injected* panics only (each would otherwise print a full
/// backtrace); everything else — failed assertions included — still
/// reaches the previous hook. Restored on drop.
struct QuietPanics(Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>);
impl QuietPanics {
    fn install() -> Self {
        let previous: Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send> =
            Arc::from(std::panic::take_hook());
        let forward = Arc::clone(&previous);
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message.starts_with("failpoint "));
            if !injected {
                forward(info);
            }
        }));
        QuietPanics(previous)
    }
}
impl Drop for QuietPanics {
    fn drop(&mut self) {
        // Restoring the hook from a panicking thread would itself panic
        // (a double panic aborts the process); a failed assertion keeps
        // the filtering hook instead, which only hides injected noise.
        if std::thread::panicking() {
            return;
        }
        let previous = Arc::clone(&self.0);
        std::panic::set_hook(Box::new(move |info| previous(info)));
    }
}

/// The engine under chaos: a parallel executor (so the shared pool and
/// its containment paths exist), small morsels (so the scan-loop
/// failpoints evaluate many times per query), and the result cache off
/// — a hit would answer from memory and bypass the very paths being
/// tested. Cache semantics under faults get their own test with the
/// cache on.
fn chaos_engine(scenario: &PaperScenario, cache_capacity: usize) -> Arc<PersonalizationEngine> {
    let engine = PersonalizationEngine::with_execution_config(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
        ExecutionConfig::default()
            .with_workers(4)
            .with_morsel_rows(16)
            .with_cache_capacity(cache_capacity),
    );
    engine.register_user(scenario.manager.clone());
    Arc::new(engine)
}

fn login(engine: &PersonalizationEngine, scenario: &PaperScenario) -> u64 {
    let store = &scenario.retail.stores[0];
    engine
        .start_session(
            "regional-manager",
            Some(LocationContext::at_point(
                "office",
                store.location.x(),
                store.location.y(),
            )),
        )
        .expect("session starts")
        .id
}

/// The query panel every chaos round runs.
fn panel() -> Vec<Query> {
    vec![
        Query::over("Sales").measure("UnitSales"),
        Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales")
            .measure("StoreSales"),
        Query::over("Sales")
            .group_by(AttributeRef::new("Product", "Category", "name"))
            .measure_agg("UnitSales", AggregationFunction::Count)
            .measure_agg("StoreCost", AggregationFunction::Avg),
    ]
}

/// Asserts the pool shows no residue: nothing in flight, nothing queued.
fn assert_pool_quiescent(engine: &PersonalizationEngine) {
    let stats = engine
        .morsel_pool()
        .expect("parallel engine has a pool")
        .stats();
    for tenant in &stats.tenants {
        assert_eq!(
            (tenant.in_flight, tenant.queued),
            (0, 0),
            "pool residue after chaos: {tenant:?}"
        );
    }
}

/// Survivors of injected *errors* are bit-identical to the serial
/// reference; the failures carry the injected message through the typed
/// error chain; and once disarmed the engine serves exactly as before.
#[test]
fn injected_errors_leave_survivors_bit_identical() {
    let _serial = serial();
    let _teardown = Teardown;
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let engine = chaos_engine(&scenario, 0);
    let queries = panel();
    let reference_session = login(&engine, &scenario);
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|q| engine.query(reference_session, q).expect("reference runs"))
        .collect();

    // One failpoint per pipeline stage: plan resolution, the morsel scan
    // loop and the merge. Pivots and dashboards share the one pipeline,
    // so every site fires on both.
    for site in ["query.resolve", "query.scan.morsel", "query.merge"] {
        for seed in SEEDS {
            fault::set_seed(seed);
            fault::arm(site, FailAction::Error("chaos".into()), 3, None);
            let (failures, entry_failures): (u64, u64) = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        let engine = Arc::clone(&engine);
                        let scenario = &scenario;
                        let queries = &queries;
                        let reference = &reference;
                        scope.spawn(move || {
                            let session = login(&engine, scenario);
                            let mut failures = 0u64;
                            let mut entry_failures = 0u64;
                            for _ in 0..ROUNDS {
                                for (query, expected) in queries.iter().zip(reference) {
                                    match engine.query(session, query) {
                                        Ok(result) => assert_eq!(
                                            &result, expected,
                                            "a survivor drifted from the serial reference"
                                        ),
                                        Err(CoreError::Olap(OlapError::InvalidQuery {
                                            message,
                                        })) => {
                                            assert_eq!(message, "injected: chaos");
                                            failures += 1;
                                        }
                                        Err(other) => {
                                            panic!("untyped failure under {site}: {other:?}")
                                        }
                                    }
                                }
                                // The shared-scan batch path, same contract
                                // per panel entry.
                                match engine.query_batch(session, queries) {
                                    Ok(entries) => {
                                        for (entry, expected) in entries.into_iter().zip(reference)
                                        {
                                            match entry {
                                                Ok(result) => assert_eq!(&result, expected),
                                                Err(CoreError::Olap(OlapError::InvalidQuery {
                                                    message,
                                                })) => {
                                                    assert_eq!(message, "injected: chaos");
                                                    entry_failures += 1;
                                                }
                                                Err(other) => panic!(
                                                    "untyped batch failure under {site}: {other:?}"
                                                ),
                                            }
                                        }
                                    }
                                    Err(CoreError::Olap(OlapError::InvalidQuery { message })) => {
                                        assert_eq!(message, "injected: chaos");
                                        failures += 1;
                                    }
                                    Err(other) => {
                                        panic!("untyped batch failure under {site}: {other:?}")
                                    }
                                }
                            }
                            engine.end_session(session).expect("chaos session ends");
                            (failures, entry_failures)
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap())
                    .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
            });
            assert!(
                fault::hits(site) > 0,
                "the {site} round never fired — the chaos was a no-op"
            );
            // The scan site fires per morsel; the per-query sites fire
            // per batch member, so they must have failed single queries
            // and surfaced as typed per-entry failures of the dashboards.
            if site == "query.resolve" || site == "query.merge" {
                assert!(failures > 0, "{site} fired but no query surfaced it");
                assert!(
                    entry_failures > 0,
                    "{site} fired but no batch entry surfaced it"
                );
            }
            fault::disarm(site);
        }
    }

    // No drift once disarmed: the same panel, the same bytes.
    for (query, expected) in queries.iter().zip(&reference) {
        assert_eq!(&engine.query(reference_session, query).unwrap(), expected);
    }
    assert_pool_quiescent(&engine);
}

/// Injected *panics* in the scan loop and at helper startup are
/// contained to their own query: concurrent survivors stay
/// bit-identical, the victims get the typed
/// [`CoreError::ExecutionPanicked`], and the pool keeps its workers.
#[test]
fn contained_panics_poison_only_their_own_query() {
    let _serial = serial();
    let _teardown = Teardown;
    let _quiet = QuietPanics::install();
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let engine = chaos_engine(&scenario, 0);
    let queries = panel();
    let reference_session = login(&engine, &scenario);
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|q| engine.query(reference_session, q).expect("reference runs"))
        .collect();
    let workers_before = engine.morsel_pool().unwrap().stats().workers;

    for site in ["query.scan.morsel", "pool.helper.start"] {
        for seed in SEEDS {
            fault::set_seed(seed);
            fault::arm(site, FailAction::Panic("chaos".into()), 5, None);
            let contained: u64 = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        let engine = Arc::clone(&engine);
                        let scenario = &scenario;
                        let queries = &queries;
                        let reference = &reference;
                        scope.spawn(move || {
                            let session = login(&engine, scenario);
                            let mut contained = 0u64;
                            for _ in 0..ROUNDS {
                                for (query, expected) in queries.iter().zip(reference) {
                                    match engine.query(session, query) {
                                        Ok(result) => assert_eq!(
                                            &result, expected,
                                            "a survivor drifted next to a contained panic"
                                        ),
                                        Err(CoreError::ExecutionPanicked) => contained += 1,
                                        Err(other) => {
                                            panic!("uncontained failure under {site}: {other:?}")
                                        }
                                    }
                                }
                            }
                            engine.end_session(session).expect("chaos session ends");
                            contained
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert!(fault::hits(site) > 0, "the {site} round never fired");
            assert!(contained > 0, "{site} panicked but nothing was contained");
            fault::disarm(site);
        }
    }

    // Containment really contained: every worker survived, the pool is
    // clean, and the panel still matches the reference bit for bit.
    assert_eq!(
        engine.morsel_pool().unwrap().stats().workers,
        workers_before
    );
    for (query, expected) in queries.iter().zip(&reference) {
        assert_eq!(&engine.query(reference_session, query).unwrap(), expected);
    }
    assert_pool_quiescent(&engine);
}

/// A `QueryEngine` built from a bare config (no pool handed in) contains
/// a scan panic exactly like the serving engine does: it owns its pool,
/// so every slot of the call comes back with the typed
/// [`OlapError::ExecutionPanicked`] instead of unwinding into the caller,
/// and once disarmed the next run equals the serial reference.
#[test]
fn engine_built_without_a_pool_contains_scan_panics() {
    let _serial = serial();
    let _teardown = Teardown;
    let _quiet = QuietPanics::install();
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let cube = &scenario.cube;
    // Small morsels, so the scan really fans out over several workers.
    let engine = QueryEngine::with_config(
        ExecutionConfig::default()
            .with_workers(4)
            .with_morsel_rows(16),
    );
    // Measures whose aggregates are exact in any summation order, so the
    // morsel pipeline equals the row-at-a-time reference bit for bit.
    let queries = vec![
        Query::over("Sales").measure("UnitSales"),
        Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales")
            .measure_agg("StoreSales", AggregationFunction::Max),
        Query::over("Sales")
            .group_by(AttributeRef::new("Product", "Category", "name"))
            .measure_agg("UnitSales", AggregationFunction::Count)
            .measure_agg("StoreCost", AggregationFunction::Min),
    ];
    let options = ExecOptions::default();

    fault::set_seed(SEEDS[0]);
    fault::arm(
        "query.scan.morsel",
        FailAction::Panic("chaos".into()),
        1,
        None,
    );
    let results = engine.execute(cube, &queries, &options);
    assert!(fault::hits("query.scan.morsel") > 0);
    fault::disarm("query.scan.morsel");
    assert_eq!(results.len(), queries.len());
    for result in results {
        assert_eq!(result, Err(OlapError::ExecutionPanicked));
    }

    let view = InstanceView::unrestricted();
    for (query, result) in queries.iter().zip(engine.execute(cube, &queries, &options)) {
        assert_eq!(
            result.expect("the disarmed run succeeds"),
            engine
                .execute_serial_with_view(cube, query, &view)
                .expect("the reference runs")
        );
    }
}

/// A deadline expiring inside a degraded scan cancels with the typed
/// refusal and **no partial state**: the result cache holds nothing a
/// cancelled query touched, and once the fault clears the same query
/// completes and caches normally.
#[test]
fn deadlines_cancel_degraded_queries_with_no_partial_state() {
    let _serial = serial();
    let _teardown = Teardown;
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    // Cache ON here: the point is that cancelled queries never publish
    // into it.
    let engine = chaos_engine(&scenario, 64);
    let session = login(&engine, &scenario);
    let query = Query::over("Sales")
        .group_by(AttributeRef::new("Store", "City", "name"))
        .measure("UnitSales");
    let budget = Some(Duration::from_millis(5));

    fault::set_seed(SEEDS[0]);
    fault::arm("query.scan.morsel", FailAction::SleepMs(10), 1, None);
    for _ in 0..3 {
        match engine.query_with_deadline(session, &query, budget) {
            Err(CoreError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    match engine.query_batch_with_deadline(session, std::slice::from_ref(&query), budget) {
        Err(CoreError::DeadlineExceeded) => {}
        Ok(entries) => {
            for entry in entries {
                match entry {
                    Err(CoreError::DeadlineExceeded) => {}
                    other => panic!("expected DeadlineExceeded in the batch, got {other:?}"),
                }
            }
        }
        Err(other) => panic!("untyped batch failure: {other:?}"),
    }
    // Pivots and the dashboard both ran the one morsel loop: every
    // degraded call hit the site.
    assert!(fault::hits("query.scan.morsel") >= 4);
    assert_eq!(
        engine.cache_stats().entries,
        0,
        "a cancelled query must leave the result cache untouched"
    );
    fault::disarm("query.scan.morsel");

    // Fault cleared: the very same call completes, caches, and repeats
    // identically from the cache.
    let first = engine
        .query_with_deadline(session, &query, budget)
        .expect("healthy scan beats the budget");
    assert_eq!(engine.cache_stats().entries, 1);
    let again = engine.query(session, &query).expect("cache answers");
    assert_eq!(first, again);
    assert!(engine.cache_stats().hits >= 1);
    assert_pool_quiescent(&engine);
}

/// The supervised ingest worker under an armed apply-phase panic:
/// every crash drops exactly its own batch, the supervisor restarts the
/// worker (consistent stats, live heartbeat, no residue in the queue
/// accounting), and the warehouse ends at precisely the rows of the
/// batches that survived.
#[test]
fn supervised_ingest_survives_apply_crashes_without_drift() {
    const BATCHES: u64 = 24;
    const APPENDS: usize = 8;

    let _serial = serial();
    let _teardown = Teardown;
    let _quiet = QuietPanics::install();
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let base_rows = scenario.retail.sales.len() as u64;
    let engine = chaos_engine(&scenario, 0);
    let session = login(&engine, &scenario);
    let ingest = engine.start_ingest(
        IngestConfig::default().with_epoch(EpochPolicy::default().with_max_rows(APPENDS)),
    );

    // Appends-only stream: a dropped batch loses its own rows and
    // nothing else, so later batches stay valid no matter which ones
    // the chaos eats. (Id-addressed corrections would desynchronise on
    // the first drop — that producer-side story is the `ProducerLagged`
    // contract, tested with the ticker.)
    let mut ticker = RetailTicker::new(
        &scenario,
        TickerConfig::default()
            .with_appends(APPENDS)
            .with_corrections(0)
            .with_retractions(0),
    );
    fault::set_seed(SEEDS[1]);
    fault::arm("ingest.apply", FailAction::Panic("chaos".into()), 6, None);
    for _ in 0..BATCHES {
        ingest.submit(ticker.next_batch()).expect("stream submits");
    }
    ingest.flush().expect("flush drains the chaos stream");
    // Read the hit counter before disarming: disarm drops the point's
    // state, counters included.
    let crashes = fault::hits("ingest.apply");
    fault::disarm("ingest.apply");
    assert!(crashes > 0, "the ingest round never fired");

    // Supervisor accounting: one restart and one failed batch per
    // crash, everything else applied, nothing stuck in the queue, the
    // worker alive and heartbeating.
    let stats = ingest.stats();
    assert_eq!(stats.batches_submitted, BATCHES);
    assert_eq!(stats.worker_restarts, crashes);
    assert_eq!(stats.batches_failed, crashes);
    assert_eq!(stats.batches_applied, BATCHES - crashes);
    assert_eq!(stats.queue_depth, 0);
    assert!(!stats.worker_down);
    assert!(stats.last_heartbeat_micros > 0);
    assert!(stats
        .last_error
        .as_deref()
        .expect("the crash left a note")
        .contains("panicked"));

    // Warehouse truth: exactly the survivors' rows are visible — a
    // count over the published snapshot equals base + applied × batch
    // size, with no torn batch in between.
    let count = engine
        .query(
            session,
            &Query::over("Sales").measure_agg("UnitSales", AggregationFunction::Count),
        )
        .expect("post-chaos query runs");
    let expected = base_rows + stats.batches_applied * APPENDS as u64;
    assert_eq!(
        count.rows[0].values[0],
        sdwp::olap::CellValue::Integer(expected as i64)
    );

    // A publish-phase crash after a successful apply: the restart
    // republishes the applied-but-unpublished state, so the batch's
    // rows are visible even though its publish step never ran.
    fault::arm(
        "ingest.publish",
        FailAction::Panic("chaos".into()),
        1,
        Some(1),
    );
    ingest.submit(ticker.next_batch()).expect("submit survives");
    ingest.flush().expect("flush survives the publish crash");
    assert_eq!(fault::hits("ingest.publish"), 1);
    fault::disarm("ingest.publish");
    let after = ingest.stats();
    assert_eq!(after.worker_restarts, crashes + 1);
    assert_eq!(after.batches_applied, stats.batches_applied + 1);
    let count = engine
        .query(
            session,
            &Query::over("Sales").measure_agg("UnitSales", AggregationFunction::Count),
        )
        .expect("query after publish crash");
    assert_eq!(
        count.rows[0].values[0],
        sdwp::olap::CellValue::Integer((expected + APPENDS as u64) as i64),
        "an applied batch whose publish crashed must still become visible"
    );
}
