//! The pool-equivalence property suite: executing through a shared
//! morsel worker pool ([`sdwp_olap::MorselPool`]) must be
//! **indistinguishable** from executing on an engine's own pool, from
//! inline (one-worker) execution and from the serial row-at-a-time
//! reference — same groups, same aggregates, same row order, same scan
//! counters — for arbitrary generated cubes, queries and personalized
//! views.
//!
//! This holds by construction (partials merge in morsel-index order, so
//! *which* thread scanned a morsel is invisible), and the properties here
//! pin that construction down across the axes that could break it:
//! worker-pool sizes, group-slot limits (dense-slot vs hashed paths),
//! queue-depth caps that degrade parallelism mid-query, and the
//! shared-scan batch path.
//!
//! Measure values are dyadic rationals (multiples of 0.25), so float
//! sums are exact and bit-identity is a hard property, not a tolerance.

use proptest::prelude::*;
use sdwp_model::{
    AggregationFunction, Attribute, AttributeType, DimensionBuilder, FactBuilder, Schema,
    SchemaBuilder,
};
use sdwp_olap::{
    AttributeRef, CellValue, Cube, ExecOptions, ExecutionConfig, Filter, InstanceView, MorselPool,
    OlapError, PoolConfig, Query, QueryEngine, QueryResult, TenantPolicy,
};
use std::sync::Arc;

/// One query through [`QueryEngine::execute`], as a batch of one.
fn run(
    engine: &QueryEngine,
    cube: &Cube,
    query: &Query,
    view: &InstanceView,
) -> Result<QueryResult, OlapError> {
    engine
        .execute(
            cube,
            std::slice::from_ref(query),
            &ExecOptions::with_view(view),
        )
        .remove(0)
}

/// The serial reference (the test oracle) through `view`.
fn oracle(cube: &Cube, query: &Query, view: &InstanceView) -> Result<QueryResult, OlapError> {
    QueryEngine::with_config(ExecutionConfig::serial()).execute_serial_with_view(cube, query, view)
}

/// Pool of attribute values; small so group keys collide often.
const POOL: [&str; 4] = ["x", "y", "z", "w"];
const GROUP_KEYS: [(&str, &str, &str); 3] = [
    ("D0", "A", "name"),
    ("D0", "B", "name"),
    ("D1", "T", "date"),
];
const MEASURES: [&str; 3] = ["M1", "M2", "M3"];
const AGGREGATIONS: [AggregationFunction; 6] = [
    AggregationFunction::Sum,
    AggregationFunction::Avg,
    AggregationFunction::Min,
    AggregationFunction::Max,
    AggregationFunction::Count,
    AggregationFunction::CountDistinct,
];

fn schema() -> Schema {
    SchemaBuilder::new("PoolDW")
        .dimension(
            DimensionBuilder::new("D0")
                .simple_level("A", "name")
                .simple_level("B", "name")
                .build(),
        )
        .dimension(
            DimensionBuilder::new("D1")
                .level(
                    "T",
                    vec![Attribute::descriptor("date", AttributeType::Date)],
                )
                .build(),
        )
        .fact(
            FactBuilder::new("F")
                .measure("M1", AttributeType::Float)
                .measure_with("M2", AttributeType::Float, AggregationFunction::Avg)
                .measure("M3", AttributeType::Integer)
                .dimension("D0")
                .dimension("D1")
                .build(),
        )
        .build()
        .expect("property schema is valid")
}

type FactSpec = (usize, usize, Option<i32>, Option<i32>, Option<i64>);

#[derive(Debug, Clone)]
struct CubeSpec {
    d0_members: Vec<(usize, usize)>,
    d1_members: usize,
    facts: Vec<FactSpec>,
}

fn cube_spec() -> impl Strategy<Value = CubeSpec> {
    (
        prop::collection::vec((0usize..=POOL.len(), 0usize..=POOL.len()), 1..6),
        1usize..5,
        prop::collection::vec(
            (
                any::<usize>(),
                any::<usize>(),
                option_of(-64i32..65),
                option_of(-64i32..65),
                option_of(-9i32..10).prop_map(|v| v.map(i64::from)),
            ),
            0..80,
        ),
    )
        .prop_map(|(d0_members, d1_members, facts)| CubeSpec {
            d0_members,
            d1_members,
            facts,
        })
}

fn option_of<S>(values: S) -> BoxedStrategy<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    let some = values.prop_map(Some).boxed();
    prop_oneof![Just(None).boxed(), some.clone(), some].boxed()
}

fn pool_cell(index: usize) -> CellValue {
    if index >= POOL.len() {
        CellValue::Null
    } else {
        CellValue::from(POOL[index])
    }
}

fn build_cube(spec: &CubeSpec) -> Cube {
    let mut cube = Cube::new(schema());
    for (a, b) in &spec.d0_members {
        cube.add_dimension_member(
            "D0",
            vec![("A.name", pool_cell(*a)), ("B.name", pool_cell(*b))],
        )
        .expect("D0 member loads");
    }
    for day in 0..spec.d1_members {
        cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(day as i64 % 3))])
            .expect("D1 member loads");
    }
    for (fk0, fk1, m1, m2, m3) in &spec.facts {
        let mut measures: Vec<(&str, CellValue)> = Vec::new();
        if let Some(v) = m1 {
            measures.push(("M1", CellValue::Float(f64::from(*v) * 0.25)));
        }
        if let Some(v) = m2 {
            measures.push(("M2", CellValue::Float(f64::from(*v) * 0.5)));
        }
        if let Some(v) = m3 {
            measures.push(("M3", CellValue::Integer(*v)));
        }
        cube.add_fact_row(
            "F",
            vec![
                ("D0", fk0 % spec.d0_members.len()),
                ("D1", fk1 % spec.d1_members),
            ],
            measures,
        )
        .expect("fact row loads");
    }
    cube
}

#[derive(Debug, Clone)]
struct QuerySpec {
    group_by: Vec<usize>,
    measures: Vec<(usize, Option<usize>)>,
    dim_filter: Option<usize>,
    fact_filter: Option<i32>,
    limit: Option<usize>,
}

fn query_spec() -> impl Strategy<Value = QuerySpec> {
    (
        prop::collection::vec(0usize..GROUP_KEYS.len(), 0..3),
        prop::collection::vec(
            (
                0usize..MEASURES.len(),
                option_of(0usize..AGGREGATIONS.len()),
            ),
            1..4,
        ),
        option_of(0usize..POOL.len()),
        option_of(-32i32..33),
        option_of(0usize..6),
    )
        .prop_map(
            |(group_by, measures, dim_filter, fact_filter, limit)| QuerySpec {
                group_by,
                measures,
                dim_filter,
                fact_filter,
                limit,
            },
        )
}

fn build_query(spec: &QuerySpec) -> Query {
    let mut query = Query::over("F");
    for key in &spec.group_by {
        let (dimension, level, attribute) = GROUP_KEYS[*key];
        query = query.group_by(AttributeRef::new(dimension, level, attribute));
    }
    for (measure, aggregation) in &spec.measures {
        query = match aggregation {
            Some(agg) => query.measure_agg(MEASURES[*measure], AGGREGATIONS[*agg]),
            None => query.measure(MEASURES[*measure]),
        };
    }
    if let Some(value) = spec.dim_filter {
        query = query.filter_dimension("D0", Filter::eq("A.name", POOL[value]));
    }
    if let Some(threshold) = spec.fact_filter {
        query = query.filter_fact(Filter::Attribute {
            column: "M1".into(),
            op: sdwp_olap::CompareOp::Ge,
            value: CellValue::Float(f64::from(threshold) * 0.25),
        });
    }
    if let Some(limit) = spec.limit {
        query = query.limit(limit);
    }
    query
}

#[derive(Debug, Clone)]
struct ViewSpec {
    d0_selection: Option<Vec<usize>>,
    fact_selection: Option<Vec<usize>>,
}

fn view_spec() -> impl Strategy<Value = ViewSpec> {
    (
        option_of(prop::collection::vec(any::<usize>(), 0..6)),
        option_of(prop::collection::vec(any::<usize>(), 0..40)),
    )
        .prop_map(|(d0_selection, fact_selection)| ViewSpec {
            d0_selection,
            fact_selection,
        })
}

fn build_view(spec: &ViewSpec, cube_spec: &CubeSpec) -> InstanceView {
    let mut view = InstanceView::unrestricted();
    if let Some(members) = &spec.d0_selection {
        view.select_dimension_members("D0", members.iter().map(|m| m % cube_spec.d0_members.len()));
    }
    if let Some(rows) = &spec.fact_selection {
        let total = cube_spec.facts.len();
        if total > 0 {
            view.select_fact_rows("F", rows.iter().map(|r| r % total));
        } else {
            view.select_fact_rows("F", std::iter::empty());
        }
    }
    view
}

/// The engines under test, all with the **same** execution config
/// except the worker count of the inline one: an engine on the shared
/// `pool`, an engine owning its private pool, and an inline engine — so
/// any divergence is the pool's (or the inline loop's) fault.
fn engines(
    pool: &Arc<MorselPool>,
    workers: usize,
    slot_limit: usize,
) -> [(&'static str, QueryEngine); 3] {
    let config = ExecutionConfig::default()
        .with_workers(workers)
        // A small prime morsel size forces ragged chunks and many merges.
        .with_morsel_rows(7)
        .with_group_slot_limit(slot_limit);
    [
        ("pooled", QueryEngine::with_pool(config, Arc::clone(pool))),
        ("owned-pool", QueryEngine::with_config(config)),
        ("inline", QueryEngine::with_config(config.with_workers(1))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for every generated (cube, query, view),
    /// execution through the shared worker pool at several requested
    /// worker counts — including counts *above* the pool's worker
    /// population, where the caller scans alongside every helper — is
    /// bit-identical to an engine's own pool, to inline execution and to
    /// the serial reference.
    #[test]
    fn pooled_equals_owned_inline_and_serial(
        cube in cube_spec(),
        query in query_spec(),
        view in view_spec(),
    ) {
        let built_cube = build_cube(&cube);
        let built_query = build_query(&query);
        let built_view = build_view(&view, &cube);
        let serial = oracle(&built_cube, &built_query, &built_view)
            .expect("generated queries are valid");
        let pool = Arc::new(MorselPool::new(PoolConfig::default().with_workers(3)));
        for workers in [2usize, 4, 8] {
            for slot_limit in [0usize, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT] {
                for (name, engine) in engines(&pool, workers, slot_limit) {
                    let result = run(&engine, &built_cube, &built_query, &built_view)
                        .expect("execution succeeds where serial does");
                    prop_assert_eq!(
                        &result, &serial,
                        "{} vs serial, workers={} slot_limit={}", name, workers, slot_limit
                    );
                }
            }
        }
    }

    /// Batch equivalence through the pool: a shared-scan batch submits
    /// its morsel loop to the pool exactly like a batch of one does, so
    /// every batch slot must match the same batch on the other engines
    /// and the query executed standalone (as a batch of one) on the
    /// shared pool — which the property above ties to serial.
    #[test]
    fn pooled_batch_matches_standalone(
        cube in cube_spec(),
        queries in prop::collection::vec(query_spec(), 1..4),
        view in view_spec(),
    ) {
        let built_cube = build_cube(&cube);
        let built_queries: Vec<Query> = queries.iter().map(build_query).collect();
        let built_view = build_view(&view, &cube);
        let options = ExecOptions::with_view(&built_view);
        let pool = Arc::new(MorselPool::new(PoolConfig::default().with_workers(2)));
        let [(_, pooled), others @ ..] = engines(&pool, 4, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT);
        let pooled_batch = pooled.execute(&built_cube, &built_queries, &options);
        prop_assert_eq!(pooled_batch.len(), built_queries.len());
        for (name, engine) in &others {
            let batch = engine.execute(&built_cube, &built_queries, &options);
            for (slot, (entry, pooled_entry)) in batch.iter().zip(&pooled_batch).enumerate() {
                match (entry, pooled_entry) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} batch slot {}", name, slot),
                    (Err(a), Err(b)) => {
                        prop_assert_eq!(a.to_string(), b.to_string(), "{} slot {}", name, slot)
                    }
                    _ => prop_assert!(false, "{} batch slot {} ok/err mismatch", name, slot),
                }
            }
        }
        for (slot, entry) in pooled_batch.iter().enumerate() {
            if let Ok(expected) = entry {
                let standalone = run(&pooled, &built_cube, &built_queries[slot], &built_view)
                    .expect("standalone pooled execution succeeds");
                prop_assert_eq!(&standalone, expected, "batch slot {} vs standalone", slot);
            }
        }
    }

    /// Queue-depth caps degrade parallelism, never correctness: a tenant
    /// whose `max_queued` budget admits fewer helper items than requested
    /// (including zero — pure caller-inline execution) must still produce
    /// the bit-identical result.
    #[test]
    fn queue_caps_shed_helpers_not_correctness(
        cube in cube_spec(),
        query in query_spec(),
        max_queued in 0usize..3,
    ) {
        let built_cube = build_cube(&cube);
        let built_query = build_query(&query);
        let view = InstanceView::unrestricted();
        let serial = oracle(&built_cube, &built_query, &view)
            .expect("generated queries are valid");
        let pool = Arc::new(MorselPool::new(PoolConfig::default().with_workers(2)));
        pool.set_policy(
            sdwp_obs::ClassId::default(),
            TenantPolicy::default().with_max_queued(max_queued),
        );
        let [(_, pooled), ..] = engines(&pool, 8, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT);
        let pooled_result = run(&pooled, &built_cube, &built_query, &view)
            .expect("pooled execution succeeds");
        prop_assert_eq!(&pooled_result, &serial, "max_queued={}", max_queued);
    }
}

/// One pool shared by concurrent querying threads of different tenants:
/// every thread's result must match the serial reference computed on the
/// same snapshot, whatever interleaving the scheduler picks.
#[test]
fn concurrent_tenants_share_one_pool_without_cross_talk() {
    let spec = CubeSpec {
        d0_members: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
        d1_members: 3,
        facts: (0..240)
            .map(|i| {
                (
                    i,
                    i * 7,
                    Some((i as i32 % 64) - 32),
                    Some(i as i32 % 17),
                    None,
                )
            })
            .collect(),
    };
    let cube = Arc::new(build_cube(&spec));
    let queries: Vec<Query> = vec![
        Query::over("F")
            .group_by(AttributeRef::new("D0", "A", "name"))
            .measure("M1"),
        Query::over("F")
            .group_by(AttributeRef::new("D1", "T", "date"))
            .measure_agg("M1", AggregationFunction::Avg)
            .measure_agg("M3", AggregationFunction::Count),
        Query::over("F")
            .group_by(AttributeRef::new("D0", "B", "name"))
            .measure_agg("M2", AggregationFunction::Max)
            .limit(3),
    ];
    let view = InstanceView::unrestricted();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| oracle(&cube, q, &view).expect("reference query runs"))
        .collect();

    let pool = Arc::new(MorselPool::new(PoolConfig::default().with_workers(3)));
    // Distinct tenants with distinct weights, so the scheduler actually
    // has classes to arbitrate between.
    for (tenant, weight) in [(0u32, 4u32), (1, 2), (2, 1)] {
        pool.set_policy(
            sdwp_obs::ClassId(tenant as u8),
            TenantPolicy::default().with_weight(weight),
        );
    }
    std::thread::scope(|scope| {
        for round in 0..3 {
            for (index, query) in queries.iter().enumerate() {
                let pool = Arc::clone(&pool);
                let cube = Arc::clone(&cube);
                let expected = &expected[index];
                let query = query.clone();
                scope.spawn(move || {
                    let engine = QueryEngine::with_pool(
                        ExecutionConfig::default()
                            .with_workers(4)
                            .with_morsel_rows(16),
                        pool,
                    );
                    let result = run(&engine, &cube, &query, &InstanceView::unrestricted())
                        .expect("pooled query runs");
                    assert_eq!(
                        &result, expected,
                        "round {round} query {index} diverged under contention"
                    );
                });
            }
        }
    });
}

/// Dropping the pool while idle joins every worker; a fresh engine built
/// on a new pool keeps answering. Guards the shutdown path against
/// leaked workers or poisoned scheduler state.
#[test]
fn pool_shutdown_is_clean_and_replaceable() {
    let spec = CubeSpec {
        d0_members: vec![(0, 1), (1, 2)],
        d1_members: 1,
        facts: (0..64)
            .map(|i| (i, 0, Some(i as i32 % 7), None, None))
            .collect(),
    };
    let cube = build_cube(&spec);
    let query = Query::over("F")
        .group_by(AttributeRef::new("D0", "A", "name"))
        .measure("M1");
    let view = InstanceView::unrestricted();
    let serial = oracle(&cube, &query, &view).unwrap();
    for _ in 0..3 {
        let pool = Arc::new(MorselPool::new(PoolConfig::default().with_workers(2)));
        let engine = QueryEngine::with_pool(
            ExecutionConfig::default()
                .with_workers(3)
                .with_morsel_rows(8),
            Arc::clone(&pool),
        );
        assert_eq!(run(&engine, &cube, &query, &view).unwrap(), serial);
        drop(engine);
        drop(pool); // joins the workers; a hang here fails via test timeout
    }
}
