//! The batch-equivalence property suite: for arbitrary generated cubes,
//! personalized views and query *batches* — mixed grouped/ungrouped
//! shapes, shared and disjoint filters — `QueryEngine::execute` must
//! return, for every member, a result **identical** to executing that
//! query standalone (as a batch of one) and to the serial reference, at
//! every worker count and on both grouped paths. The same holds when the
//! batch runs through a shared group-key dictionary cache, cold or warm.
//!
//! Measures are dyadic rationals (multiples of 0.25), so float addition
//! is exact on the generated data and identity is a provable property:
//! any divergence between a shared scan and a batch of one — a
//! mis-shared selection vector, a dictionary served to the wrong query,
//! a merge in the wrong order — fails hard instead of hiding in a
//! rounding tolerance.

use proptest::prelude::*;
use sdwp_model::{
    AggregationFunction, Attribute, AttributeType, DimensionBuilder, FactBuilder, Schema,
    SchemaBuilder,
};
use sdwp_olap::{
    AttributeRef, CellValue, Cube, ExecOptions, ExecutionConfig, Filter, GroupDictCache,
    InstanceView, OlapError, Query, QueryEngine, QueryResult,
};

/// The same outcome, compared by value on success and by message on
/// failure (errors carry no `PartialEq` across paths).
fn same(
    a: &Result<QueryResult, OlapError>,
    b: &Result<QueryResult, OlapError>,
) -> Result<(), String> {
    match (a, b) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(a), Err(b)) if a.to_string() == b.to_string() => Ok(()),
        (a, b) => Err(format!("{a:?} vs {b:?}")),
    }
}

/// Pool of attribute values; small so group keys collide often and
/// independently generated queries often share (or split) filters.
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
    SchemaBuilder::new("PropDW")
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
            0..60,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: every member of a batch — whatever mix of
    /// grouped/ungrouped shapes and shared/disjoint filters the
    /// generators produced — returns exactly what it would standalone (as
    /// a batch of one) and what the serial reference returns, at 1, 2 and
    /// 8 workers, on both grouped paths.
    #[test]
    fn batch_members_equal_standalone_execution(
        cube in cube_spec(),
        queries in prop::collection::vec(query_spec(), 1..6),
        view in view_spec(),
    ) {
        let built_cube = build_cube(&cube);
        let built_queries: Vec<Query> = queries.iter().map(build_query).collect();
        let built_view = build_view(&view, &cube);
        let options = ExecOptions::with_view(&built_view);
        let serial = QueryEngine::with_config(ExecutionConfig::serial());
        for workers in [1usize, 2, 8] {
            for slot_limit in [0usize, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT] {
                let engine = QueryEngine::with_config(
                    ExecutionConfig::default()
                        .with_workers(workers)
                        .with_morsel_rows(7)
                        .with_group_slot_limit(slot_limit),
                );
                let batched = engine.execute(&built_cube, &built_queries, &options);
                prop_assert_eq!(batched.len(), built_queries.len());
                for (query, batched) in built_queries.iter().zip(&batched) {
                    let standalone = engine
                        .execute(&built_cube, std::slice::from_ref(query), &options)
                        .remove(0);
                    let reference =
                        serial.execute_serial_with_view(&built_cube, query, &built_view);
                    for (name, other) in [("standalone", &standalone), ("serial", &reference)] {
                        if let Err(diff) = same(batched, other) {
                            prop_assert!(
                                false,
                                "batch vs {} at workers={} slot_limit={}: {}",
                                name, workers, slot_limit, diff
                            );
                        }
                    }
                }
            }
        }
    }

    /// Dictionary-cache transparency: the batch through a cold cache,
    /// the same batch through the now-warm cache, and the uncached batch
    /// all agree — a cached dictionary is indistinguishable from a
    /// freshly built one.
    #[test]
    fn dictionary_cache_is_transparent(
        cube in cube_spec(),
        queries in prop::collection::vec(query_spec(), 1..5),
        view in view_spec(),
    ) {
        let built_cube = build_cube(&cube);
        let built_queries: Vec<Query> = queries.iter().map(build_query).collect();
        let built_view = build_view(&view, &cube);
        let engine = QueryEngine::with_config(
            ExecutionConfig::default().with_workers(4).with_morsel_rows(7),
        );
        let uncached =
            engine.execute(&built_cube, &built_queries, &ExecOptions::with_view(&built_view));
        let dicts = GroupDictCache::new();
        let options = ExecOptions {
            dicts: Some((&dicts, 1)),
            ..ExecOptions::with_view(&built_view)
        };
        for round in 0..2 {
            let cached = engine.execute(&built_cube, &built_queries, &options);
            for (uncached, cached) in uncached.iter().zip(cached) {
                match (uncached, cached) {
                    (Ok(uncached), Ok(cached)) => {
                        prop_assert_eq!(uncached, &cached, "round={}", round)
                    }
                    (Err(uncached), Err(cached)) => prop_assert_eq!(
                        uncached.to_string(), cached.to_string(), "round={}", round
                    ),
                    (uncached, cached) => prop_assert!(
                        false,
                        "cached/uncached disagree on success: {:?} vs {:?}",
                        uncached, cached
                    ),
                }
            }
        }
    }

    /// Duplicated queries inside one batch: each copy shares the same
    /// filter class and dictionaries, and each must still produce the
    /// standalone result independently.
    #[test]
    fn duplicated_batch_members_all_match(
        cube in cube_spec(),
        query in query_spec(),
        copies in 2usize..5,
    ) {
        let built_cube = build_cube(&cube);
        let built_query = build_query(&query);
        let batch: Vec<Query> = vec![built_query.clone(); copies];
        let engine = QueryEngine::with_config(
            ExecutionConfig::default().with_workers(4).with_morsel_rows(7),
        );
        let options = ExecOptions::default();
        let standalone = engine
            .execute(&built_cube, std::slice::from_ref(&built_query), &options)
            .remove(0);
        for batched in engine.execute(&built_cube, &batch, &options) {
            match (&standalone, batched) {
                (Ok(standalone), Ok(batched)) => prop_assert_eq!(standalone, &batched),
                (Err(standalone), Err(batched)) => {
                    prop_assert_eq!(standalone.to_string(), batched.to_string())
                }
                (standalone, batched) => prop_assert!(
                    false,
                    "copy diverged from standalone: {:?} vs {:?}",
                    standalone, batched
                ),
            }
        }
    }
}
