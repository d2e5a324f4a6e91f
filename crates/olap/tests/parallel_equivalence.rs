//! The parallel-equivalence property suite: for arbitrary generated
//! cubes, queries and personalized views, the morsel-parallel executor at
//! 1, 2 and 8 workers must return results **identical** to the serial
//! row-at-a-time reference — same groups, same aggregates, same row order
//! after sort/limit, same scan counters.
//!
//! Measure values are generated as dyadic rationals (multiples of 0.25
//! well inside `f64`'s 53-bit mantissa), so every partial sum is exact
//! and float addition is associative on the generated data. That makes
//! bit-identity a *provable* property of the executor rather than an
//! approximate one: any grouping, filtering, ordering or merge bug shows
//! up as a hard mismatch instead of hiding inside a rounding tolerance.
//! A separate property below checks worker-count invariance on arbitrary
//! (non-exact) floats, where the fixed morsel-merge tree — not exactness —
//! is what guarantees determinism.

use proptest::prelude::*;
use sdwp_model::{
    AggregationFunction, Attribute, AttributeType, DimensionBuilder, FactBuilder, Schema,
    SchemaBuilder,
};
use sdwp_olap::{
    AttributeRef, CellValue, Cube, ExecOptions, ExecutionConfig, Filter, InstanceView, OlapError,
    Query, QueryEngine, QueryResult,
};

/// Pool of attribute values; small so group keys collide often.
const POOL: [&str; 4] = ["x", "y", "z", "w"];
/// Group-by keys the query generator picks from.
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

/// One generated fact row: raw foreign keys (reduced modulo the member
/// counts at build time) and three optional measure values.
type FactSpec = (usize, usize, Option<i32>, Option<i32>, Option<i64>);

/// Generated cube content: per-member attribute picks for D0 (index 4 =
/// null), the D1 member count, and the fact rows.
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

/// `Option<T>` strategy: roughly one value in three is `None` (a null
/// cell / an absent query part).
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
        // Dates repeat modulo 3 so the date group key collides too.
        cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(day as i64 % 3))])
            .expect("D1 member loads");
    }
    for (fk0, fk1, m1, m2, m3) in &spec.facts {
        let mut measures: Vec<(&str, CellValue)> = Vec::new();
        if let Some(v) = m1 {
            // Dyadic: multiples of 0.25, exactly representable.
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

/// A generated query: group-by key picks, measures with optional
/// aggregation overrides, an optional dimension filter, an optional fact
/// filter and an optional limit.
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

/// A generated personalized view: optional member selection on D0 and
/// optional fact-row selection (raw ids reduced modulo the table sizes).
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

    /// The headline property: parallel execution at 1, 2 and 8 workers is
    /// indistinguishable from the serial reference for every generated
    /// (cube, query, view) — including row order after sort and limit.
    #[test]
    fn parallel_equals_serial_reference(
        cube in cube_spec(),
        query in query_spec(),
        view in view_spec(),
    ) {
        let built_cube = build_cube(&cube);
        let built_query = build_query(&query);
        let built_view = build_view(&view, &cube);
        let serial = oracle(&built_cube, &built_query, &built_view)
            .expect("generated queries are valid");
        for workers in [1usize, 2, 8] {
            // A small prime morsel size forces ragged chunks and many
            // merges; slot limit 0 forces every grouped query onto the
            // integer-keyed hashed fallback while the default keeps the
            // flat dense-slot path live.
            for slot_limit in [0usize, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT] {
                let engine = QueryEngine::with_config(
                    ExecutionConfig::default()
                        .with_workers(workers)
                        .with_morsel_rows(7)
                        .with_group_slot_limit(slot_limit),
                );
                let parallel = run(&engine, &built_cube, &built_query, &built_view)
                    .expect("parallel execution succeeds where serial does");
                prop_assert_eq!(
                    &parallel, &serial,
                    "workers={} slot_limit={}", workers, slot_limit
                );
            }
        }
    }

    /// Grouped equivalence across the flat-slot threshold and cardinality
    /// extremes: the same generated warehouse grouped through every slot
    /// limit around its exact cardinality — hashed (0), just-below, exact,
    /// and unbounded — must match the serial reference bit-for-bit.
    #[test]
    fn grouped_paths_agree_across_the_slot_threshold(
        members in prop::collection::vec(0usize..=POOL.len(), 1..40),
        facts in prop::collection::vec(
            (any::<usize>(), option_of(-64i32..65)),
            0..60,
        ),
    ) {
        let mut cube = Cube::new(schema());
        for (i, a) in members.iter().enumerate() {
            // High member counts with a small value pool: many members
            // collapse onto few dense key ids, like city roll-ups do.
            cube.add_dimension_member(
                "D0",
                vec![
                    ("A.name", pool_cell(*a)),
                    ("B.name", pool_cell(i % (POOL.len() + 1))),
                ],
            ).unwrap();
        }
        cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(0))]).unwrap();
        for (fk, m) in &facts {
            let mut measures: Vec<(&str, CellValue)> = Vec::new();
            if let Some(v) = m {
                measures.push(("M1", CellValue::Float(f64::from(*v) * 0.25)));
            }
            cube.add_fact_row("F", vec![("D0", fk % members.len()), ("D1", 0)], measures)
                .unwrap();
        }
        let query = Query::over("F")
            .group_by(AttributeRef::new("D0", "A", "name"))
            .group_by(AttributeRef::new("D0", "B", "name"))
            .measure("M1")
            .measure_agg("M1", AggregationFunction::Min);
        let unrestricted = InstanceView::unrestricted();
        let serial = oracle(&cube, &query, &unrestricted).expect("query is valid");
        // Exact cardinality = product of (distinct values + reserved null
        // slot) per attribute, mirroring the engine's dictionary sizes.
        let distinct = |cells: Vec<CellValue>| {
            let mut keys: Vec<String> = cells.iter().map(CellValue::group_key).collect();
            keys.sort();
            keys.dedup();
            // +1 unless Null is already among the values (the dictionary
            // always reserves a null id; a null member value reuses it).
            keys.len() + usize::from(!cells.iter().any(CellValue::is_null))
        };
        let card_a = distinct(members.iter().map(|a| pool_cell(*a)).collect());
        let card_b = distinct((0..members.len()).map(|i| pool_cell(i % (POOL.len() + 1))).collect());
        let exact = card_a * card_b;
        for slot_limit in [0usize, exact.saturating_sub(1), exact, usize::MAX] {
            let engine = QueryEngine::with_config(
                ExecutionConfig::default()
                    .with_workers(4)
                    .with_morsel_rows(5)
                    .with_group_slot_limit(slot_limit),
            );
            let parallel = run(&engine, &cube, &query, &unrestricted)
                .expect("parallel execution succeeds");
            prop_assert_eq!(&parallel, &serial, "slot_limit={}", slot_limit);
        }
    }

    /// Worker-count invariance on *arbitrary* (non-dyadic) floats: the
    /// morsel-merge tree is fixed by the morsel size, so however the sums
    /// round, every worker count must round identically.
    #[test]
    fn worker_count_invariant_for_arbitrary_floats(
        values in prop::collection::vec(prop::num::f64::NORMAL, 1..120),
        keys in prop::collection::vec(0usize..3, 1..120),
    ) {
        let mut cube = Cube::new(schema());
        for name in POOL.iter().take(3) {
            cube.add_dimension_member(
                "D0",
                vec![("A.name", CellValue::from(*name)), ("B.name", CellValue::Null)],
            ).unwrap();
        }
        cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(0))]).unwrap();
        for (i, value) in values.iter().enumerate() {
            let key = keys[i % keys.len()];
            cube.add_fact_row(
                "F",
                vec![("D0", key), ("D1", 0)],
                vec![("M1", CellValue::Float(*value))],
            ).unwrap();
        }
        let query = Query::over("F")
            .group_by(AttributeRef::new("D0", "A", "name"))
            .measure("M1")
            .measure_agg("M1", AggregationFunction::Avg);
        let unrestricted = InstanceView::unrestricted();
        let with_workers = |workers: usize| {
            let engine = QueryEngine::with_config(
                ExecutionConfig::default().with_workers(workers).with_morsel_rows(5),
            );
            run(&engine, &cube, &query, &unrestricted).unwrap()
        };
        let reference = with_workers(1);
        for workers in [2usize, 3, 8] {
            prop_assert_eq!(&with_workers(workers), &reference, "workers={}", workers);
        }
    }
}

/// Text keys containing the serial reference's key separator must not
/// collapse composite groups: the serial loop length-prefixes each
/// attribute's key (an injective encoding), agreeing with the dense-id
/// parallel path, which keys attributes independently by construction.
#[test]
fn adversarial_separator_keys_stay_distinct() {
    let mut cube = Cube::new(schema());
    // Crafted so naive separator-joined keys would collide:
    // ("a\u{1f}tb", "c") and ("a", "b\u{1f}tc") concatenate identically.
    cube.add_dimension_member(
        "D0",
        vec![
            ("A.name", CellValue::from("a\u{1f}tb")),
            ("B.name", CellValue::from("c")),
        ],
    )
    .unwrap();
    cube.add_dimension_member(
        "D0",
        vec![
            ("A.name", CellValue::from("a")),
            ("B.name", CellValue::from("b\u{1f}tc")),
        ],
    )
    .unwrap();
    cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(0))])
        .unwrap();
    for member in 0..2 {
        cube.add_fact_row(
            "F",
            vec![("D0", member), ("D1", 0)],
            vec![("M1", CellValue::Float(1.0))],
        )
        .unwrap();
    }
    let query = Query::over("F")
        .group_by(AttributeRef::new("D0", "A", "name"))
        .group_by(AttributeRef::new("D0", "B", "name"))
        .measure("M1");
    let unrestricted = InstanceView::unrestricted();
    let serial = oracle(&cube, &query, &unrestricted).unwrap();
    assert_eq!(serial.len(), 2, "separator-bearing keys must not merge");
    for slot_limit in [0usize, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT] {
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(2)
                .with_morsel_rows(1)
                .with_group_slot_limit(slot_limit),
        );
        let parallel = run(&engine, &cube, &query, &unrestricted).unwrap();
        assert_eq!(parallel, serial, "slot_limit={slot_limit}");
    }
}

/// Regression for the view check's pre-resolved FK indices: a grouped
/// query through a view restricting both a dimension and the fact's row
/// set — including a selection captured *before* a compaction, so the
/// resolved check's hoisted remap walk is exercised — must agree with
/// the serial reference, which still goes through the name-based
/// `allows_fact_row`.
#[test]
fn view_restricted_grouped_query_matches_serial_reference() {
    let mut cube = Cube::new(schema());
    for (a, b) in [(0usize, 1usize), (1, 2), (2, 3), (3, 0)] {
        cube.add_dimension_member(
            "D0",
            vec![("A.name", pool_cell(a)), ("B.name", pool_cell(b))],
        )
        .unwrap();
    }
    cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(0))])
        .unwrap();
    for row in 0..24 {
        cube.add_fact_row(
            "F",
            vec![("D0", row % 4), ("D1", 0)],
            vec![("M1", CellValue::Float(row as f64 * 0.25))],
        )
        .unwrap();
    }
    // Capture the selection at version 0, then retract and compact so
    // queried row ids must translate backwards through the remap.
    let mut view = InstanceView::unrestricted();
    view.select_dimension_members("D0", [0usize, 1, 2]);
    view.select_fact_rows("F", (0..24).filter(|r| r % 3 != 0));
    for row in [1usize, 4, 7, 10] {
        cube.retract_fact_row("F", row).unwrap();
    }
    cube.compact_fact_table("F").unwrap();
    let query = Query::over("F")
        .group_by(AttributeRef::new("D0", "A", "name"))
        .measure("M1")
        .measure_agg("M1", AggregationFunction::Count);
    let serial = oracle(&cube, &query, &view).unwrap();
    assert!(
        serial.rows.iter().len() > 1,
        "the restricted view should still leave several groups"
    );
    for workers in [1usize, 2, 4] {
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(workers)
                .with_morsel_rows(5),
        );
        let parallel = run(&engine, &cube, &query, &view).unwrap();
        assert_eq!(parallel, serial, "workers={workers}");
    }
}

/// All-null measure columns: the group must still exist (a matched row
/// creates it) with SUM 0.0 / AVG-MIN-MAX null / COUNT 0, identically on
/// the flat, hashed and serial paths.
#[test]
fn all_null_measures_keep_groups_alive_on_every_path() {
    let mut cube = Cube::new(schema());
    for name in ["x", "y"] {
        cube.add_dimension_member(
            "D0",
            vec![
                ("A.name", CellValue::from(name)),
                ("B.name", CellValue::Null),
            ],
        )
        .unwrap();
    }
    cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(0))])
        .unwrap();
    for row in 0..10 {
        // Every M1 cell is null; M3 never written either.
        cube.add_fact_row("F", vec![("D0", row % 2), ("D1", 0)], vec![])
            .unwrap();
    }
    let query = Query::over("F")
        .group_by(AttributeRef::new("D0", "A", "name"))
        .measure("M1")
        .measure_agg("M1", AggregationFunction::Avg)
        .measure_agg("M1", AggregationFunction::Min)
        .measure_agg("M3", AggregationFunction::Count);
    let unrestricted = InstanceView::unrestricted();
    let serial = oracle(&cube, &query, &unrestricted).unwrap();
    assert_eq!(serial.len(), 2, "all-null groups still materialise");
    assert_eq!(serial.rows[0].values[0], CellValue::Float(0.0));
    assert_eq!(serial.rows[0].values[1], CellValue::Null);
    assert_eq!(serial.rows[0].values[2], CellValue::Null);
    assert_eq!(serial.rows[0].values[3], CellValue::Integer(0));
    for slot_limit in [0usize, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT] {
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(4)
                .with_morsel_rows(3)
                .with_group_slot_limit(slot_limit),
        );
        let parallel = run(&engine, &cube, &query, &unrestricted).unwrap();
        assert_eq!(parallel, serial, "slot_limit={slot_limit}");
    }
}
