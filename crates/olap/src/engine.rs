//! The query engine: morsel-parallel group-by aggregation through
//! personalized views.
//!
//! # Execution model
//!
//! There is one execution path, [`QueryEngine::execute`], and every call
//! is a *batch*: a single pivot is a batch of one, a dashboard a batch of
//! several (the GLADE-style shared scan). The batch is resolved up
//! front, its queries are grouped by fact, and each fact table is
//! scanned **once** as a two-phase *morsel* pipeline in the style of
//! morsel-driven parallelism: the table is split into fixed-size row
//! chunks ("morsels"); the calling thread and up to `workers - 1` helpers
//! of the engine's [`MorselPool`] pull morsel indices from a shared
//! atomic counter and run selection + partial aggregation per morsel for
//! every member query; each query's partial [`Accumulator`] states are
//! then merged **in morsel-index order** and finalised once. A
//! one-worker engine runs the same loop inline on the calling thread.
//!
//! Because morsel boundaries and the merge order depend only on
//! [`ExecutionConfig::morsel_rows`] — never on the worker count, on which
//! participant processed which morsel, or on which batch mates a query
//! had — the result (including every floating-point partial sum) is
//! bit-for-bit identical whether the pipeline runs on 1 or N workers and
//! whether the query runs alone or in a batch.
//! [`QueryEngine::execute_serial_with_view`] keeps the classic
//! row-at-a-time loop as the reference implementation the equivalence
//! property suites compare against.
//!
//! Within a morsel, one selection vector is materialised per *filter
//! class* (batch members whose canonical filters coincide), and measure
//! reads are pushed down to the chunked column storage: numeric measures
//! go through pre-resolved column indices and typed accessors instead of
//! per-row [`CellValue`] materialisation, and ungrouped all-numeric
//! aggregates run entirely on the vectorised per-chunk kernels of
//! [`crate::kernels`] (one `&[f64]` / `&[i64]` slice pass per contiguous
//! run of selected rows, with a validity-mask branch only for chunks
//! that actually contain nulls). The serial reference stays
//! row-at-a-time on purpose — it is the semantic yardstick the fast
//! paths are property-tested against.
//!
//! # Grouped execution: dense ids and selection vectors
//!
//! Grouped queries never touch a string key or clone a key `CellValue`
//! per row on the parallel path. Query resolution walks each group-by
//! attribute's dimension table **once** and builds a dictionary
//! `member id → dense key id` (distinct attribute values get consecutive
//! `u32` ids; the key `CellValue`s live only in the dictionary), so the
//! per-row cost of key building collapses to one array index. Composite
//! keys pack the per-attribute dense ids into a single mixed-radix
//! integer.
//!
//! Per morsel the grouped scan first materialises a **selection vector**
//! (the surviving row indices after liveness, view and filter checks),
//! batch-resolves the foreign-key columns through typed chunk slices
//! ([`crate::Column::gather_members`]) into a parallel slot vector, and
//! then accumulates one measure at a time: when the product of the
//! dictionary sizes stays under [`ExecutionConfig::group_slot_limit`],
//! measures are gathered into compacted `(values, slots)` pairs and fed
//! through the grouped slice kernels of [`crate::kernels`] into flat
//! per-slot vectors ([`crate::aggregate::SlotAccumulator`]); above the
//! limit (or when a measure needs full values, e.g. COUNT DISTINCT) the
//! morsel falls back to an **integer-keyed** hash table. Dense ids are
//! resolved back to `CellValue`s only once, at finalisation.

use crate::aggregate::{Accumulator, SlotAccumulator};
use crate::cancel::CancelToken;
use crate::column::{Column, ColumnType};
use crate::cube::{attribute_column, fk_column, Cube};
use crate::dicts::{attr_key, GroupDictCache, GroupKeys, NULL_KEY};
use crate::error::OlapError;
use crate::hash::FxHashMap;
use crate::kernels::NumericAgg;
use crate::pool::{MorselPool, PoolConfig};
use crate::query::{AttributeRef, Query, QueryResult, ResultRow};
use crate::table::Table;
use crate::value::CellValue;
use crate::view::{InstanceView, ResolvedViewCheck};
use sdwp_model::AggregationFunction;
use sdwp_obs::{ClassId, MetricsRegistry, SlowQueryRecord, Stage};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The view [`ExecOptions::default`] executes through.
static UNRESTRICTED: InstanceView = InstanceView::unrestricted();

/// Default number of fact rows per morsel.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Default cap on the product of group-key dictionary sizes under which
/// the grouped executor uses flat per-slot vectors instead of a hash
/// table (64 Ki slots ≈ a few hundred KiB of slot state per worker).
pub const DEFAULT_GROUP_SLOT_LIMIT: usize = 1 << 16;

/// Tuning knobs of the morsel-parallel executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Number of worker threads; `0` uses the machine's available
    /// parallelism.
    pub workers: usize,
    /// Fact rows per morsel. The morsel size fixes the partial-merge tree,
    /// so two runs with equal `morsel_rows` produce identical results
    /// regardless of `workers`.
    pub morsel_rows: usize,
    /// Capacity (entries) of the query-result cache layered on top by
    /// callers such as `sdwp-core`; `0` disables caching.
    pub cache_capacity: usize,
    /// Cap on the total group cardinality (product of the per-attribute
    /// key-dictionary sizes) under which grouped aggregation runs on flat
    /// per-slot vectors; above it, morsels fall back to an integer-keyed
    /// hash table. `0` disables the flat path entirely.
    pub group_slot_limit: usize,
    /// Per-query execution budget: scan loops check a shared
    /// [`crate::CancelToken`] between morsels and bail with
    /// [`crate::OlapError::DeadlineExceeded`] once it expires. `None`
    /// (the default) lets queries run to completion.
    pub deadline: Option<std::time::Duration>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            workers: 0,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            cache_capacity: 256,
            group_slot_limit: DEFAULT_GROUP_SLOT_LIMIT,
            deadline: None,
        }
    }
}

impl ExecutionConfig {
    /// A configuration that runs everything on the calling thread.
    pub fn serial() -> Self {
        ExecutionConfig {
            workers: 1,
            ..ExecutionConfig::default()
        }
    }

    /// Sets the worker count (`0` = available parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the morsel size in fact rows (clamped to at least 1).
    pub fn with_morsel_rows(mut self, morsel_rows: usize) -> Self {
        self.morsel_rows = morsel_rows.max(1);
        self
    }

    /// Sets the result-cache capacity (`0` disables caching).
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Sets the flat-slot cardinality cap of the grouped executor (`0`
    /// forces the integer-keyed hash fallback for every grouped query).
    pub fn with_group_slot_limit(mut self, group_slot_limit: usize) -> Self {
        self.group_slot_limit = group_slot_limit;
        self
    }

    /// Sets the per-query deadline (`None` = unbounded).
    pub fn with_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The number of worker threads this configuration resolves to.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// How the morsel executor reads one measure.
struct MeasurePlan {
    /// The measure column's declaration index in the fact table, when it
    /// exists there (resolved once, so the scan loop never does a
    /// name lookup per row).
    column: Option<usize>,
    /// Whether the column is numeric (integer / float / date) and the
    /// aggregation can run on bare numbers — the typed fast path. COUNT
    /// DISTINCT needs the full value and always takes the `CellValue`
    /// path.
    numeric: bool,
}

/// The resolved, validated parts of a query that every scan shares.
struct Resolved<'q> {
    /// `(column name, aggregation)` per requested measure.
    measures: Vec<(String, AggregationFunction)>,
    /// Per-measure read plan for the morsel executor, index-aligned with
    /// `measures`.
    plans: Vec<MeasurePlan>,
    /// Allowed member sets per filtered dimension, each with the
    /// pre-resolved index of the fact table's FK column (`None` falls
    /// back to the name-based read, which reports the serial reference's
    /// error). A `BTreeMap` so the per-row check order is deterministic
    /// across executions.
    allowed_members: BTreeMap<&'q str, (Option<usize>, BTreeSet<usize>)>,
    /// Whether the whole query can run on the vectorised per-chunk
    /// kernels: no grouping, and every measure on the numeric fast path.
    vectorised: bool,
}

/// Group-by state of the **serial reference**: group key string →
/// (key cells, accumulators). The parallel path never builds these
/// strings; it keys by dense integer ids ([`GroupId`]).
type GroupMap = HashMap<String, (Vec<CellValue>, Vec<Accumulator>)>;

/// One group-by attribute pre-resolved for the parallel path: the
/// dimension walked once into a dense dictionary ([`GroupKeys`]), so
/// per-row key building is a single `u32` array index — no `HashMap`
/// probe, no `CellValue` clone, no string append. The dimension-side
/// dictionary is `Arc`-shared: within a batch, and (through
/// [`GroupDictCache`]) across queries until the snapshot generation
/// moves on; only the fact-side FK column index is per-query state.
struct GroupKeyDict {
    /// Index of the fact table's FK column for the attribute's dimension
    /// (`None` falls back to the name-based `fact_member` read).
    fk_column: Option<usize>,
    /// The shared dimension-side dictionary.
    keys: Arc<GroupKeys>,
}

/// The grouped execution plan of one parallel query: per-attribute
/// dictionaries plus the flat-vs-hashed path decision.
struct GroupPlan {
    /// Dictionaries in `query.group_by` order. Shorter than the query's
    /// group-by list only when a build error occurred (see `error`).
    dicts: Vec<GroupKeyDict>,
    /// A dictionary build error, replayed with the serial reference's
    /// per-row semantics: the scan reports it at the first row that
    /// passes selection and reaches the failing attribute — so a query
    /// that matches no rows succeeds exactly where the serial loop does.
    error: Option<(usize, OlapError)>,
    /// Product of the dictionary sizes — the mixed-radix range of a
    /// packed group id. `None` when it overflows `u128` (keys fall back
    /// to [`GroupId::Wide`]).
    cardinality: Option<u128>,
    /// `Some(total slots)` when the morsels accumulate into flat per-slot
    /// vectors (cardinality under the configured limit, every measure
    /// numeric); `None` uses the integer-keyed hash fallback.
    flat: Option<usize>,
}

impl GroupPlan {
    /// An empty plan for ungrouped queries.
    fn ungrouped() -> Self {
        GroupPlan {
            dicts: Vec::new(),
            error: None,
            cardinality: Some(1),
            flat: None,
        }
    }

    /// Resolves a group id back to its key `CellValue`s — the only point
    /// where the parallel path materialises key cells, once per surviving
    /// group at finalisation.
    fn decode(&self, id: &GroupId) -> Vec<CellValue> {
        match id {
            GroupId::Packed(value) => {
                let mut value = *value;
                let mut cells = vec![CellValue::Null; self.dicts.len()];
                for (cell, dict) in cells.iter_mut().zip(&self.dicts).rev() {
                    let radix = dict.keys.key_values.len() as u128;
                    *cell = dict.keys.key_values[(value % radix) as usize].clone();
                    value /= radix;
                }
                cells
            }
            GroupId::Wide(ids) => ids
                .iter()
                .zip(&self.dicts)
                .map(|(&dense, dict)| dict.keys.key_values[dense as usize].clone())
                .collect(),
        }
    }
}

/// A group key on the parallel path: per-attribute dense ids packed into
/// one mixed-radix integer, or the raw dense-id tuple when the packed
/// range would overflow `u128` (astronomical cardinalities only). Never a
/// string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupId {
    Packed(u128),
    Wide(Box<[u32]>),
}

/// The group state of one morsel's partial aggregate. Key cells are
/// never materialised here — the merge phase works entirely on integers
/// and decodes the surviving groups once at finalisation.
enum MorselGroups {
    /// Integer group ids → accumulator states, in first-occurrence order
    /// (the vectorised-ungrouped and hashed paths).
    Keyed(Vec<(GroupId, Vec<Accumulator>)>),
    /// The flat dense-slot path: the touched slots in first-occurrence
    /// order plus, per measure, the slots' kernel partials (parallel to
    /// `touched`). Merging is a slot-indexed [`NumericAgg::merge`] into
    /// flat totals — no hashing, no per-group allocation.
    Flat {
        touched: Vec<u32>,
        partials: Vec<Vec<NumericAgg>>,
    },
}

/// The partial aggregate of one morsel.
struct MorselPartial {
    groups: MorselGroups,
    facts_scanned: usize,
    facts_matched: usize,
}

/// One resolved member of a query batch.
struct BatchQuery<'q> {
    /// Position in the caller's batch — results go back in input order.
    index: usize,
    query: &'q Query,
    resolved: Resolved<'q>,
    plan: GroupPlan,
    /// The query's filter class (index into its fact group's class
    /// list).
    class: usize,
}

/// One filter class of a fact group: the member queries whose canonical
/// filter identity coincides, so each morsel materialises one selection
/// vector for all of them.
struct FilterClass {
    /// Index (into the group's query list) of the representative whose
    /// resolved filter state drives the shared selection. Any member
    /// would do — equal class keys imply equal selection semantics.
    rep: usize,
    /// No view restriction and no filters: the selection is exactly the
    /// live-run structure of the morsel, with no per-row work at all
    /// (the batch analogue of the vectorised path's unrestricted fast
    /// path, here available to every execution path).
    unrestricted: bool,
    /// Every member runs the vectorised ungrouped path, which consumes
    /// contiguous runs directly — an unrestricted class then never
    /// materialises the selection vector itself.
    runs_only: bool,
}

/// The queries of one batch that aggregate the same fact, sharing that
/// fact's single morsel pass.
struct FactGroup<'q> {
    fact: &'q str,
    queries: Vec<BatchQuery<'q>>,
    classes: Vec<FilterClass>,
}

/// The canonical filter identity of a query: dimension filters sorted
/// by dimension name (they are conjunctive, so order is irrelevant —
/// the same normalisation [`Query::canonical_key`] applies) plus the
/// fact filter. Queries with equal keys resolve to identical allowed
/// member sets against the same snapshot, and therefore select
/// identical rows with identical counters and per-row errors.
fn filter_class_key(query: &Query) -> String {
    let mut filters: Vec<&(String, crate::filter::Filter)> =
        query.dimension_filters.iter().collect();
    filters.sort_by(|a, b| a.0.cmp(&b.0));
    format!("{filters:?}|{:?}", query.fact_filter)
}

/// The stage family an observed execution records under: the pipeline
/// is the same, the family keeps pivots and dashboards apart in the
/// stage histograms and the slow-query journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageFamily {
    /// A single query (a pivot): [`Stage::QueryResolve`] ..
    /// [`Stage::QueryFinalize`], journaled with the query's shape.
    Query,
    /// A dashboard batch: [`Stage::BatchResolve`] ..
    /// [`Stage::BatchFinalize`], journaled as `batch:{fact}×{queries}`
    /// per fact group.
    Batch,
}

impl StageFamily {
    /// The family's end-to-end stage, recorded by the caller around
    /// admission, waits, the cache and the execution.
    pub fn total(self) -> Stage {
        match self {
            StageFamily::Query => Stage::QueryTotal,
            StageFamily::Batch => Stage::BatchTotal,
        }
    }

    /// The resolve / scan / merge / finalize stages, in that order.
    fn phases(self) -> [Stage; 4] {
        match self {
            StageFamily::Query => [
                Stage::QueryResolve,
                Stage::QueryScan,
                Stage::QueryMerge,
                Stage::QueryFinalize,
            ],
            StageFamily::Batch => [
                Stage::BatchResolve,
                Stage::BatchScan,
                Stage::BatchMerge,
                Stage::BatchFinalize,
            ],
        }
    }

    /// The journal shape of one fact group.
    fn shape(self, group: &FactGroup<'_>) -> String {
        match (self, group.queries.as_slice()) {
            (StageFamily::Query, [only]) => query_shape(only.query),
            _ => format!("batch:{}×{}", group.fact, group.queries.len()),
        }
    }
}

/// Observability context for an observed execution: where to record
/// per-stage latency samples, the session class they are keyed by, the
/// snapshot generation (journaled alongside slow queries) and the stage
/// family the request records under.
///
/// `Copy` by design — callers pass it down per request; the engine
/// itself stays stateless. A context whose registry is disabled is
/// dropped at the entry point, so the pipeline takes zero clock reads in
/// that case.
#[derive(Debug, Clone, Copy)]
pub struct QueryObs<'a> {
    /// Registry stage samples are recorded into.
    pub registry: &'a MetricsRegistry,
    /// Session class the query runs under (`ClassId::DEFAULT` when the
    /// session is unclassified).
    pub class: ClassId,
    /// Snapshot generation the query executes against.
    pub generation: u64,
    /// The stage family the request records under.
    pub family: StageFamily,
}

/// Per-call inputs of [`QueryEngine::execute`] besides the cube and the
/// queries. The default runs unpersonalized, builds group-key
/// dictionaries per call, records nothing and enforces the engine
/// config's deadline.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions<'a> {
    /// The personalized view (the `SelectInstance` selection) every
    /// query runs through; only fact rows visible through it take part.
    pub view: &'a InstanceView,
    /// A group-key dictionary cache plus the generation the cube was
    /// published at, so group-by dictionaries are reused across calls
    /// (within one call they are shared per attribute anyway).
    pub dicts: Option<(&'a GroupDictCache, u64)>,
    /// Stage timing and slow-query journaling (see [`QueryObs`]).
    pub obs: Option<QueryObs<'a>>,
    /// The token the scan checks between morsels, typically carrying a
    /// deadline that also covers the caller's admission waits. `None`
    /// creates one from [`ExecutionConfig::deadline`].
    pub cancel: Option<&'a CancelToken>,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            view: &UNRESTRICTED,
            dicts: None,
            obs: None,
            cancel: None,
        }
    }
}

impl<'a> ExecOptions<'a> {
    /// Default options executing through `view`.
    pub fn with_view(view: &'a InstanceView) -> Self {
        ExecOptions {
            view,
            ..ExecOptions::default()
        }
    }
}

/// Runs one fact group's morsel loop on the calling thread plus, when
/// the engine has a pool, up to `helpers` of its workers, collecting
/// every participant's partials. Collection order across participants is
/// arbitrary — [`merge_partials`] sorts by morsel index, which is what
/// keeps pooled execution bit-identical to inline execution regardless
/// of how many helpers the scheduler actually dispatched.
///
/// A participant panic (helper or caller) is contained by poisoning the
/// token instead of unwinding into the caller; the executor turns the
/// poisoned token into a typed error after the join, so partials
/// collected here are never merged in that case — recovering the
/// collector lock below is therefore safe.
fn run_participants<T: Send>(
    pool: Option<&MorselPool>,
    tenant: ClassId,
    helpers: usize,
    cancel: &CancelToken,
    scan: &(impl Fn() -> Vec<T> + Sync),
) -> Vec<T> {
    let collected: std::sync::Mutex<Vec<T>> = std::sync::Mutex::new(Vec::new());
    let work = || {
        let partials = scan();
        collected
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .extend(partials);
    };
    match pool {
        Some(pool) => pool.scan_cancellable(tenant, helpers, cancel, &work),
        None => {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).is_err() {
                cancel.poison();
            }
        }
    }
    collected
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The journal's outcome marker for an abnormal terminal state.
fn journal_outcome(error: &OlapError) -> &'static str {
    match error {
        OlapError::DeadlineExceeded => sdwp_obs::OUTCOME_DEADLINE_EXCEEDED,
        _ => sdwp_obs::OUTCOME_PANICKED,
    }
}

/// Advances an optional stage clock, returning the microseconds elapsed
/// since the previous lap (0 when timing is off).
#[inline]
fn lap(clock: &mut Option<Instant>) -> u64 {
    match clock {
        Some(prev) => {
            let now = Instant::now();
            let micros = now.duration_since(*prev).as_micros() as u64;
            *prev = now;
            micros
        }
        None => 0,
    }
}

/// Compact description of a query for the slow-query journal.
fn query_shape(query: &Query) -> String {
    let groups: Vec<&str> = query
        .group_by
        .iter()
        .map(|attr| attr.attribute.as_str())
        .collect();
    format!(
        "{} group_by=[{}] measures={} filters={}",
        query.fact,
        groups.join(","),
        query.measures.len(),
        query.dimension_filters.len() + usize::from(query.fact_filter.is_some())
    )
}

/// Executes [`Query`]s against a [`Cube`], optionally through an
/// [`InstanceView`] (the personalized selection produced by the
/// `SelectInstance` action).
///
/// An engine configured for more than one worker owns (or shares, see
/// [`QueryEngine::with_pool`]) a [`MorselPool`]; a one-worker engine
/// runs every scan inline on the calling thread.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    config: ExecutionConfig,
    /// The morsel worker pool parallel scans run on: the calling thread
    /// always scans, and up to `workers - 1` pool workers join it.
    /// `None` exactly when the engine runs inline.
    pool: Option<Arc<MorselPool>>,
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine::with_config(ExecutionConfig::default())
    }
}

impl QueryEngine {
    /// Creates a query engine with the default (parallel) configuration.
    pub fn new() -> Self {
        QueryEngine::default()
    }

    /// Creates a query engine with an explicit execution configuration.
    /// When the configuration resolves to more than one worker, the
    /// engine owns a private [`MorselPool`] of `workers - 1` helpers
    /// (spawned once, joined when the last clone of the engine drops).
    pub fn with_config(config: ExecutionConfig) -> Self {
        let helpers = config.effective_workers() - 1;
        let pool = (helpers > 0)
            .then(|| Arc::new(MorselPool::new(PoolConfig::default().with_workers(helpers))));
        QueryEngine { config, pool }
    }

    /// Creates a query engine whose parallel scans run on a shared
    /// [`MorselPool`] (typically one carrying a metrics registry and
    /// per-tenant policies): the calling thread always scans, and up to
    /// `workers - 1` pool workers join it subject to the pool's
    /// per-tenant scheduling. Results are bit-identical to an owned
    /// pool and to inline execution (enforced by the `pool_equivalence`
    /// property suite).
    pub fn with_pool(config: ExecutionConfig, pool: Arc<MorselPool>) -> Self {
        QueryEngine {
            config,
            pool: Some(pool),
        }
    }

    /// The morsel pool, when this engine executes on one.
    pub fn pool(&self) -> Option<&Arc<MorselPool>> {
        self.pool.as_ref()
    }

    /// The engine's execution configuration.
    pub fn config(&self) -> &ExecutionConfig {
        &self.config
    }

    /// Executes a batch of queries against one snapshot in a single
    /// shared morsel pass over each fact table (the GLADE-style
    /// multi-query scan); a single query is a batch of one.
    ///
    /// Queries are resolved up front (sharing group-key dictionaries per
    /// attribute) and grouped by fact; each fact's rows are scanned
    /// **once**, with one selection vector per morsel and *filter class*
    /// (queries whose canonicalised filters coincide) feeding every
    /// member's own accumulation path (vectorised / flat-slot / hashed).
    /// Per-query partials merge in morsel-index order, so a result
    /// depends on the cube, query, view and
    /// [`ExecutionConfig::morsel_rows`] only — not on the worker count or
    /// the batch mates — and equals
    /// [`QueryEngine::execute_serial_with_view`] up to float summation
    /// order (enforced by the equivalence property suites).
    ///
    /// Results are positional (`results[i]` answers `queries[i]`); a
    /// query's resolution or scan error stays in its own slot. Every
    /// participant checks the [`ExecOptions::cancel`] token between
    /// morsels; a token that trips (deadline or contained panic) fails
    /// the current and every not-yet-scanned fact group with the typed
    /// [`OlapError::DeadlineExceeded`] / [`OlapError::ExecutionPanicked`]
    /// and **no partial state**, while completed groups keep their
    /// results. With [`ExecOptions::obs`] naming an enabled registry,
    /// resolution records once and each fact group records its scan,
    /// merge and finalize stages, journaling slow or cancelled groups;
    /// without it the pipeline takes no clock reads.
    pub fn execute(
        &self,
        cube: &Cube,
        queries: &[Query],
        options: &ExecOptions<'_>,
    ) -> Vec<Result<QueryResult, OlapError>> {
        let config_token =
            CancelToken::with_deadline(self.config.deadline.map(|budget| Instant::now() + budget));
        let cancel = options.cancel.unwrap_or(&config_token);
        let view = options.view;
        // The tenant class keys pool scheduling even when the registry
        // is disabled, so capture it before the enabled filter.
        let tenant = options.obs.map(|o| o.class).unwrap_or_default();
        let obs = options.obs.filter(|o| o.registry.is_enabled());
        let [resolve_stage, scan_stage, merge_stage, finalize_stage] =
            obs.map_or(StageFamily::Query, |o| o.family).phases();
        let mut clock = obs.map(|_| Instant::now());
        let mut results: Vec<Option<Result<QueryResult, OlapError>>> =
            (0..queries.len()).map(|_| None).collect();

        // Phase 1: resolve and plan every query up front. Resolution
        // errors land in their result slot immediately; the scan only
        // sees the survivors. Group-key dictionaries are memoised per
        // attribute across the whole call (and served from `dicts`
        // across calls, when given). `GroupKeys::build` is
        // deterministic, so every source yields interchangeable
        // dictionaries (and, for a broken attribute, the same error).
        let mut shared_keys: FxHashMap<(String, String, String), Arc<GroupKeys>> =
            FxHashMap::default();
        let mut lookup = |cube: &Cube, attr: &AttributeRef| -> Result<Arc<GroupKeys>, OlapError> {
            let key = attr_key(attr);
            if let Some(keys) = shared_keys.get(&key) {
                return Ok(Arc::clone(keys));
            }
            let keys = match options.dicts {
                Some((cache, generation)) => cache.get_or_build(generation, cube, attr)?,
                None => Arc::new(GroupKeys::build(cube, attr)?),
            };
            shared_keys.insert(key, Arc::clone(&keys));
            Ok(keys)
        };
        let mut groups_by_fact: Vec<FactGroup<'_>> = Vec::new();
        let mut fact_index: HashMap<&str, usize> = HashMap::new();
        for (index, query) in queries.iter().enumerate() {
            let resolved = match injected("query.resolve").and_then(|()| resolve(cube, query)) {
                Ok(resolved) => resolved,
                Err(error) => {
                    results[index] = Some(Err(error));
                    continue;
                }
            };
            let fact_table = &cube
                .fact_table(&query.fact)
                .expect("resolve validated the fact")
                .table;
            let plan = if query.group_by.is_empty() {
                GroupPlan::ungrouped()
            } else {
                build_group_plan(
                    cube,
                    query,
                    fact_table,
                    &resolved,
                    self.config.group_slot_limit,
                    &mut lookup,
                )
            };
            let at = *fact_index.entry(query.fact.as_str()).or_insert_with(|| {
                groups_by_fact.push(FactGroup {
                    fact: query.fact.as_str(),
                    queries: Vec::new(),
                    classes: Vec::new(),
                });
                groups_by_fact.len() - 1
            });
            groups_by_fact[at].queries.push(BatchQuery {
                index,
                query,
                resolved,
                plan,
                class: 0,
            });
        }

        // Phase 2: assign filter classes within each fact group. Two
        // queries land in the same class exactly when their canonical
        // filter identity coincides — identical allowed member sets,
        // identical counters, identical per-row selection errors — so one
        // selection vector per morsel serves the whole class.
        for group in &mut groups_by_fact {
            let mut class_ids: HashMap<String, usize> = HashMap::new();
            for j in 0..group.queries.len() {
                let key = filter_class_key(group.queries[j].query);
                let class = match class_ids.entry(key) {
                    Entry::Occupied(entry) => {
                        let class = *entry.get();
                        group.classes[class].runs_only &= group.queries[j].resolved.vectorised;
                        class
                    }
                    Entry::Vacant(entry) => {
                        let class = group.classes.len();
                        let member = &group.queries[j];
                        group.classes.push(FilterClass {
                            rep: j,
                            unrestricted: view.is_unrestricted()
                                && member.resolved.allowed_members.is_empty()
                                && member.query.fact_filter.is_none(),
                            runs_only: member.resolved.vectorised,
                        });
                        entry.insert(class);
                        class
                    }
                };
                group.queries[j].class = class;
            }
        }
        let resolve_micros = lap(&mut clock);
        if let Some(o) = obs {
            o.registry
                .record_micros(resolve_stage, o.class, resolve_micros);
        }

        // Phase 3: one morsel-parallel pass per fact group, every
        // participant producing all member queries' partials for its
        // morsels; then per-query merges in morsel order.
        for group in &groups_by_fact {
            let fact_table = &cube
                .fact_table(group.fact)
                .expect("resolve validated the fact")
                .table;
            let total_rows = fact_table.len();
            let morsel_rows = self.config.morsel_rows.max(1);
            let morsel_count = total_rows.div_ceil(morsel_rows);
            let workers = self
                .config
                .effective_workers()
                .clamp(1, morsel_count.max(1));
            let next_morsel = AtomicUsize::new(0);
            let scan_morsels = || {
                scan_claimed_morsels(
                    cube,
                    view,
                    group,
                    fact_table,
                    &next_morsel,
                    morsel_count,
                    morsel_rows,
                    total_rows,
                    cancel,
                )
            };
            let pool = self.pool.as_deref().filter(|_| workers > 1);
            let collected = run_participants(pool, tenant, workers - 1, cancel, &scan_morsels);
            let mut per_query: Vec<Vec<(usize, Result<MorselPartial, OlapError>)>> = group
                .queries
                .iter()
                .map(|_| Vec::with_capacity(morsel_count))
                .collect();
            for (morsel, parts) in collected {
                for (j, part) in parts.into_iter().enumerate() {
                    per_query[j].push((morsel, part));
                }
            }
            let scan_micros = lap(&mut clock);
            // Terminal-state check, not a clock check: a deadline that
            // expires *after* the last morsel was scanned no longer fails
            // the group, but a tripped token means morsel indices were
            // consumed without being scanned — merging would silently
            // produce wrong results. The group's members (and every
            // group not yet scanned) fail with the typed error; groups
            // that already finished keep their results.
            let terminal = cancel.terminal_error();
            let (merge_micros, finalize_micros) = match &terminal {
                Some(error) => {
                    for slot in results.iter_mut().filter(|slot| slot.is_none()) {
                        *slot = Some(Err(error.clone()));
                    }
                    (0, 0)
                }
                None => {
                    // Merge every member's partials first, materialise
                    // second, so the two phases time separately (merges
                    // and materialisations are independent per member).
                    let merged: Vec<_> = group
                        .queries
                        .iter()
                        .zip(per_query)
                        .map(|(member, partials)| {
                            injected("query.merge")?;
                            merge_partials(&member.resolved, &member.plan, partials)
                        })
                        .collect();
                    let merge_micros = lap(&mut clock);
                    for (member, outcome) in group.queries.iter().zip(merged) {
                        results[member.index] = Some(outcome.map(|(rows, scanned, matched)| {
                            materialise(member.query, &member.resolved, rows, scanned, matched)
                        }));
                    }
                    (merge_micros, lap(&mut clock))
                }
            };
            // An abnormal exit is journaled unconditionally (slow or not)
            // with its terminal stage marked, so cancelled and panicked
            // queries never vanish from the operator's view.
            if let Some(o) = obs {
                o.registry.record_micros(scan_stage, o.class, scan_micros);
                if terminal.is_none() {
                    o.registry.record_micros(merge_stage, o.class, merge_micros);
                    o.registry
                        .record_micros(finalize_stage, o.class, finalize_micros);
                }
                let total_micros = resolve_micros + scan_micros + merge_micros + finalize_micros;
                let journal = o.registry.journal();
                if terminal.is_some() || journal.is_slow(total_micros) {
                    journal.record(SlowQueryRecord {
                        shape: o.family.shape(group),
                        class: o.registry.class_name(o.class),
                        generation: o.generation,
                        workers,
                        resolve_micros,
                        scan_micros,
                        merge_micros,
                        finalize_micros,
                        total_micros,
                        outcome: terminal
                            .as_ref()
                            .map_or(sdwp_obs::OUTCOME_COMPLETED, journal_outcome)
                            .to_string(),
                    });
                }
            }
            if terminal.is_some() {
                break;
            }
        }
        results
            .into_iter()
            .map(|result| result.expect("every query resolved or executed"))
            .collect()
    }

    /// Executes a query through a view with the classic single-threaded
    /// row-at-a-time loop. This is the reference implementation (the
    /// test oracle) the equivalence property suites compare
    /// [`QueryEngine::execute`] against.
    pub fn execute_serial_with_view(
        &self,
        cube: &Cube,
        query: &Query,
        view: &InstanceView,
    ) -> Result<QueryResult, OlapError> {
        let resolved = resolve(cube, query)?;
        let fact_table = &cube.fact_table(&query.fact)?.table;
        let mut key_cache: Vec<HashMap<usize, CellValue>> =
            vec![HashMap::new(); query.group_by.len()];
        let mut groups: GroupMap = HashMap::new();
        let (facts_scanned, facts_matched) = scan_range(
            cube,
            query,
            view,
            &resolved,
            fact_table,
            0..fact_table.len(),
            &mut key_cache,
            &mut groups,
        )?;
        let rows = groups.into_values().collect();
        Ok(materialise(
            query,
            &resolved,
            rows,
            facts_scanned,
            facts_matched,
        ))
    }
}

/// Evaluates a failpoint whose armed `Error` action becomes the typed
/// [`OlapError::InvalidQuery`] of the query (or morsel) at the site.
/// Compiles to `Ok(())` without the `failpoints` feature.
#[inline(always)]
fn injected(site: &str) -> Result<(), OlapError> {
    #[cfg(feature = "failpoints")]
    {
        if let Some(message) = crate::fault::eval(site) {
            return Err(OlapError::InvalidQuery {
                message: format!("injected: {message}"),
            });
        }
    }
    let _ = site;
    Ok(())
}

/// Validates the query against the cube's schema and pre-computes the
/// allowed member sets of every filtered dimension. Shared by the
/// parallel pipeline and the serial reference so both report identical
/// errors for invalid queries.
fn resolve<'q>(cube: &Cube, query: &'q Query) -> Result<Resolved<'q>, OlapError> {
    let fact_def = cube
        .schema()
        .fact(&query.fact)
        .ok_or_else(|| OlapError::UnknownElement {
            kind: "fact",
            name: query.fact.clone(),
        })?;
    if query.measures.is_empty() {
        return Err(OlapError::InvalidQuery {
            message: "a query needs at least one measure".into(),
        });
    }

    // Resolve measures: (column name, aggregation) plus the executor's
    // read plan. A measure column missing from the fact table (it cannot
    // happen for cubes built through `Cube::new`) keeps `column: None`
    // and falls back to the name-based read, which reports the same
    // error, in the same place, as the serial reference.
    let fact_table = &cube.fact_table(&query.fact)?.table;
    let mut measures: Vec<(String, AggregationFunction)> = Vec::new();
    let mut plans: Vec<MeasurePlan> = Vec::new();
    for m in &query.measures {
        let def = fact_def
            .measure(&m.measure)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "measure",
                name: m.measure.clone(),
            })?;
        let aggregation = m.aggregation.unwrap_or(def.aggregation);
        let column = fact_table.column_index(&def.name);
        let numeric = aggregation != AggregationFunction::CountDistinct
            && column
                .map(|idx| {
                    matches!(
                        fact_table.column_at(idx).column_type(),
                        ColumnType::Integer | ColumnType::Float | ColumnType::Date
                    )
                })
                .unwrap_or(false);
        measures.push((def.name.clone(), aggregation));
        plans.push(MeasurePlan { column, numeric });
    }

    // Validate group-by references and check the dimensions are reachable.
    for key in &query.group_by {
        if !fact_def.references_dimension(&key.dimension) {
            return Err(OlapError::InvalidQuery {
                message: format!(
                    "fact '{}' is not analysed by dimension '{}'",
                    fact_def.name, key.dimension
                ),
            });
        }
        let dim =
            cube.schema()
                .dimension(&key.dimension)
                .ok_or_else(|| OlapError::UnknownElement {
                    kind: "dimension",
                    name: key.dimension.clone(),
                })?;
        let level = dim
            .level(&key.level)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "level",
                name: key.level.clone(),
            })?;
        if level.attribute(&key.attribute).is_none() {
            return Err(OlapError::UnknownElement {
                kind: "attribute",
                name: format!("{}.{}", key.level, key.attribute),
            });
        }
    }

    // Pre-compute allowed member sets for every filtered dimension, with
    // the FK column index pre-resolved for the parallel path's typed
    // reads.
    let mut allowed_members: BTreeMap<&str, (Option<usize>, BTreeSet<usize>)> = BTreeMap::new();
    for (dimension, filter) in &query.dimension_filters {
        if !fact_def.references_dimension(dimension) {
            return Err(OlapError::InvalidQuery {
                message: format!(
                    "filtered dimension '{dimension}' is not referenced by fact '{}'",
                    fact_def.name
                ),
            });
        }
        let table = &cube.dimension_table(dimension)?.table;
        let matching: BTreeSet<usize> = filter.matching_rows(table)?.into_iter().collect();
        match allowed_members.entry(dimension.as_str()) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let intersection: BTreeSet<usize> =
                    e.get().1.intersection(&matching).copied().collect();
                e.get_mut().1 = intersection;
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert((fact_table.column_index(&fk_column(dimension)), matching));
            }
        }
    }

    let vectorised = query.group_by.is_empty() && plans.iter().all(|p| p.numeric);
    Ok(Resolved {
        measures,
        plans,
        allowed_members,
        vectorised,
    })
}

/// Builds the grouped execution plan: one dense dictionary per group-by
/// attribute (obtained through `lookup` — built, memoised within the
/// call, or served from the generation-keyed cache) plus the
/// flat-vs-hashed decision. Never fails — a dictionary that cannot be
/// built (a schema attribute with no backing column, impossible for cubes
/// loaded through [`Cube`]'s constructors) is recorded and replayed with
/// the serial reference's per-row error semantics.
fn build_group_plan(
    cube: &Cube,
    query: &Query,
    fact_table: &Table,
    resolved: &Resolved<'_>,
    group_slot_limit: usize,
    lookup: &mut impl FnMut(&Cube, &AttributeRef) -> Result<Arc<GroupKeys>, OlapError>,
) -> GroupPlan {
    let mut dicts = Vec::with_capacity(query.group_by.len());
    let mut error = None;
    for (index, attr) in query.group_by.iter().enumerate() {
        let fk_column = fact_table.column_index(&fk_column(&attr.dimension));
        match lookup(cube, attr) {
            Ok(keys) => dicts.push(GroupKeyDict { fk_column, keys }),
            Err(e) => {
                error = Some((index, e));
                break;
            }
        }
    }
    let cardinality = dicts.iter().try_fold(1u128, |product, dict| {
        product.checked_mul(dict.keys.key_values.len() as u128)
    });
    let flat = match (&error, cardinality) {
        (None, Some(slots))
            if resolved.plans.iter().all(|p| p.numeric)
                && slots <= group_slot_limit.min(u32::MAX as usize) as u128 =>
        {
            Some(slots as usize)
        }
        _ => None,
    };
    GroupPlan {
        dicts,
        error,
        cardinality,
        flat,
    }
}

/// Scans one contiguous row range, accumulating into `groups` — the
/// row-at-a-time **serial reference**: every value goes through
/// [`Table::get`]'s `CellValue` materialisation. The morsel pipeline's
/// typed and vectorised scans ([`scan_group_morsel`]) must stay observably
/// equivalent to this loop — same groups, same counters, same error for
/// the same first failing row — which the storage-equivalence and
/// parallel-equivalence property suites enforce.
#[allow(clippy::too_many_arguments)]
fn scan_range(
    cube: &Cube,
    query: &Query,
    view: &InstanceView,
    resolved: &Resolved<'_>,
    fact_table: &Table,
    rows: Range<usize>,
    key_cache: &mut [HashMap<usize, CellValue>],
    groups: &mut GroupMap,
) -> Result<(usize, usize), OlapError> {
    let mut facts_scanned = 0usize;
    let mut facts_matched = 0usize;
    for fact_row in rows {
        // Retracted rows are invisible to every query (and not counted as
        // scanned). Shared by the serial reference and each parallel
        // morsel, so the two executors stay equivalent mid-ingest by
        // construction.
        if !fact_table.is_live(fact_row) {
            continue;
        }
        if !view.allows_fact_row(cube, &query.fact, fact_row)? {
            continue;
        }
        facts_scanned += 1;

        // Dimension filters (the classic name-based member read — the
        // reference the typed parallel path is measured against).
        let mut passes = true;
        for (dimension, (_, allowed)) in &resolved.allowed_members {
            let member = cube.fact_member(&query.fact, fact_row, dimension)?;
            if !allowed.contains(&member) {
                passes = false;
                break;
            }
        }
        if !passes {
            continue;
        }
        // Fact filter.
        if let Some(filter) = &query.fact_filter {
            if !filter.matches(fact_table, fact_row)? {
                continue;
            }
        }
        facts_matched += 1;

        // Build the group key.
        let mut key_cells = Vec::with_capacity(query.group_by.len());
        let mut key_string = String::new();
        for (i, attr) in query.group_by.iter().enumerate() {
            let member = cube.fact_member(&query.fact, fact_row, &attr.dimension)?;
            let cell = match key_cache[i].get(&member) {
                Some(c) => c.clone(),
                None => {
                    let table = &cube.dimension_table(&attr.dimension)?.table;
                    let cell =
                        table.get(member, &attribute_column(&attr.level, &attr.attribute))?;
                    key_cache[i].insert(member, cell.clone());
                    cell
                }
            };
            // Length-prefix each attribute's key so the concatenation is
            // injective even when a text key itself contains the
            // separator — keeping the serial reference's grouping
            // identical to the dense-id parallel path, which keys each
            // attribute independently.
            let key = cell.group_key();
            key_string.push_str(&key.len().to_string());
            key_string.push('\u{1f}');
            key_string.push_str(&key);
            key_cells.push(cell);
        }

        let entry = groups.entry(key_string).or_insert_with(|| {
            (
                key_cells.clone(),
                resolved
                    .measures
                    .iter()
                    .map(|(_, agg)| Accumulator::new(*agg))
                    .collect(),
            )
        });
        for ((column, _), acc) in resolved.measures.iter().zip(entry.1.iter_mut()) {
            let value = fact_table.get(fact_row, column)?;
            acc.update(&value);
        }
    }
    Ok((facts_scanned, facts_matched))
}

/// Materialises one morsel's selection vector — the surviving row ids
/// after liveness, view and filter checks, through the shared
/// [`row_selected`] semantics — and returns the morsel's counters. One
/// call serves every query of a batch filter class.
fn select_rows(
    cube: &Cube,
    query: &Query,
    view: &InstanceView,
    resolved: &Resolved<'_>,
    fact_table: &Table,
    rows: Range<usize>,
    sel: &mut Vec<u32>,
) -> Result<(usize, usize), OlapError> {
    let view_check = resolve_view_check(cube, query, view)?;
    let mut facts_scanned = 0usize;
    let mut facts_matched = 0usize;
    sel.clear();
    for fact_row in rows {
        if row_selected(
            cube,
            query,
            view_check.as_ref(),
            resolved,
            fact_table,
            fact_row,
            &mut facts_scanned,
            &mut facts_matched,
        )? {
            sel.push(fact_row as u32);
        }
    }
    Ok((facts_scanned, facts_matched))
}

/// Resolves a restricted view's per-row check once per scan (FK column
/// indices and remap chain hoisted out of the row loop); `None` for an
/// unrestricted view, which admits every live row.
fn resolve_view_check<'a>(
    cube: &'a Cube,
    query: &Query,
    view: &'a InstanceView,
) -> Result<Option<ResolvedViewCheck<'a>>, OlapError> {
    if view.is_unrestricted() {
        Ok(None)
    } else {
        view.resolve_for_fact(cube, &query.fact).map(Some)
    }
}

/// A single-row typed FK read: the member id a fact row points to,
/// through a pre-resolved column index. Value-for-value identical to
/// [`Cube::fact_member`] (float round trip, clamping, error wording)
/// without the name lookup or the `CellValue` materialisation.
fn member_at(column: &Column, fact_row: usize) -> Result<usize, OlapError> {
    match column.get_number(fact_row) {
        Some(member) => Ok(member as usize),
        None => Err(OlapError::TypeMismatch {
            expected: "integer foreign key",
            found: column.get(fact_row).type_name().to_string(),
        }),
    }
}

/// One row's selection decision — liveness, view, dimension filters and
/// fact filter, with the scanned/matched counters updated in exactly the
/// serial reference's order. Shared by every morsel scan so their
/// counter and error semantics cannot drift apart. Both the view check
/// and the dimension filters go through pre-resolved FK column indices
/// (typed reads) where available.
#[allow(clippy::too_many_arguments)]
fn row_selected(
    cube: &Cube,
    query: &Query,
    view_check: Option<&ResolvedViewCheck<'_>>,
    resolved: &Resolved<'_>,
    fact_table: &Table,
    fact_row: usize,
    facts_scanned: &mut usize,
    facts_matched: &mut usize,
) -> Result<bool, OlapError> {
    if !fact_table.is_live(fact_row) {
        return Ok(false);
    }
    // An unrestricted view (no check resolved) admits every live row, so
    // skip the per-row selection/FK walk.
    if let Some(check) = view_check {
        if !check.allows(cube, &query.fact, fact_table, fact_row)? {
            return Ok(false);
        }
    }
    *facts_scanned += 1;
    for (dimension, (fk, allowed)) in &resolved.allowed_members {
        let member = match fk {
            Some(index) => member_at(fact_table.column_at(*index), fact_row)?,
            None => cube.fact_member(&query.fact, fact_row, dimension)?,
        };
        if !allowed.contains(&member) {
            return Ok(false);
        }
    }
    if let Some(filter) = &query.fact_filter {
        if !filter.matches(fact_table, fact_row)? {
            return Ok(false);
        }
    }
    *facts_matched += 1;
    Ok(true)
}

/// The dense key id of one group-by attribute for one fact row: a typed
/// FK read plus one dictionary index. Members outside the dictionary
/// (impossible through validated loads) read as `Null`, exactly what the
/// serial reference's out-of-range `Table::get` returns.
fn dense_key(
    cube: &Cube,
    query: &Query,
    dict: &GroupKeyDict,
    dimension: &str,
    fact_table: &Table,
    fact_row: usize,
) -> Result<u32, OlapError> {
    let member = match dict.fk_column {
        Some(index) => member_at(fact_table.column_at(index), fact_row)?,
        None => cube.fact_member(&query.fact, fact_row, dimension)?,
    };
    Ok(dict
        .keys
        .member_to_key
        .get(member)
        .copied()
        .unwrap_or(NULL_KEY))
}

/// The integer group id of one fact row, built attribute by attribute in
/// query order (so FK-read errors surface in the serial reference's
/// order, and a recorded dictionary-build error replays at the exact
/// attribute the serial loop would have failed on).
fn row_group_id(
    cube: &Cube,
    query: &Query,
    plan: &GroupPlan,
    fact_table: &Table,
    fact_row: usize,
) -> Result<GroupId, OlapError> {
    let mut packed: u128 = 0;
    let mut wide: Vec<u32> = Vec::new();
    if plan.cardinality.is_none() {
        wide.reserve(query.group_by.len());
    }
    for (index, attr) in query.group_by.iter().enumerate() {
        let Some(dict) = plan.dicts.get(index) else {
            let (_, error) = plan.error.as_ref().expect("missing dict implies an error");
            return Err(error.clone());
        };
        let dense = dense_key(cube, query, dict, &attr.dimension, fact_table, fact_row)?;
        match plan.cardinality {
            Some(_) => packed = packed * dict.keys.key_values.len() as u128 + u128::from(dense),
            None => wide.push(dense),
        }
    }
    Ok(match plan.cardinality {
        Some(_) => GroupId::Packed(packed),
        None => GroupId::Wide(wide.into_boxed_slice()),
    })
}

/// The integer-keyed hashed accumulation over a morsel's selection
/// vector: the fallback for group cardinalities above the flat-slot
/// limit and for measures that need full values (COUNT DISTINCT, text
/// columns). Accumulation order is the selection's ascending row order —
/// identical to [`scan_range`]'s — but group keys are dense integer ids
/// fed through the fast integer hasher ([`FxHashMap`]), and numeric
/// measures are read as bare numbers through pre-resolved column
/// indices.
fn accumulate_hashed(
    cube: &Cube,
    query: &Query,
    resolved: &Resolved<'_>,
    plan: &GroupPlan,
    fact_table: &Table,
    sel: &[u32],
    out: &mut Vec<(GroupId, Vec<Accumulator>)>,
) -> Result<(), OlapError> {
    let mut groups: FxHashMap<GroupId, usize> = FxHashMap::default();
    for &row in sel {
        let fact_row = row as usize;
        let id = row_group_id(cube, query, plan, fact_table, fact_row)?;
        let slot = match groups.entry(id) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let slot = out.len();
                out.push((
                    entry.key().clone(),
                    resolved
                        .measures
                        .iter()
                        .map(|(_, agg)| Accumulator::new(*agg))
                        .collect(),
                ));
                entry.insert(slot);
                slot
            }
        };
        let accumulators = &mut out[slot].1;
        for (i, (measure_plan, acc)) in resolved
            .plans
            .iter()
            .zip(accumulators.iter_mut())
            .enumerate()
        {
            match measure_plan.column {
                Some(index) if measure_plan.numeric => {
                    if let Some(n) = fact_table.column_at(index).get_number(fact_row) {
                        acc.update_number(n);
                    }
                }
                Some(index) => acc.update(&fact_table.column_at(index).get(fact_row)),
                None => acc.update(&fact_table.get(fact_row, &resolved.measures[i].0)?),
            }
        }
    }
    Ok(())
}

/// Reusable per-worker buffers of the flat grouped scan, sized once per
/// query (the slot vectors to the plan's total cardinality) and reset
/// between morsels through the touched-slot list — never an
/// O(cardinality) clear per morsel.
struct FlatScratch {
    /// Group slot per selected row (parallel to the selection vector,
    /// which lives outside the scratch: on the batch path one selection
    /// is shared by a whole filter class).
    slots: Vec<u32>,
    /// FK gather buffer (member ids, parallel to the selection vector).
    members: Vec<u32>,
    /// Gathered non-null measure values and their slots.
    values: Vec<f64>,
    value_slots: Vec<u32>,
    /// Per-slot group-existence flags for the current morsel (a group
    /// exists once a row matches, even if every measure value is null —
    /// the serial reference's semantics).
    slot_seen: Vec<bool>,
    /// Slots touched by the current morsel, in first-occurrence order.
    touched: Vec<u32>,
    /// Per-measure slot-backed accumulator state.
    measures: Vec<SlotAccumulator>,
}

impl FlatScratch {
    fn new(resolved: &Resolved<'_>, slots: usize) -> Self {
        FlatScratch {
            slots: Vec::new(),
            members: Vec::new(),
            values: Vec::new(),
            value_slots: Vec::new(),
            slot_seen: vec![false; slots],
            touched: Vec::new(),
            measures: resolved
                .measures
                .iter()
                .map(|(_, agg)| SlotAccumulator::new(*agg, slots))
                .collect(),
        }
    }
}

/// The flat dense-slot grouped accumulation over a morsel's selection
/// vector. Two passes, each vectorisable:
///
/// 1. resolve the FK columns through typed chunk slices
///    ([`Column::gather_members`]) and fold the per-attribute dense ids
///    into one mixed-radix **slot vector**;
/// 2. per measure, gather the column into a compacted null-free
///    `(values, slots)` pair ([`Column::gather_numeric`]) and run the
///    grouped slice kernel into the per-slot vectors.
///
/// The morsel's partial is then read out of the touched slots in
/// first-occurrence order, as per-measure [`NumericAgg`] columns the
/// merge phase adds slot-wise into live-group totals.
#[allow(clippy::too_many_arguments)]
fn accumulate_flat(
    cube: &Cube,
    query: &Query,
    resolved: &Resolved<'_>,
    plan: &GroupPlan,
    fact_table: &Table,
    sel: &[u32],
    facts_scanned: usize,
    facts_matched: usize,
    scratch: &mut FlatScratch,
) -> Result<MorselPartial, OlapError> {
    if sel.is_empty() {
        return Ok(MorselPartial {
            groups: MorselGroups::Flat {
                touched: Vec::new(),
                partials: Vec::new(),
            },
            facts_scanned,
            facts_matched,
        });
    }

    // Slot vector: one typed FK gather per attribute, folded mixed-radix.
    scratch.slots.clear();
    scratch.slots.resize(sel.len(), 0);
    for (dict, attr) in plan.dicts.iter().zip(&query.group_by) {
        scratch.members.clear();
        match dict.fk_column {
            Some(index) => fact_table
                .column_at(index)
                .gather_members(sel, &mut scratch.members)?,
            None => {
                for &row in sel {
                    let member = cube.fact_member(&query.fact, row as usize, &attr.dimension)?;
                    scratch.members.push(member.min(u32::MAX as usize) as u32);
                }
            }
        }
        let radix = dict.keys.key_values.len() as u32;
        for (slot, &member) in scratch.slots.iter_mut().zip(&scratch.members) {
            let dense = dict
                .keys
                .member_to_key
                .get(member as usize)
                .copied()
                .unwrap_or(NULL_KEY);
            *slot = *slot * radix + dense;
        }
    }

    // Group existence: a slot is born when its first row matches.
    for &slot in &scratch.slots {
        let seen = &mut scratch.slot_seen[slot as usize];
        if !*seen {
            scratch.touched.push(slot);
            *seen = true;
        }
    }

    // One kernel pass per measure over the gathered null-free pairs.
    for (measure_plan, state) in resolved.plans.iter().zip(scratch.measures.iter_mut()) {
        let index = measure_plan
            .column
            .expect("flat plans resolve every measure column");
        scratch.values.clear();
        scratch.value_slots.clear();
        fact_table.column_at(index).gather_numeric(
            sel,
            &scratch.slots,
            &mut scratch.values,
            &mut scratch.value_slots,
        );
        state.accumulate(&scratch.values, &scratch.value_slots);
    }

    // Drain the touched slots into the morsel partial (per-measure
    // `NumericAgg` columns parallel to the touched list), resetting the
    // slot state for the next morsel.
    let mut partials: Vec<Vec<NumericAgg>> = resolved
        .measures
        .iter()
        .map(|_| Vec::with_capacity(scratch.touched.len()))
        .collect();
    for &slot in &scratch.touched {
        scratch.slot_seen[slot as usize] = false;
        for (state, column) in scratch.measures.iter_mut().zip(partials.iter_mut()) {
            column.push(state.take_slot(slot as usize));
        }
    }
    let touched = std::mem::take(&mut scratch.touched);
    Ok(MorselPartial {
        groups: MorselGroups::Flat { touched, partials },
        facts_scanned,
        facts_matched,
    })
}

/// Merges each measure column's kernel partial over one run of selected
/// rows.
fn accumulate_run(
    fact_table: &Table,
    resolved: &Resolved<'_>,
    partials: &mut [NumericAgg],
    run: Range<usize>,
) {
    for (plan, partial) in resolved.plans.iter().zip(partials.iter_mut()) {
        let index = plan.column.expect("vectorised plans resolve every column");
        let part = fact_table
            .column_at(index)
            .numeric_agg(run.clone())
            .expect("vectorised plans are numeric");
        partial.merge(&part);
    }
}

/// One accumulator per measure, seeded from the kernels' partial states.
fn absorb_partials(resolved: &Resolved<'_>, partials: &[NumericAgg]) -> Vec<Accumulator> {
    resolved
        .measures
        .iter()
        .zip(partials)
        .map(|((_, agg), partial)| {
            let mut acc = Accumulator::new(*agg);
            acc.absorb(partial);
            acc
        })
        .collect()
}

/// Maximal contiguous runs of a sorted selection vector, which the
/// vectorised path feeds to the slice kernels one run at a time.
fn selection_runs(sel: &[u32]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut rows = sel.iter().map(|&row| row as usize);
    let Some(first) = rows.next() else {
        return runs;
    };
    let mut start = first;
    let mut prev = first;
    for row in rows {
        if row != prev + 1 {
            runs.push(start..prev + 1);
            start = row;
        }
        prev = row;
    }
    runs.push(start..prev + 1);
    runs
}

/// The vectorised partial of an ungrouped all-numeric query over the
/// morsel's selected-row runs (counters come from the shared class
/// selection). When nothing restricts the scan, tombstone gaps are the
/// only run boundaries and no per-row work happens at all.
fn vectorised_partial(
    fact_table: &Table,
    resolved: &Resolved<'_>,
    runs: &[Range<usize>],
    facts_scanned: usize,
    facts_matched: usize,
) -> MorselPartial {
    let mut partials: Vec<NumericAgg> = vec![NumericAgg::default(); resolved.plans.len()];
    for run in runs {
        accumulate_run(fact_table, resolved, &mut partials, run.clone());
    }
    let mut groups = Vec::new();
    if facts_matched > 0 {
        groups.push((GroupId::Packed(0), absorb_partials(resolved, &partials)));
    }
    MorselPartial {
        groups: MorselGroups::Keyed(groups),
        facts_scanned,
        facts_matched,
    }
}

/// The per-participant loop of the pipeline: pulls morsel indices from
/// the shared counter until the fact table is exhausted, scanning each
/// claimed morsel once for the whole fact group — one selection per
/// filter class, one partial per member query. A morsel that errors
/// records the error and the participant moves on, so the merge phase
/// can always report the error of the *lowest-indexed* failing morsel —
/// the same error the serial reference reports.
#[allow(clippy::too_many_arguments)]
fn scan_claimed_morsels(
    cube: &Cube,
    view: &InstanceView,
    group: &FactGroup<'_>,
    fact_table: &Table,
    next_morsel: &AtomicUsize,
    morsel_count: usize,
    morsel_rows: usize,
    total_rows: usize,
    cancel: &CancelToken,
) -> Vec<(usize, Vec<Result<MorselPartial, OlapError>>)> {
    let mut out = Vec::new();
    // Participant-local selection and flat-slot buffers, sized once and
    // reused across this participant's morsels (the slot state resets
    // through the touched list, not by clearing whole slot vectors).
    let mut sels: Vec<Vec<u32>> = group.classes.iter().map(|_| Vec::new()).collect();
    let mut scratches: Vec<Option<FlatScratch>> = group
        .queries
        .iter()
        .map(|member| {
            member
                .plan
                .flat
                .map(|slots| FlatScratch::new(&member.resolved, slots))
        })
        .collect();
    loop {
        let morsel = next_morsel.fetch_add(1, Ordering::Relaxed);
        if morsel >= morsel_count {
            break;
        }
        // Checked after the bounds check, so a trip observed here means
        // a claimed morsel index goes unscanned — which is exactly what
        // forces the executor's terminal-state bail-out. (A participant
        // arriving after exhaustion must not trip the token: the scan
        // completed.)
        if cancel.check().is_err() {
            break;
        }
        if let Err(error) = injected("query.scan.morsel") {
            out.push((
                morsel,
                group.queries.iter().map(|_| Err(error.clone())).collect(),
            ));
            continue;
        }
        let start = morsel * morsel_rows;
        let end = (start + morsel_rows).min(total_rows);
        let partials = scan_group_morsel(
            cube,
            view,
            group,
            fact_table,
            start..end,
            &mut sels,
            &mut scratches,
        );
        out.push((morsel, partials));
    }
    out
}

/// One class's shared selection outcome for one morsel.
struct ClassSelection {
    facts_scanned: usize,
    facts_matched: usize,
    /// Pre-computed live runs, present only for unrestricted classes
    /// (where they double as the selection).
    runs: Option<Vec<Range<usize>>>,
}

/// One morsel of the pipeline: selection once per filter class, then
/// each member query's own accumulation path (vectorised / flat-slot /
/// hashed) over its class's shared selection. Returns one partial per
/// member query, in group order. A selection error is the whole class's
/// error (each member would have hit it at the same row alone);
/// accumulation errors stay per query.
fn scan_group_morsel(
    cube: &Cube,
    view: &InstanceView,
    group: &FactGroup<'_>,
    fact_table: &Table,
    rows: Range<usize>,
    sels: &mut [Vec<u32>],
    scratches: &mut [Option<FlatScratch>],
) -> Vec<Result<MorselPartial, OlapError>> {
    // Phase 1: one selection per filter class.
    let mut selections: Vec<Result<ClassSelection, OlapError>> =
        Vec::with_capacity(group.classes.len());
    for (c, class) in group.classes.iter().enumerate() {
        let rep = &group.queries[class.rep];
        if class.unrestricted {
            // Tombstone gaps are the only boundaries: take the live-run
            // structure directly — no per-row work. `row_selected` with
            // no filters and an unrestricted view selects exactly the
            // live rows (and cannot error), so expanding the runs yields
            // the very vector `select_rows` would have built.
            let runs = fact_table.live_runs(rows.clone());
            let live: usize = runs.iter().map(|run| run.len()).sum();
            if !class.runs_only {
                let sel = &mut sels[c];
                sel.clear();
                for run in &runs {
                    sel.extend(run.clone().map(|row| row as u32));
                }
            }
            selections.push(Ok(ClassSelection {
                facts_scanned: live,
                facts_matched: live,
                runs: Some(runs),
            }));
        } else {
            selections.push(
                select_rows(
                    cube,
                    rep.query,
                    view,
                    &rep.resolved,
                    fact_table,
                    rows.clone(),
                    &mut sels[c],
                )
                .map(|(facts_scanned, facts_matched)| ClassSelection {
                    facts_scanned,
                    facts_matched,
                    runs: None,
                }),
            );
        }
    }

    // Phase 2: per-query accumulation over the shared selections.
    group
        .queries
        .iter()
        .zip(scratches.iter_mut())
        .map(|(member, scratch)| {
            let selection = match &selections[member.class] {
                Ok(selection) => selection,
                Err(error) => return Err(error.clone()),
            };
            let (facts_scanned, facts_matched) = (selection.facts_scanned, selection.facts_matched);
            let sel = sels[member.class].as_slice();
            if member.resolved.vectorised {
                let derived;
                let runs: &[Range<usize>] = match &selection.runs {
                    Some(runs) => runs,
                    None => {
                        derived = selection_runs(sel);
                        &derived
                    }
                };
                Ok(vectorised_partial(
                    fact_table,
                    &member.resolved,
                    runs,
                    facts_scanned,
                    facts_matched,
                ))
            } else if let Some(scratch) = scratch {
                accumulate_flat(
                    cube,
                    member.query,
                    &member.resolved,
                    &member.plan,
                    fact_table,
                    sel,
                    facts_scanned,
                    facts_matched,
                    scratch,
                )
            } else {
                let mut groups = Vec::new();
                accumulate_hashed(
                    cube,
                    member.query,
                    &member.resolved,
                    &member.plan,
                    fact_table,
                    sel,
                    &mut groups,
                )?;
                Ok(MorselPartial {
                    groups: MorselGroups::Keyed(groups),
                    facts_scanned,
                    facts_matched,
                })
            }
        })
        .collect()
}

/// Merges one query's per-morsel partials **in morsel-index order** into
/// final group rows plus the query's counters, so the query combines its
/// accumulator state (and reports the lowest-indexed morsel's error)
/// identically whatever the worker count and whatever its batch mates.
/// The merge works entirely on integer group ids; key cells are decoded
/// only for the groups that survive.
///
/// On the flat path the merge state is keyed by touched slot (a fast
/// integer-hashed index into first-occurrence-ordered live-group
/// columns), so its cost scales with the groups the morsels actually
/// produced — not with the plan's slot-space cardinality.
#[allow(clippy::type_complexity)]
fn merge_partials(
    resolved: &Resolved<'_>,
    plan: &GroupPlan,
    mut partials: Vec<(usize, Result<MorselPartial, OlapError>)>,
) -> Result<(Vec<(Vec<CellValue>, Vec<Accumulator>)>, usize, usize), OlapError> {
    partials.sort_by_key(|(morsel, _)| *morsel);
    let mut facts_scanned = 0usize;
    let mut facts_matched = 0usize;
    let rows: Vec<(Vec<CellValue>, Vec<Accumulator>)> = if plan.flat.is_some() {
        let mut slot_index: FxHashMap<u32, usize> = FxHashMap::default();
        let mut live_slots: Vec<u32> = Vec::new();
        let mut totals: Vec<Vec<NumericAgg>> = vec![Vec::new(); resolved.measures.len()];
        for (_, partial) in partials {
            let partial = partial?;
            facts_scanned += partial.facts_scanned;
            facts_matched += partial.facts_matched;
            let MorselGroups::Flat { touched, partials } = partial.groups else {
                unreachable!("flat plans produce flat partials");
            };
            for (index, &slot) in touched.iter().enumerate() {
                let at = match slot_index.entry(slot) {
                    Entry::Occupied(entry) => *entry.get(),
                    Entry::Vacant(entry) => {
                        let at = live_slots.len();
                        live_slots.push(slot);
                        for total in totals.iter_mut() {
                            total.push(NumericAgg::default());
                        }
                        entry.insert(at);
                        at
                    }
                };
                for (total, partial) in totals.iter_mut().zip(&partials) {
                    total[at].merge(&partial[index]);
                }
            }
        }
        let mut order: Vec<usize> = (0..live_slots.len()).collect();
        order.sort_unstable_by_key(|&at| live_slots[at]);
        order
            .into_iter()
            .map(|at| {
                let accumulators = resolved
                    .measures
                    .iter()
                    .zip(&totals)
                    .map(|((_, agg), total)| {
                        let mut acc = Accumulator::new(*agg);
                        acc.absorb(&total[at]);
                        acc
                    })
                    .collect();
                (
                    plan.decode(&GroupId::Packed(live_slots[at] as u128)),
                    accumulators,
                )
            })
            .collect()
    } else {
        let mut groups: FxHashMap<GroupId, Vec<Accumulator>> = FxHashMap::default();
        for (_, partial) in partials {
            let partial = partial?;
            facts_scanned += partial.facts_scanned;
            facts_matched += partial.facts_matched;
            let MorselGroups::Keyed(keyed) = partial.groups else {
                unreachable!("non-flat plans produce keyed partials");
            };
            for (key, accumulators) in keyed {
                match groups.entry(key) {
                    Entry::Vacant(entry) => {
                        entry.insert(accumulators);
                    }
                    Entry::Occupied(mut entry) => {
                        for (merged, partial_acc) in
                            entry.get_mut().iter_mut().zip(accumulators.iter())
                        {
                            merged.merge(partial_acc);
                        }
                    }
                }
            }
        }
        groups
            .into_iter()
            .map(|(id, accumulators)| (plan.decode(&id), accumulators))
            .collect()
    };
    Ok((rows, facts_scanned, facts_matched))
}

/// Finalises the group rows — `(key cells, accumulators)` pairs from
/// the pipeline or the serial reference — into a sorted, limited result.
fn materialise(
    query: &Query,
    resolved: &Resolved<'_>,
    groups: Vec<(Vec<CellValue>, Vec<Accumulator>)>,
    facts_scanned: usize,
    facts_matched: usize,
) -> QueryResult {
    let mut rows: Vec<ResultRow> = groups
        .into_iter()
        .map(|(keys, accs)| ResultRow {
            keys,
            values: accs.iter().map(Accumulator::finish).collect(),
        })
        .collect();
    rows.sort_by(|a, b| {
        let ka: Vec<String> = a.keys.iter().map(CellValue::group_key).collect();
        let kb: Vec<String> = b.keys.iter().map(CellValue::group_key).collect();
        ka.cmp(&kb)
    });
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }

    QueryResult {
        key_names: query.group_by.iter().map(|a| a.label()).collect(),
        value_names: resolved
            .measures
            .iter()
            .map(|(name, agg)| format!("{agg}({name})"))
            .collect(),
        rows,
        facts_scanned,
        facts_matched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use crate::query::AttributeRef;
    use sdwp_geometry::Point;
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};

    /// One query through [`QueryEngine::execute`], as a batch of one.
    fn run(engine: &QueryEngine, cube: &Cube, query: &Query) -> Result<QueryResult, OlapError> {
        run_with(engine, cube, query, &ExecOptions::default())
    }

    fn run_with(
        engine: &QueryEngine,
        cube: &Cube,
        query: &Query,
        options: &ExecOptions<'_>,
    ) -> Result<QueryResult, OlapError> {
        let mut results = engine.execute(cube, std::slice::from_ref(query), options);
        assert_eq!(results.len(), 1);
        results.pop().expect("one result per query")
    }

    /// The serial reference through `view`.
    fn oracle(cube: &Cube, query: &Query, view: &InstanceView) -> Result<QueryResult, OlapError> {
        QueryEngine::with_config(ExecutionConfig::serial())
            .execute_serial_with_view(cube, query, view)
    }

    /// Builds a small sales cube: 4 stores in 2 cities, 3 days, one fact
    /// row per (store, day) with UnitSales = store index + 1.
    fn sales_cube() -> Cube {
        let schema = SchemaBuilder::new("SalesDW")
            .dimension(
                DimensionBuilder::new("Store")
                    .simple_level("Store", "name")
                    .simple_level("City", "name")
                    .build(),
            )
            .dimension(
                DimensionBuilder::new("Time")
                    .level(
                        "Day",
                        vec![sdwp_model::Attribute::descriptor(
                            "date",
                            AttributeType::Date,
                        )],
                    )
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .measure_with("StoreCost", AttributeType::Float, AggregationFunction::Avg)
                    .dimension("Store")
                    .dimension("Time")
                    .build(),
            )
            .build()
            .unwrap();
        let mut cube = Cube::new(schema);
        let cities = ["Alicante", "Alicante", "Madrid", "Madrid"];
        for (i, city) in cities.iter().enumerate() {
            cube.add_dimension_member(
                "Store",
                vec![
                    ("Store.name", CellValue::from(format!("S{i}"))),
                    ("City.name", CellValue::from(*city)),
                    (
                        "Store.geometry",
                        CellValue::Geometry(Point::new(i as f64 * 10.0, 0.0).into()),
                    ),
                ],
            )
            .unwrap();
        }
        for d in 0..3 {
            cube.add_dimension_member("Time", vec![("Day.date", CellValue::Date(d))])
                .unwrap();
        }
        for s in 0..4usize {
            for d in 0..3usize {
                cube.add_fact_row(
                    "Sales",
                    vec![("Store", s), ("Time", d)],
                    vec![
                        ("UnitSales", CellValue::Float((s + 1) as f64)),
                        ("StoreCost", CellValue::Float(10.0 * (s + 1) as f64)),
                    ],
                )
                .unwrap();
            }
        }
        cube
    }

    #[test]
    fn rollup_to_city() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let result = run(&engine, &cube, &query).unwrap();
        assert_eq!(result.len(), 2);
        // Alicante: stores 0 and 1 → (1 + 2) * 3 days = 9.
        let alicante = result.find(&[CellValue::from("Alicante")]).unwrap();
        assert_eq!(alicante.values[0], CellValue::Float(9.0));
        // Madrid: stores 2 and 3 → (3 + 4) * 3 = 21.
        let madrid = result.find(&[CellValue::from("Madrid")]).unwrap();
        assert_eq!(madrid.values[0], CellValue::Float(21.0));
        assert_eq!(result.facts_scanned, 12);
        assert_eq!(result.facts_matched, 12);
    }

    #[test]
    fn grand_total_and_avg() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let query = Query::over("Sales")
            .measure("UnitSales")
            .measure("StoreCost");
        let result = run(&engine, &cube, &query).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.rows[0].values[0], CellValue::Float(30.0));
        // StoreCost uses its default AVG aggregation: mean of 10,20,30,40
        // over 3 days each = 25.
        assert_eq!(result.rows[0].values[1], CellValue::Float(25.0));
    }

    #[test]
    fn dimension_filter_slice() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "Store", "name"))
            .measure("UnitSales")
            .filter_dimension("Store", Filter::eq("City.name", "Alicante"));
        let result = run(&engine, &cube, &query).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result.facts_matched, 6);
    }

    #[test]
    fn spatial_dimension_filter() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        // Stores within 15 units of the origin: stores 0 (x=0) and 1 (x=10).
        let query = Query::over("Sales").measure("UnitSales").filter_dimension(
            "Store",
            Filter::within_km("Store.geometry", Point::new(0.0, 0.0).into(), 15.0),
        );
        let result = run(&engine, &cube, &query).unwrap();
        assert_eq!(result.rows[0].values[0], CellValue::Float(9.0));
    }

    #[test]
    fn view_restriction_is_equivalent_to_filter() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Store", vec![0, 1]);
        let query = Query::over("Sales").measure("UnitSales");
        let via_view = run_with(&engine, &cube, &query, &ExecOptions::with_view(&view)).unwrap();
        let via_filter = run(
            &engine,
            &cube,
            &Query::over("Sales")
                .measure("UnitSales")
                .filter_dimension("Store", Filter::eq("City.name", "Alicante")),
        )
        .unwrap();
        assert_eq!(via_view.rows[0].values[0], via_filter.rows[0].values[0]);
        // The view reduces the number of facts even scanned.
        assert_eq!(via_view.facts_scanned, 6);
        assert_eq!(via_filter.facts_scanned, 12);
    }

    #[test]
    fn fact_filter_on_measures() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let query = Query::over("Sales")
            .measure_agg("UnitSales", AggregationFunction::Count)
            .filter_fact(Filter::Attribute {
                column: "UnitSales".into(),
                op: crate::filter::CompareOp::Ge,
                value: CellValue::Float(3.0),
            });
        let result = run(&engine, &cube, &query).unwrap();
        // Stores 2 and 3 have UnitSales 3 and 4, over 3 days each.
        assert_eq!(result.rows[0].values[0], CellValue::Integer(6));
    }

    #[test]
    fn multi_key_grouping_and_limit() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .group_by(AttributeRef::new("Time", "Day", "date"))
            .measure("UnitSales");
        let full = run(&engine, &cube, &query).unwrap();
        assert_eq!(full.len(), 6); // 2 cities x 3 days
        let limited = run(&engine, &cube, &query.clone().limit(4)).unwrap();
        assert_eq!(limited.len(), 4);
    }

    #[test]
    fn error_cases() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        assert!(run(&engine, &cube, &Query::over("Returns").measure("UnitSales")).is_err());
        assert!(run(&engine, &cube, &Query::over("Sales")).is_err());
        assert!(run(&engine, &cube, &Query::over("Sales").measure("Profit")).is_err());
        assert!(run(
            &engine,
            &cube,
            &Query::over("Sales")
                .measure("UnitSales")
                .group_by(AttributeRef::new("Customer", "Customer", "name"))
        )
        .is_err());
        assert!(run(
            &engine,
            &cube,
            &Query::over("Sales")
                .measure("UnitSales")
                .group_by(AttributeRef::new("Store", "Country", "name"))
        )
        .is_err());
        assert!(run(
            &engine,
            &cube,
            &Query::over("Sales")
                .measure("UnitSales")
                .filter_dimension("Customer", Filter::All)
        )
        .is_err());
    }

    #[test]
    fn parallel_matches_serial_on_the_sales_cube() {
        let cube = sales_cube();
        let queries = [
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "City", "name"))
                .measure("UnitSales")
                .measure("StoreCost"),
            Query::over("Sales")
                .measure_agg("UnitSales", AggregationFunction::CountDistinct)
                .measure_agg("StoreCost", AggregationFunction::Min),
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "Store", "name"))
                .group_by(AttributeRef::new("Time", "Day", "date"))
                .measure("UnitSales")
                .limit(5),
        ];
        for workers in [1usize, 2, 8] {
            let parallel = QueryEngine::with_config(
                ExecutionConfig::default()
                    .with_workers(workers)
                    .with_morsel_rows(4),
            );
            for query in &queries {
                assert_eq!(
                    run(&parallel, &cube, query).unwrap(),
                    oracle(&cube, query, &InstanceView::unrestricted()).unwrap(),
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn parallel_preserves_view_restrictions() {
        let cube = sales_cube();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Store", vec![0, 1]);
        let query = Query::over("Sales").measure("UnitSales");
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(4)
                .with_morsel_rows(2),
        );
        let result = run_with(&engine, &cube, &query, &ExecOptions::with_view(&view)).unwrap();
        assert_eq!(result.rows[0].values[0], CellValue::Float(9.0));
        assert_eq!(result.facts_scanned, 6);
        assert_eq!(
            result,
            engine
                .execute_serial_with_view(&cube, &query, &view)
                .unwrap()
        );
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let cube = sales_cube();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales")
            .measure_agg("StoreCost", AggregationFunction::Avg);
        let engine = |workers: usize| {
            QueryEngine::with_config(
                ExecutionConfig::default()
                    .with_workers(workers)
                    .with_morsel_rows(3),
            )
        };
        let reference = run(&engine(1), &cube, &query).unwrap();
        for workers in [2usize, 3, 8] {
            let result = run(&engine(workers), &cube, &query).unwrap();
            assert_eq!(result, reference, "workers={workers}");
        }
    }

    #[test]
    fn retracted_rows_are_invisible_to_both_executors() {
        let mut cube = sales_cube();
        // Retract all three rows of store 0 and one row of store 2.
        cube.retract_fact_row("Sales", 0).unwrap();
        cube.retract_fact_row("Sales", 1).unwrap();
        cube.retract_fact_row("Sales", 2).unwrap();
        cube.retract_fact_row("Sales", 6).unwrap();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let parallel = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(4)
                .with_morsel_rows(2),
        );
        let result = run(&parallel, &cube, &query).unwrap();
        // Alicante keeps only store 1 (2.0 × 3 days); Madrid loses one
        // store-2 row (3+4)*3 - 3 = 18.
        assert_eq!(
            result.find(&[CellValue::from("Alicante")]).unwrap().values[0],
            CellValue::Float(6.0)
        );
        assert_eq!(
            result.find(&[CellValue::from("Madrid")]).unwrap().values[0],
            CellValue::Float(18.0)
        );
        assert_eq!(result.facts_scanned, 8);
        assert_eq!(
            result,
            oracle(&cube, &query, &InstanceView::unrestricted()).unwrap()
        );
    }

    #[test]
    fn parallel_reports_serial_errors() {
        let cube = sales_cube();
        let parallel = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(8)
                .with_morsel_rows(1),
        );
        let bad_queries = [
            Query::over("Returns").measure("UnitSales"),
            Query::over("Sales"),
            Query::over("Sales").measure("Profit"),
            Query::over("Sales")
                .measure("UnitSales")
                .filter_fact(Filter::eq("ghost", "x")),
        ];
        for query in &bad_queries {
            let a = run(&parallel, &cube, query).unwrap_err();
            let b = oracle(&cube, query, &InstanceView::unrestricted()).unwrap_err();
            assert_eq!(format!("{a}"), format!("{b}"));
        }
    }

    #[test]
    fn execution_config_resolution() {
        assert_eq!(ExecutionConfig::serial().effective_workers(), 1);
        assert_eq!(ExecutionConfig::default().with_workers(3).workers, 3);
        assert_eq!(
            ExecutionConfig::default().with_morsel_rows(0).morsel_rows,
            1
        );
        assert!(ExecutionConfig::default().effective_workers() >= 1);
        assert_eq!(
            ExecutionConfig::default()
                .with_cache_capacity(7)
                .cache_capacity,
            7
        );
        let engine = QueryEngine::with_config(ExecutionConfig::serial());
        assert_eq!(engine.config().workers, 1);
    }

    #[test]
    fn empty_cube_returns_empty_result() {
        let schema = SchemaBuilder::new("DW")
            .dimension(
                DimensionBuilder::new("Store")
                    .simple_level("Store", "name")
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .dimension("Store")
                    .build(),
            )
            .build()
            .unwrap();
        let cube = Cube::new(schema);
        let engine = QueryEngine::new();
        let result = run(
            &engine,
            &cube,
            &Query::over("Sales")
                .group_by(AttributeRef::new("Store", "Store", "name"))
                .measure("UnitSales"),
        )
        .unwrap();
        assert!(result.is_empty());
        assert_eq!(result.facts_scanned, 0);
    }

    /// A dashboard-style batch over the sales cube: shared filters,
    /// disjoint filters, grouped (flat), ungrouped (vectorised) and
    /// COUNT DISTINCT (hashed) members.
    fn dashboard_batch() -> Vec<Query> {
        vec![
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "City", "name"))
                .measure("UnitSales"),
            Query::over("Sales")
                .measure("UnitSales")
                .measure("StoreCost"),
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "Store", "name"))
                .measure("UnitSales")
                .filter_dimension("Store", Filter::eq("City.name", "Alicante")),
            Query::over("Sales")
                .group_by(AttributeRef::new("Time", "Day", "date"))
                .measure("StoreCost")
                .filter_dimension("Store", Filter::eq("City.name", "Alicante")),
            Query::over("Sales")
                .measure_agg("UnitSales", AggregationFunction::CountDistinct)
                .filter_dimension("Store", Filter::eq("City.name", "Madrid")),
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "City", "name"))
                .group_by(AttributeRef::new("Time", "Day", "date"))
                .measure("UnitSales")
                .limit(3),
        ]
    }

    /// Batch ≡ each member executed standalone (as a batch of one) ≡ the
    /// serial oracle, at every worker count and on both grouped paths.
    #[test]
    fn batch_matches_standalone_execution() {
        let cube = sales_cube();
        let queries = dashboard_batch();
        let view = InstanceView::unrestricted();
        for workers in [1usize, 2, 8] {
            for slot_limit in [0usize, DEFAULT_GROUP_SLOT_LIMIT] {
                let engine = QueryEngine::with_config(
                    ExecutionConfig::default()
                        .with_workers(workers)
                        .with_morsel_rows(4)
                        .with_group_slot_limit(slot_limit),
                );
                let batched = engine.execute(&cube, &queries, &ExecOptions::default());
                assert_eq!(batched.len(), queries.len());
                for (query, batched) in queries.iter().zip(&batched) {
                    let alone = run(&engine, &cube, query).unwrap();
                    assert_eq!(
                        batched.as_ref().unwrap(),
                        &alone,
                        "workers={workers} slot_limit={slot_limit}"
                    );
                    assert_eq!(alone, oracle(&cube, query, &view).unwrap());
                }
            }
        }
    }

    #[test]
    fn batch_respects_views() {
        let cube = sales_cube();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Store", vec![0, 2]);
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(4)
                .with_morsel_rows(2),
        );
        let options = ExecOptions::with_view(&view);
        let queries = dashboard_batch();
        for (query, batched) in queries
            .iter()
            .zip(engine.execute(&cube, &queries, &options))
        {
            let alone = run_with(&engine, &cube, query, &options).unwrap();
            assert_eq!(batched.unwrap(), alone);
            assert_eq!(alone, oracle(&cube, query, &view).unwrap());
        }
    }

    #[test]
    fn batch_reports_per_query_errors_without_poisoning_the_batch() {
        let cube = sales_cube();
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(2)
                .with_morsel_rows(3),
        );
        let view = InstanceView::unrestricted();
        let good = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let bad_resolution = Query::over("Sales").measure("Profit");
        let bad_scan = Query::over("Sales")
            .measure("UnitSales")
            .filter_fact(Filter::eq("ghost", "x"));
        let batch = vec![bad_resolution.clone(), good.clone(), bad_scan.clone()];
        let results = engine.execute(&cube, &batch, &ExecOptions::default());
        for (query, result) in batch.iter().zip(&results) {
            let alone = run(&engine, &cube, query);
            match (result, alone) {
                (Ok(result), Ok(alone)) => {
                    assert_eq!(result, &alone);
                    assert_eq!(alone, oracle(&cube, query, &view).unwrap());
                }
                (Err(result), Err(alone)) => {
                    assert_eq!(result.to_string(), alone.to_string());
                    let reference = oracle(&cube, query, &view).unwrap_err();
                    assert_eq!(alone.to_string(), reference.to_string());
                }
                (result, alone) => panic!("batch {result:?} vs alone {alone:?}"),
            }
        }
        assert!(results[1].is_ok());
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let cube = sales_cube();
        assert!(QueryEngine::new()
            .execute(&cube, &[], &ExecOptions::default())
            .is_empty());
    }

    #[test]
    fn batch_shares_dictionaries_through_the_cache() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let dicts = crate::dicts::GroupDictCache::new();
        let by_city = |measure: &str| {
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "City", "name"))
                .measure(measure)
        };
        let batch = vec![by_city("UnitSales"), by_city("StoreCost")];
        let options = ExecOptions {
            dicts: Some((&dicts, 1)),
            ..ExecOptions::default()
        };
        let first = engine.execute(&cube, &batch, &options);
        assert!(first.iter().all(Result::is_ok));
        // One build for the whole batch: the second query's lookup hit
        // the batch-local memo, so the cache saw a single miss.
        let stats = dicts.stats();
        assert_eq!((stats.misses, stats.entries), (1, 1));
        // A later batch at the same generation hits the cross-batch
        // cache instead of rebuilding.
        let second = engine.execute(&cube, &batch, &options);
        assert_eq!(first[0].as_ref().unwrap(), second[0].as_ref().unwrap());
        let stats = dicts.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A batch of one shares the same dictionaries.
        let alone = run_with(&engine, &cube, &batch[0], &options).unwrap();
        assert_eq!(&alone, first[0].as_ref().unwrap());
        assert_eq!(dicts.stats().hits, 2);
    }

    #[test]
    fn dict_cache_generation_semantics() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let dicts = crate::dicts::GroupDictCache::new();
        let view = InstanceView::unrestricted();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let expected = run(&engine, &cube, &query).unwrap();
        let run = |generation: u64| {
            let options = ExecOptions {
                dicts: Some((&dicts, generation)),
                ..ExecOptions::with_view(&view)
            };
            run_with(&engine, &cube, &query, &options).unwrap()
        };
        assert_eq!(run(1), expected);
        assert_eq!(dicts.stats().misses, 1);
        // A dimension-preserving publish keeps the entry hitting.
        dicts.advance(2);
        assert_eq!(run(2), expected);
        assert_eq!((dicts.stats().hits, dicts.stats().misses), (1, 1));
        // A query pinned to an older snapshot builds uncached and leaves
        // the newer entry alone.
        assert_eq!(run(1), expected);
        let stats = dicts.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        // A schema-personalization publish flushes.
        dicts.invalidate(3);
        let stats = dicts.stats();
        assert_eq!((stats.entries, stats.invalidations), (0, 1));
        assert_eq!(run(3), expected);
        assert_eq!(dicts.stats().entries, 1);
        // A lookup at a generation the cache has never seen flushes
        // conservatively and re-seeds.
        assert_eq!(run(5), expected);
        let stats = dicts.stats();
        assert_eq!((stats.entries, stats.invalidations), (1, 2));
    }
}
