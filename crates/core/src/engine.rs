//! The personalization engine: the executable version of the paper's Fig. 1
//! process, refactored for concurrent multi-session serving.
//!
//! # Concurrency model
//!
//! One engine instance serves one spatial data warehouse and any number of
//! users and sessions **from many threads at once** — every public method
//! takes `&self`, so the engine can sit behind an `Arc` and be shared by a
//! pool of web workers. Internally the state splits three ways:
//!
//! * **Read path (lock-free-ish).** Queries and reports run against an
//!   immutable cube snapshot published through [`ArcSwap`]; they never wait
//!   for rule firing. Per-session state lives in a sharded
//!   [`SessionManager`], so sessions only contend when they hash to the
//!   same shard.
//! * **Write master.** Rule firing needs `&mut Cube` (schema
//!   personalization grows the cube), so a single `Mutex<Cube>` master
//!   copy serialises rule firing. After an event whose effects changed the
//!   schema, the master is cloned once and hot-swapped into the snapshot —
//!   the additive-only personalization of the paper (layers and spatial
//!   levels only grow) makes old snapshots remain valid for readers.
//! * **Rules and parameters.** The rule set is itself an [`ArcSwap`]
//!   snapshot (the Cerberus `ArcSwap<RuleSet>` hot-swap pattern), so rules
//!   can be registered while sessions are live; designer parameters sit
//!   behind a `RwLock`.
//!
//! [`sdwp_user::ProfileStore`] was already thread-safe in the seed; this
//! module makes the rest of the stack match it.

use crate::error::CoreError;
use crate::report::PersonalizationReport;
use crate::session::{SessionManager, SessionState};
use crate::sync::{ArcSwap, VersionedSwap};
use parking_lot::{Mutex, MutexGuard, RwLock};
use sdwp_ingest::{
    BatchOutcome, CompactionOutcome, CompactionPolicy, CubeSink, DeltaBatch, IngestConfig,
    IngestHandle, IngestPipeline, IngestStats,
};
use sdwp_model::{Schema, SchemaDiff};
use sdwp_obs::{ClassId, MetricsRegistry, MetricsSnapshot, Stage};
use sdwp_olap::{
    AdmissionGuard, AdmitError, CacheKey, CacheStats, CancelToken, Cube, DictCacheStats,
    ExecOptions, ExecutionConfig, FactTableStats, GroupDictCache, InstanceView, MorselPool,
    OlapError, PoolConfig, Query, QueryCache, QueryEngine, QueryObs, QueryResult, StageFamily,
    TenantPolicy,
};
use sdwp_prml::{
    CompiledRuleSet, EvalContext, FireReport, LayerSource, NoExternalLayers, PrmlError, Rule,
    RuleClass, RuleEngine, RuntimeEvent,
};
use sdwp_user::{LocationContext, ProfileStore, Session, SessionId, UserProfile};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::slice;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared cube state: the mutex-guarded write master, the published
/// immutable snapshot and the generation-keyed result cache — everything
/// both write paths (rule firing and streaming ingestion) coordinate
/// through. Held in an `Arc` so the ingest worker thread can keep writing
/// through it with a `'static` handle while the engine serves readers.
pub(crate) struct CubeState {
    /// Write master; rule firing and delta application lock it.
    pub(crate) master: Mutex<Cube>,
    /// Published read snapshot; queries and reports load it. Every publish
    /// bumps the generation, which keys (and invalidates) the result cache.
    pub(crate) snapshot: VersionedSwap<Cube>,
    /// Snapshot-keyed result cache in front of the executor.
    pub(crate) result_cache: QueryCache,
    /// Generation-keyed group-key dictionary cache shared by every query
    /// (and every member of a batch) against a snapshot. Publishes that
    /// provably leave dimension tables untouched (ingest epochs, fact
    /// compaction) advance its generation and keep the dictionaries;
    /// schema-personalizing publishes flush it.
    pub(crate) dict_cache: GroupDictCache,
    /// The session manager, shared with the engine: compaction remaps
    /// every open session's fact-row selections right after publishing a
    /// rewritten table, keeping stored views on the version-aligned fast
    /// path.
    pub(crate) sessions: Arc<SessionManager>,
    /// Compaction versions observed by in-flight rule firings whose
    /// selection effects have not been applied to a session view yet.
    /// Together with the stored views' selection versions, this is the
    /// floor below which no remap-chain transition can be referenced any
    /// more — what lets compaction trim the chain instead of growing it
    /// forever.
    pub(crate) version_pins: VersionPins,
    /// The metrics registry both write paths record ingest-stage spans
    /// into (shared with the engine, which records the query/rule/session
    /// stages). Ingest always records under the default class — epochs
    /// serve every tenant.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Remap floors registered by external id-addressed producers, keyed
    /// `(producer, fact) → anchored compaction version`. The compaction
    /// trimmer never drops transitions below the per-fact minimum, so a
    /// producer that lags behind the compaction cadence can still
    /// translate its stale row ids instead of failing with
    /// `ProducerLagged`.
    pub(crate) producer_floors: Mutex<BTreeMap<(String, String), u64>>,
}

/// Number of independently locked pin shards. Matches the session
/// manager's shard count: pins are taken per query / per firing, so the
/// same fan-out that decontends session lookup decontends pinning.
const PIN_SHARDS: usize = 16;

/// Tracks the fact-table compaction versions in-flight rule firings
/// observed (under the master lock) until their `SelectInstance` effects
/// are applied to a session view. [`CubeState::maybe_compact`] takes the
/// minimum over these pins when deciding how far the remap chain can be
/// trimmed, so a firing's row ids can always be translated forward no
/// matter how many compactions interleave before the effects land.
///
/// Sharded by pin token (like the session map): `pin` / `release` touch
/// one shard's lock, so concurrent queries on the shared worker pool no
/// longer serialise on a single global mutex; only the compaction-side
/// `min_for` — rare by comparison — walks all shards.
pub(crate) struct VersionPins {
    next: std::sync::atomic::AtomicU64,
    shards: Vec<Mutex<BTreeMap<u64, BTreeMap<String, u64>>>>,
}

impl Default for VersionPins {
    fn default() -> Self {
        VersionPins {
            next: std::sync::atomic::AtomicU64::new(0),
            shards: (0..PIN_SHARDS)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
        }
    }
}

impl VersionPins {
    fn shard(&self, token: u64) -> &Mutex<BTreeMap<u64, BTreeMap<String, u64>>> {
        &self.shards[(token as usize) % self.shards.len()]
    }

    /// Registers a firing's observed versions; returns the pin token.
    fn pin(&self, versions: BTreeMap<String, u64>) -> u64 {
        let token = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.shard(token).lock().insert(token, versions);
        token
    }

    /// Releases a pin once the firing's effects have been applied.
    fn release(&self, token: u64) {
        self.shard(token).lock().remove(&token);
    }

    /// The oldest pinned version for a fact, when any firing is in
    /// flight. Walks every shard; shard-local minima are combined, which
    /// is exact because the global minimum is the minimum of the shard
    /// minima.
    fn min_for(&self, fact: &str) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|shard| {
                shard
                    .lock()
                    .values()
                    .filter_map(|versions| versions.get(fact).copied())
                    .min()
            })
            .min()
    }
}

/// RAII release of a firing's version pin: dropped by the caller after
/// the fire report's selection effects have been applied (or abandoned).
pub(crate) struct VersionPinGuard {
    state: Arc<CubeState>,
    token: Option<u64>,
}

impl Drop for VersionPinGuard {
    fn drop(&mut self) {
        if let Some(token) = self.token {
            self.state.version_pins.release(token);
        }
    }
}

/// The ingest side of the engine: batches are applied to the master under
/// its lock (atomically — validate first, then mutate), and epochs publish
/// a master clone through the same [`VersionedSwap`] rule firing uses, so
/// the generation-keyed cache and in-flight queries keep working unchanged.
impl CubeSink for CubeState {
    fn apply_batch(&self, batch: &DeltaBatch) -> Result<BatchOutcome, OlapError> {
        let mut master = self.master.lock();
        let validate = self.metrics.span(Stage::IngestValidate, ClassId::DEFAULT);
        batch.validate(&master)?;
        validate.finish();
        let _apply = self.metrics.span(Stage::IngestApply, ClassId::DEFAULT);
        Ok(batch.apply(&mut master))
    }

    fn publish_epoch(&self, changed_facts: &BTreeSet<String>) -> u64 {
        let _publish = self.metrics.span(Stage::IngestPublish, ClassId::DEFAULT);
        // Hold the master lock across clone, store and cache maintenance
        // so an interleaved rule firing cannot publish in between and have
        // its snapshot (or its cache flush) overtaken by this one.
        let master = self.master.lock();
        let generation = self.snapshot.store(Arc::new(master.clone()));
        // An ingest epoch only changed `changed_facts`' fact tables —
        // dimension tables and the schema are untouched — so cached
        // results over other facts stay valid and are re-keyed instead of
        // flushed.
        self.result_cache.publish(generation, changed_facts);
        // Same proof covers the dictionaries: dimensions are untouched.
        self.dict_cache.advance(generation);
        drop(master);
        generation
    }

    fn maybe_compact(&self, policy: &CompactionPolicy) -> Vec<CompactionOutcome> {
        let mut master = self.master.lock();
        let candidates: Vec<(String, usize, usize)> = master
            .fact_table_stats()
            .into_iter()
            .filter(|s| policy.should_compact(s.total_rows, s.live_rows))
            .map(|s| (s.fact, s.total_rows, s.live_rows))
            .collect();
        let mut outcomes = Vec::new();
        for (fact, rows_before, live_rows) in candidates {
            let _compact = self.metrics.span(Stage::IngestCompact, ClassId::DEFAULT);
            let version_before = master
                .fact_table(&fact)
                .expect("candidate fact exists")
                .compaction_version();
            let remap = master
                .compact_fact_table(&fact)
                .expect("candidate fact exists");
            // Publish the rewritten table, then remap stored session
            // views — in that order, and all under the master lock. A
            // query pairs its view load with a *later* snapshot load, so
            // it either sees (stale view, compacted snapshot), which the
            // remap chain resolves, or (remapped view, compacted
            // snapshot), the aligned fast path; never a remapped view
            // against the pre-compaction snapshot.
            let generation = self.snapshot.store(Arc::new(master.clone()));
            // The rewrite preserves live-row content, but conservatively
            // drop cached results over this fact with the same scoped
            // invalidation an ingest epoch uses.
            let mut changed = BTreeSet::new();
            changed.insert(fact.clone());
            self.result_cache.publish(generation, &changed);
            // Compaction rewrites a fact table; dimension tables — and
            // with them every group-key dictionary — are untouched.
            self.dict_cache.advance(generation);
            self.sessions.remap_fact_rows(&fact, &remap, version_before);
            // Trim the remap chain down to what can still be referenced:
            // stored session views (just remapped to the current version),
            // in-flight firings that observed an older version, and —
            // because external producers following the re-anchor protocol
            // read the chain only after their next flush — always the
            // latest transition. Everything below that floor is
            // unreachable and dropped, so the chain stays bounded under
            // steady compaction.
            let current_version = version_before + 1;
            let producer_floor = self
                .producer_floors
                .lock()
                .iter()
                .filter_map(|((_, floor_fact), version)| (floor_fact == &fact).then_some(*version))
                .min();
            let floor = [
                self.sessions.min_fact_selection_version(&fact),
                self.version_pins.min_for(&fact),
                producer_floor,
                Some(current_version.saturating_sub(1)),
            ]
            .into_iter()
            .flatten()
            .min()
            .expect("floor list is never empty");
            master
                .trim_fact_remaps(&fact, floor)
                .expect("candidate fact exists");
            outcomes.push(CompactionOutcome {
                fact,
                rows_before,
                live_rows,
                generation,
            });
        }
        outcomes
    }

    fn fact_stats(&self) -> Vec<FactTableStats> {
        self.master.lock().fact_table_stats()
    }

    /// Supervisor restart hook: the panicked worker may have applied
    /// batches it never published, and its epoch bookkeeping is gone —
    /// republish the master so nothing applied lingers master-only.
    /// Which facts the lost epoch touched is unknowable, so cached
    /// results over every fact are conservatively invalidated;
    /// dimensions are untouched by ingest, so the dictionaries survive.
    fn on_worker_restart(&self) {
        let master = self.master.lock();
        let generation = self.snapshot.store(Arc::new(master.clone()));
        let changed: BTreeSet<String> = master
            .fact_table_stats()
            .into_iter()
            .map(|stats| stats.fact)
            .collect();
        self.result_cache.publish(generation, &changed);
        self.dict_cache.advance(generation);
    }

    fn set_producer_floor(&self, producer: &str, fact: &str, version: u64) {
        self.producer_floors
            .lock()
            .insert((producer.to_string(), fact.to_string()), version);
    }

    fn clear_producer_floor(&self, producer: &str) {
        self.producer_floors
            .lock()
            .retain(|(floor_producer, _), _| floor_producer != producer);
    }
}

/// How long a read-your-writes query waits for the snapshot to catch up
/// with the session's pinned generation before refusing. Generous against
/// the default epoch interval (50 ms) while still bounding worst-case
/// query latency.
const READ_YOUR_WRITES_WAIT: Duration = Duration::from_millis(500);

/// Poll step of the read-your-writes wait.
const RYW_POLL: Duration = Duration::from_millis(1);

/// A read's session context: the view it runs through, the session's
/// read-your-writes floor and class, and the version pin that keeps the
/// view's fact-row selections translatable until the read completes
/// (`None` for unpersonalized reads, which hold no selections).
struct ReadContext {
    view: Arc<InstanceView>,
    min_generation: u64,
    class: ClassId,
    _pin: Option<VersionPinGuard>,
}

/// The single answer of a batch-of-one read.
fn only(
    results: Result<Vec<Result<QueryResult, CoreError>>, CoreError>,
) -> Result<QueryResult, CoreError> {
    results?.pop().expect("one result per query")
}

/// A handle to a started session: the id plus the report of what the
/// personalization rules did at session start.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    /// The session id (use it for queries, selections and logout).
    pub id: SessionId,
    /// What happened when the session-start rules fired.
    pub report: PersonalizationReport,
}

/// The in-service rule set: the AST interpreter (the registration-time
/// source of truth and the differential-testing oracle) paired with its
/// compiled form. Published as *one* `ArcSwap` value so a firing that
/// loaded the pair can never observe a half-swapped state where the
/// interpreter and compiled rules disagree.
struct ActiveRules {
    engine: Arc<RuleEngine>,
    compiled: Arc<CompiledRuleSet>,
}

impl ActiveRules {
    fn empty() -> Self {
        ActiveRules {
            engine: Arc::new(RuleEngine::new()),
            compiled: Arc::new(CompiledRuleSet::default()),
        }
    }
}

/// The personalization engine.
///
/// Schema personalization mutates the engine's cube schema (additively —
/// layers and spatial levels only grow), while instance personalization is
/// kept per session in an [`InstanceView`], so different decision makers
/// hold different selections concurrently. See the module docs for the
/// locking discipline that lets all of this happen through `&self`.
pub struct PersonalizationEngine {
    /// The shared cube state (write master, published snapshot, result
    /// cache) — also the [`CubeSink`] the ingest pipeline writes through.
    cube_state: Arc<CubeState>,
    original_schema: Schema,
    profiles: ProfileStore,
    /// Immutable rule-set snapshot (interpreter + compiled pair),
    /// hot-swapped on registration and reload.
    rules: ArcSwap<ActiveRules>,
    /// Serialises rule registration (load → validate → store).
    rules_write: Mutex<()>,
    /// Whether events fire through the compiled rule path (default) or
    /// the AST interpreter (kept for benchmarking and as the oracle).
    compiled_firing: AtomicBool,
    parameters: RwLock<BTreeMap<String, f64>>,
    layer_source: Arc<dyn LayerSource + Send + Sync>,
    sessions: Arc<SessionManager>,
    /// The executor. When configured for more than one worker it runs
    /// on the engine-lifetime morsel pool (see
    /// [`PersonalizationEngine::morsel_pool`]) with its tenant scheduler
    /// and admission controller; a one-worker executor runs inline.
    query_engine: QueryEngine,
    /// The streaming-ingestion pipeline, started lazily by
    /// [`PersonalizationEngine::start_ingest`]. Shut down (drained,
    /// final epoch published, worker joined) when the engine drops.
    ingest: Mutex<Option<IngestPipeline>>,
    /// The metrics registry every stage span and latency histogram of
    /// this engine records into (shared with [`CubeState`] for the
    /// ingest-side stages). Enabled by default; build the engine with
    /// [`PersonalizationEngine::with_observability`] and
    /// [`MetricsRegistry::disabled`] to opt out entirely.
    metrics: Arc<MetricsRegistry>,
}

impl PersonalizationEngine {
    /// Creates an engine over a cube, with no external layer source.
    pub fn new(cube: Cube) -> Self {
        PersonalizationEngine::with_layer_source(cube, Arc::new(NoExternalLayers))
    }

    /// Creates an engine over a cube with an external layer source (the
    /// provider of airport / train / … layer instances).
    pub fn with_layer_source(cube: Cube, layer_source: Arc<dyn LayerSource + Send + Sync>) -> Self {
        PersonalizationEngine::with_execution_config(cube, layer_source, ExecutionConfig::default())
    }

    /// Creates an engine with an explicit executor configuration (worker
    /// count, morsel size, result-cache capacity). Metrics are recorded
    /// into a fresh enabled registry.
    pub fn with_execution_config(
        cube: Cube,
        layer_source: Arc<dyn LayerSource + Send + Sync>,
        config: ExecutionConfig,
    ) -> Self {
        PersonalizationEngine::with_observability(
            cube,
            layer_source,
            config,
            Arc::new(MetricsRegistry::new()),
        )
    }

    /// Creates an engine with an explicit executor configuration and an
    /// explicit metrics registry — pass [`MetricsRegistry::disabled`] to
    /// run with zero recording cost, or a shared registry to aggregate
    /// several engines into one exposition.
    pub fn with_observability(
        cube: Cube,
        layer_source: Arc<dyn LayerSource + Send + Sync>,
        config: ExecutionConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let original_schema = cube.schema().clone();
        let snapshot = VersionedSwap::from_pointee(cube.clone());
        let sessions = Arc::new(SessionManager::new());
        // The engine-lifetime worker pool: the querying thread always
        // scans, so the pool only needs `workers - 1` long-lived helpers.
        // A one-worker executor runs entirely inline and skips the pool.
        let pool_workers = config.effective_workers() - 1;
        let query_engine = if pool_workers > 0 {
            let pool = MorselPool::with_registry(
                PoolConfig::default().with_workers(pool_workers),
                Arc::clone(&metrics),
            );
            QueryEngine::with_pool(config, Arc::new(pool))
        } else {
            QueryEngine::with_config(config)
        };
        PersonalizationEngine {
            cube_state: Arc::new(CubeState {
                master: Mutex::new(cube),
                snapshot,
                result_cache: QueryCache::new(config.cache_capacity),
                dict_cache: GroupDictCache::new(),
                sessions: Arc::clone(&sessions),
                version_pins: VersionPins::default(),
                metrics: Arc::clone(&metrics),
                producer_floors: Mutex::new(BTreeMap::new()),
            }),
            original_schema,
            profiles: ProfileStore::new(),
            rules: ArcSwap::from_pointee(ActiveRules::empty()),
            rules_write: Mutex::new(()),
            compiled_firing: AtomicBool::new(true),
            parameters: RwLock::new(BTreeMap::new()),
            layer_source,
            sessions,
            query_engine,
            ingest: Mutex::new(None),
            metrics,
        }
    }

    /// Registers (or replaces) a decision maker's profile.
    pub fn register_user(&self, profile: UserProfile) {
        self.profiles.upsert(profile);
    }

    /// The profile store (shared, thread-safe).
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// The session manager (shared, thread-safe).
    pub fn sessions(&self) -> &SessionManager {
        &self.sessions
    }

    /// Adds PRML rules from text, validating and compiling them (as a
    /// set, together with the already-registered rules) against the
    /// cube's schema. Safe to call while sessions are being served:
    /// firing threads keep using the rule-set snapshot they loaded.
    pub fn add_rules_text(&self, text: &str) -> Result<Vec<RuleClass>, CoreError> {
        let new_rules = sdwp_prml::parse_rules(text)?;
        let _guard = self.rules_write.lock();
        let current = self.rules.load();
        let existing = current.engine.rules().len();
        let mut all: Vec<Rule> = current.engine.rules().to_vec();
        all.extend(new_rules.iter().cloned());
        let classes = self.install_rules(all)?;
        Ok(classes[existing..].to_vec())
    }

    /// Replaces the *entire* rule set with the rules parsed from `text`.
    ///
    /// The swap is atomic: in-flight firings keep the interpreter+compiled
    /// pair they loaded, new firings see the new pair, and any parse,
    /// typecheck or compile failure leaves the in-service rule set
    /// untouched and serving.
    pub fn reload_rules_text(&self, text: &str) -> Result<Vec<RuleClass>, CoreError> {
        let rules = sdwp_prml::parse_rules(text)?;
        let _guard = self.rules_write.lock();
        self.install_rules(rules)
    }

    /// Validates, compiles and publishes a full rule set. Caller holds
    /// `rules_write`; on any failure the in-service pair stays untouched.
    fn install_rules(&self, rules: Vec<Rule>) -> Result<Vec<RuleClass>, CoreError> {
        let compiled = {
            let master = self.cube_state.master.lock();
            CompiledRuleSet::compile(&rules, master.schema())?
        };
        let classes = compiled.classes();
        let mut engine = RuleEngine::new();
        for rule in rules {
            engine.add_rule(rule);
        }
        self.rules.store(Arc::new(ActiveRules {
            engine: Arc::new(engine),
            compiled: Arc::new(compiled),
        }));
        Ok(classes)
    }

    /// Defines a designer parameter referenced by rules (e.g. `threshold`).
    pub fn set_parameter(&self, name: impl Into<String>, value: f64) {
        self.parameters
            .write()
            .insert(name.into().to_lowercase(), value);
    }

    /// The current rule-set snapshot (the AST interpreter view).
    pub fn rules(&self) -> Arc<RuleEngine> {
        Arc::clone(&self.rules.load().engine)
    }

    /// The current compiled rule set (the form events fire through by
    /// default).
    pub fn compiled_rules(&self) -> Arc<CompiledRuleSet> {
        Arc::clone(&self.rules.load().compiled)
    }

    /// Chooses between compiled (default) and interpreted rule firing.
    /// The interpreter stays available as the differential-testing oracle
    /// and for benchmark baselines.
    pub fn set_compiled_firing(&self, enabled: bool) {
        self.compiled_firing.store(enabled, Ordering::Release);
    }

    /// Whether events currently fire through the compiled rule path.
    pub fn compiled_firing(&self) -> bool {
        self.compiled_firing.load(Ordering::Acquire)
    }

    /// The current (possibly personalized) cube snapshot. The returned
    /// `Arc` stays consistent however much later rule firing personalizes
    /// the engine further.
    pub fn cube(&self) -> Arc<Cube> {
        self.cube_state.snapshot.load()
    }

    /// The schema as it was before any personalization.
    pub fn original_schema(&self) -> &Schema {
        &self.original_schema
    }

    /// The difference between the original MD schema and the current
    /// (personalized) GeoMD schema — i.e. what the schema rules did.
    pub fn schema_diff(&self) -> SchemaDiff {
        SchemaDiff::between(
            &self.original_schema,
            self.cube_state.snapshot.load().schema(),
        )
    }

    /// Starts an analysis session for a registered user, firing the
    /// SessionStart rules (schema personalization first, then instance
    /// selection) and building the session's personalized view. The
    /// session records latency samples under the default session class.
    pub fn start_session(
        &self,
        user_id: &str,
        location: Option<LocationContext>,
    ) -> Result<SessionHandle, CoreError> {
        self.start_session_classed(user_id, location, None)
    }

    /// [`PersonalizationEngine::start_session`] with an explicit session
    /// class: every latency sample of the session (query stages, totals,
    /// rule firings) is keyed by it in the metrics registry, which is how
    /// per-tenant p50/p99 come out of [`Self::metrics_snapshot`]. The
    /// class name is registered on first use; once [`sdwp_obs::MAX_CLASSES`]
    /// names exist, further names alias to the default class.
    pub fn start_session_classed(
        &self,
        user_id: &str,
        location: Option<LocationContext>,
        class: Option<&str>,
    ) -> Result<SessionHandle, CoreError> {
        let class = class.map_or(ClassId::DEFAULT, |name| self.metrics.register_class(name));
        let _span = self.metrics.span(Stage::SessionStart, class);
        let id = self.sessions.allocate_id();
        let session = match location {
            Some(loc) => Session::start_at(id, user_id, loc),
            None => Session::start(id, user_id),
        };
        let mut state = SessionState::with_class(session, class);
        // The version pin must stay alive until the session is *stored*:
        // between applying the selection effects and `sessions.insert`,
        // the new view's captured compaction version is visible neither
        // through the pins nor through the stored-views floor, and a
        // concurrent compaction could otherwise trim a remap transition
        // the view still needs.
        let (report, fact_versions, _pin) =
            self.fire_event(user_id, &state.session, &RuntimeEvent::SessionStart, class)?;
        self.apply_selection_effects(&report, &fact_versions, &mut state.view);
        state.effects.extend(report.effects.iter().cloned());
        let personalization_report = self.build_report(user_id, &state, &report)?;
        self.sessions.insert(state);
        Ok(SessionHandle {
            id,
            report: personalization_report,
        })
    }

    /// Records that the user of a session selected instances of a GeoMD
    /// element under a spatial condition (the SpatialSelection tracking
    /// event), firing the matching acquisition rules.
    pub fn record_spatial_selection(
        &self,
        session_id: SessionId,
        element: &str,
        expression: Option<&str>,
    ) -> Result<FireReport, CoreError> {
        let (user_id, session_snapshot, class) =
            self.sessions.with_session_mut(session_id, |state| {
                if !state.is_active() {
                    return Err(CoreError::UnknownSession {
                        session: session_id,
                    });
                }
                state
                    .session
                    .record_spatial_selection(element, expression.unwrap_or_default());
                Ok((
                    state.session.user_id.clone(),
                    state.session.clone(),
                    state.class,
                ))
            })??;
        let event = RuntimeEvent::SpatialSelection {
            element: element.to_string(),
            expression: expression.map(str::to_string),
        };
        let (report, fact_versions, pin) =
            self.fire_event(&user_id, &session_snapshot, &event, class)?;
        self.sessions.with_session_mut(session_id, |state| {
            self.apply_selection_effects(&report, &fact_versions, &mut state.view);
            state.effects.extend(report.effects.iter().cloned());
        })?;
        drop(pin);
        Ok(report)
    }

    /// Ends a session, firing the SessionEnd rules. Ending an
    /// already-ended (or unknown) session is an error, so a retried or
    /// concurrently racing logout cannot re-fire the SessionEnd rules.
    ///
    /// The session's state (personalized view, effect log) is reclaimed
    /// once the SessionEnd rules have fired: no later request can reach
    /// an ended session anyway — they all answer `UnknownSession` — and
    /// retaining the state would grow the session map without bound and
    /// pin the compaction remap chain on views nobody can query.
    pub fn end_session(&self, session_id: SessionId) -> Result<FireReport, CoreError> {
        let (user_id, session_snapshot, class) =
            self.sessions.with_session_mut(session_id, |state| {
                if !state.is_active() {
                    return Err(CoreError::UnknownSession {
                        session: session_id,
                    });
                }
                state.session.end();
                Ok((
                    state.session.user_id.clone(),
                    state.session.clone(),
                    state.class,
                ))
            })??;
        let _span = self.metrics.span(Stage::SessionEnd, class);
        let (report, _, _pin) = self.fire_event(
            &user_id,
            &session_snapshot,
            &RuntimeEvent::SessionEnd,
            class,
        )?;
        self.sessions.remove(session_id);
        Ok(report)
    }

    /// Executes an OLAP query through a session's personalized view.
    ///
    /// Runs entirely on snapshots: the session's view is copied out under
    /// its shard lock, the cube is the published [`VersionedSwap`]
    /// snapshot — so queries from many sessions (or threads) run
    /// concurrently and never block rule firing. Results are served from
    /// the generation-keyed cache when the same `(snapshot, query, view)`
    /// triple was executed before; a rule firing that publishes a new
    /// cube bumps the generation and misses every stale entry.
    pub fn query(&self, session_id: SessionId, query: &Query) -> Result<QueryResult, CoreError> {
        self.query_with_deadline(session_id, query, None)
    }

    /// [`PersonalizationEngine::query`] under an explicit per-query
    /// deadline budget (overriding the executor config's default when
    /// given). The budget starts *now* and covers the whole lifecycle —
    /// admission wait, read-your-writes wait and the scan — and an
    /// expiry cancels the query cooperatively with the typed
    /// [`CoreError::DeadlineExceeded`]: no partial state, the result
    /// cache untouched, every admission slot released.
    pub fn query_with_deadline(
        &self,
        session_id: SessionId,
        query: &Query,
        deadline: Option<std::time::Duration>,
    ) -> Result<QueryResult, CoreError> {
        only(self.read(
            Some(session_id),
            slice::from_ref(query),
            deadline,
            StageFamily::Query,
        ))
    }

    /// Executes an OLAP query against the full, unpersonalized cube
    /// (the baseline the paper's approach avoids exposing to users).
    pub fn query_unpersonalized(&self, query: &Query) -> Result<QueryResult, CoreError> {
        only(self.read(None, slice::from_ref(query), None, StageFamily::Query))
    }

    /// Pins a session to a minimum snapshot generation: later queries of
    /// the session refuse (after a bounded wait for the ingest worker)
    /// snapshots older than the pin — the read-your-writes contract. A
    /// producer pins `ingest_stats().last_generation` right after a
    /// `flush`, and every subsequent query of that session observes its
    /// writes. Pins only ratchet upwards; returns the effective pin.
    pub fn pin_session_generation(
        &self,
        session_id: SessionId,
        generation: u64,
    ) -> Result<u64, CoreError> {
        self.sessions.with_session_mut(session_id, |state| {
            if !state.is_active() {
                return Err(CoreError::UnknownSession {
                    session: session_id,
                });
            }
            state.min_generation = state.min_generation.max(generation);
            Ok(state.min_generation)
        })?
    }

    /// Executes a batch of OLAP queries through a session's personalized
    /// view in one shared-scan pass: cached members are answered from the
    /// result cache, and only the misses are executed — together, against
    /// one snapshot, sharing group-key dictionaries and per-morsel
    /// selection vectors where the queries' filters coincide. Results are
    /// positional (`results[i]` answers `queries[i]`) and each is
    /// bit-identical to what [`PersonalizationEngine::query`] would have
    /// returned for that query alone.
    pub fn query_batch(
        &self,
        session_id: SessionId,
        queries: &[Query],
    ) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
        self.query_batch_with_deadline(session_id, queries, None)
    }

    /// [`PersonalizationEngine::query_batch`] under an explicit
    /// per-batch deadline budget covering admission, the
    /// read-your-writes wait and every fact group's scan. An expiry
    /// mid-batch fails the current and every not-yet-scanned group with
    /// [`CoreError::DeadlineExceeded`]; groups that already completed
    /// keep their results.
    pub fn query_batch_with_deadline(
        &self,
        session_id: SessionId,
        queries: &[Query],
        deadline: Option<std::time::Duration>,
    ) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
        self.read(Some(session_id), queries, deadline, StageFamily::Batch)
    }

    /// Executes a batch of OLAP queries against the full, unpersonalized
    /// cube in one shared-scan pass.
    pub fn query_batch_unpersonalized(
        &self,
        queries: &[Query],
    ) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
        self.read(None, queries, None, StageFamily::Batch)
    }

    /// Copies a session's read context out under its shard lock, pinning
    /// the view's fact-selection versions while still holding it (so the
    /// compaction path's eager remap of the shard cannot interleave): the
    /// read keeps this clone of the view — possibly across a
    /// read-your-writes wait — and the remap-chain trimmer must not drop
    /// transitions it still needs until the context drops.
    fn pin_session(&self, session_id: SessionId) -> Result<ReadContext, CoreError> {
        let (active, context) = self.sessions.with_session(session_id, |state| {
            let versions: BTreeMap<String, u64> = state
                .view
                .fact_selection_versions()
                .map(|(fact, version)| (fact.to_string(), version))
                .collect();
            let pin = VersionPinGuard {
                state: Arc::clone(&self.cube_state),
                token: (!versions.is_empty()).then(|| self.cube_state.version_pins.pin(versions)),
            };
            (
                state.is_active(),
                ReadContext {
                    view: Arc::clone(&state.view),
                    min_generation: state.min_generation,
                    class: state.class,
                    _pin: Some(pin),
                },
            )
        })?;
        if !active {
            return Err(CoreError::UnknownSession {
                session: session_id,
            });
        }
        Ok(context)
    }

    /// The one read path behind every query entry point: session pin (or
    /// an unpersonalized view), admission, a `(generation, cube)` pair at
    /// or above the read-your-writes floor, one locked result-cache
    /// lookup, one shared-scan execution over exactly the misses, then a
    /// cache fill. A single query is a batch of one; `family` names the
    /// stages it records under. The view travels as an `Arc`, so keying
    /// the cache is a refcount bump, not a deep clone.
    fn read(
        &self,
        session: Option<SessionId>,
        queries: &[Query],
        deadline: Option<std::time::Duration>,
        family: StageFamily,
    ) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
        let context = match session {
            Some(session_id) => self.pin_session(session_id)?,
            None => ReadContext {
                view: Arc::new(InstanceView::unrestricted()),
                min_generation: 0,
                class: ClassId::DEFAULT,
                _pin: None,
            },
        };
        let class = context.class;
        // End-to-end span: covers the admission gate, the
        // read-your-writes wait, the cache lookup and (on a miss) the
        // observed execution; records on every exit, including errors.
        let _total = self.metrics.span(family.total(), class);
        // The budget clock starts here, *before* admission: a query that
        // spends its whole budget parked in the admission queue or in
        // the read-your-writes wait comes back DeadlineExceeded instead
        // of running late. The explicit per-query budget wins, else the
        // executor config's default, else no deadline.
        let budget = deadline.or(self.query_engine.config().deadline);
        let cancel = CancelToken::with_deadline(budget.map(|budget| Instant::now() + budget));
        // Admission first: a shed query does no work at all — not even a
        // cache probe — and a guaranteed tenant over budget waits here
        // (backpressure, bounded by the deadline) before touching any
        // snapshot.
        let _admission = self.admit_query(class, cancel.deadline())?;
        let (generation, cube) = self.wait_for_generation(context.min_generation, &cancel)?;
        let options = ExecOptions {
            view: &context.view,
            dicts: Some((&self.cube_state.dict_cache, generation)),
            obs: Some(QueryObs {
                registry: &self.metrics,
                class,
                generation,
                family,
            }),
            cancel: Some(&cancel),
        };
        if !self.cube_state.result_cache.is_enabled() {
            return Ok(self
                .query_engine
                .execute(&cube, queries, &options)
                .into_iter()
                .map(|result| result.map_err(CoreError::from))
                .collect());
        }
        let keys: Vec<CacheKey> = queries
            .iter()
            .map(|query| CacheKey::new(generation, query, Arc::clone(&context.view)))
            .collect();
        let lookup = self.metrics.span(Stage::CacheLookup, class);
        let cached = self.cube_state.result_cache.get_batch(&keys);
        lookup.finish();
        // Execute exactly the misses, together; a read that misses
        // entirely (every uncached pivot) runs the caller's slice as is.
        let misses: Cow<'_, [Query]> = if cached.iter().all(Option::is_none) {
            Cow::Borrowed(queries)
        } else {
            queries
                .iter()
                .zip(&cached)
                .filter(|(_, hit)| hit.is_none())
                .map(|(query, _)| query.clone())
                .collect()
        };
        let mut executed = if misses.is_empty() {
            Vec::new()
        } else {
            self.query_engine.execute(&cube, &misses, &options)
        }
        .into_iter();
        Ok(cached
            .into_iter()
            .zip(keys)
            .map(|(hit, key)| match hit {
                Some(hit) => Ok((*hit).clone()),
                None => {
                    let result = executed.next().expect("one result per miss")?;
                    let cached = Arc::new(result.clone());
                    self.cube_state.result_cache.insert(key, cached);
                    Ok(result)
                }
            })
            .collect())
    }

    /// Loads a consistent `(generation, cube)` pair at or above
    /// `min_generation`, polling briefly when the published snapshot lags
    /// a read-your-writes pin (the epoch worker publishes within its
    /// `max_interval`, typically tens of milliseconds). The wait stops at
    /// whichever comes first: the read's deadline, with
    /// [`CoreError::DeadlineExceeded`], or [`READ_YOUR_WRITES_WAIT`], with
    /// [`CoreError::StaleSnapshot`].
    fn wait_for_generation(
        &self,
        min_generation: u64,
        cancel: &CancelToken,
    ) -> Result<(u64, Arc<Cube>), CoreError> {
        let cap = Instant::now() + READ_YOUR_WRITES_WAIT;
        loop {
            let (generation, cube) = self.cube_state.snapshot.load_versioned();
            if generation >= min_generation {
                return Ok((generation, cube));
            }
            cancel.check()?;
            let now = Instant::now();
            if now >= cap {
                return Err(CoreError::StaleSnapshot {
                    published: generation,
                    required: min_generation,
                });
            }
            let until = cancel.deadline().map_or(cap, |deadline| deadline.min(cap));
            std::thread::sleep(until.saturating_duration_since(now).min(RYW_POLL));
        }
    }

    /// Counters of the query-result cache (hits, misses, entries,
    /// invalidations, evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cube_state.result_cache.stats()
    }

    /// Counters of the group-key dictionary cache (hits, misses, entries,
    /// invalidations).
    pub fn dict_cache_stats(&self) -> DictCacheStats {
        self.cube_state.dict_cache.stats()
    }

    /// The metrics registry this engine records into — stage latency
    /// histograms, the slow-query journal and session classes all live
    /// here. Shared (`Arc`), so callers can hold it across the engine's
    /// lifetime or aggregate several engines into one.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Sets the slow-query journal threshold: single queries (and batch
    /// fact groups) whose end-to-end pipeline time meets it are
    /// journaled with their per-stage breakdown.
    pub fn set_slow_query_threshold_micros(&self, micros: u64) {
        self.metrics.journal().set_threshold_micros(micros);
    }

    // ----- tenant scheduling and admission ------------------------------

    /// The admission gate in front of both read paths: asks the shared
    /// pool's controller for a slot under the session class's budgets.
    /// A best-effort tenant over budget is shed with a typed
    /// [`CoreError::Overloaded`]; a guaranteed tenant blocks until
    /// capacity frees. Engines without a pool admit everything.
    fn admit_query(
        &self,
        class: ClassId,
        deadline: Option<std::time::Instant>,
    ) -> Result<Option<AdmissionGuard>, CoreError> {
        match self.query_engine.pool() {
            None => Ok(None),
            Some(pool) => {
                pool.admit_until(class, deadline)
                    .map(Some)
                    .map_err(|error| match error {
                        AdmitError::Shed(shed) => CoreError::Overloaded {
                            class: self.metrics.class_name(shed.class),
                            in_flight: shed.in_flight,
                            limit: shed.max_in_flight,
                        },
                        AdmitError::DeadlineExceeded { .. } => CoreError::DeadlineExceeded,
                    })
            }
        }
    }

    /// A backoff hint for a shed tenant: the class's recent end-to-end
    /// p99 in µs (0 when nothing has been recorded yet) — roughly how
    /// long one queued query takes to drain, so retrying after it has a
    /// fair chance of finding a free slot.
    pub fn retry_after_hint_micros(&self, class_name: &str) -> u64 {
        let class = self.metrics.register_class(class_name);
        self.metrics
            .stage_histogram(Stage::QueryTotal, class)
            .quantile(0.99)
    }

    /// The shared morsel worker pool, when the executor is parallel —
    /// its scheduler statistics are also folded into
    /// [`PersonalizationEngine::metrics_snapshot`].
    pub fn morsel_pool(&self) -> Option<&Arc<MorselPool>> {
        self.query_engine.pool()
    }

    /// Sets the scheduling and admission policy of a session class
    /// (registering the class name if it is new) and returns its id.
    /// Takes effect immediately: weights steer the worker scheduler,
    /// budgets steer admission of subsequent queries.
    pub fn set_tenant_policy(&self, class_name: &str, policy: TenantPolicy) -> ClassId {
        let class = self.metrics.register_class(class_name);
        if let Some(pool) = self.query_engine.pool() {
            pool.set_policy(class, policy);
        }
        class
    }

    /// One step of the scheduler's latency-target feedback loop: reads
    /// each tenant's windowed `query_total` p99 from the registry and
    /// rebalances worker shares toward tenants missing their
    /// [`TenantPolicy::target_p99_micros`]. Returns the class names
    /// whose effective share changed. Call it from an operator loop, or
    /// start the pool's autotune thread for a fixed cadence.
    pub fn rebalance_worker_shares(&self) -> Vec<(String, u32)> {
        match self.query_engine.pool() {
            None => Vec::new(),
            Some(pool) => pool
                .rebalance()
                .into_iter()
                .map(|(class, share)| (self.metrics.class_name(class), share))
                .collect(),
        }
    }

    /// One aggregate observability snapshot: per-stage latency summaries
    /// (p50/p90/p99 in µs) keyed by session class, the engine's counters
    /// (result cache, dictionary cache, session reclamation, ingest) and
    /// gauges (active sessions, cache entries, ingest queue depth, cube
    /// generation), and the retained slow-query records.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let cache = self.cache_stats();
        let dict = self.dict_cache_stats();
        snap.counters.extend([
            ("cache_hits".to_string(), cache.hits),
            ("cache_misses".to_string(), cache.misses),
            ("cache_invalidations".to_string(), cache.invalidations),
            ("cache_evictions".to_string(), cache.evictions),
            ("dict_cache_hits".to_string(), dict.hits),
            ("dict_cache_misses".to_string(), dict.misses),
            ("dict_cache_invalidations".to_string(), dict.invalidations),
            (
                "sessions_reclaimed".to_string(),
                self.sessions.sessions_reclaimed(),
            ),
        ]);
        snap.gauges.extend([
            (
                "sessions_active".to_string(),
                self.sessions.sessions_active(),
            ),
            ("cache_entries".to_string(), cache.entries as i64),
            ("dict_cache_entries".to_string(), dict.entries as i64),
            ("cube_generation".to_string(), self.cube_generation() as i64),
        ]);
        if let Some(ingest) = self.ingest_stats() {
            snap.counters.extend([
                (
                    "ingest_batches_submitted".to_string(),
                    ingest.batches_submitted,
                ),
                (
                    "ingest_batches_rejected".to_string(),
                    ingest.batches_rejected,
                ),
                ("ingest_batches_applied".to_string(), ingest.batches_applied),
                ("ingest_batches_failed".to_string(), ingest.batches_failed),
                ("ingest_rows_appended".to_string(), ingest.rows_appended),
                (
                    "ingest_epochs_published".to_string(),
                    ingest.epochs_published,
                ),
                ("ingest_compactions".to_string(), ingest.compactions),
                ("ingest_worker_restarts".to_string(), ingest.worker_restarts),
            ]);
            snap.gauges.extend([
                ("ingest_queue_depth".to_string(), ingest.queue_depth as i64),
                (
                    "ingest_worker_heartbeat_micros".to_string(),
                    ingest.last_heartbeat_micros as i64,
                ),
                ("ingest_worker_down".to_string(), ingest.worker_down as i64),
            ]);
        }
        if let Some(pool) = self.query_engine.pool() {
            let stats = pool.stats();
            let names = self.metrics.class_names();
            snap.gauges
                .push(("scheduler_workers".to_string(), stats.workers as i64));
            let mut shed_total = 0u64;
            for tenant in &stats.tenants {
                shed_total += tenant.shed_total;
                // Per-tenant series only for registered classes; the
                // remaining slots are idle and would be noise.
                let Some(name) = names.get(tenant.class.0 as usize) else {
                    continue;
                };
                snap.gauges.extend([
                    (
                        format!("scheduler_queue_depth_{name}"),
                        tenant.queued as i64,
                    ),
                    (
                        format!("scheduler_in_flight_{name}"),
                        tenant.in_flight as i64,
                    ),
                    (format!("scheduler_share_{name}"), tenant.share as i64),
                ]);
                if tenant.shed_total > 0 {
                    snap.counters
                        .push((format!("scheduler_shed_{name}"), tenant.shed_total));
                }
            }
            snap.counters
                .push(("scheduler_shed_total".to_string(), shed_total));
        }
        snap
    }

    /// The executor configuration this engine serves queries with.
    pub fn execution_config(&self) -> &ExecutionConfig {
        self.query_engine.config()
    }

    /// The generation of the currently published cube snapshot.
    pub fn cube_generation(&self) -> u64 {
        self.cube_state.snapshot.generation()
    }

    /// The current `(generation, cube)` snapshot pair, read atomically —
    /// what a query observes. Lets callers pin the exact snapshot a
    /// result was computed from while ingestion publishes new ones.
    pub fn cube_versioned(&self) -> (u64, Arc<Cube>) {
        self.cube_state.snapshot.load_versioned()
    }

    // ----- streaming ingestion ------------------------------------------

    /// Starts the streaming-ingestion pipeline (idempotent: a second call
    /// returns a handle onto the already-running pipeline, ignoring
    /// `config`) and returns a producer handle.
    ///
    /// Producers submit [`DeltaBatch`]es through the handle; a dedicated
    /// worker applies them atomically to the write master and publishes
    /// immutable snapshots per the configured epoch policy. Readers —
    /// including sessions mid-query — never block on ingestion and never
    /// observe a torn batch.
    pub fn start_ingest(&self, config: IngestConfig) -> IngestHandle {
        let mut ingest = self.ingest.lock();
        match ingest.as_ref() {
            Some(pipeline) => pipeline.handle(),
            None => {
                let pipeline = IngestPipeline::start(
                    Arc::clone(&self.cube_state) as Arc<dyn CubeSink>,
                    config,
                );
                let handle = pipeline.handle();
                *ingest = Some(pipeline);
                handle
            }
        }
    }

    /// A producer handle onto the running ingestion pipeline, when one was
    /// started.
    pub fn ingest_handle(&self) -> Option<IngestHandle> {
        self.ingest.lock().as_ref().map(IngestPipeline::handle)
    }

    /// Counters of the ingestion pipeline (batches, rows, epochs,
    /// backpressure rejections), when one was started.
    pub fn ingest_stats(&self) -> Option<IngestStats> {
        self.ingest.lock().as_ref().map(IngestPipeline::stats)
    }

    /// Shuts the ingestion pipeline down: pending batches are applied, a
    /// final epoch is published, the worker joins. Returns the final
    /// counters, or `None` when no pipeline was running. (Dropping the
    /// engine does the same implicitly.)
    pub fn stop_ingest(&self) -> Option<IngestStats> {
        self.ingest.lock().take().map(IngestPipeline::shutdown)
    }

    /// The personalized view of a session (a shared snapshot; the `Arc`
    /// stays consistent if rules later restrict the view further).
    pub fn session_view(&self, session_id: SessionId) -> Result<Arc<InstanceView>, CoreError> {
        self.sessions
            .with_session(session_id, |state| Arc::clone(&state.view))
    }

    /// The SUS session object of a session (an owned snapshot).
    pub fn session(&self, session_id: SessionId) -> Result<Session, CoreError> {
        self.sessions
            .with_session(session_id, |state| state.session.clone())
    }

    /// The profile of a registered user (a clone of the stored state).
    pub fn user_profile(&self, user_id: &str) -> Result<UserProfile, CoreError> {
        Ok(self.profiles.get(user_id)?)
    }

    // ----- internals ----------------------------------------------------

    /// Fires an event for a user in two phases.
    ///
    /// **Condition phase** (compiled path, lock-free): matches the event
    /// against the loaded ruleset snapshot without the master lock —
    /// event matching in PRML is purely textual, so no cube state can be
    /// observed. When no rule matches, the firing returns immediately
    /// (after the unknown-user check) without ever locking the master.
    ///
    /// **Effect phase**: for matched rules only, the master mutex is
    /// held across profile read → rule-body run → profile write, making
    /// the whole firing atomic with respect to other firing threads (so
    /// two concurrent `SetContent` increments cannot lose an update).
    /// When the firing actually changed the schema, the master is cloned
    /// once and published for the read path. The interpreter fallback
    /// (`set_compiled_firing(false)`) runs both matching and bodies
    /// under the lock, as the engine always did before compilation.
    ///
    /// Invariant: outside a firing, master and snapshot hold the same
    /// schema/layer/dimension state — successful schema changes publish,
    /// non-schema firings never touch the cube, and an erroring firing
    /// rolls that state back to the published snapshot so partially
    /// applied schema actions never leak into later publishes. Fact
    /// tables are the streaming-ingest subsystem's territory (the master
    /// may be an epoch ahead of the snapshot there), so the rollback
    /// keeps the master's fact tables: rules cannot have touched them.
    /// Besides the fire report, returns each fact table's compaction
    /// version as observed under the master lock — the numbering any
    /// `SelectInstance` fact-row selections in the report refer to, so
    /// [`PersonalizationEngine::apply_selection_effects`] can pin them
    /// (a compaction interleaving between the firing and the application
    /// then translates correctly instead of silently misreading ids).
    fn fire_event(
        &self,
        user_id: &str,
        session: &Session,
        event: &RuntimeEvent,
        class: ClassId,
    ) -> Result<(FireReport, BTreeMap<String, u64>, VersionPinGuard), CoreError> {
        // One load of the interpreter+compiled pair: both phases (and the
        // interpreter fallback) see the same ruleset however many
        // hot-swaps land mid-firing.
        let active = self.rules.load();
        if self.compiled_firing() {
            // Phase 1 — condition phase: pure precomputed-string matching
            // against the loaded snapshot. No master lock, no cube access.
            let condition = self.metrics.span(Stage::RuleCondition, class);
            let matched = active.compiled.matched_rules(event);
            condition.finish();
            if matched.is_empty() {
                // Nothing fires, so the firing cannot touch the cube or
                // the profile: skip the master lock entirely. Unknown
                // users must still error exactly like the locking path.
                self.profiles.get(user_id)?;
                return Ok((
                    FireReport::default(),
                    BTreeMap::new(),
                    VersionPinGuard {
                        state: Arc::clone(&self.cube_state),
                        token: None,
                    },
                ));
            }
            // Phase 2 — effect application for the matched rules only,
            // under the master lock. The span covers lock acquisition:
            // waiting for the master *is* part of effect-phase latency.
            let effect = self.metrics.span(Stage::RuleEffect, class);
            let parameters = self.parameters.read().clone();
            let mut master = self.cube_state.master.lock();
            let mut profile = self.profiles.get(user_id)?;
            let mut ctx = EvalContext::new(&mut master, &mut profile)
                .with_session(session)
                .with_layer_source(self.layer_source.as_ref());
            for (name, value) in &parameters {
                ctx = ctx.with_parameter(name.clone(), *value);
            }
            let fired = active.compiled.fire_matched(&matched, &mut ctx);
            drop(ctx);
            effect.finish();
            self.finish_firing(master, profile, fired)
        } else {
            let span = self.metrics.span(Stage::RuleFireInterpreted, class);
            let parameters = self.parameters.read().clone();
            let mut master = self.cube_state.master.lock();
            let mut profile = self.profiles.get(user_id)?;
            let mut ctx = EvalContext::new(&mut master, &mut profile)
                .with_session(session)
                .with_layer_source(self.layer_source.as_ref());
            for (name, value) in &parameters {
                ctx = ctx.with_parameter(name.clone(), *value);
            }
            let fired = active.engine.fire(event, &mut ctx);
            drop(ctx);
            span.finish();
            self.finish_firing(master, profile, fired)
        }
    }

    /// The shared tail of a firing that ran rule bodies under the master
    /// lock: roll back on error, publish on a real schema change, write
    /// the profile back, and pin compaction versions for fact-row
    /// selections. See [`PersonalizationEngine::fire_event`] for the
    /// invariants this maintains.
    fn finish_firing(
        &self,
        mut master: MutexGuard<'_, Cube>,
        profile: UserProfile,
        fired: Result<FireReport, PrmlError>,
    ) -> Result<(FireReport, BTreeMap<String, u64>, VersionPinGuard), CoreError> {
        let published = self.cube_state.snapshot.load();
        let report = match fired {
            Ok(report) => report,
            Err(error) => {
                // Roll back: a rule may have errored after earlier
                // statements (or earlier rules) already mutated the cube.
                // Restore schema/layer/dimension state from the published
                // snapshot but keep the master's fact tables — they may
                // hold ingested-but-unpublished deltas no firing touches.
                let mut rolled_back = (*published).clone();
                rolled_back.swap_fact_tables(&mut master);
                *master = rolled_back;
                return Err(error.into());
            }
        };
        // Publish only on a real schema change — effects report AddLayer
        // even when it was an idempotent re-add, and cloning the whole
        // cube on every login would serialise logins behind an
        // O(warehouse) copy. Publishing bumps the snapshot generation,
        // which automatically invalidates every cached query result
        // computed from the superseded cube.
        if master.schema() != published.schema() {
            let generation = self.cube_state.snapshot.store(Arc::new(master.clone()));
            self.cube_state
                .result_cache
                .invalidate_generations_below(generation);
            // Schema personalization may have grown dimension tables, so
            // the cached group-key dictionaries cannot be trusted either.
            self.cube_state.dict_cache.invalidate(generation);
        }
        self.profiles.upsert(profile);
        // Only fact-row selections consume the version map; skip the
        // allocation on the (common) firings without one.
        let has_fact_selections = report
            .effects
            .iter()
            .any(|e| e.selections.keys().any(|k| k.starts_with("__fact__")));
        let fact_versions = if has_fact_selections {
            master.fact_compaction_versions()
        } else {
            BTreeMap::new()
        };
        // Pin the observed versions (under the master lock, so a
        // compaction cannot interleave before the pin lands): until the
        // caller applies the selection effects and drops the guard, the
        // remap-chain trimmer must keep every transition from these
        // versions forward.
        let pin = VersionPinGuard {
            state: Arc::clone(&self.cube_state),
            token: has_fact_selections
                .then(|| self.cube_state.version_pins.pin(fact_versions.clone())),
        };
        drop(master);
        Ok((report, fact_versions, pin))
    }

    /// Applies the SelectInstance effects of a fire report to a view:
    /// each rule's selection restricts the view conjunctively, with
    /// fact-row selections pinned to the compaction version the firing
    /// observed. If a compaction slipped in between the firing and this
    /// application (the stored selection is already at a newer version),
    /// the incoming ids are translated forward through the published
    /// remap chain first, so the intersection always happens in one
    /// numbering. The view is copy-on-write (`Arc`): concurrent readers
    /// keep the snapshot they loaded; only the stored view is replaced.
    fn apply_selection_effects(
        &self,
        report: &FireReport,
        fact_versions: &BTreeMap<String, u64>,
        view: &mut Arc<InstanceView>,
    ) {
        if report
            .effects
            .iter()
            .all(|effect| effect.selections.is_empty())
        {
            return;
        }
        let view = Arc::make_mut(view);
        for effect in &report.effects {
            for (dimension, members) in &effect.selections {
                if let Some(fact) = dimension.strip_prefix("__fact__") {
                    let version = fact_versions.get(fact).copied().unwrap_or(0);
                    // Re-anchor the fired ids forward if a compaction
                    // raced the firing: either to the stored selection's
                    // numbering (stored views are remapped under the
                    // master lock right after each compacted snapshot
                    // publishes) or, for a fresh selection, to the
                    // published table's current version — storing it at
                    // the lagging `version` would leave a view the eager
                    // per-compaction remap (which matches versions
                    // exactly) skips forever, permanently pinning the
                    // remap-chain trim floor. The firing's version pin is
                    // still held here, so the published chain always
                    // covers `version..target`.
                    let cube = self.cube_state.snapshot.load();
                    let target = view
                        .fact_selection_version(fact)
                        .into_iter()
                        .chain(
                            cube.fact_table(fact)
                                .map(|table| table.compaction_version()),
                        )
                        .max()
                        .unwrap_or(version);
                    if target > version {
                        let translated = cube
                            .translate_fact_rows(fact, version, target, members.iter().copied())
                            .unwrap_or_else(|_| members.iter().copied().collect());
                        view.select_fact_rows_at(fact.to_string(), target, translated);
                    } else {
                        view.select_fact_rows_at(
                            fact.to_string(),
                            version,
                            members.iter().copied(),
                        );
                    }
                } else {
                    view.select_dimension_members(dimension.clone(), members.iter().copied());
                }
            }
        }
    }

    fn build_report(
        &self,
        user_id: &str,
        state: &SessionState,
        fire: &FireReport,
    ) -> Result<PersonalizationReport, CoreError> {
        let cube = self.cube_state.snapshot.load();
        let mut visible_facts = BTreeMap::new();
        let mut total_facts = BTreeMap::new();
        for fact in &cube.schema().facts {
            // Live rows only: a retracted (tombstoned) row is invisible to
            // everyone, so counting it as "total" would make an
            // unrestricted view look personalized.
            let total = cube.fact_table(&fact.name)?.table.live_len();
            let visible = state.view.visible_fact_count(&cube, &fact.name)?;
            total_facts.insert(fact.name.clone(), total);
            visible_facts.insert(fact.name.clone(), visible);
        }
        Ok(PersonalizationReport {
            user: user_id.to_string(),
            rules_matched: fire.rules_matched,
            rules_with_effects: fire
                .effects
                .iter()
                .filter(|e| e.changed_schema() || e.selected_instances() || e.set_contents > 0)
                .map(|e| e.rule.clone())
                .collect(),
            schema_diff: self.schema_diff(),
            selected_members: fire
                .effects
                .iter()
                .flat_map(|e| e.selections.iter())
                .map(|(dim, rows)| (dim.clone(), rows.len()))
                .collect(),
            visible_facts,
            total_facts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_datagen::{PaperScenario, ScenarioConfig};
    use sdwp_olap::AttributeRef;
    use sdwp_prml::corpus::*;

    fn engine() -> (PersonalizationEngine, PaperScenario) {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let layer_source = Arc::new(scenario.layer_source());
        let engine = PersonalizationEngine::with_layer_source(scenario.cube.clone(), layer_source);
        engine.register_user(scenario.manager.clone());
        engine.set_parameter("threshold", 2.0);
        for rule in ALL_PAPER_RULES {
            engine.add_rules_text(rule).unwrap();
        }
        (engine, scenario)
    }

    /// A location right next to the first store, so the 5 km instance rule
    /// always selects at least one store.
    fn near_first_store(scenario: &PaperScenario) -> LocationContext {
        let store = &scenario.retail.stores[0];
        LocationContext::at_point("office", store.location.x() + 0.5, store.location.y())
    }

    #[test]
    fn session_start_personalizes_schema_and_instances() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        // Schema personalization (rule 5.1): Airport layer + spatial Store.
        let diff = engine.schema_diff();
        assert!(diff.added_layers.iter().any(|(name, _)| name == "Airport"));
        assert!(diff
            .levels_become_spatial
            .iter()
            .any(|(_, level, _)| level == "Store"));
        // Instance personalization (rule 5.2): the Store dimension is
        // restricted in the session view.
        let view = engine.session_view(handle.id).unwrap();
        assert!(!view.is_unrestricted());
        assert!(handle.report.rules_matched >= 3);
    }

    #[test]
    fn queries_through_the_view_see_fewer_facts() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let personalized = engine.query(handle.id, &query).unwrap();
        let full = engine.query_unpersonalized(&query).unwrap();
        assert!(personalized.facts_scanned <= full.facts_scanned);
        assert!(personalized.column_total(0) <= full.column_total(0) + 1e-9);
    }

    #[test]
    fn interest_tracking_across_sessions() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        // The user repeatedly selects cities near airports.
        for _ in 0..3 {
            engine
                .record_spatial_selection(handle.id, "GeoMD.Store.City", None)
                .unwrap();
        }
        let profile = engine.user_profile("regional-manager").unwrap();
        assert_eq!(profile.interest("AirportCity").unwrap().degree, 3.0);
        engine.end_session(handle.id).unwrap();
        // The next session start exceeds the threshold: the Train layer is
        // added by rule TrainAirportCity.
        let second = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        assert!(engine.cube().schema().layer("Train").is_some());
        assert!(second
            .report
            .schema_diff
            .added_layers
            .iter()
            .any(|(name, _)| name == "Train"));
    }

    #[test]
    fn unknown_users_and_sessions_error() {
        let (engine, _scenario) = engine();
        assert!(engine.start_session("ghost", None).is_err());
        assert!(engine.session_view(99).is_err());
        assert!(engine
            .record_spatial_selection(99, "GeoMD.Store.City", None)
            .is_err());
        assert!(engine.end_session(99).is_err());
        let query = Query::over("Sales").measure("UnitSales");
        assert!(engine.query(99, &query).is_err());
    }

    #[test]
    fn rules_are_validated_on_registration() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::new(scenario.cube.clone());
        let err = engine
            .add_rules_text(
                "Rule:bad When SessionStart do \
                 If (MD.Sales.Warehouse.name = 'x') then AddLayer('A', POINT) endIf endWhen",
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Rule(_)));
        assert!(engine.rules().is_empty());
    }

    #[test]
    fn non_matching_role_gets_no_personalization() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::with_layer_source(
            scenario.cube.clone(),
            Arc::new(scenario.layer_source()),
        );
        engine.register_user(sdwp_user::UserProfile::new("analyst", "Ana"));
        engine.set_parameter("threshold", 2.0);
        for rule in ALL_PAPER_RULES {
            engine.add_rules_text(rule).unwrap();
        }
        // The analyst logs in from far outside the sales region.
        let handle = engine
            .start_session(
                "analyst",
                Some(LocationContext::at_point("remote", 5_000.0, 5_000.0)),
            )
            .unwrap();
        // Rule 5.1 did not fire for this role: no schema personalization.
        assert!(engine.schema_diff().added_layers.is_empty());
        assert!(engine.schema_diff().levels_become_spatial.is_empty());
        // Rule 5.2 is role-independent, but no store lies within 5 km of
        // the analyst, so the personalized view hides every fact.
        let view = engine.session_view(handle.id).unwrap();
        assert!(!view.is_unrestricted());
        assert_eq!(view.visible_fact_count(&engine.cube(), "Sales").unwrap(), 0);
    }

    #[test]
    fn ending_a_session_twice_is_rejected() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        engine.end_session(handle.id).unwrap();
        // A retried logout must not re-fire the SessionEnd rules.
        assert!(matches!(
            engine.end_session(handle.id),
            Err(CoreError::UnknownSession { .. })
        ));
    }

    #[test]
    fn idempotent_schema_rules_do_not_republish_the_cube() {
        let (engine, scenario) = engine();
        engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let first = engine.cube();
        // The second login re-fires AddLayer('Airport') as an idempotent
        // no-op: the schema is unchanged, so the published snapshot must
        // be the same allocation (no O(warehouse) clone per login).
        engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let second = engine.cube();
        assert!(
            Arc::ptr_eq(&first, &second),
            "schema-stable firing must not republish the cube"
        );
    }

    #[test]
    fn failed_rule_firing_rolls_back_schema_mutations() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::new(scenario.cube.clone());
        engine.register_user(sdwp_user::UserProfile::new("u", "U"));
        // `flag` / `missingparam` are bare identifiers: they pass static
        // validation (they could be designer parameters) and resolve — or
        // fail — at firing time.
        engine
            .add_rules_text(
                "Rule:boom When SessionStart do \
                 If (flag > 0) then AddLayer('Partial', POINT) endIf \
                 If (missingparam > 1) then AddLayer('Q', POINT) endIf endWhen",
            )
            .unwrap();
        engine.set_parameter("flag", 1.0);
        // AddLayer('Partial') executes, then `missingparam` errors: the
        // firing fails and nothing may leak.
        let err = engine.start_session("u", None).unwrap_err();
        assert!(matches!(err, CoreError::Rule(_)));
        assert!(engine.cube().schema().layer("Partial").is_none());
        // A later *successful* firing (flag off, parameter defined) must
        // not publish a leftover 'Partial' from the failed attempt.
        engine.set_parameter("flag", 0.0);
        engine.set_parameter("missingparam", 0.0);
        engine.start_session("u", None).unwrap();
        assert!(
            engine.cube().schema().layer("Partial").is_none(),
            "partial schema mutation of a failed firing leaked into the snapshot"
        );
    }

    #[test]
    fn repeated_queries_hit_the_cache_until_a_publish() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let first = engine.query(handle.id, &query).unwrap();
        let miss_only = engine.cache_stats();
        assert_eq!(miss_only.hits, 0);
        let second = engine.query(handle.id, &query).unwrap();
        assert_eq!(first, second);
        let after_repeat = engine.cache_stats();
        assert_eq!(after_repeat.hits, 1);
        let generation = engine.cube_generation();

        // Drive the interest counter over the threshold and restart: the
        // TrainAirportCity rule adds the Train layer, publishing a new
        // cube snapshot.
        for _ in 0..3 {
            engine
                .record_spatial_selection(handle.id, "GeoMD.Store.City", None)
                .unwrap();
        }
        engine.end_session(handle.id).unwrap();
        let next = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        assert!(engine.cube_generation() > generation);

        // The same query text through the new session misses: both the
        // snapshot generation and the session view changed.
        let hits_before = engine.cache_stats().hits;
        engine.query(next.id, &query).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, hits_before);
        assert!(stats.invalidations > 0, "publish must drop stale entries");
    }

    #[test]
    fn cache_can_be_disabled_by_configuration() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::with_execution_config(
            scenario.cube.clone(),
            Arc::new(scenario.layer_source()),
            sdwp_olap::ExecutionConfig::default().with_cache_capacity(0),
        );
        let query = Query::over("Sales").measure("UnitSales");
        engine.query_unpersonalized(&query).unwrap();
        engine.query_unpersonalized(&query).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.entries), (0, 0));
        assert_eq!(engine.execution_config().cache_capacity, 0);
    }

    #[test]
    fn ingested_epochs_publish_atomic_snapshots() {
        let (engine, _scenario) = engine();
        let before_rows = engine.cube().total_live_fact_rows();
        let before_generation = engine.cube_generation();
        let handle = engine.start_ingest(
            sdwp_ingest::IngestConfig::default()
                .with_epoch(sdwp_ingest::EpochPolicy::default().with_max_rows(1_000_000)),
        );
        // A second start returns a handle onto the same pipeline.
        let again = engine.start_ingest(sdwp_ingest::IngestConfig::default());
        let batch = DeltaBatch::new()
            .append(
                "Sales",
                vec![
                    ("Store", 0usize),
                    ("Customer", 0usize),
                    ("Product", 0usize),
                    ("Time", 0usize),
                ],
                vec![("UnitSales", sdwp_olap::CellValue::Float(5.0))],
            )
            .retract("Sales", 0);
        handle.submit(batch).unwrap();
        // Nothing published yet (row threshold unreached, no flush): the
        // read snapshot still shows the pre-ingest cube.
        assert_eq!(engine.cube().total_live_fact_rows(), before_rows);
        let generation = again.flush().unwrap();
        assert!(generation > before_generation);
        assert_eq!(engine.cube_generation(), generation);
        // One append + one retraction: net zero rows, new content.
        assert_eq!(engine.cube().total_live_fact_rows(), before_rows);
        assert_eq!(engine.cube().total_fact_rows(), before_rows + 1);
        let stats = engine.ingest_stats().unwrap();
        assert_eq!((stats.rows_appended, stats.rows_retracted), (1, 1));
        assert_eq!(stats.epochs_published, 1);
        let final_stats = engine.stop_ingest().unwrap();
        assert_eq!(final_stats.batches_applied, 1);
        assert!(engine.ingest_handle().is_none());
        assert!(matches!(
            handle.submit(DeltaBatch::new()),
            Err(sdwp_ingest::IngestError::Closed)
        ));
    }

    #[test]
    fn ingest_epochs_scope_cache_invalidation() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        engine.query(handle.id, &query).unwrap();
        let ingest = engine.start_ingest(sdwp_ingest::IngestConfig::default());

        // An epoch of empty batches publishes nothing: the cached result
        // still hits afterwards.
        ingest.submit(DeltaBatch::new()).unwrap();
        ingest.flush().unwrap();
        let hits_before = engine.cache_stats().hits;
        let generation = engine.cube_generation();
        engine.query(handle.id, &query).unwrap();
        assert_eq!(engine.cache_stats().hits, hits_before + 1);
        assert_eq!(engine.cube_generation(), generation);

        // An epoch that changes Sales invalidates the Sales entry …
        ingest
            .submit(DeltaBatch::new().upsert_cell(
                "Sales",
                0,
                "UnitSales",
                sdwp_olap::CellValue::Float(123.0),
            ))
            .unwrap();
        ingest.flush().unwrap();
        let stats = engine.cache_stats();
        assert!(stats.invalidations > 0);
        let hits_after_publish = stats.hits;
        let fresh = engine.query(handle.id, &query).unwrap();
        assert_eq!(
            engine.cache_stats().hits,
            hits_after_publish,
            "must re-execute"
        );
        // … and the fresh result reflects the correction when store 0 is
        // visible through the view (and stays consistent regardless).
        assert_eq!(
            fresh,
            QueryEngine::with_config(*engine.execution_config())
                .execute_serial_with_view(
                    &engine.cube(),
                    &query,
                    &engine.session_view(handle.id).unwrap()
                )
                .unwrap()
        );
    }

    #[test]
    fn failed_rule_firing_keeps_ingested_facts() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::new(scenario.cube.clone());
        engine.register_user(sdwp_user::UserProfile::new("u", "U"));
        engine
            .add_rules_text(
                "Rule:boom When SessionStart do \
                 If (flag > 0) then AddLayer('Partial', POINT) endIf \
                 If (missingparam > 1) then AddLayer('Q', POINT) endIf endWhen",
            )
            .unwrap();
        engine.set_parameter("flag", 1.0);
        let ingest = engine.start_ingest(
            sdwp_ingest::IngestConfig::default()
                .with_epoch(sdwp_ingest::EpochPolicy::default().with_max_rows(1_000_000)),
        );
        // Apply a delta but do NOT publish: it lives only in the master.
        ingest
            .submit(DeltaBatch::new().append(
                "Sales",
                vec![
                    ("Store", 0usize),
                    ("Customer", 0usize),
                    ("Product", 0usize),
                    ("Time", 0usize),
                ],
                vec![("UnitSales", sdwp_olap::CellValue::Float(7.0))],
            ))
            .unwrap();
        // Wait until the worker has applied (but not published) the batch.
        while engine.ingest_stats().unwrap().batches_applied == 0 {
            std::thread::yield_now();
        }
        // A failing firing rolls back its schema mutation …
        assert!(engine.start_session("u", None).is_err());
        assert!(engine.cube().schema().layer("Partial").is_none());
        // … without discarding the unpublished ingested row.
        let generation = ingest.flush().unwrap();
        assert!(generation > 0);
        assert_eq!(
            engine.cube().total_live_fact_rows(),
            scenario.cube.total_live_fact_rows() + 1,
            "rollback of a failed firing must keep ingested facts"
        );
    }

    #[test]
    fn pinned_sessions_read_their_own_writes() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let ingest = engine.start_ingest(
            sdwp_ingest::IngestConfig::default()
                .with_epoch(sdwp_ingest::EpochPolicy::default().with_max_rows(1_000_000)),
        );
        let before = engine.query_unpersonalized(&Query::over("Sales").measure("UnitSales"));
        assert!(before.is_ok());
        ingest
            .submit(DeltaBatch::new().append(
                "Sales",
                vec![
                    ("Store", 0usize),
                    ("Customer", 0usize),
                    ("Product", 0usize),
                    ("Time", 0usize),
                ],
                vec![("UnitSales", sdwp_olap::CellValue::Float(5.0))],
            ))
            .unwrap();
        let generation = ingest.flush().unwrap();
        // Pin the session to the flushed generation: its next query must
        // observe the appended row.
        assert_eq!(
            engine
                .pin_session_generation(handle.id, generation)
                .unwrap(),
            generation
        );
        // Pins only ratchet upwards.
        assert_eq!(
            engine.pin_session_generation(handle.id, 0).unwrap(),
            generation
        );
        let result = engine
            .query(handle.id, &Query::over("Sales").measure("UnitSales"))
            .unwrap();
        assert!(result.facts_scanned > 0);
        assert!(engine.cube_generation() >= generation);
        // A pin beyond anything the worker will publish times out into a
        // stale-snapshot error instead of hanging.
        engine
            .pin_session_generation(handle.id, generation + 100)
            .unwrap();
        assert!(matches!(
            engine.query(handle.id, &Query::over("Sales").measure("UnitSales")),
            Err(CoreError::StaleSnapshot { required, .. }) if required == generation + 100
        ));
        // Unknown sessions cannot be pinned.
        assert!(engine.pin_session_generation(9_999, 1).is_err());
    }

    #[test]
    fn read_your_writes_wait_honours_the_deadline() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        // Nothing will publish: the session is pinned one generation
        // ahead of an idle warehouse.
        let ahead = engine.cube_generation() + 1;
        engine.pin_session_generation(handle.id, ahead).unwrap();
        let query = Query::over("Sales").measure("UnitSales");
        let budget = Some(std::time::Duration::from_millis(2));
        let started = std::time::Instant::now();
        assert_eq!(
            engine.query_with_deadline(handle.id, &query, budget),
            Err(CoreError::DeadlineExceeded)
        );
        assert_eq!(
            engine.query_batch_with_deadline(handle.id, slice::from_ref(&query), budget),
            Err(CoreError::DeadlineExceeded)
        );
        assert!(
            started.elapsed() < std::time::Duration::from_millis(100),
            "the wait overran a 2 ms budget: {:?}",
            started.elapsed()
        );
        // Without a deadline the wait still ends at its cap, as before.
        assert!(matches!(
            engine.query(handle.id, &query),
            Err(CoreError::StaleSnapshot { required, .. }) if required == ahead
        ));
    }

    #[test]
    fn ingest_stats_expose_per_fact_compaction_pressure() {
        let (engine, _scenario) = engine();
        let ingest = engine.start_ingest(
            sdwp_ingest::IngestConfig::default()
                .with_epoch(sdwp_ingest::EpochPolicy::default().with_max_rows(1_000_000)),
        );
        ingest
            .submit(DeltaBatch::new().retract("Sales", 0).retract("Sales", 1))
            .unwrap();
        ingest.flush().unwrap();
        let stats = engine.ingest_stats().unwrap();
        let sales = stats
            .fact_tables
            .iter()
            .find(|s| s.fact == "Sales")
            .expect("Sales gauge");
        assert_eq!(sales.total_rows - sales.live_rows, 2);
        assert!(sales.tombstone_ratio > 0.0);
        assert_eq!(sales.compactions, 0, "compaction is disabled by default");
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let (engine, scenario) = engine();
        let engine = Arc::new(engine);
        let location = near_first_store(&scenario);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let location = location.clone();
                std::thread::spawn(move || {
                    let handle = engine
                        .start_session("regional-manager", Some(location))
                        .unwrap();
                    let query = Query::over("Sales").measure("UnitSales");
                    engine.query(handle.id, &query).unwrap();
                    engine.end_session(handle.id).unwrap();
                    handle.id
                })
            })
            .collect();
        let mut ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "session ids must be unique across threads");
    }
}
