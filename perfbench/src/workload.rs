//! The three workloads: how each sets up the engine, which flows its users
//! send, and how one flow runs against the engine's public entry points
//! (`WebFacade::handle`, `PersonalizationEngine`, `IngestHandle`).

use crate::load::{Background, Kind, Recorder, Rng, Scheduled};
use crate::oracle::{render, Check, Rendered};
use crate::trace::probe;
use sdwp::core::{BatchEntry, PersonalizationEngine, WebFacade, WebRequest, WebResponse};
use sdwp::datagen::{
    dashboard_batch, OverlapRegime, PaperScenario, RetailTicker, ScenarioConfig, TickerConfig,
};
use sdwp::ingest::{IngestConfig, IngestHandle};
use sdwp::model::AggregationFunction;
use sdwp::obs::ClassId;
use sdwp::olap::{AttributeRef, Cube, Filter, InstanceView, Query};
use sdwp::prml::corpus::ALL_PAPER_RULES;
use sdwp::user::SessionId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The designer's interest threshold (paper, Example 5.3).
const THRESHOLD: f64 = 2.0;
/// The selection the `IntAirportCity` rule listens for.
const SELECTED_ELEMENT: &str = "GeoMD.Store.City";
const SELECTED_EXPRESSION: &str =
    "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20";
/// SessionStart rules of the paper's corpus: addSpatiality, 5kmStores,
/// TrainAirportCity.
const LOGIN_RULES: usize = 3;
/// SpatialSelection rules matching the selection above: IntAirportCity.
const SELECTION_RULES: usize = 1;
/// Requests in one web session: login, 3 selections, 2 dashboard
/// refreshes, 1 pivot, logout.
const SESSION_REQUESTS: u64 = 8;
/// A web_sessions user who only ever logs in and out, so stays below the
/// interest threshold: `TrainAirportCity` never takes effect for them.
const FRESH_USER: &str = "rm-fresh";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    WebSessions,
    AnalystPivots,
    DashboardsUnderIngest,
}

impl Name {
    pub const ALL: [Name; 3] = [
        Name::WebSessions,
        Name::AnalystPivots,
        Name::DashboardsUnderIngest,
    ];

    pub fn parse(text: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|name| name.as_str() == text)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::WebSessions => "web_sessions",
            Name::AnalystPivots => "analyst_pivots",
            Name::DashboardsUnderIngest => "dashboards_under_ingest",
        }
    }

    /// The fixed load of each workload. Rates sit at about a third of the
    /// closed-loop capacity measured on a 2-core host (see README.md):
    /// that host's speed swings by ±30%, and at half capacity a slow
    /// stretch pushed the open loop near saturation, where latency is
    /// mostly queueing. Latency limits bound the goodput phase.
    pub fn params(self) -> Params {
        match self {
            Name::WebSessions => Params {
                scale: 1,
                rate: 45.0,
                limits_ms: &[
                    (Kind::Login, 40.0),
                    (Kind::Select, 10.0),
                    (Kind::Dashboard, 20.0),
                    (Kind::Pivot, 20.0),
                    (Kind::Logout, 10.0),
                ],
                checks: 40,
                check_tail: 1.0,
                primary: Kind::Login,
            },
            Name::AnalystPivots => Params {
                scale: 20,
                rate: 30.0,
                limits_ms: &[(Kind::Dashboard, 150.0), (Kind::Pivot, 60.0)],
                checks: 12,
                check_tail: 1.0,
                primary: Kind::Pivot,
            },
            Name::DashboardsUnderIngest => Params {
                scale: 20,
                rate: 30.0,
                limits_ms: &[(Kind::Dashboard, 40.0), (Kind::Ryw, 60.0)],
                checks: 8,
                check_tail: 0.05,
                primary: Kind::Ryw,
            },
        }
    }
}

/// A workload's fixed load and gate settings.
#[derive(Debug, Clone)]
pub struct Params {
    /// `ScenarioConfig::default().scaled(scale)`.
    pub scale: usize,
    /// Open-loop arrival rate, flows per second.
    pub rate: f64,
    /// Per-request-type latency limits of the goodput phase.
    pub limits_ms: &'static [(Kind, f64)],
    /// Flows per window whose answers go through the correctness gate.
    pub checks: usize,
    /// The tail of the window the gated flows are drawn from. Under
    /// ingest every gated answer pins the snapshot it was served from;
    /// snapshots taken close together share nearly all their chunks, so
    /// gating only the last flows keeps the pinned memory small and
    /// `peak_rss_mb` about the engine.
    pub check_tail: f64,
    /// The request type `primary_p50_ms` / `primary_p99_ms` report.
    pub primary: Kind,
}

impl Params {
    pub fn limit_us(&self, kind: Kind) -> Option<f64> {
        self.limits_ms
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, ms)| ms * 1e3)
    }
}

/// The set-up steps, each with its start and end: `setup.datagen`,
/// `setup.engine_build`, `setup.add_rules`, `setup.warmup`.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub steps: Vec<(&'static str, Instant, Instant)>,
}

impl SetupTimes {
    fn record(&mut self, name: &'static str, start: Instant) {
        self.steps.push((name, start, Instant::now()));
    }

    /// How long the whole set-up and each step took, on a host `slowdown`
    /// times slower than the reference.
    pub fn seconds(&self, slowdown: f64) -> SetupSeconds {
        let total_s = match (self.steps.first(), self.steps.last()) {
            (Some(first), Some(last)) => (last.2 - first.1).as_secs_f64(),
            _ => 0.0,
        };
        SetupSeconds {
            total_s,
            slowdown,
            steps: self
                .steps
                .iter()
                .map(|&(name, start, end)| (name.to_string(), (end - start).as_secs_f64()))
                .collect(),
        }
    }
}

/// How long one set-up took: from the first step's start to the last
/// step's end, and each step; and the host's slowdown around it.
#[derive(Debug, Clone)]
pub struct SetupSeconds {
    pub total_s: f64,
    pub slowdown: f64,
    pub steps: Vec<(String, f64)>,
}

impl SetupSeconds {
    /// Seconds the named step took (0 if it did not run).
    pub fn step(&self, name: &str) -> f64 {
        self.steps
            .iter()
            .find(|step| step.0 == name)
            .map_or(0.0, |step| step.1)
    }

    /// The line a set-up process prints:
    /// `setup total=<s> slowdown=<x> <step>=<s>...`.
    pub fn line(&self) -> String {
        let mut line = format!("setup total={} slowdown={}", self.total_s, self.slowdown);
        for (name, seconds) in &self.steps {
            line.push_str(&format!(" {name}={seconds}"));
        }
        line
    }

    /// Reads the line [`SetupSeconds::line`] wrote.
    pub fn parse(line: &str) -> Option<SetupSeconds> {
        let mut words = line.strip_prefix("setup ")?.split(' ');
        let total_s = words.next()?.strip_prefix("total=")?.parse().ok()?;
        let slowdown = words.next()?.strip_prefix("slowdown=")?.parse().ok()?;
        let steps = words
            .map(|word| {
                let (name, seconds) = word.split_once('=')?;
                Some((name.to_string(), seconds.parse().ok()?))
            })
            .collect::<Option<_>>()?;
        Some(SetupSeconds {
            total_s,
            slowdown,
            steps,
        })
    }
}

/// One unit of arrival: a web session, or a single request.
#[derive(Debug, Clone)]
pub enum Flow {
    /// web_sessions: a whole session of one user from one office.
    Session {
        user: usize,
        office: usize,
        pivot: usize,
        check: bool,
    },
    /// analyst_pivots: one unpersonalized pivot.
    Pivot { query: Query, check: bool },
    /// analyst_pivots: one unpersonalized 8-panel dashboard.
    Dashboard { queries: Vec<Query>, check: bool },
    /// dashboards_under_ingest: a reader session refreshes its dashboard.
    Refresh { reader: usize, check: bool },
    /// dashboards_under_ingest: the writer's read-your-writes flow.
    Ryw { check: bool },
}

/// The ingest feed: one `RetailTicker` stream submitted at a fixed rate.
/// The writer's batches come from the same stream under the same lock,
/// so every batch validates against the batches before it.
pub struct Feed {
    handle: IngestHandle,
    state: Mutex<FeedState>,
    interval: Duration,
    pub submitted: AtomicU64,
    pub rejected: AtomicU64,
    pub queue_depth_max: AtomicU64,
}

struct FeedState {
    ticker: RetailTicker,
    next_due: Option<Instant>,
}

impl Feed {
    /// Starts (or restarts) the fixed-rate feed at `at`.
    pub fn start(&self, at: Instant) {
        self.state.lock().expect("feed lock").next_due = Some(at);
    }

    pub fn stop(&self) {
        self.state.lock().expect("feed lock").next_due = None;
    }

    /// Submits the stream's next batch (the caller holds the lock) and
    /// records an `ingest.try_submit` span around the call: a child of
    /// `request`, or a span of its own for the feed (`request == 0`).
    fn submit(
        &self,
        state: &mut FeedState,
        rec: &mut Recorder,
        request: u64,
    ) -> Result<(), String> {
        let batch = state.ticker.next_batch();
        let start = Instant::now();
        let result = self.handle.try_submit(batch);
        let end = Instant::now();
        match request {
            0 => rec.background("ingest.try_submit", start, end),
            _ => rec.child(request, "ingest.try_submit", start, end),
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        result.map_err(|error| {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            error.to_string()
        })
    }

    /// Drains the pipeline: every batch submitted so far is applied and
    /// published. Returns the published generation.
    pub fn flush(&self) -> Result<u64, String> {
        self.handle.flush().map_err(|error| error.to_string())
    }
}

impl Background for Feed {
    fn pump(&self, rec: &mut Recorder) {
        let mut state = self.state.lock().expect("feed lock");
        let now = Instant::now();
        while let Some(due) = state.next_due.filter(|&due| due <= now) {
            // A refused batch is counted by the pipeline (backpressure)
            // and reported; the feed keeps its rate.
            let _ = self.submit(&mut state, rec, 0);
            if rec.traced {
                // Outside the span: `stats()` takes the write master's lock.
                let depth = self.handle.stats().queue_depth;
                self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
            }
            state.next_due = Some(due + self.interval);
        }
    }

    fn next_due(&self) -> Option<Instant> {
        self.state.lock().expect("feed lock").next_due
    }
}

/// The background of workloads without a feed.
pub struct Idle;

impl Background for Idle {
    fn pump(&self, _: &mut Recorder) {}

    fn next_due(&self) -> Option<Instant> {
        None
    }
}

/// A set-up engine with everything a workload's flows need.
pub struct Bench {
    pub name: Name,
    pub params: Params,
    pub config: ScenarioConfig,
    pub facade: WebFacade,
    pub threads: usize,
    pub feed: Option<Feed>,
    users: Vec<String>,
    offices: Vec<(f64, f64)>,
    dashboard: Vec<Query>,
    pivots: Vec<SessionPivot>,
    /// Session class of each generator thread (web_sessions), so stage
    /// histograms read around a request see that request alone.
    thread_classes: Vec<ClassId>,
    readers: Vec<SessionId>,
    writer: Option<SessionId>,
    /// Flows drawn so far: the request-type mix is dealt in a fixed
    /// rotation rather than by coin flips.
    flows_drawn: AtomicU64,
    deck: Mutex<ShapeDeck>,
}

/// The result of one request as the gate sees it.
type Answer = Result<Vec<Rendered>, String>;

/// A web_sessions pivot: a measure and its `(dimension, level,
/// attribute)` group-bys, as `WebRequest::Aggregate` takes them.
type SessionPivot = (&'static str, Vec<(String, String, String)>);

/// A gated request's session view and the snapshot read just before it.
type Pinned = (Arc<InstanceView>, (u64, Arc<Cube>));

fn batch_answer(response: WebResponse) -> Answer {
    match response {
        WebResponse::BatchResult { results } => results
            .into_iter()
            .map(|entry| match entry {
                BatchEntry::Table {
                    columns,
                    rows,
                    facts_matched,
                } => Ok((columns, rows, facts_matched)),
                BatchEntry::Error { message } => Err(format!("panel error: {message}")),
            })
            .collect(),
        other => Err(unexpected(other)),
    }
}

fn unexpected(response: WebResponse) -> String {
    match response {
        WebResponse::Error { message } => message,
        WebResponse::Overloaded { class, .. } => format!("overloaded (class {class})"),
        other => format!("unexpected response {other:?}"),
    }
}

fn manager(id: &str) -> sdwp::user::UserProfile {
    let mut profile = sdwp::datagen::scenario::regional_sales_manager();
    profile.id = id.to_string();
    profile
}

/// `count` office locations, each 0.5 km east of a seeded store of one of
/// the first `cities` cities, so the 5 km rule always keeps that store.
fn offices(
    scenario: &PaperScenario,
    rng: &mut Rng,
    count: usize,
    cities: usize,
) -> Vec<(f64, f64)> {
    let stores: Vec<_> = scenario
        .retail
        .stores
        .iter()
        .filter(|store| store.city < cities)
        .collect();
    (0..count)
        .map(|_| {
            let store = stores[rng.below(stores.len())];
            (store.location.x() + 0.5, store.location.y())
        })
        .collect()
}

const GROUP_BYS: [(&str, &str, &str); 6] = [
    ("Store", "City", "name"),
    ("Store", "State", "name"),
    ("Product", "Category", "name"),
    ("Product", "Product", "name"),
    ("Time", "Month", "name"),
    ("Customer", "City", "name"),
];
const MEASURES: [&str; 3] = ["UnitSales", "StoreCost", "StoreSales"];

/// Distinct pivot shapes: no group-by or one of six attributes (at most
/// 500 groups) × six measure sets (each measure alone, or two of them) ×
/// every aggregation, COUNT DISTINCT included.
const SHAPES: usize = (GROUP_BYS.len() + 1) * 6 * AggregationFunction::ALL.len();

/// An analyst's pivot of shape `shape` (below [`SHAPES`]) over the stores
/// of one city.
fn analyst_query(shape: usize, city: usize) -> Query {
    let mut query = Query::over("Sales");
    let group_by = shape % (GROUP_BYS.len() + 1);
    let measures = (shape / (GROUP_BYS.len() + 1)) % 6;
    let aggregation = AggregationFunction::ALL[shape / ((GROUP_BYS.len() + 1) * 6)];
    if let Some(&(dimension, level, attribute)) = GROUP_BYS.get(group_by) {
        query = query.group_by(AttributeRef::new(dimension, level, attribute));
    }
    let first = measures % MEASURES.len();
    for index in [first, (first + 1) % MEASURES.len()]
        .into_iter()
        .take(1 + measures / MEASURES.len())
    {
        query = query.measure_agg(MEASURES[index], aggregation);
    }
    query.filter_dimension("Store", Filter::eq("City.name", format!("City-{city}")))
}

/// Deals pivot shapes from seeded shuffles of the whole shape space, so
/// every run sends the same mix of shapes in a different order; a run's
/// latency quantiles then do not depend on which shapes its seed drew.
struct ShapeDeck {
    order: Vec<usize>,
    next: usize,
    rng: Rng,
}

impl ShapeDeck {
    fn new(rng: Rng) -> Self {
        ShapeDeck {
            order: (0..SHAPES).collect(),
            next: SHAPES,
            rng,
        }
    }

    fn deal(&mut self) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                let j = self.rng.below(i + 1);
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

impl Bench {
    /// Builds the workload's engine, timing each step. The warehouse (the
    /// paper scenario at the workload's scale under the scenario's own
    /// default seed) and its users' offices are the same for every run, so
    /// runs differ in what users do and when, not in the data; `seed`
    /// drives the ingest feed and the shape deck. `threads` is the number
    /// of generator threads that will drive the engine.
    pub fn setup(name: Name, seed: u64, threads: usize) -> Result<(Bench, SetupTimes), String> {
        let params = name.params();
        let mut times = SetupTimes::default();

        let step = Instant::now();
        let config = ScenarioConfig::default().scaled(params.scale);
        let scenario = PaperScenario::generate(config.clone());
        times.record("setup.datagen", step);

        let mut rng = Rng::new(0, 0x5E7);
        let (user_count, office_count) = match name {
            Name::WebSessions => (8, 6),
            Name::AnalystPivots => (0, 0),
            Name::DashboardsUnderIngest => (9, 9),
        };
        let users: Vec<String> = (0..user_count).map(|u| format!("rm-{u}")).collect();
        // Regional managers under ingest sit in the cities their shared
        // dashboard filters (`OverlapRegime::Mixed` over 8 panels filters
        // City-0 to City-4), so their refreshes aggregate real rows.
        let office_cities = match name {
            Name::DashboardsUnderIngest => 5,
            _ => config.cities,
        };
        let offices = offices(&scenario, &mut rng, office_count, office_cities);
        let ticker = (name == Name::DashboardsUnderIngest).then(|| {
            // Mostly price corrections; one append balanced by one
            // retraction keeps the live row count level.
            let config = TickerConfig::default()
                .with_seed(seed ^ 0xFEED)
                .with_appends(1)
                .with_corrections(8)
                .with_retractions(1);
            RetailTicker::new(&scenario, config)
        });

        let step = Instant::now();
        let layers = Arc::new(scenario.layer_source());
        let engine = PersonalizationEngine::with_layer_source(scenario.cube, layers);
        for user in &users {
            engine.register_user(manager(user));
        }
        if name == Name::WebSessions {
            engine.register_user(manager(FRESH_USER));
        }
        engine.set_parameter("threshold", THRESHOLD);
        times.record("setup.engine_build", step);

        let step = Instant::now();
        for rule in ALL_PAPER_RULES {
            engine
                .add_rules_text(rule)
                .map_err(|error| format!("paper rule failed to register: {error}"))?;
        }
        times.record("setup.add_rules", step);

        let step = Instant::now();
        // The registry holds eight session classes: only web_sessions
        // spends them on one class per generator thread.
        let thread_classes = match name {
            Name::WebSessions => (0..threads)
                .map(|thread| engine.metrics().register_class(&format!("web-{thread}")))
                .collect(),
            _ => Vec::new(),
        };
        let feed = ticker.map(|ticker| Feed {
            handle: engine.start_ingest(IngestConfig::default()),
            state: Mutex::new(FeedState {
                ticker,
                next_due: None,
            }),
            interval: Duration::from_millis(10),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_depth_max: AtomicU64::new(0),
        });
        let dashboard = match name {
            Name::AnalystPivots => Vec::new(),
            _ => dashboard_batch(OverlapRegime::Mixed, 8, config.cities),
        };
        let pivots = vec![
            (
                "UnitSales",
                vec![("Store".into(), "City".into(), "name".into())],
            ),
            (
                "StoreSales",
                vec![("Product".into(), "Category".into(), "name".into())],
            ),
            (
                "StoreCost",
                vec![("Time".into(), "Month".into(), "name".into())],
            ),
            (
                "UnitSales",
                vec![
                    ("Store".into(), "State".into(), "name".into()),
                    ("Product".into(), "Category".into(), "name".into()),
                ],
            ),
        ];
        let mut bench = Bench {
            name,
            params,
            config,
            facade: WebFacade::new(engine),
            threads,
            feed,
            users,
            offices,
            dashboard,
            pivots,
            thread_classes,
            readers: Vec::new(),
            writer: None,
            flows_drawn: AtomicU64::new(0),
            deck: Mutex::new(ShapeDeck::new(Rng::new(seed, 0xDEC))),
        };
        bench.warm_up()?;
        times.record("setup.warmup", step);
        Ok((bench, times))
    }

    /// Brings the engine to its steady state outside the timed window.
    /// The warm-up requests are the same for every seed.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut rec = Recorder::new(0, false, Instant::now());
        let mut rng = Rng::new(0, 0x3A53);
        match self.name {
            Name::WebSessions => {
                // Pass 1 ratchets every user past the interest threshold
                // (3 selections > 2), so all SessionStart rules take effect
                // on every timed login. Pass 2 runs every office's full
                // session on every generator thread: pool threads start,
                // dictionaries build and each office's dashboard and pivots
                // land in the result cache.
                for user in 0..self.users.len() {
                    self.run_session(
                        &mut rec,
                        0,
                        user,
                        user % self.offices.len(),
                        0,
                        false,
                        Instant::now(),
                        false,
                    );
                }
                for thread in 0..self.threads {
                    for office in 0..self.offices.len() {
                        for pivot in 0..self.pivots.len() {
                            self.run_session(
                                &mut rec,
                                thread,
                                office % self.users.len(),
                                office,
                                pivot,
                                false,
                                Instant::now(),
                                true,
                            );
                        }
                    }
                }
            }
            Name::AnalystPivots => {
                // 42 pivots spread over the shape space, every aggregation
                // among them: pool threads start and the group-key
                // dictionaries are built.
                let cities = self.config.cities;
                for shape in 0..SHAPES / 6 {
                    let query = analyst_query(shape * 6 + rng.below(6), rng.below(cities));
                    self.run(
                        &mut rec,
                        0,
                        &Flow::Pivot {
                            query,
                            check: false,
                        },
                        Instant::now(),
                    );
                }
            }
            Name::DashboardsUnderIngest => {
                // Readers and the writer log in before the threshold is
                // ever crossed, so their views are the 5 km stores.
                for (index, user) in self.users.iter().enumerate() {
                    let class = if index + 1 == self.users.len() {
                        "writer"
                    } else {
                        "dash"
                    };
                    let response = self.facade.handle(WebRequest::Login {
                        user: user.clone(),
                        location: Some(self.offices[index]),
                        class: Some(class.into()),
                    });
                    match response {
                        WebResponse::LoggedIn { session, .. } if class == "writer" => {
                            self.writer = Some(session)
                        }
                        WebResponse::LoggedIn { session, .. } => self.readers.push(session),
                        other => return Err(format!("set-up login failed: {}", unexpected(other))),
                    }
                }
                for round in 0..3 {
                    for reader in 0..self.readers.len() {
                        self.run(
                            &mut rec,
                            0,
                            &Flow::Refresh {
                                reader,
                                check: false,
                            },
                            Instant::now(),
                        );
                    }
                    if round > 0 {
                        self.run(&mut rec, 0, &Flow::Ryw { check: false }, Instant::now());
                    }
                }
            }
        }
        match rec.failures.first().or(rec.gate_errors.first()) {
            Some(failure) => Err(format!("warm-up request failed: {failure}")),
            None => Ok(()),
        }
    }

    /// Logs [`FRESH_USER`] in from the first office and out again `count`
    /// times (web_sessions only) and returns each login's time in µs.
    /// Compared with the timed post-threshold logins, this gives
    /// `TrainAirportCity`'s share of a login.
    pub fn pre_threshold_logins(&self, count: usize) -> Result<Vec<f64>, String> {
        let mut times = Vec::with_capacity(count);
        for _ in 0..count {
            let start = Instant::now();
            let response = self.facade.handle(WebRequest::Login {
                user: FRESH_USER.into(),
                location: Some(self.offices[0]),
                class: None,
            });
            times.push(start.elapsed().as_secs_f64() * 1e6);
            let session = match response {
                WebResponse::LoggedIn { session, report } => {
                    if report
                        .rules_with_effects
                        .iter()
                        .any(|r| r == "TrainAirportCity")
                    {
                        return Err("TrainAirportCity took effect below the threshold".into());
                    }
                    session
                }
                other => return Err(format!("pre-threshold login failed: {}", unexpected(other))),
            };
            match self.facade.handle(WebRequest::Logout { session }) {
                WebResponse::LoggedOut => {}
                other => {
                    return Err(format!(
                        "pre-threshold logout failed: {}",
                        unexpected(other)
                    ))
                }
            }
        }
        Ok(times)
    }

    pub fn engine(&self) -> &PersonalizationEngine {
        self.facade.engine()
    }

    /// The background work the generator keeps on time.
    pub fn background(&self) -> &dyn Background {
        match &self.feed {
            Some(feed) => feed,
            None => &Idle,
        }
    }

    /// Draws the next flow of the workload's mix.
    pub fn draw(&self, rng: &mut Rng) -> Flow {
        // The gate marks its flows afterwards (`mark_checks`).
        let flow = self.flows_drawn.fetch_add(1, Ordering::Relaxed);
        let check = false;
        match self.name {
            Name::WebSessions => Flow::Session {
                user: rng.below(self.users.len()),
                office: rng.below(self.offices.len()),
                pivot: rng.below(self.pivots.len()),
                check,
            },
            Name::AnalystPivots => {
                // Pivots and dashboards alternate. Every pivot filters the
                // stores of one city, which keeps the key space far above
                // the cache size and each pivot a scan (over the whole
                // cube, a COUNT DISTINCT is a 100k-value hash build, 50x
                // any other pivot, and the tail quantiles would count how
                // many of those a seed drew). Dashboards are the
                // `OverlapRegime::Mixed` layout: even panels share a city,
                // odd panels each filter their own.
                let cities = self.config.cities;
                let mut deck = self.deck.lock().expect("deck lock");
                if flow.is_multiple_of(2) {
                    Flow::Pivot {
                        query: analyst_query(deck.deal(), rng.below(cities)),
                        check,
                    }
                } else {
                    let shared = rng.below(cities);
                    let queries = (0..8)
                        .map(|panel| {
                            let city = if panel % 2 == 0 {
                                shared
                            } else {
                                rng.below(cities)
                            };
                            analyst_query(deck.deal(), city)
                        })
                        .collect();
                    Flow::Dashboard { queries, check }
                }
            }
            Name::DashboardsUnderIngest => {
                // Every fifth flow is the writer's.
                if flow % 5 == 4 {
                    Flow::Ryw { check }
                } else {
                    Flow::Refresh {
                        reader: rng.below(self.readers.len()),
                        check,
                    }
                }
            }
        }
    }

    /// Marks the flows of an open-loop schedule whose answers the
    /// correctness gate recomputes.
    pub fn mark_checks(&self, schedule: &mut [Scheduled<Flow>], rng: &mut Rng) {
        let from = ((1.0 - self.params.check_tail) * schedule.len() as f64) as usize;
        let candidates = schedule.len() - from;
        for _ in 0..self.params.checks.min(candidates) {
            match &mut schedule[from + rng.below(candidates)].flow {
                Flow::Session { check, .. }
                | Flow::Pivot { check, .. }
                | Flow::Dashboard { check, .. }
                | Flow::Refresh { check, .. }
                | Flow::Ryw { check } => *check = true,
            }
        }
    }

    /// Runs one flow whose first request is due at `due`; returns how many
    /// requests the flow planned to send.
    pub fn run(&self, rec: &mut Recorder, thread: usize, flow: &Flow, due: Instant) -> u64 {
        match flow {
            &Flow::Session {
                user,
                office,
                pivot,
                check,
            } => {
                self.run_session(rec, thread, user, office, pivot, check, due, true);
                SESSION_REQUESTS
            }
            Flow::Pivot { query, check } => {
                self.run_pivot(rec, query, *check, due);
                1
            }
            Flow::Dashboard { queries, check } => {
                self.run_dashboard(rec, queries, *check, due);
                1
            }
            &Flow::Refresh { reader, check } => {
                let session = self.readers[reader];
                self.facade_batch(rec, Kind::Dashboard, None, session, check, due);
                1
            }
            &Flow::Ryw { check } => {
                self.run_ryw(rec, check, due);
                1
            }
        }
    }

    /// Sends one facade request. With `class` (the generator thread's own
    /// session class, web_sessions only) a traced run reads that class's
    /// stage histograms around the request and attributes them to `kind`.
    fn call(
        &self,
        rec: &mut Recorder,
        kind: Kind,
        class: Option<ClassId>,
        request: WebRequest,
    ) -> (u64, Instant, Instant, WebResponse) {
        let id = rec.next_id();
        let metrics = self.engine().metrics();
        let before = class
            .filter(|_| rec.traced)
            .map(|class| (class, probe(metrics, class)));
        let start = Instant::now();
        let response = self.facade.handle(request);
        let end = Instant::now();
        if let Some((class, before)) = before {
            rec.attribution
                .add_delta(kind, &before, &probe(metrics, class));
        }
        (id, start, end, response)
    }

    /// One web session: login, three `IntAirportCity` selections, two
    /// refreshes of the 8-panel dashboard, one pivot, logout. Requests
    /// after the login are sent as soon as the previous answer arrives.
    #[allow(clippy::too_many_arguments)]
    fn run_session(
        &self,
        rec: &mut Recorder,
        thread: usize,
        user: usize,
        office: usize,
        pivot: usize,
        check: bool,
        due: Instant,
        ratcheted: bool,
    ) {
        let class = self.thread_classes[thread];
        let request = WebRequest::Login {
            user: self.users[user].clone(),
            location: Some(self.offices[office]),
            class: Some(format!("web-{thread}")),
        };
        let (id, start, end, response) = self.call(rec, Kind::Login, Some(class), request);
        let session = match response {
            WebResponse::LoggedIn { session, report } => {
                if report.rules_matched != LOGIN_RULES {
                    rec.gate_errors.push(format!(
                        "login matched {} rules, expected {LOGIN_RULES}",
                        report.rules_matched
                    ));
                }
                if ratcheted
                    && !report
                        .rules_with_effects
                        .iter()
                        .any(|rule| rule == "TrainAirportCity")
                {
                    rec.gate_errors
                        .push("TrainAirportCity took no effect on a post-threshold login".into());
                }
                rec.request(id, Kind::Login, due, start, end, Ok(()));
                session
            }
            other => {
                rec.request(id, Kind::Login, due, start, end, Err(unexpected(other)));
                return;
            }
        };
        for _ in 0..3 {
            let due = Instant::now();
            let request = WebRequest::SpatialSelection {
                session,
                element: SELECTED_ELEMENT.into(),
                expression: Some(SELECTED_EXPRESSION.into()),
            };
            let (id, start, end, response) = self.call(rec, Kind::Select, Some(class), request);
            let outcome = match response {
                WebResponse::SelectionRecorded { rules_matched } => {
                    if rules_matched != SELECTION_RULES {
                        rec.gate_errors.push(format!(
                            "selection matched {rules_matched} rules, expected {SELECTION_RULES}"
                        ));
                    }
                    rec.selection_rules += rules_matched as u64;
                    rec.selections += 1;
                    Ok(())
                }
                other => Err(unexpected(other)),
            };
            rec.request(id, Kind::Select, due, start, end, outcome);
        }
        for refresh in 0..2 {
            self.facade_batch(
                rec,
                Kind::Dashboard,
                Some(class),
                session,
                check && refresh == 0,
                Instant::now(),
            );
        }
        let due = Instant::now();
        let (measure, group_by) = &self.pivots[pivot];
        let sample = self.sample_before(check, session);
        let request = WebRequest::Aggregate {
            session,
            fact: "Sales".into(),
            measure: (*measure).into(),
            group_by: group_by.clone(),
            deadline_micros: None,
        };
        let (id, start, end, response) = self.call(rec, Kind::Pivot, Some(class), request);
        let outcome = match response {
            WebResponse::Table {
                columns,
                rows,
                facts_matched,
            } => {
                rec.facts_matched += facts_matched as u64;
                if let Some((view, before)) = sample {
                    let mut query = Query::over("Sales").measure(*measure);
                    for (dimension, level, attribute) in group_by {
                        query = query.group_by(AttributeRef::new(
                            dimension.as_str(),
                            level.as_str(),
                            attribute.as_str(),
                        ));
                    }
                    rec.checks.push(Check {
                        kind: Kind::Pivot,
                        queries: vec![query],
                        view,
                        before,
                        after: self.engine().cube_versioned(),
                        answers: vec![(columns, rows, facts_matched)],
                    });
                }
                Ok(())
            }
            other => Err(unexpected(other)),
        };
        rec.request(id, Kind::Pivot, due, start, end, outcome);
        let due = Instant::now();
        let (id, start, end, response) = self.call(
            rec,
            Kind::Logout,
            Some(class),
            WebRequest::Logout { session },
        );
        let outcome = match response {
            WebResponse::LoggedOut => Ok(()),
            other => Err(unexpected(other)),
        };
        rec.request(id, Kind::Logout, due, start, end, outcome);
    }

    /// The session view and snapshot before a sampled request.
    fn sample_before(&self, check: bool, session: SessionId) -> Option<Pinned> {
        if !check {
            return None;
        }
        let view = self.engine().session_view(session).ok()?;
        Some((view, self.engine().cube_versioned()))
    }

    /// A dashboard refresh through the facade (`QueryBatch`).
    fn facade_batch(
        &self,
        rec: &mut Recorder,
        kind: Kind,
        class: Option<ClassId>,
        session: SessionId,
        check: bool,
        due: Instant,
    ) {
        let sample = self.sample_before(check, session);
        let request = WebRequest::QueryBatch {
            session,
            queries: self.dashboard.clone(),
            deadline_micros: None,
        };
        let (id, start, end, response) = self.call(rec, kind, class, request);
        let outcome = self.settle_batch(rec, kind, batch_answer(response), sample);
        rec.request(id, kind, due, start, end, outcome);
    }

    /// Counts a batch answer and files it for the gate when sampled.
    fn settle_batch(
        &self,
        rec: &mut Recorder,
        kind: Kind,
        answer: Answer,
        sample: Option<Pinned>,
    ) -> Result<(), String> {
        let answers = answer?;
        rec.facts_matched += answers.iter().map(|a| a.2 as u64).sum::<u64>();
        if let Some((view, before)) = sample {
            rec.checks.push(Check {
                kind,
                queries: self.dashboard.clone(),
                view,
                before,
                after: self.engine().cube_versioned(),
                answers,
            });
        }
        Ok(())
    }

    /// An analyst's unpersonalized pivot (the facade exposes no
    /// unrestricted request, so analysts call the engine).
    fn run_pivot(&self, rec: &mut Recorder, query: &Query, check: bool, due: Instant) {
        let before = check.then(|| self.engine().cube_versioned());
        let id = rec.next_id();
        let start = Instant::now();
        let result = self.engine().query_unpersonalized(query);
        let end = Instant::now();
        let outcome = match result {
            Ok(result) => {
                rec.facts_matched += result.facts_matched as u64;
                rec.facts_scanned += result.facts_scanned as u64;
                rec.scanned_pivots += 1;
                if let Some(before) = before {
                    rec.checks.push(Check {
                        kind: Kind::Pivot,
                        queries: vec![query.clone()],
                        view: Arc::new(InstanceView::unrestricted()),
                        before,
                        after: self.engine().cube_versioned(),
                        answers: vec![render(&result)],
                    });
                }
                Ok(())
            }
            Err(error) => Err(error.to_string()),
        };
        rec.request(id, Kind::Pivot, due, start, end, outcome);
    }

    /// An analyst's unpersonalized 8-panel dashboard in one shared scan.
    fn run_dashboard(&self, rec: &mut Recorder, queries: &[Query], check: bool, due: Instant) {
        let before = check.then(|| self.engine().cube_versioned());
        let id = rec.next_id();
        let start = Instant::now();
        let results = self.engine().query_batch_unpersonalized(queries);
        let end = Instant::now();
        let results: Result<Vec<_>, String> = match results {
            Ok(results) => results
                .into_iter()
                .map(|result| result.map_err(|e| format!("panel error: {e}")))
                .collect(),
            Err(error) => Err(error.to_string()),
        };
        let outcome = results.map(|results| {
            rec.facts_matched += results.iter().map(|r| r.facts_matched as u64).sum::<u64>();
            if let Some(before) = before {
                rec.checks.push(Check {
                    kind: Kind::Dashboard,
                    queries: queries.to_vec(),
                    view: Arc::new(InstanceView::unrestricted()),
                    before,
                    after: self.engine().cube_versioned(),
                    answers: results.iter().map(render).collect(),
                });
            }
        });
        rec.request(id, Kind::Dashboard, due, start, end, outcome);
    }

    /// The writer's read-your-writes flow: submit a batch, flush the
    /// pipeline, pin the session to the published generation, refresh.
    fn run_ryw(&self, rec: &mut Recorder, check: bool, due: Instant) {
        let feed = self
            .feed
            .as_ref()
            .expect("dashboards_under_ingest has a feed");
        let writer = self.writer.expect("dashboards_under_ingest has a writer");
        let id = rec.next_id();
        let start = Instant::now();
        let outcome = (|| {
            let submitted = {
                let mut state = feed.state.lock().expect("feed lock");
                feed.submit(&mut state, rec, id)
            };
            submitted?;
            let t = Instant::now();
            let generation = feed.flush();
            rec.child(id, "ingest.flush", t, Instant::now());
            let generation = generation?;
            let t = Instant::now();
            let pinned = self.engine().pin_session_generation(writer, generation);
            rec.child(id, "core.pin_session_generation", t, Instant::now());
            pinned.map_err(|error| error.to_string())?;
            let sample = self.sample_before(check, writer);
            let request = WebRequest::QueryBatch {
                session: writer,
                queries: self.dashboard.clone(),
                deadline_micros: None,
            };
            let t = Instant::now();
            let response = self.facade.handle(request);
            rec.child(id, "web.query_batch", t, Instant::now());
            self.settle_batch(rec, Kind::Ryw, batch_answer(response), sample)
        })();
        rec.request(id, Kind::Ryw, due, start, Instant::now(), outcome);
    }
}
