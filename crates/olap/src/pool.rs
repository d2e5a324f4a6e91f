//! The shared morsel worker pool: engine-lifetime workers, per-tenant
//! (session-class) queues with weighted deficit scheduling, and the
//! admission controller in front of query execution.
//!
//! # Why a pool
//!
//! Without it, every parallel query would pay to spin up its own worker
//! threads and all queries would contend for cores at equal priority — a
//! heavy analytical tenant could starve a latency-bound dashboard tenant
//! simply by keeping more scans in flight. The pool
//! replaces per-query spawns with N long-lived workers (spawned once,
//! joined on drop) and puts a *scheduler* between queries and workers:
//! each tenant ([`ClassId`]) owns a queue of morsel task sets, and workers
//! pull from the queues by **deficit round-robin** weighted by the
//! tenant's [`TenantPolicy::weight`] — a tenant with weight 4 is served
//! four task items for every one of a weight-1 tenant whenever both have
//! work queued, and an idle tenant costs nothing.
//!
//! # Execution model: caller + helpers
//!
//! A query does not hand its whole scan to the pool and wait. The calling
//! thread *always* scans (so a query makes progress even when every
//! worker is busy with other tenants, and a `workers = 1` configuration
//! never touches the pool), and [`MorselPool::scan_cancellable`] enqueues
//! up to `helpers` additional task items that let pool workers join the same
//! morsel loop. All participants pull morsel indices from the query's
//! shared atomic counter, so how many helpers actually arrive — zero under
//! saturation, all of them when idle — changes only latency, never
//! results: partials still merge in morsel-index order
//! (see [`crate::engine`]), which the `pool_equivalence` property suite
//! enforces against inline execution and the serial reference.
//!
//! When the caller finishes its own loop the morsel counter is exhausted,
//! so still-queued helper items can contribute nothing: they are removed
//! from the queue under the scheduler lock, and the caller waits only for
//! helpers *already running* — which are scanning this query's morsels
//! and must finish before the borrowed stack frames unwind. That wait is
//! what makes the lifetime-erasing submission sound (see the safety
//! comment in [`MorselPool::scan_cancellable`]).
//!
//! # Admission control
//!
//! [`MorselPool::try_admit`] is the gate in front of execution, mirroring
//! the ingest pipeline's `submit` / `try_submit` split: a tenant whose
//! [`TenantPolicy`] marks it `best_effort` gets an immediate typed
//! [`ShedError`] once its in-flight or queue-depth budget is exhausted
//! (load shedding — the web tier surfaces this as a typed rejection),
//! while a guaranteed tenant blocks until capacity frees (backpressure).
//! The returned [`AdmissionGuard`] releases the slot on drop, so an
//! execution error can never leak budget.
//!
//! # Feedback loop
//!
//! [`MorselPool::rebalance`] closes the loop with the observability
//! layer: it reads each tenant's **windowed** `query_total` latency
//! histogram delta since the previous call (bucket-exact, see
//! `HistogramSnapshot::merge`) and doubles the tenant's effective
//! scheduler share while its p99 misses [`TenantPolicy::target_p99_micros`],
//! decaying back toward the configured weight once the tenant runs
//! comfortably under target. Call it manually, or let
//! [`MorselPool::start_autotune`] run it on an interval.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use sdwp_obs::{ClassId, HistogramSnapshot, MetricsRegistry, Stage, MAX_CLASSES};

/// Number of tenant queues the pool schedules between — one per
/// session class the metrics registry can name.
pub const MAX_TENANTS: usize = MAX_CLASSES;

/// Ceiling the rebalance feedback loop may raise a tenant's effective
/// share to, as a multiple of its configured weight.
const MAX_BOOST: u32 = 8;

/// Minimum windowed sample count before `rebalance` trusts a tenant's
/// p99 enough to move its share.
const REBALANCE_MIN_SAMPLES: u64 = 8;

/// Per-tenant scheduling and admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Deficit round-robin weight: task items served per scheduling
    /// round relative to other tenants (clamped to at least 1).
    pub weight: u32,
    /// Admission budget: maximum queries of this tenant in flight at
    /// once. `0` means unlimited.
    pub max_in_flight: usize,
    /// Queue-depth budget: maximum helper task items queued for this
    /// tenant. Admission counts it, and `scan` enqueues fewer helpers
    /// rather than growing past it. `0` means unlimited.
    pub max_queued: usize,
    /// Over-budget behaviour: `true` sheds immediately with a typed
    /// [`ShedError`] (mirroring ingest `try_submit`), `false` blocks
    /// until capacity frees (backpressure).
    pub best_effort: bool,
    /// Latency target for the rebalance feedback loop: while the
    /// tenant's windowed `query_total` p99 exceeds this, its effective
    /// share is raised. `0` opts out of rebalancing.
    pub target_p99_micros: u64,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            weight: 1,
            max_in_flight: 0,
            max_queued: 0,
            best_effort: false,
            target_p99_micros: 0,
        }
    }
}

impl TenantPolicy {
    /// Sets the scheduling weight (clamped to at least 1).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the in-flight admission budget (`0` = unlimited).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Sets the queued-task budget (`0` = unlimited).
    pub fn with_max_queued(mut self, max_queued: usize) -> Self {
        self.max_queued = max_queued;
        self
    }

    /// Marks the tenant best-effort: over-budget admissions shed
    /// instead of blocking.
    pub fn best_effort(mut self) -> Self {
        self.best_effort = true;
        self
    }

    /// Sets the p99 latency target the rebalance loop steers toward
    /// (`0` opts out).
    pub fn with_target_p99_micros(mut self, micros: u64) -> Self {
        self.target_p99_micros = micros;
        self
    }
}

/// Construction parameters of a [`MorselPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolConfig {
    /// Number of long-lived worker threads. `0` sizes to the machine:
    /// available parallelism minus one (the calling thread always
    /// participates in its own scan), at least 1.
    pub workers: usize,
    /// Policy applied to every tenant until
    /// [`MorselPool::set_policy`] overrides it.
    pub default_policy: TenantPolicy,
}

impl PoolConfig {
    /// Sets the worker-thread count (`0` = machine-sized).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the policy tenants start with.
    pub fn with_default_policy(mut self, policy: TenantPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .saturating_sub(1)
                .max(1)
        }
    }
}

/// Typed admission rejection: the tenant's budget was exhausted and its
/// policy is best-effort. Carries the state observed at the decision so
/// the web tier can surface an actionable rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedError {
    /// The tenant that was shed.
    pub class: ClassId,
    /// Queries of the tenant in flight at the decision.
    pub in_flight: usize,
    /// Helper task items of the tenant queued at the decision.
    pub queued: usize,
    /// The in-flight budget that was exceeded (`0` = unlimited).
    pub max_in_flight: usize,
    /// The queue-depth budget that was exceeded (`0` = unlimited).
    pub max_queued: usize,
}

impl fmt::Display for ShedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query shed: class {} over budget ({} in flight / limit {}, {} queued / limit {})",
            self.class.0, self.in_flight, self.max_in_flight, self.queued, self.max_queued
        )
    }
}

impl std::error::Error for ShedError {}

/// Outcome of the deadline-bounded admission gate
/// [`MorselPool::admit_until`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The tenant is best-effort and over budget: shed immediately.
    Shed(ShedError),
    /// The tenant is guaranteed, but its query's deadline expired while
    /// it was blocked waiting for capacity.
    DeadlineExceeded {
        /// The tenant whose wait timed out.
        class: ClassId,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Shed(shed) => shed.fmt(f),
            AdmitError::DeadlineExceeded { class } => write!(
                f,
                "query deadline expired while class {} waited for admission",
                class.0
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// RAII admission slot from [`MorselPool::try_admit`]: the tenant's
/// in-flight count is released on drop, so no execution path — error or
/// success — can leak budget.
pub struct AdmissionGuard {
    shared: Arc<Shared>,
    tenant: usize,
}

impl fmt::Debug for AdmissionGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionGuard")
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        let mut inner = self.shared.lock_inner();
        inner.in_flight[self.tenant] -= 1;
        drop(inner);
        self.shared.admit_released.notify_all();
    }
}

/// Scheduler state of one tenant, as reported by [`MorselPool::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant.
    pub class: ClassId,
    /// Helper task items currently queued.
    pub queued: usize,
    /// Admitted queries currently in flight.
    pub in_flight: usize,
    /// Configured scheduling weight.
    pub weight: u32,
    /// Effective share after rebalancing (equals `weight` until the
    /// feedback loop boosts it).
    pub share: u32,
    /// Task items dispatched to workers so far.
    pub dispatched_total: u64,
    /// Admissions shed so far.
    pub shed_total: u64,
}

/// Point-in-time scheduler statistics of the whole pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Long-lived worker threads.
    pub workers: usize,
    /// One entry per tenant slot, index-aligned with [`ClassId`].
    pub tenants: Vec<TenantStats>,
}

/// One query's submission to the pool: the lifetime-erased scan closure
/// plus the completion latch the submitting thread blocks on. Queued
/// `helpers` times; every dispatch runs the same closure (participants
/// share the query's morsel counter).
struct TaskSet {
    /// The scan loop. Really borrows the submitting scan call's stack
    /// frame; the `'static` is a lie made sound by the call not
    /// returning until `outstanding` reaches zero.
    work: &'static (dyn Fn() + Send + Sync),
    /// The query's cancellation token: a panicking helper poisons it so
    /// the other participants stop scanning. Borrows the same stack
    /// frame as `work`, under the same soundness argument.
    cancel: &'static CancelToken,
    tenant: usize,
    enqueued: Instant,
    /// Queued-or-running items not yet finished. The submitter waits for
    /// zero.
    outstanding: Mutex<usize>,
    done: Condvar,
}

impl TaskSet {
    /// Marks one dispatched item finished and wakes the submitter when
    /// it was the last.
    fn complete(&self) {
        let mut outstanding = self.outstanding.lock().expect("task latch poisoned");
        *outstanding -= 1;
        if *outstanding == 0 {
            drop(outstanding);
            self.done.notify_all();
        }
    }
}

/// Scheduler state, all under one mutex. The lock is taken per *task
/// item* (a whole scan-join, milliseconds of work) and per admission —
/// never per morsel — so a single mutex does not contend.
struct PoolInner {
    queues: Vec<VecDeque<Arc<TaskSet>>>,
    /// Deficit round-robin credits; replenished from `shares` when the
    /// cursor visits a backlogged tenant with no credit left.
    deficit: Vec<u32>,
    /// Effective weights the scheduler serves by: the configured
    /// [`TenantPolicy::weight`] times the rebalance boost.
    shares: Vec<u32>,
    policies: Vec<TenantPolicy>,
    in_flight: Vec<usize>,
    /// Cumulative `query_total` histogram at the last rebalance, per
    /// tenant — the baseline the windowed delta is computed against.
    rebalance_seen: Vec<HistogramSnapshot>,
    cursor: usize,
    shutdown: bool,
}

struct Shared {
    inner: Mutex<PoolInner>,
    /// Signalled when task items are queued (workers wait here).
    work_available: Condvar,
    /// Signalled when in-flight or queue capacity frees (blocking
    /// admissions wait here).
    admit_released: Condvar,
    /// Signalled only at shutdown (the autotune thread sleeps here).
    shutdown_cv: Condvar,
    registry: Option<Arc<MetricsRegistry>>,
    dispatched: Vec<AtomicU64>,
    shed: Vec<AtomicU64>,
    workers: usize,
}

impl Shared {
    fn lock_inner(&self) -> MutexGuard<'_, PoolInner> {
        // Worker panics are confined by `catch_unwind` before any pool
        // lock is taken, so poisoning here means a bug in the pool
        // itself — propagate it loudly.
        self.inner.lock().expect("morsel pool scheduler poisoned")
    }
}

/// Picks the next task item by weighted deficit round-robin. Visiting a
/// backlogged tenant with no credit replenishes its deficit from its
/// share, then items are served until the credit or the backlog runs
/// out — so over any busy period tenants are served in proportion to
/// their shares, and idle tenants are skipped for free.
fn next_item(inner: &mut PoolInner) -> Option<Arc<TaskSet>> {
    if inner.queues.iter().all(VecDeque::is_empty) {
        return None;
    }
    loop {
        let t = inner.cursor;
        if inner.queues[t].is_empty() {
            inner.deficit[t] = 0;
            inner.cursor = (t + 1) % MAX_TENANTS;
            continue;
        }
        if inner.deficit[t] == 0 {
            inner.deficit[t] = inner.shares[t].max(1);
        }
        let set = inner.queues[t].pop_front().expect("backlog checked");
        inner.deficit[t] -= 1;
        if inner.queues[t].is_empty() || inner.deficit[t] == 0 {
            inner.deficit[t] = if inner.queues[t].is_empty() {
                0
            } else {
                inner.deficit[t]
            };
            inner.cursor = (t + 1) % MAX_TENANTS;
        }
        return Some(set);
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let set = {
            let mut inner = shared.lock_inner();
            loop {
                if inner.shutdown {
                    return;
                }
                if let Some(set) = next_item(&mut inner) {
                    break set;
                }
                inner = shared
                    .work_available
                    .wait(inner)
                    .expect("morsel pool scheduler poisoned");
            }
        };
        // The queue shrank: a blocking admission bounded by
        // `max_queued` may now proceed.
        shared.admit_released.notify_all();
        if let Some(registry) = &shared.registry {
            registry.record_micros(
                Stage::SchedulerWait,
                ClassId(set.tenant as u8),
                set.enqueued.elapsed().as_micros() as u64,
            );
        }
        shared.dispatched[set.tenant].fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::fail_point!("pool.helper.start");
            (set.work)()
        }));
        if outcome.is_err() {
            // Contain the panic to its query: poison the query's token
            // so surviving participants stop pulling morsels. The worker
            // itself keeps serving other tenants.
            set.cancel.poison();
        }
        set.complete();
    }
}

/// Runs the calling thread's side of a scan. A caller panic is
/// contained exactly like a helper panic: the token is poisoned (so
/// helpers stop) and the unwind is swallowed — the executor turns the
/// poisoned token into a typed error.
fn run_participant(cancel: &CancelToken, work: &(dyn Fn() + Send + Sync)) {
    if catch_unwind(AssertUnwindSafe(work)).is_err() {
        cancel.poison();
    }
}

/// Joins the caller's submission on every exit path: removes
/// still-queued items under the scheduler lock and waits for running
/// ones. Being a `Drop` guard makes the wait unconditional even if the
/// submitting frame unwinds — without it the unwind would free stack
/// frames helper threads still borrow.
struct ScanJoin<'a> {
    shared: &'a Shared,
    set: &'a Arc<TaskSet>,
}

impl Drop for ScanJoin<'_> {
    fn drop(&mut self) {
        let removed = {
            let mut inner = self.shared.lock_inner();
            let queue = &mut inner.queues[self.set.tenant];
            let before = queue.len();
            queue.retain(|queued| !Arc::ptr_eq(queued, self.set));
            before - queue.len()
        };
        if removed > 0 {
            self.shared.admit_released.notify_all();
        }
        let mut outstanding = self.set.outstanding.lock().expect("task latch poisoned");
        *outstanding -= removed;
        while *outstanding > 0 {
            outstanding = self
                .set
                .done
                .wait(outstanding)
                .expect("task latch poisoned");
        }
    }
}

/// The shared, engine-lifetime morsel worker pool. See the module docs
/// for the scheduling and admission model. Dropping the pool shuts the
/// workers down and joins them.
pub struct MorselPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    autotune: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for MorselPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MorselPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl MorselPool {
    /// Creates a pool with no metrics attachment (wait times are not
    /// recorded; shedding is still counted in [`MorselPool::stats`]).
    pub fn new(config: PoolConfig) -> Self {
        Self::build(config, None)
    }

    /// Creates a pool recording scheduler wait times into `registry`
    /// (as [`Stage::SchedulerWait`] keyed by tenant class) and reading
    /// per-tenant `query_total` latencies back out of it in
    /// [`MorselPool::rebalance`].
    pub fn with_registry(config: PoolConfig, registry: Arc<MetricsRegistry>) -> Self {
        Self::build(config, Some(registry))
    }

    fn build(config: PoolConfig, registry: Option<Arc<MetricsRegistry>>) -> Self {
        let workers = config.effective_workers();
        let policy = TenantPolicy {
            weight: config.default_policy.weight.max(1),
            ..config.default_policy
        };
        let shared = Arc::new(Shared {
            inner: Mutex::new(PoolInner {
                queues: (0..MAX_TENANTS).map(|_| VecDeque::new()).collect(),
                deficit: vec![0; MAX_TENANTS],
                shares: vec![policy.weight; MAX_TENANTS],
                policies: vec![policy; MAX_TENANTS],
                in_flight: vec![0; MAX_TENANTS],
                rebalance_seen: vec![HistogramSnapshot::empty(); MAX_TENANTS],
                cursor: 0,
                shutdown: false,
            }),
            work_available: Condvar::new(),
            admit_released: Condvar::new(),
            shutdown_cv: Condvar::new(),
            registry,
            dispatched: (0..MAX_TENANTS).map(|_| AtomicU64::new(0)).collect(),
            shed: (0..MAX_TENANTS).map(|_| AtomicU64::new(0)).collect(),
            workers,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sdwp-morsel-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn morsel pool worker")
            })
            .collect();
        MorselPool {
            shared,
            workers: handles,
            autotune: Mutex::new(None),
        }
    }

    /// Number of long-lived worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// Replaces a tenant's policy. Resets the tenant's effective share
    /// to the new weight (any rebalance boost is dropped).
    pub fn set_policy(&self, class: ClassId, policy: TenantPolicy) {
        let t = tenant_index(class);
        let normalized = TenantPolicy {
            weight: policy.weight.max(1),
            ..policy
        };
        let mut inner = self.shared.lock_inner();
        inner.policies[t] = normalized;
        inner.shares[t] = normalized.weight;
        drop(inner);
        // A raised budget may unblock a waiting guaranteed admission.
        self.shared.admit_released.notify_all();
    }

    /// A tenant's current policy.
    pub fn policy(&self, class: ClassId) -> TenantPolicy {
        self.shared.lock_inner().policies[tenant_index(class)]
    }

    /// The admission gate. Returns a slot guard when the tenant is
    /// within its in-flight and queue-depth budgets; otherwise sheds
    /// immediately (best-effort tenants) or blocks until capacity frees
    /// (guaranteed tenants — the ingest `submit` analogue).
    pub fn try_admit(&self, class: ClassId) -> Result<AdmissionGuard, ShedError> {
        self.admit_until(class, None).map_err(|error| match error {
            AdmitError::Shed(shed) => shed,
            // Without a deadline the guaranteed branch waits forever.
            AdmitError::DeadlineExceeded { .. } => unreachable!("no deadline was given"),
        })
    }

    /// The deadline-bounded admission gate: like
    /// [`MorselPool::try_admit`], but a *guaranteed* tenant blocks only
    /// until `deadline` — a query whose budget expires while parked in
    /// admission comes back with a typed
    /// [`AdmitError::DeadlineExceeded`] instead of waiting forever.
    pub fn admit_until(
        &self,
        class: ClassId,
        deadline: Option<Instant>,
    ) -> Result<AdmissionGuard, AdmitError> {
        let t = tenant_index(class);
        let mut inner = self.shared.lock_inner();
        loop {
            let policy = inner.policies[t];
            let over_in_flight =
                policy.max_in_flight > 0 && inner.in_flight[t] >= policy.max_in_flight;
            let over_queued = policy.max_queued > 0 && inner.queues[t].len() >= policy.max_queued;
            if !over_in_flight && !over_queued {
                inner.in_flight[t] += 1;
                return Ok(AdmissionGuard {
                    shared: Arc::clone(&self.shared),
                    tenant: t,
                });
            }
            if policy.best_effort {
                self.shared.shed[t].fetch_add(1, Ordering::Relaxed);
                return Err(AdmitError::Shed(ShedError {
                    class: ClassId(t as u8),
                    in_flight: inner.in_flight[t],
                    queued: inner.queues[t].len(),
                    max_in_flight: policy.max_in_flight,
                    max_queued: policy.max_queued,
                }));
            }
            match deadline {
                None => {
                    inner = self
                        .shared
                        .admit_released
                        .wait(inner)
                        .expect("morsel pool scheduler poisoned");
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(AdmitError::DeadlineExceeded {
                            class: ClassId(t as u8),
                        });
                    }
                    let (guard, _timed_out) = self
                        .shared
                        .admit_released
                        .wait_timeout(inner, deadline - now)
                        .expect("morsel pool scheduler poisoned");
                    inner = guard;
                }
            }
        }
    }

    /// Runs `work` on the calling thread and on up to `helpers` pool
    /// workers concurrently; returns once every participant finished.
    ///
    /// `work` is the query's morsel loop: all participants pull from
    /// the same atomic morsel counter, so extra invocations past
    /// exhaustion return immediately and the result is independent of
    /// how many helpers actually ran. Helper items still queued when
    /// the caller's own loop completes are cancelled. A panicking
    /// participant — helper *or* caller — **poisons the token** rather
    /// than unwinding, the other participants observe it between
    /// morsels and stop, and `scan_cancellable` returns normally. The
    /// caller reads the typed outcome from
    /// [`CancelToken::terminal_error`]; the pool, its scheduler lock
    /// and the tenant's admission slot all stay healthy.
    pub fn scan_cancellable(
        &self,
        class: ClassId,
        helpers: usize,
        cancel: &CancelToken,
        work: &(dyn Fn() + Send + Sync),
    ) {
        if helpers == 0 || self.shared.workers == 0 {
            run_participant(cancel, work);
            return;
        }
        // SAFETY: the closure borrows the caller's stack frame, but
        // every queued item is either executed to completion or removed
        // from the queue under the scheduler lock before this returns
        // (`ScanJoin::drop` runs even when `work` unwinds), so no
        // worker can dereference `work` after this frame is gone. The
        // token borrows the same frame under the same argument.
        let work: &'static (dyn Fn() + Send + Sync) = unsafe { std::mem::transmute(work) };
        let cancel: &'static CancelToken = unsafe { std::mem::transmute(cancel) };
        let t = tenant_index(class);
        let set = Arc::new(TaskSet {
            work,
            cancel,
            tenant: t,
            enqueued: Instant::now(),
            outstanding: Mutex::new(0),
            done: Condvar::new(),
        });
        let queued = {
            let mut inner = self.shared.lock_inner();
            let policy = inner.policies[t];
            let room = if policy.max_queued == 0 {
                helpers
            } else {
                policy
                    .max_queued
                    .saturating_sub(inner.queues[t].len())
                    .min(helpers)
            };
            if room > 0 {
                *set.outstanding.lock().expect("task latch poisoned") = room;
                for _ in 0..room {
                    inner.queues[t].push_back(Arc::clone(&set));
                }
            }
            room
        };
        if queued == 1 {
            self.shared.work_available.notify_one();
        } else if queued > 1 {
            self.shared.work_available.notify_all();
        }
        let join = ScanJoin {
            shared: &self.shared,
            set: &set,
        };
        run_participant(cancel, work);
        drop(join);
    }

    /// One step of the latency-target feedback loop. For every tenant
    /// with a [`TenantPolicy::target_p99_micros`], reads the
    /// `query_total` histogram delta since the previous call from the
    /// attached registry and steers the tenant's effective share:
    /// doubled (up to `weight × 8`) while the windowed p99 misses the
    /// target, halved back toward the configured weight while it runs
    /// under half the target. Returns the tenants whose share changed.
    /// No-op without a registry.
    pub fn rebalance(&self) -> Vec<(ClassId, u32)> {
        let Some(registry) = &self.shared.registry else {
            return Vec::new();
        };
        let mut changed = Vec::new();
        let mut inner = self.shared.lock_inner();
        for t in 0..MAX_TENANTS {
            let policy = inner.policies[t];
            if policy.target_p99_micros == 0 {
                continue;
            }
            let class = ClassId(t as u8);
            let current = registry.stage_histogram(Stage::QueryTotal, class);
            let seen = &inner.rebalance_seen[t];
            let window = HistogramSnapshot {
                buckets: current
                    .buckets
                    .iter()
                    .zip(seen.buckets.iter().chain(std::iter::repeat(&0)))
                    .map(|(now, then)| now.saturating_sub(*then))
                    .collect(),
                count: current.count.saturating_sub(seen.count),
                sum_micros: current.sum_micros.saturating_sub(seen.sum_micros),
            };
            if window.count < REBALANCE_MIN_SAMPLES {
                continue; // keep accumulating the window
            }
            inner.rebalance_seen[t] = current;
            let p99 = window.quantile(0.99);
            let base = policy.weight.max(1);
            let share = inner.shares[t].max(1);
            let next = if p99 > policy.target_p99_micros {
                (share * 2).min(base * MAX_BOOST)
            } else if p99 * 2 < policy.target_p99_micros {
                (share / 2).max(base)
            } else {
                share
            };
            if next != share {
                inner.shares[t] = next;
                changed.push((class, next));
            }
        }
        changed
    }

    /// Spawns a background controller calling
    /// [`MorselPool::rebalance`] every `interval` until the pool drops.
    /// Idempotent: a second call keeps the first controller.
    pub fn start_autotune(self: &Arc<Self>, interval: Duration) {
        let mut slot = self.autotune.lock().expect("autotune slot poisoned");
        if slot.is_some() {
            return;
        }
        let pool = Arc::clone(self);
        *slot = Some(
            std::thread::Builder::new()
                .name("sdwp-morsel-autotune".to_string())
                .spawn(move || loop {
                    {
                        let inner = pool.shared.lock_inner();
                        if inner.shutdown {
                            return;
                        }
                        let (inner, _) = pool
                            .shared
                            .shutdown_cv
                            .wait_timeout(inner, interval)
                            .expect("morsel pool scheduler poisoned");
                        if inner.shutdown {
                            return;
                        }
                    }
                    pool.rebalance();
                })
                .expect("spawn morsel pool autotune"),
        );
    }

    /// Point-in-time scheduler statistics.
    pub fn stats(&self) -> PoolStats {
        let inner = self.shared.lock_inner();
        let tenants = (0..MAX_TENANTS)
            .map(|t| TenantStats {
                class: ClassId(t as u8),
                queued: inner.queues[t].len(),
                in_flight: inner.in_flight[t],
                weight: inner.policies[t].weight,
                share: inner.shares[t],
                dispatched_total: self.shared.dispatched[t].load(Ordering::Relaxed),
                shed_total: self.shared.shed[t].load(Ordering::Relaxed),
            })
            .collect();
        PoolStats {
            workers: self.shared.workers,
            tenants,
        }
    }
}

impl Drop for MorselPool {
    fn drop(&mut self) {
        self.shared.lock_inner().shutdown = true;
        self.shared.work_available.notify_all();
        self.shared.shutdown_cv.notify_all();
        self.shared.admit_released.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.autotune.lock().expect("autotune slot poisoned").take() {
            let _ = handle.join();
        }
    }
}

/// Clamps a class id onto a tenant queue index (out-of-range ids — the
/// registry never hands these out — alias to the last slot, matching
/// the registry's own histogram clamping).
fn tenant_index(class: ClassId) -> usize {
    (class.0 as usize).min(MAX_TENANTS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Tag appended by a pool *worker* (never by the submitting
    /// thread), so dispatch order is observable.
    fn record_worker(order: &Mutex<Vec<u8>>, tag: u8) {
        let from_pool = std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("sdwp-morsel-"));
        if from_pool {
            order.lock().unwrap().push(tag);
        }
    }

    #[test]
    fn scan_runs_caller_and_helpers_to_completion() {
        let pool = MorselPool::new(PoolConfig::default().with_workers(3));
        let counter = AtomicUsize::new(0);
        let work = || {
            counter.fetch_add(1, Ordering::Relaxed);
        };
        pool.scan_cancellable(ClassId::DEFAULT, 3, &CancelToken::new(), &work);
        // The caller ran exactly once; helpers ran at most 3 times
        // (cancelled ones not at all).
        let ran = counter.load(Ordering::Relaxed);
        assert!((1..=4).contains(&ran), "ran {ran} times");
    }

    #[test]
    fn weighted_scheduling_prefers_heavier_tenant() {
        // One worker, gated: queue items for a weight-1 and a weight-4
        // tenant while the worker is busy, then release the gate and
        // observe the dispatch interleaving.
        let pool = Arc::new(MorselPool::new(PoolConfig::default().with_workers(1)));
        let light = ClassId(1);
        let heavy = ClassId(2);
        pool.set_policy(light, TenantPolicy::default().with_weight(1));
        pool.set_policy(heavy, TenantPolicy::default().with_weight(4));

        let gate = Arc::new((Mutex::new(true), Condvar::new()));
        let order = Arc::new(Mutex::new(Vec::new()));

        // Occupy the single worker until the gate opens. The submitting
        // thread spins until the worker has actually dequeued the item
        // (so its join cannot cancel it), then parks on the latch.
        let gate_scan = {
            let pool = Arc::clone(&pool);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let work = {
                    let pool = Arc::clone(&pool);
                    let gate = Arc::clone(&gate);
                    move || {
                        if std::thread::current()
                            .name()
                            .is_some_and(|n| n.starts_with("sdwp-morsel-"))
                        {
                            let (lock, cv) = &*gate;
                            let mut closed = lock.lock().unwrap();
                            while *closed {
                                closed = cv.wait(closed).unwrap();
                            }
                        } else {
                            while pool.stats().tenants[0].dispatched_total == 0 {
                                std::thread::yield_now();
                            }
                        }
                    }
                };
                pool.scan_cancellable(ClassId::DEFAULT, 1, &CancelToken::new(), &work);
            })
        };
        // Wait until the worker is actually parked inside the gate.
        while pool.stats().tenants[0].dispatched_total == 0 {
            std::thread::yield_now();
        }

        // Submitters queue 6 items each behind the gated worker; their
        // own loop (the caller side) holds the task set open until both
        // queues have fully drained, so no item is cancelled and the
        // recorded dispatch order is exactly the scheduler's.
        let submit = |class: ClassId, tag: u8, items: usize| {
            let pool = Arc::clone(&pool);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let work = {
                    let pool = Arc::clone(&pool);
                    let order = Arc::clone(&order);
                    move || {
                        record_worker(&order, tag);
                        let caller = !std::thread::current()
                            .name()
                            .is_some_and(|n| n.starts_with("sdwp-morsel-"));
                        if caller {
                            loop {
                                let stats = pool.stats();
                                if stats.tenants[1].queued == 0 && stats.tenants[2].queued == 0 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                };
                pool.scan_cancellable(class, items, &CancelToken::new(), &work);
            })
        };
        let light_scan = submit(light, b'l', 6);
        let heavy_scan = submit(heavy, b'h', 6);
        // Both tenants fully queued behind the gated worker.
        loop {
            let stats = pool.stats();
            if stats.tenants[1].queued == 6 && stats.tenants[2].queued == 6 {
                break;
            }
            std::thread::yield_now();
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = false;
            cv.notify_all();
        }
        gate_scan.join().unwrap();
        light_scan.join().unwrap();
        heavy_scan.join().unwrap();

        let order = order.lock().unwrap();
        assert_eq!(order.len(), 12, "every queued item was dispatched");
        // Weight 4 vs 1: at any prefix of the dispatch order the heavy
        // tenant has been served at least as many items as the light
        // one (give or take the one-item round the cursor may start
        // on), and its backlog drains far earlier than strict
        // alternation would allow.
        let mut light_seen = 0usize;
        let mut heavy_seen = 0usize;
        for &tag in order.iter() {
            match tag {
                b'l' => light_seen += 1,
                b'h' => heavy_seen += 1,
                _ => unreachable!(),
            }
            assert!(
                heavy_seen + 1 >= light_seen,
                "weight-4 tenant fell behind weight-1 tenant: order {:?}",
                String::from_utf8_lossy(&order)
            );
        }
        let last_heavy = order.iter().rposition(|&t| t == b'h').unwrap();
        assert!(
            last_heavy <= 8,
            "weight-4 backlog should drain within 9 dispatches, order {:?}",
            String::from_utf8_lossy(&order)
        );
    }

    #[test]
    fn best_effort_admission_sheds_over_budget() {
        let pool = MorselPool::new(PoolConfig::default().with_workers(1));
        let class = ClassId(3);
        pool.set_policy(
            class,
            TenantPolicy::default().with_max_in_flight(1).best_effort(),
        );
        let first = pool.try_admit(class).expect("within budget");
        let shed = pool.try_admit(class).expect_err("over budget must shed");
        assert_eq!(shed.class, class);
        assert_eq!(shed.in_flight, 1);
        assert_eq!(shed.max_in_flight, 1);
        assert_eq!(pool.stats().tenants[3].shed_total, 1);
        drop(first);
        // Capacity released: admission succeeds again.
        let again = pool.try_admit(class).expect("slot freed");
        drop(again);
    }

    #[test]
    fn guaranteed_admission_blocks_until_capacity_frees() {
        let pool = Arc::new(MorselPool::new(PoolConfig::default().with_workers(1)));
        let class = ClassId(4);
        pool.set_policy(class, TenantPolicy::default().with_max_in_flight(1));
        let held = pool.try_admit(class).expect("within budget");
        let admitted = Arc::new(AtomicBool::new(false));
        let waiter = {
            let pool = Arc::clone(&pool);
            let admitted = Arc::clone(&admitted);
            std::thread::spawn(move || {
                let guard = pool.try_admit(class).expect("guaranteed never sheds");
                admitted.store(true, Ordering::SeqCst);
                drop(guard);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !admitted.load(Ordering::SeqCst),
            "guaranteed admission must block while the budget is full"
        );
        drop(held);
        waiter.join().unwrap();
        assert!(admitted.load(Ordering::SeqCst));
    }

    #[test]
    fn rebalance_boosts_missing_tenant_and_decays_back() {
        let registry = Arc::new(MetricsRegistry::new());
        let pool =
            MorselPool::with_registry(PoolConfig::default().with_workers(1), Arc::clone(&registry));
        let class = ClassId(1);
        pool.set_policy(
            class,
            TenantPolicy::default()
                .with_weight(2)
                .with_target_p99_micros(1_000),
        );
        // A window of slow queries: p99 far over the 1 ms target.
        for _ in 0..16 {
            registry.record_micros(Stage::QueryTotal, class, 50_000);
        }
        let changed = pool.rebalance();
        assert_eq!(changed, vec![(class, 4)], "share doubles on a miss");
        // Keep missing: boost saturates at weight × 8.
        for _ in 0..4 {
            for _ in 0..16 {
                registry.record_micros(Stage::QueryTotal, class, 50_000);
            }
            pool.rebalance();
        }
        assert_eq!(pool.stats().tenants[1].share, 16);
        // A fast window decays the share back toward the weight.
        for _ in 0..5 {
            for _ in 0..16 {
                registry.record_micros(Stage::QueryTotal, class, 10);
            }
            pool.rebalance();
        }
        assert_eq!(pool.stats().tenants[1].share, 2, "decays to base weight");
    }

    #[test]
    fn stats_report_queue_and_worker_shape() {
        let pool = MorselPool::new(PoolConfig::default().with_workers(2));
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.tenants.len(), MAX_TENANTS);
        assert!(stats.tenants.iter().all(|t| t.queued == 0));
    }

    #[test]
    fn cancellable_scan_contains_helper_panic_and_balances_stats() {
        let pool = MorselPool::new(PoolConfig::default().with_workers(2));
        let class = ClassId(5);
        let slot = pool.try_admit(class).expect("within budget");
        let token = CancelToken::new();
        let armed = AtomicBool::new(true);
        let work = || {
            let is_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("sdwp-morsel-"));
            if is_worker && armed.swap(false, Ordering::Relaxed) {
                panic!("boom");
            }
            if !is_worker {
                // Give idle workers time to dequeue the helper item
                // before the join cancels it.
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        // Keep submitting until a helper actually took the grenade (a
        // queued item may be cancelled before running). The panic must
        // NOT re-raise here: it poisons the token instead.
        while armed.load(Ordering::Relaxed) {
            pool.scan_cancellable(class, 2, &token, &work);
        }
        assert!(token.is_panicked(), "helper panic poisons the token");
        assert_eq!(
            token.terminal_error(),
            Some(crate::error::OlapError::ExecutionPanicked)
        );
        // The admission slot releases normally — nothing leaked.
        drop(slot);
        let stats = pool.stats();
        let tenant = &stats.tenants[5];
        assert_eq!(
            (tenant.queued, tenant.in_flight),
            (0, 0),
            "panic must leave the scheduler balanced"
        );
        // The pool (and its scheduler mutex) keeps serving.
        let counter = AtomicUsize::new(0);
        pool.scan_cancellable(class, 2, &CancelToken::new(), &|| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert!(counter.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn cancellable_scan_contains_caller_panic() {
        let pool = MorselPool::new(PoolConfig::default().with_workers(1));
        let token = CancelToken::new();
        // Every participant panics — including the calling thread. The
        // call still returns instead of unwinding.
        pool.scan_cancellable(ClassId::DEFAULT, 1, &token, &|| panic!("boom"));
        assert!(token.is_panicked());
    }

    #[test]
    fn admit_until_bounds_a_guaranteed_wait_by_the_deadline() {
        let pool = MorselPool::new(PoolConfig::default().with_workers(1));
        let class = ClassId(6);
        pool.set_policy(class, TenantPolicy::default().with_max_in_flight(1));
        let held = pool.try_admit(class).expect("within budget");
        let err = pool
            .admit_until(class, Some(Instant::now() + Duration::from_millis(20)))
            .expect_err("budget stays full past the deadline");
        assert_eq!(err, AdmitError::DeadlineExceeded { class });
        drop(held);
        let slot = pool
            .admit_until(class, Some(Instant::now() + Duration::from_secs(5)))
            .expect("slot freed well before the deadline");
        drop(slot);
    }
}
