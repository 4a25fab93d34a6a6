//! `kvserve` — a durable, sharded key-value service on top of NV-HALT.
//!
//! The service demonstrates the paper's TM as a *storage engine*: keys are
//! hash-routed across N shards, each shard owning one
//! [`NvHalt`](nvhalt::NvHalt) instance and one transactional hashmap.
//! Per-shard worker threads drain a bounded request queue and coalesce
//! up to `batch_max` requests into a **single durable transaction**,
//! amortizing commit-time flush/fence costs — the service-level payoff
//! of the TM's cheap fine-grained-lock fast path.
//!
//! Robustness knobs (all in [`ServiceConfig`]):
//! - **deadlines** — every request carries one; expired requests get a
//!   typed [`ServeError::Timeout`], whether they expire in the queue or
//!   mid-retry;
//! - **backpressure** — a full shard queue rejects immediately with
//!   [`ServeError::Overloaded`] carrying a retry hint;
//! - **bounded retries** — a batch whose transaction exhausts its attempt
//!   fuel is retried under exponential backoff at most `max_retries`
//!   times, then answered [`ServeError::Aborted`].
//!
//! Crash/recovery are *service operations*: [`Service::crash`] simulates a
//! power failure (workers unwind mid-transaction), captures every pool's
//! durable image, and returns a [`CrashDump`]; [`Service::recover`] replays
//! TM recovery per pool, rebuilds the allocators from a heap walk, and
//! restarts the workers. The durable-linearizability contract at this
//! level: **every acked write survives; an un-acked request may or may not
//! have committed, but a multi-op request is never partially visible.**
//!
//! [`Service::snapshot`] exposes per-layer counters and fixed-bucket
//! latency histograms (shard, ring, 2PC coordinator) plus abort-cause
//! breakdowns from the TM — no external dependencies.
//!
//! The front end is completion-based ([`Ring`], see the `ring` module):
//! the blocking `get`/`put`/`batch` calls are thin wrappers that submit
//! to an internal ring and park on the ticket, while [`Service::ring`]
//! hands out rings that keep thousands of requests in flight from one
//! thread. Cross-shard batches are queued to dedicated 2PC driver
//! threads — no request path ever blocks on a per-request channel.

mod coord;
mod metrics;
pub mod migrate;
pub mod net;
pub mod probe;
pub mod repl;
mod ring;
mod shard;

pub use metrics::{
    CoordinatorSnapshot, HistogramSnapshot, NetSnapshot, ReplShardSnapshot, ReplSnapshot,
    RingSnapshot, ServiceSnapshot, ShardSnapshot,
};
pub use migrate::{MigrateCrash, MigrateReport, MigrateSpec};
pub use net::{FrameError, NetClient, NetConfig, NetError, NetKill, NetServer};
pub use probe::{Point, Probe};
pub use repl::{Follower, LogEntry, LogKind};
pub use ring::{Completion, Drain, Ring, Ticket};
pub use txstructs::MapOp;

use coord::{Coordinator, LogImage};
use crossbeam::channel::{self, Receiver, Sender};
use metrics::RingMetrics;
use nvhalt::NvHaltConfig;
use probe::ProbeCell;
use repl::ReplRuntime;
use ring::{RingCompletion, RingLane};
use shard::{PoolImage, Shard, ShardPool};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tm::Tm;

/// Extra time a blocking client waits past its deadline for the
/// worker-side timeout completion before abandoning the ticket.
const REPLY_GRACE: Duration = Duration::from_millis(100);

/// TM attempts (across both paths) a batch or 2PC prepare may burn
/// before its transaction is voluntarily cancelled back to the service
/// layer.
pub(crate) const ATTEMPT_FUEL: usize = 16;

/// First backoff sleep after a cancelled batch or 2PC round (doubling
/// per retry), and the retry hint of every `Overloaded` rejection.
pub(crate) const BACKOFF_BASE: Duration = Duration::from_micros(50);

/// Backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_millis(5);

/// The sleep before service-level retry `retry` (0-based) of a
/// cancelled transaction: exponential from [`BACKOFF_BASE`], capped at
/// [`BACKOFF_MAX`].
pub(crate) fn backoff(retry: u32) -> Duration {
    BACKOFF_BASE
        .saturating_mul(1u32 << retry.min(16))
        .min(BACKOFF_MAX)
}

/// Why a request was not served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeError {
    /// The request's deadline passed before it was served.
    Timeout,
    /// The shard's queue was full; retry after the hinted delay.
    Overloaded {
        /// Suggested client backoff before resubmitting.
        retry_after: Duration,
    },
    /// The batch transaction exhausted its retry budget.
    Aborted,
    /// The service (or its shard workers) stopped — e.g. a simulated
    /// power failure tore the worker down before it could ack.
    Stopped,
    /// Every slot of the submission ring is occupied (in flight or
    /// completed but not yet reaped). Reap completions, then resubmit.
    RingFull,
    /// The request was submitted under a routing-table epoch that a live
    /// shard migration has since flipped, and its keys no longer belong
    /// to the shard that dequeued it. Deterministic verdict: nothing was
    /// executed — re-route against the current table and resubmit.
    Rerouted,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Timeout => write!(f, "deadline exceeded"),
            ServeError::Overloaded { retry_after } => {
                write!(f, "shard queue full, retry after {retry_after:?}")
            }
            ServeError::Aborted => write!(f, "transaction retry budget exhausted"),
            ServeError::Stopped => write!(f, "service stopped"),
            ServeError::RingFull => write!(f, "submission ring full, reap completions"),
            ServeError::Rerouted => {
                write!(f, "routing table flipped under the request, resubmit")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// What a request resolves to: one value slot per submitted op, in
/// submission order. `Ok` is the durability ack; any `Err` means the
/// request was never acked (it may or may not have committed).
pub type Reply = Result<Vec<Option<u64>>, ServeError>;

/// One queued cross-shard request, awaiting a 2PC driver thread.
pub(crate) struct XRequest {
    pub ops: Vec<MapOp>,
    pub reply: RingCompletion,
    /// Absolute deadline; queue wait counts against it.
    pub deadline: Instant,
}

/// Service tuning knobs. Construct with [`ServiceConfig::new`] and adjust
/// fields as needed; `nvhalt` is a template whose `heap_words` /
/// `max_threads` are overridden per shard.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of shards (one NV-HALT instance + hashmap each).
    pub shards: usize,
    /// Worker threads per shard (each gets its own TM thread slot).
    pub workers_per_shard: usize,
    /// Maximum requests coalesced into one durable transaction.
    pub batch_max: usize,
    /// Bounded queue depth per shard; beyond it requests are rejected
    /// with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Request slots per [`Ring`] (also sizes the internal ring behind
    /// the blocking calls); a ring with no free slot rejects submissions
    /// with [`ServeError::RingFull`].
    pub ring_slots: usize,
    /// Hashmap buckets per shard.
    pub buckets_per_shard: usize,
    /// Transactional heap words per shard.
    pub heap_words_per_shard: usize,
    /// Deadline applied by the plain `get`/`put`/`del`/`batch` calls.
    pub default_deadline: Duration,
    /// Service-level batch retries after the transaction cancels.
    pub max_retries: u32,
    /// Cross-shard coordinator slots: how many client threads may drive
    /// 2PC batches concurrently. Each slot reserves one extra TM thread
    /// id on every shard and one on the decision log.
    pub coordinators: usize,
    /// Transactional heap words of the decision log's own TM.
    pub log_heap_words: usize,
    /// Replicate each shard to a follower NV-HALT instance: mutations
    /// reach a durable per-shard op log inside their own transaction, a
    /// shipper streams the log to the follower, and acks wait for the
    /// durable follower receive (semi-synchronous). Enables
    /// [`Service::fail_over`] / [`Service::promote`].
    pub replication: bool,
    /// Group-commit window of the shipping threads: once woken, a
    /// shipper lingers this long before its round, so every op-log
    /// entry appended in the window rides the round's single follower
    /// commit (one flush pass, one fence) instead of costing its own.
    /// Acks wait for the durable follower receive, so the window is a
    /// deliberate latency-for-persist-traffic trade; zero disables it.
    pub ship_coalesce: Duration,
    /// NV-HALT template for each shard (variant, policy, latency model).
    pub nvhalt: NvHaltConfig,
}

impl ServiceConfig {
    /// Defaults sized for functional tests: small heaps, zero simulated
    /// latency. Benchmarks override the `nvhalt` template and sizes.
    pub fn new(shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            workers_per_shard: 1,
            batch_max: 16,
            queue_depth: 1024,
            ring_slots: 4096,
            buckets_per_shard: 512,
            heap_words_per_shard: 1 << 16,
            default_deadline: Duration::from_secs(2),
            max_retries: 8,
            coordinators: 2,
            log_heap_words: 1 << 16,
            replication: false,
            ship_coalesce: Duration::ZERO,
            nvhalt: NvHaltConfig::test(1 << 16, 1),
        }
    }

    /// The per-shard NV-HALT configuration derived from the template.
    /// Thread slots: `workers_per_shard` for the shard's own workers,
    /// one participant slot per cross-shard coordinator, one slot for
    /// the replication shipper, and one for a live migration driver.
    /// The shipper and migration slots are reserved even when unused: a
    /// pool image's length depends on `max_threads`, and keeping it
    /// fixed lets primary images, follower images, a promoted
    /// follower's image, and a freshly provisioned migration target all
    /// recover under this one configuration.
    pub(crate) fn shard_nvhalt(&self) -> NvHaltConfig {
        let mut c = self.nvhalt.clone();
        let threads = self.workers_per_shard + self.coordinators + 2;
        c.heap_words = self.heap_words_per_shard;
        c.max_threads = threads;
        c.pm.max_threads = threads;
        c
    }

    /// The decision log's NV-HALT configuration (one thread slot per
    /// coordinator; slot 0 doubles as the recovery thread).
    fn log_nvhalt(&self) -> NvHaltConfig {
        let mut c = self.nvhalt.clone();
        let threads = self.coordinators.max(1);
        c.heap_words = self.log_heap_words;
        c.max_threads = threads;
        c.pm.max_threads = threads;
        c
    }
}

/// Fixed number of virtual routing slots. Keys hash to a slot; the
/// [`RoutingTable`] assigns each slot to a shard. Migrations move whole
/// slots, so the unit of elasticity is `1/64` of the key space.
pub const ROUTE_SLOTS: usize = 64;

/// The versioned routing table: `epoch` counts flips (0 at creation),
/// `assign[slot]` names the owning shard. The table is durably rooted
/// in the 2PC decision log's pool and only ever replaced by a single
/// committed transaction ([the flip](migrate)), so a crash recovers to
/// either the old or the new assignment — never a torn one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoutingTable {
    epoch: u64,
    assign: Vec<u32>,
}

impl RoutingTable {
    /// The epoch-0 table for `shards` shards: slot `s` belongs to shard
    /// `s % shards`.
    pub fn fresh(shards: usize) -> RoutingTable {
        assert!(shards >= 1, "need at least one shard");
        RoutingTable {
            epoch: 0,
            assign: (0..ROUTE_SLOTS).map(|s| (s % shards) as u32).collect(),
        }
    }

    pub(crate) fn from_parts(epoch: u64, assign: Vec<u32>) -> RoutingTable {
        assert_eq!(assign.len(), ROUTE_SLOTS, "corrupt routing table");
        RoutingTable { epoch, assign }
    }

    /// The table's version; bumped by one per migration flip.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The slot `key` hashes into (table-independent): a Fibonacci mix,
    /// distinct from the hashmap's bucket hash.
    #[inline]
    pub fn slot_of(key: u64) -> usize {
        ((key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % ROUTE_SLOTS as u64) as usize
    }

    /// Which shard serves `key` under this table.
    #[inline]
    pub fn route(&self, key: u64) -> usize {
        self.assign[RoutingTable::slot_of(key)] as usize
    }

    /// How many shards the table addresses (`max(assign) + 1`).
    pub fn shards(&self) -> usize {
        self.assign
            .iter()
            .map(|&a| a as usize + 1)
            .max()
            .unwrap_or(1)
    }

    /// The slots currently assigned to `shard`, ascending.
    pub fn slots_of(&self, shard: usize) -> Vec<usize> {
        (0..ROUTE_SLOTS)
            .filter(|&s| self.assign[s] as usize == shard)
            .collect()
    }

    /// The per-slot assignment (read-only view).
    pub fn assignment(&self) -> &[u32] {
        &self.assign
    }

    /// The next-epoch table with `slots` reassigned to `target`.
    pub fn reassign(&self, slots: &[usize], target: usize) -> RoutingTable {
        let mut assign = self.assign.clone();
        for &s in slots {
            assign[s] = target as u32;
        }
        RoutingTable {
            epoch: self.epoch + 1,
            assign,
        }
    }
}

/// The lock counters (held-lock high-water mark, contended blocking
/// acquisitions) from the lock-discipline sanitizer, for the
/// observability snapshot.
#[cfg(feature = "locksan")]
fn lock_counters() -> (u64, u64) {
    (locksan::held_hwm(), locksan::contended_acquires())
}

/// Lock counters read zero without the `locksan` feature.
#[cfg(not(feature = "locksan"))]
fn lock_counters() -> (u64, u64) {
    (0, 0)
}

/// The versioned routing accessor every submission path goes through:
/// one lock-guarded cell holding the current table **and** the matched
/// shard lanes and cross-shard queue. Reading all three together is
/// what makes a submission race-free against a concurrent flip — a
/// request stamped with epoch E always lands in an epoch-E queue, and
/// the migration drains those queues after installing epoch E+1, so
/// every in-ring request submitted under the old table is re-routed (or
/// answered [`ServeError::Rerouted`]) deterministically.
pub(crate) struct Router {
    inner: parking_lot::Mutex<RouterInner>,
}

#[derive(Clone)]
pub(crate) struct RouterInner {
    pub table: Arc<RoutingTable>,
    pub lanes: Arc<Vec<RingLane>>,
    pub xqueue: Sender<XRequest>,
}

impl Router {
    pub fn new(inner: RouterInner) -> Router {
        let r = Router {
            inner: parking_lot::Mutex::new(inner),
        };
        r.inner.locksan_label("service::router", false);
        r
    }

    /// A coherent `(table, lanes, xqueue)` snapshot.
    pub fn load(&self) -> RouterInner {
        self.inner.lock().clone()
    }

    /// The current table.
    pub fn table(&self) -> Arc<RoutingTable> {
        self.inner.lock().table.clone()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().table.epoch
    }

    /// Install the next topology (the in-memory half of a flip).
    pub fn install(&self, inner: RouterInner) {
        *self.inner.lock() = inner;
    }
}

/// Everything [`Service::recover`] needs: the config, each primary
/// shard pool's and each follower's durable remains (no followers when
/// replication is off), and the decision log's.
pub struct CrashDump {
    cfg: ServiceConfig,
    shards: Vec<PoolImage>,
    followers: Vec<PoolImage>,
    log: LogImage,
}

/// What survives losing every primary pool: the followers' durable
/// images and the 2PC decision log. [`Service::promote`] turns this into
/// a serving service.
pub struct FailoverDump {
    cfg: ServiceConfig,
    followers: Vec<PoolImage>,
    log: LogImage,
}

/// What a promotion did, for reporting.
#[derive(Clone, Copy, Debug)]
pub struct FailoverReport {
    /// Wall-clock time from entering promotion to serving.
    pub duration: Duration,
    /// Receive-log tail entries applied during promotion.
    pub tail_applied: u64,
    /// Shard-transactions re-applied from the 2PC decision log.
    pub replayed: u64,
}

/// A crash injected mid-promotion: every phase is idempotent, so the
/// carried dump can simply be promoted again.
pub struct PromotionCrash {
    /// Fresh durable remains captured at the crash point.
    pub dump: FailoverDump,
}

impl fmt::Debug for PromotionCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PromotionCrash").finish_non_exhaustive()
    }
}

/// The execution context the 2PC driver threads share with the service:
/// the primary shard pools, the coordinator, the config, and the
/// replication runtime. `Arc`-held, so the drivers stay sound while a
/// `Service` is being consumed by [`Service::crash`].
pub(crate) struct Engine {
    pub cfg: ServiceConfig,
    pub pools: Vec<ShardPool>,
    /// `Arc` so a migration can carry the coordinator (decision log,
    /// txid counter, metrics) into the reassembled post-flip service.
    pub coord: Arc<Coordinator>,
    pub repl: Option<Arc<ReplRuntime>>,
    /// The versioned routing accessor (shared with every ring).
    pub router: Arc<Router>,
    /// The deployment's probe cell (shared with every layer that asks).
    pub probe: Arc<ProbeCell>,
}

impl Engine {
    /// Poison every pool: the instant of power failure. In-flight
    /// requests surface [`ServeError::Stopped`] or
    /// [`ServeError::Timeout`] — never an ack.
    pub fn poison(&self) {
        for p in &self.pools {
            p.tm.crash();
        }
        self.coord.log.crash();
        if let Some(rt) = &self.repl {
            // Release semi-sync ack waiters immediately; with the primary
            // gone nothing will ever advance the receive watermarks.
            for st in &rt.states {
                st.down.store(true, Ordering::Release);
                st.notify_all();
            }
        }
    }
}

/// The sharded durable KV service. Cheap to share across client threads
/// by reference; dropped, it stops and joins its workers.
pub struct Service {
    engine: Arc<Engine>,
    shards: Vec<Shard>,
    shippers: Vec<JoinHandle<()>>,
    /// Receiver half of the cross-shard queue (the sender lives in the
    /// router), kept so teardown can drain it deterministically.
    xqueue_rx: Receiver<XRequest>,
    xstop: Arc<AtomicBool>,
    xdrivers: Vec<JoinHandle<()>>,
    /// Service-wide ring metrics, shared by every ring over this service.
    ring_metrics: Arc<RingMetrics>,
    /// The internal ring backing the blocking `get`/`put`/`batch` calls.
    front: Ring,
}

impl Service {
    /// Start a fresh service: create each shard's TM and hashmap, spawn
    /// the workers.
    pub fn new(cfg: ServiceConfig) -> Service {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.workers_per_shard >= 1, "need at least one worker");
        assert!(cfg.batch_max >= 1, "batch_max must be positive");
        assert!(cfg.queue_depth >= 1, "queue_depth must be positive");
        assert!(cfg.ring_slots >= 1, "ring_slots must be positive");
        assert!(cfg.coordinators >= 1, "need at least one coordinator slot");
        let table = Arc::new(RoutingTable::fresh(cfg.shards));
        let pools: Vec<ShardPool> = (0..cfg.shards).map(|_| ShardPool::primary(&cfg)).collect();
        let coord = Arc::new(Coordinator::new(&cfg, &table));
        let probe = Arc::new(ProbeCell::new(None));
        let rt = cfg.replication.then(|| {
            let followers = pools.iter().map(|_| Follower::create(&cfg)).collect();
            Arc::new(ReplRuntime::new(
                &cfg,
                pools.clone(),
                coord.log.clone(),
                followers,
                probe.clone(),
            ))
        });
        Service::assemble(cfg, pools, coord, rt, table, probe, None)
    }

    /// Wire a service over its primary shard pools (fresh, recovered,
    /// promoted, or migrated): spawn the shard workers, the 2PC drivers,
    /// and the shippers, install the topology into the (new or carried)
    /// router, and build the internal ring. A migration passes the old
    /// service's router and ring metrics as `carried`, so every ring
    /// handed out before the flip atomically re-targets the new
    /// topology, and its `probe` cell, so an installed probe keeps
    /// watching.
    fn assemble(
        cfg: ServiceConfig,
        pools: Vec<ShardPool>,
        coord: Arc<Coordinator>,
        rt: Option<Arc<ReplRuntime>>,
        table: Arc<RoutingTable>,
        probe: Arc<ProbeCell>,
        carried: Option<(Arc<Router>, Arc<RingMetrics>)>,
    ) -> Service {
        let (xqueue, xqueue_rx) = channel::bounded::<XRequest>(cfg.queue_depth);
        // The router must exist before the workers: they read it to
        // validate stale-epoch requests.
        let (router, ring_metrics) = carried.unwrap_or_else(|| {
            let router = Router::new(RouterInner {
                table: table.clone(),
                lanes: Arc::new(Vec::new()),
                xqueue: xqueue.clone(),
            });
            (Arc::new(router), Arc::default())
        });
        let shards: Vec<Shard> = pools
            .iter()
            .enumerate()
            .map(|(i, pool)| Shard::start(&cfg, i, pool, rt.clone(), router.clone()))
            .collect();
        let engine = Arc::new(Engine {
            pools,
            coord,
            repl: rt.clone(),
            router: router.clone(),
            probe,
            cfg: cfg.clone(),
        });
        let shippers = rt.as_ref().map(repl::spawn_shippers).unwrap_or_default();
        let xstop = Arc::new(AtomicBool::new(false));
        let xdrivers = (0..cfg.coordinators)
            .map(|c| {
                let eng = engine.clone();
                let rx = xqueue_rx.clone();
                let stop = xstop.clone();
                std::thread::Builder::new()
                    .name(format!("kvserve-2pc-{c}"))
                    .spawn(move || coord::drive(eng, rx, stop, c))
                    .expect("spawn 2pc driver")
            })
            .collect();
        let lanes: Arc<Vec<RingLane>> = Arc::new(
            shards
                .iter()
                .map(|s| RingLane {
                    queue: s.queue.clone(),
                    metrics: s.metrics.clone(),
                })
                .collect(),
        );
        // The flip's in-memory half: from here every submission (old
        // rings included) routes under `table` into the new lanes.
        router.install(RouterInner {
            table,
            lanes,
            xqueue,
        });
        let front = Ring::attach(
            cfg.ring_slots,
            router.clone(),
            ring_metrics.clone(),
            cfg.default_deadline,
        );
        Service {
            engine,
            shards,
            shippers,
            xqueue_rx,
            xstop,
            xdrivers,
            ring_metrics,
            front,
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.engine.cfg
    }

    /// A new completion-based front end over this service: its own slot
    /// slab of `cfg.ring_slots` slots, sharing the service-wide ring
    /// metrics. Clone the ring (cheap) to submit or reap from several
    /// threads against the same slab.
    pub fn ring(&self) -> Ring {
        self.ring_with_slots(self.engine.cfg.ring_slots)
    }

    /// [`Service::ring`] with an explicit slot count.
    pub fn ring_with_slots(&self, slots: usize) -> Ring {
        Ring::attach(
            slots,
            self.engine.router.clone(),
            self.ring_metrics.clone(),
            self.engine.cfg.default_deadline,
        )
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The current routing table — the versioned accessor. Every
    /// submission path routes through (a coherent snapshot of) this.
    pub fn routing(&self) -> Arc<RoutingTable> {
        self.engine.router.table()
    }

    /// Which shard serves `key`, under the current routing table.
    pub fn shard_of(&self, key: u64) -> usize {
        self.engine.router.table().route(key)
    }

    /// Drain the persist-order sanitizer's diagnostics from every pool
    /// (each shard's TM plus the decision log). Empty when the sanitizer
    /// is off. Test plumbing: crash suites assert this stays free of
    /// correctness diagnostics.
    pub fn psan_diagnostics(&self) -> Vec<pmem::Diagnostic> {
        let mut out = Vec::new();
        for pool in &self.engine.pools {
            if let Some(p) = pool.tm.pmem().pool().psan() {
                out.extend(p.take_diagnostics());
            }
        }
        if let Some(p) = self.engine.coord.log.pmem().pool().psan() {
            out.extend(p.take_diagnostics());
        }
        if let Some(rt) = &self.engine.repl {
            for cell in &rt.followers {
                if let Some(f) = &*cell.lock() {
                    if let Some(p) = f.pool.tm.pmem().pool().psan() {
                        out.extend(p.take_diagnostics());
                    }
                }
            }
        }
        out
    }

    /// Install (or clear) the deployment's [`Probe`], asked at every
    /// [`Point`] this service reaches: the 2PC steps of every
    /// cross-shard batch, the replication worker and shipper steps, the
    /// wire steps of every [`NetServer`] over this service, and the
    /// steps of [`Service::migrate`]. A `true` crashes right there, as a
    /// power failure at that point would: a 2PC step poisons every pool,
    /// a replication worker step the *primary* pools (the failure
    /// failover exists for), a shipper step that shard's *follower* pool
    /// (repaired in place by [`Service::recover_follower`]), a wire step
    /// shuts the server's sockets, and a migration step returns the
    /// durable remains. Test-only plumbing for deterministic crash
    /// injection.
    pub fn set_probe(&self, probe: Option<Probe>) {
        self.engine.probe.set(probe);
    }

    /// Look up `key` under the default deadline.
    pub fn get(&self, key: u64) -> Result<Option<u64>, ServeError> {
        self.apply(MapOp::Get(key))
    }

    /// Insert/update `key` under the default deadline; returns the
    /// previous value.
    pub fn put(&self, key: u64, val: u64) -> Result<Option<u64>, ServeError> {
        self.apply(MapOp::Insert(key, val))
    }

    /// Remove `key` under the default deadline; returns the removed
    /// value.
    pub fn del(&self, key: u64) -> Result<Option<u64>, ServeError> {
        self.apply(MapOp::Remove(key))
    }

    /// Run one op under the default deadline.
    pub fn apply(&self, op: MapOp) -> Result<Option<u64>, ServeError> {
        self.apply_deadline(op, self.engine.cfg.default_deadline)
    }

    /// Run one op with an explicit deadline.
    pub fn apply_deadline(&self, op: MapOp, deadline: Duration) -> Result<Option<u64>, ServeError> {
        let mut vals = self.blocking(vec![op], deadline)?;
        Ok(vals.pop().expect("one value per op"))
    }

    /// Run several ops as **one atomic, durable transaction** under the
    /// default deadline. Batches whose keys all route to one shard take
    /// the queued fast path; mixed batches run under two-phase commit
    /// across the participating shards (still atomic and durable, at the
    /// cost of the 2PC round trips).
    pub fn batch(&self, ops: Vec<MapOp>) -> Result<Vec<Option<u64>>, ServeError> {
        self.batch_deadline(ops, self.engine.cfg.default_deadline)
    }

    /// [`Service::batch`] with an explicit deadline.
    pub fn batch_deadline(
        &self,
        ops: Vec<MapOp>,
        deadline: Duration,
    ) -> Result<Vec<Option<u64>>, ServeError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        self.blocking(ops, deadline)
    }

    /// The blocking calls are a thin shell over the internal ring: submit,
    /// then park on the ticket. The deadline clock starts at submission —
    /// queue wait is charged against it — and the extra `REPLY_GRACE`
    /// only pads the *wait*, giving the worker time to deliver a verdict
    /// for a request it picked up near the deadline.
    fn blocking(&self, ops: Vec<MapOp>, deadline: Duration) -> Reply {
        // `Rerouted` is retryable by construction — the request never
        // executed, the routing table just flipped under it — so the
        // blocking shell resubmits under the fresh table instead of
        // leaking a transient migration artifact to the caller.
        for _ in 0..3 {
            let ticket = match self.front.submit_batch_deadline(ops.clone(), deadline) {
                Ok(t) => t,
                // The internal ring sized out: equivalent to a full queue
                // from the blocking caller's point of view.
                Err(ServeError::RingFull) => {
                    return Err(ServeError::Overloaded {
                        retry_after: BACKOFF_BASE,
                    })
                }
                Err(e) => return Err(e),
            };
            match self
                .front
                .wait_deadline(ticket, Instant::now() + deadline + REPLY_GRACE)
            {
                Err(ServeError::Rerouted) => continue,
                verdict => return verdict,
            }
        }
        Err(ServeError::Rerouted)
    }

    /// Start a new measurement window for the shard, coordinator and
    /// ring metrics: counters and histograms go to zero, and the ring's
    /// levels (`in_flight`, `occupied`) keep their live values with
    /// their high-water marks restarted from them. TM statistics are
    /// cumulative (diff snapshots with
    /// [`tm::stats::StatsSnapshot::since`] instead), and so are a
    /// [`NetServer`]'s counters. Lets load generators exclude
    /// prefill/warm-up from the measurement window.
    pub fn reset_metrics(&self) {
        for s in &self.shards {
            s.metrics.reset();
        }
        self.engine.coord.metrics.reset();
        self.ring_metrics.reset();
    }

    /// Point-in-time observability snapshot: per-shard counters and
    /// latency, TM statistics (abort causes), the cross-shard
    /// coordinator's 2PC counters and phase latencies, and the ring's.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            routing_epoch: self.engine.router.epoch(),
            shards: self
                .shards
                .iter()
                .zip(&self.engine.pools)
                .enumerate()
                .map(|(i, (s, p))| s.metrics.snapshot(i, p.tm.stats()))
                .collect(),
            coordinator: self
                .engine
                .coord
                .metrics
                .snapshot(self.engine.coord.log.stats()),
            ring: self.ring_metrics.snapshot(),
            replication: self.engine.repl.as_ref().map(|rt| ReplSnapshot {
                shards: rt
                    .states
                    .iter()
                    .enumerate()
                    .map(|(i, st)| ReplShardSnapshot {
                        shard: i,
                        appended: st.appended.load(Ordering::Relaxed),
                        received: st.received.load(Ordering::Acquire),
                        applied: st.applied.load(Ordering::Acquire),
                        settling: st.settling.load(Ordering::Acquire),
                    })
                    .collect(),
            }),
            lock_held_hwm: lock_counters().0,
            lock_contended: lock_counters().1,
        }
    }

    /// Poison every shard's persistent pool *without* tearing the
    /// service down: the instant of power failure, injectable while
    /// client threads are still submitting. Follow with
    /// [`Service::crash`] (idempotent over the poison) once the clients
    /// have been released. In-flight requests surface
    /// [`ServeError::Stopped`] or [`ServeError::Timeout`] — never an ack.
    pub fn poison(&self) {
        self.engine.poison();
    }

    /// Stop and join every worker, 2PC driver, and shipper thread, then
    /// drain both request queues, *returning* the queued-but-unserved
    /// requests. A crash/teardown drops them (each completion handle's
    /// Drop delivers `Stopped` into its ring slot); a migration re-routes
    /// them under the new table instead.
    ///
    /// The shippers stop last: a worker or driver finishing its batch
    /// may be waiting for the follower's ack, which only a running
    /// shipper delivers. (A crash has already set `down`, which releases
    /// those waiters.)
    pub(crate) fn halt_threads(&mut self) -> (Vec<shard::ShardRequest>, Vec<XRequest>) {
        self.xstop.store(true, Ordering::Release);
        for s in &self.shards {
            s.stop.store(true, Ordering::Release);
        }
        for s in &mut self.shards {
            for h in s.workers.drain(..) {
                let _ = h.join();
            }
        }
        for h in self.xdrivers.drain(..) {
            let _ = h.join();
        }
        if let Some(rt) = &self.engine.repl {
            rt.stop.store(true, Ordering::Release);
            for st in &rt.states {
                st.notify_all();
            }
        }
        for h in self.shippers.drain(..) {
            let _ = h.join();
        }
        // The channels hold buffered requests alive as long as any Sender
        // clone exists (user-held rings keep them connected); drain
        // explicitly so the requests resolve *now*, not whenever the
        // last ring is dropped.
        let mut reqs = Vec::new();
        for s in &self.shards {
            while let Ok(r) = s.queue_rx.try_recv() {
                reqs.push(r);
            }
        }
        let mut xreqs = Vec::new();
        while let Ok(r) = self.xqueue_rx.try_recv() {
            xreqs.push(r);
        }
        (reqs, xreqs)
    }

    /// [`Service::halt_threads`], dropping the drained requests (their
    /// tickets resolve to `Stopped`). Post-condition: every ticket
    /// submitted before this call has a definite verdict in its ring.
    fn stop_threads(&mut self) {
        let _ = self.halt_threads();
    }

    /// Simulate a power failure of the *whole deployment* — primaries,
    /// followers, decision log: poison every pool (workers mid-transaction
    /// unwind and never ack), stop and join all threads, and capture every
    /// durable image. For the lost-primary failure shape that keeps the
    /// followers, see [`Service::fail_over`].
    pub fn crash(mut self) -> CrashDump {
        // Poison first so nothing can be acked after the crash point…
        self.poison();
        if let Some(rt) = &self.engine.repl {
            for s in 0..rt.followers.len() {
                rt.poison_follower(s);
            }
        }
        // …then wake idle workers and shippers and collect them.
        self.stop_threads();
        let followers = match &self.engine.repl {
            Some(rt) => rt
                .followers
                .iter()
                .map(|cell| {
                    let f = cell.lock().take().expect("follower present until crash");
                    f.image()
                })
                .collect(),
            None => Vec::new(),
        };
        CrashDump {
            cfg: self.engine.cfg.clone(),
            shards: self
                .engine
                .pools
                .iter()
                .map(|p| p.image(repl::PRIMARY_HDR_WORDS))
                .collect(),
            followers,
            log: self.engine.coord.image(),
        }
    }

    /// Declare every primary pool lost — the failure shape replication
    /// exists for: the whole deployment crashes, and only what failover
    /// needs is kept — the followers' durable images and the decision
    /// log. Feed the result to [`Service::promote`].
    pub fn fail_over(self) -> FailoverDump {
        assert!(
            self.engine.cfg.replication,
            "fail_over requires cfg.replication"
        );
        let CrashDump {
            cfg,
            followers,
            log,
            ..
        } = self.crash();
        FailoverDump {
            cfg,
            followers,
            log,
        }
    }

    /// Promote the followers of a [`FailoverDump`] into a serving
    /// service: finish applying each receive log's tail, durably commit
    /// the promotion, replay the 2PC decision log over the promoted
    /// shards, and start workers over the followers' pools. The promoted
    /// service runs with replication off (it *is* the surviving replica).
    ///
    /// Dumps never carry a probe, so `probe` is asked between the
    /// promotion phases ([`Point::FAILOVER`]) and stays installed on the
    /// promoted service. A `true` crashes the promotion and returns a
    /// fresh [`FailoverDump`] inside [`PromotionCrash`]; every phase is
    /// idempotent, so promoting that dump again completes the failover.
    pub fn promote(
        dump: FailoverDump,
        probe: Option<Probe>,
    ) -> Result<(Service, FailoverReport), Box<PromotionCrash>> {
        let start = Instant::now();
        let FailoverDump {
            cfg,
            followers,
            log,
        } = dump;
        let (coord, table, entries) = log.recover(&cfg);
        let fs: Vec<Follower> = followers
            .iter()
            .map(|img| Follower {
                pool: ShardPool::recover(&cfg, img),
            })
            .collect();

        let crash = |fs: &[Follower], coord: &Coordinator| -> Box<PromotionCrash> {
            for f in fs {
                f.pool.tm.crash();
            }
            coord.log.crash();
            Box::new(PromotionCrash {
                dump: FailoverDump {
                    cfg: cfg.clone(),
                    followers: fs.iter().map(Follower::image).collect(),
                    log: coord.image(),
                },
            })
        };
        let probe = Arc::new(ProbeCell::new(probe));
        if probe.fires(Point::Recovered) {
            return Err(crash(&fs, &coord));
        }

        // Finish applying each follower's received-but-unapplied tail:
        // everything durably received was ackable, so it must be served.
        let mut tail_applied = 0u64;
        for f in &fs {
            tail_applied += f.apply_batch(&f.pending()) as u64;
        }
        if probe.fires(Point::TailApplied) {
            return Err(crash(&fs, &coord));
        }

        for f in &fs {
            f.commit_promotion();
        }
        if probe.fires(Point::Promoted) {
            return Err(crash(&fs, &coord));
        }

        // Each promoted shard gets a fresh (disarmed — the promoted
        // service is its own surviving replica) op-log header; raw
        // allocation is durably zero, so replay appends nothing to it.
        // Nothing reads the old follower header after the promotion
        // commit; the next recovery's allocator rebuild reclaims it.
        let pools: Vec<ShardPool> = fs
            .iter()
            .map(|f| ShardPool {
                hdr: f.pool.tm.alloc_raw(0, repl::PRIMARY_HDR_WORDS),
                ..f.pool.clone()
            })
            .collect();
        // Resolve cross-shard batches in flight at the failover: the
        // followers mirror the primaries' 2PC markers (via Prepare
        // entries), so the same replay that repairs a restart repairs a
        // promotion.
        let replayed = coord::replay(&coord, &pools, &table, &entries);
        if probe.fires(Point::Replayed) {
            return Err(crash(&fs, &coord));
        }

        // The receive logs are dead weight now: fully applied, and no
        // primary left to re-ship from.
        for f in &fs {
            f.trim(u64::MAX);
        }

        let mut cfg2 = cfg;
        cfg2.replication = false;
        let report = FailoverReport {
            duration: start.elapsed(),
            tail_applied,
            replayed,
        };
        Ok((
            Service::assemble(cfg2, pools, coord, None, table, probe, None),
            report,
        ))
    }

    /// Recover any crashed follower pools in place — the follower-only
    /// failure shape, injected at the shipper's [`Point::REPL`] steps. The
    /// primary keeps serving throughout (replicated writes time out while
    /// the follower is down); this re-runs TM recovery over the crashed
    /// follower, rebuilds its allocator, restores the ship watermarks
    /// from the durable words, and wakes the shipper, which re-ships the
    /// un-received tail from the primary's log.
    pub fn recover_follower(&self) {
        let rt = self
            .engine
            .repl
            .as_ref()
            .expect("recover_follower requires cfg.replication");
        for (s, cell) in rt.followers.iter().enumerate() {
            let mut cell = cell.lock();
            let crashed = matches!(&*cell, Some(f) if f.pool.tm.pmem().pool().is_crashed());
            if !crashed {
                continue;
            }
            let img = cell.take().expect("checked above").image();
            let nf = Follower {
                pool: ShardPool::recover(&self.engine.cfg, &img),
            };
            let st = &rt.states[s];
            st.received.store(nf.received_raw(), Ordering::Release);
            st.applied.store(nf.applied_lsn(), Ordering::Release);
            *cell = Some(nf);
            st.down.store(false, Ordering::Release);
            st.signal_work();
        }
    }

    /// Recover a service from a crash dump: recover the decision log and
    /// every shard pool (TM recovery, map re-attach, allocator rebuild
    /// from heap walks), replay the cross-shard decision log over the
    /// quiescent shards, and restart the workers.
    pub fn recover(dump: CrashDump) -> Service {
        let CrashDump {
            cfg,
            shards,
            followers,
            log,
        } = dump;
        // Decision log first. Its durable routing table decides the
        // recovered topology: a crash mid-migration lands before the
        // flip transaction (old table, old shard count — the dump never
        // saw the target) or after it (new table, dump carries the
        // target shard). Never a torn mix.
        let (coord, table, entries) = log.recover(&cfg);
        debug_assert_eq!(table.shards(), shards.len(), "routing table vs dump");

        // Shard pools next, still quiescent (no workers yet).
        let pools: Vec<ShardPool> = shards
            .iter()
            .map(|img| ShardPool::recover(&cfg, img))
            .collect();

        // Without replication the op logs only exist for migrations; a
        // crash mid-migration leaves the source's log armed with a
        // partial stream nobody will ever consume (a re-issued migration
        // arms and streams from scratch). Disarm and empty them while
        // quiescent.
        if !cfg.replication {
            for p in &pools {
                if repl::armed_raw(&p.tm, p.hdr) {
                    repl::set_armed(&p.tm, 0, p.hdr, false);
                }
                repl::trim_through(&p.tm, 0, p.hdr.offset(repl::P_HEAD), u64::MAX);
            }
        }

        // Replay undecided cross-shard commits before any new traffic
        // (appending the matching Prepare/Resolve entries to the armed
        // op logs, so the followers re-converge too).
        coord::replay(&coord, &pools, &table, &entries);

        // Followers last (after replay, so the ship states see the final
        // appended watermarks).
        let probe = Arc::new(ProbeCell::new(None));
        let rt = cfg.replication.then(|| {
            let fs = followers
                .iter()
                .map(|img| Follower {
                    pool: ShardPool::recover(&cfg, img),
                })
                .collect();
            Arc::new(ReplRuntime::new(
                &cfg,
                pools.clone(),
                coord.log.clone(),
                fs,
                probe.clone(),
            ))
        });
        Service::assemble(cfg, pools, coord, rt, table, probe, None)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// The key an op addresses (what routing hashes).
#[inline]
pub fn op_key(op: MapOp) -> u64 {
    match op {
        MapOp::Get(k) | MapOp::Insert(k, _) | MapOp::Remove(k) => k,
    }
}

/// Partition a batch under a routing table: `(shard, original op
/// indices)` per participating shard, in order of first appearance.
/// This is exactly the grouping the 2PC coordinator uses; exposed so
/// tests and load generators can predict a batch's participants.
pub fn partition_by_table(ops: &[MapOp], table: &RoutingTable) -> Vec<(usize, Vec<usize>)> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        let s = table.route(op_key(op));
        match groups.iter_mut().find(|g| g.0 == s) {
            Some(g) => g.1.push(i),
            None => groups.push((s, vec![i])),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(shards: usize) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(shards);
        cfg.heap_words_per_shard = 1 << 14;
        cfg.buckets_per_shard = 64;
        cfg
    }

    #[test]
    fn put_get_del_roundtrip() {
        let svc = Service::new(test_cfg(4));
        assert_eq!(svc.get(7), Ok(None));
        assert_eq!(svc.put(7, 70), Ok(None));
        assert_eq!(svc.get(7), Ok(Some(70)));
        assert_eq!(svc.put(7, 71), Ok(Some(70)));
        assert_eq!(svc.del(7), Ok(Some(71)));
        assert_eq!(svc.get(7), Ok(None));
    }

    #[test]
    fn routing_spreads_and_is_stable() {
        let svc = Service::new(test_cfg(4));
        let mut hit = [false; 4];
        for k in 0..256u64 {
            let s = svc.shard_of(k);
            assert_eq!(s, RoutingTable::fresh(4).route(k));
            hit[s] = true;
            assert_eq!(svc.put(k, k + 1), Ok(None));
        }
        assert!(hit.iter().all(|&h| h), "some shard never addressed");
        for k in 0..256u64 {
            assert_eq!(svc.get(k), Ok(Some(k + 1)));
        }
    }

    #[test]
    fn same_shard_batch_is_atomic_and_ordered() {
        let svc = Service::new(test_cfg(4));
        // Find two distinct keys on the same shard.
        let a = 1u64;
        let b = (2..).find(|&k| svc.shard_of(k) == svc.shard_of(a)).unwrap();
        let vals = svc
            .batch(vec![
                MapOp::Insert(a, 10),
                MapOp::Insert(b, 20),
                MapOp::Get(a),
                MapOp::Remove(b),
            ])
            .unwrap();
        assert_eq!(vals, vec![None, None, Some(10), Some(20)]);
        assert_eq!(svc.get(b), Ok(None));
    }

    #[test]
    fn cross_shard_batch_commits_atomically() {
        let svc = Service::new(test_cfg(4));
        let a = 1u64;
        let b = (2..).find(|&k| svc.shard_of(k) != svc.shard_of(a)).unwrap();
        // A batch spanning two shards commits as one transaction, with
        // results in submission order.
        let vals = svc
            .batch(vec![
                MapOp::Insert(a, 1),
                MapOp::Insert(b, 2),
                MapOp::Get(a),
            ])
            .unwrap();
        assert_eq!(vals, vec![None, None, Some(1)]);
        assert_eq!(svc.get(a), Ok(Some(1)));
        assert_eq!(svc.get(b), Ok(Some(2)));
        // Previous values come back on overwrite, across shards.
        let vals = svc
            .batch(vec![MapOp::Insert(a, 10), MapOp::Remove(b)])
            .unwrap();
        assert_eq!(vals, vec![Some(1), Some(2)]);
        let snap = svc.snapshot();
        assert_eq!(snap.coordinator.cross_batches, 2);
        assert_eq!(snap.coordinator.cross_ops, 5);
        // No markers leak: resolution removed them all.
        for p in &svc.engine.pools {
            assert!(p.meta.collect_raw(&*p.tm).is_empty());
        }
    }

    #[test]
    fn cross_shard_batch_spanning_all_shards() {
        let svc = Service::new(test_cfg(4));
        // One key per shard; insert all four in one batch, then read all
        // four in another.
        let mut keys = [None; 4];
        let mut k = 1u64;
        while keys.iter().any(Option::is_none) {
            keys[svc.shard_of(k)].get_or_insert(k);
            k += 1;
        }
        let keys: Vec<u64> = keys.iter().map(|k| k.unwrap()).collect();
        let ins: Vec<MapOp> = keys.iter().map(|&k| MapOp::Insert(k, k * 7)).collect();
        assert_eq!(svc.batch(ins).unwrap(), vec![None; 4]);
        let gets: Vec<MapOp> = keys.iter().map(|&k| MapOp::Get(k)).collect();
        let expect: Vec<Option<u64>> = keys.iter().map(|&k| Some(k * 7)).collect();
        assert_eq!(svc.batch(gets).unwrap(), expect);
    }

    #[test]
    fn single_shard_batch_bypasses_two_phase_commit() {
        let svc = Service::new(test_cfg(4));
        let a = 1u64;
        let b = (2..).find(|&k| svc.shard_of(k) == svc.shard_of(a)).unwrap();
        svc.batch(vec![MapOp::Insert(a, 1), MapOp::Insert(b, 2)])
            .unwrap();
        assert_eq!(svc.snapshot().coordinator.cross_batches, 0);
    }

    #[test]
    fn cross_shard_batches_survive_crash_and_recovery() {
        let svc = Service::new(test_cfg(4));
        let a = 1u64;
        let b = (2..).find(|&k| svc.shard_of(k) != svc.shard_of(a)).unwrap();
        svc.batch(vec![MapOp::Insert(a, 5), MapOp::Insert(b, 6)])
            .unwrap();
        let svc = Service::recover(svc.crash());
        assert_eq!(svc.get(a), Ok(Some(5)));
        assert_eq!(svc.get(b), Ok(Some(6)));
        // The recovered coordinator keeps serving cross-shard batches
        // (fresh txids, working log).
        let vals = svc.batch(vec![MapOp::Get(a), MapOp::Get(b)]).unwrap();
        assert_eq!(vals, vec![Some(5), Some(6)]);
    }

    #[test]
    fn probe_tears_down_before_ack() {
        let svc = Service::new(test_cfg(4));
        let a = 1u64;
        let b = (2..).find(|&k| svc.shard_of(k) != svc.shard_of(a)).unwrap();
        svc.set_probe(Some(Arc::new(|point| point == Point::Prepared)));
        assert_eq!(
            svc.batch(vec![MapOp::Insert(a, 1), MapOp::Insert(b, 2)]),
            Err(ServeError::Stopped)
        );
        // Undecided at the crash: recovery rolls the batch back whole.
        let svc = Service::recover(svc.crash());
        assert_eq!(svc.get(a), Ok(None));
        assert_eq!(svc.get(b), Ok(None));
    }

    #[test]
    fn empty_batch_is_trivially_ok() {
        let svc = Service::new(test_cfg(2));
        assert_eq!(svc.batch(Vec::new()), Ok(Vec::new()));
    }

    #[test]
    fn zero_deadline_times_out() {
        let svc = Service::new(test_cfg(1));
        assert_eq!(
            svc.apply_deadline(MapOp::Insert(1, 1), Duration::ZERO),
            Err(ServeError::Timeout)
        );
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let mut cfg = test_cfg(1);
        cfg.queue_depth = 2;
        let mut svc = Service::new(cfg);
        // Stop the worker so the queue cannot drain.
        svc.shards[0].stop.store(true, Ordering::Release);
        for h in svc.shards[0].workers.drain(..) {
            h.join().unwrap();
        }
        let d = Duration::from_millis(10);
        assert_eq!(
            svc.apply_deadline(MapOp::Insert(1, 1), d),
            Err(ServeError::Timeout)
        );
        assert_eq!(
            svc.apply_deadline(MapOp::Insert(2, 2), d),
            Err(ServeError::Timeout)
        );
        match svc.apply_deadline(MapOp::Insert(3, 3), d) {
            Err(ServeError::Overloaded { retry_after }) => {
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(svc.snapshot().shards[0].rejected, 1);
    }

    #[test]
    fn crash_then_recover_preserves_acked_writes() {
        let svc = Service::new(test_cfg(2));
        for k in 0..64u64 {
            assert_eq!(svc.put(k, k * 2), Ok(None));
        }
        let dump = svc.crash();
        assert_eq!(dump.shards.len(), 2);
        let svc = Service::recover(dump);
        for k in 0..64u64 {
            assert_eq!(svc.get(k), Ok(Some(k * 2)), "lost acked write {k}");
        }
        // The recovered allocator must serve fresh inserts without
        // handing out live blocks.
        for k in 64..128u64 {
            assert_eq!(svc.put(k, k), Ok(None));
        }
        for k in 0..64u64 {
            assert_eq!(svc.get(k), Ok(Some(k * 2)));
        }
    }

    #[test]
    fn recovery_is_repeatable() {
        let mut svc = Service::new(test_cfg(1));
        for round in 0..3u64 {
            svc.put(9, round).unwrap();
            svc = Service::recover(svc.crash());
            assert_eq!(svc.get(9), Ok(Some(round)));
        }
    }

    #[test]
    fn snapshot_counts_ops_and_batches() {
        let svc = Service::new(test_cfg(2));
        for k in 0..32u64 {
            svc.put(k, k).unwrap();
        }
        for k in 0..32u64 {
            svc.get(k).unwrap();
        }
        let snap = svc.snapshot();
        let gets: u64 = snap.shards.iter().map(|s| s.gets).sum();
        let puts: u64 = snap.shards.iter().map(|s| s.puts).sum();
        assert_eq!((gets, puts), (32, 32));
        assert_eq!(snap.ops(), 64);
        // One blocking client: every batch carries exactly one request.
        assert_eq!(snap.mean_batch(), 1.0);
        assert!(snap.latency_quantile(0.5).is_some());
        // Every shard committed at least one transaction.
        for s in &snap.shards {
            assert!(s.tm.commits() > 0);
            assert_eq!((s.batches, s.mean_batch()), (s.ops(), 1.0));
        }
        // The Display form renders without panicking.
        let _ = format!("{snap}");
    }

    fn repl_cfg(shards: usize) -> ServiceConfig {
        let mut cfg = test_cfg(shards);
        cfg.replication = true;
        cfg
    }

    #[test]
    fn replicated_service_serves_and_drains_lag() {
        let svc = Service::new(repl_cfg(2));
        for k in 0..32u64 {
            assert_eq!(svc.put(k, k + 1), Ok(None));
        }
        for k in 0..32u64 {
            assert_eq!(svc.get(k), Ok(Some(k + 1)));
        }
        // Acks are semi-synchronous: everything acked is already durably
        // received, and the apply lag drains within a few ship intervals.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let repl = svc.snapshot().replication.expect("replication on");
            assert!(repl.shards.iter().all(|s| s.ship_lag() == 0));
            if repl.lag() == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "apply lag never drained: {repl}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn fail_over_serves_every_acked_write() {
        let svc = Service::new(repl_cfg(3));
        for k in 0..48u64 {
            assert_eq!(svc.put(k, k * 3), Ok(None));
        }
        // A cross-shard batch right before the failover, acked.
        let a = 1u64;
        let b = (2..).find(|&k| svc.shard_of(k) != svc.shard_of(a)).unwrap();
        svc.batch(vec![MapOp::Insert(a, 1000), MapOp::Insert(b, 2000)])
            .unwrap();
        let (svc, report) = Service::promote(svc.fail_over(), None).expect("no probe installed");
        assert!(report.duration > Duration::ZERO);
        for k in 0..48u64 {
            let want = if k == a {
                1000
            } else if k == b {
                2000
            } else {
                k * 3
            };
            assert_eq!(svc.get(k), Ok(Some(want)), "key {k} lost in failover");
        }
        // The promoted service is a full service: writes, batches, and
        // another crash/recover cycle all keep working.
        assert_eq!(svc.put(a, 7), Ok(Some(1000)));
        let svc = Service::recover(svc.crash());
        assert_eq!(svc.get(a), Ok(Some(7)));
        assert_eq!(svc.get(b), Ok(Some(2000)));
    }

    #[test]
    fn replicated_crash_restarts_with_followers() {
        let svc = Service::new(repl_cfg(2));
        for k in 0..32u64 {
            svc.put(k, k + 9).unwrap();
        }
        // Whole-deployment restart: primaries, followers, and the ship
        // watermarks all come back from their durable words.
        let svc = Service::recover(svc.crash());
        for k in 0..32u64 {
            assert_eq!(svc.get(k), Ok(Some(k + 9)));
        }
        svc.put(99, 1).unwrap();
        let repl = svc.snapshot().replication.expect("replication on");
        assert!(repl.shards.iter().all(|s| s.ship_lag() == 0));
        // And the restarted deployment can still fail over.
        let (svc, _) = Service::promote(svc.fail_over(), None).expect("no probe installed");
        for k in 0..32u64 {
            assert_eq!(svc.get(k), Ok(Some(k + 9)));
        }
        assert_eq!(svc.get(99), Ok(Some(1)));
    }

    #[test]
    fn concurrent_clients_hammer_one_service() {
        let mut cfg = test_cfg(4);
        cfg.queue_depth = 64;
        let svc = Service::new(cfg);
        std::thread::scope(|scope| {
            for c in 0..8u64 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let k = c * 1_000 + i;
                        loop {
                            match svc.put(k, i) {
                                Ok(_) => break,
                                Err(ServeError::Overloaded { retry_after }) => {
                                    std::thread::sleep(retry_after);
                                }
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                        assert_eq!(svc.get(k), Ok(Some(i)));
                    }
                });
            }
        });
        assert_eq!(svc.snapshot().ops(), 8 * 200 * 2);
    }
}
