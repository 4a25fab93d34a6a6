//! One shard: its pool (an NV-HALT instance plus the roots in its heap),
//! a bounded request queue, and the worker threads that drain it.
//!
//! Workers coalesce queued requests into batches and run each batch as a
//! *single* durable transaction ([`HashMapTx::apply_in`] per op inside one
//! `tm::txn`), amortizing the commit-time flush/fence cost across the
//! batch. A batch whose transaction burns through its attempt fuel is
//! voluntarily cancelled; the worker then backs off exponentially and
//! retries the whole batch, shedding requests whose deadlines have passed.
//!
//! Crash simulation: a worker torn down mid-transaction by the pool's
//! [`CrashSignal`](tm::crash::CrashSignal) unwinds out of the serve loop;
//! the in-flight requests' completion handles drop, which delivers
//! [`ServeError::Stopped`] into their ring slots — never an ack.

use crate::metrics::ShardMetrics;
use crate::probe::Point;
use crate::repl::{self, LogKind, ReplRuntime};
use crate::ring::RingCompletion;
use crate::{backoff, op_key, Router, ServeError, ServiceConfig, ATTEMPT_FUEL};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use nvhalt::NvHalt;
use pmem::pool::DurableImage;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tm::{Abort, Addr};
use txstructs::{HashMapTx, MapOp};

/// How often an idle worker re-checks the stop flag.
pub(crate) const POLL: Duration = Duration::from_millis(2);

/// Buckets of each pool's 2PC marker map (tiny: it only ever holds the
/// markers of in-flight cross-shard transactions).
const META_BUCKETS: usize = 64;

/// One shard pool's durable state: an NV-HALT instance and the three
/// roots in its heap — the data map, the 2PC marker map (`txid -> 1`
/// while a cross-shard transaction's commit on this pool awaits
/// resolution, see `coord`) and a log header. A primary's header roots
/// its op log ([`repl::PRIMARY_HDR_WORDS`] words), a follower's its
/// receive log and watermarks ([`repl::FOLLOWER_HDR_WORDS`]); both keep
/// the entry list's head at word 0. Primary shards, followers, promoted
/// followers and migration targets are all shard pools: each is
/// provisioned by [`ShardPool::create`], captured after a crash by
/// [`ShardPool::image`] and rebuilt by [`ShardPool::recover`].
#[derive(Clone)]
pub(crate) struct ShardPool {
    pub tm: Arc<NvHalt>,
    pub map: HashMapTx,
    pub meta: HashMapTx,
    pub hdr: Addr,
}

/// A shard pool's durable remains after a crash: the persistent image
/// plus its roots and the width of its header.
pub(crate) struct PoolImage {
    image: DurableImage,
    map: HashMapTx,
    meta: HashMapTx,
    hdr: Addr,
    hdr_words: usize,
}

impl ShardPool {
    /// A fresh pool over a new TM configured for `cfg`'s shards: empty
    /// maps and a durably zero `hdr_words`-word header.
    pub fn create(cfg: &ServiceConfig, hdr_words: usize) -> ShardPool {
        let tm = Arc::new(NvHalt::new(cfg.shard_nvhalt()));
        let map = HashMapTx::create(&*tm, 0, cfg.buckets_per_shard)
            .expect("creating a map on a fresh TM cannot cancel");
        let meta = HashMapTx::create(&*tm, 0, META_BUCKETS)
            .expect("creating a map on a fresh TM cannot cancel");
        let hdr = tm.alloc_raw(0, hdr_words);
        ShardPool { tm, map, meta, hdr }
    }

    /// A fresh primary pool. Every primary has an op-log header; its
    /// durable armed word (on iff replicating — a migration can arm it
    /// later) gates actual appends.
    pub fn primary(cfg: &ServiceConfig) -> ShardPool {
        let pool = ShardPool::create(cfg, repl::PRIMARY_HDR_WORDS);
        if cfg.replication {
            repl::set_armed(&pool.tm, 0, pool.hdr, true);
        }
        pool
    }

    /// Capture a crashed pool's durable remains. `hdr_words` is the
    /// width of its header: a primary's or a follower's.
    pub fn image(&self, hdr_words: usize) -> PoolImage {
        PoolImage {
            image: self.tm.crash_image(),
            map: self.map,
            meta: self.meta,
            hdr: self.hdr,
            hdr_words,
        }
    }

    /// Rebuild a pool from its remains: TM recovery, then an allocator
    /// rebuild from every block still reachable from the roots — both
    /// maps, the header and its entry list. Any other block (a promoted
    /// follower's old header, say) is free again afterwards.
    pub fn recover(cfg: &ServiceConfig, img: &PoolImage) -> ShardPool {
        let tm = Arc::new(NvHalt::recover_with(cfg.shard_nvhalt(), &img.image));
        tm.rebuild_allocator(
            img.map
                .used_blocks(&*tm)
                .into_iter()
                .chain(img.meta.used_blocks(&*tm))
                .chain(std::iter::once((img.hdr.0, img.hdr_words)))
                .chain(repl::walk_blocks_raw(&tm, img.hdr)),
        );
        ShardPool {
            tm,
            map: img.map,
            meta: img.meta,
            hdr: img.hdr,
        }
    }
}

/// One queued request: the ops to run atomically, the ring slot that
/// receives the answer, its timing envelope, and the routing epoch the
/// submitter routed under (workers reject stale-epoch requests whose
/// keys no longer belong here — see [`ServeError::Rerouted`]).
pub(crate) struct ShardRequest {
    pub ops: Vec<MapOp>,
    pub reply: RingCompletion,
    pub deadline: Instant,
    pub enqueued: Instant,
    pub epoch: u64,
}

/// A running shard: its queue and workers. Its pool lives in the
/// service's `Engine`.
pub(crate) struct Shard {
    pub metrics: Arc<ShardMetrics>,
    pub queue: Sender<ShardRequest>,
    /// Kept so the channel stays connected (and `try_send` reports `Full`,
    /// not `Disconnected`) even if every worker has exited.
    pub queue_rx: Receiver<ShardRequest>,
    pub stop: Arc<AtomicBool>,
    pub workers: Vec<JoinHandle<()>>,
}

struct WorkerCtx {
    pool: ShardPool,
    rx: Receiver<ShardRequest>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ShardMetrics>,
    tid: usize,
    batch_max: usize,
    max_retries: u32,
    shard: usize,
    repl: Option<Arc<ReplRuntime>>,
    router: Arc<Router>,
}

impl Shard {
    /// Spawn shard `index`'s workers over its (fresh, recovered,
    /// promoted or migrated) pool.
    pub fn start(
        cfg: &ServiceConfig,
        index: usize,
        pool: &ShardPool,
        repl: Option<Arc<ReplRuntime>>,
        router: Arc<Router>,
    ) -> Shard {
        let (queue, queue_rx) = channel::bounded::<ShardRequest>(cfg.queue_depth);
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ShardMetrics::default());
        let workers = (0..cfg.workers_per_shard)
            .map(|w| {
                let ctx = WorkerCtx {
                    pool: pool.clone(),
                    rx: queue_rx.clone(),
                    stop: stop.clone(),
                    metrics: metrics.clone(),
                    tid: w,
                    batch_max: cfg.batch_max,
                    max_retries: cfg.max_retries,
                    shard: index,
                    repl: repl.clone(),
                    router: router.clone(),
                };
                std::thread::Builder::new()
                    .name(format!("kvserve-s{index}-w{w}"))
                    .spawn(move || worker(ctx))
                    .expect("spawn shard worker")
            })
            .collect();
        Shard {
            metrics,
            queue,
            queue_rx,
            stop,
            workers,
        }
    }
}

fn worker(ctx: WorkerCtx) {
    // A simulated power failure unwinds `serve_loop` from wherever it was;
    // dropping the in-flight requests' completion handles surfaces `Stopped`.
    let _ = tm::crash::run_crashable(|| serve_loop(&ctx));
}

fn serve_loop(ctx: &WorkerCtx) {
    while !ctx.stop.load(Ordering::Acquire) {
        let first = match ctx.rx.recv_timeout(POLL) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let mut batch = vec![first];
        while batch.len() < ctx.batch_max {
            match ctx.rx.try_recv() {
                Ok(r) => batch.push(r),
                Err(_) => break,
            }
        }
        execute_batch(ctx, batch);
    }
}

/// Reply `Timeout` to expired requests, dropping them from the batch.
fn shed_expired(ctx: &WorkerCtx, batch: &mut Vec<ShardRequest>) {
    let now = Instant::now();
    let mut expired = 0u64;
    batch.retain(|r| {
        if r.deadline <= now {
            r.reply.send(Err(ServeError::Timeout));
            expired += 1;
            false
        } else {
            true
        }
    });
    if expired > 0 {
        ctx.metrics.timeouts.add(expired);
    }
}

/// Reply `Rerouted` to requests routed under a stale table whose keys no
/// longer all live on this shard, dropping them from the batch. Requests
/// stamped with the current epoch always pass (the flip joins workers
/// before installing a new table, so a live worker's shard is never
/// wrong about current-epoch keys); stale-epoch requests pass only if
/// every key still routes here.
fn shed_rerouted(ctx: &WorkerCtx, batch: &mut Vec<ShardRequest>) {
    let table = ctx.router.table();
    let epoch = table.epoch();
    let mut rerouted = 0u64;
    batch.retain(|r| {
        if r.epoch == epoch || r.ops.iter().all(|&op| table.route(op_key(op)) == ctx.shard) {
            true
        } else {
            r.reply.send(Err(ServeError::Rerouted));
            rerouted += 1;
            false
        }
    });
    if rerouted > 0 {
        ctx.metrics.rerouted.add(rerouted);
    }
}

fn execute_batch(ctx: &WorkerCtx, mut batch: Vec<ShardRequest>) {
    let mut retry = 0u32;
    loop {
        shed_expired(ctx, &mut batch);
        shed_rerouted(ctx, &mut batch);
        if batch.is_empty() {
            return;
        }
        let ops: Vec<MapOp> = batch.iter().flat_map(|r| r.ops.iter().copied()).collect();
        // Mutations reach the shard op log inside the same transaction as
        // the batch — when the log is armed (replication, or a migration
        // in flight) — so the log entry and the data it describes commit
        // or roll back atomically. Read-only batches skip the log (and
        // the follower ack) entirely.
        let muts = repl::mutations(&ops);
        if let Some(rt) = ctx.repl.as_deref() {
            if !muts.is_empty() && rt.probe.fires(Point::BeforeAppend) {
                rt.poison_primary();
                tm::crash::crash_unwind();
            }
        }
        let res = tm::txn(&*ctx.pool.tm, ctx.tid, |tx| {
            if tx.attempt() >= ATTEMPT_FUEL {
                // Attempt budget exhausted: hand progress control back to
                // the service layer (backoff + bounded retries).
                return Err(Abort::Cancel);
            }
            let mut out = Vec::with_capacity(ops.len());
            for &op in &ops {
                out.push(ctx.pool.map.apply_in(tx, op)?);
            }
            let lsn = if muts.is_empty() {
                0
            } else {
                repl::append_armed_in(tx, ctx.pool.hdr, LogKind::Batch, 0, &muts)?
            };
            Ok((out, lsn))
        });
        match res {
            Ok((vals, lsn)) => {
                // `lsn > 0` with no runtime is a migration-armed log:
                // the appended entry feeds the catch-up replay, but
                // there is no follower to wait on.
                if lsn > 0 && ctx.repl.is_some() && !await_replication(ctx, &batch, lsn) {
                    return;
                }
                reply_batch(ctx, &batch, vals);
                return;
            }
            Err(tm::Cancelled) => {
                if retry >= ctx.max_retries {
                    ctx.metrics.aborted.add(batch.len() as u64);
                    for r in &batch {
                        r.reply.send(Err(ServeError::Aborted));
                    }
                    return;
                }
                ctx.metrics.retries.inc();
                std::thread::sleep(backoff(retry));
                retry += 1;
            }
        }
    }
}

/// Semi-synchronous ack gate: publish the freshly appended LSN to the
/// shipper, then block until the follower's receive log durably covers
/// it — only then may the batch be acked, which is what lets an acked
/// write survive losing *either* pool. Returns `false` if the wait
/// failed (follower down or deadline passed); the batch is then answered
/// `Timeout` — it committed locally, but a committed-yet-unacked request
/// is legal under the ack contract.
fn await_replication(ctx: &WorkerCtx, batch: &[ShardRequest], lsn: u64) -> bool {
    let rt = ctx.repl.as_deref().expect("log append implies replication");
    let state = &rt.states[ctx.shard];
    state.appended.fetch_max(lsn, Ordering::AcqRel);
    state.signal_work();
    if rt.probe.fires(Point::AfterAppend) {
        rt.poison_primary();
        tm::crash::crash_unwind();
    }
    if let Some(p) = ctx.pool.tm.pmem().pool().psan() {
        // The batch and its log entry must be fully fenced before the
        // follower can be told about them.
        p.durability_point(ctx.tid, "kvserve::repl::log_append");
    }
    let deadline = batch
        .iter()
        .map(|r| r.deadline)
        .max()
        .expect("non-empty batch");
    if state.wait_received(lsn, deadline) {
        return true;
    }
    ctx.metrics.timeouts.add(batch.len() as u64);
    for r in batch {
        r.reply.send(Err(ServeError::Timeout));
    }
    false
}

fn reply_batch(ctx: &WorkerCtx, batch: &[ShardRequest], vals: Vec<Option<u64>>) {
    let m = &ctx.metrics;
    m.batches.inc();
    m.batched_reqs.add(batch.len() as u64);
    let now = Instant::now();
    let mut vi = vals.into_iter();
    for r in batch {
        for op in &r.ops {
            match op {
                MapOp::Get(_) => m.gets.inc(),
                MapOp::Insert(..) => m.puts.inc(),
                MapOp::Remove(_) => m.dels.inc(),
            }
        }
        m.latency.record(now.duration_since(r.enqueued));
        let per_req: Vec<Option<u64>> = (&mut vi).take(r.ops.len()).collect();
        // The ack: once this fires the write is durably committed.
        r.reply.send(Ok(per_req));
    }
}
