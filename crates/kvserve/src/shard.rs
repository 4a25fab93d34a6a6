//! One shard: its pool (an NV-HALT instance plus the roots in its heap),
//! a bounded request queue, and the worker threads that drain it.
//!
//! Workers coalesce queued requests into batches and run each batch as a
//! *single* durable transaction ([`ShardPool::apply_in`] inside one
//! `tm::txn`), amortizing the commit-time flush/fence cost across the
//! batch. A batch whose transaction burns through its attempt fuel is
//! voluntarily cancelled; the worker then backs off exponentially and
//! retries the whole batch, shedding requests whose deadlines have passed.
//!
//! Crash simulation: a worker torn down mid-transaction by the pool's
//! [`CrashSignal`](tm::crash::CrashSignal) unwinds out of the serve loop;
//! the in-flight requests' completion handles drop, which delivers
//! [`ServeError::Stopped`] into their ring slots — never an ack.

use crate::metrics::{Counter, ShardMetrics};
use crate::probe::Point;
use crate::repl::{self, LogKind, ReplRuntime};
use crate::ring::RingCompletion;
use crate::{backoff, ServeError, ServiceConfig, ATTEMPT_FUEL};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use nvhalt::NvHalt;
use pmem::pool::DurableImage;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tm::{Abort, Addr, Txn};
use txstructs::{HashMapTx, MapOp};

/// How often an idle worker re-checks the stop flag.
pub(crate) const POLL: Duration = Duration::from_millis(2);

/// One shard pool's durable state: an NV-HALT instance and the three
/// roots in its heap — the data map, the 2PC commit words (one per
/// coordinator slot: the txid of the last cross-shard batch that slot
/// committed here, 0 if none, see `coord`) and the op-log header
/// `[head, last_lsn, armed]`. Primary shards, followers, promoted
/// followers and migration targets are all shard pools of this one
/// shape — a follower is a primary pool whose log stays disarmed and
/// empty and whose `last_lsn` is its applied watermark: each is
/// provisioned by [`ShardPool::create`], captured after a crash by
/// [`ShardPool::image`] and rebuilt by [`ShardPool::recover`].
#[derive(Clone)]
pub(crate) struct ShardPool {
    pub tm: Arc<NvHalt>,
    pub map: HashMapTx,
    pub commits: Addr,
    /// Words in the `commits` block (`cfg.coordinators`).
    pub slots: usize,
    pub hdr: Addr,
}

/// A shard pool's durable remains after a crash: the persistent image
/// plus its roots.
pub(crate) struct PoolImage {
    image: DurableImage,
    map: HashMapTx,
    commits: Addr,
    hdr: Addr,
}

impl ShardPool {
    /// A fresh pool over a new TM configured for `cfg`'s shards: an
    /// empty map, and durably zero commit words and header (an empty,
    /// disarmed op log).
    pub fn create(cfg: &ServiceConfig) -> ShardPool {
        let tm = Arc::new(NvHalt::new(cfg.shard_nvhalt()));
        let map = HashMapTx::create(&*tm, 0, cfg.buckets_per_shard)
            .expect("creating a map on a fresh TM cannot cancel");
        let commits = tm.alloc_raw(0, cfg.coordinators);
        let hdr = tm.alloc_raw(0, repl::HDR_WORDS);
        ShardPool {
            tm,
            map,
            commits,
            slots: cfg.coordinators,
            hdr,
        }
    }

    /// A fresh primary pool: its durable armed word (on iff replicating
    /// — a migration can arm it later) gates actual appends.
    pub fn primary(cfg: &ServiceConfig) -> ShardPool {
        let pool = ShardPool::create(cfg);
        if cfg.replication {
            repl::set_armed(&pool.tm, 0, pool.hdr, true);
        }
        pool
    }

    /// The one way a shard pool is mutated, inside the caller's
    /// transaction: run `ops` on the map; for a `Prepare`, write the
    /// slot's commit word `commits[slot] = txid` (recovery compares it
    /// with the slot's decision record to make replay idempotent); and,
    /// when the op log is armed, append one entry of `kind` with the
    /// mutations — always for a `Prepare` (the follower mirrors its
    /// word), for a `Batch` only if it mutates. The map, the word and the
    /// entry commit or roll back together. Returns each op's value and
    /// the entry's LSN, 0 when nothing was logged.
    pub fn apply_in(
        &self,
        tx: &mut dyn Txn,
        kind: LogKind,
        slot: u64,
        txid: u64,
        ops: &[MapOp],
    ) -> Result<(Vec<Option<u64>>, u64), Abort> {
        let vals = ops
            .iter()
            .map(|&op| self.map.apply_in(tx, op))
            .collect::<Result<Vec<_>, _>>()?;
        if kind == LogKind::Prepare {
            tx.write(self.commits.offset(slot), txid)?;
        }
        let logs = kind == LogKind::Prepare || ops.iter().any(|&op| mutates(op));
        let lsn = if logs && tx.read(self.hdr.offset(repl::P_ARMED))? != 0 {
            let muts: Vec<MapOp> = ops.iter().copied().filter(|&op| mutates(op)).collect();
            repl::append_in(tx, self.hdr, kind, slot, txid, &muts)?
        } else {
            0
        };
        Ok((vals, lsn))
    }

    /// Capture a crashed pool's durable remains.
    pub fn image(&self) -> PoolImage {
        PoolImage {
            image: self.tm.crash_image(),
            map: self.map,
            commits: self.commits,
            hdr: self.hdr,
        }
    }

    /// Rebuild a pool from its remains: TM recovery, then an allocator
    /// rebuild from every block still reachable from the roots — the
    /// map, the commit words, the header and its entry list. Any other
    /// block is free again afterwards.
    pub fn recover(cfg: &ServiceConfig, img: &PoolImage) -> ShardPool {
        let tm = Arc::new(NvHalt::recover_with(cfg.shard_nvhalt(), &img.image));
        tm.rebuild_allocator(
            img.map
                .used_blocks(&*tm)
                .into_iter()
                .chain([
                    (img.commits.0, cfg.coordinators),
                    (img.hdr.0, repl::HDR_WORDS),
                ])
                .chain(repl::walk_blocks_raw(&tm, img.hdr)),
        );
        ShardPool {
            tm,
            map: img.map,
            commits: img.commits,
            slots: cfg.coordinators,
            hdr: img.hdr,
        }
    }
}

/// Whether `op` writes (reads are not logged).
fn mutates(op: MapOp) -> bool {
    !matches!(op, MapOp::Get(_))
}

/// One queued request, on a shard's queue or the 2PC drivers': the ops
/// to run atomically, the ring slot that receives the answer, and its
/// timing envelope.
pub(crate) struct ShardRequest {
    pub ops: Vec<MapOp>,
    pub reply: RingCompletion,
    pub deadline: Instant,
    pub enqueued: Instant,
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
}

impl Shard {
    /// Spawn shard `index`'s workers over its (fresh, recovered,
    /// promoted or migrated) pool.
    pub fn start(
        cfg: &ServiceConfig,
        index: usize,
        pool: &ShardPool,
        repl: Option<Arc<ReplRuntime>>,
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
    while let Some(batch) = next_batch(&ctx.rx, &ctx.stop, ctx.batch_max) {
        execute_batch(ctx, batch);
    }
}

/// The drain loop of both request queues, a shard's and the 2PC
/// drivers': block for one request (re-checking `stop` every [`POLL`]),
/// then take what is already queued, up to `batch_max` requests in all.
/// There is no linger, so a lone request starts as soon as it arrives.
/// `None` once `stop` is set or the queue is disconnected.
pub(crate) fn next_batch(
    rx: &Receiver<ShardRequest>,
    stop: &AtomicBool,
    batch_max: usize,
) -> Option<Vec<ShardRequest>> {
    while !stop.load(Ordering::Acquire) {
        match rx.recv_timeout(POLL) {
            Ok(first) => {
                let mut batch = vec![first];
                batch.extend(std::iter::from_fn(|| rx.try_recv().ok()).take(batch_max - 1));
                return Some(batch);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return None,
        }
    }
    None
}

/// Reply `Timeout` to expired requests, dropping them from the batch,
/// and count them in `timeouts` — each before its reply, so a client
/// that saw its `Timeout` also sees it counted.
pub(crate) fn shed_expired(batch: &mut Vec<ShardRequest>, timeouts: &Counter) {
    let now = Instant::now();
    batch.retain(|r| {
        if r.deadline <= now {
            timeouts.inc();
            r.reply.send(Err(ServeError::Timeout));
            false
        } else {
            true
        }
    });
}

fn execute_batch(ctx: &WorkerCtx, mut batch: Vec<ShardRequest>) {
    let mut retry = 0u32;
    loop {
        shed_expired(&mut batch, &ctx.metrics.timeouts);
        if batch.is_empty() {
            return;
        }
        let ops: Vec<MapOp> = batch.iter().flat_map(|r| r.ops.iter().copied()).collect();
        // Mutations reach the shard op log inside the same transaction as
        // the batch — when the log is armed (replication, or a migration
        // in flight) — so the log entry and the data it describes commit
        // or roll back atomically. Read-only batches skip the log (and
        // the follower ack) entirely.
        if let Some(rt) = ctx.repl.as_deref() {
            if ops.iter().any(|&op| mutates(op)) && rt.probe.fires(Point::BeforeAppend) {
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
            ctx.pool.apply_in(tx, LogKind::Batch, 0, 0, &ops)
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
/// shipper, then block until the follower's watermark durably covers
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
