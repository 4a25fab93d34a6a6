//! Cross-shard atomicity: two-phase commit over the shards' NV-HALT
//! instances.
//!
//! A multi-op request whose keys route to several shards is queued to a
//! dedicated 2PC driver thread ([`drive`]) and executed there as one
//! **distributed transaction**:
//!
//! 1. **Prepare** — per participating shard, run the shard's ops plus a
//!    *marker* insert (`meta[txid] = 1`) as a prepared transaction
//!    ([`tm::TmPrepare`]): the writes are durably staged below the
//!    shard's persistent version and every touched address stays locked,
//!    so the staged state is invisible to other transactions and a crash
//!    rolls it back.
//! 2. **Decide** — append a `COMMITTED` entry (txid + the full op list)
//!    to the decision log, a linked list in its own NV-HALT instance,
//!    as one committed transaction. *This commit is the commit point of
//!    the whole batch.* Aborts are presumed: no entry is ever written
//!    for them.
//! 3. **Commit fan-out** — `commit_prepared` on every participant makes
//!    the staged writes (and the marker) durable and visible.
//! 4. **Resolve** — flip the entry to `RESOLVED`, then delete the
//!    markers, then recycle the entry: later decisions rewrite resolved
//!    blocks in place, so the log's footprint tracks in-flight batches,
//!    not batches ever committed.
//!
//! Recovery replays the log: for every unresolved `COMMITTED` entry, any
//! shard whose marker is missing lost its prepared state in the crash
//! and gets the entry's ops re-applied (with the marker) in one
//! transaction; shards whose marker survived already committed and are
//! skipped — that is what makes replay idempotent and safe against
//! *later* committed writes to the same keys. The entry is then resolved
//! and the markers dropped.
//!
//! Phase 1 can deadlock with a concurrent coordinator preparing the same
//! shards in a different order; every prepare is therefore fuel-bounded
//! and a cancelled round aborts all prepared participants, backs off and
//! retries, up to `max_retries`.

use crate::metrics::CoordinatorMetrics;
use crate::probe::Point;
use crate::repl::{self, LogKind};
use crate::shard::ShardPool;
use crate::{
    backoff, partition_by_table, Engine, Reply, RoutingTable, ServeError, ServiceConfig, XRequest,
    ATTEMPT_FUEL, ROUTE_SLOTS,
};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use nvhalt::NvHalt;
use parking_lot::{Condvar, Mutex};
use pmem::pool::DurableImage;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tm::{Abort, Addr, Tm, TmPrepare};
use txstructs::MapOp;

/// Decision-log entry layout (word offsets within an entry block):
/// `[next, txid, state, nops, cap, (tag, key, val) × cap]`.
/// `cap` is the block's op capacity; resolved entries are recycled in
/// place for later decisions with `nops <= cap`, so the log's footprint
/// tracks the number of *in-flight* cross-shard batches, not the number
/// ever committed.
const E_NEXT: u64 = 0;
const E_TXID: u64 = 1;
const E_STATE: u64 = 2;
const E_NOPS: u64 = 3;
const E_CAP: u64 = 4;
const E_OPS: u64 = 5;
const OP_WORDS: u64 = 3;

/// Entry state: decision taken, fan-out possibly incomplete.
const STATE_COMMITTED: u64 = 1;
/// Entry state: every participant durably committed; skip at recovery.
const STATE_RESOLVED: u64 = 2;

/// Routing-root layout inside the decision log's pool:
/// `[epoch, nslots, assign[0..ROUTE_SLOTS]]`. Rewritten whole by one
/// committed transaction per migration flip, so recovery reads either
/// the pre-flip or the post-flip table — never a torn mix.
const R_EPOCH: u64 = 0;
const R_NSLOTS: u64 = 1;
const R_ASSIGN: u64 = 2;
/// Words in the routing-root block.
const ROUTE_WORDS: usize = 2 + ROUTE_SLOTS;

/// The cross-shard commit coordinator: the decision log shared by the
/// 2PC driver threads. Driver `c` exclusively owns coordinator slot `c`,
/// which grants TM thread id `workers_per_shard + c` on every shard and
/// `c` on the log.
pub(crate) struct Coordinator {
    /// The decision log's own NV-HALT instance (crashed and recovered
    /// together with the shards).
    pub log: Arc<NvHalt>,
    /// Head word of the decision-entry linked list.
    pub head: Addr,
    /// The durable routing-table root block (same pool as the log).
    pub route: Addr,
    /// Next transaction id to hand out (recovered as max seen + 1).
    pub next_txid: AtomicU64,
    /// Recyclable `RESOLVED` entries, as `(addr, op capacity)`. Entries
    /// enter only after their markers are dropped (a recycled entry must
    /// never still be needed to dedupe replay).
    free: Mutex<Vec<(Addr, u64)>>,
    /// The decision-log group-commit queue (see [`Coordinator::log_decision`]).
    group: Mutex<DecisionGroup>,
    group_cv: Condvar,
    pub metrics: Arc<CoordinatorMetrics>,
}

/// Shared state of the decision-log group commit: decisions queued for
/// the next leader, and the results a leader publishes back to its
/// waiters.
#[derive(Default)]
struct DecisionGroup {
    /// Decisions waiting to be written, as `(txid, ops)`.
    queue: Vec<(u64, Vec<MapOp>)>,
    /// Written decisions not yet picked up: txid → `(entry, cap)`.
    results: HashMap<u64, (Addr, u64)>,
    /// A leader is writing the current batch.
    leader_busy: bool,
    /// The leader's write crash-unwound (pool poisoned mid-commit);
    /// every waiter must unwind too instead of blocking forever.
    poisoned: bool,
}

/// Unwind-safety for the group leader: if the decision-log transaction
/// crash-unwinds (simulated power failure), flag the group and wake the
/// waiters so they unwind as well.
struct GroupAbortGuard<'a>(&'a Coordinator);

impl Drop for GroupAbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.group.lock().poisoned = true;
            self.0.group_cv.notify_all();
        }
    }
}

impl Coordinator {
    /// Fresh coordinator: new log TM, head allocated and durably zero,
    /// the initial routing table durably written.
    pub fn new(cfg: &ServiceConfig, table: &RoutingTable) -> Coordinator {
        let log = Arc::new(NvHalt::new(cfg.log_nvhalt()));
        let head = log.alloc_raw(0, 1);
        let route = log.alloc_raw(0, ROUTE_WORDS);
        let co = Coordinator::assemble(log, head, route, 1);
        co.write_route(0, table);
        co
    }

    fn assemble(log: Arc<NvHalt>, head: Addr, route: Addr, next_txid: u64) -> Coordinator {
        let co = Coordinator {
            log,
            head,
            route,
            next_txid: AtomicU64::new(next_txid),
            free: Mutex::new(Vec::new()),
            group: Mutex::new(DecisionGroup::default()),
            group_cv: Condvar::new(),
            metrics: Arc::default(),
        };
        co.free.locksan_label("coord::free", false);
        co.group.locksan_label("coord::group", false);
        co
    }

    /// Durably (re)write the routing root as **one committed
    /// transaction** — for a migration this is the flip, the batch's
    /// "commit point" analogue: before it commits recovery sees the old
    /// table, after it the new one. Followed by a psan durability point:
    /// the table must be fully fenced before anything serves under it.
    pub fn write_route(&self, ltid: usize, t: &RoutingTable) {
        assert_eq!(t.assignment().len(), ROUTE_SLOTS);
        let route = self.route;
        tm::txn(&*self.log, ltid, |tx| {
            tx.write(route.offset(R_EPOCH), t.epoch())?;
            tx.write(route.offset(R_NSLOTS), ROUTE_SLOTS as u64)?;
            for (s, &a) in t.assignment().iter().enumerate() {
                tx.write(route.offset(R_ASSIGN + s as u64), a as u64)?;
            }
            Ok(())
        })
        .expect("routing-root transactions never cancel");
        if let Some(p) = self.log.pmem().pool().psan() {
            p.durability_point(ltid, "kvserve::coord::route_flip");
        }
    }
}

/// Read the durable routing table back. Only valid on a quiescent TM
/// (recovery / promotion).
fn read_route_raw(log: &NvHalt, route: Addr) -> RoutingTable {
    let nslots = log.read_raw(route.offset(R_NSLOTS)) as usize;
    assert_eq!(nslots, ROUTE_SLOTS, "routing root slot-count mismatch");
    let assign = (0..ROUTE_SLOTS)
        .map(|s| log.read_raw(route.offset(R_ASSIGN + s as u64)) as u32)
        .collect();
    RoutingTable::from_parts(log.read_raw(route.offset(R_EPOCH)), assign)
}

/// The decision log's durable remains after a crash: its pool image
/// plus the two roots inside it, the entry-list head and the routing
/// root.
pub(crate) struct LogImage {
    image: DurableImage,
    head: Addr,
    route: Addr,
}

impl LogImage {
    /// Recover the decision log: TM recovery, an allocator rebuild from
    /// a walk of the entry list (plus the head word and the routing
    /// root), and the txid counter past every logged txid. Returns the
    /// coordinator, the durable routing table, and the entries for
    /// [`replay`] to resolve.
    pub fn recover(
        &self,
        cfg: &ServiceConfig,
    ) -> (Arc<Coordinator>, Arc<RoutingTable>, Vec<DecisionEntry>) {
        let log = Arc::new(NvHalt::recover_with(cfg.log_nvhalt(), &self.image));
        let entries = walk_log(&log, self.head);
        log.rebuild_allocator(
            std::iter::once((self.head.0, 1))
                .chain(std::iter::once((self.route.0, ROUTE_WORDS)))
                .chain(entries.iter().map(|e| (e.addr.0, e.words()))),
        );
        let table = Arc::new(read_route_raw(&log, self.route));
        let next_txid = entries.iter().map(|e| e.txid).max().unwrap_or(0) + 1;
        let co = Coordinator::assemble(log, self.head, self.route, next_txid);
        (Arc::new(co), table, entries)
    }
}

impl Coordinator {
    /// Capture the crashed decision log's durable remains.
    pub fn image(&self) -> LogImage {
        LogImage {
            image: self.log.crash_image(),
            head: self.head,
            route: self.route,
        }
    }

    /// Best-fit pop from the recycle list: the smallest resolved entry
    /// that can hold `nops` ops.
    fn take_free(&self, nops: u64) -> Option<(Addr, u64)> {
        let mut free = self.free.lock();
        let mut best: Option<usize> = None;
        for (i, &(_, cap)) in free.iter().enumerate() {
            if cap >= nops {
                let better = match best {
                    Some(b) => cap < free[b].1,
                    None => true,
                };
                if better {
                    best = Some(i);
                }
            }
        }
        best.map(|i| free.swap_remove(i))
    }

    /// Hand a fully resolved entry (markers already dropped) back for
    /// recycling.
    pub fn release_entry(&self, entry: Addr, cap: u64) {
        self.free.lock().push((entry, cap));
    }

    /// Durably log a `COMMITTED` entry — the batch's commit point — as a
    /// **group commit**: the decision is queued, and the first driver to
    /// find no leader writing becomes the leader, writing *every* queued
    /// decision in one committed log transaction (one flush pass, one
    /// fence) and publishing the entries back to the waiting drivers.
    /// Concurrently-resolving cross-shard batches thus share a single
    /// commit's persist cost instead of paying one fence each. Returns
    /// this decision's entry and its op capacity.
    fn log_decision(&self, ltid: usize, txid: u64, ops: &[MapOp]) -> (Addr, u64) {
        let mut g = self.group.lock();
        g.queue.push((txid, ops.to_vec()));
        loop {
            if let Some(r) = g.results.remove(&txid) {
                return r;
            }
            if g.poisoned {
                // The leader's transaction died in a simulated power
                // failure; this decision is not durable and never will
                // be. Unwind like any other crashed transaction.
                drop(g);
                tm::crash::crash_unwind();
            }
            if !g.leader_busy {
                g.leader_busy = true;
                let batch = std::mem::take(&mut g.queue);
                drop(g);
                let guard = GroupAbortGuard(self);
                let written = self.write_decisions(ltid, &batch);
                std::mem::forget(guard);
                self.metrics.decision_groups.inc();
                self.metrics.decisions_logged.add(batch.len() as u64);
                g = self.group.lock();
                for ((id, _), r) in batch.iter().zip(written) {
                    g.results.insert(*id, r);
                }
                g.leader_busy = false;
                self.group_cv.notify_all();
            } else {
                self.group_cv.wait(&mut g);
            }
        }
    }

    /// The group leader's write: every queued decision in **one**
    /// committed log transaction. Per decision, recycles a resolved
    /// entry in place when one is large enough, otherwise appends a new
    /// block. Returns one `(entry, cap)` per batch element, in order.
    fn write_decisions(&self, ltid: usize, batch: &[(u64, Vec<MapOp>)]) -> Vec<(Addr, u64)> {
        let head = self.head;
        // Pick recycled blocks before the transaction so an internal
        // retry does not take more of them.
        let reuse: Vec<Option<(Addr, u64)>> = batch
            .iter()
            .map(|(_, ops)| self.take_free(ops.len() as u64))
            .collect();
        let _psan = self
            .log
            .pmem()
            .pool()
            .psan_scope(ltid, "kvserve::coord::log_decision");
        tm::txn(&*self.log, ltid, |tx| {
            let mut out = Vec::with_capacity(batch.len());
            for ((txid, ops), reuse) in batch.iter().zip(&reuse) {
                let nops = ops.len() as u64;
                let (e, cap) = match *reuse {
                    Some((e, cap)) => (e, cap),
                    None => {
                        let e = tx.alloc((E_OPS + nops * OP_WORDS) as usize)?;
                        tx.write(e.offset(E_CAP), nops)?;
                        let prev = tx.read(head)?;
                        tx.write(e.offset(E_NEXT), prev)?;
                        tx.write(head, e.0)?;
                        (e, nops)
                    }
                };
                tx.write(e.offset(E_TXID), *txid)?;
                tx.write(e.offset(E_NOPS), nops)?;
                for (i, &op) in ops.iter().enumerate() {
                    let (tag, k, v) = encode_op(op);
                    let base = e.offset(E_OPS + i as u64 * OP_WORDS);
                    tx.write(base, tag)?;
                    tx.write(base.offset(1), k)?;
                    tx.write(base.offset(2), v)?;
                }
                tx.write(e.offset(E_STATE), STATE_COMMITTED)?;
                out.push((e, cap));
            }
            Ok(out)
        })
        .expect("decision-log transactions never cancel")
    }

    /// Durably flip `entry` to `RESOLVED` (recovery will skip it).
    pub fn resolve(&self, ltid: usize, entry: Addr) {
        tm::txn(&*self.log, ltid, |tx| {
            tx.write(entry.offset(E_STATE), STATE_RESOLVED)
        })
        .expect("decision-log transactions never cancel");
    }
}

fn encode_op(op: MapOp) -> (u64, u64, u64) {
    match op {
        MapOp::Get(k) => (0, k, 0),
        MapOp::Insert(k, v) => (1, k, v),
        MapOp::Remove(k) => (2, k, 0),
    }
}

fn decode_op(tag: u64, k: u64, v: u64) -> MapOp {
    match tag {
        0 => MapOp::Get(k),
        1 => MapOp::Insert(k, v),
        2 => MapOp::Remove(k),
        _ => unreachable!("corrupt decision-log op tag {tag}"),
    }
}

/// One decoded decision-log entry.
pub(crate) struct DecisionEntry {
    pub addr: Addr,
    pub txid: u64,
    pub state: u64,
    pub cap: u64,
    pub ops: Vec<MapOp>,
}

impl DecisionEntry {
    /// The entry's block size in words (for allocator rebuild).
    pub fn words(&self) -> usize {
        (E_OPS + self.cap * OP_WORDS) as usize
    }
}

/// Decode the whole log. Only valid on a quiescent TM (recovery).
///
/// List position carries no ordering (resolved entries are recycled in
/// place), and none is needed: per shard and key at most one unresolved
/// entry can be missing its marker — any later conflicting prepare
/// required the earlier commit to release its locks, which also made
/// its marker durable — so replay never re-applies two entries to the
/// same key.
fn walk_log(log: &NvHalt, head: Addr) -> Vec<DecisionEntry> {
    let mut entries = Vec::new();
    let mut a = Addr(log.read_raw(head));
    while !a.is_null() {
        let nops = log.read_raw(a.offset(E_NOPS)) as usize;
        let ops = (0..nops)
            .map(|i| {
                let base = a.offset(E_OPS + i as u64 * OP_WORDS);
                decode_op(
                    log.read_raw(base),
                    log.read_raw(base.offset(1)),
                    log.read_raw(base.offset(2)),
                )
            })
            .collect();
        entries.push(DecisionEntry {
            addr: a,
            txid: log.read_raw(a.offset(E_TXID)),
            state: log.read_raw(a.offset(E_STATE)),
            cap: log.read_raw(a.offset(E_CAP)),
            ops,
        });
        a = Addr(log.read_raw(a.offset(E_NEXT)));
    }
    entries
}

/// 2PC driver loop: drains the cross-shard queue, sheds requests whose
/// deadline passed while queued (queue wait is charged against the
/// deadline — execution never starts for an expired batch), and runs
/// each batch under [`tm::crash::run_crashable`]. A simulated power
/// failure unwinds the driver; the dropped request's completion handle
/// delivers [`ServeError::Stopped`] — never an ack.
pub(crate) fn drive(eng: Arc<Engine>, rx: Receiver<XRequest>, stop: Arc<AtomicBool>, slot: usize) {
    while !stop.load(Ordering::Acquire) {
        let req = match rx.recv_timeout(crate::shard::POLL) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if Instant::now() >= req.deadline {
            eng.coord.metrics.abort_timeout.inc();
            req.reply.send(Err(ServeError::Timeout));
            continue;
        }
        let survived = tm::crash::run_crashable(|| {
            let reply = cross_shard(&eng, &req.ops, req.deadline, slot);
            req.reply.send(reply);
        });
        if survived.is_none() {
            // The pools are poisoned; the unwind dropped `req`, whose
            // completion handle surfaced `Stopped`. This driver is dead
            // until the service is recovered.
            return;
        }
    }
}

/// Run a multi-shard batch as one 2PC transaction on driver `slot`
/// (which exclusively owns the matching reserved TM thread ids). Called
/// inside [`tm::crash::run_crashable`]; a simulated power failure
/// unwinds out of here and the client observes [`ServeError::Stopped`].
pub(crate) fn cross_shard(eng: &Engine, ops: &[MapOp], deadline_at: Instant, slot: usize) -> Reply {
    let co = &eng.coord;
    let cfg = &eng.cfg;

    // Partition ops under the *current* routing table, remembering
    // original positions so the reply lines up with the submitted
    // order. Epoch-agnostic by construction: a migration flip only runs
    // after joining the 2PC drivers, so the table cannot change under a
    // batch mid-protocol, and a batch re-routed across a flip is simply
    // re-partitioned here under the new table (it may even collapse to
    // one group — still a correct, if degenerate, 2PC round).
    let groups = partition_by_table(ops, &eng.router.table());
    let m = &co.metrics;
    m.cross_batches.inc();
    m.cross_ops.add(ops.len() as u64);

    let ptid = cfg.workers_per_shard + slot;
    let ltid = slot;

    let txid = co.next_txid.fetch_add(1, Ordering::Relaxed);
    if eng.probe.fires(Point::BeforePrepare) {
        eng.poison();
        tm::crash::crash_unwind();
    }

    // Phase 1: prepare every participant. Any cancelled prepare aborts
    // the whole round; the deadline is only honoured here — once the
    // decision is logged the batch always completes.
    let rt = eng.repl.as_deref();
    let mut results: Vec<Option<u64>> = vec![None; ops.len()];
    // Per-group LSN of the Prepare entry appended inside the prepared
    // transaction (0 when replication is off). Valid only for the round
    // that ends up committing — an aborted round rolls its appends back.
    let mut prep_lsns = vec![0u64; groups.len()];
    let mut retry = 0u32;
    'round: loop {
        if Instant::now() >= deadline_at {
            m.abort_timeout.inc();
            return Err(ServeError::Timeout);
        }
        let prep_start = Instant::now();
        let mut prepared: Vec<usize> = Vec::with_capacity(groups.len());
        for (gi, (s, idxs)) in groups.iter().enumerate() {
            if gi > 0 && eng.probe.fires(Point::BetweenPrepares) {
                eng.poison();
                tm::crash::crash_unwind();
            }
            let sh = &eng.pools[*s];
            let (map, meta, log_hdr) = (sh.map, sh.meta, sh.hdr);
            let gops: Vec<MapOp> = idxs.iter().map(|&i| ops[i]).collect();
            let muts = repl::mutations(&gops);
            let _psan = sh
                .tm
                .pmem()
                .pool()
                .psan_scope(ptid, "kvserve::coord::prepare");
            let res = tm::prepare(&*sh.tm, ptid, |tx| {
                if tx.attempt() >= ATTEMPT_FUEL {
                    return Err(Abort::Cancel);
                }
                let mut out = Vec::with_capacity(gops.len());
                for &op in &gops {
                    out.push(map.apply_in(tx, op)?);
                }
                // The marker commits or rolls back atomically with the
                // ops; recovery uses it to make replay idempotent.
                meta.insert_in(tx, txid, 1)?;
                // When the shard's op log is armed (replicating, or a
                // live migration is streaming it), the follower mirrors
                // the marker too — via the Prepare entry — so
                // decision-log replay stays idempotent across a
                // promotion or migration boundary.
                let lsn = repl::append_armed_in(tx, log_hdr, LogKind::Prepare, txid, &muts)?;
                Ok((out, lsn))
            });
            match res {
                Ok((vals, lsn)) => {
                    for (&oi, v) in idxs.iter().zip(vals) {
                        results[oi] = v;
                    }
                    prep_lsns[gi] = lsn;
                    prepared.push(gi);
                }
                Err(tm::Cancelled) => {
                    for &pgi in &prepared {
                        eng.pools[groups[pgi].0].tm.abort_prepared(ptid);
                    }
                    m.cross_retries.inc();
                    if retry >= cfg.max_retries {
                        m.abort_conflict.inc();
                        return Err(ServeError::Aborted);
                    }
                    std::thread::sleep(backoff(retry));
                    retry += 1;
                    continue 'round;
                }
            }
        }
        m.prepare.record(prep_start.elapsed());
        break;
    }
    if eng.probe.fires(Point::Prepared) {
        eng.poison();
        tm::crash::crash_unwind();
    }

    // Commit point.
    let (entry, cap) = co.log_decision(ltid, txid, ops);
    if eng.probe.fires(Point::DecisionLogged) {
        eng.poison();
        tm::crash::crash_unwind();
    }

    // Phase 2: fan out the commit. Crashes from here on are repaired by
    // log replay at recovery.
    let commit_start = Instant::now();
    for (gi, (s, _)) in groups.iter().enumerate() {
        if gi > 0 && eng.probe.fires(Point::MidCommit) {
            eng.poison();
            tm::crash::crash_unwind();
        }
        let sh = &eng.pools[*s];
        let _psan = sh
            .tm
            .pmem()
            .pool()
            .psan_scope(ptid, "kvserve::coord::commit");
        sh.tm.commit_prepared(ptid);
        // The Prepare entry just became durable with the rest of the
        // staged writes; let the shipper at it.
        if let Some(r) = rt {
            if prep_lsns[gi] > 0 {
                r.states[*s]
                    .appended
                    .fetch_max(prep_lsns[gi], Ordering::AcqRel);
                r.states[*s].signal_work();
            }
        }
    }
    if eng.probe.fires(Point::Committed) {
        eng.poison();
        tm::crash::crash_unwind();
    }

    // Resolve, then drop the markers (in that order: a marker may only
    // disappear once the log no longer needs it to dedupe replay), and
    // only then recycle the entry — a recycled entry overwritten by a
    // new decision must not leave this txid's markers behind.
    co.resolve(ltid, entry);
    let mut resolve_lsns = vec![0u64; groups.len()];
    for (gi, (s, _)) in groups.iter().enumerate() {
        let sh = &eng.pools[*s];
        let (meta, log_hdr) = (sh.meta, sh.hdr);
        let lsn = tm::txn(&*sh.tm, ptid, |tx| {
            meta.remove_in(tx, txid)?;
            repl::append_armed_in(tx, log_hdr, LogKind::Resolve, txid, &[])
        })
        .expect("marker cleanup never cancels");
        resolve_lsns[gi] = lsn;
        if let Some(r) = rt {
            if lsn > 0 {
                r.states[*s].appended.fetch_max(lsn, Ordering::AcqRel);
                r.states[*s].signal_work();
            }
        }
    }
    co.release_entry(entry, cap);
    m.commit.record(commit_start.elapsed());

    // Semi-synchronous ack: wait until every participant's Resolve entry
    // is durably in its follower's receive log (per-shard LSN order makes
    // that cover the Prepare entry too). A miss answers `Timeout` — the
    // batch committed, but a committed-yet-unacked request is legal.
    if let Some(r) = rt {
        for (gi, (s, _)) in groups.iter().enumerate() {
            if resolve_lsns[gi] > 0 && !r.states[*s].wait_received(resolve_lsns[gi], deadline_at) {
                return Err(ServeError::Timeout);
            }
        }
    }
    Ok(results)
}

/// Replay the decision log over recovered, quiescent shard pools:
/// re-apply every unresolved committed entry on the shards that lost
/// it, resolve it, and drop markers. Entries partition under `table` —
/// sound because a migration flip only commits with the decision log
/// fully resolved (the flip joins the 2PC drivers first), so every entry
/// still needing replay was logged under the recovered table. Every
/// replay transaction appends the matching Prepare/Resolve entry to the
/// pool's op log when it is armed, so the follower re-converges too.
/// Replay leaves every entry resolved with its markers dropped, so all
/// of them go back to the recycle list. Returns (and counts in the
/// coordinator's metrics) how many shard-transactions were re-applied.
pub(crate) fn replay(
    co: &Coordinator,
    pools: &[ShardPool],
    table: &RoutingTable,
    entries: &[DecisionEntry],
) -> u64 {
    let mut replayed = 0u64;
    for e in entries {
        let by_shard = partition_by_table(&e.ops, table);
        if e.state == STATE_COMMITTED {
            for (s, idxs) in &by_shard {
                let p = &pools[*s];
                // A surviving marker means this shard committed its part
                // before the crash; re-applying would clobber later writes.
                let done = p
                    .meta
                    .get(&*p.tm, 0, e.txid)
                    .expect("recovery reads never cancel")
                    .is_some();
                if done {
                    continue;
                }
                let sops: Vec<MapOp> = idxs.iter().map(|&i| e.ops[i]).collect();
                tm::txn(&*p.tm, 0, |tx| {
                    for &op in &sops {
                        p.map.apply_in(tx, op)?;
                    }
                    p.meta.insert_in(tx, e.txid, 1)?;
                    repl::append_armed_in(
                        tx,
                        p.hdr,
                        LogKind::Prepare,
                        e.txid,
                        &repl::mutations(&sops),
                    )?;
                    Ok(())
                })
                .expect("recovery replay never cancels");
                replayed += 1;
            }
            co.resolve(0, e.addr);
        }
        // Resolved either way now: markers are garbage, drop them.
        for (s, _) in &by_shard {
            let p = &pools[*s];
            tm::txn(&*p.tm, 0, |tx| {
                p.meta.remove_in(tx, e.txid)?;
                repl::append_armed_in(tx, p.hdr, LogKind::Resolve, e.txid, &[])?;
                Ok(())
            })
            .expect("marker cleanup never cancels");
        }
    }
    for e in entries {
        co.release_entry(e.addr, e.cap);
    }
    co.metrics.replayed.add(replayed);
    replayed
}
