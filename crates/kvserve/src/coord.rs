//! Cross-shard atomicity: two-phase commit over the shards' NV-HALT
//! instances.
//!
//! A multi-op request whose keys route to several shards is queued to a
//! dedicated 2PC driver thread ([`drive`]) and executed there as one
//! **distributed transaction**. Driver `c` owns coordinator slot `c` and
//! runs one batch at a time:
//!
//! 1. **Prepare** — per participating shard, run the shard's ops plus a
//!    write of the slot's *commit word* (`commits[c] = txid`) as a
//!    prepared transaction ([`tm::TmPrepare`]): the writes are durably
//!    staged below the shard's persistent version and every touched
//!    address stays locked, so the staged state is invisible to other
//!    transactions and a crash rolls it back.
//! 2. **Decide** — overwrite slot `c`'s *decision record* (txid, routing
//!    epoch, the full op list) in the decision log, its own NV-HALT
//!    instance, as one committed transaction. *This commit is the commit
//!    point of the whole batch.* Aborts are presumed: nothing is ever
//!    written for them.
//! 3. **Commit fan-out** — `commit_prepared` on every participant makes
//!    the staged writes (and the commit word) durable and visible. The
//!    batch is acked right after; there is nothing to clean up.
//!
//! Recovery replays the records ([`replay`]): a participant whose commit
//! word for the record's slot is below the record's txid lost its
//! prepared state in the crash and gets the record's ops re-applied
//! (with the word) in one transaction; a participant whose word reached
//! the txid already committed and is skipped — that is what makes
//! replay idempotent and safe against *later* committed writes to the
//! same keys. A slot's record is only overwritten by the slot's next
//! decision, after every participant of the previous one committed, so
//! no older decision can still need replay. Txids never repeat (the
//! counter recovers past every record), so a commit word never sits
//! above a live record's txid. Only records of the recovered routing
//! epoch are replayed: a migration flip joins the drivers first, so
//! every older record is fully committed, and re-partitioned under the
//! new table it could land on a split's target, whose words are zero.
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
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tm::{Abort, Addr, Tm, TmPrepare};
use txstructs::MapOp;

/// Decision-record layout (word offsets within a record block):
/// `[cap, txid, epoch, nops, (tag, key, val) × cap]`. `cap` is the
/// block's op capacity: the slot's next decision overwrites the record
/// in place, and only one with more ops moves it to a bigger block.
/// Every other word a decision writes is contiguous, so its commit
/// flushes the fewest log-entry lines.
const D_CAP: u64 = 0;
const D_TXID: u64 = 1;
const D_EPOCH: u64 = 2;
const D_NOPS: u64 = 3;
const D_OPS: u64 = 4;
const OP_WORDS: u64 = 3;

/// A record block's size in words.
fn record_words(cap: u64) -> usize {
    (D_OPS + cap * OP_WORDS) as usize
}

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
/// `c` on the log, commit word `c` on every shard, and decision record
/// `c`.
pub(crate) struct Coordinator {
    /// The decision log's own NV-HALT instance (crashed and recovered
    /// together with the shards).
    pub log: Arc<NvHalt>,
    /// The slot table: word `c` points at slot `c`'s decision record (0
    /// until the slot's first decision).
    records: Addr,
    /// The durable routing-table root block (same pool as the log).
    pub route: Addr,
    /// Next transaction id to hand out (recovered as max seen + 1).
    pub next_txid: AtomicU64,
    /// The decision-log group-commit queue (see [`Coordinator::log_decision`]).
    group: Mutex<DecisionGroup>,
    group_cv: Condvar,
    pub metrics: Arc<CoordinatorMetrics>,
}

/// One slot's commit decision: what the group commit writes into the
/// slot's record, and what recovery reads back out of it for
/// [`replay`].
pub(crate) struct Decision {
    pub slot: u64,
    pub txid: u64,
    /// The routing epoch the batch was partitioned under.
    pub epoch: u64,
    pub ops: Vec<MapOp>,
}

/// Shared state of the decision-log group commit: decisions queued for
/// the next leader, and the ones a leader has written for its waiters
/// to pick up.
#[derive(Default)]
struct DecisionGroup {
    /// Decisions waiting to be written.
    queue: Vec<Decision>,
    /// Txids of written decisions not yet picked up.
    written: HashSet<u64>,
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
    /// Fresh coordinator: new log TM, slot table allocated and durably
    /// zero, the initial routing table durably written.
    pub fn new(cfg: &ServiceConfig, table: &RoutingTable) -> Coordinator {
        let log = Arc::new(NvHalt::new(cfg.log_nvhalt()));
        let records = log.alloc_raw(0, cfg.coordinators);
        let route = log.alloc_raw(0, ROUTE_WORDS);
        let co = Coordinator::assemble(log, records, route, 1);
        co.write_route(0, table);
        co
    }

    fn assemble(log: Arc<NvHalt>, records: Addr, route: Addr, next_txid: u64) -> Coordinator {
        let co = Coordinator {
            log,
            records,
            route,
            next_txid: AtomicU64::new(next_txid),
            group: Mutex::new(DecisionGroup::default()),
            group_cv: Condvar::new(),
            metrics: Arc::default(),
        };
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
/// plus the two roots inside it, the slot table and the routing root.
pub(crate) struct LogImage {
    image: DurableImage,
    records: Addr,
    route: Addr,
}

impl LogImage {
    /// Recover the decision log: TM recovery, an allocator rebuild from
    /// the slot table, every record it points at and the routing root,
    /// and the txid counter past every recorded txid. Returns the
    /// coordinator, the durable routing table, and the decisions for
    /// [`replay`].
    pub fn recover(
        &self,
        cfg: &ServiceConfig,
    ) -> (Arc<Coordinator>, Arc<RoutingTable>, Vec<Decision>) {
        let log = Arc::new(NvHalt::recover_with(cfg.log_nvhalt(), &self.image));
        let mut blocks = vec![
            (self.records.0, cfg.coordinators),
            (self.route.0, ROUTE_WORDS),
        ];
        let mut decisions = Vec::new();
        for slot in 0..cfg.coordinators as u64 {
            let r = Addr(log.read_raw(self.records.offset(slot)));
            if !r.is_null() {
                blocks.push((r.0, record_words(log.read_raw(r.offset(D_CAP)))));
                decisions.push(read_record_raw(&log, slot, r));
            }
        }
        log.rebuild_allocator(blocks);
        let table = Arc::new(read_route_raw(&log, self.route));
        let next_txid = decisions.iter().map(|d| d.txid).max().unwrap_or(0) + 1;
        let co = Coordinator::assemble(log, self.records, self.route, next_txid);
        (Arc::new(co), table, decisions)
    }
}

/// Decode slot `slot`'s record at `r`. Only valid on a quiescent TM
/// (recovery).
fn read_record_raw(log: &NvHalt, slot: u64, r: Addr) -> Decision {
    let nops = log.read_raw(r.offset(D_NOPS));
    let ops = (0..nops)
        .map(|i| {
            let base = r.offset(D_OPS + i * OP_WORDS);
            decode_op(
                log.read_raw(base),
                log.read_raw(base.offset(1)),
                log.read_raw(base.offset(2)),
            )
        })
        .collect();
    Decision {
        slot,
        txid: log.read_raw(r.offset(D_TXID)),
        epoch: log.read_raw(r.offset(D_EPOCH)),
        ops,
    }
}

impl Coordinator {
    /// Capture the crashed decision log's durable remains.
    pub fn image(&self) -> LogImage {
        LogImage {
            image: self.log.crash_image(),
            records: self.records,
            route: self.route,
        }
    }

    /// Durably write `d` into its slot's record — the batch's commit
    /// point — as a **group commit**: the decision is queued, and the
    /// first driver to find no leader writing becomes the leader,
    /// writing *every* queued decision in one committed log transaction
    /// (one flush pass, one fence) and handing the written txids back to
    /// the waiting drivers. Concurrently-deciding cross-shard batches
    /// thus share a single commit's persist cost instead of paying one
    /// fence each.
    fn log_decision(&self, ltid: usize, d: Decision) {
        let txid = d.txid;
        let mut g = self.group.lock();
        g.queue.push(d);
        loop {
            if g.written.remove(&txid) {
                return;
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
                self.write_decisions(ltid, &batch);
                std::mem::forget(guard);
                self.metrics.decision_groups.inc();
                self.metrics.decisions_logged.add(batch.len() as u64);
                g = self.group.lock();
                g.written.extend(batch.iter().map(|d| d.txid));
                g.leader_busy = false;
                self.group_cv.notify_all();
            } else {
                self.group_cv.wait(&mut g);
            }
        }
    }

    /// The group leader's write: every queued decision into its slot's
    /// record, in **one** committed log transaction. A decision with
    /// more ops than its record holds moves the record to a new block
    /// and frees the old one in the same transaction.
    fn write_decisions(&self, ltid: usize, batch: &[Decision]) {
        let _psan = self
            .log
            .pmem()
            .pool()
            .psan_scope(ltid, "kvserve::coord::log_decision");
        tm::txn(&*self.log, ltid, |tx| {
            for d in batch {
                let nops = d.ops.len() as u64;
                let root = self.records.offset(d.slot);
                let mut r = Addr(tx.read(root)?);
                let cap = if r.is_null() {
                    0
                } else {
                    tx.read(r.offset(D_CAP))?
                };
                if r.is_null() || cap < nops {
                    if !r.is_null() {
                        tx.free(r, record_words(cap))?;
                    }
                    r = tx.alloc(record_words(nops))?;
                    tx.write(r.offset(D_CAP), nops)?;
                    tx.write(root, r.0)?;
                }
                tx.write(r.offset(D_TXID), d.txid)?;
                tx.write(r.offset(D_EPOCH), d.epoch)?;
                tx.write(r.offset(D_NOPS), nops)?;
                for (i, &op) in d.ops.iter().enumerate() {
                    let (tag, k, v) = encode_op(op);
                    let base = r.offset(D_OPS + i as u64 * OP_WORDS);
                    tx.write(base, tag)?;
                    tx.write(base.offset(1), k)?;
                    tx.write(base.offset(2), v)?;
                }
            }
            Ok(())
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
    // one group — still a correct, if degenerate, 2PC round). The
    // decision records the table's epoch for replay.
    let table = eng.router.table();
    let groups = partition_by_table(ops, &table);
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
            let (map, commit, log_hdr) = (sh.map, sh.commits.offset(slot as u64), sh.hdr);
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
                // The commit word commits or rolls back atomically with
                // the ops; recovery compares it with the slot's decision
                // record to make replay idempotent.
                tx.write(commit, txid)?;
                // When the shard's op log is armed (replicating, or a
                // live migration is streaming it), the follower mirrors
                // the word too — via the Prepare entry — so decision-log
                // replay stays idempotent across a promotion.
                let lsn =
                    repl::append_armed_in(tx, log_hdr, LogKind::Prepare, slot as u64, txid, &muts)?;
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
    co.log_decision(
        ltid,
        Decision {
            slot: slot as u64,
            txid,
            epoch: table.epoch(),
            ops: ops.to_vec(),
        },
    );
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
    m.commit.record(commit_start.elapsed());
    if eng.probe.fires(Point::Committed) {
        eng.poison();
        tm::crash::crash_unwind();
    }

    // Semi-synchronous ack: wait until every participant's Prepare entry
    // is durably in its follower's receive log. A miss answers `Timeout`
    // — the batch committed, but a committed-yet-unacked request is
    // legal.
    if let Some(r) = rt {
        for (gi, (s, _)) in groups.iter().enumerate() {
            if prep_lsns[gi] > 0 && !r.states[*s].wait_received(prep_lsns[gi], deadline_at) {
                return Err(ServeError::Timeout);
            }
        }
    }
    Ok(results)
}

/// Replay the decision records over recovered, quiescent shard pools.
/// Only records logged under `table`'s epoch are replayed: a migration
/// flip joins the 2PC drivers first, so every older record is fully
/// committed, and re-partitioned under the new table it could land on a
/// split's target, whose commit words are zero. A participant whose
/// commit word for the record's slot is below its txid gets the ops
/// re-applied, the word written and, when its op log is armed, the
/// matching Prepare entry appended — in one transaction, so the
/// follower re-converges too. Returns (and counts in the coordinator's
/// metrics) how many shard-transactions were re-applied.
pub(crate) fn replay(
    co: &Coordinator,
    pools: &[ShardPool],
    table: &RoutingTable,
    decisions: &[Decision],
) -> u64 {
    let mut replayed = 0u64;
    for d in decisions.iter().filter(|d| d.epoch == table.epoch()) {
        for (s, idxs) in partition_by_table(&d.ops, table) {
            let p = &pools[s];
            let word = p.commits.offset(d.slot);
            // A word at the txid means this shard committed its part
            // before the crash; re-applying would clobber later writes.
            if p.tm.read_raw(word) >= d.txid {
                continue;
            }
            let sops: Vec<MapOp> = idxs.iter().map(|&i| d.ops[i]).collect();
            tm::txn(&*p.tm, 0, |tx| {
                for &op in &sops {
                    p.map.apply_in(tx, op)?;
                }
                tx.write(word, d.txid)?;
                repl::append_armed_in(
                    tx,
                    p.hdr,
                    LogKind::Prepare,
                    d.slot,
                    d.txid,
                    &repl::mutations(&sops),
                )?;
                Ok(())
            })
            .expect("recovery replay never cancels");
            replayed += 1;
        }
    }
    co.metrics.replayed.add(replayed);
    replayed
}
