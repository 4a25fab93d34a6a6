//! Cross-shard atomicity: two-phase commit over the shards' NV-HALT
//! instances.
//!
//! A multi-op request whose keys route to several shards is queued to a
//! dedicated 2PC driver thread ([`drive`]). Driver `c` owns coordinator
//! slot `c` and runs one **round** at a time: it takes its requests the
//! way a shard worker takes a batch — the first one queued, then
//! whatever else is already waiting, up to `batch_max` in all — and runs
//! their ops, concatenated in queue order, as one **distributed
//! transaction**:
//!
//! 1. **Prepare** — per participating shard, run the round's ops for
//!    that shard plus a write of the slot's *commit word*
//!    (`commits[c] = txid`) as a prepared transaction
//!    ([`NvHalt::prepare`], through [`ShardPool::apply_in`]): the writes
//!    are durably staged below the shard's persistent version and every
//!    touched address stays locked, so the staged state is invisible to
//!    other transactions and a crash rolls it back.
//! 2. **Decide** — overwrite slot `c`'s *decision record* (txid, routing
//!    epoch, the round's full op list in the op log's op-list format) in
//!    the decision log, its own NV-HALT instance, as one committed
//!    transaction. *This commit is the commit point of every request in
//!    the round.* Aborts are presumed: nothing is ever written for them.
//! 3. **Commit fan-out** — `commit_prepared` on every participant makes
//!    the staged writes (and the commit word) durable and visible. Each
//!    request is acked right after with its own values; there is
//!    nothing to clean up.
//!
//! A round pays the persist cost of one request — three TM commits and
//! five fences for two shards — however many requests it carries.
//! Deadlines stay per request: at every prepare attempt, a request whose
//! deadline passed is answered `Timeout` and leaves the round.
//!
//! Recovery replays the records ([`replay`]): a participant whose commit
//! word for the record's slot is below the record's txid lost its
//! prepared state in the crash and gets the record's ops re-applied
//! (with the word) in one transaction; a participant whose word reached
//! the txid already committed and is skipped — that is what makes
//! replay idempotent and safe against *later* committed writes to the
//! same keys. A slot's record is only overwritten by the slot's next
//! decision, after every participant of the previous one committed and,
//! when replicating, its follower applied the Prepare entry (the driver
//! holds the next round until then, see [`drive`]), so no older decision
//! can still need replay, on the primaries or on promoted followers.
//! Txids never repeat (the
//! counter recovers past every record), so a commit word never sits
//! above a live record's txid. Only records of the recovered routing
//! epoch are replayed: a migration flip joins the drivers first, so
//! every older record is fully committed, and re-partitioned under the
//! new table it could land on a split's target, whose words are zero.
//!
//! Phase 1 can deadlock with a concurrent coordinator preparing the same
//! shards in a different order; every prepare is therefore fuel-bounded
//! and a cancelled attempt aborts all prepared participants, backs off
//! and retries, up to `max_retries`.

use crate::metrics::CoordinatorMetrics;
use crate::probe::Point;
use crate::repl::{self, LogKind};
use crate::shard::{self, shed_expired, ShardPool, ShardRequest};
use crate::{
    backoff, partition_by_table, Engine, RoutingTable, ServeError, ServiceConfig, ATTEMPT_FUEL,
    ROUTE_SLOTS,
};
use crossbeam::channel::Receiver;
use nvhalt::NvHalt;
use pmem::pool::DurableImage;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tm::{Abort, Addr, Tm};
use txstructs::MapOp;

/// Decision-record layout (word offsets within a record block):
/// `[cap, txid, epoch, nops, op list]`, the op list in the op log's
/// format ([`repl::write_ops_in`]). `cap` is the block's op capacity:
/// the slot's next decision overwrites the record in place, and only one
/// with more ops moves it to a bigger block. Every other word a decision
/// writes is contiguous, so its commit flushes the fewest log-entry
/// lines.
const D_CAP: u64 = 0;
const D_TXID: u64 = 1;
const D_EPOCH: u64 = 2;
const D_NOPS: u64 = 3;
const D_OPS: u64 = 4;

/// A record block's size in words.
fn record_words(cap: u64) -> usize {
    (D_OPS + repl::ops_words(cap)) as usize
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
    pub metrics: Arc<CoordinatorMetrics>,
}

/// One slot's commit decision: what a round writes into the slot's
/// record, and what recovery reads back out of it for [`replay`].
pub(crate) struct Decision {
    pub slot: u64,
    pub txid: u64,
    /// The routing epoch the round was partitioned under.
    pub epoch: u64,
    pub ops: Vec<MapOp>,
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
        Coordinator {
            log,
            records,
            route,
            next_txid: AtomicU64::new(next_txid),
            metrics: Arc::default(),
        }
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
    Decision {
        slot,
        txid: log.read_raw(r.offset(D_TXID)),
        epoch: log.read_raw(r.offset(D_EPOCH)),
        ops: repl::read_ops_raw(log, r.offset(D_OPS), log.read_raw(r.offset(D_NOPS))),
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

    /// Durably write `d` into its slot's record — the round's commit
    /// point — as one committed log transaction on the driver's own log
    /// thread id `ltid`. Each driver writes only its own slot's record,
    /// so it never overwrites log entries another thread stamped. A
    /// decision with more ops than its record holds moves the record to
    /// a new block and frees the old one in the same transaction.
    fn log_decision(&self, ltid: usize, d: &Decision) {
        let _psan = self
            .log
            .pmem()
            .pool()
            .psan_scope(ltid, "kvserve::coord::log_decision");
        let nops = d.ops.len() as u64;
        let root = self.records.offset(d.slot);
        tm::txn(&*self.log, ltid, |tx| {
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
            repl::write_ops_in(tx, r.offset(D_OPS), &d.ops)
        })
        .expect("decision-log transactions never cancel");
    }
}

/// 2PC driver loop: takes its rounds from the shard workers' drain loop
/// ([`shard::next_batch`]: block for one request, then take what is
/// already queued, up to `batch_max` in all) and runs each as one 2PC
/// round ([`round`]) under [`tm::crash::run_crashable`]. A simulated
/// power failure unwinds the driver; the round's dropped completion
/// handles deliver [`ServeError::Stopped`] to every member — never an
/// ack.
///
/// When replicating, the driver carries what its slot's record still
/// owes the followers, `(shard, Prepare LSN)` per participant of its last
/// committed round, and holds the next round until they applied it (a
/// lagging follower promoted without its share of an unacked round
/// whose record the next round overwrote would tear it). A starting
/// driver owes every shard the primary's appended LSN.
pub(crate) fn drive(
    eng: Arc<Engine>,
    rx: Receiver<ShardRequest>,
    stop: Arc<AtomicBool>,
    slot: usize,
) {
    let mut owed: Vec<(usize, u64)> = eng.repl.as_ref().map_or_else(Vec::new, |rt| {
        let appended = rt
            .states
            .iter()
            .map(|st| st.appended.load(Ordering::Acquire));
        appended.enumerate().collect()
    });
    while let Some(members) = shard::next_batch(&rx, &stop, eng.cfg.batch_max) {
        if tm::crash::run_crashable(|| round(&eng, members, slot, &mut owed)).is_none() {
            // The pools are poisoned. This driver is dead until the
            // service is recovered.
            return;
        }
    }
}

/// Ask the probe at `point`; on a `true`, poison every pool and unwind
/// as a power failure right there would.
fn crash_at(eng: &Engine, point: Point) {
    if eng.probe.fires(point) {
        eng.poison();
        tm::crash::crash_unwind();
    }
}

/// Run queued cross-shard requests (`members`, in queue order) as one
/// 2PC round on driver `slot`, which exclusively owns the matching
/// reserved TM thread ids. The members' ops are concatenated in queue
/// order: each participant prepares its share of them in one
/// transaction, one decision record holds them all, and each
/// participant commits once. At every prepare attempt, members whose
/// deadline passed are answered `Timeout` and leave the round; once the
/// decision is logged, every remaining member completes. Called inside
/// [`tm::crash::run_crashable`]: a simulated power failure unwinds out
/// of here, and every member still in the round observes
/// [`ServeError::Stopped`].
///
/// First, under the members' latest deadline, every follower in `owed`
/// must cover its LSN (see [`drive`]), or every member is answered
/// `Timeout` unexecuted; a committed round leaves its own Prepare LSNs
/// in `owed`.
fn round(eng: &Engine, mut members: Vec<ShardRequest>, slot: usize, owed: &mut Vec<(usize, u64)>) {
    let co = &eng.coord;
    let cfg = &eng.cfg;
    let m = &co.metrics;
    // Queue wait is charged against the deadline: execution never
    // starts for an expired member.
    shed_expired(&mut members, &m.abort_timeout);
    if members.is_empty() {
        return;
    }
    if let Some(rt) = eng.repl.as_deref() {
        let deadline = members.iter().map(|r| r.deadline).max();
        let deadline = deadline.expect("a round keeps at least one member");
        if !owed
            .iter()
            .all(|&(s, lsn)| rt.states[s].wait_received(lsn, deadline))
        {
            m.abort_timeout.add(members.len() as u64);
            for r in &members {
                r.reply.send(Err(ServeError::Timeout));
            }
            return;
        }
        owed.clear();
    }
    m.cross_batches.add(members.len() as u64);
    m.cross_ops
        .add(members.iter().map(|r| r.ops.len() as u64).sum());

    // Partition under the *current* routing table, remembering original
    // positions so the replies line up with the submitted order.
    // Epoch-agnostic by construction: a migration flip only runs after
    // joining the 2PC drivers, so the table cannot change under a round
    // mid-protocol, and a request re-routed across a flip is simply
    // re-partitioned here under the new table (a round may even
    // collapse to one group — still a correct, if degenerate, 2PC
    // round). The decision records the table's epoch for replay.
    let table = eng.router.table();
    let txid = co.next_txid.fetch_add(1, Ordering::Relaxed);
    crash_at(eng, Point::BeforePrepare);

    // Phase 1: prepare every participant. A cancelled prepare aborts
    // the whole attempt, which backs off and retries.
    let mut retry = 0u32;
    let (ops, groups, results, prep_lsns) = loop {
        let ops: Vec<MapOp> = members.iter().flat_map(|r| r.ops.iter().copied()).collect();
        let groups = partition_by_table(&ops, &table);
        let prep_start = Instant::now();
        if let Some((results, lsns)) = prepare(eng, &ops, &groups, txid, slot) {
            m.prepare.record(prep_start.elapsed());
            break (ops, groups, results, lsns);
        }
        m.cross_retries.inc();
        if retry >= cfg.max_retries {
            m.abort_conflict.add(members.len() as u64);
            for r in &members {
                r.reply.send(Err(ServeError::Aborted));
            }
            return;
        }
        std::thread::sleep(backoff(retry));
        retry += 1;
        shed_expired(&mut members, &m.abort_timeout);
        if members.is_empty() {
            return;
        }
    };
    crash_at(eng, Point::Prepared);

    // Commit point.
    let decision = Decision {
        slot: slot as u64,
        txid,
        epoch: table.epoch(),
        ops,
    };
    co.log_decision(slot, &decision);
    m.decision_groups.inc();
    m.decisions_logged.add(members.len() as u64);
    crash_at(eng, Point::DecisionLogged);

    // Phase 2: fan out the commit. Crashes from here on are repaired by
    // log replay at recovery.
    let ptid = cfg.workers_per_shard + slot;
    let rt = eng.repl.as_deref();
    let commit_start = Instant::now();
    for (gi, ((s, _), &lsn)) in groups.iter().zip(&prep_lsns).enumerate() {
        if gi > 0 {
            crash_at(eng, Point::MidCommit);
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
        if let Some(r) = rt.filter(|_| lsn > 0) {
            r.states[*s].appended.fetch_max(lsn, Ordering::AcqRel);
            r.states[*s].signal_work();
            owed.push((*s, lsn));
        }
    }
    m.commit.record(commit_start.elapsed());
    crash_at(eng, Point::Committed);

    // Semi-synchronous ack, as a shard worker's for its batch: wait
    // until every participant's Prepare entry is durably applied on its
    // follower, under the latest member deadline. A miss answers every
    // member `Timeout` — the round committed, but a committed-yet-unacked
    // request is legal.
    if let Some(r) = rt {
        let deadline = members.iter().map(|r| r.deadline).max();
        let deadline = deadline.expect("a round keeps at least one member");
        let received = groups
            .iter()
            .zip(&prep_lsns)
            .all(|((s, _), &lsn)| lsn == 0 || r.states[*s].wait_received(lsn, deadline));
        if !received {
            for r in &members {
                r.reply.send(Err(ServeError::Timeout));
            }
            return;
        }
    }
    let now = Instant::now();
    let mut vals = results.into_iter();
    for r in &members {
        m.latency.record(now.duration_since(r.enqueued));
        r.reply.send(Ok((&mut vals).take(r.ops.len()).collect()));
    }
}

/// Prepare every participant of a round attempt: per group, its ops,
/// the slot's commit word and one `Prepare` op-log entry as one prepared
/// transaction. Returns every op's value and each group's Prepare LSN
/// (0 when the shard's op log is not armed; valid only for the attempt
/// that ends up committing — an aborted one rolls its appends back), or
/// `None` once a prepare cancelled and the participants already
/// prepared were aborted.
fn prepare(
    eng: &Engine,
    ops: &[MapOp],
    groups: &[(usize, Vec<usize>)],
    txid: u64,
    slot: usize,
) -> Option<(Vec<Option<u64>>, Vec<u64>)> {
    let ptid = eng.cfg.workers_per_shard + slot;
    let mut results: Vec<Option<u64>> = vec![None; ops.len()];
    let mut lsns = Vec::with_capacity(groups.len());
    for (gi, (s, idxs)) in groups.iter().enumerate() {
        if gi > 0 {
            crash_at(eng, Point::BetweenPrepares);
        }
        let sh = &eng.pools[*s];
        let gops: Vec<MapOp> = idxs.iter().map(|&i| ops[i]).collect();
        let _psan = sh
            .tm
            .pmem()
            .pool()
            .psan_scope(ptid, "kvserve::coord::prepare");
        // The commit word commits or rolls back atomically with the ops,
        // and an armed log (replicating, or a live migration streaming
        // the shard) mirrors it to the follower via the Prepare entry, so
        // decision-log replay stays idempotent across a promotion.
        let res = sh.tm.prepare(ptid, |tx| {
            if tx.attempt() >= ATTEMPT_FUEL {
                return Err(Abort::Cancel);
            }
            sh.apply_in(tx, LogKind::Prepare, slot as u64, txid, &gops)
        });
        match res {
            Ok((vals, lsn)) => {
                for (&oi, v) in idxs.iter().zip(vals) {
                    results[oi] = v;
                }
                lsns.push(lsn);
            }
            Err(tm::Cancelled) => {
                for (s, _) in &groups[..gi] {
                    eng.pools[*s].tm.abort_prepared(ptid);
                }
                return None;
            }
        }
    }
    Some((results, lsns))
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
                p.apply_in(tx, LogKind::Prepare, d.slot, d.txid, &sops)
            })
            .expect("recovery replay never cancels");
            replayed += 1;
        }
    }
    co.metrics.replayed.add(replayed);
    replayed
}
