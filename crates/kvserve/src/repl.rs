//! Per-shard replication: a durable op log on every primary shard, a
//! shipping thread streaming it to a follower instance, and the failover
//! machinery that promotes the follower when the primary's pool is lost.
//!
//! ## The op log
//!
//! Each primary shard keeps a replication log *inside its own NV-HALT
//! heap*: a three-word header `[head, last_lsn, armed]` plus a
//! newest-first linked list of packed entries `[next, lsn, meta, op
//! list]`, where the op list is `tagword × ⌈nops/32⌉, (key, val) × nops`
//! — the one op-list format, which 2PC decision records use too. The header
//! exists on every shard; the durable `armed` word says whether
//! appenders actually log their mutations (always on a replicated
//! service; turned on transactionally by a live migration otherwise —
//! see `P_ARMED`).
//! Every committed mutation reaches the log **inside the transaction that
//! performs it**: `ShardPool::apply_in` is the one way a shard pool is
//! mutated (worker batches, 2PC prepare and replay, follower ingest,
//! migration), and it runs the ops, writes a `Prepare`'s commit word and
//! appends the entry in the caller's transaction, so the log
//! entry and the data it describes commit or roll back atomically — a
//! post-commit hook could tear (batch durable, entry lost) and was
//! deliberately rejected. Because the header's `last_lsn` word is written
//! by every appending transaction, the log head doubles as a per-shard
//! serialization point: LSN order equals commit order, and a prepared 2PC
//! transaction holds the head locked until its decision, so no later
//! batch can slip an earlier LSN past it.
//!
//! Entry kinds mirror everything the follower needs to stay a drop-in
//! replacement across a promotion:
//! - [`LogKind::Batch`] — a worker batch's mutations;
//! - [`LogKind::Prepare`] — a 2PC participant's mutations plus its commit
//!   word (`commits[slot] = txid`), so the follower's commit words mirror
//!   the primary's and the coordinator's decision-log replay stays
//!   idempotent over promoted shards.
//!
//! ## Shipping
//!
//! A follower is a *disarmed primary pool*: its header has the same
//! `[head, last_lsn, armed]` shape, with an empty log and `armed` 0, and
//! its `last_lsn` is its one durable watermark — the highest primary LSN
//! applied into its map and commit words. One shipper thread per shard
//! drives the follower's own NV-HALT instance. A ship round reads the
//! fresh primary entries with one small header transaction plus a walk
//! straight from the heap (`read_after`), and commits them on the
//! follower with [`Follower::ingest`]: up to `INGEST_BATCH` entries are
//! applied and the watermark advances under one commit — one flush pass,
//! one fence, amortized over the entries the round picked up. Neither
//! side runs one transaction over a long tail, which would capacity-abort
//! to the software path and cost time quadratic in the entries.
//!
//! Acks are **semi-synchronous**: a worker (or 2PC coordinator) only
//! acks once the follower's watermark durably covers its entry, so
//! every acked write survives losing *either* pool. The primary log is
//! trimmed behind the shipped watermark, amortized over
//! `PRIMARY_TRIM_BATCH` entries so retirement does not cost a commit
//! (flush pass + fence) per round. Promotion serves the follower pools
//! as they stand: their disarmed headers are already primary headers.
//!
//! ## Crash injection
//!
//! A probe that fires at a [`Point::REPL`] step poisons the primary
//! pools (worker steps — the failure failover exists for) or the
//! follower pool (shipper steps); one that fires at a
//! [`Point::FAILOVER`] step crashes a promotion between its phases. The
//! top-level `kvserve_replication` suite sweeps all of them.

use crate::probe::{Point, ProbeCell};
use crate::shard::ShardPool;
use crate::ServiceConfig;
use nvhalt::NvHalt;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tm::{Abort, Addr, Tm, Txn};
use txstructs::MapOp;

/// Log header layout, the same on every shard pool: `[head, last_lsn,
/// armed]`. A follower's `last_lsn` is its applied watermark.
pub(crate) const P_HEAD: u64 = 0;
pub(crate) const P_LAST: u64 = 1;
/// Durable arming word: appenders log their mutations only while it is
/// non-zero. Always 1 on a replicated service; on a non-replicated one
/// it is 0 until a live migration transactionally arms the log to
/// stream the shard, and recovery disarms it again. Appenders read the
/// word *inside* their mutating transaction, so arming serializes
/// against every batch — no batch can commit unlogged after the arming
/// transaction commits.
pub(crate) const P_ARMED: u64 = 2;
/// Words in a shard pool's log header block.
pub(crate) const HDR_WORDS: usize = 3;

/// Log entry layout (word offsets within an entry block):
/// `[next, lsn, meta, op list]`.
///
/// `meta` packs the entry kind (2 bits), the op count (14 bits), the 2PC
/// coordinator slot (8 bits) and transaction id (40 bits) into one word;
/// the op list is the one op-list format ([`write_ops_in`]) — 3 +
/// ⌈n/32⌉ + 2n words per entry against the naive 5 + 3n. Every persisted
/// word is a flushed cache line eventually, so the diet feeds directly
/// into flushes/op.
const L_NEXT: u64 = 0;
const L_LSN: u64 = 1;
const L_META: u64 = 2;
const L_OPS: u64 = 3;
/// Words per op payload (key, value).
const OP_WORDS: u64 = 2;
/// Op tags per packed tag word (2 bits each).
const TAGS_PER_WORD: u64 = 32;

const META_KIND_BITS: u64 = 2;
const META_NOPS_BITS: u64 = 14;
const META_SLOT_BITS: u64 = 8;
const META_SLOT_SHIFT: u64 = META_KIND_BITS + META_NOPS_BITS;
const META_TXID_SHIFT: u64 = META_SLOT_SHIFT + META_SLOT_BITS;
/// Ops an entry can carry (14-bit count field).
const META_NOPS_MAX: u64 = (1 << META_NOPS_BITS) - 1;
/// Coordinator slots an entry can name (8-bit field).
pub(crate) const META_SLOTS: usize = 1 << META_SLOT_BITS;
/// Largest representable 2PC transaction id (40-bit field).
const META_TXID_MAX: u64 = (1 << (64 - META_TXID_SHIFT)) - 1;

fn pack_meta(kind: LogKind, slot: u64, txid: u64, nops: u64) -> u64 {
    debug_assert!(nops <= META_NOPS_MAX, "log entry op count overflow");
    debug_assert!(slot < META_SLOTS as u64, "log slot overflows meta field");
    debug_assert!(txid <= META_TXID_MAX, "log txid overflows meta field");
    kind.encode() | (nops << META_KIND_BITS) | (slot << META_SLOT_SHIFT) | (txid << META_TXID_SHIFT)
}

fn meta_kind(meta: u64) -> LogKind {
    LogKind::decode(meta & ((1 << META_KIND_BITS) - 1))
}

fn meta_nops(meta: u64) -> u64 {
    (meta >> META_KIND_BITS) & META_NOPS_MAX
}

fn meta_slot(meta: u64) -> u64 {
    (meta >> META_SLOT_SHIFT) & (META_SLOTS as u64 - 1)
}

fn meta_txid(meta: u64) -> u64 {
    meta >> META_TXID_SHIFT
}

/// Packed tag words needed for `nops` ops.
fn tag_words(nops: u64) -> u64 {
    nops.div_ceil(TAGS_PER_WORD)
}

/// Words an op list of `nops` ops takes: ⌈nops/32⌉ tag words, then a
/// `(key, val)` pair per op.
pub(crate) fn ops_words(nops: u64) -> u64 {
    tag_words(nops) + nops * OP_WORDS
}

/// An entry block's total size in words.
fn entry_words(nops: u64) -> u64 {
    L_OPS + ops_words(nops)
}

/// Write `ops` at `at` inside the caller's transaction in the one
/// op-list format of op-log entries and 2PC decision records: ⌈n/32⌉
/// tag words (2 bits per op: `Get` 0, `Insert` 1, `Remove` 2), then
/// `(key, val)` per op. The caller stores the count.
pub(crate) fn write_ops_in<Tx: Txn + ?Sized>(
    tx: &mut Tx,
    at: Addr,
    ops: &[MapOp],
) -> Result<(), Abort> {
    for (w, chunk) in ops.chunks(TAGS_PER_WORD as usize).enumerate() {
        let mut word = 0u64;
        for (j, &op) in chunk.iter().enumerate() {
            let tag = match op {
                MapOp::Get(_) => 0,
                MapOp::Insert(..) => 1,
                MapOp::Remove(_) => 2,
            };
            word |= tag << (2 * j as u64);
        }
        tx.write(at.offset(w as u64), word)?;
    }
    let pairs = at.offset(tag_words(ops.len() as u64));
    for (i, &op) in ops.iter().enumerate() {
        let (k, v) = match op {
            MapOp::Insert(k, v) => (k, v),
            MapOp::Get(k) | MapOp::Remove(k) => (k, 0),
        };
        let pair = pairs.offset(i as u64 * OP_WORDS);
        tx.write(pair, k)?;
        tx.write(pair.offset(1), v)?;
    }
    Ok(())
}

/// Decode the `nops`-op list at `at` (see [`write_ops_in`]) straight
/// from the heap. The list must be committed and must stay unfreed
/// while it is read.
pub(crate) fn read_ops_raw(tm: &NvHalt, at: Addr, nops: u64) -> Vec<MapOp> {
    let pairs = at.offset(tag_words(nops));
    (0..nops)
        .map(|i| {
            let tags = tm.read_raw(at.offset(i / TAGS_PER_WORD));
            let pair = pairs.offset(i * OP_WORDS);
            let k = tm.read_raw(pair);
            match (tags >> (2 * (i % TAGS_PER_WORD))) & 0b11 {
                0 => MapOp::Get(k),
                1 => MapOp::Insert(k, tm.read_raw(pair.offset(1))),
                2 => MapOp::Remove(k),
                tag => unreachable!("corrupt op-list tag {tag}"),
            }
        })
        .collect()
}

/// What a log entry carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LogKind {
    /// A worker batch's mutations.
    Batch,
    /// A 2PC participant's mutations plus its `commits[slot] = txid`
    /// commit word.
    Prepare,
}

impl LogKind {
    fn encode(self) -> u64 {
        match self {
            LogKind::Batch => 0,
            LogKind::Prepare => 1,
        }
    }

    fn decode(w: u64) -> LogKind {
        match w {
            0 => LogKind::Batch,
            1 => LogKind::Prepare,
            _ => unreachable!("corrupt replication-log kind {w}"),
        }
    }
}

/// One decoded replication-log entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogEntry {
    /// Per-shard log sequence number; strictly increasing from 1.
    pub lsn: u64,
    /// What the entry carries.
    pub kind: LogKind,
    /// The 2PC coordinator slot for `Prepare`; 0 for batches.
    pub slot: u64,
    /// The 2PC transaction id for `Prepare`; 0 for batches.
    pub txid: u64,
    /// The mutations (never `Get`s — reads are not replicated).
    pub ops: Vec<MapOp>,
}

impl LogEntry {
    /// The entry's block size in words.
    pub fn words(&self) -> usize {
        entry_words(self.ops.len() as u64) as usize
    }
}

/// Append a log entry inside the caller's transaction: allocate the
/// block, write the entry, link it at the head, and advance `last_lsn`.
/// Returns the LSN. Because this runs inside the data transaction, the
/// entry commits (or rolls back) atomically with the mutations it
/// describes ([`ShardPool::apply_in`] is its one caller in the service).
/// `slot` and `txid` name a `Prepare`'s 2PC transaction; batches pass
/// zeros. The block is fully overwritten, so recycled blocks need no
/// zeroing.
pub(crate) fn append_in<Tx: Txn + ?Sized>(
    tx: &mut Tx,
    hdr: Addr,
    kind: LogKind,
    slot: u64,
    txid: u64,
    ops: &[MapOp],
) -> Result<u64, Abort> {
    let lsn = tx.read(hdr.offset(P_LAST))? + 1;
    let nops = ops.len() as u64;
    let e = tx.alloc(entry_words(nops) as usize)?;
    tx.write(e.offset(L_LSN), lsn)?;
    tx.write(e.offset(L_META), pack_meta(kind, slot, txid, nops))?;
    write_ops_in(tx, e.offset(L_OPS), ops)?;
    let prev = tx.read(hdr.offset(P_HEAD))?;
    tx.write(e.offset(L_NEXT), prev)?;
    tx.write(hdr.offset(P_HEAD), e.0)?;
    tx.write(hdr.offset(P_LAST), lsn)?;
    Ok(lsn)
}

/// Durably set the log's armed word in its own transaction.
pub(crate) fn set_armed(tm: &NvHalt, tid: usize, hdr: Addr, on: bool) {
    tm::txn(tm, tid, |tx| tx.write(hdr.offset(P_ARMED), u64::from(on)))
        .expect("arming transactions never cancel");
}

/// The log's durable armed word. Quiescent only.
pub(crate) fn armed_raw(tm: &NvHalt, hdr: Addr) -> bool {
    tm.read_raw(hdr.offset(P_ARMED)) != 0
}

/// Decode the committed entry at `a` straight from the heap.
fn read_entry_raw(tm: &NvHalt, a: Addr) -> LogEntry {
    let meta = tm.read_raw(a.offset(L_META));
    LogEntry {
        lsn: tm.read_raw(a.offset(L_LSN)),
        kind: meta_kind(meta),
        slot: meta_slot(meta),
        txid: meta_txid(meta),
        ops: read_ops_raw(tm, a.offset(L_OPS), meta_nops(meta)),
    }
}

/// Attempts a shipper-side read gets before giving the round up (the
/// primary's workers keep the log head hot; the next round retries).
const READ_FUEL: usize = 8;

/// Every entry with `lsn > after` of the log whose header is at `hdr`,
/// in ascending LSN order: one small transaction reads `(head,
/// last_lsn)`, then the `last_lsn - after` entries are walked straight
/// from the heap (one transaction over the walk would capacity-abort to
/// the software path and cost O(N²)). Safe because appenders change only
/// the header, and the shipper, the only live trimmer, trims only at or
/// below its cursor or a migration's (`ShipState::hold`), the `after` of
/// the only other live reader; the walk never reads the entry at
/// `after` or the `next` word above it. `None` if the header read lost
/// its fuel to concurrent appends.
pub(crate) fn read_after(tm: &NvHalt, tid: usize, hdr: Addr, after: u64) -> Option<Vec<LogEntry>> {
    let (head, last) = tm::txn(tm, tid, |tx| {
        if tx.attempt() >= READ_FUEL {
            return Err(Abort::Cancel);
        }
        Ok((tx.read(hdr.offset(P_HEAD))?, tx.read(hdr.offset(P_LAST))?))
    })
    .ok()?;
    let n = last.saturating_sub(after) as usize;
    let mut out = Vec::with_capacity(n);
    let mut a = Addr(head);
    for i in 0..n {
        out.push(read_entry_raw(tm, a));
        if i + 1 < n {
            a = Addr(tm.read_raw(a.offset(L_NEXT)));
        }
    }
    out.reverse();
    debug_assert!(out.iter().zip(after + 1..).all(|(e, lsn)| e.lsn == lsn));
    Some(out)
}

/// Unlink and free every entry with `lsn <= upto` (the strictly
/// descending suffix of the newest-first list rooted at `head`). The
/// log is trimmed behind the follower's durable watermark (or a
/// migration's replay cursor), so a trimmed entry is never needed
/// again. Best-effort under contention.
pub(crate) fn trim_through(tm: &NvHalt, tid: usize, head: Addr, upto: u64) {
    let _ = tm::txn(tm, tid, |tx| {
        if tx.attempt() >= READ_FUEL {
            return Err(Abort::Cancel);
        }
        let mut prev: Option<Addr> = None;
        let mut a = Addr(tx.read(head)?);
        while !a.is_null() {
            if tx.read(a.offset(L_LSN))? <= upto {
                break;
            }
            prev = Some(a);
            a = Addr(tx.read(a.offset(L_NEXT))?);
        }
        if a.is_null() {
            return Ok(());
        }
        match prev {
            Some(p) => tx.write(p.offset(L_NEXT), 0)?,
            None => tx.write(head, 0)?,
        }
        while !a.is_null() {
            let next = Addr(tx.read(a.offset(L_NEXT))?);
            let nops = meta_nops(tx.read(a.offset(L_META))?);
            tx.free(a, entry_words(nops) as usize)?;
            a = next;
        }
        Ok(())
    });
}

/// Raw walk of the list rooted at `head` (the header's [`P_HEAD`]
/// word): `(addr, words)` per entry, for allocator rebuilds. Only valid
/// on a quiescent TM.
pub(crate) fn walk_blocks_raw(tm: &NvHalt, head: Addr) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    let mut a = Addr(tm.read_raw(head));
    while !a.is_null() {
        let nops = meta_nops(tm.read_raw(a.offset(L_META)));
        out.push((a.0, entry_words(nops) as usize));
        a = Addr(tm.read_raw(a.offset(L_NEXT)));
    }
    out
}

/// The header's durable `last_lsn`: the last LSN appended to a primary's
/// log, a follower's applied watermark. Quiescent only.
pub(crate) fn last_lsn_raw(tm: &NvHalt, hdr: Addr) -> u64 {
    tm.read_raw(hdr.offset(P_LAST))
}

// ---------------------------------------------------------------------
// Follower
// ---------------------------------------------------------------------

/// A shard's follower: a disarmed primary pool whose map and commit
/// words mirror the primary's and whose header's `last_lsn` is the
/// durable applied watermark. Only the shard's shipper thread (or
/// promotion or a migration, with the shipper gone) touches it, always
/// as TM thread 0.
pub struct Follower {
    pub(crate) pool: ShardPool,
}

/// TM thread id of all follower-side transactions.
const FOLLOWER_TID: usize = 0;

/// Most entries one [`Follower::ingest`] transaction applies.
const INGEST_BATCH: usize = 32;

impl Follower {
    /// Fresh follower for `cfg`'s shards: an empty map, zero commit
    /// words and a zero (disarmed, empty) header.
    pub(crate) fn create(cfg: &ServiceConfig) -> Follower {
        Follower {
            pool: ShardPool::create(cfg),
        }
    }

    /// Standalone fresh follower for tests: `heap_words` of heap, small
    /// maps. The proptest suite drives [`Follower::ingest`] against this
    /// directly, with no service around it.
    pub fn fresh(heap_words: usize) -> Follower {
        let mut cfg = ServiceConfig::new(1);
        cfg.heap_words_per_shard = heap_words;
        cfg.buckets_per_shard = 64;
        Follower::create(&cfg)
    }

    /// The durable applied watermark. Quiescent only.
    pub fn applied_lsn(&self) -> u64 {
        last_lsn_raw(&self.pool.tm, self.pool.hdr)
    }

    /// The follower's commit: apply the entries (ascending by LSN) above
    /// the watermark through the same `ShardPool::apply_in` the primary
    /// used — its disarmed log re-logs nothing, and each `Prepare`
    /// mirrors its commit word — and advance the watermark with them, in
    /// transactions of at most `INGEST_BATCH` (32) entries, so a ship round
    /// costs one flush pass and one fence per batch. Entries at or below
    /// the watermark are skipped, which makes a re-send after a follower
    /// recovery a no-op. Followed by a psan durability point: the applied
    /// state must be fully fenced before the watermark releases any ack.
    /// Returns the durable watermark.
    pub fn ingest(&self, entries: &[LogEntry]) -> u64 {
        debug_assert!(entries.windows(2).all(|w| w[0].lsn < w[1].lsn));
        let pool = &self.pool;
        let watermark = loop {
            let (watermark, done) = tm::txn(&*pool.tm, FOLLOWER_TID, |tx| {
                let watermark = tx.read(pool.hdr.offset(P_LAST))?;
                let start = entries.partition_point(|e| e.lsn <= watermark);
                let fresh = &entries[start..entries.len().min(start + INGEST_BATCH)];
                let Some(last) = fresh.last() else {
                    return Ok((watermark, true));
                };
                for e in fresh {
                    pool.apply_in(tx, e.kind, e.slot, e.txid, &e.ops)?;
                }
                tx.write(pool.hdr.offset(P_LAST), last.lsn)?;
                Ok((last.lsn, start + fresh.len() == entries.len()))
            })
            .expect("follower transactions never cancel");
            if done {
                break watermark;
            }
        };
        if let Some(p) = pool.tm.pmem().pool().psan() {
            p.durability_point(FOLLOWER_TID, "kvserve::repl::applied_lsn");
        }
        watermark
    }

    /// The mirrored data map's contents, sorted by key. Quiescent only.
    pub fn contents(&self) -> Vec<(u64, u64)> {
        let mut v = self.pool.map.collect_raw(&*self.pool.tm);
        v.sort_unstable();
        v
    }

    /// The mirrored 2PC commit words, one per coordinator slot.
    /// Quiescent only.
    pub fn commit_words(&self) -> Vec<u64> {
        (0..self.pool.slots as u64)
            .map(|s| self.pool.tm.read_raw(self.pool.commits.offset(s)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Ship state and runtime
// ---------------------------------------------------------------------

/// Per-shard shipping state: watermark mirrors for waiters and metrics,
/// plus the condvar gluing workers and the shipper together. The
/// atomics mirror durable words and only ever lag them.
pub(crate) struct ShipState {
    /// Highest LSN durably appended on the primary (worker-maintained).
    pub appended: AtomicU64,
    /// Highest LSN durably applied on the follower (its watermark).
    pub received: AtomicU64,
    /// The follower pool is crashed; ack waiters fail fast instead of
    /// burning their deadlines.
    pub down: AtomicBool,
    /// Trim floor: the shipper only trims primary entries with
    /// `lsn <= min(received, hold)`. `u64::MAX` normally; a live
    /// migration lowers it to its replay cursor so the tail it still
    /// needs cannot be trimmed out from under it, and restores it at
    /// the flip.
    pub hold: AtomicU64,
    /// Unshipped work exists (set by appenders, cleared by the shipper).
    dirty: AtomicBool,
    /// A shipping round is mid-flight. Raised before the round's first
    /// transaction and lowered only after its trailing work (amortized
    /// trim, crash checkpoints), so quiescence pollers — `lag() == 0`
    /// via the metrics snapshot — never observe a round whose
    /// watermark stores have landed but whose tail has not run.
    pub settling: AtomicBool,
    /// Highest primary-log LSN already retired by the amortized trim.
    trimmed: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Retire shipped primary-log entries only once this many have
/// accumulated past the last trim: trimming is pure garbage collection
/// (the follower has durably applied everything at or below the
/// watermark), so paying its commit — a flush pass and a fence — every
/// round would be persist traffic for nothing. The lag bounds the
/// garbage, not the correctness.
const PRIMARY_TRIM_BATCH: u64 = 8;

/// Idle poll interval of the per-shard shipping threads (appends also
/// wake them eagerly).
const SHIP_INTERVAL: Duration = Duration::from_millis(1);

impl ShipState {
    fn new() -> ShipState {
        let state = ShipState {
            appended: AtomicU64::new(0),
            received: AtomicU64::new(0),
            down: AtomicBool::new(false),
            hold: AtomicU64::new(u64::MAX),
            dirty: AtomicBool::new(false),
            settling: AtomicBool::new(false),
            trimmed: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        };
        state.lock.locksan_label("repl::ship_state", false);
        state
    }

    /// Wake every waiter (ack waiters and the shipper).
    pub fn notify_all(&self) {
        drop(self.lock.lock());
        self.cv.notify_all();
    }

    /// Tell the shipper there is new work.
    pub fn signal_work(&self) {
        self.dirty.store(true, Ordering::Release);
        self.notify_all();
    }

    /// Block until the follower durably applied `lsn`, the deadline
    /// passes, or the follower goes down. The ack decision.
    pub fn wait_received(&self, lsn: u64, deadline: Instant) -> bool {
        loop {
            if self.received.load(Ordering::Acquire) >= lsn {
                return true;
            }
            if self.down.load(Ordering::Acquire) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let mut guard = self.lock.lock();
            if self.received.load(Ordering::Acquire) >= lsn {
                return true;
            }
            if self.down.load(Ordering::Acquire) {
                return false;
            }
            let wait = (deadline - now).min(Duration::from_millis(5));
            let _ = self.cv.wait_for(&mut guard, wait);
        }
    }

    /// Shipper-side wait: until new work, a stop, or `interval`.
    fn wait_work(&self, interval: Duration, stop: &AtomicBool) {
        let mut guard = self.lock.lock();
        if self.dirty.swap(false, Ordering::AcqRel) || stop.load(Ordering::Acquire) {
            return;
        }
        let _ = self.cv.wait_for(&mut guard, interval);
        self.dirty.store(false, Ordering::Release);
    }
}

/// Everything the replication layer shares between workers, the 2PC
/// coordinator, the shipper threads, and the service's crash plumbing.
pub(crate) struct ReplRuntime {
    pub primaries: Vec<ShardPool>,
    /// The 2PC decision log's TM, poisoned together with the primaries.
    pub decision_log: Arc<NvHalt>,
    pub followers: Vec<Mutex<Option<Follower>>>,
    pub states: Vec<Arc<ShipState>>,
    /// The deployment's probe cell, asked at the worker and shipper
    /// steps.
    pub probe: Arc<ProbeCell>,
    pub stop: AtomicBool,
    /// Shipper group-commit window (see `ServiceConfig::ship_coalesce`).
    pub ship_coalesce: Duration,
    /// The reserved shipper TM thread slot on every primary shard.
    pub ship_tid: usize,
}

impl ReplRuntime {
    /// Assemble over existing (fresh or recovered) followers, seeding
    /// each shard's ship state from the durable watermarks. Both sides
    /// must be quiescent.
    pub fn new(
        cfg: &ServiceConfig,
        primaries: Vec<ShardPool>,
        decision_log: Arc<NvHalt>,
        followers: Vec<Follower>,
        probe: Arc<ProbeCell>,
    ) -> ReplRuntime {
        let states = primaries
            .iter()
            .zip(&followers)
            .map(|(p, f)| {
                let st = ShipState::new();
                st.appended
                    .store(last_lsn_raw(&p.tm, p.hdr), Ordering::Relaxed);
                st.received.store(f.applied_lsn(), Ordering::Relaxed);
                Arc::new(st)
            })
            .collect();
        let rt = ReplRuntime {
            primaries,
            decision_log,
            followers: followers.into_iter().map(|f| Mutex::new(Some(f))).collect(),
            states,
            probe,
            stop: AtomicBool::new(false),
            ship_coalesce: cfg.ship_coalesce,
            ship_tid: cfg.workers_per_shard + cfg.coordinators,
        };
        for f in &rt.followers {
            // The shipper commits follower transactions (persists) while
            // the cell is held — that *is* the cell's job; exempt it
            // from the lock-across-persist rule.
            f.locksan_label("repl::follower_cell", true);
        }
        rt
    }

    /// The primary-side power failure: poison every shard pool and the
    /// decision log, leave the followers alive (that is what failover is
    /// for), and release ack waiters.
    pub fn poison_primary(&self) {
        for p in &self.primaries {
            p.tm.crash();
        }
        self.decision_log.crash();
        for st in &self.states {
            st.down.store(true, Ordering::Release);
            st.notify_all();
        }
    }

    /// Poison shard `s`'s follower pool (the follower-side power
    /// failure).
    pub fn poison_follower(&self, s: usize) {
        if let Some(f) = &*self.followers[s].lock() {
            f.pool.tm.crash();
        }
    }
}

/// Spawn one shipper thread per shard.
pub(crate) fn spawn_shippers(rt: &Arc<ReplRuntime>) -> Vec<JoinHandle<()>> {
    (0..rt.primaries.len())
        .map(|s| {
            let rt = rt.clone();
            std::thread::Builder::new()
                .name(format!("kvserve-ship-{s}"))
                .spawn(move || shipper(&rt, s))
                .expect("spawn shipper thread")
        })
        .collect()
}

fn shipper(rt: &ReplRuntime, s: usize) {
    let state = &rt.states[s];
    loop {
        if rt.stop.load(Ordering::Acquire) {
            return;
        }
        state.settling.store(true, Ordering::Release);
        let round = tm::crash::run_crashable(|| ship_round(rt, s));
        state.settling.store(false, Ordering::Release);
        // A pool died mid-round. A dead primary means the whole service
        // is crashing or failing over — exit so the teardown can join
        // us. A dead follower is marked down by the next round, which
        // holds the follower cell: marking it here, outside the cell,
        // could undo a `recover_follower` that ran since the crash.
        if round.is_none() && rt.primaries[s].tm.pmem().pool().is_crashed() {
            return;
        }
        state.wait_work(SHIP_INTERVAL, &rt.stop);
        // Group commit across worker batches: linger so every entry
        // appended in the window rides the next round's single
        // follower commit instead of costing its own flush pass and
        // fence.
        if !rt.ship_coalesce.is_zero() && !rt.stop.load(Ordering::Acquire) {
            std::thread::sleep(rt.ship_coalesce);
        }
    }
}

/// One shipping round for shard `s`: the round's fresh primary entries
/// commit on the follower ([`Follower::ingest`]),
/// the new watermark releases the ack waiters, and the primary log is
/// retired behind it only every [`PRIMARY_TRIM_BATCH`] entries.
fn ship_round(rt: &ReplRuntime, s: usize) {
    let state = &rt.states[s];
    let cell = rt.followers[s].lock();
    let Some(f) = &*cell else { return };
    if f.pool.tm.pmem().pool().is_crashed() {
        state.down.store(true, Ordering::Release);
        state.notify_all();
        return;
    }
    let p = &rt.primaries[s];
    let received = state.received.load(Ordering::Acquire);
    // `None` lost the read race against appenders (e.g. a prepared 2PC
    // transaction holds the log head); the next round — at latest one
    // ship interval away — retries.
    let Some(fresh) = read_after(&p.tm, rt.ship_tid, p.hdr, received) else {
        return;
    };
    if fresh.is_empty() {
        return;
    }
    crash_follower_at(rt, f, Point::BeforeReceive);
    // The round's group commit; acks unblock at its granularity.
    let received = f.ingest(&fresh);
    state.received.fetch_max(received, Ordering::AcqRel);
    state.notify_all();
    crash_follower_at(rt, f, Point::Received);
    let upto = received.min(state.hold.load(Ordering::Acquire));
    if upto.saturating_sub(state.trimmed.load(Ordering::Acquire)) >= PRIMARY_TRIM_BATCH {
        trim_through(&p.tm, rt.ship_tid, p.hdr.offset(P_HEAD), upto);
        state.trimmed.store(upto, Ordering::Release);
    }
    crash_follower_at(rt, f, Point::Applied);
}

/// A shipper step: if the probe fires at `point`, crash the follower
/// pool and unwind the round.
fn crash_follower_at(rt: &ReplRuntime, f: &Follower, point: Point) {
    if rt.probe.fires(point) {
        f.pool.tm.crash();
        tm::crash::crash_unwind();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvhalt::NvHaltConfig;

    fn entry(lsn: u64, kind: LogKind, slot: u64, txid: u64, ops: Vec<MapOp>) -> LogEntry {
        LogEntry {
            lsn,
            kind,
            slot,
            txid,
            ops,
        }
    }

    #[test]
    fn ingest_is_idempotent_across_the_watermark() {
        let log = vec![
            entry(1, LogKind::Batch, 0, 0, vec![MapOp::Insert(1, 10)]),
            entry(2, LogKind::Prepare, 1, 7, vec![MapOp::Insert(2, 20)]),
            entry(3, LogKind::Batch, 0, 0, vec![MapOp::Remove(1)]),
            entry(4, LogKind::Prepare, 1, 9, vec![]),
        ];
        let whole = Follower::fresh(1 << 12);
        assert_eq!(whole.ingest(&log), 4);
        let split = Follower::fresh(1 << 12);
        assert_eq!(split.ingest(&log[..2]), 2);
        // Overlapping re-send: the prefix must be skipped.
        assert_eq!(split.ingest(&log), 4);
        assert_eq!(split.ingest(&log[..3]), 4);
        assert_eq!(whole.contents(), split.contents());
        assert_eq!(whole.commit_words(), split.commit_words());
        assert_eq!(whole.applied_lsn(), 4);
        assert_eq!(split.applied_lsn(), 4);
        assert_eq!(whole.contents(), vec![(2, 20)]);
        assert_eq!(whole.commit_words(), vec![0, 9]);
    }

    #[test]
    fn append_read_trim_roundtrip() {
        let tm = NvHalt::new(NvHaltConfig::test(1 << 12, 1));
        let hdr = tm.alloc_raw(0, HDR_WORDS);
        for i in 1..=5u64 {
            let lsn = tm::txn(&tm, 0, |tx| {
                append_in(tx, hdr, LogKind::Batch, 0, 0, &[MapOp::Insert(i, i * 10)])
            })
            .unwrap();
            assert_eq!(lsn, i);
        }
        let all = read_after(&tm, 0, hdr, 0).unwrap();
        assert_eq!(all.len(), 5);
        assert!(all.windows(2).all(|w| w[0].lsn + 1 == w[1].lsn));
        let late = read_after(&tm, 0, hdr, 3).unwrap();
        assert_eq!(late.len(), 2);
        trim_through(&tm, 0, hdr.offset(P_HEAD), 3);
        // Readers read only above the trim floor.
        let rest = read_after(&tm, 0, hdr, 3).unwrap();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].lsn, 4);
        assert_eq!(rest, late);
        assert_eq!(last_lsn_raw(&tm, hdr), 5);
    }
}
