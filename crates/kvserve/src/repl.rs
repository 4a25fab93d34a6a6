//! Per-shard replication: a durable op log on every primary shard, a
//! shipping thread streaming it to a follower instance, and the failover
//! machinery that promotes the follower when the primary's pool is lost.
//!
//! ## The op log
//!
//! Each primary shard keeps a replication log *inside its own NV-HALT
//! heap*: a three-word header `[head, last_lsn, armed]` plus a
//! newest-first linked list of packed entries
//! `[next, lsn, meta, tagword × ⌈nops/32⌉, (key, val) × nops]`. The header
//! exists on every shard; the durable `armed` word says whether
//! appenders actually log their mutations (always on a replicated
//! service; turned on transactionally by a live migration otherwise —
//! see `P_ARMED`).
//! Every committed mutation reaches the log **inside the transaction that
//! performs it** (`append_in` is called from the worker's batch
//! transaction and from the 2PC prepare/resolve transactions), so the log
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
//! - [`LogKind::Prepare`] — a 2PC participant's mutations plus its marker
//!   (`meta[txid] = 1`), so the follower's marker map mirrors the
//!   primary's and the coordinator's decision-log replay stays idempotent
//!   over promoted shards;
//! - [`LogKind::Resolve`] — drops the marker again.
//!
//! ## Shipping
//!
//! One shipper thread per shard drives the follower's own NV-HALT
//! instance. In steady state a whole ship round is **one follower
//! transaction**: every new primary entry is applied straight into the
//! follower's data map and both `received_lsn` and `applied_lsn`
//! advance together under that single commit — one flush pass, one
//! fence, amortized over however many entries the round picked up, and
//! nothing staged in the receive log that would need trimming later.
//! Receiving and applying atomically is strictly stronger than the
//! ack contract needs (an acked write must be durably *received*), so
//! every crash point of the old receive-then-apply protocol remains
//! covered. The two-stage path (`Follower::receive_batch` then
//! `Follower::apply_entry`) survives for recovery catch-up: a
//! repaired follower may hold a received-but-unapplied tail, which the
//! next round drains — batched, in one transaction — before fusing.
//!
//! Acks are **semi-synchronous**: a worker (or 2PC coordinator) only
//! acks once the follower's `received_lsn` durably covers its entry, so
//! every acked write survives losing *either* pool. The primary log is
//! trimmed behind the shipped watermark, amortized over
//! `PRIMARY_TRIM_BATCH` entries so retirement does not cost a commit
//! (flush pass + fence) per round.
//!
//! ## Crash injection
//!
//! A probe that fires at a [`Point::REPL`] step poisons the primary
//! pools (worker steps — the failure failover exists for) or the
//! follower pool (shipper steps); one that fires at a
//! [`Point::FAILOVER`] step crashes a promotion between its phases. The
//! top-level `kvserve_replication` suite sweeps all of them.

use crate::probe::{Point, ProbeCell};
use crate::shard::{PoolImage, ShardPool};
use crate::ServiceConfig;
use nvhalt::NvHalt;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tm::{Abort, Addr, Tm, Txn};
use txstructs::{HashMapTx, MapOp};

/// Primary log header layout: `[head, last_lsn, armed]`.
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
/// Words in a primary shard's log header block.
pub(crate) const PRIMARY_HDR_WORDS: usize = 3;

/// Follower header layout: `[recv_head, received_lsn, applied_lsn, role]`.
const F_HEAD: u64 = 0;
const F_RECEIVED: u64 = 1;
const F_APPLIED: u64 = 2;
const F_ROLE: u64 = 3;
/// Words in a follower's header block.
pub(crate) const FOLLOWER_HDR_WORDS: usize = 4;

/// Role word once a promotion has durably committed (a fresh follower's
/// header is raw-allocated, so its role word reads 0).
const ROLE_PRIMARY: u64 = 1;

/// Log entry layout (word offsets within an entry block):
/// `[next, lsn, meta, tagword × ⌈nops/32⌉, (key, val) × nops]`.
///
/// `meta` packs the entry kind (2 bits), the op count (14 bits) and the
/// 2PC transaction id (48 bits) into one word, and each op's tag takes
/// 2 bits of the packed tag words — 3 + ⌈n/32⌉ + 2n words per entry
/// against the naive 5 + 3n. Every persisted word is a flushed cache
/// line eventually, so the diet feeds directly into flushes/op.
const L_NEXT: u64 = 0;
const L_LSN: u64 = 1;
const L_META: u64 = 2;
const L_TAGS: u64 = 3;
/// Words per op payload (key, value).
const OP_WORDS: u64 = 2;
/// Op tags per packed tag word (2 bits each).
const TAGS_PER_WORD: u64 = 32;

const META_KIND_BITS: u64 = 2;
const META_NOPS_BITS: u64 = 14;
/// Ops an entry can carry (14-bit count field).
const META_NOPS_MAX: u64 = (1 << META_NOPS_BITS) - 1;
/// Largest representable 2PC transaction id (48-bit field).
const META_TXID_MAX: u64 = (1 << (64 - META_KIND_BITS - META_NOPS_BITS)) - 1;

fn pack_meta(kind: LogKind, txid: u64, nops: u64) -> u64 {
    debug_assert!(nops <= META_NOPS_MAX, "log entry op count overflow");
    debug_assert!(txid <= META_TXID_MAX, "log txid overflows meta field");
    kind.encode() | (nops << META_KIND_BITS) | (txid << (META_KIND_BITS + META_NOPS_BITS))
}

fn meta_kind(meta: u64) -> LogKind {
    LogKind::decode(meta & ((1 << META_KIND_BITS) - 1))
}

fn meta_nops(meta: u64) -> u64 {
    (meta >> META_KIND_BITS) & META_NOPS_MAX
}

fn meta_txid(meta: u64) -> u64 {
    meta >> (META_KIND_BITS + META_NOPS_BITS)
}

/// Packed tag words needed for `nops` ops.
fn tag_words(nops: u64) -> u64 {
    nops.div_ceil(TAGS_PER_WORD)
}

/// An entry block's total size in words.
fn entry_words(nops: u64) -> u64 {
    L_TAGS + tag_words(nops) + nops * OP_WORDS
}

/// What a log entry carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LogKind {
    /// A worker batch's mutations.
    Batch,
    /// A 2PC participant's mutations plus its `meta[txid] = 1` marker.
    Prepare,
    /// Drop the 2PC marker for `txid` (batch resolved).
    Resolve,
}

impl LogKind {
    fn encode(self) -> u64 {
        match self {
            LogKind::Batch => 0,
            LogKind::Prepare => 1,
            LogKind::Resolve => 2,
        }
    }

    fn decode(w: u64) -> LogKind {
        match w {
            0 => LogKind::Batch,
            1 => LogKind::Prepare,
            2 => LogKind::Resolve,
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
    /// The 2PC transaction id for `Prepare`/`Resolve`; 0 for batches.
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

/// Write one entry's body (everything but `next`) into the block at
/// `e` inside the caller's transaction. The block is fully overwritten,
/// so recycled blocks need no zeroing.
fn write_entry_in<Tx: Txn + ?Sized>(
    tx: &mut Tx,
    e: Addr,
    lsn: u64,
    kind: LogKind,
    txid: u64,
    ops: &[MapOp],
) -> Result<(), Abort> {
    let nops = ops.len() as u64;
    tx.write(e.offset(L_LSN), lsn)?;
    tx.write(e.offset(L_META), pack_meta(kind, txid, nops))?;
    for (w, chunk) in ops.chunks(TAGS_PER_WORD as usize).enumerate() {
        let mut word = 0u64;
        for (j, &op) in chunk.iter().enumerate() {
            let (tag, _, _) = encode_op(op);
            word |= tag << (2 * j as u64);
        }
        tx.write(e.offset(L_TAGS + w as u64), word)?;
    }
    let base0 = L_TAGS + tag_words(nops);
    for (i, &op) in ops.iter().enumerate() {
        let (_, k, v) = encode_op(op);
        let base = e.offset(base0 + i as u64 * OP_WORDS);
        tx.write(base, k)?;
        tx.write(base.offset(1), v)?;
    }
    Ok(())
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
        _ => unreachable!("corrupt replication-log op tag {tag}"),
    }
}

/// The mutations of `ops` (reads are not replicated).
pub(crate) fn mutations(ops: &[MapOp]) -> Vec<MapOp> {
    ops.iter()
        .copied()
        .filter(|op| !matches!(op, MapOp::Get(_)))
        .collect()
}

/// Append a log entry inside the caller's transaction: allocate the
/// block, link it at the head, and advance `last_lsn`. Returns the LSN.
/// Because this runs inside the data transaction, the entry commits (or
/// rolls back) atomically with the mutations it describes.
pub(crate) fn append_in<Tx: Txn + ?Sized>(
    tx: &mut Tx,
    hdr: Addr,
    kind: LogKind,
    txid: u64,
    ops: &[MapOp],
) -> Result<u64, Abort> {
    let lsn = tx.read(hdr.offset(P_LAST))? + 1;
    let e = tx.alloc(entry_words(ops.len() as u64) as usize)?;
    write_entry_in(tx, e, lsn, kind, txid, ops)?;
    let prev = tx.read(hdr.offset(P_HEAD))?;
    tx.write(e.offset(L_NEXT), prev)?;
    tx.write(hdr.offset(P_HEAD), e.0)?;
    tx.write(hdr.offset(P_LAST), lsn)?;
    Ok(lsn)
}

/// Append to the log **iff it is armed**, reading the armed word inside
/// the caller's transaction (see [`P_ARMED`]). Returns the LSN, or 0
/// when the log is disarmed (LSNs start at 1, so 0 is never a real
/// entry). Note `Resolve` entries legitimately carry no ops — skipping
/// empty batches is the caller's business.
pub(crate) fn append_armed_in<Tx: Txn + ?Sized>(
    tx: &mut Tx,
    hdr: Addr,
    kind: LogKind,
    txid: u64,
    ops: &[MapOp],
) -> Result<u64, Abort> {
    if tx.read(hdr.offset(P_ARMED))? == 0 {
        return Ok(0);
    }
    append_in(tx, hdr, kind, txid, ops)
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

/// Replay one log entry's effect through the follower's transactional
/// structures — the shared core of [`Follower::apply_entry`],
/// [`Follower::apply_batch`], and [`Follower::receive_apply_batch`].
fn apply_ops_in(
    tx: &mut dyn Txn,
    data: &HashMapTx,
    meta: &HashMapTx,
    e: &LogEntry,
) -> Result<(), Abort> {
    match e.kind {
        LogKind::Batch | LogKind::Prepare => {
            for &op in &e.ops {
                data.apply_in(tx, op)?;
            }
            if e.kind == LogKind::Prepare {
                meta.insert_in(tx, e.txid, 1)?;
            }
        }
        LogKind::Resolve => {
            meta.remove_in(tx, e.txid)?;
        }
    }
    Ok(())
}

fn read_entry_in<Tx: Txn + ?Sized>(tx: &mut Tx, a: Addr) -> Result<LogEntry, Abort> {
    let meta = tx.read(a.offset(L_META))?;
    let nops = meta_nops(meta);
    let mut tags = Vec::with_capacity(tag_words(nops) as usize);
    for w in 0..tag_words(nops) {
        tags.push(tx.read(a.offset(L_TAGS + w))?);
    }
    let base0 = L_TAGS + tag_words(nops);
    let mut ops = Vec::with_capacity(nops as usize);
    for i in 0..nops {
        let tag = (tags[(i / TAGS_PER_WORD) as usize] >> (2 * (i % TAGS_PER_WORD))) & 0b11;
        let base = a.offset(base0 + i * OP_WORDS);
        ops.push(decode_op(tag, tx.read(base)?, tx.read(base.offset(1))?));
    }
    Ok(LogEntry {
        lsn: tx.read(a.offset(L_LSN))?,
        kind: meta_kind(meta),
        txid: meta_txid(meta),
        ops,
    })
}

/// Attempts a shipper-side read gets before giving the round up (the
/// primary's workers keep the log head hot; the next round retries).
const READ_FUEL: usize = 8;

/// Transactionally read every entry with `lsn > after` from the list
/// rooted at `head`, in ascending LSN order. `None` if the read
/// transaction could not win its fuel against concurrent appends.
pub(crate) fn read_after(tm: &NvHalt, tid: usize, head: Addr, after: u64) -> Option<Vec<LogEntry>> {
    tm::txn(tm, tid, |tx| {
        if tx.attempt() >= READ_FUEL {
            return Err(Abort::Cancel);
        }
        let mut out = Vec::new();
        let mut a = Addr(tx.read(head)?);
        while !a.is_null() {
            let lsn = tx.read(a.offset(L_LSN))?;
            if lsn <= after {
                break;
            }
            out.push(read_entry_in(tx, a)?);
            a = Addr(tx.read(a.offset(L_NEXT))?);
        }
        out.reverse();
        Ok(out)
    })
    .ok()
}

/// Unlink and free every entry with `lsn <= upto` (the strictly
/// descending suffix of the newest-first list rooted at `head`). Both
/// logs are trimmed behind durable watermarks, so a trimmed entry is
/// never needed again. Best-effort under contention.
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

/// Raw walk of the list rooted at `head` (word 0 of either header:
/// [`P_HEAD`] = `F_HEAD`): `(addr, words)` per entry, for allocator
/// rebuilds. Only valid on a quiescent TM.
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

/// The last LSN durably appended to a primary log. Quiescent only.
pub(crate) fn last_lsn_raw(tm: &NvHalt, hdr: Addr) -> u64 {
    tm.read_raw(hdr.offset(P_LAST))
}

// ---------------------------------------------------------------------
// Follower
// ---------------------------------------------------------------------

/// A shard's follower: its own shard pool, whose maps mirror the
/// primary's data and 2PC markers and whose header holds the receive
/// log and the durable `received`/`applied` watermarks. Only the shard's
/// shipper thread (or promotion, with the shipper gone) touches it,
/// always as TM thread 0.
pub struct Follower {
    pub(crate) pool: ShardPool,
}

/// TM thread id of all follower-side transactions.
const FOLLOWER_TID: usize = 0;

impl Follower {
    /// Fresh follower for `cfg`'s shards: empty maps, zero watermarks
    /// (raw allocation is durably zero; zero is also the follower role).
    pub(crate) fn create(cfg: &ServiceConfig) -> Follower {
        Follower {
            pool: ShardPool::create(cfg, FOLLOWER_HDR_WORDS),
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

    /// Capture a crashed follower's durable remains.
    pub(crate) fn image(&self) -> PoolImage {
        self.pool.image(FOLLOWER_HDR_WORDS)
    }

    /// Durable `received_lsn`. Quiescent only.
    pub(crate) fn received_raw(&self) -> u64 {
        self.pool.tm.read_raw(self.pool.hdr.offset(F_RECEIVED))
    }

    /// Durable `applied_lsn`. Quiescent only.
    pub fn applied_lsn(&self) -> u64 {
        self.pool.tm.read_raw(self.pool.hdr.offset(F_APPLIED))
    }

    /// Stage a slice of entries (ascending by LSN) into the receive log
    /// and advance the durable `received_lsn` to the last one — all in
    /// **one transaction**, so a whole ship round's worth of entries
    /// costs one commit (one flush pass, one fence) instead of one per
    /// entry. Entries at or below the watermark are skipped (idempotent
    /// re-ship after a follower recovery). Returns how many entries were
    /// actually staged.
    pub(crate) fn receive_batch(&self, entries: &[LogEntry]) -> usize {
        debug_assert!(entries.windows(2).all(|w| w[0].lsn < w[1].lsn));
        tm::txn(&*self.pool.tm, FOLLOWER_TID, |tx| {
            let watermark = tx.read(self.pool.hdr.offset(F_RECEIVED))?;
            let fresh: Vec<&LogEntry> = entries.iter().filter(|e| e.lsn > watermark).collect();
            let Some(last) = fresh.last() else {
                return Ok(0);
            };
            for e in &fresh {
                let a = tx.alloc(e.words())?;
                write_entry_in(tx, a, e.lsn, e.kind, e.txid, &e.ops)?;
                let prev = tx.read(self.pool.hdr.offset(F_HEAD))?;
                tx.write(a.offset(L_NEXT), prev)?;
                tx.write(self.pool.hdr.offset(F_HEAD), a.0)?;
            }
            tx.write(self.pool.hdr.offset(F_RECEIVED), last.lsn)?;
            Ok(fresh.len())
        })
        .expect("follower transactions never cancel")
    }

    /// Steady-state ship round: apply a slice of fresh entries
    /// (ascending by LSN) straight into the data map and advance
    /// `received_lsn` *and* `applied_lsn` to the last one, all in **one
    /// transaction** — the whole round costs one flush pass and one
    /// fence, and leaves nothing in the receive log to trim. Entries at
    /// or below the received watermark are skipped (idempotent re-ship
    /// after a follower recovery). Refuses to fuse — receiving nothing —
    /// while a received-but-unapplied tail exists (the caller must
    /// drain it via [`Follower::apply_batch`] first, or the fused
    /// watermark bump would skip it). Returns the durable
    /// `(received_lsn, applied_lsn)` pair after the commit, for the
    /// caller's volatile mirrors.
    pub(crate) fn receive_apply_batch(&self, entries: &[LogEntry]) -> (u64, u64) {
        debug_assert!(entries.windows(2).all(|w| w[0].lsn < w[1].lsn));
        tm::txn(&*self.pool.tm, FOLLOWER_TID, |tx| {
            let received = tx.read(self.pool.hdr.offset(F_RECEIVED))?;
            let applied = tx.read(self.pool.hdr.offset(F_APPLIED))?;
            if applied != received {
                return Ok((received, applied));
            }
            let fresh: Vec<&LogEntry> = entries.iter().filter(|e| e.lsn > received).collect();
            let Some(last) = fresh.last() else {
                return Ok((received, applied));
            };
            for e in &fresh {
                apply_ops_in(tx, &self.pool.map, &self.pool.meta, e)?;
            }
            tx.write(self.pool.hdr.offset(F_RECEIVED), last.lsn)?;
            tx.write(self.pool.hdr.offset(F_APPLIED), last.lsn)?;
            Ok((last.lsn, last.lsn))
        })
        .expect("follower transactions never cancel")
    }

    /// Apply a slice of already-received entries (ascending by LSN) and
    /// advance the durable `applied_lsn` to the last one, in **one
    /// transaction** — recovery catch-up and promotion tail-apply cost
    /// one commit however long the tail is. Entries at or below the
    /// applied watermark are skipped. Returns how many were applied.
    pub(crate) fn apply_batch(&self, entries: &[LogEntry]) -> usize {
        debug_assert!(entries.windows(2).all(|w| w[0].lsn < w[1].lsn));
        let applied = tm::txn(&*self.pool.tm, FOLLOWER_TID, |tx| {
            let watermark = tx.read(self.pool.hdr.offset(F_APPLIED))?;
            let fresh: Vec<&LogEntry> = entries.iter().filter(|e| e.lsn > watermark).collect();
            let Some(last) = fresh.last() else {
                return Ok(0);
            };
            for e in &fresh {
                apply_ops_in(tx, &self.pool.map, &self.pool.meta, e)?;
            }
            tx.write(self.pool.hdr.offset(F_APPLIED), last.lsn)?;
            Ok(fresh.len())
        })
        .expect("follower transactions never cancel");
        if applied > 0 {
            if let Some(p) = self.pool.tm.pmem().pool().psan() {
                p.durability_point(FOLLOWER_TID, "kvserve::repl::applied_lsn");
            }
        }
        applied
    }

    /// Received-but-unapplied entries, ascending by LSN.
    pub(crate) fn pending(&self) -> Vec<LogEntry> {
        tm::txn(&*self.pool.tm, FOLLOWER_TID, |tx| {
            let applied = tx.read(self.pool.hdr.offset(F_APPLIED))?;
            let mut out = Vec::new();
            let mut a = Addr(tx.read(self.pool.hdr.offset(F_HEAD))?);
            while !a.is_null() {
                if tx.read(a.offset(L_LSN))? <= applied {
                    break;
                }
                out.push(read_entry_in(tx, a)?);
                a = Addr(tx.read(a.offset(L_NEXT))?);
            }
            out.reverse();
            Ok(out)
        })
        .expect("follower transactions never cancel")
    }

    /// Apply one entry through the same [`HashMapTx`] path the primary
    /// used and advance the durable `applied_lsn` in the same
    /// transaction (the watermark check is what makes re-application
    /// idempotent). Followed by a psan durability point: the applied
    /// state must be fully fenced before the watermark can be trusted.
    /// Returns whether the entry was actually applied.
    pub(crate) fn apply_entry(&self, e: &LogEntry) -> bool {
        let applied = tm::txn(&*self.pool.tm, FOLLOWER_TID, |tx| {
            if tx.read(self.pool.hdr.offset(F_APPLIED))? >= e.lsn {
                return Ok(false);
            }
            apply_ops_in(tx, &self.pool.map, &self.pool.meta, e)?;
            tx.write(self.pool.hdr.offset(F_APPLIED), e.lsn)?;
            Ok(true)
        })
        .expect("follower transactions never cancel");
        if let Some(p) = self.pool.tm.pmem().pool().psan() {
            p.durability_point(FOLLOWER_TID, "kvserve::repl::applied_lsn");
        }
        applied
    }

    /// Drop every receive-log entry at or below `upto`, an applied
    /// watermark (`u64::MAX` drops the whole log).
    pub(crate) fn trim(&self, upto: u64) {
        let head = self.pool.hdr.offset(F_HEAD);
        trim_through(&self.pool.tm, FOLLOWER_TID, head, upto);
    }

    /// Durably mark this follower promoted, then assert the promotion
    /// record is fully fenced.
    pub(crate) fn commit_promotion(&self) {
        tm::txn(&*self.pool.tm, FOLLOWER_TID, |tx| {
            tx.write(self.pool.hdr.offset(F_ROLE), ROLE_PRIMARY)
        })
        .expect("follower transactions never cancel");
        if let Some(p) = self.pool.tm.pmem().pool().psan() {
            p.durability_point(FOLLOWER_TID, "kvserve::repl::promotion_commit");
        }
        debug_assert_eq!(
            self.pool.tm.read_raw(self.pool.hdr.offset(F_ROLE)),
            ROLE_PRIMARY
        );
    }

    /// Receive and apply a slice of log entries, as the shipper would.
    /// Test surface for the applied-LSN idempotence property: any split
    /// of a log into `ingest` calls — including overlapping re-sends —
    /// must converge to the same state as one whole-log call.
    pub fn ingest(&self, entries: &[LogEntry]) {
        self.receive_batch(entries);
        for e in self.pending() {
            self.apply_entry(&e);
        }
        let applied = tm::txn(&*self.pool.tm, FOLLOWER_TID, |tx| {
            tx.read(self.pool.hdr.offset(F_APPLIED))
        })
        .expect("follower transactions never cancel");
        self.trim(applied);
    }

    /// The mirrored data map's contents, sorted by key. Quiescent only.
    pub fn contents(&self) -> Vec<(u64, u64)> {
        let mut v = self.pool.map.collect_raw(&*self.pool.tm);
        v.sort_unstable();
        v
    }

    /// The mirrored 2PC marker map's keys, sorted. Quiescent only.
    pub fn markers(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .pool
            .meta
            .collect_raw(&*self.pool.tm)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        v.sort_unstable();
        v
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
    /// Highest LSN durably in the follower's receive log.
    pub received: AtomicU64,
    /// Highest LSN durably applied on the follower.
    pub applied: AtomicU64,
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
/// (the follower has durably received everything at or below the
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
            applied: AtomicU64::new(0),
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

    /// Block until the follower durably received `lsn`, the deadline
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
                st.received.store(f.received_raw(), Ordering::Relaxed);
                st.applied.store(f.applied_lsn(), Ordering::Relaxed);
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
        match round {
            Some(()) => {}
            None => {
                // A pool died mid-round. A dead primary means the whole
                // service is crashing or failing over — exit so the
                // teardown can join us. A dead follower just parks the
                // shard's shipping until `recover_follower`.
                if rt.primaries[s].tm.pmem().pool().is_crashed() {
                    return;
                }
                state.down.store(true, Ordering::Release);
                state.notify_all();
            }
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

/// One shipping round for shard `s`. Steady state is a single follower
/// commit: the round's fresh primary entries are applied straight into
/// the follower's data map with both watermarks advanced under one
/// fence ([`Follower::receive_apply_batch`]), and the primary log is
/// retired behind the shipped watermark only every
/// [`PRIMARY_TRIM_BATCH`] entries. A received-but-unapplied tail (left
/// by a follower recovery) is drained first — batched, one commit —
/// so the fused path never skips it.
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
    let pending = f.pending();
    if !pending.is_empty() {
        f.apply_batch(&pending);
        let last = pending.last().expect("non-empty").lsn;
        state.applied.fetch_max(last, Ordering::AcqRel);
        if rt.probe.fires(Point::MidApply) {
            f.pool.tm.crash();
            tm::crash::crash_unwind();
        }
        f.trim(state.applied.load(Ordering::Acquire));
    }
    let received = state.received.load(Ordering::Acquire);
    let Some(fresh) = read_after(&p.tm, rt.ship_tid, p.hdr.offset(P_HEAD), received) else {
        // Lost the read race against appenders (e.g. a prepared 2PC
        // transaction holds the log head); the next round — at latest
        // one ship interval away — retries.
        return;
    };
    let mut processed = !pending.is_empty();
    if !fresh.is_empty() {
        if rt.probe.fires(Point::BeforeReceive) {
            f.pool.tm.crash();
            tm::crash::crash_unwind();
        }
        // The round's group commit: received and applied in one
        // transaction. Acks unblock at the round's granularity.
        let (recv, appl) = f.receive_apply_batch(&fresh);
        state.received.fetch_max(recv, Ordering::AcqRel);
        state.applied.fetch_max(appl, Ordering::AcqRel);
        state.notify_all();
        if rt.probe.fires(Point::Received) {
            f.pool.tm.crash();
            tm::crash::crash_unwind();
        }
        // Receive and apply commit together, so "mid-apply" is no
        // longer a distinct durable state; the point stays a live crash
        // point at the same protocol position.
        if rt.probe.fires(Point::MidApply) {
            f.pool.tm.crash();
            tm::crash::crash_unwind();
        }
        processed = true;
    }
    if processed {
        let upto = state
            .received
            .load(Ordering::Acquire)
            .min(state.hold.load(Ordering::Acquire));
        if upto.saturating_sub(state.trimmed.load(Ordering::Acquire)) >= PRIMARY_TRIM_BATCH {
            trim_through(&p.tm, rt.ship_tid, p.hdr.offset(P_HEAD), upto);
            state.trimmed.store(upto, Ordering::Release);
        }
        if rt.probe.fires(Point::Applied) {
            f.pool.tm.crash();
            tm::crash::crash_unwind();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvhalt::NvHaltConfig;

    fn entry(lsn: u64, kind: LogKind, txid: u64, ops: Vec<MapOp>) -> LogEntry {
        LogEntry {
            lsn,
            kind,
            txid,
            ops,
        }
    }

    #[test]
    fn ingest_is_idempotent_across_the_watermark() {
        let log = vec![
            entry(1, LogKind::Batch, 0, vec![MapOp::Insert(1, 10)]),
            entry(2, LogKind::Prepare, 7, vec![MapOp::Insert(2, 20)]),
            entry(3, LogKind::Batch, 0, vec![MapOp::Remove(1)]),
            entry(4, LogKind::Resolve, 7, vec![]),
        ];
        let whole = Follower::fresh(1 << 12);
        whole.ingest(&log);
        let split = Follower::fresh(1 << 12);
        split.ingest(&log[..2]);
        split.ingest(&log); // overlapping re-send: prefix must be skipped
        assert_eq!(whole.contents(), split.contents());
        assert_eq!(whole.markers(), split.markers());
        assert_eq!(whole.applied_lsn(), 4);
        assert_eq!(split.applied_lsn(), 4);
        assert_eq!(whole.contents(), vec![(2, 20)]);
        assert!(whole.markers().is_empty());
    }

    #[test]
    fn append_read_trim_roundtrip() {
        let tm = NvHalt::new(NvHaltConfig::test(1 << 12, 1));
        let hdr = tm.alloc_raw(0, PRIMARY_HDR_WORDS);
        for i in 1..=5u64 {
            let lsn = tm::txn(&tm, 0, |tx| {
                append_in(tx, hdr, LogKind::Batch, 0, &[MapOp::Insert(i, i * 10)])
            })
            .unwrap();
            assert_eq!(lsn, i);
        }
        let all = read_after(&tm, 0, hdr.offset(P_HEAD), 0).unwrap();
        assert_eq!(all.len(), 5);
        assert!(all.windows(2).all(|w| w[0].lsn + 1 == w[1].lsn));
        let late = read_after(&tm, 0, hdr.offset(P_HEAD), 3).unwrap();
        assert_eq!(late.len(), 2);
        trim_through(&tm, 0, hdr.offset(P_HEAD), 3);
        let rest = read_after(&tm, 0, hdr.offset(P_HEAD), 0).unwrap();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].lsn, 4);
        assert_eq!(last_lsn_raw(&tm, hdr), 5);
    }
}
