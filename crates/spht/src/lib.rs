//! SPHT — Scalable Persistent Hardware Transactions (Castro et al.,
//! FAST'21): the state-of-the-art persistent HyTM the paper compares
//! against (§2.1.4, §5.2).
//!
//! Architecture, as the paper describes it:
//!
//! * **Redo logging.** Hardware transactions log their writes (inside the
//!   transaction, to a volatile thread-local buffer); after `xend` the log
//!   record is written to a per-thread *persistent log*, ordered by a
//!   timestamp taken inside the transaction (`rdtsc`-style, no shared
//!   memory traffic).
//! * **Commit ordering.** A transaction's durability must be ordered
//!   relative to concurrent transactions: after persisting its record, a
//!   thread *blocks* until every thread whose current timestamp is smaller
//!   has marked its own record persisted — "transactions can be blocked by
//!   other concurrent transactions even if they access disjoint data",
//!   which is SPHT's structural cost that NV-HALT avoids.
//! * **Persistent marker.** A global marker stores the timestamp up to
//!   which *everything* is durably ordered; recovery replays exactly the
//!   log records at or below it. Threads free-ride on each other's marker
//!   flushes when possible (standing in for SPHT's forward-linking
//!   optimisation).
//! * **Global-lock fallback.** The software path immediately claims a
//!   global lock; hardware transactions subscribe to it and abort while it
//!   is held.
//! * **Log replay.** Logs are bounded and must eventually be replayed into
//!   the persistent checkpoint (here: `{value, timestamp}` per word, so
//!   replay is idempotent and order-free per address). Following the
//!   paper's methodology, benchmarks replay after the measurement period
//!   with a configurable number of replay threads (16 in the paper); a
//!   thread whose log fills mid-run replays its own records in place.
//! * **Trivial allocation.** SPHT's public implementation allocates from
//!   fixed per-thread pools by bumping a pointer and never frees — the
//!   paper keeps this (and points out it is artificially cheap); so do we.

use crossbeam::utils::CachePadded;
use htm::{Htm, HtmConfig, HtmThread, Xabort};
use parking_lot::Mutex;
use pmem::pool::{DurableImage, PmemConfig, PmemPool};
use pmem::LINE_WORDS;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tm::policy::{HybridPolicy, PathChoice};
use tm::stats::{Counter, StatsSnapshot, TmStats};
use tm::{Abort, AbortKind, Addr, Cancelled, Tm, TxResult, Txn, Word};

/// xabort code: the global fallback lock is held.
pub const CODE_GL_HELD: u32 = 11;
/// xabort code: body requested retry.
pub const CODE_USER_RETRY: u32 = 12;
/// xabort code: body cancelled.
pub const CODE_CANCEL: u32 = 13;

/// SPHT configuration.
#[derive(Clone, Debug)]
pub struct SphtConfig {
    /// Transactional heap size in words.
    pub heap_words: usize,
    /// Thread slots.
    pub max_threads: usize,
    /// Per-thread persistent log capacity in words.
    pub log_words: usize,
    /// Attempt schedule (hardware attempts before the global-lock path).
    pub policy: HybridPolicy,
    /// If false, remove all work specific to persisting hardware
    /// transactions (Figure 9's third overhead class): no log persistence,
    /// no ordering wait, no marker updates.
    pub persist_hw: bool,
    /// Persistent-memory settings (`words`/`max_threads` overridden).
    pub pm: PmemConfig,
    /// HTM simulator settings.
    pub htm: HtmConfig,
}

impl SphtConfig {
    /// Functional-test defaults.
    pub fn test(heap_words: usize, max_threads: usize) -> Self {
        SphtConfig {
            heap_words,
            max_threads,
            log_words: 1 << 14,
            policy: HybridPolicy::default(),
            persist_hw: true,
            pm: PmemConfig::test(0, max_threads),
            htm: HtmConfig::test(),
        }
    }
}

/// Pool geometry: `[marker line][per-thread logs][checkpoint {val, ts} pairs]`.
#[derive(Clone, Copy, Debug)]
struct Layout {
    heap_words: usize,
    max_threads: usize,
    log_words: usize,
}

impl Layout {
    fn marker_word(&self) -> usize {
        0
    }
    fn log_base(&self, tid: usize) -> usize {
        LINE_WORDS + tid * self.log_words
    }
    fn ckpt_base(&self) -> usize {
        LINE_WORDS + self.max_threads * self.log_words
    }
    fn ckpt_val(&self, a: usize) -> usize {
        self.ckpt_base() + 2 * a
    }
    fn ckpt_ts(&self, a: usize) -> usize {
        self.ckpt_base() + 2 * a + 1
    }
    fn total_words(&self) -> usize {
        self.ckpt_base() + 2 * self.heap_words
    }
}

struct ThreadState {
    htm_th: HtmThread,
    redo: Vec<(u64, u64)>,
    undo: Vec<(u64, u64)>,
    log_head: usize,
    seed: u64,
}

/// The SPHT persistent hybrid TM.
pub struct Spht {
    cfg: SphtConfig,
    layout: Layout,
    vol: Box<[AtomicU64]>,
    global_lock: AtomicU64,
    /// Per-thread `(timestamp << 1) | persisted` slots for commit ordering.
    slots: Vec<CachePadded<AtomicU64>>,
    /// Volatile high-water of the durably ordered timestamp + the durable
    /// value already flushed (threads free-ride on larger flushes).
    marker: Mutex<(u64, u64)>,
    /// Per-thread bump allocators over partitioned pools (no free).
    bumps: Vec<CachePadded<AtomicU64>>,
    pool_chunk: usize,
    htm: Htm,
    pmem: PmemPool,
    stats: Arc<TmStats>,
    threads: Vec<CachePadded<Mutex<ThreadState>>>,
}

// SPHT's redo log, marker and checkpoint are not entry-shaped: it stores raw.
#[allow(clippy::disallowed_methods)]
impl Spht {
    /// Create a fresh instance.
    pub fn new(cfg: SphtConfig) -> Self {
        let stats = Arc::new(TmStats::new(cfg.max_threads));
        Self::build(cfg, stats, None)
    }

    fn build(cfg: SphtConfig, stats: Arc<TmStats>, image: Option<&DurableImage>) -> Self {
        assert!(cfg.max_threads >= 1);
        assert!(cfg.log_words >= 64);
        let layout = Layout {
            heap_words: cfg.heap_words,
            max_threads: cfg.max_threads,
            log_words: cfg.log_words,
        };
        let pm_cfg = PmemConfig {
            words: layout.total_words(),
            max_threads: cfg.max_threads,
            ..cfg.pm.clone()
        };
        let pmem = match image {
            None => PmemPool::new(&pm_cfg, Some(stats.clone())),
            Some(img) => PmemPool::from_durable(&pm_cfg, img, Some(stats.clone())),
        };
        let htm = Htm::new(cfg.htm);
        let threads: Vec<CachePadded<Mutex<ThreadState>>> = (0..cfg.max_threads)
            .map(|t| {
                let cell = CachePadded::new(Mutex::new(ThreadState {
                    htm_th: HtmThread::new(&htm, t),
                    redo: Vec::with_capacity(64),
                    undo: Vec::with_capacity(64),
                    log_head: 0,
                    seed: (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                }));
                // Held across the redo-log persist by design (the cell
                // is the transaction); exempt for locksan.
                cell.locksan_label("spht::thread_state", true);
                cell
            })
            .collect();
        // Idle threads read as "persisted at ts 0".
        let slots = (0..cfg.max_threads)
            .map(|_| CachePadded::new(AtomicU64::new(1)))
            .collect();
        let reserve = 8u64;
        let pool_chunk = (cfg.heap_words - reserve as usize) / cfg.max_threads;
        let bumps = (0..cfg.max_threads)
            .map(|t| CachePadded::new(AtomicU64::new(reserve + (t * pool_chunk) as u64)))
            .collect();
        Spht {
            vol: (0..cfg.heap_words).map(|_| AtomicU64::new(0)).collect(),
            global_lock: AtomicU64::new(0),
            slots,
            marker: {
                let m = Mutex::new((0, 0));
                // Persisting the marker under this lock is the lock's
                // whole job (advance_marker); exempt for locksan.
                m.locksan_label("spht::marker", true);
                m
            },
            bumps,
            pool_chunk,
            htm,
            pmem,
            stats,
            threads,
            layout,
            cfg,
        }
    }

    /// Access to the persistent pool (crash control).
    pub fn pool(&self) -> &PmemPool {
        &self.pmem
    }

    /// Simulate a power failure.
    pub fn crash(&self) {
        self.pmem.crash();
    }

    /// Capture the durable image after a crash (join workers first).
    pub fn crash_image(&self) -> DurableImage {
        assert!(self.pmem.is_crashed());
        self.pmem.snapshot_durable()
    }

    // ------------------------------------------------------------------
    // Persistent log records: [n][addr val]*n [ts], ts written last.
    // ------------------------------------------------------------------

    /// Append the thread's redo buffer as one durable log record.
    fn write_record(&self, tid: usize, ts: &mut ThreadState, cts: u64) {
        let need = 2 + 2 * ts.redo.len();
        if ts.log_head + need + 1 > self.cfg.log_words {
            // Log full: replay our own (fully ordered) records in place.
            self.replay_own(tid, ts);
        }
        assert!(
            ts.log_head + need < self.cfg.log_words,
            "transaction write set larger than the SPHT log"
        );
        let _psan = self.pmem.psan_scope(tid, "spht::write_record");
        let base = self.layout.log_base(tid) + ts.log_head;
        self.pmem.write(tid, base, ts.redo.len() as u64);
        for (i, &(a, v)) in ts.redo.iter().enumerate() {
            self.pmem.write(tid, base + 1 + 2 * i, a);
            self.pmem.write(tid, base + 2 + 2 * i, v);
        }
        // Truncate the *next* record slot (reads n = 0) and make it
        // durable under the SAME fence as the record body. When the
        // validity marker below lands, recovery's scan must find a zero
        // length in the following slot; flushing the truncation with the
        // marker instead would let their write-backs complete in either
        // order (flush completion is unordered until a fence), so a
        // crash could leave a durable marker behind a stale slot length.
        let next = base + need;
        self.pmem.write(tid, next, 0);
        // One coalesced pass over every line of the record: body words
        // and truncation word (the marker word is written and flushed
        // separately below, after the body is fenced durable).
        let mut w = base - base % LINE_WORDS;
        while w <= next {
            self.pmem.flush_line(tid, w);
            w += LINE_WORDS;
        }
        self.pmem.sfence(tid);
        // Validity marker last: a record is complete iff its ts is set.
        self.pmem.write(tid, base + need - 1, cts);
        self.pmem.flush_line(tid, base + need - 1);
        self.pmem.sfence(tid);
        ts.log_head += need;
    }

    /// Block until every thread whose current timestamp precedes `cts` has
    /// persisted its record — SPHT's commit-ordering negotiation.
    fn ordering_wait(&self, tid: usize, cts: u64) {
        let start = std::time::Instant::now();
        for (t, slot) in self.slots.iter().enumerate() {
            if t == tid {
                continue;
            }
            loop {
                let s = slot.load(Ordering::Acquire);
                if (s >> 1) > cts || s & 1 == 1 {
                    break;
                }
                self.pmem.crash_point(tid);
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
        self.stats
            .add(tid, Counter::OrderWaitNs, start.elapsed().as_nanos() as u64);
    }

    /// Advance the durable global marker to at least `cts` before the
    /// commit returns (threads free-ride on larger flushes).
    fn advance_marker(&self, tid: usize, cts: u64) {
        let _psan = self.pmem.psan_scope(tid, "spht::advance_marker");
        let mut m = self.marker.lock();
        if m.0 < cts {
            m.0 = cts;
        }
        if m.1 < cts {
            let target = m.0;
            self.pmem.write(tid, self.layout.marker_word(), target);
            self.pmem.flush_line(tid, self.layout.marker_word());
            self.pmem.sfence(tid);
            m.1 = target;
        }
        // The marker claims every record at or below `cts` durable; nothing
        // of ours may still be sitting unfenced in the cache.
        self.pmem.durability_point(tid, "spht::marker_durable");
    }

    /// The full post-`xend` durability protocol for a writing transaction.
    fn persist_commit(&self, tid: usize, ts: &mut ThreadState, cts: u64) {
        self.write_record(tid, ts, cts);
        // Publish our commit timestamp (still unpersisted) BEFORE waiting:
        // waits then resolve in strict timestamp order — the smallest
        // in-flight timestamp waits on nobody — so the negotiation cannot
        // cycle.
        self.slots[tid].store(cts << 1, Ordering::Release);
        self.ordering_wait(tid, cts);
        self.slots[tid].store(cts << 1 | 1, Ordering::Release);
        self.advance_marker(tid, cts);
    }

    // ------------------------------------------------------------------
    // Replay
    // ------------------------------------------------------------------

    /// Apply one log entry to the checkpoint iff its timestamp is newer.
    fn ckpt_apply(&self, tid: usize, a: u64, v: u64, ts: u64) {
        let a = a as usize;
        if a >= self.cfg.heap_words {
            return;
        }
        let tsw = self.layout.ckpt_ts(a);
        if self.pmem.read(tid, tsw) >= ts {
            return;
        }
        self.pmem.write(tid, self.layout.ckpt_val(a), v);
        self.pmem.write(tid, tsw, ts);
        self.pmem.flush_line(tid, self.layout.ckpt_val(a));
    }

    /// Scan a thread's log, invoking `f(record_ts, entries)` per complete
    /// record.
    fn scan_log(
        &self,
        scanner_tid: usize,
        owner: usize,
        head: usize,
        mut f: impl FnMut(u64, &[(u64, u64)]),
    ) {
        let base = self.layout.log_base(owner);
        let mut off = 0usize;
        let mut entries = Vec::new();
        while off < head {
            let n = self.pmem.read(scanner_tid, base + off) as usize;
            let need = 2 + 2 * n;
            if off + need > self.cfg.log_words {
                break;
            }
            let ts = self.pmem.read(scanner_tid, base + off + need - 1);
            if ts != 0 {
                entries.clear();
                for i in 0..n {
                    entries.push((
                        self.pmem.read(scanner_tid, base + off + 1 + 2 * i),
                        self.pmem.read(scanner_tid, base + off + 2 + 2 * i),
                    ));
                }
                f(ts, &entries);
            }
            off += need;
        }
    }

    /// Replay this thread's own records into the checkpoint and reset its
    /// log (called when the log fills mid-run; our own records are always
    /// complete and durably ordered).
    fn replay_own(&self, tid: usize, ts: &mut ThreadState) {
        let head = ts.log_head;
        let mut replayed = 0u64;
        self.scan_log(tid, tid, head, |rts, entries| {
            for &(a, v) in entries {
                self.ckpt_apply(tid, a, v, rts);
            }
            replayed += entries.len() as u64;
        });
        self.pmem.sfence(tid);
        self.stats.add(tid, Counter::Replayed, replayed);
        ts.log_head = 0;
        let base = self.layout.log_base(tid);
        self.pmem.write(tid, base, 0);
        self.pmem.flush_line(tid, base);
        self.pmem.sfence(tid);
    }

    /// Replay all logs into the checkpoint with `replayers` parallel
    /// workers (address-partitioned), then reset the logs. Must be called
    /// while quiescent — the paper's methodology replays after the
    /// measurement period with 16 replay threads. Returns entries applied.
    pub fn replay(&self, replayers: usize) -> u64 {
        let replayers = replayers.max(1);
        let heads: Vec<usize> = (0..self.cfg.max_threads)
            .map(|t| self.threads[t].lock().log_head)
            .collect();
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for r in 0..replayers {
                let heads = &heads;
                let total = &total;
                s.spawn(move || {
                    let scanner = r % self.cfg.max_threads;
                    let mut mine = 0u64;
                    for (owner, &head) in heads.iter().enumerate() {
                        self.scan_log(scanner, owner, head, |rts, entries| {
                            for &(a, v) in entries {
                                if (a as usize) % replayers == r {
                                    self.ckpt_apply(scanner, a, v, rts);
                                    mine += 1;
                                }
                            }
                        });
                    }
                    self.pmem.sfence(scanner);
                    total.fetch_add(mine, Ordering::Relaxed);
                });
            }
        });
        for t in 0..self.cfg.max_threads {
            let mut ts = self.threads[t].lock();
            ts.log_head = 0;
            let base = self.layout.log_base(t);
            self.pmem.write(t, base, 0);
            self.pmem.flush_line(t, base);
            // Fence per thread: each tid issued its own truncation flush.
            self.pmem.sfence(t);
        }
        let n = total.load(Ordering::Relaxed);
        self.stats.add(0, Counter::Replayed, n);
        n
    }

    /// Recover from a crash image: checkpoint plus every complete log
    /// record at or below the durable marker.
    pub fn recover(cfg: SphtConfig, image: &DurableImage) -> Spht {
        let stats = Arc::new(TmStats::new(cfg.max_threads));
        let tm = Self::build(cfg, stats, Some(image));
        let marker = tm.pmem.read(0, tm.layout.marker_word());
        // Collect all complete, covered records, apply in timestamp order
        // (the ts-guard makes order irrelevant per address, but gathering
        // lets us also reset the logs afterwards).
        let mut records: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
        for owner in 0..tm.cfg.max_threads {
            tm.scan_log(0, owner, tm.cfg.log_words, |rts, entries| {
                if rts <= marker {
                    records.push((rts, entries.to_vec()));
                }
            });
        }
        records.sort_by_key(|r| r.0);
        for (rts, entries) in &records {
            for &(a, v) in entries {
                tm.ckpt_apply(0, a, v, *rts);
            }
        }
        tm.pmem.sfence(0);
        // Volatile heap := checkpoint; reset logs.
        for a in 0..tm.cfg.heap_words {
            let v = tm.pmem.read(0, tm.layout.ckpt_val(a));
            tm.vol[a].store(v, Ordering::Relaxed);
        }
        for t in 0..tm.cfg.max_threads {
            let base = tm.layout.log_base(t);
            tm.pmem.write(0, base, 0);
            tm.pmem.flush_line(0, base);
        }
        tm.pmem.sfence(0);
        tm
    }

    // ------------------------------------------------------------------
    // Attempts
    // ------------------------------------------------------------------

    fn attempt_hw<R>(
        &self,
        ts: &mut ThreadState,
        tid: usize,
        attempt: usize,
        body: &mut dyn FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> Out<R> {
        ts.redo.clear();
        let mut cancelled = false;
        let mut oom = false;
        // Pre-mark: concurrent committers must wait for us (or see our
        // timestamp move past theirs).
        if self.cfg.persist_hw {
            let pre = self.htm.rdtsc();
            self.slots[tid].store(pre << 1, Ordering::Release);
        }
        let res = {
            let redo = &mut ts.redo;
            let htm_th = &mut ts.htm_th;
            let cancelled = &mut cancelled;
            let oom = &mut oom;
            self.htm.execute(htm_th, |htx| {
                // Subscribe to the fallback lock (abort while held).
                if htx.read(&self.global_lock)? != 0 {
                    return Err(htx.xabort(CODE_GL_HELD));
                }
                let mut tx = HwTxn {
                    tm: self,
                    tid,
                    attempt,
                    htx,
                    redo,
                    oom,
                    htm_aborted: false,
                };
                let r = match body(&mut tx) {
                    Ok(r) => r,
                    Err(Abort::Retry(_)) if tx.htm_aborted => return Err(Xabort),
                    Err(Abort::Retry(_)) => return Err(tx.htx.xabort(CODE_USER_RETRY)),
                    Err(Abort::Cancel) => {
                        *cancelled = true;
                        return Err(tx.htx.xabort(CODE_CANCEL));
                    }
                };
                // Commit timestamp, taken inside the transaction.
                let cts = htx.rdtsc();
                Ok((r, cts))
            })
        };
        match res {
            Ok((r, cts)) => {
                if self.cfg.persist_hw {
                    if ts.redo.is_empty() {
                        // Read-only: nothing to persist or order.
                        self.slots[tid].store(cts << 1 | 1, Ordering::Release);
                    } else {
                        self.persist_commit(tid, ts, cts);
                    }
                }
                self.stats.bump(tid, Counter::HwCommit);
                Out::Committed(r)
            }
            Err(kind) => {
                if self.cfg.persist_hw {
                    // Back to idle-persisted so nobody waits on us.
                    let s = self.slots[tid].load(Ordering::Relaxed);
                    self.slots[tid].store(s | 1, Ordering::Release);
                }
                if oom {
                    panic!("SPHT thread pool exhausted (hardware path)");
                }
                if cancelled {
                    self.stats.bump(tid, Counter::Cancelled);
                    return Out::Cancelled;
                }
                let c = match kind {
                    AbortKind::Conflict => Counter::HwConflict,
                    AbortKind::Capacity => Counter::HwCapacity,
                    AbortKind::Spurious => Counter::HwSpurious,
                    AbortKind::Explicit(CODE_GL_HELD | CODE_USER_RETRY) => Counter::HwConflict,
                    AbortKind::Explicit(_) => Counter::HwExplicit,
                };
                self.stats.bump(tid, c);
                Out::Aborted(kind)
            }
        }
    }

    fn attempt_sw<R>(
        &self,
        ts: &mut ThreadState,
        tid: usize,
        attempt: usize,
        body: &mut dyn FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> Out<R> {
        // Claim the global lock (hardware transactions subscribe and
        // abort). The nt_cas bumps the lock's HTM slot, dooming in-flight
        // subscribers — exactly the coherence effect on real hardware.
        loop {
            self.pmem.crash_point(tid);
            if self.htm.nt_cas(&self.global_lock, 0, 1).is_ok() {
                break;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        ts.redo.clear();
        ts.undo.clear();
        if self.cfg.persist_hw {
            let pre = self.htm.rdtsc();
            self.slots[tid].store(pre << 1, Ordering::Release);
        }
        let res = {
            let mut tx = SwTxn {
                tm: self,
                tid,
                attempt,
                redo: &mut ts.redo,
                undo: &mut ts.undo,
            };
            body(&mut tx)
        };
        let out = match res {
            Ok(r) => {
                let cts = self.htm.rdtsc();
                if self.cfg.persist_hw {
                    if ts.redo.is_empty() {
                        self.slots[tid].store(cts << 1 | 1, Ordering::Release);
                    } else {
                        self.persist_commit(tid, ts, cts);
                    }
                }
                self.stats.bump(tid, Counter::SwCommit);
                Out::Committed(r)
            }
            Err(abort) => {
                // Roll back in-place writes.
                for &(a, old) in ts.undo.iter().rev() {
                    self.vol[a as usize].store(old, Ordering::Release);
                }
                if self.cfg.persist_hw {
                    let s = self.slots[tid].load(Ordering::Relaxed);
                    self.slots[tid].store(s | 1, Ordering::Release);
                }
                match abort {
                    Abort::Cancel => {
                        self.stats.bump(tid, Counter::Cancelled);
                        Out::Cancelled
                    }
                    Abort::Retry(k) => {
                        self.stats.bump(tid, Counter::SwAbort);
                        Out::Aborted(k)
                    }
                }
            }
        };
        self.htm.nt_store(&self.global_lock, 0);
        out
    }

    /// Raw bump allocation (setup code outside transactions).
    pub fn alloc_raw(&self, tid: usize, words: usize) -> Addr {
        self.bump(tid, words).expect("SPHT thread pool exhausted")
    }

    fn bump(&self, tid: usize, words: usize) -> Option<Addr> {
        let limit = 8 + ((tid + 1) * self.pool_chunk) as u64;
        let got = self.bumps[tid].fetch_add(words as u64, Ordering::Relaxed);
        if got + words as u64 <= limit {
            Some(Addr(got))
        } else {
            self.bumps[tid].fetch_sub(words as u64, Ordering::Relaxed);
            None
        }
    }
}

enum Out<R> {
    Committed(R),
    Aborted(AbortKind),
    Cancelled,
}

impl Tm for Spht {
    fn txn<R>(
        &self,
        tid: usize,
        body: &mut dyn FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> TxResult<R> {
        assert!(tid < self.cfg.max_threads);
        let mut guard = self.threads[tid].lock();
        let ts = &mut *guard;
        let mut attempt = 0usize;
        let mut capacity_aborts = 0usize;
        loop {
            self.pmem.crash_point(tid);
            let choice = self.cfg.policy.choose(attempt, capacity_aborts);
            let out = match choice {
                PathChoice::Hw => self.attempt_hw(ts, tid, attempt, body),
                PathChoice::Sw => self.attempt_sw(ts, tid, attempt, body),
            };
            match out {
                Out::Committed(r) => return Ok(r),
                Out::Cancelled => return Err(Cancelled),
                Out::Aborted(kind) => {
                    if kind == AbortKind::Capacity {
                        capacity_aborts += 1;
                    }
                    ts.seed = ts.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    self.cfg.policy.backoff(ts.seed, attempt);
                }
            }
            attempt += 1;
        }
    }

    fn max_threads(&self) -> usize {
        self.cfg.max_threads
    }

    fn read_raw(&self, a: Addr) -> Word {
        self.vol[a.index()].load(Ordering::Acquire)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn name(&self) -> &'static str {
        "spht"
    }
}

struct HwTxn<'a, 'env, 't> {
    tm: &'env Spht,
    tid: usize,
    attempt: usize,
    htx: &'a mut htm::HtmTxn<'env, 't>,
    redo: &'a mut Vec<(u64, u64)>,
    oom: &'a mut bool,
    htm_aborted: bool,
}

impl<'a, 'env, 't> HwTxn<'a, 'env, 't> {
    #[inline]
    fn lift<T>(&mut self, r: Result<T, Xabort>) -> Result<T, Abort> {
        r.map_err(|Xabort| {
            self.htm_aborted = true;
            Abort::CONFLICT
        })
    }
}

impl<'a, 'env, 't> Txn for HwTxn<'a, 'env, 't> {
    fn read(&mut self, a: Addr) -> Result<Word, Abort> {
        let idx = a.index();
        if idx == 0 || idx >= self.tm.cfg.heap_words {
            return Err(Abort::CONFLICT);
        }
        // Uninstrumented read: no per-address metadata (SPHT's advantage
        // in read-dominated workloads).
        let r = self.htx.read(&self.tm.vol[idx]);
        self.lift(r)
    }

    fn write(&mut self, a: Addr, v: Word) -> Result<(), Abort> {
        let idx = a.index();
        if idx == 0 || idx >= self.tm.cfg.heap_words {
            return Err(Abort::CONFLICT);
        }
        let r = self.htx.write(&self.tm.vol[idx], v);
        self.lift(r)?;
        if self.tm.cfg.persist_hw {
            if let Some(e) = self.redo.iter_mut().rev().find(|e| e.0 == a.0) {
                e.1 = v;
            } else {
                self.redo.push((a.0, v));
            }
        }
        Ok(())
    }

    fn alloc(&mut self, words: usize) -> Result<Addr, Abort> {
        // Bump allocation, never rolled back (SPHT never frees; an aborted
        // transaction's block is simply leaked, as in the original).
        match self.tm.bump(self.tid, words) {
            Some(a) => Ok(a),
            None => {
                *self.oom = true;
                let Xabort = self.htx.xabort(CODE_USER_RETRY);
                self.htm_aborted = true;
                Err(Abort::CONFLICT)
            }
        }
    }

    fn free(&mut self, _a: Addr, _words: usize) -> Result<(), Abort> {
        // No-op: SPHT's allocator does not implement freeing.
        Ok(())
    }

    fn is_hw(&self) -> bool {
        true
    }

    fn attempt(&self) -> usize {
        self.attempt
    }
}

struct SwTxn<'a> {
    tm: &'a Spht,
    tid: usize,
    attempt: usize,
    redo: &'a mut Vec<(u64, u64)>,
    undo: &'a mut Vec<(u64, u64)>,
}

impl<'a> Txn for SwTxn<'a> {
    fn read(&mut self, a: Addr) -> Result<Word, Abort> {
        let idx = a.index();
        if idx == 0 || idx >= self.tm.cfg.heap_words {
            return Err(Abort::CONFLICT);
        }
        Ok(self.tm.vol[idx].load(Ordering::Acquire))
    }

    fn write(&mut self, a: Addr, v: Word) -> Result<(), Abort> {
        let idx = a.index();
        if idx == 0 || idx >= self.tm.cfg.heap_words {
            return Err(Abort::CONFLICT);
        }
        // Exclusive (global lock): write in place, log undo and redo.
        self.undo
            .push((a.0, self.tm.vol[idx].load(Ordering::Acquire)));
        self.tm.vol[idx].store(v, Ordering::Release);
        if self.tm.cfg.persist_hw {
            if let Some(e) = self.redo.iter_mut().rev().find(|e| e.0 == a.0) {
                e.1 = v;
            } else {
                self.redo.push((a.0, v));
            }
        }
        Ok(())
    }

    fn alloc(&mut self, words: usize) -> Result<Addr, Abort> {
        match self.tm.bump(self.tid, words) {
            Some(a) => Ok(a),
            None => panic!("SPHT thread pool exhausted"),
        }
    }

    fn free(&mut self, _a: Addr, _words: usize) -> Result<(), Abort> {
        Ok(())
    }

    fn is_hw(&self) -> bool {
        false
    }

    fn attempt(&self) -> usize {
        self.attempt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm::txn;

    fn small() -> Spht {
        Spht::new(SphtConfig::test(1 << 12, 4))
    }

    #[test]
    fn read_write_roundtrip() {
        let t = small();
        let r = txn(&t, 0, |tx| {
            tx.write(Addr(5), 9)?;
            tx.read(Addr(5))
        });
        assert_eq!(r, Ok(9));
        assert_eq!(t.read_raw(Addr(5)), 9);
    }

    #[test]
    fn hardware_path_commits_uncontended() {
        let t = small();
        for i in 0..50 {
            txn(&t, 0, |tx| tx.write(Addr(1), i)).unwrap();
        }
        assert_eq!(t.stats().get(Counter::HwCommit), 50);
    }

    #[test]
    fn fallback_lock_blocks_hardware() {
        // While the global lock is held, hardware attempts abort.
        let t = small();
        t.htm.nt_store(&t.global_lock, 1);
        let mut th = HtmThread::new(&t.htm, 0);
        let r: Result<(), AbortKind> = t.htm.execute(&mut th, |htx| {
            if htx.read(&t.global_lock)? != 0 {
                return Err(htx.xabort(CODE_GL_HELD));
            }
            Ok(())
        });
        assert_eq!(r, Err(AbortKind::Explicit(CODE_GL_HELD)));
        t.htm.nt_store(&t.global_lock, 0);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let t = Arc::new(small());
        let mut handles = Vec::new();
        for tid in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..3_000 {
                    txn(&*t, tid, |tx| {
                        let v = tx.read(Addr(1))?;
                        tx.write(Addr(1), v + 1)
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.read_raw(Addr(1)), 12_000);
    }

    #[test]
    fn committed_transactions_survive_crash_via_log_replay() {
        let cfg = SphtConfig::test(1 << 10, 2);
        let t = Spht::new(cfg.clone());
        txn(&t, 0, |tx| tx.write(Addr(4), 44)).unwrap();
        txn(&t, 1, |tx| {
            tx.write(Addr(5), 55)?;
            tx.write(Addr(6), 66)
        })
        .unwrap();
        t.crash();
        let rec = Spht::recover(cfg, &t.crash_image());
        assert_eq!(rec.read_raw(Addr(4)), 44);
        assert_eq!(rec.read_raw(Addr(5)), 55);
        assert_eq!(rec.read_raw(Addr(6)), 66);
    }

    #[test]
    fn last_writer_wins_after_recovery() {
        let cfg = SphtConfig::test(1 << 10, 2);
        let t = Spht::new(cfg.clone());
        for i in 1..=20u64 {
            txn(&t, (i % 2) as usize, |tx| tx.write(Addr(7), i)).unwrap();
        }
        t.crash();
        let rec = Spht::recover(cfg, &t.crash_image());
        assert_eq!(rec.read_raw(Addr(7)), 20);
    }

    #[test]
    fn replay_compacts_logs_and_preserves_state() {
        let cfg = SphtConfig::test(1 << 10, 2);
        let t = Spht::new(cfg.clone());
        for i in 1..=10u64 {
            txn(&t, 0, |tx| tx.write(Addr(3), i)).unwrap();
        }
        let replayed = t.replay(4);
        assert!(replayed >= 10);
        // After replay the checkpoint alone must carry the state.
        t.crash();
        let rec = Spht::recover(cfg, &t.crash_image());
        assert_eq!(rec.read_raw(Addr(3)), 10);
    }

    #[test]
    fn log_overflow_triggers_self_replay() {
        let mut cfg = SphtConfig::test(1 << 10, 1);
        cfg.log_words = 64; // tiny: each record is 5 words
        let t = Spht::new(cfg.clone());
        for i in 1..=100u64 {
            txn(&t, 0, |tx| tx.write(Addr(2), i)).unwrap();
        }
        assert!(t.stats().get(Counter::Replayed) > 0);
        t.crash();
        let rec = Spht::recover(cfg, &t.crash_image());
        assert_eq!(rec.read_raw(Addr(2)), 100);
    }

    #[test]
    fn alloc_is_bump_only_and_free_is_noop() {
        let t = small();
        let a = txn(&t, 0, |tx| tx.alloc(8)).unwrap();
        txn(&t, 0, |tx| tx.free(a, 8)).unwrap();
        let b = txn(&t, 0, |tx| tx.alloc(8)).unwrap();
        assert_ne!(a, b, "no recycling in SPHT's allocator");
        // Different threads draw from disjoint pools.
        let c = txn(&t, 1, |tx| tx.alloc(8)).unwrap();
        assert!(c.0 >= b.0 + 8 || c.0 + 8 <= a.0);
    }

    #[test]
    fn cancel_rolls_back_software_path_writes() {
        let mut cfg = SphtConfig::test(1 << 10, 1);
        cfg.policy = HybridPolicy::stm_only();
        let t = Spht::new(cfg);
        txn(&t, 0, |tx| tx.write(Addr(2), 5)).unwrap();
        let r: Result<(), Cancelled> = txn(&t, 0, |tx| {
            tx.write(Addr(2), 99)?;
            Err(Abort::Cancel)
        });
        assert!(r.is_err());
        assert_eq!(t.read_raw(Addr(2)), 5);
        // The lock was released: new transactions proceed.
        txn(&t, 0, |tx| tx.write(Addr(2), 6)).unwrap();
        assert_eq!(t.read_raw(Addr(2)), 6);
    }

    #[test]
    fn ordering_wait_is_recorded_under_concurrency() {
        let t = Arc::new(small());
        let mut handles = Vec::new();
        for tid in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    // Disjoint writes: SPHT still orders their durability.
                    txn(&*t, tid, |tx| tx.write(Addr(100 + tid as u64), i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.stats().commits(), 8_000);
    }
}
