//! The NV-HALT transactional memory engine: hardware fast path with
//! hardware-assisted locking (Figure 5), TL2-style software fallback with
//! Trinity persistence (Figure 1), and the strongly progressive commit
//! protocol (Figure 7).
//!
//! # Protocol summary
//!
//! Every transactional address is protected by a versioned lock
//! ([`crate::lock::LockWord`]). The locks serve a dual purpose (§3.1):
//! they guarantee consistency (threads synchronize on them before reading
//! or modifying an address) *and* they enable durability (an address can
//! be non-durable only while its lock is held).
//!
//! **Software path** (Figure 1): reads record the encounter-time lock word
//! and revalidate the whole read set on every read; writes are buffered.
//! At commit the write-set locks are acquired by CAS from the encounter
//! value, the read set is validated, each write is persisted with the
//! Trinity undo layout and written in place, the thread's persistent
//! version number is bumped and persisted, and only then are the locks
//! released — so no thread can ever read non-durable data (it would have
//! to ignore a held lock to do so).
//!
//! **Hardware path** (Figure 5): reads check that the address's lock is
//! free (or ours); writes *acquire* the lock inside the hardware
//! transaction and log the old value in a thread-local append-only log.
//! Because the transaction only ever acquires locks, the addresses remain
//! locked after `xend` — which is the whole trick: flushes would abort the
//! hardware transaction, so the write set is persisted *after* it
//! completes, under the protection of locks that outlive it.
//!
//! **Strong progress** (Figure 7): commit of a software writer advances a
//! global clock; if the CAS from the start-time value succeeds, no
//! concurrent software writer committed in the interim and full validation
//! can be replaced by a check that no *hardware* transaction bumped any
//! read lock's `hver`.

use crate::config::{NvHaltConfig, Progress};
use crate::heap::Heap;
use crate::lock::{LockWord, MAX_LOCK_THREADS};
use crossbeam::utils::CachePadded;
use htm::{Htm, HtmThread, HtmTxn, Xabort};
use parking_lot::Mutex;
use pmem::annot::AnnotLayout;
use pmem::AnnotPmem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tm::policy::PathChoice;
use tm::stats::{Counter, StatsSnapshot, TmStats};
use tm::{Abort, AbortKind, Addr, Cancelled, Tm, TxResult, Txn, Word};
use txalloc::{AllocConfig, TxAlloc, TxnLog};

/// xabort code: observed a lock held by another thread.
pub const CODE_LOCKED: u32 = 1;
/// xabort code: the transaction body requested a retry.
pub const CODE_USER_RETRY: u32 = 2;
/// xabort code: the transaction body cancelled.
pub const CODE_CANCEL: u32 = 3;

struct RsEntry {
    addr: u64,
    enc: LockWord,
}

struct WsEntry {
    addr: u64,
    enc: LockWord,
    val: u64,
}

pub(crate) struct ThreadState {
    htm_th: HtmThread,
    rset: Vec<RsEntry>,
    wset: Vec<WsEntry>,
    acquired: Vec<(u64, LockWord)>,
    hlog: Vec<(u64, u64)>,
    hlocks: Vec<u64>,
    alloc_log: TxnLog,
    seed: u64,
    /// True between a successful `prepare` and its commit/abort decision.
    prepared: bool,
    /// Undo list of a prepared transaction: `(addr, old value)` per write,
    /// kept so `abort_prepared` can restore both volatile and durable state.
    pundo: Vec<(u64, u64)>,
    /// Scratch for the group-commit flush pass: distinct entry lines of the
    /// write set, flushed once each instead of once per entry.
    flush_lines: Vec<usize>,
}

/// The NV-HALT persistent hybrid transactional memory.
pub struct NvHalt {
    cfg: NvHaltConfig,
    pub(crate) heap: Heap,
    pub(crate) pmem: AnnotPmem,
    htm: Htm,
    pub(crate) alloc: TxAlloc,
    gclock: AtomicU64,
    stats: Arc<TmStats>,
    pub(crate) threads: Vec<CachePadded<Mutex<ThreadState>>>,
}

enum Outcome<R> {
    Committed(R),
    Aborted(AbortKind),
    Cancelled,
}

impl NvHalt {
    /// Create a fresh NV-HALT instance.
    pub fn new(cfg: NvHaltConfig) -> Self {
        assert!(cfg.max_threads >= 1 && cfg.max_threads <= MAX_LOCK_THREADS);
        assert!(cfg.heap_words >= 16);
        let stats = Arc::new(TmStats::new(cfg.max_threads));
        let layout = AnnotLayout {
            heap_words: cfg.heap_words,
            max_threads: cfg.max_threads,
        };
        let pmem = AnnotPmem::new(layout, &cfg.pm, Some(stats.clone()));
        let htm = Htm::new(cfg.htm);
        let heap = Heap::new(cfg.heap_words, cfg.locks);
        let alloc = TxAlloc::new(AllocConfig::new(cfg.heap_words, cfg.max_threads));
        let threads = Self::make_threads(&cfg, &htm);
        NvHalt {
            cfg,
            heap,
            pmem,
            htm,
            alloc,
            gclock: AtomicU64::new(0),
            stats,
            threads,
        }
    }

    fn make_threads(cfg: &NvHaltConfig, htm: &Htm) -> Vec<CachePadded<Mutex<ThreadState>>> {
        (0..cfg.max_threads)
            .map(|t| {
                let cell = CachePadded::new(Mutex::new(ThreadState {
                    htm_th: HtmThread::new(htm, t),
                    rset: Vec::with_capacity(256),
                    wset: Vec::with_capacity(64),
                    acquired: Vec::with_capacity(64),
                    hlog: Vec::with_capacity(64),
                    hlocks: Vec::with_capacity(64),
                    alloc_log: TxnLog::new(),
                    seed: 0xb0ff_0000 ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    prepared: false,
                    pundo: Vec::with_capacity(64),
                    flush_lines: Vec::with_capacity(64),
                }));
                // Commit persists the wset while this cell is held — by
                // design (the cell *is* the transaction), so exempt it
                // from the lock-across-persist rule.
                cell.locksan_label("nvhalt::thread_state", true);
                cell
            })
            .collect()
    }

    pub(crate) fn from_parts(
        cfg: NvHaltConfig,
        heap: Heap,
        pmem: AnnotPmem,
        alloc: TxAlloc,
        stats: Arc<TmStats>,
    ) -> Self {
        let htm = Htm::new(cfg.htm);
        let threads = Self::make_threads(&cfg, &htm);
        NvHalt {
            cfg,
            heap,
            pmem,
            htm,
            alloc,
            gclock: AtomicU64::new(0),
            stats,
            threads,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NvHaltConfig {
        &self.cfg
    }

    /// Access to the persistent pool (crash control, snapshots).
    pub fn pmem(&self) -> &AnnotPmem {
        &self.pmem
    }

    /// Simulate a power failure.
    pub fn crash(&self) {
        self.pmem.pool().crash();
    }

    /// Per-thread allocation outside transactions (setup code): allocate
    /// and immediately commit.
    pub fn alloc_raw(&self, tid: usize, words: usize) -> Addr {
        let mut log = TxnLog::new();
        let a = self
            .alloc
            .alloc(tid, words, &mut log)
            .expect("transactional heap exhausted");
        self.alloc.commit(tid, &mut log);
        Addr(a)
    }

    #[inline]
    fn check_addr(&self, a: Addr) -> Result<usize, Abort> {
        // Out-of-range addresses can legitimately occur in doomed
        // (zombie) hardware attempts; they surface as retries, matching
        // real HTM's eager abort.
        let idx = a.index();
        if idx == 0 || !self.heap.in_range(idx) {
            return Err(Abort::CONFLICT);
        }
        Ok(idx)
    }

    // ------------------------------------------------------------------
    // Hardware path (Figure 5)
    // ------------------------------------------------------------------

    fn attempt_hw<R>(
        &self,
        ts: &mut ThreadState,
        tid: usize,
        attempt: usize,
        body: &mut dyn FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> Outcome<R> {
        ts.hlog.clear();
        ts.hlocks.clear();
        debug_assert!(ts.alloc_log.is_empty());
        let mut cancelled = false;
        let mut oom = false;
        let res = {
            let hlog = &mut ts.hlog;
            let hlocks = &mut ts.hlocks;
            let alloc_log = &mut ts.alloc_log;
            let htm_th = &mut ts.htm_th;
            let oom = &mut oom;
            let cancelled = &mut cancelled;
            self.htm.execute(htm_th, |htx| {
                let mut tx = HwTxn {
                    tm: self,
                    tid,
                    attempt,
                    htx,
                    hlog,
                    hlocks,
                    alloc_log,
                    oom,
                    htm_aborted: false,
                };
                match body(&mut tx) {
                    Ok(r) => Ok(r),
                    Err(Abort::Retry(_)) if tx.htm_aborted => Err(Xabort),
                    Err(Abort::Retry(_)) => Err(tx.htx.xabort(CODE_USER_RETRY)),
                    Err(Abort::Cancel) => {
                        *cancelled = true;
                        Err(tx.htx.xabort(CODE_CANCEL))
                    }
                }
            })
        };
        match res {
            Ok(r) => {
                // Committed in volatile memory; the written addresses are
                // still locked (hardware-assisted locking), so persist
                // them now and only then release (§3.4).
                if self.cfg.persist_hw && !ts.hlog.is_empty() {
                    self.persist_hw_commit(tid, ts);
                }
                self.alloc.commit(tid, &mut ts.alloc_log);
                self.stats.bump(tid, Counter::HwCommit);
                Outcome::Committed(r)
            }
            Err(kind) => {
                self.alloc.abort(tid, &mut ts.alloc_log);
                if oom {
                    panic!("transactional heap exhausted (hardware path)");
                }
                if cancelled {
                    self.stats.bump(tid, Counter::Cancelled);
                    return Outcome::Cancelled;
                }
                let counter = match kind {
                    AbortKind::Conflict => Counter::HwConflict,
                    AbortKind::Capacity => Counter::HwCapacity,
                    AbortKind::Spurious => Counter::HwSpurious,
                    // Lock-observed and user-requested aborts are
                    // conflict-justified in the paper's progress terms.
                    AbortKind::Explicit(CODE_LOCKED | CODE_USER_RETRY) => Counter::HwConflict,
                    AbortKind::Explicit(_) => Counter::HwExplicit,
                };
                self.stats.bump(tid, counter);
                Outcome::Aborted(kind)
            }
        }
    }

    /// Persist a completed hardware transaction's write set, bump and
    /// persist the thread's pver, then release the locks (Figure 5,
    /// commit epilogue) — as a one-fence group commit
    /// ([`AnnotPmem::stage`], then [`AnnotPmem::commit`]).
    fn persist_hw_commit(&self, tid: usize, ts: &mut ThreadState) {
        let _psan = self.pmem.pool().psan_scope(tid, "nvhalt::hw_commit");
        let heap = &self.heap;
        // Stable: the addresses stay locked by us until the release below.
        let writes = ts.hlog.iter().map(|&(a, old)| {
            let new = heap.data_cell(a as usize).load(Ordering::Acquire);
            (a as usize, old, new)
        });
        let count = self.pmem.stage(tid, writes, &mut ts.flush_lines);
        self.pmem.commit(tid, count);
        for &a in &ts.hlocks {
            let cell = self.heap.lock_cell(a as usize);
            let cur = LockWord(self.htm.nt_load(cell));
            debug_assert!(cur.is_locked_by(tid), "releasing a lock we do not hold");
            self.htm.nt_store(cell, cur.released().0);
        }
    }

    // ------------------------------------------------------------------
    // Software path (Figures 1 and 7)
    // ------------------------------------------------------------------

    fn attempt_sw<R>(
        &self,
        ts: &mut ThreadState,
        tid: usize,
        attempt: usize,
        body: &mut dyn FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> Outcome<R> {
        ts.rset.clear();
        ts.wset.clear();
        debug_assert!(ts.alloc_log.is_empty());
        let rv = match self.cfg.progress {
            Progress::Strong => self.gclock.load(Ordering::Acquire),
            Progress::Weak => 0,
        };
        let mut oom = false;
        let body_res = {
            let mut tx = SwTxn {
                tm: self,
                tid,
                attempt,
                rset: &mut ts.rset,
                wset: &mut ts.wset,
                alloc_log: &mut ts.alloc_log,
                oom: &mut oom,
            };
            body(&mut tx)
        };
        if oom {
            self.alloc.abort(tid, &mut ts.alloc_log);
            panic!("transactional heap exhausted (software path)");
        }
        match body_res {
            Ok(r) => match self.sw_commit(tid, ts, rv) {
                Ok(()) => {
                    self.alloc.commit(tid, &mut ts.alloc_log);
                    self.stats.bump(tid, Counter::SwCommit);
                    Outcome::Committed(r)
                }
                Err(()) => {
                    self.alloc.abort(tid, &mut ts.alloc_log);
                    self.stats.bump(tid, Counter::SwAbort);
                    Outcome::Aborted(AbortKind::Conflict)
                }
            },
            Err(Abort::Retry(kind)) => {
                self.alloc.abort(tid, &mut ts.alloc_log);
                self.stats.bump(tid, Counter::SwAbort);
                Outcome::Aborted(kind)
            }
            Err(Abort::Cancel) => {
                self.alloc.abort(tid, &mut ts.alloc_log);
                self.stats.bump(tid, Counter::Cancelled);
                Outcome::Cancelled
            }
        }
    }

    /// Figure 1 TxCommit (plus the Figure 7 changes under `Strong`).
    fn sw_commit(&self, tid: usize, ts: &mut ThreadState, rv: u64) -> Result<(), ()> {
        if ts.wset.is_empty() {
            // Read-only: incremental validation already established a
            // consistent snapshot at the last read (Figure 1 line 12).
            return Ok(());
        }
        if self.cfg.progress == Progress::Strong {
            // Fixed acquisition order avoids write-write livelock (§3.6).
            let heap = &self.heap;
            ts.wset.sort_by_key(|e| {
                (
                    heap.lock_cell(e.addr as usize) as *const AtomicU64 as usize,
                    e.addr,
                )
            });
        }

        // Acquire write-set locks by CAS from the encounter value.
        ts.acquired.clear();
        // A fresh acquisition sequence: clears any stale stripe state a
        // crash unwind left behind mid-commit.
        #[cfg(feature = "locksan")]
        locksan::on_stripe_release_all();
        for e in &ts.wset {
            let cell = self.heap.lock_cell(e.addr as usize);
            if let Some(&(_, pre)) = ts
                .acquired
                .iter()
                .find(|(a, _)| std::ptr::eq(self.heap.lock_cell(*a as usize), cell))
            {
                // Another address sharing this (table-mapped) lock: the
                // encounter values must agree, else the lock cycled
                // between the two encounters.
                if pre != e.enc {
                    self.sw_release(ts, false);
                    return Err(());
                }
                continue;
            }
            match self.htm.nt_cas(cell, e.enc.0, e.enc.sw_acquired(tid).0) {
                Ok(_) => {
                    // Strong sorts the wset by the canonical key, so the
                    // distinct cells acquired here must rank upward; Weak
                    // try-locks unordered and claims nothing.
                    #[cfg(feature = "locksan")]
                    locksan::on_stripe_acquire(
                        cell as *const AtomicU64 as usize as u64,
                        self.cfg.progress == Progress::Strong,
                        "nvhalt::sw_commit",
                    );
                    ts.acquired.push((e.addr, e.enc))
                }
                Err(_) => {
                    self.stats.bump(tid, Counter::StripeContended);
                    self.sw_release(ts, false);
                    return Err(());
                }
            }
        }

        // Validate the read set — skippable under Strong when the global
        // clock CAS shows no concurrent software writer committed, in
        // which case only hardware-version checks are needed (Figure 7).
        let mut skip_validation = false;
        if self.cfg.progress == Progress::Strong {
            pmem::latency::spin_ns(self.cfg.clock_ns);
        }
        if self.cfg.progress == Progress::Strong
            && self
                .gclock
                .compare_exchange(rv, rv + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            skip_validation = true;
            for r in &ts.rset {
                let cur = LockWord(self.htm.nt_load(self.heap.lock_cell(r.addr as usize)));
                // A foreign-held lock (a software writer or a prepared
                // transaction mid-decision) may release with an unchanged
                // hver, so the hver check alone cannot clear it.
                if cur.hver() != r.enc.hver() || (cur.is_locked() && cur.owner() != tid) {
                    self.sw_release(ts, false);
                    return Err(());
                }
            }
        }
        if !skip_validation {
            for r in &ts.rset {
                let cur = LockWord(self.htm.nt_load(self.heap.lock_cell(r.addr as usize)));
                if !LockWord::validates_against(cur, r.enc, tid) {
                    self.sw_release(ts, false);
                    return Err(());
                }
            }
            if self.cfg.progress == Progress::Strong {
                // Every committing software writer must advance the clock
                // *before* its writes become visible: a reader that later
                // wins the CAS from its own start value may then trust
                // that no software writer committed inside its window.
                self.gclock.fetch_add(1, Ordering::AcqRel);
            }
        }

        // Guaranteed to commit: persist and apply the write set while the
        // locks are held (Figure 1 lines 16–21), as a one-fence group
        // commit over the whole write set.
        let _psan = self.pmem.pool().psan_scope(tid, "nvhalt::sw_commit");
        let heap = &self.heap;
        let writes = ts.wset.iter().map(|e| {
            let old = heap.data_cell(e.addr as usize).load(Ordering::Acquire);
            (e.addr as usize, old, e.val)
        });
        let count = self.pmem.stage(tid, writes, &mut ts.flush_lines);
        for e in &ts.wset {
            heap.data_cell(e.addr as usize)
                .store(e.val, Ordering::Release);
        }
        self.pmem.commit(tid, count);
        self.sw_release(ts, true);
        Ok(())
    }

    /// Release commit-time locks: on commit bump to the next even version;
    /// on abort restore the pre-acquire word (nothing was written).
    fn sw_release(&self, ts: &mut ThreadState, commit: bool) {
        for &(a, pre) in &ts.acquired {
            let cell = self.heap.lock_cell(a as usize);
            let word = if commit {
                // held = pre.sw_acquired(tid); released bumps sver again.
                LockWord(self.htm.nt_load(cell)).released()
            } else {
                pre
            };
            self.htm.nt_store(cell, word.0);
        }
        ts.acquired.clear();
        #[cfg(feature = "locksan")]
        locksan::on_stripe_release_all();
    }

    // ------------------------------------------------------------------
    // Prepared transactions (two-phase commit participant)
    // ------------------------------------------------------------------

    fn attempt_prepare<R>(
        &self,
        ts: &mut ThreadState,
        tid: usize,
        attempt: usize,
        body: &mut dyn FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> Outcome<R> {
        ts.rset.clear();
        ts.wset.clear();
        debug_assert!(ts.alloc_log.is_empty());
        let rv = match self.cfg.progress {
            Progress::Strong => self.gclock.load(Ordering::Acquire),
            Progress::Weak => 0,
        };
        let mut oom = false;
        let body_res = {
            let mut tx = SwTxn {
                tm: self,
                tid,
                attempt,
                rset: &mut ts.rset,
                wset: &mut ts.wset,
                alloc_log: &mut ts.alloc_log,
                oom: &mut oom,
            };
            body(&mut tx)
        };
        if oom {
            self.alloc.abort(tid, &mut ts.alloc_log);
            panic!("transactional heap exhausted (prepare)");
        }
        match body_res {
            Ok(r) => match self.sw_prepare(tid, ts, rv) {
                Ok(()) => {
                    // The allocation log stays pending (and the SwCommit /
                    // Cancelled stat unbumped) until the decision.
                    ts.prepared = true;
                    Outcome::Committed(r)
                }
                Err(()) => {
                    self.alloc.abort(tid, &mut ts.alloc_log);
                    self.stats.bump(tid, Counter::SwAbort);
                    Outcome::Aborted(AbortKind::Conflict)
                }
            },
            Err(Abort::Retry(kind)) => {
                self.alloc.abort(tid, &mut ts.alloc_log);
                self.stats.bump(tid, Counter::SwAbort);
                Outcome::Aborted(kind)
            }
            Err(Abort::Cancel) => {
                self.alloc.abort(tid, &mut ts.alloc_log);
                self.stats.bump(tid, Counter::Cancelled);
                Outcome::Cancelled
            }
        }
    }

    /// The Figure 1 commit protocol stopped at the point of no return:
    /// locks over the write set **and** the read set are acquired, the
    /// write set is persisted and applied in place, but the thread's
    /// persistent version is not advanced and nothing is released.
    ///
    /// Because every staged entry is stamped with the *current* pver, a
    /// crash in this state rolls the writes back (recovery sees
    /// `ver >= durable_pver`); because the locks stay held, no other
    /// transaction can observe them. Read locks are taken too so the
    /// prepared snapshot stays pinned until the coordinator's decision.
    fn sw_prepare(&self, tid: usize, ts: &mut ThreadState, rv: u64) -> Result<(), ()> {
        let heap = &self.heap;
        // Acquisition plan over wset ∪ rset, deduplicated by lock cell.
        // Fixed (cell, addr) order avoids livelock between preparers.
        let mut plan: Vec<(usize, u64, LockWord)> = ts
            .wset
            .iter()
            .map(|e| (e.addr, e.enc))
            .chain(ts.rset.iter().map(|r| (r.addr, r.enc)))
            .map(|(a, enc)| {
                (
                    heap.lock_cell(a as usize) as *const AtomicU64 as usize,
                    a,
                    enc,
                )
            })
            .collect();
        plan.sort_unstable_by_key(|&(cell, addr, _)| (cell, addr));
        ts.acquired.clear();
        #[cfg(feature = "locksan")]
        locksan::on_stripe_release_all();
        let mut last_cell: Option<(usize, LockWord)> = None;
        for &(cell_id, addr, enc) in &plan {
            if let Some((lc, lenc)) = last_cell {
                if lc == cell_id {
                    // Another address sharing this (table-mapped) lock:
                    // the encounter values must agree, else the lock
                    // cycled between the two encounters.
                    if lenc != enc {
                        self.sw_release(ts, false);
                        return Err(());
                    }
                    continue;
                }
            }
            last_cell = Some((cell_id, enc));
            let cell = heap.lock_cell(addr as usize);
            match self.htm.nt_cas(cell, enc.0, enc.sw_acquired(tid).0) {
                Ok(_) => {
                    // The plan is always (cell, addr)-sorted: preparers
                    // claim canonical order regardless of progress mode.
                    #[cfg(feature = "locksan")]
                    locksan::on_stripe_acquire(cell_id as u64, true, "nvhalt::sw_prepare");
                    ts.acquired.push((addr, enc))
                }
                Err(_) => {
                    self.stats.bump(tid, Counter::StripeContended);
                    self.sw_release(ts, false);
                    return Err(());
                }
            }
        }
        // CAS-from-encounter success on every read-set lock *is* the read
        // validation: nothing changed since the encounter, and nothing
        // can change until release. Publish on the global clock like any
        // committing software writer (see sw_commit).
        if self.cfg.progress == Progress::Strong && !ts.wset.is_empty() {
            pmem::latency::spin_ns(self.cfg.clock_ns);
            if self
                .gclock
                .compare_exchange(rv, rv + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                self.gclock.fetch_add(1, Ordering::AcqRel);
            }
        }
        // Stage the writes durably *below* the current pver, with one
        // coalesced flush pass over the write set's distinct entry lines.
        let _psan = self.pmem.pool().psan_scope(tid, "nvhalt::prepare");
        ts.pundo.clear();
        ts.pundo.extend(ts.wset.iter().map(|e| {
            (
                e.addr,
                heap.data_cell(e.addr as usize).load(Ordering::Acquire),
            )
        }));
        let writes = ts
            .pundo
            .iter()
            .zip(&ts.wset)
            .map(|(&(a, old), e)| (a as usize, old, e.val));
        self.pmem.stage(tid, writes, &mut ts.flush_lines);
        for e in &ts.wset {
            heap.data_cell(e.addr as usize)
                .store(e.val, Ordering::Release);
        }
        self.pmem.sfence(tid);
        // The coordinator may record its durable decision as soon as
        // `prepare` returns: every staged entry must already be fenced.
        self.pmem
            .pool()
            .durability_point(tid, "nvhalt::prepare_staged");
        Ok(())
    }

    /// Aggregate statistics handle (shared with the pmem pool).
    pub fn stats_handle(&self) -> Arc<TmStats> {
        self.stats.clone()
    }

    // ------------------------------------------------------------------
    // Two-phase commit participant
    // ------------------------------------------------------------------

    /// Run `body` and leave its transaction **prepared** instead of
    /// committed: executed and durably staged, but neither committed nor
    /// aborted, with its locks still held. This is the participant half
    /// of two-phase commit; until the coordinator decides, the prepared
    /// transaction is
    ///
    /// 1. **invisible** — no other transaction can read or overwrite any
    ///    address it touched (its read and write locks are held);
    /// 2. **crash-aborting** — if the process crashes before
    ///    [`NvHalt::commit_prepared`], recovery rolls the prepared writes
    ///    back (they are staged below the thread's durable version);
    /// 3. **decidable** — [`NvHalt::commit_prepared`] makes the writes
    ///    durable and visible; [`NvHalt::abort_prepared`] durably
    ///    restores the pre-transaction values. Both release the locks.
    ///
    /// While `tid` has a prepared transaction outstanding it must not
    /// start another transaction (prepared or not); both entry points
    /// assert this. Retries conflicting attempts like [`Tm::txn`]; returns
    /// `Err(Cancelled)` (with nothing held) if the body cancels.
    pub fn prepare<R>(
        &self,
        tid: usize,
        mut body: impl FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> TxResult<R> {
        assert!(tid < self.cfg.max_threads, "tid out of range");
        let mut guard = self.threads[tid].lock();
        let ts = &mut *guard;
        assert!(
            !ts.prepared,
            "prepare while a prepared transaction is outstanding"
        );
        // Always the software path: the hardware path does not lock its
        // read set, so it cannot pin a cross-TM snapshot until a decision.
        let mut attempt = 0usize;
        loop {
            self.pmem.pool().crash_point(tid);
            match self.attempt_prepare(ts, tid, attempt, &mut body) {
                Outcome::Committed(r) => return Ok(r),
                Outcome::Cancelled => return Err(Cancelled),
                Outcome::Aborted(_) => {
                    ts.seed = ts.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    self.cfg.policy.backoff(ts.seed, attempt);
                }
            }
            attempt += 1;
        }
    }

    /// Make `tid`'s prepared transaction durable and visible, and release
    /// its locks.
    pub fn commit_prepared(&self, tid: usize) {
        let mut guard = self.threads[tid].lock();
        let ts = &mut *guard;
        assert!(ts.prepared, "commit_prepared without a prepared txn");
        self.pmem.pool().crash_point(tid);
        // Advancing the durable pver past the staged entries *is* the
        // commit: from here recovery keeps them (Figure 1 epilogue).
        let _psan = self.pmem.pool().psan_scope(tid, "nvhalt::commit_prepared");
        self.pmem.mark(tid);
        self.sw_release(ts, true);
        self.alloc.commit(tid, &mut ts.alloc_log);
        ts.pundo.clear();
        ts.prepared = false;
        self.stats.bump(tid, Counter::SwCommit);
    }

    /// Durably roll `tid`'s prepared transaction back, and release its
    /// locks.
    pub fn abort_prepared(&self, tid: usize) {
        let mut guard = self.threads[tid].lock();
        let ts = &mut *guard;
        assert!(ts.prepared, "abort_prepared without a prepared txn");
        // Restore the volatile heap, then re-stage each entry so both its
        // data and back fields hold the pre-transaction value.
        let _psan = self.pmem.pool().psan_scope(tid, "nvhalt::abort_prepared");
        for &(a, old) in &ts.pundo {
            self.heap
                .data_cell(a as usize)
                .store(old, Ordering::Release);
        }
        let writes = ts.pundo.iter().map(|&(a, old)| (a as usize, old, old));
        self.pmem.stage(tid, writes, &mut ts.flush_lines);
        self.pmem.sfence(tid);
        // Consume the generation the aborted entries are stamped with.
        if !ts.pundo.is_empty() {
            self.pmem.mark(tid);
        }
        // Release with a version bump (not the pre-acquire word): the data
        // words changed while locked, so restoring the encounter value
        // would let a stale reader validate across the blip.
        self.sw_release(ts, true);
        self.alloc.abort(tid, &mut ts.alloc_log);
        ts.pundo.clear();
        ts.prepared = false;
        self.stats.bump(tid, Counter::Cancelled);
    }

    /// True if `tid` has a prepared transaction outstanding.
    pub fn has_prepared(&self, tid: usize) -> bool {
        self.threads[tid].lock().prepared
    }
}

impl Tm for NvHalt {
    fn txn<R>(
        &self,
        tid: usize,
        body: &mut dyn FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> TxResult<R> {
        assert!(tid < self.cfg.max_threads, "tid out of range");
        let mut guard = self.threads[tid].lock();
        let ts = &mut *guard;
        assert!(
            !ts.prepared,
            "txn while a prepared transaction is outstanding"
        );
        let mut attempt = 0usize;
        let mut capacity_aborts = 0usize;
        loop {
            self.pmem.pool().crash_point(tid);
            let choice = self.cfg.policy.choose(attempt, capacity_aborts);
            let outcome = match choice {
                PathChoice::Hw => self.attempt_hw(ts, tid, attempt, body),
                PathChoice::Sw => self.attempt_sw(ts, tid, attempt, body),
            };
            match outcome {
                Outcome::Committed(r) => return Ok(r),
                Outcome::Cancelled => return Err(Cancelled),
                Outcome::Aborted(kind) => {
                    if kind == AbortKind::Capacity {
                        capacity_aborts += 1;
                    }
                    if choice == PathChoice::Sw {
                        ts.seed = ts.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        self.cfg.policy.backoff(ts.seed, attempt);
                    }
                }
            }
            attempt += 1;
        }
    }

    fn max_threads(&self) -> usize {
        self.cfg.max_threads
    }

    fn read_raw(&self, a: Addr) -> Word {
        self.heap.data_cell(a.index()).load(Ordering::Acquire)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn name(&self) -> &'static str {
        self.cfg.variant_name()
    }
}

// ----------------------------------------------------------------------
// Hardware-path transaction wrapper
// ----------------------------------------------------------------------

struct HwTxn<'a, 'env, 't> {
    tm: &'env NvHalt,
    tid: usize,
    attempt: usize,
    htx: &'a mut HtmTxn<'env, 't>,
    hlog: &'a mut Vec<(u64, u64)>,
    hlocks: &'a mut Vec<u64>,
    alloc_log: &'a mut TxnLog,
    oom: &'a mut bool,
    htm_aborted: bool,
}

impl<'a, 'env, 't> HwTxn<'a, 'env, 't> {
    /// Map an HTM-level abort into the TM abort type, remembering that the
    /// hardware attempt is already dead (so the driver must not xabort
    /// again and overwrite the recorded kind).
    #[inline]
    fn lift<T>(&mut self, r: Result<T, Xabort>) -> Result<T, Abort> {
        r.map_err(|Xabort| {
            self.htm_aborted = true;
            Abort::CONFLICT
        })
    }

    #[inline]
    fn xab(&mut self, code: u32) -> Abort {
        let Xabort = self.htx.xabort(code);
        self.htm_aborted = true;
        Abort::CONFLICT
    }
}

impl<'a, 'env, 't> Txn for HwTxn<'a, 'env, 't> {
    fn read(&mut self, a: Addr) -> Result<Word, Abort> {
        let idx = self.tm.check_addr(a)?;
        let lock = self.tm.heap.lock_cell(idx);
        // Colocated locks share the data word's cache line: the lock and
        // the value arrive with one tracked line access (the CL layout's
        // prefetching benefit, §4).
        let (lv, val) = if self.tm.heap.is_colocated() {
            let r = self.htx.read2(lock, self.tm.heap.data_cell(idx));
            let (l, v) = self.lift(r)?;
            (LockWord(l), v)
        } else {
            let r = self.htx.read(lock);
            let l = LockWord(self.lift(r)?);
            if l.is_locked() && l.owner() != self.tid {
                return Err(self.xab(CODE_LOCKED));
            }
            let r = self.htx.read(self.tm.heap.data_cell(idx));
            (l, self.lift(r)?)
        };
        if lv.is_locked() && lv.owner() != self.tid {
            return Err(self.xab(CODE_LOCKED));
        }
        Ok(val)
    }

    fn write(&mut self, a: Addr, v: Word) -> Result<(), Abort> {
        let idx = self.tm.check_addr(a)?;
        let lock = self.tm.heap.lock_cell(idx);
        let persist = self.tm.config().persist_hw;
        if persist && self.tm.heap.is_colocated() {
            // One tracked line carries the lock and the old value.
            let r = self.htx.read2(lock, self.tm.heap.data_cell(idx));
            let (l, old) = self.lift(r)?;
            let lv = LockWord(l);
            if lv.is_locked() && lv.owner() != self.tid {
                return Err(self.xab(CODE_LOCKED));
            }
            if !lv.is_locked() {
                let r = self.htx.write(lock, lv.hw_acquired(self.tid).0);
                self.lift(r)?;
                self.hlocks.push(a.0);
                // Colocated: one lock per address, so a fresh acquisition
                // means this address was not logged yet.
                self.hlog.push((a.0, old));
            }
        } else {
            let r = self.htx.read(lock);
            let lv = LockWord(self.lift(r)?);
            if lv.is_locked() && lv.owner() != self.tid {
                return Err(self.xab(CODE_LOCKED));
            }
            if persist {
                if !lv.is_locked() {
                    let r = self.htx.write(lock, lv.hw_acquired(self.tid).0);
                    self.lift(r)?;
                    self.hlocks.push(a.0);
                }
                if !self.hlog.iter().any(|&(addr, _)| addr == a.0) {
                    let r = self.htx.read(self.tm.heap.data_cell(idx));
                    let old = self.lift(r)?;
                    self.hlog.push((a.0, old));
                }
            }
        }
        let r = self.htx.write(self.tm.heap.data_cell(idx), v);
        self.lift(r)
    }

    fn alloc(&mut self, words: usize) -> Result<Addr, Abort> {
        match self.tm.alloc.alloc(self.tid, words, self.alloc_log) {
            Some(a) => Ok(Addr(a)),
            None => {
                *self.oom = true;
                Err(self.xab(CODE_USER_RETRY))
            }
        }
    }

    fn free(&mut self, a: Addr, words: usize) -> Result<(), Abort> {
        self.tm.alloc.free(a.0, words, self.alloc_log);
        Ok(())
    }

    fn is_hw(&self) -> bool {
        true
    }

    fn attempt(&self) -> usize {
        self.attempt
    }
}

// ----------------------------------------------------------------------
// Software-path transaction wrapper
// ----------------------------------------------------------------------

struct SwTxn<'a> {
    tm: &'a NvHalt,
    tid: usize,
    attempt: usize,
    rset: &'a mut Vec<RsEntry>,
    wset: &'a mut Vec<WsEntry>,
    alloc_log: &'a mut TxnLog,
    oom: &'a mut bool,
}

impl<'a> SwTxn<'a> {
    /// Figure 1's `validate(sRdSet)`: every read-set lock still carries
    /// its encounter value (no commit-time self-locks exist during the
    /// read phase, so plain equality suffices).
    fn validate(&self) -> bool {
        self.rset.iter().all(|r| {
            let cur = LockWord(self.tm.htm.nt_load(self.tm.heap.lock_cell(r.addr as usize)));
            cur == r.enc
        })
    }
}

impl<'a> Txn for SwTxn<'a> {
    fn read(&mut self, a: Addr) -> Result<Word, Abort> {
        let idx = self.tm.check_addr(a)?;
        pmem::latency::spin_ns(self.tm.cfg.instr_ns);
        if let Some(e) = self.wset.iter().rev().find(|e| e.addr == a.0) {
            return Ok(e.val);
        }
        let lv = LockWord(self.tm.htm.nt_load(self.tm.heap.lock_cell(idx)));
        if lv.is_locked() {
            return Err(Abort::CONFLICT);
        }
        let val = self.tm.heap.data_cell(idx).load(Ordering::Acquire);
        self.rset.push(RsEntry { addr: a.0, enc: lv });
        if !self.validate() {
            return Err(Abort::CONFLICT);
        }
        Ok(val)
    }

    fn write(&mut self, a: Addr, v: Word) -> Result<(), Abort> {
        let idx = self.tm.check_addr(a)?;
        pmem::latency::spin_ns(self.tm.cfg.instr_ns);
        if let Some(e) = self.wset.iter_mut().rev().find(|e| e.addr == a.0) {
            e.val = v;
            return Ok(());
        }
        let lv = LockWord(self.tm.htm.nt_load(self.tm.heap.lock_cell(idx)));
        if lv.is_locked() {
            return Err(Abort::CONFLICT);
        }
        self.wset.push(WsEntry {
            addr: a.0,
            enc: lv,
            val: v,
        });
        Ok(())
    }

    fn alloc(&mut self, words: usize) -> Result<Addr, Abort> {
        match self.tm.alloc.alloc(self.tid, words, self.alloc_log) {
            Some(a) => Ok(Addr(a)),
            None => {
                *self.oom = true;
                Err(Abort::CONFLICT)
            }
        }
    }

    fn free(&mut self, a: Addr, words: usize) -> Result<(), Abort> {
        self.tm.alloc.free(a.0, words, self.alloc_log);
        Ok(())
    }

    fn is_hw(&self) -> bool {
        false
    }

    fn attempt(&self) -> usize {
        self.attempt
    }
}
