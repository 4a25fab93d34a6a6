//! TrinityVR-TL2: the state-of-the-art persistent *software* TM the paper
//! compares against (§2.1.2, §5.1).
//!
//! Concurrency control is TL2 (Dice, Shalev, Shavit): a global version
//! clock, versioned write locks, invisible reads validated against the
//! clock, buffered writes with commit-time locking in a fixed order
//! (hence strong progressiveness), and the classic optimisation that
//! read-set re-validation is skipped when the clock advanced by exactly
//! one (no concurrent writer committed).
//!
//! Persistence is Trinity: every word's persistent image is an annotated
//! cache line `{data, back, seq}` (shared with NV-HALT via
//! [`pmem::annot`]); a committing writer persists `back = old`,
//! `seq = {tid, pver}`, `data = new` per word, fences, then bumps and
//! persists its per-thread persistent version number before releasing its
//! locks. Recovery reverts every word whose `seq` was not superseded —
//! identical undo semantics to NV-HALT's software path, which is exactly
//! the point: the paper adopted Trinity's mechanism for NV-HALT, so the
//! baseline and the contribution share their persistence engine and the
//! comparison isolates the concurrency-control and fast-path differences.
//!
//! The TL2 lock word is `(version << 1) | locked`: version is the global
//! clock value of the last writer, the low bit is the lock.

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use pmem::annot::{AnnotLayout, PVER_COUNT_TRUSTED};
use pmem::pool::{DurableImage, PmemConfig};
use pmem::{AnnotPmem, Meta};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tm::policy::HybridPolicy;
use tm::stats::{Counter, StatsSnapshot, TmStats};
use tm::{Abort, Addr, Cancelled, Tm, TxResult, Txn, Word};
use txalloc::{AllocConfig, TxAlloc, TxnLog};

/// Trinity configuration.
#[derive(Clone, Debug)]
pub struct TrinityConfig {
    /// Transactional heap size in words.
    pub heap_words: usize,
    /// Thread slots.
    pub max_threads: usize,
    /// log2 of the lock-table size.
    pub locks_log2: u32,
    /// Software retry backoff (the hardware fields are unused).
    pub policy: HybridPolicy,
    /// Persistent-memory settings (`words`/`max_threads` overridden).
    pub pm: PmemConfig,
    /// Simulation cost model: ns per instrumented access (see the same
    /// field on `NvHaltConfig`; zero for functional testing).
    pub instr_ns: u32,
    /// Simulation cost model: ns per global-version-clock RMW.
    pub clock_ns: u32,
}

impl TrinityConfig {
    /// Functional-test defaults (zero latency, eager flushes).
    pub fn test(heap_words: usize, max_threads: usize) -> Self {
        TrinityConfig {
            heap_words,
            max_threads,
            locks_log2: 16,
            policy: HybridPolicy::stm_only(),
            pm: PmemConfig::test(0, max_threads),
            instr_ns: 0,
            clock_ns: 0,
        }
    }
}

struct ThreadState {
    rset: Vec<u32>,
    wset: Vec<(u64, u64)>,
    acquired: Vec<(u32, u64)>,
    alloc_log: TxnLog,
    pver: u64,
    seed: u64,
    /// Scratch for the group-commit flush pass: distinct entry lines of the
    /// write set, flushed once each instead of once per entry.
    flush_lines: Vec<usize>,
}

/// The TrinityVR-TL2 persistent STM.
pub struct Trinity {
    cfg: TrinityConfig,
    vol: Box<[AtomicU64]>,
    locks: Box<[AtomicU64]>,
    gvc: AtomicU64,
    pmem: AnnotPmem,
    alloc: TxAlloc,
    stats: Arc<TmStats>,
    threads: Vec<CachePadded<Mutex<ThreadState>>>,
}

#[inline]
fn lock_ver(l: u64) -> u64 {
    l >> 1
}

#[inline]
fn lock_held(l: u64) -> bool {
    l & 1 == 1
}

impl Trinity {
    /// Create a fresh instance.
    pub fn new(cfg: TrinityConfig) -> Self {
        let stats = Arc::new(TmStats::new(cfg.max_threads));
        Self::build(cfg, stats, None, &[])
    }

    fn build(
        cfg: TrinityConfig,
        stats: Arc<TmStats>,
        image: Option<&DurableImage>,
        pvers: &[u64],
    ) -> Self {
        let layout = AnnotLayout {
            heap_words: cfg.heap_words,
            max_threads: cfg.max_threads,
        };
        let pmem = match image {
            None => AnnotPmem::new(layout, &cfg.pm, Some(stats.clone())),
            Some(img) => AnnotPmem::from_image(layout, &cfg.pm, img, Some(stats.clone())),
        };
        let threads = (0..cfg.max_threads)
            .map(|t| {
                let cell = CachePadded::new(Mutex::new(ThreadState {
                    rset: Vec::with_capacity(256),
                    wset: Vec::with_capacity(64),
                    acquired: Vec::with_capacity(64),
                    alloc_log: TxnLog::new(),
                    pver: pvers.get(t).copied().unwrap_or(0),
                    seed: (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    flush_lines: Vec::with_capacity(64),
                }));
                // Commit persists the write set while this cell is held
                // — by design; exempt from the lock-across-persist rule.
                cell.locksan_label("trinity::thread_state", true);
                cell
            })
            .collect();
        Trinity {
            vol: (0..cfg.heap_words).map(|_| AtomicU64::new(0)).collect(),
            locks: (0..1usize << cfg.locks_log2)
                .map(|_| AtomicU64::new(0))
                .collect(),
            gvc: AtomicU64::new(0),
            alloc: TxAlloc::new(AllocConfig::new(cfg.heap_words, cfg.max_threads)),
            stats,
            threads,
            pmem,
            cfg,
        }
    }

    /// TL2's lock-table mapping: consecutive addresses, consecutive locks.
    #[inline]
    fn lock_idx(&self, a: usize) -> u32 {
        (a & (self.locks.len() - 1)) as u32
    }

    /// Access to the persistent pool (crash control).
    pub fn pmem(&self) -> &AnnotPmem {
        &self.pmem
    }

    /// Simulate a power failure.
    pub fn crash(&self) {
        self.pmem.pool().crash();
    }

    /// Capture the durable image after a crash.
    pub fn crash_image(&self) -> DurableImage {
        assert!(self.pmem.pool().is_crashed());
        self.pmem.pool().snapshot_durable()
    }

    /// Recover from a crash image, rebuilding the allocator from the
    /// caller's live-block iterator.
    pub fn recover(
        cfg: TrinityConfig,
        image: &DurableImage,
        used_blocks: impl IntoIterator<Item = (u64, usize)>,
    ) -> Trinity {
        let layout = AnnotLayout {
            heap_words: cfg.heap_words,
            max_threads: cfg.max_threads,
        };
        let stats = Arc::new(TmStats::new(cfg.max_threads));
        // Thresholds fold in the counted-marker check: a one-fence commit
        // whose marker is durable but whose generation is missing pad
        // witnesses is torn, and the whole generation (threshold - 1 = its
        // stamp) rolls back. The verdicts are pinned durably before any
        // neutralization destroys the evidence they came from.
        let pvers = layout.revert_thresholds(image);
        let tm = Self::build(cfg, stats, Some(image), &pvers);
        tm.pmem.pin_recovery_verdicts(image, &pvers);
        for a in 0..tm.cfg.heap_words {
            let (data, back, meta) = layout.image_entry(image, a);
            let incomplete =
                meta.0 != 0 && meta.tid() < tm.cfg.max_threads && meta.ver() >= pvers[meta.tid()];
            let value = if incomplete { back } else { data };
            if incomplete {
                // Durable roll-back *and* stamp clearing: a stale `{tid, v}`
                // with its pad witness intact would be miscounted as part of
                // that thread's next counted commit.
                tm.pmem.recovery_neutralize(a, back);
            }
            tm.vol[a].store(value, Ordering::Relaxed);
        }
        tm.pmem.sfence(0);
        tm.alloc.rebuild(used_blocks);
        tm
    }

    /// The recovered/current pver of a thread (tests).
    pub fn thread_pver(&self, tid: usize) -> u64 {
        self.threads[tid].lock().pver
    }

    /// One transaction attempt. Returns `Ok(Some(r))` on commit,
    /// `Ok(None)` on a conflict abort, `Err(Cancelled)` on cancel.
    fn attempt<R>(
        &self,
        ts: &mut ThreadState,
        tid: usize,
        attempt: usize,
        body: &mut dyn FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> Result<Option<R>, Cancelled> {
        ts.rset.clear();
        ts.wset.clear();
        debug_assert!(ts.alloc_log.is_empty());
        let rv = self.gvc.load(Ordering::Acquire);
        let mut oom = false;
        let res = {
            let mut tx = TrinityTxn {
                tm: self,
                rv,
                attempt,
                rset: &mut ts.rset,
                wset: &mut ts.wset,
                alloc_log: &mut ts.alloc_log,
                oom: &mut oom,
                tid,
            };
            body(&mut tx)
        };
        if oom {
            self.alloc.abort(tid, &mut ts.alloc_log);
            panic!("transactional heap exhausted (trinity)");
        }
        match res {
            Ok(r) => {
                if self.commit(tid, ts, rv) {
                    self.alloc.commit(tid, &mut ts.alloc_log);
                    self.stats.bump(tid, Counter::SwCommit);
                    Ok(Some(r))
                } else {
                    self.alloc.abort(tid, &mut ts.alloc_log);
                    self.stats.bump(tid, Counter::SwAbort);
                    Ok(None)
                }
            }
            Err(Abort::Retry(_)) => {
                self.alloc.abort(tid, &mut ts.alloc_log);
                self.stats.bump(tid, Counter::SwAbort);
                Ok(None)
            }
            Err(Abort::Cancel) => {
                self.alloc.abort(tid, &mut ts.alloc_log);
                self.stats.bump(tid, Counter::Cancelled);
                Err(Cancelled)
            }
        }
    }

    fn release(&self, acquired: &[(u32, u64)], new_word: Option<u64>) {
        for &(idx, pre) in acquired {
            self.locks[idx as usize].store(new_word.unwrap_or(pre), Ordering::Release);
        }
        #[cfg(feature = "locksan")]
        locksan::on_stripe_release_all();
    }

    /// TL2 commit with Trinity persistence.
    fn commit(&self, tid: usize, ts: &mut ThreadState, rv: u64) -> bool {
        if ts.wset.is_empty() {
            // Read-only: every read was validated against rv at access
            // time; the transaction serializes at its start.
            return true;
        }
        // Acquire write locks in lock-index order (strong progressiveness
        // needs a fixed total order).
        ts.acquired.clear();
        let mut idxs: Vec<u32> = ts
            .wset
            .iter()
            .map(|&(a, _)| self.lock_idx(a as usize))
            .collect();
        idxs.sort_unstable();
        idxs.dedup();
        // Fresh ordered acquisition sequence (clears crash-unwind residue).
        #[cfg(feature = "locksan")]
        locksan::on_stripe_release_all();
        for idx in idxs {
            let cell = &self.locks[idx as usize];
            let pre = cell.load(Ordering::Acquire);
            if lock_held(pre)
                || cell
                    .compare_exchange(pre, pre | 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
            {
                self.stats.bump(tid, Counter::StripeContended);
                self.release(&ts.acquired, None);
                ts.acquired.clear();
                return false;
            }
            #[cfg(feature = "locksan")]
            locksan::on_stripe_acquire(idx as u64, true, "trinity::commit");
            ts.acquired.push((idx, pre));
        }
        pmem::latency::spin_ns(self.cfg.clock_ns);
        let wv = self.gvc.fetch_add(1, Ordering::AcqRel) + 1;
        // TL2's validation skip: if the clock moved by exactly one, no
        // concurrent writer committed since we started.
        if wv != rv + 1 {
            for &idx in ts.rset.iter() {
                let cur = self.locks[idx as usize].load(Ordering::Acquire);
                let mine = ts.acquired.binary_search_by(|&(i, _)| i.cmp(&idx)).is_ok();
                if (lock_held(cur) && !mine) || lock_ver(cur) > rv {
                    self.release(&ts.acquired, None);
                    ts.acquired.clear();
                    return false;
                }
            }
        }
        // Persist (Trinity) and apply the write set as a one-fence group
        // commit — coalesced flush pass, counted marker, single fence —
        // then release locks stamped with the commit version wv.
        let _psan = self.pmem.pool().psan_scope(tid, "trinity::commit");
        self.pmem
            .preserve_witnesses(tid, ts.wset.iter().map(|&(a, _)| a as usize));
        let meta = Meta::pack(tid, ts.pver);
        ts.flush_lines.clear();
        for &(a, val) in ts.wset.iter() {
            let old = self.vol[a as usize].load(Ordering::Acquire);
            self.pmem.stage_entry(tid, a as usize, old, val, meta);
            ts.flush_lines.push(self.pmem.entry_line(a as usize));
            self.vol[a as usize].store(val, Ordering::Release);
        }
        self.pmem.flush_lines(tid, &mut ts.flush_lines);
        ts.pver += 1;
        self.persist_commit_marker(tid, ts.pver, ts.wset.len() as u64, meta);
        self.release(&ts.acquired, Some(wv << 1));
        ts.acquired.clear();
        true
    }

    /// Make the commit of an already-staged-and-flushed (but unfenced)
    /// generation durable. Normally a *counted* marker plus ONE fence —
    /// recovery tells a torn commit from a complete one by counting the
    /// generation's durable pad witnesses. Falls back to the legacy
    /// two-fence order when the generation stamp packs to zero (thread
    /// 0's first commit) or the write set overflows the count field.
    fn persist_commit_marker(&self, tid: usize, pver: u64, count: u64, gen: Meta) {
        debug_assert!(count > 0);
        if gen.0 != 0 && count < PVER_COUNT_TRUSTED {
            self.pmem.persist_pver_counted(tid, pver, count);
            self.pmem.sfence(tid);
            self.pmem
                .pool()
                .durability_point(tid, "trinity::commit_durable");
        } else {
            self.pmem.sfence(tid);
            self.pmem.persist_pver(tid, pver);
            self.pmem.sfence(tid);
        }
    }
}

impl Tm for Trinity {
    fn txn<R>(
        &self,
        tid: usize,
        body: &mut dyn FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> TxResult<R> {
        assert!(tid < self.cfg.max_threads);
        let mut guard = self.threads[tid].lock();
        let ts = &mut *guard;
        let mut attempt = 0usize;
        loop {
            self.pmem.pool().crash_point(tid);
            match self.attempt(ts, tid, attempt, body)? {
                Some(r) => return Ok(r),
                None => {
                    ts.seed = ts.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    self.cfg.policy.backoff(ts.seed, attempt);
                    attempt += 1;
                }
            }
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
        "trinity"
    }
}

struct TrinityTxn<'a> {
    tm: &'a Trinity,
    tid: usize,
    rv: u64,
    attempt: usize,
    rset: &'a mut Vec<u32>,
    wset: &'a mut Vec<(u64, u64)>,
    alloc_log: &'a mut TxnLog,
    oom: &'a mut bool,
}

impl<'a> Txn for TrinityTxn<'a> {
    fn read(&mut self, a: Addr) -> Result<Word, Abort> {
        let idx = a.index();
        if idx == 0 || idx >= self.tm.cfg.heap_words {
            return Err(Abort::CONFLICT);
        }
        pmem::latency::spin_ns(self.tm.cfg.instr_ns);
        if let Some(&(_, v)) = self.wset.iter().rev().find(|&&(wa, _)| wa == a.0) {
            return Ok(v);
        }
        let lock = &self.tm.locks[self.tm.lock_idx(idx) as usize];
        let l1 = lock.load(Ordering::Acquire);
        if lock_held(l1) || lock_ver(l1) > self.rv {
            return Err(Abort::CONFLICT);
        }
        let val = self.tm.vol[idx].load(Ordering::Acquire);
        let l2 = lock.load(Ordering::Acquire);
        if l2 != l1 {
            return Err(Abort::CONFLICT);
        }
        self.rset.push(self.tm.lock_idx(idx));
        Ok(val)
    }

    fn write(&mut self, a: Addr, v: Word) -> Result<(), Abort> {
        let idx = a.index();
        if idx == 0 || idx >= self.tm.cfg.heap_words {
            return Err(Abort::CONFLICT);
        }
        pmem::latency::spin_ns(self.tm.cfg.instr_ns);
        if let Some(e) = self.wset.iter_mut().rev().find(|e| e.0 == a.0) {
            e.1 = v;
            return Ok(());
        }
        self.wset.push((a.0, v));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm::txn;

    fn small() -> Trinity {
        Trinity::new(TrinityConfig::test(1 << 12, 4))
    }

    #[test]
    fn read_write_roundtrip() {
        let t = small();
        let r = txn(&t, 0, |tx| {
            tx.write(Addr(5), 11)?;
            tx.read(Addr(5))
        });
        assert_eq!(r, Ok(11));
        assert_eq!(t.read_raw(Addr(5)), 11);
    }

    #[test]
    fn global_clock_advances_per_writer() {
        let t = small();
        for i in 0..10 {
            txn(&t, 0, |tx| tx.write(Addr(1), i)).unwrap();
        }
        assert_eq!(t.gvc.load(Ordering::Relaxed), 10);
        // Read-only transactions do not advance the clock.
        txn(&t, 0, |tx| tx.read(Addr(1))).unwrap();
        assert_eq!(t.gvc.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn cancel_discards_writes() {
        let t = small();
        let r: Result<(), Cancelled> = txn(&t, 0, |tx| {
            tx.write(Addr(3), 9)?;
            Err(Abort::Cancel)
        });
        assert!(r.is_err());
        assert_eq!(t.read_raw(Addr(3)), 0);
    }

    #[test]
    fn snapshot_reads_reject_stale_versions() {
        // A transaction that started before a writer committed must not
        // read the new value and still commit against old reads.
        let t = Arc::new(small());
        txn(&*t, 0, |tx| tx.write(Addr(1), 1)).unwrap();
        txn(&*t, 0, |tx| tx.write(Addr(2), 1)).unwrap();
        let violations = {
            let t = t.clone();
            std::thread::spawn(move || {
                let mut bad = 0;
                for _ in 0..3_000 {
                    let (a, b) = txn(&*t, 1, |tx| {
                        let a = tx.read(Addr(1))?;
                        let b = tx.read(Addr(2))?;
                        Ok((a, b))
                    })
                    .unwrap();
                    if a != b {
                        bad += 1;
                    }
                }
                bad
            })
        };
        for i in 2..2_000u64 {
            txn(&*t, 0, |tx| {
                tx.write(Addr(1), i)?;
                tx.write(Addr(2), i)
            })
            .unwrap();
        }
        assert_eq!(violations.join().unwrap(), 0);
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
    fn committed_data_survives_crash() {
        let cfg = TrinityConfig::test(1 << 10, 2);
        let t = Trinity::new(cfg.clone());
        txn(&t, 0, |tx| tx.write(Addr(4), 44)).unwrap();
        txn(&t, 1, |tx| tx.write(Addr(5), 55)).unwrap();
        t.crash();
        let rec = Trinity::recover(cfg, &t.crash_image(), []);
        assert_eq!(rec.read_raw(Addr(4)), 44);
        assert_eq!(rec.read_raw(Addr(5)), 55);
        assert_eq!(rec.thread_pver(0), 1);
    }

    #[test]
    fn incomplete_persist_rolls_back() {
        let cfg = TrinityConfig::test(1 << 10, 1);
        let t = Trinity::new(cfg.clone());
        txn(&t, 0, |tx| tx.write(Addr(4), 1)).unwrap();
        let pver = t.thread_pver(0);
        t.pmem().persist_entry(0, 4, 1, 2, Meta::pack(0, pver));
        t.crash();
        let rec = Trinity::recover(cfg, &t.crash_image(), []);
        assert_eq!(rec.read_raw(Addr(4)), 1);
    }

    #[test]
    fn alloc_roundtrip() {
        let t = small();
        let a = txn(&t, 0, |tx| {
            let a = tx.alloc(4)?;
            tx.write(a, 7)?;
            Ok(a)
        })
        .unwrap();
        assert_eq!(t.read_raw(a), 7);
        txn(&t, 0, |tx| tx.free(a, 4)).unwrap();
        assert_eq!(txn(&t, 0, |tx| tx.alloc(4)).unwrap(), a);
    }

    #[test]
    fn stats_count_software_commits() {
        let t = small();
        for _ in 0..5 {
            txn(&t, 0, |tx| tx.write(Addr(1), 1)).unwrap();
        }
        let s = t.stats();
        assert_eq!(s.get(Counter::SwCommit), 5);
        assert_eq!(s.get(Counter::HwCommit), 0);
        assert!(s.get(Counter::Flush) > 0);
    }
}
