//! The persistent-memory pool: cache layer, durable layer, flush/fence,
//! arbitrary eviction, and crash simulation.
//!
//! # Model
//!
//! A pool is an array of 64-bit words grouped into 64-byte lines
//! ([`LINE_WORDS`] words each). Every word exists in two layers:
//!
//! * the **cache layer** — what stores and loads operate on; volatile;
//! * the **durable layer** — the media; the only thing that survives
//!   [`PmemPool::crash`].
//!
//! A line moves cache → durable through *write-back*: explicitly via
//! [`PmemPool::flush_line`] + [`PmemPool::sfence`] (per the configured
//! [`FlushPolicy`]), or spontaneously via [`EvictionPolicy`] — the
//! "processor may arbitrarily flush data to NVM" clause of §2.
//!
//! # Write-back atomicity
//!
//! On real hardware a line write-back transfers a coherent point-in-time
//! snapshot of the line, so stores to one line are never persisted out of
//! order — the property Trinity's undo scheme depends on (citation 11 in the
//! paper). The simulator guarantees the same by taking a per-line spinlock
//! around both stores and write-backs; a write-back therefore copies a
//! snapshot that lies exactly on a store boundary.
//!
//! # Crashes
//!
//! [`PmemPool::crash`] poisons the pool. Every subsequent store, load,
//! flush or fence unwinds its thread with [`tm::crash::CrashSignal`],
//! freezing each thread at an arbitrary point of its protocol. Once all
//! worker threads are joined, [`PmemPool::snapshot_durable`] yields the
//! recovery image. Lines whose flush was still pending (Deferred/Seeded
//! policies) are lost, exactly like `clflushopt`s that never completed
//! before the power failed.

use crate::latency::{spin_ns, LatencyModel};
use crossbeam::utils::CachePadded;
use psan::{EntryRole, Psan, PsanMode};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tm::crash::crash_unwind;
use tm::stats::{Counter, TmStats};

/// Words per 64-byte cache line.
pub const LINE_WORDS: usize = 8;

/// Operating mode, mirroring the ablation of Figure 9 plus an eADR
/// platform model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PmemMode {
    /// Full NVM semantics: flushes/fences do real work and all latencies
    /// apply (the BASE configuration).
    Nvram,
    /// An eADR platform (§1): the cache is flushed to NVM on power
    /// failure, so explicit flushes/fences are unnecessary no-ops — but
    /// everything *stored* survives a crash, and programmers must still
    /// order their stores correctly. `snapshot_durable` returns the cache
    /// layer.
    Eadr,
    /// Overhead class 1 removed: flush and fence are complete no-ops.
    /// The durable layer is no longer maintained — recovery is meaningless
    /// in this mode, which is fine: it exists only for throughput ablation.
    NoFlushFence,
    /// Overhead classes 1 and 2 removed: additionally, no NVM access
    /// latency is charged (the pool behaves like DRAM).
    Dram,
}

/// When a flushed line actually reaches the durable layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushPolicy {
    /// `flush_line` writes back immediately. The common, fast configuration;
    /// durability is never *later* than the algorithms assume.
    Eager,
    /// `flush_line` only queues; `sfence` performs the write-backs. The
    /// adversarial extreme: a crash between flush and fence loses the line
    /// (a `clflushopt` that never completed).
    Deferred,
    /// `flush_line` writes back immediately with probability
    /// `num / 256`, otherwise queues for the next fence. Randomised
    /// middle ground for crash fuzzing.
    Seeded {
        /// Numerator of the immediate-writeback probability (out of 256).
        num: u8,
    },
}

/// Spontaneous write-back of dirty lines by the "processor".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvictionPolicy {
    /// Lines are only written back by flush/fence.
    None,
    /// After each store, the stored line is written back with probability
    /// `2^-prob_log2`.
    Random {
        /// Negative log2 of the per-store eviction probability.
        prob_log2: u32,
    },
}

/// Pool construction parameters.
#[derive(Clone, Debug)]
pub struct PmemConfig {
    /// Pool size in words (rounded up to a whole line).
    pub words: usize,
    /// Number of thread slots (for pending-flush queues and RNG streams).
    pub max_threads: usize,
    /// Operating mode (see [`PmemMode`]).
    pub mode: PmemMode,
    /// Injected NVM latencies.
    pub lat: LatencyModel,
    /// Flush completion policy.
    pub flush: FlushPolicy,
    /// Spontaneous eviction policy.
    pub eviction: EvictionPolicy,
    /// Seed for the per-thread RNG streams.
    pub seed: u64,
    /// Persist-order sanitizer mode. `Off` (the default) costs nothing;
    /// the `PSAN` environment variable upgrades `Off` at construction
    /// (see [`PsanMode::env_upgraded`]).
    pub psan: PsanMode,
}

impl PmemConfig {
    /// Functional-test defaults: full NVM semantics, no latency, eager
    /// flushes, no eviction.
    pub fn test(words: usize, max_threads: usize) -> Self {
        PmemConfig {
            words,
            max_threads,
            mode: PmemMode::Nvram,
            lat: LatencyModel::zero(),
            flush: FlushPolicy::Eager,
            eviction: EvictionPolicy::None,
            seed: 0x5eed_1234,
            psan: PsanMode::Off,
        }
    }
}

/// The durable layer captured after a crash: the recovery image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurableImage {
    words: Vec<u64>,
}

impl DurableImage {
    /// Word at index `w`.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Pool size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the image is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

struct PerThread {
    /// Lines flushed but not yet fenced (Deferred/Seeded policies), plus —
    /// under Eager — just a count for fence-latency accounting.
    pending: Mutex<Vec<usize>>,
    pending_count: AtomicU32,
    rng: AtomicU64,
    /// One bit per line: set by this thread's stores, cleared by its
    /// flushes. A flush of a clear bit did no work — the native
    /// `RedundantFlush` signal, independent of the sanitizer (which only
    /// diagnoses; release bench runs carry no psan instance).
    dirty: Box<[AtomicU64]>,
}

impl PerThread {
    #[inline]
    fn mark_dirty(&self, line: usize) {
        self.dirty[line / 64].fetch_or(1 << (line % 64), Ordering::Relaxed);
    }

    /// Clear the line's dirty bit, returning whether it was set.
    #[inline]
    fn take_dirty(&self, line: usize) -> bool {
        let mask = 1u64 << (line % 64);
        self.dirty[line / 64].fetch_and(!mask, Ordering::Relaxed) & mask != 0
    }
}

/// The simulated persistent-memory pool. See the module docs.
pub struct PmemPool {
    cache: Box<[AtomicU64]>,
    durable: Box<[AtomicU64]>,
    line_locks: Box<[AtomicU32]>,
    per_thread: Vec<CachePadded<PerThread>>,
    crashed: AtomicBool,
    mode: PmemMode,
    lat: LatencyModel,
    flush: FlushPolicy,
    eviction: EvictionPolicy,
    stats: Option<Arc<TmStats>>,
    /// The persist-order sanitizer, when enabled. `None` keeps the hot
    /// paths at a single never-taken branch.
    psan: Option<Arc<Psan>>,
}

impl PmemPool {
    /// Create a zero-initialised pool.
    pub fn new(cfg: &PmemConfig, stats: Option<Arc<TmStats>>) -> Self {
        let words = cfg.words.div_ceil(LINE_WORDS) * LINE_WORDS;
        Self::with_layers(
            cfg,
            stats,
            (0..words).map(|_| AtomicU64::new(0)).collect(),
            (0..words).map(|_| AtomicU64::new(0)).collect(),
        )
    }

    /// Recover a pool from a crash image: both layers start as the image
    /// (recovery code re-reads NVM into cache).
    pub fn from_durable(
        cfg: &PmemConfig,
        image: &DurableImage,
        stats: Option<Arc<TmStats>>,
    ) -> Self {
        let words = cfg.words.div_ceil(LINE_WORDS) * LINE_WORDS;
        assert_eq!(
            image.len(),
            words,
            "durable image size does not match pool config"
        );
        Self::with_layers(
            cfg,
            stats,
            image.words.iter().map(|&w| AtomicU64::new(w)).collect(),
            image.words.iter().map(|&w| AtomicU64::new(w)).collect(),
        )
    }

    fn with_layers(
        cfg: &PmemConfig,
        stats: Option<Arc<TmStats>>,
        cache: Box<[AtomicU64]>,
        durable: Box<[AtomicU64]>,
    ) -> Self {
        let lines = cache.len() / LINE_WORDS;
        PmemPool {
            cache,
            durable,
            line_locks: (0..lines).map(|_| AtomicU32::new(0)).collect(),
            per_thread: (0..cfg.max_threads.max(1))
                .map(|t| {
                    CachePadded::new(PerThread {
                        pending: Mutex::new(Vec::new()),
                        pending_count: AtomicU32::new(0),
                        rng: AtomicU64::new(
                            cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        ),
                        dirty: (0..lines.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
                    })
                })
                .collect(),
            crashed: AtomicBool::new(false),
            mode: cfg.mode,
            lat: if cfg.mode == PmemMode::Dram {
                LatencyModel::zero()
            } else {
                cfg.lat
            },
            flush: cfg.flush,
            eviction: cfg.eviction,
            stats,
            psan: match cfg.psan.env_upgraded() {
                PsanMode::Off => None,
                mode => Some(Arc::new(Psan::new(mode, cfg.max_threads.max(1)))),
            },
        }
    }

    /// Pool size in words.
    pub fn words(&self) -> usize {
        self.cache.len()
    }

    #[inline]
    fn check_crash(&self) {
        if self.crashed.load(Ordering::Relaxed) {
            crash_unwind();
        }
    }

    #[inline]
    fn lock_line(&self, line: usize) {
        let lk = &self.line_locks[line];
        let mut tries = 0u32;
        while lk
            .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
            tries += 1;
            if tries & 0x3f == 0 {
                std::thread::yield_now();
            }
        }
    }

    #[inline]
    fn unlock_line(&self, line: usize) {
        self.line_locks[line].store(0, Ordering::Release);
    }

    /// Copy a line's cache snapshot to the durable layer (the "media
    /// write"). Takes the line lock so the copy lies on a store boundary.
    fn write_back(&self, line: usize) {
        self.lock_line(line);
        let base = line * LINE_WORDS;
        for i in 0..LINE_WORDS {
            let v = self.cache[base + i].load(Ordering::Relaxed);
            self.durable[base + i].store(v, Ordering::Relaxed);
        }
        self.unlock_line(line);
    }

    #[inline]
    fn next_rand(&self, tid: usize) -> u64 {
        let cell = &self.per_thread[tid].rng;
        let mut x = cell.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        cell.store(x, Ordering::Relaxed);
        x
    }

    /// Store `v` to persistent word `w` (takes effect in the cache layer).
    pub fn write(&self, tid: usize, w: usize, v: u64) {
        self.check_crash();
        if let Some(p) = &self.psan {
            p.on_store(tid, w);
        }
        self.write_unsanitized(tid, w, v);
    }

    /// Store `v` to word `w` playing `role` in a colocated-undo entry, so
    /// the sanitizer can enforce the `back` → `meta` → `data` epoch
    /// protocol. Identical to [`PmemPool::write`] when the sanitizer is
    /// off.
    pub fn write_role(&self, tid: usize, w: usize, v: u64, role: EntryRole) {
        self.check_crash();
        if let Some(p) = &self.psan {
            p.on_entry_store(tid, w, role);
        }
        self.write_unsanitized(tid, w, v);
    }

    fn write_unsanitized(&self, tid: usize, w: usize, v: u64) {
        spin_ns(self.lat.pm_write_ns);
        let line = w / LINE_WORDS;
        self.per_thread[tid].mark_dirty(line);
        self.lock_line(line);
        self.cache[w].store(v, Ordering::Release);
        self.unlock_line(line);
        if let Some(s) = &self.stats {
            s.bump(tid, Counter::PmWords);
        }
        if let EvictionPolicy::Random { prob_log2 } = self.eviction {
            if self.mode == PmemMode::Nvram {
                let mask = (1u64 << prob_log2.min(63)) - 1;
                if self.next_rand(tid) & mask == 0 {
                    self.write_back(line);
                }
            }
        }
    }

    /// Atomically replace word `w` with `new` iff it currently holds
    /// `expect` (takes effect in the cache layer, like [`PmemPool::write`]).
    /// Returns whether the swap happened.
    ///
    /// Exists for cross-thread commit-marker upgrades: a plain store could
    /// clobber a *newer* marker the owning thread is concurrently
    /// publishing, losing its commit.
    pub fn cas_word(&self, tid: usize, w: usize, expect: u64, new: u64) -> bool {
        self.check_crash();
        spin_ns(self.lat.pm_write_ns);
        let line = w / LINE_WORDS;
        self.lock_line(line);
        let cur = self.cache[w].load(Ordering::Relaxed);
        let swapped = cur == expect;
        if swapped {
            self.cache[w].store(new, Ordering::Release);
        }
        self.unlock_line(line);
        if swapped {
            if let Some(p) = &self.psan {
                p.on_store(tid, w);
            }
            self.per_thread[tid].mark_dirty(line);
            if let Some(s) = &self.stats {
                s.bump(tid, Counter::PmWords);
            }
        }
        swapped
    }

    /// Load persistent word `w` from the cache layer.
    pub fn read(&self, tid: usize, w: usize) -> u64 {
        self.check_crash();
        if let Some(p) = &self.psan {
            p.on_load(tid, w);
        }
        spin_ns(self.lat.pm_read_ns);
        self.cache[w].load(Ordering::Acquire)
    }

    /// `clflushopt` the line containing word `w`: asynchronously initiate
    /// its write-back (completion per [`FlushPolicy`]).
    pub fn flush_line(&self, tid: usize, w: usize) {
        self.check_crash();
        // The sanitizer tracks call discipline in every mode (eADR
        // programs must still order their stores), before the mode
        // early-outs below.
        if let Some(p) = &self.psan {
            p.on_flush(tid, w);
        }
        #[cfg(feature = "locksan")]
        locksan::on_persist("flush");
        if self.mode != PmemMode::Nvram {
            return;
        }
        spin_ns(self.lat.flush_ns);
        let line = w / LINE_WORDS;
        let pt = &self.per_thread[tid];
        // Native redundancy signal: a flush of a line this thread has not
        // stored to since its last flush did no work. Tracked in the pool
        // itself (not just psan) so release runs report real numbers.
        let redundant = !pt.take_dirty(line);
        if let Some(s) = &self.stats {
            s.bump(tid, Counter::Flush);
            if redundant {
                s.bump(tid, Counter::RedundantFlush);
            }
        }
        let immediate = match self.flush {
            FlushPolicy::Eager => true,
            FlushPolicy::Deferred => false,
            FlushPolicy::Seeded { num } => (self.next_rand(tid) & 0xff) < num as u64,
        };
        if immediate {
            self.write_back(line);
            // Track outstanding-line count for fence latency accounting.
            pt.pending_count.fetch_add(1, Ordering::Relaxed);
        } else {
            pt.pending.lock().unwrap().push(line);
            pt.pending_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `sfence`: block until this thread's initiated flushes are durable.
    pub fn sfence(&self, tid: usize) {
        self.check_crash();
        if let Some(p) = &self.psan {
            p.on_fence(tid);
        }
        #[cfg(feature = "locksan")]
        locksan::on_persist("fence");
        if self.mode != PmemMode::Nvram {
            return;
        }
        let pt = &self.per_thread[tid];
        {
            let mut pending = pt.pending.lock().unwrap();
            for line in pending.drain(..) {
                self.write_back(line);
            }
        }
        let outstanding = pt.pending_count.swap(0, Ordering::Relaxed);
        spin_ns(
            self.lat
                .fence_base_ns
                .saturating_add(self.lat.fence_per_line_ns.saturating_mul(outstanding)),
        );
        if let Some(s) = &self.stats {
            s.bump(tid, Counter::Fence);
        }
    }

    /// Deterministically evict the line containing word `w` (test hook for
    /// adversarial schedules).
    pub fn force_evict(&self, w: usize) {
        self.write_back(w / LINE_WORDS);
    }

    /// Simulate a power failure: poison the pool. Every subsequent
    /// operation unwinds its thread with a crash signal. Pending (unfenced)
    /// flushes are lost.
    pub fn crash(&self) {
        // A crash legitimately strands unfenced lines on every thread;
        // the sanitizer stops checking.
        if let Some(p) = &self.psan {
            p.on_crash();
        }
        self.crashed.store(true, Ordering::SeqCst);
    }

    /// True once [`crash`](PmemPool::crash) has been called.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Unwind the calling thread if the pool has crashed. TMs call this at
    /// transaction boundaries and inside spin loops so that threads blocked
    /// on volatile synchronization also go down with the power failure.
    ///
    /// A crash point is also a (relaxed) durability claim: the calling
    /// thread is at a protocol boundary and must own no stored-but-never-
    /// flushed lines, which the sanitizer checks when enabled.
    #[inline]
    pub fn crash_point(&self, tid: usize) {
        self.check_crash();
        if let Some(p) = &self.psan {
            p.relaxed_point(tid, "crash_point");
        }
    }

    /// Assert a **strict** durability point for `tid`: the program is
    /// about to treat everything this thread persisted as durable (e.g.
    /// a commit-marker store or prepared-transaction staging), so the
    /// sanitizer demands all its lines fenced and all its cross-thread
    /// dependencies resolved. A no-op when the sanitizer is off.
    #[inline]
    pub fn durability_point(&self, tid: usize, site: &'static str) {
        if let Some(p) = &self.psan {
            p.durability_point(tid, site);
        }
    }

    /// Push sanitizer site label `site` for `tid`, popped when the guard
    /// drops. Diagnostics report the innermost label active at the
    /// offending store. Returns `None` (no tracking) when the sanitizer
    /// is off.
    pub fn psan_scope(&self, tid: usize, site: &'static str) -> Option<PsanScope<'_>> {
        let p = self.psan.as_deref()?;
        p.push_site(tid, site);
        Some(PsanScope { psan: p, tid })
    }

    /// The sanitizer, when enabled (tests drain its diagnostics).
    pub fn psan(&self) -> Option<&Arc<Psan>> {
        self.psan.as_ref()
    }

    /// Capture the durable layer. Callers must have joined all worker
    /// threads first (the image of a crashed pool is only meaningful once
    /// every thread has unwound). On an eADR platform the cache survives
    /// the power failure, so the image is the cache layer itself.
    pub fn snapshot_durable(&self) -> DurableImage {
        // On a live NVM pool this is a whole-pool durability claim: any
        // unfenced line would silently vanish from the image. (After a
        // crash the sanitizer is disabled; on eADR everything stored
        // survives, so there is nothing to check.)
        if self.mode == PmemMode::Nvram && !self.is_crashed() {
            if let Some(p) = &self.psan {
                p.quiescent_check("snapshot_durable");
            }
        }
        let layer = if self.mode == PmemMode::Eadr {
            &self.cache
        } else {
            &self.durable
        };
        DurableImage {
            words: layer.iter().map(|w| w.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Read a durable word directly (recovery-time, quiescent). On eADR
    /// the cache layer is the durable one.
    pub fn durable_word(&self, w: usize) -> u64 {
        if self.mode == PmemMode::Eadr {
            self.cache[w].load(Ordering::Relaxed)
        } else {
            self.durable[w].load(Ordering::Relaxed)
        }
    }

    /// Read a cache word without latency or crash checks (verification).
    pub fn cache_word(&self, w: usize) -> u64 {
        self.cache[w].load(Ordering::Relaxed)
    }
}

/// RAII guard for a sanitizer site label (see [`PmemPool::psan_scope`]).
pub struct PsanScope<'a> {
    psan: &'a Psan,
    tid: usize,
}

impl Drop for PsanScope<'_> {
    fn drop(&mut self) {
        self.psan.pop_site(self.tid);
    }
}

#[cfg(test)]
// The pool's own tests drive its raw store directly.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use tm::crash::run_crashable;

    fn pool(words: usize) -> PmemPool {
        PmemPool::new(&PmemConfig::test(words, 2), None)
    }

    #[test]
    fn rounds_up_to_whole_lines() {
        let p = pool(3);
        assert_eq!(p.words(), LINE_WORDS);
    }

    #[test]
    fn write_then_read_roundtrips_in_cache() {
        let p = pool(16);
        p.write(0, 5, 42);
        assert_eq!(p.read(0, 5), 42);
        // Not yet durable: no flush happened.
        assert_eq!(p.durable_word(5), 0);
    }

    #[test]
    fn eager_flush_makes_line_durable() {
        let p = pool(16);
        p.write(0, 5, 42);
        p.write(0, 6, 43);
        p.flush_line(0, 5);
        assert_eq!(p.durable_word(5), 42);
        assert_eq!(p.durable_word(6), 43, "whole line written back");
        assert_eq!(p.durable_word(8), 0, "other lines untouched");
    }

    #[test]
    fn deferred_flush_needs_fence() {
        let cfg = PmemConfig {
            flush: FlushPolicy::Deferred,
            ..PmemConfig::test(16, 2)
        };
        let p = PmemPool::new(&cfg, None);
        p.write(0, 1, 7);
        p.flush_line(0, 1);
        assert_eq!(p.durable_word(1), 0, "flush alone does not persist");
        p.sfence(0);
        assert_eq!(p.durable_word(1), 7);
    }

    #[test]
    fn deferred_flush_lost_on_crash() {
        let cfg = PmemConfig {
            flush: FlushPolicy::Deferred,
            ..PmemConfig::test(16, 2)
        };
        let p = PmemPool::new(&cfg, None);
        p.write(0, 1, 7);
        p.flush_line(0, 1);
        p.crash();
        assert_eq!(p.snapshot_durable().word(1), 0);
    }

    #[test]
    fn fences_are_per_thread() {
        let cfg = PmemConfig {
            flush: FlushPolicy::Deferred,
            ..PmemConfig::test(32, 2)
        };
        let p = PmemPool::new(&cfg, None);
        p.write(0, 1, 10);
        p.write(1, 9, 20);
        p.flush_line(0, 1);
        p.flush_line(1, 9);
        p.sfence(0);
        assert_eq!(p.durable_word(1), 10);
        assert_eq!(p.durable_word(9), 0, "thread 1's flush still pending");
        p.sfence(1);
        assert_eq!(p.durable_word(9), 20);
    }

    #[test]
    fn crash_poisons_every_operation() {
        let p = pool(16);
        p.write(0, 0, 1);
        p.crash();
        assert!(p.is_crashed());
        assert_eq!(run_crashable(|| p.write(0, 0, 2)), None);
        assert_eq!(run_crashable(|| p.read(0, 0)), None);
        assert_eq!(run_crashable(|| p.flush_line(0, 0)), None);
        assert_eq!(run_crashable(|| p.sfence(0)), None);
    }

    #[test]
    fn force_evict_persists_without_flush() {
        let p = pool(16);
        p.write(0, 3, 99);
        p.force_evict(3);
        assert_eq!(p.durable_word(3), 99);
    }

    #[test]
    fn random_eviction_eventually_persists() {
        let cfg = PmemConfig {
            eviction: EvictionPolicy::Random { prob_log2: 2 },
            ..PmemConfig::test(16, 1)
        };
        let p = PmemPool::new(&cfg, None);
        for i in 0..200 {
            p.write(0, 0, i);
        }
        assert_ne!(p.durable_word(0), 0, "some store should have evicted");
    }

    #[test]
    fn no_flush_fence_mode_skips_durability() {
        let cfg = PmemConfig {
            mode: PmemMode::NoFlushFence,
            ..PmemConfig::test(16, 1)
        };
        let p = PmemPool::new(&cfg, None);
        p.write(0, 0, 5);
        p.flush_line(0, 0);
        p.sfence(0);
        assert_eq!(p.durable_word(0), 0, "flush is a no-op in this mode");
        assert_eq!(p.read(0, 0), 5, "cache layer still works");
    }

    #[test]
    fn from_durable_restores_both_layers() {
        let p = pool(16);
        p.write(0, 2, 11);
        p.flush_line(0, 2);
        p.crash();
        let img = p.snapshot_durable();
        let p2 = PmemPool::from_durable(&PmemConfig::test(16, 2), &img, None);
        assert_eq!(p2.read(0, 2), 11);
        assert_eq!(p2.durable_word(2), 11);
        assert!(!p2.is_crashed());
    }

    #[test]
    fn seeded_flush_mixes_immediate_and_deferred() {
        let cfg = PmemConfig {
            flush: FlushPolicy::Seeded { num: 128 },
            ..PmemConfig::test(1024, 1)
        };
        let p = PmemPool::new(&cfg, None);
        let mut durable_now = 0;
        for line in 0..128 {
            let w = line * LINE_WORDS;
            p.write(0, w, 1);
            p.flush_line(0, w);
            if p.durable_word(w) == 1 {
                durable_now += 1;
            }
        }
        assert!(durable_now > 10, "some flushes should be immediate");
        assert!(durable_now < 118, "some flushes should be deferred");
        p.sfence(0);
        for line in 0..128 {
            assert_eq!(p.durable_word(line * LINE_WORDS), 1);
        }
    }

    #[test]
    fn stats_count_flushes_and_fences() {
        let stats = Arc::new(TmStats::new(1));
        let p = PmemPool::new(&PmemConfig::test(16, 1), Some(stats.clone()));
        p.write(0, 0, 1);
        p.flush_line(0, 0);
        p.sfence(0);
        let s = stats.snapshot();
        assert_eq!(s.get(Counter::PmWords), 1);
        assert_eq!(s.get(Counter::Flush), 1);
        assert_eq!(s.get(Counter::Fence), 1);
    }

    #[test]
    fn concurrent_writes_to_one_line_stay_word_atomic() {
        let p = Arc::new(pool(LINE_WORDS));
        let mut handles = Vec::new();
        for t in 0..2usize {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    p.write(t, t, i);
                    if i % 64 == 0 {
                        p.flush_line(t, t);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Each word holds the last value its owning thread wrote.
        assert_eq!(p.read(0, 0), 4_999);
        assert_eq!(p.read(0, 1), 4_999);
    }
}
