//! A transactional word allocator in the style of mimalloc (§4 of the
//! paper, "Memory Allocation in Transactions").
//!
//! The paper's allocator requirements, all implemented here:
//!
//! * **Commit/abort hooks.** Memory allocated during a transaction is
//!   returned if the transaction aborts; frees are deferred until it
//!   commits — otherwise an aborting transaction could leak memory or free
//!   memory still in use. Each transaction carries a [`TxnLog`];
//!   [`TxAlloc::commit`] and [`TxAlloc::abort`] apply it.
//! * **No growth of transaction write sets.** Allocator metadata (free
//!   lists, bump pointers) is *volatile* and outside the transactional
//!   heap, so allocation inside a hardware transaction does not add
//!   entries to the HTM tracking set — the whole point of not implementing
//!   the allocator on top of the TM (unlike Trinity's original design).
//! * **Contiguous address range.** Allocations come from one contiguous
//!   word range handed out to per-thread segments on demand, preserving
//!   the direct volatile→persistent address mapping.
//! * **Recovery by iteration.** Because allocator state is volatile, it is
//!   rebuilt from scratch after a crash: the user supplies an iterator
//!   over the blocks still in use (a reachability walk of their data
//!   structure) and [`TxAlloc::rebuild`] reconstructs free lists from the
//!   gaps.
//!
//! Free-list sharding follows mimalloc (Leijen, Zorn & de Moura, APLAS
//! 2019): each thread owns per-size-class free lists, and a committed
//! free lands on the *freeing* thread's lists. Where one thread allocates
//! and another frees — a replication shipper retiring the op-log entries
//! a shard worker appended — the blocks would pile up on the freer while
//! the allocator carves fresh segments until the heap runs out. So,
//! before a thread refills its segment from the global range, it takes
//! back the whole free list of the size class it needs from the first
//! other arena that has one (mimalloc's remote-free return, batched per
//! class). The fast path still touches only the thread's own arena, and
//! no thread ever holds two arena locks at once. Blocks above
//! [`MAX_CLASS_WORDS`] are bump-only and never recycled.
//!
//! Word addresses below [`AllocConfig::reserve_words`] are never handed
//! out, so `Addr(0)` can act as a null pointer.

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Size classes in words. Allocations round up to the nearest class;
/// larger requests fall back to exact-size bump allocation.
pub const CLASSES: [usize; 13] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40, 48, 64];

/// Largest class-managed size.
pub const MAX_CLASS_WORDS: usize = CLASSES[CLASSES.len() - 1];

fn class_of(words: usize) -> Option<usize> {
    CLASSES.iter().position(|&c| c >= words)
}

/// Allocator configuration.
#[derive(Clone, Copy, Debug)]
pub struct AllocConfig {
    /// Total heap size in words.
    pub heap_words: usize,
    /// Number of thread slots.
    pub max_threads: usize,
    /// Words fetched from the global range per thread-segment refill.
    pub segment_words: usize,
    /// Low addresses never handed out (null-pointer guard).
    pub reserve_words: usize,
}

impl AllocConfig {
    /// Defaults for a heap of `heap_words` words.
    pub fn new(heap_words: usize, max_threads: usize) -> Self {
        AllocConfig {
            heap_words,
            max_threads,
            segment_words: 1 << 13,
            reserve_words: 8,
        }
    }
}

/// Per-transaction allocation log (the commit/abort hook state).
#[derive(Default, Debug)]
pub struct TxnLog {
    allocs: Vec<(u64, usize)>,
    frees: Vec<(u64, usize)>,
}

impl TxnLog {
    /// An empty log.
    pub fn new() -> Self {
        TxnLog::default()
    }

    /// True if the log records nothing.
    pub fn is_empty(&self) -> bool {
        self.allocs.is_empty() && self.frees.is_empty()
    }

    /// Forget everything (used when a fresh attempt starts).
    pub fn clear(&mut self) {
        self.allocs.clear();
        self.frees.clear();
    }
}

struct Arena {
    free: [Vec<u64>; CLASSES.len()],
    seg_cur: u64,
    seg_end: u64,
}

impl Arena {
    fn new() -> Self {
        Arena {
            free: std::array::from_fn(|_| Vec::new()),
            seg_cur: 0,
            seg_end: 0,
        }
    }
}

/// The transactional allocator. See module docs.
pub struct TxAlloc {
    bump: AtomicU64,
    cfg: AllocConfig,
    arenas: Vec<CachePadded<Mutex<Arena>>>,
}

impl TxAlloc {
    /// Create an allocator over `[reserve_words, heap_words)`.
    pub fn new(cfg: AllocConfig) -> Self {
        assert!(cfg.reserve_words < cfg.heap_words);
        let alloc = TxAlloc {
            bump: AtomicU64::new(cfg.reserve_words as u64),
            cfg,
            arenas: (0..cfg.max_threads.max(1))
                .map(|_| CachePadded::new(Mutex::new(Arena::new())))
                .collect(),
        };
        for a in &alloc.arenas {
            a.locksan_label("txalloc::arena", false);
        }
        alloc
    }

    /// The configuration.
    pub fn config(&self) -> &AllocConfig {
        &self.cfg
    }

    /// Words handed out from the global range so far (high-water mark).
    pub fn high_water(&self) -> u64 {
        self.bump.load(Ordering::Relaxed)
    }

    fn bump_take(&self, words: usize) -> Option<u64> {
        let got = self.bump.fetch_add(words as u64, Ordering::Relaxed);
        if got as usize + words <= self.cfg.heap_words {
            Some(got)
        } else {
            // Roll back our reservation so later smaller requests can fit.
            self.bump.fetch_sub(words as u64, Ordering::Relaxed);
            None
        }
    }

    /// Allocate `words` words for the transaction carrying `log`.
    /// Returns the word address, or `None` if the heap is exhausted.
    pub fn alloc(&self, tid: usize, words: usize, log: &mut TxnLog) -> Option<u64> {
        debug_assert!(words > 0);
        let addr = match class_of(words) {
            Some(class) => {
                let cwords = CLASSES[class];
                let mut arena = self.arenas[tid].lock();
                if arena.free[class].is_empty() && arena.seg_end - arena.seg_cur < cwords as u64 {
                    // Take a class list back before spending the range.
                    drop(arena);
                    let stolen = self.steal(tid, class);
                    arena = self.arenas[tid].lock();
                    arena.free[class].extend(stolen);
                }
                if let Some(a) = arena.free[class].pop() {
                    a
                } else if arena.seg_end - arena.seg_cur >= cwords as u64 {
                    let a = arena.seg_cur;
                    arena.seg_cur += cwords as u64;
                    a
                } else {
                    // Refill the thread segment, then carve. Near
                    // exhaustion fall back to an exact-size request.
                    let take = self.cfg.segment_words.max(cwords);
                    let (base, got) = match self.bump_take(take) {
                        Some(b) => (b, take),
                        None => (self.bump_take(cwords)?, cwords),
                    };
                    arena.seg_cur = base + cwords as u64;
                    arena.seg_end = base + got as u64;
                    base
                }
            }
            None => self.bump_take(words)?,
        };
        log.allocs.push((addr, words));
        Some(addr)
    }

    /// Take the whole `class` free list of the first other arena that has
    /// one, locking one arena at a time.
    fn steal(&self, tid: usize, class: usize) -> Vec<u64> {
        let n = self.arenas.len();
        (1..n)
            .map(|i| std::mem::take(&mut self.arenas[(tid + i) % n].lock().free[class]))
            .find(|list| !list.is_empty())
            .unwrap_or_default()
    }

    /// Record a free of the block at `addr` (allocated with the same
    /// `words`); takes effect only when the transaction commits.
    pub fn free(&self, addr: u64, words: usize, log: &mut TxnLog) {
        log.frees.push((addr, words));
    }

    fn push_free(&self, tid: usize, addr: u64, words: usize) {
        if let Some(class) = class_of(words) {
            self.arenas[tid].lock().free[class].push(addr);
        }
        // Oversized blocks are not recycled (bump-only); the paper's
        // structures never free blocks above MAX_CLASS_WORDS.
    }

    /// Commit hook: apply deferred frees, keep allocations.
    pub fn commit(&self, tid: usize, log: &mut TxnLog) {
        if log.frees.is_empty() {
            log.allocs.clear();
            return;
        }
        for &(addr, words) in &log.frees {
            self.push_free(tid, addr, words);
        }
        log.clear();
    }

    /// Abort hook: return allocations, forget deferred frees.
    pub fn abort(&self, tid: usize, log: &mut TxnLog) {
        if log.allocs.is_empty() {
            log.frees.clear();
            return;
        }
        for &(addr, words) in &log.allocs {
            self.push_free(tid, addr, words);
        }
        log.clear();
    }

    /// Rebuild allocator state after recovery from the user-supplied
    /// iterator of in-use blocks `(addr, words)`. Free lists are carved
    /// from the gaps between used blocks and distributed round-robin over
    /// the thread arenas. Must be called while quiescent.
    pub fn rebuild(&self, used: impl IntoIterator<Item = (u64, usize)>) {
        let mut blocks: Vec<(u64, usize)> = used
            .into_iter()
            .map(|(a, w)| {
                // In-use blocks occupy their rounded class size.
                let span = class_of(w).map(|c| CLASSES[c]).unwrap_or(w);
                (a, span)
            })
            .collect();
        blocks.sort_unstable();
        for w in blocks.windows(2) {
            assert!(
                w[0].0 + w[0].1 as u64 <= w[1].0,
                "used blocks overlap: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        for arena in &self.arenas {
            let mut a = arena.lock();
            *a = Arena::new();
        }
        let mut cursor = self.cfg.reserve_words as u64;
        let mut target = 0usize;
        let nthreads = self.arenas.len();
        let carve = |from: u64, to: u64, target: &mut usize| {
            let mut at = from;
            while at < to {
                let remaining = (to - at) as usize;
                let class = CLASSES
                    .iter()
                    .rposition(|&c| c <= remaining)
                    .expect("remaining >= 1 word always matches class 0");
                self.arenas[*target].lock().free[class].push(at);
                *target = (*target + 1) % nthreads;
                at += CLASSES[class] as u64;
            }
        };
        let mut high = cursor;
        for &(addr, span) in &blocks {
            if addr > cursor {
                carve(cursor, addr, &mut target);
            }
            cursor = cursor.max(addr + span as u64);
            high = cursor;
        }
        self.bump.store(high, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(words: usize) -> TxAlloc {
        TxAlloc::new(AllocConfig::new(words, 2))
    }

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(5), Some(4)); // rounds to 6
        assert_eq!(class_of(64), Some(12));
        assert_eq!(class_of(65), None);
    }

    #[test]
    fn never_allocates_null() {
        let a = alloc(1 << 16);
        let mut log = TxnLog::new();
        let addr = a.alloc(0, 4, &mut log).unwrap();
        assert!(addr >= 8);
    }

    #[test]
    fn distinct_live_allocations_do_not_overlap() {
        let a = alloc(1 << 16);
        let mut log = TxnLog::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for words in [1usize, 3, 7, 16, 33, 64, 100] {
            let addr = a.alloc(0, words, &mut log).unwrap();
            let span = class_of(words).map(|c| CLASSES[c]).unwrap_or(words) as u64;
            for &(s, e) in &spans {
                assert!(addr + span <= s || addr >= e, "overlap");
            }
            spans.push((addr, addr + span));
        }
    }

    #[test]
    fn abort_returns_allocations_for_reuse() {
        let a = alloc(1 << 16);
        let mut log = TxnLog::new();
        let first = a.alloc(0, 16, &mut log).unwrap();
        a.abort(0, &mut log);
        let second = a.alloc(0, 16, &mut log).unwrap();
        assert_eq!(first, second, "aborted allocation is recycled");
    }

    #[test]
    fn free_is_deferred_until_commit() {
        let a = alloc(1 << 16);
        let mut log = TxnLog::new();
        let block = a.alloc(0, 8, &mut log).unwrap();
        a.commit(0, &mut log);

        // Free inside a transaction that aborts: block must NOT be reused.
        a.free(block, 8, &mut log);
        a.abort(0, &mut log);
        let other = a.alloc(0, 8, &mut log).unwrap();
        assert_ne!(other, block);
        a.commit(0, &mut log);

        // Free inside a committed transaction: now it can be reused.
        a.free(block, 8, &mut log);
        a.commit(0, &mut log);
        let reused = a.alloc(0, 8, &mut log).unwrap();
        assert_eq!(reused, block);
    }

    #[test]
    fn cross_thread_free_migrates() {
        let a = alloc(1 << 16);
        let mut log0 = TxnLog::new();
        let mut log1 = TxnLog::new();
        let block = a.alloc(0, 4, &mut log0).unwrap();
        a.commit(0, &mut log0);
        a.free(block, 4, &mut log1);
        a.commit(1, &mut log1);
        // Thread 1 now owns the block.
        assert_eq!(a.alloc(1, 4, &mut log1), Some(block));
    }

    #[test]
    fn blocks_freed_by_another_thread_return_before_a_refill() {
        let a = TxAlloc::new(AllocConfig {
            segment_words: 16,
            ..AllocConfig::new(1 << 12, 2)
        });
        let mut log0 = TxnLog::new();
        let mut log1 = TxnLog::new();
        // Slot 0 spends one whole segment on 4-word blocks; slot 1 frees
        // them all.
        let mut blocks: Vec<u64> = (0..4).map(|_| a.alloc(0, 4, &mut log0).unwrap()).collect();
        a.commit(0, &mut log0);
        let high = a.high_water();
        for &b in &blocks {
            a.free(b, 4, &mut log1);
        }
        a.commit(1, &mut log1);
        // Slot 0's next allocations of the class reuse those blocks
        // instead of carving a new segment.
        let mut again: Vec<u64> = (0..4).map(|_| a.alloc(0, 4, &mut log0).unwrap()).collect();
        a.commit(0, &mut log0);
        blocks.sort_unstable();
        again.sort_unstable();
        assert_eq!(again, blocks);
        assert_eq!(a.high_water(), high, "refilled with free blocks on hand");
    }

    #[test]
    fn oversized_allocations_bump() {
        let a = alloc(1 << 16);
        let mut log = TxnLog::new();
        let big = a.alloc(0, 1000, &mut log).unwrap();
        let big2 = a.alloc(0, 1000, &mut log).unwrap();
        assert!(big2 >= big + 1000);
    }

    #[test]
    fn heap_exhaustion_returns_none() {
        let a = TxAlloc::new(AllocConfig {
            segment_words: 16,
            ..AllocConfig::new(64, 1)
        });
        let mut log = TxnLog::new();
        let mut got = 0;
        while a.alloc(0, 16, &mut log).is_some() {
            got += 1;
            assert!(got < 100, "should exhaust");
        }
        assert!(got >= 2, "got {got}");
    }

    #[test]
    fn rebuild_reconstructs_free_space() {
        let a = alloc(1 << 12);
        let mut log = TxnLog::new();
        let keep1 = a.alloc(0, 16, &mut log).unwrap();
        let _drop1 = a.alloc(0, 16, &mut log).unwrap();
        let keep2 = a.alloc(0, 16, &mut log).unwrap();
        a.commit(0, &mut log);

        // Simulate crash: rebuild with only keep1/keep2 reachable.
        let b = alloc(1 << 12);
        b.rebuild([(keep1, 16), (keep2, 16)]);
        // New allocations must avoid the kept blocks.
        for _ in 0..50 {
            let addr = b.alloc(0, 16, &mut log).expect("space available");
            for &k in &[keep1, keep2] {
                assert!(addr + 16 <= k || addr >= k + 16, "clobbered live block");
            }
        }
    }

    #[test]
    fn rebuild_reuses_the_dropped_gap() {
        let a = alloc(1 << 12);
        let mut log = TxnLog::new();
        let keep1 = a.alloc(0, 16, &mut log).unwrap();
        let dropped = a.alloc(0, 16, &mut log).unwrap();
        let keep2 = a.alloc(0, 16, &mut log).unwrap();
        a.commit(0, &mut log);

        let b = alloc(1 << 12);
        b.rebuild([(keep1, 16), (keep2, 16)]);
        let mut seen_gap = false;
        for _ in 0..50 {
            if let Some(addr) = b.alloc(0, 16, &mut log) {
                if addr == dropped {
                    seen_gap = true;
                }
            }
        }
        assert!(seen_gap, "gap at {dropped} never reused");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn rebuild_rejects_overlapping_blocks() {
        let a = alloc(1 << 12);
        a.rebuild([(16, 16), (20, 16)]);
    }

    #[test]
    fn concurrent_allocation_yields_disjoint_blocks() {
        use std::sync::Arc;
        let a = Arc::new(alloc(1 << 20));
        let mut handles = Vec::new();
        for t in 0..2 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                let mut log = TxnLog::new();
                let mut got = Vec::new();
                for _ in 0..5_000 {
                    got.push(a.alloc(t, 4, &mut log).unwrap());
                }
                a.commit(t, &mut log);
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate address handed out");
    }
}
