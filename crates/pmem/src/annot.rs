//! Trinity's colocated-undo persistent layout (§2.1.2, used by NV-HALT §3.2).
//!
//! Every transactional word is augmented, *in persistent memory only*, with
//! an adjacent replica word (`back`) and a sequence word (`meta`), all
//! within one cache line. Volatile memory holds just the user word; the
//! annotated entry exists purely for recovery (the optimisation Trinity
//! describes and NV-HALT adopts).
//!
//! Persisting a write stores `back = old value`, then `meta = {tid, pver}`,
//! then `data = new value`, then `pad = meta` (the completion witness),
//! and flushes the line — in that order, so any store-order-consistent
//! prefix that reaches the media is recoverable:
//!
//! * `meta` old → `data` is old too (kept as is);
//! * `meta` new → `back` is definitely the pre-transaction value, and the
//!   word is reverted to it iff the owning thread's durable persistent
//!   version number says transaction `pver` did not fully persist;
//! * `pad == meta` → the whole entry (data included) reached the media —
//!   the witness that lets a *counted* commit marker certify an entire
//!   write set with a single fence (see below).
//!
//! # Counted commit markers (one-fence group commit)
//!
//! The classic protocol needs two fences per committed writer: one after
//! the entries (so the marker store cannot become durable before them)
//! and one after the marker (so the ack is durable). The counted marker
//! folds both into one: the pver word packs `(count << 48) | version`,
//! where `count` is the number of entries the committing transaction
//! stamped with `version - 1`. Entries and marker are flushed together
//! under a *single* fence; recovery re-derives the ordering the first
//! fence used to provide by counting durable entries of the marker's
//! generation — `pad == meta == {tid, version-1}` — and rolling the
//! generation back if any are missing (a torn, unacknowledged commit).
//! A count of 0 or [`PVER_COUNT_TRUSTED`] means "trust the marker":
//! the writer used the legacy two-fence order (prepared-transaction
//! decisions, oversized write sets, pre-diet images).
//!
//! The pool region is laid out as one line per thread for the persistent
//! version numbers (avoiding line-lock contention between threads),
//! followed by a 4-word entry per user word (two entries per line):
//!
//! ```text
//! [ pver line, thread 0 ][ pver line, thread 1 ] ... [ entries: {data, back, meta, pad} per word ]
//! ```

use crate::pool::{DurableImage, PmemConfig, PmemPool, LINE_WORDS};
use psan::EntryRole;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tm::stats::TmStats;

/// Words per annotated entry (`{data, back, meta, pad}`).
pub const ENTRY_WORDS: usize = 4;

const F_DATA: usize = 0;
const F_BACK: usize = 1;
const F_META: usize = 2;
const F_PAD: usize = 3;

/// Low 48 bits of the pver word: the version itself.
const PVER_VER_MASK: u64 = (1 << 48) - 1;

/// Pver-word count field meaning "trust the marker" — the writer fenced
/// its entries *before* the marker store (legacy two-fence order), so no
/// recovery-time count check applies. Also the saturation fallback for
/// write sets of 2^16-1 entries or more.
pub const PVER_COUNT_TRUSTED: u64 = 0xFFFF;

/// Pack a pver word: entry count of the committing generation in the top
/// 16 bits, version in the low 48.
#[inline]
pub fn pack_pver(ver: u64, count: u64) -> u64 {
    debug_assert!(ver <= PVER_VER_MASK);
    debug_assert!(count <= PVER_COUNT_TRUSTED);
    (count << 48) | ver
}

/// The version field of a pver word.
#[inline]
pub fn pver_version(word: u64) -> u64 {
    word & PVER_VER_MASK
}

/// The count field of a pver word (0 and [`PVER_COUNT_TRUSTED`] both mean
/// "no count check").
#[inline]
pub fn pver_count(word: u64) -> u64 {
    word >> 48
}

/// The `{tid, pver}` tuple stored in an entry's sequence word. Thread id in
/// the top 16 bits, persistent version number in the low 48 (the paper
/// combines them because different threads may share version values).
///
/// Version wrap-around would take 2^48 committed writing transactions per
/// thread; out of reach in any run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Meta(pub u64);

impl Meta {
    /// Pack a thread id and version.
    #[inline]
    pub fn pack(tid: usize, ver: u64) -> Meta {
        debug_assert!(tid < (1 << 16));
        debug_assert!(ver < (1 << 48));
        Meta(((tid as u64) << 48) | ver)
    }

    /// Owning thread id.
    #[inline]
    pub fn tid(self) -> usize {
        (self.0 >> 48) as usize
    }

    /// Persistent version number.
    #[inline]
    pub fn ver(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }
}

/// Geometry of the annotated region: pure arithmetic, usable against both a
/// live pool and a crash image.
#[derive(Clone, Copy, Debug)]
pub struct AnnotLayout {
    /// Number of user words.
    pub heap_words: usize,
    /// Number of thread slots (one pver line each).
    pub max_threads: usize,
}

impl AnnotLayout {
    /// Total pool words this layout needs.
    pub fn total_words(&self) -> usize {
        self.max_threads * LINE_WORDS + self.heap_words * ENTRY_WORDS
    }

    /// Pool word holding thread `tid`'s persistent version number.
    #[inline]
    pub fn pver_word(&self, tid: usize) -> usize {
        debug_assert!(tid < self.max_threads);
        tid * LINE_WORDS
    }

    /// Pool word where user word `a`'s entry begins.
    #[inline]
    pub fn entry_base(&self, a: usize) -> usize {
        debug_assert!(a < self.heap_words);
        self.max_threads * LINE_WORDS + a * ENTRY_WORDS
    }

    /// Read an entry `{data, back, meta}` from a crash image.
    pub fn image_entry(&self, img: &DurableImage, a: usize) -> (u64, u64, Meta) {
        let base = self.entry_base(a);
        (
            img.word(base + F_DATA),
            img.word(base + F_BACK),
            Meta(img.word(base + F_META)),
        )
    }

    /// Read an entry's pad (completion witness) word from a crash image.
    pub fn image_entry_pad(&self, img: &DurableImage, a: usize) -> u64 {
        img.word(self.entry_base(a) + F_PAD)
    }

    /// Read thread `tid`'s durable pver (the version field) from a crash
    /// image.
    pub fn image_pver(&self, img: &DurableImage, tid: usize) -> u64 {
        pver_version(img.word(self.pver_word(tid)))
    }

    /// Read thread `tid`'s durable pver *count* field from a crash image
    /// (0 / [`PVER_COUNT_TRUSTED`] mean "trust the marker").
    pub fn image_pver_count(&self, img: &DurableImage, tid: usize) -> u64 {
        pver_count(img.word(self.pver_word(tid)))
    }

    /// Per-thread revert thresholds for recovery: entries stamped `{t, v}`
    /// with `v >= thresholds[t]` belong to transactions whose persist phase
    /// did not provably complete, and must be rolled back.
    ///
    /// For a trusted marker the threshold is simply the durable version
    /// `V` (the legacy rule). For a *counted* marker `(V, N)` the one-fence
    /// commit of generation `V - 1` may itself be torn — marker durable,
    /// entries not — so the generation is re-validated by counting its
    /// durable completion witnesses (`pad == meta == {t, V-1}`):
    ///
    /// * a *stray* entry with `ver >= V` exists → a later transaction of
    ///   `t` stored it, which it can only have done after the commit's
    ///   fence completed — generation `V - 1` is provably durable and the
    ///   threshold stays `V` (the stray itself is then ≥ the threshold and
    ///   gets reverted as usual);
    /// * otherwise, exactly `N` witnesses → complete, threshold `V`;
    /// * otherwise → torn: the threshold drops to `V - 1`, rolling the
    ///   whole (never-acknowledged) generation back.
    pub fn revert_thresholds(&self, img: &DurableImage) -> Vec<u64> {
        let mut thresholds = Vec::with_capacity(self.max_threads);
        // (generation meta word, expected witness count) per counted thread.
        let mut counted: Vec<Option<(u64, u64)>> = Vec::with_capacity(self.max_threads);
        for t in 0..self.max_threads {
            let v = self.image_pver(img, t);
            let c = self.image_pver_count(img, t);
            thresholds.push(v);
            let gen = if v > 0 { Meta::pack(t, v - 1).0 } else { 0 };
            // gen == 0 (thread 0, generation 0) is indistinguishable from a
            // fresh zeroed entry, so writers never use a counted marker for
            // it; treat it as trusted if an image claims otherwise.
            counted.push((c != 0 && c != PVER_COUNT_TRUSTED && gen != 0).then_some((gen, c)));
        }
        if counted.iter().any(Option::is_some) {
            let mut found = vec![0u64; self.max_threads];
            let mut stray = vec![false; self.max_threads];
            for a in 0..self.heap_words {
                let meta = Meta(img.word(self.entry_base(a) + F_META));
                if meta.0 == 0 || meta.tid() >= self.max_threads {
                    continue;
                }
                let t = meta.tid();
                if let Some((gen, _)) = counted[t] {
                    if meta.0 == gen && self.image_entry_pad(img, a) == gen {
                        found[t] += 1;
                    } else if meta.ver() >= thresholds[t] {
                        stray[t] = true;
                    }
                }
            }
            for t in 0..self.max_threads {
                if let Some((_, c)) = counted[t] {
                    if !stray[t] && found[t] != c {
                        thresholds[t] -= 1;
                    }
                }
            }
        }
        thresholds
    }
}

/// A [`PmemPool`] wrapped in the annotated layout.
pub struct AnnotPmem {
    layout: AnnotLayout,
    pool: PmemPool,
    /// Volatile memo per thread slot: the highest marker version known to
    /// be durably upgraded to trusted by a witness-preservation pass, so
    /// repeated overwrites of the same foreign generation pay the upgrade
    /// flush + fence once. Lost on crash — recovery just re-upgrades.
    upgraded: Box<[AtomicU64]>,
}

// This layer is where raw pool stores become role-tagged entry stores.
#[allow(clippy::disallowed_methods)]
impl AnnotPmem {
    /// Create a fresh annotated pool. `template.words` is ignored; the size
    /// is computed from `layout`.
    pub fn new(layout: AnnotLayout, template: &PmemConfig, stats: Option<Arc<TmStats>>) -> Self {
        let cfg = PmemConfig {
            words: layout.total_words(),
            max_threads: layout.max_threads,
            ..template.clone()
        };
        AnnotPmem {
            layout,
            pool: PmemPool::new(&cfg, stats),
            upgraded: (0..layout.max_threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Rebuild an annotated pool from a crash image (recovery).
    pub fn from_image(
        layout: AnnotLayout,
        template: &PmemConfig,
        image: &DurableImage,
        stats: Option<Arc<TmStats>>,
    ) -> Self {
        let cfg = PmemConfig {
            words: layout.total_words(),
            max_threads: layout.max_threads,
            ..template.clone()
        };
        AnnotPmem {
            layout,
            pool: PmemPool::from_durable(&cfg, image, stats),
            upgraded: (0..layout.max_threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The layout geometry.
    pub fn layout(&self) -> AnnotLayout {
        self.layout
    }

    /// The underlying pool (crash control, snapshots).
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// Persist one write-set entry: `back = old`, `meta`, `data = new`,
    /// `pad = meta`, then flush the entry's line — Figure 1 lines 17–19
    /// plus the completion witness.
    ///
    /// Built from the role-typed store building blocks below so the
    /// persist-order sanitizer can enforce the epoch protocol (and so
    /// adversarial fixtures can call them out of order on purpose).
    pub fn persist_entry(&self, tid: usize, a: usize, old: u64, new: u64, meta: Meta) {
        self.stage_entry(tid, a, old, new, meta);
        self.flush_entry(tid, a);
    }

    /// Stage one write-set entry's four stores *without* flushing — the
    /// group-commit building block: stage every entry of the write set,
    /// then flush each distinct entry line exactly once via
    /// [`AnnotPmem::flush_lines`].
    pub fn stage_entry(&self, tid: usize, a: usize, old: u64, new: u64, meta: Meta) {
        self.store_back(tid, a, old);
        self.store_meta(tid, a, meta);
        self.store_data(tid, a, new);
        self.store_pad(tid, a, meta);
    }

    /// Witness preservation — call with the write-set addresses *before*
    /// the first staging store of a commit/prepare.
    ///
    /// Staging over an entry that belongs to another thread's *latest
    /// counted* generation would deplete the witness count that thread's
    /// marker relies on, making a complete (possibly acknowledged) commit
    /// look torn to recovery. Holding the lock on the address proves that
    /// generation's fence completed (its owner released the lock only
    /// after it), so the marker is safely upgraded to a trusted one —
    /// CAS so a concurrent *newer* marker by the owner is never clobbered
    /// — and the upgrade is flushed and fenced durable before the caller
    /// overwrites the evidence. One upgrade converts the whole
    /// generation; a volatile memo makes repeats free.
    pub fn preserve_witnesses<I: IntoIterator<Item = usize>>(&self, tid: usize, addrs: I) {
        let mut fence = false;
        for a in addrs {
            let meta = Meta(self.pool.cache_word(self.layout.entry_base(a) + F_META));
            if meta.0 == 0 || meta.tid() == tid || meta.tid() >= self.layout.max_threads {
                continue;
            }
            let need = meta.ver() + 1;
            let victim = meta.tid();
            if self.upgraded[victim].load(Ordering::Acquire) >= need {
                continue;
            }
            let w = self.layout.pver_word(victim);
            let cur = self.pool.cache_word(w);
            if pver_version(cur) != need || pver_count(cur) == 0 {
                // The owner moved past this generation (or never counted
                // it): the entry is not a witness of its latest marker.
                continue;
            }
            if pver_count(cur) != PVER_COUNT_TRUSTED {
                // A failed CAS means the owner concurrently published a
                // newer marker or a racing upgrader won; either way the
                // flush below pushes whatever trusted/newer word is in
                // the cache — a racing upgrader may not have fenced yet,
                // so we cannot skip it.
                let _ = self
                    .pool
                    .cas_word(tid, w, cur, pack_pver(need, PVER_COUNT_TRUSTED));
            }
            self.pool.flush_line(tid, w);
            self.upgraded[victim].fetch_max(need, Ordering::Release);
            fence = true;
        }
        if fence {
            self.pool.sfence(tid);
        }
    }

    /// Pin recovery verdicts durably: every *counted* marker in the image
    /// is rewritten as a trusted marker at its effective (post-verdict)
    /// version from `thresholds`, flushed, and fenced — BEFORE any entry
    /// is neutralized. Neutralization destroys the strays and witnesses
    /// the counted verdict was derived from; without pinning, a crash
    /// mid-recovery could flip a "complete" verdict to "torn" on the next
    /// attempt and roll back an acknowledged commit.
    pub fn pin_recovery_verdicts(&self, img: &DurableImage, thresholds: &[u64]) {
        let mut any = false;
        for (t, &thr) in thresholds.iter().enumerate().take(self.layout.max_threads) {
            let c = self.layout.image_pver_count(img, t);
            if c != 0 && c != PVER_COUNT_TRUSTED {
                let w = self.layout.pver_word(t);
                self.pool.write(0, w, pack_pver(thr, PVER_COUNT_TRUSTED));
                self.pool.flush_line(0, w);
                any = true;
            }
        }
        if any {
            self.pool.sfence(0);
        }
    }

    /// Store user word `a`'s `back` (undo replica) word — step one of the
    /// entry protocol.
    pub fn store_back(&self, tid: usize, a: usize, old: u64) {
        let base = self.layout.entry_base(a);
        self.pool
            .write_role(tid, base + F_BACK, old, EntryRole::Back);
    }

    /// Store user word `a`'s `meta` (`{tid, pver}`) word — step two.
    pub fn store_meta(&self, tid: usize, a: usize, meta: Meta) {
        let base = self.layout.entry_base(a);
        self.pool
            .write_role(tid, base + F_META, meta.0, EntryRole::Meta);
    }

    /// Store user word `a`'s `data` (new value) word — step three.
    pub fn store_data(&self, tid: usize, a: usize, new: u64) {
        let base = self.layout.entry_base(a);
        self.pool
            .write_role(tid, base + F_DATA, new, EntryRole::Data);
    }

    /// Store user word `a`'s `pad` (completion witness) word — step four,
    /// always last. Recovery counts an entry toward a counted commit
    /// marker only when `pad == meta`, so a write-back that evicts the
    /// line mid-entry can never present a phantom "complete" entry.
    pub fn store_pad(&self, tid: usize, a: usize, meta: Meta) {
        let base = self.layout.entry_base(a);
        self.pool
            .write_role(tid, base + F_PAD, meta.0, EntryRole::Pad);
    }

    /// Flush user word `a`'s entry line — the final step of the protocol.
    pub fn flush_entry(&self, tid: usize, a: usize) {
        let base = self.layout.entry_base(a);
        self.pool.flush_line(tid, base);
    }

    /// The line-aligned pool word of user word `a`'s entry, for collecting
    /// distinct lines before a coalesced [`AnnotPmem::flush_lines`] pass.
    #[inline]
    pub fn entry_line(&self, a: usize) -> usize {
        let base = self.layout.entry_base(a);
        base - base % LINE_WORDS
    }

    /// Flush a set of entry lines, each distinct line exactly once: the
    /// group-commit flush pass. Sorts and dedups `lines` in place (callers
    /// keep a reusable scratch vector of [`AnnotPmem::entry_line`] values).
    pub fn flush_lines(&self, tid: usize, lines: &mut Vec<usize>) {
        lines.sort_unstable();
        lines.dedup();
        for &w in lines.iter() {
            self.pool.flush_line(tid, w);
        }
    }

    /// Write the recovered value of user word `a` during recovery
    /// (both layers already equal; this refreshes an entry whose data word
    /// was reverted). Flushes so the revert itself is durable.
    pub fn recovery_store(&self, a: usize, v: u64) {
        let base = self.layout.entry_base(a);
        self.pool.write(0, base + F_DATA, v);
        self.pool.flush_line(0, base);
    }

    /// Neutralize a reverted entry during recovery so its stale `meta`
    /// cannot pollute a future counted commit's generation count: the data
    /// word takes the back value, the pad witness is broken, and the meta
    /// is cleared — in that store order, so a crash mid-neutralization
    /// leaves the entry either still revertible (meta intact, back intact)
    /// or already neutral. Idempotent under re-crash.
    pub fn recovery_neutralize(&self, a: usize, back_value: u64) {
        let base = self.layout.entry_base(a);
        self.pool.write(0, base + F_DATA, back_value);
        self.pool.write(0, base + F_PAD, 1);
        self.pool.write(0, base + F_META, 0);
        self.pool.flush_line(0, base);
    }

    /// Persist thread `tid`'s new persistent version number (Figure 1
    /// line 21) with a *trusted* marker: store + flush. The caller orders
    /// it with a fence, having already fenced the entries (legacy
    /// two-fence order).
    ///
    /// This is the commit-marker store — the moment recovery semantics
    /// flip from "roll the staged entries back" to "keep them" — so it is
    /// a strict sanitizer durability point: every line `tid` persisted
    /// for this transaction must already be fenced.
    pub fn persist_pver(&self, tid: usize, ver: u64) {
        self.pool.durability_point(tid, "annot::persist_pver");
        let w = self.layout.pver_word(tid);
        self.pool.write(tid, w, pack_pver(ver, PVER_COUNT_TRUSTED));
        self.pool.flush_line(tid, w);
    }

    /// Persist thread `tid`'s new persistent version number as a *counted*
    /// marker: `count` entries were stamped `ver - 1` and flushed (but not
    /// yet fenced) by the committing transaction. The caller issues ONE
    /// fence after this — entries and marker drain together, and recovery
    /// distinguishes "marker without entries" by re-counting durable
    /// `pad == meta` witnesses of generation `ver - 1`.
    ///
    /// No pre-store durability point: the single-fence order means the
    /// entry lines are deliberately *not* fenced yet. Callers place a
    /// post-fence durability point instead.
    pub fn persist_pver_counted(&self, tid: usize, ver: u64, count: u64) {
        debug_assert!(count > 0 && count < PVER_COUNT_TRUSTED);
        let w = self.layout.pver_word(tid);
        self.pool.write(tid, w, pack_pver(ver, count));
        self.pool.flush_line(tid, w);
    }

    /// `sfence` for thread `tid`.
    pub fn sfence(&self, tid: usize) {
        self.pool.sfence(tid);
    }

    /// Entry `{data, back, meta}` as currently durable (quiescent).
    pub fn durable_entry(&self, a: usize) -> (u64, u64, Meta) {
        let base = self.layout.entry_base(a);
        (
            self.pool.durable_word(base + F_DATA),
            self.pool.durable_word(base + F_BACK),
            Meta(self.pool.durable_word(base + F_META)),
        )
    }

    /// Entry `{data, back, meta}` in the cache layer (quiescent).
    pub fn cache_entry(&self, a: usize) -> (u64, u64, Meta) {
        let base = self.layout.entry_base(a);
        (
            self.pool.cache_word(base + F_DATA),
            self.pool.cache_word(base + F_BACK),
            Meta(self.pool.cache_word(base + F_META)),
        )
    }

    /// Entry `pad` (completion witness) word as currently durable
    /// (quiescent).
    pub fn durable_entry_pad(&self, a: usize) -> u64 {
        self.pool.durable_word(self.layout.entry_base(a) + F_PAD)
    }

    /// Thread `tid`'s durable pver — the version field only (quiescent).
    pub fn durable_pver(&self, tid: usize) -> u64 {
        pver_version(self.pool.durable_word(self.layout.pver_word(tid)))
    }

    /// Thread `tid`'s durable pver count field (quiescent).
    pub fn durable_pver_count(&self, tid: usize) -> u64 {
        pver_count(self.pool.durable_word(self.layout.pver_word(tid)))
    }
}

#[cfg(test)]
// Fixtures forge torn durable entries with raw stores.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::pool::{FlushPolicy, PmemMode};
    use crate::EvictionPolicy;
    use crate::LatencyModel;

    fn settings() -> PmemConfig {
        PmemConfig {
            words: 0,
            max_threads: 0,
            mode: PmemMode::Nvram,
            lat: LatencyModel::zero(),
            flush: FlushPolicy::Eager,
            eviction: EvictionPolicy::None,
            seed: 7,
            psan: crate::PsanMode::Off,
        }
    }

    #[test]
    fn meta_pack_roundtrip() {
        let m = Meta::pack(12, 0x1234_5678_9abc);
        assert_eq!(m.tid(), 12);
        assert_eq!(m.ver(), 0x1234_5678_9abc);
        let zero = Meta(0);
        assert_eq!(zero.tid(), 0);
        assert_eq!(zero.ver(), 0);
    }

    #[test]
    fn layout_geometry() {
        let l = AnnotLayout {
            heap_words: 10,
            max_threads: 3,
        };
        assert_eq!(l.pver_word(0), 0);
        assert_eq!(l.pver_word(2), 16);
        assert_eq!(l.entry_base(0), 3 * LINE_WORDS);
        assert_eq!(l.entry_base(1), 3 * LINE_WORDS + ENTRY_WORDS);
        assert_eq!(l.total_words(), 3 * LINE_WORDS + 10 * ENTRY_WORDS);
    }

    #[test]
    fn persist_entry_becomes_durable() {
        let l = AnnotLayout {
            heap_words: 4,
            max_threads: 2,
        };
        let ap = AnnotPmem::new(l, &settings(), None);
        ap.persist_entry(1, 2, 10, 20, Meta::pack(1, 5));
        let (data, back, meta) = ap.durable_entry(2);
        assert_eq!((data, back), (20, 10));
        assert_eq!(meta, Meta::pack(1, 5));
    }

    #[test]
    fn pver_persists_per_thread() {
        let l = AnnotLayout {
            heap_words: 1,
            max_threads: 2,
        };
        let ap = AnnotPmem::new(l, &settings(), None);
        ap.persist_pver(0, 3);
        ap.persist_pver(1, 9);
        ap.sfence(0);
        ap.sfence(1);
        assert_eq!(ap.durable_pver(0), 3);
        assert_eq!(ap.durable_pver(1), 9);
    }

    #[test]
    fn image_accessors_match_pool_accessors() {
        let l = AnnotLayout {
            heap_words: 4,
            max_threads: 1,
        };
        let ap = AnnotPmem::new(l, &settings(), None);
        ap.persist_entry(0, 3, 1, 2, Meta::pack(0, 7));
        ap.sfence(0);
        ap.persist_pver(0, 8);
        ap.pool().crash();
        let img = ap.pool().snapshot_durable();
        assert_eq!(l.image_entry(&img, 3), ap.durable_entry(3));
        assert_eq!(l.image_pver(&img, 0), 8);
    }

    #[test]
    fn eviction_prefix_is_recoverable() {
        // Simulate the adversarial eviction the module docs discuss: the
        // line is written back after `back` and `meta` stores but before
        // `data`. Recovery must still see a revertible state.
        let l = AnnotLayout {
            heap_words: 2,
            max_threads: 1,
        };
        let ap = AnnotPmem::new(l, &settings(), None);
        // Initial committed value 5 for word 0 (fully persisted, pver -> 2).
        ap.persist_entry(0, 0, 0, 5, Meta::pack(0, 1));
        ap.sfence(0);
        ap.persist_pver(0, 2);
        ap.sfence(0);
        // A new transaction (pver 2) starts persisting 5 -> 6 but the pool
        // only sees `back` and `meta` hit the media (forced eviction),
        // never the data store or the flush.
        let base = l.entry_base(0);
        ap.pool().write(0, base + 1, 5); // back = old
        ap.pool().write(0, base + 2, Meta::pack(0, 2).0); // meta = {0, 2}
        ap.pool().force_evict(base);
        // data store happens in cache only, then crash.
        ap.pool().write(0, base, 6);
        ap.pool().crash();
        let img = ap.pool().snapshot_durable();
        let (data, back, meta) = l.image_entry(&img, 0);
        assert_eq!(data, 5, "new data never reached the media");
        assert_eq!(back, 5);
        assert_eq!(meta, Meta::pack(0, 2));
        // Recovery logic (meta.ver >= durable pver) reverts to back = 5:
        // the committed pre-crash value. Either way the word reads 5.
        assert!(meta.ver() >= l.image_pver(&img, 0));
    }

    #[test]
    fn pver_word_pack_roundtrip() {
        let w = pack_pver(0x1234_5678_9abc, 7);
        assert_eq!(pver_version(w), 0x1234_5678_9abc);
        assert_eq!(pver_count(w), 7);
        let trusted = pack_pver(3, PVER_COUNT_TRUSTED);
        assert_eq!(pver_version(trusted), 3);
        assert_eq!(pver_count(trusted), PVER_COUNT_TRUSTED);
        assert_eq!(pver_version(0), 0);
        assert_eq!(pver_count(0), 0);
    }

    #[test]
    fn counted_marker_round_trips_through_image() {
        let l = AnnotLayout {
            heap_words: 2,
            max_threads: 2,
        };
        let ap = AnnotPmem::new(l, &settings(), None);
        ap.persist_pver_counted(1, 4, 2);
        ap.sfence(1);
        assert_eq!(ap.durable_pver(1), 4);
        assert_eq!(ap.durable_pver_count(1), 2);
        ap.pool().crash();
        let img = ap.pool().snapshot_durable();
        assert_eq!(l.image_pver(&img, 1), 4);
        assert_eq!(l.image_pver_count(&img, 1), 2);
    }

    #[test]
    fn flush_lines_dedups_shared_lines() {
        let l = AnnotLayout {
            heap_words: 6,
            max_threads: 1,
        };
        let stats = Arc::new(TmStats::new(1));
        let ap = AnnotPmem::new(l, &settings(), Some(Arc::clone(&stats)));
        // Words 0 and 1 share an entry line (2 entries per line); word 4
        // lives two lines later.
        for &a in &[0usize, 1, 4] {
            ap.stage_entry(0, a, 0, a as u64 + 10, Meta::pack(0, 1));
        }
        let mut lines: Vec<usize> = [0usize, 1, 4, 1, 0]
            .iter()
            .map(|&a| ap.entry_line(a))
            .collect();
        let before = stats.snapshot().get(tm::stats::Counter::Flush);
        ap.flush_lines(0, &mut lines);
        let after = stats.snapshot().get(tm::stats::Counter::Flush);
        assert_eq!(after - before, 2, "two distinct lines, two flushes");
        ap.sfence(0);
        assert_eq!(ap.durable_entry(0).0, 10);
        assert_eq!(ap.durable_entry(1).0, 11);
        assert_eq!(ap.durable_entry(4).0, 14);
        assert_eq!(ap.durable_entry_pad(4), Meta::pack(0, 1).0);
    }

    #[test]
    fn recovery_neutralize_clears_meta_and_witness() {
        let l = AnnotLayout {
            heap_words: 1,
            max_threads: 1,
        };
        let ap = AnnotPmem::new(l, &settings(), None);
        ap.persist_entry(0, 0, 3, 9, Meta::pack(0, 1));
        ap.sfence(0);
        ap.recovery_neutralize(0, 3);
        let (data, _back, meta) = ap.durable_entry(0);
        assert_eq!(data, 3, "data reverted to back value");
        assert_eq!(meta, Meta(0), "meta cleared");
        assert_ne!(ap.durable_entry_pad(0), 0, "witness broken, not zero");
    }

    #[test]
    fn recovery_store_updates_data_durably() {
        let l = AnnotLayout {
            heap_words: 1,
            max_threads: 1,
        };
        let ap = AnnotPmem::new(l, &settings(), None);
        ap.persist_entry(0, 0, 0, 9, Meta::pack(0, 1));
        ap.recovery_store(0, 4);
        assert_eq!(ap.durable_entry(0).0, 4);
    }
}
