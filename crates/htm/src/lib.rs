//! A best-effort hardware transactional memory simulator with Intel RTM
//! semantics (§2 "Hardware TM").
//!
//! Real RTM gives transactions a *tracking set* maintained by the cache
//! coherence protocol: if a concurrent thread writes an address in the
//! tracking set of an ongoing transaction, at least one of the conflicting
//! transactions aborts; transactions may also abort for *any* reason
//! (capacity, interrupts, ...), and a `flush` instruction always aborts
//! them. This crate reproduces those semantics in software:
//!
//! * **Tracking sets** are word-granularity read/write sets. Conflicts are
//!   detected through a global table of per-address *seqlock slots* (the
//!   simulated coherence directory): every committing transaction bumps the
//!   slots it wrote, and every transaction validates the slots it read.
//!   Addresses map to slots by hashing, so unrelated addresses can collide
//!   — false conflicts, which best-effort HTM is allowed to have.
//! * **Non-transactional conflicting accesses**: [`Htm::nt_store`] and a
//!   successful [`Htm::nt_cas`] bump the target's slot, aborting any
//!   transaction that read it — "a non-transactional access can also abort
//!   a transaction".
//! * **Bounded capacity**: read/write sets have configurable entry limits
//!   modelling the L1-bounded tracking sets (capacity aborts can occur for
//!   quite small sets on real hardware; the limits default generously but
//!   finitely).
//! * **Spurious aborts**: a configurable per-access probability.
//! * **Explicit aborts**: [`txn::HtmTxn::xabort`] with a user code.
//!
//! # Atomicity and publication order
//!
//! Buffered writes are published at commit while all written slots are
//! seqlocked, so transactional readers always see an all-or-nothing
//! transaction. For *non-transactional* observers the simulator publishes
//! in **program order** (first-write order). Real HTM publishes atomically;
//! program order is the weaker guarantee every protocol in this workspace
//! is already robust to, because each writes protecting metadata (locks)
//! before the data it guards, and non-transactional readers validate
//! metadata after reading data. This requirement is inherited from the
//! paper's own protocols (e.g. NV-HALT acquires a word's lock before
//! writing the word, Figure 5).
//!
//! A committer publishes *after* validating its read set, holding only
//! its written slots locked while it does. So a lock-based fallback path
//! that shuts hardware transactions out by writing a lock word they
//! subscribe to is not yet alone once that write lands: a transaction
//! that validated just before may still be publishing. Such a path reads
//! through [`Htm::nt_load_settled`], which waits while the cell's slot
//! is locked by a committer, and writes through [`Htm::nt_store`], which
//! waits too. A plain load could return a value the publication is about
//! to overwrite, and the fallback's own write would then be lost.
//!
//! # What cannot happen inside a transaction
//!
//! Persistent-memory flushes abort real hardware transactions, which is the
//! paper's central difficulty. The TMs built on this simulator therefore
//! never touch the pmem crate inside [`Htm::execute`]; the simulator
//! supports that discipline by keeping its API disjoint from `pmem` (there
//! is deliberately no way to reach a pool from a transaction).

pub mod txn;

pub use txn::{HtmThread, HtmTxn, Xabort};

use std::sync::atomic::{AtomicU64, Ordering};
use tm::AbortKind;

/// Configuration for an [`Htm`] instance.
#[derive(Clone, Copy, Debug)]
pub struct HtmConfig {
    /// log2 of the slot-table size (the simulated coherence directory).
    pub slots_log2: u32,
    /// Maximum read-set entries before a capacity abort.
    pub max_read_entries: usize,
    /// Maximum write-set entries before a capacity abort.
    pub max_write_entries: usize,
    /// If nonzero, each transactional access aborts spuriously with
    /// probability `2^-spurious_log2`. Zero disables spurious aborts.
    pub spurious_log2: u32,
    /// Seed for per-thread RNG streams.
    pub seed: u64,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            slots_log2: 20,
            max_read_entries: 4096,
            max_write_entries: 512,
            spurious_log2: 18,
            seed: 0x51ab_5eed,
        }
    }
}

impl HtmConfig {
    /// Deterministic functional-test configuration: no spurious aborts.
    pub fn test() -> Self {
        HtmConfig {
            spurious_log2: 0,
            slots_log2: 14,
            ..Default::default()
        }
    }
}

/// The simulated HTM unit: slot table plus a timestamp counter.
pub struct Htm {
    slots: Box<[AtomicU64]>,
    mask: usize,
    tsc: AtomicU64,
    pub(crate) cfg: HtmConfig,
}

impl Htm {
    /// Create an HTM unit.
    pub fn new(cfg: HtmConfig) -> Self {
        let n = 1usize << cfg.slots_log2;
        Htm {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mask: n - 1,
            tsc: AtomicU64::new(0),
            cfg,
        }
    }

    /// The configuration this unit was created with.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// Slot index for a cell: the simulated cache-line-to-directory map.
    /// Tracking is **line-granular** (64 bytes), as in real RTM — eight
    /// adjacent words share a slot, so sequential scans occupy one
    /// tracking-set entry per line and false sharing between neighbouring
    /// words conflicts, exactly like the hardware.
    #[inline]
    pub(crate) fn slot_of(&self, cell: &AtomicU64) -> usize {
        let line = cell as *const AtomicU64 as usize >> 6;
        (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - self.cfg.slots_log2)) & self.mask
    }

    #[inline]
    pub(crate) fn slot(&self, idx: usize) -> &AtomicU64 {
        &self.slots[idx]
    }

    /// Lock a slot for a non-transactional operation; returns the
    /// pre-lock (even) value.
    #[inline]
    fn nt_lock_slot(&self, idx: usize) -> u64 {
        let slot = &self.slots[idx];
        let mut tries = 0u32;
        loop {
            let cur = slot.load(Ordering::Relaxed);
            if cur & 1 == 0
                && slot
                    .compare_exchange_weak(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return cur;
            }
            std::hint::spin_loop();
            tries += 1;
            if tries & 0x3f == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Non-transactional store. Conflicts with — and will abort — any
    /// ongoing transaction whose tracking set covers `cell`.
    pub fn nt_store(&self, cell: &AtomicU64, v: u64) {
        let idx = self.slot_of(cell);
        let pre = self.nt_lock_slot(idx);
        cell.store(v, Ordering::Release);
        self.slots[idx].store(pre + 2, Ordering::Release);
    }

    /// Non-transactional compare-and-swap. On success returns `Ok(prev)`
    /// and conflicts with ongoing transactions covering `cell`; on failure
    /// returns `Err(observed)` and leaves the slot version unchanged (the
    /// cell was not modified).
    pub fn nt_cas(&self, cell: &AtomicU64, expected: u64, new: u64) -> Result<u64, u64> {
        // Test-first: avoid dirtying the slot when the CAS cannot succeed.
        let cur = cell.load(Ordering::Acquire);
        if cur != expected {
            return Err(cur);
        }
        let idx = self.slot_of(cell);
        let pre = self.nt_lock_slot(idx);
        let cur = cell.load(Ordering::Acquire);
        if cur == expected {
            cell.store(new, Ordering::Release);
            self.slots[idx].store(pre + 2, Ordering::Release);
            Ok(cur)
        } else {
            self.slots[idx].store(pre, Ordering::Release);
            Err(cur)
        }
    }

    /// Non-transactional load. Never conflicts (word stores are atomic, so
    /// a single-word load is always safe against the publication protocol).
    #[inline]
    pub fn nt_load(&self, cell: &AtomicU64) -> u64 {
        cell.load(Ordering::Acquire)
    }

    /// Non-transactional load that never overtakes a committer: waits
    /// while `cell`'s slot is locked by one, and re-checks the slot after
    /// the load. The returned value is then one no publication already
    /// past validation will overwrite — what a lock-based fallback path
    /// must read (see the crate docs).
    pub fn nt_load_settled(&self, cell: &AtomicU64) -> u64 {
        let slot = &self.slots[self.slot_of(cell)];
        let mut tries = 0u32;
        loop {
            let ver = slot.load(Ordering::Acquire);
            if ver & 1 == 0 {
                let v = cell.load(Ordering::Acquire);
                if slot.load(Ordering::Acquire) == ver {
                    return v;
                }
            }
            std::hint::spin_loop();
            tries += 1;
            if tries & 0x3f == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// A monotonically increasing timestamp, usable inside transactions
    /// without entering any tracking set — the simulator's `rdtsc` (SPHT
    /// orders commits with such timestamps).
    #[inline]
    pub fn rdtsc(&self) -> u64 {
        self.tsc.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Run one hardware transaction attempt. `f` runs speculatively; on
    /// `Ok`, the simulator attempts to commit. Any abort (conflict,
    /// capacity, spurious, explicit) is reported as `Err` with all
    /// speculative state discarded — control "returns to `xbegin`".
    ///
    /// Cells passed to the transaction's operations must outlive the whole
    /// `execute` call (they are published at commit, after `f` returns);
    /// the `'env` lifetime enforces this.
    pub fn execute<'env, R>(
        &self,
        th: &mut HtmThread,
        f: impl FnOnce(&mut HtmTxn<'env, '_>) -> Result<R, Xabort>,
    ) -> Result<R, AbortKind> {
        txn::execute(self, th, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn nt_store_and_load_roundtrip() {
        let htm = Htm::new(HtmConfig::test());
        let cell = AtomicU64::new(0);
        htm.nt_store(&cell, 7);
        assert_eq!(htm.nt_load(&cell), 7);
    }

    #[test]
    fn nt_cas_success_and_failure() {
        let htm = Htm::new(HtmConfig::test());
        let cell = AtomicU64::new(5);
        assert_eq!(htm.nt_cas(&cell, 5, 6), Ok(5));
        assert_eq!(htm.nt_load(&cell), 6);
        assert_eq!(htm.nt_cas(&cell, 5, 9), Err(6));
        assert_eq!(htm.nt_load(&cell), 6);
    }

    #[test]
    fn nt_store_bumps_slot_version() {
        let htm = Htm::new(HtmConfig::test());
        let cell = AtomicU64::new(0);
        let idx = htm.slot_of(&cell);
        let before = htm.slot(idx).load(Ordering::Relaxed);
        htm.nt_store(&cell, 1);
        let after = htm.slot(idx).load(Ordering::Relaxed);
        assert_eq!(after, before + 2);
        assert_eq!(after & 1, 0);
    }

    #[test]
    fn failed_nt_cas_does_not_bump_slot() {
        let htm = Htm::new(HtmConfig::test());
        let cell = AtomicU64::new(3);
        let idx = htm.slot_of(&cell);
        let before = htm.slot(idx).load(Ordering::Relaxed);
        assert!(htm.nt_cas(&cell, 99, 100).is_err());
        assert_eq!(htm.slot(idx).load(Ordering::Relaxed), before);
    }

    #[test]
    fn settled_load_waits_out_a_locked_slot() {
        let htm = Arc::new(Htm::new(HtmConfig::test()));
        let cell = Arc::new(AtomicU64::new(1));
        let idx = htm.slot_of(&cell);
        // Play a committer mid-publication: slot locked, new value not
        // yet stored.
        let pre = htm.nt_lock_slot(idx);
        let reader = {
            let (htm, cell) = (htm.clone(), cell.clone());
            std::thread::spawn(move || htm.nt_load_settled(&cell))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        cell.store(2, Ordering::Release);
        htm.slot(idx).store(pre + 2, Ordering::Release);
        assert_eq!(reader.join().unwrap(), 2, "read overtook the publication");
        assert_eq!(htm.nt_load_settled(&cell), 2);
    }

    #[test]
    fn rdtsc_is_monotonic_and_unique() {
        let htm = Arc::new(Htm::new(HtmConfig::test()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = htm.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| h.rdtsc()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| {
                let v = h.join().unwrap();
                assert!(v.windows(2).all(|w| w[0] < w[1]), "per-thread monotone");
                v
            })
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "globally unique");
    }

    #[test]
    fn concurrent_nt_stores_leave_slots_free() {
        let htm = Arc::new(Htm::new(HtmConfig::test()));
        let cell = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let htm = htm.clone();
            let cell = cell.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000 {
                    htm.nt_store(&cell, t * 100_000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let idx = htm.slot_of(&cell);
        assert_eq!(htm.slot(idx).load(Ordering::Relaxed) & 1, 0, "slot free");
    }
}
