//! Crash recovery for NV-HALT (§3.5).
//!
//! Recovery is [`AnnotPmem::recover`], the undo recovery the Trinity
//! baseline runs too: it traverses the annotated persistent image and
//! reverts to its
//! old (`back`) value every address whose entry's version number has not
//! been superseded by the owning thread's durable persistent version
//! number — i.e. entries stamped `{tid, v}` with `v >= durable_pver(tid)`
//! belong to a transaction whose persist phase did not complete before the
//! crash, and are rolled back (undo semantics, as in Trinity).
//!
//! Completing the roll-back durably makes recovery idempotent: a crash
//! during recovery itself simply re-reverts the same entries.
//!
//! The allocator's volatile state is rebuilt from a caller-supplied
//! iterator over the blocks still in use (§4: "the user must provide an
//! iterator that the allocator can utilize to determine which parts of
//! memory are in use").

use crate::config::NvHaltConfig;
use crate::engine::NvHalt;
use crate::heap::Heap;
use crate::lock::MAX_LOCK_THREADS;
use pmem::annot::AnnotLayout;
use pmem::pool::DurableImage;
use pmem::AnnotPmem;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tm::stats::TmStats;
use txalloc::{AllocConfig, TxAlloc};

impl NvHalt {
    /// Capture the durable image after a crash. All worker threads must
    /// have been joined first.
    pub fn crash_image(&self) -> DurableImage {
        assert!(
            self.pmem.pool().is_crashed(),
            "crash_image without a crash: call crash() first"
        );
        self.pmem.pool().snapshot_durable()
    }

    /// Recover a new NV-HALT instance from a crash image.
    ///
    /// `used_blocks` enumerates the `(address, words)` blocks reachable in
    /// the recovered state (run the data structures' recovery walks over
    /// the returned instance's `read_raw` *before* allocating — see
    /// [`NvHalt::recover_with`] for the two-phase variant used when the
    /// walk itself needs the recovered heap).
    pub fn recover(
        cfg: NvHaltConfig,
        image: &DurableImage,
        used_blocks: impl IntoIterator<Item = (u64, usize)>,
    ) -> NvHalt {
        let tm = Self::recover_with(cfg, image);
        tm.alloc.rebuild(used_blocks);
        tm
    }

    /// Phase one of recovery: rebuild the heap and persistent state from
    /// the image, leaving the allocator empty. The caller must walk the
    /// recovered heap (via `read_raw`) to enumerate live blocks and feed
    /// them to [`NvHalt::rebuild_allocator`] before running transactions
    /// that allocate.
    pub fn recover_with(cfg: NvHaltConfig, image: &DurableImage) -> NvHalt {
        assert!(cfg.max_threads >= 1 && cfg.max_threads <= MAX_LOCK_THREADS);
        let layout = AnnotLayout {
            heap_words: cfg.heap_words,
            max_threads: cfg.max_threads,
        };
        assert_eq!(
            image.len(),
            layout.total_words().div_ceil(pmem::LINE_WORDS) * pmem::LINE_WORDS,
            "image does not match configuration"
        );
        let stats = Arc::new(TmStats::new(cfg.max_threads));
        let heap = Heap::new(cfg.heap_words, cfg.locks);
        let pmem = AnnotPmem::recover(layout, &cfg.pm, image, Some(stats.clone()), |a, v| {
            heap.data_cell(a).store(v, Ordering::Relaxed)
        });
        let alloc = TxAlloc::new(AllocConfig::new(cfg.heap_words, cfg.max_threads));
        NvHalt::from_parts(cfg, heap, pmem, alloc, stats)
    }

    /// Phase two of recovery: hand the allocator the set of live blocks.
    pub fn rebuild_allocator(&self, used_blocks: impl IntoIterator<Item = (u64, usize)>) {
        self.alloc.rebuild(used_blocks);
    }

    /// Thread `tid`'s persistent version (diagnostics/tests).
    pub fn thread_pver(&self, tid: usize) -> u64 {
        self.pmem.version(tid)
    }
}
