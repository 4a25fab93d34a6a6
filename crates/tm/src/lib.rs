//! Common vocabulary for every transactional memory in this workspace.
//!
//! The crate defines the word-based transactional API ([`Tm`], [`Txn`]),
//! the abort taxonomy ([`AbortKind`]) used to classify why attempts fail,
//! the crash-signalling machinery shared by the persistent-memory and HTM
//! simulators ([`crash`]), the hybrid retry policy that implements the
//! paper's *C-abortable* progress notion ([`policy`]), and cache-padded
//! per-thread statistics ([`stats`]).
//!
//! Every TM in the workspace (the three NV-HALT variants, Trinity and SPHT)
//! implements [`Tm`], which lets the transactional data structures in
//! `txstructs` and the benchmark harness in `bench` stay generic.

pub mod check;
pub mod crash;
pub mod policy;
pub mod stats;

use std::fmt;

/// A transactional word. All TMs in this workspace are word-based, as the
/// paper's TMs are: user data is an array of 64-bit words and transactional
/// addresses are word indices.
pub type Word = u64;

/// A transactional address: an index of a [`Word`] in the TM-owned heap.
///
/// `Addr(0)` is never handed out by the allocator so it can serve as a null
/// pointer inside transactional data structures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Addr(pub u64);

impl Addr {
    /// The null address (never allocated).
    pub const NULL: Addr = Addr(0);

    /// True if this is the null address.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Address `words` words past `self`.
    #[inline]
    pub fn offset(self, words: u64) -> Addr {
        Addr(self.0 + words)
    }

    /// The raw word index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Why a transaction attempt could not complete.
///
/// The taxonomy mirrors §2 of the paper: conflict aborts are the only aborts
/// a (strongly) progressive TM may incur, while capacity and spurious aborts
/// are the "unconditional" aborts that motivate *C-abortable* progress.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortKind {
    /// A data conflict with a concurrent transaction (lock held, validation
    /// failure, or HTM tracking-set conflict).
    Conflict,
    /// The hardware tracking set overflowed (bounded HTM read/write sets).
    Capacity,
    /// The hardware aborted for no observable reason (interrupts etc.).
    Spurious,
    /// The transaction itself requested an abort (`xabort`-style), carrying a
    /// user code. Used e.g. when a fast-path transaction observes a lock held
    /// by another thread.
    Explicit(u32),
}

impl AbortKind {
    /// True for aborts that count against the `C` bound of C-abortable
    /// progressiveness (i.e. aborts that are *not* justified by a conflict).
    pub fn is_unconditional(self) -> bool {
        matches!(self, AbortKind::Capacity | AbortKind::Spurious)
    }
}

/// Control-flow error produced inside a transaction body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Abort {
    /// The attempt must be abandoned and retried (possibly on the other
    /// path). Produced by the TM itself on conflicts, or by user code that
    /// detects an inconsistency (e.g. a traversal running out of fuel).
    Retry(AbortKind),
    /// The transaction is voluntarily abandoned: no retry, `Tm::txn` returns
    /// [`Cancelled`]. This is the "voluntary abort" operation of §2.
    Cancel,
}

impl Abort {
    /// Shorthand for a conflict-kind retry.
    pub const CONFLICT: Abort = Abort::Retry(AbortKind::Conflict);
}

/// Returned by [`Tm::txn`] when the body voluntarily cancelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cancelled;

/// Result of running a whole transaction (a sequence of attempts culminating
/// in a commit or a voluntary abort, per §2).
pub type TxResult<R> = Result<R, Cancelled>;

/// One transaction attempt. Handed to the transaction body by [`Tm::txn`].
///
/// All operations can fail with [`Abort::Retry`], which the body must
/// propagate (with `?`); `Tm::txn` then retries the body according to the
/// TM's retry policy.
pub trait Txn {
    /// Transactionally read the word at `a`.
    fn read(&mut self, a: Addr) -> Result<Word, Abort>;

    /// Transactionally write `v` to the word at `a`.
    fn write(&mut self, a: Addr, v: Word) -> Result<(), Abort>;

    /// Allocate `words` contiguous words. The allocation is rolled back if
    /// the transaction aborts (§4: allocation is tied to commit/abort).
    fn alloc(&mut self, words: usize) -> Result<Addr, Abort>;

    /// Free the block of `words` words at `a`. The free is deferred until
    /// the transaction commits (§4).
    fn free(&mut self, a: Addr, words: usize) -> Result<(), Abort>;

    /// True if this attempt executes on the hardware fast path.
    fn is_hw(&self) -> bool;

    /// Which attempt (0-based, across both paths) this is. Lets adversarial
    /// tests steer specific attempts.
    fn attempt(&self) -> usize;
}

/// A word-based transactional memory.
pub trait Tm: Sync {
    /// Run a transaction: retry `body` until it commits or cancels.
    ///
    /// `tid` identifies the calling thread and must be `< max_threads()`;
    /// each tid must be used by at most one OS thread at a time.
    fn txn<R>(
        &self,
        tid: usize,
        body: &mut dyn FnMut(&mut dyn Txn) -> Result<R, Abort>,
    ) -> TxResult<R>;

    /// Number of thread slots this TM was created with.
    fn max_threads(&self) -> usize;

    /// Read a word without any synchronization. Only valid while the TM is
    /// quiescent (no concurrent transactions); used for verification and
    /// recovery walks.
    fn read_raw(&self, a: Addr) -> Word;

    /// Aggregate statistics snapshot.
    fn stats(&self) -> stats::StatsSnapshot;

    /// A short human-readable name ("nv-halt", "trinity", ...).
    fn name(&self) -> &'static str;
}

/// Convenience: run a closure-based transaction against any `Tm`.
///
/// This is the ergonomic entry point used by data structures and examples;
/// it adapts a generic closure to the `&mut dyn FnMut` the trait needs.
pub fn txn<T: Tm + ?Sized, R>(
    tm: &T,
    tid: usize,
    mut body: impl FnMut(&mut dyn Txn) -> Result<R, Abort>,
) -> TxResult<R> {
    tm.txn(tid, &mut body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_null_and_offset() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr(1).is_null());
        assert_eq!(Addr(5).offset(3), Addr(8));
        assert_eq!(Addr(5).index(), 5);
        assert_eq!(format!("{}", Addr(7)), "@7");
    }

    #[test]
    fn abort_kind_classification() {
        assert!(AbortKind::Capacity.is_unconditional());
        assert!(AbortKind::Spurious.is_unconditional());
        assert!(!AbortKind::Conflict.is_unconditional());
        assert!(!AbortKind::Explicit(3).is_unconditional());
    }

    #[test]
    fn abort_shorthand() {
        assert_eq!(Abort::CONFLICT, Abort::Retry(AbortKind::Conflict));
    }
}
