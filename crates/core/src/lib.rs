//! # NV-HALT — Non-Volatile Hardware Assisted Locking Transactions
//!
//! The paper's primary contribution: a family of persistent hybrid
//! transactional memories whose hardware fast path is used — perhaps
//! counterintuitively — primarily to *read and acquire fine-grained
//! locks*. Acquiring locks inside the hardware transaction means the
//! written addresses remain locked after `xend`, which is exactly what
//! makes it possible to persist them afterwards (flush instructions abort
//! hardware transactions, so persisting must happen outside).
//!
//! Three configurations are exposed, matching the paper's evaluation:
//!
//! * **NV-HALT** — O(1)-abortable *weakly progressive*; lock table.
//! * **NV-HALT-SP** — O(1)-abortable *strongly progressive*: global
//!   commit clock, sorted lock acquisition, dual-version locks (Figure 7).
//! * **NV-HALT-CL** — colocated locks (one lock in the word adjacent to
//!   each data word).
//!
//! All variants guarantee durable (durably linearizable) transactions and
//! opacity; see `engine.rs` for the protocol and `recovery.rs` for the
//! post-crash procedure.
//!
//! ```
//! use nvhalt::{NvHalt, NvHaltConfig};
//! use tm::{Addr, Tm};
//!
//! let tmem = NvHalt::new(NvHaltConfig::test(1 << 10, 2));
//! let committed: Result<u64, _> = tm::txn(&tmem, 0, |tx| {
//!     let v = tx.read(Addr(1))?;
//!     tx.write(Addr(1), v + 41)?;
//!     tx.read(Addr(1))
//! });
//! assert_eq!(committed, Ok(41));
//! ```

pub mod config;
pub mod engine;
pub mod heap;
pub mod lock;
pub mod recovery;

pub use config::{NvHaltConfig, Progress};
pub use engine::NvHalt;
pub use heap::LockStrategy;
pub use lock::LockWord;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use tm::policy::HybridPolicy;
    use tm::stats::Counter;
    use tm::{txn, Abort, Addr, Cancelled, Tm};

    fn small(progress: Progress, locks: LockStrategy) -> NvHalt {
        let mut cfg = NvHaltConfig::test(1 << 12, 4);
        cfg.progress = progress;
        cfg.locks = locks;
        NvHalt::new(cfg)
    }

    fn all_variants() -> Vec<NvHalt> {
        vec![
            small(Progress::Weak, LockStrategy::Table { locks_log2: 10 }),
            small(Progress::Strong, LockStrategy::Table { locks_log2: 10 }),
            small(Progress::Weak, LockStrategy::Colocated),
            small(Progress::Strong, LockStrategy::Colocated),
        ]
    }

    #[test]
    fn read_write_roundtrip_all_variants() {
        for tmem in all_variants() {
            let r = txn(&tmem, 0, |tx| {
                tx.write(Addr(5), 123)?;
                tx.read(Addr(5))
            });
            assert_eq!(r, Ok(123), "{}", tmem.name());
            assert_eq!(tmem.read_raw(Addr(5)), 123);
        }
    }

    #[test]
    fn variant_names() {
        let names: Vec<&str> = all_variants().iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            ["nv-halt", "nv-halt-sp", "nv-halt-cl", "nv-halt-sp-cl"]
        );
    }

    #[test]
    fn fast_path_commits_in_hardware() {
        let tmem = small(Progress::Weak, LockStrategy::Table { locks_log2: 10 });
        for i in 0..100 {
            txn(&tmem, 0, |tx| tx.write(Addr(1 + i % 8), i)).unwrap();
        }
        let s = tmem.stats();
        assert_eq!(s.get(Counter::HwCommit), 100, "uncontended = all hardware");
        assert_eq!(s.get(Counter::SwCommit), 0);
    }

    #[test]
    fn stm_only_policy_uses_software_path() {
        let mut cfg = NvHaltConfig::test(1 << 10, 1);
        cfg.policy = HybridPolicy::stm_only();
        let tmem = NvHalt::new(cfg);
        txn(&tmem, 0, |tx| tx.write(Addr(1), 9)).unwrap();
        let s = tmem.stats();
        assert_eq!(s.get(Counter::SwCommit), 1);
        assert_eq!(s.get(Counter::HwCommit), 0);
        assert_eq!(tmem.read_raw(Addr(1)), 9);
    }

    #[test]
    fn aborted_attempts_leave_no_trace() {
        let tmem = small(Progress::Weak, LockStrategy::Colocated);
        // Cancel after writing: nothing may be visible.
        let r: Result<(), Cancelled> = txn(&tmem, 0, |tx| {
            tx.write(Addr(7), 999)?;
            Err(Abort::Cancel)
        });
        assert_eq!(r, Err(Cancelled));
        assert_eq!(tmem.read_raw(Addr(7)), 0);
        assert_eq!(tmem.stats().get(Counter::Cancelled), 1);
    }

    #[test]
    fn user_retry_reruns_body() {
        let tmem = small(Progress::Strong, LockStrategy::Table { locks_log2: 10 });
        let mut tries = 0;
        let r = txn(&tmem, 0, |tx| {
            tries += 1;
            if tries < 5 {
                return Err(Abort::CONFLICT);
            }
            tx.write(Addr(3), tries as u64)
        });
        assert_eq!(r, Ok(()));
        assert_eq!(tries, 5);
        assert_eq!(tmem.read_raw(Addr(3)), 5);
    }

    #[test]
    fn read_own_writes_on_both_paths() {
        for stm_only in [false, true] {
            let mut cfg = NvHaltConfig::test(1 << 10, 1);
            if stm_only {
                cfg.policy = HybridPolicy::stm_only();
            }
            let tmem = NvHalt::new(cfg);
            let r = txn(&tmem, 0, |tx| {
                tx.write(Addr(2), 10)?;
                let v = tx.read(Addr(2))?;
                tx.write(Addr(2), v * 2)?;
                tx.read(Addr(2))
            });
            assert_eq!(r, Ok(20));
        }
    }

    #[test]
    fn alloc_free_within_transactions() {
        let tmem = small(Progress::Weak, LockStrategy::Table { locks_log2: 10 });
        let addr = txn(&tmem, 0, |tx| {
            let a = tx.alloc(4)?;
            tx.write(a, 77)?;
            Ok(a)
        })
        .unwrap();
        assert_eq!(tmem.read_raw(addr), 77);
        // Free and reallocate: the block must be recycled (same thread).
        txn(&tmem, 0, |tx| tx.free(addr, 4)).unwrap();
        let again = txn(&tmem, 0, |tx| tx.alloc(4)).unwrap();
        assert_eq!(again, addr);
    }

    #[test]
    fn cancelled_alloc_is_rolled_back() {
        let tmem = small(Progress::Weak, LockStrategy::Table { locks_log2: 10 });
        let first = txn(&tmem, 0, |tx| tx.alloc(8)).unwrap();
        txn(&tmem, 0, |tx| tx.free(first, 8)).unwrap();
        let r: Result<(), Cancelled> = txn(&tmem, 0, |tx| {
            let a = tx.alloc(8)?;
            assert_eq!(a, first, "recycled");
            Err(Abort::Cancel)
        });
        assert!(r.is_err());
        // The cancelled txn's allocation was returned.
        let again = txn(&tmem, 0, |tx| tx.alloc(8)).unwrap();
        assert_eq!(again, first);
    }

    #[test]
    fn concurrent_counter_is_exact_all_variants() {
        for tmem in all_variants() {
            let tmem = Arc::new(tmem);
            let per_thread = 3_000u64;
            let mut handles = Vec::new();
            for t in 0..4 {
                let tmem = tmem.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        txn(&*tmem, t, |tx| {
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
            assert_eq!(tmem.read_raw(Addr(1)), 4 * per_thread, "{}", tmem.name());
        }
    }

    #[test]
    fn bank_transfer_invariant_under_contention() {
        // Classic opacity smoke test: total balance is conserved and no
        // transaction ever observes a torn transfer.
        for tmem in all_variants() {
            let tmem = Arc::new(tmem);
            let accounts = 16u64;
            let initial = 1000u64;
            for a in 0..accounts {
                txn(&*tmem, 0, |tx| tx.write(Addr(1 + a), initial)).unwrap();
            }
            let violations = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for t in 0..4usize {
                let tmem = tmem.clone();
                let violations = violations.clone();
                handles.push(std::thread::spawn(move || {
                    let mut rng = (t as u64 + 1) * 0x9e37_79b9;
                    for i in 0..2_000u64 {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let from = 1 + rng % accounts;
                        let to = 1 + (rng >> 8) % accounts;
                        if from == to {
                            continue;
                        }
                        if i % 4 == 0 {
                            // Audit transaction: sum everything.
                            let total = txn(&*tmem, t, |tx| {
                                let mut sum = 0u64;
                                for a in 0..accounts {
                                    sum += tx.read(Addr(1 + a))?;
                                }
                                Ok(sum)
                            })
                            .unwrap();
                            if total != accounts * initial {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            let _ = txn(&*tmem, t, |tx| {
                                let f = tx.read(Addr(from))?;
                                if f == 0 {
                                    return Err(Abort::Cancel);
                                }
                                let g = tx.read(Addr(to))?;
                                tx.write(Addr(from), f - 1)?;
                                tx.write(Addr(to), g + 1)
                            });
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                violations.load(Ordering::Relaxed),
                0,
                "torn transfer observed in {}",
                tmem.name()
            );
            let total: u64 = (0..accounts).map(|a| tmem.read_raw(Addr(1 + a))).sum();
            assert_eq!(total, accounts * initial, "{}", tmem.name());
        }
    }

    #[test]
    fn conflicting_writes_fall_back_and_still_commit() {
        let tmem = Arc::new(small(
            Progress::Strong,
            LockStrategy::Table { locks_log2: 4 },
        ));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let tmem = tmem.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    txn(&*tmem, t, |tx| {
                        // Everyone hammers the same two words.
                        let a = tx.read(Addr(1))?;
                        let b = tx.read(Addr(2))?;
                        tx.write(Addr(1), a + 1)?;
                        tx.write(Addr(2), b + 1)?;
                        let _ = i;
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tmem.read_raw(Addr(1)), 8_000);
        assert_eq!(tmem.read_raw(Addr(2)), 8_000);
        let s = tmem.stats();
        assert_eq!(s.commits(), 8_000);
    }

    #[test]
    fn durable_after_commit_then_crash() {
        let cfg = NvHaltConfig::test(1 << 10, 2);
        let tmem = NvHalt::new(cfg.clone());
        txn(&tmem, 0, |tx| {
            tx.write(Addr(3), 33)?;
            tx.write(Addr(4), 44)
        })
        .unwrap();
        txn(&tmem, 1, |tx| tx.write(Addr(5), 55)).unwrap();
        tmem.crash();
        let img = tmem.crash_image();
        let rec = NvHalt::recover(cfg, &img, []);
        assert_eq!(rec.read_raw(Addr(3)), 33);
        assert_eq!(rec.read_raw(Addr(4)), 44);
        assert_eq!(rec.read_raw(Addr(5)), 55);
    }

    #[test]
    fn recovery_reverts_partially_persisted_transaction() {
        // Force the adversarial schedule by persisting a write set
        // manually through the engine's own primitives: commit a txn, then
        // crash *during* a second txn's persist phase by poisoning the
        // pool from another thread at a fence. Simpler and fully
        // deterministic: crash between the entry flush and the pver flush
        // using the Deferred flush policy (the pver flush never completes).
        let mut cfg = NvHaltConfig::test(1 << 10, 1);
        cfg.pm.flush = pmem::FlushPolicy::Eager;
        let tmem = NvHalt::new(cfg.clone());
        txn(&tmem, 0, |tx| tx.write(Addr(3), 1)).unwrap();

        // Hand-run an incomplete persist: entries stamped with the current
        // pver hit the media, but the pver bump does not.
        let pver = tmem.thread_pver(0);
        tmem.pmem()
            .persist_entry(0, 3, 1, 2, pmem::Meta::pack(0, pver));
        tmem.crash();
        let img = tmem.crash_image();
        let rec = NvHalt::recover(cfg, &img, []);
        assert_eq!(
            rec.read_raw(Addr(3)),
            1,
            "incomplete transaction rolled back to committed value"
        );
    }

    #[test]
    fn recovery_is_idempotent_across_double_crash() {
        let cfg = NvHaltConfig::test(1 << 10, 1);
        let tmem = NvHalt::new(cfg.clone());
        txn(&tmem, 0, |tx| tx.write(Addr(3), 7)).unwrap();
        let pver = tmem.thread_pver(0);
        tmem.pmem()
            .persist_entry(0, 3, 7, 8, pmem::Meta::pack(0, pver));
        tmem.crash();
        let img = tmem.crash_image();

        let rec1 = NvHalt::recover(cfg.clone(), &img, []);
        assert_eq!(rec1.read_raw(Addr(3)), 7);
        // Immediately crash again without any new work.
        rec1.crash();
        let img2 = rec1.crash_image();
        let rec2 = NvHalt::recover(cfg, &img2, []);
        assert_eq!(rec2.read_raw(Addr(3)), 7);
    }

    #[test]
    fn pver_survives_recovery() {
        let cfg = NvHaltConfig::test(1 << 10, 2);
        let tmem = NvHalt::new(cfg.clone());
        for i in 0..5 {
            txn(&tmem, 1, |tx| tx.write(Addr(2), i)).unwrap();
        }
        let before = tmem.thread_pver(1);
        assert_eq!(before, 5);
        tmem.crash();
        let rec = NvHalt::recover(cfg, &tmem.crash_image(), []);
        assert_eq!(rec.thread_pver(1), 5);
        // New transactions stamp versions that recovery will trust.
        txn(&rec, 1, |tx| tx.write(Addr(2), 99)).unwrap();
        rec.crash();
        let rec2 = NvHalt::recover(NvHaltConfig::test(1 << 10, 2), &rec.crash_image(), []);
        assert_eq!(rec2.read_raw(Addr(2)), 99);
    }

    #[test]
    fn crash_during_concurrent_load_preserves_committed_markers() {
        // Threads write unique markers; whatever was reported committed
        // before the crash must be durable (durable linearizability).
        let cfg = NvHaltConfig::test(1 << 12, 4);
        let tmem = Arc::new(NvHalt::new(cfg.clone()));
        let committed: Arc<parking_lot::Mutex<Vec<(u64, u64)>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let tmem = tmem.clone();
            let committed = committed.clone();
            handles.push(std::thread::spawn(move || {
                tm::crash::run_crashable(|| {
                    for i in 0..100_000u64 {
                        let slot = 1 + (t as u64) * 64 + i % 64;
                        let val = (t as u64) << 32 | (i + 1);
                        if txn(&*tmem, t, |tx| tx.write(Addr(slot), val)).is_ok() {
                            committed.lock().push((slot, val));
                        }
                    }
                });
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        tmem.crash();
        for h in handles {
            h.join().unwrap();
        }
        let img = tmem.crash_image();
        let rec = NvHalt::recover(cfg, &img, []);
        // For each slot the last committed value must be durable (later
        // commits may also have made it, but only to a committed value).
        use std::collections::HashMap;
        let mut last: HashMap<u64, u64> = HashMap::new();
        let mut all: HashMap<u64, Vec<u64>> = HashMap::new();
        for (slot, val) in committed.lock().iter() {
            last.insert(*slot, *val);
            all.entry(*slot).or_default().push(*val);
        }
        for (slot, vals) in &all {
            let got = rec.read_raw(Addr(*slot));
            assert!(
                got == last[slot] || vals.contains(&got) || got > last[slot],
                "slot {slot}: got {got:x}, last committed {:x}",
                last[slot]
            );
            assert!(
                got >= last[slot],
                "slot {slot}: durable value {got:x} older than a committed write {:x}",
                last[slot]
            );
        }
    }

    // ------------------------------------------------------------------
    // Prepared transactions (two-phase commit participant)
    // ------------------------------------------------------------------

    /// A bounded read that cancels instead of spinning forever on a held
    /// lock — lets tests observe "blocked by a prepared transaction".
    fn try_read(tmem: &NvHalt, tid: usize, a: Addr) -> Result<u64, Cancelled> {
        txn(tmem, tid, |tx| {
            if tx.attempt() >= 6 {
                return Err(Abort::Cancel);
            }
            tx.read(a)
        })
    }

    #[test]
    fn prepared_writes_are_invisible_until_commit() {
        for tmem in all_variants() {
            txn(&tmem, 0, |tx| tx.write(Addr(5), 1)).unwrap();
            tmem.prepare(0, |tx| tx.write(Addr(5), 2)).unwrap();
            assert!(tmem.has_prepared(0), "{}", tmem.name());
            // Another thread cannot read past the prepared lock.
            assert_eq!(
                try_read(&tmem, 1, Addr(5)),
                Err(Cancelled),
                "{}",
                tmem.name()
            );
            tmem.commit_prepared(0);
            assert!(!tmem.has_prepared(0));
            assert_eq!(try_read(&tmem, 1, Addr(5)), Ok(2), "{}", tmem.name());
        }
    }

    #[test]
    fn prepare_pins_its_read_set() {
        let tmem = small(Progress::Strong, LockStrategy::Table { locks_log2: 10 });
        txn(&tmem, 0, |tx| tx.write(Addr(4), 7)).unwrap();
        let read = tmem.prepare(0, |tx| tx.read(Addr(4))).unwrap();
        assert_eq!(read, 7);
        // A writer to the pinned address is blocked until the decision.
        let blocked = txn(&tmem, 1, |tx| {
            if tx.attempt() >= 6 {
                return Err(Abort::Cancel);
            }
            tx.write(Addr(4), 8)
        });
        assert_eq!(blocked, Err(Cancelled));
        tmem.abort_prepared(0);
        txn(&tmem, 1, |tx| tx.write(Addr(4), 8)).unwrap();
        assert_eq!(tmem.read_raw(Addr(4)), 8);
    }

    #[test]
    fn crash_while_prepared_rolls_back() {
        let cfg = NvHaltConfig::test(1 << 10, 2);
        let tmem = NvHalt::new(cfg.clone());
        txn(&tmem, 0, |tx| tx.write(Addr(6), 10)).unwrap();
        tmem.prepare(0, |tx| tx.write(Addr(6), 11)).unwrap();
        tmem.crash();
        let rec = NvHalt::recover(cfg, &tmem.crash_image(), []);
        assert_eq!(
            rec.read_raw(Addr(6)),
            10,
            "undecided prepared write must not survive a crash"
        );
    }

    #[test]
    fn commit_prepared_is_durable() {
        let cfg = NvHaltConfig::test(1 << 10, 2);
        let tmem = NvHalt::new(cfg.clone());
        tmem.prepare(0, |tx| tx.write(Addr(6), 21)).unwrap();
        tmem.commit_prepared(0);
        tmem.crash();
        let rec = NvHalt::recover(cfg, &tmem.crash_image(), []);
        assert_eq!(rec.read_raw(Addr(6)), 21);
    }

    #[test]
    fn abort_prepared_holds_durably_across_later_commits() {
        // The dangerous schedule: abort a prepared write, then commit more
        // transactions on the same thread (pushing the durable pver past
        // the aborted entries), then crash. The aborted value must not be
        // resurrected by recovery trusting the now-superseded entry.
        let cfg = NvHaltConfig::test(1 << 10, 1);
        let tmem = NvHalt::new(cfg.clone());
        txn(&tmem, 0, |tx| tx.write(Addr(3), 1)).unwrap();
        tmem.prepare(0, |tx| tx.write(Addr(3), 2)).unwrap();
        tmem.abort_prepared(0);
        assert_eq!(tmem.read_raw(Addr(3)), 1);
        for i in 0..4u64 {
            txn(&tmem, 0, |tx| tx.write(Addr(9), i)).unwrap();
        }
        tmem.crash();
        let rec = NvHalt::recover(cfg, &tmem.crash_image(), []);
        assert_eq!(rec.read_raw(Addr(3)), 1, "aborted prepared value came back");
        assert_eq!(rec.read_raw(Addr(9)), 3);
    }

    #[test]
    fn prepared_alloc_commits_or_rolls_back_with_the_decision() {
        let tmem = small(Progress::Weak, LockStrategy::Table { locks_log2: 10 });
        let a = tmem
            .prepare(0, |tx| {
                let a = tx.alloc(4)?;
                tx.write(a, 5)?;
                Ok(a)
            })
            .unwrap();
        tmem.commit_prepared(0);
        assert_eq!(tmem.read_raw(a), 5);
        // Aborted decision returns the block to the allocator.
        let b = tmem.prepare(0, |tx| tx.alloc(4)).unwrap();
        tmem.abort_prepared(0);
        let again = txn(&tmem, 0, |tx| tx.alloc(4)).unwrap();
        assert_eq!(again, b, "aborted prepared allocation not recycled");
    }

    #[test]
    #[should_panic(expected = "prepared transaction is outstanding")]
    fn txn_panics_while_prepared() {
        let tmem = small(Progress::Weak, LockStrategy::Table { locks_log2: 10 });
        tmem.prepare(0, |tx| tx.write(Addr(2), 1)).unwrap();
        let _ = txn(&tmem, 0, |tx| tx.read(Addr(3)));
    }
}
