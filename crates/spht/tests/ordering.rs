//! Targeted tests of SPHT's distinguishing mechanisms: the global-lock
//! fallback's effect on hardware transactions, the timestamp-ordered
//! durability negotiation, marker free-riding, and the paper's point that
//! SPHT blocks *disjoint* transactions.

use pmem::pool::{EvictionPolicy, FlushPolicy};
use pmem::{Diagnostic, PsanMode};
use spht::{Spht, SphtConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use tm::policy::HybridPolicy;
use tm::stats::Counter;
use tm::{txn, Abort, Addr, Tm};

fn correctness(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.into_iter().filter(|d| !d.class.is_perf()).collect()
}

/// While one thread sits in the software fallback (global lock held),
/// other threads' transactions cannot commit in hardware — they wait or
/// fall back, and throughput collapses to the serial path. This is the
/// structural bottleneck the paper contrasts NV-HALT against.
#[test]
fn fallback_serializes_everyone() {
    let tmem = Spht::new(SphtConfig::test(1 << 12, 2));
    let in_fallback = AtomicBool::new(false);
    let observed_block = AtomicBool::new(false);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        // Thread 0: a long software-path transaction (forced by retrying
        // away every hardware attempt).
        s.spawn(|| {
            start.wait();
            txn(&tmem, 0, |tx| {
                if tx.is_hw() {
                    return Err(Abort::CONFLICT);
                }
                in_fallback.store(true, Ordering::Release);
                tx.write(Addr(1), 7)?;
                // Hold the global lock for a while.
                let t0 = std::time::Instant::now();
                while t0.elapsed() < std::time::Duration::from_millis(30) {
                    std::thread::yield_now();
                }
                in_fallback.store(false, Ordering::Release);
                Ok(())
            })
            .unwrap();
        });
        // Thread 1: hardware transactions on DISJOINT data during the
        // fallback window must abort (they subscribe to the lock).
        s.spawn(|| {
            start.wait();
            while !in_fallback.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let before = tmem.stats().get(Counter::HwConflict);
            // This transaction touches only Addr(2); it still cannot run.
            txn(&tmem, 1, |tx| tx.write(Addr(2), 9)).unwrap();
            let after = tmem.stats().get(Counter::HwConflict);
            if after > before {
                observed_block.store(true, Ordering::Release);
            }
        });
    });
    assert!(
        observed_block.load(Ordering::Acquire),
        "disjoint hardware transaction was not blocked by the fallback lock"
    );
    assert_eq!(tmem.read_raw(Addr(1)), 7);
    assert_eq!(tmem.read_raw(Addr(2)), 9);
}

/// Durability ordering: a transaction's commit does not return until the
/// durable marker covers it, so after any prefix of committed writes a
/// crash recovers exactly a prefix-consistent state (checked via a chain
/// where each value embeds its predecessor).
#[test]
fn commit_order_is_durability_order() {
    let cfg = SphtConfig::test(1 << 10, 1);
    let tmem = Spht::new(cfg.clone());
    // A dependency chain: slot i+1 is written only after slot i's commit
    // returned. Recovery must never show slot i+1 set while slot i is 0.
    for i in 0..40u64 {
        txn(&tmem, 0, |tx| tx.write(Addr(1 + i), i + 1)).unwrap();
    }
    tmem.crash();
    let rec = Spht::recover(cfg, &tmem.crash_image());
    let mut seen_zero = false;
    for i in 0..40u64 {
        let v = rec.read_raw(Addr(1 + i));
        if v == 0 {
            seen_zero = true;
        } else {
            assert!(
                !seen_zero,
                "slot {i} durable but an earlier slot is not — ordering violated"
            );
            assert_eq!(v, i + 1);
        }
    }
    assert!(
        !seen_zero,
        "all committed writes were fence-ordered durable"
    );
}

/// Read-only transactions skip the whole durability protocol: no log
/// growth, no ordering waits, no marker traffic.
#[test]
fn read_only_transactions_skip_persistence() {
    let tmem = Spht::new(SphtConfig::test(1 << 10, 1));
    txn(&tmem, 0, |tx| tx.write(Addr(1), 5)).unwrap();
    let flushes_before = tmem.stats().get(Counter::Flush);
    for _ in 0..100 {
        assert_eq!(txn(&tmem, 0, |tx| tx.read(Addr(1))).unwrap(), 5);
    }
    assert_eq!(
        tmem.stats().get(Counter::Flush),
        flushes_before,
        "read-only transactions issued flushes"
    );
}

/// Concurrent writers to disjoint data all commit and all survive a
/// crash (the ordering negotiation may stall them, but must not wedge or
/// lose anything).
#[test]
fn concurrent_disjoint_writers_recover_completely() {
    let cfg = SphtConfig::test(1 << 12, 4);
    let tmem = Spht::new(cfg.clone());
    std::thread::scope(|s| {
        for t in 0..4usize {
            let tmem = &tmem;
            s.spawn(move || {
                for i in 1..=500u64 {
                    txn(tmem, t, |tx| tx.write(Addr(100 + t as u64), i)).unwrap();
                }
            });
        }
    });
    tmem.crash();
    let rec = Spht::recover(cfg, &tmem.crash_image());
    for t in 0..4u64 {
        assert_eq!(rec.read_raw(Addr(100 + t)), 500, "thread {t}");
    }
}

/// Log-record persist ordering under the sanitizer, covering both
/// next-slot truncation layouts: a 1-write record (`need = 4`) leaves
/// the truncation word on the *same* cache line as the validity marker,
/// a 3-write record (`need = 8`) pushes it onto the *next* line. In
/// both layouts the record body and the truncation zero must be fenced
/// durable before the marker is declared, and psan must see a clean
/// store→flush→fence discipline throughout commit, crash, and recovery.
#[test]
fn record_truncation_layouts_are_clean_under_record() {
    let mut cfg = SphtConfig::test(1 << 10, 1);
    cfg.pm.psan = PsanMode::Record;
    let tm = Spht::new(cfg.clone());
    // Alternate 1-write (same-line truncation) and 3-write (cross-line
    // truncation) records; the log head walks through both phases of
    // every line-alignment class.
    for i in 0..32u64 {
        if i % 2 == 0 {
            txn(&tm, 0, |tx| tx.write(Addr(1 + i), i + 1)).unwrap();
        } else {
            txn(&tm, 0, |tx| {
                tx.write(Addr(1 + i), i + 1)?;
                tx.write(Addr(100 + i), i + 1)?;
                tx.write(Addr(200 + i), i + 1)
            })
            .unwrap();
        }
    }
    tm.crash();
    let pre = tm
        .pool()
        .psan()
        .map(|s| correctness(s.take_diagnostics()))
        .unwrap_or_default();
    assert!(pre.is_empty(), "pre-crash diagnostics: {pre:?}");

    let rec = Spht::recover(cfg, &tm.crash_image());
    for i in 0..32u64 {
        assert_eq!(rec.read_raw(Addr(1 + i)), i + 1, "slot {i}");
    }
    let post = rec
        .pool()
        .psan()
        .map(|s| correctness(s.take_diagnostics()))
        .unwrap_or_default();
    assert!(post.is_empty(), "post-recovery diagnostics: {post:?}");
}

/// Adversarial persist schedule for the truncation-ordering fix: with
/// `Seeded` flush completion (write-backs complete immediately or at
/// the next fence, per-flush at random) plus random eviction, a
/// truncation store whose durability is not ordered *before* the
/// validity marker's would eventually leave a durable marker behind a
/// stale next-slot length — and a tiny log forces wraps, so stale
/// bytes really are sitting in the next slot. Every committed write
/// must still be recovered.
#[test]
fn truncation_survives_reordered_writebacks_and_wraps() {
    for round in 0..8u64 {
        let mut cfg = SphtConfig::test(1 << 10, 2);
        cfg.log_words = 64; // wraps every few records
        cfg.pm.flush = FlushPolicy::Seeded { num: 128 };
        cfg.pm.eviction = EvictionPolicy::Random { prob_log2: 6 };
        cfg.pm.seed = 0x5eed_0000 + round;
        let tm = Spht::new(cfg.clone());
        let committed: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..2usize {
                let committed = &committed;
                let tm = &tm;
                s.spawn(move || {
                    tm::crash::run_crashable(|| {
                        for i in 1..u64::MAX {
                            // One cache line per thread: psan tracks
                            // lines, so slots sharing a line would read
                            // as a cross-thread race under `PSAN=1`.
                            let slot = 1 + (t * pmem::pool::LINE_WORDS) as u64;
                            if txn(tm, t, |tx| tx.write(Addr(slot), i)).is_ok() {
                                committed.lock().unwrap().push((slot, i));
                            } else {
                                break;
                            }
                        }
                    });
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(15));
            tm.crash();
        });
        let rec = Spht::recover(cfg, &tm.crash_image());
        for (slot, v) in committed.into_inner().unwrap() {
            let got = rec.read_raw(Addr(slot));
            assert!(
                got >= v,
                "round {round} slot {slot}: durable {got} older than committed {v}"
            );
        }
    }
}

/// The STM-only policy (always the global lock) is correct, just slow —
/// the degenerate configuration the paper contrasts with NV-HALT's
/// non-trivial fallback.
#[test]
fn stm_only_spht_is_a_global_lock_tm() {
    let mut cfg = SphtConfig::test(1 << 10, 2);
    cfg.policy = HybridPolicy::stm_only();
    let tmem = Spht::new(cfg);
    std::thread::scope(|s| {
        for t in 0..2usize {
            let tmem = &tmem;
            s.spawn(move || {
                for _ in 0..2_000 {
                    txn(tmem, t, |tx| {
                        let v = tx.read(Addr(1))?;
                        tx.write(Addr(1), v + 1)
                    })
                    .unwrap();
                }
            });
        }
    });
    assert_eq!(tmem.read_raw(Addr(1)), 4_000);
    assert_eq!(tmem.stats().get(Counter::HwCommit), 0);
}
