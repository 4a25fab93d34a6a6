//! Deliberately-broken persist-order fixtures: one per sanitizer
//! diagnostic class, each asserting the class and the site label the
//! report carries, plus positive controls showing the instrumented
//! protocols come up clean under `PsanMode::Record`.
//!
//! The broken fixtures drive a raw [`PmemPool`] directly — the TM layers
//! are (by construction, and by the other tests here) free of these
//! violations, so the only way to exercise the sanitizer's teeth is to
//! misuse the pool on purpose.

// The broken fixtures misuse the pool through its raw store.
#![allow(clippy::disallowed_methods)]

use pmem::{DiagClass, Diagnostic, EntryRole, PmemConfig, PmemPool, PsanMode};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn record_pool(threads: usize) -> PmemPool {
    let mut cfg = PmemConfig::test(256, threads);
    cfg.psan = PsanMode::Record;
    PmemPool::new(&cfg, None)
}

fn drain(p: &PmemPool) -> Vec<Diagnostic> {
    p.psan().expect("sanitizer enabled").take_diagnostics()
}

fn correctness(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.into_iter().filter(|d| !d.class.is_perf()).collect()
}

// ---------------------------------------------------------------------
// Class (a): durability point reached with unfenced lines.
// ---------------------------------------------------------------------

#[test]
fn unfenced_durability_point_is_reported_with_both_sites() {
    let p = record_pool(1);
    {
        let _s = p.psan_scope(0, "fixture::writer");
        p.write(0, 0, 1);
    }
    // Never flushed, never fenced — claiming durability here is the bug.
    p.durability_point(0, "fixture::commit-marker");
    let diags = drain(&p);
    assert_eq!(diags.len(), 1, "exactly one diagnostic: {diags:?}");
    let d = &diags[0];
    assert_eq!(d.class, DiagClass::UnfencedDurabilityPoint);
    assert_eq!(d.class.label(), "unfenced-durability-point");
    assert_eq!(d.site, "fixture::commit-marker");
    assert_eq!(d.store_site, "fixture::writer");
    assert_eq!(d.tid, 0);
    assert_eq!(d.line, 0);
}

#[test]
fn flushed_but_unfenced_line_still_trips_a_strict_point() {
    let p = record_pool(1);
    let _s = p.psan_scope(0, "fixture::writer");
    p.write(0, 0, 1);
    p.flush_line(0, 0);
    // Flush initiated but no fence: the line is *not* durable yet. A
    // relaxed boundary tolerates this…
    p.crash_point(0);
    assert!(
        drain(&p).is_empty(),
        "relaxed point tolerates flushed-pending"
    );
    // …but a strict durability claim does not.
    p.durability_point(0, "fixture::strict");
    let diags = drain(&p);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].class, DiagClass::UnfencedDurabilityPoint);
    assert_eq!(diags[0].site, "fixture::strict");
}

#[test]
fn relaxed_crash_point_reports_never_flushed_lines() {
    let p = record_pool(1);
    {
        let _s = p.psan_scope(0, "fixture::sloppy-txn");
        p.write(0, 8, 7);
    }
    p.crash_point(0);
    let diags = drain(&p);
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.class, DiagClass::UnfencedDurabilityPoint);
    assert_eq!(d.site, "crash_point");
    assert_eq!(d.store_site, "fixture::sloppy-txn");
}

// ---------------------------------------------------------------------
// Class (b): colocated-entry protocol order (back → meta → data).
// ---------------------------------------------------------------------

#[test]
fn meta_before_back_is_an_entry_store_order_violation() {
    let p = record_pool(1);
    let _s = p.psan_scope(0, "fixture::entry-writer");
    // Entry base at word 8: data=8, back=9, meta=10.
    p.write_role(0, 10, 42, EntryRole::Meta);
    let diags = drain(&p);
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.class, DiagClass::EntryStoreOrder);
    assert_eq!(d.class.label(), "entry-store-order");
    assert_eq!(d.site, "fixture::entry-writer");
    assert!(
        d.detail.contains("meta stored before back"),
        "detail: {}",
        d.detail
    );
}

#[test]
fn data_before_meta_is_an_entry_store_order_violation() {
    let p = record_pool(1);
    let _s = p.psan_scope(0, "fixture::entry-writer");
    p.write_role(0, 9, 3, EntryRole::Back);
    p.write_role(0, 8, 11, EntryRole::Data);
    let diags = drain(&p);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].class, DiagClass::EntryStoreOrder);
    assert!(
        diags[0].detail.contains("data stored before meta"),
        "detail: {}",
        diags[0].detail
    );
}

#[test]
fn flush_of_a_half_written_entry_is_reported() {
    let p = record_pool(1);
    let _s = p.psan_scope(0, "fixture::entry-writer");
    p.write_role(0, 9, 3, EntryRole::Back);
    p.write_role(0, 10, 42, EntryRole::Meta);
    // Flushing now would persist a half-written entry (no data yet).
    p.flush_line(0, 8);
    let diags = drain(&p);
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.class, DiagClass::FlushBeforeStore);
    assert_eq!(d.class.label(), "flush-before-store");
    assert_eq!(d.site, "fixture::entry-writer");
    assert!(
        d.detail.contains("entry @8 flushed before its data store"),
        "detail: {}",
        d.detail
    );
}

#[test]
fn store_into_an_already_flushed_entry_is_reported() {
    let p = record_pool(1);
    let _s = p.psan_scope(0, "fixture::entry-writer");
    p.write_role(0, 9, 3, EntryRole::Back);
    p.write_role(0, 10, 42, EntryRole::Meta);
    p.write_role(0, 8, 11, EntryRole::Data);
    p.write_role(0, 11, 42, EntryRole::Pad);
    p.flush_line(0, 8);
    // Mutating the entry after its flush (before the fence closes the
    // epoch) silently reorders against the flush.
    p.write_role(0, 8, 12, EntryRole::Data);
    let diags = drain(&p);
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.class, DiagClass::StoreAfterFlush);
    assert_eq!(d.class.label(), "store-after-flush");
    assert!(
        d.detail.contains("already flushed this epoch"),
        "detail: {}",
        d.detail
    );
}

#[test]
fn fence_closes_entry_epochs() {
    // Same stores as above, but a fence between flush and re-store opens
    // a fresh epoch: no violation.
    let p = record_pool(1);
    let _s = p.psan_scope(0, "fixture::entry-writer");
    p.write_role(0, 9, 3, EntryRole::Back);
    p.write_role(0, 10, 42, EntryRole::Meta);
    p.write_role(0, 8, 11, EntryRole::Data);
    p.write_role(0, 11, 42, EntryRole::Pad);
    p.flush_line(0, 8);
    p.sfence(0);
    p.write_role(0, 9, 4, EntryRole::Back);
    p.write_role(0, 10, 43, EntryRole::Meta);
    p.write_role(0, 8, 12, EntryRole::Data);
    p.write_role(0, 11, 43, EntryRole::Pad);
    p.flush_line(0, 8);
    p.sfence(0);
    assert!(drain(&p).is_empty());
}

// ---------------------------------------------------------------------
// Class (c): redundant flushes (performance, never fatal).
// ---------------------------------------------------------------------

#[test]
fn redundant_flush_is_counted_but_not_fatal() {
    // Panic mode on purpose: perf diagnostics must never panic.
    let mut cfg = PmemConfig::test(256, 1);
    cfg.psan = PsanMode::Panic;
    let p = PmemPool::new(&cfg, None);
    let _s = p.psan_scope(0, "fixture::flusher");
    p.write(0, 0, 1);
    p.flush_line(0, 0);
    p.flush_line(0, 0); // no store in between: redundant
    let san = p.psan().unwrap();
    assert_eq!(san.redundant_flushes(), 1);
    let diags = drain(&p);
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.class, DiagClass::RedundantFlush);
    assert_eq!(d.class.label(), "redundant-flush");
    assert!(d.class.is_perf());
    assert_eq!(d.site, "fixture::flusher");
    // Clean up so the fence doesn't trip anything else.
    p.sfence(0);
}

// ---------------------------------------------------------------------
// Class (d): cross-thread persist races.
// ---------------------------------------------------------------------

#[test]
fn durable_decision_over_another_threads_unfenced_line_is_a_race() {
    let p = record_pool(2);
    {
        let _s = p.psan_scope(1, "fixture::writer-b");
        p.write(1, 0, 5); // thread 1 stores, never flushes/fences
    }
    // Thread 0 reads the racy line, then records a durable decision that
    // depends on it while it can still be lost to a crash.
    let _s = p.psan_scope(0, "fixture::decider");
    assert_eq!(p.read(0, 0), 5);
    p.write(0, 8, 1);
    p.flush_line(0, 8);
    p.sfence(0); // thread 0's own lines are clean
    p.durability_point(0, "fixture::decision");
    let diags = drain(&p);
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    let d = &diags[0];
    assert_eq!(d.class, DiagClass::CrossThreadRace);
    assert_eq!(d.class.label(), "cross-thread-race");
    assert_eq!(d.tid, 0);
    assert_eq!(d.site, "fixture::decision");
    assert_eq!(d.store_site, "fixture::writer-b");
    assert!(
        d.detail.contains("thread 1's unfenced line"),
        "detail: {}",
        d.detail
    );
}

#[test]
fn no_race_once_the_writer_fences() {
    let p = record_pool(2);
    {
        let _s = p.psan_scope(1, "fixture::writer-b");
        p.write(1, 0, 5);
    }
    assert_eq!(p.read(0, 0), 5); // dependency recorded…
    p.flush_line(1, 0);
    p.sfence(1); // …but the writer fences before the decision
    p.durability_point(0, "fixture::decision");
    assert!(drain(&p).is_empty());
}

// ---------------------------------------------------------------------
// Panic mode: correctness classes are fatal, with the label in the
// message.
// ---------------------------------------------------------------------

#[test]
fn panic_mode_aborts_on_a_correctness_diagnostic() {
    let mut cfg = PmemConfig::test(256, 1);
    cfg.psan = PsanMode::Panic;
    let p = PmemPool::new(&cfg, None);
    {
        let _s = p.psan_scope(0, "fixture::writer");
        p.write(0, 0, 1);
    }
    let err = catch_unwind(AssertUnwindSafe(|| {
        p.durability_point(0, "fixture::commit-marker");
    }))
    .expect_err("panic mode must abort the durability point");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("psan[unfenced-durability-point]"),
        "panic message: {msg}"
    );
    assert!(
        msg.contains("fixture::commit-marker"),
        "panic message: {msg}"
    );
}

// ---------------------------------------------------------------------
// Positive controls: the instrumented TM protocols are clean under
// Record mode, through crash and recovery.
// ---------------------------------------------------------------------

#[test]
fn nvhalt_workload_crash_recover_is_clean_under_record() {
    use nv_halt::prelude::*;
    use nvhalt::NvHaltConfig;

    let mut cfg = NvHaltConfig::test(1 << 12, 2);
    cfg.pm.psan = PsanMode::Record;
    let tm = NvHalt::new(cfg.clone());
    for i in 0..64u64 {
        tm::txn(&tm, (i % 2) as usize, |tx| {
            let v = tx.read(Addr(1 + i % 8))?;
            tx.write(Addr(1 + i % 8), v + 1)
        })
        .unwrap();
    }
    tm.crash();
    let pre = tm
        .pmem()
        .pool()
        .psan()
        .map(|s| correctness(s.take_diagnostics()))
        .unwrap_or_default();
    assert!(pre.is_empty(), "pre-crash diagnostics: {pre:?}");

    let rec = NvHalt::recover(cfg, &tm.crash_image(), []);
    for i in 0..32u64 {
        tm::txn(&rec, 0, |tx| tx.write(Addr(1 + i % 8), i)).unwrap();
    }
    let post = rec
        .pmem()
        .pool()
        .psan()
        .map(|s| correctness(s.take_diagnostics()))
        .unwrap_or_default();
    assert!(post.is_empty(), "post-recovery diagnostics: {post:?}");
}

#[test]
fn trinity_workload_crash_recover_is_clean_under_record() {
    use nv_halt::prelude::*;

    let mut cfg = TrinityConfig::test(1 << 12, 2);
    cfg.pm.psan = PsanMode::Record;
    let tm = Trinity::new(cfg.clone());
    for i in 0..64u64 {
        tm::txn(&tm, (i % 2) as usize, |tx| {
            let v = tx.read(Addr(1 + i % 8))?;
            tx.write(Addr(1 + i % 8), v + 1)
        })
        .unwrap();
    }
    tm.crash();
    let pre = tm
        .pmem()
        .pool()
        .psan()
        .map(|s| correctness(s.take_diagnostics()))
        .unwrap_or_default();
    assert!(pre.is_empty(), "pre-crash diagnostics: {pre:?}");

    let rec = Trinity::recover(cfg, &tm.crash_image(), []);
    for i in 0..32u64 {
        tm::txn(&rec, 0, |tx| tx.write(Addr(1 + i % 8), i)).unwrap();
    }
    let post = rec
        .pmem()
        .pool()
        .psan()
        .map(|s| correctness(s.take_diagnostics()))
        .unwrap_or_default();
    assert!(post.is_empty(), "post-recovery diagnostics: {post:?}");
}

#[test]
fn spht_workload_crash_recover_is_clean_under_record() {
    use nv_halt::prelude::*;

    let mut cfg = SphtConfig::test(1 << 12, 2);
    cfg.pm.psan = PsanMode::Record;
    let tm = Spht::new(cfg.clone());
    for i in 0..96u64 {
        tm::txn(&tm, (i % 2) as usize, |tx| {
            let v = tx.read(Addr(1 + i % 8))?;
            tx.write(Addr(1 + i % 8), v + 1)
        })
        .unwrap();
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
        tm::txn(&rec, 0, |tx| tx.write(Addr(1 + i % 8), i)).unwrap();
    }
    let post = rec
        .pool()
        .psan()
        .map(|s| correctness(s.take_diagnostics()))
        .unwrap_or_default();
    assert!(post.is_empty(), "post-recovery diagnostics: {post:?}");
}
