//! Deliberately-broken lock-discipline fixtures: one per locksan rule,
//! each asserting the report class and the provenance it carries, plus a
//! clean-run control showing disciplined code produces no reports.
//!
//! The broken fixtures misuse the instrumented `parking_lot` shim (and,
//! for the stripe rule, the sanitizer's stripe hooks) on purpose — the
//! instrumented protocols are (by the sweep suites) free of these
//! violations, so this is the only way to exercise the sanitizer's
//! teeth end to end through the shim.
#![cfg(feature = "locksan")]
// The lock-across-persist fixtures persist through the raw pool store.
#![allow(clippy::disallowed_methods)]

use locksan::LocksanMode;
use parking_lot::{Condvar, Mutex};
use pmem::{PmemConfig, PmemPool};
use std::sync::Mutex as StdMutex;
use std::time::Duration;

/// locksan's registry and report buffer are process-global; the fixtures
/// mutate them, so they run one at a time. (A `std` mutex on purpose:
/// the serializer itself must not appear in the reports it gates.)
static SERIAL: StdMutex<()> = StdMutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    let g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    locksan::reset();
    locksan::set_mode(LocksanMode::Record);
    g
}

fn labels(reports: &[locksan::Report]) -> Vec<&'static str> {
    reports.iter().map(|r| r.rule.label()).collect()
}

// ---------------------------------------------------------------------
// Rule: potential-deadlock (AB/BA inversion).
// ---------------------------------------------------------------------

#[test]
fn ab_ba_inversion_reports_potential_deadlock() {
    let _g = serial();
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);
    a.locksan_label("fixture::a", false);
    b.locksan_label("fixture::b", false);
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    {
        let _gb = b.lock();
        let _ga = a.lock(); // inverts the a→b order recorded above
    }
    let reports = locksan::take_reports();
    assert_eq!(labels(&reports), ["potential-deadlock"], "{reports:?}");
    let r = &reports[0];
    assert!(
        r.detail.contains("fixture::a") && r.detail.contains("fixture::b"),
        "detail names both classes: {r}"
    );
    assert!(
        r.to_string().starts_with("locksan[potential-deadlock]"),
        "{r}"
    );
    // Both sides carry acquisition-site provenance from this file.
    assert!(
        r.site_a.contains("locksan_fixtures.rs") && r.site_b.contains("locksan_fixtures.rs"),
        "{r}"
    );
}

#[test]
fn transitive_cycle_through_three_locks_is_caught() {
    let _g = serial();
    let a = Mutex::new(());
    let b = Mutex::new(());
    let c = Mutex::new(());
    a.locksan_label("fixture::ta", false);
    b.locksan_label("fixture::tb", false);
    c.locksan_label("fixture::tc", false);
    {
        let _ga = a.lock();
        let _gb = b.lock(); // a → b
    }
    {
        let _gb = b.lock();
        let _gc = c.lock(); // b → c
    }
    {
        let _gc = c.lock();
        let _ga = a.lock(); // c → a closes the cycle
    }
    let reports = locksan::take_reports();
    assert_eq!(labels(&reports), ["potential-deadlock"], "{reports:?}");
}

// ---------------------------------------------------------------------
// Rule: lock-across-persist.
// ---------------------------------------------------------------------

#[test]
fn service_lock_held_across_flush_is_reported_once() {
    let _g = serial();
    let p = PmemPool::new(&PmemConfig::test(64, 1), None);
    let m = Mutex::new(());
    m.locksan_label("fixture::service", false);
    let guard = m.lock();
    p.write(0, 0, 1);
    p.flush_line(0, 0);
    p.sfence(0); // second persist op under the same class: deduped
    drop(guard);
    let reports = locksan::take_reports();
    assert_eq!(labels(&reports), ["lock-across-persist"], "{reports:?}");
    let r = &reports[0];
    assert!(r.detail.contains("fixture::service"), "{r}");
}

#[test]
fn allow_persist_lock_is_exempt_across_fence() {
    let _g = serial();
    let p = PmemPool::new(&PmemConfig::test(64, 1), None);
    let m = Mutex::new(());
    // Thread-state cells legitimately persist under lock; the label's
    // allow_persist flag records that design decision.
    m.locksan_label("fixture::thread-state", true);
    let guard = m.lock();
    p.write(0, 0, 1);
    p.flush_line(0, 0);
    p.sfence(0);
    drop(guard);
    let reports = locksan::take_reports();
    assert!(reports.is_empty(), "{reports:?}");
}

// ---------------------------------------------------------------------
// Rule: condvar-while-holding.
// ---------------------------------------------------------------------

#[test]
fn condvar_wait_while_holding_another_lock_is_reported() {
    let _g = serial();
    let outer = Mutex::new(());
    outer.locksan_label("fixture::outer", false);
    let inner = Mutex::new(false);
    inner.locksan_label("fixture::inner", false);
    let cv = Condvar::new();
    let _go = outer.lock();
    let mut gi = inner.lock();
    let _ = cv.wait_for(&mut gi, Duration::from_millis(1));
    drop(gi);
    let reports = locksan::take_reports();
    assert_eq!(labels(&reports), ["condvar-while-holding"], "{reports:?}");
    let r = &reports[0];
    assert!(
        r.detail.contains("fixture::inner") && r.detail.contains("fixture::outer"),
        "detail names waited-on and held classes: {r}"
    );
}

// ---------------------------------------------------------------------
// Rule: stripe-order. Driven through the sanitizer's stripe hooks (the
// same calls the TM commit paths make) with a deliberately descending
// rank on a path that claims canonical ordering.
// ---------------------------------------------------------------------

#[test]
fn out_of_order_stripe_acquisition_is_reported() {
    let _g = serial();
    locksan::on_stripe_release_all();
    locksan::on_stripe_acquire(0x40, true, "fixture::commit");
    locksan::on_stripe_acquire(0x80, true, "fixture::commit");
    locksan::on_stripe_acquire(0x60, true, "fixture::commit"); // rank decreases
    locksan::on_stripe_release_all();
    let reports = locksan::take_reports();
    assert_eq!(labels(&reports), ["stripe-order"], "{reports:?}");
}

#[test]
fn unordered_fallback_path_is_not_checked() {
    let _g = serial();
    locksan::on_stripe_release_all();
    // `ordered: false` models a weak-progress path that retries instead
    // of sorting; out-of-order CAS successes are fine there.
    locksan::on_stripe_acquire(0x80, false, "fixture::weak");
    locksan::on_stripe_acquire(0x40, false, "fixture::weak");
    locksan::on_stripe_release_all();
    assert!(locksan::take_reports().is_empty());
}

// ---------------------------------------------------------------------
// Clean-run control: disciplined use of every instrumented surface.
// ---------------------------------------------------------------------

#[test]
fn disciplined_run_is_report_clean() {
    let _g = serial();
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);
    a.locksan_label("fixture::ca", false);
    b.locksan_label("fixture::cb", false);
    // Consistent a→b nesting, twice.
    for _ in 0..2 {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    // try_lock never blocks, so it adds no order edges even "backwards".
    {
        let _gb = b.lock();
        let _ga = a.try_lock().expect("uncontended");
    }
    // Condvar wait with nothing else held.
    let cv = Condvar::new();
    {
        let mut ga = a.lock();
        let _ = cv.wait_for(&mut ga, Duration::from_millis(1));
    }
    // Persist with no tracked lock held, and ascending ordered stripes.
    let p = PmemPool::new(&PmemConfig::test(64, 1), None);
    p.write(0, 0, 1);
    p.flush_line(0, 0);
    p.sfence(0);
    locksan::on_stripe_release_all();
    locksan::on_stripe_acquire(0x40, true, "fixture::clean");
    locksan::on_stripe_acquire(0x80, true, "fixture::clean");
    locksan::on_stripe_release_all();
    let reports = locksan::take_reports();
    assert!(reports.is_empty(), "{reports:?}");
}
