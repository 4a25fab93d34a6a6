//! Crash torture for the `kvserve` service: at least 100 crash/recover
//! cycles with the power failure injected while client threads are
//! mid-request, proving the service-level durability contract:
//!
//! 1. **Every acked write survives.** A ledger records the last value of
//!    each key whose `put` returned `Ok` before the crash; after
//!    recovery the key must hold that value or a *later submitted* one
//!    (an un-acked trailing write may legitimately have committed).
//! 2. **No partially-applied batch is ever visible.** Pair writers
//!    update two same-shard keys with equal values in one atomic batch
//!    request; after every recovery the two keys must agree.

mod common;

use kvserve::{MapOp, ServeError, Service, ServiceConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const CYCLES: usize = 110;
const SINGLE_WRITERS: usize = 2;

fn torture_cfg() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(2);
    cfg.heap_words_per_shard = 1 << 15;
    cfg.buckets_per_shard = 128;
    cfg.default_deadline = Duration::from_millis(50);
    cfg
}

/// Per-key ledger entry: the highest acked value and the highest value
/// ever submitted (acked or not). Writers submit strictly increasing
/// values, so a recovered value `r` is legal iff `acked <= r <= sub`.
#[derive(Clone, Copy, Default)]
struct Entry {
    acked: u64,
    submitted: u64,
}

struct Ledger {
    entries: Mutex<Vec<Entry>>,
}

impl Ledger {
    fn new(keys: usize) -> Ledger {
        Ledger {
            entries: Mutex::new(vec![Entry::default(); keys]),
        }
    }

    fn submitted(&self, key: usize, v: u64) {
        let mut e = self.entries.lock().unwrap();
        e[key].submitted = e[key].submitted.max(v);
    }

    fn acked(&self, key: usize, v: u64) {
        let mut e = self.entries.lock().unwrap();
        e[key].acked = e[key].acked.max(v);
    }

    fn entry(&self, key: usize) -> Entry {
        self.entries.lock().unwrap()[key]
    }
}

/// Submit one write, retrying on backpressure, recording submission and
/// ack in the ledger. Returns false once the service looks crashed.
fn write_once(svc: &Service, ledger: &Ledger, key: usize, v: u64) -> bool {
    ledger.submitted(key, v);
    loop {
        match svc.put(key as u64, v) {
            Ok(_) => {
                ledger.acked(key, v);
                return true;
            }
            Err(ServeError::Overloaded { retry_after }) => std::thread::sleep(retry_after),
            Err(ServeError::Timeout) | Err(ServeError::Stopped) => return false,
            Err(e) => panic!("unexpected service error: {e}"),
        }
    }
}

/// Read `key` back after a recovery. The torture config's 50-ms default
/// deadline is for the writers' traffic; a read-back on a loaded host
/// waits up to [`common::VERDICT_WAIT`] instead of failing with
/// `Timeout`.
fn read_back(svc: &Service, key: u64) -> Option<u64> {
    svc.apply_deadline(MapOp::Get(key), common::VERDICT_WAIT)
        .unwrap()
}

#[test]
fn hundred_crash_cycles_lose_no_acked_write() {
    let mut svc = Service::new(torture_cfg());
    // Key space: one key per single writer, plus a same-shard pair for
    // the batch-atomicity writer. Single-writer keys are 0..SINGLE_WRITERS.
    let pair_a = SINGLE_WRITERS as u64;
    let pair_b = (pair_a + 1..)
        .find(|&k| svc.shard_of(k) == svc.shard_of(pair_a))
        .unwrap();
    let nkeys = pair_b as usize + 1;
    let ledger = Ledger::new(nkeys);
    // Monotone value counters surviving across cycles, one per writer.
    let mut next_val = [1u64; SINGLE_WRITERS + 1];

    for cycle in 0..CYCLES {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let svc = &svc;
            let ledger = &ledger;
            let stop = &stop;
            // Single-key writers: strictly increasing values.
            for (w, base) in next_val[..SINGLE_WRITERS].iter().copied().enumerate() {
                scope.spawn(move || {
                    let mut v = base;
                    while !stop.load(Ordering::Acquire) {
                        if !write_once(svc, ledger, w, v) {
                            break;
                        }
                        v += 1;
                    }
                });
            }
            // Pair writer: both keys in one atomic batch, equal values.
            let base = next_val[SINGLE_WRITERS];
            scope.spawn(move || {
                let mut v = base;
                while !stop.load(Ordering::Acquire) {
                    ledger.submitted(pair_a as usize, v);
                    ledger.submitted(pair_b as usize, v);
                    match svc.batch(vec![MapOp::Insert(pair_a, v), MapOp::Insert(pair_b, v)]) {
                        Ok(_) => {
                            ledger.acked(pair_a as usize, v);
                            ledger.acked(pair_b as usize, v);
                            v += 1;
                        }
                        Err(ServeError::Overloaded { retry_after }) => {
                            std::thread::sleep(retry_after)
                        }
                        Err(ServeError::Timeout) | Err(ServeError::Stopped) => break,
                        Err(e) => panic!("unexpected service error: {e}"),
                    }
                }
            });
            // Let the clients run, then pull the power mid-flight. The
            // sleep varies per cycle to diversify the crash point.
            std::thread::sleep(Duration::from_micros(300 + (cycle as u64 * 137) % 2500));
            svc.poison();
            stop.store(true, Ordering::Release);
        });

        svc = Service::recover(svc.crash());

        // Contract 1: every acked write survived.
        for key in 0..nkeys {
            let e = ledger.entry(key);
            if e.submitted == 0 {
                continue; // never written (a hole between pair keys)
            }
            let got = read_back(&svc, key as u64);
            let r = got.unwrap_or(0);
            assert!(
                r >= e.acked && r <= e.submitted,
                "cycle {cycle}: key {key} holds {got:?}, acked {} submitted {}",
                e.acked,
                e.submitted
            );
            // The recovered value is itself durable now: promote it so
            // later cycles hold the service to it.
            ledger.acked(key, r);
        }

        // Contract 2: the pair batch is atomic — never torn.
        let a = read_back(&svc, pair_a);
        let b = read_back(&svc, pair_b);
        assert_eq!(
            a, b,
            "cycle {cycle}: partial batch visible after recovery ({a:?} vs {b:?})"
        );

        // Resume each writer past everything it ever submitted.
        for (w, nv) in next_val[..SINGLE_WRITERS].iter_mut().enumerate() {
            *nv = ledger.entry(w).submitted + 1;
        }
        next_val[SINGLE_WRITERS] = ledger.entry(pair_a as usize).submitted + 1;
    }

    // The torture must actually have exercised the service: every writer
    // acked at least one value at some point.
    for w in 0..SINGLE_WRITERS {
        assert!(ledger.entry(w).acked > 0, "writer {w} never got an ack");
    }
    assert!(
        ledger.entry(pair_a as usize).acked > 0,
        "pair writer never got an ack"
    );
}

#[test]
fn recovery_of_idle_service_is_lossless() {
    let svc = Service::new(torture_cfg());
    for k in 0..200u64 {
        svc.put(k, k + 7).unwrap();
    }
    let svc = Service::recover(svc.crash());
    for k in 0..200u64 {
        assert_eq!(read_back(&svc, k), Some(k + 7));
    }
}

/// Mid-flight crash cycles with the persist-order sanitizer recording:
/// the service's shard TMs and decision log must produce zero
/// correctness diagnostics, before every crash and after recovery.
#[test]
fn crash_cycles_are_psan_clean() {
    let mut cfg = torture_cfg();
    cfg.nvhalt.pm.psan = pmem::PsanMode::Record;
    let mut svc = Service::new(cfg);

    for cycle in 0..10u64 {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let svc = &svc;
            let stop = &stop;
            for w in 0..2u64 {
                scope.spawn(move || {
                    let mut v = cycle * 10_000 + 1;
                    while !stop.load(Ordering::Acquire) {
                        match svc.put(w, v) {
                            Ok(_) => v += 1,
                            Err(ServeError::Overloaded { retry_after }) => {
                                std::thread::sleep(retry_after)
                            }
                            Err(ServeError::Timeout) | Err(ServeError::Stopped) => break,
                            Err(e) => panic!("unexpected service error: {e}"),
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_micros(400 + cycle * 211));
            svc.poison();
            stop.store(true, Ordering::Release);
        });
        common::assert_psan_clean(&svc, &format!("cycle {cycle}"));
        svc = Service::recover(svc.crash());
    }

    // The recovered pools record too: a clean tail workload stays clean.
    for k in 0..64u64 {
        svc.put(k, k).unwrap();
    }
    common::assert_psan_clean(&svc, "post-recovery");
}
