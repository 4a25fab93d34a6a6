//! Replication and failover crash tests: kill the deployment at every
//! replication protocol step — worker-side (primary lost before/after
//! the in-transaction log append), shipper-side (follower lost around
//! receive/apply), and mid-promotion — then recover by full restart,
//! in-place follower repair, or failover, and prove that **no acked
//! write is ever lost** and no batch is ever partially visible.
//!
//! Three harnesses:
//! - a fully deterministic sweep that crashes at each replication point
//!   ([`Point::REPL`]) in rotation, alternating the recovery shape each
//!   pass, with an expected-state ledger carried across recoveries;
//! - a deterministic sweep over every promotion point
//!   ([`Point::FAILOVER`]), crashing the promotion itself and proving
//!   re-promotion of the carried dump is idempotent;
//! - a seeded random fuzz (seed overridable via `KVSERVE_REPL_SEED`)
//!   over random batch shapes, crash steps, and recovery shapes,
//!   checking the store against a pre-batch/post-batch model.
//!
//! A fourth test runs the deterministic step sweep with the
//! persist-order sanitizer recording and asserts zero correctness
//! diagnostics on the ship, apply, and promotion paths. A fifth keeps
//! one promoted service through repeated crash/recover cycles.

mod common;

use common::{drain, fire_at, keys_per_shard, model_apply, step_rotation, verify, Lcg};
use kvserve::{MapOp, Point, ServeError, Service, ServiceConfig};
use std::collections::HashMap;
use std::time::Duration;

fn cfg() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(3);
    cfg.heap_words_per_shard = 1 << 15;
    cfg.buckets_per_shard = 64;
    cfg.log_heap_words = 1 << 15;
    cfg.replication = true;
    cfg
}

/// A promoted service runs with replication off; to keep sweeping
/// replication steps, move its state into a fresh replicated deployment.
fn rebuild(promoted: Service, expected: &HashMap<u64, u64>) -> Service {
    drop(promoted);
    let svc = Service::new(cfg());
    for (&k, &v) in expected {
        svc.put(k, v).unwrap();
    }
    svc
}

#[test]
fn crash_at_every_repl_step_never_loses_an_acked_write() {
    let mut svc = Service::new(cfg());
    let keys = keys_per_shard(&svc);

    // Ledger: the value each key must hold, updated only on acks and on
    // deterministically-known crash outcomes.
    let mut expected: HashMap<u64, u64> = HashMap::new();
    for &k in &keys {
        svc.put(k, k * 10).unwrap();
        expected.insert(k, k * 10);
    }

    for (cycle, step) in step_rotation(&Point::REPL, 48) {
        // Alternate the recovery shape each full pass over the steps.
        let failover = (cycle / Point::REPL.len() as u64) % 2 == 1;
        let k = keys[cycle as usize % keys.len()];
        let old = expected.get(&k).copied();
        let new = 100_000 + cycle;

        drain(&svc);
        svc.set_probe(Some(fire_at(step)));
        let res = svc.put(k, new);

        if step.is_primary() {
            // The worker unwound mid-request: never an ack.
            assert_eq!(
                res,
                Err(ServeError::Stopped),
                "cycle {cycle} step {step:?}: crashing write must not ack"
            );
            if failover {
                let (promoted, report) =
                    Service::promote(svc.fail_over(), None).expect("no probe installed");
                assert!(report.duration > Duration::ZERO);
                let got = promoted.get(k).unwrap();
                if step == Point::BeforeAppend {
                    // Nothing durable anywhere yet.
                    assert_eq!(got, old, "cycle {cycle}: phantom write after failover");
                } else {
                    // Committed on the (lost) primary; the entry may or
                    // may not have reached the follower before the
                    // poison won that race. Either whole value is
                    // legal — the write was never acked — but a third
                    // value would be a torn batch.
                    assert!(
                        got == old || got == Some(new),
                        "cycle {cycle}: torn write after failover: {got:?}"
                    );
                    match got {
                        Some(v) => expected.insert(k, v),
                        None => expected.remove(&k),
                    };
                }
                verify(&promoted, &keys, &expected, cycle);
                svc = rebuild(promoted, &expected);
            } else {
                // Full restart keeps the primary images: data and log
                // entry committed in one transaction, so the write is
                // all-there (after the append) or all-gone (before it).
                svc = Service::recover(svc.crash());
                if step == Point::AfterAppend {
                    expected.insert(k, new);
                }
                verify(&svc, &keys, &expected, cycle);
                drain(&svc);
            }
        } else {
            // Follower-side crash: the primary committed the write; the
            // ack depends on whether the follower durably received it
            // before dying.
            if step == Point::BeforeReceive {
                assert_eq!(
                    res,
                    Err(ServeError::Timeout),
                    "cycle {cycle}: write must not ack without the follower"
                );
            } else {
                assert_eq!(
                    res,
                    Ok(old),
                    "cycle {cycle} step {step:?}: durably received write must ack"
                );
            }
            svc.set_probe(None);
            if failover {
                let (promoted, _) =
                    Service::promote(svc.fail_over(), None).expect("no probe installed");
                if step == Point::BeforeReceive {
                    // Never reached the follower: the client saw a
                    // timeout, not an ack, so the failover may drop it.
                    assert_eq!(
                        promoted.get(k).unwrap(),
                        old,
                        "cycle {cycle}: unreceived write appeared after failover"
                    );
                } else {
                    // Durably received before the crash, hence acked:
                    // promotion's tail apply must surface it.
                    assert_eq!(
                        promoted.get(k).unwrap(),
                        Some(new),
                        "cycle {cycle} step {step:?}: ACKED write lost in failover"
                    );
                    expected.insert(k, new);
                }
                verify(&promoted, &keys, &expected, cycle);
                svc = rebuild(promoted, &expected);
            } else {
                // In-place repair: the primary kept serving; the
                // repaired follower re-ships the un-received tail.
                svc.recover_follower();
                expected.insert(k, new);
                verify(&svc, &keys, &expected, cycle);
                drain(&svc);
            }
        }

        // An acked cross-shard batch between crash cycles (Prepare +
        // Resolve entries through the coordinator) must survive whatever
        // the next cycle does to the deployment.
        let acked: Vec<(u64, u64)> = keys.iter().map(|&kk| (kk, cycle * 1_000 + kk)).collect();
        let ops: Vec<MapOp> = acked
            .iter()
            .map(|&(kk, vv)| MapOp::Insert(kk, vv))
            .collect();
        svc.batch(ops)
            .unwrap_or_else(|e| panic!("cycle {cycle}: clean cross-shard batch failed: {e}"));
        for (kk, vv) in acked {
            expected.insert(kk, vv);
        }
    }
}

#[test]
fn crash_at_every_promotion_step_re_promotes_idempotently() {
    let mut svc = Service::new(cfg());
    let keys = keys_per_shard(&svc);
    let mut expected: HashMap<u64, u64> = HashMap::new();
    for &k in &keys {
        svc.put(k, k + 7).unwrap();
        expected.insert(k, k + 7);
    }

    for (i, &step) in Point::FAILOVER.iter().enumerate() {
        // Leave an acked cross-shard batch right before the failover:
        // its Prepare/Resolve entries must survive a *crashed* promotion
        // and the subsequent re-promotion.
        let acked: Vec<(u64, u64)> = keys.iter().map(|&k| (k, i as u64 * 100 + k)).collect();
        let ops: Vec<MapOp> = acked.iter().map(|&(k, v)| MapOp::Insert(k, v)).collect();
        svc.batch(ops).expect("pre-failover batch must commit");
        for (k, v) in acked {
            expected.insert(k, v);
        }

        let dump = svc.fail_over();
        let crash = match Service::promote(dump, Some(fire_at(step))) {
            Err(c) => c,
            Ok(_) => panic!("step {step:?}: promotion probe did not fire"),
        };
        // Every promotion phase is idempotent over its durable words, so
        // promoting the crash's dump again completes the failover.
        let (promoted, report) = Service::promote(crash.dump, None).expect("no probe installed");
        assert!(report.duration > Duration::ZERO);
        verify(&promoted, &keys, &expected, i as u64);

        // The re-promoted service is fully live.
        let k = keys[i % keys.len()];
        promoted.put(k, 999_000 + i as u64).unwrap();
        expected.insert(k, 999_000 + i as u64);
        svc = rebuild(promoted, &expected);
    }
}

const KEY_SPACE: u64 = 24;

fn resync(svc: &Service, model: &mut HashMap<u64, u64>, ops: &[MapOp], cycle: u64) {
    common::resync(svc, model, ops, KEY_SPACE, cycle);
}

#[test]
fn seeded_replication_fuzz_matches_a_model() {
    let mut rng = Lcg::from_env("KVSERVE_REPL_SEED", 0x5eed_0e91);

    let mut svc = Service::new(cfg());
    let mut model: HashMap<u64, u64> = HashMap::new();

    for cycle in 0..70u64 {
        let nops = 1 + (rng.next() % 4) as usize;
        let ops: Vec<MapOp> = (0..nops)
            .map(|_| {
                let k = rng.next() % KEY_SPACE;
                match rng.next() % 3 {
                    0 => MapOp::Get(k),
                    1 => MapOp::Insert(k, rng.next() % 10_000),
                    _ => MapOp::Remove(k),
                }
            })
            .collect();
        // Crash at a random replication step in ~3/4 of the cycles.
        // (Primary steps only fire on the single-shard worker path,
        // shipper steps on any replicated mutation.)
        let step = match rng.next() % 8 {
            i @ 0..=5 => Some(Point::REPL[i as usize]),
            _ => None,
        };
        if let Some(s) = step {
            svc.set_probe(Some(fire_at(s)));
        }
        let res = svc.batch(ops.clone());
        svc.set_probe(None);

        match res {
            Ok(vals) => {
                // Acked: must match the model exactly. (A shipper-step
                // probe may still have crashed the follower *after* the
                // durable receive that allowed this ack.)
                let expect: Vec<Option<u64>> =
                    ops.iter().map(|&op| model_apply(&mut model, op)).collect();
                assert_eq!(vals, expect, "cycle {cycle}: acked batch mismatch");
                svc.recover_follower();
            }
            Err(ServeError::Stopped) => {
                // A worker unwound: the primary pools are poisoned.
                // Recover by restart or by failover, at random.
                if rng.next().is_multiple_of(2) {
                    svc = Service::recover(svc.crash());
                    resync(&svc, &mut model, &ops, cycle);
                } else {
                    let (promoted, _) =
                        Service::promote(svc.fail_over(), None).expect("no probe installed");
                    resync(&promoted, &mut model, &ops, cycle);
                    drop(promoted);
                    svc = Service::new(cfg());
                    for (&k, &v) in &model {
                        svc.put(k, v).unwrap();
                    }
                }
            }
            Err(ServeError::Timeout) => {
                // Committed-but-unacked: the follower died before the
                // durable receive. Repair it in place; the primary state
                // must still be exactly pre- or post-batch.
                svc.recover_follower();
                resync(&svc, &mut model, &ops, cycle);
            }
            Err(e) => panic!("cycle {cycle}: unexpected error {e}"),
        }
    }
}

/// The deterministic step sweep with the persist-order sanitizer
/// recording: neither the primaries, the followers, nor the decision
/// log may produce a correctness diagnostic on the append, ship, apply,
/// or promotion paths — before or after recovery.
#[test]
fn repl_crash_steps_are_psan_clean() {
    use common::assert_psan_clean as assert_clean;

    let mut c = cfg();
    c.nvhalt.pm.psan = pmem::PsanMode::Record;
    let mut svc = Service::new(c);
    let keys = keys_per_shard(&svc);
    for &k in &keys {
        svc.put(k, k).unwrap();
    }

    for (i, &step) in Point::REPL.iter().enumerate() {
        drain(&svc);
        svc.set_probe(Some(fire_at(step)));
        let _ = svc.put(keys[i % keys.len()], i as u64 * 10 + 1);
        svc.set_probe(None);
        assert_clean(&svc, &format!("step {step:?} pre-recovery"));
        if step.is_primary() {
            svc = Service::recover(svc.crash());
        } else {
            svc.recover_follower();
        }
        svc.put(keys[i % keys.len()], i as u64 * 10 + 2).unwrap();
        assert_clean(&svc, &format!("step {step:?} post-recovery"));
    }

    // And across a crashed promotion plus its idempotent re-promotion.
    drain(&svc);
    let crash = Service::promote(svc.fail_over(), Some(fire_at(Point::Promoted)))
        .err()
        .expect("promotion probe must fire");
    let (svc, _) = Service::promote(crash.dump, None).expect("no probe installed");
    for &k in &keys {
        svc.put(k, k + 5).unwrap();
    }
    assert_clean(&svc, "promoted service");
}

/// A promoted service is a whole service: its shard pools — the
/// followers' pools under fresh primary headers — survive repeated
/// crash/recover cycles. Every cycle inserts, deletes (so later
/// allocations reuse freed blocks, and the recovered allocators must
/// not hand out a live one) and runs cross-shard batches; every acked
/// write must come back.
#[test]
fn promoted_service_survives_crash_and_recovery_cycles() {
    use common::assert_psan_clean as assert_clean;

    let svc = Service::new(cfg());
    let keys = keys_per_shard(&svc);
    let all: Vec<u64> = (0..KEY_SPACE).collect();
    let mut expected: HashMap<u64, u64> = HashMap::new();
    for &k in &all {
        svc.put(k, k + 1).unwrap();
        expected.insert(k, k + 1);
    }
    let (mut svc, _) = Service::promote(svc.fail_over(), None).expect("no probe installed");
    verify(&svc, &all, &expected, 0);

    for cycle in 1..=6u64 {
        for &k in &all {
            let op = if (k + cycle) % 3 == 0 {
                MapOp::Remove(k)
            } else {
                MapOp::Insert(k, cycle * 1_000 + k)
            };
            let want = model_apply(&mut expected, op);
            assert_eq!(svc.apply(op), Ok(want), "cycle {cycle}: {op:?}");
        }
        // Two cross-shard batches, each deleting on one shard while it
        // inserts on the others.
        for round in 0..2u64 {
            let ops: Vec<MapOp> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    if i as u64 == (cycle + round) % keys.len() as u64 {
                        MapOp::Remove(k)
                    } else {
                        MapOp::Insert(k, cycle * 100 + round * 10 + k)
                    }
                })
                .collect();
            let want: Vec<Option<u64>> = ops
                .iter()
                .map(|&op| model_apply(&mut expected, op))
                .collect();
            assert_eq!(svc.batch(ops), Ok(want), "cycle {cycle} round {round}");
        }
        assert_clean(&svc, &format!("cycle {cycle} before the crash"));

        svc = Service::recover(svc.crash());
        verify(&svc, &all, &expected, cycle);
        assert_clean(&svc, &format!("cycle {cycle} after recovery"));
    }
}
