//! Replication and failover crash tests: kill the deployment at every
//! replication protocol step — worker-side (primary lost before/after
//! the in-transaction log append), shipper-side (follower lost around
//! its one-transaction apply), and mid-promotion — then recover by full
//! restart, in-place follower repair, or failover, and prove that **no
//! acked write is ever lost** and no batch is ever partially visible.
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
//!   checking the store against a pre-batch/post-batch model, and a
//!   promoted follower against every state the unacked batches that
//!   were not yet re-shipped allow.
//!
//! A fourth test runs the deterministic step sweep with the
//! persist-order sanitizer recording and asserts zero correctness
//! diagnostics on the ship, apply, and promotion paths. A fifth keeps
//! one promoted service through repeated crash/recover cycles, and a
//! sixth turns a small heap over many times with op-log entries, and a
//! seventh holds a cross-shard batch answered `Timeout` whole across a
//! failover that follows the next round.

mod common;

use common::{drain, fire_at, keys_per_shard, model_apply, step_rotation, verify, Lcg};
use kvserve::{MapOp, Point, ServeError, Service, ServiceConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
                    // Durably applied on the follower before the crash,
                    // hence acked: the promoted follower must serve it.
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

        // An acked cross-shard batch between crash cycles (Prepare
        // entries through the coordinator) must survive whatever the
        // next cycle does to the deployment.
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
        // its Prepare entries must survive a *crashed* promotion
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

fn resync(svc: &Service, model: &mut HashMap<u64, u64>, ops: &[MapOp], cycle: u64) -> bool {
    common::resync(svc, model, ops, KEY_SPACE, cycle)
}

/// Advance every state in `states` by `ops`; with `maybe` (an unacked
/// batch), also keep each state without them.
fn advance(states: &mut Vec<HashMap<u64, u64>>, ops: &[MapOp], maybe: bool) {
    let mut next = Vec::with_capacity(2 * states.len());
    for pre in states.drain(..) {
        let mut post = pre.clone();
        for &op in ops {
            model_apply(&mut post, op);
        }
        for s in maybe.then_some(pre).into_iter().chain([post]) {
            if !next.contains(&s) {
                next.push(s);
            }
        }
    }
    *states = next;
}

#[test]
fn seeded_replication_fuzz_matches_a_model() {
    let mut rng = Lcg::from_env("KVSERVE_REPL_SEED", 0x5eed_0e91);

    let mut svc = Service::new(cfg());
    let mut model: HashMap<u64, u64> = HashMap::new();
    // The states a failover may land on. The primaries hold `model`, but
    // an unacked batch they hold reaches a repaired or restarted follower
    // only when its shipper re-ships it, so until a drain a promoted
    // follower may lack any such batch, whole.
    let mut replicas = vec![model.clone()];

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
        let step = match rng.next() % 20 {
            i @ 0..=14 => Some(Point::REPL[i as usize % Point::REPL.len()]),
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
                advance(&mut replicas, &ops, false);
                svc.recover_follower();
            }
            Err(ServeError::Stopped) => {
                // A worker unwound: the primary pools are poisoned.
                // Recover by restart or by failover, at random.
                if rng.next().is_multiple_of(2) {
                    svc = Service::recover(svc.crash());
                    if resync(&svc, &mut model, &ops, cycle) {
                        advance(&mut replicas, &ops, true);
                    }
                } else {
                    let (promoted, _) =
                        Service::promote(svc.fail_over(), None).expect("no probe installed");
                    // The crashed batch, too, may or may not have
                    // reached the follower.
                    advance(&mut replicas, &ops, true);
                    let got: HashMap<u64, u64> = (0..KEY_SPACE)
                        .filter_map(|k| promoted.get(k).unwrap().map(|v| (k, v)))
                        .collect();
                    assert!(
                        replicas.contains(&got),
                        "cycle {cycle}: promoted state {got:?} is none of {replicas:?} \
                         (a torn batch or a lost acked write)"
                    );
                    model = got;
                    drop(promoted);
                    svc = Service::new(cfg());
                    for (&k, &v) in &model {
                        svc.put(k, v).unwrap();
                    }
                    replicas = vec![model.clone()];
                }
            }
            Err(ServeError::Timeout) => {
                // Committed-but-unacked: the follower died before the
                // durable receive. Repair it in place; the primary state
                // must still be exactly pre- or post-batch.
                svc.recover_follower();
                if resync(&svc, &mut model, &ops, cycle) {
                    advance(&mut replicas, &ops, true);
                }
            }
            Err(e) => panic!("cycle {cycle}: unexpected error {e}"),
        }
        // Each unacked batch can double the legal states: past three,
        // let the followers catch up, which settles them to `model`.
        if replicas.len() > 8 {
            drain(&svc);
            replicas = vec![model.clone()];
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
    let crash = Service::promote(svc.fail_over(), Some(fire_at(Point::Replayed)))
        .err()
        .expect("promotion probe must fire");
    let (svc, _) = Service::promote(crash.dump, None).expect("no probe installed");
    for &k in &keys {
        svc.put(k, k + 5).unwrap();
    }
    assert_clean(&svc, "promoted service");
}

/// A promoted service is a whole service: its shard pools — the
/// follower pools as they stood at the failover — survive repeated
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

/// A replicated shard's worker allocates every op-log entry and its
/// shipper frees it, so the worker must get the shipper's frees back or
/// the heap runs dry. A small heap turns over 20 times in op-log words,
/// half before and half after a restart; every ack is checked, and
/// every key after the restart and after a closing failover.
#[test]
fn op_log_heap_turns_over_across_restart_and_failover() {
    const KEYS: u64 = 16;
    let mut c = cfg();
    c.shards = 1;
    c.heap_words_per_shard = 1 << 14;
    // A batch of KEYS inserts logs one entry of 3 + 1 + 2·KEYS words.
    let batches = (20 * c.heap_words_per_shard as u64).div_ceil(2 * (4 + 2 * KEYS));
    let keys: Vec<u64> = (0..KEYS).collect();
    let mut expected: HashMap<u64, u64> = HashMap::new();
    let mut svc = Service::new(c);
    let mut v = 0u64;
    for half in 0..2 {
        for _ in 0..batches {
            v += 1;
            let ops = keys
                .iter()
                .map(|&k| MapOp::Insert(k, v * KEYS + k))
                .collect();
            let want: Vec<Option<u64>> = keys
                .iter()
                .map(|&k| expected.insert(k, v * KEYS + k))
                .collect();
            assert_eq!(svc.batch(ops), Ok(want), "batch {v}");
        }
        if half == 0 {
            svc = Service::recover(svc.crash());
            verify(&svc, &keys, &expected, v);
        }
    }
    let (promoted, _) = Service::promote(svc.fail_over(), None).expect("no probe installed");
    verify(&promoted, &keys, &expected, v);
}

/// A cross-shard batch answered `Timeout` stays whole across a failover.
/// Batch X spans shards a and b while a's follower is lost just before
/// it receives X's Prepare entry, so X is answered `Timeout`; batch Y
/// then spans b and c on the same (only) 2PC driver. Had Y overwritten
/// the slot's decision record, the promoted followers would hold X's
/// b-half only: b's follower applied it, a's never will, and replay
/// would see only Y's record. The driver holds Y until a's follower
/// covers X's Prepare entry, so the record still names X and replay
/// completes it on a.
#[test]
fn timed_out_cross_shard_batch_stays_whole_across_failover() {
    let mut c = cfg();
    c.coordinators = 1;
    let svc = Service::new(c);
    let keys = keys_per_shard(&svc);
    let (ka, kb, kc) = (keys[0], keys[1], keys[2]);
    let kb2 = (kb + 1..).find(|&k| svc.shard_of(k) == 1).unwrap();
    let fired = AtomicBool::new(false);
    svc.set_probe(Some(Arc::new(move |p| {
        p == Point::BeforeReceive
            && std::thread::current().name() == Some("kvserve-ship-0")
            && !fired.swap(true, Ordering::SeqCst)
    })));
    let x = vec![MapOp::Insert(ka, 100), MapOp::Insert(kb, 200)];
    assert_eq!(svc.batch(x), Err(ServeError::Timeout));
    let y = vec![MapOp::Insert(kb2, 300), MapOp::Insert(kc, 400)];
    let y_acked = svc.batch(y).is_ok();

    let (promoted, _) = Service::promote(svc.fail_over(), None).expect("no probe installed");
    let x_state = (promoted.get(ka).unwrap(), promoted.get(kb).unwrap());
    assert!(
        x_state == (Some(100), Some(200)) || x_state == (None, None),
        "X torn by the failover: (a-key, b-key) = {x_state:?}"
    );
    if y_acked {
        assert_eq!(promoted.get(kb2).unwrap(), Some(300), "acked Y lost");
        assert_eq!(promoted.get(kc).unwrap(), Some(400), "acked Y lost");
    }
}
