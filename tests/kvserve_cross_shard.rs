//! Cross-shard 2PC crash-atomicity: kill the service at every protocol
//! step, recover, and prove that no acked batch is lost and no batch is
//! ever partially visible.
//!
//! Three harnesses:
//! - a fully deterministic sweep that crashes at each 2PC point
//!   ([`Point::TWO_PC`]) in rotation for 120 cycles, with an acked-write ledger carried across
//!   recoveries;
//! - a seeded random fuzz (seed overridable via `KVSERVE_CROSS_SEED`, so
//!   CI runs are reproducible) over random batch shapes and crash steps,
//!   checking after every recovery that the store matches either the
//!   pre-batch or the post-batch model — never a mix;
//! - grouped rounds: with one driver parked by a gate probe, requests
//!   queue through a ring and then share one 2PC round, whose results,
//!   deadlines, crash verdicts and counters are checked member by
//!   member.

mod common;

use common::{
    cross_shard_keys, fire_at, keys_per_shard, model_apply, resync, step_rotation, verdict, Gate,
    Lcg,
};
use kvserve::{MapOp, Point, ServeError, Service, ServiceConfig, Ticket};
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn cfg() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(3);
    cfg.heap_words_per_shard = 1 << 14;
    cfg.buckets_per_shard = 64;
    cfg.log_heap_words = 1 << 15;
    cfg
}

#[test]
fn crash_at_every_twopc_step_never_tears_a_batch() {
    let mut svc = Service::new(cfg());
    let keys = keys_per_shard(&svc);

    // Acked-write ledger: the value each key must hold after recovery.
    // Seed it with an acked cross-shard batch.
    let mut expected: Vec<u64> = keys.iter().map(|&k| k * 10).collect();
    let seed_ops: Vec<MapOp> = keys
        .iter()
        .zip(&expected)
        .map(|(&k, &v)| MapOp::Insert(k, v))
        .collect();
    svc.batch(seed_ops).expect("seeding batch must commit");

    for (cycle, step) in step_rotation(&Point::TWO_PC, 120) {
        // A batch that will crash at `step`. The client must never see
        // an ack for it.
        let new_vals: Vec<u64> = keys.iter().map(|&k| cycle * 1_000 + k).collect();
        let ops: Vec<MapOp> = keys
            .iter()
            .zip(&new_vals)
            .map(|(&k, &v)| MapOp::Insert(k, v))
            .collect();
        svc.set_probe(Some(fire_at(step)));
        assert_eq!(
            svc.batch(ops),
            Err(ServeError::Stopped),
            "cycle {cycle}: crashing batch must not ack"
        );

        svc = Service::recover(svc.crash());

        // Atomicity: before the decision is logged the whole batch rolls
        // back; from the decision on, replay completes it whole.
        if step.is_decided() {
            expected = new_vals;
        }
        for (&k, &want) in keys.iter().zip(&expected) {
            assert_eq!(
                svc.get(k),
                Ok(Some(want)),
                "cycle {cycle} step {step:?}: key {k} torn or lost"
            );
        }

        // An acked cross-shard batch between crashes advances the
        // ledger; it must survive the *next* crash cycle.
        let acked_vals: Vec<u64> = keys.iter().map(|&k| cycle * 1_000 + 500 + k).collect();
        let acked_ops: Vec<MapOp> = keys
            .iter()
            .zip(&acked_vals)
            .map(|(&k, &v)| MapOp::Insert(k, v))
            .collect();
        svc.batch(acked_ops)
            .unwrap_or_else(|e| panic!("cycle {cycle}: clean batch failed: {e}"));
        expected = acked_vals;
    }
}

const KEY_SPACE: u64 = 24;

#[test]
fn seeded_random_crash_cycles_match_a_model() {
    let mut rng = Lcg::from_env("KVSERVE_CROSS_SEED", 0x5eed_2fc5);

    let mut svc = Service::new(cfg());
    let mut model: HashMap<u64, u64> = HashMap::new();

    for cycle in 0..110u64 {
        // Random batch: 2..=6 ops over a small key space, any mix of
        // shards (single-shard batches exercise the fast path and simply
        // ack — the probe only fires on the 2PC path).
        let nops = 2 + (rng.next() % 5) as usize;
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
        let step = Point::TWO_PC[(rng.next() % Point::TWO_PC.len() as u64) as usize];
        svc.set_probe(Some(fire_at(step)));

        match svc.batch(ops.clone()) {
            Ok(vals) => {
                // Acked (single-shard fast path): must match the model.
                let expect: Vec<Option<u64>> =
                    ops.iter().map(|&op| model_apply(&mut model, op)).collect();
                assert_eq!(vals, expect, "cycle {cycle}: acked batch mismatch");
            }
            Err(ServeError::Stopped) => {
                svc = Service::recover(svc.crash());
                resync(&svc, &mut model, &ops, KEY_SPACE, cycle);
            }
            Err(e) => panic!("cycle {cycle}: unexpected error {e}"),
        }
    }
}

/// Crash the 2PC protocol at every step with the persist-order sanitizer
/// recording: neither the shard TMs nor the decision log may produce a
/// correctness diagnostic at any step, before or after recovery.
#[test]
fn twopc_crash_steps_are_psan_clean() {
    let mut c = cfg();
    c.nvhalt.pm.psan = pmem::PsanMode::Record;
    let mut svc = Service::new(c);
    let keys = keys_per_shard(&svc);
    let seed: Vec<MapOp> = keys.iter().map(|&k| MapOp::Insert(k, k)).collect();
    svc.batch(seed).expect("seeding batch must commit");

    for (i, &step) in Point::TWO_PC.iter().enumerate() {
        let ops: Vec<MapOp> = keys
            .iter()
            .map(|&k| MapOp::Insert(k, i as u64 * 100 + k))
            .collect();
        svc.set_probe(Some(fire_at(step)));
        assert_eq!(svc.batch(ops), Err(ServeError::Stopped));
        common::assert_psan_clean(&svc, &format!("step {step:?} pre-crash"));
        svc = Service::recover(svc.crash());
    }

    // A clean cross-shard batch on the recovered service stays clean.
    let ops: Vec<MapOp> = keys.iter().map(|&k| MapOp::Insert(k, k + 9)).collect();
    svc.batch(ops).expect("clean batch after recovery");
    common::assert_psan_clean(&svc, "post-recovery");
}

fn one_driver() -> ServiceConfig {
    let mut c = cfg();
    c.coordinators = 1;
    c
}

/// The first `n` keys at or above `from` that route to `shard`.
fn keys_on(svc: &Service, shard: usize, from: u64, n: usize) -> Vec<u64> {
    (from..)
        .filter(|&k| svc.shard_of(k) == shard)
        .take(n)
        .collect()
}

/// Requests queued behind a parked round form the next round — one
/// decision-log transaction for all of them — and each member's values
/// are those of a sequential model applied in queue order, reads of
/// keys an earlier member of the same round wrote included. A member
/// whose deadline passed in the queue is answered `Timeout` and leaves
/// the round without a trace.
#[test]
fn queued_requests_share_one_round() {
    let svc = Service::new(one_driver());
    let (a, b) = cross_shard_keys(&svc);
    let (c, d) = (keys_on(&svc, 0, 1000, 1)[0], keys_on(&svc, 1, 1000, 1)[0]);
    let gate = Gate::install(&svc, None);
    let ring = svc.ring();
    let long = Duration::from_secs(30);

    let parked = ring
        .submit_batch_deadline(vec![MapOp::Insert(a, 1), MapOp::Insert(b, 1)], long)
        .unwrap();
    gate.wait_parked();
    let members = [
        vec![MapOp::Get(a), MapOp::Insert(b, 2)],
        vec![MapOp::Insert(a, 3), MapOp::Get(b)],
        vec![MapOp::Get(b), MapOp::Insert(a, 4), MapOp::Get(a)],
        vec![MapOp::Remove(a), MapOp::Insert(b, 5)],
        vec![MapOp::Get(a), MapOp::Get(b)],
    ];
    let mut tickets: Vec<Ticket> = Vec::new();
    let mut expired = None;
    for (i, ops) in members.iter().enumerate() {
        tickets.push(ring.submit_batch_deadline(ops.clone(), long).unwrap());
        if i == 1 {
            // Queued between members, with a deadline that passes
            // before the round starts.
            let ops = vec![MapOp::Insert(c, 9), MapOp::Insert(d, 9)];
            expired = ring
                .submit_batch_deadline(ops, Duration::from_millis(1))
                .ok();
        }
    }
    std::thread::sleep(Duration::from_millis(20));
    gate.open();

    let mut model = HashMap::new();
    assert_eq!(
        verdict(&ring, parked),
        Ok(vec![
            model_apply(&mut model, MapOp::Insert(a, 1)),
            model_apply(&mut model, MapOp::Insert(b, 1)),
        ])
    );
    for (i, (ops, t)) in members.iter().zip(tickets).enumerate() {
        let want: Vec<Option<u64>> = ops.iter().map(|&op| model_apply(&mut model, op)).collect();
        assert_eq!(verdict(&ring, t), Ok(want), "member {i}: {ops:?}");
    }
    let expired = expired.expect("the ring has room");
    assert_eq!(verdict(&ring, expired), Err(ServeError::Timeout));
    assert_eq!(svc.get(a), Ok(model.get(&a).copied()));
    assert_eq!(svc.get(b), Ok(model.get(&b).copied()));
    assert_eq!((svc.get(c), svc.get(d)), (Ok(None), Ok(None)));

    let k = members.len() as u64;
    let co = svc.snapshot().coordinator;
    // The parked round and the grouped one.
    assert_eq!((co.decision_groups, co.decisions_logged), (2, 1 + k));
    assert_eq!((co.cross_batches, co.abort_timeout), (1 + k, 1));
    assert_eq!(co.latency.count(), 1 + k);
}

/// A crash at every 2PC step of a grouped round: every member is
/// answered `Stopped`, and after recovery every member's writes are
/// visible if the round's decision was logged, and none of them
/// otherwise.
#[test]
fn crash_at_every_twopc_step_of_a_grouped_round() {
    const MEMBERS: usize = 5;
    let mut svc = Service::new(one_driver());
    let (g0, g1) = cross_shard_keys(&svc);
    // Member `m` writes its own key on shard `m % 3` and on the next.
    let keys: Vec<Vec<u64>> = (0..3).map(|s| keys_on(&svc, s, 100, MEMBERS)).collect();
    let pair = |m: usize| (keys[m % 3][m], keys[(m + 1) % 3][m]);
    let mut expected: HashMap<u64, u64> = HashMap::new();
    // No member may be shed before its round runs, however slow the host.
    let long = Duration::from_secs(30);

    for (i, &step) in Point::TWO_PC.iter().enumerate() {
        let v = (i as u64 + 1) * 100;
        let gate = Gate::install(&svc, Some(step));
        let ring = svc.ring();
        let parked = ring
            .submit_batch_deadline(vec![MapOp::Insert(g0, v), MapOp::Insert(g1, v)], long)
            .unwrap();
        gate.wait_parked();
        let members: Vec<Ticket> = (0..MEMBERS)
            .map(|m| {
                let (k0, k1) = pair(m);
                let ops = vec![MapOp::Insert(k0, v + m as u64), MapOp::Insert(k1, v)];
                ring.submit_batch_deadline(ops, long).unwrap()
            })
            .collect();
        gate.open();
        assert!(
            verdict(&ring, parked).is_ok(),
            "step {step:?}: the parked round"
        );
        expected.extend([(g0, v), (g1, v)]);
        // The crash answers every member of the round at once; a member
        // left in the queue would wait for `Service::crash`.
        let by = Instant::now() + Duration::from_secs(10);
        for (m, t) in members.into_iter().enumerate() {
            let verdict = ring.wait_deadline(t, by);
            assert_eq!(
                verdict,
                Err(ServeError::Stopped),
                "step {step:?}: member {m}"
            );
        }

        svc = Service::recover(svc.crash());
        if step.is_decided() {
            for m in 0..MEMBERS {
                let (k0, k1) = pair(m);
                expected.extend([(k0, v + m as u64), (k1, v)]);
            }
        }
        for k in keys.iter().flatten().chain([&g0, &g1]) {
            assert_eq!(
                svc.get(*k),
                Ok(expected.get(k).copied()),
                "step {step:?}: key {k}"
            );
        }
    }
}

/// A full 2PC queue refuses with `Overloaded` and counts the refusal in
/// the coordinator's `rejected`, as a full shard lane does in its own.
#[test]
fn a_full_twopc_queue_counts_its_refusals() {
    let mut c = one_driver();
    c.queue_depth = 1;
    let svc = Service::new(c);
    let (a, b) = cross_shard_keys(&svc);
    let gate = Gate::install(&svc, None);
    let ring = svc.ring();
    let put = |v| vec![MapOp::Insert(a, v), MapOp::Insert(b, v)];
    let long = Duration::from_secs(30);

    let parked = ring.submit_batch_deadline(put(1), long).unwrap();
    gate.wait_parked();
    let queued = ring.submit_batch_deadline(put(2), long).unwrap();
    assert!(matches!(
        ring.submit_batch_deadline(put(3), long),
        Err(ServeError::Overloaded { .. })
    ));
    let snap = svc.snapshot();
    assert_eq!(snap.coordinator.rejected, 1);
    assert!(snap.shards.iter().all(|s| s.rejected == 0));
    let report = snap.to_string();
    let line = report.lines().find(|l| l.starts_with("2pc: ")).unwrap();
    assert!(line.contains(" rejected=1 "), "{line}");

    gate.open();
    assert_eq!(verdict(&ring, parked), Ok(vec![None, None]));
    assert_eq!(verdict(&ring, queued), Ok(vec![Some(1), Some(1)]));
}
