//! Cross-shard 2PC crash-atomicity: kill the service at every protocol
//! step, recover, and prove that no acked batch is lost and no batch is
//! ever partially visible.
//!
//! Two harnesses:
//! - a fully deterministic sweep that crashes at each 2PC point
//!   ([`Point::TWO_PC`]) in rotation for 120 cycles, with an acked-write ledger carried across
//!   recoveries;
//! - a seeded random fuzz (seed overridable via `KVSERVE_CROSS_SEED`, so
//!   CI runs are reproducible) over random batch shapes and crash steps,
//!   checking after every recovery that the store matches either the
//!   pre-batch or the post-batch model — never a mix.

mod common;

use common::{fire_at, keys_per_shard, model_apply, resync, step_rotation, Lcg};
use kvserve::{MapOp, Point, ServeError, Service, ServiceConfig};
use std::collections::HashMap;

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
