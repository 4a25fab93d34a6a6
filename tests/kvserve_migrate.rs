//! Elastic-resharding crash tests: kill the deployment at every live
//! migration protocol step and prove the topology flip is atomic —
//! recovery lands on **entirely the old or entirely the new** routing
//! table, never a torn one, every acked write stays readable under
//! whichever topology came back, and re-issuing the same migration
//! against the recovered deployment completes it idempotently.
//!
//! Harnesses, in the house style of the other kvserve sweeps:
//! - a fully deterministic sweep crashing at each migration point
//!   ([`Point::MIGRATE`]), with
//!   an acked-write ledger carried through recovery and the re-issued
//!   migration — replication off and on (the replicated passes also
//!   fail over the *migrated* deployment, proving the target's follower
//!   was synced before the flip);
//! - follower loss while a migration is in flight: the source shard's
//!   follower dies before the migration starts, the migration completes
//!   anyway, and in-place follower repair brings replication back on
//!   the post-split topology;
//! - double-migrate: split, then split the split, then re-issue the
//!   first spec (a no-op detected as already applied) — routing and
//!   data stay exact throughout;
//! - a cross-shard batch decided before a split, whose decision record
//!   recovery must not replay onto the split's target;
//! - a seeded random fuzz (`KVSERVE_MIGRATE_SEED` overrides the seed)
//!   interleaving random batches with randomly-crashed migrations,
//!   checking the store against a sequential model after every cycle;
//! - the deterministic sweep with the persist-order sanitizer
//!   recording, asserting zero correctness diagnostics on the copy,
//!   catch-up, flip, and scavenge paths, before and after recovery.

mod common;

use common::{assert_psan_clean, fire_at, model_apply, step_rotation, Lcg};
use kvserve::{
    MapOp, MigrateReport, MigrateSpec, Point, RoutingTable, ServeError, Service, ServiceConfig,
    ROUTE_SLOTS,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

fn cfg() -> ServiceConfig {
    let mut c = ServiceConfig::new(2);
    c.heap_words_per_shard = 1 << 15;
    c.buckets_per_shard = 64;
    c.log_heap_words = 1 << 15;
    c
}

fn rcfg() -> ServiceConfig {
    let mut c = cfg();
    c.replication = true;
    c
}

const KEY_SPACE: u64 = 64;

/// Load one acked write per key and return the ledger the recovered
/// deployment is held to.
fn load(svc: &Service, salt: u64) -> HashMap<u64, u64> {
    let mut expected = HashMap::new();
    for k in 0..KEY_SPACE {
        let v = k * 1_000 + salt + 1;
        svc.put(k, v).unwrap();
        expected.insert(k, v);
    }
    expected
}

fn verify_all(svc: &Service, expected: &HashMap<u64, u64>, ctx: &str) {
    for k in 0..KEY_SPACE {
        assert_eq!(
            svc.get(k).unwrap(),
            expected.get(&k).copied(),
            "{ctx}: key {k} diverged from the ledger"
        );
    }
}

/// The deterministic sweep body, shared by the replication-off and
/// replication-on passes: crash at `step`, recover, check the topology
/// is exactly old or exactly new, check every acked write, re-issue the
/// migration, and hand back the completed deployment.
fn sweep_cycle(base_cfg: ServiceConfig, step: Point, cycle: u64) -> (Service, HashMap<u64, u64>) {
    let svc = Service::new(base_cfg);
    let mut expected = load(&svc, cycle * 100);
    let old_table = svc.routing();
    let spec = MigrateSpec::split(&old_table, 0);

    svc.set_probe(Some(fire_at(step)));
    let crash = svc
        .migrate(spec.clone())
        .err()
        .unwrap_or_else(|| panic!("cycle {cycle}: probe at {step:?} did not fire"));
    let svc = Service::recover(crash.dump);

    // Atomic flip: the recovered routing table is entirely the old one
    // (pre-FlipLogged crash) or entirely the new one — never torn.
    let table = svc.routing();
    if step.flipped() {
        assert_eq!(table.epoch(), old_table.epoch() + 1, "cycle {cycle}");
        assert_eq!(table.shards(), 3, "cycle {cycle}");
        assert_eq!(table.slots_of(2), spec.slots, "cycle {cycle}");
    } else {
        assert_eq!(table.epoch(), old_table.epoch(), "cycle {cycle}");
        assert_eq!(table.assignment(), old_table.assignment(), "cycle {cycle}");
    }

    // Every acked write is readable under the recovered topology.
    verify_all(&svc, &expected, &format!("cycle {cycle} step {step:?}"));

    // Re-issuing the migration completes it idempotently: a pre-flip
    // crash re-runs it from scratch, a post-flip crash detects it as
    // already applied (and re-runs only the scavenge).
    let (svc, report) = svc.migrate(spec.clone()).expect("no probe installed");
    assert_eq!(
        report.already_applied,
        step.flipped(),
        "cycle {cycle} step {step:?}"
    );
    let table = svc.routing();
    assert_eq!(table.shards(), 3);
    assert_eq!(table.slots_of(2), spec.slots);
    verify_all(&svc, &expected, &format!("cycle {cycle} re-issued"));

    // The migrated deployment is fully live, including batches that now
    // straddle the split (same-shard before, 2PC after).
    let ops: Vec<MapOp> = (0..KEY_SPACE)
        .map(|k| MapOp::Insert(k, k + 7 + cycle))
        .collect();
    svc.batch(ops).expect("post-migration batch must commit");
    for k in 0..KEY_SPACE {
        expected.insert(k, k + 7 + cycle);
    }
    verify_all(&svc, &expected, &format!("cycle {cycle} post-traffic"));
    (svc, expected)
}

#[test]
fn crash_at_every_migrate_step_flips_old_xor_new() {
    for (cycle, step) in step_rotation(&Point::MIGRATE, 12) {
        let (svc, _) = sweep_cycle(cfg(), step, cycle);
        drop(svc);
    }
}

#[test]
fn replicated_crash_sweep_and_post_flip_failover() {
    for (cycle, step) in step_rotation(&Point::MIGRATE, 6) {
        let (svc, expected) = sweep_cycle(rcfg(), step, cycle);
        // The migrated deployment must survive losing every primary
        // right now: the flip only became durable after the target's
        // follower ingested the full moved image, so promotion finds
        // every acked write — moved keys included.
        let (promoted, _) = Service::promote(svc.fail_over(), None).expect("no probe installed");
        verify_all(&promoted, &expected, &format!("cycle {cycle} promoted"));
    }
}

#[test]
fn follower_loss_during_migration_then_repair() {
    let svc = Service::new(rcfg());
    let expected = load(&svc, 0);
    common::drain(&svc);

    // Kill the source shard's follower mid-protocol: the next write to
    // shard 0 crashes its follower after the durable receive, so the
    // write itself still acks.
    svc.set_probe(Some(fire_at(Point::Applied)));
    let k0 = (0..KEY_SPACE)
        .find(|&k| svc.shard_of(k) == 0)
        .expect("some key routes to shard 0");
    svc.put(k0, 555_000).unwrap();
    svc.set_probe(None);
    let mut expected = expected;
    expected.insert(k0, 555_000);

    // The migration must complete with the follower down — catch-up
    // reads the primary's log directly and the target gets its own
    // fresh follower.
    let spec = MigrateSpec::split(&svc.routing(), 0);
    let moved = spec.slots.clone();
    let (svc, report) = svc.migrate(spec).expect("no probe installed");
    assert!(!report.already_applied);
    assert_eq!(svc.routing().shards(), 3);
    assert_eq!(svc.routing().slots_of(2), moved);
    verify_all(&svc, &expected, "post-migration with downed follower");

    // In-place repair on the post-split topology: replicated writes to
    // the repaired shard ack again, and failover of the whole migrated
    // deployment loses nothing.
    svc.recover_follower();
    svc.put(k0, 556_000).unwrap();
    expected.insert(k0, 556_000);
    common::drain(&svc);
    let (promoted, _) = Service::promote(svc.fail_over(), None).expect("no probe installed");
    verify_all(&promoted, &expected, "promoted after repair");
}

#[test]
fn double_migrate_and_reissue_are_exact() {
    let svc = Service::new(cfg());
    let mut expected = load(&svc, 0);

    // Split shard 0, then split the freshly created shard 2.
    let spec1 = MigrateSpec::split(&svc.routing(), 0);
    let (svc, r1) = svc.migrate(spec1.clone()).expect("no probe installed");
    assert_eq!(r1.epoch, 1);
    let spec2 = MigrateSpec::split(&svc.routing(), 2);
    let (svc, r2) = svc.migrate(spec2.clone()).expect("no probe installed");
    assert_eq!(r2.epoch, 2);
    let table = svc.routing();
    assert_eq!(table.shards(), 4);
    assert_eq!(table.slots_of(3), spec2.slots);
    verify_all(&svc, &expected, "after double migrate");

    // Re-issuing the *first* spec now finds its slots spread over
    // shards 2 and 3 — not a single already-applied target — so it is
    // rejected loudly rather than guessed at.
    let first_owner = table.assignment()[spec1.slots[0]] as usize;
    assert_ne!(first_owner, 0, "spec1 slots must have left the source");

    // Re-issuing the *second* spec is the idempotent no-op.
    let (svc, r3) = svc.migrate(spec2.clone()).expect("no probe installed");
    assert!(r3.already_applied);
    verify_all(&svc, &expected, "after re-issued migrate");

    // Traffic over all four shards, including 4-way cross-shard 2PC.
    let ops: Vec<MapOp> = (0..KEY_SPACE)
        .map(|k| MapOp::Insert(k, k * 2 + 9))
        .collect();
    svc.batch(ops).expect("4-shard batch must commit");
    for k in 0..KEY_SPACE {
        expected.insert(k, k * 2 + 9);
    }
    verify_all(&svc, &expected, "post-traffic");
}

/// A decision record logged before a split is never replayed after it.
/// Re-partitioned under the new table, the record's op on a moved slot
/// lands on the target, whose commit words are all zero; only the
/// record's routing epoch tells recovery that the batch committed long
/// ago, so replay must not clobber the newer acked write.
#[test]
fn records_from_before_a_split_are_never_replayed() {
    let svc = Service::new(cfg());
    let spec = MigrateSpec::split(&svc.routing(), 1);
    let k0 = (0..).find(|&k| svc.shard_of(k) == 0).unwrap();
    let k1 = (0..)
        .find(|&k| spec.slots.contains(&RoutingTable::slot_of(k)))
        .unwrap();
    svc.batch(vec![MapOp::Insert(k0, 1), MapOp::Insert(k1, 1)])
        .unwrap();
    assert_eq!(svc.snapshot().coordinator.cross_batches, 1);
    let (svc, _) = svc.migrate(spec).expect("no probe installed");
    assert_eq!(svc.shard_of(k1), 2);
    assert_eq!(svc.put(k1, 2), Ok(Some(1)));
    let svc = Service::recover(svc.crash());
    assert_eq!(svc.get(k0), Ok(Some(1)));
    assert_eq!(
        svc.get(k1),
        Ok(Some(2)),
        "a pre-split decision was replayed onto the target"
    );
}

#[test]
fn live_migration_under_traffic_loses_no_acked_write() {
    split_under_traffic(cfg());
    // Replicated, halting the source's threads must not leave a worker
    // waiting out its deadline for a follower ack nobody will ship.
    let pause = split_under_traffic(rcfg()).flip_pause;
    assert!(
        pause < Duration::from_millis(500),
        "replicated flip paused writes for {pause:?}"
    );
}

/// Splits shard 0 live under four ring writers, then holds the result
/// to the per-key ledger.
fn split_under_traffic(cfg: ServiceConfig) -> MigrateReport {
    let svc = Service::new(cfg);
    let ring = svc.ring();

    const WRITERS: u64 = 4;
    // Per-key ledger in the kvserve_crash style: highest acked and
    // highest submitted value; writers submit strictly increasing
    // values, so the final value must land in `[acked, submitted]`.
    let acked: Vec<Mutex<(u64, u64)>> = (0..WRITERS).map(|_| Mutex::new((0, 0))).collect();
    let stop = AtomicBool::new(false);

    let (svc, report) = std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ring = ring.clone();
            let cell = &acked[w as usize];
            let stop = &stop;
            scope.spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Acquire) {
                    cell.lock().unwrap().1 = v;
                    let t = match ring.submit_batch(vec![MapOp::Insert(w, v)]) {
                        Ok(t) => t,
                        Err(ServeError::Overloaded { retry_after }) => {
                            std::thread::sleep(retry_after);
                            continue;
                        }
                        Err(e) => panic!("writer {w}: submit failed: {e}"),
                    };
                    match ring.wait(t) {
                        Ok(_) => {
                            cell.lock().unwrap().0 = v;
                            v += 1;
                        }
                        // The flip window: shed, or caught in the husk's
                        // queues — never acked, so retrying the same
                        // value is legal.
                        Err(ServeError::Timeout) | Err(ServeError::Stopped) => {}
                        Err(ServeError::Overloaded { retry_after }) => {
                            std::thread::sleep(retry_after)
                        }
                        Err(e) => panic!("writer {w}: verdict {e}"),
                    }
                }
            });
        }
        // Let traffic build, then split shard 0 live.
        std::thread::sleep(Duration::from_millis(5));
        let spec = MigrateSpec::split(&svc.routing(), 0);
        let out = svc.migrate(spec).expect("no probe installed");
        // Writers keep hitting the *old* ring handle post-flip; give
        // them a beat on the new topology, then stop.
        std::thread::sleep(Duration::from_millis(5));
        stop.store(true, Ordering::Release);
        out
    });

    assert!(!report.already_applied);
    assert_eq!(report.epoch, 1);
    assert_eq!(svc.routing().shards(), 3);
    for w in 0..WRITERS {
        let (a, s) = *acked[w as usize].lock().unwrap();
        assert!(a > 0, "writer {w} never acked through the migration");
        let got = svc.get(w).unwrap().unwrap_or(0);
        assert!(
            got >= a && got <= s,
            "writer {w}: value {got} outside acked {a}..=submitted {s}"
        );
    }
    // The old ring handle is live on the new topology.
    let t = ring.submit_batch(vec![MapOp::Insert(999, 1)]).unwrap();
    assert_eq!(ring.wait(t), Ok(vec![None]));
    report
}

#[test]
fn seeded_migration_fuzz_matches_a_model() {
    let mut rng = Lcg::from_env("KVSERVE_MIGRATE_SEED", 0x5eed_3316);

    let mut svc = Service::new(cfg());
    let mut model: HashMap<u64, u64> = HashMap::new();

    for cycle in 0..40u64 {
        // A few random batches against the model.
        for _ in 0..(1 + rng.next() % 3) {
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
            let expect: Vec<Option<u64>> =
                ops.iter().map(|&op| model_apply(&mut model, op)).collect();
            assert_eq!(
                svc.batch(ops),
                Ok(expect),
                "cycle {cycle}: batch diverged from the model"
            );
        }

        // Migrate a random live shard (random slot subset), crashing at
        // a random step in half the cycles. Quiescent between batches,
        // so after any recovery the store must equal the model exactly.
        let table = svc.routing();
        let source = (rng.next() % table.shards() as u64) as usize;
        let owned = table.slots_of(source);
        if owned.len() < 2 || table.shards() >= 6 {
            continue;
        }
        let take = 1 + (rng.next() as usize) % (owned.len() - 1);
        let slots: Vec<usize> = owned[owned.len() - take..].to_vec();
        let spec = MigrateSpec { source, slots };
        let step = match rng.next() % 12 {
            i @ 0..=5 => Some(Point::MIGRATE[i as usize]),
            _ => None,
        };
        svc.set_probe(step.map(fire_at));
        svc = match (step, svc.migrate(spec.clone())) {
            (None, out) => out.expect("no probe installed").0,
            (Some(s), Ok(_)) => panic!("cycle {cycle}: probe at {s:?} did not fire"),
            (Some(_), Err(crash)) => {
                let svc = Service::recover(crash.dump);
                // Idempotent completion in half the crashed cycles;
                // the other half carries the recovered topology on.
                if rng.next().is_multiple_of(2) {
                    svc.migrate(spec).expect("no probe installed").0
                } else {
                    svc
                }
            }
        };
        for k in 0..KEY_SPACE {
            assert_eq!(
                svc.get(k).unwrap(),
                model.get(&k).copied(),
                "cycle {cycle}: key {k} diverged after migration"
            );
        }
        let table = svc.routing();
        for k in 0..KEY_SPACE {
            assert_eq!(svc.shard_of(k), table.route(k), "cycle {cycle}");
        }
        // Routing totality on the live deployment: the table addresses
        // exactly the shards that exist.
        assert_eq!(table.shards(), svc.num_shards(), "cycle {cycle}");
        assert!(
            table
                .assignment()
                .iter()
                .all(|&a| (a as usize) < svc.num_shards()),
            "cycle {cycle}: slot assigned past the deployment"
        );
        let _ = ROUTE_SLOTS;
    }
}

/// The deterministic sweep with the persist-order sanitizer recording:
/// the base copy, catch-up replay, route flip, scavenge, and recovery
/// paths must produce zero correctness diagnostics.
#[test]
fn migrate_crash_steps_are_psan_clean() {
    for &step in &Point::MIGRATE {
        let mut c = cfg();
        c.nvhalt.pm.psan = pmem::PsanMode::Record;
        let svc = Service::new(c);
        let expected = load(&svc, 7);
        let spec = MigrateSpec::split(&svc.routing(), 0);
        svc.set_probe(Some(fire_at(step)));
        let crash = svc.migrate(spec.clone()).err().expect("probe must fire");
        let svc = Service::recover(crash.dump);
        assert_psan_clean(&svc, &format!("step {step:?} post-recovery"));
        let (svc, _) = svc.migrate(spec).expect("no probe installed");
        verify_all(&svc, &expected, &format!("step {step:?} completed"));
        for k in 0..KEY_SPACE {
            svc.put(k, k + 31).unwrap();
        }
        assert_psan_clean(&svc, &format!("step {step:?} post-migration traffic"));
    }
}
