//! Persist-path budget tests: hard upper bounds on the flushes and
//! fences a single no-conflict committed put may issue on each backend,
//! measured as `TmStats` deltas. A regression that re-inflates the
//! persist path (an extra per-entry flush, a second commit fence, a
//! redundant marker write-back) fails here in `cargo test`, not just in
//! the bench gate.
//!
//! Budgets (steady state, after a warm-up commit — a thread's *first*
//! commit may take the legacy two-fence marker path because its
//! generation stamp is indistinguishable from freshly zeroed memory):
//!
//! | backend | flushes | fences | why |
//! |---------|---------|--------|-----|
//! | NV-HALT | 2       | 1      | one coalesced entry-line pass + the counted commit marker, one post-marker fence |
//! | NV-HALT software path (`hw_attempts = 0`) | 2 | 1 | the same `AnnotPmem::{stage, commit}` as the hardware path |
//! | NV-HALT two-word software put | 3 | 1 | two entry lines + the counted marker, still one fence |
//! | NV-HALT `prepare` + `commit_prepared`, one write | 2 | 2 | staged entry fenced at prepare; the decision is a trusted marker + fence (`AnnotPmem::mark`) |
//! | NV-HALT `prepare` + `abort_prepared`, one write | 3 | 3 | as above, plus the re-staged old value's line and fence before the marker |
//! | NV-HALT put right after that abort | 2 | 1 | the aborted generation is consumed, so the next commit is counted again |
//! | Trinity | 2       | 1      | same counted one-fence protocol over its undo entries |
//! | SPHT    | 4       | 3      | record body+truncation pass, validity marker (fence each), marker-word advance (fence) — the paper's 2-fence-per-commit baseline plus marker traffic |
//! | kvserve 2PC put, 2 shards | 14 | 5 | three TM commits: two prepared participants (staged, then committed: a fence each) and one decision-record write; nothing after the fan-out |
//! | kvserve 2PC, 1 parked + 8 queued puts, 2 shards | 60 | 10 | two rounds of three TM commits each: the 8 queued puts share one round (measured 59 flushes; one round per put would pay 45 fences and 27 commits) |

mod common;

use common::{verdict, Gate};
use kvserve::{MapOp, Service, ServiceConfig, ServiceSnapshot, Ticket};
use nv_halt::prelude::*;
use nvhalt::NvHaltConfig;
use std::time::Duration;
use tm::stats::Counter;

/// Flush/fence deltas for one committed put after `warmup` prior puts.
fn put_cost<T: Tm>(tm: &T, warmup: u64) -> (u64, u64) {
    for i in 0..warmup {
        txn(tm, 0, |tx| tx.write(Addr(1 + i), i + 1)).unwrap();
    }
    let before = tm.stats();
    txn(tm, 0, |tx| tx.write(Addr(100), 7)).unwrap();
    let after = tm.stats();
    (
        after.get(Counter::Flush) - before.get(Counter::Flush),
        after.get(Counter::Fence) - before.get(Counter::Fence),
    )
}

#[test]
fn nvhalt_put_budget() {
    let tm = NvHalt::new(NvHaltConfig::test(1 << 10, 1));
    let (flushes, fences) = put_cost(&tm, 2);
    assert!(
        flushes <= 2 && fences <= 1,
        "NV-HALT no-conflict put: {flushes} flushes / {fences} fences \
         (budget 2 / 1)"
    );
}

#[test]
fn trinity_put_budget() {
    let tm = Trinity::new(TrinityConfig::test(1 << 10, 1));
    let (flushes, fences) = put_cost(&tm, 2);
    assert!(
        flushes <= 2 && fences <= 1,
        "Trinity no-conflict put: {flushes} flushes / {fences} fences \
         (budget 2 / 1)"
    );
}

#[test]
fn spht_put_budget() {
    let tm = Spht::new(SphtConfig::test(1 << 10, 1));
    let (flushes, fences) = put_cost(&tm, 2);
    assert!(
        flushes <= 4 && fences <= 3,
        "SPHT no-conflict put: {flushes} flushes / {fences} fences \
         (budget 4 / 3)"
    );
}

/// Flush/fence deltas of `f` on `tm`.
fn cost_of<T: Tm>(tm: &T, f: impl FnOnce()) -> (u64, u64) {
    let before = tm.stats();
    f();
    let after = tm.stats();
    (
        after.get(Counter::Flush) - before.get(Counter::Flush),
        after.get(Counter::Fence) - before.get(Counter::Fence),
    )
}

/// The software path commits through the same staging pass and counted
/// marker as the hardware path: exact counts, one fence however many
/// entry lines.
#[test]
fn nvhalt_software_path_budget() {
    let mut cfg = NvHaltConfig::test(1 << 10, 1);
    cfg.policy.hw_attempts = 0;
    let tm = NvHalt::new(cfg);
    assert_eq!(put_cost(&tm, 2), (2, 1), "software-path put");
    let two_words = cost_of(&tm, || {
        txn(&tm, 0, |tx| {
            tx.write(Addr(200), 1)?;
            tx.write(Addr(300), 2)
        })
        .unwrap()
    });
    assert_eq!(two_words, (3, 1), "two-word software put");
    assert_eq!(tm.stats().get(Counter::HwCommit), 0, "software path only");
}

/// A prepared transaction's decision is a trusted marker and a fence
/// over its already-fenced entries; an abort re-stages the old value
/// first and consumes the generation, so the next put is counted again.
#[test]
fn nvhalt_prepared_budget() {
    let tm = NvHalt::new(NvHaltConfig::test(1 << 10, 1));
    put_cost(&tm, 2);
    let commit = cost_of(&tm, || {
        tm.prepare(0, |tx| tx.write(Addr(100), 8)).unwrap();
        tm.commit_prepared(0);
    });
    assert_eq!(commit, (2, 2), "prepare + commit_prepared");
    let abort = cost_of(&tm, || {
        tm.prepare(0, |tx| tx.write(Addr(100), 9)).unwrap();
        tm.abort_prepared(0);
    });
    assert_eq!(abort, (3, 3), "prepare + abort_prepared");
    let next = cost_of(&tm, || txn(&tm, 0, |tx| tx.write(Addr(100), 10)).unwrap());
    assert_eq!(next, (2, 1), "the put right after the abort");
}

/// The warm-up commit itself is allowed the legacy two-fence path, but
/// never more: even a cold thread's first put stays within one extra
/// fence of the steady-state budget on the counted-marker backends.
#[test]
fn first_commit_budget() {
    let tm = NvHalt::new(NvHaltConfig::test(1 << 10, 1));
    let (flushes, fences) = put_cost(&tm, 0);
    assert!(
        flushes <= 2 && fences <= 2,
        "NV-HALT first put: {flushes} flushes / {fences} fences \
         (budget 2 / 2)"
    );
    let tm = Trinity::new(TrinityConfig::test(1 << 10, 1));
    let (flushes, fences) = put_cost(&tm, 0);
    assert!(
        flushes <= 2 && fences <= 2,
        "Trinity first put: {flushes} flushes / {fences} fences \
         (budget 2 / 2)"
    );
}

/// `(flushes, fences, TM commits)` summed over every shard TM and the
/// decision log.
fn service_persist(snap: &ServiceSnapshot) -> (u64, u64, u64) {
    let tms = snap
        .shards
        .iter()
        .map(|s| &s.tm)
        .chain(std::iter::once(&snap.coordinator.tm));
    tms.fold((0, 0, 0), |(f, n, c), tm| {
        (
            f + tm.get(Counter::Flush),
            n + tm.get(Counter::Fence),
            c + tm.commits(),
        )
    })
}

/// One cross-shard put — one key overwritten on each of two shards in
/// one batch — costs three TM commits in all: the two prepared
/// participants and the decision record. One coordinator slot keeps the
/// count exact: with two, a batch served by the other driver overwrites
/// log entries stamped by another thread, and witness preservation adds
/// a flush and a fence per such entry.
#[test]
fn cross_shard_put_budget() {
    let mut cfg = ServiceConfig::new(2);
    cfg.coordinators = 1;
    let svc = Service::new(cfg);
    let a = 1u64;
    let b = (2..).find(|&k| svc.shard_of(k) != svc.shard_of(a)).unwrap();
    let put = |v| {
        svc.batch(vec![MapOp::Insert(a, v), MapOp::Insert(b, v)])
            .unwrap()
    };
    // Warm-up: the keys exist and every thread has committed before.
    for v in 0..3 {
        put(v);
    }
    let before = service_persist(&svc.snapshot());
    put(3);
    let after = service_persist(&svc.snapshot());
    let (flushes, fences, commits) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    assert!(
        flushes <= 14 && fences <= 5 && commits == 3,
        "cross-shard put: {flushes} flushes / {fences} fences / {commits} \
         TM commits (budget 14 / 5 / exactly 3)"
    );
}

/// A 2PC round carries every request queued behind it. One cross-shard
/// put parks its round at the gate while 8 more queue
/// through a ring; the 9 requests then cost two rounds — six TM commits
/// and at most ten fences in all — where one round per request would
/// pay 27 commits and 45 fences.
#[test]
fn cross_shard_round_budget() {
    const QUEUED: usize = 8;
    const FLUSHES: u64 = 60;
    let mut cfg = ServiceConfig::new(2);
    cfg.coordinators = 1;
    let svc = Service::new(cfg);
    let keys = |shard| {
        (0..)
            .filter(|&k| svc.shard_of(k) == shard)
            .take(QUEUED + 1)
            .collect::<Vec<u64>>()
    };
    let (left, right) = (keys(0), keys(1));
    let ring = svc.ring();
    let long = Duration::from_secs(30);
    let puts = |v| {
        let put = |i: usize| vec![MapOp::Insert(left[i], v), MapOp::Insert(right[i], v)];
        let gate = Gate::install(&svc, None);
        let parked = ring.submit_batch_deadline(put(0), long).unwrap();
        gate.wait_parked();
        let queued: Vec<Ticket> = (1..=QUEUED)
            .map(|i| ring.submit_batch_deadline(put(i), long).unwrap())
            .collect();
        gate.open();
        for t in std::iter::once(parked).chain(queued) {
            verdict(&ring, t).unwrap();
        }
    };
    // Warm-up: the keys exist, every thread has committed before, and
    // the decision record has room for a 16-op round.
    puts(0);
    puts(1);
    let before = service_persist(&svc.snapshot());
    puts(2);
    let after = service_persist(&svc.snapshot());
    let (flushes, fences, commits) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    assert!(
        flushes <= FLUSHES && fences <= 10 && commits == 6,
        "1 parked + {QUEUED} queued cross-shard puts: {flushes} flushes / \
         {fences} fences / {commits} TM commits (budget {FLUSHES} / 10 / exactly 6)"
    );
}
