//! Shared harness for the kvserve crash-step sweep suites.
//!
//! Every kvserve suite follows the same deterministic shape: pick a
//! protocol point from a layer's sweep list (`Point::TWO_PC`,
//! `Point::REPL`, `Point::FAILOVER`, `Point::MIGRATE`, `Point::NET`),
//! install a probe that fires exactly at that point, drive one request
//! into it, recover the dump, and hold the store to an acked-write
//! ledger. The pieces here — the point rotation, the single-point probe,
//! the 2PC gate, the bounded verdict wait, the seeded PRNG, the
//! sequential model, the pre-xor-post torn-batch check, key-placement
//! helpers and the psan cleanliness assertion — are that shape, shared
//! so the suites (`kvserve_crash`, `kvserve_cross_shard`,
//! `kvserve_replication`, `kvserve_ring`, `kvserve_migrate`,
//! `kvserve_net`, `persist_budget`) state only their protocol-specific
//! expectations.

// Each test binary compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use kvserve::{MapOp, Point, Probe, Reply, Ring, ServeError, Service, Ticket};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The deterministic crash-point rotation every sweep runs on:
/// `(cycle, point)` pairs walking `points` in order, wrapping for
/// `cycles` total iterations so every point is hit `cycles / len` times.
pub fn step_rotation(points: &[Point], cycles: usize) -> impl Iterator<Item = (u64, Point)> + '_ {
    (0..cycles as u64).map(move |c| (c, points[c as usize % points.len()]))
}

/// A probe that fires exactly at `point` (the only probe shape the
/// deterministic sweeps use).
pub fn fire_at(point: Point) -> Probe {
    Arc::new(move |p| p == point)
}

/// A probe that fires at the `n`-th occurrence of `point` (1-based) and
/// every occurrence after it. The net sweep uses this to place the
/// crash mid-pipeline — the plain [`fire_at`] always hits the first
/// frame/completion, which would leave deeper pipeline states unswept.
pub fn fire_at_nth(point: Point, n: usize) -> Probe {
    let seen = std::sync::atomic::AtomicUsize::new(0);
    Arc::new(move |p| p == point && seen.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1 >= n)
}

/// A gate over a service's 2PC drivers: the next round parks at
/// [`Point::BeforePrepare`] until [`Gate::open`], so cross-shard
/// requests submitted meanwhile queue up behind it. With `crash`, every
/// later round crashes at that point. Installing a gate replaces the
/// service's probe.
pub struct Gate {
    reached: mpsc::Receiver<()>,
    release: mpsc::Sender<()>,
}

impl Gate {
    pub fn install(svc: &Service, crash: Option<Point>) -> Gate {
        let (reached_tx, reached) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let (reached_tx, release_rx) = (Mutex::new(reached_tx), Mutex::new(release_rx));
        let rounds = AtomicUsize::new(0);
        svc.set_probe(Some(Arc::new(move |p| {
            if p == Point::BeforePrepare && rounds.fetch_add(1, Ordering::SeqCst) == 0 {
                // A dropped gate lets the round through: a failed test
                // never leaves a driver parked.
                let _ = reached_tx.lock().unwrap().send(());
                let _ = release_rx.lock().unwrap().recv();
                return false;
            }
            rounds.load(Ordering::SeqCst) > 1 && Some(p) == crash
        })));
        Gate { reached, release }
    }

    /// Block until a round is parked at the gate; fail the test if none
    /// is within [`VERDICT_WAIT`].
    pub fn wait_parked(&self) {
        self.reached
            .recv_timeout(VERDICT_WAIT)
            .expect("no 2PC round reached the gate");
    }

    /// Let the parked round go on.
    pub fn open(&self) {
        self.release.send(()).expect("a round is parked");
    }
}

/// How long a test waits for a verdict (or a parked round) before it
/// fails instead of hanging: far above any healthy wait, which takes
/// milliseconds.
pub const VERDICT_WAIT: Duration = Duration::from_secs(60);

/// [`Ring::wait`] bounded by [`VERDICT_WAIT`]: a ticket that gets no
/// verdict in time fails the test. A `Timeout` verdict delivered in time
/// is returned as is.
pub fn verdict(ring: &Ring, ticket: Ticket) -> Reply {
    let by = Instant::now() + VERDICT_WAIT;
    let reply = ring.wait_deadline(ticket, by);
    assert!(
        reply != Err(ServeError::Timeout) || Instant::now() < by,
        "no verdict within {VERDICT_WAIT:?}"
    );
    reply
}

/// The suites' seeded PRNG (64-bit LCG, high bits): deterministic by
/// default, reseedable per suite through an env var so CI failures
/// reproduce locally.
pub struct Lcg(pub u64);

impl Lcg {
    /// Seed from `var` when set (`KVSERVE_*_SEED`), else `default`.
    /// The low bit is forced so a zero seed cannot collapse the stream.
    pub fn from_env(var: &str, default: u64) -> Lcg {
        let seed = std::env::var(var)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default);
        Lcg(seed | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// The sequential model every suite checks the service against.
pub fn model_apply(model: &mut HashMap<u64, u64>, op: MapOp) -> Option<u64> {
    match op {
        MapOp::Get(k) => model.get(&k).copied(),
        MapOp::Insert(k, v) => model.insert(k, v),
        MapOp::Remove(k) => model.remove(&k),
    }
}

/// One key per shard (under the service's *current* routing table), so
/// a batch over all of them spans every shard.
pub fn keys_per_shard(svc: &Service) -> Vec<u64> {
    let mut keys = vec![None; svc.num_shards()];
    let mut k = 1u64;
    while keys.iter().any(Option::is_none) {
        keys[svc.shard_of(k)].get_or_insert(k);
        k += 1;
    }
    keys.into_iter().map(Option::unwrap).collect()
}

/// Two keys on different shards (panics on a 1-shard service).
pub fn cross_shard_keys(svc: &Service) -> (u64, u64) {
    let a = 1u64;
    let mut b = 2u64;
    while svc.shard_of(b) == svc.shard_of(a) {
        b += 1;
    }
    (a, b)
}

/// Wait until every shipped entry has been applied, so an installed
/// probe deterministically fires on the *next* write's entry and not on
/// some straggler from the previous cycle.
pub fn drain(svc: &Service) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let repl = svc.snapshot().replication.expect("replication on");
        if repl.lag() == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replication lag failed to drain: {repl}"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Hold the recovered store to the ledger: every key answers exactly
/// its expected value.
pub fn verify(svc: &Service, keys: &[u64], expected: &HashMap<u64, u64>, cycle: u64) {
    for &k in keys {
        assert_eq!(
            svc.get(k).unwrap(),
            expected.get(&k).copied(),
            "cycle {cycle}: key {k} diverged from the ledger"
        );
    }
}

/// After an unacked crashed batch, the store over `0..key_space` must
/// equal the pre-batch model or the post-batch model *in its entirety*
/// — a mix is a torn batch. Advances `model` to whichever side the
/// recovery landed on, and returns whether that was post-batch.
pub fn resync(
    svc: &Service,
    model: &mut HashMap<u64, u64>,
    ops: &[MapOp],
    key_space: u64,
    cycle: u64,
) -> bool {
    let mut post = model.clone();
    for &op in ops {
        model_apply(&mut post, op);
    }
    let got: HashMap<u64, u64> = (0..key_space)
        .filter_map(|k| svc.get(k).unwrap().map(|v| (k, v)))
        .collect();
    if got == post {
        *model = post;
        true
    } else {
        assert_eq!(
            got, *model,
            "cycle {cycle}: state is neither pre- nor post-batch (torn)"
        );
        false
    }
}

/// Zero persist-order correctness diagnostics across every pool the
/// service owns (perf-class advisories are allowed). Piggybacks the
/// lock-discipline check so every sweep that audits persist order also
/// audits the lock hierarchy when built with `--features locksan`.
pub fn assert_psan_clean(svc: &Service, what: &str) {
    let diags: Vec<_> = svc
        .psan_diagnostics()
        .into_iter()
        .filter(|d| !d.class.is_perf())
        .collect();
    assert!(diags.is_empty(), "{what}: {diags:?}");
    assert_locksan_clean(what);
}

/// Zero lock-discipline reports since the last drain. A no-op unless the
/// workspace is built with `--features locksan` *and* `LOCKSAN=1` (or
/// `LOCKSAN=panic`) is set, matching the sanitizer's env gate.
#[cfg(feature = "locksan")]
pub fn assert_locksan_clean(what: &str) {
    let reports = locksan::take_reports();
    assert!(
        reports.is_empty(),
        "{what}: {} lock-discipline report(s): {}",
        reports.len(),
        reports
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[cfg(not(feature = "locksan"))]
pub fn assert_locksan_clean(_what: &str) {}
