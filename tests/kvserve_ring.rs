//! Completion-ring front-end tests: submission/completion protocol,
//! structural backpressure, deadline accounting, and crash verdicts.
//!
//! Four harnesses:
//! - scripted protocol tests: FIFO completion order under pipelined
//!   submission, deterministic `RingFull` (a completed-but-unreaped
//!   ticket still occupies its slot), and queue wait charged against
//!   the request deadline on both the single-shard and the 2PC path;
//! - a seeded crash sweep (seed overridable via `KVSERVE_RING_SEED`):
//!   crash with N tickets in flight — single-shard and cross-shard —
//!   and prove every ticket resolves to a definite acked-or-lost
//!   verdict by the time [`Service::crash`] returns, with acked writes
//!   durable across recovery and unacked writes exactly pre- or post-;
//! - a proptest interleaving ring submissions with blocking calls on a
//!   single-shard service, checking one linearizable history against an
//!   in-memory model;
//! - the scripted traffic with the persist-order sanitizer recording,
//!   asserting zero correctness diagnostics.
//!
//! One more scripted test holds 2PC batches in flight and completions
//! unreaped across `Service::reset_metrics`.

mod common;

use common::{cross_shard_keys, model_apply, Lcg};
use kvserve::{MapOp, Point, ServeError, Service, ServiceConfig, Ticket};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn cfg(shards: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(shards);
    cfg.heap_words_per_shard = 1 << 15;
    cfg.buckets_per_shard = 64;
    cfg.log_heap_words = 1 << 15;
    cfg
}

#[test]
fn pipelined_submissions_complete_in_submission_order() {
    // One shard, one worker: the queue is FIFO and batches preserve
    // intra-queue order, so results must match the model applied in
    // submission order even though nothing blocks per request.
    let mut c = cfg(1);
    c.workers_per_shard = 1;
    let svc = Service::new(c);
    let ring = svc.ring();

    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut pending: Vec<(Ticket, Option<u64>)> = Vec::new();
    for i in 0..200u64 {
        let op = match i % 3 {
            0 => MapOp::Insert(i % 16, i),
            1 => MapOp::Get((i + 1) % 16),
            _ => MapOp::Remove((i + 2) % 16),
        };
        let t = ring.submit(op).expect("ring sized for the burst");
        pending.push((t, model_apply(&mut model, op)));
    }
    for (t, expect) in pending {
        assert_eq!(ring.wait(t), Ok(vec![expect]));
    }

    let snap = svc.snapshot();
    assert_eq!(snap.ring.submitted, 200);
    assert_eq!(snap.ring.completed, 200);
    assert_eq!(snap.ring.in_flight, 0);
    assert!(snap.ring.in_flight_hwm >= 1);
    assert_eq!(snap.ring.ring_full, 0);
}

#[test]
fn ring_full_is_deterministic_until_reaped() {
    // Reaping is part of the protocol: a completed ticket still holds
    // its slot, so a 4-slot ring rejects the 5th submission no matter
    // how fast the workers answered the first four.
    let svc = Service::new(cfg(1));
    let ring = svc.ring_with_slots(4);
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| ring.submit(MapOp::Insert(i, i)).unwrap())
        .collect();
    assert_eq!(ring.submit(MapOp::Insert(9, 9)), Err(ServeError::RingFull));
    assert_eq!(ring.wait(tickets[0]), Ok(vec![None]));
    // One slot reaped, exactly one submission fits again.
    let t = ring.submit(MapOp::Insert(9, 9)).unwrap();
    assert_eq!(ring.submit(MapOp::Get(0)), Err(ServeError::RingFull));
    assert_eq!(ring.wait(t), Ok(vec![None]));
    for &t in &tickets[1..] {
        ring.wait(t).unwrap();
    }
    assert_eq!(svc.snapshot().ring.ring_full, 2);
}

#[test]
fn queue_wait_is_charged_against_the_deadline() {
    // A request that expires before execution starts must complete
    // `Timeout` *without running* — on the shard fast path and on the
    // 2PC path alike. An already-expired deadline makes that
    // deterministic: the worker/driver sheds it before executing.
    let svc = Service::new(cfg(2));
    let (a, b) = cross_shard_keys(&svc);

    // Single-shard path: shed by the batching worker.
    assert_eq!(
        svc.apply_deadline(MapOp::Insert(a, 1), Duration::ZERO),
        Err(ServeError::Timeout)
    );
    assert_eq!(svc.get(a), Ok(None), "shed request must not have run");

    // Cross-shard path: shed by the 2PC driver before the protocol
    // starts — no coordinator attempt is recorded, nothing commits.
    assert_eq!(
        svc.batch_deadline(
            vec![MapOp::Insert(a, 1), MapOp::Insert(b, 2)],
            Duration::ZERO
        ),
        Err(ServeError::Timeout)
    );
    let coord = svc.snapshot().coordinator;
    assert_eq!(coord.cross_batches, 0, "expired batch must not start 2PC");
    assert!(coord.abort_timeout >= 1);
    assert_eq!(svc.get(a), Ok(None));
    assert_eq!(svc.get(b), Ok(None));
}

/// Polls `done` until it holds, failing after 10 s.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Asserts that every `name=value` pair of a layer's report line reads
/// `0` (a counter) or `-` (an empty histogram), except the `kept` ones.
fn assert_zeroed(line: &str, kept: &[&str]) {
    for pair in line.split(' ') {
        let (name, value) = pair.split_once('=').expect("name=value pair");
        if !kept.contains(&name) {
            assert!(
                value == "0" || value == "-",
                "{name}={value} survived the reset"
            );
        }
    }
}

#[test]
fn reset_metrics_zeroes_every_layer_but_keeps_the_ring_levels() {
    let svc = Service::new(cfg(2));
    let (a, b) = cross_shard_keys(&svc);
    // Traffic on every layer the service resets.
    svc.put(a, 1).unwrap();
    svc.get(a).unwrap();
    svc.del(a).unwrap();
    svc.batch(vec![MapOp::Insert(a, 1), MapOp::Insert(b, 1)])
        .unwrap();

    // Both 2PC drivers park at their first step, one per release token.
    // Each batch is submitted only once the previous one is parked:
    // queued together, both would ride one driver's round.
    let (reached_tx, reached) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let (reached_tx, release_rx) = (Mutex::new(reached_tx), Mutex::new(release_rx));
    svc.set_probe(Some(Arc::new(move |p| {
        if p == Point::BeforePrepare {
            reached_tx.lock().unwrap().send(()).unwrap();
            let _ = release_rx.lock().unwrap().recv();
        }
        false
    })));
    let ring = svc.ring();
    let long = Duration::from_secs(30);
    let cross: Vec<Ticket> = (0..2)
        .map(|v| {
            let ops = vec![MapOp::Insert(a, v), MapOp::Insert(b, v)];
            let t = ring.submit_batch_deadline(ops, long).unwrap();
            reached
                .recv_timeout(common::VERDICT_WAIT)
                .expect("a 2PC driver parks");
            t
        })
        .collect();
    // Three single-shard completions left unreaped (occupied peaks at 5).
    let single: Vec<Ticket> = (0..3)
        .map(|k| ring.submit(MapOp::Insert(100 + k, k)).unwrap())
        .collect();
    wait_until("single-shard completions", || {
        svc.snapshot().ring.in_flight == 2
    });
    // One 2PC batch completes (in_flight falls from 2 to 1) and one
    // single-shard completion is reaped (occupied falls from 5 to 4).
    release.send(()).unwrap();
    wait_until("the released 2PC batch", || {
        svc.snapshot().ring.in_flight == 1
    });
    ring.wait(single[0]).unwrap();

    let before = svc.snapshot();
    assert!(before.ops() > 0 && before.coordinator.cross_batches > 0);
    assert!(before.ring.in_flight_hwm >= 2);
    assert_eq!((before.ring.occupied, before.ring.occupied_hwm), (4, 5));

    svc.reset_metrics();
    let after = svc.snapshot();
    for s in &after.shards {
        assert_zeroed(&s.to_string(), &[]);
    }
    assert_zeroed(&after.coordinator.to_string(), &[]);
    let levels = ["in_flight", "in_flight_hwm", "occupied", "occupied_hwm"];
    assert_zeroed(&after.ring.to_string(), &levels);
    assert_eq!((after.ring.in_flight, after.ring.in_flight_hwm), (1, 1));
    assert_eq!((after.ring.occupied, after.ring.occupied_hwm), (4, 4));

    // Counting resumes from the new window: the parked batch completes
    // once, and the levels drain to zero without underflowing.
    release.send(()).unwrap();
    for t in cross.into_iter().chain(single.into_iter().skip(1)) {
        ring.wait(t).unwrap();
    }
    let end = svc.snapshot().ring;
    assert_eq!((end.submitted, end.completed), (0, 1));
    assert_eq!((end.in_flight, end.in_flight_hwm), (0, 1));
    assert_eq!((end.occupied, end.occupied_hwm), (0, 4));
}

#[test]
fn tiny_deadline_burst_acks_xor_sheds() {
    // With replication off, `Timeout` can only come from shedding — the
    // request never executed. So under a burst of near-zero deadlines
    // every key is either acked-and-visible or timed-out-and-absent.
    let mut c = cfg(1);
    c.workers_per_shard = 1;
    let svc = Service::new(c);
    let ring = svc.ring();

    let mut tickets: Vec<(u64, Option<Ticket>)> = Vec::new();
    for k in 0..300u64 {
        match ring.submit_batch_deadline(vec![MapOp::Insert(k, k + 1)], Duration::from_micros(300))
        {
            Ok(t) => tickets.push((k, Some(t))),
            // Queue full: rejected before a slot was consumed.
            Err(ServeError::Overloaded { .. }) => tickets.push((k, None)),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    for (k, t) in tickets {
        let verdict = match t {
            Some(t) => ring.wait(t),
            None => Err(ServeError::Timeout),
        };
        match verdict {
            Ok(vals) => {
                assert_eq!(vals, vec![None]);
                assert_eq!(svc.get(k), Ok(Some(k + 1)), "acked write must be visible");
            }
            Err(ServeError::Timeout) | Err(ServeError::Overloaded { .. }) => {
                assert_eq!(svc.get(k), Ok(None), "shed write must not be visible");
            }
            Err(e) => panic!("unexpected verdict for key {k}: {e}"),
        }
    }
}

#[test]
fn crash_with_in_flight_tickets_gives_definite_verdicts() {
    let mut rng = Lcg::from_env("KVSERVE_RING_SEED", 0x0416_5eed);

    let mut svc = Service::new(cfg(3));
    let (xa, xb) = cross_shard_keys(&svc);
    // Ledger of durably-acked values; unacked writes may land or not,
    // but never tear.
    let mut expected: HashMap<u64, u64> = HashMap::new();

    for (cycle, depth) in [1usize, 2, 4, 8, 16, 32].into_iter().enumerate() {
        let ring = svc.ring();
        let base = (cycle as u64 + 1) * 1000;
        // `depth` single-shard puts to fresh keys, plus one cross-shard
        // batch over the same two keys every cycle.
        let mut tickets: Vec<(Vec<MapOp>, Ticket)> = Vec::new();
        for i in 0..depth as u64 {
            let ops = vec![MapOp::Insert(base + i, base + i + rng.next() % 7)];
            let t = ring.submit_batch(ops.clone()).unwrap();
            tickets.push((ops, t));
        }
        let xops = vec![MapOp::Insert(xa, base), MapOp::Insert(xb, base)];
        let xt = ring.submit_batch(xops.clone()).unwrap();
        tickets.push((xops, xt)); // Ticket is Copy; keep `xt` for identity

        // Power failure with the tickets in flight.
        svc.poison();
        let dump = svc.crash();
        // `crash` drained the queues and joined the workers: every
        // outstanding ticket already has its verdict.
        assert_eq!(ring.in_flight(), 0, "cycle {cycle}: unresolved tickets");
        let mut acked_x = false;
        for (ops, t) in &tickets {
            match ring.wait(*t) {
                Ok(_) => {
                    for &op in ops {
                        model_apply(&mut expected, op);
                    }
                    if *t == xt {
                        acked_x = true;
                    }
                }
                Err(ServeError::Stopped | ServeError::Timeout | ServeError::Aborted) => {}
                Err(e) => panic!("cycle {cycle}: indefinite verdict {e}"),
            }
        }
        // The dead service's queues are disconnected: a post-crash
        // submission on the old ring answers Stopped, not silence.
        assert_eq!(
            ring.submit(MapOp::Get(0)),
            Err(ServeError::Stopped),
            "cycle {cycle}: stale ring must reject loudly"
        );

        svc = Service::recover(dump);
        // Acked writes are durable…
        for (&k, &v) in &expected {
            if k == xa || k == xb {
                continue;
            }
            assert_eq!(svc.get(k), Ok(Some(v)), "cycle {cycle}: lost acked write");
        }
        // …and the unacked cross-shard batch is atomic: both keys moved
        // to `base` or neither did (earlier cycles' acked values stay).
        let got = (svc.get(xa).unwrap(), svc.get(xb).unwrap());
        if acked_x || got == (Some(base), Some(base)) {
            expected.insert(xa, base);
            expected.insert(xb, base);
            assert_eq!(got, (Some(base), Some(base)), "cycle {cycle}: torn 2PC");
        } else {
            assert_eq!(
                got,
                (expected.get(&xa).copied(), expected.get(&xb).copied()),
                "cycle {cycle}: torn 2PC"
            );
        }
        // Unacked single-shard writes: present-with-the-written-value or
        // absent, never garbage.
        for i in 0..depth as u64 {
            if let Some(v) = svc.get(base + i).unwrap() {
                expected.insert(base + i, v);
            }
        }
    }
}

mod interleave {
    use super::*;
    use proptest::prelude::*;

    fn op_from(sel: u8, k: u64, v: u64) -> MapOp {
        match sel % 3 {
            0 => MapOp::Insert(k, v),
            1 => MapOp::Get(k),
            _ => MapOp::Remove(k),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 24,
            ..ProptestConfig::default()
        })]

        /// Ring submissions interleaved with blocking calls on one shard
        /// with one worker form a single linearizable history in
        /// submission order: the queue is FIFO, batches preserve
        /// intra-queue order, and a blocking call (itself a ring ticket
        /// under the hood) enqueues after everything already submitted.
        #[test]
        fn interleaved_ring_and_blocking_calls_linearize(
            calls in proptest::collection::vec(
                (any::<bool>(), 0u8..3, 0u64..16, 0u64..1000),
                1..80,
            )
        ) {
            let mut c = cfg(1);
            c.workers_per_shard = 1;
            let svc = Service::new(c);
            let ring = svc.ring();
            let mut model: HashMap<u64, u64> = HashMap::new();
            let mut pending: Vec<(Ticket, Option<u64>)> = Vec::new();
            for (is_ring, sel, k, v) in calls {
                let op = op_from(sel, k, v);
                if is_ring {
                    let t = ring.submit(op).unwrap();
                    pending.push((t, model_apply(&mut model, op)));
                } else {
                    let expect = model_apply(&mut model, op);
                    prop_assert_eq!(svc.apply(op), Ok(expect));
                }
            }
            for (t, expect) in pending {
                prop_assert_eq!(ring.wait(t), Ok(vec![expect]));
            }
        }
    }
}

#[test]
fn ring_traffic_is_psan_clean() {
    use common::assert_psan_clean as assert_clean;

    let mut c = cfg(2);
    c.nvhalt.pm.psan = pmem::PsanMode::Record;
    let mut svc = Service::new(c);
    let (a, b) = cross_shard_keys(&svc);

    let ring = svc.ring();
    let mut tickets = Vec::new();
    for i in 0..32u64 {
        tickets.push(ring.submit(MapOp::Insert(i, i * 2)).unwrap());
    }
    tickets.push(
        ring.submit_batch(vec![MapOp::Insert(a, 7), MapOp::Insert(b, 8)])
            .unwrap(),
    );
    for t in tickets {
        ring.wait(t).unwrap();
    }
    assert_clean(&svc, "ring traffic");

    // And across a crash with tickets in flight plus recovery traffic.
    let mut inflight = Vec::new();
    for i in 0..8u64 {
        inflight.push(ring.submit(MapOp::Insert(100 + i, i)).unwrap());
    }
    svc.poison();
    let dump = svc.crash();
    for t in inflight {
        let _ = ring.wait(t);
    }
    svc = Service::recover(dump);
    svc.put(a, 9).unwrap();
    svc.batch(vec![MapOp::Insert(a, 10), MapOp::Insert(b, 11)])
        .unwrap();
    assert_clean(&svc, "post-recovery ring traffic");
}
