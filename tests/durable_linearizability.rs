//! Durable linearizability, checked directly against its definition
//! (Izraelevitz et al., cited as [34] in the paper): after a crash, the
//! recovered state must reflect a *prefix-closed, atomic* subhistory that
//! contains every operation that completed before the crash.
//!
//! The harness drives dependent-chain workloads where each transaction's
//! write value encodes everything it observed, so prefix violations are
//! detectable from the recovered state alone — no trust in the workers'
//! bookkeeping is needed for the atomicity part.

use nv_halt::prelude::*;
use pmem::{EvictionPolicy, FlushPolicy};
use tm::crash::run_crashable;

/// Chain workload: each thread repeatedly executes
/// `x[t] = x[t] + 1; y[t] = x[t]` in one transaction. At every moment,
/// committed state satisfies `y[t] == x[t]`; a recovered state with
/// `y[t] != x[t]` would be a non-atomic (torn) suffix, and a recovered
/// `x[t]` smaller than the thread's last *returned* value would violate
/// prefix inclusion.
fn chain_crash_round(cfg: NvHaltConfig, crash_ms: u64) {
    const T: usize = 3;
    let tm = NvHalt::new(cfg.clone());
    let mut last_returned = [0u64; T];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..T)
            .map(|t| {
                let tm = &tm;
                s.spawn(move || {
                    // Cell: the closure unwinds on the crash, so the last
                    // committed value must be readable from outside it.
                    let last = std::cell::Cell::new(0u64);
                    run_crashable(|| loop {
                        let v = tm::txn(tm, t, |tx| {
                            let x = Addr(1 + t as u64);
                            let y = Addr(16 + t as u64);
                            let v = tx.read(x)? + 1;
                            tx.write(x, v)?;
                            tx.write(y, v)?;
                            Ok(v)
                        })
                        .unwrap();
                        last.set(v);
                    });
                    last.get()
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(crash_ms));
        tm.crash();
        for (t, h) in handles.into_iter().enumerate() {
            last_returned[t] = h.join().unwrap();
        }
    });

    let rec = NvHalt::recover(cfg, &tm.crash_image(), []);
    for (t, &returned) in last_returned.iter().enumerate() {
        let x = rec.read_raw(Addr(1 + t as u64));
        let y = rec.read_raw(Addr(16 + t as u64));
        assert_eq!(x, y, "thread {t}: torn transaction in recovered state");
        assert!(
            x >= returned,
            "thread {t}: prefix violation — recovered {x} < returned {returned}"
        );
        // And nothing from the future: x can exceed last_returned by at
        // most the one in-flight transaction.
        assert!(
            x <= returned + 1,
            "thread {t}: recovered {x} exceeds any possible commit"
        );
    }
}

#[test]
fn chains_hold_under_eager_flushes() {
    for progress in [Progress::Weak, Progress::Strong] {
        let mut cfg = NvHaltConfig::test(1 << 10, 3);
        cfg.progress = progress;
        chain_crash_round(cfg, 25);
    }
}

#[test]
fn chains_hold_under_flush_adversaries() {
    let mut cfg = NvHaltConfig::test(1 << 10, 3);
    cfg.pm.flush = FlushPolicy::Seeded { num: 80 };
    cfg.pm.eviction = EvictionPolicy::Random { prob_log2: 5 };
    chain_crash_round(cfg, 25);
}

#[test]
fn chains_hold_with_colocated_locks() {
    let mut cfg = NvHaltConfig::test(1 << 10, 3);
    cfg.locks = LockStrategy::Colocated;
    cfg.pm.flush = FlushPolicy::Seeded { num: 128 };
    chain_crash_round(cfg, 25);
}

#[test]
fn chains_hold_across_many_rounds() {
    // Ten short rounds catch different crash phases (inside persist,
    // between flush and fence, mid-HTM, during release).
    for round in 0..10u64 {
        let mut cfg = NvHaltConfig::test(1 << 10, 3);
        cfg.pm.seed = 0xc4a5 ^ round;
        cfg.pm.flush = if round % 2 == 0 {
            FlushPolicy::Eager
        } else {
            FlushPolicy::Seeded { num: 60 }
        };
        chain_crash_round(cfg, 8);
    }
}

/// Cross-thread visibility chain: thread B copies A's counter; recovery
/// must never show B's copy ahead of A's source (that would mean B's
/// transaction survived while the A-transaction it *read from* was lost —
/// exactly the Figure 4 anomaly NV-HALT's hardware-assisted locking
/// prevents).
#[test]
fn cross_thread_reads_from_prefix_is_closed() {
    let cfg = NvHaltConfig::test(1 << 10, 2);
    let tm = NvHalt::new(cfg.clone());
    std::thread::scope(|s| {
        let a = {
            let tm = &tm;
            s.spawn(move || {
                run_crashable(|| loop {
                    tm::txn(tm, 0, |tx| {
                        let v = tx.read(Addr(1))? + 1;
                        tx.write(Addr(1), v)
                    })
                    .unwrap();
                })
            })
        };
        let b = {
            let tm = &tm;
            s.spawn(move || {
                run_crashable(|| loop {
                    tm::txn(tm, 1, |tx| {
                        let src = tx.read(Addr(1))?;
                        tx.write(Addr(2), src)
                    })
                    .unwrap();
                })
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        tm.crash();
        let _ = a.join();
        let _ = b.join();
    });
    let rec = NvHalt::recover(cfg, &tm.crash_image(), []);
    let src = rec.read_raw(Addr(1));
    let copy = rec.read_raw(Addr(2));
    assert!(
        copy <= src,
        "recovered copy {copy} ahead of its source {src}: a dependent \
         transaction survived the crash while its dependency did not"
    );
}

/// Multi-shard histories: one logical transaction spans several shard
/// TMs (kvserve's 2PC), yet the combined history — keys mapped into one
/// logical address space — must still pass the same TM-agnostic checker
/// used for single-TM runs, and must still be durably linearizable
/// across a crash.
///
/// Every batch is a cross-shard read-modify-write (`Insert` returns the
/// previous value = the read observation), with globally unique written
/// values. That makes two checks sharp:
/// - `tm::check::check_history` over all acked batches plus one
///   post-recovery snapshot read (thin-air reads, causality cycles);
/// - per key, the acked `(previous, written)` pairs must chain
///   `0 → v → v' → …` with the recovered value at the head — a lost
///   update or a torn acked batch breaks the chain.
#[test]
fn cross_shard_batches_form_a_durably_linearizable_history() {
    service_history_round(false);
}

/// The same history check with the crash replaced by a *failover*: the
/// service replicates to followers, every primary pool is declared lost,
/// and the promoted followers serve the post-"crash" reads. Semi-sync
/// acks make the durable-linearizability obligation identical — every
/// acked batch must be in the promoted state, whole — even though the
/// recovered state lives in entirely different pools than the ones the
/// batches committed into.
#[test]
fn failover_spanning_histories_stay_durably_linearizable() {
    service_history_round(true);
}

/// The same history obligation with a **live shard migration** in the
/// middle of the history: clients keep issuing cross-shard
/// read-modify-write batches through ring handles while the deployment
/// splits a shard and flips its routing table, then the whole thing
/// crashes and recovers onto the migrated topology. Durable
/// linearizability does not get a migration exemption — every acked
/// batch, whether it committed before the flip (and was streamed to the
/// new shard) or after it, must chain into the recovered state, whole.
#[test]
fn migration_spanning_histories_stay_durably_linearizable() {
    use kvserve::{MapOp, MigrateSpec, ServeError, Service, ServiceConfig};
    use std::collections::HashMap;
    use std::sync::Mutex;
    use tm::check::{check_history, HistoryRecorder};

    const CLIENTS: usize = 3;
    const ROUNDS: u64 = 40;
    const KEYS: u64 = 12;

    let mut cfg = ServiceConfig::new(2);
    cfg.heap_words_per_shard = 1 << 15;
    cfg.buckets_per_shard = 64;
    cfg.coordinators = CLIENTS;
    let svc = Service::new(cfg);
    // Cross-shard key pairing under the *initial* table; post-flip some
    // pairs collapse to one shard (or split differently) — both paths
    // carry the same atomicity obligation.
    let table0 = svc.routing();

    let rec = HistoryRecorder::new();
    let links: Mutex<Vec<(u64, u64, u64)>> = Mutex::new(Vec::new());

    let svc = std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let ring = svc.ring();
            let (rec, links, table0) = (&rec, &links, &table0);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let k1 = (c as u64 * 17 + round) % KEYS;
                    let k2 = (0..KEYS)
                        .map(|d| (k1 + 1 + d) % KEYS)
                        .find(|&k| table0.route(k) != table0.route(k1))
                        .expect("key space covers both shards");
                    let v1 = ((c as u64 + 1) << 40) | (round * 2 + 1);
                    let v2 = ((c as u64 + 1) << 40) | (round * 2 + 2);
                    let ops = vec![MapOp::Insert(k1, v1), MapOp::Insert(k2, v2)];
                    let begin = rec.begin();
                    let vals = loop {
                        let verdict = ring.submit_batch(ops.clone()).and_then(|t| ring.wait(t));
                        match verdict {
                            Ok(v) => break v,
                            Err(ServeError::Overloaded { retry_after }) => {
                                std::thread::sleep(retry_after)
                            }
                            // Never acked — shed, or caught in a drained
                            // queue — so retrying the identical batch is
                            // sound.
                            Err(ServeError::Aborted)
                            | Err(ServeError::Timeout)
                            | Err(ServeError::Stopped) => {
                                std::thread::sleep(std::time::Duration::from_micros(100))
                            }
                            Err(e) => panic!("client {c}: {e}"),
                        }
                    };
                    let (p1, p2) = (vals[0].unwrap_or(0), vals[1].unwrap_or(0));
                    rec.commit(
                        c,
                        begin,
                        vec![(Addr(k1 + 1), p1), (Addr(k2 + 1), p2)],
                        vec![(Addr(k1 + 1), v1), (Addr(k2 + 1), v2)],
                    );
                    links.lock().unwrap().extend([(k1, p1, v1), (k2, p2, v2)]);
                }
            });
        }
        // Mid-history: split shard 0 live, under the clients' traffic.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let spec = MigrateSpec::split(&svc.routing(), 0);
        svc.migrate(spec).expect("no probe installed").0
    });

    assert_eq!(svc.routing().epoch(), 1, "migration must have flipped");
    // Quiescent crash onto the migrated topology.
    let svc = Service::recover(svc.crash());
    assert_eq!(svc.routing().shards(), 3, "recovered onto the old topology");

    let begin = rec.begin();
    let mut final_val: HashMap<u64, u64> = HashMap::new();
    let mut final_reads = Vec::new();
    for k in 0..KEYS {
        let v = svc.get(k).unwrap().unwrap_or(0);
        final_reads.push((Addr(k + 1), v));
        final_val.insert(k, v);
    }
    rec.commit(0, begin, final_reads, Vec::new());

    assert_eq!(check_history(&rec.history(), &HashMap::new()), Ok(()));

    let links = links.into_inner().unwrap();
    for k in 0..KEYS {
        let mut next: HashMap<u64, u64> = HashMap::new();
        let mut count = 0usize;
        for &(lk, prev, written) in &links {
            if lk == k {
                assert!(
                    next.insert(prev, written).is_none(),
                    "key {k}: two acked batches observed previous value {prev} (lost update)"
                );
                count += 1;
            }
        }
        let mut cur = 0u64;
        let mut used = 0usize;
        while let Some(&w) = next.get(&cur) {
            cur = w;
            used += 1;
        }
        assert_eq!(used, count, "key {k}: acked update chain is broken");
        assert_eq!(
            cur, final_val[&k],
            "key {k}: recovered value is not the head of the acked chain"
        );
    }
}

/// The same history obligation with the clients on the far side of a
/// socket: concurrent [`kvserve::NetClient`]s drive cross-shard
/// read-modify-write batches through the wire-protocol front end, the
/// server power-fails mid-run (network layer torn down, service
/// crashed, recovered, re-served on a fresh port), and the combined
/// history must still pass the TM-agnostic checker. The wire adds
/// exactly one verdict class the in-process suites never see — a
/// connection that dies with a request in flight — and the durable
/// contract resolves it post-recovery: the batch is either *whole* in
/// the recovered state (then it joins the history as a commit, under
/// its original begin point) or wholly absent (then the client
/// re-issues it). Private per-client key pairs make that resolution
/// probe sharp: only the ghost batch could have written its values.
#[test]
fn network_spanning_histories_stay_durably_linearizable() {
    use kvserve::{MapOp, NetClient, NetConfig, NetError, ServeError, Service, ServiceConfig};
    use std::collections::HashMap;
    use std::net::SocketAddr;
    use std::sync::{Barrier, Mutex};
    use tm::check::{check_history, HistoryRecorder};

    const CLIENTS: usize = 3;
    const ROUNDS: u64 = 200;

    /// One wire round-trip, retrying every definite nothing-executed
    /// verdict (`batch` already absorbs `Busy`). `None` means the
    /// connection died with the request in flight — the indefinite case.
    fn run_round(client: &mut NetClient, c: usize, ops: &[MapOp]) -> Option<Vec<Option<u64>>> {
        loop {
            match client.batch(ops) {
                Ok(vals) => return Some(vals),
                Err(NetError::Serve(
                    ServeError::Aborted | ServeError::Timeout | ServeError::Stopped,
                )) => std::thread::sleep(std::time::Duration::from_micros(100)),
                Err(NetError::Serve(e)) => panic!("client {c}: unexpected verdict: {e}"),
                Err(_) => return None,
            }
        }
    }

    let mut cfg = ServiceConfig::new(2);
    cfg.heap_words_per_shard = 1 << 15;
    cfg.buckets_per_shard = 64;
    cfg.coordinators = CLIENTS;
    let svc = Service::new(cfg);

    // Disjoint cross-shard key pair per client.
    let mut pairs = Vec::new();
    let mut k = 1u64;
    for _ in 0..CLIENTS {
        let k1 = k;
        k += 1;
        while svc.shard_of(k) == svc.shard_of(k1) {
            k += 1;
        }
        let k2 = k;
        k += 1;
        pairs.push((k1, k2));
    }

    let server = svc.serve_net(NetConfig::default()).unwrap();
    let addr0 = server.local_addr();
    let rec = HistoryRecorder::new();
    let links: Mutex<Vec<(u64, u64, u64)>> = Mutex::new(Vec::new());
    // Barrier 1: every client has hit the dead network (or finished);
    // barrier 2: the recovered server's address is published.
    let b1 = Barrier::new(CLIENTS + 1);
    let b2 = Barrier::new(CLIENTS + 1);
    let addr1: Mutex<Option<SocketAddr>> = Mutex::new(None);
    let ambiguous_seen = std::sync::atomic::AtomicUsize::new(0);

    let (svc, _server2) = std::thread::scope(|s| {
        for (c, &(k1, k2)) in pairs.iter().enumerate() {
            let (rec, links, b1, b2, addr1) = (&rec, &links, &b1, &b2, &addr1);
            let ambiguous_seen = &ambiguous_seen;
            s.spawn(move || {
                let vals_of = |r: u64| {
                    (
                        ((c as u64 + 1) << 40) | (r * 2 + 1),
                        ((c as u64 + 1) << 40) | (r * 2 + 2),
                    )
                };
                // Last acked write pair — with private keys, also the
                // exact observation any later batch must return.
                let mut last: Option<(u64, u64)> = None;
                let mut round = 0u64;
                let mut ambiguous: Option<(u64, u64)> = None; // (begin, round)

                let mut client = NetClient::connect(addr0).unwrap();
                while round < ROUNDS {
                    let (v1, v2) = vals_of(round);
                    let ops = [MapOp::Insert(k1, v1), MapOp::Insert(k2, v2)];
                    let begin = rec.begin();
                    match run_round(&mut client, c, &ops) {
                        Some(vals) => {
                            let (p1, p2) = (last.map_or(0, |l| l.0), last.map_or(0, |l| l.1));
                            assert_eq!(
                                (vals[0].unwrap_or(0), vals[1].unwrap_or(0)),
                                (p1, p2),
                                "client {c}: acked batch observed values it cannot have"
                            );
                            rec.commit(
                                c,
                                begin,
                                vec![(Addr(k1 + 1), p1), (Addr(k2 + 1), p2)],
                                vec![(Addr(k1 + 1), v1), (Addr(k2 + 1), v2)],
                            );
                            links.lock().unwrap().extend([(k1, p1, v1), (k2, p2, v2)]);
                            last = Some((v1, v2));
                            round += 1;
                        }
                        None => {
                            ambiguous = Some((begin, round));
                            ambiguous_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            break;
                        }
                    }
                }

                b1.wait();
                b2.wait();
                let addr = addr1.lock().unwrap().expect("recovered address published");
                let mut client = NetClient::connect(addr).unwrap();

                if let Some((begin, r)) = ambiguous {
                    let (v1, v2) = vals_of(r);
                    let probe = run_round(&mut client, c, &[MapOp::Get(k1), MapOp::Get(k2)])
                        .unwrap_or_else(|| panic!("client {c}: probe died after recovery"));
                    let (p1, p2) = (last.map(|l| l.0), last.map(|l| l.1));
                    if probe[0] == Some(v1) {
                        // The ghost executed: it must be whole, and it
                        // joins the history at its original begin point.
                        assert_eq!(
                            probe[1],
                            Some(v2),
                            "client {c}: cross-shard batch torn by the crash"
                        );
                        let (q1, q2) = (p1.unwrap_or(0), p2.unwrap_or(0));
                        rec.commit(
                            c,
                            begin,
                            vec![(Addr(k1 + 1), q1), (Addr(k2 + 1), q2)],
                            vec![(Addr(k1 + 1), v1), (Addr(k2 + 1), v2)],
                        );
                        links.lock().unwrap().extend([(k1, q1, v1), (k2, q2, v2)]);
                        last = Some((v1, v2));
                        round = r + 1;
                    } else {
                        // Wholly absent: the recovered pair is exactly
                        // the last acked pair, and the round re-issues.
                        assert_eq!(
                            (probe[0], probe[1]),
                            (p1, p2),
                            "client {c}: recovered keys match neither pre- nor post-batch"
                        );
                        round = r;
                    }
                }

                while round < ROUNDS {
                    let (v1, v2) = vals_of(round);
                    let ops = [MapOp::Insert(k1, v1), MapOp::Insert(k2, v2)];
                    let begin = rec.begin();
                    let vals = run_round(&mut client, c, &ops)
                        .unwrap_or_else(|| panic!("client {c}: connection died after recovery"));
                    let (p1, p2) = (last.map_or(0, |l| l.0), last.map_or(0, |l| l.1));
                    assert_eq!(
                        (vals[0].unwrap_or(0), vals[1].unwrap_or(0)),
                        (p1, p2),
                        "client {c}: acked batch observed values it cannot have"
                    );
                    rec.commit(
                        c,
                        begin,
                        vec![(Addr(k1 + 1), p1), (Addr(k2 + 1), p2)],
                        vec![(Addr(k1 + 1), v1), (Addr(k2 + 1), v2)],
                    );
                    links.lock().unwrap().extend([(k1, p1, v1), (k2, p2, v2)]);
                    last = Some((v1, v2));
                    round += 1;
                }
            });
        }

        // Mid-history: tear down the network under live traffic, then
        // power-fail and recover the service behind it.
        std::thread::sleep(std::time::Duration::from_millis(4));
        server.crash_net();
        b1.wait();
        server.stop();
        let probe = svc.ring();
        svc.poison();
        let dump = svc.crash();
        assert_eq!(
            probe.in_flight(),
            0,
            "unresolved ring slots after the crash"
        );
        let svc = Service::recover(dump);
        let server2 = svc.serve_net(NetConfig::default()).unwrap();
        *addr1.lock().unwrap() = Some(server2.local_addr());
        b2.wait();
        (svc, server2)
    });

    // 200 rounds of 2PC round-trips far outlast the 4 ms fuse, so every
    // run actually exercises the indefinite-verdict resolution.
    assert!(
        ambiguous_seen.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "the crash landed outside the history; no in-flight request was cut"
    );

    // Final snapshot read joins the history; then the same two checks
    // the in-process suites use.
    let begin = rec.begin();
    let mut final_val: HashMap<u64, u64> = HashMap::new();
    let mut final_reads = Vec::new();
    for &(k1, k2) in &pairs {
        for k in [k1, k2] {
            let v = svc.get(k).unwrap().unwrap_or(0);
            final_reads.push((Addr(k + 1), v));
            final_val.insert(k, v);
        }
    }
    rec.commit(0, begin, final_reads, Vec::new());

    assert_eq!(check_history(&rec.history(), &HashMap::new()), Ok(()));

    let links = links.into_inner().unwrap();
    for (&k, &recovered) in &final_val {
        let mut next: HashMap<u64, u64> = HashMap::new();
        let mut count = 0usize;
        for &(lk, prev, written) in &links {
            if lk == k {
                assert!(
                    next.insert(prev, written).is_none(),
                    "key {k}: two acked batches observed previous value {prev} (lost update)"
                );
                count += 1;
            }
        }
        let mut cur = 0u64;
        let mut used = 0usize;
        while let Some(&w) = next.get(&cur) {
            cur = w;
            used += 1;
        }
        assert_eq!(used, count, "key {k}: acked update chain is broken");
        assert_eq!(
            cur, recovered,
            "key {k}: recovered value is not the head of the acked chain"
        );
    }
}

fn service_history_round(failover: bool) {
    use kvserve::{MapOp, ServeError, Service, ServiceConfig};
    use std::collections::HashMap;
    use std::sync::Mutex;
    use tm::check::{check_history, HistoryRecorder};

    const CLIENTS: usize = 3;
    const ROUNDS: u64 = 50;
    const KEYS: u64 = 12;

    let mut cfg = ServiceConfig::new(3);
    // Replication keeps an op log in each shard heap (trimmed behind the
    // durable watermarks, but with a live tail).
    cfg.heap_words_per_shard = if failover { 1 << 15 } else { 1 << 14 };
    cfg.buckets_per_shard = 64;
    cfg.coordinators = CLIENTS;
    cfg.replication = failover;
    let svc = Service::new(cfg);

    let rec = HistoryRecorder::new();
    // Acked read-modify-write links: (key, observed previous, written).
    let links: Mutex<Vec<(u64, u64, u64)>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (svc, rec, links) = (&svc, &rec, &links);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let k1 = (c as u64 * 17 + round) % KEYS;
                    let k2 = (0..KEYS)
                        .map(|d| (k1 + 1 + d) % KEYS)
                        .find(|&k| svc.shard_of(k) != svc.shard_of(k1))
                        .expect("key space covers several shards");
                    let v1 = ((c as u64 + 1) << 40) | (round * 2 + 1);
                    let v2 = ((c as u64 + 1) << 40) | (round * 2 + 2);
                    let ops = vec![MapOp::Insert(k1, v1), MapOp::Insert(k2, v2)];
                    let begin = rec.begin();
                    let vals = loop {
                        match svc.batch(ops.clone()) {
                            Ok(v) => break v,
                            Err(ServeError::Overloaded { retry_after }) => {
                                std::thread::sleep(retry_after)
                            }
                            Err(ServeError::Aborted) => {
                                std::thread::sleep(std::time::Duration::from_micros(100))
                            }
                            Err(e) => panic!("client {c}: {e}"),
                        }
                    };
                    let (p1, p2) = (vals[0].unwrap_or(0), vals[1].unwrap_or(0));
                    rec.commit(
                        c,
                        begin,
                        vec![(Addr(k1 + 1), p1), (Addr(k2 + 1), p2)],
                        vec![(Addr(k1 + 1), v1), (Addr(k2 + 1), v2)],
                    );
                    links.lock().unwrap().extend([(k1, p1, v1), (k2, p2, v2)]);
                }
            });
        }
    });

    // Quiescent crash: every submitted batch is acked and recorded.
    let svc = if failover {
        Service::promote(svc.fail_over(), None)
            .expect("no probe installed")
            .0
    } else {
        Service::recover(svc.crash())
    };

    // One post-recovery snapshot read joins the history as a final
    // read-only transaction.
    let begin = rec.begin();
    let mut final_val: HashMap<u64, u64> = HashMap::new();
    let mut final_reads = Vec::new();
    for k in 0..KEYS {
        let v = svc.get(k).unwrap().unwrap_or(0);
        final_reads.push((Addr(k + 1), v));
        final_val.insert(k, v);
    }
    rec.commit(0, begin, final_reads, Vec::new());

    assert_eq!(check_history(&rec.history(), &HashMap::new()), Ok(()));

    // Sharp per-key check: acked links chain 0 → … → recovered value.
    let links = links.into_inner().unwrap();
    for k in 0..KEYS {
        let mut next: HashMap<u64, u64> = HashMap::new();
        let mut count = 0usize;
        for &(lk, prev, written) in &links {
            if lk == k {
                assert!(
                    next.insert(prev, written).is_none(),
                    "key {k}: two acked batches observed previous value {prev} (lost update)"
                );
                count += 1;
            }
        }
        let mut cur = 0u64;
        let mut used = 0usize;
        while let Some(&w) = next.get(&cur) {
            cur = w;
            used += 1;
        }
        assert_eq!(used, count, "key {k}: acked update chain is broken");
        assert_eq!(
            cur, final_val[&k],
            "key {k}: recovered value is not the head of the acked chain"
        );
    }
}
