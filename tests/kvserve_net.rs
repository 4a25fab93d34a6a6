//! Wire-protocol front-end tests: framed request/response traffic over
//! real loopback sockets, visible backpressure, and the ack contract
//! under deterministic network fault injection.
//!
//! Five harnesses:
//! - scripted protocol tests: wire batches agree with the blocking API
//!   (single-shard and 2PC alike), pipelined requests complete in
//!   submission order on a FIFO shard, and the per-connection in-flight
//!   cap surfaces as explicit `Busy` frames instead of buffering;
//! - the deterministic [`Point::NET`] crash sweep: tear the whole network
//!   layer down at every wire step (frame read, pre-submit,
//!   post-complete, pre-write, mid-write partial flush) with requests
//!   pipelined, and hold the recovered store to the contract — every
//!   response acked on the wire is durable, everything else is
//!   whole-batch present or absent, never torn;
//! - the deterministic disconnect sweep plus seeded fuzz
//!   (`KVSERVE_NET_SEED`): kill the *client* at every step and prove
//!   the server reaps the connection — ring slots drained back to
//!   `in_flight() == 0`, nothing written to the dead socket, and the
//!   listener still serving fresh connections;
//! - the crash sweep with the persist-order sanitizer recording
//!   (piggybacking the lock-discipline check when built with
//!   `--features locksan`), asserting the socket layer adds no
//!   persist-order or lock-order violations;
//! - one recording probe on a replicated service served over the wire,
//!   which must see the net, 2PC, replication and migration points of
//!   each request in protocol order, before and after a live split.

mod common;

use common::{assert_psan_clean, fire_at_nth, model_apply, step_rotation, Lcg};
use kvserve::{
    MapOp, MigrateSpec, NetClient, NetConfig, NetError, NetServer, Point, ServeError, Service,
    ServiceConfig,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn cfg(shards: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(shards);
    cfg.heap_words_per_shard = 1 << 15;
    cfg.buckets_per_shard = 64;
    cfg.log_heap_words = 1 << 15;
    cfg
}

/// Two keys on different shards under the service's current table.
fn cross_pair(svc: &Service) -> (u64, u64) {
    common::cross_shard_keys(svc)
}

#[test]
fn wire_batches_agree_with_the_blocking_api() {
    let svc = Service::new(cfg(2));
    let server = svc.serve_net(NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let (xa, xb) = cross_pair(&svc);

    let mut model: HashMap<u64, u64> = HashMap::new();
    let batches: Vec<Vec<MapOp>> = vec![
        vec![MapOp::Insert(100, 10)],
        vec![MapOp::Get(100), MapOp::Insert(100, 11), MapOp::Get(100)],
        vec![MapOp::Insert(xa, 7), MapOp::Insert(xb, 8)], // 2PC over the wire
        vec![MapOp::Remove(100), MapOp::Get(100)],
        vec![MapOp::Get(xa), MapOp::Get(xb)],
    ];
    for ops in &batches {
        let expected: Vec<Option<u64>> =
            ops.iter().map(|&op| model_apply(&mut model, op)).collect();
        assert_eq!(client.batch(ops).unwrap(), expected);
    }
    // The wire state and the in-process state are the same state.
    assert_eq!(svc.get(xa), Ok(model.get(&xa).copied()));
    assert_eq!(svc.get(xb), Ok(model.get(&xb).copied()));
    // The client can observe a response before the writer thread bumps
    // the counter, so the metric asserts get a bounded settle.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = server.metrics();
        assert_eq!(m.accepted, 1);
        assert_eq!(m.protocol_errors, 0);
        if m.frames_in >= batches.len() as u64 && m.frames_out >= batches.len() as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "frame counters never settled");
        std::thread::sleep(Duration::from_micros(200));
    }
    server.stop();
}

#[test]
fn pipelined_wire_requests_complete_in_submission_order() {
    // One shard, one worker, one connection: the shard queue is FIFO
    // and the response stream preserves completion order, so responses
    // must arrive in submission order with model-exact values.
    let mut c = cfg(1);
    c.workers_per_shard = 1;
    let svc = Service::new(c);
    let server = svc.serve_net(NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut sent: Vec<(u64, Option<u64>)> = Vec::new();
    for i in 0..200u64 {
        let op = match i % 3 {
            0 => MapOp::Insert(i % 16, i),
            1 => MapOp::Get((i + 1) % 16),
            _ => MapOp::Remove((i + 2) % 16),
        };
        let corr = client.send_batch(&[op]).unwrap();
        sent.push((corr, model_apply(&mut model, op)));
    }
    for (corr, expect) in sent {
        let resp = client.recv().unwrap();
        assert_eq!(resp.corr, corr, "responses out of submission order");
        assert_eq!(resp.reply, Ok(vec![expect]));
    }
    assert_eq!(client.in_flight(), 0);
    server.stop();
}

#[test]
fn per_connection_cap_surfaces_as_busy_frames() {
    // Cap 1: while one request is in flight, further frames answer
    // `Busy` instead of queueing server-side. The client floods 400
    // single-op requests without reading; the reader (pulling frames
    // from an already-full socket buffer) laps both the durable-txn
    // worker and the reaper's idle backoff, so Busy responses are
    // structurally unavoidable — and every one is a definite no-op
    // verdict, so retrying just those converges on the full model.
    let mut c = cfg(1);
    c.workers_per_shard = 1;
    let svc = Service::new(c);
    let server = svc.serve_net(NetConfig { max_in_flight: 1 }).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    const N: u64 = 400;
    let mut corr_key: HashMap<u64, u64> = HashMap::new();
    for k in 0..N {
        let corr = client.send_batch(&[MapOp::Insert(k, k + 1)]).unwrap();
        corr_key.insert(corr, k);
    }
    let mut busy: Vec<u64> = Vec::new();
    for _ in 0..N {
        let resp = client.recv().unwrap();
        let k = corr_key[&resp.corr];
        match resp.reply {
            Ok(vals) => assert_eq!(vals, vec![None], "key {k}"),
            Err(ServeError::Overloaded { .. }) => busy.push(k),
            Err(e) => panic!("key {k}: unexpected verdict {e}"),
        }
    }
    assert!(
        !busy.is_empty(),
        "a cap-1 connection flooded with 400 requests must shed some"
    );
    assert!(server.metrics().busy >= busy.len() as u64);
    // Busy is definite: nothing executed, a retry is exact.
    for &k in &busy {
        assert_eq!(
            client.batch(&[MapOp::Insert(k, k + 1)]).unwrap(),
            vec![None]
        );
    }
    for k in 0..N {
        assert_eq!(svc.get(k), Ok(Some(k + 1)), "key {k} lost");
    }
    server.stop();
}

#[test]
fn malformed_frames_close_the_connection_without_panic() {
    let svc = Service::new(cfg(1));
    let server = svc.serve_net(NetConfig::default()).unwrap();
    // Raw socket: send garbage that parses as a hostile header.
    use std::io::Write;
    let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(&[0xff; 64]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().protocol_errors == 0 {
        assert!(Instant::now() < deadline, "protocol error never surfaced");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The listener survives hostile bytes: a well-formed client works.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.batch(&[MapOp::Insert(3, 4)]).unwrap(), vec![None]);
    assert_eq!(svc.get(3), Ok(Some(4)));
    server.stop();
}

/// The crash sweep's request load: `depth` single-shard puts to fresh
/// keys plus one cross-shard batch, all pipelined on one connection.
#[derive(Default)]
struct CycleLoad {
    /// corr → the batch it carried, for every frame that was sent.
    sent: HashMap<u64, Vec<MapOp>>,
    /// The cross-shard batch's corr, if it was sent.
    xcorr: Option<u64>,
    /// Why sending stopped early. A crash (or a killed client) can shut
    /// the socket while frames are still going out; the frames not sent
    /// count as never sent, which the ledger treats like any unacked
    /// frame.
    send_error: Option<NetError>,
}

impl CycleLoad {
    /// Send one frame and record it, or record why it could not go.
    fn send(&mut self, client: &mut NetClient, ops: Vec<MapOp>) -> Option<u64> {
        match client.send_batch(&ops) {
            Ok(corr) => {
                self.sent.insert(corr, ops);
                Some(corr)
            }
            Err(e) => {
                self.send_error = Some(e);
                None
            }
        }
    }
}

fn send_cycle_load(
    client: &mut NetClient,
    base: u64,
    depth: u64,
    (xa, xb): (u64, u64),
    rng: &mut Lcg,
) -> CycleLoad {
    let mut load = CycleLoad::default();
    for i in 0..depth {
        let ops = vec![MapOp::Insert(base + i, base + i + rng.next() % 7)];
        if load.send(client, ops).is_none() {
            return load;
        }
    }
    let xops = vec![MapOp::Insert(xa, base), MapOp::Insert(xb, base)];
    load.xcorr = load.send(client, xops);
    load
}

/// A crash sweep accepts a failed send only from a crashed server.
fn assert_sent_or_crashed(load: &CycleLoad, server: &NetServer, cycle: u64) {
    if let Some(e) = &load.send_error {
        assert!(
            server.crashed(),
            "cycle {cycle}: submit failed before the crash: {e}"
        );
    }
}

/// Drain responses until the connection dies (or everything answered),
/// applying acked batches to the ledger. Returns whether the
/// cross-shard batch was acked.
fn collect_acks(
    client: &mut NetClient,
    load: &CycleLoad,
    expected: &mut HashMap<u64, u64>,
    cycle: u64,
) -> bool {
    let mut acked_x = false;
    let mut outstanding = load.sent.len();
    while outstanding > 0 {
        match client.recv() {
            Ok(resp) => {
                outstanding -= 1;
                let ops = load
                    .sent
                    .get(&resp.corr)
                    .unwrap_or_else(|| panic!("cycle {cycle}: unknown corr {}", resp.corr));
                match resp.reply {
                    Ok(_) => {
                        for &op in ops {
                            model_apply(expected, op);
                        }
                        if Some(resp.corr) == load.xcorr {
                            acked_x = true;
                        }
                    }
                    // Definite no-op verdicts; Busy cannot appear (the
                    // load stays under both caps).
                    Err(ServeError::Timeout)
                    | Err(ServeError::Aborted)
                    | Err(ServeError::Stopped)
                    | Err(ServeError::Rerouted) => {}
                    Err(e) => panic!("cycle {cycle}: indefinite wire verdict {e}"),
                }
            }
            // The crash: no verdict for whatever is still in flight.
            Err(NetError::Disconnected) | Err(NetError::Io(_)) => break,
            Err(e) => panic!("cycle {cycle}: {e}"),
        }
    }
    acked_x
}

/// Post-recovery: resolve every key the cycle touched against the
/// ledger — acked values must be durable, unacked single-shard writes
/// land whole or not at all, the unacked cross-shard batch lands on
/// both keys or neither.
fn settle_cycle(
    svc: &Service,
    expected: &mut HashMap<u64, u64>,
    base: u64,
    depth: u64,
    (xa, xb): (u64, u64),
    acked_x: bool,
    cycle: u64,
) {
    for (&k, &v) in expected.iter() {
        if k == xa || k == xb {
            continue;
        }
        assert_eq!(svc.get(k), Ok(Some(v)), "cycle {cycle}: lost acked write");
    }
    let got = (svc.get(xa).unwrap(), svc.get(xb).unwrap());
    if acked_x || got == (Some(base), Some(base)) {
        assert_eq!(
            got,
            (Some(base), Some(base)),
            "cycle {cycle}: torn cross-shard batch"
        );
        expected.insert(xa, base);
        expected.insert(xb, base);
    } else {
        assert_eq!(
            got,
            (expected.get(&xa).copied(), expected.get(&xb).copied()),
            "cycle {cycle}: torn cross-shard batch"
        );
    }
    for i in 0..depth {
        if let Some(v) = svc.get(base + i).unwrap() {
            expected.insert(base + i, v);
        }
    }
}

#[test]
fn crash_at_every_net_step_keeps_the_ack_contract() {
    let mut rng = Lcg::from_env("KVSERVE_NET_SEED", 0x9e7_5eed);
    let mut svc = Service::new(cfg(3));
    let pair = cross_pair(&svc);
    let mut expected: HashMap<u64, u64> = HashMap::new();

    // Three cycles per step; the crash lands at the 1st, 2nd, then 3rd
    // occurrence of the step, so the pipeline is in a different state
    // each time the same step fires.
    for (cycle, step) in step_rotation(&Point::NET, 15) {
        let server = svc.serve_net(NetConfig::default()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let nth = (cycle as usize / Point::NET.len()) + 1;
        svc.set_probe(Some(fire_at_nth(step, nth)));

        let base = (cycle + 1) * 1000;
        let depth = 4 + rng.next() % 5;
        let load = send_cycle_load(&mut client, base, depth, pair, &mut rng);
        assert_sent_or_crashed(&load, &server, cycle);
        let acked_x = collect_acks(&mut client, &load, &mut expected, cycle);
        let crash_deadline = Instant::now() + Duration::from_secs(10);
        while !server.crashed() {
            assert!(
                Instant::now() < crash_deadline,
                "cycle {cycle}: probe at {step:?} (occurrence {nth}) never fired"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        server.stop();

        // Power-fail the service with whatever the wire left in flight.
        let ring = svc.ring();
        svc.poison();
        let dump = svc.crash();
        assert_eq!(
            ring.in_flight(),
            0,
            "cycle {cycle}: unresolved ring slots after the crash"
        );
        svc = Service::recover(dump);
        settle_cycle(&svc, &mut expected, base, depth, pair, acked_x, cycle);
    }
}

#[test]
fn disconnect_at_every_net_step_reaps_the_connection() {
    let mut rng = Lcg::from_env("KVSERVE_NET_SEED", 0xd15c_5eed);
    let svc = Service::new(cfg(3));
    let pair = cross_pair(&svc);
    let server = svc.serve_net(NetConfig::default()).unwrap();
    let ring = svc.ring();
    let mut expected: HashMap<u64, u64> = HashMap::new();

    for (cycle, step) in step_rotation(&Point::NET, 10) {
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let kill = client.kill_handle().unwrap();
        // The client dies at the step; the probe never crashes the server.
        svc.set_probe(Some(Arc::new(move |s| {
            if s == step {
                kill.kill();
            }
            false
        })));

        let base = (cycle + 1) * 10_000;
        let depth = 3 + rng.next() % 4;
        // The kill can land mid-send; both sides of that race are valid.
        let load = send_cycle_load(&mut client, base, depth, pair, &mut rng);
        let _ = collect_acks(&mut client, &load, &mut expected, cycle);
        drop(client);

        // The server must reap: connection gone, every ring slot freed.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.live_connections() > 0 || ring.in_flight() > 0 {
            assert!(
                Instant::now() < deadline,
                "cycle {cycle} ({step:?}): connection not reaped \
                 (live={}, in_flight={})",
                server.live_connections(),
                ring.in_flight()
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        svc.set_probe(None);

        // The layer is still serving: a fresh connection works, and the
        // store never tore a batch the dead client submitted.
        let mut fresh = NetClient::connect(server.local_addr()).unwrap();
        for i in 0..depth {
            if let Ok(vals) = fresh.batch(&[MapOp::Get(base + i)]) {
                if let Some(v) = vals[0] {
                    expected.insert(base + i, v);
                }
            }
        }
        let got = fresh
            .batch(&[MapOp::Get(pair.0), MapOp::Get(pair.1)])
            .unwrap();
        // The cross-shard batch wrote `base` to both keys or neither.
        let both = got == vec![Some(base), Some(base)];
        let neither = got[0] != Some(base) && got[1] != Some(base);
        assert!(
            both || neither,
            "cycle {cycle}: disconnected client's cross-shard batch tore: {got:?}"
        );
        if both {
            expected.insert(pair.0, base);
            expected.insert(pair.1, base);
        }
    }
    // The fresh clients disconnect cleanly too; the server ends idle.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_connections() > 0 {
        assert!(Instant::now() < deadline, "final reap stuck");
        std::thread::sleep(Duration::from_micros(200));
    }
    let m = server.metrics();
    assert_eq!(m.protocol_errors, 0, "disconnects are not protocol errors");
    server.stop();
}

#[test]
fn seeded_fuzz_mixes_disconnects_and_crashes() {
    // Randomized composition of the two sweeps: random load, random
    // step, random victim (client or whole layer), fixed seed unless
    // KVSERVE_NET_SEED overrides.
    let mut rng = Lcg::from_env("KVSERVE_NET_SEED", 0xf022_5eed);
    let mut svc = Service::new(cfg(2));
    let pair = cross_pair(&svc);
    let mut expected: HashMap<u64, u64> = HashMap::new();

    for cycle in 0..12u64 {
        let server = svc.serve_net(NetConfig::default()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let step = Point::NET[(rng.next() % 5) as usize];
        let nth = 1 + (rng.next() % 3) as usize;
        let kill_client = rng.next().is_multiple_of(2);
        if kill_client {
            let kill = client.kill_handle().unwrap();
            let seen = std::sync::atomic::AtomicUsize::new(0);
            svc.set_probe(Some(Arc::new(move |s| {
                if s == step && seen.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1 >= nth {
                    kill.kill();
                }
                false
            })));
        } else {
            svc.set_probe(Some(fire_at_nth(step, nth)));
        }

        let base = (cycle + 1) * 100_000;
        let depth = 1 + rng.next() % 8;
        let load = send_cycle_load(&mut client, base, depth, pair, &mut rng);
        if !kill_client {
            assert_sent_or_crashed(&load, &server, cycle);
        }
        let acked_x = collect_acks(&mut client, &load, &mut expected, cycle);
        drop(client);

        if kill_client {
            // Server survives; wait for the reap, then keep using it.
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.live_connections() > 0 {
                assert!(Instant::now() < deadline, "cycle {cycle}: reap stuck");
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        server.stop();

        let ring = svc.ring();
        svc.poison();
        let dump = svc.crash();
        assert_eq!(ring.in_flight(), 0, "cycle {cycle}");
        svc = Service::recover(dump);
        settle_cycle(&svc, &mut expected, base, depth, pair, acked_x, cycle);
    }
}

#[test]
fn net_crash_traffic_is_psan_clean() {
    let mut c = cfg(2);
    c.nvhalt.pm.psan = pmem::PsanMode::Record;
    let mut svc = Service::new(c);
    let pair = cross_pair(&svc);
    let mut rng = Lcg::from_env("KVSERVE_NET_SEED", 0x5a4_5eed);
    let mut expected: HashMap<u64, u64> = HashMap::new();

    for (cycle, step) in step_rotation(&Point::NET, 5) {
        let server = svc.serve_net(NetConfig::default()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        svc.set_probe(Some(common::fire_at(step)));
        let base = (cycle + 1) * 1000;
        let load = send_cycle_load(&mut client, base, 4, pair, &mut rng);
        assert_sent_or_crashed(&load, &server, cycle);
        let acked_x = collect_acks(&mut client, &load, &mut expected, cycle);
        server.stop();
        svc.poison();
        let dump = svc.crash();
        svc = Service::recover(dump);
        settle_cycle(&svc, &mut expected, base, 4, pair, acked_x, cycle);
        assert_psan_clean(&svc, "net crash sweep");
    }

    // Clean shutdown traffic over the wire stays clean too.
    let server = svc.serve_net(NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for i in 0..16u64 {
        client.batch(&[MapOp::Insert(i, i * 3)]).unwrap();
    }
    client
        .batch(&[MapOp::Insert(pair.0, 1), MapOp::Insert(pair.1, 2)])
        .unwrap();
    server.stop();
    assert_psan_clean(&svc, "net steady-state traffic");
}

#[test]
fn one_probe_sees_every_layer_across_a_migration() {
    use Point::*;
    let mut c = cfg(2);
    c.replication = true;
    let svc = Service::new(c);
    let seen: Arc<Mutex<Vec<Point>>> = Arc::default();
    let log = seen.clone();
    svc.set_probe(Some(Arc::new(move |p| {
        log.lock().unwrap().push(p);
        false
    })));
    let server = svc.serve_net(NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let (xa, xb) = cross_pair(&svc);

    // The points recorded since the last call, minus the shipper's: it
    // runs on its own threads, interleaved with every request.
    let take = || -> Vec<Point> {
        std::mem::take(&mut *seen.lock().unwrap())
            .into_iter()
            .filter(|p| !matches!(p, BeforeReceive | Received | MidApply | Applied))
            .collect()
    };
    let cross = [
        AfterReadFrame,
        BeforeSubmit,
        BeforePrepare,
        BetweenPrepares,
        Prepared,
        DecisionLogged,
        MidCommit,
        Committed,
        AfterComplete,
        BeforeWriteResponse,
        MidWrite,
    ];
    let single = [
        AfterReadFrame,
        BeforeSubmit,
        BeforeAppend,
        AfterAppend,
        AfterComplete,
        BeforeWriteResponse,
        MidWrite,
    ];
    // Both requests' points, over the one connection the whole test uses.
    let mut requests = |round: u64| {
        client
            .batch(&[MapOp::Insert(xa, round), MapOp::Insert(xb, round)])
            .unwrap();
        assert_eq!(take(), cross, "round {round}: cross-shard batch");
        client.batch(&[MapOp::Insert(7, round)]).unwrap();
        assert_eq!(take(), single, "round {round}: single-shard put");
    };

    requests(1);
    let spec = MigrateSpec::split(&svc.routing(), 0);
    let (svc, _) = svc.migrate(spec).expect("the recording probe never fires");
    assert_eq!(take(), Point::MIGRATE, "migration");
    // The migrated deployment keeps the probe in every layer, the
    // replication worker included.
    requests(2);

    drop(client);
    server.stop();
    assert_eq!(svc.get(7), Ok(Some(2)));
    assert_psan_clean(&svc, "one probe across every layer");
}
