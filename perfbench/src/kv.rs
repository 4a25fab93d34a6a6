//! The two service workloads, `kv-update` (single-key requests over one
//! `kvserve::net` connection) and `kv-xshard` (two-shard atomic
//! multi-puts submitted in process through a `Ring`).
//!
//! A pass runs a fixed-rate open-loop phase, which gives latency,
//! goodput, CPU and persist counts per request, then a capacity phase
//! with a fixed window of requests always in flight. One generator
//! thread drives both phases; it never busy-waits.

use crate::gen::{self, Arrival, KeyGen, Mix, OpGen};
use crate::ledger::Ledger;
use crate::metrics::{Counts, EndToEnd, Layers, Outcome};
use crate::report::{joined, median, pct, per, sorted, steady, window_ns, Pct};
use crate::sys;
use crate::trace::{now_ns, span_id, Span, Tracer};
use kvserve::{
    MapOp, NetClient, NetConfig, NetServer, NetSnapshot, Reply, Ring, ServeError, Service,
    ServiceConfig, ServiceSnapshot, Ticket,
};
use pmem::LatencyModel;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;
use tm::stats::Counter;

/// Key space of both service workloads.
const KEYS: u64 = 1 << 16;
const SHARDS: usize = 2;
const BATCH_MAX: usize = 8;
/// Requests kept in flight by the capacity phase: enough to keep both
/// shard workers batching, far below the ring and queue limits.
const WINDOW: usize = 64;
/// The latency objective goodput counts against.
const SLO_NS: u64 = 1_000_000;
/// While requests are in flight the generator wakes this often to reap
/// completions, so a completion is observed at most this much after it
/// arrives. Shorter ticks cost the generator CPU the service then lacks.
const REAP_TICK_NS: u64 = 50_000;
/// An arrival sent more than the objective after it was due is late.
const LATE_NS: u64 = SLO_NS;
/// A run whose share of late arrivals exceeds this is invalid: the
/// generator, not the service, then set the offered load. The report
/// says so; `correct` stays reserved for the outputs.
const LATE_SHARE_MAX: f64 = 0.05;
/// How long a phase may wait for its last answers.
const DRAIN_LIMIT_NS: u64 = 3_000_000_000;
/// Share of a pass spent at the fixed rate; the rest measures capacity.
const FIXED_SHARE: f64 = 0.6;
/// Measurement windows of the fixed-rate and the capacity phase; the
/// end-to-end figures are taken over them (see `report::steady`).
const FIXED_WINDOW_NS: u64 = 500_000_000;
const CAPACITY_WINDOW_NS: u64 = 500_000_000;
/// Prefill requests: inserts per request and requests in flight.
const PREFILL_OPS: usize = 16;
const PREFILL_WINDOW: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Thread-name prefixes of the CPU groups, in `Layers` order.
const GROUPS: [&str; 4] = ["gen-", "kvserve-net-", "kvserve-s", "kvserve-2pc-"];

/// One service workload.
pub struct Spec {
    pub mix: Mix,
    pub zipf: f64,
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    /// Serve over one `kvserve::net` connection instead of a `Ring`.
    pub net: bool,
}

pub const KV_UPDATE: Spec = Spec {
    mix: Mix::Update,
    zipf: 0.99,
    rate: 20_000.0,
    net: true,
};

pub const KV_XSHARD: Spec = Spec {
    mix: Mix::CrossShard,
    zipf: 0.0,
    rate: 5_000.0,
    net: false,
};

fn service_config() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(SHARDS);
    cfg.workers_per_shard = 1;
    cfg.batch_max = BATCH_MAX;
    cfg.queue_depth = 4096;
    cfg.ring_slots = 4096;
    cfg.buckets_per_shard = (KEYS as usize / SHARDS).next_power_of_two();
    cfg.heap_words_per_shard = KEYS as usize * 8 / SHARDS;
    cfg.nvhalt.pm.lat = LatencyModel::optane();
    // A shared host at times stalls a thread for 10 ms. A 2PC driver stalled
    // while holding prepared locks outlasts the other driver's default 8
    // retries (about 11 ms of backoff), so a request would fail for the
    // host's sake. 32 retries cover such stalls; every retry is still
    // counted in the per-layer figures.
    cfg.max_retries = 32;
    cfg
}

/// The generator's connection to the service: one `NetClient` or one
/// `Ring`. Requests are named by their index in the phase.
enum Transport {
    Net {
        client: NetClient,
        pending: HashMap<u64, usize>,
    },
    Ring {
        ring: Ring,
        pending: HashMap<Ticket, usize>,
        order: VecDeque<Ticket>,
    },
}

impl Transport {
    fn span_names(&self) -> (&'static str, &'static str) {
        match self {
            Transport::Net { .. } => ("net.send_batch", "net.try_recv"),
            Transport::Ring { .. } => ("ring.submit_batch", "ring.drain"),
        }
    }

    /// Send request `idx`; `Some` is an immediate refusal.
    fn send(&mut self, idx: usize, ops: Vec<MapOp>) -> Result<Option<Reply>, String> {
        match self {
            Transport::Net { client, pending } => {
                let corr = client.send_batch(&ops).map_err(|e| format!("send: {e}"))?;
                pending.insert(corr, idx);
                Ok(None)
            }
            Transport::Ring {
                ring,
                pending,
                order,
            } => match ring.submit_batch(ops) {
                Ok(t) => {
                    pending.insert(t, idx);
                    order.push_back(t);
                    Ok(None)
                }
                Err(e) => Ok(Some(Err(e))),
            },
        }
    }

    /// Every answer that has arrived, without blocking.
    fn poll(&mut self, out: &mut Vec<(usize, Reply)>) -> Result<(), String> {
        match self {
            Transport::Net { client, pending } => {
                while let Some(r) = client.try_recv().map_err(|e| format!("recv: {e}"))? {
                    let idx = pending.remove(&r.corr).ok_or("unknown correlation id")?;
                    out.push((idx, r.reply));
                }
            }
            Transport::Ring { ring, pending, .. } => {
                for c in ring.drain() {
                    let idx = pending.remove(&c.ticket).ok_or("unknown ticket")?;
                    out.push((idx, c.result));
                }
            }
        }
        Ok(())
    }

    /// Block until some answer arrives.
    fn recv(&mut self) -> Result<(usize, Reply), String> {
        match self {
            Transport::Net { client, pending } => {
                let r = client.recv().map_err(|e| format!("recv: {e}"))?;
                let idx = pending.remove(&r.corr).ok_or("unknown correlation id")?;
                Ok((idx, r.reply))
            }
            Transport::Ring {
                ring,
                pending,
                order,
            } => loop {
                let t = order.pop_front().ok_or("nothing in flight")?;
                // Tickets already reaped by `poll` are skipped.
                if let Some(idx) = pending.remove(&t) {
                    return Ok((idx, ring.wait(t)));
                }
            },
        }
    }
}

/// A request's writes as (key, value) pairs, for the ledger.
fn writes(ops: &[MapOp]) -> Vec<(u64, u64)> {
    ops.iter()
        .filter_map(|op| match *op {
            MapOp::Insert(k, v) => Some((k, v)),
            _ => None,
        })
        .collect()
}

/// One fixed-rate request: when it was due, sent and answered (ns on the
/// run clock; `done_ns == u64::MAX` if never answered).
#[derive(Clone, Copy)]
struct Rec {
    intended_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    ok: bool,
    err: Option<ServeError>,
}

impl Rec {
    fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.intended_ns)
    }
}

/// The open loop: send each arrival when due, reap between arrivals,
/// sleep in between. Latency runs from the intended arrival, so a stalled
/// generator shows as latency and as lag, never as lower load.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    tp: &mut Transport,
    arrivals: Vec<Arrival>,
    win_ns: u64,
    origin: Instant,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    req_base: u64,
) -> Result<Fixed, String> {
    let (send_name, poll_name) = tp.span_names();
    let n = arrivals.len();
    let mut recs = vec![
        Rec {
            intended_ns: 0,
            sent_ns: 0,
            done_ns: u64::MAX,
            ok: false,
            err: None,
        };
        n
    ];
    let mut pending_writes: Vec<Vec<(u64, u64)>> = Vec::with_capacity(n);
    let mut replies = Vec::new();
    let mut cpu_marks = Vec::new();
    let t0 = now_ns(origin) + 1_000_000;
    let last_due = t0 + arrivals.last().map_or(0, |a| a.at_ns);
    let mut in_flight = 0usize;
    for (idx, a) in arrivals.into_iter().enumerate() {
        let due = t0 + a.at_ns;
        while cpu_marks.len() as u64 <= a.at_ns / win_ns {
            cpu_marks.push(service_cpu_s());
        }
        loop {
            // Reap whatever arrived while asleep, then send if the
            // arrival is due or sleep one more tick towards it.
            let p0 = now_ns(origin);
            tp.poll(&mut replies)?;
            let p1 = now_ns(origin);
            for (idx, reply) in replies.drain(..) {
                in_flight -= 1;
                finish(idx, reply, p1, &mut recs, &pending_writes, ledger);
                record_request(tracer, req_base + idx as u64, &recs[idx], poll_name, p0, p1);
            }
            if p1 >= due {
                break;
            }
            let wake = if in_flight == 0 {
                due
            } else {
                due.min(p1 + REAP_TICK_NS)
            };
            gen::sleep_until(origin, wake);
        }
        let s0 = now_ns(origin);
        recs[idx].intended_ns = due;
        recs[idx].sent_ns = s0;
        pending_writes.push(writes(&a.ops));
        let refused = tp.send(idx, a.ops)?;
        let s1 = now_ns(origin);
        tracer.record(Span {
            id: span_id(req_base + idx as u64, 1),
            parent: span_id(req_base + idx as u64, 0),
            name: send_name,
            req: req_base + idx as u64,
            start_ns: s0,
            end_ns: s1,
        });
        match refused {
            Some(reply) => finish(idx, reply, s1, &mut recs, &pending_writes, ledger),
            None => in_flight += 1,
        }
    }
    // Drain: answers to the window's requests, outside the window.
    while in_flight > 0 && now_ns(origin) < last_due + DRAIN_LIMIT_NS {
        let p0 = now_ns(origin);
        tp.poll(&mut replies)?;
        let p1 = now_ns(origin);
        for (idx, reply) in replies.drain(..) {
            in_flight -= 1;
            finish(idx, reply, p1, &mut recs, &pending_writes, ledger);
            record_request(tracer, req_base + idx as u64, &recs[idx], poll_name, p0, p1);
        }
        gen::sleep_until(origin, p1 + REAP_TICK_NS);
    }
    cpu_marks.push(service_cpu_s());
    for (r, w) in recs.iter().zip(&pending_writes) {
        if r.done_ns == u64::MAX {
            for &(k, v) in w {
                ledger.record(k, v, r.sent_ns, None);
            }
        }
    }
    Ok(Fixed {
        recs,
        t0,
        win_ns,
        cpu_marks,
    })
}

/// CPU of every thread but the calling (generator) thread, in seconds.
fn service_cpu_s() -> f64 {
    (sys::process_cpu() - sys::thread_cpu()).as_secs_f64()
}

/// The fixed-rate phase's requests, split into windows of `win_ns` by
/// intended arrival, with the service CPU at each window's start (and a
/// last mark after the drain).
struct Fixed {
    recs: Vec<Rec>,
    t0: u64,
    win_ns: u64,
    cpu_marks: Vec<f64>,
}

impl Fixed {
    fn windows(&self) -> Vec<Vec<&Rec>> {
        let n = self.cpu_marks.len().saturating_sub(1).max(1);
        let mut w = vec![Vec::new(); n];
        for r in &self.recs {
            let i = ((r.intended_ns - self.t0) / self.win_ns) as usize;
            w[i.min(n - 1)].push(r);
        }
        w
    }

    /// Each window's `q`-quantile of acknowledged latency, in µs.
    fn window_latency_us(&self, q: f64) -> Vec<f64> {
        self.windows()
            .iter()
            .map(|w| {
                let lat = w
                    .iter()
                    .filter(|r| r.ok)
                    .map(|r| r.latency_ns() as f64 / 1e3);
                pct(&sorted(lat.collect()), q).value
            })
            .collect()
    }

    /// Each window's service CPU per acknowledged request, in µs.
    fn window_cpu_us(&self) -> Vec<f64> {
        self.windows()
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let cpu = self.cpu_marks[i + 1] - self.cpu_marks[i];
                per(cpu * 1e6, w.iter().filter(|r| r.ok).count() as f64)
            })
            .collect()
    }

    /// `steady` over the windows' latency quantile, counting every sample.
    fn steady_latency_us(&self, q: f64) -> Pct {
        Pct {
            value: steady(&self.window_latency_us(q), false).value,
            n: self.recs.iter().filter(|r| r.ok).count(),
        }
    }
}

/// Settle request `idx` with its answer, observed at `done`.
fn finish(
    idx: usize,
    reply: Reply,
    done: u64,
    recs: &mut [Rec],
    pending_writes: &[Vec<(u64, u64)>],
    ledger: &mut Ledger,
) {
    let r = &mut recs[idx];
    r.done_ns = done;
    r.ok = reply.is_ok();
    r.err = reply.err();
    for &(k, v) in &pending_writes[idx] {
        ledger.record(k, v, r.sent_ns, r.ok.then_some(done));
    }
}

/// The request's root span (intended arrival to observed answer) and the
/// reaping call that delivered it.
fn record_request(tracer: &mut Tracer, req: u64, r: &Rec, poll: &'static str, p0: u64, p1: u64) {
    if !tracer.on {
        return;
    }
    tracer.record(Span {
        id: span_id(req, 2),
        parent: span_id(req, 0),
        name: poll,
        req,
        start_ns: p0,
        end_ns: p1,
    });
    tracer.record(Span {
        id: span_id(req, 0),
        parent: 0,
        name: "gen.request",
        req,
        start_ns: r.intended_ns,
        end_ns: r.done_ns,
    });
}

struct Capacity {
    /// Acknowledged requests per second in each window.
    window_rps: Vec<f64>,
    attempted: u64,
    /// The verdict of every request that failed.
    errors: Vec<ServeError>,
}

impl Capacity {
    fn rps(&self) -> f64 {
        steady(&self.window_rps, true).value
    }
}

/// Closed window: `WINDOW` requests always in flight, a new one sent as
/// each answer arrives, for `secs`, counted in windows of about
/// `CAPACITY_WINDOW_NS`. Answers after the phase are drained but not
/// counted.
fn capacity(
    tp: &mut Transport,
    ops: &mut OpGen,
    secs: f64,
    origin: Instant,
    ledger: &mut Ledger,
) -> Result<Capacity, String> {
    // Send time and writes of each request in flight, by index.
    let mut in_flight: HashMap<usize, (u64, Vec<(u64, u64)>)> = HashMap::new();
    let mut attempted = 0usize;
    let mut errors = Vec::new();
    let total_ns = (secs * 1e9) as u64;
    let win_ns = window_ns(total_ns, CAPACITY_WINDOW_NS);
    let mut acked = vec![0u64; (total_ns / win_ns) as usize];
    let t0 = now_ns(origin);
    let end = t0 + total_ns;
    let mut settle = |(sent, writes): (u64, Vec<(u64, u64)>), reply: Reply, now: u64| {
        let ok = reply.is_ok();
        for (k, v) in writes {
            ledger.record(k, v, sent, ok.then_some(now));
        }
        reply.err()
    };
    loop {
        let now = now_ns(origin);
        if now < end && in_flight.len() < WINDOW {
            let idx = attempted;
            attempted += 1;
            let req = ops.next_ops();
            let entry = (now, writes(&req));
            match tp.send(idx, req)? {
                None => {
                    in_flight.insert(idx, entry);
                }
                Some(reply) => errors.extend(settle(entry, reply, now)),
            }
            continue;
        }
        if in_flight.is_empty() {
            break;
        }
        let (idx, reply) = tp.recv()?;
        let entry = in_flight.remove(&idx).ok_or("answer to no request")?;
        let done = now_ns(origin);
        match settle(entry, reply, done) {
            Some(e) => errors.push(e),
            None => {
                if let Some(n) = acked.get_mut(((done - t0) / win_ns) as usize) {
                    *n += 1;
                }
            }
        }
    }
    Ok(Capacity {
        window_rps: acked
            .iter()
            .map(|&n| n as f64 * 1e9 / win_ns as f64)
            .collect(),
        attempted: attempted as u64,
        errors,
    })
}

/// TM counters of every shard and of the decision log.
fn tm_counts(s: &ServiceSnapshot) -> (Counts, Counts) {
    let mut all = Counts::default();
    for sh in &s.shards {
        all.add(&sh.tm);
    }
    let mut log = Counts::default();
    log.add(&s.coordinator.tm);
    all.add(&s.coordinator.tm);
    (all, log)
}

/// What one pass measured.
struct Pass {
    fixed: Fixed,
    fixed_secs: f64,
    tm: Counts,
    log_tm: Counts,
    /// Service counters since the phase began.
    snap: ServiceSnapshot,
    net: Option<(NetSnapshot, NetSnapshot)>,
    /// CPU by thread group and in total, from `/proc`.
    groups: Vec<f64>,
    proc_s: f64,
    capacity: Capacity,
    spans: Vec<Span>,
}

impl Pass {
    fn ok(&self) -> impl Iterator<Item = &Rec> {
        self.fixed.recs.iter().filter(|r| r.ok)
    }

    fn acked(&self) -> f64 {
        self.ok().count() as f64
    }

    fn attempted(&self) -> u64 {
        self.fixed.recs.len() as u64 + self.capacity.attempted
    }

    fn failed(&self) -> u64 {
        self.fixed.recs.iter().filter(|r| !r.ok).count() as u64 + self.capacity.errors.len() as u64
    }

    /// Why requests failed: each verdict with its count, "unanswered"
    /// for a request the drain gave up on.
    fn failures(&self) -> Vec<(String, usize)> {
        let mut tally: Vec<(String, usize)> = Vec::new();
        let fixed = self.fixed.recs.iter().filter(|r| !r.ok).map(|r| r.err);
        let cap = self.capacity.errors.iter().map(|&e| Some(e));
        for err in fixed.chain(cap) {
            let kind = err.map_or("unanswered".to_string(), |e| format!("{e:?}"));
            match tally.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => tally.push((kind, 1)),
            }
        }
        tally
    }

    fn latencies_us(&self) -> Vec<f64> {
        sorted(self.ok().map(|r| r.latency_ns() as f64 / 1e3).collect())
    }

    fn lags_us(&self) -> Vec<f64> {
        sorted(
            self.fixed
                .recs
                .iter()
                .map(|r| r.sent_ns.saturating_sub(r.intended_ns) as f64 / 1e3)
                .collect(),
        )
    }

    fn late_share(&self) -> f64 {
        let recs = &self.fixed.recs;
        let late = recs
            .iter()
            .filter(|r| r.sent_ns.saturating_sub(r.intended_ns) > LATE_NS)
            .count();
        per(late as f64, recs.len() as f64)
    }
}

/// Everything the generator thread needs from the service.
struct Target<'a> {
    svc: &'a Service,
    server: Option<&'a NetServer>,
}

#[allow(clippy::too_many_arguments)]
fn run_pass(
    target: &Target,
    tp: &mut Transport,
    spec: &Spec,
    keys: &KeyGen,
    seed: u64,
    pass: u64,
    secs: f64,
    traced: bool,
    origin: Instant,
    ledger: &mut Ledger,
) -> Result<Pass, String> {
    let fixed_secs = secs * FIXED_SHARE;
    let mut ops = OpGen::new(spec.mix, keys.clone(), SHARDS, seed, 10 + 2 * pass);
    let arrivals = gen::schedule(spec.rate, fixed_secs, seed ^ (pass << 56), &mut ops);
    let mut tracer = Tracer::new(traced);
    let svc = target.svc;

    svc.reset_metrics();
    let (tm0, log0) = tm_counts(&svc.snapshot());
    let net0 = target.server.map(NetServer::metrics);
    let tasks0 = sys::task_cpu();
    let proc0 = sys::proc_cpu();
    let win_ns = window_ns((fixed_secs * 1e9) as u64, FIXED_WINDOW_NS);
    let fixed = open_loop(
        tp,
        arrivals,
        win_ns,
        origin,
        &mut tracer,
        ledger,
        pass << 40,
    )?;
    let proc1 = sys::proc_cpu();
    let tasks1 = sys::task_cpu();
    let net1 = target.server.map(NetServer::metrics);
    let snap = svc.snapshot();
    let (tm1, log1) = tm_counts(&snap);

    let mut cap_ops = OpGen::new(spec.mix, keys.clone(), SHARDS, seed, 11 + 2 * pass);
    let capacity = capacity(tp, &mut cap_ops, secs - fixed_secs, origin, ledger)?;
    Ok(Pass {
        fixed,
        fixed_secs,
        tm: tm1.since(&tm0),
        log_tm: log1.since(&log0),
        snap,
        net: net0.zip(net1),
        groups: sys::group_cpu(&tasks0, &tasks1, &GROUPS),
        proc_s: proc1 - proc0,
        capacity,
        spans: tracer.spans,
    })
}

/// A built service, filled and connected.
struct Deployment {
    svc: Service,
    server: Option<NetServer>,
    tp: Transport,
}

impl Deployment {
    fn teardown(self) -> Service {
        let Deployment { svc, server, tp } = self;
        drop(tp);
        if let Some(s) = server {
            s.stop();
        }
        svc
    }
}

fn setup(
    spec: &Spec,
    seed: u64,
    origin: Instant,
    ledger: &mut Ledger,
) -> Result<Deployment, String> {
    let svc = Service::new(service_config());
    prefill(&svc, seed, origin, ledger)?;
    let (server, tp) = if spec.net {
        let server = svc
            .serve_net(NetConfig::default())
            .map_err(|e| format!("serve: {e}"))?;
        let client =
            NetClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let tp = Transport::Net {
            client,
            pending: HashMap::new(),
        };
        (Some(server), tp)
    } else {
        let tp = Transport::Ring {
            ring: svc.ring(),
            pending: HashMap::new(),
            order: VecDeque::new(),
        };
        (None, tp)
    };
    Ok(Deployment { svc, server, tp })
}

/// Apply `op(key)` to every key through pipelined same-shard multi-op
/// requests, `PREFILL_WINDOW` in flight, and return each key's answer.
/// Bulk work this way is bound by CPU, not by one wake-up per key.
fn bulk(
    svc: &Service,
    keys: &[u64],
    op: fn(u64) -> MapOp,
) -> Result<HashMap<u64, Option<u64>>, String> {
    let table = svc.routing();
    let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); table.shards()];
    for &k in keys {
        by_shard[table.route(k)].push(k);
    }
    let ring = svc.ring_with_slots(PREFILL_WINDOW);
    let mut out = HashMap::with_capacity(keys.len());
    let mut in_flight: VecDeque<(Ticket, &[u64])> = VecDeque::new();
    let mut chunks = by_shard.iter().flat_map(|v| v.chunks(PREFILL_OPS));
    loop {
        if in_flight.len() < PREFILL_WINDOW {
            if let Some(ks) = chunks.next() {
                let t = ring
                    .submit_batch(ks.iter().map(|&k| op(k)).collect())
                    .map_err(|e| format!("bulk submit: {e}"))?;
                in_flight.push_back((t, ks));
                continue;
            }
        }
        let Some((t, ks)) = in_flight.pop_front() else {
            return Ok(out);
        };
        let vals = ring.wait(t).map_err(|e| format!("bulk request: {e}"))?;
        out.extend(ks.iter().copied().zip(vals));
    }
}

/// Insert the prefilled half of the key space, value `key + 1`.
fn prefill(svc: &Service, seed: u64, origin: Instant, ledger: &mut Ledger) -> Result<(), String> {
    let keys: Vec<u64> = (0..KEYS).filter(|&k| gen::prefilled(k, seed)).collect();
    bulk(svc, &keys, |k| MapOp::Insert(k, k + 1))?;
    // Every later write is sent after this instant.
    let done = now_ns(origin);
    for k in keys {
        ledger.record(k, k + 1, done, Some(done));
    }
    Ok(())
}

pub fn run(
    spec: &Spec,
    seed: u64,
    secs: f64,
    traced: bool,
    origin: Instant,
) -> Result<Outcome, String> {
    let keys = KeyGen::new(KEYS, spec.zipf);
    let mut setup_s = Vec::new();
    let mut main_spans = Tracer::new(traced);
    let mut dep = None;
    for i in 0..SETUPS {
        if let Some((d, _)) = dep.take() {
            drop(Deployment::teardown(d));
        }
        let mut ledger = Ledger::default();
        let s0 = now_ns(origin);
        dep = Some((setup(spec, seed, origin, &mut ledger)?, ledger));
        let s1 = now_ns(origin);
        setup_s.push((s1 - s0) as f64 / 1e9);
        main_spans.record(Span {
            id: span_id(1 << 50, i as u64),
            parent: 0,
            name: "kvserve.setup",
            req: 0,
            start_ns: s0,
            end_ns: s1,
        });
    }
    let (
        Deployment {
            svc,
            server,
            mut tp,
        },
        mut ledger,
    ) = dep.expect("at least one set-up");

    // Untraced runs measure one pass; traced runs measure an untraced
    // and a traced pass of half the length each, so the difference
    // between them is the tracing overhead.
    let passes: Vec<(f64, bool)> = if traced {
        vec![(secs / 2.0, false), (secs / 2.0, true)]
    } else {
        vec![(secs, false)]
    };
    let target = Target {
        svc: &svc,
        server: server.as_ref(),
    };
    let results: Result<Vec<Pass>, String> = std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("gen-load".into())
            .spawn_scoped(s, || {
                passes
                    .iter()
                    .enumerate()
                    .map(|(i, &(secs, on))| {
                        run_pass(
                            &target,
                            &mut tp,
                            spec,
                            &keys,
                            seed,
                            i as u64,
                            secs,
                            on,
                            origin,
                            &mut ledger,
                        )
                    })
                    .collect()
            })
            .expect("spawn generator")
            .join()
            .map_err(|_| "generator panicked".to_string())?
    });
    let passes = results?;

    // Crash, recover, and read every written key back.
    let svc = Deployment { svc, server, tp }.teardown();
    let c0 = now_ns(origin);
    let dump = svc.crash();
    let c1 = now_ns(origin);
    let recovered = Service::recover(dump);
    let c2 = now_ns(origin);
    let read = bulk(&recovered, &ledger.keys(), MapOp::Get)?;
    let c3 = now_ns(origin);
    drop(recovered);
    for (name, start_ns, end_ns) in [
        ("kvserve.crash", c0, c1),
        ("kvserve.recover", c1, c2),
        ("verify.read_back", c2, c3),
    ] {
        main_spans.record(Span {
            id: span_id(1 << 51, start_ns),
            parent: 0,
            name,
            req: 0,
            start_ns,
            end_ns,
        });
    }
    let mut errors = Vec::new();
    let mut notes = vec![format!("setup_s runs: {}", joined(&setup_s, 4))];
    match ledger.check(&read) {
        Ok(n) => notes.push(format!(
            "durability: {n} keys, {} writes checked after crash and recovery",
            ledger.len()
        )),
        Err(e) => errors.push(format!("durability check failed: {e}")),
    }

    let main = &passes[0];
    let last = passes.last().expect("one pass");
    for p in &passes {
        let late = p.late_share();
        if late > LATE_SHARE_MAX {
            notes.push(format!(
                "INVALID RUN: the generator ran late on {:.2}% of arrivals (limit {:.2}%), \
                 so the host, not the service, set the load",
                late * 100.0,
                LATE_SHARE_MAX * 100.0
            ));
        }
        let lags = p.lags_us();
        notes.push(format!(
            "generator lag p50 {:.1} p99 {:.1} max {:.1} us, late share {:.4}; failures {:?}",
            pct(&lags, 0.5).value,
            pct(&lags, 0.99).value,
            pct(&lags, 1.0).value,
            late,
            p.failures(),
        ));
    }
    let acked = main.acked();
    let lat = main.latencies_us();
    let good = main.ok().filter(|r| r.latency_ns() <= SLO_NS).count();
    let e2e = EndToEnd {
        goodput_rps: good as f64 / main.fixed_secs,
        capacity_rps: main.capacity.rps(),
        p50_us: main.fixed.steady_latency_us(0.5),
        p95_us: main.fixed.steady_latency_us(0.95),
        cpu_us_per_req: steady(&main.fixed.window_cpu_us(), false).value,
        flushes_per_req: per(main.tm.get(Counter::Flush), acked),
        fences_per_req: per(main.tm.get(Counter::Fence), acked),
        setup_s: median(&setup_s),
        peak_rss_mb: sys::peak_rss_mb(),
    };
    notes.push(format!(
        "fixed rate: {} requests offered at {:.0}/s over {:.1} s, {} acked; whole phase p50 {:.1} \
         p95 {:.1} p99 {:.1} p999 {:.1} us",
        main.fixed.recs.len(),
        spec.rate,
        main.fixed_secs,
        acked,
        pct(&lat, 0.5).value,
        pct(&lat, 0.95).value,
        pct(&lat, 0.99).value,
        pct(&lat, 0.999).value,
    ));
    notes.push(format!(
        "windows p50 us: {}",
        joined(&main.fixed.window_latency_us(0.5), 1)
    ));
    notes.push(format!(
        "windows cpu us/req: {}",
        joined(&main.fixed.window_cpu_us(), 1)
    ));
    notes.push(format!(
        "windows capacity 1/s: {}",
        joined(&main.capacity.window_rps, 0)
    ));
    let layers = layers(last, &e2e, passes.len(), recover_s(c1, c2));
    let attempted = passes.iter().map(Pass::attempted).sum();
    let failed = passes.iter().map(Pass::failed).sum();
    let mut spans = main_spans.spans;
    for p in passes {
        spans.extend(p.spans);
    }
    Ok(Outcome {
        e2e,
        layers,
        attempted,
        failed,
        errors,
        notes,
        spans,
    })
}

fn recover_s(start_ns: u64, end_ns: u64) -> f64 {
    (end_ns - start_ns) as f64 / 1e9
}

/// Per-layer figures from the traced pass `p` (the last one).
fn layers(p: &Pass, untraced: &EndToEnd, passes: usize, recover_s: f64) -> Layers {
    let acked = p.acked();
    let us_per_req = |cpu_s: f64| per(cpu_s * 1e6, acked);
    let snap = &p.snap;
    let q_us = |h: &kvserve::HistogramSnapshot, q: f64| {
        h.quantile(q).map_or(0.0, |d| d.as_secs_f64() * 1e6)
    };
    let span_p50 = |name: &str| {
        pct(
            &sorted(
                p.spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                    .collect(),
            ),
            0.5,
        )
    };
    let sum = |f: fn(&kvserve::ShardSnapshot) -> u64| snap.shards.iter().map(f).sum::<u64>() as f64;
    let ring_s2c_p50 = q_us(&snap.ring.latency, 0.5);
    let client_us = sorted(
        p.ok()
            .map(|r| r.done_ns.saturating_sub(r.sent_ns) as f64 / 1e3)
            .collect(),
    );
    let (net_bytes, net_busy, frames) = match &p.net {
        Some((a, b)) => (
            (b.bytes_in + b.bytes_out - a.bytes_in - a.bytes_out) as f64,
            (b.busy - a.busy) as f64,
            (b.frames_in - a.frames_in) as f64,
        ),
        None => (0.0, 0.0, 0.0),
    };
    let c = &snap.coordinator;
    Layers {
        gen_lag_p99_us: pct(&p.lags_us(), 0.99),
        gen_late_share: p.late_share(),
        gen_cpu_us_per_req: us_per_req(p.groups[0]),
        net_cpu_us_per_req: us_per_req(p.groups[1]),
        net_send_us_p50: span_p50("net.send_batch"),
        net_self_us_p50: if p.net.is_some() {
            pct(&client_us, 0.5).value - ring_s2c_p50
        } else {
            0.0
        },
        net_bytes_per_req: per(net_bytes, frames),
        net_busy_share: per(net_busy, frames),
        ring_submit_us_p50: span_p50("ring.submit_batch"),
        ring_s2c_us_p50: ring_s2c_p50,
        ring_s2c_us_p95: q_us(&snap.ring.latency, 0.95),
        ring_in_flight_hwm: snap.ring.in_flight_hwm as f64,
        ring_full_share: per(
            snap.ring.ring_full as f64,
            (snap.ring.submitted + snap.ring.ring_full) as f64,
        ),
        shard_cpu_us_per_req: us_per_req(p.groups[2]),
        shard_batch_mean: snap.mean_batch(),
        shard_sojourn_us_p50: snap
            .latency_quantile(0.5)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6),
        shard_retries_per_req: per(sum(|s| s.retries), acked),
        shard_timeouts_per_req: per(sum(|s| s.timeouts), acked),
        coord_cpu_us_per_req: us_per_req(p.groups[3]),
        coord_prepare_us_p50: q_us(&c.prepare, 0.5),
        coord_commit_us_p50: q_us(&c.commit, 0.5),
        coord_group_mean: per(c.decisions_logged as f64, c.decision_groups as f64),
        coord_retries_per_req: per(c.cross_retries as f64, acked),
        coord_log_fences_per_req: per(p.log_tm.get(Counter::Fence), acked),
        tm: p.tm,
        reqs: acked,
        recover_s,
        txstructs_op_us_p50: Default::default(),
        spin_ratio: 0.0,
        proc_cpu_us_per_req: us_per_req(p.proc_s),
        unattributed_cpu_us_per_req: us_per_req(p.proc_s - p.groups.iter().sum::<f64>()),
        trace_capacity_rps_delta: if passes > 1 {
            p.capacity.rps() - untraced.capacity_rps
        } else {
            0.0
        },
        trace_p50_us_delta: if passes > 1 {
            p.fixed.steady_latency_us(0.5).value - untraced.p50_us.value
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_reach_the_service_and_survive_a_crash() {
        let origin = Instant::now();
        let mut ledger = Ledger::default();
        let dep = setup(&KV_XSHARD, 3, origin, &mut ledger).expect("setup");
        let keys: Vec<u64> = (0..KEYS).filter(|&k| gen::prefilled(k, 3)).collect();
        assert_eq!(ledger.keys(), keys);
        let svc = dep.teardown();
        let recovered = Service::recover(svc.crash());
        let read = bulk(&recovered, &ledger.keys(), MapOp::Get).expect("read back");
        assert_eq!(ledger.check(&read), Ok(keys.len()));
        // The same check fails once a write is dropped.
        let mut lost = read.clone();
        lost.insert(keys[0], None);
        assert!(ledger.check(&lost).is_err());
    }
}
