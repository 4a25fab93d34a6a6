//! Load driver for the `kvserve` durable KV service.
//!
//! Every cell of a sweep (mix × shards × batch cap × offered rate)
//! builds a service, prefills half the key range, runs one generator
//! loop on one thread for the window, drains, and reports. The loop
//! reaches the service through a [`Transport`]: the in-process
//! completion ring, or with `--net` one pipelined `NetClient` over
//! loopback TCP, so ring and wire are measured like for like.
//!
//! - With `--rates` the loop is open: Poisson arrivals at each rate,
//!   latency from each intended arrival, and `generator behind` printed
//!   when less than 95% of the nominal rate was offered.
//! - Without, it is closed: at most `--clients` in flight, latency from
//!   the send.
//!
//! Rates divide by the arrival window, never the drain. `*_req_per_sec`
//! count requests, `tput_ops_per_sec` the ops of acknowledged requests.
//! `--migrate` splits shard 0 from the main thread while the generator
//! runs; `--repl` adds follower replication and ends each cell with a
//! measured failover. `--out FILE` writes a `kvserve-bench-v1` artifact
//! (docs/benchmarking.md).
//!
//! ```text
//! cargo run -p bench --release --bin service -- \
//!     --shards 1,2,4 --batch 1,8 --clients 8 --seconds 0.4
//! cargo run -p bench --release --bin service -- \
//!     --rates 20000,80000,2000000 --zipf 0.99 \
//!     --mixes update-heavy --shards 2 --batch 8 --out out.json
//! ```

use bench::json::Json;
use bench::Args;
use kvserve::{
    MapOp, MigrateSpec, NetClient, NetConfig, Reply, Ring, RoutingTable, ServeError, Service,
    ServiceConfig, ServiceSnapshot, Ticket,
};
use pmem::LatencyModel;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tm::stats::Counter;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mix {
    ReadHeavy,
    UpdateHeavy,
    Scan,
    CrossShard,
}

impl Mix {
    const ALL: [Mix; 4] = [Mix::ReadHeavy, Mix::UpdateHeavy, Mix::Scan, Mix::CrossShard];

    fn label(self) -> &'static str {
        match self {
            Mix::ReadHeavy => "read-heavy",
            Mix::UpdateHeavy => "update-heavy",
            Mix::Scan => "scan",
            Mix::CrossShard => "cross-shard",
        }
    }

    fn parse(s: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.label() == s)
    }
}

/// Keys an atomic scan window may span before filtering to one shard.
const SCAN_SPAN: u64 = 32;
/// Ops per scan request after same-shard filtering (upper bound).
const SCAN_WINDOW: usize = 8;
/// Shards an atomic cross-shard multi-put spans (upper bound).
const XSHARD_SPAN: usize = 4;
/// How long a cell waits after its window for the window's last
/// answers; the 2 s request deadline resolves every answer inside it.
const DRAIN: Duration = Duration::from_secs(5);
/// An open loop that offered less than this share of its nominal rate
/// is reported as `generator behind`.
const BEHIND: f64 = 0.95;
/// While sending, the generator reaps answers at most this often, so
/// reaping cannot starve the schedule; between sends it reaps at once.
const REAP_TICK: Duration = Duration::from_micros(50);

struct Sweep {
    mixes: Vec<Mix>,
    shard_counts: Vec<usize>,
    batch_caps: Vec<usize>,
    /// One closed pace, or one open pace per offered rate.
    paces: Vec<Pace>,
    seconds: f64,
    keys: u64,
    fast: bool,
    repl: bool,
    net: bool,
    migrate: bool,
    /// Zipfian skew of the key draws; 0 = uniform.
    zipf_theta: f64,
    /// How long a woken shipper lingers so more op-log entries ride one
    /// follower commit, µs (0 = not at all).
    ship_coalesce_us: u64,
}

/// How the generator paces its requests.
#[derive(Clone, Copy, Debug)]
enum Pace {
    /// Poisson arrivals at this many requests per second.
    Open(f64),
    /// At most this many requests in flight.
    Closed(usize),
}

fn main() {
    let args = Args::parse();
    let sweep = Sweep {
        mixes: args
            .list("mixes")
            .map(|v| v.iter().filter_map(|s| Mix::parse(s)).collect())
            .unwrap_or_else(|| Mix::ALL.to_vec()),
        shard_counts: numbers(&args, "shards", vec![1, 2, 4]),
        batch_caps: numbers(&args, "batch", vec![1, 8]),
        paces: match numbers(&args, "rates", Vec::new()) {
            r if r.is_empty() => vec![Pace::Closed(args.get_or("clients", 8usize).max(1))],
            r if r.iter().all(|&x| x > 0.0) => r.into_iter().map(Pace::Open).collect(),
            _ => panic!("--rates must be positive"),
        },
        seconds: args.get_or("seconds", 0.4),
        keys: args.get_or("keys", 1u64 << 13),
        fast: args.get("fast").is_some(),
        repl: args.get("repl").is_some(),
        net: args.get("net").is_some(),
        migrate: args.get("migrate").is_some(),
        zipf_theta: args.get_or("zipf", 0.0),
        ship_coalesce_us: args.get_or("ship-coalesce", 0u64),
    };
    let mode = match (sweep.net, sweep.paces[0]) {
        (false, Pace::Closed(_)) => "closed-loop",
        (false, Pace::Open(_)) => "open-loop",
        (true, Pace::Closed(_)) => "net-closed-loop",
        (true, Pace::Open(_)) => "net-open-loop",
    };
    let pm = if sweep.fast { "zero-latency" } else { "optane" };
    let (keys, theta, secs) = (sweep.keys, sweep.zipf_theta, sweep.seconds);
    println!("kvserve {mode} benchmark: {keys} keys, zipf theta={theta}, {secs:.2}s per cell, pm={pm}, repl={}, migrate={}", sweep.repl, sweep.migrate);
    let mut cells = Vec::new();
    for &mix in &sweep.mixes {
        for &shards in &sweep.shard_counts {
            for &batch in &sweep.batch_caps {
                for &pace in &sweep.paces {
                    let cell = run_cell(&sweep, mix, shards, batch, pace);
                    cell.print();
                    cells.push(cell);
                }
            }
        }
    }
    if let Some(path) = args.get("out") {
        let report = Json::obj()
            .field("schema", "kvserve-bench-v1")
            .field("mode", mode)
            .field("pm", pm)
            .field("keys", keys)
            .field("zipf_theta", theta)
            .field("replication", sweep.repl)
            .field("baseline", baseline_json(&sweep))
            .field("summary", summary_json(&cells))
            .field("cells", Json::Arr(cells.iter().map(Cell::json).collect()));
        std::fs::write(path, format!("{report}\n")).expect("write bench artifact");
        println!("\nwrote {path}");
    }
}

/// The comma-separated numbers given for `key`, or `default`.
fn numbers<T: std::str::FromStr>(args: &Args, key: &str, default: Vec<T>) -> Vec<T> {
    args.list(key)
        .map(|v| v.iter().filter_map(|s| s.parse().ok()).collect())
        .unwrap_or(default)
}

fn service_config(sweep: &Sweep, shards: usize, batch: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(shards);
    cfg.batch_max = batch;
    cfg.queue_depth = 4096;
    cfg.ring_slots = 4096;
    cfg.buckets_per_shard = ((sweep.keys as usize / shards).next_power_of_two()).max(64);
    cfg.heap_words_per_shard = (sweep.keys as usize * 8 / shards).max(1 << 16);
    cfg.default_deadline = Duration::from_secs(2);
    cfg.replication = sweep.repl;
    cfg.ship_coalesce = Duration::from_micros(sweep.ship_coalesce_us);
    if !sweep.fast {
        cfg.nvhalt.pm.lat = LatencyModel::optane();
    }
    cfg
}

/// One cell: a fresh, prefilled service; the generator loop on its own
/// thread while the main thread keeps the window (and runs the
/// `--migrate` event); the measurement windowed to the run; and the
/// `--repl` failover.
fn run_cell(sweep: &Sweep, mix: Mix, shards: usize, batch: usize, pace: Pace) -> Cell {
    let svc = Service::new(service_config(sweep, shards, batch));
    // Prefill half the key range, then zero the service metrics so the
    // measurement window starts clean.
    for k in 0..sweep.keys {
        if k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0 {
            svc.put(k, k + 1).expect("prefill write");
        }
    }
    svc.reset_metrics();
    let before = svc.snapshot();
    let server = sweep
        .net
        .then(|| svc.serve_net(NetConfig::default()).expect("bind loopback"));
    let link = match &server {
        Some(s) => Link::Net(NetClient::connect(s.local_addr()).expect("connect loopback")),
        None => Link::Ring(svc.ring()),
    };
    let mut tp = Transport {
        link,
        pending: HashMap::new(),
        order: VecDeque::new(),
    };
    let table = RoutingTable::fresh(shards);
    let kg = KeyGen::new(sweep.keys, sweep.zipf_theta);
    let next_ops = |rng: &mut Rng| gen_ops(mix, sweep.keys, &table, rng, &kg);
    let (stop, oks) = (AtomicBool::new(false), AtomicU64::new(0));
    let (svc, migration, (mut tally, secs)) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| generate(&mut tp, next_ops, pace, &stop, &oks));
        let (svc, migration) = keep_window(svc, sweep, &oks);
        stop.store(true, Ordering::Relaxed);
        (svc, migration, generator.join().expect("generator thread"))
    });
    tally.lat_us.sort_by(f64::total_cmp);
    // TM statistics windowed to the run (a split's new shard starts
    // from zero).
    let mut snap = svc.snapshot();
    for (s, b) in snap.shards.iter_mut().zip(&before.shards) {
        s.tm = s.tm.since(&b.tm);
    }
    snap.coordinator.tm = snap.coordinator.tm.since(&before.coordinator.tm);
    let mut events = Vec::new();
    if let Some(net) = server.map(|s| s.metrics()) {
        let block = Json::obj()
            .field("frames_in", net.frames_in)
            .field("frames_out", net.frames_out)
            .field("bytes_in", net.bytes_in)
            .field("bytes_out", net.bytes_out)
            .field("busy_frames", net.busy);
        events.push(("net", block));
    }
    if let Some(block) = migration {
        events.push(("migration", block));
    }
    if sweep.repl {
        // Lose every primary pool; the duration covers recovering the
        // follower pools and the decision log, and the 2PC decision replay.
        let (_, f) = Service::promote(svc.fail_over(), None).expect("no probe installed");
        let block = Json::obj()
            .field("secs", f.duration.as_secs_f64())
            .field("replayed", f.replayed);
        events.push(("failover", block));
    }
    Cell {
        mix: mix.label(),
        shards,
        batch,
        pace,
        secs,
        tally,
        snap,
        events,
    }
}

/// The main thread's part of a cell while the generator runs: one
/// window, or with `--migrate` one window each before and after a live
/// split of shard 0, with goodput (requests/s) before, during and after.
fn keep_window(svc: Service, sweep: &Sweep, oks: &AtomicU64) -> (Service, Option<Json>) {
    let window = Duration::from_secs_f64(sweep.seconds);
    let mark = || (Instant::now(), oks.load(Ordering::Relaxed));
    let start = mark();
    std::thread::sleep(window);
    if !sweep.migrate {
        return (svc, None);
    }
    let split = mark();
    let spec = MigrateSpec::split(&svc.routing(), 0);
    let (svc, report) = svc.migrate(spec).expect("no probe installed");
    let grown = mark();
    std::thread::sleep(window);
    let end = mark();
    let rate = |(t0, n0): (Instant, u64), (t1, n1): (Instant, u64)| {
        (n1 - n0) as f64 / (t1 - t0).as_secs_f64()
    };
    let block = Json::obj()
        .field("shards_after", svc.num_shards())
        .field("goodput_pre_req_per_sec", rate(start, split))
        .field("goodput_during_req_per_sec", rate(split, grown))
        .field("goodput_post_req_per_sec", rate(grown, end))
        .field("migrate_secs", report.duration.as_secs_f64())
        .field("flip_pause_us", report.flip_pause.as_secs_f64() * 1e6)
        .field("base_keys", report.base_keys)
        .field("catchup_entries", report.catchup_entries)
        .field("routing_epoch", report.epoch);
    (svc, Some(block))
}

/// A request on its way: its op count and the instant its latency runs
/// from.
#[derive(Clone, Copy)]
struct Sent {
    nops: usize,
    from: Instant,
}

/// The generator's one connection to the service.
enum Link {
    Ring(Ring),
    Net(NetClient),
}

/// What names a request in flight on either link.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Ticket(Ticket),
    Corr(u64),
}

/// A link and its requests in flight; `order` starts at the oldest.
struct Transport {
    link: Link,
    pending: HashMap<Key, Sent>,
    order: VecDeque<Key>,
}

impl Transport {
    /// Send one request; `Some` is the ring's immediate refusal.
    fn send(&mut self, ops: Vec<MapOp>, sent: Sent) -> Option<Reply> {
        let key = match &mut self.link {
            Link::Ring(ring) => match ring.submit_batch(ops) {
                Ok(t) => Key::Ticket(t),
                Err(e) => return Some(Err(e)),
            },
            Link::Net(client) => Key::Corr(client.send_batch(&ops).expect("send over loopback")),
        };
        self.pending.insert(key, sent);
        self.order.push_back(key);
        None
    }

    /// Every answer that has arrived, without blocking.
    fn poll(&mut self, out: &mut Vec<(Sent, Reply)>) {
        loop {
            let (key, reply) = match &mut self.link {
                Link::Ring(ring) => match ring.complete() {
                    Some(c) => (Key::Ticket(c.ticket), c.result),
                    None => return,
                },
                Link::Net(client) => match client.try_recv().expect("receive over loopback") {
                    Some(r) => (Key::Corr(r.corr), r.reply),
                    None => return,
                },
            };
            out.push((self.settle(key), reply));
        }
    }

    /// Block for an answer; the ring waits on its oldest request.
    fn recv(&mut self) -> (Sent, Reply) {
        let (key, reply) = match &mut self.link {
            Link::Ring(ring) => match self.order.front() {
                Some(&Key::Ticket(t)) => (Key::Ticket(t), ring.wait(t)),
                _ => panic!("recv with no ring request in flight"),
            },
            Link::Net(client) => {
                let r = client.recv().expect("receive over loopback");
                (Key::Corr(r.corr), r.reply)
            }
        };
        (self.settle(key), reply)
    }

    /// Retire an answered request; `order` then starts at one in flight.
    fn settle(&mut self, key: Key) -> Sent {
        let sent = self.pending.remove(&key).expect("answer in flight");
        let pending = &self.pending;
        while self.order.front().is_some_and(|k| !pending.contains_key(k)) {
            self.order.pop_front();
        }
        sent
    }
}

/// Every offered request's verdict, exactly one each. Refusals,
/// deadline, conflict and reroute verdicts are expected answers under
/// load, so they are counted, not fatal.
#[derive(Default)]
struct Tally {
    offered: u64,
    ok: u64,
    /// Ops inside acknowledged requests.
    ok_ops: u64,
    /// Refused at submit: every ring slot taken.
    ring_full: u64,
    /// Refused by a full shard queue; over the wire, every `Busy` frame.
    overloaded: u64,
    timeout: u64,
    aborted: u64,
    stopped: u64,
    /// Latency of every acknowledged request, µs.
    lat_us: Vec<f64>,
}

impl Tally {
    fn record(&mut self, (sent, reply): (Sent, Reply)) {
        match reply {
            Ok(_) => {
                self.ok += 1;
                self.ok_ops += sent.nops as u64;
                self.lat_us.push(sent.from.elapsed().as_secs_f64() * 1e6);
            }
            Err(ServeError::RingFull) => self.ring_full += 1,
            Err(ServeError::Overloaded { .. }) => self.overloaded += 1,
            Err(ServeError::Timeout) => self.timeout += 1,
            Err(ServeError::Aborted) => self.aborted += 1,
            Err(ServeError::Stopped) => self.stopped += 1,
        }
    }
}

/// The generator loop, on one thread, until `stop`. An open loop sends
/// each arrival when due and sleeps towards the next; a closed loop
/// sends while under its limit and otherwise blocks for an answer.
/// Between sends it reaps answers without blocking. After the window it
/// drains, and returns the tally and the window's length in seconds.
/// `oks` publishes the running ok count for the `--migrate` phases.
fn generate(
    tp: &mut Transport,
    mut next_ops: impl FnMut(&mut Rng) -> Vec<MapOp>,
    pace: Pace,
    stop: &AtomicBool,
    oks: &AtomicU64,
) -> (Tally, f64) {
    let (mut tally, mut replies, mut rng) = (Tally::default(), Vec::new(), Rng(0x0be7_ca11));
    let start = Instant::now();
    let (mut due, mut reap_at) = (start, start);
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        let (send, from) = match pace {
            Pace::Open(_) => (now >= due, due),
            Pace::Closed(limit) => (tp.pending.len() < limit, now),
        };
        if send {
            let ops = next_ops(&mut rng);
            let sent = Sent {
                nops: ops.len(),
                from,
            };
            tally.offered += 1;
            if let Some(refusal) = tp.send(ops, sent) {
                tally.record((sent, refusal));
            }
            if let Pace::Open(rate) = pace {
                // Exponential gaps: a Poisson arrival process.
                due += Duration::from_secs_f64(-rng.unit().ln() / rate);
            }
        }
        if !send || now >= reap_at {
            tp.poll(&mut replies);
            reap_at = now + REAP_TICK;
        }
        let idle = !send && replies.is_empty();
        replies.drain(..).for_each(|r| tally.record(r));
        oks.store(tally.ok, Ordering::Relaxed);
        if idle {
            match pace {
                Pace::Open(_) => {
                    let gap = due.saturating_duration_since(Instant::now());
                    if gap > Duration::from_micros(20) {
                        std::thread::sleep(gap.min(Duration::from_micros(200)));
                    }
                }
                Pace::Closed(_) => tally.record(tp.recv()),
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    // The window's last answers, outside the window.
    let grace = Instant::now() + DRAIN;
    while !tp.pending.is_empty() && Instant::now() < grace {
        std::thread::sleep(Duration::from_micros(100));
        tp.poll(&mut replies);
        replies.drain(..).for_each(|r| tally.record(r));
    }
    assert!(tp.pending.is_empty(), "requests unresolved after the drain");
    (tally, secs)
}

/// One cell's typed results. The report lines, the artifact cell and
/// the run summary are all computed from these.
struct Cell {
    mix: &'static str,
    shards: usize,
    batch: usize,
    pace: Pace,
    /// The arrival window, seconds.
    secs: f64,
    tally: Tally,
    /// The service's metrics, TM statistics windowed to the run.
    snap: ServiceSnapshot,
    /// The `net`, `migration` and `failover` blocks that apply.
    events: Vec<(&'static str, Json)>,
}

impl Cell {
    /// `n` per second of the arrival window.
    fn rate(&self, n: u64) -> f64 {
        n as f64 / self.secs
    }

    /// Nearest-rank quantile of the acknowledged latencies, µs.
    fn latency_us(&self, q: f64) -> Json {
        let s = &self.tally.lat_us;
        let rank = (s.len().max(1) - 1) as f64 * q;
        s.get(rank.round() as usize)
            .copied()
            .map_or(Json::Null, Json::Num)
    }

    /// `counter` summed over the shard TMs and the 2PC coordinator's
    /// decision-log TM, whose commits are part of every cross-shard
    /// request's persist bill.
    fn persisted(&self, counter: Counter) -> u64 {
        let coord = std::iter::once(&self.snap.coordinator.tm);
        let tms = self.snap.shards.iter().map(|s| &s.tm).chain(coord);
        tms.map(|tm| tm.get(counter)).sum()
    }

    /// `counter` per op the service committed (0 for an idle cell).
    fn per_op(&self, counter: Counter) -> f64 {
        match self.snap.ops() + self.snap.coordinator.cross_ops {
            0 => 0.0,
            ops => self.persisted(counter) as f64 / ops as f64,
        }
    }

    fn json(&self) -> Json {
        let (t, snap) = (&self.tally, &self.snap);
        let mut cell = Json::obj()
            .field("mix", self.mix)
            .field("shards", self.shards)
            .field("batch_max", self.batch);
        cell = match self.pace {
            Pace::Open(r) => cell.field("offered_rate", r),
            Pace::Closed(n) => cell.field("clients", n),
        };
        let quantiles = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)];
        let latency = quantiles
            .iter()
            .fold(Json::obj(), |j, &(k, q)| j.field(k, self.latency_us(q)));
        cell = cell
            .field("duration_secs", self.secs)
            .field("offered", t.offered)
            .field("ok", t.ok)
            .field("overloaded", t.overloaded)
            .field("ring_full", t.ring_full)
            .field("timeout", t.timeout)
            .field("aborted", t.aborted)
            .field("stopped", t.stopped)
            .field("offered_req_per_sec", self.rate(t.offered))
            .field("goodput_req_per_sec", self.rate(t.ok))
            .field("tput_ops_per_sec", self.rate(t.ok_ops))
            .field("max_in_flight", snap.ring.in_flight_hwm)
            .field("latency_us", latency)
            .field(
                "persist",
                Json::obj()
                    .field("flushes_per_op", self.per_op(Counter::Flush))
                    .field("redundant_flushes", self.persisted(Counter::RedundantFlush))
                    .field("fences_per_op", self.per_op(Counter::Fence)),
            )
            .field(
                "locks",
                Json::obj()
                    .field("held_hwm", snap.lock_held_hwm)
                    .field("contended", snap.lock_contended)
                    .field("stripe_contended", snap.stripe_contended()),
            );
        for (name, block) in &self.events {
            cell = cell.field(name, block.clone());
        }
        cell
    }

    /// The report: the artifact cell's fields, one line per block, then
    /// the service's own ring, 2PC and replication summaries.
    fn print(&self) {
        let Json::Obj(fields) = self.json() else {
            unreachable!("a cell is an object")
        };
        let (head, rest) = fields.split_at(4);
        let (scalars, blocks): (Vec<_>, Vec<_>) = rest
            .iter()
            .cloned()
            .partition(|(_, v)| !matches!(v, Json::Obj(_)));
        let behind =
            matches!(self.pace, Pace::Open(r) if self.rate(self.tally.offered) < BEHIND * r);
        let behind = if behind { " generator behind" } else { "" };
        println!("\n== {} ==", report_line(head));
        println!("  {}{behind}", report_line(&scalars));
        for (name, block) in blocks {
            if let Json::Obj(f) = block {
                println!("  {name}: {}", report_line(&f));
            }
        }
        let snap = &self.snap;
        let coord = (snap.coordinator.cross_batches > 0).then(|| snap.coordinator.to_string());
        let repl = snap.replication.as_ref().map(|r| r.to_string());
        let ring = Some(snap.ring.to_string());
        for line in [ring, coord, repl].into_iter().flatten() {
            println!("  {line}");
        }
    }
}

/// `key=value` pairs on one line, reals to three places.
fn report_line(fields: &[(String, Json)]) -> String {
    let pair = |(k, v): &(String, Json)| match v {
        Json::Str(s) => format!("{k}={s}"),
        Json::Num(x) => format!("{k}={x:.3}"),
        v => format!("{k}={v}"),
    };
    fields.iter().map(pair).collect::<Vec<_>>().join(" ")
}

/// Peak depth and throughput, and the worst persist overhead across the
/// cells, which `cargo xtask check-bench --max-flushes-per-op` gates.
fn summary_json(cells: &[Cell]) -> Json {
    let max = |f: fn(&Cell) -> f64| cells.iter().map(f).fold(0.0, f64::max);
    let depth = cells.iter().map(|c| c.snap.ring.in_flight_hwm).max();
    Json::obj()
        .field("max_in_flight", depth.unwrap_or(0))
        .field("peak_tput_ops_per_sec", max(|c| c.rate(c.tally.ok_ops)))
        .field("max_flushes_per_op", max(|c| c.per_op(Counter::Flush)))
        .field("max_fences_per_op", max(|c| c.per_op(Counter::Fence)))
}

/// xorshift64 PRNG for the generators.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// YCSB-style Zipfian key generator (`theta = 0` → uniform). The rank
/// is scrambled with a multiplicative hash so the hottest keys spread
/// across shards instead of clustering on one.
struct KeyGen {
    keys: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl KeyGen {
    fn new(keys: u64, theta: f64) -> KeyGen {
        if theta <= 0.0 {
            return KeyGen {
                keys,
                theta: 0.0,
                zetan: 0.0,
                alpha: 0.0,
                eta: 0.0,
            };
        }
        assert!(theta < 1.0, "zipf theta must be in [0, 1)");
        let zetan: f64 = (1..=keys).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        KeyGen {
            keys,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / keys as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn draw(&self, rng: &mut Rng) -> u64 {
        if self.theta <= 0.0 {
            return rng.next() % self.keys;
        }
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.keys as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        rank.min(self.keys - 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) % self.keys
    }
}

/// One request's ops for `mix`, routed through a fresh (epoch-0)
/// `RoutingTable`, so the sequential baseline can generate identical
/// streams without a service.
fn gen_ops(mix: Mix, keys: u64, table: &RoutingTable, rng: &mut Rng, kg: &KeyGen) -> Vec<MapOp> {
    let k = kg.draw(rng);
    let r = rng.next();
    match mix {
        Mix::ReadHeavy if r % 100 < 95 => vec![MapOp::Get(k)],
        Mix::ReadHeavy => vec![MapOp::Insert(k, r)],
        Mix::UpdateHeavy if r.is_multiple_of(2) => vec![MapOp::Get(k)],
        Mix::UpdateHeavy => vec![MapOp::Insert(k, r)],
        Mix::Scan => {
            let shard = table.route(k);
            (k..k + SCAN_SPAN)
                .filter(|&x| x < keys && table.route(x) == shard)
                .take(SCAN_WINDOW)
                .map(MapOp::Get)
                .collect()
        }
        Mix::CrossShard => {
            let shards = table.shards();
            let span = shards.min(XSHARD_SPAN);
            let mut seen = vec![false; shards];
            (k..k + SCAN_SPAN)
                .filter(|&x| !std::mem::replace(&mut seen[table.route(x % keys)], true))
                .take(span)
                .map(|x| MapOp::Insert(x % keys, r))
                .collect()
        }
    }
}

/// Sequential in-memory executor: the same op stream against a plain
/// `std` HashMap on one thread — no transactions, no flush/fence, no
/// queues. The upper bound batching amortizes the durable service
/// toward, recorded alongside every artifact.
fn sequential_baseline(sweep: &Sweep, mix: Mix) -> f64 {
    let table = RoutingTable::fresh(sweep.shard_counts.first().copied().unwrap_or(1));
    let kg = KeyGen::new(sweep.keys, sweep.zipf_theta);
    let mut rng = Rng(0xba5e_11e5);
    let mut map: HashMap<u64, u64> = HashMap::new();
    for k in 0..sweep.keys {
        if k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0 {
            map.insert(k, k + 1);
        }
    }
    let dur = sweep.seconds.min(0.2);
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed().as_secs_f64() < dur {
        for _ in 0..64 {
            for op in gen_ops(mix, sweep.keys, &table, &mut rng, &kg) {
                let out = match op {
                    MapOp::Get(k) => map.get(&k).copied(),
                    MapOp::Insert(k, v) => map.insert(k, v),
                    MapOp::Remove(k) => map.remove(&k),
                };
                std::hint::black_box(out);
                ops += 1;
            }
        }
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

fn baseline_json(sweep: &Sweep) -> Json {
    let mut tputs = Json::obj();
    for &mix in &sweep.mixes {
        tputs = tputs.field(mix.label(), sequential_baseline(sweep, mix));
    }
    Json::obj()
        .field("mode", "sequential-inmemory")
        .field("tput_ops_per_sec", tputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvserve::op_key;

    #[test]
    fn scans_stay_on_one_shard_and_cross_shard_puts_never_share_one() {
        let keys = 1 << 10;
        let kg = KeyGen::new(keys, 0.0);
        let mut rng = Rng(0x5eed);
        for shards in 1..=4 {
            let table = RoutingTable::fresh(shards);
            for _ in 0..2_000 {
                let scan = gen_ops(Mix::Scan, keys, &table, &mut rng, &kg);
                let home = table.route(op_key(scan[0]));
                assert!(
                    scan.iter().all(|&op| table.route(op_key(op)) == home),
                    "{shards} shards: scan spans shards: {scan:?}"
                );
                let puts = gen_ops(Mix::CrossShard, keys, &table, &mut rng, &kg);
                let mut seen = vec![false; shards];
                for &op in &puts {
                    let shard = table.route(op_key(op));
                    assert!(
                        !std::mem::replace(&mut seen[shard], true),
                        "{shards} shards: two ops on shard {shard}: {puts:?}"
                    );
                }
                assert!((1..=XSHARD_SPAN).contains(&puts.len()));
            }
        }
    }

    /// One short cell per transport × pace, on one shard with zero-latency
    /// PM: every offered request gets exactly one verdict and some are
    /// acknowledged. (`generate` itself fails the cell if a request is
    /// still unresolved after the drain.)
    #[test]
    fn every_transport_and_pace_resolves_every_request() {
        for net in [false, true] {
            for pace in [Pace::Closed(4), Pace::Open(20_000.0)] {
                let sweep = Sweep {
                    mixes: vec![Mix::UpdateHeavy],
                    shard_counts: vec![1],
                    batch_caps: vec![8],
                    paces: vec![pace],
                    seconds: 0.05,
                    keys: 1 << 10,
                    fast: true,
                    repl: false,
                    net,
                    migrate: false,
                    zipf_theta: 0.0,
                    ship_coalesce_us: 0,
                };
                let cell = run_cell(&sweep, Mix::UpdateHeavy, 1, 8, pace);
                let t = &cell.tally;
                let verdicts = [
                    t.ok,
                    t.ring_full,
                    t.overloaded,
                    t.timeout,
                    t.aborted,
                    t.stopped,
                ];
                assert!(t.ok > 0, "net={net} {pace:?}: nothing acknowledged");
                assert_eq!(
                    verdicts.iter().sum::<u64>(),
                    t.offered,
                    "net={net} {pace:?}"
                );
                assert_eq!(t.lat_us.len() as u64, t.ok, "net={net} {pace:?}");
            }
        }
    }
}
