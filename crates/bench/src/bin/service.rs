//! Closed-loop load generator for the `kvserve` durable KV service.
//!
//! Runs four YCSB-style mixes — read-heavy (95% get / 5% put),
//! update-heavy (50% get / 50% put), scan (atomic same-shard multi-get
//! windows) and cross-shard (atomic multi-puts spanning several shards,
//! committed via the 2PC coordinator) — across a sweep of shard counts
//! and batch-size caps, printing per-shard throughput, latency
//! percentiles, abort rates, mean committed batch sizes and a
//! per-outcome tally (ok / overloaded / timeout / aborted) so rejected
//! requests are reported as distinct outcomes rather than treated as
//! errors.
//!
//! The persistent-memory latency model defaults to Optane so the
//! flush/fence amortization from batching is visible (update-heavy
//! throughput should rise with `batch_max`); pass `--fast` to zero the
//! latency model for a quick functional sweep.
//!
//! `--repl` runs every cell with per-shard follower replication and
//! semi-synchronous acks: the report gains the replication lag (entries
//! the followers' applied state is behind the primaries) and each cell
//! ends with a full failover — every primary pool dropped, the followers
//! promoted — reporting the measured failover time.
//!
//! `--open-loop` switches from the closed-loop regime (in-flight depth
//! = client threads, each blocking per request) to an **open-loop**
//! load generator over the completion ring: a single submitting thread
//! offers requests at a controlled arrival rate (`--rates`, Poisson or
//! fixed-interval gaps via `--arrival`), reaps completions without ever
//! parking per request, and reports latency percentiles *at that
//! offered rate* — the methodology that exposes coordinated omission.
//! Keys draw YCSB-Zipfian with `--zipf <theta>` (0 = uniform). Each
//! open-loop report starts with a sequential in-memory baseline (a
//! plain `std` HashMap on one thread — no durability, no concurrency)
//! as the upper bound the durable service is amortizing toward.
//!
//! `--net` runs the open-loop generator **through the wire-protocol
//! front end**: the service is served over loopback TCP
//! (`Service::serve_net`), and a single submitting thread drives framed
//! request batches through one `NetClient` at the offered rate, reaping
//! response frames opportunistically — never parking per request — so
//! the socket path is measured under the same coordinated-omission-free
//! methodology as `--open-loop`. Latency percentiles are *client-side*
//! (send-to-response on the wire, queueing included); explicit `Busy`
//! frames — the wire rendering of ring backpressure — are counted as
//! their own outcome, and the report carries the server's frame/byte
//! counters alongside the ring and persist numbers.
//!
//! `--migrate` measures **elastic resharding under load**: each cell
//! runs the closed-loop clients through ring handles, splits shard 0
//! live mid-run (streaming its moving slots to a newly provisioned
//! shard and flipping the routing table), and reports the throughput
//! before / during / after the migration, the measured write-pause at
//! the flip, and how many requests saw a reroute retry — the dip is the
//! cost of elasticity, the pause is the only moment writes wait.
//!
//! `--out FILE` writes the run as a `kvserve-bench-v1` JSON artifact
//! (see docs/benchmarking.md) in either mode; CI schema-validates the
//! committed `BENCH_*.json` files with `cargo xtask check-bench`.
//!
//! ```text
//! cargo run -p bench --release --bin service -- \
//!     --shards 1,2,4 --batch 1,8 --clients 8 --seconds 0.4
//! cargo run -p bench --release --bin service -- \
//!     --mixes update-heavy --repl --fast
//! cargo run -p bench --release --bin service -- \
//!     --open-loop --rates 5000,20000,80000 --zipf 0.99 \
//!     --mixes update-heavy --shards 2 --batch 8 --out BENCH_ring.json
//! ```

use bench::json::Json;
use bench::{fmt_tput, Args};
use kvserve::{
    MapOp, MigrateSpec, NetClient, NetConfig, Ring, RoutingTable, ServeError, Service,
    ServiceConfig, Ticket,
};
use pmem::LatencyModel;
use std::collections::HashMap;
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

/// Per-cell request outcome tally. Backpressure, deadline and conflict
/// rejections are expected service responses under load, not failures,
/// so they are counted and reported instead of aborting the run.
#[derive(Default)]
struct Outcomes {
    ok: AtomicU64,
    overloaded: AtomicU64,
    timeout: AtomicU64,
    aborted: AtomicU64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Arrival {
    /// Exponentially distributed inter-arrival gaps (Poisson process).
    Poisson,
    /// Fixed inter-arrival gaps (deterministic pacing).
    Fixed,
}

impl Arrival {
    fn label(self) -> &'static str {
        match self {
            Arrival::Poisson => "poisson",
            Arrival::Fixed => "fixed",
        }
    }
}

struct Sweep {
    mixes: Vec<Mix>,
    shard_counts: Vec<usize>,
    batch_caps: Vec<usize>,
    clients: usize,
    seconds: f64,
    keys: u64,
    fast: bool,
    repl: bool,
    /// Open-loop offered rates (requests/sec).
    rates: Vec<f64>,
    arrival: Arrival,
    /// Zipfian skew for open-loop key draws; 0 = uniform.
    zipf_theta: f64,
    /// Shipper group-commit window in microseconds (0 = disabled): how
    /// long a woken shipper lingers so more op-log entries ride one
    /// follower commit. Trades ack latency for persist traffic.
    ship_coalesce_us: u64,
}

fn main() {
    let args = Args::parse();
    let open_loop = args.get("open-loop").is_some();
    let migrate = args.get("migrate").is_some();
    let net = args.get("net").is_some();
    let sweep = Sweep {
        mixes: args
            .list("mixes")
            .map(|v| v.iter().filter_map(|s| Mix::parse(s)).collect())
            .unwrap_or_else(|| Mix::ALL.to_vec()),
        shard_counts: args
            .list("shards")
            .map(|v| v.iter().filter_map(|s| s.parse().ok()).collect())
            .unwrap_or_else(|| vec![1, 2, 4]),
        batch_caps: args
            .list("batch")
            .map(|v| v.iter().filter_map(|s| s.parse().ok()).collect())
            .unwrap_or_else(|| vec![1, 8]),
        clients: args.get_or("clients", 8),
        seconds: args.get_or("seconds", 0.4),
        keys: args.get_or("keys", 1u64 << 13),
        fast: args.get("fast").is_some(),
        repl: args.get("repl").is_some(),
        rates: args
            .list("rates")
            .map(|v| v.iter().filter_map(|s| s.parse().ok()).collect())
            .unwrap_or_else(|| vec![5_000.0, 20_000.0, 80_000.0]),
        arrival: match args.get("arrival") {
            Some("fixed") => Arrival::Fixed,
            _ => Arrival::Poisson,
        },
        zipf_theta: args.get_or("zipf", 0.0),
        ship_coalesce_us: args.get_or("ship-coalesce", 0u64),
    };
    let cells = if migrate {
        run_migrate(&sweep)
    } else if net {
        run_net_loop(&sweep)
    } else if open_loop {
        run_open_loop(&sweep)
    } else {
        run_closed_loop(&sweep)
    };
    if let Some(path) = args.get("out") {
        let report = Json::obj()
            .field("schema", "kvserve-bench-v1")
            .field(
                "mode",
                if migrate {
                    "migrate"
                } else if net {
                    "net-open-loop"
                } else if open_loop {
                    "open-loop"
                } else {
                    "closed-loop"
                },
            )
            .field("pm", if sweep.fast { "zero-latency" } else { "optane" })
            .field("keys", sweep.keys)
            .field("zipf_theta", sweep.zipf_theta)
            .field("arrival", sweep.arrival.label())
            .field("replication", sweep.repl)
            .field("baseline", baseline_json(&sweep))
            .field("summary", summary_json(&cells))
            .field("cells", Json::Arr(cells));
        std::fs::write(path, format!("{report}\n")).expect("write bench artifact");
        println!("\nwrote {path}");
    }
}

fn run_closed_loop(sweep: &Sweep) -> Vec<Json> {
    println!(
        "kvserve service benchmark: {} keys, {} clients, {:.2}s per cell, pm={}{}",
        sweep.keys,
        sweep.clients,
        sweep.seconds,
        if sweep.fast { "zero-latency" } else { "optane" },
        if sweep.repl {
            ", replication=semi-sync"
        } else {
            ""
        },
    );
    let mut cells = Vec::new();
    for &mix in &sweep.mixes {
        for &shards in &sweep.shard_counts {
            for &batch in &sweep.batch_caps {
                cells.push(run_cell(sweep, mix, shards, batch));
            }
        }
    }
    cells
}

/// Peak achieved throughput, in-flight depth, and worst-case persist
/// overhead across the run's cells. The persist maxima are what
/// `cargo xtask check-bench --max-flushes-per-op` gates: no cell of the
/// committed artifact may spend more flushes (or fences) per completed
/// operation than the threshold.
fn summary_json(cells: &[Json]) -> Json {
    let mut max_in_flight = 0u64;
    let mut peak = 0.0f64;
    let (mut max_flushes, mut max_fences) = (0.0f64, 0.0f64);
    for c in cells {
        let Json::Obj(fields) = c else { continue };
        for (k, v) in fields {
            match (k.as_str(), v) {
                ("max_in_flight", Json::Int(n)) => max_in_flight = max_in_flight.max(*n),
                ("tput_ops_per_sec", Json::Num(t)) => peak = peak.max(*t),
                ("persist", Json::Obj(p)) => {
                    for (pk, pv) in p {
                        match (pk.as_str(), pv) {
                            ("flushes_per_op", Json::Num(f)) => max_flushes = max_flushes.max(*f),
                            ("fences_per_op", Json::Num(f)) => max_fences = max_fences.max(*f),
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Json::obj()
        .field("max_in_flight", max_in_flight)
        .field("peak_tput_ops_per_sec", peak)
        .field("max_flushes_per_op", max_flushes)
        .field("max_fences_per_op", max_fences)
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

fn run_cell(sweep: &Sweep, mix: Mix, shards: usize, batch: usize) -> Json {
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
    let tm_before: Vec<_> = before.shards.iter().map(|s| s.tm).collect();
    let coord_before = before.coordinator.tm;

    let stop = AtomicBool::new(false);
    let outcomes = Outcomes::default();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..sweep.clients {
            let (svc, stop, outcomes) = (&svc, &stop, &outcomes);
            scope.spawn(move || client_loop(svc, stop, outcomes, mix, sweep.keys, c as u64));
        }
        while start.elapsed().as_secs_f64() < sweep.seconds {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let secs = start.elapsed().as_secs_f64();

    // Report with TM statistics windowed to the measurement period.
    let mut snap = svc.snapshot();
    for (s, before) in snap.shards.iter_mut().zip(&tm_before) {
        s.tm = s.tm.since(before);
    }
    snap.coordinator.tm = snap.coordinator.tm.since(&coord_before);
    println!(
        "\n== mix={} shards={} batch_max={} ==",
        mix.label(),
        shards,
        batch
    );
    for s in &snap.shards {
        println!("  {s}  tput={}/s", fmt_tput(s.ops() as f64 / secs));
    }
    println!(
        "  total: tput={}/s mean_batch={:.2} p50={:?} p99={:?} abort_rate={:.3}",
        fmt_tput((snap.ops() + snap.coordinator.cross_ops) as f64 / secs),
        snap.mean_batch(),
        snap.latency_quantile(0.50).unwrap_or_default(),
        snap.latency_quantile(0.99).unwrap_or_default(),
        snap.abort_rate(),
    );
    println!(
        "  outcomes: ok={} overloaded={} timeout={} aborted={}",
        outcomes.ok.load(Ordering::Relaxed),
        outcomes.overloaded.load(Ordering::Relaxed),
        outcomes.timeout.load(Ordering::Relaxed),
        outcomes.aborted.load(Ordering::Relaxed),
    );
    // The blocking calls ride the internal completion ring, so the ring
    // line shows queue-inclusive submit-to-complete latency and the
    // closed-loop in-flight depth (≈ client threads).
    println!("  {}", snap.ring);
    // Persist-overhead for the measurement window, summed over the shard
    // TMs *and* the 2PC coordinator's decision-log TM (its decision and
    // resolve commits are part of every cross-shard batch's persistence
    // bill): flushes and fences per committed transaction show how well
    // batching amortizes the persist cost, and redundant flushes (lines
    // flushed with no store since their last flush) are pure waste the
    // sanitizer's perf class counts.
    let (mut flushes, mut redundant, mut fences, mut commits) = (0u64, 0u64, 0u64, 0u64);
    for tm in snap
        .shards
        .iter()
        .map(|s| &s.tm)
        .chain(std::iter::once(&snap.coordinator.tm))
    {
        flushes += tm.get(Counter::Flush);
        redundant += tm.get(Counter::RedundantFlush);
        fences += tm.get(Counter::Fence);
        commits += tm.commits();
    }
    let per_commit = |n: u64| {
        if commits == 0 {
            0.0
        } else {
            n as f64 / commits as f64
        }
    };
    println!(
        "  persist: flushes={flushes} ({:.2}/commit) redundant={redundant} fences={fences} ({:.2}/commit)",
        per_commit(flushes),
        per_commit(fences),
    );
    // Lock-discipline observability: fast-path stripe contention always;
    // held-lock depth and service-lock contention when locksan is on.
    if snap.lock_held_hwm > 0 || snap.lock_contended > 0 || snap.stripe_contended() > 0 {
        println!(
            "  locks: held_hwm={} contended={} stripe_contended={}",
            snap.lock_held_hwm,
            snap.lock_contended,
            snap.stripe_contended(),
        );
    }
    if snap.coordinator.cross_batches > 0 {
        println!("  {}", snap.coordinator);
    }
    if let Some(repl) = &snap.replication {
        println!("  {repl}");
    }
    if sweep.repl {
        // End the cell with the failure shape replication exists for:
        // every primary pool is lost and the followers take over. The
        // reported duration covers log recovery, the receive-log tail
        // apply, the durable promotion, and the 2PC decision replay.
        let (promoted, report) =
            Service::promote(svc.fail_over(), None).expect("no probe installed");
        println!(
            "  failover: promoted in {:.3?} (tail_applied={} replayed={})",
            report.duration, report.tail_applied, report.replayed
        );
        drop(promoted);
    }

    let total_ops = snap.ops() + snap.coordinator.cross_ops;
    let per_op = |n: u64| {
        if total_ops == 0 {
            0.0
        } else {
            n as f64 / total_ops as f64
        }
    };
    Json::obj()
        .field("mix", mix.label())
        .field("shards", shards)
        .field("batch_max", batch)
        .field("clients", sweep.clients)
        .field("duration_secs", secs)
        .field("tput_ops_per_sec", total_ops as f64 / secs)
        .field("ok", outcomes.ok.load(Ordering::Relaxed))
        .field("overloaded", outcomes.overloaded.load(Ordering::Relaxed))
        .field("timeout", outcomes.timeout.load(Ordering::Relaxed))
        .field("aborted", outcomes.aborted.load(Ordering::Relaxed))
        .field("ring_full", snap.ring.ring_full)
        .field("max_in_flight", snap.ring.in_flight_hwm)
        .field("latency_us", latency_json(&snap.ring.latency))
        .field(
            "persist",
            Json::obj()
                .field("flushes_per_op", per_op(flushes))
                .field("redundant_flushes", redundant)
                .field("fences_per_op", per_op(fences)),
        )
        .field(
            "locks",
            Json::obj()
                .field("held_hwm", snap.lock_held_hwm)
                .field("contended", snap.lock_contended)
                .field("stripe_contended", snap.stripe_contended()),
        )
}

/// Submit-to-complete percentiles in microseconds.
fn latency_json(h: &kvserve::HistogramSnapshot) -> Json {
    let us = |q: f64| {
        h.quantile(q)
            .map_or(Json::Null, |d| Json::Num(d.as_secs_f64() * 1e6))
    };
    Json::obj()
        .field("p50", us(0.50))
        .field("p95", us(0.95))
        .field("p99", us(0.99))
        .field("p999", us(0.999))
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

/// One request's ops for `mix` — same shapes as the closed-loop client
/// but routed through a fresh (epoch-0) `RoutingTable`, so the
/// sequential baseline can generate identical streams without a service.
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

fn run_migrate(sweep: &Sweep) -> Vec<Json> {
    println!(
        "kvserve live-migration benchmark: {} keys, {} clients, {:.2}s windows, pm={}",
        sweep.keys,
        sweep.clients,
        sweep.seconds,
        if sweep.fast { "zero-latency" } else { "optane" },
    );
    let mut cells = Vec::new();
    for &mix in &sweep.mixes {
        for &shards in &sweep.shard_counts {
            for &batch in &sweep.batch_caps {
                cells.push(run_migrate_cell(sweep, mix, shards, batch));
            }
        }
    }
    cells
}

/// One live-migration cell: closed-loop clients over ring handles (the
/// handles survive the flip — the shared router re-targets them), a
/// pre-migration window, the split of shard 0, and a post-migration
/// window on the grown deployment.
fn run_migrate_cell(sweep: &Sweep, mix: Mix, shards: usize, batch: usize) -> Json {
    let svc = Service::new(service_config(sweep, shards, batch));
    for k in 0..sweep.keys {
        if k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0 {
            svc.put(k, k + 1).expect("prefill write");
        }
    }
    svc.reset_metrics();

    let ring = svc.ring();
    let stop = AtomicBool::new(false);
    let oks = AtomicU64::new(0);
    let rerouted = AtomicU64::new(0);
    let window = Duration::from_secs_f64(sweep.seconds.max(0.05));

    let (svc, report, pre_rate, mig_rate, post_rate) = std::thread::scope(|scope| {
        for c in 0..sweep.clients {
            let ring = ring.clone();
            let (stop, oks, rerouted) = (&stop, &oks, &rerouted);
            scope.spawn(move || {
                migrate_client_loop(
                    &ring, stop, oks, rerouted, mix, sweep.keys, shards, c as u64,
                )
            });
        }
        // Pre-migration window on the original topology.
        let t0 = Instant::now();
        std::thread::sleep(window);
        let pre_ok = oks.load(Ordering::Relaxed);
        let pre_rate = pre_ok as f64 / t0.elapsed().as_secs_f64();

        // The split, live under the clients' load.
        let t1 = Instant::now();
        let spec = MigrateSpec::split(&svc.routing(), 0);
        let (svc, report) = svc.migrate(spec).expect("no probe installed");
        let mig_secs = t1.elapsed().as_secs_f64();
        let mig_rate = (oks.load(Ordering::Relaxed) - pre_ok) as f64 / mig_secs;

        // Post-migration window on the grown topology.
        let t2 = Instant::now();
        let base = oks.load(Ordering::Relaxed);
        std::thread::sleep(window);
        let post_rate = (oks.load(Ordering::Relaxed) - base) as f64 / t2.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (svc, report, pre_rate, mig_rate, post_rate)
    });

    let snap = svc.snapshot();
    println!(
        "\n== migrate mix={} shards={}->{} batch_max={} ==",
        mix.label(),
        shards,
        shards + 1,
        batch
    );
    println!(
        "  tput: pre={}/s during={}/s post={}/s (dip {:.0}%)",
        fmt_tput(pre_rate),
        fmt_tput(mig_rate),
        fmt_tput(post_rate),
        if pre_rate > 0.0 {
            (1.0 - mig_rate / pre_rate).max(0.0) * 100.0
        } else {
            0.0
        },
    );
    println!(
        "  migration: total={:.3?} flip_pause={:.3?} base_keys={} catchup_entries={} epoch={}",
        report.duration, report.flip_pause, report.base_keys, report.catchup_entries, report.epoch,
    );
    println!(
        "  rerouted: client-visible={} worker-shed={}",
        rerouted.load(Ordering::Relaxed),
        snap.shards.iter().map(|s| s.rerouted).sum::<u64>(),
    );

    Json::obj()
        .field("mix", mix.label())
        .field("shards", shards)
        .field("shards_after", shards + 1)
        .field("batch_max", batch)
        .field("clients", sweep.clients)
        .field("tput_pre_ops_per_sec", pre_rate)
        .field("tput_during_ops_per_sec", mig_rate)
        .field("tput_post_ops_per_sec", post_rate)
        .field("migrate_secs", report.duration.as_secs_f64())
        .field("flip_pause_us", report.flip_pause.as_secs_f64() * 1e6)
        .field("base_keys", report.base_keys)
        .field("catchup_entries", report.catchup_entries)
        .field("routing_epoch", report.epoch)
        .field("rerouted", rerouted.load(Ordering::Relaxed))
}

/// Closed-loop client over a ring handle: the handle (not the consumed
/// `Service`) is what survives the migration. Reroute and flip-window
/// verdicts retry; they are the migration's client-visible cost and are
/// counted, not hidden.
#[allow(clippy::too_many_arguments)]
fn migrate_client_loop(
    ring: &Ring,
    stop: &AtomicBool,
    oks: &AtomicU64,
    rerouted: &AtomicU64,
    mix: Mix,
    keys: u64,
    shards: usize,
    client: u64,
) {
    let kg = KeyGen::new(keys, 0.0);
    let table = RoutingTable::fresh(shards);
    let mut rng = Rng(0xbe7c_5eed ^ (client + 1).wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
    while !stop.load(Ordering::Relaxed) {
        let ops = gen_ops(mix, keys, &table, &mut rng, &kg);
        if ops.is_empty() {
            continue;
        }
        let verdict = ring.submit_batch(ops).and_then(|t| ring.wait(t));
        match verdict {
            Ok(_) => {
                oks.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServeError::Overloaded { retry_after }) => std::thread::sleep(retry_after),
            Err(ServeError::Rerouted) => {
                rerouted.fetch_add(1, Ordering::Relaxed);
            }
            // Flip-window sheds: never acked, safe to drop and move on.
            Err(ServeError::Timeout) | Err(ServeError::Stopped) | Err(ServeError::Aborted) => {}
            Err(e) => panic!("client under migration: {e}"),
        }
    }
}

fn run_open_loop(sweep: &Sweep) -> Vec<Json> {
    println!(
        "kvserve open-loop benchmark: {} keys, zipf theta={}, arrival={}, {:.2}s per cell, pm={}",
        sweep.keys,
        sweep.zipf_theta,
        sweep.arrival.label(),
        sweep.seconds,
        if sweep.fast { "zero-latency" } else { "optane" },
    );
    let mut cells = Vec::new();
    for &mix in &sweep.mixes {
        for &shards in &sweep.shard_counts {
            for &batch in &sweep.batch_caps {
                for &rate in &sweep.rates {
                    cells.push(run_open_cell(sweep, mix, shards, batch, rate));
                }
            }
        }
    }
    cells
}

/// Completion tally for one open-loop cell.
#[derive(Default)]
struct OpenTally {
    ok_reqs: u64,
    ok_ops: u64,
    timeout: u64,
    aborted: u64,
    stopped: u64,
}

impl OpenTally {
    fn record(&mut self, result: &Result<Vec<Option<u64>>, ServeError>, nops: usize) {
        match result {
            Ok(_) => {
                self.ok_reqs += 1;
                self.ok_ops += nops as u64;
            }
            Err(ServeError::Timeout) => self.timeout += 1,
            Err(ServeError::Aborted) => self.aborted += 1,
            Err(ServeError::Stopped) => self.stopped += 1,
            Err(e) => panic!("unexpected completion verdict: {e}"),
        }
    }
}

fn run_open_cell(sweep: &Sweep, mix: Mix, shards: usize, batch: usize, rate: f64) -> Json {
    let svc = Service::new(service_config(sweep, shards, batch));
    for k in 0..sweep.keys {
        if k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0 {
            svc.put(k, k + 1).expect("prefill write");
        }
    }
    svc.reset_metrics();
    let before = svc.snapshot();
    let tm_before: Vec<_> = before.shards.iter().map(|s| s.tm).collect();
    let coord_before = before.coordinator.tm;

    let ring = svc.ring();
    let kg = KeyGen::new(sweep.keys, sweep.zipf_theta);
    let table = RoutingTable::fresh(shards);
    let mut rng = Rng(0x0be7_ca11 ^ (rate as u64) | 1);
    let period = 1.0 / rate;
    // Submitted tickets still awaiting their completion, with the op
    // count each carries.
    let mut inflight: HashMap<Ticket, usize> = HashMap::new();
    let mut tally = OpenTally::default();
    let (mut offered, mut ring_full, mut overloaded) = (0u64, 0u64, 0u64);

    // The open loop proper: ONE submitting thread. Arrivals follow the
    // virtual schedule regardless of how the service keeps up — when it
    // falls behind, depth (and then RingFull drops) absorb the excess,
    // which is exactly the signal a closed loop hides.
    let start = Instant::now();
    let mut next = 0.0f64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= sweep.seconds {
            break;
        }
        if elapsed >= next {
            offered += 1;
            let ops = gen_ops(mix, sweep.keys, &table, &mut rng, &kg);
            let nops = ops.len();
            match ring.submit_batch(ops) {
                Ok(t) => {
                    inflight.insert(t, nops);
                }
                Err(ServeError::RingFull) => ring_full += 1,
                Err(ServeError::Overloaded { .. }) => overloaded += 1,
                Err(e) => panic!("submit failed: {e}"),
            }
            next += match sweep.arrival {
                Arrival::Fixed => period,
                // Exponential gap: a Poisson arrival process.
                Arrival::Poisson => -rng.unit().ln() * period,
            };
            // Reap opportunistically between arrivals; never park.
            if let Some(c) = ring.complete() {
                let nops = inflight.remove(&c.ticket).expect("unknown ticket");
                tally.record(&c.result, nops);
            }
        } else {
            let mut idle = true;
            for c in ring.drain() {
                let nops = inflight.remove(&c.ticket).expect("unknown ticket");
                tally.record(&c.result, nops);
                idle = false;
            }
            if idle {
                let gap = (next - start.elapsed().as_secs_f64()).min(200e-6);
                if gap > 20e-6 {
                    std::thread::sleep(Duration::from_secs_f64(gap));
                }
            }
        }
    }
    // Drain: every accepted ticket resolves (deadlines bound the wait).
    let grace = Instant::now() + Duration::from_secs(5);
    while !inflight.is_empty() && Instant::now() < grace {
        for c in ring.drain() {
            let nops = inflight.remove(&c.ticket).expect("unknown ticket");
            tally.record(&c.result, nops);
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(
        inflight.is_empty(),
        "tickets unresolved after drain: {}",
        inflight.len()
    );

    let mut snap = svc.snapshot();
    for (s, before) in snap.shards.iter_mut().zip(&tm_before) {
        s.tm = s.tm.since(before);
    }
    snap.coordinator.tm = snap.coordinator.tm.since(&coord_before);
    let (mut flushes, mut redundant, mut fences) = (0u64, 0u64, 0u64);
    for tm in snap
        .shards
        .iter()
        .map(|s| &s.tm)
        .chain(std::iter::once(&snap.coordinator.tm))
    {
        flushes += tm.get(Counter::Flush);
        redundant += tm.get(Counter::RedundantFlush);
        fences += tm.get(Counter::Fence);
    }
    let total_ops = snap.ops() + snap.coordinator.cross_ops;
    let per_op = |n: u64| {
        if total_ops == 0 {
            0.0
        } else {
            n as f64 / total_ops as f64
        }
    };
    let us = |q: f64| {
        snap.ring
            .latency
            .quantile(q)
            .map_or(f64::NAN, |d| d.as_secs_f64() * 1e6)
    };
    println!(
        "\n== open-loop mix={} shards={} batch_max={} rate={}/s ==",
        mix.label(),
        shards,
        batch,
        fmt_tput(rate),
    );
    println!(
        "  offered={offered} ok={} timeout={} aborted={} stopped={} dropped(ring_full={ring_full} overloaded={overloaded})",
        tally.ok_reqs, tally.timeout, tally.aborted, tally.stopped,
    );
    println!(
        "  tput={}/s max_in_flight={} s2c p50={:.0}us p95={:.0}us p99={:.0}us p999={:.0}us",
        fmt_tput(tally.ok_ops as f64 / secs),
        snap.ring.in_flight_hwm,
        us(0.50),
        us(0.95),
        us(0.99),
        us(0.999),
    );
    println!(
        "  persist: flushes/op={:.2} fences/op={:.2} redundant={redundant}",
        per_op(flushes),
        per_op(fences),
    );

    Json::obj()
        .field("mix", mix.label())
        .field("shards", shards)
        .field("batch_max", batch)
        .field("offered_rate", rate)
        .field("duration_secs", secs)
        .field("offered", offered)
        .field("ok", tally.ok_reqs)
        .field("timeout", tally.timeout)
        .field("aborted", tally.aborted)
        .field("stopped", tally.stopped)
        .field("ring_full", ring_full)
        .field("overloaded", overloaded)
        .field("tput_ops_per_sec", tally.ok_ops as f64 / secs)
        .field("max_in_flight", snap.ring.in_flight_hwm)
        .field("latency_us", latency_json(&snap.ring.latency))
        .field(
            "persist",
            Json::obj()
                .field("flushes_per_op", per_op(flushes))
                .field("redundant_flushes", redundant)
                .field("fences_per_op", per_op(fences)),
        )
        .field(
            "locks",
            Json::obj()
                .field("held_hwm", snap.lock_held_hwm)
                .field("contended", snap.lock_contended)
                .field("stripe_contended", snap.stripe_contended()),
        )
}

fn run_net_loop(sweep: &Sweep) -> Vec<Json> {
    println!(
        "kvserve wire-protocol open-loop benchmark: {} keys, zipf theta={}, arrival={}, {:.2}s per cell, pm={}",
        sweep.keys,
        sweep.zipf_theta,
        sweep.arrival.label(),
        sweep.seconds,
        if sweep.fast { "zero-latency" } else { "optane" },
    );
    let mut cells = Vec::new();
    for &mix in &sweep.mixes {
        for &shards in &sweep.shard_counts {
            for &batch in &sweep.batch_caps {
                for &rate in &sweep.rates {
                    cells.push(run_net_cell(sweep, mix, shards, batch, rate));
                }
            }
        }
    }
    cells
}

/// Resolve one response frame against the in-flight table: OK acks add
/// their client-side send-to-response latency sample; every error frame
/// is a definite verdict tallied by class (`Busy` is the wire rendering
/// of both backpressure rejections).
fn reap_frame(
    resp: kvserve::net::ResponseFrame,
    inflight: &mut HashMap<u64, (usize, Instant)>,
    tally: &mut OpenTally,
    busy: &mut u64,
    lat_us: &mut Vec<f64>,
) {
    let (nops, sent) = inflight.remove(&resp.corr).expect("unknown correlation id");
    match &resp.reply {
        Ok(_) => {
            tally.ok_reqs += 1;
            tally.ok_ops += nops as u64;
            lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        Err(ServeError::Overloaded { .. }) => *busy += 1,
        Err(ServeError::Timeout) => tally.timeout += 1,
        Err(ServeError::Aborted) => tally.aborted += 1,
        Err(ServeError::Stopped) => tally.stopped += 1,
        Err(e) => panic!("unexpected wire verdict: {e}"),
    }
}

/// Percentile of an already-sorted client-side latency sample set.
fn sample_quantile(sorted: &[f64], q: f64) -> Json {
    if sorted.is_empty() {
        return Json::Null;
    }
    Json::Num(sorted[((sorted.len() - 1) as f64 * q).round() as usize])
}

/// One open-loop cell through the wire: same virtual arrival schedule
/// as [`run_open_cell`], but every request crosses loopback TCP as a
/// framed batch and every verdict comes back as a response frame. The
/// server multiplexes onto its 4096-slot ring; when the offered rate
/// outruns the service, depth absorbs the excess until the ring (or the
/// connection cap) is full and the overflow comes back as `Busy`.
fn run_net_cell(sweep: &Sweep, mix: Mix, shards: usize, batch: usize, rate: f64) -> Json {
    let svc = Service::new(service_config(sweep, shards, batch));
    for k in 0..sweep.keys {
        if k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0 {
            svc.put(k, k + 1).expect("prefill write");
        }
    }
    svc.reset_metrics();
    let before = svc.snapshot();
    let tm_before: Vec<_> = before.shards.iter().map(|s| s.tm).collect();
    let coord_before = before.coordinator.tm;

    let server = svc.serve_net(NetConfig::default()).expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr()).expect("connect loopback");

    let kg = KeyGen::new(sweep.keys, sweep.zipf_theta);
    let table = RoutingTable::fresh(shards);
    let mut rng = Rng(0x6e7_ca11 ^ (rate as u64) | 1);
    let period = 1.0 / rate;
    // corr → (op count, send instant) for requests still on the wire.
    let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut tally = OpenTally::default();
    let (mut offered, mut busy) = (0u64, 0u64);
    let mut lat_us: Vec<f64> = Vec::new();

    let start = Instant::now();
    let mut next = 0.0f64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= sweep.seconds {
            break;
        }
        if elapsed >= next {
            offered += 1;
            let ops = gen_ops(mix, sweep.keys, &table, &mut rng, &kg);
            let nops = ops.len();
            let corr = client.send_batch(&ops).expect("send over loopback");
            inflight.insert(corr, (nops, Instant::now()));
            next += match sweep.arrival {
                Arrival::Fixed => period,
                Arrival::Poisson => -rng.unit().ln() * period,
            };
            // Reap opportunistically between arrivals; never park.
            if let Some(resp) = client.try_recv().expect("reap response") {
                reap_frame(resp, &mut inflight, &mut tally, &mut busy, &mut lat_us);
            }
        } else {
            let mut idle = true;
            while let Some(resp) = client.try_recv().expect("reap response") {
                reap_frame(resp, &mut inflight, &mut tally, &mut busy, &mut lat_us);
                idle = false;
            }
            if idle {
                let gap = (next - start.elapsed().as_secs_f64()).min(200e-6);
                if gap > 20e-6 {
                    std::thread::sleep(Duration::from_secs_f64(gap));
                }
            }
        }
    }
    // Drain: every request on the wire resolves to a frame (deadlines
    // bound the wait server-side).
    let grace = Instant::now() + Duration::from_secs(5);
    while !inflight.is_empty() && Instant::now() < grace {
        match client.try_recv().expect("drain response") {
            Some(resp) => reap_frame(resp, &mut inflight, &mut tally, &mut busy, &mut lat_us),
            None => std::thread::sleep(Duration::from_micros(100)),
        }
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(
        inflight.is_empty(),
        "requests unresolved after drain: {}",
        inflight.len()
    );
    let net = server.metrics();
    drop(client);
    server.stop();

    let mut snap = svc.snapshot();
    for (s, before) in snap.shards.iter_mut().zip(&tm_before) {
        s.tm = s.tm.since(before);
    }
    snap.coordinator.tm = snap.coordinator.tm.since(&coord_before);
    let (mut flushes, mut redundant, mut fences) = (0u64, 0u64, 0u64);
    for tm in snap
        .shards
        .iter()
        .map(|s| &s.tm)
        .chain(std::iter::once(&snap.coordinator.tm))
    {
        flushes += tm.get(Counter::Flush);
        redundant += tm.get(Counter::RedundantFlush);
        fences += tm.get(Counter::Fence);
    }
    let total_ops = snap.ops() + snap.coordinator.cross_ops;
    let per_op = |n: u64| {
        if total_ops == 0 {
            0.0
        } else {
            n as f64 / total_ops as f64
        }
    };
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let us = |q: f64| match sample_quantile(&lat_us, q) {
        Json::Num(v) => v,
        _ => f64::NAN,
    };
    println!(
        "\n== net mix={} shards={} batch_max={} rate={}/s ==",
        mix.label(),
        shards,
        batch,
        fmt_tput(rate),
    );
    println!(
        "  offered={offered} ok={} timeout={} aborted={} stopped={} busy={busy}",
        tally.ok_reqs, tally.timeout, tally.aborted, tally.stopped,
    );
    println!(
        "  tput={}/s max_in_flight={} wire p50={:.0}us p95={:.0}us p99={:.0}us p999={:.0}us",
        fmt_tput(tally.ok_ops as f64 / secs),
        snap.ring.in_flight_hwm,
        us(0.50),
        us(0.95),
        us(0.99),
        us(0.999),
    );
    println!("  {net}");
    println!(
        "  persist: flushes/op={:.2} fences/op={:.2} redundant={redundant}",
        per_op(flushes),
        per_op(fences),
    );

    Json::obj()
        .field("mix", mix.label())
        .field("shards", shards)
        .field("batch_max", batch)
        .field("offered_rate", rate)
        .field("duration_secs", secs)
        .field("offered", offered)
        .field("ok", tally.ok_reqs)
        .field("timeout", tally.timeout)
        .field("aborted", tally.aborted)
        .field("stopped", tally.stopped)
        .field("busy", busy)
        .field("tput_ops_per_sec", tally.ok_ops as f64 / secs)
        .field("max_in_flight", snap.ring.in_flight_hwm)
        .field(
            "latency_us",
            Json::obj()
                .field("p50", sample_quantile(&lat_us, 0.50))
                .field("p95", sample_quantile(&lat_us, 0.95))
                .field("p99", sample_quantile(&lat_us, 0.99))
                .field("p999", sample_quantile(&lat_us, 0.999)),
        )
        .field(
            "net",
            Json::obj()
                .field("frames_in", net.frames_in)
                .field("frames_out", net.frames_out)
                .field("bytes_in", net.bytes_in)
                .field("bytes_out", net.bytes_out)
                .field("busy_frames", net.busy),
        )
        .field(
            "persist",
            Json::obj()
                .field("flushes_per_op", per_op(flushes))
                .field("redundant_flushes", redundant)
                .field("fences_per_op", per_op(fences)),
        )
        .field(
            "locks",
            Json::obj()
                .field("held_hwm", snap.lock_held_hwm)
                .field("contended", snap.lock_contended)
                .field("stripe_contended", snap.stripe_contended()),
        )
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

fn client_loop(
    svc: &Service,
    stop: &AtomicBool,
    outcomes: &Outcomes,
    mix: Mix,
    keys: u64,
    client: u64,
) {
    let mut rng = 0xbe7c_5eed ^ (client + 1).wrapping_mul(0x2545_f491_4f6c_dd1d);
    while !stop.load(Ordering::Relaxed) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let k = (rng >> 16) % keys;
        let req = match mix {
            Mix::ReadHeavy if (rng & 0xffff) % 100 < 95 => Req::One(MapOp::Get(k)),
            Mix::ReadHeavy => Req::One(MapOp::Insert(k, rng)),
            Mix::UpdateHeavy if rng >> 63 == 0 => Req::One(MapOp::Get(k)),
            Mix::UpdateHeavy => Req::One(MapOp::Insert(k, rng)),
            Mix::Scan => {
                // An atomic multi-get over the keys of a contiguous
                // window that live on the first key's shard.
                let shard = svc.shard_of(k);
                let ops: Vec<MapOp> = (k..k + SCAN_SPAN)
                    .filter(|&x| x < keys && svc.shard_of(x) == shard)
                    .take(SCAN_WINDOW)
                    .map(MapOp::Get)
                    .collect();
                Req::Many(ops)
            }
            Mix::CrossShard => {
                // An atomic multi-put spanning several shards — one key
                // per distinct shard walking forward from k — committed
                // through the 2PC coordinator (single-shard services
                // degrade to the fast path).
                let span = svc.num_shards().min(XSHARD_SPAN);
                let mut seen = vec![false; svc.num_shards()];
                let ops: Vec<MapOp> = (k..k + SCAN_SPAN)
                    .filter(|&x| !std::mem::replace(&mut seen[svc.shard_of(x % keys)], true))
                    .take(span)
                    .map(|x| MapOp::Insert(x % keys, rng))
                    .collect();
                Req::Many(ops)
            }
        };
        let outcome = match req {
            Req::One(op) => svc.apply(op).map(|_| ()),
            Req::Many(ops) => svc.batch(ops).map(|_| ()),
        };
        match outcome {
            Ok(()) => {
                outcomes.ok.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServeError::Overloaded { retry_after }) => {
                outcomes.overloaded.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(retry_after);
            }
            Err(ServeError::Timeout) => {
                outcomes.timeout.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServeError::Aborted) => {
                outcomes.aborted.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => panic!("service failed under load: {e}"),
        }
    }
}

enum Req {
    One(MapOp),
    Many(Vec<MapOp>),
}
