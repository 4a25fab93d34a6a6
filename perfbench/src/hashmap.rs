//! `tm-hashmap`: the paper's Figure 8 hashmap row. Two threads call
//! `HashMapTx` on one NV-HALT instance in a closed loop, with no service
//! layer in between, so a TM change shows here undiluted.

use crate::gen::{self, Rng};
use crate::ledger;
use crate::metrics::{Counts, EndToEnd, Layers, Outcome};
use crate::report::{joined, median, pct, per, sorted, steady, window_ns, Pct};
use crate::sys;
use crate::trace::{now_ns, span_id, Span, Tracer};
use nvhalt::{LockStrategy, NvHalt, NvHaltConfig, Progress};
use pmem::LatencyModel;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tm::stats::Counter;
use tm::Tm;
use txstructs::HashMapTx;

const KEYS: u64 = 1 << 20;
const THREADS: usize = 2;
const UPDATE_PCT: u64 = 10;
/// One operation in this many is timed, and one in `SPAN_EVERY` is kept
/// as a span, which bounds a traced run's span memory.
const SAMPLE_EVERY: u64 = 16;
const SPAN_EVERY: u64 = SAMPLE_EVERY * 16;
const SETUPS: usize = 3;
/// A map operation slower than this misses the objective.
const SLO_NS: u64 = 1_000_000;
/// Measurement windows; the end-to-end figures are taken over them (see
/// `report::steady`).
const WINDOW_NS: u64 = 250_000_000;

fn config() -> NvHaltConfig {
    // The bench::Cell cost model: weak progress, a 2^20-entry lock
    // table, Optane latency, default HTM, calibrated instrumentation.
    let mut cfg = NvHaltConfig::test(KEYS as usize * 8, THREADS);
    cfg.progress = Progress::Weak;
    cfg.locks = LockStrategy::Table { locks_log2: 20 };
    cfg.pm.lat = LatencyModel::optane();
    cfg.htm = htm::HtmConfig::default();
    cfg.instr_ns = bench::DEFAULT_INSTR_NS;
    cfg.clock_ns = bench::DEFAULT_CLOCK_NS;
    cfg
}

fn setup(seed: u64) -> (NvHalt, HashMapTx) {
    let tm = NvHalt::new(config());
    let map = HashMapTx::create(&tm, 0, KEYS as usize).expect("create on a fresh TM");
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (tm, map) = (&tm, &map);
            s.spawn(move || {
                for k in (t as u64..KEYS).step_by(THREADS) {
                    if gen::prefilled(k, seed) {
                        map.insert(tm, t, k, k + 1).expect("prefill insert");
                    }
                }
            });
        }
    });
    (tm, map)
}

/// A thread's operation count, on its own cache line.
#[repr(align(128))]
#[derive(Default)]
struct OpCount(AtomicU64);

/// What one closed-loop thread did: its operations and its timed
/// samples as (start ns on the run clock, latency ns).
struct Worker {
    ops: u64,
    samples: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

struct Shared<'a> {
    tm: &'a NvHalt,
    map: &'a HashMapTx,
    stop: AtomicBool,
    start: Barrier,
    counts: Vec<OpCount>,
    origin: Instant,
}

fn worker(sh: &Shared, t: usize, seed: u64, traced: bool) -> Worker {
    let mut rng = Rng::new(seed, 0x7000 + t as u64);
    let mut tracer = Tracer::new(traced);
    let mut samples = Vec::new();
    let mut ops = 0u64;
    sh.start.wait();
    while !sh.stop.load(Ordering::Relaxed) {
        for _ in 0..64 {
            let k = rng.below(KEYS);
            let roll = rng.next();
            let t0 = ops.is_multiple_of(SAMPLE_EVERY).then(Instant::now);
            let name = if roll % 100 >= UPDATE_PCT {
                sh.map.get(sh.tm, t, k).expect("get");
                "txstructs.get"
            } else if roll & (1 << 40) == 0 {
                sh.map.insert(sh.tm, t, k, roll).expect("insert");
                "txstructs.insert"
            } else {
                sh.map.remove(sh.tm, t, k).expect("remove");
                "txstructs.remove"
            };
            if let Some(t0) = t0 {
                let start_ns = (t0 - sh.origin).as_nanos() as u64;
                let end_ns = sh.origin.elapsed().as_nanos() as u64;
                samples.push((start_ns, end_ns - start_ns));
                if ops.is_multiple_of(SPAN_EVERY) {
                    let req = (t as u64) << 48 | ops;
                    tracer.record(Span {
                        id: span_id(req, 0),
                        parent: 0,
                        name,
                        req,
                        start_ns,
                        end_ns,
                    });
                }
            }
            ops += 1;
        }
        sh.counts[t].0.store(ops, Ordering::Relaxed);
    }
    Worker {
        ops,
        samples,
        spans: tracer.spans,
    }
}

/// One measured closed-loop phase.
struct Phase {
    ops: u64,
    /// Per window: operations per second, CPU µs per operation, and the
    /// timed latencies (µs).
    window_rps: Vec<f64>,
    window_cpu_us: Vec<f64>,
    window_lat_us: Vec<Vec<f64>>,
    tm: Counts,
    /// CPU of the closed-loop threads and of the process, from `/proc`.
    groups: f64,
    proc_s: f64,
    spans: Vec<Span>,
}

impl Phase {
    fn latencies_us(&self) -> Vec<f64> {
        sorted(self.window_lat_us.concat())
    }

    fn steady_latency_us(&self, q: f64) -> Pct {
        let per_window: Vec<f64> = self.window_lat_us.iter().map(|w| pct(w, q).value).collect();
        Pct {
            value: steady(&per_window, false).value,
            n: self.window_lat_us.iter().map(Vec::len).sum(),
        }
    }
}

fn phase(
    tm: &NvHalt,
    map: &HashMapTx,
    seed: u64,
    secs: f64,
    traced: bool,
    origin: Instant,
) -> Phase {
    let sh = Shared {
        tm,
        map,
        stop: AtomicBool::new(false),
        start: Barrier::new(THREADS + 1),
        counts: (0..THREADS).map(|_| OpCount::default()).collect(),
        origin,
    };
    let total_ns = (secs * 1e9) as u64;
    let win_ns = window_ns(total_ns, WINDOW_NS);
    let mut before = Counts::default();
    before.add(&tm.stats());
    let tasks0 = sys::task_cpu();
    let proc0 = sys::proc_cpu();
    let (workers, marks, t0_ns, tasks1, proc1) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let sh = &sh;
                std::thread::Builder::new()
                    .name(format!("gen-tm-{t}"))
                    .spawn_scoped(s, move || worker(sh, t, seed, traced))
                    .expect("spawn worker")
            })
            .collect();
        sh.start.wait();
        let t0 = Instant::now();
        let mark = || {
            let ops: u64 = sh.counts.iter().map(|c| c.0.load(Ordering::Relaxed)).sum();
            (ops, sys::process_cpu().as_secs_f64())
        };
        let mut marks = vec![mark()];
        for w in 1..=total_ns / win_ns {
            let due = t0 + Duration::from_nanos(w * win_ns);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            marks.push(mark());
        }
        // Read /proc while the closed-loop threads are still alive.
        let (tasks1, proc1) = (sys::task_cpu(), sys::proc_cpu());
        sh.stop.store(true, Ordering::Relaxed);
        let workers: Vec<Worker> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        (
            workers,
            marks,
            (t0 - origin).as_nanos() as u64,
            tasks1,
            proc1,
        )
    });
    let mut after = Counts::default();
    after.add(&tm.stats());
    let windows = marks.len() - 1;
    let mut window_lat_us = vec![Vec::new(); windows];
    let mut spans = Vec::new();
    let mut ops = 0;
    for w in workers {
        ops += w.ops;
        for (start_ns, lat_ns) in w.samples {
            let i = (start_ns.saturating_sub(t0_ns) / win_ns) as usize;
            if let Some(v) = window_lat_us.get_mut(i) {
                v.push(lat_ns as f64 / 1e3);
            }
        }
        spans.extend(w.spans);
    }
    let steps = marks.windows(2);
    Phase {
        ops,
        window_rps: steps
            .clone()
            .map(|m| (m[1].0 - m[0].0) as f64 * 1e9 / win_ns as f64)
            .collect(),
        window_cpu_us: steps
            .map(|m| per((m[1].1 - m[0].1) * 1e6, (m[1].0 - m[0].0) as f64))
            .collect(),
        window_lat_us: window_lat_us.into_iter().map(sorted).collect(),
        tm: after.since(&before),
        groups: sys::group_cpu(&tasks0, &tasks1, &["gen-"])[0],
        proc_s: proc1 - proc0,
        spans,
    }
}

pub fn run(seed: u64, secs: f64, traced: bool, origin: Instant) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(setup(seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (tm, map) = built.expect("one set-up");

    // As in the service workloads, a traced run measures an untraced and
    // a traced phase of half the length each.
    let phases: Vec<Phase> = if traced {
        vec![
            phase(&tm, &map, seed, secs / 2.0, false, origin),
            phase(&tm, &map, seed ^ 1, secs / 2.0, true, origin),
        ]
    } else {
        vec![phase(&tm, &map, seed, secs, false, origin)]
    };

    // Crash, recover, and compare the map with its pre-crash contents.
    let mut before = map.collect_raw(&tm);
    before.sort_unstable();
    let c0 = now_ns(origin);
    tm.crash();
    let image = tm.crash_image();
    drop(tm);
    let c1 = now_ns(origin);
    let recovered = NvHalt::recover_with(config(), &image);
    drop(image);
    recovered.rebuild_allocator(map.used_blocks(&recovered));
    let c2 = now_ns(origin);
    let mut after = map.collect_raw(&recovered);
    after.sort_unstable();
    let c3 = now_ns(origin);
    drop(recovered);

    let mut errors = Vec::new();
    let mut notes = vec![format!("setup_s runs: {}", joined(&setup_s, 4))];
    match ledger::same_contents(&before, &after) {
        Ok(n) => notes.push(format!(
            "durability: {n} entries identical after crash and recovery"
        )),
        Err(e) => errors.push(format!("durability check failed: {e}")),
    }
    let main = &phases[0];
    let last = phases.last().expect("one phase");
    let lat = main.latencies_us();
    let within = lat.iter().filter(|&&l| l <= SLO_NS as f64 / 1e3).count();
    let capacity = steady(&main.window_rps, true).value;
    let e2e = EndToEnd {
        goodput_rps: capacity * per(within as f64, lat.len() as f64),
        capacity_rps: capacity,
        p50_us: main.steady_latency_us(0.5),
        p95_us: main.steady_latency_us(0.95),
        cpu_us_per_req: steady(&main.window_cpu_us, false).value,
        flushes_per_req: per(main.tm.get(Counter::Flush), main.ops as f64),
        fences_per_req: per(main.tm.get(Counter::Fence), main.ops as f64),
        setup_s: median(&setup_s),
        peak_rss_mb: sys::peak_rss_mb(),
    };
    notes.push(format!(
        "closed loop: {THREADS} threads, {} ops, {} timed; whole phase p50 {:.3} p95 {:.3} \
         p99 {:.3} us",
        main.ops,
        lat.len(),
        pct(&lat, 0.5).value,
        pct(&lat, 0.95).value,
        pct(&lat, 0.99).value,
    ));
    notes.push(format!("windows ops/s: {}", joined(&main.window_rps, 0)));
    notes.push(format!(
        "windows cpu us/op: {}",
        joined(&main.window_cpu_us, 3)
    ));
    let last_ops = last.ops as f64;
    let layers = Layers {
        gen_cpu_us_per_req: per(last.groups * 1e6, last_ops),
        tm: last.tm,
        reqs: last_ops,
        recover_s: (c2 - c1) as f64 / 1e9,
        txstructs_op_us_p50: pct(&last.latencies_us(), 0.5),
        proc_cpu_us_per_req: per(last.proc_s * 1e6, last_ops),
        unattributed_cpu_us_per_req: per((last.proc_s - last.groups) * 1e6, last_ops),
        trace_capacity_rps_delta: if traced {
            steady(&last.window_rps, true).value - capacity
        } else {
            0.0
        },
        trace_p50_us_delta: if traced {
            last.steady_latency_us(0.5).value - e2e.p50_us.value
        } else {
            0.0
        },
        ..Layers::default()
    };
    let attempted: u64 = phases.iter().map(|p| p.ops).sum();
    let mut spans = Vec::new();
    for (name, start_ns, end_ns) in [
        ("nvhalt.crash", c0, c1),
        ("nvhalt.recover", c1, c2),
        ("verify.collect", c2, c3),
    ] {
        spans.push(Span {
            id: span_id(1 << 51, start_ns),
            parent: 0,
            name,
            req: 0,
            start_ns,
            end_ns,
        });
    }
    for p in phases {
        spans.extend(p.spans);
    }
    Ok(Outcome {
        e2e,
        layers,
        attempted,
        failed: 0,
        errors,
        notes,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_is_the_figure_8_cell() {
        let cfg = config();
        assert_eq!(cfg.variant_name(), "nv-halt");
        assert_eq!(cfg.max_threads, THREADS);
        assert_eq!(cfg.pm.lat, LatencyModel::optane());
    }
}
