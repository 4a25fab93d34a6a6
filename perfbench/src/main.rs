//! The repository's benchmark: one process per run, one workload per
//! process, every metric printed by name with its unit, and a JSON
//! result as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-update --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs an
//! untraced and a traced pass of half the length each and prints the
//! per-layer metrics, writing the spans to `perfbench/out/`.
//! METRICS.md describes every metric and workload.

mod gen;
mod hashmap;
mod kv;
mod ledger;
mod metrics;
mod report;
mod sys;
mod trace;

use report::Report;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload kv-update|kv-xshard|tm-hashmap \
                     --seed N --seconds S --trace 0|1";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = raw
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        raw.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The simulated device's cost against the clock: `pmem` calibrates its
/// spin loop once per process, and a process calibrated while the host
/// was busy charges every flush, fence and media access off its nominal
/// cost. Returns measured / nominal time of a 1 µs spin, the best of
/// five short samples so that a preempted sample does not count.
fn spin_ratio() -> f64 {
    pmem::latency::spin_ns(1);
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..200 {
                pmem::latency::spin_ns(1_000);
            }
            t.elapsed().as_nanos() as f64 / 200_000.0
        })
        .fold(f64::MAX, f64::min)
}

fn main() {
    let origin = Instant::now();
    let slack = sys::set_timer_slack_1ns();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let ratio = spin_ratio();
    let outcome = match args.workload.as_str() {
        "kv-update" => kv::run(&kv::KV_UPDATE, args.seed, args.seconds, args.trace, origin),
        "kv-xshard" => kv::run(&kv::KV_XSHARD, args.seed, args.seconds, args.trace, origin),
        "tm-hashmap" => hashmap::run(args.seed, args.seconds, args.trace, origin),
        w => Err(format!("unknown workload {w}")),
    };
    let mut outcome = outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    outcome.layers.spin_ratio = ratio;

    let mut r = Report::default();
    r.note(format!(
        "workload {} seed {} seconds {} trace {} | nproc {} | timer slack 1ns {} | \
         spin ratio {ratio:.4}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if slack { "set" } else { "NOT set" },
    ));
    for n in &outcome.notes {
        r.note(n.clone());
    }
    if args.trace {
        for (name, st) in trace::self_times(&outcome.spans) {
            r.note(format!(
                "span {name:<20} n={:<8} total {:>10.1} ms  self {:>10.1} ms  p50 {:>8.2} us",
                st.count,
                st.total_us / 1e3,
                st.self_us / 1e3,
                st.dur_p50_us.value
            ));
        }
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/{}-seed{}.tsv",
            args.workload, args.seed
        ));
        match trace::write_spans(&path, &outcome.spans) {
            Ok(()) => r.note(format!(
                "{} spans written to {}",
                outcome.spans.len(),
                path.display()
            )),
            Err(e) => r.note(format!("spans not written: {e}")),
        }
        outcome.layers.report(&mut r);
    } else {
        outcome.e2e.report(&mut r);
    }
    for line in r.lines() {
        println!("{line}");
    }
    for e in &outcome.errors {
        println!("ERROR: {e}");
    }
    println!(
        "{}",
        r.json(outcome.errors.is_empty(), outcome.attempted, outcome.failed)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse() {
        assert_eq!(
            parse_args(&args(
                "--workload kv-update --seed 7 --seconds 10 --trace 1"
            )),
            Ok(Args {
                workload: "kv-update".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            })
        );
        for bad in [
            "--workload x --seed 1 --seconds 1",
            "--workload x --seed -1 --seconds 1 --trace 0",
            "--workload x --seed 1 --seconds 0 --trace 0",
            "--workload x --seed 1 --seconds 1 --trace 2",
            "--workload x --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
