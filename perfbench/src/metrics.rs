//! The benchmark's metric set. Every workload reports every metric; a
//! layer a workload does not exercise reads 0 (with 0 samples for a
//! percentile). METRICS.md documents each one.

use crate::report::{per, Pct, Report};
use crate::trace::Span;
use tm::stats::{Counter, StatsSnapshot};

/// The outcome of one run of a workload.
pub struct Outcome {
    pub e2e: EndToEnd,
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is invalid or its output wrong, if it is.
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

/// What a user of the system sees. Reported by untraced runs.
#[derive(Default)]
pub struct EndToEnd {
    pub goodput_rps: f64,
    pub capacity_rps: f64,
    pub p50_us: Pct,
    pub p95_us: Pct,
    pub cpu_us_per_req: f64,
    pub flushes_per_req: f64,
    pub fences_per_req: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn report(&self, r: &mut Report) {
        r.put("goodput_rps", self.goodput_rps, "1/s");
        r.put("capacity_rps", self.capacity_rps, "1/s");
        r.put_pct("p50_us", self.p50_us, "us");
        r.put_pct("p95_us", self.p95_us, "us");
        r.put("cpu_us_per_req", self.cpu_us_per_req, "us");
        r.put("flushes_per_req", self.flushes_per_req, "count");
        r.put("fences_per_req", self.fences_per_req, "count");
        r.put("setup_s", self.setup_s, "s");
        r.put("peak_rss_mb", self.peak_rss_mb, "MB");
    }
}

/// Per-layer figures. Reported by traced runs.
#[derive(Default)]
pub struct Layers {
    pub gen_lag_p99_us: Pct,
    pub gen_late_share: f64,
    pub gen_cpu_us_per_req: f64,
    pub net_cpu_us_per_req: f64,
    pub net_send_us_p50: Pct,
    pub net_self_us_p50: f64,
    pub net_bytes_per_req: f64,
    pub net_busy_share: f64,
    pub ring_submit_us_p50: Pct,
    pub ring_s2c_us_p50: f64,
    pub ring_s2c_us_p95: f64,
    pub ring_in_flight_hwm: f64,
    pub ring_full_share: f64,
    pub shard_cpu_us_per_req: f64,
    pub shard_batch_mean: f64,
    pub shard_sojourn_us_p50: f64,
    pub shard_retries_per_req: f64,
    pub shard_timeouts_per_req: f64,
    pub coord_cpu_us_per_req: f64,
    pub coord_prepare_us_p50: f64,
    pub coord_commit_us_p50: f64,
    pub coord_group_mean: f64,
    pub coord_retries_per_req: f64,
    pub coord_log_fences_per_req: f64,
    /// Every TM's counters over the measured phase (shards and decision
    /// log, or the one map's TM), and the requests they served.
    pub tm: Counts,
    pub reqs: f64,
    pub recover_s: f64,
    pub txstructs_op_us_p50: Pct,
    pub spin_ratio: f64,
    pub proc_cpu_us_per_req: f64,
    pub unattributed_cpu_us_per_req: f64,
    pub trace_capacity_rps_delta: f64,
    pub trace_p50_us_delta: f64,
}

/// Summed TM counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts([u64; Counter::COUNT]);

impl Counts {
    pub fn add(&mut self, s: &StatsSnapshot) {
        for (i, (_, v)) in s.counters().enumerate() {
            self.0[i] += v;
        }
    }

    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts(std::array::from_fn(|i| {
            self.0[i].wrapping_sub(earlier.0[i])
        }))
    }

    pub fn get(&self, c: Counter) -> f64 {
        self.0[c as usize] as f64
    }

    pub fn commits(&self) -> f64 {
        self.get(Counter::HwCommit) + self.get(Counter::SwCommit)
    }

    pub fn aborts(&self) -> f64 {
        StatsSnapshot::ABORT_COUNTERS
            .iter()
            .map(|&c| self.get(c))
            .sum()
    }
}

impl Layers {
    pub fn report(&self, r: &mut Report) {
        let tm = &self.tm;
        let commits = tm.commits();
        r.put_pct("gen.lag_p99_us", self.gen_lag_p99_us, "us");
        r.put("gen.late_share", self.gen_late_share, "ratio");
        r.put("gen.cpu_us_per_req", self.gen_cpu_us_per_req, "us");
        r.put("net.cpu_us_per_req", self.net_cpu_us_per_req, "us");
        r.put_pct("net.send_us_p50", self.net_send_us_p50, "us");
        r.put("net.self_us_p50", self.net_self_us_p50, "us");
        r.put("net.bytes_per_req", self.net_bytes_per_req, "bytes");
        r.put("net.busy_share", self.net_busy_share, "ratio");
        r.put_pct("ring.submit_us_p50", self.ring_submit_us_p50, "us");
        r.put("ring.s2c_us_p50", self.ring_s2c_us_p50, "us");
        r.put("ring.s2c_us_p95", self.ring_s2c_us_p95, "us");
        r.put("ring.in_flight_hwm", self.ring_in_flight_hwm, "count");
        r.put("ring.full_share", self.ring_full_share, "ratio");
        r.put("shard.cpu_us_per_req", self.shard_cpu_us_per_req, "us");
        r.put("shard.batch_mean", self.shard_batch_mean, "count");
        r.put("shard.sojourn_us_p50", self.shard_sojourn_us_p50, "us");
        r.put("shard.retries_per_req", self.shard_retries_per_req, "count");
        r.put(
            "shard.timeouts_per_req",
            self.shard_timeouts_per_req,
            "count",
        );
        r.put("coord.cpu_us_per_req", self.coord_cpu_us_per_req, "us");
        r.put("coord.prepare_us_p50", self.coord_prepare_us_p50, "us");
        r.put("coord.commit_us_p50", self.coord_commit_us_p50, "us");
        r.put("coord.group_mean", self.coord_group_mean, "count");
        r.put("coord.retries_per_req", self.coord_retries_per_req, "count");
        r.put(
            "coord.log_fences_per_req",
            self.coord_log_fences_per_req,
            "count",
        );
        r.put(
            "nvhalt.hw_commit_share",
            per(tm.get(Counter::HwCommit), commits),
            "ratio",
        );
        r.put(
            "nvhalt.aborts_per_commit",
            per(tm.aborts(), commits),
            "count",
        );
        for (name, c) in [
            ("nvhalt.abort.hw_conflict", Counter::HwConflict),
            ("nvhalt.abort.hw_capacity", Counter::HwCapacity),
            ("nvhalt.abort.hw_spurious", Counter::HwSpurious),
            ("nvhalt.abort.hw_explicit", Counter::HwExplicit),
            ("nvhalt.abort.sw", Counter::SwAbort),
            (
                "nvhalt.stripe_contended_per_commit",
                Counter::StripeContended,
            ),
        ] {
            r.put(name, per(tm.get(c), commits), "count");
        }
        r.put("nvhalt.commits_per_req", per(commits, self.reqs), "count");
        r.put("nvhalt.recover_s", self.recover_s, "s");
        r.put_pct("txstructs.op_us_p50", self.txstructs_op_us_p50, "us");
        r.put(
            "pmem.flushes_per_commit",
            per(tm.get(Counter::Flush), commits),
            "count",
        );
        r.put(
            "pmem.fences_per_commit",
            per(tm.get(Counter::Fence), commits),
            "count",
        );
        r.put(
            "pmem.redundant_flushes_per_req",
            per(tm.get(Counter::RedundantFlush), self.reqs),
            "count",
        );
        r.put(
            "pmem.pm_words_per_req",
            per(tm.get(Counter::PmWords), self.reqs),
            "count",
        );
        r.put("pmem.spin_ratio", self.spin_ratio, "ratio");
        r.put("proc.cpu_us_per_req", self.proc_cpu_us_per_req, "us");
        r.put(
            "proc.cpu_unattributed_us_per_req",
            self.unattributed_cpu_us_per_req,
            "us",
        );
        r.put(
            "trace.capacity_rps_delta",
            self.trace_capacity_rps_delta,
            "1/s",
        );
        r.put("trace.p50_us_delta", self.trace_p50_us_delta, "us");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names of one section of BENCHMARK.json, read with a
    /// plain text scan (the file is ours and one metric per line).
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.match_indices("\"name\": \"")
            .map(|(i, m)| {
                let rest = &body[i + m.len()..];
                rest[..rest.find('"').unwrap()].to_string()
            })
            .collect()
    }

    #[test]
    fn reported_metrics_match_the_declaration() {
        let mut r = Report::default();
        EndToEnd::default().report(&mut r);
        assert_eq!(r.names(), declared("end_to_end"));
        let mut r = Report::default();
        Layers::default().report(&mut r);
        assert_eq!(r.names(), declared("per_layer"));
    }

    #[test]
    fn counts_sum_and_diff() {
        let s = tm::stats::TmStats::new(1);
        s.bump(0, Counter::HwCommit);
        s.add(0, Counter::Flush, 3);
        let mut a = Counts::default();
        a.add(&s.snapshot());
        a.add(&s.snapshot());
        assert_eq!(a.commits(), 2.0);
        assert_eq!(a.get(Counter::Flush), 6.0);
        assert_eq!(a.since(&Counts::default()).get(Counter::Flush), 6.0);
    }
}
