//! Per-layer observability. Each layer — shard, ring, net, 2PC
//! coordinator — declares its counters, levels and latency histograms
//! once, in one [`metrics!`] list. The list yields the live type (plain
//! relaxed atomics aligned to their own cache line), the snapshot type
//! with the same field names, `snapshot`, `reset`, and a one-line
//! `name=value` `Display`.
//!
//! Instrumentation is itself part of what a HyTM pays, so a bump stays
//! one uncontended relaxed RMW (the discipline of `tm::stats`: counters
//! must never introduce the coherence traffic they are supposed to
//! measure). This module is the only place in the crate that picks the
//! memory ordering of a metric.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;
use tm::stats::{Counter as TmCounter, StatsSnapshot};

/// One kind of field in a metrics list.
trait Metric {
    /// What a snapshot holds for the field.
    type Snap;
    /// Point-in-time copy.
    fn snap(&self) -> Self::Snap;
    /// Start a new measurement window.
    fn reset(&self);
}

/// A count of events. `reset` zeroes it.
#[derive(Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Count one event.
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Take back one event that was rolled back before anyone saw it.
    pub(crate) fn undo(&self) {
        self.0.fetch_sub(1, Relaxed);
    }
}

impl Metric for Counter {
    type Snap = u64;
    fn snap(&self) -> u64 {
        self.0.load(Relaxed)
    }
    fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// A level that moves both ways, with its high-water mark. `reset`
/// keeps the live value and restarts the mark from it.
#[derive(Default)]
pub(crate) struct Level {
    now: AtomicU64,
    hwm: AtomicU64,
}

impl Level {
    /// One more.
    pub(crate) fn up(&self) {
        let now = self.now.fetch_add(1, Relaxed) + 1;
        self.hwm.fetch_max(now, Relaxed);
    }

    /// One fewer.
    pub(crate) fn down(&self) {
        self.now.fetch_sub(1, Relaxed);
    }

    /// The live value.
    pub(crate) fn get(&self) -> u64 {
        self.now.load(Relaxed)
    }

    fn hwm(&self) -> u64 {
        self.hwm.load(Relaxed)
    }
}

impl Metric for Level {
    type Snap = u64;
    fn snap(&self) -> u64 {
        self.get()
    }
    fn reset(&self) {
        self.hwm.store(self.get(), Relaxed);
    }
}

/// Number of latency buckets: 16 exact sub-16 ns buckets plus 4 buckets
/// per power of two up to 2^63 ns.
const LAT_BUCKETS: usize = 16 + 60 * 4;

/// A fixed-bucket log-scale histogram of durations (no allocation after
/// construction, ~2-significant-bit resolution — quantiles are upper
/// bounds of their bucket). `reset` zeroes every bucket.
pub(crate) struct Histogram {
    buckets: Vec<AtomicU64>,
}

fn lat_bucket(nanos: u64) -> usize {
    if nanos < 16 {
        return nanos as usize;
    }
    let exp = 63 - nanos.leading_zeros() as u64; // >= 4
    let frac = (nanos >> (exp - 2)) & 0b11;
    let idx = 16 + (exp - 4) * 4 + frac;
    (idx as usize).min(LAT_BUCKETS - 1)
}

fn lat_bucket_upper(idx: usize) -> u64 {
    if idx < 16 {
        return idx as u64;
    }
    let exp = 4 + (idx - 16) as u64 / 4;
    let frac = ((idx - 16) % 4) as u64;
    // Upper edge of [2^exp + frac·2^(exp-2), 2^exp + (frac+1)·2^(exp-2)).
    (1u64 << exp) + (frac + 1) * (1u64 << (exp - 2))
}

impl Histogram {
    /// Records one duration.
    pub(crate) fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[lat_bucket(nanos)].fetch_add(1, Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..LAT_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Metric for Histogram {
    type Snap = HistogramSnapshot;
    fn snap(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
        }
    }
    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }
}

/// Point-in-time copy of a latency histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) as an upper-bound duration, or
    /// `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Duration::from_nanos(lat_bucket_upper(i)));
            }
        }
        Some(Duration::from_nanos(lat_bucket_upper(LAT_BUCKETS - 1)))
    }
}

/// `p50/p99`, or `-` when empty.
impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.quantile(0.50), self.quantile(0.99)) {
            (Some(p50), Some(p99)) => write!(f, "{}/{}", fmt_dur(p50), fmt_dur(p99)),
            _ => f.write_str("-"),
        }
    }
}

/// Writes one `name=value` pair of a report line, with a space before
/// every pair but the first.
fn pair(
    f: &mut fmt::Formatter<'_>,
    first: &mut bool,
    name: &str,
    value: &dyn fmt::Display,
) -> fmt::Result {
    if !std::mem::replace(first, false) {
        f.write_str(" ")?;
    }
    write!(f, "{name}={value}")
}

/// Declares one layer's metrics list: `Live => Snapshot(context) {
/// entries }`. Each entry is a field and its kind (`Counter`, `Level` or
/// `Histogram`); a `Level` names the snapshot field of its high-water
/// mark in brackets. The context fields are snapshot-only values that
/// `snapshot` takes as arguments.
macro_rules! metrics {
    (@snap Counter) => { u64 };
    (@snap Level) => { u64 };
    (@snap Histogram) => { HistogramSnapshot };
    (
        $(#[$live_doc:meta])*
        $live:ident =>
        $(#[$snap_doc:meta])*
        $snap:ident($($(#[$ctx_doc:meta])* $ctx:ident: $cty:ty),*) {
            $($(#[$doc:meta])* $field:ident: $kind:ident $([$hwm:ident])?,)*
        }
    ) => {
        $(#[$live_doc])*
        #[derive(Default)]
        #[repr(align(128))]
        pub(crate) struct $live {
            $($(#[$doc])* pub(crate) $field: $kind,)*
        }

        $(#[$snap_doc])*
        #[derive(Clone, Debug)]
        pub struct $snap {
            $($(#[$ctx_doc])* pub $ctx: $cty,)*
            $(
                $(#[$doc])* pub $field: metrics!(@snap $kind),
                $(
                    #[doc = concat!("High-water mark of `", stringify!($field), "` since the last reset.")]
                    pub $hwm: u64,
                )?
            )*
        }

        impl $live {
            /// Point-in-time copy of every field.
            pub(crate) fn snapshot(&self, $($ctx: $cty),*) -> $snap {
                $snap {
                    $($ctx,)*
                    $($field: self.$field.snap(), $($hwm: self.$field.hwm(),)?)*
                }
            }

            /// Start a new measurement window: counters and histograms
            /// go to zero, levels keep their live value and restart
            /// their high-water mark from it.
            #[allow(dead_code)] // never called on the net layer: its readers diff snapshots
            pub(crate) fn reset(&self) {
                $(self.$field.reset();)*
            }
        }

        /// The list's fields as one line of `name=value` pairs.
        impl fmt::Display for $snap {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let first = &mut true;
                $(
                    pair(f, first, stringify!($field), &self.$field)?;
                    $(pair(f, first, stringify!($hwm), &self.$hwm)?;)?
                )*
                Ok(())
            }
        }
    };
}

metrics! {
    /// One shard's metrics, shared by its workers.
    ShardMetrics =>
    /// Point-in-time view of one shard.
    ShardSnapshot(
        /// Shard index.
        shard: usize,
        /// The shard TM's statistics (commits, aborts by cause, flushes…).
        tm: StatsSnapshot
    ) {
        /// Completed Get operations.
        gets: Counter,
        /// Completed Put operations.
        puts: Counter,
        /// Completed Delete operations.
        dels: Counter,
        /// Requests answered `Timeout` (deadline passed in queue, in a
        /// retry, or waiting for the follower's ack).
        timeouts: Counter,
        /// Requests rejected at submit with `Overloaded` (queue full).
        rejected: Counter,
        /// Requests answered `Aborted` (retry budget exhausted).
        aborted: Counter,
        /// Committed batches (one transaction each).
        batches: Counter,
        /// Requests summed over committed batches.
        batched_reqs: Counter,
        /// Service-level batch retries: the transaction used up its
        /// attempt fuel, and the worker backed off and retried the batch.
        retries: Counter,
        /// Requests answered `Rerouted` (stamped with a stale routing
        /// epoch and no longer owned by this shard after a migration
        /// flip).
        rerouted: Counter,
        /// Request latency, enqueue to reply.
        latency: Histogram,
    }
}

metrics! {
    /// The completion-ring front end's metrics. Every ring of a service
    /// (the internal one behind the blocking calls and every ring handed
    /// out by `Service::ring`) shares one instance, so the levels are
    /// service-wide.
    RingMetrics =>
    /// Point-in-time view of the ring front end.
    RingSnapshot() {
        /// Accepted submissions (a ticket was returned).
        submitted: Counter,
        /// Delivered completions (acked or errored).
        completed: Counter,
        /// Submissions rejected with `RingFull` (no free slot).
        ring_full: Counter,
        /// Submitted but not yet completed.
        in_flight: Level[in_flight_hwm],
        /// Slots not free: in flight, or completed but not yet reaped.
        occupied: Level[occupied_hwm],
        /// Submit-to-complete latency (queue wait, execution and
        /// replication ack — the client-observable request latency).
        latency: Histogram,
    }
}

metrics! {
    /// The wire layer's metrics: one instance per `NetServer`, shared by
    /// every connection it serves. Request latency lives in the ring
    /// metrics the connections' rings feed.
    NetMetrics =>
    /// Point-in-time view of the wire layer.
    NetSnapshot() {
        /// Connections accepted.
        accepted: Counter,
        /// Connections fully torn down (reader and writer exited, ring
        /// slots drained).
        closed: Counter,
        /// Request frames read off sockets.
        frames_in: Counter,
        /// Response frames written to sockets.
        frames_out: Counter,
        /// Bytes read (frames only; headers included).
        bytes_in: Counter,
        /// Bytes written (frames only; headers included).
        bytes_out: Counter,
        /// `Busy` responses: the visible-backpressure path (per-connection
        /// cap, `RingFull`, or `Overloaded`).
        busy: Counter,
        /// Malformed frames from peers (each closes its connection).
        protocol_errors: Counter,
        /// Completions reaped after the peer disconnected — slots freed
        /// with the response suppressed, never written to a dead socket.
        reaped_after_disconnect: Counter,
        /// Response writes suppressed because the socket was already dead.
        dead_socket_suppressed: Counter,
    }
}

metrics! {
    /// The cross-shard 2PC coordinator's metrics.
    CoordinatorMetrics =>
    /// Point-in-time view of the 2PC coordinator.
    CoordinatorSnapshot(
        /// The decision-log TM's statistics (its flushes and fences are
        /// part of the service's persistence bill, so benchmark persist
        /// tallies must fold them in alongside the shard TMs').
        tm: StatsSnapshot
    ) {
        /// Cross-shard batches attempted (any outcome).
        cross_batches: Counter,
        /// Ops summed over attempted cross-shard batches.
        cross_ops: Counter,
        /// Prepare rounds that cancelled and were retried.
        cross_retries: Counter,
        /// Batches answered `Aborted` (prepare retry budget exhausted).
        abort_conflict: Counter,
        /// Batches answered `Timeout` before their decision was logged.
        abort_timeout: Counter,
        /// Shard-transactions re-applied from the decision log at recovery.
        replayed: Counter,
        /// Decision-log group commits (one committed log transaction each).
        decision_groups: Counter,
        /// Decisions written across those group commits; the mean group
        /// size `decisions_logged / decision_groups` is the fence
        /// amortization factor of the 2PC commit point.
        decisions_logged: Counter,
        /// Latency of a successful prepare round (all participants).
        prepare: Histogram,
        /// Latency from decision logged to markers dropped.
        commit: Histogram,
    }
}

impl ShardSnapshot {
    /// Completed operations (any kind).
    pub fn ops(&self) -> u64 {
        self.gets + self.puts + self.dels
    }

    /// Mean committed batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_reqs as f64 / self.batches as f64
        }
    }
}

/// Point-in-time view of one shard's replication pipeline: the three
/// LSN watermarks. `appended ≥ received ≥ applied` always; the gaps are
/// the shipping and apply lags.
#[derive(Clone, Copy, Debug)]
pub struct ReplShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Highest LSN durably appended to the primary's op log.
    pub appended: u64,
    /// Highest LSN durably staged in the follower's receive log.
    pub received: u64,
    /// Highest LSN durably applied into the follower's maps.
    pub applied: u64,
    /// A shipping round is mid-flight: its watermark stores may have
    /// landed while its trailing work (trim, crash checkpoints) has
    /// not run yet. Quiescence means zero lag *and* no round in
    /// flight — `lag()` folds this in so pollers cannot observe a
    /// half-finished round as settled.
    pub settling: bool,
}

impl ReplShardSnapshot {
    /// Entries appended but not yet durably received by the follower
    /// (what a failover at this instant could lose acks over — zero for
    /// acked writes, which waited out this gap).
    pub fn ship_lag(&self) -> u64 {
        self.appended.saturating_sub(self.received)
    }

    /// Entries received but not yet applied (what promotion's tail
    /// apply has to finish).
    pub fn apply_lag(&self) -> u64 {
        self.received.saturating_sub(self.applied)
    }

    /// Total entries the follower's applied state is behind the primary,
    /// counting a mid-flight shipping round as one outstanding entry.
    pub fn lag(&self) -> u64 {
        self.appended
            .saturating_sub(self.applied)
            .max(u64::from(self.settling))
    }
}

/// Replication watermarks for every shard.
#[derive(Clone, Debug)]
pub struct ReplSnapshot {
    /// One entry per shard, in shard order.
    pub shards: Vec<ReplShardSnapshot>,
}

impl ReplSnapshot {
    /// Total entries behind across all shards.
    pub fn lag(&self) -> u64 {
        self.shards.iter().map(ReplShardSnapshot::lag).sum()
    }
}

impl fmt::Display for ReplSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "repl: lag={}", self.lag())?;
        for s in &self.shards {
            write!(
                f,
                " s{}[app={} recv={} appl={}]",
                s.shard, s.appended, s.received, s.applied
            )?;
        }
        Ok(())
    }
}

/// Point-in-time view of the whole service.
#[derive(Clone, Debug)]
pub struct ServiceSnapshot {
    /// The routing table's version at snapshot time (bumps once per
    /// migration flip).
    pub routing_epoch: u64,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// The cross-shard coordinator's metrics.
    pub coordinator: CoordinatorSnapshot,
    /// The ring front end's metrics (in-flight depth, slot occupancy,
    /// submit-to-complete latency) — service-wide across all rings.
    pub ring: RingSnapshot,
    /// Replication watermarks, when replication is on.
    pub replication: Option<ReplSnapshot>,
    /// Deepest tracked held-lock stack any thread reached (locksan's
    /// held-lock high-water mark). Zero unless built with `--features
    /// locksan` and the sanitizer is on.
    pub lock_held_hwm: u64,
    /// Blocking shim-lock acquisitions that found their lock contended
    /// (locksan's contended-acquire count). Zero unless locksan is on.
    pub lock_contended: u64,
}

impl ServiceSnapshot {
    /// Completed operations across all shards.
    pub fn ops(&self) -> u64 {
        self.shards.iter().map(ShardSnapshot::ops).sum()
    }

    /// Mean batch size across all shards.
    pub fn mean_batch(&self) -> f64 {
        let batches: u64 = self.shards.iter().map(|s| s.batches).sum();
        let reqs: u64 = self.shards.iter().map(|s| s.batched_reqs).sum();
        if batches == 0 {
            0.0
        } else {
            reqs as f64 / batches as f64
        }
    }

    /// Merged latency quantile across shards.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        let mut merged: Option<HistogramSnapshot> = None;
        for s in &self.shards {
            merged = Some(match merged {
                None => s.latency.clone(),
                Some(mut m) => {
                    for (a, b) in m.buckets.iter_mut().zip(&s.latency.buckets) {
                        *a += b;
                    }
                    m
                }
            });
        }
        merged.and_then(|m| m.quantile(q))
    }

    /// Stripe-lock CAS acquisitions that lost to another owner across
    /// all shards' TMs (the fast path's fine-grained lock contention).
    pub fn stripe_contended(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.tm.get(TmCounter::StripeContended))
            .sum()
    }

    /// Aborted TM attempts per committed TM transaction, service-wide.
    pub fn abort_rate(&self) -> f64 {
        let commits: u64 = self.shards.iter().map(|s| s.tm.commits()).sum();
        let aborts: u64 = self.shards.iter().map(|s| s.tm.aborts()).sum();
        if commits == 0 {
            0.0
        } else {
            aborts as f64 / commits as f64
        }
    }
}

fn fmt_dur(d: Duration) -> String {
    let n = d.as_nanos();
    if n >= 1_000_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// One line per shard (its list, then its nonzero TM abort causes), the
/// 2PC, ring, replication and lock lines when they saw traffic, and a
/// service-wide total.
impl fmt::Display for ServiceSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.shards {
            write!(f, "shard {}: {s}", s.shard)?;
            for (cause, n) in s.tm.abort_breakdown() {
                if n != 0 {
                    write!(f, " {}={n}", cause.label())?;
                }
            }
            writeln!(f)?;
        }
        if self.coordinator.cross_batches > 0 || self.coordinator.replayed > 0 {
            writeln!(f, "2pc: {}", self.coordinator)?;
        }
        if self.ring.submitted > 0 {
            writeln!(f, "ring: {}", self.ring)?;
        }
        if let Some(repl) = &self.replication {
            writeln!(f, "{repl}")?;
        }
        if self.lock_held_hwm > 0 || self.lock_contended > 0 || self.stripe_contended() > 0 {
            writeln!(
                f,
                "locks: held_hwm={} contended={} stripe_contended={}",
                self.lock_held_hwm,
                self.lock_contended,
                self.stripe_contended(),
            )?;
        }
        let quantile = |q| self.latency_quantile(q).map_or("-".into(), fmt_dur);
        write!(
            f,
            "total: ops={} mean_batch={:.2} p50={} p99={} abort_rate={:.3}",
            self.ops(),
            self.mean_batch(),
            quantile(0.50),
            quantile(0.99),
            self.abort_rate(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_invertible() {
        let mut prev_idx = 0;
        for exp in 0..60u32 {
            let n = 1u64 << exp;
            let idx = lat_bucket(n);
            assert!(idx >= prev_idx, "bucket index not monotone at 2^{exp}");
            prev_idx = idx;
            assert!(
                lat_bucket_upper(idx) >= n,
                "upper bound below sample at 2^{exp}"
            );
            // Upper bound within 2x at coarse resolution.
            assert!(lat_bucket_upper(idx) <= n.saturating_mul(2).max(16));
        }
    }

    #[test]
    fn quantiles_bound_samples() {
        let h = Histogram::default();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let snap = h.snap();
        assert_eq!(snap.count(), 1000);
        let p50 = snap.quantile(0.5).unwrap();
        let p99 = snap.quantile(0.99).unwrap();
        assert!(p50 >= Duration::from_micros(400) && p50 <= Duration::from_micros(800));
        assert!(p99 >= Duration::from_micros(900) && p99 <= Duration::from_micros(1500));
        assert!(snap.quantile(0.0).unwrap() <= p50);
        assert!(snap.quantile(1.0).unwrap() >= p99);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert!(Histogram::default().snap().quantile(0.5).is_none());
    }

    #[test]
    fn display_is_stable() {
        let m = ShardMetrics::default();
        m.gets.add(2);
        let snap = m.snapshot(3, tm::stats::TmStats::new(1).snapshot());
        let line = format!("{snap}");
        assert!(line.starts_with("gets=2 puts=0 dels=0 "), "{line}");
        assert!(line.ends_with(" latency=-"), "{line}");

        let r = RingMetrics::default();
        r.in_flight.up();
        r.in_flight.up();
        r.in_flight.down();
        let line = format!("{}", r.snapshot());
        assert!(line.contains(" in_flight=1 in_flight_hwm=2 "), "{line}");
    }
}
