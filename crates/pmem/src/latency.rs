//! Spin-based latency injection modelling NVM device costs.
//!
//! Optane DC persistent memory is markedly slower than DRAM: media reads
//! take ~170–300 ns (vs ~80 ns DRAM), sustained writes are bandwidth-limited,
//! and making data durable costs a `clflushopt` per line plus an `sfence`
//! that waits for the write-pending queue. These costs are what Figure 9's
//! overhead classes 1 (flush/fence) and 2 (NVRAM read/write) measure, so
//! the simulator must be able to charge — and selectively remove — them.
//!
//! Latency is injected by spinning a calibrated busy-loop; calibration maps
//! `spin_loop` iterations to nanoseconds once per process.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanosecond costs charged by the pool, per operation class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Reading a persistent word (media read, cache-miss path).
    pub pm_read_ns: u32,
    /// Writing a persistent word (store to the NVM-backed line).
    pub pm_write_ns: u32,
    /// Issuing one `clflushopt` (asynchronous, so cheap on its own).
    pub flush_ns: u32,
    /// Base cost of an `sfence` draining the write-pending queue.
    pub fence_base_ns: u32,
    /// Additional `sfence` cost per outstanding flushed line.
    pub fence_per_line_ns: u32,
}

impl LatencyModel {
    /// No injected latency (functional testing).
    pub const fn zero() -> Self {
        LatencyModel {
            pm_read_ns: 0,
            pm_write_ns: 0,
            flush_ns: 0,
            fence_base_ns: 0,
            fence_per_line_ns: 0,
        }
    }

    /// Costs approximating an Optane DCPMM in app-direct mode, scaled for
    /// a software simulator (absolute values are not the point; the ratio
    /// NVM:DRAM and the flush/fence share of commit cost are).
    pub const fn optane() -> Self {
        LatencyModel {
            pm_read_ns: 150,
            pm_write_ns: 90,
            flush_ns: 30,
            fence_base_ns: 120,
            fence_per_line_ns: 60,
        }
    }

    /// True if every cost is zero (lets hot paths skip the spin entirely).
    pub fn is_zero(&self) -> bool {
        *self == LatencyModel::zero()
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::zero()
    }
}

/// `spin_loop` iterations per nanosecond, calibrated once per process.
fn iters_per_ns() -> f64 {
    static CAL: OnceLock<f64> = OnceLock::new();
    *CAL.get_or_init(|| {
        // Warm up, then time a fixed iteration count.
        for _ in 0..10_000 {
            std::hint::spin_loop();
        }
        let iters: u64 = 2_000_000;
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::spin_loop();
        }
        let ns = start.elapsed().as_nanos().max(1) as f64;
        (iters as f64 / ns).max(0.01)
    })
}

/// Busy-wait for approximately `ns` nanoseconds.
#[inline]
pub fn spin_ns(ns: u32) {
    if ns == 0 {
        return;
    }
    let iters = (ns as f64 * iters_per_ns()) as u64;
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_zero() {
        assert!(LatencyModel::zero().is_zero());
        assert!(!LatencyModel::optane().is_zero());
        assert!(LatencyModel::default().is_zero());
    }

    #[test]
    fn spin_zero_returns_immediately() {
        spin_ns(0);
    }

    #[test]
    fn spin_scales_roughly_with_ns() {
        // Calibration on a noisy shared box is coarse; just check that a
        // long spin takes measurably longer than a short one. Calibrate
        // first, so the once-per-process calibration is not timed as
        // part of the short spins.
        iters_per_ns();
        let t = Instant::now();
        for _ in 0..100 {
            spin_ns(50);
        }
        let short = t.elapsed();
        let t = Instant::now();
        for _ in 0..100 {
            spin_ns(5_000);
        }
        let long = t.elapsed();
        assert!(long > short, "long={long:?} short={short:?}");
    }

    #[test]
    fn calibration_is_positive() {
        assert!(iters_per_ns() > 0.0);
    }
}
