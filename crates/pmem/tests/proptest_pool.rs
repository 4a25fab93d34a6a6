//! Property-based tests of the persistent-memory pool: durability is
//! exactly "last written-back value", under arbitrary interleavings of
//! stores, flushes, fences, forced evictions and a final crash.

// The raw store is the system under test.
#![allow(clippy::disallowed_methods)]

use pmem::pool::{EvictionPolicy, FlushPolicy, PmemConfig, PmemMode, PmemPool};
use pmem::{LatencyModel, LINE_WORDS};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum PoolOp {
    Write(usize, u64),
    Flush(usize),
    Fence,
    Evict(usize),
}

fn op_strategy(words: usize) -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0..words, any::<u64>()).prop_map(|(w, v)| PoolOp::Write(w, v)),
        (0..words).prop_map(PoolOp::Flush),
        Just(PoolOp::Fence),
        (0..words).prop_map(PoolOp::Evict),
    ]
}

/// A reference model of the pool: cache + durable word arrays with the
/// same write-back rules.
struct Model {
    cache: Vec<u64>,
    durable: Vec<u64>,
    pending: Vec<usize>,
    deferred: bool,
}

impl Model {
    fn write_back(&mut self, line: usize) {
        let base = line * LINE_WORDS;
        for i in 0..LINE_WORDS {
            self.durable[base + i] = self.cache[base + i];
        }
    }

    fn apply(&mut self, op: &PoolOp) {
        match *op {
            PoolOp::Write(w, v) => self.cache[w] = v,
            PoolOp::Flush(w) => {
                if self.deferred {
                    self.pending.push(w / LINE_WORDS);
                } else {
                    self.write_back(w / LINE_WORDS);
                }
            }
            PoolOp::Fence => {
                let pending = std::mem::take(&mut self.pending);
                for line in pending {
                    self.write_back(line);
                }
            }
            PoolOp::Evict(w) => self.write_back(w / LINE_WORDS),
        }
    }
}

fn run_against_model(ops: &[PoolOp], flush: FlushPolicy, words: usize) {
    let cfg = PmemConfig {
        words,
        max_threads: 1,
        mode: PmemMode::Nvram,
        lat: LatencyModel::zero(),
        flush,
        eviction: EvictionPolicy::None,
        seed: 1,
        psan: pmem::PsanMode::Off,
    };
    let pool = PmemPool::new(&cfg, None);
    let mut model = Model {
        cache: vec![0; words],
        durable: vec![0; words],
        pending: Vec::new(),
        deferred: matches!(flush, FlushPolicy::Deferred),
    };
    for op in ops {
        match *op {
            PoolOp::Write(w, v) => pool.write(0, w, v),
            PoolOp::Flush(w) => pool.flush_line(0, w),
            PoolOp::Fence => pool.sfence(0),
            PoolOp::Evict(w) => pool.force_evict(w),
        }
        model.apply(op);
    }
    pool.crash();
    let img = pool.snapshot_durable();
    for w in 0..words {
        assert_eq!(img.word(w), model.durable[w], "durable mismatch at {w}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Eager flushes: write-back happens at flush time.
    #[test]
    fn durable_matches_model_eager(ops in proptest::collection::vec(op_strategy(32), 1..200)) {
        run_against_model(&ops, FlushPolicy::Eager, 32);
    }

    /// Deferred flushes: write-back happens at the fence; unfenced
    /// flushes are lost at the crash.
    #[test]
    fn durable_matches_model_deferred(ops in proptest::collection::vec(op_strategy(32), 1..200)) {
        run_against_model(&ops, FlushPolicy::Deferred, 32);
    }

    /// The cache layer always reflects the last store regardless of
    /// flush traffic.
    #[test]
    fn cache_reflects_last_store(ops in proptest::collection::vec(op_strategy(16), 1..100)) {
        let cfg = PmemConfig::test(16, 1);
        let pool = PmemPool::new(&cfg, None);
        let mut last = [0u64; 16];
        for op in &ops {
            match *op {
                PoolOp::Write(w, v) => { pool.write(0, w, v); last[w] = v; }
                PoolOp::Flush(w) => pool.flush_line(0, w),
                PoolOp::Fence => pool.sfence(0),
                PoolOp::Evict(w) => pool.force_evict(w),
            }
        }
        for (w, &v) in last.iter().enumerate() {
            prop_assert_eq!(pool.read(0, w), v);
        }
    }

    /// Durability is monotone in write-back events: a durable word always
    /// holds a value that was in the cache at some earlier point (never a
    /// made-up value, never a torn 64-bit word).
    #[test]
    fn durable_values_are_historical(ops in proptest::collection::vec(op_strategy(8), 1..100)) {
        let cfg = PmemConfig {
            flush: FlushPolicy::Seeded { num: 128 },
            ..PmemConfig::test(8, 1)
        };
        let pool = PmemPool::new(&cfg, None);
        let mut history: Vec<std::collections::HashSet<u64>> =
            (0..8).map(|_| [0u64].into_iter().collect()).collect();
        for op in &ops {
            match *op {
                PoolOp::Write(w, v) => { pool.write(0, w, v); history[w].insert(v); }
                PoolOp::Flush(w) => pool.flush_line(0, w),
                PoolOp::Fence => pool.sfence(0),
                PoolOp::Evict(w) => pool.force_evict(w),
            }
        }
        pool.crash();
        let img = pool.snapshot_durable();
        for (w, hist) in history.iter().enumerate() {
            prop_assert!(
                hist.contains(&img.word(w)),
                "word {} holds {} which was never written", w, img.word(w)
            );
        }
    }
}
