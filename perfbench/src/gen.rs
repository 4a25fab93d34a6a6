//! The seeded load generator: key draws, request mixes and open-loop
//! arrival schedules. Everything here is a pure function of the seed, so
//! one seed always produces the same requests at the same intended times.

use kvserve::{MapOp, RoutingTable};
use std::time::{Duration, Instant};

/// splitmix64: a small, well-mixed, seedable generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Whether `key` belongs to the prefilled half of the key space under
/// `seed`.
pub fn prefilled(key: u64, seed: u64) -> bool {
    Rng::new(seed, key ^ 0x5eed_f111).next() & 1 == 0
}

/// YCSB's Zipfian generator over `0..keys` (θ = 0 draws uniformly). Ranks
/// are scrambled by an odd multiplier, a bijection when `keys` is a power
/// of two, so the hot keys spread over the shards.
#[derive(Clone)]
pub struct KeyGen {
    keys: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl KeyGen {
    pub fn new(keys: u64, theta: f64) -> KeyGen {
        assert!(keys.is_power_of_two(), "key count must be a power of two");
        assert!((0.0..1.0).contains(&theta), "zipf theta must be in [0, 1)");
        if theta == 0.0 {
            return KeyGen {
                keys,
                theta,
                zetan: 0.0,
                alpha: 0.0,
                eta: 0.0,
            };
        }
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

    pub fn draw(&self, rng: &mut Rng) -> u64 {
        if self.theta == 0.0 {
            return rng.below(self.keys);
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
        rank.min(self.keys - 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) & (self.keys - 1)
    }
}

/// The request shapes of the two service workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// One key: 50% Get, 50% Insert.
    Update,
    /// An atomic Insert of two keys owned by different shards.
    CrossShard,
}

/// Draws the requests of one mix. Every Insert carries a value no other
/// write uses, so a read names the write it observed.
pub struct OpGen {
    mix: Mix,
    keys: KeyGen,
    table: RoutingTable,
    rng: Rng,
    next_value: u64,
}

/// Written values start above every prefill value (`key + 1`).
pub const FIRST_VALUE: u64 = 1 << 40;

impl OpGen {
    pub fn new(mix: Mix, keys: KeyGen, shards: usize, seed: u64, stream: u64) -> OpGen {
        OpGen {
            mix,
            keys,
            table: RoutingTable::fresh(shards),
            rng: Rng::new(seed, stream),
            next_value: FIRST_VALUE + (stream << 32),
        }
    }

    pub fn next_ops(&mut self) -> Vec<MapOp> {
        let k = self.keys.draw(&mut self.rng);
        match self.mix {
            Mix::Update if self.rng.next() & 1 == 0 => vec![MapOp::Get(k)],
            Mix::Update => vec![MapOp::Insert(k, self.value())],
            Mix::CrossShard => {
                let shard = self.table.route(k);
                let k2 = loop {
                    let c = self.keys.draw(&mut self.rng);
                    if self.table.route(c) != shard {
                        break c;
                    }
                };
                let v = self.value();
                vec![MapOp::Insert(k, v), MapOp::Insert(k2, v)]
            }
        }
    }

    fn value(&mut self) -> u64 {
        self.next_value += 1;
        self.next_value
    }
}

/// One open-loop arrival: when it is due (ns after the phase starts) and
/// what it asks.
pub struct Arrival {
    pub at_ns: u64,
    pub ops: Vec<MapOp>,
}

/// Poisson arrivals at `rate` per second over `secs`, drawn from their
/// own stream of `seed`, with the requests from `ops`.
pub fn schedule(rate: f64, secs: f64, seed: u64, ops: &mut OpGen) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 0xa771_5a1e);
    let end_ns = secs * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * secs * 1.05) as usize + 16);
    loop {
        t += -rng.unit().ln() / rate * 1e9;
        if t >= end_ns {
            return out;
        }
        out.push(Arrival {
            at_ns: t as u64,
            ops: ops.next_ops(),
        });
    }
}

/// Sleep until `origin + at_ns`; returns at once if that has passed.
pub fn sleep_until(origin: Instant, at_ns: u64) {
    let now = origin.elapsed().as_nanos() as u64;
    if at_ns > now {
        std::thread::sleep(Duration::from_nanos(at_ns - now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64) -> OpGen {
        OpGen::new(Mix::Update, KeyGen::new(1 << 16, 0.99), 2, seed, 1)
    }

    #[test]
    fn seeded_schedules_repeat_exactly() {
        let a = schedule(20_000.0, 0.5, 7, &mut gen(7));
        let b = schedule(20_000.0, 0.5, 7, &mut gen(7));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_ns, y.at_ns);
            assert_eq!(x.ops, y.ops);
        }
        let c = schedule(20_000.0, 0.5, 8, &mut gen(8));
        assert!(a.iter().zip(&c).any(|(x, y)| x.at_ns != y.at_ns));
    }

    #[test]
    fn schedules_hit_the_offered_rate() {
        for (rate, secs) in [(20_000.0, 2.0), (5_000.0, 4.0)] {
            for seed in 1..=5 {
                let s = schedule(rate, secs, seed, &mut gen(seed));
                let got = s.len() as f64 / secs;
                assert!(
                    (got / rate - 1.0).abs() < 0.03,
                    "seed {seed}: {got:.0}/s offered for {rate}/s"
                );
                assert!(s.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
                assert!(s.last().unwrap().at_ns < (secs * 1e9) as u64);
            }
        }
    }

    #[test]
    fn cross_shard_requests_span_two_shards() {
        let table = RoutingTable::fresh(2);
        let mut g = OpGen::new(Mix::CrossShard, KeyGen::new(1 << 16, 0.0), 2, 3, 1);
        for _ in 0..1000 {
            let ops = g.next_ops();
            let [MapOp::Insert(a, v), MapOp::Insert(b, w)] = ops[..] else {
                panic!("not a two-key multi-put: {ops:?}");
            };
            assert_ne!(table.route(a), table.route(b));
            assert_eq!(v, w);
            assert!(v > FIRST_VALUE);
        }
    }

    #[test]
    fn update_mix_is_half_writes_with_unique_values() {
        let mut g = gen(5);
        let mut values = std::collections::HashSet::new();
        let mut writes = 0;
        for _ in 0..10_000 {
            if let [MapOp::Insert(_, v)] = g.next_ops()[..] {
                writes += 1;
                assert!(values.insert(v), "value {v} reused");
            }
        }
        assert!((4_500..5_500).contains(&writes), "{writes} writes in 10000");
    }

    #[test]
    fn zipf_keys_are_skewed_and_in_range() {
        let kg = KeyGen::new(1 << 16, 0.99);
        let mut rng = Rng::new(1, 2);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            let k = kg.draw(&mut rng);
            assert!(k < 1 << 16);
            *counts.entry(k).or_insert(0u32) += 1;
        }
        let hottest = counts.values().max().copied().unwrap();
        assert!(hottest > 5_000, "hottest key drew only {hottest} of 100000");
    }
}
