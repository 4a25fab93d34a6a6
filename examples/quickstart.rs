//! Quickstart: durable bank transfers on NV-HALT.
//!
//! Demonstrates the core API: create a TM, run transactions (they retry
//! on conflicts automatically, first in hardware, then on the software
//! fallback path), pull statistics, crash the "machine", and recover.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nv_halt::prelude::*;

const ACCOUNTS: u64 = 64;
const INITIAL: u64 = 1_000;
const THREADS: usize = 4;

fn balance_addr(account: u64) -> Addr {
    Addr(1 + account)
}

fn main() {
    // An NV-HALT instance: 2^16-word transactional heap, Optane-like NVM
    // latencies, 4 thread slots.
    let mut cfg = NvHaltConfig::test(1 << 16, THREADS);
    cfg.pm.lat = LatencyModel::optane();
    let tm = NvHalt::new(cfg.clone());

    // Fund the accounts.
    for a in 0..ACCOUNTS {
        tm::txn(&tm, 0, |tx| tx.write(balance_addr(a), INITIAL)).unwrap();
    }

    // Hammer random transfers from four threads.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tm = &tm;
            s.spawn(move || {
                let mut rng = (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                for _ in 0..10_000 {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let from = rng % ACCOUNTS;
                    let to = (rng >> 16) % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let amount = 1 + rng % 10;
                    // A transaction: atomic, isolated, durable on commit.
                    let _ = tm::txn(tm, t, |tx| {
                        let f = tx.read(balance_addr(from))?;
                        if f < amount {
                            return Err(Abort::Cancel); // insufficient funds
                        }
                        let g = tx.read(balance_addr(to))?;
                        tx.write(balance_addr(from), f - amount)?;
                        tx.write(balance_addr(to), g + amount)?;
                        Ok(())
                    });
                }
            });
        }
    });

    let total: u64 = (0..ACCOUNTS).map(|a| tm.read_raw(balance_addr(a))).sum();
    println!(
        "total after 40k transfers: {total} (expected {})",
        ACCOUNTS * INITIAL
    );
    assert_eq!(total, ACCOUNTS * INITIAL);

    let stats = tm.stats();
    println!("tm stats: {stats}");
    println!(
        "hardware-path commit ratio: {:.1}%",
        stats.hw_commit_ratio() * 100.0
    );

    // Power failure!
    tm.crash();
    let image = tm.crash_image();
    println!("crashed; durable image captured ({} words)", image.len());

    // Recovery restores every committed transfer.
    let recovered = NvHalt::recover(cfg, &image, []);
    let total: u64 = (0..ACCOUNTS)
        .map(|a| recovered.read_raw(balance_addr(a)))
        .sum();
    println!("total after recovery: {total}");
    assert_eq!(total, ACCOUNTS * INITIAL);
    println!("recovery preserved the invariant — durable linearizability in action");
}
