//! SPHT's global-lock fallback must not lose updates to hardware
//! transactions that were already committing when it took the lock.
//!
//! A hardware commit validates its read set (including the global lock
//! word) and only then publishes its buffered writes, holding just the
//! written slots locked while it does. With a single hardware attempt
//! per transaction, conflicting increments fall back to software
//! constantly, so a fallback that reads with a plain load — the old
//! value, while the publication is still in flight — and then has its
//! write overwritten by that publication shows up as a short count.

use spht::{Spht, SphtConfig};
use std::sync::Arc;
use tm::{txn, Addr, Tm};

const TRIALS: usize = 20;
const THREADS: usize = 4;
const INCREMENTS: u64 = 2_000;

#[test]
fn fallback_path_never_loses_an_increment() {
    for trial in 0..TRIALS {
        let mut cfg = SphtConfig::test(1 << 12, THREADS);
        cfg.policy.hw_attempts = 1;
        let t = Arc::new(Spht::new(cfg));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..INCREMENTS {
                        txn(&*t, tid, |tx| {
                            let v = tx.read(Addr(1))?;
                            tx.write(Addr(1), v + 1)
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            t.read_raw(Addr(1)),
            THREADS as u64 * INCREMENTS,
            "trial {trial}: lost increments"
        );
    }
}
