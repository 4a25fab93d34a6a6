//! The durability check: every acknowledged write must be readable after
//! a crash and recovery, unless a write that started after it finished
//! replaced it.

use std::collections::HashMap;

/// One write to one key: its value and when it was sent and acknowledged
/// (ns on the run's clock). A write never acknowledged has
/// `acked_ns == u64::MAX`: it may or may not have taken effect.
#[derive(Clone, Copy, Debug)]
struct Write {
    value: u64,
    sent_ns: u64,
    acked_ns: u64,
}

/// One key's writes that may still hold its final value.
#[derive(Default)]
struct KeyWrites {
    /// The acknowledged write sent last. A write acknowledged before it
    /// was sent has been replaced in real time and can no longer be the
    /// key's value.
    newest_acked: Option<Write>,
    live: Vec<Write>,
}

/// The writes the benchmark made, by key. Memory stays bounded by the
/// key count: each key keeps only the writes that may still be its value.
#[derive(Default)]
pub struct Ledger {
    keys: HashMap<u64, KeyWrites>,
    recorded: usize,
}

impl Ledger {
    /// Record a write; `acked_ns = None` for one that failed or never
    /// answered.
    pub fn record(&mut self, key: u64, value: u64, sent_ns: u64, acked_ns: Option<u64>) {
        let w = Write {
            value,
            sent_ns,
            acked_ns: acked_ns.unwrap_or(u64::MAX),
        };
        let k = self.keys.entry(key).or_default();
        if acked_ns.is_some() && k.newest_acked.is_none_or(|n| sent_ns > n.sent_ns) {
            k.newest_acked = Some(w);
        }
        k.live.push(w);
        let since = k.newest_acked.map_or(0, |n| n.sent_ns);
        k.live.retain(|w| w.acked_ns >= since);
        self.recorded += 1;
    }

    /// Every key written, ascending.
    pub fn keys(&self) -> Vec<u64> {
        let mut k: Vec<u64> = self.keys.keys().copied().collect();
        k.sort_unstable();
        k
    }

    /// Writes recorded, acknowledged or not.
    pub fn len(&self) -> usize {
        self.recorded
    }

    /// Check the values read back after recovery (`read[key]`). A key's
    /// value must come from one of its writes, and no acknowledged write
    /// may have been sent after that write was acknowledged: such a
    /// write is newer in real time, so it was lost. Returns the number of
    /// keys checked.
    pub fn check(&self, read: &HashMap<u64, Option<u64>>) -> Result<usize, String> {
        for (&key, k) in &self.keys {
            let got = read
                .get(&key)
                .ok_or_else(|| format!("key {key} was not read back"))?;
            match (got, k.newest_acked) {
                (None, Some(n)) => {
                    return Err(format!(
                        "key {key} is absent but the write of {} was acknowledged",
                        n.value
                    ))
                }
                (Some(v), newest) if !k.live.iter().any(|w| w.value == *v) => {
                    return Err(match newest {
                        Some(n) => format!(
                            "key {key} holds {v}, but the later write of {} was acknowledged",
                            n.value
                        ),
                        None => format!("key {key} holds {v}, which no write stored"),
                    })
                }
                _ => {}
            }
        }
        Ok(self.keys.len())
    }
}

/// Compare the map contents before a crash with those after recovery
/// (both sorted by key).
pub fn same_contents(before: &[(u64, u64)], after: &[(u64, u64)]) -> Result<usize, String> {
    if let Some((b, a)) = before.iter().zip(after).find(|(b, a)| b != a) {
        return Err(format!("before crash {b:?}, after recovery {a:?}"));
    }
    if before.len() != after.len() {
        return Err(format!(
            "{} entries before crash, {} after recovery",
            before.len(),
            after.len()
        ));
    }
    Ok(before.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three acknowledged writes to key 1 in sequence, and one to key 2.
    fn ledger() -> Ledger {
        let mut l = Ledger::default();
        l.record(1, 10, 0, Some(5));
        l.record(1, 11, 6, Some(9));
        l.record(1, 12, 10, Some(20));
        l.record(2, 7, 0, Some(1));
        l
    }

    fn reads(pairs: &[(u64, Option<u64>)]) -> HashMap<u64, Option<u64>> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn every_acked_write_readable_passes() {
        assert_eq!(
            ledger().check(&reads(&[(1, Some(12)), (2, Some(7))])),
            Ok(2)
        );
    }

    #[test]
    fn a_dropped_write_fails_the_check() {
        // The newest write to key 1 was lost: the older value shows.
        let err = ledger()
            .check(&reads(&[(1, Some(11)), (2, Some(7))]))
            .unwrap_err();
        assert!(err.contains("later write of 12"), "{err}");
        // A key whose only write was lost.
        assert!(ledger().check(&reads(&[(1, Some(12)), (2, None)])).is_err());
        // A value nobody wrote.
        assert!(ledger()
            .check(&reads(&[(1, Some(99)), (2, Some(7))]))
            .is_err());
    }

    #[test]
    fn replaced_writes_are_forgotten() {
        let mut l = Ledger::default();
        for i in 0..1000 {
            l.record(5, i, 10 * i, Some(10 * i + 5));
        }
        assert_eq!(l.len(), 1000);
        assert_eq!(l.keys[&5].live.len(), 1);
        assert!(l.check(&reads(&[(5, Some(999))])).is_ok());
        assert!(l.check(&reads(&[(5, Some(998))])).is_err());
    }

    #[test]
    fn overlapping_writes_may_land_in_either_order() {
        let mut l = Ledger::default();
        l.record(3, 1, 0, Some(10));
        l.record(3, 2, 5, Some(8));
        for v in [1, 2] {
            assert!(l.check(&reads(&[(3, Some(v))])).is_ok(), "value {v}");
        }
    }

    #[test]
    fn an_unacknowledged_write_may_or_may_not_survive() {
        let mut l = Ledger::default();
        l.record(4, 1, 0, Some(1));
        l.record(4, 2, 2, None);
        for v in [1, 2] {
            assert!(l.check(&reads(&[(4, Some(v))])).is_ok(), "value {v}");
        }
    }

    #[test]
    fn recovered_contents_must_match() {
        let before = [(1, 2), (3, 4), (5, 6)];
        assert_eq!(same_contents(&before, &before), Ok(3));
        assert!(same_contents(&before, &[(1, 2), (5, 6)]).is_err());
        assert!(same_contents(&before, &[(1, 2), (3, 5), (5, 6)]).is_err());
    }
}
