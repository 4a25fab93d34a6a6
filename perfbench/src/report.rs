//! Percentiles with their sample counts, and the run's report: readable
//! lines first, then the one-line JSON result.

use std::fmt::Write as _;

/// A percentile of a sample set together with the number of samples it
/// was taken from (zero samples read as value 0).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
}

/// The nearest-rank `q`-quantile of `sorted` (ascending).
pub fn pct(sorted: &[f64], q: f64) -> Pct {
    if sorted.is_empty() {
        return Pct { value: 0.0, n: 0 };
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Pct {
        value: sorted[rank.clamp(1, sorted.len()) - 1],
        n: sorted.len(),
    }
}

/// Sort samples ascending (NaN-free by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The median of a few repeated measurements.
pub fn median(v: &[f64]) -> f64 {
    pct(&sorted(v.to_vec()), 0.5).value
}

/// The value a tenth of a run's measurement windows beat: the first
/// decile of times, the ninth decile of rates. On a shared host a vCPU's
/// speed shifts by a fifth or more, in phases of seconds to minutes. A
/// run-wide mean reads how much of the run the host happened to be busy;
/// this decile reads the system during the host's quieter moments, which
/// most runs contain.
pub fn steady(windows: &[f64], higher_is_better: bool) -> Pct {
    let q = if higher_is_better { 0.9 } else { 0.1 };
    pct(&sorted(windows.to_vec()), q)
}

/// The length of windows of about `target_ns` that tile `total_ns`.
pub fn window_ns(total_ns: u64, target_ns: u64) -> u64 {
    let n = ((total_ns as f64 / target_ns as f64).round() as u64).max(1);
    total_ns / n
}

/// Values separated by spaces, with `digits` decimals each.
pub fn joined(v: &[f64], digits: usize) -> String {
    v.iter()
        .map(|x| format!("{x:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit and
/// have at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Record a metric. A name may be set once.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.add(name, value, unit, None);
    }

    /// Record a percentile metric with its sample count.
    pub fn put_pct(&mut self, name: &'static str, p: Pct, unit: &'static str) {
        self.add(name, p.value, unit, Some(p.n));
    }

    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: Option<usize>) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }

    /// A free-form line for the readable part of the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    #[cfg(test)]
    pub fn names(&self) -> Vec<&'static str> {
        self.metrics.iter().map(|m| m.name).collect()
    }

    /// The readable report: notes, then one line per metric, each
    /// percentile with its sample count.
    pub fn lines(&self) -> Vec<String> {
        let mut out = self.notes.clone();
        for m in &self.metrics {
            let mut line = format!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(line, "  (n={n})");
            }
            out.push(line);
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its value and unit.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            attempted.max(1)
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_carry_their_sample_count() {
        let v = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(
            pct(&v, 0.5),
            Pct {
                value: 50.0,
                n: 100
            }
        );
        assert_eq!(
            pct(&v, 0.95),
            Pct {
                value: 95.0,
                n: 100
            }
        );
        assert_eq!(pct(&v, 1.0).value, 100.0);
        assert_eq!(pct(&v, 0.0).value, 1.0);
        assert_eq!(pct(&[], 0.5), Pct { value: 0.0, n: 0 });
        let mut r = Report::default();
        r.put_pct("p50_us", pct(&v, 0.5), "us");
        assert!(r.lines()[0].ends_with("(n=100)"), "{:?}", r.lines());
    }

    #[test]
    fn steady_reads_the_better_decile() {
        let w: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(steady(&w, false), Pct { value: 2.0, n: 20 });
        assert_eq!(steady(&w, true), Pct { value: 18.0, n: 20 });
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in ["p50_us", "nvhalt.abort.hw_conflict", "x-1", "9a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut r = Report::default();
        r.put("setup_s", 0.5, "s");
        r.put("cpu_us_per_req", f64::NAN, "us");
        let j = r.json(true, 10, 0);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"cpu_us_per_req\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metrics_are_refused() {
        let mut r = Report::default();
        r.put("a", 1.0, "s");
        r.put("a", 2.0, "s");
    }
}
