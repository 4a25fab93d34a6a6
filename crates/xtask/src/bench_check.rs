//! `cargo xtask check-bench FILE... [--min-depth N] [--max-flushes-per-op X]
//! [--max-fences-per-op X] [--max-flip-pause-us N]` — schema-validate
//! `kvserve-bench-v1` benchmark artifacts (`BENCH_*.json`).
//!
//! CI runs this over the committed artifacts and over the artifact of
//! every bench smoke run, so the artifact schema cannot drift from what
//! the bench binary emits: every cell must carry a throughput, the
//! p50/p95/p99 latency percentiles, and the flushes/fences-per-committed-
//! op persist accounting; the file-level summary must record the peak
//! in-flight depth. `--min-depth N` additionally requires
//! `summary.max_in_flight >= N` — the acceptance gate proving the
//! open-loop generator actually sustained N requests in flight from a
//! single submitting thread. `--max-flushes-per-op X` requires every
//! cell that committed work to stay at or under X flushes per committed
//! op — the persist-path efficiency gate: a regression that re-inflates
//! flush traffic (losing the group-commit coalescing) fails CI like a
//! latency regression would. `--max-fences-per-op X` is the same gate
//! over fences per committed op — what the cross-shard smoke holds the
//! 2PC commit path to. `--max-flip-pause-us N` requires every cell to
//! carry a `migration` block whose `flip_pause_us` is at or under N — the
//! live-migration write-pause gate; an artifact without a migration
//! fails it.
//!
//! Dependency-free by design (the workspace has no serde): a ~100-line
//! recursive-descent parser over the JSON subset the bench emits.

use std::process::ExitCode;

/// Parsed JSON value (the subset the artifacts use).
#[derive(Debug, PartialEq)]
pub enum Val {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

impl Val {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Val> {
        match self {
            Val::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Val::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("byte {}: {what}", self.pos)
    }

    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    fn lit(&mut self, s: &str, v: Val) -> Result<Val, String> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{s}`")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(b) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.err("truncated utf8"))?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| self.err("bad utf8"))?);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Val, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Val::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek() {
            Some(b'{') => {
                self.eat(b'{')?;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Val::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Val::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'[') => {
                self.eat(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Val::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b't') => self.lit("true", Val::Bool(true)),
            Some(b'f') => self.lit("false", Val::Bool(false)),
            Some(b'n') => self.lit("null", Val::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

/// Parse a JSON document (rejecting trailing garbage).
pub fn parse(text: &str) -> Result<Val, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

fn require_num(v: &Val, path: &str, errors: &mut Vec<String>) -> f64 {
    let mut cur = v;
    for seg in path.split('.') {
        match cur.get(seg) {
            Some(next) => cur = next,
            None => {
                errors.push(format!("missing `{path}`"));
                return f64::NAN;
            }
        }
    }
    match cur.num() {
        Some(n) => n,
        None => {
            errors.push(format!("`{path}` is not a number"));
            f64::NAN
        }
    }
}

/// The optional gates of a `check-bench` run, on top of the schema.
#[derive(Clone, Copy, Default)]
pub struct Gates {
    /// `--min-depth N`: `summary.max_in_flight >= N`.
    pub min_depth: Option<u64>,
    /// `--max-flushes-per-op X`: every cell at or under X flushes per
    /// committed op.
    pub max_flushes: Option<f64>,
    /// `--max-fences-per-op X`: every cell at or under X fences per
    /// committed op.
    pub max_fences: Option<f64>,
    /// `--max-flip-pause-us N`: every cell's `migration.flip_pause_us`
    /// at or under N (a cell without a migration block fails).
    pub max_flip_pause_us: Option<f64>,
}

/// Validate one parsed artifact against the `kvserve-bench-v1` schema
/// and `gates`. Returns the violations (empty = valid).
pub fn validate(doc: &Val, gates: Gates) -> Vec<String> {
    let mut errors = Vec::new();
    match doc.get("schema").and_then(Val::str) {
        Some("kvserve-bench-v1") => {}
        Some(other) => errors.push(format!("unknown schema `{other}`")),
        None => errors.push("missing `schema`".into()),
    }
    match doc.get("mode").and_then(Val::str) {
        // The `net-` modes drive the wire-protocol front end over
        // loopback TCP; their cells carry the same
        // throughput/latency/persist obligations.
        Some("open-loop" | "closed-loop" | "net-open-loop" | "net-closed-loop") => {}
        Some(other) => errors.push(format!("unknown mode `{other}`")),
        None => errors.push("missing `mode`".into()),
    }
    match doc.get("baseline").and_then(|b| b.get("tput_ops_per_sec")) {
        Some(Val::Obj(mixes)) if !mixes.is_empty() => {
            for (mix, tput) in mixes {
                if tput.num().is_none_or(|t| t.is_nan() || t <= 0.0) {
                    errors.push(format!("baseline tput for `{mix}` not positive"));
                }
            }
        }
        _ => errors.push("missing `baseline.tput_ops_per_sec`".into()),
    }
    match doc.get("cells") {
        Some(Val::Arr(cells)) if !cells.is_empty() => {
            for (i, cell) in cells.iter().enumerate() {
                let mut cell_errors = Vec::new();
                let tput = require_num(cell, "tput_ops_per_sec", &mut cell_errors);
                if tput < 0.0 {
                    cell_errors.push("negative throughput".into());
                }
                for q in ["p50", "p95", "p99"] {
                    // Null is legal (an idle cell has no samples), but the
                    // field itself must exist.
                    match cell.get("latency_us").and_then(|l| l.get(q)) {
                        Some(Val::Num(_) | Val::Null) => {}
                        _ => cell_errors.push(format!("missing `latency_us.{q}`")),
                    }
                }
                let flushes = require_num(cell, "persist.flushes_per_op", &mut cell_errors);
                let fences = require_num(cell, "persist.fences_per_op", &mut cell_errors);
                require_num(cell, "max_in_flight", &mut cell_errors);
                for (what, per_op, max) in [
                    ("flushes", flushes, gates.max_flushes),
                    ("fences", fences, gates.max_fences),
                ] {
                    // Idle cells report 0 and pass trivially; NaN from a
                    // missing field is already an error above.
                    if let Some(max) = max.filter(|&max| per_op > max) {
                        cell_errors.push(format!(
                            "persist.{what}_per_op = {per_op} above \
                             required --max-{what}-per-op {max}"
                        ));
                    }
                }
                if let Some(max) = gates.max_flip_pause_us {
                    let pause = require_num(cell, "migration.flip_pause_us", &mut cell_errors);
                    if pause > max {
                        cell_errors.push(format!(
                            "migration.flip_pause_us = {pause} above \
                             required --max-flip-pause-us {max}"
                        ));
                    }
                }
                errors.extend(cell_errors.into_iter().map(|e| format!("cell {i}: {e}")));
            }
        }
        _ => errors.push("missing or empty `cells`".into()),
    }
    let depth = require_num(doc, "summary.max_in_flight", &mut errors);
    if let Some(min) = gates.min_depth {
        if depth.is_nan() || depth < min as f64 {
            errors.push(format!(
                "summary.max_in_flight = {depth} below required --min-depth {min}"
            ));
        }
    }
    errors
}

/// Entry point for `cargo xtask check-bench`.
pub fn run(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut gates = Gates::default();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--min-depth" {
            gates.min_depth = args.get(i + 1).and_then(|s| s.parse().ok());
            if gates.min_depth.is_none() {
                eprintln!("--min-depth needs an integer");
                return ExitCode::FAILURE;
            }
            i += 2;
        } else if let Some(gate) = match args[i].as_str() {
            "--max-flushes-per-op" => Some(&mut gates.max_flushes),
            "--max-fences-per-op" => Some(&mut gates.max_fences),
            "--max-flip-pause-us" => Some(&mut gates.max_flip_pause_us),
            _ => None,
        } {
            *gate = args.get(i + 1).and_then(|s| s.parse().ok());
            if gate.is_none() {
                eprintln!("{} needs a number", args[i]);
                return ExitCode::FAILURE;
            }
            i += 2;
        } else {
            files.push(args[i].clone());
            i += 1;
        }
    }
    if files.is_empty() {
        eprintln!(
            "usage: cargo xtask check-bench FILE... [--min-depth N] \
             [--max-flushes-per-op X] [--max-fences-per-op X] \
             [--max-flip-pause-us N]"
        );
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                println!("{file}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        let errors = match parse(&text) {
            Ok(doc) => validate(&doc, gates),
            Err(e) => vec![format!("not valid JSON: {e}")],
        };
        if errors.is_empty() {
            println!("{file}: ok");
        } else {
            for e in &errors {
                println!("{file}: {e}");
            }
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(summary_depth: u64) -> String {
        format!(
            r#"{{
  "schema": "kvserve-bench-v1",
  "mode": "open-loop",
  "baseline": {{"tput_ops_per_sec": {{"update-heavy": 1e6}}}},
  "summary": {{"max_in_flight": {summary_depth}}},
  "cells": [
    {{
      "tput_ops_per_sec": 20000.5,
      "max_in_flight": {summary_depth},
      "latency_us": {{"p50": 10.2, "p95": 41.0, "p99": null}},
      "persist": {{"flushes_per_op": 1.29, "fences_per_op": 0.86}}
    }}
  ]
}}"#
        )
    }

    fn depth(min: u64) -> Gates {
        Gates {
            min_depth: Some(min),
            ..Gates::default()
        }
    }

    #[test]
    fn valid_artifact_passes() {
        let v = parse(&doc(4096)).unwrap();
        assert_eq!(validate(&v, Gates::default()), Vec::<String>::new());
        assert_eq!(validate(&v, depth(1024)), Vec::<String>::new());
    }

    #[test]
    fn net_open_loop_mode_accepted() {
        let text = doc(4096).replace("\"open-loop\"", "\"net-open-loop\"");
        let v = parse(&text).unwrap();
        assert_eq!(validate(&v, depth(1024)), Vec::<String>::new());
        let closed = doc(4096).replace("\"open-loop\"", "\"net-closed-loop\"");
        assert_eq!(
            validate(&parse(&closed).unwrap(), Gates::default()),
            Vec::<String>::new()
        );
        let bogus = doc(4096).replace("\"open-loop\"", "\"net-half-open-loop\"");
        let errs = validate(&parse(&bogus).unwrap(), Gates::default());
        assert!(errs.iter().any(|e| e.contains("unknown mode")), "{errs:?}");
    }

    #[test]
    fn min_depth_gate_enforced() {
        let v = parse(&doc(512)).unwrap();
        assert!(validate(&v, Gates::default()).is_empty());
        let errs = validate(&v, depth(1024));
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("below required"), "{errs:?}");
    }

    #[test]
    fn max_flushes_gate_enforced() {
        // The fixture cell reports 1.29 flushes per op.
        let v = parse(&doc(4096)).unwrap();
        let max = |x| Gates {
            max_flushes: Some(x),
            ..Gates::default()
        };
        assert!(validate(&v, max(4.0)).is_empty());
        let errs = validate(&v, max(1.0));
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains("above required --max-flushes-per-op"),
            "{errs:?}"
        );
    }

    #[test]
    fn max_fences_gate_enforced() {
        // The fixture cell reports 0.86 fences per op.
        let v = parse(&doc(4096)).unwrap();
        let max = |x| Gates {
            max_fences: Some(x),
            ..Gates::default()
        };
        assert!(validate(&v, max(3.0)).is_empty());
        let errs = validate(&v, max(0.5));
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains("persist.fences_per_op = 0.86 above required --max-fences-per-op 0.5"),
            "{errs:?}"
        );
    }

    #[test]
    fn max_flip_pause_gate_enforced() {
        let max = |x| Gates {
            max_flip_pause_us: Some(x),
            ..Gates::default()
        };
        // No migration block: the gate cannot pass.
        let plain = parse(&doc(4096)).unwrap();
        let errs = validate(&plain, max(50_000.0));
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains("missing `migration.flip_pause_us`"),
            "{errs:?}"
        );
        let migrated = doc(4096).replace(
            r#""max_in_flight": 4096,"#,
            r#""max_in_flight": 4096, "migration": {"flip_pause_us": 12500.5},"#,
        );
        let v = parse(&migrated).unwrap();
        assert!(validate(&v, Gates::default()).is_empty());
        assert!(validate(&v, max(50_000.0)).is_empty());
        let errs = validate(&v, max(10_000.0));
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains(
                "migration.flip_pause_us = 12500.5 above required --max-flip-pause-us 10000"
            ),
            "{errs:?}"
        );
    }

    #[test]
    fn missing_percentile_and_persist_fields_flagged() {
        let text = r#"{
  "schema": "kvserve-bench-v1",
  "mode": "closed-loop",
  "baseline": {"tput_ops_per_sec": {"scan": 5e5}},
  "summary": {"max_in_flight": 8},
  "cells": [{"tput_ops_per_sec": 100, "max_in_flight": 8, "latency_us": {"p50": 1}}]
}"#;
        let errs = validate(&parse(text).unwrap(), Gates::default());
        assert!(
            errs.iter().any(|e| e.contains("latency_us.p95")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("persist.flushes_per_op")),
            "{errs:?}"
        );
    }

    #[test]
    fn wrong_schema_and_empty_cells_flagged() {
        let text = r#"{"schema": "v0", "mode": "open-loop", "cells": []}"#;
        let errs = validate(&parse(text).unwrap(), Gates::default());
        assert!(errs.iter().any(|e| e.contains("unknown schema")));
        assert!(errs.iter().any(|e| e.contains("cells")));
    }

    #[test]
    fn parser_handles_nesting_escapes_and_rejects_garbage() {
        let v = parse(r#"{"a": [1, -2.5, "x\n\"y\"", true, null], "b": {}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Val::Arr(vec![
                Val::Num(1.0),
                Val::Num(-2.5),
                Val::Str("x\n\"y\"".into()),
                Val::Bool(true),
                Val::Null,
            ])
        );
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("{\"a\": }").is_err());
    }
}
