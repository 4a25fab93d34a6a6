//! `cargo xtask lint` — static workspace invariant checks.
//!
//! A deliberately dumb, dependency-free token scanner over the workspace's
//! Rust sources. It does not parse Rust; it enforces five *textual*
//! discipline rules that the dynamic sanitizers (`psan`, `locksan`)
//! cannot check because they are about what the source is allowed to say,
//! not what an execution did. Invariants that types or lints can hold
//! live there instead: raw `PmemPool::write` calls are a clippy
//! `disallowed-methods` entry (`clippy.toml`), and raw socket writes in
//! kvserve cannot compile outside `net.rs`'s private `wire` module.
//!
//! 1. **No `Ordering::Relaxed` on lock or clock words.** The versioned
//!    locks and the global clocks are the synchronization backbone of
//!    every protocol here; a relaxed load or store on one is a latent
//!    memory-ordering bug even if current tests pass. The failure
//!    ordering of a `compare_exchange` is exempt (it is a failed CAS's
//!    load), as is anything inside a `#[cfg(test)]` region.
//! 2. **No `flush_line`/`sfence` inside hardware-transaction bodies.**
//!    On real HTM a flush aborts the transaction; the simulator would
//!    happily allow it and silently destroy the fidelity argument. The
//!    whole `htm` crate is flush-free, and closures passed to
//!    `.execute(` anywhere else must be too.
//! 3. **Every `unsafe` needs a `SAFETY:` comment** on the same line or
//!    within the three lines above it.
//! 4. **No direct `std::sync::{Mutex,RwLock,Condvar}` outside the shim.**
//!    The `parking_lot` shim is where the lock-discipline sanitizer
//!    (`locksan`) hooks acquire/release; a raw `std::sync` lock is
//!    invisible to deadlock-cycle detection and to the held-lock
//!    counters. Exempt: the shim itself, the sanitizers (`locksan`,
//!    `psan` — they must not instrument their own internals), `pmem`
//!    (which sits *below* the persist layer the sanitizer watches),
//!    `tm::check`'s test-support recorder, and tests/examples.
//! 5. **No `.lock()` inside a transaction closure body.** Blocking on a
//!    service lock while a `tm::txn(` speculation is open inverts the
//!    lock hierarchy (stripe locks are acquired at commit, below every
//!    service lock) and can deadlock against a holder waiting for the
//!    stripes — and the closure may rerun on abort, re-acquiring
//!    arbitrarily often. Take the lock before entering the
//!    transaction, or hand the data in by value.
//!
//! `cargo xtask check-bench` (see `bench_check`) validates
//! `kvserve-bench-v1` benchmark artifacts instead of sources.
//!
//! Scanned roots: `crates/` (minus `xtask` itself), `src/`, `tests/`,
//! `examples/`. Skipped everywhere: `target/`, `shims/` (vendored
//! stand-ins), comment-only lines, and — for every rule but 3 —
//! everything at or below a `#[cfg(test)]` marker (test modules trail
//! their file in this codebase).

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod bench_check;

/// One lint violation.
#[derive(Debug, PartialEq, Eq)]
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Identifiers that name lock or clock words (rule 1).
const LOCK_CLOCK_TOKENS: &[&str] = &["gclock", "gvc", "global_lock", "lock_cell"];

/// Lock-type names that must come from the shim, not `std::sync` (rule 4).
const STD_SYNC_LOCK_TOKENS: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// File-path prefixes allowed to name `std::sync` locks directly (rule 4).
/// The shim wraps std; locksan must not instrument its own internals;
/// `tm::check` is a test-support recorder deliberately outside the
/// tracked hierarchy; integration tests and examples are harness code.
const STD_SYNC_ALLOWLIST: &[&str] = &[
    "crates/locksan/",
    "crates/psan/",
    "crates/pmem/",
    "crates/tm/src/check.rs",
    "tests/",
    "examples/",
];

/// Every lint rule, for `cargo xtask lint --rules`.
const RULES: &[(&str, &str)] = &[
    (
        "relaxed-lock-word",
        "no `Ordering::Relaxed` on lock or clock words (CAS failure ordering exempt)",
    ),
    (
        "flush-in-htm",
        "no flush/fence in the htm crate or inside `.execute(` closures",
    ),
    (
        "safety-comment",
        "every `unsafe` needs a `SAFETY:` comment within 3 lines above",
    ),
    (
        "std-sync-lock",
        "no direct `std::sync::{Mutex,RwLock,Condvar}` outside the shim; use `parking_lot`",
    ),
    (
        "lock-in-txn",
        "no `.lock()` inside a `tm::txn(` closure body; acquire before the transaction",
    ),
];

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("*")
}

/// `unsafe` as a code token (not part of a longer identifier).
fn has_unsafe_token(line: &str) -> bool {
    for (i, _) in line.match_indices("unsafe") {
        let before_ok = i == 0
            || !line.as_bytes()[i - 1].is_ascii_alphanumeric() && line.as_bytes()[i - 1] != b'_';
        let after = i + "unsafe".len();
        let after_ok = after >= line.len()
            || !line.as_bytes()[after].is_ascii_alphanumeric() && line.as_bytes()[after] != b'_';
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

fn brace_delta(line: &str) -> i64 {
    let mut d = 0i64;
    for c in line.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Scan one file's text. `file` is the workspace-relative path used both
/// for reporting and for the path-based allowlists.
fn lint_file(file: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    let in_htm = file.starts_with("crates/htm/");
    // Harness code (top-level and per-crate test dirs, examples) may
    // record results under std locks inside txn closures; the hierarchy
    // rules 4-5 enforce are about production lock discipline.
    let harness =
        STD_SYNC_ALLOWLIST.iter().any(|p| file.starts_with(p)) || file.contains("/tests/");
    let mut in_test = false;
    // Brace depth of an open `.execute(` closure region; None outside.
    let mut execute_depth: Option<i64> = None;
    // Brace depth of an open `tm::txn(` closure region; None outside.
    let mut txn_depth: Option<i64> = None;
    for (i, &line) in lines.iter().enumerate() {
        let lineno = i + 1;
        if line.trim_start().starts_with("#[cfg(test)]") {
            in_test = true;
        }
        if is_comment(line) {
            continue;
        }

        // Rule 3 applies everywhere, test code included.
        if has_unsafe_token(line) {
            let covered = (i.saturating_sub(3)..=i).any(|j| lines[j].contains("SAFETY:"));
            if !covered {
                findings.push(Finding {
                    file: file.to_string(),
                    line: lineno,
                    rule: "safety-comment",
                    message: "`unsafe` without a `SAFETY:` comment within 3 lines above".into(),
                });
            }
        }

        if in_test {
            continue;
        }

        // Rule 1: Relaxed on lock/clock words.
        if line.contains("Ordering::Relaxed")
            && LOCK_CLOCK_TOKENS.iter().any(|t| line.contains(t))
            && !line.contains("compare_exchange")
        {
            findings.push(Finding {
                file: file.to_string(),
                line: lineno,
                rule: "relaxed-lock-word",
                message: "`Ordering::Relaxed` on a lock/clock word".into(),
            });
        }

        // Rule 2: flushes/fences inside hardware-transaction bodies.
        let flushy = line.contains("flush_line(") || line.contains(".sfence(");
        if in_htm && flushy {
            findings.push(Finding {
                file: file.to_string(),
                line: lineno,
                rule: "flush-in-htm",
                message: "flush/fence in the htm crate (aborts real hardware txns)".into(),
            });
        }
        // Rule 4: std::sync locks outside the instrumented shim.
        if !harness
            && line.contains("std::sync::")
            && STD_SYNC_LOCK_TOKENS.iter().any(|t| line.contains(t))
        {
            findings.push(Finding {
                file: file.to_string(),
                line: lineno,
                rule: "std-sync-lock",
                message:
                    "direct `std::sync` lock; use the `parking_lot` shim (locksan hooks there)"
                        .into(),
            });
        }

        // Rule 5: blocking lock acquisition inside a transaction closure.
        match txn_depth {
            Some(depth) => {
                if line.contains(".lock(") || line.contains(".try_lock(") {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: lineno,
                        rule: "lock-in-txn",
                        message: "`.lock()` inside a `tm::txn(` closure; acquire before the txn"
                            .into(),
                    });
                }
                let d = depth + brace_delta(line);
                txn_depth = if d > 0 { Some(d) } else { None };
            }
            None => {
                if !harness && (line.contains("tm::txn(") || line.contains("tm.txn(")) {
                    let d = brace_delta(line);
                    if d > 0 {
                        txn_depth = Some(d);
                    }
                }
            }
        }

        match execute_depth {
            Some(depth) => {
                if flushy {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: lineno,
                        rule: "flush-in-htm",
                        message: "flush/fence inside an `.execute(` closure".into(),
                    });
                }
                let d = depth + brace_delta(line);
                execute_depth = if d > 0 { Some(d) } else { None };
            }
            None => {
                if line.contains(".execute(") {
                    let d = brace_delta(line);
                    if d > 0 {
                        execute_depth = Some(d);
                    }
                }
            }
        }
    }
    findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn workspace_root() -> PathBuf {
    // crates/xtask -> workspace root is two levels up.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let mut p = PathBuf::from(manifest);
    p.pop();
    p.pop();
    p
}

fn print_rules() -> ExitCode {
    for (name, desc) in RULES {
        println!("{name}: {desc}");
    }
    ExitCode::SUCCESS
}

fn run_lint(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--rules") {
        return print_rules();
    }
    let root = workspace_root();
    let mut files = Vec::new();
    for sub in ["crates", "src", "tests", "examples"] {
        collect_rs_files(&root.join(sub), &mut files);
    }
    files.sort();
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.starts_with("crates/xtask/") || rel.starts_with("shims/") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        scanned += 1;
        findings.extend(lint_file(&rel, &text));
    }
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("xtask lint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask lint: {} violation(s) in {scanned} files",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let task = args.first().map(String::as_str).unwrap_or("lint");
    match task {
        "lint" => run_lint(&args[1..]),
        "check-bench" => bench_check::run(&args[1..]),
        other => {
            eprintln!("unknown task `{other}`; available: lint, check-bench");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(file: &str, src: &str) -> Vec<&'static str> {
        lint_file(file, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn relaxed_on_clock_word_flagged() {
        let src = "let v = self.gclock.load(Ordering::Relaxed);\n";
        assert_eq!(
            rules("crates/core/src/engine.rs", src),
            ["relaxed-lock-word"]
        );
    }

    #[test]
    fn relaxed_failure_ordering_of_cas_exempt() {
        let src =
            "self.gclock.compare_exchange(rv, rv + 1, Ordering::AcqRel, Ordering::Relaxed);\n";
        assert!(rules("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn relaxed_on_plain_counter_not_flagged() {
        let src = "self.commits.fetch_add(1, Ordering::Relaxed);\n";
        assert!(rules("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_skips_lock_rules() {
        let src = "#[cfg(test)]\nmod tests {\n let v = gvc.load(Ordering::Relaxed);\n}\n";
        assert!(rules("crates/trinity/src/lib.rs", src).is_empty());
    }

    #[test]
    fn flush_in_htm_crate_flagged() {
        let src = "self.pool.flush_line(tid, w);\n";
        assert_eq!(rules("crates/htm/src/txn.rs", src), ["flush-in-htm"]);
    }

    #[test]
    fn flush_inside_execute_closure_flagged() {
        let src = "self.htm.execute(th, |htx| {\n    pmem2.flush_line(tid, w);\n    Ok(())\n})\n";
        let got = lint_file("crates/core/src/engine.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "flush-in-htm");
        assert_eq!(got[0].line, 2);
    }

    #[test]
    fn flush_after_execute_closure_closes_not_flagged() {
        let src = "self.htm.execute(th, |htx| {\n    Ok(())\n});\nself.pmem2.sfence(tid);\n";
        assert!(rules("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_flagged() {
        let src = "unsafe { ptr.read() }\n";
        assert_eq!(rules("crates/htm/src/txn.rs", src), ["safety-comment"]);
    }

    #[test]
    fn unsafe_with_safety_comment_ok() {
        let src = "// SAFETY: the pointer outlives the call.\nunsafe { ptr.read() }\n";
        assert!(rules("crates/htm/src/txn.rs", src).is_empty());
    }

    #[test]
    fn unsafe_flagged_even_in_test_regions() {
        let src = "#[cfg(test)]\nmod tests {\n unsafe { ptr.read() }\n}\n";
        assert_eq!(rules("crates/htm/src/txn.rs", src), ["safety-comment"]);
    }

    #[test]
    fn unsafe_substring_of_identifier_not_flagged() {
        let src = "let not_unsafe_here = 1;\n";
        assert!(rules("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn std_sync_lock_flagged_outside_shim() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(rules("crates/kvserve/src/ring.rs", src), ["std-sync-lock"]);
        let src = "use std::sync::{Arc, Condvar, Mutex};\n";
        assert_eq!(rules("crates/kvserve/src/repl.rs", src), ["std-sync-lock"]);
        let src = "let g: std::sync::RwLock<u64> = std::sync::RwLock::new(0);\n";
        assert_eq!(rules("crates/core/src/engine.rs", src), ["std-sync-lock"]);
    }

    #[test]
    fn std_sync_lock_exemptions() {
        let src = "use std::sync::Mutex;\n";
        // The sanitizers must not instrument their own internals.
        assert!(rules("crates/locksan/src/lib.rs", src).is_empty());
        assert!(rules("crates/psan/src/lib.rs", src).is_empty());
        // pmem sits below the persist layer the sanitizer watches.
        assert!(rules("crates/pmem/src/pool.rs", src).is_empty());
        // tm::check's recorder is test-support outside the hierarchy.
        assert!(rules("crates/tm/src/check.rs", src).is_empty());
        // Integration tests (top-level or per-crate) and examples are harness code.
        assert!(rules("tests/kvserve_crash.rs", src).is_empty());
        assert!(rules("crates/spht/tests/ordering.rs", src).is_empty());
        assert!(rules("examples/durable_index.rs", src).is_empty());
        // Test regions are exempt like rules 1-2.
        let test_src = "#[cfg(test)]\nmod tests {\n use std::sync::Mutex;\n}\n";
        assert!(rules("crates/kvserve/src/ring.rs", test_src).is_empty());
        // std::sync::Arc and atomics are not locks.
        let src = "use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n";
        assert!(rules("crates/kvserve/src/ring.rs", src).is_empty());
    }

    #[test]
    fn lock_inside_txn_closure_flagged() {
        let src =
            "tm::txn(&*self.log, ltid, |tx| {\n    let g = self.free.lock();\n    Ok(())\n})\n";
        let got = lint_file("crates/kvserve/src/coord.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "lock-in-txn");
        assert_eq!(got[0].line, 2);
        let src = "tm.txn(0, |tx| {\n    let g = cell.try_lock();\n    Ok(())\n})\n";
        assert_eq!(rules("crates/core/src/engine.rs", src), ["lock-in-txn"]);
    }

    #[test]
    fn lock_outside_txn_closure_not_flagged() {
        // Acquire-before-txn is the sanctioned pattern.
        let src = "let g = self.free.lock();\ntm::txn(&*self.log, ltid, |tx| {\n    Ok(())\n});\nlet h = self.group.lock();\n";
        assert!(rules("crates/kvserve/src/coord.rs", src).is_empty());
        // Single-line txn bodies never open a region.
        let src = "let v = tm::txn(&*stm, tid, |tx| tx.read(addr)).unwrap();\nlet g = self.free.lock();\n";
        assert!(rules("crates/kvserve/src/migrate.rs", src).is_empty());
        // `.unlock(` is not `.lock(`.
        let src = "tm::txn(&*stm, tid, |tx| {\n    cell.unlock();\n    Ok(())\n})\n";
        assert!(rules("crates/kvserve/src/coord.rs", src).is_empty());
        // Harness code may record results under a lock inside the closure.
        let src = "tm::txn(tm, t, |tx| {\n    committed.lock().unwrap().push(i);\n    Ok(())\n})\n";
        assert!(rules("tests/crash_recovery.rs", src).is_empty());
    }

    #[test]
    fn comment_lines_are_skipped() {
        let src = "// mentions gclock.load(Ordering::Relaxed) and std::sync::Mutex in prose\n";
        assert!(rules("crates/core/src/engine.rs", src).is_empty());
    }
}
