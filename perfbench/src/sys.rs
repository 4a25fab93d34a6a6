//! What the benchmark reads from the operating system: CPU clocks, timer
//! slack, and per-thread CPU from `/proc/self/task`. Standard library
//! only; the two C calls are declared here.

use std::collections::HashMap;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Set the calling thread's timer slack to 1 ns. Threads inherit the
/// slack of the thread that creates them, so calling this first thing in
/// `main` tightens every sleep in the process, the service's included.
pub fn set_timer_slack_1ns() -> bool {
    // SAFETY: prctl(PR_SET_TIMERSLACK, n) takes one unsigned long and
    // touches no memory of ours.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) == 0 }
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time of the whole process, every thread included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Clock ticks per second of `/proc` CPU fields (`USER_HZ`, 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// One thread's `comm` and its `utime + stime` in seconds, parsed from
/// the text of `/proc/self/task/<tid>/stat`. The name sits between the
/// first `(` and the *last* `)`, since a name may contain spaces and `)`.
pub fn parse_stat(stat: &str) -> Option<(String, f64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = stat.get(open + 1..close)?.to_string();
    // After ") " come fields 3.. (state, ppid, ...); utime and stime are
    // fields 14 and 15, so indices 11 and 12 of the remainder.
    let rest: Vec<&str> = stat.get(close + 1..)?.split_whitespace().collect();
    let utime: f64 = rest.get(11)?.parse().ok()?;
    let stime: f64 = rest.get(12)?.parse().ok()?;
    Some((comm, (utime + stime) / TICKS_PER_SEC))
}

/// CPU seconds of every live thread, keyed by tid, with its name.
pub type TaskCpu = HashMap<u64, (String, f64)>;

/// Read every live thread of this process. Threads that exit between the
/// directory listing and the read are skipped.
pub fn task_cpu() -> TaskCpu {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Ok(text) = std::fs::read_to_string(entry.path().join("stat")) {
            if let Some(v) = parse_stat(&text) {
                out.insert(tid, v);
            }
        }
    }
    out
}

/// CPU seconds of the whole process from `/proc/self/stat` (the same
/// clock as [`task_cpu`], so groups and total are comparable).
pub fn proc_cpu() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |(_, cpu)| cpu)
}

/// Per-group CPU seconds spent between two readings, threads grouped by
/// the first prefix of `groups` their name starts with. A thread born in
/// between counts from zero; a thread that died in between is missing
/// from `after` and so lands in no group.
pub fn group_cpu(before: &TaskCpu, after: &TaskCpu, groups: &[&str]) -> Vec<f64> {
    let mut out = vec![0.0; groups.len()];
    for (tid, (comm, cpu)) in after {
        let base = match before.get(tid) {
            Some((c, b)) if c == comm => *b,
            _ => 0.0,
        };
        if let Some(g) = groups.iter().position(|p| comm.starts_with(p)) {
            out[g] += (cpu - base).max(0.0);
        }
    }
    out
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_names_with_spaces_and_parens_parse() {
        let line = "4242 (gen) x (y)) S 1 2 3 0 -1 4194304 10 0 0 0 250 75 0 0 20 0 1 0 5 0 0";
        let (comm, cpu) = parse_stat(line).expect("parses");
        assert_eq!(comm, "gen) x (y)");
        assert!((cpu - 3.25).abs() < 1e-9, "cpu={cpu}");
    }

    #[test]
    fn stat_with_plain_name_parses() {
        let line = "7 (kvserve-s0-w0) R 1 7 7 0 -1 0 0 0 0 0 4 1 0 0 20 0 1 0 9 0 0";
        assert_eq!(parse_stat(line), Some(("kvserve-s0-w0".to_string(), 0.05)));
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat("12 (x) R 1 2"), None);
        assert_eq!(parse_stat("no parens here"), None);
    }

    #[test]
    fn own_threads_are_visible() {
        let tasks = task_cpu();
        assert!(!tasks.is_empty());
        assert!(proc_cpu() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn groups_diff_by_tid_and_name() {
        let before: TaskCpu = [
            (1, ("kvserve-s0-w0".into(), 1.0)),
            (2, ("gen-load".into(), 2.0)),
        ]
        .into_iter()
        .collect();
        let after: TaskCpu = [
            (1, ("kvserve-s0-w0".into(), 1.5)),
            (2, ("gen-load".into(), 2.25)),
            (3, ("kvserve-s1-w0".into(), 0.5)),
            (4, ("main".into(), 9.0)),
        ]
        .into_iter()
        .collect();
        let g = group_cpu(&before, &after, &["kvserve-s", "gen-"]);
        assert!((g[0] - 1.0).abs() < 1e-9);
        assert!((g[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
    }

    #[test]
    fn cpu_clocks_advance() {
        let a = thread_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu() > a);
        assert!(process_cpu() >= thread_cpu());
    }
}
