//! Dynamic lock-discipline sanitizer (lockdep in miniature).
//!
//! psan proves the *persist order* of the TM protocols; nothing proved
//! their *lock order*. This crate closes that gap: every lock of the
//! `parking_lot` shim (so every kvserve service lock), plus the TM fast
//! path's per-address stripe locks, reports its acquisitions here, and
//! the sanitizer maintains
//!
//! * a **global lock registry** — every instance belongs to a *class*
//!   (locks sharing a `locksan_label` share a class; unlabeled locks
//!   get a per-instance class named by their first acquisition site);
//! * **per-thread held-lock stacks** with acquisition-site provenance
//!   (`#[track_caller]` on the shim's lock methods);
//! * a **dynamic lock-order graph** over classes: acquiring B while
//!   holding A inserts the edge A→B; the first edge that closes a cycle
//!   is reported as a potential deadlock (the AB/BA inversion), with
//!   the acquisition sites of both directions.
//!
//! On top of the graph, three rule checks:
//!
//! * [`Rule::LockAcrossPersist`] — a pmem flush or fence executed while
//!   the thread holds a tracked lock whose class was not registered
//!   `allow_persist`. Service locks held across the persist path are a
//!   tail-latency and deadlock hazard (the PR 5 shipper bug class);
//!   locks that exist *to* guard persists (the TMs' thread-state cells,
//!   the replication follower cells) opt out at label time.
//! * [`Rule::CondvarWhileHolding`] — a condvar wait entered while the
//!   thread holds any tracked lock besides the one it is waiting on.
//!   The held lock stays held for the whole (unbounded) wait.
//! * [`Rule::StripeOrder`] — the software fallback claims deadlock
//!   freedom by acquiring its per-address stripe locks in canonical
//!   order; the stripe hooks verify the claimed order actually holds.
//!   Stripes are modeled as one ordered class with a per-acquisition
//!   rank (the canonical sort key), so per-address tracking stays O(1).
//!
//! Zero-cost contract: the instrumented crates gate every hook behind
//! their `locksan` cargo feature — with the feature off the hooks do
//! not exist. With the feature on but the mode `Off` (the default),
//! every hook is a single relaxed atomic load. The mode comes from the
//! `LOCKSAN` environment variable (`1`/`record` → Record, `panic` →
//! Panic) or [`set_mode`].
//!
//! The registry's internals use `std::sync` primitives directly — the
//! sanitizer cannot instrument itself (and the `std-sync-lock` lint
//! rule allowlists this crate for exactly that reason).

use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Sanitizer mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LocksanMode {
    /// No tracking: every hook returns after one atomic load.
    Off,
    /// Track and collect [`Report`]s for [`take_reports`].
    Record,
    /// Track and panic at the offending acquisition/wait/persist, with
    /// the rule label and both sites in the message.
    Panic,
}

impl LocksanMode {
    /// Parse the `LOCKSAN` environment variable (unset/`0`/`off` →
    /// `Off`, `panic` → `Panic`, anything else truthy → `Record`).
    pub fn from_env() -> LocksanMode {
        match std::env::var("LOCKSAN") {
            Err(_) => LocksanMode::Off,
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "" | "0" | "off" => LocksanMode::Off,
                "panic" => LocksanMode::Panic,
                _ => LocksanMode::Record,
            },
        }
    }
}

/// Which discipline a report violates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// A lock-order cycle: some thread acquired B while holding A after
    /// (some thread) acquired A while holding B.
    PotentialDeadlock,
    /// A pmem flush/fence ran while a non-`allow_persist` lock was held.
    LockAcrossPersist,
    /// A condvar wait started while another tracked lock was held.
    CondvarWhileHolding,
    /// Stripe locks acquired out of canonical address order on a path
    /// that claims ordered acquisition.
    StripeOrder,
}

impl Rule {
    /// Short label used in report formatting and panic messages.
    pub fn label(self) -> &'static str {
        match self {
            Rule::PotentialDeadlock => "potential-deadlock",
            Rule::LockAcrossPersist => "lock-across-persist",
            Rule::CondvarWhileHolding => "condvar-while-holding",
            Rule::StripeOrder => "stripe-order",
        }
    }
}

/// One violation. `site_a` is where the offending acquisition/wait/
/// persist happened; `site_b` is the other side's provenance (the held
/// lock's acquisition site, or the reverse edge of a cycle).
#[derive(Clone, Debug)]
pub struct Report {
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description naming the lock classes involved.
    pub detail: String,
    /// Acquisition/wait/persist site of the offending operation.
    pub site_a: String,
    /// Provenance of the other side (held lock / reverse edge).
    pub site_b: String,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "locksan[{}]: {} (at {}; other side at {})",
            self.rule.label(),
            self.detail,
            self.site_a,
            self.site_b
        )
    }
}

/// Per-instance identity carried inside every shim lock. `const`-
/// constructible (the shim's `new` is `const`); the class id is
/// assigned lazily at first acquisition or at `locksan_label` time.
#[derive(Default)]
pub struct LockTag {
    /// Class id + 1; 0 = not yet registered.
    class: AtomicU32,
}

impl LockTag {
    /// A fresh, unregistered tag.
    pub const fn new() -> LockTag {
        LockTag {
            class: AtomicU32::new(0),
        }
    }
}

struct ClassInfo {
    label: &'static str,
    /// First registration site (label call or first acquisition).
    origin: String,
    allow_persist: bool,
}

impl ClassInfo {
    /// Display name: the label, plus the first-acquisition site for
    /// anonymous classes (whose label is just the primitive kind).
    fn name(&self) -> String {
        if self.label == self.origin {
            self.label.to_string()
        } else {
            format!("{} at {}", self.label, self.origin)
        }
    }
}

#[derive(Default)]
struct Registry {
    classes: Vec<ClassInfo>,
    by_label: HashMap<&'static str, u32>,
    /// Lock-order edges `held → acquired` with the provenance of the
    /// first acquisition that inserted them.
    edges: HashMap<(u32, u32), (String, String)>,
    /// Adjacency view of `edges` for the cycle DFS.
    adj: HashMap<u32, Vec<u32>>,
    reports: Vec<Report>,
    /// Classes already reported for `LockAcrossPersist` (dedup).
    persist_reported: Vec<u32>,
    /// Class pairs already reported for `CondvarWhileHolding` (dedup).
    condvar_reported: Vec<(u32, u32)>,
}

/// Mode cell: 255 = uninitialized (read `LOCKSAN` on first use).
static MODE: AtomicU8 = AtomicU8::new(255);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);
/// Deepest tracked held-lock stack seen on any thread.
static HELD_HWM: AtomicU64 = AtomicU64::new(0);
/// Shim acquisitions that found the lock already held and had to block.
static CONTENDED: AtomicU64 = AtomicU64::new(0);

#[derive(Clone)]
struct Held {
    class: u32,
    /// Instance identity (the `LockTag` address).
    instance: usize,
    site: &'static Location<'static>,
}

thread_local! {
    static HELD: std::cell::RefCell<Vec<Held>> = const { std::cell::RefCell::new(Vec::new()) };
    static STRIPES: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The active mode.
#[inline]
pub fn mode() -> LocksanMode {
    match MODE.load(Ordering::Relaxed) {
        255 => {
            let m = LocksanMode::from_env();
            set_mode(m);
            m
        }
        1 => LocksanMode::Record,
        2 => LocksanMode::Panic,
        _ => LocksanMode::Off,
    }
}

/// Set the mode programmatically (fixtures; overrides the env var).
pub fn set_mode(m: LocksanMode) {
    let v = match m {
        LocksanMode::Off => 0,
        LocksanMode::Record => 1,
        LocksanMode::Panic => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

#[inline]
fn enabled() -> bool {
    mode() != LocksanMode::Off
}

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut g = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(g.get_or_insert_with(Registry::default))
}

/// Record a report; in Panic mode returns the message the caller must
/// panic with *after* dropping its own state (never panic here — the
/// registry lock is held).
fn record(reg: &mut Registry, report: Report) -> Option<String> {
    let msg = (mode() == LocksanMode::Panic).then(|| report.to_string());
    reg.reports.push(report);
    msg
}

fn site_str(loc: &Location<'_>) -> String {
    format!("{}:{}", loc.file(), loc.line())
}

fn register_anon_class(reg: &mut Registry, kind: &'static str, origin: String) -> u32 {
    reg.classes.push(ClassInfo {
        label: kind,
        origin,
        allow_persist: false,
    });
    (reg.classes.len() - 1) as u32
}

fn class_of(reg: &mut Registry, tag: &LockTag, kind: &'static str, origin: &Location<'_>) -> u32 {
    let cur = tag.class.load(Ordering::Acquire);
    if cur != 0 {
        return cur - 1;
    }
    let id = register_anon_class(reg, kind, site_str(origin));
    match tag
        .class
        .compare_exchange(0, id + 1, Ordering::AcqRel, Ordering::Acquire)
    {
        Ok(_) => id,
        // Another thread registered concurrently; its class wins (the
        // loser entry stays as a dead row — harmless).
        Err(winner) => winner - 1,
    }
}

/// Name `tag`'s class. Instances sharing a label share a class (and its
/// `allow_persist` flag); lockdep-style class grouping keeps arrays of
/// homologous locks (ring slots, follower cells) to one graph node.
/// Call once, before first acquisition, from the owning constructor.
pub fn label(tag: &LockTag, name: &'static str, allow_persist: bool) {
    if !enabled() {
        return;
    }
    with_registry(|reg| {
        let id = match reg.by_label.get(name) {
            Some(&id) => id,
            None => {
                reg.classes.push(ClassInfo {
                    label: name,
                    origin: name.to_string(),
                    allow_persist,
                });
                let id = (reg.classes.len() - 1) as u32;
                reg.by_label.insert(name, id);
                id
            }
        };
        tag.class.store(id + 1, Ordering::Release);
    });
}

/// Is `to` reachable from `from` over the current order graph?
fn reachable(reg: &Registry, from: u32, to: u32) -> bool {
    if from == to {
        return true;
    }
    let mut seen = vec![from];
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if let Some(next) = reg.adj.get(&n) {
            for &m in next {
                if m == to {
                    return true;
                }
                if !seen.contains(&m) {
                    seen.push(m);
                    stack.push(m);
                }
            }
        }
    }
    false
}

/// A blocking acquisition of `tag` (shim `lock`/`read`/`write`): check
/// order against every held lock, insert new edges, report the first
/// edge that closes a cycle. `kind` names the primitive for anonymous
/// classes ("mutex"/"rwlock").
#[track_caller]
pub fn on_acquire(tag: &LockTag, kind: &'static str) {
    acquire_at(tag, kind, Location::caller(), true)
}

/// A successful *try* acquisition: recorded on the held stack (persist
/// and condvar rules still see it) but inserts no order edges — a
/// failed try-lock backs off instead of deadlocking.
#[track_caller]
pub fn on_try_acquire(tag: &LockTag, kind: &'static str) {
    acquire_at(tag, kind, Location::caller(), false)
}

fn acquire_at(tag: &LockTag, kind: &'static str, caller: &'static Location<'static>, order: bool) {
    if !enabled() {
        return;
    }
    let panic_msg = with_registry(|reg| {
        let class = class_of(reg, tag, kind, caller);
        let mut msg = None;
        if order {
            let held: Vec<Held> = HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
            for h in &held {
                if h.class == class {
                    continue;
                }
                let key = (h.class, class);
                if reg.edges.contains_key(&key) {
                    continue;
                }
                // New edge h.class → class. A path class ⇒ h.class
                // already in the graph means this edge closes a cycle.
                if msg.is_none() && reachable(reg, class, h.class) {
                    let reverse = reg
                        .edges
                        .get(&(class, h.class))
                        .map(|(a, _)| a.clone())
                        .unwrap_or_else(|| "<path through other classes>".to_string());
                    let report = Report {
                        rule: Rule::PotentialDeadlock,
                        detail: format!(
                            "acquiring '{}' while holding '{}' inverts the established \
                             lock order ('{}' was acquired while '{}' was held)",
                            reg.classes[class as usize].name(),
                            reg.classes[h.class as usize].name(),
                            reg.classes[h.class as usize].label,
                            reg.classes[class as usize].label,
                        ),
                        site_a: site_str(caller),
                        site_b: reverse,
                    };
                    msg = record(reg, report);
                }
                reg.edges.insert(key, (site_str(caller), site_str(h.site)));
                reg.adj.entry(h.class).or_default().push(class);
            }
        }
        let _ = HELD.try_with(|h| {
            let mut h = h.borrow_mut();
            h.push(Held {
                class,
                instance: tag as *const LockTag as usize,
                site: caller,
            });
            HELD_HWM.fetch_max(h.len() as u64, Ordering::Relaxed);
        });
        msg
    });
    if let Some(msg) = panic_msg {
        panic!("{msg}");
    }
}

/// A release (guard drop — including panic unwinds; the shim guards'
/// `Drop` impls call this unconditionally).
pub fn on_release(tag: &LockTag) {
    if !enabled() {
        return;
    }
    let instance = tag as *const LockTag as usize;
    let _ = HELD.try_with(|h| {
        let mut h = h.borrow_mut();
        // Innermost matching hold: guards of one lock release LIFO, but
        // unrelated guards may interleave arbitrarily.
        if let Some(i) = h.iter().rposition(|x| x.instance == instance) {
            h.remove(i);
        }
    });
}

/// A shim acquisition found the lock held and had to block.
pub fn on_contended() {
    if !enabled() {
        return;
    }
    CONTENDED.fetch_add(1, Ordering::Relaxed);
}

/// Entering a condvar wait on the mutex behind `mutex_tag`: every
/// *other* tracked lock the thread holds stays held for the whole
/// unbounded wait — report each (deduped per class pair).
#[track_caller]
pub fn on_condvar_wait(mutex_tag: &LockTag) {
    if !enabled() {
        return;
    }
    let caller = Location::caller();
    let instance = mutex_tag as *const LockTag as usize;
    let held: Vec<Held> = HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
    let waited_class = mutex_tag.class.load(Ordering::Acquire).wrapping_sub(1);
    let panic_msg = with_registry(|reg| {
        let mut msg = None;
        for h in &held {
            if h.instance == instance {
                continue;
            }
            let key = (h.class, waited_class);
            if reg.condvar_reported.contains(&key) {
                continue;
            }
            reg.condvar_reported.push(key);
            let report = Report {
                rule: Rule::CondvarWhileHolding,
                detail: format!(
                    "condvar wait on '{}' while holding '{}'",
                    reg.classes
                        .get(waited_class as usize)
                        .map(|c| c.name())
                        .unwrap_or_else(|| "<unregistered>".to_string()),
                    reg.classes[h.class as usize].name(),
                ),
                site_a: site_str(caller),
                site_b: site_str(h.site),
            };
            if msg.is_none() {
                msg = record(reg, report);
            } else {
                reg.reports.push(report);
            }
        }
        msg
    });
    if let Some(msg) = panic_msg {
        panic!("{msg}");
    }
}

/// A pmem flush or fence (`op` = "flush"/"fence") on the calling
/// thread: every held lock whose class is not `allow_persist` is a
/// service lock held across the persist path (deduped per class).
pub fn on_persist(op: &'static str) {
    if !enabled() {
        return;
    }
    let held: Vec<Held> = HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
    if held.is_empty() {
        return;
    }
    let panic_msg = with_registry(|reg| {
        let mut msg = None;
        for h in &held {
            if reg.classes[h.class as usize].allow_persist {
                continue;
            }
            if reg.persist_reported.contains(&h.class) {
                continue;
            }
            reg.persist_reported.push(h.class);
            let report = Report {
                rule: Rule::LockAcrossPersist,
                detail: format!(
                    "pmem {} while holding '{}'",
                    op,
                    reg.classes[h.class as usize].name()
                ),
                site_a: format!("pmem::{op}"),
                site_b: site_str(h.site),
            };
            if msg.is_none() {
                msg = record(reg, report);
            } else {
                reg.reports.push(report);
            }
        }
        msg
    });
    if let Some(msg) = panic_msg {
        panic!("{msg}");
    }
}

/// A fast-path stripe-lock acquisition with canonical rank `rank`.
/// `ordered` is the caller's claim (the strong-progress path sorts its
/// plan; the weak path try-locks unordered and passes `false`);
/// a rank *decrease* under the claim is the violation. `site` names the
/// acquiring protocol step.
pub fn on_stripe_acquire(rank: u64, ordered: bool, site: &'static str) {
    if !enabled() {
        return;
    }
    let violation = STRIPES
        .try_with(|s| {
            let mut s = s.borrow_mut();
            let bad = ordered && s.last().is_some_and(|&last| rank < last);
            let last = s.last().copied();
            s.push(rank);
            bad.then(|| last.unwrap_or(0))
        })
        .unwrap_or(None);
    if let Some(last) = violation {
        let panic_msg = with_registry(|reg| {
            record(
                reg,
                Report {
                    rule: Rule::StripeOrder,
                    detail: format!(
                        "stripe rank {rank} acquired after rank {last} on an ordered path"
                    ),
                    site_a: site.to_string(),
                    site_b: "canonical (cell, addr) order".to_string(),
                },
            )
        });
        if let Some(msg) = panic_msg {
            panic!("{msg}");
        }
    }
}

/// All stripe locks of the current attempt released (commit, abort, or
/// a fresh attempt resetting state after a crash unwind).
pub fn on_stripe_release_all() {
    if !enabled() {
        return;
    }
    let _ = STRIPES.try_with(|s| s.borrow_mut().clear());
}

/// Drain the collected reports.
pub fn take_reports() -> Vec<Report> {
    with_registry(|reg| {
        // Let rules fire again after a drain (fixtures run serially).
        reg.persist_reported.clear();
        reg.condvar_reported.clear();
        std::mem::take(&mut reg.reports)
    })
}

/// Held-lock high-water mark across all threads since start/reset.
pub fn held_hwm() -> u64 {
    HELD_HWM.load(Ordering::Relaxed)
}

/// Blocking shim acquisitions that found their lock contended.
pub fn contended_acquires() -> u64 {
    CONTENDED.load(Ordering::Relaxed)
}

/// Reset all global state: order graph, reports, counters, and the
/// calling thread's stacks. Test plumbing — fixtures run serially and
/// call this between scenarios so edges from one scenario cannot bleed
/// cycles into the next.
pub fn reset() {
    with_registry(|reg| {
        *reg = Registry::default();
    });
    HELD_HWM.store(0, Ordering::Relaxed);
    CONTENDED.store(0, Ordering::Relaxed);
    let _ = HELD.try_with(|h| h.borrow_mut().clear());
    let _ = STRIPES.try_with(|s| s.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

    /// Global state demands serial tests.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn serial() -> StdMutexGuard<'static, ()> {
        let g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_mode(LocksanMode::Record);
        g
    }

    fn release_all(tags: &[&LockTag]) {
        for t in tags {
            on_release(t);
        }
    }

    #[test]
    fn ab_ba_inversion_is_a_potential_deadlock() {
        let _g = serial();
        let a = LockTag::new();
        let b = LockTag::new();
        label(&a, "fixture::A", false);
        label(&b, "fixture::B", false);
        on_acquire(&a, "mutex");
        on_acquire(&b, "mutex"); // edge A→B
        release_all(&[&b, &a]);
        on_acquire(&b, "mutex");
        on_acquire(&a, "mutex"); // edge B→A closes the cycle
        release_all(&[&a, &b]);
        let reports = take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].rule, Rule::PotentialDeadlock);
        assert!(reports[0].detail.contains("fixture::A"));
        assert!(reports[0].detail.contains("fixture::B"));
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn consistent_order_is_clean() {
        let _g = serial();
        let a = LockTag::new();
        let b = LockTag::new();
        label(&a, "fixture::outer", false);
        label(&b, "fixture::inner", false);
        for _ in 0..3 {
            on_acquire(&a, "mutex");
            on_acquire(&b, "mutex");
            release_all(&[&b, &a]);
        }
        assert!(take_reports().is_empty());
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn transitive_cycle_through_three_classes_is_found() {
        let _g = serial();
        let a = LockTag::new();
        let b = LockTag::new();
        let c = LockTag::new();
        label(&a, "fixture::ta", false);
        label(&b, "fixture::tb", false);
        label(&c, "fixture::tc", false);
        on_acquire(&a, "mutex");
        on_acquire(&b, "mutex"); // A→B
        release_all(&[&b, &a]);
        on_acquire(&b, "mutex");
        on_acquire(&c, "mutex"); // B→C
        release_all(&[&c, &b]);
        on_acquire(&c, "mutex");
        on_acquire(&a, "mutex"); // C→A: cycle A→B→C→A
        release_all(&[&a, &c]);
        let reports = take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].rule, Rule::PotentialDeadlock);
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn same_class_nesting_is_not_an_inversion() {
        let _g = serial();
        let a = LockTag::new();
        let b = LockTag::new();
        label(&a, "fixture::cell", false);
        label(&b, "fixture::cell", false);
        on_acquire(&a, "mutex");
        on_acquire(&b, "mutex");
        release_all(&[&b, &a]);
        on_acquire(&b, "mutex");
        on_acquire(&a, "mutex");
        release_all(&[&a, &b]);
        assert!(take_reports().is_empty());
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn try_acquire_inserts_no_edges() {
        let _g = serial();
        let a = LockTag::new();
        let b = LockTag::new();
        label(&a, "fixture::try-a", false);
        label(&b, "fixture::try-b", false);
        on_acquire(&a, "mutex");
        on_try_acquire(&b, "mutex");
        release_all(&[&b, &a]);
        on_acquire(&b, "mutex");
        on_try_acquire(&a, "mutex");
        release_all(&[&a, &b]);
        assert!(take_reports().is_empty());
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn persist_while_holding_is_reported_once_per_class() {
        let _g = serial();
        let a = LockTag::new();
        label(&a, "fixture::svc", false);
        on_acquire(&a, "mutex");
        on_persist("flush");
        on_persist("fence"); // deduped
        on_release(&a);
        let reports = take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].rule, Rule::LockAcrossPersist);
        assert!(reports[0].detail.contains("fixture::svc"));
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn allow_persist_class_is_exempt() {
        let _g = serial();
        let a = LockTag::new();
        label(&a, "fixture::tm-state", true);
        on_acquire(&a, "mutex");
        on_persist("fence");
        on_release(&a);
        assert!(take_reports().is_empty());
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn condvar_wait_while_holding_another_lock() {
        let _g = serial();
        let outer = LockTag::new();
        let waited = LockTag::new();
        label(&outer, "fixture::held", false);
        label(&waited, "fixture::waited", false);
        on_acquire(&outer, "mutex");
        on_acquire(&waited, "mutex");
        on_condvar_wait(&waited);
        release_all(&[&waited, &outer]);
        let reports = take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].rule, Rule::CondvarWhileHolding);
        assert!(reports[0].detail.contains("fixture::held"));
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn condvar_wait_holding_only_its_mutex_is_clean() {
        let _g = serial();
        let waited = LockTag::new();
        label(&waited, "fixture::only", false);
        on_acquire(&waited, "mutex");
        on_condvar_wait(&waited);
        on_release(&waited);
        assert!(take_reports().is_empty());
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn stripe_order_violation_on_ordered_path() {
        let _g = serial();
        on_stripe_acquire(10, true, "test::commit");
        on_stripe_acquire(20, true, "test::commit");
        on_stripe_acquire(5, true, "test::commit"); // out of order
        on_stripe_release_all();
        let reports = take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].rule, Rule::StripeOrder);
        assert!(reports[0].detail.contains("rank 5"));
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn unordered_stripe_path_is_never_checked() {
        let _g = serial();
        on_stripe_acquire(20, false, "test::weak");
        on_stripe_acquire(5, false, "test::weak");
        on_stripe_release_all();
        assert!(take_reports().is_empty());
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn stripe_reset_clears_cross_attempt_state() {
        let _g = serial();
        on_stripe_acquire(50, true, "test::commit");
        on_stripe_release_all();
        on_stripe_acquire(5, true, "test::commit"); // fresh attempt: fine
        on_stripe_release_all();
        assert!(take_reports().is_empty());
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn counters_track_depth_and_contention() {
        let _g = serial();
        let a = LockTag::new();
        let b = LockTag::new();
        label(&a, "fixture::d1", false);
        label(&b, "fixture::d2", false);
        on_acquire(&a, "mutex");
        on_acquire(&b, "mutex");
        on_contended();
        release_all(&[&b, &a]);
        assert!(held_hwm() >= 2);
        assert_eq!(contended_acquires(), 1);
        assert!(take_reports().is_empty());
        set_mode(LocksanMode::Off);
    }

    #[test]
    fn off_mode_tracks_nothing() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_mode(LocksanMode::Off);
        let a = LockTag::new();
        on_acquire(&a, "mutex");
        on_persist("fence");
        on_release(&a);
        assert_eq!(held_hwm(), 0);
        assert!(take_reports().is_empty());
    }

    #[test]
    fn panic_mode_aborts_at_the_inversion() {
        let _g = serial();
        set_mode(LocksanMode::Panic);
        let a = LockTag::new();
        let b = LockTag::new();
        label(&a, "fixture::pa", false);
        label(&b, "fixture::pb", false);
        on_acquire(&a, "mutex");
        on_acquire(&b, "mutex");
        release_all(&[&b, &a]);
        on_acquire(&b, "mutex");
        let err = std::panic::catch_unwind(|| on_acquire(&a, "mutex"))
            .expect_err("panic mode must abort the inversion");
        release_all(&[&a, &b]);
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("locksan[potential-deadlock]"), "{msg}");
        set_mode(LocksanMode::Off);
        reset();
    }

    #[test]
    fn mode_parses_env_conventions() {
        // The mode is global: serialize with the fixtures that set it.
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // from_env reads the real environment; only exercise the parse
        // table indirectly via set_mode/mode roundtrips.
        for m in [LocksanMode::Off, LocksanMode::Record, LocksanMode::Panic] {
            set_mode(m);
            assert_eq!(mode(), m);
        }
        set_mode(LocksanMode::Off);
    }
}
