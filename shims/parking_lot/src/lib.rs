//! Offline stand-in for the crates.io `parking_lot` crate.
//!
//! Provides `Mutex`, `RwLock`, and `Condvar` with parking_lot's
//! signatures (no lock poisoning: `lock()` returns the guard directly)
//! implemented over the std primitives. A poisoned std lock means a thread panicked while
//! holding the guard; this workspace's crash simulation unwinds worker
//! threads deliberately (see `tm::crash`), so the shim — like parking_lot
//! itself — treats that as a normal release and hands the lock out again.
//!
//! With the `locksan` feature, every lock carries a `locksan::LockTag`
//! and reports acquisitions, releases (including panic unwinds — the
//! guards' `Drop` impls fire the hook unconditionally), condvar waits,
//! and contended blocking acquisitions to the lock-discipline sanitizer.
//! Owners name their locks with [`Mutex::locksan_label`] /
//! [`RwLock::locksan_label`] (a no-op without the feature) so reports
//! speak in service terms rather than raw addresses.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, TryLockError};
use std::time::Duration;

/// A mutual-exclusion lock without poisoning, like `parking_lot::Mutex`.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "locksan")]
    tag: locksan::LockTag,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
///
/// The guard is held in an `Option` only so [`Condvar::wait`] can move
/// it through std's consuming `wait`; it is `Some` at all other times —
/// including after a panic inside the wait, which re-acquires the lock
/// on unwind (see [`Condvar::wait`]).
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            #[cfg(feature = "locksan")]
            tag: locksan::LockTag::new(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "locksan")]
        locksan::on_acquire(&self.tag, "mutex");
        // Contention probe: a failed try first, so the sanitizer can
        // count acquisitions that actually blocked.
        #[cfg(feature = "locksan")]
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                locksan::on_contended();
                match self.inner.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                }
            }
        };
        #[cfg(not(feature = "locksan"))]
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard {
            lock: self,
            inner: Some(inner),
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        #[cfg(feature = "locksan")]
        locksan::on_try_acquire(&self.tag, "mutex");
        Some(MutexGuard {
            lock: self,
            inner: Some(inner),
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }

    /// Names this lock's class for the lock-discipline sanitizer.
    /// Instances sharing a label share a class; `allow_persist` exempts
    /// the class from the lock-across-persist rule (for locks whose job
    /// is to guard a persist, like the TM thread-state cells). No-op
    /// without the `locksan` feature.
    #[cfg(feature = "locksan")]
    pub fn locksan_label(&self, name: &'static str, allow_persist: bool) {
        locksan::label(&self.tag, name, allow_persist);
    }

    /// Names this lock's class for the lock-discipline sanitizer
    /// (no-op: the `locksan` feature is disabled).
    #[cfg(not(feature = "locksan"))]
    pub fn locksan_label(&self, _name: &'static str, _allow_persist: bool) {}
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard holds the lock")
    }
}

#[cfg(feature = "locksan")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Fires on every release path, panic unwinds included, so the
        // sanitizer's held-lock stack never leaks a stale entry.
        if self.inner.is_some() {
            locksan::on_release(&self.lock.tag);
        }
    }
}

/// Whether a [`Condvar::wait_for`] returned because the timeout
/// elapsed, like `parking_lot::WaitTimeoutResult`.
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed (a
    /// notification may still have raced in — re-check the predicate).
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Re-acquires the mutex and restores the guard's slot if a condvar
/// wait unwinds. std's `wait` consumes the guard, so a panic inside it
/// (e.g. waiting on one condvar with two different mutexes) would
/// otherwise leave the outer [`MutexGuard`] empty: later derefs would
/// panic and its `Drop` would fire a release for a lock no longer held.
struct RestoreOnUnwind<'a, 'b, T: ?Sized> {
    slot: &'a mut Option<sync::MutexGuard<'b, T>>,
    lock: &'b Mutex<T>,
}

impl<T: ?Sized> Drop for RestoreOnUnwind<'_, '_, T> {
    fn drop(&mut self) {
        let g = match self.lock.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *self.slot = Some(g);
    }
}

/// A condition variable with `parking_lot::Condvar`'s signatures:
/// `wait` re-borrows the guard instead of consuming it, and there is no
/// poison plumbing.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Blocks until another thread notifies this condvar, atomically
    /// releasing (and on wake re-acquiring) the mutex behind `guard`.
    /// Spurious wake-ups are possible, as with any condvar.
    #[track_caller]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[cfg(feature = "locksan")]
        locksan::on_condvar_wait(&guard.lock.tag);
        let lock = guard.lock;
        let g = guard.inner.take().expect("guard holds the lock");
        let restore = RestoreOnUnwind {
            slot: &mut guard.inner,
            lock,
        };
        let g = match self.inner.wait(g) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        std::mem::forget(restore);
        guard.inner = Some(g);
    }

    /// Blocks like [`wait`](Condvar::wait), but gives up once `timeout`
    /// has elapsed. The guard is re-acquired either way; check
    /// [`WaitTimeoutResult::timed_out`] and the predicate on return.
    #[track_caller]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        #[cfg(feature = "locksan")]
        locksan::on_condvar_wait(&guard.lock.tag);
        let lock = guard.lock;
        let g = guard.inner.take().expect("guard holds the lock");
        let restore = RestoreOnUnwind {
            slot: &mut guard.inner,
            lock,
        };
        let (g, res) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, res)) => (g, res.timed_out()),
            Err(p) => {
                let (g, res) = p.into_inner();
                (g, res.timed_out())
            }
        };
        std::mem::forget(restore);
        guard.inner = Some(g);
        WaitTimeoutResult(res)
    }

    /// Wakes one blocked waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every blocked waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// A reader-writer lock without poisoning, like `parking_lot::RwLock`.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "locksan")]
    tag: locksan::LockTag,
    inner: sync::RwLock<T>,
}

/// Shared-read RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "locksan")]
    lock: &'a RwLock<T>,
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "locksan")]
    lock: &'a RwLock<T>,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            #[cfg(feature = "locksan")]
            tag: locksan::LockTag::new(),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "locksan")]
        locksan::on_acquire(&self.tag, "rwlock");
        #[cfg(feature = "locksan")]
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                locksan::on_contended();
                match self.inner.read() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                }
            }
        };
        #[cfg(not(feature = "locksan"))]
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard {
            #[cfg(feature = "locksan")]
            lock: self,
            inner,
        }
    }

    /// Acquires exclusive write access.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "locksan")]
        locksan::on_acquire(&self.tag, "rwlock");
        #[cfg(feature = "locksan")]
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                locksan::on_contended();
                match self.inner.write() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                }
            }
        };
        #[cfg(not(feature = "locksan"))]
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard {
            #[cfg(feature = "locksan")]
            lock: self,
            inner,
        }
    }

    /// Attempts shared read access without blocking.
    #[track_caller]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        #[cfg(feature = "locksan")]
        locksan::on_try_acquire(&self.tag, "rwlock");
        Some(RwLockReadGuard {
            #[cfg(feature = "locksan")]
            lock: self,
            inner,
        })
    }

    /// Attempts exclusive write access without blocking.
    #[track_caller]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        #[cfg(feature = "locksan")]
        locksan::on_try_acquire(&self.tag, "rwlock");
        Some(RwLockWriteGuard {
            #[cfg(feature = "locksan")]
            lock: self,
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }

    /// Names this lock's class for the lock-discipline sanitizer; see
    /// [`Mutex::locksan_label`].
    #[cfg(feature = "locksan")]
    pub fn locksan_label(&self, name: &'static str, allow_persist: bool) {
        locksan::label(&self.tag, name, allow_persist);
    }

    /// Names this lock's class for the lock-discipline sanitizer
    /// (no-op: the `locksan` feature is disabled).
    #[cfg(not(feature = "locksan"))]
    pub fn locksan_label(&self, _name: &'static str, _allow_persist: bool) {}
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(feature = "locksan")]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        locksan::on_release(&self.lock.tag);
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "locksan")]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        locksan::on_release(&self.lock.tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn lock_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(5));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die while holding");
        })
        .join();
        // parking_lot semantics: no poisoning, the value is still there.
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(3);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 6);
        }
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn rwlock_try_read_try_write() {
        let l = RwLock::new(7);
        {
            let r = l.try_read().expect("uncontended read");
            assert_eq!(*r, 7);
            // A reader excludes writers but admits more readers.
            assert!(l.try_write().is_none());
            assert!(l.try_read().is_some());
        }
        {
            let mut w = l.try_write().expect("uncontended write");
            *w = 8;
            assert!(l.try_read().is_none());
            assert!(l.try_write().is_none());
        }
        assert_eq!(*l.read(), 8);
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
        // The guard is re-acquired and fully usable after the timeout.
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn wait_for_sees_notification() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = state.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            *m.lock() = true;
            cv.notify_one();
        });
        let (m, cv) = &*state;
        let mut g = m.lock();
        let mut timed_out = false;
        while !*g {
            timed_out = cv.wait_for(&mut g, Duration::from_secs(5)).timed_out();
            if timed_out {
                break;
            }
        }
        t.join().unwrap();
        assert!(*g, "predicate must be set (timed_out={timed_out})");
    }

    #[test]
    fn wait_on_poisoned_mutex_keeps_the_guard() {
        // Regression: `wait` takes the inner guard out of the Option;
        // when the inner std mutex is poisoned (a holder panicked), the
        // wait comes back through the PoisonError arm and must still
        // restore the guard — an early version left it `None` and later
        // derefs panicked "guard holds the lock".
        let m = Arc::new(Mutex::new(1));
        let cv = Condvar::new();
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the inner lock");
        })
        .join();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
        assert_eq!(*g, 1);
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn restore_on_unwind_reacquires_the_lock() {
        // Direct exercise of the unwind path: std's wait consumes the
        // inner guard, so if it panics the outer guard's slot is empty.
        // `RestoreOnUnwind` must re-acquire and refill the slot so the
        // outer guard derefs and releases normally afterwards.
        let m = Mutex::new(3);
        let mut g = m.lock();
        let taken = g.inner.take().expect("guard holds the lock");
        {
            let _restore = RestoreOnUnwind {
                slot: &mut g.inner,
                lock: &m,
            };
            // Simulate std's wait dropping the guard mid-panic.
            drop(taken);
        }
        assert_eq!(*g, 3);
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}

#[cfg(all(test, feature = "locksan"))]
mod locksan_tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// locksan state is global; run these serially and reset around.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    #[test]
    fn guard_drop_fires_release_on_panic_unwind() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        locksan::reset();
        locksan::set_mode(locksan::LocksanMode::Record);
        let m = Mutex::new(0u32);
        m.locksan_label("shim-test::unwind", false);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("unwind while holding");
        }));
        // The unwind released the lock from the sanitizer's held stack:
        // a persist now runs lock-free and must not report.
        locksan::on_persist("fence");
        let reports = locksan::take_reports();
        assert!(reports.is_empty(), "{reports:?}");
        locksan::set_mode(locksan::LocksanMode::Off);
        locksan::reset();
    }

    #[test]
    fn contended_blocking_lock_is_counted() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        locksan::reset();
        locksan::set_mode(locksan::LocksanMode::Record);
        let m = std::sync::Arc::new(Mutex::new(0u32));
        m.locksan_label("shim-test::contended", false);
        let g = m.lock();
        let m2 = m.clone();
        let t = std::thread::spawn(move || {
            let _g = m2.lock();
        });
        // Wait until the other thread is blocked on the lock.
        while locksan::contended_acquires() == 0 {
            std::thread::yield_now();
        }
        drop(g);
        t.join().unwrap();
        assert!(locksan::contended_acquires() >= 1);
        assert!(locksan::take_reports().is_empty());
        locksan::set_mode(locksan::LocksanMode::Off);
        locksan::reset();
    }
}
