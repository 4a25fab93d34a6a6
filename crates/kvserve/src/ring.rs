//! Completion-based submission/completion front end.
//!
//! A [`Ring`] owns a bounded slab of request slots. Clients
//! [`Ring::submit`] / [`Ring::submit_batch`] operations and get a
//! [`Ticket`] back immediately — no thread parks per request — then reap
//! finished operations with [`Ring::complete`], [`Ring::drain`], or
//! [`Ring::wait`]. One submitting thread can keep thousands of requests
//! in flight, which is what lets an open-loop load generator offer a
//! controlled arrival rate instead of the closed-loop
//! depth-equals-thread-count regime.
//!
//! Backpressure is structural: a ring with no free slot rejects the
//! submission with [`ServeError::RingFull`] (a completed-but-unreaped
//! ticket still occupies its slot — reaping is part of the protocol),
//! and a full shard queue rejects with [`ServeError::Overloaded`]
//! before a slot is consumed. Nothing queues unboundedly.
//!
//! **Crash verdicts.** Every accepted ticket resolves to exactly one
//! completion, even across a simulated power failure: the worker-side
//! completion handle delivers `Err(Stopped)` from its `Drop` if the
//! request is torn down un-answered (worker unwound mid-transaction,
//! queue dropped at crash, 2PC driver killed mid-protocol). After
//! [`Service::crash`](crate::Service::crash) returns, every outstanding
//! ticket has a definite acked-or-lost verdict the durable-linearizability
//! checker can consume: `Ok` means the write is durable and must survive
//! recovery; any `Err` means the request may or may not have committed
//! but was never acked.
//!
//! Slot lifecycle: `Free → InFlight → Done → Free` (reaped), with an
//! `InFlight` slot abandoned by a timed-out [`Ring::wait_deadline`]
//! recycling straight to `Free` when its completion finally arrives.

use crate::metrics::{RingMetrics, ShardMetrics};
use crate::shard::ShardRequest;
use crate::{Reply, Router, ServeError, BACKOFF_BASE};
use crossbeam::channel::{Sender, TrySendError};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txstructs::MapOp;

/// Handle to one ring submission. Copyable; stale tickets (already
/// reaped) are detected by the sequence number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ticket {
    slot: u32,
    seq: u64,
}

impl Ticket {
    /// The slot index this ticket occupies (diagnostic only).
    pub fn slot(&self) -> usize {
        self.slot as usize
    }
}

/// One reaped completion: the ticket and its definite outcome.
#[derive(Debug)]
pub struct Completion {
    /// The ticket this completion resolves.
    pub ticket: Ticket,
    /// `Ok(values)` — acked, durable, one value slot per submitted op.
    /// Any error — never acked (the operation may or may not have
    /// committed, but the service made no durability promise).
    pub result: Reply,
}

enum SlotState {
    Free,
    InFlight {
        submitted: Instant,
        /// A timed-out waiter walked away; recycle on delivery.
        abandoned: bool,
    },
    Done {
        result: Reply,
    },
}

struct Slot {
    /// Bumped on every acquisition; guards against stale tickets after
    /// slot reuse.
    seq: u64,
    state: SlotState,
}

/// State shared between a ring's submitters, reapers, and the
/// worker-side completion handles.
pub(crate) struct RingShared {
    slots: Vec<Mutex<Slot>>,
    free: Mutex<Vec<u32>>,
    /// Reap queue of completed slot indices; paired with `cv` so
    /// `wait`-ers learn about deliveries.
    done: Mutex<VecDeque<u32>>,
    cv: Condvar,
    metrics: Arc<RingMetrics>,
}

impl RingShared {
    fn new(slots: usize, metrics: Arc<RingMetrics>) -> RingShared {
        let shared = RingShared {
            slots: (0..slots)
                .map(|_| {
                    Mutex::new(Slot {
                        seq: 0,
                        state: SlotState::Free,
                    })
                })
                .collect(),
            free: Mutex::new((0..slots as u32).rev().collect()),
            done: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            metrics,
        };
        for s in &shared.slots {
            s.locksan_label("ring::slot", false);
        }
        shared.free.locksan_label("ring::free", false);
        shared.done.locksan_label("ring::done", false);
        shared
    }

    /// Take a free slot and mark it in flight. `None` means RingFull.
    fn acquire(&self, now: Instant) -> Option<Ticket> {
        let idx = self.free.lock().pop()?;
        let seq;
        {
            let mut s = self.slots[idx as usize].lock();
            s.seq += 1;
            seq = s.seq;
            s.state = SlotState::InFlight {
                submitted: now,
                abandoned: false,
            };
        }
        self.metrics.submitted.inc();
        self.metrics.in_flight.up();
        self.metrics.occupied.up();
        Some(Ticket { slot: idx, seq })
    }

    /// Roll back an acquisition whose enqueue failed: the ticket was
    /// never returned to the caller, so the slot recycles silently.
    fn cancel(&self, t: Ticket) {
        {
            let mut s = self.slots[t.slot as usize].lock();
            debug_assert_eq!(s.seq, t.seq, "cancel of a stale ticket");
            s.state = SlotState::Free;
        }
        self.free.lock().push(t.slot);
        self.metrics.submitted.undo();
        self.metrics.in_flight.down();
        self.metrics.occupied.down();
    }

    /// Deliver a request's outcome into its slot (worker side).
    fn deliver(&self, slot: u32, seq: u64, result: Reply) {
        let recycle = {
            let mut s = self.slots[slot as usize].lock();
            if s.seq != seq {
                return; // stale delivery for a recycled slot
            }
            match s.state {
                SlotState::InFlight {
                    submitted,
                    abandoned,
                } => {
                    self.metrics.completed.inc();
                    self.metrics.in_flight.down();
                    self.metrics.latency.record(submitted.elapsed());
                    if abandoned {
                        s.state = SlotState::Free;
                        true
                    } else {
                        s.state = SlotState::Done { result };
                        false
                    }
                }
                // Double delivery cannot happen (the completion handle
                // fires at most once), but be defensive.
                _ => return,
            }
        };
        if recycle {
            self.free.lock().push(slot);
            self.metrics.occupied.down();
        } else {
            let mut done = self.done.lock();
            done.push_back(slot);
            drop(done);
            self.cv.notify_all();
        }
    }

    /// Reap the slot if it is `Done`, recycling it. `None` if the slot
    /// holds a different generation or is not done yet.
    fn try_reap(&self, idx: u32) -> Option<Completion> {
        let mut s = self.slots[idx as usize].lock();
        if !matches!(s.state, SlotState::Done { .. }) {
            return None;
        }
        let SlotState::Done { result } = std::mem::replace(&mut s.state, SlotState::Free) else {
            unreachable!("checked above");
        };
        let ticket = Ticket {
            slot: idx,
            seq: s.seq,
        };
        drop(s);
        self.free.lock().push(idx);
        self.metrics.occupied.down();
        Some(Completion { ticket, result })
    }
}

/// Worker-side completion handle: completes the ticket's slot exactly
/// once — explicitly via [`RingCompletion::send`], or with
/// `Err(Stopped)` from `Drop` if the request is torn down un-answered
/// (crash unwinding, queue teardown). This drop path is what turns a
/// simulated power failure into a definite verdict on every in-flight
/// ticket.
pub(crate) struct RingCompletion {
    shared: Arc<RingShared>,
    slot: u32,
    seq: u64,
    fired: AtomicBool,
}

impl RingCompletion {
    /// Deliver the outcome. Later sends (and the drop) are no-ops.
    pub fn send(&self, reply: Reply) {
        if !self.fired.swap(true, Ordering::AcqRel) {
            self.shared.deliver(self.slot, self.seq, reply);
        }
    }

    /// Disarm without delivering (the slot is being cancelled by the
    /// submitter, which still owns the un-returned ticket).
    fn defuse(&self) {
        self.fired.store(true, Ordering::Release);
    }
}

impl Drop for RingCompletion {
    fn drop(&mut self) {
        if !self.fired.swap(true, Ordering::AcqRel) {
            self.shared
                .deliver(self.slot, self.seq, Err(ServeError::Stopped));
        }
    }
}

/// A shard's submission lane as the ring sees it.
pub(crate) struct RingLane {
    pub queue: Sender<ShardRequest>,
    pub metrics: Arc<ShardMetrics>,
}

/// The completion-based front end. Cheap to clone (clones share the
/// slot slab); all methods take `&self` and are thread-safe.
///
/// A ring outlives the [`Service`](crate::Service) it was created from:
/// after [`Service::crash`](crate::Service::crash) every outstanding
/// ticket resolves (to `Err(Stopped)` at the latest when the crash drops
/// the queues), and the ring can still be reaped. New submissions to a
/// torn-down service answer `Err(Stopped)`.
#[derive(Clone)]
pub struct Ring {
    shared: Arc<RingShared>,
    router: Arc<Router>,
    default_deadline: Duration,
}

/// Bounded routing retries after a `Disconnected` lane whose epoch
/// advanced under us (a migration flip retargeted the router between
/// our snapshot and the send).
const REROUTE_ATTEMPTS: usize = 4;

impl Ring {
    pub(crate) fn attach(
        slots: usize,
        router: Arc<Router>,
        metrics: Arc<RingMetrics>,
        default_deadline: Duration,
    ) -> Ring {
        assert!(slots >= 1, "ring needs at least one slot");
        Ring {
            shared: Arc::new(RingShared::new(slots, metrics)),
            router,
            default_deadline,
        }
    }

    /// Number of request slots.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Submitted-but-uncompleted requests across the service's rings.
    pub fn in_flight(&self) -> u64 {
        self.shared.metrics.in_flight.get()
    }

    /// Submit one operation under the service's default deadline.
    pub fn submit(&self, op: MapOp) -> Result<Ticket, ServeError> {
        self.submit_batch(vec![op])
    }

    /// Submit several operations as **one atomic, durable transaction**
    /// under the default deadline. Same-shard batches feed that shard's
    /// batching workers; mixed batches are queued to the 2PC driver
    /// threads.
    pub fn submit_batch(&self, ops: Vec<MapOp>) -> Result<Ticket, ServeError> {
        self.submit_batch_deadline(ops, self.default_deadline)
    }

    /// [`Ring::submit_batch`] with an explicit deadline. The deadline
    /// clock starts *now*: time spent queued behind other requests is
    /// charged against it, and a request that expires before execution
    /// starts completes with `Err(Timeout)` without running.
    pub fn submit_batch_deadline(
        &self,
        ops: Vec<MapOp>,
        deadline: Duration,
    ) -> Result<Ticket, ServeError> {
        let now = Instant::now();
        let Some(ticket) = self.shared.acquire(now) else {
            self.shared.metrics.ring_full.inc();
            return Err(ServeError::RingFull);
        };
        let sink = RingCompletion {
            shared: self.shared.clone(),
            slot: ticket.slot,
            seq: ticket.seq,
            fired: AtomicBool::new(false),
        };
        if ops.is_empty() {
            sink.send(Ok(Vec::new()));
            return Ok(ticket);
        }
        let mut req = ShardRequest {
            ops,
            reply: sink,
            deadline: now + deadline,
            enqueued: now,
        };
        // One coherent (table, lanes, xlane) snapshot per attempt: the
        // request lands in that snapshot's queues, so a concurrent flip
        // either sees it when it drains the old queues or never races it
        // at all.
        let mut snap = self.router.load();
        let mut attempts = 0usize;
        let (req, err) = loop {
            let (queue, rejected) = snap.lane(&req.ops);
            match queue.try_send(req) {
                Ok(()) => return Ok(ticket),
                Err(TrySendError::Full(r)) => {
                    rejected.inc();
                    let retry_after = BACKOFF_BASE;
                    break (r, ServeError::Overloaded { retry_after });
                }
                Err(TrySendError::Disconnected(r)) => {
                    // A dead lane is either a torn-down service or a
                    // migration flip that retired this snapshot's queues;
                    // re-read the router and retry if the epoch moved.
                    let fresh = self.router.load();
                    if fresh.table.epoch() == snap.table.epoch() || attempts == REROUTE_ATTEMPTS {
                        break (r, ServeError::Stopped);
                    }
                    (req, snap) = (r, fresh);
                    attempts += 1;
                }
            }
        };
        req.reply.defuse();
        drop(req);
        self.shared.cancel(ticket);
        Err(err)
    }

    /// Reap one completion, if any is ready. Non-blocking.
    pub fn complete(&self) -> Option<Completion> {
        loop {
            let idx = self.shared.done.lock().pop_front()?;
            // A stale entry (its completion was taken by `wait`) skips.
            if let Some(c) = self.shared.try_reap(idx) {
                return Some(c);
            }
        }
    }

    /// Sleep until a completion is ready to reap or `timeout` passes.
    pub(crate) fn park(&self, timeout: Duration) {
        let mut done = self.shared.done.lock();
        if done.is_empty() {
            let _ = self.shared.cv.wait_for(&mut done, timeout);
        }
    }

    /// Reap everything currently ready. Non-blocking.
    pub fn drain(&self) -> Drain<'_> {
        Drain(self)
    }

    /// Block until `ticket` completes and return its outcome. Every
    /// accepted ticket completes eventually — a crash resolves it to
    /// `Err(Stopped)` — so this only hangs if the service is alive but
    /// wedged. Panics on a stale ticket (already reaped via
    /// [`Ring::complete`] / [`Ring::drain`]).
    pub fn wait(&self, ticket: Ticket) -> Reply {
        self.wait_inner(ticket, None)
            .expect("wait without deadline cannot time out")
    }

    /// [`Ring::wait`] with a timeout: past `deadline` the ticket is
    /// abandoned (its slot recycles when the straggler completion
    /// arrives) and `Err(Timeout)` is returned.
    pub fn wait_deadline(&self, ticket: Ticket, deadline: Instant) -> Reply {
        match self.wait_inner(ticket, Some(deadline)) {
            Some(r) => r,
            None => Err(ServeError::Timeout),
        }
    }

    /// `None` = timed out and abandoned.
    fn wait_inner(&self, ticket: Ticket, deadline: Option<Instant>) -> Option<Reply> {
        loop {
            {
                let mut s = self.shared.slots[ticket.slot as usize].lock();
                assert_eq!(
                    s.seq, ticket.seq,
                    "wait on a stale ticket (already reaped elsewhere)"
                );
                match &mut s.state {
                    SlotState::Done { .. } => {
                        let SlotState::Done { result } =
                            std::mem::replace(&mut s.state, SlotState::Free)
                        else {
                            unreachable!("checked above");
                        };
                        drop(s);
                        self.shared.free.lock().push(ticket.slot);
                        self.shared.metrics.occupied.down();
                        return Some(result);
                    }
                    SlotState::InFlight { abandoned, .. } => {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            *abandoned = true;
                            return None;
                        }
                    }
                    SlotState::Free => panic!("wait on a free slot with a live seq"),
                }
            }
            // Sleep until a delivery (bounded, to recheck the deadline).
            let mut guard = self.shared.done.lock();
            let wait = match deadline {
                Some(d) => d
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(5)),
                None => Duration::from_millis(5),
            };
            let _ = self.shared.cv.wait_for(&mut guard, wait);
        }
    }
}

/// Iterator over currently-ready completions (see [`Ring::drain`]).
pub struct Drain<'a>(&'a Ring);

impl Iterator for Drain<'_> {
    type Item = Completion;

    fn next(&mut self) -> Option<Completion> {
        self.0.complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(slots: usize) -> Arc<RingShared> {
        Arc::new(RingShared::new(slots, Arc::default()))
    }

    fn sink(sh: &Arc<RingShared>, t: Ticket) -> RingCompletion {
        RingCompletion {
            shared: sh.clone(),
            slot: t.slot,
            seq: t.seq,
            fired: AtomicBool::new(false),
        }
    }

    #[test]
    fn slot_lifecycle_acquire_deliver_reap() {
        let sh = shared(2);
        let t = sh.acquire(Instant::now()).unwrap();
        let s = sink(&sh, t);
        s.send(Ok(vec![Some(7)]));
        let idx = sh.done.lock().pop_front().unwrap();
        let c = sh.try_reap(idx).unwrap();
        assert_eq!(c.ticket, t);
        assert_eq!(c.result, Ok(vec![Some(7)]));
        // The slot recycled: two more acquisitions succeed.
        assert!(sh.acquire(Instant::now()).is_some());
        assert!(sh.acquire(Instant::now()).is_some());
        assert!(sh.acquire(Instant::now()).is_none());
    }

    #[test]
    fn dropping_an_unfired_sink_delivers_stopped() {
        let sh = shared(1);
        let t = sh.acquire(Instant::now()).unwrap();
        drop(sink(&sh, t));
        let idx = sh.done.lock().pop_front().unwrap();
        let c = sh.try_reap(idx).unwrap();
        assert_eq!(c.result, Err(ServeError::Stopped));
    }

    #[test]
    fn send_wins_over_drop_and_double_send_is_noop() {
        let sh = shared(1);
        let t = sh.acquire(Instant::now()).unwrap();
        let s = sink(&sh, t);
        s.send(Ok(vec![None]));
        s.send(Err(ServeError::Aborted));
        drop(s);
        let idx = sh.done.lock().pop_front().unwrap();
        assert_eq!(sh.try_reap(idx).unwrap().result, Ok(vec![None]));
        assert!(sh.done.lock().is_empty());
    }

    #[test]
    fn cancelled_slot_recycles_without_a_completion() {
        let sh = shared(1);
        let t = sh.acquire(Instant::now()).unwrap();
        let s = sink(&sh, t);
        s.defuse();
        drop(s);
        sh.cancel(t);
        assert!(sh.done.lock().is_empty());
        assert!(sh.acquire(Instant::now()).is_some());
    }

    #[test]
    fn stale_delivery_is_ignored() {
        let sh = shared(1);
        let t1 = sh.acquire(Instant::now()).unwrap();
        let s1 = sink(&sh, t1);
        s1.send(Ok(vec![]));
        let idx = sh.done.lock().pop_front().unwrap();
        sh.try_reap(idx).unwrap();
        let t2 = sh.acquire(Instant::now()).unwrap();
        assert_ne!(t1.seq, t2.seq);
        // A straggler delivery carrying the old seq must not touch t2.
        sh.deliver(t1.slot, t1.seq, Err(ServeError::Aborted));
        assert!(sh.done.lock().is_empty());
        let s2 = sink(&sh, t2);
        s2.send(Ok(vec![Some(1)]));
        let idx = sh.done.lock().pop_front().unwrap();
        assert_eq!(sh.try_reap(idx).unwrap().result, Ok(vec![Some(1)]));
    }
}
