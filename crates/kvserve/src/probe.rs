//! One probe-point type for every kvserve layer.
//!
//! Every crash sweep asks the same question at a named protocol point:
//! "crash here?" A [`Point`] names the point, a [`Probe`] answers, and
//! each deployment keeps one cell that every layer asks: the 2PC
//! coordinator, the shard workers and replication shippers, the net
//! servers over the service, and `migrate`. [`Service::set_probe`] is the
//! one installer; [`Service::promote`], which runs before any service
//! exists, takes the probe as an argument. A live migration carries the
//! cell into the post-flip service; crash dumps never carry it.
//!
//! Only the question is shared. Each call site keeps its own reaction to
//! a `true`: the coordinator poisons every pool, a shard worker the
//! primaries, a shipper its follower, a net server shuts its sockets,
//! and `migrate` / `promote` return the durable remains.
//!
//! [`Service::set_probe`]: crate::Service::set_probe
//! [`Service::promote`]: crate::Service::promote

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A protocol point a [`Probe`] is asked about. Each layer's points, in
/// protocol order, form one sweep list: [`Point::TWO_PC`],
/// [`Point::REPL`], [`Point::FAILOVER`], [`Point::MIGRATE`] and
/// [`Point::NET`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Point {
    /// 2PC: before any participant prepared.
    BeforePrepare,
    /// 2PC: between two participants' prepares (some prepared, some not).
    BetweenPrepares,
    /// 2PC: all participants prepared, decision not yet logged.
    Prepared,
    /// 2PC: the commit decision is durably logged.
    DecisionLogged,
    /// 2PC: between two participants' commits (some visible, some still
    /// prepared).
    MidCommit,
    /// 2PC: all participants committed, the batch not yet acked.
    Committed,
    /// Replication worker: before the batch transaction (nothing durable
    /// anywhere).
    BeforeAppend,
    /// Replication worker: the batch and its log entry committed on the
    /// primary, the follower ack not yet in.
    AfterAppend,
    /// Replication shipper: new primary entries read, nothing applied
    /// on the follower.
    BeforeReceive,
    /// Replication shipper: the entries durably applied by the follower
    /// and its watermark advanced (the acks released).
    Received,
    /// Replication shipper: the round finished, the primary log's
    /// amortized trim included.
    Applied,
    /// Promotion: follower TMs and the decision log recovered, nothing
    /// replayed.
    Recovered,
    /// Promotion: decision-log replay over the promoted shards finished.
    Replayed,
    /// Migration: target TM, maps, log header (and follower) created;
    /// volatile.
    Provisioned,
    /// Migration: source log armed and the base snapshot copied into the
    /// target.
    BaseCopied,
    /// Migration: live catch-up converged (source still serving).
    CaughtUp,
    /// Migration: traffic paused, final tail replayed, target follower
    /// synced.
    Drained,
    /// Migration: the new routing table is durably rooted — the point of
    /// no return.
    FlipLogged,
    /// Migration: the post-flip service is serving under the new table.
    Resumed,
    /// Net: a request frame was read off the socket, before
    /// decode/submit.
    AfterReadFrame,
    /// Net: the request decoded and passed the in-flight cap, about to
    /// enter the ring.
    BeforeSubmit,
    /// Net: the ring delivered the request's completion (the transaction
    /// is durable if it was `Ok`), before any response work.
    AfterComplete,
    /// Net: the response frame is encoded and about to be written.
    BeforeWriteResponse,
    /// Net: a strict prefix of the response frame was flushed to the
    /// wire.
    MidWrite,
}

impl Point {
    /// The 2PC points of a cross-shard batch, in protocol order. Points
    /// before [`Point::DecisionLogged`] roll the batch back on recovery;
    /// that point and later ones complete it.
    pub const TWO_PC: [Point; 6] = [
        Point::BeforePrepare,
        Point::BetweenPrepares,
        Point::Prepared,
        Point::DecisionLogged,
        Point::MidCommit,
        Point::Committed,
    ];

    /// The replication points, in protocol order. Worker points poison
    /// the *primary* pools — the failure shape failover exists for;
    /// shipper points poison only that shard's *follower* pool.
    pub const REPL: [Point; 5] = [
        Point::BeforeAppend,
        Point::AfterAppend,
        Point::BeforeReceive,
        Point::Received,
        Point::Applied,
    ];

    /// The phases a promotion can crash between. A crashed promotion
    /// returns a fresh dump, and promoting it again completes the
    /// failover: every phase is idempotent.
    pub const FAILOVER: [Point; 2] = [Point::Recovered, Point::Replayed];

    /// The live-migration points, in protocol order. A crash before
    /// [`Point::FlipLogged`] recovers to the **old** topology; from
    /// `FlipLogged` on, recovery lands on the **new** one.
    pub const MIGRATE: [Point; 6] = [
        Point::Provisioned,
        Point::BaseCopied,
        Point::CaughtUp,
        Point::Drained,
        Point::FlipLogged,
        Point::Resumed,
    ];

    /// The wire points, in wire order. A crash before
    /// [`Point::AfterComplete`] leaves the request unacked; the three
    /// points after completion leave it *executed but unacked* —
    /// durable without an ack, never the reverse.
    pub const NET: [Point; 5] = [
        Point::AfterReadFrame,
        Point::BeforeSubmit,
        Point::AfterComplete,
        Point::BeforeWriteResponse,
        Point::MidWrite,
    ];

    /// True if a 2PC crash here must leave the batch fully applied after
    /// recovery (the decision was durably logged).
    pub fn is_decided(self) -> bool {
        matches!(
            self,
            Point::DecisionLogged | Point::MidCommit | Point::Committed
        )
    }

    /// True for the replication points asked on the worker
    /// (primary-crash) side.
    pub fn is_primary(self) -> bool {
        matches!(self, Point::BeforeAppend | Point::AfterAppend)
    }

    /// Whether a migration crash here recovers to the new topology.
    pub fn flipped(self) -> bool {
        matches!(self, Point::FlipLogged | Point::Resumed)
    }
}

/// Answers "crash here?" at every [`Point`] a deployment reaches.
pub type Probe = Arc<dyn Fn(Point) -> bool + Send + Sync>;

/// A deployment's probe cell, shared by every layer that asks.
pub(crate) struct ProbeCell {
    /// Whether a probe is installed: with none, a check is this one
    /// load and takes no lock. `set` stores it (Release) under the lock
    /// and `fires` loads it (Acquire); the probe itself is only ever
    /// read under the lock.
    installed: AtomicBool,
    probe: Mutex<Option<Probe>>,
}

impl ProbeCell {
    pub fn new(probe: Option<Probe>) -> ProbeCell {
        let cell = ProbeCell {
            installed: AtomicBool::new(probe.is_some()),
            probe: Mutex::new(probe),
        };
        cell.probe.locksan_label("probe::cell", false);
        cell
    }

    /// Install (or clear) the probe.
    pub fn set(&self, probe: Option<Probe>) {
        let mut slot = self.probe.lock();
        self.installed.store(probe.is_some(), Ordering::Release);
        *slot = probe;
    }

    /// Ask the installed probe whether to crash at `point`.
    #[inline]
    pub fn fires(&self, point: Point) -> bool {
        self.installed.load(Ordering::Acquire) && self.ask(point)
    }

    /// The probe runs after the cell's lock is released: a net probe
    /// shuts sockets, and the cell's lock stays a leaf for locksan.
    #[cold]
    fn ask(&self, point: Point) -> bool {
        let probe = self.probe.lock().clone();
        probe.is_some_and(|p| p(point))
    }
}
