//! Live shard migration — elastic resharding without stopping traffic.
//!
//! [`Service::migrate`] moves a set of routing slots from a live source
//! shard onto a newly provisioned shard, reusing the per-shard op log
//! and the durable watermark discipline of the replication layer
//! (PR 5) as the streaming substrate:
//!
//! 1. **Provision** — a fresh TM + maps + op-log header for the target
//!    (plus a fresh follower when replicating). Nothing routes to it
//!    yet; a crash here simply forgets it.
//! 2. **Base copy** — arm the source's op log (transactionally, so
//!    arming serializes against every batch), record `base_lsn`, then
//!    stream a chunked per-bucket snapshot of the moving keys into the
//!    target. Each chunk is one atomic bucket cut; mutations that race
//!    the copy land in the armed log with `lsn > base_lsn`.
//! 3. **Catch up** — replay logged entries above the cursor into the
//!    target while the source keeps serving, advancing the shipper's
//!    trim floor ([`ShipState::hold`](crate::repl)) behind the cursor.
//! 4. **Drain** — the brief write pause: halt workers, 2PC drivers and
//!    shippers (collecting, not dropping, the queued requests), replay
//!    the final quiescent tail, and sync the target's follower so an
//!    immediate post-flip failover cannot lose a moved acked write.
//!    Halting the 2PC drivers first is also what makes the decision
//!    log fully resolved at the flip — the whole prepared-transaction
//!    interaction with a migrating shard reduces to "there are none".
//! 5. **Flip** — one committed transaction rewrites the durable
//!    routing-table root (`coord::write_route`) with
//!    the bumped epoch. This is the migration's single durability
//!    point: recovery reads the root and lands on entirely the old or
//!    entirely the new topology, never a torn one.
//! 6. **Resume** — reassemble the service over the old shards plus the
//!    target, *reusing the old router and ring metrics*, so every ring
//!    handed out before the flip atomically re-targets the new
//!    topology; re-route the collected requests under the new table;
//!    scavenge the moved keys off the source (logged removes, so a
//!    replicating source's follower converges too).
//!
//! Every step is idempotent from the outside: a crash at any
//! [`Point::MIGRATE`] step recovers (via the ordinary [`Service::recover`])
//! to a consistent topology, and re-issuing the same [`MigrateSpec`]
//! against the recovered service either re-runs the migration from
//! scratch (pre-flip crash) or detects it already applied and only
//! re-runs the scavenge (post-flip crash).

use crate::probe::Point;
use crate::repl::{self, Follower, LogEntry, LogKind, ReplRuntime};
use crate::shard::{ShardPool, ShardRequest};
use crate::{
    op_key, CrashDump, RouterInner, RoutingTable, ServeError, Service, XRequest, ROUTE_SLOTS,
};
use crossbeam::channel::TrySendError;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txstructs::MapOp;

/// What to migrate: `slots` (currently owned by shard `source`) move to
/// a newly provisioned shard. Moving a strict subset splits the shard;
/// moving all of its slots empties it.
#[derive(Clone, Debug)]
pub struct MigrateSpec {
    /// The shard being split or emptied.
    pub source: usize,
    /// The routing slots to move (each must currently map to `source`).
    pub slots: Vec<usize>,
}

impl MigrateSpec {
    /// Split `source` in half: move the upper half of its current slots.
    pub fn split(table: &RoutingTable, source: usize) -> MigrateSpec {
        let owned = table.slots_of(source);
        assert!(owned.len() >= 2, "cannot split a single-slot shard");
        MigrateSpec {
            source,
            slots: owned[owned.len() / 2..].to_vec(),
        }
    }
}

/// What a migration did, for reporting.
#[derive(Clone, Copy, Debug)]
pub struct MigrateReport {
    /// Wall-clock time for the whole migration.
    pub duration: Duration,
    /// The write pause: halt-to-serving under the new table.
    pub flip_pause: Duration,
    /// Keys streamed in the base snapshot.
    pub base_keys: u64,
    /// Log entries replayed by catch-up (live + final tail).
    pub catchup_entries: u64,
    /// The routing epoch after the migration.
    pub epoch: u64,
    /// `true` when the spec was detected as already applied and only
    /// the source scavenge ran.
    pub already_applied: bool,
}

/// A crash injected mid-migration: the deployment's durable remains,
/// recovered with the ordinary [`Service::recover`]. The routing root
/// inside decides which topology comes back.
pub struct MigrateCrash {
    /// Fresh durable remains captured at the crash point.
    pub dump: CrashDump,
}

impl std::fmt::Debug for MigrateCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigrateCrash").finish_non_exhaustive()
    }
}

impl Service {
    /// Split (or empty) a live shard without stopping traffic: stream
    /// its moving slots onto a newly provisioned shard and atomically
    /// flip the versioned routing table, pausing writes only for the
    /// final drain-and-flip. Consumes the service and returns the
    /// post-flip one; rings, net servers and the installed probe carry
    /// over — they share the router and the probe cell. See the module
    /// docs for the protocol.
    ///
    /// The installed probe is asked at every [`Point::MIGRATE`] step. A
    /// `true` poisons every pool right there and returns the durable
    /// remains in [`MigrateCrash`]; with no probe installed the
    /// migration cannot crash.
    pub fn migrate(
        mut self,
        spec: MigrateSpec,
    ) -> Result<(Service, MigrateReport), Box<MigrateCrash>> {
        let start = Instant::now();
        let cfg = self.engine.cfg.clone();
        let old_table = self.engine.router.table();
        let source = spec.source;
        let target_idx = self.engine.pools.len();
        assert!(source < target_idx, "source shard out of range");
        assert!(!spec.slots.is_empty(), "nothing to migrate");
        let mut mask = [false; ROUTE_SLOTS];
        let mut owners: Vec<usize> = Vec::new();
        for &s in &spec.slots {
            assert!(s < ROUTE_SLOTS, "slot out of range");
            assert!(!mask[s], "duplicate slot in spec");
            mask[s] = true;
            let o = old_table.assignment()[s] as usize;
            if !owners.contains(&o) {
                owners.push(o);
            }
        }
        // Idempotent re-issue: a post-flip crash already moved every
        // slot to one (new) shard. Only the scavenge can be missing —
        // re-run it and report the migration as already applied.
        if owners.len() == 1 && owners[0] != source {
            self.scavenge(source);
            let report = MigrateReport {
                duration: start.elapsed(),
                flip_pause: Duration::ZERO,
                base_keys: 0,
                catchup_entries: 0,
                epoch: old_table.epoch(),
                already_applied: true,
            };
            return Ok((self, report));
        }
        assert_eq!(
            owners,
            vec![source],
            "spec slots not owned by the source shard"
        );
        let new_table = Arc::new(old_table.reassign(&spec.slots, target_idx));
        let mig_tid = cfg.workers_per_shard + cfg.coordinators + 1;
        let probe = self.engine.probe.clone();

        // Plain handles to the source pool so the service itself stays
        // un-borrowed across the crash points.
        let ShardPool {
            tm: stm,
            map: smap,
            hdr: shdr,
            ..
        } = self.engine.pools[source].clone();
        let old_rt = self.engine.repl.clone();

        // ---- 1. Provision ------------------------------------------------
        // Everything volatile until the flip logs it into the topology.
        let target = ShardPool::primary(&cfg);
        let tfollower = cfg.replication.then(|| Follower::create(&cfg));
        if probe.fires(Point::Provisioned) {
            return Err(Box::new(MigrateCrash { dump: self.crash() }));
        }

        // ---- 2. Base copy ------------------------------------------------
        // Arm first: the armed word is read inside every batch
        // transaction, so from this commit on every source mutation is
        // logged. Lower the shipper's trim floor *before* reading
        // `base_lsn` — a trim round that raced the store only dropped
        // entries at or below the (monotone) `P_LAST` we then read.
        if !repl::armed_raw(&stm, shdr) {
            repl::set_armed(&stm, mig_tid, shdr, true);
        }
        if let Some(rt) = &old_rt {
            rt.states[source].hold.store(0, Ordering::Release);
        }
        let base_lsn = tm::txn(&*stm, mig_tid, |tx| tx.read(shdr.offset(repl::P_LAST)))
            .expect("log-header reads never cancel");
        let mut base_keys = 0u64;
        for b in 0..cfg.buckets_per_shard {
            let chunk = tm::txn(&*stm, mig_tid, |tx| smap.scan_bucket_in(tx, b))
                .expect("bucket scans never cancel");
            let moving: Vec<(u64, u64)> = chunk
                .into_iter()
                .filter(|&(k, _)| mask[RoutingTable::slot_of(k)])
                .collect();
            if moving.is_empty() {
                continue;
            }
            // The chunk lands in the target's (armed-iff-replicating)
            // log too, so the target follower can be brought up from
            // the same stream.
            tm::txn(&*target.tm, 0, |tx| {
                let mut muts = Vec::with_capacity(moving.len());
                for &(k, v) in &moving {
                    target.map.insert_in(tx, k, v)?;
                    muts.push(MapOp::Insert(k, v));
                }
                repl::append_armed_in(tx, target.hdr, LogKind::Batch, 0, &muts)?;
                Ok(())
            })
            .expect("target-side migration transactions never cancel");
            base_keys += moving.len() as u64;
        }
        if probe.fires(Point::BaseCopied) {
            return Err(Box::new(MigrateCrash { dump: self.crash() }));
        }

        // ---- 3. Live catch-up --------------------------------------------
        let mut cursor = base_lsn;
        let mut catchup_entries = 0u64;
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            let Some(fresh) = repl::read_after(&stm, mig_tid, shdr.offset(repl::P_HEAD), cursor)
            else {
                // Lost the read race against appenders; back off briefly.
                if rounds > 256 {
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
                continue;
            };
            if fresh.is_empty() {
                break;
            }
            cursor = fresh.last().expect("non-empty").lsn;
            catchup_entries += apply_entries(&target, &fresh, &mask);
            if let Some(rt) = &old_rt {
                // Everything at or below the cursor is replayed; let the
                // shipper trim it.
                rt.states[source].hold.store(cursor, Ordering::Release);
            }
            // Close enough: the remaining tail is replayed under the
            // pause, where it can no longer grow.
            if fresh.len() <= 4 || rounds > 256 {
                break;
            }
        }
        if probe.fires(Point::CaughtUp) {
            return Err(Box::new(MigrateCrash { dump: self.crash() }));
        }

        // ---- 4. Drain (the write pause starts here) ----------------------
        let pause_start = Instant::now();
        let (mut reqs, mut xreqs) = self.halt_threads();
        // Quiescent now (workers, 2PC drivers and shippers joined): the
        // decision log is fully resolved, the logs can no longer grow.
        let tail = repl::read_after(&stm, mig_tid, shdr.offset(repl::P_HEAD), cursor)
            .expect("a quiescent log read cannot lose its race");
        catchup_entries += apply_entries(&target, &tail, &mask);
        if let Some(f) = &tfollower {
            // Sync the target's follower *before* the flip: from the
            // instant the new table is durable, a primary-loss failover
            // must find every moved acked write on the target's replica.
            let all = repl::read_after(&target.tm, 0, target.hdr.offset(repl::P_HEAD), 0)
                .expect("a quiescent log read cannot lose its race");
            f.ingest(&all);
        }
        if probe.fires(Point::Drained) {
            return Err(Box::new(MigrateCrash { dump: self.crash() }));
        }

        // ---- 5. Flip ------------------------------------------------------
        // The single durability point: one committed transaction on the
        // decision log's pool rewrites the routing root.
        self.engine.coord.write_route(0, &new_table);
        if probe.fires(Point::FlipLogged) {
            // The durable root already names the target, so the dump
            // carries it (and its follower) next to the old shards.
            let mut dump = self.crash();
            target.tm.crash();
            dump.shards.push(target.image(repl::PRIMARY_HDR_WORDS));
            if let Some(f) = &tfollower {
                f.pool.tm.crash();
                dump.followers.push(f.image());
            }
            dump.cfg.shards += 1;
            return Err(Box::new(MigrateCrash { dump }));
        }

        // ---- 6. Resume ----------------------------------------------------
        let mut cfg2 = cfg.clone();
        cfg2.shards = target_idx + 1;
        let mut pools = self.engine.pools.clone();
        pools.push(target);
        let rt2 = cfg.replication.then(|| {
            let rt = old_rt.as_ref().expect("replication runtime");
            let mut followers: Vec<Follower> = rt
                .followers
                .iter()
                .map(|cell| cell.lock().take().expect("follower present until flip"))
                .collect();
            followers.push(tfollower.expect("replicating migration provisions a follower"));
            Arc::new(ReplRuntime::new(
                &cfg2,
                pools.clone(),
                self.engine.coord.log.clone(),
                followers,
                probe.clone(),
            ))
        });
        let svc = Service::assemble(
            cfg2,
            pools,
            self.engine.coord.clone(),
            rt2,
            new_table.clone(),
            probe.clone(),
            Some((self.engine.router.clone(), self.ring_metrics.clone())),
        );
        // Stragglers that grabbed a pre-flip router snapshot may have
        // landed in the husk's queues between our drain and the router
        // install; collect them, then drop the husk so any later
        // straggler sees `Disconnected` and the ring's reroute retry.
        for s in &self.shards {
            while let Ok(r) = s.queue_rx.try_recv() {
                reqs.push(r);
            }
        }
        while let Ok(r) = self.xqueue_rx.try_recv() {
            xreqs.push(r);
        }
        drop(self);
        // Re-route the collected requests under the new table. A batch
        // that was same-shard under the old table may now straddle the
        // split — it goes to the 2PC drivers.
        let inner = svc.engine.router.load();
        for r in reqs {
            requeue(&inner, r.ops, r.reply, r.deadline, r.enqueued);
        }
        for r in xreqs {
            requeue(&inner, r.ops, r.reply, r.deadline, Instant::now());
        }
        // The moved keys' source copies are unreachable under the new
        // table; sweep them (logged removes keep a replicating source's
        // follower in sync). With replication off the source log only
        // existed for this migration — disarm and empty it first.
        if !cfg.replication {
            repl::set_armed(&stm, mig_tid, shdr, false);
            repl::trim_through(&stm, mig_tid, shdr.offset(repl::P_HEAD), u64::MAX);
        }
        svc.scavenge(source);
        let flip_pause = pause_start.elapsed();
        if probe.fires(Point::Resumed) {
            return Err(Box::new(MigrateCrash { dump: svc.crash() }));
        }
        let report = MigrateReport {
            duration: start.elapsed(),
            flip_pause,
            base_keys,
            catchup_entries,
            epoch: new_table.epoch(),
            already_applied: false,
        };
        Ok((svc, report))
    }

    /// Remove every key on `shard` that the *current* table routes
    /// elsewhere. Live-safe: chunked per-bucket transactional scans on
    /// the reserved migration thread slot — no request can touch a
    /// misrouted key (workers reject them), so the sweep races nothing.
    /// Removes are logged when the shard's op log is armed, keeping a
    /// replicating source's follower in sync.
    fn scavenge(&self, shard: usize) -> u64 {
        let cfg = &self.engine.cfg;
        let table = self.engine.router.table();
        let p = &self.engine.pools[shard];
        let mig_tid = cfg.workers_per_shard + cfg.coordinators + 1;
        let mut removed = 0u64;
        for b in 0..cfg.buckets_per_shard {
            let chunk = tm::txn(&*p.tm, mig_tid, |tx| p.map.scan_bucket_in(tx, b))
                .expect("bucket scans never cancel");
            let stale: Vec<u64> = chunk
                .into_iter()
                .filter(|&(k, _)| table.route(k) != shard)
                .map(|(k, _)| k)
                .collect();
            if stale.is_empty() {
                continue;
            }
            let (map, hdr) = (p.map, p.hdr);
            tm::txn(&*p.tm, mig_tid, |tx| {
                let mut muts = Vec::with_capacity(stale.len());
                for &k in &stale {
                    if map.remove_in(tx, k)?.is_some() {
                        muts.push(MapOp::Remove(k));
                    }
                }
                if !muts.is_empty() {
                    repl::append_armed_in(tx, hdr, LogKind::Batch, 0, &muts)?;
                }
                Ok(muts.len() as u64)
            })
            .map(|n| removed += n)
            .expect("scavenge transactions never cancel");
        }
        removed
    }
}

/// Replay log entries into the target: apply the moving mutations and
/// append them to the target's (armed-iff-replicating) log in the same
/// transaction. 2PC markers are deliberately not migrated — the flip
/// happens with the decision log fully resolved, so every `Prepare` in
/// the stream has its `Resolve` before the final tail ends and the
/// markers net to nothing, and the target's marker map stays empty.
/// Returns how many entries contributed.
fn apply_entries(target: &ShardPool, entries: &[LogEntry], mask: &[bool; ROUTE_SLOTS]) -> u64 {
    let mut applied = 0u64;
    for e in entries {
        let muts: Vec<MapOp> = e
            .ops
            .iter()
            .copied()
            .filter(|&op| mask[RoutingTable::slot_of(op_key(op))])
            .collect();
        if muts.is_empty() {
            continue;
        }
        tm::txn(&*target.tm, 0, |tx| {
            for &op in &muts {
                target.map.apply_in(tx, op)?;
            }
            repl::append_armed_in(tx, target.hdr, LogKind::Batch, 0, &muts)?;
            Ok(())
        })
        .expect("target-side migration transactions never cancel");
        applied += 1;
    }
    applied
}

/// Route one collected request under the (new) table snapshot: back
/// into its shard's lane when it is still single-shard, to the 2PC
/// drivers when the flip split it. Queue-full answers `Overloaded`,
/// exactly as a fresh submission would have been told.
fn requeue(
    inner: &RouterInner,
    ops: Vec<MapOp>,
    reply: crate::ring::RingCompletion,
    deadline: Instant,
    enqueued: Instant,
) {
    let table = &inner.table;
    let shard = table.route(op_key(ops[0]));
    if ops.iter().all(|&op| table.route(op_key(op)) == shard) {
        let req = ShardRequest {
            ops,
            reply,
            deadline,
            enqueued,
            epoch: table.epoch(),
        };
        match inner.lanes[shard].queue.try_send(req) {
            Ok(()) => {}
            Err(TrySendError::Full(req)) | Err(TrySendError::Disconnected(req)) => {
                req.reply.send(Err(ServeError::Overloaded {
                    retry_after: Duration::from_millis(1),
                }));
            }
        }
    } else {
        let req = XRequest {
            ops,
            reply,
            deadline,
        };
        match inner.xqueue.try_send(req) {
            Ok(()) => {}
            Err(TrySendError::Full(req)) | Err(TrySendError::Disconnected(req)) => {
                req.reply.send(Err(ServeError::Overloaded {
                    retry_after: Duration::from_millis(1),
                }));
            }
        }
    }
}
