//! Property tests for request routing and the single/cross-shard split.
//!
//! Over random op batches, shard counts and slot moves:
//! - `partition_by_table`, the grouping 2PC runs, is a true partition
//!   (every op exactly once, in its key's shard, groups ordered by first
//!   appearance);
//! - the versioned routing table routes every key to exactly one live
//!   shard before, during and after any sequence of slot reassignments,
//!   and a reassignment changes the routing of exactly the moved slots;
//! - the service is sequentially equivalent to a `HashMap` model no
//!   matter how batches mix shards (single-shard fast path and 2PC must
//!   agree on semantics);
//! - single-shard batches never engage the 2PC coordinator, and every
//!   multi-shard batch does;
//! - a deployment that grew by live migration is model-equivalent to a
//!   fresh deployment with the final topology.

use proptest::prelude::*;
use proptest::proptest;
use std::collections::HashMap;

use kvserve::{
    op_key, partition_by_table, Follower, LogEntry, LogKind, MapOp, MigrateSpec, RoutingTable,
    Service, ServiceConfig, ROUTE_SLOTS,
};

fn op_strategy() -> impl Strategy<Value = MapOp> {
    (0u8..3, 0u64..48, 0u64..1000).prop_map(|(tag, k, v)| match tag {
        0 => MapOp::Get(k),
        1 => MapOp::Insert(k, v),
        _ => MapOp::Remove(k),
    })
}

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<MapOp>>> {
    proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..8), 1..16)
}

fn model_apply(model: &mut HashMap<u64, u64>, op: MapOp) -> Option<u64> {
    match op {
        MapOp::Get(k) => model.get(&k).copied(),
        MapOp::Insert(k, v) => model.insert(k, v),
        MapOp::Remove(k) => model.remove(&k),
    }
}

fn small_cfg(shards: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(shards);
    cfg.heap_words_per_shard = 1 << 13;
    cfg.buckets_per_shard = 32;
    cfg.log_heap_words = 1 << 13;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every op index lands in exactly one group, each group's ops all
    /// route to that group's shard, shards are distinct, and groups are
    /// ordered by first appearance.
    #[test]
    fn partition_is_exact(
        shards in 1usize..9,
        ops in proptest::collection::vec(op_strategy(), 0..32),
    ) {
        let table = RoutingTable::fresh(shards);
        let groups = partition_by_table(&ops, &table);
        let mut seen = vec![false; ops.len()];
        let mut first_seen_order = Vec::new();
        for (s, idxs) in &groups {
            prop_assert!(*s < shards);
            prop_assert!(!idxs.is_empty());
            for &i in idxs {
                prop_assert!(!seen[i], "op {} in two groups", i);
                seen[i] = true;
                prop_assert_eq!(table.route(op_key(ops[i])), *s);
            }
            first_seen_order.push(idxs[0]);
        }
        prop_assert!(seen.iter().all(|&b| b), "some op not partitioned");
        let mut sorted = first_seen_order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(first_seen_order, sorted, "groups not in first-appearance order");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Routing is total and exact under any sequence of slot moves:
    /// every key routes to exactly one shard at every step, `slots_of`
    /// partitions the slot space, the epoch counts the moves, and each
    /// move changes the routing of exactly the keys in the moved slots.
    #[test]
    fn routing_survives_arbitrary_slot_moves(
        shards in 1usize..6,
        moves in proptest::collection::vec(
            (proptest::collection::vec(0usize..ROUTE_SLOTS, 1..8), 0usize..8),
            0..6,
        ),
        keys in proptest::collection::vec(0u64..10_000, 16),
    ) {
        let mut table = RoutingTable::fresh(shards);
        prop_assert_eq!(table.epoch(), 0);
        for (step, (mut slots, target)) in moves.into_iter().enumerate() {
            slots.sort_unstable();
            slots.dedup();
            let next = table.reassign(&slots, target);
            prop_assert_eq!(next.epoch(), step as u64 + 1);
            for &k in &keys {
                let slot = RoutingTable::slot_of(k);
                // Exactly one owner, and exactly the moved slots change.
                prop_assert_eq!(next.route(k), next.assignment()[slot] as usize);
                if slots.contains(&slot) {
                    prop_assert_eq!(next.route(k), target);
                } else {
                    prop_assert_eq!(next.route(k), table.route(k));
                }
            }
            // `slots_of` is the inverse view: a disjoint cover of all 64
            // slots across shards.
            let mut covered = vec![0u32; ROUTE_SLOTS];
            for s in 0..next.shards() {
                for slot in next.slots_of(s) {
                    covered[slot] += 1;
                    prop_assert_eq!(next.assignment()[slot] as usize, s);
                }
            }
            prop_assert!(covered.iter().all(|&c| c == 1), "slots_of not a partition");
            table = next;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The service agrees with a sequential `HashMap` model over random
    /// batches regardless of how they split across shards — and the 2PC
    /// coordinator is engaged for exactly the multi-shard batches.
    #[test]
    fn batches_match_model_and_fast_path_bypasses_2pc(
        shards in 1usize..5,
        batches in batches_strategy(),
    ) {
        let svc = Service::new(small_cfg(shards));
        let mut model: HashMap<u64, u64> = HashMap::new();
        let table = RoutingTable::fresh(shards);
        let mut expect_cross = 0u64;
        for ops in &batches {
            if partition_by_table(ops, &table).len() > 1 {
                expect_cross += 1;
            }
            let expected: Vec<Option<u64>> =
                ops.iter().map(|&op| model_apply(&mut model, op)).collect();
            let got = svc.batch(ops.clone());
            prop_assert_eq!(got.as_ref(), Ok(&expected));
        }
        let snap = svc.snapshot();
        prop_assert_eq!(snap.coordinator.cross_batches, expect_cross);
        // Final state agrees key by key.
        for k in 0..48u64 {
            prop_assert_eq!(svc.get(k), Ok(model.get(&k).copied()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// A deployment grown by live migration stays sequentially
    /// equivalent to the `HashMap` model across the flip, agrees with
    /// the routing table on where every key lives, and ends up
    /// indistinguishable from a fresh deployment holding the same model
    /// under the same (post-migration) topology.
    #[test]
    fn migrated_deployment_matches_model(
        pre in batches_strategy(),
        post in batches_strategy(),
    ) {
        let svc = Service::new(small_cfg(2));
        let mut model: HashMap<u64, u64> = HashMap::new();
        for ops in &pre {
            let expected: Vec<Option<u64>> =
                ops.iter().map(|&op| model_apply(&mut model, op)).collect();
            prop_assert_eq!(svc.batch(ops.clone()), Ok(expected));
        }
        let spec = MigrateSpec::split(&svc.routing(), 0);
        let moved = spec.slots.clone();
        let (svc, report) = svc.migrate(spec).expect("no probe installed");
        prop_assert!(!report.already_applied);
        prop_assert_eq!(report.epoch, 1);
        let table = svc.routing();
        prop_assert_eq!(table.shards(), 3);
        prop_assert_eq!(table.slots_of(2), moved);
        // Traffic across the flip still matches the model...
        for ops in &post {
            let expected: Vec<Option<u64>> =
                ops.iter().map(|&op| model_apply(&mut model, op)).collect();
            prop_assert_eq!(svc.batch(ops.clone()), Ok(expected));
        }
        // ...every key answers from where the table says it lives...
        for k in 0..48u64 {
            prop_assert_eq!(svc.get(k), Ok(model.get(&k).copied()));
            prop_assert_eq!(svc.shard_of(k), table.route(k));
        }
        // ...and a fresh deployment migrated to the same topology and
        // loaded with the same model is indistinguishable through the
        // API: same assignment, same answer for every key.
        let fresh = Service::new(small_cfg(2));
        let (fresh, _) = fresh
            .migrate(MigrateSpec { source: 0, slots: moved })
            .expect("no probe installed");
        for (k, v) in &model {
            fresh.put(*k, *v).unwrap();
        }
        let fresh_table = fresh.routing();
        prop_assert_eq!(fresh_table.assignment(), table.assignment());
        for k in 0..48u64 {
            prop_assert_eq!(fresh.get(k), svc.get(k));
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-frame codec properties: arbitrary batches survive the wire
// byte-for-byte, and arbitrary bytes — truncations, hostile headers,
// garbage — decode to clean errors, never panics, never partial frames.
// ---------------------------------------------------------------------------

use kvserve::net::{
    decode_frame, encode_request, encode_response, Frame, FrameError, HEADER_LEN, MAX_BODY,
    PROTOCOL_VERSION,
};
use kvserve::{Reply, ServeError};
use std::time::Duration;

fn reply_strategy() -> impl Strategy<Value = Reply> {
    prop_oneof![
        proptest::collection::vec(proptest::option::of(any::<u64>()), 0..16).prop_map(Ok),
        Just(Err(ServeError::Timeout)),
        Just(Err(ServeError::Aborted)),
        Just(Err(ServeError::Stopped)),
        (0u64..1_000_000).prop_map(|us| Err(ServeError::Overloaded {
            retry_after: Duration::from_micros(us),
        })),
        Just(Err(ServeError::RingFull)),
    ]
}

/// What the decoder should hand back for an encoded reply: `RingFull`
/// crosses the wire as `Busy` with a zero retry hint, everything else
/// is identity.
fn wire_normalize(reply: &Reply) -> Reply {
    match reply {
        Err(ServeError::RingFull) => Err(ServeError::Overloaded {
            retry_after: Duration::ZERO,
        }),
        other => other.clone(),
    }
}

fn wide_op_strategy() -> impl Strategy<Value = MapOp> {
    (0u8..3, any::<u64>(), any::<u64>()).prop_map(|(tag, k, v)| match tag {
        0 => MapOp::Get(k),
        1 => MapOp::Insert(k, v),
        _ => MapOp::Remove(k),
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// A stream of arbitrary request and response frames encodes into
    /// one buffer and decodes back frame-for-frame identical, consuming
    /// exactly the bytes written — no drift, no trailing slop.
    #[test]
    fn frames_roundtrip_through_the_wire(
        frames in proptest::collection::vec(
            prop_oneof![
                (any::<u64>(), any::<u64>(), proptest::collection::vec(wide_op_strategy(), 0..32))
                    .prop_map(|(corr, dl, ops)| (corr, Some(dl), Ok(ops))),
                (any::<u64>(), reply_strategy()).prop_map(|(corr, r)| (corr, None, Err(r))),
            ],
            1..12,
        ),
    ) {
        let mut buf = Vec::new();
        for (corr, deadline, payload) in &frames {
            match payload {
                Ok(ops) => encode_request(&mut buf, *corr, deadline.unwrap(), ops),
                Err(reply) => encode_response(&mut buf, *corr, reply),
            }
        }
        let mut at = 0;
        for (corr, deadline, payload) in &frames {
            let (frame, used) = decode_frame(&buf[at..]).expect("valid frame");
            at += used;
            match (frame, payload) {
                (Frame::Request(req), Ok(ops)) => {
                    prop_assert_eq!(req.corr, *corr);
                    prop_assert_eq!(req.deadline_micros, deadline.unwrap());
                    prop_assert_eq!(&req.ops, ops);
                }
                (Frame::Response(resp), Err(reply)) => {
                    prop_assert_eq!(resp.corr, *corr);
                    prop_assert_eq!(resp.reply, wire_normalize(reply));
                }
                (got, _) => prop_assert!(false, "frame kind flipped on the wire: {:?}", got),
            }
        }
        prop_assert_eq!(at, buf.len(), "codec drifted off the frame boundary");
        prop_assert_eq!(decode_frame(&buf[at..]), Err(FrameError::Closed));
    }

    /// Every strict prefix of a valid frame is `Truncated` (empty is
    /// `Closed`) — a cut never panics, never yields a frame, and never
    /// misreports where the stream died.
    #[test]
    fn every_truncation_is_clean(
        corr in any::<u64>(),
        deadline in any::<u64>(),
        ops in proptest::collection::vec(wide_op_strategy(), 0..16),
        reply in reply_strategy(),
    ) {
        let mut buf = Vec::new();
        encode_request(&mut buf, corr, deadline, &ops);
        encode_response(&mut buf, corr, &reply);
        for cut in 0..buf.len() {
            let want = if cut == 0 { FrameError::Closed } else { FrameError::Truncated };
            // Cuts inside the *second* frame still decode the first.
            let got = decode_frame(&buf[..cut]);
            match got {
                Err(e) => prop_assert_eq!(e, want, "cut at {}", cut),
                Ok((_, used)) => prop_assert!(
                    used <= cut && decode_frame(&buf[used..cut]) == Err(if used == cut {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated
                    }),
                    "cut at {} leaked past the boundary", cut
                ),
            }
        }
    }

    /// Arbitrary bytes never panic the decoder, and a hostile length
    /// field is rejected *before* any allocation: oversized headers and
    /// unknown versions fail on the 8 header bytes alone.
    #[test]
    fn hostile_bytes_fail_closed(
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        body_len in (MAX_BODY + 1)..u32::MAX,
        version in 0u8..=255,
    ) {
        // Whatever the bytes, the decoder returns; it never panics.
        let _ = decode_frame(&junk);

        let mut hostile = body_len.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[PROTOCOL_VERSION, 1, 0, 0]);
        prop_assert_eq!(decode_frame(&hostile), Err(FrameError::Oversized(body_len)));
        prop_assert_eq!(hostile.len(), HEADER_LEN);

        if version != PROTOCOL_VERSION {
            let mut wrong = 0u32.to_le_bytes().to_vec();
            wrong.extend_from_slice(&[version, 1, 0, 0]);
            prop_assert_eq!(decode_frame(&wrong), Err(FrameError::BadVersion(version)));
        }
    }
}

fn log_entry_strategy() -> impl Strategy<Value = (bool, u64, u64, Vec<MapOp>)> {
    let mutation = (1u8..3, 0u64..32, 0u64..1000).prop_map(|(tag, k, v)| match tag {
        1 => MapOp::Insert(k, v),
        _ => MapOp::Remove(k),
    });
    // Slots stay below `ServiceConfig::new`'s two coordinators, which
    // size the fresh follower's commit words.
    (
        any::<bool>(),
        0u64..2,
        1u64..8,
        proptest::collection::vec(mutation, 1..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Log application composes over prefixes: applying a prefix, then
    /// the remainder — including an arbitrary overlapping re-delivery of
    /// the prefix's tail, as a shipper retrying after a crash would —
    /// yields exactly the state of applying the whole log once. The
    /// follower's durable applied-LSN watermark is what makes the
    /// re-delivered entries no-ops.
    #[test]
    fn log_application_is_prefix_composable(
        raw in proptest::collection::vec(log_entry_strategy(), 1..20),
        split_seed in 0usize..20,
        overlap in 0usize..5,
    ) {
        let entries: Vec<LogEntry> = raw
            .iter()
            .enumerate()
            .map(|(i, (prepare, slot, txid, ops))| {
                let (kind, slot, txid) = if *prepare {
                    (LogKind::Prepare, *slot, *txid)
                } else {
                    (LogKind::Batch, 0, 0)
                };
                LogEntry { lsn: i as u64 + 1, kind, slot, txid, ops: ops.clone() }
            })
            .collect();
        let split = split_seed % (entries.len() + 1);

        let whole = Follower::fresh(1 << 14);
        whole.ingest(&entries);

        let parts = Follower::fresh(1 << 14);
        parts.ingest(&entries[..split]);
        let from = split.saturating_sub(overlap);
        parts.ingest(&entries[from..]);

        prop_assert_eq!(whole.contents(), parts.contents());
        prop_assert_eq!(whole.commit_words(), parts.commit_words());
        prop_assert_eq!(whole.applied_lsn(), parts.applied_lsn());
        prop_assert_eq!(whole.applied_lsn(), entries.len() as u64);
    }
}
