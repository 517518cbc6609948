//! Integration tests of the unified telemetry layer: live snapshots taken
//! concurrently with a submission flood must stay internally consistent
//! (`requests ≥ batches` at every instant, elements conserved at the end),
//! the inspection tree must round-trip through its JSON codec bit-exactly,
//! and one snapshot must cover every layer of the stack at once.

use hybrid_radix_sort::telemetry::InspectNode;
use hybrid_radix_sort::{prelude::*, workloads};
use proptest::prelude::*;
use std::time::Duration;

fn payload(i: usize, n: usize) -> SortPayload {
    let seed = i as u64 + 1;
    match i % 3 {
        0 => SortPayload::U32Keys(workloads::uniform_keys::<u32>(n, seed)),
        1 => SortPayload::U64Keys(workloads::uniform_keys::<u64>(n, seed)),
        _ => SortPayload::U64Pairs {
            keys: workloads::uniform_keys::<u64>(n, seed),
            values: (0..n as u32).collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Snapshots interleaved with a flood: every live read happens while
    /// the worker thread is admitting, flushing, and resolving
    /// concurrently, and none may contradict itself.
    #[test]
    fn snapshots_stay_consistent_under_a_submit_flood(
        sizes in proptest::collection::vec(1usize..4_000, 4..16),
        linger_ms in 0u64..3,
    ) {
        let service = SortService::start(
            ShardedSorter::new(DevicePool::titan_cluster(2)),
            ServiceConfig::default()
                .with_queue_depth(sizes.len())
                .with_max_linger(Duration::from_millis(linger_ms)),
        );
        let total: u64 = sizes.iter().map(|&n| n as u64).sum();
        let mut tickets = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            tickets.push(service.submit(payload(i, n)).expect("admission"));
            let live = service.stats_snapshot();
            prop_assert!(
                live.requests >= live.batches,
                "snapshot saw {} batches for {} requests",
                live.batches,
                live.requests
            );
            prop_assert!(live.requests <= i as u64 + 1);
            prop_assert!(live.elements <= total);
        }
        for t in tickets {
            t.wait().expect("ticket resolves");
        }
        // Everything resolved: the counters must have conserved the flood.
        let stats = service.stats_snapshot();
        prop_assert_eq!(stats.requests, sizes.len() as u64);
        prop_assert_eq!(stats.elements, total);
        prop_assert!(stats.batches >= 1);
        prop_assert!(stats.requests >= stats.batches);
        prop_assert!(stats.max_batch_requests as u64 <= stats.requests);
        prop_assert!(stats.latency_p99 >= stats.latency_p50);
        // The inspection tree agrees with the typed view.
        let snap = service.inspector().snapshot();
        let svc = snap.node("service").expect("service subtree");
        prop_assert_eq!(svc.uint("elements"), Some(total));
        prop_assert_eq!(svc.uint("requests"), Some(stats.requests));
        let shutdown_stats = service.shutdown();
        prop_assert_eq!(shutdown_stats.requests, sizes.len() as u64);
        prop_assert_eq!(shutdown_stats.elements, total);
    }
}

/// The JSON codec is lossless on edge values: zero, `u64::MAX`, exact
/// binary fractions, and text needing escapes.
#[test]
fn inspect_tree_round_trips_through_json() {
    let inspector = Inspector::new();
    inspector.counter("edge/zero");
    inspector.counter("edge/max").add(u64::MAX);
    inspector.float_gauge("edge/ratio").set(0.125);
    inspector.text("edge/label").set("titan \"x\"\\pascal\n");
    let lat = inspector.histogram("edge/lat");
    lat.record(0);
    lat.record(u64::MAX);

    let snap = inspector.snapshot();
    let parsed = InspectNode::from_json(&snap.to_json()).expect("snapshot JSON parses");
    assert_eq!(parsed, snap);
    let edge = parsed.node("edge").expect("edge subtree");
    assert_eq!(edge.uint("zero"), Some(0));
    assert_eq!(edge.uint("max"), Some(u64::MAX));
    assert_eq!(edge.double("ratio"), Some(0.125));
    assert_eq!(edge.text("label"), Some("titan \"x\"\\pascal\n"));
    assert_eq!(parsed.node("edge/lat").unwrap().uint("count"), Some(2));
}

/// One snapshot covers the whole stack: service counters, class queues,
/// the sharded engine, per-device core sorters, and span aggregates — and
/// the serialised artifact still contains all of it after a round trip.
#[test]
fn one_snapshot_covers_the_whole_stack() {
    let service = SortService::start(
        ShardedSorter::new(DevicePool::titan_cluster(2)),
        ServiceConfig::default(),
    );
    let tickets: Vec<SortTicket> = (0..6)
        .map(|i| service.submit(payload(i, 8_192)).expect("admission"))
        .collect();
    for t in tickets {
        t.wait().expect("ticket resolves");
    }
    let snap = service.inspector().snapshot();
    for path in [
        "service",
        "service/class/u32",
        "service/class/u64",
        "multi_gpu",
        "multi_gpu/dev0",
        "core/dev0",
        "spans/multi_gpu/merge",
    ] {
        assert!(snap.node(path).is_some(), "snapshot lacks {path}");
    }
    assert!(snap.node("multi_gpu").unwrap().uint("keys").unwrap() > 0);
    let parsed = InspectNode::from_json(&snap.to_json()).expect("parses");
    assert_eq!(parsed, snap);
    service.shutdown();
}

/// How often `sorter` recombined by concatenation and by merge.
fn recombine_counts(sorter: &ShardedSorter) -> (u64, u64) {
    let snap = sorter.inspector().snapshot();
    let count = |leaf: &str| {
        snap.node("multi_gpu/recombine")
            .and_then(|node| node.uint(leaf))
            .unwrap_or(0)
    };
    (count("concatenated"), count("merged"))
}

/// The recombine counters say which arm of the host step ran: range
/// shards tile the key space and concatenate; out-of-core chunks of one
/// shard overlap and merge, and so do the orphan buckets a device failing
/// mid-exchange leaves behind.  A device failing before its in-core sort
/// hands back one whole shard range, so that retry still tiles.
#[test]
fn recombine_counters_tell_concatenation_from_merge() {
    let sorter = ShardedSorter::new(DevicePool::titan_cluster(4));
    let mut keys = workloads::uniform_keys::<u64>(50_000, 41);
    sorter.sort(&mut keys);
    assert_eq!(recombine_counts(&sorter), (1, 0), "fault-free in core");

    let mut spec = DeviceSpec::titan_x_pascal();
    spec.device_memory_bytes = 1 << 20;
    let sorter = ShardedSorter::new(DevicePool::homogeneous(2, SimDevice::on_pcie3(spec)));
    let mut keys = workloads::uniform_keys::<u64>(100_000, 43);
    let report = sorter.sort_out_of_core(&mut keys);
    assert!(
        report.ooc_chunks.len() > 2,
        "the shards must stream in chunks"
    );
    assert_eq!(recombine_counts(&sorter), (0, 1), "out of core");

    let sorter = ShardedSorter::new(DevicePool::nvlink_mesh_cluster(3))
        .with_recombine_strategy(RecombineStrategy::PeerExchange)
        .with_fault_plan(FaultPlan::fail_device(1, 1));
    let mut keys = workloads::uniform_keys::<u64>(60_000, 47);
    let report = sorter.try_sort(&mut keys).expect("survivors recover");
    assert_eq!(report.faults[0].kind, FaultEventKind::DeviceFailure);
    assert_eq!(recombine_counts(&sorter), (0, 1), "mid-exchange retry");

    let sorter = ShardedSorter::new(DevicePool::titan_cluster(4))
        .with_fault_plan(FaultPlan::fail_device(1, 0));
    let mut keys = workloads::uniform_keys::<u64>(60_000, 53);
    let report = sorter.try_sort(&mut keys).expect("survivors recover");
    assert_eq!(report.faults[0].kind, FaultEventKind::DeviceFailure);
    assert_eq!(recombine_counts(&sorter), (1, 0), "in-core retry");
}
