//! Golden schedule test: five fault-free sharded sorts, one per engine
//! shape, must reproduce a checked-in simulated schedule.
//!
//! The runs cover the in-core host merge (the `sharded-skew` benchmark
//! shape), a coalesced service batch (the `serve-mixed` shape), the
//! out-of-core chunk stream, and the peer exchange on an NVLink mesh and on
//! PCIe (where every bucket stages through the host).  Each run pins the
//! critical path, the splitter cuts, every shard's size, range and stage
//! times, the out-of-core chunk spans, the exchange spans and the request
//! spans.  Times compare to 1e-12 relative, everything else exactly;
//! timeline labels are deliberately not pinned.
//!
//! The fixture (`tests/golden/sharded_schedule.txt`) holds one
//! `name kind value` line per pinned value: kind `t` is a simulated time in
//! seconds, kind `x` an exact value.

use hybrid_radix_sort::gpu_sim::DeviceSpec;
use hybrid_radix_sort::hrs_core::Executor;
use hybrid_radix_sort::multi_gpu::{
    DevicePool, RecombineStrategy, ShardedReport, ShardedSorter, SimDevice,
};
use hybrid_radix_sort::workloads::{uniform_keys, ZipfGenerator};
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("golden/sharded_schedule.txt");

/// Relative tolerance of simulated-time comparisons.
const TIME_RTOL: f64 = 1e-12;

/// One pinned value: `'t'` (simulated seconds) or `'x'` (exact).
type Pinned = (char, String);

fn pin_time(out: &mut BTreeMap<String, Pinned>, name: String, secs: f64) {
    out.insert(name, ('t', format!("{secs:?}")));
}

fn pin_exact(out: &mut BTreeMap<String, Pinned>, name: String, value: impl std::fmt::Debug) {
    out.insert(name, ('x', format!("{value:?}")));
}

/// Every pinned value of one report, keyed `run.field[.index.subfield]`.
fn pin_report(out: &mut BTreeMap<String, Pinned>, run: &str, r: &ShardedReport) {
    pin_time(out, format!("{run}.critical_path"), r.critical_path.secs());
    pin_exact(out, format!("{run}.cuts"), &r.splitters.cuts);
    pin_exact(out, format!("{run}.shards"), r.shards.len());
    for (i, s) in r.shards.iter().enumerate() {
        let f = |leaf: &str| format!("{run}.shard{i:02}.{leaf}");
        pin_exact(out, f("n"), s.n);
        pin_exact(out, f("range"), s.range);
        pin_time(out, f("upload"), s.upload.secs());
        pin_time(out, f("gpu_sort"), s.gpu_sort.secs());
        pin_time(out, f("download"), s.download.secs());
        pin_time(out, f("finish"), s.finish.secs());
    }
    pin_exact(out, format!("{run}.ooc_chunks"), r.ooc_chunks.len());
    for (i, c) in r.ooc_chunks.iter().enumerate() {
        let f = |leaf: &str| format!("{run}.chunk{i:03}.{leaf}");
        pin_exact(out, f("place"), (c.device, c.chunk, c.offset, c.len));
        pin_time(out, f("sort"), c.sort.secs());
        pin_time(out, f("finish"), c.finish.secs());
    }
    pin_exact(out, format!("{run}.exchange"), r.exchange.len());
    for (i, x) in r.exchange.iter().enumerate() {
        let f = |leaf: &str| format!("{run}.xfer{i:02}.{leaf}");
        pin_exact(out, f("pair"), (x.src, x.dst, x.elems, x.bytes, x.direct));
        pin_time(out, f("start"), x.start.secs());
        pin_time(out, f("end"), x.end.secs());
    }
    pin_exact(out, format!("{run}.requests"), r.requests.len());
    for (i, q) in r.requests.iter().enumerate() {
        pin_exact(out, format!("{run}.request{i}"), (q.index, q.offset, q.len));
    }
}

fn assert_sorted<K: PartialOrd>(keys: &[K], run: &str) {
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "{run}: output unsorted"
    );
}

/// The `sharded-skew` shape: Zipf(0.75) u64 keys with u32 row ids on four
/// PCIe Titan X cards, host merge, with `workers` host threads.
fn skew_run(workers: usize) -> ShardedReport {
    let n = 1usize << 16;
    let mut keys: Vec<u64> = ZipfGenerator::new(0.75, (n / 4) as u64, 1).generate(n);
    let mut values: Vec<u32> = (0..n as u32).collect();
    let sorter = ShardedSorter::new(DevicePool::titan_cluster(4))
        .with_host_executor(Executor::with_workers(workers))
        .with_merge_threads(workers);
    let report = sorter.sort_pairs(&mut keys, &mut values);
    assert_sorted(&keys, "skew");
    report
}

/// The `serve-mixed` shape: a three-request batch of u32 keys tagged with
/// u64 demux tags, through the service's batch entry point.
fn serve_run() -> ShardedReport {
    let lens = [1_000usize, 4_000, 16_000];
    let mut keys: Vec<u32> = Vec::new();
    let mut tags: Vec<u64> = Vec::new();
    for (slot, &len) in lens.iter().enumerate() {
        keys.extend(uniform_keys::<u32>(len, 10 + slot as u64));
        tags.extend((0..len as u64).map(|i| ((slot as u64) << 32) | i));
    }
    let sorter = ShardedSorter::new(DevicePool::titan_cluster(2));
    let report = sorter
        .try_sort_batch_pairs(&mut keys, &mut tags, &lens)
        .expect("fault-free batch");
    assert_sorted(&keys, "serve");
    report
}

/// Out of core: two Titan X cards shrunk to 1 MiB of memory each.
fn ooc_run() -> ShardedReport {
    let mut spec = DeviceSpec::titan_x_pascal();
    spec.device_memory_bytes = 1 << 20;
    let pool = DevicePool::homogeneous(2, SimDevice::on_pcie3(spec));
    let mut keys = uniform_keys::<u64>(200_000, 3);
    let report = ShardedSorter::new(pool).sort_out_of_core(&mut keys);
    assert_sorted(&keys, "ooc");
    assert!(report.is_out_of_core());
    report
}

/// Peer exchange over `pool`.
fn exchange_run(pool: DevicePool, n: usize, seed: u64, run: &str) -> ShardedReport {
    let mut keys = uniform_keys::<u64>(n, seed);
    let report = ShardedSorter::new(pool)
        .with_recombine_strategy(RecombineStrategy::PeerExchange)
        .sort(&mut keys);
    assert_sorted(&keys, run);
    assert_eq!(report.recombine, RecombineStrategy::PeerExchange);
    report
}

fn observed() -> BTreeMap<String, Pinned> {
    let mut out = BTreeMap::new();
    pin_report(&mut out, "skew", &skew_run(2));
    pin_report(&mut out, "serve", &serve_run());
    pin_report(&mut out, "ooc", &ooc_run());
    let mesh = exchange_run(DevicePool::nvlink_mesh_cluster(4), 120_000, 5, "mesh");
    pin_report(&mut out, "mesh", &mesh);
    let pcie = exchange_run(DevicePool::titan_cluster(2), 90_000, 7, "pcie");
    pin_report(&mut out, "pcie", &pcie);
    out
}

fn fixture() -> BTreeMap<String, Pinned> {
    FIXTURE
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let mut parts = line.splitn(3, ' ');
            let name = parts.next().expect("name").to_string();
            let kind = parts.next().expect("kind").chars().next().expect("kind");
            let value = parts.next().expect("value").to_string();
            (name, (kind, value))
        })
        .collect()
}

fn times_match(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= TIME_RTOL * a.abs().max(b.abs())
}

fn compare(expected: &BTreeMap<String, Pinned>, got: &BTreeMap<String, Pinned>) {
    let missing: Vec<&String> = expected.keys().filter(|k| !got.contains_key(*k)).collect();
    let extra: Vec<&String> = got.keys().filter(|k| !expected.contains_key(*k)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "pinned value set differs: missing {missing:?}, extra {extra:?}"
    );
    let mut diffs = Vec::new();
    for (name, (kind, want)) in expected {
        let (got_kind, have) = &got[name];
        let same = kind == got_kind
            && match kind {
                't' => {
                    let w: f64 = want.parse().expect("fixture time");
                    let h: f64 = have.parse().expect("observed time");
                    times_match(w, h)
                }
                _ => want == have,
            };
        if !same {
            diffs.push(format!("{name}: expected {want}, got {have}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} pinned values differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn fault_free_schedules_match_the_golden_fixture() {
    compare(&fixture(), &observed());
}

/// The host executor's worker count changes how the partition and shard
/// fan-out run, never the schedule they produce.
#[test]
fn skew_schedule_is_independent_of_host_workers() {
    let expected: BTreeMap<String, Pinned> = fixture()
        .into_iter()
        .filter(|(k, _)| k.starts_with("skew."))
        .collect();
    for workers in [1usize, 7] {
        let mut got = BTreeMap::new();
        pin_report(&mut got, "skew", &skew_run(workers));
        compare(&expected, &got);
    }
}
