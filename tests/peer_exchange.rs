//! Cross-strategy equivalence suite for the recombination phase: the
//! peer-exchange path (`RecombineStrategy::PeerExchange`), the default
//! host p-way merge (`RecombineStrategy::HostMerge`) and the standard
//! library sort must all agree on every output — for plain keys, pairs,
//! batches and the out-of-core lane, across uniform / zipf / sorted /
//! duplicate-heavy inputs and 1/2/4/8-device pools, including skewed
//! capacity weights and shards that receive zero keys.
//!
//! The exchange path may differ in *schedule* (that is the point), never
//! in *bytes*.  Golden fingerprints of fault-free host-merge pair sorts
//! pin the bytes themselves — keys and values, so the order of equal keys
//! too — across pool sizes and host worker counts.

use hybrid_radix_sort::gpu_sim::{DeviceSpec, LinkSpec, PeerTopology};
use hybrid_radix_sort::multi_gpu::{DevicePool, ShardedSorter};
use hybrid_radix_sort::prelude::*;
use hybrid_radix_sort::workloads::{uniform_keys, KeyCodec, ZipfGenerator};
use proptest::prelude::*;

/// A sharded sorter over an NVLink mesh, forced onto the peer-exchange
/// recombination, with the on-GPU config scaled down to test-sized inputs.
fn exchange_sorter(p: usize) -> ShardedSorter {
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(50_000, 250_000_000));
    ShardedSorter::new(DevicePool::nvlink_mesh_cluster(p))
        .with_sorter(gpu)
        .with_merge_threads(4)
        .with_recombine_strategy(RecombineStrategy::PeerExchange)
}

/// The host-merge baseline on the same device class (PCIe titan cluster,
/// no peer links — the pre-exchange engine, byte for byte).
fn host_sorter(p: usize) -> ShardedSorter {
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(50_000, 250_000_000));
    ShardedSorter::new(DevicePool::titan_cluster(p))
        .with_sorter(gpu)
        .with_merge_threads(4)
        .with_recombine_strategy(RecombineStrategy::HostMerge)
}

/// The four input shapes the suite sweeps: uniform, the paper's zipf,
/// pre-sorted, and duplicate-heavy (keys folded into 16 distinct values).
fn generate(shape: usize, n: usize, seed: u64) -> Vec<u64> {
    match shape {
        0 => uniform_keys::<u64>(n, seed),
        1 => ZipfGenerator::paper_keys::<u64>(n, seed),
        2 => {
            let mut k = uniform_keys::<u64>(n, seed);
            k.sort_unstable();
            k
        }
        _ => uniform_keys::<u64>(n, seed)
            .into_iter()
            .map(|k| (k % 16) << 60)
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Keys: peer-exchange ≡ host-merge ≡ std, over every pool size the
    /// issue names and every input shape.
    #[test]
    fn key_sorts_agree_across_strategies(
        n in 2_000usize..40_000,
        p_idx in 0usize..4,
        shape in 0usize..4,
        seed in any::<u64>(),
    ) {
        let p = [1usize, 2, 4, 8][p_idx];
        let keys = generate(shape, n, seed);
        let reference = KeyCodec::std_sorted(&keys);

        let mut via_host = keys.clone();
        let host_report = host_sorter(p).sort(&mut via_host);
        prop_assert_eq!(&via_host, &reference);
        prop_assert_eq!(host_report.recombine, RecombineStrategy::HostMerge);
        prop_assert!(host_report.exchange.is_empty());

        let mut via_peers = keys;
        let peer_report = exchange_sorter(p).sort(&mut via_peers);
        prop_assert_eq!(&via_peers, &reference);
        prop_assert_eq!(peer_report.n, n as u64);
        prop_assert_eq!(peer_report.recombine, RecombineStrategy::PeerExchange);
        let invariants = peer_report.span_invariants();
        prop_assert!(invariants.is_ok(), "exchange span invariants: {:?}", invariants);
    }

    /// Pairs: the permutation applied to the values is the same sort in
    /// both strategies — every value still rides its key.
    #[test]
    fn pair_sorts_agree_across_strategies(
        n in 1_000usize..25_000,
        p_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let p = [2usize, 4, 8][p_idx];
        let keys = uniform_keys::<u64>(n, seed);
        let tags: Vec<u64> = keys.iter().map(|&k| !k).collect();
        let reference = KeyCodec::std_sorted(&keys);

        let (mut hk, mut hv) = (keys.clone(), tags.clone());
        host_sorter(p).sort_pairs(&mut hk, &mut hv);
        let (mut pk, mut pv) = (keys, tags);
        exchange_sorter(p).sort_pairs(&mut pk, &mut pv);

        prop_assert_eq!(&pk, &reference);
        prop_assert_eq!(&pk, &hk);
        prop_assert!(pk.iter().zip(&pv).all(|(&k, &v)| v == !k),
            "a value came unglued from its key in the exchange");
        prop_assert!(hk.iter().zip(&hv).all(|(&k, &v)| v == !k));
    }

    /// Batches: request spans are offset bookkeeping over the same sorted
    /// output, so the concatenated batch must agree too.
    #[test]
    fn batch_sorts_agree_across_strategies(
        lens in proptest::collection::vec(500usize..6_000, 1..5),
        seed in any::<u64>(),
    ) {
        let mut keys = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            keys.extend(uniform_keys::<u64>(len, seed ^ i as u64));
        }
        let reference = KeyCodec::std_sorted(&keys);

        let mut via_host = keys.clone();
        let hr = host_sorter(4).sort_batch(&mut via_host, &lens);
        let mut via_peers = keys;
        let pr = exchange_sorter(4).sort_batch(&mut via_peers, &lens);

        prop_assert_eq!(&via_peers, &reference);
        prop_assert_eq!(&via_host, &reference);
        prop_assert_eq!(pr.requests.len(), lens.len());
        prop_assert_eq!(hr.requests.len(), lens.len());
        for (a, b) in pr.requests.iter().zip(&hr.requests) {
            prop_assert_eq!(a.offset, b.offset);
            prop_assert_eq!(a.len, b.len);
        }
    }

    /// Out-of-core: the chunk-streamed lane always recombines on the host
    /// (its tail merge overlaps the chunk stream instead), and setting the
    /// peer-exchange strategy on the engine must not disturb it.
    #[test]
    fn out_of_core_is_unaffected_by_the_strategy(
        n in 60_000usize..120_000,
        seed in any::<u64>(),
    ) {
        let mut spec = DeviceSpec::titan_x_pascal();
        spec.device_memory_bytes = 1 << 20;
        let pool = DevicePool::homogeneous(2, SimDevice::on_pcie3(spec))
            .with_peer_topology(PeerTopology::nvlink_mesh(2, LinkSpec::nvlink2()));
        let keys = uniform_keys::<u64>(n, seed);
        let reference = KeyCodec::std_sorted(&keys);
        let mut sorted = keys;
        let report = ShardedSorter::new(pool)
            .with_recombine_strategy(RecombineStrategy::PeerExchange)
            .try_sort_out_of_core(&mut sorted)
            .expect("ooc lane must not fail without faults");
        prop_assert_eq!(&sorted, &reference);
        prop_assert!(report.is_out_of_core());
        // The ooc lane reports the strategy it actually used.
        prop_assert_eq!(report.recombine, RecombineStrategy::HostMerge);
        prop_assert!(report.exchange.is_empty());
    }
}

/// Skewed capacity weights: a P100 next to a GTX 980 over a duplex NVLink
/// pair carves very unequal slabs, and the exchange must still tile the
/// key space exactly.
#[test]
fn skewed_pool_agrees_with_host_merge_and_reference() {
    let topo = PeerTopology::through_host(2).with_duplex_link(0, 1, LinkSpec::nvlink2());
    let pool = DevicePool::new(vec![
        SimDevice::on_nvlink2(DeviceSpec::tesla_p100()),
        SimDevice::on_pcie3(DeviceSpec::gtx_980()),
    ])
    .with_peer_topology(topo);
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(75_000, 250_000_000));
    let keys = ZipfGenerator::paper_keys::<u64>(140_000, 27);
    let reference = KeyCodec::std_sorted(&keys);

    let mut via_host = keys.clone();
    host_sorter(2).sort(&mut via_host);
    assert_eq!(via_host, reference);

    let mut via_peers = keys;
    let report = ShardedSorter::new(pool)
        .with_sorter(gpu)
        .with_merge_threads(4)
        .with_recombine_strategy(RecombineStrategy::PeerExchange)
        .sort(&mut via_peers);
    assert_eq!(via_peers, reference);
    assert!(
        report.exchange.iter().all(|x| x.direct),
        "the duplex NVLink pair must carry every transfer directly"
    );
    report.span_invariants().expect("monotone spans");
}

/// A constant-key input collapses every splitter onto one value: all but
/// one bucket is empty, so most devices contribute zero keys to most
/// destinations — and at least one shard ends up with zero output keys.
#[test]
fn zero_key_shards_are_legal_in_the_exchange() {
    let keys = vec![0xDEAD_BEEF_u64; 30_000];
    let mut sorted = keys.clone();
    let report = exchange_sorter(4).sort(&mut sorted);
    assert_eq!(sorted, keys, "constant input is already sorted");
    assert_eq!(report.shards.iter().map(|s| s.n).sum::<u64>(), 30_000);
    assert!(
        report.shards.iter().any(|s| s.n == 0),
        "a constant input must starve at least one shard"
    );
    report.span_invariants().expect("monotone spans");

    // The empty edge cases hold too.
    let mut empty: Vec<u64> = Vec::new();
    let r = exchange_sorter(4).sort(&mut empty);
    assert!(empty.is_empty());
    assert_eq!(r.n, 0);
    let mut one = vec![42u64];
    exchange_sorter(8).sort(&mut one);
    assert_eq!(one, vec![42]);
}

/// `Auto` resolves through the cost model: on an 8-device NVLink mesh the
/// exchange wins; on a single device there is nothing to exchange.
#[test]
fn auto_strategy_is_equivalent_and_resolves_sensibly() {
    let keys = uniform_keys::<u64>(200_000, 31);
    let reference = KeyCodec::std_sorted(&keys);
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(50_000, 250_000_000));

    let mut on_mesh = keys.clone();
    let report = ShardedSorter::new(DevicePool::nvlink_mesh_cluster(8))
        .with_sorter(gpu.clone())
        .with_merge_threads(4)
        .with_recombine_strategy(RecombineStrategy::Auto)
        .sort(&mut on_mesh);
    assert_eq!(on_mesh, reference);
    assert_eq!(
        report.recombine,
        RecombineStrategy::PeerExchange,
        "an 8-device NVLink mesh must beat the host merge in the cost model"
    );

    let mut solo = keys;
    let report = ShardedSorter::new(DevicePool::nvlink_mesh_cluster(1))
        .with_sorter(gpu)
        .with_recombine_strategy(RecombineStrategy::Auto)
        .sort(&mut solo);
    assert_eq!(solo, reference);
    assert_eq!(report.recombine, RecombineStrategy::HostMerge);
}

/// FNV-1a over every key's radix bytes, then every value's bytes: one
/// number that changes if any key or any value moves.
fn fingerprint<K: SortKey>(keys: &[K], vals: &[u32]) -> u64 {
    let key_bytes = keys.iter().flat_map(|k| k.to_radix().to_le_bytes());
    let val_bytes = vals.iter().flat_map(|v| v.to_le_bytes());
    key_bytes
        .chain(val_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Fault-free host-merge pair sort of `keys` with their row ids on `p`
/// PCIe Titans, host executor and merge on `workers` threads.
fn golden_pair_sort<K: SortKey>(
    keys: &[K],
    p: usize,
    workers: usize,
) -> (Vec<K>, Vec<u32>, ShardedReport) {
    let cfg = SortConfig::for_widths(K::BYTES, 4).scaled_for(40_000, 250_000_000);
    let sorter = ShardedSorter::new(DevicePool::titan_cluster(p))
        .with_sorter(HybridRadixSorter::new(cfg))
        .with_host_executor(Executor::with_workers(workers))
        .with_merge_threads(workers)
        .with_recombine_strategy(RecombineStrategy::HostMerge);
    let (mut k, mut v) = (keys.to_vec(), (0..keys.len() as u32).collect());
    let report = sorter.sort_pairs(&mut k, &mut v);
    (k, v, report)
}

/// Zipf(0.75) `u64` keys (universe n/4) plus heavy runs of the two keys on
/// either side of every cut a first sort of the plain Zipf input chose, so
/// the largest duplicate runs sit at the shard boundaries.
fn zipf_heavy_at_cuts(n: usize, p: usize, seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = ZipfGenerator::new(0.75, (n / 4) as u64, seed).generate(n);
    let (_, _, probe) = golden_pair_sort(&keys, p, 1);
    for &cut in &probe.splitters.cuts {
        for k in [cut - 1, cut] {
            keys.extend(std::iter::repeat_n(k, n / 32));
        }
    }
    // Spread the heavy runs through the input instead of leaving them at
    // the tail.
    let len = keys.len();
    for i in 0..len {
        keys.swap(i, (i * 7_919) % len);
    }
    keys
}

/// Every boundary between two shards of `report` has a run of at least
/// `heavy` equal keys on one side of it in the sorted output `k`.
fn assert_heavy_at_boundaries(k: &[u64], report: &ShardedReport, heavy: usize) {
    let mut at = 0;
    for s in &report.shards[..report.shards.len() - 1] {
        at += s.n as usize;
        let run = |x: u64| k.partition_point(|&y| y <= x) - k.partition_point(|&y| y < x);
        assert!(
            run(k[at - 1]).max(run(k[at])) >= heavy,
            "no heavy run next to the boundary at {at}"
        );
    }
}

/// Golden byte-identity of fault-free `HostMerge` pair sorts: the keys and
/// row ids of every output must hash to the pinned fingerprint, for every
/// pool size and host worker count.  The fingerprints pin the exact order
/// of equal keys, so any recombination change that moves a single value
/// — not only one that breaks sortedness — fails here.
#[test]
fn host_merge_pair_outputs_match_golden_fingerprints() {
    const GOLDEN: [(&str, usize, u64); 7] = [
        ("zipf-u64", 2, 0x0d29_397f_1b5e_2073),
        ("zipf-u64", 3, 0x2061_10be_c4a7_6453),
        ("zipf-u64", 4, 0xfec7_2360_f3f5_445f),
        ("uniform-u32", 2, 0x578c_2982_0813_c191),
        ("uniform-u32", 3, 0x578c_2982_0813_c191),
        ("uniform-u32", 4, 0x578c_2982_0813_c191),
        ("tiny-u64", 4, 0x98c3_c911_1ca5_2f31),
    ];
    for (case, p, expected) in GOLDEN {
        for workers in [1usize, 2, 7] {
            let got = match case {
                "zipf-u64" => {
                    let keys = zipf_heavy_at_cuts(48_000, p, 2017);
                    let (k, v, report) = golden_pair_sort(&keys, p, workers);
                    assert_eq!(k, KeyCodec::std_sorted(&keys), "{case} p={p}");
                    assert_heavy_at_boundaries(&k, &report, 48_000 / 32);
                    fingerprint(&k, &v)
                }
                "uniform-u32" => {
                    let keys = uniform_keys::<u32>(40_000, 514);
                    let (k, v, _) = golden_pair_sort(&keys, p, workers);
                    assert_eq!(k, KeyCodec::std_sorted(&keys), "{case} p={p}");
                    fingerprint(&k, &v)
                }
                _ => {
                    let keys = vec![7u64 << 40, 3, 7 << 40, 1 << 63, 3];
                    let (k, v, report) = golden_pair_sort(&keys, p, workers);
                    assert!(
                        report.shards.iter().any(|s| s.n == 0),
                        "the tiny input must leave a shard empty"
                    );
                    assert_eq!(k, KeyCodec::std_sorted(&keys), "{case} p={p}");
                    fingerprint(&k, &v)
                }
            };
            assert_eq!(got, expected, "{case} p={p} workers={workers}");
        }
    }
}
