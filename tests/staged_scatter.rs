//! Equivalence suite for the write-combining scatter: every staging-line
//! size must produce byte-identical output to the direct scatter and to
//! `std` sorting — across workloads (uniform / zipf / sorted /
//! duplicate-heavy), shapes (key-only and pairs), worker counts, and line
//! sizes, including lines that do not divide block or bucket populations.
//!
//! The scatter arm follows from the configuration: a line that holds at
//! least two keys stages, a line that holds a single key writes each key
//! directly.  The direct arm, run sequentially, is the reference.  The
//! "toggle corners" the test names refer to are these line sizes.

use hybrid_radix_sort::hrs_core::{Executor, HybridRadixSorter, SortConfig};
use hybrid_radix_sort::workloads::{pairs::verify_indexed_pair_sort, Distribution, KeyCodec};
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// A configuration small enough that moderate inputs hit multiple passes,
/// partial staging lines and local sorts, with a caller-chosen line size.
fn lined_config(line_bytes: usize) -> SortConfig {
    let mut cfg = SortConfig::keys_32();
    cfg.local_sort_threshold = 120;
    cfg.merge_threshold = 41;
    cfg.keys_per_block = 96;
    cfg.local_sort_classes = SortConfig::default_classes(120);
    cfg.scatter_line_bytes = line_bytes;
    cfg
}

/// Odd and even line sizes; for u32 keys these yield 1 (the direct arm),
/// 2, 6, 15, 16 and 25 keys per line, so bucket tails regularly end
/// mid-line and drain through the partial-flush path.
const LINE_BYTES: [usize; 6] = [3, 8, 24, 63, 64, 100];

/// A line too narrow for a second u32 key: the direct scatter arm.
const DIRECT_LINE_BYTES: usize = LINE_BYTES[0];

/// The two scatter arms at the default block sizes: direct, and staged on
/// the default 64-byte line.
const ARMS: [(&str, usize); 2] = [("direct", DIRECT_LINE_BYTES), ("staged", 64)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every line size (the direct arm and five staged ones) sorts like
    /// `std`.
    #[test]
    fn all_toggle_corners_match_std_for_u32_keys(
        keys in proptest::collection::vec(any::<u32>(), 0..3500),
        workers_idx in 0usize..3,
    ) {
        let expected = KeyCodec::std_sorted(&keys);
        for line_bytes in LINE_BYTES {
            let mut k = keys.clone();
            HybridRadixSorter::new(lined_config(line_bytes))
                .with_executor(Executor::with_workers(WORKER_COUNTS[workers_idx]))
                .sort(&mut k);
            prop_assert_eq!(&k, &expected, "line {}", line_bytes);
        }
    }

    /// Every line size reproduces the sequential direct-arm run byte for
    /// byte.
    #[test]
    fn all_toggle_corners_match_the_sequential_baseline_for_pairs(
        keys in proptest::collection::vec(any::<u32>(), 0..2500),
        workers_idx in 0usize..3,
    ) {
        let n = keys.len();
        let values: Vec<u32> = (0..n as u32).collect();

        // The sequential direct-arm run is the reference every line size
        // must match byte for byte.
        let mut base_keys = keys.clone();
        let mut base_vals = values.clone();
        HybridRadixSorter::new(lined_config(DIRECT_LINE_BYTES))
            .with_executor(Executor::Sequential)
            .sort_pairs(&mut base_keys, &mut base_vals);
        prop_assert!(verify_indexed_pair_sort(&keys, &base_keys, &base_vals));

        for line_bytes in LINE_BYTES {
            let mut k = keys.clone();
            let mut v = values.clone();
            HybridRadixSorter::new(lined_config(line_bytes))
                .with_executor(Executor::with_workers(WORKER_COUNTS[workers_idx]))
                .sort_pairs(&mut k, &mut v);
            prop_assert_eq!(&k, &base_keys, "line {}", line_bytes);
            prop_assert_eq!(&v, &base_vals, "line {}", line_bytes);
        }
    }
}

/// Both scatter arms sort every workload, shape and worker count like
/// `std`.
#[test]
fn workload_matrix_is_equivalent_across_all_toggles() {
    let n = 30_000usize;
    let workloads: [(&str, Distribution); 4] = [
        ("uniform", Distribution::Uniform),
        ("zipf", Distribution::paper_zipf(n as u64 / 4)),
        ("sorted", Distribution::Sorted),
        // A tiny universe makes every digit bucket duplicate-heavy.
        ("dup-heavy", Distribution::paper_zipf(64)),
    ];
    for (wname, dist) in workloads {
        let keys: Vec<u32> = dist.generate(n, 0x5EED);
        let expected = KeyCodec::std_sorted(&keys);
        for workers in WORKER_COUNTS {
            for (arm, line_bytes) in ARMS {
                let ctx = format!("{wname}/{arm}/workers={workers}");
                let mut cfg = SortConfig::keys_32().scaled_for(n, 500_000_000);
                cfg.scatter_line_bytes = line_bytes;
                let mut k = keys.clone();
                HybridRadixSorter::new(cfg)
                    .with_executor(Executor::with_workers(workers))
                    .sort(&mut k);
                assert_eq!(k, expected, "{ctx} (keys)");

                let mut cfg = SortConfig::pairs_32_32().scaled_for(n, 500_000_000);
                cfg.scatter_line_bytes = line_bytes;
                let mut k = keys.clone();
                let mut v: Vec<u32> = (0..n as u32).collect();
                HybridRadixSorter::new(cfg)
                    .with_executor(Executor::with_workers(workers))
                    .sort_pairs(&mut k, &mut v);
                assert_eq!(k, expected, "{ctx} (pair keys)");
                assert!(
                    verify_indexed_pair_sort(&keys, &k, &v),
                    "{ctx} (pair values)"
                );
            }
        }
    }
}

#[test]
fn wide_keys_survive_odd_staging_lines() {
    // u64 keys with line sizes that leave 0, 1 or a prime number of keys
    // per line; the narrower final digit of 64-bit configs also exercises
    // the staging segment's max-radix capacity sizing.
    let keys: Vec<u64> = Distribution::Uniform.generate(50_000, 77);
    let expected = KeyCodec::std_sorted(&keys);
    for line_bytes in [7usize, 24, 56, 64] {
        let mut cfg = SortConfig::keys_64().scaled_for(50_000, 250_000_000);
        cfg.scatter_line_bytes = line_bytes;
        for workers in WORKER_COUNTS {
            let mut k = keys.clone();
            HybridRadixSorter::new(cfg.clone())
                .with_executor(Executor::with_workers(workers))
                .sort(&mut k);
            assert_eq!(k, expected, "line {line_bytes} workers {workers}");
        }
    }
}
