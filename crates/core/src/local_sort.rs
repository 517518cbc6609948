//! Local sorts of small buckets (Section 4.2).
//!
//! A bucket of at most ∂̂ keys is sorted entirely in on-chip shared memory:
//! it is read from device memory once, sorted with CUB's `BlockRadixSort`,
//! and written once to the buffer that will hold the final sorted output —
//! no matter how many internal passes the local sort needs.  This is where
//! the hybrid sort saves the bulk of its memory traffic for friendly
//! distributions.
//!
//! The CPU analogue of `BlockRadixSort` is [`radix_sort_bucket`], an LSD
//! radix sort on 8-bit digits of the keys' radix representation.  It skips
//! every digit on which all keys of the bucket agree (the digits the
//! counting passes already partitioned, among others) and ping-pongs the
//! remaining digit passes between the bucket's range and a per-worker
//! scratch segment parked in the sorter's arena.  Key-only buckets of at
//! most [`NETWORK_SORT_LIMIT`] keys use a sorting network instead (the
//! paper's remark that the smallest configurations can use one).
//!
//! To avoid over-provisioning threads for tiny buckets, buckets are grouped
//! into *size classes*; each class is a separate kernel launch with just
//! enough threads (and an appropriately specialised sorting algorithm) for
//! its maximum bucket size.  The ablation's "single local sort config"
//! variant instead schedules every bucket on the ∂̂-sized configuration.
//!
//! Like the GPU, which launches the local sorts of a pass as independent
//! thread blocks, the [`Executor`] distributes buckets over its workers:
//! every bucket occupies a distinct range of the destination buffer, so
//! workers sort concurrently without synchronisation.

use crate::bucket::LocalBucket;
use crate::config::SortConfig;
use crate::exec::{ExecProbe, Executor, SharedMut};
use crate::opts::Optimizations;
use crate::report::LocalSortStats;
use crate::sorting_network::network_sort;
use workloads::pairs::SortValue;
use workloads::SortKey;

/// Key-only buckets at most this large are sorted with a comparison network
/// instead of the radix sort (mirrors the paper's remark that the smallest
/// configurations can use a sorting network).
pub const NETWORK_SORT_LIMIT: usize = 32;

/// Width in bits of the local radix sort's digits.
const LOCAL_DIGIT_BITS: u32 = 8;
/// Number of values one local-sort digit takes.
const LOCAL_RADIX: usize = 1 << LOCAL_DIGIT_BITS;
/// Digits of the widest (64-bit) radix representation.
const MAX_LOCAL_DIGITS: usize = (u64::BITS / LOCAL_DIGIT_BITS) as usize;

/// Sorts all `buckets` whose keys currently live in buffer `src` (at their
/// respective offsets) and places the sorted runs at the same offsets in
/// buffer `dst`.  `src` and `dst` may be the same buffer, in which case the
/// sort happens in place.  Buckets are distributed over the executor's
/// workers; the per-bucket statistics are accumulated on the calling
/// thread.
///
/// `scratch_keys`/`scratch_vals` are the arena-owned ping-pong segments of
/// the radix sort: they are grown to one ∂̂-key segment per worker and keep
/// their capacity across calls.
#[allow(clippy::too_many_arguments)]
pub fn run_local_sorts<K: SortKey, V: SortValue>(
    buffers_keys: &mut [Vec<K>; 2],
    buffers_vals: &mut [Vec<V>; 2],
    src: usize,
    dst: usize,
    buckets: &[LocalBucket],
    config: &SortConfig,
    opts: &Optimizations,
    exec: &Executor,
    probe: Option<&ExecProbe>,
    scratch_keys: &mut Vec<K>,
    scratch_vals: &mut Vec<V>,
    stats: &mut LocalSortStats,
) {
    // Bookkeeping first (cheap, O(1) per bucket): size classes, merge and
    // provisioning statistics.
    let mut classes_seen = [0usize; 64];
    let mut n_classes = 0usize;
    let mut largest = 0usize;
    for bucket in buckets {
        let class = config.class_for(bucket.len, !opts.multiple_local_sort_configs);
        if !classes_seen[..n_classes].contains(&class.max_keys) && n_classes < classes_seen.len() {
            classes_seen[n_classes] = class.max_keys;
            n_classes += 1;
        }
        stats.invocations += 1;
        stats.n_keys += bucket.len as u64;
        stats.provisioned_keys += class.max_keys as u64;
        if bucket.is_merged() {
            stats.merged_buckets += 1;
        }
        largest = largest.max(bucket.len);
    }
    stats.largest_bucket = stats.largest_bucket.max(largest as u64);
    stats.classes_used = stats.classes_used.max(n_classes as u64);

    if buckets.is_empty() {
        return;
    }

    // One dynamically scheduled task per bucket (so a handful of
    // near-threshold buckets cannot strand a worker behind a chunk of
    // them), with one scratch segment per *worker*.  A segment holds the
    // largest bucket any input of this size can route here, so the warmed
    // scratch is a fixed point whatever the keys.
    let values_present = std::mem::size_of::<V>() != 0;
    let segment = config
        .local_sort_threshold
        .min(buffers_keys[dst].len())
        .max(largest);
    let value_segment = if values_present { segment } else { 0 };
    let scratch_len = exec.workers() * segment;
    if scratch_keys.len() < scratch_len {
        scratch_keys.resize(scratch_len, K::default());
    }
    if values_present && scratch_vals.len() < scratch_len {
        scratch_vals.resize(scratch_len, V::default());
    }
    let scratch_keys = SharedMut::new(scratch_keys.as_mut_slice());
    let scratch_vals = SharedMut::new(scratch_vals.as_mut_slice());
    // Zero-sized values are never touched, so their views stay empty.
    let value_range = |bucket: &LocalBucket| {
        if values_present {
            (bucket.offset, bucket.len)
        } else {
            (0, 0)
        }
    };

    if src == dst {
        let keys = SharedMut::new(buffers_keys[dst].as_mut_slice());
        let vals = SharedMut::new(buffers_vals[dst].as_mut_slice());
        exec.for_each_task_probed(buckets.len(), probe, |b, worker| {
            let bucket = &buckets[b];
            let (voff, vlen) = value_range(bucket);
            // SAFETY: bucket ranges are disjoint across tasks, and scratch
            // segment `worker` belongs to this thread only.
            unsafe {
                sort_bucket(
                    None,
                    keys.slice_mut(bucket.offset, bucket.len),
                    vals.slice_mut(voff, vlen),
                    scratch_keys.slice_mut(worker * segment, bucket.len),
                    scratch_vals.slice_mut(worker * value_segment, vlen),
                );
            }
        });
    } else {
        let (src_keys, dst_keys) = split_src_dst(buffers_keys, src, dst);
        let (src_vals, dst_vals) = split_src_dst(buffers_vals, src, dst);
        let dst_keys = SharedMut::new(dst_keys);
        let dst_vals = SharedMut::new(dst_vals);
        exec.for_each_task_probed(buckets.len(), probe, |b, worker| {
            let bucket = &buckets[b];
            let (voff, vlen) = value_range(bucket);
            let input = (
                &src_keys[bucket.offset..bucket.offset + bucket.len],
                &src_vals[voff..voff + vlen],
            );
            // SAFETY: bucket ranges are disjoint across tasks, and scratch
            // segment `worker` belongs to this thread only.
            unsafe {
                sort_bucket(
                    Some(input),
                    dst_keys.slice_mut(bucket.offset, bucket.len),
                    dst_vals.slice_mut(voff, vlen),
                    scratch_keys.slice_mut(worker * segment, bucket.len),
                    scratch_vals.slice_mut(worker * value_segment, vlen),
                );
            }
        });
    }
}

/// Splits the double buffer into the source (shared) and destination
/// (mutable) halves.  `src` and `dst` must differ.
fn split_src_dst<T>(bufs: &mut [Vec<T>; 2], src: usize, dst: usize) -> (&[T], &mut [T]) {
    assert_ne!(src, dst);
    let (a, b) = bufs.split_at_mut(1);
    if src == 0 {
        (a[0].as_slice(), b[0].as_mut_slice())
    } else {
        (b[0].as_slice(), a[0].as_mut_slice())
    }
}

/// Sorts one bucket into `keys`/`vals`, choosing the algorithm by size
/// exactly as the local-sort configurations would; see
/// [`radix_sort_bucket`] for the arguments.
fn sort_bucket<K: SortKey, V: SortValue>(
    src: Option<(&[K], &[V])>,
    keys: &mut [K],
    vals: &mut [V],
    scratch_keys: &mut [K],
    scratch_vals: &mut [V],
) {
    if std::mem::size_of::<V>() == 0 && keys.len() <= NETWORK_SORT_LIMIT {
        if let Some((src_keys, _)) = src {
            keys.copy_from_slice(src_keys);
        }
        network_sort_keys(keys);
    } else {
        radix_sort_bucket(src, keys, vals, scratch_keys, scratch_vals);
    }
}

/// Sorts a tiny key-only bucket with a comparison network on the radix
/// representation, staged in a fixed register-sized buffer.
fn network_sort_keys<K: SortKey>(keys: &mut [K]) {
    let mut encoded = [0u64; NETWORK_SORT_LIMIT];
    let m = keys.len().min(NETWORK_SORT_LIMIT);
    for (slot, k) in encoded[..m].iter_mut().zip(keys.iter()) {
        *slot = k.to_radix();
    }
    network_sort(&mut encoded[..m]);
    for (slot, &bits) in keys.iter_mut().zip(&encoded[..m]) {
        *slot = K::from_radix(bits);
    }
}

/// LSD radix sort of one bucket by `to_radix()` on 8-bit digits: the CPU
/// analogue of the in-shared-memory `BlockRadixSort`.
///
/// The bucket is read from `src` when given (and left there untouched), or
/// sorted in place in `keys`/`vals` otherwise; either way the result lands
/// in `keys`/`vals`.  Every digit on which all keys agree is skipped (a
/// constant bucket needs no pass at all); the others ping-pong between
/// `keys`/`vals` and `scratch_keys`/`scratch_vals`, which must hold at
/// least `keys.len()` elements.  The first pass writes wherever makes the
/// last pass land in `keys`, so only an in-place sort with an odd number of
/// digit passes copies the bucket once more.
///
/// Values move with their keys unless `V` is zero-sized, in which case the
/// value slices are never touched and may be empty.
pub fn radix_sort_bucket<K: SortKey, V: SortValue>(
    src: Option<(&[K], &[V])>,
    keys: &mut [K],
    vals: &mut [V],
    scratch_keys: &mut [K],
    scratch_vals: &mut [V],
) {
    let n = keys.len();
    let values_present = std::mem::size_of::<V>() != 0;
    let input = src.map_or(&*keys, |(k, _)| k);
    let (shift_buf, n_shifts) = varying_digits(input);
    let shifts = &shift_buf[..n_shifts];
    let Some(&first_shift) = shifts.first() else {
        if let Some((src_keys, src_vals)) = src {
            keys.copy_from_slice(src_keys);
            if values_present {
                vals.copy_from_slice(src_vals);
            }
        }
        return;
    };
    // Each pass counts the next pass's digit while it moves the keys, so
    // only the first digit needs a sweep of its own.
    let mut counts = [0u32; LOCAL_RADIX];
    for k in input {
        counts[local_digit(k.to_radix(), first_shift)] += 1;
    }
    let scratch_keys = &mut scratch_keys[..n];
    let scratch_vals = if values_present {
        &mut scratch_vals[..n]
    } else {
        scratch_vals
    };

    // The last pass must write `keys`, so with an odd number of passes the
    // first one does.  `in_keys` tracks where the bucket sits before the
    // next pass.
    let odd = shifts.len() % 2 == 1;
    let mut passes = shifts
        .iter()
        .enumerate()
        .map(|(i, &shift)| (shift, shifts.get(i + 1).copied()));
    let mut in_keys = !odd;
    match src {
        Some(from) => {
            // The first pass reads the source directly.
            if let Some(pass) = passes.next() {
                if odd {
                    scatter_digit(from, (&mut *keys, &mut *vals), pass, &mut counts);
                } else {
                    let to = (&mut *scratch_keys, &mut *scratch_vals);
                    scatter_digit(from, to, pass, &mut counts);
                }
            }
            in_keys = odd;
        }
        None if odd => {
            // In place, the first pass cannot overwrite its own input.
            scratch_keys.copy_from_slice(keys);
            if values_present {
                scratch_vals.copy_from_slice(vals);
            }
        }
        None => {}
    }
    for pass in passes {
        if in_keys {
            let to = (&mut *scratch_keys, &mut *scratch_vals);
            scatter_digit((&*keys, &*vals), to, pass, &mut counts);
        } else {
            let to = (&mut *keys, &mut *vals);
            scatter_digit((&*scratch_keys, &*scratch_vals), to, pass, &mut counts);
        }
        in_keys = !in_keys;
    }
}

/// Shifts of the local-sort digits (least significant first) on which the
/// keys do not all agree, i.e. the nonzero digits of the OR of
/// `key ^ first`, and how many there are.
fn varying_digits<K: SortKey>(keys: &[K]) -> ([u32; MAX_LOCAL_DIGITS], usize) {
    let first = keys.first().map_or(0, |k| k.to_radix());
    let varying = keys
        .iter()
        .fold(0u64, |acc, k| acc | (k.to_radix() ^ first));
    let mut shifts = [0u32; MAX_LOCAL_DIGITS];
    let mut len = 0;
    let varying_shifts = (0..K::BITS)
        .step_by(LOCAL_DIGIT_BITS as usize)
        .filter(|&shift| local_digit(varying, shift) != 0);
    for (slot, shift) in shifts.iter_mut().zip(varying_shifts) {
        *slot = shift;
        len += 1;
    }
    (shifts, len)
}

#[inline]
fn local_digit(bits: u64, shift: u32) -> usize {
    ((bits >> shift) as usize) & (LOCAL_RADIX - 1)
}

/// One stable counting-sort pass from `src` to `dst` on the digit at
/// `shift`, given that digit's histogram of the keys in `counts`.  When a
/// `next_shift` follows, `counts` is refilled with the histogram of that
/// digit on the way; otherwise it is left as it was.
fn scatter_digit<K: SortKey, V: SortValue>(
    src: (&[K], &[V]),
    dst: (&mut [K], &mut [V]),
    (shift, next_shift): (u32, Option<u32>),
    counts: &mut [u32; LOCAL_RADIX],
) {
    let mut offsets = [0usize; LOCAL_RADIX];
    let mut sum = 0usize;
    for (offset, &count) in offsets.iter_mut().zip(counts.iter()) {
        *offset = sum;
        sum += count as usize;
    }
    match next_shift {
        Some(next) => {
            *counts = [0; LOCAL_RADIX];
            move_by_digit(src, dst, shift, &mut offsets, |bits| {
                counts[local_digit(bits, next)] += 1;
            });
        }
        None => move_by_digit(src, dst, shift, &mut offsets, |_| {}),
    }
}

/// The key (and value) moves of [`scatter_digit`]: sends each key to the
/// next free slot of its digit in `offsets` and hands its radix bits to
/// `visit`.
#[inline(always)]
fn move_by_digit<K: SortKey, V: SortValue>(
    (src_keys, src_vals): (&[K], &[V]),
    (dst_keys, dst_vals): (&mut [K], &mut [V]),
    shift: u32,
    offsets: &mut [usize; LOCAL_RADIX],
    mut visit: impl FnMut(u64),
) {
    if std::mem::size_of::<V>() == 0 {
        for &k in src_keys {
            let bits = k.to_radix();
            let slot = &mut offsets[local_digit(bits, shift)];
            dst_keys[*slot] = k;
            *slot += 1;
            visit(bits);
        }
    } else {
        for (&k, &v) in src_keys.iter().zip(src_vals) {
            let bits = k.to_radix();
            let slot = &mut offsets[local_digit(bits, shift)];
            dst_keys[*slot] = k;
            dst_vals[*slot] = v;
            *slot += 1;
            visit(bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{uniform_keys, KeyCodec};

    fn bucket(offset: usize, len: usize) -> LocalBucket {
        LocalBucket {
            id: 0,
            offset,
            len,
            merged_from: 1,
            sorted_passes: 1,
        }
    }

    #[test]
    fn sorts_buckets_into_the_destination_buffer() {
        let keys = uniform_keys::<u64>(1_000, 1);
        let mut bufs = [keys.clone(), vec![0u64; 1_000]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let buckets = vec![bucket(0, 400), bucket(400, 600)];
        let mut stats = LocalSortStats::default();
        run_local_sorts(
            &mut bufs,
            &mut vals,
            0,
            1,
            &buckets,
            &SortConfig::keys_64(),
            &Optimizations::all_on(),
            &Executor::Sequential,
            None,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut stats,
        );
        assert!(bufs[1][..400].windows(2).all(|w| w[0] <= w[1]));
        assert!(bufs[1][400..].windows(2).all(|w| w[0] <= w[1]));
        assert!(workloads::stats::is_permutation_of(
            &keys[..400],
            &bufs[1][..400]
        ));
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.n_keys, 1_000);
        assert_eq!(stats.largest_bucket, 600);
    }

    #[test]
    fn threaded_executor_matches_sequential() {
        let keys = uniform_keys::<u64>(6_000, 7);
        let buckets: Vec<LocalBucket> = (0..30).map(|i| bucket(i * 200, 200)).collect();
        let mut expect = [keys.clone(), vec![0u64; 6_000]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let mut stats = LocalSortStats::default();
        run_local_sorts(
            &mut expect,
            &mut vals,
            0,
            1,
            &buckets,
            &SortConfig::keys_64(),
            &Optimizations::all_on(),
            &Executor::Sequential,
            None,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut stats,
        );
        for workers in [2usize, 7] {
            let mut got = [keys.clone(), vec![0u64; 6_000]];
            let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
            let mut stats = LocalSortStats::default();
            run_local_sorts(
                &mut got,
                &mut vals,
                0,
                1,
                &buckets,
                &SortConfig::keys_64(),
                &Optimizations::all_on(),
                &Executor::with_workers(workers),
                None,
                &mut Vec::new(),
                &mut Vec::new(),
                &mut stats,
            );
            assert_eq!(got[1], expect[1], "workers = {workers}");
        }
    }

    #[test]
    fn in_place_sort_when_src_equals_dst() {
        let keys = uniform_keys::<u32>(500, 2);
        let mut bufs = [keys.clone(), vec![0u32; 500]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let mut stats = LocalSortStats::default();
        run_local_sorts(
            &mut bufs,
            &mut vals,
            0,
            0,
            &[bucket(0, 500)],
            &SortConfig::keys_32(),
            &Optimizations::all_on(),
            &Executor::Sequential,
            None,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut stats,
        );
        assert_eq!(bufs[0], KeyCodec::std_sorted(&keys));
    }

    #[test]
    fn values_are_permuted_with_their_keys() {
        let keys = uniform_keys::<u32>(300, 3);
        let vals: Vec<u32> = (0..300).collect();
        let mut kbufs = [keys.clone(), vec![0u32; 300]];
        let mut vbufs = [vals, vec![0u32; 300]];
        let mut stats = LocalSortStats::default();
        run_local_sorts(
            &mut kbufs,
            &mut vbufs,
            0,
            1,
            &[bucket(0, 300)],
            &SortConfig::pairs_32_32(),
            &Optimizations::all_on(),
            &Executor::with_workers(2),
            None,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut stats,
        );
        assert!(workloads::pairs::verify_indexed_pair_sort(
            &keys, &kbufs[1], &vbufs[1]
        ));
    }

    #[test]
    fn provisioning_reflects_size_classes_and_the_single_config_ablation() {
        let keys = uniform_keys::<u32>(200, 4);
        let cfg = SortConfig::keys_32();
        let mut stats_multi = LocalSortStats::default();
        let mut bufs = [keys.clone(), vec![0u32; 200]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        run_local_sorts(
            &mut bufs,
            &mut vals,
            0,
            1,
            &[bucket(0, 100), bucket(100, 100)],
            &cfg,
            &Optimizations::all_on(),
            &Executor::Sequential,
            None,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut stats_multi,
        );
        // Two 100-key buckets fall into the [1,128] class.
        assert_eq!(stats_multi.provisioned_keys, 256);

        let mut stats_single = LocalSortStats::default();
        let mut bufs = [keys, vec![0u32; 200]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        run_local_sorts(
            &mut bufs,
            &mut vals,
            0,
            1,
            &[bucket(0, 100), bucket(100, 100)],
            &cfg,
            &Optimizations::single_local_sort_config(),
            &Executor::Sequential,
            None,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut stats_single,
        );
        // The single configuration provisions ∂̂ keys per bucket.
        assert_eq!(stats_single.provisioned_keys, 2 * 9_216);
    }

    #[test]
    fn merged_buckets_are_counted() {
        let keys = uniform_keys::<u32>(100, 5);
        let mut bufs = [keys, vec![0u32; 100]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let mut stats = LocalSortStats::default();
        let merged = LocalBucket {
            id: 1,
            offset: 0,
            len: 100,
            merged_from: 4,
            sorted_passes: 1,
        };
        run_local_sorts(
            &mut bufs,
            &mut vals,
            0,
            1,
            &[merged],
            &SortConfig::keys_32(),
            &Optimizations::all_on(),
            &Executor::Sequential,
            None,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut stats,
        );
        assert_eq!(stats.merged_buckets, 1);
    }

    #[test]
    fn shared_memory_sort_handles_all_sizes() {
        let mut scratch = vec![0u64; 5_000];
        for n in [0usize, 1, 2, 17, 32, 33, 100, 5_000] {
            let mut keys = uniform_keys::<u64>(n, 6);
            let expected = KeyCodec::std_sorted(&keys);
            sort_bucket::<u64, ()>(None, &mut keys, &mut [], &mut scratch, &mut []);
            assert_eq!(keys, expected, "n = {n}");
        }
        // Signed and float keys go through the codec.
        let mut keys: Vec<i32> = vec![5, -3, 0, -100, 77];
        sort_bucket::<i32, ()>(None, &mut keys, &mut [], &mut [0; 5], &mut []);
        assert_eq!(keys, vec![-100, -3, 0, 5, 77]);
        let mut keys: Vec<f32> = vec![2.5, -1.0, 0.0, -7.5];
        sort_bucket::<f32, ()>(None, &mut keys, &mut [], &mut [0.0; 4], &mut []);
        assert_eq!(keys, vec![-7.5, -1.0, 0.0, 2.5]);
    }

    /// Bucket sizes of the equivalence tests: empty, tiny, both sides of
    /// the network limit, and ∂̂ of the 32-bit key configuration.
    const SIZES: [usize; 7] = [0, 1, 2, 31, 32, 33, 9_216];

    fn radix_bits<K: SortKey>(keys: &[K]) -> Vec<u64> {
        keys.iter().map(|k| k.to_radix()).collect()
    }

    /// Back-to-back buckets of the given sizes.
    fn buckets_of(sizes: &[usize]) -> Vec<LocalBucket> {
        let mut offset = 0;
        sizes
            .iter()
            .map(|&len| {
                let b = bucket(offset, len);
                offset += len;
                b
            })
            .collect()
    }

    /// Runs the local sorts of `buckets` through the in-place arm
    /// (`src == dst`) or the copying arm and returns the destination
    /// buffers.
    fn local_sort<K: SortKey, V: SortValue>(
        keys: &[K],
        vals: &[V],
        buckets: &[LocalBucket],
        in_place: bool,
        workers: usize,
    ) -> (Vec<K>, Vec<V>) {
        let dst = if in_place { 0 } else { 1 };
        let mut kbufs = [keys.to_vec(), vec![K::default(); keys.len()]];
        let mut vbufs = [vals.to_vec(), vec![V::default(); vals.len()]];
        let exec = if workers == 1 {
            Executor::Sequential
        } else {
            Executor::with_workers(workers)
        };
        run_local_sorts(
            &mut kbufs,
            &mut vbufs,
            0,
            dst,
            buckets,
            &SortConfig::pairs_32_32(),
            &Optimizations::all_on(),
            &exec,
            None,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut LocalSortStats::default(),
        );
        let [k0, k1] = kbufs;
        let [v0, v1] = vbufs;
        if in_place {
            (k0, v0)
        } else {
            (k1, v1)
        }
    }

    /// Sorts `keys`, cut into `buckets`, as pairs with per-bucket row ids
    /// and as bare keys, through both arms at 1, 2 and 7 workers.  Every
    /// bucket must match the std order with its values following their
    /// keys, and every run must be byte-identical to the sequential one.
    fn check_equivalence<K: SortKey>(label: &str, keys: &[K], buckets: &[LocalBucket]) {
        let mut row_ids = vec![0u32; keys.len()];
        for b in buckets {
            for (i, v) in row_ids[b.offset..b.offset + b.len].iter_mut().enumerate() {
                *v = i as u32;
            }
        }
        for in_place in [true, false] {
            let case = format!("{label}, in_place = {in_place}");
            let (seq_keys, seq_vals) = local_sort(keys, &row_ids, buckets, in_place, 1);
            for b in buckets {
                let range = b.offset..b.offset + b.len;
                let expected = KeyCodec::std_sorted(&keys[range.clone()]);
                assert_eq!(
                    radix_bits(&seq_keys[range.clone()]),
                    radix_bits(&expected),
                    "{case}, bucket of {}",
                    b.len
                );
                assert!(
                    workloads::pairs::verify_indexed_pair_sort(
                        &keys[range.clone()],
                        &seq_keys[range.clone()],
                        &seq_vals[range],
                    ),
                    "{case}, bucket of {}",
                    b.len
                );
            }
            let (bare, _) = local_sort::<K, ()>(keys, &[], buckets, in_place, 1);
            assert_eq!(
                radix_bits(&bare),
                radix_bits(&seq_keys),
                "{case}, keys only"
            );
            for workers in [2usize, 7] {
                let (k, v) = local_sort(keys, &row_ids, buckets, in_place, workers);
                assert_eq!(radix_bits(&k), radix_bits(&seq_keys), "{case}, {workers}");
                assert_eq!(v, seq_vals, "{case}, workers = {workers}");
                let (bare, _) = local_sort::<K, ()>(keys, &[], buckets, in_place, workers);
                assert_eq!(
                    radix_bits(&bare),
                    radix_bits(&seq_keys),
                    "{case}, {workers}"
                );
            }
        }
    }

    fn check_every_size<K: SortKey>(label: &str) {
        let n: usize = SIZES.iter().sum();
        check_equivalence(label, &uniform_keys::<K>(n, 6), &buckets_of(&SIZES));
    }

    #[test]
    fn radix_local_sort_matches_std_for_every_key_type() {
        check_every_size::<u32>("u32");
        check_every_size::<u64>("u64");
        check_every_size::<i32>("i32");
        check_every_size::<i64>("i64");
        check_every_size::<f32>("f32");
        check_every_size::<f64>("f64");
    }

    #[test]
    fn float_buckets_follow_the_total_order() {
        let keys: Vec<f64> = vec![2.5, -0.0, f64::INFINITY, -7.5, 0.0, -1.0, 1e-300, -1e300];
        let mut expected = keys.clone();
        expected.sort_by(f64::total_cmp);
        let (sorted, _) = local_sort::<f64, ()>(&keys, &[], &buckets_of(&[keys.len()]), true, 1);
        assert_eq!(radix_bits(&sorted), radix_bits(&expected));
        let keys: Vec<i32> = vec![5, -3, 0, -100, 77, i32::MIN, i32::MAX];
        let mut expected = keys.clone();
        expected.sort_unstable();
        let (sorted, _) = local_sort::<i32, ()>(&keys, &[], &buckets_of(&[keys.len()]), false, 1);
        assert_eq!(sorted, expected);
    }

    #[test]
    fn constant_bucket_needs_no_digit_pass() {
        let keys = vec![0xDEAD_BEEF_u64; 1_000];
        let (shifts, len) = varying_digits(&keys);
        assert_eq!(len, 0, "{shifts:?}");
        check_equivalence("constant", &keys, &buckets_of(&[1_000]));
        // One differing key brings back exactly the digits it differs in.
        let mut keys = keys;
        keys[500] ^= 0x0100_0000_0000_0001;
        let (shifts, len) = varying_digits(&keys);
        assert_eq!(&shifts[..len], &[0, 56]);
        check_equivalence("one outlier", &keys, &buckets_of(&[1_000]));
    }

    #[test]
    fn merged_bucket_differing_in_the_last_partitioned_digit() {
        // Two counting passes have partitioned the top two bytes; the merge
        // joined four sub-buckets that share byte 3 but differ in byte 2,
        // laid out in sub-bucket order.
        let mut keys = Vec::new();
        for (i, digit) in [3u32, 7, 200, 201].into_iter().enumerate() {
            let low = uniform_keys::<u32>(700, 20 + i as u64);
            keys.extend(
                low.iter()
                    .map(|&k| 0xAB00_0000 | (digit << 16) | (k & 0xFFFF)),
            );
        }
        let merged = LocalBucket {
            id: 9,
            offset: 0,
            len: keys.len(),
            merged_from: 4,
            sorted_passes: 2,
        };
        let (shifts, len) = varying_digits(&keys);
        assert_eq!(&shifts[..len], &[0, 8, 16]);
        check_equivalence("merged", &keys, &[merged]);
    }
}
