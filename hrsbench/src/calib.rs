//! Same-run calibration: the baselines every cross-machine ratio is over.

use crate::THREADS;
use std::time::Instant;

/// Last-level cache size from sysfs; 32 MiB if unreadable.
pub fn llc_bytes() -> usize {
    let path = "/sys/devices/system/cpu/cpu0/cache/index3/size";
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            let s = s.trim();
            let (digits, scale) = match s.strip_suffix('K') {
                Some(d) => (d, 1 << 10),
                None => match s.strip_suffix('M') {
                    Some(d) => (d, 1 << 20),
                    None => (s, 1),
                },
            };
            digits.parse::<usize>().ok().map(|v| v * scale)
        })
        .unwrap_or(32 << 20)
}

/// Seconds `sort_unstable_by_key` takes on one thread over the records
/// `(keys[i], i)` — the workload's own (key, row id) records.
pub fn std_sort_pairs_secs<K: Copy + Ord>(keys: &[K]) -> f64 {
    let mut records: Vec<(K, u32)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u32))
        .collect();
    let start = Instant::now();
    records.sort_unstable_by_key(|r| r.0);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&records);
    secs
}

/// Seconds `sort_unstable` takes on one thread over a copy of `keys`.
pub fn std_sort_keys_secs<K: Copy + Ord>(keys: &[K]) -> f64 {
    let mut copy = keys.to_vec();
    let start = Instant::now();
    copy.sort_unstable();
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&copy);
    secs
}

/// Copy bandwidth over a source of 4 × the LLC (4 MiB for a smoke run), on
/// [`THREADS`] threads, counting bytes read plus bytes written, in GB/s
/// (10^9).  Median of three copies after one that faults the pages in.
pub fn copy_gbs(smoke: bool) -> f64 {
    let bytes = if smoke { 4 << 20 } else { 4 * llc_bytes() };
    let words = bytes / 8;
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    let chunk = words.div_ceil(THREADS);
    let mut times = Vec::new();
    for _ in 0..4 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(c));
            }
        });
        times.push(start.elapsed().as_secs_f64());
        std::hint::black_box(&dst);
    }
    let secs = crate::stats::median(&times[1..]).expect("three timed copies");
    2.0 * (words * 8) as f64 / secs / 1e9
}
