//! The closed loop shared by `bulk-pairs` and `sharded-skew`: one caller
//! sorts a fresh copy of one (key, row id) input again and again, and every
//! call passes the gate.

use crate::check::{check_pairs, Fingerprint};
use crate::report::{Kind, Outcome};
use crate::stats::median;
use std::time::{Duration, Instant};
use workloads::SortKey;

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed calls a window runs at least.
const MIN_OPS: usize = 3;

/// A pair input with `values[i] == i`, its fingerprint, and the work
/// buffers each call sorts.
pub struct PairInput<K> {
    pub keys: Vec<K>,
    values: Vec<u32>,
    fp: Fingerprint,
    pub work_keys: Vec<K>,
    pub work_values: Vec<u32>,
}

impl<K: SortKey> PairInput<K> {
    pub fn new(keys: Vec<K>) -> Self {
        let values: Vec<u32> = (0..keys.len() as u32).collect();
        let fp = Fingerprint::of(&keys, &values);
        PairInput {
            work_keys: keys.clone(),
            work_values: values.clone(),
            keys,
            values,
            fp,
        }
    }

    /// Restores the work buffers (untimed), times `f` on them, then gates
    /// the output.
    pub fn call<R>(
        &mut self,
        out: &mut Outcome,
        f: impl FnOnce(&mut Vec<K>, &mut Vec<u32>) -> R,
    ) -> (Instant, Instant, R) {
        self.work_keys.clear();
        self.work_keys.extend_from_slice(&self.keys);
        self.work_values.clear();
        self.work_values.extend_from_slice(&self.values);
        let start = Instant::now();
        let r = f(&mut self.work_keys, &mut self.work_values);
        let end = Instant::now();
        let verdict = check_pairs(&self.keys, self.fp, &self.work_keys, &self.work_values);
        out.gate("sort call", verdict);
        (start, end, r)
    }

    /// Calls until `window` has passed, and at least [`MIN_OPS`] times;
    /// hands each call's index, clock and result to `on_op` and returns
    /// the calls' wall times in seconds.
    pub fn closed_loop<R>(
        &mut self,
        window: Duration,
        out: &mut Outcome,
        mut call: impl FnMut(&mut Vec<K>, &mut Vec<u32>) -> R,
        mut on_op: impl FnMut(u64, Instant, Instant, &R),
    ) -> Vec<f64> {
        let began = Instant::now();
        let mut times = Vec::new();
        while times.len() < MIN_OPS || began.elapsed() < window {
            let (start, end, r) = self.call(out, &mut call);
            times.push((end - start).as_secs_f64());
            on_op(times.len() as u64 - 1, start, end, &r);
        }
        times
    }

    /// Times [`SETUPS`] cold set-ups — constructing the entry object with
    /// `make` through the end of its first call — and returns the times and
    /// the last object, warm.  Each object is dropped before the next is
    /// made, so every set-up starts cold.
    pub fn cold_setups<S>(
        &mut self,
        out: &mut Outcome,
        make: impl Fn() -> S,
        mut call: impl FnMut(&S, &mut Vec<K>, &mut Vec<u32>),
    ) -> (Vec<f64>, S) {
        let mut times = Vec::new();
        let mut warm = None;
        for _ in 0..SETUPS {
            drop(warm.take());
            let (start, end, s) = self.call(out, |k, v| {
                let s = make();
                call(&s, k, v);
                s
            });
            times.push((end - start).as_secs_f64());
            warm = Some(s);
        }
        (times, warm.expect("set-ups ran"))
    }
}

/// The closed-loop end-to-end metrics over per-call wall times and cold
/// set-up times, for calls of `records` records each.
pub fn report_end_to_end(
    out: &mut Outcome,
    records: usize,
    times: &[f64],
    setups: &[f64],
    modeled_ms: &[f64],
) {
    let med = median(times).expect("closed loop ran");
    out.metric(
        "throughput_mrec_s",
        records as f64 / med / 1e6,
        "Mrec/s",
        Kind::Measured,
    );
    // The modeled time depends only on the input, so it must repeat exactly.
    let first = modeled_ms.first().copied().unwrap_or(0.0);
    if modeled_ms.iter().any(|&m| m != first) {
        out.note(format!(
            "modeled time differs between calls on one input: {modeled_ms:?}"
        ));
    }
    out.metric("modeled_sort_ms", first, "ms", Kind::Modeled);
    out.metric(
        "setup_s",
        median(setups).expect("set-ups ran"),
        "s",
        Kind::Measured,
    );
    out.metric(
        "peak_rss_mib",
        crate::layers::peak_rss_mib(),
        "MiB",
        Kind::Measured,
    );
    out.note(format!(
        "medians of {} timed calls and {} set-ups",
        times.len(),
        setups.len()
    ));
}

/// `trace.overhead_frac`: the traced half's median call over the untraced
/// half's, minus one.
pub fn report_overhead(out: &mut Outcome, plain: &[f64], traced: &[f64]) {
    out.metric(
        "trace.overhead_frac",
        median(traced).unwrap_or(0.0) / median(plain).unwrap_or(1.0) - 1.0,
        "ratio",
        Kind::Computed,
    );
}
