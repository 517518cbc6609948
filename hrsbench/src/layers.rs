//! Per-layer metrics shared by the workloads: the `core` numbers read from
//! sort reports and sorter probes, the `model` evaluation time, and the
//! same-run calibration they are set against.

use crate::report::{Kind, Outcome};
use crate::stats::median;
use crate::THREADS;
use gpu_sim::HistogramStrategy;
use hetero::multiway_merge::parallel_merge_sorted_runs_by;
use hrs_core::histogram::block_histogram_into;
use hrs_core::{HybridRadixSorter, SortReport};
use std::time::{Duration, Instant};
use telemetry::Inspector;
use workloads::SortKey;

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The same-run baselines of `core.vs_std` and `core.bw_frac`.
#[derive(Debug, Clone, Copy)]
pub struct Calib {
    /// `std` unstable sort of the workload's own records, one thread.
    pub std_sort_mrec_s: f64,
    /// Copy bandwidth (read + write) over 4 × the LLC, two threads.
    pub copy_gbs: f64,
}

impl Calib {
    pub fn report(&self, out: &mut Outcome) {
        out.metric(
            "calib.std_sort_mrec_s",
            self.std_sort_mrec_s,
            "Mrec/s",
            Kind::Measured,
        );
        out.metric("calib.copy_gbs", self.copy_gbs, "GB/s", Kind::Measured);
    }
}

/// Cumulative counters of one or more sorter probes registered on an
/// inspector (`<prefix>/sorts`, `<prefix>/sort_ns`, `<prefix>/pass_ns`,
/// `<prefix>/worker<w>/{tasks,busy_ns}`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeTotals {
    pub sorts: u64,
    pub sort_ns: u64,
    pub pass_count: u64,
    pub pass_ns: u64,
    pub busy_ns: u64,
    pub tasks: u64,
}

impl ProbeTotals {
    pub fn read(inspector: &Inspector, prefixes: &[String], workers: usize) -> Self {
        let mut t = ProbeTotals::default();
        for p in prefixes {
            t.sorts += inspector.counter(&format!("{p}/sorts")).get();
            if let Some(h) = inspector.histogram_snapshot(&format!("{p}/sort_ns")) {
                t.sort_ns += h.sum;
            }
            if let Some(h) = inspector.histogram_snapshot(&format!("{p}/pass_ns")) {
                t.pass_count += h.count;
                t.pass_ns += h.sum;
            }
            for w in 0..workers {
                t.busy_ns += inspector.gauge(&format!("{p}/worker{w}/busy_ns")).get();
                t.tasks += inspector.gauge(&format!("{p}/worker{w}/tasks")).get();
            }
        }
        t
    }

    /// The counts accumulated since `earlier`.  A counter that went
    /// backwards means the reading is not cumulative: the run is marked
    /// invalid and zeros are returned.
    pub fn since(&self, earlier: &ProbeTotals, out: &mut Outcome) -> ProbeTotals {
        let diff = || {
            Some(ProbeTotals {
                sorts: self.sorts.checked_sub(earlier.sorts)?,
                sort_ns: self.sort_ns.checked_sub(earlier.sort_ns)?,
                pass_count: self.pass_count.checked_sub(earlier.pass_count)?,
                pass_ns: self.pass_ns.checked_sub(earlier.pass_ns)?,
                busy_ns: self.busy_ns.checked_sub(earlier.busy_ns)?,
                tasks: self.tasks.checked_sub(earlier.tasks)?,
            })
        };
        diff().unwrap_or_else(|| {
            out.invalid = Some(format!(
                "probe counters went backwards: {earlier:?} then {self:?}"
            ));
            ProbeTotals::default()
        })
    }
}

/// Sums over the reports of individual `HybridRadixSorter` calls.
#[derive(Debug, Clone, Copy, Default)]
struct ReportTotals {
    calls: u64,
    keys: u64,
    passes: u64,
    local_keys: u64,
    bytes_moved: f64,
    histogram_updates: u64,
    scatter_updates: u64,
    lookahead_active_blocks: u64,
}

impl ReportTotals {
    fn of(reports: &[&SortReport]) -> Self {
        let mut t = ReportTotals::default();
        for r in reports {
            let record = f64::from(r.key_bytes + r.value_bytes);
            t.calls += 1;
            t.keys += r.n;
            t.passes += u64::from(r.counting_passes());
            t.local_keys += r.local.n_keys;
            // Computed traffic: a counting pass reads its records twice
            // (histogram, scatter) and writes them once; a local sort reads
            // and writes its records once.
            let pass_keys: u64 = r.passes.iter().map(|p| p.n_keys).sum();
            t.bytes_moved += record * (3 * pass_keys + 2 * r.local.n_keys) as f64;
            for p in &r.passes {
                t.histogram_updates += p.histogram_updates;
                t.scatter_updates += p.scatter_updates;
                t.lookahead_active_blocks += p.lookahead_active_blocks;
            }
        }
        t
    }
}

/// What the `core` layer did during the traced window.
pub struct CoreRun<'a> {
    /// Reports of every core sort call in the window.
    pub reports: Vec<&'a SortReport>,
    /// Probe counters over the window.
    pub probe: ProbeTotals,
    /// Executor workers of each core sort call, or `None` when the
    /// per-worker gauges cannot be read as totals over the window.
    pub workers: Option<usize>,
    /// Retained scratch-arena bytes of the sorters involved.
    pub arena_bytes: u64,
    /// Result of [`histogram_replay`] on the workload's input.
    pub histogram_mkeys_s: f64,
}

/// Reports every `core.*` metric, each per core sort call (one
/// `HybridRadixSorter` call: the whole input on `bulk-pairs`, one shard
/// elsewhere).  Timings are probe means over the traced window.
pub fn report_core(out: &mut Outcome, run: &CoreRun, calib: &Calib) {
    let t = ReportTotals::of(&run.reports);
    let calls = t.calls.max(1) as f64;
    let sorts = run.probe.sorts.max(1) as f64;
    let sort_s = run.probe.sort_ns as f64 / sorts / 1e9;
    let keys_per_call = t.keys as f64 / calls;
    let bytes_per_call = t.bytes_moved / calls;
    out.metric("core.sort_ms", sort_s * 1e3, "ms", Kind::Measured);
    out.metric(
        "core.pass_ms",
        run.probe.pass_ns as f64 / run.probe.pass_count.max(1) as f64 / 1e6,
        "ms",
        Kind::Measured,
    );
    out.metric("core.passes", t.passes as f64 / calls, "count", Kind::Count);
    out.metric(
        "core.local_sort_frac",
        t.local_keys as f64 / t.keys.max(1) as f64,
        "ratio",
        Kind::Count,
    );
    let (busy_frac, tasks) = match run.workers {
        Some(w) => (
            run.probe.busy_ns as f64 / (w as f64 * run.probe.sort_ns.max(1) as f64),
            run.probe.tasks as f64 / sorts,
        ),
        None => {
            out.note(
                "core.worker_busy_frac and core.exec_tasks are not measurable here (reported as 0)",
            );
            (0.0, 0.0)
        }
    };
    out.metric("core.worker_busy_frac", busy_frac, "ratio", Kind::Computed);
    out.metric("core.exec_tasks", tasks, "count", Kind::Count);
    out.metric(
        "core.arena_mib",
        run.arena_bytes as f64 / MIB,
        "MiB",
        Kind::Measured,
    );
    out.metric(
        "core.histogram_mkeys_s",
        run.histogram_mkeys_s,
        "Mkeys/s",
        Kind::Measured,
    );
    out.metric(
        "core.bytes_moved_gib",
        bytes_per_call / GIB,
        "GiB",
        Kind::Computed,
    );
    out.metric(
        "core.bw_frac",
        bytes_per_call / sort_s.max(1e-12) / (calib.copy_gbs * 1e9),
        "ratio",
        Kind::Computed,
    );
    out.metric(
        "core.vs_std",
        keys_per_call / sort_s.max(1e-12) / 1e6 / calib.std_sort_mrec_s,
        "ratio",
        Kind::Computed,
    );
    out.metric(
        "core.histogram_updates",
        t.histogram_updates as f64 / calls,
        "count",
        Kind::Modeled,
    );
    out.metric(
        "core.scatter_updates",
        t.scatter_updates as f64 / calls,
        "count",
        Kind::Modeled,
    );
    out.metric(
        "core.lookahead_active_blocks",
        t.lookahead_active_blocks as f64 / calls,
        "count",
        Kind::Modeled,
    );
    out.note(
        "core.* are per HybridRadixSorter call; core.vs_std is over calib.std_sort_mrec_s, \
         core.bw_frac over calib.copy_gbs",
    );
}

/// Replays the public `block_histogram_into` over the pass-0 blocks of
/// `keys` on one thread, with the block size and histogram strategy
/// `sorter` uses for records of `value_bytes`-byte values.  Returns
/// (keys, seconds).
pub fn histogram_replay<K: SortKey>(
    sorter: &HybridRadixSorter,
    keys: &[K],
    value_bytes: u32,
) -> (u64, f64) {
    let cfg = sorter.effective_config(K::BYTES, value_bytes);
    let strategy = if sorter.optimizations().thread_reduction_histogram {
        HistogramStrategy::ThreadReduction
    } else {
        HistogramStrategy::AtomicsOnly
    };
    let mut counts = vec![0u32; cfg.radix()];
    let start = Instant::now();
    let mut updates = 0u64;
    for block in keys.chunks(cfg.keys_per_block) {
        counts.fill(0);
        let (u, _) = block_histogram_into(
            &mut counts,
            block,
            cfg.digit_bits,
            0,
            strategy,
            cfg.keys_per_thread as usize,
        );
        updates += u;
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box((updates, &counts));
    (keys.len() as u64, secs)
}

/// Median wall time of `HybridRadixSorter::reevaluate` on `report`, in µs.
pub fn report_model(out: &mut Outcome, sorter: &HybridRadixSorter, report: &SortReport) {
    let mut r = report.clone();
    let times: Vec<f64> = (0..101)
        .map(|_| {
            let start = Instant::now();
            sorter.reevaluate(&mut r);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    std::hint::black_box(&r);
    out.metric(
        "model.evaluate_us",
        median(&times).unwrap_or(0.0),
        "us",
        Kind::Measured,
    );
}

fn pair_key<V>(p: &(u64, V)) -> u64 {
    p.0
}

/// Median wall time, in ms, of `reps` runs of the public p-way merge
/// `parallel_merge_sorted_runs_by` over `runs` of pre-zipped (key, value)
/// records on [`THREADS`] threads.  Each merged output goes to `check`
/// after its clock stops.
pub fn merge_replay_ms<V: Copy + Send + Sync + Default>(
    runs: &[&[(u64, V)]],
    reps: usize,
    mut check: impl FnMut(&[(u64, V)]),
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let merged = parallel_merge_sorted_runs_by(runs, THREADS, pair_key::<V>);
            let t = ms(start.elapsed());
            check(&merged);
            t
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cumulative (steal, total) CPU ticks of the host from `/proc/stat`, so
/// a run can note how much CPU time the hypervisor took from it.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Metrics of the layers a workload does not enter, reported as zero so
/// every workload prints the same set.
pub fn report_not_entered(out: &mut Outcome, layers: &[&str]) {
    for &(name, unit) in PER_LAYER {
        let layer = name.split('.').next().unwrap_or(name);
        if layers.contains(&layer) {
            out.metric(name, 0.0, unit, Kind::Count);
        }
    }
    out.note(format!(
        "layers not entered (reported as 0): {}",
        layers.join(", ")
    ));
}

/// Every per-layer metric the traced run prints, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.sort_ms", "ms"),
    ("core.pass_ms", "ms"),
    ("core.passes", "count"),
    ("core.local_sort_frac", "ratio"),
    ("core.worker_busy_frac", "ratio"),
    ("core.exec_tasks", "count"),
    ("core.arena_mib", "MiB"),
    ("core.histogram_mkeys_s", "Mkeys/s"),
    ("core.bytes_moved_gib", "GiB"),
    ("core.bw_frac", "ratio"),
    ("core.vs_std", "ratio"),
    ("core.histogram_updates", "count"),
    ("core.scatter_updates", "count"),
    ("core.lookahead_active_blocks", "count"),
    ("model.evaluate_us", "us"),
    ("engine.partition_ms", "ms"),
    ("engine.merge_ms", "ms"),
    ("engine.device_sort_ms", "ms"),
    ("engine.shard_imbalance", "ratio"),
    ("engine.lane_arena_mib", "MiB"),
    ("merge.kernel_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.queued_ms", "ms"),
    ("service.dispatch_ms", "ms"),
    ("service.batch_requests_mean", "count"),
    ("service.flush_linger_frac", "ratio"),
    ("service.peak_rss_mib", "MiB"),
    ("service.latency_p50_ms", "ms"),
    ("service.latency_p90_ms", "ms"),
    ("service.latency_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.achieved_rate", "1/s"),
    ("calib.std_sort_mrec_s", "Mrec/s"),
    ("calib.copy_gbs", "GB/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("check.failed_frac", "ratio"),
];

/// Every end-to-end metric the untraced run prints, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mrec_s", "Mrec/s"),
    ("modeled_sort_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;

    #[test]
    fn every_declared_metric_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn a_probe_counter_going_backwards_invalidates_the_run() {
        let earlier = ProbeTotals {
            sorts: 2,
            busy_ns: 50,
            ..ProbeTotals::default()
        };
        let later = ProbeTotals {
            sorts: 5,
            busy_ns: 80,
            ..ProbeTotals::default()
        };
        let mut out = Outcome::default();
        let d = later.since(&earlier, &mut out);
        assert_eq!((d.sorts, d.busy_ns), (3, 30));
        assert!(out.invalid.is_none());
        assert_eq!(earlier.since(&later, &mut out), ProbeTotals::default());
        assert!(out.invalid.is_some());
    }
}
