//! `sharded-skew`: a closed loop with one caller sorting 2^23 Zipf keys
//! (θ = 0.75 over a universe of n/4) of type `u64`, each with a `u32` row
//! id, through `ShardedSorter::sort_pairs` on four simulated Titan X cards,
//! with a 2-worker host executor, 2 merge threads and the default host
//! merge.  Partition and merge are about half of each call.

use crate::closed::{report_end_to_end, report_overhead, PairInput};
use crate::layers::{self, ms, Calib, CoreRun, ProbeTotals};
use crate::report::{Kind, Outcome};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{calib, Ctx, THREADS};
use hrs_core::{Executor, HybridRadixSorter};
use multi_gpu::{DevicePool, ShardedReport, ShardedSorter};
use std::time::{Duration, Instant};
use telemetry::Inspector;
use workloads::zipf::ZipfGenerator;

const DEVICES: usize = 4;

fn sorter() -> ShardedSorter {
    ShardedSorter::new(DevicePool::titan_cluster(DEVICES))
        .with_host_executor(Executor::with_workers(THREADS))
        .with_merge_threads(THREADS)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let n = if ctx.smoke { 1 << 16 } else { 1 << 23 };
    let keys: Vec<u64> = ZipfGenerator::new(0.75, (n / 4) as u64, ctx.seed).generate(n);
    let mut input = PairInput::new(keys);
    if !ctx.trace {
        let (setups, s) = input.cold_setups(&mut out, sorter, |s, k, v| {
            s.sort_pairs(k, v);
        });
        let mut modeled = Vec::new();
        let times = input.closed_loop(
            ctx.window,
            &mut out,
            |k, v| s.sort_pairs(k, v),
            // The modeled critical path only: `end_to_end` adds measured
            // host time to it and is never read.
            |_, _, _, r| modeled.push(r.critical_path.millis()),
        );
        report_end_to_end(&mut out, n, &times, &setups, &modeled);
        return out;
    }

    let half = ctx.window / 2;
    let plain = sorter();
    input.call(&mut out, |k, v| plain.sort_pairs(k, v));
    let plain_times = input.closed_loop(
        half,
        &mut out,
        |k, v| plain.sort_pairs(k, v),
        |_, _, _, _| {},
    );
    drop(plain);

    let inspector = Inspector::new();
    let traced = sorter().with_telemetry(&inspector);
    input.call(&mut out, |k, v| traced.sort_pairs(k, v));
    let prefixes: Vec<String> = (0..DEVICES).map(|i| format!("core/dev{i}")).collect();
    let before = ProbeTotals::read(&inspector, &prefixes, 1);
    let mut lane_ns = before.sort_ns;
    let mut rec = Recorder::new(Instant::now());
    let mut reports: Vec<ShardedReport> = Vec::new();
    let mut device = Vec::new();
    let traced_times = input.closed_loop(
        half,
        &mut out,
        |k, v| traced.sort_pairs(k, v),
        |op, s, e, r| {
            device.push(ms(
                (e - s).saturating_sub(r.measured_partition + r.measured_merge)
            ));
            // Spans: the call, with partition and merge placed from the
            // report's measured durations, and the shard sorts' share of
            // the blocking path estimated as their summed wall time over
            // the host workers.  The rest of the call (the engine's own
            // work outside those phases, and the estimate's error) is what
            // no layer accounts for.
            let now_ns = ProbeTotals::read(&inspector, &prefixes, 1).sort_ns;
            let shard_sorts = Duration::from_nanos(now_ns.saturating_sub(lane_ns) / THREADS as u64);
            lane_ns = now_ns;
            let root = rec.add("op", op, None, s, e);
            let start = rec.ns(s);
            rec.place("engine.partition", op, root, start, r.measured_partition);
            let sorts_at = start + r.measured_partition.as_nanos() as u64;
            rec.place("core.shard_sorts", op, root, sorts_at, shard_sorts);
            let merge_at = rec.ns(e).saturating_sub(r.measured_merge.as_nanos() as u64);
            rec.place("engine.merge", op, root, merge_at, r.measured_merge);
            reports.push(r.clone());
        },
    );
    let probe = ProbeTotals::read(&inspector, &prefixes, 1).since(&before, &mut out);
    let arena_bytes: usize = traced
        .lane_arena_stats()
        .iter()
        .map(|a| a.total_bytes())
        .sum();
    let last = reports.last().expect("traced window ran");
    let kernel_ms = merge_kernel_ms(&input, last, &mut out);
    let template = HybridRadixSorter::with_defaults();
    let (hist_keys, hist_secs) = layers::histogram_replay(&template, &input.keys, 4);
    layers::report_model(&mut out, &template, &last.shards[0].report);

    let partition: Vec<f64> = reports.iter().map(|r| ms(r.measured_partition)).collect();
    let merge: Vec<f64> = reports.iter().map(|r| ms(r.measured_merge)).collect();
    out.metric(
        "engine.partition_ms",
        median(&partition).unwrap_or(0.0),
        "ms",
        Kind::Measured,
    );
    out.metric(
        "engine.merge_ms",
        median(&merge).unwrap_or(0.0),
        "ms",
        Kind::Measured,
    );
    out.metric(
        "engine.device_sort_ms",
        median(&device).unwrap_or(0.0),
        "ms",
        Kind::Computed,
    );
    out.metric(
        "engine.shard_imbalance",
        last.shard_imbalance(),
        "ratio",
        Kind::Count,
    );
    let arena_mib = arena_bytes as f64 / (1u64 << 20) as f64;
    out.metric("engine.lane_arena_mib", arena_mib, "MiB", Kind::Measured);
    out.metric("merge.kernel_ms", kernel_ms, "ms", Kind::Measured);
    out.note("engine.merge_ms - merge.kernel_ms is the engine's zip/unzip around the merge");
    drop(traced);

    let std_secs = calib::std_sort_pairs_secs(&input.keys);
    drop(input);
    let cal = Calib {
        std_sort_mrec_s: n as f64 / std_secs / 1e6,
        copy_gbs: calib::copy_gbs(ctx.smoke),
    };
    let run = CoreRun {
        reports: reports
            .iter()
            .flat_map(|r| r.shards.iter().map(|s| &s.report))
            .collect(),
        probe,
        workers: Some(1),
        arena_bytes: arena_bytes as u64,
        histogram_mkeys_s: hist_keys as f64 / hist_secs / 1e6,
    };
    layers::report_core(&mut out, &run, &cal);
    cal.report(&mut out);
    layers::report_not_entered(&mut out, &["service", "loadgen"]);
    report_overhead(&mut out, &plain_times, &traced_times);
    out.metric(
        "trace.unattributed_frac",
        rec.unattributed_frac(),
        "ratio",
        Kind::Computed,
    );
    rec.write_for(ctx, "sharded-skew", &mut out);
    out
}

/// Runs the public p-way merge on the sorted output's shard runs, zipped
/// before the clock starts; median of three, in ms.  The merged keys must
/// equal the sorted output's.
fn merge_kernel_ms(input: &PairInput<u64>, report: &ShardedReport, out: &mut Outcome) -> f64 {
    let mut runs: Vec<Vec<(u64, u32)>> = Vec::new();
    let mut offset = 0usize;
    for shard in &report.shards {
        let range = offset..offset + shard.n as usize;
        let keys = input.work_keys[range.clone()].iter().copied();
        runs.push(keys.zip(input.work_values[range].iter().copied()).collect());
        offset += shard.n as usize;
    }
    let refs: Vec<&[(u64, u32)]> = runs.iter().map(Vec::as_slice).collect();
    layers::merge_replay_ms(&refs, 3, |merged| {
        let same = merged.len() == input.work_keys.len()
            && merged
                .iter()
                .zip(&input.work_keys)
                .all(|(&(k, _), &ok)| k == ok);
        let verdict = if same {
            Ok(())
        } else {
            Err("merged keys differ from the sorted output".into())
        };
        out.gate("merge kernel replay", verdict);
    })
}
