//! `bulk-pairs`: a closed loop with one caller sorting 2^25 uniform `u32`
//! keys, each with a `u32` row id, through `HybridRadixSorter::sort_pairs`
//! on a 2-worker executor with the default optimisations.  All the time is
//! in `core`.

use crate::closed::{report_end_to_end, report_overhead, PairInput};
use crate::layers::{self, Calib, CoreRun, ProbeTotals};
use crate::report::{Kind, Outcome};
use crate::spans::Recorder;
use crate::{calib, Ctx, THREADS};
use hrs_core::{Executor, HybridRadixSorter};
use std::time::{Duration, Instant};
use telemetry::Inspector;

fn sorter() -> HybridRadixSorter {
    HybridRadixSorter::with_defaults().with_executor(Executor::with_workers(THREADS))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let n = if ctx.smoke { 1 << 16 } else { 1 << 25 };
    let mut input = PairInput::new(workloads::uniform_keys::<u32>(n, ctx.seed));
    if !ctx.trace {
        let (setups, s) = input.cold_setups(&mut out, sorter, |s, k, v| {
            s.sort_pairs(k, v);
        });
        let mut modeled = Vec::new();
        let times = input.closed_loop(
            ctx.window,
            &mut out,
            |k, v| s.sort_pairs(k, v),
            |_, _, _, r| modeled.push(r.simulated.total.millis()),
        );
        report_end_to_end(&mut out, n, &times, &setups, &modeled);
        return out;
    }

    // Traced run: half the window untraced, half with the probe attached
    // and a span around every call.
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
    let traced = sorter().with_telemetry(&inspector, "core");
    input.call(&mut out, |k, v| traced.sort_pairs(k, v));
    let prefixes = ["core".to_string()];
    let before = ProbeTotals::read(&inspector, &prefixes, THREADS);
    let mut last_read = before;
    let mut rec = Recorder::new(Instant::now());
    let mut reports = Vec::new();
    let traced_times = input.closed_loop(
        half,
        &mut out,
        |k, v| traced.sort_pairs(k, v),
        |op, s, e, r| {
            // Spans: the call, with the sort and its counting passes placed
            // from the probe's own timings; the rest of the call is what no
            // layer accounts for.
            let now = ProbeTotals::read(&inspector, &prefixes, THREADS);
            let sort_ns = now.sort_ns.saturating_sub(last_read.sort_ns);
            let pass_ns = now.pass_ns.saturating_sub(last_read.pass_ns);
            last_read = now;
            let root = rec.add("op", op, None, s, e);
            let start = rec.ns(s);
            let sort = rec.place(
                "core.sort_pairs",
                op,
                root,
                start,
                Duration::from_nanos(sort_ns),
            );
            rec.place(
                "core.passes",
                op,
                sort,
                start,
                Duration::from_nanos(pass_ns),
            );
            reports.push(r.clone());
        },
    );
    let probe = ProbeTotals::read(&inspector, &prefixes, THREADS).since(&before, &mut out);
    let (hist_keys, hist_secs) = layers::histogram_replay(&traced, &input.keys, 4);
    let last = reports.last().expect("traced window ran");
    layers::report_model(&mut out, &traced, last);
    let arena_bytes = traced.arena_stats().total_bytes() as u64;
    drop(traced);

    let std_secs = calib::std_sort_pairs_secs(&input.keys);
    drop(input);
    let cal = Calib {
        std_sort_mrec_s: n as f64 / std_secs / 1e6,
        copy_gbs: calib::copy_gbs(ctx.smoke),
    };
    let run = CoreRun {
        reports: reports.iter().collect(),
        probe,
        workers: Some(THREADS),
        arena_bytes,
        histogram_mkeys_s: hist_keys as f64 / hist_secs / 1e6,
    };
    layers::report_core(&mut out, &run, &cal);
    cal.report(&mut out);
    layers::report_not_entered(&mut out, &["engine", "merge", "service", "loadgen"]);
    report_overhead(&mut out, &plain_times, &traced_times);
    out.metric(
        "trace.unattributed_frac",
        rec.unattributed_frac(),
        "ratio",
        Kind::Computed,
    );
    rec.write_for(ctx, "bulk-pairs", &mut out);
    out
}
