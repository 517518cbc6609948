//! `serve-mixed`: an open loop against `SortService` over two simulated
//! Titan X cards with the default service configuration.  One generator
//! thread submits a request every 4 ms (250 per second); sizes cycle through
//! 1k/2k/4k/8k/16k keys and classes through u32/u64 × keys/pairs.  Blocked
//! completion waiters stamp each ticket the moment it resolves.
//! Every request fits in L2, so the time goes to admission, queueing,
//! batching, per-batch engine costs and demux rather than to `core`.

use crate::check::{check_equal, check_pairs, Fingerprint};
use crate::layers::{self, ms, Calib, CoreRun, ProbeTotals};
use crate::report::{Kind, Outcome};
use crate::spans::Recorder;
use crate::stats::{mean, median, nearest_rank, tail_percentile};
use crate::{calib, Ctx, THREADS};
use hrs_core::{HybridRadixSorter, SortReport};
use multi_gpu::{DevicePool, ShardedSorter};
use sort_service::{FlushReason, ServiceConfig, SortPayload, SortService, SortTicket};
use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use telemetry::Inspector;
use workloads::SortKey;

const DEVICES: usize = 2;
/// Requests per second the generator offers.
const RATE: f64 = 250.0;
const SIZES: [usize; 5] = [1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10];
/// Distinct request inputs; a multiple of both cycles (5 sizes, 4 classes).
const TEMPLATES: usize = 60;
/// Cold set-ups per run; `setup_s` is their median.  One takes a few ms,
/// so many are needed for a steady median.
const SETUPS: usize = 101;
/// Completion waiters; more than the requests in flight at this rate, so
/// every outstanding ticket has a waiter blocked on it.
const WAITERS: usize = 16;
/// A run whose generator submitted later than this at p99 is invalid.
/// Latency is timed from the due time, so a late submission is already
/// charged to its request; the bound flags a schedule that collapsed.
const LATE_BOUND_MS: f64 = 50.0;
/// How long a ticket may take to resolve before it counts as failed.
const RESOLVE_LIMIT: Duration = Duration::from_secs(30);

/// One distinct request: its input and the std-sorted form it must come
/// back as.
struct Template {
    input: SortPayload,
    expected: SortPayload,
    /// Record fingerprint of a pair input.
    fp: Option<Fingerprint>,
}

fn template(t: usize, seed: u64) -> Template {
    let n = SIZES[t % SIZES.len()];
    let s = seed.wrapping_mul(1_000_003).wrapping_add(t as u64);
    let ids = || (0..n as u32).collect::<Vec<u32>>();
    let input = match t % 4 {
        0 => SortPayload::U32Keys(workloads::uniform_keys(n, s)),
        1 => SortPayload::U64Keys(workloads::uniform_keys(n, s)),
        2 => SortPayload::U32Pairs {
            keys: workloads::uniform_keys(n, s),
            values: ids(),
        },
        _ => SortPayload::U64Pairs {
            keys: workloads::uniform_keys(n, s),
            values: ids(),
        },
    };
    let (expected, fp) = match &input {
        SortPayload::U32Keys(k) => (SortPayload::U32Keys(std_sorted(k)), None),
        SortPayload::U64Keys(k) => (SortPayload::U64Keys(std_sorted(k)), None),
        SortPayload::U32Pairs { keys, values } => (
            SortPayload::U32Pairs {
                keys: std_sorted(keys),
                values: Vec::new(),
            },
            Some(Fingerprint::of(keys, values)),
        ),
        SortPayload::U64Pairs { keys, values } => (
            SortPayload::U64Pairs {
                keys: std_sorted(keys),
                values: Vec::new(),
            },
            Some(Fingerprint::of(keys, values)),
        ),
    };
    Template {
        input,
        expected,
        fp,
    }
}

fn std_sorted<K: Copy + Ord>(keys: &[K]) -> Vec<K> {
    let mut v = keys.to_vec();
    v.sort_unstable();
    v
}

/// The gate for one ticket: its keys equal the std-sorted input, and for
/// pairs every row id still follows its key and the record multiset is
/// unchanged (the order of values among equal keys is unspecified).
fn verify(tpl: &Template, got: &SortPayload) -> Result<(), String> {
    use SortPayload as P;
    match (&tpl.input, &tpl.expected, got) {
        (P::U32Keys(_), P::U32Keys(e), P::U32Keys(o)) => check_equal(e, o),
        (P::U64Keys(_), P::U64Keys(e), P::U64Keys(o)) => check_equal(e, o),
        (
            P::U32Pairs { keys: i, .. },
            P::U32Pairs { keys: e, .. },
            P::U32Pairs { keys, values },
        ) => {
            check_equal(e, keys)?;
            check_pairs(
                i,
                tpl.fp.ok_or("pair input has no fingerprint")?,
                keys,
                values,
            )
        }
        (
            P::U64Pairs { keys: i, .. },
            P::U64Pairs { keys: e, .. },
            P::U64Pairs { keys, values },
        ) => {
            check_equal(e, keys)?;
            check_pairs(
                i,
                tpl.fp.ok_or("pair input has no fingerprint")?,
                keys,
                values,
            )
        }
        _ => Err("payload came back as another class".into()),
    }
}

fn service(inspector: Option<&Inspector>) -> SortService {
    let mut sorter = ShardedSorter::new(DevicePool::titan_cluster(DEVICES));
    if let Some(i) = inspector {
        sorter = sorter.with_telemetry(i);
    }
    SortService::start(sorter, ServiceConfig::default())
}

/// One submitted request on its way to the completion waiters.
struct Sent {
    i: u64,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    ticket: Result<SortTicket, String>,
}

/// What a completion waiter keeps of one request after the gate.
struct Record {
    i: u64,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    resolved: Instant,
    keys: usize,
    queued: Duration,
    batch: u64,
}

/// What one batch's shared report says, kept once per batch.
struct BatchRec {
    requests: usize,
    linger: bool,
    partition: Duration,
    merge: Duration,
    imbalance: f64,
    critical_path_ms: f64,
    shards: Vec<SortReport>,
}

struct Window {
    start: Instant,
    submitted: u64,
    last_submit: Instant,
    records: Vec<Record>,
    batches: BTreeMap<u64, BatchRec>,
}

/// Runs the open loop for `window` and gates every ticket.
fn open_loop(
    svc: &SortService,
    templates: &[Template],
    window: Duration,
    keep_shards: bool,
    out: &mut Outcome,
) -> Window {
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now() + Duration::from_millis(1);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut w = Window {
        start,
        submitted: 0,
        last_submit: start,
        records: Vec::new(),
        batches: BTreeMap::new(),
    };
    let rx = Mutex::new(rx);
    let completed = std::thread::scope(|s| {
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| s.spawn(|| complete(&rx, templates, keep_shards)))
            .collect();
        loop {
            let due = start + interval * w.submitted as u32;
            if due >= start + window {
                break;
            }
            // Built before the due time: no request is timed with its own
            // input preparation.
            let payload = templates[w.submitted as usize % templates.len()]
                .input
                .clone();
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submit_start = Instant::now();
            let ticket = svc.submit(payload).map_err(|e| format!("rejected: {e:?}"));
            let submit_end = Instant::now();
            w.last_submit = submit_start;
            let sent = Sent {
                i: w.submitted,
                due,
                submit_start,
                submit_end,
                ticket,
            };
            if tx.send(sent).is_err() {
                break;
            }
            w.submitted += 1;
        }
        drop(tx);
        waiters
            .into_iter()
            .map(|h| h.join().expect("completion waiter panicked"))
            .collect::<Vec<_>>()
    });
    for c in completed {
        w.records.extend(c.records);
        for (id, b) in c.batches {
            w.batches.entry(id).or_insert(b);
        }
        for v in c.verdicts {
            out.gate("serve-mixed request", v);
        }
    }
    w.records.sort_by_key(|r| r.i);
    w
}

#[derive(Default)]
struct Completed {
    records: Vec<Record>,
    batches: BTreeMap<u64, BatchRec>,
    verdicts: Vec<Result<(), String>>,
}

/// One completion waiter: takes the next submitted request, blocks on its
/// ticket and stamps it the moment it resolves, then gates the payload and
/// drops it.  Several waiters share the queue, so a ticket that resolves
/// before an older one is stamped by its own waiter, not behind the older
/// one, and no waiter polls.
fn complete(
    rx: &Mutex<mpsc::Receiver<Sent>>,
    templates: &[Template],
    keep_shards: bool,
) -> Completed {
    let mut c = Completed::default();
    loop {
        let next = rx
            .lock()
            .expect("a waiter panicked holding the queue")
            .recv();
        let Ok(mut s) = next else {
            return c;
        };
        let waited = match s.ticket.as_mut() {
            Ok(t) => t.wait_timeout(RESOLVE_LIMIT),
            Err(e) => {
                c.verdicts.push(Err(format!("request {}: {e}", s.i)));
                continue;
            }
        };
        let resolved = Instant::now();
        let o = match waited {
            Ok(Some(o)) => o,
            Ok(None) => {
                c.verdicts
                    .push(Err(format!("request {} never resolved", s.i)));
                continue;
            }
            Err(e) => {
                c.verdicts.push(Err(format!("request {}: {e}", s.i)));
                continue;
            }
        };
        let tpl = &templates[s.i as usize % templates.len()];
        c.verdicts.push(verify(tpl, &o.payload));
        c.batches.entry(o.batch.batch).or_insert_with(|| {
            let r = &o.report;
            BatchRec {
                requests: o.batch.requests,
                linger: o.batch.reason == FlushReason::Linger,
                partition: r.measured_partition,
                merge: r.measured_merge,
                imbalance: r.shard_imbalance(),
                critical_path_ms: r.critical_path.millis(),
                shards: if keep_shards {
                    r.shards.iter().map(|sh| sh.report.clone()).collect()
                } else {
                    Vec::new()
                },
            }
        });
        c.records.push(Record {
            i: s.i,
            due: s.due,
            submit_start: s.submit_start,
            submit_end: s.submit_end,
            resolved,
            keys: o.payload.len(),
            queued: o.queued,
            batch: o.batch.batch,
        });
    }
}

/// Nearest-rank percentile under the ten-beyond rule, falling back to the
/// plain nearest rank (with a note) when the window was too short.
fn tail(out: &mut Outcome, what: &str, samples: &[f64], q: f64) -> f64 {
    tail_percentile(samples, q).unwrap_or_else(|| {
        let (v, beyond) = nearest_rank(samples, q).unwrap_or((0.0, 0));
        out.note(format!(
            "{what}: only {beyond} samples beyond p{}",
            q * 100.0
        ));
        v
    })
}

/// Checks the generator kept its schedule; a late generator makes the
/// run invalid rather than fast.  Returns the p99 lateness in ms.
fn loadgen(out: &mut Outcome, w: &Window) -> f64 {
    let late: Vec<f64> = w
        .records
        .iter()
        .map(|r| ms(r.submit_start - r.due))
        .collect();
    let p99 = tail(out, "loadgen lateness", &late, 0.99);
    out.note(format!(
        "generator lateness p99 {p99:.3} ms (bound {LATE_BOUND_MS} ms)"
    ));
    if p99 > LATE_BOUND_MS {
        out.invalid = Some(format!(
            "generator p99 lateness {p99:.3} ms exceeds the {LATE_BOUND_MS} ms bound"
        ));
    }
    p99
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let templates: Vec<Template> = (0..TEMPLATES).map(|t| template(t, ctx.seed)).collect();
    // Warm-up: every template once, one at a time, so each size and class
    // has run before the window.  Submitting them all at once would batch
    // them in a timing-dependent way and leave a peak RSS that varies from
    // run to run by more than the window's own.
    let warm = |svc: &SortService, out: &mut Outcome| {
        for tpl in &templates {
            let verdict = svc
                .submit(tpl.input.clone())
                .map_err(|e| format!("{e:?}"))
                .and_then(|t| t.wait().map_err(|e| e.to_string()))
                .and_then(|o| verify(tpl, &o.payload));
            out.gate("serve-mixed warm-up request", verdict);
        }
    };
    let latencies =
        |w: &Window| -> Vec<f64> { w.records.iter().map(|r| ms(r.resolved - r.due)).collect() };

    if !ctx.trace {
        let mut setups = Vec::new();
        for _ in 0..SETUPS {
            let payload = templates[0].input.clone();
            let start = Instant::now();
            let svc = service(None);
            let verdict = svc
                .submit(payload)
                .map_err(|e| format!("{e:?}"))
                .and_then(|t| t.wait().map_err(|e| e.to_string()));
            setups.push(start.elapsed().as_secs_f64());
            out.gate(
                "serve-mixed set-up request",
                verdict.and_then(|o| verify(&templates[0], &o.payload)),
            );
            svc.shutdown();
        }
        let svc = service(None);
        warm(&svc, &mut out);
        // Peak RSS through the set-ups and one pass over every request
        // template.  The window's own peak follows its backlog, which
        // follows the host's steal (on a 2-vCPU VM: 17 MiB calm, 33 MiB at
        // 15% steal); the traced run reports it as `service.peak_rss_mib`.
        let rss = layers::peak_rss_mib();
        let w = open_loop(&svc, &templates, ctx.window, false, &mut out);
        svc.shutdown();
        loadgen(&mut out, &w);
        let keys: usize = w.records.iter().map(|r| r.keys).sum();
        let span = w
            .records
            .iter()
            .map(|r| r.resolved)
            .max()
            .unwrap_or(w.start)
            - w.start;
        let modeled: Vec<f64> = w.batches.values().map(|b| b.critical_path_ms).collect();
        out.metric(
            "throughput_mrec_s",
            keys as f64 / span.as_secs_f64() / 1e6,
            "Mrec/s",
            Kind::Measured,
        );
        out.metric(
            "modeled_sort_ms",
            mean(&modeled).unwrap_or(0.0),
            "ms",
            Kind::Modeled,
        );
        out.metric(
            "setup_s",
            median(&setups).unwrap_or(0.0),
            "s",
            Kind::Measured,
        );
        out.metric("peak_rss_mib", rss, "MiB", Kind::Measured);
        out.note(format!(
            "{} requests over {:.3} s in {} batches; modeled_sort_ms is the mean batch \
             critical path",
            w.records.len(),
            span.as_secs_f64(),
            w.batches.len()
        ));
        return out;
    }

    let half = ctx.window / 2;
    let plain = service(None);
    warm(&plain, &mut out);
    let plain_w = open_loop(&plain, &templates, half, false, &mut out);
    plain.shutdown();

    let inspector = Inspector::new();
    let svc = service(Some(&inspector));
    warm(&svc, &mut out);
    // The service runs one sorter clone per key class, and each clone's
    // lanes keep their own executor probes: the per-worker gauges on a
    // shared path hold whichever clone wrote last, so they are not read
    // (0 workers).  Sort counts and the time histograms add up across
    // clones.
    let prefixes: Vec<String> = (0..DEVICES).map(|i| format!("core/dev{i}")).collect();
    let before = ProbeTotals::read(&inspector, &prefixes, 0);
    let w = open_loop(&svc, &templates, half, true, &mut out);
    let probe = ProbeTotals::read(&inspector, &prefixes, 0).since(&before, &mut out);
    let arena_bytes: u64 = prefixes
        .iter()
        .map(|p| {
            inspector.gauge(&format!("{p}/arena/buffer_bytes")).get()
                + inspector.gauge(&format!("{p}/arena/scratch_bytes")).get()
        })
        .sum();
    svc.shutdown();
    // Before calibration, whose copy buffer would dwarf the service.
    out.metric(
        "service.peak_rss_mib",
        layers::peak_rss_mib(),
        "MiB",
        Kind::Measured,
    );

    let late_p99 = loadgen(&mut out, &w);
    let lat = latencies(&w);
    let batches: Vec<&BatchRec> = w.batches.values().collect();
    // The shard sorts' share of a batch's blocking path, estimated as the
    // window's mean summed lane time per batch over the host workers.
    let shard_est = Duration::from_nanos(probe.sort_ns / (batches.len().max(1) * THREADS) as u64);
    let mut rec = Recorder::new(w.start);
    for r in &w.records {
        let b = &w.batches[&r.batch];
        let root = rec.add("request", r.i, None, r.due, r.resolved);
        rec.add("loadgen.late", r.i, Some(root), r.due, r.submit_start);
        rec.add(
            "service.submit",
            r.i,
            Some(root),
            r.submit_start,
            r.submit_end,
        );
        let queued_at = rec.ns(r.submit_end);
        rec.place("service.queued", r.i, root, queued_at, r.queued);
        // From dispatch to resolution the request rides its batch: the
        // engine's partition, shard sorts and merge are placed; the
        // service's batch assembly, demux and hand-off are not timed
        // apart, so they stay in the request's unattributed remainder.
        let dispatch = queued_at + r.queued.as_nanos() as u64;
        rec.place("engine.partition", r.i, root, dispatch, b.partition);
        let sorts_at = dispatch + b.partition.as_nanos() as u64;
        rec.place("core.shard_sorts", r.i, root, sorts_at, shard_est);
        rec.place(
            "engine.merge",
            r.i,
            root,
            sorts_at + shard_est.as_nanos() as u64,
            b.merge,
        );
    }

    let submit_us: Vec<f64> = w
        .records
        .iter()
        .map(|r| (r.submit_end - r.submit_start).as_secs_f64() * 1e6)
        .collect();
    let queued: Vec<f64> = w.records.iter().map(|r| ms(r.queued)).collect();
    let dispatch: Vec<f64> = w
        .records
        .iter()
        .map(|r| ms((r.resolved - r.due).saturating_sub(r.queued)))
        .collect();
    let reqs: Vec<f64> = batches.iter().map(|b| b.requests as f64).collect();
    let linger = batches.iter().filter(|b| b.linger).count() as f64 / batches.len().max(1) as f64;
    out.metric(
        "service.submit_us",
        median(&submit_us).unwrap_or(0.0),
        "us",
        Kind::Measured,
    );
    out.metric(
        "service.queued_ms",
        median(&queued).unwrap_or(0.0),
        "ms",
        Kind::Measured,
    );
    out.metric(
        "service.dispatch_ms",
        median(&dispatch).unwrap_or(0.0),
        "ms",
        Kind::Computed,
    );
    out.metric(
        "service.batch_requests_mean",
        mean(&reqs).unwrap_or(0.0),
        "count",
        Kind::Count,
    );
    out.metric("service.flush_linger_frac", linger, "ratio", Kind::Count);
    // Latency percentiles come from the untraced half, as a client sees
    // them: from the request's due time to its ticket's resolution.
    let plain_lat = latencies(&plain_w);
    out.metric(
        "service.latency_p50_ms",
        median(&plain_lat).unwrap_or(0.0),
        "ms",
        Kind::Measured,
    );
    let p90 = tail(&mut out, "latency", &plain_lat, 0.9);
    out.metric("service.latency_p90_ms", p90, "ms", Kind::Measured);
    let p99 = tail(&mut out, "latency", &plain_lat, 0.99);
    out.metric("service.latency_p99_ms", p99, "ms", Kind::Measured);
    out.metric("loadgen.late_p99_ms", late_p99, "ms", Kind::Measured);
    let gen_span = (w.last_submit - w.start).as_secs_f64();
    out.metric(
        "loadgen.achieved_rate",
        w.submitted.saturating_sub(1) as f64 / gen_span.max(1e-9),
        "1/s",
        Kind::Measured,
    );

    let part: Vec<f64> = batches.iter().map(|b| ms(b.partition)).collect();
    let merge: Vec<f64> = batches.iter().map(|b| ms(b.merge)).collect();
    let imb: Vec<f64> = batches.iter().map(|b| b.imbalance).collect();
    out.metric(
        "engine.partition_ms",
        median(&part).unwrap_or(0.0),
        "ms",
        Kind::Measured,
    );
    out.metric(
        "engine.merge_ms",
        median(&merge).unwrap_or(0.0),
        "ms",
        Kind::Measured,
    );
    out.metric("engine.device_sort_ms", ms(shard_est), "ms", Kind::Computed);
    out.metric(
        "engine.shard_imbalance",
        median(&imb).unwrap_or(0.0),
        "ratio",
        Kind::Count,
    );
    out.metric(
        "engine.lane_arena_mib",
        arena_bytes as f64 / (1u64 << 20) as f64,
        "MiB",
        Kind::Measured,
    );
    out.metric(
        "merge.kernel_ms",
        merge_kernel_ms(&templates),
        "ms",
        Kind::Measured,
    );
    out.note(
        "engine.device_sort_ms on serve-mixed is the mean summed lane sort time per batch over \
         the host workers; merge.kernel_ms replays the merge on the largest u64 pair request \
         split into two runs; engine.lane_arena_mib and core.arena_mib sum over devices the \
         larger of the two class sorters' lane arenas (the probes keep a maximum per device), \
         a lower bound on the retained total",
    );

    let shard_reports: Vec<&SortReport> = batches.iter().flat_map(|b| b.shards.iter()).collect();
    let template_sorter = HybridRadixSorter::with_defaults();
    if let Some(first) = shard_reports.first() {
        layers::report_model(&mut out, &template_sorter, first);
    }
    // Batches carry a u64 demux tag per key, so their records have 8-byte
    // values whatever the request class.
    let (mut hist_keys, mut hist_secs, mut std_recs, mut std_secs) = (0u64, 0.0, 0usize, 0.0);
    for tpl in &templates {
        let (k, s) = match &tpl.input {
            SortPayload::U32Keys(k) | SortPayload::U32Pairs { keys: k, .. } => {
                layers::histogram_replay(&template_sorter, k, 8)
            }
            SortPayload::U64Keys(k) | SortPayload::U64Pairs { keys: k, .. } => {
                layers::histogram_replay(&template_sorter, k, 8)
            }
        };
        hist_keys += k;
        hist_secs += s;
        std_recs += tpl.input.len();
        std_secs += match &tpl.input {
            SortPayload::U32Keys(k) => calib::std_sort_keys_secs(k),
            SortPayload::U64Keys(k) => calib::std_sort_keys_secs(k),
            SortPayload::U32Pairs { keys, .. } => calib::std_sort_pairs_secs(keys),
            SortPayload::U64Pairs { keys, .. } => calib::std_sort_pairs_secs(keys),
        };
    }
    let cal = Calib {
        std_sort_mrec_s: std_recs as f64 / std_secs / 1e6,
        copy_gbs: calib::copy_gbs(ctx.smoke),
    };
    let run = CoreRun {
        reports: shard_reports,
        probe,
        workers: None,
        arena_bytes,
        histogram_mkeys_s: hist_keys as f64 / hist_secs / 1e6,
    };
    layers::report_core(&mut out, &run, &cal);
    cal.report(&mut out);
    out.metric(
        "trace.overhead_frac",
        median(&lat).unwrap_or(0.0) / median(&plain_lat).unwrap_or(1.0) - 1.0,
        "ratio",
        Kind::Computed,
    );
    out.metric(
        "trace.unattributed_frac",
        rec.unattributed_frac(),
        "ratio",
        Kind::Computed,
    );
    rec.write_for(ctx, "serve-mixed", &mut out);
    out
}

/// The p-way merge replayed on the largest u64 pair request, std-sorted
/// and split at its middle into two pre-zipped runs; median of 101, in ms.
fn merge_kernel_ms(templates: &[Template]) -> f64 {
    let Some((keys, values)) = templates.iter().rev().find_map(|t| match &t.input {
        SortPayload::U64Pairs { keys, values } if keys.len() == SIZES[4] => Some((keys, values)),
        _ => None,
    }) else {
        return 0.0;
    };
    let mut recs: Vec<(u64, u64)> = keys
        .iter()
        .map(|k| k.to_radix())
        .zip(values.iter().map(|&v| u64::from(v)))
        .collect();
    recs.sort_unstable();
    let (a, b) = recs.split_at(recs.len() / 2);
    layers::merge_replay_ms(&[a, b], 101, |merged| {
        std::hint::black_box(merged);
    })
}
