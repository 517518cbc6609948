//! The simulated full-duplex PCIe / GPU pipeline (Section 5, Figures 4–5).
//!
//! Three resources execute concurrently: the host-to-device PCIe stream, the
//! GPU, and the device-to-host PCIe stream.  Chunk `i` is transferred to the
//! device, sorted, and its sorted run returned; the transfer of chunk `i+1`
//! overlaps with the sorting of chunk `i`, and the return of chunk `i-1`
//! overlaps with both (full duplex).  With the in-place replacement strategy
//! only three chunk-sized device-memory slots exist, so the upload of chunk
//! `i` reuses the slot of chunk `i-2` and may start only once that chunk's
//! run has *begun* draining back to the host (the replacement proceeds
//! concurrently with the return, Figure 5); without the strategy (four
//! slots) the dependency moves one chunk further back.

use gpu_sim::{LinkSpec, PcieBus, ResourceId, SimTime, Timeline, TransferDirection};
use serde::{Deserialize, Serialize};

/// Configuration of the pipeline simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// The PCIe link.
    pub bus: PcieBus,
    /// Whether the in-place replacement strategy (three chunk slots) is
    /// used; otherwise four slots are assumed.
    pub in_place_replacement: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            bus: PcieBus::gen3_x16(),
            in_place_replacement: true,
        }
    }
}

/// Durations of the pipeline stages of one heterogeneous sort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineBreakdown {
    /// Time to transfer the whole input to the device once.
    pub total_htod: SimTime,
    /// Sum of the per-chunk GPU sorting times.
    pub total_gpu_sort: SimTime,
    /// Time to return all sorted runs to the host once.
    pub total_dtoh: SimTime,
    /// Makespan of the chunked sort (upload + sort + return, overlapped).
    pub chunked_sort: SimTime,
    /// CPU multiway-merge time (supplied by the caller; zero when the input
    /// fits in a single chunk).
    pub cpu_merge: SimTime,
    /// End-to-end duration (chunked sort + merge).
    pub end_to_end: SimTime,
}

/// The three timeline resources one device's chunk pipeline runs on: its
/// host-to-device stream, the device itself, and its device-to-host stream.
#[derive(Debug, Clone, Copy)]
pub struct PipelineResources {
    /// The host-to-device transfer stream.
    pub htod: ResourceId,
    /// The device's execution engine.
    pub gpu: ResourceId,
    /// The device-to-host transfer stream.
    pub dtoh: ResourceId,
}

impl PipelineResources {
    /// Registers the three per-device resources on `timeline`, naming them
    /// `"{prefix}HtD"`, `"{prefix}GPU"` and `"{prefix}DtH"`.
    pub fn register(timeline: &mut Timeline, prefix: &str) -> Self {
        PipelineResources {
            htod: timeline.add_resource(format!("{prefix}HtD")),
            gpu: timeline.add_resource(format!("{prefix}GPU")),
            dtoh: timeline.add_resource(format!("{prefix}DtH")),
        }
    }
}

/// How one device streams its chunks through
/// [`PipelineSchedule::schedule_chunks_on`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStream {
    /// Earliest start of the first upload.
    pub start: SimTime,
    /// Device-memory chunk slots (three with in-place replacement, four
    /// without): an upload waits until the chunk that last held its slot
    /// has begun draining back.  `None` lifts the limit; so does a stream
    /// that does not download.
    pub slots: Option<usize>,
    /// Whether each sorted run returns over the device-to-host stream;
    /// `false` when the runs leave the device another way.
    pub download: bool,
    /// Multiplier on every transfer time (1.0 on a healthy link).
    pub stall: f64,
}

/// The resolved pipeline schedule.
#[derive(Debug, Clone)]
pub struct PipelineSchedule {
    /// The event timeline (HtD, GPU, DtH events per chunk).
    pub timeline: Timeline,
    /// Aggregated stage durations.
    pub breakdown: PipelineBreakdown,
}

impl PipelineSchedule {
    /// Builds the schedule for chunks of `chunk_bytes` bytes whose per-chunk
    /// GPU sorting times are `sort_times`.  `cpu_merge` is the time the CPU
    /// needs to merge the returned runs (zero for a single chunk).
    pub fn build(
        config: &PipelineConfig,
        chunk_bytes: &[u64],
        sort_times: &[SimTime],
        cpu_merge: SimTime,
    ) -> PipelineSchedule {
        let mut timeline = Timeline::new();
        let resources = PipelineResources {
            htod: timeline.add_resource("PCIe HtD"),
            gpu: timeline.add_resource("GPU"),
            dtoh: timeline.add_resource("PCIe DtH"),
        };
        let link: LinkSpec = config.bus.into();
        let stream = ChunkStream {
            start: SimTime::ZERO,
            slots: Some(if config.in_place_replacement { 3 } else { 4 }),
            download: true,
            stall: 1.0,
        };
        let (mut breakdown, _chunk_finishes) = PipelineSchedule::schedule_chunks_on(
            &mut timeline,
            &resources,
            "",
            &link,
            &stream,
            chunk_bytes,
            sort_times,
        );
        breakdown.chunked_sort = timeline.makespan();
        breakdown.cpu_merge = cpu_merge;
        breakdown.end_to_end = breakdown.chunked_sort + cpu_merge;
        PipelineSchedule {
            timeline,
            breakdown,
        }
    }

    /// Schedules one device's chunked upload → sort → download pipeline
    /// onto an *external* timeline, using the device's own [`LinkSpec`].
    ///
    /// This is the multi-device composition primitive: the sharded sort
    /// gives every device of a pool its own three resources on a shared
    /// timeline (links are independent, so devices overlap fully) and runs
    /// this per-device schedule, shaped by `stream`: when it starts, how
    /// many chunk slots bound the uploads, whether runs return to the host
    /// and how degraded the link is.  Event labels are prefixed with
    /// `label_prefix` (e.g. `"dev0 "`).
    ///
    /// The returned breakdown's `chunked_sort` is the finish time of this
    /// device's last chunk on the shared timeline (its download, or its
    /// sort when runs stay on the device); `cpu_merge` is zero (the caller
    /// merges all devices' runs once) and `end_to_end` equals
    /// `chunked_sort`.  The second return value is each chunk's finish
    /// time, in chunk order — callers that need per-chunk bookkeeping use
    /// it instead of reverse-engineering the timeline's event layout.
    pub fn schedule_chunks_on(
        timeline: &mut Timeline,
        resources: &PipelineResources,
        label_prefix: &str,
        link: &LinkSpec,
        stream: &ChunkStream,
        chunk_bytes: &[u64],
        sort_times: &[SimTime],
    ) -> (PipelineBreakdown, Vec<SimTime>) {
        assert_eq!(chunk_bytes.len(), sort_times.len());
        let s = chunk_bytes.len();
        let mut dtoh_start: Vec<SimTime> = Vec::with_capacity(s);
        let mut chunk_finishes: Vec<SimTime> = Vec::with_capacity(s);
        let mut total_htod = SimTime::ZERO;
        let mut total_dtoh = SimTime::ZERO;
        let mut total_sort = SimTime::ZERO;
        let mut finish = SimTime::ZERO;

        for i in 0..s {
            let transfer = |dir| link.transfer_time(dir, chunk_bytes[i]) * stream.stall;
            let up_time = transfer(TransferDirection::HostToDevice);
            total_htod += up_time;
            total_sort += sort_times[i];

            // The upload may have to wait for its chunk slot: the slot is
            // reusable as soon as the previous occupant's return transfer
            // has started draining it (in-place replacement).
            let slot_free = match stream.slots {
                Some(slots) if stream.download && i + 1 >= slots => dtoh_start[i + 1 - slots],
                _ => stream.start,
            };
            let up = timeline.schedule(
                format!("{label_prefix}HtD chunk {i}"),
                resources.htod,
                slot_free,
                up_time,
            );
            let sort = timeline.schedule(
                format!("{label_prefix}sort chunk {i}"),
                resources.gpu,
                up.end,
                sort_times[i],
            );
            let done = if stream.download {
                let down_time = transfer(TransferDirection::DeviceToHost);
                total_dtoh += down_time;
                let down = timeline.schedule(
                    format!("{label_prefix}DtH chunk {i}"),
                    resources.dtoh,
                    sort.end,
                    down_time,
                );
                dtoh_start.push(down.start);
                down.end
            } else {
                sort.end
            };
            chunk_finishes.push(done);
            finish = finish.max(done);
        }

        (
            PipelineBreakdown {
                total_htod,
                total_gpu_sort: total_sort,
                total_dtoh,
                chunked_sort: finish,
                cpu_merge: SimTime::ZERO,
                end_to_end: finish,
            },
            chunk_finishes,
        )
    }

    /// The paper's closed-form approximation of the chunked-sort time:
    /// `T_HtD/s + max(T_HtD, T_S, T_DtH) + T_DtH/s`.
    pub fn closed_form(breakdown: &PipelineBreakdown, s: u32) -> SimTime {
        let s = s.max(1) as f64;
        breakdown.total_htod / s
            + breakdown
                .total_htod
                .max(breakdown.total_gpu_sort)
                .max(breakdown.total_dtoh)
            + breakdown.total_dtoh / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_chunks(total_bytes: u64, s: usize, sort_each_ms: f64) -> (Vec<u64>, Vec<SimTime>) {
        let per = total_bytes / s as u64;
        (vec![per; s], vec![SimTime::from_millis(sort_each_ms); s])
    }

    #[test]
    fn single_chunk_is_strictly_sequential() {
        let cfg = PipelineConfig::default();
        let (bytes, sorts) = uniform_chunks(6_000_000_000, 1, 300.0);
        let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::ZERO);
        let b = &sched.breakdown;
        // No overlap possible: makespan = HtD + sort + DtH.
        let expected = b.total_htod + b.total_gpu_sort + b.total_dtoh;
        assert!((b.chunked_sort.secs() - expected.secs()).abs() < 1e-9);
    }

    #[test]
    fn more_chunks_approach_the_transfer_bound() {
        // Figure 8: with 16 chunks the chunked sort takes only ~16 % longer
        // than a single full HtD transfer.
        let cfg = PipelineConfig::default();
        let total_bytes = 6_000_000_000u64;
        let mut last = f64::INFINITY;
        for s in [2usize, 4, 8, 16] {
            let (bytes, sorts) = uniform_chunks(total_bytes, s, 330.0 / s as f64);
            let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::ZERO);
            let t = sched.breakdown.chunked_sort.secs();
            assert!(t <= last + 1e-9, "s={s}: {t} > {last}");
            last = t;
        }
        let (bytes, sorts) = uniform_chunks(total_bytes, 16, 330.0 / 16.0);
        let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::ZERO);
        let single_htod = sched.breakdown.total_htod.secs();
        let ratio = sched.breakdown.chunked_sort.secs() / single_htod;
        assert!(ratio < 1.35, "ratio = {ratio}");
    }

    #[test]
    fn closed_form_tracks_the_schedule() {
        let cfg = PipelineConfig::default();
        let (bytes, sorts) = uniform_chunks(8_000_000_000, 8, 60.0);
        let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::ZERO);
        let closed = PipelineSchedule::closed_form(&sched.breakdown, 8);
        let simulated = sched.breakdown.chunked_sort;
        let rel = (closed.secs() - simulated.secs()).abs() / simulated.secs();
        assert!(rel < 0.25, "closed {closed} vs simulated {simulated}");
    }

    #[test]
    fn in_place_replacement_never_slower_than_four_slots_for_equal_chunks() {
        // With equally sized chunks the slot constraint is rarely binding;
        // the in-place strategy's benefit is the *larger* chunks it allows
        // (fewer merge runs), not a faster pipeline for the same chunks.
        let total_bytes = 12_000_000_000u64;
        let (bytes, sorts) = uniform_chunks(total_bytes, 6, 150.0);
        let three = PipelineSchedule::build(
            &PipelineConfig {
                in_place_replacement: true,
                ..Default::default()
            },
            &bytes,
            &sorts,
            SimTime::ZERO,
        );
        let four = PipelineSchedule::build(
            &PipelineConfig {
                in_place_replacement: false,
                ..Default::default()
            },
            &bytes,
            &sorts,
            SimTime::ZERO,
        );
        // The stricter dependency can only delay things.
        assert!(three.breakdown.chunked_sort >= four.breakdown.chunked_sort);
        // But the delay is bounded by the slack in the pipeline.
        assert!(three.breakdown.chunked_sort.secs() <= four.breakdown.chunked_sort.secs() * 1.5);
    }

    #[test]
    fn merge_time_is_added_to_the_end_to_end_duration() {
        let cfg = PipelineConfig::default();
        let (bytes, sorts) = uniform_chunks(4_000_000_000, 4, 80.0);
        let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::from_secs(1.5));
        assert!(
            (sched.breakdown.end_to_end.secs() - sched.breakdown.chunked_sort.secs() - 1.5).abs()
                < 1e-9
        );
    }

    #[test]
    fn timeline_contains_three_events_per_chunk() {
        let cfg = PipelineConfig::default();
        let (bytes, sorts) = uniform_chunks(1_000_000_000, 5, 10.0);
        let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::ZERO);
        assert_eq!(sched.timeline.events().len(), 15);
        let rendered = sched.timeline.render();
        assert!(rendered.contains("sort chunk 4"));
        assert!(rendered.contains("DtH chunk 0"));
    }
}
