//! The sharded multi-device sorting engine.
//!
//! [`ShardedSorter`] runs one logical sort across the devices of a
//! [`DevicePool`] as a loop of *rounds*.  Each round
//!
//! 1. **partitions** the pending elements over the alive devices (host,
//!    measured): splitters are selected from MSD digit histograms
//!    ([`crate::partition`]) so that the expected shard sizes are
//!    proportional to the devices' capacity weights, and the elements are
//!    scattered into one shard per device — or, for the peer exchange,
//!    carved into contiguous capacity-weighted slabs;
//! 2. **cuts** every shard into units of work: the whole shard in core,
//!    its [`crate::OocPlan`] chunks out of core;
//! 3. **consults the fault plan**, serially in (device, unit) order, then
//!    sorts the surviving units for real with the full
//!    [`HybridRadixSorter`]: simulated devices fan out over the host
//!    executor, one task per device with its units in stream order
//!    through the device lane, and CPU-socket units sort afterwards in
//!    isolation, so host contention cannot inflate the wall-clock they
//!    report;
//! 4. **schedules** the units on the shared [`gpu_sim::Timeline`] — every
//!    device streams its units over its own link, so uploads, sorts and
//!    downloads overlap within a device and devices overlap completely —
//!    and requeues whatever the faults handed back for the next round.
//!
//! A fault-free sort is round 0 with nothing requeued; [`crate::recovery`]
//! describes the retry rounds.  After the rounds, one recombination step
//! runs once on all finished runs, directly or after the peer exchange of
//! [`crate::exchange`].  Its host step (`ShardedSorter::recombine`)
//! concatenates runs that tile the key space — the range shards of an
//! in-core sort, retry rounds' sub-ranges, the exchange's output ranges —
//! and runs the p-way merge of [`hetero::parallel_merge_sorted_runs_by`]
//! only over runs that overlap: out-of-core chunks (the modeled merge
//! overlaps the chunk stream) and exchange orphans.

use crate::device_pool::DevicePool;
use crate::exchange::{carve_slabs, slab_lengths, RecombineStrategy};
use crate::partition::{compute_splitters_with, scatter_into_shards, PartitionConfig, SplitterSet};
use crate::recovery::{RecoveryConfig, SortError};
use crate::report::{FaultEvent, OocChunkSpan, RequestSpan, ShardReport, ShardedReport};
use crate::telemetry_paths as tp;
use gpu_sim::{FaultPlan, SimTime, Timeline};
use hetero::chunking::{split_into_chunks, ChunkPlan};
use hetero::multiway_merge::parallel_merge_sorted_runs_by;
use hetero::pipeline::{ChunkStream, PipelineResources, PipelineSchedule};
use hrs_core::{Executor, HybridRadixSorter, SharedMut, SortReport};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use telemetry::Inspector;
use workloads::keys::SortKey;
use workloads::pairs::SortValue;

/// How many chunks an in-core shard's transfers are split into, so its
/// upload, sort and download overlap on the device.
const CHUNKS_PER_SHARD: usize = 4;

/// A sorter that shards one input across several devices (simulated GPUs
/// and/or real CPU sockets).
#[derive(Debug)]
pub struct ShardedSorter {
    pub(crate) pool: DevicePool,
    pub(crate) template: HybridRadixSorter,
    pub(crate) merge_threads: usize,
    pub(crate) ooc: crate::ooc::OocConfig,
    pub(crate) host_exec: Executor,
    /// One persistent [`HybridRadixSorter`] per pool device ("device
    /// lane").  Each lane owns its own [`hrs_core::ScratchArena`], so
    /// repeated sorts through one `ShardedSorter` — the steady state of the
    /// batch sort service — perform no per-sort scratch allocation once the
    /// lanes are warm.  Built lazily on first use; invalidated by the
    /// builders that change what a lane would be ([`Self::with_sorter`],
    /// [`Self::with_pool`]).  `try_lock` with an ephemeral fallback keeps
    /// concurrent sorts through one sorter safe (they simply skip lane
    /// reuse), mirroring the arena handling inside `HybridRadixSorter`.
    pub(crate) lanes: Mutex<Vec<HybridRadixSorter>>,
    /// The observability hub every layer reports into.  Each sorter starts
    /// with a private [`Inspector`]; [`Self::with_telemetry`] swaps in a
    /// shared one so the sort service (and anything else holding a clone)
    /// sees engine, lane and out-of-core metrics in one snapshot tree.
    pub(crate) inspector: Inspector,
    /// Injected fault script ([`gpu_sim::FaultPlan`]); `None` sorts clean.
    pub(crate) faults: Option<FaultPlan>,
    /// Retry/backoff policy of the round loop.
    pub(crate) recovery: RecoveryConfig,
    /// How sorted shards are recombined ([`RecombineStrategy`]).
    pub(crate) recombine: RecombineStrategy,
}

impl ShardedSorter {
    /// A sharded sorter over an explicit device pool, using the paper's
    /// default hybrid-radix-sort configuration on every device.  Host-side
    /// phases (partition scatter, shard fan-out) run on the machine's
    /// available parallelism.
    pub fn new(pool: DevicePool) -> Self {
        ShardedSorter {
            pool,
            template: HybridRadixSorter::with_defaults(),
            merge_threads: 6,
            ooc: crate::ooc::OocConfig::default(),
            host_exec: Executor::threaded(),
            lanes: Mutex::new(Vec::new()),
            inspector: Inspector::new(),
            faults: None,
            recovery: RecoveryConfig::default(),
            recombine: RecombineStrategy::default(),
        }
    }

    /// Four Titan X (Pascal) cards on independent PCIe 3.0 links.
    pub fn with_defaults() -> Self {
        ShardedSorter::new(DevicePool::titan_cluster(4))
    }

    /// Replaces the per-device sorter template (its device model is
    /// overridden per shard by each pool device's spec).
    pub fn with_sorter(mut self, template: HybridRadixSorter) -> Self {
        self.template = template;
        self.lanes = Mutex::new(Vec::new());
        self
    }

    /// Replaces the device pool.
    pub fn with_pool(mut self, pool: DevicePool) -> Self {
        self.pool = pool;
        self.lanes = Mutex::new(Vec::new());
        self
    }

    /// Sets the host-side merge thread count.
    pub fn with_merge_threads(mut self, threads: usize) -> Self {
        self.merge_threads = threads.max(1);
        self
    }

    /// Replaces the out-of-core configuration used by
    /// [`Self::sort_out_of_core`] and its fallible variants.
    pub fn with_ooc_config(mut self, cfg: crate::ooc::OocConfig) -> Self {
        self.ooc = cfg;
        self
    }

    /// Replaces the executor running the host-side phases (the partition
    /// scatter and the shard fan-out).  Per-shard *device* execution is
    /// chosen by each device's [`crate::DeviceBackend`] instead.
    pub fn with_host_executor(mut self, exec: Executor) -> Self {
        self.host_exec = exec;
        self
    }

    /// Installs an injected-fault script.  Every sort consults it once per
    /// unit of work (and once more mid-exchange): failed devices are marked
    /// dead in the pool, their work is requeued onto the survivors with
    /// bounded retries and exponential simulated backoff, and every fault
    /// is recorded in [`ShardedReport::faults`] and telemetry.  Clones of
    /// the sorter share the plan's fired/op state.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Replaces the retry/backoff policy of the round loop.
    pub fn with_recovery_config(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = cfg;
        self
    }

    /// Selects how sorted shards are recombined: the host p-way merge
    /// (the default), the peer-to-peer all-to-all bucket exchange over the
    /// pool's [`gpu_sim::PeerTopology`], or a cost-model-driven pick per
    /// sort ([`RecombineStrategy::Auto`]).  Out-of-core sorts always keep
    /// the chunk-streamed host merge — their tail merge overlaps the chunk
    /// stream instead.
    pub fn with_recombine_strategy(mut self, strategy: RecombineStrategy) -> Self {
        self.recombine = strategy;
        self
    }

    /// The configured recombination strategy (possibly `Auto`; see
    /// [`Self::resolve_recombine`] for the per-sort resolution).
    pub fn recombine_strategy(&self) -> RecombineStrategy {
        self.recombine
    }

    /// The installed fault script, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Whether a sort may still need retry rounds: an unexhausted fault
    /// script is installed, or a pool device has been marked dead (the
    /// partition then runs over the survivors only).
    pub fn fault_path_active(&self) -> bool {
        self.pool.any_dead() || self.faults.as_ref().is_some_and(|p| !p.is_exhausted())
    }

    /// Reports into `inspector` instead of the sorter's private one, so
    /// several components (the sort service, bench harnesses) share one
    /// snapshot tree.  Device lanes are invalidated so they re-register
    /// their probes on the new inspector.
    pub fn with_telemetry(mut self, inspector: &Inspector) -> Self {
        self.inspector = inspector.clone();
        self.lanes = Mutex::new(Vec::new());
        self
    }

    /// The observability hub this sorter reports into.  Call
    /// [`Inspector::snapshot`] on it at any moment — mid-sort included —
    /// for the live metric tree.
    pub fn inspector(&self) -> &Inspector {
        &self.inspector
    }

    /// The device pool in use.
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// Retained scratch-arena footprint of every device lane (empty until
    /// the first sort builds the lanes).  Two snapshots around a repeated
    /// same-size sort must be identical — the regression hook behind the
    /// sort service's zero-steady-state-allocation claim.
    pub fn lane_arena_stats(&self) -> Vec<hrs_core::ArenaStats> {
        self.lanes
            .lock()
            .map(|lanes| lanes.iter().map(|l| l.arena_stats()).collect())
            .unwrap_or_default()
    }

    /// Sorts `keys` across the pool and returns the aggregated report.
    ///
    /// Panics if recovery fails under an injected fault script (every
    /// device dead, or retries exhausted); use [`Self::try_sort`] for the
    /// fallible form.
    pub fn sort<K: SortKey>(&self, keys: &mut Vec<K>) -> ShardedReport {
        self.run(keys, &mut Vec::<()>::new(), false, None)
            .expect("sharded sort failed; use try_sort to handle device loss")
    }

    /// Fallible counterpart of [`Self::sort`]: returns a typed
    /// [`SortError`] with `keys` restored (unsorted, never lost) when the
    /// pool cannot finish the sort.
    pub fn try_sort<K: SortKey>(&self, keys: &mut Vec<K>) -> Result<ShardedReport, SortError> {
        self.run(keys, &mut Vec::<()>::new(), false, None)
    }

    /// Sorts `keys` across the pool, permuting `values` along with them.
    /// Panics on recovery failure like [`Self::sort`].
    pub fn sort_pairs<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
    ) -> ShardedReport {
        self.run(keys, values, false, None)
            .expect("sharded pair sort failed; use try_sort_batch_pairs to handle device loss")
    }

    /// Batch-aware entry point: sorts the concatenation of several
    /// requests' keys as one sharded sort and records each request's
    /// [`RequestSpan`] in the report, so a batching front end can hand
    /// every requester its slice of the shared schedule.
    ///
    /// `request_lens` lists each request's element count in submission
    /// order; the lengths must sum to `keys.len()` (checked before any
    /// work, so a mismatch panics with `keys` untouched).  Note the output
    /// is the *globally* sorted batch — demultiplexing interleaved
    /// requests back apart is the caller's job (the `sort_service` crate
    /// tags keys with their request slot for exactly this).
    pub fn sort_batch<K: SortKey>(
        &self,
        keys: &mut Vec<K>,
        request_lens: &[usize],
    ) -> ShardedReport {
        self.run(keys, &mut Vec::<()>::new(), false, Some(request_lens))
            .expect("sharded batch sort failed; use try_sort_batch_pairs to handle device loss")
    }

    /// Fallible batch-aware pair sort: like [`Self::sort_batch`], with a
    /// value permuted along with every key (the service uses the value as
    /// the demux tag).
    pub fn try_sort_batch_pairs<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
        request_lens: &[usize],
    ) -> Result<ShardedReport, SortError> {
        self.run(keys, values, false, Some(request_lens))
    }

    /// Sorts `keys` across the pool through the out-of-core chunked
    /// pipeline, so the input may exceed every device's memory budget (and
    /// the sum of device memories).  Functionally identical to
    /// [`Self::sort`]; the schedule models each device streaming its shard
    /// chunk by chunk over its own link.
    pub fn sort_out_of_core<K: SortKey>(&self, keys: &mut Vec<K>) -> ShardedReport {
        self.run(keys, &mut Vec::<()>::new(), true, None)
            .expect("out-of-core sort failed; use try_sort_out_of_core to handle device loss")
    }

    /// Fallible counterpart of [`Self::sort_out_of_core`].
    pub fn try_sort_out_of_core<K: SortKey>(
        &self,
        keys: &mut Vec<K>,
    ) -> Result<ShardedReport, SortError> {
        self.run(keys, &mut Vec::<()>::new(), true, None)
    }

    /// Batch-aware out-of-core entry point used by the service's
    /// over-budget lane: records the single request's [`RequestSpan`] in
    /// the report (the lane never coalesces, so the span covers the whole
    /// input).
    pub fn try_sort_out_of_core_batch<K: SortKey>(
        &self,
        keys: &mut Vec<K>,
    ) -> Result<ShardedReport, SortError> {
        let whole = [keys.len()];
        self.run(keys, &mut Vec::<()>::new(), true, Some(&whole))
    }

    /// Pair counterpart of [`Self::try_sort_out_of_core_batch`].
    pub fn try_sort_out_of_core_batch_pairs<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
    ) -> Result<ShardedReport, SortError> {
        let whole = [keys.len()];
        self.run(keys, values, true, Some(&whole))
    }

    /// The per-device lane sorter: the template specialised to pool device
    /// `i`'s hardware model, executor and telemetry prefix.
    pub(crate) fn lane_sorter(&self, i: usize) -> HybridRadixSorter {
        let device = &self.pool.devices()[i];
        self.template
            .clone()
            .with_device(device.spec.clone())
            .with_executor(device.backend.executor())
            .with_telemetry(&self.inspector, &format!("core/dev{i}"))
    }

    /// The round loop behind every entry point (see the module docs).
    fn run<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
        out_of_core: bool,
        request_lens: Option<&[usize]>,
    ) -> Result<ShardedReport, SortError> {
        let n = keys.len();
        let requests = request_lens.map_or_else(Vec::new, |lens| request_spans(n, lens));
        assert!(
            std::mem::size_of::<V>() == 0 || values.len() == n,
            "keys and values must have the same length"
        );
        // Key-only sorts carry a zero-sized value per key (free to
        // materialise), so shards always carve symmetrically.
        values.resize(n, V::default());
        let value_bytes = std::mem::size_of::<V>() as u32;
        let elem_bytes = K::BYTES as u64 + value_bytes as u64;
        let peer = !out_of_core
            && self.resolve_recombine(n as u64 * elem_bytes) == RecombineStrategy::PeerExchange;
        let clock = Instant::now();
        let p = self.pool.len();

        // Reuse the persistent device lanes (and their warm scratch
        // arenas) when they are free; a concurrent sort through the same
        // sorter falls back to ephemeral lanes instead of blocking.
        let mut fallback: Option<Vec<HybridRadixSorter>> = None;
        let mut guard = self.lanes.try_lock().ok();
        let lanes: &mut Vec<HybridRadixSorter> = match guard.as_deref_mut() {
            Some(lanes) => lanes,
            None => fallback.get_or_insert_with(Vec::new),
        };
        if lanes.len() != p {
            *lanes = (0..p).map(|i| self.lane_sorter(i)).collect();
        }
        let lanes: &[HybridRadixSorter] = lanes;

        let mut r = Rounds::new(p, out_of_core, peer, elem_bytes);
        let mut pending = (std::mem::take(keys), std::mem::take(values));
        let mut round = 0u32;
        let mut start = SimTime::ZERO;
        let failure = loop {
            let alive = self.pool.alive_indices();
            if alive.is_empty() {
                break Some(SortError::AllDevicesDead { failed: p });
            }
            if round > self.recovery.max_retries {
                break Some(SortError::RetriesExhausted {
                    retries: self.recovery.max_retries,
                    unsorted: pending.0.len() as u64,
                });
            }
            let mut shards = self.partition_round(&mut r, &mut pending, &alive, round);
            self.sort_shards(lanes, &mut shards);
            if peer {
                // The mid-exchange fault point: a device holding a sorted
                // slab takes it down with it (or hands it back corrupt),
                // or runs its exchange legs stalled.
                for shard in &mut shards {
                    let len = shard.units.iter().map(|u| u.keys.len()).sum();
                    if len == 0 {
                        continue;
                    }
                    match self.next_fault(shard.device, round, len, &mut r.events) {
                        Some(f) => r.xstall[shard.device] = r.xstall[shard.device].max(f),
                        None => {
                            for u in shard.units.drain(..) {
                                requeue(&mut pending, u.keys, u.vals);
                            }
                        }
                    }
                }
            }
            for shard in shards {
                // A shard whose every element went back to pending did no
                // work worth reporting.
                if !shard.units.is_empty() || shard.partitioned == 0 {
                    self.schedule_shard(&mut r, shard, start, round);
                }
            }
            if pending.0.is_empty() {
                break None;
            }
            // This round's faults wait out an exponential simulated backoff
            // before their requeue round starts.
            let delay = self.recovery.backoff * 2f64.powi(round as i32);
            for ev in r.events.iter_mut().filter(|e| e.round == round) {
                ev.backoff = delay;
            }
            start = r.tl.makespan() + delay;
            round += 1;
        };
        drop(guard);

        if let Some(err) = failure {
            // Restore every element — sorted runs and still-pending alike —
            // so the caller's data survives the failure unsorted but whole.
            for run in r.runs.drain(..) {
                requeue(&mut pending, run.keys, run.vals);
            }
            (*keys, *values) = pending;
            self.note_fault_outcomes(&r.events, round, clock.elapsed(), out_of_core);
            return Err(err);
        }
        drop(pending);

        let (exchange, outputs) = if peer {
            self.exchange(&mut r)
        } else {
            (Vec::new(), Vec::new())
        };
        let critical_path = r.tl.makespan();

        // The host step (measured): recombine every finished run, or the
        // exchange's output runs — a concatenation when they tile the key
        // space, the p-way merge when they overlap.
        let merge_span = self
            .inspector
            .span_with("multi_gpu/merge", "multi_gpu/merge_ns");
        let runs = if peer {
            outputs
        } else {
            let take =
                |u: &mut Unit<K, V>| (std::mem::take(&mut u.keys), std::mem::take(&mut u.vals));
            r.runs.iter_mut().map(take).collect()
        };
        (*keys, *values) = self.recombine(runs);
        let measured_merge = merge_span.finish();

        let merge_total = SimTime::from_secs(measured_merge.as_secs_f64());
        let partition = SimTime::from_secs(r.measured_partition.as_secs_f64());
        let merge_overlap = out_of_core
            .then(|| crate::ooc::overlap_merge_tail(&mut r.tl, &r.ooc_chunks, merge_total))
            .flatten();
        let end_to_end = if merge_overlap.is_some() {
            partition + r.tl.makespan()
        } else {
            partition + critical_path + merge_total
        };
        let mut combined = SortReport::new(0, K::BYTES, value_bytes);
        for run in &r.runs {
            combined.absorb(&run.report);
        }
        for ev in &mut r.events {
            ev.recovered = true;
        }
        let (devices, shards): (Vec<usize>, Vec<ShardReport>) = r.shards.into_iter().unzip();
        let (splitters, _) = r.first.expect("round 0 always partitions");
        let report = ShardedReport {
            n: n as u64,
            key_bytes: K::BYTES,
            value_bytes,
            shards,
            splitters,
            critical_path,
            measured_partition: r.measured_partition,
            measured_merge,
            end_to_end,
            combined,
            timeline: r.tl,
            requests,
            ooc_chunks: r.ooc_chunks,
            faults: r.events,
            recombine: if peer {
                RecombineStrategy::PeerExchange
            } else {
                RecombineStrategy::HostMerge
            },
            exchange,
        };
        self.note_sort(
            &report,
            &devices,
            &r.moved,
            elem_bytes,
            out_of_core,
            merge_overlap,
        );
        self.note_fault_outcomes(&report.faults, round, clock.elapsed(), out_of_core);
        Ok(report)
    }

    /// Steps 1–3 up to the sort: partitions `pending` over the `alive`
    /// devices, cuts every shard into units and consults the fault plan
    /// for each unit, handing faulted units straight back to `pending`.
    fn partition_round<K: SortKey, V: SortValue>(
        &self,
        r: &mut Rounds<K, V>,
        pending: &mut Elements<K, V>,
        alive: &[usize],
        round: u32,
    ) -> Vec<Shard<K, V>> {
        let span = self
            .inspector
            .span_with("multi_gpu/partition", "multi_gpu/partition_ns");
        let devices = self.pool.devices();
        let weights: Vec<f64> = alive
            .iter()
            .map(|&g| devices[g].capacity_weight())
            .collect();
        let cfg = PartitionConfig::default();
        let splitters = compute_splitters_with(&pending.0, &weights, &cfg, &self.host_exec);
        let (shard_keys, shard_vals) = if r.peer {
            let lens = slab_lengths(pending.0.len(), &weights);
            carve_slabs(&mut pending.0, &mut pending.1, &lens)
        } else {
            scatter_into_shards(&mut pending.0, &mut pending.1, &splitters, &self.host_exec)
        };
        // The shards own every element now; pending only collects what
        // this round's faults hand back.
        pending.0.shrink_to_fit();
        pending.1.shrink_to_fit();
        r.measured_partition += span.finish();
        let ranges = splitters.ranges();
        r.first.get_or_insert_with(|| (splitters, alive.to_vec()));

        let mut shards = Vec::with_capacity(alive.len());
        for (l, (mut ks, mut vs)) in shard_keys.into_iter().zip(shard_vals).enumerate() {
            let g = alive[l];
            if !self.pool.alive(g) {
                // Died since alive_indices() (a concurrent sort sharing this
                // pool): requeue the whole shard untouched.
                requeue(pending, ks, vs);
                continue;
            }
            let plan = if r.out_of_core {
                self.ooc.plan_for(&devices[g], ks.len(), r.elem_bytes)
            } else {
                ChunkPlan {
                    ranges: vec![(0, ks.len())],
                }
            };
            let mut shard = Shard {
                device: g,
                range: ranges[l],
                partitioned: ks.len(),
                stall: 1.0,
                units: Vec::with_capacity(plan.num_chunks()),
            };
            // Carve back to front; chunk 0 keeps the shard's own buffers.
            let mut pieces: Vec<(usize, Vec<K>, Vec<V>)> = Vec::new();
            for &(at, _) in plan.ranges.iter().skip(1).rev() {
                pieces.push((at, ks.split_off(at), vs.split_off(at)));
            }
            if !plan.ranges.is_empty() {
                pieces.push((0, ks, vs));
            }
            let mut dead = false;
            for (chunk, (offset, ck, cv)) in pieces.into_iter().rev().enumerate() {
                let stall = if dead {
                    // Lost with the device; its failure event absorbs the
                    // requeued volume.
                    if let Some(ev) = r.events.last_mut() {
                        ev.requeued += ck.len() as u64;
                    }
                    None
                } else if ck.is_empty() {
                    Some(1.0)
                } else {
                    self.next_fault(g, round, ck.len(), &mut r.events)
                };
                match stall {
                    Some(f) => {
                        shard.stall = shard.stall.max(f);
                        shard.units.push(Unit {
                            device: g,
                            chunk,
                            offset: offset as u64,
                            keys: ck,
                            vals: cv,
                            report: SortReport::new(0, K::BYTES, 0),
                            measured: Duration::ZERO,
                            ready: SimTime::ZERO,
                        });
                    }
                    None => {
                        dead = !self.pool.alive(g);
                        requeue(pending, ck, cv);
                    }
                }
            }
            shards.push(shard);
        }
        shards
    }

    /// Sorts every unit for real through its device's lane.  Simulated
    /// devices fan out over the host executor, one task per device sorting
    /// its units in stream order (a real device sorts one unit at a time,
    /// and serial lane use keeps the warm arena uncontended).  CPU-socket
    /// units then sort one device at a time on an otherwise idle host,
    /// because their measured wall-clock *is* the schedule input.
    fn sort_shards<K: SortKey, V: SortValue>(
        &self,
        lanes: &[HybridRadixSorter],
        shards: &mut [Shard<K, V>],
    ) {
        let measured = |s: &Shard<K, V>| self.pool.devices()[s.device].backend.is_measured();
        let simulated: Vec<usize> = (0..shards.len())
            .filter(|&i| !measured(&shards[i]))
            .collect();
        {
            let view = SharedMut::new(&mut *shards);
            self.host_exec.for_each_task(simulated.len(), |t, _worker| {
                // SAFETY: shard indices are distinct across tasks, so task
                // `t` exclusively owns shard `simulated[t]`.
                let shard = unsafe { &mut view.slice_mut(simulated[t], 1)[0] };
                shard.sort_units(&lanes[shard.device]);
            });
        }
        for shard in shards.iter_mut().filter(|s| measured(s)) {
            shard.sort_units(&lanes[shard.device]);
        }
    }

    /// Step 4: streams one shard's sorted units over its device's link,
    /// starting no earlier than `start`, and files the shard's report, its
    /// out-of-core chunk spans and its runs.  In core the shard's one unit
    /// streams in [`CHUNKS_PER_SHARD`] chunks, each carrying its share of
    /// the sort time; out of core every unit is one pipeline chunk bound
    /// by the device's chunk slots.  Runs leaving through the peer
    /// exchange are not downloaded.
    fn schedule_shard<K: SortKey, V: SortValue>(
        &self,
        r: &mut Rounds<K, V>,
        shard: Shard<K, V>,
        start: SimTime,
        round: u32,
    ) {
        let g = shard.device;
        let device = &self.pool.devices()[g];
        let measured = device.backend.is_measured();
        // Simulated GPUs contribute their modelled kernel time; a CPU
        // socket contributes the wall-clock its threaded sort really took.
        let sort_time = |u: &Unit<K, V>| {
            if measured {
                SimTime::from_secs(u.measured.as_secs_f64())
            } else {
                u.report.simulated.total
            }
        };
        let eb = r.elem_bytes;
        let (bytes, sorts): (Vec<u64>, Vec<SimTime>) = if r.out_of_core {
            let chunk = |u: &Unit<K, V>| (u.keys.len() as u64 * eb, sort_time(u));
            shard.units.iter().map(chunk).unzip()
        } else {
            shard
                .units
                .iter()
                .flat_map(|u| {
                    let (len, total) = (u.keys.len(), sort_time(u));
                    let plan = split_into_chunks(len, CHUNKS_PER_SHARD.min(len));
                    plan.ranges.into_iter().map(move |(a, b)| {
                        ((b - a) as u64 * eb, total * ((b - a) as f64 / len as f64))
                    })
                })
                .unzip()
        };
        let stream = ChunkStream {
            start,
            slots: r.out_of_core.then(|| self.ooc.slots() as usize),
            download: !r.peer,
            stall: shard.stall,
        };
        let (stage, finishes) = PipelineSchedule::schedule_chunks_on(
            &mut r.tl,
            &r.res[g],
            &format!("dev{g} r{round} "),
            &device.link,
            &stream,
            &bytes,
            &sorts,
        );
        let n: usize = shard.units.iter().map(|u| u.keys.len()).sum();
        r.moved[g] += (if r.peer { n } else { 2 * n }) as u64;
        if r.out_of_core {
            for ((u, &sort), &finish) in shard.units.iter().zip(&sorts).zip(&finishes) {
                r.ooc_chunks.push(OocChunkSpan {
                    device: g,
                    chunk: u.chunk,
                    offset: u.offset,
                    len: u.keys.len() as u64,
                    sort,
                    finish,
                });
            }
        }
        let report = ShardReport {
            device: device.spec.name.clone(),
            link: device.link.kind.label().to_string(),
            n: n as u64,
            range: shard.range,
            report: merged_report(shard.units.iter().map(|u| &u.report)),
            upload: stage.total_htod,
            gpu_sort: stage.total_gpu_sort,
            download: stage.total_dtoh,
            finish: stage.chunked_sort,
            measured_sort: measured.then(|| shard.units.iter().map(|u| u.measured).sum()),
        };
        r.shards.push((g, report));
        r.runs.extend(shard.units.into_iter().map(|u| Unit {
            ready: stage.chunked_sort,
            ..u
        }));
    }

    /// The host recombination step over sorted runs handed over in any
    /// order.  Empty runs are dropped and the rest ordered by first key;
    /// when every run's last key is strictly below the next run's first
    /// key (in radix order) the runs tile the key space and are
    /// concatenated: each is appended to the first one's buffers and freed.
    /// Otherwise (out-of-core chunks, exchange orphans) they go through
    /// [`Self::merge_runs`] in the order given.  The strict test keeps the
    /// two arms byte-identical, values included: no key of one run equals
    /// a key of another, so the merge could only concatenate.
    pub(crate) fn recombine<K: SortKey, V: SortValue>(
        &self,
        mut runs: Vec<Elements<K, V>>,
    ) -> Elements<K, V> {
        runs.retain(|(k, _)| !k.is_empty());
        let mut spans: Vec<(u64, u64)> = runs
            .iter()
            .map(|(k, _)| (k[0].to_radix(), k[k.len() - 1].to_radix()))
            .collect();
        spans.sort_unstable();
        if !spans.windows(2).all(|w| w[0].1 < w[1].0) {
            self.inspector.counter(tp::RECOMBINE_MERGED).inc();
            let refs: Vec<(&[K], &[V])> = runs.iter().map(|(k, v)| (&k[..], &v[..])).collect();
            return self.merge_runs(&refs);
        }
        self.inspector.counter(tp::RECOMBINE_CONCATENATED).inc();
        let n = runs.iter().map(|run| run.0.len()).sum::<usize>();
        runs.sort_unstable_by_key(|(k, _)| k[0].to_radix());
        let mut runs = runs.into_iter();
        let Some((mut keys, mut vals)) = runs.next() else {
            return (Vec::new(), Vec::new());
        };
        keys.reserve_exact(n - keys.len());
        vals.reserve_exact(n - vals.len());
        for (mut k, mut v) in runs {
            keys.append(&mut k);
            vals.append(&mut v);
        }
        (keys, vals)
    }

    /// Zips every run's keys with its values, p-way merges the runs on
    /// `merge_threads` host threads and unzips the result.
    pub(crate) fn merge_runs<K: SortKey, V: SortValue>(
        &self,
        runs: &[(&[K], &[V])],
    ) -> (Vec<K>, Vec<V>) {
        let zipped: Vec<Vec<(K, V)>> = runs
            .iter()
            .map(|(ks, vs)| ks.iter().copied().zip(vs.iter().copied()).collect())
            .collect();
        let refs: Vec<&[(K, V)]> = zipped.iter().map(Vec::as_slice).collect();
        let merged = parallel_merge_sorted_runs_by(&refs, self.merge_threads, |p| p.0.to_radix());
        (
            merged.iter().map(|&(k, _)| k).collect(),
            merged.into_iter().map(|(_, v)| v).collect(),
        )
    }

    /// Records the engine-level metrics of one completed sort: sort/key
    /// counters; per device its host-link transfer bytes, utilisation
    /// (fraction of its span spent sorting) and overlap ratio (stage-busy
    /// time over span — above 1.0 means transfers genuinely overlapped the
    /// sort); the exchange subtree; and, out of core, the chunk counters,
    /// the pipeline occupancy (the fraction of the pool's three stages
    /// kept busy over the makespan) and how much of the host tail merge
    /// hid under the chunk stream.  `devices[i]` is the device of shard
    /// `i`; `moved[g]` counts the elements device `g` moved over its link.
    fn note_sort(
        &self,
        report: &ShardedReport,
        devices: &[usize],
        moved: &[u64],
        elem_bytes: u64,
        out_of_core: bool,
        merge_overlap: Option<f64>,
    ) {
        let t = &self.inspector;
        t.counter(tp::SORTS).inc();
        t.counter(tp::KEYS).add(report.n);
        crate::exchange::register_exchange_probes(t);
        let dev = |g: usize, leaf: &str| format!("multi_gpu/dev{g}/{leaf}");
        for (g, &elems) in moved.iter().enumerate() {
            t.counter(&dev(g, "transfer_bytes")).add(elems * elem_bytes);
        }
        for (&g, shard) in devices.iter().zip(&report.shards) {
            let span = shard.finish.secs();
            if span > 0.0 {
                t.float_gauge(&dev(g, "utilisation"))
                    .set(shard.gpu_sort.secs() / span);
                let busy = (shard.upload + shard.gpu_sort + shard.download).secs();
                t.float_gauge(&dev(g, "overlap_ratio")).set(busy / span);
            }
        }
        if report.recombine == RecombineStrategy::PeerExchange {
            crate::exchange::note_exchange(t, report);
        }
        if out_of_core {
            crate::ooc::note_ooc(t, report, merge_overlap);
        }
    }
}

impl Default for ShardedSorter {
    fn default() -> Self {
        ShardedSorter::with_defaults()
    }
}

impl Clone for ShardedSorter {
    /// Clones the configuration; the clone starts with cold (empty) device
    /// lanes, so clones can be moved to other threads cheaply.
    fn clone(&self) -> Self {
        ShardedSorter {
            pool: self.pool.clone(),
            template: self.template.clone(),
            merge_threads: self.merge_threads,
            ooc: self.ooc.clone(),
            host_exec: self.host_exec,
            lanes: Mutex::new(Vec::new()),
            inspector: self.inspector.clone(),
            // The fault plan's fired/op state is shared (Arc), so a clone
            // doing the service's sorting consumes the same script.
            faults: self.faults.clone(),
            recovery: self.recovery.clone(),
            recombine: self.recombine,
        }
    }
}

/// Each request's span of a concatenated batch of `total` elements;
/// panics unless the lengths cover the batch exactly.
fn request_spans(total: usize, request_lens: &[usize]) -> Vec<RequestSpan> {
    assert_eq!(
        request_lens.iter().sum::<usize>(),
        total,
        "request lengths must cover the whole batch"
    );
    let mut offset = 0u64;
    request_lens
        .iter()
        .enumerate()
        .map(|(index, &len)| {
            let span = RequestSpan {
                index,
                offset,
                len: len as u64,
            };
            offset += len as u64;
            span
        })
        .collect()
}

/// One report standing for several units: a lone unit's report verbatim,
/// otherwise their fleet-style absorption.
pub(crate) fn merged_report<'a>(reports: impl Iterator<Item = &'a SortReport>) -> SortReport {
    let reports: Vec<&SortReport> = reports.collect();
    match reports[..] {
        [one] => one.clone(),
        _ => {
            let mut all = SortReport::new(0, 0, 0);
            for r in reports {
                all.absorb(r);
            }
            all
        }
    }
}

/// Keys and their values, index-aligned.
pub(crate) type Elements<K, V> = (Vec<K>, Vec<V>);

/// Hands elements back to the pending set of the next round.
fn requeue<K, V>(pending: &mut Elements<K, V>, mut keys: Vec<K>, mut vals: Vec<V>) {
    pending.0.append(&mut keys);
    pending.1.append(&mut vals);
}

/// One unit of work: a whole shard in core, one chunk of it out of core.
pub(crate) struct Unit<K, V> {
    pub(crate) device: usize,
    /// Index of the unit within its shard, in stream order.
    chunk: usize,
    /// Offset of the unit's first element within its shard.
    offset: u64,
    pub(crate) keys: Vec<K>,
    pub(crate) vals: Vec<V>,
    pub(crate) report: SortReport,
    measured: Duration,
    /// When the sorted run is ready on the timeline: downloaded, or —
    /// when it leaves through the peer exchange — sorted on the device.
    pub(crate) ready: SimTime,
}

/// One device's share of one round.
struct Shard<K, V> {
    device: usize,
    /// The radix range the round's splitters gave the device.
    range: (u64, u64),
    /// Elements the partition handed the device.
    partitioned: usize,
    /// Transfer-time multiplier from injected stalls (1.0 = clean).
    stall: f64,
    units: Vec<Unit<K, V>>,
}

impl<K: SortKey, V: SortValue> Shard<K, V> {
    fn sort_units(&mut self, lane: &HybridRadixSorter) {
        for u in &mut self.units {
            let start = Instant::now();
            u.report = lane.sort_pairs(&mut u.keys, &mut u.vals);
            u.measured = start.elapsed();
        }
    }
}

/// Everything the rounds accumulate for the recombination step.
pub(crate) struct Rounds<K, V> {
    pub(crate) out_of_core: bool,
    pub(crate) peer: bool,
    pub(crate) elem_bytes: u64,
    pub(crate) tl: Timeline,
    /// Every device's HtD / GPU / DtH resources on the shared timeline.
    pub(crate) res: Vec<PipelineResources>,
    /// Every sorted unit, in (round, device, unit) order.
    pub(crate) runs: Vec<Unit<K, V>>,
    /// One report per scheduled shard, with its device.
    pub(crate) shards: Vec<(usize, ShardReport)>,
    pub(crate) ooc_chunks: Vec<OocChunkSpan>,
    pub(crate) events: Vec<FaultEvent>,
    /// Elements each device moved over its host link.
    pub(crate) moved: Vec<u64>,
    /// Per-device stall of the exchange legs (1.0 = clean).
    pub(crate) xstall: Vec<f64>,
    /// Round 0's splitters and the devices its shards went to.
    pub(crate) first: Option<(SplitterSet, Vec<usize>)>,
    pub(crate) measured_partition: Duration,
}

impl<K, V> Rounds<K, V> {
    fn new(p: usize, out_of_core: bool, peer: bool, elem_bytes: u64) -> Self {
        let mut tl = Timeline::new();
        let res = (0..p)
            .map(|g| PipelineResources::register(&mut tl, &format!("dev{g} ")))
            .collect();
        Rounds {
            out_of_core,
            peer,
            elem_bytes,
            tl,
            res,
            runs: Vec::new(),
            shards: Vec::new(),
            ooc_chunks: Vec::new(),
            events: Vec::new(),
            moved: vec![0; p],
            xstall: vec![1.0; p],
            first: None,
            measured_partition: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_pool::{DevicePool, SimDevice};
    use gpu_sim::DeviceSpec;
    use hrs_core::SortConfig;
    use workloads::{uniform_keys, KeyCodec, ZipfGenerator};

    fn test_sorter(p: usize) -> ShardedSorter {
        // Scale the on-GPU configuration to the small functional inputs used
        // in tests (same trick as the hetero tests).
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        ShardedSorter::new(DevicePool::titan_cluster(p))
            .with_sorter(gpu)
            .with_merge_threads(4)
    }

    #[test]
    fn sorts_uniform_keys_across_device_counts() {
        let keys = uniform_keys::<u64>(120_000, 1);
        let expected = KeyCodec::std_sorted(&keys);
        for p in [1usize, 2, 4] {
            let mut k = keys.clone();
            let report = test_sorter(p).sort(&mut k);
            assert_eq!(k, expected, "p = {p}");
            assert_eq!(report.shards.len(), p);
            assert_eq!(report.n, 120_000);
            assert!(report.critical_path.secs() > 0.0);
        }
    }

    #[test]
    fn zipf_keys_sort_correctly() {
        let keys: Vec<u64> = ZipfGenerator::paper_keys(100_000, 7);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = test_sorter(4).sort(&mut k);
        assert_eq!(k, expected);
        assert_eq!(report.combined.n, 100_000);
    }

    #[test]
    fn pairs_travel_with_their_keys() {
        let keys = uniform_keys::<u32>(50_000, 3);
        let mut sorted_keys = keys.clone();
        let mut vals: Vec<u32> = (0..50_000).collect();
        let gpu = HybridRadixSorter::new(SortConfig::pairs_32_32().scaled_for(50_000, 500_000_000));
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(3)).with_sorter(gpu);
        let report = sorter.sort_pairs(&mut sorted_keys, &mut vals);
        assert!(workloads::pairs::verify_indexed_pair_sort(
            &keys,
            &sorted_keys,
            &vals
        ));
        assert_eq!(report.value_bytes, 4);
        assert_eq!(report.input_bytes(), 50_000 * 8);
    }

    #[test]
    fn more_devices_shorten_the_critical_path() {
        let keys = uniform_keys::<u64>(200_000, 5);
        let mut last = f64::INFINITY;
        for p in [1usize, 2, 4] {
            let mut k = keys.clone();
            let report = test_sorter(p).sort(&mut k);
            assert!(
                report.critical_path.secs() < last,
                "p = {p}: {} not faster than {last}",
                report.critical_path.secs()
            );
            last = report.critical_path.secs();
        }
    }

    #[test]
    fn heterogeneous_pool_gives_the_fast_device_the_biggest_shard() {
        let pool = DevicePool::new(vec![
            SimDevice::on_nvlink2(DeviceSpec::tesla_p100()),
            SimDevice::on_pcie3(DeviceSpec::gtx_980()),
        ]);
        let keys = uniform_keys::<u64>(150_000, 9);
        let expected = KeyCodec::std_sorted(&keys);
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(75_000, 250_000_000));
        let mut k = keys;
        let report = ShardedSorter::new(pool).with_sorter(gpu).sort(&mut k);
        assert_eq!(k, expected);
        // P100 (580 GB/s) should hold ~3.2x the keys of the GTX 980
        // (180 GB/s).
        let ratio = report.shards[0].n as f64 / report.shards[1].n.max(1) as f64;
        assert!(ratio > 2.0, "capacity-proportional ratio {ratio}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let sorter = test_sorter(4);
        let mut empty: Vec<u64> = Vec::new();
        let report = sorter.sort(&mut empty);
        assert!(empty.is_empty());
        assert_eq!(report.n, 0);
        assert_eq!(report.critical_path, SimTime::ZERO);

        let mut tiny = vec![9u64, 1, 5];
        sorter.sort(&mut tiny);
        assert_eq!(tiny, vec![1, 5, 9]);
    }

    #[test]
    fn cpu_socket_device_sorts_its_shard_for_real() {
        let pool = DevicePool::titan_cluster(2).add_cpu_socket(4);
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        let sorter = ShardedSorter::new(pool).with_sorter(gpu);
        let keys = uniform_keys::<u64>(90_000, 13);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter.sort(&mut k);
        assert_eq!(k, expected);
        assert_eq!(report.shards.len(), 3);
        // The CPU shard carries a measured time, the GPU shards do not.
        assert!(report.shards[2].measured_sort.is_some());
        assert!(report.shards[0].measured_sort.is_none());
        assert!(report.shards[1].measured_sort.is_none());
        assert_eq!(report.shards[2].link, "host-mem");
        // Capacity weighting keeps the CPU shard the smallest.
        assert!(report.shards[2].n < report.shards[0].n);
        assert!(report.shards.iter().map(|s| s.n).sum::<u64>() == 90_000);
    }

    #[test]
    fn host_executor_choice_does_not_change_the_output() {
        let keys = uniform_keys::<u64>(60_000, 17);
        let expected = KeyCodec::std_sorted(&keys);
        for exec in [Executor::Sequential, Executor::with_workers(3)] {
            let mut k = keys.clone();
            let report = test_sorter(4).with_host_executor(exec).sort(&mut k);
            assert_eq!(k, expected, "exec {}", exec.label());
            assert_eq!(report.n, 60_000);
        }
    }

    #[test]
    fn batch_entry_records_request_spans() {
        let lens = [30_000usize, 10_000, 20_000];
        let mut keys = uniform_keys::<u64>(60_000, 21);
        let expected = KeyCodec::std_sorted(&keys);
        let report = test_sorter(2).sort_batch(&mut keys, &lens);
        assert_eq!(keys, expected);
        assert_eq!(report.requests.len(), 3);
        assert_eq!(report.requests[0].offset, 0);
        assert_eq!(report.requests[1].offset, 30_000);
        assert_eq!(report.requests[2].offset, 40_000);
        assert!(report
            .requests
            .iter()
            .zip(lens)
            .all(|(s, l)| s.len == l as u64));
        assert!((report.requests[2].fraction_of(report.n) - 1.0 / 3.0).abs() < 1e-12);
        // Plain sorts carry no request bookkeeping.
        let mut again = uniform_keys::<u64>(10_000, 22);
        assert!(test_sorter(2).sort(&mut again).requests.is_empty());
    }

    #[test]
    #[should_panic(expected = "cover the whole batch")]
    fn batch_entry_rejects_mismatched_lens() {
        let original = uniform_keys::<u64>(1_000, 23);
        let mut keys = original.clone();
        let sorter = test_sorter(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sorter.sort_batch(&mut keys, &[400, 400]);
        }));
        // The lengths are checked before any work: the caller's keys come
        // back untouched, neither sorted nor moved out.
        assert_eq!(keys, original, "a rejected batch must not touch the keys");
        if let Err(panic) = caught {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn device_lanes_are_reused_across_sorts() {
        let sorter = test_sorter(4);
        assert!(sorter.lane_arena_stats().is_empty(), "lanes start cold");
        let keys = uniform_keys::<u64>(100_000, 29);
        let mut k = keys.clone();
        sorter.sort(&mut k); // warm-up builds the lanes
        let warm = sorter.lane_arena_stats();
        assert_eq!(warm.len(), 4);
        assert!(warm.iter().any(|s| s.total_bytes() > 0));
        for _ in 0..2 {
            let mut k = keys.clone();
            sorter.sort(&mut k);
            assert_eq!(
                sorter.lane_arena_stats(),
                warm,
                "lane arenas grew on a repeated same-size sort"
            );
        }
        // Clones start with cold lanes of their own.
        assert!(sorter.clone().lane_arena_stats().is_empty());
    }

    #[test]
    fn telemetry_covers_engine_and_device_lanes() {
        let sorter = test_sorter(2);
        let mut keys = uniform_keys::<u64>(80_000, 33);
        let report = sorter.sort(&mut keys);
        let snap = sorter.inspector().snapshot();
        let mg = snap.node("multi_gpu").unwrap();
        assert_eq!(mg.uint("sorts"), Some(1));
        assert_eq!(mg.uint("keys"), Some(80_000));
        assert_eq!(
            snap.node("multi_gpu/partition_ns").unwrap().uint("count"),
            Some(1)
        );
        assert_eq!(
            snap.node("multi_gpu/merge_ns").unwrap().uint("count"),
            Some(1)
        );
        for i in 0..2 {
            let dev = snap.node(&format!("multi_gpu/dev{i}")).unwrap();
            assert_eq!(
                dev.uint("transfer_bytes"),
                Some(2 * report.shards[i].n * 8),
                "dev{i} moves every element up and down once"
            );
            assert!(dev.double("utilisation").unwrap() > 0.0);
            assert!(dev.double("overlap_ratio").unwrap() > 0.0);
            // The device lanes carry their own core-layer probes.
            let lane = snap.node(&format!("core/dev{i}")).unwrap();
            assert_eq!(lane.uint("sorts"), Some(1));
        }
        assert!(snap.node("spans/multi_gpu/partition").is_some());
        assert!(snap.node("spans/multi_gpu/merge").is_some());
    }

    #[test]
    fn with_telemetry_shares_an_external_inspector() {
        let hub = Inspector::new();
        let sorter = test_sorter(2).with_telemetry(&hub);
        assert!(sorter.inspector().same_as(&hub));
        let mut keys = uniform_keys::<u64>(40_000, 35);
        sorter.sort(&mut keys);
        let mg = hub.snapshot();
        assert_eq!(mg.node("multi_gpu").unwrap().uint("sorts"), Some(1));
        // Clones report into the same shared tree.
        let mut again = uniform_keys::<u64>(40_000, 36);
        sorter.clone().sort(&mut again);
        assert_eq!(
            hub.snapshot().node("multi_gpu").unwrap().uint("sorts"),
            Some(2)
        );
    }

    #[test]
    fn lane_arena_gauges_hold_steady_across_repeated_sorts() {
        let sorter = test_sorter(2);
        let keys = uniform_keys::<u64>(80_000, 37);
        let mut k = keys.clone();
        sorter.sort(&mut k);
        let warm = sorter.inspector().snapshot();
        let warm_bytes = warm
            .node("core/dev0/arena")
            .unwrap()
            .uint("buffer_bytes")
            .unwrap();
        assert!(warm_bytes > 0, "lane arenas retain buffers after a sort");
        for _ in 0..2 {
            let mut k = keys.clone();
            sorter.sort(&mut k);
            let again = sorter
                .inspector()
                .snapshot()
                .node("core/dev0/arena")
                .unwrap()
                .uint("buffer_bytes")
                .unwrap();
            assert_eq!(
                again, warm_bytes,
                "lane arena gauge grew on a repeated same-size sort"
            );
        }
    }

    /// A run of `keys` whose values name the run and the position in it.
    fn run(tag: u32, keys: &[u64]) -> Elements<u64, u32> {
        (
            keys.to_vec(),
            (0..keys.len() as u32).map(|i| tag * 100 + i).collect(),
        )
    }

    /// `(concatenated, merged)` recombine counts of `sorter`.
    fn recombine_counts(sorter: &ShardedSorter) -> (u64, u64) {
        let snap = sorter.inspector().snapshot();
        let count = |leaf| {
            snap.node("multi_gpu/recombine")
                .and_then(|n| n.uint(leaf))
                .unwrap_or(0)
        };
        (count("concatenated"), count("merged"))
    }

    #[test]
    fn recombine_of_empty_runs_is_empty() {
        let sorter = test_sorter(2);
        assert_eq!(sorter.recombine::<u64, u32>(Vec::new()), (vec![], vec![]));
        assert_eq!(
            sorter.recombine(vec![run(0, &[]), run(1, &[])]),
            (vec![], vec![])
        );
        assert_eq!(recombine_counts(&sorter), (2, 0));
    }

    #[test]
    fn recombine_hands_one_run_back_whole() {
        let sorter = test_sorter(2);
        let one = run(3, &[2, 2, 5, 9]);
        assert_eq!(sorter.recombine(vec![one.clone()]), one);
        assert_eq!(recombine_counts(&sorter), (1, 0));
    }

    #[test]
    fn recombine_concatenates_runs_handed_over_out_of_order() {
        let sorter = test_sorter(2);
        let runs = vec![run(0, &[20, 21]), run(1, &[1, 5, 5]), run(2, &[10, 12])];
        let refs: Vec<(&[u64], &[u32])> = runs.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        let merged = sorter.merge_runs(&refs);
        let out = sorter.recombine(runs);
        assert_eq!(out.0, vec![1, 5, 5, 10, 12, 20, 21]);
        assert_eq!(out.1, vec![100, 101, 102, 200, 201, 0, 1]);
        assert_eq!(
            out, merged,
            "concatenation must match the merge byte for byte"
        );
        assert_eq!(recombine_counts(&sorter), (1, 0));
    }

    #[test]
    fn recombine_merges_runs_sharing_a_key_across_the_boundary() {
        let sorter = test_sorter(2);
        let out = sorter.recombine(vec![run(1, &[7, 9]), run(0, &[1, 5, 7])]);
        assert_eq!(out.0, vec![1, 5, 7, 7, 9]);
        // The merge keeps the handed-over order among equal keys.
        assert_eq!(out.1, vec![0, 1, 100, 2, 101]);
        assert_eq!(recombine_counts(&sorter), (0, 1));
    }

    #[test]
    fn recombine_skips_an_empty_run_between_two_others() {
        let sorter = test_sorter(2);
        let out = sorter.recombine(vec![run(0, &[1, 2]), run(1, &[]), run(2, &[3, 4])]);
        assert_eq!(out, (vec![1, 2, 3, 4], vec![0, 1, 200, 201]));
        assert_eq!(recombine_counts(&sorter), (1, 0));
    }

    #[test]
    fn report_bookkeeping_is_consistent() {
        let mut keys = uniform_keys::<u64>(80_000, 11);
        let report = test_sorter(4).sort(&mut keys);
        assert_eq!(report.shards.iter().map(|s| s.n).sum::<u64>(), 80_000);
        assert_eq!(report.combined.n, 80_000);
        // Every shard finished no later than the critical path.
        for s in &report.shards {
            assert!(s.finish <= report.critical_path);
        }
        // The timeline rendered schedule mentions every device.
        let rendered = report.timeline.render();
        for i in 0..4 {
            assert!(rendered.contains(&format!("dev{i}")));
        }
        assert!(report.end_to_end >= report.critical_path);
        assert!(report.shard_imbalance() >= 1.0);
    }
}
