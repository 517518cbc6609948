//! Fault tolerance of the round loop: detection, requeue, retry.
//!
//! The paper's Section 5 pipeline assumes every device completes its
//! schedule.  Production fleets break that assumption: devices die
//! mid-sort, links stall, a shard occasionally comes back corrupt.  The
//! engine's round loop ([`crate::engine`]) absorbs these faults, driven
//! by an injected [`gpu_sim::FaultPlan`]:
//!
//! 1. **Partition over the survivors.**  Every round computes its
//!    splitters from the *alive* devices' capacity weights (elastic pool
//!    resize), so local shard `l` maps to global device `alive[l]` and dead
//!    devices take no work.
//! 2. **Consult the plan once per unit.**  A unit of work is one shard (in
//!    core) or one memory-budget chunk (out of core); the peer exchange
//!    consults each device once more after its local sort, so op 0 of a
//!    device faults its sort and op 1 faults it mid-exchange.  A
//!    `DeviceFail` marks the device dead and requeues everything it still
//!    owed; a `CorruptShard` requeues just that unit; a `TransferStall`
//!    completes with degraded link time; an `EnginePanic` escapes (the
//!    service isolates it with `catch_unwind`).
//! 3. **Retry with exponential backoff in simulated time.**  Requeued
//!    elements are re-partitioned over the (possibly smaller) surviving
//!    set; round `r + 1` starts on the timeline only after round `r`'s
//!    makespan plus `backoff · 2^r`.  Retries are bounded by
//!    [`RecoveryConfig::max_retries`]; exhaustion or a fully dead pool
//!    yields a typed [`SortError`] with the caller's data restored intact
//!    (unsorted, never lost, never corrupt).
//!
//! Every fault is recorded as a [`FaultEvent`] in
//! [`crate::ShardedReport::faults`] and counted under the
//! `multi_gpu/faults/…` telemetry subtree, so dashboards see device
//! failures, requeued volume, recovery latency and retries-per-sort live.

use crate::engine::ShardedSorter;
use crate::report::{FaultEvent, FaultEventKind};
use crate::telemetry_paths as tp;
use gpu_sim::{FaultKind, SimTime};
use std::time::Duration;
use telemetry::Inspector;

/// Why a fault-tolerant sort could not complete.  The input buffers are
/// always restored before one of these is returned — every element the
/// caller handed in is still there, merely unsorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortError {
    /// Every pool device has been marked dead; there is nothing left to
    /// sort on.
    AllDevicesDead {
        /// Total devices in the (now fully dead) pool.
        failed: usize,
    },
    /// The retry budget ran out with elements still unsorted.
    RetriesExhausted {
        /// The retry bound that was exhausted
        /// ([`RecoveryConfig::max_retries`]).
        retries: u32,
        /// Elements still awaiting a successful sort when the engine gave
        /// up.
        unsorted: u64,
    },
}

impl std::fmt::Display for SortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortError::AllDevicesDead { failed } => {
                write!(f, "all {failed} pool devices are dead")
            }
            SortError::RetriesExhausted { retries, unsorted } => write!(
                f,
                "recovery exhausted {retries} retries with {unsorted} elements unsorted"
            ),
        }
    }
}

impl std::error::Error for SortError {}

/// Retry/backoff policy of the round loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Requeue rounds allowed beyond the initial attempt before the sort
    /// resolves to [`SortError::RetriesExhausted`].
    pub max_retries: u32,
    /// Base backoff in simulated time; retry round `r + 1` starts
    /// `backoff · 2^r` after round `r`'s schedule finishes.
    pub backoff: SimTime,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 3,
            backoff: SimTime::from_secs(1e-3),
        }
    }
}

impl RecoveryConfig {
    /// Sets the retry bound.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the base simulated backoff.
    pub fn with_backoff(mut self, backoff: SimTime) -> Self {
        self.backoff = backoff;
        self
    }
}

/// Idempotently registers the `multi_gpu/faults/…` subtree (plus the ooc
/// retry counter) so snapshots always expose fault-handling health.
pub(crate) fn register_fault_probes(t: &Inspector) {
    t.counter(tp::FAULT_DEVICE_FAILURES);
    t.counter(tp::FAULT_SHARD_CORRUPTIONS);
    t.counter(tp::FAULT_TRANSFER_STALLS);
    t.counter(tp::FAULT_REQUEUED_ELEMENTS);
    t.histogram(tp::FAULT_RECOVERY_NS);
    t.histogram(tp::FAULT_RETRIES_PER_SORT);
    t.counter(tp::OOC_RETRIES);
}

impl ShardedSorter {
    /// Consults the fault plan for device `g`'s next op on `len` elements
    /// in `round`, recording any fault in `events`.  Returns the transfer
    /// stall factor the op runs with (1.0 when clean), or `None` when the
    /// op's elements must be requeued (the device died — it is marked dead
    /// in the pool — or returned them corrupt).  An injected engine panic
    /// escapes.
    pub(crate) fn next_fault(
        &self,
        g: usize,
        round: u32,
        len: usize,
        events: &mut Vec<FaultEvent>,
    ) -> Option<f64> {
        let (kind, outcome) = match self.faults.as_ref().and_then(|plan| plan.next_op(g)) {
            None => return Some(1.0),
            Some(FaultKind::EnginePanic) => panic!("injected engine panic on device {g}"),
            Some(FaultKind::DeviceFail) => {
                self.pool.mark_dead(g);
                (FaultEventKind::DeviceFailure, None)
            }
            Some(FaultKind::CorruptShard) => (FaultEventKind::ShardCorruption, None),
            Some(FaultKind::TransferStall { factor }) => {
                (FaultEventKind::TransferStall, Some(factor.max(1.0)))
            }
        };
        events.push(FaultEvent {
            device: g,
            kind,
            round,
            requeued: if outcome.is_none() { len as u64 } else { 0 },
            backoff: SimTime::ZERO,
            recovered: false,
        });
        outcome
    }

    /// Counts one sort's faults into the `multi_gpu/faults/…` subtree
    /// (success and failure alike).
    pub(crate) fn note_fault_outcomes(
        &self,
        events: &[FaultEvent],
        retries: u32,
        elapsed: Duration,
        out_of_core: bool,
    ) {
        let t = &self.inspector;
        register_fault_probes(t);
        for ev in events {
            let path = match ev.kind {
                FaultEventKind::DeviceFailure => tp::FAULT_DEVICE_FAILURES,
                FaultEventKind::ShardCorruption => tp::FAULT_SHARD_CORRUPTIONS,
                FaultEventKind::TransferStall => tp::FAULT_TRANSFER_STALLS,
            };
            t.counter(path).inc();
            t.counter(tp::FAULT_REQUEUED_ELEMENTS).add(ev.requeued);
        }
        if !events.is_empty() || retries > 0 {
            t.histogram(tp::FAULT_RECOVERY_NS).record_duration(elapsed);
            t.histogram(tp::FAULT_RETRIES_PER_SORT)
                .record(retries as u64);
            if out_of_core {
                t.counter(tp::OOC_RETRIES).add(retries as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_pool::{DevicePool, SimDevice};
    use gpu_sim::{DeviceSpec, FaultPlan, FaultSpec};
    use hrs_core::{HybridRadixSorter, SortConfig};
    use workloads::{uniform_keys, KeyCodec};

    fn test_sorter(pool: DevicePool) -> ShardedSorter {
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        ShardedSorter::new(pool)
            .with_sorter(gpu)
            .with_merge_threads(4)
    }

    fn sorted_multiset(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn device_failure_requeues_onto_survivors() {
        let sorter =
            test_sorter(DevicePool::titan_cluster(3)).with_fault_plan(FaultPlan::fail_device(1, 0));
        assert!(sorter.fault_path_active());
        let keys = uniform_keys::<u64>(90_000, 3);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter.try_sort(&mut k).expect("two survivors must recover");
        assert_eq!(k, expected);
        assert_eq!(report.n, 90_000);
        // The pool lost the device for good; recovery was recorded.
        assert!(!sorter.pool().alive(1));
        assert_eq!(sorter.pool().alive_count(), 2);
        assert_eq!(report.faults.len(), 1);
        let ev = &report.faults[0];
        assert_eq!(ev.device, 1);
        assert_eq!(ev.kind, FaultEventKind::DeviceFailure);
        assert_eq!(ev.round, 0);
        assert!(ev.requeued > 0);
        assert!(ev.recovered);
        assert!(ev.backoff.secs() > 0.0);
        assert_eq!(report.requeued_elements(), ev.requeued);
        // Every element was sorted exactly once across the run set.
        assert_eq!(report.shards.iter().map(|s| s.n).sum::<u64>(), 90_000);
        // Telemetry counted the failure and the requeue.
        let snap = sorter.inspector().snapshot();
        let faults = snap.node("multi_gpu/faults").unwrap();
        assert_eq!(faults.uint("device_failures"), Some(1));
        assert_eq!(faults.uint("requeued_elements"), Some(ev.requeued));
        assert!(
            snap.node("multi_gpu/faults/retries_per_sort")
                .unwrap()
                .uint("count")
                .unwrap()
                > 0
        );
        // The next sort still works on the two survivors (retry rounds stay
        // possible forever: the pool has a dead device).
        assert!(sorter.fault_path_active());
        let mut again = uniform_keys::<u64>(30_000, 5);
        let expected2 = KeyCodec::std_sorted(&again);
        let r2 = sorter.try_sort(&mut again).unwrap();
        assert_eq!(again, expected2);
        assert!(r2.faults.is_empty());
    }

    #[test]
    fn corruption_requeues_without_killing_the_device() {
        let sorter = test_sorter(DevicePool::titan_cluster(2))
            .with_fault_plan(FaultPlan::corrupt_shard(0, 0));
        let keys = uniform_keys::<u64>(60_000, 7);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter.try_sort(&mut k).unwrap();
        assert_eq!(k, expected);
        assert_eq!(sorter.pool().alive_count(), 2, "corruption is not death");
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].kind, FaultEventKind::ShardCorruption);
        assert!(report.faults[0].requeued > 0);
        // The plan is exhausted and nobody died: no more retry rounds.
        assert!(!sorter.fault_path_active());
        let mut again = uniform_keys::<u64>(20_000, 8);
        assert!(sorter.try_sort(&mut again).unwrap().faults.is_empty());
    }

    #[test]
    fn transfer_stall_slows_the_schedule_but_loses_nothing() {
        let keys = uniform_keys::<u64>(80_000, 11);
        let expected = KeyCodec::std_sorted(&keys);
        // Clean run under the recovery path (armed plan that never fires
        // on these ops) for an apples-to-apples critical path.
        let clean = test_sorter(DevicePool::titan_cluster(2))
            .with_fault_plan(FaultPlan::stall_transfer(0, 999, 4.0));
        let mut kc = keys.clone();
        let clean_path = clean.try_sort(&mut kc).unwrap().critical_path;
        let stalled = test_sorter(DevicePool::titan_cluster(2))
            .with_fault_plan(FaultPlan::stall_transfer(0, 0, 4.0));
        let mut ks = keys;
        let report = stalled.try_sort(&mut ks).unwrap();
        assert_eq!(ks, expected);
        assert_eq!(report.faults.len(), 1);
        let ev = &report.faults[0];
        assert_eq!(ev.kind, FaultEventKind::TransferStall);
        assert_eq!(ev.requeued, 0, "a stall requeues nothing");
        assert!(
            report.critical_path > clean_path,
            "stalled {} vs clean {clean_path}",
            report.critical_path
        );
    }

    #[test]
    fn all_devices_dead_restores_the_input() {
        let plan = FaultPlan::new(vec![
            FaultSpec {
                device: 0,
                op: 0,
                kind: FaultKind::DeviceFail,
            },
            FaultSpec {
                device: 1,
                op: 0,
                kind: FaultKind::DeviceFail,
            },
        ]);
        let sorter = test_sorter(DevicePool::titan_cluster(2)).with_fault_plan(plan);
        let keys = uniform_keys::<u64>(50_000, 13);
        let mut k = keys.clone();
        let err = sorter.try_sort(&mut k).unwrap_err();
        assert_eq!(err, SortError::AllDevicesDead { failed: 2 });
        assert_eq!(
            sorted_multiset(k),
            sorted_multiset(keys),
            "failure must not lose or corrupt elements"
        );
        assert_eq!(sorter.pool().alive_count(), 0);
        assert!(sorter.pool().is_degraded());
        // The panicking wrappers surface the same condition loudly.
        let mut again = vec![3u64, 1, 2];
        assert!(sorter.try_sort(&mut again).is_err());
    }

    #[test]
    fn retry_budget_is_bounded() {
        // Every op on device 0 of a single-device pool corrupts, so the
        // sort can never complete; it must stop after max_retries rounds.
        let plan = FaultPlan::new(
            (0..16)
                .map(|op| FaultSpec {
                    device: 0,
                    op,
                    kind: FaultKind::CorruptShard,
                })
                .collect(),
        );
        let sorter = test_sorter(DevicePool::titan_cluster(1))
            .with_fault_plan(plan)
            .with_recovery_config(RecoveryConfig::default().with_max_retries(2));
        let keys = uniform_keys::<u64>(10_000, 17);
        let mut k = keys.clone();
        let err = sorter.try_sort(&mut k).unwrap_err();
        assert_eq!(
            err,
            SortError::RetriesExhausted {
                retries: 2,
                unsorted: 10_000
            }
        );
        assert_eq!(sorted_multiset(k), sorted_multiset(keys));
    }

    #[test]
    fn pairs_survive_recovery() {
        let n = 40_000usize;
        let keys = uniform_keys::<u32>(n, 19);
        let mut sorted = keys.clone();
        let mut vals: Vec<u32> = (0..n as u32).collect();
        let gpu = HybridRadixSorter::new(SortConfig::pairs_32_32().scaled_for(50_000, 500_000_000));
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(3))
            .with_sorter(gpu)
            .with_fault_plan(FaultPlan::fail_device(2, 0));
        let report = sorter.sort_pairs(&mut sorted, &mut vals);
        assert!(workloads::pairs::verify_indexed_pair_sort(
            &keys, &sorted, &vals
        ));
        assert!(report.had_faults());
    }

    #[test]
    fn out_of_core_recovery_requeues_chunks() {
        let mut spec = DeviceSpec::titan_x_pascal();
        spec.device_memory_bytes = 1 << 20;
        let pool = DevicePool::homogeneous(2, SimDevice::on_pcie3(spec));
        // Fail device 0 on its second chunk: the first chunk's run stands,
        // the rest of the shard requeues onto device 1.
        let sorter = test_sorter(pool).with_fault_plan(FaultPlan::fail_device(0, 1));
        let keys = uniform_keys::<u64>(200_000, 23);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter.try_sort_out_of_core(&mut k).unwrap();
        assert_eq!(k, expected);
        assert!(report.is_out_of_core());
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].kind, FaultEventKind::DeviceFailure);
        assert!(report.faults[0].requeued > 0);
        // Device 0 kept its pre-failure chunk; device 1 absorbed the rest.
        assert!(report.chunks_on_device(0) >= 1);
        assert!(report.chunks_on_device(1) >= 2);
        assert_eq!(
            report.ooc_chunks.iter().map(|c| c.len).sum::<u64>(),
            200_000
        );
        let snap = sorter.inspector().snapshot();
        assert!(snap.node("multi_gpu/ooc").unwrap().uint("retries").unwrap() > 0);
    }

    #[test]
    fn exhausted_plan_returns_to_the_fast_path() {
        let sorter = test_sorter(DevicePool::titan_cluster(2))
            .with_fault_plan(FaultPlan::stall_transfer(1, 0, 2.0));
        assert!(sorter.fault_path_active());
        let mut k = uniform_keys::<u64>(30_000, 29);
        sorter.try_sort(&mut k).unwrap();
        assert!(!sorter.fault_path_active(), "plan fired, nobody died");
        // Fault-free reports carry one shard per device again.
        let mut k2 = uniform_keys::<u64>(30_000, 31);
        let report = sorter.try_sort(&mut k2).unwrap();
        assert_eq!(report.shards.len(), 2);
        assert!(report.faults.is_empty());
    }
}
