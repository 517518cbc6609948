//! Golden core-report test: three default-configured hybrid radix sorts
//! must reproduce a checked-in per-pass report and simulated total.
//!
//! The inputs are the core-level shapes of the benchmark workloads: uniform
//! `u32` pairs (the `bulk-pairs` shape), Zipf(0.75) `u64` keys with `u32`
//! row ids (the `sharded-skew` shape), and the paper's Zipf keys over a
//! 64-value universe, which is skewed enough for the scatter look-ahead to
//! engage.  Every run pins, per counting pass, the key and block counts,
//! the modeled histogram and scatter updates, the look-ahead blocks and the
//! sub-bucket classification, plus the keys sorted locally and the
//! simulated total.  The simulated total compares to 1e-12 relative,
//! everything else exactly.  Each input runs at 1, 2 and 7 workers against
//! the same fixture: the executor changes how a pass runs, never what it
//! reports.
//!
//! The fixture (`tests/golden/core_report.txt`) holds one
//! `name kind value` line per pinned value: kind `t` is a simulated time in
//! seconds, kind `x` an exact value.

use hybrid_radix_sort::hrs_core::{Executor, HybridRadixSorter, SortReport};
use hybrid_radix_sort::workloads::{uniform_keys, Distribution, ZipfGenerator};
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("golden/core_report.txt");

/// Relative tolerance of simulated-time comparisons.
const TIME_RTOL: f64 = 1e-12;

/// Worker counts every input runs at.
const WORKERS: [usize; 3] = [1, 2, 7];

/// One pinned value: `'t'` (simulated seconds) or `'x'` (exact).
type Pinned = (char, String);

fn pin_exact(out: &mut BTreeMap<String, Pinned>, name: String, value: impl std::fmt::Debug) {
    out.insert(name, ('x', format!("{value:?}")));
}

/// Every pinned value of one report, keyed `run.field[.pass.subfield]`.
fn pin_report(out: &mut BTreeMap<String, Pinned>, run: &str, r: &SortReport) {
    pin_exact(out, format!("{run}.passes"), r.passes.len());
    for (i, p) in r.passes.iter().enumerate() {
        let f = |leaf: &str| format!("{run}.pass{i}.{leaf}");
        pin_exact(out, f("n_keys"), p.n_keys);
        pin_exact(out, f("n_blocks"), p.n_blocks);
        pin_exact(out, f("histogram_updates"), p.histogram_updates);
        pin_exact(out, f("scatter_updates"), p.scatter_updates);
        pin_exact(out, f("lookahead_active_blocks"), p.lookahead_active_blocks);
        pin_exact(out, f("sub_buckets_created"), p.sub_buckets_created);
        pin_exact(out, f("local_buckets_created"), p.local_buckets_created);
        pin_exact(
            out,
            f("counting_buckets_forwarded"),
            p.counting_buckets_forwarded,
        );
    }
    pin_exact(out, format!("{run}.local.n_keys"), r.local.n_keys);
    out.insert(
        format!("{run}.simulated.total"),
        ('t', format!("{:?}", r.simulated.total.secs())),
    );
}

fn sorter(workers: usize) -> HybridRadixSorter {
    HybridRadixSorter::with_defaults().with_executor(Executor::with_workers(workers))
}

fn assert_sorted<K: PartialOrd>(keys: &[K], run: &str) {
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "{run}: output unsorted"
    );
}

/// The `bulk-pairs` shape: uniform `u32` keys with `u32` row ids.
fn bulk_run(workers: usize) -> SortReport {
    let n = 1usize << 18;
    let mut keys = uniform_keys::<u32>(n, 1);
    let mut values: Vec<u32> = (0..n as u32).collect();
    let report = sorter(workers).sort_pairs(&mut keys, &mut values);
    assert_sorted(&keys, "bulk");
    report
}

/// The `sharded-skew` shape: Zipf(0.75) `u64` keys over a universe of n/4
/// values, with `u32` row ids.
fn skew_run(workers: usize) -> SortReport {
    let n = 1usize << 17;
    let mut keys: Vec<u64> = ZipfGenerator::new(0.75, (n / 4) as u64, 1).generate(n);
    let mut values: Vec<u32> = (0..n as u32).collect();
    let report = sorter(workers).sort_pairs(&mut keys, &mut values);
    assert_sorted(&keys, "skew");
    report
}

/// The paper's Zipf keys over 64 values.  At 2^17 keys the heaviest value
/// outgrows the local-sort threshold, so its bucket runs the later passes
/// on a single digit value and the scatter look-ahead engages.
fn lookahead_run(workers: usize) -> SortReport {
    let mut keys: Vec<u32> = Distribution::paper_zipf(64).generate(1 << 17, 3);
    let report = sorter(workers).sort(&mut keys);
    assert_sorted(&keys, "lookahead");
    let active: u64 = report
        .passes
        .iter()
        .map(|p| p.lookahead_active_blocks)
        .sum();
    assert!(active > 0, "the look-ahead never engaged");
    report
}

fn observed(workers: usize) -> BTreeMap<String, Pinned> {
    let mut out = BTreeMap::new();
    pin_report(&mut out, "bulk", &bulk_run(workers));
    pin_report(&mut out, "skew", &skew_run(workers));
    pin_report(&mut out, "lookahead", &lookahead_run(workers));
    out
}

fn fixture() -> BTreeMap<String, Pinned> {
    FIXTURE
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let mut parts = line.splitn(3, ' ');
            let name = parts.next().expect("name").to_string();
            let kind = parts.next().expect("kind").chars().next().expect("kind");
            let value = parts.next().expect("value").to_string();
            (name, (kind, value))
        })
        .collect()
}

fn times_match(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= TIME_RTOL * a.abs().max(b.abs())
}

fn compare(expected: &BTreeMap<String, Pinned>, got: &BTreeMap<String, Pinned>, label: &str) {
    let missing: Vec<&String> = expected.keys().filter(|k| !got.contains_key(*k)).collect();
    let extra: Vec<&String> = got.keys().filter(|k| !expected.contains_key(*k)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{label}: pinned value set differs: missing {missing:?}, extra {extra:?}"
    );
    let mut diffs = Vec::new();
    for (name, (kind, want)) in expected {
        let (got_kind, have) = &got[name];
        let same = kind == got_kind
            && match kind {
                't' => {
                    let w: f64 = want.parse().expect("fixture time");
                    let h: f64 = have.parse().expect("observed time");
                    times_match(w, h)
                }
                _ => want == have,
            };
        if !same {
            diffs.push(format!("{name}: expected {want}, got {have}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{label}: {} pinned values differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn default_sorter_reports_match_the_golden_fixture() {
    let expected = fixture();
    for workers in WORKERS {
        compare(
            &expected,
            &observed(workers),
            &format!("workers = {workers}"),
        );
    }
}
