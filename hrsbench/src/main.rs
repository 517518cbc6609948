//! The repository benchmark.
//!
//! ```text
//! hrsbench --workload <bulk-pairs|sharded-skew|serve-mixed> --seed <n>
//!          --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every probe detached;
//! `--trace 1` attaches the program's probes, records spans around the
//! benchmark's calls into each layer and prints the per-layer metrics.
//! Every timed operation passes the correctness gate of [`check`]; the last
//! line of standard output is the result object, and a wrong output (or an
//! invalid run) exits with code 1.  `--smoke` shrinks every input for the
//! benchmark's own tests.

mod bulk;
mod calib;
mod check;
mod closed;
mod layers;
mod report;
mod serve;
mod sharded;
mod spans;
mod stats;

use report::Kind;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out for checking a claimed gain; not used while tuning.
pub const HELD_OUT_SEED: u64 = 20_170_514;

/// Worker threads of every executor, merge and calibration the benchmark
/// configures.
pub const THREADS: usize = 2;

#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BulkPairs,
    ShardedSkew,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "bulk-pairs" => Some(Workload::BulkPairs),
            "sharded-skew" => Some(Workload::ShardedSkew),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<(Workload, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        window: Duration::from_secs(10),
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("hrsbench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                ctx.window = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => ctx.smoke = true,
            "--out-dir" => ctx.out_dir = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

/// The run must print exactly the metrics its mode declares, each with its
/// declared unit, a legal name and a finite value.
fn check_declared(out: &report::Outcome, trace: bool) -> Result<(), String> {
    let declared = if trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    for m in &out.metrics {
        if !report::valid_name(m.name) {
            return Err(format!("metric name {:?} is not [A-Za-z0-9_.-]+", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        if !declared.contains(&(m.name, m.unit)) {
            return Err(format!("metric {} ({}) is not declared", m.name, m.unit));
        }
    }
    match declared
        .iter()
        .find(|(name, _)| out.metrics.iter().filter(|m| m.name == *name).count() != 1)
    {
        Some((name, _)) => Err(format!("metric {name} is not printed exactly once")),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("hrsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal_before = layers::cpu_steal_ticks();
    let mut out = match workload {
        Workload::BulkPairs => bulk::run(&ctx),
        Workload::ShardedSkew => sharded::run(&ctx),
        Workload::ServeMixed => serve::run(&ctx),
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, layers::cpu_steal_ticks()) {
        out.note(format!(
            "hypervisor steal: {:.1}% of the host's CPU time during the run",
            100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
        ));
    }
    if ctx.trace {
        let failed_frac = out.failed_frac();
        out.metric("check.failed_frac", failed_frac, "ratio", Kind::Count);
    }
    if let Err(e) = check_declared(&out, ctx.trace) {
        out.invalid = Some(e);
    }
    println!(
        "# workload seed {} (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for checking claims)",
        ctx.seed
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!(
            "{:<32} {:>16.6} {:<8} {}",
            m.name,
            m.value,
            m.unit,
            m.kind.label()
        );
    }
    println!(
        "# failed_frac {} ({} of {} gated operations failed)",
        out.failed_frac(),
        out.failed,
        out.attempted
    );
    if let Some(why) = &out.invalid {
        println!("# INVALID RUN: {why}");
    }
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
