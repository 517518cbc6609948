//! A short run of every workload in both modes: each must pass its gate
//! and print exactly the metrics `BENCHMARK.json` declares for that mode.
//! The binary refuses to print a name outside `[A-Za-z0-9_.-]+`, so this
//! also checks every declared name against that pattern.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn smoke_run_prints_every_declared_metric() {
    let out_dir = env!("CARGO_TARGET_TMPDIR");
    for workload in names("workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_hrsbench"))
                .args(["--workload", &workload, "--seed", "7", "--seconds", "0.3"])
                .args(["--trace", trace, "--smoke", "--out-dir", out_dir])
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(run.status.success(), "{workload} trace {trace}:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true"), "{last}");
            let declared = names(section);
            for name in &declared {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} trace {trace} lacks {name}: {last}"
                );
            }
            assert_eq!(
                last.matches("{\"value\": ").count(),
                declared.len(),
                "{workload} trace {trace} prints undeclared metrics: {last}"
            );
        }
    }
}
