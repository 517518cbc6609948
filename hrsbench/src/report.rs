//! Named metrics, each with a unit and a kind, and the result line.

use std::fmt::Write as _;

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock on real threads, or memory read from the kernel.
    Measured,
    /// Simulated GPU time from the analytical cost model.
    Modeled,
    /// Derived arithmetically from other numbers of the same run.
    Computed,
    /// An event count or a share of counted events.
    Count,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modeled => "modeled",
            Kind::Computed => "computed",
            Kind::Count => "count",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
}

/// What one run reports: the gate's tallies, the metrics and free-text
/// notes (printed before the result line).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when the run is invalid for a reason other than a wrong output
    /// (e.g. the open-loop generator fell behind its schedule).
    pub invalid: Option<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, kind: Kind) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            kind,
        });
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Counts one gated operation; a failed check is noted and counted.
    pub fn gate(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                self.note(format!("FAILED {what}: {e}"));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_none() && self.attempted > 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number prints with all its digits; a non-finite one (which
/// the run marks invalid) prints as 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_pattern() {
        assert!(valid_name("core.sort_ms"));
        assert!(valid_name("latency_p90_ms"));
        assert!(valid_name("a-b.c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name("core/sort_ms"));
        assert!(!valid_name("sort ms"));
        assert!(!valid_name("µs"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome::default();
        o.gate("op", Ok(()));
        o.metric("setup_s", 0.8127, "s", Kind::Measured);
        o.metric("x", f64::NAN, "ms", Kind::Measured);
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
        o.gate("op", Err("bad".into()));
        assert!(!o.correct());
        assert_eq!(o.failed_frac(), 0.5);
    }
}
