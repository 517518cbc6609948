//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<what>`), start and end on the run's clock,
//! a parent, and the id of the operation or request it belongs to.  Spans
//! stay in memory and are written out as JSON when the run ends.

use crate::report::Outcome;
use crate::Ctx;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from two instants; returns its index for children.
    pub fn add(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.add_ns(name, op, parent, start_ns, end_ns)
    }

    /// Records a span from offsets on the run's clock, in nanoseconds.
    pub fn add_ns(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Records a child span placed from a measured duration: it starts at
    /// `start_ns` and lasts `dur`.
    pub fn place(
        &mut self,
        name: &'static str,
        op: u64,
        parent: usize,
        start_ns: u64,
        dur: Duration,
    ) -> usize {
        let end = start_ns + dur.as_nanos() as u64;
        self.add_ns(name, op, Some(parent), start_ns, end)
    }

    /// Per-span self time: its duration minus the durations of its direct
    /// children (clamped at zero when placed children overlap).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time summed per layer (the name up to the first `.`), in order
    /// of first appearance.  A root span is an operation, not a layer: its
    /// self time is the part no layer span covers, listed as
    /// `unattributed`.
    pub fn self_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let layer = match s.parent {
                None => "unattributed",
                Some(_) => s.name.split('.').next().unwrap_or(s.name),
            };
            match out.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, t)) => *t += ns,
                None => out.push((layer, ns)),
            }
        }
        out
    }

    /// Share of the root spans' wall time that is their own self time: the
    /// part of each operation's blocking path no layer span accounts for.
    /// Layer spans are children of the root directly, never of a wrapper
    /// covering the whole operation, so this remainder is not hidden.
    pub fn unattributed_frac(&self) -> f64 {
        let self_ns = self.self_ns();
        let (mut root, mut rest) = (0u64, 0u64);
        for (s, ns) in self.spans.iter().zip(self_ns) {
            if s.parent.is_none() {
                root += s.dur_ns();
                rest += ns;
            }
        }
        if root == 0 {
            0.0
        } else {
            rest as f64 / root as f64
        }
    }

    /// Writes the spans to `<out_dir>/spans-<workload>-seed<n>.json` and
    /// notes where they went and each layer's self time.
    pub fn write_for(&self, ctx: &Ctx, workload: &str, out: &mut Outcome) {
        let path = ctx
            .out_dir
            .join(format!("spans-{workload}-seed{}.json", ctx.seed));
        match self.write(&path) {
            Ok(()) => out.note(format!(
                "{} spans written to {}",
                self.spans.len(),
                path.display()
            )),
            Err(e) => out.note(format!("spans not written to {}: {e}", path.display())),
        }
        let layers: Vec<String> = self
            .self_by_layer()
            .iter()
            .map(|(l, ns)| format!("{l} {:.3} s", *ns as f64 / 1e9))
            .collect();
        out.note(format!(
            "self time on the traced blocking path: {}",
            layers.join(", ")
        ));
    }

    /// Writes every span as a JSON array to `path`.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut r = Recorder::new(Instant::now());
        let root = r.add_ns("op", 0, None, 0, 100);
        let p = r.add_ns("engine.partition", 0, Some(root), 0, 20);
        r.add_ns("core.sort", 0, Some(root), 20, 80);
        r.add_ns("core.inner", 0, Some(p), 0, 5);
        assert_eq!(r.self_ns(), vec![20, 15, 60, 5]);
        assert_eq!(
            r.self_by_layer(),
            vec![("unattributed", 20), ("engine", 15), ("core", 65)]
        );
        assert!((r.unattributed_frac() - 0.2).abs() < 1e-12);
    }
}
