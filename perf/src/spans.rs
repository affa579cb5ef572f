//! Harness-side spans around the calls into each layer.
//!
//! Spans live in memory and are written out when the run ends.  A span's
//! *self time* is its duration minus the part its direct children cover,
//! so the self times of a trace sum to the wall time of its root spans.

use crate::stats::median;
use dspsim::minijson::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`plan_full`, `run_plan`, …).
    pub name: &'static str,
    /// The layer the call belongs to (crate or `ftimm` module).
    pub layer: &'static str,
    /// Index of the job in the workload's stream.
    pub job: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, host-clock nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, host-clock nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Collects spans when enabled; a disabled recorder only runs the work,
/// so the untraced stream calls the program exactly the way users do.
pub struct Recorder {
    enabled: bool,
    epoch: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`true`) or only forwards (`false`).
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: crate::clock::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        ((crate::clock::now() - self.epoch) * 1e9) as u64
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `work` inside a span (nested in whatever span is open).
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        job: usize,
        work: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return work(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            job,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = work(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// One row of the layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Spans of this layer.
    pub count: usize,
    /// Sum of their self times, seconds.
    pub busy_s: f64,
    /// Median self time, seconds.
    pub p50_s: f64,
}

/// Per-layer table (count, busy = Σ self time, p50 of self time).
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let own = self_times_ns(spans);
    let mut by_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(&own) {
        by_layer.entry(s.layer).or_default().push(ns as f64 * 1e-9);
    }
    by_layer
        .into_iter()
        .map(|(layer, v)| {
            let row = LayerRow {
                count: v.len(),
                busy_s: v.iter().sum(),
                p50_s: median(&v),
            };
            (layer, row)
        })
        .collect()
}

/// Wall time covered by root spans, seconds.
pub fn root_wall_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}

/// Render the layer table for people.
pub fn render_layer_table(spans: &[Span]) -> String {
    let table = layer_table(spans);
    let mut out = String::from("layer               count     busy_s     p50_ms\n");
    for (layer, row) in &table {
        let _ = writeln!(
            out,
            "{layer:<18} {:>6} {:>10.4} {:>10.4}",
            row.count,
            row.busy_s,
            row.p50_s * 1e3
        );
    }
    let busy: f64 = table.values().map(|r| r.busy_s).sum();
    let _ = writeln!(
        out,
        "self-time sum {busy:.4} s of {:.4} s traced wall",
        root_wall_s(spans)
    );
    out
}

/// Chrome `trace_event` JSON: one complete (`X`) event per span, one
/// track per layer, `args` carrying the job and parent indices (`-1` = root).
pub fn chrome_trace(spans: &[Span]) -> String {
    let layers: Vec<&str> = layer_table(spans).into_keys().collect();
    let mut s = String::from("{\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        let tid = layers.iter().position(|l| *l == sp.layer).unwrap_or(0);
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"job\":{},\"parent\":{parent}}}}}",
            if i == 0 { "" } else { ",\n" },
            quote(sp.name),
            quote(sp.layer),
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
            sp.job,
        );
    }
    for (tid, layer) in layers.iter().enumerate() {
        let _ = write!(
            s,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            quote(layer)
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer: if parent.is_some() { "child" } else { "root" },
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root [0,100): children [10,30) and the adjacent [30,60); the
        // second child has its own child [40,50).
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 30, 60),
            span(Some(2), 40, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
        // Self times sum to the root's wall time.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let table = layer_table(&spans);
        assert_eq!(table["root"].count, 1);
        assert_eq!(table["child"].count, 3);
        assert!((table["child"].busy_s - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        let v = rec.span("a", "outer", 3, |r| r.span("b", "inner", 3, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        let mut off = Recorder::new(false);
        assert_eq!(off.span("a", "outer", 0, |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let mut rec = Recorder::new(true);
        rec.span("ftimm.plan", "plan \"full\"", 0, |r| {
            r.span("dspsim", "walk", 0, |_| ())
        });
        let doc = dspsim::minijson::Parser::new(&chrome_trace(rec.spans()))
            .parse()
            .expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr("events").unwrap();
        assert_eq!(events.len(), 4); // two spans + two track names
    }
}
