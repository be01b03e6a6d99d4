//! The harness's own tracing: a span around every call into a layer,
//! kept in memory while the run measures and turned into self times, a
//! Chrome trace and `layers.json` when it ends.
//!
//! Spans come from the benchmark's files only; nothing inside the crates
//! under test is instrumented here.

use std::time::{Duration, Instant};

use serde::Value;
use sf2d_core::sf2d_obs::mem;

use crate::json::{obj, text};
use crate::stats::median;

/// Marks spans recorded during set-up rather than inside a timed op.
pub const SETUP_OP: u64 = u64::MAX;

/// Name of the root span of an op (a burst, on the serve workloads).
/// Timed work outside any op — an edge mutation — is a root span of its
/// own layer and counts towards the traced wall, not the op count.
pub const OP_SPAN: &str = "harness.op";

/// One recorded interval. `name` is `<layer>.<what>`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The op this span belongs to, or [`SETUP_OP`].
    pub op: u64,
    /// A small integer the caller attaches (a batch width, a count).
    pub arg: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span bills to: the part of its name before the dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to `end`.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records spans (when on) and the peak live heap of timed sections
/// (always).
pub struct Recorder {
    on: bool,
    origin: Instant,
    op: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
    peak_timed_bytes: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            on: false,
            origin: Instant::now(),
            op: SETUP_OP,
            open: Vec::new(),
            spans: Vec::new(),
            peak_timed_bytes: 0,
        }
    }

    /// Switches span recording on or off; timed sections are measured
    /// either way.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Names the op that spans recorded from now on belong to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.begin_with(name, 0)
    }

    pub fn begin_with(&mut self, name: &'static str, arg: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            arg,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = end_ns;
    }

    /// Adds already-measured child intervals (offsets from `base`) under
    /// the open span `parent` — for callees that can only note their own
    /// start and end, such as an operator behind `&self`.
    pub fn adopt(
        &mut self,
        parent: SpanId,
        name: &'static str,
        base: Instant,
        pairs: &[(Duration, Duration)],
    ) {
        let Some(pidx) = parent.0 else { return };
        let shift = base.duration_since(self.origin).as_nanos() as u64;
        for (start, end) in pairs {
            self.spans.push(Span {
                name,
                start_ns: shift + start.as_nanos() as u64,
                end_ns: shift + end.as_nanos() as u64,
                parent: Some(pidx),
                op: self.op,
                arg: 0,
            });
        }
    }

    /// Runs `f` as a timed section: returns its result and wall time,
    /// and folds its peak live heap into [`Recorder::peak_timed_mib`].
    /// Allocation outside timed sections (verification, input cloning)
    /// therefore never sets the reported peak.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Recorder) -> R) -> (R, Duration) {
        mem::reset_peak();
        let t0 = Instant::now();
        let out = f(self);
        let wall = t0.elapsed();
        self.peak_timed_bytes = self.peak_timed_bytes.max(mem::snapshot().peak_live_bytes);
        (out, wall)
    }

    pub fn peak_timed_mib(&self) -> f64 {
        self.peak_timed_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Median duration in ms of the spans called `name` and, if given,
    /// carrying `arg` (0 when there are none).
    pub fn median_ms_where(&self, name: &str, arg: Option<u64>) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && arg.is_none_or(|a| s.arg == a))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        median(&durations)
    }

    /// Median duration in ms of the spans called `name` (0 when none).
    pub fn median_ms(&self, name: &str) -> f64 {
        self.median_ms_where(name, None)
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent never overlap here (one
/// thread, strictly nested), so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// What the spans of the timed ops add up to, by layer.
pub struct LayerSummary {
    /// `(layer, summed self ns, span count)`, largest first.
    pub layers: Vec<(&'static str, u64, u64)>,
    /// Summed wall of the traced ops' root spans.
    pub op_wall_ns: u64,
    /// Traced ops seen.
    pub ops: u64,
}

impl LayerSummary {
    /// Share of the traced ops' wall that no layer span covers: the root
    /// spans' self time, i.e. the harness's own work inside an op.
    pub fn unattributed_ratio(&self) -> f64 {
        let harness = self
            .layers
            .iter()
            .find(|(l, _, _)| *l == "harness")
            .map_or(0, |(_, ns, _)| *ns);
        if self.op_wall_ns == 0 {
            0.0
        } else {
            harness as f64 / self.op_wall_ns as f64
        }
    }
}

pub fn summarize(spans: &[Span]) -> LayerSummary {
    let own = self_times_ns(spans);
    let mut layers: Vec<(&'static str, u64, u64)> = Vec::new();
    let mut op_wall_ns = 0;
    let mut ops = 0;
    for (s, self_ns) in spans.iter().zip(&own) {
        if s.op == SETUP_OP {
            continue;
        }
        if s.parent.is_none() {
            op_wall_ns += s.dur_ns();
        }
        if s.name == OP_SPAN {
            ops += 1;
        }
        match layers.iter_mut().find(|(l, _, _)| *l == s.layer()) {
            Some(slot) => {
                slot.1 += self_ns;
                slot.2 += 1;
            }
            None => layers.push((s.layer(), *self_ns, 1)),
        }
    }
    layers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    LayerSummary {
        layers,
        op_wall_ns,
        ops,
    }
}

/// The spans as Chrome `trace_event` JSON (complete events, one track).
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut args = vec![("id", Value::U64(id as u64)), ("arg", Value::U64(s.arg))];
            if let Some(p) = s.parent {
                args.push(("parent", Value::U64(p as u64)));
            }
            if s.op != SETUP_OP {
                args.push(("op", Value::U64(s.op)));
            }
            obj(vec![
                ("name", text(s.name)),
                ("cat", text(s.layer())),
                ("ph", text("X")),
                ("ts", Value::F64(s.start_ns as f64 / 1e3)),
                ("dur", Value::F64(s.dur_ns() as f64 / 1e3)),
                ("pid", Value::U64(1)),
                ("tid", Value::U64(if s.op == SETUP_OP { 0 } else { 1 })),
                ("args", obj(args)),
            ])
        })
        .collect();
    obj(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", text("ms")),
    ])
}

/// `layers.json`: per-layer self times of the traced ops, per-name span
/// medians (set-up spans included, marked), and the per-layer metrics.
pub fn layers_json(spans: &[Span], metrics: Vec<(String, Value)>) -> Value {
    let summary = summarize(spans);
    let own = self_times_ns(spans);
    let layers = summary
        .layers
        .iter()
        .map(|(layer, self_ns, count)| {
            obj(vec![
                ("layer", text(layer)),
                ("self_ms_total", Value::F64(*self_ns as f64 / 1e6)),
                (
                    "self_ms_per_op",
                    Value::F64(*self_ns as f64 / 1e6 / summary.ops.max(1) as f64),
                ),
                (
                    "share_of_op_wall",
                    Value::F64(*self_ns as f64 / summary.op_wall_ns.max(1) as f64),
                ),
                ("spans", Value::U64(*count)),
            ])
        })
        .collect();
    let mut names: Vec<(&'static str, bool)> = Vec::new();
    for s in spans {
        let key = (s.name, s.op == SETUP_OP);
        if !names.contains(&key) {
            names.push(key);
        }
    }
    let by_name = names
        .into_iter()
        .map(|(name, in_setup)| {
            let (durs, selfs): (Vec<f64>, Vec<f64>) = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name == name && (s.op == SETUP_OP) == in_setup)
                .map(|(s, o)| (s.dur_ns() as f64 / 1e6, *o as f64 / 1e6))
                .unzip();
            obj(vec![
                ("name", text(name)),
                ("in_setup", Value::Bool(in_setup)),
                ("count", Value::U64(durs.len() as u64)),
                ("p50_ms", Value::F64(median(&durs))),
                ("self_p50_ms", Value::F64(median(&selfs))),
                ("self_ms_total", Value::F64(selfs.iter().sum())),
            ])
        })
        .collect();
    obj(vec![
        ("ops_traced", Value::U64(summary.ops)),
        (
            "op_wall_ms_total",
            Value::F64(summary.op_wall_ns as f64 / 1e6),
        ),
        (
            "unattributed_ratio",
            Value::F64(summary.unattributed_ratio()),
        ),
        ("layers", Value::Seq(layers)),
        ("spans_by_name", Value::Seq(by_name)),
        ("per_layer_metrics", Value::Map(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            arg: 0,
        }
    }

    /// op[0,100) { spmv.a[10,40) { sim.x[15,25) } spmv.b[50,90) } plus a
    /// set-up span that must not count towards the op.
    fn tree() -> Vec<Span> {
        vec![
            span("gen.rmat", 0, 1000, None, SETUP_OP),
            span("harness.op", 2000, 2100, None, 0),
            span("spmv.a", 2010, 2040, Some(1), 0),
            span("sim.x", 2015, 2025, Some(2), 0),
            span("spmv.b", 2050, 2090, Some(1), 0),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_times_ns(&tree()), [1000, 30, 20, 10, 40]);
    }

    #[test]
    fn layer_self_times_add_up_to_the_op_wall() {
        let s = summarize(&tree());
        assert_eq!(s.ops, 1);
        assert_eq!(s.op_wall_ns, 100);
        assert_eq!(
            s.layers,
            [("spmv", 60, 2), ("harness", 30, 1), ("sim", 10, 1)]
        );
        assert_eq!(s.layers.iter().map(|l| l.1).sum::<u64>(), s.op_wall_ns);
        assert!((s.unattributed_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_stays_silent_when_off() {
        let mut rec = Recorder::new();
        let a = rec.begin("spmv.a");
        rec.end(a);
        assert!(rec.spans.is_empty());
        rec.set_on(true);
        rec.set_op(3);
        let root = rec.begin("harness.op");
        let child = rec.begin_with("spmv.a", 16);
        rec.end(child);
        let base = Instant::now();
        rec.adopt(
            root,
            "spmv.op_apply",
            base,
            &[(Duration::from_nanos(5), Duration::from_nanos(9))],
        );
        rec.end(root);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].arg, 16);
        assert_eq!(rec.spans[2].parent, Some(0));
        assert_eq!(rec.spans[2].dur_ns(), 4);
        assert!(rec.spans.iter().all(|s| s.op == 3));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
    }

    #[test]
    fn chrome_trace_carries_parent_and_op() {
        let json = crate::json::render(&chrome_trace(&tree()));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"sim.x\""));
        assert!(json.contains("\"parent\":2"));
        assert!(json.contains("\"ph\":\"X\""));
    }
}
