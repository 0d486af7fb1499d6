//! In-memory spans for the traced run, plus the small statistics every
//! workload shares.
//!
//! A span is recorded around one of the benchmark's own calls into a
//! layer's public functions: name (`layer.call`), start, end, parent
//! span, and the simulated interval as the trace id. Spans stay in
//! memory until the run ends and are then written out as CSV, so
//! recording one costs a `Vec` push.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    trace: u64,
}

/// Span recorder. A disabled tracer records nothing, so untraced runs
/// share the traced code path at the cost of one branch.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of a recorded span, used as the parent of later spans.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const ROOT: SpanId = SpanId(None);
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its handle.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::ROOT;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: parent.0,
            trace,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Moves the end of a span recorded before its children.
    pub fn set_end(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id.0 {
            self.spans[i].end = end.saturating_duration_since(self.origin);
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, trace, parent, start, Instant::now());
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// Self time of every span whose name starts with `layer.`: its
    /// duration minus the durations of its direct children, summed and
    /// divided by `intervals` — milliseconds per interval.
    pub fn layer_self_ms(&self, layer: &str, intervals: u64) -> f64 {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let total: Duration = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name.split('.').next() == Some(layer))
            .map(|(i, s)| (s.end - s.start).saturating_sub(child_time[i]))
            .sum();
        total.as_secs_f64() * 1e3 / intervals.max(1) as f64
    }

    /// CSV of every span: name, start and end in microseconds since the
    /// tracer was created, parent row (empty for a root), trace id.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("row,name,start_us,end_us,parent,trace\n");
        for (row, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{row},{},{:.3},{:.3},{parent},{}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.trace
            );
        }
        out
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `q` (0..=1) of `samples`. Zero for an empty
/// set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank p90.
pub fn beyond_p90(n: usize) -> usize {
    n - ((0.9 * n as f64).ceil() as usize).min(n)
}

/// Peak resident set size of this process (`VmHWM`), in megabytes of
/// 10⁶ bytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// The serial share Amdahl's law implies for a speedup `s` on `p`
/// threads, clamped to `[0, 1]`.
pub fn serial_share(speedup: f64, p: usize) -> f64 {
    if p <= 1 || speedup <= 0.0 {
        return 1.0;
    }
    let p = p as f64;
    ((p / speedup - 1.0) / (p - 1.0)).clamp(0.0, 1.0)
}
