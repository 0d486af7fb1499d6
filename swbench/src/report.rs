//! What a run measured, and the one JSON line it prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{beyond_p90, percentile};

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("interval_ms_p50", "ms"),
    ("interval_ms_p90", "ms"),
    ("client_intervals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("hit_ratio", "ratio"),
    ("uplink_bits_per_query", "bits"),
];

/// The per-layer metrics of the traced run, in `BENCHMARK.json` order.
/// Every traced run of every workload reports all of them; README.md
/// says which workload carries each one's load.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.new_s", "s"),
    ("core.step_ms_p50", "ms"),
    ("core.self_ms", "ms"),
    ("core.self_ms_est", "ms"),
    ("core.threads_speedup", "x"),
    ("core.serial_share", "ratio"),
    ("core.awake_per_interval", "count"),
    ("core.safety_checked", "count"),
    ("server.update_us", "us"),
    ("server.build_us", "us"),
    ("server.self_ms", "ms"),
    ("server.updates_per_interval", "count"),
    ("server.report_bits_mean", "bits"),
    ("server.uplink_answers", "count"),
    ("wireless.encode_us", "us"),
    ("wireless.self_ms", "ms"),
    ("wireless.uplink_bits", "bits"),
    ("wireless.overflow_exchanges", "count"),
    ("client.hits", "count"),
    ("client.misses", "count"),
    ("client.invalidations", "count"),
    ("client.cache_drops", "count"),
    ("capacity.evictions", "count"),
    ("capacity.capacity_misses", "count"),
    ("capacity.coop_served", "count"),
    ("capacity.coop_declined", "count"),
    ("mesh.step_ms_p50", "ms"),
    ("mesh.self_ms", "ms"),
    ("mesh.threads_speedup", "x"),
    ("mesh.serial_share", "ratio"),
    ("mesh.migrations", "count"),
    ("mesh.handoff_drops", "count"),
    ("live.tick_us_p50", "us"),
    ("live.barrier_us_p50", "us"),
    ("live.open_us", "us"),
    ("live.apply_us", "us"),
    ("live.self_ms", "ms"),
    ("live.reports_missed", "count"),
    ("live.uplink_answers", "count"),
    ("live.report_bytes", "bytes"),
    ("query.hits", "count"),
    ("query.misses", "count"),
    ("query.txn_aborts", "count"),
    ("trace.interval_ms_p50", "ms"),
    ("trace.untraced_interval_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.intervals", "count"),
];

/// Deterministic counters of a measured window. Two runs of one seed
/// must agree on every field, at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Window {
    pub intervals: u64,
    pub queries: u64,
    pub hits: u64,
    pub misses: u64,
    pub report_bits: u64,
    pub uplink_bits: u64,
    pub invalidations: u64,
    pub drops: u64,
    pub evictions: u64,
}

impl Window {
    pub fn query_events(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.query_events().max(1) as f64
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"intervals\":{},\"queries\":{},\"hits\":{},\"misses\":{},\"report_bits\":{},\
             \"uplink_bits\":{},\"invalidations\":{},\"drops\":{},\"evictions\":{}}}",
            self.intervals,
            self.queries,
            self.hits,
            self.misses,
            self.report_bits,
            self.uplink_bits,
            self.invalidations,
            self.drops,
            self.evictions
        )
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Cold set-up times, one per child process, in seconds.
    pub setups_s: Vec<f64>,
    /// Host time of each measured interval, in milliseconds.
    pub intervals_ms: Vec<f64>,
    /// `VmHWM` when the deterministic window closed: set-up, warm-up and
    /// the window are a fixed amount of work per seed, where the rest
    /// of the measured time is not.
    pub peak_rss_mb: f64,
    /// Awake client-intervals simulated over the measured intervals.
    pub awake_client_intervals: u64,
    /// The deterministic window.
    pub window: Window,
    /// Its first half, so the detail line can show whether the hit
    /// ratio is still rising inside the window.
    pub first_half: Window,
    /// Failed query events in the window (stale validations, deferred
    /// exchanges, reports lost by the live transport).
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.layers.insert(name, value);
    }

    fn end_to_end(&self) -> Vec<f64> {
        let measured_s: f64 = self.intervals_ms.iter().sum::<f64>() / 1e3;
        let w = &self.window;
        vec![
            percentile(&self.setups_s, 0.5),
            percentile(&self.intervals_ms, 0.5),
            percentile(&self.intervals_ms, 0.9),
            self.awake_client_intervals as f64 / measured_s.max(1e-9),
            self.peak_rss_mb,
            w.hit_ratio(),
            w.uplink_bits as f64 / w.query_events().max(1) as f64,
        ]
    }

    /// The window after its first half (hits and misses only).
    fn second_half(&self) -> Window {
        Window {
            hits: self.window.hits - self.first_half.hits,
            misses: self.window.misses - self.first_half.misses,
            ..Window::default()
        }
    }

    /// The detail line (printed before the result): sample counts, the
    /// failed-query ratio, the window's counters, the hit ratios of its
    /// two halves and any failed check.
    pub fn detail_json(&self, workload: &str, seed: u64) -> String {
        let n = self.intervals_ms.len();
        let mut out = format!(
            "{{\"swbench_detail\":{{\"workload\":\"{workload}\",\"seed\":{seed},\
             \"interval_samples\":{n},\"samples_beyond_p90\":{},\"setup_samples\":{},\
             \"failed_query_ratio\":{},\"window\":{},\"hit_ratio_halves\":[{:.4},{:.4}],\
             \"available_parallelism\":{}",
            beyond_p90(n),
            self.setups_s.len(),
            self.failed as f64 / self.window.query_events().max(1) as f64,
            self.window.to_json(),
            self.first_half.hit_ratio(),
            self.second_half().hit_ratio(),
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        );
        let _ = write!(out, ",\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}{}", json_string(f));
        }
        out.push(']');
        out.push_str("}}");
        out
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_json(&self, traced: bool) -> String {
        let mut metrics = String::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            let sep = if metrics.is_empty() { "" } else { "," };
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        };
        if traced {
            for (name, unit) in PER_LAYER {
                let value = *self
                    .layers
                    .get(name)
                    .unwrap_or_else(|| panic!("the traced run did not measure {name}"));
                push(name, value, unit);
            }
        } else {
            for ((name, unit), value) in END_TO_END.iter().zip(self.end_to_end()) {
                push(name, value, unit);
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failures.is_empty(),
            self.window.query_events().max(1),
            self.failed
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
