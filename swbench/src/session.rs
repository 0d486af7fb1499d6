//! The measuring loop of the simulated workloads.
//!
//! A run replays one fixed window of intervals a few times, each replay
//! a fresh build from the seed, a warm-up long enough for the caches to
//! fill, then the window timed one `step()` at a time. The replays do
//! identical work, so each interval's sample is the lower median of its
//! timings: interference from outside the process only ever adds time,
//! and the lower median keeps a burst on a shared host that hits a
//! minority of the replays out of the figures. The window's length is
//! fixed by `--seconds` and the workload's nominal rate, so every run
//! of a seed does the same work however fast the host is; that keeps
//! every counter deterministic and matters where state grows with every
//! interval (mesh handoffs leave a slot behind).
//!
//! Every replay must count exactly what the first counted, and after the
//! replays the window runs once more on a single thread and must count
//! it again. Traced runs span the last replay and step the server
//! twin beside it.

use std::process::{Command, Stdio};
use std::time::Instant;

use sleepers::{CellConfig, SimulationReport, Strategy};

use crate::report::{Outcome, Window};
use crate::trace::{ms, peak_rss_mb, percentile, serial_share, SpanId, Tracer};
use crate::twin::Twin;
use crate::workload::THREADS;

/// Fewest measured intervals in a run: ten samples beyond p90.
pub const MIN_SAMPLES: usize = 100;

/// A simulated system the loop can drive.
pub trait Sim {
    /// Runs one interval.
    fn step(&mut self);
    /// Bits of every report aired in the interval just run.
    fn report_bits(&mut self) -> Vec<u64>;
    /// Zeroes the counters (after warm-up).
    fn reset_metrics(&mut self);
    /// Counters since the reset, summed over the whole system.
    fn report(&self) -> SimulationReport;
    /// Awake client-intervals since the reset.
    fn awake(&self) -> u64;
    /// Query, hit and miss totals of client 0, when client 0 stays put.
    fn client0(&self) -> Option<(u64, u64, u64)>;
    /// Whether the clients live on the columnar fleet.
    fn columnar(&self) -> bool;
}

/// Cold set-ups timed before each replay and before the 1-thread gate.
/// Spread over the run, their median follows the host through the whole
/// run rather than its first seconds.
const SETUPS_PER_SLOT: usize = 3;

/// A workload's cold set-up: this program run as
/// `swbench setup <workload> <seed>` in a child process, which builds
/// the system once and prints the seconds from the start of its `main`
/// until the system could run its first interval.
pub struct ColdSetup {
    pub workload: String,
    pub seed: u64,
}

impl ColdSetup {
    fn time(&self) -> Result<f64, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
        let child = Command::new(exe)
            .args(["setup", &self.workload, &self.seed.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run a set-up: {e}"))?;
        if !child.status.success() {
            return Err(format!("a set-up exited with {}", child.status));
        }
        let text = String::from_utf8_lossy(&child.stdout);
        text.trim()
            .parse()
            .map_err(|e| format!("unreadable set-up time {text:?}: {e}"))
    }

    /// Times [`SETUPS_PER_SLOT`] set-ups, one child at a time, into
    /// `out.setups_s`; a set-up that fails is a failed check.
    fn run(&self, out: &mut Outcome) {
        for _ in 0..SETUPS_PER_SLOT {
            match self.time() {
                Ok(s) => out.setups_s.push(s),
                Err(e) => out.failures.push(e),
            }
        }
    }
}

/// How a workload is measured.
pub struct Plan<'a> {
    /// The cold set-up behind `setup_s`.
    pub setup: &'a ColdSetup,
    pub strategy: Strategy,
    /// Replays of the window; each interval's sample is the lower
    /// median of its replays' timings.
    pub replays: usize,
    /// Unmeasured intervals after set-up: enough for the hit ratio to
    /// stop rising, so the window measures the filled caches.
    pub warmup: u64,
    /// Nominal intervals per second on the reference host: all replays
    /// of the window take `--seconds` at this rate (each window holds at
    /// least [`MIN_SAMPLES`] intervals).
    pub per_second: f64,
    /// The configuration the server twin replicates.
    pub twin: &'a CellConfig,
    /// Span name of one system step (`core.step` or `mesh.step`).
    pub span: &'static str,
    /// Which client engine the workload must run on.
    pub columnar: bool,
}

/// What the loop hands back besides the filled-in outcome.
pub struct Measured {
    /// The window's report.
    pub report: SimulationReport,
    /// The first replay's step times.
    pub untraced_ms: Vec<f64>,
    /// The spanned replay's step times (traced runs only).
    pub traced_ms: Vec<f64>,
    /// The 1-thread gate's step times.
    pub gate_ms: Vec<f64>,
    /// Twin updates per traced interval.
    pub updates_per_interval: f64,
}

pub fn window_of(r: &SimulationReport) -> Window {
    Window {
        intervals: r.intervals,
        queries: r.queries_posed,
        hits: r.hit_events,
        misses: r.miss_events,
        report_bits: r.report_bits_total,
        uplink_bits: r.traffic.query_bits + r.traffic.answer_bits + r.coop.coop_bits,
        invalidations: r.items_invalidated,
        drops: r.cache_drops,
        evictions: r.capacity.evictions,
    }
}

/// Each interval's lower median over the replays' timings (the faster
/// of two, the middle of three, the second fastest of four).
pub fn lower_median(replays: &[Vec<f64>]) -> Vec<f64> {
    let n = replays.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            let mut t: Vec<f64> = replays.iter().map(|r| r[i]).collect();
            t.sort_by(f64::total_cmp);
            t[(t.len() - 1) / 2]
        })
        .collect()
}

/// Measures `plan` on systems from `build` (which takes a thread count)
/// and runs the correctness gate, filling in `out`.
pub fn measure<S: Sim>(
    out: &mut Outcome,
    build: impl Fn(usize) -> S,
    plan: &Plan,
    seconds: f64,
    tracer: &mut Tracer,
) -> Measured {
    let window =
        ((seconds * plan.per_second / plan.replays as f64).ceil() as u64).max(MIN_SAMPLES as u64);
    let mut replays = Vec::with_capacity(plan.replays);
    let mut first: Option<SimulationReport> = None;
    let mut updates_per_interval = 0.0;
    for replay in 0..plan.replays {
        plan.setup.run(out);
        let mut sim = build(THREADS);
        if first.is_none() {
            let on = sim.columnar() == plan.columnar;
            out.check(on, || {
                format!("the workload must run with columnar = {}", plan.columnar)
            });
        }
        let spanned = tracer.enabled() && replay == plan.replays - 1;
        let mut twin = spanned.then(|| Twin::new(plan.twin, plan.strategy, true));
        for _ in 0..plan.warmup {
            sim.step();
            if let Some(twin) = twin.as_mut() {
                let tick = twin.step(&mut Tracer::new(false), SpanId::ROOT);
                let bits = sim.report_bits();
                out.check(bits.iter().all(|&b| b == tick.report_bits), || {
                    format!("twin report bits differ at interval {}", tick.interval)
                });
            }
        }
        sim.reset_metrics();
        let updates_before = twin.as_ref().map_or(0, |t| t.updates);
        let mut prev0 = sim.client0();
        let mut times = Vec::with_capacity(window as usize);
        let mut half = None;
        for i in plan.warmup + 1..=plan.warmup + window {
            let start = Instant::now();
            sim.step();
            let end = Instant::now();
            times.push(ms(end - start));
            if first.is_none() && i == plan.warmup + window / 2 {
                half = Some(window_of(&sim.report()));
            }
            let Some(twin) = twin.as_mut() else { continue };
            let root = tracer.record("bench.interval", i, SpanId::ROOT, start, start);
            tracer.record(plan.span, i, root, start, end);
            let tick = twin.step(tracer, root);
            tracer.set_end(root, Instant::now());
            let bits = sim.report_bits();
            out.check(bits.iter().all(|&b| b == tick.report_bits), || {
                format!("twin report bits differ at interval {i}")
            });
            // The twin's live replica must decide exactly as client 0.
            let now0 = sim.client0();
            if let (Some(p), Some(n), Some(row)) = (prev0, now0, tick.row) {
                let seen = (n.0 - p.0, n.1 - p.1, n.2 - p.2);
                out.check(seen == (row.queries, row.hits, row.misses), || {
                    format!("the twin's replica decided differently from client 0 at interval {i}")
                });
            }
            prev0 = now0;
        }
        if let Some(twin) = twin {
            updates_per_interval = (twin.updates - updates_before) as f64 / window as f64;
        }
        let report = sim.report();
        if first.is_none() {
            out.window = window_of(&report);
            out.first_half = half.unwrap_or_default();
            out.failed = report.safety.violations + report.overflow_exchanges;
            out.awake_client_intervals = sim.awake();
            out.peak_rss_mb = peak_rss_mb();
            first = Some(report);
        } else {
            let (again, expected) = (window_of(&report), out.window);
            out.check(again == expected, || {
                format!(
                    "the replay disagrees: {} vs {}",
                    again.to_json(),
                    expected.to_json()
                )
            });
        }
        replays.push(times);
    }
    let report = first.expect("at least one replay");
    out.intervals_ms = lower_median(&replays);

    // Correctness gate, outside the measured time: the same seed on one
    // thread must count exactly what the window counted.
    plan.setup.run(out);
    let mut rerun = build(1);
    for _ in 0..plan.warmup {
        rerun.step();
    }
    rerun.reset_metrics();
    let mut gate_ms = Vec::with_capacity(window as usize);
    for _ in 0..window {
        let t = Instant::now();
        rerun.step();
        gate_ms.push(ms(t.elapsed()));
    }
    let (gate, expected) = (window_of(&rerun.report()), out.window);
    out.check(gate == expected, || {
        format!(
            "the 1-thread rerun disagrees: {} vs {}",
            gate.to_json(),
            expected.to_json()
        )
    });
    out.check(report.overflow_exchanges == 0, || {
        format!("{} exchanges deferred", report.overflow_exchanges)
    });
    out.check(report.safety.violations == 0, || {
        format!("{} stale entries validated", report.safety.violations)
    });
    let mut replays = replays.into_iter();
    let untraced_ms = replays.next().unwrap_or_default();
    let traced_ms = if tracer.enabled() {
        replays.last().unwrap_or_default()
    } else {
        Vec::new()
    };
    Measured {
        report,
        untraced_ms,
        traced_ms,
        gate_ms,
        updates_per_interval,
    }
}

/// The per-layer metrics every simulated workload reports from its own
/// run; `layer` is `core` or `mesh`, the layer whose step was timed.
pub fn layers(out: &mut Outcome, m: &Measured, cfg: &CellConfig, layer: &str, tracer: &Tracer) {
    let r = &m.report;
    let w = out.window;
    let speedup = percentile(&m.gate_ms, 0.5) / percentile(&m.untraced_ms, 0.5);
    let (step, self_ms, speedup_name, share_name) = match layer {
        "core" => (
            "core.step_ms_p50",
            "core.self_ms",
            "core.threads_speedup",
            "core.serial_share",
        ),
        _ => (
            "mesh.step_ms_p50",
            "mesh.self_ms",
            "mesh.threads_speedup",
            "mesh.serial_share",
        ),
    };
    out.layer(step, percentile(&m.traced_ms, 0.5));
    out.layer(
        self_ms,
        tracer.layer_self_ms(layer, m.traced_ms.len() as u64),
    );
    out.layer(speedup_name, speedup);
    out.layer(share_name, serial_share(speedup, THREADS));
    let measured = out.intervals_ms.len() as f64;
    out.layer(
        "core.awake_per_interval",
        out.awake_client_intervals as f64 / measured,
    );
    out.layer("core.safety_checked", r.safety.entries_checked as f64);
    out.layer("server.updates_per_interval", m.updates_per_interval);
    out.layer(
        "server.report_bits_mean",
        w.report_bits as f64 / w.intervals.max(1) as f64,
    );
    out.layer(
        "server.uplink_answers",
        (r.traffic.query_bits / cfg.params.query_bits as u64) as f64,
    );
    out.layer("wireless.uplink_bits", w.uplink_bits as f64);
    out.layer("wireless.overflow_exchanges", r.overflow_exchanges as f64);
    out.layer("client.hits", w.hits as f64);
    out.layer("client.misses", w.misses as f64);
    out.layer("client.invalidations", w.invalidations as f64);
    out.layer("client.cache_drops", w.drops as f64);
    out.layer("capacity.evictions", r.capacity.evictions as f64);
    out.layer(
        "capacity.capacity_misses",
        r.capacity.capacity_misses as f64,
    );
    out.layer("capacity.coop_served", r.coop.coop_served as f64);
    out.layer("capacity.coop_declined", r.coop.coop_declined as f64);
    overhead_layers(out, percentile(&m.untraced_ms, 0.5), &m.traced_ms);
    span_layers(out, tracer);
}

/// Per-layer times taken from the twin's spans.
pub fn span_layers(out: &mut Outcome, tracer: &Tracer) {
    let intervals = out.layers.get("trace.intervals").copied().unwrap_or(1.0) as u64;
    out.layer(
        "server.update_us",
        percentile(&tracer.durations_us("server.update"), 0.5),
    );
    out.layer(
        "server.build_us",
        percentile(&tracer.durations_us("server.build"), 0.5),
    );
    out.layer("server.self_ms", tracer.layer_self_ms("server", intervals));
    out.layer(
        "wireless.encode_us",
        percentile(&tracer.durations_us("wireless.encode"), 0.5),
    );
    out.layer(
        "wireless.self_ms",
        tracer.layer_self_ms("wireless", intervals),
    );
    out.layer(
        "live.open_us",
        percentile(&tracer.durations_us("live.open"), 0.5),
    );
    out.layer(
        "live.apply_us",
        percentile(&tracer.durations_us("live.apply"), 0.5),
    );
    out.layer("live.self_ms", tracer.layer_self_ms("live", intervals));
    out.layer("trace.spans", tracer.len() as f64);
}

/// The traced run's own cost: the system's interval p50 with spans and
/// the twin beside it, against the untraced p50 of the same run.
pub fn overhead_layers(out: &mut Outcome, untraced_p50: f64, traced_ms: &[f64]) {
    let traced_p50 = percentile(traced_ms, 0.5);
    out.layer("trace.intervals", traced_ms.len() as f64);
    out.layer("trace.untraced_interval_ms_p50", untraced_p50);
    out.layer("trace.interval_ms_p50", traced_p50);
    out.layer("trace.overhead_ms", traced_p50 - untraced_p50);
}

/// Mean over `traced` intervals of the twin's server time, in ms.
pub fn server_ms_per_interval(tracer: &Tracer, intervals: usize) -> f64 {
    ["server.update", "server.build"]
        .iter()
        .map(|name| tracer.durations_us(name).iter().sum::<f64>() / 1e3)
        .sum::<f64>()
        / intervals.max(1) as f64
}
