//! `mesh-churn`: a `MeshSimulation` on boxed units, timed one mesh
//! `step()` (every shard plus the migration and coop barrier) at a time.

use std::time::Instant;

use sleepers::sim::ParallelRunner;
use sleepers::{CellConfig, CellSimulation, SimulationReport, Strategy};
use sw_mesh::{MeshConfig, MeshReport, MeshSimulation};

use crate::live;
use crate::report::Outcome;
use crate::session::{self, ColdSetup, Plan, Sim};
use crate::trace::{ms, percentile, serial_share, SpanId, Tracer};
use crate::workload::{self, THREADS, TS};

const WARMUP: u64 = 20;
/// Replays per run: short windows keep the husk slots every handoff
/// leaves behind (and the memory they hold) bounded.
const REPLAYS: usize = 4;
/// Nominal mesh intervals per second (see `Plan::per_second`).
const PER_SECOND: f64 = 25.0;
/// Intervals each probe measures.
const PROBE: u64 = 40;

fn build(cfg: &MeshConfig, strategy: Strategy, threads: usize) -> MeshSimulation {
    let mut cfg = cfg.clone();
    cfg.base.sweep_threads = Some(threads);
    MeshSimulation::with_runner(cfg, strategy, ParallelRunner::new(threads))
        .expect("workload mesh builds")
}

/// Sums the shard reports' counters into one report.
fn total(r: &MeshReport) -> SimulationReport {
    let mut t = r.cells[0].clone();
    for c in &r.cells[1..] {
        t.queries_posed += c.queries_posed;
        t.hit_events += c.hit_events;
        t.miss_events += c.miss_events;
        t.report_bits_total += c.report_bits_total;
        t.traffic.query_bits += c.traffic.query_bits;
        t.traffic.answer_bits += c.traffic.answer_bits;
        t.items_invalidated += c.items_invalidated;
        t.cache_drops += c.cache_drops;
        t.overflow_exchanges += c.overflow_exchanges;
        t.safety.entries_checked += c.safety.entries_checked;
        t.safety.violations += c.safety.violations;
    }
    t.capacity = r.capacity();
    t.coop = r.coop();
    t.migration = r.migration();
    t
}

struct MeshSim {
    mesh: MeshSimulation,
    /// Each shard's report-bit total after the last interval.
    totals: Vec<u64>,
}

impl Sim for MeshSim {
    fn step(&mut self) {
        self.mesh.step().expect("interval runs");
    }

    fn report_bits(&mut self) -> Vec<u64> {
        let now: Vec<u64> = self
            .mesh
            .cells()
            .iter()
            .map(|c| c.report().report_bits_total)
            .collect();
        let bits = now.iter().zip(&self.totals).map(|(a, b)| a - b).collect();
        self.totals = now;
        bits
    }

    fn reset_metrics(&mut self) {
        self.mesh.reset_metrics();
        self.totals.iter_mut().for_each(|t| *t = 0);
    }

    fn report(&self) -> SimulationReport {
        total(&self.mesh.report())
    }

    fn awake(&self) -> u64 {
        self.mesh
            .cells()
            .iter()
            .flat_map(|c| (0..c.client_slots()).map(move |idx| c.client_stats(idx).intervals_awake))
            .sum()
    }

    fn client0(&self) -> Option<(u64, u64, u64)> {
        None
    }

    fn columnar(&self) -> bool {
        self.mesh.cells().iter().any(|c| c.is_columnar())
    }
}

/// The workload's system, as every replay builds it.
pub fn system(seed: u64) -> MeshSimulation {
    build(&workload::mesh_churn(seed, THREADS), TS, THREADS)
}

pub fn run(setup: &ColdSetup, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = setup.seed;
    let cfg = workload::mesh_churn(seed, THREADS);
    let shard = cfg.cell_config(0);
    let plan = Plan {
        setup,
        strategy: TS,
        replays: REPLAYS,
        warmup: WARMUP,
        per_second: PER_SECOND,
        twin: &shard,
        span: "mesh.step",
        columnar: false,
    };
    let make = |threads| MeshSim {
        mesh: build(&cfg, TS, threads),
        totals: vec![0; cfg.graph.n_cells()],
    };
    let m = session::measure(&mut out, make, &plan, seconds, tracer);
    out.check(m.report.safety.entries_checked > 0, || {
        "the safety checker never ran".into()
    });
    if tracer.enabled() {
        session::layers(&mut out, &m, &cfg.base, "mesh", tracer);
        out.layer("mesh.migrations", m.report.migration.migrations_in as f64);
        out.layer(
            "mesh.handoff_drops",
            m.report.migration.handoff_drops as f64,
        );
        shard_probe(&mut out, &shard, tracer);
        live::probe(&mut out, &cfg.base, TS);
    }
    out
}

/// Step times of a probe on two threads and on one, and the speedup
/// between their medians.
fn two_vs_one(mut run: impl FnMut(usize) -> Vec<f64>) -> (Vec<f64>, f64) {
    let two = run(THREADS);
    let one = run(1);
    let speedup = percentile(&one, 0.5) / percentile(&two, 0.5);
    (two, speedup)
}

/// The core layer on its own: one shard rebuilt as a standalone cell
/// (identical to the shard while nobody migrates), timed on two sweep
/// threads and on one. Its two-thread spans join the run's trace.
fn shard_probe(out: &mut Outcome, shard: &CellConfig, tracer: &mut Tracer) {
    let mut new_s = 0.0;
    let (step_ms, speedup) = two_vs_one(|threads| {
        let mut cfg = shard.clone();
        cfg.sweep_threads = Some(threads);
        let start = Instant::now();
        let mut cell = CellSimulation::new(cfg, TS).expect("shard probe builds");
        if threads == THREADS {
            new_s = start.elapsed().as_secs_f64();
        }
        (1..=PROBE)
            .map(|i| {
                let t = Instant::now();
                cell.step().expect("shard probe runs");
                let end = Instant::now();
                if threads == THREADS {
                    tracer.record("core.step", i, SpanId::ROOT, t, end);
                }
                ms(end - t)
            })
            .collect()
    });
    let mean = step_ms.iter().sum::<f64>() / PROBE as f64;
    let server_ms =
        session::server_ms_per_interval(tracer, tracer.durations_us("server.build").len());
    out.layer("core.new_s", new_s);
    out.layer("core.step_ms_p50", percentile(&step_ms, 0.5));
    out.layer("core.self_ms", mean);
    out.layer("core.self_ms_est", mean - server_ms);
    out.layer("core.threads_speedup", speedup);
    out.layer("core.serial_share", serial_share(speedup, THREADS));
}

/// The mesh layer on another workload's protocol: a 4-cell ring of 100
/// units per cell over that workload's cell parameters, timed on two
/// threads and on one.
pub fn probe(out: &mut Outcome, base: &CellConfig, strategy: Strategy, seed: u64) {
    let mut base = base.clone().with_clients(100);
    base.query = None;
    base.coop = None;
    base.backbone = None;
    let cfg = workload::mesh_of(base, seed);
    let mut report = None;
    let (step_ms, speedup) = two_vs_one(|threads| {
        let mut mesh = build(&cfg, strategy, threads);
        let times = (0..PROBE)
            .map(|_| {
                let t = Instant::now();
                mesh.step().expect("mesh probe runs");
                ms(t.elapsed())
            })
            .collect();
        report.get_or_insert_with(|| mesh.report());
        times
    });
    let report = report.expect("the probe ran");
    out.layer("mesh.step_ms_p50", percentile(&step_ms, 0.5));
    out.layer("mesh.self_ms", step_ms.iter().sum::<f64>() / PROBE as f64);
    out.layer("mesh.threads_speedup", speedup);
    out.layer("mesh.serial_share", serial_share(speedup, THREADS));
    out.layer("mesh.migrations", report.migrations as f64);
    out.layer(
        "mesh.handoff_drops",
        report.migration().handoff_drops as f64,
    );
}
