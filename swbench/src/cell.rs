//! `fleet-ts` and `sig-sleepers`: one `CellSimulation` on the columnar
//! fleet, timed one `step()` at a time.

use sleepers::{CellConfig, CellSimulation, SimulationReport, Strategy};

use crate::report::Outcome;
use crate::session::{self, ColdSetup, Plan, Sim};
use crate::trace::{percentile, Tracer};
use crate::{live, mesh};

/// One cell workload.
pub struct CellSpec {
    pub config: fn(u64, usize) -> CellConfig,
    pub strategy: Strategy,
    /// Replays of the window (see [`Plan::replays`]).
    pub replays: usize,
    /// Unmeasured intervals after set-up.
    pub warmup: u64,
    /// Nominal intervals per second (see [`Plan::per_second`]).
    pub per_second: f64,
}

pub struct CellSim {
    pub sim: CellSimulation,
    last_bits: u64,
}

impl CellSim {
    pub fn new(cfg: CellConfig, strategy: Strategy) -> Self {
        CellSim {
            sim: CellSimulation::new(cfg, strategy).expect("workload cell builds"),
            last_bits: 0,
        }
    }
}

impl Sim for CellSim {
    fn step(&mut self) {
        self.last_bits = self.sim.step().expect("interval runs");
    }

    fn report_bits(&mut self) -> Vec<u64> {
        vec![self.last_bits]
    }

    fn reset_metrics(&mut self) {
        self.sim.reset_metrics();
    }

    fn report(&self) -> SimulationReport {
        self.sim.report()
    }

    fn awake(&self) -> u64 {
        (0..self.sim.client_slots())
            .map(|idx| self.sim.client_stats(idx).intervals_awake)
            .sum()
    }

    fn client0(&self) -> Option<(u64, u64, u64)> {
        let s = self.sim.client_stats(0);
        Some((s.queries_posed, s.hit_events, s.miss_events))
    }

    fn columnar(&self) -> bool {
        self.sim.is_columnar()
    }
}

pub fn run(spec: &CellSpec, setup: &ColdSetup, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = setup.seed;
    let cfg = (spec.config)(seed, 1);
    let plan = Plan {
        setup,
        strategy: spec.strategy,
        replays: spec.replays,
        warmup: spec.warmup,
        per_second: spec.per_second,
        twin: &cfg,
        span: "core.step",
        columnar: true,
    };
    let build = |threads| CellSim::new((spec.config)(seed, threads), spec.strategy);
    let m = session::measure(&mut out, build, &plan, seconds, tracer);
    if tracer.enabled() {
        session::layers(&mut out, &m, &cfg, "core", tracer);
        let n = m.traced_ms.len();
        let step_mean = m.traced_ms.iter().sum::<f64>() / n as f64;
        out.layer("core.new_s", percentile(&out.setups_s, 0.5));
        out.layer(
            "core.self_ms_est",
            step_mean - session::server_ms_per_interval(tracer, n),
        );
        live::probe(&mut out, &cfg, spec.strategy);
        mesh::probe(&mut out, &cfg, spec.strategy, seed);
    }
    out
}
