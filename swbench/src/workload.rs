//! The workloads' inputs. Every input is a function of the seed alone;
//! README.md records why each workload exists.

use sleepers::capacity::{CoopConfig, ReplacementPolicy};
use sleepers::sim::MasterSeed;
use sleepers::workload::ScenarioParams;
use sleepers::{CellConfig, Strategy};
use sw_mesh::{CellGraph, MeshConfig, MobilityModel};

/// Worker threads for sweeps and mesh shards: the load generator stays
/// within a 2-CPU budget.
pub const THREADS: usize = 2;
/// Items in the database (every workload).
pub const N_ITEMS: u64 = 2_000;
/// Per-client hot spot (every workload).
pub const HOTSPOT: usize = 30;

/// Scenario 1 at `n = 2000` with a channel wide enough that no uplink
/// exchange is ever deferred (`widen` multiplies the bandwidth).
fn params(s: f64, widen: u64) -> ScenarioParams {
    let mut p = ScenarioParams::scenario1();
    p.n_items = N_ITEMS;
    p.bandwidth_bps *= widen;
    p.with_s(s)
}

/// `fleet-ts`: a columnar TS cell of 100k clients at s = 0.5, λ scaled
/// by 0.1 (`bench_report`'s scale leg).
pub fn fleet_ts(seed: u64, threads: usize) -> CellConfig {
    let clients = 100_000;
    let mut p = params(0.5, 2_048 * (clients as u64 / 1_000));
    p.lambda *= 0.1;
    CellConfig::new(p)
        .with_clients(clients)
        .with_hotspot_size(HOTSPOT)
        .with_seed(seed)
        .with_sweep_threads(threads)
}

/// `sig-sleepers`: a columnar SIG cell of 2000 clients at s = 0.8 with
/// scenario-1 rates unscaled.
pub fn sig_sleepers(seed: u64, threads: usize) -> CellConfig {
    CellConfig::new(params(0.8, 4_096))
        .with_clients(2_000)
        .with_hotspot_size(HOTSPOT)
        .with_seed(seed)
        .with_sweep_threads(threads)
}

/// `mesh-churn`'s cell template: TS with k = 10, s = 0.3, λ = 0.01,
/// μ = 10⁻³, caches bounded to 15 entries under LRU, safety checker on.
pub fn mesh_cell(clients: usize, threads: usize) -> CellConfig {
    let mut p = params(0.3, 2_048);
    p.k = 10;
    p.lambda = 0.01;
    p.mu = 1e-3;
    CellConfig::new(p)
        .with_clients(clients)
        .with_hotspot_size(HOTSPOT)
        .with_cache_capacity(15)
        .with_replacement(ReplacementPolicy::Lru)
        .with_safety_checking()
        .with_sweep_threads(threads)
}

/// `mesh-churn`: a 4-cell ring of 500 units per cell with Markov
/// mobility at rate 0.05 and cooperative misses on.
pub fn mesh_churn(seed: u64, threads: usize) -> MeshConfig {
    mesh_of(mesh_cell(500, threads), seed)
}

/// A 4-cell ring over `base` with the mesh-churn mobility and coop.
pub fn mesh_of(base: CellConfig, seed: u64) -> MeshConfig {
    MeshConfig::new(CellGraph::ring(4), base, MasterSeed(seed))
        .with_mobility(MobilityModel::Markov { rate: 0.05 })
        .with_coop(CoopConfig::default())
}

pub const TS: Strategy = Strategy::BroadcastTimestamps;
pub const SIG: Strategy = Strategy::Signatures;
