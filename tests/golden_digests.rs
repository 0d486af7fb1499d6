//! Golden digests: every static strategy shape, on both fleet backends,
//! must reproduce a hard-coded hash of everything it makes observable.
//!
//! A digest is `checksum64` over the `Debug` rendering of the full
//! `SimulationReport` followed by every client's `MuStats` `Debug`, one
//! line each. Both backends must hit the same digest, so the constants
//! pin the boxed units and the columnar fleet at once. They were
//! recorded before the §3 rules were merged into one kernel; a change
//! here means a refactor moved an observable result.

use sleepers_workaholics::prelude::*;
use sleepers_workaholics::wireless::frame::checksum64;

fn base_config(seed: u64) -> CellConfig {
    let mut params = ScenarioParams::scenario1();
    params.n_items = 400;
    params.lambda = 0.04;
    params.bandwidth_bps = 40_000;
    let params = params.with_s(0.4);
    CellConfig::new(params)
        .with_clients(40)
        .with_hotspot_size(24)
        .with_seed(seed)
}

fn fault_plan() -> FaultPlan {
    FaultPlan::none()
        .with_loss(LossModel::burst(0.05, 0.4, 0.8))
        .with_corruption(0.02)
        .with_uplink(UplinkFaults {
            p_fail: 0.1,
            max_attempts: 3,
            backoff_base_bits: 64,
        })
        .with_drift(ClockDrift {
            rate_secs_per_interval: 0.3,
            jitter_secs: 0.5,
        })
}

fn digest(cfg: CellConfig, strategy: Strategy) -> u64 {
    let mut sim = CellSimulation::new(cfg, strategy).expect("valid config");
    sim.run(80).expect("report fits");
    let mut text = format!("{:?}\n", sim.report());
    for idx in 0..sim.client_slots() {
        text.push_str(&format!("{:?}\n", sim.client_stats(idx)));
    }
    checksum64(text.as_bytes())
}

/// Checks one shape on both backends against its recorded digest.
fn check(name: &str, cfg: impl Fn() -> CellConfig, strategy: Strategy, want: u64) {
    for backend in [FleetBackend::Units, FleetBackend::Columnar] {
        let got = digest(cfg().with_fleet(backend), strategy);
        assert_eq!(
            got, want,
            "{name} on {backend:?}: digest {got:#018x}, recorded {want:#018x}"
        );
    }
}

#[test]
fn static_strategies_match_recorded_digests() {
    let shapes: [(&str, Strategy, u64); 6] = [
        ("TS", Strategy::BroadcastTimestamps, 0x0789_8ffd_2f41_1693),
        ("AT", Strategy::AmnesicTerminals, 0x228c_d7d7_b667_264c),
        ("SIG", Strategy::Signatures, 0xfcc4_3955_720b_1a2f),
        ("NC", Strategy::NoCache, 0xc87d_5eac_ed58_828b),
        (
            "HYB(30)",
            Strategy::HybridSig { hot_count: 30 },
            0x3f29_66ae_eacf_ab6a,
        ),
        (
            "GR(20)",
            Strategy::GroupReports { groups: 20 },
            0x6d23_fda4_d001_6853,
        ),
    ];
    for (name, strategy, want) in shapes {
        check(name, || base_config(77), strategy, want);
    }
}

#[test]
fn faulted_strategies_match_recorded_digests() {
    // Without the `faults` feature the plan is accepted but inert, so
    // each build has its own digest.
    let (ts, sig) = if cfg!(feature = "faults") {
        (0x19b9_eda3_f9b8_74e4, 0x8288_b70a_ae55_0a8b)
    } else {
        (0xef8e_b1ca_52be_d89e, 0x98eb_3039_4bd0_9555)
    };
    let shapes: [(&str, Strategy, u64); 2] = [
        ("TS+faults", Strategy::BroadcastTimestamps, ts),
        ("SIG+faults", Strategy::Signatures, sig),
    ];
    for (name, strategy, want) in shapes {
        check(
            name,
            || base_config(99).with_faults(fault_plan()),
            strategy,
            want,
        );
    }
}

#[test]
fn bounded_ts_matches_recorded_digest() {
    check(
        "TS+LRU(15)",
        || {
            base_config(77)
                .with_cache_capacity(15)
                .with_replacement(ReplacementPolicy::Lru)
        },
        Strategy::BroadcastTimestamps,
        0xa698_9020_c524_98c7,
    );
}
