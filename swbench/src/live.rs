//! The live layer: `LiveServer` plus one `run_mu` thread per MU over
//! loopback TCP/UDP, advancing one interval per lockstep barrier.
//!
//! Every traced run probes it with one session of two MUs over its own
//! workload's cell parameters, the query plane armed. The benchmark
//! plugs a solo `TickCoordinator` into `LiveServer::spawn_coordinated`;
//! the ticker calls it before it builds each interval and again after
//! the broadcast, so its marks time every round from outside the
//! server: `coordinate` to `after_broadcast` is the tick (update, build,
//! encode, seal, send), and from there to the next `coordinate` is the
//! barrier (receive, verify, apply, uplink, `Done`).

use std::io;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sleepers::query::QueryPlaneConfig;
use sleepers::{CellConfig, Strategy};
use sw_live::conformance::sim_decision_log;
use sw_live::{
    audit_against_history, encode_rows, run_mu, LiveMuReport, LiveOptions, LiveServer,
    LiveServerReport, MuOptions, TickCoordinator, TickDirective,
};

use crate::report::Outcome;
use crate::trace::{percentile, SpanId, Tracer};
use crate::twin::Twin;

/// Intervals of the probe session.
const PROBE: u64 = 300;

/// When the ticker reached `coordinate` and `after_broadcast`.
#[derive(Clone, Copy)]
struct Mark {
    interval: u64,
    coordinate: Instant,
    broadcast: Option<Instant>,
}

/// A one-node coordinator: always primary, never replicates, and marks
/// the time of each call.
struct SoloCoordinator {
    marks: Arc<Mutex<Vec<Mark>>>,
}

impl TickCoordinator for SoloCoordinator {
    fn coordinate(
        &mut self,
        interval: u64,
        local_publishes: Vec<(u64, u64)>,
        _stop: &AtomicBool,
    ) -> io::Result<TickDirective> {
        self.marks.lock().expect("marks lock").push(Mark {
            interval,
            coordinate: Instant::now(),
            broadcast: None,
        });
        Ok(TickDirective::solo(local_publishes))
    }

    fn after_broadcast(&mut self, interval: u64) -> io::Result<()> {
        let mut marks = self.marks.lock().expect("marks lock");
        let last = marks.last_mut().expect("coordinate precedes the broadcast");
        debug_assert_eq!(last.interval, interval);
        last.broadcast = Some(Instant::now());
        Ok(())
    }

    fn status(&self) -> (u64, bool) {
        (0, true)
    }
}

/// One finished lockstep session.
struct Session {
    marks: Vec<Mark>,
    server: LiveServerReport,
    mus: Vec<LiveMuReport>,
}

fn session(cfg: &CellConfig, strategy: Strategy, intervals: u64) -> io::Result<Session> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let marks = Arc::new(Mutex::new(Vec::with_capacity(intervals as usize)));
    let coordinator = SoloCoordinator {
        marks: Arc::clone(&marks),
    };
    let handle = LiveServer::spawn_coordinated(
        cfg.clone(),
        strategy,
        LiveOptions::lockstep(intervals),
        listener,
        Box::new(coordinator),
    )?;
    let addr = handle.addr();
    let workers: Vec<_> = (0..cfg.n_clients)
        .map(|idx| {
            let cfg = cfg.clone();
            let opts = MuOptions {
                audit_cache: true,
                ..MuOptions::default()
            };
            thread::spawn(move || run_mu(addr, &cfg, strategy, idx, opts))
        })
        .collect();
    let mut mus = Vec::with_capacity(workers.len());
    let mut first_err = None;
    for worker in workers {
        match worker.join() {
            Ok(Ok(report)) => mus.push(report),
            Ok(Err(e)) => {
                first_err.get_or_insert(e);
            }
            Err(_) => {
                first_err.get_or_insert_with(|| io::Error::other("MU thread panicked"));
            }
        }
    }
    if let Some(e) = first_err {
        handle.shutdown();
        let _ = handle.wait();
        return Err(e);
    }
    let server = handle.wait()?;
    let marks = std::mem::take(&mut *marks.lock().expect("marks lock"));
    Ok(Session { marks, server, mus })
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs the probe session over `base`'s cell parameters and checks it:
/// each MU's decision rows must be byte-identical to `sim_decision_log`
/// and to the rows the server collected at the barrier, the audit must
/// find no stale cache entry, no awake MU may miss a report, and a
/// server twin replaying the seed must seal the server's bytes and
/// decide as MU 0 did.
pub fn probe(out: &mut Outcome, base: &CellConfig, strategy: Strategy) {
    let mut cfg = base
        .clone()
        .with_clients(2)
        .with_safety_checking()
        .with_query(QueryPlaneConfig::new());
    cfg.coop = None;
    cfg.backbone = None;
    let s = session(&cfg, strategy, PROBE).expect("live probe runs");
    let reference = sim_decision_log(&cfg, strategy, PROBE).expect("probe reference runs");
    let history = s
        .server
        .history
        .as_ref()
        .expect("the server keeps a value history");
    for (idx, mu) in s.mus.iter().enumerate() {
        out.check(
            encode_rows(&mu.rows) == encode_rows(&reference[idx]),
            || format!("live MU {idx} differs from the simulator's decision log"),
        );
        out.check(
            encode_rows(&mu.rows) == encode_rows(&s.server.rows[idx]),
            || format!("live MU {idx}'s barrier rows differ from its own rows"),
        );
        let (_, stale) = audit_against_history(history, &mu.audit);
        out.check(stale == 0, || {
            format!("live MU {idx} held {stale} stale entries")
        });
        out.check(mu.reports_missed == 0, || {
            format!("live MU {idx} missed {} reports", mu.reports_missed)
        });
    }
    let mut twin = Twin::new(&cfg, strategy, true);
    let (mut bytes, mut rows) = (0, Vec::new());
    for _ in 0..PROBE {
        let tick = twin.step(&mut Tracer::new(false), SpanId::ROOT);
        bytes += tick.datagram_bytes;
        rows.push(tick.row.expect("the twin runs a replica"));
    }
    out.check(bytes == s.server.report_bytes, || {
        "the twin's sealed bytes differ from the live server's".into()
    });
    out.check(encode_rows(&rows) == encode_rows(&s.mus[0].rows), || {
        "the twin's live replica decided differently from MU 0".into()
    });

    // Round i runs from coordinate(i) to coordinate(i+1).
    let (mut ticks, mut barriers) = (Vec::new(), Vec::new());
    for w in s.marks.windows(2) {
        let broadcast = w[0].broadcast.expect("every aired tick is marked");
        ticks.push(us(broadcast - w[0].coordinate));
        barriers.push(us(w[1].coordinate - broadcast));
    }
    out.layer("live.tick_us_p50", percentile(&ticks, 0.5));
    out.layer("live.barrier_us_p50", percentile(&barriers, 0.5));
    let missed: u64 = s.mus.iter().map(|m| m.reports_missed).sum();
    out.layer("live.reports_missed", missed as f64);
    out.layer("live.uplink_answers", s.server.uplink_answers as f64);
    out.layer("live.report_bytes", s.server.report_bytes as f64);
    let (mut hits, mut misses, mut aborts) = (0, 0, 0);
    for m in &s.mus {
        hits += m.query.hits;
        misses += m.query.misses;
        aborts += m.query.txn_aborts;
    }
    out.layer("query.hits", hits as f64);
    out.layer("query.misses", misses as f64);
    out.layer("query.txn_aborts", aborts as f64);
}
