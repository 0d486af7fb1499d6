//! The server twin: a server-side replica built from a cell's protocol
//! seed, stepped beside the real system so the traced run can time the
//! server, wireless and live-client layers through their public calls.
//!
//! The twin is exactly the live daemon's tick — `UpdateEngine` arrivals
//! into a `Database`, `ServerDriver` ingestion and build, then
//! `WireEncode` serialization and `seal_frame` — plus one `LiveMu`
//! replica of client 0 that opens and applies every sealed report and
//! answers its misses from the twin's database. The caller asserts that
//! the twin's report bits equal the real system's on every interval,
//! which is what proves the twin times the same work.

use sleepers::client::handler::time_to_micros;
use sleepers::faults::ReportFate;
use sleepers::server::{Database, UpdateEngine, UplinkProcessor};
use sleepers::sim::{IntervalClock, RngStream, SimDuration, SimTime, StreamId};
use sleepers::wireless::frame::{open_frame, seal_frame};
use sleepers::wireless::{FramePayload, WireEncode};
use sleepers::{CellConfig, ServerDriver, Strategy};
use sw_live::{DecisionRow, LiveMu};

use crate::trace::{SpanId, Tracer};

pub struct Twin {
    db: Database,
    engine: UpdateEngine,
    update_rng: RngStream,
    driver: ServerDriver,
    clock: IntervalClock,
    encode: WireEncode,
    uplink: UplinkProcessor,
    replica: Option<LiveMu>,
    /// Updates applied so far.
    pub updates: u64,
}

/// What one twin interval produced.
pub struct TwinTick {
    pub interval: u64,
    pub report_bits: u64,
    pub datagram_bytes: u64,
    /// The replica's decision row (`None` without a replica).
    pub row: Option<DecisionRow>,
}

impl Twin {
    /// Builds the twin of `cfg`'s server, the way `CellSimulation::new`
    /// and the live daemon build theirs. With `replica`, a `LiveMu` of
    /// client 0 hears every report.
    pub fn new(cfg: &CellConfig, strategy: Strategy, replica: bool) -> Self {
        let params = cfg.params;
        let latency = SimDuration::from_secs(params.latency_secs);
        let retention = latency.scaled((params.k as f64 + 2.0).max(4.0));
        let protocol_seed = cfg.protocol_seed();
        let mut db_rng = protocol_seed.stream(StreamId::Database);
        let db = Database::new(params.n_items, |_| db_rng.next_u64(), retention);
        let driver = ServerDriver::new(strategy, &params, protocol_seed, &db, cfg.n_clients);
        let mut update_rng = protocol_seed.stream(StreamId::Updates);
        let engine = UpdateEngine::new(params.n_items, params.mu, &mut update_rng);
        Twin {
            db,
            engine,
            update_rng,
            driver,
            clock: IntervalClock::new(latency),
            encode: WireEncode::new(
                params.n_items,
                params.timestamp_bits,
                params.query_bits,
                params.answer_bits,
            ),
            uplink: UplinkProcessor::with_universe(params.n_items),
            replica: replica.then(|| LiveMu::new(cfg, strategy, 0)),
            updates: 0,
        }
    }

    /// Runs one interval, recording `server.update`, `server.build`,
    /// `wireless.encode`, `live.open` and `live.apply` spans under
    /// `parent`.
    pub fn step(&mut self, tracer: &mut Tracer, parent: SpanId) -> TwinTick {
        let (i, t_i) = self.clock.tick();
        let from = self.clock.report_time(i - 1);
        let (db, engine, rng, driver) = (
            &mut self.db,
            &mut self.engine,
            &mut self.update_rng,
            &mut self.driver,
        );
        let applied = tracer.span("server.update", i, parent, || {
            let recs = engine.advance(db, from, t_i, rng);
            for rec in &recs {
                driver.on_update(rec);
            }
            recs.len() as u64
        });
        self.updates += applied;
        let payload = tracer.span("server.build", i, parent, || {
            let payload = driver.build(i, t_i, db);
            db.prune_log(t_i);
            payload
        });
        let encode = self.encode;
        let report_bits = encode.payload_bits(&payload);
        let datagram = tracer.span("wireless.encode", i, parent, || {
            seal_frame(0, encode.serialize_payload(&payload))
        });
        let row = self
            .replica
            .is_some()
            .then(|| self.replica_hears(i, t_i, &datagram, tracer, parent));
        TwinTick {
            interval: i,
            report_bits,
            datagram_bytes: datagram.len() as u64,
            row,
        }
    }

    /// The replica's interval, in `run_mu`'s order: open and apply the
    /// report, fetch its misses and query-plane footprint over the
    /// twin's uplink, settle, close.
    fn replica_hears(
        &mut self,
        i: u64,
        t_i: SimTime,
        datagram: &[u8],
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> DecisionRow {
        let mu = self.replica.as_mut().expect("called with a replica");
        if i < mu.next_wake() {
            return mu.asleep_row(i);
        }
        mu.begin_interval(i);
        let frame = tracer.span("live.open", i, parent, || {
            open_frame(datagram)
                .expect("the twin sealed this datagram")
                .1
        });
        let requests = tracer.span("live.apply", i, parent, || {
            mu.hear_frame(frame, ReportFate::Heard)
                .expect("the twin's report decodes")
        });
        let (db, uplink, encode) = (&self.db, &mut self.uplink, self.encode);
        let mut fetch = |mu: &mut LiveMu, item: u64| {
            let answer = uplink.answer(db, item, t_i, None);
            let payload = FramePayload::QueryAnswer {
                item: answer.item,
                value: answer.value,
                ts_micros: time_to_micros(answer.timestamp),
            };
            mu.install_answer_frame(&seal_frame(0, encode.serialize_payload(&payload)))
                .expect("the twin's answer decodes");
        };
        for (item, _) in requests {
            fetch(mu, item);
        }
        for item in mu.check_queries(i) {
            fetch(mu, item);
        }
        mu.settle_queries(i);
        mu.end_interval(i)
    }
}
