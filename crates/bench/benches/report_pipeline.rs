//! Microbenches of the report pipeline: server-side report building
//! (TS/AT/SIG), client-side report processing, and the signature
//! primitives — the per-interval hot path of every strategy.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sleepers::client::{Cache, ReportHandler, StaticHandler, StaticSpec};
use sleepers::server::{AtBuilder, Database, ReportBuilder, SigBuilder, TsBuilder, UpdateEngine};
use sleepers::signature::{item_signature, SigPlan, SubsetFamily};
use sleepers::sim::{MasterSeed, SimDuration, SimTime, StreamId};
use std::hint::black_box;

fn loaded_db(n: u64, mu: f64, horizon: f64) -> Database {
    let mut rng = MasterSeed(1).stream(StreamId::Updates);
    let mut db = Database::new(n, |i| i, SimDuration::from_secs(horizon * 2.0));
    let mut engine = UpdateEngine::new(n, mu, &mut rng);
    engine.advance(
        &mut db,
        SimTime::ZERO,
        SimTime::from_secs(horizon),
        &mut rng,
    );
    db
}

fn bench_builders(c: &mut Criterion) {
    let mut group = c.benchmark_group("report_build");
    for n in [1_000u64, 100_000] {
        let db = loaded_db(n, 1e-4, 1_000.0);
        let t_i = SimTime::from_secs(1_000.0);

        group.throughput(Throughput::Elements(n));
        group.bench_function(format!("ts/n={n}"), |b| {
            let mut builder = TsBuilder::new(SimDuration::from_secs(10.0), 100);
            b.iter(|| black_box(builder.build(100, t_i, &db)))
        });
        group.bench_function(format!("at/n={n}"), |b| {
            let mut builder = AtBuilder::new(SimDuration::from_secs(10.0));
            b.iter(|| black_box(builder.build(100, t_i, &db)))
        });
    }
    group.finish();

    // SIG: initialization is O(n·m) once; the per-interval cost is the
    // incremental XOR patch + a clone of the m signatures.
    let mut group = c.benchmark_group("sig_build");
    let n = 1_000u64;
    let db = loaded_db(n, 1e-4, 1_000.0);
    let plan = SigPlan::new(10, 16, n, 0.05, SigPlan::DEFAULT_K);
    let family = SubsetFamily::new(9, plan.m, plan.f);
    group.bench_function("init/n=1000", |b| {
        b.iter(|| black_box(SigBuilder::new(plan, family, &db)))
    });
    group.bench_function("per_report/n=1000", |b| {
        let mut builder = SigBuilder::new(plan, family, &db);
        b.iter(|| black_box(builder.build(1, SimTime::from_secs(10.0), &db)))
    });
    group.finish();
}

fn bench_handlers(c: &mut Criterion) {
    let mut group = c.benchmark_group("report_process");
    let n = 1_000u64;
    let db = loaded_db(n, 1e-3, 1_000.0);
    let t_i = SimTime::from_secs(1_000.0);
    let cache_seed = || {
        let mut cache = Cache::unbounded();
        for i in 0..50 {
            cache.insert(i, i, SimTime::from_secs(990.0));
        }
        cache
    };

    let ts_payload = TsBuilder::new(SimDuration::from_secs(10.0), 50).build(100, t_i, &db);
    group.bench_function("ts/cache=50", |b| {
        b.iter_batched(
            cache_seed,
            |mut cache| {
                let mut h = StaticHandler::new(StaticSpec::ts(SimDuration::from_secs(10.0), 50));
                black_box(h.process(&mut cache, &ts_payload, Some(SimTime::from_secs(990.0))))
            },
            BatchSize::SmallInput,
        )
    });

    let at_payload = AtBuilder::new(SimDuration::from_secs(10.0)).build(100, t_i, &db);
    group.bench_function("at/cache=50", |b| {
        b.iter_batched(
            cache_seed,
            |mut cache| {
                let mut h = StaticHandler::new(StaticSpec::at(SimDuration::from_secs(10.0)));
                black_box(h.process(&mut cache, &at_payload, Some(SimTime::from_secs(990.0))))
            },
            BatchSize::SmallInput,
        )
    });

    let plan = SigPlan::new(10, 16, n, 0.05, SigPlan::DEFAULT_K);
    let family = SubsetFamily::new(9, plan.m, plan.f);
    let mut sig_builder = SigBuilder::new(plan, family, &db);
    let sig_payload = sig_builder.build(100, t_i, &db);
    group.bench_function("sig/cache=50", |b| {
        b.iter_batched(
            || {
                let mut h = StaticHandler::new(StaticSpec::sig(sig_builder.decoder()));
                let mut cache = cache_seed();
                // Prime the tracked signatures with one report.
                let _ = h.process(&mut cache, &sig_payload, None);
                (h, cache)
            },
            |(mut h, mut cache)| {
                black_box(h.process(&mut cache, &sig_payload, Some(SimTime::from_secs(990.0))))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_signature_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("sig_primitives");
    group.throughput(Throughput::Elements(1));
    group.bench_function("item_signature", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(item_signature(black_box(i), black_box(i * 31), 16))
        })
    });
    let family = SubsetFamily::new(3, 654, 10);
    group.bench_function("subset_membership", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(family.contains((i % 654) as u32, i))
        })
    });
    group.bench_function("subsets_of_item", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(family.subsets_of(i).count())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_builders,
    bench_handlers,
    bench_signature_primitives
);
criterion_main!(benches);
