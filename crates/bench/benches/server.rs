//! `prepared_vs_adhoc`: what the server's shared plan cache buys.
//!
//! EmptyHeaded's compile-once design (paper §3) means a request that
//! re-parses and re-plans pays the GHD search and code generation every
//! time, while a request through the plan cache pays a hash lookup
//! and runs the compiled artifact. Measured on the googleplus-analog
//! triangle count (the paper's canonical query), in-process — the same
//! code paths a server session dispatches, minus socket I/O.

use criterion::{criterion_group, criterion_main, Criterion};
use eh_bench::queries;
use eh_core::Database;
use eh_graph::paper_datasets;
use eh_server::Shared;

fn loaded_db() -> Database {
    let g = paper_datasets()[0].generate_scaled(0.05).prune_by_degree();
    let mut db = Database::new();
    db.load_graph("Edge", &g);
    // Warm the tries so every variant measures plan handling + join
    // execution, not index construction (paper §5.1.3).
    db.query_ref(queries::TRIANGLE).unwrap();
    db
}

fn bench_prepared_vs_adhoc(c: &mut Criterion) {
    let mut group = c.benchmark_group("prepared_vs_adhoc");
    group.sample_size(10);
    let shared = Shared::new(loaded_db(), 64);
    let db = shared.db.read();

    // Every request re-parses, re-validates, re-runs the GHD search,
    // and re-compiles the physical plan (a server with no plan cache).
    group.bench_function("adhoc_replan", |b| {
        b.iter(|| db.query_ref(queries::TRIANGLE).unwrap().scalar_u64())
    });

    // Every request goes through the shared LRU cache: one compile on
    // the first request, a normalized-text hash lookup afterwards —
    // the server's `Exec` fast path.
    shared.cached_plan(&db, queries::TRIANGLE).unwrap();
    group.bench_function("plan_cache", |b| {
        b.iter(|| {
            let (plan, _) = shared.cached_plan(&db, queries::TRIANGLE).unwrap();
            plan.execute(&db).unwrap().scalar_u64()
        })
    });

    // The floor: a statement handle held directly (no lookup at all).
    let stmt = db.prepare(queries::TRIANGLE).unwrap();
    group.bench_function("prepared_direct", |b| {
        b.iter(|| stmt.execute(&db).unwrap().scalar_u64())
    });

    group.finish();
}

criterion_group!(benches, bench_prepared_vs_adhoc);
criterion_main!(benches);
