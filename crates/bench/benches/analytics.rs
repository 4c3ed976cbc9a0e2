//! Criterion benches for the graph-analytics workloads — the measured form
//! of paper Tables 6 (PageRank) and 7 (SSSP).

use criterion::{criterion_group, criterion_main, Criterion};
use eh_core::Config;
use eh_graph::paper_datasets;

fn bench_table6_pagerank(c: &mut Criterion) {
    let mut group = c.benchmark_group("table6_pagerank");
    group.sample_size(10);
    let g = paper_datasets()[2].generate_scaled(0.05); // LiveJournal analog
    group.bench_function("emptyheaded", |b| {
        b.iter(|| eh_core::algorithms::pagerank(&g, 5, Config::default()).unwrap())
    });
    group.bench_function("galois_class", |b| {
        b.iter(|| eh_baselines::lowlevel::pagerank(&g, 5))
    });
    group.bench_function("socialite_class", |b| {
        b.iter(|| eh_baselines::pairwise::pagerank(&g.edges, g.num_nodes, 5))
    });
    group.finish();
}

fn bench_table7_sssp(c: &mut Criterion) {
    let mut group = c.benchmark_group("table7_sssp");
    group.sample_size(10);
    let g = paper_datasets()[2].generate_scaled(0.05);
    let start = g.max_degree_node();
    group.bench_function("emptyheaded_seminaive", |b| {
        b.iter(|| eh_core::algorithms::sssp(&g, start, Config::default()).unwrap())
    });
    group.bench_function("galois_class_bfs", |b| {
        b.iter(|| eh_baselines::lowlevel::sssp_bfs(&g, start))
    });
    group.bench_function("powergraph_class_bf", |b| {
        b.iter(|| eh_baselines::lowlevel::sssp_bellman_ford(&g, start))
    });
    group.bench_function("socialite_class_naive", |b| {
        b.iter(|| eh_baselines::pairwise::sssp_naive_datalog(&g.edges, g.num_nodes, start))
    });
    group.finish();
}

/// SSSP where the seminaive frontier is a few rows for thousands of
/// iterations (a path, a road-like grid) — the opposite end from the
/// low-diameter analogs above, where it is most of the graph. Time per
/// node should not grow with the path's length.
fn bench_sssp_high_diameter(c: &mut Criterion) {
    let mut group = c.benchmark_group("sssp_high_diameter");
    group.sample_size(10);
    let grid = |cols: u32, rows: u32| {
        let mut edges = Vec::new();
        for v in 0..cols * rows {
            if v % cols + 1 < cols {
                edges.extend([(v, v + 1), (v + 1, v)]);
            }
            if v / cols + 1 < rows {
                edges.extend([(v, v + cols), (v + cols, v)]);
            }
        }
        eh_graph::Graph::from_dense(cols * rows, edges)
    };
    for (name, g) in [
        ("path_5k", grid(5_000, 1)),
        ("path_20k", grid(20_000, 1)),
        ("grid_150x150", grid(150, 150)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| eh_core::algorithms::sssp(&g, 0, Config::default()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_table6_pagerank,
    bench_table7_sssp,
    bench_sssp_high_diameter
);
criterion_main!(benches);
