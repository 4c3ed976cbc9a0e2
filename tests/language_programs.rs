//! Integration tests for multi-rule programs: the paper's PageRank and
//! SSSP programs end-to-end through the public API.

use emptyheaded::semiring::{AggOp, DynValue};
use emptyheaded::{Config, Database, Relation, TupleBuffer};

fn cycle_graph(n: u32) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for i in 0..n {
        let j = (i + 1) % n;
        edges.push((i, j));
        edges.push((j, i));
    }
    edges
}

#[test]
fn pagerank_on_cycle_is_uniform() {
    // On a regular graph PageRank is uniform at every iteration.
    let edges = cycle_graph(8);
    let g = emptyheaded::Graph::from_dense(8, edges);
    let pr = emptyheaded::algorithms::pagerank(&g, 5, Config::default()).unwrap();
    for w in pr.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-12, "uniform ranks: {pr:?}");
    }
}

#[test]
fn sssp_program_via_raw_queries() {
    // The exact Table 1 program, driven manually through Database::query.
    let mut db = Database::new();
    let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (0, 4)];
    let mut rows: Vec<(u32, u32)> = Vec::new();
    for (a, b) in edges {
        rows.push((a, b));
        rows.push((b, a));
    }
    db.load_edges("Edge", &rows);
    db.define_const("start", 0);
    db.query("SSSP(x;y:int) :- Edge('start',x); y=1.").unwrap();
    let out = db
        .query("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.")
        .unwrap();
    assert_eq!(out.annotation_for(&[1]), Some(DynValue::U64(1)));
    assert_eq!(out.annotation_for(&[4]), Some(DynValue::U64(1)));
    assert_eq!(out.annotation_for(&[2]), Some(DynValue::U64(2)));
    assert_eq!(out.annotation_for(&[3]), Some(DynValue::U64(2)));
}

#[test]
fn count_nodes_then_use_scalar() {
    let mut db = Database::new();
    db.load_edges("Edge", &[(0, 1), (1, 2), (2, 0)]);
    // N counts edges here (3); initialize values to 1/N = 1/3.
    let out = db
        .query(
            "N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.\n\
             Init(x;y:float) :- Edge(x,z); y=1/N.",
        )
        .unwrap();
    for (_, v) in out.annotated_rows() {
        assert!((v.as_f64() - 1.0 / 3.0).abs() < 1e-12);
    }
}

#[test]
fn annotated_relations_flow_through_joins() {
    // Matrix-vector multiply in the SUM semiring: M(i,j) annotated with
    // values, V(j) annotated, result(i) = Σ_j M(i,j)·V(j).
    let mut db = Database::new();
    db.register(
        "M",
        Relation::from_buffer(
            TupleBuffer::from_annotated_rows(
                2,
                &[vec![0, 0], vec![0, 1], vec![1, 1]],
                vec![DynValue::F64(2.0), DynValue::F64(3.0), DynValue::F64(4.0)],
            ),
            AggOp::Sum,
        ),
    );
    db.register(
        "V",
        Relation::from_buffer(
            TupleBuffer::from_annotated_rows(
                1,
                &[vec![0], vec![1]],
                vec![DynValue::F64(10.0), DynValue::F64(100.0)],
            ),
            AggOp::Sum,
        ),
    );
    let out = db
        .query("R(i;y:float) :- M(i,j),V(j); y=<<SUM(j)>>.")
        .unwrap();
    // R(0) = 2*10 + 3*100 = 320; R(1) = 4*100 = 400.
    assert_eq!(out.annotation_for(&[0]), Some(DynValue::F64(320.0)));
    assert_eq!(out.annotation_for(&[1]), Some(DynValue::F64(400.0)));
}

#[test]
fn min_aggregation_over_annotations() {
    let mut db = Database::new();
    db.register(
        "D",
        Relation::from_buffer(
            TupleBuffer::from_annotated_rows(
                2,
                &[vec![0, 1], vec![0, 2], vec![1, 2]],
                vec![DynValue::U64(5), DynValue::U64(2), DynValue::U64(9)],
            ),
            AggOp::Min,
        ),
    );
    let out = db.query("M(x;y:int) :- D(x,z); y=<<MIN(z)>>.").unwrap();
    assert_eq!(out.annotation_for(&[0]), Some(DynValue::U64(2)));
    assert_eq!(out.annotation_for(&[1]), Some(DynValue::U64(9)));
}

#[test]
fn program_rules_share_namespace() {
    let mut db = Database::new();
    db.load_edges("E", &[(0, 1), (1, 2), (2, 3)]);
    let out = db
        .query(
            "Two(x,z) :- E(x,y),E(y,z).\n\
             Three(x,w) :- Two(x,z),E(z,w).\n\
             C(;w:long) :- Three(x,y); w=<<COUNT(*)>>.",
        )
        .unwrap();
    assert_eq!(out.scalar_u64(), Some(1)); // 0→1→2→3
}

#[test]
fn fixpoint_reachability_via_min() {
    // Reachability as MIN-distance fixpoint on a DAG with a diamond.
    let mut db = Database::new();
    db.load_edges("Edge", &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
    db.define_const("start", 0);
    db.query("R(x;y:int) :- Edge('start',x); y=1.").unwrap();
    let out = db
        .query("R(x;y:int)* :- Edge(w,x),R(w); y=<<MIN(w)>>+1.")
        .unwrap();
    assert_eq!(out.annotation_for(&[3]), Some(DynValue::U64(2)));
    assert_eq!(out.annotation_for(&[4]), Some(DynValue::U64(3)));
}

#[test]
fn threads_config_does_not_change_results() {
    let mut edges = Vec::new();
    for a in 0..20u32 {
        for b in 0..20u32 {
            if a < b && (a + b) % 3 != 0 {
                edges.push((b, a));
            }
        }
    }
    let q = "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.";
    let mut db = Database::new();
    db.load_edges("E", &edges);
    let serial = db.query(q).unwrap().scalar_u64().unwrap();
    let mut db = Database::with_config(Config::default().with_threads(4));
    db.load_edges("E", &edges);
    let parallel = db.query(q).unwrap().scalar_u64().unwrap();
    assert_eq!(serial, parallel);
}
