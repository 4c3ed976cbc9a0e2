//! EmptyHeaded — a relational engine for graph processing.
//!
//! This crate is the public facade of the reproduction of
//! *EmptyHeaded: A Relational Engine for Graph Processing* (SIGMOD 2016):
//! a worst-case optimal join engine with GHD-based query compilation and a
//! skew-aware SIMD execution engine.
//!
//! ```
//! use eh_core::Database;
//!
//! let mut db = Database::new();
//! db.load_edges("Edge", &[(0, 1), (1, 2), (0, 2), (2, 3)]);
//! let result = db
//!     .query("TriangleCount(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.")
//!     .unwrap();
//! assert_eq!(result.scalar_u64(), Some(1));
//! ```

pub mod algorithms;
pub mod database;
pub mod result;

pub use database::{parse, CoreError, Database, Prepared};
pub use eh_exec::{
    Config, QueryProfile, Relation, Scheduler, Span, Trace, TraceId, TupleBuffer, WorkCounters,
};
pub use eh_graph::Graph;
pub use eh_storage::{
    ColumnType, CsvOptions, LoadReport, RelationSchema, StorageCatalog, TypedValue,
};
pub use result::QueryResult;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let mut db = Database::new();
        db.load_edges("Edge", &[(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]);
        let tri = db
            .query("T(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).")
            .unwrap();
        assert_eq!(tri.num_rows(), 2); // (0,1,2) and (1,2,3)... directed
        let count = db
            .query("C(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.")
            .unwrap();
        assert_eq!(count.scalar_u64(), Some(tri.num_rows() as u64));
    }

    #[test]
    fn multi_rule_program_with_scalar() {
        let mut db = Database::new();
        db.load_edges("Edge", &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        // Count edges into N, then use 1/N as an initial PageRank value.
        let out = db
            .query(
                "N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.\n\
                 PR(x;y:float) :- Edge(x,z); y=1/N.",
            )
            .unwrap();
        assert_eq!(out.num_rows(), 3);
        for (_, v) in out.annotated_rows() {
            assert!((v.as_f64() - 0.25).abs() < 1e-9); // 1/4 edges
        }
    }

    #[test]
    fn queries_see_earlier_results() {
        let mut db = Database::new();
        db.load_edges("E", &[(0, 1), (1, 2)]);
        db.query("Hop2(x,z) :- E(x,y),E(y,z).").unwrap();
        let out = db.query("Hop3(x,w) :- Hop2(x,z),E(z,w).").unwrap();
        assert_eq!(out.num_rows(), 0); // no 3-hop path in a 2-edge chain
        let out = db.query("Again(x,z) :- Hop2(x,z).").unwrap();
        assert_eq!(out.num_rows(), 1);
    }
}
