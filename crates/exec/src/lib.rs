//! The EmptyHeaded execution engine (paper §3.3, §4).
//!
//! The query compiler hands this crate a [`eh_ghd::GhdPlan`]; "code
//! generation" (paper §3.3) becomes construction of an explicit
//! [`plan::PhysicalPlan`] — the same loop nest the paper's C++ generator
//! emits, as an interpretable IR over the trie/set kernels (see README's
//! "What the loop nest knows before it runs"). Execution then runs:
//!
//! * **within each GHD node** — the generic worst-case optimal join
//!   (Algorithm 1): each node is first compiled into a `JoinProgram`
//!   (per-level participation tables and bind plan, precomputed in
//!   `program`), then the allocation-free recursion in `gj` —
//!   monomorphised over the node's `(AggOp, carrier)` pair — runs one
//!   loop per attribute in the global order, each loop body an
//!   [`eh_set::intersect::intersect_all_with`] (or, at a counted innermost
//!   level, [`eh_set::intersect::count_all_with`]) pass over the tries
//!   that contain the attribute, with all scratch owned by a per-node
//!   `GjContext`;
//! * **across threads** — the morsel-driven level-0 scheduler in
//!   `parallel` (workers pull fixed-size value chunks off an atomic
//!   cursor; a static-partition baseline remains as the ablation),
//!   merging per-thread sinks (`sink`) with `⊕`;
//! * **across nodes** — Yannakakis: a bottom-up pass materializing each
//!   node's result (with early aggregation of attributes nobody above
//!   needs), then a top-down pass assembling output tuples, skipped when
//!   the root already covers the output (paper App. B.2);
//! * **recursion** — naive (fixed-iteration unrolling, PageRank) and
//!   seminaive (frontier-driven, SSSP) evaluation, chosen by aggregate
//!   monotonicity (paper §3.3.2).

pub mod config;
pub mod executor;
mod gj;
pub mod plan;
mod program;
pub mod recursion;
mod sink;
pub mod storage;

mod parallel;

pub use config::{Config, Scheduler};
pub use executor::{
    compile_rule, execute, execute_rule, plan_sink_kinds, ExecError, Executed, SinkKind,
};
pub use plan::{PhysicalPlan, PlanNode};
pub use recursion::execute_recursive_rule;
pub use storage::{Catalog, ColumnExtent, MemCatalog, Relation};

// Profiling vocabulary, re-exported so executor callers can consume
// query profiles without depending on `eh_obs` directly.
pub use eh_obs::{QueryProfile, Span, Trace, TraceId, WorkCounters};

// The engine's flat columnar tuple format, re-exported for callers that
// construct relations directly.
pub use eh_trie::TupleBuffer;

#[cfg(test)]
mod tests {
    use super::*;
    use eh_query::parse_rule;
    use eh_semiring::AggOp;

    fn triangle_catalog() -> MemCatalog {
        // Directed triangle edges over a toy graph:
        // triangle 0-1-2, plus chord structure 1-3, 2-3 etc.
        let edges = vec![
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3],
            vec![0, 3],
        ];
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(TupleBuffer::from_rows(2, &edges), AggOp::Sum),
        );
        cat
    }

    #[test]
    fn triangle_listing() {
        let cat = triangle_catalog();
        let rule = parse_rule("T(x,y,z) :- E(x,y),E(y,z),E(x,z).").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        // Ordered triangles with x<y<z as directed: (0,1,2),(0,1,3),(0,2,3),(1,2,3)
        let mut rows: Vec<Vec<u32>> = out.rows().iter().map(|r| r.to_vec()).collect();
        rows.sort();
        assert_eq!(
            rows,
            vec![vec![0, 1, 2], vec![0, 1, 3], vec![0, 2, 3], vec![1, 2, 3]]
        );
    }

    #[test]
    fn triangle_count() {
        let cat = triangle_catalog();
        let rule = parse_rule("TC(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        assert_eq!(out.scalar().unwrap().as_u64(), 4);
    }

    #[test]
    fn count_matches_listing_under_all_ablations() {
        let cat = triangle_catalog();
        let rule = parse_rule("TC(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.").unwrap();
        for cfg in [
            Config::default(),
            Config::no_simd(),
            Config::uint_only(),
            Config::no_layout_no_algorithms(),
            Config::no_ghd(),
        ] {
            let out = execute_rule(&rule, &cat, &cfg).unwrap().relation;
            assert_eq!(out.scalar().unwrap().as_u64(), 4, "{cfg:?}");
        }
    }
}
