//! The only file that names the program under test.
//!
//! Every symbol the benchmark calls is re-exported here, so a later change
//! that renames or removes part of the engine's surface breaks this file
//! and nothing else — and a reviewer can read off, in one place, exactly
//! which entry points the yardstick depends on. README.md carries the
//! ledger with the reason for each.
//!
//! End-to-end numbers use only the `facade` group. The `probe` group is
//! for the per-layer probes. Nothing ROADMAP slates for removal is here
//! (`eh_exec::execute_*`, `Relation::from_rows`, `TrieBuilder::build`,
//! `Trie::from_rows`, `Request`/`Response` frames, `Cluster::trace`,
//! `Config::static_layout`); `Database::query` is reached only through
//! the two analytics runners.

// ---- facade: what a user of the system calls --------------------------
pub use eh_core::algorithms::{PageRankRunner, SsspRunner};
pub use eh_core::{Config, CsvOptions, Database, Prepared, QueryResult, TypedValue};
pub use eh_graph::gen::power_law;
pub use eh_graph::{paper_datasets, Csr, Graph};
pub use eh_server::{
    Cluster, EhClient, ResultSet, Server, ServerOptions, ServerStats, StatementHandle,
    WireDelimiter,
};

// ---- probe: single layers, called from `probes.rs` only ---------------
pub use eh_baselines::{lowlevel, pairwise};
pub use eh_core::{TupleBuffer, WorkCounters};
pub use eh_query::{parse_rule, validate_rule};
pub use eh_semiring::DynValue;
pub use eh_server::batch_from_result;
pub use eh_set::intersect::intersect_values;
pub use eh_set::{
    count_all_into, intersect_count, IntersectConfig, LayoutKind, MultiwayScratch, Set,
};
pub use eh_storage::ResultBatch;
pub use eh_trie::TrieBuilder;
