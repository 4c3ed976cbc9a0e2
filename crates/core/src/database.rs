//! The [`Database`]: relation registry + query entry point.

use crate::result::QueryResult;
use eh_exec::{
    execute_recursive_rule, Catalog, Config, ExecError, MemCatalog, PhysicalPlan, QueryProfile,
    Relation, Span, TupleBuffer,
};
use eh_graph::Graph;
use eh_query::{parse_program, Program, Rule};
use eh_semiring::{AggOp, DynValue};
use eh_storage::{
    ColumnDef, ColumnType, CsvOptions, LoadReport, RelationSchema, StorageCatalog, StorageError,
    TypedValue,
};
use std::fmt;
use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Top-level error type.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// Query text failed to parse.
    Parse(String),
    /// Rule failed validation or planning.
    Invalid(String),
    /// Execution failed.
    Exec(String),
    /// Storage-layer failure (ingest, image save/load).
    Storage(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(m) => write!(f, "parse error: {m}"),
            CoreError::Invalid(m) => write!(f, "invalid rule: {m}"),
            CoreError::Exec(m) => write!(f, "execution error: {m}"),
            CoreError::Storage(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<ExecError> for CoreError {
    fn from(e: ExecError) -> Self {
        CoreError::Exec(e.to_string())
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e.to_string())
    }
}

/// An in-memory EmptyHeaded database: named relations, their typed
/// storage catalog (schemas + dictionary domains), plus an engine
/// [`Config`] controlling layouts, kernels, and the query compiler.
pub struct Database {
    catalog: MemCatalog,
    types: StorageCatalog,
    config: Config,
    /// Catalog epoch: bumped by every mutation that could invalidate a
    /// compiled plan (register/drop/load/define_const and the relation
    /// a [`Database::query`] stores under its head name). Plan caches
    /// key their entries by this value so no stale plan ever runs
    /// against a changed schema.
    epoch: u64,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

/// The executor's view of a [`Database`]: relations from the engine
/// catalog, constants resolved through the typed catalog's dictionary
/// domains when the column is dictionary-backed (so `Follows('alice',x)`
/// means the *same* `alice` the loader encoded; a key absent from the
/// dictionary makes the atom empty rather than falling back to integer
/// parsing) — under an overlay of the heads earlier rules of the same
/// program produced, so later rules see them without anything being
/// registered in the database.
struct OverlayView<'a> {
    mem: &'a MemCatalog,
    types: &'a StorageCatalog,
    /// Rule order; a later head shadows an earlier one of the same name.
    local: &'a [QueryResult],
}

/// The newest overlay entry named `name`.
fn derived<'a>(local: &'a [QueryResult], name: &str) -> Option<&'a QueryResult> {
    local.iter().rev().find(|d| d.name == name)
}

/// Dictionary domain of key column `pos` of an overlay entry.
fn derived_domain(head: &QueryResult, pos: usize) -> Option<String> {
    let (_, col) = head.schema.key_columns().nth(pos)?;
    col.domain_key()
}

impl Catalog for OverlayView<'_> {
    fn relation(&self, name: &str) -> Option<&Relation> {
        derived(self.local, name)
            .map(|d| &d.relation)
            .or_else(|| self.mem.relation(name))
    }

    fn resolve_const(&self, text: &str) -> Option<u32> {
        self.mem.resolve_const(text)
    }

    fn resolve_const_at(&self, relation: &str, column: usize, text: &str) -> Option<u32> {
        // Overlay results inherit domains from the rules that produced
        // them; resolve constants through those dictionaries first.
        if let Some(head) = derived(self.local, relation) {
            return match derived_domain(head, column) {
                Some(key) => self.types.domain(&key)?.lookup_text(text),
                None => self.mem.resolve_const(text),
            };
        }
        if self.types.key_is_dictionary(relation, column) {
            self.types.lookup_key_text(relation, column, text)
        } else {
            self.mem.resolve_const(text)
        }
    }
}

/// Positional u32 schema for relations registered without type
/// information (edge lists, generated graphs, derived results with no
/// typed provenance) — everything in the database has *a* schema, so
/// whole-database images always round-trip.
pub(crate) fn implicit_schema(name: &str, rel: &Relation) -> RelationSchema {
    positional_schema(name, rel.arity(), rel.is_annotated()).combining(rel.combine())
}

/// `c0..c{arity}` u32 key columns, plus an `annot` payload if `annotated`.
fn positional_schema(name: &str, arity: usize, annotated: bool) -> RelationSchema {
    let mut schema = RelationSchema::new(name);
    for i in 0..arity {
        schema = schema.column(&format!("c{i}"), ColumnType::U32);
    }
    if annotated {
        schema = schema.column("annot", ColumnType::F64);
    }
    schema
}

impl Database {
    /// Empty database with the default (fully optimized) configuration.
    pub fn new() -> Database {
        Database {
            catalog: MemCatalog::new(),
            types: StorageCatalog::new(),
            config: Config::default(),
            epoch: 0,
        }
    }

    /// Empty database with a custom engine configuration (ablations,
    /// thread counts, forced layouts).
    pub fn with_config(config: Config) -> Database {
        Database {
            catalog: MemCatalog::new(),
            types: StorageCatalog::new(),
            config,
            epoch: 0,
        }
    }

    /// Current engine configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Mutable engine configuration (applies to subsequent queries).
    pub fn config_mut(&mut self) -> &mut Config {
        &mut self.config
    }

    /// Current catalog epoch. Any mutation that could invalidate a
    /// compiled plan — `register`, `drop_relation`, the `load_*` family,
    /// `define_const`, and the head relation a [`Database::query`]
    /// stores — bumps it; plan caches compare epochs to discard stale
    /// entries instead of running them against a changed schema.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Register a binary edge relation from (src, dst) pairs — loaded
    /// straight into a flat columnar buffer, no per-tuple allocation.
    pub fn load_edges(&mut self, name: &str, edges: &[(u32, u32)]) {
        let tuples = TupleBuffer::from_pairs(edges);
        self.register(name, Relation::from_buffer(tuples, AggOp::Sum));
    }

    /// Register a graph's edge list as a binary relation.
    pub fn load_graph(&mut self, name: &str, graph: &Graph) {
        self.register(
            name,
            Relation::from_buffer(graph.tuple_buffer(), AggOp::Sum),
        );
    }

    /// Register an arbitrary relation (typed as positional u32 columns;
    /// use [`Database::load_typed`] / [`Database::load_csv`] for
    /// dictionary-encoded attributes).
    pub fn register(&mut self, name: &str, relation: Relation) {
        self.types
            .register_schema(implicit_schema(name, &relation))
            .expect("implicit u32 schemas are always valid");
        self.catalog.insert(name, relation);
        self.bump_epoch();
    }

    /// Register a scalar (arity-0) relation usable in head expressions
    /// (e.g. the `N` of `y = 1/N`).
    pub fn register_scalar(&mut self, name: &str, value: DynValue) {
        self.register(name, Relation::new_scalar(value));
    }

    /// Register a typed schema and encode `rows` through the catalog's
    /// dictionary domains (strings/64-bit keys → dense u32 ids, `f64`
    /// payloads → the annotation column). Returns the stored row count.
    /// A failed load leaves the relation and its schema as they were.
    pub fn load_typed(
        &mut self,
        schema: RelationSchema,
        rows: &[Vec<TypedValue>],
    ) -> Result<usize, CoreError> {
        let name = schema.name.clone();
        let combine = schema.combine;
        let buf = self.types.load_under_schema(schema, |types, schema| {
            types.encode_rows(&schema.name, rows.iter().map(|r| r.as_slice()))
        })?;
        let n = buf.len();
        self.catalog
            .insert(&name, Relation::from_buffer(buf, combine));
        self.bump_epoch();
        Ok(n)
    }

    /// Load a delimited text file whose first line is a
    /// `name:type[@domain]` header (delimiter inferred from the
    /// extension: `.tsv`/`.txt` → tab, else comma).
    pub fn load_csv(
        &mut self,
        relation: &str,
        path: impl AsRef<Path>,
    ) -> Result<LoadReport, CoreError> {
        let opts = CsvOptions::for_path(path.as_ref());
        self.load_csv_with(relation, path, &opts)
    }

    /// [`Database::load_csv`] with explicit loader options.
    pub fn load_csv_with(
        &mut self,
        relation: &str,
        path: impl AsRef<Path>,
        opts: &CsvOptions,
    ) -> Result<LoadReport, CoreError> {
        let file = std::fs::File::open(path).map_err(StorageError::Io)?;
        self.load_csv_reader(relation, std::io::BufReader::new(file), opts)
    }

    /// Header-driven CSV load from any reader.
    pub fn load_csv_reader(
        &mut self,
        relation: &str,
        reader: impl BufRead,
        opts: &CsvOptions,
    ) -> Result<LoadReport, CoreError> {
        let (buf, report) = self.types.load_csv(relation, reader, opts)?;
        let combine = self
            .types
            .schema(relation)
            .map(|s| s.combine)
            .unwrap_or(AggOp::Sum);
        self.catalog
            .insert(relation, Relation::from_buffer(buf, combine));
        self.bump_epoch();
        Ok(report)
    }

    /// Schema-driven CSV load from any reader (the explicit schema wins;
    /// a header line, if `opts` declares one, is skipped).
    pub fn load_csv_schema(
        &mut self,
        schema: RelationSchema,
        reader: impl BufRead,
        opts: &CsvOptions,
    ) -> Result<LoadReport, CoreError> {
        let name = schema.name.clone();
        let combine = schema.combine;
        let (buf, report) = self.types.load_csv_schema(schema, reader, opts)?;
        self.catalog
            .insert(&name, Relation::from_buffer(buf, combine));
        self.bump_epoch();
        Ok(report)
    }

    /// Write the whole database — schemas, dictionaries, encoded tuples —
    /// as a versioned binary image (see `eh_storage::image`).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        let file = std::fs::File::create(path).map_err(StorageError::Io)?;
        let mut w = std::io::BufWriter::new(file);
        self.save_to(&mut w)?;
        w.flush().map_err(StorageError::Io)?;
        Ok(())
    }

    /// [`Database::save`] to any writer.
    pub fn save_to<W: Write>(&self, w: &mut W) -> Result<(), CoreError> {
        // Schemas registered without data persist as empty relations.
        let empties: Vec<(String, TupleBuffer)> = self
            .types
            .schemas()
            .filter(|s| self.catalog.relation(&s.name).is_none())
            .map(|s| (s.name.clone(), TupleBuffer::new(s.arity())))
            .collect();
        let mut pairs: Vec<(&str, &TupleBuffer)> = Vec::new();
        for schema in self.types.schemas() {
            match self.catalog.relation(&schema.name) {
                Some(rel) => pairs.push((schema.name.as_str(), rel.rows())),
                None => {
                    let (name, buf) = empties
                        .iter()
                        .find(|(n, _)| *n == schema.name)
                        .expect("empty buffer prepared above");
                    pairs.push((name.as_str(), buf));
                }
            }
        }
        eh_storage::save_image(w, &self.types, &pairs)?;
        Ok(())
    }

    /// Open a database image saved by [`Database::save`], with the
    /// default engine configuration.
    pub fn open(path: impl AsRef<Path>) -> Result<Database, CoreError> {
        Self::open_with_config(path, Config::default())
    }

    /// [`Database::open`] with a custom engine configuration.
    pub fn open_with_config(path: impl AsRef<Path>, config: Config) -> Result<Database, CoreError> {
        let file = std::fs::File::open(path).map_err(StorageError::Io)?;
        Self::open_reader(std::io::BufReader::new(file), config)
    }

    /// Load a database image from any reader.
    pub fn open_reader<R: Read>(reader: R, config: Config) -> Result<Database, CoreError> {
        let img = eh_storage::load_image(reader)?;
        let mut db = Database::with_config(config);
        for (name, tuples) in img.relations {
            let combine = img
                .catalog
                .schema(&name)
                .map(|s| s.combine)
                .unwrap_or(AggOp::Sum);
            db.catalog
                .insert(&name, Relation::from_buffer(tuples, combine));
        }
        db.types = img.catalog;
        Ok(db)
    }

    /// The typed storage catalog (schemas + dictionary domains).
    pub fn storage(&self) -> &StorageCatalog {
        &self.types
    }

    /// Bind a query-text constant (e.g. `'start'`) to a node id.
    pub fn define_const(&mut self, text: &str, id: u32) {
        self.catalog.define_const(text, id);
        self.bump_epoch();
    }

    /// Look up a stored relation.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.catalog.relation(name)
    }

    /// Planner statistics for a stored relation: cardinality plus exact
    /// per-column distinct counts. O(1) when the counts were already
    /// seeded (at trie build or by a previous call) — the per-relation
    /// cache never goes stale because catalog mutations replace whole
    /// [`Relation`] values (and bump the epoch).
    pub fn relation_stats(&self, name: &str) -> Option<eh_ghd::RelationStats> {
        self.catalog.relation_stats(name)
    }

    /// Distinct count of one column of a stored relation (cached; see
    /// [`Database::relation_stats`]). `None` for unknown relations or
    /// out-of-range columns.
    pub fn column_distinct(&self, name: &str, column: usize) -> Option<u64> {
        self.catalog
            .relation(name)
            .and_then(|r| r.column_distinct(column))
    }

    /// Number of stored tuples in a relation (`None` if absent).
    pub fn cardinality(&self, name: &str) -> Option<u64> {
        self.catalog.relation(name).map(|r| r.rows().len() as u64)
    }

    /// Compile a rule and render the physical plan — the chosen attribute
    /// order (cost-based when catalog statistics exist, structural
    /// otherwise), its estimated cost, and the loop nest per GHD node —
    /// followed by the **observed** execution profile (estimated vs
    /// observed intersection work, kernel dispatches, per-level spans):
    /// the query runs once under `Config::profile` for the comparison.
    /// When execution fails (e.g. a body relation does not exist yet),
    /// only the structural rendering is returned, exactly as before.
    pub fn explain(&self, text: &str) -> Result<String, CoreError> {
        self.explain_with(text, &self.config)
    }

    /// [`Database::explain`], executing under `cfg` (threads, scheduler)
    /// instead of the database's own configuration.
    pub fn explain_with(&self, text: &str, cfg: &Config) -> Result<String, CoreError> {
        let prepared = self.prepare(text)?;
        let params = prepared
            .params
            .last()
            .expect("a program has at least one rule");
        let mut out = prepared.plan().render(params);
        let cfg = cfg.with_profile(true);
        if let Ok(result) = prepared.execute_with(self, &cfg) {
            if let Some(profile) = result.profile() {
                out.push_str(&profile.render());
            }
        }
        Ok(out)
    }

    /// Remove a relation and its schema (returns the relation if
    /// present; shared dictionary domains are kept).
    pub fn drop_relation(&mut self, name: &str) -> Option<Relation> {
        self.types.remove_schema(name);
        self.bump_epoch();
        self.catalog.remove(name)
    }

    /// [`Database::prepare`] and execute a program (one or more rules, in
    /// order), storing each rule's result under its head name; the last
    /// one is returned. Recursive rules (`*` heads) use the relation of
    /// the same name as the base case, per the paper's PageRank/SSSP
    /// programs. An execution error still leaves the heads that ran stored.
    pub fn query(&mut self, text: &str) -> Result<QueryResult, CoreError> {
        let prepared = self.prepare(text)?;
        let mut heads = Vec::new();
        let config = self.config;
        let outcome = prepared.run(self, &config, &mut heads);
        // The one copy of a result `query` makes: the caller's. Every
        // head itself moves into the catalog below.
        let returned = outcome.is_ok().then(|| heads.last().cloned()).flatten();
        // Commit every head that ran, even when a later rule failed.
        let mut registered = None;
        for head in heads {
            let schema = match self.types.register_schema(head.schema.clone()) {
                Ok(()) => head.schema,
                Err(_) => {
                    // Inference produced a conflicting schema (e.g. a
                    // domain reused at another carrier type): fall back
                    // to untyped.
                    let implicit = implicit_schema(&head.name, &head.relation);
                    self.types
                        .register_schema(implicit.clone())
                        .expect("implicit u32 schemas are always valid");
                    implicit
                }
            };
            self.catalog.insert(&head.name, head.relation);
            // Bump per registered rule (not once at the end): a later
            // rule failing must not leave the catalog changed with the
            // epoch — and therefore every plan cache — stale.
            self.bump_epoch();
            registered = Some(schema);
        }
        outcome?;
        let mut result = returned.expect("a program has at least one rule");
        result.schema = registered.expect("the returned head was registered");
        Ok(result)
    }

    /// [`Database::query`] read-only — [`Database::prepare`], then
    /// [`Prepared::execute`]: the catalog and its epoch are untouched, so
    /// many sessions of a query service execute in parallel under a read
    /// lock while loads take the write lock.
    pub fn query_ref(&self, text: &str) -> Result<QueryResult, CoreError> {
        self.prepare(text)?.execute(self)
    }

    /// Schema of the head of `rule`, planned as `plan`. Each key variable
    /// inherits the dictionary domain of the first body-atom column that
    /// binds it (an `earlier` rule's head, else the typed catalog), so
    /// output decodes to the loader's keys. An annotation column follows
    /// when the head declares one or the rule recurses; the aggregate's ⊕
    /// (else `Sum`) is the one a cluster coordinator folds shards with.
    /// An invalid inferred schema (`T(x,x)` repeats a column name) falls
    /// back to the positional one: results must stay wire-encodable.
    fn head_schema(
        &self,
        rule: &Rule,
        plan: &PhysicalPlan,
        earlier: &[Statement],
    ) -> RelationSchema {
        let key_domain = |relation: &str, pos: usize| -> Option<String> {
            match earlier.iter().rev().find(|s| s.name() == relation) {
                Some(s) => s.schema.key_columns().nth(pos)?.1.domain_key(),
                None => self.types.key_domain(relation, pos),
            }
        };
        let mut schema = RelationSchema::new(&rule.head.relation);
        for var in &rule.head.key_vars {
            let mut def: Option<ColumnDef> = None;
            'atoms: for atom in &rule.body {
                for (pos, term) in atom.terms.iter().enumerate() {
                    if term.as_var() != Some(var.as_str()) {
                        continue;
                    }
                    if let Some(domain) = key_domain(&atom.relation, pos) {
                        let carrier = self
                            .types
                            .domain(&domain)
                            .map(|d| d.carrier())
                            .unwrap_or(ColumnType::U32);
                        def = Some(ColumnDef::with_domain(var, carrier, &domain));
                        break 'atoms;
                    }
                }
            }
            schema
                .columns
                .push(def.unwrap_or_else(|| ColumnDef::new(var, ColumnType::U32)));
        }
        let annotated = is_recursive(rule) || rule.head.annotation.is_some();
        if annotated {
            let name = rule.head.annotation.as_ref().map_or("annot", |a| &a.name);
            schema.columns.push(ColumnDef::new(name, ColumnType::F64));
        }
        if schema.validate().is_err() {
            schema = positional_schema(&rule.head.relation, rule.head.key_vars.len(), annotated);
        }
        schema.combining(plan.agg.as_ref().map_or(AggOp::Sum, |a| a.op))
    }

    /// Access the underlying catalog (for advanced integrations).
    pub fn catalog(&self) -> &MemCatalog {
        &self.catalog
    }

    /// Compile a program — one or more rules, recursive ones included —
    /// once for repeated execution (paper §5.1.3 excludes compilation
    /// time): [`parse`], then [`Database::compile`].
    pub fn prepare(&self, text: &str) -> Result<Prepared, CoreError> {
        self.compile(parse(text)?)
    }

    /// Validate and plan every rule of a parsed program before anything
    /// runs. A recursive rule is planned without statistics, any other
    /// against the catalog's — except for relations earlier rules of the
    /// program define: they do not exist yet (a stored namesake is
    /// stale). The plans read only the constants' slots; their values
    /// stay with the returned [`Prepared`], and [`Prepared::bind`] swaps
    /// them without planning again.
    pub fn compile(&self, program: Program) -> Result<Prepared, CoreError> {
        let mut statements: Vec<Statement> = Vec::with_capacity(program.rules.len());
        let mut params = Vec::with_capacity(program.rules.len());
        for mut rule in program.rules {
            eh_query::validate_rule(&rule).map_err(|e| CoreError::Invalid(e.to_string()))?;
            let plan = if is_recursive(&rule) {
                eh_ghd::plan_rule(&rule, &self.config.plan)
                    .map(|ghd| PhysicalPlan::compile(&rule, &ghd))
            } else {
                let unborn = Unborn(&self.catalog, &statements);
                eh_exec::compile_rule(&rule, &unborn, &self.config)
            };
            let plan = plan.map_err(CoreError::Invalid)?;
            let schema = self.head_schema(&rule, &plan, &statements);
            params.push(std::mem::take(&mut rule.consts));
            statements.push(Statement { rule, plan, schema });
        }
        Ok(Prepared {
            statements: statements.into(),
            params,
        })
    }
}

/// Parse a program's text; a failure is a [`CoreError::Parse`].
pub fn parse(text: &str) -> Result<Program, CoreError> {
    parse_program(text).map_err(|e| CoreError::Parse(e.message))
}

/// Whether `rule` is evaluated to a fixpoint (or for a fixed number of
/// iterations) rather than once.
fn is_recursive(rule: &Rule) -> bool {
    rule.head.recursion.is_some() || rule.is_recursive()
}

/// The stored catalog as [`Database::prepare`] plans a rule against it:
/// the heads of earlier rules of the same program do not exist yet.
struct Unborn<'a>(&'a MemCatalog, &'a [Statement]);

impl Catalog for Unborn<'_> {
    fn relation(&self, name: &str) -> Option<&Relation> {
        let unborn = self.1.iter().any(|s| s.name() == name);
        self.0.relation(name).filter(|_| !unborn)
    }
}

/// One compiled rule of a [`Prepared`] program, with the schema its
/// result decodes by (nothing is registered in the database). The rule
/// keeps its constant slots; their values are the [`Prepared`]'s.
struct Statement {
    rule: Rule,
    plan: PhysicalPlan,
    schema: RelationSchema,
}

impl Statement {
    fn name(&self) -> &str {
        &self.rule.head.relation
    }
}

/// A compiled program, executable repeatedly without re-planning: one
/// statement per rule, run in order, each under an overlay of the heads
/// before it, with the values bound to each rule's constant slots.
/// Cloning or [`Prepared::bind`]ing shares the compiled statements.
#[derive(Clone)]
pub struct Prepared {
    statements: Arc<[Statement]>,
    /// Per statement, the values of its constant slots.
    params: Vec<Vec<String>>,
}

impl Prepared {
    /// The same compiled program with `program`'s constants bound in
    /// place of these — no planning, no compiling. `program` must have
    /// the shape this one was compiled from ([`Program::shape`]), which
    /// a plan cache keyed on the shape guarantees.
    pub fn bind(&self, program: Program) -> Prepared {
        let params: Vec<Vec<String>> = program.rules.into_iter().map(|r| r.consts).collect();
        let same_slots = params.len() == self.params.len()
            && params
                .iter()
                .zip(&self.params)
                .all(|(a, b)| a.len() == b.len());
        assert!(same_slots, "bind needs a program of the compiled shape");
        Prepared {
            statements: Arc::clone(&self.statements),
            params,
        }
    }

    /// Execute against the database's current relations.
    pub fn execute(&self, db: &Database) -> Result<QueryResult, CoreError> {
        self.execute_with(db, &db.config)
    }

    /// [`Prepared::execute`] under a session's own configuration. A
    /// cluster worker's `shard` runs one level-0 slice (its size is
    /// [`QueryResult::level0_values`]) only if [`Prepared::shard_mergeable`];
    /// otherwise the program runs in full.
    pub fn execute_with(&self, db: &Database, config: &Config) -> Result<QueryResult, CoreError> {
        let mut heads = Vec::with_capacity(self.statements.len());
        self.run(db, config, &mut heads)?;
        Ok(heads.pop().expect("a program has at least one rule"))
    }

    /// Whether a shard of this program's answer ⊕-merges into the whole:
    /// one non-recursive rule whose plan is shard-mergeable.
    pub fn shard_mergeable(&self) -> bool {
        matches!(&self.statements[..], [s] if !is_recursive(&s.rule) && s.plan.shard_mergeable())
    }

    /// Head relation name of the program's last rule.
    pub fn name(&self) -> &str {
        self.last().name()
    }

    /// The compiled physical plan of the program's last rule
    /// (inspectable via `render()`).
    pub fn plan(&self) -> &PhysicalPlan {
        &self.last().plan
    }

    fn last(&self) -> &Statement {
        self.statements
            .last()
            .expect("a program has at least one rule")
    }

    /// Execute the statements in order, pushing every result onto
    /// `heads` — which therefore holds what ran even when a later one
    /// fails. Profiled, a program of several rules returns, on its last
    /// result, a `query` root with one `rule k` child per rule: that
    /// rule's own tree, offsets counted from the program's start.
    fn run(
        &self,
        db: &Database,
        config: &Config,
        heads: &mut Vec<QueryResult>,
    ) -> Result<(), CoreError> {
        let mut config = *config;
        config.shard = config.shard.filter(|_| self.shard_mergeable());
        let origin = config.profile.then(Instant::now);
        let mut offsets = Vec::new();
        for (st, params) in self.statements.iter().zip(&self.params) {
            offsets.extend(origin.map(|o| o.elapsed().as_nanos() as u64));
            let view = OverlayView {
                mem: &db.catalog,
                types: &db.types,
                local: heads,
            };
            let name = st.name();
            let out = if is_recursive(&st.rule) {
                let base = view.relation(name).cloned().ok_or_else(|| {
                    CoreError::Invalid(format!("recursive rule '{name}' has no base case relation"))
                })?;
                execute_recursive_rule(&st.rule, &st.plan, params, base, &view, &config)?
            } else {
                eh_exec::execute(&st.plan, params, &view, &config)?
            };
            let annotated = st.schema.annot_column().is_some();
            debug_assert_eq!(out.relation.is_annotated(), annotated, "{name}'s schema");
            heads.push(QueryResult {
                name: name.to_string(),
                relation: out.relation,
                schema: st.schema.clone(),
                profile: out.profile,
                level0: out.level0,
            });
        }
        if let (Some(origin), true) = (origin, heads.len() > 1) {
            let mut program = QueryProfile::default();
            for (k, (head, offset)) in heads.iter_mut().zip(offsets).enumerate() {
                let p = head
                    .profile
                    .take()
                    .expect("a profiled rule carries a profile");
                program.work.merge(&p.work);
                let mut span = p.root;
                span.name = format!("rule {k}");
                shift(&mut span, offset);
                program.root.children.push(span);
            }
            let last = heads.last_mut().expect("more than one rule ran");
            program.close(origin, Instant::now(), last.relation.len());
            last.profile = Some(program);
        }
        Ok(())
    }
}

/// Move every span of a tree `by` nanoseconds later.
fn shift(span: &mut Span, by: u64) {
    span.start_ns_rel += by;
    for child in &mut span.children {
        shift(child, by);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_surface() {
        let mut db = Database::new();
        assert!(matches!(db.query("not a rule"), Err(CoreError::Parse(_))));
    }

    #[test]
    fn parse_errors_say_so_once() {
        let err = Database::new().query_ref("Q(x :- E(x).").unwrap_err();
        assert!(matches!(err, CoreError::Parse(_)), "{err:?}");
        let text = err.to_string();
        assert_eq!(text.matches("parse error: ").count(), 1, "{text}");
    }

    #[test]
    fn unknown_relation_is_exec_error() {
        let mut db = Database::new();
        assert!(matches!(
            db.query("T(x) :- Nope(x,y)."),
            Err(CoreError::Exec(_))
        ));
    }

    #[test]
    fn recursion_without_base_case_is_invalid() {
        let mut db = Database::new();
        db.load_edges("Edge", &[(0, 1)]);
        let r = db.query("R(x;y:int)* :- Edge(w,x),R(w); y=<<MIN(w)>>+1.");
        assert!(matches!(r, Err(CoreError::Invalid(_))));
    }

    #[test]
    fn scalar_registration() {
        let mut db = Database::new();
        db.load_edges("E", &[(0, 1), (1, 2)]);
        db.register_scalar("N", DynValue::F64(2.0));
        let out = db.query("P(x;y:float) :- E(x,z); y=1/N.").unwrap();
        for (_, v) in out.annotated_rows() {
            assert_eq!(v.as_f64(), 0.5);
        }
    }

    #[test]
    fn config_ablation_switch() {
        let mut db = Database::with_config(Config::no_ghd());
        db.load_edges("E", &[(0, 1), (1, 2), (0, 2)]);
        let out = db
            .query("C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.")
            .unwrap();
        assert_eq!(out.scalar_u64(), Some(1));
        assert!(!db.config().plan.ghd_optimizations);
        db.config_mut().plan.ghd_optimizations = true;
        assert!(db.config().plan.ghd_optimizations);
    }

    #[test]
    fn drop_relation() {
        let mut db = Database::new();
        db.load_edges("E", &[(0, 1)]);
        assert!(db.relation("E").is_some());
        assert!(db.storage().schema("E").is_some());
        assert!(db.drop_relation("E").is_some());
        assert!(db.relation("E").is_none());
        assert!(db.storage().schema("E").is_none());
    }

    fn social() -> Database {
        let mut db = Database::new();
        // Directed triangle alice→bob→carol→alice plus a pendant.
        let csv = "src:str@user,dst:str@user\n\
                   alice,bob\nbob,carol\ncarol,alice\ncarol,dave\n";
        db.load_csv_reader("Follows", std::io::Cursor::new(csv), &CsvOptions::csv())
            .unwrap();
        db
    }

    #[test]
    fn string_keyed_query_decodes() {
        let mut db = social();
        let out = db
            .query("T(x,y,z) :- Follows(x,y),Follows(y,z),Follows(z,x).")
            .unwrap();
        assert_eq!(out.num_rows(), 3, "three rotations of the triangle");
        let typed = out.typed_rows(&db);
        assert!(typed.contains(&vec![
            TypedValue::Str("alice".into()),
            TypedValue::Str("bob".into()),
            TypedValue::Str("carol".into()),
        ]));
        let col = out.decode_col(&db, 0);
        assert_eq!(col.len(), 3);
        assert!(col.iter().all(|v| matches!(v, TypedValue::Str(_))));
    }

    #[test]
    fn string_constants_resolve_through_dictionary() {
        let mut db = social();
        let out = db.query("F(y) :- Follows('alice',y).").unwrap();
        assert_eq!(
            out.typed_rows(&db),
            vec![vec![TypedValue::Str("bob".into())]]
        );
        // A key absent from the dictionary selects nothing (and must not
        // fall back to integer parsing).
        let out = db.query("G(y) :- Follows('zelda',y).").unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn save_open_round_trip_is_byte_stable() {
        let mut db = social();
        let count = |db: &mut Database| {
            db.query("C(;w:long) :- Follows(x,y),Follows(y,z),Follows(z,x); w=<<COUNT(*)>>.")
                .unwrap()
                .scalar_u64()
        };
        let mut bytes = Vec::new();
        db.save_to(&mut bytes).unwrap();
        // Re-saving a freshly opened image reproduces it byte-for-byte.
        let db2 = Database::open_reader(std::io::Cursor::new(&bytes), Config::default()).unwrap();
        let mut again = Vec::new();
        db2.save_to(&mut again).unwrap();
        assert_eq!(bytes, again);
        // And queries over the reloaded database answer identically.
        let mut db2 = db2;
        assert_eq!(count(&mut db2), count(&mut db));
        assert_eq!(
            db2.storage().domain("user").map(|d| d.len()),
            Some(4),
            "dictionaries intact"
        );
    }

    #[test]
    fn typed_rows_and_annotations_via_load_typed() {
        let mut db = Database::new();
        let schema = RelationSchema::parse("Score(item:str, w:f64)").unwrap();
        db.load_typed(
            schema,
            &[
                vec![TypedValue::Str("a".into()), TypedValue::F64(1.5)],
                vec![TypedValue::Str("b".into()), TypedValue::F64(2.0)],
            ],
        )
        .unwrap();
        let out = db.query("S(x;w:float) :- Score(x); w=<<SUM(x)>>.").unwrap();
        assert_eq!(out.num_rows(), 2);
        let typed = out.typed_rows(&db);
        assert!(typed.contains(&vec![TypedValue::Str("a".into())]));
    }

    #[test]
    fn max_keeps_minus_infinity_absorbing_across_a_join() {
        // MAX's ⊕-identity is −∞; a join (⊗) with it must stay −∞, not
        // turn into (−∞)·(−∞) = +∞ and win the fold.
        let mut db = Database::new();
        for (name, w) in [("R", 3.0), ("S", 2.0)] {
            let schema = RelationSchema::parse(&format!("{name}(x:u32, w:f64)")).unwrap();
            let rows = [(1, f64::NEG_INFINITY), (2, w)]
                .map(|(x, w)| vec![TypedValue::U32(x), TypedValue::F64(w)]);
            db.load_typed(schema, &rows).unwrap();
        }
        let out = db.query("Q(;m:float) :- R(x),S(x); m=<<MAX(x)>>.").unwrap();
        assert_eq!(out.scalar_f64(), Some(6.0));
        let out = db
            .query("G(x;m:float) :- R(x),S(x); m=<<MAX(x)>>.")
            .unwrap();
        assert_eq!(
            out.annotation_for(&[1]),
            Some(DynValue::F64(f64::NEG_INFINITY))
        );
        assert_eq!(out.annotation_for(&[2]), Some(DynValue::F64(6.0)));
    }

    #[test]
    fn derived_results_inherit_domains_across_rules() {
        let mut db = social();
        db.query("Hop2(x,z) :- Follows(x,y),Follows(y,z).").unwrap();
        let out = db.query("Hop3(x,w) :- Hop2(x,z),Follows(z,w).").unwrap();
        let typed = out.typed_rows(&db);
        assert!(!typed.is_empty());
        assert!(typed
            .iter()
            .all(|row| row.iter().all(|v| matches!(v, TypedValue::Str(_)))));
    }

    #[test]
    fn save_includes_untyped_and_scalar_relations() {
        let mut db = Database::new();
        db.load_edges("E", &[(0, 1), (1, 2), (0, 2)]);
        db.register_scalar("N", DynValue::F64(3.0));
        let mut bytes = Vec::new();
        db.save_to(&mut bytes).unwrap();
        let mut db2 =
            Database::open_reader(std::io::Cursor::new(&bytes), Config::default()).unwrap();
        assert_eq!(
            db2.relation("N").and_then(|r| r.scalar_value()),
            Some(DynValue::F64(3.0))
        );
        let out = db2
            .query("C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.")
            .unwrap();
        assert_eq!(out.scalar_u64(), Some(1));
    }

    #[test]
    fn prepared_results_decode_like_query_results() {
        let mut db = social();
        let stmt = db.prepare("T(x,y) :- Follows(x,y).").unwrap();
        let prepared = stmt.execute(&db).unwrap();
        let queried = db.query("T(x,y) :- Follows(x,y).").unwrap();
        assert_eq!(prepared.typed_rows(&db), queried.typed_rows(&db));
        assert!(prepared
            .typed_rows(&db)
            .iter()
            .flatten()
            .all(|v| matches!(v, TypedValue::Str(_))));
    }

    #[test]
    fn failed_load_rolls_back_schema() {
        let mut db = Database::new();
        let err = db.load_csv_reader(
            "Bad",
            std::io::Cursor::new("k:u32\n1\nnope\n"),
            &CsvOptions::csv(),
        );
        assert!(err.is_err());
        assert!(db.storage().schema("Bad").is_none(), "schema rolled back");
        let mut bytes = Vec::new();
        db.save_to(&mut bytes).unwrap();
        let db2 = Database::open_reader(std::io::Cursor::new(&bytes), Config::default()).unwrap();
        assert!(
            db2.relation("Bad").is_none(),
            "aborted load must not resurface in images"
        );
    }

    #[test]
    fn failed_load_typed_keeps_the_previous_schema() {
        let mut db = Database::new();
        db.load_edges("E", &[(0, 1)]);
        let (before, epoch) = (db.storage().schema("E").cloned(), db.epoch());
        // The first value encodes "x" as id 0 before the second fails.
        let schema = RelationSchema::parse("E(a:str@user, b:str@user)").unwrap();
        let row = vec![TypedValue::Str("x".into()), TypedValue::U32(1)];
        assert!(db.load_typed(schema, &[row]).is_err());
        assert_eq!(db.storage().schema("E").cloned(), before);
        assert_eq!(db.epoch(), epoch);
        let out = db.query("T(x,y) :- E(x,y).").unwrap();
        assert_eq!(
            out.typed_rows(&db),
            vec![vec![TypedValue::U32(0), TypedValue::U32(1)]]
        );
    }

    #[test]
    fn stats_accessors_and_explain() {
        let mut db = Database::new();
        db.load_edges("E", &[(0, 1), (0, 2), (1, 2), (2, 0)]);
        let stats = db.relation_stats("E").unwrap();
        assert_eq!(stats.cardinality, 4);
        assert_eq!(stats.distinct, vec![3, 3]);
        assert_eq!(db.column_distinct("E", 0), Some(3));
        assert_eq!(db.cardinality("E"), Some(4));
        assert_eq!(db.relation_stats("missing"), None);
        // Replacing the relation replaces the cached stats wholesale.
        let before = db.epoch();
        db.load_edges("E", &[(7, 8)]);
        assert!(db.epoch() > before);
        assert_eq!(db.relation_stats("E").unwrap().cardinality, 1);
        // explain renders the chosen order; with stats present the order
        // is cost-based and carries an estimate.
        let plan = db.explain("T(x,y,z) :- E(x,y),E(y,z),E(x,z).").unwrap();
        assert!(plan.starts_with("order: "), "{plan}");
        assert!(plan.contains("cost-based"), "{plan}");
        assert!(plan.contains("for"));
        // An unknown relation has no stats: the order falls back to
        // structural and says so.
        let fallback = db.explain("Q(x,z) :- A(x,y),A(y,z).").unwrap();
        assert!(fallback.contains("(structural)"), "{fallback}");
        // Unknown relations cannot execute, so no observed work appears.
        assert!(!fallback.contains("observed"), "{fallback}");
    }

    #[test]
    fn explain_reports_estimated_and_observed_work() {
        let mut db = Database::new();
        db.load_edges("E", &[(0, 1), (0, 2), (1, 2), (2, 0), (1, 0)]);
        let text = db.explain("T(x,y,z) :- E(x,y),E(y,z),E(x,z).").unwrap();
        assert!(text.contains("work: estimated "), "{text}");
        assert!(text.contains("observed "), "{text}");
        assert!(text.contains("intersections"), "{text}");
        // Explain executes read-only: the catalog epoch must not move and
        // the head relation must not be stored.
        let before = db.epoch();
        let _ = db.explain("T(x,y,z) :- E(x,y),E(y,z),E(x,z).").unwrap();
        assert_eq!(db.epoch(), before);
        assert!(db.cardinality("T").is_none());
        // Profiles flow through query() results too when configured.
        let mut profiled = Database::new();
        *profiled.config_mut() = Config::default().with_profile(true);
        profiled.load_edges("E", &[(0, 1), (0, 2), (1, 2)]);
        let result = profiled
            .query("C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.")
            .unwrap();
        let p = result.profile().expect("profile attached");
        assert!(p.observed_work() > 0);
        // And stay absent by default.
        let mut plain = Database::new();
        plain.load_edges("E", &[(0, 1), (0, 2), (1, 2)]);
        let r = plain.query("T(x,y) :- E(x,y).").unwrap();
        assert!(r.profile().is_none());
    }

    #[test]
    fn epoch_bumps_on_catalog_mutations() {
        let mut db = Database::new();
        let e0 = db.epoch();
        db.load_edges("E", &[(0, 1), (1, 2), (0, 2)]);
        let e1 = db.epoch();
        assert!(e1 > e0, "register bumps the epoch");
        db.query("T(x,y) :- E(x,y).").unwrap();
        let e2 = db.epoch();
        assert!(e2 > e1, "query() stores its head relation");
        db.drop_relation("T");
        let e3 = db.epoch();
        assert!(e3 > e2, "drop bumps the epoch");
        // Read-only paths leave the epoch alone.
        db.query_ref("U(x,y) :- E(x,y).").unwrap();
        let _ = db.prepare("U(x,y) :- E(x,y).").unwrap();
        assert_eq!(db.epoch(), e3);
    }

    #[test]
    fn partially_failed_programs_still_bump_the_epoch() {
        let mut db = Database::new();
        db.load_edges("E", &[(0, 1), (1, 2)]);
        let before = db.epoch();
        // Rule 1 registers D; rule 2 fails — the catalog changed, so
        // the epoch must have moved (plan caches must invalidate).
        let r = db.query("D(x,y) :- E(y,x).\nBad(q) :- Nope(q,r).");
        assert!(r.is_err());
        assert!(db.relation("D").is_some(), "first rule registered");
        assert!(db.epoch() > before, "partial failure must bump the epoch");
    }

    #[test]
    fn query_ref_duplicate_head_vars_get_a_valid_schema() {
        let db = social();
        let out = db.query_ref("D(x,x) :- Follows(x,y).").unwrap();
        assert!(
            out.schema().validate().is_ok(),
            "fallback schema must encode"
        );
        let stmt = db.prepare("D(x,x) :- Follows(x,y).").unwrap();
        let prepared = stmt.execute(&db).unwrap();
        assert!(prepared.schema().validate().is_ok());
        assert_eq!(prepared.rows(), out.rows());
    }

    /// `query` is `query_ref` plus a commit: over every program shape
    /// the two must return the same result (or the same error), and only
    /// `query` may touch the catalog — one registered head and one epoch
    /// bump per rule that ran.
    #[test]
    fn query_ref_matches_query() {
        fn edges() -> Database {
            let mut db = Database::new();
            db.load_edges("Edge", &[(0, 1), (1, 2), (2, 3), (0, 2)]);
            db
        }
        fn sssp_base() -> Database {
            let mut db = edges();
            db.query("SSSP(x;y:int) :- Edge('0',x); y=1.").unwrap();
            db
        }
        // (database, program, heads `query` registers — one per rule run)
        type Case = (fn() -> Database, &'static str, &'static [&'static str]);
        let cases: &[Case] = &[
            (
                social,
                "T(x,y,z) :- Follows(x,y),Follows(y,z),Follows(z,x).",
                &["T"],
            ),
            (
                social,
                "C(;w:long) :- Follows(x,y),Follows(y,z),Follows(z,x); w=<<COUNT(*)>>.",
                &["C"],
            ),
            (
                edges,
                "D(x;w:long) :- Edge(x,y),Edge(y,z); w=<<COUNT(*)>>.",
                &["D"],
            ),
            // Chained rules: rule 2 reads rule 1's head, inherits its
            // dictionary domains and anchors a constant through them.
            (
                social,
                "Hop2(x,z) :- Follows(x,y),Follows(y,z).\nFrom(z) :- Hop2('alice',z).",
                &["Hop2", "From"],
            ),
            // Repeated head variable: the inferred schema is invalid and
            // both paths fall back to the positional one.
            (social, "D(x,x) :- Follows(x,y).", &["D"]),
            // Recursion from a stored base case.
            (
                sssp_base,
                "SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.",
                &["SSSP"],
            ),
            // Same head twice: the second rule recurses from the first's
            // overlay entry; two rules ran, so two commits.
            (
                edges,
                "SSSP(x;y:int) :- Edge('0',x); y=1.\n\
                 SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.",
                &["SSSP", "SSSP"],
            ),
            // The second rule fails: the first still commits.
            (edges, "D(x,y) :- Edge(y,x).\nBad(q) :- Nope(q,r).", &["D"]),
        ];
        for (setup, program, heads) in cases {
            let mut db = setup();
            let before = db.epoch();
            let stored_before = db.catalog().names().count();
            let by_ref = db.query_ref(program);
            assert_eq!(db.epoch(), before, "query_ref moved the epoch: {program}");
            assert_eq!(
                db.catalog().names().count(),
                stored_before,
                "query_ref stored something: {program}"
            );
            let by_query = db.query(program);
            assert_eq!(
                db.epoch() - before,
                heads.len() as u64,
                "one epoch bump per committed rule: {program}"
            );
            for head in *heads {
                assert!(db.relation(head).is_some(), "{head} registered: {program}");
                assert!(
                    db.storage().schema(head).is_some(),
                    "{head} typed: {program}"
                );
            }
            match (by_ref, by_query) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.name(), b.name(), "{program}");
                    assert_eq!(a.rows(), b.rows(), "{program}");
                    assert_eq!(
                        a.relation().annotations(),
                        b.relation().annotations(),
                        "{program}"
                    );
                    assert_eq!(a.schema(), b.schema(), "{program}");
                    assert_eq!(a.typed_rows(&db), b.typed_rows(&db), "{program}");
                    // What `query` returned is what it stored.
                    let stored = db.relation(b.name()).unwrap();
                    assert_eq!(stored.rows(), b.rows(), "{program}");
                    assert_eq!(db.storage().schema(b.name()), Some(b.schema()), "{program}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{program}"),
                (a, b) => panic!("{program}: query_ref {a:?} vs query {b:?}"),
            }
        }
    }

    #[test]
    fn query_ref_chains_rules_through_the_overlay() {
        let db = social();
        // Rule 2 consumes rule 1's overlay result — including its
        // inherited dictionary domains and an anchored constant.
        let out = db
            .query_ref(
                "Hop2(x,z) :- Follows(x,y),Follows(y,z).\n\
                 From(z) :- Hop2('alice',z).",
            )
            .unwrap();
        assert_eq!(
            out.typed_rows(&db),
            vec![vec![TypedValue::Str("carol".into())]]
        );
        assert!(db.relation("Hop2").is_none(), "overlay never registered");
    }

    #[test]
    fn query_ref_supports_recursion_from_stored_base() {
        let mut db = Database::new();
        db.load_edges("Edge", &[(0, 1), (1, 2), (2, 3)]);
        db.query("SSSP(x;y:int) :- Edge('0',x); y=1.").unwrap();
        let mutated = db
            .query("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.")
            .unwrap();
        // Reset the base case and run the same fixpoint read-only.
        db.query("SSSP(x;y:int) :- Edge('0',x); y=1.").unwrap();
        let by_ref = db
            .query_ref("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.")
            .unwrap();
        assert_eq!(by_ref.rows(), mutated.rows());
        assert_eq!(
            by_ref.annotated_rows().len(),
            mutated.annotated_rows().len()
        );
    }

    #[test]
    fn prepared_execute_with_overrides_config() {
        let db = social();
        let stmt = db
            .prepare("C(;w:long) :- Follows(x,y),Follows(y,z),Follows(z,x); w=<<COUNT(*)>>.")
            .unwrap();
        let serial = stmt.execute(&db).unwrap().scalar_u64();
        let threaded = stmt
            .execute_with(&db, &Config::default().with_threads(2))
            .unwrap()
            .scalar_u64();
        assert_eq!(serial, threaded);
        assert_eq!(stmt.name(), "C");
    }

    #[test]
    fn malformed_csv_surfaces_as_storage_error() {
        let mut db = Database::new();
        let r = db.load_csv_reader(
            "R",
            std::io::Cursor::new("k:u32\nnope\n"),
            &CsvOptions::csv(),
        );
        assert!(matches!(r, Err(CoreError::Storage(_))));
    }
}
