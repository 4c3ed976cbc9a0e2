//! The paper's benchmark workloads, expressed through the query language
//! (paper Table 1) with the setup rules the paper keeps in the database
//! (`InvDeg`, `N`, the `'start'` constant).

use crate::database::{CoreError, Database, Prepared};
use crate::Config;
use eh_exec::{Relation, TupleBuffer};
use eh_graph::Graph;
use eh_semiring::{AggOp, DynValue};

/// Triangle count via the one-line query (paper Table 1 "Count Triangle").
/// The graph should already be pruned (`src > dst`) for the symmetric
/// speedup; pass an unpruned graph to count each triangle 6 times.
pub fn triangle_count(graph: &Graph, config: Config) -> Result<u64, CoreError> {
    let mut db = Database::with_config(config);
    db.load_graph("Edge", graph);
    let out =
        db.query("TriangleCount(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.")?;
    Ok(out.scalar_u64().unwrap_or(0))
}

/// 4-clique count (paper Table 1 "4-Clique", COUNT form of §5.3's K4).
pub fn four_clique_count(graph: &Graph, config: Config) -> Result<u64, CoreError> {
    let mut db = Database::with_config(config);
    db.load_graph("Edge", graph);
    let out = db.query(
        "K4(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,u),Edge(y,u),Edge(z,u); w=<<COUNT(*)>>.",
    )?;
    Ok(out.scalar_u64().unwrap_or(0))
}

/// Lollipop count (paper §5.3 L3,1): triangles with a pendant edge.
pub fn lollipop_count(graph: &Graph, config: Config) -> Result<u64, CoreError> {
    let mut db = Database::with_config(config);
    db.load_graph("Edge", graph);
    let out =
        db.query("L31(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,u); w=<<COUNT(*)>>.")?;
    Ok(out.scalar_u64().unwrap_or(0))
}

/// Barbell count (paper §5.3 B3,1): two triangles joined by one edge. The
/// GHD plan computes each triangle set once (node dedup) and combines
/// through the bridge — the paper's three-orders-of-magnitude showcase.
pub fn barbell_count(graph: &Graph, config: Config) -> Result<u64, CoreError> {
    let mut db = Database::with_config(config);
    db.load_graph("Edge", graph);
    let out = db.query(
        "B31(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,a),Edge(a,b),Edge(b,c),Edge(a,c); w=<<COUNT(*)>>.",
    )?;
    Ok(out.scalar_u64().unwrap_or(0))
}

/// PageRank per paper Table 1: base value `1/N`, then
/// `y = 0.15 + 0.85 * SUM(PageRank(z) · InvDeg(z))` for a fixed number of
/// iterations over the undirected graph. Returns per-node ranks.
pub fn pagerank(graph: &Graph, iterations: u32, config: Config) -> Result<Vec<f64>, CoreError> {
    PageRankRunner::new(graph, iterations, config)?.run()
}

/// A prepared PageRank computation: database setup (Edge/InvDeg tries,
/// the `N` scalar) and compiling the paper's two-rule program are paid
/// in [`PageRankRunner::new`]; [`run`] only executes it, matching the
/// paper's methodology of excluding load/index time (§5.1.3).
///
/// [`run`]: PageRankRunner::run
pub struct PageRankRunner {
    db: Database,
    program: Prepared,
    num_nodes: u32,
}

impl PageRankRunner {
    /// Build the database and warm the tries the program needs.
    pub fn new(graph: &Graph, iterations: u32, config: Config) -> Result<Self, CoreError> {
        let mut db = Database::with_config(config);
        db.load_graph("Edge", graph);
        // InvDeg(z) — annotated unary relation the paper keeps in the DB,
        // built as one flat column plus its annotation column.
        let deg = graph.degrees();
        let mut nodes = TupleBuffer::from_flat(1, (0..graph.num_nodes).collect());
        nodes.set_annotations(
            deg.iter()
                .map(|&d| DynValue::F64(1.0 / d.max(1) as f64))
                .collect(),
        );
        db.register("InvDeg", Relation::from_buffer(nodes, AggOp::Sum));
        db.register_scalar("N", DynValue::F64(graph.num_nodes.max(1) as f64));
        let program = db.prepare(&format!(
            "PageRank(x;y:float) :- Edge(x,z); y=1/N.\n\
             PageRank(x;y:float)*[i={iterations}] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>."
        ))?;
        let mut runner = PageRankRunner {
            db,
            program,
            num_nodes: graph.num_nodes,
        };
        // Warm pass: builds and caches every trie order the plans request.
        let _ = runner.run()?;
        Ok(runner)
    }

    /// Execute the PageRank program, returning per-node ranks.
    pub fn run(&mut self) -> Result<Vec<f64>, CoreError> {
        let out = self.program.execute(&self.db)?;
        let mut ranks = vec![0.0f64; self.num_nodes as usize];
        for (row, v) in out.annotated_rows() {
            ranks[row[0] as usize] = v.as_f64();
        }
        Ok(ranks)
    }
}

/// SSSP per paper Table 1: base distance 1 to the start node's neighbours,
/// then the `MIN(w)+1` fixpoint (seminaive, since MIN is monotone).
/// Returns per-node hop distances (`u32::MAX` = unreachable); the start
/// node itself is 0 by definition.
pub fn sssp(graph: &Graph, start: u32, config: Config) -> Result<Vec<u32>, CoreError> {
    SsspRunner::new(graph, start, config)?.run()
}

/// A prepared SSSP computation (setup excluded from [`run`] timing, like
/// [`PageRankRunner`]); the start node is pinned between its two rules.
///
/// [`run`]: SsspRunner::run
pub struct SsspRunner {
    db: Database,
    base: Prepared,
    fixpoint: Prepared,
    start: u32,
    num_nodes: u32,
}

impl SsspRunner {
    /// Build the database and warm the Edge tries.
    pub fn new(graph: &Graph, start: u32, config: Config) -> Result<Self, CoreError> {
        let mut db = Database::with_config(config);
        db.load_graph("Edge", graph);
        db.define_const("start", start);
        let base = db.prepare("SSSP(x;y:int) :- Edge('start',x); y=1.")?;
        let fixpoint = db.prepare("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.")?;
        let mut runner = SsspRunner {
            db,
            base,
            fixpoint,
            start,
            num_nodes: graph.num_nodes,
        };
        let _ = runner.run()?;
        Ok(runner)
    }

    /// Execute the SSSP program, returning per-node hop distances.
    pub fn run(&mut self) -> Result<Vec<u32>, CoreError> {
        let base = self.base.execute(&self.db)?;
        // Pin the start node at distance 0 (implicit in the paper's rule),
        // in key order: the base stays canonical, so recursion need not sort.
        let rows = base.relation().rows();
        let at = rows.flat().partition_point(|&k| k < self.start);
        let ys = rows.annotations().expect("the base rule sets y=1");
        let (mut keys, mut ys) = (rows.flat().to_vec(), ys.to_vec());
        keys.insert(at, self.start);
        ys.insert(at, DynValue::U64(0));
        let mut tuples = TupleBuffer::from_flat(1, keys);
        tuples.set_annotations(ys);
        self.db
            .register("SSSP", Relation::from_buffer(tuples, AggOp::Min));
        let out = self.fixpoint.execute(&self.db)?;
        let mut dist = vec![u32::MAX; self.num_nodes as usize];
        for (row, v) in out.annotated_rows() {
            dist[row[0] as usize] = v.as_u64() as u32;
        }
        Ok(dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_graph::gen;

    #[test]
    fn triangle_count_matches_lowlevel_shape() {
        let g = gen::complete(6).prune_by_degree();
        // K6: C(6,3) = 20 triangles.
        assert_eq!(triangle_count(&g, Config::default()).unwrap(), 20);
    }

    #[test]
    fn four_clique_on_k6() {
        let g = gen::complete(6).prune_by_degree();
        // C(6,4) = 15.
        assert_eq!(four_clique_count(&g, Config::default()).unwrap(), 15);
    }

    #[test]
    fn lollipop_on_k4_undirected() {
        let g = gen::complete(4);
        // Ordered triangles 24 × 3 pendant choices = 72 (cf. pairwise test).
        assert_eq!(lollipop_count(&g, Config::default()).unwrap(), 72);
    }

    #[test]
    fn barbell_matches_pairwise_baseline() {
        let g = gen::complete(4);
        assert_eq!(barbell_count(&g, Config::default()).unwrap(), 432);
    }

    #[test]
    fn pagerank_matches_handcoded() {
        let g = gen::erdos_renyi(60, 400, 3).symmetrize();
        let eh = pagerank(&g, 5, Config::default()).unwrap();
        // Hand-coded reference (same base 1/N, same update).
        let n = g.num_nodes as usize;
        let csr = g.to_csr();
        let deg = g.degrees();
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..5 {
            let mut next = vec![0.0; n];
            for v in 0..n {
                let mut s = 0.0;
                for &u in csr.neighbors(v as u32) {
                    s += rank[u as usize] / deg[u as usize].max(1) as f64;
                }
                next[v] = 0.15 + 0.85 * s;
            }
            rank = next;
        }
        for (a, b) in eh.iter().zip(&rank) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn sssp_matches_bfs() {
        let g = gen::power_law(150, 700, 2.3, 17);
        let start = g.max_degree_node();
        let eh = sssp(&g, start, Config::default()).unwrap();
        let bfs = eh_baselines::lowlevel::sssp_bfs(&g, start);
        assert_eq!(eh, bfs);
    }

    /// Names of a span's children, in order.
    fn names(span: &crate::Span) -> Vec<&str> {
        span.children.iter().map(|c| c.name.as_str()).collect()
    }

    /// The children of `span` cover at least 90 % of it.
    fn covered(span: &crate::Span) -> bool {
        let inside: u64 = span.children.iter().map(|c| c.elapsed_ns).sum();
        inside * 10 >= span.elapsed_ns * 9
    }

    #[test]
    fn recursion_is_traced_one_span_per_iteration() {
        let g = gen::power_law(3000, 60_000, 2.3, 5).symmetrize();
        let profiled = Config::default().with_profile(true);
        // PageRank: the base rule, then exactly five iterations.
        let pr = PageRankRunner::new(&g, 5, Config::default()).unwrap();
        let out = pr.program.execute_with(&pr.db, &profiled).unwrap();
        let root = &out.profile().expect("a profiled program").root;
        assert_eq!(root.name, "query");
        assert_eq!(names(root), ["rule 0", "rule 1"]);
        let iterations = &root.children[1];
        let want: Vec<String> = (0..5).map(|k| format!("iteration {k}")).collect();
        assert_eq!(names(iterations), want);
        assert!(covered(iterations), "{}", root.render());
        assert!(iterations.start_ns_rel >= root.children[0].start_ns_rel);
        // SSSP: the fixpoint alone, one span per iteration until the
        // frontier empties.
        let start = g.max_degree_node();
        let sssp = SsspRunner::new(&g, start, Config::default()).unwrap();
        let out = sssp.fixpoint.execute_with(&sssp.db, &profiled).unwrap();
        let p = out.profile().expect("a profiled fixpoint");
        let root = &p.root;
        assert!(root.children.len() > 1, "{}", root.render());
        for (k, it) in root.children.iter().enumerate() {
            assert_eq!(it.name, format!("iteration {k}"));
            assert!(it.value("rows_in").unwrap() > 0);
        }
        assert_eq!(root.children.last().unwrap().value("rows_out"), Some(0));
        assert_eq!(root.value("rows"), Some(out.num_rows() as u64));
        assert!(p.work.values_scanned > 0);
        assert!(covered(root), "{}", root.render());
    }

    #[test]
    fn profiling_does_not_change_recursive_answers() {
        let g = gen::power_law(500, 3_000, 2.3, 9);
        let start = g.max_degree_node();
        let bits = |out: crate::QueryResult| {
            let annots = out.relation().annotations().unwrap();
            let bits: Vec<u64> = annots.iter().map(|v| v.as_f64().to_bits()).collect();
            (out.rows().clone(), bits)
        };
        for threads in [1, 4] {
            let cfg = Config::default().with_threads(threads);
            let pr = PageRankRunner::new(&g, 5, cfg).unwrap();
            let sssp = SsspRunner::new(&g, start, cfg).unwrap();
            let run = |profile: bool| {
                let cfg = cfg.with_profile(profile);
                let ranks = pr.program.execute_with(&pr.db, &cfg).unwrap();
                let dist = sssp.fixpoint.execute_with(&sssp.db, &cfg).unwrap();
                (bits(ranks), bits(dist))
            };
            assert_eq!(run(false), run(true), "threads {threads}");
        }
    }
}
