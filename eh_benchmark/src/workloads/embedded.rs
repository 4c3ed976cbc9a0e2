//! The two embedded pattern workloads: a `Database`, prepared statements,
//! one caller.

use super::{
    analog, by_degree, digest_result, edges_tsv, err, ns_since, verify_digests, ArgKind, Caller,
    Class, Expected, Op, Sizes, Stmt, Workload,
};
use crate::api::{lowlevel, power_law, Config, CsvOptions, Database, Graph, Prepared};
use crate::oracle::{self, Digest};
use crate::trace::Recorder;
use std::time::Instant;

/// A database with prepared statements: the state of both pattern
/// workloads, and their single caller.
pub struct Embedded {
    db: Database,
    prepared: Vec<Prepared>,
}

impl Embedded {
    fn first_answers(db: Database, texts: &[String]) -> Result<(Embedded, Vec<Digest>), String> {
        let mut prepared = Vec::with_capacity(texts.len());
        for t in texts {
            prepared.push(db.prepare(t).map_err(err("prepare"))?);
        }
        let mut firsts = Vec::with_capacity(texts.len());
        for p in &prepared {
            firsts.push(digest_result(&p.execute(&db).map_err(err("execute"))?));
        }
        Ok((Embedded { db, prepared }, firsts))
    }
}

impl Caller for Embedded {
    fn call(&mut self, op: Op) -> Result<(Digest, u64), String> {
        let t = Instant::now();
        let r = self.prepared[op.stmt as usize]
            .execute(&self.db)
            .map_err(err("execute"))?;
        let d = digest_result(&r);
        Ok((d, ns_since(t)))
    }

    fn traced(&mut self, op: Op, rec: &mut Recorder) -> Result<Digest, String> {
        let req = rec.request();
        let exec = rec.open(req, "exec.execute", "exec");
        let r = self.prepared[op.stmt as usize].execute(&self.db);
        rec.close(exec);
        let r = r.map_err(err("execute"))?;
        if let Some(p) = r.profile() {
            rec.count(exec, "values_scanned", p.work.values_scanned);
            rec.count(exec, "intersections", p.work.intersections);
        }
        let result = rec.open(req, "core.result", "result");
        let d = digest_result(&r);
        rec.close(result);
        rec.close(req);
        Ok(d)
    }
}

pub(crate) const TRIANGLE: &str = "TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.";
pub(crate) const LOLLIPOP: &str =
    "L31(;w:long) :- Und(x,y),Und(y,z),Und(x,z),Und(x,u); w=<<COUNT(*)>>.";
pub(crate) const BARBELL: &str = "B31(;w:long) :- Und(x,y),Und(y,z),Und(x,z),Und(x,a),Und(a,b),Und(b,c),Und(a,c); w=<<COUNT(*)>>.";
const FOUR_CLIQUE: &str = "K4(;w:long) :- Small(x,y),Small(y,z),Small(x,z),Small(x,u),Small(y,u),Small(z,u); w=<<COUNT(*)>>.";

pub struct PatternDense(Embedded);

pub struct DenseInputs {
    und: Graph,
    small: Graph,
    expected: Expected,
}

impl Workload for PatternDense {
    const NAME: &'static str = "pattern_dense";
    type Inputs = DenseInputs;
    type Firsts = Vec<Digest>;

    // By latency: triangle [0, .25], lollipop [.25, .625], 4-clique
    // [.625, .875], barbell [.875, 1] of the operations — so p10, p50, p75
    // and p95 each fall well inside one statement.
    fn stmts(_: &DenseInputs) -> Vec<Stmt> {
        let count = |name, weight| Stmt {
            name,
            class: Class::Count,
            weight,
            arg: ArgKind::Fixed,
        };
        vec![
            count("triangle", 2),
            count("lollipop", 3),
            count("barbell", 1),
            count("four_clique", 2),
        ]
    }

    fn generate(seed: u64, sizes: &Sizes) -> DenseInputs {
        let und = analog(0, seed, sizes.dense_scale);
        let small = power_law(sizes.k4_nodes, sizes.k4_edges, 1.9, seed ^ 0x4b34);
        let csr = und.to_csr();
        let tri = oracle::ordered_triangles(&csr);
        let scalar = |v| vec![Digest::scalar(v)];
        let expected = vec![
            scalar(lowlevel::triangle_count_merge(
                &und.prune_by_degree().to_csr(),
            )),
            scalar(oracle::lollipops(&csr, &tri)),
            scalar(oracle::barbells(&csr, &tri)),
            scalar(
                oracle::ordered_four_cliques(&small.prune_by_degree().to_csr())
                    .iter()
                    .sum(),
            ),
        ];
        DenseInputs {
            und,
            small,
            expected,
        }
    }

    fn setup(inputs: &DenseInputs, profile: bool) -> Result<(Self, Vec<Digest>), String> {
        let cfg = Config::default().with_threads(1).with_profile(profile);
        let mut db = Database::with_config(cfg);
        db.load_graph("Edge", &inputs.und.prune_by_degree());
        db.load_graph("Und", &inputs.und);
        db.load_graph("Small", &inputs.small.prune_by_degree());
        let texts = [TRIANGLE, LOLLIPOP, BARBELL, FOUR_CLIQUE].map(String::from);
        let (live, firsts) = Embedded::first_answers(db, &texts)?;
        Ok((PatternDense(live), firsts))
    }

    fn verify(inputs: &DenseInputs, firsts: &Vec<Digest>) -> Result<Expected, String> {
        verify_digests(&Self::stmts(inputs), &inputs.expected, firsts)
    }

    fn callers(&mut self) -> Vec<&mut dyn Caller> {
        vec![&mut self.0]
    }
}

pub struct PatternSparse(Embedded);

pub struct SparseInputs {
    und_tsv: Vec<u8>,
    pruned_tsv: Vec<u8>,
    texts: Vec<String>,
    expected: Expected,
}

impl Workload for PatternSparse {
    const NAME: &'static str = "pattern_sparse";
    type Inputs = SparseInputs;
    type Firsts = Vec<Digest>;

    // By latency: hub selection [0, .25], triangle count [.25, .625],
    // 2-hop count [.625, .875], listing [.875, 1]. The selection counts
    // the 3-paths out of the hub, a few milliseconds of work: a cheaper
    // one (the hub's triangles, 0.25 ms) measured how long two worker
    // threads take to wake up on this box, and moved by a third between
    // runs.
    fn stmts(_: &SparseInputs) -> Vec<Stmt> {
        let stmt = |name, class, weight| Stmt {
            name,
            class,
            weight,
            arg: ArgKind::Fixed,
        };
        vec![
            stmt("hub_three_paths", Class::Select, 2),
            stmt("triangle", Class::Count, 3),
            stmt("two_hop", Class::Count, 2),
            stmt("two_hop_list", Class::List, 1),
        ]
    }

    fn generate(seed: u64, sizes: &Sizes) -> SparseInputs {
        let und = analog(4, seed, sizes.sparse_scale);
        let pruned = und.prune_by_degree();
        let (csr, pcsr) = (und.to_csr(), pruned.to_csr());
        let hub = by_degree(&csr)[0];
        let texts = vec![
            format!("HP(;w:long) :- Und('{hub}',y),Und(y,z),Und(z,u); w=<<COUNT(*)>>."),
            TRIANGLE.to_string(),
            "H2(;w:long) :- Und(x,y),Und(y,z); w=<<COUNT(*)>>.".to_string(),
            "HL(x,z) :- Edge(x,y),Edge(y,z).".to_string(),
        ];
        let expected = vec![
            vec![Digest::scalar(oracle::three_paths_from(&csr, hub))],
            vec![Digest::scalar(lowlevel::triangle_count_merge(&pcsr))],
            vec![Digest::scalar(oracle::two_paths(&csr))],
            vec![oracle::two_hop_rows(&pcsr)],
        ];
        SparseInputs {
            und_tsv: edges_tsv(&und),
            pruned_tsv: edges_tsv(&pruned),
            texts,
            expected,
        }
    }

    fn setup(inputs: &SparseInputs, profile: bool) -> Result<(Self, Vec<Digest>), String> {
        let cfg = Config::default().with_threads(2).with_profile(profile);
        let mut db = Database::with_config(cfg);
        db.load_csv_reader("Und", &inputs.und_tsv[..], &CsvOptions::tsv())
            .map_err(err("ingest Und"))?;
        db.load_csv_reader("Edge", &inputs.pruned_tsv[..], &CsvOptions::tsv())
            .map_err(err("ingest Edge"))?;
        let (live, firsts) = Embedded::first_answers(db, &inputs.texts)?;
        Ok((PatternSparse(live), firsts))
    }

    fn verify(inputs: &SparseInputs, firsts: &Vec<Digest>) -> Result<Expected, String> {
        verify_digests(&Self::stmts(inputs), &inputs.expected, firsts)
    }

    fn callers(&mut self) -> Vec<&mut dyn Caller> {
        vec![&mut self.0]
    }
}

#[cfg(test)]
mod tests {
    use super::super::SMOKE;
    use super::*;

    /// The satellite's "deliberately wrong expected answer": a first
    /// answer that differs from the oracle is an error, which `main`
    /// turns into a non-zero exit.
    #[test]
    fn a_wrong_expected_answer_fails_verification() {
        let mut inputs = PatternDense::generate(1, &SMOKE);
        let (live, firsts) = PatternDense::setup(&inputs, false).expect("set-up");
        assert!(PatternDense::verify(&inputs, &firsts).is_ok());
        inputs.expected[0][0].hash += 1;
        let e = PatternDense::verify(&inputs, &firsts).expect_err("wrong oracle must fail");
        assert!(e.contains("triangle"), "{e}");
        live.teardown();
    }
}
