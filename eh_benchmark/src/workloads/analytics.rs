//! `analytics`: the PageRank and SSSP runners.

use super::{analog, err, ns_since, ArgKind, Caller, Class, Expected, Op, Sizes, Stmt, Workload};
use crate::api::{lowlevel, Config, Graph, PageRankRunner, SsspRunner};
use crate::oracle::Digest;
use crate::trace::Recorder;
use std::time::Instant;

pub struct Analytics {
    pagerank: PageRankRunner,
    sssp: SsspRunner,
}

pub struct AnalyticsInputs {
    graph: Graph,
    start: u32,
    iterations: u32,
    ranks: Vec<f64>,
    dists: Vec<u32>,
}

const SSSP_STMT: u16 = 0;

impl Analytics {
    fn run(&mut self, stmt: u16) -> Result<Digest, String> {
        if stmt == SSSP_STMT {
            let d = self.sssp.run().map_err(err("sssp"))?;
            Ok(Digest::of_flat(1, &d))
        } else {
            let r = self.pagerank.run().map_err(err("pagerank"))?;
            Ok(Digest::of_f64(&r))
        }
    }
}

impl Caller for Analytics {
    fn call(&mut self, op: Op) -> Result<(Digest, u64), String> {
        let t = Instant::now();
        let d = self.run(op.stmt)?;
        Ok((d, ns_since(t)))
    }

    // The runners hide parse, plan and execute of their programs behind
    // one call; from outside it is one `exec` span.
    fn traced(&mut self, op: Op, rec: &mut Recorder) -> Result<Digest, String> {
        let req = rec.request();
        let exec = rec.open(req, "core.runner.run", "exec");
        let d = self.run(op.stmt);
        rec.close(exec);
        rec.close(req);
        d
    }
}

impl Workload for Analytics {
    const NAME: &'static str = "analytics";
    type Inputs = AnalyticsInputs;
    type Firsts = (Vec<u32>, Vec<f64>);

    // Two SSSP per PageRank: p10 and p50 fall in SSSP, p75 and p95 in
    // PageRank. One-to-one would put p50 on the boundary between them.
    fn stmts(_: &AnalyticsInputs) -> Vec<Stmt> {
        vec![
            Stmt {
                name: "sssp",
                class: Class::Sssp,
                weight: 2,
                arg: ArgKind::Fixed,
            },
            Stmt {
                name: "pagerank",
                class: Class::Pagerank,
                weight: 1,
                arg: ArgKind::Fixed,
            },
        ]
    }

    fn generate(seed: u64, sizes: &Sizes) -> AnalyticsInputs {
        let graph = analog(1, seed, sizes.analytics_scale);
        let start = graph.max_degree_node();
        AnalyticsInputs {
            ranks: lowlevel::pagerank(&graph, sizes.pagerank_iterations as usize),
            dists: lowlevel::sssp_bfs(&graph, start),
            iterations: sizes.pagerank_iterations,
            start,
            graph,
        }
    }

    fn setup(inputs: &AnalyticsInputs, profile: bool) -> Result<(Self, Self::Firsts), String> {
        let cfg = Config::default().with_threads(1).with_profile(profile);
        let mut live = Analytics {
            pagerank: PageRankRunner::new(&inputs.graph, inputs.iterations, cfg)
                .map_err(err("pagerank set-up"))?,
            sssp: SsspRunner::new(&inputs.graph, inputs.start, cfg).map_err(err("sssp set-up"))?,
        };
        let dists = live.sssp.run().map_err(err("sssp"))?;
        let ranks = live.pagerank.run().map_err(err("pagerank"))?;
        Ok((live, (dists, ranks)))
    }

    fn verify(inputs: &AnalyticsInputs, firsts: &Self::Firsts) -> Result<Expected, String> {
        let (dists, ranks) = firsts;
        if *dists != inputs.dists {
            return Err("sssp: distances differ from the BFS baseline".into());
        }
        if ranks.len() != inputs.ranks.len()
            || ranks
                .iter()
                .zip(&inputs.ranks)
                .any(|(a, b)| (a - b).abs() > 1e-9 * b.abs().max(1.0))
        {
            return Err("pagerank: ranks differ from the pull-based baseline".into());
        }
        // The engine's float sums are bit-stable at one thread, so timed
        // runs are held to the verified answer's exact bits.
        Ok(vec![
            vec![Digest::of_flat(1, dists)],
            vec![Digest::of_f64(ranks)],
        ])
    }

    fn callers(&mut self) -> Vec<&mut dyn Caller> {
        vec![self]
    }
}
