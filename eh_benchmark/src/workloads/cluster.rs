//! `cluster_scatter`: one coordinator scattering over in-process workers.

use super::{
    analog, by_degree, digest_served, edges_tsv, err, ns_since, socket_addr, verify_digests,
    ArgKind, Caller, Class, Expected, Op, Sizes, Stmt, Workload, CLUSTER_WORKERS, LOLLIPOP,
    TRIANGLE,
};
use crate::api::{
    lowlevel, Cluster, Config, Database, ResultSet, Server, ServerOptions, WireDelimiter,
};
use crate::oracle::{self, Digest};
use crate::trace::{Recorder, SHADOW};
use std::time::Instant;

pub struct ClusterInputs {
    und_tsv: Vec<u8>,
    pruned_tsv: Vec<u8>,
    texts: Vec<String>,
    expected: Expected,
    /// Shard workers to start (the 1-worker probe overrides the default).
    pub workers: usize,
}

pub struct ClusterScatter {
    servers: Vec<Server>,
    cluster: Option<Cluster>,
    texts: Vec<String>,
}

impl ClusterScatter {
    fn query(&mut self, stmt: u16) -> Result<ResultSet, String> {
        self.cluster
            .as_mut()
            .expect("connected until teardown")
            .query(&self.texts[stmt as usize])
            .map_err(err("cluster query"))
    }

    /// `(slowest, mean)` worker time and total partial rows of the last
    /// scattered query.
    pub fn last_shards(&self) -> (u64, f64, u64) {
        let reports = self
            .cluster
            .as_ref()
            .expect("connected until teardown")
            .last_reports();
        let slowest = reports.iter().map(|r| r.elapsed_ns).max().unwrap_or(0);
        let mean =
            reports.iter().map(|r| r.elapsed_ns as f64).sum::<f64>() / reports.len().max(1) as f64;
        (slowest, mean, reports.iter().map(|r| r.rows).sum())
    }
}

impl Caller for ClusterScatter {
    fn call(&mut self, op: Op) -> Result<(Digest, u64), String> {
        let t = Instant::now();
        let r = self.query(op.stmt)?;
        let d = digest_served(&r);
        Ok((d, ns_since(t)))
    }

    fn traced(&mut self, op: Op, rec: &mut Recorder) -> Result<Digest, String> {
        let req = rec.request();
        let scatter = rec.open(req, "cluster.query", "merge");
        let r = self.query(op.stmt);
        rec.close(scatter);
        let r = r?;
        let result = rec.open(req, "client.typed_rows", "result");
        let d = digest_served(&r);
        rec.close(result);
        rec.close(req);
        // One child per shard, side by side from the scatter's start: the
        // slowest one is the blocking step, the rest of the scatter span
        // is wire, decode and merge.
        let reports: Vec<(u64, u64)> = self
            .cluster
            .as_ref()
            .expect("connected until teardown")
            .last_reports()
            .iter()
            .map(|s| (s.elapsed_ns, s.rows))
            .collect();
        let slowest = reports.iter().map(|r| r.0).max().unwrap_or(0);
        let mut blocking = true;
        for (elapsed, rows) in reports {
            // Only the slowest shard's time is on the request's path.
            let layer = if elapsed == slowest && std::mem::take(&mut blocking) {
                "exec"
            } else {
                SHADOW
            };
            let shard = rec.place(scatter, None, "worker.shard_exec", layer, elapsed);
            rec.count(shard, "rows", rows);
        }
        Ok(d)
    }
}

impl Workload for ClusterScatter {
    const NAME: &'static str = "cluster_scatter";
    type Inputs = ClusterInputs;
    type Firsts = Vec<Digest>;

    // By latency: neighbour lookup [0, .05], triangle count [.05, .55],
    // triangle listing [.55, .8], lollipop count [.8, 1]. The lookup — the
    // fixed scatter floor, 0.3 ms of socket round trips and thread
    // wake-ups — is in the mix and printed, but kept below p10: it moved
    // by 15 % between runs of the same code.
    fn stmts(_: &ClusterInputs) -> Vec<Stmt> {
        let stmt = |name, class, weight| Stmt {
            name,
            class,
            weight,
            arg: ArgKind::Fixed,
        };
        vec![
            stmt("neighbours", Class::Select, 1),
            stmt("triangle", Class::Count, 10),
            stmt("lollipop", Class::Count, 4),
            stmt("triangle_list", Class::List, 5),
        ]
    }

    fn generate(seed: u64, sizes: &Sizes) -> ClusterInputs {
        let und = analog(2, seed, sizes.cluster_scale);
        let pruned = und.prune_by_degree();
        let (csr, pcsr) = (und.to_csr(), pruned.to_csr());
        let hub = by_degree(&csr)[0];
        let tri = oracle::ordered_triangles(&csr);
        let texts = vec![
            format!("N(y) :- Und('{hub}',y)."),
            TRIANGLE.to_string(),
            LOLLIPOP.to_string(),
            "TL(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).".to_string(),
        ];
        let expected = vec![
            vec![Digest::of_flat(1, csr.neighbors(hub))],
            vec![Digest::scalar(lowlevel::triangle_count_merge(&pcsr))],
            vec![Digest::scalar(oracle::lollipops(&csr, &tri))],
            vec![oracle::triangle_rows(&pcsr)],
        ];
        ClusterInputs {
            und_tsv: edges_tsv(&und),
            pruned_tsv: edges_tsv(&pruned),
            texts,
            expected,
            workers: CLUSTER_WORKERS,
        }
    }

    fn setup(inputs: &ClusterInputs, profile: bool) -> Result<(Self, Vec<Digest>), String> {
        let cfg = Config::default().with_threads(1).with_profile(profile);
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for k in 0..inputs.workers {
            let addr = socket_addr(&format!("worker{k}"))?;
            servers.push(
                Server::bind(
                    Database::with_config(cfg),
                    &[&addr],
                    ServerOptions::default(),
                )
                .map_err(err("bind"))?,
            );
            addrs.push(addr);
        }
        let mut cluster = Cluster::connect(&addrs).map_err(err("connect"))?;
        cluster
            .load_csv("Und", WireDelimiter::Tab, inputs.und_tsv.clone())
            .map_err(err("load Und"))?;
        cluster
            .load_csv("Edge", WireDelimiter::Tab, inputs.pruned_tsv.clone())
            .map_err(err("load Edge"))?;
        let mut live = ClusterScatter {
            servers,
            cluster: Some(cluster),
            texts: inputs.texts.clone(),
        };
        let mut firsts = Vec::new();
        for stmt in 0..inputs.texts.len() {
            firsts.push(digest_served(&live.query(stmt as u16)?));
        }
        Ok((live, firsts))
    }

    fn verify(inputs: &ClusterInputs, firsts: &Vec<Digest>) -> Result<Expected, String> {
        verify_digests(&Self::stmts(inputs), &inputs.expected, firsts)
    }

    fn callers(&mut self) -> Vec<&mut dyn Caller> {
        vec![self]
    }

    fn teardown(mut self) {
        if let Some(c) = self.cluster.take() {
            let _ = c.quit();
        }
        for s in self.servers.drain(..) {
            s.shutdown();
        }
    }
}
