//! `serve_adhoc`: two closed-loop clients on a Unix-socket server.

use super::{
    by_degree, digest_served, err, fill, ns_since, socket_addr, verify_digests, ArgKind, Caller,
    Class, Expected, Op, Sizes, Stmt, Workload, HOT_NODES, HUBS, SERVE_CLIENTS,
};
use crate::api::{
    batch_from_result, parse_rule, power_law, validate_rule, Config, Database, EhClient,
    ResultBatch, ResultSet, Server, ServerOptions, ServerStats, StatementHandle,
};
use crate::oracle::{self, Digest};
use crate::stats::Rng;
use crate::trace::Recorder;
use std::time::Instant;

const NEIGHBOURS: &str = "N(y) :- Edge('{c}',y).";
const ANCHORED_TRIANGLE: &str =
    "AT(;w:long) :- Edge('{c}',y),Edge(y,z),Edge('{c}',z); w=<<COUNT(*)>>.";
const ANCHORED_LOLLIPOP: &str =
    "AL(;w:long) :- Edge('{c}',y),Edge(y,z),Edge('{c}',z),Edge('{c}',u); w=<<COUNT(*)>>.";
const ANCHORED_BARBELL: &str = "AB(;w:long) :- Edge('{c}',y),Edge(y,z),Edge('{c}',z),Edge('{c}',a),Edge(a,b),Edge(b,d),Edge(a,d); w=<<COUNT(*)>>.";
const ANCHORED_CLIQUE: &str = "AK(;w:long) :- Edge('{c}',y),Edge(y,z),Edge('{c}',z),Edge('{c}',u),Edge(y,u),Edge(z,u); w=<<COUNT(*)>>.";
const TWO_HOP_OF: &str = "H(z) :- Edge('{c}',y),Edge(y,z).";
const SERVE_TEMPLATES: [&str; 6] = [
    NEIGHBOURS,
    ANCHORED_TRIANGLE,
    ANCHORED_LOLLIPOP,
    ANCHORED_BARBELL,
    ANCHORED_CLIQUE,
    TWO_HOP_OF,
];
const HOP2_STMT: usize = 5;

pub struct ServeInputs {
    /// The database image the server opens (`save_to` at generation).
    image: Vec<u8>,
    /// Constant tables per statement: hot nodes, cold nodes, hubs.
    consts: Vec<Vec<u32>>,
    expected: Expected,
}

pub struct ServeClient {
    client: EhClient,
    /// Prepared 2-hop statements, one per hub (`prepare` + `exec`).
    hop2: Vec<StatementHandle>,
    consts: Vec<Vec<u32>>,
    text: String,
    /// Traced pass only: a local copy of the database on which the
    /// server's steps are replayed one layer at a time.
    replay: Option<Replayer>,
}

/// What the server does for one request, step by step on a local copy of
/// its database, so that the one number the server reports (a frame's
/// service time) can be split by layer. The durations come from another
/// moment than the request they explain: they are estimates, placed
/// inside the measured span and clipped to it.
struct Replayer {
    db: Database,
}

#[derive(Default)]
struct Replay {
    parse_ns: u64,
    plan_ns: u64,
    exec_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    values_scanned: u64,
}

impl Replayer {
    fn replay(&self, text: &str) -> Result<Replay, String> {
        let t = Instant::now();
        let rule = parse_rule(text).map_err(err("parse"))?;
        validate_rule(&rule).map_err(err("validate"))?;
        let parse_ns = ns_since(t);
        let t = Instant::now();
        let prepared = self.db.prepare(text).map_err(err("prepare"))?;
        let plan_ns = ns_since(t).saturating_sub(parse_ns);
        let t = Instant::now();
        let result = prepared.execute(&self.db).map_err(err("execute"))?;
        let exec_ns = ns_since(t);
        let t = Instant::now();
        let bytes = batch_from_result(&self.db, &result)
            .encode()
            .map_err(err("encode"))?;
        let encode_ns = ns_since(t);
        let t = Instant::now();
        let batch = ResultBatch::decode(&bytes).map_err(err("decode"))?;
        let decode_ns = ns_since(t);
        std::hint::black_box(batch.num_rows());
        Ok(Replay {
            parse_ns,
            plan_ns,
            exec_ns,
            encode_ns,
            decode_ns,
            values_scanned: result.profile().map_or(0, |p| p.work.values_scanned),
        })
    }
}

pub struct ServeAdhoc {
    server: Option<Server>,
    clients: Vec<ServeClient>,
}

impl ServeClient {
    fn send(&mut self, op: Op) -> Result<ResultSet, String> {
        if op.stmt as usize == HOP2_STMT {
            self.client
                .exec(self.hop2[op.arg as usize])
                .map_err(err("exec"))
        } else {
            self.client.query(&self.text).map_err(err("query"))
        }
    }

    fn prepare_text(&mut self, op: Op) {
        let s = op.stmt as usize;
        fill(
            &mut self.text,
            SERVE_TEMPLATES[s],
            self.consts[s][op.arg as usize],
        );
    }

    /// Server-side counters around one request, for the traced pass.
    fn frame_totals(&mut self) -> Result<FrameTotals, String> {
        let s = self.client.stats().map_err(err("stats"))?;
        let ext = s.ext.ok_or("server sent no stats extension")?;
        let mut t = FrameTotals {
            misses: s.cache_misses,
            ..FrameTotals::default()
        };
        for f in &ext.frames {
            if f.name == "query" || f.name == "exec_prepared" {
                t.service_ns += f.total_ns;
            }
        }
        Ok(t)
    }
}

#[derive(Clone, Copy, Default)]
struct FrameTotals {
    service_ns: u64,
    misses: u64,
}

impl Caller for ServeClient {
    fn call(&mut self, op: Op) -> Result<(Digest, u64), String> {
        self.prepare_text(op);
        let t = Instant::now();
        let r = self.send(op)?;
        let d = digest_served(&r);
        Ok((d, ns_since(t)))
    }

    fn traced(&mut self, op: Op, rec: &mut Recorder) -> Result<Digest, String> {
        self.prepare_text(op);
        let before = self.frame_totals()?;
        let req = rec.request();
        let call = rec.open(req, "client.call", "wait");
        let r = self.send(op);
        rec.close(call);
        let r = r?;
        let result = rec.open(req, "client.typed_rows", "result");
        let d = digest_served(&r);
        rec.close(result);
        rec.close(req);
        let after = self.frame_totals()?;
        // The server's own service time for this frame, placed inside the
        // call: what is left of the call is socket, framing and waiting.
        let service = rec.place(
            call,
            None,
            "server.service",
            "wait",
            after.service_ns - before.service_ns,
        );
        let miss = after.misses > before.misses;
        rec.count(service, "cache_miss", miss as u64);
        rec.count(service, "rows", r.num_rows() as u64);
        rec.count(service, "bytes", r.raw_bytes().len() as u64);
        if let Some(replayer) = &self.replay {
            let rp = replayer.replay(&self.text)?;
            let mut last = None;
            if miss {
                last = Some(rec.place(service, last, "query.parse", "parse", rp.parse_ns));
                last = Some(rec.place(service, last, "core.prepare", "plan", rp.plan_ns));
            }
            let exec = rec.place(service, last, "exec.execute", "exec", rp.exec_ns);
            rec.count(exec, "values_scanned", rp.values_scanned);
            rec.place(
                service,
                Some(exec),
                "storage.batch_encode",
                "wire",
                rp.encode_ns,
            );
            rec.place(
                call,
                Some(service),
                "storage.batch_decode",
                "wire",
                rp.decode_ns,
            );
        }
        Ok(d)
    }
}

impl Workload for ServeAdhoc {
    const NAME: &'static str = "serve_adhoc";
    type Inputs = ServeInputs;
    type Firsts = Vec<Digest>;

    // 60 % select, 20 % adhoc, 20 % list. By latency: select [0, .6], the
    // two cheap adhoc shapes [.6, .667], list [.667, .867], the barbell
    // (whose GHD search dominates a miss) [.867, 1] — p10 and p50 fall in
    // the select class, p75 in the list class, p95 in the adhoc class.
    fn stmts(inputs: &ServeInputs) -> Vec<Stmt> {
        let cold = inputs.consts[2].len();
        let stmt = |name, class, weight, arg| Stmt {
            name,
            class,
            weight,
            arg,
        };
        vec![
            stmt("neighbours", Class::Select, 9, ArgKind::Zipf(HOT_NODES)),
            stmt(
                "anchored_triangle",
                Class::Select,
                9,
                ArgKind::Zipf(HOT_NODES),
            ),
            stmt("anchored_lollipop", Class::Adhoc, 1, ArgKind::Cycle(cold)),
            stmt("anchored_barbell", Class::Adhoc, 4, ArgKind::Cycle(cold)),
            stmt("anchored_clique", Class::Adhoc, 1, ArgKind::Cycle(cold)),
            stmt("two_hop_of_hub", Class::List, 6, ArgKind::Rotate(HUBS)),
        ]
    }

    fn generate(seed: u64, sizes: &Sizes) -> ServeInputs {
        let g = power_law(sizes.serve_nodes, sizes.serve_edges, 2.6, seed);
        let csr = g.to_csr();
        let tri = oracle::ordered_triangles(&csr);
        let cliques = oracle::ordered_four_cliques(&csr);
        let ranked = by_degree(&csr);
        let hubs: Vec<u32> = ranked[..HUBS].to_vec();
        let hot: Vec<u32> = ranked[HUBS..HUBS + HOT_NODES].to_vec();
        // Cold constants: every node that sits on a triangle (so no
        // anchored count is empty), in a seeded order.
        let mut cold: Vec<u32> = ranked[HUBS + HOT_NODES..]
            .iter()
            .copied()
            .filter(|&v| tri[v as usize] > 0)
            .collect();
        Rng::new(seed ^ 0xc01d).shuffle(&mut cold);
        let deg = |v: u32| csr.neighbors(v).len() as u64;
        let scalars = |nodes: &[u32], f: &dyn Fn(u32) -> u64| -> Vec<Digest> {
            nodes.iter().map(|&v| Digest::scalar(f(v))).collect()
        };
        let mut zs = Vec::new();
        let expected = vec![
            hot.iter()
                .map(|&v| Digest::of_flat(1, csr.neighbors(v)))
                .collect(),
            scalars(&hot, &|v| tri[v as usize]),
            scalars(&cold, &|v| tri[v as usize] * deg(v)),
            scalars(&cold, &|v| tri[v as usize] * oracle::bridged(&csr, &tri, v)),
            scalars(&cold, &|v| cliques[v as usize]),
            hubs.iter()
                .map(|&v| {
                    oracle::two_hop_of(&csr, v, &mut zs);
                    Digest::of_flat(1, &zs)
                })
                .collect(),
        ];
        let mut db = Database::with_config(Config::default().with_threads(1));
        db.load_graph("Edge", &g);
        let mut image = Vec::new();
        db.save_to(&mut image)
            .expect("an in-memory image save cannot fail");
        ServeInputs {
            image,
            consts: vec![hot.clone(), hot, cold.clone(), cold.clone(), cold, hubs],
            expected,
        }
    }

    fn setup(inputs: &ServeInputs, profile: bool) -> Result<(Self, Vec<Digest>), String> {
        let cfg = Config::default().with_threads(1).with_profile(profile);
        let db = Database::open_reader(&inputs.image[..], cfg).map_err(err("open image"))?;
        let addr = socket_addr("serve")?;
        let server = Server::bind(db, &[&addr], ServerOptions::default()).map_err(err("bind"))?;
        let mut live = ServeAdhoc {
            server: Some(server),
            clients: Vec::new(),
        };
        for _ in 0..SERVE_CLIENTS {
            let mut client = EhClient::connect(&addr).map_err(err("connect"))?;
            let mut text = String::new();
            let mut hop2 = Vec::new();
            for &hub in &inputs.consts[HOP2_STMT] {
                fill(&mut text, TWO_HOP_OF, hub);
                hop2.push(client.prepare(&text).map_err(err("prepare"))?);
            }
            let replay = if profile {
                Some(Replayer {
                    db: Database::open_reader(&inputs.image[..], cfg).map_err(err("open image"))?,
                })
            } else {
                None
            };
            live.clients.push(ServeClient {
                client,
                hop2,
                consts: inputs.consts.clone(),
                text,
                replay,
            });
        }
        // First answers: every statement once, on the first client.
        let mut firsts = Vec::new();
        for stmt in 0..SERVE_TEMPLATES.len() {
            let op = Op {
                stmt: stmt as u16,
                arg: 0,
            };
            firsts.push(live.clients[0].call(op)?.0);
        }
        Ok((live, firsts))
    }

    fn verify(inputs: &ServeInputs, firsts: &Vec<Digest>) -> Result<Expected, String> {
        verify_digests(&Self::stmts(inputs), &inputs.expected, firsts)
    }

    fn callers(&mut self) -> Vec<&mut dyn Caller> {
        self.clients
            .iter_mut()
            .map(|c| c as &mut dyn Caller)
            .collect()
    }

    fn teardown(mut self) {
        for c in self.clients.drain(..) {
            let _ = c.client.quit();
        }
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

impl ServeAdhoc {
    /// Plan-cache and socket counters of the running server.
    pub fn stats(&mut self) -> Result<ServerStats, String> {
        self.clients[0].client.stats().map_err(err("stats"))
    }

    /// Round trip of the cheapest frame: the wire and session floor.
    pub fn round_trip(&mut self) -> Result<u64, String> {
        let t = Instant::now();
        self.clients[0]
            .client
            .list_relations()
            .map_err(err("list_relations"))?;
        Ok(ns_since(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_fill_every_placeholder() {
        let mut buf = String::from("stale");
        for t in SERVE_TEMPLATES {
            fill(&mut buf, t, 4711);
            assert!(!buf.contains("{c}") && buf.contains("'4711'"), "{buf}");
        }
        fill(&mut buf, ANCHORED_LOLLIPOP, 5);
        assert_eq!(buf.matches("'5'").count(), 3);
    }
}
