//! Benchmark-side spans: recorded around each call into a layer, kept in
//! memory, written out as JSON lines when the run ends.
//!
//! Spans inside the program are a later change; these are taken from
//! outside, by timing calls into public functions. Where the program
//! reports a duration itself (a server frame's service time, a shard's
//! `elapsed_ns`) the span is *placed* inside its parent with that
//! duration, starting where the parent starts.

use crate::json::Json;
use std::time::Instant;

/// The layer a span's self time is charged to; also the `share.*` names.
pub const LAYERS: [&str; 8] = [
    "parse",
    "plan",
    "exec",
    "result",
    "wire",
    "wait",
    "merge",
    "unaccounted",
];

/// Layer of a span that ran beside a slower sibling (a scatter's faster
/// shards): recorded, but not on the request's path, so in no share.
pub const SHADOW: &str = "shadow";

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 for a root (`request`) span.
    pub parent: u32,
    /// Shared by every span of one request.
    pub request: u32,
    pub name: &'static str,
    /// One of [`LAYERS`], or [`SHADOW`].
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    requests: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(4096),
            requests: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span for a new request; its self time is whatever no
    /// child accounts for.
    pub fn request(&mut self) -> u32 {
        self.requests += 1;
        let request = self.requests;
        self.push(0, request, "request", "unaccounted", self.now(), 0)
    }

    /// Open a child span starting now.
    pub fn open(&mut self, parent: u32, name: &'static str, layer: &'static str) -> u32 {
        let request = self.spans[parent as usize - 1].request;
        self.push(parent, request, name, layer, self.now(), 0)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Place a span whose duration the program reported (or a replay
    /// measured) at the start of `parent`, after any spans already placed
    /// there by `after`, clipped to the parent's end.
    pub fn place(
        &mut self,
        parent: u32,
        after: Option<u32>,
        name: &'static str,
        layer: &'static str,
        duration_ns: u64,
    ) -> u32 {
        let p = &self.spans[parent as usize - 1];
        let (request, limit) = (p.request, p.end_ns);
        let start = match after {
            Some(prev) => self.spans[prev as usize - 1].end_ns,
            None => p.start_ns,
        };
        let end = (start + duration_ns).min(limit.max(start));
        self.push(parent, request, name, layer, start, end)
    }

    pub fn count(&mut self, id: u32, key: &'static str, value: u64) {
        self.spans[id as usize - 1].counts.push((key, value));
    }

    fn push(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            layer,
            start_ns,
            end_ns,
            counts: Vec::new(),
        });
        id
    }

    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let counts = s
                .counts
                .iter()
                .map(|&(k, v)| (k, Json::Num(v as f64)))
                .collect();
            let line = Json::obj(vec![
                ("workload", Json::str(workload)),
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("request", Json::Num(s.request as f64)),
                ("name", Json::str(s.name)),
                ("layer", Json::str(s.layer)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("counts", Json::obj(counts)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover. Children that run side by side (a scatter's
/// shards) cover their union once, so the blocking step is the slowest
/// child, not the sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let lo = s.start_ns.clamp(p.start_ns, p.end_ns);
            let hi = s.end_ns.clamp(p.start_ns, p.end_ns);
            if hi > lo {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Share of all request time spent as self time in each layer, in
/// percent, in [`LAYERS`] order. The shares sum to 100.
pub fn layer_shares(spans: &[Span]) -> [f64; LAYERS.len()] {
    let own = self_times(spans);
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(Span::duration)
        .sum();
    let mut shares = [0.0; LAYERS.len()];
    if total == 0 {
        return shares;
    }
    for (s, t) in spans.iter().zip(own).filter(|(s, _)| s.layer != SHADOW) {
        let slot = LAYERS
            .iter()
            .position(|l| *l == s.layer)
            .expect("span layers come from LAYERS");
        shares[slot] += t as f64 * 100.0 / total as f64;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(1, 0, "unaccounted", 0, 100),
            span(2, 1, "parse", 10, 30),
            span(3, 1, "exec", 30, 90),
            span(4, 3, "result", 80, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let shares = layer_shares(&spans);
        assert_eq!(shares[0], 20.0); // parse
        assert_eq!(shares[2], 50.0); // exec
        assert_eq!(shares[3], 10.0); // result
        assert_eq!(shares[7], 20.0); // unaccounted
        assert!((shares.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_children_cover_their_union_so_the_slowest_blocks() {
        // Two shards side by side under one scatter: 0..70 and 0..40.
        let spans = vec![
            span(1, 0, "merge", 0, 100),
            span(2, 1, "exec", 0, 70),
            span(3, 1, SHADOW, 0, 40),
        ];
        assert_eq!(self_times(&spans)[0], 30, "100 - max(70, 40), not - 110");
        let shares = layer_shares(&spans);
        assert_eq!(
            (shares[2], shares[6]),
            (70.0, 30.0),
            "the faster shard is in no share"
        );
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(1, 0, "unaccounted", 10, 50), span(2, 1, "exec", 0, 80)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn placed_spans_sit_inside_the_parent_and_serialise() {
        let mut r = Recorder::new();
        let req = r.request();
        r.spans[0].start_ns = 1000;
        r.spans[0].end_ns = 2000;
        let a = r.place(req, None, "a", "parse", 300);
        let b = r.place(req, Some(a), "b", "exec", 900);
        assert_eq!((r.spans[1].start_ns, r.spans[1].end_ns), (1000, 1300));
        assert_eq!(
            (r.spans[2].start_ns, r.spans[2].end_ns),
            (1300, 2000),
            "clipped"
        );
        r.count(b, "rows", 7);
        let text = r.to_jsonl("w");
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = crate::json::parse(line).expect("every line is JSON");
            assert_eq!(v.get("workload").and_then(Json::as_str), Some("w"));
            assert_eq!(v.get("request").and_then(Json::as_f64), Some(1.0));
        }
        assert_eq!(r.spans[0].duration(), 1000);
    }
}
