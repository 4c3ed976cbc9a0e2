//! GHD data structures, validity checking, and brute-force enumeration
//! (paper §3.1–3.2).
//!
//! Finding the minimum-width GHD is NP-hard, but the number of relations
//! and attributes in graph queries is tiny ("three for triangle counting"),
//! so — exactly like the paper — we brute-force the search: enumerate
//! candidate root bags as subsets of edges, recurse on the connected
//! components of the remainder, and keep candidate subtrees bounded.

use crate::hypergraph::Hypergraph;
use crate::lp::agm_exponent;

/// A node of a GHD: `chi` (returned attributes) and `lambda` (joined
/// relations), as in paper Definition 1 and Figure 3.
#[derive(Clone, Debug, PartialEq)]
pub struct GhdNode {
    /// Sorted vertex ids retained at this node (χ).
    pub chi: Vec<usize>,
    /// Sorted edge ids joined at this node (λ).
    pub lambda: Vec<usize>,
    /// Child subtrees.
    pub children: Vec<GhdNode>,
    /// Fractional width of this node: AGM exponent of χ covered by λ.
    pub width: f64,
}

impl GhdNode {
    /// Count nodes in this subtree.
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(GhdNode::count).sum::<usize>()
    }

    /// Max node width in this subtree.
    pub fn max_width(&self) -> f64 {
        self.children
            .iter()
            .map(GhdNode::max_width)
            .fold(self.width, f64::max)
    }

    /// Visit nodes pre-order.
    pub fn preorder<'a>(&'a self, visit: &mut impl FnMut(&'a GhdNode)) {
        visit(self);
        for c in &self.children {
            c.preorder(visit);
        }
    }
}

/// A complete decomposition with its (fractional) width.
#[derive(Clone, Debug, PartialEq)]
pub struct Ghd {
    /// Root node.
    pub root: GhdNode,
    /// Maximum node width (the decomposition's fractional width).
    pub width: f64,
}

impl Ghd {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.root.count()
    }

    /// Check the three GHD properties (paper Definition 1) against `hg`.
    pub fn validate(&self, hg: &Hypergraph) -> Result<(), String> {
        // Property 1: every edge appears in some node with e ⊆ χ(v) and
        // e ∈ λ(v).
        for (eid, e) in hg.edges.iter().enumerate() {
            let mut found = false;
            self.root.preorder(&mut |n| {
                if n.lambda.contains(&eid) && e.vars.iter().all(|v| n.chi.contains(v)) {
                    found = true;
                }
            });
            if !found {
                return Err(format!("edge {eid} not covered by any node"));
            }
        }
        // Property 2: running intersection — nodes containing each vertex
        // form a connected subtree.
        for v in 0..hg.num_vars() {
            if !connected_subtree(&self.root, v) {
                return Err(format!("vertex {v} violates running intersection"));
            }
        }
        // Property 3: χ(v) ⊆ ∪λ(v).
        let mut ok = true;
        self.root.preorder(&mut |n| {
            let lam_vars = hg.vars_of_edges(&n.lambda);
            if !n.chi.iter().all(|v| lam_vars.contains(v)) {
                ok = false;
            }
        });
        if !ok {
            return Err("χ not covered by λ at some node".into());
        }
        Ok(())
    }
}

/// Check that the nodes whose χ contains `v` form a connected subtree.
fn connected_subtree(root: &GhdNode, v: usize) -> bool {
    // Count connected runs of v-containing nodes in the tree: there must be
    // at most one maximal connected region. A region "starts" at a
    // v-containing node whose parent doesn't contain v.
    fn starts(node: &GhdNode, parent_has: bool, v: usize, count: &mut usize) {
        let has = node.chi.contains(&v);
        if has && !parent_has {
            *count += 1;
        }
        for c in &node.children {
            starts(c, has, v, count);
        }
    }
    let mut count = 0;
    starts(root, false, v, &mut count);
    count <= 1
}

/// Cap on candidate subtrees kept per recursion level.
const CANDIDATE_CAP: usize = 64;

/// Seed subsets one enumeration may examine, summed over every level of
/// the recursion. The search is exponential in the atoms of a component;
/// this bounds an ad-hoc query's planning time whatever its size, far
/// above what the paper's queries (≤ 8 atoms) need.
const SEED_BUDGET: usize = 1 << 15;

/// Enumerate candidate GHDs for the hypergraph, including the single-node
/// decomposition. Results are deduplicated structurally and capped; when
/// the seed budget runs out first the result may be empty, and the
/// caller falls back to [`single_node_ghd`], which is always valid.
pub fn enumerate_ghds(hg: &Hypergraph) -> Vec<Ghd> {
    let all_edges: Vec<usize> = (0..hg.num_edges()).collect();
    if all_edges.is_empty() {
        return Vec::new();
    }
    let mut budget = SEED_BUDGET;
    let subtrees = decompose(hg, &all_edges, &[], &mut budget);
    subtrees
        .into_iter()
        .map(|root| {
            let width = root.max_width();
            Ghd { root, width }
        })
        .collect()
}

/// The single-node GHD: all relations joined by the generic worst-case
/// optimal algorithm with no decomposition — LogicBlox's plan and the
/// paper's `-GHD` ablation.
pub fn single_node_ghd(hg: &Hypergraph) -> Ghd {
    let lambda: Vec<usize> = (0..hg.num_edges()).collect();
    let chi = hg.vars_of_edges(&lambda);
    let edge_vars: Vec<Vec<usize>> = hg.edges.iter().map(|e| e.vars.clone()).collect();
    let width = agm_exponent(&chi, &edge_vars).unwrap_or(f64::INFINITY);
    Ghd {
        root: GhdNode {
            chi,
            lambda,
            children: Vec::new(),
            width,
        },
        width,
    }
}

/// Recursively decompose `edges`; every candidate root's χ must contain
/// `interface` (the variables shared with the parent — this preserves the
/// running intersection property). Each seed examined spends one unit of
/// `budget`; an exhausted budget ends every level's search.
fn decompose(
    hg: &Hypergraph,
    edges: &[usize],
    interface: &[usize],
    budget: &mut usize,
) -> Vec<GhdNode> {
    // Seeds are drawn from the first 64 edges (a `u64` mask); the budget
    // ends the search long before a mask runs out.
    let n = edges.len().min(64);
    let mut out: Vec<GhdNode> = Vec::new();
    let mut seen_chi: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
    // Enumerate non-empty subsets of `edges` as the seed of the root bag.
    for mask in 1..=u64::MAX >> (64 - n) {
        if out.len() >= CANDIDATE_CAP || *budget == 0 {
            break;
        }
        *budget -= 1;
        let seed: Vec<usize> = (0..n)
            .filter(|&i| mask >> i & 1 != 0)
            .map(|i| edges[i])
            .collect();
        let chi = hg.vars_of_edges(&seed);
        if !interface.iter().all(|v| chi.contains(v)) {
            continue;
        }
        if !seen_chi.insert(chi.clone()) {
            continue;
        }
        // λ: every edge whose variables all fall inside χ (they are all
        // materialized/checked at this node).
        let lambda: Vec<usize> = edges
            .iter()
            .copied()
            .filter(|&e| hg.edges[e].vars.iter().all(|v| chi.contains(v)))
            .collect();
        let remaining: Vec<usize> = edges
            .iter()
            .copied()
            .filter(|e| !lambda.contains(e))
            .collect();
        let edge_vars: Vec<Vec<usize>> = lambda.iter().map(|&e| hg.edges[e].vars.clone()).collect();
        let Some(width) = agm_exponent(&chi, &edge_vars) else {
            continue;
        };
        if remaining.is_empty() {
            out.push(GhdNode {
                chi,
                lambda,
                children: Vec::new(),
                width,
            });
            continue;
        }
        // Split the remainder into components separated by χ and recurse.
        let comps = hg.components(&remaining, &chi);
        let mut per_comp: Vec<Vec<GhdNode>> = Vec::with_capacity(comps.len());
        let mut dead = false;
        for comp in &comps {
            let comp_vars = hg.vars_of_edges(comp);
            let iface: Vec<usize> = comp_vars
                .iter()
                .copied()
                .filter(|v| chi.contains(v))
                .collect();
            let cands = decompose(hg, comp, &iface, budget);
            if cands.is_empty() {
                dead = true;
                break;
            }
            per_comp.push(cands);
        }
        if dead {
            continue;
        }
        // Cross product of per-component candidates, capped.
        let mut combos: Vec<Vec<GhdNode>> = vec![Vec::new()];
        for cands in &per_comp {
            let mut next = Vec::new();
            for combo in &combos {
                for cand in cands {
                    if next.len() >= CANDIDATE_CAP {
                        break;
                    }
                    let mut c = combo.clone();
                    c.push(cand.clone());
                    next.push(c);
                }
            }
            combos = next;
        }
        for children in combos {
            if out.len() >= CANDIDATE_CAP * 4 {
                break;
            }
            out.push(GhdNode {
                chi: chi.clone(),
                lambda: lambda.clone(),
                children,
                width,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_query::parse_rule;

    fn hg(q: &str) -> Hypergraph {
        Hypergraph::from_rule(&parse_rule(q).unwrap())
    }

    #[test]
    fn triangle_enumeration_includes_single_node() {
        let h = hg("T(x,y,z) :- R(x,y),S(y,z),U(x,z).");
        let ghds = enumerate_ghds(&h);
        assert!(!ghds.is_empty());
        let best = ghds
            .iter()
            .min_by(|a, b| a.width.partial_cmp(&b.width).unwrap())
            .unwrap();
        assert!((best.width - 1.5).abs() < 1e-6);
        for g in &ghds {
            g.validate(&h).unwrap();
        }
    }

    #[test]
    fn barbell_best_width_is_three_halves() {
        let h = hg("B(x,y,z,a,b,c) :- R(x,y),S(y,z),T(x,z),U(x,a),R2(a,b),S2(b,c),T2(a,c).");
        let ghds = enumerate_ghds(&h);
        let best = ghds
            .iter()
            .min_by(|a, b| a.width.partial_cmp(&b.width).unwrap())
            .unwrap();
        assert!(
            (best.width - 1.5).abs() < 1e-6,
            "barbell fhw = 3/2, got {}",
            best.width
        );
        assert!(best.node_count() >= 3);
        best.validate(&h).unwrap();
    }

    #[test]
    fn single_node_widths() {
        let h = hg("B(x,y,z,a,b,c) :- R(x,y),S(y,z),T(x,z),U(x,a),R2(a,b),S2(b,c),T2(a,c).");
        let g = single_node_ghd(&h);
        assert_eq!(g.node_count(), 1);
        assert!((g.width - 3.0).abs() < 1e-6);
        g.validate(&h).unwrap();
    }

    #[test]
    fn lollipop_best_width() {
        // Lollipop: triangle + pendant edge; fhw = 3/2.
        let h = hg("L(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w).");
        let ghds = enumerate_ghds(&h);
        let best = ghds
            .iter()
            .min_by(|a, b| a.width.partial_cmp(&b.width).unwrap())
            .unwrap();
        assert!((best.width - 1.5).abs() < 1e-6, "got {}", best.width);
        best.validate(&h).unwrap();
    }

    #[test]
    fn path_query_is_acyclic_width_one() {
        let h = hg("P(x,y,z) :- R(x,y),S(y,z).");
        let ghds = enumerate_ghds(&h);
        let best = ghds
            .iter()
            .min_by(|a, b| a.width.partial_cmp(&b.width).unwrap())
            .unwrap();
        assert!((best.width - 1.0).abs() < 1e-6);
        best.validate(&h).unwrap();
    }

    #[test]
    fn validate_catches_bad_ghd() {
        let h = hg("T(x,y,z) :- R(x,y),S(y,z),U(x,z).");
        // A bogus GHD that drops edge 2 entirely.
        let bad = Ghd {
            root: GhdNode {
                chi: vec![0, 1, 2],
                lambda: vec![0, 1],
                children: Vec::new(),
                width: 2.0,
            },
            width: 2.0,
        };
        assert!(bad.validate(&h).is_err());
    }

    #[test]
    fn four_clique_single_node_wins() {
        let h = hg("K(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w),V(y,w),Q(z,w).");
        let ghds = enumerate_ghds(&h);
        let best = ghds
            .iter()
            .min_by(|a, b| a.width.partial_cmp(&b.width).unwrap())
            .unwrap();
        assert!(
            (best.width - 2.0).abs() < 1e-6,
            "fhw(K4)=2, got {}",
            best.width
        );
    }
}
