//! Query hypergraphs (paper §2.1).
//!
//! A rule body maps directly to a hypergraph: one vertex per variable, one
//! hyperedge per body atom. Constants in atom positions become equality
//! selections recorded on the edge (they are not vertices).

use eh_query::{BodyAtom, Rule, Term};

/// A hyperedge: one body atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hyperedge {
    /// Index of the atom in the rule body.
    pub atom_index: usize,
    /// Relation name.
    pub relation: String,
    /// Vertex ids of the atom's variables, in positional order.
    pub vars: Vec<usize>,
    /// Equality selections `(position_in_atom, slot)`: the constant is
    /// the rule's slot `$k`, so equal slots mean equal constants.
    pub selections: Vec<(usize, usize)>,
}

impl Hyperedge {
    /// True if this atom carries at least one constant.
    pub fn has_selection(&self) -> bool {
        !self.selections.is_empty()
    }
}

/// The hypergraph of a rule body.
#[derive(Clone, Debug, Default)]
pub struct Hypergraph {
    /// Variable names; index = vertex id.
    pub vars: Vec<String>,
    /// Hyperedges, one per body atom.
    pub edges: Vec<Hyperedge>,
}

impl Hypergraph {
    /// Build from a rule body.
    pub fn from_rule(rule: &Rule) -> Hypergraph {
        let mut hg = Hypergraph::default();
        for (i, atom) in rule.body.iter().enumerate() {
            hg.add_atom(i, atom);
        }
        hg
    }

    fn add_atom(&mut self, atom_index: usize, atom: &BodyAtom) {
        let mut vars = Vec::new();
        let mut selections = Vec::new();
        for (pos, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Var(name) => vars.push(self.vertex_id(name)),
                Term::Const(k) => selections.push((pos, *k)),
            }
        }
        self.edges.push(Hyperedge {
            atom_index,
            relation: atom.relation.clone(),
            vars,
            selections,
        });
    }

    /// Vertex id for a variable name, interning on first sight.
    pub fn vertex_id(&mut self, name: &str) -> usize {
        if let Some(i) = self.vars.iter().position(|v| v == name) {
            return i;
        }
        self.vars.push(name.to_string());
        self.vars.len() - 1
    }

    /// Vertex id for an existing variable.
    pub fn lookup(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// Number of vertices.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of hyperedges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Vertex ids covered by a set of edges.
    pub fn vars_of_edges(&self, edge_ids: &[usize]) -> Vec<usize> {
        let mut seen = vec![false; self.vars.len()];
        let mut out = Vec::new();
        for &e in edge_ids {
            for &v in &self.edges[e].vars {
                if !seen[v] {
                    seen[v] = true;
                    out.push(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Vertices with an equality selection anywhere in the query — their
    /// coverage constraint is dropped in step 1 of the selection-aware GHD
    /// search (paper Appendix B.1.1). A variable is "selected" if it shares
    /// an atom with a constant... in EmptyHeaded's queries the selection
    /// constant binds a *position*, so the selected variables are the other
    /// variables of atoms carrying constants.
    pub fn selected_vars(&self) -> Vec<usize> {
        let mut seen = vec![false; self.vars.len()];
        for e in &self.edges {
            if e.has_selection() {
                for &v in &e.vars {
                    seen[v] = true;
                }
            }
        }
        (0..self.vars.len()).filter(|&v| seen[v]).collect()
    }

    /// Selection-carrying edges outside `lambda` whose variables all lie
    /// in `chi`. A node with that χ and λ filters on a copy of each, so
    /// that every subtree covering a selection applies it as early as
    /// possible (paper App. B.1 step 2).
    pub fn selection_copies<'a>(
        &'a self,
        chi: &'a [usize],
        lambda: &'a [usize],
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.edges.len()).filter(move |e| {
            let edge = &self.edges[*e];
            edge.has_selection() && !lambda.contains(e) && edge.vars.iter().all(|v| chi.contains(v))
        })
    }

    /// Connected components of the given edges, where two edges connect if
    /// they share a vertex *not* in `separator`. Used by the GHD
    /// decomposition search.
    pub fn components(&self, edge_ids: &[usize], separator: &[usize]) -> Vec<Vec<usize>> {
        let sep: std::collections::HashSet<usize> = separator.iter().copied().collect();
        let n = edge_ids.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
                r
            } else {
                x
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                let ei = &self.edges[edge_ids[i]];
                let ej = &self.edges[edge_ids[j]];
                let shares = ei
                    .vars
                    .iter()
                    .any(|v| !sep.contains(v) && ej.vars.contains(v));
                if shares {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(edge_ids[i]);
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        for g in &mut out {
            g.sort_unstable();
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_query::parse_rule;

    #[test]
    fn triangle_hypergraph() {
        let rule = parse_rule("T(x,y,z) :- R(x,y),S(y,z),U(x,z).").unwrap();
        let hg = Hypergraph::from_rule(&rule);
        assert_eq!(hg.num_vars(), 3);
        assert_eq!(hg.num_edges(), 3);
        assert_eq!(hg.vars, vec!["x", "y", "z"]);
        assert_eq!(hg.edges[0].vars, vec![0, 1]);
        assert_eq!(hg.edges[1].vars, vec![1, 2]);
        assert_eq!(hg.edges[2].vars, vec![0, 2]);
        assert_eq!(hg.vars_of_edges(&[0, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn selections_recorded() {
        let rule = parse_rule("Q(x) :- Edge('start',x),P(x,y).").unwrap();
        let hg = Hypergraph::from_rule(&rule);
        assert_eq!(hg.edges[0].vars.len(), 1);
        assert_eq!(hg.edges[0].selections, vec![(0, 0)]);
        assert!(hg.edges[0].has_selection());
        assert!(!hg.edges[1].has_selection());
        // x shares the selected atom.
        assert_eq!(hg.selected_vars(), vec![hg.lookup("x").unwrap()]);
    }

    #[test]
    fn components_split_on_separator() {
        // Barbell: two triangles joined by U(x,a).
        let rule =
            parse_rule("B(x,y,z,a,b,c) :- R(x,y),S(y,z),T(x,z),U(x,a),R2(a,b),S2(b,c),T2(a,c).")
                .unwrap();
        let hg = Hypergraph::from_rule(&rule);
        let x = hg.lookup("x").unwrap();
        let a = hg.lookup("a").unwrap();
        // Separating on {x,a} splits the remaining edges into the two
        // triangle clusters.
        let rest: Vec<usize> = (0..hg.num_edges()).filter(|&e| e != 3).collect();
        let comps = hg.components(&rest, &[x, a]);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![4, 5, 6]);
        // Without the separator everything is connected.
        let all: Vec<usize> = (0..hg.num_edges()).collect();
        assert_eq!(hg.components(&all, &[]).len(), 1);
    }
}
