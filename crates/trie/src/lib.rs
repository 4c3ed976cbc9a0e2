//! The EmptyHeaded trie storage engine (paper §2.2, Figure 2).
//!
//! All relations — inputs and outputs — are stored as multi-level *tries*:
//! each level holds the distinct values of one attribute grouped by their
//! prefix in the attribute order, stored as an [`eh_set::Set`] whose layout
//! the optimizer picks per set. Leaf-level values may carry semiring
//! *annotations* (paper "Trie Annotations"); internal values carry child
//! pointers addressed by rank.
//!
//! Construction pipeline (Figure 2): arbitrary input table → dictionary
//! encoding to dense u32 keys ([`dict`]) → sort by the chosen attribute
//! (index) order → group into nested distinct-value sets ([`builder`]).

pub mod builder;
pub mod dict;
pub mod tuple;

pub use builder::TrieBuilder;
pub use dict::Dictionary;
pub use tuple::{merge_sorted_runs, TupleBuffer};

use eh_semiring::DynValue;
use eh_set::{LayoutPolicy, Set};

/// Index of a trie node in its arena.
pub type NodeId = u32;

/// One trie node: a set of values plus, per value (by rank), either a child
/// pointer (internal levels) or an optional annotation (leaf level).
#[derive(Clone, Debug)]
pub struct TrieNode {
    /// The distinct values at this node.
    pub set: Set,
    /// Child node per value rank (internal nodes only).
    pub children: Vec<NodeId>,
    /// Annotation per value rank (leaf nodes of annotated relations only),
    /// as one raw 8-byte column: `u64`s, or `f64` bit patterns when
    /// [`Trie::float_annotations`] — so a typed join loop reads its
    /// carrier straight out of the column ([`eh_semiring::Carrier::read`])
    /// and nothing per-value says which.
    pub annots: Vec<u64>,
}

impl TrieNode {
    fn leaf(set: Set) -> TrieNode {
        TrieNode {
            set,
            children: Vec::new(),
            annots: Vec::new(),
        }
    }
}

/// A materialized trie over `arity` attributes.
#[derive(Clone, Debug)]
pub struct Trie {
    arity: usize,
    /// Arena of nodes; index 0 is the root.
    nodes: Vec<TrieNode>,
    /// Total number of tuples.
    tuple_count: usize,
    /// Whether leaf values carry annotations.
    annotated: bool,
    /// Whether the raw annotation columns hold `f64` bits (else `u64`s).
    float_annots: bool,
}

impl Trie {
    /// Build an empty trie of the given arity.
    pub fn empty(arity: usize) -> Trie {
        Trie {
            arity,
            nodes: vec![TrieNode::leaf(Set::empty())],
            tuple_count: 0,
            annotated: false,
            float_annots: false,
        }
    }

    pub(crate) fn from_arena(
        arity: usize,
        nodes: Vec<TrieNode>,
        tuple_count: usize,
        annotations: Option<bool>,
    ) -> Trie {
        Trie {
            arity,
            nodes,
            tuple_count,
            annotated: annotations.is_some(),
            float_annots: annotations == Some(true),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples stored.
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// True if no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.tuple_count == 0
    }

    /// Whether tuples carry annotations.
    pub fn is_annotated(&self) -> bool {
        self.annotated
    }

    /// Whether [`TrieNode::annots`] columns hold `f64` bit patterns
    /// (else plain `u64`s). One answer for the whole trie.
    pub fn float_annotations(&self) -> bool {
        self.float_annots
    }

    /// The root node.
    pub fn root(&self) -> &TrieNode {
        &self.nodes[0]
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &TrieNode {
        &self.nodes[id as usize]
    }

    /// Number of arena nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// `R[t]`: the set of values that extend tuple prefix `t` (paper
    /// Table 2's key trie operation). Returns `None` if `t` is not a prefix
    /// of any stored tuple.
    pub fn select(&self, prefix: &[u32]) -> Option<&Set> {
        let node = self.select_node(prefix)?;
        Some(&node.set)
    }

    /// Node reached by following `prefix` from the root.
    pub fn select_node(&self, prefix: &[u32]) -> Option<&TrieNode> {
        let mut node = &self.nodes[0];
        for &v in prefix {
            let rank = node.set.rank(v)?;
            node = &self.nodes[node.children[rank] as usize];
        }
        Some(node)
    }

    /// Annotation of the full tuple `t`, if the relation is annotated.
    pub fn annotation(&self, tuple: &[u32]) -> Option<DynValue> {
        debug_assert_eq!(tuple.len(), self.arity);
        let (last, prefix) = tuple.split_last()?;
        let node = self.select_node(prefix)?;
        let rank = node.set.rank(*last)?;
        self.annot_at(node, rank)
    }

    /// The annotation at `rank` of leaf `node`, re-typed from the raw
    /// column.
    pub fn annot_at(&self, node: &TrieNode, rank: usize) -> Option<DynValue> {
        let bits = *node.annots.get(rank)?;
        Some(DynValue::from_bits(bits, self.float_annots))
    }

    /// True if the tuple is present.
    pub fn contains(&self, tuple: &[u32]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        match tuple.split_last() {
            Some((last, prefix)) => self
                .select_node(prefix)
                .is_some_and(|n| n.set.contains(*last)),
            None => false,
        }
    }

    /// Enumerate all tuples (with annotations when present) in sorted order.
    pub fn scan(&self) -> Vec<(Vec<u32>, Option<DynValue>)> {
        let mut out = Vec::new();
        let mut prefix = Vec::with_capacity(self.arity);
        if self.arity > 0 {
            self.scan_rec(0, &mut prefix, &mut out);
        }
        out
    }

    fn scan_rec(
        &self,
        node_id: NodeId,
        prefix: &mut Vec<u32>,
        out: &mut Vec<(Vec<u32>, Option<DynValue>)>,
    ) {
        let node = &self.nodes[node_id as usize];
        let is_leaf = prefix.len() + 1 == self.arity;
        for (rank, v) in node.set.iter().enumerate() {
            prefix.push(v);
            if is_leaf {
                out.push((prefix.clone(), self.annot_at(node, rank)));
            } else {
                self.scan_rec(node.children[rank], prefix, out);
            }
            prefix.pop();
        }
    }

    /// Total heap bytes across all sets (layout diagnostics).
    pub fn set_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.set.bytes()).sum()
    }

    /// Count of sets per layout kind `(uint, bitset, block)` — used in §5.2
    /// takeaways ("41% of the neighbourhood sets chosen as bitsets").
    pub fn layout_census(&self) -> (usize, usize, usize) {
        let mut uint = 0;
        let mut bitset = 0;
        let mut block = 0;
        for n in &self.nodes {
            match n.set.kind() {
                eh_set::LayoutKind::Uint => uint += 1,
                eh_set::LayoutKind::Bitset => bitset += 1,
                eh_set::LayoutKind::Block => block += 1,
            }
        }
        (uint, bitset, block)
    }

    /// Layout census `(uint, bitset, block)` restricted to the sets at one
    /// trie level (level 0 = root set): which layouts the build-time
    /// policy picked for that level's sets.
    pub fn level_census(&self, level: usize) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        if level < self.arity {
            self.level_census_rec(0, level, &mut counts);
        }
        counts
    }

    fn level_census_rec(&self, node_id: NodeId, depth: usize, counts: &mut (usize, usize, usize)) {
        let node = &self.nodes[node_id as usize];
        if depth == 0 {
            match node.set.kind() {
                eh_set::LayoutKind::Uint => counts.0 += 1,
                eh_set::LayoutKind::Bitset => counts.1 += 1,
                eh_set::LayoutKind::Block => counts.2 += 1,
            }
        } else {
            for &child in &node.children {
                self.level_census_rec(child, depth - 1, counts);
            }
        }
    }

    /// Build a trie of `arity` columns from rows (convenience over
    /// [`TrieBuilder`]).
    pub fn from_rows<R: AsRef<[u32]>>(rows: &[R], arity: usize, policy: LayoutPolicy) -> Trie {
        TrieBuilder::new(arity).policy(policy).build(rows)
    }

    /// Build a trie from a flat columnar buffer (convenience over
    /// [`TrieBuilder::build_buffer`]).
    pub fn from_buffer(tuples: &TupleBuffer, policy: LayoutPolicy) -> Trie {
        TrieBuilder::new(tuples.arity())
            .policy(policy)
            .build_buffer(tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_rows() -> Vec<Vec<u32>> {
        // The paper's Figure 2 relation after dictionary encoding:
        // (0,4) (1,0) (0,3) (2,1)
        vec![vec![0, 4], vec![1, 0], vec![0, 3], vec![2, 1]]
    }

    #[test]
    fn build_and_select() {
        let t = Trie::from_rows(&edge_rows(), 2, LayoutPolicy::SetLevel);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.tuple_count(), 4);
        assert_eq!(t.root().set.to_vec(), vec![0, 1, 2]);
        assert_eq!(t.select(&[0]).unwrap().to_vec(), vec![3, 4]);
        assert_eq!(t.select(&[1]).unwrap().to_vec(), vec![0]);
        assert_eq!(t.select(&[2]).unwrap().to_vec(), vec![1]);
        assert!(t.select(&[9]).is_none());
    }

    #[test]
    fn contains_tuples() {
        let t = Trie::from_rows(&edge_rows(), 2, LayoutPolicy::SetLevel);
        assert!(t.contains(&[0, 3]));
        assert!(t.contains(&[2, 1]));
        assert!(!t.contains(&[0, 5]));
        assert!(!t.contains(&[3, 0]));
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let t = Trie::from_rows(&edge_rows(), 2, LayoutPolicy::SetLevel);
        let tuples: Vec<Vec<u32>> = t.scan().into_iter().map(|(t, _)| t).collect();
        assert_eq!(tuples, vec![vec![0, 3], vec![0, 4], vec![1, 0], vec![2, 1]]);
    }

    #[test]
    fn empty_trie() {
        let t = Trie::empty(2);
        assert_eq!(t.tuple_count(), 0);
        assert!(t.scan().is_empty());
        assert!(!t.contains(&[0, 0]));
        assert!(t.root().set.is_empty());
    }

    #[test]
    fn duplicate_rows_collapse() {
        let rows = vec![vec![1, 2], vec![1, 2], vec![1, 3]];
        let t = Trie::from_rows(&rows, 2, LayoutPolicy::SetLevel);
        assert_eq!(t.tuple_count(), 2);
        assert_eq!(t.select(&[1]).unwrap().to_vec(), vec![2, 3]);
    }

    #[test]
    fn unary_relation() {
        let rows = vec![vec![5], vec![1], vec![5], vec![9]];
        let t = Trie::from_rows(&rows, 1, LayoutPolicy::SetLevel);
        assert_eq!(t.tuple_count(), 3);
        assert_eq!(t.root().set.to_vec(), vec![1, 5, 9]);
    }

    #[test]
    fn ternary_relation() {
        let rows = vec![vec![1, 2, 3], vec![1, 2, 4], vec![1, 5, 6], vec![2, 0, 0]];
        let t = Trie::from_rows(&rows, 3, LayoutPolicy::SetLevel);
        assert_eq!(t.tuple_count(), 4);
        assert_eq!(t.select(&[1]).unwrap().to_vec(), vec![2, 5]);
        assert_eq!(t.select(&[1, 2]).unwrap().to_vec(), vec![3, 4]);
        assert_eq!(t.select(&[2, 0]).unwrap().to_vec(), vec![0]);
    }

    #[test]
    fn level_census_splits_by_depth() {
        let rows: Vec<Vec<u32>> = (0..600u32).map(|i| vec![0, i]).collect();
        let t = Trie::from_rows(&rows, 2, LayoutPolicy::SetLevel);
        assert_eq!(t.level_census(0), (1, 0, 0), "root {{0}} is a tiny uint");
        assert_eq!(t.level_census(1), (0, 1, 0), "dense leaf is a bitset");
        assert_eq!(t.level_census(2), (0, 0, 0), "past the last level");
    }

    #[test]
    fn layout_census_counts_everything() {
        let rows: Vec<Vec<u32>> = (0..600u32).map(|i| vec![0, i]).collect();
        let t = Trie::from_rows(&rows, 2, LayoutPolicy::SetLevel);
        let (uint, bitset, block) = t.layout_census();
        // root {0} is uint (tiny), the dense child set 0..600 is a bitset.
        assert_eq!(uint, 1);
        assert_eq!(bitset, 1);
        assert_eq!(block, 0);
        assert!(t.set_bytes() > 0);
    }
}
