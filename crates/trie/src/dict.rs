//! Dictionary encoding (paper §2.2 "Dictionary Encoding").
//!
//! EmptyHeaded tries hold 32-bit values; arbitrary input keys (strings,
//! 64-bit ids...) are mapped to dense u32 ids. The *order* of id
//! assignment is the node ordering, which affects set density and —
//! for symmetric queries with pruning — performance (paper App. A.1);
//! [`Dictionary::remap`] applies a permutation produced by the ordering
//! schemes in `eh-graph`.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// A bidirectional mapping between original keys and dense u32 ids.
#[derive(Clone, Debug, Default)]
pub struct Dictionary<K: Eq + Hash + Clone> {
    to_id: HashMap<K, u32>,
    to_key: Vec<K>,
}

impl<K: Eq + Hash + Clone> Dictionary<K> {
    /// Empty dictionary.
    pub fn new() -> Dictionary<K> {
        Dictionary {
            to_id: HashMap::new(),
            to_key: Vec::new(),
        }
    }

    /// Empty dictionary pre-sized for `keys` distinct keys.
    pub fn with_capacity(keys: usize) -> Dictionary<K> {
        Dictionary {
            to_id: HashMap::with_capacity(keys),
            to_key: Vec::with_capacity(keys),
        }
    }

    /// Id for `key`, allocating the next dense id on first sight.
    /// One hash lookup either way (entry API).
    pub fn encode(&mut self, key: K) -> u32 {
        let next = self.to_key.len() as u32;
        match self.to_id.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.to_key.push(e.key().clone());
                e.insert(next);
                next
            }
        }
    }

    /// Id for a borrowed key, allocating on first sight. Hits cost one
    /// hash lookup and no clone/allocation — the bulk `&str` ingest path,
    /// where almost every key after the first million is a hit.
    pub fn encode_ref<Q>(&mut self, key: &Q) -> u32
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(&id) = self.to_id.get(key) {
            return id;
        }
        let id = self.to_key.len() as u32;
        let owned = key.to_owned();
        self.to_id.insert(owned.clone(), id);
        self.to_key.push(owned);
        id
    }

    /// Id for `key` if already present.
    pub fn get(&self, key: &K) -> Option<u32> {
        self.to_id.get(key).copied()
    }

    /// Id for a borrowed key if already present (no clone/allocation —
    /// the read-side twin of [`Dictionary::encode_ref`]).
    pub fn get_ref<Q>(&self, key: &Q) -> Option<u32>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.to_id.get(key).copied()
    }

    /// Original key for `id`.
    pub fn decode(&self, id: u32) -> Option<&K> {
        self.to_key.get(id as usize)
    }

    /// All keys in id order: `keys()[id]` is the key for `id`. Lets
    /// serializers iterate the whole dictionary without a fallible
    /// per-id `decode` (ids are dense by construction).
    pub fn keys(&self) -> &[K] {
        &self.to_key
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.to_key.len()
    }

    /// True when no keys have been encoded.
    pub fn is_empty(&self) -> bool {
        self.to_key.is_empty()
    }

    /// Apply a node-ordering permutation: `perm[old_id] = new_id`.
    /// After remapping, `decode(new_id)` returns the key that previously
    /// decoded from `old_id`. Panics if `perm` is not a permutation of
    /// `0..len`.
    pub fn remap(&mut self, perm: &[u32]) {
        assert_eq!(perm.len(), self.to_key.len(), "permutation length");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(
                (p as usize) < perm.len() && !seen[p as usize],
                "not a permutation"
            );
            seen[p as usize] = true;
        }
        let mut new_keys: Vec<Option<K>> = vec![None; perm.len()];
        for (old, &new) in perm.iter().enumerate() {
            new_keys[new as usize] = Some(self.to_key[old].clone());
        }
        self.to_key = new_keys.into_iter().map(Option::unwrap).collect();
        self.to_id = self
            .to_key
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_assignment_in_first_seen_order() {
        let mut d = Dictionary::new();
        // Paper Figure 2 ID map: 10→0, 20→1, 40→2, 300→3, 543→4.
        for k in [10u64, 20, 10, 40, 300, 543] {
            d.encode(k);
        }
        assert_eq!(d.len(), 5);
        assert_eq!(d.get(&10), Some(0));
        assert_eq!(d.get(&20), Some(1));
        assert_eq!(d.get(&40), Some(2));
        assert_eq!(d.get(&300), Some(3));
        assert_eq!(d.get(&543), Some(4));
        assert_eq!(d.decode(3), Some(&300));
        assert_eq!(d.decode(9), None);
    }

    #[test]
    fn strings_work() {
        let mut d = Dictionary::new();
        let a = d.encode("alice".to_string());
        let b = d.encode("bob".to_string());
        assert_eq!(d.encode("alice".to_string()), a);
        assert_ne!(a, b);
        assert_eq!(d.decode(b), Some(&"bob".to_string()));
    }

    #[test]
    fn remap_permutes_ids() {
        let mut d = Dictionary::new();
        for k in ["x", "y", "z"] {
            d.encode(k.to_string());
        }
        // x:0→2, y:1→0, z:2→1
        d.remap(&[2, 0, 1]);
        assert_eq!(d.get(&"x".to_string()), Some(2));
        assert_eq!(d.get(&"y".to_string()), Some(0));
        assert_eq!(d.get(&"z".to_string()), Some(1));
        assert_eq!(d.decode(0), Some(&"y".to_string()));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn remap_rejects_non_permutation() {
        let mut d = Dictionary::new();
        d.encode(1u64);
        d.encode(2u64);
        d.remap(&[0, 0]);
    }

    #[test]
    fn encode_ref_matches_encode() {
        let mut d = Dictionary::new();
        let a = d.encode_ref("alice");
        assert_eq!(d.encode("alice".to_string()), a);
        assert_eq!(d.encode_ref("alice"), a);
        let b = d.encode_ref("bob");
        assert_ne!(a, b);
        assert_eq!(d.decode(b), Some(&"bob".to_string()));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let d: Dictionary<String> = Dictionary::with_capacity(64);
        assert!(d.is_empty());
    }

    #[test]
    fn empty() {
        let d: Dictionary<u64> = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
