//! The shared prepared-plan cache.
//!
//! EmptyHeaded's whole design bet (paper §3) is that a query is
//! compiled once — parse → GHD decomposition → attribute-ordered
//! physical plan — and the compiled artifact is cheap to run. A server
//! pays compilation once *per query shape*: [`PlanCache`] is an LRU map
//! from a program's shape ([`eh_query::Program::shape`]: its canonical
//! print with each distinct body constant lifted into a slot `$k`) to
//! the compiled template, `Arc`-shared by concurrent readers. No plan
//! depends on a constant's value, so `N(y) :- E('7',y).` and
//! `N(y) :- E('8',y).` share one, each bound to its own value
//! ([`eh_core::Prepared::bind`]); equal constants share a slot, so
//! `E('7',x),E('7',y)` and `E('7',x),E('8',y)` are two shapes. The
//! cache only maps and counts: [`crate::Shared::cached_plan`] parses,
//! binds and compiles, holding the mutex around `lookup` and `insert`.
//!
//! Correctness is epoch-based: every catalog mutation
//! (`register` / `drop_relation` / `load_*`) bumps
//! [`eh_core::Database::epoch`], and every cache operation carries the
//! epoch of the database it is about to run against. A mismatch
//! discards the whole cache, so no stale plan ever runs against a
//! changed catalog (`stale_plans_never_survive_a_schema_change`).

use eh_core::Prepared;
use std::collections::HashMap;
use std::sync::Arc;

/// An LRU cache of compiled plan templates, keyed by the query's shape
/// and guarded by the catalog epoch of the database they were compiled
/// against.
pub struct PlanCache {
    capacity: usize,
    /// Epoch the cached plans were compiled against.
    epoch: u64,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    entries: HashMap<String, Entry>,
}

struct Entry {
    plan: Arc<Prepared>,
    last_used: u64,
}

impl PlanCache {
    /// Cache holding at most `capacity` plans (floored at 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            epoch: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
            entries: HashMap::new(),
        }
    }

    /// Discard everything if `epoch` differs from the epoch the cached
    /// plans were compiled against. Every lookup and insert does this;
    /// the `Stats` frame calls it directly so reported entry and
    /// invalidation counts reflect the epoch the caller observes.
    pub fn sync(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.invalidations += self.entries.len() as u64;
            self.entries.clear();
            self.epoch = epoch;
        }
    }

    /// Look up the template compiled for `shape` valid at `epoch`;
    /// counts a hit when found. Absence counts nothing — the miss counter
    /// tracks actual compilations (it bumps in [`PlanCache::insert`]), so
    /// a text that fails to compile never inflates it.
    pub fn lookup(&mut self, epoch: u64, shape: &str) -> Option<Arc<Prepared>> {
        self.sync(epoch);
        self.tick += 1;
        match self.entries.get_mut(shape) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&e.plan))
            }
            None => None,
        }
    }

    /// Insert a plan compiled at `epoch` (counted as one miss — a paid
    /// compilation), evicting the least-recently used entry if the
    /// cache is full.
    pub fn insert(&mut self, epoch: u64, shape: String, plan: Arc<Prepared>) {
        self.sync(epoch);
        self.misses += 1;
        if !self.entries.contains_key(&shape) && self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
            }
        }
        self.tick += 1;
        self.entries.insert(
            shape,
            Entry {
                plan,
                last_used: self.tick,
            },
        );
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses — each one paid a compilation and inserted a plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Plans discarded by catalog-epoch changes.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shared;
    use eh_core::{Database, Relation, TupleBuffer};

    fn edges_db() -> Database {
        let mut db = Database::new();
        db.load_edges("E", &[(0, 1), (1, 2), (0, 2)]);
        db
    }

    /// Server state with a cache of `capacity` plans over the edge db.
    fn shared(capacity: usize) -> Shared {
        Shared::new(edges_db(), capacity)
    }

    /// Fetch-or-compile through the server's one caching path.
    fn plan(shared: &Shared, text: &str) -> (Prepared, bool) {
        shared.cached_plan(&shared.db.read(), text).unwrap()
    }

    /// Whether two bindings share one compiled template.
    fn same_template(a: &Prepared, b: &Prepared) -> bool {
        std::ptr::eq(a.plan(), b.plan())
    }

    #[test]
    fn second_lookup_is_a_hit_with_the_same_plan() {
        let shared = shared(8);
        let q = "T(x,y) :- E(x,y).";
        let (p1, hit1) = plan(&shared, q);
        let (p2, hit2) = plan(&shared, q);
        assert!(!hit1);
        assert!(hit2);
        assert!(same_template(&p1, &p2), "one shared compiled artifact");
        let cache = shared.cache.lock();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn a_reformatted_text_hits_the_same_plan_and_answers_the_same() {
        let shared = shared(8);
        let q = "T(x,y) :- E(x,y).";
        let reformatted = "  T(x,y)   :-\n\tE(x,y).  # listing\n";
        let (p1, hit1) = plan(&shared, q);
        let (p2, hit2) = plan(&shared, reformatted);
        assert!(!hit1 && hit2, "one shape, one plan");
        assert!(same_template(&p1, &p2));
        let db = shared.db.read();
        let (a, b) = (p1.execute(&db).unwrap(), p2.execute(&db).unwrap());
        assert_eq!(a.num_rows(), 3);
        assert_eq!(a.rows(), b.rows(), "byte-identical answers");
        drop(db);
        let cache = shared.cache.lock();
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (1, 1, 1));
    }

    #[test]
    fn one_template_different_bound_values_different_answers() {
        // E: 0→1, 1→2, 0→2. Constants differing in value — or only in
        // quoted whitespace — bind to one template and answer for
        // their own value; a comment that swallows a second rule vs a
        // newline that ends it are two shapes.
        let shared = shared(8);
        let answers = [
            ("A(y) :- E('0',y).", vec![vec![1], vec![2]]),
            ("A(y) :- E(1,y).", vec![vec![2]]),
            ("A(y) :- E(' 0',y).", vec![]),
            ("A(y) :- E('0 ',y).", vec![]),
            ("A(y) :- E(2,y).", vec![]),
        ];
        let (first, _) = plan(&shared, answers[0].0);
        for (text, want) in &answers {
            let (p, _) = plan(&shared, text);
            assert!(same_template(&first, &p), "{text}");
            let got = p.execute(&shared.db.read()).unwrap();
            let got: Vec<Vec<u32>> = got.rows().iter().map(<[u32]>::to_vec).collect();
            assert_eq!(&got, want, "{text}");
        }
        {
            let cache = shared.cache.lock();
            let n = answers.len() as u64;
            assert_eq!((cache.len(), cache.hits(), cache.misses()), (1, n, 1));
        }
        let (one, _) = plan(&shared, "T(x) :- E(x,y). # note U(x) :- E(y,x).");
        let (two, hit) = plan(&shared, "T(x) :- E(x,y). # note\nU(x) :- E(y,x).");
        assert!(!hit && !same_template(&one, &two));
        assert_eq!(one.name(), "T");
        assert_eq!(two.name(), "U");
    }

    #[test]
    fn lru_evicts_the_coldest_plan() {
        let shared = shared(2);
        plan(&shared, "A(x,y) :- E(x,y).");
        plan(&shared, "B(y,x) :- E(x,y).");
        // Touch A so B is the LRU entry, then overflow.
        plan(&shared, "A(x,y) :- E(x,y).");
        plan(&shared, "C(x) :- E(x,y).");
        assert_eq!(shared.cache.lock().len(), 2);
        let (_, hit_a) = plan(&shared, "A(x,y) :- E(x,y).");
        assert!(hit_a, "hot entry survived");
        let (_, hit_b) = plan(&shared, "B(y,x) :- E(x,y).");
        assert!(!hit_b, "cold entry was evicted");
    }

    /// The satellite regression: dropping a relation and re-registering
    /// it with a *different arity* must never reuse the old plan — no
    /// panic, no wrong answer.
    #[test]
    fn stale_plans_never_survive_a_schema_change() {
        let shared = shared(8);
        let q = "T(x,y) :- E(x,y).";
        let (old_plan, _) = plan(&shared, q);
        assert_eq!(old_plan.execute(&shared.db.read()).unwrap().num_rows(), 3);

        // Same name, arity 3 now.
        {
            let mut db = shared.db.write();
            db.drop_relation("E");
            db.register(
                "E",
                Relation::from_buffer(
                    TupleBuffer::from_rows(3, &[vec![0u32, 1, 2], vec![3, 4, 5]]),
                    eh_semiring::AggOp::Sum,
                ),
            );
        }

        let (new_plan, hit) = plan(&shared, q);
        assert!(!hit, "epoch change must invalidate the cached plan");
        assert!(
            !same_template(&old_plan, &new_plan),
            "a fresh plan was compiled"
        );
        assert!(shared.cache.lock().invalidations() >= 1);
        // Under the new ternary schema the old binary rule is an arity
        // mismatch: a recoverable error, never a panic or a wrong answer.
        assert!(new_plan.execute(&shared.db.read()).is_err());
        // And a rule matching the new schema compiles fresh and answers
        // correctly.
        let (tern, hit) = plan(&shared, "U(x,y,z) :- E(x,y,z).");
        assert!(!hit);
        let out = tern.execute(&shared.db.read()).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.relation().arity(), 3);
    }

    #[test]
    fn epoch_reuse_within_one_epoch_is_stable() {
        let shared = shared(8);
        let q = "T(x,y) :- E(x,y).";
        plan(&shared, q);
        // A mutation that does NOT touch E still invalidates (coarse,
        // but never wrong).
        shared.db.write().load_edges("F", &[(7, 8)]);
        let (_, hit) = plan(&shared, q);
        assert!(!hit);
        // No mutation since: now it hits.
        let (_, hit) = plan(&shared, q);
        assert!(hit);
    }

    #[test]
    fn programs_and_fixpoints_are_cached_like_rules() {
        let shared = shared(8);
        let program = "A(x,z) :- E(x,y),E(y,z). B(z) :- A('0',z).";
        let fixpoint = "R(x;y:int)* :- E(w,x),R(w); y=<<MIN(w)>>+1.";
        for (k, text) in [program, fixpoint].into_iter().enumerate() {
            let (first, hit) = plan(&shared, text);
            assert!(!hit, "{text}");
            let (again, hit) = plan(&shared, text);
            assert!(hit, "{text}");
            assert!(same_template(&first, &again), "{text}");
            let cache = shared.cache.lock();
            let compiled = k as u64 + 1;
            assert_eq!((cache.len() as u64, cache.misses()), (compiled, compiled));
        }
        // The fixpoint runs from the stored base case R; re-registering
        // the base (an epoch bump) re-prepares it, and the answer comes
        // from the new base.
        let distances = |base: &[(u32, u64)]| {
            let (keys, annots): (Vec<_>, _) = base
                .iter()
                .map(|&(node, d)| (vec![node], eh_semiring::DynValue::U64(d)))
                .unzip();
            let base = Relation::from_buffer(
                TupleBuffer::from_annotated_rows(1, &keys, annots),
                eh_semiring::AggOp::Min,
            );
            shared.db.write().register("R", base);
            let (stmt, hit) = plan(&shared, fixpoint);
            let out = stmt.execute(&shared.db.read()).unwrap();
            let dist: Vec<(u32, u64)> = (out.rows().iter())
                .zip(out.relation().annotations().unwrap())
                .map(|(row, d)| (row[0], d.as_u64()))
                .collect();
            (dist, hit)
        };
        // E: 0→1, 1→2, 0→2.
        let (from_zero, hit) = distances(&[(0, 0)]);
        assert!(!hit, "the epoch bump discarded the cached fixpoint");
        assert_eq!(from_zero, vec![(0, 0), (1, 1), (2, 1)]);
        let (from_one, hit) = distances(&[(1, 5)]);
        assert!(!hit);
        assert_eq!(from_one, vec![(1, 5), (2, 6)]);
        assert!(plan(&shared, fixpoint).1, "an unchanged epoch hits");
    }
}
