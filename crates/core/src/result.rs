//! Query results.

use crate::database::Database;
use eh_exec::{QueryProfile, Relation, TupleBuffer};
use eh_semiring::DynValue;
use eh_storage::{Domain, RelationSchema, TypedValue};

/// The result of a query: the head relation's name and contents, plus
/// the head's schema used to decode ids back to typed values (carried
/// here so prepared-statement results decode exactly like `query()`
/// results, without looking the head up in the database).
#[derive(Clone, Debug)]
pub struct QueryResult {
    pub(crate) name: String,
    pub(crate) relation: Relation,
    pub(crate) schema: RelationSchema,
    /// Execution profile, present when the run was configured with
    /// `Config::profile`.
    pub(crate) profile: Option<QueryProfile>,
    /// Level-0 values the root node's scheduler loop owned (see
    /// [`eh_exec::Executed::level0`]).
    pub(crate) level0: u64,
}

impl QueryResult {
    /// The execution profile, when the query ran under `Config::profile`.
    pub fn profile(&self) -> Option<&QueryProfile> {
        self.profile.as_ref()
    }

    /// Move the execution profile out, leaving `None` — for a caller that
    /// ships the span tree on rather than reading it.
    pub fn take_profile(&mut self) -> Option<QueryProfile> {
        self.profile.take()
    }

    /// Level-0 values of the root node this execution owned — under
    /// `Config::shard`, the size of the shard's slice (a cluster
    /// coordinator's estimated-share signal for skew diagnosis).
    pub fn level0_values(&self) -> u64 {
        self.level0
    }

    /// Per-output-column dictionary domains, resolved once (the decode
    /// loops below touch only a `Vec` index per cell).
    fn column_domains<'a>(&'a self, db: &'a Database) -> Vec<Option<&'a Domain>> {
        let mut domains: Vec<Option<&Domain>> = self
            .schema
            .key_columns()
            .map(|(_, col)| col.domain_key().and_then(|k| db.storage().domain(&k)))
            .collect();
        domains.resize(self.relation.arity(), None);
        domains
    }

    /// Head relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The head's schema carried by this result (used to decode ids to
    /// typed values): the one the rule's head inferred, or — for
    /// [`Database::query`] — the one it registered.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Number of result rows.
    pub fn num_rows(&self) -> usize {
        self.relation.len()
    }

    /// True if the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// Result tuples (dictionary-encoded values in a flat columnar
    /// buffer; iterate for row slices).
    pub fn rows(&self) -> &TupleBuffer {
        self.relation.rows()
    }

    /// For scalar (aggregate-only) results: the value.
    pub fn scalar(&self) -> Option<DynValue> {
        self.relation.scalar_value()
    }

    /// Scalar as u64 (COUNT results).
    pub fn scalar_u64(&self) -> Option<u64> {
        self.scalar().map(|v| v.as_u64())
    }

    /// Scalar as f64 (SUM results).
    pub fn scalar_f64(&self) -> Option<f64> {
        self.scalar().map(|v| v.as_f64())
    }

    /// Rows paired with their annotations (annotated results only; the
    /// annotation defaults to 0 if absent).
    pub fn annotated_rows(&self) -> Vec<(&[u32], DynValue)> {
        let annots = self.relation.annotations();
        self.relation
            .rows()
            .iter()
            .enumerate()
            .map(|(i, r)| (r, annots.map(|a| a[i]).unwrap_or(DynValue::U64(0))))
            .collect()
    }

    /// Annotation for a specific key tuple.
    pub fn annotation_for(&self, key: &[u32]) -> Option<DynValue> {
        let pos = self.relation.rows().iter().position(|r| r == key)?;
        self.relation.annotations().map(|a| a[pos])
    }

    /// Decode one result id back through the catalog's dictionaries:
    /// the value the loader originally ingested for that column's
    /// domain. Columns without typed provenance (plain u32 data) decode
    /// as [`TypedValue::U32`].
    pub fn decode_value(&self, db: &Database, col: usize, id: u32) -> TypedValue {
        self.column_domains(db)
            .get(col)
            .copied()
            .flatten()
            .and_then(|d| d.decode(id))
            .unwrap_or(TypedValue::U32(id))
    }

    /// One output column, decoded to typed values.
    pub fn decode_col(&self, db: &Database, col: usize) -> Vec<TypedValue> {
        assert!(col < self.relation.arity(), "column out of range");
        let domain = self.column_domains(db)[col];
        self.relation
            .rows()
            .iter()
            .map(|r| decode_id(domain, r[col]))
            .collect()
    }

    /// All result rows decoded to typed values (dictionary ids mapped
    /// back to the original string/u64/i64 keys; see
    /// [`QueryResult::annotated_rows`] for the annotation column).
    pub fn typed_rows(&self, db: &Database) -> Vec<Vec<TypedValue>> {
        let domains = self.column_domains(db);
        self.relation
            .rows()
            .iter()
            .map(|r| {
                r.iter()
                    .zip(&domains)
                    .map(|(&id, &domain)| decode_id(domain, id))
                    .collect()
            })
            .collect()
    }
}

/// Decode one id through an optional resolved domain (u32 pass-through
/// when the column has none).
fn decode_id(domain: Option<&Domain>, id: u32) -> TypedValue {
    domain
        .and_then(|d| d.decode(id))
        .unwrap_or(TypedValue::U32(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_semiring::AggOp;

    fn result(name: &str, relation: Relation) -> QueryResult {
        QueryResult {
            name: name.into(),
            schema: crate::database::implicit_schema(name, &relation),
            relation,
            profile: None,
            level0: 0,
        }
    }

    #[test]
    fn accessors() {
        let rel = Relation::from_buffer(
            TupleBuffer::from_annotated_rows(
                1,
                &[vec![3], vec![7]],
                vec![DynValue::U64(10), DynValue::U64(20)],
            ),
            AggOp::Sum,
        );
        let r = result("Q", rel);
        assert_eq!(r.name(), "Q");
        assert_eq!(r.num_rows(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.annotation_for(&[7]), Some(DynValue::U64(20)));
        assert_eq!(r.annotation_for(&[9]), None);
        assert_eq!(r.annotated_rows().len(), 2);
        assert_eq!(r.scalar(), None, "not a scalar result");
    }

    #[test]
    fn scalar_result() {
        let r = result("C", Relation::new_scalar(DynValue::U64(42)));
        assert_eq!(r.scalar_u64(), Some(42));
        assert_eq!(r.scalar_f64(), Some(42.0));
    }
}
