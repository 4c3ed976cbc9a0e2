//! Dictionary-backed encoding of typed rows into flat [`TupleBuffer`]s.
//!
//! A [`StorageCatalog`] owns the typed [`RelationSchema`]s plus the
//! shared dictionary [`Domain`]s they encode through. Encoding streams
//! typed values column-by-column into a stride-`arity` buffer — key
//! columns become dense u32 ids, the (optional) `f64` column becomes the
//! parallel annotation column — so ingest produces the engine's
//! interchange format directly, with no per-row allocation.

use crate::schema::{ColumnType, RelationSchema, StorageError, TypedValue};
use eh_semiring::DynValue;
use eh_trie::{Dictionary, TupleBuffer};
use std::collections::BTreeMap;

/// One shared dictionary: a typed key space mapped to dense u32 ids.
/// Columns (possibly across relations) that name the same domain encode
/// through the same dictionary, so their ids are join-consistent.
#[derive(Clone, Debug)]
pub enum Domain {
    /// 64-bit unsigned keys.
    U64(Dictionary<u64>),
    /// 64-bit signed keys.
    I64(Dictionary<i64>),
    /// String keys.
    Str(Dictionary<String>),
}

impl Domain {
    /// Fresh empty domain for a dictionary-backed column type.
    pub fn for_type(ty: ColumnType) -> Option<Domain> {
        match ty {
            ColumnType::U64 => Some(Domain::U64(Dictionary::new())),
            ColumnType::I64 => Some(Domain::I64(Dictionary::new())),
            ColumnType::Str => Some(Domain::Str(Dictionary::new())),
            ColumnType::U32 | ColumnType::F64 => None,
        }
    }

    /// The carrier type of this domain's keys.
    pub fn carrier(&self) -> ColumnType {
        match self {
            Domain::U64(_) => ColumnType::U64,
            Domain::I64(_) => ColumnType::I64,
            Domain::Str(_) => ColumnType::Str,
        }
    }

    /// Number of distinct keys encoded so far.
    pub fn len(&self) -> usize {
        match self {
            Domain::U64(d) => d.len(),
            Domain::I64(d) => d.len(),
            Domain::Str(d) => d.len(),
        }
    }

    /// True when no keys have been encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encode a typed key, allocating a dense id on first sight.
    pub fn encode(&mut self, value: &TypedValue) -> Result<u32, StorageError> {
        match (self, value) {
            (Domain::U64(d), TypedValue::U64(v)) => Ok(d.encode(*v)),
            (Domain::I64(d), TypedValue::I64(v)) => Ok(d.encode(*v)),
            (Domain::Str(d), TypedValue::Str(v)) => Ok(d.encode_ref(v.as_str())),
            (dom, v) => Err(StorageError::Schema(format!(
                "value {v} ({}) cannot encode in a {} domain",
                v.column_type(),
                dom.carrier()
            ))),
        }
    }

    /// Encode raw field text parsed as this domain's carrier type.
    /// String domains take the text as-is (borrowed; hits don't clone).
    pub fn encode_text(&mut self, text: &str) -> Result<u32, String> {
        match self {
            Domain::U64(d) => text
                .parse()
                .map(|v| d.encode(v))
                .map_err(|_| format!("'{text}' is not a u64")),
            Domain::I64(d) => text
                .parse()
                .map(|v| d.encode(v))
                .map_err(|_| format!("'{text}' is not an i64")),
            Domain::Str(d) => Ok(d.encode_ref(text)),
        }
    }

    /// Id for field text parsed as the carrier type, if present
    /// (string domains probe with the borrowed text, no allocation).
    pub fn lookup_text(&self, text: &str) -> Option<u32> {
        match self {
            Domain::U64(d) => text.parse().ok().and_then(|v| d.get(&v)),
            Domain::I64(d) => text.parse().ok().and_then(|v| d.get(&v)),
            Domain::Str(d) => d.get_ref(text),
        }
    }

    /// Original key for a dense id.
    pub fn decode(&self, id: u32) -> Option<TypedValue> {
        match self {
            Domain::U64(d) => d.decode(id).map(|&v| TypedValue::U64(v)),
            Domain::I64(d) => d.decode(id).map(|&v| TypedValue::I64(v)),
            Domain::Str(d) => d.decode(id).map(|v| TypedValue::Str(v.clone())),
        }
    }
}

/// The typed catalog: relation schemas plus the dictionary domains they
/// encode through. This is the metadata half of a database — the encoded
/// tuples themselves live in the engine's relation store and only pass
/// through here during ingest, decode, and image save/load.
#[derive(Clone, Debug, Default)]
pub struct StorageCatalog {
    schemas: BTreeMap<String, RelationSchema>,
    domains: BTreeMap<String, Domain>,
}

impl StorageCatalog {
    /// Empty catalog.
    pub fn new() -> StorageCatalog {
        StorageCatalog::default()
    }

    /// Register (or replace) a relation schema, creating any domains it
    /// references. Errors if a referenced domain already exists with a
    /// different carrier type.
    pub fn register_schema(&mut self, schema: RelationSchema) -> Result<(), StorageError> {
        schema.validate()?;
        for col in &schema.columns {
            let Some(key) = col.domain_key() else {
                continue;
            };
            match self.domains.get(&key) {
                Some(dom) if dom.carrier() != col.ty => {
                    return Err(StorageError::Schema(format!(
                        "domain '{key}' holds {} keys but column '{}' of '{}' is {}",
                        dom.carrier(),
                        col.name,
                        schema.name,
                        col.ty
                    )));
                }
                Some(_) => {}
                None => {
                    self.domains
                        .insert(key, Domain::for_type(col.ty).expect("dictionary type"));
                }
            }
        }
        self.schemas.insert(schema.name.clone(), schema);
        Ok(())
    }

    /// Register `schema` and run `load` under it; if `load` fails, put
    /// the relation's previous schema back (or remove it if there was
    /// none), so a failed load leaves the schemas as they were. Every
    /// loader goes through here. Domains keep any keys the aborted load
    /// encoded — they are append-only and shared, so extra entries are
    /// harmless.
    pub fn load_under_schema<T>(
        &mut self,
        schema: RelationSchema,
        load: impl FnOnce(&mut StorageCatalog, &RelationSchema) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let previous = self.schema(&schema.name).cloned();
        self.register_schema(schema.clone())?;
        let result = load(self, &schema);
        if result.is_err() {
            match previous {
                Some(previous) => {
                    let _ = self.register_schema(previous);
                }
                None => {
                    self.remove_schema(&schema.name);
                }
            }
        }
        result
    }

    /// Schema of a relation, if registered.
    pub fn schema(&self, relation: &str) -> Option<&RelationSchema> {
        self.schemas.get(relation)
    }

    /// Remove a relation's schema (its domains stay — they may be
    /// shared). Returns the schema if it was registered.
    pub fn remove_schema(&mut self, relation: &str) -> Option<RelationSchema> {
        self.schemas.remove(relation)
    }

    /// All registered schemas, in name order.
    pub fn schemas(&self) -> impl Iterator<Item = &RelationSchema> {
        self.schemas.values()
    }

    /// A dictionary domain by name.
    pub fn domain(&self, name: &str) -> Option<&Domain> {
        self.domains.get(name)
    }

    /// All domains, in name order.
    pub fn domains(&self) -> impl Iterator<Item = (&str, &Domain)> {
        self.domains.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Insert a pre-built domain (image loading); replaces any existing.
    pub(crate) fn insert_domain(&mut self, name: String, domain: Domain) {
        self.domains.insert(name, domain);
    }

    /// Check a domain out of the map (the CSV loader's fast path mutates
    /// checked-out domains by index, then puts them back).
    pub(crate) fn take_domain(&mut self, name: &str) -> Option<Domain> {
        self.domains.remove(name)
    }

    /// Encode typed rows for `relation` (whose schema must be registered)
    /// into a flat buffer: key columns to u32 ids, the `f64` column (if
    /// declared) to per-row annotations.
    pub fn encode_rows<'a, I>(
        &mut self,
        relation: &str,
        rows: I,
    ) -> Result<TupleBuffer, StorageError>
    where
        I: IntoIterator<Item = &'a [TypedValue]>,
    {
        let schema =
            self.schemas.get(relation).cloned().ok_or_else(|| {
                StorageError::Schema(format!("no schema for relation '{relation}'"))
            })?;
        let mut buf = TupleBuffer::new(schema.arity());
        let mut scratch: Vec<u32> = Vec::with_capacity(schema.arity());
        for (rowno, row) in rows.into_iter().enumerate() {
            if row.len() != schema.columns.len() {
                return Err(StorageError::Parse {
                    line: rowno + 1,
                    msg: format!(
                        "expected {} values, got {}",
                        schema.columns.len(),
                        row.len()
                    ),
                });
            }
            scratch.clear();
            let mut annot: Option<DynValue> = None;
            for (col, value) in schema.columns.iter().zip(row) {
                match col.ty {
                    ColumnType::F64 => {
                        let TypedValue::F64(v) = value else {
                            return Err(StorageError::Parse {
                                line: rowno + 1,
                                msg: format!("column '{}' expects f64, got {value}", col.name),
                            });
                        };
                        annot = Some(DynValue::F64(*v));
                    }
                    ColumnType::U32 => {
                        let TypedValue::U32(v) = value else {
                            return Err(StorageError::Parse {
                                line: rowno + 1,
                                msg: format!("column '{}' expects u32, got {value}", col.name),
                            });
                        };
                        scratch.push(*v);
                    }
                    _ => {
                        let key = col.domain_key().expect("dictionary column has a domain");
                        let dom = self.domains.get_mut(&key).expect("registered domain");
                        scratch.push(dom.encode(value).map_err(|e| StorageError::Parse {
                            line: rowno + 1,
                            msg: e.to_string(),
                        })?);
                    }
                }
            }
            match annot {
                Some(a) => buf.push_annotated(&scratch, a),
                None => buf.push_row(&scratch),
            }
        }
        Ok(buf)
    }

    /// Read-only id lookup of field text against a relation's key column
    /// `key_index` (position among key columns, i.e. the stored tuple
    /// column). `None` when the key is absent or unparsable.
    pub fn lookup_key_text(&self, relation: &str, key_index: usize, text: &str) -> Option<u32> {
        let schema = self.schemas.get(relation)?;
        let (_, col) = schema.key_columns().nth(key_index)?;
        match col.domain_key() {
            None => text.parse().ok(),
            Some(key) => self.domains.get(&key)?.lookup_text(text),
        }
    }

    /// Whether a relation's key column `key_index` is dictionary-backed
    /// (so unresolvable constants must not fall back to integer parsing).
    pub fn key_is_dictionary(&self, relation: &str, key_index: usize) -> bool {
        self.schemas
            .get(relation)
            .and_then(|s| s.key_columns().nth(key_index))
            .map(|(_, c)| c.ty.is_dictionary())
            .unwrap_or(false)
    }

    /// Decode a stored id of a relation's key column `key_index` back to
    /// its typed value. Pass-through columns decode as `U32`.
    pub fn decode_key(&self, relation: &str, key_index: usize, id: u32) -> Option<TypedValue> {
        let schema = self.schemas.get(relation)?;
        let (_, col) = schema.key_columns().nth(key_index)?;
        match col.domain_key() {
            None => Some(TypedValue::U32(id)),
            Some(key) => self.domains.get(&key)?.decode(id),
        }
    }

    /// Domain key of a relation's key column `key_index` (stored-tuple
    /// position), `None` for pass-through columns.
    pub fn key_domain(&self, relation: &str, key_index: usize) -> Option<String> {
        let schema = self.schemas.get(relation)?;
        let (_, col) = schema.key_columns().nth(key_index)?;
        col.domain_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType as T;

    fn follows_schema() -> RelationSchema {
        RelationSchema::new("Follows")
            .column_in("src", T::Str, "user")
            .column_in("dst", T::Str, "user")
    }

    #[test]
    fn shared_domain_is_join_consistent() {
        let mut cat = StorageCatalog::new();
        cat.register_schema(follows_schema()).unwrap();
        let rows: Vec<Vec<TypedValue>> = vec![
            vec![TypedValue::Str("a".into()), TypedValue::Str("b".into())],
            vec![TypedValue::Str("b".into()), TypedValue::Str("c".into())],
        ];
        let buf = cat
            .encode_rows("Follows", rows.iter().map(|r| r.as_slice()))
            .unwrap();
        assert_eq!(buf.arity(), 2);
        // "b" must get the same id as src and as dst.
        assert_eq!(buf.row(0)[1], buf.row(1)[0]);
        assert_eq!(cat.domain("user").unwrap().len(), 3);
    }

    #[test]
    fn f64_column_becomes_annotation() {
        let mut cat = StorageCatalog::new();
        cat.register_schema(
            RelationSchema::new("R")
                .column("k", T::U64)
                .column("w", T::F64),
        )
        .unwrap();
        let rows: Vec<Vec<TypedValue>> = vec![
            vec![TypedValue::U64(100), TypedValue::F64(0.5)],
            vec![TypedValue::U64(7), TypedValue::F64(1.5)],
        ];
        let buf = cat
            .encode_rows("R", rows.iter().map(|r| r.as_slice()))
            .unwrap();
        assert_eq!(buf.arity(), 1, "f64 column is not a key");
        assert_eq!(buf.annotations().unwrap().len(), 2);
        assert_eq!(buf.annot(1), Some(DynValue::F64(1.5)));
        assert_eq!(buf.row(0), &[0], "u64 keys densely remapped");
    }

    #[test]
    fn u32_passes_through_unencoded() {
        let mut cat = StorageCatalog::new();
        cat.register_schema(
            RelationSchema::new("E")
                .column("s", T::U32)
                .column("d", T::U32),
        )
        .unwrap();
        let rows: Vec<Vec<TypedValue>> = vec![vec![TypedValue::U32(99), TypedValue::U32(3)]];
        let buf = cat
            .encode_rows("E", rows.iter().map(|r| r.as_slice()))
            .unwrap();
        assert_eq!(buf.row(0), &[99, 3]);
        assert_eq!(cat.domains().count(), 0);
    }

    #[test]
    fn decode_round_trips() {
        let mut cat = StorageCatalog::new();
        cat.register_schema(follows_schema()).unwrap();
        let rows: Vec<Vec<TypedValue>> = vec![vec![
            TypedValue::Str("x".into()),
            TypedValue::Str("y".into()),
        ]];
        cat.encode_rows("Follows", rows.iter().map(|r| r.as_slice()))
            .unwrap();
        assert_eq!(
            cat.decode_key("Follows", 0, 0),
            Some(TypedValue::Str("x".into()))
        );
        assert_eq!(cat.lookup_key_text("Follows", 1, "y"), Some(1));
        assert_eq!(cat.lookup_key_text("Follows", 1, "nope"), None);
        assert!(cat.key_is_dictionary("Follows", 0));
    }

    #[test]
    fn domain_type_conflicts_rejected() {
        let mut cat = StorageCatalog::new();
        cat.register_schema(RelationSchema::new("A").column_in("k", T::Str, "d"))
            .unwrap();
        let clash = RelationSchema::new("B").column_in("k", T::U64, "d");
        assert!(cat.register_schema(clash).is_err());
    }

    #[test]
    fn wrong_typed_value_is_error_not_panic() {
        let mut cat = StorageCatalog::new();
        cat.register_schema(follows_schema()).unwrap();
        let rows: Vec<Vec<TypedValue>> =
            vec![vec![TypedValue::U64(1), TypedValue::Str("y".into())]];
        assert!(cat
            .encode_rows("Follows", rows.iter().map(|r| r.as_slice()))
            .is_err());
        let short: Vec<Vec<TypedValue>> = vec![vec![TypedValue::Str("x".into())]];
        assert!(cat
            .encode_rows("Follows", short.iter().map(|r| r.as_slice()))
            .is_err());
    }
}
