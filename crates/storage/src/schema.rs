//! Typed relation schemas: the catalog's description of what a column
//! *means* before dictionary encoding flattens it to u32 ids.
//!
//! A [`RelationSchema`] declares one [`ColumnDef`] per input column. Key
//! columns (everything except `f64`) become trie attributes; `u64`/`i64`/
//! `str` columns encode through a shared [`crate::Domain`] dictionary
//! into dense u32 ids (paper §2.2 "Dictionary Encoding"), while `u32`
//! columns pass through untouched (the graph fast path). At most one
//! `f64` column is allowed and becomes the relation's semiring
//! annotation column (the `w` of `w=<<SUM(w)>>`-style aggregates).

use eh_semiring::AggOp;
use std::fmt;

/// The attribute types the storage layer ingests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Already-dense 32-bit ids; stored as-is, no dictionary.
    U32,
    /// 64-bit unsigned keys, dictionary-encoded to dense u32 ids.
    U64,
    /// 64-bit signed keys, dictionary-encoded to dense u32 ids.
    I64,
    /// Double-precision payload, routed to the annotation column
    /// (not a key; at most one per relation).
    F64,
    /// String keys, dictionary-encoded to dense u32 ids.
    Str,
}

impl ColumnType {
    /// Parse the type name used in CSV headers and schema strings.
    pub fn parse(name: &str) -> Option<ColumnType> {
        match name.to_ascii_lowercase().as_str() {
            "u32" | "uint" | "id" => Some(ColumnType::U32),
            "u64" | "ulong" => Some(ColumnType::U64),
            "i64" | "long" | "int" => Some(ColumnType::I64),
            "f64" | "float" | "double" => Some(ColumnType::F64),
            "str" | "string" | "text" => Some(ColumnType::Str),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::U32 => "u32",
            ColumnType::U64 => "u64",
            ColumnType::I64 => "i64",
            ColumnType::F64 => "f64",
            ColumnType::Str => "str",
        }
    }

    /// True for columns that become trie key attributes (everything but
    /// the `f64` annotation payload).
    pub fn is_key(self) -> bool {
        !matches!(self, ColumnType::F64)
    }

    /// True for columns that encode through a dictionary domain.
    pub fn is_dictionary(self) -> bool {
        matches!(self, ColumnType::U64 | ColumnType::I64 | ColumnType::Str)
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One column of a relation schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (header label).
    pub name: String,
    /// Attribute type.
    pub ty: ColumnType,
    /// Explicit dictionary-domain name. Columns sharing a domain share
    /// one dictionary, so their ids join consistently (`src`/`dst` of an
    /// edge list must share). `None` defaults to one domain per type
    /// (`"str"`, `"u64"`, `"i64"`) — always join-consistent, at some
    /// cost in set density versus a hand-partitioned domain.
    pub domain: Option<String>,
}

impl ColumnDef {
    /// Column with the default (per-type) domain.
    pub fn new(name: &str, ty: ColumnType) -> ColumnDef {
        ColumnDef {
            name: name.to_string(),
            ty,
            domain: None,
        }
    }

    /// Column encoding through the named shared domain.
    pub fn with_domain(name: &str, ty: ColumnType, domain: &str) -> ColumnDef {
        ColumnDef {
            name: name.to_string(),
            ty,
            domain: Some(domain.to_string()),
        }
    }

    /// The dictionary-domain key this column encodes through; `None` for
    /// pass-through (`u32`) and annotation (`f64`) columns.
    pub fn domain_key(&self) -> Option<String> {
        if !self.ty.is_dictionary() {
            return None;
        }
        Some(
            self.domain
                .clone()
                .unwrap_or_else(|| self.ty.name().to_string()),
        )
    }

    /// Parse `name:type` or `name:type@domain` (header cell syntax).
    pub fn parse(cell: &str) -> Result<ColumnDef, StorageError> {
        let cell = cell.trim();
        let (name, rest) = cell
            .split_once(':')
            .ok_or_else(|| StorageError::Schema(format!("column '{cell}' needs a :type")))?;
        let (ty_name, domain) = match rest.split_once('@') {
            Some((t, d)) => (t, Some(d)),
            None => (rest, None),
        };
        let ty = ColumnType::parse(ty_name.trim())
            .ok_or_else(|| StorageError::Schema(format!("unknown column type '{ty_name}'")))?;
        if name.trim().is_empty() {
            return Err(StorageError::Schema(format!("column '{cell}' has no name")));
        }
        Ok(ColumnDef {
            name: name.trim().to_string(),
            ty,
            domain: domain.map(|d| d.trim().to_string()),
        })
    }
}

impl fmt::Display for ColumnDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.name, self.ty)?;
        if let Some(d) = &self.domain {
            write!(f, "@{d}")?;
        }
        Ok(())
    }
}

/// The typed schema of one stored relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation name (as referenced in queries).
    pub name: String,
    /// Input columns, in file order (key columns and at most one `f64`).
    pub columns: Vec<ColumnDef>,
    /// Semiring ⊕ combining the annotations of duplicate key tuples.
    pub combine: AggOp,
}

impl RelationSchema {
    /// Empty schema (build up with [`RelationSchema::column`]).
    pub fn new(name: &str) -> RelationSchema {
        RelationSchema {
            name: name.to_string(),
            columns: Vec::new(),
            combine: AggOp::Sum,
        }
    }

    /// Append a column with the default per-type domain.
    pub fn column(mut self, name: &str, ty: ColumnType) -> Self {
        self.columns.push(ColumnDef::new(name, ty));
        self
    }

    /// Append a column encoding through the named shared domain.
    pub fn column_in(mut self, name: &str, ty: ColumnType, domain: &str) -> Self {
        self.columns.push(ColumnDef::with_domain(name, ty, domain));
        self
    }

    /// Set the duplicate-annotation combine operator (default `Sum`).
    pub fn combining(mut self, op: AggOp) -> Self {
        self.combine = op;
        self
    }

    /// Parse the compact form `Name(col:type@domain, col:type, ...)`.
    pub fn parse(text: &str) -> Result<RelationSchema, StorageError> {
        let text = text.trim();
        let (name, rest) = text
            .split_once('(')
            .ok_or_else(|| StorageError::Schema(format!("schema '{text}' needs Name(...)")))?;
        let cols = rest
            .strip_suffix(')')
            .ok_or_else(|| StorageError::Schema(format!("schema '{text}' missing ')'")))?;
        let mut schema = RelationSchema::new(name.trim());
        for cell in cols.split(',') {
            schema.columns.push(ColumnDef::parse(cell)?);
        }
        schema.validate()?;
        Ok(schema)
    }

    /// Key (trie attribute) columns: `(input column index, def)`.
    pub fn key_columns(&self) -> impl Iterator<Item = (usize, &ColumnDef)> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ty.is_key())
    }

    /// Input index of the annotation (`f64`) column, if declared.
    pub fn annot_column(&self) -> Option<usize> {
        self.columns.iter().position(|c| c.ty == ColumnType::F64)
    }

    /// Number of key attributes (the stored relation's arity).
    pub fn arity(&self) -> usize {
        self.columns.iter().filter(|c| c.ty.is_key()).count()
    }

    /// Check structural invariants: unique column names, at most one
    /// `f64` column, a nonempty relation name.
    pub fn validate(&self) -> Result<(), StorageError> {
        if self.name.is_empty() {
            return Err(StorageError::Schema("empty relation name".into()));
        }
        let annots = self
            .columns
            .iter()
            .filter(|c| c.ty == ColumnType::F64)
            .count();
        if annots > 1 {
            return Err(StorageError::Schema(format!(
                "relation '{}' declares {annots} f64 columns; at most one annotation",
                self.name
            )));
        }
        for (i, a) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|b| b.name == a.name) {
                return Err(StorageError::Schema(format!(
                    "relation '{}' repeats column name '{}'",
                    self.name, a.name
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// A typed attribute value, before encoding / after decoding.
#[derive(Clone, Debug, PartialEq)]
pub enum TypedValue {
    /// Pass-through dense id.
    U32(u32),
    /// 64-bit unsigned key.
    U64(u64),
    /// 64-bit signed key.
    I64(i64),
    /// Annotation payload.
    F64(f64),
    /// String key.
    Str(String),
}

impl TypedValue {
    /// The value's column type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            TypedValue::U32(_) => ColumnType::U32,
            TypedValue::U64(_) => ColumnType::U64,
            TypedValue::I64(_) => ColumnType::I64,
            TypedValue::F64(_) => ColumnType::F64,
            TypedValue::Str(_) => ColumnType::Str,
        }
    }
}

impl fmt::Display for TypedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypedValue::U32(v) => write!(f, "{v}"),
            TypedValue::U64(v) => write!(f, "{v}"),
            TypedValue::I64(v) => write!(f, "{v}"),
            TypedValue::F64(v) => write!(f, "{v}"),
            TypedValue::Str(v) => f.write_str(v),
        }
    }
}

/// Errors from the storage layer (never panics on bad input files).
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Schema construction or registration problem.
    Schema(String),
    /// A malformed input row (under [`crate::MalformedPolicy::Error`]).
    Parse {
        /// 1-based source line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// Structural problem in a database image (bad magic, truncation,
    /// out-of-range lengths, trailing bytes, unknown tags).
    Format(String),
    /// A section's stored checksum does not match its payload.
    Checksum {
        /// Which section failed.
        section: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::Schema(m) => write!(f, "schema error: {m}"),
            StorageError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            StorageError::Format(m) => write!(f, "image format error: {m}"),
            StorageError::Checksum { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_parse_variants() {
        let c = ColumnDef::parse("src:str@user").unwrap();
        assert_eq!(c.name, "src");
        assert_eq!(c.ty, ColumnType::Str);
        assert_eq!(c.domain_key().as_deref(), Some("user"));
        let c = ColumnDef::parse(" weight : f64 ").unwrap();
        assert_eq!(c.ty, ColumnType::F64);
        assert_eq!(c.domain_key(), None);
        let c = ColumnDef::parse("id:u32").unwrap();
        assert_eq!(c.domain_key(), None, "u32 passes through");
        assert!(ColumnDef::parse("noname").is_err());
        assert!(ColumnDef::parse("x:quaternion").is_err());
    }

    #[test]
    fn schema_parse_and_shape() {
        let s = RelationSchema::parse("Follows(src:str@user, dst:str@user, w:f64)").unwrap();
        assert_eq!(s.name, "Follows");
        assert_eq!(s.arity(), 2);
        assert_eq!(s.annot_column(), Some(2));
        assert_eq!(s.key_columns().count(), 2);
        assert_eq!(s.to_string(), "Follows(src:str@user, dst:str@user, w:f64)");
    }

    #[test]
    fn schema_rejects_double_annotation_and_dup_names() {
        assert!(RelationSchema::parse("R(a:f64, b:f64)").is_err());
        assert!(RelationSchema::parse("R(a:u32, a:u32)").is_err());
    }

    #[test]
    fn default_domains_are_per_type() {
        let s = RelationSchema::new("R")
            .column("a", ColumnType::Str)
            .column("b", ColumnType::Str)
            .column("c", ColumnType::U64);
        assert_eq!(s.columns[0].domain_key(), s.columns[1].domain_key());
        assert_eq!(s.columns[2].domain_key().as_deref(), Some("u64"));
    }
}
