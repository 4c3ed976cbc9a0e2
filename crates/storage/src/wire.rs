//! Byte-level wire vocabulary shared by the image format and the query
//! server, plus [`ResultBatch`] — the typed columnar payload a query
//! service sends back to clients.
//!
//! Everything here is little-endian and bounds-checked: [`ByteReader`]
//! refuses to read past the end of its input, so a corrupt or truncated
//! payload produces a [`StorageError`], never a panic or an
//! over-allocation. The image format (`crate::image`) frames these same
//! payload encoders in checksummed sections; the wire format ships them
//! raw inside the transport's own length-prefixed frames.
//!
//! A [`ResultBatch`] is self-describing: it carries the result's
//! [`RelationSchema`] *and* every dictionary domain the schema
//! references, so a client on the other side of a socket can decode
//! string/u64/i64 key columns back to typed values without any shared
//! state with the server.

use crate::encode::Domain;
use crate::schema::{ColumnDef, ColumnType, RelationSchema, StorageError, TypedValue};
use eh_semiring::{AggOp, DynValue};
use eh_trie::{Dictionary, TupleBuffer};

/// Bounds-checked cursor over untrusted bytes: every read that would run
/// past the end is a [`StorageError::Format`], so corrupt length fields
/// can neither panic nor over-allocate.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` bytes (`what` names the field in errors).
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StorageError> {
        if n > self.remaining() {
            return Err(StorageError::Format(format!(
                "truncated input: {what} needs {n} bytes, {} left",
                self.remaining()
            )));
        }
        // lint:allow(decode-panic-free): range is bounds-checked by the truncation guard above (n <= remaining)
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, StorageError> {
        Ok(self.take(1, what)?[0])
    }

    /// Next little-endian u32.
    pub fn u32(&mut self, what: &str) -> Result<u32, StorageError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Next little-endian u64.
    pub fn u64(&mut self, what: &str) -> Result<u64, StorageError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Next length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, StorageError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::Format(format!("{what}: invalid UTF-8")))
    }
}

/// Append a little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Serialize one domain: carrier tag, entry count, then keys in id
/// order, borrowed straight out of the dictionary — saving a
/// multi-million-key domain clones nothing.
pub(crate) fn put_domain(out: &mut Vec<u8>, dom: &Domain) {
    match dom {
        Domain::U64(d) => {
            out.push(0);
            put_u32(out, d.len() as u32);
            for key in d.keys() {
                out.extend_from_slice(&key.to_le_bytes());
            }
        }
        Domain::I64(d) => {
            out.push(1);
            put_u32(out, d.len() as u32);
            for key in d.keys() {
                out.extend_from_slice(&key.to_le_bytes());
            }
        }
        Domain::Str(d) => {
            out.push(2);
            put_u32(out, d.len() as u32);
            for key in d.keys() {
                put_str(out, key);
            }
        }
    }
}

/// Parse one domain written by [`put_domain`] (`name` is for error
/// messages only). A dictionary rebuilt from serialized keys must be
/// exactly as long as its declared entry count — duplicate keys
/// (corruption) collapse and trip the density check.
pub(crate) fn read_domain(pr: &mut ByteReader<'_>, name: &str) -> Result<Domain, StorageError> {
    let carrier = pr.u8("domain carrier")?;
    let entries = pr.u32("domain entry count")? as usize;
    // Every key costs at least 8 (u64/i64) or 4 (str length prefix)
    // payload bytes; reject counts the payload cannot hold *before*
    // the dictionary pre-allocates — a hostile entry count must not
    // cause a multi-GB allocation.
    let min_key_bytes = if carrier == 2 { 4 } else { 8 };
    if entries > pr.remaining() / min_key_bytes {
        return Err(StorageError::Format(format!(
            "domain '{name}': {entries} entries exceed payload"
        )));
    }
    let dom = match carrier {
        0 => {
            let mut d = Dictionary::with_capacity(entries);
            for _ in 0..entries {
                d.encode(pr.u64("u64 key")?);
            }
            check_dense(d.len(), entries, name)?;
            Domain::U64(d)
        }
        1 => {
            let mut d = Dictionary::with_capacity(entries);
            for _ in 0..entries {
                d.encode(pr.u64("i64 key")? as i64);
            }
            check_dense(d.len(), entries, name)?;
            Domain::I64(d)
        }
        2 => {
            let mut d = Dictionary::with_capacity(entries);
            for _ in 0..entries {
                d.encode(pr.str("str key")?);
            }
            check_dense(d.len(), entries, name)?;
            Domain::Str(d)
        }
        t => {
            return Err(StorageError::Format(format!(
                "domain '{name}': unknown carrier tag {t}"
            )))
        }
    };
    Ok(dom)
}

fn check_dense(len: usize, declared: usize, name: &str) -> Result<(), StorageError> {
    if len != declared {
        return Err(StorageError::Format(format!(
            "domain '{name}': {declared} entries declared, {len} distinct"
        )));
    }
    Ok(())
}

/// Serialize a relation payload: name, combine op, schema columns, then
/// the flat tuple data and optional annotation column.
pub(crate) fn put_relation(
    out: &mut Vec<u8>,
    schema: &RelationSchema,
    tuples: &TupleBuffer,
) -> Result<(), StorageError> {
    if tuples.arity() != schema.arity() {
        return Err(StorageError::Schema(format!(
            "relation '{}': schema arity {} != buffer arity {}",
            schema.name,
            schema.arity(),
            tuples.arity()
        )));
    }
    put_str(out, &schema.name);
    out.push(combine_tag(schema.combine));
    put_u32(out, schema.columns.len() as u32);
    for col in &schema.columns {
        put_str(out, &col.name);
        out.push(type_tag(col.ty));
        match &col.domain {
            Some(d) => {
                out.push(1);
                put_str(out, d);
            }
            None => out.push(0),
        }
    }
    put_u32(out, tuples.arity() as u32);
    put_u64(out, tuples.len() as u64);
    for &v in tuples.flat() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    match tuples.annotations() {
        None => out.push(0),
        Some(annots) => {
            out.push(1);
            for a in annots {
                match a {
                    DynValue::U64(v) => {
                        out.push(0);
                        put_u64(out, *v);
                    }
                    DynValue::F64(v) => {
                        out.push(1);
                        put_u64(out, v.to_bits());
                    }
                }
            }
        }
    }
    Ok(())
}

/// Parse a relation payload written by [`put_relation`].
pub(crate) fn read_relation(
    pr: &mut ByteReader<'_>,
) -> Result<(RelationSchema, TupleBuffer), StorageError> {
    let name = pr.str("relation name")?;
    let combine = parse_combine(pr.u8("combine tag")?)?;
    let ncols = pr.u32("column count")? as usize;
    // Bound: every column needs ≥ 7 payload bytes (4+0 name, 1 type,
    // 1 domain flag) — rejects absurd counts before the loop.
    if ncols > pr.remaining() / 6 + 1 {
        return Err(StorageError::Format(format!(
            "relation '{name}': column count {ncols} exceeds payload"
        )));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = pr.str("column name")?;
        let ty = parse_type(pr.u8("column type")?)?;
        let domain = match pr.u8("domain flag")? {
            0 => None,
            1 => Some(pr.str("column domain")?),
            f => {
                return Err(StorageError::Format(format!(
                    "column '{cname}': bad domain flag {f}"
                )))
            }
        };
        columns.push(ColumnDef {
            name: cname,
            ty,
            domain,
        });
    }
    let schema = RelationSchema {
        name: name.clone(),
        columns,
        combine,
    };
    schema.validate()?;
    let arity = pr.u32("arity")? as usize;
    if arity != schema.arity() {
        return Err(StorageError::Format(format!(
            "relation '{name}': stored arity {arity} != schema arity {}",
            schema.arity()
        )));
    }
    let rows = pr.u64("row count")? as usize;
    let values = rows
        .checked_mul(arity)
        .ok_or_else(|| StorageError::Format(format!("relation '{name}': row count overflow")))?;
    if values
        .checked_mul(4)
        .map(|b| b > pr.remaining())
        .unwrap_or(true)
    {
        return Err(StorageError::Format(format!(
            "relation '{name}': {rows} rows exceed payload"
        )));
    }
    let mut tuples = if arity == 0 {
        TupleBuffer::nullary(rows)
    } else {
        let mut flat = Vec::with_capacity(values);
        for _ in 0..values {
            flat.push(pr.u32("tuple value")?);
        }
        TupleBuffer::from_flat(arity, flat)
    };
    match pr.u8("annotation flag")? {
        0 => {}
        1 => {
            if rows
                .checked_mul(9)
                .map(|b| b > pr.remaining())
                .unwrap_or(true)
            {
                return Err(StorageError::Format(format!(
                    "relation '{name}': annotation column exceeds payload"
                )));
            }
            let mut annots = Vec::with_capacity(rows);
            for _ in 0..rows {
                let tag = pr.u8("annotation tag")?;
                let raw = pr.u64("annotation value")?;
                annots.push(match tag {
                    0 => DynValue::U64(raw),
                    1 => DynValue::F64(f64::from_bits(raw)),
                    t => {
                        return Err(StorageError::Format(format!(
                            "relation '{name}': bad annotation tag {t}"
                        )))
                    }
                });
            }
            tuples.set_annotations(annots);
        }
        f => {
            return Err(StorageError::Format(format!(
                "relation '{name}': bad annotation flag {f}"
            )))
        }
    }
    Ok((schema, tuples))
}

pub(crate) fn combine_tag(op: AggOp) -> u8 {
    match op {
        AggOp::Count => 0,
        AggOp::Sum => 1,
        AggOp::Min => 2,
        AggOp::Max => 3,
    }
}

pub(crate) fn parse_combine(tag: u8) -> Result<AggOp, StorageError> {
    match tag {
        0 => Ok(AggOp::Count),
        1 => Ok(AggOp::Sum),
        2 => Ok(AggOp::Min),
        3 => Ok(AggOp::Max),
        t => Err(StorageError::Format(format!("unknown combine tag {t}"))),
    }
}

pub(crate) fn type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::U32 => 0,
        ColumnType::U64 => 1,
        ColumnType::I64 => 2,
        ColumnType::F64 => 3,
        ColumnType::Str => 4,
    }
}

pub(crate) fn parse_type(tag: u8) -> Result<ColumnType, StorageError> {
    match tag {
        0 => Ok(ColumnType::U32),
        1 => Ok(ColumnType::U64),
        2 => Ok(ColumnType::I64),
        3 => Ok(ColumnType::F64),
        4 => Ok(ColumnType::Str),
        t => Err(StorageError::Format(format!("unknown column type tag {t}"))),
    }
}

/// A self-describing typed result: the relation's schema, its encoded
/// tuples (flat columnar buffer, annotations inside), and every
/// dictionary domain the schema's key columns reference — everything a
/// client needs to decode ids back to the loader's original values.
#[derive(Clone, Debug)]
pub struct ResultBatch {
    /// Result schema (key columns carry their dictionary domain names).
    pub schema: RelationSchema,
    /// Encoded result tuples.
    pub tuples: TupleBuffer,
    /// The referenced dictionary domains, `(name, domain)`.
    pub domains: Vec<(String, Domain)>,
}

impl ResultBatch {
    /// Encode to bytes (the transport adds its own framing).
    pub fn encode(&self) -> Result<Vec<u8>, StorageError> {
        let mut out = Vec::new();
        put_u32(&mut out, self.domains.len() as u32);
        for (name, dom) in &self.domains {
            put_str(&mut out, name);
            put_domain(&mut out, dom);
        }
        put_relation(&mut out, &self.schema, &self.tuples)?;
        Ok(out)
    }

    /// Decode bytes written by [`ResultBatch::encode`]. Rejects trailing
    /// bytes; every field is bounds-checked.
    pub fn decode(bytes: &[u8]) -> Result<ResultBatch, StorageError> {
        let mut pr = ByteReader::new(bytes);
        let ndomains = pr.u32("domain count")? as usize;
        let mut domains = Vec::with_capacity(ndomains.min(1024));
        for _ in 0..ndomains {
            let name = pr.str("domain name")?;
            let dom = read_domain(&mut pr, &name)?;
            domains.push((name, dom));
        }
        let (schema, tuples) = read_relation(&mut pr)?;
        if !pr.is_empty() {
            return Err(StorageError::Format(format!(
                "result batch has {} trailing bytes",
                pr.remaining()
            )));
        }
        Ok(ResultBatch {
            schema,
            tuples,
            domains,
        })
    }

    /// Result relation name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of result rows.
    pub fn num_rows(&self) -> usize {
        self.tuples.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Per-output-column domains, resolved against the batch's own
    /// domain table.
    fn column_domains(&self) -> Vec<Option<&Domain>> {
        let mut domains: Vec<Option<&Domain>> = self
            .schema
            .key_columns()
            .map(|(_, col)| {
                col.domain_key()
                    .and_then(|k| self.domains.iter().find(|(n, _)| *n == k).map(|(_, d)| d))
            })
            .collect();
        domains.resize(self.tuples.arity(), None);
        domains
    }

    /// Decode one cell: the value the loader originally ingested for
    /// that column's domain; plain u32 columns decode as
    /// [`TypedValue::U32`].
    pub fn decode_value(&self, col: usize, id: u32) -> TypedValue {
        self.column_domains()
            .get(col)
            .copied()
            .flatten()
            .and_then(|d| d.decode(id))
            .unwrap_or(TypedValue::U32(id))
    }

    /// All result rows decoded to typed values.
    pub fn typed_rows(&self) -> Vec<Vec<TypedValue>> {
        let domains = self.column_domains();
        self.tuples
            .iter()
            .map(|r| {
                r.iter()
                    .zip(&domains)
                    .map(|(&id, &domain)| {
                        domain
                            .and_then(|d| d.decode(id))
                            .unwrap_or(TypedValue::U32(id))
                    })
                    .collect()
            })
            .collect()
    }

    /// Parallel annotation column, if the result carries one.
    pub fn annotations(&self) -> Option<&[DynValue]> {
        self.tuples.annotations()
    }

    /// For scalar (aggregate-only) results: the value.
    pub fn scalar(&self) -> Option<DynValue> {
        if self.tuples.arity() == 0 && !self.tuples.is_empty() {
            self.tuples.annot(0)
        } else {
            None
        }
    }

    /// Scalar as u64 (COUNT results).
    pub fn scalar_u64(&self) -> Option<u64> {
        self.scalar().map(|v| v.as_u64())
    }

    /// Scalar as f64 (SUM results).
    pub fn scalar_f64(&self) -> Option<f64> {
        self.scalar().map(|v| v.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::CsvOptions;
    use crate::encode::StorageCatalog;
    use std::io::Cursor;

    fn sample_batch() -> ResultBatch {
        let mut cat = StorageCatalog::new();
        let data = "src:str@user,dst:str@user\nalice,bob\nbob,carol\ncarol,alice\n";
        let (tuples, _) = cat
            .load_csv("Follows", Cursor::new(data), &CsvOptions::csv())
            .unwrap();
        let schema = cat.schema("Follows").unwrap().clone();
        let domains = vec![("user".to_string(), cat.domain("user").unwrap().clone())];
        ResultBatch {
            schema,
            tuples,
            domains,
        }
    }

    #[test]
    fn batch_round_trip_decodes_strings() {
        let batch = sample_batch();
        let bytes = batch.encode().unwrap();
        let back = ResultBatch::decode(&bytes).unwrap();
        assert_eq!(back.name(), "Follows");
        assert_eq!(back.num_rows(), 3);
        assert_eq!(back.tuples, batch.tuples);
        let rows = back.typed_rows();
        assert_eq!(
            rows[0],
            vec![
                TypedValue::Str("alice".into()),
                TypedValue::Str("bob".into())
            ]
        );
        // Encoding the decoded batch reproduces the bytes.
        assert_eq!(back.encode().unwrap(), bytes);
    }

    #[test]
    fn scalar_batch_round_trips() {
        let mut tuples = TupleBuffer::nullary(1);
        tuples.set_annotations(vec![DynValue::U64(42)]);
        let batch = ResultBatch {
            schema: RelationSchema::new("C"),
            tuples,
            domains: Vec::new(),
        };
        let back = ResultBatch::decode(&batch.encode().unwrap()).unwrap();
        assert_eq!(back.scalar_u64(), Some(42));
        assert_eq!(back.scalar_f64(), Some(42.0));
    }

    #[test]
    fn annotated_batch_preserves_f64_bits() {
        let mut tuples = TupleBuffer::from_rows(1, &[vec![0u32], vec![1]]);
        tuples.set_annotations(vec![DynValue::F64(0.1 + 0.2), DynValue::F64(-0.0)]);
        let schema = RelationSchema::new("S").column("x", ColumnType::U32);
        let batch = ResultBatch {
            schema,
            tuples,
            domains: Vec::new(),
        };
        let back = ResultBatch::decode(&batch.encode().unwrap()).unwrap();
        let annots = back.annotations().unwrap();
        assert_eq!(annots[0], DynValue::F64(0.1 + 0.2));
        assert_eq!(annots[1].as_f64().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn every_truncation_is_error() {
        let bytes = sample_batch().encode().unwrap();
        for len in 0..bytes.len() {
            assert!(
                ResultBatch::decode(&bytes[..len]).is_err(),
                "truncation at {len} must error"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_batch().encode().unwrap();
        bytes.push(0);
        assert!(ResultBatch::decode(&bytes).is_err());
    }

    #[test]
    fn hostile_domain_count_errors_before_allocating() {
        // domain_count=1, empty name, carrier 0 (u64), entries=u32::MAX,
        // no key bytes: must be a Format error, not a ~34 GB allocation.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 1);
        put_str(&mut bytes, "");
        bytes.push(0);
        put_u32(&mut bytes, u32::MAX);
        assert!(matches!(
            ResultBatch::decode(&bytes),
            Err(StorageError::Format(_))
        ));
    }

    #[test]
    fn unknown_column_decodes_as_u32() {
        let batch = sample_batch();
        // A domain the batch doesn't carry falls back to raw ids.
        let mut stripped = batch.clone();
        stripped.domains.clear();
        assert_eq!(stripped.decode_value(0, 1), TypedValue::U32(1));
        assert_eq!(batch.decode_value(0, 1), TypedValue::Str("bob".into()));
    }
}
