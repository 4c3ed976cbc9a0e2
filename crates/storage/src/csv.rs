//! Zero-dependency CSV/TSV bulk loading (paper §2.4: relations are
//! loaded once, encoded, and queried many times).
//!
//! The loader streams lines from any `BufRead`, reusing one line buffer
//! and one scratch id row — no per-row heap allocation — and encodes
//! fields straight through the catalog's dictionary domains into a flat
//! [`TupleBuffer`]. The column layout comes either from a registered
//! [`RelationSchema`] or from a `name:type[@domain]` header line.
//!
//! The format is deliberately simple: one record per line, fields split
//! by a configurable delimiter (or arbitrary whitespace), `#`-prefixed
//! comment lines, no quoting or escaping. Malformed rows (wrong field
//! count, unparsable numerics) either abort the load or are counted and
//! skipped, per [`MalformedPolicy`].

use crate::encode::{Domain, StorageCatalog};
use crate::schema::{ColumnDef, ColumnType, RelationSchema, StorageError};
use eh_semiring::DynValue;
use eh_trie::TupleBuffer;
use std::io::BufRead;

/// How fields are separated within a record line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delimiter {
    /// A single byte (`,` for CSV, `\t` for TSV).
    Byte(u8),
    /// Any run of ASCII whitespace (SNAP-style edge lists).
    Whitespace,
}

/// What to do with a row that doesn't match the schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MalformedPolicy {
    /// Abort the load with [`StorageError::Parse`].
    #[default]
    Error,
    /// Count the row in [`LoadReport::skipped`] and continue.
    Skip,
}

/// Loader configuration.
#[derive(Clone, Debug)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: Delimiter,
    /// Lines starting with this byte are ignored (default `#`).
    pub comment: Option<u8>,
    /// Whether the first record line is a header (default `true`).
    pub has_header: bool,
    /// Malformed-row policy (default [`MalformedPolicy::Error`]).
    pub malformed: MalformedPolicy,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions::csv()
    }
}

impl CsvOptions {
    /// Comma-separated values with a header line.
    pub fn csv() -> CsvOptions {
        CsvOptions {
            delimiter: Delimiter::Byte(b','),
            comment: Some(b'#'),
            has_header: true,
            malformed: MalformedPolicy::Error,
        }
    }

    /// Tab-separated values with a header line.
    pub fn tsv() -> CsvOptions {
        CsvOptions {
            delimiter: Delimiter::Byte(b'\t'),
            ..CsvOptions::csv()
        }
    }

    /// Whitespace-separated, headerless (SNAP edge-list convention).
    pub fn edge_list() -> CsvOptions {
        CsvOptions {
            delimiter: Delimiter::Whitespace,
            has_header: false,
            ..CsvOptions::csv()
        }
    }

    /// Options for a file path, by extension: `.tsv`/`.txt` → TSV,
    /// anything else → CSV.
    pub fn for_path(path: &std::path::Path) -> CsvOptions {
        match path.extension().and_then(|e| e.to_str()) {
            Some("tsv") | Some("txt") => CsvOptions::tsv(),
            _ => CsvOptions::csv(),
        }
    }

    /// Same options, skipping malformed rows instead of erroring.
    pub fn skip_malformed(mut self) -> CsvOptions {
        self.malformed = MalformedPolicy::Skip;
        self
    }

    /// Same options with another field delimiter byte.
    pub fn delimiter(mut self, byte: u8) -> CsvOptions {
        self.delimiter = Delimiter::Byte(byte);
        self
    }
}

/// What a load did: accepted row count plus skipped malformed rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Rows encoded into the buffer.
    pub rows: usize,
    /// Malformed rows dropped under [`MalformedPolicy::Skip`].
    pub skipped: usize,
}

/// Parse a header line into column definitions.
pub fn parse_header(line: &str, delimiter: Delimiter) -> Result<Vec<ColumnDef>, StorageError> {
    let cells: Vec<&str> = match delimiter {
        Delimiter::Byte(b) => line.split(b as char).collect(),
        Delimiter::Whitespace => line.split_whitespace().collect(),
    };
    let mut cols = Vec::with_capacity(cells.len());
    for cell in cells {
        cols.push(ColumnDef::parse(cell)?);
    }
    Ok(cols)
}

/// Per-column encode plan, resolved once before the row loop so the
/// hot path never consults the schema or the domain map.
enum FieldPlan {
    /// `u32` pass-through.
    PassU32,
    /// `f64` → annotation.
    Annot,
    /// Dictionary column; index into the checked-out domain list.
    Dict(usize),
}

impl StorageCatalog {
    /// Load records from `reader` under an explicit schema (registered as
    /// a side effect). When `opts.has_header` the first record line is
    /// skipped (the schema wins). A failed load rolls the registration
    /// back, so an aborted relation never resurfaces (e.g. as an empty
    /// relation in a later image save).
    pub fn load_csv_schema<R: BufRead>(
        &mut self,
        schema: RelationSchema,
        reader: R,
        opts: &CsvOptions,
    ) -> Result<(TupleBuffer, LoadReport), StorageError> {
        self.load_under_schema(schema, |cat, schema| {
            cat.stream_rows(schema, reader, opts, opts.has_header, 0)
        })
    }

    /// Load records whose first line is a `name:type[@domain]` header
    /// describing the columns; the schema is registered under `relation`.
    pub fn load_csv<R: BufRead>(
        &mut self,
        relation: &str,
        mut reader: R,
        opts: &CsvOptions,
    ) -> Result<(TupleBuffer, LoadReport), StorageError> {
        let mut line = String::new();
        let mut consumed = 0usize;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(StorageError::Format(format!(
                    "'{relation}': no header line found"
                )));
            }
            consumed += 1;
            let text = line.trim_end_matches(['\n', '\r']);
            if text.trim().is_empty() || is_comment(text, opts) {
                continue;
            }
            let columns = parse_header(text, opts.delimiter)?;
            let schema = RelationSchema {
                name: relation.to_string(),
                columns,
                combine: eh_semiring::AggOp::Sum,
            };
            // Header already consumed; don't skip another line.
            return self.load_under_schema(schema, |cat, schema| {
                cat.stream_rows(schema, reader, opts, false, consumed)
            });
        }
    }

    /// The shared row loop: check out the schema's domains, encode every
    /// record line, put the domains back.
    fn stream_rows<R: BufRead>(
        &mut self,
        schema: &RelationSchema,
        reader: R,
        opts: &CsvOptions,
        skip_header: bool,
        lines_consumed: usize,
    ) -> Result<(TupleBuffer, LoadReport), StorageError> {
        // Check the needed domains out of the map so the per-field path
        // is a Vec index, not a BTreeMap lookup. Shared domains appear
        // once; every column stores its slot.
        let mut doms: Vec<(String, Domain)> = Vec::new();
        let mut plan: Vec<FieldPlan> = Vec::with_capacity(schema.columns.len());
        for col in &schema.columns {
            match col.ty {
                ColumnType::U32 => plan.push(FieldPlan::PassU32),
                ColumnType::F64 => plan.push(FieldPlan::Annot),
                _ => {
                    let key = col.domain_key().expect("dictionary column");
                    let slot = match doms.iter().position(|(k, _)| *k == key) {
                        Some(i) => i,
                        None => {
                            let dom = self.domains_take(&key)?;
                            doms.push((key, dom));
                            doms.len() - 1
                        }
                    };
                    plan.push(FieldPlan::Dict(slot));
                }
            }
        }
        let result = stream_rows_inner(
            schema,
            &plan,
            &mut doms,
            reader,
            opts,
            skip_header,
            lines_consumed,
        );
        for (key, dom) in doms {
            self.insert_domain(key, dom);
        }
        result
    }

    /// Remove a domain from the map for checkout.
    fn domains_take(&mut self, key: &str) -> Result<Domain, StorageError> {
        self.take_domain(key)
            .ok_or_else(|| StorageError::Schema(format!("unregistered domain '{key}'")))
    }
}

/// The record loop proper, independent of the catalog borrow.
/// `lines_consumed` offsets reported line numbers past an
/// already-consumed header so errors cite physical file lines.
#[allow(clippy::too_many_arguments)]
fn stream_rows_inner<R: BufRead>(
    schema: &RelationSchema,
    plan: &[FieldPlan],
    doms: &mut [(String, Domain)],
    mut reader: R,
    opts: &CsvOptions,
    mut skip_header: bool,
    lines_consumed: usize,
) -> Result<(TupleBuffer, LoadReport), StorageError> {
    let mut buf = TupleBuffer::new(schema.arity());
    let annotated = schema.annot_column().is_some();
    let mut report = LoadReport::default();
    let mut line = String::new();
    let mut scratch: Vec<u32> = Vec::with_capacity(schema.arity());
    let mut lineno = lines_consumed;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let text = line.trim_end_matches(['\n', '\r']);
        if text.trim().is_empty() || is_comment(text, opts) {
            continue;
        }
        if skip_header {
            skip_header = false;
            continue;
        }
        scratch.clear();
        let mut annot = DynValue::F64(0.0);
        let mut fields = 0usize;
        let mut bad: Option<String> = None;
        let field_iter: Box<dyn Iterator<Item = &str>> = match opts.delimiter {
            Delimiter::Byte(b) => Box::new(text.split(b as char)),
            Delimiter::Whitespace => Box::new(text.split_whitespace()),
        };
        for field in field_iter {
            if fields == plan.len() {
                fields += 1; // too many fields
                break;
            }
            match &plan[fields] {
                FieldPlan::PassU32 => match field.trim().parse::<u32>() {
                    Ok(v) => scratch.push(v),
                    Err(_) => {
                        bad = Some(format!("'{}' is not a u32", field.trim()));
                        break;
                    }
                },
                FieldPlan::Annot => match field.trim().parse::<f64>() {
                    Ok(v) => annot = DynValue::F64(v),
                    Err(_) => {
                        bad = Some(format!("'{}' is not an f64", field.trim()));
                        break;
                    }
                },
                FieldPlan::Dict(slot) => match doms[*slot].1.encode_text(field) {
                    Ok(id) => scratch.push(id),
                    Err(msg) => {
                        bad = Some(msg);
                        break;
                    }
                },
            }
            fields += 1;
        }
        if bad.is_none() && fields != plan.len() {
            bad = Some(format!("expected {} fields, got {fields}", plan.len()));
        }
        if let Some(msg) = bad {
            match opts.malformed {
                MalformedPolicy::Error => return Err(StorageError::Parse { line: lineno, msg }),
                MalformedPolicy::Skip => {
                    report.skipped += 1;
                    continue;
                }
            }
        }
        if annotated {
            buf.push_annotated(&scratch, annot);
        } else {
            buf.push_row(&scratch);
        }
        report.rows += 1;
    }
    Ok((buf, report))
}

fn is_comment(text: &str, opts: &CsvOptions) -> bool {
    match opts.comment {
        Some(c) => text.as_bytes().first() == Some(&c),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TypedValue;
    use std::io::Cursor;

    #[test]
    fn header_driven_tsv() {
        let data = "# social edges\nsrc:str@user\tdst:str@user\nalice\tbob\nbob\tcarol\n";
        let mut cat = StorageCatalog::new();
        let (buf, rep) = cat
            .load_csv("Follows", Cursor::new(data), &CsvOptions::tsv())
            .unwrap();
        assert_eq!(
            rep,
            LoadReport {
                rows: 2,
                skipped: 0
            }
        );
        assert_eq!(buf.arity(), 2);
        assert_eq!(
            cat.decode_key("Follows", 0, buf.row(1)[1]),
            Some(TypedValue::Str("carol".into()))
        );
    }

    #[test]
    fn schema_driven_csv_with_annotation() {
        let schema = RelationSchema::parse("R(k:u64, w:f64)").unwrap();
        let data = "100,0.5\n7,1.25\n";
        let mut cat = StorageCatalog::new();
        let (buf, rep) = cat
            .load_csv_schema(
                schema,
                Cursor::new(data),
                &CsvOptions {
                    has_header: false,
                    ..CsvOptions::csv()
                },
            )
            .unwrap();
        assert_eq!(rep.rows, 2);
        assert_eq!(buf.arity(), 1);
        assert_eq!(buf.annot(1), Some(DynValue::F64(1.25)));
        assert_eq!(buf.row(0), &[0], "u64 dictionary-encoded densely");
    }

    #[test]
    fn schema_driven_skips_header_line() {
        let schema = RelationSchema::parse("E(s:u32, d:u32)").unwrap();
        let data = "s:u32,d:u32\n1,2\n";
        let mut cat = StorageCatalog::new();
        let (buf, _) = cat
            .load_csv_schema(schema, Cursor::new(data), &CsvOptions::csv())
            .unwrap();
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.row(0), &[1, 2]);
    }

    #[test]
    fn whitespace_edge_list() {
        let data = "# comment\n0 1\n1   2\n";
        let schema = RelationSchema::parse("E(s:u64@node, d:u64@node)").unwrap();
        let mut cat = StorageCatalog::new();
        let (buf, rep) = cat
            .load_csv_schema(schema, Cursor::new(data), &CsvOptions::edge_list())
            .unwrap();
        assert_eq!(rep.rows, 2);
        assert_eq!(buf.row(1), &[1, 2]);
    }

    #[test]
    fn malformed_policy_error_vs_skip() {
        let data = "k:u32,w:f64\n1,0.5\noops,1\n2\n3,2.5\n";
        let mut cat = StorageCatalog::new();
        let err = cat.load_csv("R", Cursor::new(data), &CsvOptions::csv());
        assert!(matches!(err, Err(StorageError::Parse { line: 3, .. })));
        let mut cat = StorageCatalog::new();
        let (buf, rep) = cat
            .load_csv("R", Cursor::new(data), &CsvOptions::csv().skip_malformed())
            .unwrap();
        assert_eq!(
            rep,
            LoadReport {
                rows: 2,
                skipped: 2
            }
        );
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn too_many_fields_is_malformed() {
        let data = "a:u32\n1,2\n";
        let mut cat = StorageCatalog::new();
        assert!(cat
            .load_csv("R", Cursor::new(data), &CsvOptions::csv())
            .is_err());
    }

    #[test]
    fn empty_input_has_no_header() {
        let mut cat = StorageCatalog::new();
        let r = cat.load_csv("R", Cursor::new(""), &CsvOptions::csv());
        assert!(matches!(r, Err(StorageError::Format(_))));
    }

    #[test]
    fn custom_delimiter() {
        let data = "a:str|b:str\nx|y\n";
        let mut cat = StorageCatalog::new();
        let (buf, _) = cat
            .load_csv("R", Cursor::new(data), &CsvOptions::csv().delimiter(b'|'))
            .unwrap();
        assert_eq!(buf.len(), 1);
    }
}
