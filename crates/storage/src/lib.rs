//! The EmptyHeaded storage layer: typed catalog, dictionary-encoded
//! ingest, and on-disk database images (paper §2.2 "Dictionary
//! Encoding", §2.4 loading).
//!
//! The engine's front door is not a u32 array. Real relations arrive as
//! text files over arbitrary attribute types — string ids, 64-bit keys,
//! float payloads — and the paper's pipeline dictionary-encodes them
//! into dense u32s (whose assignment order determines set density),
//! then persists the encoded database so queries run against a loaded
//! image, paying the encode cost once. This crate is that pipeline:
//!
//! * [`schema`] — typed relation schemas: per-column [`ColumnType`]s
//!   (`u32 | u64 | i64 | f64 | str`), shared dictionary *domains* so
//!   joined columns encode consistently, and the [`TypedValue`] /
//!   [`StorageError`] vocabulary.
//! * [`encode`] — the [`StorageCatalog`]: schemas plus their
//!   [`Domain`] dictionaries, encoding typed rows straight into flat
//!   [`eh_trie::TupleBuffer`]s (`f64` payloads become the semiring
//!   annotation column).
//! * [`csv`] — a zero-dependency CSV/TSV/edge-list bulk loader
//!   (header- or schema-driven, configurable delimiter, comment lines,
//!   malformed-row policy) that streams rows with no per-row
//!   allocation.
//! * [`image`] — the versioned little-endian binary image format
//!   (magic + schemas + dictionaries + flat column data, per-section
//!   FNV-1a checksums) behind [`save_image`] / [`load_image`]; corrupt
//!   inputs error, loads are byte-stable under re-save.
//! * [`wire`] — the byte-level vocabulary shared by the image format
//!   and the query server ([`ByteReader`], length-prefixed strings),
//!   plus [`ResultBatch`]: a self-describing typed result (schema +
//!   tuples + referenced dictionary domains) that decodes client-side
//!   without any shared state with the server.
//!
//! `eh_core::Database` wires this into the query stack: `load_csv`
//! ingests files, `save`/`open` persist whole databases, and query
//! results decode back to typed rows through the catalog's
//! dictionaries.

pub mod csv;
pub mod encode;
pub mod image;
pub mod schema;
pub mod trace_wire;
pub mod wire;

pub use csv::{CsvOptions, Delimiter, LoadReport, MalformedPolicy};
pub use encode::{Domain, StorageCatalog};
pub use image::{load_image, save_image, LoadedImage, IMAGE_MAGIC, IMAGE_VERSION};
pub use schema::{ColumnDef, ColumnType, RelationSchema, StorageError, TypedValue};
pub use trace_wire::{decode_trace, encode_trace};
pub use wire::{ByteReader, ResultBatch};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// The crate-level happy path: text → typed catalog → image → text.
    #[test]
    fn ingest_save_load_decode() {
        let mut cat = StorageCatalog::new();
        let (buf, report) = cat
            .load_csv(
                "Follows",
                Cursor::new("src:str@user,dst:str@user\nalice,bob\nbob,alice\n"),
                &CsvOptions::csv(),
            )
            .unwrap();
        assert_eq!(report.rows, 2);
        let mut bytes = Vec::new();
        save_image(&mut bytes, &cat, &[("Follows", &buf)]).unwrap();
        let img = load_image(Cursor::new(&bytes)).unwrap();
        let (_, reloaded) = &img.relations[0];
        let decoded: Vec<(TypedValue, TypedValue)> = reloaded
            .iter()
            .map(|r| {
                (
                    img.catalog.decode_key("Follows", 0, r[0]).unwrap(),
                    img.catalog.decode_key("Follows", 1, r[1]).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            decoded,
            vec![
                (
                    TypedValue::Str("alice".into()),
                    TypedValue::Str("bob".into())
                ),
                (
                    TypedValue::Str("bob".into()),
                    TypedValue::Str("alice".into())
                ),
            ]
        );
    }
}
