//! Wire encoding for distributed traces (`eh_obs::Trace`).
//!
//! Same vocabulary as the rest of the wire layer — little-endian
//! [`ByteReader`]/`put_*` primitives, every length bounds-checked — plus
//! one addition the result payloads don't need: a trailing 64-bit
//! FNV-1a checksum over the body. This is the one observability codec:
//! a profiled execution's estimated/observed work and row counts ride
//! as values on the root span. Traces are the one payload that is
//! *re-shipped* (a worker's trace rides inside its result frame, is
//! decoded by the coordinator, re-encoded into the stitched tree, and
//! possibly logged), so corruption should be caught at the
//! first hop, not after stitching. FNV-1a's per-byte step
//! `h ← (h ⊕ b) · p` is a bijection in `h`, so any error confined to a
//! single byte — in particular every single-bit flip — is *guaranteed*
//! to change the checksum and fail the decode.
//!
//! This module is covered by the `decode-panic-free` lint region: no
//! `unwrap`/`expect`/indexing on the decode path, hostile counts are
//! clamped against the bytes actually remaining, and span recursion is
//! capped at [`eh_obs::MAX_SPAN_DEPTH`] so a crafted payload cannot
//! overflow the stack.

use crate::schema::StorageError;
use crate::wire::{put_str, put_u32, put_u64, ByteReader};
use eh_obs::{Span, Trace, WorkCounters, MAX_SPAN_DEPTH};

/// Tag byte identifying the trace payload layout.
const TRACE_VERSION: u8 = 1;

/// Fewest bytes a serialized span can occupy (empty name, no values,
/// no children): 4 (name len) + 8 + 8 + 4 (value count) + 4 (child
/// count). Used to clamp hostile child counts before allocating.
const MIN_SPAN_BYTES: usize = 28;

/// Fewest bytes one span value can occupy: 4 (key len) + 8 (value).
const MIN_VALUE_BYTES: usize = 12;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_work(out: &mut Vec<u8>, w: &WorkCounters) {
    put_u64(out, w.values_scanned);
    put_u64(out, w.intersections);
    put_u64(out, w.merge_kernels);
    put_u64(out, w.gallop_kernels);
    put_u64(out, w.bitset_kernels);
    put_u64(out, w.count_fast_hits);
    put_u64(out, w.relayouts);
}

fn read_work(r: &mut ByteReader<'_>) -> Result<WorkCounters, StorageError> {
    Ok(WorkCounters {
        values_scanned: r.u64("values scanned")?,
        intersections: r.u64("intersections")?,
        merge_kernels: r.u64("merge kernels")?,
        gallop_kernels: r.u64("gallop kernels")?,
        bitset_kernels: r.u64("bitset kernels")?,
        count_fast_hits: r.u64("count fast hits")?,
        relayouts: r.u64("relayouts")?,
    })
}

fn put_span(out: &mut Vec<u8>, span: &Span, depth: usize) {
    put_str(out, &span.name);
    put_u64(out, span.start_ns_rel);
    put_u64(out, span.elapsed_ns);
    put_u32(out, span.values.len() as u32);
    for (k, v) in &span.values {
        put_str(out, k);
        put_u64(out, *v);
    }
    if depth + 1 >= MAX_SPAN_DEPTH {
        // Children beyond the depth cap are dropped, mirroring the
        // decoder's refusal to recurse past it. Real trees are ~4 deep.
        put_u32(out, 0);
        return;
    }
    put_u32(out, span.children.len() as u32);
    for c in &span.children {
        put_span(out, c, depth + 1);
    }
}

fn read_span(r: &mut ByteReader<'_>, depth: usize) -> Result<Span, StorageError> {
    if depth >= MAX_SPAN_DEPTH {
        return Err(StorageError::Format(format!(
            "span tree deeper than {MAX_SPAN_DEPTH} levels"
        )));
    }
    let name = r.str("span name")?;
    let start_ns_rel = r.u64("span start")?;
    let elapsed_ns = r.u64("span elapsed")?;
    let nvalues = r.u32("span value count")? as usize;
    if nvalues > r.remaining() / MIN_VALUE_BYTES {
        return Err(StorageError::Format(format!(
            "span claims {nvalues} values with {} bytes left",
            r.remaining()
        )));
    }
    let mut values = Vec::with_capacity(nvalues);
    for _ in 0..nvalues {
        let k = r.str("span value key")?;
        let v = r.u64("span value")?;
        values.push((k, v));
    }
    let nchildren = r.u32("span child count")? as usize;
    if nchildren > r.remaining() / MIN_SPAN_BYTES {
        return Err(StorageError::Format(format!(
            "span claims {nchildren} children with {} bytes left",
            r.remaining()
        )));
    }
    let mut children = Vec::with_capacity(nchildren);
    for _ in 0..nchildren {
        children.push(read_span(r, depth + 1)?);
    }
    Ok(Span {
        name,
        start_ns_rel,
        elapsed_ns,
        values,
        children,
    })
}

/// Encode a trace (the transport adds its own framing). The final 8
/// bytes are the FNV-1a checksum of everything before them.
pub fn encode_trace(t: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(TRACE_VERSION);
    put_u64(&mut out, t.trace_id);
    put_work(&mut out, &t.work);
    put_span(&mut out, &t.root, 0);
    let sum = fnv1a64(&out);
    put_u64(&mut out, sum);
    out
}

/// Decode bytes written by [`encode_trace`]. The checksum is verified
/// before any field is parsed, so every truncation and every
/// single-bit flip of a valid payload is an error — never a panic, and
/// never a silently wrong trace.
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, StorageError> {
    if bytes.len() < 9 {
        return Err(StorageError::Format(format!(
            "trace payload too short: {} bytes",
            bytes.len()
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let mut r = ByteReader::new(trailer);
    let stored = r.u64("trace checksum")?;
    if fnv1a64(body) != stored {
        return Err(StorageError::Format(
            "trace checksum mismatch (corrupt or truncated payload)".to_string(),
        ));
    }
    let mut r = ByteReader::new(body);
    let version = r.u8("trace version")?;
    if version != TRACE_VERSION {
        return Err(StorageError::Format(format!(
            "unsupported trace version {version} (expected {TRACE_VERSION})"
        )));
    }
    let trace_id = r.u64("trace id")?;
    let work = read_work(&mut r)?;
    let root = read_span(&mut r, 0)?;
    if !r.is_empty() {
        return Err(StorageError::Format(format!(
            "trace has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(Trace {
        trace_id,
        work,
        root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            trace_id: 0xdead_beef_0000_0001,
            work: WorkCounters {
                values_scanned: 123,
                intersections: 45,
                merge_kernels: 6,
                gallop_kernels: 7,
                bitset_kernels: 8,
                count_fast_hits: 9,
                relayouts: 1,
            },
            root: Span::new("cluster", 0, 5_000_000)
                .with_value("rows", 42)
                .with_child(
                    Span::new("worker 0", 1_000, 2_000_000)
                        .with_value("morsels", 3)
                        .with_child(Span::new("node 0", 0, 1_500_000)),
                )
                .with_child(Span::new("merge", 4_000_000, 900_000)),
        }
    }

    #[test]
    fn round_trips_losslessly() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        assert_eq!(decode_trace(&bytes).unwrap(), t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::default();
        assert_eq!(decode_trace(&encode_trace(&t)).unwrap(), t);
    }

    #[test]
    fn every_prefix_truncation_errors() {
        let bytes = encode_trace(&sample_trace());
        for cut in 0..bytes.len() {
            assert!(
                decode_trace(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_errors() {
        let bytes = encode_trace(&sample_trace());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    decode_trace(&corrupt).is_err(),
                    "flip of byte {byte} bit {bit} decoded"
                );
            }
        }
    }

    #[test]
    fn rejects_wrong_version_even_with_valid_checksum() {
        let mut body = vec![9u8]; // bad version
        put_u64(&mut body, 1);
        let sum = fnv1a64(&body);
        put_u64(&mut body, sum);
        let err = decode_trace(&body).unwrap_err();
        assert!(format!("{err:?}").contains("version"));
    }

    #[test]
    fn rejects_hostile_counts_without_allocating() {
        // A span claiming 4 billion children with a valid checksum must
        // fail on the count clamp, not attempt the allocation.
        let mut body = vec![TRACE_VERSION];
        put_u64(&mut body, 1); // trace id
        for _ in 0..7 {
            put_u64(&mut body, 0); // work counters
        }
        put_str(&mut body, "root");
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u32(&mut body, 0); // values
        put_u32(&mut body, u32::MAX); // children
        let sum = fnv1a64(&body);
        put_u64(&mut body, sum);
        let err = decode_trace(&body).unwrap_err();
        assert!(format!("{err:?}").contains("children"));
    }

    #[test]
    fn rejects_depth_bomb() {
        // Hand-encode a chain nested past MAX_SPAN_DEPTH.
        let mut body = vec![TRACE_VERSION];
        put_u64(&mut body, 1);
        for _ in 0..7 {
            put_u64(&mut body, 0);
        }
        for _ in 0..=MAX_SPAN_DEPTH {
            put_str(&mut body, "s");
            put_u64(&mut body, 0);
            put_u64(&mut body, 0);
            put_u32(&mut body, 0); // values
            put_u32(&mut body, 1); // one child
        }
        // Innermost leaf.
        put_str(&mut body, "leaf");
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u32(&mut body, 0);
        put_u32(&mut body, 0);
        let sum = fnv1a64(&body);
        put_u64(&mut body, sum);
        let err = decode_trace(&body).unwrap_err();
        assert!(format!("{err:?}").contains("deeper"));
    }

    #[test]
    fn encoder_caps_depth_to_what_the_decoder_accepts() {
        let mut root = Span::new("s0", 0, 0);
        {
            let mut cursor = &mut root;
            for i in 1..(MAX_SPAN_DEPTH + 8) {
                cursor.children.push(Span::new(format!("s{i}"), 0, 0));
                cursor = &mut cursor.children[0];
            }
        }
        let t = Trace {
            trace_id: 1,
            work: WorkCounters::default(),
            root,
        };
        let decoded = decode_trace(&encode_trace(&t)).unwrap();
        assert_eq!(decoded.root.depth(), MAX_SPAN_DEPTH);
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Valid body + junk, re-checksummed: parsing must still reject.
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let mut body = bytes[..bytes.len() - 8].to_vec();
        body.push(0xee);
        let sum = fnv1a64(&body);
        put_u64(&mut body, sum);
        let err = decode_trace(&body).unwrap_err();
        assert!(format!("{err:?}").contains("trailing"));
    }
}
