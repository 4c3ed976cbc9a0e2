//! Flat columnar tuple storage: the engine's interchange format.
//!
//! EmptyHeaded's performance story rests on flat, cache-friendly data
//! representations (paper §2.2, Figure 2): tuples never travel as
//! per-row heap allocations. A [`TupleBuffer`] stores `len` rows of a
//! fixed `arity` as one stride-`arity` `Vec<u32>` (row-major), with an
//! optional parallel annotation column for semiring-valued relations —
//! never as a nested `Vec<Vec<u32>>` (the `columnar` rule of `eh_lint`
//! enforces that token-wise across the engine crates; mentioning the
//! banned type in prose here is fine, which the old grep gate got wrong).
//! Every pipeline stage — loaders, trie construction, Generic-Join
//! sinks, recursion deltas, result materialization — reads and writes
//! this layout; row views are borrowed slices into the flat buffer.
//!
//! Sorted construction ([`TupleBuffer::sorted_dedup`] and its owned and
//! chunk-parallel siblings) **sorts keys, not permutations**. A row of
//! arity 1 or 2 is its own fixed-width key: the flat buffer is viewed as
//! `[u32; arity]` units (an annotated buffer appends the row index as
//! one more `u32`, which is how a row finds its annotation afterwards)
//! and a stable LSD radix sort moves the units themselves between the
//! buffer and one scratch of the same size — every pass reads
//! sequentially, one counting sweep up front fills the histograms of
//! every pass, and only the 8-bit digits a column's values
//! actually populate get a pass. An owned, unannotated buffer is sorted
//! and deduplicated in place: the phase's peak is the buffer plus one
//! scratch. Rows of arity ≥ 3 keep the permutation sort
//! ([`TupleBuffer::sort_perm`]: the same passes over row *indices*, then
//! one gather) — moving a wide row once per pass costs more than the
//! indirection saves — and that sort doubles as the test oracle for the
//! packed one. Of the benchmark's statements, only `cluster_scatter`'s
//! triangle listing `TL(x,y,z)` reaches it: its arity-3 sink buffer goes
//! through `sink::finalize` → [`TupleBuffer::into_sorted_dedup`], two
//! sorts per operation (9 466 and 255 rows under `--smoke`). A planner
//! that priced output order, emitting rows already in head order, would
//! skip both. The packed and the permutation sort are both stable, so
//! duplicate rows' annotations ⊕-fold in original row order whichever
//! ran. Large builds fan out over
//! `std::thread::scope` (chunks sorted independently, then
//! [`merge_sorted_runs`]).

use eh_semiring::{AggOp, DynValue};

/// A flat, row-major buffer of fixed-arity u32 tuples with an optional
/// parallel annotation column.
#[derive(Clone, Debug, PartialEq)]
pub struct TupleBuffer {
    arity: usize,
    /// Row count, tracked explicitly so arity-0 (scalar) relations can
    /// still hold rows.
    len: usize,
    /// `len * arity` values, row-major.
    data: Vec<u32>,
    /// One annotation per row, when the relation is annotated.
    annots: Option<Vec<DynValue>>,
}

impl Default for TupleBuffer {
    fn default() -> Self {
        TupleBuffer::new(0)
    }
}

impl TupleBuffer {
    /// Empty buffer of the given arity.
    pub fn new(arity: usize) -> TupleBuffer {
        TupleBuffer {
            arity,
            len: 0,
            data: Vec::new(),
            annots: None,
        }
    }

    /// Empty buffer with room for `rows` tuples.
    pub fn with_capacity(arity: usize, rows: usize) -> TupleBuffer {
        TupleBuffer {
            arity,
            len: 0,
            data: Vec::with_capacity(rows * arity),
            annots: None,
        }
    }

    /// Buffer over an already-flat `len * arity` value vector.
    pub fn from_flat(arity: usize, data: Vec<u32>) -> TupleBuffer {
        assert!(arity > 0, "from_flat needs arity >= 1; use nullary()");
        assert_eq!(data.len() % arity, 0, "flat data must be whole rows");
        TupleBuffer {
            arity,
            len: data.len() / arity,
            data,
            annots: None,
        }
    }

    /// Arity-0 buffer holding `rows` empty tuples (scalar relations).
    pub fn nullary(rows: usize) -> TupleBuffer {
        TupleBuffer {
            arity: 0,
            len: rows,
            data: Vec::new(),
            annots: None,
        }
    }

    /// Adapter from row-per-allocation form: the one way tests and
    /// examples turn rows into tuples (the engine's hot paths never use
    /// it).
    pub fn from_rows<R: AsRef<[u32]>>(arity: usize, rows: &[R]) -> TupleBuffer {
        let mut buf = TupleBuffer::with_capacity(arity, rows.len());
        for r in rows {
            let r = r.as_ref();
            assert_eq!(r.len(), arity, "row arity mismatch");
            buf.data.extend_from_slice(r);
            buf.len += 1;
        }
        buf
    }

    /// Adapter from rows plus a parallel annotation column.
    pub fn from_annotated_rows<R: AsRef<[u32]>>(
        arity: usize,
        rows: &[R],
        annots: Vec<DynValue>,
    ) -> TupleBuffer {
        assert_eq!(rows.len(), annots.len(), "one annotation per row");
        let mut buf = TupleBuffer::from_rows(arity, rows);
        buf.annots = Some(annots);
        buf
    }

    /// Arity-2 buffer straight from an edge list — the graph loaders'
    /// path into the engine, no per-tuple allocation.
    pub fn from_pairs(pairs: &[(u32, u32)]) -> TupleBuffer {
        let mut data = Vec::with_capacity(pairs.len() * 2);
        for &(a, b) in pairs {
            data.push(a);
            data.push(b);
        }
        TupleBuffer {
            arity: 2,
            len: pairs.len(),
            data,
            annots: None,
        }
    }

    /// Number of attributes per tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i` as a borrowed slice.
    pub fn row(&self, i: usize) -> &[u32] {
        debug_assert!(i < self.len);
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// The raw flat values (`len * arity`, row-major).
    pub fn flat(&self) -> &[u32] {
        &self.data
    }

    /// Annotation of row `i`, when the buffer is annotated.
    pub fn annot(&self, i: usize) -> Option<DynValue> {
        self.annots.as_ref().map(|a| a[i])
    }

    /// The annotation column, if present.
    pub fn annotations(&self) -> Option<&[DynValue]> {
        self.annots.as_deref()
    }

    /// Whether rows carry annotations.
    pub fn is_annotated(&self) -> bool {
        self.annots.is_some()
    }

    /// The annotation column for in-place updates (e.g. applying a head
    /// expression to already-grouped aggregates), if present.
    pub fn annotations_mut(&mut self) -> Option<&mut [DynValue]> {
        self.annots.as_deref_mut()
    }

    /// Attach an annotation column (must cover every row).
    pub fn set_annotations(&mut self, annots: Vec<DynValue>) {
        assert_eq!(annots.len(), self.len, "one annotation per row");
        self.annots = Some(annots);
    }

    /// Drop the annotation column (semijoin projections).
    pub fn drop_annotations(&mut self) {
        self.annots = None;
    }

    /// Ensure an annotation column exists, filling with `value` if absent.
    pub fn fill_annotations(&mut self, value: DynValue) {
        if self.annots.is_none() {
            self.annots = Some(vec![value; self.len]);
        }
    }

    /// Append one row.
    pub fn push_row(&mut self, row: &[u32]) {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        assert!(
            self.annots.is_none(),
            "annotated buffer needs push_annotated"
        );
        self.data.extend_from_slice(row);
        self.len += 1;
    }

    /// Append one row with its annotation. The buffer must be annotated
    /// (or still empty, in which case it becomes annotated).
    pub fn push_annotated(&mut self, row: &[u32], annot: DynValue) {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        if self.annots.is_none() {
            assert_eq!(self.len, 0, "cannot annotate a non-empty plain buffer");
            self.annots = Some(Vec::new());
        }
        self.data.extend_from_slice(row);
        self.len += 1;
        self.annots.as_mut().unwrap().push(annot);
    }

    /// Append one row from a value iterator (lets callers emit gathered
    /// columns without a temporary row allocation).
    pub fn extend_row(&mut self, values: impl IntoIterator<Item = u32>) {
        assert!(
            self.annots.is_none(),
            "annotated buffer needs extend_row_annotated"
        );
        let before = self.data.len();
        self.data.extend(values);
        debug_assert_eq!(self.data.len() - before, self.arity, "row arity mismatch");
        self.len += 1;
    }

    /// Append one row from a value iterator together with its annotation.
    pub fn extend_row_annotated(&mut self, values: impl IntoIterator<Item = u32>, annot: DynValue) {
        if self.annots.is_none() {
            assert_eq!(self.len, 0, "cannot annotate a non-empty plain buffer");
            self.annots = Some(Vec::new());
        }
        let before = self.data.len();
        self.data.extend(values);
        debug_assert_eq!(self.data.len() - before, self.arity, "row arity mismatch");
        self.len += 1;
        self.annots.as_mut().unwrap().push(annot);
    }

    /// Bulk append another buffer of the same shape — the per-thread sink
    /// merge path: one `extend_from_slice`, no per-row work.
    pub fn append(&mut self, other: &TupleBuffer) {
        assert_eq!(self.arity, other.arity, "arity mismatch in append");
        let was_empty = self.is_empty();
        match (&mut self.annots, &other.annots) {
            (Some(a), Some(b)) => a.extend_from_slice(b),
            (None, Some(b)) => {
                assert!(was_empty, "annotation mismatch in append");
                self.annots = Some(b.clone());
            }
            (Some(_), None) => {
                assert!(other.is_empty(), "annotation mismatch in append");
            }
            (None, None) => {}
        }
        self.data.extend_from_slice(&other.data);
        self.len += other.len;
    }

    /// Gather columns into a new buffer: `order[k]` is the source column
    /// of output column `k`. Accepts any subset/permutation, so this is
    /// both the trie cache's column reorder and the executor's projection.
    pub fn reorder(&self, order: &[usize]) -> TupleBuffer {
        debug_assert!(order.iter().all(|&c| c < self.arity));
        let mut data = Vec::with_capacity(self.len * order.len());
        for i in 0..self.len {
            let row = &self.data[i * self.arity..(i + 1) * self.arity];
            for &c in order {
                data.push(row[c]);
            }
        }
        TupleBuffer {
            arity: order.len(),
            len: self.len,
            data,
            annots: self.annots.clone(),
        }
    }

    /// Iterate rows as borrowed slices.
    pub fn iter(&self) -> TupleIter<'_> {
        TupleIter { buf: self, next: 0 }
    }

    /// Linear membership probe (test/diagnostic convenience).
    pub fn contains_row(&self, row: &[u32]) -> bool {
        self.iter().any(|r| r == row)
    }

    /// Stable permutation of row indices that sorts rows
    /// lexicographically: LSD radix over (column, byte) digits, skipping
    /// bytes the column's values never reach. The sort of rows wider than
    /// two columns, and the oracle the key-packed sort is tested against.
    pub fn sort_perm(&self) -> Vec<u32> {
        self.sort_perm_range(0, self.len, self.arity)
    }

    /// [`TupleBuffer::sort_perm`] restricted to rows `lo..hi` (the
    /// chunked parallel build sorts disjoint ranges concurrently) and to
    /// the first `cols` columns as the key.
    fn sort_perm_range(&self, lo: usize, hi: usize, cols: usize) -> Vec<u32> {
        debug_assert!(lo <= hi && hi <= self.len && cols <= self.arity);
        let n = hi - lo;
        let mut perm: Vec<u32> = (lo as u32..hi as u32).collect();
        if cols == 0 || n <= 1 {
            return perm;
        }
        let mut scratch: Vec<u32> = vec![0; n];
        let col_val = |i: u32, col: usize| self.data[i as usize * self.arity + col];
        for col in (0..cols).rev() {
            // The OR of the column bounds which bytes carry information.
            let mut mask = 0u32;
            for i in lo..hi {
                mask |= self.data[i * self.arity + col];
            }
            let bytes = (32 - mask.leading_zeros() as usize).div_ceil(8);
            for byte in 0..bytes {
                let shift = 8 * byte;
                let mut counts = [0usize; 256];
                for &i in &perm {
                    counts[((col_val(i, col) >> shift) & 0xFF) as usize] += 1;
                }
                if counts.contains(&n) {
                    continue; // all rows share this digit: pass is a no-op
                }
                let mut sum = 0usize;
                for c in counts.iter_mut() {
                    let here = *c;
                    *c = sum;
                    sum += here;
                }
                for &i in &perm {
                    let d = ((col_val(i, col) >> shift) & 0xFF) as usize;
                    scratch[counts[d]] = i;
                    counts[d] += 1;
                }
                std::mem::swap(&mut perm, &mut scratch);
            }
        }
        perm
    }

    /// Every row, stably sorted on the first `cols` columns only: rows
    /// with equal keys keep their order and none is folded. This is how
    /// the top-down pass groups a child's rows on an interface that does
    /// not already lead them.
    pub fn sorted_by_prefix(&self, cols: usize) -> TupleBuffer {
        let perm = self.sort_perm_range(0, self.len, cols);
        let mut data = Vec::with_capacity(self.data.len());
        for &i in &perm {
            data.extend_from_slice(self.row(i as usize));
        }
        TupleBuffer {
            arity: self.arity,
            len: self.len,
            data,
            annots: self
                .annots
                .as_ref()
                .map(|a| perm.iter().map(|&i| a[i as usize]).collect()),
        }
    }

    /// Whether rows are strictly ascending in lexicographic order — i.e.
    /// the buffer is already its own [`TupleBuffer::sorted_dedup`] (sorted,
    /// no duplicate to fold). One linear scan; nullary buffers qualify
    /// with at most one row.
    pub fn is_strictly_sorted(&self) -> bool {
        if self.arity == 0 {
            return self.len <= 1;
        }
        self.data
            .chunks_exact(self.arity)
            .zip(self.data.chunks_exact(self.arity).skip(1))
            .all(|(a, b)| a < b)
    }

    /// Sorted, duplicate-free copy. Duplicate rows collapse; annotations
    /// of duplicates combine with `combine.plus` (⊕) in original row
    /// order, matching trie construction semantics. Already strictly
    /// ascending input (every sink drain, `finalize` output and recursion
    /// frontier) is returned as-is after one linear pre-scan instead of
    /// being radix-sorted.
    pub fn sorted_dedup(&self, combine: AggOp) -> TupleBuffer {
        if self.is_strictly_sorted() {
            return self.clone();
        }
        self.sorted_dedup_range(0, self.len, combine)
    }

    /// [`TupleBuffer::sorted_dedup`] of an owned buffer: already strictly
    /// ascending input is handed back without even the copy, and an
    /// unannotated buffer of arity 1–2 is sorted and folded in place.
    pub fn into_sorted_dedup(mut self, combine: AggOp) -> TupleBuffer {
        if self.is_strictly_sorted() {
            return self;
        }
        if self.annots.is_none() && matches!(self.arity, 1 | 2) {
            self.data = packed_sorted_dedup(self.arity, self.data);
            self.len = self.data.len() / self.arity;
            return self;
        }
        self.sorted_dedup_range(0, self.len, combine)
    }

    /// Rows `lo..hi`, sorted and folded — past the already-sorted
    /// pre-scan, by the sort the arity calls for (see the module docs).
    fn sorted_dedup_range(&self, lo: usize, hi: usize, combine: AggOp) -> TupleBuffer {
        let values = &self.data[lo * self.arity..hi * self.arity];
        let annots = self.annots.as_ref().map(|a| &a[lo..hi]);
        match (self.arity, annots) {
            (0, _) => {
                // All rows are the empty tuple: collapse to at most one.
                let mut out = TupleBuffer::nullary((hi - lo).min(1));
                if let (Some(annots), 1) = (annots, out.len) {
                    let folded = annots[1..]
                        .iter()
                        .fold(annots[0], |acc, &v| combine.plus(acc, v));
                    out.annots = Some(vec![folded]);
                }
                out
            }
            (arity @ (1 | 2), None) => {
                TupleBuffer::from_flat(arity, packed_sorted_dedup(arity, values.to_vec()))
            }
            (1, Some(annots)) => packed_sorted_fold::<2>(values, annots, combine),
            (2, Some(annots)) => packed_sorted_fold::<3>(values, annots, combine),
            _ => {
                let perm = self.sort_perm_range(lo, hi, self.arity);
                self.gather_dedup(&perm, combine)
            }
        }
    }

    /// Chunked parallel [`TupleBuffer::sorted_dedup`]: split rows into
    /// `threads` ranges, sort each on its own `std::thread::scope` worker,
    /// then k-way merge the sorted runs (combining duplicate annotations).
    pub fn sorted_dedup_parallel(&self, combine: AggOp, threads: usize) -> TupleBuffer {
        if self.is_strictly_sorted() {
            return self.clone();
        }
        let threads = threads.max(1);
        if threads == 1 || self.len < 2 * threads || self.arity == 0 {
            return self.sorted_dedup_range(0, self.len, combine);
        }
        let chunk = self.len.div_ceil(threads);
        let runs: Vec<TupleBuffer> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.len)
                .step_by(chunk)
                .map(|lo| {
                    let hi = (lo + chunk).min(self.len);
                    scope.spawn(move || self.sorted_dedup_range(lo, hi, combine))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sort worker panicked"))
                .collect()
        });
        merge_sorted_runs(runs, combine)
    }

    /// Gather rows in `perm` order, collapsing adjacent duplicates.
    fn gather_dedup(&self, perm: &[u32], combine: AggOp) -> TupleBuffer {
        let mut out = TupleBuffer::with_capacity(self.arity, perm.len());
        if self.is_annotated() {
            out.annots = Some(Vec::with_capacity(perm.len()));
        }
        for &i in perm {
            out.push_folding(self.row(i as usize), self.annot(i as usize), combine);
        }
        out
    }

    /// Append `row` — unless it repeats the last row, in which case its
    /// annotation ⊕-folds into that row's. How every sorted sequence of
    /// rows becomes a duplicate-free one.
    #[inline]
    fn push_folding(&mut self, row: &[u32], annot: Option<DynValue>, combine: AggOp) {
        let repeat = self.len > 0 && self.row(self.len - 1) == row;
        if !repeat {
            self.data.extend_from_slice(row);
            self.len += 1;
        }
        if let (Some(annots), Some(a)) = (&mut self.annots, annot) {
            match annots.last_mut() {
                Some(last) if repeat => *last = combine.plus(*last, a),
                _ => annots.push(a),
            }
        }
    }
}

/// Digit width of the key-packed radix passes, chosen by measurement on
/// the reference box over the 371 182 two-column rows of the
/// Patents-analog 2-path listing (ids below 2¹⁵): 8-bit digits sort them
/// in 4 passes and 5.3 ms, 11-bit digits in 4 passes (two a column, eight
/// times the histogram) and 6.2 ms, 16-bit digits in 2 passes and 4.8 ms
/// — but zeroing and prefix-summing 65 536 counters a pass is what a
/// 100-row sort would then pay too. The permutation sort it replaces took
/// 14.6 ms.
const DIGIT_BITS: u32 = 8;
const DIGIT_BUCKETS: usize = 1 << DIGIT_BITS;

/// Stable LSD radix sort of fixed-width `rows` on their first `key_cols`
/// columns (lexicographic, column 0 most significant), ping-ponging
/// between `rows` and `scratch`. Returns whether the sorted rows ended up
/// in `scratch`.
fn radix_sort_rows<const W: usize>(
    rows: &mut [[u32; W]],
    scratch: &mut [[u32; W]],
    key_cols: usize,
) -> bool {
    debug_assert!(key_cols <= W && rows.len() == scratch.len());
    let n = rows.len();
    assert!(n <= u32::MAX as usize, "row counts are u32");
    // The OR of a column bounds which of its digits carry information.
    let mut masks = [0u32; W];
    for row in rows.iter() {
        for c in 0..key_cols {
            masks[c] |= row[c];
        }
    }
    // Least significant digit first: last column's low digit onwards.
    let passes: Vec<(usize, u32)> = (0..key_cols)
        .rev()
        .flat_map(|c| {
            let bits = 32 - masks[c].leading_zeros();
            (0..bits.div_ceil(DIGIT_BITS)).map(move |d| (c, d * DIGIT_BITS))
        })
        .collect();
    // One sweep counts every pass's digits: a histogram does not depend
    // on the order the rows are in when its pass runs.
    let mut counts = vec![[0u32; DIGIT_BUCKETS]; passes.len()];
    for row in rows.iter() {
        for (hist, &(c, shift)) in counts.iter_mut().zip(&passes) {
            hist[(row[c] >> shift) as usize & (DIGIT_BUCKETS - 1)] += 1;
        }
    }
    let (mut src, mut dst) = (rows, scratch);
    let mut swapped = false;
    for (hist, &(c, shift)) in counts.iter_mut().zip(&passes) {
        if hist.contains(&(n as u32)) {
            continue; // all rows share this digit: pass is a no-op
        }
        let mut sum = 0u32;
        for slot in hist.iter_mut() {
            let here = *slot;
            *slot = sum;
            sum += here;
        }
        for row in src.iter() {
            let slot = &mut hist[(row[c] >> shift) as usize & (DIGIT_BUCKETS - 1)];
            dst[*slot as usize] = *row;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        swapped = !swapped;
    }
    swapped
}

/// `packed` (whole `W`-wide rows, flat) sorted on the first `key_cols`
/// columns of each row.
fn radix_sorted<const W: usize>(mut packed: Vec<u32>, key_cols: usize) -> Vec<u32> {
    let mut scratch = vec![0u32; packed.len()];
    let in_scratch = radix_sort_rows::<W>(
        packed.as_chunks_mut().0,
        scratch.as_chunks_mut().0,
        key_cols,
    );
    if in_scratch {
        scratch
    } else {
        packed
    }
}

/// Sort the flat rows of `data` (arity 1 or 2) and drop duplicates, in
/// place.
fn packed_sorted_dedup(arity: usize, data: Vec<u32>) -> Vec<u32> {
    fn dedup<const A: usize>(data: Vec<u32>) -> Vec<u32> {
        let mut data = radix_sorted::<A>(data, A);
        let rows = data.as_chunks_mut::<A>().0;
        let mut kept = rows.len().min(1);
        for i in 1..rows.len() {
            if rows[i] != rows[kept - 1] {
                rows[kept] = rows[i];
                kept += 1;
            }
        }
        data.truncate(kept * A);
        data
    }
    match arity {
        1 => dedup::<1>(data),
        2 => dedup::<2>(data),
        _ => unreachable!("wider rows take the permutation sort"),
    }
}

/// Sort annotated rows of arity `W - 1` (`values`, flat) and ⊕-fold
/// duplicates in original row order: each key travels with its row index
/// as a `W`-th column, which the stable sort keeps ascending within a key
/// and which finds the annotation afterwards.
fn packed_sorted_fold<const W: usize>(
    values: &[u32],
    annots: &[DynValue],
    combine: AggOp,
) -> TupleBuffer {
    let arity = W - 1;
    let mut packed = Vec::with_capacity(annots.len() * W);
    for (i, row) in values.chunks_exact(arity).enumerate() {
        packed.extend_from_slice(row);
        packed.push(i as u32);
    }
    let packed = radix_sorted::<W>(packed, arity);
    let rows = packed.as_chunks::<W>().0;
    let mut out = TupleBuffer::with_capacity(arity, rows.len());
    let mut folded: Vec<DynValue> = Vec::with_capacity(rows.len());
    // Not `push_folding`: comparing fixed-width keys in place takes a
    // fifth off this function against comparing row slices.
    for (i, row) in rows.iter().enumerate() {
        let annot = annots[row[arity] as usize];
        if i > 0 && rows[i - 1][..arity] == row[..arity] {
            let last = folded.last_mut().expect("a repeat follows a kept row");
            *last = combine.plus(*last, annot);
        } else {
            out.data.extend_from_slice(&row[..arity]);
            out.len += 1;
            folded.push(annot);
        }
    }
    out.annots = Some(folded);
    out
}

/// Merge sorted, deduplicated runs of one arity into one, combining
/// duplicate-row annotations with ⊕. Linear k-way merge over row cursors;
/// among equal rows the lower-numbered run goes first, so the ⊕ order is
/// the one a stable sort of the runs' concatenation would fold in. With
/// every run empty the first is handed back (its arity, not arity 0).
pub fn merge_sorted_runs(mut runs: Vec<TupleBuffer>, combine: AggOp) -> TupleBuffer {
    if runs.iter().filter(|r| !r.is_empty()).count() <= 1 {
        let only = runs.iter().position(|r| !r.is_empty()).unwrap_or(0);
        return runs.into_iter().nth(only).unwrap_or_default();
    }
    runs.retain(|r| !r.is_empty());
    let arity = runs[0].arity;
    debug_assert!(runs.iter().all(|r| r.arity == arity));
    let total: usize = runs.iter().map(|r| r.len).sum();
    let mut out = TupleBuffer::with_capacity(arity, total);
    if runs[0].is_annotated() {
        out.annots = Some(Vec::with_capacity(total));
    }
    let mut cursors = vec![0usize; runs.len()];
    loop {
        // Smallest current row across runs (k is tiny: one run per thread
        // or shard).
        let mut min_k: Option<usize> = None;
        for (k, run) in runs.iter().enumerate() {
            if cursors[k] >= run.len {
                continue;
            }
            match min_k {
                Some(b) if runs[b].row(cursors[b]) <= run.row(cursors[k]) => {}
                _ => min_k = Some(k),
            }
        }
        let Some(k) = min_k else { break };
        let run = &runs[k];
        out.push_folding(run.row(cursors[k]), run.annot(cursors[k]), combine);
        cursors[k] += 1;
    }
    out
}

/// Borrowed row iterator over a [`TupleBuffer`].
pub struct TupleIter<'a> {
    buf: &'a TupleBuffer,
    next: usize,
}

impl<'a> Iterator for TupleIter<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        if self.next >= self.buf.len {
            return None;
        }
        let i = self.next;
        self.next += 1;
        if self.buf.arity == 0 {
            Some(&[])
        } else {
            Some(self.buf.row(i))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.buf.len - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for TupleIter<'_> {}

impl<'a> IntoIterator for &'a TupleBuffer {
    type Item = &'a [u32];
    type IntoIter = TupleIter<'a>;

    fn into_iter(self) -> TupleIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(buf: &TupleBuffer) -> Vec<Vec<u32>> {
        buf.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn push_and_view() {
        let mut b = TupleBuffer::new(2);
        b.push_row(&[3, 4]);
        b.push_row(&[1, 2]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), &[3, 4]);
        assert_eq!(b.row(1), &[1, 2]);
        assert_eq!(b.flat(), &[3, 4, 1, 2]);
        assert!(b.contains_row(&[1, 2]));
        assert!(!b.contains_row(&[2, 1]));
    }

    #[test]
    fn from_pairs_matches_rows() {
        let b = TupleBuffer::from_pairs(&[(0, 1), (5, 2)]);
        assert_eq!(rows_of(&b), vec![vec![0, 1], vec![5, 2]]);
    }

    #[test]
    fn sorted_dedup_lexicographic() {
        let b = TupleBuffer::from_rows(2, &[vec![2u32, 1], vec![0, 9], vec![2, 1], vec![0, 3]]);
        let s = b.sorted_dedup(AggOp::Sum);
        assert_eq!(rows_of(&s), vec![vec![0, 3], vec![0, 9], vec![2, 1]]);
    }

    #[test]
    fn sorted_dedup_combines_annotations() {
        let b = TupleBuffer::from_annotated_rows(
            1,
            &[vec![7u32], vec![7], vec![1]],
            vec![DynValue::F64(2.0), DynValue::F64(3.0), DynValue::F64(1.0)],
        );
        let s = b.sorted_dedup(AggOp::Sum);
        assert_eq!(rows_of(&s), vec![vec![1], vec![7]]);
        assert_eq!(
            s.annotations().unwrap(),
            &[DynValue::F64(1.0), DynValue::F64(5.0)]
        );
    }

    #[test]
    fn sorted_dedup_skips_the_sort_only_when_strictly_ascending() {
        let annots = |vals: &[f64]| vals.iter().map(|&v| DynValue::F64(v)).collect::<Vec<_>>();
        // Strictly ascending: returned as-is, annotations untouched.
        let sorted = TupleBuffer::from_annotated_rows(
            2,
            &[[0u32, 3], [0, 9], [2, 1]],
            annots(&[1., 2., 3.]),
        );
        assert!(sorted.is_strictly_sorted());
        assert_eq!(sorted.sorted_dedup(AggOp::Sum), sorted);
        assert_eq!(sorted.clone().into_sorted_dedup(AggOp::Sum), sorted);
        assert_eq!(sorted.sorted_dedup_parallel(AggOp::Sum, 3), sorted);
        // Sorted but with a duplicate: not strictly ascending, so the
        // duplicate's annotations must still fold.
        let dup = TupleBuffer::from_annotated_rows(
            2,
            &[[0u32, 3], [0, 3], [2, 1], [2, 1]],
            annots(&[1., 2., 3., 4.]),
        );
        assert!(!dup.is_strictly_sorted());
        for out in [
            dup.sorted_dedup(AggOp::Sum),
            dup.sorted_dedup_parallel(AggOp::Sum, 2),
        ] {
            assert_eq!(rows_of(&out), vec![vec![0, 3], vec![2, 1]]);
            assert_eq!(out.annotations().unwrap(), annots(&[3., 7.]).as_slice());
        }
        // Reverse order takes the radix path.
        let rev = TupleBuffer::from_rows(1, &[[9u32], [5], [1]]);
        assert!(!rev.is_strictly_sorted());
        assert_eq!(rev.sorted_dedup(AggOp::Sum).flat(), &[1, 5, 9]);
        // Nullary: zero or one empty tuple is canonical, more must fold.
        assert!(TupleBuffer::nullary(0).is_strictly_sorted());
        let mut one = TupleBuffer::nullary(1);
        one.set_annotations(vec![DynValue::U64(4)]);
        assert_eq!(one.sorted_dedup(AggOp::Count), one);
        let mut two = TupleBuffer::nullary(2);
        two.set_annotations(vec![DynValue::U64(4), DynValue::U64(5)]);
        assert!(!two.is_strictly_sorted());
        assert_eq!(
            two.sorted_dedup(AggOp::Count).annot(0),
            Some(DynValue::U64(9))
        );
    }

    #[test]
    fn radix_handles_large_values() {
        // Values above 2^16 exercise the high byte passes.
        let vals = [5u32, 1 << 30, 77, (1 << 30) + 1, 1 << 16, 0];
        let b = TupleBuffer::from_rows(1, &vals.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let s = b.sorted_dedup(AggOp::Sum);
        let mut expect: Vec<u32> = vals.to_vec();
        expect.sort_unstable();
        assert_eq!(s.iter().map(|r| r[0]).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn parallel_sort_matches_serial() {
        let rows: Vec<Vec<u32>> = (0..997u32)
            .map(|i| vec![i.wrapping_mul(2654435761) % 50, i % 17])
            .collect();
        let b = TupleBuffer::from_rows(2, &rows);
        let serial = b.sorted_dedup(AggOp::Sum);
        for threads in [2, 3, 8] {
            assert_eq!(b.sorted_dedup_parallel(AggOp::Sum, threads), serial);
        }
    }

    #[test]
    fn parallel_sort_combines_annotations_across_chunks() {
        // Duplicates deliberately land in different chunks.
        let rows: Vec<Vec<u32>> = (0..100u32).map(|i| vec![i % 5]).collect();
        let annots: Vec<DynValue> = (0..100).map(|_| DynValue::F64(1.0)).collect();
        let b = TupleBuffer::from_annotated_rows(1, &rows, annots);
        let merged = b.sorted_dedup_parallel(AggOp::Sum, 4);
        assert_eq!(merged.len(), 5);
        for i in 0..5 {
            assert_eq!(merged.annot(i), Some(DynValue::F64(20.0)));
        }
    }

    #[test]
    fn reorder_permutes_and_projects() {
        let b = TupleBuffer::from_rows(3, &[vec![1u32, 2, 3], vec![4, 5, 6]]);
        let swapped = b.reorder(&[2, 0, 1]);
        assert_eq!(rows_of(&swapped), vec![vec![3, 1, 2], vec![6, 4, 5]]);
        let proj = b.reorder(&[1]);
        assert_eq!(rows_of(&proj), vec![vec![2], vec![5]]);
    }

    #[test]
    fn append_is_flat_concat() {
        let mut a = TupleBuffer::from_rows(2, &[vec![1u32, 2]]);
        let b = TupleBuffer::from_rows(2, &[vec![3u32, 4], vec![5, 6]]);
        a.append(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.flat(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn nullary_rows_collapse() {
        let mut b = TupleBuffer::nullary(3);
        b.set_annotations(vec![DynValue::U64(1), DynValue::U64(2), DynValue::U64(3)]);
        let s = b.sorted_dedup(AggOp::Count);
        assert_eq!(s.len(), 1);
        assert_eq!(s.annot(0), Some(DynValue::U64(6)));
        assert_eq!(s.iter().next(), Some(&[] as &[u32]));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut b = TupleBuffer::new(2);
        b.push_row(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn from_rows_checks_each_rows_arity() {
        TupleBuffer::from_rows(2, &[vec![1u32, 2, 3]]);
    }

    #[test]
    #[should_panic(expected = "one annotation per row")]
    fn from_annotated_rows_needs_one_annotation_per_row() {
        TupleBuffer::from_annotated_rows(2, &[vec![1u32, 2]], vec![]);
    }

    #[test]
    #[should_panic(expected = "one annotation per row")]
    fn annotation_length_mismatch_panics() {
        let mut b = TupleBuffer::from_rows(1, &[vec![1u32]]);
        b.set_annotations(vec![]);
    }
}
