//! Columnar cell preparation: normalize and tokenize every cell of a
//! text column **once**, then evaluate similarity measures over cached
//! `u32` token-id slices.
//!
//! A [`PreparedColumn`] is a struct-of-arrays over the cells of one
//! aligned column side: flattened normalized chars, word-token ids in
//! occurrence order, id-sorted `(id, count)` multisets, padded-3-gram
//! id sets, raw-string word ids (the TF-IDF / neural tokenization
//! source), and — after corpus statistics are known — per-cell TF-IDF
//! `(rank, weight)` vectors with cached norms.
//!
//! Every kernel here reproduces the corresponding scalar measure **bit
//! for bit**: edit kernels share the exact implementation with the
//! scalar path (see `edit.rs`), set kernels compute the same integer
//! cardinalities and exact-integer float sums the `HashMap`-based
//! scalar code computes (order-independent because every addend and
//! partial sum is an exactly-representable integer), and the TF-IDF
//! kernel merges in interner *rank* order, which is order-isomorphic
//! to the scalar path's token-string sort.
//!
//! # Chunked preparation
//!
//! [`prepare_chunked`] cuts a column side into fixed-length row chunks
//! and prepares each against its own chunk-local [`TokenInterner`], so
//! the chunks can run on any number of threads. It then absorbs the
//! chunk vocabularies into the caller's interner in chunk order, which
//! assigns exactly the ids a one-pass [`PreparedColumn::prepare`]
//! assigns, and copies each chunk into arrays allocated at their exact
//! final size, mapping its ids through its local-to-final table and
//! re-sorting the per-cell id-sorted sets. The result equals the
//! one-pass preparation field for field (the unit tests pin this).

use crate::edit::{
    jaro_winkler_chars_with, normalized_levenshtein_chars_with, SimScratch,
};
use crate::intern::TokenInterner;
use crate::normalize::normalize_into;
use crate::tokenize::{for_each_qgram, for_each_word_token};
use crate::StringMeasure;

/// One text column side, fully tokenized and interned.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PreparedColumn {
    // normalize(cell) as flattened chars.
    norm_chars: Vec<char>,
    norm_off: Vec<u32>,
    // word_tokens(normalize(cell)) ids, occurrence order (Monge-Elkan
    // iterates tokens in order; duplicates included).
    words: Vec<u32>,
    words_off: Vec<u32>,
    // Distinct word ids of the cell sorted by id, with multiplicities
    // (Jaccard needs cardinalities, cosine needs counts).
    wc_ids: Vec<u32>,
    wc_counts: Vec<u32>,
    wc_off: Vec<u32>,
    // Distinct padded-3-gram ids sorted by id.
    qset: Vec<u32>,
    qset_off: Vec<u32>,
    // word_tokens(cell) ids — tokens of the *raw* string, occurrence
    // order. TF-IDF and the neural vocab tokenize raw values, and raw
    // tokenization can genuinely differ from normalized tokenization
    // (lowercasing can emit combining marks that re-segment words).
    raw_words: Vec<u32>,
    raw_off: Vec<u32>,
    // Distinct raw-word ids sorted by id, with counts (document
    // frequency source and TF vector source).
    rawc_ids: Vec<u32>,
    rawc_counts: Vec<u32>,
    rawc_off: Vec<u32>,
    // TF-IDF vector per cell: (string-rank, count * idf) sorted by
    // rank, plus the cached vector norm. Filled by `finish_tfidf`.
    tf_ranks: Vec<u32>,
    tf_weights: Vec<f64>,
    tf_off: Vec<u32>,
    tf_norms: Vec<f64>,
}

impl PreparedColumn {
    /// Tokenize and intern every cell of one column side. TF-IDF
    /// vectors are *not* ready yet — call
    /// [`PreparedColumn::finish_tfidf`] once corpus document
    /// frequencies are accumulated across all prepared columns.
    ///
    /// Each cell interns, in order: the word tokens of its normalized
    /// form, the padded 3-grams of its normalized form, then the word
    /// tokens of the raw string. Every token is built in a reused
    /// buffer, so the loop allocates only when the interner meets a new
    /// token or an output array grows.
    pub fn prepare<'a>(
        cells: impl Iterator<Item = &'a str>,
        interner: &mut TokenInterner,
    ) -> PreparedColumn {
        let mut col = PreparedColumn::with_capacity_for(&[]);
        let mut norm = String::new();
        let mut tok = String::new();
        let mut padded: Vec<char> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        for cell in cells {
            normalize_into(cell, &mut norm);
            col.norm_chars.extend(norm.chars());
            col.norm_off.push(col.norm_chars.len() as u32);

            let cell_words_start = col.words.len();
            for_each_word_token(&norm, &mut tok, |t| col.words.push(interner.intern(t)));
            col.words_off.push(col.words.len() as u32);

            ids.clear();
            ids.extend_from_slice(&col.words[cell_words_start..]);
            ids.sort_unstable();
            push_run_lengths(&ids, &mut col.wc_ids, &mut col.wc_counts);
            col.wc_off.push(col.wc_ids.len() as u32);

            ids.clear();
            for_each_qgram(&norm, 3, &mut padded, &mut tok, |g| {
                ids.push(interner.intern(g))
            });
            ids.sort_unstable();
            ids.dedup();
            col.qset.extend_from_slice(&ids);
            col.qset_off.push(col.qset.len() as u32);

            let cell_raw_start = col.raw_words.len();
            for_each_word_token(cell, &mut tok, |t| col.raw_words.push(interner.intern(t)));
            col.raw_off.push(col.raw_words.len() as u32);

            ids.clear();
            ids.extend_from_slice(&col.raw_words[cell_raw_start..]);
            ids.sort_unstable();
            push_run_lengths(&ids, &mut col.rawc_ids, &mut col.rawc_counts);
            col.rawc_off.push(col.rawc_ids.len() as u32);
        }
        col
    }

    /// Number of cells in this column side.
    pub fn len(&self) -> usize {
        self.norm_off.len() - 1
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `normalize(cell)` as a char slice.
    pub fn norm_chars(&self, cell: usize) -> &[char] {
        slice_of(&self.norm_chars, &self.norm_off, cell)
    }

    /// Word-token ids of the normalized cell, occurrence order.
    pub fn words(&self, cell: usize) -> &[u32] {
        slice_of(&self.words, &self.words_off, cell)
    }

    /// Distinct word ids (sorted) and their counts for the cell.
    pub fn word_counts(&self, cell: usize) -> (&[u32], &[u32]) {
        let lo = self.wc_off[cell] as usize;
        let hi = self.wc_off[cell + 1] as usize;
        (&self.wc_ids[lo..hi], &self.wc_counts[lo..hi])
    }

    /// Distinct padded-3-gram ids of the normalized cell, sorted.
    pub fn qgram_set(&self, cell: usize) -> &[u32] {
        slice_of(&self.qset, &self.qset_off, cell)
    }

    /// Word-token ids of the **raw** cell string, occurrence order.
    pub fn raw_words(&self, cell: usize) -> &[u32] {
        slice_of(&self.raw_words, &self.raw_off, cell)
    }

    /// Distinct raw-word ids (sorted) and their counts for the cell.
    pub fn raw_counts(&self, cell: usize) -> (&[u32], &[u32]) {
        let lo = self.rawc_off[cell] as usize;
        let hi = self.rawc_off[cell + 1] as usize;
        (&self.rawc_ids[lo..hi], &self.rawc_counts[lo..hi])
    }

    /// Increment `df[id]` once per cell containing token `id` (over raw
    /// words — the TF-IDF document unit), growing `df` as needed.
    /// Returns the number of documents (cells) accumulated.
    pub fn accumulate_doc_freq(&self, df: &mut Vec<u32>) -> usize {
        for cell in 0..self.len() {
            let (ids, _) = self.raw_counts(cell);
            for &id in ids {
                if df.len() <= id as usize {
                    df.resize(id as usize + 1, 0);
                }
                df[id as usize] += 1;
            }
        }
        self.len()
    }

    /// Compute the per-cell TF-IDF vectors and norms from corpus
    /// statistics: `df[id]` document frequencies, the total document
    /// count, and the interner's [`TokenInterner::string_ranks`].
    ///
    /// Weight math is exactly the scalar path's: `count * idf` with
    /// `idf = ln((1 + n_docs) / (1 + df)) + 1`, and the norm is the
    /// sum of squared weights accumulated in rank (= token-string)
    /// order before the square root.
    pub fn finish_tfidf(&mut self, df: &[u32], n_docs: usize, rank: &[u32]) {
        self.tf_ranks.clear();
        self.tf_weights.clear();
        self.tf_norms.clear();
        self.tf_off.clear();
        self.tf_off.push(0);
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for cell in 0..self.len() {
            let (ids, counts) = self.raw_counts(cell);
            entries.clear();
            for (&id, &count) in ids.iter().zip(counts) {
                let d = df.get(id as usize).copied().unwrap_or(0);
                let idf = ((1.0 + n_docs as f64) / (1.0 + d as f64)).ln() + 1.0;
                entries.push((rank[id as usize], count as f64 * idf));
            }
            entries.sort_unstable_by_key(|&(r, _)| r);
            let norm = entries
                .iter()
                .map(|&(_, w)| w * w)
                .sum::<f64>()
                .sqrt();
            for &(r, w) in &entries {
                self.tf_ranks.push(r);
                self.tf_weights.push(w);
            }
            self.tf_off.push(self.tf_ranks.len() as u32);
            self.tf_norms.push(norm);
        }
    }

    /// The cell's TF-IDF vector: ranks (ascending) and weights.
    /// Empty until [`PreparedColumn::finish_tfidf`] ran.
    pub fn tfidf(&self, cell: usize) -> (&[u32], &[f64]) {
        let lo = self.tf_off[cell] as usize;
        let hi = self.tf_off[cell + 1] as usize;
        (&self.tf_ranks[lo..hi], &self.tf_weights[lo..hi])
    }

    /// The cached TF-IDF vector norm of the cell.
    pub fn tfidf_norm(&self, cell: usize) -> f64 {
        self.tf_norms[cell]
    }
}

/// A column side that [`prepare_chunked`] can build one row chunk at a
/// time and stitch back together.
pub trait ChunkColumn: Sized + Send {
    /// Prepare `cells` in one pass against `interner`.
    fn prepare_cells<'a>(
        cells: impl Iterator<Item = &'a str>,
        interner: &mut TokenInterner,
    ) -> Self;

    /// An empty column whose arrays have room for exactly the cells of
    /// `parts`, so appending them never reallocates.
    fn with_capacity_for(parts: &[&Self]) -> Self;

    /// Append `part`, mapping each of its token ids through `ids` (its
    /// chunk-local id → the final id) and restoring id order wherever a
    /// cell's ids are stored sorted.
    fn append_remapped(&mut self, part: &Self, ids: &[u32]);
}

/// One row chunk of a column side, prepared against its own
/// chunk-local interner.
#[derive(Debug)]
pub struct LocalChunk<C> {
    col: C,
    vocab: TokenInterner,
}

/// Prepare the `n_cells` cells `cell(0..n_cells)` of one column side in
/// row chunks of `chunk_len`, interning into `interner`.
///
/// `map_chunks(n_chunks, prep)` must return `prep(k)` for every chunk
/// `k` in `0..n_chunks`, in chunk order. It may run them on a pool:
/// each chunk owns its interner, so chunks share nothing. The chunk
/// vocabularies are then absorbed into `interner` in chunk order and
/// each chunk is copied into the result, and dropped, in turn. The
/// result, and every id `interner` assigns, are exactly those of
/// `C::prepare_cells` over all the cells in one pass, for any
/// `chunk_len`.
///
/// # Panics
/// If `chunk_len` is 0.
pub fn prepare_chunked<'a, C: ChunkColumn>(
    n_cells: usize,
    chunk_len: usize,
    cell: impl Fn(usize) -> &'a str + Sync,
    interner: &mut TokenInterner,
    map_chunks: impl FnOnce(usize, &(dyn Fn(usize) -> LocalChunk<C> + Sync)) -> Vec<LocalChunk<C>>,
) -> C {
    assert!(chunk_len >= 1, "chunk length must be >= 1");
    let chunks = map_chunks(n_cells.div_ceil(chunk_len), &|k| {
        let rows = k * chunk_len..((k + 1) * chunk_len).min(n_cells);
        let mut vocab = TokenInterner::new();
        let col = C::prepare_cells(rows.map(&cell), &mut vocab);
        LocalChunk { col, vocab }
    });
    let parts: Vec<&C> = chunks.iter().map(|c| &c.col).collect();
    let mut out = C::with_capacity_for(&parts);
    for chunk in chunks {
        let ids = interner.absorb(&chunk.vocab);
        out.append_remapped(&chunk.col, &ids);
    }
    out
}

impl ChunkColumn for PreparedColumn {
    fn prepare_cells<'a>(
        cells: impl Iterator<Item = &'a str>,
        interner: &mut TokenInterner,
    ) -> PreparedColumn {
        PreparedColumn::prepare(cells, interner)
    }

    fn with_capacity_for(parts: &[&PreparedColumn]) -> PreparedColumn {
        let total = |len: fn(&PreparedColumn) -> usize| parts.iter().map(|p| len(p)).sum();
        let offsets = || offsets_with_capacity(total(PreparedColumn::len));
        PreparedColumn {
            norm_chars: Vec::with_capacity(total(|p| p.norm_chars.len())),
            norm_off: offsets(),
            words: Vec::with_capacity(total(|p| p.words.len())),
            words_off: offsets(),
            wc_ids: Vec::with_capacity(total(|p| p.wc_ids.len())),
            wc_counts: Vec::with_capacity(total(|p| p.wc_counts.len())),
            wc_off: offsets(),
            qset: Vec::with_capacity(total(|p| p.qset.len())),
            qset_off: offsets(),
            raw_words: Vec::with_capacity(total(|p| p.raw_words.len())),
            raw_off: offsets(),
            rawc_ids: Vec::with_capacity(total(|p| p.rawc_ids.len())),
            rawc_counts: Vec::with_capacity(total(|p| p.rawc_counts.len())),
            rawc_off: offsets(),
            tf_off: vec![0],
            ..PreparedColumn::default()
        }
    }

    fn append_remapped(&mut self, part: &PreparedColumn, ids: &[u32]) {
        debug_assert!(
            part.tf_norms.is_empty(),
            "chunks are stitched before TF-IDF"
        );
        let map = |id: &u32| ids[*id as usize];
        append_offsets(&mut self.norm_off, &part.norm_off);
        self.norm_chars.extend_from_slice(&part.norm_chars);
        append_offsets(&mut self.words_off, &part.words_off);
        self.words.extend(part.words.iter().map(map));
        append_offsets(&mut self.raw_off, &part.raw_off);
        self.raw_words.extend(part.raw_words.iter().map(map));
        // The id map is injective, so every per-cell set keeps its size
        // (and its offsets); only the order within a cell changes.
        append_offsets(&mut self.qset_off, &part.qset_off);
        for cell in 0..part.len() {
            let lo = self.qset.len();
            self.qset.extend(part.qgram_set(cell).iter().map(map));
            self.qset[lo..].sort_unstable();
        }
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        append_offsets(&mut self.wc_off, &part.wc_off);
        for cell in 0..part.len() {
            let (cell_ids, counts) = part.word_counts(cell);
            push_remapped_counts(
                cell_ids,
                counts,
                ids,
                &mut pairs,
                &mut self.wc_ids,
                &mut self.wc_counts,
            );
        }
        append_offsets(&mut self.rawc_off, &part.rawc_off);
        for cell in 0..part.len() {
            let (cell_ids, counts) = part.raw_counts(cell);
            push_remapped_counts(
                cell_ids,
                counts,
                ids,
                &mut pairs,
                &mut self.rawc_ids,
                &mut self.rawc_counts,
            );
        }
    }
}

/// An offsets array (`[0]`) with room for `cells` more entries.
pub fn offsets_with_capacity(cells: usize) -> Vec<u32> {
    let mut off = Vec::with_capacity(cells + 1);
    off.push(0);
    off
}

/// Append a chunk's offsets array (which starts at 0) to `dst`, shifted
/// past the data `dst` already indexes.
pub fn append_offsets(dst: &mut Vec<u32>, src: &[u32]) {
    let base = dst.last().copied().unwrap_or(0);
    dst.extend(src[1..].iter().map(|&o| o + base));
}

/// Push one cell's `(id, count)` multiset with its ids mapped through
/// `map`, re-sorted by the mapped id.
fn push_remapped_counts(
    cell_ids: &[u32],
    counts: &[u32],
    map: &[u32],
    pairs: &mut Vec<(u32, u32)>,
    ids_out: &mut Vec<u32>,
    counts_out: &mut Vec<u32>,
) {
    pairs.clear();
    pairs.extend(
        cell_ids
            .iter()
            .zip(counts)
            .map(|(&id, &n)| (map[id as usize], n)),
    );
    pairs.sort_unstable();
    ids_out.extend(pairs.iter().map(|&(id, _)| id));
    counts_out.extend(pairs.iter().map(|&(_, n)| n));
}

fn slice_of<'a, T>(data: &'a [T], off: &[u32], cell: usize) -> &'a [T] {
    &data[off[cell] as usize..off[cell + 1] as usize]
}

/// Run-length encode a sorted id slice into parallel (id, count) vecs.
fn push_run_lengths(sorted: &[u32], ids: &mut Vec<u32>, counts: &mut Vec<u32>) {
    let mut i = 0;
    while i < sorted.len() {
        let id = sorted[i];
        let mut n = 1u32;
        while i + (n as usize) < sorted.len() && sorted[i + n as usize] == id {
            n += 1;
        }
        ids.push(id);
        counts.push(n);
        i += n as usize;
    }
}

/// Intersection cardinality of two sorted-unique id slices.
fn sorted_intersect_size(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Jaccard over sorted-unique id sets, with the scalar empty-set
/// conventions (both empty → 1.0).
fn jaccard_sorted(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = sorted_intersect_size(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Cosine over (id, count) multiset vectors. `a_empty`/`b_empty` are
/// the *occurrence-list* empties (matching the scalar token-slice
/// checks). Exact-integer sums make the result order-independent, so
/// the merge order here reproduces the HashMap-order scalar sums bit
/// for bit.
fn cosine_counts(
    a: (&[u32], &[u32]),
    b: (&[u32], &[u32]),
    a_empty: bool,
    b_empty: bool,
) -> f64 {
    if a_empty && b_empty {
        return 1.0;
    }
    if a_empty || b_empty {
        return 0.0;
    }
    let (aid, an) = a;
    let (bid, bn) = b;
    // std's `Iterator::sum::<f64>()` folds from -0.0; the scalar path
    // sums the dot product that way, so a no-overlap pair yields -0.0
    // (which clamp keeps). Start from the same identity to stay
    // bit-for-bit.
    let mut dot = -0.0_f64;
    let (mut i, mut j) = (0, 0);
    while i < aid.len() && j < bid.len() {
        match aid[i].cmp(&bid[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += (an[i] as u64 * bn[j] as u64) as f64;
                i += 1;
                j += 1;
            }
        }
    }
    let na = an
        .iter()
        .map(|&v| (v as u64 * v as u64) as f64)
        .sum::<f64>()
        .sqrt();
    let nb = bn
        .iter()
        .map(|&v| (v as u64 * v as u64) as f64)
        .sum::<f64>()
        .sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

/// Monge-Elkan (Jaro-Winkler inner) over occurrence-order token ids,
/// resolving each token's chars through the interner cache. Token
/// iteration order and the `fold(0.0, max)` inner reduction replicate
/// the scalar `monge_elkan(..., jaro_winkler)` exactly.
///
/// Word tokens repeat heavily across cells, so the inner Jaro-Winkler
/// is memoized in the scratch by id pair. Two bitwise-invisible
/// shortcuts: equal ids score exactly 1.0 (identical inputs compute to
/// exactly 1.0), and a row stops scanning once it hits 1.0 (no later
/// candidate can raise a max already at the kernel's upper bound).
fn monge_elkan_ids(
    a: &[u32],
    b: &[u32],
    interner: &TokenInterner,
    scratch: &mut SimScratch,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // The memo and the edit buffers live in the same scratch; split
    // them so the closure can borrow both mutably.
    let mut memo = std::mem::take(&mut scratch.jw_memo);
    let mut one_way = |xs: &[u32], ys: &[u32]| -> f64 {
        // -0.0 is std's f64 sum identity (see cosine_counts).
        let mut total = -0.0_f64;
        for &x in xs {
            let cx = interner.chars_of(x);
            let mut best = 0.0_f64;
            for &y in ys {
                let sim = if x == y {
                    1.0
                } else {
                    let key = (u64::from(x) << 32) | u64::from(y);
                    match memo.get(&key) {
                        Some(&v) => v,
                        None => {
                            let v = jaro_winkler_chars_with(cx, interner.chars_of(y), scratch);
                            memo.insert(key, v);
                            v
                        }
                    }
                };
                best = best.max(sim);
                if best >= 1.0 {
                    break;
                }
            }
            total += best;
        }
        total / xs.len() as f64
    };
    let sim = one_way(a, b).max(one_way(b, a)).clamp(0.0, 1.0);
    scratch.jw_memo = memo;
    sim
}

/// TF-IDF cosine between two prepared cells, using the cached
/// rank-sorted weight vectors and norms. Bit-for-bit the scalar
/// `TfIdfCorpus::cosine` on the same raw strings.
pub fn tfidf_cosine_cells(ca: &PreparedColumn, i: usize, cb: &PreparedColumn, j: usize) -> f64 {
    let a_empty = ca.raw_words(i).is_empty();
    let b_empty = cb.raw_words(j).is_empty();
    if a_empty && b_empty {
        return 1.0;
    }
    if a_empty || b_empty {
        return 0.0;
    }
    let (ra, wa) = ca.tfidf(i);
    let (rb, wb) = cb.tfidf(j);
    let mut dot = 0.0_f64;
    let (mut x, mut y) = (0, 0);
    while x < ra.len() && y < rb.len() {
        match ra[x].cmp(&rb[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                dot += wa[x] * wb[y];
                x += 1;
                y += 1;
            }
        }
    }
    let na = ca.tfidf_norm(i);
    let nb = cb.tfidf_norm(j);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

/// Evaluate `measure` between two prepared cells. Bit-for-bit the
/// scalar `measure.eval(raw_a, raw_b)` on the original cell strings.
///
/// The feature battery's hot measures run on cached slices; the
/// remaining measures (not used by the batch feature path) take a cold
/// fallback that materializes the normalized strings — correct, just
/// not cached.
pub fn measure_cells(
    measure: StringMeasure,
    ca: &PreparedColumn,
    i: usize,
    cb: &PreparedColumn,
    j: usize,
    interner: &TokenInterner,
    scratch: &mut SimScratch,
) -> f64 {
    match measure {
        StringMeasure::Levenshtein => {
            normalized_levenshtein_chars_with(ca.norm_chars(i), cb.norm_chars(j), scratch)
        }
        StringMeasure::JaroWinkler => {
            jaro_winkler_chars_with(ca.norm_chars(i), cb.norm_chars(j), scratch)
        }
        StringMeasure::JaccardWords => {
            // Occurrence-list emptiness coincides with distinct-set
            // emptiness, so the scalar empty conventions carry over.
            jaccard_sorted(ca.word_counts(i).0, cb.word_counts(j).0)
        }
        StringMeasure::JaccardQgrams => jaccard_sorted(ca.qgram_set(i), cb.qgram_set(j)),
        StringMeasure::CosineWords => cosine_counts(
            ca.word_counts(i),
            cb.word_counts(j),
            ca.words(i).is_empty(),
            cb.words(j).is_empty(),
        ),
        StringMeasure::MongeElkan => monge_elkan_ids(ca.words(i), cb.words(j), interner, scratch),
        other => {
            // Cold path: not part of the batch feature battery.
            let sa: String = ca.norm_chars(i).iter().collect();
            let sb: String = cb.norm_chars(j).iter().collect();
            other.eval_normalized(&sa, &sb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use crate::tfidf::TfIdfCorpusBuilder;
    use crate::tokenize::{qgrams, word_tokens};

    /// Cell fixtures that exercise the nasty corners: empty cells,
    /// whitespace-only, duplicates, punctuation, unicode case folding
    /// that changes segmentation (İ lowercases to i + combining dot,
    /// which is *not* alphanumeric and re-splits word tokens), and
    /// multi-char case expansion (ẞ → ß is 1:1 but İ is 1:2).
    fn cells_a() -> Vec<&'static str> {
        vec![
            "John  Smith",
            "",
            "   ",
            "İstanbul Üniversitesi",
            "a a b",
            "O'Brien-Smith, J.",
            "data base systems",
            "MÜLLER",
            "x",
        ]
    }

    fn cells_b() -> Vec<&'static str> {
        vec![
            "Jon Smyth",
            "",
            "istanbul universitesi",
            "İstanbul Üniversitesi",
            "a b b",
            "obrien smith j",
            "database systems",
            "muller",
            "",
        ]
    }

    struct Fixture {
        interner: TokenInterner,
        col_a: PreparedColumn,
        col_b: PreparedColumn,
        corpus: crate::tfidf::TfIdfCorpus,
    }

    fn fixture() -> Fixture {
        let mut interner = TokenInterner::new();
        let mut col_a = PreparedColumn::prepare(cells_a().into_iter(), &mut interner);
        let mut col_b = PreparedColumn::prepare(cells_b().into_iter(), &mut interner);
        let mut df = Vec::new();
        let mut n_docs = 0;
        n_docs += col_a.accumulate_doc_freq(&mut df);
        n_docs += col_b.accumulate_doc_freq(&mut df);
        df.resize(interner.len(), 0);
        let rank = interner.string_ranks();
        col_a.finish_tfidf(&df, n_docs, &rank);
        col_b.finish_tfidf(&df, n_docs, &rank);
        let mut builder = TfIdfCorpusBuilder::new();
        for c in cells_a().iter().chain(cells_b().iter()) {
            builder.add_document(c);
        }
        Fixture {
            interner,
            col_a,
            col_b,
            corpus: builder.build(),
        }
    }

    #[test]
    fn every_measure_matches_scalar_bit_for_bit() {
        let f = fixture();
        let a = cells_a();
        let b = cells_b();
        let mut scratch = SimScratch::new();
        for m in StringMeasure::ALL {
            for (i, ra) in a.iter().enumerate() {
                for (j, rb) in b.iter().enumerate() {
                    let scalar = m.eval(ra, rb);
                    let batch =
                        measure_cells(m, &f.col_a, i, &f.col_b, j, &f.interner, &mut scratch);
                    assert_eq!(
                        batch.to_bits(),
                        scalar.to_bits(),
                        "{m} on {ra:?} vs {rb:?}: batch={batch} scalar={scalar}"
                    );
                }
            }
        }
    }

    #[test]
    fn tfidf_cosine_matches_scalar_bit_for_bit() {
        let f = fixture();
        let a = cells_a();
        let b = cells_b();
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                let scalar = f.corpus.cosine(ra, rb);
                let batch = tfidf_cosine_cells(&f.col_a, i, &f.col_b, j);
                assert_eq!(
                    batch.to_bits(),
                    scalar.to_bits(),
                    "tfidf on {ra:?} vs {rb:?}: batch={batch} scalar={scalar}"
                );
            }
        }
    }

    #[test]
    fn unicode_case_folding_splits_raw_and_norm_tokens_differently() {
        // "İx" raw-tokenizes to one token ("i\u{307}x": the combining
        // mark arrives *inside* an alphanumeric run), but its
        // normalized form "i\u{307}x" re-tokenizes as ["i", "x"]
        // because U+0307 is not alphanumeric. The prepared column must
        // keep both views.
        let mut interner = TokenInterner::new();
        let col = PreparedColumn::prepare(["İx"].into_iter(), &mut interner);
        let raw: Vec<&str> = col
            .raw_words(0)
            .iter()
            .map(|&id| interner.resolve(id))
            .collect();
        let norm: Vec<&str> = col
            .words(0)
            .iter()
            .map(|&id| interner.resolve(id))
            .collect();
        assert_eq!(raw, vec!["i\u{307}x"]);
        assert_eq!(norm, vec!["i", "x"]);
        assert_eq!(raw, word_tokens("İx"));
        assert_eq!(norm, word_tokens(&normalize("İx")));
    }

    #[test]
    fn empty_and_blank_cells_prepare_cleanly() {
        let mut interner = TokenInterner::new();
        let mut col = PreparedColumn::prepare(["", "  \t ", "x"].into_iter(), &mut interner);
        assert_eq!(col.len(), 3);
        for cell in [0, 1] {
            assert!(col.norm_chars(cell).is_empty());
            assert!(col.words(cell).is_empty());
            assert!(col.qgram_set(cell).is_empty());
            assert!(col.raw_words(cell).is_empty());
        }
        assert_eq!(col.norm_chars(2), ['x']);
        let mut df = Vec::new();
        let n = col.accumulate_doc_freq(&mut df);
        df.resize(interner.len(), 0);
        col.finish_tfidf(&df, n, &interner.string_ranks());
        assert!(col.tfidf(0).0.is_empty());
        assert_eq!(col.tfidf_norm(0), 0.0);
        assert!(col.tfidf_norm(2) > 0.0);
    }

    #[test]
    fn qgram_sets_match_scalar_qgrams() {
        let mut interner = TokenInterner::new();
        let inputs = ["ab", "", "a", "hello world"];
        let col = PreparedColumn::prepare(inputs.into_iter(), &mut interner);
        for (cell, s) in inputs.iter().enumerate() {
            let mut expected = qgrams(&normalize(s), 3);
            expected.sort_unstable();
            expected.dedup();
            let mut got: Vec<String> = col
                .qgram_set(cell)
                .iter()
                .map(|&id| interner.resolve(id).to_owned())
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "cell {cell}: {s:?}");
        }
    }

    #[test]
    fn doc_freq_matches_corpus_builder() {
        let f = fixture();
        let mut df = Vec::new();
        let mut n = 0;
        n += f.col_a.accumulate_doc_freq(&mut df);
        n += f.col_b.accumulate_doc_freq(&mut df);
        assert_eq!(n, f.corpus.n_docs());
        df.resize(f.interner.len(), 0);
        // Spot-check idf equality through a shared token.
        for tok in ["smith", "systems", "a", "istanbul"] {
            let id = f.interner.get(tok).expect("token must be interned");
            let idf_cols =
                ((1.0 + n as f64) / (1.0 + df[id as usize] as f64)).ln() + 1.0;
            assert_eq!(idf_cols.to_bits(), f.corpus.idf(tok).to_bits(), "{tok}");
        }
    }

    /// Cells for the chunking tests: empty and all-separator cells,
    /// case folding that re-segments (İ) or expands (ß stays, ẞ → ß),
    /// combining marks, CJK, whitespace beyond ASCII (VT, NEL,
    /// ideographic space), and tokens repeated across chunk borders.
    fn chunk_cells() -> Vec<&'static str> {
        vec![
            "",
            "--- ,.; ---",
            "İstanbul Üniversitesi",
            "Straße STRASSE ẞ",
            "e\u{301}cole école",
            "東京 大学 東京",
            "a\u{0B}b\u{85}c\u{3000}d",
            "",
            "data base systems",
            "Data-Base  systems",
            "x",
            "O'Brien-Smith, J.",
            "   ",
            "漢字かな",
            "smith smith",
        ]
    }

    /// Prepare both sides of a column pair chunked, with `map_chunks`
    /// running the chunks.
    fn chunked_pair(
        a: &[&str],
        b: &[&str],
        chunk_len: usize,
        interner: &mut TokenInterner,
        reverse: bool,
    ) -> (PreparedColumn, PreparedColumn) {
        let mut side = |cells: &[&str]| -> PreparedColumn {
            prepare_chunked(
                cells.len(),
                chunk_len,
                |r| cells[r],
                interner,
                |n, prep| {
                    if reverse {
                        let mut out: Vec<_> = (0..n).rev().map(prep).collect();
                        out.reverse();
                        out
                    } else {
                        (0..n).map(prep).collect()
                    }
                },
            )
        };
        let pa = side(a);
        let pb = side(b);
        (pa, pb)
    }

    fn finish(cols: &mut [&mut PreparedColumn], interner: &TokenInterner) {
        let mut df = Vec::new();
        let mut n_docs = 0;
        for c in cols.iter() {
            n_docs += c.accumulate_doc_freq(&mut df);
        }
        df.resize(interner.len(), 0);
        let rank = interner.string_ranks();
        for c in cols.iter_mut() {
            c.finish_tfidf(&df, n_docs, &rank);
        }
    }

    #[test]
    fn chunked_prepare_equals_one_pass_prepare() {
        let a = chunk_cells();
        let b: Vec<&str> = a.iter().rev().copied().chain(cells_b()).collect();
        let mut want_it = TokenInterner::new();
        let want_a = PreparedColumn::prepare(a.iter().copied(), &mut want_it);
        let want_b = PreparedColumn::prepare(b.iter().copied(), &mut want_it);
        let len = a.len();
        for chunk_len in [1, 2, 7, len, len + 1] {
            for reverse in [false, true] {
                let ctx = format!("chunk length {chunk_len}, reverse {reverse}");
                let mut it = TokenInterner::new();
                let (mut pa, mut pb) = chunked_pair(&a, &b, chunk_len, &mut it, reverse);
                assert_eq!(it.len(), want_it.len(), "{ctx}");
                for id in 0..it.len() as u32 {
                    assert_eq!(it.resolve(id), want_it.resolve(id), "{ctx}: id {id}");
                }
                assert_eq!(pa, want_a, "{ctx}: side a");
                assert_eq!(pb, want_b, "{ctx}: side b");
                finish(&mut [&mut pa, &mut pb], &it);
                let mut wa = want_a.clone();
                let mut wb = want_b.clone();
                finish(&mut [&mut wa, &mut wb], &want_it);
                assert_eq!(pa, wa, "{ctx}: side a after TF-IDF");
                assert_eq!(pb, wb, "{ctx}: side b after TF-IDF");
            }
        }
        // An empty side is zero chunks and still a well-formed column.
        let mut it = TokenInterner::new();
        let (pa, _) = chunked_pair(&[], &[], 3, &mut it, false);
        assert_eq!(
            pa,
            PreparedColumn::prepare(std::iter::empty(), &mut TokenInterner::new())
        );
        assert!(pa.is_empty() && it.is_empty());
    }
}
