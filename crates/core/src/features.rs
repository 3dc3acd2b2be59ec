//! Magellan-style similarity feature generation for record pairs.
//!
//! Columns present in both tables (matched by name, excluding `id` and
//! the sensitive columns — group membership must never leak into the
//! matcher input) become feature groups: numeric columns contribute
//! difference-based similarities, text columns a battery of string
//! measures plus a corpus-weighted TF-IDF cosine.
//!
//! # Columnar execution
//!
//! [`FeatureGenerator::build`] normalizes and tokenizes every cell of
//! every aligned column exactly once, interning tokens to dense `u32`
//! ids ([`TokenInterner`]) and storing each column as a
//! struct-of-arrays [`PreparedColumn`] (normalized chars, word-token
//! ids, q-gram sets, TF-IDF weight vectors). The build runs on the
//! run's pool: each column side is cut into fixed-length row chunks,
//! each chunk is prepared against its own interner, and the chunk
//! vocabularies are absorbed in (column, side, chunk) order
//! ([`prepare_chunked`]), so every token id is the one a single
//! sequential pass assigns, for any worker count. The batch entry point
//! [`FeatureGenerator::matrix`] then runs integer-slice kernels with
//! per-chunk scratch buffers over a [`PairBatch`] — no per-pair
//! normalization, tokenization, or hashing. The scalar per-pair path
//! ([`FeatureGenerator::features`]) is kept as the reference
//! implementation; the batch kernels are bit-for-bit identical to it
//! for every measure (the equivalence suite pins this).

use std::collections::HashMap;
use std::sync::Arc;

use fairem_ml::Matrix;
use fairem_neural::{HashVocab, TokenPair};
use fairem_par::{ChunkPanic, MemPressure, ParOutcome};
use fairem_text::prepared::{append_offsets, offsets_with_capacity};
use fairem_text::{
    for_each_word_token, measure_cells, prepare_chunked, rel_diff_sim, tfidf_cosine_cells,
    ChunkColumn, PreparedColumn, SimScratch, StringMeasure, TfIdfCorpus, TokenInterner,
};

use crate::exec::{Exec, PairBatch};
use crate::schema::Table;

/// The string measures applied to each text column, in feature order.
pub const TEXT_MEASURES: [StringMeasure; 6] = [
    StringMeasure::Levenshtein,
    StringMeasure::JaroWinkler,
    StringMeasure::JaccardWords,
    StringMeasure::JaccardQgrams,
    StringMeasure::MongeElkan,
    StringMeasure::CosineWords,
];

/// Rows per build chunk. Fixed, so the chunking does not depend on the
/// worker count (the ids and arrays do not depend on it either way).
const BUILD_CHUNK_ROWS: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColKind {
    Numeric,
    Text,
}

#[derive(Debug, Clone)]
struct AlignedColumn {
    name: String,
    a_col: usize,
    b_col: usize,
    kind: ColKind,
    /// Index into the kind-matching prepared-column store.
    slot: usize,
}

/// A numeric column prepared once at build time: parsed values, interned
/// whole-cell ids (for the exact-match feature), and interned raw word
/// tokens (for the neural tokenizer).
#[derive(Debug, Default, Clone, PartialEq)]
struct NumericColumn {
    value: Vec<f64>,
    cell: Vec<u32>,
    empty: Vec<bool>,
    words: Vec<u32>,
    words_off: Vec<u32>,
}

impl NumericColumn {
    fn words(&self, row: usize) -> &[u32] {
        &self.words[self.words_off[row] as usize..self.words_off[row + 1] as usize]
    }
}

impl ChunkColumn for NumericColumn {
    /// Each cell interns its whole string, then its word tokens.
    fn prepare_cells<'a>(
        cells: impl Iterator<Item = &'a str>,
        interner: &mut TokenInterner,
    ) -> NumericColumn {
        let mut col = NumericColumn::with_capacity_for(&[]);
        let mut tok = String::new();
        for cell in cells {
            col.value.push(parse_num(cell));
            col.cell.push(interner.intern(cell));
            col.empty.push(cell.is_empty());
            for_each_word_token(cell, &mut tok, |w| col.words.push(interner.intern(w)));
            col.words_off.push(col.words.len() as u32);
        }
        col
    }

    fn with_capacity_for(parts: &[&NumericColumn]) -> NumericColumn {
        let rows = parts.iter().map(|p| p.value.len()).sum();
        NumericColumn {
            value: Vec::with_capacity(rows),
            cell: Vec::with_capacity(rows),
            empty: Vec::with_capacity(rows),
            words: Vec::with_capacity(parts.iter().map(|p| p.words.len()).sum()),
            words_off: offsets_with_capacity(rows),
        }
    }

    fn append_remapped(&mut self, part: &NumericColumn, ids: &[u32]) {
        let map = |id: &u32| ids[*id as usize];
        self.value.extend_from_slice(&part.value);
        self.cell.extend(part.cell.iter().map(map));
        self.empty.extend_from_slice(&part.empty);
        append_offsets(&mut self.words_off, &part.words_off);
        self.words.extend(part.words.iter().map(map));
    }
}

/// Prepare column `col` of `t` in [`BUILD_CHUNK_ROWS`]-row chunks on
/// `exec`'s pool, interning into `interner`.
fn prepare_side<C: ChunkColumn>(
    t: &Table,
    col: usize,
    interner: &mut TokenInterner,
    exec: &Exec,
) -> C {
    prepare_chunked(
        t.len(),
        BUILD_CHUNK_ROWS,
        |row| t.value(row, col),
        interner,
        |n, prep| exec.pool.par_map(n, prep),
    )
}

/// The columnar build product: one shared interner plus, per aligned
/// column, the prepared struct-of-arrays for both tables. Immutable
/// after `build`, so the parallel pair loop reads it without locks.
#[derive(Debug)]
struct Interned {
    interner: TokenInterner,
    text: Vec<(PreparedColumn, PreparedColumn)>,
    numeric: Vec<(NumericColumn, NumericColumn)>,
}

/// A fitted feature generator bound to one pair of tables.
#[derive(Debug, Clone)]
pub struct FeatureGenerator {
    columns: Vec<AlignedColumn>,
    tfidf: TfIdfCorpus,
    interned: Arc<Interned>,
}

/// Why a batch feature build failed: a contained worker panic, or the
/// execution context's memory budget refusing the build's declared
/// footprint before any row was computed.
#[derive(Debug)]
pub enum MatrixError {
    /// A panic escaped feature evaluation on a worker.
    Panic(ChunkPanic),
    /// The declared build footprint did not fit the memory budget.
    Mem(MemPressure),
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::Panic(p) => write!(f, "{p}"),
            MatrixError::Mem(m) => write!(f, "{m}"),
        }
    }
}

impl From<ChunkPanic> for MatrixError {
    fn from(p: ChunkPanic) -> MatrixError {
        MatrixError::Panic(p)
    }
}

impl FeatureGenerator {
    /// Align the attribute columns of two tables (excluding `id` and
    /// `exclude`, typically the sensitive columns), tokenize and intern
    /// every cell once, and fit the TF-IDF corpus over every text value
    /// in both tables.
    ///
    /// Cells are prepared in fixed-length row chunks on `exec`'s pool
    /// (`Exec::sequential()` without a run). The generator is the same
    /// for every pool, token ids included.
    ///
    /// # Panics
    /// If no columns align, or (re-raised from a worker) if preparing a
    /// chunk panics.
    pub fn build(a: &Table, b: &Table, exclude: &[&str], exec: &Exec) -> FeatureGenerator {
        let mut columns = Vec::new();
        let mut interner = TokenInterner::new();
        let mut text: Vec<(PreparedColumn, PreparedColumn)> = Vec::new();
        let mut numeric: Vec<(NumericColumn, NumericColumn)> = Vec::new();
        for (a_col, name) in a.columns().iter().enumerate() {
            if name == "id" || exclude.contains(&name.as_str()) {
                continue;
            }
            let Some(b_col) = b.column_index(name) else {
                continue;
            };
            let kind = if all_numeric(a, a_col) && all_numeric(b, b_col) {
                ColKind::Numeric
            } else {
                ColKind::Text
            };
            // One side at a time, a's before b's: the chunk vocabularies
            // are absorbed in (column, side, chunk) order.
            let slot = match kind {
                ColKind::Text => {
                    let pa = prepare_side(a, a_col, &mut interner, exec);
                    let pb = prepare_side(b, b_col, &mut interner, exec);
                    text.push((pa, pb));
                    text.len() - 1
                }
                ColKind::Numeric => {
                    let na = prepare_side(a, a_col, &mut interner, exec);
                    let nb = prepare_side(b, b_col, &mut interner, exec);
                    numeric.push((na, nb));
                    numeric.len() - 1
                }
            };
            columns.push(AlignedColumn {
                name: name.clone(),
                a_col,
                b_col,
                kind,
                slot,
            });
        }
        assert!(
            !columns.is_empty(),
            "no alignable feature columns between tables"
        );
        let side_chunks = |t: &Table| t.len().div_ceil(BUILD_CHUNK_ROWS) as u64;
        let n_cols = columns.len() as u64;
        exec.recorder.add(
            "features.build.chunks",
            n_cols * (side_chunks(a) + side_chunks(b)),
        );
        exec.recorder
            .add("features.build.cells", n_cols * (a.len() + b.len()) as u64);
        // Document frequencies over the raw word tokens of every text
        // cell (a's rows then b's rows per column — df is a pure count,
        // so the accumulation order is immaterial to the result).
        let mut df: Vec<u32> = Vec::new();
        let mut n_docs = 0usize;
        for (pa, pb) in &text {
            n_docs += pa.accumulate_doc_freq(&mut df);
            n_docs += pb.accumulate_doc_freq(&mut df);
        }
        df.resize(interner.len(), 0);
        let rank = interner.string_ranks();
        for (pa, pb) in &mut text {
            pa.finish_tfidf(&df, n_docs, &rank);
            pb.finish_tfidf(&df, n_docs, &rank);
        }
        // Materialize the value-identical scalar corpus for the string
        // per-pair path: the incremental builder would have produced
        // exactly these (token, df) entries for exactly these documents.
        let mut doc_freq: HashMap<String, usize> = HashMap::new();
        for (id, &count) in df.iter().enumerate() {
            if count > 0 {
                doc_freq.insert(interner.resolve(id as u32).to_owned(), count as usize);
            }
        }
        FeatureGenerator {
            columns,
            tfidf: TfIdfCorpus::from_parts(doc_freq, n_docs),
            interned: Arc::new(Interned {
                interner,
                text,
                numeric,
            }),
        }
    }

    /// The build's token interner: every token of every aligned cell,
    /// with ids in first-encounter order.
    pub fn interner(&self) -> &TokenInterner {
        &self.interned.interner
    }

    /// Number of features per pair.
    pub fn n_features(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c.kind {
                ColKind::Numeric => 2,
                ColKind::Text => TEXT_MEASURES.len() + 1,
            })
            .sum()
    }

    /// Stable feature names (`column.measure`).
    pub fn names(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.n_features());
        for c in &self.columns {
            match c.kind {
                ColKind::Numeric => {
                    out.push(format!("{}.rel_diff", c.name));
                    out.push(format!("{}.exact", c.name));
                }
                ColKind::Text => {
                    for m in TEXT_MEASURES {
                        out.push(format!("{}.{}", c.name, m.name()));
                    }
                    out.push(format!("{}.tfidf", c.name));
                }
            }
        }
        out
    }

    /// Feature vector for one record pair — the scalar reference path,
    /// evaluating measures on the raw cell strings. The batch kernels
    /// behind [`FeatureGenerator::matrix`] are bit-for-bit identical to
    /// this for every feature.
    pub fn features(&self, a: &Table, a_row: usize, b: &Table, b_row: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_features());
        for c in &self.columns {
            let va = a.value(a_row, c.a_col);
            let vb = b.value(b_row, c.b_col);
            match c.kind {
                ColKind::Numeric => {
                    let (na, nb) = (parse_num(va), parse_num(vb));
                    out.push(rel_diff_sim(na, nb));
                    out.push(if va == vb && !va.is_empty() { 1.0 } else { 0.0 });
                }
                ColKind::Text => {
                    for m in TEXT_MEASURES {
                        out.push(m.eval(va, vb));
                    }
                    out.push(self.tfidf.cosine(va, vb));
                }
            }
        }
        out
    }

    /// One row of the batch kernel: same features as
    /// [`FeatureGenerator::features`], computed from the prepared
    /// columns with `scratch` reused across the chunk.
    fn row_features(&self, ra: usize, rb: usize, scratch: &mut SimScratch, out: &mut Vec<f64>) {
        let it = &*self.interned;
        for c in &self.columns {
            match c.kind {
                ColKind::Numeric => {
                    let (na, nb) = &it.numeric[c.slot];
                    out.push(rel_diff_sim(na.value[ra], nb.value[rb]));
                    let exact = na.cell[ra] == nb.cell[rb] && !na.empty[ra];
                    out.push(if exact { 1.0 } else { 0.0 });
                }
                ColKind::Text => {
                    let (pa, pb) = &it.text[c.slot];
                    for m in TEXT_MEASURES {
                        out.push(measure_cells(m, pa, ra, pb, rb, &it.interner, scratch));
                    }
                    out.push(tfidf_cosine_cells(pa, ra, pb, rb));
                }
            }
        }
    }

    /// Feature matrix for a batch of pairs, run under `exec`.
    ///
    /// The pool chunks the batch, each chunk reuses one scratch buffer,
    /// and rows are stitched in pair order — the result is bit-for-bit
    /// identical for any worker count, and bit-for-bit the scalar
    /// [`FeatureGenerator::features`] per row. Cancellation/budget
    /// expiry surfaces as [`ParOutcome::Interrupted`] carrying the rows
    /// finished before the cut.
    ///
    /// # Panics
    /// Re-raises a panic that escaped feature evaluation on a worker
    /// (mirroring `WorkerPool::par_map`); use
    /// [`FeatureGenerator::try_matrix`] to handle it as a value.
    pub fn matrix(&self, batch: &PairBatch, exec: &Exec) -> ParOutcome<Matrix> {
        match self.try_matrix(batch, exec) {
            Ok(outcome) => outcome,
            // fairem: allow(panic) — documented # Panics contract: re-raises a contained worker panic (or budget refusal) for callers that did not opt into handling it.
            Err(p) => panic!("feature batch failed: {p}"),
        }
    }

    /// Resident bytes of the feature matrix for `n_pairs` pairs: one
    /// `f64` per feature per pair. This is the deterministic cost model
    /// the memory budget accounts against — declared sizes, never
    /// allocator or OS measurements.
    pub fn matrix_cost(&self, n_pairs: usize) -> u64 {
        (n_pairs as u64) * (self.n_features() as u64) * 8
    }

    /// [`FeatureGenerator::matrix`] with failures returned as values:
    /// contained worker panics as [`MatrixError::Panic`], and memory
    /// budget refusals as [`MatrixError::Mem`].
    ///
    /// The build declares a transient footprint of twice the matrix
    /// cost (per-chunk staging rows plus the stitched matrix) against
    /// `exec.mem` before computing anything; the hold is released when
    /// the call returns, so callers that keep the result resident take
    /// their own one-matrix hold.
    pub fn try_matrix(
        &self,
        batch: &PairBatch,
        exec: &Exec,
    ) -> Result<ParOutcome<Matrix>, MatrixError> {
        let _build_hold = exec
            .mem
            .try_hold(2 * self.matrix_cost(batch.len()))
            .map_err(MatrixError::Mem)?;
        exec.recorder.add("features.pairs", batch.len() as u64);
        let token = exec.run_token();
        let d = self.n_features();
        let pairs = batch.pairs;
        let outcome = exec.pool.try_par_scratch_within(
            pairs.len(),
            &token,
            SimScratch::new,
            |scratch, i| {
                let (ra, rb) = pairs[i];
                let mut row = Vec::with_capacity(d);
                self.row_features(ra, rb, scratch, &mut row);
                row
            },
        )?;
        Ok(outcome.map(|rows| {
            let mut m = Matrix::zeros(rows.len(), d);
            for (i, f) in rows.iter().enumerate() {
                m.row_mut(i).copy_from_slice(f);
            }
            m
        }))
    }

    /// Feature matrix via the scalar per-pair path.
    #[deprecated(note = "use `matrix(&PairBatch, &Exec)`; this scalar path stays as the \
                         bit-for-bit reference for the equivalence suite")]
    pub fn matrix_pairs(&self, a: &Table, b: &Table, pairs: &[(usize, usize)]) -> Matrix {
        let d = self.n_features();
        let mut m = Matrix::zeros(pairs.len(), d);
        for (i, &(ra, rb)) in pairs.iter().enumerate() {
            let f = self.features(a, ra, b, rb);
            m.row_mut(i).copy_from_slice(&f);
        }
        m
    }

    /// Tokenize one pair for the neural matchers over the same aligned
    /// columns (one attribute per column) — the scalar reference for
    /// [`FeatureGenerator::tokenize_all`].
    pub fn tokenize(
        &self,
        a: &Table,
        a_row: usize,
        b: &Table,
        b_row: usize,
        vocab: &HashVocab,
    ) -> TokenPair {
        let left = self
            .columns
            .iter()
            .map(|c| vocab.encode_words(a.value(a_row, c.a_col)))
            .collect();
        let right = self
            .columns
            .iter()
            .map(|c| vocab.encode_words(b.value(b_row, c.b_col)))
            .collect();
        TokenPair { left, right }
    }

    /// Tokenize a batch of pairs from the interned build product: the
    /// vocabulary code of every distinct token is computed once, then
    /// each cell maps its cached token ids through that table — no
    /// re-tokenization of text the interner already processed. Output
    /// is exactly [`FeatureGenerator::tokenize`] per pair.
    pub fn tokenize_all(&self, batch: &PairBatch, vocab: &HashVocab) -> Vec<TokenPair> {
        let it = &*self.interned;
        let codes: Vec<u32> = (0..it.interner.len() as u32)
            .map(|id| vocab.id(it.interner.resolve(id)))
            .collect();
        let cell_words = |c: &AlignedColumn, side: usize, row: usize| match (c.kind, side) {
            (ColKind::Text, 0) => it.text[c.slot].0.raw_words(row),
            (ColKind::Text, _) => it.text[c.slot].1.raw_words(row),
            (ColKind::Numeric, 0) => it.numeric[c.slot].0.words(row),
            (ColKind::Numeric, _) => it.numeric[c.slot].1.words(row),
        };
        batch
            .pairs
            .iter()
            .map(|&(ra, rb)| TokenPair {
                left: self
                    .columns
                    .iter()
                    .map(|c| vocab.encode_interned(cell_words(c, 0, ra), &codes))
                    .collect(),
                right: self
                    .columns
                    .iter()
                    .map(|c| vocab.encode_interned(cell_words(c, 1, rb), &codes))
                    .collect(),
            })
            .collect()
    }
}

fn all_numeric(t: &Table, col: usize) -> bool {
    if t.is_empty() {
        return false;
    }
    (0..t.len()).all(|r| {
        let v = t.value(r, col);
        v.is_empty() || v.parse::<f64>().is_ok()
    })
}

fn parse_num(v: &str) -> f64 {
    v.parse().unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_csvio::parse_csv_str;
    use fairem_par::{Budget, WorkerPool};

    fn tables() -> (Table, Table) {
        let a = Table::from_csv(
            parse_csv_str("id,name,price,country\na0,li wei,10.0,cn\na1,john smith,22.5,us\n")
                .unwrap(),
        )
        .unwrap();
        let b = Table::from_csv(
            parse_csv_str("id,name,price,country\nb0,wei li,10.0,cn\nb1,jon smyth,44.0,us\n")
                .unwrap(),
        )
        .unwrap();
        (a, b)
    }

    fn all_pairs(a: &Table, b: &Table) -> Vec<(usize, usize)> {
        (0..a.len())
            .flat_map(|ra| (0..b.len()).map(move |rb| (ra, rb)))
            .collect()
    }

    fn complete(outcome: ParOutcome<Matrix>) -> Matrix {
        match outcome {
            ParOutcome::Complete(m) => m,
            ParOutcome::Interrupted { interrupt, .. } => {
                unreachable!("unexpected interrupt: {interrupt}")
            }
        }
    }

    #[test]
    fn aligns_columns_and_excludes_sensitive() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"], &Exec::sequential());
        let names = g.names();
        assert!(names.iter().all(|n| !n.starts_with("country")));
        assert!(names.iter().all(|n| !n.starts_with("id")));
        assert!(names.contains(&"name.jw".to_owned()));
        assert!(names.contains(&"price.rel_diff".to_owned()));
        assert_eq!(names.len(), g.n_features());
        // name: 7 features, price: 2 features.
        assert_eq!(g.n_features(), 9);
    }

    #[test]
    fn features_reflect_similarity() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"], &Exec::sequential());
        let same_person = g.features(&a, 0, &b, 0); // li wei vs wei li, same price
        let diff_person = g.features(&a, 0, &b, 1);
        // Token-order-insensitive measures should be 1.0 for the flip.
        let names = g.names();
        let jac = names.iter().position(|n| n == "name.jac_w").unwrap();
        assert_eq!(same_person[jac], 1.0);
        assert!(same_person[jac] > diff_person[jac]);
        let rel = names.iter().position(|n| n == "price.rel_diff").unwrap();
        assert_eq!(same_person[rel], 1.0);
        for v in &same_person {
            assert!((0.0..=1.0).contains(v), "{v}");
        }
    }

    #[test]
    fn matrix_stacks_pairs() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"], &Exec::sequential());
        let pairs = [(0, 0), (1, 1), (0, 1)];
        let m = complete(g.matrix(&PairBatch::new(&pairs), &Exec::default()));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), g.n_features());
        assert_eq!(m.row(0), g.features(&a, 0, &b, 0).as_slice());
    }

    #[test]
    fn batch_kernels_match_scalar_features_bit_for_bit() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"], &Exec::sequential());
        let pairs = all_pairs(&a, &b);
        let m = complete(g.matrix(&PairBatch::new(&pairs), &Exec::default()));
        for (i, &(ra, rb)) in pairs.iter().enumerate() {
            let scalar = g.features(&a, ra, &b, rb);
            let batch = m.row(i);
            assert!(
                scalar.iter().zip(batch).all(|(x, y)| x.to_bits() == y.to_bits()),
                "pair ({ra},{rb}): scalar {scalar:?} vs batch {batch:?}"
            );
        }
    }

    #[test]
    fn parallel_matrix_is_bitwise_identical_to_sequential() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"], &Exec::sequential());
        let pairs = all_pairs(&a, &b);
        let batch = PairBatch::new(&pairs);
        let seq = complete(g.matrix(&batch, &Exec::default()));
        for workers in [1, 4] {
            let exec = Exec::with_pool(WorkerPool::new(workers));
            let par = complete(g.matrix(&batch, &exec));
            assert_eq!(par.rows(), seq.rows());
            for i in 0..seq.rows() {
                let (s, p) = (seq.row(i), par.row(i));
                assert!(
                    s.iter().zip(p).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "row {i} differs with {workers} workers"
                );
            }
        }
    }

    #[test]
    #[allow(deprecated)]
    fn scalar_oracle_agrees_with_the_batch_path() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"], &Exec::sequential());
        let pairs = all_pairs(&a, &b);
        let new = complete(g.matrix(&PairBatch::new(&pairs), &Exec::default()));
        let old = g.matrix_pairs(&a, &b, &pairs);
        for i in 0..new.rows() {
            for j in 0..new.cols() {
                assert_eq!(new.row(i)[j].to_bits(), old.row(i)[j].to_bits());
            }
        }
    }

    #[test]
    fn budget_expiry_interrupts_the_batch() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"], &Exec::sequential());
        let pairs = all_pairs(&a, &b);
        // A zero-step budget trips at the first inter-chunk checkpoint.
        let exec = Exec::sequential().budget(Budget::steps(0));
        match g.matrix(&PairBatch::new(&pairs), &exec) {
            ParOutcome::Interrupted { done, total, .. } => {
                assert_eq!(total, pairs.len());
                assert!(done.rows() < pairs.len());
            }
            ParOutcome::Complete(_) => panic!("zero budget must interrupt"),
        }
    }

    #[test]
    fn tokenize_covers_aligned_columns() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"], &Exec::sequential());
        let vocab = HashVocab::new(128);
        let tp = g.tokenize(&a, 0, &b, 0, &vocab);
        assert_eq!(tp.n_attrs(), 2); // name + price
        assert_eq!(tp.left[0].len(), 2); // li, wei
    }

    #[test]
    fn interned_tokenize_all_matches_per_pair_tokenize() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"], &Exec::sequential());
        let vocab = HashVocab::new(128);
        let pairs = all_pairs(&a, &b);
        let batch = g.tokenize_all(&PairBatch::new(&pairs), &vocab);
        assert_eq!(batch.len(), pairs.len());
        for (tp, &(ra, rb)) in batch.iter().zip(&pairs) {
            let scalar = g.tokenize(&a, ra, &b, rb, &vocab);
            assert_eq!(tp.left, scalar.left, "pair ({ra},{rb}) left");
            assert_eq!(tp.right, scalar.right, "pair ({ra},{rb}) right");
        }
    }

    #[test]
    fn empty_cells_tokenize_to_the_empty_marker() {
        let a = Table::from_csv(parse_csv_str("id,name\na0,\n").unwrap()).unwrap();
        let b = Table::from_csv(parse_csv_str("id,name\nb0,smith\n").unwrap()).unwrap();
        let g = FeatureGenerator::build(&a, &b, &[], &Exec::sequential());
        let vocab = HashVocab::new(64);
        let tps = g.tokenize_all(&PairBatch::new(&[(0, 0)]), &vocab);
        assert_eq!(tps[0].left[0], vec![0], "empty cell gets the marker");
        assert_eq!(tps[0].right[0], vec![vocab.id("smith")]);
    }

    #[test]
    fn empty_numeric_values_yield_zero_similarity() {
        let a = Table::from_csv(parse_csv_str("id,v\na0,\n").unwrap()).unwrap();
        let b = Table::from_csv(parse_csv_str("id,v\nb0,3.5\n").unwrap()).unwrap();
        let g = FeatureGenerator::build(&a, &b, &[], &Exec::sequential());
        let f = g.features(&a, 0, &b, 0);
        assert_eq!(f[0], 0.0); // NaN rel-diff → 0 via rel_diff_sim
        assert_eq!(f[1], 0.0); // not exact
        let m = complete(g.matrix(&PairBatch::new(&[(0, 0)]), &Exec::default()));
        assert_eq!(m.row(0)[0].to_bits(), f[0].to_bits());
        assert_eq!(m.row(0)[1].to_bits(), f[1].to_bits());
    }

    #[test]
    #[should_panic(expected = "no alignable")]
    fn disjoint_schemas_panic() {
        let a = Table::from_csv(parse_csv_str("id,x\na0,1\n").unwrap()).unwrap();
        let b = Table::from_csv(parse_csv_str("id,y\nb0,2\n").unwrap()).unwrap();
        let _ = FeatureGenerator::build(&a, &b, &[], &Exec::sequential());
    }

    /// A mixed text/numeric table of `rows` rows: text with repeats,
    /// case folding, CJK and separator-only cells; numbers with empty
    /// cells, repeats, and a word-splitting sign and exponent.
    fn mixed_table(prefix: &str, rows: usize, salt: usize) -> Table {
        const WORDS: [&str; 9] = [
            "İstanbul",
            "straße",
            "東京",
            "data",
            "base",
            "smith",
            "o'brien",
            "--",
            "école",
        ];
        let rows = (0..rows)
            .map(|i| {
                let k = i * 7 + salt;
                let name = match k % 11 {
                    0 => String::new(),
                    1 => " ,; ".to_owned(),
                    _ => format!("{} {}-{}", WORDS[k % 9], WORDS[(k / 9) % 9], k % 97),
                };
                let price = match k % 13 {
                    0 => String::new(),
                    1 => "-1.5e3".to_owned(),
                    _ => format!("{}.{}", k % 53, k % 10),
                };
                let country = ["cn", "us", "de"][k % 3].to_owned();
                vec![format!("{prefix}{i}"), name, price, country]
            })
            .collect();
        Table::from_csv(fairem_csvio::CsvTable {
            header: ["id", "name", "price", "country"]
                .map(String::from)
                .to_vec(),
            rows,
        })
        .unwrap()
    }

    /// The one-pass build: every aligned column side prepared in
    /// sequence against one interner, with no chunking.
    fn one_pass(g: &FeatureGenerator, a: &Table, b: &Table) -> Interned {
        let mut interner = TokenInterner::new();
        let (mut text, mut numeric) = (Vec::new(), Vec::new());
        fn cells(t: &Table, col: usize) -> impl Iterator<Item = &str> {
            (0..t.len()).map(move |r| t.value(r, col))
        }
        for c in &g.columns {
            match c.kind {
                ColKind::Text => {
                    let pa = PreparedColumn::prepare(cells(a, c.a_col), &mut interner);
                    let pb = PreparedColumn::prepare(cells(b, c.b_col), &mut interner);
                    text.push((pa, pb));
                }
                ColKind::Numeric => {
                    let na = NumericColumn::prepare_cells(cells(a, c.a_col), &mut interner);
                    let nb = NumericColumn::prepare_cells(cells(b, c.b_col), &mut interner);
                    numeric.push((na, nb));
                }
            }
        }
        let mut df = Vec::new();
        let mut n_docs = 0;
        for (pa, pb) in &text {
            n_docs += pa.accumulate_doc_freq(&mut df);
            n_docs += pb.accumulate_doc_freq(&mut df);
        }
        df.resize(interner.len(), 0);
        let rank = interner.string_ranks();
        for (pa, pb) in &mut text {
            pa.finish_tfidf(&df, n_docs, &rank);
            pb.finish_tfidf(&df, n_docs, &rank);
        }
        Interned {
            interner,
            text,
            numeric,
        }
    }

    /// `x == y` with the parsed values compared by bits (an empty cell
    /// parses to NaN, which `==` never equals).
    fn same_numeric(x: &NumericColumn, y: &NumericColumn) -> bool {
        let bits = |c: &NumericColumn| c.value.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let rest = |c: &NumericColumn| NumericColumn {
            value: Vec::new(),
            ..c.clone()
        };
        bits(x) == bits(y) && rest(x) == rest(y)
    }

    #[test]
    fn chunked_build_equals_the_one_pass_build_on_every_pool() {
        // Three chunks per side, the last one short.
        let rows = 2 * BUILD_CHUNK_ROWS + 37;
        let a = mixed_table("a", rows, 0);
        let b = mixed_table("b", rows - 5, 3);
        for workers in [1, 2, 4] {
            let recorder = fairem_obs::Recorder::enabled();
            let exec = Exec::with_pool(WorkerPool::new(workers)).observe(recorder.clone());
            let g = FeatureGenerator::build(&a, &b, &["country"], &exec);
            assert_eq!(g.names().len(), 9, "name is text, price numeric");
            let want = one_pass(&g, &a, &b);
            let got = &*g.interned;
            assert!(got.interner == want.interner, "{workers} workers: interner");
            assert!(got.text == want.text, "{workers} workers: text columns");
            assert_eq!(got.numeric.len(), want.numeric.len());
            for ((ga, gb), (wa, wb)) in got.numeric.iter().zip(&want.numeric) {
                assert!(
                    same_numeric(ga, wa) && same_numeric(gb, wb),
                    "{workers} workers"
                );
            }
            let counters = recorder.snapshot().counters;
            let count = |name: &str| counters.iter().find(|c| c.0 == name).map(|c| c.1);
            assert_eq!(count("features.build.chunks"), Some(2 * (3 + 3)));
            assert_eq!(
                count("features.build.cells"),
                Some(2 * (2 * rows - 5) as u64)
            );
        }
    }
}
