//! Candidate-pair generation (blocking).
//!
//! Comparing every A×B pair is quadratic; blocking restricts candidates
//! to pairs that share evidence. Two standard schemes are provided:
//! token blocking (share any word token in the blocking columns) and
//! sorted-neighborhood (windowed scan over a sort key). Both are also
//! available behind the [`Blocker`] trait, so the suite pipeline (and
//! anything else) can select a scheme at configuration time
//! (`SuiteBuilder::blocker`).
//!
//! Token blocking runs as an interned batch kernel: every token is
//! mapped to a dense `u32` id once (`TokenInterner`), per-row dedup
//! uses a stamp array instead of a per-row hash set, and pair emission
//! fans out over the [`Exec`] pool in coarse token-id chunks. The
//! candidate set is identical to the naive string-keyed formulation —
//! the final sort + dedup makes emission order immaterial.

use std::collections::HashSet;

use fairem_text::{for_each_word_token, TokenInterner};

use crate::exec::Exec;
use crate::schema::Table;

/// Candidate pairs as `(a_row, b_row)` indices.
pub type CandidatePairs = Vec<(usize, usize)>;

/// A candidate-generation scheme, selectable at configuration time.
///
/// Implementations must be deterministic pure functions of the two
/// tables: the returned pair list is sorted and duplicate-free, and
/// identical for every `exec` (the pool only changes wall-clock time).
pub trait Blocker: std::fmt::Debug + Send + Sync {
    /// A short stable name for reports and spans.
    fn name(&self) -> &'static str;

    /// Generate the candidate pairs for `a` × `b` under `exec`.
    fn candidates(&self, a: &Table, b: &Table, exec: &Exec) -> CandidatePairs;
}

/// [`Blocker`] wrapper over [`token_blocking`].
#[derive(Debug, Clone)]
pub struct TokenBlocking {
    /// Columns whose word tokens link records.
    pub columns: Vec<String>,
    /// Stop-token guard: blocks larger than this are skipped.
    pub max_block: usize,
}

impl Blocker for TokenBlocking {
    fn name(&self) -> &'static str {
        "token"
    }

    fn candidates(&self, a: &Table, b: &Table, exec: &Exec) -> CandidatePairs {
        let cols: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        token_blocking_exec(a, b, &cols, self.max_block, exec)
    }
}

/// [`Blocker`] wrapper over [`sorted_neighborhood`].
#[derive(Debug, Clone)]
pub struct SortedNeighborhood {
    /// The sort-key column (must exist in both tables).
    pub key_column: String,
    /// Sliding-window size over the merged sorted records.
    pub window: usize,
}

impl Blocker for SortedNeighborhood {
    fn name(&self) -> &'static str {
        "sorted"
    }

    fn candidates(&self, a: &Table, b: &Table, _exec: &Exec) -> CandidatePairs {
        // Sort-bound: the merged key sort dominates, so there is no
        // profitable fan-out stage; the pool is deliberately unused.
        sorted_neighborhood(a, b, &self.key_column, self.window)
    }
}

/// Token blocking: a pair is a candidate when the two records share at
/// least one word token across the given columns (column names must
/// exist in the respective table). Blocks larger than `max_block` are
/// skipped as non-discriminative (stop-token guard).
pub fn token_blocking(a: &Table, b: &Table, columns: &[&str], max_block: usize) -> CandidatePairs {
    token_blocking_exec(a, b, columns, max_block, &Exec::sequential())
}

/// One side's inverted index over interned token ids: `rows_of[id]` are
/// the rows containing token `id` (increasing, duplicate-free).
fn index_side(t: &Table, columns: &[&str], interner: &mut TokenInterner) -> Vec<Vec<u32>> {
    let cols: Vec<usize> = columns
        .iter()
        .map(|c| {
            t.column_index(c)
                // fairem: allow(panic) — documented contract: blocking columns come from validated config
                .unwrap_or_else(|| panic!("blocking column {c:?} missing"))
        })
        .collect();
    let mut rows_of: Vec<Vec<u32>> = vec![Vec::new(); interner.len()];
    // Per-row token dedup via a stamp array over token ids (`row + 1`
    // marks "seen in this row"; 0 is never a stamp).
    let mut stamp: Vec<u32> = vec![0; interner.len()];
    let mut tok = String::new();
    for row in 0..t.len() {
        for &c in &cols {
            for_each_word_token(t.value(row, c), &mut tok, |tok| {
                let id = interner.intern(tok) as usize;
                if rows_of.len() <= id {
                    rows_of.resize(id + 1, Vec::new());
                    stamp.resize(id + 1, 0);
                }
                if stamp[id] != row as u32 + 1 {
                    stamp[id] = row as u32 + 1;
                    rows_of[id].push(row as u32);
                }
            });
        }
    }
    rows_of
}

/// The interned token-blocking kernel behind [`token_blocking`] and
/// [`TokenBlocking`]: index both sides over one interner, pick the
/// token ids passing the stop-token guard, and emit each id's cross
/// product over the pool in token-id chunks. Sorting + deduping the
/// union makes the result independent of emission order, hence
/// identical for every worker count.
fn token_blocking_exec(
    a: &Table,
    b: &Table,
    columns: &[&str],
    max_block: usize,
    exec: &Exec,
) -> CandidatePairs {
    assert!(!columns.is_empty(), "blocking needs at least one column");
    let mut interner = TokenInterner::new();
    let ia = index_side(a, columns, &mut interner);
    let ib = index_side(b, columns, &mut interner);
    let eligible: Vec<usize> = (0..ia.len())
        .filter(|&id| {
            let rows_a = &ia[id];
            let Some(rows_b) = ib.get(id) else {
                return false;
            };
            !rows_a.is_empty()
                && !rows_b.is_empty()
                && rows_a.len() * rows_b.len() <= max_block * max_block
        })
        .collect();
    exec.recorder.add("blocking.tokens", eligible.len() as u64);
    let chunks = exec.pool.par_map(eligible.len(), |k| {
        let id = eligible[k];
        let (rows_a, rows_b) = (&ia[id], &ib[id]);
        let mut part = Vec::with_capacity(rows_a.len() * rows_b.len());
        for &ra in rows_a {
            for &rb in rows_b {
                part.push((ra as usize, rb as usize));
            }
        }
        part
    });
    let mut out: CandidatePairs = chunks.into_iter().flatten().collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Sorted-neighborhood blocking: both tables are sorted by a key column,
/// merged, and every A-B pair within a sliding window of size `window`
/// becomes a candidate.
pub fn sorted_neighborhood(
    a: &Table,
    b: &Table,
    key_column: &str,
    window: usize,
) -> CandidatePairs {
    assert!(window >= 2, "window must be at least 2");
    let ka = a
        .column_index(key_column)
        // fairem: allow(panic) — documented contract: key column comes from validated config
        .unwrap_or_else(|| panic!("key column {key_column:?} missing in A"));
    let kb = b
        .column_index(key_column)
        // fairem: allow(panic) — documented contract: key column comes from validated config
        .unwrap_or_else(|| panic!("key column {key_column:?} missing in B"));
    // Merge records of both sides tagged with origin.
    let mut merged: Vec<(String, bool, usize)> = Vec::with_capacity(a.len() + b.len());
    for row in 0..a.len() {
        merged.push((a.value(row, ka).to_lowercase(), false, row));
    }
    for row in 0..b.len() {
        merged.push((b.value(row, kb).to_lowercase(), true, row));
    }
    merged.sort();
    let mut out: CandidatePairs = Vec::new();
    for i in 0..merged.len() {
        let end = (i + window).min(merged.len());
        for j in (i + 1)..end {
            match (&merged[i], &merged[j]) {
                ((_, false, ra), (_, true, rb)) => {
                    out.push((*ra, *rb));
                }
                ((_, true, rb), (_, false, ra)) => {
                    out.push((*ra, *rb));
                }
                _ => {}
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Recall of a blocking result against the ground-truth matches
/// (fraction of true pairs that survived blocking).
pub fn blocking_recall(candidates: &CandidatePairs, truth: &[(usize, usize)]) -> f64 {
    if truth.is_empty() {
        return f64::NAN;
    }
    let set: HashSet<&(usize, usize)> = candidates.iter().collect();
    let hit = truth.iter().filter(|p| set.contains(p)).count();
    hit as f64 / truth.len() as f64
}

/// Per-group blocking recall: blocking itself can be unfair — e.g. a
/// token blocker loses romanization-drifted duplicates, so a group's
/// true matches never even reach the matcher. Returns `(group name,
/// recall, truth-pair support)` per group, where a truth pair belongs to
/// a group when either entity does (the single-fairness rule).
pub fn per_group_blocking_recall(
    candidates: &CandidatePairs,
    truth: &[(usize, usize)],
    enc_a: &[crate::sensitive::GroupVector],
    enc_b: &[crate::sensitive::GroupVector],
    space: &crate::sensitive::GroupSpace,
) -> Vec<(String, f64, usize)> {
    let set: HashSet<&(usize, usize)> = candidates.iter().collect();
    space
        .ids()
        .map(|g| {
            let legit: Vec<&(usize, usize)> = truth
                .iter()
                .filter(|&&(ra, rb)| enc_a[ra].contains(g) || enc_b[rb].contains(g))
                .collect();
            let recall = if legit.is_empty() {
                f64::NAN
            } else {
                legit.iter().filter(|p| set.contains(**p)).count() as f64 / legit.len() as f64
            };
            (space.name(g).to_owned(), recall, legit.len())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_csvio::parse_csv_str;
    use fairem_par::WorkerPool;
    use fairem_text::word_tokens;

    /// The pre-interning string-keyed formulation, kept as the
    /// reference the kernel must reproduce exactly.
    fn naive_token_blocking(
        a: &Table,
        b: &Table,
        columns: &[&str],
        max_block: usize,
    ) -> CandidatePairs {
        use std::collections::BTreeMap;
        let index_side = |t: &Table| -> BTreeMap<String, Vec<usize>> {
            let cols: Vec<usize> = columns
                .iter()
                .map(|c| t.column_index(c).expect("blocking column"))
                .collect();
            let mut idx: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for row in 0..t.len() {
                let mut seen: HashSet<String> = HashSet::new();
                for &c in &cols {
                    for tok in word_tokens(t.value(row, c)) {
                        if seen.insert(tok.clone()) {
                            idx.entry(tok).or_default().push(row);
                        }
                    }
                }
            }
            idx
        };
        let ia = index_side(a);
        let ib = index_side(b);
        let mut out: CandidatePairs = Vec::new();
        for (tok, rows_a) in &ia {
            let Some(rows_b) = ib.get(tok) else { continue };
            if rows_a.len() * rows_b.len() > max_block * max_block {
                continue;
            }
            for &ra in rows_a {
                for &rb in rows_b {
                    out.push((ra, rb));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn tables() -> (Table, Table) {
        let a = Table::from_csv(
            parse_csv_str("id,name\na0,li wei\na1,john smith\na2,hans muller\n").unwrap(),
        )
        .unwrap();
        let b = Table::from_csv(
            parse_csv_str("id,name\nb0,wei li\nb1,jon smith\nb2,maria garcia\n").unwrap(),
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn token_blocking_links_shared_tokens() {
        let (a, b) = tables();
        let pairs = token_blocking(&a, &b, &["name"], 100);
        assert!(pairs.contains(&(0, 0))); // shares li & wei
        assert!(pairs.contains(&(1, 1))); // shares smith
        assert!(!pairs.contains(&(2, 2))); // muller vs garcia: nothing shared
    }

    #[test]
    fn stop_tokens_are_skipped() {
        // Every record shares "dept", which would cross-product everything.
        let a =
            Table::from_csv(parse_csv_str("id,name\na0,dept x\na1,dept y\na2,dept z\n").unwrap())
                .unwrap();
        let b =
            Table::from_csv(parse_csv_str("id,name\nb0,dept x\nb1,dept q\nb2,dept r\n").unwrap())
                .unwrap();
        let pairs = token_blocking(&a, &b, &["name"], 2);
        // "dept" block is 3×3 > 2×2 → skipped; only "x" links (0,0).
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn sorted_neighborhood_links_nearby_keys() {
        let (a, b) = tables();
        let pairs = sorted_neighborhood(&a, &b, "name", 3);
        assert!(pairs.contains(&(1, 1)), "{pairs:?}"); // john/jon adjacent
                                                       // All candidate pairs are valid indexes.
        for (ra, rb) in &pairs {
            assert!(*ra < a.len() && *rb < b.len());
        }
    }

    #[test]
    fn recall_measures_truth_coverage() {
        let cands = vec![(0, 0), (1, 1)];
        assert_eq!(blocking_recall(&cands, &[(0, 0), (2, 2)]), 0.5);
        assert_eq!(blocking_recall(&cands, &[(0, 0)]), 1.0);
        assert!(blocking_recall(&cands, &[]).is_nan());
    }

    #[test]
    fn interned_kernel_matches_the_naive_reference() {
        let (a, b) = tables();
        // Multi-column, repeated tokens, empty overlap, tight and loose
        // stop-token guards.
        let a2 = Table::from_csv(
            parse_csv_str(
                "id,name,org\na0,li wei wei,tsinghua\na1,john smith,dept x\na2,dept dept,dept y\n",
            )
            .unwrap(),
        )
        .unwrap();
        let b2 = Table::from_csv(
            parse_csv_str(
                "id,name,org\nb0,wei li,peking\nb1,jon smith,dept q\nb2,empty,\n",
            )
            .unwrap(),
        )
        .unwrap();
        for max_block in [1, 2, 100] {
            assert_eq!(
                token_blocking(&a, &b, &["name"], max_block),
                naive_token_blocking(&a, &b, &["name"], max_block),
                "max_block={max_block}"
            );
            assert_eq!(
                token_blocking(&a2, &b2, &["name", "org"], max_block),
                naive_token_blocking(&a2, &b2, &["name", "org"], max_block),
                "two columns, max_block={max_block}"
            );
        }
    }

    #[test]
    fn parallel_emission_is_identical_to_sequential() {
        let (a, b) = tables();
        let blocker = TokenBlocking {
            columns: vec!["name".into()],
            max_block: 100,
        };
        let seq = blocker.candidates(&a, &b, &Exec::sequential());
        for workers in [2, 4] {
            let par = blocker.candidates(&a, &b, &Exec::with_pool(WorkerPool::new(workers)));
            assert_eq!(seq, par, "workers={workers}");
        }
        assert_eq!(seq, token_blocking(&a, &b, &["name"], 100));
    }

    #[test]
    fn blocker_trait_selects_schemes() {
        let (a, b) = tables();
        let tb = TokenBlocking {
            columns: vec!["name".into()],
            max_block: 100,
        };
        let sn = SortedNeighborhood {
            key_column: "name".into(),
            window: 3,
        };
        assert_eq!(tb.name(), "token");
        assert_eq!(sn.name(), "sorted");
        let exec = Exec::default();
        assert_eq!(
            tb.candidates(&a, &b, &exec),
            token_blocking(&a, &b, &["name"], 100)
        );
        assert_eq!(
            sn.candidates(&a, &b, &exec),
            sorted_neighborhood(&a, &b, "name", 3)
        );
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn unknown_blocking_column_panics() {
        let (a, b) = tables();
        let _ = token_blocking(&a, &b, &["nope"], 10);
    }

    #[test]
    fn per_group_recall_exposes_blocker_bias() {
        use crate::sensitive::{GroupSpace, SensitiveAttr};
        // Group x's duplicate shares no token (drifted); group y's does.
        let a =
            Table::from_csv(parse_csv_str("id,name,g\na0,wang wei,x\na1,john smith,y\n").unwrap())
                .unwrap();
        let b =
            Table::from_csv(parse_csv_str("id,name,g\nb0,wong way,x\nb1,jon smith,y\n").unwrap())
                .unwrap();
        let space = GroupSpace::extract(&[&a, &b], vec![SensitiveAttr::categorical("g")]);
        let enc_a = space.encode_table(&a);
        let enc_b = space.encode_table(&b);
        let candidates = token_blocking(&a, &b, &["name"], 100);
        let truth = vec![(0, 0), (1, 1)];
        let rows = per_group_blocking_recall(&candidates, &truth, &enc_a, &enc_b, &space);
        let recall_of = |name: &str| rows.iter().find(|(n, _, _)| n == name).unwrap().1;
        assert_eq!(recall_of("x"), 0.0, "drifted pair is lost by the blocker");
        assert_eq!(recall_of("y"), 1.0);
        // Overall recall masks the group gap.
        assert_eq!(blocking_recall(&candidates, &truth), 0.5);
    }
}
