//! Token interning: map every distinct token string to a dense `u32` id.
//!
//! The columnar feature path tokenizes each cell **once** at build time
//! and stores token *ids* instead of strings; every downstream kernel
//! (set similarity, TF-IDF cosine, blocking) then works on integer
//! slices. An interner is append-only and is never shared between
//! threads. A parallel build gives each row chunk its own chunk-local
//! interner and then folds them into the final one with
//! [`TokenInterner::absorb`], in chunk order. After the build the
//! interner is read immutably, so the parallel pair loop never touches
//! the lookup map.
//!
//! Determinism: ids are assigned in first-encounter order, which is a
//! pure function of the input tables — the hash table is used only for
//! point lookups (never iterated), so no iteration-order
//! nondeterminism can leak into results. Absorbing chunk-local
//! interners in chunk order reproduces that order exactly: a token's
//! first occurrence in the whole stream lies in the first chunk that
//! holds it, at the position where that chunk's interner first met it.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// The smallest table: 16 slots.
const MIN_SLOTS_LOG2: u32 = 4;

/// An append-only string-to-`u32` interner with a per-token char cache.
///
/// Every token is stored once, in one text buffer, and the lookup table
/// holds ids only, so interning a token that is already known allocates
/// nothing and interning a new one appends to flat arrays.
///
/// Two interners are equal when they hold the same tokens under the
/// same ids.
#[derive(Debug, Clone)]
pub struct TokenInterner {
    // Every interned string back to back: id `i` is
    // `text[text_off[i]..text_off[i + 1]]`.
    text: String,
    text_off: Vec<u32>,
    // Flattened `chars()` of every interned string, so kernels that
    // need char slices (Monge-Elkan's inner Jaro-Winkler) split each
    // token exactly once.
    chars: Vec<char>,
    chars_off: Vec<u32>,
    // Open addressing with linear probing over a power-of-two table,
    // at most half full: `id + 1` per slot, 0 for empty. Tokens come
    // from input cells, so the hash is keyed per interner (std's
    // SipHash) to keep crafted collisions out; the table is never
    // iterated, so its layout cannot reach an id.
    slots: Vec<u32>,
    slots_log2: u32,
    hasher: RandomState,
}

impl PartialEq for TokenInterner {
    fn eq(&self, other: &TokenInterner) -> bool {
        self.text_off == other.text_off && self.text == other.text
    }
}

impl Default for TokenInterner {
    fn default() -> TokenInterner {
        TokenInterner::new()
    }
}

impl TokenInterner {
    /// An empty interner.
    pub fn new() -> TokenInterner {
        TokenInterner {
            text: String::new(),
            text_off: vec![0],
            chars: Vec::new(),
            chars_off: vec![0],
            slots: vec![0; 1 << MIN_SLOTS_LOG2],
            slots_log2: MIN_SLOTS_LOG2,
            hasher: RandomState::new(),
        }
    }

    /// The slot holding `tok`, or the empty slot where it would go.
    fn find(&self, tok: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (self.hasher.hash_one(tok) >> (64 - self.slots_log2)) as usize;
        loop {
            let slot = self.slots[at];
            if slot == 0 || self.resolve(slot - 1) == tok {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Double the table and re-place every id.
    fn grow(&mut self) {
        self.slots_log2 += 1;
        self.slots = vec![0; 1 << self.slots_log2];
        for id in 0..self.len() as u32 {
            let at = self.find(self.resolve(id));
            self.slots[at] = id + 1;
        }
    }

    /// Intern `tok`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, tok: &str) -> u32 {
        let at = self.find(tok);
        if let Some(id) = self.slots[at].checked_sub(1) {
            return id;
        }
        let id = self.len() as u32;
        self.slots[at] = id + 1;
        self.text.push_str(tok);
        self.text_off.push(self.text.len() as u32);
        self.chars.extend(tok.chars());
        self.chars_off.push(self.chars.len() as u32);
        if 2 * self.len() > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Intern every token of `local` in `local`'s id order, and return
    /// the table mapping each `local` id to its id here. Absorbing
    /// chunk-local interners in chunk order assigns exactly the ids a
    /// single interner fed the chunks' tokens in sequence would assign.
    pub fn absorb(&mut self, local: &TokenInterner) -> Vec<u32> {
        (0..local.len() as u32)
            .map(|id| self.intern(local.resolve(id)))
            .collect()
    }

    /// The id of an already-interned token, if any.
    pub fn get(&self, tok: &str) -> Option<u32> {
        self.slots[self.find(tok)].checked_sub(1)
    }

    /// The string an id was assigned to. Ids come from this interner's
    /// [`TokenInterner::intern`], so the index is always in range for
    /// well-formed callers; out-of-range ids are a caller bug and index
    /// out of bounds like any slice access.
    pub fn resolve(&self, id: u32) -> &str {
        let lo = self.text_off[id as usize] as usize;
        let hi = self.text_off[id as usize + 1] as usize;
        &self.text[lo..hi]
    }

    /// The cached `chars()` of an interned token.
    pub fn chars_of(&self, id: u32) -> &[char] {
        let lo = self.chars_off[id as usize] as usize;
        let hi = self.chars_off[id as usize + 1] as usize;
        &self.chars[lo..hi]
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.text_off.len() - 1
    }

    /// Whether no token has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// For every id, its position in the lexicographic order of all
    /// interned strings: `rank[id] = |{ other : string(other) < string(id) }|`.
    ///
    /// Comparing ranks is exactly comparing token strings (the mapping
    /// is order-isomorphic and all strings are distinct), which lets
    /// the TF-IDF kernel merge-join integer ranks while reproducing the
    /// scalar path's string-sorted accumulation order bit for bit.
    pub fn string_ranks(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&x, &y| self.resolve(x).cmp(self.resolve(y)));
        let mut rank = vec![0u32; order.len()];
        for (pos, &id) in order.iter().enumerate() {
            rank[id as usize] = pos as u32;
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut it = TokenInterner::new();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        let a2 = it.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(a), "alpha");
        assert_eq!(it.resolve(b), "beta");
        assert_eq!(it.get("alpha"), Some(a));
        assert_eq!(it.get("gamma"), None);
    }

    #[test]
    fn char_cache_matches_chars() {
        let mut it = TokenInterner::new();
        for tok in ["", "a", "müller", "i\u{307}", "漢字"] {
            let id = it.intern(tok);
            assert_eq!(it.chars_of(id), tok.chars().collect::<Vec<_>>(), "{tok:?}");
        }
    }

    #[test]
    fn ranks_mirror_string_order() {
        let mut it = TokenInterner::new();
        let ids: Vec<u32> = ["pear", "apple", "fig", "banana"]
            .iter()
            .map(|t| it.intern(t))
            .collect();
        let rank = it.string_ranks();
        // apple < banana < fig < pear
        assert_eq!(rank[ids[0] as usize], 3);
        assert_eq!(rank[ids[1] as usize], 0);
        assert_eq!(rank[ids[2] as usize], 2);
        assert_eq!(rank[ids[3] as usize], 1);
        // Comparing ranks == comparing strings, pairwise.
        for &x in &ids {
            for &y in &ids {
                assert_eq!(
                    rank[x as usize].cmp(&rank[y as usize]),
                    it.resolve(x).cmp(it.resolve(y))
                );
            }
        }
    }

    #[test]
    fn absorbing_chunks_in_order_reproduces_sequential_ids() {
        let stream = ["b", "a", "b", "c", "a", "d", "c", "e", "b", "f"];
        let mut seq = TokenInterner::new();
        let want: Vec<u32> = stream.iter().map(|t| seq.intern(t)).collect();
        for chunk in 1..=stream.len() {
            let mut global = TokenInterner::new();
            let mut got = Vec::new();
            for part in stream.chunks(chunk) {
                let mut local = TokenInterner::new();
                let ids: Vec<u32> = part.iter().map(|t| local.intern(t)).collect();
                let map = global.absorb(&local);
                got.extend(ids.iter().map(|&id| map[id as usize]));
            }
            assert_eq!(got, want, "chunk length {chunk}");
            assert_eq!(global.len(), seq.len());
            for id in 0..seq.len() as u32 {
                assert_eq!(global.resolve(id), seq.resolve(id));
                assert_eq!(global.chars_of(id), seq.chars_of(id));
            }
        }
    }

    #[test]
    fn table_growth_keeps_every_id() {
        let mut it = TokenInterner::new();
        let toks: Vec<String> = (0..5000)
            .map(|i| match i % 4 {
                0 => format!("{i}"),
                1 => format!("tok{i}\0"),
                2 => "é".repeat(i % 19),
                _ => format!("{:x}", i * 7919),
            })
            .collect();
        let mut first: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        for t in &toks {
            let id = it.intern(t);
            let next = first.len() as u32;
            let want = *first.entry(t.as_str()).or_insert(next);
            assert_eq!(id, want, "{t:?}");
        }
        assert_eq!(it.len(), first.len());
        for (t, &id) in &first {
            assert_eq!(it.get(t), Some(id));
            assert_eq!(it.resolve(id), *t);
            assert_eq!(it.intern(t), id);
        }
        assert_eq!(it.get("absent"), None);
        assert_eq!(it.len(), first.len());
    }

    #[test]
    fn empty_interner() {
        let it = TokenInterner::new();
        assert!(it.is_empty());
        assert!(it.string_ranks().is_empty());
    }
}
