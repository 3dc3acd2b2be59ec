//! Tokenizers: word tokens and padded q-grams.
//!
//! Each tokenizer has one definition, a streaming form that hands every
//! token to a callback as a `&str` built in a caller-owned buffer, so a
//! hot loop (the columnar build, blocking) can intern tokens without
//! allocating one `String` per token. [`word_tokens`] and [`qgrams`]
//! are thin collecting wrappers over those forms.

/// Stream the lowercase alphanumeric word tokens of `s` to `emit`, in
/// order, each built in `buf` (cleared first; its contents afterwards
/// are unspecified).
///
/// Any run of non-alphanumeric characters is a separator, so
/// `"O'Brien-Smith"` yields `"o"`, `"brien"`, `"smith"`.
pub fn for_each_word_token(s: &str, buf: &mut String, mut emit: impl FnMut(&str)) {
    buf.clear();
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            push_lowercase(buf, ch);
        } else if !buf.is_empty() {
            emit(buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        emit(buf);
    }
}

/// Push `ch.to_lowercase()` onto `buf`; ASCII takes the one-byte path
/// (for ASCII the two mappings agree).
pub(crate) fn push_lowercase(buf: &mut String, ch: char) {
    if ch.is_ascii() {
        buf.push(ch.to_ascii_lowercase());
    } else {
        buf.extend(ch.to_lowercase());
    }
}

/// Split a string into lowercase alphanumeric word tokens: the
/// collected [`for_each_word_token`].
pub fn word_tokens(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_word_token(s, &mut String::new(), |t| tokens.push(t.to_owned()));
    tokens
}

/// Stream the `#`-padded character q-grams of `s` to `emit`, in order:
/// the windows of length `q` over `q - 1` pads, the chars of `s`, and
/// `q - 1` pads, collected in `padded` and each built in `buf` (both
/// reused; their contents afterwards are unspecified). An empty `s`
/// emits nothing; any other emits `chars + q - 1` grams.
///
/// # Panics
/// If `q` is 0.
pub fn for_each_qgram(
    s: &str,
    q: usize,
    padded: &mut Vec<char>,
    buf: &mut String,
    mut emit: impl FnMut(&str),
) {
    assert!(q >= 1, "q-gram size must be >= 1");
    if s.is_empty() {
        return;
    }
    padded.clear();
    padded.extend(std::iter::repeat_n('#', q - 1));
    padded.extend(s.chars());
    padded.extend(std::iter::repeat_n('#', q - 1));
    for gram in padded.windows(q) {
        buf.clear();
        buf.extend(gram);
        emit(buf);
    }
}

/// Character q-grams with `#`-padding on both ends, as used by q-gram
/// Jaccard in record linkage (padding makes prefixes/suffixes count):
/// the collected [`for_each_qgram`].
///
/// Returns an empty vector for an empty input. `q` must be at least 1.
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    let mut grams = Vec::new();
    for_each_qgram(s, q, &mut Vec::new(), &mut String::new(), |g| {
        grams.push(g.to_owned())
    });
    grams
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_tokens_split_on_punctuation() {
        assert_eq!(
            word_tokens("O'Brien-Smith, J."),
            vec!["o", "brien", "smith", "j"]
        );
    }

    #[test]
    fn word_tokens_empty() {
        assert!(word_tokens("").is_empty());
        assert!(word_tokens("--- ---").is_empty());
    }

    #[test]
    fn qgrams_padded() {
        let g = qgrams("ab", 3);
        assert_eq!(g, vec!["##a", "#ab", "ab#", "b##"]);
    }

    #[test]
    fn qgrams_unigrams_have_no_padding() {
        assert_eq!(qgrams("ab", 1), vec!["a", "b"]);
    }

    #[test]
    fn qgrams_empty_input() {
        assert!(qgrams("", 3).is_empty());
    }

    #[test]
    fn qgram_count_formula() {
        // With padding q-1 on each side: |s| + q - 1 grams.
        for q in 1..=4 {
            let g = qgrams("hello", q);
            assert_eq!(g.len(), 5 + q - 1);
        }
    }

    #[test]
    #[should_panic(expected = "q-gram size")]
    fn qgrams_rejects_zero() {
        let _ = qgrams("x", 0);
    }

    /// The pre-streaming tokenizers and normalizer, kept verbatim as
    /// the oracles the streaming forms must reproduce.
    mod oracle {
        pub fn normalize(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            let mut last_space = true;
            for ch in s.chars() {
                if ch.is_whitespace() {
                    if !last_space {
                        out.push(' ');
                        last_space = true;
                    }
                } else {
                    for lc in ch.to_lowercase() {
                        out.push(lc);
                    }
                    last_space = false;
                }
            }
            if out.ends_with(' ') {
                out.pop();
            }
            out
        }

        pub fn word_tokens(s: &str) -> Vec<String> {
            let mut tokens = Vec::new();
            let mut cur = String::new();
            for ch in s.chars() {
                if ch.is_alphanumeric() {
                    for lc in ch.to_lowercase() {
                        cur.push(lc);
                    }
                } else if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            if !cur.is_empty() {
                tokens.push(cur);
            }
            tokens
        }

        pub fn qgrams(s: &str, q: usize) -> Vec<String> {
            assert!(q >= 1, "q-gram size must be >= 1");
            if s.is_empty() {
                return Vec::new();
            }
            let padded: Vec<char> = std::iter::repeat_n('#', q - 1)
                .chain(s.chars())
                .chain(std::iter::repeat_n('#', q - 1))
                .collect();
            let n = padded.len();
            if n < q {
                return vec![padded.into_iter().collect()];
            }
            let mut grams = Vec::with_capacity(n - q + 1);
            for i in 0..=(n - q) {
                grams.push(padded[i..i + q].iter().collect());
            }
            grams
        }
    }

    /// Case folding that changes length or segmentation (İ → i + U+0307,
    /// ẞ → ß), combining marks, CJK, the pad char itself, and whitespace
    /// beyond ASCII (VT, NEL, ideographic space).
    const MIXED: &str = "aZ09 #.,'-_İıßẞΣςé\u{301}\u{307}漢字かなΩж\t\n\u{0B}\u{85}\u{A0}\u{3000}";

    #[test]
    fn streaming_forms_match_the_oracles() {
        use crate::normalize::{normalize, normalize_into};
        let alphabet: Vec<char> = MIXED.chars().collect();
        let mut g = fairem_rng::check::Gen::from_seed(0x70c5);
        // One set of buffers across every string: reuse must not leak
        // state from one call into the next.
        let (mut norm, mut tok, mut padded) = (String::new(), String::new(), Vec::new());
        for _ in 0..10_000 {
            let len = g.usize_in(0, 24);
            let s: String = (0..len).map(|_| *g.pick(&alphabet)).collect();
            let expected = oracle::normalize(&s);
            assert_eq!(normalize(&s), expected, "{s:?}");
            normalize_into(&s, &mut norm);
            assert_eq!(norm, expected, "{s:?}");
            for input in [s.as_str(), expected.as_str()] {
                assert_eq!(word_tokens(input), oracle::word_tokens(input), "{input:?}");
                let mut streamed = Vec::new();
                for_each_word_token(input, &mut tok, |t| streamed.push(t.to_owned()));
                assert_eq!(streamed, oracle::word_tokens(input), "{input:?}");
                for q in 1..=4 {
                    let want = oracle::qgrams(input, q);
                    assert_eq!(qgrams(input, q), want, "{input:?} q={q}");
                    let mut streamed = Vec::new();
                    for_each_qgram(input, q, &mut padded, &mut tok, |t| {
                        streamed.push(t.to_owned())
                    });
                    assert_eq!(streamed, want, "{input:?} q={q}");
                }
            }
        }
    }
}
