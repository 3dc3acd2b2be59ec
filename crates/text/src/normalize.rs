//! Lightweight string normalization applied before similarity computation.

use crate::tokenize::push_lowercase;

/// Write the normalized form of `s` into `out` (cleared first), so a hot
/// loop can normalize every cell into one reused buffer. This is the one
/// definition; [`normalize`] wraps it.
pub fn normalize_into(s: &str, out: &mut String) {
    out.clear();
    let mut last_space = true; // leading whitespace is dropped
    for ch in s.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            push_lowercase(out, ch);
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
}

/// Lowercase, trim, and collapse internal whitespace runs to single spaces.
///
/// Non-alphanumeric punctuation is preserved (edit-distance measures care
/// about it); tokenizers strip it separately.
///
/// ```
/// assert_eq!(fairem_text::normalize("  Li   WEI "), "li wei");
/// ```
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_into(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::normalize;

    #[test]
    fn collapses_whitespace() {
        assert_eq!(normalize("a\t\nb   c"), "a b c");
    }

    #[test]
    fn lowercases_unicode() {
        assert_eq!(normalize("MÜLLER"), "müller");
    }

    #[test]
    fn empty_and_blank() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("   \t "), "");
    }

    #[test]
    fn keeps_punctuation() {
        assert_eq!(normalize("O'Brien, J."), "o'brien, j.");
    }
}
