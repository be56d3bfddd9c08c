//! Classic string and set similarities used by schema linking, retrieval,
//! and fuzzy evaluation.

use std::collections::HashSet;

/// Levenshtein edit distance (unit costs), O(|a|·|b|) with a rolling row.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b)
}

/// [`levenshtein`] over pre-split character slices, for callers that
/// compare one string against many.
fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// `1 - dist/max_len`, in `[0, 1]`; 1.0 for two empty strings.
pub fn normalized_edit_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaccard similarity of two token multisets (treated as sets).
pub fn jaccard<'a>(
    a: impl IntoIterator<Item = &'a str>,
    b: impl IntoIterator<Item = &'a str>,
) -> f64 {
    let sa: HashSet<&str> = a.into_iter().collect();
    let sb: HashSet<&str> = b.into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union as f64
}

/// Blended lexical similarity used for schema linking: exact match scores
/// 1.0, then the max of edit similarity and word-level containment.
///
/// Containment handles multi-word display names: "unit price" vs question
/// token "price" should score well even though edit distance is poor.
pub fn lexical_similarity(a: &str, b: &str) -> f64 {
    LexicalForm::new(a).similarity(&LexicalForm::new(b))
}

/// A string prepared for [`lexical_similarity`]: lower-cased once, with
/// its characters and words split out, so a phrase compared against many
/// others pays for the preparation once.
#[derive(Debug, Clone)]
pub struct LexicalForm {
    text: String,
    chars: Box<[char]>,
    words: Box<[Box<str>]>,
}

impl LexicalForm {
    pub fn new(s: &str) -> LexicalForm {
        let text = s.to_lowercase();
        let chars = text.chars().collect();
        let words = text.split_whitespace().map(Box::from).collect();
        LexicalForm { text, chars, words }
    }

    /// [`lexical_similarity`] of the two prepared strings.
    pub fn similarity(&self, other: &LexicalForm) -> f64 {
        if self.text == other.text {
            return 1.0;
        }
        let max_len = self.chars.len().max(other.chars.len());
        // both empty means equal texts, handled above
        let edit = 1.0 - levenshtein_chars(&self.chars, &other.chars) as f64 / max_len as f64;
        let (wa, wb) = (&self.words, &other.words);
        let containment = if !wa.is_empty() && !wb.is_empty() {
            let (small, large) = if wa.len() <= wb.len() {
                (wa, wb)
            } else {
                (wb, wa)
            };
            let hits = small.iter().filter(|w| large.contains(w)).count();
            0.9 * hits as f64 / small.len() as f64
        } else {
            0.0
        };
        edit.max(containment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The blended formula written out on plain strings.
    fn direct_lexical_similarity(a: &str, b: &str) -> f64 {
        let (a, b) = (a.to_lowercase(), b.to_lowercase());
        if a == b {
            return 1.0;
        }
        let edit = normalized_edit_similarity(&a, &b);
        let wa: Vec<&str> = a.split_whitespace().collect();
        let wb: Vec<&str> = b.split_whitespace().collect();
        let containment = if !wa.is_empty() && !wb.is_empty() {
            let (small, large) = if wa.len() <= wb.len() {
                (&wa, &wb)
            } else {
                (&wb, &wa)
            };
            let hits = small.iter().filter(|w| large.contains(w)).count();
            0.9 * hits as f64 / small.len() as f64
        } else {
            0.0
        };
        edit.max(containment)
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn edit_similarity_range() {
        assert_eq!(normalized_edit_similarity("", ""), 1.0);
        assert_eq!(normalized_edit_similarity("abc", "abc"), 1.0);
        assert_eq!(normalized_edit_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(vec!["a", "b"], vec!["a", "b"]), 1.0);
        assert_eq!(jaccard(vec!["a"], vec!["b"]), 0.0);
        assert!((jaccard(vec!["a", "b"], vec!["b", "c"]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard(Vec::<&str>::new(), Vec::<&str>::new()), 1.0);
    }

    #[test]
    fn containment_beats_edit_for_multiword_names() {
        let s = lexical_similarity("unit price", "price");
        assert!(s >= 0.85, "got {s}");
    }

    #[test]
    fn lexical_similarity_is_case_insensitive() {
        assert_eq!(lexical_similarity("Revenue", "revenue"), 1.0);
    }

    proptest! {
        #[test]
        fn levenshtein_symmetry(a in "[a-c]{0,8}", b in "[a-c]{0,8}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn levenshtein_triangle(a in "[a-c]{0,6}", b in "[a-c]{0,6}", c in "[a-c]{0,6}") {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        #[test]
        fn prepared_similarity_matches_the_direct_formula(
            a in "[a-cA-C ]{0,12}",
            b in "[a-cA-C ]{0,12}",
        ) {
            prop_assert_eq!(
                lexical_similarity(&a, &b).to_bits(),
                direct_lexical_similarity(&a, &b).to_bits()
            );
        }

        #[test]
        fn similarities_in_unit_interval(a in ".{0,10}", b in ".{0,10}") {
            let s = lexical_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }
}
