//! Hashing character-trigram embeddings.
//!
//! A dependency-free stand-in for learned word embeddings: strings map to a
//! fixed-dimension vector by hashing their character trigrams (with word
//! boundary markers). Morphologically related strings share most trigrams,
//! so cosine similarity behaves like a cheap subword embedding — exactly
//! what the retrieval components (RGVisNet-style codebase lookup, few-shot
//! demonstration selection) need.

/// Embedding dimensionality. 256 keeps collisions rare for schema-sized
/// vocabularies while staying cache-friendly.
pub const DIM: usize = 256;

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    /// Embed a string: hash every padded character trigram of every word
    /// into one of [`DIM`] buckets, then L2-normalize.
    pub fn of(text: &str) -> Self {
        let mut v = vec![0f32; DIM];
        for word in text.to_lowercase().split(|c: char| !c.is_alphanumeric()) {
            if word.is_empty() {
                continue;
            }
            let padded: Vec<char> = std::iter::once('^')
                .chain(word.chars())
                .chain(std::iter::once('$'))
                .collect();
            for tri in padded.windows(3) {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &c in tri {
                    h ^= c as u64;
                    h = h.wrapping_mul(0x1_0000_01b3);
                }
                v[(h % DIM as u64) as usize] += 1.0;
            }
            // single-char and two-char words still get one trigram thanks to
            // the boundary padding.
        }
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        Embedding(v)
    }

    /// Cosine similarity; both operands are unit vectors so this is a dot
    /// product. Zero vectors (empty strings) give 0.
    pub fn cosine(&self, other: &Embedding) -> f64 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a * b) as f64)
            .sum()
    }

    /// The non-zero components, for phrases compared against many others.
    pub fn sparse(&self) -> SparseEmbedding {
        SparseEmbedding(
            self.0
                .iter()
                .enumerate()
                .filter(|(_, x)| **x != 0.0)
                .map(|(i, x)| (i as u16, *x))
                .collect(),
        )
    }

    /// Elementwise mean of several embeddings, re-normalized. Used to embed
    /// bags of schema names.
    pub fn centroid(items: &[Embedding]) -> Embedding {
        let mut v = vec![0f32; DIM];
        for e in items {
            for (a, b) in v.iter_mut().zip(&e.0) {
                *a += b;
            }
        }
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        Embedding(v)
    }
}

/// An [`Embedding`]'s non-zero components in ascending dimension order.
/// A short phrase touches a dozen of the [`DIM`] buckets, so this is
/// ~20× smaller and its cosine ~20× cheaper.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseEmbedding(Box<[(u16, f32)]>);

impl SparseEmbedding {
    /// Bit-identical to [`Embedding::cosine`] of the dense vectors: the
    /// products are summed in the same dimension order, and the skipped
    /// zero products cannot change a float sum of non-negative terms.
    pub fn cosine(&self, other: &SparseEmbedding) -> f64 {
        let (a, b) = (&self.0, &other.0);
        let (mut i, mut j) = (0, 0);
        let mut sum = 0.0f64;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += (a[i].1 * b[j].1) as f64;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sparse_cosine_is_bit_identical_to_dense(a in "[a-e _]{0,16}", b in "[a-e _]{0,16}") {
            let (ea, eb) = (Embedding::of(&a), Embedding::of(&b));
            prop_assert_eq!(
                ea.sparse().cosine(&eb.sparse()).to_bits(),
                ea.cosine(&eb).to_bits()
            );
        }
    }

    #[test]
    fn identical_strings_have_cosine_one() {
        let a = Embedding::of("total revenue by category");
        let b = Embedding::of("total revenue by category");
        assert!((a.cosine(&b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn morphological_variants_are_close() {
        let a = Embedding::of("singer");
        let b = Embedding::of("singers");
        let c = Embedding::of("airport");
        assert!(a.cosine(&b) > a.cosine(&c));
        assert!(a.cosine(&b) > 0.6);
    }

    #[test]
    fn unrelated_strings_are_far() {
        let a = Embedding::of("quarterly revenue");
        let b = Embedding::of("xylophone zoo");
        assert!(a.cosine(&b) < 0.3);
    }

    #[test]
    fn empty_string_embeds_to_zero() {
        let z = Embedding::of("");
        assert_eq!(z.cosine(&Embedding::of("anything")), 0.0);
    }

    #[test]
    fn case_insensitive() {
        let a = Embedding::of("Revenue");
        let b = Embedding::of("revenue");
        assert!((a.cosine(&b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn centroid_is_between_members() {
        let a = Embedding::of("price");
        let b = Embedding::of("amount");
        let c = Embedding::centroid(&[a.clone(), b.clone()]);
        assert!(c.cosine(&a) > 0.3);
        assert!(c.cosine(&b) > 0.3);
    }
}
