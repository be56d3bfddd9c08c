//! # nli-nlu
//!
//! The natural-language understanding substrate shared by every parser stage
//! in the workspace. The survey's traditional parsers are built *entirely*
//! out of these pieces (tokenize → stem → lexicon lookup → rank), while the
//! neural- and foundation-model-stage analogues use them for feature
//! extraction, schema linking, and demonstration selection.
//!
//! Everything here is deterministic and dependency-free: a word tokenizer
//! with number/quote handling ([`tokenize`]), a light suffix stemmer
//! ([`stem()`](stem())), stopwords, a synonym lexicon ([`SynonymLexicon`]), hashing
//! character-trigram embeddings ([`embed`]), classic string similarities
//! ([`similarity`]), and n-gram BLEU ([`ngram::bleu`]).

pub mod chunk;
pub mod embed;
pub mod ngram;
pub mod similarity;
pub mod stem;
pub mod stopwords;
pub mod synonyms;
pub mod token;

pub use chunk::{extract_numbers, extract_quoted, ngrams_upto};
pub use embed::{Embedding, SparseEmbedding};
pub use similarity::{
    jaccard, levenshtein, lexical_similarity, normalized_edit_similarity, LexicalForm,
};
pub use stem::stem;
pub use stopwords::is_stopword;
pub use synonyms::SynonymLexicon;
pub use token::{tokenize, tokenize_words, Token, TokenKind};
