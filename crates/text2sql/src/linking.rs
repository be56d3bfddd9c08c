//! Schema linking: matching question spans to tables, columns, and values.
//!
//! This is the survey's recurring bottleneck — every stage of the taxonomy
//! is, at heart, a different way of doing (and then consuming) schema
//! linking. [`LinkConfig`] switches the individual signals on and off so
//! the same linker models a NaLIR-era lexical matcher, a BERT-era learned
//! linker (via the trained [`nli_lm::AlignmentModel`]), or an LLM-era
//! linker with synonym/embedding "world knowledge" — and the Table 4
//! robustness experiments ablate exactly these switches.

use nli_core::{ColumnRef, Database, Prng, Schema, Value};
use nli_lm::AlignmentModel;
use nli_nlu::{
    is_stopword, stem, tokenize, Embedding, LexicalForm, SparseEmbedding, SynonymLexicon, Token,
    TokenKind,
};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// Which linking signals are enabled.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Exact / stemmed / edit-distance lexical matching (every era has it).
    pub lexical: bool,
    /// Synonym-lexicon expansion (world knowledge).
    pub synonyms: bool,
    /// Character-trigram embedding similarity (subword generalization).
    pub embeddings: bool,
    /// Ground quoted literals against database *content* (value linking).
    pub values: bool,
    /// Learned token↔schema statistics (requires a trained model).
    pub alignment: Option<AlignmentModel>,
    /// Minimum score for a span to count as a column mention.
    pub threshold: f64,
}

impl LinkConfig {
    /// Traditional-stage linker: lexical matching only.
    pub fn lexical_only() -> LinkConfig {
        LinkConfig {
            lexical: true,
            synonyms: false,
            embeddings: false,
            values: true,
            alignment: None,
            threshold: 0.62,
        }
    }

    /// Neural-stage linker: lexical + learned alignment statistics.
    pub fn learned(alignment: AlignmentModel) -> LinkConfig {
        LinkConfig {
            lexical: true,
            synonyms: false,
            embeddings: true,
            values: true,
            alignment: Some(alignment),
            threshold: 0.55,
        }
    }

    /// LLM-stage linker: everything, including synonym world knowledge.
    pub fn world_knowledge() -> LinkConfig {
        LinkConfig {
            lexical: true,
            synonyms: true,
            embeddings: true,
            values: true,
            alignment: None,
            threshold: 0.55,
        }
    }

    pub fn with_alignment(mut self, alignment: AlignmentModel) -> LinkConfig {
        self.alignment = Some(alignment);
        self
    }
}

/// One column link: where in the question, which column, how confident.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnLink {
    /// Word-index span `[start, end)` in the content-token sequence.
    pub start: usize,
    pub len: usize,
    pub col: ColumnRef,
    pub score: f64,
}

/// One value link: a literal grounded to the column(s) containing it.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueLink {
    pub col: ColumnRef,
    pub value: Value,
}

/// The linker's output for one question.
#[derive(Debug, Clone, Default)]
pub struct LinkingResult {
    /// Per-table mention score (index-aligned with `schema.tables`).
    pub table_scores: Vec<f64>,
    /// Column mentions, best-first.
    pub columns: Vec<ColumnLink>,
    /// Grounded literals.
    pub values: Vec<ValueLink>,
    /// Content tokens (words minus stopwords) the spans index into.
    pub tokens: Vec<String>,
}

impl LinkingResult {
    /// Best-scoring table, if any scored above zero.
    pub fn best_table(&self) -> Option<usize> {
        best_index(&self.table_scores)
    }

    /// Best column link overlapping the token span `[start, end)`.
    pub fn column_in_span(&self, start: usize, end: usize) -> Option<&ColumnLink> {
        self.columns
            .iter()
            .filter(|l| l.start < end && l.start + l.len > start)
            .max_by(|a, b| a.score.total_cmp(&b.score))
    }
}

/// A phrase prepared for [`Linker::score`]: everything the score reads,
/// computed once. Question spans get one per call; table and column names
/// get one per schema, cached on the [`Linker`].
pub(crate) struct Surface {
    /// The phrase, for raw lexical matching.
    raw: LexicalForm,
    /// The phrase's words stemmed and re-joined, so "singers" matches
    /// "singer".
    stemmed: LexicalForm,
    /// Per whitespace word: its lower-cased stem and that stem's synonym
    /// group. Also the word count the long-span penalty reads.
    stems: Box<[(Box<str>, Option<usize>)]>,
    /// Trigram embedding; absent when built for a linker without
    /// embeddings.
    embedding: Option<SparseEmbedding>,
}

impl Surface {
    fn new(phrase: &str, lexicon: &SynonymLexicon, embed: bool) -> Surface {
        let stems: Vec<String> = phrase.split_whitespace().map(stem).collect();
        Surface {
            raw: LexicalForm::new(phrase),
            stemmed: LexicalForm::new(&stems.join(" ")),
            stems: stems
                .iter()
                .map(|s| (s.to_lowercase().into(), lexicon.group_of(s)))
                .collect(),
            embedding: embed.then(|| Embedding::of(phrase).sparse()),
        }
    }
}

/// `SynonymLexicon::are_synonyms` over two prepared stems.
fn synonymous(a: &(Box<str>, Option<usize>), b: &(Box<str>, Option<usize>)) -> bool {
    a.0 == b.0 || (a.1.is_some() && a.1 == b.1)
}

/// The linking surfaces of one schema's names: per table its display name
/// and its underscore-free name, per column its display name. They depend
/// on nothing but those strings, so one build serves every question asked
/// of the schema.
pub(crate) struct SchemaSurfaces {
    tables: Vec<[Surface; 2]>,
    columns: Vec<Vec<Surface>>,
}

impl SchemaSurfaces {
    fn build(schema: &Schema, lexicon: &SynonymLexicon, embed: bool) -> SchemaSurfaces {
        let surface = |p: &str| Surface::new(p, lexicon, embed);
        SchemaSurfaces {
            tables: schema
                .tables
                .iter()
                .map(|t| [surface(&t.display), surface(&t.name.replace('_', " "))])
                .collect(),
            columns: schema
                .tables
                .iter()
                .map(|t| t.columns.iter().map(|c| surface(&c.display)).collect())
                .collect(),
        }
    }

    pub(crate) fn column(&self, r: ColumnRef) -> &Surface {
        &self.columns[r.table][r.column]
    }
}

/// Schemas whose surfaces one linker keeps; past this the cache starts
/// over, bounding memory for a parser that sees schemas without end.
const SURFACE_CACHE_SCHEMAS: usize = 256;

/// The cache key: every table and column name and display, length-framed
/// so no two schemas share one. [`Schema::fingerprint`] is not enough — it
/// ignores displays, and the surfaces are built from them.
fn surface_key(schema: &Schema) -> String {
    let mut key = String::new();
    let mut push = |s: &str| {
        key.push_str(&s.len().to_string());
        key.push(':');
        key.push_str(s);
    };
    for t in &schema.tables {
        push(&t.name);
        push(&t.display);
        push(&t.columns.len().to_string());
        for c in &t.columns {
            push(&c.name);
            push(&c.display);
        }
    }
    key
}

/// Position of the highest score, if it is above zero (last on ties).
fn best_index(scores: &[f64]) -> Option<usize> {
    let (i, s) = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))?;
    (*s > 0.0).then_some(i)
}

/// Question tokens minus stopwords, and their texts (the words spans index
/// into).
fn content_tokens(question: &str) -> (Vec<Token>, Vec<String>) {
    let tokens: Vec<Token> = tokenize(question)
        .into_iter()
        .filter(|t| t.kind != TokenKind::Word || !is_stopword(&t.text))
        .collect();
    let words = tokens.iter().map(|t| t.text.clone()).collect();
    (tokens, words)
}

/// The schema linker.
pub struct Linker {
    pub config: LinkConfig,
    lexicon: SynonymLexicon,
    /// Per-schema name surfaces, keyed by [`surface_key`]. Read-mostly: a
    /// schema is built once and then only read, from any thread.
    surfaces: RwLock<HashMap<String, Arc<SchemaSurfaces>>>,
}

impl Linker {
    pub fn new(config: LinkConfig) -> Linker {
        Linker {
            config,
            lexicon: SynonymLexicon::default_english(),
            surfaces: RwLock::new(HashMap::new()),
        }
    }

    /// Prepare a question span for [`Linker::score`] under this linker's
    /// signals.
    pub(crate) fn surface(&self, phrase: &str) -> Surface {
        Surface::new(phrase, &self.lexicon, self.config.embeddings)
    }

    /// The name surfaces of `schema`, built on first sight. A hit compares
    /// the whole key, so one schema can never be served another's
    /// surfaces.
    pub(crate) fn schema_surfaces(&self, schema: &Schema) -> Arc<SchemaSurfaces> {
        // every write leaves the map valid (one insert, or a clear), so a
        // lock poisoned by a panicking reader or writer is still usable
        let key = surface_key(schema);
        let cached = self.surfaces.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = cached.get(&key) {
            return Arc::clone(s);
        }
        drop(cached);
        let built = Arc::new(SchemaSurfaces::build(
            schema,
            &self.lexicon,
            self.config.embeddings,
        ));
        let mut cache = self
            .surfaces
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if cache.len() >= SURFACE_CACHE_SCHEMAS {
            cache.clear();
        }
        Arc::clone(cache.entry(key).or_insert(built))
    }

    /// Similarity of a question span to a schema phrase under the enabled
    /// signals.
    pub fn phrase_score(&self, span: &str, schema_phrase: &str) -> f64 {
        self.score(&self.surface(span), &self.surface(schema_phrase))
    }

    /// [`Linker::phrase_score`] of two prepared phrases.
    pub(crate) fn score(&self, span: &Surface, schema: &Surface) -> f64 {
        let mut best: f64 = 0.0;
        if self.config.lexical {
            best = best
                .max(span.stemmed.similarity(&schema.stemmed))
                .max(span.raw.similarity(&schema.raw));
        }
        let (span_words, schema_words) = (&span.stems, &schema.stems);
        if self.config.synonyms && best < 1.0 {
            // any word-for-word synonym alignment counts as a strong match
            if span_words.len() == schema_words.len()
                && !span_words.is_empty()
                && span_words
                    .iter()
                    .zip(schema_words.iter())
                    .all(|(a, b)| synonymous(a, b))
            {
                best = best.max(0.92);
            }
            // single span word synonymous with any schema word
            if span_words.len() == 1 && schema_words.iter().any(|w| synonymous(&span_words[0], w)) {
                best = best.max(0.75);
            }
        }
        if self.config.embeddings && best < 0.9 {
            if let (Some(a), Some(b)) = (&span.embedding, &schema.embedding) {
                // embeddings are noisy: scale down so exact matches dominate
                best = best.max(0.85 * a.cosine(b));
            }
        }
        // spans longer than the schema phrase carry extra words — penalize
        // so "unit price products" can't outscore "unit price".
        let span_n = span_words.len();
        let schema_n = schema_words.len().max(1);
        if span_n > schema_n {
            best *= schema_n as f64 / span_n as f64;
        }
        best
    }

    /// A span's score against table `ti`'s display and underscore-free
    /// names (lexical signals only; callers add learned alignment).
    pub(crate) fn table_score(&self, span: &Surface, surfaces: &SchemaSurfaces, ti: usize) -> f64 {
        let [display, name] = &surfaces.tables[ti];
        self.score(span, display).max(self.score(span, name))
    }

    /// Per-table mention scores of the content words, zeroed below
    /// threshold (index-aligned with `db.schema.tables`).
    fn table_scores(
        &self,
        words: &[String],
        word_surfaces: &[Surface],
        db: &Database,
        surfaces: &SchemaSurfaces,
    ) -> Vec<f64> {
        let mut table_scores = vec![0.0; db.schema.tables.len()];
        for (ti, t) in db.schema.tables.iter().enumerate() {
            for w in word_surfaces {
                table_scores[ti] = f64::max(table_scores[ti], self.table_score(w, surfaces, ti));
            }
            if let Some(al) = &self.config.alignment {
                for w in words {
                    let s = al.table_score(w, &t.name);
                    if s > 0.0 {
                        table_scores[ti] = table_scores[ti].max(0.5 + 0.5 * s);
                    }
                }
            }
            if table_scores[ti] < self.config.threshold {
                table_scores[ti] = 0.0;
            }
        }
        table_scores
    }

    /// The table the question mentions most strongly: exactly
    /// `self.link(question, db).best_table()`, without the column and
    /// value linking that call also does.
    pub fn best_table(&self, question: &str, db: &Database) -> Option<usize> {
        let (_, words) = content_tokens(question);
        let word_surfaces: Vec<Surface> = words.iter().map(|w| self.surface(w)).collect();
        let surfaces = self.schema_surfaces(&db.schema);
        best_index(&self.table_scores(&words, &word_surfaces, db, &surfaces))
    }

    /// Link a question against a database.
    pub fn link(&self, question: &str, db: &Database) -> LinkingResult {
        let (tokens, words) = content_tokens(question);
        let word_surfaces: Vec<Surface> = words.iter().map(|w| self.surface(w)).collect();
        let surfaces = self.schema_surfaces(&db.schema);
        let table_scores = self.table_scores(&words, &word_surfaces, db, &surfaces);

        // --- column links (spans up to 3 words, longest-first greedy) ------
        let all_columns = db.schema.all_columns();
        let mut columns: Vec<ColumnLink> = Vec::new();
        let mut claimed = vec![false; words.len()];
        for n in (1..=3usize).rev() {
            if n > words.len() {
                continue;
            }
            for start in 0..=(words.len() - n) {
                if claimed[start..start + n].iter().any(|&c| c) {
                    continue;
                }
                if tokens[start..start + n]
                    .iter()
                    .any(|t| t.kind != TokenKind::Word)
                {
                    continue;
                }
                let span = words[start..start + n].join(" ");
                let joined;
                let span_surface = if n == 1 {
                    &word_surfaces[start]
                } else {
                    joined = self.surface(&span);
                    &joined
                };
                let mut best: Option<(f64, ColumnRef)> = None;
                for &r in &all_columns {
                    let mut s = self.score(span_surface, surfaces.column(r));
                    if let Some(al) = &self.config.alignment {
                        let learned = al.column_score(&span, &db.schema.column(r).name);
                        if learned > 0.0 {
                            s = s.max(0.5 + 0.5 * learned);
                        }
                    }
                    if s >= self.config.threshold && best.is_none_or(|(bs, _)| s > bs) {
                        best = Some((s, r));
                    }
                }
                if let Some((score, col)) = best {
                    for c in claimed.iter_mut().skip(start).take(n) {
                        *c = true;
                    }
                    columns.push(ColumnLink {
                        start,
                        len: n,
                        col,
                        score,
                    });
                }
            }
        }
        columns.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.start.cmp(&b.start)));

        // --- value links ----------------------------------------------------
        // each column's distinct values are read at most once per call, and
        // only once some quoted literal asks for them
        let mut values = Vec::new();
        if self.config.values {
            let mut distinct: Vec<Option<Vec<Value>>> = vec![None; all_columns.len()];
            for t in tokens.iter().filter(|t| t.kind == TokenKind::Quoted) {
                for (&r, col_values) in all_columns.iter().zip(distinct.iter_mut()) {
                    let col_values =
                        col_values.get_or_insert_with(|| db.distinct_values(r.table, r.column));
                    for v in col_values.iter() {
                        let hit = match v {
                            Value::Text(s) => s.eq_ignore_ascii_case(&t.text),
                            Value::Date(d) => d.to_string() == t.text,
                            _ => false,
                        };
                        if hit {
                            values.push(ValueLink {
                                col: r,
                                value: v.clone(),
                            });
                        }
                    }
                }
            }
        }

        LinkingResult {
            table_scores,
            columns,
            values,
            tokens: words,
        }
    }
}

/// Deterministically pick among near-tied alternatives — exposed so parsers
/// can break ties reproducibly without a shared global RNG.
pub fn tie_break(rng: &mut Prng, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        rng.below(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_core::{Column, DataType, Table};
    use nli_nlu::lexical_similarity;
    use proptest::prelude::*;

    /// The span-vs-schema-phrase formula written directly on strings with
    /// the `nli_nlu` primitives: the oracle the prepared [`Surface`] path
    /// must reproduce bit for bit.
    fn direct_phrase_score(cfg: &LinkConfig, span: &str, schema_phrase: &str) -> f64 {
        let lexicon = SynonymLexicon::default_english();
        let mut best: f64 = 0.0;
        if cfg.lexical {
            let stemmed = |p: &str| p.split_whitespace().map(stem).collect::<Vec<_>>().join(" ");
            best = best
                .max(lexical_similarity(&stemmed(span), &stemmed(schema_phrase)))
                .max(lexical_similarity(span, schema_phrase));
        }
        if cfg.synonyms && best < 1.0 {
            let span_words: Vec<&str> = span.split_whitespace().collect();
            let schema_words: Vec<&str> = schema_phrase.split_whitespace().collect();
            if span_words.len() == schema_words.len() && !span_words.is_empty() {
                let all = span_words
                    .iter()
                    .zip(&schema_words)
                    .all(|(a, b)| stem(a) == stem(b) || lexicon.are_synonyms(&stem(a), &stem(b)));
                if all {
                    best = best.max(0.92);
                }
            }
            if span_words.len() == 1 {
                for w in &schema_words {
                    if lexicon.are_synonyms(&stem(span_words[0]), &stem(w)) {
                        best = best.max(0.75);
                    }
                }
            }
        }
        if cfg.embeddings && best < 0.9 {
            let cos = Embedding::of(span).cosine(&Embedding::of(schema_phrase));
            best = best.max(0.85 * cos);
        }
        let span_n = span.split_whitespace().count();
        let schema_n = schema_phrase.split_whitespace().count().max(1);
        if span_n > schema_n {
            best *= schema_n as f64 / span_n as f64;
        }
        best
    }

    /// Phrases built from schema-ish vocabulary (stems, plurals, lexicon
    /// synonyms, words outside the lexicon, near-misses) so every signal
    /// fires somewhere.
    fn phrase() -> impl Strategy<Value = String> {
        const VOCAB: &[&str] = &[
            "price",
            "prices",
            "cost",
            "Cost",
            "unit",
            "units",
            "product",
            "products",
            "item",
            "name",
            "title",
            "singer",
            "singers",
            "vocalist",
            "age",
            "years",
            "categories",
            "category",
            "type",
            "priced",
            "sale",
            "sales",
            "revenue",
            "flavor",
            "qty",
            "sold",
            "x",
            "",
        ];
        proptest::collection::vec(0..VOCAB.len(), 0..4)
            .prop_map(|ix| ix.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" "))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn phrase_score_matches_the_direct_formula(span in phrase(), schema_phrase in phrase()) {
            // lexical only; everything; embeddings without synonyms
            for cfg in [
                LinkConfig::lexical_only(),
                LinkConfig::world_knowledge(),
                LinkConfig {
                    synonyms: false,
                    ..LinkConfig::world_knowledge()
                },
            ] {
                let linker = Linker::new(cfg.clone());
                prop_assert_eq!(
                    linker.phrase_score(&span, &schema_phrase).to_bits(),
                    direct_phrase_score(&cfg, &span, &schema_phrase).to_bits()
                );
            }
        }
    }

    #[test]
    fn best_table_matches_full_link() {
        let d = db();
        for cfg in [LinkConfig::lexical_only(), LinkConfig::world_knowledge()] {
            let l = Linker::new(cfg);
            for q in [
                "show the price of products",
                "how old is every singer",
                "completely unrelated gibberish",
                "items named 'Widget'",
            ] {
                assert_eq!(l.best_table(q, &d), l.link(q, &d).best_table(), "{q}");
            }
        }
    }

    #[test]
    fn surface_key_sees_every_name_and_display() {
        let base = db();
        let key = surface_key(&base.schema);
        let mut display = base.schema.clone();
        display.tables[0].columns[2].display = "genre".into();
        let mut name = base.schema.clone();
        name.tables[1].columns[1].name = "years".into();
        let mut table_display = base.schema.clone();
        table_display.tables[1].display = "vocalist".into();
        for other in [&display, &name, &table_display] {
            assert_ne!(surface_key(other), key);
        }
        // length framing: moving a character across a name boundary
        // changes the key, as does moving a column across a table boundary
        let mut a = base.schema.clone();
        let mut b = base.schema.clone();
        a.tables[1].columns[0].name = "ab".into();
        a.tables[1].columns[0].display = "c".into();
        b.tables[1].columns[0].name = "a".into();
        b.tables[1].columns[0].display = "bc".into();
        assert_ne!(surface_key(&a), surface_key(&b));
        let mut moved = base.schema.clone();
        let col = moved.tables[0].columns.pop().unwrap();
        moved.tables[1].columns.insert(0, col);
        assert_ne!(surface_key(&moved), key);
    }

    fn db() -> Database {
        let mut schema = Schema::new(
            "shop",
            vec![
                Table::new(
                    "products",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("name", DataType::Text),
                        Column::new("category", DataType::Text),
                        Column::new("price", DataType::Float),
                    ],
                )
                .with_display("product"),
                Table::new(
                    "singer",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("age", DataType::Int),
                    ],
                ),
            ],
        );
        schema.domain = "retail".into();
        let mut d = Database::empty(schema);
        d.insert_all(
            "products",
            vec![
                vec![1.into(), "Widget".into(), "Tools".into(), 9.5.into()],
                vec![2.into(), "Gadget".into(), "Toys".into(), 19.0.into()],
            ],
        )
        .unwrap();
        d
    }

    #[test]
    fn exact_and_plural_mentions_link() {
        let l = Linker::new(LinkConfig::lexical_only());
        let r = l.link("show the price of products", &db());
        assert_eq!(r.best_table(), Some(0));
        assert!(r.columns.iter().any(|c| {
            c.col
                == ColumnRef {
                    table: 0,
                    column: 3,
                }
        }));
    }

    #[test]
    fn synonyms_require_the_synonym_signal() {
        let d = db();
        let lexical = Linker::new(LinkConfig::lexical_only());
        let world = Linker::new(LinkConfig::world_knowledge());
        // "cost" is a lexicon synonym of "price"
        let q = "show the cost of products";
        let price = ColumnRef {
            table: 0,
            column: 3,
        };
        let found = |r: &LinkingResult| r.columns.iter().any(|c| c.col == price);
        assert!(
            !found(&lexical.link(q, &d)),
            "lexical linker must miss the synonym"
        );
        assert!(
            found(&world.link(q, &d)),
            "world-knowledge linker must hit it"
        );
    }

    #[test]
    fn value_linking_grounds_quoted_literals() {
        let l = Linker::new(LinkConfig::lexical_only());
        let r = l.link("products whose category is 'Tools'", &db());
        assert_eq!(r.values.len(), 1);
        assert_eq!(
            r.values[0].col,
            ColumnRef {
                table: 0,
                column: 2
            }
        );
        assert_eq!(r.values[0].value, Value::from("Tools"));
    }

    #[test]
    fn learned_alignment_links_trained_vocabulary() {
        use nli_lm::TrainingExample;
        let mut al = AlignmentModel::new();
        al.train(&[TrainingExample {
            question: "how expensive are the products".into(),
            sql: nli_sql::parse_query("SELECT price FROM products").unwrap(),
        }]);
        let cfg = LinkConfig {
            lexical: false,
            synonyms: false,
            embeddings: false,
            values: false,
            alignment: Some(al),
            threshold: 0.5,
        };
        let l = Linker::new(cfg);
        let r = l.link("how expensive are these", &db());
        assert!(r.columns.iter().any(|c| c.col
            == ColumnRef {
                table: 0,
                column: 3
            }));
    }

    #[test]
    fn table_threshold_zeroes_weak_scores() {
        let l = Linker::new(LinkConfig::lexical_only());
        let r = l.link("completely unrelated gibberish", &db());
        assert_eq!(r.best_table(), None);
        assert!(r.columns.is_empty());
    }

    #[test]
    fn multiword_spans_beat_single_words() {
        let mut d = db();
        d.schema.tables[0].columns[3].display = "unit price".into();
        let l = Linker::new(LinkConfig::lexical_only());
        let r = l.link("show the unit price of products", &d);
        let link = r
            .columns
            .iter()
            .find(|c| {
                c.col
                    == ColumnRef {
                        table: 0,
                        column: 3,
                    }
            })
            .expect("unit price should link");
        assert_eq!(link.len, 2);
    }

    #[test]
    fn column_in_span_respects_bounds() {
        let l = Linker::new(LinkConfig::lexical_only());
        let r = l.link("price of products with age above 3", &db());
        // "price" is content-token 0
        assert!(r.column_in_span(0, 1).is_some());
        let far = r.tokens.len();
        assert!(r.column_in_span(far, far + 1).is_none());
    }
}
