//! Synonym lexicon.
//!
//! Two consumers: (1) rule-based schema linking widens token↔schema matches
//! through synonym groups; (2) the Spider-SYN-style robustness generator
//! *adversarially* rewrites questions by swapping schema mentions for their
//! synonyms — precisely the perturbation the survey reports learned parsers
//! struggle with.

use std::collections::HashMap;

/// Groups of mutually substitutable words. Lookup is by lower-case word.
#[derive(Debug, Clone, Default)]
pub struct SynonymLexicon {
    groups: Vec<Vec<String>>,
    index: HashMap<String, usize>,
}

impl SynonymLexicon {
    /// An empty lexicon.
    pub fn new() -> Self {
        SynonymLexicon::default()
    }

    /// The built-in English lexicon covering the vocabulary the dataset
    /// generators draw on (domain nouns, aggregates, chart words).
    pub fn default_english() -> Self {
        let mut lex = SynonymLexicon::new();
        let groups: &[&[&str]] = &[
            &["average", "mean", "avg"],
            &["total", "sum", "overall", "aggregate"],
            &["count", "number", "amount"],
            &[
                "maximum", "max", "highest", "largest", "greatest", "biggest", "most",
            ],
            &["minimum", "min", "lowest", "smallest", "least", "fewest"],
            &["revenue", "earnings", "income", "proceeds", "sales"],
            &["price", "cost", "fee", "charge"],
            &["name", "title", "label"],
            &["employee", "worker", "staff"],
            &["customer", "client", "buyer", "shopper"],
            &["product", "item", "good", "merchandise"],
            &["student", "pupil", "learner"],
            &["teacher", "instructor", "professor", "lecturer"],
            &["doctor", "physician", "clinician"],
            &["patient", "case"],
            &["car", "vehicle", "automobile", "auto"],
            &["city", "town", "municipality"],
            &["country", "nation", "state"],
            &["salary", "wage", "pay", "compensation"],
            &["age", "years"],
            &["year", "yr"],
            &["quantity", "volume", "units"],
            &["department", "division", "unit"],
            &["category", "type", "kind", "class", "genre"],
            &["rating", "score", "grade", "mark"],
            &["date", "day", "time"],
            &["singer", "vocalist", "artist"],
            &["song", "track", "tune"],
            &["movie", "film", "picture"],
            &["book", "publication", "volume"],
            &["order", "purchase", "transaction"],
            &["store", "shop", "outlet", "branch"],
            &["flight", "trip", "journey"],
            &["airport", "airfield", "terminal"],
            &["team", "club", "squad"],
            &["player", "athlete", "competitor"],
            &["game", "match", "contest"],
            &["hospital", "clinic", "infirmary"],
            &["account", "ledger"],
            &["region", "area", "zone", "district"],
            &["population", "inhabitants", "residents"],
            &["capacity", "size"],
            &["budget", "funding", "allocation"],
            &["chart", "graph", "plot", "diagram"],
            &["bar", "column"],
        ];
        for g in groups {
            lex.add_group(g.iter().map(|s| s.to_string()).collect());
        }
        lex
    }

    /// Add a group; words joining an existing group merge into it.
    pub fn add_group(&mut self, words: Vec<String>) {
        let words: Vec<String> = words.into_iter().map(|w| w.to_lowercase()).collect();
        // If any word already belongs to a group, extend that group.
        if let Some(&gi) = words.iter().find_map(|w| self.index.get(w)) {
            for w in words {
                if self.index.insert(w.clone(), gi).is_none() {
                    self.groups[gi].push(w);
                }
            }
            return;
        }
        let gi = self.groups.len();
        for w in &words {
            self.index.insert(w.clone(), gi);
        }
        self.groups.push(words);
    }

    /// Whether two words are synonyms (case-insensitive). A word is its own
    /// synonym.
    pub fn are_synonyms(&self, a: &str, b: &str) -> bool {
        let (a, b) = (a.to_lowercase(), b.to_lowercase());
        if a == b {
            return true;
        }
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Index of `word`'s group (case-insensitive), if it has one. Two
    /// words are synonyms exactly when they are equal ignoring case or
    /// share a group index.
    pub fn group_of(&self, word: &str) -> Option<usize> {
        self.index.get(&word.to_lowercase()).copied()
    }

    /// All synonyms of `word` excluding itself, in group order.
    pub fn synonyms_of(&self, word: &str) -> Vec<&str> {
        let w = word.to_lowercase();
        match self.index.get(&w) {
            Some(&gi) => self.groups[gi]
                .iter()
                .filter(|s| **s != w)
                .map(|s| s.as_str())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Canonical representative (first member) of `word`'s group; the word
    /// itself when unknown. Linking keys on canonicals so "mean age" links
    /// like "average age".
    pub fn canonical<'a>(&'a self, word: &'a str) -> &'a str {
        match self.index.get(&word.to_lowercase()) {
            Some(&gi) => self.groups[gi][0].as_str(),
            None => word,
        }
    }

    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lexicon_links_aggregates() {
        let lex = SynonymLexicon::default_english();
        assert!(lex.are_synonyms("average", "mean"));
        assert!(lex.are_synonyms("Highest", "MAX"));
        assert!(!lex.are_synonyms("average", "total"));
    }

    #[test]
    fn word_is_its_own_synonym_even_if_unknown() {
        let lex = SynonymLexicon::new();
        assert!(lex.are_synonyms("zyzzy", "zyzzy"));
        assert!(!lex.are_synonyms("zyzzy", "qwert"));
    }

    #[test]
    fn synonyms_of_excludes_self() {
        let lex = SynonymLexicon::default_english();
        let syns = lex.synonyms_of("average");
        assert!(syns.contains(&"mean"));
        assert!(!syns.contains(&"average"));
        assert!(lex.synonyms_of("xylophone").is_empty());
    }

    #[test]
    fn canonical_maps_group_members_to_head() {
        let lex = SynonymLexicon::default_english();
        assert_eq!(lex.canonical("mean"), "average");
        assert_eq!(lex.canonical("average"), "average");
        assert_eq!(lex.canonical("unseen"), "unseen");
    }

    #[test]
    fn overlapping_groups_merge() {
        let mut lex = SynonymLexicon::new();
        lex.add_group(vec!["a".into(), "b".into()]);
        lex.add_group(vec!["b".into(), "c".into()]);
        assert!(lex.are_synonyms("a", "c"));
        assert_eq!(lex.group_count(), 1);
    }
}
