//! Skeleton/slot-filling parsing (SQLNet/TypeSQL/HydraNet/SQLova-class).
//!
//! The skeleton decoder predicts an abstract SQL *sketch* with a trained
//! classifier and then fills its slots, instead of generating the query
//! compositionally. That design is why this family dominates WikiSQL (the
//! sketch space is tiny) and collapses on Spider (no joins, no grouping, no
//! nesting in the sketch grammar) — the trade-off the survey's Table 2
//! shows between the WikiSQL EX column and the Spider EM column.
//!
//! `contextual_backoff` models the PLM boost (SQLova/X-SQL vs. SQLNet):
//! when the learned alignment has never seen a word, the parser backs off
//! to subword-similarity linking, the way BERT's pretrained representations
//! generalize past the supervised vocabulary.

use crate::analysis::{analyze, CmpKind};
use crate::linking::{LinkConfig, Linker};
use nli_core::{
    ColumnRef, DataType, Database, NlQuestion, NliError, Result, SemanticParser, Value,
};
use nli_lm::{sketch_of, AlignmentModel, SketchClassifier, TrainingExample};
use nli_sql::{AggFunc, BinOp, ColName, Expr, Query, Select, SelectItem};

/// Skeleton-based Text-to-SQL parser. Train before use.
pub struct SkeletonParser {
    name: String,
    /// Aggregate-slot classifier (COUNT/SUM/AVG/MIN/MAX/NONE).
    agg_head: SketchClassifier,
    alignment: AlignmentModel,
    /// Subword-similarity fallback for out-of-vocabulary words (the
    /// "pretrained encoder" effect).
    contextual_backoff: bool,
    backoff_linker: Linker,
}

impl SkeletonParser {
    /// An untrained parser. `contextual_backoff = false` gives the
    /// SQLNet-class variant; `true` the SQLova-class variant.
    pub fn new(contextual_backoff: bool) -> SkeletonParser {
        SkeletonParser {
            name: if contextual_backoff {
                "skeleton+plm".to_string()
            } else {
                "skeleton".to_string()
            },
            agg_head: SketchClassifier::new(),
            alignment: AlignmentModel::new(),
            contextual_backoff,
            backoff_linker: Linker::new(LinkConfig {
                lexical: true,
                synonyms: false,
                embeddings: true,
                values: true,
                alignment: None,
                threshold: 0.58,
            }),
        }
    }

    /// Supervised training on (question, SQL) pairs. The aggregate slot is
    /// trained as its own head (SQLNet's decomposition), which keeps the
    /// label space small and sample-efficient.
    pub fn train(&mut self, examples: &[TrainingExample]) {
        self.agg_head.train_with(examples, |q| {
            q.select
                .items
                .iter()
                .find_map(|i| match &i.expr {
                    nli_sql::Expr::Agg { func, .. } => Some(func.name().to_string()),
                    _ => None,
                })
                .unwrap_or_else(|| "NONE".to_string())
        });
        self.alignment.train(examples);
    }

    pub fn is_trained(&self) -> bool {
        self.agg_head.class_count() > 0
    }

    /// Ground a phrase to a column using learned statistics first, then
    /// (optionally) lexical backoff.
    fn ground(&self, phrase: &str, db: &Database, table: usize) -> Option<ColumnRef> {
        let cols = &db.schema.tables[table].columns;
        // learned alignment first, with a small column-name attention term
        // to break co-occurrence ties (SQLNet's column attention encodes
        // names too)
        let mut best: Option<(f64, usize)> = None;
        for (ci, c) in cols.iter().enumerate() {
            let mut learned: f64 = 0.0;
            for w in phrase.split_whitespace() {
                learned = learned.max(self.alignment.column_score(w, &c.name));
            }
            if learned <= 0.05 {
                continue;
            }
            let lexical = self.backoff_linker.phrase_score(phrase, &c.display);
            let s = learned + 0.1 * lexical;
            if best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, ci));
            }
        }
        if let Some((_, ci)) = best {
            return Some(ColumnRef { table, column: ci });
        }
        // out-of-vocabulary phrase: only the contextual variant has a
        // pretrained prior to fall back on (the SQLova-vs-SQLNet gap)
        if self.contextual_backoff {
            let mut best: Option<(f64, usize)> = None;
            for (ci, c) in cols.iter().enumerate() {
                let s = self.backoff_linker.phrase_score(phrase, &c.display);
                if s >= self.backoff_linker.config.threshold && best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, ci));
                }
            }
            if let Some((_, ci)) = best {
                return Some(ColumnRef { table, column: ci });
            }
        }
        None
    }
}

impl SemanticParser for SkeletonParser {
    type Expr = Query;

    fn parse(&self, question: &NlQuestion, db: &Database) -> Result<Query> {
        if !self.is_trained() {
            return Err(NliError::Model("skeleton parser is untrained".into()));
        }
        // main table: WikiSQL databases are single-table; otherwise pick the
        // best learned/lexical table mention.
        let table = if db.schema.tables.len() == 1 {
            0
        } else {
            let a = analyze(&question.text);
            a.table_phrase
                .as_deref()
                .and_then(|p| {
                    let mut best: Option<(f64, usize)> = None;
                    for ti in 0..db.schema.tables.len() {
                        let t = &db.schema.tables[ti];
                        let mut s = self.backoff_linker.phrase_score(p, &t.display);
                        for w in p.split_whitespace() {
                            s = s.max(self.alignment.table_score(w, &t.name));
                        }
                        if best.is_none_or(|(bs, _)| s > bs) {
                            best = Some((s, ti));
                        }
                    }
                    best.map(|(_, ti)| ti)
                })
                .unwrap_or(0)
        };
        let table_name = db.schema.tables[table].name.clone();

        // the aggregate head predicts the intended SELECT shape
        let agg_name = self
            .agg_head
            .predict(&question.text)
            .ok_or_else(|| NliError::Model("sketch prediction failed".into()))?;

        let a = analyze(&question.text);

        let mut select = Select::simple(&table_name, Vec::new());

        // SELECT clause from the sketch's aggregate slot
        let agg = match agg_name.as_str() {
            "COUNT" => Some((AggFunc::Count, None)),
            "SUM" | "AVG" | "MAX" | "MIN" => {
                let func = match agg_name.as_str() {
                    "SUM" => AggFunc::Sum,
                    "AVG" => AggFunc::Avg,
                    "MAX" => AggFunc::Max,
                    _ => AggFunc::Min,
                };
                // argument slot: the analyzer's phrase, else the first
                // numeric column
                let arg = a
                    .agg
                    .as_ref()
                    .and_then(|s| s.arg_phrase.as_deref())
                    .and_then(|p| self.ground(p, db, table))
                    .or_else(|| {
                        db.schema.tables[table]
                            .columns
                            .iter()
                            .position(|c| c.dtype.is_numeric() && !c.primary_key)
                            .map(|ci| ColumnRef { table, column: ci })
                    });
                Some((func, arg))
            }
            _ => None,
        };
        match agg {
            Some((AggFunc::Count, _)) => {
                select.items = vec![SelectItem::plain(Expr::count_star())];
            }
            Some((f, Some(argc))) => {
                select.items = vec![SelectItem::plain(Expr::agg(
                    f,
                    Expr::Column(ColName::new(&db.schema.column(argc).name)),
                ))];
            }
            Some((f, None)) => {
                let _ = f;
                select.items = vec![SelectItem::plain(Expr::count_star())];
            }
            None => {
                let mut cols: Vec<ColumnRef> = a
                    .projections
                    .iter()
                    .filter_map(|p| self.ground(p, db, table))
                    .collect();
                if cols.is_empty() {
                    // default to the first text column
                    let ci = db.schema.tables[table]
                        .columns
                        .iter()
                        .position(|c| c.dtype == DataType::Text)
                        .unwrap_or(0);
                    cols.push(ColumnRef { table, column: ci });
                }
                select.items = cols
                    .into_iter()
                    .map(|r| {
                        SelectItem::plain(Expr::Column(ColName::new(&db.schema.column(r).name)))
                    })
                    .collect();
            }
        }

        // WHERE slots: fill every condition the analyzer surfaced (the
        // condition-count head is implicit in the literal detection).
        let mut exprs = Vec::new();
        for c in a.conds.iter() {
            if matches!(c.kind, CmpKind::KnowledgeHigh | CmpKind::KnowledgeLow) {
                continue;
            }
            let Some(col) = self.ground(&c.col_phrase, db, table) else {
                continue;
            };
            let lhs = Expr::Column(ColName::new(&db.schema.column(col).name));
            let expr = match (&c.kind, &c.value) {
                (CmpKind::Op(op), Some(v)) => {
                    let v = coerce(db, col, v.clone());
                    Expr::binary(lhs, *op, Expr::Literal(v))
                }
                (CmpKind::Between, Some(v)) => Expr::Between {
                    expr: Box::new(lhs),
                    low: Box::new(Expr::Literal(coerce(db, col, v.clone()))),
                    high: Box::new(Expr::Literal(coerce(
                        db,
                        col,
                        c.value2.clone().unwrap_or(Value::Null),
                    ))),
                    negated: false,
                },
                (CmpKind::Contains, Some(v)) => Expr::Like {
                    expr: Box::new(lhs),
                    pattern: format!("%{}%", v.canonical()),
                    negated: false,
                },
                _ => continue,
            };
            exprs.push(expr);
        }
        select.where_clause = exprs
            .into_iter()
            .reduce(|x, y| Expr::binary(x, BinOp::And, y));

        // the skeleton grammar has no GROUP BY / ORDER BY / JOIN / nesting.
        Ok(Query::single(select))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

fn coerce(db: &Database, col: ColumnRef, v: Value) -> Value {
    match (db.schema.column(col).dtype, &v) {
        (DataType::Float, Value::Int(i)) => Value::Float(*i as f64),
        (DataType::Int, Value::Float(f)) if f.fract() == 0.0 => Value::Int(*f as i64),
        _ => v,
    }
}

/// Convenience: build training examples from (question, gold SQL) pairs.
pub fn training_examples<'a>(
    pairs: impl IntoIterator<Item = (&'a str, &'a Query)>,
) -> Vec<TrainingExample> {
    pairs
        .into_iter()
        .map(|(q, sql)| TrainingExample {
            question: q.to_string(),
            sql: sql.clone(),
        })
        .collect()
}

/// The sketch label of a gold query (re-exported for evaluation reports).
pub fn gold_sketch(q: &Query) -> String {
    sketch_of(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_core::{Column, Schema, Table};
    use nli_sql::parse_query;

    fn db() -> Database {
        let schema = Schema::new(
            "d",
            vec![Table::new(
                "singer",
                vec![
                    Column::new("id", DataType::Int).primary(),
                    Column::new("name", DataType::Text),
                    Column::new("age", DataType::Int),
                    Column::new("country", DataType::Text),
                ],
            )],
        );
        let mut d = Database::empty(schema);
        d.insert_all(
            "singer",
            vec![
                vec![1.into(), "Rosa Chen".into(), 30.into(), "France".into()],
                vec![2.into(), "Omar Quinn".into(), 45.into(), "Japan".into()],
            ],
        )
        .unwrap();
        d
    }

    fn trained(backoff: bool) -> SkeletonParser {
        let mut p = SkeletonParser::new(backoff);
        let corpus = [
            ("How many singers are there?", "SELECT COUNT(*) FROM singer"),
            (
                "Count the singers with age greater than 20.",
                "SELECT COUNT(*) FROM singer WHERE age > 20",
            ),
            (
                "What is the average age of singers?",
                "SELECT AVG(age) FROM singer",
            ),
            ("List the name of singers.", "SELECT name FROM singer"),
            (
                "List the name of singers whose country is 'France'.",
                "SELECT name FROM singer WHERE country = 'France'",
            ),
        ];
        let examples: Vec<TrainingExample> = corpus
            .iter()
            .map(|(q, s)| TrainingExample {
                question: q.to_string(),
                sql: parse_query(s).unwrap(),
            })
            .collect();
        p.train(&examples);
        p
    }

    #[test]
    fn untrained_parser_refuses() {
        let p = SkeletonParser::new(true);
        assert!(p
            .parse(&NlQuestion::new("How many singers are there?"), &db())
            .is_err());
    }

    #[test]
    fn predicts_trained_shapes() {
        let p = trained(true);
        let q = NlQuestion::new("How many singers are there?");
        assert_eq!(
            p.parse(&q, &db()).unwrap().to_string(),
            "SELECT COUNT(*) FROM singer"
        );
        let q = NlQuestion::new("What is the average age of singers?");
        assert_eq!(
            p.parse(&q, &db()).unwrap().to_string(),
            "SELECT AVG(age) FROM singer"
        );
    }

    #[test]
    fn fills_condition_slots() {
        let p = trained(true);
        let q = NlQuestion::new("Count the singers with age greater than 40.");
        assert_eq!(
            p.parse(&q, &db()).unwrap().to_string(),
            "SELECT COUNT(*) FROM singer WHERE age > 40"
        );
    }

    #[test]
    fn backoff_matters_for_unseen_columns() {
        // the training corpus never mentions "country" textually aligned to
        // an unseen phrasing; with backoff the lexical match still lands.
        let with = trained(true);
        let without = trained(false);
        let q = NlQuestion::new("List the name of singers whose country is 'Japan'.");
        let a = with.parse(&q, &db()).unwrap().to_string();
        assert!(a.contains("country = 'Japan'"), "{a}");
        let _ = without; // both may succeed here; the corpus-level gap is
                         // measured in the Table 2 harness
    }

    #[test]
    fn never_emits_joins_or_groups() {
        let p = trained(true);
        let q = NlQuestion::new(
            "For each country, how many singers are there, sorted by the result in descending order?",
        );
        let sql = p.parse(&q, &db()).unwrap();
        assert!(sql.select.group_by.is_empty());
        assert_eq!(sql.select.from.len(), 1);
        assert!(sql.select.order_by.is_empty());
    }
}
