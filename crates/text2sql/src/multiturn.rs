//! Conversational Text-to-SQL (EditSQL-class query editing).
//!
//! Multi-turn benchmarks (SParC/CoSQL) require tracking conversational
//! state: a follow-up like "Only those with age above 30." has no table,
//! no projection, no standalone meaning. The dialogue parser keeps the
//! previous turn's query and *edits* it — adding conjuncts, attaching
//! ordering, or switching the goal to a count — which is exactly the
//! editing mechanism Zhang et al.'s EditSQL introduced.

use crate::analysis::analyze;
use crate::grammar::{GrammarConfig, GrammarParser};
use nli_core::{Database, NlQuestion, NliError, Result, SemanticParser};
use nli_sql::{BinOp, Expr, OrderItem, Query, SelectItem};

/// Stateful dialogue parser wrapping a grammar parser for opening turns.
pub struct DialogueParser {
    base: GrammarParser,
    prev: Option<Query>,
}

impl DialogueParser {
    pub fn new(cfg: GrammarConfig) -> DialogueParser {
        DialogueParser {
            base: GrammarParser::new(cfg),
            prev: None,
        }
    }

    /// Forget conversation state (start a new dialogue).
    pub fn reset(&mut self) {
        self.prev = None;
    }

    /// Whether the text is a follow-up (context-dependent) utterance.
    fn is_follow_up(text: &str) -> FollowUp {
        let t = text.to_lowercase();
        if t.starts_with("only those") || t.starts_with("of those") {
            FollowUp::AddCondition
        } else if t.starts_with("sort them by") {
            FollowUp::Sort
        } else if t.contains("how many are there") {
            FollowUp::Count
        } else {
            FollowUp::None
        }
    }

    /// Tables (as schema indices) in scope of the previous query.
    fn prev_scope(&self, db: &Database) -> Vec<usize> {
        match &self.prev {
            Some(q) => q
                .tables()
                .iter()
                .filter_map(|n| db.schema.table_index(n))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Parse one turn, updating conversation state.
    pub fn parse_turn(&mut self, question: &NlQuestion, db: &Database) -> Result<Query> {
        let kind = Self::is_follow_up(&question.text);
        if kind == FollowUp::None || self.prev.is_none() {
            let q = self.base.parse(question, db)?;
            self.prev = Some(q.clone());
            return Ok(q);
        }
        let mut q = self.prev.clone().expect("checked above");
        let scope = self.prev_scope(db);
        if scope.is_empty() {
            return Err(NliError::Parse("lost conversation scope".into()));
        }
        let main = scope[0];
        let qualify = q.select.from.len() > 1;
        match kind {
            FollowUp::AddCondition => {
                let a = analyze(&question.text);
                let mut added = false;
                for sketch in &a.conds {
                    if let Some(expr) = self
                        .base
                        .ground_condition(sketch, db, &scope, main, qualify)
                    {
                        q.select.where_clause = Some(match q.select.where_clause.take() {
                            Some(w) => Expr::binary(w, BinOp::And, expr),
                            None => expr,
                        });
                        added = true;
                    }
                }
                if !added {
                    return Err(NliError::Parse(
                        "could not ground the follow-up condition".into(),
                    ));
                }
            }
            FollowUp::Sort => {
                let a = analyze(&question.text);
                let Some(o) = &a.order else {
                    return Err(NliError::Parse("no ordering found in follow-up".into()));
                };
                let Some(expr) = self
                    .base
                    .ground_order_column(&o.phrase, db, &scope, main, qualify)
                else {
                    return Err(NliError::Parse("could not ground the sort column".into()));
                };
                q.select.order_by = vec![OrderItem { expr, desc: o.desc }];
                q.select.limit = o.limit;
            }
            FollowUp::Count => {
                q.select.items = vec![SelectItem::plain(Expr::count_star())];
                q.select.order_by.clear();
                q.select.limit = None;
                q.select.distinct = false;
                q.select.group_by.clear();
                q.select.having = None;
            }
            FollowUp::None => unreachable!(),
        }
        self.prev = Some(q.clone());
        Ok(q)
    }
}

#[derive(Debug, PartialEq, Eq)]
enum FollowUp {
    None,
    AddCondition,
    Sort,
    Count,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_core::{Column, DataType, Schema, Table};

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

    #[test]
    fn full_sparc_style_dialogue() {
        let mut p = DialogueParser::new(GrammarConfig::neural());
        let d = db();
        let t1 = p
            .parse_turn(&NlQuestion::new("List the name of singers."), &d)
            .unwrap();
        assert_eq!(t1.to_string(), "SELECT name FROM singer");
        let t2 = p
            .parse_turn(&NlQuestion::new("Only those with age greater than 35."), &d)
            .unwrap();
        assert_eq!(t2.to_string(), "SELECT name FROM singer WHERE age > 35");
        let t3 = p
            .parse_turn(
                &NlQuestion::new("Of those, keep the ones whose country is 'Japan'."),
                &d,
            )
            .unwrap();
        assert_eq!(
            t3.to_string(),
            "SELECT name FROM singer WHERE age > 35 AND country = 'Japan'"
        );
        let t4 = p
            .parse_turn(
                &NlQuestion::new("Sort them by age in descending order and show the top 1."),
                &d,
            )
            .unwrap();
        assert!(t4.to_string().ends_with("ORDER BY age DESC LIMIT 1"));
        let t5 = p
            .parse_turn(&NlQuestion::new("How many are there?"), &d)
            .unwrap();
        assert_eq!(
            t5.to_string(),
            "SELECT COUNT(*) FROM singer WHERE age > 35 AND country = 'Japan'"
        );
    }

    #[test]
    fn follow_up_without_context_falls_back_to_fresh_parse() {
        let mut p = DialogueParser::new(GrammarConfig::neural());
        let d = db();
        // "Only those..." with no previous turn cannot stand alone: the
        // parser attempts a fresh parse instead of an edit, which fails
        // because nothing in the question names or links to a table
        let r = p.parse_turn(&NlQuestion::new("Only those with age above 30."), &d);
        match r {
            Err(NliError::Parse(msg)) => assert_eq!(msg, "could not identify a table"),
            other => panic!("expected a table-identification error, got {other:?}"),
        }
        // the failed turn opened no dialogue: a later follow-up is still
        // context-free and fails the same way
        let t = p.parse_turn(&NlQuestion::new("How many are there?"), &d);
        assert!(matches!(t, Err(NliError::Parse(_))), "{t:?}");
    }

    #[test]
    fn reset_clears_state() {
        let mut p = DialogueParser::new(GrammarConfig::neural());
        let d = db();
        p.parse_turn(&NlQuestion::new("List the name of singers."), &d)
            .unwrap();
        p.reset();
        // after reset the count follow-up has no scope; fresh parse happens
        let r = p.parse_turn(&NlQuestion::new("How many are there?"), &d);
        // "how many are there" alone has no table; expect an error
        assert!(r.is_err());
    }

    #[test]
    fn ungroundable_follow_up_is_an_error_but_keeps_state() {
        let mut p = DialogueParser::new(GrammarConfig::neural());
        let d = db();
        p.parse_turn(&NlQuestion::new("List the name of singers."), &d)
            .unwrap();
        let r = p.parse_turn(
            &NlQuestion::new("Only those with flibbertigibbet above 3."),
            &d,
        );
        assert!(r.is_err());
        // the previous state still allows continuing the dialogue
        let t = p
            .parse_turn(&NlQuestion::new("How many are there?"), &d)
            .unwrap();
        assert_eq!(t.to_string(), "SELECT COUNT(*) FROM singer");
    }
}
