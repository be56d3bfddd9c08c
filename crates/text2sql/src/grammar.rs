//! Grammar-constrained semantic parsing (the neural-stage workhorse).
//!
//! The parser grounds the analyzer's sketches against the schema through a
//! configurable [`Linker`] and *derives the SQL through the grammar*: every
//! output is a well-formed AST by construction — the property the survey
//! attributes to grammar-based decoders (Seq2Tree/IRNet) and constrained
//! decoding (PICARD). Foreign-key join inference plays the role of
//! graph-based schema encoding (RAT-SQL/LGESQL): when a grounded column
//! lives on another table, the parser walks the FK graph to justify a join.
//!
//! [`GrammarConfig`] grades the parser across the survey's stages:
//!
//! * [`GrammarConfig::traditional`] — lexical linking only, no join
//!   inference (NaLIR-class; used by [`crate::rule::RuleBasedParser`]);
//! * [`GrammarConfig::neural`] — embedding linking + join inference
//!   (+ a trained alignment model = the learned encoder);
//! * [`GrammarConfig::llm_reasoner`] — adds synonym world knowledge and
//!   BIRD-style evidence resolution (the internal reasoner the simulated
//!   LLM corrupts).

use crate::analysis::{analyze, CmpKind, CondSketch, QuestionAnalysis};
use crate::evidence::parse_evidence;
use crate::linking::{LinkConfig, Linker, SchemaSurfaces, Surface};
use nli_core::{
    ColumnRef, DataType, Database, NlQuestion, NliError, Result, SemanticParser, Value,
};
use nli_lm::AlignmentModel;
use nli_sql::{
    AggFunc, BinOp, ColName, Expr, JoinCond, OrderItem, Query, Select, SelectItem, TableRef,
};

/// Parser capabilities and linking configuration.
#[derive(Debug, Clone)]
pub struct GrammarConfig {
    pub name: String,
    pub link: LinkConfig,
    /// Infer joins over the FK graph when a column lives elsewhere.
    pub enable_joins: bool,
    /// Emit `IN (SELECT ...)` for "that have ..." questions.
    pub enable_nested: bool,
    /// Emit UNION/INTERSECT/EXCEPT.
    pub enable_compound: bool,
    /// Resolve knowledge concepts through attached evidence.
    pub use_evidence: bool,
}

impl GrammarConfig {
    /// Traditional stage (rule-based linking, single-table reasoning).
    pub fn traditional() -> GrammarConfig {
        GrammarConfig {
            name: "rule-based".into(),
            link: LinkConfig::lexical_only(),
            enable_joins: false,
            enable_nested: true,
            enable_compound: false,
            use_evidence: false,
        }
    }

    /// Neural stage (embedding linking, joins, full grammar).
    pub fn neural() -> GrammarConfig {
        GrammarConfig {
            name: "grammar-neural".into(),
            link: LinkConfig {
                lexical: true,
                synonyms: false,
                embeddings: true,
                values: true,
                alignment: None,
                threshold: 0.58,
            },
            enable_joins: true,
            enable_nested: true,
            enable_compound: true,
            use_evidence: false,
        }
    }

    /// The LLM's internal reasoner: everything on.
    pub fn llm_reasoner() -> GrammarConfig {
        GrammarConfig {
            name: "llm-reasoner".into(),
            link: LinkConfig::world_knowledge(),
            enable_joins: true,
            enable_nested: true,
            enable_compound: true,
            use_evidence: true,
        }
    }

    pub fn with_alignment(mut self, alignment: AlignmentModel) -> GrammarConfig {
        self.link.alignment = Some(alignment);
        self
    }

    pub fn named(mut self, name: &str) -> GrammarConfig {
        self.name = name.into();
        self
    }
}

/// The grammar-constrained parser.
pub struct GrammarParser {
    cfg: GrammarConfig,
    linker: Linker,
}

/// A grounded condition, ready to lower.
#[derive(Debug, Clone)]
struct GroundCond {
    col: ColumnRef,
    kind: CmpKind,
    value: Option<Value>,
    value2: Option<Value>,
}

impl GrammarParser {
    pub fn new(cfg: GrammarConfig) -> GrammarParser {
        let linker = Linker::new(cfg.link.clone());
        GrammarParser { cfg, linker }
    }

    pub fn config(&self) -> &GrammarConfig {
        &self.cfg
    }

    // ---- grounding -------------------------------------------------------

    /// Score a phrase against a table's surface forms.
    fn table_score(
        &self,
        phrase: &str,
        span: &Surface,
        surfaces: &SchemaSurfaces,
        db: &Database,
        ti: usize,
    ) -> f64 {
        let mut best = self.linker.table_score(span, surfaces, ti);
        if let Some(al) = &self.linker.config.alignment {
            for w in phrase.split_whitespace() {
                let s = al.table_score(w, &db.schema.tables[ti].name);
                if s > 0.0 {
                    best = best.max(0.5 + 0.5 * s);
                }
            }
        }
        best
    }

    /// Ground a table phrase; `None` below threshold.
    pub fn ground_table(&self, phrase: &str, db: &Database) -> Option<usize> {
        self.ground_table_in(phrase, db, &self.linker.schema_surfaces(&db.schema))
    }

    fn ground_table_in(
        &self,
        phrase: &str,
        db: &Database,
        surfaces: &SchemaSurfaces,
    ) -> Option<usize> {
        let span = self.linker.surface(phrase);
        let mut best: Option<(f64, usize)> = None;
        for ti in 0..db.schema.tables.len() {
            let s = self.table_score(phrase, &span, surfaces, db, ti);
            if s >= self.linker.config.threshold && best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, ti));
            }
        }
        best.map(|(_, ti)| ti)
    }

    /// Ranked column groundings for a phrase.
    ///
    /// Besides whole-phrase matching, a two-part interpretation
    /// `"<table> <column>"` is scored so join questions like "store city"
    /// resolve to `stores.city`. A small bonus prefers `main`-table columns
    /// on ties.
    fn ground_column_ranked(
        &self,
        phrase: &str,
        db: &Database,
        surfaces: &SchemaSurfaces,
        scope: &[usize],
        main: usize,
    ) -> Vec<(ColumnRef, f64)> {
        let threshold = self.linker.config.threshold;
        let span = self.linker.surface(phrase);
        // split interpretations: "<table words> <column words>"
        let words: Vec<&str> = phrase.split_whitespace().collect();
        let splits: Vec<(String, Surface, Surface)> = (1..words.len())
            .map(|split| {
                let t_part = words[..split].join(" ");
                let c_part = self.linker.surface(&words[split..].join(" "));
                let t_surface = self.linker.surface(&t_part);
                (t_part, t_surface, c_part)
            })
            .collect();
        let mut scored: Vec<(ColumnRef, f64)> = Vec::new();
        for &ti in scope {
            // each split's table half depends on the table alone
            let split_table_scores: Vec<f64> = splits
                .iter()
                .map(|(t_part, t_surface, _)| self.table_score(t_part, t_surface, surfaces, db, ti))
                .collect();
            for (ci, c) in db.schema.tables[ti].columns.iter().enumerate() {
                let r = ColumnRef {
                    table: ti,
                    column: ci,
                };
                let col = surfaces.column(r);
                let mut s = self.linker.score(&span, col);
                if let Some(al) = &self.linker.config.alignment {
                    let learned = al.column_score(phrase, &c.name);
                    if learned > 0.0 {
                        s = s.max(0.5 + 0.5 * learned);
                    }
                }
                for ((_, _, c_part), &ts) in splits.iter().zip(&split_table_scores) {
                    if ts < threshold {
                        continue;
                    }
                    let cs = self.linker.score(c_part, col);
                    if cs >= threshold {
                        s = s.max(0.5 * ts + 0.5 * cs + 0.02);
                    }
                }
                if ti == main {
                    s += 0.03;
                }
                if s >= threshold {
                    scored.push((r, s));
                }
            }
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    }

    /// Ground a column phrase over `scope` (public for the vis parsers).
    pub fn ground_column(
        &self,
        phrase: &str,
        db: &Database,
        scope: &[usize],
        main: usize,
        alt: bool,
    ) -> Option<ColumnRef> {
        let surfaces = self.linker.schema_surfaces(&db.schema);
        self.ground_column_in(phrase, db, &surfaces, scope, main, alt)
    }

    fn ground_column_in(
        &self,
        phrase: &str,
        db: &Database,
        surfaces: &SchemaSurfaces,
        scope: &[usize],
        main: usize,
        alt: bool,
    ) -> Option<ColumnRef> {
        let ranked = self.ground_column_ranked(phrase, db, surfaces, scope, main);
        if alt && ranked.len() > 1 {
            Some(ranked[1].0)
        } else {
            ranked.first().map(|(r, _)| *r)
        }
    }

    /// Default projection column of a table: first text column, else first
    /// non-PK column, else the PK.
    pub fn default_column(&self, db: &Database, ti: usize) -> ColumnRef {
        let t = &db.schema.tables[ti];
        for (ci, c) in t.columns.iter().enumerate() {
            if c.dtype == DataType::Text {
                return ColumnRef {
                    table: ti,
                    column: ci,
                };
            }
        }
        for (ci, c) in t.columns.iter().enumerate() {
            if !c.primary_key {
                return ColumnRef {
                    table: ti,
                    column: ci,
                };
            }
        }
        ColumnRef {
            table: ti,
            column: 0,
        }
    }

    /// A numeric column of `ti` for superlatives.
    fn ground_numeric(
        &self,
        phrase: &str,
        db: &Database,
        surfaces: &SchemaSurfaces,
        ti: usize,
    ) -> Option<ColumnRef> {
        self.ground_column_ranked(phrase, db, surfaces, &[ti], ti)
            .into_iter()
            .map(|(r, _)| r)
            .find(|r| db.schema.column(*r).dtype.is_numeric())
    }

    // ---- lowering ---------------------------------------------------------

    fn col_expr(&self, db: &Database, r: ColumnRef, qualify: bool) -> Expr {
        if qualify {
            Expr::Column(ColName::qualified(
                &db.schema.tables[r.table].name,
                &db.schema.column(r).name,
            ))
        } else {
            Expr::Column(ColName::new(&db.schema.column(r).name))
        }
    }

    fn build_cond(&self, db: &Database, c: &GroundCond, qualify: bool) -> Option<Expr> {
        let lhs = self.col_expr(db, c.col, qualify);
        Some(match &c.kind {
            CmpKind::Op(op) => {
                let v = self.fix_value(db, c.col, c.value.clone()?);
                Expr::binary(lhs, *op, Expr::Literal(v))
            }
            CmpKind::Between => Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(Expr::Literal(self.fix_value(db, c.col, c.value.clone()?))),
                high: Box::new(Expr::Literal(self.fix_value(db, c.col, c.value2.clone()?))),
                negated: false,
            },
            CmpKind::Contains => Expr::Like {
                expr: Box::new(lhs),
                pattern: format!("%{}%", c.value.clone()?.canonical()),
                negated: false,
            },
            // unresolved knowledge concepts have no literal to compare with
            CmpKind::KnowledgeHigh | CmpKind::KnowledgeLow => return None,
        })
    }

    /// Coerce a literal to the column's type (ints become floats for float
    /// columns etc.), mirroring what value-aware decoders do.
    fn fix_value(&self, db: &Database, col: ColumnRef, v: Value) -> Value {
        match (db.schema.column(col).dtype, &v) {
            (DataType::Float, Value::Int(i)) => Value::Float(*i as f64),
            (DataType::Int, Value::Float(f)) if f.fract() == 0.0 => Value::Int(*f as i64),
            _ => v,
        }
    }

    /// Resolve knowledge-concept conditions against attached evidence.
    fn resolve_knowledge(&self, conds: &mut [CondSketch], question: &NlQuestion) {
        if !self.cfg.use_evidence {
            return;
        }
        let Some(ev) = &question.evidence else { return };
        let rules = parse_evidence(ev);
        for c in conds.iter_mut() {
            let want_high = match c.kind {
                CmpKind::KnowledgeHigh => true,
                CmpKind::KnowledgeLow => false,
                _ => continue,
            };
            if let Some(rule) = rules
                .iter()
                .find(|r| r.high == want_high && r.col_phrase == c.col_phrase)
                .or_else(|| rules.iter().find(|r| r.high == want_high))
            {
                c.kind = CmpKind::Op(rule.op);
                c.value = Some(rule.value.clone());
            }
        }
    }

    /// Full parse with an optional alternative grounding for one condition
    /// slot (used by candidate generation).
    fn parse_with(
        &self,
        question: &NlQuestion,
        db: &Database,
        alt_slot: Option<usize>,
    ) -> Result<Query> {
        let mut a = analyze(&question.text);
        self.resolve_knowledge(&mut a.conds, question);
        let surfaces = self.linker.schema_surfaces(&db.schema);

        // ---- main table ----------------------------------------------------
        let main = a
            .table_phrase
            .as_deref()
            .and_then(|p| self.ground_table_in(p, db, &surfaces))
            .or_else(|| self.linker.best_table(&question.text, db))
            .ok_or_else(|| NliError::Parse("could not identify a table".into()))?;

        // ---- nested ---------------------------------------------------------
        if let (Some(n), true) = (&a.nested, self.cfg.enable_nested) {
            if let Some(q) = self.build_nested(&a, n.negated, &n.child_phrase, main, db, &surfaces)
            {
                return Ok(q);
            }
        }

        // ---- compound --------------------------------------------------------
        if let (Some(op), true) = (a.compound, self.cfg.enable_compound) {
            if a.conds.len() >= 2 {
                if let Some(q) = self.build_compound(&a, op, main, db, &surfaces) {
                    return Ok(q);
                }
            }
        }

        // ---- scope & shared grounding -----------------------------------------
        let scope_all: Vec<usize> = if self.cfg.enable_joins {
            (0..db.schema.tables.len()).collect()
        } else {
            vec![main]
        };

        // ground conditions
        let mut gconds: Vec<GroundCond> = Vec::new();
        for (slot, c) in a.conds.iter().enumerate() {
            if matches!(c.kind, CmpKind::KnowledgeHigh | CmpKind::KnowledgeLow) {
                continue; // unresolved concept: drop (a genuine failure mode)
            }
            let alt = alt_slot == Some(slot);
            if let Some(col) =
                self.ground_column_in(&c.col_phrase, db, &surfaces, &scope_all, main, alt)
            {
                gconds.push(GroundCond {
                    col,
                    kind: c.kind.clone(),
                    value: c.value.clone(),
                    value2: c.value2.clone(),
                });
            }
        }

        // superlatives (scalar subqueries over the main table)
        let superlatives: Vec<(AggFunc, ColumnRef)> = a
            .superlatives
            .iter()
            .filter_map(|(f, p)| self.ground_numeric(p, db, &surfaces, main).map(|r| (*f, r)))
            .collect();

        // group key
        let group_key = a
            .group_phrase
            .as_deref()
            .and_then(|p| self.ground_column_in(p, db, &surfaces, &scope_all, main, false));

        // aggregate argument
        let agg = a.agg.as_ref().map(|s| {
            let arg = s
                .arg_phrase
                .as_deref()
                .and_then(|p| self.ground_column_in(p, db, &surfaces, &scope_all, main, false));
            (s.func, arg)
        });

        // projections
        let mut proj_cols: Vec<ColumnRef> = a
            .projections
            .iter()
            .filter_map(|p| self.ground_column_in(p, db, &surfaces, &scope_all, main, false))
            .collect();

        // order
        let order = a.order.as_ref().map(|o| {
            let col = if o.phrase == "the result" || o.phrase.is_empty() {
                None
            } else {
                self.ground_column_in(&o.phrase, db, &surfaces, &scope_all, main, false)
            };
            (col, o.desc, o.limit)
        });

        // ---- join inference -----------------------------------------------------
        let mut used: Vec<ColumnRef> = gconds.iter().map(|c| c.col).collect();
        used.extend(proj_cols.iter().copied());
        if let Some((_, Some(arg))) = &agg {
            used.push(*arg);
        }
        if let Some(k) = group_key {
            used.push(k);
        }
        if let Some((Some(c), _, _)) = &order {
            used.push(*c);
        }
        let mut join: Option<(usize, ColumnRef, ColumnRef)> = None; // (parent, fk, pk)
        if self.cfg.enable_joins {
            for r in &used {
                if r.table != main {
                    if let Some(fk) = db
                        .schema
                        .foreign_keys
                        .iter()
                        .find(|fk| fk.from.table == main && fk.to.table == r.table)
                    {
                        join = Some((r.table, fk.from, fk.to));
                        break;
                    }
                }
            }
        }
        // columns on unreachable tables get remapped into the main table
        let parent = join.map(|(p, _, _)| p);
        let remap = |r: ColumnRef, this: &GrammarParser| -> ColumnRef {
            if r.table == main || Some(r.table) == parent {
                r
            } else {
                this.default_column(db, main)
            }
        };
        for c in gconds.iter_mut() {
            c.col = remap(c.col, self);
        }
        for p in proj_cols.iter_mut() {
            *p = remap(*p, self);
        }
        let agg = agg.map(|(f, arg)| (f, arg.map(|r| remap(r, self))));
        let group_key = group_key.map(|r| remap(r, self));
        let order = order.map(|(c, d, l)| (c.map(|r| remap(r, self)), d, l));

        let qualify = join.is_some();

        // ---- assemble the SELECT ---------------------------------------------
        let main_name = db.schema.tables[main].name.clone();
        let mut select = Select::simple(&main_name, Vec::new());
        if let Some((p, fk, pk)) = join {
            select.from.push(TableRef {
                name: db.schema.tables[p].name.clone(),
            });
            select.joins.push(JoinCond {
                left: ColName::qualified(
                    &db.schema.tables[fk.table].name,
                    &db.schema.column(fk).name,
                ),
                right: ColName::qualified(
                    &db.schema.tables[pk.table].name,
                    &db.schema.column(pk).name,
                ),
            });
        }

        let agg_expr = |f: AggFunc, arg: &Option<ColumnRef>| match arg {
            Some(r) => Expr::agg(f, self.col_expr(db, *r, qualify)),
            None => Expr::count_star(),
        };

        if let Some(key) = group_key {
            // GROUP BY shape
            let (f, arg) = agg.unwrap_or((AggFunc::Count, None));
            let key_expr = self.col_expr(db, key, qualify);
            select.items = vec![
                SelectItem::plain(key_expr.clone()),
                SelectItem::plain(agg_expr(f, &arg)),
            ];
            select.group_by = vec![key_expr];
            if let Some(n) = a.having_min {
                select.having = Some(Expr::binary(Expr::count_star(), BinOp::Gt, Expr::lit(n)));
            }
            if let Some((col, desc, limit)) = &order {
                let expr = match col {
                    Some(r) => self.col_expr(db, *r, qualify),
                    None => agg_expr(f, &arg),
                };
                select.order_by = vec![OrderItem { expr, desc: *desc }];
                select.limit = *limit;
            }
        } else if let Some((f, arg)) = agg {
            select.items = vec![SelectItem::plain(agg_expr(f, &arg))];
        } else {
            if proj_cols.is_empty() {
                proj_cols.push(self.default_column(db, main));
            }
            select.items = proj_cols
                .iter()
                .map(|r| SelectItem::plain(self.col_expr(db, *r, qualify)))
                .collect();
            select.distinct = a.distinct;
            if let Some((col, desc, limit)) = &order {
                let expr = match col {
                    Some(r) => self.col_expr(db, *r, qualify),
                    None => Expr::count_star(),
                };
                select.order_by = vec![OrderItem { expr, desc: *desc }];
                select.limit = *limit;
            }
        }

        // WHERE
        let mut exprs: Vec<Expr> = gconds
            .iter()
            .filter_map(|c| self.build_cond(db, c, qualify))
            .collect();
        for (f, col) in &superlatives {
            let inner = Query::single(Select::simple(
                &main_name,
                vec![SelectItem::plain(Expr::agg(
                    *f,
                    Expr::Column(ColName::new(&db.schema.column(*col).name)),
                ))],
            ));
            exprs.push(Expr::binary(
                self.col_expr(db, *col, qualify),
                BinOp::Eq,
                Expr::ScalarSubquery(Box::new(inner)),
            ));
        }
        select.where_clause = exprs
            .into_iter()
            .reduce(|a, b| Expr::binary(a, BinOp::And, b));

        Ok(Query::single(select))
    }

    fn build_nested(
        &self,
        a: &QuestionAnalysis,
        negated: bool,
        child_phrase: &str,
        outer: usize,
        db: &Database,
        surfaces: &SchemaSurfaces,
    ) -> Option<Query> {
        let child = self.ground_table_in(child_phrase, db, surfaces)?;
        let fk = db
            .schema
            .foreign_keys
            .iter()
            .find(|fk| fk.from.table == child && fk.to.table == outer)?;
        let child_name = &db.schema.tables[child].name;
        let mut inner = Select::simple(
            child_name,
            vec![SelectItem::plain(Expr::Column(ColName::new(
                &db.schema.column(fk.from).name,
            )))],
        );
        // conditions grounded to the child table go inside
        let inner_conds: Vec<Expr> = a
            .conds
            .iter()
            .filter_map(|c| {
                let col =
                    self.ground_column_in(&c.col_phrase, db, surfaces, &[child], child, false)?;
                self.build_cond(
                    db,
                    &GroundCond {
                        col,
                        kind: c.kind.clone(),
                        value: c.value.clone(),
                        value2: c.value2.clone(),
                    },
                    false,
                )
            })
            .collect();
        inner.where_clause = inner_conds
            .into_iter()
            .reduce(|x, y| Expr::binary(x, BinOp::And, y));

        let pk = db.schema.tables[outer].primary_key()?;
        let select_col = a
            .projections
            .first()
            .and_then(|p| self.ground_column_in(p, db, surfaces, &[outer], outer, false))
            .unwrap_or_else(|| self.default_column(db, outer));
        let mut outer_sel = Select::simple(
            &db.schema.tables[outer].name,
            vec![SelectItem::plain(self.col_expr(db, select_col, false))],
        );
        outer_sel.where_clause = Some(Expr::InSubquery {
            expr: Box::new(Expr::Column(ColName::new(
                &db.schema.tables[outer].columns[pk].name,
            ))),
            query: Box::new(Query::single(inner)),
            negated,
        });
        Some(Query::single(outer_sel))
    }

    fn build_compound(
        &self,
        a: &QuestionAnalysis,
        op: nli_sql::SetOp,
        table: usize,
        db: &Database,
        surfaces: &SchemaSurfaces,
    ) -> Option<Query> {
        let col = a
            .projections
            .first()
            .and_then(|p| self.ground_column_in(p, db, surfaces, &[table], table, false))
            .unwrap_or_else(|| self.default_column(db, table));
        let name = db.schema.tables[table].name.clone();
        let mk = |c: &CondSketch| -> Option<Query> {
            let gcol =
                self.ground_column_in(&c.col_phrase, db, surfaces, &[table], table, false)?;
            let cond = self.build_cond(
                db,
                &GroundCond {
                    col: gcol,
                    kind: c.kind.clone(),
                    value: c.value.clone(),
                    value2: c.value2.clone(),
                },
                false,
            )?;
            let mut s = Select::simple(
                &name,
                vec![SelectItem::plain(self.col_expr(db, col, false))],
            );
            s.where_clause = Some(cond);
            Some(Query::single(s))
        };
        let mut left = mk(&a.conds[0])?;
        let right = mk(&a.conds[1])?;
        left.compound = Some((op, Box::new(right)));
        Some(left)
    }

    /// Ground a single condition sketch into an expression over `scope`
    /// tables (used by the conversational editor for follow-up turns).
    pub fn ground_condition(
        &self,
        sketch: &CondSketch,
        db: &Database,
        scope: &[usize],
        main: usize,
        qualify: bool,
    ) -> Option<Expr> {
        let col = self.ground_column(&sketch.col_phrase, db, scope, main, false)?;
        self.build_cond(
            db,
            &GroundCond {
                col,
                kind: sketch.kind.clone(),
                value: sketch.value.clone(),
                value2: sketch.value2.clone(),
            },
            qualify,
        )
    }

    /// Ground an ORDER BY phrase into a column expression over `scope`.
    pub fn ground_order_column(
        &self,
        phrase: &str,
        db: &Database,
        scope: &[usize],
        main: usize,
        qualify: bool,
    ) -> Option<Expr> {
        let col = self.ground_column(phrase, db, scope, main, false)?;
        Some(self.col_expr(db, col, qualify))
    }

    /// Candidate list for execution-guided decoding: the primary parse plus
    /// alternative groundings for each condition slot.
    pub fn parse_candidates(&self, question: &NlQuestion, db: &Database, k: usize) -> Vec<Query> {
        let mut out = Vec::new();
        if let Ok(q) = self.parse_with(question, db, None) {
            out.push(q);
        }
        let n_conds = analyze(&question.text).conds.len();
        for slot in 0..n_conds {
            if out.len() >= k {
                break;
            }
            if let Ok(q) = self.parse_with(question, db, Some(slot)) {
                if !out.contains(&q) {
                    out.push(q);
                }
            }
        }
        out
    }
}

impl SemanticParser for GrammarParser {
    type Expr = Query;

    fn parse(&self, question: &NlQuestion, db: &Database) -> Result<Query> {
        self.parse_with(question, db, None)
    }

    fn name(&self) -> &str {
        &self.cfg.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_core::{Column, Schema, Table};

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
                    "sales",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("product_id", DataType::Int),
                        Column::new("amount", DataType::Float),
                    ],
                )
                .with_display("sale"),
            ],
        );
        schema.domain = "retail".into();
        schema
            .add_foreign_key("sales", "product_id", "products", "id")
            .unwrap();
        let mut d = Database::empty(schema);
        d.insert_all(
            "products",
            vec![
                vec![1.into(), "Widget".into(), "Tools".into(), 9.5.into()],
                vec![2.into(), "Gadget".into(), "Toys".into(), 19.0.into()],
            ],
        )
        .unwrap();
        d.insert_all(
            "sales",
            vec![
                vec![1.into(), 1.into(), 100.0.into()],
                vec![2.into(), 2.into(), 50.0.into()],
            ],
        )
        .unwrap();
        d
    }

    fn parse(p: &GrammarParser, q: &str) -> String {
        p.parse(&NlQuestion::new(q), &db()).unwrap().to_string()
    }

    #[test]
    fn count_question() {
        let p = GrammarParser::new(GrammarConfig::neural());
        assert_eq!(
            parse(&p, "How many products are there?"),
            "SELECT COUNT(*) FROM products"
        );
    }

    #[test]
    fn filtered_count_with_type_coercion() {
        let p = GrammarParser::new(GrammarConfig::neural());
        assert_eq!(
            parse(&p, "How many products with price greater than 5 are there?"),
            "SELECT COUNT(*) FROM products WHERE price > 5"
        );
    }

    #[test]
    fn projection_with_order_and_limit() {
        let p = GrammarParser::new(GrammarConfig::neural());
        assert_eq!(
            parse(
                &p,
                "List the name of products, sorted by price in descending order, and show only the top 3."
            ),
            "SELECT name FROM products ORDER BY price DESC LIMIT 3"
        );
    }

    #[test]
    fn group_by_question() {
        let p = GrammarParser::new(GrammarConfig::neural());
        assert_eq!(
            parse(
                &p,
                "For each category, what is the average price of products?"
            ),
            "SELECT category, AVG(price) FROM products GROUP BY category"
        );
    }

    #[test]
    fn group_with_having_and_order_by_result() {
        let p = GrammarParser::new(GrammarConfig::neural());
        assert_eq!(
            parse(
                &p,
                "For each category, how many products are there, keeping only groups with more than 1 products, sorted by the result in descending order?"
            ),
            "SELECT category, COUNT(*) FROM products GROUP BY category HAVING COUNT(*) > 1 ORDER BY COUNT(*) DESC"
        );
    }

    #[test]
    fn join_inference_from_parent_column_phrase() {
        let p = GrammarParser::new(GrammarConfig::neural());
        let sql = parse(
            &p,
            "For each product category, what is the total amount of sales?",
        );
        assert_eq!(
            sql,
            "SELECT products.category, SUM(sales.amount) FROM sales JOIN products \
             ON sales.product_id = products.id GROUP BY products.category"
        );
    }

    #[test]
    fn traditional_config_cannot_join() {
        let p = GrammarParser::new(GrammarConfig::traditional());
        let sql = parse(
            &p,
            "For each product category, what is the total amount of sales?",
        );
        assert!(!sql.contains("JOIN"), "{sql}");
    }

    #[test]
    fn nested_question() {
        let p = GrammarParser::new(GrammarConfig::neural());
        assert_eq!(
            parse(&p, "List the name of products that have no sale."),
            "SELECT name FROM products WHERE id NOT IN (SELECT product_id FROM sales)"
        );
    }

    #[test]
    fn nested_with_inner_condition() {
        let p = GrammarParser::new(GrammarConfig::neural());
        assert_eq!(
            parse(
                &p,
                "List the name of products that have at least one sale with amount above 60."
            ),
            "SELECT name FROM products WHERE id IN (SELECT product_id FROM sales WHERE amount > 60)"
        );
    }

    #[test]
    fn superlative_question() {
        let p = GrammarParser::new(GrammarConfig::neural());
        assert_eq!(
            parse(&p, "Show the name of products with the maximum price."),
            "SELECT name FROM products WHERE price = (SELECT MAX(price) FROM products)"
        );
    }

    #[test]
    fn compound_question() {
        let p = GrammarParser::new(GrammarConfig::neural());
        assert_eq!(
            parse(
                &p,
                "List the name of products whose category is 'Toys' but not whose category is 'Tools'."
            ),
            "SELECT name FROM products WHERE category = 'Toys' EXCEPT SELECT name FROM products WHERE category = 'Tools'"
        );
    }

    #[test]
    fn evidence_resolves_knowledge_conditions() {
        let reasoner = GrammarParser::new(GrammarConfig::llm_reasoner());
        let q = NlQuestion::new("How many products with a high price are there?")
            .with_evidence("a high price means price greater than 10");
        assert_eq!(
            reasoner.parse(&q, &db()).unwrap().to_string(),
            "SELECT COUNT(*) FROM products WHERE price > 10"
        );
        // without evidence the concept is dropped
        let no_ev = NlQuestion::new("How many products with a high price are there?");
        assert_eq!(
            reasoner.parse(&no_ev, &db()).unwrap().to_string(),
            "SELECT COUNT(*) FROM products"
        );
    }

    #[test]
    fn synonym_question_needs_world_knowledge() {
        let neural = GrammarParser::new(GrammarConfig::neural());
        let reasoner = GrammarParser::new(GrammarConfig::llm_reasoner());
        // "cost" is a synonym of "price"
        let q = "List the name of products with cost greater than 5.";
        let r = parse(&reasoner, q);
        assert!(r.contains("price > 5"), "{r}");
        let n = parse(&neural, q);
        assert!(!n.contains("price > 5"), "neural parser should miss: {n}");
    }

    #[test]
    fn unidentifiable_table_is_an_error() {
        let p = GrammarParser::new(GrammarConfig::neural());
        assert!(p
            .parse(
                &NlQuestion::new("colorless green ideas sleep furiously"),
                &db()
            )
            .is_err());
    }

    #[test]
    fn candidates_include_alternatives() {
        let p = GrammarParser::new(GrammarConfig::neural());
        let q = NlQuestion::new("List the name of products with price above 5.");
        let cands = p.parse_candidates(&q, &db(), 4);
        assert!(!cands.is_empty());
        assert!(cands.len() <= 4);
    }

    #[test]
    fn schemas_differing_only_in_a_display_never_share_surfaces() {
        // same structure, same fingerprint; only `price`'s display differs
        let a = db();
        let mut b = db();
        b.schema.tables[0].columns[3].display = "cost".into();
        assert_eq!(a.schema.fingerprint(), b.schema.fingerprint());
        let q = NlQuestion::new("List the name of products with cost greater than 5.");
        let fresh = |d: &Database| {
            let p = GrammarParser::new(GrammarConfig::neural());
            (
                p.parse(&q, d).unwrap().to_string(),
                p.ground_column("cost", d, &[0, 1], 0, false),
            )
        };
        let (want_a, want_b) = (fresh(&a), fresh(&b));
        assert_ne!(want_a, want_b, "the display must matter to grounding");
        let shared = GrammarParser::new(GrammarConfig::neural());
        for d in [&a, &b, &a, &b, &b, &a] {
            let got = (
                shared.parse(&q, d).unwrap().to_string(),
                shared.ground_column("cost", d, &[0, 1], 0, false),
            );
            assert_eq!(got, fresh(d));
        }
    }

    #[test]
    fn outputs_always_reparse() {
        let p = GrammarParser::new(GrammarConfig::neural());
        for q in [
            "How many sales are there?",
            "Show the name and price of products with price at least 5.",
            "List the different category of products.",
            "What is the maximum amount of sales?",
        ] {
            let sql = parse(&p, q);
            nli_sql::parse_query(&sql).unwrap_or_else(|e| panic!("{q}: {e}\n{sql}"));
        }
    }
}
