//! Golden oracle for the NL parse path: every byte the grammar parsers and
//! the schema linker produce over a fixed generated corpus.
//!
//! The corpus crosses the four [`NlStyle`]s with the Spider and WikiSQL
//! query profiles over generated databases. For each question it records
//!
//! * `parse` and `parse_candidates(k = 4)` under the `llm_reasoner`,
//!   `neural` and `traditional` grammar configs, and
//! * `Linker::link` (`table_scores`, `columns`, `values`) under the
//!   `world_knowledge` and `lexical_only` link configs.
//!
//! Schema-linking optimizations must leave this file byte-identical
//! (DESIGN.md §3, "Schema-linking cost model"). Regenerate only after an
//! intentional behaviour change with:
//!
//! ```text
//! NLI_UPDATE_GOLDEN=1 cargo test -p nli-core --test nl_parse_golden
//! ```

use nli_core::{Database, NlQuestion, Prng, SemanticParser};
use nli_data::builder::{generate_databases, generate_examples};
use nli_data::nl_gen::NlStyle;
use nli_data::schema_gen::DbGenConfig;
use nli_data::sql_gen::SqlProfile;
use nli_text2sql::{GrammarConfig, GrammarParser, LinkConfig, Linker, LinkingResult};
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "nl_parse_corpus.txt";
/// Questions per (profile, style) cell.
const PER_CELL: usize = 20;
const DATABASES: usize = 16;

fn styles() -> [(&'static str, NlStyle); 4] {
    [
        ("plain", NlStyle::plain()),
        ("synonym_heavy", NlStyle::synonym_heavy()),
        ("realistic", NlStyle::realistic()),
        ("knowledge", NlStyle::knowledge()),
    ]
}

/// Spider-shaped databases (multi-table, FK-linked) and WikiSQL-shaped
/// ones (each schema truncated to its first table), as the two builders
/// make them.
fn databases(single_table: bool, rng: &mut Prng) -> Vec<Database> {
    let cfg = if single_table {
        DbGenConfig {
            min_tables: 1,
            optional_col_p: 0.6,
            rows: (8, 25),
        }
    } else {
        DbGenConfig {
            min_tables: 2,
            optional_col_p: 0.7,
            rows: (12, 40),
        }
    };
    let mut dbs = generate_databases(DATABASES, &cfg, rng);
    if single_table {
        for db in &mut dbs {
            db.schema.tables.truncate(1);
            db.schema.foreign_keys.clear();
            db.data.truncate(1);
        }
    }
    dbs
}

fn render_link(r: &LinkingResult) -> String {
    let tables: Vec<String> = r.table_scores.iter().map(|s| s.to_string()).collect();
    let cols: Vec<String> = r
        .columns
        .iter()
        .map(|c| {
            format!(
                "{}+{}:{}.{}={}",
                c.start, c.len, c.col.table, c.col.column, c.score
            )
        })
        .collect();
    let values: Vec<String> = r
        .values
        .iter()
        .map(|v| format!("{}.{}={:?}", v.col.table, v.col.column, v.value))
        .collect();
    format!(
        "tables=[{}] cols=[{}] values=[{}]",
        tables.join(","),
        cols.join(","),
        values.join(",")
    )
}

/// The whole corpus rendered as text: one block per question.
fn render_corpus() -> String {
    let parsers = [
        (
            "llm_reasoner",
            GrammarParser::new(GrammarConfig::llm_reasoner()),
        ),
        ("neural", GrammarParser::new(GrammarConfig::neural())),
        (
            "traditional",
            GrammarParser::new(GrammarConfig::traditional()),
        ),
    ];
    let linkers = [
        (
            "world_knowledge",
            Linker::new(LinkConfig::world_knowledge()),
        ),
        ("lexical_only", Linker::new(LinkConfig::lexical_only())),
    ];
    let mut out = String::new();
    for (profile_name, profile, single_table) in [
        ("spider", SqlProfile::spider(), false),
        ("wikisql", SqlProfile::wikisql(), true),
    ] {
        let mut rng = Prng::new(0x601D_E400);
        let dbs = databases(single_table, &mut rng);
        for (style_name, style) in styles() {
            let examples =
                generate_examples(&dbs, 0..dbs.len(), &profile, style, PER_CELL, &mut rng);
            for (i, ex) in examples.iter().enumerate() {
                let db = &dbs[ex.db];
                let q: &NlQuestion = &ex.question;
                let _ = writeln!(
                    out,
                    "# {profile_name}/{style_name}/{i} db={} q={}",
                    db.schema.name, q.text
                );
                if let Some(ev) = &q.evidence {
                    let _ = writeln!(out, "ev: {ev}");
                }
                for (name, p) in &parsers {
                    let parsed = match p.parse(q, db) {
                        Ok(sql) => sql.to_string(),
                        Err(e) => format!("ERR {e}"),
                    };
                    let _ = writeln!(out, "parse[{name}]: {parsed}");
                    let cands: Vec<String> = p
                        .parse_candidates(q, db, 4)
                        .iter()
                        .map(|c| c.to_string())
                        .collect();
                    let _ = writeln!(out, "cands[{name}]: {}", cands.join(" || "));
                }
                for (name, l) in &linkers {
                    let _ = writeln!(out, "link[{name}]: {}", render_link(&l.link(&q.text, db)));
                }
            }
        }
    }
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(FIXTURE)
}

#[test]
fn nl_parse_and_link_outputs_match_golden() {
    let actual = render_corpus();
    let path = fixture_path();
    if std::env::var_os("NLI_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if actual != expected {
        let diff = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e)
            .map(|(n, (a, e))| format!("line {}:\n  actual:   {a}\n  expected: {e}", n + 1))
            .unwrap_or_else(|| "outputs differ in length".into());
        panic!("NL parse golden mismatch at {diff}");
    }
}
