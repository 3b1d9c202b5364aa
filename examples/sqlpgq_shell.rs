//! A miniature SQL/PGQ shell: runs a script file (or a built-in demo)
//! and prints each statement's response. It is a thin client of
//! [`sqlpgq::server::Engine`] — the same engine `pgq-server` serves over
//! TCP — so it prints, line for line, what a server client would get.
//!
//! A script is `;`-separated commands (`server::split_statements`; a
//! `;` inside a quoted string is data). The grammar has one definition,
//! `sqlpgq::parser::parse_command`; beyond the paper's SQL/PGQ
//! statements (`CREATE TABLE`, `CREATE PROPERTY GRAPH`, `SELECT * FROM
//! GRAPH_TABLE (…)`) it has the session commands:
//!
//! * `INSERT INTO t VALUES (v, …);` / `DELETE FROM t VALUES (v, …);` —
//!   row mutations (the formal model is read-only, Section 7 "Updates";
//!   the engine applies the row's delta to the graphs over `t` in place
//!   and publishes a snapshot — `STATS;` then shows the tombstones and
//!   overlays that `COMPACT;` folds);
//! * `EXPLAIN SELECT …;` — the physical plan against the published
//!   snapshot; `EXPLAIN ANALYZE SELECT …;` runs the query and prints the
//!   per-operator profile (rows, wall time, fixpoint Δ sizes) instead;
//! * `STATS;` / `STATS JSON;` — the store's layout (dictionary
//!   residency, overlays, bytes by component) and planner statistics;
//! * `METRICS;` / `METRICS JSON;` / `METRICS RESET;` — cumulative store
//!   access counters; `COMPACT;` — fold overlays, rebuild the dictionary;
//! * `SET THREADS n;` — executor workers, clamped to the machine (`0`:
//!   `PGQ_THREADS`, else the machine's parallelism); `SET PLANNER cost;` / `SET PLANNER rule;` —
//!   statistics-driven (default) or fixed rule-based lowering. Results
//!   are identical at every setting; only plan shapes move.
//!
//! Malformed input answers `!! <typed error>` and the session goes on.
//!
//! ```sh
//! cargo run --example sqlpgq_shell            # built-in demo
//! cargo run --example sqlpgq_shell -- my.pgq  # run a script file
//! ```

use sqlpgq::server::{split_statements, Engine, SessionState};

const DEMO: &str = r#"
CREATE TABLE Account (iban);
CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount);
INSERT INTO Account VALUES ('IL01');
INSERT INTO Account VALUES ('IL02');
INSERT INTO Account VALUES ('IL03');
INSERT INTO Transfer VALUES (1, 'IL01', 'IL02', 100, 500);
INSERT INTO Transfer VALUES (2, 'IL02', 'IL03', 101, 750);
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount));
SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
STATS;
SET THREADS 2;
SET PLANNER rule;
SET PLANNER cost;
INSERT INTO Account VALUES ('IL04');
INSERT INTO Transfer VALUES (3, 'IL03', 'IL04', 102, 900);
DELETE FROM Transfer VALUES (1, 'IL01', 'IL02', 100, 500);
SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
STATS;
EXPLAIN SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
EXPLAIN ANALYZE SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t]->+ (y)
  RETURN (x.iban, y.iban));
METRICS;
COMPACT;
STATS;
"#;

fn main() {
    let script = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => DEMO.to_string(),
    };
    let engine = Engine::new();
    let mut session = SessionState::default();
    for stmt in split_statements(&script) {
        for line in engine.statement(&mut session, &stmt) {
            println!("{line}");
        }
    }
}
