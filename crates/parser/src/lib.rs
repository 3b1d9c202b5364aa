//! # pgq-parser
//!
//! The SQL/PGQ surface syntax of the paper's examples, end to end:
//! lexer → parser → catalog → graph view → pattern evaluation.
//! System S9 of the reproduction (see DESIGN.md); experiment E1 runs
//! Examples 1.1 and 2.1 through this crate verbatim.
//!
//! ```
//! use pgq_parser::{Outcome, Session};
//! use pgq_relational::Database;
//! use pgq_value::tuple;
//!
//! let mut db = Database::new();
//! db.insert("Account", tuple!["IL1"]).unwrap();
//! db.insert("Account", tuple!["IL2"]).unwrap();
//! db.insert("Transfer", tuple![7, "IL1", "IL2", 100, 250]).unwrap();
//!
//! let mut session = Session::new();
//! let outcomes = session
//!     .run_script(
//!         "CREATE TABLE Account (iban);
//!          CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount);
//!          CREATE PROPERTY GRAPH Transfers (
//!            NODES TABLE Account KEY (iban) LABEL Account,
//!            EDGES TABLE Transfer KEY (t_id)
//!              SOURCE KEY src_iban REFERENCES Account
//!              TARGET KEY tgt_iban REFERENCES Account
//!              LABELS Transfer PROPERTIES (ts, amount));
//!          SELECT * FROM GRAPH_TABLE (Transfers
//!            MATCH (x) -[t:Transfer]->+ (y)
//!            WHERE t.amount > 100
//!            RETURN (x.iban, y.iban));",
//!         &db,
//!     )
//!     .unwrap();
//! let Outcome::Rows(rows) = &outcomes[3] else { panic!() };
//! assert!(rows.contains(&tuple!["IL1", "IL2"]));
//! ```
//!
//! Sessions (the shell, `pgq-server`) accept more than statements —
//! row mutations, `EXPLAIN [ANALYZE]`, `STATS`, `METRICS`, `COMPACT`,
//! `SET THREADS`, `SET PLANNER`. [`parse_command`] is that grammar's one
//! definition: it returns a typed [`Command`] for a session to `match`
//! on, so no surface dispatches on strings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::{Command, MetricsMode, PlannerToken, RowMutation, Statement};
pub use catalog::{Catalog, CatalogError, ColumnResolution};
pub use lexer::{lex, LexError, Tok, Token};
pub use lower::{lower_query, LowerError, Outcome, ScriptError, Session};
pub use parser::{parse_command, parse_script, parse_statement, CommandError, ParseError};
