//! # sqlpgq
//!
//! An executable model of SQL/PGQ expressiveness — a full reproduction of
//! *"On the Expressiveness of Languages for Querying Property Graphs in
//! Relational Databases"* (PODS 2025). See `README.md` for the tour,
//! `DESIGN.md` for the architecture, and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`value`] | `pgq-value` | domain constants, tuples, variables |
//! | [`relational`] | `pgq-relational` | relations, databases, RA |
//! | [`store`] | `pgq-store` | columnar store: dictionary coding, CSR adjacency, session catalog |
//! | [`exec`] | `pgq-exec` | physical plans, hash joins, semi-naive fixpoints |
//! | [`graph`] | `pgq-graph` | property graphs, `pgView` family |
//! | [`pattern`] | `pgq-pattern` | patterns, Fig 2/6 semantics, NFA engine |
//! | [`logic`] | `pgq-logic` | FO\[TC\], FO\[TCn\], semilinear sets |
//! | [`core`] | `pgq-core` | `PGQro`/`PGQrw`/`PGQn`/`PGQext` |
//! | [`translate`] | `pgq-translate` | Theorems 6.1/6.2 translations |
//! | [`parser`] | `pgq-parser` | SQL/PGQ surface syntax |
//! | [`workloads`] | `pgq-workloads` | generators, witness families |
//! | [`datalog`] | `pgq-datalog` | stratified/linear Datalog + FO\[TC\] bridge (§4.1's NL baseline) |
//! | [`rpq`] | `pgq-rpq` | RPQ/2RPQ/CRPQ baselines and their `PGQro` lowering |
//! | [`compose`] | `pgq-compose` | graph-valued compositional queries (§8 future work) |
//! | [`server`] | `pgq-server` | the session layer: `Engine` (one `match` over `parser::parse_command`), TCP line protocol |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pgq_compose as compose;
pub use pgq_core as core;
pub use pgq_datalog as datalog;
pub use pgq_exec as exec;
pub use pgq_graph as graph;
pub use pgq_logic as logic;
pub use pgq_parser as parser;
pub use pgq_pattern as pattern;
pub use pgq_relational as relational;
pub use pgq_rpq as rpq;
pub use pgq_server as server;
pub use pgq_store as store;
pub use pgq_translate as translate;
pub use pgq_value as value;
pub use pgq_workloads as workloads;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use pgq_compose::{eval_graph, eval_match, GraphExpr};
    pub use pgq_core::{
        builders, eval as eval_query, eval_with, eval_with_store, eval_with_store_profiled,
        explain, explain_with, Engine, EvalConfig, Fragment, Query, ViewOp,
    };
    pub use pgq_datalog::{compile_formula, parse_program, Program, Recursion};
    pub use pgq_exec::{
        eval_ra, eval_ra_opts, eval_ra_profiled, eval_ra_with, execute, execute_opts,
        execute_profiled, execute_with, plan_ra, Batch, Coded, ExecOptions, JsonWriter, PhysPlan,
        PlanMetrics, QueryProfile,
    };
    pub use pgq_graph::{pg_view, pg_view_ext, PropertyGraph, PropertyGraphBuilder, ViewMode};
    pub use pgq_logic::{eval_ordered, eval_sentence, Formula, Term, UpSet};
    pub use pgq_parser::{Outcome, Session};
    pub use pgq_pattern::{Condition, OutputItem, OutputPattern, Pattern};
    pub use pgq_relational::{Database, RaExpr, Relation, RowCondition, Schema};
    pub use pgq_rpq::{Crpq, CrpqAtom, Rpq};
    pub use pgq_store::{
        AccessSnapshot, ConcurrentStore, GraphForm, Store, StoreSnapshot, StoreStats,
    };
    pub use pgq_translate::{fo_to_pgq, pgq_to_fo};
    pub use pgq_value::{tuple, Tuple, Value, Var};
}
