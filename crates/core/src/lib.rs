//! # pgq-core
//!
//! The paper's primary contribution, executable: the query languages
//! `PGQro`, `PGQrw`, `PGQn` and `PGQext` of *"On the Expressiveness of
//! Languages for Querying Property Graphs in Relational Databases"*
//! (PODS 2025) — syntax per Figure 3, semantics per Figure 4, with
//! fragment classification, static arity checking, and a physical
//! engine that compiles every pattern call into the query's plan (the
//! NFA and Figure 2 evaluators are its oracles).
//!
//! System S7 of the reproduction; see DESIGN.md.
//!
//! ## Quick example
//!
//! ```
//! use pgq_core::{builders, eval, Query};
//! use pgq_relational::Database;
//! use pgq_value::tuple;
//!
//! // The six canonical relations of a two-node graph a → b.
//! let mut db = Database::new();
//! db.insert("N", tuple!["a"]).unwrap();
//! db.insert("N", tuple!["b"]).unwrap();
//! db.insert("E", tuple!["e"]).unwrap();
//! db.insert("S", tuple!["e", "a"]).unwrap();
//! db.insert("T", tuple!["e", "b"]).unwrap();
//! db.add_relation("L", pgq_relational::Relation::empty(2));
//! db.add_relation("P", pgq_relational::Relation::empty(3));
//!
//! // ((x) →* (y))_{x,y} over pgView(N, E, S, T, L, P).
//! let q = Query::pattern_ro(
//!     builders::reachability_output(),
//!     ["N", "E", "S", "T", "L", "P"],
//! );
//! let result = eval(&q, &db).unwrap();
//! assert!(result.contains(&tuple!["a", "b"]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
mod compile;
pub mod eval;
pub mod optimize;
pub mod physical;
pub mod query;

pub use eval::{
    build_view, eval, eval_with, eval_with_store, eval_with_store_profiled, Engine, EvalConfig,
};
pub use optimize::optimize;
pub use physical::{explain, explain_with};
pub use query::{Fragment, Query, QueryError, ViewOp};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use pgq_pattern::testgen::{arb_graph, arb_nfa_pattern};
    use pgq_pattern::{OutputItem, OutputPattern, Pattern};
    use pgq_relational::{Database, Relation};
    use pgq_store::{GraphForm, Store};
    use pgq_value::{Tuple, Value, Var};
    use proptest::prelude::*;

    /// Encodes a property graph back into its six canonical relations —
    /// the inverse direction of `pgView` (Definition 3.2 read right to
    /// left).
    fn graph_to_db(g: &pgq_graph::PropertyGraph) -> Database {
        let mut n = Relation::empty(1);
        let mut e = Relation::empty(1);
        let mut s = Relation::empty(2);
        let mut t = Relation::empty(2);
        let mut l = Relation::empty(2);
        let mut p = Relation::empty(3);
        for node in g.nodes() {
            n.insert(node.clone()).unwrap();
            for lab in g.labels(node) {
                l.insert(node.concat(&Tuple::unary(lab.clone()))).unwrap();
            }
            for (k, v) in g.props_of(node) {
                p.insert(Tuple::new(vec![node[0].clone(), k.clone(), v.clone()]))
                    .unwrap();
            }
        }
        for edge in g.edges() {
            e.insert(edge.clone()).unwrap();
            s.insert(edge.concat(g.src(edge).unwrap())).unwrap();
            t.insert(edge.concat(g.tgt(edge).unwrap())).unwrap();
            for lab in g.labels(edge) {
                l.insert(edge.concat(&Tuple::unary(lab.clone()))).unwrap();
            }
            for (k, v) in g.props_of(edge) {
                p.insert(Tuple::new(vec![edge[0].clone(), k.clone(), v.clone()]))
                    .unwrap();
            }
        }
        let mut db = Database::new();
        db.add_relation("N", n);
        db.add_relation("E", e);
        db.add_relation("S", s);
        db.add_relation("T", t);
        db.add_relation("L", l);
        db.add_relation("P", p);
        db
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// pgView ∘ (graph → relations) is the identity: querying the
        /// re-encoded graph gives the same matches as the original.
        #[test]
        fn view_roundtrip(g in arb_graph()) {
            let db = graph_to_db(&g);
            let views = ["N", "E", "S", "T", "L", "P"].map(Query::rel);
            let rebuilt = build_view(&views, ViewOp::Unary, &db, EvalConfig::default()).unwrap();
            prop_assert_eq!(&rebuilt, &g);
        }

        /// Every engine agrees with Figure 2 on navigational pattern
        /// calls `(x) ψ (y)` over random graphs/patterns, for Boolean
        /// and endpoint outputs — identifiers either way round,
        /// components, properties (optimizer soundness; ablation E10).
        /// The physical engine runs storeless and under a store with
        /// the graph registered.
        #[test]
        fn fast_path_agrees_with_reference(
            g in arb_graph(),
            p in arb_nfa_pattern(2),
            shape in 0usize..5,
        ) {
            let db = graph_to_db(&g);
            let p = Pattern::node("x").then(p).then(Pattern::node("y"));
            let (x, y) = (|| Var::new("x"), || Var::new("y"));
            let items = match shape {
                0 => vec![],
                1 => vec![OutputItem::Var(x()), OutputItem::Var(y())],
                2 => vec![OutputItem::Var(y()), OutputItem::Var(x())],
                3 => vec![OutputItem::Component(x(), 0), OutputItem::Component(y(), 0)],
                _ => vec![OutputItem::Prop(x(), "w".into()), OutputItem::Var(y())],
            };
            let views = ["N", "E", "S", "T", "L", "P"];
            let q = Query::pattern_ro(OutputPattern::new(p, items).unwrap(), views);
            let reference = eval_with(&q, &db, EvalConfig::reference()).unwrap();
            let nfa = eval_with(&q, &db, EvalConfig::nfa()).unwrap();
            prop_assert_eq!(&nfa, &reference, "{}", q);
            let physical = eval_with(&q, &db, EvalConfig::physical()).unwrap();
            prop_assert_eq!(&physical, &reference, "{}", q);
            let mut store = Store::from_database(&db);
            store
                .register_view_graph("G", views.map(Into::into), &db, GraphForm::Exact(1))
                .unwrap();
            let stored = eval_with_store(&q, &db, EvalConfig::physical(), &store).unwrap();
            prop_assert_eq!(&stored, &reference, "{}", q);
        }

        /// Figure 4's pattern clause really is two-phase: evaluating the
        /// six subqueries first and pattern-matching on the built view
        /// equals direct query evaluation.
        #[test]
        fn two_phase_evaluation(g in arb_graph()) {
            let db = graph_to_db(&g);
            let out = builders::reachability_output();
            let q = Query::pattern_ro(out.clone(), ["N", "E", "S", "T", "L", "P"]);
            let direct = eval(&q, &db).unwrap();
            let views = ["N", "E", "S", "T", "L", "P"].map(Query::rel);
            let graph = build_view(&views, ViewOp::Unary, &db, EvalConfig::default()).unwrap();
            let staged = out.eval(&graph).unwrap();
            prop_assert_eq!(direct, staged);
        }

        /// Evaluation result arity always matches the static arity.
        #[test]
        fn static_arity_agrees_with_dynamic(g in arb_graph(), c in 0i64..5) {
            let db = graph_to_db(&g);
            let schema = db.schema();
            let queries = vec![
                Query::rel("S").project(vec![1, 0]),
                Query::constant(Value::int(c)),
                Query::rel("N").product(Query::rel("E")),
                Query::pattern_ro(
                    builders::reachability_output(),
                    ["N", "E", "S", "T", "L", "P"],
                ),
            ];
            for q in queries {
                if let Ok(expected) = q.arity(&schema) {
                    let rel = eval(&q, &db).unwrap();
                    prop_assert_eq!(rel.arity(), expected, "query {}", q);
                }
            }
        }
    }
}
