//! # pgq-logic
//!
//! First-order logic with transitive closure, FO\[TC\] (Section 6.1 of
//! the paper), its arity-bounded fragments FO\[TCn\] (Section 6.2), and
//! the semilinear-set library behind the Theorem 4.2 separation.
//!
//! Two independent evaluators implement the same active-domain
//! semantics:
//! * [`eval::eval`] — lowers the formula to one `pgq_exec::PhysPlan`
//!   (one rule per constructor, `TC` as a semi-naive `Fixpoint`) and
//!   runs it on the physical executor (fast path);
//! * [`eval_naive::satisfies`] — assignment enumeration (oracle).
//!
//! They share no evaluation code, and their agreement is property-tested
//! below. Substrates S5 + S6 of the reproduction; see DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod eval_naive;
pub mod formula;
pub mod semilinear;
pub mod simplify;

pub use eval::{eval, eval_ordered, eval_sentence, Answer, LogicError};
pub use eval_naive::{all_satisfying, satisfies, Assignment};
pub use formula::{Formula, TcShapeError, Term};
pub use semilinear::{detect_period, powers_of_two_bits, UpSet};
pub use simplify::simplify;

/// Proptest generators for formulas and small databases, shared with
/// downstream crates' tests (enable the `testgen` feature).
#[cfg(any(test, feature = "testgen"))]
pub mod testgen {
    use super::*;
    use pgq_relational::Database;
    use pgq_value::{tuple, Var};
    use proptest::prelude::*;

    /// A small database over schema `{E/2, V/1}` with integer constants.
    pub fn arb_database() -> impl Strategy<Value = Database> {
        (1i64..5, proptest::collection::vec((0i64..5, 0i64..5), 0..8)).prop_map(|(nv, edges)| {
            let mut db = Database::new();
            // Declare both schema relations even when empty.
            db.add_relation("V", pgq_relational::Relation::empty(1));
            db.add_relation("E", pgq_relational::Relation::empty(2));
            for i in 0..nv {
                db.insert("V", tuple![i]).unwrap();
            }
            for (s, t) in edges {
                db.insert("E", tuple![s, t]).unwrap();
            }
            db
        })
    }

    /// Random FO\[TC\] formulas over `{E/2, V/1}` with free variables
    /// drawn from `x`, `y`. `depth` bounds the AST height.
    pub fn arb_formula(depth: u32) -> impl Strategy<Value = Formula> {
        arb_formula_inner(depth, 0)
    }

    fn vx() -> Term {
        Term::var("x")
    }
    fn vy() -> Term {
        Term::var("y")
    }

    fn arb_formula_inner(depth: u32, level: u32) -> BoxedStrategy<Formula> {
        let leaf = prop_oneof![
            Just(Formula::atom("E", [vx(), vy()])),
            Just(Formula::atom("V", [vx()])),
            Just(Formula::atom("V", [vy()])),
            Just(Formula::eq(vx(), vy())),
            (0i64..5).prop_map(|c| Formula::eq(vx(), Term::constant(c))),
            Just(Formula::True),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let sub = arb_formula_inner(depth - 1, level + 1);
        let sub2 = sub.clone();
        let sub3 = sub.clone();
        let sub4 = sub.clone();
        let sub5 = sub.clone();
        let sub6 = sub.clone();
        prop_oneof![
            3 => leaf,
            2 => (sub.clone(), sub2).prop_map(|(a, b)| a.and(b)),
            2 => (sub.clone(), sub3).prop_map(|(a, b)| a.or(b)),
            1 => sub.prop_map(|f| f.not()),
            1 => sub4.prop_map(move |f| Formula::exists(["x"], f)),
            1 => sub5.prop_map(move |f| Formula::forall(["y"], f)),
            1 => (sub6, proptest::bool::ANY).prop_map(move |(body, filter_step)| {
                // TC over fresh step variables: reachability from x to y
                // along E, optionally with a V-filter on step sources or
                // a closed side condition derived from `body`.
                let u = Var::new(format!("u{level}"));
                let w = Var::new(format!("w{level}"));
                let step = Formula::atom("E", [Term::Var(u.clone()), Term::Var(w.clone())]);
                let step = if filter_step {
                    step.and(Formula::atom("V", [Term::Var(u.clone())]))
                } else {
                    step.and(Formula::exists(["x", "y"], body).or(Formula::True))
                };
                Formula::tc(vec![u], vec![w], step, vec![vx()], vec![vy()])
            }),
        ]
        .boxed()
    }
}

#[cfg(test)]
mod prop_tests {
    use super::testgen::*;
    use super::*;
    use pgq_value::Var;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The plan evaluator agrees with the naive oracle on all
        /// assignments over (x, y).
        #[test]
        fn relational_matches_naive(db in arb_database(), f in arb_formula(2)) {
            let order = [Var::new("x"), Var::new("y")];
            let fast = eval_ordered(&f, &order, &db).unwrap();
            let slow = all_satisfying(&f, &order, &db).unwrap();
            let fast_rows: std::collections::BTreeSet<_> = fast.iter().cloned().collect();
            prop_assert_eq!(fast_rows, slow);
        }

        /// Double negation is the identity on answers.
        #[test]
        fn double_negation(db in arb_database(), f in arb_formula(2)) {
            let order = [Var::new("x"), Var::new("y")];
            let once = eval_ordered(&f, &order, &db).unwrap();
            let twice = eval_ordered(&f.clone().not().not(), &order, &db).unwrap();
            prop_assert_eq!(once, twice);
        }

        /// De Morgan: ¬(φ ∧ ψ) ≡ ¬φ ∨ ¬ψ.
        #[test]
        fn de_morgan(db in arb_database(), f in arb_formula(1), g in arb_formula(1)) {
            let order = [Var::new("x"), Var::new("y")];
            let lhs = eval_ordered(&f.clone().and(g.clone()).not(), &order, &db).unwrap();
            let rhs = eval_ordered(&f.not().or(g.not()), &order, &db).unwrap();
            prop_assert_eq!(lhs, rhs);
        }

        /// Simplification preserves semantics on both evaluators.
        #[test]
        fn simplify_preserves_semantics(db in arb_database(), f in arb_formula(2)) {
            let order = [Var::new("x"), Var::new("y")];
            let original = eval_ordered(&f, &order, &db).unwrap();
            let simplified = simplify(&f);
            prop_assert!(simplified.size() <= f.size());
            let after = eval_ordered(&simplified, &order, &db).unwrap();
            prop_assert_eq!(original, after, "formula {} vs {}", f, simplified);
        }

        /// TC contains its one-step relation and is transitive.
        #[test]
        fn tc_contains_one_step_and_composes(db in arb_database()) {
            let mk_tc = |x: Term, y: Term| {
                Formula::tc(
                    vec![Var::new("u")],
                    vec![Var::new("w")],
                    Formula::atom("E", ["u", "w"]),
                    vec![x],
                    vec![y],
                )
            };
            let order = [Var::new("x"), Var::new("y")];
            let one = eval_ordered(&Formula::atom("E", ["x", "y"]), &order, &db).unwrap();
            let closed = eval_ordered(&mk_tc(Term::var("x"), Term::var("y")), &order, &db).unwrap();
            for row in one.iter() {
                prop_assert!(closed.contains(row));
            }
            // Transitivity: TC(x,z) ∧ TC(z,y) ⇒ TC(x,y).
            let compose = Formula::exists(
                ["z"],
                mk_tc(Term::var("x"), Term::var("z")).and(mk_tc(Term::var("z"), Term::var("y"))),
            );
            let composed = eval_ordered(&compose, &order, &db).unwrap();
            for row in composed.iter() {
                prop_assert!(closed.contains(row));
            }
        }
    }
}
