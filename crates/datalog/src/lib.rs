//! # pgq-datalog
//!
//! A stratified Datalog engine with semi-naive evaluation, plus a
//! compiler from FO\[TC\] into *linear* stratified Datalog.
//!
//! This is the executable form of the paper's NL calibration (Section
//! 4.1): NL "corresponds to Datalog's capabilities on CRPQs, as well as
//! SQL's `WITH RECURSIVE`, which supports linear recursion". The crate
//! provides:
//!
//! * classical stratified Datalog with negation ([`ast`], [`mod@stratify`],
//!   [`eval`]) over the same [`pgq_relational::Database`] the rest of
//!   the workspace uses, with terms shared with the logic crate
//!   ([`pgq_logic::Term`]); the semi-naive engine fires each rule as a
//!   `pgq_logic` formula, so it runs on the physical executor;
//! * a naive reference evaluator ([`eval_naive`]) with its own
//!   nested-loop join, for differential testing of the semi-naive
//!   engine;
//! * the FO\[TC\] → Datalog bridge ([`bridge`]): a third implementation
//!   of the paper's logic side — an independent translation whose
//!   programs run on either engine — property-tested against both
//!   `pgq-logic` evaluators. Every compiled program is stratified
//!   and at most *linearly* recursive — mechanical evidence that
//!   FO\[TC\] (and hence `PGQext`, by Corollary 6.3) fits inside the
//!   `WITH RECURSIVE` fragment the paper uses as its NL benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod bridge;
pub mod eval;
pub mod eval_naive;
mod parse;
pub mod stratify;

pub use ast::{Atom, Literal, Program, ProgramError, Rule, ADOM};
pub use bridge::{compile_formula, subst_consts, BridgeError, CompiledFormula};
pub use eval::{evaluate, query, reachability_program, EvalError, Model};
pub use eval_naive::evaluate_naive;
pub use parse::{parse_program, ParseError};
pub use stratify::{classify_recursion, stratify, Recursion, Stratification};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use pgq_logic::eval_ordered;
    use pgq_logic::testgen::{arb_database, arb_formula};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The FO[TC]→Datalog bridge agrees with the logic crate's
        /// plan evaluator on random formulas and databases.
        #[test]
        fn bridge_matches_logic_evaluator(
            phi in arb_formula(2),
            db in arb_database(),
        ) {
            let compiled = compile_formula(&phi).unwrap();
            let model = evaluate(&compiled.program, &db).unwrap();
            let got = model.get(&compiled.goal).unwrap();
            let want = eval_ordered(&phi, &compiled.head_vars, &db).unwrap();
            prop_assert_eq!(got, &want, "formula: {:?}", phi);
        }

        /// Semi-naive (executor) and naive (nested-loop) evaluation
        /// produce identical models on the (deeply stratified,
        /// recursive) programs the bridge emits.
        #[test]
        fn semi_naive_matches_naive(
            phi in arb_formula(2),
            db in arb_database(),
        ) {
            let compiled = compile_formula(&phi).unwrap();
            let fast = evaluate(&compiled.program, &db).unwrap();
            let slow = evaluate_naive(&compiled.program, &db).unwrap();
            prop_assert_eq!(fast, slow);
        }

        /// Bridge programs stay within linear recursion (the WITH
        /// RECURSIVE fragment): never `Recursion::NonLinear`.
        #[test]
        fn bridge_programs_are_linear(phi in arb_formula(3)) {
            let compiled = compile_formula(&phi).unwrap();
            prop_assert!(stratify(&compiled.program).is_ok());
            let rec = classify_recursion(&compiled.program);
            prop_assert!(rec != Recursion::NonLinear, "got {:?}", rec);
        }
    }
}
