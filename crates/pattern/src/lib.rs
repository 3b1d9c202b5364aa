//! # pgq-pattern
//!
//! The pattern-matching layer of SQL/PGQ (Sections 2.2–2.3 and
//! Appendix 9.1 of the paper): pattern syntax (Figure 1), endpoint
//! semantics (Figure 2), path semantics (Figure 6), output patterns, and
//! an optimized NFA/product-graph engine.
//!
//! Substrate S4 of the reproduction; see DESIGN.md. Experiment E2 checks
//! Proposition 9.1 (`π_end(⟦ψ⟧^path) = ⟦ψ⟧`) and engine agreement by
//! property testing (see the `prop_tests` module and `tests/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod binding;
pub mod condition;
pub mod eval_endpoint;
pub mod eval_path;
pub mod nfa;
pub mod output;

pub use ast::{Direction, Pattern, PatternError, RepBound};
pub use binding::Binding;
pub use condition::Condition;
pub use eval_endpoint::{endpoint_pairs, eval_pattern, MatchSet, MatchTriple, PairSet};
pub use eval_path::{
    eval_pattern_paths, eval_pattern_paths_limited, project_endpoints, Path, PathEvalError,
    PathLimits, PathMatchSet,
};
pub use nfa::{try_eval_pairs, Nfa, Unsupported};
pub use output::{OutputError, OutputItem, OutputPattern};

/// Proptest generators shared by this crate's property tests and by
/// integration tests in other crates (enable the `testgen` feature).
#[cfg(any(test, feature = "testgen"))]
pub mod testgen {
    use super::*;
    use pgq_graph::{PropertyGraph, PropertyGraphBuilder};
    use pgq_relational::CmpOp;
    use proptest::prelude::*;

    /// A small random unary property graph with labels `L0/L1` and an
    /// integer property `w` on every edge.
    pub fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
        (1usize..6, 0usize..10).prop_flat_map(|(n, m)| {
            proptest::collection::vec((0..n, 0..n, 0i64..4, prop::bool::ANY), m).prop_map(
                move |edges| {
                    let mut b = PropertyGraphBuilder::unary();
                    for i in 0..n {
                        b.node1(i as i64).unwrap();
                        if i % 2 == 0 {
                            b.label(pgq_value::Tuple::unary(i as i64), "L0").unwrap();
                        }
                    }
                    for (k, (s, t, w, lab)) in edges.into_iter().enumerate() {
                        let eid = 1000 + k as i64;
                        b.edge1(eid, s as i64, t as i64).unwrap();
                        b.prop(pgq_value::Tuple::unary(eid), "w", w).unwrap();
                        if lab {
                            b.label(pgq_value::Tuple::unary(eid), "L1").unwrap();
                        }
                    }
                    b.finish()
                },
            )
        })
    }

    /// Patterns in the NFA-supported fragment (distinct variables, local
    /// filters only). `depth` bounds the AST height.
    pub fn arb_nfa_pattern(depth: u32) -> impl Strategy<Value = Pattern> {
        let ctr = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        arb_nfa_pattern_inner(depth, ctr)
    }

    fn fresh_var(ctr: &std::sync::Arc<std::sync::atomic::AtomicUsize>) -> pgq_value::Var {
        let n = ctr.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        pgq_value::Var::new(format!("v{n}"))
    }

    fn arb_nfa_pattern_inner(
        depth: u32,
        ctr: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    ) -> BoxedStrategy<Pattern> {
        let c1 = ctr.clone();
        let c2 = ctr.clone();
        let c3 = ctr.clone();
        let leaf = prop_oneof![
            Just(Pattern::any_node()),
            Just(Pattern::any_edge()),
            Just(Pattern::any_edge_back()),
            // Labeled-edge atom with a local filter.
            (0i64..4, prop::bool::ANY).prop_map(move |(w, use_label)| {
                let v = fresh_var(&c1);
                let cond = if use_label {
                    Condition::has_label(v.clone(), "L1")
                } else {
                    Condition::prop_cmp(v.clone(), "w", CmpOp::Ge, w)
                };
                Pattern::Edge(Some(v), Direction::Forward).filter(cond)
            }),
            Just(()).prop_map(move |()| {
                let v = fresh_var(&c2);
                let cond = Condition::has_label(v.clone(), "L0");
                Pattern::Node(Some(v)).filter(cond)
            }),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let sub = arb_nfa_pattern_inner(depth - 1, c3);
        let sub2 = sub.clone();
        prop_oneof![
            4 => leaf,
            2 => (sub.clone(), sub2.clone()).prop_map(|(a, b)| a.then(b)),
            1 => sub.clone().prop_map(|p| {
                // Union branches must have equal fv; anonymize to be safe.
                let q = strip_vars(&p);
                strip_vars(&p).or(q)
            }),
            1 => (sub.clone(), 0usize..3, 0usize..3).prop_map(|(p, n, extra)| {
                p.repeat(n, n + extra)
            }),
            1 => sub.prop_map(|p| p.repeat_at_least(1)),
        ]
        .boxed()
    }

    /// The patterns of [`arb_bounded_output`]: variables drawn from a
    /// pool of three, so they repeat across atoms, and filter atoms on
    /// variables the filtered pattern may not bind.
    fn arb_bounded_pattern(
        depth: u32,
        labels: [&'static str; 2],
        keys: [&'static str; 2],
    ) -> BoxedStrategy<Pattern> {
        // Index 3 is the anonymous atom.
        let var = (0usize..4).prop_map(|i| (i < 3).then(|| pool_var(i)));
        let leaf = prop_oneof![
            var.clone().prop_map(Pattern::Node),
            (var, prop::bool::ANY).prop_map(|(v, forward)| {
                let dir = if forward {
                    Direction::Forward
                } else {
                    Direction::Backward
                };
                Pattern::Edge(v, dir)
            }),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let sub = arb_bounded_pattern(depth - 1, labels, keys);
        prop_oneof![
            2 => leaf,
            3 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a.then(b)),
            // The mirror image binds the same variables.
            1 => sub.clone().prop_map(|p| {
                let mirror = reversed(&p);
                p.or(mirror)
            }),
            2 => (sub.clone(), arb_condition(2, labels, keys)).prop_map(|(p, c)| p.filter(c)),
            // Bounds from small to far past any generated graph's node
            // count, and unbounded: `*`, `+` and `{n,∞}`.
            2 => (sub, 0usize..3, 0usize..5).prop_map(|(p, n, upper)| match upper {
                0 | 1 => p.repeat(n, n + upper),
                2 => p.repeat_at_least(n),
                3 => p.repeat(n, n + 20),
                _ => p.repeat(n + 20, n + 20),
            }),
        ]
        .boxed()
    }

    fn pool_var(i: usize) -> pgq_value::Var {
        pgq_value::Var::new(["a", "b", "c"][i])
    }

    /// Conditions over the variable pool of [`arb_bounded_pattern`]:
    /// label tests, constant comparisons, cross-variable property
    /// equalities and their Boolean combinations.
    fn arb_condition(
        depth: u32,
        labels: [&'static str; 2],
        keys: [&'static str; 2],
    ) -> BoxedStrategy<Condition> {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let var = (0usize..3).prop_map(pool_var);
        let atom = prop_oneof![
            (var.clone(), 0usize..2).prop_map(move |(x, l)| Condition::has_label(x, labels[l])),
            (var.clone(), 0usize..2, 0usize..6, 0i64..5)
                .prop_map(move |(x, k, op, c)| Condition::prop_cmp(x, keys[k], OPS[op], c)),
            (var.clone(), 0usize..2, var, 0usize..2)
                .prop_map(move |(x, kx, y, ky)| Condition::prop_eq(x, keys[kx], y, keys[ky])),
        ];
        if depth == 0 {
            return atom.boxed();
        }
        let sub = arb_condition(depth - 1, labels, keys);
        prop_oneof![
            3 => atom,
            1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a.and(b)),
            1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a.or(b)),
            1 => sub.prop_map(Condition::not),
        ]
        .boxed()
    }

    /// Random output patterns beyond the NFA's fragment: a
    /// repetition-free or finitely-bounded pattern of height ≤ `depth`
    /// with repeated variables, backward edges and `∨`/`¬`/cross-atom
    /// filters over whole sub-patterns, under up to three distinct items
    /// of its free variables — identifiers, component 0, properties
    /// under `keys` — or none, a Boolean output. `labels` and `keys` are
    /// the graph's vocabulary.
    pub fn arb_bounded_output(
        depth: u32,
        labels: [&'static str; 2],
        keys: [&'static str; 2],
    ) -> BoxedStrategy<OutputPattern> {
        let items = proptest::collection::vec((0usize..3, 0usize..3, 0usize..2), 0..4);
        (arb_bounded_pattern(depth, labels, keys), items)
            .prop_map(move |(p, picks)| {
                let fv: Vec<_> = p.free_vars().into_iter().collect();
                let mut items = Vec::new();
                for (kind, v, key) in picks.into_iter().filter(|_| !fv.is_empty()) {
                    let x = fv[v % fv.len()].clone();
                    let item = match kind {
                        0 => OutputItem::Var(x),
                        1 => OutputItem::Component(x, 0),
                        _ => OutputItem::Prop(x, keys[key].into()),
                    };
                    if !items.contains(&item) {
                        items.push(item);
                    }
                }
                OutputPattern::new(p, items).expect("distinct items of free variables")
            })
            .boxed()
    }

    /// The pattern with every edge atom turned around. It binds the same
    /// variables, so it can be a union operand beside the original.
    fn reversed(p: &Pattern) -> Pattern {
        match p {
            Pattern::Node(v) => Pattern::Node(v.clone()),
            Pattern::Edge(v, d) => {
                let flipped = match d {
                    Direction::Forward => Direction::Backward,
                    Direction::Backward => Direction::Forward,
                };
                Pattern::Edge(v.clone(), flipped)
            }
            Pattern::Concat(a, b) => reversed(a).then(reversed(b)),
            Pattern::Union(a, b) => reversed(a).or(reversed(b)),
            Pattern::Repeat(q, n, m) => Pattern::Repeat(Box::new(reversed(q)), *n, *m),
            Pattern::Filter(q, c) => reversed(q).filter(c.clone()),
        }
    }

    /// Replaces every variable with `None` (and drops filters, whose
    /// conditions would dangle), producing an equal-fv pattern for union.
    pub fn strip_vars(p: &Pattern) -> Pattern {
        match p {
            Pattern::Node(_) => Pattern::Node(None),
            Pattern::Edge(_, d) => Pattern::Edge(None, *d),
            Pattern::Concat(a, b) => strip_vars(a).then(strip_vars(b)),
            Pattern::Union(a, b) => strip_vars(a).or(strip_vars(b)),
            Pattern::Repeat(q, n, m) => Pattern::Repeat(Box::new(strip_vars(q)), *n, *m),
            Pattern::Filter(q, _) => strip_vars(q),
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::testgen::*;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Proposition 9.1: π_end(⟦ψ⟧^path) = ⟦ψ⟧ (experiment E2).
        /// Samples that blow the Figure 6 evaluator's path-materialization
        /// budget are skipped — the bound is an explicit resource guard,
        /// not a semantic failure (see `eval_path` docs).
        #[test]
        fn endpoint_path_equivalence(g in arb_graph(), p in arb_nfa_pattern(2)) {
            let endpoint = eval_pattern(&p, &g).unwrap();
            let limits = PathLimits { max_paths: 20_000 };
            match eval_pattern_paths_limited(&p, &g, limits) {
                Ok(paths) => prop_assert_eq!(project_endpoints(&paths), endpoint),
                Err(PathEvalError::PathExplosion { .. }) => {}
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }

        /// NFA engine agrees with the reference evaluator on the
        /// supported fragment (experiment E2).
        #[test]
        fn nfa_agrees_with_reference(g in arb_graph(), p in arb_nfa_pattern(3)) {
            let reference = endpoint_pairs(&eval_pattern(&p, &g).unwrap());
            match try_eval_pairs(&p, &g) {
                Ok(fast) => prop_assert_eq!(reference, fast),
                Err(e) => prop_assert!(false, "generator produced unsupported pattern: {e}"),
            }
        }

        /// Endpoint pairs are invariant under variable renaming/stripping
        /// (variables only affect mappings) — for filter-free patterns.
        #[test]
        fn endpoint_pairs_ignore_variable_names(g in arb_graph(), p in arb_nfa_pattern(2)) {
            let has_filter = matches!(&p, Pattern::Filter(..)) || format!("{p}").contains('⟨');
            if !has_filter {
                let original = endpoint_pairs(&eval_pattern(&p, &g).unwrap());
                let stripped = endpoint_pairs(&eval_pattern(&testgen::strip_vars(&p), &g).unwrap());
                prop_assert_eq!(original, stripped);
            }
        }

        /// Kleene star always contains the reflexive pairs on all nodes.
        #[test]
        fn star_contains_identity(g in arb_graph(), p in arb_nfa_pattern(1)) {
            let star = eval_pattern(&Pattern::Repeat(Box::new(p), 0, RepBound::Infinite), &g).unwrap();
            let pairs = endpoint_pairs(&star);
            for n in g.nodes() {
                prop_assert!(pairs.contains(&(n.clone(), n.clone())));
            }
        }

        /// ψ^{n..m} ⊆ ψ^{n..m+1} ⊆ ψ^{n..∞} (monotonicity in the bound).
        #[test]
        fn repetition_monotone_in_upper_bound(
            g in arb_graph(),
            p in arb_nfa_pattern(1),
            n in 0usize..3,
            m_extra in 0usize..3,
        ) {
            let m = n + m_extra;
            let bounded = endpoint_pairs(&eval_pattern(&p.clone().repeat(n, m), &g).unwrap());
            let bigger = endpoint_pairs(&eval_pattern(&p.clone().repeat(n, m + 1), &g).unwrap());
            let unbounded = endpoint_pairs(&eval_pattern(&p.repeat_at_least(n), &g).unwrap());
            prop_assert!(bounded.is_subset(&bigger));
            prop_assert!(bigger.is_subset(&unbounded));
        }
    }
}
