//! # pgq-graph
//!
//! The property graph model (Definition 2.1) with `n`-ary identifiers
//! (Definition 5.1), and the graph view constructors `pgView`,
//! `pgView=n`, `pgView_n` and `pgView_ext` (Definitions 3.2 and 5.2/5.3)
//! with full structural validation.
//!
//! Substrate S3 of the reproduction; see DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mixed;
pub mod model;
pub mod updates;
pub mod view;

pub use mixed::{pg_view_mixed, MixedViewRelations};
pub use model::{BuildError, ElementId, PropertyGraph, PropertyGraphBuilder};
pub use updates::{apply, apply_all, relations_of, Update, UpdateError};
pub use view::{
    pg_view, pg_view_bounded, pg_view_exact, pg_view_ext, shape, ViewError, ViewMode, ViewRelations,
};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use pgq_relational::Relation;
    use pgq_value::{Tuple, Value};
    use proptest::prelude::*;

    /// Generates six relations that *by construction* satisfy the view
    /// conditions: nodes 0..n, edges n..n+m with endpoints among nodes.
    fn arb_valid_view() -> impl Strategy<Value = ViewRelations> {
        (1usize..6, 0usize..8).prop_flat_map(|(n, m)| {
            let node_ids: Vec<i64> = (0..n as i64).collect();
            prop::collection::vec((0..n, 0..n), m).prop_map(move |endpoints| {
                let nodes = Relation::unary(node_ids.clone());
                let mut edges = Relation::empty(1);
                let mut src = Relation::empty(2);
                let mut tgt = Relation::empty(2);
                for (i, (s, t)) in endpoints.iter().enumerate() {
                    let eid = Value::int(1000 + i as i64);
                    edges.insert(Tuple::unary(eid.clone())).unwrap();
                    src.insert(Tuple::new(vec![eid.clone(), Value::int(*s as i64)]))
                        .unwrap();
                    tgt.insert(Tuple::new(vec![eid, Value::int(*t as i64)]))
                        .unwrap();
                }
                ViewRelations::bare(nodes, edges, src, tgt)
            })
        })
    }

    proptest! {
        #[test]
        fn valid_views_always_build(rels in arb_valid_view()) {
            let g = pg_view(&rels).unwrap();
            prop_assert_eq!(g.node_count(), rels.nodes.len());
            prop_assert_eq!(g.edge_count(), rels.edges.len());
            // Every edge has both endpoints among the nodes.
            for e in g.edges() {
                prop_assert!(g.is_node(g.src(e).unwrap()));
                prop_assert!(g.is_node(g.tgt(e).unwrap()));
            }
        }

        #[test]
        fn lenient_is_identity_on_valid_views(rels in arb_valid_view()) {
            let strict = pg_view_exact(1, &rels, ViewMode::Strict).unwrap();
            let lenient = pg_view_exact(1, &rels, ViewMode::Lenient).unwrap();
            prop_assert_eq!(strict, lenient);
        }

        #[test]
        fn lenient_never_fails_on_corrupted_views(
            rels in arb_valid_view(),
            extra in (0i64..2000, 0i64..2000),
        ) {
            // Corrupt: add a dangling src row.
            let mut bad = rels;
            bad.src
                .insert(Tuple::new(vec![Value::int(extra.0), Value::int(extra.1)]))
                .unwrap();
            let g = pg_view_exact(1, &bad, ViewMode::Lenient);
            prop_assert!(g.is_ok());
        }

        #[test]
        fn out_edges_partition_edge_set(rels in arb_valid_view()) {
            let g = pg_view(&rels).unwrap();
            let total: usize = g.nodes().map(|n| g.out_edges(n).len()).sum();
            prop_assert_eq!(total, g.edge_count());
            let total_in: usize = g.nodes().map(|n| g.in_edges(n).len()).sum();
            prop_assert_eq!(total_in, g.edge_count());
        }
    }
}
