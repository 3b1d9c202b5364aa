//! Updates on tabular property graphs (Section 7, "Updates").
//!
//! The paper omits update operations from the formal core and argues
//! this loses no generality: "any change can be simulated by rebuilding
//! the six base relations and reapplying `pgView`". This module makes
//! that simulation executable: an [`Update`] edits the canonical
//! relations `(R1, …, R6)`, validation is delegated to the unchanged
//! `pgView`, and [`relations_of`] closes the loop by extracting the
//! canonical relations back out of a constructed graph (the inverse of
//! `pg_view`, tested as a round trip).
//!
//! Semantics choices, documented because the paper leaves them open:
//!
//! * [`Update::RemoveNode`] refuses to orphan edges (the resulting
//!   relations would flunk `pgView`'s totality check anyway — condition
//!   (2) of Definition 3.1); [`Update::DetachRemoveNode`] cascades to
//!   incident edges, Cypher's `DETACH DELETE`.
//! * [`Update::SetProp`] overwrites an existing value for the same key,
//!   keeping `R6` a partial function (condition (4)).
//! * All edits validate element existence eagerly, so a failed update
//!   leaves the relations untouched (apply is transactional per update;
//!   [`apply_all`] is transactional per batch — it works on a clone).

use crate::model::{ElementId, PropertyGraph};
use crate::view::{pg_view_ext, ViewError, ViewMode, ViewRelations};
use pgq_relational::Relation;
use pgq_value::{Key, Label, Tuple, Value};
use std::fmt;

/// One update against the canonical relations of a property graph view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Update {
    /// Insert a node identifier into `R1`.
    AddNode(ElementId),
    /// Remove a node from `R1`; fails if any edge is incident.
    RemoveNode(ElementId),
    /// Remove a node and all incident edges (with their labels and
    /// properties) — Cypher's `DETACH DELETE`.
    DetachRemoveNode(ElementId),
    /// Insert an edge: identifier into `R2`, endpoints into `R3`/`R4`.
    AddEdge {
        /// The edge identifier.
        id: ElementId,
        /// Source node (must exist in `R1`).
        src: ElementId,
        /// Target node (must exist in `R1`).
        tgt: ElementId,
    },
    /// Remove an edge with its labels and properties.
    RemoveEdge(ElementId),
    /// Attach a label to an existing element (`R5`).
    AddLabel(ElementId, Label),
    /// Detach a label (no-op if absent).
    RemoveLabel(ElementId, Label),
    /// Set a property value, overwriting any previous value for the key
    /// (`R6` stays functional).
    SetProp(ElementId, Key, Value),
    /// Remove a property (no-op if absent).
    RemoveProp(ElementId, Key),
}

/// Update failures. Structural failures mirror the `pgView` conditions
/// they would otherwise trip downstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The identifier already names a node or an edge (condition (1)).
    IdInUse(ElementId),
    /// The element does not exist.
    NoSuchElement(ElementId),
    /// An `AddEdge` endpoint is not a node (condition (2)).
    DanglingEndpoint(ElementId),
    /// `RemoveNode` on a node with incident edges (use
    /// [`Update::DetachRemoveNode`]).
    NodeHasEdges(ElementId),
    /// The identifier's arity differs from the view's.
    ArityMismatch {
        /// Expected identifier arity.
        expected: usize,
        /// Arity of the offending identifier.
        found: usize,
    },
    /// Re-validation after the edit failed (should be unreachable for
    /// edits on valid relations; surfaced for defense in depth).
    View(ViewError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::IdInUse(id) => write!(f, "identifier {id} already in use"),
            UpdateError::NoSuchElement(id) => write!(f, "no element {id}"),
            UpdateError::DanglingEndpoint(id) => write!(f, "endpoint {id} is not a node"),
            UpdateError::NodeHasEdges(id) => {
                write!(f, "node {id} has incident edges (use DetachRemoveNode)")
            }
            UpdateError::ArityMismatch { expected, found } => {
                write!(f, "identifier arity {found}, view has {expected}")
            }
            UpdateError::View(e) => write!(f, "updated relations invalid: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<ViewError> for UpdateError {
    fn from(e: ViewError) -> Self {
        UpdateError::View(e)
    }
}

/// Extract the canonical relations `(R1, …, R6)` out of a property
/// graph — the inverse of `pg_view` (round-trip-tested below). This is
/// what makes the paper's "rebuild and reapply" simulation total: any
/// graph, however obtained, can re-enter the relational layer.
pub fn relations_of(g: &PropertyGraph) -> ViewRelations {
    let [mut nodes, mut edges, mut src, mut tgt, mut labels, mut props] =
        crate::view::shape(g.id_arity()).map(Relation::empty);
    for n in g.nodes() {
        nodes.insert(n.clone()).expect("arity k");
    }
    for e in g.edges() {
        edges.insert(e.clone()).expect("arity k");
        src.insert(e.concat(g.src(e).expect("total")))
            .expect("arity 2k");
        tgt.insert(e.concat(g.tgt(e).expect("total")))
            .expect("arity 2k");
    }
    for id in g.nodes().chain(g.edges()) {
        for l in g.labels(id) {
            labels
                .insert(id.concat(&Tuple::unary(l.clone())))
                .expect("arity k+1");
        }
        for (key, value) in g.props_of(id) {
            props
                .insert(id.concat(&Tuple::new(vec![key.clone(), value.clone()])))
                .expect("arity k+2");
        }
    }
    ViewRelations::new(nodes, edges, src, tgt, labels, props)
}

/// Apply one update to canonical relations, in place.
pub fn apply(rels: &mut ViewRelations, update: &Update) -> Result<(), UpdateError> {
    let k = rels.nodes.arity();
    let check_arity = |id: &ElementId| -> Result<(), UpdateError> {
        if id.arity() == k {
            Ok(())
        } else {
            Err(UpdateError::ArityMismatch {
                expected: k,
                found: id.arity(),
            })
        }
    };
    match update {
        Update::AddNode(id) => {
            check_arity(id)?;
            if rels.nodes.contains(id) || rels.edges.contains(id) {
                return Err(UpdateError::IdInUse(id.clone()));
            }
            rels.nodes.insert(id.clone()).expect("arity checked");
        }
        Update::RemoveNode(id) => {
            check_arity(id)?;
            if !rels.nodes.contains(id) {
                return Err(UpdateError::NoSuchElement(id.clone()));
            }
            if endpoint_edges(rels, id, k).next().is_some() {
                return Err(UpdateError::NodeHasEdges(id.clone()));
            }
            rels.nodes = without(&rels.nodes, id, k);
            strip_annotations(rels, id, k);
        }
        Update::DetachRemoveNode(id) => {
            check_arity(id)?;
            if !rels.nodes.contains(id) {
                return Err(UpdateError::NoSuchElement(id.clone()));
            }
            // BTreeSet: a self-loop shows up in both the R3 and the R4
            // scan and must be removed exactly once.
            let incident: std::collections::BTreeSet<ElementId> =
                endpoint_edges(rels, id, k).collect();
            for e in &incident {
                apply(rels, &Update::RemoveEdge(e.clone()))?;
            }
            rels.nodes = without(&rels.nodes, id, k);
            strip_annotations(rels, id, k);
        }
        Update::AddEdge { id, src, tgt } => {
            check_arity(id)?;
            check_arity(src)?;
            check_arity(tgt)?;
            if rels.nodes.contains(id) || rels.edges.contains(id) {
                return Err(UpdateError::IdInUse(id.clone()));
            }
            if !rels.nodes.contains(src) {
                return Err(UpdateError::DanglingEndpoint(src.clone()));
            }
            if !rels.nodes.contains(tgt) {
                return Err(UpdateError::DanglingEndpoint(tgt.clone()));
            }
            rels.edges.insert(id.clone()).expect("arity checked");
            rels.src.insert(id.concat(src)).expect("arity 2k");
            rels.tgt.insert(id.concat(tgt)).expect("arity 2k");
        }
        Update::RemoveEdge(id) => {
            check_arity(id)?;
            if !rels.edges.contains(id) {
                return Err(UpdateError::NoSuchElement(id.clone()));
            }
            rels.edges = without(&rels.edges, id, k);
            rels.src = rels.src.select(|t| !prefix_is(t, id, k));
            rels.tgt = rels.tgt.select(|t| !prefix_is(t, id, k));
            strip_annotations(rels, id, k);
        }
        Update::AddLabel(id, l) => {
            check_arity(id)?;
            if !rels.nodes.contains(id) && !rels.edges.contains(id) {
                return Err(UpdateError::NoSuchElement(id.clone()));
            }
            rels.labels
                .insert(id.concat(&Tuple::unary(l.clone())))
                .expect("arity k+1");
        }
        Update::RemoveLabel(id, l) => {
            check_arity(id)?;
            if !rels.nodes.contains(id) && !rels.edges.contains(id) {
                return Err(UpdateError::NoSuchElement(id.clone()));
            }
            let row = id.concat(&Tuple::unary(l.clone()));
            rels.labels = rels.labels.select(|t| *t != row);
        }
        Update::SetProp(id, key, value) => {
            check_arity(id)?;
            if !rels.nodes.contains(id) && !rels.edges.contains(id) {
                return Err(UpdateError::NoSuchElement(id.clone()));
            }
            // Overwrite: drop any existing row for (id, key) first.
            rels.props = rels
                .props
                .select(|t| !(prefix_is(t, id, k) && t.get(k) == Some(key)));
            rels.props
                .insert(id.concat(&Tuple::new(vec![key.clone(), value.clone()])))
                .expect("arity k+2");
        }
        Update::RemoveProp(id, key) => {
            check_arity(id)?;
            if !rels.nodes.contains(id) && !rels.edges.contains(id) {
                return Err(UpdateError::NoSuchElement(id.clone()));
            }
            rels.props = rels
                .props
                .select(|t| !(prefix_is(t, id, k) && t.get(k) == Some(key)));
        }
    }
    Ok(())
}

/// Apply a batch of updates to a copy of the relations, then rebuild the
/// graph with `pgView_ext` — the paper's simulation, end to end. The
/// input relations are untouched on error.
pub fn apply_all(
    rels: &ViewRelations,
    updates: &[Update],
) -> Result<(ViewRelations, PropertyGraph), UpdateError> {
    let mut next = rels.clone();
    for u in updates {
        apply(&mut next, u)?;
    }
    let g = pg_view_ext(&next, ViewMode::Strict)?;
    Ok((next, g))
}

/// Edges whose source or target is `id` (scans `R3 ∪ R4` suffixes).
fn endpoint_edges<'a>(
    rels: &'a ViewRelations,
    id: &'a ElementId,
    k: usize,
) -> impl Iterator<Item = ElementId> + 'a {
    rels.src
        .iter()
        .chain(rels.tgt.iter())
        .filter(move |t| suffix_is(t, id, k))
        .map(move |t| t.project(&(0..k).collect::<Vec<_>>()).expect("arity 2k"))
}

fn prefix_is(t: &Tuple, id: &ElementId, k: usize) -> bool {
    (0..k).all(|i| t.get(i) == id.get(i))
}

fn suffix_is(t: &Tuple, id: &ElementId, k: usize) -> bool {
    (0..k).all(|i| t.get(k + i) == id.get(i))
}

fn without(rel: &Relation, id: &ElementId, _k: usize) -> Relation {
    rel.select(|t| t != id)
}

/// Drop all label and property rows of `id`.
fn strip_annotations(rels: &mut ViewRelations, id: &ElementId, k: usize) {
    rels.labels = rels.labels.select(|t| !prefix_is(t, id, k));
    rels.props = rels.props.select(|t| !prefix_is(t, id, k));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PropertyGraphBuilder;
    use crate::view::pg_view;

    fn nid(i: i64) -> ElementId {
        Tuple::unary(Value::int(i))
    }

    fn base() -> ViewRelations {
        let mut b = PropertyGraphBuilder::unary();
        b.node1(Value::int(0)).unwrap();
        b.node1(Value::int(1)).unwrap();
        b.edge1(Value::int(100), Value::int(0), Value::int(1))
            .unwrap();
        b.label(nid(100), Value::str("knows")).unwrap();
        b.prop(nid(0), Value::str("name"), Value::str("ada"))
            .unwrap();
        relations_of(&b.finish())
    }

    #[test]
    fn relations_of_pg_view_round_trips() {
        let rels = base();
        let g = pg_view(&rels).unwrap();
        let back = relations_of(&g);
        assert_eq!(back.nodes, rels.nodes);
        assert_eq!(back.edges, rels.edges);
        assert_eq!(back.src, rels.src);
        assert_eq!(back.tgt, rels.tgt);
        assert_eq!(back.labels, rels.labels);
        assert_eq!(back.props, rels.props);
    }

    #[test]
    fn add_node_then_edge() {
        let rels = base();
        let (_, g) = apply_all(
            &rels,
            &[
                Update::AddNode(nid(2)),
                Update::AddEdge {
                    id: nid(101),
                    src: nid(1),
                    tgt: nid(2),
                },
            ],
        )
        .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.tgt(&nid(101)), Some(&nid(2)));
    }

    #[test]
    fn remove_node_refuses_incident_edges() {
        let rels = base();
        let e = apply_all(&rels, &[Update::RemoveNode(nid(0))]).unwrap_err();
        assert!(matches!(e, UpdateError::NodeHasEdges(_)));
    }

    #[test]
    fn detach_remove_cascades() {
        let rels = base();
        let (next, g) = apply_all(&rels, &[Update::DetachRemoveNode(nid(0))]).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        // The edge's label rows are gone too.
        assert!(next.labels.is_empty());
        // Node 0's property rows are gone.
        assert!(next.props.is_empty());
    }

    #[test]
    fn id_disjointness_enforced() {
        let rels = base();
        // A node id equal to an existing edge id violates condition (1).
        let e = apply_all(&rels, &[Update::AddNode(nid(100))]).unwrap_err();
        assert!(matches!(e, UpdateError::IdInUse(_)));
        // And vice versa.
        let e = apply_all(
            &rels,
            &[Update::AddEdge {
                id: nid(0),
                src: nid(0),
                tgt: nid(1),
            }],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::IdInUse(_)));
    }

    #[test]
    fn dangling_endpoint_rejected() {
        let rels = base();
        let e = apply_all(
            &rels,
            &[Update::AddEdge {
                id: nid(101),
                src: nid(0),
                tgt: nid(9),
            }],
        )
        .unwrap_err();
        assert!(matches!(e, UpdateError::DanglingEndpoint(_)));
    }

    #[test]
    fn set_prop_overwrites_keeping_r6_functional() {
        let rels = base();
        let (next, g) = apply_all(
            &rels,
            &[
                Update::SetProp(nid(0), Value::str("name"), Value::str("grace")),
                Update::SetProp(nid(0), Value::str("age"), Value::int(36)),
            ],
        )
        .unwrap();
        assert_eq!(
            g.prop(&nid(0), &Value::str("name")),
            Some(&Value::str("grace"))
        );
        assert_eq!(g.prop(&nid(0), &Value::str("age")), Some(&Value::int(36)));
        // Exactly one row per (id, key).
        assert_eq!(next.props.len(), 2);
    }

    #[test]
    fn remove_label_and_prop_are_idempotent() {
        let rels = base();
        let (_, g) = apply_all(
            &rels,
            &[
                Update::RemoveLabel(nid(100), Value::str("knows")),
                Update::RemoveLabel(nid(100), Value::str("knows")),
                Update::RemoveProp(nid(0), Value::str("name")),
                Update::RemoveProp(nid(0), Value::str("name")),
            ],
        )
        .unwrap();
        assert!(!g.has_label(&nid(100), &Value::str("knows")));
        assert_eq!(g.prop(&nid(0), &Value::str("name")), None);
    }

    #[test]
    fn failed_batch_leaves_input_untouched() {
        let rels = base();
        let before = rels.clone();
        let _ = apply_all(
            &rels,
            &[Update::AddNode(nid(7)), Update::RemoveNode(nid(99))],
        )
        .unwrap_err();
        assert_eq!(rels.nodes, before.nodes);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let rels = base();
        let wide = Tuple::new(vec![Value::int(1), Value::int(2)]);
        let e = apply_all(&rels, &[Update::AddNode(wide)]).unwrap_err();
        assert!(matches!(e, UpdateError::ArityMismatch { .. }));
    }

    /// Fuzz: whatever subsequence of random updates is *accepted*, the
    /// resulting relations always pass strict `pgView` validation — an
    /// accepted update can never corrupt the view.
    #[test]
    fn accepted_updates_preserve_view_validity() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;

        let cmd = (0u8..9, 0i64..6, 0i64..6, 0i64..6).prop_map(|(op, a, b, c)| match op {
            0 => Update::AddNode(nid(a)),
            1 => Update::RemoveNode(nid(a)),
            2 => Update::DetachRemoveNode(nid(a)),
            3 => Update::AddEdge {
                id: nid(100 + a),
                src: nid(b),
                tgt: nid(c),
            },
            4 => Update::RemoveEdge(nid(100 + a)),
            5 => Update::AddLabel(nid(a), Value::int(b)),
            6 => Update::RemoveLabel(nid(a), Value::int(b)),
            7 => Update::SetProp(nid(a), Value::int(b), Value::int(c)),
            _ => Update::RemoveProp(nid(a), Value::int(b)),
        });
        let seq = proptest::collection::vec(cmd, 0..40);
        let mut runner = TestRunner::default();
        runner
            .run(&seq, |updates| {
                let mut rels = base();
                for u in &updates {
                    let before = rels.clone();
                    match apply(&mut rels, u) {
                        Ok(()) => {
                            prop_assert!(
                                pg_view_ext(&rels, ViewMode::Strict).is_ok(),
                                "update {u:?} corrupted the view"
                            );
                        }
                        Err(_) => {
                            // Failed updates must not have mutated anything.
                            prop_assert_eq!(&rels.nodes, &before.nodes);
                            prop_assert_eq!(&rels.edges, &before.edges);
                            prop_assert_eq!(&rels.src, &before.src);
                            prop_assert_eq!(&rels.tgt, &before.tgt);
                            prop_assert_eq!(&rels.labels, &before.labels);
                            prop_assert_eq!(&rels.props, &before.props);
                        }
                    }
                }
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn composite_identifier_updates() {
        // Arity-2 identifiers (Definition 5.1): same machinery.
        let mut b = PropertyGraphBuilder::new(2);
        let n0 = Tuple::new(vec![Value::str("hu"), Value::int(1)]);
        let n1 = Tuple::new(vec![Value::str("hu"), Value::int(2)]);
        b.node(n0.clone()).unwrap();
        b.node(n1.clone()).unwrap();
        let rels = relations_of(&b.finish());
        let eid = Tuple::new(vec![Value::str("t"), Value::int(9)]);
        let (_, g) = apply_all(
            &rels,
            &[Update::AddEdge {
                id: eid.clone(),
                src: n0.clone(),
                tgt: n1.clone(),
            }],
        )
        .unwrap();
        assert_eq!(g.id_arity(), 2);
        assert_eq!(g.src(&eid), Some(&n0));
    }
}
