//! Graph view construction: the `pgView` family.
//!
//! This is layer (iii) of SQL/PGQ — the under-explored layer the paper
//! argues governs the language's expressive power. Implements:
//!
//! * [`pg_view`] — Definition 3.2 (unary identifiers);
//! * [`pg_view_exact`] — `pgView=n`, Definition 5.2;
//! * [`pg_view_bounded`] — `pgView_n = ⋃_{i≤n} pgView=i`, Definition 5.3;
//! * [`pg_view_ext`] — `pgView_ext = ⋃_{i≥1} pgView=i`, Definition 5.3.
//!
//! All of these are *partial* functions: they are defined only when the
//! six input relations satisfy the structural conditions of
//! Definition 3.1/5.1. In [`ViewMode::Strict`] a violation is a typed
//! [`ViewError`]; [`ViewMode::Lenient`] instead drops offending rows (used
//! by the SQL/PGQ surface parser when normalizing vertex/edge tables,
//! never by the formal experiments — DESIGN.md deviation note 2).

use crate::model::{ElementId, PropertyGraph};
use pgq_relational::Relation;
use std::collections::BTreeSet;
use std::fmt;

/// How to react to violations of the Definition 3.1/5.1 conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViewMode {
    /// Violations are errors (the paper's partial-function reading).
    #[default]
    Strict,
    /// Offending rows are dropped; the result is always a graph.
    Lenient,
}

/// A violation of the property graph view conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// One of the six relations has the wrong arity for identifier
    /// arity `k` (expected `k, k, 2k, 2k, k+1, k+2`).
    ArityShape {
        /// Which relation (1-based, as in the paper's `R1 … R6`).
        relation: u8,
        /// Expected arity.
        expected: usize,
        /// Found arity.
        found: usize,
    },
    /// The inferred identifier arity is outside the permitted range
    /// (e.g. `pgView_n` with `k > n`, or `k = 0`).
    IdentifierArity {
        /// Inferred arity.
        found: usize,
        /// Maximum allowed (`None` for `pgView_ext`, which allows any
        /// `k ≥ 1`).
        max: Option<usize>,
    },
    /// Condition (1): `R1 ∩ R2 ≠ ∅`.
    NodesEdgesOverlap(ElementId),
    /// Condition (2): an edge has no `src`/`tgt` entry.
    MissingEndpoint {
        /// `"src"` or `"tgt"`.
        which: &'static str,
        /// The edge identifier.
        edge: ElementId,
    },
    /// Condition (2): an edge has two distinct `src`/`tgt` entries.
    NonFunctionalEndpoint {
        /// `"src"` or `"tgt"`.
        which: &'static str,
        /// The edge identifier.
        edge: ElementId,
    },
    /// Condition (2): an `src`/`tgt` entry maps an edge to a non-node.
    EndpointNotNode {
        /// `"src"` or `"tgt"`.
        which: &'static str,
        /// The edge identifier.
        edge: ElementId,
        /// The offending endpoint value.
        endpoint: ElementId,
    },
    /// Condition (2): an `src`/`tgt` row keyed by a non-edge.
    EndpointKeyNotEdge {
        /// `"src"` or `"tgt"`.
        which: &'static str,
        /// The offending key.
        key: ElementId,
    },
    /// Condition (3): a label row whose subject is not in `R1 ∪ R2`.
    LabelSubjectUnknown(ElementId),
    /// Condition (4): a property row whose subject is not in `R1 ∪ R2`.
    PropSubjectUnknown(ElementId),
    /// Condition (4): two property values for the same `(element, key)`.
    NonFunctionalProp(ElementId),
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::ArityShape {
                relation,
                expected,
                found,
            } => write!(
                f,
                "R{relation} has arity {found}, expected {expected} for this identifier arity"
            ),
            ViewError::IdentifierArity { found, max } => match max {
                Some(m) => write!(f, "identifier arity {found} exceeds the bound {m}"),
                None => write!(f, "identifier arity {found} is not a positive integer"),
            },
            ViewError::NodesEdgesOverlap(id) => {
                write!(
                    f,
                    "identifier {id} appears in both R1 (nodes) and R2 (edges)"
                )
            }
            ViewError::MissingEndpoint { which, edge } => {
                write!(
                    f,
                    "edge {edge} has no {which} entry (function must be total)"
                )
            }
            ViewError::NonFunctionalEndpoint { which, edge } => {
                write!(f, "edge {edge} has multiple {which} entries")
            }
            ViewError::EndpointNotNode {
                which,
                edge,
                endpoint,
            } => write!(f, "{which}({edge}) = {endpoint} is not a node"),
            ViewError::EndpointKeyNotEdge { which, key } => {
                write!(f, "{which} row keyed by {key}, which is not an edge")
            }
            ViewError::LabelSubjectUnknown(id) => {
                write!(f, "label attached to unknown element {id}")
            }
            ViewError::PropSubjectUnknown(id) => {
                write!(f, "property attached to unknown element {id}")
            }
            ViewError::NonFunctionalProp(id) => {
                write!(f, "two property values for the same key on element {id}")
            }
        }
    }
}

impl std::error::Error for ViewError {}

/// The six canonical relations `(R1, …, R6)` of a (tabular) property
/// graph view, in the paper's order: nodes, edges, src, tgt, labels,
/// properties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewRelations {
    /// `R1` — node identifiers (arity `k`).
    pub nodes: Relation,
    /// `R2` — edge identifiers (arity `k`).
    pub edges: Relation,
    /// `R3` — source function (arity `2k`).
    pub src: Relation,
    /// `R4` — target function (arity `2k`).
    pub tgt: Relation,
    /// `R5` — labels (arity `k+1`).
    pub labels: Relation,
    /// `R6` — properties (arity `k+2`).
    pub props: Relation,
}

impl From<[Relation; 6]> for ViewRelations {
    /// The six relations in `R1..R6` order.
    fn from([nodes, edges, src, tgt, labels, props]: [Relation; 6]) -> Self {
        ViewRelations::new(nodes, edges, src, tgt, labels, props)
    }
}

impl ViewRelations {
    /// Convenience constructor in `R1..R6` order.
    pub fn new(
        nodes: Relation,
        edges: Relation,
        src: Relation,
        tgt: Relation,
        labels: Relation,
        props: Relation,
    ) -> Self {
        ViewRelations {
            nodes,
            edges,
            src,
            tgt,
            labels,
            props,
        }
    }

    /// A view with no labels and no properties (common in the proofs,
    /// e.g. Theorem 4.1's union view and Lemma 9.4's reachability graphs).
    pub fn bare(nodes: Relation, edges: Relation, src: Relation, tgt: Relation) -> Self {
        let k = nodes.arity();
        ViewRelations {
            nodes,
            edges,
            src,
            tgt,
            labels: Relation::empty(k + 1),
            props: Relation::empty(k + 2),
        }
    }

    fn check_shape(&self, k: usize) -> Result<(), ViewError> {
        let rels = [
            &self.nodes,
            &self.edges,
            &self.src,
            &self.tgt,
            &self.labels,
            &self.props,
        ];
        for ((idx, rel), want) in (1u8..).zip(rels).zip(shape(k)) {
            if rel.arity() != want {
                return Err(ViewError::ArityShape {
                    relation: idx,
                    expected: want,
                    found: rel.arity(),
                });
            }
        }
        Ok(())
    }
}

/// The arities of `R1 … R6` for identifier arity `k` (Definition
/// 3.1/5.1): `k, k, 2k, 2k, k+1, k+2`.
pub fn shape(k: usize) -> [usize; 6] {
    [k, k, 2 * k, 2 * k, k + 1, k + 2]
}

/// `pgView` (Definition 3.2): unary identifiers.
pub fn pg_view(rels: &ViewRelations) -> Result<PropertyGraph, ViewError> {
    pg_view_exact(1, rels, ViewMode::Strict)
}

/// `pgView=k` (Definition 5.2): identifiers of exactly arity `k`.
pub fn pg_view_exact(
    k: usize,
    rels: &ViewRelations,
    mode: ViewMode,
) -> Result<PropertyGraph, ViewError> {
    if k == 0 {
        return Err(ViewError::IdentifierArity {
            found: 0,
            max: None,
        });
    }
    rels.check_shape(k)?;
    build(k, rels, mode)
}

/// `pgView_n` (Definition 5.3): identifiers of arity at most `n`. The
/// identifier arity `k` is read off `R1`'s arity (relations carry their
/// arity even when empty, so this is always well-defined).
pub fn pg_view_bounded(
    n: usize,
    rels: &ViewRelations,
    mode: ViewMode,
) -> Result<PropertyGraph, ViewError> {
    let k = rels.nodes.arity();
    if k == 0 || k > n {
        return Err(ViewError::IdentifierArity {
            found: k,
            max: Some(n),
        });
    }
    pg_view_exact(k, rels, mode)
}

/// `pgView_ext` (Definition 5.3): identifiers of any positive arity,
/// inferred from `R1`.
pub fn pg_view_ext(rels: &ViewRelations, mode: ViewMode) -> Result<PropertyGraph, ViewError> {
    let k = rels.nodes.arity();
    if k == 0 {
        return Err(ViewError::IdentifierArity {
            found: 0,
            max: None,
        });
    }
    pg_view_exact(k, rels, mode)
}

/// Shared construction: checks conditions (1)–(4) of Definition 3.1/5.1
/// and assembles the [`PropertyGraph`].
fn build(k: usize, rels: &ViewRelations, mode: ViewMode) -> Result<PropertyGraph, ViewError> {
    let strict = mode == ViewMode::Strict;
    let mut g = PropertyGraph::empty(k);

    // R1: nodes.
    let nodes: BTreeSet<ElementId> = rels.nodes.iter().cloned().collect();
    for n in &nodes {
        g.insert_node(n.clone());
    }

    // Condition (1): R1 ∩ R2 = ∅.
    let mut edges: BTreeSet<ElementId> = BTreeSet::new();
    for e in rels.edges.iter() {
        if nodes.contains(e) {
            if strict {
                return Err(ViewError::NodesEdgesOverlap(e.clone()));
            }
            continue; // lenient: node wins, edge row dropped
        }
        edges.insert(e.clone());
    }

    // Condition (2): R3/R4 encode total functions R2 → R1.
    let src_map = endpoint_map("src", &rels.src, k, &edges, &nodes, strict)?;
    let tgt_map = endpoint_map("tgt", &rels.tgt, k, &edges, &nodes, strict)?;
    for e in &edges {
        match (src_map.get(e), tgt_map.get(e)) {
            (Some(s), Some(t)) => g.insert_edge(e.clone(), s.clone(), t.clone()),
            (None, _) if strict => {
                return Err(ViewError::MissingEndpoint {
                    which: "src",
                    edge: e.clone(),
                })
            }
            (_, None) if strict => {
                return Err(ViewError::MissingEndpoint {
                    which: "tgt",
                    edge: e.clone(),
                })
            }
            _ => {} // lenient: dangling edge dropped
        }
    }

    // Condition (3): R5 ⊆ (R1 ∪ R2) × C.
    for row in rels.labels.iter() {
        let (subject, label) = row.split_at(k);
        debug_assert_eq!(label.arity(), 1);
        if !g.is_element(&subject) {
            if strict {
                return Err(ViewError::LabelSubjectUnknown(subject));
            }
            continue;
        }
        g.insert_label(subject, label[0].clone());
    }

    // Condition (4): R6 encodes a partial function (R1 ∪ R2) × C ⇀ C.
    let mut seen_keys: BTreeSet<(ElementId, pgq_value::Value)> = BTreeSet::new();
    for row in rels.props.iter() {
        let (subject, key_value) = row.split_at(k);
        let key = key_value[0].clone();
        let value = key_value[1].clone();
        if !g.is_element(&subject) {
            if strict {
                return Err(ViewError::PropSubjectUnknown(subject));
            }
            continue;
        }
        if !seen_keys.insert((subject.clone(), key.clone())) {
            // Same (element, key) twice. Since rows are a set, the value
            // must differ — a violation of functionality.
            if strict {
                return Err(ViewError::NonFunctionalProp(subject));
            }
            continue; // lenient: first value (in tuple order) wins
        }
        g.insert_prop(subject, key, value);
    }

    Ok(g)
}

/// Validates one of R3/R4 as (the graph of) a function `edges → nodes`,
/// returning it as a map. In strict mode any non-edge key, non-node
/// value, or duplicate key is an error; in lenient mode such rows are
/// dropped (for duplicates, the lexicographically first row wins).
fn endpoint_map(
    which: &'static str,
    rel: &Relation,
    k: usize,
    edges: &BTreeSet<ElementId>,
    nodes: &BTreeSet<ElementId>,
    strict: bool,
) -> Result<std::collections::BTreeMap<ElementId, ElementId>, ViewError> {
    let mut map = std::collections::BTreeMap::new();
    for row in rel.iter() {
        let (edge, endpoint) = row.split_at(k);
        if !edges.contains(&edge) {
            if strict {
                return Err(ViewError::EndpointKeyNotEdge { which, key: edge });
            }
            continue;
        }
        if !nodes.contains(&endpoint) {
            if strict {
                return Err(ViewError::EndpointNotNode {
                    which,
                    edge,
                    endpoint,
                });
            }
            continue;
        }
        if map.contains_key(&edge) {
            if strict {
                return Err(ViewError::NonFunctionalEndpoint { which, edge });
            }
            continue;
        }
        map.insert(edge, endpoint);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_value::{tuple, Tuple};

    /// The six relations for a two-node, one-edge unary graph:
    /// `a -e-> b` with label `T` and property `amount = 5` on the edge.
    fn simple_rels() -> ViewRelations {
        let nodes = Relation::unary(["a", "b"]);
        let edges = Relation::unary(["e"]);
        let src = Relation::from_rows(2, [tuple!["e", "a"]]).unwrap();
        let tgt = Relation::from_rows(2, [tuple!["e", "b"]]).unwrap();
        let labels = Relation::from_rows(2, [tuple!["e", "T"]]).unwrap();
        let props = Relation::from_rows(3, [tuple!["e", "amount", 5]]).unwrap();
        ViewRelations::new(nodes, edges, src, tgt, labels, props)
    }

    #[test]
    fn pg_view_builds_simple_graph() {
        let g = pg_view(&simple_rels()).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let e = Tuple::unary("e");
        assert_eq!(g.src(&e), Some(&Tuple::unary("a")));
        assert_eq!(g.tgt(&e), Some(&Tuple::unary("b")));
        assert!(g.has_label(&e, &"T".into()));
        assert_eq!(g.prop(&e, &"amount".into()), Some(&5i64.into()));
    }

    #[test]
    fn arity_shape_is_checked() {
        let mut rels = simple_rels();
        rels.src = Relation::empty(3);
        assert_eq!(
            pg_view(&rels).unwrap_err(),
            ViewError::ArityShape {
                relation: 3,
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn condition_1_disjointness() {
        let mut rels = simple_rels();
        rels.edges = Relation::unary(["a"]); // clashes with node "a"
        rels.src = Relation::from_rows(2, [tuple!["a", "a"]]).unwrap();
        rels.tgt = Relation::from_rows(2, [tuple!["a", "b"]]).unwrap();
        rels.labels = Relation::empty(2);
        rels.props = Relation::empty(3);
        assert_eq!(
            pg_view(&rels).unwrap_err(),
            ViewError::NodesEdgesOverlap(Tuple::unary("a"))
        );
        // Lenient mode drops the clashing edge.
        let g = pg_view_exact(1, &rels, ViewMode::Lenient).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn condition_2_totality() {
        let mut rels = simple_rels();
        rels.src = Relation::empty(2);
        let err = pg_view(&rels).unwrap_err();
        assert_eq!(
            err,
            ViewError::MissingEndpoint {
                which: "src",
                edge: Tuple::unary("e")
            }
        );
        let g = pg_view_exact(1, &rels, ViewMode::Lenient).unwrap();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn condition_2_functionality() {
        let mut rels = simple_rels();
        rels.src = Relation::from_rows(2, [tuple!["e", "a"], tuple!["e", "b"]]).unwrap();
        assert_eq!(
            pg_view(&rels).unwrap_err(),
            ViewError::NonFunctionalEndpoint {
                which: "src",
                edge: Tuple::unary("e")
            }
        );
        // Lenient: first row in tuple order wins → src = a.
        let g = pg_view_exact(1, &rels, ViewMode::Lenient).unwrap();
        assert_eq!(g.src(&Tuple::unary("e")), Some(&Tuple::unary("a")));
    }

    #[test]
    fn condition_2_codomain() {
        let mut rels = simple_rels();
        rels.tgt = Relation::from_rows(2, [tuple!["e", "zz"]]).unwrap();
        assert_eq!(
            pg_view(&rels).unwrap_err(),
            ViewError::EndpointNotNode {
                which: "tgt",
                edge: Tuple::unary("e"),
                endpoint: Tuple::unary("zz")
            }
        );
    }

    #[test]
    fn condition_2_keys_must_be_edges() {
        let mut rels = simple_rels();
        rels.src = Relation::from_rows(2, [tuple!["e", "a"], tuple!["ghost", "a"]]).unwrap();
        assert_eq!(
            pg_view(&rels).unwrap_err(),
            ViewError::EndpointKeyNotEdge {
                which: "src",
                key: Tuple::unary("ghost")
            }
        );
    }

    #[test]
    fn condition_3_label_subjects() {
        let mut rels = simple_rels();
        rels.labels = Relation::from_rows(2, [tuple!["ghost", "T"]]).unwrap();
        assert_eq!(
            pg_view(&rels).unwrap_err(),
            ViewError::LabelSubjectUnknown(Tuple::unary("ghost"))
        );
        let g = pg_view_exact(1, &rels, ViewMode::Lenient).unwrap();
        assert_eq!(g.labels(&Tuple::unary("e")).count(), 0);
    }

    #[test]
    fn condition_4_prop_subjects_and_functionality() {
        let mut rels = simple_rels();
        rels.props = Relation::from_rows(3, [tuple!["ghost", "k", 1]]).unwrap();
        assert_eq!(
            pg_view(&rels).unwrap_err(),
            ViewError::PropSubjectUnknown(Tuple::unary("ghost"))
        );
        rels.props = Relation::from_rows(3, [tuple!["e", "k", 1], tuple!["e", "k", 2]]).unwrap();
        assert_eq!(
            pg_view(&rels).unwrap_err(),
            ViewError::NonFunctionalProp(Tuple::unary("e"))
        );
        // Lenient: first value in order wins.
        let g = pg_view_exact(1, &rels, ViewMode::Lenient).unwrap();
        assert_eq!(g.prop(&Tuple::unary("e"), &"k".into()), Some(&1i64.into()));
    }

    #[test]
    fn empty_labels_and_props_are_fine() {
        // "R5 and R6 may be empty" (after Definition 3.1).
        let rels = ViewRelations::bare(
            Relation::unary(["a"]),
            Relation::empty(1),
            Relation::empty(2),
            Relation::empty(2),
        );
        let g = pg_view(&rels).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn binary_identifiers_via_pg_view_exact() {
        // Example 5.1-style: nodes are (bank, branch) pairs.
        let nodes = Relation::from_rows(2, [tuple!["b1", 1], tuple!["b2", 2]]).unwrap();
        let edges = Relation::from_rows(2, [tuple!["t", 0]]).unwrap();
        let src = Relation::from_rows(4, [tuple!["t", 0, "b1", 1]]).unwrap();
        let tgt = Relation::from_rows(4, [tuple!["t", 0, "b2", 2]]).unwrap();
        let rels = ViewRelations::bare(nodes, edges, src, tgt);
        let g = pg_view_exact(2, &rels, ViewMode::Strict).unwrap();
        assert_eq!(g.id_arity(), 2);
        assert_eq!(g.edge_count(), 1);
        // pgView (unary) rejects the same relations by shape.
        assert!(pg_view(&rels).is_err());
    }

    #[test]
    fn bounded_view_enforces_arity_cap() {
        let rels = {
            let nodes = Relation::from_rows(2, [tuple!["a", 1]]).unwrap();
            ViewRelations::bare(
                nodes,
                Relation::empty(2),
                Relation::empty(4),
                Relation::empty(4),
            )
        };
        assert!(pg_view_bounded(1, &rels, ViewMode::Strict).is_err());
        assert!(pg_view_bounded(2, &rels, ViewMode::Strict).is_ok());
        assert!(pg_view_ext(&rels, ViewMode::Strict).is_ok());
    }

    #[test]
    fn pg_view_ext_rejects_zero_arity() {
        let rels = ViewRelations::bare(
            Relation::empty(0),
            Relation::empty(0),
            Relation::empty(0),
            Relation::empty(0),
        );
        assert!(matches!(
            pg_view_ext(&rels, ViewMode::Strict).unwrap_err(),
            ViewError::IdentifierArity { found: 0, .. }
        ));
    }

    #[test]
    fn pg_view_exact_coincides_with_pg_view_at_arity_1() {
        // Definition 5.1: "for n = 1 the two definitions coincide".
        let rels = simple_rels();
        assert_eq!(
            pg_view(&rels).unwrap(),
            pg_view_exact(1, &rels, ViewMode::Strict).unwrap()
        );
    }
}
