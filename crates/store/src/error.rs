//! The store's typed errors and the `pgView` form tag.

use pgq_graph::{
    pg_view_bounded, pg_view_exact, pg_view_ext, PropertyGraph, UpdateError, ViewError, ViewMode,
    ViewRelations,
};
use pgq_relational::RelName;
use std::fmt;

/// Which `pgView` operator validates a graph at registration (mirrors
/// `pgq_core::ViewOp`, which the store cannot depend on). Every form
/// reads the identifier arity `k` off `R1` and builds the same
/// `pgView=k` graph; a form only restricts `k`. The store keeps no form:
/// a frozen graph serves a call under any operator that admits its `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphForm {
    /// `pgView=n`: identifiers of exactly this arity.
    Exact(usize),
    /// `pgView_n`: identifiers of arity at most `n`.
    Bounded(usize),
    /// `pgView_ext`: identifiers of any positive arity.
    Ext,
}

impl GraphForm {
    /// The strict `pgView` operator of this form applied to `rels`.
    pub(crate) fn view(self, rels: &ViewRelations) -> Result<PropertyGraph, ViewError> {
        match self {
            GraphForm::Exact(n) => pg_view_exact(n, rels, ViewMode::Strict),
            GraphForm::Bounded(n) => pg_view_bounded(n, rels, ViewMode::Strict),
            GraphForm::Ext => pg_view_ext(rels, ViewMode::Strict),
        }
    }
}

/// Errors raised by store registration and maintenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A view input relation is missing from the database (or, on the
    /// update path, from the store).
    UnknownRelation(RelName),
    /// No graph is registered under this name.
    UnknownGraph(String),
    /// The six relations violate the Definition 3.1/5.1 conditions.
    View(ViewError),
    /// The value dictionary ran out of codes: more than `limit`
    /// distinct values were interned. Registration propagates this
    /// instead of panicking mid-load (`Dictionary::MAX_CODES` is the
    /// hard ceiling; tests lower the limit to reach it).
    DictionaryFull {
        /// The code-space limit that was hit.
        limit: usize,
    },
    /// A CSR node universe outgrew its dense `u32` id space — the
    /// typed replacement for the old `expect("node universe outgrew
    /// u32")` panic (parity with [`StoreError::DictionaryFull`]).
    NodeUniverseFull {
        /// The node-universe limit that was hit.
        limit: usize,
    },
    /// An update against a registered graph failed validation — the
    /// same conditions `pgq_graph::updates::apply` enforces.
    Update(UpdateError),
    /// A row's arity differs from its relation's.
    RowArity {
        /// The relation.
        relation: RelName,
        /// The relation's arity.
        expected: usize,
        /// The offending row's arity.
        found: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownRelation(n) => write!(f, "unknown relation {n}"),
            StoreError::UnknownGraph(g) => write!(f, "unknown graph {g}"),
            StoreError::View(e) => write!(f, "invalid graph view: {e}"),
            StoreError::DictionaryFull { limit } => {
                write!(f, "value dictionary full: {limit} code(s) exhausted")
            }
            StoreError::NodeUniverseFull { limit } => {
                write!(f, "CSR node universe full: {limit} dense id(s) exhausted")
            }
            StoreError::Update(e) => write!(f, "update rejected: {e}"),
            StoreError::RowArity {
                relation,
                expected,
                found,
            } => write!(
                f,
                "relation {relation} has arity {expected}, row has {found}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ViewError> for StoreError {
    fn from(e: ViewError) -> Self {
        StoreError::View(e)
    }
}

impl From<UpdateError> for StoreError {
    fn from(e: UpdateError) -> Self {
        StoreError::Update(e)
    }
}
