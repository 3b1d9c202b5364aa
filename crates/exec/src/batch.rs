//! Row batches — the executor's *boundary* representation: what
//! `Values` leaves carry in and what [`crate::execute`] hands out.
//! Between operators the same bags flow as dictionary codes
//! ([`crate::CodedBatch`]).
//!
//! The reference evaluators (S2/S7) keep every intermediate result in
//! a `BTreeSet`, paying an ordered-set insertion per produced tuple. The
//! physical engine instead flows plain row bags between operators and
//! defers deduplication to the few places set semantics actually demands
//! it (explicit `Distinct`, the right side of `Diff`, fixpoint
//! accumulators, and the final conversion back to a [`Relation`]).
//! Because every Figure 4 operator is monotone in duplicates except the
//! *right* operand of difference — which the executor always dedups — a
//! bag-valued pipeline with a set-valued boundary computes exactly the
//! reference set semantics.

use pgq_relational::{RelError, RelResult, Relation};
use pgq_value::Tuple;
use std::sync::Arc;

/// A batch of equal-arity rows, possibly containing duplicates. Clones
/// share the rows, so a plan may read one batch at many leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    arity: usize,
    rows: Arc<Vec<Tuple>>,
    /// What the rows stand for, when they are materialized only at run
    /// time (`EXPLAIN` prints the name, not the rows).
    name: Option<String>,
}

impl Batch {
    /// The empty batch of the given arity.
    pub fn empty(arity: usize) -> Self {
        Batch {
            arity,
            rows: Arc::default(),
            name: None,
        }
    }

    /// Builds a batch from rows, checking every row has `arity`.
    pub fn from_rows<I>(arity: usize, rows: I) -> RelResult<Self>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut b = Batch::empty(arity);
        for t in rows {
            b.push(t)?;
        }
        Ok(b)
    }

    /// The one-row batch of `t`, at `t`'s own arity.
    pub fn singleton(t: Tuple) -> Self {
        Batch {
            arity: t.arity(),
            rows: Arc::new(vec![t]),
            name: None,
        }
    }

    /// Copies a [`Relation`] into a batch (already duplicate-free).
    pub fn from_relation(rel: &Relation) -> Self {
        Batch {
            arity: rel.arity(),
            rows: Arc::new(rel.iter().cloned().collect()),
            name: None,
        }
    }

    /// The batch named `name`: a relation the plan reads but that is
    /// only materialized when it runs. `EXPLAIN` prints the name in
    /// place of the row count, and the cost model estimates it as a
    /// relation without statistics, so a plan over the named batches is
    /// the same whether they hold their rows yet or not.
    pub fn named(self, name: impl Into<String>) -> Self {
        Batch {
            name: Some(name.into()),
            ..self
        }
    }

    /// The name [`Batch::named`] gave the batch.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Converts back to a set-semantics [`Relation`], deduplicating.
    pub fn into_relation(self) -> Relation {
        let rows = Arc::unwrap_or_clone(self.rows);
        Relation::from_rows(self.arity, rows).expect("batch rows have the batch arity")
    }

    /// The batch arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows, counting duplicates.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row, checking its arity.
    pub fn push(&mut self, t: Tuple) -> RelResult<()> {
        if t.arity() != self.arity {
            return Err(RelError::ArityMismatch {
                context: "batch push",
                expected: self.arity,
                found: t.arity(),
            });
        }
        Arc::make_mut(&mut self.rows).push(t);
        Ok(())
    }

    /// Iterates over rows in pipeline order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.rows.iter()
    }

    /// Borrows the rows as a slice.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_value::tuple;

    #[test]
    fn push_checks_arity_and_keeps_duplicates() {
        let mut b = Batch::empty(2);
        b.push(tuple![1, 2]).unwrap();
        b.push(tuple![1, 2]).unwrap();
        assert!(b.push(tuple![1]).is_err());
        assert_eq!(b.len(), 2);
        assert_eq!(b.into_relation().len(), 1);
    }

    #[test]
    fn relation_roundtrip_dedups() {
        let rel = Relation::unary([1i64, 2, 3]);
        let mut b = Batch::from_relation(&rel);
        b.push(Tuple::unary(2i64)).unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(b.into_relation(), rel);
    }

    #[test]
    fn zero_arity_batches() {
        let mut b = Batch::empty(0);
        b.push(Tuple::empty()).unwrap();
        b.push(Tuple::empty()).unwrap();
        assert_eq!(b.into_relation(), Relation::r#true());
        assert_eq!(Batch::empty(0).into_relation(), Relation::r#false());
    }
}
