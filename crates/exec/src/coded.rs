//! Dictionary-coded batches — the executor's only working
//! representation.
//!
//! A [`CodedBatch`] is a bag of flat `u32` rows: joins and dedup key
//! them in a [`RowTable`] (no heap allocation per row), and the
//! pipeline decodes **exactly once**, at the set-semantics boundary
//! ([`Coded::into_relation`]). Codes
//! resolve in a [`Codes`] view: the session store's dictionary as the
//! base layer, plus a per-execution scratch layer for every value the
//! store never interned (database scans, `Values` batches, the whole
//! input of a storeless run). [`Codes::intern`] probes the base first,
//! so equal values always share a code; the view is a bijection, and a
//! bijective renaming of the domain commutes with every Figure 4
//! operator — coded evaluation *is* reference evaluation
//! (`tests/prop_store.rs` and `tests/prop_engine.rs` hold it to S2).
//!
//! Two subtleties keep the equivalence exact:
//!
//! * **Order predicates.** Codes are minted in first-seen order, which
//!   is not the value order, so [`CodedCond`] compares codes only for
//!   equality and *decodes on compare* for `<`/`≤`/`>`/`≥` — an index
//!   into the dictionary's value vector, no hashing, no clone.
//! * **Constants.** Leaves intern on the calling thread before the
//!   operator above them runs, so a literal absent from the view when a
//!   filter compiles occurs in none of that filter's input rows: coded
//!   equality against it is constant-false (and `≠` constant-true)
//!   without any decode.

use crate::batch::Batch;
use pgq_relational::{CmpOp, Operand, RelError, RelResult, Relation, RowCondition};
use pgq_store::{ColumnarRelation, Dictionary, Postings, RowTable, Store};
use pgq_value::{Tuple, Value};

/// The value ↔ code bijection one execution runs under: codes below
/// the store dictionary's length resolve there, codes above it in a
/// per-execution scratch dictionary. A storeless run is the same thing
/// over an empty base.
#[derive(Debug)]
pub struct Codes<'a> {
    store: Option<&'a Store>,
    /// `store.dict().len()` (0 without a store): the first scratch code.
    base_len: usize,
    scratch: Dictionary,
}

impl<'a> Codes<'a> {
    /// A view over `store`'s dictionary with an empty scratch layer.
    pub fn new(store: Option<&'a Store>) -> Self {
        let base_len = store.map_or(0, |s| s.dict().len());
        Codes {
            store,
            base_len,
            scratch: Dictionary::with_limit(Dictionary::MAX_CODES - base_len),
        }
    }

    /// Number of codes the view resolves (`0..len`).
    pub fn len(&self) -> usize {
        self.base_len + self.scratch.len()
    }

    /// Whether the view resolves no code at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The code of `v`, if either layer interned it.
    pub fn code(&self, v: &Value) -> Option<u32> {
        self.store
            .and_then(|s| s.encode(v))
            .or_else(|| self.scratch.code(v).map(|c| c + self.base_len as u32))
    }

    /// The code of `v`, minting a scratch code when neither layer has
    /// one. Errors once the `u32` code space is exhausted.
    pub fn intern(&mut self, v: &Value) -> RelResult<u32> {
        if let Some(c) = self.store.and_then(|s| s.encode(v)) {
            return Ok(c);
        }
        let base = self.base_len as u32;
        self.scratch
            .intern(v)
            .map(|c| c + base)
            .map_err(|_| RelError::CodeSpaceExhausted)
    }

    /// The value behind a code; `code < self.len()` (batches are
    /// audited by `CodedBatch::check_codes` before any decode).
    pub fn value(&self, code: u32) -> &Value {
        match self.store {
            Some(s) if (code as usize) < self.base_len => s.decode(code),
            _ => self.scratch.value(code - self.base_len as u32),
        }
    }

    /// Counts `cells` dictionary decodes on the store's access
    /// counters (a storeless view has none to count on).
    fn record_decodes(&self, cells: usize) {
        if let Some(s) = self.store {
            s.counters().record_dict_decodes(cells as u64);
        }
    }
}

/// A batch of equal-arity rows of dictionary codes, possibly with
/// duplicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedBatch {
    arity: usize,
    rows: usize,
    /// Row-major: row `i` is `codes[i*arity .. (i+1)*arity]`.
    codes: Vec<u32>,
}

impl CodedBatch {
    /// The empty coded batch of the given arity.
    pub fn empty(arity: usize) -> Self {
        CodedBatch {
            arity,
            rows: 0,
            codes: Vec::new(),
        }
    }

    /// Transposes a store-resident columnar relation into row-major
    /// coded form — the coded `IndexScan`. No dictionary access; rows
    /// tombstoned by updates are skipped.
    pub fn from_columnar(col: &ColumnarRelation) -> Self {
        let (arity, rows) = (col.arity(), col.len());
        let mut codes = Vec::with_capacity(arity * rows);
        for i in col.live_rows() {
            for p in 0..arity {
                codes.push(col.code_at(i, p));
            }
        }
        CodedBatch { arity, rows, codes }
    }

    /// Interns value rows into `codes` — how every leaf the store
    /// cannot serve (database scans, `Values`, the active domain) enters
    /// the pipeline.
    pub fn intern<'t>(
        arity: usize,
        rows: impl IntoIterator<Item = &'t Tuple>,
        codes: &mut Codes<'_>,
    ) -> RelResult<Self> {
        let mut out = CodedBatch::empty(arity);
        for t in rows {
            if t.arity() != arity {
                return Err(RelError::ArityMismatch {
                    context: "coded batch intern",
                    expected: arity,
                    found: t.arity(),
                });
            }
            for v in t.iter() {
                out.codes.push(codes.intern(v)?);
            }
            out.rows += 1;
        }
        Ok(out)
    }

    /// The batch arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows, counting duplicates.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a code slice (empty for 0-ary batches).
    pub fn row(&self, i: usize) -> &[u32] {
        &self.codes[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates rows in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Appends a row, checking its arity.
    pub fn push(&mut self, row: &[u32]) -> RelResult<()> {
        if row.len() != self.arity {
            return Err(RelError::ArityMismatch {
                context: "coded batch push",
                expected: self.arity,
                found: row.len(),
            });
        }
        self.codes.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Appends the concatenation of two rows (arity must equal the sum;
    /// callers construct the batch with that arity).
    pub fn push_concat(&mut self, a: &[u32], b: &[u32]) -> RelResult<()> {
        if a.len() + b.len() != self.arity {
            return Err(RelError::ArityMismatch {
                context: "coded batch push",
                expected: self.arity,
                found: a.len() + b.len(),
            });
        }
        self.codes.extend_from_slice(a);
        self.codes.extend_from_slice(b);
        self.rows += 1;
        Ok(())
    }

    /// Appends every row of `other` (same arity) in order — the
    /// deterministic morsel-order merge of the parallel operators, and
    /// the coded union. A flat `extend_from_slice`, no per-row checks.
    pub fn append(&mut self, other: &CodedBatch) -> RelResult<()> {
        if other.arity != self.arity {
            return Err(RelError::IncompatibleArities {
                op: "coded batch append",
                left: self.arity,
                right: other.arity,
            });
        }
        self.codes.extend_from_slice(&other.codes);
        self.rows += other.rows;
        Ok(())
    }

    /// The batch's distinct rows as a [`RowTable`] (ids in
    /// first-occurrence order) — the set a `Diff` or an intersection
    /// probes.
    pub(crate) fn row_table(&self) -> RowTable {
        let mut table = RowTable::with_capacity(self.arity, self.rows);
        for row in self.iter() {
            table.insert(row);
        }
        table
    }

    /// Removes duplicate rows, keeping first occurrences in order.
    pub fn dedup(&mut self) {
        let table = self.row_table();
        self.rows = table.len();
        self.codes = table.into_arena();
    }

    /// Builds a hash index over the projection of each row to
    /// `key_positions`: key codes → indices of matching rows, in row
    /// order. Positions must have been validated against the arity.
    pub fn hash_index(&self, key_positions: &[usize]) -> CodedHashIndex {
        let mut keys = RowTable::with_capacity(key_positions.len(), self.rows);
        let mut key = Vec::with_capacity(key_positions.len());
        let key_of: Vec<u32> = self
            .iter()
            .map(|row| {
                key.clear();
                key.extend(key_positions.iter().map(|&p| row[p]));
                keys.insert(&key).0
            })
            .collect();
        let rows = Postings::group(keys.len(), &key_of, |i| i as u32);
        CodedHashIndex { keys, rows }
    }

    /// Checks every code in the batch is decodable by `dict` — the
    /// audit run before any decode. A batch can carry codes `dict`
    /// never minted (rows pushed by hand, or codes minted under a
    /// different view); decoding those must be a typed error, not an
    /// out-of-bounds panic inside the dictionary.
    fn check_codes(&self, dict: &Codes<'_>, context: &'static str) -> RelResult<()> {
        match self.codes.iter().copied().max() {
            Some(max) if max as usize >= dict.len() => {
                Err(RelError::UnknownCode { code: max, context })
            }
            _ => Ok(()),
        }
    }

    /// Decodes every row into a [`Batch`], keeping duplicates and
    /// order.
    ///
    /// Errors with [`RelError::UnknownCode`] if the batch carries a
    /// code outside `dict`.
    pub fn decode(&self, dict: &Codes<'_>) -> RelResult<Batch> {
        self.check_codes(dict, "coded batch rows")?;
        let mut out = Batch::empty(self.arity);
        for i in 0..self.rows {
            let row = self.row(i);
            let t = Tuple::new(row.iter().map(|&c| dict.value(c).clone()).collect());
            out.push(t)?;
        }
        Ok(out)
    }

    /// Decodes straight into a set-semantics [`Relation`] — the **one**
    /// decode of a fully coded pipeline, at the result boundary.
    ///
    /// The ordered set is built cheaply by exploiting the dictionary:
    /// the (few) distinct codes are ranked by their decoded values
    /// once, rows are sorted by rank — plain `u32` comparisons, and
    /// rank order is value order because ranking is strictly monotone —
    /// and the `BTreeSet` then bulk-builds from already-sorted input
    /// instead of comparison-sorting heap `Value` tuples.
    ///
    /// Errors with [`RelError::UnknownCode`] if the batch carries a
    /// code outside `dict`.
    pub fn into_relation(self, dict: &Codes<'_>) -> RelResult<Relation> {
        self.check_codes(dict, "coded result batch")?;
        // Distinct codes in this batch, ranked by decoded value.
        let mut distinct: Vec<u32> = self.codes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut by_value = distinct.clone();
        by_value.sort_by(|&a, &b| dict.value(a).cmp(dict.value(b)));
        // Rank lookup: a dense table (direct index per cell) when the
        // dictionary is comparable in size to the batch, binary search
        // over the batch's own distinct codes otherwise — a huge
        // session dictionary must not cost O(|dict|) per small result.
        let ranked: Vec<u32> = if dict.len() <= (self.codes.len().max(256)).saturating_mul(4) {
            let mut rank: Vec<u32> = vec![0; dict.len()];
            for (r, &c) in by_value.iter().enumerate() {
                rank[c as usize] = r as u32;
            }
            self.codes.iter().map(|&c| rank[c as usize]).collect()
        } else {
            // The searches run over the batch's own distinct codes, so
            // a miss means the batch was mutated concurrently with the
            // decode — surfaced as a typed error, not a panic.
            let lookup = |c: u32| -> RelResult<usize> {
                distinct
                    .binary_search(&c)
                    .map_err(|_| RelError::UnknownCode {
                        code: c,
                        context: "coded result batch rank table",
                    })
            };
            let mut rank_of_distinct: Vec<u32> = vec![0; distinct.len()];
            for (r, &c) in by_value.iter().enumerate() {
                rank_of_distinct[lookup(c)?] = r as u32;
            }
            self.codes
                .iter()
                .map(|&c| Ok(rank_of_distinct[lookup(c)?]))
                .collect::<RelResult<Vec<u32>>>()?
        };
        // Order row indices by rank tuples (lexicographic u32 order =
        // lexicographic value order), dropping coded duplicates before
        // any decode happens.
        let row_rank = |i: usize| &ranked[i * self.arity..(i + 1) * self.arity];
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_unstable_by(|&a, &b| row_rank(a).cmp(row_rank(b)));
        order.dedup_by(|&mut a, &mut b| row_rank(a) == row_rank(b));
        let rows: Vec<Tuple> = order
            .into_iter()
            .map(|i| Tuple::new(self.row(i).iter().map(|&c| dict.value(c).clone()).collect()))
            .collect();
        // `BTreeSet` collection bulk-builds from sorted, deduplicated
        // input in linear time.
        Relation::from_rows(self.arity, rows)
    }
}

/// A hash index from coded keys to row indices of the indexed batch:
/// the keys interned in a [`RowTable`], each key id's rows one
/// [`Postings`] slice.
pub struct CodedHashIndex {
    keys: RowTable,
    rows: Postings,
}

impl CodedHashIndex {
    /// Row indices whose key equals `key`, empty when absent.
    pub fn probe(&self, key: &[u32]) -> &[u32] {
        self.keys.find(key).map_or(&[], |id| self.rows.get(id))
    }
}

/// An executor result: the coded output batch together with the
/// [`Codes`] view it was computed under — the decode-once boundary.
#[derive(Debug)]
pub struct Coded<'a> {
    batch: CodedBatch,
    codes: Codes<'a>,
}

impl<'a> Coded<'a> {
    pub(crate) fn new(batch: CodedBatch, codes: Codes<'a>) -> Self {
        Coded { batch, codes }
    }

    /// The coded rows (bag semantics, pipeline order).
    pub fn batch(&self) -> &CodedBatch {
        &self.batch
    }

    /// The result arity.
    pub fn arity(&self) -> usize {
        self.batch.arity
    }

    /// Number of rows, counting duplicates.
    pub fn len(&self) -> usize {
        self.batch.rows
    }

    /// Whether the result holds no rows.
    pub fn is_empty(&self) -> bool {
        self.batch.rows == 0
    }

    /// Decodes into a row [`Batch`], keeping duplicates and order.
    pub fn decode(self) -> RelResult<Batch> {
        self.codes.record_decodes(self.batch.codes.len());
        self.batch.decode(&self.codes)
    }

    /// Converts to a set-semantics [`Relation`], decoding each
    /// surviving row exactly once.
    pub fn into_relation(self) -> RelResult<Relation> {
        self.codes.record_decodes(self.batch.codes.len());
        self.batch.into_relation(&self.codes)
    }
}

/// One side of a coded comparison.
pub enum CodedOperand {
    /// A tuple position (codes come from the row).
    Col(usize),
    /// A plan-time constant: its code when interned, plus the value
    /// itself for decode-on-compare order predicates.
    Const(Option<u32>, Value),
}

/// A [`RowCondition`] precompiled against a [`Codes`] view, evaluable
/// on coded rows without decoding (except order comparisons, which
/// decode on compare — code order is not value order).
pub enum CodedCond {
    /// A comparison between two coded operands.
    Cmp(CodedOperand, CmpOp, CodedOperand),
    /// `¬θ`
    Not(Box<CodedCond>),
    /// `θ ∧ θ′`
    And(Box<CodedCond>, Box<CodedCond>),
    /// `θ ∨ θ′`
    Or(Box<CodedCond>, Box<CodedCond>),
    /// Constant truth.
    True,
}

impl CodedCond {
    /// Compiles a condition, resolving constants against the view
    /// once instead of per row.
    pub fn compile(cond: &RowCondition, codes: &Codes<'_>) -> Self {
        let operand = |o: &Operand| match o {
            Operand::Col(i) => CodedOperand::Col(*i),
            Operand::Const(v) => CodedOperand::Const(codes.code(v), v.clone()),
        };
        match cond {
            RowCondition::Cmp(a, op, b) => CodedCond::Cmp(operand(a), *op, operand(b)),
            RowCondition::Not(c) => CodedCond::Not(Box::new(CodedCond::compile(c, codes))),
            RowCondition::And(a, b) => CodedCond::And(
                Box::new(CodedCond::compile(a, codes)),
                Box::new(CodedCond::compile(b, codes)),
            ),
            RowCondition::Or(a, b) => CodedCond::Or(
                Box::new(CodedCond::compile(a, codes)),
                Box::new(CodedCond::compile(b, codes)),
            ),
            RowCondition::True => CodedCond::True,
        }
    }

    /// Evaluates the condition on a coded row. Positions were validated
    /// against the batch arity by the caller.
    pub fn eval(&self, row: &[u32], dict: &Codes<'_>) -> bool {
        match self {
            CodedCond::Cmp(a, op, b) => {
                // Equality decides on codes alone: the dictionary is a
                // bijection, and a never-interned constant equals no
                // stored value.
                if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    let code = |o: &CodedOperand| match o {
                        CodedOperand::Col(i) => Some(row[*i]),
                        CodedOperand::Const(c, _) => *c,
                    };
                    let eq = match (code(a), code(b)) {
                        (Some(x), Some(y)) => x == y,
                        // An un-interned constant: columns can't match
                        // it; two un-interned constants are compared by
                        // value below (both sides `Const`).
                        (None, None) => {
                            let (CodedOperand::Const(_, x), CodedOperand::Const(_, y)) = (a, b)
                            else {
                                unreachable!("codeless operands are constants")
                            };
                            x == y
                        }
                        _ => false,
                    };
                    return if *op == CmpOp::Eq { eq } else { !eq };
                }
                // Order predicates decode on compare: intern order is
                // not value order.
                fn value<'a>(o: &'a CodedOperand, row: &[u32], dict: &'a Codes<'_>) -> &'a Value {
                    match o {
                        CodedOperand::Col(i) => dict.value(row[*i]),
                        CodedOperand::Const(_, v) => v,
                    }
                }
                let value = |o| value(o, row, dict);
                let (x, y) = (value(a), value(b));
                match op {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
                }
            }
            CodedCond::Not(c) => !c.eval(row, dict),
            CodedCond::And(a, b) => a.eval(row, dict) && b.eval(row, dict),
            CodedCond::Or(a, b) => a.eval(row, dict) || b.eval(row, dict),
            CodedCond::True => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_relational::Database;
    use pgq_value::tuple;

    fn store() -> Store {
        let mut db = Database::new();
        // Intern order: relation rows iterate in value order, so mix
        // types to force code order ≠ value order (Int < Str but the
        // column interleaves them by row order of the BTreeSet).
        db.insert("R", tuple![200, "high"]).unwrap();
        db.insert("R", tuple![5, "low"]).unwrap();
        Store::from_database(&db)
    }

    #[test]
    fn batch_roundtrip_and_dedup() {
        let s = store();
        let col = s.relation(&"R".into()).unwrap();
        let mut b = CodedBatch::from_columnar(col);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.len(), 2);
        let first: Vec<u32> = b.row(0).to_vec();
        b.push(&first).unwrap();
        assert!(b.push(&[0]).is_err());
        assert_eq!(b.len(), 3);
        b.dedup();
        assert_eq!(b.len(), 2);
        let rel = b.into_relation(&Codes::new(Some(&s))).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&tuple![200, "high"]));
    }

    #[test]
    fn coded_hash_index_probes() {
        let s = store();
        let b = CodedBatch::from_columnar(s.relation(&"R".into()).unwrap());
        let idx = b.hash_index(&[0]);
        let c5 = s.encode(&Value::int(5)).unwrap();
        assert_eq!(idx.probe(&[c5]).len(), 1);
        assert!(idx.probe(&[u32::MAX]).is_empty());
        assert!(idx.probe(&[s.dict().len() as u32]).is_empty());
        // Zero-width keys: every row under the one empty key.
        assert_eq!(b.hash_index(&[]).probe(&[]), &[0, 1]);
    }

    /// `dedup` keeps first occurrences in order.
    #[test]
    fn dedup_keeps_first_occurrences_in_order() {
        let mut b = CodedBatch::empty(2);
        for i in (0..3_000u32).chain((0..3_000).rev()) {
            b.push(&[i % 1_000, i / 1_000]).unwrap();
        }
        b.dedup();
        let want: Vec<[u32; 2]> = (0..3_000).map(|i| [i % 1_000, i / 1_000]).collect();
        assert!(b.iter().eq(want.iter().map(|r| &r[..])));
    }

    /// The scratch layer sits above the store's codes: stored values
    /// keep their store code, fresh ones mint codes from `dict.len()`
    /// up, and both layers decode — with or without a base.
    #[test]
    fn scratch_codes_layer_over_the_store() {
        let s = store();
        let base = s.dict().len() as u32;
        for store in [Some(&s), None] {
            let mut codes = Codes::new(store);
            let start = codes.len() as u32;
            assert_eq!(start, if store.is_some() { base } else { 0 });
            let rows = [tuple![5, "new"], tuple!["new", 200]];
            let b = CodedBatch::intern(2, &rows, &mut codes).unwrap();
            // Equal values share a code, whichever layer minted it.
            assert_eq!(b.row(0)[1], b.row(1)[0]);
            assert_eq!(codes.code(&Value::str("new")), Some(b.row(0)[1]));
            if let Some(s) = store {
                assert_eq!(Some(b.row(0)[0]), s.encode(&Value::int(5)));
                assert_eq!(b.row(0)[1], base);
                assert_eq!(codes.len() as u32, base + 1);
            }
            assert_eq!(codes.code(&Value::int(-1)), None);
            assert_eq!(b.decode(&codes).unwrap().rows(), &rows);
            assert_eq!(b.into_relation(&codes).unwrap().len(), 2);
        }
        let mut codes = Codes::new(None);
        assert!(codes.is_empty());
        assert!(CodedBatch::intern(1, &[tuple![1, 2]], &mut codes).is_err());
    }

    #[test]
    fn coded_conditions_match_decoded_semantics() {
        let s = store();
        let mut codes = Codes::new(Some(&s));
        // One row the store serves, one interned into the scratch layer.
        let mut b = CodedBatch::from_columnar(s.relation(&"R".into()).unwrap());
        b.append(&CodedBatch::intern(2, &[tuple![7, "mid"]], &mut codes).unwrap())
            .unwrap();
        let cases = [
            RowCondition::col_eq_const(0, 5),
            RowCondition::col_eq_const(0, 7), // scratch-interned
            RowCondition::col_eq_const(0, 8), // never interned
            RowCondition::col_cmp_const(0, CmpOp::Gt, 100),
            RowCondition::col_cmp_const(1, CmpOp::Lt, Value::str("m")),
            RowCondition::col_eq(0, 1),
            RowCondition::col_eq_const(0, 5)
                .not()
                .or(RowCondition::col_cmp_const(0, CmpOp::Ge, 200)),
            RowCondition::Cmp(
                Operand::Const(Value::int(9)),
                CmpOp::Ne,
                Operand::Const(Value::int(9)),
            ),
        ];
        for cond in cases {
            let coded = CodedCond::compile(&cond, &codes);
            for i in 0..b.len() {
                let row = b.row(i);
                let decoded: Tuple =
                    Tuple::new(row.iter().map(|&c| codes.value(c).clone()).collect());
                assert_eq!(
                    coded.eval(row, &codes),
                    cond.eval(&decoded).unwrap(),
                    "{cond} on {decoded}"
                );
            }
        }
    }

    #[test]
    fn zero_arity_coded_batches() {
        let mut b = CodedBatch::empty(0);
        b.push(&[]).unwrap();
        b.push(&[]).unwrap();
        assert_eq!(b.len(), 2);
        b.dedup();
        assert_eq!(b.len(), 1);
        let dict = Codes::new(None);
        assert_eq!(b.into_relation(&dict).unwrap(), Relation::r#true());
        assert_eq!(
            CodedBatch::empty(0).into_relation(&dict).unwrap(),
            Relation::r#false()
        );
    }

    /// The decode boundary counts one dictionary decode per result
    /// cell on the store it ran under, in either output form.
    #[test]
    fn coded_output_decodes_once_and_counts_it() {
        let s = store();
        let batch = || CodedBatch::from_columnar(s.relation(&"R".into()).unwrap());
        let before = s.counters().snapshot();
        let out = Coded::new(batch(), Codes::new(Some(&s)));
        assert_eq!((out.arity(), out.len(), out.is_empty()), (2, 2, false));
        let rel = out.into_relation().unwrap();
        assert_eq!(rel.len(), 2);
        let rows = Coded::new(batch(), Codes::new(Some(&s))).decode().unwrap();
        assert_eq!(rows.into_relation(), rel);
        assert_eq!(s.counters().snapshot().since(&before).dict_decodes, 8);
    }

    #[test]
    fn out_of_dictionary_codes_error_instead_of_panicking() {
        // A batch carrying a code the view never minted — e.g. one
        // pushed by hand, or minted under a different view.
        let s = store();
        let codes = Codes::new(Some(&s));
        let stale = codes.len() as u32 + 40;
        let mut b = CodedBatch::empty(1);
        b.push(&[stale]).unwrap();
        assert_eq!(
            b.decode(&codes),
            Err(RelError::UnknownCode {
                code: stale,
                context: "coded batch rows"
            })
        );
        assert_eq!(
            b.clone().into_relation(&codes),
            Err(RelError::UnknownCode {
                code: stale,
                context: "coded result batch"
            })
        );
        // And through the output boundary.
        assert!(matches!(
            Coded::new(b, codes).into_relation(),
            Err(RelError::UnknownCode { .. })
        ));
    }
}
