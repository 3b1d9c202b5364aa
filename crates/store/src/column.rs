//! Dictionary-encoded column vectors.
//!
//! A [`ColumnarRelation`] is the store's resident form of a
//! [`Relation`]: one `Vec<u32>` per attribute position, rows aligned by
//! index, every cell a [`crate::Dictionary`] code. Scans decode lazily —
//! the set-semantics `BTreeSet` representation is never rebuilt unless a
//! caller asks for tuples back.
//!
//! Since PR 5 the columns are **append-plus-tombstone**: updates append
//! rows at the end and mark deleted rows dead in a validity bitmap
//! instead of rewriting the vectors (a row-hash makes the membership
//! probe O(1)), so an update edits rows in place instead of
//! re-encoding the relation. Readers iterate
//! [`ColumnarRelation::live_rows`]; `Store::compact` drops the dead
//! rows for good.

use crate::dict::Dictionary;
use crate::error::StoreError;
use pgq_relational::Relation;
use pgq_value::Tuple;
use std::collections::HashMap;

/// The probe-acceleration side of a [`ColumnarRelation`], built
/// eagerly on the register path and **lazily** on the bulk-load path
/// (PR 9): a ten-million-row `HashMap<Vec<u32>, usize>` costs more to
/// build than the entire columnar load, and pure readers never touch
/// it. The store materializes it on first write
/// ([`ColumnarRelation::ensure_indexes`]).
#[derive(Debug, Clone, Default)]
struct RowIndexes {
    /// Row codes → physical index, so membership probes are O(1)
    /// instead of a column scan. At most one physical row exists per
    /// code vector (sources are set-semantics relations, and the
    /// store's append path revives a tombstoned twin instead of
    /// appending a duplicate), so the map is total over the rows.
    index: HashMap<Vec<u32>, usize>,
    /// First-column code → physical rows starting with it (ascending).
    /// Together with `last` this serves the store's writer-path
    /// prefix/suffix probes (edge endpoints, labels, property rows) in
    /// O(candidates) instead of a full column scan. Empty for
    /// arity < 2, where `index` already answers exact probes.
    /// Tombstoned rows stay listed and are filtered at probe time,
    /// mirroring the validity bitmap.
    first: HashMap<u32, Vec<usize>>,
    /// Last-column code → physical rows ending with it (ascending).
    last: HashMap<u32, Vec<usize>>,
}

/// A relation stored as dictionary-coded columns with a validity
/// bitmap.
#[derive(Debug, Clone, Default)]
pub struct ColumnarRelation {
    arity: usize,
    /// Physical rows, live and tombstoned.
    physical: usize,
    /// Live rows (`physical − tombstones`).
    live: usize,
    /// `columns[p][i]` is the code of row `i`'s position-`p` value.
    columns: Vec<Vec<u32>>,
    /// `dead[i]` marks row `i` tombstoned.
    dead: Vec<bool>,
    /// Probe indexes; `None` until a writer needs them (bulk loads
    /// defer them, probes fall back to scans meanwhile).
    indexes: Option<RowIndexes>,
}

impl ColumnarRelation {
    /// Registers physical row `i` in the first/last-column multimaps.
    /// Rows are indexed exactly once, at append time, so each bucket
    /// lists ascending physical indices. A no-op while the indexes are
    /// deferred.
    fn index_ends(&mut self, i: usize) {
        if self.arity < 2 {
            return;
        }
        let Some(ix) = &mut self.indexes else {
            return;
        };
        ix.first.entry(self.columns[0][i]).or_default().push(i);
        ix.last
            .entry(self.columns[self.arity - 1][i])
            .or_default()
            .push(i);
    }

    /// Whether the probe indexes are materialized (they always are on
    /// the register path; bulk-loaded relations defer them to first
    /// write).
    pub fn has_indexes(&self) -> bool {
        self.indexes.is_some()
    }

    /// Materializes the probe indexes if they are deferred — the
    /// store's writer entry points call this before mutating a
    /// bulk-loaded relation, paying the build cost once instead of on
    /// the load path.
    pub fn ensure_indexes(&mut self) {
        if self.indexes.is_some() {
            return;
        }
        let mut index = HashMap::with_capacity(self.physical);
        for i in 0..self.physical {
            let row: Vec<u32> = (0..self.arity).map(|p| self.columns[p][i]).collect();
            index.insert(row, i);
        }
        self.indexes = Some(RowIndexes {
            index,
            first: HashMap::new(),
            last: HashMap::new(),
        });
        for i in 0..self.physical {
            self.index_ends(i);
        }
    }

    /// Encodes a relation column by column, interning every value.
    /// Fails with [`StoreError::DictionaryFull`] when the dictionary's
    /// code space is exhausted mid-encode.
    pub fn from_relation(rel: &Relation, dict: &mut Dictionary) -> Result<Self, StoreError> {
        let arity = rel.arity();
        let mut columns = vec![Vec::with_capacity(rel.len()); arity];
        let mut index = HashMap::with_capacity(rel.len());
        for (i, t) in rel.iter().enumerate() {
            let mut row = Vec::with_capacity(arity);
            for (p, v) in t.iter().enumerate() {
                let code = dict.intern(v)?;
                columns[p].push(code);
                row.push(code);
            }
            index.insert(row, i);
        }
        let mut col = ColumnarRelation {
            arity,
            physical: rel.len(),
            live: rel.len(),
            columns,
            dead: vec![false; rel.len()],
            indexes: Some(RowIndexes {
                index,
                first: HashMap::new(),
                last: HashMap::new(),
            }),
        };
        for i in 0..col.physical {
            col.index_ends(i);
        }
        Ok(col)
    }

    /// Builds a unary relation directly from codes — used by the store
    /// to refresh the frozen active domain after updates without a
    /// decode/re-encode round trip, and by the bulk loader for the
    /// active-domain relation. The codes must be distinct (both
    /// callers produce deduplicated code sets). Probe indexes are
    /// deferred.
    pub fn unary_from_codes(codes: Vec<u32>) -> Self {
        let n = codes.len();
        ColumnarRelation {
            arity: 1,
            physical: n,
            live: n,
            dead: vec![false; n],
            columns: vec![codes],
            indexes: None,
        }
    }

    /// Builds a relation directly from pre-encoded, equally long,
    /// duplicate-free code columns — the zero-materialization bulk
    /// path: no `Value` rows, no interning, no probe indexes (they are
    /// deferred to first write).
    pub fn from_codes(arity: usize, columns: Vec<Vec<u32>>) -> Self {
        assert_eq!(columns.len(), arity, "one code vector per position");
        let n = columns.first().map_or(0, Vec::len);
        assert!(columns.iter().all(|c| c.len() == n), "ragged code columns");
        ColumnarRelation {
            arity,
            physical: n,
            live: n,
            dead: vec![false; n],
            columns,
            indexes: None,
        }
    }

    /// Attribute count.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of **live** rows — the semantic row count every scan and
    /// stats line reports.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the relation holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Physical rows resident, tombstoned ones included.
    pub fn physical_len(&self) -> usize {
        self.physical
    }

    /// Tombstoned (dead but still resident) rows — reclaimed by
    /// `Store::compact`.
    pub fn tombstones(&self) -> usize {
        self.physical - self.live
    }

    /// Whether physical row `i` is live.
    pub fn is_live(&self, i: usize) -> bool {
        !self.dead[i]
    }

    /// Iterates the physical indices of live rows, in insertion order.
    pub fn live_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.physical).filter(|&i| !self.dead[i])
    }

    /// The code at `(physical row, position)` — dead rows included;
    /// pair with [`ColumnarRelation::is_live`] when iterating raw.
    pub fn code_at(&self, row: usize, position: usize) -> u32 {
        self.columns[position][row]
    }

    /// Borrows one coded column (physical layout, dead rows included).
    pub fn column(&self, position: usize) -> &[u32] {
        &self.columns[position]
    }

    /// Appends a live row of codes. The caller guarantees the arity,
    /// that no physical row (live or dead) already holds these codes —
    /// the store's append path probes [`ColumnarRelation::find_live`]
    /// / [`ColumnarRelation::find_dead`] first — and that the probe
    /// indexes are materialized ([`ColumnarRelation::ensure_indexes`];
    /// the store's writer entry points do so).
    pub fn append(&mut self, codes: &[u32]) {
        debug_assert_eq!(codes.len(), self.arity);
        for (p, &c) in codes.iter().enumerate() {
            self.columns[p].push(c);
        }
        if let Some(ix) = &mut self.indexes {
            debug_assert!(!ix.index.contains_key(codes));
            ix.index.insert(codes.to_vec(), self.physical);
        }
        self.dead.push(false);
        self.physical += 1;
        self.live += 1;
        self.index_ends(self.physical - 1);
    }

    /// Physical index of the first **live** row equal to `codes`.
    pub fn find_live(&self, codes: &[u32]) -> Option<usize> {
        self.find_where(codes, false)
    }

    /// Physical index of the first **tombstoned** row equal to `codes`
    /// — revived instead of re-appended so churn does not grow the
    /// columns without bound.
    pub fn find_dead(&self, codes: &[u32]) -> Option<usize> {
        self.find_where(codes, true)
    }

    fn find_where(&self, codes: &[u32], dead: bool) -> Option<usize> {
        if codes.len() != self.arity {
            return None;
        }
        match &self.indexes {
            Some(ix) => ix
                .index
                .get(codes)
                .copied()
                .filter(|&i| self.dead[i] == dead),
            // Deferred indexes (bulk load, read-only so far): scan.
            None => (0..self.physical).find(|&i| {
                self.dead[i] == dead && (0..self.arity).all(|p| self.columns[p][i] == codes[p])
            }),
        }
    }

    /// Live physical rows whose first `prefix.len()` codes equal
    /// `prefix`, ascending, plus the number of candidate rows the probe
    /// examined (the store's access accounting). Candidates come from
    /// the first-column inverted index — O(rows sharing the leading
    /// code), not O(relation) — except for full-arity probes, which the
    /// exact row index answers directly.
    pub fn live_rows_with_prefix(&self, prefix: &[u32]) -> (Vec<usize>, usize) {
        self.live_rows_matching(prefix, false)
    }

    /// Live physical rows whose last `suffix.len()` codes equal
    /// `suffix`, ascending, plus the candidate count — the dual of
    /// [`ColumnarRelation::live_rows_with_prefix`] through the
    /// last-column inverted index.
    pub fn live_rows_with_suffix(&self, suffix: &[u32]) -> (Vec<usize>, usize) {
        self.live_rows_matching(suffix, true)
    }

    fn live_rows_matching(&self, part: &[u32], from_end: bool) -> (Vec<usize>, usize) {
        let len = part.len();
        if len == 0 {
            let rows: Vec<usize> = self.live_rows().collect();
            let n = rows.len();
            return (rows, n);
        }
        if len > self.arity {
            return (Vec::new(), 0);
        }
        if len == self.arity {
            // Exact probe: the row-hash index answers in one lookup
            // (or one scan while the indexes are deferred).
            let cands = if self.indexes.is_some() {
                1
            } else {
                self.physical
            };
            return (self.find_live(part).into_iter().collect(), cands);
        }
        let base = if from_end { self.arity - len } else { 0 };
        let Some(ix) = &self.indexes else {
            // Deferred indexes: scan every physical row.
            let rows: Vec<usize> = (0..self.physical)
                .filter(|&i| {
                    !self.dead[i] && (0..len).all(|p| self.columns[base + p][i] == part[p])
                })
                .collect();
            return (rows, self.physical);
        };
        let bucket = if from_end {
            ix.last.get(&part[len - 1])
        } else {
            ix.first.get(&part[0])
        };
        let Some(bucket) = bucket else {
            return (Vec::new(), 0);
        };
        let rows = bucket
            .iter()
            .copied()
            .filter(|&i| !self.dead[i] && (0..len).all(|p| self.columns[base + p][i] == part[p]))
            .collect();
        (rows, bucket.len())
    }

    /// Tombstones physical row `i`; `false` when it was already dead.
    pub fn tombstone(&mut self, i: usize) -> bool {
        if self.dead[i] {
            return false;
        }
        self.dead[i] = true;
        self.live -= 1;
        true
    }

    /// Revives tombstoned physical row `i`; `false` when it was live.
    pub fn revive(&mut self, i: usize) -> bool {
        if !self.dead[i] {
            return false;
        }
        self.dead[i] = false;
        self.live += 1;
        true
    }

    /// Decodes physical row `i` back into a tuple.
    pub fn decode_row(&self, i: usize, dict: &Dictionary) -> Tuple {
        Tuple::new(
            self.columns
                .iter()
                .map(|col| dict.value(col[i]).clone())
                .collect(),
        )
    }

    /// Decodes every **live** row, in stored order.
    pub fn decode_rows(&self, dict: &Dictionary) -> Vec<Tuple> {
        self.live_rows().map(|i| self.decode_row(i, dict)).collect()
    }

    /// Drops tombstoned rows and rewrites every surviving code through
    /// `remap` (old code → new code) — the per-relation step of
    /// `Store::compact`. Returns the number of rows dropped.
    pub fn compact_remap(&mut self, remap: &mut dyn FnMut(u32) -> u32) -> usize {
        let dropped = self.tombstones();
        let keep: Vec<usize> = self.live_rows().collect();
        for col in &mut self.columns {
            let mut next = Vec::with_capacity(keep.len());
            for &i in &keep {
                next.push(remap(col[i]));
            }
            *col = next;
        }
        self.physical = keep.len();
        self.live = keep.len();
        self.dead = vec![false; keep.len()];
        // Rebuild the probe indexes only if they were materialized;
        // deferred stays deferred (the compacted relation has had no
        // writes either).
        if self.indexes.is_some() {
            self.indexes = None;
            self.ensure_indexes();
        }
        dropped
    }

    /// Approximate resident size in bytes (codes only, tombstoned rows
    /// included — they stay resident until compaction; the dictionary
    /// is shared store-wide and accounted for separately).
    pub fn coded_bytes(&self) -> usize {
        self.physical * self.arity * std::mem::size_of::<u32>()
    }

    /// Estimated resident bytes of the probe indexes (0 while
    /// deferred): the row-hash map with its heap-allocated key vectors
    /// plus the two end-column multimaps.
    pub fn index_bytes(&self) -> usize {
        let Some(ix) = &self.indexes else {
            return 0;
        };
        let key = std::mem::size_of::<Vec<u32>>() + self.arity * std::mem::size_of::<u32>();
        let row_map = ix.index.capacity() * (key + std::mem::size_of::<usize>() + 8);
        let bucket_entry = std::mem::size_of::<u32>() + std::mem::size_of::<Vec<usize>>() + 8;
        let end_maps = (ix.first.capacity() + ix.last.capacity()) * bucket_entry
            + (ix.first.values().map(Vec::len).sum::<usize>()
                + ix.last.values().map(Vec::len).sum::<usize>())
                * std::mem::size_of::<usize>();
        row_map + end_maps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_value::tuple;

    #[test]
    fn roundtrip_preserves_rows() {
        let rel = Relation::from_rows(2, [tuple![1, "a"], tuple![2, "b"], tuple![1, "b"]]).unwrap();
        let mut dict = Dictionary::new();
        let col = ColumnarRelation::from_relation(&rel, &mut dict).unwrap();
        assert_eq!(col.arity(), 2);
        assert_eq!(col.len(), 3);
        assert_eq!(dict.len(), 4); // 1, 2, "a", "b"
        let back = Relation::from_rows(2, col.decode_rows(&dict)).unwrap();
        assert_eq!(back, rel);
        assert_eq!(col.coded_bytes(), 3 * 2 * 4);
    }

    #[test]
    fn zero_arity_and_empty() {
        let mut dict = Dictionary::new();
        let truth = ColumnarRelation::from_relation(&Relation::r#true(), &mut dict).unwrap();
        assert_eq!(truth.arity(), 0);
        assert_eq!(truth.len(), 1);
        assert_eq!(truth.decode_rows(&dict), vec![Tuple::empty()]);
        let none = ColumnarRelation::from_relation(&Relation::empty(3), &mut dict).unwrap();
        assert!(none.is_empty());
        assert_eq!(none.decode_rows(&dict), Vec::<Tuple>::new());
    }

    #[test]
    fn end_indexes_answer_prefix_and_suffix_probes() {
        let rel = Relation::from_rows(
            3,
            [
                tuple!["e1", "a", "x"],
                tuple!["e1", "b", "x"],
                tuple!["e2", "a", "y"],
            ],
        )
        .unwrap();
        let mut dict = Dictionary::new();
        let mut col = ColumnarRelation::from_relation(&rel, &mut dict).unwrap();
        let code = |v: &str| dict.code(&pgq_value::Value::str(v)).unwrap();
        let (rows, cands) = col.live_rows_with_prefix(&[code("e1")]);
        assert_eq!(rows.len(), 2);
        assert_eq!(cands, 2);
        let (rows, _) = col.live_rows_with_prefix(&[code("e1"), code("b")]);
        assert_eq!(rows.len(), 1);
        let (rows, cands) = col.live_rows_with_suffix(&[code("x")]);
        assert_eq!((rows.len(), cands), (2, 2));
        let (rows, _) = col.live_rows_with_suffix(&[code("a"), code("y")]);
        assert_eq!(rows, vec![2]);
        // Full-arity probes route through the exact row index.
        let full = [code("e2"), code("a"), code("y")];
        assert_eq!(col.live_rows_with_prefix(&full).0, vec![2]);
        // Over-arity and unknown codes answer empty.
        assert!(col.live_rows_with_prefix(&[0, 1, 2, 3]).0.is_empty());
        assert!(col.live_rows_with_suffix(&[u32::MAX]).0.is_empty());
        // Tombstones are filtered at probe time but stay candidates;
        // compaction drops them from the buckets for good.
        col.tombstone(0);
        let (rows, cands) = col.live_rows_with_prefix(&[code("e1")]);
        assert_eq!((rows.len(), cands), (1, 2));
        col.compact_remap(&mut |c| c);
        let e1 = col.code_at(0, 0);
        let (rows, cands) = col.live_rows_with_prefix(&[e1]);
        assert_eq!((rows.len(), cands), (1, 1));
    }

    #[test]
    fn deferred_indexes_scan_until_ensured() {
        let mut col = ColumnarRelation::from_codes(2, vec![vec![1, 2, 1], vec![9, 9, 7]]);
        assert!(!col.has_indexes());
        assert_eq!(col.len(), 3);
        assert_eq!(col.index_bytes(), 0);
        // Probes answer by scan while deferred…
        assert_eq!(col.find_live(&[2, 9]), Some(1));
        assert_eq!(col.find_live(&[2, 7]), None);
        let (rows, cands) = col.live_rows_with_prefix(&[1]);
        assert_eq!((rows.clone(), cands), (vec![0, 2], 3));
        let (srows, _) = col.live_rows_with_suffix(&[9]);
        assert_eq!(srows, vec![0, 1]);
        // …and identically once materialized.
        col.ensure_indexes();
        assert!(col.has_indexes());
        assert!(col.index_bytes() > 0);
        assert_eq!(col.find_live(&[2, 9]), Some(1));
        assert_eq!(col.live_rows_with_prefix(&[1]).0, rows);
        assert_eq!(col.live_rows_with_suffix(&[9]).0, srows);
        // Writes after ensure keep the indexes coherent.
        col.append(&[5, 5]);
        assert_eq!(col.find_live(&[5, 5]), Some(3));
    }

    #[test]
    fn append_tombstone_revive() {
        let rel = Relation::from_rows(2, [tuple![1, 2]]).unwrap();
        let mut dict = Dictionary::new();
        let mut col = ColumnarRelation::from_relation(&rel, &mut dict).unwrap();
        let c3 = dict.intern(&pgq_value::Value::int(3)).unwrap();
        let c1 = dict.intern(&pgq_value::Value::int(1)).unwrap();
        col.append(&[c1, c3]);
        assert_eq!(col.len(), 2);
        assert_eq!(col.physical_len(), 2);
        let row = col.find_live(&[c1, c3]).unwrap();
        assert!(col.tombstone(row));
        assert!(!col.tombstone(row));
        assert_eq!(col.len(), 1);
        assert_eq!(col.tombstones(), 1);
        assert_eq!(col.decode_rows(&dict).len(), 1);
        assert_eq!(col.find_live(&[c1, c3]), None);
        assert_eq!(col.find_dead(&[c1, c3]), Some(row));
        assert!(col.revive(row));
        assert!(!col.revive(row));
        assert_eq!(col.len(), 2);
        // Tombstoned rows stay resident until compaction.
        col.tombstone(row);
        assert_eq!(col.coded_bytes(), 2 * 2 * 4);
        let dropped = col.compact_remap(&mut |c| c);
        assert_eq!(dropped, 1);
        assert_eq!(col.physical_len(), 1);
        assert_eq!(col.coded_bytes(), 2 * 4);
    }
}
