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
//!
//! A relation's probe indexes follow one rule: the first probe that
//! needs them ([`ColumnarRelation::find_live`] and friends — only the
//! store's writer calls them) builds them, and nothing else does.
//! Registration and bulk loads build none, so a relation no writer
//! touches carries its coded columns and nothing more. Once built they
//! follow the store's copy-on-write rule: an `Arc`-shared base over the
//! rows indexed at build time plus an owned tail over rows appended
//! since, so a copy of the relation copies its flat columns, its bitmap
//! and the tail — never the per-row maps of the base.

use crate::dict::Dictionary;
use crate::error::StoreError;
use crate::store::overlay_oversized;
use pgq_relational::Relation;
use pgq_value::Tuple;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One side of a [`RowIndexes`]: probe maps over a range of rows.
#[derive(Debug, Clone, Default)]
struct RowMaps {
    /// Row codes → physical index, so membership probes are O(1)
    /// instead of a column scan. At most one physical row exists per
    /// code vector (sources are set-semantics relations, and the
    /// store's append path revives a tombstoned twin instead of
    /// appending a duplicate), so the map is total over its rows.
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

impl RowMaps {
    fn insert(&mut self, codes: &[u32], row: usize) {
        self.index.insert(codes.to_vec(), row);
        if let [first, .., last] = *codes {
            self.first.entry(first).or_default().push(row);
            self.last.entry(last).or_default().push(row);
        }
    }

    fn ends(&self, from_end: bool) -> &HashMap<u32, Vec<usize>> {
        if from_end {
            &self.last
        } else {
            &self.first
        }
    }

    fn bytes(&self, arity: usize) -> usize {
        let key = std::mem::size_of::<Vec<u32>>() + arity * std::mem::size_of::<u32>();
        let row_map = self.index.capacity() * (key + std::mem::size_of::<usize>() + 8);
        let bucket_entry = std::mem::size_of::<u32>() + std::mem::size_of::<Vec<usize>>() + 8;
        let end_maps = (self.first.capacity() + self.last.capacity()) * bucket_entry
            + (self.first.values().map(Vec::len).sum::<usize>()
                + self.last.values().map(Vec::len).sum::<usize>())
                * std::mem::size_of::<usize>();
        row_map + end_maps
    }
}

/// The probe-acceleration side of a [`ColumnarRelation`], built by the
/// first writer probe that needs it (a ten-million-row
/// `HashMap<Vec<u32>, usize>` costs more to build than the entire
/// columnar load, and pure readers never touch it): an `Arc`-shared
/// base over the rows indexed at build time plus an owned tail over
/// the rows appended since. Tombstones and revivals change neither.
#[derive(Debug, Clone)]
struct RowIndexes {
    base: Arc<RowMaps>,
    tail: RowMaps,
}

impl RowIndexes {
    fn row(&self, codes: &[u32]) -> Option<usize> {
        self.base
            .index
            .get(codes)
            .or_else(|| self.tail.index.get(codes))
            .copied()
    }

    /// The rows whose first (or, `from_end`, last) column holds `code`,
    /// ascending: the base's rows precede every tail row.
    fn bucket(&self, code: u32, from_end: bool) -> impl Iterator<Item = usize> + '_ {
        let base = self.base.ends(from_end).get(&code);
        let tail = self.tail.ends(from_end).get(&code);
        base.into_iter().chain(tail).flatten().copied()
    }
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
    /// Probe indexes, empty until the first probe builds them.
    indexes: OnceLock<RowIndexes>,
}

impl ColumnarRelation {
    /// The probe indexes, built over every physical row on first use.
    fn indexes(&self) -> &RowIndexes {
        self.indexes.get_or_init(|| self.build_indexes())
    }

    /// The one index builder: one pass over the rows in ascending order,
    /// so every bucket is sorted; the result is all base. Out of line,
    /// so `OnceLock`'s cold initialisation path does not absorb the
    /// loop.
    #[inline(never)]
    fn build_indexes(&self) -> RowIndexes {
        let mut maps = RowMaps {
            index: HashMap::with_capacity(self.physical),
            ..RowMaps::default()
        };
        let mut row = vec![0; self.arity];
        for i in 0..self.physical {
            for (p, code) in row.iter_mut().enumerate() {
                *code = self.columns[p][i];
            }
            maps.insert(&row, i);
        }
        RowIndexes {
            base: Arc::new(maps),
            tail: RowMaps::default(),
        }
    }

    /// Whether a probe has built the indexes yet.
    pub fn has_indexes(&self) -> bool {
        self.indexes.get().is_some()
    }

    /// Encodes a relation column by column, interning every value.
    /// Fails with [`StoreError::DictionaryFull`] when the dictionary's
    /// code space is exhausted mid-encode.
    pub fn from_relation(rel: &Relation, dict: &mut Dictionary) -> Result<Self, StoreError> {
        let n = rel.len();
        let mut columns = vec![Vec::with_capacity(n); rel.arity()];
        for t in rel.iter() {
            for (p, v) in t.iter().enumerate() {
                columns[p].push(dict.intern(v)?);
            }
        }
        Ok(ColumnarRelation {
            arity: rel.arity(),
            physical: n,
            live: n,
            columns,
            dead: vec![false; n],
            indexes: OnceLock::new(),
        })
    }

    /// Builds a relation directly from pre-encoded, equally long,
    /// duplicate-free code columns — the zero-materialization bulk
    /// path and the derived active domain: no `Value` rows, no
    /// interning.
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
            indexes: OnceLock::new(),
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

    /// Appends a live row of codes. The caller guarantees the arity
    /// and that no physical row (live or dead) already holds these
    /// codes — the store's append path probes
    /// [`ColumnarRelation::find_live`] / [`ColumnarRelation::find_dead`]
    /// first. Built indexes record the row in their tail, which folds
    /// into a fresh base once it outgrows the overlay policy.
    pub fn append(&mut self, codes: &[u32]) {
        debug_assert_eq!(codes.len(), self.arity);
        for (p, &c) in codes.iter().enumerate() {
            self.columns[p].push(c);
        }
        let fold = self.indexes.get_mut().is_some_and(|ix| {
            debug_assert!(ix.row(codes).is_none());
            ix.tail.insert(codes, self.physical);
            overlay_oversized(ix.tail.index.len(), ix.base.index.len())
        });
        self.dead.push(false);
        self.physical += 1;
        self.live += 1;
        if fold {
            self.indexes = OnceLock::from(self.build_indexes());
        }
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
        self.indexes().row(codes).filter(|&i| self.dead[i] == dead)
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
            // Exact probe: the row-hash index answers in one lookup.
            return (self.find_live(part).into_iter().collect(), 1);
        }
        let base = if from_end { self.arity - len } else { 0 };
        let key = if from_end { part[len - 1] } else { part[0] };
        let mut candidates = 0;
        let rows = self
            .indexes()
            .bucket(key, from_end)
            .inspect(|_| candidates += 1)
            .filter(|&i| !self.dead[i] && (0..len).all(|p| self.columns[base + p][i] == part[p]))
            .collect();
        (rows, candidates)
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

    /// The relation without its tombstoned rows, every surviving code
    /// rewritten through `remap` (old code → new code, called column by
    /// column in row order) — the per-relation step of
    /// `Store::compact`. Probe indexes are built (all base) exactly
    /// when this relation carried them.
    pub fn compacted(&self, remap: &mut dyn FnMut(u32) -> u32) -> ColumnarRelation {
        let keep: Vec<usize> = self.live_rows().collect();
        let columns = self
            .columns
            .iter()
            .map(|col| keep.iter().map(|&i| remap(col[i])).collect())
            .collect();
        let n = keep.len();
        let out = ColumnarRelation {
            arity: self.arity,
            physical: n,
            live: n,
            columns,
            dead: vec![false; n],
            indexes: OnceLock::new(),
        };
        if self.has_indexes() {
            out.indexes();
        }
        out
    }

    /// Approximate resident size in bytes (codes only, tombstoned rows
    /// included — they stay resident until compaction; the dictionary
    /// is shared store-wide and accounted for separately).
    pub fn coded_bytes(&self) -> usize {
        self.physical * self.arity * std::mem::size_of::<u32>()
    }

    /// Estimated resident bytes of the probe indexes (0 until a probe
    /// builds them): the row-hash map with its heap-allocated key
    /// vectors plus the two end-column multimaps.
    pub fn index_bytes(&self) -> usize {
        self.indexes.get().map_or(0, |ix| {
            ix.base.bytes(self.arity) + ix.tail.bytes(self.arity)
        })
    }

    /// Whether both relations' probe indexes are built over one shared
    /// base.
    #[cfg(test)]
    pub(crate) fn shares_index_base(&self, other: &Self) -> bool {
        match (self.indexes.get(), other.indexes.get()) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a.base, &b.base),
            _ => false,
        }
    }

    /// Rows the probe-index tail holds (0 when unbuilt).
    #[cfg(test)]
    pub(crate) fn index_tail_len(&self) -> usize {
        self.indexes.get().map_or(0, |ix| ix.tail.index.len())
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
        let col = col.compacted(&mut |c| c);
        assert!(col.has_indexes());
        let e1 = col.code_at(0, 0);
        let (rows, cands) = col.live_rows_with_prefix(&[e1]);
        assert_eq!((rows.len(), cands), (1, 1));
    }

    #[test]
    fn the_first_probe_builds_the_indexes() {
        let mut col = ColumnarRelation::from_codes(2, vec![vec![1, 2, 1], vec![9, 9, 7]]);
        // An append before any probe leaves the indexes unbuilt…
        col.append(&[5, 5]);
        assert!(!col.has_indexes());
        assert_eq!(col.index_bytes(), 0);
        // …and the first probe builds them over every physical row.
        assert_eq!(col.find_live(&[2, 9]), Some(1));
        assert!(col.has_indexes());
        assert!(col.index_bytes() > 0);
        assert_eq!(col.find_live(&[5, 5]), Some(3));
        assert_eq!(col.find_live(&[2, 7]), None);
        assert_eq!(col.live_rows_with_prefix(&[1]), (vec![0, 2], 2));
        assert_eq!(col.live_rows_with_suffix(&[9]).0, vec![0, 1]);
        // Appends after the build keep the indexes coherent.
        col.append(&[6, 9]);
        assert_eq!(col.find_live(&[6, 9]), Some(4));
        assert_eq!(col.live_rows_with_suffix(&[9]).0, vec![0, 1, 4]);
        // Registration builds nothing either.
        let rel = Relation::from_rows(1, [tuple![1]]).unwrap();
        let reg = ColumnarRelation::from_relation(&rel, &mut Dictionary::new()).unwrap();
        assert!(!reg.has_indexes());
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
        assert_eq!(col.tombstones(), 1);
        let col = col.compacted(&mut |c| c);
        assert_eq!(col.physical_len(), 1);
        assert_eq!(col.coded_bytes(), 2 * 4);
    }
}
