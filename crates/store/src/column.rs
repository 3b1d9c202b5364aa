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
//! instead of rewriting the vectors (a row table makes the membership
//! probe O(1)), so an update edits rows in place instead of
//! re-encoding the relation. Readers iterate
//! [`ColumnarRelation::live_rows`]; `Store::compact` drops the dead
//! rows for good.
//!
//! A relation's probe indexes follow one rule: the first probe that
//! needs them ([`ColumnarRelation::find_live`] and friends — only the
//! store's writer calls them) builds them, and nothing else does.
//! Registration and bulk loads build none, so a relation no writer
//! touches carries its coded columns and nothing more. They allocate
//! nothing per row: the rows are interned in a [`RowTable`] whose ids
//! are the physical rows, and each end column keeps its postings as
//! chains — a code's newest row, and per row the next older row with
//! its code. Once built they follow the store's copy-on-write rule: an
//! `Arc`-shared base over the rows indexed at build time plus an owned
//! tail over rows appended since, whose chains run on into the base's,
//! so a copy of the relation copies its flat columns, its bitmap and
//! the tail's flat arrays — never the base.
//!
//! The planner's per-column distinct counts live here too
//! ([`ColumnarRelation::distinct_counts`]): the first statistics read
//! counts them, and from then on every append, revive and tombstone
//! keeps them exact — an end column by walking its chain for another
//! live holder of the code, a middle column (which has no chain), or an
//! end column whose walks run long, through a live count per code. A
//! copy carries them, and so does a compaction.

use crate::dict::Dictionary;
use crate::error::StoreError;
use crate::rows::RowTable;
use crate::store::overlay_oversized;
use pgq_relational::Relation;
use pgq_value::Tuple;
use std::sync::{Arc, OnceLock};

/// The end of a chain: no older row.
const NONE: u32 = u32::MAX;

/// Rows a distinct-count chain walk passes before its column keeps a
/// live-count table instead. A code that many rows hold (the table name
/// in a `(table, key)` identifier, a label) whose newest rows are
/// deleted would otherwise be walked past them on every write.
const WALK: usize = 64;

/// One end column's postings as chains: `newest[c]` is the newest row
/// holding the code whose id in `codes` is `c`, and `next[r − start]`
/// the next older row holding row `r`'s code, or [`NONE`]. A tail's
/// chain runs on into its base's, so one walk visits every row with the
/// code, descending, and an append allocates nothing of its own.
#[derive(Debug, Clone)]
struct Chains {
    codes: RowTable,
    newest: Vec<u32>,
    next: Vec<u32>,
}

impl Chains {
    fn newest(&self, code: u32) -> Option<u32> {
        self.codes.find(&[code]).map(|id| self.newest[id as usize])
    }

    /// Makes `row` the newest holder of `code`; a code new here links
    /// to its newest row `below`.
    fn push(&mut self, code: u32, row: u32, below: Option<&Chains>) {
        let older = match self.codes.insert(&[code]) {
            (id, false) => std::mem::replace(&mut self.newest[id as usize], row),
            (_, true) => {
                self.newest.push(row);
                below.and_then(|b| b.newest(code)).unwrap_or(NONE)
            }
        };
        self.next.push(older);
    }

    fn bytes(&self) -> usize {
        self.codes.bytes() + (self.newest.capacity() + self.next.capacity()) * 4
    }
}

/// One side of a [`RowIndexes`], over the physical rows `start..`: the
/// rows interned in `rows` (a row's id is its physical row − `start`)
/// and the postings of the first and the last column, which serve the
/// writer's prefix/suffix probes (edge endpoints, labels, property
/// rows) in O(candidates); they stay empty for arity < 2. At most one
/// physical row exists per code vector (sources are set-semantics
/// relations, and the store's append path revives a tombstoned twin
/// instead of appending a duplicate), so inserting a present row
/// panics. Tombstoned rows stay listed and are filtered at probe time.
#[derive(Debug, Clone)]
struct RowMaps {
    start: u32,
    rows: RowTable,
    ends: [Chains; 2],
}

impl RowMaps {
    /// Empty maps over the rows from physical row `start` on, sized
    /// for `rows` of them.
    fn new(arity: usize, start: usize, rows: usize) -> Self {
        let chains = || Chains {
            codes: RowTable::with_capacity(1, 0),
            newest: Vec::new(),
            next: Vec::with_capacity(if arity < 2 { 0 } else { rows }),
        };
        RowMaps {
            start: u32::try_from(start).expect("fewer than u32::MAX rows"),
            rows: RowTable::with_capacity(arity, rows),
            ends: [chains(), chains()],
        }
    }

    /// Adds the next physical row; `below` is the base a tail's chains
    /// run on into.
    fn insert(&mut self, codes: &[u32], below: Option<&RowMaps>) {
        let (id, new) = self.rows.insert(codes);
        assert!(new, "a row indexed twice");
        if let [first, .., last] = *codes {
            for (end, code) in [first, last].into_iter().enumerate() {
                let below = below.map(|b| &b.ends[end]);
                self.ends[end].push(code, self.start + id, below);
            }
        }
    }

    fn row(&self, codes: &[u32]) -> Option<usize> {
        self.rows.find(codes).map(|id| (self.start + id) as usize)
    }

    fn bytes(&self) -> usize {
        self.rows.bytes() + self.ends.iter().map(Chains::bytes).sum::<usize>()
    }
}

/// The probe-acceleration side of a [`ColumnarRelation`], built by the
/// first writer probe that needs it (pure readers never touch it): an
/// `Arc`-shared base over the rows indexed at build time plus an owned
/// tail over the rows appended since. Tombstones and revivals change
/// neither.
#[derive(Debug, Clone)]
struct RowIndexes {
    base: Arc<RowMaps>,
    tail: RowMaps,
}

impl RowIndexes {
    fn row(&self, codes: &[u32]) -> Option<usize> {
        self.base.row(codes).or_else(|| self.tail.row(codes))
    }

    fn append(&mut self, codes: &[u32]) {
        debug_assert!(self.base.row(codes).is_none());
        self.tail.insert(codes, Some(&self.base));
    }

    /// The newest row whose first (`end` 0) or last (`end` 1) column
    /// holds `code`, or [`NONE`].
    fn newest(&self, code: u32, end: usize) -> u32 {
        (self.tail.ends[end].newest(code))
            .or_else(|| self.base.ends[end].newest(code))
            .unwrap_or(NONE)
    }

    /// The next older row holding `row`'s code in column `end`.
    fn older(&self, row: u32, end: usize) -> u32 {
        let side = if row >= self.tail.start {
            &self.tail
        } else {
            &*self.base
        };
        side.ends[end].next[(row - side.start) as usize]
    }

    /// Whether a live row other than `except` holds `code` in column
    /// `end`: a walk down the code's chain to its first live row, or
    /// `None` once it has passed [`WALK`] other rows without one.
    fn held_elsewhere(&self, code: u32, end: usize, except: usize, dead: &[bool]) -> Option<bool> {
        let mut row = self.newest(code, end);
        for _ in 0..=WALK {
            if row == NONE {
                return Some(false);
            }
            if row as usize != except && !dead[row as usize] {
                return Some(true);
            }
            row = self.older(row, end);
        }
        None
    }
}

/// Live rows per code, for the codes a [`RowTable`] holds.
#[derive(Debug, Clone)]
struct Counts {
    codes: RowTable,
    live: Vec<u32>,
}

impl Counts {
    fn new() -> Self {
        Counts {
            codes: RowTable::with_capacity(1, 0),
            live: Vec::new(),
        }
    }

    fn get(&self, code: u32) -> Option<u32> {
        self.codes.find(&[code]).map(|id| self.live[id as usize])
    }

    fn set(&mut self, code: u32, live: u32) {
        match self.codes.insert(&[code]) {
            (id, false) => self.live[id as usize] = live,
            (_, true) => self.live.push(live),
        }
    }

    fn bytes(&self) -> usize {
        self.codes.bytes() + self.live.capacity() * 4
    }
}

/// Live rows per code of one column: the distinct count of a column
/// with no chains to walk. It follows the store's copy-on-write rule:
/// an `Arc`-shared base plus an owned tail holding the codes counted
/// since, folded into a fresh base under the overlay fold policy, so a
/// copy of the relation does not copy the base.
#[derive(Debug, Clone)]
struct CodeCounts {
    base: Arc<Counts>,
    tail: Counts,
}

impl CodeCounts {
    /// Counts the live rows of `column`.
    fn over(column: &[u32], dead: &[bool]) -> Self {
        let mut base = Counts::new();
        for (&code, _) in column.iter().zip(dead).filter(|(_, &dead)| !dead) {
            base.set(code, base.get(code).unwrap_or(0) + 1);
        }
        CodeCounts {
            base: Arc::new(base),
            tail: Counts::new(),
        }
    }

    /// Counts one more (`added`) or one fewer live row holding `code`;
    /// `true` when the code gained its first or lost its last one.
    fn add(&mut self, code: u32, added: bool) -> bool {
        let live = (self.tail.get(code))
            .or_else(|| self.base.get(code))
            .unwrap_or(0);
        let now = if added { live + 1 } else { live - 1 };
        self.tail.set(code, now);
        if overlay_oversized(self.tail.codes.len(), self.base.codes.len()) {
            let mut base = Counts::clone(&self.base);
            for (id, &live) in self.tail.live.iter().enumerate() {
                base.set(self.tail.codes.row(id as u32)[0], live);
            }
            self.base = Arc::new(base);
            self.tail = Counts::new();
        }
        (live == 0) != (now == 0)
    }

    fn bytes(&self) -> usize {
        self.base.bytes() + self.tail.bytes()
    }
}

/// The distinct live codes per column, once a statistics read has
/// counted them.
#[derive(Debug, Clone)]
struct Distinct {
    counts: Vec<usize>,
    /// Per column, the [`CodeCounts`] that keeps its count, or `None`
    /// while its chain does. A middle column (positions `1..arity − 1`)
    /// has no chain and gets its table from the first write after the
    /// count; an end column gets one from the first write whose chain
    /// walk runs past [`WALK`] rows.
    tables: Vec<Option<CodeCounts>>,
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
    /// Distinct counts, empty until the first statistics read.
    distinct: OnceLock<Distinct>,
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
        let mut maps = RowMaps::new(self.arity, 0, self.physical);
        let mut row = vec![0; self.arity];
        for i in 0..self.physical {
            for (p, code) in row.iter_mut().enumerate() {
                *code = self.columns[p][i];
            }
            maps.insert(&row, None);
        }
        RowIndexes {
            base: Arc::new(maps),
            tail: RowMaps::new(self.arity, self.physical, 0),
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
            distinct: OnceLock::new(),
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
            distinct: OnceLock::new(),
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
            ix.append(codes);
            overlay_oversized(ix.tail.rows.len(), ix.base.rows.len())
        });
        self.dead.push(false);
        self.physical += 1;
        self.live += 1;
        if fold {
            self.indexes = OnceLock::from(self.build_indexes());
        }
        self.recount_row(self.physical - 1, true);
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
        let (ix, end) = (self.indexes(), usize::from(from_end));
        let (mut rows, mut candidates) = (Vec::new(), 0);
        let mut row = ix.newest(key, end);
        while row != NONE {
            let i = row as usize;
            candidates += 1;
            if !self.dead[i] && (0..len).all(|p| self.columns[base + p][i] == part[p]) {
                rows.push(i);
            }
            row = ix.older(row, end);
        }
        // The chains run newest first.
        rows.reverse();
        (rows, candidates)
    }

    /// Tombstones physical row `i`; `false` when it was already dead.
    pub fn tombstone(&mut self, i: usize) -> bool {
        if self.dead[i] {
            return false;
        }
        self.dead[i] = true;
        self.live -= 1;
        self.recount_row(i, false);
        true
    }

    /// Revives tombstoned physical row `i`; `false` when it was live.
    pub fn revive(&mut self, i: usize) -> bool {
        if !self.dead[i] {
            return false;
        }
        self.dead[i] = false;
        self.live += 1;
        self.recount_row(i, true);
        true
    }

    /// The distinct live codes per column, counted on the first call
    /// and kept exact by every write after it.
    pub fn distinct_counts(&self) -> &[usize] {
        let distinct = self.distinct.get_or_init(|| Distinct {
            counts: self.count_distinct(),
            tables: (0..self.arity).map(|_| None).collect(),
        });
        &distinct.counts
    }

    /// Whether the distinct counts are counted yet: the next
    /// [`ColumnarRelation::distinct_counts`] reads no row exactly when
    /// they are.
    pub fn has_distinct_counts(&self) -> bool {
        self.distinct.get().is_some()
    }

    /// The distinct live codes per column, counted from scratch: a sort
    /// of every column's live codes. The first statistics read fills
    /// the maintained counts with it, and tests hold them to it.
    pub fn count_distinct(&self) -> Vec<usize> {
        (0..self.arity)
            .map(|p| {
                let mut codes: Vec<u32> = self.live_rows().map(|i| self.columns[p][i]).collect();
                codes.sort_unstable();
                codes.dedup();
                codes.len()
            })
            .collect()
    }

    /// Keeps counted distinct counts exact after physical row `i` turned
    /// live (`added`) or dead: a column's count moves when the row's
    /// code gained its first or lost its last live row, which its table
    /// answers, or else a walk of its chain for another live holder.
    /// A column that has neither gets a table counted now, this row's
    /// change included. Without probe indexes there is no chain to
    /// walk, and the counts are dropped for the next read to count.
    fn recount_row(&mut self, i: usize, added: bool) {
        let Some(distinct) = self.distinct.get_mut() else {
            return;
        };
        if self.arity < 2 {
            // A unary relation's count is its live rows (set
            // semantics); a nullary one counts nothing.
            if let Some(count) = distinct.counts.first_mut() {
                *count = self.live;
            }
            return;
        }
        let Some(ix) = self.indexes.get() else {
            self.distinct = OnceLock::new();
            return;
        };
        let last = self.arity - 1;
        for (p, table) in distinct.tables.iter_mut().enumerate() {
            let code = self.columns[p][i];
            let end = match p {
                0 => Some(0),
                p if p == last => Some(1),
                _ => None,
            };
            let changed = match (table.as_mut(), end) {
                (Some(table), _) => Some(table.add(code, added)),
                (None, Some(end)) => ix
                    .held_elsewhere(code, end, i, &self.dead)
                    .map(|held| !held),
                (None, None) => None,
            };
            match changed {
                Some(true) if added => distinct.counts[p] += 1,
                Some(true) => distinct.counts[p] -= 1,
                Some(false) => {}
                None => {
                    let counted = CodeCounts::over(&self.columns[p], &self.dead);
                    distinct.counts[p] = counted.base.codes.len();
                    *table = Some(counted);
                }
            }
        }
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
        let mut out = ColumnarRelation {
            arity: self.arity,
            physical: n,
            live: n,
            columns,
            dead: vec![false; n],
            indexes: OnceLock::new(),
            distinct: OnceLock::new(),
        };
        if self.has_indexes() {
            out.indexes();
        }
        if let Some(distinct) = self.distinct.get() {
            // Compaction drops dead rows only, so the counts carry over;
            // the tables are keyed by old codes, so the ones that
            // existed are counted again, in the new codes.
            let tables = (distinct.tables.iter().enumerate())
                .map(|(p, t)| {
                    t.as_ref()
                        .map(|_| CodeCounts::over(&out.columns[p], &out.dead))
                })
                .collect();
            out.distinct = OnceLock::from(Distinct {
                counts: distinct.counts.clone(),
                tables,
            });
        }
        out
    }

    /// Approximate resident size in bytes (codes only, tombstoned rows
    /// included — they stay resident until compaction; the dictionary
    /// is shared store-wide and accounted for separately).
    pub fn coded_bytes(&self) -> usize {
        self.physical * self.arity * std::mem::size_of::<u32>()
    }

    /// Resident bytes of the probe indexes (0 until a probe builds
    /// them): the capacities of the row table and of the two end
    /// columns' chains, base and tail.
    pub fn index_bytes(&self) -> usize {
        self.indexes
            .get()
            .map_or(0, |ix| ix.base.bytes() + ix.tail.bytes())
    }

    /// Resident bytes of the live-count tables that keep distinct
    /// counts (0 until a write after a statistics read builds one).
    pub fn distinct_bytes(&self) -> usize {
        self.distinct.get().map_or(0, |d| {
            d.tables.iter().flatten().map(CodeCounts::bytes).sum()
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
        self.indexes.get().map_or(0, |ix| ix.tail.rows.len())
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
        // An append before any probe leaves the indexes unbuilt, and
        // drops the distinct counts, which it has no chain to keep…
        assert_eq!(col.distinct_counts(), [2, 2]);
        col.append(&[5, 5]);
        assert!(!col.has_indexes() && !col.has_distinct_counts());
        assert_eq!(col.index_bytes(), 0);
        assert_eq!(col.distinct_counts(), [3, 3]);
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

    /// A code whose newest rows are all dead makes its chain a long
    /// walk: past [`WALK`] rows the column keeps a live-count table,
    /// and the counts stay exact through the switch.
    #[test]
    fn a_long_chain_walk_gives_its_column_a_table() {
        let mut col = ColumnarRelation::from_codes(2, vec![vec![0], vec![7]]);
        assert_eq!(col.distinct_counts(), [1, 1]);
        assert_eq!(col.find_live(&[0, 7]), Some(0));
        for i in 1..=2 * WALK as u32 {
            col.append(&[i, 7]);
            col.tombstone(i as usize);
            assert_eq!(col.distinct_counts(), col.count_distinct());
        }
        assert!(col.distinct_bytes() > 0);
        col.tombstone(0);
        assert_eq!(col.distinct_counts(), [0, 0]);
        col.revive(0);
        assert_eq!(col.distinct_counts(), [1, 1]);
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

    /// Every probe answer equals a scan of the columns: exact finds
    /// for every physical row and for an absent one, and prefix/suffix
    /// probes of every shorter length, whose candidate count is the
    /// number of physical rows, live or dead, sharing the end code. The
    /// distinct counts (counted by the first call, kept by the writes
    /// after it) equal a recount.
    fn assert_probes_match_a_scan(col: &ColumnarRelation) {
        assert_eq!(col.distinct_counts(), col.count_distinct());
        let (arity, n) = (col.arity(), col.physical_len());
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| (0..arity).map(|p| col.code_at(i, p)).collect())
            .collect();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(col.find_live(row), col.is_live(i).then_some(i));
            assert_eq!(col.find_dead(row), (!col.is_live(i)).then_some(i));
        }
        assert_eq!(col.find_live(&vec![u32::MAX; arity]), None);
        for len in 1..arity {
            let probes = rows.iter().map(|r| r[..len].to_vec());
            for prefix in probes.chain([vec![u32::MAX; len]]) {
                let live = (0..n).filter(|&i| col.is_live(i) && rows[i][..len] == prefix[..]);
                let bucket = rows.iter().filter(|r| r[0] == prefix[0]).count();
                let want = (live.collect(), bucket);
                assert_eq!(col.live_rows_with_prefix(&prefix), want, "{prefix:?}");
            }
            let probes = rows.iter().map(|r| r[arity - len..].to_vec());
            for suffix in probes.chain([vec![u32::MAX; len]]) {
                let live =
                    (0..n).filter(|&i| col.is_live(i) && rows[i][arity - len..] == suffix[..]);
                let bucket = rows
                    .iter()
                    .filter(|r| r[arity - 1] == suffix[len - 1])
                    .count();
                let want = (live.collect(), bucket);
                assert_eq!(col.live_rows_with_suffix(&suffix), want, "{suffix:?}");
            }
        }
    }

    /// One random writer step, as the store's append path takes it: a
    /// drawn row is revived when a dead twin exists and appended when
    /// absent; or a random live row is tombstoned, or a dead one
    /// revived.
    fn random_step(col: &mut ColumnarRelation, domain: u32, draw: &mut impl FnMut(u32) -> u32) {
        let n = col.physical_len() as u32;
        match draw(4) {
            0 if n > 0 => {
                col.tombstone(draw(n) as usize);
            }
            1 if n > 0 => {
                col.revive(draw(n) as usize);
            }
            _ => {
                let row: Vec<u32> = (0..col.arity()).map(|_| draw(domain)).collect();
                if col.find_live(&row).is_none() {
                    match col.find_dead(&row) {
                        Some(i) => assert!(col.revive(i)),
                        None => col.append(&row),
                    }
                }
            }
        }
    }

    /// The probe indexes and the distinct counts agree with a column
    /// scan after every step of random append / tombstone / revive
    /// sequences that fold the tail into a fresh base, across a
    /// `compacted()`, and on a clone that appends past the base it
    /// shares with the original.
    #[test]
    fn the_index_agrees_with_a_scan() {
        // (arity, code domain, rows at build, steps, seed)
        let cases = [
            (1, 400, 10, 200, 1),
            (2, 12, 40, 200, 2),
            (2, 400, 0, 200, 3),
            (3, 6, 64, 200, 4),
            (3, 60, 1, 200, 5),
        ];
        for (arity, domain, initial, steps, seed) in cases {
            let mut state: u64 = seed;
            let mut draw = |below: u32| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) % u64::from(below)) as u32
            };
            let mut rows = std::collections::BTreeSet::new();
            while rows.len() < initial {
                rows.insert((0..arity).map(|_| draw(domain)).collect::<Vec<u32>>());
            }
            let columns = (0..arity)
                .map(|p| rows.iter().map(|r| r[p]).collect())
                .collect();
            let mut col = ColumnarRelation::from_codes(arity, columns);
            assert_probes_match_a_scan(&col);
            let mut folds = 0;
            for _ in 0..steps {
                let tail = col.index_tail_len();
                random_step(&mut col, domain, &mut draw);
                folds += usize::from(col.index_tail_len() < tail);
                assert_probes_match_a_scan(&col);
            }
            assert!(
                folds > 0,
                "arity {arity}, seed {seed}: the tail never folded"
            );
            col = col.compacted(&mut |c| c);
            assert!(col.has_indexes() && col.has_distinct_counts() && col.tombstones() == 0);
            assert_probes_match_a_scan(&col);
            random_step(&mut col, domain, &mut draw);
            let mut copy = col.clone();
            assert!(copy.shares_index_base(&col));
            for _ in 0..steps / 4 {
                random_step(&mut copy, domain, &mut draw);
                assert_probes_match_a_scan(&copy);
            }
            assert_probes_match_a_scan(&col);
        }
    }
}
