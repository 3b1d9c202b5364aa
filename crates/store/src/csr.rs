//! Compressed sparse row adjacency indexes and their delta overlays.
//!
//! A [`CsrIndex`] freezes a set of `(source, target)` code pairs into
//! forward and reverse CSR form: one offsets array and one flat
//! neighbor array per direction, nodes renumbered into a dense
//! `0..node_count` space. Neighbor enumeration is a slice borrow — no
//! hashing, no allocation.
//!
//! A binary relation's index is maintained across writes: a
//! [`DeltaAdjacency`] records the pairs added and removed since the
//! freeze, an [`AdjacencyView`] reads base plus overlay, and the
//! overlay folds back into a fresh index past a threshold
//! (`Store::compact`, or after a large update batch). A graph's node
//! index has no overlay: it is derived again from the rows.

use crate::error::StoreError;
use std::collections::{BTreeSet, HashMap, HashSet};

/// One direction of adjacency in CSR form over dense node ids.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    /// `offsets[n]..offsets[n + 1]` indexes `targets` for dense node `n`.
    offsets: Vec<u32>,
    /// Flat neighbor array, grouped by source, each group sorted.
    targets: Vec<u32>,
}

impl Csr {
    /// Builds CSR form from `(dense source, dense target)` pairs.
    fn from_pairs(node_count: usize, pairs: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u32; node_count];
        for &(s, _) in pairs {
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..node_count].to_vec();
        let mut targets = vec![0u32; pairs.len()];
        for &(s, t) in pairs {
            let c = &mut cursor[s as usize];
            targets[*c as usize] = t;
            *c += 1;
        }
        // Sorted neighbor groups make the layout deterministic and
        // binary-searchable.
        for n in 0..node_count {
            let (lo, hi) = (offsets[n] as usize, offsets[n + 1] as usize);
            targets[lo..hi].sort_unstable();
        }
        Csr { offsets, targets }
    }

    /// The neighbor slice of dense node `n`.
    pub fn neighbors(&self, n: u32) -> &[u32] {
        let (lo, hi) = (
            self.offsets[n as usize] as usize,
            self.offsets[n as usize + 1] as usize,
        );
        &self.targets[lo..hi]
    }

    /// Total stored adjacency entries.
    pub fn entry_count(&self) -> usize {
        self.targets.len()
    }

    /// Resident heap bytes of the two flat arrays.
    pub fn resident_bytes(&self) -> usize {
        (self.offsets.capacity() + self.targets.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Dictionary code → dense id, in one of two representations: bulk
/// loads mint node codes contiguously, so the mapping is usually pure
/// arithmetic (`code - base`) and costs zero bytes and zero hashing;
/// arbitrary universes fall back to a hash map. [`CsrIndex`] detects
/// contiguity at build time, so the register route benefits too.
#[derive(Debug, Clone)]
enum DenseMap {
    /// Codes `base..base + len` map to dense ids `0..len`.
    Contiguous { base: u32, len: u32 },
    /// Arbitrary code universe.
    Hashed(HashMap<u32, u32>),
}

impl Default for DenseMap {
    fn default() -> Self {
        DenseMap::Contiguous { base: 0, len: 0 }
    }
}

impl DenseMap {
    /// Builds the mapping from the dense-order code vector, collapsing
    /// to the arithmetic form when the codes are one ascending run.
    fn from_codes(codes: &[u32]) -> Self {
        let contiguous = match codes.first() {
            None => return DenseMap::Contiguous { base: 0, len: 0 },
            Some(&base) => codes
                .iter()
                .enumerate()
                .all(|(d, &c)| c.checked_sub(base) == Some(d as u32)),
        };
        if contiguous {
            DenseMap::Contiguous {
                base: codes[0],
                len: codes.len() as u32,
            }
        } else {
            let mut m = HashMap::with_capacity(codes.len());
            for (d, &c) in codes.iter().enumerate() {
                m.insert(c, d as u32);
            }
            DenseMap::Hashed(m)
        }
    }

    fn get(&self, code: u32) -> Option<u32> {
        match self {
            DenseMap::Contiguous { base, len } => match code.checked_sub(*base) {
                Some(d) if d < *len => Some(d),
                _ => None,
            },
            DenseMap::Hashed(m) => m.get(&code).copied(),
        }
    }

    /// Estimated resident heap bytes (zero for the arithmetic form).
    fn resident_bytes(&self) -> usize {
        match self {
            DenseMap::Contiguous { .. } => 0,
            // Key + value + per-slot control byte & padding estimate.
            DenseMap::Hashed(m) => m.capacity() * (2 * std::mem::size_of::<u32>() + 8),
        }
    }
}

/// A bidirectional CSR index over a fixed node universe.
///
/// Nodes are identified by their *dictionary codes* externally and by
/// dense ids `0..node_count` internally; the index owns the mapping in
/// both directions. Edge multiplicity is set-like (the inputs come from
/// set-semantics relations), but parallel edges *between the same
/// endpoints under different edge identities* collapse to one adjacency
/// entry — exactly what endpoint reachability consumes.
#[derive(Debug, Clone, Default)]
pub struct CsrIndex {
    /// Dense id → dictionary code.
    codes: Vec<u32>,
    /// Dictionary code → dense id.
    dense: DenseMap,
    fwd: Csr,
    rev: Csr,
}

impl CsrIndex {
    /// The full dense-id space: the hard ceiling on distinct nodes one
    /// index can hold (parity with `Dictionary::MAX_CODES`).
    pub const MAX_NODES: usize = u32::MAX as usize + 1;

    /// Builds the index over `nodes` (dictionary codes; duplicates
    /// ignored) with `edges` as `(source code, target code)` pairs.
    /// Edge endpoints must be members of `nodes`. Fails with
    /// [`StoreError::NodeUniverseFull`] instead of panicking when the
    /// universe outgrows the dense `u32` id space — the same typed
    /// error discipline as dictionary exhaustion.
    pub fn build(
        nodes: impl IntoIterator<Item = u32>,
        edges: &[(u32, u32)],
    ) -> Result<Self, StoreError> {
        Self::build_with_limit(nodes, edges, Self::MAX_NODES)
    }

    /// [`CsrIndex::build`] with an explicit node-universe limit (capped
    /// at [`CsrIndex::MAX_NODES`]). Exists so tests can exercise the
    /// exhaustion path without 2³² nodes.
    pub fn build_with_limit(
        nodes: impl IntoIterator<Item = u32>,
        edges: &[(u32, u32)],
        limit: usize,
    ) -> Result<Self, StoreError> {
        let limit = limit.min(Self::MAX_NODES);
        let mut codes: Vec<u32> = Vec::new();
        let mut dense: HashMap<u32, u32> = HashMap::new();
        for c in nodes {
            if dense.contains_key(&c) {
                continue;
            }
            if codes.len() >= limit {
                return Err(StoreError::NodeUniverseFull { limit });
            }
            // `len < limit ≤ 2³²`, so the cast cannot wrap.
            dense.insert(c, codes.len() as u32);
            codes.push(c);
        }
        let mut fwd_pairs = Vec::with_capacity(edges.len());
        for &(s, t) in edges {
            fwd_pairs.push((dense[&s], dense[&t]));
        }
        drop(dense);
        Self::from_dense_pairs(codes, fwd_pairs)
    }

    /// Builds the index directly from its dense-order code vector and
    /// `(dense source, dense target)` pairs — the sort-based bulk path
    /// ([`crate::Store::bulk_load`]). `codes` must be distinct and
    /// pairs must reference ids `< codes.len()`; the caller (the bulk
    /// loader, which minted the codes itself) guarantees both, and the
    /// cheap range check below turns a violated contract into a panic
    /// rather than silent corruption. Contiguous code universes — the
    /// normal case for freshly minted bulk codes — collapse the
    /// code→dense map to pure arithmetic (a base/len pair instead of a
    /// hash map).
    pub fn from_dense_pairs(
        codes: Vec<u32>,
        mut fwd_pairs: Vec<(u32, u32)>,
    ) -> Result<Self, StoreError> {
        let n = codes.len();
        if n > Self::MAX_NODES {
            return Err(StoreError::NodeUniverseFull {
                limit: Self::MAX_NODES,
            });
        }
        assert!(
            fwd_pairs
                .iter()
                .all(|&(s, t)| (s as usize) < n && (t as usize) < n),
            "dense pair endpoint outside the node universe"
        );
        // Parallel edges (distinct identities, same endpoints) collapse
        // to one adjacency entry — all the endpoint semantics consumes.
        fwd_pairs.sort_unstable();
        fwd_pairs.dedup();
        let rev_pairs: Vec<(u32, u32)> = fwd_pairs.iter().map(|&(s, t)| (t, s)).collect();
        Ok(CsrIndex {
            fwd: Csr::from_pairs(n, &fwd_pairs),
            rev: Csr::from_pairs(n, &rev_pairs),
            dense: DenseMap::from_codes(&codes),
            codes,
        })
    }

    /// Number of nodes in the universe.
    pub fn node_count(&self) -> usize {
        self.codes.len()
    }

    /// Number of forward adjacency entries (distinct endpoint pairs).
    pub fn edge_count(&self) -> usize {
        self.fwd.entry_count()
    }

    /// Dense id of a dictionary code, when the code is in the universe.
    pub fn dense_of(&self, code: u32) -> Option<u32> {
        self.dense.get(code)
    }

    /// Estimated resident heap bytes: code vector, code→dense map
    /// (zero when the universe is contiguous), and both CSR directions.
    pub fn resident_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<u32>()
            + self.dense.resident_bytes()
            + self.fwd.resident_bytes()
            + self.rev.resident_bytes()
    }

    /// Dictionary code of a dense id.
    pub fn code_of(&self, dense: u32) -> u32 {
        self.codes[dense as usize]
    }

    /// Iterates the node universe as dictionary codes, dense order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Forward neighbors (dense → dense slice).
    pub fn out_neighbors(&self, dense: u32) -> &[u32] {
        self.fwd.neighbors(dense)
    }

    /// Reverse neighbors (dense → dense slice).
    pub fn in_neighbors(&self, dense: u32) -> &[u32] {
        self.rev.neighbors(dense)
    }

    /// Whether the frozen index holds the `(source, target)` pair,
    /// given as external codes. Neighbor groups are sorted, so this is
    /// a binary search, no hashing.
    pub fn has_pair(&self, s: u32, t: u32) -> bool {
        match (self.dense_of(s), self.dense_of(t)) {
            (Some(ds), Some(dt)) => self.fwd.neighbors(ds).binary_search(&dt).is_ok(),
            _ => false,
        }
    }

    /// Dense ids reachable from `seeds` by **zero or more** forward
    /// steps (the seeds themselves are included; a seed outside the
    /// universe reaches only itself). Allocates fresh buffers — hot
    /// loops should use [`CsrIndex::reach_from_into`] with a reused
    /// [`ReachScratch`] instead.
    pub fn reach_from(&self, seeds: impl IntoIterator<Item = u32>) -> Vec<u32> {
        let mut scratch = ReachScratch::new();
        let mut out = Vec::new();
        self.reach_from_into(seeds, &mut scratch, &mut out);
        out
    }

    /// [`CsrIndex::reach_from`] into caller-owned buffers: `out` is
    /// cleared and filled with the reachable dense ids, and `scratch`
    /// carries the visited stamps and frontier queues across calls so
    /// a sweep over many seed groups performs a **bounded** number of
    /// allocations (at most one visited-array growth per distinct
    /// universe size — [`ReachScratch::allocation_count`] counts them,
    /// and the PR 9 churn test pins the bound down).
    pub fn reach_from_into(
        &self,
        seeds: impl IntoIterator<Item = u32>,
        scratch: &mut ReachScratch,
        out: &mut Vec<u32>,
    ) {
        let n = self.node_count();
        let epoch = scratch.begin(n);
        out.clear();
        scratch.frontier.clear();
        // Seeds outside the universe gather in `next` until the sweep.
        scratch.next.clear();
        for s in seeds {
            if s as usize >= n {
                scratch.next.push(s);
            } else if scratch.seen[s as usize] != epoch {
                scratch.seen[s as usize] = epoch;
                out.push(s);
                scratch.frontier.push(s);
            }
        }
        scratch.next.sort_unstable();
        scratch.next.dedup();
        out.append(&mut scratch.next);
        while !scratch.frontier.is_empty() {
            scratch.next.clear();
            for i in 0..scratch.frontier.len() {
                let u = scratch.frontier[i];
                for &t in self.fwd.neighbors(u) {
                    if scratch.seen[t as usize] != epoch {
                        scratch.seen[t as usize] = epoch;
                        out.push(t);
                        scratch.next.push(t);
                    }
                }
            }
            std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        }
    }
}

/// Reusable buffers for CSR reachability sweeps: one sweep per
/// seed group would otherwise allocate a fresh visited array plus
/// frontier/next/output `Vec`s. The visited array is **epoch stamped**
/// (bumping an integer invalidates the whole array in O(1)), and the
/// queues keep their capacity between sweeps.
#[derive(Debug, Clone, Default)]
pub struct ReachScratch {
    /// `seen[d] == epoch` ⇔ dense id `d` was visited this sweep.
    seen: Vec<u32>,
    epoch: u32,
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Buffer-growth events (visited-array growth): the observable
    /// proxy the churn regression test asserts is sweep-count
    /// independent once the scratch is warm.
    allocations: u64,
}

impl ReachScratch {
    /// A fresh scratch; buffers grow on first use and then stick.
    pub fn new() -> Self {
        ReachScratch::default()
    }

    /// How many times the visited array had to grow. Constant across
    /// repeated sweeps over the same (or smaller) universe — the
    /// allocation-churn invariant.
    pub fn allocation_count(&self) -> u64 {
        self.allocations
    }

    /// Opens a sweep over a universe of `n` dense ids and returns the
    /// epoch that marks "visited" for this sweep.
    fn begin(&mut self, n: usize) -> u32 {
        if self.seen.len() < n {
            self.allocations += 1;
            self.seen.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: one O(n) refill every 2³² sweeps.
            self.seen.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Edges added and removed since the underlying [`CsrIndex`] was
/// frozen, keyed on the same external codes the index maps.
///
/// Invariants maintained by [`DeltaAdjacency::add`] /
/// [`DeltaAdjacency::remove`] (callers pass whether the pair is in the
/// base index):
///
/// * `added ∩ base = ∅` — re-adding a frozen pair only cancels a prior
///   removal;
/// * `removed ⊆ base` — removing a never-frozen pair only retracts it
///   from `added`.
///
/// The effective pair set is therefore exactly
/// `(base ∖ removed) ∪ added`, and its size is
/// `base.edge_count() − removed.len() + added.len()`.
#[derive(Debug, Clone, Default)]
pub struct DeltaAdjacency {
    added_out: HashMap<u32, BTreeSet<u32>>,
    added_in: HashMap<u32, BTreeSet<u32>>,
    removed: HashSet<(u32, u32)>,
    added_pairs: usize,
}

impl DeltaAdjacency {
    /// An empty overlay.
    pub fn new() -> Self {
        DeltaAdjacency::default()
    }

    /// Records the pair `(s, t)` as present. `in_base` says whether the
    /// frozen index already holds it (the caller knows; the overlay has
    /// no base reference).
    pub fn add(&mut self, s: u32, t: u32, in_base: bool) {
        if in_base {
            self.removed.remove(&(s, t));
            return;
        }
        if self.added_out.entry(s).or_default().insert(t) {
            self.added_in.entry(t).or_default().insert(s);
            self.added_pairs += 1;
        }
    }

    /// Records the pair `(s, t)` as absent.
    pub fn remove(&mut self, s: u32, t: u32, in_base: bool) {
        if in_base {
            self.removed.insert((s, t));
            return;
        }
        if let Some(set) = self.added_out.get_mut(&s) {
            if set.remove(&t) {
                self.added_pairs -= 1;
                if set.is_empty() {
                    self.added_out.remove(&s);
                }
                if let Some(rev) = self.added_in.get_mut(&t) {
                    rev.remove(&s);
                    if rev.is_empty() {
                        self.added_in.remove(&t);
                    }
                }
            }
        }
    }

    /// Whether `(s, t)` was added on top of the base.
    pub fn has_added(&self, s: u32, t: u32) -> bool {
        self.added_out.get(&s).is_some_and(|set| set.contains(&t))
    }

    /// Whether `(s, t)` was removed from the base.
    pub fn is_removed(&self, s: u32, t: u32) -> bool {
        self.removed.contains(&(s, t))
    }

    /// Pairs added on top of the base.
    pub fn added_len(&self) -> usize {
        self.added_pairs
    }

    /// Pairs removed from the base.
    pub fn removed_len(&self) -> usize {
        self.removed.len()
    }

    /// Total overlay size (additions plus removals) — what the
    /// fold-on-threshold policy and `STATS` measure.
    pub fn change_count(&self) -> usize {
        self.added_pairs + self.removed.len()
    }

    /// Whether the overlay records no changes.
    pub fn is_empty(&self) -> bool {
        self.change_count() == 0
    }

    /// Added forward neighbors of `s`, ascending.
    pub fn added_out(&self, s: u32) -> impl Iterator<Item = u32> + '_ {
        self.added_out.get(&s).into_iter().flatten().copied()
    }

    /// Added reverse neighbors of `t`, ascending.
    pub fn added_in(&self, t: u32) -> impl Iterator<Item = u32> + '_ {
        self.added_in.get(&t).into_iter().flatten().copied()
    }

    /// Estimated resident heap bytes of the overlay: map entries,
    /// B-tree set nodes for the added pairs (both directions), and the
    /// removed-pair set. Estimates per-entry overhead, not exact malloc
    /// sizes, like the other `resident_bytes` accounting.
    pub fn resident_bytes(&self) -> usize {
        let map_entry = std::mem::size_of::<u32>() + std::mem::size_of::<usize>() + 32;
        let pair_entry = 2 * (std::mem::size_of::<u32>() + 8);
        (self.added_out.len() + self.added_in.len()) * map_entry
            + self.added_pairs * pair_entry
            + self.removed.capacity() * (2 * std::mem::size_of::<u32>() + 8)
    }
}

/// A read view through a frozen [`CsrIndex`] and an optional
/// [`DeltaAdjacency`] overlay — what `IndexSeek` and `AdjacencyExpand`
/// probe. A `Fixpoint` never reads it: the executor sweeps its own CSR
/// over the step's endpoint ids.
///
/// All methods speak *external codes* (the same space
/// [`CsrIndex::dense_of`] maps); keys outside the frozen universe are
/// legal and simply have whatever neighbors the overlay gives them.
/// With no overlay every path degrades to the frozen slice walks.
#[derive(Clone, Copy)]
pub struct AdjacencyView<'a> {
    base: &'a CsrIndex,
    delta: Option<&'a DeltaAdjacency>,
}

impl<'a> AdjacencyView<'a> {
    /// A view over `base` with an optional overlay; an empty overlay is
    /// normalized away so the fast paths stay branch-predictable.
    pub fn new(base: &'a CsrIndex, delta: Option<&'a DeltaAdjacency>) -> Self {
        AdjacencyView {
            base,
            delta: delta.filter(|d| !d.is_empty()),
        }
    }

    /// The frozen index underneath.
    pub fn base(&self) -> &'a CsrIndex {
        self.base
    }

    /// Whether reads go through a (non-empty) delta overlay — surfaced
    /// by `EXPLAIN`'s `⟨delta⟩` markers.
    pub fn has_delta(&self) -> bool {
        self.delta.is_some()
    }

    /// Effective number of distinct endpoint pairs:
    /// `base − removed + added` (exact under the overlay invariants).
    pub fn edge_count(&self) -> usize {
        let base = self.base.edge_count();
        match self.delta {
            None => base,
            Some(d) => base - d.removed_len() + d.added_len(),
        }
    }

    /// Whether the effective pair set holds `(s, t)`.
    pub fn has_pair(&self, s: u32, t: u32) -> bool {
        match self.delta {
            None => self.base.has_pair(s, t),
            Some(d) => (self.base.has_pair(s, t) && !d.is_removed(s, t)) || d.has_added(s, t),
        }
    }

    /// Calls `f` for every effective forward neighbor of `key` (base
    /// minus removed, then added; codes, not dense ids).
    pub fn for_each_out(&self, key: u32, mut f: impl FnMut(u32)) {
        match self.delta {
            None => {
                if let Some(d) = self.base.dense_of(key) {
                    for &t in self.base.out_neighbors(d) {
                        f(self.base.code_of(t));
                    }
                }
            }
            Some(delta) => {
                if let Some(d) = self.base.dense_of(key) {
                    for &t in self.base.out_neighbors(d) {
                        let tc = self.base.code_of(t);
                        if !delta.is_removed(key, tc) {
                            f(tc);
                        }
                    }
                }
                for t in delta.added_out(key) {
                    f(t);
                }
            }
        }
    }

    /// Calls `f` for every effective reverse neighbor of `key`.
    pub fn for_each_in(&self, key: u32, mut f: impl FnMut(u32)) {
        match self.delta {
            None => {
                if let Some(d) = self.base.dense_of(key) {
                    for &t in self.base.in_neighbors(d) {
                        f(self.base.code_of(t));
                    }
                }
            }
            Some(delta) => {
                if let Some(d) = self.base.dense_of(key) {
                    for &t in self.base.in_neighbors(d) {
                        let sc = self.base.code_of(t);
                        if !delta.is_removed(sc, key) {
                            f(sc);
                        }
                    }
                }
                for s in delta.added_in(key) {
                    f(s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 → 1 → 2 → 3 with codes 10·(i+1).
    fn chain() -> CsrIndex {
        CsrIndex::build([10, 20, 30, 40], &[(10, 20), (20, 30), (30, 40)]).unwrap()
    }

    #[test]
    fn neighbors_and_mapping() {
        let idx = chain();
        assert_eq!(idx.node_count(), 4);
        assert_eq!(idx.edge_count(), 3);
        let d10 = idx.dense_of(10).unwrap();
        let d20 = idx.dense_of(20).unwrap();
        assert_eq!(idx.out_neighbors(d10), &[d20]);
        assert_eq!(idx.in_neighbors(d10), &[] as &[u32]);
        assert_eq!(idx.in_neighbors(d20), &[d10]);
        assert_eq!(idx.code_of(d20), 20);
        assert_eq!(idx.dense_of(99), None);
        assert!(idx.has_pair(10, 20));
        assert!(!idx.has_pair(20, 10));
        assert!(!idx.has_pair(10, 99));
    }

    #[test]
    fn node_universe_exhaustion_is_a_typed_error() {
        // Four distinct nodes under a limit of 3: the PR 4 parity fix
        // for the old `expect("node universe outgrew u32")` panic.
        let err = CsrIndex::build_with_limit([1, 2, 3, 4], &[], 3).unwrap_err();
        assert!(matches!(err, StoreError::NodeUniverseFull { limit: 3 }));
        // Duplicates don't count against the limit.
        assert!(CsrIndex::build_with_limit([1, 1, 2, 2, 3, 3], &[], 3).is_ok());
    }

    /// The `≥ 1`-step pairs `(s, t)` of an index: a sweep from each
    /// node's out-neighbors.
    fn plus_pairs(idx: &CsrIndex) -> Vec<(u32, u32)> {
        (0..idx.node_count() as u32)
            .flat_map(|s| {
                let reached = idx.reach_from(idx.out_neighbors(s).iter().copied());
                reached.into_iter().map(move |t| (s, t))
            })
            .collect()
    }

    #[test]
    fn plus_pairs_on_chain_and_cycle() {
        let idx = chain();
        assert_eq!(plus_pairs(&idx).len(), 6); // 3 + 2 + 1
        let cycle = CsrIndex::build([1, 2, 3], &[(1, 2), (2, 3), (3, 1)]).unwrap();
        assert_eq!(plus_pairs(&cycle).len(), 9);
    }

    #[test]
    fn self_loops_and_parallel_endpoint_pairs() {
        // A self loop reaches itself; duplicated endpoint pairs
        // collapse in the reachability answer.
        let idx = CsrIndex::build([1, 2], &[(1, 1), (1, 2), (1, 2)]).unwrap();
        assert_eq!(idx.edge_count(), 2);
        let pairs = plus_pairs(&idx);
        let d1 = idx.dense_of(1).unwrap();
        let d2 = idx.dense_of(2).unwrap();
        assert!(pairs.contains(&(d1, d1)));
        assert!(pairs.contains(&(d1, d2)));
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn reach_from_includes_seeds() {
        let idx = chain();
        let d20 = idx.dense_of(20).unwrap();
        let got = idx.reach_from([d20]);
        assert_eq!(got.len(), 3); // 20, 30, 40
        assert!(got.contains(&d20));
        let empty = CsrIndex::build([], &[]).unwrap();
        assert!(empty.reach_from([]).is_empty());
        assert!(plus_pairs(&empty).is_empty());
    }

    #[test]
    fn delta_overlay_add_remove_invariants() {
        let idx = chain();
        let mut d = DeltaAdjacency::new();
        assert!(d.is_empty());
        // Remove a frozen edge, add a novel one, add one to a novel node.
        d.remove(10, 20, idx.has_pair(10, 20));
        d.add(40, 10, idx.has_pair(40, 10));
        d.add(99, 10, idx.has_pair(99, 10));
        assert_eq!(d.change_count(), 3);
        let view = AdjacencyView::new(&idx, Some(&d));
        assert!(view.has_delta());
        assert_eq!(view.edge_count(), 4); // 3 − 1 + 2
        assert!(!view.has_pair(10, 20));
        assert!(view.has_pair(40, 10));
        assert!(view.has_pair(99, 10));
        assert!(view.has_pair(20, 30));
        // Neighbor enumeration merges base and overlay.
        let mut out = Vec::new();
        view.for_each_out(40, |t| out.push(t));
        assert_eq!(out, vec![10]);
        let mut ins = Vec::new();
        view.for_each_in(10, |s| ins.push(s));
        ins.sort_unstable();
        assert_eq!(ins, vec![40, 99]);
        // Re-adding the removed base pair cancels the removal; removing
        // an added pair retracts it.
        d.add(10, 20, idx.has_pair(10, 20));
        d.remove(99, 10, idx.has_pair(99, 10));
        assert_eq!(d.change_count(), 1);
        let view = AdjacencyView::new(&idx, Some(&d));
        assert!(view.has_pair(10, 20));
        assert!(!view.has_pair(99, 10));
    }

    /// A seed outside the universe reaches only itself, once, and a
    /// sweep from it still finds the in-universe seeds' closure.
    #[test]
    fn stray_seeds_reach_only_themselves() {
        let idx = chain();
        let d30 = idx.dense_of(30).unwrap();
        let mut got = idx.reach_from([99, u32::MAX, 99, d30]);
        got.sort_unstable();
        assert_eq!(got, vec![d30, d30 + 1, 99, u32::MAX]);
        assert_eq!(CsrIndex::default().reach_from([7]), vec![7]);
    }

    #[test]
    fn from_dense_pairs_matches_build() {
        // Contiguous codes: the arithmetic dense map kicks in.
        let via_build = CsrIndex::build([5, 6, 7, 8], &[(5, 6), (6, 7), (7, 8), (5, 6)]).unwrap();
        let via_dense =
            CsrIndex::from_dense_pairs(vec![5, 6, 7, 8], vec![(0, 1), (1, 2), (2, 3), (0, 1)])
                .unwrap();
        assert_eq!(via_build.edge_count(), via_dense.edge_count());
        for c in [5u32, 6, 7, 8, 9] {
            assert_eq!(via_build.dense_of(c), via_dense.dense_of(c), "code {c}");
        }
        for seed in [5u32, 6, 7, 8] {
            let d = via_dense.dense_of(seed).unwrap();
            assert_eq!(via_build.reach_from([d]), via_dense.reach_from([d]));
        }
        // Non-contiguous codes fall back to the hashed map and still
        // answer identically.
        let gap = CsrIndex::from_dense_pairs(vec![10, 12, 14], vec![(0, 1), (1, 2)]).unwrap();
        assert_eq!(gap.dense_of(12), Some(1));
        assert_eq!(gap.dense_of(11), None);
        assert!(gap.resident_bytes() > 0);
    }

    #[test]
    fn scratch_sweeps_match_and_stop_allocating() {
        let idx = chain();
        let mut scratch = ReachScratch::new();
        let mut out = Vec::new();
        for _ in 0..50 {
            for seed in [10u32, 20, 30, 40] {
                let d = idx.dense_of(seed).unwrap();
                idx.reach_from_into([d], &mut scratch, &mut out);
                let mut got = out.clone();
                let mut want = idx.reach_from([d]);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "seed {seed}");
            }
        }
        // One visited-array growth total, not one per sweep.
        assert_eq!(scratch.allocation_count(), 1);
    }

    #[test]
    fn empty_overlay_normalizes_away() {
        let idx = chain();
        let d = DeltaAdjacency::new();
        let view = AdjacencyView::new(&idx, Some(&d));
        assert!(!view.has_delta());
        assert_eq!(view.edge_count(), 3);
    }
}
