//! Store-derived statistics for the cost-based planner (PR 10,
//! ROADMAP item 5; DESIGN.md §5).
//!
//! A [`StoreStatistics`] snapshot summarizes what the store already
//! knows about its data — per-column distinct counts (from the coded
//! columns), per-relation live/tombstone row counts, CSR forward and
//! reverse degree histograms (min / mean / p99 / max, per binary
//! relation and per graph), and overlay sizes — in
//! exactly the shape `pgq-exec`'s cardinality estimator consumes.
//!
//! Statistics are **lazy and cached**: `Store::statistics` computes
//! them on first use and caches the `Arc` on the store's COW state;
//! every mutation (`register_relation` / `register_database`,
//! `apply_updates`, `compact`, `bulk_load`, graph registration)
//! invalidates the cache by swapping in a fresh slot and bumping the
//! epoch. Because the cache slot is `Arc`-shared the same way the
//! columns and CSR bases are, a pinned `StoreSnapshot` keeps the
//! statistics consistent with the data it pins: a concurrent writer
//! publishing a new state never mutates a reader's cached statistics —
//! it computes its own against its own state.

use crate::column::ColumnarRelation;
use crate::csr::CsrIndex;
use pgq_relational::RelName;
use std::collections::BTreeMap;
use std::fmt;

/// Summary of a degree distribution (one direction of one CSR index).
///
/// `mean` is exact; `p99` is the degree at the 99th percentile of the
/// node population (ties resolved upward), so `min ≤ p99 ≤ max`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegreeHistogram {
    /// Nodes in the index's dense universe.
    pub nodes: usize,
    /// Total adjacency entries (distinct pairs).
    pub edges: usize,
    /// Smallest per-node degree.
    pub min: usize,
    /// Largest per-node degree.
    pub max: usize,
    /// Mean per-node degree (`edges / nodes`; 0 for an empty universe).
    pub mean: f64,
    /// 99th-percentile per-node degree.
    pub p99: usize,
}

impl DegreeHistogram {
    /// Summarizes one direction of a CSR index.
    pub fn from_degrees(degrees: impl Iterator<Item = usize>) -> Self {
        let mut ds: Vec<usize> = degrees.collect();
        if ds.is_empty() {
            return DegreeHistogram::default();
        }
        ds.sort_unstable();
        let nodes = ds.len();
        let edges: usize = ds.iter().sum();
        DegreeHistogram {
            nodes,
            edges,
            min: ds[0],
            max: ds[nodes - 1],
            mean: edges as f64 / nodes as f64,
            p99: ds[((nodes * 99) / 100).min(nodes - 1)],
        }
    }

    /// Forward (out-degree) summary of a CSR index.
    pub fn forward(csr: &CsrIndex) -> Self {
        Self::from_degrees((0..csr.node_count() as u32).map(|d| csr.out_neighbors(d).len()))
    }

    /// Reverse (in-degree) summary of a CSR index.
    pub fn reverse(csr: &CsrIndex) -> Self {
        Self::from_degrees((0..csr.node_count() as u32).map(|d| csr.in_neighbors(d).len()))
    }
}

impl fmt::Display for DegreeHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min {} / mean {:.2} / p99 {} / max {}",
            self.min, self.mean, self.p99, self.max
        )
    }
}

/// Statistics for one registered relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStatistics {
    /// Attribute count.
    pub arity: usize,
    /// Live rows (tombstones excluded).
    pub live_rows: usize,
    /// Tombstoned rows still resident.
    pub tombstone_rows: usize,
    /// Distinct live values per column, in position order.
    pub distinct: Vec<usize>,
}

impl RelationStatistics {
    /// Distinct live values in one column (`live_rows` for positions
    /// out of range, the conservative estimate).
    pub fn distinct_at(&self, position: usize) -> usize {
        self.distinct
            .get(position)
            .copied()
            .unwrap_or(self.live_rows)
    }

    fn from_column(col: &ColumnarRelation) -> Self {
        let mut distinct = Vec::with_capacity(col.arity());
        for pos in 0..col.arity() {
            let column = col.column(pos);
            let mut codes: Vec<u32> = col.live_rows().map(|i| column[i]).collect();
            codes.sort_unstable();
            codes.dedup();
            distinct.push(codes.len());
        }
        RelationStatistics {
            arity: col.arity(),
            live_rows: col.len(),
            tombstone_rows: col.tombstones(),
            distinct,
        }
    }
}

/// Both directions of one adjacency index, plus its overlay residency.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdjacencyStatistics {
    /// Out-degree summary of the frozen base CSR.
    pub forward: DegreeHistogram,
    /// In-degree summary of the frozen base CSR.
    pub reverse: DegreeHistogram,
    /// Overlay entries not reflected in the histograms (delta pairs;
    /// for graphs additionally appended/tombstoned nodes).
    pub overlay: usize,
}

impl AdjacencyStatistics {
    /// Summarizes one CSR base and its overlay size.
    pub fn of(csr: &CsrIndex, overlay: usize) -> Self {
        AdjacencyStatistics {
            forward: DegreeHistogram::forward(csr),
            reverse: DegreeHistogram::reverse(csr),
            overlay,
        }
    }
}

/// Statistics for one frozen graph entry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphStatistics {
    /// Node-level adjacency (parallel edges collapsed).
    pub adjacency: AdjacencyStatistics,
}

/// One lazily-computed, cached statistics snapshot of a [`crate::Store`].
///
/// Obtained through `Store::statistics`; see the module docs for the
/// caching and invalidation contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreStatistics {
    /// Invalidation epoch this snapshot was computed at (bumped by
    /// every store mutation — the staleness tests count on it).
    pub epoch: u64,
    /// Codes minted in the dictionary.
    pub dictionary_codes: usize,
    /// Per-relation statistics, in name order.
    pub relations: BTreeMap<RelName, RelationStatistics>,
    /// Per-binary-relation adjacency statistics, in name order.
    pub adjacency: BTreeMap<RelName, AdjacencyStatistics>,
    /// Per-graph statistics, in name order.
    pub graphs: BTreeMap<String, GraphStatistics>,
}

impl StoreStatistics {
    /// Computes a snapshot from the store's current state. Library
    /// callers want `Store::statistics` (lazy + cached) instead.
    pub fn compute(store: &crate::Store, epoch: u64) -> Self {
        let relations = store
            .relations
            .iter()
            .map(|(name, col)| (name.clone(), RelationStatistics::from_column(col)))
            .collect();
        let adjacency = store
            .adjacency
            .iter()
            .map(|(name, e)| {
                (
                    name.clone(),
                    AdjacencyStatistics::of(&e.csr, e.delta.change_count()),
                )
            })
            .collect();
        let graphs = store
            .graphs
            .iter()
            .map(|(name, e)| (name.clone(), e.statistics()))
            .collect();
        StoreStatistics {
            epoch,
            dictionary_codes: store.dict().len(),
            relations,
            adjacency,
            graphs,
        }
    }

    /// Live rows of a relation, when registered.
    pub fn live_rows(&self, name: &RelName) -> Option<usize> {
        self.relations.get(name).map(|r| r.live_rows)
    }

    /// Distinct live values in a relation column, when registered.
    pub fn distinct(&self, name: &RelName, position: usize) -> Option<usize> {
        self.relations.get(name).map(|r| r.distinct_at(position))
    }

    /// Expected out- (or, `reverse`, in-) degree of a binary relation's
    /// adjacency index, when one exists.
    pub fn expected_degree(&self, name: &RelName, reverse: bool) -> Option<f64> {
        self.adjacency.get(name).map(|a| {
            if reverse {
                a.reverse.mean
            } else {
                a.forward.mean
            }
        })
    }
}

impl fmt::Display for StoreStatistics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "statistics (epoch {}): {} dictionary code(s)",
            self.epoch, self.dictionary_codes
        )?;
        for (name, r) in &self.relations {
            let distinct: Vec<String> = r.distinct.iter().map(usize::to_string).collect();
            write!(
                f,
                "relation {name}: {} live row(s), distinct [{}]",
                r.live_rows,
                distinct.join(", ")
            )?;
            if r.tombstone_rows > 0 {
                write!(f, ", {} tombstone(s)", r.tombstone_rows)?;
            }
            writeln!(f)?;
        }
        for (name, a) in &self.adjacency {
            writeln!(
                f,
                "adjacency {name}: out {} | in {}{}",
                a.forward,
                a.reverse,
                if a.overlay > 0 {
                    format!(" (+{} overlay)", a.overlay)
                } else {
                    String::new()
                }
            )?;
        }
        for (name, g) in &self.graphs {
            writeln!(
                f,
                "graph {name}: out {} | in {}{}",
                g.adjacency.forward,
                g.adjacency.reverse,
                if g.adjacency.overlay > 0 {
                    format!(" (+{} overlay)", g.adjacency.overlay)
                } else {
                    String::new()
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summarizes_degree_vectors() {
        let h = DegreeHistogram::from_degrees([0usize, 1, 1, 2, 10].into_iter());
        assert_eq!((h.nodes, h.edges), (5, 14));
        assert_eq!((h.min, h.max), (0, 10));
        assert!((h.mean - 2.8).abs() < 1e-9);
        assert_eq!(h.p99, 10);
        let empty = DegreeHistogram::from_degrees(std::iter::empty());
        assert_eq!(empty, DegreeHistogram::default());
        assert_eq!(empty.to_string(), "min 0 / mean 0.00 / p99 0 / max 0");
    }

    #[test]
    fn distinct_counts_skip_tombstones() {
        use pgq_relational::Relation;
        use pgq_value::tuple;
        let mut rel = Relation::empty(2);
        for (a, b) in [(1i64, 1i64), (2, 1), (3, 1), (3, 2)] {
            rel.insert(tuple![a, b]).unwrap();
        }
        let mut dict = crate::Dictionary::new();
        let mut col = ColumnarRelation::from_relation(&rel, &mut dict).unwrap();
        let s = RelationStatistics::from_column(&col);
        assert_eq!(s.live_rows, 4);
        assert_eq!(s.distinct, vec![3, 2]);
        assert_eq!(s.distinct_at(5), 4, "out of range falls back to rows");
        // Tombstoning the only row with code pair (1,1) drops both
        // counts the row uniquely contributed.
        col.tombstone(0);
        let s = RelationStatistics::from_column(&col);
        assert_eq!(s.live_rows, 3);
        assert_eq!(s.tombstone_rows, 1);
        assert_eq!(s.distinct, vec![2, 2]);
    }
}
