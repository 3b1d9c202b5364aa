//! Store-derived statistics for the cost-based planner (DESIGN.md §5),
//! and the degree histograms `STATS` prints beside them.
//!
//! A [`StoreStatistics`] snapshot holds exactly what `pgq-exec`'s
//! cardinality estimator reads: per relation its live and tombstoned
//! rows and per-column distinct counts, the dictionary size, and one
//! mean degree per binary relation's adjacency (`edge_count /
//! node_count` of its frozen CSR base — forward and reverse alike,
//! since both directions share one dense node universe).
//!
//! Its lifecycle: the first statistics read of a relation counts its
//! distinct values (a sort per column, [`ColumnarRelation::count_distinct`]);
//! from then on the writer keeps them exact on every append, revive and
//! tombstone, a copy-on-write clone carries them and compaction keeps
//! them. Building a snapshot therefore reads O(relations + adjacencies)
//! numbers and no row; a relation that has to be counted first
//! (after registration or a bulk load) counts as one
//! `statistics_recounts` in `METRICS`. `Store::statistics` caches the
//! snapshot per store version: every mutation swaps in a fresh slot and
//! bumps the epoch, and because the slot is `Arc`-shared the way the
//! columns are, a pinned `StoreSnapshot` keeps statistics consistent
//! with the data it pins.
//!
//! The min / p99 / max [`DegreeHistogram`]s of every relation and graph
//! adjacency feed no plan: `STATS` computes them on demand
//! ([`StatisticsReport`]).

use crate::column::ColumnarRelation;
use crate::csr::CsrIndex;
use crate::Store;
use pgq_relational::RelName;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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

    fn of(col: &ColumnarRelation, distinct: Vec<usize>) -> Self {
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
    /// Overlay entries not reflected in the histograms: a binary
    /// relation's delta pairs (0 for a graph, whose index is derived
    /// from the live rows).
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

/// The planner's statistics snapshot of a [`Store`]: what the
/// cardinality estimator reads, and nothing else.
///
/// Obtained through `Store::statistics`; see the module docs for how
/// the numbers are kept and cached.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreStatistics {
    /// Invalidation epoch this snapshot was built at (bumped by every
    /// store mutation).
    pub epoch: u64,
    /// Codes minted in the dictionary.
    pub dictionary_codes: usize,
    /// Per-relation statistics, in name order.
    pub relations: BTreeMap<RelName, RelationStatistics>,
    /// Per binary relation, the mean degree of its frozen CSR base
    /// (`edge_count / node_count`; 0 for an empty universe), in name
    /// order.
    pub mean_degree: BTreeMap<RelName, f64>,
}

impl StoreStatistics {
    /// The snapshot of the store's current state, from the distinct
    /// counts the relations keep; a relation that has none yet is
    /// counted now, and a snapshot that counted any records one
    /// `statistics_recounts`. Library callers want `Store::statistics`
    /// (cached) instead.
    pub fn compute(store: &Store, epoch: u64) -> Self {
        if store.relations.values().any(|c| !c.has_distinct_counts()) {
            store.counters.record_statistics_recount();
        }
        Self::build(store, epoch, |col| col.distinct_counts().to_vec())
    }

    /// The snapshot counted from scratch: every column's live codes
    /// sorted, whatever the relations keep — the oracle the maintained
    /// counts are held to.
    pub fn recount(store: &Store, epoch: u64) -> Self {
        Self::build(store, epoch, ColumnarRelation::count_distinct)
    }

    fn build(
        store: &Store,
        epoch: u64,
        distinct: impl Fn(&ColumnarRelation) -> Vec<usize>,
    ) -> Self {
        let relations = (store.relations.iter())
            .map(|(name, col)| (name.clone(), RelationStatistics::of(col, distinct(col))))
            .collect();
        let mean_degree = (store.adjacency.iter())
            .map(|(name, e)| {
                let (edges, nodes) = (e.csr.edge_count(), e.csr.node_count());
                let mean = if nodes == 0 {
                    0.0
                } else {
                    edges as f64 / nodes as f64
                };
                (name.clone(), mean)
            })
            .collect();
        StoreStatistics {
            epoch,
            dictionary_codes: store.dict().len(),
            relations,
            mean_degree,
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

    /// Expected fan-out of one probe into a binary relation's adjacency
    /// index, either direction, when one exists.
    pub fn expected_degree(&self, name: &RelName) -> Option<f64> {
        self.mean_degree.get(name).copied()
    }
}

/// What `STATS` prints as planner statistics: the planner's snapshot
/// plus the degree histograms of every relation and graph adjacency,
/// computed when asked for (`Store::statistics_report`) — no plan
/// reads them.
#[derive(Debug, Clone, PartialEq)]
pub struct StatisticsReport {
    /// The planner's snapshot.
    pub planner: Arc<StoreStatistics>,
    /// Per binary relation, both degree histograms and the overlay.
    pub adjacency: BTreeMap<RelName, AdjacencyStatistics>,
    /// Per graph, the same for its node index (derived for the
    /// report if no reader had).
    pub graphs: BTreeMap<String, AdjacencyStatistics>,
}

impl StatisticsReport {
    pub(crate) fn of(store: &Store) -> Self {
        StatisticsReport {
            planner: store.statistics(),
            adjacency: (store.adjacency.iter())
                .map(|(name, e)| {
                    let stats = AdjacencyStatistics::of(&e.csr, e.delta.change_count());
                    (name.clone(), stats)
                })
                .collect(),
            graphs: (store.graphs.iter())
                .map(|(name, e)| (name.clone(), e.statistics()))
                .collect(),
        }
    }
}

impl fmt::Display for StatisticsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let planner = &self.planner;
        writeln!(
            f,
            "statistics (epoch {}): {} dictionary code(s)",
            planner.epoch, planner.dictionary_codes
        )?;
        for (name, r) in &planner.relations {
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
        let adjacency = self
            .adjacency
            .iter()
            .map(|(n, a)| ("adjacency", n.as_str(), a));
        let graphs = self.graphs.iter().map(|(n, a)| ("graph", n.as_str(), a));
        for (kind, name, a) in adjacency.chain(graphs) {
            write!(f, "{kind} {name}: out {} | in {}", a.forward, a.reverse)?;
            if a.overlay > 0 {
                write!(f, " (+{} overlay)", a.overlay)?;
            }
            writeln!(f)?;
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
        let s = RelationStatistics::of(&col, col.count_distinct());
        assert_eq!(s.live_rows, 4);
        assert_eq!(s.distinct, vec![3, 2]);
        assert_eq!(s.distinct_at(5), 4, "out of range falls back to rows");
        // Tombstoning the only row with code pair (1,1) drops both
        // counts the row uniquely contributed.
        col.tombstone(0);
        let s = RelationStatistics::of(&col, col.count_distinct());
        assert_eq!(s.live_rows, 3);
        assert_eq!(s.tombstone_rows, 1);
        assert_eq!(s.distinct, vec![2, 2]);
    }
}
