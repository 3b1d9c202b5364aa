//! The storage-layout report: [`Store::stats`] / [`Store::memory_bytes`]
//! and the [`StoreStats`] family they return (the shell's `STATS`).

use crate::column::ColumnarRelation;
use crate::graph::GraphEntry;
use crate::store::{CompactionStats, Store};
use std::fmt;

impl Store {
    /// A storage-layout report (the shell's `STATS` command).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            dictionary_total: self.dict.len(),
            dictionary_live: self.live_codes(),
            relations: self
                .relations
                .iter()
                .map(|(name, c)| RelationStats {
                    name: name.to_string(),
                    rows: c.len(),
                    arity: c.arity(),
                    coded_bytes: c.coded_bytes(),
                    indexed: self.adjacency.contains_key(name),
                    tombstones: c.tombstones(),
                    delta_pairs: self
                        .adjacency
                        .get(name)
                        .map_or(0, |e| e.delta.change_count()),
                })
                .collect(),
            graphs: self
                .graphs
                .iter()
                .map(|(name, e)| GraphStats {
                    name: name.clone(),
                    nodes: e.node_count(),
                    edges: e.edge_count(),
                    id_arity: e.id_arity(),
                    csr_entries: e.adjacency().edge_count(),
                    overlay: e.overlay_size(),
                })
                .collect(),
            last_compaction: self.last_compaction.clone(),
            bytes: self.memory_bytes(),
        }
    }

    /// Estimated resident heap bytes by component — also available
    /// without the full [`Store::stats`] report (which walks every
    /// live row for the dictionary-liveness numbers; this does not).
    pub fn memory_bytes(&self) -> MemoryBytes {
        MemoryBytes {
            dictionary: self.dict.resident_bytes(),
            columns: self
                .relations
                .values()
                .map(|c| c.coded_bytes() + c.index_bytes() + c.distinct_bytes())
                .sum::<usize>()
                + self.derived_adom().map_or(0, ColumnarRelation::coded_bytes),
            csr: self
                .adjacency
                .values()
                .map(|e| e.csr.resident_bytes())
                .sum::<usize>()
                + self
                    .graphs
                    .values()
                    .map(GraphEntry::csr_bytes)
                    .sum::<usize>(),
            overlays: self
                .adjacency
                .values()
                .map(|e| e.delta.resident_bytes())
                .sum::<usize>()
                + self
                    .graphs
                    .values()
                    .map(GraphEntry::overlay_bytes)
                    .sum::<usize>(),
        }
    }
}

/// Estimated resident heap bytes by store component, surfaced through
/// [`StoreStats`] (the shell's `STATS`/`STATS JSON`) and read by the
/// benchmark's `bytes_per_edge`. Estimates — Rust exposes no exact allocator
/// accounting — but faithful for the structures that dominate at
/// million-row scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBytes {
    /// Value dictionary: value vector, code map, string payloads.
    pub dictionary: usize,
    /// Columnar relations: coded columns plus the row/end probe indexes
    /// a writer has built (none until its first probe of the relation),
    /// the live-count tables that keep a middle column's distinct count
    /// (built by the first write after a statistics read), and the
    /// derived active domain once a reader has asked for it.
    pub columns: usize,
    /// Frozen CSR indexes: one per binary relation plus one per
    /// registered graph.
    pub csr: usize,
    /// Mutable overlays: delta adjacency on relations and graphs.
    pub overlays: usize,
}

impl MemoryBytes {
    /// Sum over every component.
    pub fn total(&self) -> usize {
        self.dictionary + self.columns + self.csr + self.overlays
    }
}

/// Layout numbers for one registered relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStats {
    /// Relation name.
    pub name: String,
    /// Live row count.
    pub rows: usize,
    /// Attribute count.
    pub arity: usize,
    /// Resident coded size in bytes (tombstoned rows included;
    /// dictionary excluded).
    pub coded_bytes: usize,
    /// Whether a CSR adjacency index exists (binary relations).
    pub indexed: bool,
    /// Tombstoned rows still resident (dropped by `Store::compact`).
    pub tombstones: usize,
    /// Adjacency-overlay size (pairs added + removed since the freeze).
    pub delta_pairs: usize,
}

/// Layout numbers for one frozen graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStats {
    /// Graph name.
    pub name: String,
    /// `|N|` (live).
    pub nodes: usize,
    /// `|E|` (live).
    pub edges: usize,
    /// Identifier arity.
    pub id_arity: usize,
    /// Distinct endpoint pairs in the effective (base ⊕ overlay)
    /// adjacency.
    pub csr_entries: usize,
    /// Overlay residency: delta pairs + tombstoned/appended nodes.
    pub overlay: usize,
}

/// The full storage-layout report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Codes ever minted (the append-only dictionary never forgets —
    /// until [`Store::compact`] rebuilds it).
    pub dictionary_total: usize,
    /// Codes referenced by live rows of registered relations. The
    /// difference `total − live` is the residency cost of stale codes
    /// left behind by deletions and re-registration; [`Store::compact`]
    /// reclaims it.
    pub dictionary_live: usize,
    /// Per-relation layout, in name order.
    pub relations: Vec<RelationStats>,
    /// Per-graph layout, in name order.
    pub graphs: Vec<GraphStats>,
    /// The effect of the most recent compaction, if any ran.
    pub last_compaction: Option<CompactionStats>,
    /// Estimated resident heap bytes by component.
    pub bytes: MemoryBytes,
}

impl StoreStats {
    /// Stale codes: minted but unreferenced by any live row.
    pub fn dictionary_stale(&self) -> usize {
        self.dictionary_total - self.dictionary_live
    }

    /// Tombstoned rows still resident across all relations.
    pub fn tombstone_rows(&self) -> usize {
        self.relations.iter().map(|r| r.tombstones).sum()
    }

    /// Overlay entries across relation adjacency indexes and graphs.
    pub fn overlay_entries(&self) -> usize {
        self.relations.iter().map(|r| r.delta_pairs).sum::<usize>()
            + self.graphs.iter().map(|g| g.overlay).sum::<usize>()
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dictionary: {} code(s) minted, {} live, {} stale",
            self.dictionary_total,
            self.dictionary_live,
            self.dictionary_stale()
        )?;
        writeln!(
            f,
            "overlay: {} delta entr(y/ies), {} tombstoned row(s)",
            self.overlay_entries(),
            self.tombstone_rows()
        )?;
        writeln!(
            f,
            "resident: {} byte(s) (dictionary {}, columns {}, CSR {}, overlays {})",
            self.bytes.total(),
            self.bytes.dictionary,
            self.bytes.columns,
            self.bytes.csr,
            self.bytes.overlays
        )?;
        match &self.last_compaction {
            Some(c) => writeln!(f, "last compaction: {c}")?,
            None => writeln!(f, "last compaction: none")?,
        }
        for r in &self.relations {
            write!(
                f,
                "relation {}: {} row(s) × {} col(s), {} coded byte(s)",
                r.name, r.rows, r.arity, r.coded_bytes
            )?;
            if r.tombstones > 0 {
                write!(f, ", {} tombstone(s)", r.tombstones)?;
            }
            write!(f, "{}", if r.indexed { ", CSR indexed" } else { "" })?;
            if r.delta_pairs > 0 {
                write!(f, " (+{} delta pair(s))", r.delta_pairs)?;
            }
            writeln!(f)?;
        }
        for g in &self.graphs {
            write!(
                f,
                "graph {}: {} node(s), {} edge(s), id arity {}, {} CSR pair(s)",
                g.name, g.nodes, g.edges, g.id_arity, g.csr_entries
            )?;
            if g.overlay > 0 {
                write!(f, ", overlay {}", g.overlay)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::error::GraphForm;
    use crate::store::tests::{chain_db, views};
    use crate::store::Store;

    #[test]
    fn stats_report_layout() {
        let db = chain_db();
        let mut store = Store::from_database(&db);
        store
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        let stats = store.stats();
        assert!(stats.dictionary_total >= 8);
        // A fresh registration references every code it minted.
        assert_eq!(stats.dictionary_live, stats.dictionary_total);
        assert_eq!(stats.dictionary_stale(), 0);
        assert_eq!(stats.tombstone_rows(), 0);
        assert_eq!(stats.overlay_entries(), 0);
        assert!(stats.last_compaction.is_none());
        let s_rel = stats.relations.iter().find(|r| r.name == "S").unwrap();
        assert!(s_rel.indexed);
        assert_eq!(s_rel.rows, 3);
        let l_rel = stats.relations.iter().find(|r| r.name == "L").unwrap();
        assert_eq!(l_rel.rows, 1);
        let text = stats.to_string();
        assert!(text.contains("graph G: 4 node(s), 3 edge(s), id arity 1, 3 CSR pair(s)\n"));
        assert!(text.contains("CSR indexed"));
        assert!(text.contains("0 stale"));
        assert!(text.contains("last compaction: none"));
        assert!(text.contains("overlay: 0 delta entr(y/ies), 0 tombstoned row(s)"));
    }
}
