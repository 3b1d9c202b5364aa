//! Session-cumulative access counters: how much physical work the
//! executor and the writer path asked of a store.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Session-cumulative store access counters — how much physical work
/// the executor asked of this store since creation (or the last
/// [`AccessCounters::reset`]). Recording goes through `&self` relaxed
/// atomics so the read paths stay `&Store`; the executor amortizes
/// every increment to once per batch, probe sweep, or decode boundary,
/// so the counters cost nothing measurable on the hot paths.
///
/// Counts are *totals*, not per-query: the shell's `METRICS;` prints
/// them (and `METRICS RESET;` zeroes them) as the session-level
/// complement of the per-query [`crate::StoreStats`]/profile surfaces.
#[derive(Debug, Default)]
pub struct AccessCounters {
    index_scan_rows: AtomicU64,
    csr_neighbor_rows: AtomicU64,
    overlay_reads: AtomicU64,
    dense_reads: AtomicU64,
    dict_decodes: AtomicU64,
    writer_probes: AtomicU64,
    writer_probe_rows: AtomicU64,
    view_builds: AtomicU64,
    statistics_recounts: AtomicU64,
}

impl Clone for AccessCounters {
    fn clone(&self) -> Self {
        let s = self.snapshot();
        AccessCounters {
            index_scan_rows: AtomicU64::new(s.index_scan_rows),
            csr_neighbor_rows: AtomicU64::new(s.csr_neighbor_rows),
            overlay_reads: AtomicU64::new(s.overlay_reads),
            dense_reads: AtomicU64::new(s.dense_reads),
            dict_decodes: AtomicU64::new(s.dict_decodes),
            writer_probes: AtomicU64::new(s.writer_probes),
            writer_probe_rows: AtomicU64::new(s.writer_probe_rows),
            view_builds: AtomicU64::new(s.view_builds),
            statistics_recounts: AtomicU64::new(s.statistics_recounts),
        }
    }
}

impl AccessCounters {
    /// Adds `n` rows served by `IndexScan` from columnar storage.
    pub fn record_index_scan_rows(&self, n: u64) {
        self.index_scan_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` neighbor rows produced by CSR adjacency probes.
    pub fn record_csr_neighbor_rows(&self, n: u64) {
        self.csr_neighbor_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one adjacency read, classified by whether the view had
    /// to merge a delta overlay (`true`) or read the frozen CSR alone.
    pub fn record_adjacency_read(&self, overlay: bool) {
        if overlay {
            self.overlay_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dense_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n` dictionary decode calls (code → value).
    pub fn record_dict_decodes(&self, n: u64) {
        self.dict_decodes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one writer-path membership probe (edge endpoints,
    /// labels, property rows) that examined `candidates` indexed rows.
    /// The candidate totals are how the indexed writer path proves it
    /// scales with matches, not with the relation (`tests` assert it).
    pub fn record_writer_probe(&self, candidates: u64) {
        self.writer_probes.fetch_add(1, Ordering::Relaxed);
        self.writer_probe_rows
            .fetch_add(candidates, Ordering::Relaxed);
    }

    /// Records one property-graph view built from a pattern call's
    /// view relations while this store was consulted — the
    /// per-statement cost a call pays when no frozen graph answers it.
    pub fn record_view_build(&self) {
        self.view_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one planner-statistics snapshot that had to count a
    /// relation's distinct values from its rows (after registration or
    /// a bulk load) instead of reading the counts the writer keeps.
    pub fn record_statistics_recount(&self) {
        self.statistics_recounts.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-integer snapshot of the current totals.
    pub fn snapshot(&self) -> AccessSnapshot {
        AccessSnapshot {
            index_scan_rows: self.index_scan_rows.load(Ordering::Relaxed),
            csr_neighbor_rows: self.csr_neighbor_rows.load(Ordering::Relaxed),
            overlay_reads: self.overlay_reads.load(Ordering::Relaxed),
            dense_reads: self.dense_reads.load(Ordering::Relaxed),
            dict_decodes: self.dict_decodes.load(Ordering::Relaxed),
            writer_probes: self.writer_probes.load(Ordering::Relaxed),
            writer_probe_rows: self.writer_probe_rows.load(Ordering::Relaxed),
            view_builds: self.view_builds.load(Ordering::Relaxed),
            statistics_recounts: self.statistics_recounts.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter (the shell's `METRICS RESET;`).
    pub fn reset(&self) {
        self.index_scan_rows.store(0, Ordering::Relaxed);
        self.csr_neighbor_rows.store(0, Ordering::Relaxed);
        self.overlay_reads.store(0, Ordering::Relaxed);
        self.dense_reads.store(0, Ordering::Relaxed);
        self.dict_decodes.store(0, Ordering::Relaxed);
        self.writer_probes.store(0, Ordering::Relaxed);
        self.writer_probe_rows.store(0, Ordering::Relaxed);
        self.view_builds.store(0, Ordering::Relaxed);
        self.statistics_recounts.store(0, Ordering::Relaxed);
    }
}

/// Plain-integer totals read from [`AccessCounters::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessSnapshot {
    /// Rows `IndexScan` served from columnar storage.
    pub index_scan_rows: u64,
    /// Neighbor rows produced by CSR adjacency probes.
    pub csr_neighbor_rows: u64,
    /// Adjacency reads that merged a delta overlay.
    pub overlay_reads: u64,
    /// Adjacency reads answered by the frozen CSR alone.
    pub dense_reads: u64,
    /// Dictionary decode calls (code → value).
    pub dict_decodes: u64,
    /// Writer-path membership probes (edge endpoints, labels, property
    /// rows) answered by the column end indexes.
    pub writer_probes: u64,
    /// Candidate rows those probes examined — O(matches), not
    /// O(relation), which is the point of routing them through the
    /// indexes.
    pub writer_probe_rows: u64,
    /// Property-graph views pattern calls built per statement.
    pub view_builds: u64,
    /// Planner-statistics snapshots that counted a relation from its
    /// rows.
    pub statistics_recounts: u64,
}

impl AccessSnapshot {
    /// The counters accumulated since `earlier` was taken
    /// (saturating, in case `earlier` post-dates a reset).
    pub fn since(&self, earlier: &AccessSnapshot) -> AccessSnapshot {
        AccessSnapshot {
            index_scan_rows: self.index_scan_rows.saturating_sub(earlier.index_scan_rows),
            csr_neighbor_rows: self
                .csr_neighbor_rows
                .saturating_sub(earlier.csr_neighbor_rows),
            overlay_reads: self.overlay_reads.saturating_sub(earlier.overlay_reads),
            dense_reads: self.dense_reads.saturating_sub(earlier.dense_reads),
            dict_decodes: self.dict_decodes.saturating_sub(earlier.dict_decodes),
            writer_probes: self.writer_probes.saturating_sub(earlier.writer_probes),
            writer_probe_rows: self
                .writer_probe_rows
                .saturating_sub(earlier.writer_probe_rows),
            view_builds: self.view_builds.saturating_sub(earlier.view_builds),
            statistics_recounts: self
                .statistics_recounts
                .saturating_sub(earlier.statistics_recounts),
        }
    }
}

impl fmt::Display for AccessSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "store access counters (session-cumulative):")?;
        writeln!(f, "  index scan rows served : {}", self.index_scan_rows)?;
        writeln!(f, "  CSR neighbor rows      : {}", self.csr_neighbor_rows)?;
        writeln!(
            f,
            "  adjacency reads        : {} overlay / {} dense",
            self.overlay_reads, self.dense_reads
        )?;
        writeln!(f, "  dictionary decodes     : {}", self.dict_decodes)?;
        writeln!(
            f,
            "  writer probes          : {} ({} candidate row(s))",
            self.writer_probes, self.writer_probe_rows
        )?;
        writeln!(f, "  view builds            : {}", self.view_builds)?;
        write!(f, "  statistics recounts    : {}", self.statistics_recounts)
    }
}
