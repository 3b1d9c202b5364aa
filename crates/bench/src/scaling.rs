//! The PR 9 ingestion scaling curves (experiment E19, `BENCH_9.json`).
//!
//! For each generator in `pgq_workloads::scale` (power-law
//! preferential attachment and LDBC-style transfers) and each decade
//! scale point `10³ … max_nodes` (×[`EDGES_PER_NODE`] edges), one
//! [`ScalePoint`] records:
//!
//! * `bulk_load_ns` — `Store::bulk_load` straight from the generator's
//!   bulk layout (the zero-materialization route);
//! * `register_ns` — the register route (`BulkGraph::to_database` →
//!   `Store::from_database` → `Store::register_view_graph`), measured
//!   up to a cap (default 10⁵ nodes: the route materializes every row
//!   in `BTreeSet`s and re-validates the view, which is exactly why it
//!   does not reach 10⁶ in bench time);
//! * `reach_ns` / `reach_nodes` — a 64-seed multi-source reachability
//!   sweep through the frozen graph entry, reusing one `ReachScratch`
//!   (the post-load read path the loader exists to feed);
//! * `join_ns` / `join_rows` — the coded endpoint join
//!   (`perf::endpoint_join`) executed store-backed with **no decode**
//!   (the result stays a `CodedBatch`);
//! * the post-load [`MemoryBytes`] breakdown from `Store::stats`.
//!
//! [`assert_scaling_floors`] turns the curves into regression gates
//! (release builds only, like every perf floor in this crate): a
//! loader-throughput floor at the largest point, near-linear growth
//! between adjacent decades, and the headline claim — bulk ingest at
//! least 5× faster than the register route at the largest scale where
//! both ran.

use crate::perf::BenchEntry;
use pgq_exec::{execute_opts, plan_ra, ExecOptions, JsonWriter, QueryProfile};
use pgq_relational::{Database, RelName, Relation};
use pgq_store::{GraphForm, MemoryBytes, ReachScratch, Store};
use pgq_workloads::scale::{ldbc_transfers, power_law_graph};
use std::time::Instant;

/// Edges per node at every scale point: 10⁶ nodes ⇒ 10⁷ edges.
pub const EDGES_PER_NODE: usize = 10;

/// Seeds of the multi-source sweep at every scale point.
pub const REACH_SEEDS: usize = 64;

/// The default ceiling on the register-route comparison (nodes).
pub const REGISTER_CAP: usize = 100_000;

fn views() -> [RelName; 6] {
    ["N", "E", "S", "T", "L", "P"].map(Into::into)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_nanos().max(1))
}

/// One generator × scale measurement.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Generator name (`power_law` / `ldbc_transfers`).
    pub generator: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Total rows across the six relations.
    pub rows: usize,
    /// Wall-clock of `Store::bulk_load`.
    pub bulk_load_ns: u128,
    /// Wall-clock of the register route; `None` above the cap.
    pub register_ns: Option<u128>,
    /// Wall-clock of the [`REACH_SEEDS`]-seed sweep.
    pub reach_ns: u128,
    /// Nodes touched by the sweep (result sizes, summed).
    pub reach_nodes: usize,
    /// Wall-clock of the coded endpoint join (no decode).
    pub join_ns: u128,
    /// Rows the join produced (stays coded).
    pub join_rows: usize,
    /// Post-load resident-byte estimate by component.
    pub bytes: MemoryBytes,
}

impl ScalePoint {
    /// Loader throughput in rows per second.
    pub fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / (self.bulk_load_ns as f64 / 1e9)
    }
}

/// The decade scale points `10³, 10⁴, …` up to and including
/// `max_nodes` (always at least one point).
pub fn scale_points(max_nodes: usize) -> Vec<usize> {
    let mut pts = Vec::new();
    let mut n = 1_000usize;
    while n <= max_nodes {
        pts.push(n);
        n = n.saturating_mul(10);
    }
    if pts.is_empty() {
        pts.push(max_nodes.max(1));
    }
    pts
}

/// Measures the full curve: both generators at every decade point up
/// to `max_nodes`, the register route up to `register_cap`, with
/// `threads` interning/executor workers.
pub fn scaling_suite(max_nodes: usize, register_cap: usize, threads: usize) -> Vec<ScalePoint> {
    let mut out = Vec::new();
    for generator in ["power_law", "ldbc_transfers"] {
        for n in scale_points(max_nodes) {
            // Seed fixed per (generator, scale): the curves measure
            // scale, not instance luck.
            let g = match generator {
                "power_law" => power_law_graph(n, EDGES_PER_NODE, 9),
                _ => ldbc_transfers(n, EDGES_PER_NODE, 9),
            };
            let mut store = Store::new();
            let (stats, bulk_load_ns) = timed(|| {
                store
                    .bulk_load("G", views(), GraphForm::Exact(1), &g, threads)
                    .expect("generator output is well-formed")
            });
            let register_ns = (n <= register_cap).then(|| {
                let start = Instant::now();
                let db = g.to_database(&views());
                let mut reg = Store::from_database(&db);
                reg.register_view_graph("G", views(), &db, GraphForm::Exact(1))
                    .expect("generator views are valid");
                start.elapsed().as_nanos().max(1)
            });
            // Read path 1: multi-source reachability through the
            // frozen entry, scratch reused across seeds.
            let entry = store.graph("G").expect("just loaded");
            let view = entry.adjacency();
            let k = REACH_SEEDS.min(n.max(1));
            let seeds: Vec<u32> = (0..k).map(|i| (i * n / k) as u32).collect();
            let mut scratch = ReachScratch::new();
            let mut reached: Vec<u32> = Vec::new();
            let (reach_nodes, reach_ns) = timed(|| {
                let mut touched = 0usize;
                for &s in &seeds {
                    view.reach_from_into([s], &mut scratch, &mut reached);
                    touched += reached.len();
                }
                touched
            });
            // Read path 2: the coded endpoint join, result left coded.
            // The schema-only database carries the view shapes; the
            // rows come from the store's columnar relations.
            let mut empty = Database::new();
            for (name, arity) in views().iter().zip([1, 1, 2, 2, 2, 3]) {
                empty.add_relation(name.clone(), Relation::empty(arity));
            }
            let plan = crate::perf::rule_plan(
                plan_ra(&crate::perf::endpoint_join(), &empty.schema())
                    .expect("view schema has S/T"),
                &empty,
                &store,
            );
            let opts = ExecOptions::with_threads(threads);
            let (join_rows, join_ns) = timed(|| {
                execute_opts(&plan, &empty, Some(&store), &opts)
                    .expect("endpoint join runs store-backed")
                    .len()
            });
            out.push(ScalePoint {
                generator,
                nodes: stats.nodes,
                edges: stats.edges,
                rows: stats.rows,
                bulk_load_ns,
                register_ns,
                reach_ns,
                reach_nodes,
                join_ns,
                join_rows,
                bytes: stats.bytes,
            });
        }
    }
    out
}

/// The scaling curves as flat [`BenchEntry`] points (for callers that
/// want them alongside the classic suite output).
pub fn scaling_entries(points: &[ScalePoint]) -> Vec<BenchEntry> {
    points
        .iter()
        .map(|p| BenchEntry {
            name: format!("bulk_load/{}/{}", p.generator, p.nodes),
            input_size: p.rows,
            mean_ns: p.bulk_load_ns,
        })
        .collect()
}

/// The E19 regression gates, asserted per generator curve:
///
/// 1. **throughput floor** — the largest point must load at ≥ 250k
///    rows/s (a 1-core floor; the loader measures well above it);
/// 2. **near-linear growth** — a ×10 decade step may cost at most
///    5× more than proportional time;
/// 3. **bulk ≥ 5× register** — at the largest scale where the
///    register route ran.
///
/// # Panics
///
/// When a floor is broken (the caller gates on release builds).
pub fn assert_scaling_floors(points: &[ScalePoint]) {
    for generator in ["power_law", "ldbc_transfers"] {
        let curve: Vec<&ScalePoint> = points.iter().filter(|p| p.generator == generator).collect();
        assert!(!curve.is_empty(), "no scale points for {generator}");
        let top = curve.last().expect("non-empty");
        assert!(
            top.rows_per_sec() >= 250_000.0,
            "{generator}: loader throughput floor broken at {} nodes: {:.0} rows/s < 250k",
            top.nodes,
            top.rows_per_sec()
        );
        for w in curve.windows(2) {
            let (a, b) = (w[0], w[1]);
            let row_ratio = b.rows as f64 / a.rows as f64;
            let time_ratio = b.bulk_load_ns as f64 / a.bulk_load_ns as f64;
            // 5× proportional absorbs the decade step that crosses out
            // of last-level cache (~3× measured at 10⁵ → 10⁶) and
            // small-point timer noise, while still failing anything
            // accidentally quadratic (a 10× step would cost 10×
            // proportional).
            assert!(
                time_ratio <= 5.0 * row_ratio,
                "{generator}: super-linear growth {} → {} nodes: {time_ratio:.1}× time for {row_ratio:.1}× rows",
                a.nodes,
                b.nodes
            );
        }
        if let Some(p) = curve.iter().rev().find(|p| p.register_ns.is_some()) {
            let register = p.register_ns.expect("filtered on Some");
            assert!(
                register >= 5 * p.bulk_load_ns,
                "{generator}: bulk_load must be ≥ 5× the register route at {} nodes \
                 (bulk {} ns vs register {} ns = {:.1}×)",
                p.nodes,
                p.bulk_load_ns,
                register,
                register as f64 / p.bulk_load_ns as f64
            );
        }
    }
}

/// Writes the `"scaling"` section: one object per
/// `generator/nodes` point.
pub fn write_scaling_section(w: &mut JsonWriter, points: &[ScalePoint]) {
    w.key("scaling");
    w.begin_object();
    for p in points {
        w.key(&format!("{}/{}", p.generator, p.nodes));
        w.begin_object();
        w.key("nodes");
        w.number(p.nodes as u64);
        w.key("edges");
        w.number(p.edges as u64);
        w.key("rows");
        w.number(p.rows as u64);
        w.key("bulk_load_ns");
        w.number_u128(p.bulk_load_ns);
        if let Some(r) = p.register_ns {
            w.key("register_ns");
            w.number_u128(r);
        }
        w.key("reach_ns");
        w.number_u128(p.reach_ns);
        w.key("reach_nodes");
        w.number(p.reach_nodes as u64);
        w.key("join_ns");
        w.number_u128(p.join_ns);
        w.key("join_rows");
        w.number(p.join_rows as u64);
        w.key("bytes_dictionary");
        w.number(p.bytes.dictionary as u64);
        w.key("bytes_columns");
        w.number(p.bytes.columns as u64);
        w.key("bytes_csr");
        w.number(p.bytes.csr as u64);
        w.key("bytes_overlays");
        w.number(p.bytes.overlays as u64);
        w.key("bytes_total");
        w.number(p.bytes.total() as u64);
        w.end_object();
    }
    w.end_object();
}

/// The full `BENCH_9.json` document: `"benches"`, `"profiles"` and
/// `"serve"` exactly as in `BENCH_8.json`, plus the `"scaling"`
/// curves.
pub fn to_json_with_scaling(
    entries: &[BenchEntry],
    profiles: &[(String, QueryProfile)],
    serve: &crate::serve::ServeReport,
    points: &[ScalePoint],
) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    crate::perf::write_bench_section(&mut w, entries);
    crate::perf::write_profile_section(&mut w, profiles);
    crate::serve::write_serve_section(&mut w, serve);
    write_scaling_section(&mut w, points);
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decade_points_cover_the_requested_range() {
        assert_eq!(
            scale_points(1_000_000),
            vec![1_000, 10_000, 100_000, 1_000_000]
        );
        assert_eq!(scale_points(10_000), vec![1_000, 10_000]);
        assert_eq!(scale_points(50), vec![50]);
    }

    #[test]
    fn tiny_suite_measures_and_serializes() {
        // One tiny point per generator (decades collapse to the floor
        // point): the measurement plumbing and JSON shape, not perf.
        let points = scaling_suite(60, 60, 2);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.nodes, 60);
            assert!(p.edges > 0 && p.rows > p.edges);
            // The join projects endpoint pairs, so parallel edges
            // collapse under set semantics.
            assert!(
                p.join_rows > 0 && p.join_rows <= p.edges,
                "S⋈T yields one row per distinct endpoint pair"
            );
            assert!(p.reach_nodes > 0);
            assert!(p.bytes.total() > 0);
            assert!(p.register_ns.is_some());
        }
        let mut w = JsonWriter::pretty();
        w.begin_object();
        write_scaling_section(&mut w, &points);
        w.end_object();
        let json = w.finish();
        assert!(json.contains("\"power_law/60\""));
        assert!(json.contains("\"ldbc_transfers/60\""));
        assert!(json.contains("\"bytes_total\""));
        assert_eq!(scaling_entries(&points).len(), 2);
    }
}
