//! The shared query engine behind every connection: one serialized
//! writer over a [`ConcurrentStore`], readers pinned to published
//! [`StoreSnapshot`]s (ARCHITECTURE.md §2 step 11).
//!
//! The engine speaks the shell grammar (`examples/sqlpgq_shell.rs`):
//! DDL and `GRAPH_TABLE` queries go through the real parser, row
//! mutations / `STATS` / `METRICS` / `COMPACT` / `SET THREADS` /
//! `SET PLANNER` are the shell's session commands. The concurrency discipline layered on
//! top:
//!
//! * the **base state** (live [`Database`] + parser [`Session`]
//!   catalog) sits behind a mutex, held only while parsing/lowering a
//!   statement or applying a mutation — never across query execution;
//! * the **store** holds, per catalog graph `G`, the six canonical
//!   view relations staged under reserved names (`⟨N:G⟩` … `⟨P:G⟩`)
//!   plus the frozen view graph, maintained by the single serialized
//!   writer and republished as an immutable snapshot after every
//!   committed batch;
//! * reads grab the current read view (an `Arc` swap), drop every
//!   lock, and evaluate on the morsel-parallel coded pipeline against
//!   their pinned snapshot — a concurrent writer or `COMPACT` never
//!   perturbs an in-flight query.

use pgq_core::{eval_with_snapshot, eval_with_snapshot_profiled, EvalConfig, Query};
use pgq_exec::PlannerChoice;
use pgq_parser::{lower_query, parse_statement, Outcome, RowMutation, Session, Statement};
use pgq_relational::{Database, RelName, Relation};
use pgq_store::{
    AccessSnapshot, ConcurrentStore, DegreeHistogram, GraphForm, Store, StoreSnapshot,
    StoreStatistics, StoreStats,
};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Per-connection session knobs (each TCP connection gets its own).
#[derive(Debug, Default, Clone)]
pub struct SessionState {
    /// `SET THREADS n;` — 0 means the environment default.
    pub threads: usize,
    /// `SET PLANNER {cost|rule};` — cost-based is the default.
    pub planner: PlannerChoice,
}

/// One catalog graph staged for snapshot evaluation: the six canonical
/// view relations under this graph's reserved names, plus the
/// identifier arity bound the view graph was frozen with.
#[derive(Debug, Clone)]
struct GraphView {
    names: [RelName; 6],
    k: usize,
    /// The staged relations as a database — the schema/fallback side
    /// of evaluation (the store side lives in the published snapshot).
    db: Database,
}

/// An immutable read configuration: a pinned store snapshot plus the
/// staged graphs that snapshot serves. Swapped atomically as one
/// `Arc` — a reader's snapshot and graph map always agree.
#[derive(Debug)]
struct ReadView {
    snap: StoreSnapshot,
    graphs: BTreeMap<String, GraphView>,
}

/// The protected base state: live rows plus the parser catalog.
#[derive(Debug, Default)]
struct BaseState {
    db: Database,
    session: Session,
}

/// The shared engine — one per server process, `Arc`-shared across
/// connection threads.
#[derive(Debug)]
pub struct Engine {
    base: Mutex<BaseState>,
    store: ConcurrentStore,
    view: RwLock<Arc<ReadView>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// The reserved staged-relation names of catalog graph `g`.
fn staged_names(g: &str) -> [RelName; 6] {
    ["N", "E", "S", "T", "L", "P"].map(|c| RelName::new(format!("⟨{c}:{g}⟩")))
}

impl Engine {
    /// An empty engine: no tables, no graphs, an empty published
    /// snapshot.
    pub fn new() -> Self {
        let store = ConcurrentStore::new(Store::new());
        let snap = store.pin();
        Engine {
            base: Mutex::new(BaseState::default()),
            store,
            view: RwLock::new(Arc::new(ReadView {
                snap,
                graphs: BTreeMap::new(),
            })),
        }
    }

    /// Executes one shell-grammar statement (no trailing `;`) and
    /// returns the response lines — the same `-- ` / `!! ` / bare-row
    /// conventions the shell prints.
    pub fn statement(&self, conn: &mut SessionState, stmt: &str) -> Vec<String> {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            return Vec::new();
        }
        let upper = stmt.to_ascii_uppercase();
        if upper.starts_with("INSERT INTO") || upper.starts_with("DELETE FROM") {
            return match self.mutate(stmt) {
                Ok(text) => vec![format!("-- {text}")],
                Err(e) => vec![format!("!! {e}")],
            };
        }
        if upper == "STATS" || upper.starts_with("STATS ") {
            return self.stats(stmt["STATS".len()..].trim());
        }
        if upper == "METRICS" || upper.starts_with("METRICS ") {
            return self.metrics(stmt["METRICS".len()..].trim());
        }
        if upper == "COMPACT" {
            return match self.compact() {
                Ok(effect) => vec![format!("-- compacted: {effect}")],
                Err(e) => vec![format!("!! {e}")],
            };
        }
        if upper.starts_with("SET THREADS") {
            return match stmt["SET THREADS".len()..].trim().parse::<usize>() {
                Ok(n) => {
                    conn.threads = n;
                    let resolved = pgq_exec::ExecOptions::with_threads(n).threads;
                    vec![format!(
                        "-- threads set to {n} (executor runs {resolved} worker(s))"
                    )]
                }
                Err(_) => vec!["!! SET THREADS needs a non-negative integer (0 = default)".into()],
            };
        }
        if upper.starts_with("SET PLANNER") {
            return match PlannerChoice::parse(stmt["SET PLANNER".len()..].trim()) {
                Some(p) => {
                    conn.planner = p;
                    vec![format!("-- planner set to {p}")]
                }
                None => vec!["!! SET PLANNER needs cost or rule".into()],
            };
        }
        if let Some((inner, analyze)) = strip_explain(stmt) {
            let result = if analyze {
                self.explain_analyze(conn, inner)
                    .map(|t| ("query profile", t))
            } else {
                self.explain(conn, inner).map(|t| ("physical plan", t))
            };
            return match result {
                Ok((head, text)) => {
                    let mut lines = vec![format!("-- {head}")];
                    lines.extend(text.lines().map(|l| format!("   {l}")));
                    lines
                }
                Err(e) => vec![format!("!! {e}")],
            };
        }
        if upper.starts_with("SELECT") {
            return match self.select(conn, stmt) {
                Ok(rows) => {
                    let mut lines = vec![format!("-- {} row(s)", rows.len())];
                    lines.extend(rows.iter().map(|row| row.to_string()));
                    lines
                }
                Err(e) => vec![format!("!! {e}")],
            };
        }
        self.script(stmt)
    }

    /// A whole script (`;`-separated statements) through one session
    /// state — the oracle entry point the load generator's divergence
    /// check replays transcripts against.
    pub fn script(&self, stmt: &str) -> Vec<String> {
        // Only reached for DDL (everything else is dispatched above);
        // public because a `;`-joined DDL batch is the natural setup
        // call for embedders and tests.
        let mut lines = Vec::new();
        let mut defined: Vec<String> = Vec::new();
        {
            let mut base = self.lock_base();
            let BaseState { db, session } = &mut *base;
            match session.run_script(&format!("{stmt};"), db) {
                Ok(outcomes) => {
                    for outcome in outcomes {
                        match outcome {
                            Outcome::TableDefined(n) => lines.push(format!("-- table {n} defined")),
                            Outcome::GraphDefined(n) => {
                                lines.push(format!("-- property graph {n} defined"));
                                defined.push(n);
                            }
                            Outcome::Rows(rows) => {
                                lines.push(format!("-- {} row(s)", rows.len()));
                                lines.extend(rows.iter().map(|row| row.to_string()));
                            }
                        }
                    }
                }
                Err(e) => lines.push(format!("!! {e}")),
            }
            if !defined.is_empty() {
                let mut note = String::new();
                self.restage(&base, &defined, &mut note);
                if !note.is_empty() {
                    lines.push(format!("-- staging{note}"));
                }
            }
        }
        lines
    }

    /// `INSERT INTO t VALUES (…)` / `DELETE FROM t VALUES (…)`:
    /// mutates the live database, then re-stages every catalog graph
    /// built over the mutated table through the serialized writer and
    /// publishes the new snapshot.
    fn mutate(&self, stmt: &str) -> Result<String, String> {
        let RowMutation { table, row, delete } =
            pgq_parser::parse_mutation(stmt).map_err(|e| e.to_string())?;
        let mut base = self.lock_base();
        let changed = if delete {
            base.db.remove(&table.as_str().into(), &row)
        } else {
            base.db
                .insert(table.clone(), row.clone())
                .map_err(|e| e.to_string())?
        };
        let affected: Vec<String> = base
            .session
            .catalog
            .graph_names()
            .filter(|g| {
                base.session.catalog.graph(g).is_ok_and(|cg| {
                    cg.node_tables.iter().any(|nt| nt.table == table)
                        || cg.edge_tables.iter().any(|et| et.table == table)
                })
            })
            .map(String::from)
            .collect();
        let mut note = String::new();
        self.restage(&base, &affected, &mut note);
        let verb = if delete {
            "deleted from"
        } else {
            "inserted into"
        };
        let effect = if changed { "" } else { " (no-op)" };
        Ok(format!("{verb} {table}{effect}{note}"))
    }

    /// Re-stages the named catalog graphs from the current base state
    /// through one serialized writer batch, then publishes the new
    /// snapshot + graph map as an atomic [`ReadView`] swap. Staging
    /// failures (a graph whose view became invalid, a table with no
    /// rows yet) drop the graph from the read view with a note —
    /// queries on it fall back to per-query evaluation.
    ///
    /// Caller holds the base lock, which also serializes publication:
    /// two writers cannot interleave their view swaps.
    fn restage(&self, base: &BaseState, graphs: &[String], note: &mut String) {
        if graphs.is_empty() {
            return;
        }
        let mut staged: Vec<(String, Option<GraphView>)> = Vec::new();
        for g in graphs {
            match stage_graph(&base.session, &base.db, g) {
                Ok(gv) => staged.push((g.clone(), Some(gv))),
                Err(e) => {
                    note.push_str(&format!("; graph {g} unstaged: {e}"));
                    staged.push((g.clone(), None));
                }
            }
        }
        let installed = self
            .store
            .write(
                |s| -> Result<Vec<(String, Option<GraphView>)>, Infallible> {
                    let mut out = Vec::with_capacity(staged.len());
                    for (g, gv) in staged {
                        match gv {
                            Some(gv) => match install_graph(s, &g, &gv) {
                                Ok(()) => out.push((g, Some(gv))),
                                Err(e) => {
                                    s.drop_graph(&g);
                                    note.push_str(&format!("; graph {g} unstaged: {e}"));
                                    out.push((g, None));
                                }
                            },
                            None => {
                                s.drop_graph(&g);
                                out.push((g, None));
                            }
                        }
                    }
                    Ok(out)
                },
            )
            .unwrap_or_else(|e| match e {});
        let mut map = self.pin_view().graphs.clone();
        for (g, gv) in installed {
            match gv {
                Some(gv) => {
                    map.insert(g, gv);
                }
                None => {
                    map.remove(&g);
                }
            }
        }
        self.publish(map);
    }

    /// Swaps in a new [`ReadView`] pairing the latest published
    /// snapshot with `graphs`.
    fn publish(&self, graphs: BTreeMap<String, GraphView>) {
        let snap = self.store.pin();
        *self.view.write().unwrap_or_else(PoisonError::into_inner) =
            Arc::new(ReadView { snap, graphs });
    }

    fn pin_view(&self) -> Arc<ReadView> {
        self.view
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn lock_base(&self) -> std::sync::MutexGuard<'_, BaseState> {
        // A connection thread that panicked mid-statement cannot have
        // left a half-applied store batch behind (the writer publishes
        // only committed clones), so the base lock is recoverable.
        self.base.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs a `GRAPH_TABLE` query: parse/lower under the base lock,
    /// then evaluate lock-free against the pinned [`ReadView`].
    fn select(&self, conn: &SessionState, stmt: &str) -> Result<Relation, String> {
        let (graph, out, k) = self.lower(stmt)?;
        let view = self.pin_view();
        let cfg = EvalConfig::physical()
            .with_threads(conn.threads)
            .with_planner(conn.planner);
        if let Some(gv) = view.graphs.get(&graph) {
            let q = Query::pattern_n(gv.k, out, gv.names.clone().map(Query::rel));
            return eval_with_snapshot(&q, &gv.db, cfg, &view.snap).map_err(|e| e.to_string());
        }
        // Not staged (invalid view or empty tables): per-query scratch
        // evaluation under the base lock, exactly the shell's route.
        let base = self.lock_base();
        let gv = stage_graph(&base.session, &base.db, &graph)?;
        let mut scratch = Store::from_database(&gv.db);
        let _ = scratch.register_view_graph(
            graph.clone(),
            gv.names.clone(),
            &gv.db,
            GraphForm::Bounded(gv.k),
        );
        let q = Query::pattern_n(k, out, gv.names.clone().map(Query::rel));
        let rel =
            pgq_core::eval_with_store(&q, &gv.db, cfg, &scratch).map_err(|e| e.to_string())?;
        // Fold the scratch run's access counters into the shared ones
        // so METRICS stays session-cumulative.
        self.store
            .pin()
            .counters()
            .absorb(&scratch.counters().snapshot());
        Ok(rel)
    }

    /// `EXPLAIN SELECT …` — the plan against the pinned snapshot.
    fn explain(&self, conn: &SessionState, inner: &str) -> Result<String, String> {
        let (graph, out, k) = self.lower(inner)?;
        let view = self.pin_view();
        let opts = pgq_exec::ExecOptions::with_threads(conn.threads).with_planner(conn.planner);
        if let Some(gv) = view.graphs.get(&graph) {
            let q = Query::pattern_n(gv.k, out, gv.names.clone().map(Query::rel));
            return pgq_core::explain_with_exec_opts(
                &q,
                &gv.db.schema(),
                Some(view.snap.as_store()),
                opts,
            )
            .map_err(|e| e.to_string());
        }
        let base = self.lock_base();
        let gv = stage_graph(&base.session, &base.db, &graph)?;
        let scratch = Store::from_database(&gv.db);
        let q = Query::pattern_n(k, out, gv.names.clone().map(Query::rel));
        pgq_core::explain_with_exec_opts(&q, &gv.db.schema(), Some(&scratch), opts)
            .map_err(|e| e.to_string())
    }

    /// `EXPLAIN ANALYZE SELECT …` — runs on the pinned snapshot with
    /// per-operator metrics and renders the profile tree.
    fn explain_analyze(&self, conn: &SessionState, inner: &str) -> Result<String, String> {
        let (graph, out, _) = self.lower(inner)?;
        let view = self.pin_view();
        let cfg = EvalConfig::physical()
            .with_threads(conn.threads)
            .with_planner(conn.planner);
        let gv = view
            .graphs
            .get(&graph)
            .ok_or_else(|| format!("graph {graph} is not staged (no rows yet?)"))?;
        let q = Query::pattern_n(gv.k, out, gv.names.clone().map(Query::rel));
        let (_rel, profile) =
            eval_with_snapshot_profiled(&q, &gv.db, cfg, &view.snap).map_err(|e| e.to_string())?;
        Ok(profile.render(true))
    }

    /// Parses and lowers a `GRAPH_TABLE` statement under a brief base
    /// lock. Returns `(graph name, lowered output pattern, id arity)`.
    fn lower(&self, stmt: &str) -> Result<(String, pgq_pattern::OutputPattern, usize), String> {
        let parsed = parse_statement(&format!("{stmt};")).map_err(|e| e.to_string())?;
        let Statement::GraphQuery(gq) = parsed else {
            return Err("expected a GRAPH_TABLE query".to_string());
        };
        let base = self.lock_base();
        let out = lower_query(&gq, &base.session.catalog).map_err(|e| e.to_string())?;
        let k = base
            .session
            .catalog
            .id_arity(&gq.graph)
            .map_err(|e| e.to_string())?;
        Ok((gq.graph.clone(), out, k))
    }

    fn stats(&self, arg: &str) -> Vec<String> {
        if !arg.is_empty() && !arg.eq_ignore_ascii_case("JSON") {
            return vec!["!! STATS takes no argument or JSON".into()];
        }
        let view = self.pin_view();
        let stats = view.snap.stats();
        // Planner statistics off the pinned snapshot: a snapshot's
        // statistics cache is frozen with it, so repeated STATS calls
        // against one published view recompute nothing.
        let statistics = view.snap.as_store().statistics();
        if arg.is_empty() {
            let mut lines = vec!["-- store layout".to_string()];
            lines.extend(stats.to_string().lines().map(|l| format!("   {l}")));
            lines.push("-- planner statistics".to_string());
            lines.extend(statistics.to_string().lines().map(|l| format!("   {l}")));
            lines
        } else {
            stats_json(&stats, &statistics)
                .lines()
                .map(String::from)
                .collect()
        }
    }

    fn metrics(&self, arg: &str) -> Vec<String> {
        let counters = self.pin_view().snap.counters().snapshot();
        if arg.eq_ignore_ascii_case("RESET") {
            self.pin_view().snap.counters().reset();
            vec!["-- store access counters reset".into()]
        } else if arg.eq_ignore_ascii_case("JSON") {
            metrics_json(&counters).lines().map(String::from).collect()
        } else if arg.is_empty() {
            let text = counters.to_string();
            let mut lines = Vec::new();
            let mut it = text.lines();
            if let Some(head) = it.next() {
                lines.push(format!("-- {head}"));
            }
            lines.extend(it.map(|l| format!("   {l}")));
            lines
        } else {
            vec!["!! METRICS takes no argument, JSON, or RESET".into()]
        }
    }

    /// `COMPACT;` as a snapshot swap: the writer rebuilds dictionary
    /// and indexes, publishes, and the read view re-pins — readers on
    /// the old snapshot keep decoding through their pinned dictionary.
    fn compact(&self) -> Result<pgq_store::CompactionStats, String> {
        let base = self.lock_base();
        let stats = self.store.compact().map_err(|e| e.to_string())?;
        let map = self.pin_view().graphs.clone();
        drop(base);
        self.publish(map);
        Ok(stats)
    }
}

/// Builds the staged database + reserved names for catalog graph `g`
/// from the live base state.
fn stage_graph(session: &Session, db: &Database, g: &str) -> Result<GraphView, String> {
    let rels = session
        .catalog
        .view_relations(g, db)
        .map_err(|e| e.to_string())?;
    let k = session.catalog.id_arity(g).map_err(|e| e.to_string())?;
    let names = staged_names(g);
    let mut sdb = Database::new();
    for (name, rel) in names.clone().into_iter().zip([
        rels.nodes,
        rels.edges,
        rels.src,
        rels.tgt,
        rels.labels,
        rels.props,
    ]) {
        sdb.add_relation(name, rel);
    }
    Ok(GraphView { names, k, db: sdb })
}

/// Registers a staged graph's six relations and frozen view graph into
/// the writer's working store.
fn install_graph(s: &mut Store, g: &str, gv: &GraphView) -> Result<(), pgq_store::StoreError> {
    // Drop the previous freeze first: `register_relation` re-freezes
    // any view graph backed by the relation, and doing that after only
    // some of the six views have been replaced validates a torn view
    // (new edges against the old src/tgt) — spuriously unstaging the
    // graph. The consistent freeze is rebuilt from `gv.db` below.
    s.drop_graph(g);
    for (name, rel) in gv.db.iter() {
        s.register_relation(name.clone(), rel)?;
    }
    s.register_view_graph(g, gv.names.clone(), &gv.db, GraphForm::Bounded(gv.k))
}

/// `EXPLAIN [ANALYZE] <statement>` → inner statement + ANALYZE flag.
fn strip_explain(stmt: &str) -> Option<(&str, bool)> {
    let rest = strip_keyword(stmt, "EXPLAIN")?;
    if let Some(inner) = strip_keyword(rest, "ANALYZE") {
        return Some((inner, true));
    }
    Some((rest, false))
}

fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    if s.len() <= kw.len() || !s[..kw.len()].eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = &s[kw.len()..];
    rest.starts_with(char::is_whitespace)
        .then(|| rest.trim_start())
}

/// Splits a script on `;` while respecting single-quoted strings —
/// the shell's statement splitter, reused by the line protocol.
pub fn split_statements(script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in script.chars() {
        match c {
            '\'' => {
                in_string = !in_string;
                current.push(c);
            }
            ';' if !in_string => {
                out.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current);
    }
    out
}

/// `METRICS JSON;` through the hand-rolled writer.
fn metrics_json(snap: &AccessSnapshot) -> String {
    let mut w = pgq_exec::JsonWriter::pretty();
    w.begin_object();
    w.key("index_scan_rows");
    w.number(snap.index_scan_rows);
    w.key("csr_neighbor_rows");
    w.number(snap.csr_neighbor_rows);
    w.key("csr_sweep_sources");
    w.number(snap.csr_sweep_sources);
    w.key("overlay_reads");
    w.number(snap.overlay_reads);
    w.key("dense_reads");
    w.number(snap.dense_reads);
    w.key("dict_decodes");
    w.number(snap.dict_decodes);
    w.key("writer_probes");
    w.number(snap.writer_probes);
    w.key("writer_probe_rows");
    w.number(snap.writer_probe_rows);
    w.end_object();
    w.finish()
}

/// One direction of a degree histogram as a JSON object.
fn histogram_json(w: &mut pgq_exec::JsonWriter, key: &str, h: &DegreeHistogram) {
    w.key(key);
    w.begin_object();
    w.key("nodes");
    w.number(h.nodes as u64);
    w.key("edges");
    w.number(h.edges as u64);
    w.key("min");
    w.number(h.min as u64);
    w.key("mean");
    w.float(h.mean);
    w.key("p99");
    w.number(h.p99 as u64);
    w.key("max");
    w.number(h.max as u64);
    w.end_object();
}

/// `STATS JSON;` — the storage-layout report plus the planner
/// statistics as JSON.
fn stats_json(stats: &StoreStats, statistics: &StoreStatistics) -> String {
    let mut w = pgq_exec::JsonWriter::pretty();
    w.begin_object();
    w.key("dictionary_total");
    w.number(stats.dictionary_total as u64);
    w.key("dictionary_live");
    w.number(stats.dictionary_live as u64);
    w.key("dictionary_stale");
    w.number(stats.dictionary_stale() as u64);
    w.key("overlay_entries");
    w.number(stats.overlay_entries() as u64);
    w.key("tombstone_rows");
    w.number(stats.tombstone_rows() as u64);
    w.key("bytes");
    w.begin_object();
    w.key("dictionary");
    w.number(stats.bytes.dictionary as u64);
    w.key("columns");
    w.number(stats.bytes.columns as u64);
    w.key("csr");
    w.number(stats.bytes.csr as u64);
    w.key("overlays");
    w.number(stats.bytes.overlays as u64);
    w.key("total");
    w.number(stats.bytes.total() as u64);
    w.end_object();
    w.key("relations");
    w.number(stats.relations.len() as u64);
    w.key("graphs");
    w.number(stats.graphs.len() as u64);
    w.key("statistics");
    w.begin_object();
    w.key("epoch");
    w.number(statistics.epoch);
    w.key("dictionary_codes");
    w.number(statistics.dictionary_codes as u64);
    w.key("relations");
    w.begin_array();
    for (name, r) in &statistics.relations {
        w.begin_object();
        w.key("name");
        w.string(&name.to_string());
        w.key("live_rows");
        w.number(r.live_rows as u64);
        w.key("tombstone_rows");
        w.number(r.tombstone_rows as u64);
        w.key("distinct");
        w.begin_array();
        for d in &r.distinct {
            w.number(*d as u64);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("graphs");
    w.begin_array();
    for (name, g) in &statistics.graphs {
        w.begin_object();
        w.key("name");
        w.string(name);
        histogram_json(&mut w, "forward", &g.adjacency.forward);
        histogram_json(&mut w, "reverse", &g.adjacency.reverse);
        w.key("overlay");
        w.number(g.adjacency.overlay as u64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_object();
    w.finish()
}
