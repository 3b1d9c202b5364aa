//! The shared query engine behind every session — `pgq-server`'s
//! connections and the `sqlpgq_shell` example alike: one serialized
//! writer over a [`ConcurrentStore`], readers pinned to published
//! [`StoreSnapshot`]s (ARCHITECTURE.md §2 step 11).
//!
//! The grammar is [`pgq_parser::parse_command`]'s and is defined
//! nowhere else: [`Engine::statement`] parses one segment into a typed
//! [`Command`] and is one `match` over it — DDL and `GRAPH_TABLE`
//! queries, row mutations, `EXPLAIN [ANALYZE]`, `STATS`, `METRICS`,
//! `COMPACT`, `SET THREADS`, `SET PLANNER`. The concurrency discipline
//! layered on top:
//!
//! * the **base state** (live [`Database`] + parser [`Session`]
//!   catalog) sits behind a mutex, held only while lowering a query or
//!   applying a mutation — never across query execution;
//! * the **store** holds, per catalog graph `G`, the six canonical
//!   view relations staged under reserved names (`⟨N:G⟩` … `⟨P:G⟩`)
//!   plus the frozen view graph, maintained by the single serialized
//!   writer and republished as an immutable snapshot after every
//!   committed batch;
//! * reads grab the current read view (an `Arc` swap), drop every
//!   lock, and evaluate on the morsel-parallel coded pipeline against
//!   their pinned snapshot — a concurrent writer or `COMPACT` never
//!   perturbs an in-flight query.

use pgq_core::{eval_with_store, eval_with_store_profiled, explain_with, EvalConfig, Query};
use pgq_exec::{ExecOptions, PlannerChoice};
use pgq_parser::ast::GraphQuery;
use pgq_parser::{
    lower_query, parse_command, CatalogError, Command, MetricsMode, Outcome, PlannerToken,
    RowMutation, Session, Statement,
};
use pgq_relational::{Database, RelError, RelName, Relation};
use pgq_store::{
    AccessSnapshot, ConcurrentStore, DegreeHistogram, GraphForm, Store, StoreSnapshot,
    StoreStatistics, StoreStats,
};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Per-session knobs (each TCP connection, or the shell, has its own).
#[derive(Debug, Default, Clone)]
pub struct SessionState {
    /// `SET THREADS n;` — 0 means the environment default; clamped to the machine.
    pub threads: usize,
    /// `SET PLANNER {cost|rule};` — cost-based is the default.
    pub planner: PlannerChoice,
}

/// One catalog graph staged for snapshot evaluation: the six canonical
/// view relations under this graph's reserved names, plus the
/// identifier arity bound the view graph was frozen with.
#[derive(Debug)]
struct GraphView {
    names: [RelName; 6],
    k: usize,
    /// The staged relations as a database — the schema side of
    /// evaluation (the store side lives in the published snapshot).
    db: Database,
}

/// An immutable read configuration: a pinned store snapshot plus, for
/// every catalog graph, what that snapshot serves of it — the staged
/// view, or why the graph's last staging failed (a table without rows
/// yet, a dangling edge endpoint), which is then the answer of every
/// query on it. Swapped atomically as one `Arc` — a reader's snapshot
/// and graph map always agree.
#[derive(Debug)]
struct ReadView {
    snap: StoreSnapshot,
    graphs: BTreeMap<String, Result<Arc<GraphView>, String>>,
}

/// The protected base state: live rows plus the parser catalog.
#[derive(Debug, Default)]
struct BaseState {
    db: Database,
    session: Session,
}

/// What `SELECT`, `EXPLAIN` and `EXPLAIN ANALYZE` share: the lowered
/// query over the graph's staged relations, and the pinned snapshot
/// that serves them.
struct Prepared {
    query: Query,
    staged: Arc<GraphView>,
    snap: StoreSnapshot,
}

/// The shared engine — one per server process, `Arc`-shared across
/// connection threads.
#[derive(Debug)]
pub struct Engine {
    base: Mutex<BaseState>,
    store: ConcurrentStore,
    view: RwLock<Arc<ReadView>>,
    /// The cap on `SET THREADS n;`: the machine's parallelism, at most 8.
    max_threads: usize,
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

/// A heading line followed by an indented block.
fn block(head: &str, text: &str) -> Vec<String> {
    let mut lines = vec![format!("-- {head}")];
    lines.extend(text.lines().map(|l| format!("   {l}")));
    lines
}

/// A result relation: the row count, then one line per row.
fn rows(rel: &Relation) -> Vec<String> {
    let mut lines = vec![format!("-- {} row(s)", rel.len())];
    lines.extend(rel.iter().map(|row| row.to_string()));
    lines
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
            max_threads: std::thread::available_parallelism()
                .map_or(1, usize::from)
                .min(8),
        }
    }

    /// Executes one command of the session grammar (one segment of
    /// [`split_statements`]) and returns the response lines: `-- `
    /// notes, `!! ` typed errors, bare result rows.
    pub fn statement(&self, conn: &mut SessionState, stmt: &str) -> Vec<String> {
        parse_command(stmt)
            .map_err(|e| e.to_string())
            .and_then(|command| self.run(conn, command))
            .unwrap_or_else(|e| vec![format!("!! {e}")])
    }

    fn run(&self, conn: &mut SessionState, command: Command) -> Result<Vec<String>, String> {
        let cfg = EvalConfig::physical()
            .with_threads(conn.threads)
            .with_planner(conn.planner);
        Ok(match command {
            Command::Empty => Vec::new(),
            Command::Sql(Statement::GraphQuery(gq)) => {
                let p = self.prepare(&gq)?;
                let rel = eval_with_store(&p.query, &p.staged.db, cfg, &p.snap);
                rows(&rel.map_err(|e| e.to_string())?)
            }
            Command::Sql(ddl) => self.define(&ddl)?,
            Command::Mutation(m) => vec![format!("-- {}", self.mutate(m)?)],
            Command::Explain { analyze, query } => {
                let p = self.prepare(&query)?;
                if analyze {
                    let (_rel, profile) =
                        eval_with_store_profiled(&p.query, &p.staged.db, cfg, &p.snap)
                            .map_err(|e| e.to_string())?;
                    block("query profile", &profile.render(true))
                } else {
                    let opts = ExecOptions::with_threads(conn.threads).with_planner(conn.planner);
                    let plan =
                        explain_with(&p.query, &p.staged.db.schema(), Some(&p.snap), Some(&opts));
                    block("physical plan", &plan.map_err(|e| e.to_string())?)
                }
            }
            Command::Stats { json } => self.stats(json),
            Command::Metrics(mode) => self.metrics(mode),
            Command::Compact => vec![format!("-- compacted: {}", self.compact()?)],
            Command::SetThreads(n) => {
                conn.threads = n.min(self.max_threads);
                let resolved = ExecOptions::with_threads(conn.threads).threads;
                vec![format!(
                    "-- threads set to {n} (executor runs {resolved} worker(s))"
                )]
            }
            Command::SetPlanner(token) => {
                conn.planner = match token {
                    PlannerToken::Cost => PlannerChoice::Cost,
                    PlannerToken::Rule => PlannerChoice::Rule,
                };
                vec![format!("-- planner set to {}", conn.planner)]
            }
        })
    }

    /// `CREATE TABLE` / `CREATE PROPERTY GRAPH`: registers the
    /// definition in the catalog and stages a newly defined graph.
    fn define(&self, ddl: &Statement) -> Result<Vec<String>, String> {
        let mut base = self.lock_base();
        let BaseState { db, session } = &mut *base;
        Ok(match session.execute(ddl, db).map_err(|e| e.to_string())? {
            Outcome::TableDefined(n) => vec![format!("-- table {n} defined")],
            Outcome::GraphDefined(n) => {
                let mut lines = vec![format!("-- property graph {n} defined")];
                let note = self.restage(&base, &[n]);
                if !note.is_empty() {
                    lines.push(format!("-- staging{note}"));
                }
                lines
            }
            Outcome::Rows(rel) => rows(&rel),
        })
    }

    /// `INSERT INTO t VALUES (…)` / `DELETE FROM t VALUES (…)`: checks
    /// the row against `t`'s declared columns, mutates the live
    /// database, then re-stages every catalog graph built over the
    /// mutated table through the serialized writer and publishes the
    /// new snapshot.
    fn mutate(&self, m: RowMutation) -> Result<String, String> {
        let RowMutation { table, row, delete } = m;
        let mut base = self.lock_base();
        let columns = base.session.catalog.table_columns(&table);
        let declared = columns.map_err(|e| e.to_string())?.len();
        if declared != row.arity() {
            return Err(RelError::ArityMismatch {
                context: if delete {
                    "relation delete"
                } else {
                    "relation insert"
                },
                expected: declared,
                found: row.arity(),
            }
            .to_string());
        }
        let changed = if delete {
            base.db.remove(&RelName::from(table.as_str()), &row)
        } else {
            base.db
                .insert(table.clone(), row)
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
        let note = self.restage(&base, &affected);
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
    /// snapshot + graph map as an atomic [`ReadView`] swap. A graph
    /// whose staging fails (a view that became invalid, a table with
    /// no rows yet) is dropped from the store and keeps the failure in
    /// the read view; the returned note says so.
    ///
    /// Caller holds the base lock, which also serializes publication:
    /// two writers cannot interleave their view swaps.
    fn restage(&self, base: &BaseState, graphs: &[String]) -> String {
        if graphs.is_empty() {
            return String::new();
        }
        let staged: Vec<_> = graphs
            .iter()
            .map(|g| stage_graph(&base.session, &base.db, g))
            .collect();
        let installed = self
            .store
            .write(|s| -> Result<Vec<_>, Infallible> {
                let mut out = Vec::with_capacity(staged.len());
                for (g, gv) in graphs.iter().zip(staged) {
                    let gv = gv.and_then(|gv| {
                        install_graph(s, g, &gv)
                            .map(|()| Arc::new(gv))
                            .map_err(|e| e.to_string())
                    });
                    if gv.is_err() {
                        s.drop_graph(g);
                    }
                    out.push(gv);
                }
                Ok(out)
            })
            .unwrap_or_else(|e| match e {});
        let mut map = self.pin_view().graphs.clone();
        let mut note = String::new();
        for (g, gv) in graphs.iter().zip(installed) {
            if let Err(e) = &gv {
                note.push_str(&format!("; graph {g} unstaged: {e}"));
            }
            map.insert(g.clone(), gv);
        }
        self.publish(map);
        note
    }

    /// Swaps in a new [`ReadView`] pairing the latest published
    /// snapshot with `graphs`.
    fn publish(&self, graphs: BTreeMap<String, Result<Arc<GraphView>, String>>) {
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

    /// Lowers a `GRAPH_TABLE` query against the catalog and pins the
    /// read view, both under one brief base lock (so catalog and view
    /// agree); evaluation then runs lock-free on the result. A graph
    /// whose staging failed answers with that failure.
    fn prepare(&self, gq: &GraphQuery) -> Result<Prepared, String> {
        let (out, view) = {
            let base = self.lock_base();
            let out = lower_query(gq, &base.session.catalog).map_err(|e| e.to_string())?;
            (out, self.pin_view())
        };
        let staged = match view.graphs.get(&gq.graph) {
            Some(Ok(gv)) => Arc::clone(gv),
            Some(Err(e)) => return Err(e.clone()),
            // The view holds every catalog graph.
            None => return Err(CatalogError::UnknownGraph(gq.graph.clone()).to_string()),
        };
        let query = Query::pattern_n(staged.k, out, staged.names.clone().map(Query::rel));
        Ok(Prepared {
            query,
            staged,
            snap: view.snap.clone(),
        })
    }

    fn stats(&self, json: bool) -> Vec<String> {
        let view = self.pin_view();
        let stats = view.snap.stats();
        // Planner statistics off the pinned snapshot: a snapshot's
        // statistics cache is frozen with it, so repeated STATS calls
        // against one published view recompute nothing.
        let statistics = view.snap.as_store().statistics();
        if json {
            return stats_json(&stats, &statistics)
                .lines()
                .map(String::from)
                .collect();
        }
        let mut lines = block("store layout", &stats.to_string());
        lines.extend(block("planner statistics", &statistics.to_string()));
        lines
    }

    fn metrics(&self, mode: MetricsMode) -> Vec<String> {
        let view = self.pin_view();
        let counters = view.snap.counters();
        match mode {
            MetricsMode::Reset => {
                counters.reset();
                vec!["-- store access counters reset".into()]
            }
            MetricsMode::Json => metrics_json(&counters.snapshot())
                .lines()
                .map(String::from)
                .collect(),
            MetricsMode::Show => {
                let text = counters.snapshot().to_string();
                let (head, body) = text.split_once('\n').unwrap_or((&text, ""));
                block(head, body)
            }
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
/// the writer's working store. Replacing the first relation drops the
/// previous freeze; the new one is built from `gv.db` once all six are
/// in place.
fn install_graph(s: &mut Store, g: &str, gv: &GraphView) -> Result<(), pgq_store::StoreError> {
    for (name, rel) in gv.db.iter() {
        s.register_relation(name.clone(), rel)?;
    }
    s.register_view_graph(g, gv.names.clone(), &gv.db, GraphForm::Bounded(gv.k))
}

/// Splits a script into the segments [`Engine::statement`] takes, on
/// every `;` the lexer would read as one: not inside a single-quoted
/// string, not inside a `--` line comment.
pub fn split_statements(script: &str) -> Vec<String> {
    #[derive(Clone, Copy)]
    enum In {
        Code,
        Str,
        Comment,
    }
    let mut out = Vec::new();
    let mut current = String::new();
    let mut state = In::Code;
    for c in script.chars() {
        state = match (state, c) {
            (In::Code, ';') => {
                out.push(std::mem::take(&mut current));
                continue;
            }
            (In::Code, '\'') => In::Str,
            (In::Code, '-') if current.ends_with('-') => In::Comment,
            (In::Str, '\'') | (In::Comment, '\n') => In::Code,
            (state, _) => state,
        };
        current.push(c);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_where_the_lexer_sees_a_semicolon() {
        assert_eq!(split_statements("a; b;"), ["a", " b"]);
        assert_eq!(split_statements("a;; b"), ["a", "", " b"]);
        // Data, not separators: inside a string (with `''` escapes)...
        assert_eq!(
            split_statements("x ('a;b', 'it''s; fine'); y"),
            ["x ('a;b', 'it''s; fine')", " y"]
        );
        // ...and inside a line comment, whose apostrophe opens no string.
        assert_eq!(
            split_statements("-- don't; stop\na; b -- tail; c\n; d"),
            ["-- don't; stop\na", " b -- tail; c\n", " d"]
        );
        // Edge arrows are not comments.
        assert_eq!(
            split_statements("(x) -[t]-> (y) <-[u]- (z); q"),
            ["(x) -[t]-> (y) <-[u]- (z)", " q"]
        );
    }

    #[test]
    fn blank_and_comment_only_segments_answer_nothing() {
        let engine = Engine::new();
        let mut session = SessionState::default();
        for blank in ["", "  \n", "-- just a note", ";"] {
            assert!(
                engine.statement(&mut session, blank).is_empty(),
                "{blank:?}"
            );
        }
    }
}
