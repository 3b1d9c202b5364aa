//! A miniature SQL/PGQ shell: loads data rows and statements from a
//! script file (or runs a built-in demo) and prints each result.
//!
//! Script format: SQL/PGQ statements separated by `;`, plus a tiny
//! mutation syntax (`pgq_parser::parse_mutation`, applied by the shell:
//! the formal model is read-only, Section 7 "Updates" — the shell makes
//! the simulation *incremental*), plus three introspection commands:
//!
//! * `INSERT INTO table VALUES (v, …);` / `DELETE FROM table VALUES
//!   (v, …);` — row-level mutations. They edit the live database *and*
//!   the session store in place: columnar relations append or
//!   tombstone, binary-relation CSR indexes take the change as a delta
//!   overlay, and graphs over a mutated table are refrozen — no full
//!   re-registration;
//! * `EXPLAIN SELECT …;` — prints the S15/S16 physical plan (operator
//!   tree, pattern route, view subplans) instead of running the query.
//!   The shell stages EXPLAIN against a *fresh* scratch
//!   store, so its plan tree is overlay-free; when the *session* store
//!   carries pending overlays or tombstones a trailing `session store:`
//!   line reports them (the per-operator `⟨delta⟩` markers
//!   `PhysPlan::display_with` emits appear when explaining against a
//!   long-lived library store);
//! * `EXPLAIN ANALYZE SELECT …;` — *runs* the query with per-operator
//!   metrics collection on and prints the annotated profile tree
//!   instead of the rows: rows in/out, wall time and degree of
//!   parallelism per operator, hash-join build sizes, fixpoint
//!   iteration counts with per-round Δ-frontier sizes, per-worker
//!   morsel counts. The non-timing fields are byte-identical at every
//!   `SET THREADS` value;
//! * `STATS;` — prints the session store's storage layout: dictionary
//!   residency (codes minted / live / stale), overlay sizes, tombstone
//!   counts, resident bytes by component (dictionary / columns / CSR /
//!   overlays), and the effect of the last compaction — followed by
//!   the planner statistics (PR 10): per-column distinct counts, live
//!   and tombstoned rows per relation, and forward/reverse degree
//!   histogram summaries (min/mean/p99/max) per CSR index and graph.
//!   `STATS JSON;` emits the same report as JSON, with the byte
//!   breakdown under a `"bytes"` object and the planner statistics
//!   under `"statistics"`;
//! * `METRICS;` — prints session-cumulative store access counters
//!   (IndexScan rows served, CSR neighbor/sweep reads,
//!   overlay-vs-dense adjacency reads, dictionary decodes).
//!   `METRICS JSON;` emits JSON; `METRICS RESET;` zeroes them;
//! * `COMPACT;` — folds every overlay and rebuilds the dictionary
//!   retaining live codes (`Store::compact`), reporting what was
//!   reclaimed;
//! * `SET THREADS n;` — worker threads for the morsel-parallel
//!   physical executor (`0` restores the environment default:
//!   `PGQ_THREADS`, else the machine's parallelism). GRAPH_TABLE
//!   queries run through the store-backed physical engine on that
//!   many workers — results are identical at every setting — and
//!   `EXPLAIN` annotates each parallel operator with its degree of
//!   parallelism (`⟨dop≤n⟩`);
//! * `SET PLANNER cost;` / `SET PLANNER rule;` — which pass lowers
//!   plans onto the session store (PR 10): the statistics-driven
//!   cost-based planner (the default) or the fixed rule-based rewrite
//!   (the escape hatch and ablation baseline). Results are identical
//!   under both — only plan shapes move — and `EXPLAIN` renders the
//!   plan the active planner would execute.
//!
//! ```sh
//! cargo run --example sqlpgq_shell            # built-in demo
//! cargo run --example sqlpgq_shell -- my.pgq  # run a script file
//! ```

use sqlpgq::parser::RowMutation;
use sqlpgq::prelude::*;
use sqlpgq::store::{GraphForm, Store, StoreSnapshot};

const DEMO: &str = r#"
CREATE TABLE Account (iban);
CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount);
INSERT INTO Account VALUES ('IL01');
INSERT INTO Account VALUES ('IL02');
INSERT INTO Account VALUES ('IL03');
INSERT INTO Transfer VALUES (1, 'IL01', 'IL02', 100, 500);
INSERT INTO Transfer VALUES (2, 'IL02', 'IL03', 101, 750);
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount));
SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
STATS;
SET THREADS 2;
SET PLANNER rule;
SET PLANNER cost;
INSERT INTO Account VALUES ('IL04');
INSERT INTO Transfer VALUES (3, 'IL03', 'IL04', 102, 900);
DELETE FROM Transfer VALUES (1, 'IL01', 'IL02', 100, 500);
SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
STATS;
EXPLAIN SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
EXPLAIN ANALYZE SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t]->+ (y)
  RETURN (x.iban, y.iban));
METRICS;
COMPACT;
STATS;
"#;

fn main() {
    let script = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => DEMO.to_string(),
    };
    let mut db = Database::new();
    let mut session = Session::new();
    // The session store: built on first use, then maintained in place
    // by the shell's mutations — STATS shows the overlays accumulate
    // and COMPACT fold, across statements.
    let mut store: Option<Store> = None;
    // `SET THREADS n;` — 0 means the environment default.
    let mut threads: usize = 0;
    // `SET PLANNER {cost|rule};` — cost-based is the default.
    let mut planner = sqlpgq::exec::PlannerChoice::default();
    // Session-cumulative store access counters: each GRAPH_TABLE query
    // runs on a short-lived scratch store whose counters are absorbed
    // here, so `METRICS;` reports totals across the whole session.
    let session_counters = sqlpgq::store::AccessCounters::default();

    // Split on `;` at the top level and route mutations to the shell's
    // own handler; everything else goes through the real parser.
    for raw in split_statements(&script) {
        let stmt = raw.trim();
        if stmt.is_empty() {
            continue;
        }
        let upper = stmt.to_ascii_uppercase();
        if upper.starts_with("INSERT INTO") || upper.starts_with("DELETE FROM") {
            match mutate(&mut db, &mut store, &session, stmt) {
                Ok(text) => println!("-- {text}"),
                Err(e) => println!("!! {e}"),
            }
            continue;
        }
        if upper == "STATS" || upper.starts_with("STATS ") {
            let arg = stmt["STATS".len()..].trim();
            if !arg.is_empty() && !arg.eq_ignore_ascii_case("JSON") {
                println!("!! STATS takes no argument or JSON");
                continue;
            }
            match ensure_store(&mut store, &session, &db) {
                Ok(store) => {
                    if arg.is_empty() {
                        println!("-- store layout");
                        for line in store.stats().to_string().lines() {
                            println!("   {line}");
                        }
                        println!("-- planner statistics");
                        for line in store.statistics().to_string().lines() {
                            println!("   {line}");
                        }
                    } else {
                        println!("{}", stats_json(&store.stats(), &store.statistics()));
                    }
                }
                Err(e) => println!("!! {e}"),
            }
            continue;
        }
        if upper == "METRICS" || upper.starts_with("METRICS ") {
            let arg = stmt["METRICS".len()..].trim();
            if arg.eq_ignore_ascii_case("RESET") {
                session_counters.reset();
                println!("-- store access counters reset");
            } else if arg.eq_ignore_ascii_case("JSON") {
                println!("{}", metrics_json(&session_counters.snapshot()));
            } else if arg.is_empty() {
                let text = session_counters.snapshot().to_string();
                let mut lines = text.lines();
                if let Some(head) = lines.next() {
                    println!("-- {head}");
                }
                for line in lines {
                    println!("   {line}");
                }
            } else {
                println!("!! METRICS takes no argument, JSON, or RESET");
            }
            continue;
        }
        if stmt.eq_ignore_ascii_case("COMPACT") {
            let result = ensure_store(&mut store, &session, &db).and_then(|s| Ok(s.compact()?));
            match result {
                Ok(effect) => println!("-- compacted: {effect}"),
                Err(e) => println!("!! {e}"),
            }
            continue;
        }
        if upper.starts_with("SET THREADS") {
            match stmt["SET THREADS".len()..].trim().parse::<usize>() {
                Ok(n) => {
                    threads = n;
                    let resolved = sqlpgq::exec::ExecOptions::with_threads(n).threads;
                    println!("-- threads set to {n} (executor runs {resolved} worker(s))");
                }
                Err(_) => println!("!! SET THREADS needs a non-negative integer (0 = default)"),
            }
            continue;
        }
        if upper.starts_with("SET PLANNER") {
            match sqlpgq::exec::PlannerChoice::parse(stmt["SET PLANNER".len()..].trim()) {
                Some(p) => {
                    planner = p;
                    println!("-- planner set to {planner}");
                }
                None => println!("!! SET PLANNER needs cost or rule"),
            }
            continue;
        }
        if let Some((inner, analyze)) = strip_explain(stmt) {
            if analyze {
                match explain_analyze(&session, &db, threads, planner, &session_counters, inner) {
                    Ok(text) => {
                        println!("-- query profile");
                        for line in text.lines() {
                            println!("   {line}");
                        }
                    }
                    Err(e) => println!("!! {e}"),
                }
                continue;
            }
            match explain(&session, &db, store.as_ref(), threads, planner, inner) {
                Ok(text) => {
                    println!("-- physical plan");
                    for line in text.lines() {
                        println!("   {line}");
                    }
                }
                Err(e) => println!("!! {e}"),
            }
            continue;
        }
        if upper.starts_with("SELECT") {
            match graph_select(&session, &db, threads, planner, &session_counters, stmt) {
                Ok(rows) => {
                    println!("-- {} row(s)", rows.len());
                    for row in rows.iter() {
                        println!("{row}");
                    }
                }
                Err(e) => println!("!! {e}"),
            }
            continue;
        }
        match session.run_script(&format!("{stmt};"), &db) {
            Ok(outcomes) => {
                for outcome in outcomes {
                    match outcome {
                        Outcome::TableDefined(n) => println!("-- table {n} defined"),
                        Outcome::GraphDefined(n) => println!("-- property graph {n} defined"),
                        Outcome::Rows(rows) => {
                            println!("-- {} row(s)", rows.len());
                            for row in rows.iter() {
                                println!("{row}");
                            }
                        }
                    }
                }
            }
            Err(e) => println!("!! {e}"),
        }
    }
}

/// `EXPLAIN [ANALYZE] <statement>` → the inner statement plus whether
/// ANALYZE was given, `None` otherwise (each keyword must be a whole
/// word — `EXPLAINED_VIEW …` is not EXPLAIN).
fn strip_explain(stmt: &str) -> Option<(&str, bool)> {
    let rest = strip_keyword(stmt, "EXPLAIN")?;
    if let Some(inner) = strip_keyword(rest, "ANALYZE") {
        return Some((inner, true));
    }
    Some((rest, false))
}

/// Strips a leading case-insensitive whole-word keyword, returning the
/// trimmed remainder.
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    if s.len() <= kw.len() || !s[..kw.len()].eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = &s[kw.len()..];
    rest.starts_with(char::is_whitespace)
        .then(|| rest.trim_start())
}

/// Renders the S15/S16 physical plan of a `GRAPH_TABLE` query without
/// running it: the graph's six canonical view relations become scratch
/// scans, the match becomes a `Query::Pattern`, and
/// `pgq_core::explain_with` prints the operator tree, the pattern's
/// routing decision (semi-naive fixpoint / NFA BFS / reference), and —
/// because the scratch relations are registered in a session store —
/// the store lowering (`IndexScan`/`AdjacencyExpand` leaves).
fn explain(
    session: &Session,
    db: &Database,
    session_store: Option<&Store>,
    threads: usize,
    planner: sqlpgq::exec::PlannerChoice,
    inner: &str,
) -> Result<String, Box<dyn std::error::Error>> {
    use sqlpgq::parser::{parse_statement, Statement};

    let stmt = parse_statement(&format!("{inner};"))?;
    let Statement::GraphQuery(gq) = stmt else {
        return Ok("EXPLAIN supports GRAPH_TABLE queries".to_string());
    };
    let out = sqlpgq::parser::lower_query(&gq, &session.catalog)?;
    let k = session.catalog.id_arity(&gq.graph)?;
    let (scratch, names) = stage_views(session, db, &gq.graph)?;
    let store = Store::from_database(&scratch);
    let q = sqlpgq::core::Query::pattern_n(k, out, names.map(sqlpgq::core::Query::rel));
    let opts = sqlpgq::exec::ExecOptions::with_threads(threads).with_planner(planner);
    let mut text = sqlpgq::core::explain_with_exec_opts(&q, &scratch.schema(), Some(&store), opts)?;
    // The plan above is staged against a fresh snapshot of the view
    // relations; when the *session* store carries update overlays,
    // say so — library callers explaining against that store see the
    // per-operator ⟨delta⟩ markers.
    if let Some(s) = session_store {
        let stats = s.stats();
        let (overlay, dead) = (stats.overlay_entries(), stats.tombstone_rows());
        if overlay > 0 || dead > 0 {
            text.push_str(&format!(
                "session store: {overlay} overlay entr(y/ies), {dead} tombstoned row(s) \
                 pending - COMPACT folds them; plans reading that store carry ⟨delta⟩ markers\n"
            ));
        }
    }
    Ok(text)
}

/// The six canonical view relations of a catalog graph staged as a
/// scratch database under the reserved scan names `⟨N⟩`…`⟨P⟩` — the
/// common setup of the shell's EXPLAIN and physical SELECT routes.
fn stage_views(
    session: &Session,
    db: &Database,
    graph: &str,
) -> Result<(Database, [&'static str; 6]), Box<dyn std::error::Error>> {
    const NAMES: [&str; 6] = ["⟨N⟩", "⟨E⟩", "⟨S⟩", "⟨T⟩", "⟨L⟩", "⟨P⟩"];
    let rels = session.catalog.view_relations(graph, db)?;
    let mut scratch = Database::new();
    for (name, rel) in NAMES.iter().zip([
        rels.nodes,
        rels.edges,
        rels.src,
        rels.tgt,
        rels.labels,
        rels.props,
    ]) {
        scratch.add_relation(*name, rel);
    }
    Ok((scratch, NAMES))
}

/// Runs a `GRAPH_TABLE` query through the S15/S16 physical route the
/// shell's EXPLAIN describes: the graph's six canonical views are
/// staged in a scratch store (view graph frozen, so reachability runs
/// on CSR adjacency) and the query executes on the morsel-parallel
/// coded pipeline with the session's `SET THREADS` setting. Results
/// are identical to the reference evaluator's at every thread count —
/// the differential suites (`tests/prop_engine.rs`,
/// `tests/prop_store.rs`) pin that down.
fn graph_select(
    session: &Session,
    db: &Database,
    threads: usize,
    planner: sqlpgq::exec::PlannerChoice,
    counters: &sqlpgq::store::AccessCounters,
    stmt: &str,
) -> Result<Relation, Box<dyn std::error::Error>> {
    let (scratch, store, q) = stage_query(session, db, stmt)?;
    // Freeze the staged store into an immutable snapshot and evaluate
    // against the pin — the same route a `pgq-server` reader takes
    // against a published snapshot (PR 8). The access counters are
    // shared by the pin, so METRICS still sees this query.
    let snap = StoreSnapshot::from(store);
    let cfg = EvalConfig::physical()
        .with_threads(threads)
        .with_planner(planner);
    let rel = eval_with_snapshot(&q, &scratch, cfg, &snap)?;
    counters.absorb(&snap.counters().snapshot());
    Ok(rel)
}

/// `EXPLAIN ANALYZE SELECT …;` — runs the query exactly as
/// [`graph_select`] would (same staging, same store route, same thread
/// setting) with per-operator metrics collection on, and renders the
/// annotated profile tree instead of the rows. The non-timing fields
/// (rows, Δ sizes, build sizes) are byte-identical at every `SET
/// THREADS` value; timings and worker counts naturally vary.
fn explain_analyze(
    session: &Session,
    db: &Database,
    threads: usize,
    planner: sqlpgq::exec::PlannerChoice,
    counters: &sqlpgq::store::AccessCounters,
    inner: &str,
) -> Result<String, Box<dyn std::error::Error>> {
    let (scratch, store, q) = stage_query(session, db, inner)?;
    let snap = StoreSnapshot::from(store);
    let cfg = EvalConfig::physical()
        .with_threads(threads)
        .with_planner(planner);
    let (_rel, profile) = sqlpgq::core::eval_with_snapshot_profiled(&q, &scratch, cfg, &snap)?;
    counters.absorb(&snap.counters().snapshot());
    Ok(profile.render(true))
}

/// Parses a `GRAPH_TABLE` statement and stages it for the store route:
/// the six canonical views in a scratch database, a scratch store with
/// the view graph frozen as `⟨G⟩` (best effort — when the view cannot
/// be frozen the route falls back to per-query evaluation), and the
/// lowered pattern query.
fn stage_query(
    session: &Session,
    db: &Database,
    stmt: &str,
) -> Result<(Database, Store, sqlpgq::core::Query), Box<dyn std::error::Error>> {
    use sqlpgq::parser::{parse_statement, Statement};

    let parsed = parse_statement(&format!("{stmt};"))?;
    let Statement::GraphQuery(gq) = parsed else {
        return Err("expected a GRAPH_TABLE query".into());
    };
    let out = sqlpgq::parser::lower_query(&gq, &session.catalog)?;
    let k = session.catalog.id_arity(&gq.graph)?;
    let (scratch, names) = stage_views(session, db, &gq.graph)?;
    let mut store = Store::from_database(&scratch);
    let _ = store.register_view_graph(
        "⟨G⟩",
        names.map(Into::into),
        &scratch,
        GraphForm::Bounded(k),
    );
    let q = sqlpgq::core::Query::pattern_n(k, out, names.map(sqlpgq::core::Query::rel));
    Ok((scratch, store, q))
}

/// `METRICS JSON;` — the session counters through the same hand-rolled
/// writer `QueryProfile::to_json` uses.
fn metrics_json(snap: &sqlpgq::store::AccessSnapshot) -> String {
    let mut w = sqlpgq::exec::JsonWriter::pretty();
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
    w.end_object();
    w.finish()
}

/// One direction of a degree histogram as a JSON object.
fn histogram_json(w: &mut sqlpgq::exec::JsonWriter, key: &str, h: &sqlpgq::store::DegreeHistogram) {
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
fn stats_json(
    stats: &sqlpgq::store::StoreStats,
    statistics: &sqlpgq::store::StoreStatistics,
) -> String {
    let mut w = sqlpgq::exec::JsonWriter::pretty();
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
    w.begin_array();
    for r in &stats.relations {
        w.begin_object();
        w.key("name");
        w.string(&r.name);
        w.key("rows");
        w.number(r.rows as u64);
        w.key("arity");
        w.number(r.arity as u64);
        w.key("coded_bytes");
        w.number(r.coded_bytes as u64);
        w.key("indexed");
        w.boolean(r.indexed);
        w.key("tombstones");
        w.number(r.tombstones as u64);
        w.key("delta_pairs");
        w.number(r.delta_pairs as u64);
        w.end_object();
    }
    w.end_array();
    w.key("graphs");
    w.begin_array();
    for g in &stats.graphs {
        w.begin_object();
        w.key("name");
        w.string(&g.name);
        w.key("nodes");
        w.number(g.nodes as u64);
        w.key("edges");
        w.number(g.edges as u64);
        w.key("id_arity");
        w.number(g.id_arity as u64);
        w.key("csr_entries");
        w.number(g.csr_entries as u64);
        w.key("overlay");
        w.number(g.overlay as u64);
        w.key("labels");
        w.begin_array();
        for (label, pairs) in &g.labels {
            w.begin_object();
            w.key("label");
            w.string(label);
            w.key("pairs");
            w.number(*pairs as u64);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
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

/// The session store, built from the live data on first use and
/// maintained incrementally thereafter. Every catalog graph is
/// registered so STATS can report its CSR layout — including graphs
/// defined *after* the store was first built (mutations refreeze
/// graphs over mutated tables; this fills in the never-seen ones).
fn ensure_store<'a>(
    store: &'a mut Option<Store>,
    session: &Session,
    db: &Database,
) -> Result<&'a mut Store, Box<dyn std::error::Error>> {
    if store.is_none() {
        *store = Some(Store::from_database(db));
    }
    let s = store.as_mut().expect("populated above");
    let missing: Vec<String> = session
        .catalog
        .graph_names()
        .filter(|g| s.graph(g).is_none())
        .map(String::from)
        .collect();
    for name in missing {
        let graph = session.catalog.build_graph(&name, db, session.mode)?;
        s.register_graph(&name, &graph, None, GraphForm::Exact(graph.id_arity()))?;
    }
    Ok(s)
}

/// `INSERT INTO t VALUES (…)` / `DELETE FROM t VALUES (…)` for the
/// shell: integers, booleans and single-quoted strings. The mutation
/// lands in the live database and — when the session store exists — in
/// its columnar/CSR layout in place (append/tombstone + delta
/// overlay); catalog graphs built over the mutated table are refrozen.
/// Malformed statements are reported to the REPL instead of aborting
/// the session.
fn mutate(
    db: &mut Database,
    store: &mut Option<Store>,
    session: &Session,
    stmt: &str,
) -> Result<String, String> {
    let RowMutation { table, row, delete } =
        sqlpgq::parser::parse_mutation(stmt).map_err(|e| e.to_string())?;
    let changed = if delete {
        db.remove(&table.as_str().into(), &row)
    } else {
        db.insert(table.clone(), row.clone())
            .map_err(|e| e.to_string())?
    };
    let mut note = String::new();
    if let Some(s) = store.as_mut() {
        let result = if delete {
            s.delete_row(&table.as_str().into(), &row)
        } else {
            s.insert_row(table.clone(), &row)
        };
        match result {
            Ok(_) => refresh_catalog_graphs(s, session, db, &table, &mut note),
            Err(e) => note = format!("; store: {e}"),
        }
    }
    let verb = if delete {
        "deleted from"
    } else {
        "inserted into"
    };
    let effect = if changed { "" } else { " (no-op)" };
    Ok(format!("{verb} {table}{effect}{note}"))
}

/// Refreezes every catalog graph whose node/edge tables include
/// `table`. A graph whose view became invalid is dropped from the
/// store (queries fall back to per-query evaluation) with a note.
fn refresh_catalog_graphs(
    store: &mut Store,
    session: &Session,
    db: &Database,
    table: &str,
    note: &mut String,
) {
    let graphs: Vec<String> = session
        .catalog
        .graph_names()
        .filter(|g| {
            session.catalog.graph(g).is_ok_and(|cg| {
                cg.node_tables.iter().any(|nt| nt.table == table)
                    || cg.edge_tables.iter().any(|et| et.table == table)
            })
        })
        .map(String::from)
        .collect();
    for g in graphs {
        match session.catalog.build_graph(&g, db, session.mode) {
            Ok(graph) => {
                if let Err(e) =
                    store.register_graph(&g, &graph, None, GraphForm::Exact(graph.id_arity()))
                {
                    note.push_str(&format!("; graph {g}: {e}"));
                }
            }
            Err(e) => {
                store.drop_graph(&g);
                note.push_str(&format!("; graph {g} dropped: {e}"));
            }
        }
    }
}

/// Splits on `;` while respecting single-quoted strings and
/// parenthesized SELECT bodies (a `;` never occurs inside them in our
/// grammar, so quotes are the only concern).
fn split_statements(script: &str) -> Vec<String> {
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
