//! `embed_scale` and `embed_churn`: the library route, one caller, no
//! parser and no server. `embed_scale` bulk-loads a graph an order of
//! magnitude past the CPU caches and runs interactive reads through
//! `pgq_exec::eval_ra_with` — `pgq-exec`'s operators and `pgq-store`'s
//! columns, CSR and dictionary do nearly all the work. `embed_churn`
//! writes beside its reads on a `ConcurrentStore`: copy-on-write
//! publication, lazy index builds, overlay reads, statistics
//! invalidation and compaction — the incremental `apply_updates`
//! counterpart of `serve_mixed`'s re-register path.

use crate::gen::{iban, Churn, Rng, Transfers};
use crate::json::Json;
use crate::run::{med, percentile_or_reason, timed, Checks, Config, Outcome, Phase};
use crate::trace::Tracer;
use pgq_exec::{cost_plan, eval_ra_with, plan_ra};
use pgq_relational::{Database, RaExpr, RelName, Relation, RowCondition};
use pgq_store::{BulkGraph, ConcurrentStore, GraphForm, ReachScratch, Store};
use pgq_value::Value;
use std::collections::BTreeSet;

const G: &str = "G";

const SCALE_ACCOUNTS: usize = 100_000;
const SCALE_PER_ACCOUNT: usize = 10;
const CHURN_ACCOUNTS: usize = 10_000;
const CHURN_PER_ACCOUNT: usize = 5;
const COMMUNITY: usize = 32;

/// Seeds per reachability sweep, and per *batch* sweep — the dear tenth
/// of `embed_scale`'s reads. Its other reads are one cluster (the hops)
/// above a cheap one (the sweeps), which leaves the 95th percentile far
/// out in the hops' tail, where it amplified every slowness of the host
/// (the median moved by 4 % across ten runs, that p95 by 19 %); with a
/// dear tenth the p95 is that class's median.
const SWEEP_SEEDS: usize = 64;
const BATCH_SWEEP_SEEDS: usize = 16_384;
/// `embed_scale` rounds: this many (one-hop, two-hop, sweep) triples
/// with a batch sweep after every third, then one full endpoint join.
/// Whole rounds only, so the mix is the same however many fit into the
/// run.
const TRIPLES_PER_JOIN: usize = 24;
/// `embed_churn`: rounds before the first timed one, untimed rounds
/// after the last (they leave the overlays and stale codes
/// `bytes_per_edge` is taken over), warm reads per round, and the
/// rounds of one cycle, which a compaction ends. Whole cycles only:
/// read cost depends on how much overlay has built up since the last
/// compaction, so a run that stopped mid-cycle would sample a different
/// mix of positions than one that did not.
const CHURN_WARM_ROUNDS: usize = 8;
const FOOTPRINT_ROUNDS: usize = 8;
const WARM_READS: usize = 11;
const CYCLE_ROUNDS: usize = 20;

pub fn scale_graph(cfg: &Config) -> Transfers {
    Transfers::generate(
        cfg.size(SCALE_ACCOUNTS),
        COMMUNITY,
        SCALE_PER_ACCOUNT,
        cfg.seed,
    )
}

pub fn churn_graph(cfg: &Config) -> Transfers {
    Transfers::generate(
        cfg.size(CHURN_ACCOUNTS),
        COMMUNITY,
        CHURN_PER_ACCOUNT,
        cfg.seed,
    )
}

fn views() -> [RelName; 6] {
    ["N", "E", "S", "T", "L", "P"].map(Into::into)
}

/// The view schema with no rows: the executor takes shapes from it and
/// rows from the store.
fn schema_db() -> Database {
    let mut db = Database::new();
    for (name, arity) in views().into_iter().zip([1, 1, 2, 2, 2, 3]) {
        db.add_relation(name, Relation::empty(arity));
    }
    db
}

fn account(i: usize) -> Value {
    Value::str(iban(i))
}

/// Transfers into `target`: `π_{src,tgt}(σ_{e=e' ∧ tgt=c}(S × T))`.
fn one_hop(target: usize) -> RaExpr {
    RaExpr::rel("S")
        .product(RaExpr::rel("T"))
        .select(RowCondition::col_eq(0, 2).and(RowCondition::col_eq_const(3, account(target))))
        .project(vec![1, 3])
}

/// Two hops `a → b → target`, written with the constant on the
/// syntactically last factor, so a planner that executes joins as
/// written materialises every hop first.
fn two_hop(target: usize) -> RaExpr {
    RaExpr::rel("S")
        .product(RaExpr::rel("T"))
        .product(RaExpr::rel("S"))
        .product(RaExpr::rel("T"))
        .select(RowCondition::and_all([
            RowCondition::col_eq(0, 2),
            RowCondition::col_eq(3, 5),
            RowCondition::col_eq(4, 6),
            RowCondition::col_eq_const(7, account(target)),
        ]))
        .project(vec![1, 3, 7])
}

/// Every `(src, tgt)` pair: the full S ⋈ T endpoint join.
fn endpoint_join() -> RaExpr {
    RaExpr::rel("S")
        .product(RaExpr::rel("T"))
        .select(RowCondition::col_eq(0, 2))
        .project(vec![1, 3])
}

fn load(bulk: &BulkGraph, threads: usize) -> (Store, pgq_store::BulkLoadStats, f64) {
    let mut store = Store::new();
    let (stats, ms) = timed(|| {
        store
            .bulk_load(G, views(), GraphForm::Exact(1), bulk, threads)
            .expect("generator output is well-formed")
    });
    (store, stats, ms)
}

fn rows(store: &Store, db: &Database, q: &RaExpr) -> (usize, f64) {
    let (rel, ms) = timed(|| eval_ra_with(q, db, store).expect("query runs store-backed"));
    (rel.len(), ms)
}

/// What the generator says the reads must return.
struct ScaleOracle {
    senders: Vec<BTreeSet<u32>>,
    pairs: usize,
}

impl ScaleOracle {
    fn new(g: &Transfers) -> Self {
        ScaleOracle {
            senders: g.senders(),
            pairs: g.distinct_pairs(),
        }
    }

    fn one_hop(&self, target: usize) -> usize {
        self.senders[target].len()
    }

    /// Distinct `(a, b, target)` with `a → b → target`.
    fn two_hop(&self, target: usize) -> usize {
        self.senders[target]
            .iter()
            .map(|b| self.senders[*b as usize].len())
            .sum()
    }
}

/// One 64-seed sweep; returns the nodes reached, summed over seeds.
fn sweep(
    store: &Store,
    seeds: &[u32],
    scratch: &mut ReachScratch,
    reached: &mut Vec<u32>,
) -> usize {
    let adjacency = store.graph(G).expect("loaded").adjacency();
    let mut touched = 0;
    for &s in seeds {
        adjacency.reach_from_into([s], scratch, reached);
        touched += reached.len();
    }
    touched
}

/// One timed sweep from `n` seeded accounts, held to the generator: a
/// community is strongly connected and closed, so every seed reaches
/// exactly its community.
fn checked_sweep(
    store: &Store,
    g: &Transfers,
    rng: &mut Rng,
    n: usize,
    (scratch, reached): (&mut ReachScratch, &mut Vec<u32>),
    checks: &mut Checks,
) -> f64 {
    let seeds: Vec<u32> = (0..n).map(|_| rng.below(g.accounts) as u32).collect();
    let (touched, ms) = timed(|| sweep(store, &seeds, scratch, reached));
    let want: usize = seeds.iter().map(|s| g.community_size(*s as usize)).sum();
    checks.check(touched == want, || {
        format!("sweep from {n} seeds reached {touched}, not {want}")
    });
    ms
}

pub fn run_scale(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let db = schema_db();
    let mut loads = Vec::new();
    // One resident copy at a time: `set_up` drops before it rebuilds.
    let ((g, store), setup_s) = cfg.set_up(3, || {
        let g = scale_graph(cfg);
        let bulk = g.bulk();
        let (store, stats, load_ms) = load(&bulk, cfg.threads);
        drop(bulk);
        let _ = store.statistics();
        // Warm-up: the first queries build lazy indexes.
        for i in 0..10 {
            rows(&store, &db, &one_hop(i * 7919 % g.accounts));
            rows(&store, &db, &two_hop(i * 7919 % g.accounts));
        }
        rows(&store, &db, &endpoint_join());
        loads.push(stats.rows as f64 / (load_ms / 1e3));
        (g, store)
    });
    out.metric("setup_s", setup_s);
    out.info("load_rows_per_s", Json::Num(med(&loads)));

    let oracle = ScaleOracle::new(&g);
    let mut rng = Rng::new(cfg.seed, 50);
    let (mut scratch, mut reached) = (ReachScratch::new(), Vec::new());
    let (mut hop1, mut hop2, mut sweeps, mut joins) = (vec![], vec![], vec![], vec![]);
    let mut batch_sweeps = vec![];
    let mut sweep_of = |n: usize, rng: &mut Rng, checks: &mut Checks| {
        checked_sweep(&store, &g, rng, n, (&mut scratch, &mut reached), checks)
    };
    let mut phase = Phase::begin();
    while phase.running(cfg.seconds) {
        for triple in 0..TRIPLES_PER_JOIN {
            let target = rng.below(g.accounts);
            let (n, ms) = rows(&store, &db, &one_hop(target));
            hop1.push(ms);
            phase.push(ms, true, false);
            out.checks.check(n == oracle.one_hop(target), || {
                format!("one-hop into {target}: {n} rows")
            });
            let target = rng.below(g.accounts);
            let (n, ms) = rows(&store, &db, &two_hop(target));
            hop2.push(ms);
            phase.push(ms, true, false);
            out.checks.check(n == oracle.two_hop(target), || {
                format!("two-hop into {target}: {n} rows")
            });
            let ms = sweep_of(SWEEP_SEEDS, &mut rng, &mut out.checks);
            sweeps.push(ms);
            phase.push(ms, true, false);
            if triple % 3 == 2 {
                let ms = sweep_of(BATCH_SWEEP_SEEDS, &mut rng, &mut out.checks);
                batch_sweeps.push(ms);
                phase.push(ms, true, false);
            }
        }
        let (n, ms) = rows(&store, &db, &endpoint_join());
        joins.push(ms);
        phase.push(ms, false, true);
        out.checks
            .check(n == oracle.pairs, || format!("endpoint join: {n} rows"));
        phase.end_round();
    }

    out.timed_phase(&phase, "endpoint_join");
    out.info(
        "scan_rows_per_s",
        Json::Num(oracle.pairs as f64 / (med(&joins) / 1e3)),
    );
    let classes = [
        ("one_hop", &hop1),
        ("two_hop", &hop2),
        ("sweep", &sweeps),
        ("batch_sweep", &batch_sweeps),
    ];
    for (name, v) in classes {
        out.info(&format!("read_p50_ms.{name}"), Json::Num(med(v)));
    }
    let edges = store.graph(G).expect("loaded").edge_count();
    out.metric(
        "bytes_per_edge",
        store.stats().bytes.total() as f64 / edges as f64,
    );
    out.stream_hash(g.fingerprint());
    out
}

struct ChurnLog {
    phase: Phase,
    writes: Vec<f64>,
    first_reads: Vec<f64>,
    warm_reads: Vec<f64>,
    compactions: Vec<f64>,
}

impl ChurnLog {
    fn new() -> Self {
        ChurnLog {
            phase: Phase::begin(),
            writes: Vec::new(),
            first_reads: Vec::new(),
            warm_reads: Vec::new(),
            compactions: Vec::new(),
        }
    }
}

/// One `embed_churn` round: write a batch, pin, one *first* read on
/// the fresh snapshot, then the warm reads. Every read is held to the
/// model.
fn churn_round(
    cs: &ConcurrentStore,
    model: &mut Churn,
    g: &Transfers,
    db: &Database,
    round: usize,
    log: &mut ChurnLog,
    checks: &mut Checks,
) {
    let batch = model.next_batch(g);
    let (res, ms) = timed(|| cs.write(|s| s.apply_updates(G, &batch)));
    log.writes.push(ms);
    log.phase.push(ms, false, true);
    checks.check(res.is_ok(), || format!("write round {round}: {res:?}"));
    let snap = cs.pin();
    for i in 0..=WARM_READS {
        let target = model.pick(g);
        let (n, ms) = rows(&snap, db, &one_hop(target));
        if i == 0 {
            log.first_reads.push(ms);
        } else {
            log.warm_reads.push(ms);
        }
        log.phase.push(ms, true, false);
        checks.check(n == model.senders_into(target), || {
            format!("round {round}: one-hop into {target}: {n} rows")
        });
    }
}

fn compact(cs: &ConcurrentStore, log: &mut ChurnLog, checks: &mut Checks) {
    let (res, ms) = timed(|| cs.compact());
    log.compactions.push(ms);
    log.phase.push(ms, false, false);
    checks.check(res.is_ok(), || format!("compact: {res:?}"));
}

pub fn run_churn(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let db = schema_db();
    let ((g, cs, mut model, warm), setup_s) = cfg.set_up(5, || {
        let g = churn_graph(cfg);
        let (store, _, _) = load(&g.bulk(), cfg.threads);
        let _ = store.statistics();
        let cs = ConcurrentStore::new(store);
        let mut model = Churn::new(&g, cfg.seed);
        let (mut warm, mut log) = (Checks::default(), ChurnLog::new());
        for round in 0..CHURN_WARM_ROUNDS {
            churn_round(&cs, &mut model, &g, &db, round, &mut log, &mut warm);
        }
        // The first timed cycle starts where every later one does.
        compact(&cs, &mut log, &mut warm);
        (g, cs, model, warm)
    });
    out.metric("setup_s", setup_s);
    out.checks.absorb(warm);

    let mut log = ChurnLog::new();
    let mut round = CHURN_WARM_ROUNDS;
    while log.phase.running(cfg.seconds) {
        for _ in 0..CYCLE_ROUNDS {
            churn_round(&cs, &mut model, &g, &db, round, &mut log, &mut out.checks);
            round += 1;
        }
        compact(&cs, &mut log, &mut out.checks);
        log.phase.end_round();
    }

    out.timed_phase(&log.phase, "write");
    out.info("read_after_write_p50_ms", Json::Num(med(&log.first_reads)));
    out.info("warm_read_p50_ms", Json::Num(med(&log.warm_reads)));
    out.info("write_p95_ms", percentile_or_reason(&log.writes, 0.95));
    out.info("compact_p50_ms", Json::Num(med(&log.compactions)));
    out.stream_hash(crate::gen::churn_stream_hash(&g, cfg.seed, 16));

    // Footprint after the timed phase, with the overlays and stale
    // dictionary codes a few rounds past the last compaction leave.
    let mut untimed = ChurnLog::new();
    for _ in 0..FOOTPRINT_ROUNDS {
        churn_round(
            &cs,
            &mut model,
            &g,
            &db,
            round,
            &mut untimed,
            &mut out.checks,
        );
        round += 1;
    }
    let snap = cs.pin();
    let edges = snap.graph(G).expect("loaded").edge_count();
    out.checks.check(edges == model.live_edges(&g), || {
        format!("store holds {edges} edges, model {}", model.live_edges(&g))
    });
    out.metric(
        "bytes_per_edge",
        snap.stats().bytes.total() as f64 / edges as f64,
    );
    drop(snap);

    // The churned store against a from-scratch load of the edge set the
    // model says is left.
    let (fresh, _, _) = load(&model.final_graph(&g), cfg.threads);
    let snap = cs.pin();
    for _ in 0..32 {
        let q = one_hop(model.pick(&g));
        let (a, b) = (eval_ra_with(&q, &db, &snap), eval_ra_with(&q, &db, &fresh));
        out.checks.check(a.is_ok() && a == b, || {
            "churned store and fresh load disagree on a one-hop".to_string()
        });
    }
    out
}

/// Counter deltas of one query shape over a replay.
#[derive(Default, Clone, Copy)]
struct Work {
    examined: u64,
    decodes: u64,
    results: u64,
}

/// One replay of the read-side operations; `execute` is `eval_ra_with`
/// minus the separately timed planning of the same expression.
#[derive(Default)]
struct ReadPass {
    total: Vec<f64>,
    plan: Vec<f64>,
    execute: [Vec<f64>; 3],
    work: [Work; 3],
    sweeps: Vec<f64>,
}

const READ_SHAPES: [&str; 3] = ["one_hop", "two_hop", "endpoint_join"];

fn read_pass(
    store: &Store,
    g: &Transfers,
    oracle: &ScaleOracle,
    seed: u64,
    (each, joins): (usize, usize),
    tr: &mut Tracer,
    checks: &mut Checks,
) -> ReadPass {
    let db = schema_db();
    let schema = db.schema();
    let mut rng = Rng::new(seed, 60);
    let mut pass = ReadPass::default();
    let mut op = 0u64;
    let mut query = |shape: usize, target: usize, tr: &mut Tracer, pass: &mut ReadPass| {
        op += 1;
        let (q, want) = match shape {
            0 => (one_hop(target), oracle.one_hop(target)),
            1 => (two_hop(target), oracle.two_hop(target)),
            _ => (endpoint_join(), oracle.pairs),
        };
        // Beside the operation: the planning share of `eval_ra_with`.
        let (_, plan_ms) = tr.span("estimate.pgq-exec.plan", None, op, || {
            cost_plan(plan_ra(&q, &schema).expect("plans"), store, &schema)
        });
        let before = store.counters().snapshot();
        let open = tr.begin(&format!("query.{}", READ_SHAPES[shape]), None, op);
        let (rel, ms) = tr.span("pgq-exec.eval_ra_with", Some(&open), op, || {
            eval_ra_with(&q, &db, store).expect("query runs store-backed")
        });
        pass.total.push(tr.end(open));
        let d = store.counters().snapshot().since(&before);
        pass.plan.push(plan_ms);
        pass.execute[shape].push(ms - plan_ms);
        let w = &mut pass.work[shape];
        w.examined += d.index_scan_rows + d.csr_neighbor_rows;
        w.decodes += d.dict_decodes;
        w.results += rel.len() as u64;
        checks.check(rel.len() == want, || {
            format!(
                "traced {} into {target}: {} rows",
                READ_SHAPES[shape],
                rel.len()
            )
        });
    };
    for _ in 0..each {
        query(0, rng.below(g.accounts), tr, &mut pass);
        query(1, rng.below(g.accounts), tr, &mut pass);
    }
    for _ in 0..joins {
        query(2, 0, tr, &mut pass);
    }
    let (mut scratch, mut reached) = (ReachScratch::new(), Vec::new());
    for _ in 0..each {
        op += 1;
        let seeds: Vec<u32> = (0..SWEEP_SEEDS)
            .map(|_| rng.below(g.accounts) as u32)
            .collect();
        let (_, ms) = tr.span("pgq-store.reach_sweep", None, op, || {
            sweep(store, &seeds, &mut scratch, &mut reached)
        });
        pass.sweeps.push(ms);
    }
    pass
}

/// The traced read-side replay: load, cold statistics, then `each`
/// one-hops, two-hops and sweeps and `joins` endpoint joins — once
/// unrecorded, once recorded. Puts the layer metrics into `out` and
/// returns the replay's total time recorded and unrecorded.
pub fn trace_reads(
    g: &Transfers,
    seed: u64,
    threads: usize,
    counts: (usize, usize),
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (f64, f64) {
    let oracle = ScaleOracle::new(g);
    let bulk = g.bulk();
    let mut store = Store::new();
    let (_, load_ms) = tr.span("pgq-store.bulk_load", None, 0, || {
        store
            .bulk_load(G, views(), GraphForm::Exact(1), &bulk, threads)
            .expect("generator output is well-formed")
    });
    drop(bulk);
    let (_, stats_ms) = tr.span("pgq-store.statistics.cold", None, 0, || store.statistics());
    let off = &mut Tracer::new(false);
    read_pass(&store, g, &oracle, seed, (3, 1), off, &mut out.checks); // warm-up
    let plain = read_pass(&store, g, &oracle, seed, counts, off, &mut out.checks);
    let pass = read_pass(&store, g, &oracle, seed, counts, tr, &mut out.checks);

    let mut put = |name: String, v: f64| out.metric(&name, v);
    put("pgq-store.bulk_load_s".into(), load_ms / 1e3);
    put("pgq-store.statistics_cold_ms".into(), stats_ms);
    put("pgq-store.reach_sweep_us".into(), med(&pass.sweeps) * 1e3);
    let bytes = store.stats().bytes;
    put("pgq-store.bytes.dictionary".into(), bytes.dictionary as f64);
    put("pgq-store.bytes.columns".into(), bytes.columns as f64);
    put("pgq-store.bytes.csr".into(), bytes.csr as f64);
    put("pgq-exec.plan_us".into(), med(&pass.plan) * 1e3);
    let mut all = Work::default();
    for (s, name) in READ_SHAPES.iter().enumerate() {
        let w = pass.work[s];
        put(format!("pgq-exec.execute_ms.{name}"), med(&pass.execute[s]));
        put(
            format!("pgq-exec.rows_examined_per_result.{name}"),
            w.examined as f64 / w.results.max(1) as f64,
        );
        all.decodes += w.decodes;
        all.results += w.results;
    }
    put(
        "pgq-store.dict_decodes_per_result".into(),
        all.decodes as f64 / all.results.max(1) as f64,
    );
    (pass.total.iter().sum(), plain.total.iter().sum())
}

#[derive(Default)]
struct WritePass {
    total: Vec<f64>,
    apply: Vec<f64>,
    publish: Vec<f64>,
    pin_ns: Vec<f64>,
    statistics: Vec<f64>,
    compactions: Vec<f64>,
    post_compact_writes: Vec<f64>,
    overlay_reads: u64,
    dense_reads: u64,
    overlay_bytes: usize,
}

fn write_pass(
    bulk: &BulkGraph,
    g: &Transfers,
    seed: u64,
    threads: usize,
    rounds: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> WritePass {
    let db = schema_db();
    let (store, _, _) = load(bulk, threads);
    let _ = store.statistics();
    let cs = ConcurrentStore::new(store);
    let mut model = Churn::new(g, seed);
    let mut pass = WritePass::default();
    let mut after_compaction = false;
    for round in 0..rounds {
        let op = round as u64;
        let batch = model.next_batch(g);
        let open = tr.begin("round", None, op);
        // The batch on an owned clone (clone untimed): the update work
        // without the writer's clone → publish envelope.
        let mut own = Store::clone(&cs.pin());
        let s = tr.begin("pgq-store.apply_updates", Some(&open), op);
        own.apply_updates(G, &batch).expect("batch applies");
        let apply_ms = tr.end(s);
        drop(own);
        let s = tr.begin("pgq-store.write", Some(&open), op);
        cs.write(|s| s.apply_updates(G, &batch))
            .expect("batch applies");
        let write_ms = tr.end(s);
        pass.apply.push(apply_ms);
        pass.publish.push(write_ms - apply_ms);
        if std::mem::take(&mut after_compaction) {
            pass.post_compact_writes.push(write_ms);
        }
        let s = tr.begin("pgq-store.pin", Some(&open), op);
        for _ in 0..1023 {
            std::hint::black_box(cs.pin());
        }
        let snap = cs.pin();
        pass.pin_ns.push(tr.end(s) * 1e6 / 1024.0);
        let s = tr.begin("pgq-store.statistics.after_write", Some(&open), op);
        let _ = snap.statistics();
        pass.statistics.push(tr.end(s));
        let before = snap.counters().snapshot();
        for _ in 0..2 {
            let target = model.pick(g);
            let q = one_hop(target);
            let s = tr.begin("pgq-exec.eval_ra_with", Some(&open), op);
            let rel = eval_ra_with(&q, &db, &snap).expect("query runs store-backed");
            tr.end(s);
            checks.check(rel.len() == model.senders_into(target), || {
                format!(
                    "traced round {round}: one-hop into {target}: {} rows",
                    rel.len()
                )
            });
        }
        let d = snap.counters().snapshot().since(&before);
        pass.overlay_reads += d.overlay_reads;
        pass.dense_reads += d.dense_reads;
        pass.total.push(tr.end(open));
        // One compaction mid-replay, so a write lands right after it.
        if round + 1 == rounds / 2 {
            pass.overlay_bytes = snap.stats().bytes.overlays;
            let (res, ms) = tr.span("pgq-store.compact", None, op, || cs.compact());
            res.expect("compacts");
            pass.compactions.push(ms);
            after_compaction = true;
        }
    }
    pass
}

/// The traced write-side replay on a `ConcurrentStore`: `rounds` of
/// {apply on a clone, write, pin, cold statistics, two reads}, one
/// compaction in the middle — once unrecorded, once recorded.
pub fn trace_writes(
    g: &Transfers,
    seed: u64,
    threads: usize,
    rounds: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (f64, f64) {
    let bulk = g.bulk();
    let off = &mut Tracer::new(false);
    let plain = write_pass(&bulk, g, seed, threads, rounds, off, &mut out.checks);
    let pass = write_pass(&bulk, g, seed, threads, rounds, tr, &mut out.checks);
    let reads = (pass.overlay_reads + pass.dense_reads).max(1);
    out.metric("pgq-store.apply_updates_ms", med(&pass.apply));
    out.metric("pgq-store.publish_ms", med(&pass.publish));
    out.metric("pgq-store.pin_ns", med(&pass.pin_ns));
    out.metric("pgq-store.statistics_after_write_ms", med(&pass.statistics));
    out.metric("pgq-store.compact_ms", med(&pass.compactions));
    out.metric(
        "pgq-store.post_compact_write_ms",
        med(&pass.post_compact_writes),
    );
    out.metric(
        "pgq-store.overlay_read_share",
        pass.overlay_reads as f64 / reads as f64,
    );
    out.metric("pgq-store.bytes.overlays", pass.overlay_bytes as f64);
    (pass.total.iter().sum(), plain.total.iter().sum())
}
