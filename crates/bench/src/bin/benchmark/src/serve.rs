//! `serve_read` and `serve_mixed`: the statement path as users meet it.
//! One closed-loop client connection (it waits for each reply, with
//! `SET THREADS 1`) against an in-process [`Server`] over the community
//! transfers graph, loaded through the protocol. The socket, the
//! parser, `pgq-core`'s view build and pattern evaluation and result
//! rendering do the work; the store's incremental write path and the
//! join operators do almost none. `serve_mixed` makes every 4th request
//! a write, each of which re-stages the whole view, so whatever a read
//! could reuse from the statement before is gone three reads later.
//!
//! The traced pass ([`trace_statements`]) replays a prefix of the same
//! stream on one thread three ways — over TCP, through a twin
//! in-process `Engine::statement`, and through a *decomposed twin* that
//! makes the calls the engine's `select`/`mutate` make — pairing the
//! three per operation, so what the decomposition misses shows up as
//! `pgq-server.unattributed_ms` instead of vanishing.

use crate::gen::{
    audit_stmt, iban, serve_stream_hash, shape_stmt, Fnv, ServeOp, ServeStream, Transfers, DDL,
    GRAPH, HEAVY_SHAPE, SHAPES,
};
use crate::json::Json;
use crate::run::{med, percentile_or_reason, timed, Checks, Config, Outcome, Phase};
use crate::trace::Tracer;
use pgq_core::{build_view, eval_with_store, optimize, EvalConfig, Query, ViewOp};
use pgq_parser::{lower_query, parse_statement, Session, Statement};
use pgq_relational::{Database, RelName};
use pgq_server::{Client, Engine, Server, SessionState};
use pgq_store::{GraphForm, Store};
use pgq_value::{Tuple, Value};
use std::sync::Arc;

const ACCOUNTS: usize = 250;
const COMMUNITY: usize = 16;
const PER_ACCOUNT: usize = 4;
/// One busy thread at a time — the client blocks on its socket while
/// its session thread works — and so a core to spare on the 2-core
/// shared host this is sized for. Two clients (one per core, contending
/// for the engine's base lock in `serve_mixed`) measured the host's
/// scheduler: the same code spread by 20–30 % from run to run.
pub const CLIENTS: usize = 1;

/// Operations of the traced replay: the first requests of client 0's
/// `serve_mixed` stream — 90 reads, which are `serve_read`'s too, and
/// 30 writes.
pub const TRACE_OPS: usize = 120;
/// Reads that also run the storeless estimates (`build_view`, pattern
/// evaluation, `optimize`) beside the timed stages.
const TRACE_ESTIMATES: usize = 30;

pub fn graph(cfg: &Config) -> Transfers {
    Transfers::generate(cfg.size(ACCOUNTS), COMMUNITY, PER_ACCOUNT, cfg.seed)
}

/// An answer reduced to what is compared per response: the row count
/// and an order-independent hash of the row lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    rows: usize,
    hash: u64,
}

fn digest(resp: &[String]) -> Result<Digest, String> {
    if let Some(bad) = resp.iter().find(|l| l.starts_with("!! ")) {
        return Err(bad.clone());
    }
    let Some((head, rows)) = resp.split_first() else {
        return Err("empty response".to_string());
    };
    if *head != format!("-- {} row(s)", rows.len()) {
        return Err(format!("header {head:?} over {} row lines", rows.len()));
    }
    Ok(Digest {
        rows: rows.len(),
        hash: rows.iter().fold(0, |h, l| h.wrapping_add(Fnv::of(l))),
    })
}

/// A response with its rows sorted: concurrent writers interleave in an
/// unspecified (commuting) order.
fn canonical(mut resp: Vec<String>) -> Vec<String> {
    if resp.len() > 1 {
        resp[1..].sort();
    }
    resp
}

/// Whether two routes gave the same, well-formed answer to one
/// operation: equal digests for a read, the same acknowledgement for a
/// write.
fn agree(a: &[String], b: &[String]) -> bool {
    match (a, b) {
        ([x], [y]) if x.starts_with("-- inserted") || x.starts_with("-- deleted") => x == y,
        _ => digest(a).is_ok_and(|d| Ok(d) == digest(b)),
    }
}

fn must_ok(resp: std::io::Result<Vec<String>>, what: &str) {
    let resp = resp.unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(
        resp.iter().all(|l| !l.starts_with("!! ")),
        "{what}: {resp:?}"
    );
}

/// A booted server with the graph loaded and its clients connected.
/// Dropping it stops the accept loop and closes every connection.
struct Served {
    // Field order is drop order: clients hang up before the server stops.
    clients: Vec<Client>,
    admin: Client,
    _server: Server,
    /// The engine the server serves, for calls that skip the socket.
    engine: Arc<Engine>,
}

fn boot(g: &Transfers, clients: usize) -> Served {
    let engine = Arc::new(Engine::new());
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind 127.0.0.1:0");
    let mut admin = Client::connect(server.addr()).expect("connect");
    for line in g.load_lines() {
        must_ok(admin.request(&line.join("; ")), "load");
    }
    let clients = (0..clients)
        .map(|_| {
            let mut conn = Client::connect(server.addr()).expect("connect");
            must_ok(conn.request("SET THREADS 1"), "SET THREADS");
            // Warm-up: every shape once per connection.
            for shape in 0..SHAPES.len() {
                must_ok(conn.request(&shape_stmt(shape)), "warm-up");
            }
            conn
        })
        .collect();
    Served {
        clients,
        admin,
        _server: server,
        engine,
    }
}

/// The sequential reference: a fresh in-process engine fed the same
/// statements one at a time.
struct Oracle {
    engine: Engine,
    session: SessionState,
}

impl Oracle {
    fn load(g: &Transfers) -> Oracle {
        let mut o = Oracle {
            engine: Engine::new(),
            session: SessionState {
                threads: 1,
                ..SessionState::default()
            },
        };
        for stmt in g.load_lines().iter().flatten() {
            let resp = o.ask(stmt);
            assert!(resp.iter().all(|l| !l.starts_with("!! ")), "{resp:?}");
        }
        o
    }

    fn ask(&mut self, stmt: &str) -> Vec<String> {
        self.engine.statement(&mut self.session, stmt)
    }
}

fn write_ack(insert: bool) -> &'static str {
    if insert {
        "-- inserted into Transfer"
    } else {
        "-- deleted from Transfer"
    }
}

/// Requests of one round: four read cycles in `serve_read`; in
/// `serve_mixed` three read cycles and ten writes, each inserted row
/// deleted again — the whole mix, so a run of whole rounds has the same
/// mix however many fit and leaves no row outstanding.
const ROUND_REQUESTS: usize = 40;

/// One request of the closed loop, timed and checked: a read against
/// the oracle's digest for its shape, a write against the exact
/// acknowledgement (a `(no-op)` suffix means the row was not there to
/// delete, or already there to insert). Returns the read shape (`None`
/// for a write) and the latency.
fn request(
    conn: &mut Client,
    op: &ServeOp,
    expected: &[Digest],
    checks: &mut Checks,
) -> (Option<usize>, f64) {
    let stmt = op.stmt();
    let (resp, ms) = timed(|| conn.request(&stmt));
    match (op, resp) {
        (ServeOp::Read(shape), Ok(resp)) => {
            let got = digest(&resp);
            checks.check(got == Ok(expected[*shape]), || {
                format!(
                    "{}: got {got:?}, oracle {:?}",
                    SHAPES[*shape], expected[*shape]
                )
            });
            (Some(*shape), ms)
        }
        (ServeOp::Write { insert, .. }, Ok(resp)) => {
            checks.check(resp == [write_ack(*insert)], || format!("{stmt}: {resp:?}"));
            (None, ms)
        }
        (op, Err(e)) => panic!("{}: connection lost: {e}", op.stmt()),
    }
}

/// The untraced pass: set up (several times, for a steady `setup_s`),
/// run the client's closed loop in whole rounds for `cfg.seconds`, then
/// hold the served final state to the sequential oracle.
pub fn run(cfg: &Config, mixed: bool) -> Outcome {
    let mut out = Outcome::default();
    // The previous server stops before the next boots.
    let ((g, mut served), setup_s) = cfg.set_up(9, || {
        let g = graph(cfg);
        let served = boot(&g, CLIENTS);
        (g, served)
    });
    out.metric("setup_s", setup_s);

    // What each read must answer, from the sequential engine, before
    // any request is timed.
    let mut oracle = Oracle::load(&g);
    let expected: Vec<Digest> = (0..SHAPES.len())
        .map(|s| digest(&oracle.ask(&shape_stmt(s))).expect("oracle answers"))
        .collect();

    let heavy_shape = (!mixed).then_some(HEAVY_SHAPE);
    let mut stream = ServeStream::new(cfg.seed, 0, mixed);
    let mut ops: Vec<(Option<usize>, f64)> = Vec::new();
    let mut phase = Phase::begin();
    while phase.running(cfg.seconds) {
        for _ in 0..ROUND_REQUESTS {
            let op = stream.next_op(&g);
            let (shape, ms) = request(&mut served.clients[0], &op, &expected, &mut out.checks);
            phase.push(ms, shape.is_some(), shape == heavy_shape);
            ops.push((shape, ms));
        }
        phase.end_round();
    }
    let heavy_class = heavy_shape.map_or("write", |s| SHAPES[s]);
    out.timed_phase(&phase, heavy_class);
    let of_shape = |shape: Option<usize>| -> Vec<f64> {
        let of = ops.iter().filter(|op| op.0 == shape);
        of.map(|op| op.1).collect()
    };
    for (s, name) in SHAPES.iter().enumerate() {
        let p50 = Json::Num(med(&of_shape(Some(s))));
        out.info(&format!("read_p50_ms.{name}"), p50);
    }
    if mixed {
        let writes = of_shape(None);
        out.info("write_p95_ms", percentile_or_reason(&writes, 0.95));
    }
    out.stream_hash(serve_stream_hash(&g, cfg.seed, CLIENTS, mixed, 64));

    // The served final state against the oracle: a row still
    // outstanding goes into the sequential engine, then every shape and
    // the audit of written rows must agree, sorted.
    if let Some(row) = stream.outstanding() {
        let resp = oracle.ask(&row.stmt(true));
        out.checks
            .check(resp == [write_ack(true)], || format!("oracle: {resp:?}"));
    }
    for stmt in (0..SHAPES.len()).map(shape_stmt).chain([audit_stmt()]) {
        let served = served.admin.request(&stmt).map(canonical);
        let want = canonical(oracle.ask(&stmt));
        out.checks
            .check(served.as_ref().is_ok_and(|s| *s == want), || {
                format!("final state diverged on {stmt}")
            });
    }

    let twin = Twin::load(&g);
    let edges = twin.store.graph(GRAPH).expect("staged").edge_count();
    out.metric(
        "bytes_per_edge",
        twin.store.stats().bytes.total() as f64 / edges as f64,
    );
    out
}

/// The decomposed twin: the state `Engine` keeps, held in the open so
/// each stage of a statement can be called — and timed — on its own.
struct Twin {
    session: Session,
    /// The base tables.
    db: Database,
    names: [RelName; 6],
    /// Identifier arity of the view (1 + key width).
    k: usize,
    /// The six staged view relations under the engine's reserved names.
    staged: Database,
    store: Store,
}

impl Twin {
    fn load(g: &Transfers) -> Twin {
        let mut db = Database::new();
        for i in 0..g.accounts {
            db.insert("Account", Tuple::unary(Value::str(iban(i))))
                .expect("unary row");
        }
        for j in 0..g.edges() {
            db.insert("Transfer", g.row(j).tuple()).expect("5-ary row");
        }
        let mut session = Session::new();
        session
            .run_script(&format!("{};", DDL.join(";")), &db)
            .expect("DDL");
        let names = ["N", "E", "S", "T", "L", "P"].map(|c| RelName::new(format!("⟨{c}:{GRAPH}⟩")));
        let mut twin = Twin {
            session,
            db,
            names,
            k: 0,
            staged: Database::new(),
            store: Store::new(),
        };
        twin.stage(&mut Tracer::new(false), None, 0);
        twin
    }

    /// The two halves of what a write costs the engine after the row
    /// edit: materialise the six view relations from the tables, then
    /// register them and freeze the view graph. Returns both times.
    fn stage(
        &mut self,
        tr: &mut Tracer,
        parent: Option<&crate::trace::Open>,
        op: u64,
    ) -> (f64, f64) {
        let (rels, view_ms) = tr.span("pgq-parser.view_relations", parent, op, || {
            self.session
                .catalog
                .view_relations(GRAPH, &self.db)
                .expect("view relations")
        });
        self.k = rels.nodes.arity();
        let ((staged, store), register_ms) = tr.span("pgq-store.register", parent, op, || {
            let mut staged = Database::new();
            let six = [
                rels.nodes,
                rels.edges,
                rels.src,
                rels.tgt,
                rels.labels,
                rels.props,
            ];
            for (name, rel) in self.names.iter().zip(six) {
                staged.add_relation(name.clone(), rel);
            }
            let mut store = Store::from_database(&staged);
            store
                .register_view_graph(
                    GRAPH,
                    self.names.clone(),
                    &staged,
                    GraphForm::Bounded(self.k),
                )
                .expect("valid view");
            (staged, store)
        });
        (self.staged, self.store) = (staged, store);
        (view_ms, register_ms)
    }
}

/// The operations the traced pass replays: the first `n` requests of
/// client 0's `serve_mixed` stream.
pub fn trace_ops(g: &Transfers, seed: u64, n: usize) -> Vec<ServeOp> {
    let mut stream = ServeStream::new(seed, 0, true);
    (0..n).map(|_| stream.next_op(g)).collect()
}

/// Per-operation stage times of one decomposed replay.
#[derive(Default)]
struct Stages {
    total: Vec<f64>,
    parse: Vec<f64>,
    lower: Vec<f64>,
    eval: [Vec<f64>; 4],
    render: Vec<f64>,
    view_relations: Vec<f64>,
    register: Vec<f64>,
    optimize: Vec<f64>,
    build_view: Vec<f64>,
    pattern_eval: Vec<f64>,
}

fn replay_decomposed(
    g: &Transfers,
    ops: &[ServeOp],
    tr: &mut Tracer,
    estimates: usize,
) -> (Stages, Vec<Vec<String>>) {
    let mut twin = Twin::load(g);
    let mut st = Stages::default();
    let mut answers = Vec::with_capacity(ops.len());
    let cfg = EvalConfig::physical().with_threads(1);
    for (id, op) in ops.iter().enumerate() {
        let id = id as u64;
        match op {
            ServeOp::Read(shape) => {
                let stmt = shape_stmt(*shape);
                let open = tr.begin(&format!("statement.read.{}", SHAPES[*shape]), None, id);
                let (parsed, ms) = tr.span("pgq-parser.parse_statement", Some(&open), id, || {
                    parse_statement(&format!("{stmt};"))
                });
                st.parse.push(ms);
                let Ok(Statement::GraphQuery(gq)) = parsed else {
                    panic!("{stmt} does not parse as a graph query");
                };
                let (pattern, ms) = tr.span("pgq-parser.lower_query", Some(&open), id, || {
                    lower_query(&gq, &twin.session.catalog).expect("lowers")
                });
                st.lower.push(ms);
                let q = Query::pattern_n(twin.k, pattern, twin.names.clone().map(Query::rel));
                let (rows, ms) = tr.span("pgq-core.eval_with_store", Some(&open), id, || {
                    eval_with_store(&q, &twin.staged, cfg, &twin.store).expect("evaluates")
                });
                st.eval[*shape].push(ms);
                let (lines, ms) = tr.span("pgq-relational.render", Some(&open), id, || {
                    let mut lines = vec![format!("-- {} row(s)", rows.len())];
                    lines.extend(rows.iter().map(|row| row.to_string()));
                    lines
                });
                st.render.push(ms);
                st.total.push(tr.end(open));
                answers.push(lines);
            }
            ServeOp::Write { insert, row } => {
                let open = tr.begin("statement.write", None, id);
                tr.span("pgq-relational.mutate", Some(&open), id, || {
                    if *insert {
                        twin.db.insert("Transfer", row.tuple()).expect("5-ary row");
                    } else {
                        twin.db.remove(&"Transfer".into(), &row.tuple());
                    }
                });
                let (view_ms, register_ms) = twin.stage(tr, Some(&open), id);
                st.view_relations.push(view_ms);
                st.register.push(register_ms);
                st.total.push(tr.end(open));
                answers.push(vec![write_ack(*insert).to_string()]);
            }
        }
    }
    // Beside the statements, in a loop of their own (their garbage would
    // otherwise land on the next statement's first allocation): the
    // logical optimizer, and the storeless route's split of evaluation
    // into view construction and pattern matching — an *estimate* of the
    // shares, as the store route does not expose that boundary.
    let reads = ops.iter().enumerate().filter_map(|(id, op)| match op {
        ServeOp::Read(shape) => Some((id as u64, *shape)),
        ServeOp::Write { .. } => None,
    });
    for (id, shape) in reads.take(estimates) {
        let Ok(Statement::GraphQuery(gq)) = parse_statement(&format!("{};", shape_stmt(shape)))
        else {
            unreachable!("parsed above");
        };
        let pattern = lower_query(&gq, &twin.session.catalog).expect("lowers");
        let views = twin.names.clone().map(Query::rel);
        let q = Query::pattern_n(twin.k, pattern.clone(), views.clone());
        let schema = twin.staged.schema();
        let (_, ms) = tr.span("estimate.pgq-core.optimize", None, id, || {
            optimize(&q, &schema).expect("well-typed")
        });
        st.optimize.push(ms);
        let (view, ms) = tr.span("estimate.pgq-core.build_view", None, id, || {
            build_view(&views, ViewOp::Bounded(twin.k), &twin.staged, cfg).expect("valid view")
        });
        st.build_view.push(ms);
        let (_, ms) = tr.span("estimate.pgq-pattern.eval", None, id, || {
            pattern.eval(&view).expect("pattern evaluates")
        });
        st.pattern_eval.push(ms);
    }
    (st, answers)
}

/// The traced statement replay: puts the statement layers' metrics
/// into `out` and returns the replay's total time with spans recorded
/// and unrecorded. The three routes must also agree on every answer;
/// disagreements go to `out.checks`.
pub fn trace_statements(
    g: &Transfers,
    ops: &[ServeOp],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (f64, f64) {
    // 1. Over TCP, one connection. The socket's share cannot be had by
    // subtracting two 15 ms evaluations (their run-to-run difference is
    // larger than it); it is taken on a statement that costs the engine
    // nothing: `SET THREADS 1` over TCP minus the same call made
    // straight on the engine being served, once per operation.
    let mut served = boot(g, 1);
    let mut direct = SessionState::default();
    let (mut io, mut served_answers) = (Vec::new(), Vec::new());
    for (id, op) in ops.iter().enumerate() {
        let stmt = op.stmt();
        let (resp, _) = tr.span("tcp.request", None, id as u64, || {
            served.clients[0].request(&stmt)
        });
        served_answers.push(resp.unwrap_or_else(|e| vec![format!("!! {e}")]));
        let (pong, over_tcp) = tr.span("tcp.ping", None, id as u64, || {
            served.clients[0].request("SET THREADS 1")
        });
        must_ok(pong, "SET THREADS");
        let (_, in_process) = timed(|| served.engine.statement(&mut direct, "SET THREADS 1"));
        io.push(over_tcp - in_process);
    }
    drop(served);
    // 2. The same statements through a twin engine, no socket.
    let mut twin = Oracle::load(g);
    for shape in 0..SHAPES.len() {
        twin.ask(&shape_stmt(shape));
    }
    let mut engine = Vec::new();
    for (id, op) in ops.iter().enumerate() {
        let (resp, ms) = tr.span("pgq-server.statement", None, id as u64, || {
            twin.ask(&op.stmt())
        });
        engine.push(ms);
        out.checks.check(agree(&resp, &served_answers[id]), || {
            format!("{}: twin engine and server disagree", op.stmt())
        });
    }
    // 3. The decomposed twin: once unrecorded, for the overhead ratio,
    // then recorded.
    let (plain, _) = replay_decomposed(g, ops, &mut Tracer::new(false), 0);
    let (st, answers) = replay_decomposed(g, ops, tr, TRACE_ESTIMATES);
    for (id, op) in ops.iter().enumerate() {
        out.checks
            .check(agree(&answers[id], &served_answers[id]), || {
                format!("{}: decomposed twin and server disagree", op.stmt())
            });
    }

    let is_read: Vec<bool> = ops.iter().map(|o| matches!(o, ServeOp::Read(_))).collect();
    let pick = |v: &[f64], read: bool| -> Vec<f64> {
        v.iter()
            .zip(&is_read)
            .filter(|(_, r)| **r == read)
            .map(|(x, _)| *x)
            .collect()
    };
    let paired = |a: &[f64], b: &[f64], read: bool| -> f64 {
        let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        med(&pick(&diff, read))
    };
    let mut put = |name: &str, v: f64| out.metric(name, v);
    put("pgq-server.io_us", med(&io) * 1e3);
    let (stmt_read, stmt_write) = (med(&pick(&engine, true)), med(&pick(&engine, false)));
    put("pgq-server.statement_ms.read", stmt_read);
    put("pgq-server.statement_ms.write", stmt_write);
    let (un_read, un_write) = (
        paired(&engine, &st.total, true),
        paired(&engine, &st.total, false),
    );
    put("pgq-server.unattributed_ms.read", un_read);
    put("pgq-server.unattributed_ms.write", un_write);
    put("pgq-parser.parse_us", med(&st.parse) * 1e3);
    put("pgq-parser.lower_us", med(&st.lower) * 1e3);
    put("pgq-parser.view_relations_ms", med(&st.view_relations));
    put("pgq-store.register_ms", med(&st.register));
    put("pgq-core.optimize_us", med(&st.optimize) * 1e3);
    for (s, name) in SHAPES.iter().enumerate() {
        put(&format!("pgq-core.eval_ms.{name}"), med(&st.eval[s]));
    }
    put("pgq-core.build_view_ms", med(&st.build_view));
    put("pgq-pattern.eval_ms", med(&st.pattern_eval));
    put("pgq-relational.render_us", med(&st.render) * 1e3);

    // A decomposition that misses more than a fifth of the statement
    // explains too little to attribute a change with.
    let verdict = |un: f64, whole: f64| {
        Json::str(if un.abs() > 0.2 * whole {
            "unresolved"
        } else {
            "resolved"
        })
    };
    out.info("decomposition.read", verdict(un_read, stmt_read));
    out.info("decomposition.write", verdict(un_write, stmt_write));
    out.info("statement_ops", Json::Num(ops.len() as f64));
    (st.total.iter().sum(), plain.total.iter().sum())
}
