//! The PR 8 protocol battery: concurrent-connection smoke with
//! deterministic per-client transcripts, and the malformed-input /
//! oversized-line / mid-line-disconnect suite — all against one shared
//! server. Nothing here may kill the server or poison the shared
//! store lock.

use pgq_server::{Client, Engine, Server, MAX_LINE};
use std::sync::Arc;

const GRAPH_DDL: &str = "CREATE PROPERTY GRAPH Transfers ( \
     NODES TABLE Account KEY (iban) LABEL Account, \
     EDGES TABLE Transfer KEY (t_id) \
       SOURCE KEY src_iban REFERENCES Account \
       TARGET KEY tgt_iban REFERENCES Account \
       LABELS Transfer PROPERTIES (ts, amount))";

const QUERY: &str = "SELECT * FROM GRAPH_TABLE (Transfers \
     MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 100 \
     RETURN (x.iban, y.iban))";

fn start_server() -> Server {
    Server::bind(Arc::new(Engine::new()), "127.0.0.1:0").expect("bind ephemeral port")
}

/// The canonical transfers schema plus a chain of `accounts` accounts.
fn demo_statements(accounts: usize) -> Vec<String> {
    let mut stmts = vec![
        "CREATE TABLE Account (iban)".to_string(),
        "CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount)".to_string(),
        GRAPH_DDL.to_string(),
    ];
    stmts.extend((0..accounts).map(|i| format!("INSERT INTO Account VALUES ('A{i}')")));
    stmts.extend((0..accounts.saturating_sub(1)).map(|i| {
        format!(
            "INSERT INTO Transfer VALUES ({i}, 'A{i}', 'A{}', {}, {})",
            i + 1,
            100 + i,
            500 + i
        )
    }));
    stmts
}

/// Loads [`demo_statements`]; none may answer an error.
fn load_demo(client: &mut Client, accounts: usize) {
    for stmt in demo_statements(accounts) {
        let resp = client.request(&stmt).expect("demo statement");
        assert!(
            resp.iter().all(|l| !l.starts_with("!! ")),
            "{stmt} failed: {resp:?}"
        );
    }
}

#[test]
fn concurrent_clients_get_deterministic_transcripts() {
    let server = start_server();
    let addr = server.addr();
    let mut setup = Client::connect(addr).expect("connect");
    load_demo(&mut setup, 6);
    let expected = setup.request(QUERY).expect("oracle query");
    assert_eq!(
        expected[0], "-- 15 row(s)",
        "unexpected oracle: {expected:?}"
    );

    // k clients × m queries each, racing: every transcript must be m
    // copies of the oracle response — same rows, same order.
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Per-connection SET THREADS exercises both executor modes.
                let threads = if c % 2 == 0 { 1 } else { 2 };
                client
                    .request(&format!("SET THREADS {threads}"))
                    .expect("set threads");
                for _ in 0..8 {
                    let resp = client.request(QUERY).expect("query");
                    assert_eq!(resp, expected, "client {c} diverged");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.stop();
}

#[test]
fn statement_batches_and_session_commands_round_trip() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 4);
    // A `;`-separated batch on one line answers in statement order.
    let resp = client
        .request("STATS; METRICS; SET THREADS 2")
        .expect("batch");
    let joined = resp.join("\n");
    assert!(joined.contains("store layout"), "missing STATS: {joined}");
    assert!(
        joined.contains("store access counters"),
        "missing METRICS: {joined}"
    );
    assert!(joined.contains("threads set to 2"), "missing SET: {joined}");
    // JSON variants and COMPACT.
    let stats = client.request("STATS JSON").expect("stats json").join("\n");
    assert!(stats.trim_start().starts_with('{'), "not JSON: {stats}");
    for key in [
        "\"bytes\"",
        "\"dictionary\"",
        "\"csr\"",
        "\"overlays\"",
        "\"total\"",
    ] {
        assert!(stats.contains(key), "missing {key} in STATS JSON: {stats}");
    }
    let metrics = client
        .request("METRICS JSON")
        .expect("metrics json")
        .join("\n");
    for key in [
        "index_scan_rows",
        "csr_neighbor_rows",
        "overlay_reads",
        "dense_reads",
        "dict_decodes",
        "writer_probes",
        "writer_probe_rows",
        "view_builds",
        "statistics_recounts",
        "graph_index_builds",
    ] {
        let key = format!("\"{key}\"");
        assert!(
            metrics.contains(&key),
            "missing {key} in METRICS JSON: {metrics}"
        );
    }
    let resp = client.request("COMPACT").expect("compact");
    assert!(resp[0].starts_with("-- compacted:"), "{resp:?}");
    // EXPLAIN and EXPLAIN ANALYZE both answer.
    let plan = client
        .request(&format!("EXPLAIN {QUERY}"))
        .expect("explain");
    assert_eq!(plan[0], "-- physical plan");
    let profile = client
        .request(&format!("EXPLAIN ANALYZE {QUERY}"))
        .expect("analyze");
    assert_eq!(profile[0], "-- query profile");
    server.stop();
}

/// `stmt`'s response; it may not answer an error.
fn ask(client: &mut Client, stmt: &str) -> Vec<String> {
    let resp = client.request(stmt).expect("answered");
    assert!(
        resp.iter().all(|l| !l.starts_with("!! ")),
        "{stmt}: {resp:?}"
    );
    resp
}

/// `graph_index_builds` off `METRICS JSON`.
fn graph_index_builds(client: &mut Client) -> u64 {
    let json = ask(client, "METRICS JSON");
    let line = json
        .iter()
        .find(|l| l.contains("\"graph_index_builds\""))
        .unwrap_or_else(|| panic!("no graph_index_builds in {json:?}"));
    let digits: String = line.chars().filter(char::is_ascii_digit).collect();
    digits.parse().expect("a count")
}

/// A graph's node index is derived data that no query reads: served
/// writes followed by reads of every shape — `SELECT`, `EXPLAIN` and
/// `EXPLAIN ANALYZE` — derive none, a `STATS` after a write derives it
/// once, and a second `STATS` of the same state reuses it.
#[test]
fn only_stats_derives_a_graph_index() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 6);
    let shapes = [
        "MATCH (x) -[t:Transfer]-> (y) WHERE t.amount > 501 RETURN (x.iban, y.iban)",
        "MATCH (x) -[t:Transfer]->{2,2} (y) RETURN (x.iban, y.iban)",
        "MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 100 RETURN (x.iban, y.iban)",
        "MATCH (x) -[t]->* (y) RETURN (x.iban, y.iban)",
        "MATCH (x:Account) RETURN (x.iban)",
    ];
    ask(&mut client, "METRICS RESET");
    for round in 0..3 {
        let row = format!("Transfer VALUES ({}, 'A5', 'A0', 1, 900)", 100 + round);
        ask(&mut client, &format!("INSERT INTO {row}"));
        for body in shapes {
            for prefix in ["", "EXPLAIN ", "EXPLAIN ANALYZE "] {
                let stmt = format!("{prefix}SELECT * FROM GRAPH_TABLE (Transfers {body})");
                ask(&mut client, &stmt);
            }
        }
        if round > 0 {
            ask(&mut client, &format!("DELETE FROM {row}"));
        }
    }
    assert_eq!(graph_index_builds(&mut client), 0, "no read derives it");
    ask(&mut client, "STATS");
    assert_eq!(
        graph_index_builds(&mut client),
        1,
        "STATS after a write does"
    );
    ask(&mut client, "STATS JSON");
    assert_eq!(graph_index_builds(&mut client), 1, "the state keeps it");
    ask(&mut client, "INSERT INTO Account VALUES ('A9')");
    ask(&mut client, "STATS");
    assert_eq!(graph_index_builds(&mut client), 2);
    server.stop();
}

#[test]
fn planner_switch_and_statistics_sections_round_trip() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 5);

    // STATS grows a planner-statistics section: per-relation live-row
    // and distinct counts plus degree-histogram summaries.
    let stats = client.request("STATS").expect("stats").join("\n");
    assert!(
        stats.contains("-- planner statistics"),
        "missing planner statistics section: {stats}"
    );
    assert!(
        stats.contains("statistics (epoch"),
        "missing epoch header: {stats}"
    );
    assert!(stats.contains("distinct ["), "missing distinct: {stats}");
    assert!(stats.contains("/ p99 "), "missing histogram: {stats}");

    // STATS JSON carries the same data under a "statistics" object.
    let json = client.request("STATS JSON").expect("stats json").join("\n");
    for key in [
        "\"statistics\"",
        "\"epoch\"",
        "\"distinct\"",
        "\"live_rows\"",
        "\"forward\"",
        "\"p99\"",
    ] {
        assert!(json.contains(key), "missing {key} in STATS JSON: {json}");
    }

    // SET PLANNER switches per connection; both planners answer the
    // same rows, and a bad argument is a typed error.
    let cost_rows = client.request(QUERY).expect("cost query");
    let resp = client.request("SET PLANNER rule").expect("set rule");
    assert_eq!(resp, ["-- planner set to rule"]);
    let rule_rows = client.request(QUERY).expect("rule query");
    assert_eq!(cost_rows, rule_rows, "planners diverged");
    let resp = client.request("SET PLANNER greedy").expect("bad planner");
    assert_eq!(resp, ["!! SET PLANNER needs cost or rule"]);
    let resp = client.request("SET PLANNER COST").expect("set cost");
    assert_eq!(resp, ["-- planner set to cost"]);

    // EXPLAIN and EXPLAIN ANALYZE answer under both planners (pattern
    // profiles are leaf operators — the est= column is exercised on
    // the relational route in tests/prop_engine.rs).
    for planner in ["cost", "rule"] {
        client
            .request(&format!("SET PLANNER {planner}"))
            .expect("set planner");
        let plan = client
            .request(&format!("EXPLAIN {QUERY}"))
            .expect("explain");
        assert_eq!(plan[0], "-- physical plan", "under {planner}: {plan:?}");
        let profile = client
            .request(&format!("EXPLAIN ANALYZE {QUERY}"))
            .expect("analyze");
        assert_eq!(
            profile[0], "-- query profile",
            "under {planner}: {profile:?}"
        );
    }
    server.stop();
}

#[test]
fn malformed_inputs_return_typed_errors_and_server_survives() {
    let server = start_server();
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    load_demo(&mut client, 3);

    // Unknown grammar → parser's typed error, session continues.
    let resp = client.request("FROB THE STORE").expect("bad stmt");
    assert!(resp[0].starts_with("!! "), "{resp:?}");
    // Malformed mutation → shell-style typed error.
    let resp = client
        .request("INSERT INTO Account 'oops'")
        .expect("bad insert");
    assert!(resp[0].starts_with("!! "), "{resp:?}");
    // A wrong-arity row is the same typed error on DELETE as on INSERT
    // — not a "(no-op)" acknowledgement after re-staging the graph.
    for (stmt, context) in [
        ("INSERT INTO Transfer", "insert"),
        ("DELETE FROM Transfer", "delete"),
    ] {
        let resp = client
            .request(&format!("{stmt} VALUES (1, 'A0')"))
            .expect("wrong arity");
        assert_eq!(
            resp,
            [format!(
                "!! arity mismatch in relation {context}: expected 5, found 2"
            )]
        );
    }
    // Query on an unknown graph → typed error, not a hang or panic.
    let resp = client
        .request("SELECT * FROM GRAPH_TABLE (Nope MATCH (x) RETURN (x.iban))")
        .expect("unknown graph");
    assert!(resp[0].starts_with("!! "), "{resp:?}");
    // …also when nothing but the graph name needs the catalog.
    let resp = client
        .request("EXPLAIN SELECT * FROM GRAPH_TABLE (Nope MATCH (x) RETURN (x))")
        .expect("unknown graph, no columns");
    assert_eq!(resp, ["!! unknown property graph Nope"]);
    // Non-ASCII where a keyword could start: the prefix dispatcher
    // sliced these mid-character and killed the connection thread.
    for hostile in ["éééééé", "EXPLAIN abcdeféx"] {
        let resp = client.request(hostile).expect("non-ascii");
        assert!(resp[0].starts_with("!! parse error"), "{hostile}: {resp:?}");
    }

    // Invalid UTF-8 → typed protocol error on the same connection.
    client.send_raw(b"SELECT \xff\xfe\n").expect("raw send");
    let resp = client.read_response().expect("utf8 response");
    assert_eq!(resp, ["!! protocol: request is not valid UTF-8"]);

    // Oversized request → typed protocol error; the flood is drained.
    let flood = "X".repeat(MAX_LINE + 512);
    let resp = client.request(&flood).expect("oversized");
    assert_eq!(
        resp,
        [format!("!! protocol: request exceeds {MAX_LINE} bytes")]
    );

    // The same session still works after every abuse…
    let resp = client.request("STATS").expect("stats after abuse");
    assert_eq!(resp[0], "-- store layout");

    // …and a mid-line disconnect (no trailing newline) doesn't take
    // the server or the shared store down with it.
    let mut rude = Client::connect(addr).expect("connect rude");
    rude.send_raw(b"INSERT INTO Account VALUES ('half")
        .expect("partial");
    rude.abort_write().expect("abort");
    drop(rude);

    // A fresh client can still read *and write* — the store lock is
    // not poisoned, and the partial line was never executed.
    let mut after = Client::connect(addr).expect("connect after");
    let resp = after
        .request("INSERT INTO Account VALUES ('A9')")
        .expect("write after disconnect");
    assert!(resp[0].starts_with("-- inserted into Account"), "{resp:?}");
    let resp = after.request(QUERY).expect("read after disconnect");
    assert!(resp[0].starts_with("-- "), "{resp:?}");
    assert!(
        !resp.iter().any(|l| l.contains("half")),
        "partial statement leaked: {resp:?}"
    );
    server.stop();
}

/// Row mutations parse on the statement lexer: reversed parens are a
/// typed error (they used to panic the connection thread), a quoted
/// comma stays inside its string, and `''` unescapes exactly as it
/// does in a query literal — so the stored row is matchable.
#[test]
fn mutation_literals_parse_like_query_literals() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 2);

    let resp = client
        .request("INSERT INTO Account VALUES )(")
        .expect("reversed parens");
    assert!(resp[0].starts_with("!! parse error"), "{resp:?}");
    // The connection survived the malformed statement.
    for stmt in [
        "INSERT INTO Account VALUES ('x,y')",
        "INSERT INTO Transfer VALUES (77, 'x,y', 'A0', 'it''s', 900)",
    ] {
        let resp = client.request(stmt).expect("insert");
        assert!(resp[0].starts_with("-- inserted into"), "{stmt}: {resp:?}");
    }
    let resp = client
        .request(
            "SELECT * FROM GRAPH_TABLE (Transfers \
             MATCH (x) -[t:Transfer]-> (y) WHERE t.ts = 'it''s' \
             RETURN (x.iban, t.ts))",
        )
        .expect("select");
    assert_eq!(resp[0], "-- 1 row(s)", "{resp:?}");
    assert!(
        resp[1].contains("x,y") && resp[1].contains("it's"),
        "{resp:?}"
    );
    // Deleting by the same literals removes the row again.
    let resp = client
        .request("DELETE FROM Transfer VALUES (77, 'x,y', 'A0', 'it''s', 900)")
        .expect("delete");
    assert_eq!(resp[0], "-- deleted from Transfer", "{resp:?}");
    server.stop();
}

/// A row mutation is checked against the catalog before it touches the
/// live rows: an undeclared table is the catalog's typed error, and a
/// row wider than its table is refused on both verbs — it neither
/// lands nor poisons the table for the correct rows after it.
#[test]
fn mutations_are_checked_against_the_declared_table() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client.request("CREATE TABLE Account (iban)").expect("ddl");
    assert_eq!(resp, ["-- table Account defined"]);
    for (stmt, context) in [("INSERT INTO", "insert"), ("DELETE FROM", "delete")] {
        let resp = client
            .request(&format!("{stmt} Account VALUES ('IL01', 'oops')"))
            .expect("wide row");
        assert_eq!(
            resp,
            [format!(
                "!! arity mismatch in relation {context}: expected 1, found 2"
            )]
        );
    }
    let resp = client
        .request("INSERT INTO Account VALUES ('IL02')")
        .expect("declared row");
    assert_eq!(resp, ["-- inserted into Account"]);
    for stmt in ["INSERT INTO Nope VALUES (1)", "DELETE FROM Nope VALUES (1)"] {
        let resp = client.request(stmt).expect("undeclared table");
        assert_eq!(resp, ["!! unknown table Nope"], "{stmt}");
    }
    server.stop();
}

/// Commands dispatch on tokens: any whitespace between `INSERT` and
/// `INTO`, keywords in any case.
#[test]
fn commands_dispatch_on_tokens_not_prefixes() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 2);
    let resp = client
        .request("INSERT  INTO Account VALUES ('A2'); insert into Transfer values (1, 'A1', 'A2', 7, 900)")
        .expect("two-space insert");
    assert_eq!(
        resp,
        ["-- inserted into Account", "-- inserted into Transfer"]
    );
    let rows = client.request(QUERY).expect("query");
    assert_eq!(rows[0], "-- 3 row(s)", "{rows:?}");
    let resp = client.request("set threads 1; Stats Json").expect("case");
    assert_eq!(resp[0], "-- threads set to 1 (executor runs 1 worker(s))");
    assert_eq!(resp[1], "{", "{resp:?}");
    for (bad, message) in [
        ("STATS FOO", "!! STATS takes no argument or JSON"),
        (
            "METRICS FOO",
            "!! METRICS takes no argument, JSON, or RESET",
        ),
        (
            "SET THREADS -1",
            "!! SET THREADS needs a non-negative integer (0 = default)",
        ),
    ] {
        assert_eq!(client.request(bad).expect("bad argument"), [message]);
    }
    server.stop();
}

/// A client cannot scale server threads: `SET THREADS n` is clamped to
/// what the default resolves to without `PGQ_THREADS` — the machine's
/// parallelism, at most 8 — and the acknowledgement says so.
#[test]
fn set_threads_is_bounded_by_the_machine() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client.request("SET THREADS 100000").expect("set threads");
    let workers: usize = resp[0]
        .strip_prefix("-- threads set to 100000 (executor runs ")
        .and_then(|rest| rest.strip_suffix(" worker(s))"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unexpected acknowledgement: {resp:?}"));
    let machine = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert!(
        (1..=8.min(machine)).contains(&workers),
        "{workers} workers on a {machine}-way machine"
    );
    server.stop();
}

/// `SELECT`, `EXPLAIN` and `EXPLAIN ANALYZE` share one preparation
/// step, so on a graph whose view is invalid all three answer with the
/// view error — and all three answer again once the view is repaired.
#[test]
fn select_and_explain_agree_on_an_unstaged_graph() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 2);
    let resp = client
        .request("INSERT INTO Transfer VALUES (9, 'A1', 'ZZ', 7, 900)")
        .expect("dangling target");
    assert!(
        resp[0].starts_with("-- inserted into Transfer; graph Transfers unstaged: "),
        "{resp:?}"
    );
    let requests = [
        QUERY.to_string(),
        format!("EXPLAIN {QUERY}"),
        format!("EXPLAIN ANALYZE {QUERY}"),
    ];
    for request in &requests {
        let resp = client.request(request).expect("unstaged");
        assert_eq!(resp.len(), 1, "{request}: {resp:?}");
        assert!(
            resp[0].starts_with("!! invalid graph view: tgt(")
                && resp[0].ends_with("is not a node"),
            "{request}: {resp:?}"
        );
    }
    let resp = client
        .request("INSERT INTO Account VALUES ('ZZ')")
        .expect("repair");
    assert_eq!(resp, ["-- inserted into Account"]);
    for (request, head) in
        requests
            .iter()
            .zip(["-- 3 row(s)", "-- physical plan", "-- query profile"])
    {
        let resp = client.request(request).expect("restaged");
        assert_eq!(resp[0], head, "{request}: {resp:?}");
    }
    server.stop();
}

/// The shell example is `split_statements → Engine::statement →
/// println!`: on its built-in demo script that is, line for line, what
/// a client of the server gets (timings aside), and no line is an error.
#[test]
fn shell_demo_script_answers_like_a_client_session() {
    let source = include_str!("../../../examples/sqlpgq_shell.rs");
    let demo = source
        .split("r#\"")
        .nth(1)
        .and_then(|rest| rest.split("\"#").next())
        .expect("the example's DEMO literal");
    // Wall times are the only run-dependent text: `(t=…` / `(total=…`.
    let untimed = |line: String| match line.find("(t") {
        Some(at) if line.trim_start().starts_with(['O', '└', '├', '│']) => {
            line[..at].to_string()
        }
        _ => line,
    };

    let engine = Engine::new();
    let mut session = pgq_server::SessionState::default();
    let shell: Vec<String> = pgq_server::split_statements(demo)
        .iter()
        .flat_map(|stmt| engine.statement(&mut session, stmt))
        .map(untimed)
        .collect();
    assert!(shell.iter().all(|l| !l.starts_with("!!")), "{shell:#?}");
    assert_eq!(
        shell
            .iter()
            .filter(|l| l.starts_with("-- ") && l.ends_with(" row(s)"))
            .count(),
        3,
        "the demo's three SELECTs: {shell:#?}"
    );

    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let served = client
        .request(&demo.replace('\n', " "))
        .expect("demo as one request line");
    let served: Vec<String> = served.into_iter().map(untimed).collect();
    assert_eq!(shell, served);
    server.stop();
}

#[test]
fn writer_and_readers_interleave_without_divergence() {
    let server = start_server();
    let addr = server.addr();
    let mut setup = Client::connect(addr).expect("connect");
    load_demo(&mut setup, 5);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect reader");
                let mut seen = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp = client.request(QUERY).expect("read");
                    // Every answer is a complete, well-formed result
                    // for SOME published snapshot: a count header
                    // matching the row lines, never an error.
                    assert!(resp[0].starts_with("-- "), "{resp:?}");
                    let n: usize = resp[0]
                        .trim_start_matches("-- ")
                        .split_whitespace()
                        .next()
                        .unwrap()
                        .parse()
                        .expect("row count header");
                    assert_eq!(n, resp.len() - 1, "torn result: {resp:?}");
                    seen += 1;
                }
                seen
            })
        })
        .collect();

    // The single writer keeps growing the chain and compacting.
    for i in 5..25 {
        setup
            .request(&format!("INSERT INTO Account VALUES ('A{i}')"))
            .expect("write account");
        setup
            .request(&format!(
                "INSERT INTO Transfer VALUES ({}, 'A{}', 'A{i}', {}, {})",
                i - 1,
                i - 1,
                100 + i,
                500 + i
            ))
            .expect("write transfer");
        if i % 8 == 0 {
            setup.request("COMPACT").expect("compact");
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader thread") > 0);
    }
    // Final state agrees with a fresh sequential engine fed the same
    // statements (the divergence oracle).
    let final_rows = setup.request(QUERY).expect("final read");
    let oracle = Engine::new();
    let mut sess = pgq_server::SessionState::default();
    let mut expected = Vec::new();
    let mut feed = |stmt: &str| expected = oracle.statement(&mut sess, stmt);
    for stmt in demo_statements(5) {
        feed(&stmt);
    }
    for i in 5..25 {
        feed(&format!("INSERT INTO Account VALUES ('A{i}')"));
        feed(&format!(
            "INSERT INTO Transfer VALUES ({}, 'A{}', 'A{i}', {}, {})",
            i - 1,
            i - 1,
            100 + i,
            500 + i
        ));
    }
    feed(QUERY);
    assert_eq!(final_rows, expected, "server diverged from oracle");
    server.stop();
}

/// Several writers at once: each client interleaves reads with
/// client-unique — hence commuting — `INSERT INTO Transfer` rows, so
/// every interleaving must reach the state a sequential engine reaches
/// when fed the same statements in client order.
#[test]
fn concurrent_writers_converge_to_the_sequential_oracle() {
    const CLIENTS: usize = 4;
    const WRITES: usize = 6;
    const ACCOUNTS: usize = 6;
    fn write(c: usize, i: usize) -> String {
        format!(
            "INSERT INTO Transfer VALUES ({}, 'A{}', 'A{}', {}, {})",
            1_000 + c * WRITES + i,
            (c + i) % ACCOUNTS,
            (c + i + 1) % ACCOUNTS,
            700 + i,
            150 + i
        )
    }
    fn sorted(mut resp: Vec<String>) -> Vec<String> {
        resp[1..].sort();
        resp
    }

    let server = start_server();
    let addr = server.addr();
    let mut setup = Client::connect(addr).expect("connect");
    load_demo(&mut setup, ACCOUNTS);

    // Every client is connected before any of them writes.
    let start = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let start = &start;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect writer");
                start.wait();
                for i in 0..WRITES {
                    for stmt in [QUERY.to_string(), write(c, i)] {
                        let resp = client.request(&stmt).expect("request");
                        assert!(
                            resp.iter().all(|l| !l.starts_with("!! ")),
                            "client {c}, {stmt}: {resp:?}"
                        );
                    }
                }
            });
        }
    });

    let served = setup.request(QUERY).expect("final read");
    let oracle = Engine::new();
    let mut sess = pgq_server::SessionState::default();
    let mut expected = Vec::new();
    let writes = (0..CLIENTS).flat_map(|c| (0..WRITES).map(move |i| write(c, i)));
    for stmt in demo_statements(ACCOUNTS)
        .into_iter()
        .chain(writes)
        .chain([QUERY.to_string()])
    {
        expected = oracle.statement(&mut sess, &stmt);
    }
    assert!(expected[0].starts_with("-- "), "{expected:?}");
    assert_eq!(
        sorted(served),
        sorted(expected),
        "server diverged from oracle"
    );
    server.stop();
}
