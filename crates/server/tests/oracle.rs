//! Served answers against an independent oracle. The served read
//! shapes (one hop, the `{2,2}` two-hop, the filtered and the bare
//! closure) and the audit statement run through `Engine::statement`;
//! their rows must equal Figure 2's reference evaluator
//! (`EvalConfig::reference()`) over the same view relations, which the
//! oracle stages itself from its own copy of the rows through the
//! parser's catalog. The comparison holds on the loaded graph, after an
//! `INSERT` and after the matching `DELETE`.
//!
//! The same graph pins that no served shape builds a view graph per
//! statement (`view_builds` on `METRICS JSON;`), and the served graph's
//! size holds repetition bounds far past its node count to their own
//! oracles.

use pgq_core::{eval_with, EvalConfig, Query};
use pgq_parser::{lower_query, parse_command, Command, Session, Statement};
use pgq_relational::{Database, Relation};
use pgq_server::{Engine, SessionState};
use pgq_value::Tuple;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const ACCOUNTS: usize = 40;
const TRANSFERS: usize = 160;
/// The benchmark's served graph: 250 accounts, four transfers each.
const SERVED_ACCOUNTS: usize = 250;

const DDL: [&str; 3] = [
    "CREATE TABLE Account (iban)",
    "CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount)",
    "CREATE PROPERTY GRAPH Transfers ( \
     NODES TABLE Account KEY (iban) LABEL Account, \
     EDGES TABLE Transfer KEY (t_id) \
       SOURCE KEY src_iban REFERENCES Account \
       TARGET KEY tgt_iban REFERENCES Account \
       LABELS Transfer PROPERTIES (ts, amount))",
];

/// The read shapes in served order, then the audit statement.
const SHAPES: [(&str, &str); 5] = [
    (
        "one_hop",
        "MATCH (x) -[t:Transfer]-> (y) WHERE t.amount > 9000 RETURN (x.iban, y.iban)",
    ),
    (
        "two_hop",
        "MATCH (x) -[t:Transfer]->{2,2} (y) WHERE t.amount > 7000 RETURN (x.iban, y.iban)",
    ),
    (
        "plus_filtered",
        "MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 5000 RETURN (x.iban, y.iban)",
    ),
    ("plus_all", "MATCH (x) -[t]->+ (y) RETURN (x.iban, y.iban)"),
    (
        "audit",
        "MATCH (x) -[t:Transfer]-> (y) WHERE t.amount < 1000 \
         RETURN (x.iban, y.iban, t.ts, t.amount)",
    ),
];

fn select(body: &str) -> String {
    format!("SELECT * FROM GRAPH_TABLE (Transfers {body})")
}

fn iban(i: usize) -> String {
    format!("AC{i:04}")
}

/// Transfer `j` of a graph of `accounts`: a ring edge or a seeded one
/// inside a community of eight (the last one may be smaller), amounts
/// spread over `1000..10000`.
fn transfer(j: usize, accounts: usize) -> String {
    let s = j % accounts;
    let lo = s / 8 * 8;
    let size = 8.min(accounts - lo);
    let t = if j < accounts {
        lo + (s - lo + 1) % size
    } else {
        lo + (j * 7 + j / 8) % size
    };
    let amount = 1000 + (j * 5657) % 9000;
    format!(
        "INSERT INTO Transfer VALUES ({j}, '{}', '{}', {}, {amount})",
        iban(s),
        iban(t),
        1_600_000_000 + 60 * j
    )
}

/// A served engine and the oracle's own rows and catalog, fed the same
/// statements.
struct Twin {
    engine: Engine,
    conn: SessionState,
    session: Session,
    db: Database,
}

impl Twin {
    fn load() -> Twin {
        Twin::sized(ACCOUNTS, TRANSFERS)
    }

    /// The graph of `accounts` accounts and `transfers` transfers.
    fn sized(accounts: usize, transfers: usize) -> Twin {
        let mut twin = Twin {
            engine: Engine::new(),
            conn: SessionState::default(),
            session: Session::new(),
            db: Database::new(),
        };
        let rows = (0..accounts).map(|i| format!("INSERT INTO Account VALUES ('{}')", iban(i)));
        let stmts: Vec<String> = DDL[..2]
            .iter()
            .map(|s| s.to_string())
            .chain(rows)
            .chain((0..transfers).map(|j| transfer(j, accounts)))
            .chain([DDL[2].to_string()])
            .collect();
        for stmt in &stmts {
            twin.write(stmt);
        }
        twin
    }

    /// Applies a DDL or row statement to both sides.
    fn write(&mut self, stmt: &str) {
        let resp = self.engine.statement(&mut self.conn, stmt);
        assert!(
            resp.iter().all(|l| !l.starts_with("!! ")),
            "{stmt}: {resp:?}"
        );
        match parse_command(stmt).expect("the fixture parses") {
            Command::Sql(ddl) => {
                self.session.execute(&ddl, &self.db).expect("valid DDL");
            }
            Command::Mutation(m) if m.delete => {
                self.db.remove(&m.table.as_str().into(), &m.row);
            }
            Command::Mutation(m) => {
                self.db.insert(m.table, m.row).expect("declared arity");
            }
            other => panic!("not a write: {other:?}"),
        }
    }

    /// The served rows of a `SELECT`, sorted.
    fn served(&mut self, stmt: &str) -> Vec<String> {
        let resp = self.engine.statement(&mut self.conn, stmt);
        let (head, rows) = resp.split_first().expect("a row count");
        assert!(head.starts_with("-- "), "{stmt}: {resp:?}");
        let mut rows = rows.to_vec();
        rows.sort();
        rows
    }

    /// Figure 2 over view relations the oracle staged itself.
    fn reference(&self, stmt: &str) -> Vec<String> {
        sorted(&self.answer(stmt, EvalConfig::reference()))
    }

    /// The rows of a `SELECT` under `cfg`, over view relations the
    /// oracle staged itself.
    fn answer(&self, stmt: &str, cfg: EvalConfig) -> Relation {
        let Ok(Command::Sql(Statement::GraphQuery(gq))) = parse_command(stmt) else {
            panic!("not a query: {stmt}");
        };
        let catalog = &self.session.catalog;
        let out = lower_query(&gq, catalog).expect("the shapes lower");
        let rels = catalog.view_relations(&gq.graph, &self.db).expect("stages");
        let k = catalog.id_arity(&gq.graph).expect("a graph");
        let names = ["N", "E", "S", "T", "L", "P"];
        let mut staged = Database::new();
        for (name, rel) in names.into_iter().zip([
            rels.nodes,
            rels.edges,
            rels.src,
            rels.tgt,
            rels.labels,
            rels.props,
        ]) {
            staged.add_relation(name, rel);
        }
        let q = Query::pattern_n(k, out, names.map(Query::rel));
        eval_with(&q, &staged, cfg).expect("evaluates")
    }

    /// `view_builds` off `METRICS JSON;`.
    fn view_builds(&mut self) -> u64 {
        let resp = self.engine.statement(&mut self.conn, "METRICS JSON");
        let line = resp
            .iter()
            .find(|l| l.contains("\"view_builds\""))
            .unwrap_or_else(|| panic!("no view_builds in {resp:?}"));
        let digits: String = line.chars().filter(char::is_ascii_digit).collect();
        digits.parse().expect("a count")
    }

    /// The `EXPLAIN` text of a `SELECT`.
    fn explain(&mut self, stmt: &str) -> String {
        self.engine
            .statement(&mut self.conn, &format!("EXPLAIN {stmt}"))
            .join("\n")
    }

    fn assert_agrees(&mut self, context: &str) {
        for (name, body) in SHAPES {
            let stmt = select(body);
            let served = self.served(&stmt);
            assert_eq!(served, self.reference(&stmt), "{context}: {name}");
        }
    }
}

#[test]
fn served_shapes_match_the_reference_before_and_after_writes() {
    let mut twin = Twin::load();
    twin.assert_agrees("loaded");
    assert!(
        !twin.served(&select(SHAPES[0].1)).is_empty(),
        "one_hop has rows"
    );
    let row = format!(
        "Transfer VALUES ({TRANSFERS}, '{}', '{}', 1700000000, 500)",
        iban(3),
        iban(4)
    );
    twin.write(&format!("INSERT INTO {row}"));
    twin.assert_agrees("inserted");
    let audit = select(SHAPES[4].1);
    assert_eq!(twin.served(&audit).len(), 1, "the audit sees the insert");
    twin.write(&format!("DELETE FROM {row}"));
    twin.assert_agrees("deleted");
    assert!(twin.served(&audit).is_empty());
}

fn sorted(rel: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.iter().map(Tuple::to_string).collect();
    rows.sort();
    rows
}

/// Every served shape — repetition included — compiles onto the store
/// and builds no view graph.
#[test]
fn no_served_shape_builds_a_view() {
    let mut twin = Twin::load();
    for (name, body) in SHAPES {
        let before = twin.view_builds();
        twin.served(&select(body));
        assert_eq!(twin.view_builds() - before, 0, "{name}");
    }
}

/// `{0,100000}` and `{100000,100000}` over the served graph compile to
/// the plans of `{0,10}` and `{10,10}` (only the bound literals differ),
/// and answer within a second on a server's 2 MiB stack: the first as
/// the NFA answers `{0,∞}`, the second as iterating the one-step pairs
/// until their powers repeat says.
#[test]
fn huge_repetition_bounds_answer_like_their_oracles() {
    let run = || {
        let mut twin = Twin::sized(SERVED_ACCOUNTS, 4 * SERVED_ACCOUNTS);
        let stmt = |bounds: &str| {
            select(&format!(
                "MATCH (x) -[t]->{bounds} (y) RETURN (x.iban, y.iban)"
            ))
        };
        let plan = |twin: &mut Twin, n: &str, m: &str| {
            let text = twin.explain(&stmt(&format!("{{{n},{m}}}")));
            assert!(text.contains("[route: compiled plan]"), "{text}");
            text.replace(&format!("{{{n},{m}}}"), "{n,m}")
                .replace(&format!("steps {n}..{m}]"), "steps n..m]")
        };
        assert_eq!(plan(&mut twin, "0", "100000"), plan(&mut twin, "0", "10"));
        assert_eq!(
            plan(&mut twin, "100000", "100000"),
            plan(&mut twin, "10", "10")
        );

        let start = Instant::now();
        let star = twin.served(&stmt("{0,100000}"));
        let exact = twin.served(&stmt("{100000,100000}"));
        let elapsed = start.elapsed();

        let nfa = twin.answer(&stmt("*"), EvalConfig::default());
        assert_eq!(star, sorted(&nfa));
        // The powers of the one-step pairs, from the identity, until
        // one repeats; the 100 000th is then read off the cycle.
        let step = twin.answer(&stmt(""), EvalConfig::reference());
        let mut powers: Vec<BTreeSet<Tuple>> =
            vec![nfa.iter().filter(|t| t[0] == t[1]).cloned().collect()];
        let first = loop {
            let last = powers.last().expect("the identity");
            let next: BTreeSet<Tuple> = last
                .iter()
                .flat_map(|a| {
                    step.iter()
                        .filter(|b| b[0] == a[1])
                        .map(|b| Tuple::new(vec![a[0].clone(), b[1].clone()]))
                })
                .collect();
            if let Some(i) = powers.iter().position(|p| *p == next) {
                break i;
            }
            powers.push(next);
        };
        let period = powers.len() - first;
        let want = Relation::from_rows(2, powers[first + (100_000 - first) % period].clone());
        assert_eq!(exact, sorted(&want.expect("pairs")));
        elapsed
    };
    let elapsed = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run)
        .expect("a thread")
        .join()
        .expect("no stack overflow");
    // Unoptimized builds get ten times the budget.
    let budget = Duration::from_secs(if cfg!(debug_assertions) { 10 } else { 1 });
    assert!(elapsed < budget, "{elapsed:?}");
}
