//! Served answers against an independent oracle. The served read
//! shapes (one hop, the `{2,2}` two-hop, the filtered and the bare
//! closure) and the audit statement run through `Engine::statement`;
//! their rows must equal Figure 2's reference evaluator
//! (`EvalConfig::reference()`) over the same view relations, which the
//! oracle stages itself from its own copy of the rows through the
//! parser's catalog. The comparison holds on the loaded graph, after an
//! `INSERT` and after the matching `DELETE`, and after every write of a
//! seeded write sequence, where an unstaged graph's error must be the
//! strict `pgView` error over the oracle's rows. A write applies its
//! row's delta in place, which the tombstones in `STATS` show.
//!
//! The same graph pins that no served shape builds a view graph per
//! statement (`view_builds` on `METRICS JSON;`), and the served graph's
//! size holds repetition bounds far past its node count to their own
//! oracles.

use pgq_core::{eval_with, EvalConfig, Query};
use pgq_parser::{lower_query, parse_command, Command, Session, Statement};
use pgq_relational::{Database, Relation};
use pgq_server::{Engine, SessionState};
use pgq_store::{GraphForm, Store};
use pgq_value::{Tuple, Value};
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

/// The oracle's names for the six view relations.
const NAMES: [&str; 6] = ["N", "E", "S", "T", "L", "P"];

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

    /// No tables, no graphs.
    fn empty() -> Twin {
        Twin {
            engine: Engine::new(),
            conn: SessionState::default(),
            session: Session::new(),
            db: Database::new(),
        }
    }

    /// The graph of `accounts` accounts and `transfers` transfers.
    fn sized(accounts: usize, transfers: usize) -> Twin {
        let mut twin = Twin::empty();
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

    /// Applies a DDL or row statement to both sides; returns the served
    /// response line and whether the oracle's rows changed.
    fn write(&mut self, stmt: &str) -> (String, bool) {
        let resp = self.engine.statement(&mut self.conn, stmt);
        assert!(
            resp.iter().all(|l| !l.starts_with("!! ")),
            "{stmt}: {resp:?}"
        );
        let changed = match parse_command(stmt).expect("the fixture parses") {
            Command::Sql(ddl) => {
                self.session.execute(&ddl, &self.db).expect("valid DDL");
                true
            }
            Command::Mutation(m) if m.delete => self.db.remove(&m.table.as_str().into(), &m.row),
            Command::Mutation(m) => self.db.insert(m.table, m.row).expect("declared arity"),
            other => panic!("not a write: {other:?}"),
        };
        (resp.join("\n"), changed)
    }

    /// The served response to a statement, as is.
    fn response(&mut self, stmt: &str) -> Vec<String> {
        self.engine.statement(&mut self.conn, stmt)
    }

    /// Why the strict `pgView` rejects the oracle's rows of `Transfers`,
    /// or `None` when it accepts them.
    fn view_error(&self) -> Option<String> {
        let (staged, k) = match self.staged("Transfers") {
            Ok(staged) => staged,
            Err(e) => return Some(e),
        };
        let form = GraphForm::Bounded(k);
        let names = NAMES.map(Into::into);
        let frozen = Store::new().register_view_graph("Transfers", names, &staged, form);
        frozen.err().map(|e| e.to_string())
    }

    /// The six view relations of `graph` over the oracle's rows, under
    /// [`NAMES`], and the identifier arity.
    fn staged(&self, graph: &str) -> Result<(Database, usize), String> {
        let catalog = &self.session.catalog;
        let rels = catalog
            .view_relations(graph, &self.db)
            .map_err(|e| e.to_string())?;
        let k = catalog.id_arity(graph).map_err(|e| e.to_string())?;
        let mut staged = Database::new();
        for (name, rel) in NAMES.into_iter().zip([
            rels.nodes,
            rels.edges,
            rels.src,
            rels.tgt,
            rels.labels,
            rels.props,
        ]) {
            staged.add_relation(name, rel);
        }
        Ok((staged, k))
    }

    /// The served rows of a `SELECT`, sorted.
    fn served(&mut self, stmt: &str) -> Vec<String> {
        let resp = self.response(stmt);
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
        let out = lower_query(&gq, &self.session.catalog).expect("the shapes lower");
        let (staged, k) = self.staged(&gq.graph).expect("stages");
        let q = Query::pattern_n(k, out, NAMES.map(Query::rel));
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
        self.assert_agrees_on(&SHAPES, context);
    }

    fn assert_agrees_on(&mut self, shapes: &[(&str, &str)], context: &str) {
        for &(name, body) in shapes {
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

        let nfa = twin.answer(&stmt("*"), EvalConfig::nfa());
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

/// A number from a seeded linear congruential generator.
fn next(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*state >> 33) as usize
}

/// A served write carries its row's delta over to the staged graph in
/// place: the store keeps the deleted transfer's view rows as
/// tombstones (a re-staged graph has none) until `COMPACT` drops them,
/// and no answer changes on the way.
#[test]
fn a_write_applies_its_delta_in_place() {
    let mut twin = Twin::load();
    let tombstones = |twin: &mut Twin| -> u64 {
        let resp = twin.response("STATS JSON");
        let line = resp
            .iter()
            .find(|l| l.contains("\"tombstone_rows\""))
            .unwrap_or_else(|| panic!("no tombstone_rows in {resp:?}"));
        let digits: String = line.chars().filter(char::is_ascii_digit).collect();
        digits.parse().expect("a count")
    };
    assert_eq!(tombstones(&mut twin), 0, "freshly staged");
    let before: Vec<_> = SHAPES
        .iter()
        .map(|(_, b)| twin.served(&select(b)))
        .collect();
    let row = format!(
        "Transfer VALUES ({TRANSFERS}, '{}', '{}', 1700000000, 500)",
        iban(3),
        iban(4)
    );
    twin.write(&format!("INSERT INTO {row}"));
    twin.write(&format!("DELETE FROM {row}"));
    assert!(tombstones(&mut twin) > 0, "the delete tombstoned view rows");
    let compacted = twin.response("COMPACT").join("\n");
    assert!(
        !compacted.contains("dropped 0 tombstoned") && compacted.contains("tombstoned row(s)"),
        "{compacted}"
    );
    assert_eq!(tombstones(&mut twin), 0, "COMPACT dropped them");
    let after: Vec<_> = SHAPES
        .iter()
        .map(|(_, b)| twin.served(&select(b)))
        .collect();
    assert_eq!(before, after);
    twin.assert_agrees("compacted");
}

/// 240 seeded writes over both tables — transfer inserts and deletes,
/// dangling endpoints, transfers that reuse an identifier, account
/// deletes with and without incident edges, repairs, no-op writes, and
/// account rows that differ only in a column that is neither key nor
/// property, so two rows yield one node. After every write each served
/// shape, and the labelled nodes, answer as Figure 2 over the oracle's
/// own rows, or, while those rows are no valid view, with the strict
/// `pgView` error the write's note announced.
#[test]
fn write_sequences_match_the_reference() {
    /// Accounts; transfers stay among the first eight, so two nodes
    /// never have edges.
    const IBANS: usize = 10;
    const LINKED: usize = 8;
    let mut shapes = SHAPES.to_vec();
    shapes.push(("nodes", "MATCH (x:Account) RETURN (x.iban)"));
    let mut twin = Twin::empty();
    let mut stmts = vec![
        "CREATE TABLE Account (iban, branch)".to_string(),
        DDL[1].to_string(),
    ];
    stmts.extend((0..IBANS).map(|i| format!("INSERT INTO Account VALUES ('{}', 0)", iban(i))));
    stmts.extend((0..2 * LINKED).map(|j| transfer(j, LINKED)));
    stmts.push(DDL[2].to_string());
    for stmt in &stmts {
        twin.write(stmt);
    }
    assert_eq!(twin.view_error(), None, "the loaded rows are a view");
    let rows_of = |twin: &Twin, table: &str| -> Vec<Tuple> {
        let rel = twin.db.get(&table.into()).expect("loaded");
        rel.iter().cloned().collect()
    };
    let values = |t: &Tuple| format!("VALUES {}", t.to_string().replace('"', "'"));
    let transfer_row = |j: usize, s: &str, t: &str, amount: usize| {
        format!(
            "VALUES ({j}, '{s}', '{t}', {}, {amount})",
            1_600_000_000 + j
        )
    };

    let mut seed = 0x5eed_u64;
    let mut undo: Vec<String> = Vec::new();
    let mut kinds = [0usize; 8];
    let (mut repairing, mut invalid) = (false, 0);
    let mut fresh = 1_000;
    for step in 0..240 {
        let transfers = rows_of(&twin, "Transfer");
        let accounts = rows_of(&twin, "Account");
        let mut pick = |n: usize| next(&mut seed) % n;
        let kind = if repairing { 7 } else { pick(8) };
        fresh += 1;
        let write = match kind {
            // A transfer between existing accounts, or the delete of one.
            0 | 1 => {
                let (s, t) = (iban(pick(LINKED)), iban(pick(LINKED)));
                let amount = 1000 + pick(9000);
                format!(
                    "INSERT INTO Transfer {}",
                    transfer_row(fresh, &s, &t, amount)
                )
            }
            2 => format!(
                "DELETE FROM Transfer {}",
                values(&transfers[pick(transfers.len())])
            ),
            // A dangling endpoint, or a second transfer under a live
            // identifier.
            3 => {
                let j = match pick(2) {
                    0 => fresh,
                    _ => transfers[pick(transfers.len())][0]
                        .to_string()
                        .parse()
                        .expect("id"),
                };
                format!(
                    "INSERT INTO Transfer {}",
                    transfer_row(j, &iban(0), "ZZ99", 4242)
                )
            }
            // An account whose node may still have incident edges.
            4 => format!(
                "DELETE FROM Account {}",
                values(&accounts[pick(accounts.len())])
            ),
            // A second row of an existing node, or the delete of one of
            // two rows that yield the same node.
            5 => {
                let key = Value::str(iban(pick(IBANS)));
                let rows: Vec<_> = accounts.iter().filter(|a| a[0] == key).collect();
                match rows.as_slice() {
                    [_, .., last] => format!("DELETE FROM Account {}", values(last)),
                    _ => format!("INSERT INTO Account VALUES ({key}, {})", 1 + pick(3))
                        .replace('"', "'"),
                }
            }
            // No-op writes: a row that is there already, one that is not.
            6 => match pick(2) {
                0 => format!("INSERT INTO Account {}", values(&accounts[0])),
                _ => format!(
                    "DELETE FROM Transfer {}",
                    transfer_row(0, "none", "none", 0)
                ),
            },
            // A repair: undo writes until the rows are a view again.
            _ => match undo.pop() {
                Some(inverse) => inverse,
                None => {
                    repairing = false;
                    continue;
                }
            },
        };
        kinds[kind] += 1;
        let (note, changed) = twin.write(&write);
        let context = format!("write {step}: {write} → {note}");
        assert_eq!(note.contains("(no-op)"), !changed, "{context}");
        if changed && kind != 7 {
            undo.push(match write.strip_prefix("INSERT INTO ") {
                Some(rest) => format!("DELETE FROM {rest}"),
                None => write.replacen("DELETE FROM ", "INSERT INTO ", 1),
            });
        }
        let error = twin.view_error();
        repairing = (repairing || kind == 7) && error.is_some();
        let Some(e) = error else {
            assert!(!note.contains("unstaged"), "{context}");
            twin.assert_agrees_on(&shapes, &context);
            continue;
        };
        invalid += 1;
        assert!(
            note.ends_with(&format!("; graph Transfers unstaged: {e}")),
            "{context}"
        );
        for &(name, body) in &shapes {
            assert_eq!(
                twin.response(&select(body)),
                [format!("!! {e}")],
                "{context}: {name}"
            );
        }
    }
    assert!(
        kinds.iter().all(|&n| n >= 10),
        "every kind of write: {kinds:?}"
    );
    assert!((20..200).contains(&invalid), "{invalid} invalid states");
}

/// A long chain compiles onto the served graph like every other call:
/// a 17-hop chain, 34 relation scans, reads the six view relations
/// through the snapshot (a query carries only their schema), builds no
/// view, and after a delta write answers as Figure 2 does.
#[test]
fn a_long_chain_compiles_onto_the_store() {
    let mut twin = Twin::sized(8, 8);
    twin.write(&format!(
        "INSERT INTO Transfer VALUES (8, '{}', '{}', 1700000000, 500)",
        iban(3),
        iban(6)
    ));
    let hops: String = (1..=17).map(|i| format!(" -[e{i}]-> (v{i})")).collect();
    let stmt = select(&format!("MATCH (v0){hops} RETURN (v0.iban, v17.iban)"));
    let plan = twin.explain(&stmt);
    assert!(plan.contains("[route: compiled plan]"), "{plan}");
    let before = twin.view_builds();
    let served = twin.served(&stmt);
    assert_eq!(twin.view_builds() - before, 0, "no view build");
    assert!(!served.is_empty());
    assert_eq!(served, twin.reference(&stmt));
}

/// A 4 096-hop `MATCH` — a 37 kB statement, under the protocol's line
/// limit — answers on a thread with the 2 MiB stack a server connection
/// runs on, as the NFA does: the parser balances the chain, so every
/// pass over the pattern and its plan recurses as deep as the chain's
/// logarithm, not its length.
#[test]
fn a_4096_hop_statement_answers_on_a_server_thread() {
    let thread = std::thread::Builder::new().stack_size(2 << 20);
    let answered = thread.spawn(|| {
        let mut twin = Twin::sized(8, 8);
        let hops = " -[]-> ()".repeat(4095);
        let stmt = select(&format!(
            "MATCH (x){hops} -[]-> (y) RETURN (x.iban, y.iban)"
        ));
        assert!(stmt.len() < pgq_server::MAX_LINE, "{}", stmt.len());
        let before = twin.view_builds();
        let served = twin.served(&stmt);
        assert_eq!(twin.view_builds() - before, 0, "no view build");
        assert_eq!(served, sorted(&twin.answer(&stmt, EvalConfig::nfa())));
        served.len()
    });
    let rows = answered.unwrap().join().expect("no stack overflow");
    assert!(rows > 0, "the ring of eight closes walks of every length");
}

/// Disjunctions and negations compile to one join per property they
/// read, not to a copy of the edge plan per operand: thirty `OR`
/// conjuncts on the edge — which would copy it 2³⁰ times — and a chain
/// of 3 000 disjuncts, a 58 kB statement the parser nests as deep as its
/// logarithm, answer on a 2 MiB server thread, in bounded time, as
/// Figure 2 does.
#[test]
fn long_disjunctions_answer_on_a_server_thread() {
    let thread = std::thread::Builder::new().stack_size(2 << 20);
    let answered = thread.spawn(|| {
        let mut twin = Twin::load();
        let conjuncts: Vec<String> = (0..30)
            .map(|i| format!("(t.amount > {} OR NOT t.amount > {})", 9000 - i, 2000 + i))
            .collect();
        // The plan grows with the conjuncts, not with 2^conjuncts.
        let twelve = conjuncts[..12].join(" AND ");
        let plan = twin.explain(&select(&format!(
            "MATCH (x) -[t]-> (y) WHERE {twelve} RETURN (x.iban, y.iban)"
        )));
        assert!(plan.lines().count() < 400, "{plan}");
        let chain: Vec<String> = (0..3000)
            .map(|i| format!("t.amount = {}", 1000 + 3 * i))
            .collect();
        for cond in [conjuncts.join(" AND "), chain.join(" OR ")] {
            let stmt = select(&format!(
                "MATCH (x) -[t]-> (y) WHERE {cond} RETURN (x.iban, y.iban)"
            ));
            assert!(stmt.len() < pgq_server::MAX_LINE, "{}", stmt.len());
            let start = Instant::now();
            let served = twin.served(&stmt);
            let elapsed = start.elapsed();
            assert!(elapsed < Duration::from_secs(30), "{elapsed:?}");
            assert!(!served.is_empty());
            assert_eq!(served, twin.reference(&stmt));
        }
    });
    answered.unwrap().join().expect("no stack overflow");
}
