//! Served answers against an independent oracle. The served read
//! shapes (one hop, the `{2,2}` two-hop, the filtered and the bare
//! closure) and the audit statement run through `Engine::statement`;
//! their rows must equal Figure 2's reference evaluator
//! (`EvalConfig::reference()`) over the same view relations, which the
//! oracle stages itself from its own copy of the rows through the
//! parser's catalog. The comparison holds on the loaded graph, after an
//! `INSERT` and after the matching `DELETE`.
//!
//! The same graph pins which shapes still build a view graph per
//! statement: `view_builds` on `METRICS JSON;`.

use pgq_core::{eval_with, EvalConfig, Query};
use pgq_parser::{lower_query, parse_command, Command, Session, Statement};
use pgq_relational::Database;
use pgq_server::{Engine, SessionState};
use pgq_value::Tuple;

const ACCOUNTS: usize = 40;
const TRANSFERS: usize = 160;

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

/// Transfer `j`: a ring edge or a seeded one inside a community of
/// eight, amounts spread over `1000..10000`.
fn transfer(j: usize) -> String {
    let s = j % ACCOUNTS;
    let lo = s / 8 * 8;
    let t = if j < ACCOUNTS {
        lo + (s - lo + 1) % 8
    } else {
        lo + (j * 7 + j / 8) % 8
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
        let mut twin = Twin {
            engine: Engine::new(),
            conn: SessionState::default(),
            session: Session::new(),
            db: Database::new(),
        };
        let accounts = (0..ACCOUNTS).map(|i| format!("INSERT INTO Account VALUES ('{}')", iban(i)));
        let stmts: Vec<String> = DDL[..2]
            .iter()
            .map(|s| s.to_string())
            .chain(accounts)
            .chain((0..TRANSFERS).map(transfer))
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
        let rel = eval_with(&q, &staged, EvalConfig::reference()).expect("evaluates");
        let mut rows: Vec<String> = rel.iter().map(Tuple::to_string).collect();
        rows.sort();
        rows
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

/// The repetition-free shapes compile onto the store and build no view
/// graph; the filtered closure still builds one per statement, and the
/// bare closure reads the frozen CSR.
#[test]
fn only_the_filtered_closure_builds_a_view() {
    let mut twin = Twin::load();
    for (name, builds) in [
        ("one_hop", 0),
        ("two_hop", 0),
        ("plus_filtered", 1),
        ("plus_all", 0),
        ("audit", 0),
    ] {
        let body = SHAPES.iter().find(|(n, _)| *n == name).expect("a shape").1;
        let before = twin.view_builds();
        twin.served(&select(body));
        assert_eq!(twin.view_builds() - before, builds, "{name}");
    }
}
