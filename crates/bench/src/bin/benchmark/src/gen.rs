//! Seeded input generators. `--seed` is the only input of a run: the
//! program under test receives nothing but the statements and
//! structures built here, and the same seed yields byte-identical
//! streams (`--selfcheck` and the unit tests hold that).
//!
//! One graph family serves every workload — the *community transfers*
//! graph: accounts grouped into fixed-size communities, every transfer
//! staying inside its community. The transitive closure is therefore
//! bounded by `accounts × community` rows instead of `accounts²`, which
//! keeps `->+` answers (and the oracles that check them) linear in the
//! graph. Each community carries a ring (`account → next account`), so
//! it is strongly connected and closure sizes do not depend on the seed;
//! amounts are a seeded permutation of evenly spaced values, so every
//! `amount > c` filter has the same selectivity at every seed. Both
//! choices exist to make run-to-run spread reflect the program, not the
//! instance.

use pgq_graph::Update;
use pgq_store::BulkGraph;
use pgq_value::{Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// SplitMix64 — local so no generator outside this directory can change
/// the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`: distinct streams of one seed are
    /// independent, so adding a consumer never shifts another's draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is < 2⁻⁴⁰ at the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over everything a generator emits — the stream identity the
/// record prints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn of(s: &str) -> u64 {
        let mut h = Fnv::default();
        h.bytes(s.as_bytes());
        h.0
    }
}

pub const GRAPH: &str = "Transfers";

/// The schema: two tables, then the graph over them.
pub const DDL: [&str; 3] = [
    "CREATE TABLE Account (iban)",
    "CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount)",
    "CREATE PROPERTY GRAPH Transfers ( \
     NODES TABLE Account KEY (iban) LABEL Account, \
     EDGES TABLE Transfer KEY (t_id) \
       SOURCE KEY src_iban REFERENCES Account \
       TARGET KEY tgt_iban REFERENCES Account \
       LABELS Transfer PROPERTIES (ts, amount))",
];

/// Request lines stay well under the server's 64 KiB line bound.
const LINE_BUDGET: usize = 48 * 1024;

/// The community transfers graph in index form; [`Transfers::load_lines`]
/// and [`Transfers::bulk`] render it for the two routes.
#[derive(Debug, Clone)]
pub struct Transfers {
    pub accounts: usize,
    pub community: usize,
    pub src: Vec<u32>,
    pub tgt: Vec<u32>,
    pub amount: Vec<i64>,
    pub ts: Vec<i64>,
}

pub fn iban(i: usize) -> String {
    format!("AC{i:08}")
}

impl Transfers {
    /// `accounts` accounts in communities of `community`, each sending
    /// `per_account` transfers inside its community: the first to its
    /// ring successor, the rest to seeded random members.
    pub fn generate(accounts: usize, community: usize, per_account: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let m = accounts * per_account;
        let (mut src, mut tgt) = (Vec::with_capacity(m), Vec::with_capacity(m));
        for s in 0..accounts {
            let lo = s / community * community;
            let size = community.min(accounts - lo);
            for j in 0..per_account {
                let off = if j == 0 {
                    (s - lo + 1) % size
                } else {
                    rng.below(size)
                };
                src.push(s as u32);
                tgt.push((lo + off) as u32);
            }
        }
        // Evenly spaced amounts in 1000..10000, shuffled: the share of
        // transfers above any threshold is the same at every seed.
        let mut amount: Vec<i64> = (0..m)
            .map(|j| 1000 + (j * 9000 / m.max(1)) as i64)
            .collect();
        for j in (1..m).rev() {
            amount.swap(j, rng.below(j + 1));
        }
        let ts = (0..m)
            .map(|j| 1_600_000_000 + 60 * j as i64 + rng.below(60) as i64)
            .collect();
        Transfers {
            accounts,
            community,
            src,
            tgt,
            amount,
            ts,
        }
    }

    pub fn edges(&self) -> usize {
        self.src.len()
    }

    /// Members of the community `account` belongs to.
    pub fn community_size(&self, account: usize) -> usize {
        let lo = account / self.community * self.community;
        self.community.min(self.accounts - lo)
    }

    pub fn row(&self, j: usize) -> TransferRow {
        TransferRow {
            t_id: j as i64,
            src: self.src[j] as usize,
            tgt: self.tgt[j] as usize,
            ts: self.ts[j],
            amount: self.amount[j],
        }
    }

    /// The protocol form: tables filled **before** the graph is defined,
    /// so the server stages the view once. Each inner vector is one
    /// request line (`;`-joined on the wire, fed one by one to an
    /// in-process engine).
    pub fn load_lines(&self) -> Vec<Vec<String>> {
        let mut lines = vec![vec![DDL[0].to_string(), DDL[1].to_string()]];
        let inserts = (0..self.accounts)
            .map(|i| format!("INSERT INTO Account VALUES ('{}')", iban(i)))
            .chain((0..self.edges()).map(|j| self.row(j).stmt(true)));
        let (mut line, mut bytes) = (Vec::new(), 0);
        for stmt in inserts {
            if bytes + stmt.len() > LINE_BUDGET {
                lines.push(std::mem::take(&mut line));
                bytes = 0;
            }
            bytes += stmt.len() + 2;
            line.push(stmt);
        }
        lines.push(line);
        lines.push(vec![DDL[2].to_string()]);
        lines
    }

    /// The library form: the same accounts and transfers as a
    /// [`BulkGraph`] with `isBlocked` on accounts and `amount` on
    /// transfers.
    pub fn bulk(&self) -> BulkGraph {
        let mut g = BulkGraph::new();
        for i in 0..self.accounts {
            let a = g.add_node(Value::str(iban(i)));
            g.node_props
                .push((a, Value::str("isBlocked"), Value::bool(i % 97 == 0)));
        }
        for j in 0..self.edges() {
            let e = g.add_edge(Value::int(j as i64), self.src[j], self.tgt[j]);
            g.labels.push((e, Value::str("Transfer")));
            g.edge_props
                .push((e, Value::str("amount"), Value::int(self.amount[j])));
        }
        g
    }

    /// Distinct senders into each account — what the generator, not the
    /// program, says a one-hop-into-account query must return.
    pub fn senders(&self) -> Vec<BTreeSet<u32>> {
        let mut into = vec![BTreeSet::new(); self.accounts];
        for (s, t) in self.src.iter().zip(&self.tgt) {
            into[*t as usize].insert(*s);
        }
        into
    }

    /// Distinct `(src, tgt)` pairs: the endpoint join's row count.
    pub fn distinct_pairs(&self) -> usize {
        let pairs: BTreeSet<(u32, u32)> = self
            .src
            .iter()
            .copied()
            .zip(self.tgt.iter().copied())
            .collect();
        pairs.len()
    }

    /// FNV of the whole graph — the identity of a generated instance.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.accounts as u64);
        for j in 0..self.edges() {
            h.u64(u64::from(self.src[j]) << 32 | u64::from(self.tgt[j]));
            h.u64(self.amount[j] as u64);
            h.u64(self.ts[j] as u64);
        }
        h.0
    }
}

/// One row of the `Transfer` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferRow {
    pub t_id: i64,
    pub src: usize,
    pub tgt: usize,
    pub ts: i64,
    pub amount: i64,
}

impl TransferRow {
    pub fn stmt(&self, insert: bool) -> String {
        format!(
            "{} Transfer VALUES ({}, '{}', '{}', {}, {})",
            if insert { "INSERT INTO" } else { "DELETE FROM" },
            self.t_id,
            iban(self.src),
            iban(self.tgt),
            self.ts,
            self.amount
        )
    }

    pub fn tuple(&self) -> Tuple {
        Tuple::new(vec![
            Value::int(self.t_id),
            Value::str(iban(self.src)),
            Value::str(iban(self.tgt)),
            Value::int(self.ts),
            Value::int(self.amount),
        ])
    }
}

/// The four read shapes of `serve_*`. `plus_filtered` is the heavy
/// class: a closure over half the transfers, the costliest statement.
pub const SHAPES: [&str; 4] = ["one_hop", "two_hop", "plus_filtered", "plus_all"];
pub const HEAVY_SHAPE: usize = 2;

/// The read cycle: of ten reads five are `one_hop`, two `two_hop`, two
/// `plus_all` and one `plus_filtered`. The shapes' latencies form
/// clusters, and a percentile that falls on the boundary between two
/// clusters — or far out in one's tail — flips or wanders from run to
/// run. With these shares the cheap `plus_all` fills the lowest fifth,
/// the median read lies inside the `one_hop` cluster, and the dearest
/// tenth is `plus_filtered`, so the 95th percentile is that cluster's
/// median.
const CYCLE: [usize; 10] = [0, 1, 0, 3, 0, 2, 0, 1, 0, 3];

pub fn shape_stmt(shape: usize) -> String {
    let body = match shape {
        0 => "MATCH (x) -[t:Transfer]-> (y) WHERE t.amount > 9000",
        1 => "MATCH (x) -[t:Transfer]->{2,2} (y) WHERE t.amount > 7000",
        2 => "MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 5000",
        _ => "MATCH (x) -[t]->+ (y)",
    };
    format!("SELECT * FROM GRAPH_TABLE ({GRAPH} {body} RETURN (x.iban, y.iban))")
}

/// Lists exactly the transfers the write stream inserted (their amounts
/// lie below every generated one): the final-state audit.
pub fn audit_stmt() -> String {
    format!(
        "SELECT * FROM GRAPH_TABLE ({GRAPH} MATCH (x) -[t:Transfer]-> (y) \
         WHERE t.amount < 1000 RETURN (x.iban, y.iban, t.ts, t.amount))"
    )
}

/// One request of a `serve_*` client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOp {
    Read(usize),
    Write { insert: bool, row: TransferRow },
}

impl ServeOp {
    pub fn stmt(&self) -> String {
        match self {
            ServeOp::Read(shape) => shape_stmt(*shape),
            ServeOp::Write { insert, row } => row.stmt(*insert),
        }
    }
}

/// The closed-loop request stream of one `serve_*` client: the read
/// cycle, and when `writes` is set every 4th request a write — `INSERT`
/// of a client-unique transfer, then the `DELETE` of that same row — so
/// writes of different clients commute and the graph's size stays put.
/// A written transfer repeats the endpoints of a seeded existing one
/// with an amount below every read filter, so it changes no read
/// answer: each response has exactly one correct value whatever the
/// interleaving, and every one of them is checked.
#[derive(Debug, Clone)]
pub struct ServeStream {
    client: usize,
    writes: bool,
    rng: Rng,
    /// Seeded position in the read cycle this client starts from.
    phase: usize,
    next: usize,
    pending: Option<TransferRow>,
}

impl ServeStream {
    pub fn new(seed: u64, client: usize, writes: bool) -> Self {
        let mut rng = Rng::new(seed, 100 + client as u64);
        ServeStream {
            client,
            writes,
            phase: rng.below(CYCLE.len()),
            rng,
            next: 0,
            pending: None,
        }
    }

    /// The row inserted but not yet deleted.
    pub fn outstanding(&self) -> Option<&TransferRow> {
        self.pending.as_ref()
    }

    pub fn next_op(&mut self, g: &Transfers) -> ServeOp {
        let i = self.next;
        self.next += 1;
        if self.writes && i % 4 == 3 {
            if let Some(row) = self.pending.take() {
                return ServeOp::Write { insert: false, row };
            }
            let like = self.rng.below(g.edges());
            let row = TransferRow {
                t_id: 1_000_000_000 * (self.client as i64 + 1) + i as i64,
                src: g.src[like] as usize,
                tgt: g.tgt[like] as usize,
                ts: i as i64,
                amount: 1 + self.rng.below(999) as i64,
            };
            self.pending = Some(row.clone());
            return ServeOp::Write { insert: true, row };
        }
        let reads_so_far = if self.writes { i - i / 4 } else { i };
        ServeOp::Read(CYCLE[(reads_so_far + self.phase) % CYCLE.len()])
    }
}

/// FNV of the first `ops` requests of `clients` streams — the identity
/// of a `serve_*` run's operation stream.
pub fn serve_stream_hash(
    g: &Transfers,
    seed: u64,
    clients: usize,
    writes: bool,
    ops: usize,
) -> u64 {
    let mut h = Fnv::default();
    for c in 0..clients {
        let mut s = ServeStream::new(seed, c, writes);
        for _ in 0..ops {
            h.bytes(s.next_op(g).stmt().as_bytes());
        }
    }
    h.0
}

/// Transfers added per `embed_churn` batch: 16 × (`AddEdge` +
/// `AddLabel` + `SetProp`), plus 16 × `RemoveEdge` from the third round
/// on.
pub const BATCH_EDGES: usize = 16;

/// The `embed_churn` write stream and the generator's own model of the
/// graph it leaves behind. Every round adds [`BATCH_EDGES`] transfers
/// (each repeating the endpoints of a seeded existing one) and removes
/// the transfers added two rounds earlier, so every batch does the same
/// work and the graph stays the size it was loaded at: a run measures
/// the same thing however many rounds fit into it. (Removing on odd
/// rounds only — the first design — made write latency two-peaked with
/// the median on the boundary, and let the graph grow with the round
/// count.) The model tracks distinct senders per account — the expected
/// row count of every one-hop read — without asking the store.
#[derive(Debug, Clone)]
pub struct Churn {
    rng: Rng,
    next_id: i64,
    recent: VecDeque<Vec<i64>>,
    added: BTreeMap<i64, (u32, u32, i64)>,
    pairs: HashMap<(u32, u32), u32>,
    senders: Vec<u32>,
}

fn edge_id(id: i64) -> Tuple {
    Tuple::unary(Value::int(id))
}

fn node_id(account: usize) -> Tuple {
    Tuple::unary(Value::str(iban(account)))
}

impl Churn {
    pub fn new(g: &Transfers, seed: u64) -> Self {
        let mut c = Churn {
            rng: Rng::new(seed, 7),
            next_id: g.edges() as i64,
            recent: VecDeque::new(),
            added: BTreeMap::new(),
            pairs: HashMap::new(),
            senders: vec![0; g.accounts],
        };
        for (s, t) in g.src.iter().zip(&g.tgt) {
            c.count(*s, *t, true);
        }
        c
    }

    fn count(&mut self, s: u32, t: u32, add: bool) {
        let n = self.pairs.entry((s, t)).or_insert(0);
        if add {
            *n += 1;
            if *n == 1 {
                self.senders[t as usize] += 1;
            }
        } else {
            *n -= 1;
            if *n == 0 {
                self.senders[t as usize] -= 1;
            }
        }
    }

    pub fn next_batch(&mut self, g: &Transfers) -> Vec<Update> {
        let mut batch = Vec::with_capacity(4 * BATCH_EDGES);
        let mut ids = Vec::with_capacity(BATCH_EDGES);
        for _ in 0..BATCH_EDGES {
            let like = self.rng.below(g.edges());
            let (s, t) = (g.src[like], g.tgt[like]);
            let amount = 1 + self.rng.below(999) as i64;
            let id = self.next_id;
            self.next_id += 1;
            batch.push(Update::AddEdge {
                id: edge_id(id),
                src: node_id(s as usize),
                tgt: node_id(t as usize),
            });
            batch.push(Update::AddLabel(edge_id(id), Value::str("Transfer")));
            batch.push(Update::SetProp(
                edge_id(id),
                Value::str("amount"),
                Value::int(amount),
            ));
            self.added.insert(id, (s, t, amount));
            self.count(s, t, true);
            ids.push(id);
        }
        if self.recent.len() == 2 {
            for id in self.recent.pop_front().expect("two rounds on record") {
                let (s, t, _) = self.added.remove(&id).expect("added two rounds ago");
                self.count(s, t, false);
                batch.push(Update::RemoveEdge(edge_id(id)));
            }
        }
        self.recent.push_back(ids);
        batch
    }

    /// A seeded account to read.
    pub fn pick(&mut self, g: &Transfers) -> usize {
        self.rng.below(g.accounts)
    }

    /// Distinct senders into `account` in the current model state.
    pub fn senders_into(&self, account: usize) -> usize {
        self.senders[account] as usize
    }

    pub fn live_edges(&self, g: &Transfers) -> usize {
        g.edges() + self.added.len()
    }

    /// The model's final edge set as a fresh graph — what a from-scratch
    /// load of the churned state must equal.
    pub fn final_graph(&self, g: &Transfers) -> BulkGraph {
        let mut b = g.bulk();
        for (&id, &(s, t, amount)) in &self.added {
            let e = b.add_edge(Value::int(id), s, t);
            b.labels.push((e, Value::str("Transfer")));
            b.edge_props
                .push((e, Value::str("amount"), Value::int(amount)));
        }
        b
    }
}

/// FNV of the first `rounds` churn batches.
pub fn churn_stream_hash(g: &Transfers, seed: u64, rounds: usize) -> u64 {
    let mut h = Fnv::default();
    let mut c = Churn::new(g, seed);
    for _ in 0..rounds {
        h.bytes(format!("{:?}", c.next_batch(g)).as_bytes());
        h.u64(c.pick(g) as u64);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let (a, b, c) = (
            Transfers::generate(250, 16, 4, 1),
            Transfers::generate(250, 16, 4, 1),
            Transfers::generate(250, 16, 4, 2),
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.load_lines(), b.load_lines());
        assert_eq!(
            serve_stream_hash(&a, 1, 2, true, 200),
            serve_stream_hash(&b, 1, 2, true, 200)
        );
        assert_ne!(
            serve_stream_hash(&a, 1, 2, true, 200),
            serve_stream_hash(&a, 2, 2, true, 200)
        );
        assert_eq!(churn_stream_hash(&a, 1, 12), churn_stream_hash(&b, 1, 12));
        assert_ne!(churn_stream_hash(&a, 1, 12), churn_stream_hash(&a, 2, 12));
    }

    #[test]
    fn communities_are_closed_rings_with_even_amounts() {
        let g = Transfers::generate(250, 16, 4, 3);
        assert_eq!(g.edges(), 1000);
        for j in 0..g.edges() {
            assert_eq!(
                g.src[j] / 16,
                g.tgt[j] / 16,
                "transfer leaves its community"
            );
        }
        // The last community is the 10-account remainder.
        assert_eq!(g.community_size(249), 10);
        assert_eq!((g.src[4 * 249], g.tgt[4 * 249]), (249, 240));
        // Exactly a ninth of the amounts lies in each 1000-wide band.
        let above = |c: i64| g.amount.iter().filter(|&&a| a > c).count();
        assert_eq!(above(9000), 111);
        assert_eq!(above(5000), 555);
        assert!(g.amount.iter().all(|a| (1000..10_000).contains(a)));
        // Request lines respect the server's line bound.
        assert!(g
            .load_lines()
            .iter()
            .all(|l| l.join("; ").len() < 64 * 1024));
    }

    #[test]
    fn serve_stream_mixes_a_write_into_every_fourth_request() {
        let g = Transfers::generate(64, 16, 4, 1);
        let mut s = ServeStream::new(1, 0, true);
        let ops: Vec<ServeOp> = (0..16).map(|_| s.next_op(&g)).collect();
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(
                matches!(op, ServeOp::Write { .. }),
                i % 4 == 3,
                "request {i}"
            );
        }
        // INSERT then DELETE of the same row: nothing outstanding after
        // an even number of writes.
        let (
            ServeOp::Write {
                insert: true,
                row: a,
            },
            ServeOp::Write {
                insert: false,
                row: b,
            },
        ) = (&ops[3], &ops[7])
        else {
            panic!("writes alternate INSERT/DELETE: {:?} {:?}", ops[3], ops[7]);
        };
        assert_eq!(a, b);
        assert!(a.amount < 1000 && s.outstanding().is_none());
        let mut r = ServeStream::new(1, 1, false);
        assert!((0..20).all(|_| matches!(r.next_op(&g), ServeOp::Read(_))));
    }

    #[test]
    fn churn_model_tracks_the_live_edge_set() {
        let g = Transfers::generate(64, 32, 5, 1);
        let mut c = Churn::new(&g, 1);
        let base: usize = (0..64).map(|a| c.senders_into(a)).sum();
        assert_eq!(base, g.distinct_pairs());
        let sizes: Vec<usize> = (0..6).map(|_| c.next_batch(&g).len()).collect();
        // From the third round on, each also removes what the round
        // before last added: two rounds' additions stay live.
        assert_eq!(sizes, [48, 48, 64, 64, 64, 64]);
        assert_eq!(c.live_edges(&g), g.edges() + 2 * 16);
        assert_eq!(c.final_graph(&g).edges.len(), c.live_edges(&g));
        // Added transfers repeat existing endpoint pairs.
        let now: usize = (0..64).map(|a| c.senders_into(a)).sum();
        assert_eq!(now, base);
    }
}
