//! Million-scale seeded graph generators in bulk layout (PR 9).
//!
//! Both generators emit a [`BulkGraph`] — flat identifier vectors plus
//! index-typed edges — so `Store::bulk_load` can go straight to the
//! store's physical layout without materializing a row set first (the
//! register-route comparator is one [`BulkGraph::to_database`] call
//! away). Everything is seed-deterministic: the same `(size, seed)`
//! yields byte-identical output.
//!
//! * [`power_law_graph`] — preferential attachment (Barabási–Albert
//!   flavored): each new node attaches `edges_per_node` out-edges,
//!   picking targets from an endpoint pool so high-degree nodes keep
//!   attracting more — the heavy-tailed degree shape real graph
//!   workloads stress CSR construction with;
//! * [`ldbc_transfers`] — an LDBC-FinBench-style transfer network:
//!   IBAN-identified accounts (with an `isBlocked` property) and
//!   `Transfer`-labeled edges carrying an `amount` property, the
//!   million-row version of the paper's running example.

use pgq_store::BulkGraph;
use pgq_value::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A preferential-attachment graph: `nodes` nodes named `u0..`, and
/// `edges_per_node` out-edges per node (node 0 seeds the pool), each
/// labeled `Knows`. Targets are drawn from an endpoint pool — every
/// attached endpoint re-enters the pool, so attachment probability
/// tracks degree and the degree distribution comes out heavy-tailed —
/// with a 25% uniform-random escape so late nodes stay reachable.
pub fn power_law_graph(nodes: usize, edges_per_node: usize, seed: u64) -> BulkGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = BulkGraph::new();
    for i in 0..nodes {
        g.add_node(Value::str(format!("u{i}")));
    }
    let mut pool: Vec<u32> = Vec::with_capacity(2 * nodes.saturating_sub(1) * edges_per_node);
    let mut eid: i64 = 0;
    for v in 1..nodes {
        for _ in 0..edges_per_node {
            let t = if pool.is_empty() || rng.random_bool(0.25) {
                rng.random_range(0..v) as u32
            } else {
                pool[rng.random_range(0..pool.len())]
            };
            let e = g.add_edge(Value::int(eid), v as u32, t);
            g.labels.push((e, Value::str("Knows")));
            pool.push(v as u32);
            pool.push(t);
            eid += 1;
        }
    }
    g
}

/// An LDBC-style transfer network: `accounts` nodes identified by
/// 10-digit IBAN strings, each carrying an `isBlocked` property (every
/// 97th account is blocked), and `transfers_per_account` outgoing
/// `Transfer` edges per account with a uniform `amount` in `1..10_000`.
pub fn ldbc_transfers(accounts: usize, transfers_per_account: usize, seed: u64) -> BulkGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = BulkGraph::new();
    for i in 0..accounts {
        let a = g.add_node(Value::str(format!("IBAN{i:010}")));
        g.node_props
            .push((a, Value::str("isBlocked"), Value::bool(i % 97 == 0)));
    }
    let mut eid: i64 = 0;
    for s in 0..accounts {
        for _ in 0..transfers_per_account {
            let t = rng.random_range(0..accounts) as u32;
            let e = g.add_edge(Value::int(eid), s as u32, t);
            g.labels.push((e, Value::str("Transfer")));
            g.edge_props.push((
                e,
                Value::str("amount"),
                Value::int(rng.random_range(1..10_000i64)),
            ));
            eid += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        let a = power_law_graph(200, 3, 7);
        let b = power_law_graph(200, 3, 7);
        assert_eq!(a.src, b.src);
        assert_eq!(a.tgt, b.tgt);
        assert_ne!(power_law_graph(200, 3, 8).tgt, a.tgt);

        let x = ldbc_transfers(100, 4, 7);
        let y = ldbc_transfers(100, 4, 7);
        assert_eq!(x.tgt, y.tgt);
        assert_eq!(x.edge_props, y.edge_props);
    }

    #[test]
    fn shapes_match_the_advertised_sizes() {
        let g = power_law_graph(100, 5, 1);
        assert_eq!(g.nodes.len(), 100);
        assert_eq!(g.edges.len(), 99 * 5);
        assert_eq!(g.labels.len(), g.edges.len());
        assert!(g.src.iter().chain(&g.tgt).all(|&i| i < 100));

        let t = ldbc_transfers(50, 2, 1);
        assert_eq!(t.nodes.len(), 50);
        assert_eq!(t.edges.len(), 100);
        assert_eq!(t.node_props.len(), 50);
        assert_eq!(t.edge_props.len(), 100);
    }

    #[test]
    fn preferential_attachment_skews_degrees() {
        // The endpoint pool should concentrate in-degree: the busiest
        // target must collect several times the uniform expectation.
        let g = power_law_graph(500, 4, 3);
        let mut indeg = vec![0usize; 500];
        for &t in &g.tgt {
            indeg[t as usize] += 1;
        }
        let max = indeg.iter().max().copied().unwrap_or(0);
        let uniform = g.edges.len() / 500;
        assert!(max >= 4 * uniform, "max {max} vs uniform {uniform}");
    }
}
