//! Cost-based planning over store statistics (PR 10; DESIGN.md §5).
//!
//! [`store_plan`] is a *fixed* rewrite pass: join
//! order is whatever lowering emitted, the hash-join build side is
//! hardwired, and adjacency expansion always consumes the join's left
//! input. This module is the estimate-driven replacement. It keeps the
//! same contract — **never changes the set of result rows**, pinned by
//! the planner differential properties in `tests/prop_engine.rs` /
//! `tests/prop_store.rs` — but picks the physical shape by predicted
//! cardinality:
//!
//! * [`Estimator`] annotates any [`PhysPlan`] node with an expected
//!   row count from a [`pgq_store::StoreStatistics`] snapshot
//!   (distinct-count selectivities, live-row leaf cardinalities,
//!   degree-histogram expansion factors — the standard
//!   System-R-style formulas, documented with their failure modes in
//!   DESIGN.md §5);
//! * [`cost_plan`] is the costed rewrite: multi-way join chains are
//!   flattened and re-ordered greedily by estimated intermediate
//!   cardinality, the smaller estimated side of every `HashJoin`
//!   builds, `AdjacencyExpand` direction (and which side gets to be
//!   the expanded edge relation) is chosen by forward-vs-reverse
//!   expected degree, and compensating projections restore the
//!   original column order so the rewrite is invisible to everything
//!   above it;
//! * [`annotate_estimates`] grafts the estimates onto an executed
//!   [`PlanMetrics`] tree so `EXPLAIN ANALYZE` shows `est=` next to
//!   the actual row counts — misestimates are an observability
//!   surface, not a silent regression.
//!
//! The rule-based pass stays available behind
//! [`PlannerChoice::Rule`] (`SET PLANNER rule;` in the shell/server)
//! as the escape hatch and the E20 ablation baseline.

use crate::metrics::PlanMetrics;
use crate::plan::PhysPlan;
use crate::planner::store_plan;
use pgq_relational::{CmpOp, Operand, RelName, RowCondition, Schema};
use pgq_store::{Store, StoreStatistics};

/// Which planning pass lowers optimized plans onto the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerChoice {
    /// The statistics-driven pass ([`cost_plan`]) — the default.
    #[default]
    Cost,
    /// The fixed rewrite pass ([`crate::store_plan`]) — the PR 4
    /// behavior, kept as the escape hatch and ablation baseline.
    Rule,
}

impl PlannerChoice {
    /// Lowercase keyword (`cost` / `rule`) — the `SET PLANNER` token.
    pub fn as_str(self) -> &'static str {
        match self {
            PlannerChoice::Cost => "cost",
            PlannerChoice::Rule => "rule",
        }
    }
}

impl std::fmt::Display for PlannerChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fallback cardinality for leaves the statistics don't cover.
const UNKNOWN_ROWS: f64 = 1_000.0;
/// Selectivity of a non-equality comparison (`<`, `≤`, …).
const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Selectivity of `≠` (almost everything survives).
const NE_SELECTIVITY: f64 = 0.9;
/// Growth factor a semi-naive fixpoint is assumed to add over its
/// base — reachability closures are the known failure mode of
/// single-pass estimation (DESIGN.md §5); the constant keeps them
/// comparable rather than precise.
const FIXPOINT_GROWTH: f64 = 8.0;

/// Cardinality estimation over a [`StoreStatistics`] snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'a> {
    stats: &'a StoreStatistics,
}

impl<'a> Estimator<'a> {
    /// An estimator reading the given statistics snapshot.
    pub fn new(stats: &'a StoreStatistics) -> Self {
        Estimator { stats }
    }

    /// Expected output rows of a plan node (≥ 0, finite).
    pub fn rows(&self, plan: &PhysPlan) -> f64 {
        match plan {
            PhysPlan::Scan(name) | PhysPlan::IndexScan(name) => self.relation_rows(name),
            PhysPlan::Values(b) => b.len() as f64,
            PhysPlan::AdomScan => self
                .stats
                .live_rows(&RelName::from(pgq_store::ADOM_REL))
                .map_or(self.stats.dictionary_codes as f64, |n| n as f64),
            PhysPlan::Filter { cond, input } => self.rows(input) * self.selectivity(cond, input),
            PhysPlan::Project { input, .. } => self.rows(input),
            PhysPlan::Distinct { input } => self.rows(input),
            PhysPlan::AdjacencyExpand {
                input,
                rel,
                reverse,
                ..
            } => {
                let fanout = self.stats.expected_degree(rel, *reverse).unwrap_or(1.0);
                self.rows(input) * fanout
            }
            PhysPlan::HashJoin { left, right, keys } => {
                let (l, r) = (self.rows(left), self.rows(right));
                if keys.is_empty() {
                    // All-columns intersection: bounded by either side.
                    return l.min(r);
                }
                self.join_rows(l, r, left, right, keys)
            }
            PhysPlan::Product { left, right } => self.rows(left) * self.rows(right),
            PhysPlan::Union { left, right } => self.rows(left) + self.rows(right),
            PhysPlan::Diff { left, .. } => self.rows(left),
            PhysPlan::Fixpoint { base, .. } => self.rows(base) * FIXPOINT_GROWTH,
        }
    }

    /// The standard equi-join formula: `|L|·|R| / ∏ max(d_L(i), d_R(j))`
    /// over the key pairs — each key's containment assumption divides
    /// by the larger distinct count.
    fn join_rows(
        &self,
        l: f64,
        r: f64,
        left: &PhysPlan,
        right: &PhysPlan,
        keys: &[(usize, usize)],
    ) -> f64 {
        let mut rows = l * r;
        for &(i, j) in keys {
            let d = self.distinct(left, i).max(self.distinct(right, j)).max(1.0);
            rows /= d;
        }
        rows
    }

    /// Distinct-value estimate for one output column of a subplan.
    /// Exact (modulo staleness) for stored relations; bounded by the
    /// subplan's row estimate everywhere else.
    pub fn distinct(&self, plan: &PhysPlan, col: usize) -> f64 {
        match plan {
            PhysPlan::Scan(name) | PhysPlan::IndexScan(name) => self
                .stats
                .distinct(name, col)
                .map_or_else(|| self.relation_rows(name), |d| d as f64),
            PhysPlan::Project { positions, input } => positions
                .get(col)
                .map_or_else(|| self.rows(plan), |&p| self.distinct(input, p)),
            PhysPlan::Filter { input, .. } => self.distinct(input, col).min(self.rows(plan)),
            PhysPlan::Distinct { input } => self.distinct(input, col),
            _ => self.rows(plan),
        }
    }

    /// Predicate selectivity against a concrete input subplan.
    pub fn selectivity(&self, cond: &RowCondition, input: &PhysPlan) -> f64 {
        let s = match cond {
            RowCondition::True => 1.0,
            RowCondition::And(a, b) => self.selectivity(a, input) * self.selectivity(b, input),
            RowCondition::Or(a, b) => {
                (self.selectivity(a, input) + self.selectivity(b, input)).min(1.0)
            }
            RowCondition::Not(inner) => 1.0 - self.selectivity(inner, input),
            RowCondition::Cmp(a, op, b) => self.cmp_selectivity(a, *op, b, input),
        };
        s.clamp(0.0, 1.0)
    }

    fn cmp_selectivity(&self, a: &Operand, op: CmpOp, b: &Operand, input: &PhysPlan) -> f64 {
        match (a, op, b) {
            // $i = const: one value out of the column's distinct set.
            (Operand::Col(i), CmpOp::Eq, Operand::Const(_))
            | (Operand::Const(_), CmpOp::Eq, Operand::Col(i)) => {
                1.0 / self.distinct(input, *i).max(1.0)
            }
            // $i = $j: the larger distinct count dominates.
            (Operand::Col(i), CmpOp::Eq, Operand::Col(j)) => {
                1.0 / self
                    .distinct(input, *i)
                    .max(self.distinct(input, *j))
                    .max(1.0)
            }
            (_, CmpOp::Ne, _) => NE_SELECTIVITY,
            (Operand::Const(_), CmpOp::Eq, Operand::Const(_)) => 1.0,
            _ => RANGE_SELECTIVITY,
        }
    }

    fn relation_rows(&self, name: &RelName) -> f64 {
        self.stats
            .live_rows(name)
            .map_or(UNKNOWN_ROWS, |n| n as f64)
    }
}

/// The costed lowering pass: [`crate::store_plan`]'s contract (apply
/// after [`crate::optimize_plan`]; result rows preserved exactly), but
/// every shape decision — join order, build side, expansion direction —
/// made from the store's [`StoreStatistics`]. Falls back to the rule
/// pass for any subtree whose arity cannot be derived under `schema`
/// (stale plans degrade, they never error here).
pub fn cost_plan(plan: PhysPlan, store: &Store, schema: &Schema) -> PhysPlan {
    let stats = store.statistics();
    let est = Estimator::new(&stats);
    rewrite(plan, store, schema, &est)
}

fn rewrite(plan: PhysPlan, store: &Store, schema: &Schema, est: &Estimator<'_>) -> PhysPlan {
    match plan {
        PhysPlan::Scan(name) if store.has_relation(&name) => PhysPlan::IndexScan(name),
        PhysPlan::AdomScan if store.has_relation(&pgq_store::ADOM_REL.into()) => {
            PhysPlan::IndexScan(pgq_store::ADOM_REL.into())
        }
        PhysPlan::Scan(_) | PhysPlan::IndexScan(_) | PhysPlan::Values(_) | PhysPlan::AdomScan => {
            plan
        }
        PhysPlan::Filter { cond, input } => PhysPlan::Filter {
            cond,
            input: Box::new(rewrite(*input, store, schema, est)),
        },
        PhysPlan::Project { positions, input } => PhysPlan::Project {
            positions,
            input: Box::new(rewrite(*input, store, schema, est)),
        },
        PhysPlan::AdjacencyExpand {
            input,
            key,
            rel,
            reverse,
        } => PhysPlan::AdjacencyExpand {
            input: Box::new(rewrite(*input, store, schema, est)),
            key,
            rel,
            reverse,
        },
        PhysPlan::HashJoin { left, right, keys } if !keys.is_empty() => {
            rewrite_join_chain(PhysPlan::HashJoin { left, right, keys }, store, schema, est)
        }
        PhysPlan::HashJoin { left, right, keys } => PhysPlan::HashJoin {
            left: Box::new(rewrite(*left, store, schema, est)),
            right: Box::new(rewrite(*right, store, schema, est)),
            keys,
        },
        PhysPlan::Product { left, right } => PhysPlan::Product {
            left: Box::new(rewrite(*left, store, schema, est)),
            right: Box::new(rewrite(*right, store, schema, est)),
        },
        PhysPlan::Union { left, right } => PhysPlan::Union {
            left: Box::new(rewrite(*left, store, schema, est)),
            right: Box::new(rewrite(*right, store, schema, est)),
        },
        PhysPlan::Diff { left, right } => PhysPlan::Diff {
            left: Box::new(rewrite(*left, store, schema, est)),
            right: Box::new(rewrite(*right, store, schema, est)),
        },
        PhysPlan::Distinct { input } => PhysPlan::Distinct {
            input: Box::new(rewrite(*input, store, schema, est)),
        },
        // The CSR reachability fast path keys on the exact
        // `join = [(1,0)], project = [0,3]` shape — recurse into the
        // children but never touch the fixpoint's own vectors.
        PhysPlan::Fixpoint {
            base,
            step,
            join,
            project,
        } => PhysPlan::Fixpoint {
            base: Box::new(rewrite(*base, store, schema, est)),
            step: Box::new(rewrite(*step, store, schema, est)),
            join,
            project,
        },
    }
}

/// One flattened join factor: the (already costed) subplan and its
/// output arity.
struct Factor {
    plan: PhysPlan,
    arity: usize,
    rows: f64,
}

/// Flattens a maximal tree of keyed hash joins into factors plus
/// global-column equality predicates, re-orders it greedily by
/// estimated intermediate cardinality, and rebuilds with per-join build
/// side / adjacency decisions. A compensating projection restores the
/// original (left-to-right) column order.
fn rewrite_join_chain(
    plan: PhysPlan,
    store: &Store,
    schema: &Schema,
    est: &Estimator<'_>,
) -> PhysPlan {
    let mut factors: Vec<Factor> = Vec::new();
    let mut preds: Vec<(usize, usize)> = Vec::new();
    if collect_factors(plan.clone(), store, schema, est, &mut factors, &mut preds).is_none() {
        // Arity underivable (stale plan): degrade to the rule pass.
        return store_plan(plan, store);
    }
    if factors.len() < 2 {
        return store_plan(plan, store);
    }
    build_ordered_join(factors, preds, store, est)
}

/// Recursively splits keyed hash joins into their factor subplans
/// (each costed through [`rewrite`]), rebasing join keys to global
/// column positions. Returns the subtree's output arity, or `None`
/// when an arity cannot be derived.
fn collect_factors(
    plan: PhysPlan,
    store: &Store,
    schema: &Schema,
    est: &Estimator<'_>,
    factors: &mut Vec<Factor>,
    preds: &mut Vec<(usize, usize)>,
) -> Option<usize> {
    if let PhysPlan::HashJoin { left, right, keys } = plan {
        if !keys.is_empty() {
            let base: usize = factors.iter().map(|f| f.arity).sum();
            let la = collect_factors(*left, store, schema, est, factors, preds)?;
            let ra = collect_factors(*right, store, schema, est, factors, preds)?;
            for (i, j) in keys {
                preds.push((base + i, base + la + j));
            }
            return Some(la + ra);
        }
        // Intersection joins are atomic factors.
        let plan = PhysPlan::HashJoin { left, right, keys };
        let arity = plan.arity(schema).ok()?;
        let plan = rewrite(plan, store, schema, est);
        let rows = est.rows(&plan);
        factors.push(Factor { plan, arity, rows });
        return Some(arity);
    }
    let arity = plan.arity(schema).ok()?;
    let plan = rewrite(plan, store, schema, est);
    let rows = est.rows(&plan);
    factors.push(Factor { plan, arity, rows });
    Some(arity)
}

/// Greedy join ordering: start from the smallest factor, repeatedly
/// join the connected factor minimizing the estimated result, apply
/// leftover same-side equalities as filters, and restore the original
/// column order with one projection.
fn build_ordered_join(
    factors: Vec<Factor>,
    mut preds: Vec<(usize, usize)>,
    store: &Store,
    est: &Estimator<'_>,
) -> PhysPlan {
    // Global column offset of each factor in the original order.
    let mut offsets = Vec::with_capacity(factors.len());
    let mut total = 0usize;
    for f in &factors {
        offsets.push(total);
        total += f.arity;
    }
    let mut remaining: Vec<(usize, Factor)> = factors.into_iter().enumerate().collect();

    // Seed with the smallest estimated factor; ties keep the original
    // (syntactic) order so an equal-cost rewrite never perturbs the
    // plan for nothing.
    let seed = remaining
        .iter()
        .enumerate()
        .min_by(|(_, (ia, a)), (_, (ib, b))| a.rows.total_cmp(&b.rows).then(ia.cmp(ib)))
        .map(|(slot, _)| slot)
        .expect("at least two factors");
    let (seed_idx, seed_factor) = remaining.swap_remove(seed);

    // `placed[g] = Some(p)`: original global column g sits at output
    // position p of the accumulated plan.
    let mut placed: Vec<Option<usize>> = vec![None; total];
    for c in 0..seed_factor.arity {
        placed[offsets[seed_idx] + c] = Some(c);
    }
    let mut acc = seed_factor.plan;
    let mut acc_rows = seed_factor.rows;
    let mut acc_arity = seed_factor.arity;

    // One greedy-step candidate: joining the factor at `slot` (original
    // position `idx`) via `keys`, retiring the predicate indexes in
    // `consumed`, for an estimated `rows` output.
    struct Candidate {
        slot: usize,
        keys: Vec<(usize, usize)>,
        consumed: Vec<usize>,
        rows: f64,
        idx: usize,
    }

    while !remaining.is_empty() {
        // Candidate keys per remaining factor: predicates with one end
        // placed and the other inside the candidate (tracked by index
        // so consumed predicates are retired exactly once).
        let mut best: Option<Candidate> = None;
        for (slot, (idx, f)) in remaining.iter().enumerate() {
            let mut keys: Vec<(usize, usize)> = Vec::new();
            let mut consumed: Vec<usize> = Vec::new();
            for (pi, &(a, b)) in preds.iter().enumerate() {
                let local = |g: usize| {
                    (g >= offsets[*idx] && g < offsets[*idx] + f.arity).then(|| g - offsets[*idx])
                };
                let key = match (placed[a], placed[b]) {
                    (Some(p), None) => local(b).map(|j| (p, j)),
                    (None, Some(p)) => local(a).map(|j| (p, j)),
                    _ => None,
                };
                if let Some(k) = key {
                    keys.push(k);
                    consumed.push(pi);
                }
            }
            let rows = if keys.is_empty() {
                acc_rows * f.rows * total as f64 // deprioritize products
            } else {
                let mut rows = acc_rows * f.rows;
                for &(_, j) in &keys {
                    rows /= est.distinct(&f.plan, j).max(1.0);
                }
                rows
            };
            // Strictly better wins; an estimate tie keeps the factor
            // that comes first in the original order.
            if best
                .as_ref()
                .is_none_or(|b| rows < b.rows || (rows == b.rows && *idx < b.idx))
            {
                best = Some(Candidate {
                    slot,
                    keys,
                    consumed,
                    rows,
                    idx: *idx,
                });
            }
        }
        let Candidate {
            slot,
            keys,
            consumed,
            rows,
            ..
        } = best.expect("non-empty remaining");
        let (idx, f) = remaining.swap_remove(slot);
        for &pi in consumed.iter().rev() {
            preds.remove(pi);
        }
        acc = if keys.is_empty() {
            PhysPlan::Product {
                left: Box::new(acc),
                right: Box::new(f.plan),
            }
        } else {
            join_with_choice(
                acc, acc_rows, acc_arity, f.plan, f.rows, f.arity, keys, store, est,
            )
        };
        for c in 0..f.arity {
            placed[offsets[idx] + c] = Some(acc_arity + c);
        }
        acc_arity += f.arity;
        acc_rows = rows.max(0.0);
        // Any predicate whose columns are now both inside the
        // accumulated plan (a cycle edge the join keys above could not
        // express) becomes a residual equality filter.
        let mut residual = Vec::new();
        preds.retain(|&(a, b)| match (placed[a], placed[b]) {
            (Some(pa), Some(pb)) => {
                residual.push((pa, pb));
                false
            }
            _ => true,
        });
        for (a, b) in residual {
            acc = acc.filter(RowCondition::col_eq(a, b));
            acc_rows /= 2.0;
        }
    }

    // Restore the original column order.
    let positions: Vec<usize> = (0..total)
        .map(|g| placed[g].expect("every column placed"))
        .collect();
    if positions.iter().enumerate().all(|(i, &p)| i == p) {
        acc
    } else {
        acc.project(positions)
    }
}

/// Builds one binary join `l ⋈ r` (output columns `l ++ r`), choosing
/// among: expanding `r` as an adjacency index over `l`'s rows,
/// expanding `l` as an adjacency index over `r`'s rows, and a hash
/// join with the smaller estimated side building. Compensating
/// projections keep the output order fixed at `l ++ r`.
#[allow(clippy::too_many_arguments)] // one decision point, all inputs load-bearing
fn join_with_choice(
    l: PhysPlan,
    l_rows: f64,
    l_arity: usize,
    r: PhysPlan,
    r_rows: f64,
    r_arity: usize,
    keys: Vec<(usize, usize)>,
    store: &Store,
    est: &Estimator<'_>,
) -> PhysPlan {
    if let [(i, j)] = keys.as_slice() {
        let expand_r = adjacency_target(&r, *j, store).map(|(name, reverse)| {
            let deg = est.stats.expected_degree(&name, reverse).unwrap_or(1.0);
            (name, reverse, l_rows * (1.0 + deg))
        });
        let expand_l = adjacency_target(&l, *i, store).map(|(name, reverse)| {
            let deg = est.stats.expected_degree(&name, reverse).unwrap_or(1.0);
            // Expanding the left side produces r ++ l and needs a
            // compensating projection that copies every output row
            // (≈ r_rows·deg) — charge it, so a near-tie in degree
            // never buys a strictly worse plan.
            (name, reverse, r_rows * (1.0 + 2.0 * deg))
        });
        let hash_cost = l_rows + r_rows;
        match (expand_r, expand_l) {
            (Some((name, reverse, cr)), Some((_, _, cl))) if cr <= cl && cr <= hash_cost => {
                return PhysPlan::AdjacencyExpand {
                    input: Box::new(l),
                    key: *i,
                    rel: name,
                    reverse,
                };
            }
            (Some((name, reverse, cr)), None) if cr <= hash_cost => {
                return PhysPlan::AdjacencyExpand {
                    input: Box::new(l),
                    key: *i,
                    rel: name,
                    reverse,
                };
            }
            (_, Some((name, reverse, cl))) if cl <= hash_cost => {
                // Expand the *left* edge relation over the right rows:
                // output is r ++ l, restored by a projection.
                let expanded = PhysPlan::AdjacencyExpand {
                    input: Box::new(r),
                    key: *j,
                    rel: name,
                    reverse,
                };
                let mut positions: Vec<usize> = (r_arity..r_arity + l_arity).collect();
                positions.extend(0..r_arity);
                return expanded.project(positions);
            }
            _ => {}
        }
    }
    // Hash join: the executor builds the right side — put the smaller
    // estimated side there.
    if l_rows < r_rows {
        let swapped: Vec<(usize, usize)> = keys.iter().map(|&(i, j)| (j, i)).collect();
        let mut positions: Vec<usize> = (r_arity..r_arity + l_arity).collect();
        positions.extend(0..r_arity);
        PhysPlan::HashJoin {
            left: Box::new(r),
            right: Box::new(l),
            keys: swapped,
        }
        .project(positions)
    } else {
        PhysPlan::HashJoin {
            left: Box::new(l),
            right: Box::new(r),
            keys,
        }
    }
}

/// When a factor is (a bare scan of) a CSR-indexed binary relation
/// joined on column `col`, the relation name and expansion direction
/// that realizes the join as an [`PhysPlan::AdjacencyExpand`].
fn adjacency_target(plan: &PhysPlan, col: usize, store: &Store) -> Option<(RelName, bool)> {
    let (PhysPlan::Scan(name) | PhysPlan::IndexScan(name)) = plan else {
        return None;
    };
    if col <= 1 && store.adjacency(name).is_some() {
        Some((name.clone(), col == 1))
    } else {
        None
    }
}

/// Grafts estimated row counts onto an executed metrics tree: walks
/// plan and metrics in lockstep (they mirror each other one node per
/// operator) and sets [`PlanMetrics::est_rows`] wherever the labels
/// agree. Estimates are pure functions of the statistics snapshot, so
/// the annotation is deterministic across thread counts —
/// `EXPLAIN ANALYZE`'s `timing=false` rendering stays byte-identical.
pub fn annotate_estimates(metrics: &mut PlanMetrics, plan: &PhysPlan, est: &Estimator<'_>) {
    if metrics.label != plan.node_label() {
        return;
    }
    metrics.est_rows = Some(est.rows(plan).round().max(0.0) as u64);
    let children = plan.children();
    if metrics.children.len() == children.len() {
        for (m, p) in metrics.children.iter_mut().zip(children) {
            annotate_estimates(m, p, est);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_with;
    use pgq_relational::{Database, RaExpr};
    use pgq_value::tuple;

    /// An asymmetric instance: `Big` (60 rows) vs `Small` (3 rows),
    /// plus an edge relation `E` forming a chain.
    fn db() -> Database {
        let mut db = Database::new();
        for i in 0..60i64 {
            db.insert("Big", tuple![i, i % 10]).unwrap();
            db.insert("Wide", tuple![i, i % 5, i % 10]).unwrap();
        }
        for i in 0..3i64 {
            db.insert("Small", tuple![i]).unwrap();
        }
        for i in 0..20i64 {
            db.insert("E", tuple![i, i + 1]).unwrap();
        }
        db
    }

    fn assert_cost_matches(q: &RaExpr, d: &Database, store: &Store) -> PhysPlan {
        let plan = crate::plan_ra(q, &d.schema()).unwrap();
        let costed = cost_plan(plan, store, &d.schema());
        let got = execute_with(&costed, d, Some(store))
            .unwrap()
            .into_relation();
        assert_eq!(got, q.eval(d).unwrap(), "costed plan:\n{costed}");
        costed
    }

    #[test]
    fn estimator_reads_store_statistics() {
        let d = db();
        let store = Store::from_database(&d);
        let stats = store.statistics();
        let est = Estimator::new(&stats);
        assert_eq!(est.rows(&PhysPlan::IndexScan("Big".into())), 60.0);
        assert_eq!(est.rows(&PhysPlan::IndexScan("Small".into())), 3.0);
        assert_eq!(est.distinct(&PhysPlan::IndexScan("Big".into()), 1), 10.0);
        // σ_{$2 = c}(Big): 60 / 10 distinct values.
        let filtered = PhysPlan::IndexScan("Big".into()).filter(RowCondition::col_eq_const(1, 3));
        assert!((est.rows(&filtered) - 6.0).abs() < 1e-9);
        // Unknown relations fall back, never panic.
        assert_eq!(est.rows(&PhysPlan::Scan("Nope".into())), UNKNOWN_ROWS);
    }

    #[test]
    fn smaller_estimated_side_builds() {
        let d = db();
        let store = Store::from_database(&d);
        // Small ⋈ Wide on Wide's third column — ternary, so no
        // adjacency index applies and a hash join survives. Small (3
        // rows) sits on the probe side after lowering; the cost pass
        // must move it to the build side.
        let q = RaExpr::rel("Small")
            .product(RaExpr::rel("Wide"))
            .select(RowCondition::col_eq(0, 3));
        let plan = assert_cost_matches(&q, &d, &store);
        fn find_join(p: &PhysPlan) -> Option<&PhysPlan> {
            if matches!(p, PhysPlan::HashJoin { .. }) {
                return Some(p);
            }
            p.children().into_iter().find_map(find_join)
        }
        let join = find_join(&plan).expect("a hash join survives");
        let PhysPlan::HashJoin { right, .. } = join else {
            unreachable!()
        };
        assert_eq!(**right, PhysPlan::IndexScan("Small".into()), "{plan}");
    }

    #[test]
    fn join_chains_reorder_around_the_selective_factor() {
        let d = db();
        let store = Store::from_database(&d);
        // Small ⋈ Big ⋈ Big: the 3-row factor should seed the chain
        // regardless of where lowering put it.
        let q = RaExpr::rel("Big")
            .product(RaExpr::rel("Big"))
            .product(RaExpr::rel("Small"))
            .select(RowCondition::col_eq(1, 3).and(RowCondition::col_eq(0, 4)));
        assert_cost_matches(&q, &d, &store);
        // And with an explicitly selective filter on one factor.
        let q = RaExpr::rel("Big")
            .product(RaExpr::rel("Big"))
            .select(RowCondition::col_eq(1, 2).and(RowCondition::col_eq_const(0, 7)));
        assert_cost_matches(&q, &d, &store);
    }

    #[test]
    fn adjacency_direction_follows_expected_degree() {
        let mut d = Database::new();
        // A fan-out graph: node 0 points at 1..=30, and a chain feeds 0.
        for i in 1..=30i64 {
            d.insert("F", tuple![0, i]).unwrap();
        }
        d.insert("S", tuple![0]).unwrap();
        let store = Store::from_database(&d);
        // S ⋈ F on S.$1 = F.$1 — expanding F forward from S's single row.
        let q = RaExpr::rel("S")
            .product(RaExpr::rel("F"))
            .select(RowCondition::col_eq(0, 1));
        let plan = assert_cost_matches(&q, &d, &store);
        fn has_expand(p: &PhysPlan) -> bool {
            matches!(p, PhysPlan::AdjacencyExpand { .. })
                || p.children().into_iter().any(has_expand)
        }
        assert!(has_expand(&plan), "{plan}");
    }

    #[test]
    fn cost_and_rule_plans_agree_on_shapes() {
        let d = db();
        let store = Store::from_database(&d);
        let shapes = [
            RaExpr::rel("Small"),
            RaExpr::ActiveDomain,
            RaExpr::rel("E")
                .product(RaExpr::rel("E"))
                .select(RowCondition::col_eq(1, 2))
                .project(vec![0, 3]),
            RaExpr::rel("Small").intersect(RaExpr::rel("E").project(vec![0])),
            RaExpr::rel("Small").diff(RaExpr::rel("E").project(vec![1])),
            RaExpr::rel("Big")
                .product(RaExpr::rel("Small"))
                .select(RowCondition::col_eq(0, 2)),
        ];
        for q in shapes {
            let opt = crate::plan_ra(&q, &d.schema()).unwrap();
            let rule = store_plan(opt.clone(), &store);
            let costed = cost_plan(opt, &store, &d.schema());
            let via_rule = execute_with(&rule, &d, Some(&store))
                .unwrap()
                .into_relation();
            let via_cost = execute_with(&costed, &d, Some(&store))
                .unwrap()
                .into_relation();
            let reference = q.eval(&d).unwrap();
            assert_eq!(via_cost, reference, "{q}\ncosted:\n{costed}");
            assert_eq!(via_rule, reference, "{q}\nrule:\n{rule}");
        }
    }

    #[test]
    fn reachability_fast_path_shape_survives() {
        let d = db();
        let store = Store::from_database(&d);
        let tc = PhysPlan::Fixpoint {
            base: Box::new(PhysPlan::Scan("E".into())),
            step: Box::new(PhysPlan::Scan("E".into())),
            join: vec![(1, 0)],
            project: vec![0, 3],
        };
        let costed = cost_plan(tc, &store, &d.schema());
        let PhysPlan::Fixpoint {
            step,
            join,
            project,
            ..
        } = &costed
        else {
            panic!("fixpoint must survive costing:\n{costed}");
        };
        assert_eq!(**step, PhysPlan::IndexScan("E".into()));
        assert_eq!(join.as_slice(), [(1, 0)]);
        assert_eq!(project.as_slice(), [0, 3]);
    }

    #[test]
    fn estimates_graft_onto_metrics() {
        let d = db();
        let store = Store::from_database(&d);
        let plan = PhysPlan::IndexScan("Big".into()).distinct();
        let mut metrics = PlanMetrics::from_plan(&plan);
        let stats = store.statistics();
        let est = Estimator::new(&stats);
        annotate_estimates(&mut metrics, &plan, &est);
        assert_eq!(metrics.est_rows, Some(60));
        assert_eq!(metrics.children[0].est_rows, Some(60));
        // Label mismatch leaves nodes untouched instead of lying.
        let other = PhysPlan::IndexScan("Small".into());
        let mut foreign = PlanMetrics::from_plan(&other);
        annotate_estimates(&mut foreign, &plan, &est);
        assert_eq!(foreign.est_rows, None);
    }
}
