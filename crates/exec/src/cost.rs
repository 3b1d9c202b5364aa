//! The storage-lowering pass and its cardinality estimator (DESIGN.md §5).
//!
//! There is **one** pass that lowers an optimized plan onto a session
//! store — [`lower_onto_store`] — and every physical-shape decision in
//! it (join order, hash build side, whether and which way a join
//! becomes an [`PhysPlan::AdjacencyExpand`]) is made by comparing
//! estimates. [`PlannerChoice`] selects the [`Estimator`] those
//! estimates come from, not a code path:
//!
//! * `Cost` (the default; [`cost_plan`]) reads a
//!   [`pgq_store::StoreStatistics`] snapshot — distinct-count
//!   selectivities, live-row leaf cardinalities, degree-histogram
//!   expansion factors, the standard System-R-style formulas,
//!   documented with their failure modes in DESIGN.md §5;
//! * `Rule` reads nothing ([`Estimator::syntactic`]): every estimate
//!   ties, so each tie-break returns what was written — joins stay in
//!   syntactic order, a join against a bare CSR-indexed right scan
//!   becomes the expansion (2·l against l + r at l = r), and only the
//!   O(1) stored row counts of two bare scans can move a build side.
//!   It is the `SET PLANNER rule;` escape hatch.
//!
//! Two rewrites decide nothing and happen under both: `Scan` →
//! `IndexScan`, and a constant equality over the scan of a CSR-indexed
//! relation → [`PhysPlan::IndexSeek`], which never reads more than the
//! filtered scan it replaces and is estimated as that filter was.
//!
//! Either way the pass **never changes the set of result rows** (the
//! planner differentials in `tests/prop_engine.rs` /
//! `tests/prop_store.rs`), compensating projections restore the
//! original column order so the rewrite is invisible to everything
//! above it, and `tests/plan_goldens.rs` pins the plans themselves.
//! [`annotate_estimates`] grafts the statistics' estimates onto an
//! executed [`PlanMetrics`] tree so `EXPLAIN ANALYZE` shows `est=` next
//! to the actual row counts — misestimates are an observability
//! surface, not a silent regression.

use crate::metrics::PlanMetrics;
use crate::plan::PhysPlan;
use pgq_relational::{CmpOp, Operand, RelName, RowCondition, Schema};
use pgq_store::{Store, StoreStatistics};
use pgq_value::Value;
use std::collections::HashMap;

/// Which estimator [`lower_onto_store`] plans with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerChoice {
    /// Estimates from the store's statistics ([`cost_plan`]) — the
    /// default.
    #[default]
    Cost,
    /// No statistics: every estimate ties and the plan keeps its
    /// syntactic shape — the escape hatch and ablation baseline.
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
/// What an estimator without statistics answers for every plan and
/// every column: one value, so all comparisons tie.
const TIED: f64 = 1.0;
/// Selectivity of a non-equality comparison (`<`, `≤`, …).
const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Selectivity of `≠` (almost everything survives).
const NE_SELECTIVITY: f64 = 0.9;
/// Growth factor a semi-naive fixpoint is assumed to add over its
/// base — reachability closures are the known failure mode of
/// single-pass estimation (DESIGN.md §5); the constant keeps them
/// comparable rather than precise.
const FIXPOINT_GROWTH: f64 = 8.0;

/// Cardinality estimation: over a [`StoreStatistics`] snapshot
/// ([`Estimator::new`]), or over nothing ([`Estimator::syntactic`]).
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'a> {
    stats: Option<&'a StoreStatistics>,
}

impl<'a> Estimator<'a> {
    /// An estimator reading the given statistics snapshot.
    pub fn new(stats: &'a StoreStatistics) -> Self {
        Estimator { stats: Some(stats) }
    }

    /// The estimator that reads no statistics: every plan and every
    /// column estimates the same, so whoever compares two estimates
    /// falls through to its tie-break. It borrows nothing, so building
    /// one cannot make the store compute statistics.
    pub fn syntactic() -> Estimator<'static> {
        Estimator { stats: None }
    }

    /// Expected output rows of a plan node (≥ 0, finite).
    pub fn rows(&self, plan: &PhysPlan) -> f64 {
        Memo::new(self.stats).rows(plan)
    }

    /// Distinct-value estimate for one output column of a subplan.
    /// Exact (modulo staleness) for stored relations; bounded by the
    /// subplan's row estimate everywhere else.
    pub fn distinct(&self, plan: &PhysPlan, col: usize) -> f64 {
        Memo::new(self.stats).distinct(plan, col)
    }

    /// Predicate selectivity against a concrete input subplan.
    pub fn selectivity(&self, cond: &RowCondition, input: &PhysPlan) -> f64 {
        Memo::new(self.stats).selectivity(cond, input)
    }

    /// Expected fan-out of one adjacency probe into `rel`, either
    /// direction.
    fn expected_degree(&self, rel: &RelName) -> f64 {
        self.stats
            .and_then(|s| s.expected_degree(rel))
            .unwrap_or(1.0)
    }
}

/// One estimate's memo: each inner plan node's rows, and each column's
/// distinct count, are computed once, so an estimate is linear in the
/// plan. (A join asks its inputs for rows and for the distinct counts
/// of their key columns, which fall back to rows; unmemoized, the work
/// doubles with every level of join nesting.) Leaves are answered in
/// O(1) and not stored, so a three-node plan stores one entry. Nodes
/// are keyed by address, which is stable because the plan stays
/// borrowed for the memo's whole life. Without statistics every
/// estimate is [`TIED`].
struct Memo<'s> {
    stats: Option<&'s StoreStatistics>,
    rows: HashMap<*const PhysPlan, f64>,
    distinct: HashMap<(*const PhysPlan, usize), f64>,
    /// Calls of [`Memo::rows`] and [`Memo::distinct`], memo hits included.
    visits: usize,
}

impl<'s> Memo<'s> {
    fn new(stats: Option<&'s StoreStatistics>) -> Self {
        Memo {
            stats,
            rows: HashMap::new(),
            distinct: HashMap::new(),
            visits: 0,
        }
    }

    fn rows(&mut self, plan: &PhysPlan) -> f64 {
        self.visits += 1;
        let Some(stats) = self.stats else {
            return TIED;
        };
        if is_leaf(plan) {
            return self.rows_of(stats, plan);
        }
        if let Some(&rows) = self.rows.get(&std::ptr::from_ref(plan)) {
            return rows;
        }
        let rows = self.rows_of(stats, plan);
        self.rows.insert(plan, rows);
        rows
    }

    fn rows_of(&mut self, stats: &StoreStatistics, plan: &PhysPlan) -> f64 {
        match plan {
            PhysPlan::Scan(name) | PhysPlan::IndexScan(name) => relation_rows(stats, name),
            // As the `Filter [$col = c]` it replaces: one value of the column's.
            PhysPlan::IndexSeek { rel, col, .. } => {
                relation_rows(stats, rel) / relation_distinct(stats, rel, *col).max(1.0)
            }
            PhysPlan::Values(b) if b.name().is_some() => UNKNOWN_ROWS,
            PhysPlan::Values(b) => b.len() as f64,
            PhysPlan::AdomScan => relation_rows(stats, &pgq_store::ADOM_REL.into()),
            PhysPlan::Filter { cond, input } => self.rows(input) * self.selectivity(cond, input),
            PhysPlan::Project { input, .. } | PhysPlan::Distinct { input } => self.rows(input),
            PhysPlan::AdjacencyExpand { input, rel, .. } => {
                self.rows(input) * stats.expected_degree(rel).unwrap_or(1.0)
            }
            PhysPlan::HashJoin { left, right, keys } => {
                let (l, r) = (self.rows(left), self.rows(right));
                if keys.is_empty() {
                    // All-columns intersection: bounded by either side.
                    return l.min(r);
                }
                // The standard equi-join formula: `|L|·|R| / ∏ max(d_L(i),
                // d_R(j))` over the key pairs — each key's containment
                // assumption divides by the larger distinct count.
                keys.iter().fold(l * r, |rows, &(i, j)| {
                    rows / self.distinct(left, i).max(self.distinct(right, j)).max(1.0)
                })
            }
            PhysPlan::Product { left, right } => self.rows(left) * self.rows(right),
            PhysPlan::Union { left, right } => self.rows(left) + self.rows(right),
            PhysPlan::Diff { left, .. } => self.rows(left),
            PhysPlan::Fixpoint { base, .. } => self.rows(base) * FIXPOINT_GROWTH,
        }
    }

    fn distinct(&mut self, plan: &PhysPlan, col: usize) -> f64 {
        self.visits += 1;
        let Some(stats) = self.stats else {
            return TIED;
        };
        if is_leaf(plan) {
            return self.distinct_of(stats, plan, col);
        }
        let key = (std::ptr::from_ref(plan), col);
        if let Some(&d) = self.distinct.get(&key) {
            return d;
        }
        let d = self.distinct_of(stats, plan, col);
        self.distinct.insert(key, d);
        d
    }

    fn distinct_of(&mut self, stats: &StoreStatistics, plan: &PhysPlan, col: usize) -> f64 {
        match plan {
            PhysPlan::Scan(name) | PhysPlan::IndexScan(name) => relation_distinct(stats, name, col),
            // A column held equal to a constant has one value.
            PhysPlan::IndexSeek { col: sought, .. } if *sought == col => 1.0,
            PhysPlan::IndexSeek { rel, .. } => {
                relation_distinct(stats, rel, col).min(self.rows(plan))
            }
            PhysPlan::Project { positions, input } => match positions.get(col) {
                Some(&p) => self.distinct(input, p),
                None => self.rows(plan),
            },
            PhysPlan::Filter { cond, .. } if pinned(cond, col).is_some() => 1.0,
            PhysPlan::Filter { input, .. } => self.distinct(input, col).min(self.rows(plan)),
            PhysPlan::Distinct { input } => self.distinct(input, col),
            _ => self.rows(plan),
        }
    }

    /// Predicate selectivity against a concrete input subplan.
    fn selectivity(&mut self, cond: &RowCondition, input: &PhysPlan) -> f64 {
        let s = match cond {
            RowCondition::True => 1.0,
            RowCondition::And(a, b) => self.selectivity(a, input) * self.selectivity(b, input),
            RowCondition::Or(a, b) => {
                (self.selectivity(a, input) + self.selectivity(b, input)).min(1.0)
            }
            RowCondition::Not(inner) => 1.0 - self.selectivity(inner, input),
            RowCondition::Cmp(a, op, b) => match (a, op, b) {
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
            },
        };
        s.clamp(0.0, 1.0)
    }
}

/// A plan node without inputs, estimated in O(1).
fn is_leaf(plan: &PhysPlan) -> bool {
    matches!(
        plan,
        PhysPlan::Scan(_)
            | PhysPlan::IndexScan(_)
            | PhysPlan::IndexSeek { .. }
            | PhysPlan::Values(_)
            | PhysPlan::AdomScan
    )
}

/// A relation's live rows; the derived active domain, which statistics
/// do not cover, is bounded by the dictionary.
fn relation_rows(stats: &StoreStatistics, name: &RelName) -> f64 {
    match stats.live_rows(name) {
        Some(n) => n as f64,
        None if name.as_str() == pgq_store::ADOM_REL => stats.dictionary_codes as f64,
        None => UNKNOWN_ROWS,
    }
}

fn relation_distinct(stats: &StoreStatistics, name: &RelName, col: usize) -> f64 {
    stats
        .distinct(name, col)
        .map_or_else(|| relation_rows(stats, name), |d| d as f64)
}

/// The constant a conjunct of `cond` holds column `col` equal to
/// (`$col = c` / `c = $col`), if one does.
fn pinned(cond: &RowCondition, col: usize) -> Option<&Value> {
    match cond {
        RowCondition::And(a, b) => pinned(a, col).or_else(|| pinned(b, col)),
        RowCondition::Cmp(Operand::Col(i), CmpOp::Eq, Operand::Const(v))
        | RowCondition::Cmp(Operand::Const(v), CmpOp::Eq, Operand::Col(i))
            if *i == col =>
        {
            Some(v)
        }
        _ => None,
    }
}

/// Lowers an optimized plan onto a session store's indexes — the one
/// storage-lowering pass:
///
/// * `Scan R` → `IndexScan R` for registered relations, and `AdomScan`
///   → `IndexScan ⟨adom⟩` (the store freezes the active domain at
///   registration);
/// * `Filter [… ∧ $i = c ∧ …]` directly over the scan of a CSR-indexed
///   binary relation → [`PhysPlan::IndexSeek`] on `$i` (the column with
///   more distinct values when several conjuncts qualify), the other
///   conjuncts staying as a `Filter` above it;
/// * every maximal tree of keyed `HashJoin`s is flattened, ordered and
///   rebuilt join by join — an [`PhysPlan::AdjacencyExpand`] where one
///   side is a bare scan of a CSR-indexed binary relation and
///   expanding is estimated no dearer, a hash join with the smaller
///   side building otherwise;
/// * a projection of a projection becomes one (`PhysPlan::project`
///   composes them), so a chain's column restore costs no extra copy.
///
/// `planner` picks the estimator (module docs), and this is the only
/// place it is looked at. Apply **after** [`crate::optimize_plan`]: the
/// pass assumes a well-typed plan and preserves result rows exactly. A
/// join whose arity cannot be derived under `schema` (a plan gone stale
/// since it was optimized) keeps its written shape over lowered
/// children — it degrades, it never errors.
pub fn lower_onto_store(
    plan: PhysPlan,
    store: &Store,
    schema: &Schema,
    planner: PlannerChoice,
) -> PhysPlan {
    match planner {
        PlannerChoice::Cost => cost_plan(plan, store, schema),
        PlannerChoice::Rule => lower(plan, store, schema, &Estimator::syntactic()),
    }
}

/// [`lower_onto_store`] under [`PlannerChoice::Cost`]: the pass with
/// the estimator over the store's current [`StoreStatistics`].
pub fn cost_plan(plan: PhysPlan, store: &Store, schema: &Schema) -> PhysPlan {
    let stats = store.statistics();
    lower(plan, store, schema, &Estimator::new(&stats))
}

fn lower(plan: PhysPlan, store: &Store, schema: &Schema, est: &Estimator<'_>) -> PhysPlan {
    match plan {
        PhysPlan::Scan(name) if store.has_relation(&name) => PhysPlan::IndexScan(name),
        PhysPlan::AdomScan if store.has_relation(&pgq_store::ADOM_REL.into()) => {
            PhysPlan::IndexScan(pgq_store::ADOM_REL.into())
        }
        chain if is_keyed_join(&chain) => lower_join_chain(chain, store, schema, est),
        PhysPlan::Filter { cond, input } => {
            lower_filter(cond, lower(*input, store, schema, est), store, est)
        }
        // Rebuilt through the builder, which fuses it with a projection
        // the lowered input ends in (a join chain's column restore).
        PhysPlan::Project { positions, input } => {
            lower(*input, store, schema, est).project(positions)
        }
        // Everything else only has children to lower. A `Fixpoint`
        // keeps its fields: they are the pair shape its sweep reads.
        other => other.map_children(|child| lower(child, store, schema, est)),
    }
}

/// A filter over its (already lowered) input: the `IndexSeek` rule of
/// [`lower_onto_store`]. Unconditional — the seek never reads more than
/// the filtered scan it replaces.
fn lower_filter(
    cond: RowCondition,
    input: PhysPlan,
    store: &Store,
    est: &Estimator<'_>,
) -> PhysPlan {
    let rel = match &input {
        PhysPlan::IndexScan(rel) if store.adjacency(rel).is_some() => rel,
        _ => return input.filter(cond),
    };
    let mut conjuncts = cond.conjuncts();
    let distinct = [est.distinct(&input, 0), est.distinct(&input, 1)];
    let sought = conjuncts
        .iter()
        .enumerate()
        .filter_map(|(k, c)| (0..2).find_map(|col| Some((k, col, pinned(c, col)?.clone()))))
        // `max_by` keeps the last maximum; reversed, the first written.
        .rev()
        .max_by(|a, b| distinct[a.1].total_cmp(&distinct[b.1]));
    let Some((k, col, value)) = sought else {
        return input.filter(cond);
    };
    conjuncts.remove(k);
    let rel = rel.clone();
    let seek = PhysPlan::IndexSeek { rel, col, value };
    if conjuncts.is_empty() {
        seek
    } else {
        seek.filter(RowCondition::and_all(conjuncts))
    }
}

/// One flattened join factor: the (already lowered) subplan, its
/// output arity and its estimated rows.
struct Factor {
    plan: PhysPlan,
    arity: usize,
    rows: f64,
}

/// Flattens a maximal tree of keyed hash joins into factors plus
/// global-column equality predicates, orders it greedily by estimated
/// intermediate cardinality, and rebuilds with per-join build side /
/// adjacency decisions. A compensating projection restores the
/// original (left-to-right) column order.
fn lower_join_chain(
    mut plan: PhysPlan,
    store: &Store,
    schema: &Schema,
    est: &Estimator<'_>,
) -> PhysPlan {
    let mut slots: Vec<(&mut PhysPlan, usize)> = Vec::new();
    let mut preds: Vec<(usize, usize)> = Vec::new();
    if collect_factors(&mut plan, schema, &mut slots, &mut preds).is_none() {
        // Arity underivable (stale plan): the join stays as written.
        return plan.map_children(|child| lower(child, store, schema, est));
    }
    // Nothing was moved while an arity could still fail; now every
    // factor is taken out of the spine, lowered and estimated.
    let factors = slots
        .into_iter()
        .map(|(slot, arity)| {
            let plan = lower(
                std::mem::replace(slot, PhysPlan::AdomScan),
                store,
                schema,
                est,
            );
            let rows = est.rows(&plan);
            Factor { plan, arity, rows }
        })
        .collect();
    build_ordered_join(factors, preds, store, est)
}

/// Walks a tree of keyed hash joins down to its factor subplans —
/// everything that is not itself a keyed join, all-columns
/// intersections included — recording each factor's place and arity
/// and rebasing the join keys to global column positions. Returns the
/// subtree's output arity, or `None` when an arity cannot be derived.
fn collect_factors<'p>(
    plan: &'p mut PhysPlan,
    schema: &Schema,
    factors: &mut Vec<(&'p mut PhysPlan, usize)>,
    preds: &mut Vec<(usize, usize)>,
) -> Option<usize> {
    if !is_keyed_join(plan) {
        let arity = plan.arity(schema).ok()?;
        factors.push((plan, arity));
        return Some(arity);
    }
    let PhysPlan::HashJoin { left, right, keys } = plan else {
        return None;
    };
    let base: usize = factors.iter().map(|(_, arity)| arity).sum();
    let la = collect_factors(left, schema, factors, preds)?;
    let ra = collect_factors(right, schema, factors, preds)?;
    preds.extend(keys.iter().map(|&(i, j)| (base + i, base + la + j)));
    Some(la + ra)
}

/// A hash join on explicit keys — what a join chain is made of. (An
/// empty key set is the all-columns intersection: an atomic factor.)
fn is_keyed_join(plan: &PhysPlan) -> bool {
    matches!(plan, PhysPlan::HashJoin { keys, .. } if !keys.is_empty())
}

/// Greedy join ordering: start from the smallest factor, repeatedly
/// join the connected factor minimizing the estimated result, apply
/// leftover same-side equalities as filters, and restore the original
/// column order with one projection. Every comparison breaks a tie
/// toward the original (syntactic) order, so an equal-cost rewrite
/// never perturbs the plan for nothing — and under an estimator
/// without statistics, where everything ties, the chain is rebuilt in
/// the order it was written.
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

    // Seed with the smallest estimated factor.
    let seed = remaining
        .iter()
        .enumerate()
        .min_by(|(_, (ia, a)), (_, (ib, b))| a.rows.total_cmp(&b.rows).then(ia.cmp(ib)))
        .map(|(slot, _)| slot)
        // Invariant: a keyed join has two children and each is at least one factor.
        .expect("at least two factors");
    let (seed_idx, seed_factor) = remaining.swap_remove(seed);

    // `placed[g] = Some(p)`: original global column g sits at output
    // position p of the accumulated plan.
    let mut placed: Vec<Option<usize>> = vec![None; total];
    for c in 0..seed_factor.arity {
        placed[offsets[seed_idx] + c] = Some(c);
    }
    let mut acc = seed_factor;

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

    loop {
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
                acc.rows * f.rows * total as f64 // deprioritize products
            } else {
                keys.iter().fold(acc.rows * f.rows, |rows, &(_, j)| {
                    rows / est.distinct(&f.plan, j).max(1.0)
                })
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
        // No candidate ⇔ no factor remains: the chain is built.
        let Some(Candidate {
            slot,
            keys,
            consumed,
            rows,
            ..
        }) = best
        else {
            break;
        };
        let (idx, f) = remaining.swap_remove(slot);
        for &pi in consumed.iter().rev() {
            preds.remove(pi);
        }
        for c in 0..f.arity {
            placed[offsets[idx] + c] = Some(acc.arity + c);
        }
        let arity = acc.arity + f.arity;
        let mut plan = if keys.is_empty() {
            PhysPlan::Product {
                left: Box::new(acc.plan),
                right: Box::new(f.plan),
            }
        } else {
            join_with_choice(acc, f, keys, store, est)
        };
        let mut rows = rows.max(0.0);
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
            plan = plan.filter(RowCondition::col_eq(a, b));
            rows /= 2.0;
        }
        acc = Factor { plan, arity, rows };
    }

    // Restore the original column order. Every factor has been joined
    // and joining one places all of its columns, so `placed` has no
    // hole for `flatten` to skip.
    let positions: Vec<usize> = placed.into_iter().flatten().collect();
    if positions.iter().enumerate().all(|(i, &p)| i == p) {
        acc.plan
    } else {
        acc.plan.project(positions)
    }
}

/// Builds one binary join `l ⋈ r` (output columns `l ++ r`), choosing
/// among: expanding `r` as an adjacency index over `l`'s rows,
/// expanding `l` as an adjacency index over `r`'s rows, and a hash
/// join with the smaller side building. Compensating projections keep
/// the output order fixed at `l ++ r`.
fn join_with_choice(
    l: Factor,
    r: Factor,
    keys: Vec<(usize, usize)>,
    store: &Store,
    est: &Estimator<'_>,
) -> PhysPlan {
    // `r ++ l` back to `l ++ r`.
    let restore_order = |plan: PhysPlan| {
        let mut positions: Vec<usize> = (r.arity..r.arity + l.arity).collect();
        positions.extend(0..r.arity);
        plan.project(positions)
    };
    if let [(i, j)] = keys.as_slice() {
        let expand_r = adjacency_target(&r.plan, *j, store).map(|(name, reverse)| {
            let deg = est.expected_degree(&name);
            (name, reverse, l.rows * (1.0 + deg))
        });
        let expand_l = adjacency_target(&l.plan, *i, store).map(|(name, reverse)| {
            let deg = est.expected_degree(&name);
            // Expanding the left side produces r ++ l and needs a
            // compensating projection that copies every output row
            // (≈ r_rows·deg) — charge it, so a near-tie in degree
            // never buys a strictly worse plan.
            (name, reverse, r.rows * (1.0 + 2.0 * deg))
        });
        let hash_cost = l.rows + r.rows;
        match (expand_r, expand_l) {
            (Some((rel, reverse, cr)), cl)
                if cr <= hash_cost && cl.as_ref().is_none_or(|(_, _, cl)| cr <= *cl) =>
            {
                return PhysPlan::AdjacencyExpand {
                    input: Box::new(l.plan),
                    key: *i,
                    rel,
                    reverse,
                };
            }
            (_, Some((rel, reverse, cl))) if cl <= hash_cost => {
                // Expand the *left* edge relation over the right rows:
                // output is r ++ l, restored by a projection.
                return restore_order(PhysPlan::AdjacencyExpand {
                    input: Box::new(r.plan),
                    key: *j,
                    rel,
                    reverse,
                });
            }
            _ => {}
        }
    }
    // Hash join: the executor builds the right side — put the smaller
    // side there. By estimate; or, without statistics (where estimates
    // only ever tie), by the O(1) stored row counts when both sides are
    // bare scans — and strictly smaller either way, so symmetric plans
    // stay byte-stable.
    let left_is_smaller = match est.stats {
        Some(_) => l.rows < r.rows,
        None => stored_rows(&l.plan, store)
            .zip(stored_rows(&r.plan, store))
            .is_some_and(|(l, r)| l < r),
    };
    if left_is_smaller {
        let swapped = keys.iter().map(|&(i, j)| (j, i)).collect();
        restore_order(r.plan.hash_join(l.plan, swapped))
    } else {
        l.plan.hash_join(r.plan, keys)
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

/// The live row count the store keeps for a bare `IndexScan`.
fn stored_rows(plan: &PhysPlan, store: &Store) -> Option<usize> {
    let PhysPlan::IndexScan(name) = plan else {
        return None;
    };
    store.relation(name).map(|c| c.len())
}

/// Grafts the statistics' estimated row counts onto an executed
/// metrics tree — `EXPLAIN ANALYZE`'s `est=` column, whichever planner
/// shaped the plan: walks plan and metrics in lockstep (they mirror
/// each other one node per operator) and sets
/// [`PlanMetrics::est_rows`] wherever the labels agree. Estimates are
/// pure functions of the statistics snapshot, so the annotation is
/// deterministic across thread counts — `EXPLAIN ANALYZE`'s
/// `timing=false` rendering stays byte-identical.
pub fn annotate_estimates(metrics: &mut PlanMetrics, plan: &PhysPlan, store: &Store) {
    // One memo for the whole walk: the plan stays borrowed throughout.
    fn graft(metrics: &mut PlanMetrics, plan: &PhysPlan, memo: &mut Memo<'_>) {
        if metrics.label != plan.node_label() {
            return;
        }
        metrics.est_rows = Some(memo.rows(plan).round().max(0.0) as u64);
        let children = plan.children();
        if metrics.children.len() == children.len() {
            for (m, p) in metrics.children.iter_mut().zip(children) {
                graft(m, p, memo);
            }
        }
    }
    let stats = store.statistics();
    graft(metrics, plan, &mut Memo::new(Some(&stats)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_with;
    use pgq_relational::{Database, RaExpr, Relation};
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

    /// An estimate visits each node of a plan a bounded number of
    /// times: on a sixteen-join chain the count is linear in the nodes,
    /// where without the memo it doubles with every join.
    #[test]
    fn estimation_is_linear_in_plan_size() {
        let d = db();
        let store = Store::from_database(&d);
        let stats = store.statistics();
        let hop = || PhysPlan::IndexScan("E".into());
        let (mut chain, mut nodes) = (hop(), 1);
        for _ in 0..16 {
            chain = chain.hash_join(hop(), vec![(1, 0)]).project(vec![0, 3]);
            nodes += 3;
        }
        let mut memo = Memo::new(Some(&stats));
        let rows = memo.rows(&chain);
        assert!(rows.is_finite() && rows >= 0.0);
        assert!(memo.visits <= 4 * nodes, "{} visits", memo.visits);
        assert_eq!(Estimator::new(&stats).rows(&chain), rows);
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
        // The column held to the constant has one distinct value; the
        // others are bounded by the surviving rows.
        assert_eq!(est.distinct(&filtered, 1), 1.0);
        assert_eq!(est.distinct(&filtered, 0), 6.0);
        // The seek is that filter, estimated the same.
        let seek = PhysPlan::IndexSeek {
            rel: "Big".into(),
            col: 1,
            value: Value::int(3),
        };
        assert_eq!(est.rows(&seek), est.rows(&filtered));
        assert_eq!(est.distinct(&seek, 1), 1.0);
        assert_eq!(est.distinct(&seek, 0), 6.0);
        // Unknown relations fall back, never panic.
        assert_eq!(est.rows(&PhysPlan::Scan("Nope".into())), UNKNOWN_ROWS);
    }

    /// `σ_cond(E)` lowered under both planners, checked against the
    /// reference.
    fn lowered_selection(cond: RowCondition) -> [PhysPlan; 2] {
        let d = db();
        let store = Store::from_database(&d);
        let q = RaExpr::rel("E").select(cond);
        [PlannerChoice::Cost, PlannerChoice::Rule].map(|planner| {
            let plan = crate::plan_ra(&q, &d.schema()).unwrap();
            let plan = lower_onto_store(plan, &store, &d.schema(), planner);
            let got = execute_with(&plan, &d, Some(&store)).unwrap();
            assert_eq!(
                got.into_relation(),
                q.eval(&d).unwrap(),
                "{planner}:\n{plan}"
            );
            plan
        })
    }

    #[test]
    fn constant_equalities_over_indexed_relations_become_seeks() {
        let seek = |col, v: i64| PhysPlan::IndexSeek {
            rel: "E".into(),
            col,
            value: Value::int(v),
        };
        // Either operand order, either column, under either estimator.
        let flipped = RowCondition::Cmp(Operand::Const(Value::int(4)), CmpOp::Eq, Operand::Col(0));
        for plan in lowered_selection(flipped) {
            assert_eq!(plan, seek(0, 4));
        }
        for plan in lowered_selection(RowCondition::col_eq_const(1, 4)) {
            assert_eq!(plan, seek(1, 4));
        }
        // A conjunction keeps one seek — the first written, since both
        // columns of the chain have 20 distinct values — and the rest
        // as a residual filter above it.
        let ne = RowCondition::Cmp(Operand::Col(0), CmpOp::Ne, Operand::Col(1));
        let both = RowCondition::and_all([
            RowCondition::col_eq_const(0, 3),
            RowCondition::col_eq_const(1, 4),
            ne.clone(),
        ]);
        for plan in lowered_selection(both) {
            let residual = RowCondition::col_eq_const(1, 4).and(ne.clone());
            assert_eq!(plan, seek(0, 3).filter(residual));
        }
        // No CSR (ternary relation), no constant equality, or a
        // disjunction: the filter stays a filter.
        let d = db();
        let store = Store::from_database(&d);
        for q in [
            RaExpr::rel("Wide").select(RowCondition::col_eq_const(1, 4)),
            RaExpr::rel("E").select(RowCondition::col_cmp_const(1, CmpOp::Lt, 4)),
            RaExpr::rel("E")
                .select(RowCondition::col_eq_const(0, 3).or(RowCondition::col_eq_const(1, 9))),
        ] {
            let plan = assert_cost_matches(&q, &d, &store);
            assert!(matches!(plan, PhysPlan::Filter { .. }), "{plan}");
        }
    }

    /// A skewed column: the seek goes to the column that narrows more.
    #[test]
    fn the_more_selective_column_is_sought() {
        let d = db();
        let store = Store::from_database(&d);
        // Big = (i, i mod 10): 60 distinct values against 10.
        let q = RaExpr::rel("Big")
            .select(RowCondition::col_eq_const(1, 7).and(RowCondition::col_eq_const(0, 7)));
        let plan = assert_cost_matches(&q, &d, &store);
        let PhysPlan::Filter { input, .. } = &plan else {
            panic!("a residual filter stays:\n{plan}");
        };
        assert!(
            matches!(**input, PhysPlan::IndexSeek { col: 0, .. }),
            "{plan}"
        );
    }

    /// The read-side sibling of `pgq-store`'s
    /// `writer_probes_are_indexed_not_relation_scans`: the benchmark's
    /// one-hop and two-hop shapes on a ring of 4-account communities
    /// examine the same number of rows at 8 and at 800 accounts, and no
    /// more than four per row returned.
    #[test]
    fn reads_are_seeks_not_relation_scans() {
        let examined = |n: usize| {
            let mut d = Database::new();
            let mut transfer = |from: usize, to: usize| {
                let e = format!("t{from}-{to}");
                d.insert("S", tuple![e.clone(), format!("a{from}")])
                    .unwrap();
                d.insert("T", tuple![e, format!("a{to}")]).unwrap();
            };
            for i in 0..n {
                // A ring inside each community, and the last account of
                // each community pays into the first of the next.
                transfer(i, if i % 4 == 3 { i - 3 } else { i + 1 });
                if i % 4 == 3 {
                    transfer(i, (i + 1) % n);
                }
            }
            let store = Store::from_database(&d);
            let one_hop = RaExpr::rel("S")
                .product(RaExpr::rel("T"))
                .select(RowCondition::col_eq(0, 2).and(RowCondition::col_eq_const(3, "a0")))
                .project(vec![1, 3]);
            let two_hop = RaExpr::rel("S")
                .product(RaExpr::rel("T"))
                .product(RaExpr::rel("S"))
                .product(RaExpr::rel("T"))
                .select(RowCondition::and_all([
                    RowCondition::col_eq(0, 2),
                    RowCondition::col_eq(3, 5),
                    RowCondition::col_eq(4, 6),
                    RowCondition::col_eq_const(7, "a0"),
                ]))
                .project(vec![1, 3, 7]);
            // Into `a0`: from `a3` inside its community and from the
            // last account of the ring; each has one payer of its own.
            let a = |i: usize| format!("a{i}");
            let into_a0 = [tuple![a(3), a(0)], tuple![a(n - 1), a(0)]];
            let via = [tuple![a(2), a(3), a(0)], tuple![a(n - 2), a(n - 1), a(0)]];
            let hops = [(one_hop, into_a0.to_vec()), (two_hop, via.to_vec())];
            hops.map(|(q, expected)| {
                let before = store.counters().snapshot();
                let rows = crate::eval_ra_with(&q, &d, &store).unwrap();
                assert_eq!(
                    rows,
                    Relation::from_rows(expected[0].arity(), expected).unwrap()
                );
                let work = store.counters().snapshot().since(&before);
                let examined = work.index_scan_rows + work.csr_neighbor_rows;
                assert!(
                    examined <= 4 * rows.len() as u64,
                    "{examined} rows examined for {} returned at {n} accounts",
                    rows.len()
                );
                examined
            })
        };
        assert_eq!(
            examined(8),
            examined(800),
            "rows examined per read must not scale with the relation"
        );
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
            let rule = lower_onto_store(opt.clone(), &store, &d.schema(), PlannerChoice::Rule);
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
            skip: 0,
            rounds: None,
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
        annotate_estimates(&mut metrics, &plan, &store);
        assert_eq!(metrics.est_rows, Some(60));
        assert_eq!(metrics.children[0].est_rows, Some(60));
        // Label mismatch leaves nodes untouched instead of lying.
        let other = PhysPlan::IndexScan("Small".into());
        let mut foreign = PlanMetrics::from_plan(&other);
        annotate_estimates(&mut foreign, &plan, &store);
        assert_eq!(foreign.est_rows, None);
    }
}
