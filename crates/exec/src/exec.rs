//! The batch executor.
//!
//! Every operator consumes whole input batches and produces one output
//! batch; joins and dedup key rows in a [`RowTable`] instead of scanning
//! ordered sets, and a fixpoint sweeps per-source frontiers over dense
//! endpoint ids. All failure modes are relational-layer conditions
//! (unknown relations, out-of-range positions, arity mismatches), so the
//! executor reports plain [`RelError`]s — the per-layer error policy of
//! DESIGN.md §7 is satisfied by the callers wrapping them (`QueryError`,
//! `LogicError`, …) exactly as they wrap reference-evaluator errors.
//!
//! There is one pipeline and it is *coded*: every batch between
//! operators is a [`CodedBatch`] of dictionary codes (`u32` hash keys,
//! `u32` dedup, [`crate::coded::CodedCond`] predicates). Store reads
//! hand their columnar codes over as-is; every leaf the store cannot
//! serve — database scans, `Values`, the active domain, the whole input
//! of a storeless run — interns its rows into the execution's [`Codes`]
//! view on the calling thread, before the operator above it starts its
//! workers. The pipeline decodes exactly once, at the [`Coded`]
//! boundary.

use crate::batch::Batch;
use crate::coded::{Coded, CodedBatch, CodedCond, Codes};
use crate::metrics::PlanMetrics;
use crate::parallel::{run_morsels, ExecOptions};
use crate::plan::PhysPlan;
use pgq_relational::{Database, RelError, RelName, RelResult, Relation, RowCondition};
use pgq_store::{AdjacencyView, Postings, RowTable, Store};
use pgq_value::Value;
use std::ops::Range;
use std::time::Instant;

/// Executes a physical plan against a database instance (no store: the
/// store-backed operators degrade to their database equivalents).
pub fn execute(plan: &PhysPlan, db: &Database) -> RelResult<Batch> {
    execute_with(plan, db, None)
}

/// Executes a physical plan against a database instance and, when
/// given, a session [`Store`], decoding the result into rows. Callers
/// that consume the result as a set should prefer [`execute_opts`] +
/// [`Coded::into_relation`], which sorts and dedups on codes before
/// decoding instead of materializing every row first.
pub fn execute_with(plan: &PhysPlan, db: &Database, store: Option<&Store>) -> RelResult<Batch> {
    execute_opts(plan, db, store, &ExecOptions::default())?.decode()
}

/// Executes a physical plan on the given number of worker threads.
///
/// `IndexScan` reads the store's columnar relations, and `IndexSeek` and
/// `AdjacencyExpand` probe its CSR indexes. The store must
/// have been registered from (a snapshot equal to) `db`; the
/// differential suite `tests/prop_store.rs` holds store-backed and
/// storeless paths to identical results.
///
/// With `opts.threads > 1` the operators that split their input
/// (`Filter`, `Project`, `Diff`, the key-less `HashJoin` and
/// `AdjacencyExpand`) run on scoped workers; per-morsel outputs merge
/// in morsel order, so results are byte-identical to sequential execution
/// (`tests/prop_engine.rs`/`tests/prop_store.rs` hold parallel ≡
/// sequential ≡ reference at thread counts {1, 2, 8}). Keyed
/// `HashJoin`, `Distinct` and `Fixpoint` have one algorithm, the
/// sequential one, at every worker count.
pub fn execute_opts<'a>(
    plan: &PhysPlan,
    db: &Database,
    store: Option<&'a Store>,
    opts: &'a ExecOptions,
) -> RelResult<Coded<'a>> {
    let mut run = Run::new(db, store, opts);
    let out = run.node(plan, None)?;
    Ok(Coded::new(out, run.codes))
}

/// [`execute_opts`], additionally returning the per-operator
/// [`PlanMetrics`] tree — the engine-level half of `EXPLAIN ANALYZE`
/// (callers wrap it in a [`crate::metrics::QueryProfile`] once the
/// set-semantics cardinality is known).
pub fn execute_profiled<'a>(
    plan: &PhysPlan,
    db: &Database,
    store: Option<&'a Store>,
    opts: &'a ExecOptions,
) -> RelResult<(Coded<'a>, PlanMetrics)> {
    let mut m = PlanMetrics::from_plan(plan);
    let mut run = Run::new(db, store, opts);
    let out = run.node(plan, Some(&mut m))?;
    Ok((Coded::new(out, run.codes), m))
}

/// The reborrowed metrics node for plan child `i`, if collecting.
fn child_m<'a>(m: &'a mut Option<&mut PlanMetrics>, i: usize) -> Option<&'a mut PlanMetrics> {
    m.as_deref_mut().map(|n| &mut n.children[i])
}

/// Adds `n` rows to the collecting node's input total, if collecting.
fn note_rows_in(m: &mut Option<&mut PlanMetrics>, n: usize) {
    if let Some(node) = m.as_deref_mut() {
        node.rows_in += n as u64;
    }
}

/// One execution: the inputs every operator reads plus the [`Codes`]
/// view its leaves intern into. Plan nodes run one after another on
/// the calling thread (parallelism lives *inside* operators), so a
/// leaf holds the view mutably only while no worker is running.
struct Run<'a, 'd> {
    db: &'d Database,
    store: Option<&'a Store>,
    opts: &'a ExecOptions,
    codes: Codes<'a>,
}

impl<'a, 'd> Run<'a, 'd> {
    fn new(db: &'d Database, store: Option<&'a Store>, opts: &'a ExecOptions) -> Self {
        Run {
            db,
            store,
            opts,
            codes: Codes::new(store),
        }
    }

    /// One operator node: times the subtree and records output shape
    /// when collecting, then dispatches to the untimed body. `m = None`
    /// is the zero-cost path — no timestamps, no counters.
    fn node(&mut self, plan: &PhysPlan, mut m: Option<&mut PlanMetrics>) -> RelResult<CodedBatch> {
        let start = m.as_ref().map(|_| Instant::now());
        if let Some(n) = m.as_deref_mut() {
            n.executed = true;
        }
        let out = self.node_inner(plan, m.as_deref_mut())?;
        if let Some(n) = m {
            n.rows_out = out.len() as u64;
            if let Some(s) = start {
                n.elapsed_ns += s.elapsed().as_nanos() as u64;
            }
        }
        Ok(out)
    }

    fn intern(&mut self, rel: &Relation) -> RelResult<CodedBatch> {
        CodedBatch::intern(rel.arity(), rel.iter(), &mut self.codes)
    }

    /// `IndexScan`: the store's columnar codes as-is when it registers
    /// the relation, the interned database relation otherwise. The
    /// reserved [`pgq_store::ADOM_REL`] name scans the active domain.
    fn index_scan(&mut self, name: &RelName) -> RelResult<CodedBatch> {
        if let Some((col, store)) = self.store.and_then(|s| s.relation(name).map(|c| (c, s))) {
            let out = CodedBatch::from_columnar(col);
            store.counters().record_index_scan_rows(out.len() as u64);
            return Ok(out);
        }
        if name.as_str() == pgq_store::ADOM_REL {
            return self.intern(&self.db.active_domain_relation());
        }
        self.intern(self.db.get_required(name)?)
    }

    /// `IndexSeek`: the `rel` rows whose column `col` holds `value`,
    /// walked off the relation's CSR through its delta overlay — one
    /// probe, O(answer). Without a store, or without a CSR for `rel`,
    /// the filter over [`Run::index_scan`] it stands for.
    fn index_seek(&mut self, rel: &RelName, col: usize, value: &Value) -> RelResult<CodedBatch> {
        validate_project_positions(&[col], 2)?;
        let Some((store, view)) = self.store.and_then(|s| s.adjacency(rel).map(|v| (s, v))) else {
            let batch = self.index_scan(rel)?;
            check_arities("index seek", 2, batch.arity())?;
            let cond = RowCondition::col_eq_const(col, value.clone());
            return filter_coded(&cond, batch, &self.codes, self.opts, None);
        };
        let mut out = CodedBatch::empty(2);
        // A constant no layer interned equals no stored value.
        if let Some(code) = self.codes.code(value) {
            store.counters().record_adjacency_read(view.has_delta());
            push_matches(&view, code, col == 1, &[], &mut out)?;
            store.counters().record_csr_neighbor_rows(out.len() as u64);
        }
        Ok(out)
    }

    fn node_inner(
        &mut self,
        plan: &PhysPlan,
        mut m: Option<&mut PlanMetrics>,
    ) -> RelResult<CodedBatch> {
        let opts = self.opts;
        match plan {
            PhysPlan::Scan(name) => self.intern(self.db.get_required(name)?),
            PhysPlan::IndexScan(name) => self.index_scan(name),
            PhysPlan::IndexSeek { rel, col, value } => self.index_seek(rel, *col, value),
            PhysPlan::Values(b) => CodedBatch::intern(b.arity(), b.iter(), &mut self.codes),
            PhysPlan::AdomScan => self.intern(&self.db.active_domain_relation()),
            PhysPlan::AdjacencyExpand {
                input,
                key,
                rel,
                reverse,
            } => {
                let batch = self.node(input, child_m(&mut m, 0))?;
                note_rows_in(&mut m, batch.len());
                if *key >= batch.arity() {
                    return Err(RelError::PositionOutOfRange {
                        position: *key,
                        arity: batch.arity(),
                    });
                }
                match self.store.and_then(|s| s.adjacency(rel).map(|v| (s, v))) {
                    Some((store, view)) => {
                        adjacency_expand(&batch, *key, *reverse, &view, store, opts, m)
                    }
                    // No CSR index: the equivalent hash join against
                    // the relation itself.
                    None => {
                        let right = self.index_scan(rel)?;
                        let on = (*key, usize::from(*reverse));
                        hash_join_coded(&batch, &right, &[on], opts, m)
                    }
                }
            }
            PhysPlan::Filter { cond, input } => {
                let batch = self.node(input, child_m(&mut m, 0))?;
                note_rows_in(&mut m, batch.len());
                filter_coded(cond, batch, &self.codes, opts, m)
            }
            PhysPlan::Project { positions, input } => {
                let batch = self.node(input, child_m(&mut m, 0))?;
                note_rows_in(&mut m, batch.len());
                project_coded(positions, &batch, opts, m)
            }
            PhysPlan::HashJoin { left, right, keys } => {
                let (l, r) = self.children(left, right, &mut m)?;
                if let Some(n) = m.as_deref_mut() {
                    n.build_rows = Some(r.len() as u64);
                }
                hash_join_coded(&l, &r, keys, opts, m)
            }
            PhysPlan::Product { left, right } => {
                let (l, r) = self.children(left, right, &mut m)?;
                let mut out = CodedBatch::empty(l.arity() + r.arity());
                for a in l.iter() {
                    for b in r.iter() {
                        out.push_concat(a, b)?;
                    }
                }
                Ok(out)
            }
            PhysPlan::Union { left, right } => {
                let (mut out, r) = self.children(left, right, &mut m)?;
                check_arities("union", out.arity(), r.arity())?;
                out.append(&r)?;
                Ok(out)
            }
            PhysPlan::Diff { left, right } => {
                let (l, r) = self.children(left, right, &mut m)?;
                rows_in_or_not("difference", &l, &r, false, opts, m)
            }
            PhysPlan::Distinct { input } => {
                let mut batch = self.node(input, child_m(&mut m, 0))?;
                note_rows_in(&mut m, batch.len());
                batch.dedup();
                Ok(batch)
            }
            PhysPlan::Fixpoint {
                base,
                step,
                join,
                project,
                skip,
                rounds,
            } => {
                let base = self.node(base, child_m(&mut m, 0))?;
                note_rows_in(&mut m, base.len());
                let shape = FixpointShape {
                    join,
                    project,
                    skip: *skip,
                    rounds: *rounds,
                };
                let step = self.node(step, child_m(&mut m, 1))?;
                note_rows_in(&mut m, step.len());
                fixpoint_coded(base, &step, &shape, opts, m)
            }
        }
    }

    /// Runs both children of a binary operator, left first.
    fn children(
        &mut self,
        left: &PhysPlan,
        right: &PhysPlan,
        m: &mut Option<&mut PlanMetrics>,
    ) -> RelResult<(CodedBatch, CodedBatch)> {
        let l = self.node(left, child_m(m, 0))?;
        let r = self.node(right, child_m(m, 1))?;
        note_rows_in(m, l.len() + r.len());
        Ok((l, r))
    }
}

/// [`crate::parallel::run_morsels`], recording the degree of
/// parallelism and per-worker morsel counts when a metrics node is
/// collecting.
fn traced_morsels<T, F>(
    m: Option<&mut PlanMetrics>,
    len: usize,
    dop: usize,
    work: F,
) -> RelResult<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>) -> RelResult<T> + Sync,
{
    let mut claimed = Vec::new();
    let out = run_morsels(len, dop, work, m.is_some().then_some(&mut claimed))?;
    if let Some(node) = m {
        node.dop = node.dop.max(dop);
        node.record_workers(&claimed);
    }
    Ok(out)
}

/// Concatenates per-morsel coded outputs in morsel order — the
/// deterministic merge of every parallel coded operator.
fn concat_coded(arity: usize, parts: Vec<CodedBatch>) -> RelResult<CodedBatch> {
    let mut iter = parts.into_iter();
    let Some(mut out) = iter.next() else {
        return Ok(CodedBatch::empty(arity));
    };
    for part in iter {
        out.append(&part)?;
    }
    Ok(out)
}

/// Appends `prefix ++ r̄` for every effective row `r̄` of the viewed
/// relation whose first (or, `reverse`, second) component is `key` —
/// the one overlay-merging probe behind `AdjacencyExpand` and
/// `IndexSeek`.
fn push_matches(
    view: &AdjacencyView<'_>,
    key: u32,
    reverse: bool,
    prefix: &[u32],
    out: &mut CodedBatch,
) -> RelResult<()> {
    let mut err = Ok(());
    let mut push = |pair: [u32; 2]| {
        if err.is_ok() {
            err = out.push_concat(prefix, &pair);
        }
    };
    if reverse {
        view.for_each_in(key, |n| push([n, key]));
    } else {
        view.for_each_out(key, |n| push([key, n]));
    }
    err
}

/// `AdjacencyExpand` over a CSR-indexed relation: one probe (through
/// the delta overlay) per input row. Input rows are swept
/// morsel-parallel — [`AdjacencyView`] is `Copy`, so every worker
/// reads the frozen CSR and its delta overlay directly. A key the
/// store never interned (a scratch code) has no neighbors.
fn adjacency_expand(
    input: &CodedBatch,
    key: usize,
    reverse: bool,
    view: &AdjacencyView<'_>,
    store: &Store,
    opts: &ExecOptions,
    m: Option<&mut PlanMetrics>,
) -> RelResult<CodedBatch> {
    store.counters().record_adjacency_read(view.has_delta());
    let parts = traced_morsels(m, input.len(), opts.dop(input.len()), |range| {
        let mut part = CodedBatch::empty(input.arity() + 2);
        for i in range {
            let row = input.row(i);
            push_matches(view, row[key], reverse, row, &mut part)?;
        }
        Ok(part)
    })?;
    let out = concat_coded(input.arity() + 2, parts)?;
    store.counters().record_csr_neighbor_rows(out.len() as u64);
    Ok(out)
}

fn check_arities(op: &'static str, left: usize, right: usize) -> RelResult<()> {
    if left != right {
        return Err(RelError::IncompatibleArities { op, left, right });
    }
    Ok(())
}

fn validate_filter_positions(cond: &RowCondition, arity: usize) -> RelResult<()> {
    if let Some(max) = cond.max_position() {
        if max >= arity {
            return Err(RelError::PositionOutOfRange {
                position: max,
                arity,
            });
        }
    }
    Ok(())
}

fn filter_coded(
    cond: &RowCondition,
    batch: CodedBatch,
    codes: &Codes<'_>,
    opts: &ExecOptions,
    m: Option<&mut PlanMetrics>,
) -> RelResult<CodedBatch> {
    validate_filter_positions(cond, batch.arity())?;
    let compiled = CodedCond::compile(cond, codes);
    let parts = traced_morsels(m, batch.len(), opts.dop(batch.len()), |range| {
        let mut part = CodedBatch::empty(batch.arity());
        for i in range {
            let row = batch.row(i);
            if compiled.eval(row, codes) {
                part.push(row)?;
            }
        }
        Ok(part)
    })?;
    concat_coded(batch.arity(), parts)
}

fn validate_project_positions(positions: &[usize], arity: usize) -> RelResult<()> {
    for &p in positions {
        if p >= arity {
            return Err(RelError::PositionOutOfRange { position: p, arity });
        }
    }
    Ok(())
}

fn project_coded(
    positions: &[usize],
    batch: &CodedBatch,
    opts: &ExecOptions,
    m: Option<&mut PlanMetrics>,
) -> RelResult<CodedBatch> {
    validate_project_positions(positions, batch.arity())?;
    let parts = traced_morsels(m, batch.len(), opts.dop(batch.len()), |range| {
        let mut part = CodedBatch::empty(positions.len());
        let mut scratch: Vec<u32> = Vec::with_capacity(positions.len());
        for i in range {
            let row = batch.row(i);
            scratch.clear();
            scratch.extend(positions.iter().map(|&p| row[p]));
            part.push(&scratch)?;
        }
        Ok(part)
    })?;
    concat_coded(positions.len(), parts)
}

fn validate_keys(keys: &[(usize, usize)], la: usize, ra: usize) -> RelResult<()> {
    for &(i, j) in keys {
        if i >= la {
            return Err(RelError::PositionOutOfRange {
                position: i,
                arity: la,
            });
        }
        if j >= ra {
            return Err(RelError::PositionOutOfRange {
                position: j,
                arity: ra,
            });
        }
    }
    Ok(())
}

fn hash_join_coded(
    l: &CodedBatch,
    r: &CodedBatch,
    keys: &[(usize, usize)],
    opts: &ExecOptions,
    m: Option<&mut PlanMetrics>,
) -> RelResult<CodedBatch> {
    // Empty key set: the all-columns intersection, on codes.
    if keys.is_empty() {
        return rows_in_or_not("intersection", l, r, true, opts, m);
    }
    validate_keys(keys, l.arity(), r.arity())?;
    let right_positions: Vec<usize> = keys.iter().map(|&(_, j)| j).collect();
    let index = r.hash_index(&right_positions);
    let mut out = CodedBatch::empty(l.arity() + r.arity());
    let mut key: Vec<u32> = Vec::with_capacity(keys.len());
    for a in l.iter() {
        key.clear();
        key.extend(keys.iter().map(|&(i, _)| a[i]));
        for &bi in index.probe(&key) {
            out.push_concat(a, r.row(bi as usize))?;
        }
    }
    Ok(out)
}

/// The rows of `l` that `r` holds (`present`) or does not — the
/// key-less `HashJoin` and `Diff`, probing `r`'s [`RowTable`].
fn rows_in_or_not(
    op: &'static str,
    l: &CodedBatch,
    r: &CodedBatch,
    present: bool,
    opts: &ExecOptions,
    m: Option<&mut PlanMetrics>,
) -> RelResult<CodedBatch> {
    check_arities(op, l.arity(), r.arity())?;
    let right = r.row_table();
    let parts = traced_morsels(m, l.len(), opts.dop(l.len()), |range| {
        let mut part = CodedBatch::empty(l.arity());
        for i in range {
            let row = l.row(i);
            if right.find(row).is_some() == present {
                part.push(row)?;
            }
        }
        Ok(part)
    })?;
    concat_coded(l.arity(), parts)
}

fn validate_fixpoint_shape(
    join: &[(usize, usize)],
    project: &[usize],
    arity: usize,
    step_arity: usize,
) -> RelResult<()> {
    validate_keys(join, arity, step_arity)?;
    for &p in project {
        if p >= arity + step_arity {
            return Err(RelError::PositionOutOfRange {
                position: p,
                arity: arity + step_arity,
            });
        }
    }
    if project.len() != arity {
        return Err(RelError::IncompatibleArities {
            op: "fixpoint projection",
            left: arity,
            right: project.len(),
        });
    }
    Ok(())
}

/// The `max_fixpoint_iters` safety valve: counts the round about to
/// start and fails with a typed [`RelError::IterationLimit`] once the
/// budget is exhausted.
fn check_iteration_budget(iterations: &mut usize, opts: &ExecOptions) -> RelResult<()> {
    *iterations += 1;
    if let Some(limit) = opts.max_fixpoint_iters {
        if *iterations > limit {
            return Err(RelError::IterationLimit {
                limit,
                iterations: *iterations,
            });
        }
    }
    Ok(())
}

/// A `Fixpoint`'s parameters besides its inputs.
struct FixpointShape<'p> {
    join: &'p [(usize, usize)],
    project: &'p [usize],
    skip: usize,
    rounds: Option<usize>,
}

impl FixpointShape<'_> {
    /// `k` when `∘` composes endpoint pairs: a row of arity `n = 2k + l`
    /// reads `(s̄, t̄, p̄)`, an edge from the source endpoint `(s̄, p̄)` to
    /// the target endpoint `(t̄, p̄)`, and `acc.t̄ = s.s̄ ∧ acc.p̄ = s.p̄`
    /// emits `(acc.s̄, s.t̄, s.p̄)`. A pattern's identifier pairs have
    /// `l = 0`; the logic side's `TC` carries its parameters as `p̄`.
    fn pair_width(&self, arity: usize, step_arity: usize) -> Option<usize> {
        let k = arity.checked_sub(self.join.len())?;
        let join = (0..k)
            .map(|i| (k + i, i))
            .chain((2 * k..arity).map(|i| (i, i)));
        let project = (0..k).chain(arity + k..2 * arity);
        (step_arity == arity
            && 2 * k <= arity
            && self.join.iter().copied().eq(join)
            && self.project.iter().copied().eq(project))
        .then_some(k)
    }
}

/// The source endpoint `(s̄, p̄)` of a pair row, gathered into `key`.
fn source<'k>(row: &[u32], k: usize, key: &'k mut Vec<u32>) -> &'k [u32] {
    key.clear();
    key.extend_from_slice(&row[..k]);
    key.extend_from_slice(&row[2 * k..]);
    key
}

/// `⋃_{i=skip}^{skip+rounds} base ∘ stepⁱ` of a pair-shaped step, as
/// frontier sweeps over dense ids. The step's endpoint tuples are
/// interned once — the [`RowTable`] ids are the dense ids — into a
/// CSR. The base rows are grouped by source endpoint and each group's
/// targets seed a frontier. `skip` exact-length steps move it: a
/// frontier equal to the one `λ` steps earlier repeats with period
/// `λ`, so the rest of the skip is taken modulo `λ` (Brent's cycle
/// detection). Level-by-level steps with a reused visited bitset then
/// reach what lies within `rounds` more. Level `j` over all groups is
/// the semi-naive round-`j` Δ the profile records, and
/// `max_fixpoint_iters` is checked once per level. Every `Fixpoint` the
/// system builds has that shape (compiled repetition and the logic
/// side's `TC`); any other is a typed error.
fn fixpoint_coded(
    base: CodedBatch,
    step: &CodedBatch,
    shape: &FixpointShape<'_>,
    opts: &ExecOptions,
    m: Option<&mut PlanMetrics>,
) -> RelResult<CodedBatch> {
    let arity = base.arity();
    validate_fixpoint_shape(shape.join, shape.project, arity, step.arity())?;
    let Some(k) = shape.pair_width(arity, step.arity()) else {
        return Err(RelError::IncompatibleArities {
            op: "fixpoint over a non-pair step",
            left: arity,
            right: step.arity(),
        });
    };
    let mut ends = RowTable::with_capacity(arity - k, 2 * step.len());
    let mut key = Vec::with_capacity(arity - k);
    let (from, to): (Vec<u32>, Vec<u32>) = step
        .iter()
        .map(|row| {
            (
                ends.insert(source(row, k, &mut key)).0,
                ends.insert(&row[k..]).0,
            )
        })
        .unzip();
    let csr = Postings::group(ends.len(), &from, |i| to[i]);
    let mut sources = RowTable::with_capacity(arity - k, base.len());
    let (mut group_of, mut seeds) = (Vec::new(), Vec::new());
    for row in base.iter() {
        group_of.push(sources.insert(source(row, k, &mut key)).0);
        seeds.push(ends.insert(&row[k..]).0);
    }
    let groups = Postings::group(sources.len(), &group_of, |i| seeds[i]);
    let (mut seen, mut deltas) = (Vec::new(), Vec::new());
    let (mut frontier, mut next, mut reached, mut checkpoint) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut out = CodedBatch::empty(arity);
    for g in 0..sources.len() as u32 {
        frontier.clear();
        frontier.extend_from_slice(groups.get(g));
        frontier.sort_unstable();
        frontier.dedup();
        checkpoint.clone_from(&frontier);
        let (mut level, mut power, mut lambda) = (0, 1, 0);
        while level < shape.skip && !frontier.is_empty() {
            next.clear();
            expand(&csr, &frontier, &mut seen, &mut next);
            unmark(&mut seen, &next);
            next.sort_unstable();
            std::mem::swap(&mut frontier, &mut next);
            (level, lambda) = (level + 1, lambda + 1);
            if frontier == checkpoint {
                level = shape.skip - (shape.skip - level) % lambda;
            } else if lambda == power {
                checkpoint.clone_from(&frontier);
                (power, lambda) = (2 * power, 0);
            }
        }
        for &v in &frontier {
            mark(&mut seen, v);
        }
        reached.clone_from(&frontier);
        let mut level = 0;
        while !frontier.is_empty() && shape.rounds.is_none_or(|r| level < r) {
            if deltas.len() == level {
                deltas.push(0);
            }
            deltas[level] += frontier.len() as u64;
            check_iteration_budget(&mut level, opts)?;
            next.clear();
            expand(&csr, &frontier, &mut seen, &mut next);
            reached.extend_from_slice(&next);
            std::mem::swap(&mut frontier, &mut next);
        }
        unmark(&mut seen, &reached);
        let s = &sources.row(g)[..k];
        for id in &reached {
            out.push_concat(s, ends.row(*id))?;
        }
    }
    if let Some(node) = m.filter(|_| !deltas.is_empty()) {
        node.iterations = Some(deltas);
    }
    Ok(out)
}

/// Marks and appends to `next` every unmarked successor of `frontier`.
fn expand(csr: &Postings, frontier: &[u32], seen: &mut Vec<u64>, next: &mut Vec<u32>) {
    for &u in frontier {
        for &t in csr.get(u) {
            if mark(seen, t) {
                next.push(t);
            }
        }
    }
}

/// Sets bit `id`, growing the set as needed; whether it was clear.
fn mark(seen: &mut Vec<u64>, id: u32) -> bool {
    let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
    if word >= seen.len() {
        seen.resize(word + 1, 0);
    }
    let clear = seen[word] & bit == 0;
    seen[word] |= bit;
    clear
}

fn unmark(seen: &mut [u64], ids: &[u32]) {
    for &id in ids {
        seen[id as usize / 64] &= !(1u64 << (id % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_relational::Relation;
    use pgq_value::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert("R", tuple![1, 10]).unwrap();
        db.insert("R", tuple![2, 20]).unwrap();
        db.insert("S", tuple![10]).unwrap();
        db.insert("E", tuple![0, 1]).unwrap();
        db.insert("E", tuple![1, 2]).unwrap();
        db.insert("E", tuple![2, 3]).unwrap();
        db
    }

    #[test]
    fn scan_filter_project() {
        let d = db();
        let plan = PhysPlan::Scan("R".into())
            .filter(RowCondition::col_eq_const(0, 1))
            .project(vec![1]);
        let out = execute(&plan, &d).unwrap().into_relation();
        assert_eq!(out, Relation::unary([10i64]));
        assert!(execute(&PhysPlan::Scan("Nope".into()), &d).is_err());
    }

    #[test]
    fn hash_join_equals_filtered_product() {
        let d = db();
        let join = PhysPlan::Scan("R".into()).hash_join(PhysPlan::Scan("S".into()), vec![(1, 0)]);
        let reference = PhysPlan::Product {
            left: Box::new(PhysPlan::Scan("R".into())),
            right: Box::new(PhysPlan::Scan("S".into())),
        }
        .filter(RowCondition::col_eq(1, 2));
        assert_eq!(
            execute(&join, &d).unwrap().into_relation(),
            execute(&reference, &d).unwrap().into_relation()
        );
    }

    #[test]
    fn union_diff_distinct() {
        let d = db();
        let s = PhysPlan::Scan("S".into());
        let r1 = PhysPlan::Scan("R".into()).project(vec![1]);
        let u = PhysPlan::Union {
            left: Box::new(r1.clone()),
            right: Box::new(s.clone()),
        };
        assert_eq!(execute(&u, &d).unwrap().into_relation().len(), 2);
        let diff = PhysPlan::Diff {
            left: Box::new(r1.clone()),
            right: Box::new(s.clone()),
        };
        assert_eq!(
            execute(&diff, &d).unwrap().into_relation(),
            Relation::unary([20i64])
        );
        let mismatched = PhysPlan::Union {
            left: Box::new(PhysPlan::Scan("R".into())),
            right: Box::new(s),
        };
        assert!(execute(&mismatched, &d).is_err());
        let dup = PhysPlan::Distinct {
            input: Box::new(PhysPlan::Union {
                left: Box::new(r1.clone()),
                right: Box::new(r1),
            }),
        };
        assert_eq!(execute(&dup, &d).unwrap().len(), 2);
    }

    #[test]
    fn fixpoint_transitive_closure() {
        let d = db();
        let edges = PhysPlan::Scan("E".into());
        let tc = PhysPlan::Fixpoint {
            base: Box::new(edges.clone()),
            step: Box::new(edges),
            join: vec![(1, 0)],
            project: vec![0, 3],
            skip: 0,
            rounds: None,
        };
        let out = execute(&tc, &d).unwrap().into_relation();
        // 3+2+1 pairs on the 4-chain.
        assert_eq!(out.len(), 6);
        assert!(out.contains(&tuple![0, 3]));
        assert!(!out.contains(&tuple![3, 0]));

        // Binary identifiers (k = 2): pair-steps (0,i) → (0,i+1),
        // joined on both components of the target.
        let steps = Batch::from_rows(4, [tuple![0, 0, 0, 1], tuple![0, 1, 0, 2]]).unwrap();
        let tc = PhysPlan::Fixpoint {
            base: Box::new(PhysPlan::Values(steps.clone())),
            step: Box::new(PhysPlan::Values(steps)),
            join: vec![(2, 0), (3, 1)],
            project: vec![0, 1, 6, 7],
            skip: 0,
            rounds: None,
        };
        let out = execute(&tc, &d).unwrap().into_relation();
        assert_eq!(out.len(), 3);
        assert!(out.contains(&tuple![0, 0, 0, 2]));

        // A parameter column stays fixed along a path: two colored
        // edges chain only within a color.
        let colored = Batch::from_rows(
            3,
            [
                tuple![0, 1, "red"],
                tuple![1, 2, "blue"],
                tuple![1, 2, "red"],
            ],
        )
        .unwrap();
        let tc = PhysPlan::Fixpoint {
            base: Box::new(PhysPlan::Values(colored.clone())),
            step: Box::new(PhysPlan::Values(colored)),
            join: vec![(1, 0), (2, 2)],
            project: vec![0, 4, 5],
            skip: 0,
            rounds: None,
        };
        let out = execute(&tc, &d).unwrap().into_relation();
        assert!(out.contains(&tuple![0, 2, "red"]));
        assert!(!out.contains(&tuple![0, 2, "blue"]));
    }

    #[test]
    fn fixpoint_on_a_cycle_terminates() {
        let mut d = Database::new();
        for (s, t) in [(0i64, 1i64), (1, 2), (2, 0)] {
            d.insert("C", tuple![s, t]).unwrap();
        }
        let edges = PhysPlan::Scan("C".into());
        let tc = PhysPlan::Fixpoint {
            base: Box::new(edges.clone()),
            step: Box::new(edges),
            join: vec![(1, 0)],
            project: vec![0, 3],
            skip: 0,
            rounds: None,
        };
        let out = execute(&tc, &d).unwrap().into_relation();
        assert_eq!(out.len(), 9); // complete digraph on 3 nodes
    }

    #[test]
    fn fixpoint_validates_shape() {
        let d = db();
        let edges = PhysPlan::Scan("E".into());
        let bad = PhysPlan::Fixpoint {
            base: Box::new(edges.clone()),
            step: Box::new(edges.clone()),
            join: vec![(1, 9)],
            project: vec![0, 3],
            skip: 0,
            rounds: None,
        };
        assert!(execute(&bad, &d).is_err());
        let bad = PhysPlan::Fixpoint {
            base: Box::new(edges.clone()),
            step: Box::new(edges),
            join: vec![(1, 0)],
            project: vec![0],
            skip: 0,
            rounds: None,
        };
        assert!(execute(&bad, &d).is_err());
    }

    #[test]
    fn empty_and_zero_arity_inputs() {
        let mut d = Database::new();
        d.add_relation("Empty", Relation::empty(2));
        let tc = PhysPlan::Fixpoint {
            base: Box::new(PhysPlan::Scan("Empty".into())),
            step: Box::new(PhysPlan::Scan("Empty".into())),
            join: vec![(1, 0)],
            project: vec![0, 3],
            skip: 0,
            rounds: None,
        };
        assert!(execute(&tc, &d).unwrap().is_empty());
        // π_∅ over a non-empty input is Boolean true.
        d.insert("R", tuple![1]).unwrap();
        d.insert("R", tuple![2]).unwrap();
        let unit = PhysPlan::Scan("R".into()).project(Vec::<usize>::new());
        assert_eq!(
            execute(&unit, &d).unwrap().into_relation(),
            Relation::r#true()
        );
        // Zero-width rows and keys: every row is the one empty row.
        let both = |l: PhysPlan, r: PhysPlan| (Box::new(l), Box::new(r));
        let (left, right) = both(unit.clone(), unit.clone());
        let zero_tc = PhysPlan::Fixpoint {
            base: left.clone(),
            step: right.clone(),
            join: vec![],
            project: vec![],
            skip: 2,
            rounds: None,
        };
        for (plan, rows) in [
            (unit.clone().distinct(), 1),
            (PhysPlan::Diff { left, right }, 0),
            (unit.clone().hash_join(unit.clone(), vec![]), 2),
            (zero_tc, 1),
        ] {
            assert_eq!(execute(&plan, &d).map(|b| b.len()), Ok(rows), "{plan}");
        }
    }

    /// Runs a plan under a store down to the set boundary.
    fn run(plan: &PhysPlan, d: &Database, store: &Store) -> Relation {
        execute_opts(plan, d, Some(store), &ExecOptions::default())
            .unwrap()
            .into_relation()
            .unwrap()
    }

    /// Every store-backed operator against the storeless truth — the
    /// unit-sized version of `tests/prop_store.rs`.
    #[test]
    fn store_backed_plans_agree_with_storeless() {
        let d = db();
        let store = Store::from_database(&d);
        let tc = PhysPlan::Fixpoint {
            base: Box::new(PhysPlan::IndexScan("E".into())),
            step: Box::new(PhysPlan::IndexScan("E".into())),
            join: vec![(1, 0)],
            project: vec![0, 3],
            skip: 0,
            rounds: None,
        };
        let plans = [
            PhysPlan::IndexScan("R".into()).filter(RowCondition::col_cmp_const(
                1,
                pgq_relational::CmpOp::Gt,
                15,
            )),
            PhysPlan::IndexScan("R".into())
                .hash_join(PhysPlan::IndexScan("S".into()), vec![(1, 0)]),
            PhysPlan::AdjacencyExpand {
                input: Box::new(PhysPlan::IndexScan("E".into()).project(vec![1])),
                key: 0,
                rel: "E".into(),
                reverse: false,
            }
            .project(vec![2]),
            PhysPlan::AdjacencyExpand {
                input: Box::new(PhysPlan::IndexScan("E".into()).project(vec![0])),
                key: 0,
                rel: "E".into(),
                reverse: true,
            },
            PhysPlan::Union {
                left: Box::new(PhysPlan::IndexScan("S".into())),
                right: Box::new(PhysPlan::IndexScan("R".into()).project(vec![1]).distinct()),
            },
            PhysPlan::Diff {
                left: Box::new(PhysPlan::IndexScan("R".into()).project(vec![1])),
                right: Box::new(PhysPlan::IndexScan("S".into())),
            },
            tc,
            // A store scan united with a `Values` row the store never
            // interned: the scratch layer keeps the union on codes.
            PhysPlan::Union {
                left: Box::new(PhysPlan::IndexScan("S".into())),
                right: Box::new(PhysPlan::Values(Batch::from_rows(1, [tuple![77]]).unwrap())),
            },
        ];
        for plan in &plans {
            // The no-store executor degrades IndexScan/AdjacencyExpand
            // to database scans and hash joins — the storeless truth.
            let truth = execute(plan, &d).unwrap().into_relation();
            assert_eq!(run(plan, &d, &store), truth, "disagrees on:\n{plan}");
        }
    }

    /// Parallel execution is byte-identical to sequential — the unit
    /// version of the {1, 2, 8}-thread differential properties, hitting
    /// every parallel operator on batches spanning several morsels.
    #[test]
    fn parallel_execution_matches_sequential() {
        use crate::parallel::MORSEL_ROWS;
        let mut d = Database::new();
        let n = (2 * MORSEL_ROWS + 7) as i64;
        for i in 0..n {
            d.insert("E", tuple![i % 977, (i * 7) % 977]).unwrap();
            d.insert("V", tuple![i % 911]).unwrap();
        }
        let store = Store::from_database(&d);
        let expand = PhysPlan::AdjacencyExpand {
            input: Box::new(PhysPlan::IndexScan("V".into())),
            key: 0,
            rel: "E".into(),
            reverse: false,
        };
        let plans = [
            PhysPlan::IndexScan("E".into())
                .filter(RowCondition::col_cmp_const(
                    0,
                    pgq_relational::CmpOp::Lt,
                    500,
                ))
                .project(vec![1, 0])
                .distinct(),
            PhysPlan::IndexScan("E".into())
                .hash_join(PhysPlan::IndexScan("V".into()), vec![(1, 0)]),
            expand.clone().project(vec![2]).distinct(),
            PhysPlan::Diff {
                left: Box::new(PhysPlan::IndexScan("E".into()).project(vec![0])),
                right: Box::new(PhysPlan::IndexScan("V".into())),
            },
        ];
        let seq = ExecOptions::sequential();
        for plan in &plans {
            // With and without the store: the storeless run interns its
            // scans on the calling thread, then runs the same operators.
            for store in [Some(&store), None] {
                let sequential = execute_opts(plan, &d, store, &seq).unwrap();
                for threads in [2, 8] {
                    let par = ExecOptions::with_threads(threads);
                    let parallel = execute_opts(plan, &d, store, &par).unwrap();
                    // Byte-identical batches: same codes, same rows,
                    // same order — before any set boundary.
                    assert_eq!(
                        parallel.batch(),
                        sequential.batch(),
                        "{threads} threads disagrees on:\n{plan}"
                    );
                }
            }
        }
    }

    /// `EXPLAIN`'s `⟨dop≤n⟩` marker is the executor's own account: at
    /// 4 threads over multi-morsel inputs, exactly the operators
    /// [`PhysPlan::parallel_capable`] names run on more than one worker.
    #[test]
    fn parallel_marker_is_what_the_executor_splits() {
        use crate::metrics::PlanMetrics;
        use crate::parallel::MORSEL_ROWS;
        fn check(plan: &PhysPlan, m: &PlanMetrics) {
            assert_eq!(m.dop > 1, plan.parallel_capable(), "{m:?}");
            for (p, c) in plan.children().into_iter().zip(&m.children) {
                check(p, c);
            }
        }
        let mut d = Database::new();
        let n = (2 * MORSEL_ROWS + 7) as i64;
        for i in 0..n {
            d.insert("E", tuple![i, (i * 7) % n]).unwrap();
            d.insert("V", tuple![i]).unwrap();
            // A matching: its closure is itself, reached in one round.
            d.insert("M", tuple![i, i + n]).unwrap();
        }
        let store = Store::from_database(&d);
        let fixpoint = |step: PhysPlan| PhysPlan::Fixpoint {
            base: Box::new(PhysPlan::IndexScan("M".into())),
            step: Box::new(step),
            join: vec![(1, 0)],
            project: vec![0, 3],
            skip: 0,
            rounds: None,
        };
        let expand = PhysPlan::AdjacencyExpand {
            input: Box::new(PhysPlan::IndexScan("V".into())),
            key: 0,
            rel: "E".into(),
            reverse: false,
        };
        let plans = [
            fixpoint(PhysPlan::IndexScan("M".into())),
            fixpoint(PhysPlan::Scan("M".into())),
            expand.project(vec![2]).distinct(),
            PhysPlan::IndexScan("E".into())
                .filter(RowCondition::col_cmp_const(
                    0,
                    pgq_relational::CmpOp::Lt,
                    n - 7,
                ))
                .hash_join(PhysPlan::IndexScan("V".into()), vec![(1, 0)]),
            PhysPlan::IndexScan("V".into()).hash_join(PhysPlan::IndexScan("V".into()), vec![]),
            PhysPlan::Diff {
                left: Box::new(PhysPlan::IndexScan("E".into()).project(vec![0])),
                right: Box::new(PhysPlan::IndexScan("V".into())),
            },
        ];
        let opts = ExecOptions::with_threads(4);
        for plan in &plans {
            let (_, m) = execute_profiled(plan, &d, Some(&store), &opts).unwrap();
            check(plan, &m);
        }
    }

    fn seek(rel: &str, col: usize, value: impl Into<Value>) -> PhysPlan {
        PhysPlan::IndexSeek {
            rel: rel.into(),
            col,
            value: value.into(),
        }
    }

    /// An `IndexSeek` is the filter it stands for: storeless (where it
    /// degrades to that filter over a scan) and off the CSR, on either
    /// column, hit or miss.
    #[test]
    fn seek_equals_the_filter_it_stands_for() {
        let d = db();
        let store = Store::from_database(&d);
        for (col, value) in [(0, 1), (1, 1), (0, 3), (1, 0), (0, 77)] {
            let plan = seek("E", col, value);
            let filter = PhysPlan::Scan("E".into()).filter(RowCondition::col_eq_const(col, value));
            let truth = execute(&filter, &d).unwrap().into_relation();
            assert_eq!(execute(&plan, &d).unwrap().into_relation(), truth, "{plan}");
            assert_eq!(run(&plan, &d, &store), truth, "{plan}");
        }
    }

    /// A constant the store never interned is resolved before the
    /// index is touched: no rows, no counter moves.
    #[test]
    fn seeking_a_never_interned_constant_reads_nothing() {
        let d = db();
        let store = Store::from_database(&d);
        let before = store.counters().snapshot();
        assert!(run(&seek("E", 1, "nobody"), &d, &store).is_empty());
        let delta = store.counters().snapshot().since(&before);
        assert_eq!(delta.csr_neighbor_rows + delta.index_scan_rows, 0);
        assert_eq!(delta.dense_reads + delta.overlay_reads, 0);
        // An interned one counts the rows it emits, and nothing else.
        assert_eq!(run(&seek("E", 1, 2), &d, &store).len(), 1);
        let delta = store.counters().snapshot().since(&before);
        assert_eq!((delta.csr_neighbor_rows, delta.index_scan_rows), (1, 0));
        assert_eq!((delta.dense_reads, delta.overlay_reads), (1, 0));
    }

    /// A malformed seek is a typed error with and without a store.
    #[test]
    fn seek_validates_column_and_relation() {
        let d = db();
        let store = Store::from_database(&d);
        for store in [Some(&store), None] {
            for (plan, column) in [
                (seek("E", 2, 1), true),
                (seek("S", 0, 10), false),
                (seek("Missing", 0, 1), false),
            ] {
                let err = execute_with(&plan, &d, store).unwrap_err();
                assert_eq!(
                    matches!(err, RelError::PositionOutOfRange { .. }),
                    column,
                    "{plan}: {err}"
                );
            }
        }
    }

    /// The expand probe key is validated before any probe.
    #[test]
    fn expand_validates_key() {
        let d = db();
        let store = Store::from_database(&d);
        let bad = PhysPlan::AdjacencyExpand {
            input: Box::new(PhysPlan::IndexScan("S".into())),
            key: 5,
            rel: "E".into(),
            reverse: false,
        };
        assert!(execute_with(&bad, &d, Some(&store)).is_err());
        assert!(execute(&bad, &d).is_err());
    }

    /// Out-of-range positions surface as typed errors — never a panic —
    /// on every operator that projects or joins by position.
    #[test]
    fn bad_positions_error_typed_not_panic() {
        let d = db();
        let plans = [
            PhysPlan::Scan("R".into()).project(vec![9]),
            PhysPlan::Scan("R".into()).filter(RowCondition::col_eq(0, 9)),
            PhysPlan::Scan("R".into()).hash_join(PhysPlan::Scan("S".into()), vec![(9, 0)]),
            PhysPlan::Scan("R".into()).hash_join(PhysPlan::Scan("S".into()), vec![(0, 9)]),
            PhysPlan::Fixpoint {
                base: Box::new(PhysPlan::Scan("E".into())),
                step: Box::new(PhysPlan::Scan("E".into())),
                join: vec![(1, 0)],
                project: vec![0, 9],
                skip: 0,
                rounds: None,
            },
        ];
        for plan in &plans {
            assert!(
                matches!(execute(plan, &d), Err(RelError::PositionOutOfRange { .. })),
                "{plan}"
            );
        }
    }

    /// A bounded fixpoint is `⋃_{i=skip}^{skip+rounds} base ∘ stepⁱ`,
    /// computed by iterating the composition — on a cycle with a tail
    /// (so powers repeat with period 3 and never square to themselves),
    /// on a graph whose powers do, and with `skip` far past the node
    /// count. A skip over a step that is not a pair relation is a typed
    /// error.
    #[test]
    fn bounded_fixpoint_is_the_union_of_powers() {
        use std::collections::BTreeSet;
        let compose = |a: &BTreeSet<(i64, i64)>, b: &BTreeSet<(i64, i64)>| {
            let mut out = BTreeSet::new();
            for &(s, m) in a {
                out.extend(b.iter().filter(|(x, _)| *x == m).map(|&(_, t)| (s, t)));
            }
            out
        };
        let graphs: [&[(i64, i64)]; 2] = [
            &[(0, 1), (1, 2), (2, 0), (3, 0)],
            &[(0, 1), (1, 1), (1, 2), (2, 0)],
        ];
        for edges in graphs {
            let mut d = Database::new();
            for &(s, t) in edges {
                d.insert("E", tuple![s, t]).unwrap();
            }
            for v in 0..4i64 {
                d.insert("Id", tuple![v, v]).unwrap();
            }
            let step: BTreeSet<(i64, i64)> = edges.iter().copied().collect();
            for skip in [0, 1, 2, 5, 40] {
                for rounds in [Some(0), Some(1), Some(3), None] {
                    let mut power: BTreeSet<(i64, i64)> = (0..4).map(|v| (v, v)).collect();
                    for _ in 0..skip {
                        power = compose(&power, &step);
                    }
                    let mut want = power.clone();
                    for _ in 0..rounds.unwrap_or(16) {
                        power = compose(&power, &step);
                        want.extend(&power);
                    }
                    let plan = PhysPlan::Fixpoint {
                        base: Box::new(PhysPlan::Scan("Id".into())),
                        step: Box::new(PhysPlan::Scan("E".into())),
                        join: vec![(1, 0)],
                        project: vec![0, 3],
                        skip,
                        rounds,
                    };
                    let want = Relation::from_rows(2, want.iter().map(|&(s, t)| tuple![s, t]));
                    let got = execute(&plan, &d).unwrap().into_relation();
                    assert_eq!(
                        got,
                        want.unwrap(),
                        "{edges:?}, skip {skip}, rounds {rounds:?}"
                    );
                }
            }
        }
        let d = db();
        let params = PhysPlan::Fixpoint {
            base: Box::new(PhysPlan::Scan("E".into())),
            step: Box::new(PhysPlan::Scan("E".into())),
            join: vec![(1, 0)],
            project: vec![0, 1],
            skip: 1,
            rounds: None,
        };
        assert!(matches!(
            execute(&params, &d),
            Err(RelError::IncompatibleArities { .. })
        ));
    }

    /// `max_fixpoint_iters` converts a too-deep closure into a typed
    /// [`RelError::IterationLimit`] carrying the iteration count, on
    /// both the sequential and the parallel executor, storeless and with
    /// the step scanned from the store.
    #[test]
    fn fixpoint_iteration_limit_errors_typed() {
        let mut d = Database::new();
        for (s, t) in [(0i64, 1i64), (1, 2), (2, 0)] {
            d.insert("C", tuple![s, t]).unwrap();
        }
        let store = Store::from_database(&d);
        let tc = |edges: PhysPlan| PhysPlan::Fixpoint {
            base: Box::new(edges.clone()),
            step: Box::new(edges),
            join: vec![(1, 0)],
            project: vec![0, 3],
            skip: 0,
            rounds: None,
        };
        let runs = [
            (tc(PhysPlan::Scan("C".into())), None),
            (tc(PhysPlan::IndexScan("C".into())), Some(&store)),
        ];
        for (tc, store) in &runs {
            for threads in [1, 4] {
                let mut opts = ExecOptions::with_threads(threads);
                opts.max_fixpoint_iters = Some(1);
                let err = execute_opts(tc, &d, *store, &opts).unwrap_err();
                assert_eq!(
                    err,
                    RelError::IterationLimit {
                        limit: 1,
                        iterations: 2
                    },
                    "{tc}"
                );
                // An adequate budget completes normally with identical rows.
                opts.max_fixpoint_iters = Some(8);
                let out = execute_opts(tc, &d, *store, &opts).unwrap();
                assert_eq!(out.into_relation().unwrap().len(), 9);
            }
        }
    }
}
