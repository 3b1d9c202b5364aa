//! The `Engine::Physical` route: Figure 3's relational shell planned
//! onto the S15 physical engine (`pgq-exec`), with reachability pattern
//! calls lowered to the semi-naive fixpoint operator.
//!
//! The route is exactly as expressive as the references — anything it
//! cannot plan natively (general pattern calls, property conditions) is
//! answered by the NFA or Figure 2 evaluators and spliced into the plan
//! as a materialized [`PhysPlan::Values`] batch — and the differential
//! suites (`tests/prop_engine.rs`) hold all three routes to identical
//! results. See DESIGN.md §5.
//!
//! Evaluation and `EXPLAIN` share one translation of the shell:
//! `shell_plan` has one rule per Figure 3 constructor and asks a
//! `Leaves` handler what a stored relation, a constant or a pattern
//! call becomes (evaluated rows, or a placeholder plus its section of
//! text), and `pgq_exec::physical_plan` is the one optimize →
//! lower-onto-store step both then take. What `EXPLAIN` prints is what
//! runs because it is the same code. Every evaluating function takes
//! the optional [`PlanMetrics`] sink the executor's operators take:
//! `None` measures nothing, `Some` is the `EXPLAIN ANALYZE` route.

use crate::eval::{build_view, try_fast, EvalConfig};
use crate::query::{Query, QueryError, ViewOp};
use pgq_exec::{
    annotate_estimates, execute_opts, execute_profiled, intersect_plan, physical_plan,
    transitive_closure_opts, transitive_closure_profiled, Batch, ExecOptions, PhysPlan,
    PlanMetrics, PlannerChoice,
};
use pgq_graph::PropertyGraph;
use pgq_pattern::{Direction, OutputItem, OutputPattern, Pattern, RepBound};
use pgq_relational::{Database, RelName, Relation, Schema};
use pgq_store::{GraphEntry, GraphForm, Store};
use pgq_value::{Tuple, Value, Var};
use std::fmt::Write as _;
use std::time::Instant;

/// The executor options a configuration resolves to (`0` = the
/// environment default).
pub(crate) fn exec_opts(cfg: EvalConfig) -> ExecOptions {
    ExecOptions::with_threads(cfg.threads).with_planner(cfg.planner)
}

/// The [`GraphForm`] a [`ViewOp`] registers under in a [`Store`].
pub fn view_form(op: ViewOp) -> GraphForm {
    match op {
        ViewOp::Unary => GraphForm::Exact(1),
        ViewOp::Bounded(n) => GraphForm::Bounded(n),
        ViewOp::Ext => GraphForm::Ext,
    }
}

/// What [`shell_plan`] plans at the leaves of the relational shell.
trait Leaves {
    /// A stored relation `R`.
    fn rel(&mut self, name: &RelName) -> Result<PhysPlan, QueryError>;
    /// A constant `c`.
    fn constant(&mut self, c: &Value) -> Result<PhysPlan, QueryError>;
    /// A pattern call `ψΩ(Q1, …, Q6)`.
    fn pattern(
        &mut self,
        out: &OutputPattern,
        views: &[Query; 6],
        op: ViewOp,
    ) -> Result<PhysPlan, QueryError>;
}

/// Lowers the relational shell of a query onto the physical IR, one
/// rule per constructor; the storage lowering happens later, in
/// [`physical_plan`] — under either planner the plans are semantically
/// identical (the differential suites enforce it), only shapes change.
fn shell_plan(q: &Query, leaves: &mut impl Leaves) -> Result<PhysPlan, QueryError> {
    let mut binary = |a: &Query, b: &Query| -> Result<_, QueryError> {
        Ok((
            Box::new(shell_plan(a, leaves)?),
            Box::new(shell_plan(b, leaves)?),
        ))
    };
    Ok(match q {
        Query::Rel(name) => leaves.rel(name)?,
        Query::Const(c) => leaves.constant(c)?,
        Query::Pattern { out, views, op } => leaves.pattern(out, views, *op)?,
        Query::Project(pos, q) => shell_plan(q, leaves)?.project(pos.clone()),
        Query::Select(cond, q) => shell_plan(q, leaves)?.filter(cond.clone()),
        Query::Product(a, b) => {
            let (left, right) = binary(a, b)?;
            PhysPlan::Product { left, right }
        }
        Query::Union(a, b) => {
            let (left, right) = binary(a, b)?;
            PhysPlan::Union { left, right }
        }
        // Plan the derived intersection `Q − (Q − Q′)` as a real
        // intersection join (`Query::intersect`).
        Query::Diff(a, b) => match q.as_intersection() {
            Some((l, r)) => intersect_plan(shell_plan(l, leaves)?, shell_plan(r, leaves)?),
            None => {
                let (left, right) = binary(a, b)?;
                PhysPlan::Diff { left, right }
            }
        },
    })
}

/// The evaluating [`Leaves`]: pattern calls and constants become
/// materialized `Values` (evaluated with the same configuration, so
/// nested shells are planned too).
struct Evaluate<'a> {
    db: &'a Database,
    cfg: EvalConfig,
    store: Option<&'a Store>,
}

impl Leaves for Evaluate<'_> {
    fn rel(&mut self, name: &RelName) -> Result<PhysPlan, QueryError> {
        Ok(match self.db.get(name) {
            // `Database::schema` omits 0-ary relations (the paper's
            // schemas are positive-arity), so scan those by value.
            Some(rel) if rel.arity() == 0 => PhysPlan::Values(Batch::from_relation(rel)),
            _ => PhysPlan::Scan(name.clone()),
        })
    }

    fn constant(&mut self, c: &Value) -> Result<PhysPlan, QueryError> {
        // ⟦c⟧_D := c where c ∈ adom(D) (Figure 4).
        Ok(PhysPlan::Values(if self.db.active_domain().contains(c) {
            Batch::singleton(Tuple::unary(c.clone()))
        } else {
            Batch::empty(1)
        }))
    }

    fn pattern(
        &mut self,
        out: &OutputPattern,
        views: &[Query; 6],
        op: ViewOp,
    ) -> Result<PhysPlan, QueryError> {
        let rel = eval_pattern(out, views, op, self.db, self.cfg, self.store, None)?;
        Ok(PhysPlan::Values(Batch::from_relation(&rel)))
    }
}

/// Evaluates a query through the physical engine — backed, when given,
/// by a session [`Store`] (substrate S16): base scans run on columnar
/// indexes, dictionary codes flow through the whole operator pipeline
/// (decoding exactly once at the set-semantics boundary), and
/// reachability pattern calls over graphs registered in the store are
/// answered from their frozen CSR adjacency (read through any update
/// overlay) — no per-query view rebuild, no hash-join fixpoint. The
/// store must agree with `db`: registered from it, then kept in step
/// by re-registration or by the incremental update path
/// (`Store::apply_updates`).
///
/// With a sink, `m` becomes the executed plan's metrics tree — the
/// `EXPLAIN ANALYZE` route. The relation is computed by the same code
/// either way; the tree's deterministic fields (rows, Δ-frontier
/// sizes, build sizes) are byte-identical at every thread count, only
/// the timing annotations vary.
pub(crate) fn eval_physical(
    q: &Query,
    db: &Database,
    cfg: EvalConfig,
    store: Option<&Store>,
    m: Option<&mut PlanMetrics>,
) -> Result<Relation, QueryError> {
    // A bare pattern call needs no relational plan around it — answer
    // it directly instead of staging the result through a `Values` leaf
    // (which would copy it twice).
    if let Query::Pattern { out, views, op } = q {
        return eval_pattern(out, views, *op, db, cfg, store, m);
    }
    let shell = shell_plan(q, &mut Evaluate { db, cfg, store })?;
    let plan = physical_plan(shell, &db.schema(), store, cfg.planner)?;
    let opts = exec_opts(cfg);
    let Some(m) = m else {
        return Ok(execute_opts(&plan, db, store, &opts)?.into_relation()?);
    };
    let (batch, root) = execute_profiled(&plan, db, store, &opts)?;
    *m = root;
    if let Some(store) = store {
        // The planner's cardinality estimates next to the measured
        // rows — the `est=` column of `EXPLAIN ANALYZE`.
        annotate_estimates(m, &plan, store);
    }
    Ok(batch.into_relation()?)
}

const FROZEN_ROUTE: &str = "frozen CSR reachability";
const NFA_ROUTE: &str = "NFA product-graph BFS";
const REFERENCE_ROUTE: &str = "reference (Figure 2) semantics";

fn fixpoint_route(shape: &ReachShape) -> &'static str {
    if shape.filtered {
        "semi-naive fixpoint over filtered step edges"
    } else {
        "semi-naive fixpoint over view edges"
    }
}

/// A pattern call on the physical route. When the six views are plain
/// base relations matching a graph frozen in the store, reachability
/// outputs are answered from its CSR index directly — the view was
/// validated once at registration, so nothing is rebuilt. Otherwise
/// the view is built from physically-evaluated subqueries; reachability
/// shapes run on the fixpoint operator; everything else falls back to
/// NFA, then reference.
///
/// There is no operator tree to annotate, so with a sink the answering
/// route itself becomes the node `m` — the profile never lies about
/// which engine answered — and the fixpoint route hangs its semi-naive
/// iteration trace (per-round Δ sizes) underneath.
fn eval_pattern(
    out: &OutputPattern,
    views: &[Query; 6],
    op: ViewOp,
    db: &Database,
    cfg: EvalConfig,
    store: Option<&Store>,
    mut m: Option<&mut PlanMetrics>,
) -> Result<Relation, QueryError> {
    let start = m.as_ref().map(|_| Instant::now());
    let frozen = match store {
        Some(store) => try_frozen_reach(out, views, op, store)?,
        None => None,
    };
    let (route, rel) = match frozen {
        Some(rel) => (FROZEN_ROUTE, rel),
        None => {
            let graph = build_view(views, op, db, cfg)?;
            match try_fixpoint_reach(out, &graph, &exec_opts(cfg), m.as_deref_mut())? {
                Some(answer) => answer,
                None => match try_fast(out, &graph)? {
                    Some(rel) => (NFA_ROUTE, rel),
                    None => (REFERENCE_ROUTE, out.eval(&graph)?),
                },
            }
        }
    };
    if let (Some(m), Some(start)) = (m, start) {
        record_answer(m, format!("Pattern [{route}]"), &rel, start);
    }
    Ok(rel)
}

/// Marks `m` as the one executed node of a route with no operator
/// tree: labelled by the route, `rel` out, running since `start`.
pub(crate) fn record_answer(m: &mut PlanMetrics, label: String, rel: &Relation, start: Instant) {
    m.label = label;
    m.executed = true;
    m.rows_out = rel.len() as u64;
    m.elapsed_ns = start.elapsed().as_nanos() as u64;
}

/// Whether a graph frozen in the store answers this call from its CSR
/// closure — the one decision both evaluation and `EXPLAIN` take. Only
/// views that are all plain base relations can name a graph frozen from
/// exactly them under this operator; filtered steps and property items
/// need the view graph, so they fall through to the per-query route.
/// `Some` holds the graph, whether a step is required, and the pair
/// columns projected (`None` for a Boolean output).
fn frozen_reach<'s>(
    out: &OutputPattern,
    views: &[Query; 6],
    op: ViewOp,
    store: &'s Store,
) -> Option<(&'s GraphEntry, bool, Option<Vec<usize>>)> {
    let [Query::Rel(n), Query::Rel(e), Query::Rel(s), Query::Rel(t), Query::Rel(l), Query::Rel(p)] =
        views
    else {
        return None;
    };
    let names = [n, e, s, t, l, p].map(Clone::clone);
    let entry = store.graph_for_views(&names, view_form(op))?;
    let shape = reach_shape(&out.pattern).filter(|shape| !shape.filtered)?;
    let cols = match reach_proj(out, &shape)? {
        ReachProj::Boolean => None,
        ReachProj::Items(items) => Some(pair_columns(&items, entry.id_arity())?),
    };
    Some((entry, shape.at_least_one, cols))
}

/// Answers a reachability-shaped output from a graph frozen in the
/// store — Boolean non-emptiness or a projection of the endpoint-pair
/// set, read straight from the frozen (overlay-aware) CSR closure.
/// `None` when [`frozen_reach`] declines the call.
fn try_frozen_reach(
    out: &OutputPattern,
    views: &[Query; 6],
    op: ViewOp,
    store: &Store,
) -> Result<Option<Relation>, QueryError> {
    let Some((entry, at_least_one, cols)) = frozen_reach(out, views, op, store) else {
        return Ok(None);
    };
    out.pattern.validate()?;
    store.counters().record_adjacency_read(entry.has_overlay());
    let Some(cols) = cols else {
        let holds = entry.has_reach_pair() || (!at_least_one && entry.node_count() > 0);
        return Ok(Some(if holds {
            Relation::r#true()
        } else {
            Relation::r#false()
        }));
    };
    let pairs = entry.reach_relation(at_least_one);
    store
        .counters()
        .record_csr_neighbor_rows(pairs.len() as u64);
    Ok(Some(pairs.project(&cols).map_err(QueryError::Rel)?))
}

/// The reachability spine `(x) step^{n..∞} (y)` with a single
/// forward-edge step and `n ≤ 1` — the `ψreach`/`ψreach+` shapes of
/// Lemma 9.4 and the transfers workloads. Repetition discards its
/// bindings (Figure 2's `⟦ψ^{n..m}⟧` ranges over endpoint pairs with
/// `μ∅`), so the step edge may carry a variable and per-step filter
/// conditions: the call is then exactly the closure of the filtered
/// step-pair set.
struct ReachShape<'a> {
    x: Var,
    y: Var,
    at_least_one: bool,
    /// The repetition body — a forward edge under zero or more filters.
    step: &'a Pattern,
    /// Whether the step carries filter conditions. A bare step is
    /// answerable straight from a frozen CSR closure; a filtered one
    /// needs the view graph to evaluate its conditions per edge.
    filtered: bool,
}

fn reach_shape(p: &Pattern) -> Option<ReachShape<'_>> {
    let mut atoms = Vec::new();
    flatten_concat(p, &mut atoms);
    match atoms.as_slice() {
        [Pattern::Node(Some(x)), Pattern::Repeat(inner, lo, RepBound::Infinite), Pattern::Node(Some(y))]
            // (x) →* (x) constrains to cycles; not plain reachability.
            if *lo <= 1 && x != y =>
        {
            let filtered = single_forward_step(inner)?;
            Some(ReachShape {
                x: x.clone(),
                y: y.clone(),
                at_least_one: *lo == 1,
                step: inner,
                filtered,
            })
        }
        _ => None,
    }
}

/// Whether a repetition body is a single forward-edge step — bare
/// (`Some(false)`) or wrapped in filter conditions (`Some(true)`).
/// Anything else is not closure-shaped.
fn single_forward_step(p: &Pattern) -> Option<bool> {
    match p {
        Pattern::Edge(_, Direction::Forward) => Some(false),
        Pattern::Filter(inner, _) => single_forward_step(inner).map(|_| true),
        _ => None,
    }
}

/// One column source of a reachability-shaped output item; `target`
/// selects the `y` endpoint of the closure pair.
enum ReachItem {
    /// The full `k`-column endpoint identifier.
    Id { target: bool },
    /// One identifier component (`x#i`).
    Component { target: bool, index: usize },
    /// An endpoint property — needs the graph, never CSR-answerable.
    Prop { target: bool, key: pgq_value::Key },
}

/// How a reachability-shaped output consumes the endpoint pair:
/// `Boolean` for `ψ∅`, otherwise one entry per output item. `None`
/// when an item reads anything but the spine endpoints (the step
/// variable's bindings are discarded by the repetition, so such
/// outputs are not projections of the pair set).
enum ReachProj {
    Boolean,
    Items(Vec<ReachItem>),
}

fn reach_proj(out: &OutputPattern, shape: &ReachShape) -> Option<ReachProj> {
    if out.items.is_empty() {
        return Some(ReachProj::Boolean);
    }
    let target = |v: &Var| -> Option<bool> {
        if v == &shape.x {
            Some(false)
        } else if v == &shape.y {
            Some(true)
        } else {
            None
        }
    };
    let mut items = Vec::with_capacity(out.items.len());
    for item in &out.items {
        items.push(match item {
            OutputItem::Var(v) => ReachItem::Id { target: target(v)? },
            OutputItem::Component(v, i) => ReachItem::Component {
                target: target(v)?,
                index: *i,
            },
            OutputItem::Prop(v, k) => ReachItem::Prop {
                target: target(v)?,
                key: k.clone(),
            },
        });
    }
    Some(ReachProj::Items(items))
}

/// The closure-pair columns (arity `2k`) an identifier projection
/// reads — `None` when a property item or out-of-range component makes
/// it unanswerable from bare pairs.
fn pair_columns(items: &[ReachItem], k: usize) -> Option<Vec<usize>> {
    let base = |target: bool| if target { k } else { 0 };
    let mut cols = Vec::with_capacity(items.len());
    for item in items {
        match item {
            ReachItem::Id { target } => cols.extend(base(*target)..base(*target) + k),
            ReachItem::Component { target, index } => {
                if *index >= k {
                    return None;
                }
                cols.push(base(*target) + index);
            }
            ReachItem::Prop { .. } => return None,
        }
    }
    Some(cols)
}

/// Projects one closure pair through the output items. `None` skips
/// the pair — Figure 2's rule for a property undefined on its endpoint.
fn project_pair(
    items: &[ReachItem],
    s: &pgq_value::Tuple,
    t: &pgq_value::Tuple,
    g: &PropertyGraph,
) -> Option<pgq_value::Tuple> {
    let end = |target: bool| if target { t } else { s };
    let mut row: Vec<pgq_value::Value> = Vec::new();
    for item in items {
        match item {
            ReachItem::Id { target } => row.extend(end(*target).iter().cloned()),
            ReachItem::Component { target, index } => row.push(end(*target)[*index].clone()),
            ReachItem::Prop { target, key } => row.push(g.prop(end(*target), key)?.clone()),
        }
    }
    Some(row.into())
}

fn flatten_concat<'a>(p: &'a Pattern, out: &mut Vec<&'a Pattern>) {
    if let Pattern::Concat(a, b) = p {
        flatten_concat(a, out);
        flatten_concat(b, out);
    } else {
        out.push(p);
    }
}

/// Answers reachability outputs with the semi-naive fixpoint operator:
/// the graph's edges become `(src, tgt)` rows, `pgq_exec::transitive_closure_opts`
/// computes the ≥1-step pairs, and `ψ^{0..∞}` restores the reflexive
/// pairs over the view's nodes. Returns the route taken and its
/// answer, or `None` when the output is not a Boolean or endpoint
/// projection of the reachability spine. With a sink, the closure's
/// own metrics (iteration count, per-round Δ sizes) become `m`'s child
/// and its output `m`'s input — the relation is computed identically.
fn try_fixpoint_reach(
    out: &OutputPattern,
    g: &PropertyGraph,
    opts: &ExecOptions,
    m: Option<&mut PlanMetrics>,
) -> Result<Option<(&'static str, Relation)>, QueryError> {
    let Some(shape) = reach_shape(&out.pattern) else {
        return Ok(None);
    };
    let Some(proj) = reach_proj(out, &shape) else {
        return Ok(None);
    };
    let k = g.id_arity();
    if let ReachProj::Items(items) = &proj {
        // Out-of-range components fall through so the reference
        // evaluator raises its typed error.
        let in_range =
            |i: &ReachItem| !matches!(i, ReachItem::Component { index, .. } if *index >= k);
        if !items.iter().all(in_range) {
            return Ok(None);
        }
    }
    out.pattern.validate()?;

    // The step-pair set: every (src, tgt) the repetition body matches
    // in one step. A bare edge reads the adjacency directly; a filtered
    // step evaluates its conditions per edge — bindings are local to
    // the step (Figure 2's repetition discards them), so the whole call
    // is the closure of this pair set.
    let mut edges = Batch::empty(2 * k);
    if shape.filtered {
        let matches = pgq_pattern::eval_pattern(shape.step, g)?;
        for (s, t) in pgq_pattern::endpoint_pairs(&matches) {
            edges.push(s.concat(&t))?;
        }
    } else {
        // A validated view gives every edge both endpoints; a graph
        // that does not is a typed view error, not a panic.
        let missing = |which, edge: &pgq_graph::ElementId| {
            QueryError::View(pgq_graph::ViewError::MissingEndpoint {
                which,
                edge: edge.clone(),
            })
        };
        for e in g.edges() {
            let s = g.src(e).ok_or_else(|| missing("src", e))?;
            let t = g.tgt(e).ok_or_else(|| missing("tgt", e))?;
            edges.push(s.concat(t))?;
        }
    }
    let closure = match m {
        Some(m) => {
            let (closure, fixpoint) = transitive_closure_profiled(edges, k, 0, opts)?;
            m.rows_in = fixpoint.rows_out;
            m.children.push(fixpoint);
            closure
        }
        None => transitive_closure_opts(edges, k, 0, opts)?,
    };

    let route = fixpoint_route(&shape);
    let ReachProj::Items(items) = proj else {
        // Boolean output: a 0-length path exists iff the view has a node.
        let holds = !closure.is_empty() || (!shape.at_least_one && g.node_count() > 0);
        let rel = if holds {
            Relation::r#true()
        } else {
            Relation::r#false()
        };
        return Ok(Some((route, rel)));
    };

    let mut rel = Relation::empty(out.output_arity(k));
    for row in closure.iter() {
        let (s, t) = row.split_at(k);
        if let Some(projected) = project_pair(&items, &s, &t, g) {
            rel.insert(projected)?;
        }
    }
    if !shape.at_least_one {
        for n in g.nodes() {
            if let Some(projected) = project_pair(&items, n, n, g) {
                rel.insert(projected)?;
            }
        }
    }
    Ok(Some((route, rel)))
}

/// Whether the output is a Boolean or an endpoint projection of the
/// given pair — the shapes the fixpoint and NFA routes answer.
fn endpoint_output(out: &OutputPattern, x: &Var, y: &Var) -> bool {
    match out.items.as_slice() {
        [] => true,
        [OutputItem::Var(a), OutputItem::Var(b)] => (a, b) == (x, y) || (a, b) == (y, x),
        _ => false,
    }
}

/// The route [`eval_pattern`] takes for this output once the view is
/// built — mirrors the actual dispatch so `EXPLAIN` never lies.
fn route_label(out: &OutputPattern) -> &'static str {
    if let Some(shape) = reach_shape(&out.pattern) {
        if reach_proj(out, &shape).is_some() {
            return fixpoint_route(&shape);
        }
    }
    if pgq_pattern::Nfa::compile(&out.pattern).is_ok() {
        let endpoints = (
            crate::eval::leftmost_node_var(&out.pattern),
            crate::eval::rightmost_node_var(&out.pattern),
        );
        if let (Some(l), Some(r)) = endpoints {
            if endpoint_output(out, &l, &r) {
                return NFA_ROUTE;
            }
        } else if out.items.is_empty() {
            return NFA_ROUTE;
        }
    }
    REFERENCE_ROUTE
}

/// Renders the physical plan of a query as an `EXPLAIN`-style tree —
/// without evaluating anything. The relational shell is planned exactly
/// as `Engine::Physical` would plan it; each pattern call appears as a
/// `⟨matchN⟩` placeholder whose route (fixpoint / NFA / reference) and
/// view subplans are listed below the main tree.
pub fn explain(q: &Query, schema: &Schema) -> Result<String, QueryError> {
    explain_with(q, schema, None, None)
}

/// [`explain`] with everything a session adds. Under a [`Store`] the
/// plan is additionally lowered onto its indexes (`IndexScan`,
/// `AdjacencyExpand`, CSR fixpoints) by the planner `opts` selects (the
/// default without `opts`), operators that read through an update
/// overlay are marked `⟨delta⟩`, and a pattern call the store's frozen
/// CSR answers names that route. Under concrete `opts` every
/// morsel-parallel operator is annotated with its degree of parallelism
/// (`⟨dop≤n⟩`) and a trailing line states the worker budget — what the
/// shell renders after `SET THREADS n;` / `SET PLANNER rule;`. It is
/// the plan `eval_with_store` executes under the same configuration.
pub fn explain_with(
    q: &Query,
    schema: &Schema,
    store: Option<&Store>,
    opts: Option<&ExecOptions>,
) -> Result<String, QueryError> {
    q.arity(schema)?;
    let mut leaves = Explain {
        aug: schema.clone(),
        sections: Vec::new(),
        store,
        planner: opts.map_or_else(PlannerChoice::default, |o| o.planner),
    };
    let shell = shell_plan(q, &mut leaves)?;
    let plan = physical_plan(shell, &leaves.aug, store, leaves.planner)?;
    let mut text = plan.display_with(store, opts);
    for s in leaves.sections {
        text.push('\n');
        text.push_str(&s);
    }
    Ok(text)
}

/// The explaining [`Leaves`]: nothing is evaluated. A pattern call
/// becomes a scan of a placeholder relation `⟨matchN⟩` — added to
/// `aug`, the query's schema as the shell is then optimized under it —
/// and a section of text naming its route and view subplans.
struct Explain<'a> {
    aug: Schema,
    sections: Vec<String>,
    store: Option<&'a Store>,
    planner: PlannerChoice,
}

impl Leaves for Explain<'_> {
    fn rel(&mut self, name: &RelName) -> Result<PhysPlan, QueryError> {
        Ok(PhysPlan::Scan(name.clone()))
    }

    fn constant(&mut self, c: &Value) -> Result<PhysPlan, QueryError> {
        Ok(PhysPlan::Values(Batch::singleton(Tuple::unary(c.clone()))))
    }

    fn pattern(
        &mut self,
        out: &OutputPattern,
        views: &[Query; 6],
        op: ViewOp,
    ) -> Result<PhysPlan, QueryError> {
        // Identifier arity is Q1's arity (`Query::arity`).
        let arity = out.output_arity(views[0].arity(&self.aug)?);
        let route = match self.store {
            Some(store) if frozen_reach(out, views, op, store).is_some() => FROZEN_ROUTE,
            _ => route_label(out),
        };
        // Render the view subplans first: nested pattern calls push
        // their own sections during this recursion, so numbering off
        // `sections.len()` afterwards keeps every placeholder unique.
        let mut body = String::new();
        let labels = ["nodes", "edges", "src", "tgt", "labels", "props"];
        for (label, view) in labels.iter().zip(views.iter()) {
            let sub = shell_plan(view, self)?;
            let sub = physical_plan(sub, &self.aug, self.store, self.planner)?;
            let _ = writeln!(body, "  {label}:");
            for line in sub.display_with(self.store, None).lines() {
                let _ = writeln!(body, "    {line}");
            }
        }
        let name = format!("⟨match{}⟩", self.sections.len() + 1);
        self.sections
            .push(format!("{name} := {out} via {op} [route: {route}]\n{body}"));
        Ok(if arity == 0 {
            // Schemas are positive-arity; a Boolean pattern call
            // cannot be a placeholder scan.
            PhysPlan::Values(Batch::empty(0))
        } else {
            self.aug.add(name.as_str(), arity);
            PhysPlan::Scan(name.as_str().into())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_with, Engine};
    use crate::{builders, Query};
    use pgq_relational::RowCondition;
    use pgq_value::tuple;

    /// The canonical 4-chain a→b→c→d.
    fn db() -> Database {
        let mut db = Database::new();
        for n in ["a", "b", "c", "d"] {
            db.insert("N", tuple![n]).unwrap();
        }
        for (e, s, t) in [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d")] {
            db.insert("E", tuple![e]).unwrap();
            db.insert("S", tuple![e, s]).unwrap();
            db.insert("T", tuple![e, t]).unwrap();
        }
        db.add_relation("L", Relation::empty(2));
        db.add_relation("P", Relation::empty(3));
        db
    }

    fn reach_query() -> Query {
        Query::pattern_ro(
            builders::reachability_output(),
            ["N", "E", "S", "T", "L", "P"],
        )
    }

    #[test]
    fn physical_reachability_agrees_with_references() {
        let d = db();
        let q = reach_query();
        let phys = eval_with(&q, &d, EvalConfig::physical()).unwrap();
        let nfa = eval_with(&q, &d, EvalConfig::default()).unwrap();
        let reference = eval_with(&q, &d, EvalConfig::reference()).unwrap();
        assert_eq!(phys, nfa);
        assert_eq!(phys, reference);
        assert_eq!(phys.len(), 10); // 4 reflexive + 6 forward pairs
    }

    #[test]
    fn physical_plus_and_boolean_shapes() {
        let d = db();
        let plus = Query::pattern_ro(
            builders::reachability_plus_output(),
            ["N", "E", "S", "T", "L", "P"],
        );
        assert_eq!(
            eval_with(&plus, &d, EvalConfig::physical()).unwrap(),
            eval_with(&plus, &d, EvalConfig::reference()).unwrap()
        );
        let boolean = Query::pattern_ro(
            pgq_pattern::OutputPattern::boolean(
                Pattern::node("x")
                    .then(Pattern::any_edge().star())
                    .then(Pattern::node("y")),
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        assert_eq!(
            eval_with(&boolean, &d, EvalConfig::physical()).unwrap(),
            Relation::r#true()
        );
    }

    /// A store with the canonical graph registered — the session setup
    /// of the S16 route.
    fn store_for(d: &Database) -> Store {
        let mut store = Store::from_database(d);
        store
            .register_view_graph(
                "G",
                ["N", "E", "S", "T", "L", "P"].map(Into::into),
                d,
                GraphForm::Exact(1),
            )
            .unwrap();
        store
    }

    #[test]
    fn store_route_agrees_on_reachability_shapes() {
        let d = db();
        let store = store_for(&d);
        for q in [
            reach_query(),
            Query::pattern_ro(
                builders::reachability_plus_output(),
                ["N", "E", "S", "T", "L", "P"],
            ),
        ] {
            assert_eq!(
                crate::eval_with_store(&q, &d, EvalConfig::physical(), &store).unwrap(),
                eval_with(&q, &d, EvalConfig::reference()).unwrap(),
                "{q}"
            );
        }
        // Boolean shape, answered without running the closure.
        let boolean = Query::pattern_ro(
            pgq_pattern::OutputPattern::boolean(
                Pattern::node("x")
                    .then(Pattern::any_edge().star())
                    .then(Pattern::node("y")),
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        assert_eq!(
            crate::eval_with_store(&boolean, &d, EvalConfig::physical(), &store).unwrap(),
            Relation::r#true()
        );
        // Swapped endpoint items.
        let swapped = Query::pattern_ro(
            pgq_pattern::OutputPattern::vars(
                Pattern::node("x")
                    .then(Pattern::any_edge().star())
                    .then(Pattern::node("y")),
                ["y", "x"],
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        assert_eq!(
            crate::eval_with_store(&swapped, &d, EvalConfig::physical(), &store).unwrap(),
            eval_with(&swapped, &d, EvalConfig::reference()).unwrap()
        );
    }

    #[test]
    fn store_route_falls_back_when_unregistered_or_non_reach() {
        let d = db();
        // Empty store: every view set misses, the per-query route runs.
        let empty = Store::from_database(&d);
        let q = reach_query();
        assert_eq!(
            crate::eval_with_store(&q, &d, EvalConfig::physical(), &empty).unwrap(),
            eval_with(&q, &d, EvalConfig::reference()).unwrap()
        );
        // Registered graph but a non-reachability pattern: fall back.
        let store = store_for(&d);
        let back = Query::pattern_ro(
            pgq_pattern::OutputPattern::vars(
                Pattern::node("x")
                    .then(Pattern::any_edge_back())
                    .then(Pattern::node("y")),
                ["x", "y"],
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        assert_eq!(
            crate::eval_with_store(&back, &d, EvalConfig::physical(), &store).unwrap(),
            eval_with(&back, &d, EvalConfig::reference()).unwrap()
        );
        // Derived (non-Rel) views can't match an entry: fall back.
        let derived = Query::pattern_rw(
            builders::reachability_output(),
            [
                Query::rel("N").union(Query::rel("N")),
                Query::rel("E"),
                Query::rel("S"),
                Query::rel("T"),
                Query::rel("L"),
                Query::rel("P"),
            ],
        );
        assert_eq!(
            crate::eval_with_store(&derived, &d, EvalConfig::physical(), &store).unwrap(),
            eval_with(&derived, &d, EvalConfig::reference()).unwrap()
        );
        // Non-physical engines ignore the store.
        assert_eq!(
            crate::eval_with_store(&q, &d, EvalConfig::default(), &store).unwrap(),
            eval_with(&q, &d, EvalConfig::default()).unwrap()
        );
    }

    /// Replacing a relation that backs frozen graphs — one relation or
    /// the whole database — drops every graph over it, siblings
    /// included, and leaves graphs over other relations alone; the
    /// pattern call then answers the new rows from the per-query route.
    #[test]
    fn replacing_a_backing_relation_drops_every_graph_over_it() {
        let mut d = db();
        for suffix in ["2", "3"] {
            d.add_relation(format!("L{suffix}"), Relation::empty(2));
            d.add_relation(format!("P{suffix}"), Relation::empty(3));
        }
        d.add_relation("N3", Relation::unary(["z"]));
        d.add_relation("E3", Relation::empty(1));
        d.add_relation("S3", Relation::empty(2));
        d.add_relation("T3", Relation::empty(2));
        let mut store = Store::from_database(&d);
        for (g, views) in [
            ("A", ["N", "E", "S", "T", "L", "P"]),
            ("B", ["N", "E", "S", "T", "L2", "P2"]),
            ("Other", ["N3", "E3", "S3", "T3", "L3", "P3"]),
        ] {
            store
                .register_view_graph(g, views.map(Into::into), &d, GraphForm::Exact(1))
                .unwrap();
        }
        // Every edge now targets "a".
        let new_t =
            Relation::from_rows(2, [tuple!["e1", "a"], tuple!["e2", "a"], tuple!["e3", "a"]])
                .unwrap();
        store.register_relation("T".into(), &new_t).unwrap();
        d.add_relation("T", new_t);
        assert!(store.graph("A").is_none());
        assert!(store.graph("B").is_none());
        assert!(store.graph("Other").is_some());
        let q = reach_query();
        let fresh = crate::eval_with_store(&q, &d, EvalConfig::physical(), &store).unwrap();
        assert_eq!(fresh, eval_with(&q, &d, EvalConfig::reference()).unwrap());
        assert!(fresh.contains(&tuple!["b", "a"]));
        assert!(!fresh.contains(&tuple!["a", "d"]));
        // A re-registered database drops every graph.
        store
            .register_view_graph(
                "A",
                ["N", "E", "S", "T", "L", "P"].map(Into::into),
                &d,
                GraphForm::Exact(1),
            )
            .unwrap();
        store.register_database(&d).unwrap();
        assert_eq!(store.graph_names().count(), 0);
        assert_eq!(
            crate::eval_with_store(&q, &d, EvalConfig::physical(), &store).unwrap(),
            fresh
        );
    }

    #[test]
    fn store_route_plans_the_relational_shell() {
        let d = db();
        let store = store_for(&d);
        let q = Query::rel("S")
            .product(Query::rel("T"))
            .select(RowCondition::col_eq(0, 2))
            .project(vec![1, 3])
            .union(reach_query());
        assert_eq!(
            crate::eval_with_store(&q, &d, EvalConfig::physical(), &store).unwrap(),
            eval_with(&q, &d, EvalConfig::reference()).unwrap()
        );
        assert_eq!(view_form(ViewOp::Bounded(2)), GraphForm::Bounded(2));
        assert_eq!(view_form(ViewOp::Ext), GraphForm::Ext);
    }

    #[test]
    fn physical_relational_shell_agrees() {
        let d = db();
        let q = Query::rel("S")
            .product(Query::rel("T"))
            .select(RowCondition::col_eq(0, 2))
            .project(vec![1, 3])
            .union(Query::rel("S").project(vec![1, 1]));
        assert_eq!(
            eval_with(&q, &d, EvalConfig::physical()).unwrap(),
            eval_with(&q, &d, EvalConfig::reference()).unwrap()
        );
        let q = Query::rel("N").intersect(Query::rel("S").project(vec![1]));
        assert_eq!(
            eval_with(&q, &d, EvalConfig::physical()).unwrap(),
            eval_with(&q, &d, EvalConfig::reference()).unwrap()
        );
    }

    #[test]
    fn physical_errors_stay_typed() {
        let d = db();
        let q = Query::rel("Missing");
        assert!(matches!(
            eval_with(&q, &d, EvalConfig::physical()).unwrap_err(),
            QueryError::Rel(_)
        ));
        let q = Query::rel("S").project(vec![9]);
        assert!(matches!(
            eval_with(&q, &d, EvalConfig::physical()).unwrap_err(),
            QueryError::Rel(_)
        ));
        // Invalid views error identically through the physical route.
        let q = Query::pattern_rw(
            builders::reachability_output(),
            [
                Query::rel("N"),
                Query::rel("N"),
                Query::rel("S"),
                Query::rel("T"),
                Query::rel("L"),
                Query::rel("P"),
            ],
        );
        assert!(matches!(
            eval_with(&q, &d, EvalConfig::physical()).unwrap_err(),
            QueryError::View(_)
        ));
    }

    #[test]
    fn cycle_constraint_pattern_is_not_misrouted() {
        // (x) →+ (x) constrains start = end (a cycle); the fixpoint
        // reachability route must decline it. The 4-chain is acyclic,
        // so every route answers false.
        let d = db();
        let q = Query::pattern_ro(
            pgq_pattern::OutputPattern::boolean(
                Pattern::node("x")
                    .then(Pattern::any_edge().plus())
                    .then(Pattern::node("x")),
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        let phys = eval_with(&q, &d, EvalConfig::physical()).unwrap();
        assert_eq!(phys, eval_with(&q, &d, EvalConfig::reference()).unwrap());
        assert_eq!(phys, Relation::r#false());
    }

    #[test]
    fn non_reachability_patterns_fall_back() {
        let d = db();
        // A backward-edge pattern: not the fixpoint shape, still correct.
        let q = Query::pattern_ro(
            pgq_pattern::OutputPattern::vars(
                Pattern::node("x")
                    .then(Pattern::any_edge_back())
                    .then(Pattern::node("y")),
                ["x", "y"],
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        assert_eq!(
            eval_with(&q, &d, EvalConfig::physical()).unwrap(),
            eval_with(&q, &d, EvalConfig::reference()).unwrap()
        );
        assert_eq!(EvalConfig::physical().engine, Engine::Physical);
    }

    #[test]
    fn explain_renders_plan_and_routes() {
        let d = db();
        let q = Query::rel("S")
            .product(Query::rel("T"))
            .select(RowCondition::col_eq(0, 2))
            .project(vec![1, 3]);
        let text = explain(&q, &d.schema()).unwrap();
        assert!(text.contains("HashJoin"), "{text}");
        assert!(!text.contains("Product"), "{text}");

        let text = explain(&reach_query(), &d.schema()).unwrap();
        assert!(text.contains("⟨match1⟩"), "{text}");
        assert!(text.contains("semi-naive fixpoint"), "{text}");
        assert!(text.contains("Scan N"), "{text}");

        // Invalid queries error instead of rendering.
        assert!(explain(&Query::rel("Missing"), &d.schema()).is_err());
    }

    #[test]
    fn explain_with_store_lowers_onto_indexes() {
        let d = db();
        let store = store_for(&d);
        let q = Query::rel("S")
            .product(Query::rel("T"))
            .select(RowCondition::col_eq(0, 2))
            .project(vec![1, 3]);
        let text = explain_with(&q, &d.schema(), Some(&store), None).unwrap();
        // The store pass lowers scans onto the columnar indexes and the
        // join onto CSR expansion: no plain `Scan` survives.
        assert!(text.contains("IndexScan"), "{text}");
        assert!(!text.contains(" Scan "), "{text}");
        // Without a store, explain_with is plain explain.
        assert_eq!(
            explain_with(&q, &d.schema(), None, None).unwrap(),
            explain(&q, &d.schema()).unwrap()
        );
    }

    /// `EXPLAIN` names the route `EXPLAIN ANALYZE` reports as having
    /// answered, with and without a graph frozen from the views.
    #[test]
    fn explain_route_is_the_route_that_runs() {
        let d = db();
        let views = ["N", "E", "S", "T", "L", "P"];
        let xy = |p: Pattern| pgq_pattern::OutputPattern::vars(p, ["x", "y"]).unwrap();
        let reach_star = Pattern::node("x")
            .then(Pattern::any_edge().star())
            .then(Pattern::node("y"));
        let one_hop = Pattern::node("x")
            .then(Pattern::edge("e"))
            .then(Pattern::node("y"))
            .filter(pgq_pattern::Condition::HasLabel("e".into(), "T".into()));
        let backward = Pattern::node("x")
            .then(Pattern::any_edge_back())
            .then(Pattern::node("y"));
        let outs = [
            builders::reachability_output(),
            builders::reachability_plus_output(),
            pgq_pattern::OutputPattern::boolean(reach_star).unwrap(),
            builders::labeled_reachability_output("T"),
            xy(one_hop),
            xy(backward),
        ];
        for store in [Store::from_database(&d), store_for(&d)] {
            for out in &outs {
                let q = Query::pattern_ro(out.clone(), views);
                let text = explain_with(&q, &d.schema(), Some(&store), None).unwrap();
                let explained = text
                    .split_once("[route: ")
                    .and_then(|(_, rest)| rest.split_once(']'))
                    .map(|(route, _)| route)
                    .unwrap_or_else(|| panic!("no route in {text}"));
                let (_, profile) =
                    crate::eval_with_store_profiled(&q, &d, EvalConfig::physical(), &store)
                        .unwrap();
                assert_eq!(
                    profile.root.label,
                    format!("Pattern [{explained}]"),
                    "{q}; graphs: {:?}",
                    store.graph_names().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn explain_numbers_nested_pattern_sections_uniquely() {
        // A pattern call whose nodes view is itself a pattern call:
        // each gets its own ⟨matchN⟩ section.
        let d = db();
        let inner_nodes = Query::pattern_ro(
            builders::reachability_output(),
            ["N", "E", "S", "T", "L", "P"],
        )
        .project(vec![0]);
        let q = Query::pattern_rw(
            builders::reachability_output(),
            [
                inner_nodes,
                Query::rel("E"),
                Query::rel("S"),
                Query::rel("T"),
                Query::rel("L"),
                Query::rel("P"),
            ],
        );
        let text = explain(&q, &d.schema()).unwrap();
        assert!(text.contains("⟨match1⟩ :="), "{text}");
        assert!(text.contains("⟨match2⟩ :="), "{text}");
    }
}
