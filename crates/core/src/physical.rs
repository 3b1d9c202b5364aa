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

use crate::eval::{build_view, try_fast, EvalConfig};
use crate::query::{Query, QueryError, ViewOp};
use pgq_exec::{
    cost_plan, execute_opts, execute_profiled, intersect_plan, optimize_plan, store_plan,
    transitive_closure_opts, transitive_closure_profiled, Batch, ExecOptions, PhysPlan,
    PlanMetrics, PlannerChoice, QueryProfile,
};
use pgq_graph::PropertyGraph;
use pgq_pattern::{Direction, OutputItem, OutputPattern, Pattern, RepBound};
use pgq_relational::{Database, Relation, Schema};
use pgq_store::{GraphForm, Store};
use pgq_value::Var;
use std::fmt::Write as _;

/// The executor options a configuration resolves to (`0` = the
/// environment default).
fn exec_opts(cfg: EvalConfig) -> ExecOptions {
    ExecOptions::with_threads(cfg.threads).with_planner(cfg.planner)
}

/// The storage-aware lowering pass the configuration selects (PR 10):
/// the statistics-driven cost pass (the default) or the fixed PR 4
/// rule rewrite. Both produce semantically identical plans — the
/// differential suites enforce it — so this only changes shapes.
fn lower_store(plan: PhysPlan, store: &Store, schema: &Schema, planner: PlannerChoice) -> PhysPlan {
    match planner {
        PlannerChoice::Cost => cost_plan(plan, store, schema),
        PlannerChoice::Rule => store_plan(plan, store),
    }
}

/// Evaluates a query through the physical engine.
pub(crate) fn eval_physical(
    q: &Query,
    db: &Database,
    cfg: EvalConfig,
) -> Result<Relation, QueryError> {
    let plan = lower(q, db, cfg, None)?;
    let plan = optimize_plan(plan, &db.schema()).map_err(QueryError::Rel)?;
    let opts = exec_opts(cfg);
    let batch = execute_opts(&plan, db, None, &opts).map_err(QueryError::Rel)?;
    batch.into_relation().map_err(QueryError::Rel)
}

/// The [`GraphForm`] a [`ViewOp`] registers under in a [`Store`].
pub fn view_form(op: ViewOp) -> GraphForm {
    match op {
        ViewOp::Unary => GraphForm::Exact(1),
        ViewOp::Bounded(n) => GraphForm::Bounded(n),
        ViewOp::Ext => GraphForm::Ext,
    }
}

/// Evaluates a query through the physical engine backed by a session
/// [`Store`] (substrate S16): base scans run on columnar indexes,
/// dictionary codes flow through the whole operator pipeline (decoding
/// exactly once at the set-semantics boundary), and reachability
/// pattern calls over graphs registered in the store are answered from
/// their frozen CSR adjacency (read through any update overlay) — no
/// per-query view rebuild, no hash-join fixpoint. The store must agree
/// with `db`: registered from it, then kept in step by re-registration
/// or by the incremental update path (`Store::apply_updates` and the
/// row-level mutators).
pub(crate) fn eval_physical_store(
    q: &Query,
    db: &Database,
    cfg: EvalConfig,
    store: &Store,
) -> Result<Relation, QueryError> {
    // A bare pattern call is the common case and needs no relational
    // plan around it — answer it directly instead of staging the
    // result through a `Values` leaf (which would copy it twice).
    if let Query::Pattern { out, views, op } = q {
        return eval_pattern_store(out, views, *op, db, cfg, store);
    }
    let plan = lower(q, db, cfg, Some(store))?;
    let plan = optimize_plan(plan, &db.schema()).map_err(QueryError::Rel)?;
    let plan = lower_store(plan, store, &db.schema(), cfg.planner);
    let opts = exec_opts(cfg);
    let batch = execute_opts(&plan, db, Some(store), &opts).map_err(QueryError::Rel)?;
    batch.into_relation().map_err(QueryError::Rel)
}

/// A pattern call on the store route. When the six views are plain
/// base relations matching a graph frozen in the store, reachability
/// outputs are answered from its CSR index directly — the view was
/// validated once at registration, so nothing is rebuilt. Everything
/// else falls back to the per-query physical route.
fn eval_pattern_store(
    out: &OutputPattern,
    views: &[Query; 6],
    op: ViewOp,
    db: &Database,
    cfg: EvalConfig,
    store: &Store,
) -> Result<Relation, QueryError> {
    if let Some(rel) = try_frozen_reach(out, views, op, store)? {
        return Ok(rel);
    }
    eval_pattern_physical(out, views, op, db, cfg)
}

/// Answers a reachability-shaped output from a graph frozen in the
/// store — Boolean non-emptiness or a projection of the endpoint-pair
/// set, read straight from the frozen (overlay-aware) CSR closure.
/// `None` when the shape, the projection, or the registration doesn't
/// allow it: filtered steps and property items need the view graph, so
/// they fall through to the per-query route.
fn try_frozen_reach(
    out: &OutputPattern,
    views: &[Query; 6],
    op: ViewOp,
    store: &Store,
) -> Result<Option<Relation>, QueryError> {
    let Some(entry) = registered_entry(views, op, store) else {
        return Ok(None);
    };
    let Some(shape) = reach_shape(&out.pattern) else {
        return Ok(None);
    };
    if shape.filtered {
        return Ok(None);
    }
    let Some(proj) = reach_proj(out, &shape) else {
        return Ok(None);
    };
    match proj {
        ReachProj::Boolean => {
            out.pattern.validate()?;
            store.counters().record_adjacency_read(entry.has_overlay());
            let holds = entry.has_reach_pair() || (!shape.at_least_one && entry.node_count() > 0);
            Ok(Some(if holds {
                Relation::r#true()
            } else {
                Relation::r#false()
            }))
        }
        ReachProj::Items(items) => {
            let Some(cols) = pair_columns(&items, entry.id_arity()) else {
                return Ok(None);
            };
            out.pattern.validate()?;
            let pairs = entry.reach_relation(shape.at_least_one, false);
            store.counters().record_adjacency_read(entry.has_overlay());
            store
                .counters()
                .record_csr_neighbor_rows(pairs.len() as u64);
            Ok(Some(pairs.project(&cols).map_err(QueryError::Rel)?))
        }
    }
}

/// [`eval_physical_store`] with a [`QueryProfile`] collected alongside
/// the result — the `EXPLAIN ANALYZE` route. The relation is computed
/// by the same code paths as the unprofiled route (held identical by
/// the metrics-invariant suite); the profile's deterministic fields
/// (rows, Δ-frontier sizes, build sizes) are byte-identical at every
/// thread count, only the timing annotations vary.
pub(crate) fn eval_physical_store_profiled(
    q: &Query,
    db: &Database,
    cfg: EvalConfig,
    store: &Store,
) -> Result<(Relation, QueryProfile), QueryError> {
    let opts = exec_opts(cfg).with_metrics(true);
    let start = std::time::Instant::now();
    let (rel, root) = if let Query::Pattern { out, views, op } = q {
        eval_pattern_store_profiled(out, views, *op, db, cfg, store)?
    } else {
        let plan = lower(q, db, cfg, Some(store))?;
        let plan = optimize_plan(plan, &db.schema()).map_err(QueryError::Rel)?;
        let plan = lower_store(plan, store, &db.schema(), cfg.planner);
        let (batch, mut root) =
            execute_profiled(&plan, db, Some(store), &opts).map_err(QueryError::Rel)?;
        // Graft the planner's cardinality estimates next to the
        // measured rows — the `est=` column of `EXPLAIN ANALYZE`. The
        // estimates are a pure function of the statistics snapshot, so
        // the non-timing rendering stays byte-identical at every
        // thread count.
        let stats = store.statistics();
        pgq_exec::annotate_estimates(&mut root, &plan, &pgq_exec::Estimator::new(&stats));
        let rel = batch.into_relation().map_err(QueryError::Rel)?;
        (rel, root)
    };
    let profile = QueryProfile {
        rows: rel.len() as u64,
        threads: opts.threads,
        elapsed_ns: start.elapsed().as_nanos() as u64,
        root,
    };
    Ok((rel, profile))
}

/// A one-node metrics tree for a pattern call answered off-plan (CSR
/// entry, NFA, or reference route) — there is no operator tree to
/// annotate, so the route itself becomes the node.
fn pattern_leaf(label: &str, rel: &Relation, start: std::time::Instant) -> PlanMetrics {
    let mut m = PlanMetrics::leaf(label);
    m.executed = true;
    m.batches = 1;
    m.rows_out = rel.len() as u64;
    m.elapsed_ns = start.elapsed().as_nanos() as u64;
    m
}

/// [`eval_pattern_store`] with metrics: the answering route becomes the
/// root node, and the fixpoint route hangs its semi-naive iteration
/// trace (per-round Δ sizes) underneath.
fn eval_pattern_store_profiled(
    out: &OutputPattern,
    views: &[Query; 6],
    op: ViewOp,
    db: &Database,
    cfg: EvalConfig,
    store: &Store,
) -> Result<(Relation, PlanMetrics), QueryError> {
    let start = std::time::Instant::now();
    if let Some(rel) = try_frozen_reach(out, views, op, store)? {
        let m = pattern_leaf("Pattern [frozen CSR reachability]", &rel, start);
        return Ok((rel, m));
    }
    eval_pattern_physical_profiled(out, views, op, db, cfg)
}

/// [`eval_pattern_physical`] with metrics — mirrors the route dispatch
/// exactly, so the profile never lies about which engine answered.
fn eval_pattern_physical_profiled(
    out: &OutputPattern,
    views: &[Query; 6],
    op: ViewOp,
    db: &Database,
    cfg: EvalConfig,
) -> Result<(Relation, PlanMetrics), QueryError> {
    let graph = build_view(views, op, db, cfg)?;
    if let Some((rel, fixpoint)) = try_fixpoint_reach_impl(out, &graph, &exec_opts(cfg), true)? {
        let filtered = reach_shape(&out.pattern).is_some_and(|s| s.filtered);
        let label = if filtered {
            "Pattern [semi-naive fixpoint over filtered step edges]"
        } else {
            "Pattern [semi-naive fixpoint over view edges]"
        };
        let mut root = PlanMetrics::leaf(label);
        root.executed = true;
        root.batches = 1;
        root.rows_out = rel.len() as u64;
        if let Some(fixpoint) = fixpoint {
            root.elapsed_ns = fixpoint.elapsed_ns;
            root.rows_in = fixpoint.rows_out;
            root.children.push(fixpoint);
        }
        return Ok((rel, root));
    }
    let start = std::time::Instant::now();
    if let Some(rel) = try_fast(out, &graph)? {
        let m = pattern_leaf("Pattern [NFA product-graph BFS]", &rel, start);
        return Ok((rel, m));
    }
    let rel = out.eval(&graph)?;
    let m = pattern_leaf("Pattern [reference (Figure 2) semantics]", &rel, start);
    Ok((rel, m))
}

/// The store entry frozen from exactly these views under this
/// operator, when every view is a plain base relation.
fn registered_entry<'a>(
    views: &[Query; 6],
    op: ViewOp,
    store: &'a Store,
) -> Option<&'a pgq_store::GraphEntry> {
    let mut names = Vec::with_capacity(6);
    for v in views {
        match v {
            Query::Rel(name) => names.push(name.clone()),
            _ => return None,
        }
    }
    let names: [pgq_relational::RelName; 6] = names.try_into().expect("six views");
    store.graph_for_views(&names, view_form(op))
}

/// Lowers the relational shell of a query onto the physical IR.
/// Pattern calls and constants become materialized `Values` leaves
/// (evaluated with the same configuration, so nested shells are planned
/// too). With a store, pattern calls consult its frozen graphs first;
/// the shell itself lowers identically either way (the storage lowering
/// happens later, in `store_plan`).
fn lower(
    q: &Query,
    db: &Database,
    cfg: EvalConfig,
    store: Option<&Store>,
) -> Result<PhysPlan, QueryError> {
    Ok(match q {
        Query::Rel(name) => match db.get(name) {
            // `Database::schema` omits 0-ary relations (the paper's
            // schemas are positive-arity), so scan those by value.
            Some(rel) if rel.arity() == 0 => PhysPlan::Values(Batch::from_relation(rel)),
            _ => PhysPlan::Scan(name.clone()),
        },
        Query::Const(c) => {
            // ⟦c⟧_D := c where c ∈ adom(D) (Figure 4).
            let mut rel = Relation::empty(1);
            if db.active_domain().contains(c) {
                rel.insert(pgq_value::Tuple::unary(c.clone()))
                    .map_err(QueryError::Rel)?;
            }
            PhysPlan::Values(Batch::from_relation(&rel))
        }
        Query::Project(pos, q) => lower(q, db, cfg, store)?.project(pos.clone()),
        Query::Select(cond, q) => lower(q, db, cfg, store)?.filter(cond.clone()),
        Query::Product(a, b) => PhysPlan::Product {
            left: Box::new(lower(a, db, cfg, store)?),
            right: Box::new(lower(b, db, cfg, store)?),
        },
        Query::Union(a, b) => PhysPlan::Union {
            left: Box::new(lower(a, db, cfg, store)?),
            right: Box::new(lower(b, db, cfg, store)?),
        },
        Query::Diff(a, b) => {
            // Plan the derived intersection `Q − (Q − Q′)` as a real
            // intersection join (`Query::intersect`).
            if let Some((l, r)) = q.as_intersection() {
                return Ok(intersect_plan(
                    lower(l, db, cfg, store)?,
                    lower(r, db, cfg, store)?,
                ));
            }
            PhysPlan::Diff {
                left: Box::new(lower(a, db, cfg, store)?),
                right: Box::new(lower(b, db, cfg, store)?),
            }
        }
        Query::Pattern { out, views, op } => {
            let rel = match store {
                Some(store) => eval_pattern_store(out, views, *op, db, cfg, store)?,
                None => eval_pattern_physical(out, views, *op, db, cfg)?,
            };
            PhysPlan::Values(Batch::from_relation(&rel))
        }
    })
}

/// A pattern call on the physical route: the view is built from
/// physically-evaluated subqueries; reachability shapes run on the
/// fixpoint operator; everything else falls back to NFA, then reference.
fn eval_pattern_physical(
    out: &OutputPattern,
    views: &[Query; 6],
    op: ViewOp,
    db: &Database,
    cfg: EvalConfig,
) -> Result<Relation, QueryError> {
    let graph = build_view(views, op, db, cfg)?;
    if let Some(rel) = try_fixpoint_reach(out, &graph, &exec_opts(cfg))? {
        return Ok(rel);
    }
    if let Some(rel) = try_fast(out, &graph)? {
        return Ok(rel);
    }
    Ok(out.eval(&graph)?)
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
/// the graph's edges become `(src, tgt)` rows, `pgq_exec::transitive_closure`
/// computes the ≥1-step pairs, and `ψ^{0..∞}` restores the reflexive
/// pairs over the view's nodes. Returns `None` when the output is not a
/// Boolean or endpoint projection of the reachability spine.
fn try_fixpoint_reach(
    out: &OutputPattern,
    g: &PropertyGraph,
    opts: &ExecOptions,
) -> Result<Option<Relation>, QueryError> {
    Ok(try_fixpoint_reach_impl(out, g, opts, false)?.map(|(rel, _)| rel))
}

/// [`try_fixpoint_reach`], optionally recording the closure's
/// [`PlanMetrics`] (iteration count, per-round Δ sizes) when `profiled`
/// — the only difference between the routes is which closure entry
/// point runs; the relation is computed identically.
fn try_fixpoint_reach_impl(
    out: &OutputPattern,
    g: &PropertyGraph,
    opts: &ExecOptions,
    profiled: bool,
) -> Result<Option<(Relation, Option<PlanMetrics>)>, QueryError> {
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
            edges.push(s.concat(&t)).map_err(QueryError::Rel)?;
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
            edges.push(s.concat(t)).map_err(QueryError::Rel)?;
        }
    }
    let (closure, metrics) = if profiled {
        let (c, m) = transitive_closure_profiled(edges, k, 0, opts).map_err(QueryError::Rel)?;
        (c, Some(m))
    } else {
        let c = transitive_closure_opts(edges, k, 0, opts).map_err(QueryError::Rel)?;
        (c, None)
    };

    let ReachProj::Items(items) = proj else {
        // Boolean output: a 0-length path exists iff the view has a node.
        let holds = !closure.is_empty() || (!shape.at_least_one && g.node_count() > 0);
        return Ok(Some((
            if holds {
                Relation::r#true()
            } else {
                Relation::r#false()
            },
            metrics,
        )));
    };

    let mut rel = Relation::empty(out.output_arity(k));
    for row in closure.iter() {
        let (s, t) = row.split_at(k);
        if let Some(projected) = project_pair(&items, &s, &t, g) {
            rel.insert(projected).map_err(QueryError::Rel)?;
        }
    }
    if !shape.at_least_one {
        for n in g.nodes() {
            if let Some(projected) = project_pair(&items, n, n, g) {
                rel.insert(projected).map_err(QueryError::Rel)?;
            }
        }
    }
    Ok(Some((rel, metrics)))
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

/// The route `eval_pattern_physical` takes for this output — mirrors
/// the actual dispatch so `EXPLAIN` never lies.
fn route_label(out: &OutputPattern) -> &'static str {
    if let Some(shape) = reach_shape(&out.pattern) {
        if reach_proj(out, &shape).is_some() {
            return if shape.filtered {
                "semi-naive fixpoint over filtered step edges"
            } else {
                "semi-naive fixpoint over view edges"
            };
        }
    }
    if pgq_pattern::Nfa::compile(&out.pattern).is_ok() {
        let endpoints = (
            crate::eval::leftmost_node_var(&out.pattern),
            crate::eval::rightmost_node_var(&out.pattern),
        );
        if let (Some(l), Some(r)) = endpoints {
            if endpoint_output(out, &l, &r) {
                return "NFA product-graph BFS";
            }
        } else if out.items.is_empty() {
            return "NFA product-graph BFS";
        }
    }
    "reference (Figure 2) semantics"
}

/// Renders the physical plan of a query as an `EXPLAIN`-style tree —
/// without evaluating anything. The relational shell is planned exactly
/// as `Engine::Physical` would plan it; each pattern call appears as a
/// `⟨matchN⟩` placeholder whose route (fixpoint / NFA / reference) and
/// view subplans are listed below the main tree.
pub fn explain(q: &Query, schema: &Schema) -> Result<String, QueryError> {
    explain_with(q, schema, None)
}

/// [`explain`] under an optional session [`Store`]: the plan is
/// additionally lowered onto the store's indexes (`IndexScan`,
/// `AdjacencyExpand`, CSR fixpoints), with operators that read through
/// an update overlay marked `⟨delta⟩`. Mirrors exactly what
/// `eval_with_store` executes.
pub fn explain_with(
    q: &Query,
    schema: &Schema,
    store: Option<&Store>,
) -> Result<String, QueryError> {
    explain_annotated(q, schema, store, None)
}

/// [`explain_with`] under concrete executor options: every
/// morsel-parallel operator is additionally annotated with its degree
/// of parallelism (`⟨dop≤n⟩`) and a trailing line states the worker
/// budget — what the shell renders after `SET THREADS n;`. Mirrors
/// exactly what `eval_with_store` executes under the same
/// `EvalConfig::threads`.
pub fn explain_with_opts(
    q: &Query,
    schema: &Schema,
    store: Option<&Store>,
    threads: usize,
) -> Result<String, QueryError> {
    explain_annotated(q, schema, store, Some(ExecOptions::with_threads(threads)))
}

/// [`explain_with_opts`] under full [`ExecOptions`] — the shell's
/// `EXPLAIN` after `SET PLANNER rule;` passes the session's planner
/// choice through here so the rendered plan is the one that would
/// execute.
pub fn explain_with_exec_opts(
    q: &Query,
    schema: &Schema,
    store: Option<&Store>,
    opts: ExecOptions,
) -> Result<String, QueryError> {
    explain_annotated(q, schema, store, Some(opts))
}

fn explain_annotated(
    q: &Query,
    schema: &Schema,
    store: Option<&Store>,
    opts: Option<ExecOptions>,
) -> Result<String, QueryError> {
    q.arity(schema)?;
    let planner = opts
        .as_ref()
        .map_or_else(PlannerChoice::default, |o| o.planner);
    let mut sections: Vec<String> = Vec::new();
    let mut aug = schema.clone();
    let plan = explain_plan(q, schema, &mut aug, &mut sections, store, planner)?;
    let plan = optimize_plan(plan, &aug).map_err(QueryError::Rel)?;
    let plan = match store {
        Some(store) => lower_store(plan, store, &aug, planner),
        None => plan,
    };
    let mut text = match (&opts, store) {
        (Some(o), _) => plan.display_with_opts(store, o),
        (None, Some(store)) => plan.display_with(Some(store)),
        (None, None) => plan.to_string(),
    };
    for s in sections {
        text.push('\n');
        text.push_str(&s);
    }
    Ok(text)
}

fn explain_plan(
    q: &Query,
    schema: &Schema,
    aug: &mut Schema,
    sections: &mut Vec<String>,
    store: Option<&Store>,
    planner: PlannerChoice,
) -> Result<PhysPlan, QueryError> {
    Ok(match q {
        Query::Rel(name) => PhysPlan::Scan(name.clone()),
        Query::Const(c) => {
            let mut b = Batch::empty(1);
            b.push(pgq_value::Tuple::unary(c.clone()))
                .map_err(QueryError::Rel)?;
            PhysPlan::Values(b)
        }
        Query::Project(pos, q) => {
            explain_plan(q, schema, aug, sections, store, planner)?.project(pos.clone())
        }
        Query::Select(cond, q) => {
            explain_plan(q, schema, aug, sections, store, planner)?.filter(cond.clone())
        }
        Query::Product(a, b) => PhysPlan::Product {
            left: Box::new(explain_plan(a, schema, aug, sections, store, planner)?),
            right: Box::new(explain_plan(b, schema, aug, sections, store, planner)?),
        },
        Query::Union(a, b) => PhysPlan::Union {
            left: Box::new(explain_plan(a, schema, aug, sections, store, planner)?),
            right: Box::new(explain_plan(b, schema, aug, sections, store, planner)?),
        },
        Query::Diff(a, b) => {
            if let Some((l, r)) = q.as_intersection() {
                return Ok(intersect_plan(
                    explain_plan(l, schema, aug, sections, store, planner)?,
                    explain_plan(r, schema, aug, sections, store, planner)?,
                ));
            }
            PhysPlan::Diff {
                left: Box::new(explain_plan(a, schema, aug, sections, store, planner)?),
                right: Box::new(explain_plan(b, schema, aug, sections, store, planner)?),
            }
        }
        Query::Pattern { out, views, op } => {
            let arity = q.arity(schema)?;
            let route = route_label(out);
            // Render the view subplans first: nested pattern calls push
            // their own sections during this recursion, so numbering off
            // `sections.len()` afterwards keeps every placeholder unique.
            let mut body = String::new();
            let labels = ["nodes", "edges", "src", "tgt", "labels", "props"];
            for (label, view) in labels.iter().zip(views.iter()) {
                let sub = explain_plan(view, schema, aug, sections, store, planner)?;
                let sub = optimize_plan(sub, aug).map_err(QueryError::Rel)?;
                let sub_text = match store {
                    Some(store) => lower_store(sub, store, aug, planner).display_with(Some(store)),
                    None => sub.to_string(),
                };
                let _ = writeln!(body, "  {label}:");
                for line in sub_text.lines() {
                    let _ = writeln!(body, "    {line}");
                }
            }
            let name = format!("⟨match{}⟩", sections.len() + 1);
            let mut section = String::new();
            let _ = writeln!(section, "{name} := {out} via {op} [route: {route}]");
            section.push_str(&body);
            sections.push(section);
            if arity == 0 {
                // Schemas are positive-arity; a Boolean pattern call
                // cannot be a placeholder scan.
                PhysPlan::Values(Batch::empty(0))
            } else {
                aug.add(name.as_str(), arity);
                PhysPlan::Scan(name.as_str().into())
            }
        }
    })
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
        let text = explain_with(&q, &d.schema(), Some(&store)).unwrap();
        // The store pass lowers scans onto the columnar indexes and the
        // join onto CSR expansion: no plain `Scan` survives.
        assert!(text.contains("IndexScan"), "{text}");
        assert!(!text.contains(" Scan "), "{text}");
        // Without a store, explain_with is plain explain.
        assert_eq!(
            explain_with(&q, &d.schema(), None).unwrap(),
            explain(&q, &d.schema()).unwrap()
        );
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
