//! The `Engine::Physical` route: Figure 3's relational shell planned
//! onto the S15 physical engine (`pgq-exec`). A pattern call over a
//! graph frozen in the store is planned too when it has no unbounded
//! repetition and its plan stays small — compiled onto the graph's view
//! relations and spliced into the shell — and reachability calls run on
//! the CSR closure or the semi-naive fixpoint operator.
//!
//! The route is exactly as expressive as the references — a call it
//! cannot plan (no frozen graph, unbounded repetition beyond the two
//! reachability spines, a plan past the compiler's size cap) is answered by the NFA or Figure 2 evaluators
//! on a per-statement view and spliced into the plan as a materialized
//! [`PhysPlan::Values`] batch — and the differential suites
//! (`tests/prop_engine.rs`, `tests/prop_store.rs`) hold all routes to
//! identical results. See DESIGN.md §5.
//!
//! Evaluation and `EXPLAIN` share one translation of the shell:
//! `shell_plan` has one rule per Figure 3 constructor and asks a
//! `Leaves` handler what a stored relation, a constant or a pattern
//! call becomes (the compiled query's own plan, evaluated rows, or a
//! placeholder plus its section of text), and `pgq_exec::physical_plan`
//! is the one optimize → lower-onto-store step both then take; who
//! answers a pattern call is the one decision `route` takes for both.
//! What `EXPLAIN` prints is what runs because it is the same code. Every
//! evaluating function takes the optional [`PlanMetrics`] sink the
//! executor's operators take: `None` measures nothing, `Some` is the
//! `EXPLAIN ANALYZE` route.

use crate::compile::compile;
use crate::eval::{build_view, leftmost_node_var, rightmost_node_var, Engine, EvalConfig};
use crate::query::{Query, QueryError, ViewOp};
use pgq_exec::{
    annotate_estimates, execute_opts, execute_profiled, intersect_plan, physical_plan, Batch,
    ExecOptions, PhysPlan, PlanMetrics, PlannerChoice,
};
use pgq_graph::PropertyGraph;
use pgq_pattern::{Direction, Nfa, OutputItem, OutputPattern, Pattern, RepBound};
use pgq_relational::{Database, RelName, Relation, Schema};
use pgq_store::{GraphEntry, GraphForm, Store};
use pgq_value::{Key, Tuple, Value, Var};
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
        Ok(
            match eval_pattern(out, views, op, self.db, self.cfg, self.store, None)? {
                Answer::Plan(q) => shell_plan(&q, self)?,
                Answer::Rows(rel) => PhysPlan::Values(Batch::from_relation(&rel)),
            },
        )
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
    mut m: Option<&mut PlanMetrics>,
) -> Result<Relation, QueryError> {
    // A bare pattern call needs no relational plan around it — answer
    // it directly instead of staging the result through a `Values` leaf
    // (which would copy it twice) — unless it compiles to one.
    if let Query::Pattern { out, views, op } = q {
        return match eval_pattern(out, views, *op, db, cfg, store, m.as_deref_mut())? {
            Answer::Plan(q) => eval_physical(&q, db, cfg, store, m),
            Answer::Rows(rel) => Ok(rel),
        };
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

/// How the physical route answers a pattern call.
enum Answer {
    /// The call compiled onto its view relations: plan it in place.
    Plan(Query),
    /// The rows another route computed.
    Rows(Relation),
}

/// A pattern call on the physical route. [`route`] picks who answers.
/// A graph frozen in the store from exactly the call's views answers
/// without a view: a repetition-free call compiles onto the view
/// relations, a bare reachability spine reads the CSR closure — the
/// view was validated once at registration, so nothing is rebuilt.
/// Every other route builds the view from physically-evaluated
/// subqueries and answers on it; under a store each such build is
/// counted (`view_builds` on [`Store::counters`]).
///
/// A compiled call has an operator tree, which the caller plans. The
/// other routes have none, so with a sink the answering route itself
/// becomes the node `m` — the profile never lies about which engine
/// answered — and the closure route hangs its executed `Fixpoint` plan
/// (per-round Δ sizes) underneath.
fn eval_pattern(
    out: &OutputPattern,
    views: &[Query; 6],
    op: ViewOp,
    db: &Database,
    cfg: EvalConfig,
    store: Option<&Store>,
    mut m: Option<&mut PlanMetrics>,
) -> Result<Answer, QueryError> {
    let start = m.as_ref().map(|_| Instant::now());
    let build = || {
        if let Some(store) = store {
            store.counters().record_view_build();
        }
        build_view(views, op, db, cfg)
    };
    let entry = store.and_then(|store| frozen_entry(views, op, store));
    let mut view = None;
    let k = match entry {
        Some(entry) => entry.id_arity(),
        None => view.insert(build()?).id_arity(),
    };
    let route = match route(out, k, entry.map(|e| (e, views)), Engine::Physical) {
        Route::Compiled(q) => return Ok(Answer::Plan(q)),
        route => route,
    };
    let rel = match (&route, store) {
        (Route::Frozen(entry, spine, cols), Some(store)) => {
            out.pattern.validate()?;
            store.counters().record_adjacency_read(entry.has_overlay());
            if cols.is_empty() {
                boolean(entry.has_reach_pair() || (!spine.at_least_one && entry.node_count() > 0))
            } else {
                let pairs = entry.reach_relation(spine.at_least_one);
                store
                    .counters()
                    .record_csr_neighbor_rows(pairs.len() as u64);
                pairs.project(cols)?
            }
        }
        _ => {
            let g = match view {
                Some(g) => g,
                None => build()?,
            };
            route.answer(out, &g, &exec_opts(cfg), m.as_deref_mut())?
        }
    };
    if let (Some(m), Some(start)) = (m, start) {
        record_answer(m, format!("Pattern [{}]", route.label()), &rel, start);
    }
    Ok(Answer::Rows(rel))
}

/// Marks `m` as the one executed node of a route with no operator
/// tree: labelled by the route, `rel` out, running since `start`.
pub(crate) fn record_answer(m: &mut PlanMetrics, label: String, rel: &Relation, start: Instant) {
    m.label = label;
    m.executed = true;
    m.rows_out = rel.len() as u64;
    m.elapsed_ns = start.elapsed().as_nanos() as u64;
}

/// The graph the store froze from exactly these views under this
/// operator. Only views that are all plain base relations can name one.
fn frozen_entry<'s>(views: &[Query; 6], op: ViewOp, store: &'s Store) -> Option<&'s GraphEntry> {
    let [Query::Rel(n), Query::Rel(e), Query::Rel(s), Query::Rel(t), Query::Rel(l), Query::Rel(p)] =
        views
    else {
        return None;
    };
    let names = [n, e, s, t, l, p].map(Clone::clone);
    store.graph_for_views(&names, view_form(op))
}

/// Who answers a pattern call — decided by [`route`] alone.
pub(crate) enum Route<'p, 's> {
    /// The call compiled onto the view relations of a graph frozen in
    /// the store ([`compile`]): planned in place, like the shell around
    /// it.
    Compiled(Query),
    /// The frozen CSR closure of a graph in the store, projected by
    /// the pair columns it holds (none: a Boolean output).
    Frozen(&'s GraphEntry, ReachShape<'p>, Vec<usize>),
    /// The semi-naive closure of the spine's step pairs, on the view.
    Closure(ReachShape<'p>, Vec<Cell>),
    /// The NFA's endpoint pairs, on the view.
    Nfa(Nfa, Vec<Cell>),
    /// Figure 2, on the view.
    Reference,
}

/// The one route decision evaluation, the NFA engine and `EXPLAIN`
/// take. `k` is the view's identifier arity and `frozen` the graph the
/// store froze from the call's views, with those views, if any. Only
/// [`Engine::Physical`] takes the compiled and closure routes, and
/// [`Engine::Reference`] takes nothing but Figure 2. Over a frozen
/// graph every call [`compile`] accepts — no unbounded repetition, at
/// most 32 relation scans — is compiled; a frozen graph also answers a bare reachability spine
/// whose output it holds — filtered steps and property items need the
/// view graph. Every output an endpoint route cannot project (see
/// [`cells`]) is Figure 2's.
pub(crate) fn route<'p, 's>(
    out: &'p OutputPattern,
    k: usize,
    frozen: Option<(&'s GraphEntry, &[Query; 6])>,
    engine: Engine,
) -> Route<'p, 's> {
    if engine == Engine::Reference {
        return Route::Reference;
    }
    if engine == Engine::Physical {
        if let Some(q) = frozen.and_then(|(_, views)| compile(out, views, k)) {
            return Route::Compiled(q);
        }
        if let Some(spine) = reach_shape(&out.pattern) {
            if let Some(cells) = cells(out, Some(&spine.x), Some(&spine.y), k) {
                return match (frozen, columns(&cells, k)) {
                    (Some((entry, _)), Some(cols)) if !spine.filtered => {
                        Route::Frozen(entry, spine, cols)
                    }
                    _ => Route::Closure(spine, cells),
                };
            }
        }
    }
    let Ok(nfa) = Nfa::compile(&out.pattern) else {
        return Route::Reference;
    };
    let (x, y) = (
        leftmost_node_var(&out.pattern),
        rightmost_node_var(&out.pattern),
    );
    match cells(out, x.as_ref(), y.as_ref(), k) {
        Some(cells) => Route::Nfa(nfa, cells),
        None => Route::Reference,
    }
}

impl Route<'_, '_> {
    /// The route's name: `EXPLAIN`'s `[route: …]` and the
    /// `Pattern [...]` node of `EXPLAIN ANALYZE`.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Route::Compiled(_) => "compiled plan",
            Route::Frozen(..) => "frozen CSR reachability",
            Route::Closure(spine, _) if spine.filtered => {
                "semi-naive fixpoint over filtered step edges"
            }
            Route::Closure(..) => "semi-naive fixpoint over view edges",
            Route::Nfa(..) => "NFA product-graph BFS",
            Route::Reference => "reference (Figure 2) semantics",
        }
    }

    /// Answers the call on its built view `g`. The compiled and frozen
    /// routes read the store, not a view; on one they answer as Figure 2
    /// does.
    pub(crate) fn answer(
        &self,
        out: &OutputPattern,
        g: &PropertyGraph,
        opts: &ExecOptions,
        m: Option<&mut PlanMetrics>,
    ) -> Result<Relation, QueryError> {
        match self {
            Route::Closure(spine, cells) => {
                out.pattern.validate()?;
                let k = g.id_arity();
                let pairs = closure(spine, g, opts, m)?;
                // `ψ^{0..∞}` adds the 0-step pair of every node.
                let reflexive = g
                    .nodes()
                    .filter(|_| !spine.at_least_one)
                    .map(|n| (n.values(), n.values()));
                let steps = pairs.iter().map(|row| row.values().split_at(k));
                project(cells, steps.chain(reflexive), g)
            }
            Route::Nfa(nfa, cells) => {
                out.pattern.validate()?;
                let pairs = nfa.eval_pairs(g);
                let ends = pairs.iter().map(|(s, t)| (s.values(), t.values()));
                project(cells, ends, g)
            }
            Route::Compiled(_) | Route::Frozen(..) | Route::Reference => Ok(out.eval(g)?),
        }
    }
}

/// The reachability spine `(x) step^{n..∞} (y)` with a single
/// forward-edge step and `n ≤ 1` — the `ψreach`/`ψreach+` shapes of
/// Lemma 9.4 and the transfers workloads. Repetition discards its
/// bindings (Figure 2's `⟦ψ^{n..m}⟧` ranges over endpoint pairs with
/// `μ∅`), so the step edge may carry a variable and per-step filter
/// conditions: the call is then exactly the closure of the filtered
/// step-pair set.
pub(crate) struct ReachShape<'a> {
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

fn flatten_concat<'a>(p: &'a Pattern, out: &mut Vec<&'a Pattern>) {
    if let Pattern::Concat(a, b) = p {
        flatten_concat(a, out);
        flatten_concat(b, out);
    } else {
        out.push(p);
    }
}

/// One output column read off an endpoint pair `(s̄, t̄)`; `target`
/// picks `t̄`. An identifier item is its `k` component cells.
pub(crate) enum Cell {
    /// Component `index` of the endpoint identifier.
    Component { target: bool, index: usize },
    /// A property of the endpoint.
    Prop { target: bool, key: Key },
}

/// The output items as reads off the endpoint pair of a match whose
/// source node binds `x` and whose target node binds `y`: the
/// identifier, an in-range component or a property of either. `None` —
/// Figure 2's business — when an item reads another variable or a
/// component beyond the identifier arity `k`.
fn cells(out: &OutputPattern, x: Option<&Var>, y: Option<&Var>, k: usize) -> Option<Vec<Cell>> {
    let mut cells = Vec::new();
    for item in &out.items {
        let (OutputItem::Var(v) | OutputItem::Component(v, _) | OutputItem::Prop(v, _)) = item;
        let target = if Some(v) == x {
            false
        } else if Some(v) == y {
            true
        } else {
            return None;
        };
        match item {
            OutputItem::Var(_) => {
                cells.extend((0..k).map(|index| Cell::Component { target, index }));
            }
            OutputItem::Component(_, index) if *index < k => cells.push(Cell::Component {
                target,
                index: *index,
            }),
            OutputItem::Component(..) => return None,
            OutputItem::Prop(_, key) => cells.push(Cell::Prop {
                target,
                key: key.clone(),
            }),
        }
    }
    Some(cells)
}

/// The positions of the cells in a pair row `s̄ ++ t̄` — how the frozen
/// route projects. `None` with a property cell: it needs the view.
fn columns(cells: &[Cell], k: usize) -> Option<Vec<usize>> {
    cells
        .iter()
        .map(|cell| match cell {
            Cell::Component { target, index } => Some(usize::from(*target) * k + index),
            Cell::Prop { .. } => None,
        })
        .collect()
}

/// The one projection of the view's endpoint routes: every pair
/// `(s̄, t̄)` becomes one row through `cells`, a pair whose property
/// is undefined gives none (Figure 2's rule), and a Boolean output (no
/// cells) holds iff some pair exists.
fn project<'v>(
    cells: &[Cell],
    mut pairs: impl Iterator<Item = (&'v [Value], &'v [Value])>,
    g: &PropertyGraph,
) -> Result<Relation, QueryError> {
    if cells.is_empty() {
        return Ok(boolean(pairs.next().is_some()));
    }
    let mut rel = Relation::empty(cells.len());
    'pairs: for (s, t) in pairs {
        let end = |target: bool| if target { t } else { s };
        let mut row = Vec::with_capacity(cells.len());
        for cell in cells {
            row.push(match cell {
                Cell::Component { target, index } => end(*target)[*index].clone(),
                Cell::Prop { target, key } => {
                    match g.prop(&Tuple::new(end(*target).to_vec()), key) {
                        Some(v) => v.clone(),
                        None => continue 'pairs,
                    }
                }
            });
        }
        rel.insert(row.into())?;
    }
    Ok(rel)
}

/// A Boolean output: `{()}` when it holds, `∅` otherwise.
fn boolean(holds: bool) -> Relation {
    if holds {
        Relation::r#true()
    } else {
        Relation::r#false()
    }
}

/// The ≥ 1-step pairs `s̄ ++ t̄` of the spine: its step-pair set
/// closed by one `Fixpoint` plan over two `Values` leaves of it, on the
/// one executor. With a sink, the executed plan's metrics (iteration
/// count, per-round Δ sizes) become `m`'s child and its output `m`'s
/// input.
fn closure(
    spine: &ReachShape,
    g: &PropertyGraph,
    opts: &ExecOptions,
    m: Option<&mut PlanMetrics>,
) -> Result<Batch, QueryError> {
    // The step-pair set: every (src, tgt) the repetition body matches
    // in one step. A bare edge reads the adjacency directly; a filtered
    // step evaluates its conditions per edge — bindings are local to
    // the step (Figure 2's repetition discards them), so the whole call
    // is the closure of this pair set.
    let k = g.id_arity();
    let mut steps = Batch::empty(2 * k);
    if spine.filtered {
        let matches = pgq_pattern::eval_pattern(spine.step, g)?;
        for (s, t) in pgq_pattern::endpoint_pairs(&matches) {
            steps.push(s.concat(&t))?;
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
            steps.push(s.concat(t))?;
        }
    }
    // acc.t̄ = step.s̄, emitting (acc.s̄, step.t̄).
    let plan = PhysPlan::Fixpoint {
        base: Box::new(PhysPlan::Values(steps.clone())),
        step: Box::new(PhysPlan::Values(steps)),
        join: (0..k).map(|i| (k + i, i)).collect(),
        project: (0..k).chain(3 * k..4 * k).collect(),
    };
    let db = Database::new();
    let pairs = match m {
        Some(m) => {
            let (pairs, fixpoint) = execute_profiled(&plan, &db, None, opts)?;
            m.rows_in = fixpoint.rows_out;
            m.children.push(fixpoint);
            pairs
        }
        None => execute_opts(&plan, &db, None, opts)?,
    };
    Ok(pairs.decode()?)
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
/// overlay are marked `⟨delta⟩`, and a pattern call over a graph the
/// store froze names the route that answers it: a compiled call's
/// operators are part of the tree (its section names the call and the
/// route, with no placeholder), and a frozen CSR closure is named as
/// such. Under concrete `opts` every
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

/// The explaining [`Leaves`]: nothing is evaluated. A compiled pattern
/// call becomes its query's plan; any other becomes a scan of a
/// placeholder relation `⟨matchN⟩` — added to `aug`, the query's schema
/// as the shell is then optimized under it — and a section of text
/// naming its route and view subplans.
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
        let k = views[0].arity(&self.aug)?;
        let arity = out.output_arity(k);
        let entry = self.store.and_then(|store| frozen_entry(views, op, store));
        let decided = route(out, k, entry.map(|e| (e, views)), Engine::Physical);
        let route = decided.label();
        if let Route::Compiled(q) = decided {
            // Spliced: its operators are part of the plan above.
            self.sections
                .push(format!("{out} via {op} [route: {route}]"));
            return shell_plan(&q, self);
        }
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
    /// answered, with and without a graph frozen from the views. A
    /// compiled call has no route node: its profile is the spliced
    /// plan's, rooted at an operator that carries `est=`.
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
        let two_hop = Pattern::node("x")
            .then(Pattern::any_edge().repeat(2, 2))
            .then(Pattern::node("y"));
        let with = |p: &Pattern, items: Vec<OutputItem>| {
            pgq_pattern::OutputPattern::new(p.clone(), items).unwrap()
        };
        // A component past the identifier arity (k = 1): Figure 2's
        // typed error, so the reference route is the one that runs.
        let past_k = with(&reach_star, vec![OutputItem::Component("x".into(), 1)]);
        let outs = [
            builders::reachability_output(),
            builders::reachability_plus_output(),
            pgq_pattern::OutputPattern::boolean(reach_star.clone()).unwrap(),
            builders::labeled_reachability_output("T"),
            xy(one_hop),
            xy(backward),
            past_k.clone(),
            with(
                &two_hop,
                vec![
                    OutputItem::Component("x".into(), 0),
                    OutputItem::Component("y".into(), 0),
                ],
            ),
            with(
                &reach_star,
                vec![
                    OutputItem::Prop("x".into(), "w".into()),
                    OutputItem::Var("y".into()),
                ],
            ),
        ];
        let mut compiled = 0;
        for store in [Store::from_database(&d), store_for(&d)] {
            for out in &outs {
                let q = Query::pattern_ro(out.clone(), views);
                let text = explain_with(&q, &d.schema(), Some(&store), None).unwrap();
                let explained = text
                    .split_once("[route: ")
                    .and_then(|(_, rest)| rest.split_once(']'))
                    .map(|(route, _)| route)
                    .unwrap_or_else(|| panic!("no route in {text}"));
                let result =
                    crate::eval_with_store_profiled(&q, &d, EvalConfig::physical(), &store);
                assert_eq!(result.is_err(), out == &past_k, "{q}");
                let root = match result {
                    Ok((_, profile)) => profile.root,
                    Err(QueryError::Output(pgq_pattern::OutputError::ComponentOutOfRange {
                        ..
                    })) => PlanMetrics {
                        label: "Pattern [reference (Figure 2) semantics]".into(),
                        ..PlanMetrics::default()
                    },
                    Err(e) => panic!("{q}: {e}"),
                };
                let graphs = store.graph_names().collect::<Vec<_>>();
                if explained == "compiled plan" {
                    // Spliced into the plan: the root is its own
                    // operator, costed like any other.
                    assert!(!root.label.starts_with("Pattern"), "{q}: {}", root.label);
                    assert!(root.est_rows.is_some(), "{q}: {}", root.label);
                    assert!(!text.contains("⟨match"), "{text}");
                } else {
                    assert_eq!(
                        root.label,
                        format!("Pattern [{explained}]"),
                        "{q}; {graphs:?}"
                    );
                }
                compiled += usize::from(explained == "compiled plan");
            }
        }
        // The one-hop, the backward hop and the `{2,2}` two-hop, over
        // the registered graph only.
        assert_eq!(compiled, 3);
    }

    /// A repetition bound far past the compiled plan's size cap keeps
    /// the NFA route — no plan a hundred thousand levels deep for the
    /// recursive passes to overflow the stack on — and answers as
    /// Figure 2 does.
    #[test]
    fn a_huge_repetition_bound_is_not_compiled() {
        let d = db();
        let store = store_for(&d);
        let p = Pattern::node("x")
            .then(Pattern::any_edge().repeat(0, 100_000))
            .then(Pattern::node("y"));
        let out = pgq_pattern::OutputPattern::vars(p, ["x", "y"]).unwrap();
        let q = Query::pattern_ro(out, ["N", "E", "S", "T", "L", "P"]);
        let text = explain_with(&q, &d.schema(), Some(&store), None).unwrap();
        assert!(text.contains("[route: NFA product-graph BFS]"), "{text}");
        let rows = crate::eval_with_store(&q, &d, EvalConfig::physical(), &store).unwrap();
        assert_eq!(rows.len(), 10, "four loops and six forward pairs");
        assert_eq!(Ok(rows), eval_with(&q, &d, EvalConfig::reference()));
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
