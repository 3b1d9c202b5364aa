//! The `Engine::Physical` route: Figure 3's relational shell planned
//! onto the S15 physical engine (`pgq-exec`). A pattern call over a
//! graph frozen in the store is planned too — compiled onto the graph's
//! view relations, repetition as one bounded `Fixpoint`, and spliced
//! into the shell — unless its plan would pass the compiler's size cap.
//!
//! The route is exactly as expressive as the references — a call it
//! cannot plan (no frozen graph, a plan past the size cap) is answered
//! by the NFA or Figure 2 evaluators on a per-statement view and
//! spliced into the plan as a materialized [`PhysPlan::Values`] batch —
//! and the differential suites (`tests/prop_engine.rs`,
//! `tests/prop_store.rs`) hold all routes to identical results. See
//! DESIGN.md §5.
//!
//! Evaluation and `EXPLAIN` share one translation of the shell:
//! `shell_plan` has one rule per Figure 3 constructor and asks a
//! `Leaves` handler what a stored relation, a constant or a pattern
//! call becomes (the compiled call's own plan, evaluated rows, or a
//! placeholder plus its section of text), and `pgq_exec::physical_plan`
//! is the one optimize → lower-onto-store step both then take; who
//! answers a pattern call is the one decision `route` takes for both.
//! What `EXPLAIN` prints is what runs because it is the same code. Every
//! evaluating function takes the optional [`PlanMetrics`] sink the
//! executor's operators take: `None` measures nothing, `Some` is the
//! `EXPLAIN ANALYZE` route.

use crate::compile::compile;
use crate::eval::{leftmost_node_var, rightmost_node_var, view_graph, Engine, EvalConfig};
use crate::query::{Query, QueryError, ViewOp};
use pgq_exec::{
    annotate_estimates, execute_opts, execute_profiled, intersect_plan, physical_plan, Batch,
    ExecOptions, PhysPlan, PlanMetrics, PlannerChoice,
};
use pgq_graph::PropertyGraph;
use pgq_pattern::{Nfa, OutputItem, OutputPattern};
use pgq_relational::{Database, RelName, Relation, Schema};
use pgq_store::{GraphForm, Store};
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
    Ok(match q {
        Query::Rel(name) => leaves.rel(name)?,
        Query::Const(c) => leaves.constant(c)?,
        Query::Pattern { out, views, op } => leaves.pattern(out, views, *op)?,
        Query::Project(pos, q) => shell_plan(q, leaves)?.project(pos.clone()),
        Query::Select(cond, q) => shell_plan(q, leaves)?.filter(cond.clone()),
        Query::Product(a, b) => shell_plan(a, leaves)?.product(shell_plan(b, leaves)?),
        Query::Union(a, b) => shell_plan(a, leaves)?.union(shell_plan(b, leaves)?),
        // Plan the derived intersection `Q − (Q − Q′)` as a real
        // intersection join (`Query::intersect`).
        Query::Diff(a, b) => match q.as_intersection() {
            Some((l, r)) => intersect_plan(shell_plan(l, leaves)?, shell_plan(r, leaves)?),
            None => shell_plan(a, leaves)?.diff(shell_plan(b, leaves)?),
        },
    })
}

/// The evaluating [`Leaves`]: pattern calls and constants become
/// materialized `Values` (evaluated with the same configuration, so
/// nested shells are planned too), unless the call compiles.
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
                Answer::Plan(plan) => plan,
                Answer::Rows(rel) => PhysPlan::Values(Batch::from_relation(&rel)),
            },
        )
    }
}

/// Evaluates a query through the physical engine — backed, when given,
/// by a session [`Store`] (substrate S16): base scans run on columnar
/// indexes, dictionary codes flow through the whole operator pipeline
/// (decoding exactly once at the set-semantics boundary), and pattern
/// calls over graphs registered in the store are planned onto its view
/// relations (read through any update overlay) — no per-query view
/// rebuild. The store must agree with `db`: registered from it, then
/// kept in step by re-registration or by the incremental update path
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
    let shell = match q {
        // A bare pattern call needs no relational plan around it —
        // answer it directly instead of staging the result through a
        // `Values` leaf (which would copy it twice) — unless it
        // compiles to one.
        Query::Pattern { out, views, op } => {
            match eval_pattern(out, views, *op, db, cfg, store, m.as_deref_mut())? {
                Answer::Plan(plan) => plan,
                Answer::Rows(rel) => return Ok(rel),
            }
        }
        _ => shell_plan(q, &mut Evaluate { db, cfg, store })?,
    };
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
    Plan(PhysPlan),
    /// The rows another route computed.
    Rows(Relation),
}

/// A pattern call on the physical route. [`route`] picks who answers.
/// A call over a graph frozen in the store from exactly its views
/// compiles onto the view relations — the view was validated once at
/// registration, so nothing is rebuilt — and has an operator tree,
/// which the caller plans. Every other route builds the view from
/// physically-evaluated subqueries and answers on it; under a store
/// the subqueries read the store (`db` may hold only their schema), and
/// each such build is counted (`view_builds` on [`Store::counters`]).
/// Those routes have no operator tree, so with a sink the answering
/// route itself becomes the node `m` — the profile never lies about
/// which engine answered.
fn eval_pattern(
    out: &OutputPattern,
    views: &[Query; 6],
    op: ViewOp,
    db: &Database,
    cfg: EvalConfig,
    store: Option<&Store>,
    m: Option<&mut PlanMetrics>,
) -> Result<Answer, QueryError> {
    if let Some((names, k)) = store.and_then(|store| frozen_views(views, op, store)) {
        if let Route::Compiled(plan) = route(out, k, Some(&names), Engine::Physical) {
            return Ok(Answer::Plan(plan));
        }
    }
    let start = m.as_ref().map(|_| Instant::now());
    if let Some(store) = store {
        store.counters().record_view_build();
    }
    let g = view_graph(views, op, cfg.view_mode, |q| {
        eval_physical(q, db, cfg, store, None)
    })?;
    let route = route(out, g.id_arity(), None, Engine::Physical);
    let rel = route.answer(out, &g)?;
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

/// The view relations of the graph the store froze from exactly these
/// views under this operator, and its identifier arity. Only views that
/// are all plain base relations can name one.
fn frozen_views(views: &[Query; 6], op: ViewOp, store: &Store) -> Option<([RelName; 6], usize)> {
    let [Query::Rel(n), Query::Rel(e), Query::Rel(s), Query::Rel(t), Query::Rel(l), Query::Rel(p)] =
        views
    else {
        return None;
    };
    let names = [n, e, s, t, l, p].map(Clone::clone);
    let k = store.graph_for_views(&names, view_form(op))?.id_arity();
    Some((names, k))
}

/// Who answers a pattern call — decided by [`route`] alone.
pub(crate) enum Route {
    /// The call compiled onto the view relations of a graph frozen in
    /// the store ([`compile`]): planned in place, like the shell around
    /// it.
    Compiled(PhysPlan),
    /// The NFA's endpoint pairs, on the view.
    Nfa(Nfa, Vec<Cell>),
    /// Figure 2, on the view.
    Reference,
}

/// The one route decision evaluation, the NFA engine and `EXPLAIN`
/// take. `k` is the identifier arity and `frozen` the view relations of
/// the graph the store froze from the call's views, if any. Only
/// [`Engine::Physical`] takes the compiled route, over a frozen graph,
/// for every call [`compile`] accepts (at most 32 relation scans), and
/// [`Engine::Reference`] takes nothing but Figure 2. Otherwise a call
/// the NFA compiles whose output reads only its endpoints (see
/// [`cells`]) takes the NFA, and every other is Figure 2's.
pub(crate) fn route(
    out: &OutputPattern,
    k: usize,
    frozen: Option<&[RelName; 6]>,
    engine: Engine,
) -> Route {
    if engine == Engine::Reference {
        return Route::Reference;
    }
    if engine == Engine::Physical {
        if let Some(plan) = frozen.and_then(|views| compile(out, views, k)) {
            return Route::Compiled(plan);
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

impl Route {
    /// The route's name: `EXPLAIN`'s `[route: …]` and the
    /// `Pattern [...]` node of `EXPLAIN ANALYZE`.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Route::Compiled(_) => "compiled plan",
            Route::Nfa(..) => "NFA product-graph BFS",
            Route::Reference => "reference (Figure 2) semantics",
        }
    }

    /// Answers the call on its built view `g`. A compiled call reads
    /// the store, not a view; on one it answers as Figure 2 does.
    pub(crate) fn answer(
        &self,
        out: &OutputPattern,
        g: &PropertyGraph,
    ) -> Result<Relation, QueryError> {
        match self {
            Route::Nfa(nfa, cells) => {
                out.pattern.validate()?;
                let pairs = nfa.eval_pairs(g);
                let ends = pairs.iter().map(|(s, t)| (s.values(), t.values()));
                project(cells, ends, g)
            }
            Route::Compiled(_) | Route::Reference => Ok(out.eval(g)?),
        }
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

/// The NFA route's projection: every pair `(s̄, t̄)` becomes one row
/// through `cells`, a pair whose property is undefined gives none
/// (Figure 2's rule), and a Boolean output (no cells) holds iff some
/// pair exists.
fn project<'v>(
    cells: &[Cell],
    mut pairs: impl Iterator<Item = (&'v [Value], &'v [Value])>,
    g: &PropertyGraph,
) -> Result<Relation, QueryError> {
    if cells.is_empty() {
        return Ok(if pairs.next().is_some() {
            Relation::r#true()
        } else {
            Relation::r#false()
        });
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

/// Renders the physical plan of a query as an `EXPLAIN`-style tree —
/// without evaluating anything. The relational shell is planned exactly
/// as `Engine::Physical` would plan it; each pattern call appears as a
/// `⟨matchN⟩` placeholder whose route (NFA / reference) and view
/// subplans are listed below the main tree.
pub fn explain(q: &Query, schema: &Schema) -> Result<String, QueryError> {
    explain_with(q, schema, None, None)
}

/// [`explain`] with everything a session adds. Under a [`Store`] the
/// plan is additionally lowered onto its indexes (`IndexScan`,
/// `AdjacencyExpand`, CSR fixpoints) by the planner `opts` selects (the
/// default without `opts`), operators that read through an update
/// overlay are marked `⟨delta⟩`, and a pattern call over a graph the
/// store froze is a compiled plan: its operators are part of the tree,
/// and its section names the call and the route, with no placeholder.
/// Under concrete `opts` every
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
/// call becomes its plan; any other becomes a scan of a
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
        let frozen = self
            .store
            .and_then(|store| frozen_views(views, op, store))
            .map(|(names, _)| names);
        let decided = route(out, k, frozen.as_ref(), Engine::Physical);
        let route = decided.label();
        if let Route::Compiled(plan) = decided {
            // Spliced: its operators are part of the plan above.
            self.sections
                .push(format!("{out} via {op} [route: {route}]"));
            return Ok(plan);
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
    use pgq_pattern::Pattern;
    use pgq_relational::RowCondition;
    use pgq_store::GraphForm;
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
        assert!(text.contains("[route: NFA product-graph BFS]"), "{text}");
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
        // Every call but the out-of-range component, over the
        // registered graph only.
        assert_eq!(compiled, outs.len() - 1);
    }

    /// Repetition is one bounded `Fixpoint` whatever its bounds: a
    /// `{0,100000}` or `{100000,100000}` plan is the `{0,10}` or
    /// `{10,10}` plan with other bound literals, and answers as Figure 2
    /// does.
    #[test]
    fn a_huge_repetition_bound_compiles_to_the_same_plan() {
        let d = db();
        let store = store_for(&d);
        let q = |n, m| {
            let p = Pattern::node("x")
                .then(Pattern::any_edge().repeat(n, m))
                .then(Pattern::node("y"));
            let out = pgq_pattern::OutputPattern::vars(p, ["x", "y"]).unwrap();
            Query::pattern_ro(out, ["N", "E", "S", "T", "L", "P"])
        };
        let text = |n, m| explain_with(&q(n, m), &d.schema(), Some(&store), None).unwrap();
        let small = text(0, 10);
        assert!(small.contains("[route: compiled plan]"), "{small}");
        assert!(small.contains("Fixpoint"), "{small}");
        assert_eq!(text(0, 100_000), small.replace("10", "100000"));
        assert_eq!(text(100_000, 100_000), text(10, 10).replace("10", "100000"));
        for (n, m, rows) in [(0, 100_000, 10), (100_000, 100_000, 0), (3, 3, 1)] {
            let got = crate::eval_with_store(&q(n, m), &d, EvalConfig::physical(), &store);
            assert_eq!(got.as_ref().map(Relation::len), Ok(rows), "{{{n},{m}}}");
            if n < 10 {
                assert_eq!(got, eval_with(&q(n, m), &d, EvalConfig::reference()));
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
