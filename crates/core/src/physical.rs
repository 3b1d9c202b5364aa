//! The `Engine::Physical` route: Figure 3's relational shell planned
//! onto the S15 physical engine (`pgq-exec`), with every pattern call
//! compiled into the same plan (`compile.rs`) over the six relations of
//! its view — repetition as one bounded `Fixpoint`. The NFA and Figure 2
//! evaluators (`Engine::{Nfa, Reference}`) are the oracles the
//! differential suites (`tests/prop_engine.rs`, `tests/prop_store.rs`)
//! hold this route to. See DESIGN.md §5.
//!
//! A call over a graph frozen in the store, whose operator admits the
//! graph's identifier arity, reads the view relations' scans: the view
//! was validated once, at registration. Any other call evaluates its six
//! subqueries, validates the view exactly as the reference's `pgView`
//! does — so every `ViewError` is the reference's, in either view mode —
//! and compiles over the validated relations, passed in as `Values`
//! batches named `⟨viewN R⟩` whose rows every atom's leaf shares.
//! `EXPLAIN` plans row-less batches of the same names, so the tree it
//! prints is the one evaluation runs.
//!
//! Evaluation and `EXPLAIN` share one translation of the shell:
//! `shell_plan` has one rule per Figure 3 constructor and asks a
//! `Leaves` handler what a stored relation, a constant or the views of a
//! pattern call become, and `pgq_exec::physical_plan` is the one
//! optimize → lower-onto-store step both then take. What `EXPLAIN`
//! prints is what runs because it is the same code. Every evaluating
//! function takes the optional [`PlanMetrics`] sink the executor's
//! operators take: `None` measures nothing, `Some` is the
//! `EXPLAIN ANALYZE` route.

use crate::compile::compile;
use crate::eval::{view_graph, EvalConfig};
use crate::query::{Query, QueryError, ViewOp};
use pgq_exec::{
    annotate_estimates, execute_opts, execute_profiled, intersect_plan, physical_plan, Batch,
    ExecOptions, PhysPlan, PlanMetrics, PlannerChoice,
};
use pgq_graph::{relations_of, shape, ViewMode};
use pgq_pattern::OutputPattern;
use pgq_relational::{Database, RelName, Relation, Schema};
use pgq_store::Store;
use pgq_value::{Tuple, Value};

/// The executor options a configuration resolves to (`0` = the
/// environment default).
pub(crate) fn exec_opts(cfg: EvalConfig) -> ExecOptions {
    ExecOptions::with_threads(cfg.threads).with_planner(cfg.planner)
}

/// What [`shell_plan`] plans at the leaves of the relational shell.
trait Leaves {
    /// The session store, if any.
    fn store(&self) -> Option<&Store>;
    /// A stored relation `R`.
    fn rel(&mut self, name: &RelName) -> Result<PhysPlan, QueryError>;
    /// A constant `c`.
    fn constant(&mut self, c: &Value) -> Result<PhysPlan, QueryError>;
    /// The six view leaves of a pattern call that is not over a frozen
    /// graph, and their identifier arity.
    fn views(
        &mut self,
        views: &[Query; 6],
        op: ViewOp,
    ) -> Result<([PhysPlan; 6], usize), QueryError>;
    /// Notes a compiled call; `frozen` when it reads a frozen graph.
    fn compiled(&mut self, _out: &OutputPattern, _op: ViewOp, _frozen: bool) {}
}

/// Lowers the relational shell of a query onto the physical IR, one
/// rule per constructor; the storage lowering happens later, in
/// [`physical_plan`] — under either planner the plans are semantically
/// identical (the differential suites enforce it), only shapes change.
fn shell_plan(q: &Query, leaves: &mut impl Leaves) -> Result<PhysPlan, QueryError> {
    Ok(match q {
        Query::Rel(name) => leaves.rel(name)?,
        Query::Const(c) => leaves.constant(c)?,
        Query::Pattern { out, views, op } => {
            let frozen = leaves
                .store()
                .and_then(|store| frozen_views(views, *op, store));
            let is_frozen = frozen.is_some();
            let (views, k) = match frozen {
                Some(frozen) => frozen,
                None => leaves.views(views, *op)?,
            };
            let plan = compile(out, views, k)?;
            leaves.compiled(out, *op, is_frozen);
            plan
        }
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

/// The scans of the view relations of the graph the store froze from
/// exactly these views, and its identifier arity `k` — when the call's
/// operator admits `k`: every `pgView` form reads `k` off `R1` and
/// builds the same `pgView=k` graph, so `pgView` serves `k = 1`,
/// `pgView_n` any `k ≤ n` and `pgView_ext` any `k`. Only views that are
/// all plain base relations can name one.
fn frozen_views(views: &[Query; 6], op: ViewOp, store: &Store) -> Option<([PhysPlan; 6], usize)> {
    let [Query::Rel(n), Query::Rel(e), Query::Rel(s), Query::Rel(t), Query::Rel(l), Query::Rel(p)] =
        views
    else {
        return None;
    };
    let names = [n, e, s, t, l, p].map(Clone::clone);
    let k = store.graph_for_views(&names)?.id_arity();
    let admits = match op {
        ViewOp::Unary => k == 1,
        ViewOp::Bounded(n) => k <= n,
        ViewOp::Ext => true,
    };
    admits.then(|| (names.map(PhysPlan::Scan), k))
}

/// The evaluating [`Leaves`]: constants become materialized `Values`,
/// and the views of a call not over a frozen graph are evaluated (with
/// the same configuration, so nested shells are planned too) and
/// validated.
struct Evaluate<'a> {
    db: &'a Database,
    cfg: EvalConfig,
    store: Option<&'a Store>,
    /// Calls not over a frozen graph so far, which number their views.
    calls: usize,
}

impl Leaves for Evaluate<'_> {
    fn store(&self) -> Option<&Store> {
        self.store
    }

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

    /// The view built as the reference builds it: the six subqueries
    /// evaluated — under a store they read the store (`db` may hold only
    /// their schema), and each such build is counted (`view_builds` on
    /// [`Store::counters`]) — and `pgView` applied in the configured
    /// mode. The leaves are the validated graph's relations, named as
    /// `EXPLAIN` names them ([`view_leaves`]); every atom's leaf shares
    /// their rows.
    fn views(
        &mut self,
        views: &[Query; 6],
        op: ViewOp,
    ) -> Result<([PhysPlan; 6], usize), QueryError> {
        let (db, cfg, store) = (self.db, self.cfg, self.store);
        if let Some(store) = store {
            store.counters().record_view_build();
        }
        let g = view_graph(views, op, cfg.view_mode, |q| {
            eval_physical(q, db, cfg, store, None)
        })?;
        let r = relations_of(&g);
        let rels = [&r.nodes, &r.edges, &r.src, &r.tgt, &r.labels, &r.props];
        self.calls += 1;
        Ok((
            view_leaves(self.calls, rels.map(Batch::from_relation)),
            g.id_arity(),
        ))
    }
}

/// The view relations' names, in view order.
const VIEW_NAMES: [&str; 6] = ["N", "E", "S", "T", "L", "P"];

/// The view leaves of the `call`-th call not over a frozen graph:
/// `batches` named `⟨view{call} R⟩`. Evaluation passes the validated
/// relations and `EXPLAIN` row-less batches of their arities, so both
/// plan the same tree ([`Batch::named`]).
fn view_leaves(call: usize, batches: [Batch; 6]) -> [PhysPlan; 6] {
    let mut names = VIEW_NAMES.iter();
    batches.map(|b| {
        let name = names.next().expect("six view names");
        PhysPlan::Values(b.named(format!("⟨view{call} {name}⟩")))
    })
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
    m: Option<&mut PlanMetrics>,
) -> Result<Relation, QueryError> {
    let mut leaves = Evaluate {
        db,
        cfg,
        store,
        calls: 0,
    };
    let shell = shell_plan(q, &mut leaves)?;
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

/// Renders the physical plan of a query as an `EXPLAIN`-style tree —
/// without evaluating anything. The plan is exactly the one
/// `Engine::Physical` would run; each pattern call is compiled into it,
/// and a line below the tree names the call and its route.
pub fn explain(q: &Query, schema: &Schema) -> Result<String, QueryError> {
    explain_with(q, schema, None, None)
}

/// [`explain`] with everything a session adds. Under a [`Store`] the
/// plan is additionally lowered onto its indexes (`IndexScan`,
/// `AdjacencyExpand`, CSR fixpoints) by the planner `opts` selects (the
/// default without `opts`), operators that read through an update
/// overlay are marked `⟨delta⟩`, and a pattern call over a graph the
/// store froze reads its view relations (`[route: compiled plan]`). Any
/// other call reads its six view relations as the `Values ⟨viewN R⟩`
/// leaves evaluation materializes and validates, and its line
/// (`[route: compiled plan over a per-statement view]`) lists the plan
/// of each view subquery, planned alone as it runs. Under concrete
/// `opts` every morsel-parallel operator is annotated with its degree
/// of parallelism (`⟨dop≤n⟩`) and a trailing line states the worker
/// budget — what the shell renders after `SET THREADS n;` / `SET
/// PLANNER rule;`. It is the plan `eval_with_store` executes under the
/// same configuration.
pub fn explain_with(
    q: &Query,
    schema: &Schema,
    store: Option<&Store>,
    opts: Option<&ExecOptions>,
) -> Result<String, QueryError> {
    q.arity(schema)?;
    let planner = opts.map_or_else(PlannerChoice::default, |o| o.planner);
    let mut leaves = Explain::new(schema, store, planner);
    let shell = shell_plan(q, &mut leaves)?;
    let plan = physical_plan(shell, schema, store, planner)?;
    let mut text = plan.display_with(store, opts);
    for s in leaves.sections {
        text.push('\n');
        text.push_str(&s);
    }
    Ok(text)
}

/// The explaining [`Leaves`]: nothing is evaluated. The views of a
/// call not over a frozen graph are row-less named batches, and every
/// compiled call adds a section naming it — with, for such a call, the
/// plans of its six view subqueries.
struct Explain<'a> {
    schema: &'a Schema,
    store: Option<&'a Store>,
    planner: PlannerChoice,
    sections: Vec<String>,
    /// Calls not over a frozen graph so far, which number their views.
    calls: usize,
    /// The view subplans of the call being compiled.
    subplans: String,
}

impl<'a> Explain<'a> {
    fn new(schema: &'a Schema, store: Option<&'a Store>, planner: PlannerChoice) -> Self {
        Explain {
            schema,
            store,
            planner,
            sections: Vec::new(),
            calls: 0,
            subplans: String::new(),
        }
    }

    /// A view subquery's plan as evaluation plans it — alone, its own
    /// calls numbered from 1 — with its sections, indented by `indent`.
    fn subplan(&self, q: &Query, indent: &str) -> Result<String, QueryError> {
        let mut leaves = Explain::new(self.schema, self.store, self.planner);
        let shell = shell_plan(q, &mut leaves)?;
        let plan = physical_plan(shell, self.schema, self.store, self.planner)?;
        let mut text = plan.display_with(self.store, None);
        for s in leaves.sections {
            text.push_str(&s);
            text.push('\n');
        }
        Ok(text.lines().map(|l| format!("{indent}{l}\n")).collect())
    }
}

impl Leaves for Explain<'_> {
    fn store(&self) -> Option<&Store> {
        self.store
    }

    fn rel(&mut self, name: &RelName) -> Result<PhysPlan, QueryError> {
        Ok(PhysPlan::Scan(name.clone()))
    }

    fn constant(&mut self, c: &Value) -> Result<PhysPlan, QueryError> {
        Ok(PhysPlan::Values(Batch::singleton(Tuple::unary(c.clone()))))
    }

    fn views(
        &mut self,
        views: &[Query; 6],
        op: ViewOp,
    ) -> Result<([PhysPlan; 6], usize), QueryError> {
        // The view's static conditions — its shape and identifier
        // arity — fail here as they fail in evaluation.
        let schema = self.schema;
        let k = view_graph(views, op, ViewMode::Strict, |q| {
            Ok(Relation::empty(q.arity(schema)?))
        })?
        .id_arity();
        self.calls += 1;
        let mut subplans = String::new();
        for (name, q) in VIEW_NAMES.iter().zip(views) {
            subplans.push_str(&format!("\n  ⟨view{} {name}⟩:\n", self.calls));
            subplans.push_str(self.subplan(q, "    ")?.trim_end());
        }
        self.subplans = subplans;
        Ok((view_leaves(self.calls, shape(k).map(Batch::empty)), k))
    }

    fn compiled(&mut self, out: &OutputPattern, op: ViewOp, frozen: bool) {
        let route = if frozen {
            "compiled plan"
        } else {
            "compiled plan over a per-statement view"
        };
        let subplans = std::mem::take(&mut self.subplans);
        self.sections
            .push(format!("{out} via {op} [route: {route}]{subplans}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_with, Engine};
    use crate::{builders, Query};
    use pgq_pattern::{OutputError, OutputItem, Pattern};
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
        let nfa = eval_with(&q, &d, EvalConfig::nfa()).unwrap();
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

    /// The view builds `f` makes on `store`.
    fn builds(store: &Store, f: impl FnOnce()) -> u64 {
        let before = store.counters().snapshot().view_builds;
        f();
        store.counters().snapshot().view_builds - before
    }

    /// Every call compiles. Over a registered graph it reads the view
    /// relations and builds no view, whatever its shape; over
    /// unregistered or derived views it builds one per statement. Each
    /// answers as Figure 2 does.
    #[test]
    fn every_call_compiles_with_or_without_a_registered_graph() {
        let d = db();
        let q = reach_query();
        let reference = |q: &Query| eval_with(q, &d, EvalConfig::reference()).unwrap();
        let physical = |q: &Query, store: &Store| {
            crate::eval_with_store(q, &d, EvalConfig::physical(), store).unwrap()
        };
        // Empty store: the view is built for the statement.
        let empty = Store::from_database(&d);
        assert_eq!(
            builds(&empty, || assert_eq!(physical(&q, &empty), reference(&q))),
            1
        );
        // A registered graph: no view build, backward edges included.
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
        for q in [&q, &back] {
            assert_eq!(
                builds(&store, || assert_eq!(physical(q, &store), reference(q))),
                0
            );
        }
        // Derived (non-Rel) views name no frozen graph.
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
        let text = explain_with(&derived, &d.schema(), Some(&store), None).unwrap();
        assert!(
            text.contains("[route: compiled plan over a per-statement view]"),
            "{text}"
        );
        assert_eq!(
            builds(&store, || assert_eq!(
                physical(&derived, &store),
                reference(&derived)
            )),
            1
        );
        // The oracle engines ignore the store.
        assert_eq!(
            crate::eval_with_store(&q, &d, EvalConfig::nfa(), &store).unwrap(),
            reference(&q)
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

        // A call with no store compiles over its views' subplans.
        let text = explain(&reach_query(), &d.schema()).unwrap();
        assert!(
            text.contains("[route: compiled plan over a per-statement view]"),
            "{text}"
        );
        assert!(text.contains("Fixpoint"), "{text}");
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

    /// `EXPLAIN` names the route that runs, with and without a graph
    /// frozen from the views: both compile, and only the call over the
    /// frozen graph builds no view. The profile is the compiled plan's,
    /// rooted at an operator that carries `est=`. A component past the
    /// identifier arity is Figure 2's typed error on both, and builds
    /// no view.
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
        let outs = [
            builders::reachability_output(),
            builders::reachability_plus_output(),
            pgq_pattern::OutputPattern::boolean(reach_star.clone()).unwrap(),
            builders::labeled_reachability_output("T"),
            xy(one_hop),
            xy(backward),
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
        for (store, frozen) in [(Store::from_database(&d), false), (store_for(&d), true)] {
            for out in &outs {
                let q = Query::pattern_ro(out.clone(), views);
                let text = explain_with(&q, &d.schema(), Some(&store), None).unwrap();
                let route = if frozen {
                    "[route: compiled plan]"
                } else {
                    "[route: compiled plan over a per-statement view]"
                };
                assert!(text.contains(route), "{text}");
                let mut result = None;
                let built = builds(&store, || {
                    result = Some(crate::eval_with_store_profiled(
                        &q,
                        &d,
                        EvalConfig::physical(),
                        &store,
                    ));
                });
                assert_eq!(built, u64::from(!frozen), "{q}");
                let (rel, profile) = result.unwrap().unwrap();
                assert_eq!(Ok(rel), eval_with(&q, &d, EvalConfig::reference()), "{q}");
                let root = profile.root;
                assert!(!root.label.starts_with("Pattern"), "{q}: {}", root.label);
                assert!(root.est_rows.is_some(), "{q}: {}", root.label);
            }
            let past_k = with(&reach_star, vec![OutputItem::Component("x".into(), 1)]);
            let q = Query::pattern_ro(past_k, views);
            let out_of_range = QueryError::Output(OutputError::ComponentOutOfRange {
                var: "x".into(),
                index: 1,
                id_arity: 1,
            });
            assert_eq!(
                explain_with(&q, &d.schema(), Some(&store), None),
                Err(out_of_range.clone())
            );
            let built = builds(&store, || {
                let got = crate::eval_with_store(&q, &d, EvalConfig::physical(), &store);
                assert_eq!(got, Err(out_of_range.clone()));
            });
            assert_eq!(built, u64::from(!frozen));
            assert_eq!(
                eval_with(&q, &d, EvalConfig::reference()),
                Err(out_of_range)
            );
        }
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

    /// A two-hop chain over a derived `N` view, joined with a one-row
    /// stored relation: what `EXPLAIN` prints is the tree `EXPLAIN
    /// ANALYZE` runs, operator for operator — the cost planner orders
    /// that join alike, though only evaluation knows the view's rows —
    /// and every atom's leaf of one view relation shares that
    /// relation's rows.
    #[test]
    fn explain_prints_the_tree_a_derived_view_call_runs() {
        let mut d = db();
        d.insert("W", tuple!["a"]).unwrap();
        let store = store_for(&d);
        let endpoints = Query::rel("S")
            .project(vec![1])
            .union(Query::rel("T").project(vec![1]));
        let views = [
            endpoints,
            Query::rel("E"),
            Query::rel("S"),
            Query::rel("T"),
            Query::rel("L"),
            Query::rel("P"),
        ];
        let hops = Pattern::node("x")
            .then(Pattern::any_edge())
            .then(Pattern::any_edge());
        let out = pgq_pattern::OutputPattern::vars(hops.then(Pattern::node("y")), ["x", "y"]);
        let q = Query::pattern_rw(out.unwrap(), views)
            .product(Query::rel("W"))
            .select(RowCondition::col_eq(0, 2));

        let text = explain_with(&q, &d.schema(), Some(&store), None).unwrap();
        assert!(text.contains("Values ⟨view1 S⟩"), "{text}");
        assert!(text.contains("  ⟨view1 N⟩:"), "{text}");
        let (rel, profile) =
            crate::eval_with_store_profiled(&q, &d, EvalConfig::physical(), &store).unwrap();
        assert_eq!(Ok(rel), eval_with(&q, &d, EvalConfig::reference()));
        fn labels(m: &PlanMetrics, out: &mut Vec<String>) {
            out.push(m.label.clone());
            m.children.iter().for_each(|c| labels(c, out));
        }
        let mut ran = Vec::new();
        labels(&profile.root, &mut ran);
        let printed: Vec<String> = text
            .lines()
            .take(ran.len())
            .map(|l| l.trim_start_matches([' ', '│', '├', '└', '─']).to_string())
            .collect();
        assert_eq!(printed, ran, "{text}");

        fn values(p: PhysPlan, out: &mut Vec<Batch>) {
            match p {
                PhysPlan::Values(b) => out.push(b),
                p => {
                    p.map_children(|c| {
                        values(c.clone(), out);
                        c
                    });
                }
            }
        }
        let mut leaves = Evaluate {
            db: &d,
            cfg: EvalConfig::physical(),
            store: Some(&store),
            calls: 0,
        };
        let mut batches = Vec::new();
        values(shell_plan(&q, &mut leaves).unwrap(), &mut batches);
        let s: Vec<_> = batches
            .iter()
            .filter(|b| b.name() == Some("⟨view1 S⟩"))
            .collect();
        assert_eq!(s.len(), 2, "one S leaf per hop");
        assert!(s.iter().all(|b| b.rows().as_ptr() == s[0].rows().as_ptr()));
    }

    #[test]
    fn explain_names_every_nested_pattern_call() {
        // A pattern call whose nodes view is itself a pattern call: both
        // compile into the one plan, each named on a line of its own.
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
        assert_eq!(text.matches("[route: compiled plan").count(), 2, "{text}");
        assert_eq!(
            eval_with(&q, &d, EvalConfig::physical()).unwrap(),
            eval_with(&q, &d, EvalConfig::reference()).unwrap()
        );
    }
}
