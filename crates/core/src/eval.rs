//! Query evaluation — Figure 4's semantics, on three engines.
//!
//! The two-phase evaluation of pattern calls is exactly the paper's: the
//! six subqueries are evaluated on the current instance, `pgView`
//! (respectively `pgView_n`, `pgView_ext`) interprets the results as a
//! property graph (erroring if the Definition 3.1/5.1 conditions fail),
//! and the output pattern is evaluated on that graph.
//!
//! [`Engine::Physical`], the default, compiles every pattern call into
//! the query's physical plan (`crate::physical`); under a store a call
//! over a frozen graph skips the first phase, as its view was validated
//! at registration. [`Engine::Nfa`] and [`Engine::Reference`] are the
//! oracles: they build the view and answer the second phase by the
//! product-graph BFS — for *navigational* calls, a pattern that compiles
//! to an NFA with a Boolean output or items that read only its two
//! endpoints (identifiers, components, properties) — or by Figure 2.
//! Agreement between the engines is property-tested.

use crate::query::{Query, QueryError, ViewOp};
use pgq_graph::{
    pg_view_bounded, pg_view_exact, pg_view_ext, PropertyGraph, ViewMode, ViewRelations,
};
use pgq_pattern::{Nfa, OutputItem, OutputPattern, Pattern};
use pgq_relational::{Database, RelError, Relation};
use pgq_value::{Key, Tuple, Value, Var};

/// Which engine answers a query (DESIGN.md §5). All three are
/// semantically identical; the suites enforce the agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Reference semantics only — the literal Figure 2/4 evaluators,
    /// the oracle of the differential suites.
    Reference,
    /// Figure 4's tree walk with the NFA product-graph BFS answering
    /// navigational pattern calls — an oracle too.
    Nfa,
    /// The S15 physical engine (`pgq-exec`), the default: the
    /// relational shell is planned into hash-join plans and every
    /// pattern call is compiled into that plan (repetition as one
    /// bounded `Fixpoint`, a per-source sweep over a CSR of the step's
    /// endpoint pairs).
    Physical,
}

/// Evaluation options.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Engine selection.
    pub engine: Engine,
    /// View validation mode (`Strict` is the paper's semantics).
    pub view_mode: ViewMode,
    /// Worker threads for the physical engine's morsel-parallel
    /// operators: `0` resolves to the environment default
    /// (`PGQ_THREADS`, else available parallelism — see
    /// `pgq_exec::ExecOptions::auto`), `1` forces sequential
    /// execution. The other engines are single-threaded tree walkers
    /// and ignore it. Results are identical at every setting.
    pub threads: usize,
    /// Which estimator the storage-lowering pass plans with (PR 10):
    /// [`pgq_exec::PlannerChoice::Cost`] (the store's statistics — the
    /// default) or [`pgq_exec::PlannerChoice::Rule`] (none, so plans
    /// keep their syntactic shape — the escape hatch). Only
    /// [`Engine::Physical`] under a store consults it;
    /// results are identical either way (the differential suites
    /// enforce it), only plan shapes differ.
    pub planner: pgq_exec::PlannerChoice,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            engine: Engine::Physical,
            view_mode: ViewMode::Strict,
            threads: 0,
            planner: pgq_exec::PlannerChoice::default(),
        }
    }
}

impl EvalConfig {
    /// Reference semantics only — no fast path (ablation/differential
    /// testing).
    pub fn reference() -> Self {
        EvalConfig {
            engine: Engine::Reference,
            ..Default::default()
        }
    }

    /// The physical execution engine (substrate S15) — the default.
    pub fn physical() -> Self {
        EvalConfig::default()
    }

    /// The NFA engine (differential testing).
    pub fn nfa() -> Self {
        EvalConfig {
            engine: Engine::Nfa,
            ..Default::default()
        }
    }

    /// The same configuration on an explicit worker-thread count
    /// (`0` = environment default) — the shell's `SET THREADS n;`.
    pub fn with_threads(self, threads: usize) -> Self {
        EvalConfig { threads, ..self }
    }

    /// The same configuration on an explicit planner — the shell's
    /// `SET PLANNER {cost|rule};`.
    pub fn with_planner(self, planner: pgq_exec::PlannerChoice) -> Self {
        EvalConfig { planner, ..self }
    }
}

/// Evaluates a query with default configuration.
pub fn eval(q: &Query, db: &Database) -> Result<Relation, QueryError> {
    eval_with(q, db, EvalConfig::default())
}

/// Evaluates a query with the given configuration through a shared
/// session [`pgq_store::Store`] (substrate S16). Only
/// [`Engine::Physical`] consults the store — base relations scan its
/// columnar indexes, and pattern calls over registered graphs skip the
/// per-query view rebuild: they are compiled onto the graph's view
/// relations and planned with the query; the other engines behave
/// exactly as [`eval_with`]. The store must agree with `db` — registered from it
/// (see `pgq_store::Store::from_database`) and, after changes, kept in
/// step either by re-registration (which drops the graph entries over
/// the replaced relations until they are registered again) or
/// **incrementally** through `Store::apply_updates` (PR 5), the store's
/// one in-place writer: registered relations, CSR overlays and graph
/// entries then answer for the post-update state with cost
/// proportional to the delta. The differential suite `tests/prop_store.rs` holds all
/// routes — including updated-in-place and post-`compact()` stores —
/// to identical results.
///
/// A pinned [`pgq_store::StoreSnapshot`] (PR 8) derefs to the store it
/// published, so `&snapshot` goes here too: the reader keeps
/// evaluating that immutable state — same dictionary, same columns,
/// same CSR bases — no matter what a concurrent
/// [`pgq_store::ConcurrentStore`] writer publishes (or compacts)
/// meanwhile.
pub fn eval_with_store(
    q: &Query,
    db: &Database,
    cfg: EvalConfig,
    store: &pgq_store::Store,
) -> Result<Relation, QueryError> {
    if cfg.engine == Engine::Physical {
        return crate::physical::eval_physical(q, db, cfg, Some(store), None);
    }
    eval_with(q, db, cfg)
}

/// [`eval_with_store`], additionally returning a
/// [`pgq_exec::QueryProfile`] — the `EXPLAIN ANALYZE` entry point. On
/// [`Engine::Physical`] the profile is the executed physical plan
/// annotated per operator (rows in/out, wall time, degree of
/// parallelism, hash-join build sizes, fixpoint iteration Δ sizes,
/// per-worker morsel counts); a pattern call profiles as its compiled
/// operators (a repetition as its `Fixpoint`, with per-round Δ sizes).
/// The other
/// engines are tree walkers with no operator tree, so they report a
/// single node. The result relation is identical to
/// [`eval_with_store`]'s — metrics collection never perturbs results —
/// and the profile's non-timing fields are byte-identical at every
/// thread count.
pub fn eval_with_store_profiled(
    q: &Query,
    db: &Database,
    cfg: EvalConfig,
    store: &pgq_store::Store,
) -> Result<(Relation, pgq_exec::QueryProfile), QueryError> {
    let start = std::time::Instant::now();
    let mut root = pgq_exec::PlanMetrics::default();
    let (rel, threads) = if cfg.engine == Engine::Physical {
        let rel = crate::physical::eval_physical(q, db, cfg, Some(store), Some(&mut root))?;
        (rel, crate::physical::exec_opts(cfg).threads)
    } else {
        let rel = eval_with(q, db, cfg)?;
        let label = match cfg.engine {
            Engine::Reference => "Reference (Figure 2/4) evaluator [no physical plan]",
            _ => "NFA-routed evaluator [no physical plan]",
        };
        root.label = label.into();
        root.executed = true;
        root.rows_out = rel.len() as u64;
        root.elapsed_ns = start.elapsed().as_nanos() as u64;
        (rel, 1)
    };
    let profile = pgq_exec::QueryProfile {
        rows: rel.len() as u64,
        threads,
        elapsed_ns: start.elapsed().as_nanos() as u64,
        root,
    };
    Ok((rel, profile))
}

/// Evaluates a query with the given configuration.
pub fn eval_with(q: &Query, db: &Database, cfg: EvalConfig) -> Result<Relation, QueryError> {
    match q {
        // A stored relation is its own answer on every engine — nothing
        // to plan, intern or decode (the six views of a pattern call
        // are usually exactly this).
        Query::Rel(name) => Ok(db.get_required(name)?.clone()),
        _ if cfg.engine == Engine::Physical => {
            crate::physical::eval_physical(q, db, cfg, None, None)
        }
        Query::Const(c) => {
            // ⟦c⟧_D := c where c ∈ adom(D) (Figure 4): the singleton
            // restricted to the active domain.
            let mut r = Relation::empty(1);
            if db.active_domain().contains(c) {
                r.insert(pgq_value::Tuple::unary(c.clone()))?;
            }
            Ok(r)
        }
        Query::Project(pos, q) => Ok(eval_with(q, db, cfg)?.project(pos)?),
        Query::Select(cond, q) => {
            let rel = eval_with(q, db, cfg)?;
            if let Some(max) = cond.max_position() {
                if max >= rel.arity() {
                    return Err(QueryError::Rel(RelError::PositionOutOfRange {
                        position: max,
                        arity: rel.arity(),
                    }));
                }
            }
            Ok(rel.select(|t| cond.eval(t).unwrap_or(false)))
        }
        Query::Product(a, b) => Ok(eval_with(a, db, cfg)?.product(&eval_with(b, db, cfg)?)),
        Query::Union(a, b) => Ok(eval_with(a, db, cfg)?.union(&eval_with(b, db, cfg)?)?),
        Query::Diff(a, b) => {
            // The derived intersection `Q − (Q − Q′)` (`Query::intersect`)
            // would evaluate `Q` three times if taken literally;
            // evaluate each operand once instead.
            if let Some((l, r)) = q.as_intersection() {
                return Ok(eval_with(l, db, cfg)?.intersection(&eval_with(r, db, cfg)?)?);
            }
            Ok(eval_with(a, db, cfg)?.difference(&eval_with(b, db, cfg)?)?)
        }
        Query::Pattern { out, views, op } => {
            let graph = build_view(views, *op, db, cfg)?;
            eval_output(out, &graph, cfg)
        }
    }
}

/// Phase one of a pattern call: evaluate the six subqueries and apply the
/// appropriate `pgView` operator.
pub fn build_view(
    views: &[Query; 6],
    op: ViewOp,
    db: &Database,
    cfg: EvalConfig,
) -> Result<PropertyGraph, QueryError> {
    view_graph(views, op, cfg.view_mode, |q| eval_with(q, db, cfg))
}

/// [`build_view`] with the six subqueries evaluated by `ev`.
pub(crate) fn view_graph(
    views: &[Query; 6],
    op: ViewOp,
    mode: ViewMode,
    ev: impl Fn(&Query) -> Result<Relation, QueryError>,
) -> Result<PropertyGraph, QueryError> {
    let [n, e, s, t, l, p] = views;
    let vr = ViewRelations::from([ev(n)?, ev(e)?, ev(s)?, ev(t)?, ev(l)?, ev(p)?]);
    Ok(match op {
        ViewOp::Unary => pg_view_exact(1, &vr, mode)?,
        ViewOp::Bounded(n) => pg_view_bounded(n, &vr, mode)?,
        ViewOp::Ext => pg_view_ext(&vr, mode)?,
    })
}

/// Phase two: evaluate the output pattern on the graph — by the NFA
/// when the engine is [`Engine::Nfa`] and the call is navigational (see
/// [`cells`]), by Figure 2 otherwise.
fn eval_output(
    out: &OutputPattern,
    g: &PropertyGraph,
    cfg: EvalConfig,
) -> Result<Relation, QueryError> {
    if cfg.engine == Engine::Nfa {
        if let Ok(nfa) = Nfa::compile(&out.pattern) {
            let (x, y) = (
                leftmost_node_var(&out.pattern),
                rightmost_node_var(&out.pattern),
            );
            if let Some(cells) = cells(out, x.as_ref(), y.as_ref(), g.id_arity()) {
                out.pattern.validate()?;
                let pairs = nfa.eval_pairs(g);
                let ends = pairs.iter().map(|(s, t)| (s.values(), t.values()));
                return project(&cells, ends, g);
            }
        }
    }
    Ok(out.eval(g)?)
}

/// One output column read off an endpoint pair `(s̄, t̄)`; `target`
/// picks `t̄`. An identifier item is its `k` component cells.
enum Cell {
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

/// The NFA's projection: every pair `(s̄, t̄)` becomes one row through
/// `cells`, a pair whose property is undefined gives none (Figure 2's
/// rule), and a Boolean output (no cells) holds iff some pair exists.
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

/// The variable bound by the leftmost node atom of a concatenation
/// spine, provided the endpoint of the whole pattern is that atom's
/// element (filters preserve endpoints; unions/repeats do not determine
/// a unique binder).
fn leftmost_node_var(p: &Pattern) -> Option<Var> {
    match p {
        Pattern::Node(v) => v.clone(),
        Pattern::Concat(a, _) => leftmost_node_var(a),
        Pattern::Filter(inner, _) => leftmost_node_var(inner),
        _ => None,
    }
}

fn rightmost_node_var(p: &Pattern) -> Option<Var> {
    match p {
        Pattern::Node(v) => v.clone(),
        Pattern::Concat(_, b) => rightmost_node_var(b),
        Pattern::Filter(inner, _) => rightmost_node_var(inner),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_value::tuple;

    /// A database holding the six canonical relations of a 4-chain
    /// a→b→c→d plus plain relations for RA tests.
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
        db.insert("Pairs", tuple![1, 2]).unwrap();
        db
    }

    fn reach_out() -> OutputPattern {
        OutputPattern::vars(
            Pattern::node("x")
                .then(Pattern::any_edge().star())
                .then(Pattern::node("y")),
            ["x", "y"],
        )
        .unwrap()
    }

    #[test]
    fn ra_operators() {
        let d = db();
        let q = Query::rel("Pairs").project(vec![1]);
        assert_eq!(eval(&q, &d).unwrap(), Relation::unary([2i64]));
        let q = Query::rel("Pairs").select(pgq_relational::RowCondition::col_eq(0, 1));
        assert!(eval(&q, &d).unwrap().is_empty());
        let q = Query::rel("N").union(Query::rel("E"));
        assert_eq!(eval(&q, &d).unwrap().len(), 7);
        let q = Query::rel("N").diff(Query::rel("N"));
        assert!(eval(&q, &d).unwrap().is_empty());
        let q = Query::rel("N").intersect(Query::rel("N"));
        assert_eq!(eval(&q, &d).unwrap().len(), 4);
    }

    #[test]
    fn const_restricted_to_adom() {
        let d = db();
        let q = Query::constant("a");
        assert_eq!(eval(&q, &d).unwrap().len(), 1);
        let q = Query::constant("zzz");
        assert!(eval(&q, &d).unwrap().is_empty());
    }

    #[test]
    fn ro_pattern_reachability() {
        let d = db();
        let q = Query::pattern_ro(reach_out(), ["N", "E", "S", "T", "L", "P"]);
        let rel = eval(&q, &d).unwrap();
        // 4 reflexive + 6 forward pairs in a 4-chain.
        assert_eq!(rel.len(), 10);
        assert!(rel.contains(&tuple!["a", "d"]));
        assert!(!rel.contains(&tuple!["d", "a"]));
    }

    #[test]
    fn fast_and_reference_paths_agree() {
        let d = db();
        let q = Query::pattern_ro(reach_out(), ["N", "E", "S", "T", "L", "P"]);
        let fast = eval_with(&q, &d, EvalConfig::default()).unwrap();
        let slow = eval_with(&q, &d, EvalConfig::reference()).unwrap();
        assert_eq!(fast, slow);
        // Boolean query too.
        let b = Query::pattern_ro(
            OutputPattern::boolean(Pattern::any_edge()).unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        assert_eq!(
            eval_with(&b, &d, EvalConfig::default()).unwrap(),
            eval_with(&b, &d, EvalConfig::reference()).unwrap()
        );
    }

    #[test]
    fn rw_pattern_over_derived_views() {
        // Nodes = N, edges = E, but only edges whose source is "a" or
        // "b": derived via RA on S.
        let d = db();
        let keep = Query::rel("S")
            .select(pgq_relational::RowCondition::col_eq_const(1, "a"))
            .union(Query::rel("S").select(pgq_relational::RowCondition::col_eq_const(1, "b")));
        let edge_q = keep.clone().project(vec![0]);
        let views = [
            Query::rel("N"),
            edge_q,
            keep.clone(),
            // Target rows for surviving edges: join T with kept edges.
            Query::rel("T")
                .product(keep.project(vec![0]))
                .select(pgq_relational::RowCondition::col_eq(0, 2))
                .project(vec![0, 1]),
            Query::rel("L"),
            Query::rel("P"),
        ];
        let q = Query::pattern_rw(reach_out(), views);
        let rel = eval(&q, &d).unwrap();
        // Reachability along e1, e2 only: a→b→c (no e3).
        assert!(rel.contains(&tuple!["a", "c"]));
        assert!(!rel.contains(&tuple!["a", "d"]));
        assert_eq!(q.fragment(), crate::query::Fragment::Rw);
    }

    #[test]
    fn invalid_view_is_a_typed_error() {
        let d = db();
        // Use N as both node and edge set: disjointness fails.
        let views = [
            Query::rel("N"),
            Query::rel("N"),
            Query::rel("S"),
            Query::rel("T"),
            Query::rel("L"),
            Query::rel("P"),
        ];
        let q = Query::pattern_rw(reach_out(), views);
        assert!(matches!(eval(&q, &d).unwrap_err(), QueryError::View(_)));
    }

    #[test]
    fn bounded_view_op_enforces_arity() {
        let mut d = db();
        // Binary identifiers in N2/E2 …
        d.insert("N2", tuple!["a", 1]).unwrap();
        d.add_relation("E2", Relation::empty(2));
        d.add_relation("S2", Relation::empty(4));
        d.add_relation("T2", Relation::empty(4));
        d.add_relation("L2", Relation::empty(3));
        d.add_relation("P2", Relation::empty(4));
        let out = OutputPattern::vars(Pattern::node("x"), ["x"]).unwrap();
        let views = || {
            [
                Query::rel("N2"),
                Query::rel("E2"),
                Query::rel("S2"),
                Query::rel("T2"),
                Query::rel("L2"),
                Query::rel("P2"),
            ]
        };
        // pgView_1 rejects arity-2 identifiers; pgView_2 and ext accept.
        let q1 = Query::pattern_n(1, out.clone(), views());
        assert!(matches!(eval(&q1, &d).unwrap_err(), QueryError::View(_)));
        let q2 = Query::pattern_n(2, out.clone(), views());
        assert_eq!(eval(&q2, &d).unwrap().len(), 1);
        let qe = Query::pattern_ext(out, views());
        assert_eq!(eval(&qe, &d).unwrap().arity(), 2);
    }

    #[test]
    fn lenient_mode_recovers_from_dirty_views() {
        let mut d = db();
        // Dangling src row.
        d.insert("S", tuple!["ghost", "a"]).unwrap();
        let q = Query::pattern_ro(reach_out(), ["N", "E", "S", "T", "L", "P"]);
        assert!(eval(&q, &d).is_err());
        let lenient = EvalConfig {
            view_mode: ViewMode::Lenient,
            ..Default::default()
        };
        assert!(eval_with(&q, &d, lenient).is_ok());
    }
}
