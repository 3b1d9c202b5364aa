//! Logical-to-physical planning.
//!
//! [`lower_ra`] maps the Figure 3 algebra structurally onto the physical
//! IR (recognizing the derived-intersection shape `Q − (Q − Q′)` as a
//! real intersection on the way); [`optimize_plan`] then rewrites the
//! plan:
//!
//! * **selection pushdown** — conjuncts of a `Filter` over a `Product`
//!   that touch only one side move below it; filters over a `Union`
//!   distribute to both branches; stacked filters merge;
//! * **hash-join recognition** — cross-side equality conjuncts
//!   `$i = $j` over a `Product` become the key set of a [`PhysPlan::HashJoin`],
//!   with any residual cross conjuncts left as a filter above the join;
//! * **duplicate control** — column-dropping projections get an explicit
//!   [`PhysPlan::Distinct`] so bag-valued pipelines cannot blow up
//!   through long operator chains.
//!
//! The planner never changes the set of result rows: `prop_engine.rs`
//! and this module's tests hold it to the reference evaluator.

use crate::batch::Batch;
use crate::cost::{lower_onto_store, PlannerChoice};
use crate::exec::execute_opts;
use crate::parallel::ExecOptions;
use crate::plan::PhysPlan;
use pgq_relational::{CmpOp, Database, Operand, RaExpr, RelResult, Relation, RowCondition, Schema};
use pgq_store::Store;
use std::collections::BTreeSet;

/// The plan that runs: `plan` optimized under `schema` and, under a
/// store, lowered onto its indexes with the estimator `planner` selects
/// ([`lower_onto_store`]) — the one place the two steps are strung
/// together; `pgq-core` plans its relational shells through here too.
pub fn physical_plan(
    plan: PhysPlan,
    schema: &Schema,
    store: Option<&Store>,
    planner: PlannerChoice,
) -> RelResult<PhysPlan> {
    let plan = optimize_plan(plan, schema)?;
    Ok(match store {
        Some(store) => lower_onto_store(plan, store, schema, planner),
        None => plan,
    })
}

/// [`physical_plan`] of an expression against a concrete instance.
/// `Database::schema` omits 0-ary relations (the paper's schemas are
/// positive-arity), so stored 0-ary relations are lowered by value —
/// matching the reference evaluator, which accepts them.
fn plan_for_instance(
    expr: &RaExpr,
    db: &Database,
    store: Option<&Store>,
    planner: PlannerChoice,
) -> RelResult<PhysPlan> {
    let plan = lower_with(expr, &|name| match db.get(name) {
        Some(rel) if rel.arity() == 0 => PhysPlan::Values(Batch::from_relation(rel)),
        _ => PhysPlan::Scan(name.clone()),
    });
    physical_plan(plan, &db.schema(), store, planner)
}

/// Plans and executes a relational algebra expression — the engine's
/// entry point for `RaExpr` workloads.
pub fn eval_ra(expr: &RaExpr, db: &Database) -> RelResult<Relation> {
    let plan = plan_for_instance(expr, db, None, PlannerChoice::default())?;
    execute_opts(&plan, db, None, &ExecOptions::default())?.into_relation()
}

/// [`eval_ra`] through a session [`Store`]: the optimized plan is
/// additionally lowered onto the store's indexes, runs on the store's
/// dictionary codes end-to-end, and decodes exactly once at the
/// set-semantics boundary. The store must be a snapshot of `db`.
pub fn eval_ra_with(expr: &RaExpr, db: &Database, store: &Store) -> RelResult<Relation> {
    eval_ra_opts(expr, db, store, &ExecOptions::default())
}

/// [`eval_ra_with`] on explicit [`ExecOptions`] — the entry point the
/// session layer uses to run a query morsel-parallel (`SET THREADS n;`
/// in the shell, `EvalConfig::threads` in `pgq-core`). Results are
/// byte-identical across thread counts; `tests/prop_store.rs` holds
/// the equivalence at {1, 2, 8} threads.
pub fn eval_ra_opts(
    expr: &RaExpr,
    db: &Database,
    store: &Store,
    opts: &ExecOptions,
) -> RelResult<Relation> {
    let plan = plan_for_instance(expr, db, Some(store), opts.planner)?;
    execute_opts(&plan, db, Some(store), opts)?.into_relation()
}

/// [`eval_ra_opts`], additionally returning the per-operator
/// [`crate::metrics::QueryProfile`] — plan the expression, execute it
/// instrumented, and wrap the metrics tree with the set-semantics
/// cardinality measured at the decode boundary.
pub fn eval_ra_profiled(
    expr: &RaExpr,
    db: &Database,
    store: &Store,
    opts: &ExecOptions,
) -> RelResult<(Relation, crate::metrics::QueryProfile)> {
    let plan = plan_for_instance(expr, db, Some(store), opts.planner)?;
    let start = std::time::Instant::now();
    let (batch, mut root) = crate::execute_profiled(&plan, db, Some(store), opts)?;
    crate::cost::annotate_estimates(&mut root, &plan, store);
    let rel = batch.into_relation()?;
    let profile = crate::metrics::QueryProfile {
        rows: rel.len() as u64,
        threads: opts.threads,
        elapsed_ns: start.elapsed().as_nanos() as u64,
        root,
    };
    Ok((rel, profile))
}

/// Lowers and optimizes an expression under a schema.
pub fn plan_ra(expr: &RaExpr, schema: &Schema) -> RelResult<PhysPlan> {
    optimize_plan(lower_ra(expr), schema)
}

/// Structural lowering of the Figure 3 algebra onto the physical IR.
///
/// The derived intersection `Q − (Q − Q′)` (`RaExpr::intersect`) is
/// recognized and planned as a hash join on all columns — one evaluation
/// of each operand instead of three of `Q`.
pub fn lower_ra(expr: &RaExpr) -> PhysPlan {
    lower_with(expr, &|name| PhysPlan::Scan(name.clone()))
}

fn lower_with(expr: &RaExpr, rel_leaf: &dyn Fn(&pgq_relational::RelName) -> PhysPlan) -> PhysPlan {
    match expr {
        RaExpr::Rel(name) => rel_leaf(name),
        RaExpr::Singleton(t) => PhysPlan::Values(Batch::singleton(t.clone())),
        RaExpr::ActiveDomain => PhysPlan::AdomScan,
        RaExpr::Project(pos, q) => lower_with(q, rel_leaf).project(pos.clone()),
        RaExpr::Select(cond, q) => lower_with(q, rel_leaf).filter(cond.clone()),
        RaExpr::Product(a, b) => lower_with(a, rel_leaf).product(lower_with(b, rel_leaf)),
        RaExpr::Union(a, b) => lower_with(a, rel_leaf).union(lower_with(b, rel_leaf)),
        RaExpr::Diff(a, b) => match expr.as_intersection() {
            // Q − (Q − Q′) = Q ∩ Q′: plan a real intersection.
            Some((l, r)) => intersect_plan(lower_with(l, rel_leaf), lower_with(r, rel_leaf)),
            None => lower_with(a, rel_leaf).diff(lower_with(b, rel_leaf)),
        },
    }
}

/// `left ∩ right` as a hash join on every column (the right side is
/// deduplicated so each probe matches at most once), keeping only the
/// left columns. The arity — and hence the all-columns key set — is only
/// known under a schema, so the **empty key vector itself denotes the
/// all-columns intersection**: `PhysPlan::arity` types it as the left
/// arity and the executor's hash-join arm runs it as a membership
/// semi-join (see the `PhysPlan::HashJoin` docs). No pass rewrites the
/// empty key set into explicit keys.
pub fn intersect_plan(left: PhysPlan, right: PhysPlan) -> PhysPlan {
    PhysPlan::HashJoin {
        left: Box::new(left),
        right: Box::new(right.distinct()),
        keys: Vec::new(),
    }
}

/// Rewrites a plan under a schema: merges and pushes filters, turns
/// equality-over-product into hash joins, completes all-column
/// intersection joins, and inserts `Distinct` after column-dropping
/// projections. Errors only on ill-typed plans (same conditions as
/// [`PhysPlan::arity`]) — including plans that *were* valid under a
/// schema the relation has since been redefined away from: the rewrite
/// passes re-derive arities as they go and surface a typed error
/// instead of trusting the up-front validation (the planner audit of
/// this PR; `stale_plans_error_instead_of_panicking` pins it down).
pub fn optimize_plan(plan: PhysPlan, schema: &Schema) -> RelResult<PhysPlan> {
    plan.arity(schema)?; // validate up front so rewrites start well-typed
    rewrite(plan, schema)
}

fn rewrite(plan: PhysPlan, schema: &Schema) -> RelResult<PhysPlan> {
    Ok(match plan {
        PhysPlan::Filter { cond, input } => rewrite_filter(cond, rewrite(*input, schema)?, schema)?,
        PhysPlan::Project { positions, input } => {
            let input = rewrite(*input, schema)?;
            let arity = input.arity(schema)?;
            let drops = {
                let used: BTreeSet<usize> = positions.iter().copied().collect();
                used.len() < arity
            };
            let projected = input.project(positions);
            if drops {
                projected.distinct()
            } else {
                projected
            }
        }
        PhysPlan::Distinct { input } => {
            let input = rewrite(*input, schema)?;
            if matches!(input, PhysPlan::Distinct { .. }) {
                input
            } else {
                input.distinct()
            }
        }
        other => other.try_map_children(|child| rewrite(child, schema))?,
    })
}

/// Filter-specific rewrites: merge stacked filters, distribute over
/// unions, split/push over products, recognize hash joins.
fn rewrite_filter(cond: RowCondition, input: PhysPlan, schema: &Schema) -> RelResult<PhysPlan> {
    if cond == RowCondition::True {
        return Ok(input);
    }
    Ok(match input {
        // σ_θ(σ_η(Q)) = σ_{η∧θ}(Q).
        PhysPlan::Filter {
            cond: inner,
            input: innermost,
        } => rewrite_filter(inner.and(cond), *innermost, schema)?,
        // σ_θ(Q ∪ Q′) = σ_θ(Q) ∪ σ_θ(Q′).
        PhysPlan::Union { left, right } => PhysPlan::Union {
            left: Box::new(rewrite_filter(cond.clone(), *left, schema)?),
            right: Box::new(rewrite_filter(cond, *right, schema)?),
        },
        PhysPlan::Product { left, right } => {
            let la = left.arity(schema)?;
            let split = split_over_product(&cond, la);
            let left = push_filter(*left, split.left, schema)?;
            let right = push_filter(*right, split.right, schema)?;
            let joined = if split.keys.is_empty() {
                PhysPlan::Product {
                    left: Box::new(left),
                    right: Box::new(right),
                }
            } else {
                PhysPlan::HashJoin {
                    left: Box::new(left),
                    right: Box::new(right),
                    keys: split.keys,
                }
            };
            match RowCondition::and_all(split.residual) {
                RowCondition::True => joined,
                residual => joined.filter(residual),
            }
        }
        other => other.filter(cond),
    })
}

fn push_filter(plan: PhysPlan, conds: Vec<RowCondition>, schema: &Schema) -> RelResult<PhysPlan> {
    match RowCondition::and_all(conds) {
        RowCondition::True => Ok(plan),
        cond => rewrite_filter(cond, plan, schema),
    }
}

/// The outcome of splitting a product filter's conjuncts by side.
struct ProductSplit {
    left: Vec<RowCondition>,
    right: Vec<RowCondition>,
    keys: Vec<(usize, usize)>,
    residual: Vec<RowCondition>,
}

fn split_over_product(cond: &RowCondition, la: usize) -> ProductSplit {
    let mut split = ProductSplit {
        left: Vec::new(),
        right: Vec::new(),
        keys: Vec::new(),
        residual: Vec::new(),
    };
    for conjunct in cond.conjuncts() {
        let cols = conjunct.columns();
        if cols.iter().all(|&c| c < la) {
            split.left.push(conjunct);
        } else if cols.iter().all(|&c| c >= la) {
            split.right.push(conjunct.shifted_left(la));
        } else if let Some(key) = cross_equality(&conjunct, la) {
            split.keys.push(key);
        } else {
            split.residual.push(conjunct);
        }
    }
    split
}

/// `$i = $j` with one side left of the product seam and one right:
/// a hash-join key.
fn cross_equality(cond: &RowCondition, la: usize) -> Option<(usize, usize)> {
    let RowCondition::Cmp(Operand::Col(i), CmpOp::Eq, Operand::Col(j)) = cond else {
        return None;
    };
    match (*i < la, *j < la) {
        (true, false) => Some((*i, *j - la)),
        (false, true) => Some((*j, *i - la)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_value::tuple;

    use crate::exec::{execute, execute_with};

    /// The pass under the estimator without statistics.
    fn rule_plan(plan: PhysPlan, store: &Store, d: &Database) -> PhysPlan {
        lower_onto_store(plan, store, &d.schema(), PlannerChoice::Rule)
    }

    fn db() -> Database {
        let mut db = Database::new();
        for (s, t) in [(0i64, 1i64), (1, 2), (2, 3), (3, 1)] {
            db.insert("E", tuple![s, t]).unwrap();
        }
        db.insert("V", tuple![1]).unwrap();
        db.insert("V", tuple![3]).unwrap();
        db
    }

    fn assert_agrees(q: &RaExpr) -> PhysPlan {
        let d = db();
        let plan = plan_ra(q, &d.schema()).unwrap();
        let physical = execute(&plan, &d).unwrap().into_relation();
        let reference = q.eval(&d).unwrap();
        assert_eq!(physical, reference, "plan:\n{plan}");
        plan
    }

    fn contains_node(plan: &PhysPlan, pred: &dyn Fn(&PhysPlan) -> bool) -> bool {
        pred(plan) || plan.children().into_iter().any(|c| contains_node(c, pred))
    }

    #[test]
    fn equality_product_becomes_hash_join() {
        // σ_{$2=$3}(E × E): two-step paths.
        let q = RaExpr::rel("E")
            .product(RaExpr::rel("E"))
            .select(RowCondition::col_eq(1, 2));
        let plan = assert_agrees(&q);
        assert!(contains_node(&plan, &|p| matches!(
            p,
            PhysPlan::HashJoin { .. }
        )));
        assert!(!contains_node(&plan, &|p| matches!(
            p,
            PhysPlan::Product { .. }
        )));
    }

    #[test]
    fn single_side_conjuncts_are_pushed() {
        // σ_{$1=0 ∧ $2=$3 ∧ $4=3}(E × E): both constant conjuncts move
        // below the join.
        let cond = RowCondition::col_eq_const(0, 0)
            .and(RowCondition::col_eq(1, 2))
            .and(RowCondition::col_eq_const(3, 3));
        let q = RaExpr::rel("E").product(RaExpr::rel("E")).select(cond);
        let plan = assert_agrees(&q);
        let PhysPlan::HashJoin { left, right, keys } = &plan else {
            panic!("expected a top-level hash join, got:\n{plan}");
        };
        assert_eq!(keys, &[(1, 0)]);
        assert!(matches!(**left, PhysPlan::Filter { .. }));
        assert!(matches!(**right, PhysPlan::Filter { .. }));
    }

    #[test]
    fn residual_cross_conjuncts_stay_above() {
        // A cross non-equality: $1 < $4 over E × E.
        let cond = RowCondition::col_eq(1, 2).and(RowCondition::Cmp(
            Operand::Col(0),
            CmpOp::Lt,
            Operand::Col(3),
        ));
        let q = RaExpr::rel("E").product(RaExpr::rel("E")).select(cond);
        let plan = assert_agrees(&q);
        assert!(matches!(plan, PhysPlan::Filter { .. }));
    }

    #[test]
    fn filter_distributes_over_union() {
        let q = RaExpr::rel("E")
            .union(RaExpr::rel("E").project(vec![1, 0]))
            .select(RowCondition::col_eq_const(0, 1));
        let plan = assert_agrees(&q);
        let PhysPlan::Union { left, right } = &plan else {
            panic!("expected a union at the root, got:\n{plan}");
        };
        assert!(matches!(**left, PhysPlan::Filter { .. }));
        assert!(contains_node(right, &|p| matches!(
            p,
            PhysPlan::Filter { .. }
        )));
    }

    #[test]
    fn derived_intersection_is_planned_as_join() {
        let v = RaExpr::rel("V");
        let targets = RaExpr::rel("E").project(vec![1]);
        let q = v.intersect(targets.clone());
        let plan = assert_agrees(&q);
        assert!(contains_node(&plan, &|p| matches!(
            p,
            PhysPlan::HashJoin { .. }
        )));
        assert!(!contains_node(&plan, &|p| matches!(
            p,
            PhysPlan::Diff { .. }
        )));
        // Ordinary differences still plan as Diff.
        let q = RaExpr::rel("V").diff(targets);
        let plan = assert_agrees(&q);
        assert!(contains_node(&plan, &|p| matches!(
            p,
            PhysPlan::Diff { .. }
        )));
    }

    #[test]
    fn planning_validates_types() {
        let d = db();
        let q = RaExpr::rel("E").project(vec![7]);
        assert!(plan_ra(&q, &d.schema()).is_err());
        let q = RaExpr::rel("E").union(RaExpr::rel("V"));
        assert!(plan_ra(&q, &d.schema()).is_err());
    }

    #[test]
    fn stale_plans_error_instead_of_panicking() {
        // A filter-over-product plan that optimizes fine under the
        // schema it was lowered for …
        let d = db();
        let q = RaExpr::rel("E")
            .product(RaExpr::rel("E"))
            .select(RowCondition::col_eq(1, 2))
            .project(vec![0, 3]);
        let plan = lower_ra(&q);
        assert!(optimize_plan(plan.clone(), &d.schema()).is_ok());
        // … surfaces a typed error — never a panic — when `E` has
        // since been redefined at a different arity (the planner used
        // to `expect("validated")` its way through the rewrite).
        let mut redefined = Database::new();
        redefined.insert("E", tuple![1]).unwrap();
        assert!(optimize_plan(plan, &redefined.schema()).is_err());
    }

    #[test]
    fn store_plan_lowers_onto_indexes() {
        let d = db();
        let store = Store::from_database(&d);
        // σ_{$2=$3}(E × E) optimizes to a hash join; the store pass
        // turns it into a CSR expansion over an IndexScan.
        let q = RaExpr::rel("E")
            .product(RaExpr::rel("E"))
            .select(RowCondition::col_eq(1, 2));
        let plan = plan_ra(&q, &d.schema()).unwrap();
        let plan = rule_plan(plan, &store, &d);
        assert!(contains_node(&plan, &|p| matches!(
            p,
            PhysPlan::AdjacencyExpand { reverse: false, .. }
        )));
        assert!(!contains_node(&plan, &|p| matches!(p, PhysPlan::Scan(_))));
        assert_eq!(
            execute_with(&plan, &d, Some(&store))
                .unwrap()
                .into_relation(),
            q.eval(&d).unwrap()
        );

        // Joining on the build side's second column expands in reverse.
        let q = RaExpr::rel("V")
            .product(RaExpr::rel("E"))
            .select(RowCondition::col_eq(0, 2));
        let plan = rule_plan(plan_ra(&q, &d.schema()).unwrap(), &store, &d);
        assert!(contains_node(&plan, &|p| matches!(
            p,
            PhysPlan::AdjacencyExpand { reverse: true, .. }
        )));
        assert_eq!(
            execute_with(&plan, &d, Some(&store))
                .unwrap()
                .into_relation(),
            q.eval(&d).unwrap()
        );

        // AdomScan lowers onto the store's derived active domain.
        let plan = rule_plan(
            plan_ra(&RaExpr::ActiveDomain, &d.schema()).unwrap(),
            &store,
            &d,
        );
        assert_eq!(plan, PhysPlan::IndexScan(pgq_store::ADOM_REL.into()));
        assert_eq!(
            execute_with(&plan, &d, Some(&store))
                .unwrap()
                .into_relation(),
            d.active_domain_relation()
        );
    }

    #[test]
    fn eval_ra_with_store_matches_reference() {
        let d = db();
        let store = Store::from_database(&d);
        let shapes = [
            RaExpr::rel("V"),
            RaExpr::ActiveDomain,
            RaExpr::rel("E")
                .product(RaExpr::rel("E"))
                .select(RowCondition::col_eq(1, 2))
                .project(vec![0, 3]),
            RaExpr::rel("V").intersect(RaExpr::rel("E").project(vec![0])),
            RaExpr::rel("V").diff(RaExpr::rel("E").project(vec![1])),
        ];
        for q in shapes {
            let reference = q.eval(&d).unwrap();
            assert_eq!(eval_ra_with(&q, &d, &store).unwrap(), reference, "{q}");
            for threads in [1, 2, 8] {
                let opts = ExecOptions::with_threads(threads);
                assert_eq!(
                    eval_ra_opts(&q, &d, &store, &opts).unwrap(),
                    reference,
                    "{q} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn rule_pass_builds_on_the_smaller_base_relation() {
        let mut d = Database::new();
        for i in 0..40i64 {
            d.insert("T3", tuple![i, i % 4, i % 10]).unwrap();
        }
        for i in 0..3i64 {
            d.insert("K", tuple![i]).unwrap();
        }
        let store = Store::from_database(&d);
        // K ⋈ T3 on T3's third column. T3 is ternary, so no adjacency
        // rewrite applies; the rule pass used to hardwire the right
        // side (T3, 40 rows) as the hash-join build side regardless of
        // size — it must swap so K (3 rows) builds.
        let q = RaExpr::rel("K")
            .product(RaExpr::rel("T3"))
            .select(RowCondition::col_eq(0, 3));
        let plan = rule_plan(plan_ra(&q, &d.schema()).unwrap(), &store, &d);
        fn find_join(p: &PhysPlan) -> Option<&PhysPlan> {
            if matches!(p, PhysPlan::HashJoin { .. }) {
                return Some(p);
            }
            p.children().into_iter().find_map(find_join)
        }
        let join = find_join(&plan).expect("a hash join survives");
        let PhysPlan::HashJoin { right, keys, .. } = join else {
            unreachable!()
        };
        assert_eq!(**right, PhysPlan::IndexScan("K".into()), "{plan}");
        assert_eq!(keys, &[(2, 0)], "{plan}");
        // The executor's measured build size agrees, and the swapped
        // plan still computes the reference answer.
        let opts = ExecOptions::sequential().with_planner(PlannerChoice::Rule);
        let (rel, profile) = eval_ra_profiled(&q, &d, &store, &opts).unwrap();
        assert_eq!(rel, q.eval(&d).unwrap());
        fn find_build(m: &crate::metrics::PlanMetrics) -> Option<u64> {
            m.build_rows
                .or_else(|| m.children.iter().find_map(find_build))
        }
        assert_eq!(
            find_build(&profile.root),
            Some(3),
            "\n{}",
            profile.render(false)
        );
    }

    #[test]
    fn csr_fixpoint_matches_hash_fixpoint() {
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
        let lowered = rule_plan(tc.clone(), &store, &d);
        let via_csr = execute_with(&lowered, &d, Some(&store)).unwrap();
        let via_hash = execute(&tc, &d).unwrap();
        assert_eq!(via_csr.into_relation(), via_hash.into_relation());
    }

    #[test]
    fn eval_ra_matches_reference_on_shapes() {
        let shapes = [
            RaExpr::rel("V"),
            RaExpr::ActiveDomain,
            RaExpr::Singleton(tuple![1, 2]),
            RaExpr::rel("E").project(vec![1, 1, 0]),
            RaExpr::rel("E")
                .product(RaExpr::rel("V"))
                .select(RowCondition::col_eq(1, 2))
                .project(vec![0]),
            RaExpr::rel("V").union(RaExpr::rel("E").project(vec![0])),
            RaExpr::rel("V").diff(RaExpr::rel("E").project(vec![0])),
            RaExpr::rel("V").intersect(RaExpr::rel("E").project(vec![0])),
            RaExpr::rel("E").project(Vec::new()),
        ];
        let d = db();
        for q in shapes {
            assert_eq!(eval_ra(&q, &d).unwrap(), q.eval(&d).unwrap(), "{q}");
        }
    }
}
