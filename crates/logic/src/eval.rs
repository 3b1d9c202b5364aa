//! FO\[TC\] evaluation on the physical executor, with active-domain
//! semantics (the standard database-theory convention; DESIGN.md
//! deviation note 8).
//!
//! Every formula lowers to one [`PhysPlan`] that runs through
//! [`pgq_exec::execute_opts`]. A subformula's plan has one column per
//! free variable, in sorted order, and never emits a row twice. One
//! rule per constructor:
//!
//! * atom `R(t̄)` → `Scan R`, a `Filter` for constants and repeated
//!   variables, a `Project` onto each variable's first column;
//! * `t1 = t2` → the diagonal of `AdomScan`, bound by the atom rule
//!   (two constants compare directly, whatever the domain);
//! * `¬φ` → `Diff` of `adom^k` (`AdomScan` products) and φ;
//! * `φ ∧ ψ` → `HashJoin` on the shared variables, `Product` when
//!   there are none;
//! * `φ ∨ ψ` → `Union` of both sides padded with `adom` to the same
//!   variables, then `Distinct`;
//! * `∃x̄ φ` → φ padded with the quantified variables it does not
//!   mention (∃y over an empty domain is false), then `Project` +
//!   `Distinct`; `∀x̄ φ` is `¬∃x̄ ¬φ`;
//! * `TC_{ū,v̄}[φ](x̄, ȳ)` → a semi-naive `Fixpoint` over φ's `(s̄, t̄, p̄)`
//!   rows with the parameters `p̄` in the join key, so a path never
//!   mixes parameter assignments; united with the reflexive rows
//!   `(ā, ā, p̄)` over `adom^(k+|p̄|)` — `TC` is reflexive, the paper's
//!   length-0 path (Lemma 9.3 T8) — and bound to `x̄ ȳ p̄` by the atom
//!   rule.
//!
//! The assignment-enumerating oracle in `eval_naive` shares none of
//! this; the two are property-tested against each other.

use crate::formula::{Formula, TcShapeError, Term};
use pgq_exec::{execute_opts, Batch, ExecOptions, PhysPlan};
use pgq_relational::{Database, RelError, Relation, RowCondition};
use pgq_value::{Tuple, Var};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicError {
    /// Underlying relational error (unknown relation, arity issues).
    Rel(RelError),
    /// An atom's term count differs from the stored relation's arity.
    AtomArity {
        /// The relation name.
        name: String,
        /// Stored arity.
        expected: usize,
        /// Terms supplied.
        found: usize,
    },
    /// Ill-formed `TC` operator.
    TcShape(TcShapeError),
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::Rel(e) => write!(f, "{e}"),
            LogicError::AtomArity {
                name,
                expected,
                found,
            } => write!(
                f,
                "atom {name} has {found} terms, relation has arity {expected}"
            ),
            LogicError::TcShape(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LogicError {}

impl From<RelError> for LogicError {
    fn from(e: RelError) -> Self {
        LogicError::Rel(e)
    }
}

impl From<TcShapeError> for LogicError {
    fn from(e: TcShapeError) -> Self {
        LogicError::TcShape(e)
    }
}

/// The satisfying-assignment relation of a formula: columns are the
/// free variables in sorted order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Sorted column variables.
    pub vars: Vec<Var>,
    /// One row per satisfying assignment.
    pub rel: Relation,
}

/// Evaluates `φ` on `D`, returning the satisfying assignments over the
/// sorted free variables.
pub fn eval(phi: &Formula, db: &Database) -> Result<Answer, LogicError> {
    phi.validate()?;
    let lowered = lower(phi, db)?;
    Ok(Answer {
        rel: run(&lowered.plan, db)?,
        vars: lowered.vars,
    })
}

/// Evaluates a sentence (no free variables) to a Boolean.
pub fn eval_sentence(phi: &Formula, db: &Database) -> Result<bool, LogicError> {
    Ok(eval(phi, db)?.rel.as_bool())
}

/// Evaluates `φ(x̄)` and returns the result relation with columns in the
/// *given* order `x̄` (the paper's `⟦φ(x1,…,xn)⟧_D`), which may differ
/// from the internal sorted order.
///
/// Variables listed but not free in `φ` range over the active domain.
pub fn eval_ordered(phi: &Formula, order: &[Var], db: &Database) -> Result<Relation, LogicError> {
    phi.validate()?;
    let lowered = lower(phi, db)?;
    let wide = lowered.pad(&sorted_union(order));
    let positions = positions_in(&wide.vars, &[], order);
    run(&wide.plan.project(positions), db)
}

/// Runs a lowered plan on the one executor, down to the set boundary.
fn run(plan: &PhysPlan, db: &Database) -> Result<Relation, LogicError> {
    Ok(execute_opts(plan, db, None, &ExecOptions::default())?.into_relation()?)
}

/// A lowered subformula: a plan with one column per variable of `vars`
/// (sorted, distinct) that emits no duplicate rows.
struct Lowered {
    vars: Vec<Var>,
    plan: PhysPlan,
}

impl Lowered {
    fn boolean(b: bool) -> Lowered {
        Lowered {
            vars: Vec::new(),
            plan: boolean(b),
        }
    }

    /// Widens to `extra ∪ vars` (`extra` sorted, like `vars`): every
    /// variable of `extra` this subformula does not mention ranges over
    /// `adom`.
    fn pad(self, extra: &[Var]) -> Lowered {
        let missing: Vec<Var> = extra
            .iter()
            .filter(|v| self.vars.binary_search(v).is_err())
            .cloned()
            .collect();
        if missing.is_empty() {
            return self;
        }
        let vars = sorted_union(self.vars.iter().chain(&missing));
        let positions = positions_in(&self.vars, &missing, &vars);
        Lowered {
            plan: product(self.plan, adom_power(missing.len())).project(positions),
            vars,
        }
    }
}

fn lower(phi: &Formula, db: &Database) -> Result<Lowered, LogicError> {
    Ok(match phi {
        Formula::True => Lowered::boolean(true),
        Formula::False => Lowered::boolean(false),
        Formula::Atom(name, terms) => {
            let expected = db.get_required(name)?.arity();
            if expected != terms.len() {
                return Err(LogicError::AtomArity {
                    name: name.to_string(),
                    expected,
                    found: terms.len(),
                });
            }
            bind(PhysPlan::Scan(name.clone()), terms)
        }
        Formula::Eq(Term::Const(a), Term::Const(b)) => Lowered::boolean(a == b),
        Formula::Eq(a, b) => bind(PhysPlan::AdomScan.project([0, 0]), &[a.clone(), b.clone()]),
        Formula::Not(f) => {
            let inner = lower(f, db)?;
            Lowered {
                plan: PhysPlan::Diff {
                    left: Box::new(adom_power(inner.vars.len())),
                    right: Box::new(inner.plan),
                },
                vars: inner.vars,
            }
        }
        Formula::And(a, b) => {
            let (l, r) = (lower(a, db)?, lower(b, db)?);
            let keys: Vec<(usize, usize)> = l
                .vars
                .iter()
                .enumerate()
                .filter_map(|(i, v)| r.vars.binary_search(v).ok().map(|j| (i, j)))
                .collect();
            let vars = sorted_union(l.vars.iter().chain(&r.vars));
            let positions = positions_in(&l.vars, &r.vars, &vars);
            // An empty key list would mean intersection, not product.
            let joined = if keys.is_empty() {
                product(l.plan, r.plan)
            } else {
                l.plan.hash_join(r.plan, keys)
            };
            Lowered {
                plan: joined.project(positions),
                vars,
            }
        }
        Formula::Or(a, b) => {
            let (l, r) = (lower(a, db)?, lower(b, db)?);
            let vars = sorted_union(l.vars.iter().chain(&r.vars));
            let (l, r) = (l.pad(&vars), r.pad(&vars));
            Lowered {
                plan: union(l.plan, r.plan),
                vars,
            }
        }
        Formula::Exists(vs, f) => {
            let wide = lower(f, db)?.pad(&sorted_union(vs));
            let vars: Vec<Var> = wide
                .vars
                .iter()
                .filter(|v| !vs.contains(v))
                .cloned()
                .collect();
            let positions = positions_in(&wide.vars, &[], &vars);
            Lowered {
                plan: wide.plan.project(positions).distinct(),
                vars,
            }
        }
        Formula::Forall(vs, f) => {
            // ∀x̄ φ ≡ ¬∃x̄ ¬φ.
            lower(
                &Formula::exists(vs.clone(), f.as_ref().clone().not()).not(),
                db,
            )?
        }
        Formula::Tc { u, v, body, x, y } => {
            let (k, mut params) = (u.len(), body.free_vars());
            for w in u.iter().chain(v) {
                params.remove(w);
            }
            let params: Vec<Var> = params.into_iter().collect();
            let l = params.len();
            let n = 2 * k + l;
            // The step relation as flat (s̄, t̄, p̄) rows; closure variables
            // the body leaves unconstrained range over adom.
            let step = lower(body, db)?.pad(&sorted_union(u.iter().chain(v)));
            let stepped: Vec<Var> = u.iter().chain(v).chain(&params).cloned().collect();
            let edges = step.plan.project(positions_in(&step.vars, &[], &stepped));
            // acc.t̄ = step.s̄ and acc.p̄ = step.p̄, emitting (acc.s̄, step.t̄, p̄).
            let mut join: Vec<(usize, usize)> = (0..k).map(|i| (k + i, i)).collect();
            join.extend((2 * k..n).map(|i| (i, i)));
            let closure = PhysPlan::Fixpoint {
                base: Box::new(edges.clone()),
                step: Box::new(edges),
                join,
                project: (0..k).chain(n + k..2 * n).collect(),
                skip: 0,
                rounds: None,
            };
            let reflexive =
                adom_power(k + l).project((0..k).chain(0..k).chain(k..k + l).collect::<Vec<_>>());
            let terms: Vec<Term> = x
                .iter()
                .chain(y)
                .cloned()
                .chain(params.into_iter().map(Term::Var))
                .collect();
            bind(union(closure, reflexive), &terms)
        }
    })
}

/// The atom rule: binds the columns of `plan` to `terms`. A `Filter`
/// keeps the rows that match every constant and repeat every repeated
/// variable; a `Project` keeps each variable's first column, in sorted
/// variable order.
fn bind(plan: PhysPlan, terms: &[Term]) -> Lowered {
    let mut first: BTreeMap<&Var, usize> = BTreeMap::new();
    let mut conds: Vec<RowCondition> = Vec::new();
    for (i, t) in terms.iter().enumerate() {
        match t {
            Term::Const(c) => conds.push(RowCondition::col_eq_const(i, c.clone())),
            Term::Var(v) => match first.entry(v) {
                Entry::Occupied(e) => conds.push(RowCondition::col_eq(*e.get(), i)),
                Entry::Vacant(e) => {
                    e.insert(i);
                }
            },
        }
    }
    let plan = if conds.is_empty() {
        plan
    } else {
        plan.filter(RowCondition::and_all(conds))
    };
    Lowered {
        vars: first.keys().map(|v| (*v).clone()).collect(),
        plan: plan.project(first.into_values().collect::<Vec<_>>()),
    }
}

/// The 0-ary relation `{()}` (`true`) or `∅` (`false`).
fn boolean(b: bool) -> PhysPlan {
    PhysPlan::Values(if b {
        Batch::singleton(Tuple::empty())
    } else {
        Batch::empty(0)
    })
}

fn product(left: PhysPlan, right: PhysPlan) -> PhysPlan {
    PhysPlan::Product {
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Set union of two plans of one arity.
fn union(left: PhysPlan, right: PhysPlan) -> PhysPlan {
    PhysPlan::Union {
        left: Box::new(left),
        right: Box::new(right),
    }
    .distinct()
}

/// `adom^n`: a product of `n` `AdomScan`s (`true` when `n = 0`).
fn adom_power(n: usize) -> PhysPlan {
    match n {
        0 => boolean(true),
        _ => (1..n).fold(PhysPlan::AdomScan, |acc, _| {
            product(acc, PhysPlan::AdomScan)
        }),
    }
}

fn sorted_union<'a>(vars: impl IntoIterator<Item = &'a Var>) -> Vec<Var> {
    let set: BTreeSet<&Var> = vars.into_iter().collect();
    set.into_iter().cloned().collect()
}

/// Where each of `target` sits in the columns `left ++ right` (both
/// sorted; a variable in both is read from `left`).
fn positions_in(left: &[Var], right: &[Var], target: &[Var]) -> Vec<usize> {
    target
        .iter()
        .map(|v| match left.binary_search(v) {
            Ok(i) => i,
            Err(_) => {
                let j = right.binary_search(v);
                left.len() + j.expect("every target variable is a column")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_value::tuple;

    /// A 4-path 0→1→2→3 plus an isolated element 9 in a unary relation.
    fn db() -> Database {
        let mut db = Database::new();
        for (s, t) in [(0i64, 1i64), (1, 2), (2, 3)] {
            db.insert("E", tuple![s, t]).unwrap();
        }
        db.insert("V", tuple![9]).unwrap();
        db
    }

    fn v(s: &str) -> Var {
        Var::new(s)
    }

    #[test]
    fn atom_with_constants_and_repeats() {
        let d = db();
        let f = Formula::atom("E", [Term::constant(1), Term::var("x")]);
        let ans = eval(&f, &d).unwrap();
        assert_eq!(ans.rel, Relation::unary([2i64]));
        // E(x, x) — no self loops.
        let f = Formula::atom("E", [Term::var("x"), Term::var("x")]);
        assert!(eval(&f, &d).unwrap().rel.is_empty());
        // Wrong arity errors.
        let f = Formula::atom("E", [Term::var("x")]);
        assert!(matches!(
            eval(&f, &d).unwrap_err(),
            LogicError::AtomArity { .. }
        ));
    }

    #[test]
    fn equality_and_booleans() {
        let d = db();
        let f = Formula::eq(Term::var("x"), Term::constant(2));
        assert_eq!(eval(&f, &d).unwrap().rel, Relation::unary([2i64]));
        // Constant outside adom: unsatisfiable under active-domain
        // semantics.
        let f = Formula::eq(Term::var("x"), Term::constant(77));
        assert!(eval(&f, &d).unwrap().rel.is_empty());
        assert!(eval_sentence(&Formula::True, &d).unwrap());
        assert!(!eval_sentence(&Formula::False, &d).unwrap());
        // x = y has |adom| rows.
        let f = Formula::eq(Term::var("x"), Term::var("y"));
        assert_eq!(eval(&f, &d).unwrap().rel.len(), 5);
    }

    #[test]
    fn negation_complements_over_adom() {
        let d = db();
        // ¬∃y E(x,y): x with no successor = {3, 9}.
        let f = Formula::exists(["y"], Formula::atom("E", ["x", "y"])).not();
        let ans = eval(&f, &d).unwrap();
        assert_eq!(ans.rel, Relation::unary([3i64, 9]));
    }

    #[test]
    fn conjunction_joins() {
        let d = db();
        // E(x,y) ∧ E(y,z): two-step paths.
        let f = Formula::atom("E", ["x", "y"]).and(Formula::atom("E", ["y", "z"]));
        let ans = eval(&f, &d).unwrap();
        assert_eq!(ans.vars, vec![v("x"), v("y"), v("z")]);
        assert_eq!(ans.rel.len(), 2); // 0-1-2, 1-2-3
    }

    #[test]
    fn disjunction_pads_missing_columns() {
        let d = db();
        // V(x) ∨ V(y) over columns {x, y}: 9 appears on either side.
        let f = Formula::atom("V", ["x"]).or(Formula::atom("V", ["y"]));
        let ans = eval(&f, &d).unwrap();
        assert_eq!(ans.vars.len(), 2);
        // |{9}×adom ∪ adom×{9}| = 5 + 5 - 1.
        assert_eq!(ans.rel.len(), 9);
    }

    #[test]
    fn forall_via_double_negation() {
        let d = db();
        // ∀x V(x) is false; ∀x (V(x) ∨ ¬V(x)) is true.
        assert!(!eval_sentence(&Formula::forall(["x"], Formula::atom("V", ["x"])), &d).unwrap());
        let tauto = Formula::forall(
            ["x"],
            Formula::atom("V", ["x"]).or(Formula::atom("V", ["x"]).not()),
        );
        assert!(eval_sentence(&tauto, &d).unwrap());
    }

    #[test]
    fn tc_unary_reachability() {
        let d = db();
        // TC[E](0, x): everything reachable from 0, including 0 itself
        // (reflexive).
        let f = Formula::tc(
            vec![v("u")],
            vec![v("w")],
            Formula::atom("E", ["u", "w"]),
            vec![Term::constant(0)],
            vec![Term::var("x")],
        );
        let ans = eval(&f, &d).unwrap();
        assert_eq!(ans.rel, Relation::unary([0i64, 1, 2, 3]));
    }

    #[test]
    fn tc_is_reflexive_everywhere() {
        let d = db();
        // TC[E](9, 9): 9 is isolated but the 0-step path exists.
        let f = Formula::tc(
            vec![v("u")],
            vec![v("w")],
            Formula::atom("E", ["u", "w"]),
            vec![Term::constant(9)],
            vec![Term::constant(9)],
        );
        assert!(eval_sentence(&f, &d).unwrap());
        // TC[E](3, 0): not reachable.
        let f = Formula::tc(
            vec![v("u")],
            vec![v("w")],
            Formula::atom("E", ["u", "w"]),
            vec![Term::constant(3)],
            vec![Term::constant(0)],
        );
        assert!(!eval_sentence(&f, &d).unwrap());
    }

    #[test]
    fn tc_with_parameters_keeps_them_fixed() {
        // Edges colored by a parameter: E(u, v, color).
        let mut d = Database::new();
        d.insert("E", tuple![0, 1, "red"]).unwrap();
        d.insert("E", tuple![1, 2, "blue"]).unwrap();
        // TC over same-colored steps: 0 cannot reach 2 for any fixed p.
        let f = |target: i64| {
            Formula::tc(
                vec![v("u")],
                vec![v("w")],
                Formula::atom("E", ["u", "w", "p"]),
                vec![Term::constant(0)],
                vec![Term::constant(target)],
            )
        };
        let ans = eval(&f(2), &d).unwrap();
        assert_eq!(ans.vars, vec![v("p")]); // parameter is free
        assert!(ans.rel.is_empty());
        // 0 reaches 1 with p = red only.
        let ans = eval(&f(1), &d).unwrap();
        assert_eq!(ans.rel, Relation::unary(["red"]));
    }

    #[test]
    fn tc_binary_pairs() {
        // 4-ary edge relation: pair-steps ((a,b) → (a,b+1)).
        let mut d = Database::new();
        d.insert("E", tuple![0, 0, 0, 1]).unwrap();
        d.insert("E", tuple![0, 1, 0, 2]).unwrap();
        let f = Formula::tc(
            vec![v("u1"), v("u2")],
            vec![v("w1"), v("w2")],
            Formula::atom("E", ["u1", "u2", "w1", "w2"]),
            vec![Term::constant(0), Term::constant(0)],
            vec![Term::constant(0), Term::constant(2)],
        );
        assert!(eval_sentence(&f, &d).unwrap());
        let g = Formula::tc(
            vec![v("u1"), v("u2")],
            vec![v("w1"), v("w2")],
            Formula::atom("E", ["u1", "u2", "w1", "w2"]),
            vec![Term::constant(2), Term::constant(0)],
            vec![Term::constant(0), Term::constant(0)],
        );
        assert!(!eval_sentence(&g, &d).unwrap());
    }

    #[test]
    fn tc_repeated_applied_variable() {
        let d = db();
        // TC[E](x, x): only the reflexive pairs → all of adom.
        let f = Formula::tc(
            vec![v("u")],
            vec![v("w")],
            Formula::atom("E", ["u", "w"]),
            vec![Term::var("x")],
            vec![Term::var("x")],
        );
        let ans = eval(&f, &d).unwrap();
        assert_eq!(ans.rel.len(), 5);
    }

    #[test]
    fn eval_ordered_respects_requested_order() {
        let d = db();
        let f = Formula::atom("E", ["y", "x"]); // columns sorted: x, y
        let rel = eval_ordered(&f, &[v("y"), v("x")], &d).unwrap();
        assert!(rel.contains(&tuple![0, 1])); // y=0, x=1
                                              // Extra requested vars range over adom.
        let rel = eval_ordered(&Formula::atom("V", ["x"]), &[v("x"), v("z")], &d).unwrap();
        assert_eq!(rel.len(), 5);
    }

    #[test]
    fn empty_database_quantifiers() {
        let d = Database::new();
        // ∃x (x = x) is false over an empty active domain.
        let f = Formula::exists(["x"], Formula::eq(Term::var("x"), Term::var("x")));
        assert!(!eval_sentence(&f, &d).unwrap());
        // ∀x False is (vacuously) true.
        let f = Formula::forall(["x"], Formula::False);
        assert!(eval_sentence(&f, &d).unwrap());
    }
}
