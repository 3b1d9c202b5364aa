//! Semi-naive, stratum-by-stratum evaluation on the one executor.
//!
//! The evaluator runs a validated, stratified program against a
//! [`Database`]: relations stored in the database are the extensional
//! predicates, the reserved [`ADOM`] predicate is bound
//! to the active domain, and every rule head is intensional. Within a
//! stratum, recursive rules are iterated semi-naively: after the first
//! round, a rule only fires with at least one same-stratum positive
//! literal bound to the previous round's *delta*.
//!
//! A rule fires as one first-order query: its body, read as the
//! conjunction of its literals (a negative literal is a negated atom),
//! goes to [`pgq_logic::eval_ordered`] over the relations the literals
//! read — stored relations, IDB totals, the delta, `$adom` — and so runs
//! as one `pgq_exec::PhysPlan`: hash joins on shared variables, a `Diff`
//! per negation. The naive oracle ([`crate::eval_naive`]) keeps its own
//! nested-loop join; the two share only `prepare`, the static checks.
//!
//! Complexity: for a fixed program the evaluation is polynomial in the
//! database (each stratum's fixpoint adds at least one tuple per round,
//! and rounds do polynomial work), matching the Datalog side of the
//! paper's NL discussion (Section 4.1).

use crate::ast::{Atom, Literal, Program, ProgramError, Rule, ADOM};
use crate::stratify::{stratify, Stratification};
use pgq_logic::{eval_ordered, Formula, LogicError, Term};
use pgq_relational::{Database, RelError, RelName, Relation};
use pgq_value::{Tuple, Var};
use std::collections::{BTreeMap, BTreeSet};

/// Errors surfaced while running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The program failed static validation or stratification.
    Static(ProgramError),
    /// A body literal references a predicate that is neither IDB nor
    /// stored in the database.
    UnknownPredicate {
        /// The missing predicate.
        pred: RelName,
    },
    /// A body literal's arity disagrees with the stored relation (or,
    /// for [`ADOM`], with the unary active domain).
    EdbArityMismatch {
        /// The predicate.
        pred: RelName,
        /// Arity in the program.
        program: usize,
        /// Arity in the database.
        database: usize,
    },
    /// Evaluating a rule body failed.
    Body(LogicError),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Static(e) => write!(f, "{e}"),
            EvalError::UnknownPredicate { pred } => write!(f, "unknown predicate {pred}"),
            EvalError::EdbArityMismatch {
                pred,
                program,
                database,
            } => write!(
                f,
                "predicate {pred} has arity {program} in the program but {database} in the database"
            ),
            EvalError::Body(e) => write!(f, "rule body: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ProgramError> for EvalError {
    fn from(e: ProgramError) -> Self {
        EvalError::Static(e)
    }
}

impl From<LogicError> for EvalError {
    fn from(e: LogicError) -> Self {
        EvalError::Body(e)
    }
}

impl From<RelError> for EvalError {
    fn from(e: RelError) -> Self {
        EvalError::Body(e.into())
    }
}

/// The result of evaluating a program: every IDB relation at fixpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    pub(crate) relations: BTreeMap<RelName, Relation>,
}

impl Model {
    /// The computed relation for `pred` (every IDB predicate is present,
    /// possibly empty).
    pub fn get(&self, pred: &RelName) -> Option<&Relation> {
        self.relations.get(pred)
    }

    /// Iterate over all IDB relations.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, &Relation)> {
        self.relations.iter()
    }

    /// Total number of derived tuples.
    pub fn tuple_count(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }
}

/// What both evaluators start from: the program's strata, every IDB
/// predicate bound to its empty relation, and the active domain
/// [`ADOM`] denotes.
pub(crate) struct Prepared {
    pub(crate) strata: Stratification,
    pub(crate) model: Model,
    pub(crate) adom: Relation,
}

/// Every static check, shared by both evaluators: the program validates
/// and stratifies, no rule head shadows a stored relation, every other
/// body predicate is stored with the literal's arity, and [`ADOM`] is
/// used as the unary predicate it is.
pub(crate) fn prepare(program: &Program, db: &Database) -> Result<Prepared, EvalError> {
    program.validate()?;
    let strata = stratify(program)?;
    let arities = program.arities()?;
    let idb = program.idb_preds();
    if let Some(pred) = idb.iter().find(|p| db.get(p).is_some()) {
        return Err(ProgramError::HeadShadowsEdb { pred: pred.clone() }.into());
    }
    for atom in program
        .rules
        .iter()
        .flat_map(|r| r.body.iter().map(|l| &l.atom))
    {
        let pred = &atom.pred;
        let database = if pred.as_str() == ADOM {
            1
        } else if idb.contains(pred) {
            continue;
        } else {
            db.get(pred)
                .ok_or_else(|| EvalError::UnknownPredicate { pred: pred.clone() })?
                .arity()
        };
        if database != atom.arity() {
            return Err(EvalError::EdbArityMismatch {
                pred: pred.clone(),
                program: atom.arity(),
                database,
            });
        }
    }
    let relations = idb
        .into_iter()
        .map(|p| {
            let arity = arities.get(&p).copied().unwrap_or(0);
            (p, Relation::empty(arity))
        })
        .collect();
    Ok(Prepared {
        strata,
        model: Model { relations },
        adom: db.active_domain_relation(),
    })
}

/// Evaluate `program` on `db` (see module docs). Validates, stratifies,
/// then computes each stratum's least fixpoint semi-naively.
pub fn evaluate(program: &Program, db: &Database) -> Result<Model, EvalError> {
    let Prepared {
        strata,
        mut model,
        adom,
    } = prepare(program, db)?;
    let total = &mut model.relations;
    for layer in &strata.layers {
        let rules: Vec<&Rule> = layer.iter().map(|&i| &program.rules[i]).collect();
        // Predicates defined in this stratum (for semi-naive deltas).
        let here: BTreeSet<&RelName> = rules.iter().map(|r| &r.head.pred).collect();

        // Round 0: every rule of the stratum over the totals.
        let mut delta: BTreeMap<RelName, Relation> = BTreeMap::new();
        for rule in &rules {
            let derived = fire(rule, None, db, &adom, total)?;
            note_new(&mut delta, total, &rule.head.pred, derived)?;
        }
        // Later rounds: differentiate on same-stratum positives.
        while !delta.is_empty() {
            absorb(total, &delta)?;
            let mut next: BTreeMap<RelName, Relation> = BTreeMap::new();
            for rule in &rules {
                for (i, lit) in rule.body.iter().enumerate() {
                    if !lit.positive || !here.contains(&lit.atom.pred) {
                        continue;
                    }
                    if let Some(d) = delta.get(&lit.atom.pred) {
                        let derived = fire(rule, Some((i, d)), db, &adom, total)?;
                        note_new(&mut next, total, &rule.head.pred, derived)?;
                    }
                }
            }
            delta = next;
        }
    }
    Ok(model)
}

/// Shorthand: evaluate and return a single predicate's relation.
pub fn query(program: &Program, db: &Database, goal: &RelName) -> Result<Relation, EvalError> {
    let model = evaluate(program, db)?;
    model
        .get(goal)
        .cloned()
        .ok_or_else(|| EvalError::UnknownPredicate { pred: goal.clone() })
}

/// Adds to `delta` the tuples of `derived` that `total` lacks; a
/// predicate enters `delta` only with at least one tuple.
fn note_new(
    delta: &mut BTreeMap<RelName, Relation>,
    total: &BTreeMap<RelName, Relation>,
    pred: &RelName,
    derived: Relation,
) -> Result<(), EvalError> {
    let fresh = match total.get(pred) {
        Some(known) => derived.difference(known)?,
        None => derived,
    };
    if !fresh.is_empty() {
        absorb(delta, &BTreeMap::from([(pred.clone(), fresh)]))?;
    }
    Ok(())
}

/// Inserts every tuple of `delta` into `total`.
fn absorb(
    total: &mut BTreeMap<RelName, Relation>,
    delta: &BTreeMap<RelName, Relation>,
) -> Result<(), EvalError> {
    for (pred, fresh) in delta {
        let rel = total
            .entry(pred.clone())
            .or_insert_with(|| Relation::empty(fresh.arity()));
        for t in fresh.iter() {
            rel.insert(t.clone())?;
        }
    }
    Ok(())
}

/// Fires `rule` once and returns the head tuples it derives. The body is
/// read as the conjunction of its literals and evaluated by
/// [`pgq_logic::eval_ordered`] over the relations the literals read;
/// `delta_at` binds one positive literal to the previous round's delta
/// instead of the total. Each literal reads its relation under its own
/// name, so a predicate that is both delta and total in one body never
/// clashes.
fn fire(
    rule: &Rule,
    delta_at: Option<(usize, &Relation)>,
    db: &Database,
    adom: &Relation,
    total: &BTreeMap<RelName, Relation>,
) -> Result<Relation, EvalError> {
    let mut scope = Database::new();
    let mut conjuncts: Vec<Formula> = Vec::with_capacity(rule.body.len());
    for (i, Literal { positive, atom }) in rule.body.iter().enumerate() {
        let pred = &atom.pred;
        let rel = match delta_at {
            Some((j, d)) if j == i => d,
            _ if pred.as_str() == ADOM => adom,
            _ => total
                .get(pred)
                .or_else(|| db.get(pred))
                .ok_or_else(|| EvalError::UnknownPredicate { pred: pred.clone() })?,
        };
        let name = RelName::new(format!("{pred}#{i}"));
        scope.add_relation(name.clone(), rel.clone());
        let read = Formula::Atom(name, atom.terms.clone());
        conjuncts.push(if *positive { read } else { read.not() });
    }
    // The body's answer over the head's variable occurrences, with the
    // head's constants put back in place, is the set of head tuples.
    let Atom { terms, .. } = &rule.head;
    let order: Vec<Var> = terms.iter().filter_map(Term::as_var).cloned().collect();
    let rows = eval_ordered(&Formula::and_all(conjuncts), &order, &scope)?;
    let heads = rows.iter().map(|row| {
        let mut vals = row.iter();
        terms
            .iter()
            .filter_map(|t| match t {
                Term::Const(c) => Some(c.clone()),
                Term::Var(_) => vals.next().cloned(),
            })
            .collect::<Tuple>()
    });
    Ok(Relation::from_rows(terms.len(), heads)?)
}

/// Convenience used by tests and benches: transitive-closure program
/// `goal(x,y) :- edge(x,y); goal(x,z) :- goal(x,y), edge(y,z)` over the
/// named edge relation.
pub fn reachability_program(edge: &str, goal: &str) -> Program {
    let mut p = Program::new();
    let x = Term::var("x");
    let y = Term::var("y");
    let z = Term::var("z");
    p.push(Rule::new(
        Atom::new(goal, [x.clone(), y.clone()]),
        vec![Literal::pos(Atom::new(edge, [x.clone(), y.clone()]))],
    ));
    p.push(Rule::new(
        Atom::new(goal, [x.clone(), z.clone()]),
        vec![
            Literal::pos(Atom::new(goal, [x, y.clone()])),
            Literal::pos(Atom::new(edge, [y, z])),
        ],
    ));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_value::Value;

    fn pairs(rel: &Relation) -> Vec<(i64, i64)> {
        rel.iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_int().unwrap(),
                    t.get(1).unwrap().as_int().unwrap(),
                )
            })
            .collect()
    }

    fn edge_db(edges: &[(i64, i64)]) -> Database {
        let rel = Relation::from_rows(
            2,
            edges
                .iter()
                .map(|&(a, b)| Tuple::new(vec![Value::int(a), Value::int(b)])),
        )
        .unwrap();
        Database::new().with_relation("edge", rel)
    }

    #[test]
    fn reachability_on_a_path() {
        let db = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        let p = reachability_program("edge", "path");
        let r = query(&p, &db, &RelName::new("path")).unwrap();
        assert_eq!(
            pairs(&r),
            vec![(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        );
    }

    #[test]
    fn reachability_on_a_cycle_terminates() {
        let db = edge_db(&[(0, 1), (1, 2), (2, 0)]);
        let p = reachability_program("edge", "path");
        let r = query(&p, &db, &RelName::new("path")).unwrap();
        assert_eq!(r.len(), 9); // complete on {0,1,2}
    }

    #[test]
    fn stratified_negation_complement() {
        // unreach(x,y) :- $adom(x), $adom(y), !path(x,y).
        let db = edge_db(&[(1, 2), (2, 3)]);
        let mut p = reachability_program("edge", "path");
        p.push(Rule::new(
            Atom::new("unreach", [Term::var("x"), Term::var("y")]),
            vec![
                Literal::pos(Atom::new(ADOM, [Term::var("x")])),
                Literal::pos(Atom::new(ADOM, [Term::var("y")])),
                Literal::neg(Atom::new("path", [Term::var("x"), Term::var("y")])),
            ],
        ));
        let m = evaluate(&p, &db).unwrap();
        let path = m.get(&RelName::new("path")).unwrap();
        let unreach = m.get(&RelName::new("unreach")).unwrap();
        assert_eq!(path.len() + unreach.len(), 9); // 3×3 domain
        assert!(unreach.contains(&Tuple::new(vec![Value::int(2), Value::int(1)])));
    }

    #[test]
    fn facts_and_constants_in_heads() {
        let mut p = Program::new();
        p.push(Rule::fact(Atom::new("seed", [Term::constant(7i64)])));
        p.push(Rule::new(
            Atom::new("next", [Term::var("x")]),
            vec![Literal::pos(Atom::new("seed", [Term::var("x")]))],
        ));
        let db = Database::new().with_relation("unused", Relation::empty(1));
        let m = evaluate(&p, &db).unwrap();
        assert!(m
            .get(&RelName::new("next"))
            .unwrap()
            .contains(&Tuple::unary(7i64)));
    }

    #[test]
    fn constants_filter_in_bodies() {
        let db = edge_db(&[(1, 2), (2, 3), (1, 3)]);
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("from_one", [Term::var("y")]),
            vec![Literal::pos(Atom::new(
                "edge",
                [Term::constant(1i64), Term::var("y")],
            ))],
        ));
        let r = query(&p, &db, &RelName::new("from_one")).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn repeated_variables_unify() {
        let db = edge_db(&[(1, 1), (1, 2), (3, 3)]);
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("self_loop", [Term::var("x")]),
            vec![Literal::pos(Atom::new(
                "edge",
                [Term::var("x"), Term::var("x")],
            ))],
        ));
        let r = query(&p, &db, &RelName::new("self_loop")).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn unknown_predicate_is_an_error() {
        let db = Database::new();
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("p", [Term::var("x")]),
            vec![Literal::pos(Atom::new("nope", [Term::var("x")]))],
        ));
        assert!(matches!(
            evaluate(&p, &db),
            Err(EvalError::UnknownPredicate { .. })
        ));
    }

    #[test]
    fn head_shadowing_edb_is_an_error() {
        let db = edge_db(&[(1, 2)]);
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("edge", [Term::var("x"), Term::var("y")]),
            vec![Literal::pos(Atom::new(
                "edge",
                [Term::var("x"), Term::var("y")],
            ))],
        ));
        assert!(matches!(
            evaluate(&p, &db),
            Err(EvalError::Static(ProgramError::HeadShadowsEdb { .. }))
        ));
    }

    #[test]
    fn edb_arity_mismatch_is_an_error() {
        let db = edge_db(&[(1, 2)]);
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("p", [Term::var("x")]),
            vec![Literal::pos(Atom::new("edge", [Term::var("x")]))],
        ));
        assert!(matches!(
            evaluate(&p, &db),
            Err(EvalError::EdbArityMismatch { .. })
        ));
    }

    /// `$adom` is unary: a literal of any other arity is a typed error
    /// for both evaluators, not a panic.
    #[test]
    fn adom_of_wrong_arity_is_an_error() {
        let p = crate::parse_program("p(X, Y) :- $adom(X, Y).").unwrap();
        let db = edge_db(&[(1, 2)]);
        let expected = Err(EvalError::EdbArityMismatch {
            pred: ADOM.into(),
            program: 2,
            database: 1,
        });
        assert_eq!(evaluate(&p, &db), expected);
        assert_eq!(crate::evaluate_naive(&p, &db), expected);
    }

    #[test]
    fn declared_ruleless_predicate_is_empty() {
        let db = edge_db(&[(1, 2)]);
        let mut p = Program::new();
        p.declare("never", 3);
        let m = evaluate(&p, &db).unwrap();
        assert!(m.get(&RelName::new("never")).unwrap().is_empty());
        assert_eq!(m.get(&RelName::new("never")).unwrap().arity(), 3);
    }

    #[test]
    fn zero_ary_predicates_act_as_booleans() {
        let db = edge_db(&[(1, 2)]);
        let mut p = Program::new();
        p.push(Rule::fact(Atom::new("yes", Vec::<Term>::new())));
        p.push(Rule::new(
            Atom::new("copy", [Term::var("x"), Term::var("y")]),
            vec![
                Literal::pos(Atom::new("yes", Vec::<Term>::new())),
                Literal::pos(Atom::new("edge", [Term::var("x"), Term::var("y")])),
            ],
        ));
        let m = evaluate(&p, &db).unwrap();
        assert!(m.get(&RelName::new("yes")).unwrap().as_bool());
        assert_eq!(m.get(&RelName::new("copy")).unwrap().len(), 1);
    }

    #[test]
    fn same_generation_classic() {
        // sg(x,y) :- flat(x,y).
        // sg(x,y) :- up(x,u), sg(u,v), down(v,y).
        let up = Relation::from_rows(
            2,
            [(1i64, 10i64), (2, 10), (3, 20), (4, 20)]
                .iter()
                .map(|&(a, b)| Tuple::new(vec![Value::int(a), Value::int(b)])),
        )
        .unwrap();
        let flat = Relation::from_rows(
            2,
            [(10i64, 20i64)]
                .iter()
                .map(|&(a, b)| Tuple::new(vec![Value::int(a), Value::int(b)])),
        )
        .unwrap();
        let down = Relation::from_rows(
            2,
            [(10i64, 1i64), (10, 2), (20, 3), (20, 4)]
                .iter()
                .map(|&(a, b)| Tuple::new(vec![Value::int(a), Value::int(b)])),
        )
        .unwrap();
        let db = Database::new()
            .with_relation("up", up)
            .with_relation("flat", flat)
            .with_relation("down", down);
        let mut p = Program::new();
        let (x, y, u, v) = (
            Term::var("x"),
            Term::var("y"),
            Term::var("u"),
            Term::var("v"),
        );
        p.push(Rule::new(
            Atom::new("sg", [x.clone(), y.clone()]),
            vec![Literal::pos(Atom::new("flat", [x.clone(), y.clone()]))],
        ));
        p.push(Rule::new(
            Atom::new("sg", [x.clone(), y.clone()]),
            vec![
                Literal::pos(Atom::new("up", [x, u.clone()])),
                Literal::pos(Atom::new("sg", [u, v.clone()])),
                Literal::pos(Atom::new("down", [v, y])),
            ],
        ));
        let r = query(&p, &db, &RelName::new("sg")).unwrap();
        // The flat pair (10,20) is in sg directly; 1 and 2 are
        // up-parents of 10, whose flat partner 20 has down-children 3
        // and 4, so {1,2} × {3,4} joins it.
        assert_eq!(pairs(&r), vec![(1, 3), (1, 4), (2, 3), (2, 4), (10, 20)]);
    }
}
