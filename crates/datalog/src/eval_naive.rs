//! Naive (full re-derivation) evaluation — the differential-testing
//! reference for the semi-naive engine.
//!
//! Same static checks as [`crate::eval`] (`prepare`), nothing else in
//! common: each round within a stratum re-fires *every* rule against the
//! full current totals until nothing new is derived, and a rule fires as
//! a nested-loop join over its body literals, binding variables tuple
//! by tuple — no query plan, no executor. Asymptotically wasteful,
//! obviously correct.

use crate::ast::{Atom, Program, Rule, ADOM};
use crate::eval::{prepare, EvalError, Model, Prepared};
use pgq_logic::Term;
use pgq_relational::{Database, RelName, Relation};
use pgq_value::{Tuple, Value, Var};
use std::collections::BTreeMap;

/// A variable binding under construction while matching body literals.
type Bindings = BTreeMap<Var, Value>;

/// Evaluate `program` on `db` naively. Produces exactly the same
/// [`Model`] as [`crate::eval::evaluate`] (property-tested in
/// `lib.rs`).
pub fn evaluate_naive(program: &Program, db: &Database) -> Result<Model, EvalError> {
    let Prepared {
        strata,
        mut model,
        adom,
    } = prepare(program, db)?;
    let adom_name: RelName = ADOM.into();

    for layer in &strata.layers {
        loop {
            let mut grew = false;
            for &i in layer {
                let rule = &program.rules[i];
                let derived = fire_rule(rule, db, &adom, &model.relations, &adom_name);
                let rel = model
                    .relations
                    .entry(rule.head.pred.clone())
                    .or_insert_with(|| Relation::empty(rule.head.arity()));
                for t in derived {
                    grew |= rel.insert(t)?;
                }
            }
            if !grew {
                break;
            }
        }
    }
    Ok(model)
}

/// Evaluate one rule body left-to-right, with positive literals first
/// (negatives are checked once their variables are ground — rule safety
/// guarantees this ordering binds them).
fn fire_rule(
    rule: &Rule,
    db: &Database,
    adom: &Relation,
    total: &BTreeMap<RelName, Relation>,
    adom_name: &RelName,
) -> Vec<Tuple> {
    // Order: positives (in source order), then negatives.
    let mut order: Vec<usize> = (0..rule.body.len())
        .filter(|&i| rule.body[i].positive)
        .collect();
    order.extend((0..rule.body.len()).filter(|&i| !rule.body[i].positive));

    let rel_of = |i: usize| -> Relation {
        let pred = &rule.body[i].atom.pred;
        if pred == adom_name {
            adom.clone()
        } else if let Some(r) = total.get(pred) {
            r.clone()
        } else {
            db.get(pred)
                .cloned()
                .expect("EDB checked before evaluation")
        }
    };
    let rels: Vec<Relation> = order.iter().map(|&i| rel_of(i)).collect();

    let mut out = Vec::new();
    let mut bind = Bindings::new();
    join_rec(rule, &order, &rels, 0, &mut bind, &mut out);
    out
}

/// Nested-loop join over the ordered body literals.
fn join_rec(
    rule: &Rule,
    order: &[usize],
    rels: &[Relation],
    depth: usize,
    bind: &mut Bindings,
    out: &mut Vec<Tuple>,
) {
    if depth == order.len() {
        out.push(instantiate(&rule.head, bind));
        return;
    }
    let lit = &rule.body[order[depth]];
    let rel = &rels[depth];
    if lit.positive {
        'tuples: for t in rel.iter() {
            let mut added: Vec<Var> = Vec::new();
            for (term, val) in lit.atom.terms.iter().zip(t.iter()) {
                match term {
                    Term::Const(c) => {
                        if c != val {
                            unwind(bind, &added);
                            continue 'tuples;
                        }
                    }
                    Term::Var(v) => match bind.get(v) {
                        Some(existing) if existing != val => {
                            unwind(bind, &added);
                            continue 'tuples;
                        }
                        Some(_) => {}
                        None => {
                            bind.insert(v.clone(), val.clone());
                            added.push(v.clone());
                        }
                    },
                }
            }
            join_rec(rule, order, rels, depth + 1, bind, out);
            unwind(bind, &added);
        }
    } else {
        // Safety guarantees groundness here.
        let probe = instantiate(&lit.atom, bind);
        if !rel.contains(&probe) {
            join_rec(rule, order, rels, depth + 1, bind, out);
        }
    }
}

fn unwind(bind: &mut Bindings, added: &[Var]) {
    for v in added {
        bind.remove(v);
    }
}

/// Substitute bindings into an atom (all variables must be bound).
fn instantiate(atom: &Atom, bind: &Bindings) -> Tuple {
    atom.terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => c.clone(),
            Term::Var(v) => bind
                .get(v)
                .cloned()
                .expect("safety: head/negative variables bound by positives"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, reachability_program};

    #[test]
    fn naive_matches_semi_naive_on_reachability() {
        let rel = Relation::from_rows(
            2,
            [(0i64, 1i64), (1, 2), (2, 3), (3, 1), (4, 4)]
                .iter()
                .map(|&(a, b)| Tuple::new(vec![Value::int(a), Value::int(b)])),
        )
        .unwrap();
        let db = Database::new().with_relation("edge", rel);
        let p = reachability_program("edge", "path");
        assert_eq!(evaluate_naive(&p, &db).unwrap(), evaluate(&p, &db).unwrap());
    }
}
