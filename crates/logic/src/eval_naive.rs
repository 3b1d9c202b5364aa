//! A direct, assignment-enumerating FO\[TC\] evaluator.
//!
//! Deliberately slow and obviously-correct: quantifiers loop over the
//! active domain, `TC` does a BFS over `k`-tuples. Used as the oracle in
//! property tests against the plan evaluator in [`crate::eval()`]
//! (they implement the same active-domain semantics; see DESIGN.md
//! deviation note 8).

use crate::eval::LogicError;
use crate::formula::{Formula, Term};
use pgq_relational::Database;
use pgq_value::{Tuple, Value, Var};
use std::collections::{BTreeMap, BTreeSet};

/// A variable assignment into the active domain.
pub type Assignment = BTreeMap<Var, Value>;

/// Decides `D ⊨ φ[α]` by direct recursion. All free variables of `φ`
/// must be bound by `alpha`.
pub fn satisfies(phi: &Formula, alpha: &Assignment, db: &Database) -> Result<bool, LogicError> {
    phi.validate()?;
    let adom: Vec<Value> = db.active_domain().into_iter().collect();
    sat(phi, alpha, db, &adom)
}

/// Enumerates all satisfying assignments of `φ` over the given variable
/// order (each variable ranging over the active domain). Exponential;
/// test-sized inputs only.
pub fn all_satisfying(
    phi: &Formula,
    order: &[Var],
    db: &Database,
) -> Result<BTreeSet<Tuple>, LogicError> {
    phi.validate()?;
    let adom: Vec<Value> = db.active_domain().into_iter().collect();
    let mut out = BTreeSet::new();
    let mut alpha = Assignment::new();
    enumerate(phi, order, 0, &mut alpha, db, &adom, &mut out)?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    phi: &Formula,
    order: &[Var],
    i: usize,
    alpha: &mut Assignment,
    db: &Database,
    adom: &[Value],
    out: &mut BTreeSet<Tuple>,
) -> Result<(), LogicError> {
    if i == order.len() {
        if sat(phi, alpha, db, adom)? {
            out.insert(order.iter().map(|v| alpha[v].clone()).collect());
        }
        return Ok(());
    }
    for c in adom {
        alpha.insert(order[i].clone(), c.clone());
        enumerate(phi, order, i + 1, alpha, db, adom, out)?;
    }
    alpha.remove(&order[i]);
    Ok(())
}

fn resolve(t: &Term, alpha: &Assignment) -> Option<Value> {
    match t {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => alpha.get(v).cloned(),
    }
}

fn sat(
    phi: &Formula,
    alpha: &Assignment,
    db: &Database,
    adom: &[Value],
) -> Result<bool, LogicError> {
    match phi {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Atom(name, terms) => {
            let rel = db.get_required(name)?;
            if rel.arity() != terms.len() {
                return Err(LogicError::AtomArity {
                    name: name.to_string(),
                    expected: rel.arity(),
                    found: terms.len(),
                });
            }
            let row: Option<Tuple> = terms.iter().map(|t| resolve(t, alpha)).collect();
            match row {
                Some(row) => Ok(rel.contains(&row)),
                None => Ok(false), // unbound variable: unsatisfied
            }
        }
        Formula::Eq(a, b) => match (resolve(a, alpha), resolve(b, alpha)) {
            (Some(x), Some(y)) => Ok(x == y),
            _ => Ok(false),
        },
        Formula::Not(f) => Ok(!sat(f, alpha, db, adom)?),
        Formula::And(a, b) => Ok(sat(a, alpha, db, adom)? && sat(b, alpha, db, adom)?),
        Formula::Or(a, b) => Ok(sat(a, alpha, db, adom)? || sat(b, alpha, db, adom)?),
        Formula::Exists(vs, f) => quantify(vs, f, alpha, db, adom, false),
        Formula::Forall(vs, f) => quantify(vs, f, alpha, db, adom, true),
        Formula::Tc { u, v, body, x, y } => {
            let start: Option<Tuple> = x.iter().map(|t| resolve(t, alpha)).collect();
            let goal: Option<Tuple> = y.iter().map(|t| resolve(t, alpha)).collect();
            let (Some(start), Some(goal)) = (start, goal) else {
                return Ok(false);
            };
            // Reflexive case, under the active-domain reading: the 0-step
            // path exists for endpoints within adom^k.
            let in_adom = |t: &Tuple| t.iter().all(|c| adom.contains(c));
            if start == goal && in_adom(&start) {
                return Ok(true);
            }
            // Strict active-domain semantics: every tuple of the chain,
            // endpoints included, lies in adom^k (matching the relational
            // evaluator, which closes the adom-restricted step relation).
            // Without this check a constant source outside the active
            // domain could still take a first step, and the two
            // evaluators would disagree (reproduction finding F3).
            if !in_adom(&start) {
                return Ok(false);
            }
            // BFS over k-tuples; step relation queried via `body` with
            // the current parameters fixed by `alpha`.
            let mut alpha2 = alpha.clone();
            let k = u.len();
            let mut frontier = vec![start.clone()];
            let mut seen: BTreeSet<Tuple> = BTreeSet::new();
            seen.insert(start);
            while let Some(cur) = frontier.pop() {
                for cand in tuples(adom, k) {
                    if seen.contains(&cand) {
                        continue;
                    }
                    for (i, w) in u.iter().enumerate() {
                        alpha2.insert(w.clone(), cur[i].clone());
                    }
                    for (i, w) in v.iter().enumerate() {
                        alpha2.insert(w.clone(), cand[i].clone());
                    }
                    if sat(body, &alpha2, db, adom)? {
                        if cand == goal {
                            return Ok(true);
                        }
                        seen.insert(cand.clone());
                        frontier.push(cand);
                    }
                }
            }
            Ok(false)
        }
    }
}

fn quantify(
    vs: &[Var],
    f: &Formula,
    alpha: &Assignment,
    db: &Database,
    adom: &[Value],
    universal: bool,
) -> Result<bool, LogicError> {
    let mut alpha2 = alpha.clone();
    let mut stack: Vec<usize> = vec![0];
    // Iterate over adom^|vs| with an odometer.
    let mut odo = vec![0usize; vs.len()];
    stack.clear();
    if adom.is_empty() {
        // Over the empty domain ∃ is false and ∀ is vacuously true —
        // unless there are no quantified variables at all.
        if vs.is_empty() {
            return sat(f, alpha, db, adom);
        }
        return Ok(universal);
    }
    loop {
        for (i, v) in vs.iter().enumerate() {
            alpha2.insert(v.clone(), adom[odo[i]].clone());
        }
        let hit = sat(f, &alpha2, db, adom)?;
        if universal && !hit {
            return Ok(false);
        }
        if !universal && hit {
            return Ok(true);
        }
        // Advance odometer.
        let mut pos = 0;
        loop {
            if pos == vs.len() {
                return Ok(universal);
            }
            odo[pos] += 1;
            if odo[pos] < adom.len() {
                break;
            }
            odo[pos] = 0;
            pos += 1;
        }
    }
}

/// All `k`-tuples over `vals` (small inputs only).
fn tuples(vals: &[Value], k: usize) -> Vec<Tuple> {
    let mut acc: Vec<Tuple> = vec![Tuple::empty()];
    for _ in 0..k {
        let mut next = Vec::with_capacity(acc.len() * vals.len());
        for t in &acc {
            for val in vals {
                let mut grown = t.clone();
                grown.push(val.clone());
                next.push(grown);
            }
        }
        acc = next;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_value::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        for (s, t) in [(0i64, 1i64), (1, 2), (2, 3)] {
            db.insert("E", tuple![s, t]).unwrap();
        }
        db
    }

    #[test]
    fn atom_and_eq() {
        let d = db();
        let mut alpha = Assignment::new();
        alpha.insert(Var::new("x"), Value::int(0));
        alpha.insert(Var::new("y"), Value::int(1));
        assert!(satisfies(&Formula::atom("E", ["x", "y"]), &alpha, &d).unwrap());
        assert!(!satisfies(&Formula::atom("E", ["y", "x"]), &alpha, &d).unwrap());
        assert!(satisfies(&Formula::eq(Term::var("x"), Term::constant(0)), &alpha, &d).unwrap());
    }

    #[test]
    fn quantifiers() {
        let d = db();
        let alpha = Assignment::new();
        let f = Formula::exists(["x", "y"], Formula::atom("E", ["x", "y"]));
        assert!(satisfies(&f, &alpha, &d).unwrap());
        let f = Formula::forall(
            ["x"],
            Formula::exists(["y"], Formula::atom("E", ["x", "y"])),
        );
        assert!(!satisfies(&f, &alpha, &d).unwrap()); // 3 has no successor
    }

    #[test]
    fn tc_reachability() {
        let d = db();
        let alpha = Assignment::new();
        let f = Formula::tc(
            vec![Var::new("u")],
            vec![Var::new("v")],
            Formula::atom("E", ["u", "v"]),
            vec![Term::constant(0)],
            vec![Term::constant(3)],
        );
        assert!(satisfies(&f, &alpha, &d).unwrap());
        let g = Formula::tc(
            vec![Var::new("u")],
            vec![Var::new("v")],
            Formula::atom("E", ["u", "v"]),
            vec![Term::constant(3)],
            vec![Term::constant(0)],
        );
        assert!(!satisfies(&g, &alpha, &d).unwrap());
    }

    #[test]
    fn all_satisfying_matches_expectation() {
        let d = db();
        let f = Formula::atom("E", ["x", "y"]);
        let rows = all_satisfying(&f, &[Var::new("x"), Var::new("y")], &d).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.contains(&tuple![2, 3]));
    }

    #[test]
    fn empty_domain_quantifier_semantics() {
        let d = Database::new();
        let alpha = Assignment::new();
        let f = Formula::exists(["x"], Formula::eq(Term::var("x"), Term::var("x")));
        assert!(!satisfies(&f, &alpha, &d).unwrap());
        let f = Formula::forall(["x"], Formula::False);
        assert!(satisfies(&f, &alpha, &d).unwrap());
    }

    /// Finding F3: with a `True` step formula, a constant source outside
    /// the active domain must NOT reach anything — the chain's tuples
    /// (endpoints included) all range over adom^k. Both evaluators agree.
    #[test]
    fn tc_source_outside_adom_is_false_f3() {
        let d = db();
        let phi = Formula::tc(
            vec![Var::new("u")],
            vec![Var::new("v")],
            Formula::True,
            vec![Term::constant(99)],
            vec![Term::var("y")],
        );
        let rows = all_satisfying(&phi, &[Var::new("y")], &d).unwrap();
        assert!(rows.is_empty());
        let fast = crate::eval::eval_ordered(&phi, &[Var::new("y")], &d).unwrap();
        assert!(fast.is_empty());
    }
}
