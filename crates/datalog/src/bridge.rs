//! FO\[TC\] → stratified *linear* Datalog.
//!
//! Section 4.1 of the paper calibrates the read-write fragment against
//! NL, "corresponding to Datalog's capabilities on CRPQs, as well as
//! SQL's `WITH RECURSIVE`, which supports linear recursion". This module
//! makes that correspondence executable: every FO\[TC\] formula compiles
//! to a stratified Datalog program whose only recursion is the linear
//! transitive-closure loop
//!
//! ```text
//! tc(x̄, x̄, p̄) :- $adom(x̄), $adom(p̄).
//! tc(x̄, z̄, p̄) :- tc(x̄, ȳ, p̄), step(ȳ, z̄, p̄).
//! ```
//!
//! so [`classify_recursion`](crate::stratify::classify_recursion) returns
//! [`Recursion::Linear`](crate::stratify::Recursion::Linear) (or `None`
//! for TC-free formulas) on every compiled program — a mechanical check
//! that FO\[TC\] needs no non-linear recursion, which is the reason its
//! data complexity stays in NL rather than P.
//!
//! The translation is exact with respect to the logic crate's
//! active-domain semantics, including the corner cases: equality of
//! constants outside the active domain, vacuous quantification over an
//! empty domain, and TC applications with constant endpoints. For the
//! latter, strict active-domain semantics applies — every tuple of a TC
//! chain, endpoints included, lies in `adom^k` — so the closure
//! predicate materialized over `adom^k` is exact. (An earlier draft of
//! the naive logic evaluator let a constant source outside the active
//! domain take a first step; reconciling the two evaluators on that
//! corner is reproduction finding F3 in EXPERIMENTS.md.)

use crate::ast::{Atom, Literal, Program, Rule, ADOM};
use pgq_logic::{Formula, TcShapeError, Term};
use pgq_relational::RelName;
use pgq_value::{Value, Var, VarGen};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors of the FO\[TC\] → Datalog compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeError {
    /// The input formula is malformed (arity mismatch or repeated
    /// closure variables in a `TC` — `Formula::validate` rejects both).
    Shape(TcShapeError),
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::Shape(e) => write!(f, "malformed formula: {e:?}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<TcShapeError> for BridgeError {
    fn from(e: TcShapeError) -> Self {
        BridgeError::Shape(e)
    }
}

/// The output of [`compile_formula`]: a program, the goal predicate, and
/// the order of its columns (the formula's free variables, sorted — the
/// same order `pgq_logic::eval_ordered` uses when handed the sorted
/// free-variable list).
#[derive(Debug, Clone)]
pub struct CompiledFormula {
    /// The stratified linear program.
    pub program: Program,
    /// The predicate holding the formula's answer relation.
    pub goal: RelName,
    /// Column order of `goal`: the formula's free variables, sorted.
    pub head_vars: Vec<Var>,
}

/// Compile an FO\[TC\] formula to stratified linear Datalog.
pub fn compile_formula(phi: &Formula) -> Result<CompiledFormula, BridgeError> {
    phi.validate()?;
    let mut c = Compiler::default();
    let pred = c.compile(phi)?;
    Ok(CompiledFormula {
        program: c.program,
        goal: pred.name,
        head_vars: pred.vars,
    })
}

/// A compiled subformula: its predicate and head-variable order.
#[derive(Debug, Clone)]
struct Pred {
    name: RelName,
    vars: Vec<Var>,
}

#[derive(Default)]
struct Compiler {
    program: Program,
    vars: VarGen,
    counter: usize,
}

impl Compiler {
    fn fresh_pred(&mut self, hint: &str) -> RelName {
        let n = self.counter;
        self.counter += 1;
        RelName::new(format!("\u{03c6}{n}_{hint}"))
    }

    fn adom_guard(v: &Var) -> Literal {
        Literal::pos(Atom::new(ADOM, [Term::Var(v.clone())]))
    }

    fn sorted_fv(phi: &Formula) -> Vec<Var> {
        phi.free_vars().into_iter().collect()
    }

    fn compile(&mut self, phi: &Formula) -> Result<Pred, BridgeError> {
        match phi {
            Formula::True => {
                let name = self.fresh_pred("true");
                self.program
                    .push(Rule::fact(Atom::new(name.clone(), Vec::<Term>::new())));
                Ok(Pred { name, vars: vec![] })
            }
            Formula::False => {
                let name = self.fresh_pred("false");
                self.program.declare(name.clone(), 0);
                Ok(Pred { name, vars: vec![] })
            }
            Formula::Atom(rel, terms) => {
                let hv = Self::sorted_fv(phi);
                let name = self.fresh_pred("atom");
                let body = Literal::pos(Atom::new(rel.clone(), terms.clone()));
                self.program
                    .push(Rule::new(head_atom(&name, &hv), vec![body]));
                Ok(Pred { name, vars: hv })
            }
            Formula::Eq(a, b) => self.compile_eq(a, b),
            Formula::Not(f) => {
                let inner = self.compile(f)?;
                let hv = inner.vars.clone();
                let name = self.fresh_pred("not");
                let mut body: Vec<Literal> = hv.iter().map(Self::adom_guard).collect();
                body.push(Literal::neg(Atom::new(
                    inner.name.clone(),
                    hv.iter().map(|v| Term::Var(v.clone())).collect::<Vec<_>>(),
                )));
                self.program.push(Rule::new(head_atom(&name, &hv), body));
                Ok(Pred { name, vars: hv })
            }
            Formula::And(f, g) => {
                let p1 = self.compile(f)?;
                let p2 = self.compile(g)?;
                let hv = Self::sorted_fv(phi);
                let name = self.fresh_pred("and");
                let body = vec![pred_literal(&p1), pred_literal(&p2)];
                self.program.push(Rule::new(head_atom(&name, &hv), body));
                Ok(Pred { name, vars: hv })
            }
            Formula::Or(f, g) => {
                let p1 = self.compile(f)?;
                let p2 = self.compile(g)?;
                let hv = Self::sorted_fv(phi);
                let name = self.fresh_pred("or");
                for p in [&p1, &p2] {
                    let covered: BTreeSet<&Var> = p.vars.iter().collect();
                    let mut body = vec![pred_literal(p)];
                    body.extend(
                        hv.iter()
                            .filter(|v| !covered.contains(v))
                            .map(Self::adom_guard),
                    );
                    self.program.push(Rule::new(head_atom(&name, &hv), body));
                }
                Ok(Pred { name, vars: hv })
            }
            Formula::Exists(vs, f) => {
                let inner = self.compile(f)?;
                let hv = Self::sorted_fv(phi);
                let name = self.fresh_pred("exists");
                let inner_fv: BTreeSet<&Var> = inner.vars.iter().collect();
                let mut body = vec![pred_literal(&inner)];
                // A quantified variable absent from the body still ranges
                // over the active domain: ∃x φ ≡ φ ∧ ∃x adom(x).
                body.extend(
                    vs.iter()
                        .filter(|v| !inner_fv.contains(v))
                        .map(Self::adom_guard),
                );
                self.program.push(Rule::new(head_atom(&name, &hv), body));
                Ok(Pred { name, vars: hv })
            }
            Formula::Forall(vs, f) => {
                // ∀x̄ φ ≡ ¬∃x̄ ¬φ, matching the evaluator's vacuous-domain
                // behaviour (∀ over an empty domain is true).
                let rewritten = Formula::Not(Box::new(Formula::Exists(
                    vs.clone(),
                    Box::new(Formula::Not(f.clone())),
                )));
                self.compile(&rewritten)
            }
            Formula::Tc { u, v, body, x, y } => self.compile_tc(u, v, body, x, y),
        }
    }

    fn compile_eq(&mut self, a: &Term, b: &Term) -> Result<Pred, BridgeError> {
        match (a, b) {
            (Term::Var(x), Term::Var(y)) if x == y => {
                let name = self.fresh_pred("eq");
                self.program.push(Rule::new(
                    head_atom(&name, std::slice::from_ref(x)),
                    vec![Self::adom_guard(x)],
                ));
                Ok(Pred {
                    name,
                    vars: vec![x.clone()],
                })
            }
            (Term::Var(x), Term::Var(y)) => {
                let name = self.fresh_pred("eq");
                let mut hv = vec![x.clone(), y.clone()];
                hv.sort();
                // Both head columns carry the same variable: the derived
                // relation is the adom diagonal.
                let w = self.vars.fresh("eq");
                self.program.push(Rule::new(
                    Atom::new(name.clone(), [Term::Var(w.clone()), Term::Var(w.clone())]),
                    vec![Self::adom_guard(&w)],
                ));
                Ok(Pred { name, vars: hv })
            }
            (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                let name = self.fresh_pred("eq");
                // {(c)} if c is in the active domain, else empty — exactly
                // the evaluator's answer for x = c with x ranging over adom.
                self.program.push(Rule::new(
                    Atom::new(name.clone(), [Term::Const(c.clone())]),
                    vec![Literal::pos(Atom::new(ADOM, [Term::Const(c.clone())]))],
                ));
                Ok(Pred {
                    name,
                    vars: vec![x.clone()],
                })
            }
            (Term::Const(c1), Term::Const(c2)) => {
                // Ground equality: true/false regardless of the domain
                // (the evaluator compares resolved values directly).
                let name = self.fresh_pred("eq");
                if c1 == c2 {
                    self.program
                        .push(Rule::fact(Atom::new(name.clone(), Vec::<Term>::new())));
                } else {
                    self.program.declare(name.clone(), 0);
                }
                Ok(Pred { name, vars: vec![] })
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_tc(
        &mut self,
        u: &[Var],
        v: &[Var],
        body: &Formula,
        x: &[Term],
        y: &[Term],
    ) -> Result<Pred, BridgeError> {
        let k = u.len();
        let step = self.compile(body)?;
        let body_fv: BTreeSet<Var> = body.free_vars();
        let params: Vec<Var> = body_fv
            .iter()
            .filter(|w| !u.contains(w) && !v.contains(w))
            .cloned()
            .collect();

        // The closure predicate tc(s̄, t̄, p̄) over adom^k sources/targets.
        let tc = self.fresh_pred("tc");
        let s = self.vars.fresh_tuple("s", k);
        let t = self.vars.fresh_tuple("t", k);
        let w = self.vars.fresh_tuple("w", k);

        // Base: the reflexive diagonal over adom^k × adom^ℓ.
        {
            let mut terms: Vec<Term> = s.iter().map(|z| Term::Var(z.clone())).collect();
            terms.extend(s.iter().map(|z| Term::Var(z.clone())));
            terms.extend(params.iter().map(|p| Term::Var(p.clone())));
            let mut guards: Vec<Literal> = s.iter().map(Self::adom_guard).collect();
            guards.extend(params.iter().map(Self::adom_guard));
            self.program
                .push(Rule::new(Atom::new(tc.clone(), terms), guards));
        }
        // Step (the only recursive rule — linear by construction):
        // tc(s̄, w̄, p̄) :- tc(s̄, t̄, p̄), step(t̄→ū, w̄→v̄, p̄), guards.
        {
            let mut head: Vec<Term> = s.iter().map(|z| Term::Var(z.clone())).collect();
            head.extend(w.iter().map(|z| Term::Var(z.clone())));
            head.extend(params.iter().map(|p| Term::Var(p.clone())));

            let mut rec: Vec<Term> = s.iter().map(|z| Term::Var(z.clone())).collect();
            rec.extend(t.iter().map(|z| Term::Var(z.clone())));
            rec.extend(params.iter().map(|p| Term::Var(p.clone())));

            let mut lits = vec![Literal::pos(Atom::new(tc.clone(), rec))];
            lits.push(step_literal(&step, u, v, &t, &w, &body_fv));
            // Target coordinates the step formula does not mention range
            // freely over the domain.
            for (i, vi) in v.iter().enumerate() {
                if !body_fv.contains(vi) {
                    lits.push(Self::adom_guard(&w[i]));
                }
            }
            self.program
                .push(Rule::new(Atom::new(tc.clone(), head), lits));
        }

        // Application: p(fv) :- tc(x̄, ȳ, p̄).
        let phi = Formula::Tc {
            u: u.to_vec(),
            v: v.to_vec(),
            body: Box::new(body.clone()),
            x: x.to_vec(),
            y: y.to_vec(),
        };
        let hv = Self::sorted_fv(&phi);
        let name = self.fresh_pred("tcapp");
        {
            let mut args: Vec<Term> = x.iter().chain(y).cloned().collect();
            args.extend(params.iter().map(|p| Term::Var(p.clone())));
            self.program.push(Rule::new(
                head_atom(&name, &hv),
                vec![Literal::pos(Atom::new(tc.clone(), args))],
            ));
        }

        Ok(Pred { name, vars: hv })
    }
}

fn head_atom(name: &RelName, vars: &[Var]) -> Atom {
    Atom::new(
        name.clone(),
        vars.iter()
            .map(|v| Term::Var(v.clone()))
            .collect::<Vec<_>>(),
    )
}

fn pred_literal(p: &Pred) -> Literal {
    Literal::pos(Atom::new(
        p.name.clone(),
        p.vars
            .iter()
            .map(|v| Term::Var(v.clone()))
            .collect::<Vec<_>>(),
    ))
}

/// The step literal of the recursive rule: the compiled body predicate
/// with `ū ↦ t̄` (current source block), `v̄ ↦ w̄` (next block), and
/// parameters passed through by name.
fn step_literal(
    step: &Pred,
    u: &[Var],
    v: &[Var],
    t: &[Var],
    w: &[Var],
    _body_fv: &BTreeSet<Var>,
) -> Literal {
    let mut arg_of: BTreeMap<&Var, Term> = BTreeMap::new();
    for (ui, ti) in u.iter().zip(t) {
        arg_of.insert(ui, Term::Var(ti.clone()));
    }
    for (vi, wi) in v.iter().zip(w) {
        arg_of.insert(vi, Term::Var(wi.clone()));
    }
    let args: Vec<Term> = step
        .vars
        .iter()
        .map(|hv| arg_of.get(hv).cloned().unwrap_or(Term::Var(hv.clone())))
        .collect();
    Literal::pos(Atom::new(step.name.clone(), args))
}

/// Capture-respecting substitution of constants for variables:
/// `φ[c̄/x̄]`. Binders (`∃`, `∀`, and a `TC`'s `ū`/`v̄`) shadow the
/// substitution inside their scope; substituting constants cannot
/// capture, so no renaming is needed.
pub fn subst_consts(phi: &Formula, map: &BTreeMap<Var, Value>) -> Formula {
    if map.is_empty() {
        return phi.clone();
    }
    let sub_term = |t: &Term| -> Term {
        match t {
            Term::Var(v) => map
                .get(v)
                .map(|c| Term::Const(c.clone()))
                .unwrap_or_else(|| t.clone()),
            Term::Const(_) => t.clone(),
        }
    };
    match phi {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Atom(r, ts) => Formula::Atom(r.clone(), ts.iter().map(sub_term).collect()),
        Formula::Eq(a, b) => Formula::Eq(sub_term(a), sub_term(b)),
        Formula::Not(f) => Formula::Not(Box::new(subst_consts(f, map))),
        Formula::And(a, b) => Formula::And(
            Box::new(subst_consts(a, map)),
            Box::new(subst_consts(b, map)),
        ),
        Formula::Or(a, b) => Formula::Or(
            Box::new(subst_consts(a, map)),
            Box::new(subst_consts(b, map)),
        ),
        Formula::Exists(vs, f) => {
            let inner: BTreeMap<Var, Value> = map
                .iter()
                .filter(|(k, _)| !vs.contains(k))
                .map(|(k, c)| (k.clone(), c.clone()))
                .collect();
            Formula::Exists(vs.clone(), Box::new(subst_consts(f, &inner)))
        }
        Formula::Forall(vs, f) => {
            let inner: BTreeMap<Var, Value> = map
                .iter()
                .filter(|(k, _)| !vs.contains(k))
                .map(|(k, c)| (k.clone(), c.clone()))
                .collect();
            Formula::Forall(vs.clone(), Box::new(subst_consts(f, &inner)))
        }
        Formula::Tc { u, v, body, x, y } => {
            let inner: BTreeMap<Var, Value> = map
                .iter()
                .filter(|(k, _)| !u.contains(k) && !v.contains(k))
                .map(|(k, c)| (k.clone(), c.clone()))
                .collect();
            Formula::Tc {
                u: u.clone(),
                v: v.clone(),
                body: Box::new(subst_consts(body, &inner)),
                x: x.iter().map(sub_term).collect(),
                y: y.iter().map(sub_term).collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::stratify::{classify_recursion, stratify, Recursion};
    use pgq_logic::eval_ordered;
    use pgq_relational::{Database, Relation};
    use pgq_value::Tuple;

    fn edge_db(edges: &[(i64, i64)]) -> Database {
        let rel = Relation::from_rows(
            2,
            edges
                .iter()
                .map(|&(a, b)| Tuple::new(vec![Value::int(a), Value::int(b)])),
        )
        .unwrap();
        Database::new().with_relation("E", rel)
    }

    /// Compile, evaluate, and compare column-for-column with the logic
    /// crate's plan evaluator over the sorted free variables.
    fn check_against_logic(phi: &Formula, db: &Database) {
        let compiled = compile_formula(phi).unwrap();
        let model = evaluate(&compiled.program, db).unwrap();
        let got = model.get(&compiled.goal).unwrap();
        let want = eval_ordered(phi, &compiled.head_vars, db).unwrap();
        assert_eq!(
            got, &want,
            "formula: {phi:?}\nprogram:\n{}",
            compiled.program
        );
    }

    #[test]
    fn atom_and_eq_agree_with_logic() {
        let db = edge_db(&[(1, 2), (2, 3)]);
        check_against_logic(&Formula::atom("E", ["x", "y"]), &db);
        check_against_logic(&Formula::eq("x", "y"), &db);
        check_against_logic(&Formula::eq("x", Term::constant(2i64)), &db);
        check_against_logic(&Formula::eq("x", Term::constant(99i64)), &db);
    }

    #[test]
    fn ground_equalities_ignore_domain() {
        let db = edge_db(&[(1, 2)]);
        // 7 = 7 is true even though 7 is not in the active domain.
        let t = Formula::Eq(Term::constant(7i64), Term::constant(7i64));
        let f = Formula::Eq(Term::constant(7i64), Term::constant(8i64));
        let ct = compile_formula(&t).unwrap();
        let cf = compile_formula(&f).unwrap();
        assert!(evaluate(&ct.program, &db)
            .unwrap()
            .get(&ct.goal)
            .unwrap()
            .as_bool());
        assert!(!evaluate(&cf.program, &db)
            .unwrap()
            .get(&cf.goal)
            .unwrap()
            .as_bool());
    }

    #[test]
    fn boolean_connectives_agree_with_logic() {
        let db = edge_db(&[(0, 1), (1, 2), (2, 0), (3, 3)]);
        let e = Formula::atom("E", ["x", "y"]);
        check_against_logic(&e.clone().not(), &db);
        check_against_logic(&e.clone().and(Formula::eq("x", "y")), &db);
        check_against_logic(&e.clone().or(Formula::eq("x", "y")), &db);
        check_against_logic(&Formula::exists(["y"], e.clone()), &db);
        check_against_logic(
            &Formula::forall(["y"], e.clone().or(Formula::eq("y", "y").not())),
            &db,
        );
    }

    #[test]
    fn vacuous_quantifiers_agree_with_logic() {
        let db = edge_db(&[(1, 2)]);
        // ∃z E(x,y) — z does not occur; still requires a nonempty domain.
        check_against_logic(
            &Formula::Exists(
                vec![Var::new("z")],
                Box::new(Formula::atom("E", ["x", "y"])),
            ),
            &db,
        );
    }

    #[test]
    fn forall_sentence_on_empty_domain_is_true() {
        let db = Database::new()
            .with_relation("E", Relation::empty(2))
            .with_relation("V", Relation::empty(1));
        let phi = Formula::forall(["x"], Formula::atom("V", ["x"]));
        let compiled = compile_formula(&phi).unwrap();
        let model = evaluate(&compiled.program, &db).unwrap();
        assert!(model.get(&compiled.goal).unwrap().as_bool());
        // And the logic evaluator agrees.
        assert!(pgq_logic::eval_sentence(&phi, &db).unwrap());
    }

    #[test]
    fn tc_reachability_agrees_with_logic() {
        let db = edge_db(&[(0, 1), (1, 2), (2, 3), (5, 5)]);
        let phi = Formula::tc(
            vec![Var::new("u")],
            vec![Var::new("v")],
            Formula::atom("E", ["u", "v"]),
            vec![Term::var("x")],
            vec![Term::var("y")],
        );
        check_against_logic(&phi, &db);
    }

    #[test]
    fn tc_with_parameters_agrees_with_logic() {
        // Steps gated on a parameter p: E(u,v) ∧ E(p,p).
        let db = edge_db(&[(0, 1), (1, 2), (3, 3)]);
        let phi = Formula::tc(
            vec![Var::new("u")],
            vec![Var::new("v")],
            Formula::atom("E", ["u", "v"]).and(Formula::atom("E", ["p", "p"])),
            vec![Term::var("x")],
            vec![Term::var("y")],
        );
        check_against_logic(&phi, &db);
    }

    #[test]
    fn tc_with_constant_source_in_adom() {
        let db = edge_db(&[(0, 1), (1, 2)]);
        let phi = Formula::tc(
            vec![Var::new("u")],
            vec![Var::new("v")],
            Formula::atom("E", ["u", "v"]),
            vec![Term::constant(0i64)],
            vec![Term::var("y")],
        );
        check_against_logic(&phi, &db);
    }

    #[test]
    fn tc_with_constant_source_outside_adom_is_empty_f3() {
        // Strict active-domain semantics (finding F3): every chain tuple
        // lies in adom^k, so a source outside the domain reaches nothing
        // even under a `True` step formula. Both logic evaluators and
        // the Datalog translation agree.
        let db = edge_db(&[(0, 1)]);
        let phi = Formula::tc(
            vec![Var::new("u")],
            vec![Var::new("v")],
            Formula::True,
            vec![Term::constant(42i64)],
            vec![Term::var("y")],
        );
        check_against_logic(&phi, &db);
        let compiled = compile_formula(&phi).unwrap();
        let model = evaluate(&compiled.program, &db).unwrap();
        assert!(model.get(&compiled.goal).unwrap().is_empty());
        // The deliberately slow satisfaction-based oracle agrees too.
        let rows = pgq_logic::all_satisfying(&phi, &[Var::new("y")], &db).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn tc_reflexivity_restricted_to_adom() {
        // TC[c, c] for c outside adom is false (the evaluator's in_adom
        // check); for c inside adom it is true.
        let db = edge_db(&[(0, 1)]);
        for (c, expect) in [(0i64, true), (42i64, false)] {
            let phi = Formula::tc(
                vec![Var::new("u")],
                vec![Var::new("v")],
                Formula::atom("E", ["u", "v"]),
                vec![Term::constant(c)],
                vec![Term::constant(c)],
            );
            let compiled = compile_formula(&phi).unwrap();
            let model = evaluate(&compiled.program, &db).unwrap();
            assert_eq!(
                model.get(&compiled.goal).unwrap().as_bool(),
                expect,
                "c = {c}"
            );
        }
    }

    #[test]
    fn binary_tc_agrees_with_logic() {
        // Pair reachability: step ((u1,u2) → (v1,v2)) iff E(u1,v1) ∧ E(u2,v2).
        let db = edge_db(&[(0, 1), (1, 2), (2, 0)]);
        let phi = Formula::tc(
            vec![Var::new("u1"), Var::new("u2")],
            vec![Var::new("v1"), Var::new("v2")],
            Formula::atom("E", ["u1", "v1"]).and(Formula::atom("E", ["u2", "v2"])),
            vec![Term::var("x1"), Term::var("x2")],
            vec![Term::var("y1"), Term::var("y2")],
        );
        check_against_logic(&phi, &db);
    }

    #[test]
    fn compiled_programs_are_linear_and_stratified() {
        let phi = Formula::tc(
            vec![Var::new("u")],
            vec![Var::new("v")],
            Formula::atom("E", ["u", "v"]).and(Formula::atom("V", ["u"]).not()),
            vec![Term::var("x")],
            vec![Term::var("y")],
        )
        .and(Formula::forall(["z"], Formula::atom("V", ["z"])).not());
        let compiled = compile_formula(&phi).unwrap();
        assert!(stratify(&compiled.program).is_ok());
        assert!(matches!(
            classify_recursion(&compiled.program),
            Recursion::Linear | Recursion::None
        ));
    }

    #[test]
    fn overlapping_tc_vars_rejected() {
        // `Formula::validate` rejects a variable occurring in both ū and
        // v̄; the bridge surfaces that as a shape error.
        let phi = Formula::Tc {
            u: vec![Var::new("u"), Var::new("shared")],
            v: vec![Var::new("shared"), Var::new("v")],
            body: Box::new(Formula::True),
            x: vec![Term::var("a"), Term::var("b")],
            y: vec![Term::var("c"), Term::var("d")],
        };
        assert!(matches!(compile_formula(&phi), Err(BridgeError::Shape(_))));
    }

    #[test]
    fn subst_consts_respects_binders() {
        let map: BTreeMap<Var, Value> = [(Var::new("x"), Value::int(7))].into_iter().collect();
        // ∃x E(x,y) — the bound x must not be substituted.
        let phi = Formula::exists(["x"], Formula::atom("E", ["x", "y"]));
        assert_eq!(subst_consts(&phi, &map), phi);
        // E(x,y) — the free x is substituted.
        let free = Formula::atom("E", ["x", "y"]);
        let expected = Formula::Atom("E".into(), vec![Term::constant(7i64), Term::var("y")]);
        assert_eq!(subst_consts(&free, &map), expected);
    }
}
