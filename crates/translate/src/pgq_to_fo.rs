//! `τ : PGQext → FO[TC]` — Theorem 6.1, with the pattern translation of
//! Lemma 9.3 (clauses T1–T8).
//!
//! The contract, property-tested in this crate and exercised by
//! experiment E6: for every query `Q` and database `D` on which `Q`'s
//! graph views are valid, `⟦Q⟧_D = ⟦τ(Q)⟧_D`.
//!
//! Two repairs relative to the printed lemma, both recorded in DESIGN.md:
//!
//! * **F2** — T6's base case is printed as `τ(ψ⁰) := (x̄src = x̄tgt)`,
//!   but Figure 2 defines `⟦ψ⟧⁰` as the identity *on nodes*; we emit
//!   `N(x̄src) ∧ x̄src = x̄tgt` (and analogously restrict T8's reflexive
//!   pairs), otherwise a bare `ψ^{0..m}` output pattern would return
//!   non-node domain elements.
//! * Per-leg bindings of a repetition are independent (`∃μ1 … μn` in
//!   Figure 2, no compatibility requirement), so every unrolled leg gets
//!   fresh variable tuples.

use crate::error::TranslateError;
use crate::subst::{subst, tuple_map};
use pgq_core::{Query, ViewOp};
use pgq_logic::{Formula, Term};
use pgq_pattern::{Condition, OutputItem, OutputPattern, Pattern, RepBound};
use pgq_relational::{CmpOp, Operand, RowCondition, Schema};
use pgq_value::{Var, VarGen};
use std::collections::{BTreeMap, BTreeSet};

/// An FO\[TC\] formula with an explicit ordered tuple of result
/// variables — `φ_Q(x1, …, xn)` in the paper's notation.
#[derive(Debug, Clone)]
pub struct FoQuery {
    /// The formula.
    pub formula: Formula,
    /// Result variables, in output-column order (all free in `formula`;
    /// `formula` has no other free variables).
    pub vars: Vec<Var>,
}

/// Translates a `PGQext` query to FO\[TC\] (Theorem 6.1).
pub fn pgq_to_fo(q: &Query, schema: &Schema) -> Result<FoQuery, TranslateError> {
    let mut tr = Translator {
        schema,
        gen: VarGen::new(),
    };
    tr.query(q)
}

struct Translator<'a> {
    schema: &'a Schema,
    gen: VarGen,
}

/// The translated six view formulas of one pattern call, used as macros
/// for the graph atoms `N`, `E`, `src`, `tgt`, `lab`, `prop`.
struct ViewMacros {
    node: FoQuery,
    edge: FoQuery,
    src: FoQuery,
    tgt: FoQuery,
    lab: FoQuery,
    prop: FoQuery,
    k: usize,
}

impl ViewMacros {
    fn instantiate(&self, which: &FoQuery, args: &[Term]) -> Formula {
        subst(&which.formula, &tuple_map(&which.vars, args))
    }
    fn n(&self, id: &[Var]) -> Formula {
        self.instantiate(&self.node, &terms(id))
    }
    fn e(&self, id: &[Var]) -> Formula {
        self.instantiate(&self.edge, &terms(id))
    }
    fn src(&self, e: &[Var], n: &[Var]) -> Formula {
        let mut args = terms(e);
        args.extend(terms(n));
        self.instantiate(&self.src, &args)
    }
    fn tgt(&self, e: &[Var], n: &[Var]) -> Formula {
        let mut args = terms(e);
        args.extend(terms(n));
        self.instantiate(&self.tgt, &args)
    }
    fn lab(&self, id: &[Var], label: &pgq_value::Label) -> Formula {
        let mut args = terms(id);
        args.push(Term::Const(label.clone()));
        self.instantiate(&self.lab, &args)
    }
    fn prop(&self, id: &[Var], key: &pgq_value::Key, value: Term) -> Formula {
        let mut args = terms(id);
        args.push(Term::Const(key.clone()));
        args.push(value);
        self.instantiate(&self.prop, &args)
    }
}

fn terms(vars: &[Var]) -> Vec<Term> {
    vars.iter().cloned().map(Term::Var).collect()
}

/// Componentwise equality of two variable tuples.
fn eq_tuples(a: &[Var], b: &[Var]) -> Formula {
    Formula::and_all(
        a.iter()
            .zip(b)
            .map(|(x, y)| Formula::eq(Term::Var(x.clone()), Term::Var(y.clone()))),
    )
}

/// One translated sub-pattern: its formula plus the source/target
/// variable tuples (free in the formula, alongside the tuples of the
/// pattern's free variables).
struct TrPattern {
    formula: Formula,
    src: Vec<Var>,
    tgt: Vec<Var>,
}

/// Existentially closes every free variable except `keep` — applied
/// *eagerly* at each composition point so the plan evaluator can
/// project intermediate results down to the variables still in play
/// (without this, unrolled repetitions would pad disjuncts to the union
/// of all leg variables: exponential in practice).
fn close_except(formula: Formula, keep: &BTreeSet<Var>) -> Formula {
    let mut hidden: BTreeSet<Var> = formula.free_vars();
    for v in keep {
        hidden.remove(v);
    }
    if hidden.is_empty() {
        formula
    } else {
        Formula::exists(hidden.into_iter().collect::<Vec<_>>(), formula)
    }
}

/// The variables that must stay free mid-pattern: the endpoints plus
/// every binding tuple allocated so far.
fn keep_set(ctx: &BTreeMap<Var, Vec<Var>>, tuples: &[&[Var]]) -> BTreeSet<Var> {
    let mut keep: BTreeSet<Var> = ctx.values().flatten().cloned().collect();
    for t in tuples {
        keep.extend(t.iter().cloned());
    }
    keep
}

impl<'a> Translator<'a> {
    fn query(&mut self, q: &Query) -> Result<FoQuery, TranslateError> {
        match q {
            Query::Rel(name) => {
                let arity = self
                    .schema
                    .arity_of(name)
                    .ok_or_else(|| TranslateError::UnknownRelation(name.to_string()))?;
                let vars = self.gen.fresh_tuple("r", arity);
                Ok(FoQuery {
                    formula: Formula::Atom(name.clone(), terms(&vars)),
                    vars,
                })
            }
            Query::Const(c) => {
                let x = self.gen.fresh("c");
                Ok(FoQuery {
                    formula: Formula::eq(Term::Var(x.clone()), Term::Const(c.clone())),
                    vars: vec![x],
                })
            }
            Query::Project(pos, inner) => {
                let sub = self.query(inner)?;
                for &p in pos {
                    if p >= sub.vars.len() {
                        return Err(TranslateError::PositionOutOfRange {
                            position: p,
                            arity: sub.vars.len(),
                        });
                    }
                }
                let outs = self.gen.fresh_tuple("p", pos.len());
                let eqs = Formula::and_all(outs.iter().zip(pos).map(|(o, &p)| {
                    Formula::eq(Term::Var(o.clone()), Term::Var(sub.vars[p].clone()))
                }));
                Ok(FoQuery {
                    formula: Formula::exists(sub.vars.clone(), sub.formula.and(eqs)),
                    vars: outs,
                })
            }
            Query::Select(cond, inner) => {
                let sub = self.query(inner)?;
                let theta = row_condition_to_fo(cond, &sub.vars)?;
                Ok(FoQuery {
                    formula: sub.formula.and(theta),
                    vars: sub.vars,
                })
            }
            Query::Product(a, b) => {
                let left = self.query(a)?;
                let right = self.query(b)?;
                let mut vars = left.vars;
                vars.extend(right.vars);
                Ok(FoQuery {
                    formula: left.formula.and(right.formula),
                    vars,
                })
            }
            Query::Union(a, b) | Query::Diff(a, b) => {
                let left = self.query(a)?;
                let right = self.query(b)?;
                if left.vars.len() != right.vars.len() {
                    return Err(TranslateError::ArityMismatch {
                        left: left.vars.len(),
                        right: right.vars.len(),
                    });
                }
                // Rename the right result tuple onto the left's.
                let renamed = subst(&right.formula, &tuple_map(&right.vars, &terms(&left.vars)));
                let formula = match q {
                    Query::Union(..) => left.formula.or(renamed),
                    _ => left.formula.and(renamed.not()),
                };
                Ok(FoQuery {
                    formula,
                    vars: left.vars,
                })
            }
            Query::Pattern { out, views, op } => self.pattern_call(out, views, *op),
        }
    }

    /// Translates `ψΩ(Q1, …, Q6)`: Lemma 9.3 plus the output-pattern
    /// wrapper of Theorem 6.1's pattern case.
    fn pattern_call(
        &mut self,
        out: &OutputPattern,
        views: &[Query; 6],
        _op: ViewOp,
    ) -> Result<FoQuery, TranslateError> {
        out.pattern
            .validate()
            .map_err(|e| TranslateError::Pattern(e.to_string()))?;
        // Identifier arity from Q1's static arity; check the view shape.
        let k = views[0]
            .arity(self.schema)
            .map_err(|e| TranslateError::Query(e.to_string()))?;
        if k == 0 {
            return Err(TranslateError::ZeroIdentifierArity);
        }
        for (q, want) in views.iter().zip(pgq_graph::shape(k)) {
            let got = q
                .arity(self.schema)
                .map_err(|e| TranslateError::Query(e.to_string()))?;
            if got != want {
                return Err(TranslateError::ViewShape {
                    expected: want,
                    found: got,
                });
            }
        }
        let macros = ViewMacros {
            node: self.query(&views[0])?,
            edge: self.query(&views[1])?,
            src: self.query(&views[2])?,
            tgt: self.query(&views[3])?,
            lab: self.query(&views[4])?,
            prop: self.query(&views[5])?,
            k,
        };
        // Shared context: pattern variable → k-tuple of FO variables.
        let mut ctx: BTreeMap<Var, Vec<Var>> = BTreeMap::new();
        let body = self.pattern(&out.pattern, &macros, &mut ctx)?;

        // Output wrapper: fresh output variables with defining equations.
        let mut outs: Vec<Var> = Vec::new();
        let mut eqs: Vec<Formula> = Vec::new();
        for item in &out.items {
            match item {
                OutputItem::Var(v) => {
                    let tuple = ctx
                        .get(v)
                        .ok_or_else(|| TranslateError::UnboundOutputVar(v.to_string()))?
                        .clone();
                    for comp in tuple {
                        let o = self.gen.fresh("o");
                        eqs.push(Formula::eq(Term::Var(o.clone()), Term::Var(comp)));
                        outs.push(o);
                    }
                }
                OutputItem::Component(v, i) => {
                    let tuple = ctx
                        .get(v)
                        .ok_or_else(|| TranslateError::UnboundOutputVar(v.to_string()))?;
                    if *i >= tuple.len() {
                        return Err(TranslateError::PositionOutOfRange {
                            position: *i,
                            arity: tuple.len(),
                        });
                    }
                    let o = self.gen.fresh("o");
                    eqs.push(Formula::eq(
                        Term::Var(o.clone()),
                        Term::Var(tuple[*i].clone()),
                    ));
                    outs.push(o);
                }
                OutputItem::Prop(v, key) => {
                    let tuple = ctx
                        .get(v)
                        .ok_or_else(|| TranslateError::UnboundOutputVar(v.to_string()))?
                        .clone();
                    let o = self.gen.fresh("o");
                    eqs.push(macros.prop(&tuple, key, Term::Var(o.clone())));
                    outs.push(o);
                }
            }
        }
        let full = body.formula.and(Formula::and_all(eqs));
        // Existentially close everything except the outputs.
        let mut hidden: BTreeSet<Var> = full.free_vars();
        for o in &outs {
            hidden.remove(o);
        }
        let formula = if hidden.is_empty() {
            full
        } else {
            Formula::exists(hidden.into_iter().collect::<Vec<_>>(), full)
        };
        Ok(FoQuery {
            formula,
            vars: outs,
        })
    }

    /// Fetches (or creates) the FO tuple for a pattern variable.
    fn ctx_tuple(&mut self, ctx: &mut BTreeMap<Var, Vec<Var>>, v: &Var, k: usize) -> Vec<Var> {
        ctx.entry(v.clone())
            .or_insert_with(|| self.gen.fresh_tuple(&format!("b_{v}_", v = v.name()), k))
            .clone()
    }

    /// Lemma 9.3's `τ` on patterns.
    fn pattern(
        &mut self,
        psi: &Pattern,
        macros: &ViewMacros,
        ctx: &mut BTreeMap<Var, Vec<Var>>,
    ) -> Result<TrPattern, TranslateError> {
        let k = macros.k;
        match psi {
            // (T1) Node: endpoints coincide; a bound variable *is* the
            // endpoint tuple.
            Pattern::Node(v) => {
                let id = match v {
                    Some(v) => self.ctx_tuple(ctx, v, k),
                    None => self.gen.fresh_tuple("n", k),
                };
                Ok(TrPattern {
                    formula: macros.n(&id),
                    src: id.clone(),
                    tgt: id,
                })
            }
            // (T2)/(T3) Edges.
            Pattern::Edge(v, dir) => {
                let id = match v {
                    Some(v) => self.ctx_tuple(ctx, v, k),
                    None => self.gen.fresh_tuple("e", k),
                };
                let s = self.gen.fresh_tuple("s", k);
                let t = self.gen.fresh_tuple("t", k);
                let formula = macros
                    .e(&id)
                    .and(macros.src(&id, &s))
                    .and(macros.tgt(&id, &t));
                let (src, tgt) = match dir {
                    pgq_pattern::Direction::Forward => (s, t),
                    pgq_pattern::Direction::Backward => (t, s),
                };
                Ok(TrPattern { formula, src, tgt })
            }
            // (T4) Concatenation: glue target-of-left to source-of-right,
            // hiding the middle tuple (unless it is a binding tuple).
            Pattern::Concat(a, b) => {
                let left = self.pattern(a, macros, ctx)?;
                let right = self.pattern(b, macros, ctx)?;
                let formula = left
                    .formula
                    .and(right.formula)
                    .and(eq_tuples(&left.tgt, &right.src));
                let keep = keep_set(ctx, &[&left.src, &right.tgt]);
                Ok(TrPattern {
                    formula: close_except(formula, &keep),
                    src: left.src,
                    tgt: right.tgt,
                })
            }
            // (T5) Disjunction: fresh shared endpoints, equated per
            // branch (safe even when a branch's endpoint is a bound
            // variable tuple).
            Pattern::Union(a, b) => {
                let left = self.pattern(a, macros, ctx)?;
                let right = self.pattern(b, macros, ctx)?;
                let s = self.gen.fresh_tuple("us", k);
                let t = self.gen.fresh_tuple("ut", k);
                let keep = keep_set(ctx, &[&s, &t]);
                let lf = close_except(
                    left.formula
                        .and(eq_tuples(&s, &left.src))
                        .and(eq_tuples(&t, &left.tgt)),
                    &keep,
                );
                let rf = close_except(
                    right
                        .formula
                        .and(eq_tuples(&s, &right.src))
                        .and(eq_tuples(&t, &right.tgt)),
                    &keep,
                );
                Ok(TrPattern {
                    formula: lf.or(rf),
                    src: s,
                    tgt: t,
                })
            }
            // (T7) Filtering.
            Pattern::Filter(p, theta) => {
                let scope = p.free_vars();
                let sub = self.pattern(p, macros, ctx)?;
                let cond = self.condition(theta, macros, ctx, &scope)?;
                Ok(TrPattern {
                    formula: sub.formula.and(cond),
                    src: sub.src,
                    tgt: sub.tgt,
                })
            }
            // (T6)/(T8) Repetition.
            Pattern::Repeat(p, n, m) => self.repetition(p, *n, *m, macros, ctx),
        }
    }

    /// A single repetition leg with *fresh* bindings (Figure 2's
    /// `∃μ1 … μn` imposes no cross-leg compatibility). The leg's
    /// bindings are discarded (`fv(ψ^{n..m}) = ∅`), so everything except
    /// the endpoints is closed immediately.
    fn leg(&mut self, p: &Pattern, macros: &ViewMacros) -> Result<TrPattern, TranslateError> {
        let mut fresh_ctx: BTreeMap<Var, Vec<Var>> = BTreeMap::new();
        let raw = self.pattern(p, macros, &mut fresh_ctx)?;
        let keep: BTreeSet<Var> = raw.src.iter().chain(&raw.tgt).cloned().collect();
        Ok(TrPattern {
            formula: close_except(raw.formula, &keep),
            src: raw.src,
            tgt: raw.tgt,
        })
    }

    /// Chains `r` fresh legs of `p`; `r = 0` is the node identity (F2).
    fn chain(
        &mut self,
        p: &Pattern,
        r: usize,
        macros: &ViewMacros,
    ) -> Result<TrPattern, TranslateError> {
        if r == 0 {
            let s = self.gen.fresh_tuple("z", macros.k);
            return Ok(TrPattern {
                formula: macros.n(&s),
                src: s.clone(),
                tgt: s,
            });
        }
        let mut acc = self.leg(p, macros)?;
        for _ in 1..r {
            let next = self.leg(p, macros)?;
            let formula = acc
                .formula
                .and(next.formula)
                .and(eq_tuples(&acc.tgt, &next.src));
            let keep: BTreeSet<Var> = acc.src.iter().chain(&next.tgt).cloned().collect();
            acc = TrPattern {
                formula: close_except(formula, &keep),
                src: acc.src,
                tgt: next.tgt,
            };
        }
        Ok(acc)
    }

    fn repetition(
        &mut self,
        p: &Pattern,
        n: usize,
        m: RepBound,
        macros: &ViewMacros,
        _ctx: &mut BTreeMap<Var, Vec<Var>>,
    ) -> Result<TrPattern, TranslateError> {
        let k = macros.k;
        match m {
            // (T6) Bounded: disjunction of chains over shared fresh
            // endpoints.
            RepBound::Finite(m) => {
                if m < n {
                    return Err(TranslateError::Pattern(format!(
                        "empty repetition range {n}..{m}"
                    )));
                }
                let s = self.gen.fresh_tuple("rs", k);
                let t = self.gen.fresh_tuple("rt", k);
                let keep: BTreeSet<Var> = s.iter().chain(&t).cloned().collect();
                let mut disjuncts = Vec::with_capacity(m - n + 1);
                for r in n..=m {
                    let c = self.chain(p, r, macros)?;
                    disjuncts.push(close_except(
                        c.formula
                            .and(eq_tuples(&s, &c.src))
                            .and(eq_tuples(&t, &c.tgt)),
                        &keep,
                    ));
                }
                Ok(TrPattern {
                    formula: Formula::or_all(disjuncts),
                    src: s,
                    tgt: t,
                })
            }
            // (T8) Unbounded: ψ^{n..∞} = ψ^n ⋅ ψ*, with
            // τ(ψ*) := N(x̄src) ∧ N(x̄tgt) ∧ TC[∃…](x̄src, x̄tgt).
            RepBound::Infinite => {
                // TC body over fresh closure tuples ū, v̄.
                let u = self.gen.fresh_tuple("tcu", k);
                let v = self.gen.fresh_tuple("tcv", k);
                let leg = self.leg(p, macros)?;
                let glued = leg
                    .formula
                    .and(eq_tuples(&u, &leg.src))
                    .and(eq_tuples(&v, &leg.tgt));
                // Hide every leg variable; only ū, v̄ stay free (no
                // parameters arise from repetition bodies).
                let mut hidden: BTreeSet<Var> = glued.free_vars();
                for w in u.iter().chain(&v) {
                    hidden.remove(w);
                }
                let body = if hidden.is_empty() {
                    glued
                } else {
                    Formula::exists(hidden.into_iter().collect::<Vec<_>>(), glued)
                };
                let s = self.gen.fresh_tuple("ss", k);
                let t = self.gen.fresh_tuple("st", k);
                let star = macros.n(&s).and(macros.n(&t)).and(Formula::tc(
                    u,
                    v,
                    body,
                    terms(&s),
                    terms(&t),
                ));
                let star = TrPattern {
                    formula: star,
                    src: s,
                    tgt: t,
                };
                if n == 0 {
                    Ok(star)
                } else {
                    let prefix = self.chain(p, n, macros)?;
                    let formula = prefix
                        .formula
                        .and(star.formula)
                        .and(eq_tuples(&prefix.tgt, &star.src));
                    let keep: BTreeSet<Var> = prefix.src.iter().chain(&star.tgt).cloned().collect();
                    Ok(TrPattern {
                        formula: close_except(formula, &keep),
                        src: prefix.src,
                        tgt: star.tgt,
                    })
                }
            }
        }
    }

    /// `θ^FO` of T7: conditions on variables outside the filtered
    /// sub-pattern's free variables are unsatisfied atoms (Section 2.3.1
    /// makes them false, not errors).
    fn condition(
        &mut self,
        theta: &Condition,
        macros: &ViewMacros,
        ctx: &mut BTreeMap<Var, Vec<Var>>,
        scope: &BTreeSet<Var>,
    ) -> Result<Formula, TranslateError> {
        let k = macros.k;
        Ok(match theta {
            Condition::HasLabel(x, l) => {
                if !scope.contains(x) {
                    return Ok(Formula::False);
                }
                let t = self.ctx_tuple(ctx, x, k);
                macros.lab(&t, l)
            }
            Condition::PropEq(x, kx, y, ky) => {
                if !scope.contains(x) || !scope.contains(y) {
                    return Ok(Formula::False);
                }
                let tx = self.ctx_tuple(ctx, x, k);
                let ty = self.ctx_tuple(ctx, y, k);
                let w = self.gen.fresh("w");
                let w2 = self.gen.fresh("w");
                let f = macros
                    .prop(&tx, kx, Term::Var(w.clone()))
                    .and(macros.prop(&ty, ky, Term::Var(w2.clone())))
                    .and(Formula::eq(Term::Var(w.clone()), Term::Var(w2.clone())));
                Formula::exists([w, w2], f)
            }
            Condition::PropCmpConst(x, key, op, c) => {
                if !scope.contains(x) {
                    return Ok(Formula::False);
                }
                let t = self.ctx_tuple(ctx, x, k);
                let w = self.gen.fresh("w");
                let cmp = match op {
                    CmpOp::Eq => Formula::eq(Term::Var(w.clone()), Term::Const(c.clone())),
                    CmpOp::Ne => {
                        Formula::eq(Term::Var(w.clone()), Term::Const(c.clone())).not()
                    }
                    other => {
                        return Err(TranslateError::UnsupportedCondition(format!(
                            "order comparison {other} has no FO translation without a built-in order relation"
                        )))
                    }
                };
                Formula::exists([w.clone()], macros.prop(&t, key, Term::Var(w)).and(cmp))
            }
            Condition::And(a, b) => self
                .condition(a, macros, ctx, scope)?
                .and(self.condition(b, macros, ctx, scope)?),
            Condition::Or(a, b) => self
                .condition(a, macros, ctx, scope)?
                .or(self.condition(b, macros, ctx, scope)?),
            Condition::Not(c) => self.condition(c, macros, ctx, scope)?.not(),
        })
    }
}

/// Translates a `σ` row condition over the result tuple `vars`
/// (Theorem 6.1's algebraic core; only the equality fragment is
/// FO-expressible without a built-in order).
fn row_condition_to_fo(cond: &RowCondition, vars: &[Var]) -> Result<Formula, TranslateError> {
    let operand = |o: &Operand| -> Result<Term, TranslateError> {
        match o {
            Operand::Col(i) => {
                vars.get(*i)
                    .cloned()
                    .map(Term::Var)
                    .ok_or(TranslateError::PositionOutOfRange {
                        position: *i,
                        arity: vars.len(),
                    })
            }
            Operand::Const(c) => Ok(Term::Const(c.clone())),
        }
    };
    Ok(match cond {
        RowCondition::True => Formula::True,
        RowCondition::Cmp(a, op, b) => {
            let (ta, tb) = (operand(a)?, operand(b)?);
            match op {
                CmpOp::Eq => Formula::Eq(ta, tb),
                CmpOp::Ne => Formula::Eq(ta, tb).not(),
                other => {
                    return Err(TranslateError::UnsupportedCondition(format!(
                        "order comparison {other} in σ"
                    )))
                }
            }
        }
        RowCondition::Not(c) => row_condition_to_fo(c, vars)?.not(),
        RowCondition::And(a, b) => row_condition_to_fo(a, vars)?.and(row_condition_to_fo(b, vars)?),
        RowCondition::Or(a, b) => row_condition_to_fo(a, vars)?.or(row_condition_to_fo(b, vars)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_core::{builders, eval as eval_pgq};
    use pgq_logic::eval_ordered;
    use pgq_relational::{Database, Relation};
    use pgq_value::tuple;

    /// Chain a→b→c→d in canonical six relations, with labels and props.
    fn db() -> Database {
        let mut db = Database::new();
        for n in ["a", "b", "c", "d"] {
            db.insert("N", tuple![n]).unwrap();
        }
        for (e, s, t, amt) in [
            ("e1", "a", "b", 100i64),
            ("e2", "b", "c", 200),
            ("e3", "c", "d", 300),
        ] {
            db.insert("E", tuple![e]).unwrap();
            db.insert("S", tuple![e, s]).unwrap();
            db.insert("T", tuple![e, t]).unwrap();
            db.insert("L", tuple![e, "Transfer"]).unwrap();
            db.insert("P", tuple![e, "amount", amt]).unwrap();
        }
        db
    }

    fn check_equal(q: &Query, db: &Database) {
        let schema = db.schema();
        let fo = pgq_to_fo(q, &schema).unwrap();
        let via_fo = eval_ordered(&fo.formula, &fo.vars, db).unwrap();
        let direct = eval_pgq(q, db).unwrap();
        assert_eq!(via_fo, direct, "query {q}\nformula {}", fo.formula);
    }

    #[test]
    fn algebraic_core_clauses() {
        let d = db();
        check_equal(&Query::rel("S"), &d);
        check_equal(&Query::constant("a"), &d);
        check_equal(&Query::constant("nope"), &d);
        check_equal(&Query::rel("S").project(vec![1, 1]), &d);
        check_equal(
            &Query::rel("S").select(RowCondition::col_eq_const(1, "a")),
            &d,
        );
        check_equal(&Query::rel("N").product(Query::rel("E")), &d);
        check_equal(&Query::rel("N").union(Query::rel("E")), &d);
        check_equal(&Query::rel("N").diff(Query::rel("E")), &d);
        check_equal(
            &Query::rel("S").select(RowCondition::col_eq(0, 1).not()),
            &d,
        );
    }

    #[test]
    fn pattern_atoms_and_concat() {
        let d = db();
        let q = Query::pattern_ro(
            OutputPattern::vars(
                Pattern::node("x")
                    .then(Pattern::edge("t"))
                    .then(Pattern::node("y")),
                ["x", "t", "y"],
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        check_equal(&q, &d);
    }

    #[test]
    fn backward_edge() {
        let d = db();
        let q = Query::pattern_ro(
            OutputPattern::vars(
                Pattern::node("x")
                    .then(Pattern::edge_back("t"))
                    .then(Pattern::node("y")),
                ["x", "y"],
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        check_equal(&q, &d);
    }

    #[test]
    fn star_reachability_matches() {
        let d = db();
        let q = Query::pattern_ro(
            builders::reachability_output(),
            ["N", "E", "S", "T", "L", "P"],
        );
        check_equal(&q, &d);
        // Kleene-star produces exactly one TC of the identifier arity.
        let fo = pgq_to_fo(&q, &d.schema()).unwrap();
        assert_eq!(fo.formula.max_tc_arity(), 1);
    }

    #[test]
    fn bounded_repetition_unrolls() {
        let d = db();
        for (n, m) in [(0usize, 0usize), (0, 2), (1, 2), (2, 3)] {
            let q = Query::pattern_ro(
                OutputPattern::vars(
                    Pattern::node("x")
                        .then(Pattern::any_edge().repeat(n, m))
                        .then(Pattern::node("y")),
                    ["x", "y"],
                )
                .unwrap(),
                ["N", "E", "S", "T", "L", "P"],
            );
            check_equal(&q, &d);
            let fo = pgq_to_fo(&q, &d.schema()).unwrap();
            assert_eq!(fo.formula.max_tc_arity(), 0, "bounded repetition is FO");
        }
    }

    #[test]
    fn bare_repetition_restricted_to_nodes_f2() {
        // Finding F2: ψ^{0..0} alone must return only *nodes*, not every
        // domain element.
        let d = db();
        let q = Query::pattern_ro(
            OutputPattern::vars(
                Pattern::node("x").then(Pattern::any_edge().repeat(0, 0)),
                ["x"],
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        check_equal(&q, &d);
        let fo = pgq_to_fo(&q, &d.schema()).unwrap();
        let rel = eval_ordered(&fo.formula, &fo.vars, &d).unwrap();
        assert_eq!(rel, Relation::unary(["a", "b", "c", "d"]));
    }

    #[test]
    fn filters_translate() {
        let d = db();
        let step = Pattern::edge("t").filter(
            Condition::has_label("t", "Transfer")
                .and(Condition::prop_eq_const("t", "amount", 200i64)),
        );
        let q = Query::pattern_ro(
            OutputPattern::vars(
                Pattern::node("x").then(step).then(Pattern::node("y")),
                ["x", "y"],
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        check_equal(&q, &d);
    }

    #[test]
    fn prop_eq_between_variables() {
        let mut d = db();
        d.insert("P", tuple!["a", "iban", "IL7"]).unwrap();
        d.insert("P", tuple!["b", "iban", "IL7"]).unwrap();
        let q = Query::pattern_ro(
            OutputPattern::vars(
                Pattern::node("x")
                    .then(Pattern::any_edge())
                    .then(Pattern::node("y"))
                    .filter(Condition::prop_eq("x", "iban", "y", "iban")),
                ["x", "y"],
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        check_equal(&q, &d);
    }

    #[test]
    fn union_pattern_with_shared_variables() {
        let d = db();
        let p = Pattern::node("x")
            .then(Pattern::any_edge())
            .then(Pattern::node("y"))
            .or(Pattern::node("y")
                .then(Pattern::any_edge())
                .then(Pattern::node("x")));
        let q = Query::pattern_ro(
            OutputPattern::vars(p, ["x", "y"]).unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        check_equal(&q, &d);
    }

    #[test]
    fn boolean_output() {
        let d = db();
        let q = Query::pattern_ro(
            builders::boolean_reachability(),
            ["N", "E", "S", "T", "L", "P"],
        );
        check_equal(&q, &d);
    }

    #[test]
    fn prop_output_items() {
        let d = db();
        let q = Query::pattern_ro(
            OutputPattern::new(
                Pattern::node("x")
                    .then(Pattern::edge("t"))
                    .then(Pattern::node("y")),
                vec![OutputItem::Prop(Var::new("t"), "amount".into())],
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        check_equal(&q, &d);
    }

    #[test]
    fn order_comparisons_are_rejected() {
        let d = db();
        let q = Query::pattern_ro(
            OutputPattern::boolean(Pattern::edge("t").filter(Condition::prop_cmp(
                "t",
                "amount",
                CmpOp::Gt,
                100i64,
            )))
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        assert!(matches!(
            pgq_to_fo(&q, &d.schema()).unwrap_err(),
            TranslateError::UnsupportedCondition(_)
        ));
    }

    #[test]
    fn condition_on_out_of_scope_var_is_false() {
        let d = db();
        // Filter directly on the edge atom references y, which is bound
        // only later: at filter time μ does not bind y, so the atom is
        // false and the whole pattern is empty.
        let q = Query::pattern_ro(
            OutputPattern::vars(
                Pattern::node("x")
                    .then(Pattern::edge("t").filter(Condition::has_label("y", "Transfer")))
                    .then(Pattern::node("y")),
                ["x", "y"],
            )
            .unwrap(),
            ["N", "E", "S", "T", "L", "P"],
        );
        check_equal(&q, &d);
        assert!(eval_pgq(&q, &d).unwrap().is_empty());
    }

    #[test]
    fn nested_pattern_over_derived_views() {
        // PGQrw: pattern over views that are themselves RA over pattern
        // results would be heavy; test pattern over σ/π-derived views.
        let d = db();
        let keep = Query::rel("S").select(RowCondition::col_eq_const(1, "a"));
        let views = [
            Query::rel("N"),
            keep.clone().project(vec![0]),
            keep.clone(),
            Query::rel("T")
                .product(keep.clone().project(vec![0]))
                .select(RowCondition::col_eq(0, 2))
                .project(vec![0, 1]),
            // Labels/properties restricted to the surviving edge, so the
            // derived view stays valid under strict pgView.
            Query::rel("L")
                .product(keep.clone().project(vec![0]))
                .select(RowCondition::col_eq(0, 2))
                .project(vec![0, 1]),
            Query::rel("P")
                .product(keep.project(vec![0]))
                .select(RowCondition::col_eq(0, 3))
                .project(vec![0, 1, 2]),
        ];
        let q = Query::pattern_rw(builders::reachability_output(), views);
        check_equal(&q, &d);
    }
}
