//! FO\[TC\] syntax (Section 6.1).
//!
//! First-order formulas over a relational schema, extended with the
//! transitive-closure operator
//! `TC_{ū,v̄}[ψ(ū, v̄, p̄)](x̄, ȳ)` with `|ū|=|v̄|=|x̄|=|ȳ|`.
//! Parameters `p̄` (free variables of the body other than `ū,v̄`) stay
//! fixed along the closure.

use pgq_relational::RelName;
use pgq_value::{Value, Var};
use std::collections::BTreeSet;
use std::fmt;

/// A first-order term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant from the domain `C`.
    Const(Value),
}

impl Term {
    /// Builds a variable term.
    pub fn var(v: impl Into<Var>) -> Self {
        Term::Var(v.into())
    }

    /// Builds a constant term.
    pub fn constant(c: impl Into<Value>) -> Self {
        Term::Const(c.into())
    }

    /// The variable, if this is one.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(c: Value) -> Self {
        Term::Const(c)
    }
}

impl From<&str> for Term {
    fn from(s: &str) -> Self {
        Term::Var(Var::new(s))
    }
}

/// An FO\[TC\] formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// `R(t̄)`.
    Atom(RelName, Vec<Term>),
    /// `t1 = t2`.
    Eq(Term, Term),
    /// `¬φ`.
    Not(Box<Formula>),
    /// `φ ∧ ψ`.
    And(Box<Formula>, Box<Formula>),
    /// `φ ∨ ψ`.
    Or(Box<Formula>, Box<Formula>),
    /// `∃x̄ φ`.
    Exists(Vec<Var>, Box<Formula>),
    /// `∀x̄ φ`.
    Forall(Vec<Var>, Box<Formula>),
    /// `TC_{ū,v̄}[body](x̄, ȳ)` — reflexive-transitive closure of the
    /// binary-on-`k`-tuples relation defined by `body`, applied to the
    /// term tuples `x̄`, `ȳ`. `ū`/`v̄` are bound in `body`; all other free
    /// variables of `body` are the parameters `p̄`.
    Tc {
        /// The closure's source tuple variables `ū`.
        u: Vec<Var>,
        /// The closure's target tuple variables `v̄`.
        v: Vec<Var>,
        /// The step formula `ψ(ū, v̄, p̄)`.
        body: Box<Formula>,
        /// Applied source terms `x̄`.
        x: Vec<Term>,
        /// Applied target terms `ȳ`.
        y: Vec<Term>,
    },
    /// Constant truth (the empty conjunction; convenient for builders).
    True,
    /// Constant falsity.
    False,
}

impl Formula {
    /// `R(t̄)` from anything convertible.
    pub fn atom<N, I, T>(name: N, terms: I) -> Self
    where
        N: Into<RelName>,
        I: IntoIterator<Item = T>,
        T: Into<Term>,
    {
        Formula::Atom(name.into(), terms.into_iter().map(Into::into).collect())
    }

    /// `t1 = t2`.
    pub fn eq(a: impl Into<Term>, b: impl Into<Term>) -> Self {
        Formula::Eq(a.into(), b.into())
    }

    /// `¬self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Formula::Not(Box::new(self))
    }

    /// `self ∧ other`.
    pub fn and(self, other: Formula) -> Self {
        Formula::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    pub fn or(self, other: Formula) -> Self {
        Formula::Or(Box::new(self), Box::new(other))
    }

    /// Conjunction of a sequence (`True` when empty).
    pub fn and_all<I: IntoIterator<Item = Formula>>(fs: I) -> Self {
        let mut iter = fs.into_iter();
        match iter.next() {
            None => Formula::True,
            Some(first) => iter.fold(first, |acc, f| acc.and(f)),
        }
    }

    /// Disjunction of a sequence (`False` when empty).
    pub fn or_all<I: IntoIterator<Item = Formula>>(fs: I) -> Self {
        let mut iter = fs.into_iter();
        match iter.next() {
            None => Formula::False,
            Some(first) => iter.fold(first, |acc, f| acc.or(f)),
        }
    }

    /// `∃x̄ self`.
    pub fn exists<I, V>(vars: I, body: Formula) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Var>,
    {
        Formula::Exists(vars.into_iter().map(Into::into).collect(), Box::new(body))
    }

    /// `∀x̄ self`.
    pub fn forall<I, V>(vars: I, body: Formula) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Var>,
    {
        Formula::Forall(vars.into_iter().map(Into::into).collect(), Box::new(body))
    }

    /// `TC_{ū,v̄}[body](x̄, ȳ)`.
    pub fn tc(u: Vec<Var>, v: Vec<Var>, body: Formula, x: Vec<Term>, y: Vec<Term>) -> Self {
        Formula::Tc {
            u,
            v,
            body: Box::new(body),
            x,
            y,
        }
    }

    /// Free variables. For `TC`: the applied terms' variables plus the
    /// body's parameters (free variables of the body minus `ū, v̄`).
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut out);
        out
    }

    fn collect_free(&self, out: &mut BTreeSet<Var>) {
        match self {
            Formula::Atom(_, ts) => {
                out.extend(ts.iter().filter_map(|t| t.as_var().cloned()));
            }
            Formula::Eq(a, b) => {
                out.extend(a.as_var().cloned());
                out.extend(b.as_var().cloned());
            }
            Formula::Not(f) => f.collect_free(out),
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_free(out);
                b.collect_free(out);
            }
            Formula::Exists(vs, f) | Formula::Forall(vs, f) => {
                let mut inner = f.free_vars();
                for v in vs {
                    inner.remove(v);
                }
                out.extend(inner);
            }
            Formula::Tc { u, v, body, x, y } => {
                let mut params = body.free_vars();
                for w in u.iter().chain(v) {
                    params.remove(w);
                }
                out.extend(params);
                out.extend(x.iter().chain(y).filter_map(|t| t.as_var().cloned()));
            }
            Formula::True | Formula::False => {}
        }
    }

    /// The maximum arity of any `TC` operator in the formula; 0 when the
    /// formula is plain FO. A formula is in `FO[TCn]` iff this is ≤ n
    /// (Section 6.2's fragments).
    pub fn max_tc_arity(&self) -> usize {
        match self {
            Formula::Atom(..) | Formula::Eq(..) | Formula::True | Formula::False => 0,
            Formula::Not(f) => f.max_tc_arity(),
            Formula::And(a, b) | Formula::Or(a, b) => a.max_tc_arity().max(b.max_tc_arity()),
            Formula::Exists(_, f) | Formula::Forall(_, f) => f.max_tc_arity(),
            Formula::Tc { u, body, .. } => u.len().max(body.max_tc_arity()),
        }
    }

    /// Whether the formula lies in the fragment `FO[TCn]`.
    pub fn in_fo_tc(&self, n: usize) -> bool {
        self.max_tc_arity() <= n
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Formula::Atom(..) | Formula::Eq(..) | Formula::True | Formula::False => 1,
            Formula::Not(f) | Formula::Exists(_, f) | Formula::Forall(_, f) => 1 + f.size(),
            Formula::And(a, b) | Formula::Or(a, b) => 1 + a.size() + b.size(),
            Formula::Tc { body, .. } => 1 + body.size(),
        }
    }

    /// Structural well-formedness of `TC` nodes: `|ū|=|v̄|=|x̄|=|ȳ| ≥ 1`
    /// and `ū`, `v̄` pairwise distinct variables.
    pub fn validate(&self) -> Result<(), TcShapeError> {
        match self {
            Formula::Atom(..) | Formula::Eq(..) | Formula::True | Formula::False => Ok(()),
            Formula::Not(f) | Formula::Exists(_, f) | Formula::Forall(_, f) => f.validate(),
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.validate()?;
                b.validate()
            }
            Formula::Tc { u, v, body, x, y } => {
                let k = u.len();
                if k == 0 || v.len() != k || x.len() != k || y.len() != k {
                    return Err(TcShapeError::ArityMismatch {
                        u: u.len(),
                        v: v.len(),
                        x: x.len(),
                        y: y.len(),
                    });
                }
                let mut seen = BTreeSet::new();
                for w in u.iter().chain(v) {
                    if !seen.insert(w.clone()) {
                        return Err(TcShapeError::DuplicateBoundVar(w.clone()));
                    }
                }
                body.validate()
            }
        }
    }
}

/// Structural errors in `TC` operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcShapeError {
    /// The four tuples do not share one positive arity.
    ArityMismatch {
        /// `|ū|`.
        u: usize,
        /// `|v̄|`.
        v: usize,
        /// `|x̄|`.
        x: usize,
        /// `|ȳ|`.
        y: usize,
    },
    /// A variable repeats within `ū, v̄`.
    DuplicateBoundVar(Var),
}

impl fmt::Display for TcShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcShapeError::ArityMismatch { u, v, x, y } => write!(
                f,
                "TC tuple arities must be equal and positive: |u|={u}, |v|={v}, |x|={x}, |y|={y}"
            ),
            TcShapeError::DuplicateBoundVar(w) => {
                write!(f, "variable {w} repeats within the TC-bound tuples")
            }
        }
    }
}

impl std::error::Error for TcShapeError {}

fn fmt_terms(f: &mut fmt::Formatter<'_>, ts: &[Term]) -> fmt::Result {
    for (i, t) in ts.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{t}")?;
    }
    Ok(())
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Atom(r, ts) => {
                write!(f, "{r}(")?;
                fmt_terms(f, ts)?;
                write!(f, ")")
            }
            Formula::Eq(a, b) => write!(f, "{a} = {b}"),
            Formula::Not(g) => write!(f, "¬({g})"),
            Formula::And(a, b) => write!(f, "({a} ∧ {b})"),
            Formula::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Formula::Exists(vs, g) => {
                write!(f, "∃")?;
                for v in vs {
                    write!(f, " {v}")?;
                }
                write!(f, ". ({g})")
            }
            Formula::Forall(vs, g) => {
                write!(f, "∀")?;
                for v in vs {
                    write!(f, " {v}")?;
                }
                write!(f, ". ({g})")
            }
            Formula::Tc { u, v, body, x, y } => {
                write!(f, "TC[")?;
                for w in u {
                    write!(f, "{w} ")?;
                }
                write!(f, "; ")?;
                for w in v {
                    write!(f, "{w} ")?;
                }
                write!(f, "| {body}](")?;
                fmt_terms(f, x)?;
                write!(f, " ; ")?;
                fmt_terms(f, y)?;
                write!(f, ")")
            }
            Formula::True => write!(f, "⊤"),
            Formula::False => write!(f, "⊥"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Var {
        Var::new(s)
    }

    #[test]
    fn free_vars_basic() {
        let f = Formula::atom("E", ["x", "y"]);
        assert_eq!(f.free_vars().len(), 2);
        let g = Formula::exists(["y"], f);
        let fv = g.free_vars();
        assert!(fv.contains(&v("x")) && !fv.contains(&v("y")));
        // Constants contribute nothing.
        let h = Formula::eq(Term::constant(5), Term::var("z"));
        assert_eq!(h.free_vars().len(), 1);
    }

    #[test]
    fn tc_free_vars_are_applied_terms_plus_params() {
        // TC_{u,v}[E(u,v,p)](x, y): free = {x, y, p}.
        let body = Formula::atom("E", ["u", "v", "p"]);
        let f = Formula::tc(
            vec![v("u")],
            vec![v("v")],
            body,
            vec![Term::var("x")],
            vec![Term::var("y")],
        );
        let fv = f.free_vars();
        assert_eq!(
            fv.iter().map(|x| x.name().to_string()).collect::<Vec<_>>(),
            vec!["p", "x", "y"]
        );
    }

    #[test]
    fn forall_binds() {
        let f = Formula::forall(["x"], Formula::atom("R", ["x", "y"]));
        assert_eq!(f.free_vars().len(), 1);
    }

    #[test]
    fn max_tc_arity_and_fragments() {
        let plain = Formula::atom("R", ["x"]);
        assert_eq!(plain.max_tc_arity(), 0);
        assert!(plain.in_fo_tc(0));

        let tc1 = Formula::tc(
            vec![v("u")],
            vec![v("w")],
            Formula::atom("E", ["u", "w"]),
            vec![Term::var("x")],
            vec![Term::var("y")],
        );
        assert_eq!(tc1.max_tc_arity(), 1);
        assert!(tc1.in_fo_tc(1) && !tc1.in_fo_tc(0));

        let tc2 = Formula::tc(
            vec![v("u1"), v("u2")],
            vec![v("v1"), v("v2")],
            Formula::atom("E", ["u1", "u2", "v1", "v2"]),
            vec![Term::var("x1"), Term::var("x2")],
            vec![Term::var("y1"), Term::var("y2")],
        );
        assert_eq!(tc2.max_tc_arity(), 2);
        // Nesting takes the max.
        let nested = tc1.and(tc2);
        assert_eq!(nested.max_tc_arity(), 2);
    }

    #[test]
    fn validate_tc_shapes() {
        let bad = Formula::tc(
            vec![v("u")],
            vec![v("v1"), v("v2")],
            Formula::True,
            vec![Term::var("x")],
            vec![Term::var("y")],
        );
        assert!(matches!(
            bad.validate(),
            Err(TcShapeError::ArityMismatch { .. })
        ));
        let dup = Formula::tc(
            vec![v("u")],
            vec![v("u")],
            Formula::True,
            vec![Term::var("x")],
            vec![Term::var("y")],
        );
        assert!(matches!(
            dup.validate(),
            Err(TcShapeError::DuplicateBoundVar(_))
        ));
        let zero = Formula::tc(vec![], vec![], Formula::True, vec![], vec![]);
        assert!(zero.validate().is_err());
    }

    #[test]
    fn and_all_or_all() {
        assert_eq!(Formula::and_all([]), Formula::True);
        assert_eq!(Formula::or_all([]), Formula::False);
        let f = Formula::and_all([Formula::atom("R", ["x"]), Formula::atom("S", ["x"])]);
        assert_eq!(f.size(), 3);
    }

    #[test]
    fn display_round_trips_shape() {
        let f = Formula::exists(
            ["y"],
            Formula::atom("E", ["x", "y"]).and(Formula::eq(Term::var("y"), Term::constant(3))),
        );
        assert_eq!(f.to_string(), "∃ y. ((E(x, y) ∧ y = 3))");
    }
}
