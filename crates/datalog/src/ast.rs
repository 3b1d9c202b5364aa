//! Datalog abstract syntax: terms, atoms, literals, rules, programs.
//!
//! The dialect is classical stratified Datalog with negation:
//!
//! ```text
//! rule    :=  head :- lit, …, lit .
//! lit     :=  atom | !atom
//! atom    :=  p(t, …, t)
//! t       :=  variable | constant
//! ```
//!
//! Set semantics throughout; a program's extensional predicates (EDB) are
//! the relations of the input [`pgq_relational::Database`], and its
//! intensional predicates (IDB) are the rule heads. The reserved predicate
//! [`ADOM`] denotes the active domain of the input database and is
//! supplied by the evaluator (it cannot be a rule head or an EDB
//! relation).

use pgq_logic::Term;
use pgq_relational::RelName;
use pgq_value::Var;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The reserved unary predicate interpreted as the active domain of the
/// input database (`adom(D)` in the paper, Section 2.1).
pub const ADOM: &str = "$adom";

/// An atom `p(t̄)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// The predicate name.
    pub pred: RelName,
    /// The argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom from anything convertible.
    pub fn new<N, I, T>(pred: N, terms: I) -> Self
    where
        N: Into<RelName>,
        I: IntoIterator<Item = T>,
        T: Into<Term>,
    {
        Atom {
            pred: pred.into(),
            terms: terms.into_iter().map(Into::into).collect(),
        }
    }

    /// The atom's arity.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// All variables occurring in the atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<&Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A body literal: an atom or its negation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    /// `false` for a negated literal `!p(t̄)`.
    pub positive: bool,
    /// The literal's atom.
    pub atom: Atom,
}

impl Literal {
    /// A positive literal.
    pub fn pos(atom: Atom) -> Self {
        Literal {
            positive: true,
            atom,
        }
    }

    /// A negated literal.
    pub fn neg(atom: Atom) -> Self {
        Literal {
            positive: false,
            atom,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.positive {
            write!(f, "!")?;
        }
        write!(f, "{}", self.atom)
    }
}

/// A rule `head :- body`. An empty body makes the rule a (possibly
/// non-ground) fact; safety then requires the head to be ground.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body literals.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Build a rule.
    pub fn new(head: Atom, body: Vec<Literal>) -> Self {
        Rule { head, body }
    }

    /// A ground fact `p(c̄).`
    pub fn fact(head: Atom) -> Self {
        Rule {
            head,
            body: Vec::new(),
        }
    }

    /// Range-restriction (safety): every variable of the head and of
    /// every negative literal must occur in some positive body literal.
    pub fn check_safety(&self) -> Result<(), ProgramError> {
        let mut bound: BTreeSet<&Var> = BTreeSet::new();
        for lit in &self.body {
            if lit.positive {
                bound.extend(lit.atom.vars());
            }
        }
        for v in self.head.vars() {
            if !bound.contains(v) {
                return Err(ProgramError::UnsafeVariable {
                    rule: self.to_string(),
                    var: v.clone(),
                });
            }
        }
        for lit in &self.body {
            if !lit.positive {
                for v in lit.atom.vars() {
                    if !bound.contains(v) {
                        return Err(ProgramError::UnsafeVariable {
                            rule: self.to_string(),
                            var: v.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, lit) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{lit}")?;
            }
        }
        write!(f, ".")
    }
}

/// Static program errors: safety violations, arity clashes, reserved-name
/// misuse, and (at stratification time) negative recursion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A head or negated-literal variable not bound by a positive body
    /// literal.
    UnsafeVariable {
        /// Rendered rule.
        rule: String,
        /// The offending variable.
        var: Var,
    },
    /// The same predicate used with two different arities.
    ArityClash {
        /// The predicate.
        pred: RelName,
        /// First arity seen.
        first: usize,
        /// Conflicting arity.
        second: usize,
    },
    /// The reserved active-domain predicate used as a rule head.
    ReservedHead {
        /// The predicate (always [`ADOM`]).
        pred: RelName,
    },
    /// A rule head names a relation stored in the input database.
    HeadShadowsEdb {
        /// The predicate.
        pred: RelName,
    },
    /// The program is not stratifiable (recursion through negation).
    NotStratifiable {
        /// A predicate on a negative cycle.
        pred: RelName,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnsafeVariable { rule, var } => {
                write!(f, "unsafe variable {var} in rule `{rule}`")
            }
            ProgramError::ArityClash {
                pred,
                first,
                second,
            } => {
                write!(f, "predicate {pred} used with arities {first} and {second}")
            }
            ProgramError::ReservedHead { pred } => {
                write!(f, "reserved predicate {pred} cannot be a rule head")
            }
            ProgramError::HeadShadowsEdb { pred } => {
                write!(f, "rule head {pred} shadows a database relation")
            }
            ProgramError::NotStratifiable { pred } => {
                write!(f, "recursion through negation at predicate {pred}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A Datalog program: a list of rules plus declared predicates (so that a
/// predicate with no rules — e.g. the translation of `False` — still has
/// a known arity and appears in the output with an empty relation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The program's rules, in source order.
    pub rules: Vec<Rule>,
    /// Extra IDB predicate declarations (name → arity) for predicates
    /// that may have no rules.
    pub declared: BTreeMap<RelName, usize>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Append a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Declare an IDB predicate with an arity (used for rule-less
    /// predicates).
    pub fn declare(&mut self, pred: impl Into<RelName>, arity: usize) {
        self.declared.insert(pred.into(), arity);
    }

    /// The set of intensional predicates: rule heads plus declarations.
    pub fn idb_preds(&self) -> BTreeSet<RelName> {
        let mut s: BTreeSet<RelName> = self.declared.keys().cloned().collect();
        s.extend(self.rules.iter().map(|r| r.head.pred.clone()));
        s
    }

    /// Arity of every predicate mentioned anywhere, or an
    /// [`ProgramError::ArityClash`].
    pub fn arities(&self) -> Result<BTreeMap<RelName, usize>, ProgramError> {
        let mut m: BTreeMap<RelName, usize> = self.declared.clone();
        let mut note = |pred: &RelName, arity: usize| -> Result<(), ProgramError> {
            match m.get(pred) {
                Some(&a) if a != arity => Err(ProgramError::ArityClash {
                    pred: pred.clone(),
                    first: a,
                    second: arity,
                }),
                Some(_) => Ok(()),
                None => {
                    m.insert(pred.clone(), arity);
                    Ok(())
                }
            }
        };
        for r in &self.rules {
            note(&r.head.pred, r.head.arity())?;
            for lit in &r.body {
                note(&lit.atom.pred, lit.atom.arity())?;
            }
        }
        Ok(m)
    }

    /// All static checks that do not need the database: safety per rule,
    /// arity coherence, and the reserved-name restriction.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let adom: RelName = ADOM.into();
        for r in &self.rules {
            if r.head.pred == adom {
                return Err(ProgramError::ReservedHead { pred: adom });
            }
            r.check_safety()?;
        }
        if self.declared.contains_key(&adom) {
            return Err(ProgramError::ReservedHead { pred: adom });
        }
        self.arities()?;
        Ok(())
    }
}

/// Lists one rule per line (declarations as `%` comments), so programs
/// can be logged and diffed in tests.
impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (p, a) in &self.declared {
            writeln!(f, "% decl {p}/{a}")?;
        }
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(x: &str, y: &str) -> Atom {
        Atom::new("edge", [Term::var(x), Term::var(y)])
    }

    #[test]
    fn safety_accepts_bound_heads() {
        let r = Rule::new(
            Atom::new("path", [Term::var("x"), Term::var("y")]),
            vec![Literal::pos(edge("x", "y"))],
        );
        assert!(r.check_safety().is_ok());
    }

    #[test]
    fn safety_rejects_free_head_var() {
        let r = Rule::new(
            Atom::new("p", [Term::var("z")]),
            vec![Literal::pos(edge("x", "y"))],
        );
        assert!(matches!(
            r.check_safety(),
            Err(ProgramError::UnsafeVariable { var, .. }) if var == Var::new("z")
        ));
    }

    #[test]
    fn safety_rejects_negation_only_binding() {
        let r = Rule::new(
            Atom::new("p", [Term::var("x")]),
            vec![Literal::neg(Atom::new("q", [Term::var("x")]))],
        );
        assert!(r.check_safety().is_err());
    }

    #[test]
    fn safety_accepts_ground_fact() {
        let r = Rule::fact(Atom::new("p", [Term::constant(1i64)]));
        assert!(r.check_safety().is_ok());
    }

    #[test]
    fn safety_rejects_nonground_fact() {
        let r = Rule::fact(Atom::new("p", [Term::var("x")]));
        assert!(r.check_safety().is_err());
    }

    #[test]
    fn arity_clash_detected() {
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("p", [Term::var("x")]),
            vec![Literal::pos(Atom::new("e", [Term::var("x")]))],
        ));
        p.push(Rule::new(
            Atom::new("p", [Term::var("x"), Term::var("y")]),
            vec![Literal::pos(edge("x", "y"))],
        ));
        assert!(matches!(p.validate(), Err(ProgramError::ArityClash { .. })));
    }

    #[test]
    fn reserved_head_rejected() {
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new(ADOM, [Term::var("x")]),
            vec![Literal::pos(Atom::new("e", [Term::var("x")]))],
        ));
        assert!(matches!(
            p.validate(),
            Err(ProgramError::ReservedHead { .. })
        ));
    }

    #[test]
    fn display_roundtrips_visually() {
        let r = Rule::new(
            Atom::new("path", [Term::var("x"), Term::var("z")]),
            vec![
                Literal::pos(Atom::new("path", [Term::var("x"), Term::var("y")])),
                Literal::pos(edge("y", "z")),
                Literal::neg(Atom::new("blocked", [Term::var("z")])),
            ],
        );
        assert_eq!(
            r.to_string(),
            "path(x, z) :- path(x, y), edge(y, z), !blocked(z)."
        );
    }

    #[test]
    fn vars_first_occurrence_order() {
        let a = Atom::new(
            "p",
            [
                Term::var("b"),
                Term::constant(3i64),
                Term::var("a"),
                Term::var("b"),
            ],
        );
        let vs: Vec<&str> = a.vars().iter().map(|v| v.name()).collect();
        assert_eq!(vs, ["b", "a"]);
    }
}
