//! Pattern syntax (Figure 1).
//!
//! ```text
//! ψ := (x) | -x-> | <-x- | ψ1 ψ2 | ψ^{n..m} | ψ⟨θ⟩ | ψ1 + ψ2  (fv equal)
//! ```
//! where the variable `x` is optional and `0 ≤ n ≤ m ≤ ∞`.

use crate::condition::Condition;
use pgq_value::Var;
use std::collections::BTreeSet;
use std::fmt;

/// Direction of an edge atom: `-x->` traverses source→target, `<-x-`
/// target→source (Figure 2's two edge clauses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// `-x->`
    Forward,
    /// `<-x-`
    Backward,
}

/// The upper bound of a repetition `ψ^{n..m}`: a finite `m` or `∞`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RepBound {
    /// A finite upper bound.
    Finite(usize),
    /// Unbounded (`m = ∞`).
    Infinite,
}

impl RepBound {
    /// Whether `n ≤ self` holds, i.e. the bound pair is well formed.
    pub fn at_least(&self, n: usize) -> bool {
        match self {
            RepBound::Finite(m) => *m >= n,
            RepBound::Infinite => true,
        }
    }
}

impl fmt::Display for RepBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepBound::Finite(m) => write!(f, "{m}"),
            RepBound::Infinite => write!(f, "∞"),
        }
    }
}

/// A path pattern `ψ` (Figure 1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pattern {
    /// `(x)` — a node atom with an optional variable.
    Node(Option<Var>),
    /// An edge atom with an optional variable and a direction.
    Edge(Option<Var>, Direction),
    /// `ψ1 ψ2` — concatenation.
    Concat(Box<Pattern>, Box<Pattern>),
    /// `ψ^{n..m}` — repetition; `fv(ψ^{n..m}) = ∅` (bindings discarded).
    Repeat(Box<Pattern>, usize, RepBound),
    /// `ψ⟨θ⟩` — filtering by a condition.
    Filter(Box<Pattern>, Condition),
    /// `ψ1 + ψ2` — disjunction, subject to `fv(ψ1) = fv(ψ2)`.
    Union(Box<Pattern>, Box<Pattern>),
}

/// Static well-formedness violations (the side conditions of Figure 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// `ψ1 + ψ2` with `fv(ψ1) ≠ fv(ψ2)`.
    UnionFreeVarMismatch {
        /// `fv(ψ1)`.
        left: BTreeSet<Var>,
        /// `fv(ψ2)`.
        right: BTreeSet<Var>,
    },
    /// `ψ^{n..m}` with `n > m`.
    EmptyRepetitionRange {
        /// Lower bound.
        lo: usize,
        /// Upper bound.
        hi: usize,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::UnionFreeVarMismatch { left, right } => {
                write!(f, "union operands have different free variables: {{")?;
                for v in left {
                    write!(f, "{v} ")?;
                }
                write!(f, "}} vs {{")?;
                for v in right {
                    write!(f, "{v} ")?;
                }
                write!(f, "}}")
            }
            PatternError::EmptyRepetitionRange { lo, hi } => {
                write!(f, "repetition range {lo}..{hi} is empty")
            }
        }
    }
}

impl std::error::Error for PatternError {}

impl Pattern {
    /// `(x)`
    pub fn node(x: impl Into<Var>) -> Self {
        Pattern::Node(Some(x.into()))
    }

    /// `()` — an anonymous node atom.
    pub fn any_node() -> Self {
        Pattern::Node(None)
    }

    /// `-x->`
    pub fn edge(x: impl Into<Var>) -> Self {
        Pattern::Edge(Some(x.into()), Direction::Forward)
    }

    /// `->` — an anonymous forward edge.
    pub fn any_edge() -> Self {
        Pattern::Edge(None, Direction::Forward)
    }

    /// `<-x-`
    pub fn edge_back(x: impl Into<Var>) -> Self {
        Pattern::Edge(Some(x.into()), Direction::Backward)
    }

    /// `<-` — an anonymous backward edge.
    pub fn any_edge_back() -> Self {
        Pattern::Edge(None, Direction::Backward)
    }

    /// Concatenation `self ψ`.
    pub fn then(self, next: Pattern) -> Self {
        Pattern::Concat(Box::new(self), Box::new(next))
    }

    /// Concatenates a sequence of patterns left-to-right. Concatenation
    /// is associative, so the tree is balanced — split ⌈n/2⌉ | ⌊n/2⌋,
    /// which folds up to three parts left-deep — and its depth grows
    /// with the logarithm of the length: every recursive pass over a
    /// long chain stays shallow.
    ///
    /// # Panics
    /// Panics on an empty sequence (there is no empty pattern in Fig 1).
    pub fn seq<I: IntoIterator<Item = Pattern>>(parts: I) -> Self {
        let mut parts: Vec<Pattern> = parts.into_iter().collect();
        assert!(!parts.is_empty(), "Pattern::seq needs at least one part");
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let right = parts.split_off(parts.len().div_ceil(2));
        Pattern::seq(parts).then(Pattern::seq(right))
    }

    /// Repetition `self^{n..m}` with finite `m`.
    pub fn repeat(self, n: usize, m: usize) -> Self {
        Pattern::Repeat(Box::new(self), n, RepBound::Finite(m))
    }

    /// Repetition `self^{n..∞}`.
    pub fn repeat_at_least(self, n: usize) -> Self {
        Pattern::Repeat(Box::new(self), n, RepBound::Infinite)
    }

    /// Kleene star `self* = self^{0..∞}` (T8 of Lemma 9.3).
    pub fn star(self) -> Self {
        self.repeat_at_least(0)
    }

    /// Kleene plus `self^{1..∞}` (the `+` of Example 2.1's SQL listing).
    pub fn plus(self) -> Self {
        self.repeat_at_least(1)
    }

    /// Filter `self⟨θ⟩`.
    pub fn filter(self, cond: Condition) -> Self {
        Pattern::Filter(Box::new(self), cond)
    }

    /// Disjunction `self + other` (checked at [`Pattern::validate`]).
    pub fn or(self, other: Pattern) -> Self {
        Pattern::Union(Box::new(self), Box::new(other))
    }

    /// Free variables per Figure 1. Repetition has none; union takes the
    /// left operand's set (which must equal the right's, see
    /// [`Pattern::validate`]).
    pub fn free_vars(&self) -> BTreeSet<Var> {
        match self {
            Pattern::Node(v) | Pattern::Edge(v, _) => v.iter().cloned().collect(),
            Pattern::Concat(a, b) => {
                let mut s = a.free_vars();
                s.extend(b.free_vars());
                s
            }
            Pattern::Repeat(..) => BTreeSet::new(),
            Pattern::Filter(p, _) => p.free_vars(),
            Pattern::Union(a, _) => a.free_vars(),
        }
    }

    /// Checks the side conditions of Figure 1 throughout the pattern:
    /// union operands must have equal free-variable sets, and repetition
    /// ranges must satisfy `n ≤ m`.
    pub fn validate(&self) -> Result<(), PatternError> {
        match self {
            Pattern::Node(_) | Pattern::Edge(..) => Ok(()),
            Pattern::Concat(a, b) => {
                a.validate()?;
                b.validate()
            }
            Pattern::Repeat(p, n, m) => {
                if !m.at_least(*n) {
                    if let RepBound::Finite(hi) = m {
                        return Err(PatternError::EmptyRepetitionRange { lo: *n, hi: *hi });
                    }
                }
                p.validate()
            }
            Pattern::Filter(p, _) => p.validate(),
            Pattern::Union(a, b) => {
                a.validate()?;
                b.validate()?;
                let (fa, fb) = (a.free_vars(), b.free_vars());
                if fa != fb {
                    return Err(PatternError::UnionFreeVarMismatch {
                        left: fa,
                        right: fb,
                    });
                }
                Ok(())
            }
        }
    }

    /// Number of AST nodes (used by generators and size-bounded search).
    pub fn size(&self) -> usize {
        match self {
            Pattern::Node(_) | Pattern::Edge(..) => 1,
            Pattern::Concat(a, b) | Pattern::Union(a, b) => 1 + a.size() + b.size(),
            Pattern::Repeat(p, _, _) | Pattern::Filter(p, _) => 1 + p.size(),
        }
    }

    /// Whether the pattern contains an unbounded repetition — the source
    /// of transitive closure in the FO\[TC\] translation (Lemma 9.3 T8).
    pub fn has_unbounded_repetition(&self) -> bool {
        match self {
            Pattern::Node(_) | Pattern::Edge(..) => false,
            Pattern::Concat(a, b) | Pattern::Union(a, b) => {
                a.has_unbounded_repetition() || b.has_unbounded_repetition()
            }
            Pattern::Repeat(p, _, m) => *m == RepBound::Infinite || p.has_unbounded_repetition(),
            Pattern::Filter(p, _) => p.has_unbounded_repetition(),
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Node(Some(x)) => write!(f, "({x})"),
            Pattern::Node(None) => write!(f, "()"),
            Pattern::Edge(Some(x), Direction::Forward) => write!(f, "-[{x}]->"),
            Pattern::Edge(None, Direction::Forward) => write!(f, "->"),
            Pattern::Edge(Some(x), Direction::Backward) => write!(f, "<-[{x}]-"),
            Pattern::Edge(None, Direction::Backward) => write!(f, "<-"),
            Pattern::Concat(a, b) => write!(f, "{a} {b}"),
            Pattern::Repeat(p, n, m) => write!(f, "({p}){{{n},{m}}}"),
            Pattern::Filter(p, c) => write!(f, "{p}⟨{c}⟩"),
            Pattern::Union(a, b) => write!(f, "({a} + {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;

    #[test]
    fn free_vars_follow_figure_1() {
        let p = Pattern::node("x")
            .then(Pattern::edge("t"))
            .then(Pattern::node("y"));
        let fv: Vec<String> = p.free_vars().iter().map(|v| v.to_string()).collect();
        assert_eq!(fv, vec!["t", "x", "y"]);

        // Repetition hides everything.
        let r = p.clone().repeat(1, 3);
        assert!(r.free_vars().is_empty());

        // Filter preserves.
        let f = p.filter(Condition::has_label("x", "Account"));
        assert_eq!(f.free_vars().len(), 3);

        // Anonymous atoms bind nothing.
        assert!(Pattern::any_node().free_vars().is_empty());
        assert!(Pattern::any_edge_back().free_vars().is_empty());
    }

    #[test]
    fn union_requires_equal_fv() {
        let ok = Pattern::node("x").or(Pattern::node("x"));
        assert!(ok.validate().is_ok());
        let bad = Pattern::node("x").or(Pattern::node("y"));
        assert!(matches!(
            bad.validate(),
            Err(PatternError::UnionFreeVarMismatch { .. })
        ));
        // Union fv = left operand's fv.
        assert_eq!(ok.free_vars().len(), 1);
    }

    #[test]
    fn repetition_range_validation() {
        let p = Pattern::any_edge().repeat(3, 1);
        assert!(matches!(
            p.validate(),
            Err(PatternError::EmptyRepetitionRange { lo: 3, hi: 1 })
        ));
        assert!(Pattern::any_edge().repeat(2, 2).validate().is_ok());
        assert!(Pattern::any_edge().star().validate().is_ok());
        // Validation recurses into nested structure.
        let nested = Pattern::any_node().then(Pattern::any_edge().repeat(5, 2));
        assert!(nested.validate().is_err());
    }

    #[test]
    fn unbounded_detection() {
        assert!(Pattern::any_edge().star().has_unbounded_repetition());
        assert!(Pattern::any_edge().plus().has_unbounded_repetition());
        assert!(!Pattern::any_edge().repeat(0, 9).has_unbounded_repetition());
        let nested = Pattern::any_node()
            .then(Pattern::any_edge().star())
            .or(Pattern::any_node().then(Pattern::any_node()));
        assert!(nested.has_unbounded_repetition());
    }

    #[test]
    fn size_counts_nodes() {
        let p = Pattern::node("x")
            .then(Pattern::edge("t"))
            .then(Pattern::node("y"));
        assert_eq!(p.size(), 5);
        assert_eq!(p.repeat(0, 1).size(), 6);
    }

    #[test]
    fn display_shapes() {
        let p = Pattern::node("x")
            .then(Pattern::edge("t").plus())
            .then(Pattern::node("y"));
        assert_eq!(p.to_string(), "(x) (-[t]->){1,∞} (y)");
    }

    #[test]
    fn seq_builder() {
        let p = Pattern::seq([Pattern::node("x"), Pattern::any_edge(), Pattern::node("y")]);
        assert_eq!(p.size(), 5);
        // Up to three parts fold left-deep; longer chains balance.
        let left_deep = Pattern::node("x")
            .then(Pattern::any_edge())
            .then(Pattern::node("y"));
        assert_eq!(p, left_deep);
        let hop = || [Pattern::any_edge(), Pattern::node("v")];
        let five = Pattern::seq([Pattern::node("x")].into_iter().chain(hop()).chain(hop()));
        let first = Pattern::node("x")
            .then(Pattern::any_edge())
            .then(Pattern::node("v"));
        assert_eq!(
            five,
            first.then(Pattern::any_edge().then(Pattern::node("v")))
        );
        assert_eq!(five.to_string(), "(x) -> (v) -> (v)");
        fn depth(p: &Pattern) -> usize {
            match p {
                Pattern::Concat(a, b) => 1 + depth(a).max(depth(b)),
                _ => 0,
            }
        }
        let long = Pattern::seq((0..4096).flat_map(|_| hop()));
        assert!(depth(&long) <= 13, "{}", depth(&long));
        assert_eq!(long.size(), 2 * 8192 - 1);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn seq_rejects_empty() {
        Pattern::seq([]);
    }
}
