//! Patterns as plans: a pattern call over a graph frozen in the store,
//! compiled to a physical plan over the call's six view relations with
//! one rule per Figure 1 constructor — Lemma 9.3's τ read relationally.
//! The physical route splices the plan into the surrounding shell, so
//! the optimizer and the storage lowering plan the whole call as
//! `IndexScan`/`Filter`/`HashJoin`/`Project`/`Fixpoint` over the store:
//! no view graph is built and nothing is copied. The plan is the
//! shell's own physical IR, not a Figure 3 query: repetition needs a
//! fixpoint, and the `Query` algebra stays fixpoint-free.
//!
//! A compiled sub-pattern `ψ` is a plan whose rows are the matches
//! `(s, t, μ)` of `ψ`: `k` columns for each endpoint and a `k`-block per
//! free variable, `k` the identifier arity. Positions may coincide —
//! `(x)` is `N` itself, its endpoints and `x` all reading the same
//! columns — so filtering only ever adds columns. A projection, and with
//! it a duplicate elimination, appears only where something is
//! discarded: a repetition's bindings, a union's alignment, the
//! witnesses of a negated or disjoined condition, the output, and after
//! each concatenation every variable nothing above it reads — so a chain
//! of hops keeps endpoint pairs, not every walk.
//!
//! Repetition is one operator: `ψ^{n..m}` is a bounded
//! [`PhysPlan::Fixpoint`] over the body's endpoint pairs, whatever the
//! bounds, so the plan's size does not depend on them.
//!
//! The view was validated when it was frozen, which two rules rely on:
//! every endpoint of a match is a node, so a node atom next to another
//! pattern joins nothing and only names that endpoint; and a property is
//! a function of its element and key, so a property join never
//! multiplies rows.
//!
//! Not compiled ([`compile`] answers `None`, and the call keeps the
//! other routes): a call whose plan would scan more than [`MAX_SCANS`]
//! relations, an output component at index `≥ k` or of a variable `ψ`
//! does not bind (Figure 2's typed error and empty answer), and
//! ill-formed patterns.

use pgq_exec::PhysPlan;
use pgq_pattern::{Condition, Direction, OutputItem, OutputPattern, Pattern, RepBound};
use pgq_relational::{RelName, RowCondition};
use pgq_value::Var;
use std::collections::{BTreeMap, BTreeSet};

/// Positions of the six view relations in a call's view array.
const NODES: usize = 0;
const SRC: usize = 2;
const TGT: usize = 3;
const LABELS: usize = 4;
const PROPS: usize = 5;

/// The most relation scans a compiled call may hold ([`scans`] plus one
/// per property output). The plan grows with every copy a disjunction
/// or a negation takes, and every pass over it — optimizing, lowering,
/// estimating, executing — recurses once per level, on a server thread
/// with a 2 MiB stack. The cap bounds that depth; past it the NFA route
/// answers.
const MAX_SCANS: usize = 32;

/// `ψΩ` over `views` — a graph frozen from them with identifier arity
/// `k` — as one query, or `None` when the call does not compile.
pub(crate) fn compile(out: &OutputPattern, views: &[RelName; 6], k: usize) -> Option<PhysPlan> {
    out.pattern.validate().ok()?;
    let props = out
        .items
        .iter()
        .filter(|item| matches!(item, OutputItem::Prop(..)));
    if scans(&out.pattern).saturating_add(props.count()) > MAX_SCANS {
        return None;
    }
    let c = Compiler { views, k };
    let keep = out
        .items
        .iter()
        .map(|item| match item {
            OutputItem::Var(v) | OutputItem::Prop(v, _) | OutputItem::Component(v, _) => v.clone(),
        })
        .collect();
    let matches = c.pattern(&out.pattern, &keep)?;
    c.output(matches, &out.items)
}

/// The relation scans `ψ`'s compiled plan holds, rule by rule (node
/// atoms beside a pattern counted as if they scanned `N`); saturating.
fn scans(p: &Pattern) -> usize {
    match p {
        Pattern::Node(_) => 1,
        Pattern::Edge(..) => 2,
        Pattern::Concat(a, b) | Pattern::Union(a, b) => scans(a).saturating_add(scans(b)),
        Pattern::Filter(p, theta) => filtered(scans(p), theta),
        // The body once, and `ε` scans `N`.
        Pattern::Repeat(p, ..) => scans(p).saturating_add(1),
    }
}

/// The scans of `σθ` over a plan of `s` scans: an atom joins one or two
/// view relations, `∨` and `¬` copy the plan.
fn filtered(s: usize, theta: &Condition) -> usize {
    match theta {
        Condition::HasLabel(..) | Condition::PropCmpConst(..) => s.saturating_add(1),
        Condition::PropEq(..) => s.saturating_add(2),
        Condition::And(l, r) => filtered(filtered(s, l), r),
        Condition::Or(l, r) => filtered(s, l).saturating_add(filtered(s, r)),
        Condition::Not(c) => s.saturating_add(filtered(s, c)),
    }
}

/// The matches of a sub-pattern: the plan and where each endpoint and
/// each free variable's identifier sit in its rows.
#[derive(Clone)]
struct Matches {
    q: PhysPlan,
    arity: usize,
    src: Vec<usize>,
    tgt: Vec<usize>,
    vars: BTreeMap<Var, Vec<usize>>,
}

impl Matches {
    /// Rows `src ++ tgt ++ …` with the endpoints at `0..2k` and no
    /// bindings yet.
    fn pairs(q: PhysPlan, k: usize) -> Matches {
        Matches {
            q,
            arity: 2 * k,
            src: block(0, k),
            tgt: block(k, k),
            vars: BTreeMap::new(),
        }
    }

    /// The same matches in the canonical layout `src ++ tgt ++` one
    /// block per variable of `keep` in name order — what a union's
    /// operands agree on.
    fn aligned(self, k: usize, keep: &BTreeSet<Var>) -> Matches {
        let mut cols = [self.src, self.tgt].concat();
        let mut vars = BTreeMap::new();
        let kept = self.vars.into_iter().filter(|(v, _)| keep.contains(v));
        for (i, (v, pos)) in kept.enumerate() {
            cols.extend(pos);
            vars.insert(v, block((2 + i) * k, k));
        }
        Matches {
            arity: cols.len(),
            vars,
            ..Matches::pairs(self.q.project(cols), k)
        }
    }

    /// The matches without the variables outside `keep`, and without
    /// the columns only they and the atoms' witnesses read; unchanged
    /// when nothing would go.
    fn trimmed(self, k: usize, keep: &BTreeSet<Var>) -> Matches {
        let kept = self.vars.keys().filter(|v| keep.contains(*v)).count();
        if 2 * k + kept * k == self.arity {
            return self;
        }
        self.aligned(k, keep)
    }
}

/// `keep` and `more`.
fn with<'a>(keep: &BTreeSet<Var>, more: impl IntoIterator<Item = &'a Var>) -> BTreeSet<Var> {
    keep.iter()
        .cloned()
        .chain(more.into_iter().cloned())
        .collect()
}

/// `start..start + k` as positions.
fn block(start: usize, k: usize) -> Vec<usize> {
    (start..start + k).collect()
}

/// Component-wise equality of two identifier blocks; coinciding
/// positions need no test.
fn same(a: &[usize], b: &[usize]) -> Vec<RowCondition> {
    a.iter()
        .zip(b)
        .filter(|(i, j)| i != j)
        .map(|(&i, &j)| RowCondition::col_eq(i, j))
        .collect()
}

/// `σ_{∧ conds}(q)`, or `q` itself when there is nothing to test.
fn select(q: PhysPlan, conds: Vec<RowCondition>) -> PhysPlan {
    if conds.is_empty() {
        q
    } else {
        q.filter(RowCondition::and_all(conds))
    }
}

struct Compiler<'v> {
    views: &'v [RelName; 6],
    k: usize,
}

impl Compiler<'_> {
    fn view(&self, i: usize) -> PhysPlan {
        PhysPlan::Scan(self.views[i].clone())
    }

    /// The matches of `p`, keeping at least the variables of `keep` —
    /// those something above `p` reads.
    fn pattern(&self, p: &Pattern, keep: &BTreeSet<Var>) -> Option<Matches> {
        let k = self.k;
        Some(match p {
            // ⟦(x)⟧: `N`, both endpoints and `x` on its columns.
            Pattern::Node(v) => {
                let ids = block(0, k);
                Matches {
                    q: self.view(NODES),
                    arity: k,
                    vars: v.iter().map(|v| (v.clone(), ids.clone())).collect(),
                    src: ids.clone(),
                    tgt: ids,
                }
            }
            // ⟦-x->⟧: `S ⋈_e T`, rows `e ++ s ++ e ++ t`; `<-x-` swaps
            // the endpoints.
            Pattern::Edge(v, dir) => {
                let q = self.view(SRC).product(self.view(TGT));
                let (s, t) = (block(k, k), block(3 * k, k));
                let (src, tgt) = match dir {
                    Direction::Forward => (s, t),
                    Direction::Backward => (t, s),
                };
                Matches {
                    q: select(q, same(&block(0, k), &block(2 * k, k))),
                    arity: 4 * k,
                    src,
                    tgt,
                    vars: v.iter().map(|v| (v.clone(), block(0, k))).collect(),
                }
            }
            // A node atom beside a pattern names that pattern's endpoint.
            Pattern::Concat(a, b) => match (a.as_ref(), b.as_ref()) {
                (_, Pattern::Node(v)) => {
                    let m = self.pattern(a, &with(keep, v.iter()))?;
                    let tgt = m.tgt.clone();
                    bind(m, v, tgt)
                }
                (Pattern::Node(v), _) => {
                    let m = self.pattern(b, &with(keep, v.iter()))?;
                    let src = m.src.clone();
                    bind(m, v, src)
                }
                // Shared variables must stay for the join; each operand
                // is cut to what the join and the pattern above read.
                _ => {
                    let a_keep = with(keep, &b.free_vars());
                    let b_keep = with(keep, &a.free_vars());
                    let a = self.pattern(a, &a_keep)?.trimmed(k, &a_keep);
                    let b = self.pattern(b, &b_keep)?.trimmed(k, &b_keep);
                    concat(a, b).trimmed(k, keep)
                }
            },
            // Validated: both operands bind the same variables.
            Pattern::Union(a, b) => {
                let a = self.pattern(a, keep)?.aligned(k, keep);
                let b = self.pattern(b, keep)?.aligned(k, keep);
                Matches {
                    q: a.q.union(b.q),
                    ..a
                }
            }
            Pattern::Filter(p, theta) => {
                let m = self.pattern(p, &with(keep, &theta.vars()))?;
                let (q, arity) = self.holds(&m, theta);
                Matches { q, arity, ..m }
            }
            Pattern::Repeat(p, n, m) => self.repeat(self.pattern(p, &BTreeSet::new())?, *n, *m),
        })
    }

    /// `ψ^{n..m}` over the body's endpoint pairs `R` (repetition
    /// discards bindings): the rows `⋃_{i=n}^{m} ε ∘ Rⁱ`, `ε = {(v, v) :
    /// v ∈ N}`, as one fixpoint that skips `n` compositions and then
    /// runs at most `m − n` rounds — `R` is planned once, whatever the
    /// bounds. Each composition joins `a.tgt = b.src`.
    fn repeat(&self, body: Matches, n: usize, m: RepBound) -> Matches {
        let k = self.k;
        let eps = self
            .view(NODES)
            .project([block(0, k), block(0, k)].concat());
        let fixpoint = PhysPlan::Fixpoint {
            base: Box::new(eps),
            step: Box::new(ends(body)),
            join: (0..k).map(|i| (k + i, i)).collect(),
            project: [block(0, k), block(3 * k, k)].concat(),
            skip: n,
            rounds: match m {
                RepBound::Finite(m) => Some(m - n),
                RepBound::Infinite => None,
            },
        };
        Matches::pairs(fixpoint, k)
    }

    /// The rows of `m` satisfying `θ` (Section 2.3.1), with `m`'s
    /// columns as a prefix, and their arity. Atoms join the label and
    /// property relations, so their witnesses ride along as extra
    /// columns; an atom on a variable `m` does not bind holds nowhere.
    fn holds(&self, m: &Matches, theta: &Condition) -> (PhysPlan, usize) {
        let (k, a) = (self.k, m.arity);
        let nowhere = || (m.q.clone().filter(RowCondition::True.not()), a);
        match theta {
            Condition::HasLabel(x, label) => {
                let Some(xs) = m.vars.get(x) else {
                    return nowhere();
                };
                let mut conds = same(xs, &block(a, k));
                conds.push(RowCondition::col_eq_const(a + k, label.clone()));
                (
                    select(m.q.clone().product(self.view(LABELS)), conds),
                    a + k + 1,
                )
            }
            Condition::PropCmpConst(x, key, op, c) => {
                let Some(xs) = m.vars.get(x) else {
                    return nowhere();
                };
                let mut conds = self.prop(xs, a, key);
                conds.push(RowCondition::col_cmp_const(a + k + 1, *op, c.clone()));
                (
                    select(m.q.clone().product(self.view(PROPS)), conds),
                    a + k + 2,
                )
            }
            Condition::PropEq(x, kx, y, ky) => {
                let (Some(xs), Some(ys)) = (m.vars.get(x), m.vars.get(y)) else {
                    return nowhere();
                };
                let b = a + k + 2;
                let mut conds = self.prop(xs, a, kx);
                conds.extend(self.prop(ys, b, ky));
                conds.push(RowCondition::col_eq(a + k + 1, b + k + 1));
                let q = m.q.clone().product(self.view(PROPS));
                (select(q.product(self.view(PROPS)), conds), b + k + 2)
            }
            Condition::And(l, r) => {
                let (q, arity) = self.holds(m, l);
                self.holds(
                    &Matches {
                        q,
                        arity,
                        ..m.clone()
                    },
                    r,
                )
            }
            Condition::Or(l, r) => (self.only(m, l).union(self.only(m, r)), a),
            Condition::Not(c) => (m.q.clone().diff(self.only(m, c)), a),
        }
    }

    /// [`Compiler::holds`] without the witness columns.
    fn only(&self, m: &Matches, theta: &Condition) -> PhysPlan {
        let (q, arity) = self.holds(m, theta);
        if arity == m.arity {
            q
        } else {
            q.project(block(0, m.arity))
        }
    }

    /// The conditions joining a `P` row at `at` to the element at `ids`
    /// under `key`; its value then sits at `at + k + 1`.
    fn prop(&self, ids: &[usize], at: usize, key: &pgq_value::Key) -> Vec<RowCondition> {
        let mut conds = same(ids, &block(at, self.k));
        conds.push(RowCondition::col_eq_const(at + self.k, key.clone()));
        conds
    }

    /// `Ω` read off the matches: identifier blocks and components are
    /// positions, a property joins `P` (a match without it gives no
    /// row), and a Boolean output projects to no column, `{()}` iff a
    /// match exists.
    fn output(&self, m: Matches, items: &[OutputItem]) -> Option<PhysPlan> {
        let k = self.k;
        let (mut q, mut arity, mut cols) = (m.q, m.arity, Vec::new());
        for item in items {
            match item {
                OutputItem::Var(v) => cols.extend(m.vars.get(v)?),
                OutputItem::Component(v, i) if *i < k => cols.push(m.vars.get(v)?[*i]),
                OutputItem::Component(..) => return None,
                OutputItem::Prop(v, key) => {
                    let conds = self.prop(m.vars.get(v)?, arity, key);
                    q = select(q.product(self.view(PROPS)), conds);
                    cols.push(arity + k + 1);
                    arity += k + 2;
                }
            }
        }
        Some(q.project(cols))
    }
}

/// The endpoint pairs `src ++ tgt` of the matches, projected only when
/// the rows hold anything else.
fn ends(m: Matches) -> PhysPlan {
    let cols = [m.src, m.tgt].concat();
    if cols.iter().copied().eq(0..m.arity) {
        m.q
    } else {
        m.q.project(cols)
    }
}

/// `m` with its endpoint at `ends` named `v`: a fresh variable binds
/// there, a bound one must agree.
fn bind(mut m: Matches, v: &Option<Var>, ends: Vec<usize>) -> Matches {
    let Some(v) = v else {
        return m;
    };
    match m.vars.get(v) {
        Some(pos) => {
            let conds = same(pos, &ends);
            m.q = select(m.q, conds);
        }
        None => {
            m.vars.insert(v.clone(), ends);
        }
    }
    m
}

/// `⟦ψ1 ψ2⟧`: `tgt1 = src2` and every shared variable's blocks equal.
fn concat(a: Matches, b: Matches) -> Matches {
    let off = a.arity;
    let shift = |pos: &[usize]| pos.iter().map(|p| p + off).collect::<Vec<_>>();
    let mut conds = same(&a.tgt, &shift(&b.src));
    let mut vars = a.vars;
    for (v, pos) in &b.vars {
        let pos = shift(pos);
        match vars.get(v) {
            Some(mine) => conds.extend(same(mine, &pos)),
            None => {
                vars.insert(v.clone(), pos);
            }
        }
    }
    Matches {
        q: select(a.q.product(b.q), conds),
        arity: off + b.arity,
        src: a.src,
        tgt: shift(&b.tgt),
        vars,
    }
}
