//! Patterns as plans: a pattern call compiled to a physical plan over
//! the call's six view relations with one rule per Figure 1
//! constructor — Lemma 9.3's τ read relationally. The physical route
//! splices the plan into the surrounding shell, so the optimizer and the
//! storage lowering plan the whole call as
//! `IndexScan`/`Filter`/`HashJoin`/`Project`/`Fixpoint`; over a graph
//! frozen in the store no view graph is built and nothing is copied.
//! The plan is the shell's own physical IR, not a Figure 3 query:
//! repetition needs a fixpoint, and the `Query` algebra stays
//! fixpoint-free.
//!
//! A compiled sub-pattern `ψ` is a plan whose rows are the matches
//! `(s, t, μ)` of `ψ`: `k` columns for each endpoint and a `k`-block per
//! free variable, `k` the identifier arity. Positions may coincide —
//! `(x)` is `N` itself, its endpoints and `x` all reading the same
//! columns — so filtering only ever adds columns. A projection, and with
//! it a duplicate elimination, appears only where something is
//! discarded: a repetition's bindings, a union's alignment, the output,
//! and after each concatenation every variable nothing above it reads —
//! so a chain of hops keeps endpoint pairs, not every walk.
//!
//! A condition's atoms join `L` or `P`, their witnesses riding along as
//! extra columns. Under `∨` or `¬` an atom may fail, so there each
//! variable and label or key the condition reads joins one table total
//! over `N ∪ E` — the label or value, and a flag for whether there is
//! one — and the Boolean is one row test on those columns. The matches
//! appear once in the plan, whatever the condition's shape.
//!
//! Repetition is one operator: `ψ^{n..m}` is a bounded
//! [`PhysPlan::Fixpoint`] over the body's endpoint pairs, whatever the
//! bounds, so the plan's size does not depend on them.
//!
//! Concatenation is associative, so a chain is flattened and joined as
//! a balanced tree — split ⌈n/2⌉ | ⌊n/2⌋, which joins up to three
//! factors left-deep, as a parsed hop is — and every pass over the plan
//! (optimizing, lowering, estimating, executing) recurses as deep as
//! the logarithm of the chain's length. Each operand keeps only the
//! variables it binds that the join or the pattern above reads. So
//! [`compile`] has no size cap: every call compiles.
//!
//! The six leaves are a graph the view conditions hold on — frozen in
//! the store (its relation scans) or validated for this statement (the
//! validated relations as `Values`) — which two rules rely on: every
//! endpoint of a match is a node, so a node atom next to another
//! pattern joins nothing and only names that endpoint; and a property
//! is a function of its element and key, so a property join never
//! multiplies rows.
//!
//! Figure 2's answers on the edges of the language are kept: an
//! ill-formed pattern or an output component at index `≥ k` is its typed
//! error, and an output variable `ψ` does not bind its empty answer.

use pgq_exec::{Batch, PhysPlan};
use pgq_pattern::{
    Condition, Direction, OutputError, OutputItem, OutputPattern, Pattern, RepBound,
};
use pgq_relational::RowCondition;
use pgq_value::{Tuple, Value, Var};
use std::collections::{BTreeMap, BTreeSet};

/// Positions of the six view relations in a call's view array.
const NODES: usize = 0;
const EDGES: usize = 1;
const SRC: usize = 2;
const TGT: usize = 3;
const LABELS: usize = 4;
const PROPS: usize = 5;

/// `ψΩ` over `views` — the six relations of a graph with identifier
/// arity `k` that satisfies the view conditions — as one plan, or
/// Figure 2's typed error.
pub(crate) fn compile(
    out: &OutputPattern,
    views: [PhysPlan; 6],
    k: usize,
) -> Result<PhysPlan, OutputError> {
    out.pattern.validate()?;
    for item in &out.items {
        if let OutputItem::Component(var, index) = item {
            if *index >= k {
                return Err(OutputError::ComponentOutOfRange {
                    var: var.clone(),
                    index: *index,
                    id_arity: k,
                });
            }
        }
    }
    let c = Compiler { views, k };
    let keep = out
        .items
        .iter()
        .map(|item| match item {
            OutputItem::Var(v) | OutputItem::Prop(v, _) | OutputItem::Component(v, _) => v.clone(),
        })
        .collect();
    let matches = c.pattern(&out.pattern, &keep);
    Ok(c.output(matches, &out.items)
        .unwrap_or_else(|| PhysPlan::Values(Batch::empty(out.output_arity(k)))))
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

/// The factors of `p`'s concatenation spine, in order — walked with a
/// stack, so a chain built left-deep is read without recursing.
fn factors(p: &Pattern) -> Vec<&Pattern> {
    let (mut fs, mut stack) = (Vec::new(), vec![p]);
    while let Some(p) = stack.pop() {
        match p {
            Pattern::Concat(a, b) => stack.extend([b.as_ref(), a.as_ref()]),
            p => fs.push(p),
        }
    }
    fs
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

struct Compiler {
    views: [PhysPlan; 6],
    k: usize,
}

impl Compiler {
    fn view(&self, i: usize) -> PhysPlan {
        self.views[i].clone()
    }

    /// The matches of `p`, keeping at least the variables of `keep` —
    /// those something above `p` reads.
    fn pattern(&self, p: &Pattern, keep: &BTreeSet<Var>) -> Matches {
        let k = self.k;
        match p {
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
            Pattern::Concat(..) => self.chain(&factors(p), keep),
            // Validated: both operands bind the same variables.
            Pattern::Union(a, b) => {
                let a = self.pattern(a, keep).aligned(k, keep);
                let b = self.pattern(b, keep).aligned(k, keep);
                Matches {
                    q: a.q.union(b.q),
                    ..a
                }
            }
            Pattern::Filter(p, theta) => {
                let m = self.pattern(p, &with(keep, &theta.vars()));
                let (q, arity) = self.holds(&m, theta);
                Matches { q, arity, ..m }
            }
            Pattern::Repeat(p, n, m) => self.repeat(self.pattern(p, &BTreeSet::new()), *n, *m),
        }
    }

    /// The matches of the concatenation of `fs`, its halves
    /// ⌈n/2⌉ | ⌊n/2⌋ joined (so up to three factors join left-deep).
    fn chain(&self, fs: &[&Pattern], keep: &BTreeSet<Var>) -> Matches {
        let k = self.k;
        let (a, b) = match fs {
            [p] => return self.pattern(p, keep),
            _ => fs.split_at(fs.len().div_ceil(2)),
        };
        match (a, b) {
            // A node atom beside a pattern names that pattern's endpoint.
            (_, [Pattern::Node(v)]) => {
                let m = self.chain(a, &with(keep, v.iter()));
                let tgt = m.tgt.clone();
                bind(m, v, tgt)
            }
            ([Pattern::Node(v)], _) => {
                let m = self.chain(b, &with(keep, v.iter()));
                let src = m.src.clone();
                bind(m, v, src)
            }
            // Shared variables must stay for the join; each operand
            // keeps what it binds of what the join and the pattern above
            // read.
            _ => {
                let vars = |fs: &[&Pattern]| -> BTreeSet<Var> {
                    fs.iter().flat_map(|p| p.free_vars()).collect()
                };
                let (a_vars, b_vars) = (vars(a), vars(b));
                let a_keep = with(keep, &b_vars).intersection(&a_vars).cloned().collect();
                let b_keep = with(keep, &a_vars).intersection(&b_vars).cloned().collect();
                let a = self.chain(a, &a_keep).trimmed(k, &a_keep);
                let b = self.chain(b, &b_keep).trimmed(k, &b_keep);
                concat(a, b).trimmed(k, keep)
            }
        }
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
        match theta {
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
            Condition::Or(..) | Condition::Not(_) => {
                let (q, arity, cond) = self.truth(m, theta);
                (q.filter(cond), arity)
            }
            atom => self
                .atom(m, atom)
                .unwrap_or_else(|| (m.q.clone().filter(RowCondition::True.not()), m.arity)),
        }
    }

    /// [`Compiler::holds`] of an atom, `None` when it reads a variable
    /// `m` does not bind.
    fn atom(&self, m: &Matches, theta: &Condition) -> Option<(PhysPlan, usize)> {
        let join = |q, a, x, probe| Some(self.beside(q, a, m.vars.get(x)?, self.rows(probe)));
        let (q, arity, conds) = match theta {
            Condition::HasLabel(x, label) => join(m.q.clone(), m.arity, x, Probe::Label(label))?,
            Condition::PropCmpConst(x, key, op, c) => {
                let (q, arity, mut conds) = join(m.q.clone(), m.arity, x, Probe::Prop(key))?;
                conds.push(RowCondition::col_cmp_const(arity - 1, *op, c.clone()));
                (q, arity, conds)
            }
            Condition::PropEq(x, kx, y, ky) => {
                let (q, b, conds) = join(m.q.clone(), m.arity, x, Probe::Prop(kx))?;
                let (q, arity, mut conds2) = join(select(q, conds), b, y, Probe::Prop(ky))?;
                conds2.push(RowCondition::col_eq(b - 1, arity - 1));
                (q, arity, conds2)
            }
            _ => unreachable!("not an atom"),
        };
        Some((select(q, conds), arity))
    }

    /// `q`, `a` columns wide, beside `rows` — whose first `k` columns
    /// are an element and whose last is its label or value — the
    /// arity of both, and the conditions that join them at the element
    /// in `xs`.
    fn beside(
        &self,
        q: PhysPlan,
        a: usize,
        xs: &[usize],
        rows: (PhysPlan, usize),
    ) -> (PhysPlan, usize, Vec<RowCondition>) {
        let conds = same(xs, &block(a, self.k));
        (q.product(rows.0), a + rows.1, conds)
    }

    /// The rows of `L` at a label, `ids ++ ℓ`, or of `P` at a key,
    /// `ids ++ key ++ value`, and their arity.
    fn rows(&self, probe: Probe<'_>) -> (PhysPlan, usize) {
        let k = self.k;
        let (rel, at, arity) = match probe {
            Probe::Label(label) => (LABELS, label, k + 1),
            Probe::Prop(key) => (PROPS, key, k + 2),
        };
        let rows = self
            .view(rel)
            .filter(RowCondition::col_eq_const(k, at.clone()));
        (rows, arity)
    }

    /// `m`'s rows, each joined with one value column and one presence
    /// flag per variable and label or key an atom of `θ` reads, and `θ`
    /// as a test on those columns. Each such pair joins a table total
    /// over the elements `N ∪ E`, so no row is lost or copied, and `m`
    /// appears once whatever `θ`'s shape: a disjunction or a negation
    /// costs one join per pair it reads, not a copy of `m` per operand.
    fn truth(&self, m: &Matches, theta: &Condition) -> (PhysPlan, usize, RowCondition) {
        let k = self.k;
        let mut reads = Vec::new();
        probes(theta, &mut reads);
        let (mut q, mut arity, mut at) = (m.q.clone(), m.arity, BTreeMap::new());
        for (x, probe) in reads {
            let Some(xs) = m.vars.get(x).filter(|_| !at.contains_key(&(x, probe))) else {
                continue;
            };
            // `ids ++ value ++ true` where the element has one, and
            // `ids ++ false ++ false` for every other element.
            let (present, w) = self.rows(probe);
            let present = present.project([block(0, k), vec![w - 1]].concat());
            let row = |vs: Vec<Value>| PhysPlan::Values(Batch::singleton(Tuple::new(vs)));
            let elements = self.view(NODES).union(self.view(EDGES)).distinct();
            let absent = elements.diff(present.clone().project(block(0, k)));
            let total = present
                .product(row(vec![Value::Bool(true)]))
                .union(absent.product(row(vec![Value::Bool(false); 2])));
            let (joined, wider, conds) = self.beside(q, arity, xs, (total, k + 2));
            q = select(joined, conds);
            at.insert((x, probe), arity + k);
            arity = wider;
        }
        (q, arity, test(theta, &at))
    }

    /// `Ω` read off the matches: identifier blocks and components are
    /// positions, a property joins `P` (a match without it gives no
    /// row), and a Boolean output projects to no column, `{()}` iff a
    /// match exists.
    fn output(&self, m: Matches, items: &[OutputItem]) -> Option<PhysPlan> {
        let (mut q, mut arity, mut cols) = (m.q, m.arity, Vec::new());
        for item in items {
            match item {
                OutputItem::Var(v) => cols.extend(m.vars.get(v)?),
                OutputItem::Component(v, i) => cols.push(m.vars.get(v)?[*i]),
                OutputItem::Prop(v, key) => {
                    let props = self.rows(Probe::Prop(key));
                    let (joined, wider, conds) = self.beside(q, arity, m.vars.get(v)?, props);
                    q = select(joined, conds);
                    arity = wider;
                    cols.push(arity - 1);
                }
            }
        }
        Some(q.project(cols))
    }
}

/// What an atom reads of its element: whether it has a label, or its
/// value under a key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Probe<'a> {
    Label(&'a Value),
    Prop(&'a Value),
}

/// Every variable and probe the atoms of `θ` read, in order.
fn probes<'a>(theta: &'a Condition, out: &mut Vec<(&'a Var, Probe<'a>)>) {
    match theta {
        Condition::HasLabel(x, label) => out.push((x, Probe::Label(label))),
        Condition::PropCmpConst(x, key, ..) => out.push((x, Probe::Prop(key))),
        Condition::PropEq(x, kx, y, ky) => {
            out.extend([(x, Probe::Prop(kx)), (y, Probe::Prop(ky))]);
        }
        Condition::And(l, r) | Condition::Or(l, r) => {
            probes(l, out);
            probes(r, out);
        }
        Condition::Not(c) => probes(c, out),
    }
}

/// `θ` over the value columns `at` places (each flag one column to the
/// right); an atom on a variable without a column holds nowhere.
fn test(theta: &Condition, at: &BTreeMap<(&Var, Probe<'_>), usize>) -> RowCondition {
    // The value column of `x`'s probe, and the test that `x` has one.
    let has = |x, probe| {
        let v = *at.get(&(x, probe))?;
        Some((v, RowCondition::col_eq_const(v + 1, Value::Bool(true))))
    };
    let atom = match theta {
        Condition::HasLabel(x, label) => has(x, Probe::Label(label)).map(|(_, f)| f),
        Condition::PropCmpConst(x, key, op, c) => has(x, Probe::Prop(key))
            .map(|(v, f)| f.and(RowCondition::col_cmp_const(v, *op, c.clone()))),
        Condition::PropEq(x, kx, y, ky) => has(x, Probe::Prop(kx))
            .zip(has(y, Probe::Prop(ky)))
            .map(|((v, f), (w, g))| f.and(g).and(RowCondition::col_eq(v, w))),
        Condition::And(l, r) => return test(l, at).and(test(r, at)),
        Condition::Or(l, r) => return test(l, at).or(test(r, at)),
        Condition::Not(c) => return test(c, at).not(),
    };
    atom.unwrap_or_else(|| RowCondition::True.not())
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
