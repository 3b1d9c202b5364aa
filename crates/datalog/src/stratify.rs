//! Stratification and recursion classification.
//!
//! A program is *stratifiable* when no predicate depends negatively on
//! itself (directly or transitively). Stratification assigns each IDB
//! predicate a stratum number such that positive dependencies stay within
//! or below a stratum and negative dependencies point strictly below.
//!
//! The module also classifies each program's recursion as none / linear /
//! non-linear. *Linear* means every rule has at most one positive body
//! literal mutually recursive with its head — the fragment SQL's
//! `WITH RECURSIVE` implements and the paper's Section 4.1 invokes as the
//! NL benchmark ("Datalog's capabilities on CRPQs, as well as SQL's
//! WITH RECURSIVE, which supports linear recursion").

use crate::ast::{Program, ProgramError};
use pgq_relational::RelName;
use std::collections::{BTreeMap, BTreeSet};

/// How a program recurses (computed against mutual-recursion classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recursion {
    /// No rule has a body literal mutually recursive with its head.
    None,
    /// Every rule has at most one mutually recursive positive body
    /// literal (the `WITH RECURSIVE` fragment).
    Linear,
    /// Some rule has two or more mutually recursive positive body
    /// literals (e.g. the doubling formulation of transitive closure).
    NonLinear,
}

/// The result of stratifying a program: the per-predicate stratum map and
/// the rule evaluation order it induces.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// Stratum of every IDB predicate (0-based).
    pub stratum: BTreeMap<RelName, usize>,
    /// Rule indices grouped by stratum, in evaluation order.
    pub layers: Vec<Vec<usize>>,
}

impl Stratification {
    /// Number of strata.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// Compute a stratification, or report recursion through negation.
///
/// Iterative relaxation: `stratum(head) ≥ stratum(p)` for positive body
/// predicates `p`, and `stratum(head) ≥ stratum(p) + 1` for negated ones;
/// EDB predicates (anything that is not a rule head or declaration) live
/// at stratum 0 implicitly. If a stratum value exceeds the number of IDB
/// predicates the constraints are cyclic through a negation.
pub fn stratify(program: &Program) -> Result<Stratification, ProgramError> {
    let idb = program.idb_preds();
    let mut stratum: BTreeMap<RelName, usize> = idb.iter().map(|p| (p.clone(), 0)).collect();
    let bound = idb.len();
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let mut need = 0usize;
            for lit in &rule.body {
                if let Some(&s) = stratum.get(&lit.atom.pred) {
                    let floor = if lit.positive { s } else { s + 1 };
                    need = need.max(floor);
                }
            }
            let cur = stratum
                .get_mut(&rule.head.pred)
                .expect("head is an IDB predicate");
            if need > *cur {
                if need > bound {
                    return Err(ProgramError::NotStratifiable {
                        pred: rule.head.pred.clone(),
                    });
                }
                *cur = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let depth = stratum.values().copied().max().map_or(0, |m| m + 1);
    let mut layers = vec![Vec::new(); depth.max(if program.rules.is_empty() { 0 } else { 1 })];
    for (i, rule) in program.rules.iter().enumerate() {
        layers[stratum[&rule.head.pred]].push(i);
    }
    Ok(Stratification { stratum, layers })
}

/// Strongly connected components of the predicate dependency graph
/// (edges of either polarity), as `pred → component id`. Components are
/// the program's mutual-recursion classes.
pub fn recursion_components(program: &Program) -> BTreeMap<RelName, usize> {
    // Tarjan's algorithm, iterative to avoid recursion limits on the
    // deep chain programs the FO[TC] bridge emits.
    let idb = program.idb_preds();
    let preds: Vec<RelName> = idb.iter().cloned().collect();
    let index_of: BTreeMap<&RelName, usize> =
        preds.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); preds.len()];
    for rule in &program.rules {
        let h = index_of[&rule.head.pred];
        for lit in &rule.body {
            if let Some(&b) = index_of.get(&lit.atom.pred) {
                // Dependency: head depends on body predicate.
                adj[h].insert(b);
            }
        }
    }

    let n = preds.len();
    let mut comp = vec![usize::MAX; n];
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    // Explicit DFS machine: (node, iterator position over its succs).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        call.push((start, adj[start].iter().copied().collect(), 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some((v, succs, pos)) = call.last_mut() {
            if *pos < succs.len() {
                let w = succs[*pos];
                *pos += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    let ws: Vec<usize> = adj[w].iter().copied().collect();
                    call.push((w, ws, 0));
                } else if on_stack[w] {
                    let lv = low[w].min(low[*v]);
                    low[*v] = lv;
                }
            } else {
                let v = *v;
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                call.pop();
                if let Some((parent, _, _)) = call.last() {
                    let lv = low[*parent].min(low[v]);
                    low[*parent] = lv;
                }
            }
        }
    }

    preds
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, comp[i]))
        .collect()
}

/// Classify the program's recursion (see [`Recursion`]).
pub fn classify_recursion(program: &Program) -> Recursion {
    let comp = recursion_components(program);
    let mut any_recursive = false;
    for rule in &program.rules {
        let head_comp = comp[&rule.head.pred];
        let mut recursive_positives = 0usize;
        let mut self_loop = false;
        for lit in &rule.body {
            if let Some(&c) = comp.get(&lit.atom.pred) {
                if c == head_comp && lit.positive {
                    // Same SCC counts as mutual recursion only if the SCC
                    // is non-trivial or the literal is the head predicate
                    // itself (a direct self-loop).
                    if lit.atom.pred == rule.head.pred {
                        recursive_positives += 1;
                        self_loop = true;
                    } else if scc_is_nontrivial(&comp, head_comp, program) {
                        recursive_positives += 1;
                    }
                }
            }
        }
        let _ = self_loop;
        if recursive_positives >= 2 {
            return Recursion::NonLinear;
        }
        if recursive_positives == 1 {
            any_recursive = true;
        }
    }
    if any_recursive {
        Recursion::Linear
    } else {
        Recursion::None
    }
}

/// Whether the SCC `id` contains more than one predicate (used to decide
/// if same-component non-head literals witness mutual recursion).
fn scc_is_nontrivial(comp: &BTreeMap<RelName, usize>, id: usize, _program: &Program) -> bool {
    comp.values().filter(|&&c| c == id).count() > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal, Rule};
    use pgq_logic::Term;

    fn v(s: &str) -> Term {
        Term::var(s)
    }

    /// path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
    fn tc_program() -> Program {
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("path", [v("x"), v("y")]),
            vec![Literal::pos(Atom::new("edge", [v("x"), v("y")]))],
        ));
        p.push(Rule::new(
            Atom::new("path", [v("x"), v("z")]),
            vec![
                Literal::pos(Atom::new("path", [v("x"), v("y")])),
                Literal::pos(Atom::new("edge", [v("y"), v("z")])),
            ],
        ));
        p
    }

    #[test]
    fn tc_is_single_stratum_linear() {
        let p = tc_program();
        let s = stratify(&p).unwrap();
        assert_eq!(s.depth(), 1);
        assert_eq!(classify_recursion(&p), Recursion::Linear);
    }

    #[test]
    fn doubling_tc_is_nonlinear() {
        // path(x,z) :- path(x,y), path(y,z).
        let mut p = tc_program();
        p.push(Rule::new(
            Atom::new("path", [v("x"), v("z")]),
            vec![
                Literal::pos(Atom::new("path", [v("x"), v("y")])),
                Literal::pos(Atom::new("path", [v("y"), v("z")])),
            ],
        ));
        assert_eq!(classify_recursion(&p), Recursion::NonLinear);
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        // unreach(x,y) :- $adom-style guards replaced by node(_).
        let mut p = tc_program();
        p.push(Rule::new(
            Atom::new("unreach", [v("x"), v("y")]),
            vec![
                Literal::pos(Atom::new("node", [v("x")])),
                Literal::pos(Atom::new("node", [v("y")])),
                Literal::neg(Atom::new("path", [v("x"), v("y")])),
            ],
        ));
        let s = stratify(&p).unwrap();
        assert_eq!(s.depth(), 2);
        assert_eq!(s.stratum[&RelName::new("path")], 0);
        assert_eq!(s.stratum[&RelName::new("unreach")], 1);
    }

    #[test]
    fn negative_cycle_rejected() {
        // p(x) :- node(x), !q(x).   q(x) :- node(x), !p(x).
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("p", [v("x")]),
            vec![
                Literal::pos(Atom::new("node", [v("x")])),
                Literal::neg(Atom::new("q", [v("x")])),
            ],
        ));
        p.push(Rule::new(
            Atom::new("q", [v("x")]),
            vec![
                Literal::pos(Atom::new("node", [v("x")])),
                Literal::neg(Atom::new("p", [v("x")])),
            ],
        ));
        assert!(matches!(
            stratify(&p),
            Err(ProgramError::NotStratifiable { .. })
        ));
    }

    #[test]
    fn mutual_recursion_shares_component() {
        // even(x) :- zero(x).  even(y) :- succ(x,y), odd(x).
        // odd(y) :- succ(x,y), even(x).
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("even", [v("x")]),
            vec![Literal::pos(Atom::new("zero", [v("x")]))],
        ));
        p.push(Rule::new(
            Atom::new("even", [v("y")]),
            vec![
                Literal::pos(Atom::new("succ", [v("x"), v("y")])),
                Literal::pos(Atom::new("odd", [v("x")])),
            ],
        ));
        p.push(Rule::new(
            Atom::new("odd", [v("y")]),
            vec![
                Literal::pos(Atom::new("succ", [v("x"), v("y")])),
                Literal::pos(Atom::new("even", [v("x")])),
            ],
        ));
        let comp = recursion_components(&p);
        assert_eq!(comp[&RelName::new("even")], comp[&RelName::new("odd")]);
        assert_eq!(classify_recursion(&p), Recursion::Linear);
    }

    #[test]
    fn nonrecursive_program_classified_none() {
        let mut p = Program::new();
        p.push(Rule::new(
            Atom::new("two_step", [v("x"), v("z")]),
            vec![
                Literal::pos(Atom::new("edge", [v("x"), v("y")])),
                Literal::pos(Atom::new("edge", [v("y"), v("z")])),
            ],
        ));
        assert_eq!(classify_recursion(&p), Recursion::None);
        assert_eq!(stratify(&p).unwrap().depth(), 1);
    }
}
