//! The physical-plan IR.
//!
//! A [`PhysPlan`] is what the planner produces and the executor runs: a
//! tree of physical operators over batches of rows. It is deliberately
//! *lower-level* than [`pgq_relational::RaExpr`] — joins, distinctness
//! and fixpoints are explicit operators here, while the logical algebra
//! only knows `σ/π/×/∪/−`.

use crate::batch::Batch;
use crate::parallel::{ExecOptions, MORSEL_ROWS};
use pgq_relational::{RelError, RelName, RelResult, RowCondition, Schema};
use pgq_value::Value;
use std::fmt;

/// A physical query plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysPlan {
    /// Scan a stored relation.
    Scan(RelName),
    /// Scan a relation registered in the session [`pgq_store::Store`]
    /// (columnar codes, handed to the pipeline as-is). The reserved name
    /// [`pgq_store::ADOM_REL`] scans the store's frozen active domain.
    /// Without a store the operator degrades to the equivalent
    /// database scan, so plans stay executable anywhere.
    IndexScan(RelName),
    /// The rows of a store-indexed **binary** relation `rel` whose
    /// column `col` equals `value`, read off its CSR adjacency (forward
    /// for `col = 0`, reverse for `col = 1`) — the indexed form of
    /// `Filter [$col = value]` over `IndexScan rel`, which it degrades
    /// to without a store. Produced by [`crate::lower_onto_store`] only.
    IndexSeek {
        /// The indexed binary relation.
        rel: RelName,
        /// The sought column, `0` or `1`.
        col: usize,
        /// The constant it must equal.
        value: Value,
    },
    /// CSR neighbor expansion against a store-indexed **binary**
    /// relation `rel`: for each input row `t̄`, emit `t̄ ++ r̄` for every
    /// `rel` row `r̄` with `r̄[0] = t̄[key]` (forward) or `r̄[1] = t̄[key]`
    /// (reverse) — the adjacency-index form of a hash join against a
    /// base edge relation. Degrades to that hash join without a store.
    AdjacencyExpand {
        /// Rows to expand.
        input: Box<PhysPlan>,
        /// Input position probed into the adjacency index.
        key: usize,
        /// The indexed binary relation.
        rel: RelName,
        /// `false`: match on `rel`'s first column (forward adjacency);
        /// `true`: match on its second (reverse adjacency).
        reverse: bool,
    },
    /// A materialized input batch (constants, pre-evaluated subresults).
    Values(Batch),
    /// Scan the active domain `adom(D)` as a unary relation.
    AdomScan,
    /// Keep rows satisfying the condition.
    Filter {
        /// The row predicate.
        cond: RowCondition,
        /// Input operator.
        input: Box<PhysPlan>,
    },
    /// Positional projection (positions may repeat and reorder).
    Project {
        /// 0-based output positions into the input row.
        positions: Vec<usize>,
        /// Input operator.
        input: Box<PhysPlan>,
    },
    /// Hash join: emit `l ++ r` for every pair with `l[i] = r[j]` for
    /// all `(i, j)` in `keys`. The right side is indexed, the left side
    /// probed. An **empty** key set denotes the all-columns
    /// *intersection* (see `planner::intersect_plan`): the operands
    /// must share an arity and the result keeps only the probe side's
    /// columns.
    HashJoin {
        /// Probe side.
        left: Box<PhysPlan>,
        /// Build side.
        right: Box<PhysPlan>,
        /// Equality key pairs `(left position, right position)`.
        keys: Vec<(usize, usize)>,
    },
    /// Cartesian product (nested loops; the planner only leaves this in
    /// place when no equality key connects the two sides).
    Product {
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
    },
    /// Bag union (set semantics restored at the boundary or by an
    /// explicit [`PhysPlan::Distinct`]).
    Union {
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
    },
    /// Set difference; the right side is hashed and deduplicated.
    Diff {
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
    },
    /// Explicit duplicate elimination.
    Distinct {
        /// Input operator.
        input: Box<PhysPlan>,
    },
    /// Semi-naive least fixpoint: the smallest row set `R ⊇ base`
    /// closed under `acc ∈ R, s ∈ step, acc[i] = s[j] ∀(i,j) ∈ join
    /// ⟹ π_project(acc ++ s) ∈ R`. `project` indexes into the
    /// concatenation and must reproduce the base arity. Each iteration
    /// joins only the *delta* discovered by the previous one against
    /// the (hash-indexed, evaluated-once) step batch.
    Fixpoint {
        /// Initial rows (also the result arity).
        base: Box<PhysPlan>,
        /// Step relation, evaluated once and indexed.
        step: Box<PhysPlan>,
        /// Equality key pairs `(accumulated position, step position)`.
        join: Vec<(usize, usize)>,
        /// Positions into `acc ++ step_row` forming the new row.
        project: Vec<usize>,
    },
}

impl PhysPlan {
    /// Filter (builder).
    pub fn filter(self, cond: RowCondition) -> Self {
        PhysPlan::Filter {
            cond,
            input: Box::new(self),
        }
    }

    /// Projection (builder).
    pub fn project(self, positions: impl Into<Vec<usize>>) -> Self {
        PhysPlan::Project {
            positions: positions.into(),
            input: Box::new(self),
        }
    }

    /// Distinct (builder).
    pub fn distinct(self) -> Self {
        PhysPlan::Distinct {
            input: Box::new(self),
        }
    }

    /// Hash join (builder).
    pub fn hash_join(self, right: PhysPlan, keys: Vec<(usize, usize)>) -> Self {
        PhysPlan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            keys,
        }
    }

    /// Static output arity under a schema, validating positions — the
    /// physical counterpart of `RaExpr::arity`. `Values` carries its own
    /// arity and `AdomScan` is unary by definition.
    pub fn arity(&self, schema: &Schema) -> RelResult<usize> {
        let stored = |name: &RelName| {
            schema
                .arity_of(name)
                .ok_or_else(|| RelError::UnknownRelation(name.clone()))
        };
        let in_range = |position: usize, arity: usize| {
            if position < arity {
                Ok(())
            } else {
                Err(RelError::PositionOutOfRange { position, arity })
            }
        };
        let same = |op: &'static str, left: usize, right: usize| {
            if left == right {
                Ok(left)
            } else {
                Err(RelError::IncompatibleArities { op, left, right })
            }
        };
        match self {
            PhysPlan::Scan(name) => stored(name),
            // The reserved adom relation is unary by definition and
            // deliberately absent from user schemas.
            PhysPlan::IndexScan(name) if name.as_str() == pgq_store::ADOM_REL => Ok(1),
            PhysPlan::IndexScan(name) => stored(name),
            PhysPlan::IndexSeek { rel, col, .. } => {
                // Like the expansion: `rel` must exist and be binary.
                let a = same("index seek", 2, stored(rel)?)?;
                in_range(*col, a)?;
                Ok(a)
            }
            PhysPlan::AdjacencyExpand {
                input, key, rel, ..
            } => {
                let a = input.arity(schema)?;
                in_range(*key, a)?;
                // The expansion appends the matched binary-relation
                // row, so the expanded relation must exist and be
                // binary — same static discipline as `Scan`.
                same("adjacency expansion", 2, stored(rel)?)?;
                Ok(a + 2)
            }
            PhysPlan::Values(b) => Ok(b.arity()),
            PhysPlan::AdomScan => Ok(1),
            PhysPlan::Filter { cond, input } => {
                let a = input.arity(schema)?;
                cond.max_position().map_or(Ok(()), |max| in_range(max, a))?;
                Ok(a)
            }
            PhysPlan::Project { positions, input } => {
                let a = input.arity(schema)?;
                positions.iter().try_for_each(|&p| in_range(p, a))?;
                Ok(positions.len())
            }
            PhysPlan::HashJoin { left, right, keys } => {
                let (la, ra) = (left.arity(schema)?, right.arity(schema)?);
                // An empty key set is the all-columns intersection
                // (see `planner::intersect_plan`): operands must be
                // compatible and the result keeps the left columns.
                if keys.is_empty() {
                    return same("intersection", la, ra);
                }
                for &(i, j) in keys {
                    in_range(i, la)?;
                    in_range(j, ra)?;
                }
                Ok(la + ra)
            }
            PhysPlan::Product { left, right } => Ok(left.arity(schema)? + right.arity(schema)?),
            PhysPlan::Union { left, right } | PhysPlan::Diff { left, right } => same(
                "union/difference",
                left.arity(schema)?,
                right.arity(schema)?,
            ),
            PhysPlan::Distinct { input } => input.arity(schema),
            PhysPlan::Fixpoint {
                base,
                step,
                join,
                project,
            } => {
                let (ba, sa) = (base.arity(schema)?, step.arity(schema)?);
                for &(i, j) in join {
                    in_range(i, ba)?;
                    in_range(j, sa)?;
                }
                project.iter().try_for_each(|&p| in_range(p, ba + sa))?;
                same("fixpoint projection", ba, project.len())
            }
        }
    }

    /// Whether **this operator** reads store state through an update
    /// overlay: an `IndexScan` over a relation with tombstoned rows,
    /// or an adjacency read (`IndexSeek`, `AdjacencyExpand`, the
    /// CSR-routed reachability `Fixpoint`) whose index carries a
    /// non-empty delta.
    /// `EXPLAIN` marks such nodes `⟨delta⟩` — the answer is exact, but
    /// part of it is merged from the overlay at read time until
    /// `Store::compact` folds it back.
    pub fn reads_overlay(&self, store: &pgq_store::Store) -> bool {
        match self {
            PhysPlan::IndexScan(name) => store.relation(name).is_some_and(|c| c.tombstones() > 0),
            PhysPlan::IndexSeek { rel, .. } | PhysPlan::AdjacencyExpand { rel, .. } => {
                store.adjacency(rel).is_some_and(|v| v.has_delta())
            }
            PhysPlan::Fixpoint { .. } => self
                .csr_sweep_step()
                .and_then(|rel| store.adjacency(rel))
                .is_some_and(|v| v.has_delta()),
            _ => false,
        }
    }

    /// The step relation of a `Fixpoint` in the reachability shape the
    /// executor answers by CSR frontier sweeps (when the store indexes
    /// that relation): an `IndexScan` step, join `[(1, 0)]`, project
    /// `[0, 3]`.
    pub(crate) fn csr_sweep_step(&self) -> Option<&RelName> {
        match self {
            PhysPlan::Fixpoint {
                step,
                join,
                project,
                ..
            } if join.as_slice() == [(1, 0)] && project.as_slice() == [0, 3] => match step.as_ref()
            {
                PhysPlan::IndexScan(name) => Some(name),
                _ => None,
            },
            _ => None,
        }
    }

    /// Whether any node of the subtree reads through an overlay.
    fn any_overlay(&self, store: &pgq_store::Store) -> bool {
        self.reads_overlay(store) || self.children().iter().any(|c| c.any_overlay(store))
    }

    /// The `EXPLAIN` tree annotated with what the arguments add. Under a
    /// `store`, nodes reading through an update overlay (tombstones or
    /// adjacency deltas) are marked `⟨delta⟩`, with a trailing legend
    /// line when any is. Under concrete `opts`, every operator that
    /// splits its input across workers ([`PhysPlan::parallel_capable`])
    /// additionally carries its degree of parallelism as `⟨dop≤n⟩` — an
    /// upper bound, since an operator never gets more workers than its
    /// input has morsels — and a trailing line states the worker budget
    /// (at one thread, only that line). With neither this is plain
    /// [`std::fmt::Display`].
    pub fn display_with(
        &self,
        store: Option<&pgq_store::Store>,
        opts: Option<&ExecOptions>,
    ) -> String {
        let threads = opts.map(|o| o.threads);
        let mut out = String::new();
        self.render_annotated(&mut out, store, threads, "", true, true);
        if store.is_some_and(|s| self.any_overlay(s)) {
            out.push_str(
                "overlay: ⟨delta⟩ operators merge update overlays at read time (COMPACT folds them)\n",
            );
        }
        match threads {
            Some(n) if n > 1 => out.push_str(&format!(
                "parallelism: up to {n} workers over {MORSEL_ROWS}-row morsels\n"
            )),
            Some(_) => out.push_str("parallelism: sequential (1 thread)\n"),
            None => {}
        }
        out
    }

    /// Whether the executor splits this operator's input across workers
    /// when given more than one thread (`EXPLAIN`'s `⟨dop≤n⟩` marker):
    /// `Filter`, `Project`, `Diff`, the key-less `HashJoin`
    /// (intersection), `AdjacencyExpand` and the CSR-shaped `Fixpoint`'s
    /// source-group sweeps. Keyed `HashJoin`, `Distinct` and the hash
    /// `Fixpoint` run one sequential algorithm. The executor's profile
    /// is held to this answer on every operator.
    pub fn parallel_capable(&self) -> bool {
        match self {
            PhysPlan::Filter { .. }
            | PhysPlan::Project { .. }
            | PhysPlan::Diff { .. }
            | PhysPlan::AdjacencyExpand { .. } => true,
            PhysPlan::HashJoin { keys, .. } => keys.is_empty(),
            PhysPlan::Fixpoint { .. } => self.csr_sweep_step().is_some(),
            _ => false,
        }
    }

    fn render_annotated(
        &self,
        out: &mut String,
        store: Option<&pgq_store::Store>,
        threads: Option<usize>,
        prefix: &str,
        last: bool,
        root: bool,
    ) {
        use std::fmt::Write as _;
        let mut marker = String::new();
        if store.is_some_and(|s| self.reads_overlay(s)) {
            marker.push_str(" ⟨delta⟩");
        }
        if let Some(n) = threads {
            if n > 1 && self.parallel_capable() {
                let _ = write!(marker, " ⟨dop≤{n}⟩");
            }
        }
        if root {
            let _ = writeln!(out, "{}{marker}", self.node_label());
        } else {
            let branch = if last { "└─ " } else { "├─ " };
            let _ = writeln!(out, "{prefix}{branch}{}{marker}", self.node_label());
        }
        let child_prefix = if root {
            String::new()
        } else if last {
            format!("{prefix}   ")
        } else {
            format!("{prefix}│  ")
        };
        let children = self.children();
        let n = children.len();
        for (i, c) in children.into_iter().enumerate() {
            c.render_annotated(out, store, threads, &child_prefix, i + 1 == n, false);
        }
    }

    /// Number of operator nodes.
    pub fn size(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(PhysPlan::size)
            .sum::<usize>()
    }

    pub(crate) fn node_label(&self) -> String {
        match self {
            PhysPlan::Scan(name) => format!("Scan {name}"),
            PhysPlan::IndexScan(name) => format!("IndexScan {name} [columnar]"),
            PhysPlan::IndexSeek { rel, col, value } => {
                format!("IndexSeek {rel} [${} = {value} ← CSR]", col + 1)
            }
            PhysPlan::AdjacencyExpand {
                key, rel, reverse, ..
            } => {
                let arrow = if *reverse { "←" } else { "→" };
                format!("AdjacencyExpand [${} {arrow} {rel} CSR]", key + 1)
            }
            PhysPlan::Values(b) => format!("Values [{} row(s), arity {}]", b.len(), b.arity()),
            PhysPlan::AdomScan => "AdomScan".to_string(),
            PhysPlan::Filter { cond, .. } => format!("Filter [{cond}]"),
            PhysPlan::Project { positions, .. } => {
                let cols: Vec<String> = positions.iter().map(|p| format!("${}", p + 1)).collect();
                format!("Project [{}]", cols.join(","))
            }
            PhysPlan::HashJoin { keys, .. } => {
                if keys.is_empty() {
                    return "HashJoin [∩ all columns]".to_string();
                }
                let eqs: Vec<String> = keys
                    .iter()
                    .map(|(i, j)| format!("${} = ${}ʳ", i + 1, j + 1))
                    .collect();
                format!("HashJoin [{}]", eqs.join(" ∧ "))
            }
            PhysPlan::Product { .. } => "Product".to_string(),
            PhysPlan::Union { .. } => "Union".to_string(),
            PhysPlan::Diff { .. } => "Diff".to_string(),
            PhysPlan::Distinct { .. } => "Distinct".to_string(),
            PhysPlan::Fixpoint { join, project, .. } => {
                let eqs: Vec<String> = join
                    .iter()
                    .map(|(i, j)| format!("${} = ${}ˢ", i + 1, j + 1))
                    .collect();
                let cols: Vec<String> = project.iter().map(|p| format!("${}", p + 1)).collect();
                format!(
                    "Fixpoint [semi-naive; {} → π[{}]]",
                    eqs.join(" ∧ "),
                    cols.join(",")
                )
            }
        }
    }

    pub(crate) fn children(&self) -> Vec<&PhysPlan> {
        match self {
            PhysPlan::Scan(_)
            | PhysPlan::IndexScan(_)
            | PhysPlan::IndexSeek { .. }
            | PhysPlan::Values(_)
            | PhysPlan::AdomScan => Vec::new(),
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::AdjacencyExpand { input, .. }
            | PhysPlan::Distinct { input } => vec![input],
            PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::Product { left, right }
            | PhysPlan::Union { left, right }
            | PhysPlan::Diff { left, right } => vec![left, right],
            PhysPlan::Fixpoint { base, step, .. } => vec![base, step],
        }
    }

    /// Rebuilds this node over `f` of each child, stopping at the first
    /// error — the one child-rebuilding traversal: every rewrite pass
    /// keeps only the arms that decide something and leaves the rest
    /// of the tree to this.
    pub fn try_map_children<E>(
        self,
        mut f: impl FnMut(PhysPlan) -> Result<PhysPlan, E>,
    ) -> Result<PhysPlan, E> {
        let mut on = |child: Box<PhysPlan>| f(*child).map(Box::new);
        Ok(match self {
            PhysPlan::Scan(_)
            | PhysPlan::IndexScan(_)
            | PhysPlan::IndexSeek { .. }
            | PhysPlan::Values(_)
            | PhysPlan::AdomScan => self,
            PhysPlan::Filter { cond, input } => PhysPlan::Filter {
                cond,
                input: on(input)?,
            },
            PhysPlan::Project { positions, input } => PhysPlan::Project {
                positions,
                input: on(input)?,
            },
            PhysPlan::AdjacencyExpand {
                input,
                key,
                rel,
                reverse,
            } => PhysPlan::AdjacencyExpand {
                input: on(input)?,
                key,
                rel,
                reverse,
            },
            PhysPlan::Distinct { input } => PhysPlan::Distinct { input: on(input)? },
            PhysPlan::HashJoin { left, right, keys } => PhysPlan::HashJoin {
                left: on(left)?,
                right: on(right)?,
                keys,
            },
            PhysPlan::Product { left, right } => PhysPlan::Product {
                left: on(left)?,
                right: on(right)?,
            },
            PhysPlan::Union { left, right } => PhysPlan::Union {
                left: on(left)?,
                right: on(right)?,
            },
            PhysPlan::Diff { left, right } => PhysPlan::Diff {
                left: on(left)?,
                right: on(right)?,
            },
            PhysPlan::Fixpoint {
                base,
                step,
                join,
                project,
            } => PhysPlan::Fixpoint {
                base: on(base)?,
                step: on(step)?,
                join,
                project,
            },
        })
    }

    /// [`PhysPlan::try_map_children`] for a rewrite that cannot fail.
    pub fn map_children(self, mut f: impl FnMut(PhysPlan) -> PhysPlan) -> PhysPlan {
        match self.try_map_children(|child| Ok::<_, std::convert::Infallible>(f(child))) {
            Ok(plan) => plan,
            Err(never) => match never {},
        }
    }
}

/// `EXPLAIN`-style tree rendering:
///
/// ```text
/// HashJoin [$2 = $1ʳ]
/// ├─ Scan S
/// └─ Scan T
/// ```
impl fmt::Display for PhysPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_with(None, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new().with("R", 2).with("S", 1)
    }

    #[test]
    fn arity_checks_positions() {
        let s = schema();
        let p = PhysPlan::Scan("R".into()).project(vec![1]);
        assert_eq!(p.arity(&s).unwrap(), 1);
        let p = PhysPlan::Scan("R".into()).project(vec![5]);
        assert!(p.arity(&s).is_err());
        let p = PhysPlan::Scan("R".into()).filter(RowCondition::col_eq(0, 4));
        assert!(p.arity(&s).is_err());
        let p = PhysPlan::Scan("Missing".into());
        assert!(p.arity(&s).is_err());
        assert_eq!(PhysPlan::AdomScan.arity(&s).unwrap(), 1);
    }

    #[test]
    fn join_and_fixpoint_arity() {
        let s = schema();
        let j = PhysPlan::Scan("R".into()).hash_join(PhysPlan::Scan("S".into()), vec![(1, 0)]);
        assert_eq!(j.arity(&s).unwrap(), 3);
        let bad = PhysPlan::Scan("R".into()).hash_join(PhysPlan::Scan("S".into()), vec![(1, 7)]);
        assert!(bad.arity(&s).is_err());
        let fx = PhysPlan::Fixpoint {
            base: Box::new(PhysPlan::Scan("R".into())),
            step: Box::new(PhysPlan::Scan("R".into())),
            join: vec![(1, 0)],
            project: vec![0, 3],
        };
        assert_eq!(fx.arity(&s).unwrap(), 2);
        let bad = PhysPlan::Fixpoint {
            base: Box::new(PhysPlan::Scan("R".into())),
            step: Box::new(PhysPlan::Scan("R".into())),
            join: vec![(1, 0)],
            project: vec![0],
        };
        assert!(bad.arity(&s).is_err());
    }

    #[test]
    fn store_operator_arity() {
        let s = schema();
        assert_eq!(PhysPlan::IndexScan("R".into()).arity(&s).unwrap(), 2);
        assert!(PhysPlan::IndexScan("Missing".into()).arity(&s).is_err());
        assert_eq!(
            PhysPlan::IndexScan(pgq_store::ADOM_REL.into())
                .arity(&s)
                .unwrap(),
            1
        );
        let expand = PhysPlan::AdjacencyExpand {
            input: Box::new(PhysPlan::Scan("S".into())),
            key: 0,
            rel: "R".into(),
            reverse: false,
        };
        assert_eq!(expand.arity(&s).unwrap(), 3);
        assert_eq!(expand.size(), 2);
        let bad = PhysPlan::AdjacencyExpand {
            input: Box::new(PhysPlan::Scan("S".into())),
            key: 5,
            rel: "R".into(),
            reverse: true,
        };
        assert!(bad.arity(&s).is_err());
        // The expanded relation must exist and be binary.
        let non_binary = PhysPlan::AdjacencyExpand {
            input: Box::new(PhysPlan::Scan("R".into())),
            key: 0,
            rel: "S".into(),
            reverse: false,
        };
        assert!(non_binary.arity(&s).is_err());
        let unknown = PhysPlan::AdjacencyExpand {
            input: Box::new(PhysPlan::Scan("R".into())),
            key: 0,
            rel: "Missing".into(),
            reverse: false,
        };
        assert!(unknown.arity(&s).is_err());
        // A seek returns rows of a binary relation that exists, and
        // seeks one of its two columns.
        let seek = |rel: &str, col| PhysPlan::IndexSeek {
            rel: rel.into(),
            col,
            value: Value::int(7),
        };
        assert_eq!(seek("R", 1).arity(&s).unwrap(), 2);
        assert_eq!(seek("R", 1).size(), 1);
        assert!(matches!(
            seek("R", 2).arity(&s),
            Err(RelError::PositionOutOfRange { .. })
        ));
        assert!(matches!(
            seek("S", 0).arity(&s),
            Err(RelError::IncompatibleArities { .. })
        ));
        assert!(matches!(
            seek("Missing", 0).arity(&s),
            Err(RelError::UnknownRelation(_))
        ));
        assert_eq!(seek("R", 1).to_string(), "IndexSeek R [$2 = 7 ← CSR]\n");
        let text = expand.to_string();
        assert!(text.starts_with("AdjacencyExpand [$1 → R CSR]"), "{text}");
        assert!(text.contains("└─ Scan S"), "{text}");
        assert!(PhysPlan::IndexScan("R".into())
            .to_string()
            .starts_with("IndexScan R [columnar]"));
    }

    #[test]
    fn union_arity_mismatch() {
        let s = schema();
        let u = PhysPlan::Union {
            left: Box::new(PhysPlan::Scan("R".into())),
            right: Box::new(PhysPlan::Scan("S".into())),
        };
        assert!(u.arity(&s).is_err());
    }

    #[test]
    fn explain_reports_degree_of_parallelism() {
        use crate::parallel::ExecOptions;
        let mut db = pgq_relational::Database::new();
        db.insert("R", pgq_value::tuple![1, 2]).unwrap();
        db.insert("S", pgq_value::tuple![1]).unwrap();
        let store = pgq_store::Store::from_database(&db);
        let plan = PhysPlan::IndexScan("R".into())
            .hash_join(PhysPlan::IndexScan("S".into()), vec![(0, 0)])
            .project(vec![1])
            .distinct();

        // Parallel options mark every operator that splits its input
        // with its worker bound — scans, `Distinct` and keyed joins
        // never get one.
        let text = plan.display_with(Some(&store), Some(&ExecOptions::with_threads(4)));
        assert!(text.starts_with("Distinct\n"), "{text}");
        assert!(text.contains("Project [$2] ⟨dop≤4⟩"), "{text}");
        assert!(text.contains("HashJoin [$1 = $1ʳ]\n"), "{text}");
        assert!(text.contains("IndexScan R [columnar]\n"), "{text}");
        assert!(text.contains("parallelism: up to 4 workers"), "{text}");

        // One thread: same tree as `display_with`, plus the summary.
        let seq = plan.display_with(Some(&store), Some(&ExecOptions::sequential()));
        assert!(!seq.contains("⟨dop≤"), "{seq}");
        assert!(seq.contains("parallelism: sequential (1 thread)"), "{seq}");
        assert_eq!(
            seq.trim_end_matches("parallelism: sequential (1 thread)\n"),
            plan.display_with(Some(&store), None),
        );

        // Store-less plans still report their worker budget, and a
        // fresh store adds nothing to the plain tree.
        let bare = PhysPlan::Scan("R".into()).filter(RowCondition::col_eq(0, 1));
        let text = bare.display_with(None, Some(&ExecOptions::with_threads(2)));
        assert!(text.contains("Filter [$1 = $2] ⟨dop≤2⟩"), "{text}");
        assert_eq!(plan.display_with(Some(&store), None), plan.to_string());
    }

    #[test]
    fn display_is_a_tree() {
        let j = PhysPlan::Scan("R".into())
            .hash_join(PhysPlan::Scan("S".into()), vec![(1, 0)])
            .project(vec![0]);
        let text = j.to_string();
        assert!(text.starts_with("Project [$1]"));
        assert!(text.contains("└─ HashJoin [$2 = $1ʳ]"));
        assert!(text.contains("   ├─ Scan R"));
        assert!(text.contains("   └─ Scan S"));
    }
}
