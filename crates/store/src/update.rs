//! Incremental maintenance — the store's only in-place writer: the
//! Section 7 update model ([`Store::apply_updates`]) applied to a
//! registered graph's six relations in place, and to the adjacency
//! overlays of the binary ones. A graph is its relations: the writer
//! edits them and nothing else, then hands the graph entry the new
//! handles, whose node index the next reader derives.
//!
//! A write touches only tails (the store's copy-on-write rule): rows
//! append to a relation's columns and its probe-index tail (flat
//! arrays, so an appended row allocates nothing of its own; the
//! counting-allocator suite `tests/allocations.rs` pins it), fresh codes
//! to the dictionary's tail, pairs to the adjacency deltas. On a working
//! clone that shares every base with the published snapshot, the copy a
//! batch costs is the flat columns and bitmaps of the relations it
//! touches plus those tails. Nothing here maintains the active domain:
//! the store derives [`crate::ADOM_REL`] from the live rows when a reader
//! asks for it.

use crate::column::ColumnarRelation;
use crate::error::StoreError;
use crate::store::{overlay_oversized, CsrWithDelta, Store};
use pgq_graph::{Update, UpdateError};
use pgq_relational::RelName;
use pgq_value::{Tuple, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

impl Store {
    fn encode_row(&self, t: &Tuple) -> Option<Vec<u32>> {
        t.iter().map(|v| self.dict.code(v)).collect()
    }

    /// Whether a registered relation holds `t` as a live row.
    pub fn rel_contains(&self, name: &RelName, t: &Tuple) -> bool {
        let Some(col) = self.relations.get(name) else {
            return false;
        };
        if col.arity() != t.arity() {
            return false;
        }
        self.encode_row(t)
            .is_some_and(|codes| col.find_live(&codes).is_some())
    }

    /// Applies Section 7 updates, in order, to a graph registered
    /// through [`Store::register_view_graph`]: the six backing relations
    /// are edited in place (append/tombstone) — no re-registration, no
    /// `pgView` re-validation. Validation mirrors
    /// `pgq_graph::updates::apply`, so a rejected update leaves the
    /// relations untouched — all fallible steps (checks, code minting)
    /// run before the first row lands; exhaustion errors may leave
    /// freshly minted dictionary codes, stale at worst and reclaimed by
    /// [`Store::compact`]. The batch fails fast on the first rejected
    /// update — updates before it stay applied (per-update atomicity,
    /// not per-batch). The finishing pass (the graphs over the edited
    /// relations get the new handles, oversized overlays fold) runs
    /// once at the end, also for the applied prefix of a failed batch,
    /// so the store is internally consistent even when the batch errors.
    pub fn apply_updates(&mut self, graph: &str, updates: &[Update]) -> Result<(), StoreError> {
        let entry = self
            .graphs
            .get(graph)
            .ok_or_else(|| StoreError::UnknownGraph(graph.to_string()))?;
        let (views, k) = (entry.views().clone(), entry.id_arity());
        self.derived.invalidate();
        // The graphs over these relations let go of their handles, so
        // that in a bare store each relation's `Arc` is the only one and
        // the batch edits it in place.
        let over: Vec<String> = (self.graphs.iter())
            .filter(|(_, e)| e.views().iter().any(|v| views.contains(v)))
            .map(|(name, _)| name.clone())
            .collect();
        for name in &over {
            self.graphs.get_mut(name).expect("listed").release();
        }
        let mut result = Ok(());
        let mut applied = 0usize;
        for u in updates {
            match self.apply_update_raw(&views, k, u) {
                Ok(()) => applied += 1,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        for name in &over {
            let entry = self.graphs.get_mut(name).expect("listed");
            entry.attach(&self.relations);
        }
        if applied > 0 {
            for name in &views {
                self.fold_adjacency_if_oversized(name)?;
            }
        }
        result
    }

    fn apply_update_raw(
        &mut self,
        views: &[RelName; 6],
        k: usize,
        update: &Update,
    ) -> Result<(), StoreError> {
        let [rn, re, rs, rt, rl, rp] = views;
        let check_arity = |id: &Tuple| -> Result<(), StoreError> {
            if id.arity() == k {
                Ok(())
            } else {
                Err(UpdateError::ArityMismatch {
                    expected: k,
                    found: id.arity(),
                }
                .into())
            }
        };
        let is_element = |id: &Tuple| self.rel_contains(rn, id) || self.rel_contains(re, id);
        match update {
            Update::AddNode(id) => {
                check_arity(id)?;
                if is_element(id) {
                    return Err(UpdateError::IdInUse(id.clone()).into());
                }
                self.append_row_raw(rn, id)?;
            }
            Update::RemoveNode(id) => {
                check_arity(id)?;
                if !self.rel_contains(rn, id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                if !self.edges_touching(rs, rt, id, k).is_empty() {
                    return Err(UpdateError::NodeHasEdges(id.clone()).into());
                }
                self.tombstone_row_raw(rn, id);
                self.strip_annotation_rows(rl, rp, id);
            }
            Update::DetachRemoveNode(id) => {
                check_arity(id)?;
                if !self.rel_contains(rn, id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                for e in self.edges_touching(rs, rt, id, k) {
                    self.remove_edge_everywhere(views, &e);
                }
                self.tombstone_row_raw(rn, id);
                self.strip_annotation_rows(rl, rp, id);
            }
            Update::AddEdge { id, src, tgt } => {
                check_arity(id)?;
                check_arity(src)?;
                check_arity(tgt)?;
                if is_element(id) {
                    return Err(UpdateError::IdInUse(id.clone()).into());
                }
                if !self.rel_contains(rn, src) {
                    return Err(UpdateError::DanglingEndpoint(src.clone()).into());
                }
                if !self.rel_contains(rn, tgt) {
                    return Err(UpdateError::DanglingEndpoint(tgt.clone()).into());
                }
                // src/tgt are live N rows, hence already interned; the
                // id is the only possible DictionaryFull source — mint
                // its codes before the first of the three appends.
                self.intern_tuple(id)?;
                self.append_row_raw(re, id)?;
                self.append_row_raw(rs, &id.concat(src))?;
                self.append_row_raw(rt, &id.concat(tgt))?;
            }
            Update::RemoveEdge(id) => {
                check_arity(id)?;
                if !self.rel_contains(re, id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                self.remove_edge_everywhere(views, id);
            }
            Update::AddLabel(id, label) => {
                check_arity(id)?;
                if !is_element(id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                self.append_row_raw(rl, &id.concat(&Tuple::unary(label.clone())))?;
            }
            Update::RemoveLabel(id, label) => {
                check_arity(id)?;
                if !is_element(id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                self.tombstone_row_raw(rl, &id.concat(&Tuple::unary(label.clone())));
            }
            Update::SetProp(id, key, value) => {
                check_arity(id)?;
                if !is_element(id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                // Mint the key/value codes before dropping the old
                // row, or an exhaustion error would lose the property.
                self.intern_tuple(&Tuple::new(vec![key.clone(), value.clone()]))?;
                self.remove_prop_rows(rp, id, key, k);
                self.append_row_raw(
                    rp,
                    &id.concat(&Tuple::new(vec![key.clone(), value.clone()])),
                )?;
            }
            Update::RemoveProp(id, key) => {
                check_arity(id)?;
                if !is_element(id) {
                    return Err(UpdateError::NoSuchElement(id.clone()).into());
                }
                self.remove_prop_rows(rp, id, key, k);
            }
        }
        Ok(())
    }

    /// Interns every value of `t` up front, so the mutation that
    /// follows cannot fail on [`StoreError::DictionaryFull`] halfway
    /// through a multi-relation edit. A rejection after this point
    /// leaves relations and graphs untouched (the codes minted here
    /// are at worst stale, and [`Store::compact`] reclaims them).
    fn intern_tuple(&mut self, t: &Tuple) -> Result<(), StoreError> {
        for v in t.iter() {
            self.dict.intern(v)?;
        }
        Ok(())
    }

    /// The columnar relation for mutation (copy-on-write).
    fn relation_mut(&mut self, name: &RelName) -> Option<&mut ColumnarRelation> {
        self.relations.get_mut(name).map(Arc::make_mut)
    }

    /// Appends a row (reviving an identical tombstoned one when
    /// present), maintaining the adjacency overlay of binary relations.
    /// A no-op when an identical live row already exists.
    fn append_row_raw(&mut self, name: &RelName, t: &Tuple) -> Result<(), StoreError> {
        let arity = self
            .relations
            .get(name)
            .ok_or_else(|| StoreError::UnknownRelation(name.clone()))?
            .arity();
        if t.arity() != arity {
            return Err(StoreError::RowArity {
                relation: name.clone(),
                expected: arity,
                found: t.arity(),
            });
        }
        let mut codes = Vec::with_capacity(arity);
        for v in t.iter() {
            codes.push(self.dict.intern(v)?);
        }
        let col = self
            .relation_mut(name)
            .ok_or_else(|| StoreError::UnknownRelation(name.clone()))?;
        if col.find_live(&codes).is_some() {
            return Ok(());
        }
        match col.find_dead(&codes) {
            Some(i) => {
                col.revive(i);
            }
            None => col.append(&codes),
        }
        if arity == 2 {
            self.pair_add(name, codes[0], codes[1]);
        }
        Ok(())
    }

    /// Tombstones the live row equal to `t`, maintaining the adjacency
    /// overlay. A no-op when no such live row exists.
    fn tombstone_row_raw(&mut self, name: &RelName, t: &Tuple) {
        let Some(col) = self.relations.get(name) else {
            return;
        };
        if col.arity() != t.arity() {
            return;
        }
        let Some(codes) = self.encode_row(t) else {
            return;
        };
        let Some(col) = self.relation_mut(name) else {
            return;
        };
        let Some(i) = col.find_live(&codes) else {
            return;
        };
        col.tombstone(i);
        if codes.len() == 2 {
            self.pair_remove(name, codes[0], codes[1]);
        }
    }

    /// Tombstones every live row whose leading codes equal `prefix`
    /// (optionally further filtered by `also`, on the full coded row),
    /// maintaining the adjacency overlay. Candidates come from the
    /// column end indexes — O(rows sharing the leading code), not a
    /// relation scan. Returns the count.
    fn tombstone_prefix(
        &mut self,
        name: &RelName,
        prefix: &[u32],
        also: impl Fn(&[u32]) -> bool,
    ) -> usize {
        let Some(col) = self.relation_mut(name) else {
            return 0;
        };
        let arity = col.arity();
        let (rows, candidates) = col.live_rows_with_prefix(prefix);
        let mut hits: Vec<Vec<u32>> = Vec::new();
        for i in rows {
            let row: Vec<u32> = (0..arity).map(|p| col.code_at(i, p)).collect();
            if also(&row) {
                col.tombstone(i);
                hits.push(row);
            }
        }
        self.counters.record_writer_probe(candidates as u64);
        if arity == 2 {
            for row in &hits {
                self.pair_remove(name, row[0], row[1]);
            }
        }
        hits.len()
    }

    fn pair_add(&mut self, name: &RelName, s: u32, t: u32) {
        if let Some(entry) = self.adjacency.get_mut(name) {
            let in_base = entry.csr.has_pair(s, t);
            entry.delta.add(s, t, in_base);
        }
    }

    fn pair_remove(&mut self, name: &RelName, s: u32, t: u32) {
        if let Some(entry) = self.adjacency.get_mut(name) {
            let in_base = entry.csr.has_pair(s, t);
            entry.delta.remove(s, t, in_base);
        }
    }

    /// Live edge identifiers whose source or target is `id` — the
    /// suffix scan of `R3 ∪ R4`, deduplicated (a self-loop shows up in
    /// both and must be removed exactly once).
    fn edges_touching(&self, rs: &RelName, rt: &RelName, id: &Tuple, k: usize) -> Vec<Tuple> {
        let Some(idc) = self.encode_row(id) else {
            return Vec::new();
        };
        let mut out: BTreeSet<Tuple> = BTreeSet::new();
        for name in [rs, rt] {
            let Some(col) = self.relations.get(name) else {
                continue;
            };
            let (rows, candidates) = col.live_rows_with_suffix(&idc);
            self.counters.record_writer_probe(candidates as u64);
            for i in rows {
                out.insert(Tuple::new(
                    (0..k)
                        .map(|p| self.dict.value(col.code_at(i, p)).clone())
                        .collect(),
                ));
            }
        }
        out.into_iter().collect()
    }

    /// Tombstones a live edge's rows across `R2..R6`.
    fn remove_edge_everywhere(&mut self, views: &[RelName; 6], id: &Tuple) {
        let [_, re, rs, rt, rl, rp] = views;
        let Some(idc) = self.encode_row(id) else {
            return;
        };
        self.tombstone_row_raw(re, id);
        for name in [rs, rt, rl, rp] {
            self.tombstone_prefix(name, &idc, |_| true);
        }
    }

    /// Tombstones every label and property row of `id`.
    fn strip_annotation_rows(&mut self, rl: &RelName, rp: &RelName, id: &Tuple) {
        let Some(idc) = self.encode_row(id) else {
            return;
        };
        self.tombstone_prefix(rl, &idc, |_| true);
        self.tombstone_prefix(rp, &idc, |_| true);
    }

    /// Tombstones the (at most one) live `R6` row for `(id, key)`.
    fn remove_prop_rows(&mut self, rp: &RelName, id: &Tuple, key: &Value, k: usize) {
        let Some(idc) = self.encode_row(id) else {
            return;
        };
        let Some(kc) = self.dict.code(key) else {
            return;
        };
        self.tombstone_prefix(rp, &idc, |row| row[k] == kc);
    }

    /// Folds a relation's adjacency overlay into a fresh CSR when it
    /// has outgrown the threshold.
    fn fold_adjacency_if_oversized(&mut self, name: &RelName) -> Result<(), StoreError> {
        let Some(entry) = self.adjacency.get(name) else {
            return Ok(());
        };
        if !overlay_oversized(entry.delta.change_count(), entry.csr.edge_count()) {
            return Ok(());
        }
        self.rebuild_adjacency(name)
    }

    pub(crate) fn rebuild_adjacency(&mut self, name: &RelName) -> Result<(), StoreError> {
        match self.relations.get(name) {
            Some(col) => {
                let fresh = CsrWithDelta::of_relation(col)?;
                self.adjacency.insert(name.clone(), fresh);
            }
            None => {
                self.adjacency.remove(name);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GraphForm;
    use crate::graph::tests::reach;
    use crate::store::tests::{chain_db, nid, registered_store, views};
    use crate::ADOM_REL;
    use pgq_value::tuple;

    #[test]
    fn apply_update_add_edge_extends_reachability() {
        let (_, mut store) = registered_store();
        store
            .apply_updates(
                "G",
                std::slice::from_ref(&Update::AddEdge {
                    id: nid("e4"),
                    src: nid("d"),
                    tgt: nid("a"),
                }),
            )
            .unwrap();
        let entry = store.graph("G").unwrap();
        assert_eq!(entry.edge_count(), 4);
        // The cycle closes: every ordered pair is reachable.
        assert_eq!(reach(&store).len(), 16);
        // The backing relations saw the rows.
        assert!(store.rel_contains(&"E".into(), &nid("e4")));
        assert!(store.rel_contains(&"S".into(), &tuple!["e4", "d"]));
        // The S/T adjacency overlays saw the pairs.
        assert!(store.adjacency(&"S".into()).unwrap().has_delta());
        // The derived active domain sees the new value.
        let adom = store.scan(&ADOM_REL.into()).unwrap();
        assert!(adom.contains(&tuple!["e4"]));
    }

    #[test]
    fn apply_update_detach_remove_cascades() {
        let (_, mut store) = registered_store();
        store
            .apply_updates(
                "G",
                std::slice::from_ref(&Update::DetachRemoveNode(nid("b"))),
            )
            .unwrap();
        let entry = store.graph("G").unwrap();
        assert_eq!(entry.node_count(), 3);
        assert_eq!(entry.edge_count(), 1); // only c→d survives
        let pairs = reach(&store);
        assert_eq!(pairs.len(), 1);
        assert!(pairs.contains(&tuple!["c", "d"]));
        // e1's label row went with the edge.
        assert!(!store.rel_contains(&"L".into(), &tuple!["e1", "Transfer"]));
        // Tombstones are visible in stats until compaction.
        let stats = store.stats();
        assert!(stats.tombstone_rows() > 0);
        assert!(stats.overlay_entries() > 0);
    }

    #[test]
    fn apply_update_validation_mirrors_the_reference_semantics() {
        let (_, mut store) = registered_store();
        // RemoveNode refuses incident edges.
        assert!(matches!(
            store.apply_updates("G", std::slice::from_ref(&Update::RemoveNode(nid("a")))),
            Err(StoreError::Update(UpdateError::NodeHasEdges(_)))
        ));
        // Id disjointness.
        assert!(matches!(
            store.apply_updates("G", std::slice::from_ref(&Update::AddNode(nid("e1")))),
            Err(StoreError::Update(UpdateError::IdInUse(_)))
        ));
        // Dangling endpoints.
        assert!(matches!(
            store.apply_updates(
                "G",
                std::slice::from_ref(&Update::AddEdge {
                    id: nid("e9"),
                    src: nid("a"),
                    tgt: nid("ghost"),
                })
            ),
            Err(StoreError::Update(UpdateError::DanglingEndpoint(_)))
        ));
        // Arity mismatch.
        assert!(matches!(
            store.apply_updates("G", std::slice::from_ref(&Update::AddNode(tuple![1, 2]))),
            Err(StoreError::Update(UpdateError::ArityMismatch { .. }))
        ));
        // Unknown graph.
        assert!(matches!(
            store.apply_updates("nope", std::slice::from_ref(&Update::AddNode(nid("x")))),
            Err(StoreError::UnknownGraph(_))
        ));
        // A rejected update left everything untouched.
        assert_eq!(store.graph("G").unwrap().node_count(), 4);
        assert_eq!(store.graph("G").unwrap().edge_count(), 3);
    }

    #[test]
    fn labels_and_props_update_in_place() {
        let (_, mut store) = registered_store();
        let transfer = Value::str("Transfer");
        let l: RelName = "L".into();
        store
            .apply_updates(
                "G",
                &[
                    Update::AddLabel(nid("e2"), transfer.clone()),
                    Update::SetProp(nid("a"), Value::str("name"), Value::str("ada")),
                    Update::SetProp(nid("a"), Value::str("name"), Value::str("grace")),
                ],
            )
            .unwrap();
        assert!(store.rel_contains(&l, &tuple!["e1", "Transfer"]));
        assert!(store.rel_contains(&l, &tuple!["e2", "Transfer"]));
        // R6 stays functional: exactly one live (a, name, ·) row.
        let props = store.scan(&"P".into()).unwrap();
        assert_eq!(props.len(), 1);
        assert!(props.contains(&tuple!["a", "name", "grace"]));
        // Removing the label and the prop rolls both back.
        store
            .apply_updates(
                "G",
                &[
                    Update::RemoveLabel(nid("e2"), transfer.clone()),
                    Update::RemoveProp(nid("a"), Value::str("name")),
                ],
            )
            .unwrap();
        assert!(store.rel_contains(&l, &tuple!["e1", "Transfer"]));
        assert!(!store.rel_contains(&l, &tuple!["e2", "Transfer"]));
        assert!(store.scan(&"P".into()).unwrap().is_empty());
    }

    #[test]
    fn delete_and_reinsert_revives_the_tombstoned_row() {
        let (_, mut store) = registered_store();
        store
            .apply_updates("G", std::slice::from_ref(&Update::AddNode(nid("z"))))
            .unwrap();
        let physical = store.relation(&"N".into()).unwrap().physical_len();
        store
            .apply_updates("G", std::slice::from_ref(&Update::RemoveNode(nid("z"))))
            .unwrap();
        assert_eq!(store.relation(&"N".into()).unwrap().tombstones(), 1);
        assert_eq!(store.graph("G").unwrap().node_count(), 4);
        store
            .apply_updates("G", std::slice::from_ref(&Update::AddNode(nid("z"))))
            .unwrap();
        // The revived row reuses its physical slot.
        assert_eq!(
            store.relation(&"N".into()).unwrap().physical_len(),
            physical
        );
        assert_eq!(store.relation(&"N".into()).unwrap().tombstones(), 0);
        assert_eq!(store.graph("G").unwrap().node_count(), 5);
    }

    /// Dictionary exhaustion mid-update must reject atomically: no
    /// half-applied edge (an `R2` row without its `R3`/`R4` rows would
    /// break the view's totality).
    #[test]
    fn exhaustion_mid_update_is_atomic() {
        let db = chain_db();
        let minted = Store::from_database(&db).dict().len();
        let mut store = Store::with_dict_limit(minted);
        store.register_database(&db).unwrap();
        store
            .register_view_graph("G", views(), &db, GraphForm::Exact(1))
            .unwrap();
        // The new edge id needs one fresh code: DictionaryFull.
        let err = store.apply_updates(
            "G",
            std::slice::from_ref(&Update::AddEdge {
                id: nid("e4"),
                src: nid("d"),
                tgt: nid("a"),
            }),
        );
        assert!(matches!(err, Err(StoreError::DictionaryFull { .. })));
        // Nothing landed: E unchanged, no dangling S/T rows, entry
        // unchanged — and the store still validates as a view.
        assert!(!store.rel_contains(&"E".into(), &nid("e4")));
        assert_eq!(store.relation(&"S".into()).unwrap().len(), 3);
        assert_eq!(store.relation(&"T".into()).unwrap().len(), 3);
        assert_eq!(store.graph("G").unwrap().edge_count(), 3);
        assert_eq!(reach(&store).len(), 6);
        // Same discipline for AddNode and SetProp.
        assert!(matches!(
            store.apply_updates("G", std::slice::from_ref(&Update::AddNode(nid("z")))),
            Err(StoreError::DictionaryFull { .. })
        ));
        assert!(!store.rel_contains(&"N".into(), &nid("z")));
        assert_eq!(store.graph("G").unwrap().node_count(), 4);
        assert!(matches!(
            store.apply_updates(
                "G",
                std::slice::from_ref(&Update::SetProp(nid("a"), Value::str("k"), Value::int(1)))
            ),
            Err(StoreError::DictionaryFull { .. })
        ));
        assert!(store.scan(&"P".into()).unwrap().is_empty());
    }

    /// A mid-batch rejection keeps the applied prefix, and ⟨adom⟩ —
    /// derived from the live rows — sees it too.
    #[test]
    fn rejected_batch_keeps_the_applied_prefix_in_adom() {
        let (_, mut store) = registered_store();
        let err = store.apply_updates(
            "G",
            &[
                Update::AddNode(nid("z")),
                Update::RemoveNode(nid("ghost")), // rejected
            ],
        );
        assert!(matches!(
            err,
            Err(StoreError::Update(UpdateError::NoSuchElement(_)))
        ));
        // AddNode("z") stays applied (per-update atomicity) — and the
        // active domain knows it.
        assert!(store.rel_contains(&"N".into(), &nid("z")));
        let adom = store.scan(&ADOM_REL.into()).unwrap();
        assert!(adom.contains(&tuple!["z"]), "{adom:?}");
    }

    /// Writer-path membership probes route through the column end
    /// indexes, not relation scans. Detaching a node, removing an edge
    /// and removing a label on a 100× larger chain — every edge
    /// carrying the same label — must examine exactly the same number
    /// of candidate rows: probe cost tracks the element's degree, not
    /// the store size or the label's extent. That holds on both routes:
    /// a bulk load builds no index, so the first write's probes build
    /// the ones they need instead of scanning.
    #[test]
    fn writer_probes_are_indexed_not_relation_scans() {
        let probe_rows = |n: u32, bulk: bool| {
            let mut g = crate::BulkGraph::new();
            for i in 0..n {
                g.add_node(format!("n{i}"));
            }
            for i in 0..n - 1 {
                let e = g.add_edge(format!("e{i}"), i, i + 1);
                g.labels.push((e, Value::str("Hop")));
            }
            let mut store = Store::new();
            if bulk {
                store
                    .bulk_load("G", views(), GraphForm::Exact(1), &g, 1)
                    .unwrap();
            } else {
                let db = g.to_database(&views());
                store.register_database(&db).unwrap();
                store
                    .register_view_graph("G", views(), &db, GraphForm::Exact(1))
                    .unwrap();
            }
            store.counters().reset();
            store
                .apply_updates(
                    "G",
                    &[
                        Update::DetachRemoveNode(nid("n1")),
                        Update::RemoveEdge(nid("e3")),
                        Update::RemoveLabel(nid("e4"), Value::str("Hop")),
                    ],
                )
                .unwrap();
            assert!(!store.rel_contains(&"L".into(), &tuple!["e4", "Hop"]));
            let snap = store.counters().snapshot();
            assert!(snap.writer_probes > 0, "probes must be recorded");
            assert!(store.graph("G").is_some());
            snap.writer_probe_rows
        };
        for bulk in [false, true] {
            let (small, large) = (probe_rows(8, bulk), probe_rows(800, bulk));
            assert_eq!(
                small, large,
                "candidate rows per update must not scale with store size (bulk: {bulk})"
            );
        }
        assert_eq!(probe_rows(800, true), probe_rows(800, false));
    }
}
