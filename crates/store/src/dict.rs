//! Dictionary encoding of domain values.
//!
//! Every [`Value`] stored anywhere in a [`crate::Store`] is interned
//! exactly once and referred to by a dense `u32` code thereafter. Codes
//! are assigned in first-seen order, so encoding is deterministic for a
//! deterministic registration order (the store registers relations in
//! `BTreeMap` name order and rows in relation order). Columns and CSR
//! indexes hold codes, not values — a string IBAN costs four bytes per
//! occurrence instead of a heap clone.
//!
//! Because codes are handed out in *first-seen* order, the code order
//! is **not** the value order: a store that interned `200` before `5`
//! maps the larger value to the smaller code. Coded execution
//! (`pgq-exec`) therefore compares codes only for equality and decodes
//! through [`Dictionary::value`] for order predicates.
//!
//! The dictionary is **append-only**: re-registering a store never
//! removes codes, so values that left the database keep their slot
//! (see the compaction discussion in the crate docs).
//!
//! It follows the store's one copy-on-write rule through an
//! `Interner`: an `Arc`-shared frozen base plus an owned tail of the
//! codes minted since the last fold. Cloning a dictionary — what every
//! published snapshot does — copies the tail only; the tail folds into
//! a fresh base under the overlay fold policy.

use crate::error::StoreError;
use crate::store::overlay_oversized;
use pgq_value::Value;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Keys in dense-id order plus the reverse map — one side of an
/// [`Interner`].
#[derive(Debug, Clone)]
struct Keys<K> {
    keys: Vec<K>,
    ids: HashMap<K, u32>,
}

impl<K> Default for Keys<K> {
    fn default() -> Self {
        Keys {
            keys: Vec::new(),
            ids: HashMap::new(),
        }
    }
}

/// Keys ↔ dense `u32` ids, in first-added order: the shape of the
/// value dictionary and of a graph entry's identifier table. Held as
/// an `Arc`-shared frozen base plus an owned tail of the keys added
/// since the last fold, so a clone copies the tail only — the rule the
/// CSR bases and the probe indexes follow too.
#[derive(Debug, Clone)]
pub(crate) struct Interner<K> {
    base: Arc<Keys<K>>,
    tail: Keys<K>,
}

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner {
            base: Arc::default(),
            tail: Keys::default(),
        }
    }
}

impl<K: Hash + Eq + Clone> Interner<K> {
    /// A frozen base holding `keys` (distinct) in id order, tail empty.
    pub(crate) fn from_keys(keys: Vec<K>) -> Self {
        let ids = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        Interner {
            base: Arc::new(Keys { keys, ids }),
            tail: Keys::default(),
        }
    }

    /// Ids handed out, base and tail.
    pub(crate) fn len(&self) -> usize {
        self.base.keys.len() + self.tail.keys.len()
    }

    /// Ids added since the last fold.
    pub(crate) fn tail_len(&self) -> usize {
        self.tail.keys.len()
    }

    /// The id of `k`, if added.
    pub(crate) fn get(&self, k: &K) -> Option<u32> {
        self.base
            .ids
            .get(k)
            .or_else(|| self.tail.ids.get(k))
            .copied()
    }

    /// The key behind an id handed out by this interner.
    pub(crate) fn key(&self, id: u32) -> &K {
        let i = id as usize;
        match i.checked_sub(self.base.keys.len()) {
            Some(t) => &self.tail.keys[t],
            None => &self.base.keys[i],
        }
    }

    /// Every key, in id order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.base.keys.iter().chain(&self.tail.keys)
    }

    /// Adds a key the caller knows is absent and returns its id.
    pub(crate) fn push(&mut self, k: K) -> u32 {
        let id = self.len() as u32;
        self.tail.keys.push(k.clone());
        self.tail.ids.insert(k, id);
        id
    }

    /// Pre-sizes the tail for `additional` keys.
    fn reserve(&mut self, additional: usize) {
        self.tail.keys.reserve(additional);
        self.tail.ids.reserve(additional);
    }

    /// Folds the tail into the base once it has outgrown the overlay
    /// policy.
    fn fold_if_oversized(&mut self) {
        if overlay_oversized(self.tail_len(), self.base.keys.len()) {
            self.fold();
        }
    }

    /// Folds the tail into the base. The base is copied only when a
    /// snapshot still shares it (an empty base is replaced by the tail
    /// outright).
    fn fold(&mut self) {
        if self.tail.keys.is_empty() {
            return;
        }
        let tail = std::mem::take(&mut self.tail);
        if self.base.keys.is_empty() {
            self.base = Arc::new(tail);
        } else {
            let base = Arc::make_mut(&mut self.base);
            base.keys.extend(tail.keys);
            base.ids.extend(tail.ids);
        }
    }

    /// Whether `self` and `other` share one frozen base.
    #[cfg(test)]
    pub(crate) fn shares_base(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Estimated resident heap bytes, `heap` counting what one key owns
    /// beyond its inline size.
    pub(crate) fn resident_bytes(&self, heap: impl Fn(&K) -> usize) -> usize {
        let key = std::mem::size_of::<K>();
        let side = |k: &Keys<K>| {
            k.keys.capacity() * key + k.ids.capacity() * (key + std::mem::size_of::<u32>() + 8)
        };
        // Owned payloads live once in the vector and once as map keys.
        side(&self.base) + side(&self.tail) + 2 * self.keys().map(heap).sum::<usize>()
    }
}

/// An append-only value dictionary: `Value ↔ u32` in first-seen order.
#[derive(Debug, Clone)]
pub struct Dictionary {
    names: Interner<Value>,
    /// Maximum number of codes this dictionary may mint. Defaults to
    /// the full `u32` space; tests lower it to exercise the
    /// [`StoreError::DictionaryFull`] path without 2³² interns.
    limit: usize,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary {
            names: Interner::default(),
            limit: Dictionary::MAX_CODES,
        }
    }
}

impl Dictionary {
    /// The full `u32` code space: the hard ceiling on distinct values.
    pub const MAX_CODES: usize = u32::MAX as usize + 1;

    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// An empty dictionary that refuses to mint more than `limit`
    /// codes (capped at [`Dictionary::MAX_CODES`]). Exists so admission
    /// control and tests can exercise the exhaustion path cheaply.
    pub fn with_limit(limit: usize) -> Self {
        Dictionary {
            limit: limit.min(Dictionary::MAX_CODES),
            ..Dictionary::default()
        }
    }

    /// A frozen dictionary holding `values` (distinct) under codes
    /// `0..` in order — the rebuilt dictionary of `Store::compact`.
    pub(crate) fn from_values(values: Vec<Value>, limit: usize) -> Self {
        Dictionary {
            names: Interner::from_keys(values),
            limit,
        }
    }

    /// Interns `v`, returning its (possibly pre-existing) code, or
    /// [`StoreError::DictionaryFull`] when the code space is exhausted
    /// — the error every registration path propagates instead of
    /// panicking mid-load.
    pub fn intern(&mut self, v: &Value) -> Result<u32, StoreError> {
        if let Some(c) = self.names.get(v) {
            return Ok(c);
        }
        if self.len() >= self.limit {
            return Err(StoreError::DictionaryFull { limit: self.limit });
        }
        let c = self.names.push(v.clone());
        self.names.fold_if_oversized();
        Ok(c)
    }

    /// Interns a batch of values and returns their codes in input
    /// order, using up to `threads` workers for the read-only probe
    /// phase (hashing and lookup of every value against the current
    /// map) and a single pre-sized append pass for the fresh ones —
    /// the morsel-parallel interning step of [`crate::Store::bulk_load`].
    ///
    /// Codes come out exactly as if `intern` had been called on each
    /// value in order (first-seen order is preserved), and the
    /// all-or-nothing limit check runs **before** anything is minted:
    /// on [`StoreError::DictionaryFull`] the dictionary is unchanged.
    pub fn bulk_intern(
        &mut self,
        values: &[Value],
        threads: usize,
    ) -> Result<Vec<u32>, StoreError> {
        let refs: Vec<&Value> = values.iter().collect();
        self.bulk_intern_refs(&refs, threads)
    }

    /// [`Dictionary::bulk_intern`] over borrowed values — the bulk
    /// loader concatenates its node/edge/label/property streams as an
    /// 8-byte-per-entry reference vector (no value clones) and interns
    /// them in **one** atomic call, so a limit failure in any stream
    /// leaves the dictionary untouched.
    pub fn bulk_intern_refs(
        &mut self,
        values: &[&Value],
        threads: usize,
    ) -> Result<Vec<u32>, StoreError> {
        // Probe phase (parallel, read-only): existing code or "fresh".
        let probed: Vec<Vec<Option<u32>>> = crate::par::run_morsels::<_, StoreError, _>(
            values.len(),
            threads,
            |range| Ok(range.map(|i| self.code(values[i])).collect()),
            None,
        )?;
        let mut codes: Vec<Option<u32>> = probed.into_iter().flatten().collect();
        // Fresh values may repeat within the batch; count distinct
        // misses for the atomic limit check without minting anything.
        let mut fresh: std::collections::HashSet<&Value> = std::collections::HashSet::new();
        for (i, slot) in codes.iter().enumerate() {
            if slot.is_none() {
                fresh.insert(values[i]);
            }
        }
        if self.len() + fresh.len() > self.limit {
            return Err(StoreError::DictionaryFull { limit: self.limit });
        }
        // Append phase (sequential, pre-sized): mint in first-seen
        // order; a repeat finds the code its first occurrence minted.
        self.names.reserve(fresh.len());
        drop(fresh);
        for (i, slot) in codes.iter_mut().enumerate() {
            if slot.is_none() {
                let v = values[i];
                *slot = Some(
                    self.names
                        .get(v)
                        .unwrap_or_else(|| self.names.push(v.clone())),
                );
            }
        }
        self.names.fold_if_oversized();
        Ok(codes
            .into_iter()
            .map(|c| c.expect("every slot filled"))
            .collect())
    }

    /// The configured code-space limit (used by `Store::compact` to
    /// carry admission control over into the rebuilt dictionary).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Estimated resident heap bytes: the value vector, the string
    /// payloads it owns, and the code map (entries plus per-slot
    /// bookkeeping), base and tail. An estimate — Rust gives no exact
    /// malloc accounting without a custom allocator — but a faithful
    /// one for the structures that dominate at scale.
    pub fn resident_bytes(&self) -> usize {
        self.names
            .resident_bytes(|v| v.as_str().map_or(0, str::len))
    }

    /// The code of `v`, if it has been interned.
    pub fn code(&self, v: &Value) -> Option<u32> {
        self.names.get(v)
    }

    /// The value behind a code. Codes are only minted by
    /// [`Dictionary::intern`], so a code held by any store structure is
    /// always decodable.
    pub fn value(&self, code: u32) -> &Value {
        self.names.key(code)
    }

    /// Number of distinct interned values (total codes ever minted —
    /// the append-only dictionary never forgets; see
    /// `Store::stats` for live vs. total accounting).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds every code minted since the last fold into the base.
    pub(crate) fn fold(&mut self) {
        self.names.fold();
    }

    /// The value side: base and tail.
    #[cfg(test)]
    pub(crate) fn names(&self) -> &Interner<Value> {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Value::str("x")).unwrap();
        let b = d.intern(&Value::int(7)).unwrap();
        let a2 = d.intern(&Value::str("x")).unwrap();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.value(a), &Value::str("x"));
        assert_eq!(d.code(&Value::int(7)), Some(b));
        assert_eq!(d.code(&Value::bool(true)), None);
    }

    #[test]
    fn bulk_intern_matches_sequential_intern() {
        let inputs: Vec<Value> = (0..100)
            .map(|i| {
                if i % 3 == 0 {
                    Value::int(i % 17)
                } else {
                    Value::str(format!("v{}", i % 23))
                }
            })
            .collect();
        let mut seq = Dictionary::new();
        seq.intern(&Value::str("pre")).unwrap();
        let want: Vec<u32> = inputs.iter().map(|v| seq.intern(v).unwrap()).collect();
        for threads in [1, 2, 8] {
            let mut bulk = Dictionary::new();
            bulk.intern(&Value::str("pre")).unwrap();
            let got = bulk.bulk_intern(&inputs, threads).unwrap();
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(bulk.len(), seq.len());
        }
    }

    #[test]
    fn bulk_intern_full_is_atomic() {
        let mut d = Dictionary::with_limit(3);
        d.intern(&Value::int(0)).unwrap();
        let too_many: Vec<Value> = (1..=3).map(Value::int).collect();
        assert!(matches!(
            d.bulk_intern(&too_many, 2),
            Err(StoreError::DictionaryFull { limit: 3 })
        ));
        // Nothing minted: the failed batch left the dictionary unchanged.
        assert_eq!(d.len(), 1);
        assert_eq!(d.code(&Value::int(1)), None);
        // A batch that exactly fits (with duplicates) still succeeds.
        let fits = vec![Value::int(1), Value::int(2), Value::int(1), Value::int(0)];
        assert_eq!(d.bulk_intern(&fits, 2).unwrap(), vec![1, 2, 1, 0]);
        assert_eq!(d.len(), 3);
        assert!(d.resident_bytes() > 0);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mut d = Dictionary::with_limit(2);
        d.intern(&Value::int(1)).unwrap();
        d.intern(&Value::int(2)).unwrap();
        // Pre-existing values still intern fine at the limit.
        assert_eq!(d.intern(&Value::int(1)).unwrap(), 0);
        assert!(matches!(
            d.intern(&Value::int(3)),
            Err(StoreError::DictionaryFull { limit: 2 })
        ));
        assert_eq!(d.len(), 2);
    }

    /// A clone shares the frozen base and copies the tail; codes and
    /// values read the same through either side of a fold, and a fold
    /// leaves the clone's base untouched.
    #[test]
    fn clones_share_the_base_and_folds_keep_every_code() {
        let mut d = Dictionary::new();
        let first: Vec<u32> = (0..100)
            .map(|i| d.intern(&Value::int(i)).unwrap())
            .collect();
        let pinned = d.clone();
        assert!(pinned.names().shares_base(d.names()));
        // Below the fold threshold the new codes sit in the tail.
        let tail: Vec<u32> = (100..110)
            .map(|i| d.intern(&Value::int(i)).unwrap())
            .collect();
        assert!(pinned.names().shares_base(d.names()));
        assert_eq!(d.names().tail_len() - pinned.names().tail_len(), 10);
        // Enough fresh codes fold the tail: only `d` gets a new base.
        for i in 110..400 {
            d.intern(&Value::int(i)).unwrap();
        }
        assert!(!pinned.names().shares_base(d.names()));
        assert_eq!(pinned.len(), 100);
        for (i, &c) in first.iter().chain(&tail).enumerate() {
            assert_eq!(d.code(&Value::int(i as i64)), Some(c));
            assert_eq!(d.value(c), &Value::int(i as i64));
        }
        assert_eq!(pinned.code(&Value::int(105)), None);
    }
}
