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

use crate::error::StoreError;
use pgq_value::Value;
use std::collections::HashMap;

/// An append-only value dictionary: `Value ↔ u32` in first-seen order.
#[derive(Debug, Clone)]
pub struct Dictionary {
    values: Vec<Value>,
    codes: HashMap<Value, u32>,
    /// Maximum number of codes this dictionary may mint. Defaults to
    /// the full `u32` space; tests lower it to exercise the
    /// [`StoreError::DictionaryFull`] path without 2³² interns.
    limit: usize,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary {
            values: Vec::new(),
            codes: HashMap::new(),
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

    /// Interns `v`, returning its (possibly pre-existing) code, or
    /// [`StoreError::DictionaryFull`] when the code space is exhausted
    /// — the error every registration path propagates instead of
    /// panicking mid-load.
    pub fn intern(&mut self, v: &Value) -> Result<u32, StoreError> {
        if let Some(&c) = self.codes.get(v) {
            return Ok(c);
        }
        if self.values.len() >= self.limit {
            return Err(StoreError::DictionaryFull { limit: self.limit });
        }
        let c = self.values.len() as u32;
        self.values.push(v.clone());
        self.codes.insert(v.clone(), c);
        Ok(c)
    }

    /// Pre-sizes both sides of the dictionary for `additional` fresh
    /// interns. Bulk ingest calls this once up front so a million-value
    /// load performs zero `HashMap` re-hashes and zero `Vec` regrowth
    /// mid-stream — the "re-hash storm" fix of PR 9. A no-op when the
    /// capacity is already there.
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
        self.codes.reserve(additional);
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
        let probed: Vec<Vec<Option<u32>>> =
            crate::par::run_morsels::<_, StoreError, _>(values.len(), threads, |range| {
                Ok(range.map(|i| self.code(values[i])).collect())
            })?;
        let mut codes: Vec<Option<u32>> = probed.into_iter().flatten().collect();
        // Fresh values may repeat within the batch; count distinct
        // misses for the atomic limit check without minting anything.
        let mut fresh: std::collections::HashSet<&Value> = std::collections::HashSet::new();
        for (i, slot) in codes.iter().enumerate() {
            if slot.is_none() {
                fresh.insert(values[i]);
            }
        }
        if self.values.len() + fresh.len() > self.limit {
            return Err(StoreError::DictionaryFull { limit: self.limit });
        }
        // Append phase (sequential, pre-sized): mint in first-seen order.
        self.reserve(fresh.len());
        let base = self.values.len() as u32;
        let mut minted: HashMap<&Value, u32> = HashMap::with_capacity(fresh.len());
        drop(fresh);
        for (i, slot) in codes.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let v = values[i];
            let c = if let Some(&c) = minted.get(v) {
                c
            } else {
                let c = base + minted.len() as u32;
                minted.insert(v, c);
                self.values.push(v.clone());
                self.codes.insert(v.clone(), c);
                c
            };
            *slot = Some(c);
        }
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
    /// bookkeeping). An estimate — Rust gives no exact malloc
    /// accounting without a custom allocator — but a faithful one for
    /// the structures that dominate at scale.
    pub fn resident_bytes(&self) -> usize {
        let value = std::mem::size_of::<Value>();
        let heap: usize = self
            .values
            .iter()
            .filter_map(|v| v.as_str().map(str::len))
            .sum();
        // Strings live once in `values` and once as map keys.
        let vec_side = self.values.capacity() * value;
        let map_side = self.codes.capacity() * (value + std::mem::size_of::<u32>() + 8);
        vec_side + map_side + 2 * heap
    }

    /// The code of `v`, if it has been interned.
    pub fn code(&self, v: &Value) -> Option<u32> {
        self.codes.get(v).copied()
    }

    /// The value behind a code. Codes are only minted by
    /// [`Dictionary::intern`], so a code held by any store structure is
    /// always decodable.
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// Number of distinct interned values (total codes ever minted —
    /// the append-only dictionary never forgets; see
    /// `Store::stats` for live vs. total accounting).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
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
}
