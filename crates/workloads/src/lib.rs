//! # pgq-workloads
//!
//! Workload and instance-family generators for the reproduction's
//! experiments (system S10; see DESIGN.md):
//!
//! * [`transfers`] — the paper's running bank-transfer example
//!   (Examples 1.1/2.1), random and deterministic;
//! * [`alternating`] — the Theorem 4.1 red/blue separation family and
//!   its competing queries (E3);
//! * [`families`] — paths, cycles, grids, and walk-length spectra for
//!   the Theorem 4.2 semilinearity experiment (E4) and scaling runs
//!   (E10);
//! * [`increasing`] — the Example 5.3 "increasing values on edges"
//!   workload with three independent implementations (E5);
//! * [`random`] — seeded random databases and navigational patterns for
//!   benches;
//! * [`scale`] — million-scale bulk-layout generators (power-law
//!   preferential attachment and LDBC-style transfers) feeding
//!   `Store::bulk_load` (the bulk ≡ register differential and the
//!   plan goldens at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alternating;
pub mod families;
pub mod increasing;
pub mod random;
pub mod scale;
pub mod transfers;

#[cfg(test)]
mod smoke {
    /// Deterministic end-to-end smoke across the stack: generate the
    /// Theorem 4.1 alternating-path witness, evaluate the PGQrw query
    /// against it through `pgq-core`, and cross-check the direct graph
    /// search — on both a positive and a broken instance.
    #[test]
    fn alternating_workload_evaluates_end_to_end() {
        let db = crate::alternating::alternating_path_db(6, None);
        assert!(crate::alternating::has_alternating_path(&db, 3));
        let ans = pgq_core::eval(&crate::alternating::rw_alternating_query(3), &db).unwrap();
        assert!(ans.as_bool(), "PGQrw finds the alternating path");

        let broken = crate::alternating::alternating_path_db(6, Some(2));
        assert!(!crate::alternating::has_alternating_path(&broken, 6));
        let none = pgq_core::eval(&crate::alternating::rw_alternating_query(6), &broken).unwrap();
        assert!(!none.as_bool(), "PGQrw rejects the broken instance");
    }

    /// Workload generators are seed-deterministic: the same seed yields
    /// the same database, different seeds differ.
    #[test]
    fn random_transfers_are_seed_deterministic() {
        let a = crate::transfers::random_transfers_db(20, 40, 500, 11);
        let b = crate::transfers::random_transfers_db(20, 40, 500, 11);
        let c = crate::transfers::random_transfers_db(20, 40, 500, 12);
        let dump = |db: &pgq_relational::Database| {
            db.iter()
                .map(|(n, r)| (n.clone(), r.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(dump(&a), dump(&b));
        assert_ne!(dump(&a), dump(&c));
    }
}
