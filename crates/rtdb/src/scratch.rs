//! Reusable per-transaction scratch buffers for hot simulation paths.
//!
//! The simulators process hundreds of thousands of transaction arrivals;
//! building each arrival's granule-space declaration with fresh
//! collections costs dozens of heap allocations per transaction. The
//! types here hold the buffers across arrivals so the steady state
//! allocates nothing, while producing byte-identical results to the
//! original set-based construction (sorted, deduplicated granule sets).

use crate::ids::ObjectId;
use crate::lock::LockMode;
use crate::txn::TxnSpec;

/// Reusable buffers for mapping a transaction's object accesses onto lock
/// granules (a granule covers `granularity` consecutive object ids and is
/// write-mode if the transaction writes any object inside it).
#[derive(Debug, Default)]
pub struct GranuleScratch {
    write_granules: Vec<ObjectId>,
    read_granules: Vec<ObjectId>,
}

impl GranuleScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps `spec` onto granule space: rewrites `granule_spec` in place as
    /// the granule-level declaration (sorted, deduplicated read and write
    /// granule sets — what a ceiling protocol registers) and refills
    /// `lock_seq` with the per-step lock requests matching
    /// [`TxnSpec::access_ops`] order.
    ///
    /// Equivalent to collecting the granule sets into `BTreeSet`s and the
    /// sequence into a fresh vector, without the per-element allocations.
    pub fn map(
        &mut self,
        spec: &TxnSpec,
        granularity: u32,
        granule_spec: &mut TxnSpec,
        lock_seq: &mut Vec<(ObjectId, LockMode)>,
    ) {
        let granule = |o: ObjectId| ObjectId(o.0 / granularity);

        self.write_granules.clear();
        self.write_granules
            .extend(spec.write_set().iter().map(|&o| granule(o)));
        self.write_granules.sort_unstable();
        self.write_granules.dedup();

        self.read_granules.clear();
        self.read_granules
            .extend(spec.read_set().iter().map(|&o| granule(o)));
        self.read_granules.sort_unstable();
        self.read_granules.dedup();
        let writes = &self.write_granules;
        self.read_granules
            .retain(|gr| writes.binary_search(gr).is_err());

        lock_seq.clear();
        lock_seq.extend(spec.access_ops().map(|(o, _)| {
            let gr = granule(o);
            let mode = if writes.binary_search(&gr).is_ok() {
                LockMode::Write
            } else {
                LockMode::Read
            };
            (gr, mode)
        }));

        granule_spec.id = spec.id;
        granule_spec.arrival = spec.arrival;
        granule_spec.deadline = spec.deadline;
        granule_spec.home_site = spec.home_site;
        granule_spec.set_access(&self.read_granules, &self.write_granules);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SiteId, TxnId};
    use starlite::SimTime;
    use std::collections::BTreeSet;

    fn spec(reads: Vec<u32>, writes: Vec<u32>) -> TxnSpec {
        TxnSpec::new(
            TxnId(1),
            SimTime::from_ticks(10),
            reads.into_iter().map(ObjectId).collect(),
            writes.into_iter().map(ObjectId).collect(),
            SimTime::from_ticks(100),
            SiteId(0),
        )
    }

    /// The original set-based construction the scratch must reproduce.
    fn reference(spec: &TxnSpec, g: u32) -> (TxnSpec, Vec<(ObjectId, LockMode)>) {
        let granule = |o: ObjectId| ObjectId(o.0 / g);
        let write_granules: BTreeSet<ObjectId> =
            spec.write_set().iter().map(|&o| granule(o)).collect();
        let read_granules: BTreeSet<ObjectId> = spec
            .read_set()
            .iter()
            .map(|&o| granule(o))
            .filter(|gr| !write_granules.contains(gr))
            .collect();
        let lock_seq = spec
            .access_sequence()
            .into_iter()
            .map(|(o, _)| {
                let gr = granule(o);
                let mode = if write_granules.contains(&gr) {
                    LockMode::Write
                } else {
                    LockMode::Read
                };
                (gr, mode)
            })
            .collect();
        let gspec = TxnSpec::new(
            spec.id,
            spec.arrival,
            read_granules.into_iter().collect(),
            write_granules.into_iter().collect(),
            spec.deadline,
            spec.home_site,
        );
        (gspec, lock_seq)
    }

    #[test]
    fn matches_set_based_reference() {
        let cases = [
            (spec(vec![1, 2, 9], vec![3]), 1),
            (spec(vec![1, 2, 9], vec![3]), 4),
            (spec(vec![8, 1, 5, 13], vec![12, 2]), 4),
            (spec(vec![], vec![7, 3, 7 + 32]), 8),
            (spec(vec![40, 41, 42], vec![]), 4),
        ];
        let mut scratch = GranuleScratch::new();
        let mut gspec = spec(vec![0], vec![]);
        let mut lock_seq = Vec::new();
        for (s, g) in cases {
            let (want_spec, want_seq) = reference(&s, g);
            scratch.map(&s, g, &mut gspec, &mut lock_seq);
            assert_eq!(gspec, want_spec, "granularity {g}");
            assert_eq!(lock_seq, want_seq, "granularity {g}");
        }
    }

    #[test]
    fn reuse_across_transactions_leaves_no_residue() {
        let mut scratch = GranuleScratch::new();
        let mut gspec = spec(vec![0], vec![]);
        let mut lock_seq = Vec::new();
        scratch.map(
            &spec(vec![1, 2, 3, 4], vec![5, 6]),
            2,
            &mut gspec,
            &mut lock_seq,
        );
        let small = spec(vec![9], vec![]);
        scratch.map(&small, 2, &mut gspec, &mut lock_seq);
        let (want_spec, want_seq) = reference(&small, 2);
        assert_eq!(gspec, want_spec);
        assert_eq!(lock_seq, want_seq);
    }
}
