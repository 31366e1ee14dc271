//! The transaction generator.
//!
//! Turns a [`WorkloadSpec`] and a database [`Catalog`] into a concrete,
//! deterministic stream of [`TxnSpec`]s. Placement follows the paper's
//! distributed model: update transactions are assigned to a site and their
//! write sets drawn from that site's primary copies (restriction 2 of §4);
//! read-only transactions land at a uniformly random site and read from the
//! whole database (every site holds a full replica).

use std::fmt;

use rtdb::{Catalog, ObjectId, Placement, SiteId, TxnId, TxnSpec};
use starlite::{RandomSource, SimTime};

use crate::spec::{SizeDistribution, WorkloadSpec};

/// Deterministic transaction stream generator.
///
/// # Example
///
/// ```
/// use workload::{Generator, WorkloadSpec, SizeDistribution};
/// use rtdb::{Catalog, Placement};
/// use starlite::SimDuration;
///
/// let catalog = Catalog::new(100, 1, Placement::SingleSite);
/// let spec = WorkloadSpec::builder()
///     .txn_count(50)
///     .size(SizeDistribution::Uniform { min: 2, max: 6 })
///     .build();
/// let txns = Generator::new(&spec, &catalog).generate(7);
/// assert_eq!(txns.len(), 50);
/// // Determinism: the same seed yields the same stream.
/// assert_eq!(txns, Generator::new(&spec, &catalog).generate(7));
/// ```
pub struct Generator<'a> {
    spec: &'a WorkloadSpec,
    catalog: &'a Catalog,
}

impl fmt::Debug for Generator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Generator")
            .field("txn_count", &self.spec.txn_count)
            .field("db_size", &self.catalog.db_size())
            .finish()
    }
}

impl<'a> Generator<'a> {
    /// Creates a generator for the given spec over the given catalog.
    ///
    /// # Panics
    ///
    /// Panics if the maximum transaction size exceeds the database size,
    /// or if any periodic task references objects outside the catalog.
    pub fn new(spec: &'a WorkloadSpec, catalog: &'a Catalog) -> Self {
        assert!(
            spec.size.max() <= catalog.db_size(),
            "transaction size {} exceeds database size {}",
            spec.size.max(),
            catalog.db_size()
        );
        for task in &spec.periodic {
            for o in task.read_set.iter().chain(&task.write_set) {
                assert!(
                    o.0 < catalog.db_size(),
                    "periodic task object {o} out of range"
                );
            }
            assert!(
                task.site.0 < catalog.site_count(),
                "periodic task site out of range"
            );
        }
        Generator { spec, catalog }
    }

    /// Generates the full transaction stream, sorted by arrival time:
    /// aperiodic transactions first, then each periodic task's instances,
    /// with same-tick arrivals kept in that generation order.
    ///
    /// Each transaction is built once, straight into the returned list,
    /// with both access sets at exact capacity. Transaction ids are
    /// assigned after sorting, so id order equals arrival order — useful
    /// for debugging, never relied upon by the protocols.
    pub fn generate(&self, seed: u64) -> Vec<TxnSpec> {
        let mut rng = RandomSource::new(seed);
        let mut aperiodic_rng = rng.split();
        let mut periodic_rng = rng.split();

        let instances: usize = self
            .spec
            .periodic
            .iter()
            .map(|t| t.instances as usize)
            .sum();
        let mut txns = Vec::with_capacity(self.spec.txn_count as usize + instances);
        self.generate_aperiodic(&mut aperiodic_rng, &mut txns);
        self.generate_periodic(&mut periodic_rng, &mut txns);

        // Until now each id is the generation index, so sorting on it
        // breaks arrival ties in generation order without the buffer a
        // stable sort allocates.
        txns.sort_unstable_by_key(|t| (t.arrival, t.id));
        for (i, t) in txns.iter_mut().enumerate() {
            t.id = TxnId(i as u64);
        }
        txns
    }

    /// Appends a transaction whose id is its generation index.
    fn push(
        &self,
        out: &mut Vec<TxnSpec>,
        arrival: SimTime,
        read_set: Vec<ObjectId>,
        write_set: Vec<ObjectId>,
        site: SiteId,
    ) {
        let size = (read_set.len() + write_set.len()) as u32;
        let deadline = arrival + self.spec.deadline.offset(size);
        let id = TxnId(out.len() as u64);
        out.push(TxnSpec::new(
            id, arrival, read_set, write_set, deadline, site,
        ));
    }

    fn generate_aperiodic(&self, rng: &mut RandomSource, out: &mut Vec<TxnSpec>) {
        let mut clock = SimTime::ZERO;
        for _ in 0..self.spec.txn_count {
            clock += rng.exponential(self.spec.mean_interarrival);
            let size = self.draw_size(rng);
            let read_only = rng.chance(self.spec.read_only_fraction);
            let (site, read_set, write_set) = if read_only {
                let site = self.random_site(rng);
                let reads = if self.spec.scan_readers {
                    // A contiguous scan range [start, start + size).
                    let start =
                        rng.uniform_inclusive(0, (self.catalog.db_size() - size) as u64) as u32;
                    (start..start + size).map(ObjectId).collect()
                } else {
                    self.sample_objects(rng, size as usize)
                };
                (site, reads, Vec::new())
            } else {
                self.place_update(rng, size)
            };
            self.push(out, clock, read_set, write_set, site);
        }
    }

    fn generate_periodic(&self, _rng: &mut RandomSource, out: &mut Vec<TxnSpec>) {
        for task in &self.spec.periodic {
            for k in 0..task.instances {
                let arrival = SimTime::ZERO + task.period * k as u64;
                let (reads, writes) = (task.read_set.clone(), task.write_set.clone());
                self.push(out, arrival, reads, writes, task.site);
            }
        }
    }

    fn draw_size(&self, rng: &mut RandomSource) -> u32 {
        match self.spec.size {
            SizeDistribution::Fixed(n) => n,
            SizeDistribution::Uniform { min, max } => {
                rng.uniform_inclusive(min as u64, max as u64) as u32
            }
        }
    }

    fn random_site(&self, rng: &mut RandomSource) -> SiteId {
        SiteId(rng.uniform_inclusive(0, self.catalog.site_count() as u64 - 1) as u8)
    }

    /// Objects drawn uniformly from the whole database.
    fn sample_objects(&self, rng: &mut RandomSource, n: usize) -> Vec<ObjectId> {
        object_ids(&rng.sample_distinct(n, self.catalog.db_size() as u64))
    }

    /// Places an update transaction: pick a home site, draw its writes
    /// from that site's primary copies, and its reads from the rest of the
    /// database.
    fn place_update(
        &self,
        rng: &mut RandomSource,
        size: u32,
    ) -> (SiteId, Vec<ObjectId>, Vec<ObjectId>) {
        let size = size as usize;
        let mut writes = ((size as f64) * self.spec.write_fraction).round() as usize;
        writes = writes.clamp(1, size);
        let reads = size - writes;

        if self.catalog.placement() == Placement::SingleSite {
            let objs = rng.sample_distinct(size, self.catalog.db_size() as u64);
            let (read_set, write_set) = objs.split_at(reads);
            return (SiteId(0), object_ids(read_set), object_ids(write_set));
        }

        let site = self.random_site(rng);
        let primaries: Vec<ObjectId> = self.catalog.primaries_at(site).collect();
        assert!(
            primaries.len() >= writes,
            "site {site} holds too few primaries for a {writes}-write transaction"
        );
        // Draw writes from the site's primaries.
        let write_idx = rng.sample_distinct(writes, primaries.len() as u64);
        let write_set: Vec<ObjectId> = write_idx.iter().map(|&i| primaries[i as usize]).collect();
        // Draw reads from the remaining objects (any site; local replicas
        // serve them).
        let mut read_set = Vec::with_capacity(reads);
        while read_set.len() < reads {
            let candidate =
                ObjectId(rng.uniform_inclusive(0, self.catalog.db_size() as u64 - 1) as u32);
            if !write_set.contains(&candidate) && !read_set.contains(&candidate) {
                read_set.push(candidate);
            }
        }
        (site, read_set, write_set)
    }
}

/// Object ids for sampled values, in an exactly sized vector (collecting
/// from the sample's own buffer would keep its larger capacity).
fn object_ids(values: &[u64]) -> Vec<ObjectId> {
    values.iter().map(|&v| ObjectId(v as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::periodic::PeriodicTask;
    use rtdb::TxnKind;
    use starlite::SimDuration;

    fn single_site_catalog() -> Catalog {
        Catalog::new(120, 1, Placement::SingleSite)
    }

    fn replicated_catalog() -> Catalog {
        Catalog::new(90, 3, Placement::FullyReplicated)
    }

    #[test]
    fn determinism() {
        let cat = single_site_catalog();
        let spec = WorkloadSpec::builder()
            .txn_count(40)
            .size(SizeDistribution::Uniform { min: 2, max: 12 })
            .read_only_fraction(0.3)
            .build();
        let a = Generator::new(&spec, &cat).generate(99);
        let b = Generator::new(&spec, &cat).generate(99);
        assert_eq!(a, b);
        let c = Generator::new(&spec, &cat).generate(100);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_sorted_and_ids_sequential() {
        let cat = single_site_catalog();
        let spec = WorkloadSpec::builder().txn_count(30).build();
        let txns = Generator::new(&spec, &cat).generate(1);
        for w in txns.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for (i, t) in txns.iter().enumerate() {
            assert_eq!(t.id, TxnId(i as u64));
        }
    }

    #[test]
    fn sizes_respect_distribution() {
        let cat = single_site_catalog();
        let spec = WorkloadSpec::builder()
            .txn_count(100)
            .size(SizeDistribution::Uniform { min: 3, max: 9 })
            .build();
        for t in Generator::new(&spec, &cat).generate(5) {
            assert!((3..=9).contains(&(t.size() as u32)), "size {}", t.size());
        }
    }

    #[test]
    fn read_only_fraction_zero_and_one() {
        let cat = single_site_catalog();
        let all_update = WorkloadSpec::builder()
            .txn_count(50)
            .read_only_fraction(0.0)
            .build();
        assert!(Generator::new(&all_update, &cat)
            .generate(3)
            .iter()
            .all(|t| t.kind() == TxnKind::Update));
        let all_read = WorkloadSpec::builder()
            .txn_count(50)
            .read_only_fraction(1.0)
            .build();
        assert!(Generator::new(&all_read, &cat)
            .generate(3)
            .iter()
            .all(|t| t.kind() == TxnKind::ReadOnly));
    }

    #[test]
    fn update_writes_are_primary_at_home_site() {
        let cat = replicated_catalog();
        let spec = WorkloadSpec::builder()
            .txn_count(80)
            .size(SizeDistribution::Uniform { min: 2, max: 8 })
            .read_only_fraction(0.0)
            .write_fraction(0.5)
            .build();
        for t in Generator::new(&spec, &cat).generate(11) {
            for &o in &t.write_set {
                assert_eq!(
                    cat.primary_site(o),
                    t.home_site,
                    "write {o} of {} not primary at {}",
                    t.id,
                    t.home_site
                );
            }
        }
    }

    #[test]
    fn update_txns_have_at_least_one_write() {
        let cat = replicated_catalog();
        let spec = WorkloadSpec::builder()
            .txn_count(60)
            .size(SizeDistribution::Uniform { min: 1, max: 4 })
            .read_only_fraction(0.0)
            .write_fraction(0.1)
            .build();
        for t in Generator::new(&spec, &cat).generate(2) {
            assert!(!t.write_set.is_empty(), "{} has no writes", t.id);
        }
    }

    #[test]
    fn deadline_proportional_to_size() {
        let cat = single_site_catalog();
        let spec = WorkloadSpec::builder()
            .txn_count(20)
            .size(SizeDistribution::Uniform { min: 2, max: 10 })
            .deadline(3.0, SimDuration::from_ticks(50))
            .build();
        for t in Generator::new(&spec, &cat).generate(4) {
            let offset = t.deadline.since(t.arrival);
            assert_eq!(offset.ticks(), (t.size() as u64) * 150);
        }
    }

    #[test]
    fn periodic_instances_released_on_schedule() {
        let cat = replicated_catalog();
        let spec = WorkloadSpec::builder()
            .txn_count(1)
            .periodic(PeriodicTask::new(
                SimDuration::from_ticks(500),
                vec![],
                vec![ObjectId(0)], // primary at site 0
                SiteId(0),
                4,
            ))
            .build();
        let txns = Generator::new(&spec, &cat).generate(8);
        let periodic: Vec<&TxnSpec> = txns
            .iter()
            .filter(|t| t.write_set == vec![ObjectId(0)] && t.read_set.is_empty())
            .collect();
        assert_eq!(periodic.len(), 4);
        let arrivals: Vec<u64> = periodic.iter().map(|t| t.arrival.ticks()).collect();
        assert_eq!(arrivals, vec![0, 500, 1000, 1500]);
    }

    #[test]
    fn scan_readers_get_contiguous_ranges() {
        let cat = single_site_catalog();
        let spec = WorkloadSpec::builder()
            .txn_count(60)
            .size(SizeDistribution::Uniform { min: 2, max: 10 })
            .read_only_fraction(1.0)
            .scan_readers(true)
            .build();
        for t in Generator::new(&spec, &cat).generate(17) {
            assert!(t.write_set.is_empty());
            for w in t.read_set.windows(2) {
                assert_eq!(w[1].0, w[0].0 + 1, "{} read set not contiguous", t.id);
            }
            assert!(t.read_set.last().unwrap().0 < cat.db_size());
        }
    }

    #[test]
    fn scan_readers_off_matches_legacy_stream() {
        // The flag must not perturb the RNG when off: the explicit
        // `scan_readers(false)` stream equals the default one.
        let cat = single_site_catalog();
        let base = WorkloadSpec::builder()
            .txn_count(40)
            .read_only_fraction(0.4)
            .build();
        let flagged = WorkloadSpec::builder()
            .txn_count(40)
            .read_only_fraction(0.4)
            .scan_readers(false)
            .build();
        assert_eq!(
            Generator::new(&base, &cat).generate(9),
            Generator::new(&flagged, &cat).generate(9)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds database size")]
    fn oversized_transactions_panic() {
        let cat = Catalog::new(4, 1, Placement::SingleSite);
        let spec = WorkloadSpec::builder()
            .size(SizeDistribution::Fixed(10))
            .build();
        Generator::new(&spec, &cat);
    }
}
