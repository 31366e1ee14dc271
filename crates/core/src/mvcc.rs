//! Multiversion, temporally consistent reads (§4's closing mechanism).
//!
//! The paper observes that applications like tracking sometimes need a
//! *temporally consistent* view rather than merely the freshest value at
//! each site: "if the system provides multiple versions of data objects,
//! ensuring a temporally consistent view becomes a real-time scheduling
//! problem in which the time lags in the distributed versions need to be
//! controlled. Once the time lags can be controlled by the timestamps of
//! data objects, transactions can read the proper versions of distributed
//! data objects."
//!
//! [`VersionStore`] keeps a bounded history of timestamped versions per
//! object and serves *read-at-timestamp* queries: a query with timestamp
//! `t` sees, for every object, the latest version committed at or before
//! `t` — a consistent snapshot even while newer updates stream in. A
//! [`SnapshotRead`] distinguishes three outcomes: a retained [`Version`],
//! the object's *initial* value (the pin predates every write and no
//! history is missing), or *evicted* (the needed version is gone — the
//! temporal-consistency scheduling problem the paper mentions: retention
//! must outlast the largest read lag).
//!
//! Retention is governed by two forces. The `keep` bound caps each
//! object's chain, but garbage collection is *watermark-based*: a live
//! snapshot [`pin`](VersionStore::pin) holds back eviction of any version
//! some pinned reader still needs, so chains may transiently exceed
//! `keep` while old snapshots are open and shrink back once they
//! [`unpin`](VersionStore::unpin).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use rtdb::{ObjectId, TxnId};
use starlite::{FxHashMap, SimTime};

/// One committed version of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// The committed value.
    pub value: u64,
    /// The writer's version counter (1-based).
    pub version: u64,
    /// Commit timestamp.
    pub at: SimTime,
    /// The committing transaction.
    pub writer: TxnId,
}

/// The outcome of a read-at-timestamp query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotRead {
    /// The latest retained version committed at or before the pin.
    Version(Version),
    /// The pin precedes every write of the object and no history is
    /// missing: the snapshot is served by the object's initial value.
    Initial,
    /// The version the pin needs was evicted (or never propagated to
    /// this store): the snapshot is unconstructible here.
    Evicted,
}

impl SnapshotRead {
    /// The retained version, if the read resolved to one.
    pub fn version(self) -> Option<Version> {
        match self {
            SnapshotRead::Version(v) => Some(v),
            _ => None,
        }
    }

    /// The version number the snapshot observes: the retained version's
    /// counter, or 0 for the initial value. `None` when unconstructible.
    pub fn number(self) -> Option<u64> {
        match self {
            SnapshotRead::Version(v) => Some(v.version),
            SnapshotRead::Initial => Some(0),
            SnapshotRead::Evicted => None,
        }
    }

    /// The observed value, with `initial` standing in for the pre-history
    /// state. `None` when unconstructible.
    pub fn value_or(self, initial: u64) -> Option<u64> {
        match self {
            SnapshotRead::Version(v) => Some(v.value),
            SnapshotRead::Initial => Some(initial),
            SnapshotRead::Evicted => None,
        }
    }

    /// Whether the needed version was evicted.
    pub fn is_evicted(self) -> bool {
        matches!(self, SnapshotRead::Evicted)
    }
}

/// Handle of a live snapshot pin (see [`VersionStore::pin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapshotId(u64);

/// What an install did: the version number it installed, the instant it
/// stamped it with, and the highest version number garbage-collected as
/// a side effect, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Install {
    /// The installed version's counter.
    pub version: u64,
    /// The installed version's timestamp: the one given, or the chain
    /// tail's when that was later.
    pub at: SimTime,
    /// Versions numbered `..= evicted_through` were evicted from this
    /// object's chain by the install (watermark permitting).
    pub evicted_through: Option<u64>,
}

/// A bounded multiversion store for temporally consistent reads.
///
/// # Example
///
/// ```
/// use rtlock::mvcc::{SnapshotRead, VersionStore};
/// use rtdb::{ObjectId, TxnId};
/// use starlite::SimTime;
///
/// let mut store = VersionStore::new(4);
/// store.install_if_newer(ObjectId(0), 10, 1, TxnId(1), SimTime::from_ticks(100));
/// store.install_if_newer(ObjectId(0), 20, 2, TxnId(2), SimTime::from_ticks(200));
/// // A query pinned at t=150 sees the older version.
/// let v = store.read_at(ObjectId(0), SimTime::from_ticks(150)).version().unwrap();
/// assert_eq!(v.value, 10);
/// // A query pinned before the first write sees the initial value.
/// assert_eq!(store.read_at(ObjectId(0), SimTime::from_ticks(50)), SnapshotRead::Initial);
/// ```
pub struct VersionStore {
    keep: usize,
    versions: FxHashMap<ObjectId, VecDeque<Version>>,
    /// Live pin timestamps, with multiplicity: the first key is the GC
    /// watermark (no version a pin at or after it needs may be evicted).
    pins: BTreeMap<SimTime, u32>,
    pin_times: FxHashMap<u64, SimTime>,
    next_pin: u64,
}

impl fmt::Debug for VersionStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionStore")
            .field("objects", &self.versions.len())
            .field("keep", &self.keep)
            .field("pins", &self.pin_times.len())
            .finish()
    }
}

impl VersionStore {
    /// Creates a store retaining at most `keep` versions per object
    /// (more while live pins hold eviction back).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero.
    pub fn new(keep: usize) -> Self {
        assert!(keep > 0, "must retain at least one version");
        VersionStore {
            keep,
            versions: FxHashMap::default(),
            pins: BTreeMap::new(),
            pin_times: FxHashMap::default(),
            next_pin: 0,
        }
    }

    /// Opens a snapshot pinned at `at`. Until the returned handle is
    /// [`unpin`](VersionStore::unpin)ned, garbage collection will not
    /// evict any version a read at `at` needs (including the knowledge
    /// that the initial value is still valid before the first write).
    pub fn pin(&mut self, at: SimTime) -> SnapshotId {
        let id = self.next_pin;
        self.next_pin += 1;
        *self.pins.entry(at).or_insert(0) += 1;
        self.pin_times.insert(id, at);
        SnapshotId(id)
    }

    /// Closes a snapshot. Returns `false` if the handle was already
    /// closed. Space held back by the pin is reclaimed lazily: on the
    /// next install of each affected object, or by [`gc`](Self::gc).
    pub fn unpin(&mut self, id: SnapshotId) -> bool {
        let Some(at) = self.pin_times.remove(&id.0) else {
            return false;
        };
        match self.pins.get_mut(&at) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.pins.remove(&at);
            }
        }
        true
    }

    /// The GC watermark: the oldest live pin. `None` when no snapshot is
    /// open (eviction is then governed by the `keep` bound alone).
    pub fn watermark(&self) -> Option<SimTime> {
        self.pins.keys().next().copied()
    }

    /// Number of live pins.
    pub fn pin_count(&self) -> usize {
        self.pin_times.len()
    }

    /// Evicts from the front of `chain` while it exceeds `keep` and the
    /// watermark permits, returning the highest evicted version number.
    ///
    /// The front version serves pins in `[front.at, successor.at)`, and
    /// pins before `front.at` rely on the front to certify whether the
    /// initial value is still constructible — so the front may go only
    /// when every live pin is at or after its successor's timestamp.
    fn evict_excess(
        keep: usize,
        watermark: Option<SimTime>,
        chain: &mut VecDeque<Version>,
    ) -> Option<u64> {
        let mut evicted = None;
        while chain.len() > keep {
            let successor_at = chain[1].at;
            if watermark.is_some_and(|wm| wm < successor_at) {
                break; // a live pin still needs the front
            }
            let gone = chain.pop_front().expect("len > keep >= 1");
            evicted = Some(gone.version);
        }
        evicted
    }

    /// Installs a committed version, numbered by the object store that
    /// applied the write, discarding it when a newer one is already
    /// present (asynchronous replica propagation can apply updates of
    /// *different* objects out of order; per object the version numbers
    /// are authoritative). A timestamp earlier than the chain tail is
    /// clamped to the tail's so the chain stays time-ordered — the reverse
    /// scan in [`read_at`](Self::read_at) depends on it.
    ///
    /// Returns what was installed, or `None` if the version was stale.
    pub fn install_if_newer(
        &mut self,
        obj: ObjectId,
        value: u64,
        version: u64,
        writer: TxnId,
        at: SimTime,
    ) -> Option<Install> {
        let entry = self.versions.entry(obj).or_default();
        let at = match entry.back() {
            Some(v) if version <= v.version => return None,
            // Clamp a non-monotone timestamp: the version order is
            // authoritative, and read_at's reverse scan requires
            // non-decreasing `at` along the chain.
            Some(v) => at.max(v.at),
            None => at,
        };
        entry.push_back(Version {
            value,
            version,
            at,
            writer,
        });
        debug_assert!(
            entry
                .iter()
                .zip(entry.iter().skip(1))
                .all(|(a, b)| a.at <= b.at),
            "chain must stay time-ordered"
        );
        let watermark = self.pins.keys().next().copied();
        let evicted_through = Self::evict_excess(self.keep, watermark, entry);
        Some(Install {
            version,
            at,
            evicted_through,
        })
    }

    /// Sweeps every chain, evicting versions the `keep` bound marks
    /// excess and the watermark no longer protects (pins hold space back
    /// only lazily — installs evict eagerly, this reclaims the rest after
    /// an [`unpin`](Self::unpin)). Returns `(object, evicted_through)`
    /// for each object that shrank.
    pub fn gc(&mut self) -> Vec<(ObjectId, u64)> {
        let watermark = self.pins.keys().next().copied();
        let mut evicted = Vec::new();
        for (&obj, chain) in &mut self.versions {
            if let Some(through) = Self::evict_excess(self.keep, watermark, chain) {
                evicted.push((obj, through));
            }
        }
        evicted
    }

    /// The latest version of `obj`, if any.
    pub fn latest(&self, obj: ObjectId) -> Option<Version> {
        self.versions.get(&obj).and_then(|v| v.back().copied())
    }

    /// The oldest *retained* version of `obj`, if any. When its version
    /// number is 1 no history has been evicted, so any snapshot older
    /// than it is served by the object's initial value.
    pub fn oldest(&self, obj: ObjectId) -> Option<Version> {
        self.versions.get(&obj).and_then(|v| v.front().copied())
    }

    /// The snapshot of `obj` at `t`: the latest version committed at or
    /// before `t`, the initial value when `t` precedes all retained
    /// history *and* none has been evicted, or [`SnapshotRead::Evicted`]
    /// when the needed version is gone.
    pub fn read_at(&self, obj: ObjectId, t: SimTime) -> SnapshotRead {
        let Some(chain) = self.versions.get(&obj) else {
            return SnapshotRead::Initial; // never written here
        };
        if let Some(v) = chain.iter().rev().find(|v| v.at <= t) {
            return SnapshotRead::Version(*v);
        }
        // Every retained version is newer than `t`. Version 1 at the
        // front certifies nothing was evicted (and nothing skipped by
        // replica propagation): the initial value serves the snapshot.
        if chain.front().is_none_or(|f| f.version == 1) {
            SnapshotRead::Initial
        } else {
            SnapshotRead::Evicted
        }
    }

    /// The staleness (time lag) of the snapshot at `t` for `obj`: how far
    /// behind the latest version the visible version is. `None` when the
    /// object has no versions or the snapshot is unconstructible.
    pub fn lag_at(&self, obj: ObjectId, t: SimTime) -> Option<starlite::SimDuration> {
        let latest = self.latest(obj)?;
        match self.read_at(obj, t) {
            SnapshotRead::Version(seen) => Some(latest.at.saturating_since(seen.at)),
            // The pin predates all history: the view has been stale since
            // the dawn of the simulation.
            SnapshotRead::Initial => Some(latest.at.saturating_since(SimTime::ZERO)),
            SnapshotRead::Evicted => None,
        }
    }

    /// The retained version of `obj` with the given version number.
    pub fn find_version(&self, obj: ObjectId, version: u64) -> Option<Version> {
        self.versions
            .get(&obj)?
            .iter()
            .find(|v| v.version == version)
            .copied()
    }

    /// Number of retained versions of `obj`.
    pub fn version_count(&self, obj: ObjectId) -> usize {
        self.versions.get(&obj).map_or(0, VecDeque::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_at_picks_snapshot_version() {
        let mut s = VersionStore::new(8);
        for (n, v, t) in [(1, 10, 100), (2, 20, 200), (3, 30, 300)] {
            s.install_if_newer(ObjectId(0), v, n, TxnId(v), SimTime::from_ticks(t));
        }
        assert_eq!(
            s.read_at(ObjectId(0), SimTime::from_ticks(250))
                .version()
                .unwrap()
                .value,
            20
        );
        assert_eq!(
            s.read_at(ObjectId(0), SimTime::from_ticks(300))
                .version()
                .unwrap()
                .value,
            30
        );
        // Before the first write with nothing evicted: the snapshot is
        // the object's initial value, not "unconstructible".
        assert_eq!(
            s.read_at(ObjectId(0), SimTime::from_ticks(50)),
            SnapshotRead::Initial
        );
        assert_eq!(
            s.read_at(ObjectId(0), SimTime::from_ticks(50)).value_or(7),
            Some(7)
        );
        // An object this store never saw is all initial value too.
        assert_eq!(
            s.read_at(ObjectId(9), SimTime::from_ticks(1)),
            SnapshotRead::Initial
        );
    }

    #[test]
    fn retention_bound_evicts_oldest() {
        let mut s = VersionStore::new(2);
        for (n, v, t) in [(1, 10, 100), (2, 20, 200), (3, 30, 300)] {
            s.install_if_newer(ObjectId(0), v, n, TxnId(v), SimTime::from_ticks(t));
        }
        assert_eq!(s.version_count(ObjectId(0)), 2);
        // t=150 needs the evicted version 10: genuinely unconstructible —
        // distinct from the pre-history Initial case above.
        assert_eq!(
            s.read_at(ObjectId(0), SimTime::from_ticks(150)),
            SnapshotRead::Evicted
        );
        // And once history is evicted, even a pre-history pin can no
        // longer be certified as the initial value.
        assert_eq!(
            s.read_at(ObjectId(0), SimTime::from_ticks(50)),
            SnapshotRead::Evicted
        );
    }

    #[test]
    fn pin_holds_back_eviction_until_unpin() {
        let mut s = VersionStore::new(2);
        s.install_if_newer(ObjectId(0), 10, 1, TxnId(1), SimTime::from_ticks(100));
        s.install_if_newer(ObjectId(0), 20, 2, TxnId(2), SimTime::from_ticks(200));
        let pin = s.pin(SimTime::from_ticks(150));
        // The pin at t=150 needs version 1; installing more must not
        // evict it even though the chain exceeds `keep`.
        s.install_if_newer(ObjectId(0), 30, 3, TxnId(3), SimTime::from_ticks(300));
        s.install_if_newer(ObjectId(0), 40, 4, TxnId(4), SimTime::from_ticks(400));
        assert_eq!(s.version_count(ObjectId(0)), 4);
        assert_eq!(
            s.read_at(ObjectId(0), SimTime::from_ticks(150))
                .version()
                .unwrap()
                .value,
            10
        );
        assert!(s.unpin(pin));
        assert!(!s.unpin(pin), "double unpin is ignored");
        let evicted = s.gc();
        assert_eq!(evicted, vec![(ObjectId(0), 2)]);
        assert_eq!(s.version_count(ObjectId(0)), 2);
        assert!(s
            .read_at(ObjectId(0), SimTime::from_ticks(150))
            .is_evicted());
    }

    #[test]
    fn pre_history_pin_protects_the_front() {
        let mut s = VersionStore::new(1);
        s.install_if_newer(ObjectId(0), 10, 1, TxnId(1), SimTime::from_ticks(100));
        // A pin before all history must keep the Initial certificate: the
        // version-1 front may not be evicted while it is live.
        let pin = s.pin(SimTime::from_ticks(50));
        s.install_if_newer(ObjectId(0), 20, 2, TxnId(2), SimTime::from_ticks(200));
        assert_eq!(
            s.read_at(ObjectId(0), SimTime::from_ticks(50)),
            SnapshotRead::Initial
        );
        s.unpin(pin);
        s.gc();
        assert_eq!(s.version_count(ObjectId(0)), 1);
        assert!(s.read_at(ObjectId(0), SimTime::from_ticks(50)).is_evicted());
    }

    #[test]
    fn watermark_tracks_oldest_pin() {
        let mut s = VersionStore::new(2);
        assert_eq!(s.watermark(), None);
        let a = s.pin(SimTime::from_ticks(300));
        let b = s.pin(SimTime::from_ticks(100));
        let c = s.pin(SimTime::from_ticks(100));
        assert_eq!(s.watermark(), Some(SimTime::from_ticks(100)));
        s.unpin(b);
        assert_eq!(s.watermark(), Some(SimTime::from_ticks(100)));
        s.unpin(c);
        assert_eq!(s.watermark(), Some(SimTime::from_ticks(300)));
        s.unpin(a);
        assert_eq!(s.watermark(), None);
        assert_eq!(s.pin_count(), 0);
    }

    #[test]
    fn lag_measures_staleness() {
        let mut s = VersionStore::new(8);
        s.install_if_newer(ObjectId(0), 1, 1, TxnId(1), SimTime::from_ticks(100));
        s.install_if_newer(ObjectId(0), 2, 2, TxnId(2), SimTime::from_ticks(400));
        let lag = s.lag_at(ObjectId(0), SimTime::from_ticks(200)).unwrap();
        assert_eq!(lag.ticks(), 300);
        assert_eq!(
            s.lag_at(ObjectId(0), SimTime::from_ticks(500))
                .unwrap()
                .ticks(),
            0
        );
    }

    #[test]
    fn install_reports_evictions() {
        let mut s = VersionStore::new(2);
        for (n, v, t) in [(1, 10, 100), (2, 20, 200)] {
            let out = s.install_if_newer(ObjectId(0), v, n, TxnId(v), SimTime::from_ticks(t));
            assert_eq!(out.expect("newer").evicted_through, None);
        }
        let out = s.install_if_newer(ObjectId(0), 30, 3, TxnId(30), SimTime::from_ticks(300));
        assert_eq!(out.expect("newer").evicted_through, Some(1));
    }

    #[test]
    fn oldest_reports_retention_front() {
        let mut s = VersionStore::new(2);
        for (n, v, t) in [(1, 10, 100), (2, 20, 200), (3, 30, 300)] {
            s.install_if_newer(ObjectId(0), v, n, TxnId(v), SimTime::from_ticks(t));
        }
        assert_eq!(s.oldest(ObjectId(0)).unwrap().version, 2);
        assert!(s.oldest(ObjectId(1)).is_none());
    }

    #[test]
    fn install_if_newer_rejects_stale_versions() {
        let mut s = VersionStore::new(8);
        assert!(s
            .install_if_newer(ObjectId(0), 5, 2, TxnId(1), SimTime::from_ticks(10))
            .is_some());
        assert!(s
            .install_if_newer(ObjectId(0), 4, 1, TxnId(2), SimTime::from_ticks(12))
            .is_none());
        assert!(s
            .install_if_newer(ObjectId(0), 4, 2, TxnId(2), SimTime::from_ticks(12))
            .is_none());
        assert!(s
            .install_if_newer(ObjectId(0), 6, 3, TxnId(2), SimTime::from_ticks(12))
            .is_some());
        assert_eq!(s.latest(ObjectId(0)).unwrap().version, 3);
    }

    #[test]
    fn install_if_newer_clamps_non_monotone_timestamps() {
        let mut s = VersionStore::new(8);
        s.install_if_newer(ObjectId(0), 1, 1, TxnId(1), SimTime::from_ticks(100));
        // Version 2 arrives stamped *earlier* than version 1 (clock skew
        // between sites): its timestamp is clamped so the chain stays
        // time-ordered and the reverse scan stays correct.
        let v2 = s.install_if_newer(ObjectId(0), 2, 2, TxnId(2), SimTime::from_ticks(40));
        assert_eq!(v2.expect("newer").at, SimTime::from_ticks(100));
        assert_eq!(s.find_version(ObjectId(0), 2).unwrap().at, v2.unwrap().at);
        // A read at t=60 precedes every (clamped) version and serves the
        // initial value — the broken unclamped chain used to serve v2 here
        // because the reverse scan stopped at its stale t=40 stamp.
        assert_eq!(
            s.read_at(ObjectId(0), SimTime::from_ticks(60)).number(),
            Some(0)
        );
        // At the clamped timestamp the newest version wins.
        assert_eq!(
            s.read_at(ObjectId(0), SimTime::from_ticks(100)).number(),
            Some(2)
        );
    }

    #[test]
    fn replica_with_missing_prefix_is_unconstructible_before_front() {
        let mut s = VersionStore::new(8);
        // Version 1 never reached this replica (e.g. the site was down):
        // pre-front reads cannot be served by the initial value.
        s.install_if_newer(ObjectId(0), 3, 3, TxnId(3), SimTime::from_ticks(300));
        assert!(s
            .read_at(ObjectId(0), SimTime::from_ticks(100))
            .is_evicted());
    }
}
