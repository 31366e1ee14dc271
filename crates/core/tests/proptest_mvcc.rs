//! Property-based tests of [`rtlock::mvcc::VersionStore`] against a
//! naive reference model that never evicts anything.
//!
//! The reference keeps every install ever made, so it can answer any
//! read-at-timestamp query exactly. The bounded store must agree with it
//! whenever it claims a snapshot is constructible, must never fail a
//! query a live pin protects, and must shrink back to the `keep` bound
//! once pins close.

use std::collections::HashMap;

use proptest::prelude::*;
use rtdb::{ObjectId, TxnId};
use rtlock::mvcc::{SnapshotId, SnapshotRead, VersionStore};
use starlite::SimTime;

const OBJECTS: u32 = 4;
const KEEP: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    /// Install the next version of an object, `dt` ticks after the
    /// previous operation.
    Install { obj: u32, dt: u64 },
    /// Pin a snapshot `back` ticks in the past.
    Pin { back: u64 },
    /// Unpin the `idx`-th open pin (modulo however many are open).
    Unpin { idx: usize },
    /// Sweep every chain.
    Gc,
    /// Read an object `back` ticks in the past (unpinned probe).
    Read { obj: u32, back: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..OBJECTS, 1u64..200).prop_map(|(obj, dt)| Op::Install { obj, dt }),
        2 => (0u64..500).prop_map(|back| Op::Pin { back }),
        2 => (0usize..8).prop_map(|idx| Op::Unpin { idx }),
        1 => Just(Op::Gc),
        3 => (0u32..OBJECTS, 0u64..500).prop_map(|(obj, back)| Op::Read { obj, back }),
    ]
}

/// The naive model: the full, never-evicted history of every object.
#[derive(Default)]
struct Naive {
    installs: HashMap<ObjectId, Vec<(SimTime, u64, u64)>>, // (at, version, value)
}

impl Naive {
    fn install(&mut self, obj: ObjectId, at: SimTime, value: u64) -> u64 {
        let chain = self.installs.entry(obj).or_default();
        let version = chain.last().map_or(1, |&(_, v, _)| v + 1);
        chain.push((at, version, value));
        version
    }

    /// The version number a read at `t` must observe (0 = initial value).
    fn read_at(&self, obj: ObjectId, t: SimTime) -> (u64, Option<u64>) {
        self.installs
            .get(&obj)
            .and_then(|chain| chain.iter().rev().find(|&&(at, _, _)| at <= t))
            .map_or((0, None), |&(_, v, value)| (v, Some(value)))
    }
}

/// One constructible store read must agree with the naive model.
fn check_agreement(store: &VersionStore, naive: &Naive, obj: ObjectId, t: SimTime) {
    let (expected_version, expected_value) = naive.read_at(obj, t);
    match store.read_at(obj, t) {
        SnapshotRead::Version(v) => {
            assert_eq!(
                (v.version, Some(v.value)),
                (expected_version, expected_value),
                "constructible read of {obj} at {t:?} disagrees with the full history"
            );
        }
        SnapshotRead::Initial => {
            assert_eq!(
                expected_version, 0,
                "store served the initial value of {obj} at {t:?}, but history has v{expected_version}"
            );
        }
        // Eviction is legal only past the `keep` bound — and never for a
        // pinned time; the pinned-read check below enforces the latter.
        SnapshotRead::Evicted => {
            assert!(
                store.version_count(obj) >= 1,
                "an object with no retained versions cannot have evicted history"
            );
        }
    }
}

proptest! {
    /// Random install/pin/unpin/gc/read interleavings: every claim the
    /// bounded store makes matches the unbounded reference, pinned reads
    /// never hit eviction, and chains shrink once pins close.
    #[test]
    fn version_store_matches_naive_model(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut store = VersionStore::new(KEEP);
        let mut naive = Naive::default();
        let mut now = SimTime::ZERO;
        // Open pins with the per-object view frozen at pin time. A pin
        // taken after the needed history was already evicted is
        // legitimately unconstructible (the simulators' `unconstructible`
        // counter); what the watermark guarantees is that the view can
        // never *degrade* while the pin is live.
        let mut open: Vec<(SnapshotId, SimTime, Vec<SnapshotRead>)> = Vec::new();
        let mut value = 0u64;

        for op in &ops {
            match *op {
                Op::Install { obj, dt } => {
                    now = SimTime::from_ticks(now.ticks() + dt);
                    value += 1;
                    let obj = ObjectId(obj);
                    // Versions are numbered per object, as the simulators'
                    // object stores number committed writes. An in-order
                    // install is neither dropped nor clamped.
                    let version = naive.install(obj, now, value);
                    let install = store.install_if_newer(obj, value, version, TxnId(value), now);
                    prop_assert_eq!(
                        install.map(|i| (i.version, i.at)),
                        Some((version, now)),
                        "in-order install of {} dropped or clamped", obj
                    );
                }
                Op::Pin { back } => {
                    let at = SimTime::from_ticks(now.ticks().saturating_sub(back));
                    let view = (0..OBJECTS)
                        .map(|o| store.read_at(ObjectId(o), at))
                        .collect();
                    open.push((store.pin(at), at, view));
                }
                Op::Unpin { idx } => {
                    if !open.is_empty() {
                        let (id, _, _) = open.remove(idx % open.len());
                        prop_assert!(store.unpin(id), "open pin failed to unpin");
                    }
                }
                Op::Gc => {
                    store.gc();
                }
                Op::Read { obj, back } => {
                    let t = SimTime::from_ticks(now.ticks().saturating_sub(back));
                    check_agreement(&store, &naive, ObjectId(obj), t);
                }
            }

            // A live pin's view is frozen: whatever each object read at
            // pin time, it reads now — installs land strictly after the
            // pin, and the watermark forbids GC from degrading a
            // constructible pinned read to Evicted.
            for (_, at, view) in &open {
                for (o, &frozen) in view.iter().enumerate() {
                    let obj = ObjectId(o as u32);
                    prop_assert_eq!(
                        store.read_at(obj, *at),
                        frozen,
                        "the pinned view at {:?} changed for {}", at, obj
                    );
                    check_agreement(&store, &naive, obj, *at);
                }
            }

            // The latest version is always retained and always agrees.
            for o in 0..OBJECTS {
                check_agreement(&store, &naive, ObjectId(o), now);
            }
        }

        // With every pin closed, a sweep returns each chain to `keep`.
        for (id, _, _) in open.drain(..) {
            prop_assert!(store.unpin(id));
        }
        store.gc();
        for o in 0..OBJECTS {
            prop_assert!(
                store.version_count(ObjectId(o)) <= KEEP,
                "chain exceeds the retention bound with no pins open"
            );
        }
    }

    /// `install_if_newer` with shuffled replica propagation: stale
    /// versions are dropped, the surviving chain stays time-ordered, and
    /// reads at or past the newest install agree with the primary.
    #[test]
    fn replica_store_converges_under_reordering(
        seed_ops in prop::collection::vec((0u32..OBJECTS, 1u64..100), 1..40),
        swaps in prop::collection::vec((0usize..40, 0usize..40), 0..20),
    ) {
        // Primary history: in-order installs.
        let mut primary = Naive::default();
        let mut now = SimTime::ZERO;
        let mut feed = Vec::new(); // (obj, at, version, value)
        for (i, &(obj, dt)) in seed_ops.iter().enumerate() {
            now = SimTime::from_ticks(now.ticks() + dt);
            let value = i as u64 + 1;
            let version = primary.install(ObjectId(obj), now, value);
            feed.push((ObjectId(obj), now, version, value));
        }

        // The replica sees the feed slightly out of order.
        let mut shuffled = feed.clone();
        for &(a, b) in &swaps {
            let (a, b) = (a % shuffled.len(), b % shuffled.len());
            shuffled.swap(a, b);
        }
        let mut replica = VersionStore::new(KEEP + seed_ops.len()); // no keep-evictions
        for &(obj, at, version, value) in &shuffled {
            replica.install_if_newer(obj, value, version, TxnId(version), at);
        }

        for o in 0..OBJECTS {
            let obj = ObjectId(o);
            // Chains stay time-ordered even when propagation clamped
            // non-monotone stamps.
            let mut prev = SimTime::ZERO;
            for v in (1..).map_while(|n| replica.find_version(obj, n)) {
                prop_assert!(v.at >= prev, "replica chain out of time order");
                prev = v.at;
            }
            // At the horizon the replica agrees with the primary on the
            // latest surviving version number.
            let (expected_version, _) = primary.read_at(obj, now);
            let latest = replica.latest(obj).map_or(0, |v| v.version);
            prop_assert!(
                latest <= expected_version,
                "replica fabricated a version the primary never wrote"
            );
            // Every version the replica retained matches the primary's
            // value for that version number.
            for v in (1..).map_while(|n| replica.find_version(obj, n)) {
                let fed = feed.iter().find(|&&(o2, _, n, _)| o2 == obj && n == v.version);
                prop_assert!(fed.is_some_and(|&(_, _, _, value)| value == v.value));
            }
        }
    }
}
