//! Contention attribution: *where* blocked time came from.
//!
//! The paper's figures reduce every protocol comparison to blocked time;
//! [`ContentionProfiler`] is the sink that attributes it. It watches the
//! same blocking episodes [`crate::MetricsSink`] measures, under the one
//! rule of [`crate::EpisodeEdge`] — an episode opens at the first
//! `LockBlocked`/`CeilingBlocked`/`RangeLatchBlocked` of a transaction and
//! closes at its next `LockGranted`/`LockUpgraded`/`RangeLatchAcquired`/
//! `TxnAborted` — and charges each closed episode to the object (a
//! range-latch wait is charged to the range's first object), blocker
//! edge, and priority band involved. The identical open/close rule is
//! load-bearing: the per-object blocked-time total sums *exactly* to
//! `MetricsSink::blocking().total()` (asserted by `tests/profiling.rs`),
//! so the profile is a lossless decomposition of the aggregate, not a
//! second approximate measurement.
//!
//! On top of episode attribution it tracks blocking-chain depth (how many
//! waiters deep a transaction stood when it blocked), per-site RPC
//! latency — matched FIFO per link from `MsgSent` to `MsgDelivered`,
//! which under fault-plan jitter is an approximation since deliveries
//! may reorder — and per-site RPC retry counts.

use rtdb::{ObjectId, SiteId, TxnId};
use starlite::{EventSink, FxHashMap, Priority, SimTime};

use crate::events::{EpisodeEdge, SimEvent, SimEventKind, Via};
use crate::hist::Histogram;

/// Priority bands: transactions are split into tertiles of the observed
/// arrival (base) priorities.
pub const BAND_COUNT: usize = 3;

/// Band display names, most urgent first: `bands[0]` is the top tertile.
pub const BAND_NAMES: [&str; BAND_COUNT] = ["high", "mid", "low"];

#[derive(Debug, Clone, Copy)]
struct OpenEpisode {
    since: SimTime,
    object: ObjectId,
    blocker: Option<TxnId>,
    via: Via,
    /// Chain depth at open: 1 + the open-waiter chain length above the
    /// blocker.
    depth: u32,
}

/// One closed blocking episode (all are kept, so priority bands, which
/// depend on the full run's priority distribution, can be assigned in
/// `finish`).
#[derive(Debug, Clone, Copy)]
pub struct Episode {
    /// The object waited on (a range-latch wait: the range's first).
    pub object: ObjectId,
    /// The transaction that waited.
    pub blocked: TxnId,
    /// Who held the resource, when the event named one.
    pub blocker: Option<TxnId>,
    /// Ticks from the block to its close.
    pub ticks: u64,
    /// What the episode waited on.
    pub via: Via,
    /// Chain depth when the episode opened (a direct wait behind a
    /// running holder is 1).
    depth: u32,
}

/// Per-object contention in the finished report.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectContention {
    /// The contended object.
    pub object: ObjectId,
    /// Total blocked ticks charged to the object.
    pub blocked_ticks: u64,
    /// Closed blocking episodes on the object.
    pub episodes: u64,
    /// Episodes that were ceiling (admission) blocks rather than direct
    /// lock conflicts.
    pub ceiling_episodes: u64,
    /// Blocked ticks split by the *waiter's* priority band
    /// ([`BAND_NAMES`] order: high, mid, low).
    pub by_band: [u64; BAND_COUNT],
}

/// One blocker→blocked edge in the finished report.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingEdge {
    /// The transaction that held the resource (or the ceiling).
    pub blocker: TxnId,
    /// The transaction that waited.
    pub blocked: TxnId,
    /// Closed episodes on this edge.
    pub count: u64,
    /// Total ticks the blocked transaction waited behind the blocker.
    pub ticks: u64,
    /// The portion of `ticks` that was a priority inversion: the waiter's
    /// base priority was strictly higher than the blocker's.
    pub inversion_ticks: u64,
}

/// Blocking-chain depth statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChainStats {
    /// Deepest chain observed (a direct wait behind a running holder is
    /// depth 1).
    pub max_depth: u32,
    /// Sum of depths over all closed episodes (for the mean).
    pub total_depth: u64,
    /// Closed episodes counted.
    pub episodes: u64,
}

impl ChainStats {
    /// Mean chain depth over closed episodes (0 when none).
    pub fn mean_depth(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.total_depth as f64 / self.episodes as f64
        }
    }
}

/// Per-site RPC statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRpc {
    /// The sending site the latencies are attributed to.
    pub site: SiteId,
    /// Send→delivery latency of matched messages, in ticks.
    pub latency: Histogram,
    /// RPC retry attempt numbers observed at the site.
    pub retries: Histogram,
}

/// The finished contention profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionReport {
    /// Total blocked ticks over all closed episodes (equals
    /// `MetricsSink::blocking().total()` for the same stream).
    pub total_blocked_ticks: u64,
    /// Closed blocking episodes.
    pub episodes: u64,
    /// Hottest objects, sorted by blocked ticks descending (ties by
    /// object id), truncated to the requested top-K.
    pub objects: Vec<ObjectContention>,
    /// Objects with at least one episode before top-K truncation.
    pub contended_objects: u64,
    /// Blocker→blocked edges, sorted by ticks descending (ties by ids),
    /// truncated to the requested top-K.
    pub edges: Vec<BlockingEdge>,
    /// Total priority-inversion ticks across *all* edges.
    pub inversion_ticks: u64,
    /// Blocking-chain depth statistics.
    pub chain: ChainStats,
    /// Priority band boundaries: a waiter with base priority ≥
    /// `band_floors[b]` falls in band `b` or above. Empty when no
    /// transaction arrived.
    pub band_floors: Vec<i64>,
    /// Blocked ticks per waiter band ([`BAND_NAMES`] order).
    pub blocked_by_band: [u64; BAND_COUNT],
    /// Per-site RPC latency/retry histograms, sorted by site id; empty
    /// for single-site runs with no traffic.
    pub rpc: Vec<SiteRpc>,
}

impl ContentionReport {
    /// Formats the top hot objects as a one-line summary, e.g.
    /// `O17(1234t) O3(980t) O99(55t)`.
    pub fn hot_objects_line(&self, k: usize) -> String {
        if self.objects.is_empty() {
            return String::from("none");
        }
        self.objects
            .iter()
            .take(k)
            .map(|o| format!("{}({}t)", o.object, o.blocked_ticks))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[derive(Debug, Default)]
struct LinkState {
    /// Send timestamps of in-flight messages, FIFO.
    in_flight: std::collections::VecDeque<SimTime>,
    /// Drops-at-send observed before their own `MsgSent` journal entry
    /// (the drop is emitted inside the handler, the send on the journal
    /// drain after it): the next `MsgSent` on the link is cancelled.
    pending_cancels: u32,
}

/// The contention-attribution sink. Feed it a [`SimEvent`] stream (live
/// via `execute_with`, or replayed from a JSONL trace) and call
/// [`ContentionProfiler::finish`].
#[derive(Debug, Default)]
pub struct ContentionProfiler {
    priorities: FxHashMap<TxnId, Priority>,
    open: FxHashMap<TxnId, OpenEpisode>,
    closed: Vec<Episode>,
    links: FxHashMap<(SiteId, SiteId), LinkState>,
    rpc_latency: FxHashMap<SiteId, Histogram>,
    rpc_retries: FxHashMap<SiteId, Histogram>,
}

impl ContentionProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        ContentionProfiler::default()
    }

    fn chain_depth(&self, blocker: Option<TxnId>) -> u32 {
        let mut depth = 1u32;
        let mut cursor = blocker;
        // Follow the open-waiter chain above the blocker. The walk is
        // bounded so a (theoretically impossible) wait cycle cannot hang
        // the profiler.
        while let Some(b) = cursor {
            if depth >= 64 {
                break;
            }
            match self.open.get(&b) {
                Some(ep) => {
                    depth += 1;
                    cursor = ep.blocker;
                }
                None => break,
            }
        }
        depth
    }

    fn open_episode(
        &mut self,
        at: SimTime,
        txn: TxnId,
        object: ObjectId,
        blocker: Option<TxnId>,
        via: Via,
    ) {
        // First-win, exactly like MetricsSink: a re-block while an episode
        // is open keeps the original attribution and start time.
        if self.open.contains_key(&txn) {
            return;
        }
        let depth = self.chain_depth(blocker);
        self.open.insert(
            txn,
            OpenEpisode {
                since: at,
                object,
                blocker,
                via,
                depth,
            },
        );
    }

    fn close_episode(&mut self, at: SimTime, txn: TxnId) {
        if let Some(ep) = self.open.remove(&txn) {
            self.closed.push(Episode {
                object: ep.object,
                blocked: txn,
                blocker: ep.blocker,
                // Saturating: replayed traces are untrusted input and may
                // carry non-monotonic timestamps.
                ticks: at.saturating_since(ep.since).ticks(),
                via: ep.via,
                depth: ep.depth,
            });
        }
    }

    /// Closed episodes so far, in close order.
    pub fn episodes(&self) -> &[Episode] {
        &self.closed
    }

    /// Folds the stream into a [`ContentionReport`], keeping the `top_k`
    /// hottest objects and edges. Episodes still open at the end of the
    /// stream are discarded, matching `MetricsSink`, whose histogram
    /// never sees them either.
    pub fn finish(&self, top_k: usize) -> ContentionReport {
        // Priority bands: tertiles of the observed arrival priorities.
        let mut levels: Vec<i64> = self.priorities.values().map(|p| p.level()).collect();
        levels.sort_unstable();
        let band_floors = if levels.is_empty() {
            Vec::new()
        } else {
            let n = levels.len();
            // Floors for high, mid, low: band 0 (high) is the top tertile.
            vec![levels[n - n.div_ceil(3)], levels[n / 3], levels[0]]
        };
        let band_of = |txn: TxnId| -> usize {
            let level = self
                .priorities
                .get(&txn)
                .map(|p| p.level())
                .unwrap_or(i64::MIN);
            match &band_floors[..] {
                [] => BAND_COUNT - 1,
                [high, mid, _] => {
                    if level >= *high {
                        0
                    } else if level >= *mid {
                        1
                    } else {
                        2
                    }
                }
                _ => unreachable!("band_floors is empty or 3-long"),
            }
        };

        let mut per_object: FxHashMap<ObjectId, ObjectContention> = FxHashMap::default();
        let mut per_edge: FxHashMap<(TxnId, TxnId), BlockingEdge> = FxHashMap::default();
        let mut total_blocked_ticks = 0u64;
        let mut inversion_ticks = 0u64;
        let mut blocked_by_band = [0u64; BAND_COUNT];
        let mut chain = ChainStats::default();

        for ep in &self.closed {
            total_blocked_ticks += ep.ticks;
            let band = band_of(ep.blocked);
            blocked_by_band[band] += ep.ticks;
            chain.max_depth = chain.max_depth.max(ep.depth);
            chain.total_depth += ep.depth as u64;
            chain.episodes += 1;

            let obj = per_object.entry(ep.object).or_insert(ObjectContention {
                object: ep.object,
                blocked_ticks: 0,
                episodes: 0,
                ceiling_episodes: 0,
                by_band: [0; BAND_COUNT],
            });
            obj.blocked_ticks += ep.ticks;
            obj.episodes += 1;
            obj.ceiling_episodes += (ep.via == Via::Ceiling) as u64;
            obj.by_band[band] += ep.ticks;

            if let Some(blocker) = ep.blocker {
                let inverted = match (
                    self.priorities.get(&ep.blocked),
                    self.priorities.get(&blocker),
                ) {
                    (Some(w), Some(b)) => w > b,
                    _ => false,
                };
                let edge = per_edge
                    .entry((blocker, ep.blocked))
                    .or_insert(BlockingEdge {
                        blocker,
                        blocked: ep.blocked,
                        count: 0,
                        ticks: 0,
                        inversion_ticks: 0,
                    });
                edge.count += 1;
                edge.ticks += ep.ticks;
                if inverted {
                    edge.inversion_ticks += ep.ticks;
                    inversion_ticks += ep.ticks;
                }
            }
        }

        let contended_objects = per_object.len() as u64;
        let mut objects: Vec<ObjectContention> = per_object.into_values().collect();
        objects.sort_by(|a, b| {
            b.blocked_ticks
                .cmp(&a.blocked_ticks)
                .then_with(|| b.episodes.cmp(&a.episodes))
                .then_with(|| a.object.0.cmp(&b.object.0))
        });
        objects.truncate(top_k);

        let mut edges: Vec<BlockingEdge> = per_edge.into_values().collect();
        edges.sort_by(|a, b| {
            b.ticks
                .cmp(&a.ticks)
                .then_with(|| b.count.cmp(&a.count))
                .then_with(|| (a.blocker.0, a.blocked.0).cmp(&(b.blocker.0, b.blocked.0)))
        });
        edges.truncate(top_k);

        let mut sites: Vec<SiteId> = self
            .rpc_latency
            .keys()
            .chain(self.rpc_retries.keys())
            .copied()
            .collect();
        sites.sort_unstable();
        sites.dedup();
        let rpc = sites
            .into_iter()
            .map(|site| SiteRpc {
                site,
                latency: self.rpc_latency.get(&site).copied().unwrap_or_default(),
                retries: self.rpc_retries.get(&site).copied().unwrap_or_default(),
            })
            .collect();

        ContentionReport {
            total_blocked_ticks,
            episodes: self.closed.len() as u64,
            objects,
            contended_objects,
            edges,
            inversion_ticks,
            chain,
            band_floors,
            blocked_by_band,
            rpc,
        }
    }
}

impl EventSink<SimEvent> for ContentionProfiler {
    fn emit(&mut self, at: SimTime, event: SimEvent) {
        match event.kind.episode_edge() {
            Some(EpisodeEdge::Open {
                txn,
                object,
                blocker,
                via,
            }) => self.open_episode(at, txn, object, blocker, via),
            Some(EpisodeEdge::Close { txn }) => self.close_episode(at, txn),
            None => {}
        }
        match event.kind {
            SimEventKind::TxnArrived { txn, priority } => {
                self.priorities.insert(txn, priority);
            }
            SimEventKind::MsgSent { from, to } => {
                let link = self.links.entry((from, to)).or_default();
                if link.pending_cancels > 0 {
                    link.pending_cancels -= 1;
                } else {
                    link.in_flight.push_back(at);
                }
            }
            SimEventKind::MsgDelivered { from, to } => {
                if let Some(sent) = self
                    .links
                    .get_mut(&(from, to))
                    .and_then(|l| l.in_flight.pop_front())
                {
                    self.rpc_latency
                        .entry(from)
                        .or_default()
                        .record(at.saturating_since(sent).ticks());
                }
            }
            SimEventKind::MsgDropped {
                from,
                to,
                in_flight,
            } => {
                let link = self.links.entry((from, to)).or_default();
                if in_flight {
                    // Lost after send: retire the oldest in-flight entry.
                    if link.in_flight.pop_front().is_none() {
                        link.pending_cancels += 1;
                    }
                } else {
                    // Dropped at send: the matching MsgSent journal entry
                    // arrives later in the stream; cancel it when it does.
                    link.pending_cancels += 1;
                }
            }
            SimEventKind::RpcRetried { attempt, .. } => {
                self.rpc_retries
                    .entry(event.site)
                    .or_default()
                    .record(attempt as u64);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::LockMode;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn ev(kind: SimEventKind) -> SimEvent {
        SimEvent::new(SiteId(0), kind)
    }

    fn arrived(txn: u64, level: i64) -> SimEvent {
        ev(SimEventKind::TxnArrived {
            txn: TxnId(txn),
            priority: Priority::new(level),
        })
    }

    fn blocked(txn: u64, object: u32, blocker: Option<u64>) -> SimEvent {
        ev(SimEventKind::LockBlocked {
            txn: TxnId(txn),
            object: ObjectId(object),
            mode: LockMode::Write,
            blocker: blocker.map(TxnId),
        })
    }

    fn granted(txn: u64, object: u32) -> SimEvent {
        ev(SimEventKind::LockGranted {
            txn: TxnId(txn),
            object: ObjectId(object),
            mode: LockMode::Write,
        })
    }

    #[test]
    fn attributes_blocked_time_to_objects_and_edges() {
        let mut p = ContentionProfiler::new();
        p.emit(t(0), arrived(1, 10));
        p.emit(t(0), arrived(2, 5));
        p.emit(t(10), blocked(1, 4, Some(2)));
        p.emit(t(51), granted(1, 4));
        let report = p.finish(8);
        assert_eq!(report.total_blocked_ticks, 41);
        assert_eq!(report.episodes, 1);
        assert_eq!(report.objects.len(), 1);
        assert_eq!(report.objects[0].object, ObjectId(4));
        assert_eq!(report.objects[0].blocked_ticks, 41);
        assert_eq!(report.edges.len(), 1);
        let edge = &report.edges[0];
        assert_eq!((edge.blocker, edge.blocked), (TxnId(2), TxnId(1)));
        // T1 (prio 10) waited behind T2 (prio 5): a priority inversion.
        assert_eq!(edge.inversion_ticks, 41);
        assert_eq!(report.inversion_ticks, 41);
    }

    #[test]
    fn reblock_keeps_first_attribution_like_metrics_sink() {
        let mut p = ContentionProfiler::new();
        p.emit(t(10), blocked(1, 4, Some(2)));
        p.emit(t(20), blocked(1, 9, Some(3))); // ignored: episode open
        p.emit(t(30), granted(1, 4));
        let report = p.finish(8);
        assert_eq!(report.total_blocked_ticks, 20);
        assert_eq!(report.objects[0].object, ObjectId(4));
        assert_eq!(report.edges[0].blocker, TxnId(2));
    }

    #[test]
    fn open_episodes_are_discarded_at_finish() {
        let mut p = ContentionProfiler::new();
        p.emit(t(10), blocked(1, 4, Some(2)));
        let report = p.finish(8);
        assert_eq!(report.episodes, 0);
        assert_eq!(report.total_blocked_ticks, 0);
    }

    #[test]
    fn chain_depth_counts_open_waiters_above_the_blocker() {
        let mut p = ContentionProfiler::new();
        p.emit(t(10), blocked(2, 1, Some(1))); // T2 waits behind T1: depth 1
        p.emit(t(20), blocked(3, 2, Some(2))); // T3 behind T2 (itself waiting): depth 2
        p.emit(t(30), blocked(4, 3, Some(3))); // depth 3
        p.emit(t(40), granted(2, 1));
        p.emit(t(40), granted(3, 2));
        p.emit(t(40), granted(4, 3));
        let report = p.finish(8);
        assert_eq!(report.chain.max_depth, 3);
        assert_eq!(report.chain.episodes, 3);
        assert_eq!(report.chain.total_depth, 1 + 2 + 3);
    }

    #[test]
    fn bands_split_waiters_into_tertiles() {
        let mut p = ContentionProfiler::new();
        for (txn, level) in [(1, 100), (2, 50), (3, 0)] {
            p.emit(t(0), arrived(txn, level));
        }
        for (txn, dur) in [(1u64, 7u64), (2, 11), (3, 13)] {
            p.emit(t(100), blocked(txn, txn as u32, None));
            p.emit(t(100 + dur), granted(txn, txn as u32));
        }
        let report = p.finish(8);
        assert_eq!(report.blocked_by_band, [7, 11, 13]);
        assert_eq!(report.band_floors, vec![100, 50, 0]);
        // Band attribution also shows up per object.
        assert_eq!(report.objects.iter().map(|o| o.episodes).sum::<u64>(), 3);
    }

    #[test]
    fn rpc_latency_matches_fifo_and_survives_drops() {
        let (a, b) = (SiteId(0), SiteId(1));
        let mut p = ContentionProfiler::new();
        // Drop-at-send is emitted before its own MsgSent journal entry.
        p.emit(
            t(5),
            SimEvent::new(
                a,
                SimEventKind::MsgDropped {
                    from: a,
                    to: b,
                    in_flight: false,
                },
            ),
        );
        p.emit(
            t(5),
            SimEvent::new(a, SimEventKind::MsgSent { from: a, to: b }),
        );
        // A real exchange: sent at 10, delivered at 14.
        p.emit(
            t(10),
            SimEvent::new(a, SimEventKind::MsgSent { from: a, to: b }),
        );
        p.emit(
            t(14),
            SimEvent::new(b, SimEventKind::MsgDelivered { from: a, to: b }),
        );
        // Lost in flight: sent at 20, dropped at 29 — no latency sample.
        p.emit(
            t(20),
            SimEvent::new(a, SimEventKind::MsgSent { from: a, to: b }),
        );
        p.emit(
            t(29),
            SimEvent::new(
                b,
                SimEventKind::MsgDropped {
                    from: a,
                    to: b,
                    in_flight: true,
                },
            ),
        );
        p.emit(
            t(40),
            SimEvent::new(
                b,
                SimEventKind::RpcRetried {
                    txn: TxnId(3),
                    attempt: 1,
                },
            ),
        );
        let report = p.finish(8);
        assert_eq!(report.rpc.len(), 2);
        let site_a = report.rpc.iter().find(|r| r.site == a).unwrap();
        assert_eq!(site_a.latency.count(), 1);
        assert_eq!(site_a.latency.max(), 4);
        let site_b = report.rpc.iter().find(|r| r.site == b).unwrap();
        assert_eq!(site_b.retries.count(), 1);
    }

    #[test]
    fn latch_waits_are_charged_to_the_range_front() {
        let mut p = ContentionProfiler::new();
        p.emit(t(0), arrived(1, 10));
        p.emit(t(0), arrived(2, 5));
        p.emit(
            t(10),
            ev(SimEventKind::RangeLatchBlocked {
                txn: TxnId(1),
                lo: ObjectId(4),
                hi: ObjectId(9),
                blocker: Some(TxnId(2)),
            }),
        );
        p.emit(
            t(35),
            ev(SimEventKind::RangeLatchAcquired {
                txn: TxnId(1),
                lo: ObjectId(4),
                hi: ObjectId(9),
                mode: LockMode::Read,
            }),
        );
        let report = p.finish(8);
        assert_eq!(report.total_blocked_ticks, 25);
        assert_eq!(report.objects[0].object, ObjectId(4));
        // The high-priority reader waited behind a low-priority holder:
        // the episode counts as an inversion on the edge.
        assert_eq!(report.edges[0].inversion_ticks, 25);
    }

    #[test]
    fn hot_objects_line_is_compact() {
        let mut p = ContentionProfiler::new();
        p.emit(t(0), blocked(1, 17, None));
        p.emit(t(9), granted(1, 17));
        let report = p.finish(3);
        assert_eq!(report.hot_objects_line(3), "O17(9t)");
        assert_eq!(
            ContentionProfiler::new().finish(3).hot_objects_line(3),
            "none"
        );
    }
}
