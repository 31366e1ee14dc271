//! Windowed telemetry: trajectories instead of scalar endpoints.
//!
//! Every figure the harness produces today is a run-level aggregate; this
//! sink cuts simulated time into fixed-width windows and accumulates per-
//! window rates, so a sweep point can show *when* a protocol fell over,
//! not just that it did. Counts (arrivals, commits, misses, faults,
//! restarts, raw events) land in the window of their event. Durations
//! (blocking episodes, CPU busy intervals) are sliced exactly across the
//! windows they span, so window totals sum to the run aggregates —
//! `tests/profiling.rs` asserts the closure against [`crate::MetricsSink`].
//!
//! Blocking episodes follow the one rule of [`crate::events::EpisodeEdge`]
//! (open at the first `LockBlocked`/`CeilingBlocked`/`RangeLatchBlocked`,
//! close at `LockGranted`/`LockUpgraded`/`RangeLatchAcquired`/
//! `TxnAborted`); episodes still open at the end of the stream are
//! dropped, matching the aggregate histogram. CPU
//! busy time is an *occupancy upper bound*: a burst is counted from its
//! `Dispatched` until the transaction's `Preempted`/terminal event or the
//! site's next `Dispatched`, because burst completion itself emits no
//! event. The event stream also carries no scheduler-internal queue
//! depth, so the per-window `events` count and the derived `in_flight`
//! transaction count stand in for it (see DESIGN.md §13).

use rtdb::{SiteId, TxnId};
use starlite::{EventSink, FxHashMap, SimTime};

use crate::events::{AbortReason, EpisodeEdge, SimEvent, SimEventKind};

/// Default window width, in simulated ticks. At the paper's workloads
/// (CPU burst 1000 ticks/object) this is roughly the service time of a
/// hundred object accesses — coarse enough that windows hold meaningful
/// counts, fine enough to resolve a crash window or an overload ramp.
pub const DEFAULT_WINDOW_TICKS: u64 = 100_000;

/// One fixed-width window of accumulated telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// Raw events observed in the window (all kinds).
    pub events: u64,
    /// `TxnArrived` count.
    pub arrivals: u64,
    /// `TxnCommitted` count.
    pub commits: u64,
    /// Deadline-miss aborts.
    pub misses: u64,
    /// Fault (site-failure) aborts.
    pub faults: u64,
    /// Deadlock/timestamp-victim aborts (restarts).
    pub restarts: u64,
    /// Blocked ticks overlapping the window (sliced exactly).
    pub blocked_ticks: u64,
    /// Blocking episodes that *closed* in the window.
    pub episodes: u64,
    /// Per-site CPU busy ticks overlapping the window, indexed by site.
    pub cpu_busy: Vec<u64>,
}

/// The windowed-telemetry sink. Feed it a [`SimEvent`] stream, then
/// export with [`TimeSeriesSink::to_jsonl`] / [`TimeSeriesSink::to_csv`].
#[derive(Debug)]
pub struct TimeSeriesSink {
    width: u64,
    windows: Vec<Window>,
    blocked_since: FxHashMap<TxnId, SimTime>,
    running: FxHashMap<SiteId, (TxnId, SimTime)>,
    /// Highest site index seen, so exports emit a rectangular site matrix.
    sites: usize,
}

impl TimeSeriesSink {
    /// Creates a sink with the given window width in ticks (minimum 1).
    pub fn new(width_ticks: u64) -> Self {
        TimeSeriesSink {
            width: width_ticks.max(1),
            windows: Vec::new(),
            blocked_since: FxHashMap::default(),
            running: FxHashMap::default(),
            sites: 0,
        }
    }

    /// Window width in ticks.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The accumulated windows (index `i` covers
    /// `[i × width, (i + 1) × width)` ticks).
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Number of distinct sites that showed CPU activity.
    pub fn sites(&self) -> usize {
        self.sites
    }

    fn window_at(&mut self, at: SimTime) -> &mut Window {
        let idx = (at.ticks() / self.width) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, Window::default());
        }
        &mut self.windows[idx]
    }

    /// Adds `[s, e)` ticks to the field selected by `pick`, sliced
    /// exactly at window boundaries.
    fn add_sliced(&mut self, s: SimTime, e: SimTime, pick: impl Fn(&mut Window) -> &mut u64) {
        let (s, e) = (s.ticks(), e.ticks());
        if e <= s {
            return;
        }
        let width = self.width;
        let last = ((e - 1) / width) as usize;
        if last >= self.windows.len() {
            self.windows.resize(last + 1, Window::default());
        }
        let mut cur = s;
        while cur < e {
            let wi = (cur / width) as usize;
            let stop = ((wi as u64 + 1) * width).min(e);
            *pick(&mut self.windows[wi]) += stop - cur;
            cur = stop;
        }
    }

    fn add_busy(&mut self, site: SiteId, s: SimTime, e: SimTime) {
        let idx = site.0 as usize;
        self.sites = self.sites.max(idx + 1);
        self.add_sliced(s, e, |w| {
            if w.cpu_busy.len() <= idx {
                w.cpu_busy.resize(idx + 1, 0);
            }
            &mut w.cpu_busy[idx]
        });
    }

    fn close_episode(&mut self, at: SimTime, txn: TxnId) {
        if let Some(since) = self.blocked_since.remove(&txn) {
            self.add_sliced(since, at, |w| &mut w.blocked_ticks);
            self.window_at(at).episodes += 1;
        }
    }

    fn close_burst(&mut self, at: SimTime, site: SiteId, txn: TxnId) {
        if let Some(&(running, since)) = self.running.get(&site) {
            if running == txn {
                self.running.remove(&site);
                self.add_busy(site, since, at);
            }
        }
    }

    /// Renders one JSON object per window (JSON Lines). `in_flight` is
    /// the arrived-but-not-terminated transaction count at window close;
    /// `cpu_busy` is per-site busy ticks.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut in_flight = 0i64;
        for (i, w) in self.windows.iter().enumerate() {
            in_flight += w.arrivals as i64 - (w.commits + w.misses + w.faults) as i64;
            out.push_str(&format!(
                "{{\"window\":{i},\"start\":{},\"end\":{},\"events\":{},\"arrivals\":{},\"commits\":{},\"misses\":{},\"faults\":{},\"restarts\":{},\"blocked_ticks\":{},\"episodes\":{},\"in_flight\":{in_flight},\"cpu_busy\":[",
                i as u64 * self.width,
                (i as u64 + 1) * self.width,
                w.events, w.arrivals, w.commits, w.misses, w.faults, w.restarts,
                w.blocked_ticks, w.episodes,
            ));
            for s in 0..self.sites {
                if s > 0 {
                    out.push(',');
                }
                out.push_str(&w.cpu_busy.get(s).copied().unwrap_or(0).to_string());
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Renders the windows as CSV with one `busy_s<N>` column per site.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "window,start,end,events,arrivals,commits,misses,faults,restarts,blocked_ticks,episodes,in_flight",
        );
        for s in 0..self.sites {
            out.push_str(&format!(",busy_s{s}"));
        }
        out.push('\n');
        let mut in_flight = 0i64;
        for (i, w) in self.windows.iter().enumerate() {
            in_flight += w.arrivals as i64 - (w.commits + w.misses + w.faults) as i64;
            out.push_str(&format!(
                "{i},{},{},{},{},{},{},{},{},{},{},{in_flight}",
                i as u64 * self.width,
                (i as u64 + 1) * self.width,
                w.events,
                w.arrivals,
                w.commits,
                w.misses,
                w.faults,
                w.restarts,
                w.blocked_ticks,
                w.episodes,
            ));
            for s in 0..self.sites {
                out.push_str(&format!(",{}", w.cpu_busy.get(s).copied().unwrap_or(0)));
            }
            out.push('\n');
        }
        out
    }

    /// Peak per-window miss rate: `max` over windows of
    /// `misses / (commits + misses)`, ignoring windows with no
    /// completions. Returns 0 when nothing completed.
    pub fn peak_miss_rate(&self) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.commits + w.misses > 0)
            .map(|w| w.misses as f64 / (w.commits + w.misses) as f64)
            .fold(0.0, f64::max)
    }
}

impl Default for TimeSeriesSink {
    fn default() -> Self {
        TimeSeriesSink::new(DEFAULT_WINDOW_TICKS)
    }
}

impl EventSink<SimEvent> for TimeSeriesSink {
    fn emit(&mut self, at: SimTime, event: SimEvent) {
        self.window_at(at).events += 1;
        match event.kind.episode_edge() {
            Some(EpisodeEdge::Open { txn, .. }) => {
                self.blocked_since.entry(txn).or_insert(at);
            }
            Some(EpisodeEdge::Close { txn }) => self.close_episode(at, txn),
            None => {}
        }
        match event.kind {
            SimEventKind::TxnArrived { .. } => self.window_at(at).arrivals += 1,
            SimEventKind::TxnCommitted { txn } => {
                self.window_at(at).commits += 1;
                // A committing transaction cannot be blocked, so a commit
                // closes no episode (see `EpisodeEdge`).
                self.close_burst(at, event.site, txn);
            }
            SimEventKind::TxnAborted { txn, reason } => {
                match reason {
                    AbortReason::DeadlineMissed => self.window_at(at).misses += 1,
                    AbortReason::SiteFailed => self.window_at(at).faults += 1,
                    AbortReason::DeadlockVictim => self.window_at(at).restarts += 1,
                }
                self.close_burst(at, event.site, txn);
            }
            SimEventKind::Dispatched { txn } => {
                if let Some((prev, since)) = self.running.insert(event.site, (txn, at)) {
                    // Back-to-back dispatch without an intervening
                    // preemption: the previous burst occupied the CPU
                    // until now.
                    let _ = prev;
                    self.add_busy(event.site, since, at);
                }
            }
            SimEventKind::Preempted { txn } => {
                self.close_burst(at, event.site, txn);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::{LockMode, ObjectId};

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn ev(kind: SimEventKind) -> SimEvent {
        SimEvent::new(SiteId(0), kind)
    }

    #[test]
    fn counts_land_in_their_windows() {
        let mut ts = TimeSeriesSink::new(100);
        ts.emit(
            t(10),
            ev(SimEventKind::TxnArrived {
                txn: TxnId(1),
                priority: starlite::Priority::new(0),
            }),
        );
        ts.emit(t(250), ev(SimEventKind::TxnCommitted { txn: TxnId(1) }));
        ts.emit(
            t(260),
            ev(SimEventKind::TxnAborted {
                txn: TxnId(2),
                reason: AbortReason::DeadlineMissed,
            }),
        );
        assert_eq!(ts.windows().len(), 3);
        assert_eq!(ts.windows()[0].arrivals, 1);
        assert_eq!(ts.windows()[2].commits, 1);
        assert_eq!(ts.windows()[2].misses, 1);
        assert_eq!(ts.windows().iter().map(|w| w.events).sum::<u64>(), 3);
    }

    #[test]
    fn blocked_time_is_sliced_exactly_across_windows() {
        let mut ts = TimeSeriesSink::new(100);
        ts.emit(
            t(50),
            ev(SimEventKind::LockBlocked {
                txn: TxnId(1),
                object: ObjectId(4),
                mode: LockMode::Write,
                blocker: None,
            }),
        );
        ts.emit(
            t(250),
            ev(SimEventKind::LockGranted {
                txn: TxnId(1),
                object: ObjectId(4),
                mode: LockMode::Write,
            }),
        );
        let blocked: Vec<u64> = ts.windows().iter().map(|w| w.blocked_ticks).collect();
        assert_eq!(blocked, vec![50, 100, 50]);
        // The episode count lands where the episode closed.
        let episodes: Vec<u64> = ts.windows().iter().map(|w| w.episodes).collect();
        assert_eq!(episodes, vec![0, 0, 1]);
    }

    #[test]
    fn cpu_busy_tracks_dispatch_to_preempt_per_site() {
        let mut ts = TimeSeriesSink::new(100);
        let site = SiteId(2);
        ts.emit(
            t(80),
            SimEvent::new(site, SimEventKind::Dispatched { txn: TxnId(1) }),
        );
        ts.emit(
            t(130),
            SimEvent::new(site, SimEventKind::Preempted { txn: TxnId(1) }),
        );
        // Back-to-back dispatch closes the previous burst at the new one.
        ts.emit(
            t(140),
            SimEvent::new(site, SimEventKind::Dispatched { txn: TxnId(2) }),
        );
        ts.emit(
            t(150),
            SimEvent::new(site, SimEventKind::Dispatched { txn: TxnId(3) }),
        );
        ts.emit(
            t(160),
            SimEvent::new(site, SimEventKind::TxnCommitted { txn: TxnId(3) }),
        );
        assert_eq!(ts.sites(), 3);
        let busy: Vec<u64> = ts
            .windows()
            .iter()
            .map(|w| w.cpu_busy.get(2).copied().unwrap_or(0))
            .collect();
        // [80,100) = 20 in window 0; [100,130) + [140,150) + [150,160) = 50.
        assert_eq!(busy, vec![20, 50]);
    }

    #[test]
    fn open_intervals_are_dropped_like_the_aggregate() {
        let mut ts = TimeSeriesSink::new(100);
        ts.emit(
            t(10),
            ev(SimEventKind::LockBlocked {
                txn: TxnId(1),
                object: ObjectId(4),
                mode: LockMode::Write,
                blocker: None,
            }),
        );
        ts.emit(t(20), ev(SimEventKind::Dispatched { txn: TxnId(2) }));
        assert_eq!(ts.windows()[0].blocked_ticks, 0);
        assert_eq!(ts.windows()[0].cpu_busy.len(), 0);
    }

    #[test]
    fn exports_are_rectangular_and_deterministic() {
        let mut ts = TimeSeriesSink::new(100);
        ts.emit(
            t(10),
            SimEvent::new(SiteId(1), SimEventKind::Dispatched { txn: TxnId(1) }),
        );
        ts.emit(
            t(30),
            SimEvent::new(SiteId(1), SimEventKind::Preempted { txn: TxnId(1) }),
        );
        ts.emit(t(110), ev(SimEventKind::TxnCommitted { txn: TxnId(1) }));
        let csv = ts.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.ends_with(",busy_s0,busy_s1"));
        let cols = header.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
        let jsonl = ts.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl
            .lines()
            .next()
            .unwrap()
            .contains("\"cpu_busy\":[0,20]"));
        assert_eq!(ts.to_csv(), csv);
    }

    #[test]
    fn peak_miss_rate_ignores_empty_windows() {
        let mut ts = TimeSeriesSink::new(100);
        assert_eq!(ts.peak_miss_rate(), 0.0);
        ts.emit(t(10), ev(SimEventKind::TxnCommitted { txn: TxnId(1) }));
        ts.emit(
            t(150),
            ev(SimEventKind::TxnAborted {
                txn: TxnId(2),
                reason: AbortReason::DeadlineMissed,
            }),
        );
        ts.emit(t(160), ev(SimEventKind::TxnCommitted { txn: TxnId(3) }));
        assert_eq!(ts.peak_miss_rate(), 0.5);
    }
}
