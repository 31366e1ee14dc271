//! The online invariant oracle: a sink that checks protocol correctness
//! as the event stream flows.
//!
//! [`CheckSink`] consumes the typed [`SimEvent`] stream any simulator can
//! emit and validates, incrementally as each event arrives:
//!
//! 1. **Conflict serialisability** — an incremental conflict graph over
//!    lock grants; a cycle through committed transactions is reported the
//!    moment its last member commits.
//! 2. **Ceiling-protocol properties** — a transaction blocks at most once
//!    per activation, the ceiling recorded for a locked object never
//!    decreases while the lock is held, the waits-for graph stays acyclic,
//!    and deadlock detection never fires.
//! 3. **Lock-table legality** — concurrent grants are pairwise compatible,
//!    upgrades come from a read hold, no waiter is forgotten (lost
//!    wakeup) and no lock outlives the run (lock leak).
//! 4. **Accounting closure** — every arrived transaction gets exactly one
//!    terminal event per activation, and two-phase commit follows its
//!    state machine (no commit without unanimous votes, no vote after the
//!    voter resolved the decision).
//! 5. **Replica coherence** — installed versions are strictly increasing
//!    per copy, repairs only happen at recovered sites, and (for the
//!    replicated architecture, when no message was lost on a healthy
//!    link) all replicas converge by the end of the run.
//!
//! Every [`Violation`] carries the offending event subsequence, so a
//! failing run is self-explaining. The checks understand the fault
//! machinery of the distributed simulator: site crashes clear the
//! crashed site's protocol state, and convergence is only asserted when
//! every dropped message had a crashed endpoint to blame.

use std::fmt;

use rtdb::{LockMode, ObjectId, TxnId, WaitsForGraph};
use starlite::{EventSink, FxHashMap, FxHashSet, Priority, SimTime};

use crate::events::{AbortReason, SimEvent, SimEventKind};

/// System transactions (secondary-update appliers) live in a disjoint id
/// range; mirrors `SYSTEM_TXN_BASE` in the distributed simulator. They
/// take locks like everyone else but never arrive or commit, so the
/// per-transaction accounting and serialisability checks skip them.
const SYSTEM_TXN_BASE: u64 = 1 << 48;

/// Violations kept with full event context; beyond this only the count
/// grows, so a catastrophically broken run cannot exhaust memory.
const MAX_VIOLATIONS: usize = 64;

/// Events attached to a single violation.
const MAX_VIOLATION_EVENTS: usize = 8;

fn is_system(txn: TxnId) -> bool {
    txn.0 >= SYSTEM_TXN_BASE
}

/// What the oracle should expect from the run it is checking.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// The protocol is a priority-ceiling variant: deadlock freedom,
    /// blocked-at-most-once and ceiling monotonicity apply.
    pub ceiling: bool,
    /// Grants follow two-phase-locking semantics (held until release).
    /// `false` for timestamp ordering, whose "grants" record accepted
    /// accesses and are never released — lock-table checks are skipped
    /// but accesses still feed the conflict graph.
    pub exclusive_locks: bool,
    /// Deadlock / timestamp-rejection victims restart (a non-terminal
    /// `DeadlockVictim` abort opens a new activation) instead of dying.
    pub restart_victims: bool,
    /// The run is distributed: release events may race terminal events
    /// across sites, so release-without-hold is tolerated.
    pub distributed: bool,
    /// The run uses the local replicated architecture: secondary updates
    /// install versions at every site and replicas must converge.
    pub replicated: bool,
    /// Number of sites (used by the convergence check).
    pub sites: u8,
    /// The run executed on real concurrent cores rather than the
    /// single-processor simulated timeline. Blocked-at-most-once is a
    /// uniprocessor property — on a multiprocessor a lower-priority
    /// transaction runs concurrently and can acquire a high-ceiling lock
    /// *while* a higher-priority transaction is mid-activation, so the
    /// check is skipped. Deadlock freedom, WFG acyclicity and ceiling
    /// monotonicity still hold and stay enforced.
    pub multicore: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            ceiling: false,
            exclusive_locks: true,
            restart_victims: false,
            distributed: false,
            replicated: false,
            sites: 1,
            multicore: false,
        }
    }
}

impl CheckConfig {
    /// Configuration for a single-site run.
    pub fn single_site(ceiling: bool, exclusive_locks: bool, restart_victims: bool) -> Self {
        CheckConfig {
            ceiling,
            exclusive_locks,
            restart_victims,
            ..CheckConfig::default()
        }
    }

    /// Configuration for a real-threads (`rtlock-live`) run: single
    /// logical site, genuinely concurrent cores. Deadlock victims restart
    /// in the live runner, and blocked-at-most-once is waived (see
    /// [`CheckConfig::multicore`]).
    pub fn live(ceiling: bool) -> Self {
        CheckConfig {
            ceiling,
            restart_victims: !ceiling,
            multicore: true,
            ..CheckConfig::default()
        }
    }

    /// Configuration for a distributed run (both architectures run the
    /// priority ceiling protocol).
    pub fn distributed(replicated: bool, sites: u8) -> Self {
        CheckConfig {
            ceiling: true,
            exclusive_locks: true,
            restart_victims: false,
            distributed: true,
            replicated,
            sites,
            multicore: false,
        }
    }
}

/// One invariant violation, with the events that witnessed it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable name of the violated invariant (e.g. `lock-compatibility`).
    pub invariant: &'static str,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// The offending event subsequence, in stream order.
    pub events: Vec<(SimTime, SimEvent)>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}", self.invariant, self.message)?;
        for (at, ev) in &self.events {
            writeln!(f, "    t={} {}", at.ticks(), ev)?;
        }
        Ok(())
    }
}

type Anchor = (SimTime, SimEvent);
/// One held range latch: (site, lo, hi, mode, grant event).
type HeldLatch = (u8, u32, u32, LockMode, Anchor);
/// One physical copy of an object: `(site, object)`.
type CopyKey = (u8, u32);

#[derive(Debug, Default)]
struct TwoPc {
    participants: u32,
    start: Option<Anchor>,
    /// Sites that ever voted (never cleared; unanimity check).
    voted_ever: FxHashSet<u8>,
    /// Sites with a live vote (cleared when the site crashes — a
    /// recovered participant may legitimately re-vote).
    voted_live: FxHashSet<u8>,
    no_votes: u32,
    resolved: FxHashSet<u8>,
    decided: Option<(bool, Anchor)>,
}

#[derive(Debug)]
struct BlockCount {
    site: u8,
    count: u32,
    first: Anchor,
}

#[derive(Debug)]
struct CeilingEntry {
    ceiling: Priority,
    epoch: u64,
    anchor: Anchor,
}

#[derive(Debug)]
struct TxnState {
    arrived: Anchor,
    terminal: Option<Anchor>,
}

/// The online invariant oracle. Feed it a run's event stream (it is an
/// [`EventSink`]), call [`CheckSink::finish`] once the run is over, and
/// read the violations.
///
/// # Example
///
/// ```
/// use monitor::{CheckConfig, CheckSink, SimEvent, SimEventKind};
/// use rtdb::{LockMode, ObjectId, SiteId, TxnId};
/// use starlite::{EventSink, SimTime};
///
/// let mut check = CheckSink::new(CheckConfig::default());
/// let site = SiteId(0);
/// let grant = |txn| SimEventKind::LockGranted {
///     txn, object: ObjectId(1), mode: LockMode::Write,
/// };
/// check.emit(SimTime::from_ticks(1), SimEvent::new(site, grant(TxnId(1))));
/// // A second write grant on the same object while the first is held:
/// check.emit(SimTime::from_ticks(2), SimEvent::new(site, grant(TxnId(2))));
/// assert_eq!(check.violations()[0].invariant, "lock-compatibility");
/// ```
#[derive(Debug)]
pub struct CheckSink {
    config: CheckConfig,
    violations: Vec<Violation>,
    /// Violations beyond [`MAX_VIOLATIONS`], counted but not stored.
    dropped: u64,
    /// Global state epoch: bumped by commits, aborts, releases and site
    /// transitions. Ceiling comparisons only apply within one epoch.
    epoch: u64,

    // --- serialisability -------------------------------------------------
    /// Per physical copy: accessor → has written.
    copy_access: FxHashMap<CopyKey, FxHashMap<TxnId, bool>>,
    txn_copies: FxHashMap<TxnId, Vec<CopyKey>>,
    out_edges: FxHashMap<TxnId, FxHashSet<TxnId>>,
    in_edges: FxHashMap<TxnId, FxHashSet<TxnId>>,
    committed: FxHashSet<TxnId>,

    // --- lock table ------------------------------------------------------
    holders: FxHashMap<CopyKey, FxHashMap<TxnId, (LockMode, Anchor)>>,
    waiters: FxHashMap<TxnId, (CopyKey, Anchor)>,

    // --- ceiling protocol ------------------------------------------------
    blocks: FxHashMap<TxnId, BlockCount>,
    ceilings: FxHashMap<CopyKey, CeilingEntry>,
    wfg: WaitsForGraph,

    // --- accounting / 2PC ------------------------------------------------
    txns: FxHashMap<TxnId, TxnState>,
    twopc: FxHashMap<TxnId, TwoPc>,

    // --- snapshots / range latches ----------------------------------------
    /// Live snapshot pins: reader → (site, pinned timestamp, pin event).
    pins: FxHashMap<TxnId, (u8, SimTime, Anchor)>,
    /// Per copy: append-only install history as (ticks, version) — the
    /// ground truth a snapshot read at any pin is checked against.
    installs: FxHashMap<CopyKey, Vec<(u64, u64)>>,
    /// Held range latches, by holder.
    latches: FxHashMap<TxnId, Vec<HeldLatch>>,
    latch_waiters: FxHashMap<TxnId, Anchor>,

    // --- replicas / faults -----------------------------------------------
    versions: FxHashMap<CopyKey, (u64, Anchor)>,
    down: FxHashSet<u8>,
    recovered: FxHashSet<u8>,
    /// A message was dropped while both endpoints were up (fault-plan
    /// link loss): anti-entropy cannot be relied on to repair it, so the
    /// convergence check is skipped.
    unsafe_drop: bool,
}

impl CheckSink {
    /// Creates an oracle for a run with the given shape.
    pub fn new(config: CheckConfig) -> Self {
        CheckSink {
            config,
            violations: Vec::new(),
            dropped: 0,
            epoch: 0,
            copy_access: FxHashMap::default(),
            txn_copies: FxHashMap::default(),
            out_edges: FxHashMap::default(),
            in_edges: FxHashMap::default(),
            committed: FxHashSet::default(),
            holders: FxHashMap::default(),
            waiters: FxHashMap::default(),
            blocks: FxHashMap::default(),
            ceilings: FxHashMap::default(),
            wfg: WaitsForGraph::new(),
            txns: FxHashMap::default(),
            twopc: FxHashMap::default(),
            pins: FxHashMap::default(),
            installs: FxHashMap::default(),
            latches: FxHashMap::default(),
            latch_waiters: FxHashMap::default(),
            versions: FxHashMap::default(),
            down: FxHashSet::default(),
            recovered: FxHashSet::default(),
            unsafe_drop: false,
        }
    }

    /// The violations found so far (capped; see [`CheckSink::total_violations`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations found, including any beyond the storage cap.
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.dropped
    }

    /// Runs the end-of-stream checks (lost wakeups, lock leaks,
    /// unterminated transactions, replica convergence) and returns all
    /// stored violations.
    pub fn finish(mut self) -> Vec<Violation> {
        self.check_finish();
        self.violations
    }

    fn violation(&mut self, invariant: &'static str, message: String, mut events: Vec<Anchor>) {
        if self.violations.len() >= MAX_VIOLATIONS {
            self.dropped += 1;
            return;
        }
        events.truncate(MAX_VIOLATION_EVENTS);
        self.violations.push(Violation {
            invariant,
            message,
            events,
        });
    }

    // --- serialisability -------------------------------------------------

    /// Records an access and adds conflict edges from every prior
    /// conflicting accessor of the same copy.
    fn record_access(&mut self, txn: TxnId, copy: CopyKey, writes: bool) {
        if is_system(txn) {
            return;
        }
        let accessors = self.copy_access.entry(copy).or_default();
        for (&other, &other_wrote) in accessors.iter() {
            if other != txn && (writes || other_wrote) {
                self.out_edges.entry(other).or_default().insert(txn);
                self.in_edges.entry(txn).or_default().insert(other);
            }
        }
        let slot = accessors.entry(txn).or_insert(false);
        *slot = *slot || writes;
        self.txn_copies.entry(txn).or_default().push(copy);
    }

    /// Drops an aborted (or restarted) transaction from the conflict
    /// graph: its accesses are undone and cannot order anyone.
    fn forget_txn(&mut self, txn: TxnId) {
        if let Some(copies) = self.txn_copies.remove(&txn) {
            for copy in copies {
                if let Some(accessors) = self.copy_access.get_mut(&copy) {
                    accessors.remove(&txn);
                }
            }
        }
        if let Some(outs) = self.out_edges.remove(&txn) {
            for dst in outs {
                if let Some(set) = self.in_edges.get_mut(&dst) {
                    set.remove(&txn);
                }
            }
        }
        if let Some(ins) = self.in_edges.remove(&txn) {
            for src in ins {
                if let Some(set) = self.out_edges.get_mut(&src) {
                    set.remove(&txn);
                }
            }
        }
        self.committed.remove(&txn);
    }

    /// DFS from the just-committed transaction over committed nodes only;
    /// a committed cycle is complete exactly when its last member commits,
    /// so checking here finds every one.
    fn check_commit_cycle(&mut self, txn: TxnId, anchor: Anchor) {
        let mut stack: Vec<TxnId> = vec![txn];
        let mut visited: FxHashSet<TxnId> = FxHashSet::default();
        let mut parent: FxHashMap<TxnId, TxnId> = FxHashMap::default();
        visited.insert(txn);
        while let Some(node) = stack.pop() {
            let Some(nexts) = self.out_edges.get(&node) else {
                continue;
            };
            let mut sorted: Vec<TxnId> = nexts.iter().copied().collect();
            sorted.sort_unstable();
            for next in sorted {
                if next == txn {
                    // Reconstruct the cycle for the report.
                    let mut cycle = vec![txn];
                    let mut cur = node;
                    while cur != txn {
                        cycle.push(cur);
                        cur = parent[&cur];
                    }
                    cycle.reverse();
                    let members: Vec<String> = cycle.iter().map(|t| t.to_string()).collect();
                    self.violation(
                        "conflict-serializability",
                        format!(
                            "conflict cycle among committed transactions {}",
                            members.join(" -> ")
                        ),
                        vec![anchor],
                    );
                    return;
                }
                if self.committed.contains(&next) && visited.insert(next) {
                    parent.insert(next, node);
                    stack.push(next);
                }
            }
        }
    }

    // --- lock table ------------------------------------------------------

    fn on_grant(&mut self, site: u8, txn: TxnId, object: ObjectId, mode: LockMode, anchor: Anchor) {
        self.record_access(txn, (site, object.0), mode == LockMode::Write);
        if !self.config.exclusive_locks {
            return;
        }
        self.clear_waiter(txn);
        let copy = (site, object.0);
        let holders = self.holders.entry(copy).or_default();
        if let Some(entry) = holders.get_mut(&txn) {
            // Covering re-grant: keep the stronger mode.
            if mode == LockMode::Write {
                entry.0 = LockMode::Write;
            }
            return;
        }
        let conflicting: Vec<Anchor> = holders
            .iter()
            .filter(|(_, (hmode, _))| mode == LockMode::Write || *hmode == LockMode::Write)
            .map(|(_, (_, a))| *a)
            .collect();
        holders.insert(txn, (mode, anchor));
        if !conflicting.is_empty() {
            let mut events = conflicting;
            events.push(anchor);
            self.violation(
                "lock-compatibility",
                format!(
                    "{txn} granted {object} in {mode:?} mode while an incompatible lock is held"
                ),
                events,
            );
        }
    }

    fn on_upgrade(&mut self, site: u8, txn: TxnId, object: ObjectId, anchor: Anchor) {
        self.record_access(txn, (site, object.0), true);
        if !self.config.exclusive_locks {
            return;
        }
        self.clear_waiter(txn);
        let copy = (site, object.0);
        let holders = self.holders.entry(copy).or_default();
        let held = holders.get(&txn).map(|&(m, a)| (m, a));
        let others: Vec<Anchor> = holders
            .iter()
            .filter(|(&h, _)| h != txn)
            .map(|(_, (_, a))| *a)
            .collect();
        holders.insert(txn, (LockMode::Write, anchor));
        match held {
            None => self.violation(
                "lock-upgrade",
                format!("{txn} upgraded {object} without holding a read lock"),
                vec![anchor],
            ),
            Some((LockMode::Write, _)) => self.violation(
                "lock-upgrade",
                format!("{txn} upgraded {object} it already held in write mode"),
                vec![anchor],
            ),
            Some((LockMode::Read, _)) => {}
        }
        if !others.is_empty() {
            let mut events = others;
            events.push(anchor);
            self.violation(
                "lock-compatibility",
                format!("{txn} upgraded {object} to write mode while co-holders remain"),
                events,
            );
        }
    }

    fn on_release(&mut self, site: u8, txn: TxnId, object: ObjectId, anchor: Anchor) {
        self.epoch += 1;
        if !self.config.exclusive_locks {
            return;
        }
        let copy = (site, object.0);
        let removed = self
            .holders
            .get_mut(&copy)
            .and_then(|h| h.remove(&txn))
            .is_some();
        // In distributed runs a failure-detector release at the manager
        // can follow a crash that already wiped the table; only a
        // single-site release can never miss.
        if !removed && !self.config.distributed {
            self.violation(
                "lock-leak",
                format!("{txn} released {object} it did not hold"),
                vec![anchor],
            );
        }
    }

    fn on_block(
        &mut self,
        site: u8,
        txn: TxnId,
        object: ObjectId,
        blocker: Option<TxnId>,
        ceiling_gate: bool,
        anchor: Anchor,
    ) {
        if self.config.exclusive_locks {
            self.waiters.insert(txn, ((site, object.0), anchor));
        }
        if !self.config.ceiling {
            return;
        }
        let gate = if ceiling_gate { "ceiling" } else { "conflict" };
        let entry = self.blocks.entry(txn).or_insert(BlockCount {
            site,
            count: 0,
            first: anchor,
        });
        entry.site = site;
        entry.count += 1;
        let (count, first) = (entry.count, entry.first);
        if count >= 2 && !self.config.multicore {
            self.violation(
                "ceiling-blocked-at-most-once",
                format!("{txn} blocked {count} times in one activation ({gate} gate)"),
                vec![first, anchor],
            );
        }
        if let Some(b) = blocker {
            self.wfg.set_edges(txn, &[b]);
            if self.wfg.has_any_cycle() {
                self.violation(
                    "wfg-acyclic",
                    format!("waits-for cycle after {txn} blocked behind {b}"),
                    vec![anchor],
                );
                // Keep the graph usable for later checks.
                self.wfg.clear_waiter(txn);
            }
        }
    }

    fn clear_waiter(&mut self, txn: TxnId) {
        self.waiters.remove(&txn);
        self.wfg.clear_waiter(txn);
    }

    // --- accounting ------------------------------------------------------

    fn on_terminal(&mut self, txn: TxnId, restart: bool, anchor: Anchor) {
        self.epoch += 1;
        self.waiters.remove(&txn);
        self.wfg.remove_txn(txn);
        self.blocks.remove(&txn);
        self.pins.remove(&txn);
        self.latch_waiters.remove(&txn);
        if is_system(txn) {
            return;
        }
        match self.txns.get_mut(&txn) {
            None => self.violation(
                "txn-accounting",
                format!("terminal event for {txn}, which never arrived"),
                vec![anchor],
            ),
            Some(state) => {
                if let Some(prev) = state.terminal {
                    self.violation(
                        "txn-accounting",
                        format!("{txn} terminated twice"),
                        vec![prev, anchor],
                    );
                } else if !restart {
                    state.terminal = Some(anchor);
                }
            }
        }
    }

    fn check_finish(&mut self) {
        let mut leftover_waiters: Vec<(TxnId, Anchor)> =
            self.waiters.iter().map(|(&t, &(_, a))| (t, a)).collect();
        leftover_waiters.sort_unstable_by_key(|&(t, _)| t);
        for (txn, anchor) in leftover_waiters {
            self.violation(
                "lost-wakeup",
                format!("{txn} was still blocked when the run ended"),
                vec![anchor],
            );
        }
        let mut leftover_holders: Vec<(TxnId, CopyKey, Anchor)> = self
            .holders
            .iter()
            .flat_map(|(&copy, hs)| hs.iter().map(move |(&t, &(_, a))| (t, copy, a)))
            .collect();
        leftover_holders.sort_unstable_by_key(|&(t, copy, _)| (t, copy));
        for (txn, (site, object), anchor) in leftover_holders {
            self.violation(
                "lock-leak",
                format!(
                    "{txn} still held {} at site {site} when the run ended",
                    ObjectId(object)
                ),
                vec![anchor],
            );
        }
        let mut leftover_latch_waiters: Vec<(TxnId, Anchor)> =
            self.latch_waiters.iter().map(|(&t, &a)| (t, a)).collect();
        leftover_latch_waiters.sort_unstable_by_key(|&(t, _)| t);
        for (txn, anchor) in leftover_latch_waiters {
            self.violation(
                "lost-wakeup",
                format!("{txn} was still waiting for a range latch when the run ended"),
                vec![anchor],
            );
        }
        let mut leftover_latches: Vec<(TxnId, Anchor)> = self
            .latches
            .iter()
            .flat_map(|(&t, rs)| rs.iter().map(move |&(_, _, _, _, a)| (t, a)))
            .collect();
        leftover_latches.sort_unstable_by_key(|&(t, _)| t);
        for (txn, anchor) in leftover_latches {
            self.violation(
                "latch-leak",
                format!("{txn} still held a range latch when the run ended"),
                vec![anchor],
            );
        }
        let mut unterminated: Vec<(TxnId, Anchor)> = self
            .txns
            .iter()
            .filter(|(_, s)| s.terminal.is_none())
            .map(|(&t, s)| (t, s.arrived))
            .collect();
        unterminated.sort_unstable_by_key(|&(t, _)| t);
        for (txn, anchor) in unterminated {
            self.violation(
                "txn-accounting",
                format!("{txn} arrived but never reached a terminal event"),
                vec![anchor],
            );
        }
        self.check_convergence();
    }

    /// All replicas must agree on every object's final version — but only
    /// when the anti-entropy guarantee applies: every dropped message had
    /// a crashed endpoint (so a later repair replays it) and no site is
    /// still down at the end of the run.
    fn check_convergence(&mut self) {
        if !self.config.replicated || self.unsafe_drop || !self.down.is_empty() {
            return;
        }
        let mut objects: Vec<u32> = self.versions.keys().map(|&(_, obj)| obj).collect();
        objects.sort_unstable();
        objects.dedup();
        for obj in objects {
            let newest = (0..self.config.sites)
                .filter_map(|s| self.versions.get(&(s, obj)))
                .map(|&(v, _)| v)
                .max()
                .unwrap_or(0);
            for site in 0..self.config.sites {
                let (have, anchor) = self
                    .versions
                    .get(&(site, obj))
                    .map(|&(v, a)| (v, Some(a)))
                    .unwrap_or((0, None));
                if have != newest {
                    self.violation(
                        "replica-convergence",
                        format!(
                            "site {site} ended with {} at v{have}, newest is v{newest}",
                            ObjectId(obj)
                        ),
                        anchor.into_iter().collect(),
                    );
                }
            }
        }
    }

    // --- faults ----------------------------------------------------------

    fn on_site_crashed(&mut self, site: u8) {
        self.epoch += 1;
        self.down.insert(site);
        // The site's protocol instance dies with it: held locks, queued
        // waiters and pending blocks at this site vanish without events.
        self.holders.retain(|&(s, _), _| s != site);
        let orphaned: Vec<TxnId> = self
            .waiters
            .iter()
            .filter(|(_, &((s, _), _))| s == site)
            .map(|(&t, _)| t)
            .collect();
        for txn in orphaned {
            self.clear_waiter(txn);
        }
        self.blocks.retain(|_, b| b.site != site);
        self.ceilings.retain(|&(s, _), _| s != site);
        // A recovered participant has no memory of its vote and may
        // legitimately vote again on a re-delivered prepare.
        for rec in self.twopc.values_mut() {
            rec.voted_live.remove(&site);
            rec.resolved.remove(&site);
        }
    }

    // --- 2PC -------------------------------------------------------------

    fn on_twopc_started(&mut self, txn: TxnId, participants: u32, anchor: Anchor) {
        let rec = self.twopc.entry(txn).or_default();
        if let Some(prev) = rec.start {
            self.violation(
                "two-pc",
                format!("{txn} started two-phase commit twice"),
                vec![prev, anchor],
            );
            return;
        }
        rec.start = Some(anchor);
        rec.participants = participants;
    }

    fn on_twopc_voted(&mut self, site: u8, txn: TxnId, yes: bool, anchor: Anchor) {
        let Some(rec) = self.twopc.get_mut(&txn) else {
            self.violation(
                "two-pc",
                format!("site {site} voted on {txn} before two-phase commit started"),
                vec![anchor],
            );
            return;
        };
        if rec.resolved.contains(&site) {
            let events = rec
                .decided
                .map(|(_, a)| a)
                .into_iter()
                .chain([anchor])
                .collect();
            self.violation(
                "two-pc",
                format!("site {site} voted on {txn} after resolving its decision"),
                events,
            );
            return;
        }
        if !rec.voted_live.insert(site) {
            let events = rec.start.into_iter().chain([anchor]).collect();
            self.violation(
                "two-pc",
                format!("site {site} voted twice on {txn}"),
                events,
            );
            return;
        }
        rec.voted_ever.insert(site);
        if !yes {
            rec.no_votes += 1;
        }
    }

    fn on_twopc_decided(&mut self, txn: TxnId, commit: bool, anchor: Anchor) {
        let rec = self.twopc.entry(txn).or_default();
        if let Some((prev, prev_anchor)) = rec.decided {
            if prev != commit {
                self.violation(
                    "two-pc",
                    format!("{txn} decision flipped"),
                    vec![prev_anchor, anchor],
                );
            }
            return;
        }
        rec.decided = Some((commit, anchor));
        if commit && (rec.no_votes > 0 || rec.voted_ever.len() as u32 != rec.participants) {
            let (yes, total) = (rec.voted_ever.len(), rec.participants);
            let events = rec.start.into_iter().chain([anchor]).collect();
            self.violation(
                "two-pc",
                format!("{txn} decided commit with {yes}/{total} votes"),
                events,
            );
        }
    }

    // --- snapshots / range latches ----------------------------------------

    /// The version a snapshot pinned at `pin` must observe for this copy:
    /// the latest version installed (in stream order) with a timestamp at
    /// or before the pin, or 0 (the initial value) when none is that old.
    fn expected_at(&self, copy: CopyKey, pin: SimTime) -> u64 {
        self.installs.get(&copy).map_or(0, |v| {
            let idx = v.partition_point(|&(at, _)| at <= pin.ticks());
            if idx == 0 {
                0
            } else {
                v[idx - 1].1
            }
        })
    }

    fn on_snapshot_pinned(&mut self, site: u8, txn: TxnId, pin: SimTime, anchor: Anchor) {
        if let Some(&(_, _, prev)) = self.pins.get(&txn) {
            self.violation(
                "snapshot-pin",
                format!("{txn} pinned a second snapshot while one is open"),
                vec![prev, anchor],
            );
        }
        self.pins.insert(txn, (site, pin, anchor));
    }

    fn on_snapshot_read(
        &mut self,
        site: u8,
        txn: TxnId,
        object: ObjectId,
        version: u64,
        anchor: Anchor,
    ) {
        let Some(&(psite, pin, pin_anchor)) = self.pins.get(&txn) else {
            self.violation(
                "snapshot-consistency",
                format!("{txn} read {object} as a snapshot without a live pin"),
                vec![anchor],
            );
            return;
        };
        if psite != site {
            self.violation(
                "snapshot-consistency",
                format!(
                    "{txn} pinned its snapshot at site {psite} but read {object} at site {site}"
                ),
                vec![pin_anchor, anchor],
            );
            return;
        }
        let expected = self.expected_at((site, object.0), pin);
        if version != expected {
            self.violation(
                "snapshot-consistency",
                format!(
                    "{txn} read {object} v{version} at its pin t={}, but the latest version \
                     installed at or before the pin is v{expected}",
                    pin.ticks()
                ),
                vec![pin_anchor, anchor],
            );
        }
    }

    /// GC may never evict a version some live snapshot at this site still
    /// needs — including the version-1 front whose presence certifies
    /// that pre-history pins read the initial value.
    fn on_version_gced(&mut self, site: u8, object: ObjectId, through: u64, anchor: Anchor) {
        let mut pinned: Vec<(TxnId, SimTime, Anchor)> = self
            .pins
            .iter()
            .filter(|(_, &(s, _, _))| s == site)
            .map(|(&t, &(_, p, a))| (t, p, a))
            .collect();
        pinned.sort_unstable_by_key(|&(t, _, _)| t);
        for (txn, pin, pin_anchor) in pinned {
            if self.expected_at((site, object.0), pin) <= through {
                self.violation(
                    "gc-pinned-eviction",
                    format!(
                        "GC evicted {object} versions ..=v{through} at site {site}, which \
                         {txn}'s snapshot pinned at t={} still needs",
                        pin.ticks()
                    ),
                    vec![pin_anchor, anchor],
                );
            }
        }
    }

    fn on_latch_acquired(
        &mut self,
        site: u8,
        txn: TxnId,
        lo: ObjectId,
        hi: ObjectId,
        mode: LockMode,
        anchor: Anchor,
    ) {
        self.latch_waiters.remove(&txn);
        let mut conflicting: Vec<Anchor> = Vec::new();
        for (&other, ranges) in &self.latches {
            if other == txn {
                continue;
            }
            for &(s, olo, ohi, omode, a) in ranges {
                let overlap = s == site && lo.0 <= ohi && olo <= hi.0;
                if overlap && (mode == LockMode::Write || omode == LockMode::Write) {
                    conflicting.push(a);
                }
            }
        }
        self.latches
            .entry(txn)
            .or_default()
            .push((site, lo.0, hi.0, mode, anchor));
        if !conflicting.is_empty() {
            conflicting.push(anchor);
            self.violation(
                "latch-compatibility",
                format!(
                    "{txn} acquired range latch {lo}..{hi} overlapping an incompatible held latch"
                ),
                conflicting,
            );
        }
    }

    fn on_twopc_resolved(&mut self, site: u8, txn: TxnId, commit: bool, anchor: Anchor) {
        let rec = self.twopc.entry(txn).or_default();
        match rec.decided {
            None => self.violation(
                "two-pc",
                format!("site {site} resolved {txn} before any decision"),
                vec![anchor],
            ),
            Some((decided, prev)) if decided != commit => self.violation(
                "two-pc",
                format!("site {site} resolved {txn} against the decision"),
                vec![prev, anchor],
            ),
            Some(_) => {
                if !rec.resolved.insert(site) {
                    self.violation(
                        "two-pc",
                        format!("site {site} resolved {txn} twice"),
                        vec![anchor],
                    );
                }
            }
        }
    }
}

impl EventSink<SimEvent> for CheckSink {
    fn emit(&mut self, at: SimTime, event: SimEvent) {
        let anchor = (at, event);
        let site = event.site.0;
        match event.kind {
            SimEventKind::TxnArrived { txn, .. } => {
                if is_system(txn) {
                    return;
                }
                if let Some(state) = self.txns.get(&txn) {
                    if state.terminal.is_none() {
                        let prev = state.arrived;
                        self.violation(
                            "txn-accounting",
                            format!("{txn} arrived twice without terminating"),
                            vec![prev, anchor],
                        );
                    }
                }
                self.txns.insert(
                    txn,
                    TxnState {
                        arrived: anchor,
                        terminal: None,
                    },
                );
            }
            SimEventKind::TxnCommitted { txn } => {
                self.on_terminal(txn, false, anchor);
                if is_system(txn) {
                    return;
                }
                if let Some(rec) = self.twopc.get(&txn) {
                    if !matches!(rec.decided, Some((true, _))) {
                        let events = rec.start.into_iter().chain([anchor]).collect();
                        self.violation(
                            "two-pc",
                            format!("{txn} committed without a commit decision"),
                            events,
                        );
                    }
                }
                self.committed.insert(txn);
                self.check_commit_cycle(txn, anchor);
            }
            SimEventKind::TxnAborted { txn, reason } => {
                let restart = reason == AbortReason::DeadlockVictim && self.config.restart_victims;
                self.on_terminal(txn, restart, anchor);
                self.forget_txn(txn);
            }
            SimEventKind::LockGranted { txn, object, mode } => {
                self.on_grant(site, txn, object, mode, anchor);
            }
            SimEventKind::LockUpgraded { txn, object } => {
                self.on_upgrade(site, txn, object, anchor);
            }
            SimEventKind::LockReleased { txn, object } => {
                self.on_release(site, txn, object, anchor);
            }
            SimEventKind::LockBlocked {
                txn,
                object,
                blocker,
                ..
            } => {
                self.on_block(site, txn, object, blocker, false, anchor);
            }
            SimEventKind::CeilingBlocked {
                txn,
                object,
                blocker,
            } => {
                self.on_block(site, txn, object, blocker, true, anchor);
            }
            SimEventKind::CeilingRaised {
                txn: _,
                object,
                ceiling,
            } => {
                let copy = (site, object.0);
                if let Some(entry) = self.ceilings.get(&copy) {
                    if entry.epoch == self.epoch && ceiling < entry.ceiling {
                        let prev = entry.anchor;
                        self.violation(
                            "ceiling-monotonic",
                            format!("ceiling of {object} at site {site} decreased while locked"),
                            vec![prev, anchor],
                        );
                    }
                }
                self.ceilings.insert(
                    copy,
                    CeilingEntry {
                        ceiling,
                        epoch: self.epoch,
                        anchor,
                    },
                );
            }
            SimEventKind::DeadlockDetected { victim } => {
                if self.config.ceiling {
                    self.violation(
                        "deadlock-free",
                        format!("deadlock detected under a ceiling protocol (victim {victim})"),
                        vec![anchor],
                    );
                }
            }
            SimEventKind::ProtocolAnomaly { txn, detail } => {
                let what = match txn {
                    Some(t) => format!("{t}: {detail}"),
                    None => detail.to_string(),
                };
                self.violation("protocol-anomaly", what, vec![anchor]);
            }
            SimEventKind::TwoPcStarted { txn, participants } => {
                self.on_twopc_started(txn, participants, anchor);
            }
            SimEventKind::TwoPcVoted { txn, yes } => {
                self.on_twopc_voted(site, txn, yes, anchor);
            }
            SimEventKind::TwoPcDecided { txn, commit } => {
                self.on_twopc_decided(txn, commit, anchor);
            }
            SimEventKind::TwoPcResolved { txn, commit } => {
                self.on_twopc_resolved(site, txn, commit, anchor);
            }
            SimEventKind::VersionInstalled {
                object, version, ..
            } => {
                let copy = (site, object.0);
                if let Some(&(prev, prev_anchor)) = self.versions.get(&copy) {
                    if version <= prev {
                        self.violation(
                            "replica-version",
                            format!("{object} at site {site} installed v{version} after v{prev}"),
                            vec![prev_anchor, anchor],
                        );
                    }
                }
                self.versions.insert(copy, (version, anchor));
                self.installs
                    .entry(copy)
                    .or_default()
                    .push((at.ticks(), version));
            }
            SimEventKind::SnapshotPinned { txn, pin } => {
                self.on_snapshot_pinned(site, txn, pin, anchor);
            }
            SimEventKind::SnapshotRead {
                txn,
                object,
                version,
            } => {
                self.on_snapshot_read(site, txn, object, version, anchor);
            }
            SimEventKind::VersionGced { object, through } => {
                self.on_version_gced(site, object, through, anchor);
            }
            SimEventKind::RangeLatchAcquired { txn, lo, hi, mode } => {
                self.on_latch_acquired(site, txn, lo, hi, mode, anchor);
            }
            SimEventKind::RangeLatchBlocked { txn, .. } => {
                self.latch_waiters.entry(txn).or_insert(anchor);
            }
            SimEventKind::RangeLatchReleased { txn } => {
                self.latches.remove(&txn);
                self.latch_waiters.remove(&txn);
            }
            SimEventKind::ReplicaRepaired { object } => {
                if !self.recovered.contains(&site) {
                    self.violation(
                        "replica-repair",
                        format!("{object} repaired at site {site}, which never recovered"),
                        vec![anchor],
                    );
                }
            }
            SimEventKind::SiteCrashed => self.on_site_crashed(site),
            SimEventKind::SiteRecovered => {
                self.epoch += 1;
                self.down.remove(&site);
                self.recovered.insert(site);
            }
            SimEventKind::MsgDropped { from, to, .. } => {
                if !self.down.contains(&from.0) && !self.down.contains(&to.0) {
                    self.unsafe_drop = true;
                }
            }
            SimEventKind::TxnStarted { .. }
            | SimEventKind::LockRequested { .. }
            | SimEventKind::PriorityInherited { .. }
            | SimEventKind::Dispatched { .. }
            | SimEventKind::Preempted { .. }
            | SimEventKind::MsgSent { .. }
            | SimEventKind::MsgDelivered { .. }
            | SimEventKind::MsgDuplicated { .. }
            | SimEventKind::RpcRetried { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::SiteId;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn ev(kind: SimEventKind) -> SimEvent {
        SimEvent::new(SiteId(0), kind)
    }

    fn grant(txn: u64, obj: u32, mode: LockMode) -> SimEventKind {
        SimEventKind::LockGranted {
            txn: TxnId(txn),
            object: ObjectId(obj),
            mode,
        }
    }

    fn release(txn: u64, obj: u32) -> SimEventKind {
        SimEventKind::LockReleased {
            txn: TxnId(txn),
            object: ObjectId(obj),
        }
    }

    fn committed(txn: u64) -> SimEventKind {
        SimEventKind::TxnCommitted { txn: TxnId(txn) }
    }

    fn arrived(txn: u64) -> SimEventKind {
        SimEventKind::TxnArrived {
            txn: TxnId(txn),
            priority: Priority::new(0),
        }
    }

    fn run(config: CheckConfig, events: &[(u64, SimEventKind)]) -> Vec<Violation> {
        let mut sink = CheckSink::new(config);
        for &(at, kind) in events {
            sink.emit(t(at), ev(kind));
        }
        sink.finish()
    }

    #[test]
    fn clean_serial_run_passes() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (1, grant(1, 5, LockMode::Write)),
                (2, committed(1)),
                (3, release(1, 5)),
                (4, arrived(2)),
                (5, grant(2, 5, LockMode::Read)),
                (6, committed(2)),
                (7, release(2, 5)),
            ],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn conflicting_double_grant_fires_lock_compatibility() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (0, arrived(2)),
                (1, grant(1, 5, LockMode::Write)),
                (2, grant(2, 5, LockMode::Write)),
            ],
        );
        let v = violations
            .iter()
            .find(|v| v.invariant == "lock-compatibility")
            .expect("lock-compatibility fires");
        // The subsequence carries the first grant and the offending one.
        assert_eq!(v.events.len(), 2);
        assert_eq!(v.events[0].1.kind, grant(1, 5, LockMode::Write));
        assert_eq!(v.events[1].1.kind, grant(2, 5, LockMode::Write));
    }

    #[test]
    fn shared_reads_are_compatible() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (0, arrived(2)),
                (1, grant(1, 5, LockMode::Read)),
                (2, grant(2, 5, LockMode::Read)),
                (3, committed(1)),
                (3, release(1, 5)),
                (4, committed(2)),
                (4, release(2, 5)),
            ],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn committed_conflict_cycle_fires_serializability() {
        // T1 writes O1 then O2; T2 writes O2 then O1, interleaved so the
        // conflict edges form a cycle. (No lock discipline here — grants
        // are synthetic, so disable the lock-table check noise by
        // releasing properly.)
        let violations = run(
            CheckConfig {
                exclusive_locks: false,
                ..CheckConfig::default()
            },
            &[
                (0, arrived(1)),
                (0, arrived(2)),
                (1, grant(1, 1, LockMode::Write)),
                (2, grant(2, 2, LockMode::Write)),
                (3, grant(1, 2, LockMode::Write)),
                (4, grant(2, 1, LockMode::Write)),
                (5, committed(1)),
                (6, committed(2)),
            ],
        );
        let v = violations
            .iter()
            .find(|v| v.invariant == "conflict-serializability")
            .expect("serializability fires");
        assert!(
            v.message.contains("T1") && v.message.contains("T2"),
            "{}",
            v.message
        );
    }

    #[test]
    fn aborted_txn_is_forgotten_by_the_conflict_graph() {
        // Same interleaving, but T2 aborts: no committed cycle.
        let violations = run(
            CheckConfig {
                exclusive_locks: false,
                ..CheckConfig::default()
            },
            &[
                (0, arrived(1)),
                (0, arrived(2)),
                (1, grant(1, 1, LockMode::Write)),
                (2, grant(2, 2, LockMode::Write)),
                (3, grant(1, 2, LockMode::Write)),
                (4, grant(2, 1, LockMode::Write)),
                (
                    5,
                    SimEventKind::TxnAborted {
                        txn: TxnId(2),
                        reason: AbortReason::DeadlineMissed,
                    },
                ),
                (6, committed(1)),
            ],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn ceiling_decrease_fires_monotonicity() {
        let raised = |txn: u64, level: i64| SimEventKind::CeilingRaised {
            txn: TxnId(txn),
            object: ObjectId(3),
            ceiling: Priority::new(level),
        };
        let violations = run(
            CheckConfig::single_site(true, true, false),
            &[
                (0, arrived(1)),
                (1, grant(1, 3, LockMode::Read)),
                (1, raised(1, 10)),
                (2, raised(1, 4)),
            ],
        );
        let v = violations
            .iter()
            .find(|v| v.invariant == "ceiling-monotonic")
            .expect("ceiling-monotonic fires");
        assert_eq!(v.events.len(), 2);
    }

    #[test]
    fn ceiling_may_drop_across_a_release_epoch() {
        let raised = |level: i64| SimEventKind::CeilingRaised {
            txn: TxnId(1),
            object: ObjectId(3),
            ceiling: Priority::new(level),
        };
        let violations = run(
            CheckConfig::single_site(true, true, false),
            &[
                (0, arrived(1)),
                (1, grant(1, 3, LockMode::Write)),
                (1, raised(10)),
                (2, committed(1)),
                (2, release(1, 3)),
                (3, arrived(2)),
                (4, grant(2, 3, LockMode::Read)),
                (
                    4,
                    SimEventKind::CeilingRaised {
                        txn: TxnId(2),
                        object: ObjectId(3),
                        ceiling: Priority::new(2),
                    },
                ),
                (5, committed(2)),
                (5, release(2, 3)),
            ],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn double_block_fires_blocked_at_most_once() {
        let block = |at_obj: u32| SimEventKind::CeilingBlocked {
            txn: TxnId(7),
            object: ObjectId(at_obj),
            blocker: Some(TxnId(1)),
        };
        let violations = run(
            CheckConfig::single_site(true, true, false),
            &[
                (0, arrived(7)),
                (1, block(1)),
                (2, grant(7, 1, LockMode::Write)),
                (3, block(2)),
            ],
        );
        let v = violations
            .iter()
            .find(|v| v.invariant == "ceiling-blocked-at-most-once")
            .expect("blocked-at-most-once fires");
        assert_eq!(v.events.len(), 2);
    }

    #[test]
    fn multicore_config_waives_blocked_at_most_once_only() {
        // The same double-block stream, checked as a live multicore run:
        // blocked-at-most-once is a uniprocessor property and must not
        // fire, but everything else (WFG, deadlock freedom, ceilings)
        // stays armed — a detected deadlock still violates.
        let block = |at_obj: u32| SimEventKind::CeilingBlocked {
            txn: TxnId(7),
            object: ObjectId(at_obj),
            blocker: Some(TxnId(1)),
        };
        let violations = run(
            CheckConfig::live(true),
            &[
                (0, arrived(7)),
                (1, block(1)),
                (2, grant(7, 1, LockMode::Write)),
                (3, block(2)),
                (4, SimEventKind::DeadlockDetected { victim: TxnId(7) }),
            ],
        );
        assert!(
            !violations
                .iter()
                .any(|v| v.invariant == "ceiling-blocked-at-most-once"),
            "{violations:?}"
        );
        assert!(violations.iter().any(|v| v.invariant == "deadlock-free"));
    }

    #[test]
    fn wfg_cycle_fires_acyclicity() {
        let block = |txn: u64, obj: u32, blocker: u64| SimEventKind::LockBlocked {
            txn: TxnId(txn),
            object: ObjectId(obj),
            mode: LockMode::Write,
            blocker: Some(TxnId(blocker)),
        };
        let violations = run(
            CheckConfig::single_site(true, true, false),
            &[
                (0, arrived(1)),
                (0, arrived(2)),
                (1, block(1, 1, 2)),
                (2, block(2, 2, 1)),
            ],
        );
        assert!(violations.iter().any(|v| v.invariant == "wfg-acyclic"));
    }

    #[test]
    fn deadlock_under_ceiling_protocol_fires() {
        let violations = run(
            CheckConfig::single_site(true, true, false),
            &[(1, SimEventKind::DeadlockDetected { victim: TxnId(3) })],
        );
        assert!(violations.iter().any(|v| v.invariant == "deadlock-free"));
    }

    #[test]
    fn deadlock_under_two_phase_locking_is_legal() {
        let violations = run(
            CheckConfig::single_site(false, true, true),
            &[
                (0, arrived(3)),
                (1, SimEventKind::DeadlockDetected { victim: TxnId(3) }),
                (
                    2,
                    SimEventKind::TxnAborted {
                        txn: TxnId(3),
                        reason: AbortReason::DeadlockVictim,
                    },
                ),
                (3, committed(3)),
            ],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn lost_wakeup_detected_at_finish() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (0, arrived(2)),
                (1, grant(1, 5, LockMode::Write)),
                (
                    2,
                    SimEventKind::LockBlocked {
                        txn: TxnId(2),
                        object: ObjectId(5),
                        mode: LockMode::Write,
                        blocker: Some(TxnId(1)),
                    },
                ),
                (3, committed(1)),
                (3, release(1, 5)),
                // T2 is never granted nor terminated.
            ],
        );
        assert!(violations.iter().any(|v| v.invariant == "lost-wakeup"));
        assert!(violations.iter().any(|v| v.invariant == "txn-accounting"));
    }

    #[test]
    fn unreleased_lock_is_a_leak() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (1, grant(1, 5, LockMode::Write)),
                (2, committed(1)),
            ],
        );
        assert!(violations.iter().any(|v| v.invariant == "lock-leak"));
    }

    #[test]
    fn double_terminal_fires_accounting() {
        let violations = run(
            CheckConfig::default(),
            &[(0, arrived(1)), (1, committed(1)), (2, committed(1))],
        );
        assert!(violations.iter().any(|v| v.invariant == "txn-accounting"));
    }

    #[test]
    fn restart_opens_a_new_activation() {
        let violations = run(
            CheckConfig::single_site(false, true, true),
            &[
                (0, arrived(1)),
                (
                    1,
                    SimEventKind::TxnAborted {
                        txn: TxnId(1),
                        reason: AbortReason::DeadlockVictim,
                    },
                ),
                (2, grant(1, 5, LockMode::Write)),
                (3, committed(1)),
                (3, release(1, 5)),
            ],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn commit_after_abort_vote_fires_two_pc() {
        let violations = run(
            CheckConfig::distributed(false, 3),
            &[
                (0, arrived(1)),
                (
                    1,
                    SimEventKind::TwoPcStarted {
                        txn: TxnId(1),
                        participants: 2,
                    },
                ),
                (
                    2,
                    SimEventKind::TwoPcVoted {
                        txn: TxnId(1),
                        yes: false,
                    },
                ),
                (
                    3,
                    SimEventKind::TwoPcDecided {
                        txn: TxnId(1),
                        commit: true,
                    },
                ),
            ],
        );
        let v = violations
            .iter()
            .find(|v| v.invariant == "two-pc")
            .expect("two-pc fires");
        assert!(v.message.contains("commit"), "{}", v.message);
    }

    #[test]
    fn vote_after_resolve_fires_two_pc() {
        let mut sink = CheckSink::new(CheckConfig::distributed(false, 3));
        let site1 = SiteId(1);
        sink.emit(t(0), ev(arrived(1)));
        sink.emit(
            t(1),
            ev(SimEventKind::TwoPcStarted {
                txn: TxnId(1),
                participants: 1,
            }),
        );
        sink.emit(
            t(2),
            SimEvent::new(
                site1,
                SimEventKind::TwoPcVoted {
                    txn: TxnId(1),
                    yes: true,
                },
            ),
        );
        sink.emit(
            t(3),
            ev(SimEventKind::TwoPcDecided {
                txn: TxnId(1),
                commit: true,
            }),
        );
        sink.emit(
            t(4),
            SimEvent::new(
                site1,
                SimEventKind::TwoPcResolved {
                    txn: TxnId(1),
                    commit: true,
                },
            ),
        );
        sink.emit(
            t(5),
            SimEvent::new(
                site1,
                SimEventKind::TwoPcVoted {
                    txn: TxnId(1),
                    yes: true,
                },
            ),
        );
        let violations: Vec<Violation> = sink
            .violations()
            .iter()
            .filter(|v| v.invariant == "two-pc")
            .cloned()
            .collect();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("after resolving"));
    }

    #[test]
    fn stale_version_install_fires_replica_version() {
        let install = |version: u64| SimEventKind::VersionInstalled {
            object: ObjectId(9),
            version,
            writer: TxnId(1),
        };
        let violations = run(
            CheckConfig::distributed(true, 1),
            &[(1, install(3)), (2, install(2))],
        );
        assert!(violations.iter().any(|v| v.invariant == "replica-version"));
    }

    #[test]
    fn diverged_replicas_fire_convergence() {
        let mut sink = CheckSink::new(CheckConfig::distributed(true, 2));
        sink.emit(
            t(1),
            SimEvent::new(
                SiteId(0),
                SimEventKind::VersionInstalled {
                    object: ObjectId(9),
                    version: 2,
                    writer: TxnId(1),
                },
            ),
        );
        // Site 1 never installs v2 and no fault excuses it.
        let violations = sink.finish();
        assert!(violations
            .iter()
            .any(|v| v.invariant == "replica-convergence"));
    }

    #[test]
    fn unsafe_drop_waives_convergence() {
        let mut sink = CheckSink::new(CheckConfig::distributed(true, 2));
        sink.emit(
            t(0),
            SimEvent::new(
                SiteId(0),
                SimEventKind::MsgDropped {
                    from: SiteId(0),
                    to: SiteId(1),
                    in_flight: true,
                },
            ),
        );
        sink.emit(
            t(1),
            SimEvent::new(
                SiteId(0),
                SimEventKind::VersionInstalled {
                    object: ObjectId(9),
                    version: 2,
                    writer: TxnId(1),
                },
            ),
        );
        assert!(sink.finish().is_empty());
    }

    #[test]
    fn repair_without_recovery_fires() {
        let violations = run(
            CheckConfig::distributed(true, 2),
            &[(
                1,
                SimEventKind::ReplicaRepaired {
                    object: ObjectId(4),
                },
            )],
        );
        assert!(violations.iter().any(|v| v.invariant == "replica-repair"));
    }

    #[test]
    fn protocol_anomaly_event_is_a_violation() {
        let violations = run(
            CheckConfig::default(),
            &[(
                1,
                SimEventKind::ProtocolAnomaly {
                    txn: Some(TxnId(4)),
                    detail: "open lock RPC for a finished transaction",
                },
            )],
        );
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, "protocol-anomaly");
        assert!(violations[0].message.contains("T4"));
    }

    #[test]
    fn upgrade_without_read_hold_fires() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (
                    1,
                    SimEventKind::LockUpgraded {
                        txn: TxnId(1),
                        object: ObjectId(5),
                    },
                ),
                (2, committed(1)),
                (2, release(1, 5)),
            ],
        );
        assert!(violations.iter().any(|v| v.invariant == "lock-upgrade"));
    }

    #[test]
    fn violation_cap_counts_overflow() {
        let mut events = vec![(0, arrived(1))];
        for i in 0..(MAX_VIOLATIONS as u64 + 10) {
            events.push((
                i + 1,
                SimEventKind::ProtocolAnomaly {
                    txn: None,
                    detail: "synthetic",
                },
            ));
        }
        let mut sink = CheckSink::new(CheckConfig::default());
        for (at, kind) in events {
            sink.emit(t(at), ev(kind));
        }
        assert_eq!(sink.violations().len(), MAX_VIOLATIONS);
        assert_eq!(sink.total_violations(), MAX_VIOLATIONS as u64 + 10);
    }

    // --- snapshot / range-latch invariant mutations -----------------------

    fn installed(obj: u32, version: u64, writer: u64) -> SimEventKind {
        SimEventKind::VersionInstalled {
            object: ObjectId(obj),
            version,
            writer: TxnId(writer),
        }
    }

    fn pinned(txn: u64, pin: u64) -> SimEventKind {
        SimEventKind::SnapshotPinned {
            txn: TxnId(txn),
            pin: t(pin),
        }
    }

    fn snap_read(txn: u64, obj: u32, version: u64) -> SimEventKind {
        SimEventKind::SnapshotRead {
            txn: TxnId(txn),
            object: ObjectId(obj),
            version,
        }
    }

    fn latch(txn: u64, lo: u32, hi: u32, mode: LockMode) -> SimEventKind {
        SimEventKind::RangeLatchAcquired {
            txn: TxnId(txn),
            lo: ObjectId(lo),
            hi: ObjectId(hi),
            mode,
        }
    }

    fn latch_released(txn: u64) -> SimEventKind {
        SimEventKind::RangeLatchReleased { txn: TxnId(txn) }
    }

    #[test]
    fn clean_snapshot_reader_passes() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (1, grant(1, 5, LockMode::Write)),
                (2, committed(1)),
                (2, installed(5, 1, 1)),
                (2, release(1, 5)),
                // A reader pinned after the install observes version 1.
                (10, arrived(2)),
                (10, pinned(2, 8)),
                (11, snap_read(2, 5, 1)),
                // A read of an object never written resolves to the
                // initial value.
                (12, snap_read(2, 7, 0)),
                (13, committed(2)),
            ],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn stale_snapshot_read_fires_consistency() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (1, grant(1, 5, LockMode::Write)),
                (2, committed(1)),
                (2, installed(5, 1, 1)),
                (2, release(1, 5)),
                (10, arrived(2)),
                (10, pinned(2, 8)),
                // The pin is after the install: version 0 is stale.
                (11, snap_read(2, 5, 0)),
                (12, committed(2)),
            ],
        );
        assert!(violations
            .iter()
            .any(|v| v.invariant == "snapshot-consistency"));
    }

    #[test]
    fn snapshot_read_ahead_of_pin_fires_consistency() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (1, grant(1, 5, LockMode::Write)),
                (2, committed(1)),
                (2, installed(5, 1, 1)),
                (2, release(1, 5)),
                (10, arrived(2)),
                // The pin predates the install: the reader must see the
                // initial value, not version 1.
                (10, pinned(2, 1)),
                (11, snap_read(2, 5, 1)),
                (12, committed(2)),
            ],
        );
        assert!(violations
            .iter()
            .any(|v| v.invariant == "snapshot-consistency"));
    }

    #[test]
    fn snapshot_read_without_pin_fires_consistency() {
        let violations = run(
            CheckConfig::default(),
            &[(0, arrived(2)), (1, snap_read(2, 5, 0)), (2, committed(2))],
        );
        assert!(violations
            .iter()
            .any(|v| v.invariant == "snapshot-consistency"));
    }

    #[test]
    fn double_pin_fires_snapshot_pin() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(2)),
                (1, pinned(2, 1)),
                (2, pinned(2, 2)),
                (3, committed(2)),
            ],
        );
        assert!(violations.iter().any(|v| v.invariant == "snapshot-pin"));
    }

    #[test]
    fn gc_of_pinned_version_fires() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (1, grant(1, 5, LockMode::Write)),
                (2, committed(1)),
                (2, installed(5, 1, 1)),
                (2, release(1, 5)),
                (10, arrived(2)),
                (10, pinned(2, 8)),
                // The live pin still needs version 1.
                (
                    11,
                    SimEventKind::VersionGced {
                        object: ObjectId(5),
                        through: 1,
                    },
                ),
                (12, committed(2)),
            ],
        );
        assert!(violations
            .iter()
            .any(|v| v.invariant == "gc-pinned-eviction"));
    }

    #[test]
    fn gc_behind_every_live_pin_is_legal() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (1, grant(1, 5, LockMode::Write)),
                (2, committed(1)),
                (2, installed(5, 1, 1)),
                (2, release(1, 5)),
                (3, arrived(3)),
                (4, grant(3, 5, LockMode::Write)),
                (5, committed(3)),
                (5, installed(5, 2, 3)),
                (5, release(3, 5)),
                (10, arrived(2)),
                (10, pinned(2, 8)),
                // The pin (t=8) is served by version 2 (installed t=5):
                // evicting version 1 is safe.
                (
                    11,
                    SimEventKind::VersionGced {
                        object: ObjectId(5),
                        through: 1,
                    },
                ),
                (12, snap_read(2, 5, 2)),
                (13, committed(2)),
            ],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn overlapping_incompatible_latches_fire() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (0, arrived(2)),
                (1, latch(1, 2, 5, LockMode::Write)),
                (2, latch(2, 4, 8, LockMode::Read)),
            ],
        );
        assert!(violations
            .iter()
            .any(|v| v.invariant == "latch-compatibility"));
    }

    #[test]
    fn overlapping_read_latches_are_compatible() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (0, arrived(2)),
                (1, latch(1, 2, 5, LockMode::Read)),
                (2, latch(2, 4, 8, LockMode::Read)),
                // Disjoint write latches are fine too.
                (3, latch(1, 10, 10, LockMode::Write)),
                (4, committed(1)),
                (4, latch_released(1)),
                (5, committed(2)),
                (5, latch_released(2)),
            ],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn unreleased_latch_is_a_leak() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (1, latch(1, 2, 5, LockMode::Read)),
                (2, committed(1)),
            ],
        );
        assert!(violations.iter().any(|v| v.invariant == "latch-leak"));
    }

    #[test]
    fn latch_waiter_never_woken_is_a_lost_wakeup() {
        let violations = run(
            CheckConfig::default(),
            &[
                (0, arrived(1)),
                (0, arrived(2)),
                (1, latch(1, 2, 5, LockMode::Write)),
                (
                    2,
                    SimEventKind::RangeLatchBlocked {
                        txn: TxnId(2),
                        lo: ObjectId(3),
                        hi: ObjectId(6),
                        blocker: Some(TxnId(1)),
                    },
                ),
                (3, committed(1)),
                (3, latch_released(1)),
                // T2 is never granted nor terminated.
            ],
        );
        assert!(violations.iter().any(|v| v.invariant == "lost-wakeup"));
    }
}
