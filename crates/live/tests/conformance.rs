//! Conformance replay: the live gate makes no locking decision of its
//! own.
//!
//! The gate records every event inside the critical section that
//! performs it — a registration as `TxnArrived` and `TxnStarted`, a
//! request as its `LockRequested`, a finish closed by its terminal event
//! — so a run's stream is a complete call log. Replaying that log into a
//! fresh instance of the same simulator protocol, one call per critical
//! section, must reproduce every event of the live run exactly: every
//! grant, block, deadlock victim and its abort, release and inheritance
//! the gate recorded is the protocol's own decision.

use std::collections::HashMap;

use monitor::{AbortReason, SimEventKind};
use rtdb::{TxnId, TxnSpec};
use rtlock::protocols::{make_protocol, ReleaseReason, RequestOutcome};
use rtlock::VictimPolicy;
use rtlock_live::{run_live, LiveConfig, LiveProtocol};

/// The transaction a terminal event ends.
fn terminal(kind: &SimEventKind) -> Option<TxnId> {
    match *kind {
        SimEventKind::TxnCommitted { txn }
        | SimEventKind::TxnAborted {
            txn,
            reason: AbortReason::DeadlineMissed,
        } => Some(txn),
        _ => None,
    }
}

/// Replays the gate's call log into a fresh protocol and asserts that
/// each call journals exactly the events the gate recorded for it.
fn assert_replays(protocol: LiveProtocol, specs: &[TxnSpec], log: &[SimEventKind]) {
    let specs: HashMap<TxnId, &TxnSpec> = specs.iter().map(|s| (s.id, s)).collect();
    let mut proto = make_protocol(protocol.sim_kind(), VictimPolicy::LowestPriority);
    proto.set_tracing(true);
    let mut replayed = Vec::new();
    let (mut at, mut calls) = (0, 0);
    while at < log.len() {
        replayed.clear();
        match log[at] {
            SimEventKind::TxnArrived { txn, .. } => {
                replayed.push(log[at]);
                replayed.push(SimEventKind::TxnStarted { txn });
                proto.register(specs[&txn]);
                proto.drain_events(&mut replayed);
            }
            SimEventKind::LockRequested { txn, object, mode } => {
                let outcome = proto.request(txn, object, mode).outcome;
                proto.drain_events(&mut replayed);
                if let RequestOutcome::Deadlock { victim } = outcome {
                    replayed.push(SimEventKind::TxnAborted {
                        txn: victim,
                        reason: AbortReason::DeadlockVictim,
                    });
                    proto.release_all(victim, ReleaseReason::Restart);
                    proto.drain_events(&mut replayed);
                }
            }
            _ => {
                // A finish: its releases and grants, closed by the
                // terminal event.
                let end = at
                    + log[at..]
                        .iter()
                        .position(|k| terminal(k).is_some())
                        .expect("a finish ends in a terminal event");
                let txn = terminal(&log[end]).expect("found above");
                proto.release_all(txn, ReleaseReason::Finished);
                proto.drain_events(&mut replayed);
                replayed.push(log[end]);
            }
        }
        let recorded = &log[at..(at + replayed.len()).min(log.len())];
        assert_eq!(
            recorded,
            &replayed[..],
            "{}: protocol call {calls} (gate event {at}) diverged",
            protocol.name()
        );
        at += replayed.len();
        calls += 1;
    }
    proto.assert_idle();
}

#[test]
fn contended_live_runs_replay_into_the_simulator_protocols() {
    for protocol in LiveProtocol::all() {
        let config = LiveConfig {
            db_size: 16,
            txn_size: 4,
            txn_count: 150,
            hold_us: 10,
            seed: 5,
            ..LiveConfig::new(protocol, 4)
        };
        let report = run_live(&config);
        let name = protocol.name();
        assert!(
            report.events.windows(2).all(|w| w[0].0 <= w[1].0),
            "{name}: a stamp decreased"
        );
        let log: Vec<SimEventKind> = report.events.iter().map(|(_, e)| e.kind).collect();
        let blocks = log
            .iter()
            .filter(|k| {
                matches!(
                    k,
                    SimEventKind::LockBlocked { .. } | SimEventKind::CeilingBlocked { .. }
                )
            })
            .count();
        assert!(blocks > 0, "{name}: the run never blocked");
        // Every cycle found restarts exactly one victim (none under PCP).
        let detected = log
            .iter()
            .filter(|k| matches!(k, SimEventKind::DeadlockDetected { .. }))
            .count() as u64;
        let victims = log
            .iter()
            .filter(|k| {
                matches!(
                    k,
                    SimEventKind::TxnAborted {
                        reason: AbortReason::DeadlockVictim,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(detected, report.deadlocks, "{name}");
        assert_eq!(victims, report.deadlocks, "{name}");
        assert_replays(protocol, &config.transactions(), &log);
    }
}
