//! `--check` support: run a sweep under the online invariant oracle.
//!
//! Every figure and ablation binary accepts `--check`. When given, every
//! run of the grid streams its structured event trace through
//! [`monitor::CheckSink`], which validates conflict-serialisability,
//! ceiling-protocol properties, lock-table legality, commit accounting /
//! 2PC legality and replica coherence continuously as the run executes.
//! The metrics are unchanged (the oracle only observes the event stream),
//! so checked results match the committed goldens byte for byte; the run
//! is merely slower. Any violation is printed together with the offending
//! event subsequence and the process exits non-zero, which is how CI
//! keeps every protocol honest across the whole figure grid.

use monitor::CheckConfig;

use crate::harness::{default_workers, SimSpec, Sweep, SweepResults};
use crate::params;

/// Returns `true` when `--check` appears in the process arguments.
pub fn check_requested() -> bool {
    std::env::args().skip(1).any(|a| a == "--check")
}

/// The oracle configuration matching one run spec's protocol semantics
/// (see [`ProtocolKind::check_config`] and
/// [`CeilingArchitecture::check_config`]).
///
/// [`ProtocolKind::check_config`]: rtlock::ProtocolKind::check_config
/// [`CeilingArchitecture::check_config`]: rtlock::distributed::CeilingArchitecture::check_config
pub fn config_for(sim: &SimSpec) -> CheckConfig {
    match sim {
        SimSpec::SingleSite(s) => s.protocol.check_config(s.restart_victims),
        SimSpec::Distributed(s) => s.architecture.check_config(params::DIST_SITES),
    }
}

/// Standard sweep entry point for the figure binaries: honours `--check`
/// when present and otherwise behaves exactly like
/// [`Sweep::run`] with [`default_workers`].
///
/// With `--check`, prints a one-line summary when the oracle is happy; on
/// any violation, prints each one (with its event subsequence) to stderr
/// and exits with status 1.
pub fn run_sweep(sweep: &Sweep) -> SweepResults {
    if !check_requested() {
        return sweep.run(default_workers());
    }
    let results = sweep.run_checked(default_workers());
    if results.violations.is_empty() {
        println!("check: {} runs, 0 violations", results.run_count());
        return results;
    }
    for (label, seed, v) in &results.violations {
        eprintln!("check: point {label:?} seed {seed}: {v}");
    }
    eprintln!(
        "check: {} violations across {} runs",
        results.violations.len(),
        results.run_count()
    );
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{DistributedSpec, SingleSiteSpec};
    use rtlock::distributed::CeilingArchitecture;
    use rtlock::ProtocolKind;

    #[test]
    fn single_site_configs_track_protocol_semantics() {
        let ceiling = config_for(&SimSpec::SingleSite(SingleSiteSpec::figure(
            ProtocolKind::PriorityCeiling,
            5,
            10,
        )));
        assert!(ceiling.ceiling);
        assert!(ceiling.exclusive_locks);
        let to = config_for(&SimSpec::SingleSite(SingleSiteSpec::figure(
            ProtocolKind::TimestampOrdering,
            5,
            10,
        )));
        assert!(!to.ceiling);
        assert!(!to.exclusive_locks);
        let tpl = config_for(&SimSpec::SingleSite(SingleSiteSpec::figure(
            ProtocolKind::TwoPhaseLocking,
            5,
            10,
        )));
        assert!(!tpl.ceiling);
        assert!(tpl.exclusive_locks);
    }

    #[test]
    fn distributed_configs_track_architecture() {
        let local = config_for(&SimSpec::Distributed(DistributedSpec::figure(
            CeilingArchitecture::LocalReplicated,
            0.5,
            1,
            10,
        )));
        assert!(local.distributed && local.replicated && local.ceiling);
        assert_eq!(local.sites, params::DIST_SITES);
        let global = config_for(&SimSpec::Distributed(DistributedSpec::figure(
            CeilingArchitecture::GlobalManager,
            0.5,
            1,
            10,
        )));
        assert!(global.distributed && !global.replicated);
    }

    #[test]
    fn checked_sweep_matches_unchecked_metrics() {
        let mut sweep = Sweep::new();
        sweep.point(
            "C/size=5",
            2,
            SimSpec::SingleSite(SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 5, 40)),
        );
        let plain = sweep.run(2);
        let checked = sweep.run_checked(2);
        assert!(checked.violations.is_empty(), "{:?}", checked.violations);
        for (a, b) in plain.points.iter().zip(&checked.points) {
            for ((sa, ma), (sb, mb)) in a.runs.iter().zip(&b.runs) {
                assert_eq!(sa, sb);
                assert_eq!(ma.throughput.to_bits(), mb.throughput.to_bits());
                assert_eq!(ma.committed, mb.committed);
            }
        }
    }
}
