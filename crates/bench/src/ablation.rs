//! Ablation studies for the design choices the paper raises.

use rtlock::{ProtocolKind, VictimPolicy};

use crate::harness::{SimSpec, SingleSiteSpec, Sweep};

/// One ablation configuration.
#[derive(Debug, Clone, Copy)]
pub struct AblationCase {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Deadlock victim selection (2PL protocols).
    pub victim_policy: VictimPolicy,
    /// Whether deadlock victims restart (`true`) or abort outright.
    pub restart_victims: bool,
    /// Fraction of read-only transactions.
    pub read_only_fraction: f64,
}

impl AblationCase {
    /// The canonical figure configuration for `protocol`: lowest-priority
    /// victims aborted outright, all-update mix.
    pub fn canonical(protocol: ProtocolKind) -> Self {
        AblationCase {
            protocol,
            victim_policy: VictimPolicy::LowestPriority,
            restart_victims: false,
            read_only_fraction: 0.0,
        }
    }

    /// The harness spec this case runs at one mean `size`. Sizes are drawn
    /// uniformly from `[size/2, size + size/2]` so that deadline order
    /// differs from arrival order (otherwise victim policies coincide).
    pub fn spec(&self, size: u32, txn_count: u32) -> SingleSiteSpec {
        SingleSiteSpec {
            read_only_fraction: self.read_only_fraction,
            victim_policy: self.victim_policy,
            restart_victims: self.restart_victims,
            ..SingleSiteSpec::ablation(self.protocol, size, txn_count)
        }
    }
}

/// The sweep label of one ablation point.
pub fn case_label(label: &str, size: u32) -> String {
    format!("{label}/size={size}")
}

/// Declares one case at one mean size on a [`Sweep`], labelled by
/// [`case_label`].
pub fn declare_case(
    sweep: &mut Sweep,
    label: &str,
    case: AblationCase,
    size: u32,
    txn_count: u32,
    seeds: u64,
) {
    sweep.point(
        case_label(label, size),
        seeds,
        SimSpec::SingleSite(case.spec(size, txn_count)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_case_matches_figure_config() {
        let case = AblationCase::canonical(ProtocolKind::TwoPhaseLocking);
        assert!(!case.restart_victims);
        assert_eq!(case.read_only_fraction, 0.0);
        assert_eq!(case.victim_policy, VictimPolicy::LowestPriority);
    }

    #[test]
    fn declared_case_produces_summaries() {
        let mut sweep = Sweep::new();
        let case = AblationCase::canonical(ProtocolKind::PriorityCeiling);
        declare_case(&mut sweep, "smoke", case, 6, 60, 2);
        let swept = sweep.run(2);
        let point = swept.point(&case_label("smoke", 6));
        assert_eq!(point.throughput().n, 2);
        assert_eq!(point.deadlocks().mean, 0.0);
    }
}
