//! The four simulated IDS products.
//!
//! The paper evaluated NFR Security NID 5.0, ISS RealSecure 5.0 and
//! Recourse ManHunt 1.2 with a prototype scorecard, plus an initial look at
//! the AAFID research system. Those products are closed-source and long
//! gone, so this module defines four *models* in the same architecture
//! classes (the DESIGN.md substitution table):
//!
//! | model | patterned on | class |
//! |---|---|---|
//! | `NidSentry NS-5` | NFR NID 5.0 | centralized network signature IDS |
//! | `GuardSecure GS-5` | ISS RealSecure 5.0 | network+host hybrid signature IDS with response console |
//! | `FlowHunter FH-1` | Recourse ManHunt 1.2 | distributed, load-balanced anomaly/flow IDS |
//! | `AgentWatch AW-0.9` | AAFID | autonomous host-agent research IDS |
//!
//! Each product bundles an architecture spec (capacities, tap, balancing,
//! failure behavior), an engine suite, and a vendor profile — the
//! open-source-material facts the logistical/architectural rubrics score.

use crate::components::{BalanceStrategy, FailureBehavior, ResponseCapabilities, TapMode};
use crate::engine::anomaly::AnomalyConfig;
use crate::engine::signature::SignatureConfig;
use idse_net::frag::OverlapPolicy;
use idse_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Product identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProductId {
    /// Centralized network signature IDS (modeled on NFR NID 5.0).
    NidSentry,
    /// Hybrid network+host signature IDS (modeled on ISS RealSecure 5.0).
    GuardSecure,
    /// Distributed anomaly/flow IDS (modeled on Recourse ManHunt 1.2).
    FlowHunter,
    /// Autonomous host-agent research IDS (modeled on AAFID).
    AgentWatch,
}

impl ProductId {
    /// All products, in the paper's presentation order.
    pub const ALL: [ProductId; 4] = [
        ProductId::NidSentry,
        ProductId::GuardSecure,
        ProductId::FlowHunter,
        ProductId::AgentWatch,
    ];

    /// Display name with version.
    pub fn name(self) -> &'static str {
        match self {
            ProductId::NidSentry => "NidSentry NS-5",
            ProductId::GuardSecure => "GuardSecure GS-5",
            ProductId::FlowHunter => "FlowHunter FH-1",
            ProductId::AgentWatch => "AgentWatch AW-0.9",
        }
    }
}

/// Architecture parameters: what the deployment builder instantiates.
#[derive(Debug, Clone)]
pub struct ArchitectureSpec {
    /// Tap mode (inline vs mirrored).
    pub tap: TapMode,
    /// Load-balancing strategy.
    pub balance: BalanceStrategy,
    /// Whether a real LB station exists (None strategy may still have no
    /// station at all).
    pub lb_capacity_ops: Option<f64>,
    /// Network sensor count.
    pub sensors: usize,
    /// Per-sensor capacity, ops/second.
    pub sensor_capacity_ops: f64,
    /// Per-sensor backlog bound.
    pub sensor_backlog: SimDuration,
    /// Analyzer count (combined products reuse sensor stations).
    pub analyzers: usize,
    /// Per-analyzer capacity, ops/second.
    pub analyzer_capacity_ops: f64,
    /// Whether sensing and analysis share a station (the 1:1 collapse the
    /// paper describes).
    pub combined_sensor_analyzer: bool,
    /// Monitor station capacity, ops/second.
    pub monitor_capacity_ops: f64,
    /// Delay from analysis verdict to operator visibility.
    pub notification_delay: SimDuration,
    /// Delay from alert visibility to automated response installation.
    pub response_delay: SimDuration,
    /// Failure behavior under sustained overload.
    pub failure: FailureBehavior,
    /// Shed fraction within one second that kills a component (the
    /// lethal-dose trigger; hardier products tolerate more).
    pub lethal_drop_ratio: f64,
    /// Automated response capabilities.
    pub response: ResponseCapabilities,
}

/// Detection engine suite.
#[derive(Debug, Clone)]
pub struct EngineSuite {
    /// Signature engine configuration, if present.
    pub signature: Option<SignatureConfig>,
    /// Anomaly engine configuration, if present.
    pub anomaly: Option<AnomalyConfig>,
    /// Whether host agents deploy on monitored server hosts.
    pub host_agents: bool,
}

/// Vendor facts gathered by the paper's "open source material" observation
/// method (specifications, white papers, reviews). Rubrics in `idse-eval`
/// convert these to discrete 0–4 scores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VendorProfile {
    /// Remote-management capability tier.
    pub remote_management: ManagementTier,
    /// Installation/configuration difficulty.
    pub configuration: EffortTier,
    /// Policy creation/maintenance tooling.
    pub policy_tooling: EffortTier,
    /// License administration burden.
    pub licensing: EffortTier,
    /// Degree of outsourcing in the delivery model (0 = fully in-house
    /// operable, 1 = fully outsourced service).
    pub outsourced_degree: f64,
    /// Disk+memory footprint of the full deployment, MB.
    pub platform_footprint_mb: u32,
    /// Requires dedicated standalone hardware.
    pub dedicated_hardware: bool,
    /// Documentation quality tier.
    pub documentation: QualityTier,
    /// Technical support tier.
    pub support: QualityTier,
    /// Evaluation copies available to procurers.
    pub evaluation_copy: bool,
    /// Three-year cost of ownership, USD (2002 dollars).
    pub cost_3yr_usd: u32,
    /// Vendor-published training offerings.
    pub training: QualityTier,
    /// Sensitivity is operator-adjustable at runtime.
    pub adjustable_sensitivity: bool,
    /// Data pool selectable by protocol/address filters.
    pub data_pool_selectable: bool,
    /// Storage required per MB of monitored source data, KB.
    pub storage_kb_per_mb: u32,
    /// Product performs autonomous/online learning.
    pub autonomous_learning: bool,
    /// Interoperability tier (open formats, APIs, SNMP MIBs).
    pub interoperability: QualityTier,
}

/// Management capability tiers (Distributed Management anchors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ManagementTier {
    /// "Management of each node must be done at the node."
    NodeOnly,
    /// "Nodes may be remotely managed, but either security, or degree of
    /// administrative control is limited."
    LimitedRemote,
    /// "Complete management of all nodes may be done from any node or
    /// remotely. Appropriate encryption and authentication are employed."
    FullSecureRemote,
}

/// Effort tiers for administrative metrics (low effort = better).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EffortTier {
    /// Requires expert/vendor involvement.
    Heavy,
    /// Reasonable administrator effort.
    Moderate,
    /// Turnkey.
    Light,
}

/// Quality tiers for vendor-delivered intangibles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QualityTier {
    /// Absent or unusable.
    Poor,
    /// Serviceable.
    Fair,
    /// Strong.
    Good,
}

/// A complete product definition.
#[derive(Debug, Clone)]
pub struct IdsProduct {
    /// Identity.
    pub id: ProductId,
    /// Architecture parameters.
    pub architecture: ArchitectureSpec,
    /// Engine suite.
    pub engines: EngineSuite,
    /// Vendor facts.
    pub vendor: VendorProfile,
}

impl IdsProduct {
    /// Build the model for `id`.
    pub fn model(id: ProductId) -> IdsProduct {
        match id {
            ProductId::NidSentry => nid_sentry(),
            ProductId::GuardSecure => guard_secure(),
            ProductId::FlowHunter => flow_hunter(),
            ProductId::AgentWatch => agent_watch(),
        }
    }

    /// All four models.
    pub fn all_models() -> Vec<IdsProduct> {
        ProductId::ALL.iter().map(|&id| Self::model(id)).collect()
    }

    /// Fraction of the product's input that is host-based (Table 2's
    /// Host-based / Network-based metrics).
    pub fn host_based_fraction(&self) -> f64 {
        if !self.engines.host_agents {
            0.0
        } else if self.engines.signature.is_none() && self.engines.anomaly.is_none() {
            1.0 // pure host-agent product
        } else {
            0.35 // hybrid: host agents beside network sensors
        }
    }
}

fn nid_sentry() -> IdsProduct {
    IdsProduct {
        id: ProductId::NidSentry,
        architecture: ArchitectureSpec {
            tap: TapMode::Mirrored,
            balance: BalanceStrategy::None,
            lb_capacity_ops: None,
            sensors: 1,
            sensor_capacity_ops: 30e6,
            sensor_backlog: SimDuration::from_millis(50),
            analyzers: 1,
            analyzer_capacity_ops: 20e6,
            combined_sensor_analyzer: true,
            monitor_capacity_ops: 2e6,
            notification_delay: SimDuration::from_millis(200),
            response_delay: SimDuration::from_secs(2),
            failure: FailureBehavior::RestartService { downtime: SimDuration::from_secs(2) },
            lethal_drop_ratio: 0.60,
            response: ResponseCapabilities { firewall: false, router: false, snmp: true },
        },
        engines: EngineSuite {
            // No fragment reassembly in the 5.0-era engine: structurally
            // blind to overlap evasion.
            signature: Some(SignatureConfig { reassembly: None, preprocessors: true }),
            anomaly: None,
            host_agents: false,
        },
        vendor: VendorProfile {
            remote_management: ManagementTier::LimitedRemote,
            configuration: EffortTier::Moderate,
            policy_tooling: EffortTier::Moderate, // N-Code programmable
            licensing: EffortTier::Moderate,
            outsourced_degree: 0.0,
            platform_footprint_mb: 400,
            dedicated_hardware: true,
            documentation: QualityTier::Good,
            support: QualityTier::Fair,
            evaluation_copy: true,
            cost_3yr_usd: 45_000,
            training: QualityTier::Fair,
            adjustable_sensitivity: true,
            data_pool_selectable: true,
            storage_kb_per_mb: 80,
            autonomous_learning: false,
            interoperability: QualityTier::Fair,
        },
    }
}

fn guard_secure() -> IdsProduct {
    IdsProduct {
        id: ProductId::GuardSecure,
        architecture: ArchitectureSpec {
            tap: TapMode::Mirrored,
            balance: BalanceStrategy::StaticPartition,
            lb_capacity_ops: None, // static placement, no LB device
            sensors: 3,
            sensor_capacity_ops: 12e6,
            sensor_backlog: SimDuration::from_millis(40),
            analyzers: 3,
            analyzer_capacity_ops: 8e6,
            combined_sensor_analyzer: true,
            monitor_capacity_ops: 3e6,
            notification_delay: SimDuration::from_millis(300),
            response_delay: SimDuration::from_millis(800),
            failure: FailureBehavior::ColdReboot { downtime: SimDuration::from_secs(30) },
            lethal_drop_ratio: 0.50,
            response: ResponseCapabilities { firewall: true, router: false, snmp: true },
        },
        engines: EngineSuite {
            signature: Some(SignatureConfig {
                reassembly: Some(OverlapPolicy::FirstWins),
                preprocessors: true,
            }),
            anomaly: None,
            host_agents: true,
        },
        vendor: VendorProfile {
            remote_management: ManagementTier::FullSecureRemote,
            configuration: EffortTier::Light,
            policy_tooling: EffortTier::Light,
            licensing: EffortTier::Heavy, // per-sensor + per-agent keys
            outsourced_degree: 0.2,       // optional managed service
            platform_footprint_mb: 900,
            dedicated_hardware: false,
            documentation: QualityTier::Good,
            support: QualityTier::Good,
            evaluation_copy: true,
            cost_3yr_usd: 120_000,
            training: QualityTier::Good,
            adjustable_sensitivity: true,
            data_pool_selectable: true,
            storage_kb_per_mb: 150,
            autonomous_learning: false,
            interoperability: QualityTier::Good,
        },
    }
}

fn flow_hunter() -> IdsProduct {
    IdsProduct {
        id: ProductId::FlowHunter,
        architecture: ArchitectureSpec {
            tap: TapMode::Inline, // traffic-control capable: sits in path
            balance: BalanceStrategy::SessionHash,
            lb_capacity_ops: Some(120e6),
            sensors: 4,
            sensor_capacity_ops: 15e6,
            sensor_backlog: SimDuration::from_millis(60),
            analyzers: 2,
            analyzer_capacity_ops: 10e6,
            combined_sensor_analyzer: false,
            monitor_capacity_ops: 2e6,
            notification_delay: SimDuration::from_millis(500), // flow batching
            response_delay: SimDuration::from_millis(400),
            failure: FailureBehavior::RestartService { downtime: SimDuration::from_secs(1) },
            lethal_drop_ratio: 0.80,
            response: ResponseCapabilities { firewall: false, router: true, snmp: true },
        },
        engines: EngineSuite {
            signature: None,
            anomaly: Some(AnomalyConfig::default()),
            host_agents: false,
        },
        vendor: VendorProfile {
            remote_management: ManagementTier::FullSecureRemote,
            configuration: EffortTier::Heavy, // anomaly baselining is work
            policy_tooling: EffortTier::Moderate,
            licensing: EffortTier::Light,
            outsourced_degree: 0.0,
            platform_footprint_mb: 1200,
            dedicated_hardware: true,
            documentation: QualityTier::Fair,
            support: QualityTier::Fair,
            evaluation_copy: false,
            cost_3yr_usd: 150_000,
            training: QualityTier::Fair,
            adjustable_sensitivity: true,
            data_pool_selectable: true,
            storage_kb_per_mb: 300, // flow history retention
            autonomous_learning: true,
            interoperability: QualityTier::Fair,
        },
    }
}

fn agent_watch() -> IdsProduct {
    IdsProduct {
        id: ProductId::AgentWatch,
        architecture: ArchitectureSpec {
            tap: TapMode::Mirrored, // host vantage; no in-path element
            balance: BalanceStrategy::None,
            lb_capacity_ops: None,
            sensors: 1, // a thin aggregation point for agent reports
            sensor_capacity_ops: 6e6,
            sensor_backlog: SimDuration::from_millis(80),
            analyzers: 1,
            analyzer_capacity_ops: 4e6,
            combined_sensor_analyzer: true,
            monitor_capacity_ops: 1e6,
            notification_delay: SimDuration::from_secs(1), // research console
            response_delay: SimDuration::from_secs(5),
            failure: FailureBehavior::Hang, // research prototype
            lethal_drop_ratio: 0.35,
            response: ResponseCapabilities { firewall: false, router: false, snmp: false },
        },
        engines: EngineSuite { signature: None, anomaly: None, host_agents: true },
        vendor: VendorProfile {
            remote_management: ManagementTier::NodeOnly,
            configuration: EffortTier::Heavy,
            policy_tooling: EffortTier::Heavy,
            licensing: EffortTier::Light, // research license, free
            outsourced_degree: 0.0,
            platform_footprint_mb: 60,
            dedicated_hardware: false,
            documentation: QualityTier::Poor,
            support: QualityTier::Poor,
            evaluation_copy: true,
            cost_3yr_usd: 8_000, // integration labor only
            training: QualityTier::Poor,
            adjustable_sensitivity: true,
            data_pool_selectable: false,
            storage_kb_per_mb: 40,
            autonomous_learning: true,
            interoperability: QualityTier::Poor,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_distinct_models() {
        let all = IdsProduct::all_models();
        assert_eq!(all.len(), 4);
        let names: std::collections::BTreeSet<&str> = all.iter().map(|p| p.id.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn detection_mechanisms_follow_the_paper_taxonomy() {
        let nid = IdsProduct::model(ProductId::NidSentry);
        assert!(nid.engines.signature.is_some() && nid.engines.anomaly.is_none());
        let fh = IdsProduct::model(ProductId::FlowHunter);
        assert!(fh.engines.signature.is_none() && fh.engines.anomaly.is_some());
        let gs = IdsProduct::model(ProductId::GuardSecure);
        assert!(gs.engines.signature.is_some() && gs.engines.host_agents);
        let aw = IdsProduct::model(ProductId::AgentWatch);
        assert!(aw.engines.signature.is_none() && !aw.architecture.response.snmp);
    }

    #[test]
    fn architecture_classes_differ() {
        let nid = IdsProduct::model(ProductId::NidSentry);
        assert_eq!(nid.architecture.balance, BalanceStrategy::None);
        let fh = IdsProduct::model(ProductId::FlowHunter);
        assert_eq!(fh.architecture.balance, BalanceStrategy::SessionHash);
        assert_eq!(fh.architecture.tap, TapMode::Inline);
        assert!(fh.architecture.lb_capacity_ops.is_some());
        assert!(!fh.architecture.combined_sensor_analyzer);
    }

    #[test]
    fn host_based_fractions() {
        assert_eq!(IdsProduct::model(ProductId::NidSentry).host_based_fraction(), 0.0);
        assert!(IdsProduct::model(ProductId::GuardSecure).host_based_fraction() > 0.0);
        assert!(IdsProduct::model(ProductId::AgentWatch).host_based_fraction() > 0.3);
    }

    #[test]
    fn failure_behaviors_span_the_rubric() {
        let behaviors: Vec<FailureBehavior> =
            IdsProduct::all_models().iter().map(|p| p.architecture.failure).collect();
        assert!(behaviors.iter().any(|b| matches!(b, FailureBehavior::Hang)));
        assert!(behaviors.iter().any(|b| matches!(b, FailureBehavior::ColdReboot { .. })));
        assert!(behaviors.iter().any(|b| matches!(b, FailureBehavior::RestartService { .. })));
    }
}
