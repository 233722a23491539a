//! Campaigns: composing attack instances over a test window.
//!
//! A campaign is the "known attack content" half of a canned dataset: a set
//! of scenario instances scheduled across the background trace's span.
//! Instance start times are drawn deterministically from the campaign seed,
//! so a `(background seed, campaign seed)` pair fully identifies a test
//! feed — the reproducibility the scorecard methodology requires.

use crate::auth::{BruteForceLogin, Masquerade};
use crate::evasion::FragmentationEvasion;
use crate::exploit::{PayloadExploit, EXPLOITS};
use crate::flood::SynFlood;
use crate::scan::{HostSweep, PortScan};
use crate::trust::TrustExploit;
use crate::tunnel::{TunnelCarrier, Tunneling};
use crate::Scenario;
use idse_net::trace::{AttackClass, Trace};
use idse_sim::{RngStream, SimDuration, SimTime};
use idse_traffic::SiteProfile;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Window the instances are scheduled in.
    pub span: SimDuration,
    /// Seed for instance timing and scenario randomness.
    pub seed: u64,
    /// Number of instances of each scenario family (the standard mix
    /// scales everything by this).
    pub intensity: u32,
}

impl CampaignConfig {
    /// One instance per family in `span`, from `seed`.
    pub fn new(span: SimDuration, seed: u64) -> Self {
        Self { span, seed, intensity: 1 }
    }
}

/// A set of attack scenarios to run in one window.
pub struct Campaign {
    scenarios: Vec<Box<dyn Scenario + Send + Sync>>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign").field("scenarios", &self.scenarios.len()).finish()
    }
}

impl Default for Campaign {
    fn default() -> Self {
        Self::new()
    }
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Self { scenarios: Vec::new() }
    }

    /// Add a scenario instance.
    pub fn add(&mut self, scenario: impl Scenario + Send + Sync + 'static) -> &mut Self {
        self.scenarios.push(Box::new(scenario));
        self
    }

    /// Number of scheduled scenario instances.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the campaign has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The classes present, in scenario order.
    pub fn classes(&self) -> Vec<AttackClass> {
        self.scenarios.iter().map(|s| s.class()).collect()
    }

    /// Generate the attack trace: each scenario gets a start time uniform
    /// in the window (leaving 10% tail room for the instance to play out)
    /// and a sequential attack id starting at 1.
    pub fn generate(&self, config: &CampaignConfig) -> Trace {
        let mut timing_rng = RngStream::derive(config.seed, "campaign/timing");
        let mut trace = Trace::new();
        let usable = config.span.mul_f64(0.9);
        for (i, scenario) in self.scenarios.iter().enumerate() {
            let attack_id = i as u32 + 1;
            let start = SimTime::ZERO
                + SimDuration::from_secs_f64(timing_rng.unit() * usable.as_secs_f64());
            let mut scenario_rng =
                RngStream::derive(config.seed, &format!("campaign/scenario-{attack_id}"));
            trace.append(scenario.generate(start, attack_id, &mut scenario_rng));
        }
        trace.finish();
        trace
    }

    /// The standard mix used throughout the evaluation: for each intensity
    /// step, one instance of every scenario family, parameterized from the
    /// site profile (external attackers for perimeter attacks, inside hosts
    /// for trust/tunnel attacks). Exploit instances cycle through the whole
    /// corpus, so both signature-known and novel exploits appear.
    pub fn standard_mix(profile: &SiteProfile, config: &CampaignConfig) -> Campaign {
        let mut rng = RngStream::derive(config.seed, "campaign/mix");
        let mut c = Campaign::new();
        let external = |rng: &mut RngStream| {
            std::net::Ipv4Addr::new(
                66,
                33,
                rng.uniform_u64(1, 250) as u8,
                rng.uniform_u64(1, 250) as u8,
            )
        };
        for step in 0..config.intensity {
            // Attacks aim at the primary servers — the same hosts an
            // evaluation deploys its host agents on.
            let server = profile
                .servers
                .host(1 + (rng.uniform_u64(0, profile.server_hosts.clamp(1, 8) as u64) as u32));
            let inside = profile
                .clients
                .host(1 + (rng.uniform_u64(0, profile.client_hosts.max(2) as u64) as u32));
            let mut inside2 = profile
                .clients
                .host(1 + (rng.uniform_u64(0, profile.client_hosts.max(2) as u64) as u32));
            if inside2 == inside {
                inside2 = profile.clients.host(u32::from(inside2).wrapping_add(1) & 0x7f | 1);
            }

            c.add(PortScan::new(external(&mut rng), server));
            c.add(HostSweep {
                attacker: external(&mut rng),
                block: profile.servers,
                host_count: profile.server_hosts.max(4),
                port: 22,
                rate: 50.0,
            });
            c.add(SynFlood {
                rate: 2500.0,
                duration: SimDuration::from_secs(1),
                ..SynFlood::new(server)
            });
            c.add(BruteForceLogin::new(external(&mut rng), server, "admin"));
            let exploit = &EXPLOITS[(step as usize * 2) % EXPLOITS.len()];
            c.add(PayloadExploit { attacker: external(&mut rng), target: server, exploit });
            let splittable: Vec<_> = crate::evasion::splittable_exploits().collect();
            let evade = splittable[step as usize % splittable.len()];
            c.add(FragmentationEvasion::new(external(&mut rng), server, evade));
            c.add(Masquerade::new(external(&mut rng), server, "jsmith"));
            c.add(Tunneling {
                carrier: if step % 2 == 0 { TunnelCarrier::Dns } else { TunnelCarrier::IcmpEcho },
                ..Tunneling::new(inside, external(&mut rng))
            });
            c.add(TrustExploit::new(inside, inside2));
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> CampaignConfig {
        CampaignConfig::new(SimDuration::from_secs(60), 42)
    }

    #[test]
    fn standard_mix_covers_every_class() {
        let c = Campaign::standard_mix(&SiteProfile::ecommerce_web(), &config());
        let classes: std::collections::BTreeSet<AttackClass> = c.classes().into_iter().collect();
        assert_eq!(classes.len(), AttackClass::ALL.len(), "all classes present");
    }

    #[test]
    fn generate_assigns_unique_attack_ids() {
        let c = Campaign::standard_mix(&SiteProfile::ecommerce_web(), &config());
        let t = c.generate(&config());
        let instances = t.attack_instances();
        assert_eq!(instances.len(), c.len());
        let ids: std::collections::BTreeSet<u32> = instances.iter().map(|g| g.attack_id).collect();
        assert_eq!(ids.len(), c.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let c1 = Campaign::standard_mix(&SiteProfile::office_lan(), &config());
        let c2 = Campaign::standard_mix(&SiteProfile::office_lan(), &config());
        let t1 = c1.generate(&config());
        let t2 = c2.generate(&config());
        assert_eq!(t1.len(), t2.len());
        for (a, b) in t1.records().iter().zip(t2.records().iter()) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.packet, b.packet);
            assert_eq!(a.truth, b.truth);
        }
    }

    /// The pre-append generator: merge (and so re-sort) after every
    /// scenario.
    fn generate_merging_each_scenario(c: &Campaign, config: &CampaignConfig) -> Trace {
        let mut timing_rng = RngStream::derive(config.seed, "campaign/timing");
        let mut trace = Trace::new();
        let usable = config.span.mul_f64(0.9);
        for (i, scenario) in c.scenarios.iter().enumerate() {
            let attack_id = i as u32 + 1;
            let start = SimTime::ZERO
                + SimDuration::from_secs_f64(timing_rng.unit() * usable.as_secs_f64());
            let mut scenario_rng =
                RngStream::derive(config.seed, &format!("campaign/scenario-{attack_id}"));
            trace.merge(scenario.generate(start, attack_id, &mut scenario_rng));
        }
        trace.finish();
        trace
    }

    #[test]
    fn one_sort_matches_merging_each_scenario() {
        let profile = SiteProfile::realtime_cluster();
        for intensity in [1, 16, 64] {
            for seed in [7, 42, 0x6174_6b73] {
                let config = CampaignConfig {
                    intensity,
                    ..CampaignConfig::new(SimDuration::from_secs(60), seed)
                };
                let c = Campaign::standard_mix(&profile, &config);
                let got = c.generate(&config);
                let want = generate_merging_each_scenario(&c, &config);
                assert_eq!(got.len(), want.len(), "intensity {intensity}, seed {seed}");
                for (a, b) in got.records().iter().zip(want.records()) {
                    assert_eq!(a.at, b.at, "intensity {intensity}, seed {seed}");
                    assert_eq!(a.packet, b.packet, "intensity {intensity}, seed {seed}");
                    assert_eq!(a.truth, b.truth, "intensity {intensity}, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn intensity_scales_instances() {
        let mut cfg = config();
        cfg.intensity = 3;
        let c = Campaign::standard_mix(&SiteProfile::ecommerce_web(), &cfg);
        assert_eq!(c.len(), 3 * AttackClass::ALL.len());
    }

    #[test]
    fn all_packets_fall_within_window_with_tail_room() {
        let c = Campaign::standard_mix(&SiteProfile::ecommerce_web(), &config());
        let t = c.generate(&config());
        // Starts are within 90% of span; instances may run a little past.
        let limit = SimTime::from_secs(60) + SimDuration::from_secs(30);
        assert!(t.records().iter().all(|r| r.at < limit));
        assert!(!t.is_empty());
    }
}
