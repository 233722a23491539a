//! The pipeline: a labeled trace through a deployed product, on the
//! discrete-event kernel.
//!
//! This is the testbed run the paper's performance metrics come from. For
//! every trace record the packet walks the Figure 1 subprocess chain —
//! (load balance) → sense → analyze → monitor → (manage) — with each stage
//! a finite-capacity [`ServiceStation`]. Everything Table 3 measures falls
//! out of one run:
//!
//! * **System Throughput / Maximal Throughput with Zero Loss** — packets
//!   monitored vs offered as the replay rate rises;
//! * **Network Lethal Dose** — the offered rate at which a station's
//!   failure behavior trips;
//! * **Induced Traffic Latency** — in-line tap delay per forwarded packet;
//! * **Timeliness** — trace-record time → alert visibility;
//! * **Operational Performance Impact** — host-agent CPU charged to the
//!   monitored hosts' [`HostCpu`]s;
//! * **Observed False Positive/Negative Ratio** — alerts joined back to
//!   ground truth by `idse-eval`.

use crate::alert::Alert;
use crate::components::{
    BalanceStrategy, LoadBalancer, ManagementConsole, Monitor, ServeOutcome, ServiceStation,
    TapMode,
};
use crate::engine::anomaly::{AnomalyEngine, AnomalyTraining};
use crate::engine::host_agent::{HostAgentConfig, HostAgentEngine, HostAgentTraining};
use crate::engine::signature::SignatureEngine;
use crate::engine::{BenignObservation, Detection, DetectionEngine, Sensitivity};
use crate::keyed::HostSet;
use crate::products::IdsProduct;
use idse_faults::{CompiledFaults, FaultComponent, FaultStats};
use idse_net::trace::{GroundTruth, Trace, TraceRecord};
use idse_net::FlowKey;
use idse_sim::stats::{DurationSummary, StageCounters};
use idse_sim::{AuditLevel, EventQueue, HostCpu, SimDuration, SimTime, Simulation, World};
use idse_telemetry::Telemetry;
use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

/// Sim-time a rerouting stage pays per retry hop while hunting a live
/// instance (bounded backoff: `hops * 250 µs`).
const REROUTE_BACKOFF_NANOS: u64 = 250_000;

/// Bounded capacity of each degraded-mode replay buffer. Alerts beyond
/// this are lost, not queued — survivability is measured, not faked.
const REPLAY_LIMIT: usize = 256;

/// Backoff paid after `hops` failed routing attempts.
fn reroute_backoff(hops: usize) -> SimDuration {
    SimDuration::from_nanos(REROUTE_BACKOFF_NANOS * hops as u64)
}

/// Everything a run produces.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// Operator-visible alerts.
    pub alerts: Vec<Alert>,
    /// Ground truth of each alert's trigger record, parallel to `alerts`.
    /// Streaming consumers score from this without re-materializing the
    /// trace to join `Alert::trigger` back to records.
    pub alert_truths: Vec<Option<GroundTruth>>,
    /// Peak number of trace records held live at once. Equals the trace
    /// length for monolithic runs; stays O(in-flight) for chunked sessions
    /// — the bounded-RSS evidence.
    pub window_peak: usize,
    /// Total packets offered.
    pub offered: u64,
    /// Packets inspected by at least one engine.
    pub monitored: u64,
    /// Packets lost before inspection (stage sheds + failure windows).
    pub missed: u64,
    /// Packets suppressed by automated perimeter blocking, by truth:
    /// `(attack_packets_blocked, benign_packets_blocked)`.
    pub blocked: (u64, u64),
    /// Packets excluded by the data-pool filter (deliberately unanalyzed —
    /// not counted as loss).
    pub pool_excluded: u64,
    /// Benign sources collaterally blocked by false-positive responses.
    pub collateral_blocked_sources: usize,
    /// Per-stage counters.
    pub lb_counters: Option<StageCounters>,
    /// Per-sensor counters.
    pub sensor_counters: Vec<StageCounters>,
    /// Analyzer counters.
    pub analyzer_counters: Vec<StageCounters>,
    /// In-line induced latency per forwarded packet (empty for mirrored
    /// taps).
    pub induced_latency: DurationSummary,
    /// Component failures observed.
    pub failures: u32,
    /// Whether any component was still down when the run ended.
    pub ended_down: bool,
    /// Mean IDS share of monitored-host CPU (Operational Performance
    /// Impact), 0 when no host agents.
    pub host_impact: f64,
    /// Approximate engine state footprint in bytes (Data Storage).
    pub state_bytes: usize,
    /// What the injected faults did to this run (all-zero when the run
    /// carried no fault plan).
    pub fault_stats: FaultStats,
    /// Virtual time the run finished.
    pub finished_at: SimTime,
}

impl PipelineOutcome {
    /// Fraction of offered packets that were never inspected.
    pub fn loss_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.missed as f64 / self.offered as f64
        }
    }
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Engine sensitivity for the run.
    pub sensitivity: Sensitivity,
    /// Server hosts that host agents deploy on (and whose CPU is charged).
    pub monitored_hosts: Vec<Ipv4Addr>,
    /// Audit level on monitored hosts.
    pub audit_level: AuditLevel,
    /// Whether the console's automated responses are armed.
    pub auto_response: bool,
    /// The analyzed data pool (Table 2's Data Pool Selectability).
    /// Packets outside the pool bypass the network sensors entirely: no
    /// inspection, no inspection cost — and no detection.
    pub data_pool: crate::datapool::DataPoolFilter,
    /// Telemetry handle. Disabled by default; when enabled the run emits
    /// per-stage spans (`stage.load_balance` … `stage.manage`), shed and
    /// alert counters, engine match-latency spans and host-CPU samples.
    /// Recording is observation-only: it never changes the run.
    pub telemetry: Telemetry,
    /// Fault plan injected into the run (`None` = healthy run). Crashes,
    /// partitions and degradations fire on the sim-time axis; every
    /// stochastic draw is derived from the plan label, so a faulted run
    /// replays byte-identically under any scheduling.
    pub faults: Option<idse_faults::FaultPlan>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            sensitivity: Sensitivity::DEFAULT,
            monitored_hosts: Vec::new(),
            audit_level: AuditLevel::Nominal,
            auto_response: false,
            data_pool: crate::datapool::DataPoolFilter::everything(),
            telemetry: Telemetry::disabled(),
            faults: None,
        }
    }
}

/// Builds deployments and runs traces through them.
///
/// The runner holds the product's trainable engines. They are trained at
/// most once, by [`PipelineRunner::with_training`]; every deployment the
/// runner (or a [`PipelineRunner::reconfigured`] copy of it) builds clones
/// them into its sensors. A trained engine's clone shares its baselines, so
/// one training serves every sensor, session, shard and run config.
pub struct PipelineRunner {
    product: IdsProduct,
    config: RunConfig,
    trained: TrainedEngines,
}

/// The engines that learn "normal" from a known-benign trace, as the
/// runner holds them: never used to inspect, only cloned.
#[derive(Clone)]
struct TrainedEngines {
    anomaly: Option<AnomalyEngine>,
    agents: Option<HostAgentEngine>,
}

impl PipelineRunner {
    /// A runner for `product` under `config`, with untrained engines.
    pub fn new(product: IdsProduct, config: RunConfig) -> Self {
        let trained = TrainedEngines {
            anomaly: product.engines.anomaly.clone().map(AnomalyEngine::new),
            agents: product.engines.host_agents.then(|| {
                HostAgentEngine::new(HostAgentConfig { monitored: config.monitored_hosts.clone() })
            }),
        };
        Self { product, config, trained }
    }

    /// Train the anomaly and host-agent baselines on the known-benign
    /// `training` trace, now: [`PipelineRunner::begin_runner_training`]
    /// folded over its records. The trace is not kept: deployments clone
    /// the trained engines.
    pub fn with_training(self, training: impl Borrow<Trace>) -> Self {
        let mut fold = self.begin_runner_training();
        for rec in training.borrow().records() {
            fold.learn_benign_observation(rec.at, &BenignObservation::of_packet(&rec.packet));
        }
        fold.finish_runner_training()
    }

    /// Start training this runner's anomaly and host-agent baselines as a
    /// fold: feed the returned pass each known-benign record's
    /// [`BenignObservation`] in stream order, then finish it for the
    /// trained runner. The records need never be held together.
    pub fn begin_runner_training(self) -> RunnerTraining {
        let Self { product, config, trained } = self;
        RunnerTraining {
            anomaly: trained.anomaly.map(AnomalyEngine::begin_anomaly_training),
            agents: trained.agents.map(HostAgentEngine::begin_login_training),
            product,
            config,
        }
    }

    /// A runner with this one's trained engines under another `config`,
    /// so that sweep points, probes and shard jobs reuse one training.
    /// Host agents learned login origins for the monitored hosts, so
    /// `config` must monitor the same hosts.
    pub fn reconfigured(&self, config: RunConfig) -> Self {
        assert_eq!(
            config.monitored_hosts, self.config.monitored_hosts,
            "host agents were trained for other monitored hosts"
        );
        Self { product: self.product.clone(), config, trained: self.trained.clone() }
    }

    /// The product this runner deploys.
    pub fn product(&self) -> &IdsProduct {
        &self.product
    }

    /// The run config deployments use.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Run `trace` through the deployment — a one-chunk [`PipelineSession`].
    pub fn run(&self, trace: &Trace) -> PipelineOutcome {
        let mut session = self.session();
        session.push_chunk(trace.records().iter().cloned());
        session.finish()
    }

    /// Open a chunked session: records are fed incrementally with
    /// [`PipelineSession::push_chunk`] and the deployment holds only the
    /// records still in flight, so memory stays O(chunk + in-flight)
    /// regardless of the total run length. Feeding the whole trace as one
    /// chunk is byte-identical to feeding it in any chunking (the event
    /// kernel dispatches inputs ahead of same-instant derived events, so
    /// arrival order matches a fully pre-scheduled run).
    pub fn session(&self) -> PipelineSession {
        let world = DeploymentWorld::build(&self.product, &self.config, &self.trained);
        let mut sim = Simulation::new();
        sim.set_telemetry(self.config.telemetry.clone());
        PipelineSession { world, sim, next_index: 0 }
    }
}

/// A training pass over a runner's engines. See
/// [`PipelineRunner::begin_runner_training`].
#[derive(Debug)]
pub struct RunnerTraining {
    product: IdsProduct,
    config: RunConfig,
    anomaly: Option<AnomalyTraining>,
    agents: Option<HostAgentTraining>,
}

impl RunnerTraining {
    /// Fold the next known-benign record, observed at `at`, into every
    /// trainable engine.
    pub fn learn_benign_observation(&mut self, at: SimTime, obs: &BenignObservation) {
        if let Some(anomaly) = self.anomaly.as_mut() {
            anomaly.learn_anomaly_baselines(at, obs);
        }
        if let Some(agents) = self.agents.as_mut() {
            agents.learn_login_origin(obs);
        }
    }

    /// Finish the pass: the runner with its trained engines.
    pub fn finish_runner_training(self) -> PipelineRunner {
        let trained = TrainedEngines {
            anomaly: self.anomaly.map(AnomalyTraining::finish_anomaly_training),
            agents: self.agents.map(HostAgentTraining::finish_login_training),
        };
        PipelineRunner { product: self.product, config: self.config, trained }
    }
}

/// An in-progress chunked pipeline run. See [`PipelineRunner::session`].
pub struct PipelineSession {
    world: DeploymentWorld,
    sim: Simulation<Ev>,
    next_index: u32,
}

impl PipelineSession {
    /// Feed the next chunk of trace records (must continue the global
    /// time-sorted order). The simulation first drains everything strictly
    /// earlier than the chunk's first record, then admits the records as
    /// input events — so no stage ever sees a packet out of order.
    pub fn push_chunk(&mut self, records: impl IntoIterator<Item = TraceRecord>) {
        let mut records = records.into_iter().peekable();
        let Some(first) = records.peek() else { return };
        self.sim.run_before(&mut self.world, first.at);
        self.world.window.slots.reserve(records.size_hint().0);
        for rec in records {
            let idx = self.next_index;
            self.next_index += 1;
            let at = rec.at;
            self.world.admit(idx, rec);
            self.sim.queue_mut().schedule_input(at, Ev::Arrive(idx));
        }
    }

    /// In-scope records already evicted from the window without ever
    /// being inspected. The count only grows, and no later event can
    /// inspect those records, so while nothing is blocked or excluded from
    /// the data pool it is a lower bound on the finished run's `missed`.
    pub fn evicted_unmonitored(&self) -> u64 {
        self.world.window.evicted_unmonitored
    }

    /// Drain every remaining event and produce the outcome.
    pub fn finish(mut self) -> PipelineOutcome {
        self.sim.run_to_completion(&mut self.world);
        self.world.finish(self.sim.now())
    }
}

#[derive(Debug, Clone)]
enum Ev {
    /// A trace record reaches the tap.
    Arrive(u32),
    /// The sensor station finishes a record; engines inspect now.
    SensorDone { sensor: u8, rec: u32 },
    /// A host agent finishes inspecting a record.
    AgentDone { rec: u32 },
    /// Analysis of a detection completes; monitor presents it.
    AnalyzerDone { rec: u32, observed: SimTime, det: Detection },
    /// A crashed component restarts; buffered state replays.
    Replay,
}

/// One live record with its scope flag and reference count.
struct WindowEntry {
    record: TraceRecord,
    in_scope: bool,
    monitored: bool,
    /// Outstanding holds: the pending `Arrive`, every scheduled event
    /// carrying this record's index, and every replay-buffer slot. The
    /// entry is evicted when the count returns to zero.
    refs: u32,
}

/// The bounded set of records currently in flight through the deployment.
/// Each record enters with one reference (its pending `Arrive`), gains one
/// per scheduled follow-up event or replay-buffer hold, and is dropped as
/// soon as nothing references it — the constant-memory substitute for
/// borrowing the whole trace.
///
/// Indices are admitted in order, so the window is a ring offset from the
/// oldest live index: an evicted record leaves `None` in its slot, and the
/// front pops while it reads `None`. The ring's memory therefore grows with
/// the distance between the oldest live index and the newest one, not
/// with the live count: one long-held record (say, a replay-buffer slot
/// across an outage) keeps every later slot allocated until it is freed.
#[derive(Default)]
struct RecordWindow {
    /// Slot `i` holds record `base + i`, or `None` once it is evicted.
    slots: VecDeque<Option<WindowEntry>>,
    base: u32,
    live: usize,
    peak: usize,
    /// In-scope records evicted without ever being marked monitored.
    evicted_unmonitored: u64,
}

impl RecordWindow {
    fn insert(&mut self, idx: u32, record: TraceRecord, in_scope: bool) {
        debug_assert_eq!(
            idx as usize,
            self.base as usize + self.slots.len(),
            "record index {idx} admitted out of order"
        );
        self.slots.push_back(Some(WindowEntry { record, in_scope, monitored: false, refs: 1 }));
        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    fn slot(&mut self, idx: u32) -> &mut Option<WindowEntry> {
        let offset = idx.checked_sub(self.base).expect("record still referenced");
        self.slots.get_mut(offset as usize).expect("record still referenced")
    }

    fn entry(&self, idx: u32) -> &WindowEntry {
        idx.checked_sub(self.base)
            .and_then(|offset| self.slots.get(offset as usize))
            .and_then(Option::as_ref)
            .expect("record still referenced")
    }

    fn entry_mut(&mut self, idx: u32) -> &mut WindowEntry {
        self.slot(idx).as_mut().expect("record still referenced")
    }

    fn record(&self, idx: u32) -> &TraceRecord {
        &self.entry(idx).record
    }

    fn in_scope(&self, idx: u32) -> bool {
        self.entry(idx).in_scope
    }

    /// Mark inspected; returns true on the first marking of an in-scope
    /// record (the `monitored` counter's increment condition).
    fn mark_monitored(&mut self, idx: u32) -> bool {
        let e = self.entry_mut(idx);
        let first = !e.monitored && e.in_scope;
        e.monitored = true;
        first
    }

    fn retain(&mut self, idx: u32) {
        self.entry_mut(idx).refs += 1;
    }

    fn release(&mut self, idx: u32) {
        let slot = self.slot(idx);
        let e = slot.as_mut().expect("record still referenced");
        e.refs -= 1;
        if e.refs > 0 {
            return;
        }
        let lost = e.in_scope && !e.monitored;
        *slot = None;
        self.evicted_unmonitored += u64::from(lost);
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

struct DeploymentWorld {
    window: RecordWindow,
    tap: TapMode,
    lb: Option<LoadBalancer>,
    /// Routing used when no LB station exists.
    fallback_route: BalanceStrategy,
    sensors: Vec<ServiceStation>,
    sensor_sig: Vec<Option<SignatureEngine>>,
    sensor_ano: Vec<Option<AnomalyEngine>>,
    agents: Option<HostAgentEngine>,
    // Ordered map: `host_impact` sums floats over the values, and the
    // addition order must not depend on a hash seed.
    host_cpus: BTreeMap<Ipv4Addr, HostCpu>,
    analyzers: Vec<ServiceStation>,
    combined: bool,
    monitor: Monitor,
    console: ManagementConsole,
    auto_response: bool,
    data_pool: crate::datapool::DataPoolFilter,
    /// Whether any network-side engine exists. Host-agent-only products
    /// monitor only traffic touching their hosts; everything else is out
    /// of the product's monitoring scope (a host IDS's throughput is
    /// denominated in host data, per Table 2's System Throughput note).
    has_network_engines: bool,
    monitored_set: HostSet,
    // accounting (all incremental: the full trace is never held)
    offered: u64,
    monitored: u64,
    attack_sources: HostSet,
    alert_truths: Vec<Option<GroundTruth>>,
    pool_excluded: u64,
    induced_latency: DurationSummary,
    blocked_attack: u64,
    blocked_benign: u64,
    rr_next: usize,
    telemetry: Telemetry,
    // fault injection
    faults: CompiledFaults,
    fstats: FaultStats,
    /// Detections awaiting an analyzer restart: `(rec, observed, det)`.
    analyzer_replay: Vec<(u32, SimTime, Detection)>,
    /// Alerts awaiting a monitor restart.
    monitor_replay: Vec<(u32, SimTime, Detection)>,
    /// Visible alerts the monitor holds for a crashed manager (1:1c).
    console_replay: Vec<Alert>,
    /// Restart instants already scheduled as [`Ev::Replay`].
    replay_scheduled: Vec<SimTime>,
}

impl DeploymentWorld {
    fn build(product: &IdsProduct, config: &RunConfig, trained: &TrainedEngines) -> Self {
        let arch = &product.architecture;
        let mk_station = |name: &'static str, cap: f64, backlog: SimDuration| {
            ServiceStation::new(name, cap, backlog, arch.lethal_drop_ratio, arch.failure)
        };

        let lb = arch.lb_capacity_ops.map(|cap| {
            LoadBalancer::new(
                mk_station("load-balancer", cap, SimDuration::from_millis(20)),
                arch.balance,
                arch.sensors,
            )
        });

        let sensors: Vec<ServiceStation> = (0..arch.sensors)
            .map(|_| mk_station("sensor", arch.sensor_capacity_ops, arch.sensor_backlog))
            .collect();

        let mut sensor_sig: Vec<Option<SignatureEngine>> = (0..arch.sensors)
            .map(|_| product.engines.signature.clone().map(SignatureEngine::standard))
            .collect();
        let mut sensor_ano: Vec<Option<AnomalyEngine>> =
            (0..arch.sensors).map(|_| trained.anomaly.clone()).collect();
        let mut agents = trained.agents.clone();

        // The runner trained the engines; each instance only needs its
        // sensitivity.
        for engine in sensor_sig.iter_mut().flatten() {
            engine.set_sensitivity(config.sensitivity);
        }
        for engine in sensor_ano.iter_mut().flatten() {
            engine.set_sensitivity(config.sensitivity);
        }
        if let Some(agent) = agents.as_mut() {
            agent.set_sensitivity(config.sensitivity);
        }

        let mut host_cpus = BTreeMap::new();
        for &h in &config.monitored_hosts {
            // 2002-era server: ~500M abstract ops/s, 100 ms scheduling slack.
            let mut cpu = HostCpu::new(500e6, SimDuration::from_millis(100));
            cpu.set_audit_level(config.audit_level);
            host_cpus.insert(h, cpu);
        }

        let analyzers: Vec<ServiceStation> = (0..arch.analyzers.max(1))
            .map(|_| {
                mk_station("analyzer", arch.analyzer_capacity_ops, SimDuration::from_millis(200))
            })
            .collect();

        let monitor = Monitor::new(
            mk_station("monitor", arch.monitor_capacity_ops, SimDuration::from_secs(2)),
            arch.notification_delay,
        );
        let console = ManagementConsole::new(arch.response, arch.response_delay);

        let has_network_engines =
            product.engines.signature.is_some() || product.engines.anomaly.is_some();
        let monitored_set: HostSet = config.monitored_hosts.iter().copied().collect();

        Self {
            window: RecordWindow::default(),
            tap: arch.tap,
            lb,
            fallback_route: arch.balance,
            sensors,
            sensor_sig,
            sensor_ano,
            agents,
            host_cpus,
            analyzers,
            combined: arch.combined_sensor_analyzer,
            monitor,
            console,
            auto_response: config.auto_response,
            data_pool: config.data_pool.clone(),
            has_network_engines,
            monitored_set,
            offered: 0,
            monitored: 0,
            attack_sources: HostSet::default(),
            alert_truths: Vec::new(),
            pool_excluded: 0,
            induced_latency: DurationSummary::new(),
            blocked_attack: 0,
            blocked_benign: 0,
            rr_next: 0,
            telemetry: config.telemetry.clone(),
            faults: config
                .faults
                .as_ref()
                .map(|p| p.compile())
                .unwrap_or_else(CompiledFaults::none),
            fstats: FaultStats::default(),
            analyzer_replay: Vec::new(),
            monitor_replay: Vec::new(),
            console_replay: Vec::new(),
            replay_scheduled: Vec::new(),
        }
    }

    /// Admit one trace record into the live window, doing the per-record
    /// accounting the monolithic path used to precompute over the whole
    /// trace: monitoring scope, the offered count, and attack sources (for
    /// collateral-damage attribution).
    fn admit(&mut self, idx: u32, record: TraceRecord) {
        let in_scope = self.has_network_engines
            || self.monitored_set.has_host(record.packet.ip.dst)
            || self.monitored_set.has_host(record.packet.ip.src);
        if in_scope {
            self.offered += 1;
        }
        if record.truth.is_some() {
            self.attack_sources.add_host(record.packet.ip.src);
        }
        self.window.insert(idx, record, in_scope);
    }

    fn route(&mut self, packet: &idse_net::Packet) -> usize {
        if let Some(lb) = self.lb.as_mut() {
            return lb.route(packet);
        }
        self.fallback_sensor(packet)
    }

    /// LB-free routing — also the bypass path when an injected fault kills
    /// the (optional, 1c) balancing subprocess.
    fn fallback_sensor(&mut self, packet: &idse_net::Packet) -> usize {
        let n = self.sensors.len();
        match self.fallback_route {
            BalanceStrategy::None => 0,
            BalanceStrategy::StaticPartition => (u32::from(packet.ip.dst) as usize) % n,
            BalanceStrategy::SessionHash => (FlowKey::of(packet).session_hash() as usize) % n,
            BalanceStrategy::RoundRobin => {
                let s = self.rr_next;
                self.rr_next = (self.rr_next + 1) % n;
                s
            }
        }
    }

    /// Offer `rec` to `sensor` at `t`, walking to the next live instance
    /// (the Sensor side of Figure 2's M:M promise) with per-hop retry
    /// backoff when the preferred target is crashed.
    fn offer_to_sensor(&mut self, t: SimTime, rec: u32, sensor: usize, queue: &mut EventQueue<Ev>) {
        let n = self.sensors.len();
        let mut target = None;
        for hop in 0..n {
            let cand = (sensor + hop) % n;
            if !self.faults.is_down(FaultComponent::Sensor(cand as u8), t) {
                target = Some((cand, hop));
                break;
            }
        }
        let Some((cand, hop)) = target else {
            // Every sensor instance is down: the record is lost.
            self.fstats.lost_records += 1;
            self.telemetry.counter(t.as_nanos(), "fault.tap_drop", 1);
            return;
        };
        let mut t = t;
        if hop > 0 {
            let backoff = reroute_backoff(hop);
            self.fstats.rerouted += 1;
            self.fstats.reroute_delay_total += backoff;
            self.telemetry.counter(t.as_nanos(), "fault.reroute", 1);
            t += backoff;
        }
        let cost = self.sensor_cost(cand, &self.window.record(rec).packet);
        match self.sensors[cand].serve(t, cost) {
            ServeOutcome::Done(done) => {
                self.telemetry.span(t.as_nanos(), done.as_nanos(), "stage.sense");
                self.window.retain(rec);
                queue.schedule(done, Ev::SensorDone { sensor: cand as u8, rec });
            }
            _ => {
                // Sensor shed or down: packet unmonitored.
                self.telemetry.counter(t.as_nanos(), "shed.sense", 1);
            }
        }
    }

    fn sensor_cost(&self, sensor: usize, packet: &idse_net::Packet) -> f64 {
        let mut cost = 10.0;
        if let Some(e) = &self.sensor_sig[sensor] {
            cost += e.cost_ops(packet);
        }
        if let Some(e) = &self.sensor_ano[sensor] {
            cost += e.cost_ops(packet);
        }
        cost
    }

    fn dispatch_detections(
        &mut self,
        now: SimTime,
        rec: u32,
        sensor: usize,
        observed: SimTime,
        detections: impl IntoIterator<Item = Detection>,
        queue: &mut EventQueue<Ev>,
    ) {
        for det in detections {
            if self.combined {
                // Analysis runs on the same station as sensing.
                match self.sensors[sensor].serve(now, 400.0) {
                    ServeOutcome::Done(t) => {
                        self.telemetry.span(now.as_nanos(), t.as_nanos(), "stage.analyze");
                        self.window.retain(rec);
                        queue.schedule(t, Ev::AnalyzerDone { rec, observed, det });
                    }
                    _ => {
                        // Analysis backlog shed: detection lost.
                        self.telemetry.counter(now.as_nanos(), "shed.analyze", 1);
                    }
                }
            } else {
                let n = self.analyzers.len();
                let base = sensor % n;
                let mut target = None;
                for hop in 0..n {
                    let cand = (base + hop) % n;
                    if !self.faults.is_down(FaultComponent::Analyzer(cand as u8), now) {
                        target = Some((cand, hop));
                        break;
                    }
                }
                match target {
                    Some((cand, hop)) => {
                        let mut t = now;
                        if hop > 0 {
                            // Sensor M:M Analyzer: the sensor retries the
                            // next live analyzer, paying backoff per hop.
                            let backoff = reroute_backoff(hop);
                            self.fstats.rerouted += 1;
                            self.fstats.reroute_delay_total += backoff;
                            self.telemetry.counter(now.as_nanos(), "fault.reroute", 1);
                            t = now + backoff;
                        }
                        match self.analyzers[cand].serve(t, 400.0) {
                            ServeOutcome::Done(done) => {
                                self.telemetry.span(t.as_nanos(), done.as_nanos(), "stage.analyze");
                                self.window.retain(rec);
                                queue.schedule(done, Ev::AnalyzerDone { rec, observed, det });
                            }
                            _ => {
                                self.telemetry.counter(t.as_nanos(), "shed.analyze", 1);
                            }
                        }
                    }
                    None => {
                        // Every analyzer is down. Bounded buffering until
                        // the earliest restart (state replay); a hang or a
                        // full buffer loses the detection.
                        let restart = (0..n)
                            .filter_map(|i| {
                                self.faults.restart_at(FaultComponent::Analyzer(i as u8), now)
                            })
                            .min();
                        match restart {
                            Some(at) if self.analyzer_replay.len() < REPLAY_LIMIT => {
                                self.window.retain(rec);
                                self.analyzer_replay.push((rec, observed, det));
                                self.fstats.alerts_buffered += 1;
                                self.telemetry.counter(now.as_nanos(), "fault.buffered", 1);
                                self.schedule_replay(at, queue);
                            }
                            _ => {
                                self.fstats.lost_alerts += 1;
                                self.telemetry.counter(now.as_nanos(), "fault.alert_lost", 1);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Schedule a [`Ev::Replay`] at `at` once.
    fn schedule_replay(&mut self, at: SimTime, queue: &mut EventQueue<Ev>) {
        if !self.replay_scheduled.contains(&at) {
            self.replay_scheduled.push(at);
            queue.schedule(at, Ev::Replay);
        }
    }

    /// The management console evaluates its response policy for an alert
    /// made visible at `at`.
    fn console_react(&mut self, at: SimTime, alert: &Alert) {
        let blocked_before = self.console.blocked_sources().len();
        self.console.react(alert);
        let installed = at + self.console.response_delay();
        self.telemetry.span(at.as_nanos(), installed.as_nanos(), "stage.manage");
        if self.console.blocked_sources().len() > blocked_before {
            self.telemetry.counter(installed.as_nanos(), "manage.block", 1);
        }
    }

    /// Monitor-side presentation of a completed analysis, with every
    /// monitor/manager-side fault applied: alert-channel drops, monitor
    /// outage buffering (Analyzer M:1 Monitor), clock skew on the
    /// presentation stamp, and manager-outage alert holding (Monitor 1:1c
    /// Manager).
    fn present_alert(
        &mut self,
        now: SimTime,
        rec: u32,
        observed: SimTime,
        det: Detection,
        queue: &mut EventQueue<Ev>,
    ) {
        if self.faults.alert_channel_down(now) {
            // The analyzer→monitor channel eats the alert silently.
            self.fstats.lost_alerts += 1;
            self.telemetry.counter(now.as_nanos(), "fault.alert_lost", 1);
            return;
        }
        if self.faults.is_down(FaultComponent::Monitor, now) {
            match self.faults.restart_at(FaultComponent::Monitor, now) {
                Some(at) if self.monitor_replay.len() < REPLAY_LIMIT => {
                    self.window.retain(rec);
                    self.monitor_replay.push((rec, observed, det));
                    self.fstats.alerts_buffered += 1;
                    self.telemetry.counter(now.as_nanos(), "fault.buffered", 1);
                    self.schedule_replay(at, queue);
                }
                _ => {
                    self.fstats.lost_alerts += 1;
                    self.telemetry.counter(now.as_nanos(), "fault.alert_lost", 1);
                }
            }
            return;
        }
        let record = self.window.record(rec);
        let truth = record.truth;
        let alert = Alert {
            raised_at: now, // monitor re-stamps on presentation
            observed_at: observed,
            trigger: rec as usize,
            flow: FlowKey::of(&record.packet),
            class_guess: det.class,
            severity: det.severity,
            source: det.source,
            sensor: 0,
            detector: det.detector.into(),
        };
        // Injected clock skew shifts the monitor's presentation clock.
        let skew = self.faults.skew(FaultComponent::Monitor, now);
        if skew > SimDuration::ZERO {
            self.fstats.skewed_alerts += 1;
        }
        match self.monitor.present(now + skew, alert) {
            Some(visible) => {
                // One truth entry per stored alert, in presentation order.
                self.alert_truths.push(truth);
                self.telemetry.span(now.as_nanos(), visible.as_nanos(), "stage.monitor");
                self.telemetry.counter(visible.as_nanos(), "pipeline.alert", 1);
                if self.auto_response {
                    let presented = self.monitor.alerts().last().cloned().expect("just presented");
                    if self.faults.is_down(FaultComponent::Manager, visible) {
                        // Monitor 1:1c Manager: the monitor holds
                        // manager-bound alerts across the outage.
                        match self.faults.restart_at(FaultComponent::Manager, visible) {
                            Some(at) if self.console_replay.len() < REPLAY_LIMIT => {
                                self.console_replay.push(presented);
                                self.fstats.alerts_buffered += 1;
                                self.telemetry.counter(visible.as_nanos(), "fault.buffered", 1);
                                self.schedule_replay(at, queue);
                            }
                            _ => {
                                // The optional manager never returns: the
                                // operator still sees the alert; only the
                                // automated response is lost.
                                self.telemetry.counter(
                                    visible.as_nanos(),
                                    "fault.response_lost",
                                    1,
                                );
                            }
                        }
                    } else {
                        self.console_react(visible, &presented);
                    }
                }
            }
            None => {
                self.telemetry.counter(now.as_nanos(), "shed.monitor", 1);
            }
        }
    }

    /// A restart instant: drain whichever bounded replay buffers' gating
    /// component is back up.
    fn run_replay(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        let analyzers_up = (0..self.analyzers.len())
            .any(|i| !self.faults.is_down(FaultComponent::Analyzer(i as u8), now));
        if !self.analyzer_replay.is_empty() && analyzers_up {
            let buffered = std::mem::take(&mut self.analyzer_replay);
            self.fstats.replayed += buffered.len() as u64;
            self.telemetry.counter(now.as_nanos(), "fault.replay", buffered.len() as u64);
            for (rec, observed, det) in buffered {
                // Re-dispatch on the restarted analyzers; the original
                // sensing instant survives as `observed`.
                self.dispatch_detections(
                    now,
                    rec,
                    rec as usize,
                    observed,
                    std::iter::once(det),
                    queue,
                );
                self.window.release(rec);
            }
        }
        if !self.monitor_replay.is_empty() && !self.faults.is_down(FaultComponent::Monitor, now) {
            let buffered = std::mem::take(&mut self.monitor_replay);
            self.fstats.replayed += buffered.len() as u64;
            self.telemetry.counter(now.as_nanos(), "fault.replay", buffered.len() as u64);
            for (rec, observed, det) in buffered {
                self.present_alert(now, rec, observed, det, queue);
                self.window.release(rec);
            }
        }
        if !self.console_replay.is_empty() && !self.faults.is_down(FaultComponent::Manager, now) {
            let buffered = std::mem::take(&mut self.console_replay);
            self.fstats.replayed += buffered.len() as u64;
            self.telemetry.counter(now.as_nanos(), "fault.replay", buffered.len() as u64);
            for mut alert in buffered {
                // The restarted manager reacts on its own (restart) clock.
                alert.raised_at = now;
                self.console_react(now, &alert);
            }
        }
    }

    fn finish(mut self, finished_at: SimTime) -> PipelineOutcome {
        let monitored = self.monitored;
        let offered = self.offered;
        let blocked_total = self.blocked_attack + self.blocked_benign + self.pool_excluded;
        let missed = offered - monitored - blocked_total.min(offered - monitored);

        let host_impact = if self.host_cpus.is_empty() {
            0.0
        } else {
            self.host_cpus.values().map(|c| c.ids_impact(finished_at)).sum::<f64>()
                / self.host_cpus.len() as f64
        };

        let mut state_bytes = 0;
        for e in self.sensor_sig.iter().flatten() {
            state_bytes += e.state_bytes();
        }
        for e in self.sensor_ano.iter().flatten() {
            state_bytes += e.state_bytes();
        }
        if let Some(a) = &self.agents {
            state_bytes += a.state_bytes();
        }

        let failures = self.sensors.iter().map(|s| s.failures()).sum::<u32>()
            + self.analyzers.iter().map(|s| s.failures()).sum::<u32>()
            + self.lb.as_ref().map(|l| l.station.failures()).unwrap_or(0)
            + self.monitor.station.failures();
        // Injected-fault accounting: recovery counts come straight off the
        // compiled schedule; anything still in a replay buffer at end of
        // run never reached its destination.
        let (crashes, recoveries) = self.faults.crash_recovery_counts(finished_at);
        self.fstats.crashes_seen = crashes;
        self.fstats.recoveries_seen = recoveries;
        let stranded = (self.analyzer_replay.len() + self.monitor_replay.len()) as u64;
        self.fstats.lost_alerts += stranded;
        let fault_down =
            self.faults.outages().iter().any(|o| o.start <= finished_at && finished_at < o.end);
        for o in self.faults.outages() {
            if o.start <= finished_at {
                self.telemetry.span(
                    o.start.as_nanos(),
                    o.end.min(finished_at).as_nanos(),
                    "fault.outage",
                );
            }
        }

        let ended_down = self.sensors.iter().any(|s| s.is_down(finished_at))
            || self.analyzers.iter().any(|s| s.is_down(finished_at))
            || self.lb.as_ref().is_some_and(|l| l.station.is_down(finished_at))
            || fault_down;
        if failures > 0 {
            self.telemetry.counter(
                finished_at.as_nanos(),
                "pipeline.failures",
                u64::from(failures),
            );
        }

        // Collateral damage: blocked sources that never sent attack
        // packets (attack sources were accumulated record by record on
        // admission).
        let collateral = self
            .console
            .blocked_sources()
            .iter()
            .filter(|&&(src, _)| !self.attack_sources.has_host(src))
            .count();

        let alerts = self.monitor.take_alerts();
        debug_assert_eq!(alerts.len(), self.alert_truths.len());
        PipelineOutcome {
            alerts,
            alert_truths: self.alert_truths,
            window_peak: self.window.peak,
            offered,
            monitored,
            missed,
            blocked: (self.blocked_attack, self.blocked_benign),
            pool_excluded: self.pool_excluded,
            collateral_blocked_sources: collateral,
            lb_counters: self.lb.as_ref().map(|l| l.station.counters()),
            sensor_counters: self.sensors.iter().map(|s| s.counters()).collect(),
            analyzer_counters: self.analyzers.iter().map(|s| s.counters()).collect(),
            induced_latency: self.induced_latency,
            failures,
            ended_down,
            host_impact,
            state_bytes,
            fault_stats: self.fstats,
            finished_at,
        }
    }
}

impl World for DeploymentWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        // Every record-carrying event holds one window reference; release
        // it when the handler finishes, whichever path it took. Follow-up
        // events and replay-buffer slots take their own holds.
        let held = match &event {
            Ev::Arrive(rec)
            | Ev::SensorDone { rec, .. }
            | Ev::AgentDone { rec }
            | Ev::AnalyzerDone { rec, .. } => Some(*rec),
            Ev::Replay => None,
        };
        self.dispatch_event(now, event, queue);
        if let Some(rec) = held {
            self.window.release(rec);
        }
    }
}

impl DeploymentWorld {
    fn dispatch_event(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Arrive(rec) => {
                // Clone the handles out of the window (the payload is
                // shared, not copied) so the stations below can borrow
                // `self` mutably.
                let record = self.window.record(rec);
                let truth = record.truth;
                let packet = record.packet.clone();
                let packet = &packet;
                let in_scope = self.window.in_scope(rec);

                // Perimeter auto-response: blocked sources never reach the
                // protected network (nor the IDS).
                if self.auto_response && self.console.is_blocked(now, packet.ip.src) {
                    if in_scope {
                        if truth.is_some() {
                            self.blocked_attack += 1;
                        } else {
                            self.blocked_benign += 1;
                        }
                    }
                    return;
                }

                // Injected CPU exhaustion: a co-resident workload steals
                // capacity on every monitored host while the window is
                // active (and releases it after).
                if !self.faults.is_empty() {
                    let steal = self.faults.cpu_steal_percent(now);
                    for cpu in self.host_cpus.values_mut() {
                        cpu.set_contention_percent(steal);
                    }
                }

                // Host agents observe from the host vantage, independent of
                // the network sensor path.
                if let Some(agent) = self.agents.as_mut() {
                    let cost = agent.cost_ops(packet);
                    if cost > 0.0 {
                        let charge_host = if self.host_cpus.contains_key(&packet.ip.dst) {
                            Some(packet.ip.dst)
                        } else if self.host_cpus.contains_key(&packet.ip.src) {
                            Some(packet.ip.src)
                        } else {
                            None
                        };
                        if let Some(h) = charge_host {
                            let cpu = self.host_cpus.get_mut(&h).expect("host exists");
                            match cpu.execute_ids(now, cost) {
                                idse_sim::host::CpuVerdict::Completed { at } => {
                                    self.window.retain(rec);
                                    queue.schedule(at, Ev::AgentDone { rec });
                                }
                                idse_sim::host::CpuVerdict::Overloaded => {
                                    // Overloaded host: the agent misses this event.
                                    self.telemetry.counter(now.as_nanos(), "shed.host_agent", 1);
                                }
                            }
                            cpu.sample_telemetry(&self.telemetry, now);
                        }
                    }
                }

                if self.sensors.is_empty() || !in_scope {
                    return;
                }
                // Data-pool selection: out-of-pool packets are neither
                // inspected nor charged (Table 2's selectability, made
                // functional). They count as unmonitored-by-choice, not
                // as loss.
                if !self.data_pool.selects(packet) {
                    self.pool_excluded += 1;
                    return;
                }
                // Injected tap faults: a partition loses the record
                // outright; a degraded feed flips a per-record coin and
                // delivers survivors late.
                let mut t0 = now;
                if !self.faults.is_empty() {
                    if self.faults.partitioned(now) || self.faults.degrade_drops(now, rec) {
                        self.fstats.lost_records += 1;
                        self.telemetry.counter(now.as_nanos(), "fault.tap_drop", 1);
                        return;
                    }
                    if let Some((_, extra)) = self.faults.degrade(now) {
                        t0 = now + extra;
                    }
                }
                let lb_down =
                    self.lb.is_some() && self.faults.is_down(FaultComponent::LoadBalancer, t0);
                let sensor =
                    if lb_down { self.fallback_sensor(packet) } else { self.route(packet) };
                // The LB station (if any) is the in-line element.
                let deliver_at = if lb_down {
                    // 1c:M fail-open: with the optional balancing
                    // subprocess dead, the tap feeds the sensors directly
                    // over the static fallback routing.
                    self.fstats.lb_bypassed += 1;
                    self.telemetry.counter(t0.as_nanos(), "fault.lb_bypass", 1);
                    Some(t0)
                } else if let Some(lb) = self.lb.as_mut() {
                    let cost = 20.0 + 0.05 * packet.payload.len() as f64;
                    match lb.station.serve(t0, cost) {
                        ServeOutcome::Done(t) => {
                            if self.tap == TapMode::Inline {
                                self.induced_latency.record(t.saturating_since(now));
                            }
                            self.telemetry.span(t0.as_nanos(), t.as_nanos(), "stage.load_balance");
                            Some(t)
                        }
                        _ => {
                            // LB shed: packet unmonitored (fail-open).
                            self.telemetry.counter(t0.as_nanos(), "shed.load_balance", 1);
                            None
                        }
                    }
                } else {
                    Some(t0)
                };
                if let Some(t) = deliver_at {
                    self.offer_to_sensor(t, rec, sensor, queue);
                }
            }

            Ev::SensorDone { sensor, rec } => {
                let record = self.window.record(rec);
                let at = record.at;
                let packet = record.packet.clone();
                // For host-agent-only products the network station is just
                // the report aggregation point — passing it is not
                // inspection.
                if self.has_network_engines && self.window.mark_monitored(rec) {
                    self.monitored += 1;
                }
                let sensor = sensor as usize;
                // Match latency: trace-record timestamp → engines run.
                self.telemetry.span(at.as_nanos(), now.as_nanos(), "engine.match");
                let mut detections = Vec::new();
                if let Some(e) = self.sensor_sig[sensor].as_mut() {
                    detections.extend(e.inspect(now, &packet));
                }
                if let Some(e) = self.sensor_ano[sensor].as_mut() {
                    detections.extend(e.inspect(now, &packet));
                }
                self.dispatch_detections(now, rec, sensor, now, detections, queue);
            }

            Ev::AgentDone { rec } => {
                let packet = self.window.record(rec).packet.clone();
                if self.window.mark_monitored(rec) {
                    self.monitored += 1;
                }
                let detections = match self.agents.as_mut() {
                    Some(agent) => agent.inspect(now, &packet),
                    None => Vec::new(),
                };
                // Agent reports go to analyzer 0 (the aggregation point).
                if !detections.is_empty() {
                    let sensor = 0;
                    self.dispatch_detections(now, rec, sensor, now, detections, queue);
                }
            }

            Ev::AnalyzerDone { rec, observed, det } => {
                self.present_alert(now, rec, observed, det, queue);
            }

            Ev::Replay => {
                self.run_replay(now, queue);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::products::ProductId;
    use idse_attacks::{Campaign, CampaignConfig, Scenario};
    use idse_sim::SimDuration;
    use idse_traffic::{GeneratorConfig, RecordStream, SiteProfile, StreamConfig};

    fn benign(seed: u64, secs: u64, rate: f64) -> Trace {
        RecordStream::new(StreamConfig::new(GeneratorConfig::new(
            SiteProfile::ecommerce_web(),
            rate,
            SimDuration::from_secs(secs),
            seed,
        )))
        .expect("rate in range")
        .collect_trace()
    }

    fn mixed(seed: u64, secs: u64) -> Trace {
        let mut t = benign(seed, secs, 25.0);
        let cfg = CampaignConfig::new(SimDuration::from_secs(secs), seed ^ 0xa77ac);
        let c = Campaign::standard_mix(&SiteProfile::ecommerce_web(), &cfg);
        t.merge(c.generate(&cfg));
        t
    }

    fn servers() -> Vec<Ipv4Addr> {
        let block: idse_net::Cidr = "10.0.1.0/24".parse().unwrap();
        (1..=6).map(|i| block.host(i)).collect()
    }

    #[test]
    fn benign_run_produces_few_alerts_and_no_loss() {
        let product = IdsProduct::model(ProductId::NidSentry);
        let runner =
            PipelineRunner::new(product, RunConfig::default()).with_training(benign(1, 10, 20.0));
        let out = runner.run(&benign(2, 10, 20.0));
        assert_eq!(out.offered, out.monitored, "moderate load must be lossless");
        assert_eq!(out.failures, 0);
        let ratio = out.alerts.len() as f64 / out.offered as f64;
        assert!(ratio < 0.01, "benign alert ratio {ratio}");
    }

    #[test]
    fn attacks_generate_alerts() {
        let product = IdsProduct::model(ProductId::NidSentry);
        let runner = PipelineRunner::new(
            product,
            RunConfig { sensitivity: Sensitivity::new(0.7), ..RunConfig::default() },
        )
        .with_training(benign(1, 10, 20.0));
        let out = runner.run(&mixed(3, 30));
        assert!(!out.alerts.is_empty(), "campaign must trigger alerts");
        // Alerts attribute to attack packets (mostly).
        assert!(out.alert_truths.iter().flatten().count() > 0);
    }

    #[test]
    fn chunked_session_is_byte_identical_to_monolithic() {
        let trace = mixed(3, 30);
        let product = IdsProduct::model(ProductId::NidSentry);
        let mk = || {
            PipelineRunner::new(
                product.clone(),
                RunConfig { sensitivity: Sensitivity::new(0.7), ..RunConfig::default() },
            )
            .with_training(benign(1, 10, 20.0))
        };
        let mono = mk().run(&trace);
        assert!(!mono.alerts.is_empty());
        for chunk in [1usize, 97, 4096] {
            let mut session = mk().session();
            for c in trace.records().chunks(chunk) {
                session.push_chunk(c.iter().cloned());
            }
            let out = session.finish();
            assert_eq!(out.alerts, mono.alerts, "chunk size {chunk} changed the alerts");
            assert_eq!(out.alert_truths, mono.alert_truths);
            assert_eq!(out.offered, mono.offered);
            assert_eq!(out.monitored, mono.monitored);
            assert_eq!(out.missed, mono.missed);
            assert_eq!(out.blocked, mono.blocked);
            assert_eq!(out.finished_at, mono.finished_at);
            // Small chunks keep the live window far below the trace length.
            if chunk < trace.len() / 4 {
                assert!(
                    out.window_peak < trace.len() / 2,
                    "window peak {} vs trace {}",
                    out.window_peak,
                    trace.len()
                );
            }
        }
    }

    #[test]
    fn alert_truths_join_alerts_to_ground_truth() {
        let trace = mixed(7, 30);
        let product = IdsProduct::model(ProductId::NidSentry);
        let out = PipelineRunner::new(
            product,
            RunConfig { sensitivity: Sensitivity::new(0.7), ..RunConfig::default() },
        )
        .with_training(benign(1, 10, 20.0))
        .run(&trace);
        assert_eq!(out.alerts.len(), out.alert_truths.len());
        for (alert, truth) in out.alerts.iter().zip(out.alert_truths.iter()) {
            assert_eq!(trace.records()[alert.trigger].truth, *truth);
        }
    }

    #[test]
    fn anomaly_product_requires_training() {
        let product = IdsProduct::model(ProductId::FlowHunter);
        // No training: the anomaly engine stays silent.
        let runner = PipelineRunner::new(product.clone(), RunConfig::default());
        let out = runner.run(&mixed(4, 20));
        assert!(out.alerts.is_empty());
        // With training it detects.
        let runner = PipelineRunner::new(
            product,
            RunConfig { sensitivity: Sensitivity::new(0.8), ..RunConfig::default() },
        )
        .with_training(benign(5, 15, 25.0));
        let out = runner.run(&mixed(4, 20));
        assert!(!out.alerts.is_empty());
    }

    #[test]
    fn host_agents_charge_host_cpu() {
        let product = IdsProduct::model(ProductId::AgentWatch);
        let cfg = RunConfig {
            monitored_hosts: servers(),
            sensitivity: Sensitivity::new(0.6),
            ..RunConfig::default()
        };
        let runner = PipelineRunner::new(product, cfg).with_training(benign(1, 10, 20.0));
        let out = runner.run(&benign(2, 10, 30.0));
        assert!(out.host_impact > 0.0, "agents must consume host CPU");
        assert!(out.host_impact < 0.5, "impact {} should be a modest fraction", out.host_impact);
    }

    #[test]
    fn inline_product_induces_latency_mirrored_does_not() {
        let fh = IdsProduct::model(ProductId::FlowHunter);
        let runner =
            PipelineRunner::new(fh, RunConfig::default()).with_training(benign(1, 10, 20.0));
        let out = runner.run(&benign(2, 10, 20.0));
        assert!(out.induced_latency.count() > 0);
        assert!(out.induced_latency.mean() > SimDuration::ZERO);

        let nid = IdsProduct::model(ProductId::NidSentry);
        let runner = PipelineRunner::new(nid, RunConfig::default());
        let out = runner.run(&benign(2, 10, 20.0));
        assert_eq!(out.induced_latency.count(), 0, "mirrored tap induces nothing");
    }

    #[test]
    fn overload_causes_loss_and_eventually_failure() {
        let product = IdsProduct::model(ProductId::AgentWatch); // weakest station
                                                                // A dense SYN flood at extreme rate against a monitored host.
        let flood = idse_attacks::flood::SynFlood {
            rate: 2_000_000.0,
            duration: SimDuration::from_secs(1),
            ..idse_attacks::flood::SynFlood::new(Ipv4Addr::new(10, 0, 1, 1))
        };
        let mut rng = idse_sim::RngStream::derive(9, "lethal");
        let trace = flood.generate(SimTime::ZERO, 1, &mut rng);
        let cfg = RunConfig { monitored_hosts: servers(), ..RunConfig::default() };
        let runner = PipelineRunner::new(product, cfg);
        let out = runner.run(&trace);
        assert!(out.loss_ratio() > 0.25, "loss {}", out.loss_ratio());
        assert!(out.failures > 0, "extreme overload must trip the failure behavior");
        assert!(out.ended_down, "AgentWatch hangs and stays down");
    }

    #[test]
    fn data_pool_filter_trades_cost_for_blindness() {
        // The paper's cluster use case: exclude intra-cluster traffic from
        // the pool. Inspection load falls; attacks that stay inside the
        // trust domain become invisible — both effects measurable.
        let product = IdsProduct::model(ProductId::FlowHunter);
        let cluster_profile = idse_traffic::SiteProfile::realtime_cluster();
        let training = RecordStream::new(StreamConfig::new(GeneratorConfig::new(
            cluster_profile.clone(),
            20.0,
            SimDuration::from_secs(10),
            61,
        )))
        .expect("rate in range")
        .collect_trace();
        let mut test = RecordStream::new(StreamConfig::new(GeneratorConfig::new(
            cluster_profile.clone(),
            20.0,
            SimDuration::from_secs(15),
            62,
        )))
        .expect("rate in range")
        .collect_trace();
        // An intra-domain trust exploit.
        let te = idse_attacks::trust::TrustExploit::new(
            cluster_profile.clients.host(3),
            cluster_profile.clients.host(9),
        );
        let mut rng = idse_sim::RngStream::derive(63, "te");
        test.merge(idse_attacks::Scenario::generate(&te, SimTime::from_secs(2), 1, &mut rng));

        let run = |pool: crate::datapool::DataPoolFilter| {
            let cfg = RunConfig {
                sensitivity: Sensitivity::new(0.9),
                data_pool: pool,
                ..RunConfig::default()
            };
            PipelineRunner::new(product.clone(), cfg).with_training(training.clone()).run(&test)
        };
        let full = run(crate::datapool::DataPoolFilter::everything());
        let boundary = run(crate::datapool::DataPoolFilter::boundary_of(cluster_profile.clients));
        assert_eq!(full.pool_excluded, 0);
        assert!(boundary.pool_excluded > 0, "intra-domain traffic must be carved out");
        // Sensing load falls with the pool.
        let load = |o: &PipelineOutcome| o.sensor_counters.iter().map(|c| c.offered).sum::<u64>();
        assert!(load(&boundary) < load(&full));
        // The intra-domain attack is visible only in the full pool.
        let saw_trust = |o: &PipelineOutcome| {
            o.alert_truths
                .iter()
                .flatten()
                .any(|t| t.class == idse_net::trace::AttackClass::TrustExploit)
        };
        assert!(saw_trust(&full), "full pool sees the trust exploit");
        assert!(!saw_trust(&boundary), "the carve-out is blind to it");
    }

    #[test]
    fn telemetry_observes_all_stages_without_changing_outcomes() {
        use idse_telemetry::{summary::summarize, MemorySink, Telemetry};
        let product = IdsProduct::model(ProductId::GuardSecure);
        let base_cfg = RunConfig {
            sensitivity: Sensitivity::new(0.7),
            monitored_hosts: servers(),
            auto_response: true,
            ..RunConfig::default()
        };
        let plain = PipelineRunner::new(product.clone(), base_cfg.clone())
            .with_training(benign(1, 10, 20.0))
            .run(&mixed(3, 30));
        let sink = MemorySink::new(1 << 16);
        let cfg = RunConfig { telemetry: Telemetry::new(sink.clone()), ..base_cfg };
        let observed =
            PipelineRunner::new(product, cfg).with_training(benign(1, 10, 20.0)).run(&mixed(3, 30));
        // Observation must not perturb the run.
        assert_eq!(plain.alerts.len(), observed.alerts.len());
        assert_eq!(plain.monitored, observed.monitored);
        assert_eq!(plain.missed, observed.missed);
        assert_eq!(plain.blocked, observed.blocked);

        let s = summarize(&sink.events());
        for stage in ["stage.sense", "stage.analyze", "stage.monitor", "stage.manage"] {
            assert!(s.span(stage).is_some(), "{stage} missing from summary");
        }
        assert!(s.span("engine.match").is_some());
        assert!(s.counter("pipeline.alert").is_some());

        // The load-balanced product also exposes the fifth stage.
        let lb_sink = MemorySink::new(1 << 16);
        let cfg = RunConfig { telemetry: Telemetry::new(lb_sink.clone()), ..RunConfig::default() };
        PipelineRunner::new(IdsProduct::model(ProductId::FlowHunter), cfg)
            .with_training(benign(1, 10, 20.0))
            .run(&benign(2, 10, 20.0));
        let s = summarize(&lb_sink.events());
        assert!(s.span("stage.load_balance").is_some(), "LB stage missing");
    }

    mod window {
        use super::*;
        use idse_net::packet::{Ipv4Header, Packet, UdpHeader};
        use proptest::prelude::*;

        /// The oracle: every live record in an ordered map, nothing else.
        #[derive(Default)]
        struct Model {
            live: BTreeMap<u32, (bool, bool, u32)>, // (in_scope, monitored, refs)
            next: u32,
            peak: usize,
            evicted_unmonitored: u64,
        }

        fn record(idx: u32) -> TraceRecord {
            let ip = Ipv4Header::simple(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
            let udp = UdpHeader { src_port: 1, dst_port: 53 };
            TraceRecord {
                at: SimTime::from_nanos(u64::from(idx)),
                packet: Packet::udp(ip, udp, Vec::new()),
                truth: None,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random admit/retain/mark/release sequences: the window agrees
            /// with the ordered-map model on every lookup, the peak live
            /// count and the evicted-unmonitored count.
            #[test]
            fn window_matches_ordered_map_model(
                ops in prop::collection::vec(
                    (0u8..5, any::<bool>(), any::<prop::sample::Index>()),
                    0..400,
                ),
            ) {
                let mut window = RecordWindow::default();
                let mut model = Model::default();
                for (op, in_scope, pick) in ops {
                    let live: Vec<u32> = model.live.keys().copied().collect();
                    let target = (!live.is_empty()).then(|| live[pick.index(live.len())]);
                    match (op, target) {
                        (0, _) | (_, None) => {
                            window.insert(model.next, record(model.next), in_scope);
                            model.live.insert(model.next, (in_scope, false, 1));
                            model.next += 1;
                            model.peak = model.peak.max(model.live.len());
                        }
                        (1, Some(idx)) => {
                            window.retain(idx);
                            model.live.get_mut(&idx).expect("live").2 += 1;
                        }
                        (2, Some(idx)) => {
                            let e = model.live.get_mut(&idx).expect("live");
                            let first = e.0 && !e.1;
                            e.1 = true;
                            prop_assert_eq!(window.mark_monitored(idx), first);
                        }
                        (_, Some(idx)) => {
                            window.release(idx);
                            let e = model.live.get_mut(&idx).expect("live");
                            e.2 -= 1;
                            if e.2 == 0 {
                                if e.0 && !e.1 {
                                    model.evicted_unmonitored += 1;
                                }
                                model.live.remove(&idx);
                            }
                        }
                    }
                    for (&idx, &(in_scope, _, _)) in &model.live {
                        prop_assert_eq!(window.record(idx).at, SimTime::from_nanos(u64::from(idx)));
                        prop_assert_eq!(window.in_scope(idx), in_scope);
                    }
                    prop_assert_eq!(window.live, model.live.len());
                    prop_assert!(window.slots.front().is_none_or(Option::is_some));
                    prop_assert_eq!(window.peak, model.peak);
                    prop_assert_eq!(window.evicted_unmonitored, model.evicted_unmonitored);
                }
            }
        }
    }

    mod faults {
        use super::*;
        use idse_faults::{FaultComponent, FaultKind, FaultPlan};

        fn run_with(plan: Option<FaultPlan>) -> PipelineOutcome {
            let product = IdsProduct::model(ProductId::NidSentry);
            let cfg = RunConfig {
                sensitivity: Sensitivity::new(0.7),
                faults: plan,
                ..RunConfig::default()
            };
            PipelineRunner::new(product, cfg).with_training(benign(1, 10, 20.0)).run(&mixed(3, 30))
        }

        #[test]
        fn unfaulted_runs_report_quiet_stats() {
            let out = run_with(None);
            assert!(out.fault_stats.is_quiet());
            assert_eq!(out.fault_stats, FaultStats::default());
        }

        #[test]
        fn monitor_outage_buffers_alerts_and_replays_on_restart() {
            let baseline = run_with(None);
            let plan = FaultPlan::new("monitor-blink").with(
                SimTime::from_secs(5),
                FaultKind::Crash {
                    component: FaultComponent::Monitor,
                    restart_after: Some(SimDuration::from_secs(10)),
                },
            );
            let out = run_with(Some(plan));
            assert!(out.fault_stats.alerts_buffered > 0, "outage window must buffer");
            assert!(out.fault_stats.replayed > 0, "restart must replay the buffer");
            assert_eq!(out.fault_stats.crashes_seen, 1);
            assert_eq!(out.fault_stats.recoveries_seen, 1);
            assert!(!out.ended_down, "recovered run must not end down");
            // Buffering holds alerts; the bounded buffer may lose some,
            // but the recovered pipeline keeps most of the detections.
            assert!(!out.alerts.is_empty());
            assert!(
                out.alerts.len() + out.fault_stats.lost_alerts as usize
                    >= baseline.alerts.len() / 2
            );
        }

        #[test]
        fn monitor_hang_loses_alerts_and_ends_down() {
            let plan = FaultPlan::new("monitor-hang").with(
                SimTime::ZERO,
                FaultKind::Crash { component: FaultComponent::Monitor, restart_after: None },
            );
            let out = run_with(Some(plan));
            assert!(out.alerts.is_empty(), "a hung monitor presents nothing");
            assert!(out.fault_stats.lost_alerts > 0);
            assert!(out.ended_down);
            assert_eq!(out.fault_stats.recoveries_seen, 0);
        }

        #[test]
        fn tap_partition_loses_records() {
            let baseline = run_with(None);
            let plan = FaultPlan::new("tap-partition").with(
                SimTime::from_secs(5),
                FaultKind::LinkPartition { duration: SimDuration::from_secs(10) },
            );
            let out = run_with(Some(plan));
            assert!(out.fault_stats.lost_records > 0, "partition must eat records");
            assert!(out.monitored < baseline.monitored);
        }

        #[test]
        fn lb_kill_bypasses_and_detection_survives() {
            // FlowHunter deploys the optional (1c) load balancer.
            let product = IdsProduct::model(ProductId::FlowHunter);
            let plan = FaultPlan::new("lb-kill").with(
                SimTime::ZERO,
                FaultKind::Crash { component: FaultComponent::LoadBalancer, restart_after: None },
            );
            let cfg = RunConfig {
                sensitivity: Sensitivity::new(0.8),
                faults: Some(plan),
                ..RunConfig::default()
            };
            let out = PipelineRunner::new(product, cfg)
                .with_training(benign(5, 15, 25.0))
                .run(&mixed(4, 20));
            assert!(out.fault_stats.lb_bypassed > 0, "dead LB must be bypassed");
            assert!(!out.alerts.is_empty(), "fail-open keeps detection alive");
        }

        #[test]
        fn sensor_crash_reroutes_to_live_instance() {
            // GuardSecure fields several sensors; kill the first for a
            // while and watch records hop to its neighbors.
            let product = IdsProduct::model(ProductId::GuardSecure);
            let plan = FaultPlan::new("sensor-kill").with(
                SimTime::from_secs(2),
                FaultKind::Crash {
                    component: FaultComponent::Sensor(0),
                    restart_after: Some(SimDuration::from_secs(20)),
                },
            );
            let cfg = RunConfig {
                sensitivity: Sensitivity::new(0.7),
                faults: Some(plan),
                ..RunConfig::default()
            };
            let out = PipelineRunner::new(product, cfg)
                .with_training(benign(1, 10, 20.0))
                .run(&mixed(3, 30));
            assert!(out.fault_stats.rerouted > 0, "records must hop to a live sensor");
            assert!(out.fault_stats.mean_reroute() > SimDuration::ZERO);
            assert!(!out.alerts.is_empty(), "rerouted records still detect");
        }

        #[test]
        fn faulted_runs_replay_byte_identically() {
            let plan = || {
                FaultPlan::new("replay-check")
                    .with(
                        SimTime::from_secs(3),
                        FaultKind::LinkDegrade {
                            loss_per_mille: 300,
                            extra_latency: SimDuration::from_millis(2),
                            duration: SimDuration::from_secs(8),
                        },
                    )
                    .with(
                        SimTime::from_secs(6),
                        FaultKind::Crash {
                            component: FaultComponent::Monitor,
                            restart_after: Some(SimDuration::from_secs(5)),
                        },
                    )
            };
            let a = run_with(Some(plan()));
            let b = run_with(Some(plan()));
            assert_eq!(a.alerts, b.alerts);
            assert_eq!(a.fault_stats, b.fault_stats);
            assert_eq!(a.monitored, b.monitored);
            assert_eq!(a.missed, b.missed);
            assert!(!a.fault_stats.is_quiet());
        }
    }

    /// The pre-sharing deployment: every sensor builds and trains its own
    /// engines on `training`.
    fn run_with_per_sensor_training(
        product: IdsProduct,
        config: RunConfig,
        training: &Trace,
        test: &Trace,
    ) -> PipelineOutcome {
        let untrained = PipelineRunner::new(product, config);
        let mut world =
            DeploymentWorld::build(&untrained.product, &untrained.config, &untrained.trained);
        let observed = || {
            training.records().iter().map(|rec| (rec.at, BenignObservation::of_packet(&rec.packet)))
        };
        for engine in world.sensor_ano.iter_mut().flatten() {
            let mut fold = engine.clone().begin_anomaly_training();
            for (at, obs) in observed() {
                fold.learn_anomaly_baselines(at, &obs);
            }
            *engine = fold.finish_anomaly_training();
        }
        if let Some(agent) = world.agents.as_mut() {
            let mut fold = agent.clone().begin_login_training();
            for (_, obs) in observed() {
                fold.learn_login_origin(&obs);
            }
            *agent = fold.finish_login_training();
        }
        let mut sim = Simulation::new();
        sim.set_telemetry(untrained.config.telemetry.clone());
        let mut session = PipelineSession { world, sim, next_index: 0 };
        session.push_chunk(test.records().iter().cloned());
        session.finish()
    }

    #[test]
    fn shared_training_matches_per_sensor_training() {
        use idse_faults::{FaultComponent, FaultKind, FaultPlan};
        let training = benign(1, 10, 20.0);
        let test = mixed(3, 20);
        let plan = FaultPlan::new("shared-training")
            .with(
                SimTime::from_secs(2),
                FaultKind::Crash {
                    component: FaultComponent::Sensor(0),
                    restart_after: Some(SimDuration::from_secs(10)),
                },
            )
            .with(
                SimTime::from_secs(6),
                FaultKind::LinkDegrade {
                    loss_per_mille: 200,
                    extra_latency: SimDuration::from_millis(2),
                    duration: SimDuration::from_secs(8),
                },
            );
        let base =
            RunConfig { monitored_hosts: servers(), auto_response: true, ..RunConfig::default() };
        let fields = |o: &PipelineOutcome| {
            let counts = (o.offered, o.monitored, o.missed, o.blocked, o.window_peak);
            (o.alerts.clone(), o.alert_truths.clone(), counts, o.finished_at)
        };
        for id in ProductId::ALL {
            let product = IdsProduct::model(id);
            let shared =
                PipelineRunner::new(product.clone(), base.clone()).with_training(&training);
            for sensitivity in [0.2, 0.6, 0.9] {
                for faulted in [false, true] {
                    let config = RunConfig {
                        sensitivity: Sensitivity::new(sensitivity),
                        faults: faulted.then(|| plan.clone()),
                        ..base.clone()
                    };
                    let want = run_with_per_sensor_training(
                        product.clone(),
                        config.clone(),
                        &training,
                        &test,
                    );
                    // One trained runner serves all six configs: no
                    // deployment writes to the baselines it shares.
                    let got = shared.reconfigured(config).run(&test);
                    let at = format!("{id:?} at {sensitivity}, faulted {faulted}");
                    assert_eq!(fields(&got), fields(&want), "{at}");
                }
            }
        }
    }

    /// The streamed training fold learns exactly what training on the
    /// collected trace learns, for each of the four products: batches
    /// synthesized and observed on 1, 2 and 8 workers, merged in batch
    /// order, folded one observation at a time.
    #[test]
    fn streamed_training_fold_equals_trace_training() {
        use idse_traffic::{SessionMerge, SessionSynth};
        let profile = SiteProfile::realtime_cluster();
        let cfg = StreamConfig::new(GeneratorConfig::new(
            profile.clone(),
            30.0,
            SimDuration::from_secs(12),
            77,
        ));
        let trace = RecordStream::new(cfg.clone()).expect("rate in range").collect_trace();
        let synth = SessionSynth::new(cfg).expect("rate in range");
        let config = RunConfig {
            monitored_hosts: (1..=8).map(|i| profile.servers.host(i)).collect(),
            ..RunConfig::default()
        };
        let mut learned = Vec::new();
        for id in ProductId::ALL {
            let untrained = || PipelineRunner::new(IdsProduct::model(id), config.clone());
            let want = untrained().with_training(&trace).trained;
            for workers in [1usize, 2, 8] {
                let mut fold = untrained().begin_runner_training();
                idse_exec::Executor::new(workers).ordered_fan_out(
                    synth.session_batches(9),
                    |batch| {
                        let run = synth.synthesize_batch(&batch)?;
                        Some(run.map_packets(|packet| BenignObservation::of_packet(&packet)))
                    },
                    |runs| {
                        for (at, obs) in SessionMerge::new(runs) {
                            fold.learn_benign_observation(at, &obs);
                        }
                    },
                );
                let got = fold.finish_runner_training().trained;
                let at = format!("{id:?} at {workers} workers");
                match (&got.anomaly, &want.anomaly) {
                    (Some(got), Some(want)) => {
                        assert!(got.is_trained() && got.same_baselines(want), "{at}");
                    }
                    (got, want) => assert!(got.is_none() && want.is_none(), "{at}"),
                }
                match (&got.agents, &want.agents) {
                    (Some(got), Some(want)) => {
                        let origins = got.same_origins(want);
                        assert!(origins.is_some(), "{at}");
                        learned.extend(origins);
                    }
                    (got, want) => assert!(got.is_none() && want.is_none(), "{at}"),
                }
            }
        }
        assert!(learned.iter().all(|&n| n > 0), "host agents learned login origins: {learned:?}");
    }

    #[test]
    fn auto_response_blocks_attackers() {
        let product = IdsProduct::model(ProductId::GuardSecure); // has firewall
        let cfg = RunConfig {
            sensitivity: Sensitivity::new(0.6),
            monitored_hosts: servers(),
            auto_response: true,
            ..RunConfig::default()
        };
        let runner = PipelineRunner::new(product, cfg).with_training(benign(1, 10, 20.0));
        let out = runner.run(&mixed(6, 40));
        assert!(out.blocked.0 > 0, "sustained attacks should get their sources blocked");
    }
}
