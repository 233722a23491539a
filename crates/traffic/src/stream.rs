//! The background-traffic generator: site profile → labeled-benign
//! records, pulled lazily in chunks.
//!
//! Sessions (not packets) are the unit of generation, because the paper's
//! methodology is explicit that IDS load tests need connection-oriented,
//! content-realistic traffic. Sessions arrive as a Poisson process at the
//! configured rate; each spawns one application session — a full TCP
//! handshake/data/teardown, a UDP query/response pair, a telemetry burst —
//! whose packets are spread over the following milliseconds.
//!
//! Generation has two halves:
//!
//! * [`SessionSynth`] is pure synthesis: slice `i`'s arrivals, and session
//!   `(i, j)` → packets, with the shard filter applied. It can run on any
//!   thread, in batches of consecutive sessions
//!   ([`SessionSynth::session_batches`]), each merged into one run.
//! * [`SessionMerge`] is the one heap merge that puts sessions' packets in
//!   stream order. It merges a stream's sessions, a batch's sessions into
//!   its run, and consecutive runs into the stream ([`SessionMerge`]),
//!   always to the same records.
//!
//! A [`RecordStream`] is the merge over the stream's sessions, each
//! synthesized when the merge reaches it, yielding the records as a lazy
//! iterator of chunks whose memory footprint is O(sessions in flight),
//! independent of the total run length, so the Figure-1 pipeline can
//! consume chunks as they are produced and never hold the full trace.
//! Consumers that want a whole trace call [`RecordStream::collect_trace`].
//!
//! # Determinism contract
//!
//! The record sequence is a pure function of `(profile, config, seed)`:
//!
//! * Generation is sliced into fixed 1-second windows of virtual time.
//!   Slice `i` re-derives its RNG as `derive_seed(seed, "chunk/{i}")`, so a
//!   slice's arrivals depend on nothing but the slice index — no generator
//!   state is carried between slices.
//! * Every session draws from its own child stream
//!   (`chunk/{i}/sess-{j}`), so skipping a session (flow-key sharding)
//!   never perturbs any other session's bytes.
//! * The consumer-facing chunk size ([`StreamConfig::chunk_records`]) is
//!   pure batching over that sequence: any chunk size yields the same
//!   records in the same order, byte for byte.
//!
//! # Flow-key sharding
//!
//! A stream can be restricted to one shard of the flow space
//! ([`StreamConfig::with_shard`]): sessions whose canonical (unordered)
//! host pair hashes to another shard are skipped — address draws only, no
//! payload synthesis — so `shards` workers can each generate exactly their
//! own slice of one giant run. The union of all shards is exactly the
//! unsharded stream, and both directions of a flow always land in the same
//! shard.

use crate::payload;
use crate::profiles::{AppProtocol, SiteProfile};
use idse_net::packet::{IcmpHeader, IcmpKind, Ipv4Header, Packet, UdpHeader};
use idse_net::tcp::{synthesize_session, Exchange, SessionSpec};
use idse_net::trace::{Trace, TraceRecord};
use idse_sim::{RngStream, SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Width of one generation slice of virtual time. Internal constant: it is
/// part of the stream's byte-level definition and never varies with the
/// consumer's chunk size.
const SLICE_NANOS: u64 = 1_000_000_000;

/// Default records per yielded chunk.
pub const DEFAULT_CHUNK_RECORDS: usize = 8192;

/// The largest session rate a stream accepts, in sessions per second.
///
/// Each 1-second slice draws all of its arrival instants up front, so the
/// rate bounds one slice's memory (8 bytes per arrival, 8 MB here) and the
/// Poisson sampler's work. Far beyond it the sampler's chunked
/// `remaining -= step` no longer changes `remaining` and never returns.
/// The bound is 40 times the `stream` CLI's default of 25,000 sessions/s.
pub const MAX_SESSION_RATE: f64 = 1_000_000.0;

/// Mean gap between a request packet and its response. Part of the
/// stream's byte-level definition, like [`SLICE_NANOS`].
const MEAN_TURNAROUND: SimDuration = SimDuration::from_millis(1);

/// How session payloads are filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadMode {
    /// Protocol-plausible content (the methodology's requirement).
    Realistic,
    /// Same sessions and sizes, but uniform random bytes — the paper's
    /// "meaningless data" flood, kept as an experimental control.
    RandomBytes,
}

/// What background traffic to generate.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// The site whose traffic is being modeled.
    pub profile: SiteProfile,
    /// Mean Poisson session arrivals per second, from 0 to [`MAX_SESSION_RATE`].
    pub session_rate: f64,
    /// Trace length.
    pub span: SimDuration,
    /// Master seed (all randomness derives from it).
    pub seed: u64,
    /// Payload realism mode.
    pub payload_mode: PayloadMode,
}

impl GeneratorConfig {
    /// A config with realistic payloads.
    pub fn new(profile: SiteProfile, session_rate: f64, span: SimDuration, seed: u64) -> Self {
        Self { profile, session_rate, span, seed, payload_mode: PayloadMode::Realistic }
    }
}

/// Streaming configuration: the generator parameters plus the stream knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// What traffic to generate (profile, session rate, span, seed,
    /// payload mode).
    pub generator: GeneratorConfig,
    /// Records per yielded chunk (consumer batching only — never affects
    /// the bytes produced).
    pub chunk_records: usize,
    /// Total flow-key shards the run is split into.
    pub shards: u32,
    /// Which shard this stream emits (`0..shards`).
    pub shard: u32,
}

impl StreamConfig {
    /// Stream `generator`'s traffic unsharded, with the default chunk size.
    pub fn new(generator: GeneratorConfig) -> Self {
        Self { generator, chunk_records: DEFAULT_CHUNK_RECORDS, shards: 1, shard: 0 }
    }

    /// Set the consumer-facing chunk size (clamped to at least 1 record).
    pub fn with_chunk_records(mut self, records: usize) -> Self {
        self.chunk_records = records.max(1);
        self
    }

    /// Restrict the stream to flow-key shard `shard` of `shards`.
    pub fn with_shard(mut self, shard: u32, shards: u32) -> Self {
        self.shards = shards.max(1);
        self.shard = shard.min(self.shards - 1);
        self
    }
}

/// Why a [`RecordStream`] could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The session rate is not finite, is below 0, or is above
    /// [`MAX_SESSION_RATE`].
    RateOutOfRange(f64),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::RateOutOfRange(rate) => write!(
                f,
                "session rate must be a finite number in 0..={MAX_SESSION_RATE} sessions/s, \
                 got {rate:?}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// The flow-key shard a packet between `a` and `b` belongs to: an FNV-1a
/// hash of the *unordered* host pair, so both directions of every flow —
/// and every session between the same two hosts — land in the same shard.
pub fn flow_shard(a: Ipv4Addr, b: Ipv4Addr, shards: u32) -> u32 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut h: u64 = 0xcbf29ce484222325;
    for byte in lo.octets().into_iter().chain(hi.octets()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % u64::from(shards.max(1))) as u32
}

/// One generated session: its arrival instant and its packets, in time
/// order from that instant. A consumer that needs less than the packets
/// can [`Session::map_packets`] them before the merge.
#[derive(Debug, Clone)]
pub struct Session<P = Packet> {
    /// The session's arrival instant; no packet of it is earlier.
    pub start: SimTime,
    /// The session's packets, times non-decreasing.
    pub packets: Vec<(SimTime, P)>,
}

impl<P> Session<P> {
    /// The session with each packet replaced by `f(packet)`, times kept.
    pub fn map_packets<Q>(self, mut f: impl FnMut(P) -> Q) -> Session<Q> {
        let packets = self.packets.into_iter().map(|(at, packet)| (at, f(packet))).collect();
        Session { start: self.start, packets }
    }
}

/// One 1-second generation slice: its index, the RNG its sessions derive
/// their child streams from, and its sorted arrival instants.
#[derive(Debug, Clone)]
struct Slice {
    index: u64,
    rng: RngStream,
    arrivals: Vec<SimTime>,
}

/// The pure half of a stream: which sessions arrive when, and what packets
/// each one carries. Session `j` of slice `i` is a function of `(config, i,
/// j)` alone, so sessions can be synthesized in any order, on any thread;
/// [`SessionMerge`] is the other half, which puts their packets in stream
/// order.
#[derive(Debug, Clone)]
pub struct SessionSynth {
    config: StreamConfig,
    protos: Vec<AppProtocol>,
    weights: Vec<f64>,
    n_slices: u64,
}

impl SessionSynth {
    /// The synthesizer for `config`. Fails for a session rate outside
    /// `0..=MAX_SESSION_RATE`.
    pub fn new(config: StreamConfig) -> Result<Self, StreamError> {
        let rate = config.generator.session_rate;
        if !(0.0..=MAX_SESSION_RATE).contains(&rate) {
            return Err(StreamError::RateOutOfRange(rate));
        }
        let n_slices = config.generator.span.as_nanos().div_ceil(SLICE_NANOS);
        let (protos, weights) = config.generator.profile.mix_weights();
        Ok(Self { config, protos, weights, n_slices })
    }

    /// Slice `i`: derive its RNG and draw its sorted arrival instants.
    fn slice(&self, i: u64) -> Slice {
        let mut rng = RngStream::derive(self.config.generator.seed, &format!("chunk/{i}"));
        let mut arrivals = Vec::new();
        let slice_start = i * SLICE_NANOS;
        let span = self.config.generator.span.as_nanos();
        let slice_end = ((i + 1) * SLICE_NANOS).min(span);
        let width_secs = slice_end.saturating_sub(slice_start) as f64 / 1e9;
        let rate = self.config.generator.session_rate;
        if rate > 0.0 && width_secs > 0.0 {
            let k = poisson(&mut rng, rate * width_secs);
            arrivals.reserve(k as usize);
            for _ in 0..k {
                let offset = (rng.unit() * width_secs * 1e9) as u64;
                arrivals.push(SimTime::from_nanos(slice_start + offset.min(SLICE_NANOS - 1)));
            }
            // Stable by draw order: equal instants keep their draw
            // sequence, which is what the session child labels key on.
            arrivals.sort();
        }
        Slice { index: i, rng, arrivals }
    }

    /// Session `j` of `slice`: derive its isolated stream, test shard
    /// membership on the address draws alone, and synthesize its packets
    /// only if it belongs to this stream. `None` for another shard's
    /// session (no payload draws burned) and for a session without packets.
    fn session_at(&self, slice: &Slice, j: usize) -> Option<Session> {
        let start = slice.arrivals[j];
        let mut srng = slice.rng.child(&format!("sess-{j}"));
        let profile = &self.config.generator.profile;
        let client = {
            let n = srng.uniform_u64(1, profile.client_hosts.max(2) as u64) as u32;
            profile.clients.host(n)
        };
        let mut server = {
            let n = srng.uniform_u64(1, profile.server_hosts.max(2) as u64) as u32;
            profile.servers.host(n)
        };
        // In the intra-cluster case client and server blocks coincide;
        // avoid degenerate self-talk.
        if server == client {
            server = profile.servers.host(u32::from(server).wrapping_add(1) & 0xff | 1);
        }
        if self.config.shards > 1
            && flow_shard(client, server, self.config.shards) != self.config.shard
        {
            return None;
        }
        let proto = self.protos[srng.pick_weighted(&self.weights)];
        let session_id = (slice.index as u32).wrapping_mul(65_537).wrapping_add(j as u32);
        let packets =
            synthesize(&self.config.generator, start, proto, client, server, session_id, &mut srng);
        (!packets.is_empty()).then_some(Session { start, packets })
    }

    /// The stream's sessions as consecutive batches of at most
    /// `batch_sessions` arrivals (at least 1), in stream order. A batch
    /// never spans two slices; slice `i`'s arrivals are drawn when the
    /// iterator reaches it.
    pub fn session_batches(&self, batch_sessions: usize) -> SessionBatches<'_> {
        SessionBatches {
            synth: self,
            size: batch_sessions.max(1),
            cursor: ArrivalCursor::default(),
        }
    }

    /// Synthesize `batch` as one run: its sessions of this stream merged
    /// into time order, starting at its first session's start. `None` if
    /// none of its sessions has packets in this stream. Runs of
    /// consecutive batches merge into the stream ([`SessionMerge`]) just
    /// as sessions do, so one thread can merge what many synthesized while
    /// holding only a few runs.
    pub fn synthesize_batch(&self, batch: &SessionBatch) -> Option<Session> {
        let sessions: Vec<Session> =
            batch.sessions.clone().filter_map(|j| self.session_at(&batch.slice, j)).collect();
        let start = sessions.first()?.start;
        let packets = SessionMerge::new(sessions.into_iter().map(Some)).collect();
        Some(Session { start, packets })
    }
}

/// A position among a stream's arrivals: the current slice, drawn when
/// reached, and the next arrival in it.
#[derive(Debug, Default)]
struct ArrivalCursor {
    slice: Option<Arc<Slice>>,
    next: usize,
    next_slice: u64,
}

impl ArrivalCursor {
    /// The next arrival's slice and index, drawing later slices as needed;
    /// `None` once every slice is spent. Does not advance.
    fn upcoming_arrival(&mut self, synth: &SessionSynth) -> Option<(&Arc<Slice>, usize)> {
        while self.slice.as_ref().is_none_or(|slice| self.next == slice.arrivals.len()) {
            if self.next_slice == synth.n_slices {
                return None;
            }
            self.slice = Some(Arc::new(synth.slice(self.next_slice)));
            self.next_slice += 1;
            self.next = 0;
        }
        Some((self.slice.as_ref()?, self.next))
    }
}

/// Consecutive arrivals `sessions` of one slice: the unit of parallel
/// synthesis ([`SessionSynth::synthesize_batch`]).
#[derive(Debug, Clone)]
pub struct SessionBatch {
    slice: Arc<Slice>,
    sessions: std::ops::Range<usize>,
}

/// The iterator of [`SessionSynth::session_batches`].
#[derive(Debug)]
pub struct SessionBatches<'a> {
    synth: &'a SessionSynth,
    size: usize,
    cursor: ArrivalCursor,
}

impl Iterator for SessionBatches<'_> {
    type Item = SessionBatch;

    fn next(&mut self) -> Option<SessionBatch> {
        let (slice, first) = self.cursor.upcoming_arrival(self.synth)?;
        let end = (first + self.size).min(slice.arrivals.len());
        let batch = SessionBatch { slice: Arc::clone(slice), sessions: first..end };
        self.cursor.next = end;
        Some(batch)
    }
}

/// Every session of a stream in order, each synthesized when taken.
#[derive(Debug)]
struct SliceSessions {
    synth: SessionSynth,
    cursor: ArrivalCursor,
}

impl Iterator for SliceSessions {
    type Item = Option<Session>;

    fn next(&mut self) -> Option<Option<Session>> {
        let (slice, j) = self.cursor.upcoming_arrival(&self.synth)?;
        let session = self.synth.session_at(slice, j);
        self.cursor.next += 1;
        Some(session)
    }
}

/// One admitted session's remaining packets, ordered by next-packet time
/// with the admission sequence breaking ties — exactly the order a stable
/// sort of the fully materialized trace would produce.
struct InFlight<P> {
    seq: u64,
    // An owning iterator rather than Vec + cursor: emission *moves* each
    // packet out (no per-record clone on the streaming hot path), and the
    // heap invariant only ever holds non-empty sessions.
    packets: std::vec::IntoIter<(SimTime, P)>,
}

impl<P> InFlight<P> {
    fn head_at(&self) -> SimTime {
        self.packets.as_slice()[0].0
    }
}

impl<P> PartialEq for InFlight<P> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<P> Eq for InFlight<P> {}
impl<P> PartialOrd for InFlight<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for InFlight<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.head_at().cmp(&self.head_at()).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<P> std::fmt::Debug for InFlight<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InFlight")
            .field("seq", &self.seq)
            .field("remaining", &self.packets.len())
            .finish()
    }
}

/// The one heap merge: sessions in, in stream order, and `(time, packet)`
/// records out in global time order (ties broken by admission order,
/// matching a stable sort). A `None` session stands for one without
/// packets. Over the runs of consecutive batches
/// ([`SessionSynth::synthesize_batch`], made on any threads) taken in
/// batch order, it yields the records [`RecordStream`] yields, with each
/// packet as the runs carry it.
///
/// Before it admits a session starting at `s`, the merge emits every
/// in-flight packet at or before `s`: every later session starts at `s` or
/// after, and at equal instants the earlier-admitted session sorts first.
/// So it holds only the sessions in flight and the next one, and the
/// records are the same whichever thread made the sessions.
pub struct SessionMerge<I, P> {
    sessions: I,
    upcoming: Option<Session<P>>,
    in_flight: BinaryHeap<InFlight<P>>,
    admitted: u64,
}

impl<P, I: Iterator<Item = Option<Session<P>>>> SessionMerge<I, P> {
    /// The merge over `sessions`, which must come in stream order.
    pub fn new(sessions: I) -> Self {
        Self { sessions, upcoming: None, in_flight: BinaryHeap::new(), admitted: 0 }
    }

    /// The start of the next session to admit, taking it from the input.
    fn upcoming_start(&mut self) -> Option<SimTime> {
        loop {
            if let Some(session) = &self.upcoming {
                return Some(session.start);
            }
            self.upcoming = self.sessions.next()?;
        }
    }
}

impl<I: std::fmt::Debug, P> std::fmt::Debug for SessionMerge<I, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionMerge")
            .field("sessions", &self.sessions)
            .field("in_flight", &self.in_flight.len())
            .field("admitted", &self.admitted)
            .finish()
    }
}

impl<P, I: Iterator<Item = Option<Session<P>>>> Iterator for SessionMerge<I, P> {
    type Item = (SimTime, P);

    /// The next record in global time order, if any.
    fn next(&mut self) -> Option<(SimTime, P)> {
        loop {
            let frontier = self.upcoming_start();
            if let Some(top) = self.in_flight.peek() {
                if frontier.is_none_or(|s| top.head_at() <= s) {
                    let mut top = self.in_flight.pop()?;
                    let record = top.packets.next().expect("in-flight sessions are non-empty");
                    if !top.packets.as_slice().is_empty() {
                        self.in_flight.push(top);
                    }
                    return Some(record);
                }
            }
            let session = self.upcoming.take()?;
            let packets = session.packets.into_iter();
            self.in_flight.push(InFlight { seq: self.admitted, packets });
            self.admitted += 1;
        }
    }
}

/// A lazy, chunked, deterministic benign-traffic stream: the one merge
/// over the stream's sessions, each synthesized when the merge reaches it.
///
/// Iterating yields `Vec<TraceRecord>` chunks in global time order (ties
/// broken by generation sequence, matching a stable sort). See the module
/// docs for the determinism contract.
#[derive(Debug)]
pub struct RecordStream {
    records: SessionMerge<SliceSessions, Packet>,
    chunk_records: usize,
    emitted: u64,
}

impl RecordStream {
    /// Build the stream for `config`. Fails for a session rate outside
    /// `0..=MAX_SESSION_RATE`.
    pub fn new(config: StreamConfig) -> Result<Self, StreamError> {
        let chunk_records = config.chunk_records;
        let synth = SessionSynth::new(config)?;
        let sessions = SliceSessions { synth, cursor: ArrivalCursor::default() };
        Ok(Self { records: SessionMerge::new(sessions), chunk_records, emitted: 0 })
    }

    /// Records emitted so far (across all chunks).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The stream's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.records.sessions.synth.config
    }

    /// Drain the stream into a fully materialized trace. This is the only
    /// sanctioned materialized path: it is by construction a `collect()` of
    /// the stream, so it costs O(total records) memory.
    pub fn collect_trace(self) -> Trace {
        let mut trace = Trace::new();
        for (at, packet) in self.records {
            trace.push(TraceRecord { at, packet, truth: None });
        }
        trace.finish();
        trace
    }

    /// The straightforward O(total-records) implementation of the same byte
    /// sequence: synthesize every session in generation order, then
    /// stable-sort all packets by time. This is the oracle the streaming
    /// merge is proven against (see the crate's property tests);
    /// experiments should iterate or [`Self::collect_trace`] instead.
    pub fn materialize(config: &StreamConfig) -> Result<Trace, StreamError> {
        let synth = SessionSynth::new(config.clone())?;
        let mut trace = Trace::new();
        for i in 0..synth.n_slices {
            let slice = synth.slice(i);
            for j in 0..slice.arrivals.len() {
                for (at, packet) in synth.session_at(&slice, j).into_iter().flat_map(|s| s.packets)
                {
                    trace.push(TraceRecord { at, packet, truth: None });
                }
            }
        }
        trace.finish();
        Ok(trace)
    }
}

impl Iterator for RecordStream {
    type Item = Vec<TraceRecord>;

    fn next(&mut self) -> Option<Vec<TraceRecord>> {
        let mut chunk = Vec::with_capacity(self.chunk_records);
        chunk.extend(
            self.records.by_ref().take(self.chunk_records).map(|(at, packet)| TraceRecord {
                at,
                packet,
                truth: None,
            }),
        );
        self.emitted += chunk.len() as u64;
        if chunk.is_empty() {
            None
        } else {
            Some(chunk)
        }
    }
}

/// Poisson draw via Knuth's product method, chunked so `exp(-λ)` never
/// underflows for large rates (a Poisson(λ₁+λ₂) is the sum of independent
/// Poisson(λ₁) and Poisson(λ₂) draws).
fn poisson(rng: &mut RngStream, lambda: f64) -> u64 {
    let mut remaining = lambda.max(0.0);
    let mut total = 0u64;
    while remaining > 0.0 {
        let step = remaining.min(500.0);
        remaining -= step;
        let limit = (-step).exp();
        let mut p = 1.0;
        let mut k = 0u64;
        loop {
            p *= rng.unit();
            if p <= limit {
                break;
            }
            k += 1;
        }
        total += k;
    }
    total
}

/// Synthesize one session's packets, all times non-decreasing from `start`.
/// Every draw comes from `srng` (or a named child of it), so the session is
/// a pure function of its `chunk/{i}/sess-{j}` lineage.
fn synthesize(
    cfg: &GeneratorConfig,
    start: SimTime,
    proto: AppProtocol,
    client: Ipv4Addr,
    server: Ipv4Addr,
    session_id: u32,
    srng: &mut RngStream,
) -> Vec<(SimTime, Packet)> {
    let mut gap_rng = srng.child("gaps");
    let mut noise_rng = srng.child("noise");
    let base = MEAN_TURNAROUND.as_secs_f64() * 0.5; // fixed half-mean floor
    let mut next_gap = move || SimDuration::from_secs_f64(base + gap_rng.exponential(1.0 / base));
    let randomize = |bytes: Vec<u8>, noise: &mut RngStream| match cfg.payload_mode {
        PayloadMode::Realistic => bytes,
        PayloadMode::RandomBytes => payload::random_bytes(noise, bytes.len()),
    };

    let mut out = Vec::new();
    match proto {
        AppProtocol::Dns => {
            let q = randomize(payload::dns_query(srng), &mut noise_rng);
            let resp_len = q.len() + 16;
            let resp = randomize(payload::random_bytes(srng, resp_len), &mut noise_rng);
            let sport = 1024 + (srng.uniform_u64(0, 60000) as u16).min(60000);
            out.push((
                start,
                Packet::udp(
                    Ipv4Header::simple(client, server),
                    UdpHeader { src_port: sport, dst_port: 53 },
                    q,
                ),
            ));
            out.push((
                start + next_gap(),
                Packet::udp(
                    Ipv4Header::simple(server, client),
                    UdpHeader { src_port: 53, dst_port: sport },
                    resp,
                ),
            ));
        }
        AppProtocol::ClusterTelemetry => {
            // A burst of 4–12 telemetry datagrams, one direction.
            let n = 4 + srng.index(9);
            let source_id = srng.uniform_u64(0, 64) as u16;
            let mut t = start;
            for k in 0..n {
                let body = randomize(
                    payload::cluster_telemetry(
                        srng,
                        session_id.wrapping_mul(100) + k as u32,
                        source_id,
                    ),
                    &mut noise_rng,
                );
                out.push((
                    t,
                    Packet::udp(
                        Ipv4Header::simple(client, server),
                        UdpHeader { src_port: 7100, dst_port: 7100 },
                        body,
                    ),
                ));
                t += SimDuration::from_micros(200 + srng.uniform_u64(0, 400));
            }
        }
        AppProtocol::IcmpEcho => {
            let body = randomize(vec![0x20; 32], &mut noise_rng);
            let ident = srng.uniform_u64(0, 0x10000) as u16;
            out.push((
                start,
                Packet::icmp(
                    Ipv4Header::simple(client, server),
                    IcmpHeader { kind: IcmpKind::EchoRequest, ident, seq: 1 },
                    body.clone(),
                ),
            ));
            out.push((
                start + next_gap(),
                Packet::icmp(
                    Ipv4Header::simple(server, client),
                    IcmpHeader { kind: IcmpKind::EchoReply, ident, seq: 1 },
                    body,
                ),
            ));
        }
        tcp_proto => {
            let exchanges = tcp_exchanges(cfg, tcp_proto, srng, &mut noise_rng);
            let spec = SessionSpec {
                client,
                client_port: 1024 + (srng.uniform_u64(0, 60000) as u16),
                server,
                server_port: tcp_proto.server_port(),
                client_isn: srng.uniform_u64(0, u32::MAX as u64) as u32,
                server_isn: srng.uniform_u64(0, u32::MAX as u64) as u32,
                mss: 1460,
            };
            let segs = synthesize_session(&spec, &exchanges);
            let mut t = start;
            for (_, p) in segs {
                out.push((t, p));
                t += next_gap();
            }
        }
    }
    out
}

/// TCP application exchanges for `proto`, drawn from the session's
/// isolated stream.
fn tcp_exchanges(
    cfg: &GeneratorConfig,
    proto: AppProtocol,
    rng: &mut RngStream,
    noise: &mut RngStream,
) -> Vec<Exchange> {
    let mut ex: Vec<Exchange> = match proto {
        AppProtocol::Http => {
            let req = payload::http_request(rng);
            let size =
                rng.pareto(cfg.profile.mean_response_bytes as f64 * 0.5, 1.5).min(65536.0) as usize;
            let resp = payload::http_response(rng, size);
            vec![Exchange::to_server(req), Exchange::to_client(resp)]
        }
        AppProtocol::Smtp => {
            let mut ex = Vec::new();
            for _ in 0..3 + rng.index(3) {
                ex.push(Exchange::to_server(payload::smtp_command(rng)));
                ex.push(Exchange::to_client(b"250 OK\r\n".to_vec()));
            }
            ex
        }
        AppProtocol::Ftp => {
            let mut ex = Vec::new();
            for _ in 0..2 + rng.index(4) {
                ex.push(Exchange::to_server(payload::ftp_command(rng)));
                ex.push(Exchange::to_client(b"200 Command okay.\r\n".to_vec()));
            }
            ex
        }
        AppProtocol::Auth => {
            let user = payload::background_user(rng);
            let failed = rng.chance(cfg.profile.benign_login_failure_rate);
            let mut ex = Vec::new();
            if failed {
                ex.push(Exchange::to_server(payload::login_attempt(user, false)));
            }
            ex.push(Exchange::to_server(payload::login_attempt(user, true)));
            ex.push(Exchange::to_client(b"$ ".to_vec()));
            ex
        }
        AppProtocol::NfsRpc => {
            let mut ex = Vec::new();
            for _ in 0..1 + rng.index(4) {
                ex.push(Exchange::to_server(payload::nfs_rpc(rng)));
                ex.push(Exchange::to_client(payload::random_bytes(rng, 128)));
            }
            ex
        }
        // Non-TCP protocols are handled in `synthesize`; emitting nothing
        // keeps this total without a panic path in library code.
        _ => Vec::new(),
    };
    if cfg.payload_mode == PayloadMode::RandomBytes {
        for e in &mut ex {
            e.data = payload::random_bytes(noise, e.data.len());
        }
    }
    ex
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64, secs: u64, rate: f64) -> StreamConfig {
        StreamConfig::new(GeneratorConfig::new(
            SiteProfile::realtime_cluster(),
            rate,
            SimDuration::from_secs(secs),
            seed,
        ))
    }

    fn small_config(profile: SiteProfile, seed: u64) -> GeneratorConfig {
        GeneratorConfig::new(profile, 20.0, SimDuration::from_secs(5), seed)
    }

    fn trace_of(generator: GeneratorConfig) -> Trace {
        RecordStream::new(StreamConfig::new(generator)).unwrap().collect_trace()
    }

    fn assert_traces_equal(a: &Trace, b: &Trace) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.records().iter().zip(b.records().iter()) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.packet, y.packet);
            assert_eq!(x.truth, y.truth);
        }
    }

    #[test]
    fn stream_is_sorted_and_deterministic() {
        let a = RecordStream::new(config(11, 8, 30.0)).unwrap().collect_trace();
        let b = RecordStream::new(config(11, 8, 30.0)).unwrap().collect_trace();
        assert!(a.len() > 100, "got {}", a.len());
        let times: Vec<_> = a.records().iter().map(|r| r.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "stream must be time-sorted");
        assert_traces_equal(&a, &b);
    }

    #[test]
    fn chunk_size_never_changes_the_bytes() {
        let base = RecordStream::new(config(7, 6, 25.0)).unwrap().collect_trace();
        for chunk in [1usize, 64, 4096] {
            let t = RecordStream::new(config(7, 6, 25.0).with_chunk_records(chunk))
                .unwrap()
                .collect_trace();
            assert_traces_equal(&base, &t);
        }
    }

    #[test]
    fn incremental_merge_matches_stable_sort_reference() {
        for seed in [1u64, 9, 1234] {
            let cfg = config(seed, 5, 40.0);
            let streamed = RecordStream::new(cfg.clone()).unwrap().collect_trace();
            let reference = RecordStream::materialize(&cfg).unwrap();
            assert_traces_equal(&streamed, &reference);
        }
    }

    #[test]
    fn shards_partition_the_stream_exactly() {
        let cfg = config(3, 6, 30.0);
        let full = RecordStream::new(cfg.clone()).unwrap().collect_trace();
        let shards = 4u32;
        let mut merged = Trace::new();
        for s in 0..shards {
            let part =
                RecordStream::new(cfg.clone().with_shard(s, shards)).unwrap().collect_trace();
            for r in part.records() {
                assert_eq!(
                    flow_shard(r.packet.ip.src, r.packet.ip.dst, shards),
                    s,
                    "record leaked into the wrong shard"
                );
                merged.push(r.clone());
            }
        }
        merged.finish();
        assert_traces_equal(&full, &merged);
    }

    #[test]
    fn rates_outside_the_supported_range_are_rejected() {
        for rate in [-1.0, f64::NAN, f64::INFINITY, MAX_SESSION_RATE * 2.0, 1e308] {
            let err = RecordStream::new(config(5, 4, rate)).err();
            assert!(matches!(err, Some(StreamError::RateOutOfRange(_))), "{rate}: {err:?}");
        }
        let idle = RecordStream::new(config(5, 4, 0.0)).unwrap().collect_trace();
        assert!(idle.is_empty());
        assert!(RecordStream::new(config(5, 0, MAX_SESSION_RATE)).is_ok());
    }

    #[test]
    fn poisson_rate_is_honoured() {
        let synth = SessionSynth::new(config(11, 50, 100.0)).unwrap();
        let sessions: usize = (0..synth.n_slices).map(|i| synth.slice(i).arrivals.len()).sum();
        let rate = sessions as f64 / 50.0;
        assert!((rate - 100.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn arrivals_sorted_and_within_window() {
        // A span that ends mid-slice: the last slice must stop at the span.
        let mut cfg = config(8, 0, 50.0);
        cfg.generator.span = SimDuration::from_millis(5_500);
        let synth = SessionSynth::new(cfg).unwrap();
        assert_eq!(synth.n_slices, 6);
        for i in 0..synth.n_slices {
            let slice = synth.slice(i);
            let start = SimTime::from_nanos(i * SLICE_NANOS);
            let end = SimTime::from_nanos(((i + 1) * SLICE_NANOS).min(5_500_000_000));
            let arr = &slice.arrivals;
            assert!(!arr.is_empty());
            assert!(arr.windows(2).all(|w| w[0] <= w[1]));
            assert!(arr.iter().all(|&t| t >= start && t < end), "slice {i}");
        }
    }

    #[test]
    fn batches_cover_every_arrival_once_in_order() {
        let synth = SessionSynth::new(config(4, 5, 40.0)).unwrap();
        let mut seen = Vec::new();
        for batch in synth.session_batches(7) {
            assert!(batch.sessions.len() <= 7 && !batch.sessions.is_empty());
            seen.extend(batch.sessions.clone().map(|j| batch.slice.arrivals[j]));
        }
        let want: Vec<SimTime> =
            (0..synth.n_slices).flat_map(|i| synth.slice(i).arrivals).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn poisson_sampler_tracks_the_mean() {
        let mut rng = RngStream::derive(1, "poisson");
        for lambda in [0.5, 20.0, 2000.0] {
            let n = 400;
            let mean = (0..n).map(|_| poisson(&mut rng, lambda)).sum::<u64>() as f64 / n as f64;
            assert!((mean - lambda).abs() < lambda.max(1.0) * 0.2, "poisson({lambda}) mean {mean}");
        }
    }

    #[test]
    fn flow_shard_is_direction_independent() {
        let a = Ipv4Addr::new(10, 10, 0, 3);
        let b = Ipv4Addr::new(10, 10, 0, 9);
        for shards in [1u32, 2, 7, 16] {
            assert_eq!(flow_shard(a, b, shards), flow_shard(b, a, shards));
            assert!(flow_shard(a, b, shards) < shards);
        }
    }

    #[test]
    fn memory_stays_bounded_by_sessions_in_flight() {
        // 30 s at 50 sessions/s: the in-flight heap must stay tiny compared
        // to the total session count.
        let mut stream = RecordStream::new(config(21, 30, 50.0)).unwrap();
        let mut max_in_flight = 0usize;
        let mut total = 0usize;
        while let Some(chunk) = stream.next() {
            total += chunk.len();
            max_in_flight = max_in_flight.max(stream.records.in_flight.len());
        }
        assert!(total > 5_000, "got {total}");
        assert!(
            max_in_flight < 200,
            "in-flight sessions {max_in_flight} should be far below total {total}"
        );
    }

    #[test]
    fn generates_nonempty_sorted_benign_trace() {
        let t = trace_of(small_config(SiteProfile::ecommerce_web(), 1));
        assert!(t.len() > 100, "got {} packets", t.len());
        assert_eq!(t.attack_packets(), 0);
        let times: Vec<_> = t.records().iter().map(|r| r.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn different_seeds_differ() {
        let a = trace_of(small_config(SiteProfile::office_lan(), 7));
        let b = trace_of(small_config(SiteProfile::office_lan(), 8));
        assert_ne!(a.len(), b.len());
    }

    #[test]
    fn cluster_profile_is_udp_heavy() {
        let t = trace_of(small_config(SiteProfile::realtime_cluster(), 3));
        let udp = t
            .records()
            .iter()
            .filter(|r| matches!(r.packet.transport, idse_net::Transport::Udp(_)))
            .count();
        assert!(
            udp as f64 / t.len() as f64 > 0.4,
            "cluster traffic should be UDP-heavy: {udp}/{}",
            t.len()
        );
    }

    #[test]
    fn web_profile_is_tcp_heavy() {
        let t = trace_of(small_config(SiteProfile::ecommerce_web(), 3));
        let tcp = t
            .records()
            .iter()
            .filter(|r| matches!(r.packet.transport, idse_net::Transport::Tcp(_)))
            .count();
        assert!(tcp as f64 / t.len() as f64 > 0.8);
    }

    #[test]
    fn random_mode_changes_content_not_timing() {
        let mut cfg = small_config(SiteProfile::ecommerce_web(), 5);
        let real = trace_of(cfg.clone());
        cfg.payload_mode = PayloadMode::RandomBytes;
        let rand = trace_of(cfg);
        assert_eq!(real.len(), rand.len());
        // Timing identical; content differs on payload-bearing packets.
        let mut differing = 0;
        for (a, b) in real.records().iter().zip(rand.records().iter()) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.packet.payload.len(), b.packet.payload.len());
            if !a.packet.payload.is_empty() && a.packet.payload != b.packet.payload {
                differing += 1;
            }
        }
        assert!(differing > 0);
    }

    #[test]
    fn no_self_talk_sessions() {
        let t = trace_of(small_config(SiteProfile::realtime_cluster(), 11));
        for r in t.records() {
            assert_ne!(r.packet.ip.src, r.packet.ip.dst, "self-addressed packet generated");
        }
    }
}
