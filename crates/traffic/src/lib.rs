//! # idse-traffic — background workload and payload-content generators
//!
//! The paper's first lesson learned (§4): "to collect performance related
//! metrics of an IDS, a simple flooding of the network being monitored with
//! meaningless data is not sufficient … the data portion of an IP packet
//! should have realistic content", because payload-inspecting IDSes behave
//! differently under realistic content than under random bytes. And: "IDSs
//! perform differently in the presence of different kinds of network
//! traffic. Distributed systems with high levels of inter-host trust on a
//! high-speed LAN will have distinctive traffic compared to that of a web
//! server in an e-commerce shop."
//!
//! This crate therefore provides:
//!
//! * application-layer payload synthesis with protocol-plausible content
//!   ([`payload`]) plus a deliberately unrealistic random-bytes mode for the
//!   flooding-vs-realism experiment,
//! * site profiles capturing the e-commerce vs. real-time-cluster contrast
//!   ([`profiles`]),
//! * the one background generator: Poisson session arrivals streamed as
//!   labeled-benign record chunks in constant memory, with flow-key
//!   sharding for multi-worker runs ([`stream`]),
//! * content-realism measures used to verify the generators do what the
//!   methodology demands ([`realism`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert bit-exact determinism"))]

pub mod payload;
pub mod profiles;
pub mod realism;
pub mod stream;

pub use profiles::{AppProtocol, SiteProfile};
pub use stream::{
    flow_shard, GeneratorConfig, PayloadMode, RecordStream, Session, SessionBatch, SessionMerge,
    SessionSynth, StreamConfig, StreamError, DEFAULT_CHUNK_RECORDS, MAX_SESSION_RATE,
};
