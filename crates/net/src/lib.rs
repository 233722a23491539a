//! # idse-net — packet, flow, and trace model
//!
//! The network substrate for the `idse` testbed. The paper's evaluation
//! methodology depends on replaying "canned data with known attack content on
//! the test network" (§4) and on generating background traffic whose *data
//! portion has realistic content* (lesson 1: random-payload flooding does not
//! exercise payload-inspecting IDSes). This crate provides:
//!
//! * a layered packet model — IPv4 plus TCP/UDP/ICMP ([`packet`]),
//! * five-tuple flows with canonical orientation ([`flow`]),
//! * a TCP session synthesizer and tracking state machine ([`tcp`]),
//! * IP fragmentation and policy-parameterized reassembly ([`frag`]),
//! * timestamped, ground-truth-labeled traces with record/replay
//!   ([`trace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert bit-exact determinism"))]

pub mod addr;
pub mod flow;
pub mod frag;
pub mod packet;
pub mod tcp;
pub mod trace;

pub use addr::Cidr;
pub use flow::FlowKey;
pub use packet::{IcmpHeader, Ipv4Header, Packet, TcpFlags, TcpHeader, Transport, UdpHeader};
pub use trace::{GroundTruth, Trace, TraceRecord};
