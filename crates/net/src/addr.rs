//! Addressing: CIDR subnets.
//!
//! IPv4 addresses use [`std::net::Ipv4Addr`]. This module adds what the
//! testbed needs on top: CIDR blocks for topology construction and the
//! *Data Pool Selectability* metric (filtering the analyzed data pool "by
//! protocol, source and dest addresses, etc.").

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// A CIDR block, e.g. `10.1.0.0/16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cidr {
    network: Ipv4Addr,
    prefix: u8,
}

/// Errors from [`Cidr`] parsing/construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CidrError {
    /// Prefix length exceeded 32.
    PrefixTooLong(u8),
    /// The string was not `a.b.c.d/len`.
    Malformed(String),
}

impl fmt::Display for CidrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CidrError::PrefixTooLong(p) => write!(f, "prefix length {p} exceeds 32"),
            CidrError::Malformed(s) => write!(f, "malformed CIDR {s:?}"),
        }
    }
}

impl std::error::Error for CidrError {}

impl Cidr {
    /// Construct a block; host bits in `addr` are masked off.
    pub fn new(addr: Ipv4Addr, prefix: u8) -> Result<Self, CidrError> {
        if prefix > 32 {
            return Err(CidrError::PrefixTooLong(prefix));
        }
        let mask = Self::mask_bits(prefix);
        Ok(Self { network: Ipv4Addr::from(u32::from(addr) & mask), prefix })
    }

    fn mask_bits(prefix: u8) -> u32 {
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix as u32)
        }
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        self.network
    }

    /// The prefix length.
    pub fn prefix(&self) -> u8 {
        self.prefix
    }

    /// Whether `addr` falls inside this block.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & Self::mask_bits(self.prefix) == u32::from(self.network)
    }

    /// The `n`-th usable host address in the block (1-based; 0 returns the
    /// network address). Wraps within the block's host-bit space.
    pub fn host(&self, n: u32) -> Ipv4Addr {
        let host_bits = 32 - self.prefix as u32;
        let span = if host_bits >= 32 { u32::MAX } else { (1u32 << host_bits) - 1 };
        let offset = if span == 0 { 0 } else { n % span.max(1) };
        Ipv4Addr::from(u32::from(self.network) | offset)
    }

    /// Number of addresses in the block (including network/broadcast),
    /// saturating at `u32::MAX` for `/0`.
    pub fn size(&self) -> u32 {
        let host_bits = 32 - self.prefix as u32;
        if host_bits >= 32 {
            u32::MAX
        } else {
            1u32 << host_bits
        }
    }
}

impl FromStr for Cidr {
    type Err = CidrError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, prefix) = s.split_once('/').ok_or_else(|| CidrError::Malformed(s.to_owned()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| CidrError::Malformed(s.to_owned()))?;
        let prefix: u8 = prefix.parse().map_err(|_| CidrError::Malformed(s.to_owned()))?;
        Cidr::new(addr, prefix)
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cidr_parse_and_contains() {
        let c: Cidr = "10.1.0.0/16".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(10, 1, 200, 3)));
        assert!(!c.contains(Ipv4Addr::new(10, 2, 0, 1)));
        assert_eq!(c.to_string(), "10.1.0.0/16");
        assert_eq!(c.size(), 65536);
    }

    #[test]
    fn cidr_masks_host_bits() {
        let c = Cidr::new(Ipv4Addr::new(192, 168, 5, 77), 24).unwrap();
        assert_eq!(c.network(), Ipv4Addr::new(192, 168, 5, 0));
    }

    #[test]
    fn cidr_host_enumeration_wraps() {
        let c: Cidr = "192.168.1.0/30".parse().unwrap(); // 4 addrs, 3 host offsets
        assert_eq!(c.host(1), Ipv4Addr::new(192, 168, 1, 1));
        assert_eq!(c.host(2), Ipv4Addr::new(192, 168, 1, 2));
        assert_eq!(c.host(4), Ipv4Addr::new(192, 168, 1, 1)); // wrapped past span 3
    }

    #[test]
    fn cidr_errors() {
        assert_eq!(Cidr::new(Ipv4Addr::UNSPECIFIED, 33), Err(CidrError::PrefixTooLong(33)));
        assert!("10.0.0.0".parse::<Cidr>().is_err());
        assert!("banana/8".parse::<Cidr>().is_err());
    }

    #[test]
    fn cidr_extremes() {
        let all: Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains(Ipv4Addr::new(255, 255, 255, 255)));
        let single: Cidr = "10.0.0.7/32".parse().unwrap();
        assert!(single.contains(Ipv4Addr::new(10, 0, 0, 7)));
        assert!(!single.contains(Ipv4Addr::new(10, 0, 0, 8)));
        assert_eq!(single.size(), 1);
    }
}
