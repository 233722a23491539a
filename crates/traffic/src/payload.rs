//! Protocol-plausible payload synthesis.
//!
//! "If packets with random data are used to generate background traffic,
//! then the IDS that analyzes both the header information and message data
//! will not be realistically tested" (paper §4). These generators produce
//! application content with the surface statistics a payload-inspecting
//! engine keys on: protocol keywords, printable text, plausible structure.
//! [`random_bytes`] is the deliberately *unrealistic* control used by the
//! flooding experiment.

use idse_sim::RngStream;

/// Words used to build plausible paths, hostnames and messages. A small,
/// era-appropriate vocabulary is enough: what matters is printable,
/// keyword-bearing structure, not linguistic richness.
const WORDS: &[&str] = &[
    "index", "catalog", "order", "status", "report", "engine", "track", "sensor", "radar", "nav",
    "update", "batch", "query", "results", "images", "store", "cart", "checkout", "account",
    "profile", "search", "news", "main", "data", "archive", "log", "summary",
];

const HOSTS: &[&str] = &[
    "www.example.com",
    "shop.example.com",
    "mail.example.org",
    "ns1.example.net",
    "cluster-fs.local",
    "telemetry.local",
    "ops.example.mil",
];

const USERS: &[&str] =
    &["jsmith", "mbrown", "ops", "admin", "backup", "clee", "rjones", "operator", "watch1"];

fn word(rng: &mut RngStream) -> &'static str {
    WORDS[rng.index(WORDS.len())]
}

/// An HTTP/1.0 GET request for a plausible path.
pub fn http_request(rng: &mut RngStream) -> Vec<u8> {
    let depth = 1 + rng.index(3);
    let mut path = String::new();
    for _ in 0..depth {
        path.push('/');
        path.push_str(word(rng));
    }
    if rng.chance(0.4) {
        path.push_str(".html");
    }
    let host = HOSTS[rng.index(HOSTS.len())];
    format!(
        "GET {path} HTTP/1.0\r\nHost: {host}\r\nUser-Agent: Mozilla/4.7 [en]\r\nAccept: */*\r\n\r\n"
    )
    .into_bytes()
}

/// An HTTP/1.0 response with a text/html body of roughly `body_len` bytes.
pub fn http_response(rng: &mut RngStream, body_len: usize) -> Vec<u8> {
    let mut body = String::with_capacity(body_len + 64);
    body.push_str("<html><head><title>");
    body.push_str(word(rng));
    body.push_str("</title></head><body>");
    while body.len() < body_len {
        body.push_str("<p>");
        for _ in 0..8 {
            body.push_str(word(rng));
            body.push(' ');
        }
        body.push_str("</p>");
    }
    body.push_str("</body></html>");
    let mut out = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// An SMTP exchange fragment (one command line).
pub fn smtp_command(rng: &mut RngStream) -> Vec<u8> {
    let user = USERS[rng.index(USERS.len())];
    let host = HOSTS[rng.index(HOSTS.len())];
    let cmds = [
        format!("HELO {host}\r\n"),
        format!("MAIL FROM:<{user}@{host}>\r\n"),
        format!("RCPT TO:<{user}@{host}>\r\n"),
        "DATA\r\n".to_owned(),
        format!(
            "Subject: {} {}\r\n\r\nSee attached {} {}.\r\n.\r\n",
            word(rng),
            word(rng),
            word(rng),
            word(rng)
        ),
    ];
    cmds[rng.index(cmds.len())].clone().into_bytes()
}

/// A DNS query datagram body (simplified wire format: 12-byte header plus
/// QNAME labels — enough structure for entropy and keyword analysis).
pub fn dns_query(rng: &mut RngStream) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    let id = rng.uniform_u64(0, 0x10000) as u16;
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&[0x01, 0x00]); // standard query, RD
    out.extend_from_slice(&[0, 1, 0, 0, 0, 0, 0, 0]); // QDCOUNT=1
    let host = HOSTS[rng.index(HOSTS.len())];
    for label in host.split('.') {
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
    out.extend_from_slice(&[0, 1, 0, 1]); // QTYPE=A, QCLASS=IN
    out
}

/// An FTP control-channel command.
pub fn ftp_command(rng: &mut RngStream) -> Vec<u8> {
    let cmds = [
        format!("USER {}\r\n", USERS[rng.index(USERS.len())]),
        "PASS hunter2\r\n".to_owned(),
        format!("RETR {}.dat\r\n", word(rng)),
        format!("STOR {}.log\r\n", word(rng)),
        "LIST\r\n".to_owned(),
        "QUIT\r\n".to_owned(),
    ];
    cmds[rng.index(cmds.len())].clone().into_bytes()
}

/// A telnet-style login attempt. `success` controls the server's verdict
/// line; failed logins are the raw signal the anomaly engine's
/// brute-force detector consumes.
pub fn login_attempt(user: &str, success: bool) -> Vec<u8> {
    let verdict = if success { "Last login: Tue Apr 16 09:12:44" } else { "Login incorrect" };
    format!("login: {user}\r\npassword: ********\r\n{verdict}\r\n").into_bytes()
}

/// Pick a plausible background username.
pub fn background_user(rng: &mut RngStream) -> &'static str {
    USERS[rng.index(USERS.len())]
}

/// A binary cluster-telemetry record: magic, sequence, source id, and a
/// vector of f32 readings. This is the "tuned for highest performance"
/// intra-cluster protocol of the paper's real-time profile — compact,
/// binary, high-rate.
pub fn cluster_telemetry(rng: &mut RngStream, seq: u32, source_id: u16) -> Vec<u8> {
    let n = 8 + rng.index(8);
    let mut out = Vec::with_capacity(12 + n * 4);
    out.extend_from_slice(b"CTLM");
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&source_id.to_be_bytes());
    out.extend_from_slice(&(n as u16).to_be_bytes());
    for _ in 0..n {
        let reading = rng.normal(100.0, 15.0) as f32;
        out.extend_from_slice(&reading.to_be_bytes());
    }
    out
}

/// An NFS-flavoured RPC call body (XDR-ish framing with a path argument).
pub fn nfs_rpc(rng: &mut RngStream) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    let xid = rng.uniform_u64(0, u32::MAX as u64) as u32;
    out.extend_from_slice(&xid.to_be_bytes());
    out.extend_from_slice(&0u32.to_be_bytes()); // CALL
    out.extend_from_slice(&2u32.to_be_bytes()); // RPC version
    out.extend_from_slice(&100003u32.to_be_bytes()); // NFS program
    out.extend_from_slice(&3u32.to_be_bytes()); // version
    let proc_num = [0u32, 1, 3, 4, 6][rng.index(5)];
    out.extend_from_slice(&proc_num.to_be_bytes());
    let path = format!("/export/{}/{}", word(rng), word(rng));
    out.extend_from_slice(&(path.len() as u32).to_be_bytes());
    out.extend_from_slice(path.as_bytes());
    while out.len() % 4 != 0 {
        out.push(0);
    }
    out
}

/// Uniform random bytes: the "meaningless data" flood payload the paper
/// warns about. Kept as the control arm of the realism experiment.
pub fn random_bytes(rng: &mut RngStream, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::derive(99, "payload-tests")
    }

    #[test]
    fn http_request_is_wellformed() {
        let mut r = rng();
        for _ in 0..50 {
            let req = String::from_utf8(http_request(&mut r)).unwrap();
            assert!(req.starts_with("GET /"));
            assert!(req.contains("HTTP/1.0\r\n"));
            assert!(req.contains("Host: "));
            assert!(req.ends_with("\r\n\r\n"));
        }
    }

    #[test]
    fn http_response_length_header_is_consistent() {
        let mut r = rng();
        let resp = http_response(&mut r, 500);
        let text = String::from_utf8(resp).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        let declared: usize =
            head.lines().find_map(|l| l.strip_prefix("Content-Length: ")).unwrap().parse().unwrap();
        assert_eq!(declared, body.len());
        assert!(body.len() >= 500);
    }

    #[test]
    fn dns_query_parses_back() {
        let mut r = rng();
        let q = dns_query(&mut r);
        assert!(q.len() > 16);
        assert_eq!(q[4..6], [0, 1]); // one question
                                     // Trailing QTYPE/QCLASS.
        assert_eq!(&q[q.len() - 4..], &[0, 1, 0, 1]);
    }

    #[test]
    fn login_attempt_verdicts() {
        let ok = String::from_utf8(login_attempt("jsmith", true)).unwrap();
        let bad = String::from_utf8(login_attempt("jsmith", false)).unwrap();
        assert!(ok.contains("Last login"));
        assert!(bad.contains("Login incorrect"));
    }

    #[test]
    fn telemetry_framing() {
        let mut r = rng();
        let t = cluster_telemetry(&mut r, 42, 7);
        assert_eq!(&t[..4], b"CTLM");
        assert_eq!(u32::from_be_bytes([t[4], t[5], t[6], t[7]]), 42);
        let n = u16::from_be_bytes([t[10], t[11]]) as usize;
        assert_eq!(t.len(), 12 + n * 4);
    }

    #[test]
    fn nfs_rpc_is_word_aligned() {
        let mut r = rng();
        for _ in 0..20 {
            let b = nfs_rpc(&mut r);
            assert_eq!(b.len() % 4, 0);
            assert_eq!(&b[12..16], &100003u32.to_be_bytes());
        }
    }

    #[test]
    fn random_bytes_has_high_byte_diversity() {
        let mut r = rng();
        let b = random_bytes(&mut r, 4096);
        let distinct = b.iter().collect::<std::collections::BTreeSet<_>>().len();
        assert!(distinct > 200, "random payload should use most byte values");
    }

    #[test]
    fn realistic_payloads_are_mostly_printable() {
        let mut r = rng();
        let samples: Vec<Vec<u8>> = vec![
            http_request(&mut r),
            http_response(&mut r, 200),
            smtp_command(&mut r),
            ftp_command(&mut r),
        ];
        for s in samples {
            let printable = s
                .iter()
                .filter(|&&b| (0x20..0x7f).contains(&b) || b == b'\r' || b == b'\n')
                .count();
            assert!(printable as f64 / s.len() as f64 > 0.95);
        }
    }
}
