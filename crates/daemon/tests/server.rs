//! The live socket server: under hostile input, an over-long request line
//! is refused with a reason and its connection dropped, and a line nested
//! too deep to parse is refused with a reason, without touching the
//! daemon's ability to serve the next client; and a socket `watch` answers
//! the same bytes as the socketless replay driver.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;

use idse_daemon::server::{serve, MAX_REQUEST_LINE};
use idse_daemon::{replay, DaemonConfig, DaemonCore};
use idse_exec::{breathe, with_worker};

fn connect(socket: &Path) -> UnixStream {
    for _ in 0..2000 {
        if let Ok(stream) = UnixStream::connect(socket) {
            return stream;
        }
        breathe();
    }
    UnixStream::connect(socket).expect("daemon socket accepts connections")
}

/// Send `request` on a fresh connection, close the write half, and return
/// every line the daemon writes before it closes the connection.
fn exchange(socket: &Path, request: &[u8]) -> Vec<String> {
    let mut stream = connect(socket);
    // The daemon may close before reading all of an over-long line; what
    // it wrote before closing is still readable.
    let _ = stream.write_all(request);
    let _ = stream.shutdown(Shutdown::Write);
    BufReader::new(stream).lines().map_while(Result::ok).collect()
}

/// Serve one daemon, send it `hostile` on one connection and a `list` on
/// the next, then shut it down. Returns both connections' response lines.
fn hostile_then_list(tag: &str, hostile: &[u8]) -> (Vec<String>, Vec<String>) {
    let socket =
        std::env::temp_dir().join(format!("idse-daemon-{tag}-{}.sock", std::process::id()));
    let core = DaemonCore::new(DaemonConfig::default()).expect("core");
    let (served, responses) = with_worker(
        || serve(core, &socket),
        || {
            let refused = exchange(&socket, hostile);
            let next = exchange(&socket, b"{\"cmd\":\"list\"}\n");
            exchange(&socket, b"{\"cmd\":\"shutdown\",\"graceful\":true}\n");
            (refused, next)
        },
    );
    served.expect("daemon shuts down cleanly");
    let (_, next) = &responses;
    assert_eq!(next.len(), 1, "{next:?}");
    assert!(next[0].contains("\"ok\":true"), "the next client is served: {}", next[0]);
    responses
}

#[test]
fn an_over_long_request_line_is_refused_and_the_next_client_is_served() {
    let mut padded = br#"{"cmd":"list","pad":""#.to_vec();
    padded.resize(MAX_REQUEST_LINE + 16, b'x');
    padded.extend_from_slice(b"\"}\n");

    let (refused, _) = hostile_then_list("cap", &padded);
    assert_eq!(refused.len(), 1, "one refusal, then the connection closes: {refused:?}");
    assert!(refused[0].contains("\"ok\":false"), "{}", refused[0]);
    assert!(refused[0].contains(&format!("exceeds {MAX_REQUEST_LINE} bytes")), "{}", refused[0]);
}

#[test]
fn a_deeply_nested_request_line_is_refused_and_the_next_client_is_served() {
    // Under MAX_REQUEST_LINE, so it reaches the parser, whose recursion
    // must not follow it 60,000 levels down.
    let mut deep = vec![b'['; 60_000];
    assert!(deep.len() < MAX_REQUEST_LINE);
    deep.push(b'\n');

    let (refused, _) = hostile_then_list("deep", &deep);
    assert_eq!(refused.len(), 1, "{refused:?}");
    assert!(
        refused[0].starts_with(r#"{"ok":false,"error":"request is not valid JSON: "#),
        "{}",
        refused[0]
    );
}

#[test]
fn a_socket_watch_is_byte_identical_to_a_replay_watch() {
    let submit = r#"{"cmd":"submit","spec":{"kind":"stream","products":["nid","flow"],"seed":9,"rate":500.0,"transactions":2000,"chunk_records":128,"shards":2}}"#;
    let config = DaemonConfig::default().with_jobs(2);

    let mut core = DaemonCore::new(config.clone()).expect("core");
    let script = format!("{submit}\n{{\"cmd\":\"drain\"}}\n{{\"cmd\":\"watch\",\"id\":1}}");
    let replayed = replay(&mut core, &script).expect("replay");
    let want = &replayed[2..];
    assert!(want.last().is_some_and(|l| l.contains("\"state\":\"completed\"")), "{want:?}");

    let socket =
        std::env::temp_dir().join(format!("idse-daemon-parity-{}.sock", std::process::id()));
    let core = DaemonCore::new(config).expect("core");
    let (served, watched) = with_worker(
        || serve(core, &socket),
        || {
            let submitted = exchange(&socket, format!("{submit}\n").as_bytes());
            assert!(submitted[0].contains("\"ok\":true"), "{submitted:?}");
            // The watch waits for the job to finish, then answers.
            let watched = exchange(&socket, b"{\"cmd\":\"watch\",\"id\":1}\n");
            exchange(&socket, b"{\"cmd\":\"shutdown\",\"graceful\":true}\n");
            watched
        },
    );
    served.expect("daemon shuts down cleanly");
    assert_eq!(watched, want);
}
