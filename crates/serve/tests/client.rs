//! The client's contract against a scripted peer: which replies become
//! errors, which failures are retried on a fresh connection, and how many
//! connections a retry loop opens. The peer is a plain `TcpListener` that
//! reads one v1 request line per step and answers with a canned reply line
//! (or hangs up, or stays silent), so each test pins the client alone, not
//! the daemon behind it.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use tafloc_ingest::LinkSample;
use tafloc_serve::client::{is_transient, Client, IngestOutcome, RetryPolicy};
use tafloc_serve::protocol::Response;
use tafloc_serve::wire::{self, WireVersion};
use tafloc_serve::ServeError;

const LOCATED: &str =
    r#"{"reply":"located","cell":42,"x":3.9,"y":5.1,"distance_db":2.31,"version":1}"#;
const UNKNOWN_SITE: &str = r#"{"reply":"error","message":"unknown site \"attic\""}"#;
const PONG: &str = r#"{"reply":"pong"}"#;
const INGESTED: &str = r#"{"reply":"ingested","report":{"accepted":10,"dropped_late":1,"dropped_unknown_link":0,"dropped_non_finite":2}}"#;
const DEFERRED: &str =
    r#"{"reply":"overloaded","site":"lab","shard":3,"reason":"deferred","retry_after_ms":25}"#;
const REJECTED: &str =
    r#"{"reply":"overloaded","site":"attic","shard":0,"reason":"rejected","retry_after_ms":0}"#;

/// Read timeout for every client here, so a client bug fails a test
/// instead of hanging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// One step of the scripted peer, taken per request line it reads.
#[derive(Clone)]
enum Step {
    /// Answer with this v1 reply line.
    Reply(&'static str),
    /// Answer with these bytes as they are.
    Raw(Vec<u8>),
    /// Close the connection without answering.
    HangUp,
    /// Answer nothing and keep the connection open until the client closes
    /// it (or 10 s pass).
    Stall,
}

type Peer = JoinHandle<(TcpListener, Vec<String>)>;

/// Serves `script`, one list of steps per accepted connection, in order.
/// Joining the handle returns the request lines read and the listener, so
/// a test can check that the client opened no further connection.
fn scripted_peer(script: Vec<Vec<Step>>) -> (SocketAddr, Peer) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let mut requests = Vec::new();
        for steps in script {
            let (stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for step in steps {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                requests.push(line.trim_end().to_string());
                match step {
                    Step::Reply(reply) => {
                        writer.write_all(format!("{reply}\n").as_bytes()).unwrap()
                    }
                    Step::Raw(bytes) => writer.write_all(&bytes).unwrap(),
                    Step::HangUp => break,
                    Step::Stall => {
                        let _ = reader.read_line(&mut String::new());
                        break;
                    }
                }
            }
        }
        (listener, requests)
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    client
}

/// A retry policy with millisecond backoff, so retry tests stay fast.
fn quick_retries(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(10),
        jitter_seed: 7,
    }
}

fn assert_no_pending_connection(listener: &TcpListener) {
    listener.set_nonblocking(true).unwrap();
    match listener.accept() {
        Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
        Ok((_, from)) => panic!("the client opened an extra connection from {from}"),
    }
}

#[test]
fn locate_sends_one_v1_line_and_returns_the_fix() {
    let (addr, peer) = scripted_peer(vec![vec![Step::Reply(LOCATED)]]);
    let mut client = connect(addr);
    assert_eq!(client.locate("lab", &[-50.5, -49.0]).unwrap(), (42, 3.9, 5.1, 1));
    drop(client);
    let (_, requests) = peer.join().unwrap();
    assert_eq!(requests, [r#"{"cmd":"locate","site":"lab","y":[-50.5,-49]}"#]);
}

#[test]
fn error_replies_become_remote_errors_and_are_never_retried() {
    let (addr, peer) = scripted_peer(vec![vec![Step::Reply(UNKNOWN_SITE)]]);
    let mut client = connect(addr);
    let err = client.locate_with_retry("attic", &[-50.0], &quick_retries(3)).unwrap_err();
    match &err {
        ServeError::Remote(message) => assert_eq!(message, "unknown site \"attic\""),
        other => panic!("expected a remote error, got {other:?}"),
    }
    assert!(!is_transient(&err));
    drop(client);
    let (listener, requests) = peer.join().unwrap();
    assert_eq!(requests.len(), 1, "the server answered; asking again cannot help");
    assert_no_pending_connection(&listener);
}

#[test]
fn locate_with_retry_reconnects_after_the_peer_hangs_up() {
    let (addr, peer) = scripted_peer(vec![vec![Step::HangUp], vec![Step::Reply(LOCATED)]]);
    let mut client = connect(addr);
    let fix = client.locate_with_retry("lab", &[-50.0], &quick_retries(3)).unwrap();
    assert_eq!(fix, (42, 3.9, 5.1, 1));
    drop(client);
    let (listener, requests) = peer.join().unwrap();
    assert_eq!(requests.len(), 2);
    assert_eq!(requests[0], requests[1], "the retry resends the same request");
    assert_no_pending_connection(&listener);
}

#[test]
fn retries_stop_at_max_attempts_with_the_last_transport_error() {
    let (addr, peer) = scripted_peer(vec![vec![Step::HangUp]; 3]);
    let mut client = connect(addr);
    let err = client.locate_with_retry("lab", &[-50.0], &quick_retries(3)).unwrap_err();
    assert!(is_transient(&err), "{err:?}");
    drop(client);
    let (listener, requests) = peer.join().unwrap();
    assert_eq!(requests.len(), 3);
    assert_no_pending_connection(&listener);
}

#[test]
fn a_zero_attempt_policy_still_makes_one_attempt() {
    let (addr, peer) = scripted_peer(vec![vec![Step::HangUp]]);
    let mut client = connect(addr);
    let err = client.locate_with_retry("lab", &[-50.0], &quick_retries(0)).unwrap_err();
    assert!(is_transient(&err), "{err:?}");
    drop(client);
    let (listener, requests) = peer.join().unwrap();
    assert_eq!(requests.len(), 1);
    assert_no_pending_connection(&listener);
}

#[test]
fn try_ingest_returns_overload_verdicts_and_ingest_turns_them_into_errors() {
    let (addr, peer) = scripted_peer(vec![vec![
        Step::Reply(DEFERRED),
        Step::Reply(INGESTED),
        Step::Reply(REJECTED),
    ]]);
    let mut client = connect(addr);
    let samples = vec![LinkSample::new(0, 1.0, -50.0)];
    match client.try_ingest("lab", None, 0.0, samples.clone()).unwrap() {
        IngestOutcome::Overloaded { shard, reason, retry_after_ms } => {
            assert_eq!((shard, reason.as_str(), retry_after_ms), (3, "deferred", 25));
        }
        other => panic!("expected an overload verdict, got {other:?}"),
    }
    let report = client.ingest("lab", samples.clone()).unwrap();
    assert_eq!((report.accepted, report.total()), (10, 13));
    match client.ingest_for("attic", Some(2), 45.0, samples).unwrap_err() {
        ServeError::Remote(message) => {
            assert_eq!(message, "site overloaded (rejected by shard 0, retry after 0 ms)");
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
    drop(client);
    let (_, requests) = peer.join().unwrap();
    assert_eq!(requests.len(), 3);
    assert!(requests[1].contains(r#""ref_cell":null,"day":0"#), "{}", requests[1]);
    assert!(requests[2].contains(r#""site":"attic","ref_cell":2,"day":45"#), "{}", requests[2]);
}

#[test]
fn replies_of_the_wrong_kind_are_protocol_errors() {
    let (addr, peer) = scripted_peer(vec![vec![Step::Reply(PONG), Step::Reply(LOCATED)]]);
    let mut client = connect(addr);
    let err = client.locate("lab", &[-50.0]).unwrap_err();
    assert!(matches!(&err, ServeError::Protocol(m) if m.contains("to locate")), "{err:?}");
    assert!(!is_transient(&err));
    let err = client.ping().unwrap_err();
    assert!(matches!(&err, ServeError::Protocol(m) if m.contains("to ping")), "{err:?}");
    drop(client);
    peer.join().unwrap();
}

#[test]
fn reconnect_reapplies_the_read_timeout() {
    let (addr, peer) = scripted_peer(vec![vec![Step::Stall], vec![Step::Stall]]);
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_millis(100))).unwrap();
    for attempt in 0..2 {
        if attempt > 0 {
            client.reconnect().unwrap();
        }
        let start = Instant::now();
        let err = client.locate("lab", &[-50.0]).unwrap_err();
        assert!(
            matches!(&err, ServeError::Io(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
            "attempt {attempt}: expected a read timeout, got {err:?}"
        );
        assert!(is_transient(&err));
        assert!(start.elapsed() < Duration::from_secs(5), "attempt {attempt} waited too long");
    }
    drop(client);
    let (listener, requests) = peer.join().unwrap();
    assert_eq!(requests.len(), 2);
    assert_no_pending_connection(&listener);
}

#[test]
fn the_protocol_version_survives_a_reconnect() {
    let (addr, peer) = scripted_peer(vec![vec![], vec![]]);
    let mut client = Client::connect_v2(addr).unwrap();
    assert_eq!(client.version(), WireVersion::V2Binary);
    client.reconnect().unwrap();
    assert_eq!(client.version(), WireVersion::V2Binary);
    drop(client);
    peer.join().unwrap();
}

#[test]
fn a_reply_in_the_other_framing_is_decoded_by_sniffing() {
    let located = Response::Located { cell: 7, x: 1.5, y: -2.0, distance_db: 0.5, version: 3 };
    let mut v2_reply = Vec::new();
    wire::write_response(&mut v2_reply, &located, WireVersion::V2Binary).unwrap();
    let (addr, peer) = scripted_peer(vec![vec![Step::Raw(v2_reply), Step::Reply(PONG)]]);
    let mut client = connect(addr);
    assert_eq!(client.locate("lab", &[-50.0]).unwrap(), (7, 1.5, -2.0, 3));
    client.ping().unwrap();
    assert_eq!(client.version(), WireVersion::V1Json, "the client keeps speaking v1");
    drop(client);
    let (_, requests) = peer.join().unwrap();
    assert_eq!(requests[1], r#"{"cmd":"ping"}"#);
}
