//! End-to-end smoke over a real loopback socket: bind an ephemeral port, run the
//! daemon's accept loop, and drive it with the blocking [`Client`] — including two
//! concurrent connections, a snapshot/restore round trip over the wire, and a
//! malformed line that must not take the connection down.

use std::net::TcpListener;

use busytime::online::{Event, Trace};
use busytime::{Interval, OnlinePolicy};
use busytime_server::{serve, Client, Registry, Request, Response};

/// Bind an ephemeral loopback port and serve a fresh registry on a background
/// thread; returns the address to connect to.
fn spawn_server(shards: usize) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let registry = Registry::new(shards);
    let engine = registry.engine();
    std::thread::spawn(move || {
        // The registry must outlive the accept loop; the test process exits with
        // both still running, like the real daemon.
        let _registry = registry;
        let _ = serve(listener, engine);
    });
    addr
}

fn sample_trace() -> Trace {
    Trace::new(
        2,
        vec![
            Event::arrival(1, Interval::from_ticks(0, 10)),
            Event::arrival(2, Interval::from_ticks(4, 12)),
            Event::arrival(3, Interval::from_ticks(6, 14)),
            Event::departure(1),
        ],
    )
}

#[test]
fn drive_trace_over_the_wire_matches_local_simulation() {
    let addr = spawn_server(2);
    let mut client = Client::connect(&addr).unwrap();
    let report = client
        .drive_trace("acme", &sample_trace(), OnlinePolicy::FirstFit)
        .unwrap();

    // The local replay of the same trace (the `simulate` path).
    let run = busytime::OnlineScheduler::run(&sample_trace(), OnlinePolicy::FirstFit).unwrap();
    let trajectory: Vec<i64> = run.trajectory.iter().map(|d| d.ticks()).collect();
    let local = busytime::report::SimulationReport::from_scheduler(&run.scheduler, trajectory);
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&local).unwrap(),
        "the wire-driven tenant must equal the local simulation"
    );
}

#[test]
fn driving_the_same_tenant_twice_replays_fresh() {
    // A rerun of `busytime client` with the same tenant name must not fail on the
    // leftover tenant — the drive closes and reopens it, replaying from empty.
    let addr = spawn_server(2);
    let mut client = Client::connect(&addr).unwrap();
    let first = client
        .drive_trace("repeat", &sample_trace(), OnlinePolicy::FirstFit)
        .unwrap();
    let second = client
        .drive_trace("repeat", &sample_trace(), OnlinePolicy::FirstFit)
        .unwrap();
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap()
    );
}

#[test]
fn snapshot_restore_and_stats_over_the_wire() {
    let addr = spawn_server(3);
    let mut client = Client::connect(&addr).unwrap();
    client
        .drive_trace("src", &sample_trace(), OnlinePolicy::BestFit)
        .unwrap();

    let Response::Snapshot(snapshot) = client
        .call_ok(&Request::Snapshot {
            tenant: "src".into(),
        })
        .unwrap()
    else {
        panic!("expected a snapshot");
    };
    client
        .call_ok(&Request::Restore {
            tenant: "dst".into(),
            snapshot,
        })
        .unwrap();

    // Both tenants evolve identically from here (a second connection drives `dst`).
    let mut second = Client::connect(&addr).unwrap();
    let grow = |client: &mut Client, tenant: &str| {
        client
            .call_ok(&Request::Arrive {
                tenant: tenant.into(),
                id: 50,
                job: (9, 21),
            })
            .unwrap()
    };
    let a = grow(&mut client, "src");
    let b = grow(&mut second, "dst");
    assert_eq!(a.to_json(), b.to_json());

    let Response::Stats {
        shards,
        tenants,
        requests,
    } = client.call_ok(&Request::Stats).unwrap()
    else {
        panic!("expected stats");
    };
    assert_eq!(shards, 3);
    assert_eq!(tenants, 2);
    assert!(requests >= 8);
}

#[test]
fn one_connection_may_mix_framings_per_message() {
    use busytime_server::{FrameRequest, FrameResponse, RequestFrame, ResponseFrame};
    use std::io::{BufRead, BufReader, Write};

    let addr = spawn_server(2);
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // NDJSON open…
    stream
        .write_all(b"{\"op\":\"open\",\"tenant\":\"mix\",\"capacity\":1}\n")
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(Response::from_json(line.trim_end()).unwrap().is_ok());

    // …then a binary bind + arrive on the same connection…
    for frame in [
        RequestFrame {
            seq: 1,
            body: FrameRequest::Bind { name: "mix".into() },
        },
        RequestFrame {
            seq: 2,
            body: FrameRequest::Arrive {
                tenant: 0,
                id: 1,
                start: 0,
                end: 5,
            },
        },
    ] {
        stream.write_all(&frame.encode()).unwrap();
    }
    let bound = ResponseFrame::read(&mut reader).unwrap();
    assert!(
        matches!(bound.body, FrameResponse::Bound { tenant: 0 }),
        "{bound:?}"
    );
    let event = ResponseFrame::read(&mut reader).unwrap();
    assert!(
        matches!(
            event.body,
            FrameResponse::Event {
                machine: 0,
                cost_delta: 5,
                cost: 5
            }
        ),
        "{event:?}"
    );

    // …and back to NDJSON, seeing the state the binary frames built.
    stream
        .write_all(b"{\"op\":\"depart\",\"tenant\":\"mix\",\"id\":1}\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        matches!(
            Response::from_json(line.trim_end()).unwrap(),
            Response::Event { cost_delta: -5, .. }
        ),
        "{line}"
    );
}

#[test]
fn hostile_binary_frames_drop_the_connection_without_desyncing_others() {
    use busytime_server::{FrameResponse, ResponseFrame};
    use std::io::{Read, Write};

    let addr = spawn_server(1);

    // A long-lived honest connection that must survive everything below.
    let mut honest = Client::connect_binary(&addr).unwrap();
    honest
        .call_ok(&Request::Open {
            tenant: "honest".into(),
            capacity: 1,
            policy: None,
        })
        .unwrap();

    // Hostile connection 1: an unknown opcode after the magic byte.  The server
    // answers a final error frame echoing the sequence number, then closes.
    let mut bad = std::net::TcpStream::connect(&addr).unwrap();
    bad.write_all(&[0xB5, 0x7f, 9, 0, 0, 0]).unwrap();
    let frame = ResponseFrame::read(&mut bad).unwrap();
    assert_eq!(frame.seq, 9);
    assert!(
        matches!(frame.body, FrameResponse::Error { .. }),
        "{frame:?}"
    );
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "the connection must close after the error frame"
    );

    // Hostile connection 2: a bind declaring a 3 GiB name.  Refused before the
    // allocation; the connection closes after the error frame.
    let mut bad = std::net::TcpStream::connect(&addr).unwrap();
    let mut bytes = vec![0xB5, 0x04, 1, 0, 0, 0];
    bytes.extend_from_slice(&3_000_000_000u32.to_le_bytes());
    bad.write_all(&bytes).unwrap();
    let frame = ResponseFrame::read(&mut bad).unwrap();
    assert!(
        matches!(frame.body, FrameResponse::Error { .. }),
        "{frame:?}"
    );
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // Hostile connection 3: a frame truncated mid-body, then a clean shutdown.
    // Nothing to answer (the header's promise was never kept) — the server just
    // drops the connection without panicking.
    let mut bad = std::net::TcpStream::connect(&addr).unwrap();
    bad.write_all(&[0xB5, 0x01, 0, 0, 0, 0, 1, 2, 3]).unwrap();
    bad.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).unwrap();

    // Hostile connection 4: an unbound tenant id is a *semantic* error — the
    // frame decodes fine, so the connection stays usable.
    let mut semi = std::net::TcpStream::connect(&addr).unwrap();
    semi.write_all(
        &busytime_server::RequestFrame {
            seq: 4,
            body: busytime_server::FrameRequest::Query { tenant: 42 },
        }
        .encode(),
    )
    .unwrap();
    let frame = ResponseFrame::read(&mut semi).unwrap();
    assert!(
        matches!(frame.body, FrameResponse::Error { .. }),
        "{frame:?}"
    );
    semi.write_all(
        &busytime_server::RequestFrame {
            seq: 5,
            body: busytime_server::FrameRequest::Bind {
                name: "late".into(),
            },
        }
        .encode(),
    )
    .unwrap();
    let frame = ResponseFrame::read(&mut semi).unwrap();
    assert!(
        matches!(frame.body, FrameResponse::Bound { tenant: 0 }),
        "the connection must stay usable after a semantic error: {frame:?}"
    );

    // Through it all, the honest connection never desynced.
    let response = honest
        .call_ok(&Request::Arrive {
            tenant: "honest".into(),
            id: 1,
            job: (0, 7),
        })
        .unwrap();
    assert!(
        matches!(response, Response::Event { cost: 7, .. }),
        "{response:?}"
    );
}

#[test]
fn malformed_lines_do_not_kill_the_connection() {
    use std::io::{BufRead, BufReader, Write};

    let addr = spawn_server(1);
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    stream.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Response::from_json(line.trim_end()).unwrap();
    assert!(!response.is_ok(), "{line}");

    // Blank lines are skipped; the connection is still healthy for real requests.
    stream.write_all(b"\n{\"op\":\"stats\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::from_json(line.trim_end()).unwrap(),
        Response::Stats { shards: 1, .. }
    ));

    // An unknown op reports the valid ones.
    stream.write_all(b"{\"op\":\"fly\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let Response::Error(error) = Response::from_json(line.trim_end()).unwrap() else {
        panic!("expected an error");
    };
    assert!(error.message.contains("unknown op"), "{error}");
}

#[test]
fn an_over_long_line_is_answered_and_its_connection_closes() {
    use busytime_server::frame::MAX_PAYLOAD;
    use std::io::{BufRead, BufReader, Read, Write};

    let addr = spawn_server(1);
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    // A server that waits for the newline fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // One byte past the cap and no newline: exactly what the server reads before
    // it gives up on the line, so nothing is left unread when it closes.
    let chunk = vec![b'x'; 64 * 1024];
    let mut left = MAX_PAYLOAD + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        stream.write_all(&chunk[..n]).unwrap();
        left -= n;
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let Response::Error(error) = Response::from_json(line.trim_end()).unwrap() else {
        panic!("expected an error, got {line}");
    };
    assert_eq!(error.code, busytime_server::ErrorCode::Malformed, "{error}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the connection must close after the error");

    // The daemon still serves a new connection.
    let mut client = Client::connect(&addr).unwrap();
    assert!(matches!(
        client.call_ok(&Request::Stats).unwrap(),
        Response::Stats { shards: 1, .. }
    ));
}
