//! `PROTOCOL.md`'s "Binary framing" section is kept honest the same way the JSON
//! sections are: its byte-level worked example is parsed out of the document,
//! decoded and re-encoded by the real codec (byte identity), and then replayed
//! against a live daemon over a loopback socket — every documented response frame
//! must come back byte-for-byte.  A proptest pins the other satellite promise:
//! binary round-trip ≡ JSON round-trip for **every** operation, and the decoder
//! survives arbitrary hostile bytes without panicking.

use std::io::{Cursor, Write};
use std::net::{TcpListener, TcpStream};

use busytime::online::{Event, OnlineScheduler};
use busytime::report::InstanceFile;
use busytime::{Interval, OnlinePolicy};
use busytime_server::frame::{DecodeError, MAX_NAME, MAX_PAYLOAD};
use busytime_server::{serve, FrameRequest, Registry, Request, RequestFrame, ResponseFrame};
use proptest::prelude::*;

const DOC: &str = include_str!("../../../PROTOCOL.md");

/// Bind an ephemeral loopback port and serve a fresh registry on a background
/// thread; returns the address to connect to.
fn spawn_server(shards: usize) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let registry = Registry::new(shards);
    let engine = registry.engine();
    std::thread::spawn(move || {
        let _registry = registry;
        let _ = serve(listener, engine);
    });
    addr
}

/// One direction-tagged frame from the documented hex session.
#[derive(Debug, PartialEq)]
struct HexFrame {
    client_to_server: bool,
    bytes: Vec<u8>,
}

/// Extract the documented hex session: the first ```text fence whose frames are
/// written as `>`/`<` lines of hex bytes (continuation lines are indented; `#`
/// lines are commentary).
fn documented_hex_session() -> Vec<HexFrame> {
    let mut rest = DOC;
    while let Some(start) = rest.find("```text\n") {
        let body = &rest[start + "```text\n".len()..];
        let end = body.find("```").expect("every fence closes");
        let block = &body[..end];
        rest = &body[end + 3..];
        if !block.lines().any(|line| line.starts_with("> b5")) {
            continue;
        }
        let mut frames: Vec<HexFrame> = Vec::new();
        for line in block.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let (target, hex) = if let Some(hex) = line.strip_prefix("> ") {
                frames.push(HexFrame {
                    client_to_server: true,
                    bytes: Vec::new(),
                });
                (frames.last_mut().unwrap(), hex)
            } else if let Some(hex) = line.strip_prefix("< ") {
                frames.push(HexFrame {
                    client_to_server: false,
                    bytes: Vec::new(),
                });
                (frames.last_mut().unwrap(), hex)
            } else {
                (
                    frames.last_mut().expect("continuation before any frame"),
                    trimmed,
                )
            };
            for byte in hex.split_whitespace() {
                target
                    .bytes
                    .push(u8::from_str_radix(byte, 16).unwrap_or_else(|_| {
                        panic!("'{byte}' in the documented session is not a hex byte")
                    }));
            }
        }
        return frames;
    }
    panic!("PROTOCOL.md has no binary worked-example fence (`> b5 …` lines)");
}

/// Render one frame the way the document writes it: direction marker, sixteen
/// hex bytes per line, continuations indented.
fn render_hex(client_to_server: bool, bytes: &[u8]) -> String {
    let mut out = String::new();
    for (i, chunk) in bytes.chunks(16).enumerate() {
        out.push_str(if i == 0 {
            if client_to_server {
                "> "
            } else {
                "< "
            }
        } else {
            "  "
        });
        let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
        out.push_str(&hex.join(" "));
        out.push('\n');
    }
    out
}

/// The canonical worked-example requests, in order (the document must show
/// exactly these).
fn worked_example_requests() -> Vec<RequestFrame> {
    vec![
        RequestFrame {
            seq: 0,
            body: FrameRequest::Bind {
                name: "acme".into(),
            },
        },
        RequestFrame {
            seq: 1,
            body: FrameRequest::Json {
                payload: Request::Open {
                    tenant: "acme".into(),
                    capacity: 1,
                    policy: None,
                }
                .to_json(),
            },
        },
        RequestFrame {
            seq: 2,
            body: FrameRequest::Arrive {
                tenant: 0,
                id: 1,
                start: 0,
                end: 10,
            },
        },
        RequestFrame {
            seq: 3,
            body: FrameRequest::Arrive {
                tenant: 0,
                id: 2,
                start: 2,
                end: 5,
            },
        },
        RequestFrame {
            seq: 4,
            body: FrameRequest::Depart { tenant: 0, id: 1 },
        },
    ]
}

/// Replay the worked-example requests against a live daemon in lockstep and
/// return the whole session as wire frames.
fn live_session() -> Vec<HexFrame> {
    let addr = spawn_server(1);
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut session = Vec::new();
    for request in worked_example_requests() {
        let bytes = request.encode();
        stream.write_all(&bytes).unwrap();
        session.push(HexFrame {
            client_to_server: true,
            bytes,
        });
        let response = ResponseFrame::read(&mut stream).expect("the daemon answers every frame");
        assert_eq!(response.seq, request.seq, "responses echo the sequence");
        session.push(HexFrame {
            client_to_server: false,
            bytes: response.encode(),
        });
    }
    session
}

#[test]
fn the_documented_binary_session_is_byte_exact_against_a_live_daemon() {
    let live = live_session();
    let documented = documented_hex_session();
    if live != documented {
        let rendered: String = live
            .iter()
            .map(|frame| render_hex(frame.client_to_server, &frame.bytes))
            .collect();
        panic!(
            "PROTOCOL.md's binary worked example diverged from the live daemon.\n\
             The correct session is:\n{rendered}"
        );
    }
}

#[test]
fn every_documented_binary_frame_re_encodes_to_the_same_bytes() {
    for frame in documented_hex_session() {
        let mut cursor = Cursor::new(frame.bytes.as_slice());
        let re_encoded = if frame.client_to_server {
            RequestFrame::read(&mut cursor)
                .unwrap_or_else(|e| panic!("documented request frame does not decode: {e}"))
                .encode()
        } else {
            ResponseFrame::read(&mut cursor)
                .unwrap_or_else(|e| panic!("documented response frame does not decode: {e}"))
                .encode()
        };
        assert_eq!(
            re_encoded, frame.bytes,
            "re-encoding a documented frame changed its bytes"
        );
        assert_eq!(
            cursor.position() as usize,
            frame.bytes.len(),
            "a documented frame has trailing bytes the decoder did not consume"
        );
    }
}

/// A snapshot with some real structure in it, for the restore arm of the
/// every-op proptest.
fn sample_snapshot(jobs: usize) -> busytime::online::OnlineSnapshot {
    let mut scheduler = OnlineScheduler::new(2, OnlinePolicy::FirstFit).unwrap();
    for id in 0..jobs as u64 {
        let start = 3 * id as i64;
        scheduler
            .apply(&Event::arrival(
                id + 1,
                Interval::from_ticks(start, start + 7),
            ))
            .unwrap();
    }
    scheduler.snapshot()
}

/// Encode a protocol request the way the binary client does — fast-path frames
/// for `arrive`/`depart`/`query` against a binding table, a JSON-payload frame
/// for everything else — then decode it and map it back to a protocol request.
fn through_binary(request: &Request, seq: u32, bindings: &[&str]) -> Request {
    let id_of = |tenant: &str| {
        bindings
            .iter()
            .position(|name| *name == tenant)
            .expect("the test binds every tenant it uses") as u32
    };
    let body = match request {
        Request::Arrive { tenant, id, job } => FrameRequest::Arrive {
            tenant: id_of(tenant),
            id: *id,
            start: job.0,
            end: job.1,
        },
        Request::Depart { tenant, id } => FrameRequest::Depart {
            tenant: id_of(tenant),
            id: *id,
        },
        Request::Query { tenant } => FrameRequest::Query {
            tenant: id_of(tenant),
        },
        other => FrameRequest::Json {
            payload: other.to_json(),
        },
    };
    let bytes = RequestFrame { seq, body }.encode();
    let decoded = RequestFrame::read(&mut Cursor::new(&bytes)).expect("own encoding decodes");
    assert_eq!(decoded.seq, seq);
    assert_eq!(decoded.encode(), bytes, "re-encoding changed the bytes");
    match decoded.body {
        FrameRequest::Arrive {
            tenant,
            id,
            start,
            end,
        } => Request::Arrive {
            tenant: bindings[tenant as usize].to_string(),
            id,
            job: (start, end),
        },
        FrameRequest::Depart { tenant, id } => Request::Depart {
            tenant: bindings[tenant as usize].to_string(),
            id,
        },
        FrameRequest::Query { tenant } => Request::Query {
            tenant: bindings[tenant as usize].to_string(),
        },
        FrameRequest::Json { payload } => {
            Request::from_json(&payload).expect("the JSON payload is a wire request")
        }
        FrameRequest::Bind { .. } => unreachable!("the mapping never emits a bind"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// For every operation the server understands, sending it through the binary
    /// framing is indistinguishable from sending it through NDJSON: the frame
    /// round-trips to the same request the JSON round-trip yields.
    #[test]
    fn binary_round_trip_equals_json_round_trip_for_every_op(
        op in 0usize..11,
        tenant_ix in 0usize..3,
        seq in 0u32..=u32::MAX,
        // The NDJSON side carries ids in a JSON integer (`i64`), so the shared
        // id space is the i64-representable half; the binary side would carry
        // all 64 bits, but the equivalence is only claimed for wire-legal ids.
        id in 0u64..=i64::MAX as u64,
        start in -1_000_000i64..1_000_000,
        len in 0i64..1_000_000,
        capacity in 1usize..64,
        policy_ix in 0usize..3,
        jobs in prop::collection::vec((-1000i64..1000, 1i64..500), 0..4),
        budget in (any::<bool>(), 0i64..10_000)
            .prop_map(|(none, t)| if none { None } else { Some(t) }),
    ) {
        let bindings = ["acme", "zeta corp", "ünïcode"];
        let tenant = bindings[tenant_ix].to_string();
        let policy = [None, Some("first-fit".to_string()), Some("best-fit".to_string())]
            [policy_ix].clone();
        let request = match op {
            0 => Request::Open { tenant, capacity, policy },
            1 => Request::Arrive { tenant, id, job: (start, start + len) },
            2 => Request::Depart { tenant, id },
            3 => Request::Query { tenant },
            4 => Request::Snapshot { tenant },
            5 => Request::Restore { tenant, snapshot: sample_snapshot(jobs.len()) },
            6 => Request::Close { tenant },
            7 => Request::Persist { tenant },
            8 => Request::WalStats { tenant },
            9 => Request::Batch {
                instances: jobs
                    .iter()
                    .map(|&(s, l)| InstanceFile { capacity, jobs: vec![(s, s + l)] })
                    .collect(),
                budget,
            },
            _ => Request::Stats,
        };
        let via_json = Request::from_json(&request.to_json())
            .expect("every request survives its own JSON");
        let via_binary = through_binary(&request, seq, &bindings);
        prop_assert_eq!(&via_binary, &via_json);
        prop_assert_eq!(via_binary.to_json(), request.to_json());
    }

    /// The decoder is a trust boundary: arbitrary bytes either decode to a frame
    /// that re-encodes to a prefix of the input, or fail with a clean error —
    /// never a panic, never an allocation driven by a hostile length.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..160),
        seed_valid in any::<bool>(),
        cut in 0usize..40,
    ) {
        // Half the cases lead with a valid frame truncated mid-way, which is the
        // nastiest shape: a good header with a lying tail.
        let mut stream = Vec::new();
        if seed_valid {
            let valid = RequestFrame {
                seq: 99,
                body: FrameRequest::Arrive { tenant: 1, id: 2, start: 3, end: 4 },
            }
            .encode();
            stream.extend_from_slice(&valid[..cut.min(valid.len())]);
        }
        stream.extend_from_slice(&bytes);
        let mut cursor = Cursor::new(stream.as_slice());
        match RequestFrame::read(&mut cursor) {
            Ok(frame) => {
                let consumed = cursor.position() as usize;
                prop_assert_eq!(frame.encode(), &stream[..consumed]);
            }
            Err(DecodeError::Io(_)) | Err(DecodeError::Protocol { .. }) => {}
        }
        let mut cursor = Cursor::new(stream.as_slice());
        match ResponseFrame::read(&mut cursor) {
            Ok(frame) => {
                let consumed = cursor.position() as usize;
                prop_assert_eq!(frame.encode(), &stream[..consumed]);
            }
            Err(DecodeError::Io(_)) | Err(DecodeError::Protocol { .. }) => {}
        }
    }
}

#[test]
fn oversized_declared_lengths_are_refused_before_allocating() {
    // A bind name one past the limit and a JSON payload one past the limit: both
    // must fail as protocol errors without the decoder trying to read (let alone
    // allocate) the declared body.
    for (opcode, limit) in [(0x04u8, MAX_NAME), (0x00u8, MAX_PAYLOAD)] {
        let mut bytes = vec![0xB5, opcode, 7, 0, 0, 0];
        bytes.extend_from_slice(&((limit as u32) + 1).to_le_bytes());
        match RequestFrame::read(&mut Cursor::new(&bytes)) {
            Err(DecodeError::Protocol { seq: 7, message }) => {
                assert!(message.contains("exceeds"), "{message}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}
