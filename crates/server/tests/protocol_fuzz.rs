//! Adversarial input tests for the wire protocol and a live server.
//!
//! The decoding contract is *totality*: any byte sequence — random
//! garbage, truncations, mutations of valid frames, hostile length
//! fields — decodes to either a message or a typed error, never a
//! panic, never an unbounded allocation, and a live server fed such
//! bytes sheds them with a typed `Malformed`/`TooLarge` rejection and
//! keeps serving other connections.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use optchain_core::RouterFleet;
use optchain_server::protocol::{
    decode_request, decode_response, decode_rows, encode_request, encode_response, read_frame,
    write_frame, DecodeError, Decoded, FrameRead, RejectReason, Request, Response, WireTx,
    DEFAULT_MAX_FRAME_BYTES,
};
use optchain_server::PlacementServer;
use optchain_utxo::TxId;
use proptest::collection;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Decoder totality (pure, no sockets)
// ---------------------------------------------------------------------------

/// Decodes `payload` into both transaction sinks — `WireTx` values and
/// the server's flat `TxRows` — and checks they agree: the same
/// verdict, and on success the same request with the same ids.
fn decode_both(payload: &[u8]) -> Result<Request, DecodeError> {
    let request = decode_request(payload);
    let flat = decode_rows(payload).map(|decoded| match decoded {
        Decoded::Place {
            req_id,
            fee,
            batch,
            txs,
        } => {
            let mut txs: Vec<WireTx> = txs
                .iter()
                .map(|(txid, inputs)| WireTx {
                    txid,
                    inputs: inputs.to_vec(),
                })
                .collect();
            match batch {
                true => Request::SubmitBatch { req_id, fee, txs },
                false => {
                    assert_eq!(txs.len(), 1, "a Submit carries one transaction");
                    let tx = txs.remove(0);
                    Request::Submit { req_id, fee, tx }
                }
            }
        }
        Decoded::Query { req_id, txid } => Request::Query { req_id, txid },
        Decoded::Metrics { req_id } => Request::Metrics { req_id },
    });
    assert_eq!(request, flat, "the two sinks disagree on {payload:?}");
    request
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Arbitrary bytes never panic the request decoder.
    #[test]
    fn random_bytes_decode_request_totally(payload in collection::vec(0u8..=255, 0..96)) {
        let _ = decode_both(&payload);
    }

    /// Arbitrary bytes never panic the response decoder.
    #[test]
    fn random_bytes_decode_response_totally(payload in collection::vec(0u8..=255, 0..96)) {
        let _ = decode_response(&payload);
    }

    /// Bytes that *start* like a real opcode but carry hostile counts
    /// and truncated bodies must error, not panic or over-allocate.
    #[test]
    fn opcode_prefixed_garbage_is_rejected(
        opcode in 0u8..=255,
        body in collection::vec(0u8..=255, 0..64),
    ) {
        let mut payload = vec![opcode];
        payload.extend_from_slice(&body);
        let _ = decode_both(&payload);
        let _ = decode_response(&payload);
    }

    /// Every encodable request survives the round trip bit-exactly.
    #[test]
    fn request_roundtrip(
        req_id in 0u64..=u64::MAX,
        fee in 0u64..=u64::MAX,
        txid in 0u64..1_000_000,
        inputs in collection::vec(0u64..1_000_000, 0..12),
        batch in 0usize..4,
    ) {
        let tx = WireTx {
            txid: TxId(txid),
            inputs: inputs.iter().copied().map(TxId).collect(),
        };
        let request = match batch {
            0 => Request::Submit { req_id, fee, tx },
            1 => Request::SubmitBatch { req_id, fee, txs: vec![tx.clone(), tx] },
            2 => Request::Query { req_id, txid: TxId(txid) },
            _ => Request::Metrics { req_id },
        };
        let mut payload = Vec::new();
        encode_request(&request, &mut payload);
        prop_assert_eq!(decode_both(&payload).expect("own encoding decodes"), request);
    }

    /// A batch with a byte flipped and a tail cut off — counts that
    /// now promise too much or too little, ids that changed — lands
    /// in both sinks identically or is refused by both.
    #[test]
    fn mutated_batches_decode_identically_into_both_sinks(
        txs in collection::vec((0u64..1_000, collection::vec(0u64..1_000, 0..5)), 0..6),
        pos_seed in 0usize..1_000,
        flip in 0u8..=255,
        cut in 0usize..12,
    ) {
        let txs = txs
            .into_iter()
            .map(|(txid, inputs)| WireTx {
                txid: TxId(txid),
                inputs: inputs.into_iter().map(TxId).collect(),
            })
            .collect();
        let mut payload = Vec::new();
        encode_request(&Request::SubmitBatch { req_id: 5, fee: 2, txs }, &mut payload);
        let pos = pos_seed % payload.len();
        payload[pos] ^= flip;
        payload.truncate(payload.len() - cut.min(payload.len()));
        let _ = decode_both(&payload);
    }

    /// Truncating a valid frame at any point yields a typed error.
    #[test]
    fn truncated_valid_request_errors_typed(
        txid in 0u64..1_000_000,
        inputs in collection::vec(0u64..1_000_000, 0..8),
        keep_fraction in 0.0f64..1.0,
    ) {
        let request = Request::Submit {
            req_id: 7,
            fee: 9,
            tx: WireTx {
                txid: TxId(txid),
                inputs: inputs.iter().copied().map(TxId).collect(),
            },
        };
        let mut payload = Vec::new();
        encode_request(&request, &mut payload);
        let keep = ((payload.len() as f64) * keep_fraction) as usize;
        if keep < payload.len() {
            prop_assert!(decode_both(&payload[..keep]).is_err());
        }
    }

    /// Flipping any single byte never panics, and flips outside the
    /// payload body always fail or decode to a *different* message —
    /// no mutation is silently ignored.
    #[test]
    fn single_byte_mutations_never_panic(
        txid in 0u64..1_000_000,
        pos_seed in 0usize..1_000,
        flip in 1u8..=255,
    ) {
        let request = Request::Query { req_id: 3, txid: TxId(txid) };
        let mut payload = Vec::new();
        encode_request(&request, &mut payload);
        let pos = pos_seed % payload.len();
        payload[pos] ^= flip;
        if let Ok(decoded) = decode_both(&payload) {
            prop_assert!(decoded != request);
        }
    }

    /// Appending trailing garbage to a valid message is an error: the
    /// frame length and the message body must agree exactly.
    #[test]
    fn trailing_garbage_is_an_error(
        req_id in 0u64..=u64::MAX,
        extra in collection::vec(0u8..=255, 1..16),
    ) {
        let mut payload = Vec::new();
        encode_request(&Request::Metrics { req_id }, &mut payload);
        payload.extend_from_slice(&extra);
        prop_assert!(decode_both(&payload).is_err());
    }

    /// Responses round trip too (the client depends on this).
    #[test]
    fn response_roundtrip(
        req_id in 0u64..=u64::MAX,
        shard in 0u32..4_096,
        shards in collection::vec(0u32..4_096, 0..16),
        pick in 0usize..5,
    ) {
        let response = match pick {
            0 => Response::Ack { req_id, shard },
            1 => Response::AckBatch { req_id, shards },
            2 => Response::Reject { req_id, reason: RejectReason::QueueFull },
            3 => Response::QueryResult { req_id, shard: Some(shard) },
            _ => Response::MetricsText { req_id, text: "optchain_up 1\n".into() },
        };
        let mut payload = Vec::new();
        encode_response(&response, &mut payload);
        prop_assert_eq!(decode_response(&payload).expect("own encoding decodes"), response);
    }

    /// The frame reader never reads (or allocates) an oversized
    /// payload, whatever length the prefix claims.
    #[test]
    fn hostile_length_prefixes_never_allocate(len in 0u32..=u32::MAX) {
        let mut wire = Vec::from(len.to_le_bytes());
        // Supply a little real data so undersized claims can succeed.
        wire.extend_from_slice(&[0u8; 64]);
        let mut buf = Vec::new();
        match read_frame(&mut &wire[..], 1_024, &mut buf) {
            Ok(FrameRead::Payload) => prop_assert!(len <= 64),
            Ok(FrameRead::TooLarge { len: l }) => {
                prop_assert_eq!(l, len);
                prop_assert!(len > 1_024);
                prop_assert!(buf.capacity() <= 1_024, "allocated for a hostile prefix");
            }
            Ok(FrameRead::Eof) => prop_assert!(false, "prefix was fully supplied"),
            Err(_) => prop_assert!(len > 64 && len <= 1_024),
        }
    }
}

// ---------------------------------------------------------------------------
// A live server under hostile bytes
// ---------------------------------------------------------------------------

fn start_server() -> PlacementServer {
    PlacementServer::builder()
        .fleet(RouterFleet::builder().shards(4).workers(1))
        .max_frame_bytes(4_096)
        .start()
        .expect("start server")
}

/// Connects a raw socket and reads past the `Hello` frame.
fn raw_conn(server: &PlacementServer) -> TcpStream {
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    let mut buf = Vec::new();
    match read_frame(&mut s, DEFAULT_MAX_FRAME_BYTES, &mut buf).expect("hello frame") {
        FrameRead::Payload => {
            assert!(matches!(
                decode_response(&buf).expect("hello decodes"),
                Response::Hello { .. }
            ));
        }
        other => panic!("expected hello, got {other:?}"),
    }
    s
}

fn read_response(s: &mut TcpStream) -> Response {
    let mut buf = Vec::new();
    match read_frame(s, DEFAULT_MAX_FRAME_BYTES, &mut buf).expect("response frame") {
        FrameRead::Payload => decode_response(&buf).expect("response decodes"),
        other => panic!("expected a response frame, got {other:?}"),
    }
}

fn read_eof(s: &mut TcpStream) {
    let mut byte = [0u8; 1];
    loop {
        match s.read(&mut byte) {
            Ok(0) => return,
            Ok(_) => continue, // drain whatever remains before EOF
            Err(err) => panic!("expected clean EOF, got {err}"),
        }
    }
}

/// Garbage after a valid frame: the valid request is served, the
/// garbage is shed with a typed `Malformed` rejection, the connection
/// closes, and the server keeps serving new connections.
#[test]
fn garbage_after_valid_frame_is_shed_typed() {
    let server = start_server();
    let mut s = raw_conn(&server);

    let mut payload = Vec::new();
    encode_request(
        &Request::Submit {
            req_id: 1,
            fee: 5,
            tx: WireTx {
                txid: TxId(77),
                inputs: vec![],
            },
        },
        &mut payload,
    );
    write_frame(&mut s, &payload).unwrap();
    // A frame whose payload is pure garbage (unknown opcode).
    write_frame(&mut s, &[0x5a, 0xde, 0xad, 0xbe, 0xef]).unwrap();
    s.flush().unwrap();

    // Both responses must arrive, but their order is not guaranteed:
    // the ack routes through the admission queue and dispatcher while
    // the reader writes the malformed reject directly.
    let (mut acked, mut rejected) = (false, false);
    for _ in 0..2 {
        match read_response(&mut s) {
            Response::Ack { req_id: 1, .. } => acked = true,
            Response::Reject { req_id: 0, reason } => {
                assert_eq!(reason, RejectReason::Malformed);
                rejected = true;
            }
            other => panic!("expected ack + typed malformed rejection, got {other:?}"),
        }
    }
    assert!(acked, "the valid frame was never acked");
    assert!(rejected, "the garbage frame was never shed");
    read_eof(&mut s);

    // The server survived: a fresh connection still places work.
    let mut s2 = raw_conn(&server);
    encode_request(
        &Request::Query {
            req_id: 9,
            txid: TxId(77),
        },
        &mut payload,
    );
    write_frame(&mut s2, &payload).unwrap();
    s2.flush().unwrap();
    match read_response(&mut s2) {
        Response::QueryResult {
            req_id: 9,
            shard: Some(_),
        } => {}
        other => panic!("the earlier valid submit was lost: {other:?}"),
    }
    assert_eq!(server.metrics().shed(RejectReason::Malformed), 1);
    server.shutdown();
}

/// An oversized frame is shed with `TooLarge` without the payload
/// ever being read, and the connection closes.
#[test]
fn oversized_frame_is_shed_typed() {
    let server = start_server();
    let mut s = raw_conn(&server);

    // Claim a 16 MiB payload on a connection capped at 4 KiB.
    s.write_all(&(16u32 << 20).to_le_bytes()).unwrap();
    s.flush().unwrap();
    match read_response(&mut s) {
        Response::Reject { req_id: 0, reason } => assert_eq!(reason, RejectReason::TooLarge),
        other => panic!("expected typed too-large rejection, got {other:?}"),
    }
    read_eof(&mut s);
    assert_eq!(server.metrics().shed(RejectReason::TooLarge), 1);
    server.shutdown();
}

/// A connection that dies mid-frame neither hangs nor kills the
/// server; the half-received request is simply dropped (it was never
/// admitted, so no ack was owed).
#[test]
fn truncated_frame_then_disconnect_is_harmless() {
    let server = start_server();
    {
        let mut s = raw_conn(&server);
        // Declare 100 bytes, send 3, vanish.
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
        s.flush().unwrap();
    } // dropped: RST/FIN mid-frame

    // The server keeps serving.
    let mut s2 = raw_conn(&server);
    let mut payload = Vec::new();
    encode_request(&Request::Metrics { req_id: 4 }, &mut payload);
    write_frame(&mut s2, &payload).unwrap();
    s2.flush().unwrap();
    match read_response(&mut s2) {
        Response::MetricsText { req_id: 4, .. } => {}
        other => panic!("expected metrics, got {other:?}"),
    }
    server.shutdown();
}

/// A zero-length frame (empty payload) is malformed, typed, and
/// non-fatal to the server.
#[test]
fn empty_frame_is_shed_typed() {
    let server = start_server();
    let mut s = raw_conn(&server);
    write_frame(&mut s, &[]).unwrap();
    s.flush().unwrap();
    match read_response(&mut s) {
        Response::Reject { req_id: 0, reason } => assert_eq!(reason, RejectReason::Malformed),
        other => panic!("expected typed malformed rejection, got {other:?}"),
    }
    read_eof(&mut s);
    server.shutdown();
}

/// `req_id` is client-chosen and 0 is legal on the wire. A rejected
/// request carrying `req_id` 0 must settle its credit like any other
/// answered request — a leaked credit wedges connection teardown (the
/// reader waits for the window to go idle) and hangs server shutdown.
/// The in-repo client starts req_ids at 1, so only a raw socket can
/// cover this.
#[test]
fn rejected_req_id_zero_request_settles_its_credit() {
    let server = start_server();
    let mut s = raw_conn(&server);
    let mut payload = Vec::new();
    // Two submissions, both with req_id 0: the first is admitted and
    // acked; the second arrives while the server drains and is shed as
    // `Shutdown` — a credited rejection that happens to carry req_id 0
    // on the wire.
    for txid in [7, 8] {
        encode_request(
            &Request::Submit {
                req_id: 0,
                fee: 1,
                tx: WireTx {
                    txid: TxId(txid),
                    inputs: vec![],
                },
            },
            &mut payload,
        );
        write_frame(&mut s, &payload).unwrap();
        s.flush().unwrap();
        match (txid, read_response(&mut s)) {
            (7, Response::Ack { req_id: 0, .. }) => server.begin_shutdown(),
            (8, Response::Reject { req_id: 0, reason }) => {
                assert_eq!(reason, RejectReason::Shutdown)
            }
            (_, other) => panic!("expected ack, then shutdown rejection; got {other:?}"),
        }
    }
    // EOF starts connection teardown: the reader waits for every
    // acquired credit to settle before deregistering. Shutdown must
    // then complete — bound it so a leaked credit fails fast instead
    // of hanging the test run.
    drop(s);
    let done = std::thread::spawn(move || server.shutdown());
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done.is_finished() {
        assert!(
            Instant::now() < deadline,
            "shutdown wedged: a rejected req_id-0 request leaked its credit"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    done.join().expect("shutdown thread");
}

/// Submits with hostile *interior* counts (a batch claiming millions
/// of entries in a short frame) are rejected without allocation.
#[test]
fn hostile_interior_count_is_shed_typed() {
    let server = start_server();
    let mut s = raw_conn(&server);
    // OP_SUBMIT_BATCH (0x02) + req_id + fee + count=u32::MAX, then EOF
    // of the frame: the count can't possibly fit the remaining bytes.
    let mut payload = vec![0x02];
    payload.extend_from_slice(&11u64.to_le_bytes());
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    write_frame(&mut s, &payload).unwrap();
    s.flush().unwrap();
    match read_response(&mut s) {
        Response::Reject { req_id: 0, reason } => assert_eq!(reason, RejectReason::Malformed),
        other => panic!("expected typed malformed rejection, got {other:?}"),
    }
    read_eof(&mut s);
    server.shutdown();
}
