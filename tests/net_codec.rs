//! Codec robustness battery: the wire decoder must survive **every**
//! truncation offset and **every** single-bit corruption of a valid
//! frame with a clean, typed protocol error — never a panic, never a
//! hang, never a silently different decode.
//!
//! The frames under attack are a maximal request (all five op kinds, a
//! deadline, a consistency bound) and a maximal response (both outcome
//! arms' worth of result shapes), plus a live server fed raw garbage.

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ddrs::cgm::Machine;
use ddrs::client::{Commit, InlineStore, Request, Response, ServiceError};
use ddrs::net::codec::{
    decode_request, decode_server_msg, encode_request, encode_response, read_frame, FrameError,
    ServerMsg, FRAME_HEADER,
};
use ddrs::net::{NetConfig, NetServer, RemoteConfig, RemoteStore};
use ddrs::rangetree::{BuildError, DynamicDistRangeTree, Point, Rect, Sum};

fn sample_request() -> Request<Sum, 2> {
    let mut req = Request::new();
    req.insert(vec![Point::weighted([3, 4], 7, 2), Point::weighted([-5, 6], 8, 1)]);
    req.delete(vec![1, 2, 9]);
    req.count(Rect::new([0, 0], [10, 10]));
    req.count(Rect::new([-4, -4], [4, 4]));
    req.aggregate(Rect::new([1, 1], [9, 9]));
    req.report(Rect::new([2, 2], [8, 8]));
    req.deadline(Some(Duration::from_millis(250)));
    req.consistency(ddrs::client::Consistency::AtLeast(41));
    req
}

fn sample_response_frame() -> Vec<u8> {
    let resp: Response<Sum> = Response {
        counts: vec![4, 0],
        aggregates: vec![Some(17), None],
        reports: vec![vec![1, 2, 3], vec![]],
        writes: vec![Ok(()), Err(ServiceError::Rejected(BuildError::DuplicateId(7)))],
    };
    encode_response::<Sum>(5, &Ok(Commit { value: resp, seq: 12 }))
}

/// Requests compare field-by-field through the public read accessors.
fn same_request(a: &Request<Sum, 2>, b: &Request<Sum, 2>) -> bool {
    a.count_queries() == b.count_queries()
        && a.aggregate_queries() == b.aggregate_queries()
        && a.report_queries() == b.report_queries()
        && a.queue_deadline() == b.queue_deadline()
        && a.read_consistency() == b.read_consistency()
        && a.write_ops().eq(b.write_ops())
}

#[test]
fn every_truncation_of_a_request_frame_fails_clean() {
    let frame = encode_request(99, &sample_request());
    // Frame level: a stream cut anywhere inside the frame is a protocol
    // error; a cut before the first byte is a clean EOF.
    for cut in 0..frame.len() {
        let mut cursor = Cursor::new(&frame[..cut]);
        match read_frame(&mut cursor) {
            Ok(None) => assert_eq!(cut, 0, "EOF mid-frame at {cut} must not read as clean"),
            Ok(Some(_)) => panic!("truncation at {cut} produced a full frame"),
            Err(FrameError::Protocol(_)) => assert!(cut > 0),
            Err(FrameError::Io(e)) => panic!("truncation at {cut} surfaced io: {e}"),
        }
    }
    // Payload level: every prefix of the payload is a decode error.
    let payload = &frame[FRAME_HEADER..];
    assert!(decode_request::<Sum, 2>(payload).is_ok(), "the intact payload must decode");
    for cut in 0..payload.len() {
        assert!(
            decode_request::<Sum, 2>(&payload[..cut]).is_err(),
            "payload truncated at {cut} decoded"
        );
    }
}

#[test]
fn every_truncation_of_a_response_frame_fails_clean() {
    let frame = sample_response_frame();
    for cut in 0..frame.len() {
        let mut cursor = Cursor::new(&frame[..cut]);
        match read_frame(&mut cursor) {
            Ok(None) => assert_eq!(cut, 0),
            Ok(Some(_)) => panic!("truncation at {cut} produced a full frame"),
            Err(FrameError::Protocol(_)) => assert!(cut > 0),
            Err(FrameError::Io(e)) => panic!("truncation at {cut} surfaced io: {e}"),
        }
    }
    let payload = &frame[FRAME_HEADER..];
    assert!(decode_server_msg::<Sum>(payload).is_ok());
    for cut in 0..payload.len() {
        assert!(
            decode_server_msg::<Sum>(&payload[..cut]).is_err(),
            "payload truncated at {cut} decoded"
        );
    }
}

#[test]
fn every_bitflip_of_a_request_frame_is_detected() {
    let frame = encode_request(99, &sample_request());
    let original = decode_request::<Sum, 2>(&frame[FRAME_HEADER..]).unwrap();
    for i in 0..frame.len() {
        for bit in 0..8u8 {
            let mut bad = frame.clone();
            bad[i] ^= 1 << bit;
            let mut cursor = Cursor::new(bad);
            match read_frame(&mut cursor) {
                // Framing caught it (checksum mismatch, bad length) —
                // the common case for any flip.
                Err(FrameError::Protocol(_)) => {}
                Err(FrameError::Io(e)) => panic!("flip {i}.{bit} surfaced io: {e}"),
                Ok(None) => panic!("flip {i}.{bit} read as clean EOF"),
                Ok(Some(payload)) => {
                    // If some flip slips the frame through, the decode
                    // must either reject it or reproduce the original
                    // exactly — never a silently different request.
                    match decode_request::<Sum, 2>(&payload) {
                        Err(_) => {}
                        Ok((id, req)) => {
                            assert_eq!(id, original.0, "flip {i}.{bit} silently changed the id");
                            assert!(
                                same_request(&req, &original.1),
                                "flip {i}.{bit} silently changed the request"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn every_bitflip_of_a_response_frame_is_detected() {
    let frame = sample_response_frame();
    for i in 0..frame.len() {
        for bit in 0..8u8 {
            let mut bad = frame.clone();
            bad[i] ^= 1 << bit;
            let mut cursor = Cursor::new(bad);
            match read_frame(&mut cursor) {
                Err(FrameError::Protocol(_)) => {}
                Err(FrameError::Io(e)) => panic!("flip {i}.{bit} surfaced io: {e}"),
                Ok(None) => panic!("flip {i}.{bit} read as clean EOF"),
                Ok(Some(payload)) => {
                    if let Ok(ServerMsg::Response { req_id, outcome }) =
                        decode_server_msg::<Sum>(&payload)
                    {
                        let want = decode_server_msg::<Sum>(&frame[FRAME_HEADER..]).unwrap();
                        let ServerMsg::Response { req_id: wid, outcome: wout } = want else {
                            unreachable!()
                        };
                        assert_eq!(req_id, wid, "flip {i}.{bit} silently changed the id");
                        assert_eq!(outcome, wout, "flip {i}.{bit} silently changed the outcome");
                    }
                }
            }
        }
    }
}

fn inline_store() -> InlineStore<Sum, 2> {
    let machine = Machine::new(1).unwrap();
    let mut tree = DynamicDistRangeTree::<2>::new(8);
    tree.insert_batch(&machine, &[Point::weighted([1, 1], 1, 10)]).unwrap();
    InlineStore::new(machine, tree, Sum)
}

#[test]
fn a_garbage_stream_is_refused_and_the_server_keeps_serving() {
    let server =
        NetServer::serve(Box::new(inline_store()), "127.0.0.1:0", NetConfig::default()).unwrap();

    // A raw connection speaking nonsense: read the Hello, then send a
    // frame whose checksum cannot match.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let hello = read_frame(&mut raw).unwrap().expect("hello frame");
    assert!(matches!(decode_server_msg::<Sum>(&hello), Ok(ServerMsg::Hello { dim: 2, .. })));
    let mut garbage = encode_request(7, &sample_request());
    let last = garbage.len() - 1;
    garbage[last] ^= 0xFF;
    raw.write_all(&garbage).unwrap();

    // The server answers with a typed protocol refusal and closes.
    let refusal = read_frame(&mut raw).unwrap().expect("refusal frame");
    assert!(matches!(
        decode_server_msg::<Sum>(&refusal),
        Ok(ServerMsg::Refused { reason: ddrs::net::RefusedReason::Protocol, .. })
    ));
    let mut rest = Vec::new();
    assert_eq!(raw.read_to_end(&mut rest).unwrap(), 0, "connection must be closed");
    assert!(server.stats().decode_errors >= 1);

    // The poisoned byte stream cost only its own connection: a fresh
    // client still gets correct answers.
    let store: RemoteStore<Sum, 2> =
        RemoteStore::connect(server.local_addr(), RemoteConfig { connections: 1 }).unwrap();
    let mut req = Request::new();
    let c = req.count(Rect::new([0, 0], [10, 10]));
    let commit = ddrs::client::RangeStore::submit(&store, req).unwrap().wait().unwrap();
    assert_eq!(commit.value.count(c), 1);
    drop(store);
    server.shutdown();
}
