//! Fuzz-style property tests for the wire protocol: arbitrary and mutated
//! payloads must never panic either decoder — they decode or return a
//! `ProtocolError` — every valid message survives encode → decode
//! bit-exactly (`f64` fields compared as bits, NaN payloads included),
//! and a garbage payload between two valid frames never desyncs the
//! frame after it.

use nnq_serve::protocol::{read_frame, write_frame, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME};
use nnq_serve::{Hit, Request, Response};
use proptest::prelude::*;

/// Every opcode the protocol defines, requests and responses alike, so
/// the noise also reaches the per-message body parsers.
const OPCODES: [u8; 10] = [0x01, 0x02, 0x03, 0x04, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86];

/// Any `f64` bit pattern, with NaNs (random sign and payload) drawn far
/// more often than uniform bits would.
fn f64_bits() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        any::<u64>().prop_map(|b| f64::from_bits(b | 0x7FF0_0000_0000_0001)),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u64>(), f64_bits(), f64_bits(), any::<u32>())
            .prop_map(|(id, x, y, k)| Request::Knn { id, x, y, k }),
        (any::<u64>(), f64_bits(), f64_bits(), f64_bits())
            .prop_map(|(id, x, y, radius)| Request::Radius { id, x, y, radius }),
        any::<u64>().prop_map(|id| Request::Ping { id }),
        Just(Request::Shutdown),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), f64_bits()), 0..20),
        )
            .prop_map(|(id, logical_reads, hits)| Response::Ok {
                id,
                logical_reads,
                hits: hits
                    .into_iter()
                    .map(|(record, dist_sq)| Hit { record, dist_sq })
                    .collect(),
            }),
        (any::<u64>(), any::<u32>(), any::<bool>()).prop_map(
            |(id, retry_after_us, shutting_down)| Response::Rejected {
                id,
                retry_after_us,
                shutting_down,
            }
        ),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)).prop_map(|(id, bytes)| {
            Response::Error {
                id,
                message: String::from_utf8_lossy(&bytes).into_owned(),
            }
        }),
        any::<u64>().prop_map(|id| Response::Pong { id }),
        Just(Response::Bye),
    ]
}

/// Field-wise equality with every `f64` compared by its bits.
fn same_request(a: &Request, b: &Request) -> bool {
    match (a, b) {
        (
            Request::Knn { id, x, y, k },
            Request::Knn {
                id: id2,
                x: x2,
                y: y2,
                k: k2,
            },
        ) => id == id2 && x.to_bits() == x2.to_bits() && y.to_bits() == y2.to_bits() && k == k2,
        (
            Request::Radius { id, x, y, radius },
            Request::Radius {
                id: id2,
                x: x2,
                y: y2,
                radius: r2,
            },
        ) => {
            id == id2
                && x.to_bits() == x2.to_bits()
                && y.to_bits() == y2.to_bits()
                && radius.to_bits() == r2.to_bits()
        }
        (Request::Ping { id }, Request::Ping { id: id2 }) => id == id2,
        (Request::Shutdown, Request::Shutdown) => true,
        _ => false,
    }
}

/// Field-wise equality with every `f64` compared by its bits.
fn same_response(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (
            Response::Ok {
                id,
                logical_reads,
                hits,
            },
            Response::Ok {
                id: id2,
                logical_reads: reads2,
                hits: hits2,
            },
        ) => {
            id == id2
                && logical_reads == reads2
                && hits.len() == hits2.len()
                && hits.iter().zip(hits2).all(|(h, h2)| {
                    h.record == h2.record && h.dist_sq.to_bits() == h2.dist_sq.to_bits()
                })
        }
        // No floats in the remaining variants: plain equality is exact.
        _ => a == b,
    }
}

/// Overwrites, deletes and inserts bytes of `payload` at `edits`.
fn mutate(mut payload: Vec<u8>, edits: &[(usize, u8, u8)]) -> Vec<u8> {
    for &(at, byte, kind) in edits {
        let at = at % (payload.len() + 1);
        match kind {
            0 if at < payload.len() => payload[at] = byte,
            1 if at < payload.len() => {
                payload.remove(at);
            }
            2 => payload.truncate(at),
            _ => payload.insert(at, byte),
        }
    }
    payload
}

/// Writes `payloads` as length-prefixed frames into one byte stream.
fn stream(payloads: &[&[u8]]) -> Vec<u8> {
    let mut wire = Vec::new();
    for payload in payloads {
        write_frame(&mut wire, payload).unwrap();
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn decode_arbitrary_payloads_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        op in 0usize..OPCODES.len() + 1,
    ) {
        let mut payload = bytes;
        if op < OPCODES.len() {
            // Get past the opcode dispatch so a body parser sees the noise.
            payload.insert(0, OPCODES[op]);
        }
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }

    #[test]
    fn decode_mutated_messages_never_panics(
        req in request(),
        resp in response(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..4), 1..6),
    ) {
        let req = mutate(req.encode(), &edits);
        let _ = Request::decode(&req);
        let _ = Response::decode(&req);
        let resp = mutate(resp.encode(), &edits);
        let _ = Request::decode(&resp);
        let _ = Response::decode(&resp);
    }

    #[test]
    fn requests_roundtrip_bit_exactly(req in request()) {
        let bytes = req.encode();
        let decoded = Request::decode(&bytes).unwrap();
        prop_assert!(same_request(&decoded, &req), "{:?} decoded as {:?}", req, decoded);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn responses_roundtrip_bit_exactly(resp in response()) {
        let bytes = resp.encode();
        let decoded = Response::decode(&bytes).unwrap();
        prop_assert!(same_response(&decoded, &resp), "{:?} decoded as {:?}", resp, decoded);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn garbage_request_frame_never_desyncs_the_next(
        first in request(),
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
        last in request(),
    ) {
        let wire = stream(&[&first.encode(), &garbage, &last.encode()]);
        let mut r = wire.as_slice();
        let got = Request::decode(&read_frame(&mut r, MAX_REQUEST_FRAME).unwrap()).unwrap();
        prop_assert!(same_request(&got, &first));
        let _ = Request::decode(&read_frame(&mut r, MAX_REQUEST_FRAME).unwrap());
        let got = Request::decode(&read_frame(&mut r, MAX_REQUEST_FRAME).unwrap()).unwrap();
        prop_assert!(same_request(&got, &last), "{:?} read back as {:?}", last, got);
        prop_assert!(r.is_empty());
    }

    #[test]
    fn garbage_response_frame_never_desyncs_the_next(
        first in response(),
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
        last in response(),
    ) {
        let wire = stream(&[&first.encode(), &garbage, &last.encode()]);
        let mut r = wire.as_slice();
        let got = Response::decode(&read_frame(&mut r, MAX_RESPONSE_FRAME).unwrap()).unwrap();
        prop_assert!(same_response(&got, &first));
        let _ = Response::decode(&read_frame(&mut r, MAX_RESPONSE_FRAME).unwrap());
        let got = Response::decode(&read_frame(&mut r, MAX_RESPONSE_FRAME).unwrap()).unwrap();
        prop_assert!(same_response(&got, &last), "{:?} read back as {:?}", last, got);
        prop_assert!(r.is_empty());
    }
}
