//! Adversarial bytes against the two parsers that face the network,
//! [`read_request`] and [`parse`]: neither may panic, every reject is a
//! typed error that answers 400 or 413, and no input makes the request
//! reader buffer a head line beyond [`MAX_HEAD_BYTES`].

use std::io::Cursor;

use cdb_server::http::{read_request, ReadError, MAX_HEAD_BYTES};
use cdb_server::json::{parse, DEFAULT_MAX_DEPTH};
use cdb_server::AppError;
use proptest::prelude::*;

const MAX_BODY: usize = 64;

/// Arbitrary bytes spliced with request fragments, so generated inputs
/// reach the header, framing and body paths as well as the request line.
fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
    let fragment = prop_oneof![
        Just(b"GET /health HTTP/1.1\r\n".to_vec()),
        Just(b"POST /v1/sample HTTP/1.0\n".to_vec()),
        Just(b"content-length: 5\r\n".to_vec()),
        Just(b"Content-Length: 4096\r\n".to_vec()),
        Just(b"content-length: -1\r\n".to_vec()),
        Just(b"transfer-encoding: chunked\r\n".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b":".to_vec()),
        Just(vec![0xff, 0xfe, b'\n']),
        proptest::collection::vec(any::<u8>(), 0..24),
    ];
    proptest::collection::vec(fragment, 0..10).prop_map(|parts| parts.concat())
}

/// Arbitrary bytes spliced with JSON fragments (deep nesting, escapes,
/// huge exponents, truncated literals).
fn json_bytes() -> impl Strategy<Value = Vec<u8>> {
    let fragment = prop_oneof![
        Just(b"{".to_vec()),
        Just(b"}".to_vec()),
        Just(b"[[[[[[[[".to_vec()),
        Just(b"]".to_vec()),
        Just(b"\"k\":".to_vec()),
        Just(b"\"\\u12".to_vec()),
        Just(b"\"\\ud800\"".to_vec()),
        Just(b"-1.5e999".to_vec()),
        Just(b"tru".to_vec()),
        Just(b",".to_vec()),
        proptest::collection::vec(any::<u8>(), 0..16),
    ];
    proptest::collection::vec(fragment, 0..12).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_request_rejects_only_with_typed_400_or_413(bytes in request_bytes()) {
        match read_request(&mut Cursor::new(&bytes), MAX_BODY) {
            Ok(request) => prop_assert!(request.body.len() <= MAX_BODY),
            Err(ReadError::Closed) => prop_assert!(bytes.is_empty()),
            Err(error @ (ReadError::Malformed(_) | ReadError::TooLarge { .. })) => {
                let status = error.rejection().map(|r| r.status);
                prop_assert!(matches!(status, Some(400 | 413)), "{error:?} -> {status:?}");
            }
            Err(other) => prop_assert!(false, "untyped reject {other:?}"),
        }
    }

    #[test]
    fn json_parse_rejects_only_with_typed_400(bytes in json_bytes()) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(error) = parse(&text, DEFAULT_MAX_DEPTH) {
            prop_assert!(error.offset <= text.len(), "offset past the input: {error}");
            prop_assert_eq!(AppError::from(error).status, 400);
        }
    }
}

#[test]
fn megabyte_line_without_newline_is_rejected_as_line_too_long() {
    let line = vec![b'a'; 1 << 20];
    let mut reader = Cursor::new(&line);
    match read_request(&mut reader, MAX_BODY) {
        Err(ReadError::Malformed(message)) => assert_eq!(message, "line too long"),
        other => panic!("expected a line-too-long reject, got {other:?}"),
    }
    // The reader stopped one byte past the head limit instead of buffering
    // the whole line.
    assert_eq!(reader.position(), MAX_HEAD_BYTES as u64 + 1);
}

#[test]
fn deeply_nested_json_is_rejected_not_overflowed() {
    let text = "[".repeat(1 << 16);
    let error = parse(&text, DEFAULT_MAX_DEPTH).unwrap_err();
    assert_eq!(AppError::from(error).status, 400);
}
