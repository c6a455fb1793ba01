//! Fuzz properties for every ingress parser the server runs on untrusted
//! bytes: HTTP framing ([`read_request`]), JSON ([`Json::parse`]) and
//! wire-op decode ([`Request::from_json`]). The property is the same for
//! each: any input yields a value or a typed error, never a panic. CSV
//! ingest has its own fuzz property in `charles-relation`.
//!
//! Declared `Content-Length`s stay small (or far above the cap, which is
//! rejected before any allocation), so no case allocates a large body.

use std::io::{BufReader, ErrorKind};

use charles_server::http::{read_request, ReadError};
use charles_server::{Json, Request};
use proptest::prelude::*;

/// Pick one item of a fixed table.
fn pick<T: Clone + 'static>(items: &'static [T]) -> BoxedStrategy<T> {
    (0..items.len()).prop_map(move |i| items[i].clone()).boxed()
}

/// Overwrite, insert or delete bytes at arbitrary positions.
fn mutate_bytes(mut bytes: Vec<u8>, edits: &[(usize, u8, u8)]) -> Vec<u8> {
    for &(pos, action, byte) in edits {
        let at = pos % (bytes.len() + 1);
        match action % 3 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    bytes
}

const METHODS: [&str; 5] = ["GET", "POST", "POST", "PUT", ""];
const PATHS: [&str; 4] = ["/", "/v1/rpc", "/v1/datasets/d%41/query", "%%"];
const VERSIONS: [&str; 6] = [
    "HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.", "",
];
const HEADERS: [&str; 17] = [
    "Content-Length: 0",
    "Content-Length: 3",
    "Content-Length: 5",
    "content-length: 12",
    "Content-Length: 005",
    "Content-Length: +5",
    "Content-Length: -1",
    "Content-Length: 5 5",
    "Content-Length:",
    "Content-Length: 99999999999999999999999",
    "Content-Length: 18446744073709551615",
    "Transfer-Encoding: chunked",
    "Host: x",
    "Connection: close",
    "Connection: keep-alive",
    "garbage without a colon",
    "X-Ünïcode: ✓",
];

/// Half the time no edit; otherwise up to three byte edits.
fn byte_edits() -> BoxedStrategy<Vec<(usize, u8, u8)>> {
    prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec((any::<usize>(), 0u8..3, 0u8..=255), 1..4),
    ]
    .boxed()
}

/// Request heads assembled from valid and hostile parts, then mutated.
fn http_bytes() -> BoxedStrategy<Vec<u8>> {
    let structured = (
        (pick(&METHODS), pick(&PATHS), pick(&VERSIONS)),
        proptest::collection::vec(pick(&HEADERS), 0..5),
        (any::<bool>(), 0usize..3),
        proptest::collection::vec(0u8..=255, 0..24),
        byte_edits(),
    )
        .prop_map(
            |((method, path, version), headers, (crlf, long), body, edits)| {
                let eol = if crlf { "\r\n" } else { "\n" };
                let mut text = format!("{method} {path} {version}{eol}");
                for h in headers {
                    text.push_str(h);
                    text.push_str(eol);
                }
                // Past the 16 KiB head limit, in one line or spread over two.
                for _ in 0..long {
                    text.push_str(&format!("X-Pad: {}{eol}", "a".repeat(9 * 1024)));
                }
                text.push_str(eol);
                let mut bytes = text.into_bytes();
                bytes.extend(body);
                mutate_bytes(bytes, &edits)
            },
        );
    prop_oneof![
        3 => structured,
        1 => proptest::collection::vec(0u8..=255, 0..256),
    ]
    .boxed()
}

/// JSON-ish text: valid documents with and without byte edits, and
/// fragments that reach every parser branch spliced with arbitrary
/// characters.
fn json_text() -> BoxedStrategy<String> {
    const FRAGMENTS: [&str; 30] = [
        "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud800", "\\n", "0", "-", "1", "9", ".",
        "e", "E+", "1e400", "true", "false", "null", "nul", "\"k\"", " ", "\t", "\u{0}", "💡",
        "\"op\"", "\"v\":1",
    ];
    let spliced = proptest::collection::vec(
        prop_oneof![
            3 => pick(&FRAGMENTS).prop_map(str::to_string),
            1 => (0u32..0x11000).prop_map(|c| char::from_u32(c).unwrap_or('?').to_string()),
        ],
        0..40,
    )
    .prop_map(|parts| parts.concat());
    // Nesting far past the parser's depth cap, closed or left open.
    let nested = (0usize..600, any::<bool>(), any::<bool>()).prop_map(|(depth, obj, close)| {
        let (open, shut) = if obj { ("{\"a\":", "}") } else { ("[", "]") };
        let mut text = open.repeat(depth);
        text.push('1');
        if close {
            text.push_str(&shut.repeat(depth));
        }
        text
    });
    let edited = (json_value(3), byte_edits()).prop_map(|(value, edits)| {
        String::from_utf8_lossy(&mutate_bytes(value.encode().into_bytes(), &edits)).into_owned()
    });
    prop_oneof![2 => edited, 2 => spliced, 1 => nested].boxed()
}

const KEYS: [&str; 14] = [
    "v",
    "op",
    "dataset",
    "query",
    "queries",
    "alphas",
    "target",
    "alpha",
    "top_k",
    "condition_attrs",
    "source_csv",
    "key",
    "error",
    "",
];

/// Arbitrary JSON documents over the protocol's key vocabulary, nested up
/// to `depth` levels.
fn json_value(depth: u32) -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        prop_oneof![Just(1.0), Just(-1.0), Just(0.5), Just(1e300), -1e6f64..1e6,]
            .prop_map(Json::Num),
        prop_oneof![
            pick(&KEYS).prop_map(str::to_string),
            pick(Request::OPS).prop_map(str::to_string),
        ]
        .prop_map(Json::Str),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = json_value(depth - 1);
    let arr = proptest::collection::vec(json_value(depth - 1), 0..4).prop_map(Json::Arr);
    let obj = proptest::collection::vec((pick(&KEYS), inner), 0..6)
        .prop_map(|pairs| Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()));
    prop_oneof![2 => leaf, 1 => arr, 2 => obj].boxed()
}

/// One valid encoding per op, every optional field set.
const OP_DOCS: [&str; 6] = [
    r#"{"v":1,"op":"run_query","dataset":"d","query":{"target":"t","alpha":0.5,"condition_attrs":["c"],"transform_attrs":["t"],"top_k":3}}"#,
    r#"{"v":1,"op":"run_multi","dataset":"d","queries":[{"target":"t"},{"target":"u","top_k":1}]}"#,
    r#"{"v":1,"op":"sweep_alpha","dataset":"d","query":{"target":"t"},"alphas":[0,0.25,1]}"#,
    r#"{"v":1,"op":"list_targets","dataset":"d"}"#,
    r#"{"v":1,"op":"stats","dataset":"d"}"#,
    r#"{"v":1,"op":"load_csv","dataset":"d","source_csv":"a\nx\n","target_csv":"a\ny\n","key":"a"}"#,
];

/// Replace, delete or duplicate the `target`-th node (pre-order) of `doc`.
fn mutate_json(doc: &mut Json, target: &mut usize, action: u8, junk: &Json) {
    if *target == 0 {
        match (action % 3, &mut *doc) {
            (1, Json::Obj(pairs)) if !pairs.is_empty() => {
                pairs.remove(0);
            }
            (1, Json::Arr(items)) if !items.is_empty() => {
                items.remove(0);
            }
            (2, Json::Obj(pairs)) if !pairs.is_empty() => {
                let (key, _) = pairs[0].clone();
                pairs.push((key, junk.clone()));
            }
            _ => *doc = junk.clone(),
        }
        *target = usize::MAX;
        return;
    }
    *target -= 1;
    let children: Vec<&mut Json> = match doc {
        Json::Arr(items) => items.iter_mut().collect(),
        Json::Obj(pairs) => pairs.iter_mut().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for child in children {
        if *target == usize::MAX {
            return;
        }
        mutate_json(child, target, action, junk);
    }
}

/// Decode the way the server does (text → JSON → request); a decoded
/// request must re-encode to itself.
fn decode_as_served(doc: &Json) -> Result<(), TestCaseError> {
    let text = doc.encode();
    let Ok(parsed) = Json::parse(&text) else {
        return Err(TestCaseError::fail(format!(
            "encoder wrote invalid JSON: {text}"
        )));
    };
    match Request::from_json(&parsed) {
        Ok(request) => {
            let again = Request::from_json(&Json::parse(&request.to_json().encode()).unwrap());
            prop_assert_eq!(again, Ok(request), "{}", text);
        }
        Err(e) => prop_assert!(!e.message.is_empty(), "{}", text),
    }
    Ok(())
}

#[test]
fn op_docs_cover_every_op() {
    let ops: Vec<&str> = OP_DOCS
        .iter()
        .map(|text| {
            Request::from_json(&Json::parse(text).unwrap())
                .unwrap()
                .op()
        })
        .collect();
    assert_eq!(ops, Request::OPS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_request_never_panics(bytes in http_bytes()) {
        match read_request(&mut BufReader::new(bytes.as_slice())) {
            Ok(request) => {
                let declared = request
                    .header("content-length")
                    .map_or(0, |v| v.parse::<usize>().unwrap());
                prop_assert_eq!(request.body.len(), declared);
            }
            Err(ReadError::Malformed(status, message)) => {
                prop_assert!([400, 413, 431, 501, 505].contains(&status), "{}", status);
                prop_assert!(!message.is_empty());
            }
            Err(ReadError::Eof) => prop_assert!(bytes.is_empty()),
            Err(ReadError::Io(e)) => prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
        }
    }

    #[test]
    fn json_parse_never_panics(text in json_text()) {
        match Json::parse(&text) {
            Ok(value) => prop_assert!(Json::parse(&value.encode()).is_ok(), "{}", text),
            Err(e) => prop_assert!(e.pos <= text.len() && !e.message.is_empty(), "{:?}", e),
        }
    }

    #[test]
    fn request_decode_never_panics_on_arbitrary_json(doc in json_value(3)) {
        decode_as_served(&doc)?;
    }

    #[test]
    fn request_decode_never_panics_on_mutated_ops(
        which in 0usize..OP_DOCS.len(),
        edits in proptest::collection::vec((0usize..24, 0u8..3, json_value(1)), 1..4),
    ) {
        let mut doc = Json::parse(OP_DOCS[which]).unwrap();
        for (node, action, junk) in &edits {
            let mut target = *node;
            mutate_json(&mut doc, &mut target, *action, junk);
        }
        decode_as_served(&doc)?;
    }
}
