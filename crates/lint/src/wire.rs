//! Protocol-drift analysis over the wire surface.
//!
//! The protocol lives in three files — `proto.rs` (types + JSON codecs),
//! `server.rs` (routes + `/v1/rpc` dispatch) and `client.rs` — and
//! nothing but convention keeps them in step: an encoder can grow a key no decoder reads, an `op`
//! can gain an encode arm with no dispatch arm, an error-code string
//! can fork between server and client. Schema-evolution tooling calls
//! this IDL drift; this pass pins the repo's hand-rolled protocol the
//! same way, from the token stream:
//!
//! - **op coverage**: every `Request::Variant => "op"` arm in `fn op`
//!   must have a decode arm (`"op" =>`) in `Request::from_json` *and* a
//!   `Request::Variant` arm in `fn dispatch`; decode arms for ops no
//!   encoder emits are drift too.
//! - **key symmetry**: for each type with both `to_json` and
//!   `from_json` (or `encode`/`decode`), every object key written
//!   (`("key", ..)` / `("key".into(), ..)` pairs) must be read
//!   (`need_str(v, "key")` / `.get("key")`) and vice versa. Intentional
//!   asymmetries — a key kept for old readers, a default-on-absence —
//!   carry a `// wire:legacy-default(key: reason)` marker in the same
//!   file; stale markers are reported like stale `lint:allow`s.
//! - **registry checks**: error-code strings at `ErrorEnvelope::new(..)`
//!   and in `from_charles`'s status table must come from the single
//!   embedded registry below, and the `"v"` protocol-version key must
//!   be handled via the `PROTOCOL_VERSION` constant (itself pinned to
//!   the registry value) — no hard-coded version literals.
//!
//! Findings are `wire-drift` (suppressible with `lint:allow` like any
//! rule); the pass reads string-literal contents, which is why the
//! tokenizer preserves them.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{LintFile, Workspace};
use crate::token::{Tok, TokKind};
use crate::{Finding, SUPPRESSION_CONTRACT, UNUSED_SUPPRESSION};

/// The one protocol version in flight (`"v": 1` on every request).
const WIRE_VERSION: &str = "1";

/// Every error code the protocol may put in an `ErrorEnvelope`. Adding a
/// code is a protocol change: extend this table in the same PR so server
/// and client cannot fork silently.
const ERROR_CODES: [&str; 12] = [
    "unknown_dataset",
    "unknown_target",
    "bad_query",
    "bad_config",
    "no_candidates",
    "bad_data",
    "internal",
    "bad_request",
    "overloaded",
    "dataset_unavailable",
    "method_not_allowed",
    "not_found",
];

fn is_p(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_wire_file(rel: &str) -> bool {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    matches!(base, "proto.rs" | "server.rs" | "client.rs")
}

/// Keys and error codes are identifier-shaped; anything else (format
/// strings, messages) is not a wire token.
fn ident_like(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// First occurrence per key: key → line.
type KeyLines = BTreeMap<String, u32>;

/// Collected encode/decode surface of one type.
#[derive(Default)]
struct Codec {
    /// File index of the encoder (for anchoring and allow lookup).
    enc_file: Option<usize>,
    dec_file: Option<usize>,
    writes: KeyLines,
    reads: KeyLines,
}

/// A `wire:legacy-default(key: reason)` marker.
struct LegacyDefault {
    file: usize,
    key: String,
    line: u32,
    used: bool,
}

/// Object keys *written* in an encoder body: a `Str` opening a pair —
/// preceded by `(` and followed by `,` (a `("key", value)` tuple) or by
/// `.` (`"key".into()` / `"key".to_string()`).
fn collect_write_keys(toks: &[Tok], body: (usize, usize), out: &mut KeyLines) {
    let (start, end) = body;
    for i in start + 1..end {
        let t = &toks[i];
        if t.kind != TokKind::Str || !ident_like(&t.text) {
            continue;
        }
        let prev_open = i > 0 && is_p(&toks[i - 1], "(");
        let next = toks.get(i + 1);
        let opens_pair = next.is_some_and(|n| is_p(n, ",") || is_p(n, "."));
        if prev_open && opens_pair {
            out.entry(t.text.clone()).or_insert(t.line);
        }
    }
}

/// Object keys *read* in a decoder body: a `Str` closing an argument
/// list — followed by `)` and preceded by `(` or `,` (`.get("key")`,
/// `need_str(value, "key")`).
fn collect_read_keys(toks: &[Tok], body: (usize, usize), out: &mut KeyLines) {
    let (start, end) = body;
    for i in start + 1..end {
        let t = &toks[i];
        if t.kind != TokKind::Str || !ident_like(&t.text) {
            continue;
        }
        let prev = i > 0 && (is_p(&toks[i - 1], "(") || is_p(&toks[i - 1], ","));
        let next_close = toks.get(i + 1).is_some_and(|n| is_p(n, ")"));
        if prev && next_close {
            out.entry(t.text.clone()).or_insert(t.line);
        }
    }
}

/// Match-arm strings in a decoder body: a `Str` followed by `=>` or `|`.
fn collect_arm_strings(toks: &[Tok], body: (usize, usize), out: &mut KeyLines) {
    let (start, end) = body;
    for i in start + 1..end {
        let t = &toks[i];
        if t.kind != TokKind::Str || !ident_like(&t.text) {
            continue;
        }
        if toks
            .get(i + 1)
            .is_some_and(|n| is_p(n, "=>") || is_p(n, "|"))
        {
            out.entry(t.text.clone()).or_insert(t.line);
        }
    }
}

/// `Request::Variant { .. } => "op"` pairs in `fn op`.
fn collect_op_map(toks: &[Tok], body: (usize, usize), out: &mut Vec<(String, String, u32)>) {
    let (start, end) = body;
    let mut i = start + 1;
    while i + 2 < end {
        let variant = (toks[i].kind == TokKind::Ident
            && (toks[i].text == "Request" || toks[i].text == "Self")
            && is_p(&toks[i + 1], "::")
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 2]
                .text
                .chars()
                .next()
                .is_some_and(char::is_uppercase))
        .then(|| toks[i + 2].text.clone());
        if let Some(v) = variant {
            // Scan forward to the arm's `=>`, then the op string.
            let mut j = i + 3;
            while j < end && !is_p(&toks[j], "=>") {
                j += 1;
            }
            if j + 1 < end && toks[j + 1].kind == TokKind::Str {
                out.push((v, toks[j + 1].text.clone(), toks[j + 1].line));
                i = j + 2;
                continue;
            }
        }
        i += 1;
    }
}

/// `Request::Variant` patterns in `fn dispatch`.
fn collect_dispatch_variants(toks: &[Tok], body: (usize, usize), out: &mut BTreeSet<String>) {
    let (start, end) = body;
    for i in start + 1..end.saturating_sub(2) {
        if toks[i].kind == TokKind::Ident
            && (toks[i].text == "Request" || toks[i].text == "Self")
            && is_p(&toks[i + 1], "::")
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 2]
                .text
                .chars()
                .next()
                .is_some_and(char::is_uppercase)
        {
            out.insert(toks[i + 2].text.clone());
        }
    }
}

/// Run the pass over the workspace.
pub fn wire_drift(ws: &Workspace, files: &[LintFile]) -> Vec<Finding> {
    let wire_files: BTreeSet<usize> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.relaxed && is_wire_file(&f.rel))
        .map(|(i, _)| i)
        .collect();
    if wire_files.is_empty() {
        return Vec::new();
    }

    // Legacy-default markers, per wire file.
    let mut legacy: Vec<LegacyDefault> = Vec::new();
    for &fi in &wire_files {
        for c in &files[fi].ft.comments {
            if c.text.starts_with("///") || c.text.starts_with("//!") {
                continue; // documentation may quote the marker
            }
            let Some(at) = c.text.find("wire:legacy-default(") else {
                continue;
            };
            let body = &c.text[at + "wire:legacy-default(".len()..];
            let Some(close) = body.find(')') else {
                continue;
            };
            let key = body[..close].split(':').next().unwrap_or("").trim();
            if !key.is_empty() {
                legacy.push(LegacyDefault {
                    file: fi,
                    key: key.to_string(),
                    line: c.line,
                    used: false,
                });
            }
        }
    }

    let mut codecs: BTreeMap<String, Codec> = BTreeMap::new();
    let mut op_map: Vec<(String, String, u32)> = Vec::new();
    let mut op_file: Option<usize> = None;
    let mut decode_ops: KeyLines = BTreeMap::new();
    let mut decode_file: Option<usize> = None;
    let mut dispatch_variants: BTreeSet<String> = BTreeSet::new();
    let mut dispatch_at: Option<(usize, u32)> = None;
    let mut out = Vec::new();

    for (idx, f) in ws.fns.iter().enumerate() {
        if f.in_test || !wire_files.contains(&f.file) {
            continue;
        }
        let toks = &files[f.file].ft.toks;
        let ty = f.self_type.clone().unwrap_or_default();
        match f.name.as_str() {
            "to_json" | "encode" if !ty.is_empty() => {
                let c = codecs.entry(ty.clone()).or_default();
                c.enc_file = Some(f.file);
                collect_write_keys(toks, f.body, &mut c.writes);
            }
            "from_json" | "decode" if !ty.is_empty() => {
                {
                    let c = codecs.entry(ty.clone()).or_default();
                    c.dec_file = Some(f.file);
                    collect_read_keys(toks, f.body, &mut c.reads);
                }
                if ty == "Request" {
                    collect_arm_strings(toks, f.body, &mut decode_ops);
                    decode_file = Some(f.file);
                }
            }
            "op" if ty == "Request" => {
                collect_op_map(toks, f.body, &mut op_map);
                op_file = Some(f.file);
            }
            "dispatch" => {
                collect_dispatch_variants(toks, f.body, &mut dispatch_variants);
                dispatch_at = Some((f.file, f.line));
            }
            _ => {}
        }

        // Error-code registry: `ErrorEnvelope::new("code", ..)` sites and
        // the `(status, "code")` tuples in `from_charles`.
        let (start, end) = f.body;
        let mut i = start + 1;
        while i + 3 < end {
            if toks[i].kind == TokKind::Ident
                && toks[i].text == "ErrorEnvelope"
                && is_p(&toks[i + 1], "::")
                && toks[i + 2].text == "new"
                && is_p(&toks[i + 3], "(")
                && toks.get(i + 4).is_some_and(|t| t.kind == TokKind::Str)
            {
                check_error_code(&toks[i + 4], &files[f.file].rel, &mut out);
                i += 5;
                continue;
            }
            if f.name == "from_charles"
                && is_p(&toks[i], "(")
                && toks[i + 1].kind == TokKind::Num
                && is_p(&toks[i + 2], ",")
                && toks[i + 3].kind == TokKind::Str
            {
                check_error_code(&toks[i + 3], &files[f.file].rel, &mut out);
                i += 4;
                continue;
            }
            i += 1;
        }

        // Version handling: any codec fn touching the `"v"` key must
        // reference PROTOCOL_VERSION rather than a literal.
        if matches!(
            f.name.as_str(),
            "to_json" | "from_json" | "encode" | "decode"
        ) {
            let v_key = toks[start + 1..end]
                .iter()
                .find(|t| t.kind == TokKind::Str && t.text == "v");
            if let Some(v) = v_key {
                let has_const = toks[start + 1..end]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == "PROTOCOL_VERSION");
                if !has_const {
                    out.push(Finding {
                        rule: "wire-drift",
                        path: files[f.file].rel.clone(),
                        line: v.line,
                        message: format!(
                            "`{}::{}` handles the protocol-version key \"v\" without \
                             referencing `PROTOCOL_VERSION` — hard-coded version \
                             literals fork the protocol; route the check through the \
                             one constant",
                            ty, f.name
                        ),
                        contract: "the protocol version has one definition",
                        call_chain: vec![ws.display(idx, files)],
                    });
                }
            }
        }
    }

    // PROTOCOL_VERSION constant pinned to the registry value.
    for &fi in &wire_files {
        let toks = &files[fi].ft.toks;
        for i in 0..toks.len().saturating_sub(2) {
            if toks[i].kind == TokKind::Ident
                && toks[i].text == "PROTOCOL_VERSION"
                && !toks[i].in_test
            {
                // `const PROTOCOL_VERSION: usize = 1;` — find the `=`,
                // then the literal.
                let mut j = i + 1;
                while j < toks.len() && !is_p(&toks[j], "=") && !is_p(&toks[j], ";") {
                    j += 1;
                }
                if j + 1 < toks.len() && is_p(&toks[j], "=") && toks[j + 1].kind == TokKind::Num {
                    let lit = &toks[j + 1];
                    if lit.text != WIRE_VERSION {
                        out.push(Finding {
                            rule: "wire-drift",
                            path: files[fi].rel.clone(),
                            line: lit.line,
                            message: format!(
                                "`PROTOCOL_VERSION` is `{}` but the embedded wire \
                                 registry pins version {WIRE_VERSION}; a version bump \
                                 is a protocol change — update the registry in \
                                 charles-lint's wire pass in the same PR",
                                lit.text
                            ),
                            contract: "the protocol version has one definition",
                            call_chain: Vec::new(),
                        });
                    }
                }
            }
        }
    }

    // Op coverage: encode → decode and encode → dispatch.
    if let Some(of) = op_file {
        let ops_encoded: BTreeSet<&str> = op_map.iter().map(|(_, op, _)| op.as_str()).collect();
        if decode_file.is_some() {
            for (variant, op, line) in &op_map {
                if !decode_ops.contains_key(op) {
                    out.push(Finding {
                        rule: "wire-drift",
                        path: files[of].rel.clone(),
                        line: *line,
                        message: format!(
                            "op \"{op}\" (`Request::{variant}`) is encoded but \
                             `Request::from_json` has no \"{op}\" decode arm — a \
                             client emitting it gets `unknown op` back; add the \
                             decode arm or retire the variant"
                        ),
                        contract: "every encoded op has a decode arm",
                        call_chain: Vec::new(),
                    });
                }
            }
            for (op, line) in &decode_ops {
                if !ops_encoded.contains(op.as_str()) {
                    out.push(Finding {
                        rule: "wire-drift",
                        path: files[decode_file.unwrap_or(of)].rel.clone(),
                        line: *line,
                        message: format!(
                            "decode arm for op \"{op}\" that no encoder emits — \
                             dead protocol surface drifts silently; wire it into \
                             `fn op` or delete the arm"
                        ),
                        contract: "every decode arm has an encoder",
                        call_chain: Vec::new(),
                    });
                }
            }
        }
        if let Some((df, dline)) = dispatch_at {
            for (variant, op, _) in &op_map {
                if !dispatch_variants.contains(variant) {
                    out.push(Finding {
                        rule: "wire-drift",
                        path: files[df].rel.clone(),
                        line: dline,
                        message: format!(
                            "op \"{op}\" (`Request::{variant}`) decodes but `dispatch` \
                             has no `Request::{variant}` arm — the `/v1/rpc` surface \
                             would reject a valid request; add the dispatch arm"
                        ),
                        contract: "every op has a dispatch arm",
                        call_chain: Vec::new(),
                    });
                }
            }
        }
    }

    // Key symmetry per codec with both sides present.
    for (ty, codec) in &codecs {
        let (Some(ef), Some(df)) = (codec.enc_file, codec.dec_file) else {
            continue;
        };
        for (key, line) in &codec.writes {
            if codec.reads.contains_key(key) {
                continue;
            }
            if allow_legacy(&mut legacy, &[ef, df], key) {
                continue;
            }
            out.push(Finding {
                rule: "wire-drift",
                path: files[ef].rel.clone(),
                line: *line,
                message: format!(
                    "`{ty}` encodes key \"{key}\" but its decoder never reads it — \
                     the field is dead on arrival; read it back, or mark the \
                     asymmetry `wire:legacy-default({key}: reason)`"
                ),
                contract: "every encoded key is decoded",
                call_chain: Vec::new(),
            });
        }
        for (key, line) in &codec.reads {
            if codec.writes.contains_key(key) {
                continue;
            }
            if allow_legacy(&mut legacy, &[ef, df], key) {
                continue;
            }
            out.push(Finding {
                rule: "wire-drift",
                path: files[df].rel.clone(),
                line: *line,
                message: format!(
                    "`{ty}` reads key \"{key}\" its encoder never writes — the \
                     decoder depends on a phantom field; write it, or mark the \
                     default-on-absence `wire:legacy-default({key}: reason)`"
                ),
                contract: "every decoded key is encoded",
                call_chain: Vec::new(),
            });
        }
    }

    // Stale legacy markers rot like stale lint:allows.
    for l in &legacy {
        if !l.used {
            out.push(Finding {
                rule: UNUSED_SUPPRESSION,
                path: files[l.file].rel.clone(),
                line: l.line,
                message: format!(
                    "marker `wire:legacy-default({})` matches no encode/decode \
                     asymmetry; remove it",
                    l.key
                ),
                contract: SUPPRESSION_CONTRACT,
                call_chain: Vec::new(),
            });
        }
    }
    out
}

/// Consume a legacy-default marker for `key` in any of `files_in_play`.
fn allow_legacy(legacy: &mut [LegacyDefault], files_in_play: &[usize], key: &str) -> bool {
    let mut hit = false;
    for l in legacy.iter_mut() {
        if l.key == key && files_in_play.contains(&l.file) {
            l.used = true;
            hit = true;
        }
    }
    hit
}

fn check_error_code(tok: &Tok, rel: &str, out: &mut Vec<Finding>) {
    if !ident_like(&tok.text) {
        return;
    }
    if !ERROR_CODES.contains(&tok.text.as_str()) {
        out.push(Finding {
            rule: "wire-drift",
            path: rel.to_string(),
            line: tok.line,
            message: format!(
                "error code \"{}\" is not in the embedded wire registry — codes \
                 fork silently between server and client; add it to `ERROR_CODES` \
                 in charles-lint's wire pass (a protocol change) or fix the typo",
                tok.text
            ),
            contract: "error codes come from one registry",
            call_chain: Vec::new(),
        });
    }
}
