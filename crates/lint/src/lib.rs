#![forbid(unsafe_code)]
//! `charles-lint`: workspace static analysis for the ChARLES invariants
//! that no exact test can pin.
//!
//! Exact tests cover what they can: the wire protocol is one op table
//! and one error-code enum in `charles_server::proto` (round-tripped by
//! `tests/proto_roundtrip.rs`), and thread-independence is checked bit
//! for bit by `crates/core/tests/determinism.rs` and
//! `tests/candidate_partition.rs`.
//! This crate checks what is cheap to *reintroduce* and expensive to
//! catch by sampling — one hash-ordered fold, one raw JSON float, one
//! unwrap on the request path. It has no dependencies (the build
//! environment is offline, so no `syn`): a hand-rolled tokenizer
//! (`token`) feeds a statement-level rule engine plus a workspace call
//! graph (`graph`) that the two interprocedural passes (`reach`,
//! `locks`) query.
//!
//! Statement-level rules (scope in parentheses):
//!
//! - `float-fold-order` (everywhere except `numerics/src/kernels.rs`):
//!   no `.sum()` / `.fold()` / `+=`-loop reductions in statements that
//!   touch floats — float reductions must route through the fixed-fold-
//!   order kernels.
//! - `ordered-iteration` (everywhere): no `HashMap`/`HashSet` iteration
//!   feeding order-sensitive sinks (serialization, ranking, float or
//!   collection accumulation). Use `BTreeMap`/`BTreeSet` or sort in the
//!   same statement.
//! - `wire-float-exactness` (`proto.rs`): every raw `Json::Num` is a
//!   finding; floats reach the wire only through `human_f64`, the one
//!   suppressed site (shortest-round-trip decimal, read back bit-exact).
//!
//! Interprocedural passes (workspace call graph; findings carry a
//! `call_chain`):
//!
//! - `no-panic-in-request-path`: every `unwrap`/`expect`/`panic!`-family
//!   /slice-indexing site in a function *transitively reachable* from
//!   the serving surface (any non-test `fn` in `crates/server/src`),
//!   with the seed → … → site chain in the finding. Indexing is scoped
//!   to the orchestration layer (see `reach`).
//! - `lock-order`: cycles and documented-order (`latch → registry`)
//!   reversals in the workspace lock graph, including holds that span
//!   calls and crates (see `locks`).
//!
//! Suppressions: `// lint:allow(rule)` or `// lint:allow(rule: reason)`
//! on the finding's line, or on a standalone comment line directly above
//! it — above an `fn` header, the allow covers the whole function body
//! (for interprocedural findings whose root cause is the function, not
//! one line). Unused suppressions are themselves reported (rule
//! `unused-suppression`, not suppressible), so allows can't rot;
//! `--fix-suppressions` removes them mechanically.
//!
//! `#[cfg(test)]` / `#[test]` items are skipped by every rule. Files
//! under `tests/` and `examples/` are *relaxed*: discovered and scanned
//! for suppression hygiene, but no rules run and they stay out of the
//! call graph.

pub mod graph;
pub mod locks;
pub mod reach;
pub mod token;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use graph::{LintFile, Workspace};
use token::{num_is_float, FileTokens, Tok, TokKind};

/// The enforceable rule names, as accepted by `lint:allow(...)`.
pub const RULES: [&str; 5] = [
    "float-fold-order",
    "ordered-iteration",
    "wire-float-exactness",
    "no-panic-in-request-path",
    "lock-order",
];

/// Pseudo-rule under which stale/unknown suppressions are reported.
/// Deliberately not in [`RULES`]: it cannot itself be suppressed.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Contract attached to every [`UNUSED_SUPPRESSION`] finding.
const SUPPRESSION_CONTRACT: &str = "every suppression matches a live finding";

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULES`] or [`UNUSED_SUPPRESSION`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based source line of the triggering token.
    pub line: u32,
    /// Human-readable explanation with the expected fix.
    pub message: String,
    /// The standing invariant the finding violates (one short clause,
    /// stable across message rewording; schema v3 emits it verbatim).
    pub contract: &'static str,
    /// For interprocedural findings: the seed → … → site function chain
    /// (display names). Empty for statement-level findings.
    pub call_chain: Vec<String>,
}

/// Result of linting a tree: how much was scanned plus what was found.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files tokenized and checked.
    pub files_scanned: usize,
    /// Number of `lint:allow` suppressions that matched a finding.
    pub suppressions_used: usize,
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Is this path a relaxed (tests/examples) context — suppression hygiene
/// only, no rules, no call-graph membership?
fn is_relaxed(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "examples")
}

/// Lint a single file's source under its workspace-relative path (the
/// path decides which rules are in scope). This is the seam the test
/// suite uses to run fixtures "as if" they lived at rule-scoped paths.
/// Interprocedural passes run over the one-file "workspace".
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_sources(vec![(rel_path.to_string(), source.to_string())]).findings
}

/// Lint a set of `(workspace-relative path, source)` pairs as one
/// workspace: statement rules per file, then the call graph and the
/// interprocedural passes across all of them, then suppressions.
pub fn lint_sources(inputs: Vec<(String, String)>) -> Report {
    let files: Vec<LintFile> = inputs
        .into_iter()
        .map(|(rel, src)| LintFile {
            relaxed: is_relaxed(&rel),
            ft: FileTokens::tokenize(&src),
            rel,
        })
        .collect();

    let mut per_file: Vec<Vec<Finding>> = files
        .iter()
        .map(|f| {
            if f.relaxed {
                Vec::new()
            } else {
                run_rules(&f.rel, &f.ft)
            }
        })
        .collect();

    let ws = Workspace::build(&files);
    let by_path: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel.as_str(), i))
        .collect();
    let inter = reach::panic_reachability(&ws, &files)
        .into_iter()
        .chain(locks::lock_order(&ws, &files));
    for f in inter {
        if let Some(&i) = by_path.get(f.path.as_str()) {
            per_file[i].push(f);
        }
    }

    let mut report = Report::default();
    for (i, file) in files.iter().enumerate() {
        let mut findings = std::mem::take(&mut per_file[i]);
        report.suppressions_used += apply_suppressions(&file.rel, &file.ft, &mut findings);
        report.findings.extend(findings);
        report.files_scanned += 1;
    }
    sort_dedupe(&mut report.findings);
    report
}

/// Lint the workspace under `root`: every `crates/*/src/**/*.rs` and
/// `src/**/*.rs` file with full rules, plus `crates/*/tests/**/*.rs`,
/// `crates/*/examples/*.rs`, `tests/**`, and `examples/**` in relaxed
/// mode (suppression hygiene only). `crates/lint/tests/**` is excluded
/// entirely — it is this linter's seeded-violation fixture corpus.
/// Vendored dependency stubs (`vendor/`) stay out of scope.
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
            let is_lint = dir.file_name().is_some_and(|n| n == "lint");
            let tests = dir.join("tests");
            if tests.is_dir() && !is_lint {
                collect_rs(&tests, &mut files)?;
            }
            let examples = dir.join("examples");
            if examples.is_dir() {
                collect_rs(&examples, &mut files)?;
            }
        }
    }
    for sub in ["src", "tests", "examples"] {
        let d = root.join(sub);
        if d.is_dir() {
            collect_rs(&d, &mut files)?;
        }
    }
    files.sort();

    let mut inputs = Vec::with_capacity(files.len());
    for path in &files {
        let source = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push((rel, source));
    }
    Ok(lint_sources(inputs))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render findings for humans: `path:line: [rule] message` per finding,
/// with the call chain (when present) on an indented continuation line.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.path, f.line, f.rule, f.message
        ));
        if f.call_chain.len() > 1 {
            out.push_str(&format!("    call chain: {}\n", f.call_chain.join(" -> ")));
        }
    }
    out.push_str(&format!(
        "charles-lint: {} finding(s) across {} file(s) scanned\n",
        report.findings.len(),
        report.files_scanned
    ));
    out
}

/// Render findings as machine-readable JSON (stable key order).
/// Schema version 3: v2 added `call_chain` (array of display names,
/// empty for statement-level findings) and `suppressions_used`; v3 adds
/// a per-finding `contract` naming the violated invariant.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"version\":3,\"files_scanned\":");
    out.push_str(&report.files_scanned.to_string());
    out.push_str(",\"suppressions_used\":");
    out.push_str(&report.suppressions_used.to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":\"");
        out.push_str(&json_escape(f.rule));
        out.push_str("\",\"path\":\"");
        out.push_str(&json_escape(&f.path));
        out.push_str("\",\"line\":");
        out.push_str(&f.line.to_string());
        out.push_str(",\"message\":\"");
        out.push_str(&json_escape(&f.message));
        out.push_str("\",\"contract\":\"");
        out.push_str(&json_escape(f.contract));
        out.push_str("\",\"call_chain\":[");
        for (j, c) in f.call_chain.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(c));
            out.push('"');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn sort_dedupe(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule)
            .cmp(&(b.path.as_str(), b.line, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    findings.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
}

// ---------------------------------------------------------------------------
// Stale-suppression fixer
// ---------------------------------------------------------------------------

/// One mechanical edit removing a stale suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixEdit {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line the stale `lint:allow` comment sits on.
    pub line: u32,
    /// `None`: delete the whole line (standalone comment).
    /// `Some(new)`: replace the line (same-line comment stripped).
    pub replacement: Option<String>,
}

/// Strip a trailing `// lint:allow(...)` comment from one source line.
/// Returns `None` when the line is nothing but the comment (delete it),
/// `Some(stripped)` when code precedes the comment.
pub fn strip_suppression(line: &str) -> Option<String> {
    let at = line.find("// lint:allow(")?;
    if line[..at].trim().is_empty() {
        return None;
    }
    Some(line[..at].trim_end().to_string())
}

/// Compute the edits that remove the stale suppressions a lint run
/// reported (`unused-suppression` findings whose comment is removable —
/// stale or unknown-rule; malformed ones need a human).
pub fn stale_suppression_edits(
    report: &Report,
    sources: &BTreeMap<String, String>,
) -> Vec<FixEdit> {
    let mut edits = Vec::new();
    for f in &report.findings {
        if f.rule != UNUSED_SUPPRESSION || f.message.contains("malformed") {
            continue;
        }
        let Some(src) = sources.get(&f.path) else {
            continue;
        };
        let Some(line_text) = src.lines().nth(f.line as usize - 1) else {
            continue;
        };
        if !line_text.contains("lint:allow(") {
            continue;
        }
        edits.push(FixEdit {
            path: f.path.clone(),
            line: f.line,
            replacement: strip_suppression(line_text),
        });
    }
    edits
}

/// Apply [`FixEdit`]s to a single file's source.
pub fn apply_fix_edits(source: &str, edits: &[&FixEdit]) -> String {
    let drop_lines: BTreeSet<u32> = edits
        .iter()
        .filter(|e| e.replacement.is_none())
        .map(|e| e.line)
        .collect();
    let replace: BTreeMap<u32, &str> = edits
        .iter()
        .filter_map(|e| e.replacement.as_deref().map(|r| (e.line, r)))
        .collect();
    let mut out = String::with_capacity(source.len());
    for (i, line) in source.lines().enumerate() {
        let ln = i as u32 + 1;
        if drop_lines.contains(&ln) {
            continue;
        }
        match replace.get(&ln) {
            Some(r) => out.push_str(r),
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Lint `root`, compute stale-suppression edits, and (when `apply`)
/// write them back. Returns the edits either way, so callers can render
/// a dry run.
pub fn fix_suppressions(root: &Path, apply: bool) -> io::Result<Vec<FixEdit>> {
    let report = lint_tree(root)?;
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    for f in &report.findings {
        if f.rule == UNUSED_SUPPRESSION && !sources.contains_key(&f.path) {
            let abs = root.join(&f.path);
            sources.insert(f.path.clone(), fs::read_to_string(&abs)?);
        }
    }
    let edits = stale_suppression_edits(&report, &sources);
    if apply {
        let mut by_file: BTreeMap<&str, Vec<&FixEdit>> = BTreeMap::new();
        for e in &edits {
            by_file.entry(e.path.as_str()).or_default().push(e);
        }
        for (path, file_edits) in by_file {
            let src = &sources[path];
            fs::write(root.join(path), apply_fix_edits(src, &file_edits))?;
        }
    }
    Ok(edits)
}

// ---------------------------------------------------------------------------
// Rule engine
// ---------------------------------------------------------------------------

fn is_p(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_i(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Split the token stream into statement-ish runs at `;`, `{`, `}`
/// (terminator included in the run). Coarse, but enough: a `for` header
/// becomes its own run ending in `{`, a `let` binding ends at `;`.
fn split_stmts(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut stmts = Vec::new();
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            stmts.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < toks.len() {
        stmts.push((start, toks.len()));
    }
    stmts
}

const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Order-sensitive sinks for a hash-iteration chain statement.
const CHAIN_SINKS: [&str; 9] = [
    "sum",
    "fold",
    "collect",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "push",
    "extend",
];

/// Order-sensitive sinks scanned for inside a `for`-loop body.
const BODY_SINKS: [&str; 10] = [
    "push",
    "push_str",
    "extend",
    "write_all",
    "write_str",
    "write_fmt",
    "collect",
    "sum",
    "fold",
    "Json",
];

/// Sorting in the same statement re-establishes a deterministic order.
const SORTS: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

fn run_rules(rel: &str, ft: &FileTokens) -> Vec<Finding> {
    let toks = &ft.toks;
    let stmts = split_stmts(toks);
    let mut out = Vec::new();

    let fname = rel.rsplit('/').next().unwrap_or(rel);
    let float_fold_in_scope = !rel.ends_with("numerics/src/kernels.rs");
    let wire_in_scope = fname == "proto.rs";

    let hash_idents = collect_hash_idents(toks);
    // Identifiers declared with a float type in the current function
    // (reset at each `fn`): `let mut acc = 0.0;` makes a later
    // `acc += x;` a float reduction even with no literal on that line.
    let mut float_decls: BTreeSet<String> = BTreeSet::new();

    for &(a, b) in &stmts {
        let s = &toks[a..b];
        if s.is_empty() {
            continue;
        }
        if s.iter().any(|t| t.in_test) {
            continue;
        }
        if s.iter().any(|t| is_i(t, "fn")) {
            float_decls.clear();
        }
        collect_float_decls(s, &mut float_decls);

        if float_fold_in_scope {
            float_fold_rule(rel, s, &float_decls, &mut out);
        }
        ordered_iteration_rule(rel, toks, (a, b), &hash_idents, &mut out);
        if wire_in_scope {
            wire_float_rule(rel, s, &mut out);
        }
    }
    out
}

/// Track identifiers bound or typed as floats: `let [mut] x = <float
/// expr>;`, `x: f64` in signatures/annotations, `|x: f64|` in closures.
fn collect_float_decls(s: &[Tok], decls: &mut BTreeSet<String>) {
    let float_typed = |toks: &[Tok]| toks.iter().any(|t| is_i(t, "f64") || is_i(t, "f32"));

    // `ident : ... f64 ...` up to the next `,` `)` `|` `=` `;` `{`.
    for i in 0..s.len() {
        if s[i].kind == TokKind::Ident && i + 1 < s.len() && is_p(&s[i + 1], ":") {
            let mut j = i + 2;
            while j < s.len()
                && !(s[j].kind == TokKind::Punct
                    && matches!(s[j].text.as_str(), "," | ")" | "|" | "=" | ";" | "{"))
            {
                j += 1;
            }
            if float_typed(&s[i + 2..j]) {
                decls.insert(s[i].text.clone());
            }
        }
    }

    // `let [mut] x = <rhs containing a float literal or f64 cast>;`
    if is_i(&s[0], "let") {
        let name_at = if s.len() > 1 && is_i(&s[1], "mut") {
            2
        } else {
            1
        };
        if let Some(name) = s.get(name_at) {
            if name.kind == TokKind::Ident {
                let rhs_float = s.iter().any(|t| {
                    (t.kind == TokKind::Num && num_is_float(&t.text))
                        || is_i(t, "f64")
                        || is_i(t, "f32")
                });
                if rhs_float {
                    decls.insert(name.text.clone());
                }
            }
        }
    }
}

/// Does this statement touch floats, as far as tokens can tell?
fn stmt_has_float_signal(s: &[Tok], decls: &BTreeSet<String>) -> bool {
    s.iter().any(|t| match t.kind {
        TokKind::Num => num_is_float(&t.text),
        TokKind::Ident => {
            matches!(t.text.as_str(), "f64" | "f32" | "powi" | "powf" | "sqrt")
                || decls.contains(&t.text)
        }
        _ => false,
    })
}

fn float_fold_rule(rel: &str, s: &[Tok], decls: &BTreeSet<String>, out: &mut Vec<Finding>) {
    let floaty = stmt_has_float_signal(s, decls);
    if !floaty {
        return;
    }
    for i in 0..s.len() {
        let trigger =
            if i > 0 && is_p(&s[i - 1], ".") && (is_i(&s[i], "sum") || is_i(&s[i], "fold")) {
                Some(format!(
                    "float reduction via `.{}()` has data-dependent fold order",
                    s[i].text
                ))
            } else if is_p(&s[i], "+=") {
                Some("raw `+=` float accumulation has loop-order-dependent rounding".to_string())
            } else {
                None
            };
        if let Some(what) = trigger {
            out.push(Finding {
                rule: "float-fold-order",
                path: rel.to_string(),
                line: s[i].line,
                message: format!(
                    "{what}; route float reductions through `charles_numerics::kernels` \
                     (fixed fold order) to keep threaded/SIMD execution bit-identical"
                ),
                contract: "float reductions use the kernels' fixed fold order",
                call_chain: Vec::new(),
            });
        }
    }
}

/// Identifiers declared (or typed, including struct fields) as
/// `HashMap`/`HashSet` anywhere in the file.
fn collect_hash_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for i in 0..toks.len() {
        if !(is_i(&toks[i], "HashMap") || is_i(&toks[i], "HashSet")) {
            continue;
        }
        // Walk back over a path (`std :: collections :: HashMap`) to the
        // token that introduced it.
        let mut j = i;
        while j > 0 && (is_p(&toks[j - 1], "::") || toks[j - 1].kind == TokKind::Ident) {
            j -= 1;
        }
        // A reference type still iterates in hash order: step over `&`,
        // `&&`, and lifetimes so `m: &HashMap<..>` binds `m` too.
        while j > 0
            && (is_p(&toks[j - 1], "&")
                || is_p(&toks[j - 1], "&&")
                || toks[j - 1].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && is_p(&toks[j - 1], ":") && toks[j - 2].kind == TokKind::Ident {
            // `name: HashMap<..>` — field, param, or annotated let.
            set.insert(toks[j - 2].text.clone());
        } else if j >= 2 && is_p(&toks[j - 1], "=") && toks[j - 2].kind == TokKind::Ident {
            // `let [mut] name = HashMap::new()`.
            set.insert(toks[j - 2].text.clone());
        }
    }
    set
}

fn ordered_iteration_rule(
    rel: &str,
    toks: &[Tok],
    (a, b): (usize, usize),
    hash_idents: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    if hash_idents.is_empty() {
        return;
    }
    let s = &toks[a..b];
    // A re-ordering step in the same statement makes the iteration safe.
    if s.iter().any(|t| {
        (t.kind == TokKind::Ident && SORTS.contains(&t.text.as_str()))
            || is_i(t, "BTreeMap")
            || is_i(t, "BTreeSet")
    }) {
        return;
    }

    // Find an iteration over a known hash container: `h.iter()` /
    // `h.values()` / … or a bare `for .. in [&]h`.
    let mut trigger: Option<(usize, String)> = None;
    for i in 0..s.len() {
        if s[i].kind == TokKind::Ident
            && hash_idents.contains(&s[i].text)
            && i + 2 < s.len()
            && is_p(&s[i + 1], ".")
            && s[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&s[i + 2].text.as_str())
        {
            trigger = Some((i + 2, s[i].text.clone()));
            break;
        }
    }
    let is_for = s.iter().any(|t| is_i(t, "for"));
    if trigger.is_none() && is_for {
        if let Some(in_at) = s.iter().position(|t| is_i(t, "in")) {
            for (i, t) in s.iter().enumerate().skip(in_at + 1) {
                if t.kind == TokKind::Ident && hash_idents.contains(&t.text) {
                    trigger = Some((i, t.text.clone()));
                    break;
                }
            }
        }
    }
    let Some((trig_at, name)) = trigger else {
        return;
    };

    // Only order-sensitive consumption is a finding.
    let sensitive = if is_for && s.last().is_some_and(|t| is_p(t, "{")) {
        // Scan the loop body (to the matching brace) for sinks.
        let mut depth = 1i32;
        let mut k = b;
        let mut hit = false;
        while k < toks.len() && depth > 0 {
            let t = &toks[k];
            if is_p(t, "{") {
                depth += 1;
            } else if is_p(t, "}") {
                depth -= 1;
            } else if is_p(t, "+=")
                || (t.kind == TokKind::Ident && BODY_SINKS.contains(&t.text.as_str()))
            {
                hit = true;
            }
            k += 1;
        }
        hit
    } else {
        s.iter().any(|t| {
            t.kind == TokKind::Ident && (CHAIN_SINKS.contains(&t.text.as_str()) || t.text == "Json")
        })
    };
    if !sensitive {
        return;
    }

    out.push(Finding {
        rule: "ordered-iteration",
        path: rel.to_string(),
        line: s[trig_at].line,
        message: format!(
            "iteration over hash-ordered `{name}` feeds an order-sensitive sink \
             (serialization, ranking, or accumulation); use BTreeMap/BTreeSet or \
             sort in the same statement"
        ),
        contract: "order-sensitive sinks consume deterministic iteration order",
        call_chain: Vec::new(),
    });
}

fn wire_float_rule(rel: &str, s: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..s.len().saturating_sub(2) {
        if is_i(&s[i], "Json") && is_p(&s[i + 1], "::") && is_i(&s[i + 2], "Num") {
            out.push(Finding {
                rule: "wire-float-exactness",
                path: rel.to_string(),
                line: s[i + 2].line,
                message: "raw `Json::Num` on the wire; send floats through `human_f64` \
                          (shortest-round-trip decimal, read back bit-exact) so every \
                          float the protocol carries has one encoding"
                    .to_string(),
                contract: "floats reach the wire only through human_f64",
                call_chain: Vec::new(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Allow {
    rule: String,
    comment_line: u32,
    /// Inclusive line range covered: the comment's own line, or (for a
    /// standalone comment) the full span of the next statement — and,
    /// when that statement is an `fn` header, the whole function body,
    /// so one allow above a signature covers interprocedural findings
    /// anywhere inside it.
    lo: u32,
    hi: u32,
    used: bool,
}

/// Apply `lint:allow` suppressions to `findings` in place; returns how
/// many distinct allows matched at least one finding.
fn apply_suppressions(rel: &str, ft: &FileTokens, findings: &mut Vec<Finding>) -> usize {
    let mut allows: Vec<Allow> = Vec::new();
    for c in &ft.comments {
        // Doc comments are documentation, not directives: an allow
        // marker quoted in rustdoc must not suppress anything.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(start) = c.text.find("lint:allow(") else {
            continue;
        };
        let body = &c.text[start + "lint:allow(".len()..];
        let Some(end) = body.find(')') else {
            findings.push(Finding {
                rule: UNUSED_SUPPRESSION,
                path: rel.to_string(),
                line: c.line,
                message: "malformed `lint:allow(...)`: missing closing parenthesis".to_string(),
                contract: SUPPRESSION_CONTRACT,
                call_chain: Vec::new(),
            });
            continue;
        };
        let (lo, hi) = if c.standalone {
            // A standalone comment suppresses the statement that starts
            // at the next code line; above an `fn` header, the whole
            // function body.
            let next = ft
                .toks
                .iter()
                .position(|t| t.line >= c.line)
                .unwrap_or(ft.toks.len());
            let stmts = split_stmts(&ft.toks);
            stmts
                .iter()
                .find(|&&(a, b)| next >= a && next < b)
                .map_or((0, 0), |&(a, b)| {
                    let lines = ft.toks[a..b].iter().map(|t| t.line);
                    let lo = lines.clone().min().unwrap_or(0);
                    let mut hi = lines.max().unwrap_or(0);
                    let is_fn_header = ft.toks[a..b].iter().any(|t| is_i(t, "fn"))
                        && ft.toks[b - 1].kind == TokKind::Punct
                        && ft.toks[b - 1].text == "{";
                    if is_fn_header {
                        // Extend to the matching close brace.
                        let mut depth = 0i32;
                        for t in &ft.toks[b - 1..] {
                            if is_p(t, "{") {
                                depth += 1;
                            } else if is_p(t, "}") {
                                depth -= 1;
                                if depth == 0 {
                                    hi = t.line;
                                    break;
                                }
                            }
                        }
                    }
                    (lo, hi)
                })
        } else {
            (c.line, c.line)
        };
        // One rule, or several comma-separated rules, optionally
        // followed by `: free-form reason` — rules before the first
        // `:`, reason (commas and colons allowed) after it.
        let inner = &body[..end];
        let rules_part = inner.split(':').next().unwrap_or(inner);
        for item in rules_part.split(',') {
            let rule = item.trim().to_string();
            if rule.is_empty() {
                continue;
            }
            if !RULES.contains(&rule.as_str()) {
                findings.push(Finding {
                    rule: UNUSED_SUPPRESSION,
                    path: rel.to_string(),
                    line: c.line,
                    message: format!("unknown rule `{rule}` in lint:allow"),
                    contract: SUPPRESSION_CONTRACT,
                    call_chain: Vec::new(),
                });
                continue;
            }
            // Allows inside skipped test code are inert, not stale.
            let in_test_target = ft
                .toks
                .iter()
                .find(|t| t.line >= lo)
                .is_some_and(|t| t.in_test);
            allows.push(Allow {
                rule,
                comment_line: c.line,
                lo,
                hi,
                used: in_test_target,
            });
        }
    }

    findings.retain(|f| {
        if f.rule == UNUSED_SUPPRESSION {
            return true;
        }
        let mut suppressed = false;
        for a in &mut allows {
            if a.rule == f.rule && f.line >= a.lo && f.line <= a.hi {
                a.used = true;
                suppressed = true;
            }
        }
        !suppressed
    });

    let used = allows.iter().filter(|a| a.used).count();
    for a in &allows {
        if !a.used {
            findings.push(Finding {
                rule: UNUSED_SUPPRESSION,
                path: rel.to_string(),
                line: a.comment_line,
                message: format!(
                    "suppression `lint:allow({})` matches no finding on lines {}-{}; remove it",
                    a.rule, a.lo, a.hi
                ),
                contract: SUPPRESSION_CONTRACT,
                call_chain: Vec::new(),
            });
        }
    }
    used
}
