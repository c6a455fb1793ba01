//! Transitive panic-reachability from the serving surface.
//!
//! The statement-level ancestor of this pass scanned `crates/server/src`
//! for `unwrap`/`expect`/`panic!` — and stopped at the crate boundary,
//! while every route handler immediately calls into `charles_core`,
//! where a malformed dataset can still reach an unwrap and turn into a
//! 500 with no `ErrorEnvelope`. This pass seeds the call graph at the
//! server's request-handling functions (every non-test `fn` in
//! `crates/server/src` — `serve_connection`, `route`, `route_inner`,
//! `dispatch`, the client) and walks the workspace call
//! graph; every potential-panic site in a reachable function is a
//! finding, carrying the seed → … → site call chain so the report shows
//! *why* the site is on the request path.
//!
//! Site kinds: `.unwrap()`, `.expect(..)`, the `panic!`-family macros,
//! and slice/array indexing. Indexing is reported only in the
//! orchestration scope (the server crate plus `charles_core`'s
//! `session.rs` / `manager.rs` / `executor.rs`): hot numeric kernels
//! index on every line behind block-grid invariants the fixture-pinned
//! differential suite already exercises, and burying real findings in
//! thousands of loop-bound indexes would make the rule unenforceable.

use crate::graph::{LintFile, PanicKind, Workspace};
use crate::Finding;

/// Is this file a seed surface (the request path proper)?
fn is_seed_file(rel: &str) -> bool {
    rel.starts_with("crates/server/src")
}

/// Is slice indexing reported for this file?
fn index_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/server/src")
        || rel.ends_with("core/src/session.rs")
        || rel.ends_with("core/src/manager.rs")
        || rel.ends_with("core/src/executor.rs")
}

/// Run the pass: panic sites in functions reachable from the serving
/// surface, each finding carrying its call chain.
pub fn panic_reachability(ws: &Workspace, files: &[LintFile]) -> Vec<Finding> {
    let seeds: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.in_test && is_seed_file(&files[f.file].rel))
        .map(|(i, _)| i)
        .collect();
    if seeds.is_empty() {
        return Vec::new();
    }
    let parents = ws.reachable(&seeds);

    let mut out = Vec::new();
    for &fn_idx in parents.keys() {
        let item = &ws.fns[fn_idx];
        if item.in_test {
            continue;
        }
        let rel = &files[item.file].rel;
        let chain = ws.chain(&parents, fn_idx, files);
        for site in &ws.panic_sites[fn_idx] {
            if site.kind == PanicKind::SliceIndex && !index_in_scope(rel) {
                continue;
            }
            let what = match site.kind {
                PanicKind::Unwrap => "`unwrap()`".to_string(),
                PanicKind::Expect => "`expect(..)`".to_string(),
                PanicKind::Macro => format!("`{}!`", site.what),
                PanicKind::SliceIndex => "slice indexing".to_string(),
            };
            let via = if chain.len() > 1 {
                format!(" (request path: {})", chain.join(" -> "))
            } else {
                String::new()
            };
            out.push(Finding {
                rule: "no-panic-in-request-path",
                path: rel.clone(),
                line: site.line,
                message: format!(
                    "{what} is reachable from the serving surface{via}; a panic here \
                     takes down a serving thread mid-request — return a typed error \
                     (`CharlesError`/`QueryError` → `ErrorEnvelope`) or recover \
                     explicitly",
                ),
                contract: "no panics reachable from the serving surface",
                call_chain: chain.clone(),
            });
        }
    }
    out
}
