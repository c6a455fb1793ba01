//! Workspace symbol table and call graph.
//!
//! The statement-level rules in [`crate`] see one statement at a time;
//! the contracts the passes guard, though, are *interprocedural*: a
//! server route handler is one `?` away from a `charles_core` unwrap,
//! and a registry guard is held across a call that takes another lock
//! two crates away. This module gives the analyzer the
//! workspace view those checks need:
//!
//! - an **item parse** of every production file — `fn` items with their
//!   enclosing `impl`/`trait` block, parameter names and types, return
//!   types, and body token spans; `struct` fields (so `self.field.m()`
//!   receivers resolve); trait → implementor maps;
//! - **call resolution** — method calls by receiver-type heuristics
//!   (`self`, typed params/lets, `self.field` through struct fields,
//!   trait objects fan out to every impl), associated calls by path
//!   (`Type::f`), free calls by name (same file, then same crate, then
//!   workspace); unresolvable receivers fall back to every workspace
//!   method of that name unless the name is a common std method (so
//!   `.len()` on an unknown receiver does not edge into every type that
//!   happens to define `len`);
//! - per-function **site inventories** the passes query: panic sites
//!   (`unwrap`/`expect`/`panic!`-family/slice indexing) and lock
//!   acquisition sites with a syntactic lock identity.
//!
//! This is a heuristic, dependency-free analysis over the token stream —
//! no type checker. It is deliberately tuned so over-approximation
//! (extra edges) is cheap (a reasoned `lint:allow`) and
//! under-approximation (a missed edge) is what the fixture suite pins
//! against.

use std::collections::{BTreeMap, BTreeSet};

use crate::token::{FileTokens, Tok, TokKind};

/// One source file handed to the analyzer.
pub struct LintFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Token stream.
    pub ft: FileTokens,
    /// Test/example context (`tests/**`, `examples/**`): only the
    /// suppression machinery runs; the file stays out of the call graph.
    pub relaxed: bool,
}

/// A function parameter as far as tokens can tell.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`_`-patterns and `self` are not recorded).
    pub name: String,
    /// Identifiers appearing in the type (`Arc<SessionManager>` →
    /// `["Arc", "SessionManager"]`); receiver typing picks the ones that
    /// name workspace types.
    pub ty_idents: Vec<String>,
}

/// One `fn` item anywhere in the workspace (free, inherent method, trait
/// method, or trait default).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type (or trait name for trait-block items).
    pub self_type: Option<String>,
    /// Index into the workspace file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body: `[open_brace, close_brace]` inclusive;
    /// empty (`start == end`) for body-less declarations.
    pub body: (usize, usize),
    /// Inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
    /// Declared parameters (excluding `self`).
    pub params: Vec<Param>,
    /// Whether the return type is a lock guard (`MutexGuard`,
    /// `RwLockReadGuard`, `RwLockWriteGuard`) — a call then *transfers*
    /// the held lock to the caller (`lock_registry()`-style helpers).
    pub returns_guard: bool,
}

/// A resolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Candidate callee indices into [`Workspace::fns`] (several when the
    /// receiver is a trait object or unresolved).
    pub callees: Vec<usize>,
    /// Token index (into the owning file's stream) of the callee name.
    pub tok: usize,
    /// 1-based line of the call.
    pub line: u32,
}

/// Why a site can panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// Slice/array/map indexing (`xs[i]`, `&xs[a..b]`).
    SliceIndex,
}

/// One potential-panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Which construct.
    pub kind: PanicKind,
    /// The trigger token's text (`unwrap`, `panic`, `[`…).
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// One direct lock acquisition (`recv.lock()` / `.read()` / `.write()`
/// with no arguments) inside a function body.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Syntactic lock identity: the receiver chain's last field/binding
    /// name (`self.inner.lock()` → `inner`, `latch.lock()` → `latch`).
    pub lock: String,
    /// Token index of the method name in the owning file's stream.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
}

/// The workspace model every interprocedural pass queries.
pub struct Workspace {
    /// All function items, in (file, token) order.
    pub fns: Vec<FnItem>,
    /// Per-function resolved call sites (indexed like [`Workspace::fns`]).
    pub calls: Vec<Vec<Call>>,
    /// Per-function panic-site inventory.
    pub panic_sites: Vec<Vec<PanicSite>>,
    /// Per-function direct lock acquisitions.
    pub lock_sites: Vec<Vec<LockSite>>,
    /// `struct` fields: type name → field name → type identifiers.
    pub struct_fields: BTreeMap<String, BTreeMap<String, Vec<String>>>,
    /// Types that appear as `impl` targets or `struct` declarations.
    pub known_types: BTreeSet<String>,
    /// trait name → implementing type names.
    pub trait_impls: BTreeMap<String, Vec<String>>,
    method_index: BTreeMap<(String, String), usize>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
}

/// Method names so common on std types that an *unresolved* receiver
/// must not edge into every workspace type defining them.
const COMMON_METHODS: [&str; 30] = [
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "contains",
    "contains_key",
    "clear",
    "lock",
    "read",
    "write",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "from",
    "into",
    "to_string",
    "as_str",
];

fn is_p(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_i(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Index of the `}` matching the `{` at `open` (or the last token when
/// unbalanced — the lint must not crash on in-progress code).
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if is_p(t, "{") {
            depth += 1;
        } else if is_p(t, "}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Collect the crate name a workspace-relative path belongs to
/// (`crates/core/src/session.rs` → `core`, `src/lib.rs` → the root).
fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        _ => "",
    }
}

/// File stem (`crates/core/src/session.rs` → `session`).
fn stem_of(rel: &str) -> &str {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    base.strip_suffix(".rs").unwrap_or(base)
}

impl Workspace {
    /// Build the symbol table and call graph over `files` (relaxed files
    /// are tokenized but contribute no symbols).
    pub fn build(files: &[LintFile]) -> Workspace {
        let mut ws = Workspace {
            fns: Vec::new(),
            calls: Vec::new(),
            panic_sites: Vec::new(),
            lock_sites: Vec::new(),
            struct_fields: BTreeMap::new(),
            known_types: BTreeSet::new(),
            trait_impls: BTreeMap::new(),
            method_index: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            if file.relaxed {
                continue;
            }
            ws.parse_items(fi, &file.ft.toks);
        }
        // Indices before resolution: resolution needs the full table.
        for (idx, f) in ws.fns.iter().enumerate() {
            if let Some(ty) = &f.self_type {
                ws.method_index
                    .entry((ty.clone(), f.name.clone()))
                    .or_insert(idx);
                ws.methods_by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push(idx);
            } else {
                ws.free_by_name.entry(f.name.clone()).or_default().push(idx);
            }
        }
        for i in 0..ws.fns.len() {
            let (calls, panics, locks) = ws.scan_body(i, files);
            ws.calls.push(calls);
            ws.panic_sites.push(panics);
            ws.lock_sites.push(locks);
        }
        ws
    }

    /// Display name for chains: `file.rs::Type::fn` / `file.rs::fn`.
    pub fn display(&self, idx: usize, files: &[LintFile]) -> String {
        let f = &self.fns[idx];
        let base = files[f.file].rel.rsplit('/').next().unwrap_or("");
        match &f.self_type {
            Some(ty) => format!("{base}::{ty}::{}", f.name),
            None => format!("{base}::{}", f.name),
        }
    }

    /// All functions reachable from `seeds` (seeds included), with the
    /// breadth-first parent of each for call-chain reconstruction.
    pub fn reachable(&self, seeds: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &s in seeds {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(s) {
                e.insert(None);
                queue.push_back(s);
            }
        }
        while let Some(f) = queue.pop_front() {
            for call in &self.calls[f] {
                for &callee in &call.callees {
                    if self.fns[callee].in_test {
                        continue;
                    }
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                        e.insert(Some(f));
                        queue.push_back(callee);
                    }
                }
            }
        }
        parent
    }

    /// The seed → … → `target` call chain implied by a BFS parent map,
    /// rendered with [`Workspace::display`].
    pub fn chain(
        &self,
        parents: &BTreeMap<usize, Option<usize>>,
        target: usize,
        files: &[LintFile],
    ) -> Vec<String> {
        let mut rev = vec![target];
        let mut cur = target;
        while let Some(Some(p)) = parents.get(&cur) {
            cur = *p;
            rev.push(cur);
            if rev.len() > 64 {
                break; // cycles cannot occur in a parent tree, but stay safe
            }
        }
        rev.reverse();
        rev.into_iter().map(|i| self.display(i, files)).collect()
    }

    // -- item parsing -------------------------------------------------

    fn parse_items(&mut self, file: usize, toks: &[Tok]) {
        // Enclosing impl/trait spans: (type, end).
        let mut contexts: Vec<(String, usize)> = Vec::new();
        let mut i = 0usize;
        while i < toks.len() {
            contexts.retain(|c| c.1 > i);
            let t = &toks[i];
            if is_i(t, "struct") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
                let name = toks[i + 1].text.clone();
                self.known_types.insert(name.clone());
                // Record named fields when a brace body follows.
                let mut j = i + 2;
                let mut angle = 0i32;
                while j < toks.len() {
                    if is_p(&toks[j], "<") {
                        angle += 1;
                    } else if is_p(&toks[j], ">") {
                        angle -= 1;
                    } else if angle <= 0
                        && (is_p(&toks[j], "{") || is_p(&toks[j], ";") || is_p(&toks[j], "("))
                    {
                        break;
                    }
                    j += 1;
                }
                if j < toks.len() && is_p(&toks[j], "{") {
                    let end = matching_brace(toks, j);
                    self.parse_struct_fields(&name, &toks[j + 1..end]);
                }
                i += 2;
                continue;
            }
            if is_i(t, "impl") {
                if let Some((ty, tr, body_open)) = parse_impl_header(toks, i) {
                    self.known_types.insert(ty.clone());
                    if let Some(tr) = &tr {
                        self.trait_impls
                            .entry(tr.clone())
                            .or_default()
                            .push(ty.clone());
                    }
                    let end = matching_brace(toks, body_open);
                    contexts.push((ty, end));
                    i = body_open + 1;
                    continue;
                }
            }
            if is_i(t, "trait") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
                let name = toks[i + 1].text.clone();
                let mut j = i + 2;
                while j < toks.len() && !is_p(&toks[j], "{") && !is_p(&toks[j], ";") {
                    j += 1;
                }
                if j < toks.len() && is_p(&toks[j], "{") {
                    let end = matching_brace(toks, j);
                    contexts.push((name, end));
                    i = j + 1;
                    continue;
                }
            }
            if is_i(t, "fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
                let (item, next) = parse_fn(toks, i, file, &contexts);
                self.fns.push(item);
                // Keep scanning *inside* the body too: nested fns become
                // their own items; the body scanner skips nested spans.
                i = next;
                continue;
            }
            i += 1;
        }
    }

    fn parse_struct_fields(&mut self, name: &str, body: &[Tok]) {
        let mut fields: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut depth = 0i32;
        let mut i = 0usize;
        while i < body.len() {
            let t = &body[i];
            if is_p(t, "{") || is_p(t, "(") || is_p(t, "[") || is_p(t, "<") {
                depth += 1;
            } else if is_p(t, "}") || is_p(t, ")") || is_p(t, "]") || is_p(t, ">") {
                depth -= 1;
            } else if depth == 0
                && t.kind == TokKind::Ident
                && i + 1 < body.len()
                && is_p(&body[i + 1], ":")
            {
                // `name: Type<...>,` — collect type idents to the
                // field-separating comma at depth 0.
                let mut j = i + 2;
                let mut d = 0i32;
                let mut ty = Vec::new();
                while j < body.len() {
                    let u = &body[j];
                    if is_p(u, "<") || is_p(u, "(") || is_p(u, "[") {
                        d += 1;
                    } else if is_p(u, ">") || is_p(u, ")") || is_p(u, "]") {
                        d -= 1;
                    } else if d <= 0 && is_p(u, ",") {
                        break;
                    } else if u.kind == TokKind::Ident {
                        ty.push(u.text.clone());
                    }
                    j += 1;
                }
                fields.insert(t.text.clone(), ty);
                i = j;
                continue;
            }
            i += 1;
        }
        self.struct_fields
            .entry(name.to_string())
            .or_default()
            .extend(fields);
    }

    // -- body scanning ------------------------------------------------

    /// Scan one function's body for calls, panic sites, and lock sites.
    /// Nested `fn` items inside the body are skipped (they are their own
    /// graph nodes).
    fn scan_body(
        &self,
        idx: usize,
        files: &[LintFile],
    ) -> (Vec<Call>, Vec<PanicSite>, Vec<LockSite>) {
        let item = &self.fns[idx];
        let toks = &files[item.file].ft.toks;
        let (start, end) = item.body;
        if start >= end {
            return (Vec::new(), Vec::new(), Vec::new());
        }
        // Nested fn bodies to skip.
        let nested: Vec<(usize, usize)> = self
            .fns
            .iter()
            .filter(|g| {
                g.file == item.file && g.body.0 > start && g.body.1 <= end && g.body.0 < g.body.1
            })
            .map(|g| g.body)
            .collect();
        let skip = |i: usize| nested.iter().any(|&(a, b)| i > a && i < b);

        // Local type environment for receiver resolution.
        let env = self.type_env(item, toks);

        let mut calls = Vec::new();
        let mut panics = Vec::new();
        let mut locks = Vec::new();
        let mut i = start + 1;
        while i < end {
            if skip(i) {
                i += 1;
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident && i < end && is_p(&toks[i + 1], "!") {
                if matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) {
                    panics.push(PanicSite {
                        kind: PanicKind::Macro,
                        what: t.text.clone(),
                        line: t.line,
                    });
                }
                i += 2;
                continue;
            }
            if t.kind == TokKind::Ident && i < end && is_p(&toks[i + 1], "(") {
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let is_method = prev.is_some_and(|p| is_p(p, "."));
                let is_path = prev.is_some_and(|p| is_p(p, "::"));
                let is_def = prev.is_some_and(|p| is_i(p, "fn"));
                if is_method && matches!(t.text.as_str(), "unwrap" | "expect") {
                    panics.push(PanicSite {
                        kind: if t.text == "unwrap" {
                            PanicKind::Unwrap
                        } else {
                            PanicKind::Expect
                        },
                        what: t.text.clone(),
                        line: t.line,
                    });
                } else if is_method
                    && matches!(t.text.as_str(), "lock" | "read" | "write")
                    && i + 2 <= end
                    && is_p(&toks[i + 2], ")")
                {
                    locks.push(LockSite {
                        lock: receiver_identity(toks, i - 1),
                        tok: i,
                        line: t.line,
                    });
                } else if !is_def {
                    let callees = if is_method {
                        self.resolve_method(item, toks, i, &env)
                    } else if is_path {
                        self.resolve_path_call(item, toks, i, files)
                    } else {
                        self.resolve_free_call(item, &t.text, files)
                    };
                    if !callees.is_empty() {
                        calls.push(Call {
                            callees,
                            tok: i,
                            line: t.line,
                        });
                    }
                }
                i += 1;
                continue;
            }
            // Indexing: `recv[...]` where recv is an expression tail.
            if is_p(t, "[")
                && i > start
                && (toks[i - 1].kind == TokKind::Ident
                    || is_p(&toks[i - 1], ")")
                    || is_p(&toks[i - 1], "]"))
            {
                panics.push(PanicSite {
                    kind: PanicKind::SliceIndex,
                    what: "[".to_string(),
                    line: t.line,
                });
            }
            i += 1;
        }
        (calls, panics, locks)
    }

    /// Known binding → candidate workspace types, from `self`, typed
    /// params, `let x: T`, and `let x = T::ctor(..)` bindings.
    fn type_env(&self, item: &FnItem, toks: &[Tok]) -> BTreeMap<String, Vec<String>> {
        let mut env: BTreeMap<String, Vec<String>> = BTreeMap::new();
        if let Some(ty) = &item.self_type {
            env.insert("self".to_string(), vec![ty.clone()]);
        }
        for p in &item.params {
            let tys: Vec<String> = p
                .ty_idents
                .iter()
                .filter(|t| self.known_types.contains(*t) || self.trait_impls.contains_key(*t))
                .cloned()
                .collect();
            if !tys.is_empty() {
                env.insert(p.name.clone(), tys);
            }
        }
        let (start, end) = item.body;
        let mut i = start;
        while i + 3 < end {
            if is_i(&toks[i], "let") {
                let name_at = if is_i(&toks[i + 1], "mut") {
                    i + 2
                } else {
                    i + 1
                };
                if toks[name_at].kind == TokKind::Ident {
                    let name = toks[name_at].text.clone();
                    // `let x: T = ...` annotation.
                    if name_at + 1 < end && is_p(&toks[name_at + 1], ":") {
                        let mut j = name_at + 2;
                        let mut tys = Vec::new();
                        while j < end && !is_p(&toks[j], "=") && !is_p(&toks[j], ";") {
                            if toks[j].kind == TokKind::Ident
                                && (self.known_types.contains(&toks[j].text)
                                    || self.trait_impls.contains_key(&toks[j].text))
                            {
                                tys.push(toks[j].text.clone());
                            }
                            j += 1;
                        }
                        if !tys.is_empty() {
                            env.insert(name.clone(), tys);
                        }
                    }
                    // `let x = Type::ctor(...)` constructor convention.
                    if name_at + 2 < end && is_p(&toks[name_at + 1], "=") {
                        let mut j = name_at + 2;
                        // Walk a leading path: `a::b::Type::ctor(`.
                        let mut last_type: Option<String> = None;
                        while j + 1 < end
                            && toks[j].kind == TokKind::Ident
                            && is_p(&toks[j + 1], "::")
                        {
                            if self.known_types.contains(&toks[j].text) {
                                last_type = Some(toks[j].text.clone());
                            }
                            j += 2;
                        }
                        if let Some(ty) = last_type {
                            env.insert(name, vec![ty]);
                        }
                    }
                }
            }
            i += 1;
        }
        env
    }

    fn resolve_method(
        &self,
        item: &FnItem,
        toks: &[Tok],
        name_at: usize,
        env: &BTreeMap<String, Vec<String>>,
    ) -> Vec<usize> {
        let name = toks[name_at].text.as_str();
        // Receiver token sits before the `.` at name_at - 1.
        let recv_types: Vec<String> = if name_at >= 2 {
            let r = name_at - 2;
            let rt = &toks[r];
            if rt.kind == TokKind::Ident {
                if is_i(rt, "self") {
                    env.get("self").cloned().unwrap_or_default()
                } else if r >= 2 && is_p(&toks[r - 1], ".") && is_i(&toks[r - 2], "self") {
                    // `self.field.m()` — through struct fields.
                    item.self_type
                        .as_ref()
                        .and_then(|ty| self.struct_fields.get(ty))
                        .and_then(|fields| fields.get(&rt.text))
                        .map(|tys| {
                            tys.iter()
                                .filter(|t| {
                                    self.known_types.contains(*t)
                                        || self.trait_impls.contains_key(*t)
                                })
                                .cloned()
                                .collect()
                        })
                        .unwrap_or_default()
                } else if r >= 1 && is_p(&toks[r - 1], ".") {
                    Vec::new() // deeper chain: unknown
                } else {
                    env.get(&rt.text).cloned().unwrap_or_default()
                }
            } else {
                Vec::new()
            }
        } else {
            Vec::new()
        };

        let mut out = Vec::new();
        for ty in &recv_types {
            self.method_on_type(ty, name, &mut out);
        }
        if out.is_empty() && recv_types.is_empty() {
            // Unknown receiver: every workspace method of that name,
            // unless the name is too common to mean anything.
            let candidates = self.methods_by_name.get(name).cloned().unwrap_or_default();
            let distinct_types: BTreeSet<&Option<String>> =
                candidates.iter().map(|&c| &self.fns[c].self_type).collect();
            if !(COMMON_METHODS.contains(&name) && distinct_types.len() > 1) {
                out = candidates;
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Methods `name` dispatchable on type-or-trait `ty`: the inherent or
    /// trait-impl method, trait defaults, and — when `ty` is a trait —
    /// every implementor's method.
    fn method_on_type(&self, ty: &str, name: &str, out: &mut Vec<usize>) {
        if let Some(&m) = self.method_index.get(&(ty.to_string(), name.to_string())) {
            out.push(m);
        }
        if let Some(impls) = self.trait_impls.get(ty) {
            // `ty` is a trait: dynamic/generic dispatch fans out.
            for imp in impls {
                if let Some(&m) = self.method_index.get(&(imp.clone(), name.to_string())) {
                    out.push(m);
                }
            }
        }
    }

    fn resolve_path_call(
        &self,
        item: &FnItem,
        toks: &[Tok],
        name_at: usize,
        files: &[LintFile],
    ) -> Vec<usize> {
        // Walk back the `A :: B :: name` path; qualifier = segment
        // directly before the final `::`.
        let mut segs: Vec<String> = Vec::new();
        let mut j = name_at - 1; // the `::`
        while j >= 1 && is_p(&toks[j], "::") && toks[j - 1].kind == TokKind::Ident {
            segs.push(toks[j - 1].text.clone());
            if j < 2 {
                break;
            }
            j -= 2;
        }
        let Some(qualifier) = segs.first() else {
            return Vec::new();
        };
        let name = toks[name_at].text.as_str();
        if qualifier == "Self" {
            if let Some(ty) = &item.self_type {
                let mut out = Vec::new();
                self.method_on_type(ty, name, &mut out);
                return out;
            }
            return Vec::new();
        }
        if self.known_types.contains(qualifier) || self.trait_impls.contains_key(qualifier) {
            let mut out = Vec::new();
            self.method_on_type(qualifier, name, &mut out);
            return out;
        }
        // Module-qualified free call: prefer fns in the file whose stem
        // matches the qualifier, then any free fn of that name.
        if let Some(cands) = self.free_by_name.get(name) {
            let in_module: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| stem_of(&files[self.fns[c].file].rel) == qualifier)
                .collect();
            if !in_module.is_empty() {
                return in_module;
            }
            return cands.clone();
        }
        Vec::new()
    }

    fn resolve_free_call(&self, item: &FnItem, name: &str, files: &[LintFile]) -> Vec<usize> {
        let Some(cands) = self.free_by_name.get(name) else {
            return Vec::new();
        };
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| self.fns[c].file == item.file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let here = crate_of(&files[item.file].rel).to_string();
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| crate_of(&files[self.fns[c].file].rel) == here)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        cands.clone()
    }
}

/// Parse an `impl` header starting at `at` (the `impl` token): returns
/// (type name, trait name, body-open token index).
fn parse_impl_header(toks: &[Tok], at: usize) -> Option<(String, Option<String>, usize)> {
    let mut angle = 0i32;
    let mut before_for: Vec<&Tok> = Vec::new();
    let mut after_for: Vec<&Tok> = Vec::new();
    let mut saw_for = false;
    let mut saw_where = false;
    let mut j = at + 1;
    while j < toks.len() {
        let t = &toks[j];
        if is_p(t, "{") && angle <= 0 {
            break;
        }
        if is_p(t, "<") {
            angle += 1;
        } else if is_p(t, ">") {
            angle -= 1;
        } else if angle <= 0 && is_i(t, "for") {
            saw_for = true;
        } else if angle <= 0 && is_i(t, "where") {
            saw_where = true;
        } else if angle <= 0 && t.kind == TokKind::Ident && !saw_where {
            if saw_for {
                after_for.push(t);
            } else {
                before_for.push(t);
            }
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    if saw_for {
        let ty = after_for.last()?.text.clone();
        let tr = before_for.last().map(|t| t.text.clone());
        Some((ty, tr, j))
    } else {
        let ty = before_for.last()?.text.clone();
        Some((ty, None, j))
    }
}

/// Parse one `fn` item starting at `at` (the `fn` token). Returns the
/// item and the token index to resume scanning at (just past the
/// signature — bodies are re-entered so nested fns are discovered).
fn parse_fn(toks: &[Tok], at: usize, file: usize, contexts: &[(String, usize)]) -> (FnItem, usize) {
    let name = toks[at + 1].text.clone();
    let line = toks[at].line;
    let in_test = toks[at].in_test;
    // Skip generics to the parameter list.
    let mut j = at + 2;
    let mut angle = 0i32;
    while j < toks.len() {
        if is_p(&toks[j], "<") {
            angle += 1;
        } else if is_p(&toks[j], ">") {
            angle -= 1;
        } else if is_p(&toks[j], "(") && angle <= 0 {
            break;
        }
        j += 1;
    }
    let params_open = j;
    let params_close = matching_delim(toks, params_open, "(", ")");
    let params = parse_params(&toks[params_open + 1..params_close.min(toks.len())]);
    // Return type and body.
    let mut returns_guard = false;
    let mut body = (0usize, 0usize);
    let mut k = params_close + 1;
    let mut after_arrow = false;
    while k < toks.len() {
        let t = &toks[k];
        if is_p(t, "->") {
            after_arrow = true;
        } else if is_p(t, "{") {
            let close = matching_brace(toks, k);
            body = (k, close);
            break;
        } else if is_p(t, ";") {
            break;
        } else if after_arrow
            && matches!(
                t.text.as_str(),
                "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard"
            )
        {
            returns_guard = true;
        } else if is_i(t, "where") {
            after_arrow = false;
        }
        k += 1;
    }
    let item = FnItem {
        name,
        self_type: contexts.last().map(|c| c.0.clone()),
        file,
        line,
        body,
        in_test,
        params,
        returns_guard,
    };
    (item, params_close.min(toks.len().saturating_sub(1)) + 1)
}

/// Index of the token matching an opening delimiter at `open`.
fn matching_delim(toks: &[Tok], open: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if is_p(t, op) {
            depth += 1;
        } else if is_p(t, cl) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Parse a parameter list body (between the signature parens); a
/// `self` receiver is not recorded.
fn parse_params(toks: &[Tok]) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut part: Vec<&Tok> = Vec::new();
    let flush = |part: &mut Vec<&Tok>, params: &mut Vec<Param>| {
        if part.iter().any(|t| is_i(t, "self")) {
            part.clear();
            return;
        }
        // `name : type` — name is the last ident before the top-level `:`.
        let colon = part.iter().position(|t| is_p(t, ":"));
        if let Some(c) = colon {
            let name = part[..c]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident && !is_i(t, "mut"))
                .map(|t| t.text.clone());
            if let Some(name) = name {
                let ty_idents = part[c + 1..]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .collect();
                params.push(Param { name, ty_idents });
            }
        }
        part.clear();
    };
    for t in toks {
        if is_p(t, "(") || is_p(t, "[") || is_p(t, "{") || is_p(t, "<") {
            depth += 1;
        } else if is_p(t, ")") || is_p(t, "]") || is_p(t, "}") || is_p(t, ">") {
            depth -= 1;
        } else if depth <= 0 && is_p(t, ",") {
            flush(&mut part, &mut params);
            continue;
        }
        part.push(t);
    }
    flush(&mut part, &mut params);
    params
}

/// The receiver chain's identity for a lock site: the last field or
/// binding name before the `.` at `dot` (`self.inner.lock()` → `inner`;
/// `slots[i].lock()` → `slots`).
fn receiver_identity(toks: &[Tok], dot: usize) -> String {
    let mut j = dot; // toks[dot] is the `.`
                     // Step back over an index group `[...]`.
    if j >= 1 && is_p(&toks[j - 1], "]") {
        let mut depth = 0i32;
        let mut k = j - 1;
        loop {
            if is_p(&toks[k], "]") {
                depth += 1;
            } else if is_p(&toks[k], "[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                break;
            }
            k -= 1;
        }
        j = k;
    }
    if j >= 1 && toks[j - 1].kind == TokKind::Ident {
        toks[j - 1].text.clone()
    } else {
        "<expr>".to_string()
    }
}
