//! Workspace lock-order analysis.
//!
//! The statement-level `lock-discipline` rule sees nested acquisitions
//! only when both sit in the same statement of `manager.rs`/`server.rs`.
//! The deadlocks that actually bite span functions and crates: a
//! registry guard from `lock_registry()` is alive in `manager.rs` while
//! the code calls into a session helper that takes the latch — an
//! inversion of the documented `latch → registry` order that no single
//! statement shows. This pass builds the workspace lock graph:
//!
//! - every direct acquisition (`recv.lock()` / `.read()` / `.write()`,
//!   argless) with its syntactic identity ([`crate::graph::LockSite::lock`]);
//! - per-function **transitive lock summaries** (which locks can a call
//!   into this function acquire, with a witness chain to the deep
//!   site), computed as a fixpoint over the call graph;
//! - **edges** `A → B` whenever `B` is acquired — directly or through a
//!   call — while a guard for `A` is held. Guard lifetimes are tracked
//!   syntactically: `let g = x.lock()…;` (with only poison-recovery
//!   adapters in the tail) binds a guard until scope exit or `drop(g)`;
//!   a lock consumed mid-expression is a temporary released at the end
//!   of its statement. Calls to guard-returning helpers
//!   (`-> MutexGuard<…>`) transfer the held lock to the caller.
//!
//! Findings (`lock-order`) are cycles in the edge graph (including
//! self-edges — re-acquiring a `Mutex` you already hold deadlocks) and
//! reversals of the documented order (`latch` before `registry`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::graph::{LintFile, Workspace};
use crate::token::{Tok, TokKind};
use crate::Finding;

/// Documented acquisition order: lower rank must be taken first.
/// `latch`/`open_latch` (dataset open latches) before the manager
/// registry (`inner` field, `registry` bindings).
fn rank(lock: &str) -> Option<u32> {
    match lock {
        "latch" | "open_latch" => Some(0),
        "inner" | "registry" => Some(1),
        _ => None,
    }
}

/// Result/guard adapters that may trail an acquisition without consuming
/// the guard (`.lock().unwrap_or_else(PoisonError::into_inner)`).
const RECOVERY: [&str; 4] = ["unwrap", "expect", "unwrap_or_else", "unwrap_or_default"];

/// How a call into a function can end up holding a lock: the chain of
/// callees from the summarized function down to the acquiring one, plus
/// the deep acquisition site.
#[derive(Debug, Clone)]
struct Witness {
    via: Vec<usize>,
    file: usize,
    line: u32,
}

/// One `held → acquired` event, anchored where the holder can fix it.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    holder: usize,
    file: usize,
    line: u32,
    witness: Option<Witness>,
}

fn is_p(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_i(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if is_p(t, "(") {
            depth += 1;
        } else if is_p(t, ")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Does the expression tail after the call closing at `close` end the
/// statement without consuming the guard? Recovery adapters and `?` are
/// transparent; any other method call means the guard is a temporary.
fn tail_is_binding(toks: &[Tok], close: usize) -> bool {
    let mut k = close + 1;
    loop {
        if k >= toks.len() {
            return false;
        }
        let t = &toks[k];
        if is_p(t, ";") {
            return true;
        }
        if is_p(t, "?") {
            k += 1;
            continue;
        }
        if is_p(t, ".")
            && k + 2 < toks.len()
            && toks[k + 1].kind == TokKind::Ident
            && RECOVERY.contains(&toks[k + 1].text.as_str())
            && is_p(&toks[k + 2], "(")
        {
            k = matching_paren(toks, k + 2) + 1;
            continue;
        }
        return false;
    }
}

/// Per-function transitive lock summaries: lock identity → witness.
fn summaries(ws: &Workspace) -> Vec<BTreeMap<String, Witness>> {
    let mut sums: Vec<BTreeMap<String, Witness>> = vec![BTreeMap::new(); ws.fns.len()];
    for (f, sites) in ws.lock_sites.iter().enumerate() {
        for s in sites {
            sums[f].entry(s.lock.clone()).or_insert(Witness {
                via: Vec::new(),
                file: ws.fns[f].file,
                line: s.line,
            });
        }
    }
    // Fixpoint: absorb callee summaries. Bounded by lock-identity count.
    for _ in 0..24 {
        let mut changed = false;
        for f in 0..ws.fns.len() {
            let mut add: Vec<(String, Witness)> = Vec::new();
            for call in &ws.calls[f] {
                for &c in &call.callees {
                    if ws.fns[c].in_test {
                        continue;
                    }
                    for (lock, w) in &sums[c] {
                        if !sums[f].contains_key(lock) {
                            let mut via = vec![c];
                            via.extend(w.via.iter().copied().take(7));
                            add.push((
                                lock.clone(),
                                Witness {
                                    via,
                                    file: w.file,
                                    line: w.line,
                                },
                            ));
                        }
                    }
                }
            }
            for (lock, w) in add {
                if sums[f].insert(lock, w).is_none() {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    sums
}

/// A guard alive during the token walk.
struct HeldGuard {
    binding: Option<String>,
    locks: BTreeSet<String>,
    depth: i32,
    /// Temporary (mid-expression guard): released at the statement end.
    until_semi: bool,
}

/// Walk one function body tracking guard lifetimes; emit edges.
fn walk_fn(
    ws: &Workspace,
    files: &[LintFile],
    f: usize,
    sums: &[BTreeMap<String, Witness>],
    edges: &mut Vec<Edge>,
) {
    let item = &ws.fns[f];
    let (start, end) = item.body;
    if start >= end {
        return;
    }
    let toks = &files[item.file].ft.toks;
    let nested: Vec<(usize, usize)> = ws
        .fns
        .iter()
        .filter(|g| {
            g.file == item.file && g.body.0 > start && g.body.1 <= end && g.body.0 < g.body.1
        })
        .map(|g| g.body)
        .collect();
    let locks_by_tok: BTreeMap<usize, &crate::graph::LockSite> =
        ws.lock_sites[f].iter().map(|s| (s.tok, s)).collect();
    let calls_by_tok: BTreeMap<usize, &crate::graph::Call> =
        ws.calls[f].iter().map(|c| (c.tok, c)).collect();

    let mut held: Vec<HeldGuard> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_let: Option<String> = None;
    let mut i = start + 1;
    while i < end {
        if let Some(&(_, b)) = nested.iter().find(|&&(a, b)| i > a && i < b) {
            i = b;
            continue;
        }
        let t = &toks[i];
        if is_p(t, "{") {
            depth += 1;
            stmt_let = None;
        } else if is_p(t, "}") {
            depth -= 1;
            held.retain(|h| h.depth <= depth);
            stmt_let = None;
        } else if is_p(t, ";") {
            held.retain(|h| !(h.until_semi && h.depth >= depth));
            stmt_let = None;
        } else if is_i(t, "let") {
            let name_at = if i + 1 < end && is_i(&toks[i + 1], "mut") {
                i + 2
            } else {
                i + 1
            };
            if name_at < end && toks[name_at].kind == TokKind::Ident {
                stmt_let = Some(toks[name_at].text.clone());
            }
        } else if is_i(t, "drop")
            && i + 3 < end
            && is_p(&toks[i + 1], "(")
            && toks[i + 2].kind == TokKind::Ident
            && is_p(&toks[i + 3], ")")
        {
            let name = &toks[i + 2].text;
            held.retain(|h| h.binding.as_deref() != Some(name.as_str()));
            i += 4;
            continue;
        } else if let Some(site) = locks_by_tok.get(&i) {
            for h in &held {
                for from in &h.locks {
                    edges.push(Edge {
                        from: from.clone(),
                        to: site.lock.clone(),
                        holder: f,
                        file: item.file,
                        line: site.line,
                        witness: None,
                    });
                }
            }
            let close = matching_paren(toks, i + 1);
            let binding = stmt_let.clone().filter(|_| tail_is_binding(toks, close));
            held.push(HeldGuard {
                until_semi: binding.is_none(),
                binding,
                locks: [site.lock.clone()].into(),
                depth,
            });
        } else if let Some(call) = calls_by_tok.get(&i) {
            let mut acquired: BTreeMap<String, Witness> = BTreeMap::new();
            let mut transfers = false;
            for &c in &call.callees {
                if ws.fns[c].in_test {
                    continue;
                }
                transfers |= ws.fns[c].returns_guard;
                for (lock, w) in &sums[c] {
                    acquired.entry(lock.clone()).or_insert_with(|| {
                        let mut via = vec![c];
                        via.extend(w.via.iter().copied().take(7));
                        Witness {
                            via,
                            file: w.file,
                            line: w.line,
                        }
                    });
                }
            }
            for h in &held {
                for from in &h.locks {
                    for (to, w) in &acquired {
                        edges.push(Edge {
                            from: from.clone(),
                            to: to.clone(),
                            holder: f,
                            file: item.file,
                            line: call.line,
                            witness: Some(w.clone()),
                        });
                    }
                }
            }
            if transfers && !acquired.is_empty() {
                let close = matching_paren(toks, i + 1);
                let binding = stmt_let.clone().filter(|_| tail_is_binding(toks, close));
                held.push(HeldGuard {
                    until_semi: binding.is_none(),
                    binding,
                    locks: acquired.keys().cloned().collect(),
                    depth,
                });
            }
        }
        i += 1;
    }
}

/// Shortest path `from → … → to` over the edge adjacency, if any.
fn path_between(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> Option<Vec<String>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    parent.insert(from, from);
    queue.push_back(from);
    while let Some(n) = queue.pop_front() {
        if n == to && parent.len() > 1 {
            break;
        }
        for &m in adj.get(n).into_iter().flatten() {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(m) {
                e.insert(n);
                queue.push_back(m);
            }
        }
    }
    if !parent.contains_key(to) || (from == to && parent.len() == 1) {
        return None;
    }
    let mut rev = vec![to.to_string()];
    let mut cur = to;
    while cur != from || rev.len() == 1 {
        cur = parent.get(cur)?;
        rev.push(cur.to_string());
        if rev.len() > 64 {
            return None;
        }
    }
    rev.reverse();
    Some(rev)
}

/// Run the pass over the workspace.
pub fn lock_order(ws: &Workspace, files: &[LintFile]) -> Vec<Finding> {
    let sums = summaries(ws);
    let mut edges = Vec::new();
    for f in 0..ws.fns.len() {
        if ws.fns[f].in_test || files[ws.fns[f].file].relaxed {
            continue;
        }
        walk_fn(ws, files, f, &sums, &mut edges);
    }
    // First occurrence per (from, to) anchors the report.
    let mut first: BTreeMap<(String, String), &Edge> = BTreeMap::new();
    for e in &edges {
        first.entry((e.from.clone(), e.to.clone())).or_insert(e);
    }
    let adj: BTreeMap<&str, BTreeSet<&str>> = {
        let mut m: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (from, to) in first.keys() {
            m.entry(from.as_str()).or_default().insert(to.as_str());
        }
        m
    };

    let mut out = Vec::new();
    let finding = |e: &Edge, msg: String| {
        let mut chain = vec![ws.display(e.holder, files)];
        if let Some(w) = &e.witness {
            chain.extend(w.via.iter().map(|&c| ws.display(c, files)));
        }
        Finding {
            rule: "lock-order",
            path: files[e.file].rel.clone(),
            line: e.line,
            message: msg,
            contract: "the workspace lock graph is acyclic in the documented order",
            call_chain: chain,
        }
    };
    let deep_site = |e: &Edge| -> String {
        match &e.witness {
            Some(w) => format!(" (deep acquisition at {}:{})", files[w.file].rel, w.line),
            None => String::new(),
        }
    };

    // Documented-order reversals.
    for e in first.values() {
        if let (Some(rf), Some(rt)) = (rank(&e.from), rank(&e.to)) {
            if rf > rt {
                out.push(finding(
                    e,
                    format!(
                        "lock `{}` acquired while `{}` is held{} — reverses the \
                         documented `latch -> registry` order and can deadlock \
                         against the open path",
                        e.to,
                        e.from,
                        deep_site(e)
                    ),
                ));
            }
        }
    }

    // Cycles (self-edges included).
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((from, to), e) in &first {
        let cycle = if from == to {
            Some(vec![from.clone(), to.clone()])
        } else {
            path_between(&adj, to, from).map(|mut p| {
                p.insert(0, from.clone());
                p
            })
        };
        let Some(cycle) = cycle else { continue };
        let mut key: Vec<String> = cycle.clone();
        key.sort_unstable();
        key.dedup();
        if !reported.insert(key) {
            continue;
        }
        let msg = if from == to {
            format!(
                "lock `{from}` re-acquired while already held{} — self-deadlock \
                 on a non-reentrant `Mutex`",
                deep_site(e)
            )
        } else {
            format!(
                "lock-order cycle `{}` — two threads interleaving these \
                 acquisitions deadlock{}",
                cycle.join(" -> "),
                deep_site(e)
            )
        };
        out.push(finding(e, msg));
    }
    out
}
