//! Mutation-coherence analysis: mutators must reach their invalidation.
//!
//! The data plane memoizes aggressively — `PlaneCaches`' fit/label/
//! candidate maps, `Session`'s view/plane/setup maps — and every memo is
//! *derived* state: correct only while the inputs it was computed from
//! stand still. Today the plane is frozen once a session opens, so the
//! only mutation path is `Session::set_config`, which swaps in a fresh
//! `PlaneCaches`. The ingest tier on the ROADMAP changes that: row
//! appends, incremental snapshot maintenance, and eviction all become
//! long-lived mutators, and a mutator that forgets its invalidation
//! serves stale, bit-plausible answers — the worst failure class this
//! repo has, because nothing crashes.
//!
//! This pass makes the pairing a machine-checked contract:
//!
//! 1. **Cache surfaces.** A struct field is a cache surface when its
//!    type says "memo": `OnceLock<..>`, or a `Mutex`/`RwLock` wrapping a
//!    `HashMap`/`BTreeMap`. A struct owning a surface is *cache-bearing*.
//!    A field whose type names a cache-bearing struct (`caches:
//!    Arc<PlaneCaches>`, `session: Option<Arc<Session>>`) is a *cache
//!    holder*, and its owner is in scope too (one level — deeper
//!    aggregation is ownership, not derivation).
//! 2. **Mutators.** Any method of an in-scope struct that writes a
//!    non-cache field: assignment (`self.rows = ..`, `+=`), or a
//!    mutating container call (`self.rows.extend(..)`, `.push`,
//!    `.insert`, `.truncate`, …). Writes *to* a surface are fills, not
//!    mutations; assigning a surface or holder (or `.clear()`/`.take()`
//!    on one) is an **invalidation**.
//! 3. **Coverage fixpoint.** A mutator is covered when an invalidation
//!    of the same struct is transitively reachable from it (the
//!    `set_config` shape: mutate, then swap `PlaneCaches::default()`
//!    in), or when every non-test caller is covered (the
//!    caller-invalidates shape). Anything else is a finding carrying the
//!    root-caller → … → mutator → uninvalidated-cache chain, same shape
//!    as `reach`'s request-path chains.
//! 4. **Byte accounting.** Resident-set eviction only works while
//!    `approx_bytes`/`approx_bytes_dedup` stays honest, so any method of
//!    an in-scope struct that swaps an `Arc` buffer (`self.f =
//!    Arc::new(..)`) requires an `approx*bytes*` accounting method on
//!    that struct.
//!
//! Like every pass here this is heuristic and tuned for a reviewable
//! over-approximation: a genuine out-of-band invariant gets a reasoned
//! `lint:allow(cache-invalidation: ..)` at the mutator.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{LintFile, Workspace};
use crate::token::{Tok, TokKind};
use crate::Finding;

/// Container methods that rewrite state a memo may be derived from.
const MUTATING_METHODS: [&str; 12] = [
    "push",
    "push_str",
    "extend",
    "extend_from_slice",
    "insert",
    "remove",
    "clear",
    "truncate",
    "pop",
    "retain",
    "drain",
    "append",
];

fn is_p(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_assign_op(t: &Tok) -> bool {
    t.kind == TokKind::Punct && matches!(t.text.as_str(), "=" | "+=" | "-=" | "*=" | "/=")
}

/// Does this field type read as a memo surface? `OnceLock<..>` always;
/// a lock is one only when it guards a map (a `Mutex<Registry>` is
/// aggregation, `Mutex<HashMap<..>>` is a memo).
fn is_cache_surface(ty_idents: &[String]) -> bool {
    let has = |n: &str| ty_idents.iter().any(|t| t == n);
    has("OnceLock") || ((has("Mutex") || has("RwLock")) && (has("HashMap") || has("BTreeMap")))
}

/// The cache model of the workspace: which structs are in scope and
/// which of their fields are surfaces vs. holders.
struct CacheModel {
    /// struct → its cache-surface field names.
    surfaces: BTreeMap<String, BTreeSet<String>>,
    /// struct → fields whose type names a cache-bearing struct.
    holders: BTreeMap<String, BTreeSet<String>>,
}

impl CacheModel {
    fn build(ws: &Workspace) -> CacheModel {
        let mut surfaces: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (ty, fields) in &ws.struct_fields {
            for (name, ty_idents) in fields {
                if is_cache_surface(ty_idents) {
                    surfaces.entry(ty.clone()).or_default().insert(name.clone());
                }
            }
        }
        let bearing: BTreeSet<&String> = surfaces.keys().collect();
        let mut holders: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (ty, fields) in &ws.struct_fields {
            for (name, ty_idents) in fields {
                if ty_idents.iter().any(|t| bearing.contains(t)) {
                    holders.entry(ty.clone()).or_default().insert(name.clone());
                }
            }
        }
        CacheModel { surfaces, holders }
    }

    fn in_scope(&self, ty: &str) -> bool {
        self.surfaces.contains_key(ty) || self.holders.contains_key(ty)
    }

    fn is_surface(&self, ty: &str, field: &str) -> bool {
        self.surfaces.get(ty).is_some_and(|s| s.contains(field))
    }

    fn is_holder(&self, ty: &str, field: &str) -> bool {
        self.holders.get(ty).is_some_and(|s| s.contains(field))
    }

    /// What the finding should name as the stale state: the surfaces
    /// when the struct owns them, else the holder fields.
    fn stale_names(&self, ty: &str) -> String {
        let set = self
            .surfaces
            .get(ty)
            .or_else(|| self.holders.get(ty))
            .cloned()
            .unwrap_or_default();
        set.into_iter().collect::<Vec<_>>().join("`, `")
    }
}

/// One write through `self.field` inside an in-scope struct's method.
struct Write {
    fn_idx: usize,
    line: u32,
    field: String,
}

/// Everything the body scan extracts for one struct.
#[derive(Default)]
struct StructActions {
    mutations: Vec<Write>,
    /// Functions containing an invalidation (surface/holder reset).
    invalidators: BTreeSet<usize>,
    arc_swaps: Vec<Write>,
}

/// Scan one method body for field writes, classifying each against the
/// model. `self . f` followed by an assignment op is a write; a surface
/// or holder also counts `.clear()` / `.take()` later in the statement
/// as a reset.
fn scan_method(
    ws: &Workspace,
    files: &[LintFile],
    fn_idx: usize,
    model: &CacheModel,
    out: &mut BTreeMap<String, StructActions>,
) {
    let item = &ws.fns[fn_idx];
    let Some(ty) = item.self_type.clone() else {
        return;
    };
    let toks = &files[item.file].ft.toks;
    let (start, end) = item.body;
    if start >= end {
        return;
    }
    let actions = out.entry(ty.clone()).or_default();

    let mut i = start + 1;
    while i + 2 < end {
        let self_field = toks[i].kind == TokKind::Ident
            && toks[i].text == "self"
            && is_p(&toks[i + 1], ".")
            && toks[i + 2].kind == TokKind::Ident
            && ws
                .struct_fields
                .get(&ty)
                .is_some_and(|f| f.contains_key(&toks[i + 2].text));
        if !self_field {
            i += 1;
            continue;
        }
        let field = toks[i + 2].text.clone();
        let line = toks[i + 2].line;
        // The rest of the statement, for classification.
        let stmt_end = (i + 3..end)
            .find(|&j| is_p(&toks[j], ";") || is_p(&toks[j], "{") || is_p(&toks[j], "}"))
            .unwrap_or(end);
        let after = &toks[i + 3..stmt_end];
        let direct_assign = after.first().is_some_and(is_assign_op);
        let arc_swap = direct_assign
            && after.windows(3).any(|w| {
                w[0].kind == TokKind::Ident
                    && w[0].text == "Arc"
                    && is_p(&w[1], "::")
                    && (w[2].text == "new" || w[2].text == "from")
            });
        let cached = model.is_surface(&ty, &field) || model.is_holder(&ty, &field);
        if cached {
            // Resetting derived state: a swap, or `.clear()`/`.take()`
            // anywhere in the chain (`self.setups.lock()…clear()`).
            let reset = direct_assign
                || after.windows(2).any(|w| {
                    is_p(&w[0], ".")
                        && w[1].kind == TokKind::Ident
                        && matches!(w[1].text.as_str(), "clear" | "take")
                });
            if reset {
                actions.invalidators.insert(fn_idx);
            }
        } else {
            let container_mut = !direct_assign
                && after.windows(2).any(|w| {
                    is_p(&w[0], ".")
                        && w[1].kind == TokKind::Ident
                        && MUTATING_METHODS.contains(&w[1].text.as_str())
                });
            if direct_assign || container_mut {
                actions.mutations.push(Write {
                    fn_idx,
                    line,
                    field: field.clone(),
                });
            }
        }
        if arc_swap {
            actions.arc_swaps.push(Write {
                fn_idx,
                line,
                field,
            });
        }
        i = stmt_end.max(i + 3);
    }
}

/// Covered = an invalidation of the struct is reachable from the
/// mutator, or every non-test caller is (recursively) covered. A
/// mutator nobody calls must invalidate itself; cycles are conservative
/// (not covered).
fn covered(
    f: usize,
    reaches_reset: &BTreeSet<usize>,
    callers: &BTreeMap<usize, BTreeSet<usize>>,
    memo: &mut BTreeMap<usize, bool>,
    visiting: &mut BTreeSet<usize>,
) -> bool {
    if let Some(&v) = memo.get(&f) {
        return v;
    }
    if reaches_reset.contains(&f) {
        memo.insert(f, true);
        return true;
    }
    if !visiting.insert(f) {
        return false; // recursion cycle: assume the worst
    }
    let up = callers.get(&f);
    let ok = up.is_some_and(|cs| {
        !cs.is_empty()
            && cs
                .iter()
                .all(|&c| covered(c, reaches_reset, callers, memo, visiting))
    });
    visiting.remove(&f);
    memo.insert(f, ok);
    ok
}

/// Run the pass over the workspace.
pub fn mutation_coherence(ws: &Workspace, files: &[LintFile]) -> Vec<Finding> {
    let model = CacheModel::build(ws);
    if model.surfaces.is_empty() {
        return Vec::new();
    }

    // Reverse call edges once (non-test callers only).
    let mut callers: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (caller, calls) in ws.calls.iter().enumerate() {
        if ws.fns[caller].in_test {
            continue;
        }
        for call in calls {
            for &callee in &call.callees {
                callers.entry(callee).or_default().insert(caller);
            }
        }
    }

    let mut actions: BTreeMap<String, StructActions> = BTreeMap::new();
    for idx in 0..ws.fns.len() {
        let item = &ws.fns[idx];
        if item.in_test || !item.has_self {
            continue;
        }
        if item.self_type.as_deref().is_some_and(|t| model.in_scope(t)) {
            scan_method(ws, files, idx, &model, &mut actions);
        }
    }

    let mut out = Vec::new();
    for (ty, acts) in &actions {
        // Whether a function transitively reaches an invalidation of
        // `ty`, memoized — needed for mutators and their ancestors.
        let mut reach_memo: BTreeMap<usize, bool> = BTreeMap::new();
        let mut reaches = |f: usize, ws: &Workspace| -> bool {
            if acts.invalidators.is_empty() {
                return false;
            }
            if let Some(&v) = reach_memo.get(&f) {
                return v;
            }
            let r = ws
                .reachable(&[f])
                .keys()
                .any(|k| acts.invalidators.contains(k));
            reach_memo.insert(f, r);
            r
        };

        for m in &acts.mutations {
            // Reaches-reset over the mutator plus all its ancestors: the
            // only functions the coverage fixpoint can visit.
            let mut relevant: BTreeSet<usize> = BTreeSet::new();
            let mut stack = vec![m.fn_idx];
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            while let Some(f) = stack.pop() {
                if !seen.insert(f) {
                    continue;
                }
                if reaches(f, ws) {
                    relevant.insert(f);
                }
                if let Some(cs) = callers.get(&f) {
                    stack.extend(cs.iter().copied());
                }
            }
            let mut memo = BTreeMap::new();
            let mut visiting = BTreeSet::new();
            if covered(m.fn_idx, &relevant, &callers, &mut memo, &mut visiting) {
                continue;
            }

            // Chain: walk up uncovered callers to a root, then down to
            // the mutator, then the stale cache as a terminal.
            let mut chain_idx = vec![m.fn_idx];
            let mut cur = m.fn_idx;
            while let Some(cs) = callers.get(&cur) {
                let next = cs.iter().copied().find(|c| {
                    !chain_idx.contains(c)
                        && !covered(*c, &relevant, &callers, &mut memo, &mut visiting)
                });
                match next {
                    Some(c) => {
                        chain_idx.push(c);
                        cur = c;
                    }
                    None => break,
                }
                if chain_idx.len() > 32 {
                    break;
                }
            }
            chain_idx.reverse();
            let mut chain: Vec<String> = chain_idx.iter().map(|&i| ws.display(i, files)).collect();
            let stale = model.stale_names(ty);
            chain.push(format!("[stale cache: {ty}.`{stale}`]"));

            let item = &ws.fns[m.fn_idx];
            let how = if acts.invalidators.is_empty() {
                format!("`{ty}` never resets it anywhere")
            } else {
                "no reset is reachable from here or from every caller".to_string()
            };
            out.push(Finding {
                rule: "cache-invalidation",
                path: files[item.file].rel.clone(),
                line: m.line,
                message: format!(
                    "`{}::{}` mutates `{ty}.{}` but the derived cache surface(s) \
                     `{stale}` stay warm — {how}; invalidate (swap/clear the memo) \
                     on the mutation path, or suppress with the out-of-band \
                     invariant that keeps the memo valid",
                    ty, item.name, m.field
                ),
                contract: "every cache mutator reaches the matching invalidation",
                call_chain: chain,
            });
        }

        // Byte accounting: an Arc swap in a cache-bearing struct needs an
        // approx-bytes implementation on the same struct.
        if !acts.arc_swaps.is_empty() {
            let accounted = ws.fns.iter().any(|f| {
                f.self_type.as_deref() == Some(ty.as_str())
                    && !f.in_test
                    && f.name.contains("approx")
                    && f.name.contains("bytes")
            });
            if !accounted {
                for w in &acts.arc_swaps {
                    let item = &ws.fns[w.fn_idx];
                    out.push(Finding {
                        rule: "byte-accounting",
                        path: files[item.file].rel.clone(),
                        line: w.line,
                        message: format!(
                            "`{}::{}` swaps an `Arc` buffer into `{ty}.{}` but `{ty}` \
                             has no `approx_bytes`-style accounting method — resident-\
                             set eviction goes blind to this allocation; implement \
                             `approx_bytes`/`approx_bytes_dedup` covering the field",
                            ty, item.name, w.field
                        ),
                        contract: "Arc buffer swaps are covered by approx_bytes accounting",
                        call_chain: vec![ws.display(w.fn_idx, files)],
                    });
                }
            }
        }
    }
    out
}
