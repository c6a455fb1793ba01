//! Cross-crate fixture: linted as `crates/core/src/stats.rs`.
//! `rebalance` inverts the documented `latch → registry` order across
//! two files.

/// Takes the registry, then calls a helper that takes the latch:
/// `registry → latch`, reversing the documented order and closing a
/// cycle with `Store::refresh`.
pub fn rebalance(store: &Store) {
    let reg = store.registry.lock().unwrap_or_else(PoisonError::into_inner);
    store.relatch();
    drop(reg);
}
