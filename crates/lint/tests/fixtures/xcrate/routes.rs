//! Cross-crate fixture: the serving surface. Linted as
//! `crates/server/src/routes.rs`, so every non-test `fn` here is a
//! panic-reachability seed.

pub struct Router {
    store: Store,
}

impl Router {
    /// Request entry: three hops to `fetch_raw`'s unwrap in the core
    /// fixture (`handle` → `Store::lookup` → `fetch_raw`).
    pub fn handle(&self, name: &str) -> f64 {
        self.store.lookup(name)
    }
}
