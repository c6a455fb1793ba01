//! The repository benchmark for the ChARLES engine.
//!
//! Three workloads, each a closed loop from a single client in its own
//! process, with the engine pinned to one search thread:
//!
//! - [`Workload::SearchCold`] — open a session and run the e5 county query
//!   cold; CART, k-means and partition fits do the work;
//! - [`Workload::ServeInteractive`] — the analyst loop over real HTTP on a
//!   warm resident dataset; wire framing, memo lookups and rescoring do the
//!   work;
//! - [`Workload::ServeIngest`] — uploads beside reads of evicted datasets;
//!   JSON and CSV parsing, alignment and the session manager do the work.
//!
//! See `README.md` next to this crate for the metrics and how to run it.

pub mod data;
pub mod host;
pub mod probe;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::Outcome;
use std::path::PathBuf;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold e5 search, in process.
    SearchCold,
    /// Warm queries, sweeps, stats and targets over HTTP.
    ServeInteractive,
    /// Uploads and reads of evicted datasets over HTTP.
    ServeIngest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SearchCold,
        Workload::ServeInteractive,
        Workload::ServeIngest,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCold => "search_cold",
            Workload::ServeInteractive => "serve_interactive",
            Workload::ServeIngest => "serve_ingest",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload to run.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the measured loop, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) rather than the
    /// end-to-end run.
    pub trace: bool,
    /// Rows per county snapshot.
    pub rows: usize,
    /// How many times set-up is repeated; `setup_s` is their median.
    pub setups: usize,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

impl Params {
    /// The benchmark's fixed sizes for a workload.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            workload,
            seed,
            seconds,
            trace,
            rows: 4_000,
            setups: 3,
            trace_dir: PathBuf::from(".perfbench"),
        }
    }
}

/// Run one workload.
pub fn run(params: &Params) -> Outcome {
    match params.workload {
        Workload::SearchCold => workloads::search_cold(params),
        Workload::ServeInteractive => workloads::serve_interactive(params),
        Workload::ServeIngest => workloads::serve_ingest(params),
    }
}
