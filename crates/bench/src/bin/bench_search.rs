//! A/B benchmark of the candidate-evaluation data plane, emitting
//! `BENCH_search.json`.
//!
//! Two paths evaluate the *same* candidates on the e5 scalability workload
//! (the county payroll scenario):
//!
//! - **naive** — the seed implementation's behaviour: every candidate
//!   re-extracts its columns from the table (string-keyed lookups plus
//!   full `Vec<f64>` copies) and refits the global regression
//!   ([`charles_core::search::evaluate_candidate_naive`]);
//! - **shared** — the zero-copy plane: one [`SearchContext`] holds
//!   `Arc`-shared column views plus the memos candidates share: global
//!   fits, labelings, CART trees and partition fits, keyed by interned
//!   attribute ids; candidates only read.
//!
//! Both paths produce identical summaries (asserted here and in the core
//! test suite). The two run alternately [`AB_REPS`] times, each shared run
//! on a fresh context; the speedup is the median of the per-repetition
//! naive/shared time ratios, and the JSON records every sample.
//!
//! A third section measures the **session** mode: a cold one-shot
//! `Charles::run` against a warm rerun of the identical query on a
//! long-lived [`charles_core::Session`] — the interactive reload path.
//! The binary asserts the warm rerun is ≥ 5× faster with byte-identical
//! ranked summaries, and records `session_warm_speedup`.
//!
//! A default-shortlist section times the query users issue without
//! naming attributes, `Query::new(target)` (the setup assistant picks the
//! shortlists), at one search thread on a fresh session: the median of
//! [`SHORTLIST_REPS`] runs lands in `default_shortlist_seconds`, its
//! candidate count in `default_shortlist_candidates`.
//!
//! Run: `cargo run --release -p charles-bench --bin bench_search [rows] [threads]`
//!
//! The parallel end-to-end section detects available parallelism
//! (`std::thread::available_parallelism`, cgroup-aware) unless a thread
//! count is forced via the second argument or `CHARLES_BENCH_THREADS`;
//! the JSON records the count the search *actually ran with*
//! ([`charles_core::SearchStats::threads_used`]), not the one requested.

use charles_bench::pair_of;
use charles_core::search::{
    evaluate_candidate, evaluate_candidate_naive, generate_candidates, run_search, SearchContext,
};
use charles_core::{Charles, CharlesConfig, Query, Session};
use charles_numerics::ols::{conditioning_scales, gram, gram_scalar};
use charles_synth::county;
use std::hint::black_box;
use std::time::Instant;

/// Alternating shared/naive repetitions behind the reported speedup.
const AB_REPS: usize = 5;

/// Cold runs of the default-shortlist query behind its reported time.
const SHORTLIST_REPS: usize = 3;

/// Median of a non-empty sample.
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Render samples as a JSON array.
fn json_array(samples: &[f64], decimals: usize) -> String {
    let items: Vec<String> = samples.iter().map(|v| format!("{v:.decimals$}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4_000);
    // 0 = auto-detect (available_parallelism); override by arg or env.
    let threads: usize = std::env::args()
        .nth(2)
        .or_else(|| std::env::var("CHARLES_BENCH_THREADS").ok())
        .and_then(|a| a.parse().ok())
        .unwrap_or(0);
    let target = "base_salary";
    let scenario = county(rows, 42);
    let pair = pair_of(&scenario);
    let schema = pair.source().schema();
    let config = CharlesConfig::default().with_threads(1);

    let cond: Vec<_> = ["department", "grade", "division"]
        .iter()
        .map(|a| schema.attr_ref(a).expect("county attr"))
        .collect();
    let tran_names: Vec<String> = ["base_salary", "overtime_pay"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let tran: Vec<_> = tran_names
        .iter()
        .map(|a| schema.attr_ref(a).expect("county attr"))
        .collect();
    let candidates = generate_candidates(&cond, &tran, &config);
    eprintln!(
        "e5 workload: {rows} rows, {} candidates (c=department/grade/division, t=base_salary/overtime_pay)",
        candidates.len()
    );

    // Shared zero-copy plane (one fresh context per repetition, candidates
    // only read) alternating with the naive plane (per-candidate
    // extraction + refit, as in the seed).
    let (mut shared_samples, mut naive_samples, mut speedup_samples) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut produced = 0usize;
    for _ in 0..AB_REPS {
        let started = Instant::now();
        let ctx = SearchContext::new(&pair, target, &tran_names, &config).expect("context");
        let shared: Vec<_> = candidates
            .iter()
            .map(|c| evaluate_candidate(&ctx, c).expect("evaluate"))
            .collect();
        let shared_secs = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let naive: Vec<_> = candidates
            .iter()
            .map(|c| evaluate_candidate_naive(&pair, target, c, &config).expect("evaluate"))
            .collect();
        let naive_secs = started.elapsed().as_secs_f64();

        // The two planes must agree summary-for-summary.
        produced = 0;
        for (i, (s, n)) in shared.iter().zip(naive.iter()).enumerate() {
            match (s, n) {
                (None, None) => {}
                (Some(s), Some(n)) => {
                    assert_eq!(
                        s.signature(),
                        n.signature(),
                        "data planes disagree on candidate {i}"
                    );
                    produced += 1;
                }
                _ => panic!("data planes disagree on candidate {i} feasibility"),
            }
        }
        shared_samples.push(shared_secs);
        naive_samples.push(naive_secs);
        speedup_samples.push(naive_secs / shared_secs.max(1e-12));
    }
    let shared_secs = median(&shared_samples);
    let naive_secs = median(&naive_samples);
    let speedup = median(&speedup_samples);

    // Kernel microbench: the blocked Gram kernel against its retained
    // scalar reference, on the same e5 design the search evaluates
    // (d = 3: intercept + base_salary + overtime_pay). Each kernel runs
    // enough repetitions to amortize timer noise; black_box keeps the
    // optimizer from hoisting the work out of the loop.
    let kviews: Vec<charles_relation::NumericView> = tran_names
        .iter()
        .map(|a| {
            pair.source()
                .column_by_name(a)
                .expect("predictor column")
                .numeric_view(a)
                .expect("numeric view")
        })
        .collect();
    let kcols: Vec<&[f64]> = kviews.iter().map(|v| v.as_slice()).collect();
    let ky_view = pair
        .target()
        .column_by_name(target)
        .expect("target column")
        .numeric_view(target)
        .expect("numeric view");
    let ky = ky_view.as_slice();
    let kscales = conditioning_scales(&kcols, ky).expect("scales");
    let reps = (2_000_000 / rows.max(1)).max(10);
    let time_reps = |f: &dyn Fn()| -> f64 {
        f(); // warm-up
        let started = Instant::now();
        for _ in 0..reps {
            f();
        }
        started.elapsed().as_secs_f64()
    };
    let gram_kernel_secs = time_reps(&|| {
        black_box(gram(black_box(&kcols), black_box(ky), &kscales));
    });
    let gram_scalar_secs = time_reps(&|| {
        black_box(gram_scalar(black_box(&kcols), black_box(ky), &kscales));
    });
    let gram_rows_per_sec = (rows * reps) as f64 / gram_kernel_secs;
    let kernel_vs_scalar_speedup = gram_scalar_secs / gram_kernel_secs.max(1e-12);
    eprintln!(
        "kernels ({reps} reps × {rows} rows, d={}): gram {gram_rows_per_sec:.0} rows/s \
         ({kernel_vs_scalar_speedup:.2}x vs scalar)",
        kcols.len() + 1,
    );

    // End-to-end parallel search wall time on the shared plane, for the
    // perf trajectory. `threads = 0` lets the engine detect available
    // parallelism; the JSON reports what the search actually used.
    let started = Instant::now();
    let par_config = CharlesConfig::default().with_threads(threads);
    let par_ctx = SearchContext::new(&pair, target, &tran_names, &par_config).expect("context");
    let (ranked, stats) = run_search(&par_ctx, &candidates).expect("search");
    let parallel_secs = started.elapsed().as_secs_f64();
    eprintln!(
        "parallel search: {} worker thread(s) (requested {}, detected {})",
        stats.threads_used,
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // Session mode: cold one-shot engine vs warm rerun of the identical
    // query on a long-lived session (the interactive reload path).
    let query = Query::new(target)
        .with_condition_attrs(["department", "grade", "division"])
        .with_transform_attrs(["base_salary", "overtime_pay"]);
    let started = Instant::now();
    let cold_engine = Charles::from_pair(pair.clone(), target)
        .expect("engine")
        .with_condition_attrs(["department", "grade", "division"])
        .with_transform_attrs(["base_salary", "overtime_pay"]);
    let cold_result = cold_engine.run().expect("cold run");
    let session_cold_secs = started.elapsed().as_secs_f64();

    let session = Session::open(pair.clone()).expect("session");
    let first = session.run(&query).expect("first session run");
    let fits_after_first = session.stats().global_fits_computed;
    let started = Instant::now();
    let warm_result = session.run(&query).expect("warm session run");
    let session_warm_secs = started.elapsed().as_secs_f64();
    let session_warm_speedup = session_cold_secs / session_warm_secs.max(1e-9);

    // Warm rerun must be pure cache hits and byte-identical — to the first
    // session run and to the cold one-shot engine.
    assert_eq!(
        session.stats().global_fits_computed,
        fits_after_first,
        "warm rerun performed new global fits"
    );
    let render = |s: &[charles_core::ChangeSummary]| -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    };
    assert_eq!(render(&first.summaries), render(&warm_result.summaries));
    assert_eq!(
        render(&cold_result.summaries),
        render(&warm_result.summaries),
        "session and one-shot engine disagree"
    );

    // The default-shortlist query: no attribute names, one search thread,
    // a fresh session per run so every run is cold.
    let mut shortlist_samples = Vec::with_capacity(SHORTLIST_REPS);
    let mut shortlist_candidates = 0usize;
    for _ in 0..SHORTLIST_REPS {
        let session =
            Session::open_with_config(pair.clone(), CharlesConfig::default().with_threads(1))
                .expect("shortlist session");
        let started = Instant::now();
        let result = session
            .run(&Query::new(target))
            .expect("default-shortlist run");
        shortlist_samples.push(started.elapsed().as_secs_f64());
        shortlist_candidates = result.stats.candidates;
    }
    let shortlist_secs = median(&shortlist_samples);
    eprintln!(
        "default-shortlist query: {shortlist_candidates} candidates, \
         {shortlist_secs:.3} s (median of {SHORTLIST_REPS}, threads=1)"
    );

    let n_cands = candidates.len() as f64;
    let shared_tput = n_cands / shared_secs;
    let naive_tput = n_cands / naive_secs;
    let json = format!(
        "{{\n  \"workload\": \"e5_county_scalability\",\n  \"rows\": {rows},\n  \"candidates\": {},\n  \"summaries_produced\": {produced},\n  \"naive_seconds\": {naive_secs:.4},\n  \"shared_seconds\": {shared_secs:.4},\n  \"naive_candidates_per_sec\": {naive_tput:.2},\n  \"shared_candidates_per_sec\": {shared_tput:.2},\n  \"speedup\": {speedup:.2},\n  \"naive_seconds_samples\": {},\n  \"shared_seconds_samples\": {},\n  \"speedup_samples\": {},\n  \"gram_rows_per_sec\": {gram_rows_per_sec:.0},\n  \"kernel_vs_scalar_speedup\": {kernel_vs_scalar_speedup:.2},\n  \"parallel_search_seconds\": {parallel_secs:.4},\n  \"parallel_threads\": {},\n  \"ranked_summaries\": {},\n  \"distinct_summaries\": {},\n  \"session_cold_seconds\": {session_cold_secs:.4},\n  \"session_warm_seconds\": {session_warm_secs:.6},\n  \"session_warm_speedup\": {session_warm_speedup:.2},\n  \"default_shortlist_seconds\": {shortlist_secs:.4},\n  \"default_shortlist_candidates\": {shortlist_candidates}\n}}\n",
        candidates.len(),
        json_array(&naive_samples, 4),
        json_array(&shared_samples, 4),
        json_array(&speedup_samples, 2),
        stats.threads_used,
        ranked.len(),
        stats.distinct,
    );
    std::fs::write("BENCH_search.json", &json).expect("write BENCH_search.json");
    print!("{json}");
    eprintln!(
        "speedup (shared vs naive, single-threaded, median of {AB_REPS}): {speedup:.2}x; \
         warm session rerun vs cold run: {session_warm_speedup:.2}x — wrote BENCH_search.json"
    );
    assert!(
        speedup >= 1.5,
        "shared data plane must be ≥ 1.5x the naive extraction path, got {speedup:.2}x"
    );
    assert!(
        session_warm_speedup >= 5.0,
        "warm session rerun must be ≥ 5x a cold run, got {session_warm_speedup:.2}x"
    );
    assert!(
        kernel_vs_scalar_speedup >= 1.5,
        "blocked gram kernel must be ≥ 1.5x the scalar reference, got \
         {kernel_vs_scalar_speedup:.2}x"
    );
    // CI regression floor: fail if the kernel itself got slower than the
    // recorded baseline (rows/sec, set from a committed bench run).
    if let Some(floor) = std::env::var("CHARLES_BENCH_GRAM_FLOOR")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        assert!(
            gram_rows_per_sec >= floor,
            "gram_rows_per_sec {gram_rows_per_sec:.0} fell below the recorded floor {floor:.0}"
        );
    }
}
