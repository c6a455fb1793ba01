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
//! A fourth section measures the **compressed** mode: the same query on
//! a session whose columns are sealed into per-block encodings. The binary
//! asserts its rankings, score bits, and α-sweeps are byte-identical to
//! the raw session's at 1, 2, and 3 search threads.
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
use charles_numerics::ols::{
    column_moments, column_moments_scalar, gram_partial, gram_partial_scalar,
};
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

    // Kernel microbench: the blocked statistics kernels (PR 6) against
    // their retained scalar references, on the same e5 design the search
    // evaluates (d = 3: intercept + base_salary + overtime_pay). Each
    // kernel runs enough repetitions to amortize timer noise; black_box
    // keeps the optimizer from hoisting the work out of the loop.
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
    let kscales = column_moments(&kcols, ky)
        .expect("moments")
        .validated_scales(kcols.len())
        .expect("scales");
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
        black_box(gram_partial(black_box(&kcols), black_box(ky), &kscales, 0));
    });
    let gram_scalar_secs = time_reps(&|| {
        black_box(gram_partial_scalar(
            black_box(&kcols),
            black_box(ky),
            &kscales,
            0,
        ));
    });
    let moments_kernel_secs = time_reps(&|| {
        black_box(column_moments(black_box(&kcols), black_box(ky)).expect("moments"));
    });
    let moments_scalar_secs = time_reps(&|| {
        black_box(column_moments_scalar(black_box(&kcols), black_box(ky)).expect("moments"));
    });
    let total_rows = (rows * reps) as f64;
    let gram_rows_per_sec = total_rows / gram_kernel_secs;
    let moments_rows_per_sec = total_rows / moments_kernel_secs;
    let kernel_vs_scalar_speedup = gram_scalar_secs / gram_kernel_secs.max(1e-12);
    let moments_vs_scalar_speedup = moments_scalar_secs / moments_kernel_secs.max(1e-12);
    eprintln!(
        "kernels ({reps} reps × {rows} rows, d={}): gram {gram_rows_per_sec:.0} rows/s \
         ({kernel_vs_scalar_speedup:.2}x vs scalar), moments {moments_rows_per_sec:.0} rows/s \
         ({moments_vs_scalar_speedup:.2}x vs scalar)",
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

    // The raw-plane reference the sealed sessions below must match.
    let raw_session = Session::open(pair.clone()).expect("raw session");
    let raw_result = raw_session.run(&query).expect("raw run");
    let raw_scores: Vec<u64> = raw_result
        .summaries
        .iter()
        .map(|s| s.scores.score.to_bits())
        .collect();

    // Compressed (sealed) mode: the same pair with every column sealed
    // into per-block encodings (RLE/dictionary packing, delta/bitpack,
    // LZ'd dictionary payloads — see `charles_relation::compress`).
    // Resident bytes are measured on the freshly sealed pair, before any
    // decode cache fills; the ratio floor is a CI gate on the county
    // workload. Sealing is a layout choice, so rankings, score bits, and
    // α-sweeps must be byte-identical to the raw path at every search
    // thread count — asserted for threads ∈ {1, 2, 3}.
    let sealed_pair = pair.sealed();
    let raw_plane_bytes = pair.source().approx_bytes() + pair.target().approx_bytes();
    let sealed_plane_bytes =
        sealed_pair.source().approx_bytes() + sealed_pair.target().approx_bytes();
    let compression_ratio = raw_plane_bytes as f64 / sealed_plane_bytes.max(1) as f64;
    let compressed_bytes_per_row = sealed_plane_bytes as f64 / (2 * rows.max(1)) as f64;

    // Zone-map pruning: probe the sealed source with predicates whose
    // literals sit inside, below, and above the data range, then read the
    // block skip/scan counters off the compressed columns.
    use charles_relation::{CmpOp, Predicate, Value};
    let probes = [
        Predicate::cmp("base_salary", CmpOp::Ge, Value::Float(0.0)),
        Predicate::cmp("base_salary", CmpOp::Gt, Value::Float(1e12)),
        Predicate::between("grade", Value::Int(12), Value::Int(18)),
        Predicate::cmp("overtime_pay", CmpOp::Le, Value::Float(2_500.0)),
    ];
    for probe in &probes {
        probe.eval_mask(sealed_pair.source()).expect("sealed probe");
    }
    let (mut blocks_skipped, mut blocks_scanned) = (0u64, 0u64);
    for col in sealed_pair.source().columns() {
        if let Some(data) = col.compressed_data() {
            let (skipped, scanned) = data.zone_stats();
            blocks_skipped += skipped;
            blocks_scanned += scanned;
        }
    }
    let zone_map_block_skip_frac =
        blocks_skipped as f64 / (blocks_skipped + blocks_scanned).max(1) as f64;

    let sweep_alphas = [0.25, 0.75];
    let base_sweep_bits: Vec<Vec<u64>> = raw_session
        .sweep_alpha(&raw_result, &sweep_alphas)
        .expect("raw sweep")
        .iter()
        .map(|r| {
            r.summaries
                .iter()
                .map(|s| s.scores.score.to_bits())
                .collect()
        })
        .collect();
    let mut sealed_secs = 0.0f64;
    for sealed_threads in [1usize, 2, 3] {
        let sealed_config = CharlesConfig::default()
            .with_sealed_columns(true)
            .with_threads(sealed_threads);
        let started = Instant::now();
        let session =
            Session::open_with_config(pair.clone(), sealed_config).expect("sealed session");
        let result = session.run(&query).expect("sealed run");
        if sealed_threads == 1 {
            sealed_secs = started.elapsed().as_secs_f64();
        }
        assert_eq!(
            render(&result.summaries),
            render(&raw_result.summaries),
            "sealed rankings must be byte-identical to raw (threads={sealed_threads})"
        );
        let sealed_scores: Vec<u64> = result
            .summaries
            .iter()
            .map(|s| s.scores.score.to_bits())
            .collect();
        assert_eq!(
            sealed_scores, raw_scores,
            "sealed score bits must be identical to raw (threads={sealed_threads})"
        );
        let sweep_bits: Vec<Vec<u64>> = session
            .sweep_alpha(&result, &sweep_alphas)
            .expect("sealed sweep")
            .iter()
            .map(|r| {
                r.summaries
                    .iter()
                    .map(|s| s.scores.score.to_bits())
                    .collect()
            })
            .collect();
        assert_eq!(
            sweep_bits, base_sweep_bits,
            "sealed α-sweep bits must be identical to raw (threads={sealed_threads})"
        );
    }
    eprintln!(
        "compressed plane: {compressed_bytes_per_row:.1} B/row sealed vs \
         {:.1} B/row raw ({compression_ratio:.2}x), zone maps skipped \
         {blocks_skipped}/{} probed blocks; sealed rankings byte-identical \
         at threads 1/2/3",
        raw_plane_bytes as f64 / (2 * rows.max(1)) as f64,
        blocks_skipped + blocks_scanned,
    );

    let n_cands = candidates.len() as f64;
    let shared_tput = n_cands / shared_secs;
    let naive_tput = n_cands / naive_secs;
    let json = format!(
        "{{\n  \"workload\": \"e5_county_scalability\",\n  \"rows\": {rows},\n  \"candidates\": {},\n  \"summaries_produced\": {produced},\n  \"naive_seconds\": {naive_secs:.4},\n  \"shared_seconds\": {shared_secs:.4},\n  \"naive_candidates_per_sec\": {naive_tput:.2},\n  \"shared_candidates_per_sec\": {shared_tput:.2},\n  \"speedup\": {speedup:.2},\n  \"naive_seconds_samples\": {},\n  \"shared_seconds_samples\": {},\n  \"speedup_samples\": {},\n  \"gram_rows_per_sec\": {gram_rows_per_sec:.0},\n  \"moments_rows_per_sec\": {moments_rows_per_sec:.0},\n  \"kernel_vs_scalar_speedup\": {kernel_vs_scalar_speedup:.2},\n  \"moments_vs_scalar_speedup\": {moments_vs_scalar_speedup:.2},\n  \"parallel_search_seconds\": {parallel_secs:.4},\n  \"parallel_threads\": {},\n  \"ranked_summaries\": {},\n  \"distinct_summaries\": {},\n  \"session_cold_seconds\": {session_cold_secs:.4},\n  \"session_warm_seconds\": {session_warm_secs:.6},\n  \"session_warm_speedup\": {session_warm_speedup:.2},\n  \"default_shortlist_seconds\": {shortlist_secs:.4},\n  \"default_shortlist_candidates\": {shortlist_candidates},\n  \"compressed_bytes_per_row\": {compressed_bytes_per_row:.2},\n  \"compression_ratio\": {compression_ratio:.2},\n  \"zone_map_block_skip_frac\": {zone_map_block_skip_frac:.3},\n  \"sealed_run_seconds\": {sealed_secs:.4},\n  \"sealed_rankings_identical\": true\n}}\n",
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
        compression_ratio >= 3.0,
        "sealed county plane must be ≤ 1/3 of the raw plane's bytes, got \
         {compression_ratio:.2}x ({compressed_bytes_per_row:.1} B/row)"
    );
    assert!(
        zone_map_block_skip_frac > 0.0,
        "zone maps must skip at least one probed block"
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
