//! `offline-paper`: the paper's one-shot algorithms on fixed arrays, at
//! the full pool width (Fig. 7(a)/(d) shapes).
//!
//! Stresses: the fork-join scheduler (`rayon::join`), the tournament tree
//! (Algorithm 1), the range tree (Algorithm 2), and — in the traced run
//! only — vEB batch ops and the Range-vEB variant.  Bypasses: the engine,
//! the snapshot/wire codec and the server, none of which run here.
//!
//! One op is one *paper round*: Algorithm 1 on `n = 10^5` at `k ≈ 10^2`
//! (range pattern, work-bound), Algorithm 1 on `n = 10^5` at `k ≈ 10^3`
//! (line pattern, fork-bound: one frontier extraction per rank), and
//! Algorithm 2 on `n = 2·10^4` at `k ≈ 200` (range pattern) with uniform
//! weights ≤ 1000: the paper's `k/n` ratios at a tenth of its `n`.  A
//! round then takes ~0.2 s, so a 30 s run holds well over a hundred of
//! them and their median moves little between runs (at `n = 10^6` a run
//! held a dozen rounds, and its median moved 30% between runs).
//! Every call's output is compared with the sequential oracles (Seq-BS
//! ranks, Fenwick WLIS) outside the timed region.

use crate::report::{median, percentile, Report};
use crate::trace::{SpanId, Tracer};
use crate::{Ctx, TimedLoop};
use plis_baselines::{seq_bs, wlis_fenwick};
use plis_lis::{lis_ranks_u64, lis_ranks_u64_with_stats, wlis_rangetree, wlis_rangeveb};
use plis_tournament::TournamentTree;
use plis_veb::VebTree;
use plis_workloads::{uniform_weights, with_target_rank};
use std::hint::black_box;
use std::time::Instant;

struct Params {
    n_lis: usize,
    k_small: u64,
    k_large: u64,
    n_wlis: usize,
    k_wlis: u64,
    max_weight: u64,
    veb_bits: u32,
    veb_resident: usize,
    veb_batch: usize,
}

fn params(ctx: &Ctx) -> Params {
    if ctx.tiny {
        Params {
            n_lis: 20_000,
            k_small: 20,
            k_large: 500,
            n_wlis: 5_000,
            k_wlis: 40,
            max_weight: 1_000,
            veb_bits: 16,
            veb_resident: 1 << 12,
            veb_batch: 1_000,
        }
    } else {
        Params {
            n_lis: 100_000,
            k_small: 100,
            k_large: 1_000,
            n_wlis: 20_000,
            k_wlis: 200,
            max_weight: 1_000,
            veb_bits: 24,
            veb_resident: 1 << 20,
            veb_batch: 100_000,
        }
    }
}

/// The fixed arrays of one seed plus their oracle outputs.
struct Inputs {
    small: Vec<u64>,
    large: Vec<u64>,
    wvals: Vec<u64>,
    weights: Vec<u64>,
    small_oracle: (Vec<u32>, u32),
    large_oracle: (Vec<u32>, u32),
    wlis_oracle: Vec<u64>,
}

fn inputs(p: &Params, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>) {
    (
        with_target_rank(p.n_lis, p.k_small, seed ^ 0x0F_F1E2),
        with_target_rank(p.n_lis, p.k_large, seed ^ 0x0F_F1E4),
        with_target_rank(p.n_wlis, p.k_wlis, seed ^ 0x0F_F1D0),
        uniform_weights(p.n_wlis, p.max_weight, seed ^ 0x0F_F1D1),
    )
}

fn inputs_with_oracles(p: &Params, seed: u64, inject_fault: bool) -> Inputs {
    let (small, large, wvals, weights) = inputs(p, seed);
    let mut small_oracle = seq_bs(&small);
    if inject_fault {
        // A deliberately wrong expectation: every k≈10^2 call must then be
        // counted as a failed op while the run carries on.
        small_oracle.0[0] += 1;
    }
    let large_oracle = seq_bs(&large);
    let wlis_oracle = wlis_fenwick(&wvals, &weights);
    Inputs { small, large, wvals, weights, small_oracle, large_oracle, wlis_oracle }
}

/// The three timed calls of a round, in round order.
const CALLS: [&str; 3] = ["lis.par_k1e2", "lis.par_k1e3", "lis.wlis_par"];

/// Run one call, timed, then check it; returns its seconds.
fn timed_call(
    inp: &Inputs,
    which: usize,
    report: &mut Report,
    tracer: &Tracer,
    parent: SpanId,
    op: u64,
) -> f64 {
    let span = tracer.begin(CALLS[which], parent, op);
    let start = Instant::now();
    match which {
        0 | 1 => {
            let (values, oracle) = if which == 0 {
                (&inp.small, &inp.small_oracle)
            } else {
                (&inp.large, &inp.large_oracle)
            };
            let out = black_box(lis_ranks_u64(black_box(values)));
            let secs = start.elapsed().as_secs_f64();
            tracer.end(span);
            report.check(out.1 == oracle.1 && out.0 == oracle.0, || {
                format!(
                    "{}: ranks differ from Seq-BS (k = {} vs {})",
                    CALLS[which], out.1, oracle.1
                )
            });
            secs
        }
        _ => {
            let out = black_box(wlis_rangetree(black_box(&inp.wvals), black_box(&inp.weights)));
            let secs = start.elapsed().as_secs_f64();
            tracer.end(span);
            report.check(out == inp.wlis_oracle, || {
                "lis.wlis_par: dp values differ from wlis_fenwick".into()
            });
            secs
        }
    }
}

/// One paper round; returns its seconds and the per-call seconds.
fn round(inp: &Inputs, report: &mut Report, tracer: &Tracer, op: u64) -> (f64, [f64; 3]) {
    let parent = tracer.begin("paper.round", SpanId::NONE, op);
    let mut calls = [0.0; 3];
    for (which, slot) in calls.iter_mut().enumerate() {
        *slot = timed_call(inp, which, report, tracer, parent, op);
    }
    tracer.end(parent);
    (calls.iter().sum(), calls)
}

/// Set-up probe, run in a fresh process: the first (cold) call of each
/// timed function.  Input generation is the benchmark's side and stays
/// outside the measurement.
pub fn setup_probe(ctx: &Ctx) -> f64 {
    let p = params(ctx);
    let (small, large, wvals, weights) = inputs(&p, ctx.seed);
    let start = Instant::now();
    black_box(lis_ranks_u64(black_box(&small)));
    black_box(lis_ranks_u64(black_box(&large)));
    black_box(wlis_rangetree(black_box(&wvals), black_box(&weights)));
    start.elapsed().as_secs_f64()
}

struct Timed {
    rounds: Vec<f64>,
    per_call: [Vec<f64>; 3],
}

fn timed_rounds(inp: &Inputs, report: &mut Report, tracer: &Tracer, seconds: f64) -> Timed {
    let mut t = Timed { rounds: Vec::new(), per_call: Default::default() };
    let mut timed = TimedLoop::new(seconds);
    while timed.more() {
        let (secs, calls) = round(inp, report, tracer, t.rounds.len() as u64);
        t.rounds.push(secs);
        for (samples, secs) in t.per_call.iter_mut().zip(calls) {
            samples.push(secs);
        }
    }
    t
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let p = params(ctx);
    let setup_s = if ctx.trace { 0.0 } else { ctx.setup_from_probes(&mut report) };
    let inp = inputs_with_oracles(&p, ctx.seed, ctx.inject_fault);
    let elems_per_round = (2 * p.n_lis + p.n_wlis) as f64;
    report.decision("k_small", f64::from(inp.small_oracle.1));
    report.decision("k_large", f64::from(inp.large_oracle.1));
    report.decision("threads", rayon::current_num_threads() as f64);

    // Warm-up round: untimed, still checked.  The peak RSS is read right
    // after it: one round's footprint, before the repetitions add
    // allocator noise.
    round(&inp, &mut report, &Tracer::new(false), u64::MAX);
    let peak_rss_mb = crate::report::peak_rss_mb();

    if !ctx.trace {
        let t = timed_rounds(&inp, &mut report, &Tracer::new(false), ctx.seconds);
        let round_s = median(&t.rounds);
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb, "MB");
        report.metric("ops_per_s", 1.0 / round_s, "1/s");
        report.metric("elems_per_s", elems_per_round / round_s, "1/s");
        report.metric("op_p50_ms", round_s * 1e3, "ms");
        report.decision("rounds", t.rounds.len() as f64);
        for (name, samples) in CALLS.iter().zip(&t.per_call) {
            report.notes.push(format!(
                "{name}: median {:.4} s over {}",
                median(samples),
                samples.len()
            ));
        }
        return report;
    }

    // Traced run: half the time untraced, half traced, for the overhead.
    let plain = timed_rounds(&inp, &mut report, &Tracer::new(false), ctx.seconds / 2.0);
    let traced = timed_rounds(&inp, &mut report, &ctx.tracer, ctx.seconds / 2.0);
    report.metric("trace.overhead", median(&traced.rounds) / median(&plain.rounds) - 1.0, "ratio");
    let tr = &ctx.tracer;
    report.metric("lis.par_k1e2_s", median(&tr.self_times("lis.par_k1e2")), "s");
    report.metric("lis.par_k1e3_s", median(&tr.self_times("lis.par_k1e3")), "s");
    report.metric("lis.wlis_par_s", median(&tr.self_times("lis.wlis_par")), "s");
    layer_probes(&p, &inp, ctx, &mut report);
    report
}

/// Median seconds of `reps` traced calls of `f`.
fn traced_median<R>(
    tr: &Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (f64, R) {
    let mut out = None;
    for op in 0..reps {
        out = Some(tr.span(name, SpanId::NONE, op as u64, || black_box(f())));
    }
    (median(&tr.self_times(name)), out.expect("at least one repetition"))
}

fn on_one_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("one-thread pool").install(f)
}

/// The traced run's per-layer probes: each times one public entry point
/// of a layer below `lis`.
fn layer_probes(p: &Params, inp: &Inputs, ctx: &Ctx, report: &mut Report) {
    let tr = &ctx.tracer;

    // rayon: a trivial join, timed in batches of 200.
    const JOINS: usize = 200;
    for op in 0..30u64 {
        tr.span("rayon.join_x200", SpanId::NONE, op, || {
            for i in 0..JOINS {
                black_box(rayon::join(|| black_box(i), || black_box(i + 1)));
            }
        });
    }
    let join_s = median(&tr.self_times("rayon.join_x200")) / JOINS as f64;
    report.metric("rayon.join_us", join_s * 1e6, "us");

    // tournament: build, then one process_frontier call per rank on the
    // k≈10^3 input.
    let (build_s, _) =
        traced_median(tr, "tournament.build", 3, || TournamentTree::new(&inp.large, u64::MAX));
    report.metric("tournament.build_ms", build_s * 1e3, "ms");
    let mut tree = TournamentTree::new(&inp.large, u64::MAX);
    let mut rank = vec![0u32; inp.large.len()];
    let mut rounds = 0u32;
    while !tree.is_empty() {
        rounds += 1;
        tr.span("tournament.process_frontier", SpanId::NONE, u64::from(rounds), || {
            tree.process_frontier(rounds, &mut rank)
        });
    }
    report.check(rank == inp.large_oracle.0, || {
        "tournament: frontier ranks differ from Seq-BS".into()
    });
    let round_s = tr.self_times("tournament.process_frontier");
    report.metric("tournament.round_p50_us", median(&round_s) * 1e6, "us");
    report.metric("tournament.round_p99_us", percentile(&round_s, 0.99) * 1e6, "us");
    let (mut total_rounds, mut nodes) = (0u64, 0u64);
    for (values, oracle) in [(&inp.small, &inp.small_oracle), (&inp.large, &inp.large_oracle)] {
        let (ranks, k, stats) =
            tr.span("lis.with_stats", SpanId::NONE, 0, || lis_ranks_u64_with_stats(values));
        report.check(k == oracle.1 && ranks == oracle.0, || {
            "lis_ranks_u64_with_stats: wrong ranks".into()
        });
        total_rounds += u64::from(k);
        nodes += stats.nodes_visited as u64;
    }
    report.metric("tournament.rounds", total_rounds as f64, "count");
    report.metric("tournament.nodes_visited", nodes as f64, "count");

    // lis on a one-thread pool: the work term and the self-speedup.
    let (s, out) =
        traced_median(tr, "lis.seq_k1e2", 3, || on_one_thread(|| lis_ranks_u64(&inp.small)));
    report.check(out == inp.small_oracle, || "lis.seq_k1e2: wrong ranks".into());
    report.metric("lis.seq_k1e2_s", s, "s");
    let (s, out) =
        traced_median(tr, "lis.seq_k1e3", 3, || on_one_thread(|| lis_ranks_u64(&inp.large)));
    report.check(out == inp.large_oracle, || "lis.seq_k1e3: wrong ranks".into());
    report.metric("lis.seq_k1e3_s", s, "s");
    let (s, out) = traced_median(tr, "lis.wlis_seq", 3, || {
        on_one_thread(|| wlis_rangetree(&inp.wvals, &inp.weights))
    });
    report.check(out == inp.wlis_oracle, || "lis.wlis_seq: wrong dp values".into());
    report.metric("lis.wlis_seq_s", s, "s");

    // baselines: Seq-BS, the paper's comparator (reference only).
    let (s, _) = traced_median(tr, "baselines.seqbs_k1e2", 3, || seq_bs(&inp.small));
    report.metric("baselines.seqbs_k1e2_s", s, "s");
    let (s, _) = traced_median(tr, "baselines.seqbs_k1e3", 3, || seq_bs(&inp.large));
    report.metric("baselines.seqbs_k1e3_s", s, "s");

    // rangeveb: the Range-vEB variant of Algorithm 2.
    let (s, out) =
        traced_median(tr, "rangeveb.wlis", 3, || wlis_rangeveb(&inp.wvals, &inp.weights));
    report.check(out == inp.wlis_oracle, || "rangeveb.wlis: wrong dp values".into());
    report.metric("rangeveb.wlis_s", s, "s");

    veb_probe(p, ctx, report);
}

/// splitmix64: a tiny deterministic generator for the vEB key sets.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// vEB batch ops on a tree with `veb_resident` keys: insert a batch of
/// fresh keys, report a range, delete the batch again (so every cycle
/// starts from the same tree).
fn veb_probe(p: &Params, ctx: &Ctx, report: &mut Report) {
    let tr = &ctx.tracer;
    let universe = 1u64 << p.veb_bits;
    // Resident keys: one per stride, at a seeded offset in its stride.
    let stride = universe / p.veb_resident as u64;
    let mut state = ctx.seed ^ 0x00FE_EB00;
    let resident: Vec<u64> =
        (0..p.veb_resident as u64).map(|i| i * stride + splitmix(&mut state) % stride).collect();
    // Batch keys: distinct, sorted, never resident.
    let mut batch: Vec<u64> = Vec::with_capacity(p.veb_batch);
    while batch.len() < p.veb_batch {
        let key = splitmix(&mut state) % universe;
        if resident.binary_search(&key).is_err() {
            batch.push(key);
        }
        if batch.len() == p.veb_batch {
            batch.sort_unstable();
            batch.dedup();
        }
    }
    let (lo, hi) = (universe / 4, universe / 4 + universe / 10);
    let expected_range = resident.iter().chain(&batch).filter(|&&k| k >= lo && k <= hi).count();

    let mut tree = VebTree::from_sorted(universe, &resident);
    for op in 0..5u64 {
        let inserted = tr.span("veb.batch_insert", SpanId::NONE, op, || tree.batch_insert(&batch));
        let found = tr.span("veb.range", SpanId::NONE, op, || tree.range(lo, hi));
        let deleted = tr.span("veb.batch_delete", SpanId::NONE, op, || tree.batch_delete(&batch));
        report.check(
            inserted == batch.len() && found.len() == expected_range && deleted == batch.len(),
            || format!("veb: inserted {inserted}, range {}, deleted {deleted}", found.len()),
        );
    }
    report.metric("veb.batch_insert_ms", median(&tr.self_times("veb.batch_insert")) * 1e3, "ms");
    report.metric("veb.batch_delete_ms", median(&tr.self_times("veb.batch_delete")) * 1e3, "ms");
    report.metric("veb.range_ms", median(&tr.self_times("veb.range")) * 1e3, "ms");
}
