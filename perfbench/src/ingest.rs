//! `ingest-bulk`: the engine used as a library, default config,
//! write-only traffic at large batch sizes, with a checkpoint cycle.
//!
//! Stresses: session ingest (both kinds), shard-parallel ticks, the cost
//! model's path choice (the only place the parallel-merge path can fire
//! at these batch sizes) and the snapshot codec on a warm engine (a
//! ~18 MB snapshot).
//! Bypasses: sockets, frames and the batcher — the control workload for
//! server-only changes, which must not move it.
//!
//! One round: a fresh engine, phase 1 (8 unweighted sessions × 1.25·10^5
//! elements), phase 2 (4 weighted sessions × 6.25·10^4 elements, weights
//! ≤ 1000), both as round-robin ticks of 4096-element batches through
//! `Engine::execute`.  Every fourth round ends in a checkpoint op:
//! `snapshot` + `encode`, then `decode` + `Engine::restore`.  A cycle is
//! those four rounds.  An op is one tick or one checkpoint.
//! `ops_per_s` is ops per cycle over the median cycle's wall time;
//! `elems_per_s` is elements per round over the median round's time in
//! ticks; `op_p50_ms` is the median over every op of the run.

use crate::report::{median, percentile, Report};
use crate::trace::{SpanId, Tracer};
use crate::{Ctx, TimedLoop};
use plis_baselines::{seq_bs_length, wlis_fenwick};
use plis_engine::{Engine, EngineConfig, EngineSnapshot, MetricsSnapshot, SessionKind, Tick};
use plis_workloads::streaming::{
    round_robin_ticks, session_fleet, weighted_session_fleet, SessionStream, WeightedSessionStream,
};
use std::hint::black_box;
use std::time::Instant;

struct Params {
    sessions: usize,
    n: usize,
    wsessions: usize,
    wn: usize,
    batch: usize,
    max_weight: u64,
}

fn params(ctx: &Ctx) -> Params {
    if ctx.tiny {
        Params { sessions: 4, n: 20_000, wsessions: 2, wn: 10_000, batch: 512, max_weight: 1_000 }
    } else {
        Params { sessions: 8, n: 125_000, wsessions: 4, wn: 62_500, batch: 4096, max_weight: 1_000 }
    }
}

/// The generated traffic of one seed, already shaped as engine ticks,
/// plus what the offline oracles say each session must end at.
struct Traffic {
    create: Tick,
    phase1: Vec<Tick>,
    phase2: Vec<Tick>,
    elems1: usize,
    elems2: usize,
    expect_lis: Vec<(String, u32)>,
    expect_score: Vec<(String, u64)>,
}

/// The unweighted and weighted fleets of one seed, re-cut into batches
/// of exactly `batch` elements: every tick of a phase then carries the
/// same load whatever the seed, so the latency distribution of ticks
/// has the same shape in every run.
fn fleets(p: &Params, seed: u64) -> (Vec<SessionStream>, Vec<WeightedSessionStream>) {
    let (fleet, _) = session_fleet(p.sessions, p.n, p.batch, seed);
    let (wfleet, _) =
        weighted_session_fleet(p.wsessions, p.wn, p.batch, p.max_weight, seed ^ 0x5EED);
    (recut(fleet, p.batch), recut(wfleet, p.batch))
}

fn recut<T: Clone>(fleet: Vec<(String, Vec<Vec<T>>)>, batch: usize) -> Vec<(String, Vec<Vec<T>>)> {
    fleet
        .into_iter()
        .map(|(name, batches)| (name, batches.concat().chunks(batch).map(<[T]>::to_vec).collect()))
        .collect()
}

/// One tick creating every session of both fleets.
fn create_tick(fleet: &[SessionStream], wfleet: &[WeightedSessionStream]) -> Tick {
    let plain = fleet.iter().map(|(name, _)| (name, SessionKind::Unweighted));
    let weighted = wfleet.iter().map(|(name, _)| (name, SessionKind::Weighted));
    plain.chain(weighted).fold(Tick::new(), |t, (name, kind)| t.create(name.as_str(), kind))
}

fn traffic(p: &Params, seed: u64, inject_fault: bool) -> Traffic {
    let (fleet, wfleet) = fleets(p, seed);
    let create = create_tick(&fleet, &wfleet);
    let phase1: Vec<Tick> = round_robin_ticks(&fleet, str::to_string)
        .into_iter()
        .map(|slots| slots.into_iter().fold(Tick::new(), |t, (id, b)| t.append(id, b)))
        .collect();
    let phase2: Vec<Tick> = round_robin_ticks(&wfleet, str::to_string)
        .into_iter()
        .map(|slots| slots.into_iter().fold(Tick::new(), |t, (id, b)| t.append_weighted(id, b)))
        .collect();
    let mut expect_lis: Vec<(String, u32)> = fleet
        .iter()
        .map(|(name, batches)| (name.clone(), seq_bs_length(&batches.concat())))
        .collect();
    if inject_fault {
        // A deliberately wrong expectation: counted failed each round.
        expect_lis[0].1 += 1;
    }
    let expect_score = wfleet
        .iter()
        .map(|(name, batches)| {
            let (values, weights): (Vec<u64>, Vec<u64>) = batches.concat().into_iter().unzip();
            (name.clone(), wlis_fenwick(&values, &weights).into_iter().max().unwrap_or(0))
        })
        .collect();
    Traffic {
        create,
        phase1,
        phase2,
        elems1: p.sessions * p.n,
        elems2: p.wsessions * p.wn,
        expect_lis,
        expect_score,
    }
}

/// Set-up probe, run in a fresh process: `Engine::new`, creating the
/// fleet, and the first append of each session kind (which runs the
/// per-process cost-model calibration).
pub fn setup_probe(ctx: &Ctx) -> f64 {
    let p = params(ctx);
    let (fleet, wfleet) = fleets(&p, ctx.seed);
    let create = create_tick(&fleet, &wfleet);
    let first = Tick::new()
        .append(fleet[0].0.as_str(), fleet[0].1[0].clone())
        .append_weighted(wfleet[0].0.as_str(), wfleet[0].1[0].clone());
    let start = Instant::now();
    let mut engine = Engine::new(EngineConfig::default());
    black_box(engine.execute(&create));
    black_box(engine.execute(&first));
    let secs = start.elapsed().as_secs_f64();
    drop(engine);
    secs
}

/// Rounds per checkpoint.  A checkpoint of the warm engine costs about
/// seven rounds' worth of ticks, so checkpointing every round would leave
/// the tick figures only an eighth of the run; one checkpoint per four
/// rounds gives the ticks about a third of it.
const CHECKPOINT_EVERY: usize = 4;

/// What the timed cycles measured.
#[derive(Default)]
struct Timed {
    /// Wall seconds of each cycle: [`CHECKPOINT_EVERY`] rounds of ticks
    /// plus the last round's checkpoint op.
    cycles: Vec<f64>,
    /// Seconds each round spent in ticks.
    round_ticks: Vec<f64>,
    /// The latency of every op: each tick, each checkpoint.
    ops: Vec<f64>,
    phase1_s: f64,
    phase2_s: f64,
    snapshot_bytes: usize,
    last_metrics: Option<MetricsSnapshot>,
}

fn execute_phase(
    engine: &mut Engine,
    ticks: &[Tick],
    report: &mut Report,
    tracer: &Tracer,
    parent: SpanId,
    samples: &mut Vec<f64>,
) -> f64 {
    let mut total = 0.0;
    for (i, tick) in ticks.iter().enumerate() {
        let span = tracer.begin("engine.execute", parent, i as u64);
        let start = Instant::now();
        let outcome = engine.execute(tick);
        let secs = start.elapsed().as_secs_f64();
        tracer.end(span);
        total += secs;
        samples.push(secs);
        report.check(outcome.fully_applied(), || format!("tick {i} was not fully applied"));
    }
    total
}

/// One round on a fresh engine, ending in a checkpoint op when
/// `checkpoint`; returns its timed seconds (ticks plus checkpoint).
fn one_round(
    t: &Traffic,
    report: &mut Report,
    tracer: &Tracer,
    op: u64,
    out: &mut Timed,
    checkpoint: bool,
) -> f64 {
    let config = EngineConfig::default();
    let mut engine = Engine::new(config.clone());
    report.check(engine.execute(&t.create).fully_applied(), || "fleet creation failed".into());

    let round = tracer.begin("ingest.round", SpanId::NONE, op);
    let p1 = execute_phase(&mut engine, &t.phase1, report, tracer, round, &mut out.ops);
    let p2 = execute_phase(&mut engine, &t.phase2, report, tracer, round, &mut out.ops);
    out.round_ticks.push(p1 + p2);
    out.phase1_s += p1;
    out.phase2_s += p2;

    // Oracle checks between the timed regions.
    for (name, want) in &t.expect_lis {
        let got = engine.lis_length(name);
        report.check(got == Some(*want), || format!("{name}: lis_length {got:?}, oracle {want}"));
    }
    for (name, want) in &t.expect_score {
        let got = engine.best_score(name);
        report.check(got == Some(*want), || format!("{name}: best_score {got:?}, oracle {want}"));
    }
    out.last_metrics = Some(engine.metrics_snapshot());
    if !checkpoint {
        tracer.end(round);
        return p1 + p2;
    }

    // The checkpoint op, first half: capture and encode.
    let start = Instant::now();
    let snapshot = tracer.span("engine.snapshot", round, op, || engine.snapshot());
    let bytes = tracer.span("snapshot.encode", round, op, || snapshot.encode());
    let save = start.elapsed().as_secs_f64();
    report.check(snapshot.session_count() == t.expect_lis.len() + t.expect_score.len(), || {
        format!("snapshot holds {} sessions", snapshot.session_count())
    });
    drop((engine, snapshot));

    // Second half: decode and restore, as a recovering server would.
    let start = Instant::now();
    let decoded = tracer.span("snapshot.decode", round, op, || EngineSnapshot::decode(&bytes));
    let restored = tracer.span("engine.restore", round, op, || {
        decoded.as_ref().ok().map(|d| Engine::restore(config.clone(), d))
    });
    let recover = start.elapsed().as_secs_f64();
    tracer.end(round);
    out.ops.push(save + recover);
    out.snapshot_bytes = bytes.len();
    match restored {
        Some(Ok(restored)) => {
            drop(decoded);
            let again = restored.snapshot().encode();
            report.check(again == bytes, || "restored engine's snapshot bytes differ".into());
        }
        Some(Err(e)) => report.fail(format!("restore rejected the snapshot: {e:?}")),
        None => report.fail(format!("decode rejected the snapshot: {:?}", decoded.err())),
    }
    p1 + p2 + save + recover
}

fn timed_cycles(t: &Traffic, report: &mut Report, tracer: &Tracer, seconds: f64) -> Timed {
    let mut out = Timed::default();
    let mut timed = TimedLoop::new(seconds);
    while timed.more() {
        let mut cycle = 0.0;
        for i in 1..=CHECKPOINT_EVERY {
            let op = out.round_ticks.len() as u64;
            cycle += one_round(t, report, tracer, op, &mut out, i == CHECKPOINT_EVERY);
        }
        out.cycles.push(cycle);
    }
    out
}

/// The first append of each kind minus the same append on a second
/// fresh session: the per-process cost-model calibration.  Must run
/// before anything else in the process touches a session.
fn calibration_ms(p: &Params, seed: u64, report: &mut Report) -> f64 {
    let (fleet, wfleet) = fleets(p, seed);
    let (batch, wbatch) = (&fleet[0].1[0], &wfleet[0].1[0]);
    let mut engine = Engine::new(EngineConfig::default());
    let create = Tick::new()
        .create("u-first", SessionKind::Unweighted)
        .create("u-steady", SessionKind::Unweighted)
        .create("w-first", SessionKind::Weighted)
        .create("w-steady", SessionKind::Weighted);
    report.check(engine.execute(&create).fully_applied(), || "calibration fleet".into());
    let mut timed = |tick: Tick| {
        let start = Instant::now();
        let outcome = engine.execute(&tick);
        let secs = start.elapsed().as_secs_f64();
        report.check(outcome.fully_applied(), || "calibration append".into());
        secs
    };
    let first_u = timed(Tick::new().append("u-first", batch.clone()));
    let steady_u = timed(Tick::new().append("u-steady", batch.clone()));
    let first_w = timed(Tick::new().append_weighted("w-first", wbatch.clone()));
    let steady_w = timed(Tick::new().append_weighted("w-steady", wbatch.clone()));
    (first_u - steady_u + first_w - steady_w) * 1e3
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let p = params(ctx);
    let calibration = if ctx.trace { calibration_ms(&p, ctx.seed, &mut report) } else { 0.0 };
    let setup_s = if ctx.trace { 0.0 } else { ctx.setup_from_probes(&mut report) };
    let t = traffic(&p, ctx.seed, ctx.inject_fault);
    let elems = (t.elems1 + t.elems2) as f64;

    // Warm-up round: untimed, still checked.  The peak RSS is read right
    // after it: one round's footprint, before the repetitions add
    // allocator noise.
    one_round(&t, &mut report, &Tracer::new(false), u64::MAX, &mut Timed::default(), true);
    let peak_rss_mb = crate::report::peak_rss_mb();

    let (measured, plain) = if ctx.trace {
        let plain = timed_cycles(&t, &mut report, &Tracer::new(false), ctx.seconds / 2.0);
        (timed_cycles(&t, &mut report, &ctx.tracer, ctx.seconds / 2.0), Some(plain))
    } else {
        (timed_cycles(&t, &mut report, &Tracer::new(false), ctx.seconds), None)
    };
    let m = measured.last_metrics.clone().unwrap_or_default();
    report.decision("seq_ingests", m.seq_ingests as f64);
    report.decision("par_merge_ingests", m.par_merge_ingests as f64);
    report.decision("inline_ticks", m.inline_ticks as f64);
    report.decision("tailset_veb_picks", m.tailset_veb_picks as f64);
    report.decision("tailset_sorted_picks", m.tailset_sorted_picks as f64);
    report.decision("ticks_per_round", (t.phase1.len() + t.phase2.len()) as f64);

    let rounds = measured.round_ticks.len() as f64;
    let ops_per_cycle = (CHECKPOINT_EVERY * (t.phase1.len() + t.phase2.len()) + 1) as f64;
    let Some(plain) = plain else {
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb, "MB");
        report.metric("ops_per_s", ops_per_cycle / median(&measured.cycles), "1/s");
        report.metric("elems_per_s", elems / median(&measured.round_ticks), "1/s");
        report.metric("op_p50_ms", median(&measured.ops) * 1e3, "ms");
        report.decision("rounds", rounds);
        report.notes.push(format!(
            "ingest-bulk: {} cycles of {CHECKPOINT_EVERY} rounds, {} ops, checkpoint share {:.3}",
            measured.cycles.len(),
            measured.ops.len(),
            1.0 - CHECKPOINT_EVERY as f64 * median(&measured.round_ticks)
                / median(&measured.cycles)
        ));
        return report;
    };

    let tr = &ctx.tracer;
    report.metric(
        "trace.overhead",
        median(&measured.cycles) / median(&plain.cycles) - 1.0,
        "ratio",
    );
    let ticks = tr.self_times("engine.execute");
    report.metric("engine.tick_p50_us", median(&ticks) * 1e6, "us");
    report.metric("engine.tick_p99_us", percentile(&ticks, 0.99) * 1e6, "us");
    report.metric("engine.seq_ingests", m.seq_ingests as f64, "count");
    report.metric("engine.par_merge_ingests", m.par_merge_ingests as f64, "count");
    report.metric("engine.inline_ticks", m.inline_ticks as f64, "count");
    report.metric(
        "engine.unweighted_elems_per_s",
        rounds * t.elems1 as f64 / measured.phase1_s,
        "1/s",
    );
    report.metric(
        "engine.weighted_elems_per_s",
        rounds * t.elems2 as f64 / measured.phase2_s,
        "1/s",
    );
    report.metric("cost.calibration_ms", calibration, "ms");
    report.metric("snapshot.bytes", measured.snapshot_bytes as f64, "count");
    for (metric, span) in [
        ("engine.snapshot_ms", "engine.snapshot"),
        ("snapshot.encode_ms", "snapshot.encode"),
        ("snapshot.decode_ms", "snapshot.decode"),
        ("engine.restore_ms", "engine.restore"),
    ] {
        report.metric(metric, median(&tr.self_times(span)) * 1e3, "ms");
    }
    report
}
