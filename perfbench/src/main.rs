//! `perfbench`: the end-to-end and per-layer benchmark of the plis
//! workspace.  `run.py` builds this package and calls
//!
//! ```text
//! perfbench run --workload <offline-paper|ingest-bulk|serve-closed>
//!               --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//!               [--tiny] [--inject-fault]
//! ```
//!
//! and prints the decision line and then the result line on standard
//! output.  `--trace 0` reports every end-to-end metric of [`E2E`];
//! `--trace 1` reports every per-layer metric of [`PER_LAYER`] (0 for a
//! layer the workload does not touch).  `--tiny` shrinks every input for
//! the self-test; `--inject-fault` plants one wrong expected output so the
//! self-test can see it counted as failed.
//!
//! Two internal modes re-run this executable in a fresh process:
//! `setup-probe` times one workload's set-up (so each sample includes
//! per-process costs such as the cost-model calibration), and
//! `serve-child` is the server under test of `serve-closed`.

mod ingest;
mod offline;
mod report;
mod serve;
mod trace;

use report::{median, Report};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics: every workload reports all of them (an op is a
/// paper round, an engine tick, or a request; see README.md).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("elems_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run, grouped by the workload that
/// exercises the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // offline-paper
    ("rayon.join_us", "us"),
    ("tournament.build_ms", "ms"),
    ("tournament.round_p50_us", "us"),
    ("tournament.round_p99_us", "us"),
    ("tournament.rounds", "count"),
    ("tournament.nodes_visited", "count"),
    ("lis.par_k1e2_s", "s"),
    ("lis.par_k1e3_s", "s"),
    ("lis.wlis_par_s", "s"),
    ("lis.seq_k1e2_s", "s"),
    ("lis.seq_k1e3_s", "s"),
    ("lis.wlis_seq_s", "s"),
    ("baselines.seqbs_k1e2_s", "s"),
    ("baselines.seqbs_k1e3_s", "s"),
    ("rangeveb.wlis_s", "s"),
    ("veb.batch_insert_ms", "ms"),
    ("veb.batch_delete_ms", "ms"),
    ("veb.range_ms", "ms"),
    // ingest-bulk (the engine.tick_* pair is also filled by serve-closed)
    ("engine.tick_p50_us", "us"),
    ("engine.tick_p99_us", "us"),
    ("engine.seq_ingests", "count"),
    ("engine.par_merge_ingests", "count"),
    ("engine.inline_ticks", "count"),
    ("engine.unweighted_elems_per_s", "1/s"),
    ("engine.weighted_elems_per_s", "1/s"),
    ("cost.calibration_ms", "ms"),
    ("snapshot.bytes", "count"),
    ("engine.snapshot_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("engine.restore_ms", "ms"),
    // serve-closed
    ("client.op_p99_ms", "ms"),
    ("client.send_us_p50", "us"),
    ("client.recv_wait_us_p50", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("server.ticks", "count"),
    ("server.ops_per_tick", "count"),
    ("engine.busy_s", "s"),
    ("engine.lib_ops_per_s", "1/s"),
    ("served_over_lib", "ratio"),
    ("server.residual_us", "us"),
    // every workload
    ("trace.overhead", "ratio"),
];

pub const WORKLOADS: &[&str] = &["offline-paper", "ingest-bulk", "serve-closed"];

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub inject_fault: bool,
    pub out_dir: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// Arguments that make a child process generate the same inputs.
    fn child_args(&self) -> Vec<String> {
        let mut args = vec!["--workload".into(), self.workload.clone(), "--seed".into()];
        args.push(self.seed.to_string());
        if self.tiny {
            args.push("--tiny".into());
        }
        args
    }

    /// `setup_s`: the median over fresh processes of one set-up each.  A
    /// probe that fails counts as a failed op.
    pub fn setup_from_probes(&self, report: &mut Report) -> f64 {
        let exe = std::env::current_exe().expect("path of the running executable");
        let mut samples = Vec::new();
        for _ in 0..SETUP_SAMPLES {
            let out = Command::new(&exe).arg("setup-probe").args(self.child_args()).output();
            let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
                String::from_utf8_lossy(&o.stdout).lines().last()?.trim().parse::<f64>().ok()
            });
            match parsed {
                Some(secs) => samples.push(secs),
                None => report.fail("set-up probe process failed".into()),
            }
        }
        median(&samples)
    }
}

/// Runs a timed loop for a fixed wall time, and at least three
/// iterations so that a median exists.
pub struct TimedLoop {
    deadline: Instant,
    iters: usize,
}

impl TimedLoop {
    pub fn new(seconds: f64) -> TimedLoop {
        TimedLoop { deadline: Instant::now() + Duration::from_secs_f64(seconds), iters: 0 }
    }

    /// Whether to run another iteration.
    pub fn more(&mut self) -> bool {
        let go = self.iters < 3 || Instant::now() < self.deadline;
        self.iters += usize::from(go);
        go
    }
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    inject_fault: bool,
    out_dir: Option<PathBuf>,
    snapshot_out: Option<PathBuf>,
    journal_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode: run, setup-probe or serve-child")?;
    let mut a = Args {
        mode,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject_fault: false,
        out_dir: None,
        snapshot_out: None,
        journal_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--out-dir" => a.out_dir = Some(value()?.into()),
            "--snapshot-out" => a.snapshot_out = Some(value()?.into()),
            "--journal-out" => a.journal_out = Some(value()?.into()),
            "--tiny" => a.tiny = true,
            "--inject-fault" => a.inject_fault = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.mode != "serve-child" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.mode == "serve-child" {
        serve::child_main(args.snapshot_out, args.journal_out);
        return;
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: args.tiny,
        inject_fault: args.inject_fault,
        out_dir: args.out_dir.unwrap_or_else(std::env::temp_dir),
        tracer: Tracer::new(args.trace),
    };
    match args.mode.as_str() {
        "setup-probe" => {
            let secs = match ctx.workload.as_str() {
                "offline-paper" => offline::setup_probe(&ctx),
                "ingest-bulk" => ingest::setup_probe(&ctx),
                _ => {
                    eprintln!("perfbench: serve-closed sets up its own server processes");
                    std::process::exit(2);
                }
            };
            println!("{secs}");
        }
        "run" => run(ctx),
        other => {
            eprintln!("perfbench: unknown mode {other}");
            std::process::exit(2);
        }
    }
}

fn run(ctx: Ctx) {
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out_dir.display());
        std::process::exit(2);
    }
    let ticks = report::cpu_ticks();
    let mut report = match ctx.workload.as_str() {
        "offline-paper" => offline::run(&ctx),
        "ingest-bulk" => ingest::run(&ctx),
        _ => serve::run(&ctx),
    };
    report.decision("host_steal_share", report::steal_share_since(ticks));
    // Report exactly the catalogue of this run's kind, in catalogue order;
    // a layer the workload never touched reads 0.
    let catalogue = if ctx.trace { PER_LAYER } else { E2E };
    let mut measured = std::mem::take(&mut report.metrics);
    for &(name, unit) in catalogue {
        let value = match measured.iter().position(|m| m.name == name) {
            Some(i) => measured.swap_remove(i).value,
            None if ctx.trace => 0.0,
            None => {
                report.fail(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        report.metric(name, value, unit);
    }
    for stray in measured {
        report.notes.push(format!("unlisted metric {} = {}", stray.name, stray.value));
    }
    if ctx.trace {
        let path = ctx.out_dir.join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    for note in &report.notes {
        eprintln!("{note}");
    }
    println!("{}", report.decision_line());
    println!("{}", report.result_line());
}
