//! `serve-closed`: the server in its own process, driven by a closed-loop
//! load generator in this one.
//!
//! Stresses: frames, the wire codec, the batcher and loopback sockets —
//! the deployed shape, where engine work per op is small.  Bypasses: the
//! paper's offline entry points and large-batch ingest (no batch here
//! comes near the parallel-merge sizes).  Reads sit beside writes, so a
//! change that speeds ingest at the cost of queries shows up as a gain on
//! `ingest-bulk` and a loss here.
//!
//! The server under test is this executable re-run as `serve-child`,
//! which calls `ServerHandle::start` with the default `ServerConfig`
//! (256-op / 200 µs batch trigger).  The load generator is one thread
//! owning one connection and 64 session slots, with exactly one op in
//! flight per slot (64 in flight).  One connection keeps the threads
//! that compete for the 2 vCPUs to the loadgen, the server's reader and
//! its batcher; with 2 connections the serving figures moved half again
//! as much between runs, at the same throughput.  Traffic: 48 unweighted slots with 25%
//! reads (4 queries per read) and 16 weighted slots, mean write batch 64,
//! 3.2·10^4 elements per session.  A slot that finishes its schedule
//! retires the session and starts the same schedule on a fresh one
//! (remove + create in one request), so the load stays at 64 in flight
//! for the whole run while server memory stays bounded.  An op is one
//! request, timed from `Client::send_*` to the decoded reply.

use crate::report::{mean, median, percentile, vm_hwm_mb, Report};
use crate::trace::{SpanId, Tracer};
use crate::Ctx;
use plis_engine::{
    decode_read_outcome, decode_read_tick, decode_tick, decode_tick_outcome, encode_read_outcome,
    encode_read_tick, encode_tick, encode_tick_outcome, Engine, EngineConfig, Query, ReadTick,
    SessionKind, Tick,
};
use plis_server::{Client, JournalMode, Response, ServerConfig, ServerHandle};
use plis_workloads::streaming::{mixed_session_fleet, weighted_session_fleet, ReadWriteOp};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

struct Params {
    unweighted: usize,
    weighted: usize,
    n: usize,
    mean_batch: usize,
    read_mix: f64,
    queries_per_read: usize,
    max_weight: u64,
    conns: usize,
}

fn params(ctx: &Ctx) -> Params {
    let (unweighted, weighted, n) = if ctx.tiny { (6, 2, 1_000) } else { (48, 16, 32_000) };
    Params {
        unweighted,
        weighted,
        n,
        mean_batch: 64,
        read_mix: 0.25,
        queries_per_read: 4,
        max_weight: 1_000,
        conns: 1,
    }
}

/// One op of a slot's schedule, independent of the session it targets.
enum SlotOp {
    Write(Vec<u64>),
    WeightedWrite(Vec<(u64, u64)>),
    Read(Vec<Query>),
}

/// A session slot: a schedule that is replayed on generation after
/// generation of sessions named `g<gen>-<base>`.
struct Slot {
    base: String,
    kind: SessionKind,
    ops: Vec<SlotOp>,
}

enum Request {
    Write(Tick),
    Read(ReadTick),
}

impl Slot {
    fn session(&self, gen: usize) -> String {
        format!("g{gen}-{}", self.base)
    }

    /// Request number `i` of this slot: `ops.len()` schedule ops, then
    /// one request retiring the session and creating the next one.
    fn request(&self, i: usize) -> Request {
        let per_gen = self.ops.len() + 1;
        let (gen, step) = (i / per_gen, i % per_gen);
        let id = self.session(gen);
        match self.ops.get(step) {
            Some(SlotOp::Write(b)) => Request::Write(Tick::new().append(id, b.clone())),
            Some(SlotOp::WeightedWrite(b)) => {
                Request::Write(Tick::new().append_weighted(id, b.clone()))
            }
            Some(SlotOp::Read(q)) => Request::Read(ReadTick::new().query(id, q.clone())),
            None => Request::Write(Tick::new().remove(id).create(self.session(gen + 1), self.kind)),
        }
    }

    /// Elements written by request number `i`.
    fn written(&self, i: usize) -> usize {
        match self.ops.get(i % (self.ops.len() + 1)) {
            Some(SlotOp::Write(b)) => b.len(),
            Some(SlotOp::WeightedWrite(b)) => b.len(),
            _ => 0,
        }
    }
}

fn slots(p: &Params, seed: u64, inject_fault: bool) -> Vec<Slot> {
    let (mixed, _) =
        mixed_session_fleet(p.unweighted, p.n, p.mean_batch, p.read_mix, p.queries_per_read, seed);
    let (weighted, _) =
        weighted_session_fleet(p.weighted, p.n, p.mean_batch, p.max_weight, seed ^ 0x5EED);
    let mut out: Vec<Slot> = mixed
        .into_iter()
        .map(|(base, ops)| Slot {
            base,
            kind: SessionKind::Unweighted,
            ops: ops
                .into_iter()
                .map(|op| match op {
                    ReadWriteOp::Write(b) => SlotOp::Write(b),
                    ReadWriteOp::Read(specs) => {
                        SlotOp::Read(specs.into_iter().map(Query::from).collect())
                    }
                })
                .collect(),
        })
        .collect();
    out.extend(weighted.into_iter().map(|(base, batches)| Slot {
        base,
        kind: SessionKind::Weighted,
        ops: batches.into_iter().map(SlotOp::WeightedWrite).collect(),
    }));
    if inject_fault {
        // A deliberately wrong request: a weighted batch sent to an
        // unweighted session is rejected with a typed error, which the
        // load generator must count as a failed op and carry on.
        if let Some(SlotOp::Write(b)) = out[0].ops.first() {
            let bad = b.iter().map(|&v| (v, 1)).collect();
            out[0].ops[0] = SlotOp::WeightedWrite(bad);
        }
    }
    out
}

/// The requests every run sends before the first timed op: per
/// connection, one tick creating its slots' first sessions; then one
/// warm-up append per session kind.
fn setup_requests(slots: &[Slot], conns: usize) -> Vec<(usize, Tick)> {
    let mut out: Vec<(usize, Tick)> = (0..conns)
        .map(|c| {
            let tick = slots
                .iter()
                .skip(c)
                .step_by(conns)
                .fold(Tick::new(), |t, s| t.create(s.session(0), s.kind));
            (c, tick)
        })
        .collect();
    let warm = Tick::new()
        .create("warm-u", SessionKind::Unweighted)
        .create("warm-w", SessionKind::Weighted)
        .append("warm-u", (0..64u64).collect())
        .append_weighted("warm-w", (0..64u64).map(|v| (v, 1 + v % 7)).collect());
    out.push((0, warm));
    out
}

// ---------------------------------------------------------------------
// The server process.

/// `serve-child`: start the server, announce the address, serve until
/// standard input closes, then drain and write the final snapshot (and
/// journal) where the parent asked.
pub fn child_main(snapshot_out: Option<PathBuf>, journal_out: Option<PathBuf>) {
    let config = ServerConfig {
        journal: if journal_out.is_some() { JournalMode::Memory } else { JournalMode::Off },
        ..ServerConfig::default()
    };
    let server = ServerHandle::start(config).expect("bind a loopback port");
    println!("listening on {}", server.addr());
    std::io::stdout().flush().expect("announce the address");
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    // Peak memory while serving; the exit snapshot below is the
    // benchmark's check, not part of the serving footprint.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let report = server.shutdown();
    if let Some(path) = snapshot_out {
        std::fs::write(path, report.snapshot.encode()).expect("write the exit snapshot");
    }
    if let (Some(path), Some(journal)) = (journal_out, report.journal) {
        std::fs::write(path, journal).expect("write the journal");
    }
    println!("stats {} {}", report.ticks_executed, vm_hwm_mb(&status));
}

/// A running `serve-child`.  Dropping it kills the process if it is
/// still running, so no path leaves a server behind.
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

/// What a server process reported when it exited.
struct ServerExit {
    ticks: u64,
    peak_rss_mb: f64,
}

impl ServerProc {
    fn spawn(snapshot: &Path, journal: Option<&Path>) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve-child").arg("--snapshot-out").arg(snapshot);
        if let Some(j) = journal {
            cmd.arg("--journal-out").arg(j);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn the server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("the server exited before listening".into());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        break addr.parse().map_err(|e| format!("bad address {addr}: {e}"))?;
                    }
                }
            }
        };
        Ok(ServerProc { child, stdout, addr })
    }

    /// Close standard input (the shutdown signal), let the server drain,
    /// and read its exit line.
    fn finish(mut self) -> Result<ServerExit, String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("the server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("the server did not drain within 60 s".into()),
            }
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let stats = rest.lines().rev().find_map(|l| l.strip_prefix("stats ")).ok_or("no stats")?;
        let mut it = stats.split_whitespace();
        let ticks = it.next().and_then(|v| v.parse().ok()).ok_or("bad tick count")?;
        let peak_rss_mb = it.next().and_then(|v| v.parse().ok()).ok_or("bad rss")?;
        Ok(ServerExit { ticks, peak_rss_mb })
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawn a server and bring it to the first timed op: connections open,
/// fleet created, one warm-up append per kind acknowledged.  Returns the
/// set-up seconds.
fn set_up(
    plan: &Plan,
    snapshot: &Path,
    journal: Option<&Path>,
) -> Result<(ServerProc, Vec<Client>, f64), String> {
    let start = Instant::now();
    let server = ServerProc::spawn(snapshot, journal)?;
    let mut clients: Vec<Client> = (0..plan.conns)
        .map(|_| Client::connect(server.addr))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    for (conn, tick) in &plan.setup {
        let outcome = clients[*conn].submit(tick).map_err(|e| format!("set-up request: {e}"))?;
        if !outcome.fully_applied() {
            return Err("a set-up request was not fully applied".into());
        }
    }
    Ok((server, clients, start.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------------
// The load generator.

struct Plan {
    slots: Vec<Slot>,
    setup: Vec<(usize, Tick)>,
    conns: usize,
}

/// The timed run is cut into this many equal windows; each end-to-end
/// number is the median over the windows, so a stall in one window moves
/// it less than a pooled figure.
const WINDOWS: usize = 15;

/// One completed request: when its reply was decoded, its latency, and
/// the elements it wrote.
struct Completion {
    at: Instant,
    latency: f64,
    written: usize,
}

/// What one window of the closed loop measured.
struct Window {
    ops_per_s: f64,
    elems_per_s: f64,
    p50: f64,
    p99: f64,
}

/// What one closed-loop drive measured.
#[derive(Default)]
struct Drive {
    /// Requests sent per slot (the library replay re-sends exactly these).
    sent: Vec<usize>,
    /// Latency of every completed request, including the drain after the
    /// deadline.
    latencies: Vec<f64>,
    windows: Vec<Window>,
    failures: Vec<String>,
}

impl Drive {
    /// Median over the windows of one per-window figure.
    fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }
}

/// Per-connection result of the closed loop.
struct ConnDrive {
    sent: Vec<(usize, usize)>,
    completions: Vec<Completion>,
    failures: Vec<String>,
}

fn drive_conn(
    conn: usize,
    mut client: Client,
    plan: &Plan,
    deadline: Instant,
    tracer: &Tracer,
) -> ConnDrive {
    let mine: Vec<usize> = (conn..plan.slots.len()).step_by(plan.conns).collect();
    let mut sent = vec![0usize; mine.len()];
    let mut in_flight: HashMap<u64, (usize, Instant, usize)> = HashMap::with_capacity(mine.len());
    let mut out = ConnDrive { sent: Vec::new(), completions: Vec::new(), failures: Vec::new() };
    let op_base = (conn as u64) << 48;
    let send = |client: &mut Client, local: usize, sent: &mut [usize]| {
        let slot = &plan.slots[mine[local]];
        let i = sent[local];
        let request = slot.request(i);
        let start = Instant::now();
        let span = tracer.begin("client.send", SpanId::NONE, op_base);
        let id = match &request {
            Request::Write(t) => client.send_tick(t),
            Request::Read(t) => client.send_read(t),
        };
        tracer.end(span);
        sent[local] += 1;
        id.map(|id| (id, (local, start, slot.written(i))))
    };
    for local in 0..mine.len() {
        match send(&mut client, local, &mut sent) {
            Ok((id, entry)) => {
                in_flight.insert(id, entry);
            }
            Err(e) => out.failures.push(format!("send: {e}")),
        }
    }
    while !in_flight.is_empty() {
        let span = tracer.begin("client.recv_wait", SpanId::NONE, op_base);
        let response = client.recv();
        tracer.end(span);
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                // The connection is gone: every op still in flight fails.
                out.failures.extend((0..in_flight.len()).map(|_| format!("recv: {e}")));
                break;
            }
        };
        let Some((local, start, written)) = in_flight.remove(&response.request_id()) else {
            out.failures.push(format!("reply to unknown request {}", response.request_id()));
            continue;
        };
        let now = Instant::now();
        out.completions.push(Completion { at: now, latency: (now - start).as_secs_f64(), written });
        let ok = match &response {
            Response::Tick { outcome, .. } => outcome.fully_applied(),
            Response::Read { outcome, .. } => outcome.outcomes.iter().all(|(_, r)| r.is_ok()),
        };
        if !ok {
            out.failures.push(format!("slot {}: request not applied: {response:?}", mine[local]));
        }
        if now < deadline {
            match send(&mut client, local, &mut sent) {
                Ok((id, entry)) => {
                    in_flight.insert(id, entry);
                }
                Err(e) => out.failures.push(format!("send: {e}")),
            }
        }
    }
    out.sent = mine.into_iter().zip(sent).collect();
    out
}

fn drive(plan: &Plan, clients: Vec<Client>, seconds: f64, tracer: &Tracer) -> Drive {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<ConnDrive> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| s.spawn(move || drive_conn(conn, client, plan, deadline, tracer)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator thread panicked")).collect()
    });
    let mut d = Drive { sent: vec![0; plan.slots.len()], ..Drive::default() };
    let mut completions = Vec::new();
    for c in per_conn {
        for (slot, n) in c.sent {
            d.sent[slot] = n;
        }
        completions.extend(c.completions);
        d.failures.extend(c.failures);
    }
    d.latencies = completions.iter().map(|c| c.latency).collect();
    let width = seconds / WINDOWS as f64;
    let mut per_window: Vec<Vec<&Completion>> = (0..WINDOWS).map(|_| Vec::new()).collect();
    for c in &completions {
        let w = ((c.at - start).as_secs_f64() / width) as usize;
        if let Some(bucket) = per_window.get_mut(w) {
            bucket.push(c);
        }
    }
    d.windows = per_window
        .into_iter()
        .map(|cs| {
            let latencies: Vec<f64> = cs.iter().map(|c| c.latency).collect();
            Window {
                ops_per_s: cs.len() as f64 / width,
                elems_per_s: cs.iter().map(|c| c.written).sum::<usize>() as f64 / width,
                p50: median(&latencies),
                p99: percentile(&latencies, 0.99),
            }
        })
        .collect();
    d
}

// ---------------------------------------------------------------------
// The library side: the same requests through `Engine::execute`.

/// Library replay timings (traced run only).
#[derive(Default)]
struct LibTimes {
    total_s: f64,
    read_s: f64,
    wire_encode_s: f64,
    wire_decode_s: f64,
    wire_mismatches: usize,
}

/// Replay the set-up requests and every sent request in-process; returns
/// the final snapshot bytes.  Sessions are independent, so slot order
/// does not change the final state.  With `times`, also time the engine
/// and the public wire codec on every request and its outcome.
fn library_replay(plan: &Plan, sent: &[usize], mut times: Option<&mut LibTimes>) -> Vec<u8> {
    let mut engine = Engine::new(EngineConfig::default());
    for (_, tick) in &plan.setup {
        engine.execute(tick);
    }
    for (slot, &n) in plan.slots.iter().zip(sent) {
        for i in 0..n {
            let request = slot.request(i);
            let start = Instant::now();
            match &request {
                Request::Write(tick) => {
                    let outcome = engine.execute(tick);
                    let Some(t) = times.as_deref_mut() else { continue };
                    t.total_s += start.elapsed().as_secs_f64();
                    let start = Instant::now();
                    let (req, out) = (encode_tick(tick), encode_tick_outcome(&outcome));
                    let encoded = Instant::now();
                    let (req_back, out_back) = (decode_tick(&req), decode_tick_outcome(&out));
                    let ok =
                        req_back.is_ok_and(|r| &r == tick) && out_back.is_ok_and(|o| o == outcome);
                    t.wire(start, encoded, ok);
                }
                Request::Read(tick) => {
                    let outcome = engine.execute_read(tick);
                    let Some(t) = times.as_deref_mut() else { continue };
                    let secs = start.elapsed().as_secs_f64();
                    t.total_s += secs;
                    t.read_s += secs;
                    let start = Instant::now();
                    let (req, out) = (encode_read_tick(tick), encode_read_outcome(&outcome));
                    let encoded = Instant::now();
                    let (req_back, out_back) = (decode_read_tick(&req), decode_read_outcome(&out));
                    let ok =
                        req_back.is_ok_and(|r| &r == tick) && out_back.is_ok_and(|o| o == outcome);
                    t.wire(start, encoded, ok);
                }
            }
        }
    }
    engine.snapshot().encode()
}

impl LibTimes {
    /// Account one request's four codec calls (encode and decode the
    /// request and its outcome): encoding ran from `start` to `encoded`,
    /// decoding from `encoded` to now.  The equality check behind `ok`
    /// runs after the decode clock stopped.
    fn wire(&mut self, start: Instant, encoded: Instant, ok: bool) {
        let decoded = Instant::now();
        self.wire_encode_s += (encoded - start).as_secs_f64();
        self.wire_decode_s += (decoded - encoded).as_secs_f64();
        self.wire_mismatches += usize::from(!ok);
    }
}

/// Replay the server's journal (its combined write ticks) through
/// `Engine::execute`, timing each tick.  Returns the replayed engine's
/// snapshot bytes, or why the journal could not be read.
fn journal_replay(journal: &[u8], tracer: &Tracer) -> Result<Vec<u8>, String> {
    let contents = plis_telemetry::read_journal(journal).map_err(|e| format!("journal: {e:?}"))?;
    let ticks: Vec<Tick> = contents
        .records
        .iter()
        .map(|r| decode_tick(r))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("journal tick: {e:?}"))?;
    let mut engine = Engine::new(EngineConfig::default());
    for (i, tick) in ticks.iter().enumerate() {
        tracer.span("engine.execute", SpanId::NONE, i as u64, || engine.execute(tick));
    }
    Ok(engine.snapshot().encode())
}

// ---------------------------------------------------------------------

/// What one served segment measured, and the server's exit snapshot.
struct Segment {
    drive: Drive,
    exit: ServerExit,
    snapshot: Vec<u8>,
}

/// Set up `setups` servers in turn (the last one serves, the others only
/// time their set-up), drive the last, shut it down, and check served ≡
/// library.  Returns the segment and the set-up seconds, or `None` (with
/// the failure counted) when no server could be set up or shut down.
fn serve_segment(
    plan: &Plan,
    ctx: &Ctx,
    setups: usize,
    journal: Option<&Path>,
    tracer: &Tracer,
    report: &mut Report,
) -> Option<(Segment, Vec<f64>)> {
    let snapshot_path = ctx.out_dir.join(format!("serve-snapshot-seed{}.bin", ctx.seed));
    let mut setup_s = Vec::new();
    let mut live = None;
    for i in 0..setups {
        match set_up(plan, &snapshot_path, journal) {
            Ok((server, clients, secs)) => {
                setup_s.push(secs);
                if i + 1 == setups {
                    live = Some((server, clients));
                } else {
                    drop(clients);
                    if let Err(e) = server.finish() {
                        report.fail(format!("set-up server shutdown: {e}"));
                    }
                }
            }
            Err(e) => report.fail(format!("server set-up: {e}")),
        }
    }
    let (server, clients) = live?;
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let drive = drive(plan, clients, seconds, tracer);
    let exit = match server.finish() {
        Ok(exit) => exit,
        Err(e) => {
            report.fail(format!("server shutdown: {e}"));
            return None;
        }
    };
    let snapshot = std::fs::read(&snapshot_path).unwrap_or_default();

    report.attempted += (drive.latencies.len() + drive.failures.len()) as u64;
    report.failed += drive.failures.len() as u64;
    for f in drive.failures.iter().take(5) {
        report.notes.push(format!("FAILED: {f}"));
    }
    let library = library_replay(plan, &drive.sent, None);
    report.check(library == snapshot, || {
        "the server's exit snapshot differs from the library replay".into()
    });
    Some((Segment { drive, exit, snapshot }, setup_s))
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let p = params(ctx);
    let slots = slots(&p, ctx.seed, ctx.inject_fault);
    let setup = setup_requests(&slots, p.conns);
    let plan = Plan { slots, setup, conns: p.conns };
    let off = Tracer::new(false);

    if !ctx.trace {
        let Some((seg, setup_s)) =
            serve_segment(&plan, ctx, crate::SETUP_SAMPLES, None, &off, &mut report)
        else {
            return report;
        };
        let d = &seg.drive;
        report.decision("server.ticks", seg.exit.ticks as f64);
        report.decision(
            "server.ops_per_tick",
            d.latencies.len() as f64 / seg.exit.ticks.max(1) as f64,
        );
        report.decision("latency_samples", d.latencies.len() as f64);
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("peak_rss_mb", seg.exit.peak_rss_mb, "MB");
        report.metric("ops_per_s", d.median_of(|w| w.ops_per_s), "1/s");
        report.metric("elems_per_s", d.median_of(|w| w.elems_per_s), "1/s");
        report.metric("op_p50_ms", d.median_of(|w| w.p50) * 1e3, "ms");
        return report;
    }

    // Traced run: an untraced segment, then a traced one with the server
    // journalling so its combined ticks can be replayed and timed.
    let Some((plain, _)) = serve_segment(&plan, ctx, 1, None, &off, &mut report) else {
        return report;
    };
    let journal_path = ctx.out_dir.join(format!("serve-journal-seed{}.bin", ctx.seed));
    let tr = &ctx.tracer;
    let Some((seg, _)) = serve_segment(&plan, ctx, 1, Some(&journal_path), tr, &mut report) else {
        return report;
    };
    let plain_rate = plain.drive.median_of(|w| w.ops_per_s);
    let d = &seg.drive;
    let requests = d.latencies.len() as f64;
    let rate = d.median_of(|w| w.ops_per_s);
    report.metric("trace.overhead", plain_rate / rate - 1.0, "ratio");
    report.metric("client.op_p99_ms", plain.drive.median_of(|w| w.p99) * 1e3, "ms");
    report.metric("client.send_us_p50", median(&tr.self_times("client.send")) * 1e6, "us");
    report.metric(
        "client.recv_wait_us_p50",
        median(&tr.self_times("client.recv_wait")) * 1e6,
        "us",
    );
    report.metric("server.ticks", seg.exit.ticks as f64, "count");
    report.metric("server.ops_per_tick", requests / seg.exit.ticks.max(1) as f64, "count");

    let journal = std::fs::read(&journal_path).unwrap_or_default();
    match journal_replay(&journal, tr) {
        Ok(replayed) => report.check(replayed == seg.snapshot, || {
            "replaying the server's journal does not reproduce its snapshot".into()
        }),
        Err(e) => report.fail(e),
    }
    let ticks = tr.self_times("engine.execute");
    let mut lib = LibTimes::default();
    library_replay(&plan, &d.sent, Some(&mut lib));
    report.check(lib.wire_mismatches == 0, || {
        format!("{} requests or outcomes did not survive the wire codec", lib.wire_mismatches)
    });
    let busy = ticks.iter().sum::<f64>() + lib.read_s;
    let wire_encode_us = lib.wire_encode_s / requests * 1e6;
    let wire_decode_us = lib.wire_decode_s / requests * 1e6;
    let lib_rate = requests / lib.total_s;
    report.metric("engine.tick_p50_us", median(&ticks) * 1e6, "us");
    report.metric("engine.tick_p99_us", percentile(&ticks, 0.99) * 1e6, "us");
    report.metric("engine.busy_s", busy, "s");
    report.metric("engine.lib_ops_per_s", lib_rate, "1/s");
    report.metric("served_over_lib", plain_rate / lib_rate, "ratio");
    report.metric("wire.encode_us", wire_encode_us, "us");
    report.metric("wire.decode_us", wire_decode_us, "us");
    report.metric(
        "server.residual_us",
        mean(&d.latencies) * 1e6 - busy / requests * 1e6 - wire_encode_us - wire_decode_us,
        "us",
    );
    report
}
