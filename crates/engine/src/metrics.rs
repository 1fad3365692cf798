//! The engine's telemetry plane: a registry of atomic counters and
//! log-scale latency histograms, plus the typed [`MetricsSnapshot`] read
//! surface.
//!
//! # Design
//!
//! Telemetry is **purely observational**: every instrumentation point reads
//! state the engine computes anyway (tick outcomes, ingest reports) or
//! wall-clock time, and writes only to relaxed atomics.  Outcomes are
//! bit-identical with telemetry enabled or disabled, at one thread or the
//! full pool — the determinism suite asserts this.
//!
//! One switch controls cost: [`Metrics::set_enabled`].  Disabled, the
//! timer helpers return `None`, the per-op clock reads are skipped and the
//! tick recorders return without touching a counter.
//!
//! Latencies go into [`plis_telemetry::AtomicHistogram`]s (fixed log-scale
//! buckets, ≤ 6.25 % relative error, lock-free merge), counters into
//! [`plis_telemetry::Counter`]s.

use crate::op::{OpOutput, ReadOutcome, TickOutcome};
use crate::session::IngestPath;
use plis_telemetry::{json_line, AtomicHistogram, Counter, HistogramSnapshot, JsonValue};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Per-tick digest of the path/delta counters derived from one
/// [`TickOutcome`] — what the tick recorder just
/// added to the cumulative registry, returned so the trace sink can
/// stamp the individual tick without re-deriving it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickDigest {
    /// Ingests that took the sequential path in this tick.
    pub seq_ingests: u64,
    /// Ingests that took the parallel merge path in this tick.
    pub par_merge_ingests: u64,
    /// Total size of the parallel merge runs (`tails ++ batch` /
    /// `frontier ++ batch`) in this tick.
    pub par_merge_elems: u64,
    /// Elements moved through the vEB tail-set batch delta
    /// (`batch_insert` + `batch_delete` sizes) in this tick.
    pub veb_delta_elems: u64,
    /// Weighted parallel ingests whose dominant-max store resolved to the
    /// range tree (counts `Auto` picks and forced kinds alike).
    pub dommax_tree_picks: u64,
    /// Weighted parallel ingests whose dominant-max store resolved to the
    /// range vEB.
    pub dommax_veb_picks: u64,
    /// Unweighted parallel ingests whose tail-set delta went to the vEB
    /// mirror (counts `Backend::Auto` picks and the forced backend alike).
    pub tailset_veb_picks: u64,
    /// Unweighted parallel ingests whose tail-set delta resolved to the
    /// stateless sorted-vec probe.
    pub tailset_sorted_picks: u64,
}

/// Derive the path/delta digest for one executed tick by walking its
/// per-op reports.  Pure function of the outcome, so the trace sink
/// sees exactly what the registry accumulated.
fn digest_of(outcome: &TickOutcome) -> TickDigest {
    let mut d = TickDigest::default();
    for (_, result) in &outcome.outcomes {
        let Ok(OpOutput::Appended(report)) = result else { continue };
        match report {
            crate::BatchReport::Unweighted(r) => match r.path {
                IngestPath::Sequential => d.seq_ingests += 1,
                IngestPath::ParallelMerge => {
                    d.par_merge_ingests += 1;
                    // The merge run is `tails ++ batch`.
                    d.par_merge_elems += u64::from(r.lis_before) + r.ingested as u64;
                    d.veb_delta_elems += (r.tail_inserts + r.tail_removals) as u64;
                    match r.tail_store {
                        Some(plis_lis::TailRoute::Veb) => d.tailset_veb_picks += 1,
                        Some(plis_lis::TailRoute::SortedVec) => d.tailset_sorted_picks += 1,
                        None => {}
                    }
                }
            },
            crate::BatchReport::Weighted(r) => match r.path {
                IngestPath::Sequential => d.seq_ingests += 1,
                IngestPath::ParallelMerge => {
                    d.par_merge_ingests += 1;
                    // The driver issues one dominant-max query per
                    // element of the `frontier ++ batch` run, so the
                    // query count *is* the merge size.
                    d.par_merge_elems += r.dommax_queries;
                    match r.dommax_used {
                        Some(plis_lis::DominantMaxKind::RangeVeb) => d.dommax_veb_picks += 1,
                        Some(_) => d.dommax_tree_picks += 1,
                        None => {}
                    }
                }
            },
        }
    }
    d
}

/// The telemetry registry: cumulative counters and latency histograms
/// for one [`crate::Engine`].  All updates are relaxed atomics — safe
/// to hit from every worker thread of a tick with no synchronization
/// beyond the counters themselves.
#[derive(Debug, Default)]
pub struct Metrics {
    enabled: AtomicBool,
    ticks: Counter,
    read_ticks: Counter,
    ops_appended: Counter,
    ops_queried: Counter,
    ops_created: Counter,
    ops_removed: Counter,
    ops_snapshotted: Counter,
    ops_restored: Counter,
    ops_failed: Counter,
    elems_ingested: Counter,
    queries_answered: Counter,
    seq_ingests: Counter,
    par_merge_ingests: Counter,
    par_merge_elems: Counter,
    veb_delta_elems: Counter,
    dommax_queries: Counter,
    dommax_writeback_elems: Counter,
    dommax_tree_picks: Counter,
    dommax_veb_picks: Counter,
    tailset_veb_picks: Counter,
    tailset_sorted_picks: Counter,
    inline_ticks: Counter,
    inline_read_ticks: Counter,
    tick_ns: AtomicHistogram,
    read_ns: AtomicHistogram,
    op_ns: AtomicHistogram,
}

impl Metrics {
    /// A fresh registry, enabled.
    pub fn new() -> Self {
        let m = Metrics::default();
        m.enabled.store(true, Ordering::Relaxed);
        m
    }

    /// Turn recording on or off at runtime.  Disabled, the timer
    /// helpers return `None` (no clock reads on the hot path);
    /// outcomes are unaffected either way.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the registry is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start a wall-clock timer, or `None` when disabled.
    #[inline]
    pub(crate) fn start_timer(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Nanoseconds since `started` (0 when the timer never started).
    #[inline]
    pub(crate) fn elapsed_ns(started: Option<Instant>) -> u64 {
        started.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Record one op's latency from its timer (no-op if disabled).
    #[inline]
    pub(crate) fn record_op_since(&self, started: Option<Instant>) {
        if let Some(t) = started {
            self.op_ns.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Fold one executed write tick into the registry (counters from
    /// the outcome's per-op reports, latency from `elapsed_ns`) and
    /// return the tick's own path digest for the trace sink.
    /// `inline` says whether the executor processed the tick on the
    /// calling thread instead of the per-shard parallel spine.
    pub(crate) fn record_tick(&self, outcome: &TickOutcome, inline: bool) -> TickDigest {
        if !self.is_enabled() {
            return TickDigest::default();
        }
        self.ticks.inc();
        if inline {
            self.inline_ticks.inc();
        }
        if outcome.elapsed_ns != 0 {
            self.tick_ns.record(outcome.elapsed_ns);
        }
        self.elems_ingested.add(outcome.total_ingested as u64);
        self.queries_answered.add(outcome.total_queries as u64);
        self.ops_failed.add(outcome.failed_ops as u64);
        for (_, result) in &outcome.outcomes {
            match result {
                Ok(OpOutput::Appended(report)) => {
                    self.ops_appended.inc();
                    if let crate::BatchReport::Weighted(r) = report {
                        self.dommax_queries.add(r.dommax_queries);
                        self.dommax_writeback_elems.add(r.dommax_writeback_elems);
                    }
                }
                Ok(OpOutput::Answered(_)) => self.ops_queried.inc(),
                Ok(OpOutput::Created) => self.ops_created.inc(),
                Ok(OpOutput::Removed) => self.ops_removed.inc(),
                Ok(OpOutput::Snapshotted(_)) => self.ops_snapshotted.inc(),
                Ok(OpOutput::Restored) => self.ops_restored.inc(),
                Err(_) => {}
            }
        }
        let digest = digest_of(outcome);
        self.seq_ingests.add(digest.seq_ingests);
        self.par_merge_ingests.add(digest.par_merge_ingests);
        self.par_merge_elems.add(digest.par_merge_elems);
        self.veb_delta_elems.add(digest.veb_delta_elems);
        self.dommax_tree_picks.add(digest.dommax_tree_picks);
        self.dommax_veb_picks.add(digest.dommax_veb_picks);
        self.tailset_veb_picks.add(digest.tailset_veb_picks);
        self.tailset_sorted_picks.add(digest.tailset_sorted_picks);
        digest
    }

    /// Fold one executed read tick into the registry.  `inline` as in
    /// [`Metrics::record_tick`].
    pub(crate) fn record_read(&self, outcome: &ReadOutcome, inline: bool) {
        if !self.is_enabled() {
            return;
        }
        self.read_ticks.inc();
        if inline {
            self.inline_read_ticks.inc();
        }
        if outcome.elapsed_ns != 0 {
            self.read_ns.record(outcome.elapsed_ns);
        }
        self.queries_answered.add(outcome.total_queries as u64);
        for (_, result) in &outcome.outcomes {
            match result {
                Ok(_) => self.ops_queried.inc(),
                Err(_) => self.ops_failed.inc(),
            }
        }
    }

    /// Cumulative totals as a plain-data snapshot.  Session/memory
    /// fields are zero here; [`crate::Engine::metrics_snapshot`] fills
    /// them by walking the shards.
    pub(crate) fn counters_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            ticks: self.ticks.get(),
            read_ticks: self.read_ticks.get(),
            ops_appended: self.ops_appended.get(),
            ops_queried: self.ops_queried.get(),
            ops_created: self.ops_created.get(),
            ops_removed: self.ops_removed.get(),
            ops_snapshotted: self.ops_snapshotted.get(),
            ops_restored: self.ops_restored.get(),
            ops_failed: self.ops_failed.get(),
            elems_ingested: self.elems_ingested.get(),
            queries_answered: self.queries_answered.get(),
            seq_ingests: self.seq_ingests.get(),
            par_merge_ingests: self.par_merge_ingests.get(),
            par_merge_elems: self.par_merge_elems.get(),
            veb_delta_elems: self.veb_delta_elems.get(),
            dommax_queries: self.dommax_queries.get(),
            dommax_writeback_elems: self.dommax_writeback_elems.get(),
            dommax_tree_picks: self.dommax_tree_picks.get(),
            dommax_veb_picks: self.dommax_veb_picks.get(),
            tailset_veb_picks: self.tailset_veb_picks.get(),
            tailset_sorted_picks: self.tailset_sorted_picks.get(),
            inline_ticks: self.inline_ticks.get(),
            inline_read_ticks: self.inline_read_ticks.get(),
            tick_latency: self.tick_ns.snapshot(),
            read_latency: self.read_ns.snapshot(),
            op_latency: self.op_ns.snapshot(),
            sessions: 0,
            session_bytes: 0,
            shard_bytes: Vec::new(),
            alloc_count: 0,
            allocs_per_elem: 0,
            arena_bytes: 0,
        }
    }
}

/// A point-in-time copy of the whole telemetry plane: cumulative counters,
/// latency histograms, and the per-shard memory accounting the engine
/// fills in at snapshot time.  Plain data — `Clone`, comparable, and
/// serializable to the workspace's hand-rolled JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Write ticks executed ([`crate::Engine::execute`]).
    pub ticks: u64,
    /// Read ticks executed ([`crate::Engine::execute_read`]).
    pub read_ticks: u64,
    /// Append ops that succeeded.
    pub ops_appended: u64,
    /// Query ops that succeeded (write and read ticks combined).
    pub ops_queried: u64,
    /// Create-session ops that succeeded.
    pub ops_created: u64,
    /// Remove-session ops that succeeded.
    pub ops_removed: u64,
    /// Snapshot ops that succeeded ([`crate::Op::Snapshot`]).
    pub ops_snapshotted: u64,
    /// Restore ops that succeeded ([`crate::Op::Restore`]).
    pub ops_restored: u64,
    /// Ops that resolved to a typed error.
    pub ops_failed: u64,
    /// Elements ingested across all append ops.
    pub elems_ingested: u64,
    /// Individual queries answered across all query ops.
    pub queries_answered: u64,
    /// Ingests that took the sequential path.
    pub seq_ingests: u64,
    /// Ingests that took the parallel merge path.
    pub par_merge_ingests: u64,
    /// Total size of the parallel merge runs (`tails ++ batch` /
    /// `frontier ++ batch`).
    pub par_merge_elems: u64,
    /// Elements moved through the vEB tail-set batch delta
    /// (`batch_insert` + `batch_delete` sizes).
    pub veb_delta_elems: u64,
    /// Dominant-max point queries issued by weighted parallel ingests.
    pub dommax_queries: u64,
    /// Elements written back to dominant-max stores by those ingests.
    pub dommax_writeback_elems: u64,
    /// Weighted parallel ingests that resolved to the range-tree store.
    pub dommax_tree_picks: u64,
    /// Weighted parallel ingests that resolved to the range-vEB store.
    pub dommax_veb_picks: u64,
    /// Unweighted parallel ingests whose tail-set delta went to the vEB
    /// mirror.
    pub tailset_veb_picks: u64,
    /// Unweighted parallel ingests whose tail-set delta resolved to the
    /// sorted-vec probe.
    pub tailset_sorted_picks: u64,
    /// Write ticks light enough to run inline on the calling thread,
    /// skipping the per-shard parallel spine.
    pub inline_ticks: u64,
    /// Read ticks that ran inline.
    pub inline_read_ticks: u64,
    /// Write-tick wall-time histogram (nanoseconds).
    pub tick_latency: HistogramSnapshot,
    /// Read-tick wall-time histogram (nanoseconds).
    pub read_latency: HistogramSnapshot,
    /// Per-op wall-time histogram (nanoseconds).
    pub op_latency: HistogramSnapshot,
    /// Live sessions at snapshot time.
    pub sessions: u64,
    /// Approximate heap footprint of all live sessions, in bytes.
    pub session_bytes: u64,
    /// The same footprint broken down per shard (index = shard).
    pub shard_bytes: Vec<u64>,
    /// Heap allocations observed since the engine was constructed, read
    /// from [`plis_telemetry::allocmeter`] at snapshot time.  Zero unless
    /// the binary installs a counting global allocator
    /// (`plis-testalloc`) — production builds never pay for this.
    pub alloc_count: u64,
    /// `alloc_count / elems_ingested`, floored — the steady-state
    /// allocation discipline figure.  With per-session scratch arenas
    /// warm, ingest performs no per-element heap traffic and this is 0;
    /// the allocation-discipline tests and the streaming bench assert on
    /// it.  (Engine envelope allocations are `O(1)` per tick and vanish
    /// under the floor at any realistic batch size.)
    pub allocs_per_elem: u64,
    /// High-water bytes held by the per-session scratch arenas and flat
    /// rank indices across all live sessions (capacity, not length —
    /// this is the memory the zero-allocation steady state retains).
    pub arena_bytes: u64,
}

/// Nanoseconds to fractional microseconds for the JSON surface.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

impl MetricsSnapshot {
    /// Merge another snapshot's counters and histograms into this one
    /// (elementwise add; shard byte vectors are added index-wise).
    /// Associative and commutative, like the underlying histograms.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.ticks += other.ticks;
        self.read_ticks += other.read_ticks;
        self.ops_appended += other.ops_appended;
        self.ops_queried += other.ops_queried;
        self.ops_created += other.ops_created;
        self.ops_removed += other.ops_removed;
        self.ops_snapshotted += other.ops_snapshotted;
        self.ops_restored += other.ops_restored;
        self.ops_failed += other.ops_failed;
        self.elems_ingested += other.elems_ingested;
        self.queries_answered += other.queries_answered;
        self.seq_ingests += other.seq_ingests;
        self.par_merge_ingests += other.par_merge_ingests;
        self.par_merge_elems += other.par_merge_elems;
        self.veb_delta_elems += other.veb_delta_elems;
        self.dommax_queries += other.dommax_queries;
        self.dommax_writeback_elems += other.dommax_writeback_elems;
        self.dommax_tree_picks += other.dommax_tree_picks;
        self.dommax_veb_picks += other.dommax_veb_picks;
        self.tailset_veb_picks += other.tailset_veb_picks;
        self.tailset_sorted_picks += other.tailset_sorted_picks;
        self.inline_ticks += other.inline_ticks;
        self.inline_read_ticks += other.inline_read_ticks;
        self.tick_latency.merge(&other.tick_latency);
        self.read_latency.merge(&other.read_latency);
        self.op_latency.merge(&other.op_latency);
        self.sessions += other.sessions;
        self.session_bytes += other.session_bytes;
        if self.shard_bytes.len() < other.shard_bytes.len() {
            self.shard_bytes.resize(other.shard_bytes.len(), 0);
        }
        for (mine, theirs) in self.shard_bytes.iter_mut().zip(&other.shard_bytes) {
            *mine += theirs;
        }
        self.alloc_count += other.alloc_count;
        self.arena_bytes += other.arena_bytes;
        // A ratio, not a counter: recompute over the merged totals rather
        // than adding the per-snapshot floors.
        self.allocs_per_elem = self.alloc_count.checked_div(self.elems_ingested).unwrap_or(0);
    }

    /// One JSON object (no trailing newline) with every counter and the
    /// headline latency percentiles in microseconds — the same hand-rolled
    /// format the bench bins emit, so snapshot lines mix into their
    /// output.
    pub fn to_json_line(&self) -> String {
        json_line(&[
            ("ticks", JsonValue::from(self.ticks)),
            ("read_ticks", JsonValue::from(self.read_ticks)),
            ("ops_appended", JsonValue::from(self.ops_appended)),
            ("ops_queried", JsonValue::from(self.ops_queried)),
            ("ops_created", JsonValue::from(self.ops_created)),
            ("ops_removed", JsonValue::from(self.ops_removed)),
            ("ops_snapshotted", JsonValue::from(self.ops_snapshotted)),
            ("ops_restored", JsonValue::from(self.ops_restored)),
            ("ops_failed", JsonValue::from(self.ops_failed)),
            ("elems_ingested", JsonValue::from(self.elems_ingested)),
            ("queries_answered", JsonValue::from(self.queries_answered)),
            ("seq_ticks", JsonValue::from(self.seq_ingests)),
            ("par_merge_ticks", JsonValue::from(self.par_merge_ingests)),
            ("par_merge_elems", JsonValue::from(self.par_merge_elems)),
            ("veb_delta_elems", JsonValue::from(self.veb_delta_elems)),
            ("dommax_queries", JsonValue::from(self.dommax_queries)),
            ("dommax_writeback_elems", JsonValue::from(self.dommax_writeback_elems)),
            ("dommax_tree_picks", JsonValue::from(self.dommax_tree_picks)),
            ("dommax_veb_picks", JsonValue::from(self.dommax_veb_picks)),
            ("tailset_veb_picks", JsonValue::from(self.tailset_veb_picks)),
            ("tailset_sorted_picks", JsonValue::from(self.tailset_sorted_picks)),
            ("inline_ticks", JsonValue::from(self.inline_ticks)),
            ("inline_read_ticks", JsonValue::from(self.inline_read_ticks)),
            ("tick_p50_us", JsonValue::from(us(self.tick_latency.p50()))),
            ("tick_p90_us", JsonValue::from(us(self.tick_latency.p90()))),
            ("tick_p99_us", JsonValue::from(us(self.tick_latency.p99()))),
            ("tick_max_us", JsonValue::from(us(self.tick_latency.max))),
            ("read_p99_us", JsonValue::from(us(self.read_latency.p99()))),
            ("op_p99_us", JsonValue::from(us(self.op_latency.p99()))),
            ("sessions", JsonValue::from(self.sessions)),
            ("session_bytes", JsonValue::from(self.session_bytes)),
            ("alloc_count", JsonValue::from(self.alloc_count)),
            ("allocs_per_elem", JsonValue::from(self.allocs_per_elem)),
            ("arena_bytes", JsonValue::from(self.arena_bytes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merge_is_elementwise() {
        let mut a = MetricsSnapshot { ticks: 2, elems_ingested: 10, ..Default::default() };
        a.shard_bytes = vec![5, 7];
        let mut b = MetricsSnapshot { ticks: 3, session_bytes: 40, ..Default::default() };
        b.shard_bytes = vec![1, 2, 3];
        a.merge(&b);
        assert_eq!(a.ticks, 5);
        assert_eq!(a.elems_ingested, 10);
        assert_eq!(a.session_bytes, 40);
        assert_eq!(a.shard_bytes, vec![6, 9, 3]);
    }

    #[test]
    fn json_line_has_the_bench_fields() {
        let snap = MetricsSnapshot { ticks: 7, session_bytes: 1234, ..Default::default() };
        let line = snap.to_json_line();
        for key in ["\"ticks\": 7", "\"tick_p50_us\"", "\"tick_p99_us\"", "\"session_bytes\": 1234"]
        {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
}
