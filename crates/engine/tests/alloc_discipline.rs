//! Steady-state allocation discipline: once a session is warm and
//! reserved, sequential-path ingest performs **zero** heap allocations.
//!
//! The whole test binary runs under the counting global allocator
//! (`plis-testalloc`), which reports every allocation into
//! `plis_telemetry::allocmeter`, wrapped in [`ThreadCounting`], which also
//! keeps a per-thread tally.  Each case warms a session past its growth
//! phase, calls `reserve` for the measurement window, snapshots the
//! calling thread's tally, ingests the window, and asserts the tally did
//! not move — on both session kinds, across the tail-set backends, at
//! one thread and on a `num_threads(2)` pool (the sequential path never
//! forks, which is exactly why it can be allocation-free; a fork would
//! show up anyway, because the vendored `rayon::join` spawns a thread per
//! fork and spawning allocates on the caller).
//!
//! The `allocmeter` tally is process-wide, so an allocation on any thread
//! lands in every open window.  Two things keep other threads out:
//!
//! * each test holds [`serial`]'s lock from its first line to its last,
//!   so under the default parallel harness no sibling test runs (and
//!   allocates) while another measures — the engine-level case reads the
//!   process-wide tally through `metrics_snapshot`;
//! * the steady-state windows read the per-thread tally, because the
//!   harness's own thread still allocates (spawning the next test,
//!   reporting the last) at moments no lock in this file can order.
//!
//! The parallel merge path is *excluded* by pinning
//! `PathPolicy::Fixed(usize::MAX)`: Algorithm 1 rebuilds a tournament
//! tree per call, whose internal allocations are amortised over the
//! whole merge and accounted for by the engine's `allocs_per_elem`
//! telemetry instead (asserted to floor to zero in the engine-level
//! case below).

use plis_engine::{
    Backend, DominantMaxKind, Engine, EngineConfig, PathPolicy, SessionKind, StreamingLis, Tick,
    WeightedStreamingLis,
};
use plis_telemetry::AllocTally;
use plis_testalloc::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

/// [`CountingAlloc`] plus a tally of the allocations made by the current
/// thread.
struct ThreadCounting;

thread_local! {
    static THREAD_TALLY: Cell<AllocTally> = const { Cell::new(AllocTally { allocs: 0, bytes: 0 }) };
}

fn count_on_thread(ptr: *mut u8, bytes: usize) -> *mut u8 {
    if !ptr.is_null() {
        THREAD_TALLY.with(|t| {
            let AllocTally { allocs, bytes: total } = t.get();
            t.set(AllocTally { allocs: allocs + 1, bytes: total + bytes as u64 });
        });
    }
    ptr
}

/// The allocations the calling thread has made so far.
fn thread_alloc_tally() -> AllocTally {
    THREAD_TALLY.with(Cell::get)
}

// SAFETY: every method forwards to `CountingAlloc` with the caller's
// arguments unchanged; the only addition is a thread-local counter
// update, which never allocates (const-initialised, no destructor).
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_on_thread(CountingAlloc.alloc(layout), layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_on_thread(CountingAlloc.alloc_zeroed(layout), layout.size())
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_on_thread(CountingAlloc.realloc(ptr, layout, new_size), new_size)
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting;

const UNIVERSE: u64 = 1 << 16;
const BATCH: usize = 64;
const WARMUP: usize = 4_096;
const MEASURE: usize = 512;

/// Take the file-wide test lock.  A test that failed while holding it
/// poisons it; the next test still runs (its own window is clean).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn stream(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n).map(|_| xorshift(&mut state) % UNIVERSE).collect()
}

fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

/// Warm an unweighted session on `backend`, then assert the measurement
/// window allocates nothing.
fn drive_unweighted(backend: Backend, label: &str) {
    let data = stream(WARMUP + MEASURE, 0x5EED_0001);
    let mut s =
        StreamingLis::new(UNIVERSE, backend).with_path_policy(PathPolicy::Fixed(usize::MAX));
    for chunk in data[..WARMUP].chunks(BATCH) {
        s.ingest(chunk);
    }
    s.reserve(MEASURE);
    let lis_before = s.lis_length();
    let before = thread_alloc_tally();
    for chunk in data[WARMUP..].chunks(BATCH) {
        s.ingest(chunk);
    }
    let delta = thread_alloc_tally().since(before);
    assert_eq!(
        delta.allocs, 0,
        "{label}: {} allocations ({} bytes) in a warm steady-state window",
        delta.allocs, delta.bytes
    );
    // The window did real work, not a no-op.
    assert_eq!(s.len(), WARMUP + MEASURE);
    assert!(s.lis_length() >= lis_before);
    s.check_invariants();
}

/// Warm a weighted session on `kind`, then assert the measurement window
/// allocates nothing.
fn drive_weighted(kind: DominantMaxKind, label: &str) {
    let values = stream(WARMUP + MEASURE, 0x5EED_0002);
    let pairs: Vec<(u64, u64)> = {
        let mut state = 0x5EED_0003u64;
        values.iter().map(|&v| (v, 1 + xorshift(&mut state) % 50)).collect()
    };
    let mut s =
        WeightedStreamingLis::new(UNIVERSE, kind).with_path_policy(PathPolicy::Fixed(usize::MAX));
    for chunk in pairs[..WARMUP].chunks(BATCH) {
        s.ingest(chunk);
    }
    s.reserve(MEASURE);
    let before = thread_alloc_tally();
    for chunk in pairs[WARMUP..].chunks(BATCH) {
        s.ingest(chunk);
    }
    let delta = thread_alloc_tally().since(before);
    assert_eq!(
        delta.allocs, 0,
        "{label}: {} allocations ({} bytes) in a warm steady-state window",
        delta.allocs, delta.bytes
    );
    assert_eq!(s.len(), WARMUP + MEASURE);
    s.check_invariants();
}

#[test]
fn unweighted_steady_state_is_allocation_free_on_every_backend() {
    let _serial = serial();
    for (backend, label) in
        [(Backend::Veb, "veb"), (Backend::SortedVec, "sorted-vec"), (Backend::Auto, "auto")]
    {
        drive_unweighted(backend, label);
    }
}

#[test]
fn weighted_steady_state_is_allocation_free_on_both_stores() {
    let _serial = serial();
    for (kind, label) in
        [(DominantMaxKind::RangeTree, "range-tree"), (DominantMaxKind::RangeVeb, "range-veb")]
    {
        drive_weighted(kind, label);
    }
}

#[test]
fn steady_state_discipline_holds_at_one_thread_and_on_the_pool() {
    let _serial = serial();
    with_pool(1, || drive_unweighted(Backend::Veb, "veb @ 1 thread"));
    with_pool(2, || drive_unweighted(Backend::Veb, "veb @ pool"));
    with_pool(1, || drive_weighted(DominantMaxKind::RangeTree, "range-tree @ 1 thread"));
    with_pool(2, || drive_weighted(DominantMaxKind::RangeTree, "range-tree @ pool"));
}

/// Engine-level discipline: the tick envelope may allocate `O(1)` per
/// tick (result vectors, outcome assembly), but amortised over real
/// batches the telemetry floor `allocs_per_elem` must read zero — the
/// same figure the streaming bench records per cell.
#[test]
fn engine_allocs_per_elem_floors_to_zero() {
    let _serial = serial();
    let config = EngineConfig {
        universe: UNIVERSE,
        shards: 2,
        path_policy: PathPolicy::Fixed(usize::MAX),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config);
    let names = ["a", "b", "c", "d"];
    for name in names {
        engine.create_session_kind(name, SessionKind::Unweighted);
    }
    let data = stream(WARMUP, 0x5EED_0004);
    for chunk in data.chunks(BATCH) {
        let mut tick = Tick::new();
        for name in names {
            tick.push(name, plis_engine::Op::Append(chunk.to_vec()));
        }
        assert!(engine.execute(&tick).fully_applied());
    }
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.elems_ingested, (WARMUP * names.len()) as u64);
    assert!(snap.alloc_count > 0, "the counting allocator must be live");
    assert_eq!(
        snap.allocs_per_elem, 0,
        "tick envelope allocations must amortise away: {} allocs over {} elems",
        snap.alloc_count, snap.elems_ingested
    );
    assert!(snap.arena_bytes > 0, "warm sessions must report retained arena bytes");
}
