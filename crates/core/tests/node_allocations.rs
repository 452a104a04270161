//! A proved search node allocates no compile or scratch buffer, counted in
//! allocations, not in time.
//!
//! A counting global allocator sees every allocation of every thread of
//! this binary: the master's, the ranks' and the mesh's. Two whole
//! learning runs on an in-process mesh of two ranks at `W = 10` are counted
//! — the benchmark's `carc-pipe-p2` learn on `carcinogenesis(0.3)` and the
//! learn of `mesh(1.0)` that `mesh-pipe-p2-tcp` runs over worker processes
//! — and held to ceilings. A node compiled from its bottom clause into a
//! reused buffer, proved with the search's one proof scratch and queued as
//! words in the search's flat frontier allocates nothing of its own: what
//! a learn still allocates comes per search, per message and per good
//! rule. A node path that builds a `Clause`, a binding store, a prover or
//! a bitset per node or per side, or a frontier that builds every
//! successor as a shape of its own, allocates tens of thousands of times
//! more per learn. Coverage stays on the calling thread (`eval_threads =
//! 1`, as on the benchmark's one CPU), so the counts do not depend on the
//! machine's cores. Both counts are printed.
//! One test, so that no other test's thread allocates into the count.

use p2mdie_core::{run_parallel, ParallelConfig};
use p2mdie_datasets::Dataset;
use p2mdie_ilp::settings::Width;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`], counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method hands its arguments unchanged to `System`, so the
// caller's guarantees are the ones `System` needs, and what `System`
// returns is returned as is; the count is a statistic no memory depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs, on any thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// Allocations of one in-process learn of `ds` on two ranks at `W = 10`.
fn learn(mut ds: Dataset) -> u64 {
    ds.engine.settings.eval_threads = 1;
    let cfg = ParallelConfig::new(2, Width::Limit(10), 2005);
    let (report, count) = allocations(|| run_parallel(&ds.engine, &ds.examples, &cfg));
    let report = report.expect("the learn runs");
    assert!(!report.theory.is_empty(), "the learn finds a theory");
    count
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "two learns unoptimised; run with --release"
)]
fn a_proved_node_allocates_no_compile_or_scratch_buffer() {
    // (name, dataset, ceiling): the counts measured are 32 893 and 161 785,
    // each rounded up to the next thousand, since the memo lends every
    // search the proof buffers it keeps (33 677 and 164 182 when each search
    // made its own). Both vary by a few with how the ranks' threads
    // interleave.
    let cases = [
        (
            "carcinogenesis(0.3)",
            p2mdie_datasets::carcinogenesis(0.3, 2005),
            33_000,
        ),
        ("mesh(1.0)", p2mdie_datasets::mesh(1.0, 2005), 162_000),
    ];
    for (name, ds, ceiling) in cases {
        let count = learn(ds);
        println!("{name}, p = 2, W = 10, in process: {count} allocations");
        assert!(
            count <= ceiling,
            "{name}: {count} allocations, the ceiling is {ceiling}"
        );
    }
}
