//! The job path copies no examples, counted in allocations, not in time.
//!
//! A counting global allocator sees every allocation of every thread of
//! this binary: the client's, the scheduler's and the ranks'. On
//! `pyrimidines(1.0)` (1 612 examples) a clone of the example set and its
//! drop allocate nothing, and a coverage job on an in-process service whose
//! ranks already hold the set allocates fewer times, all threads together,
//! than the set has examples — where a job path that copies the set
//! anywhere allocates at least once per example (every literal owns its
//! arguments). Both counts are printed. One test, so that no other test's
//! thread allocates into the count.

use p2mdie_core::job::{JobSpec, JobState};
use p2mdie_core::scheduler::{Service, ServiceConfig};
use p2mdie_logic::parser::Parser;
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

#[test]
fn a_job_on_a_held_set_copies_no_examples() {
    const JOBS: usize = 50;
    let ds = p2mdie_datasets::pyrimidines(1.0, 2005);
    let examples = &ds.examples;
    let n = examples.len() as u64;

    let (_, cloned) = allocations(|| drop(examples.clone()));
    println!("clone + drop of {n} examples: {cloned} allocations");
    assert_eq!(cloned, 0, "a clone of the example set copied it");

    let text = "great(A, B) :- polar_pos3_gt(A, B).\n\
                great(A, B) :- size_pos4_gt(A, B), flex_pos5_gt(A, B).\n";
    let rules = Parser::new(&ds.syms, text)
        .and_then(|mut p| p.parse_program())
        .expect("the rules parse");
    let direct: Vec<(u32, u32)> = rules
        .iter()
        .map(|rule| {
            let cov = ds.engine.evaluate(rule, examples, None, None);
            (cov.pos_count(), cov.neg_count())
        })
        .collect();

    let service = Service::new(&ds.engine, ServiceConfig::new(2));
    let run = |i: usize| {
        let spec = JobSpec::coverage(examples.clone(), rules.clone());
        let done = service.submit(spec).expect("an empty queue").wait();
        assert_eq!(done.state, JobState::Done, "job {i}: {:?}", done.error);
        assert_eq!(done.coverage(), direct, "job {i}");
    };
    // The first job ships every rank its subset and proves the rules.
    run(0);
    let per_job: Vec<u64> = (1..=JOBS).map(|i| allocations(|| run(i)).1).collect();
    service.shutdown().expect("a clean lifetime");
    println!(
        "{JOBS} coverage jobs on a held set of {n} examples: {} allocations at most per job, \
         {} in all",
        per_job.iter().max().unwrap_or(&0),
        per_job.iter().sum::<u64>()
    );
    for (i, &count) in per_job.iter().enumerate() {
        assert!(
            count < n,
            "job {}: {count} allocations for a set of {n} examples",
            i + 1
        );
    }
}
