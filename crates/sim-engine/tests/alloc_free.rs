//! The steady-state walk allocates nothing.
//!
//! A counting global allocator tallies the heap allocations made on
//! the test's own thread. Each system is warmed on a window of a
//! built-in profile, so every page in the window already has its page
//! table entry and every reusable buffer has grown; replaying the same
//! window again touches no new page and must not allocate at all: the
//! L1/L2/L3 walk, SLIP insertion and demotion, TLB refills, sampling
//! and EOU recomputation all run on pre-sized state.

use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::system::SingleCoreSystem;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: forwards every call to the system allocator unchanged; the
// only addition is a thread-local counter bump, which cannot allocate
// (const-initialized, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

const WINDOW: u64 = 60_000;

/// Allocations made while replaying a warmed window of `bench` once
/// more under `policy`.
fn steady_state_allocs(bench: &str, policy: PolicyKind) -> u64 {
    let spec = workloads::workload(bench).expect("built-in profile");
    let config = SystemConfig::paper_45nm(policy);
    let window: Vec<_> = spec.trace(WINDOW, config.seed).collect();
    let mut system = SingleCoreSystem::new(config);
    // Two warm passes: the first creates every page, the second lets
    // per-fill buffers reach the capacity the window needs.
    for _ in 0..2 {
        for &access in &window {
            system.step_fast(access);
        }
    }
    let before = allocs_on_this_thread();
    for &access in &window {
        system.step_fast(access);
    }
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(system.probe().0, 3 * WINDOW, "every access was stepped");
    allocs
}

#[test]
fn counting_allocator_sees_this_thread() {
    let before = allocs_on_this_thread();
    let v: Vec<u64> = std::hint::black_box(vec![1, 2, 3]);
    assert_eq!(v.len(), 3);
    assert!(allocs_on_this_thread() > before);
}

#[test]
fn warmed_walk_allocates_nothing() {
    let mut allocating = Vec::new();
    for bench in ["gcc", "mcf", "lbm"] {
        for policy in [PolicyKind::Baseline, PolicyKind::Slip, PolicyKind::SlipAbp] {
            let allocs = steady_state_allocs(bench, policy);
            if allocs > 0 {
                allocating.push(format!("{bench} {policy}: {allocs}"));
            }
        }
    }
    assert!(
        allocating.is_empty(),
        "allocations over {WINDOW} warmed accesses: {allocating:?}"
    );
}
