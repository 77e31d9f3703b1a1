//! What a `Vm::call` costs, counted rather than timed: heap allocations
//! per call and the memory left backing stacks. Neither depends on the
//! host, so the numbers are pinned.
//!
//! One test only: the counting allocator is process-wide, and a second
//! test thread would show up in the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use pir::mem::{STACK_PAGE, STACK_SIZE};
use pir::vm::{Vm, VmOpts};
use pmemsim::PmPool;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counters are statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        LARGEST.fetch_max(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        LARGEST.fetch_max(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes, largest, steps)` of one call.
fn measure(vm: &mut Vm, name: &str, args: &[u64]) -> (u64, u64, u64, u64) {
    let steps = vm.steps_total();
    LARGEST.store(0, Relaxed);
    let (a, b) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    vm.call(name, args).expect("call");
    (
        ALLOCS.load(Relaxed) - a,
        BYTES.load(Relaxed) - b,
        LARGEST.load(Relaxed),
        vm.steps_total() - steps,
    )
}

/// Heap allocations of a steady-state kvcache `get`: none. The driver
/// drains the trace buffer in place, so the get's records (its LRU and
/// reference-count updates) land in capacity earlier calls grew.
const GET: (u64, u64) = (0, 0);
/// Memory backing stacks once kvcache has served its deepest call.
const STACK_RESIDENT: usize = STACK_PAGE;

#[test]
fn a_call_allocates_nothing_that_scales_with_stack_size_steps_or_loads() {
    let module = Arc::new(arthas::analyze_and_instrument(&pm_apps::kvcache::build()).instrumented);
    let pool = PmPool::create(pmemsim::layout::HEAP_OFF + (8 << 20)).unwrap();
    let mut vm = Vm::new(module, pool, VmOpts::default());
    for k in 1..=300u64 {
        vm.call("put", &[k, k * 3, 16]).unwrap();
    }
    // Steady state: every function decoded, every buffer at its high water.
    for k in 1..=300u64 {
        vm.call("get", &[k]).unwrap();
    }

    // Gets that execute different numbers of steps (and loads): hits at
    // the head of a chain and further down, misses. None allocates,
    // whatever its length.
    let mut step_counts = Vec::new();
    for k in [1u64, 7, 150, 299, 5_000, 77_777] {
        let _ = vm.drain_trace();
        let (allocs, bytes, largest, steps) = measure(&mut vm, "get", &[k]);
        assert_eq!((allocs, bytes), GET, "get({k})");
        assert!(
            largest < STACK_SIZE / 1024,
            "get({k}) allocated {largest} bytes at once"
        );
        step_counts.push(steps);
    }
    step_counts.sort_unstable();
    step_counts.dedup();
    assert!(step_counts.len() > 1, "the gets differ in length");

    // A put also builds redo entries for the allocator, but nothing near
    // the size of a stack.
    let (_, _, largest, _) = measure(&mut vm, "put", &[9, 9, 16]);
    assert!(
        largest < STACK_SIZE / 256,
        "put allocated {largest} bytes at once"
    );

    // Ten thousand calls later the stacks are backed by what the deepest
    // call touched, no more.
    assert_eq!(vm.mem().stack_resident_bytes(), STACK_RESIDENT);
    for i in 0..10_000u64 {
        match i % 4 {
            0 => vm.call("put", &[i % 500 + 1, i, 16]).unwrap(),
            1 => vm.call("delete", &[i % 500 + 1]).unwrap(),
            _ => vm.call("get", &[i % 700 + 1]).unwrap(),
        };
        if vm.trace_len() > 4096 {
            let _ = vm.drain_trace();
        }
    }
    assert_eq!(vm.mem().stack_resident_bytes(), STACK_RESIDENT);
}
