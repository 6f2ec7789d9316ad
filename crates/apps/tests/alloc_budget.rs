//! The allocation budget of a warm lane group: a `GroupRunner` that has
//! run groups before reuses its boards, stream bundles and token
//! buffers, so a 4-lane group of 24×24 images allocates only what the
//! lane VM and the group phase set up per call. The test counts the
//! allocations and reallocations the group's own thread makes through a
//! counting global allocator, which is why it is the only test in this
//! binary.

use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine, Arch};
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::otsu::{AppConfig, GroupRunner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocations plus reallocations a warm 4-lane group may make. Before
/// boards and buffers were reused, a group made 467 on Arch1 and 596 on
/// Arch4.
const BUDGET: u64 = 150;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Relaxed))
}

#[test]
fn a_warm_four_lane_group_stays_within_its_allocation_budget() {
    let mut engine = otsu_flow_engine();
    let cfg = AppConfig::default();
    for arch in [Arch::Arch1, Arch::Arch4] {
        let artifacts = engine.run_source(&arch_dsl_source(arch)).unwrap();
        let mut runner = GroupRunner::new(arch, &engine, &artifacts, &cfg);
        let group = |round: u64| -> Vec<RgbImage> {
            (0..4)
                .map(|i| RgbImage::from_gray(&synthetic_scene(24, 24, 10 * round + i)))
                .collect()
        };
        // Two groups to warm the runner, then one counted.
        for round in 0..2 {
            runner.latencies(&group(round)).unwrap();
        }
        let images = group(2);
        let (lat, n) = allocations(|| runner.latencies(&images).unwrap());
        assert!(lat.total_ns.iter().all(Result::is_ok), "{arch:?}");
        println!("{arch:?}: {n} allocations and reallocations");
        assert!(n <= BUDGET, "{arch:?}: {n} allocations, budget {BUDGET}");
    }
}
