//! Memory ceiling of the Theorem 4.2 fast DP.  A counting global allocator wraps
//! `System` and tracks the live and peak heap bytes; the solve must stay within
//! `O(n²)` bytes, not the `O(n²·g)` of a full `(i, j, t)` table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use busytime::maxthroughput::most_throughput_consecutive_fast;
use busytime::{Duration, Instance};

/// `System`, counting the bytes currently allocated and the most ever live at once.
struct Counting;

// Statistics only: no other data is published through these counters.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own arguments, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the counters never
// touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (so by `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came from `System`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn fast_dp_peaks_below_16_mib_at_2000_jobs() {
    // A proper-clique staircase: job i is [i, i + 2n), so every job contains [n, 2n).
    let n = 2_000i64;
    let jobs: Vec<(i64, i64)> = (0..n).map(|i| (i, i + 2 * n)).collect();
    let instance = Instance::from_ticks(&jobs, 4);
    assert!(instance.is_proper_clique());
    let budget = Duration::new(instance.lower_bound().ticks() / 2);

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let result = most_throughput_consecutive_fast(&instance, budget).expect("a proper clique");
    let peak = PEAK.load(Relaxed) - before;

    assert!(result.cost <= budget);
    assert!(result.throughput > 0);
    assert!(
        peak < 16 << 20,
        "the fast DP peaked at {peak} bytes on {n} jobs"
    );
}
