//! Heap instrumentation: a counting [`GlobalAlloc`] wrapper plus
//! snapshot plumbing into the metrics registry.
//!
//! The paper-scale benchmark (`bench_scale`) must demonstrate that a
//! p = 16,384 sweep runs in **bounded live memory** — which needs an
//! actual measurement, not an estimate. [`CountingAlloc`] wraps the
//! system allocator and keeps three global counters: live bytes, the
//! high-water mark of live bytes, and the allocation count. The counters
//! are process-wide relaxed atomics: cheap enough to leave on in a
//! benchmark binary, honest enough to catch an O(p²) buffer sneaking
//! back in.
//!
//! Install it per binary (NOT crate-wide — a global allocator in a
//! library would tax every consumer):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: sf2d_obs::mem::CountingAlloc = sf2d_obs::mem::CountingAlloc;
//! ```
//!
//! then bracket regions of interest with [`reset_peak`] + [`snapshot`],
//! and optionally publish the numbers as registry gauges with
//! [`record_mem_stats`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::registry::MetricsRegistry;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts live bytes, the live-bytes
/// high-water mark, and allocation/free counts.
///
/// All bookkeeping is relaxed atomics; the only ordering that matters is
/// each thread seeing its own alloc/free pairs, which relaxed provides.
/// The peak is maintained with a `fetch_max`, so concurrent allocations
/// can only *under*-report the peak by the amount of an in-flight
/// racing update — never over-report.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note_alloc(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn note_free(size: usize) {
        FREES.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: delegates every allocation verbatim to `System`; the counters
// never affect layout or pointer values.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CountingAlloc::note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CountingAlloc::note_free(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            CountingAlloc::note_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count as one free + one alloc so live bytes stay exact.
            CountingAlloc::note_free(layout.size());
            CountingAlloc::note_alloc(new_size);
        }
        p
    }
}

/// A point-in-time reading of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Currently-live heap bytes.
    pub live_bytes: u64,
    /// High-water mark of live bytes since the last [`reset_peak`].
    pub peak_live_bytes: u64,
    /// Allocations since process start.
    pub allocs: u64,
    /// Frees since process start.
    pub frees: u64,
}

/// Reads the current counters. All zeros unless [`CountingAlloc`] is
/// installed as the global allocator.
pub fn snapshot() -> MemStats {
    MemStats {
        live_bytes: LIVE.load(Ordering::Relaxed),
        peak_live_bytes: PEAK.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
    }
}

/// Restarts the peak tracking from the current live level, so the next
/// [`snapshot`] reports the high-water mark of the region *since this
/// call* — bracket a phase with `reset_peak()` … `snapshot()` to measure
/// its peak in isolation.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Publishes a [`MemStats`] reading into a registry under the `mem.*`
/// names (gauges `mem.live_bytes` / `mem.peak_live_bytes`, counters
/// `mem.allocs` / `mem.frees`), attributed to `rank` (use 0 for
/// process-wide readings).
pub fn record_mem_stats(reg: &mut MetricsRegistry, rank: u32, stats: &MemStats) {
    reg.set_gauge("mem.live_bytes", rank, stats.live_bytes as f64);
    reg.set_gauge("mem.peak_live_bytes", rank, stats.peak_live_bytes as f64);
    reg.add("mem.allocs", rank, stats.allocs);
    reg.add("mem.frees", rank, stats.frees);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does NOT install CountingAlloc globally (that would
    // tax the whole suite), so these tests drive the GlobalAlloc impl
    // directly and check the counters move exactly as the calls dictate.
    // The counters are process-wide, so the tests that move them hold
    // this lock: run in parallel they read each other's allocations.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn alloc_free_cycle_balances_and_tracks_peak() {
        let _serial = COUNTERS.lock().unwrap();
        let before = snapshot();
        let layout = Layout::from_size_align(1 << 16, 8).unwrap();
        unsafe {
            let p = CountingAlloc.alloc(layout);
            assert!(!p.is_null());
            let mid = snapshot();
            assert_eq!(mid.live_bytes, before.live_bytes + (1 << 16));
            assert_eq!(mid.allocs, before.allocs + 1);
            assert!(mid.peak_live_bytes >= mid.live_bytes);
            CountingAlloc.dealloc(p, layout);
        }
        let after = snapshot();
        assert_eq!(after.live_bytes, before.live_bytes);
        assert_eq!(after.frees, before.frees + 1);
        // The peak remembers the transient allocation...
        assert!(after.peak_live_bytes >= before.live_bytes + (1 << 16));
        // ...until explicitly reset back to the live level.
        reset_peak();
        assert_eq!(snapshot().peak_live_bytes, snapshot().live_bytes);
    }

    #[test]
    fn realloc_keeps_live_bytes_exact() {
        let _serial = COUNTERS.lock().unwrap();
        let before = snapshot();
        let layout = Layout::from_size_align(1024, 8).unwrap();
        unsafe {
            let p = CountingAlloc.alloc(layout);
            let q = CountingAlloc.realloc(p, layout, 4096);
            assert!(!q.is_null());
            assert_eq!(snapshot().live_bytes, before.live_bytes + 4096);
            CountingAlloc.dealloc(q, Layout::from_size_align(4096, 8).unwrap());
        }
        assert_eq!(snapshot().live_bytes, before.live_bytes);
    }

    #[test]
    fn record_publishes_registry_rows() {
        let mut reg = MetricsRegistry::new();
        let stats = MemStats {
            live_bytes: 10,
            peak_live_bytes: 99,
            allocs: 7,
            frees: 5,
        };
        record_mem_stats(&mut reg, 0, &stats);
        assert_eq!(reg.gauge("mem.live_bytes", 0), Some(10.0));
        assert_eq!(reg.gauge("mem.peak_live_bytes", 0), Some(99.0));
        assert_eq!(reg.counter("mem.allocs", 0), 7);
        assert_eq!(reg.counter("mem.frees", 0), 5);
    }
}
