//! The disabled-path contract: in `off` mode, the recording macros
//! record nothing and allocate nothing — the fast path is one relaxed atomic load and a
//! branch, so instrumented hot loops cost the same as uninstrumented
//! ones.
//!
//! This file holds a single `#[test]` on purpose: the counting
//! allocator and the mode byte are process-global, and cargo runs tests
//! *within* a binary concurrently.

use sparkxd_telemetry::{self as telemetry, Mode, TelemetrySnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts this thread's allocations —
/// per-thread so harness bookkeeping on other threads cannot perturb
/// the measurement. Const-initialised `Cell<u64>` TLS has no destructor
/// and allocates nothing itself, so it is safe to touch from inside the
/// allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn off_mode_records_nothing_and_allocates_nothing() {
    telemetry::set_mode(Mode::Off);
    assert_eq!(telemetry::mode(), Mode::Off);

    let before = thread_allocations();
    for i in 0..10_000u64 {
        telemetry::counter_add!("test.off.counter", 1);
        telemetry::gauge_set!("test.off.gauge", i);
        telemetry::gauge_max!("test.off.peak", i);
        telemetry::hist_record!("test.off.hist", i);
        let _span = telemetry::span!("test.off.span");
    }
    let after = thread_allocations();
    assert_eq!(after - before, 0, "disabled-path macros must not allocate");

    // Nothing was registered either: even after enabling, a capture sees
    // no trace of the disabled-mode calls.
    telemetry::set_mode(Mode::Counters);
    let snapshot = TelemetrySnapshot::capture();
    telemetry::set_mode(Mode::Off);
    assert!(
        !snapshot
            .counters
            .iter()
            .any(|(name, _)| name.starts_with("test.off.")),
        "off-mode counter_add! must not register a site"
    );
    assert!(
        !snapshot
            .histograms
            .iter()
            .any(|h| h.name.starts_with("test.off.")),
        "off-mode hist_record! must not register a site"
    );
    assert!(
        !snapshot
            .spans
            .iter()
            .any(|s| s.name.starts_with("test.off.")),
        "off-mode span! must not register a site"
    );
    assert!(
        telemetry::span_events().is_empty(),
        "off-mode span! must not buffer trace events"
    );
}
