//! Allocation regression test for the per-tick hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! test warms up the consolidator and the binary wire encoder, then
//! asserts the steady state — suppressed `offer` / `offer_slot` calls
//! and `encode_into` onto a reused buffer — performs zero heap
//! allocations. This pins the two perf properties the interning and
//! encode-into-buffer work bought: losing either shows up here as a
//! counted alloc, not as a silent throughput regression.
//!
//! The counter is thread-local: the libtest harness's main thread
//! allocates on its own schedule (output buffering, timing), and a
//! process-global counter races those allocations into the measurement
//! window, making the test flaky. Per-thread counting pins the hot
//! path without seeing the harness. The `const`-initialised `Cell`
//! registers no TLS destructor, so the allocator may touch it at any
//! point in a thread's life.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cwx_monitor::consolidate::Consolidator;
use cwx_monitor::monitor::{MonitorClass, MonitorKey, Value};
use cwx_monitor::transmit::{Report, WireEncoder};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is side-effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn steady_state_hot_path_does_not_allocate() {
    const KEYS: usize = 48;
    let keys: Vec<MonitorKey> = (0..KEYS)
        .map(|i| MonitorKey::new(format!("group{}.monitor_{i}", i % 5)))
        .collect();

    // --- consolidator: a suppressed offer must not touch the heap ---
    let mut cons = Consolidator::new(true);
    for k in &keys {
        // warmup binds every key into the interner and sends it once
        assert!(cons.offer(k, MonitorClass::Dynamic, &Value::Num(1.0)));
    }
    let before = allocs();
    for _ in 0..256 {
        for k in &keys {
            let sent = cons.offer(k, MonitorClass::Dynamic, &Value::Num(1.0));
            assert!(!sent, "unchanged value must be suppressed");
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "suppressed offers allocated on the hot path"
    );

    // --- the same by slot (the agent's path): statics and dynamics ---
    let mut cons = Consolidator::new(true);
    let class = |slot: usize| {
        if slot.is_multiple_of(6) {
            MonitorClass::Static
        } else {
            MonitorClass::Dynamic
        }
    };
    let text = Value::Text("Pentium III (Coppermine) 1000MHz".into());
    for slot in 0..KEYS {
        assert!(cons.offer_slot(slot, class(slot), &text));
    }
    let before = allocs();
    for _ in 0..256 {
        for slot in 0..KEYS {
            assert!(!cons.offer_slot(slot, class(slot), &text));
        }
    }
    assert_eq!(
        allocs() - before,
        0,
        "suppressed slot offers allocated on the hot path"
    );

    // --- binary encoder: steady-state frames reuse the caller buffer ---
    let mut enc = WireEncoder::new();
    let mut buf = Vec::new();
    let mut r = Report {
        node: 3,
        seq: 0,
        time_secs: 100.0,
        values: keys.iter().map(|k| (k.clone(), Value::Num(0.5))).collect(),
    };
    // warmup: dictionary negotiation + buffer growth happen here
    enc.encode_into(&r, &mut buf);
    let before = allocs();
    for i in 1..256u64 {
        r.seq = i;
        r.time_secs = 100.0 + i as f64;
        for (j, (_, v)) in r.values.iter_mut().enumerate() {
            *v = Value::Num(0.5 + (i + j as u64) as f64);
        }
        enc.encode_into(&r, &mut buf);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state encode_into allocated despite a warm buffer"
    );
}
