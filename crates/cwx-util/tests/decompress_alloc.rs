//! `decompress` on hostile frames: the declared length is a claim, not
//! a reservation.
//!
//! The reproduced defect: `decompress(b"CWZ1\xff\xff\xff\xff")` asked
//! the allocator for 4 294 967 295 bytes — reachable from any peer
//! through `WireDecoder::decode_auto` on the ingest plane, and an abort
//! under a memory limit. A counting `#[global_allocator]` (per-thread,
//! as in `cwx-monitor/tests/alloc_regression.rs`) pins the fix: a frame
//! that lies about its length is refused having allocated no more than
//! a small multiple of its own size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cwx_util::compress::{compress, decompress};

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is side-effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|c| c.set(c.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes requested from the allocator while `f` ran on this thread.
fn requested(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(|c| c.get());
    f();
    BYTES.with(|c| c.get()) - before
}

#[test]
fn lying_lengths_are_refused_without_reserving_them() {
    let mut frames: Vec<Vec<u8>> = vec![b"CWZ1\xff\xff\xff\xff".to_vec()];
    let honest = compress(
        "cpu.user=123456\nnet.eth0.rx_bytes=987654321\n"
            .repeat(30)
            .as_bytes(),
    );
    for lie in [4096u32, 1 << 16, 1 << 20, 1 << 24, 1 << 28, u32::MAX - 1] {
        for keep in [8, 9, 12, honest.len() / 2, honest.len()] {
            let mut f = honest[..keep].to_vec();
            f[4..8].copy_from_slice(&lie.to_le_bytes());
            frames.push(f);
        }
    }
    for f in &frames {
        let mut failed = false;
        let bytes = requested(|| failed = decompress(f).is_err());
        assert!(failed, "frame of {} bytes decoded", f.len());
        // what a frame may make us reserve: 9 bytes of output per byte
        // of token stream, plus slack for the error value
        let allowance = 16 * f.len() as u64 + 256;
        assert!(
            bytes <= allowance,
            "{}-byte frame declaring {} made decompress request {bytes} bytes",
            f.len(),
            u32::from_le_bytes(f[4..8].try_into().unwrap())
        );
    }
}
