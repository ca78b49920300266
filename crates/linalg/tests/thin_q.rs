//! The Householder QR forms only the thin `m x k` factor `Q`.
//!
//! A counting global allocator records the largest single allocation made
//! while factoring a tall matrix. Building the full `m x m` product and
//! trimming it would need one buffer of `m²` floats; the thin factor never
//! needs more than a few `m x k` ones.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use taf_linalg::Matrix;

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

#[test]
fn tall_qr_never_allocates_an_m_by_m_buffer() {
    let (m, n) = (2000, 10);
    let a = Matrix::from_fn(m, n, |i, j| ((i * 31 + j * 17) % 23) as f64 - 11.0);
    let m_squared_bytes = m * m * std::mem::size_of::<f64>();

    LARGEST.store(0, Ordering::Relaxed);
    let qr = a.qr().unwrap();
    let largest = LARGEST.load(Ordering::Relaxed);

    assert_eq!(qr.q().shape(), (m, n));
    assert!(largest > 0, "counting allocator not engaged");
    assert!(
        largest < m_squared_bytes,
        "qr() of a {m}x{n} matrix made a {largest}-byte allocation ({m}² floats is \
         {m_squared_bytes} bytes)"
    );
    // The sanity bound the thin factor does need: Q itself, m x n floats.
    assert!(largest >= m * n * std::mem::size_of::<f64>());
}
