//! Live-heap accounting: the process's global allocator wraps the system
//! allocator and keeps the number of bytes live and the most ever live at
//! once. Unlike resident-set figures, these do not depend on when the
//! allocator returns pages to the kernel or on how much program text the
//! page cache keeps resident.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counted.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// updates two counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// The most bytes live at once since the start or the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Starts a new peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Serializes the tests that reset the peak.
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_live_bytes() {
        // Other tests allocate concurrently, so only lower bounds hold.
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_peak();
        let base = LIVE.load(Relaxed);
        let big = vec![0u8; 8 << 20];
        assert!(peak_bytes() >= base + (8 << 20));
        let mut grown = Vec::<u8>::with_capacity(1 << 20);
        grown.reserve_exact(16 << 20);
        assert!(peak_bytes() >= base + (24 << 20));
        drop((big, grown));
        assert!(LIVE.load(Relaxed) < base + (8 << 20));
    }
}
