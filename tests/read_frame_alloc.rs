//! `protocol::read_frame` does not trust a frame's length header with
//! memory.
//!
//! A peer's 5-byte header may claim up to `MAX_FRAME_LEN` (256 MiB) of
//! payload. The reader must grow its buffer with the bytes that actually
//! arrive, so a header followed by EOF costs the server almost nothing.
//! The binary installs a counting global allocator that records the
//! largest single request — an allocation or a reallocation's new size —
//! and holds exactly one test, so no other test's allocations land in
//! the window it measures.

use emptyheaded::server::protocol::{read_frame, write_request, MAX_FRAME_LEN};
use emptyheaded::server::Request;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest request it has seen.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The largest single allocation `f` requested.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let out = f();
    (out, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn a_header_alone_cannot_make_the_reader_allocate_its_claimed_length() {
    // An Exec tag claiming the largest admissible payload, then EOF.
    let mut header = vec![0x02u8];
    header.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
    let (result, largest) = largest_request(|| read_frame(&mut header.as_slice()));
    let err = result.expect_err("no payload arrived");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    assert!(
        largest <= 1 << 20,
        "a bare header made the reader request {largest} bytes"
    );

    // A payload cut short is the same clean EOF, not a partial frame.
    let mut frame = Vec::new();
    write_request(&mut frame, &Request::ListRelations).unwrap();
    let mut short = frame.clone();
    short.extend_from_slice(&[0x07, 9, 0, 0, 0, 1, 2, 3]);
    let mut reader = short.as_slice();
    assert_eq!(read_frame(&mut reader).unwrap(), (frame[0], Vec::new()));
    let err = read_frame(&mut reader).expect_err("4 of 9 payload bytes");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");

    // An honest frame reads back byte for byte, in one exact allocation.
    let text = "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.".repeat(40);
    let mut frame = Vec::new();
    write_request(&mut frame, &Request::Prepare { text }).unwrap();
    let ((tag, payload), largest) = largest_request(|| read_frame(&mut frame.as_slice()).unwrap());
    assert_eq!(tag, frame[0]);
    assert_eq!(payload, frame[5..]);
    assert_eq!(largest, payload.len());
}
