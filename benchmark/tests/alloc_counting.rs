//! The counting allocator counts a known allocation pattern exactly.
//! Alone in its test binary: the counters are process-wide, and the test
//! harness allocates on other threads when it runs tests side by side.

use std::hint::black_box;
use wlm_benchmark::alloc::{counted, set_counting};

#[test]
fn counts_a_known_pattern_exactly() {
    // Counting is off by default: nothing moves.
    let idle = counted();
    drop(black_box(Box::new(7u64)));
    assert_eq!(counted(), idle, "counted while switched off");

    // 10 boxes of 8 bytes, 1 vector of 1 000 bytes grown once to 4 000.
    set_counting(true);
    let before = counted();
    let boxes: Vec<Box<u64>> = {
        // The vector of boxes itself is allocated while counting is off.
        set_counting(false);
        let mut v = Vec::with_capacity(10);
        set_counting(true);
        for i in 0..10u64 {
            v.push(black_box(Box::new(i)));
        }
        v
    };
    let mut bytes: Vec<u8> = black_box(Vec::with_capacity(1_000));
    bytes.reserve_exact(4_000);
    set_counting(false);
    let after = counted();
    assert_eq!(after.0 - before.0, 12, "10 boxes + 1 alloc + 1 realloc");
    assert_eq!(after.1 - before.1, 10 * 8 + 1_000 + 4_000);

    // Frees are not counted, and nothing moves once switched off again.
    drop(black_box((boxes, bytes)));
    assert_eq!(counted(), after);
}
