//! Segments are reserved address space, committed on touch: creating them
//! costs almost no resident memory, writing them costs a page per page
//! touched.
//!
//! One test in its own binary, so no other test allocates in the process
//! while the resident set is being read. The resident set is summed from
//! `/proc/self/smaps_rollup`, which walks the page tables, rather than read
//! from `VmRSS`, whose per-CPU counters may lag by a few hundred KiB.

#![cfg(all(not(miri), target_os = "linux", target_arch = "x86_64"))]

use hupc_gasnet::{Segment, WORD_BYTES};

const MIB: usize = 1 << 20;
const PAGE_WORDS: usize = 4096 / WORD_BYTES;

fn resident_bytes() -> usize {
    let s = std::fs::read_to_string("/proc/self/smaps_rollup").expect("read smaps_rollup");
    let kb: usize = s
        .lines()
        .find_map(|l| l.strip_prefix("Rss:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("an Rss line in smaps_rollup");
    kb * 1024
}

#[test]
fn segments_commit_on_first_touch() {
    // 32 KiB segments, the `coll_1k` size: below glibc's mmap threshold, so
    // a calloc-backed segment would be carved from the heap and zero-filled.
    let words = 32 * 1024 / WORD_BYTES;
    let before = resident_bytes();
    let segs: Vec<Segment> = (0..64 * MIB / (words * WORD_BYTES))
        .map(|_| Segment::new(words))
        .collect();
    let built = resident_bytes();
    assert!(
        built < before + 4 * MIB,
        "64 MiB of fresh segments made {} KiB resident",
        (built - before) / 1024
    );

    // One word per page across an 8 MiB window spanning 256 segments.
    let window = 8 * MIB / (words * WORD_BYTES);
    for s in &segs[..window] {
        for off in (0..words).step_by(PAGE_WORDS) {
            s.write_word(off, 1);
        }
    }
    let touched = resident_bytes();
    assert!(
        touched >= built + 8 * MIB,
        "touching 8 MiB of segment pages made only {} KiB resident",
        touched.saturating_sub(built) / 1024
    );
}
