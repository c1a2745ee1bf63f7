//! The checker's own false-negative regression suite.
//!
//! Each test plants a known concurrency bug — a protocol one plausible
//! refactor away from the real kv/mp code — and asserts the checker
//! *finds* it, then asserts the corrected protocol passes. If a future
//! scheduler change makes one of these pass silently, the checker has
//! lost the very sensitivity the model suite depends on.

use std::sync::Arc;

use ssync_chk::sync::atomic::{AtomicU64, Ordering};
use ssync_chk::{thread, Builder};

/// A miniature of the kv per-stripe seqlock: one writer updates `a`,`b`
/// (invariant `b == a + 1`) under a sequence word; one optimistic reader
/// validates the word before trusting the pair. `double_bump` selects the
/// real protocol (odd on entry, even on close) or the seeded bug (a
/// single bump on close, so readers cannot detect an in-progress write).
fn seqlock_model(double_bump: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let seq = Arc::new(AtomicU64::new(0));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(1));
        let (seq_w, a_w, b_w) = (Arc::clone(&seq), Arc::clone(&a), Arc::clone(&b));
        let writer = thread::spawn(move || {
            let s = seq_w.load(Ordering::Relaxed);
            if double_bump {
                seq_w.store(s + 1, Ordering::Relaxed); // odd: writer in
                a_w.store(10, Ordering::Release);
                b_w.store(11, Ordering::Release);
                seq_w.store(s + 2, Ordering::Release); // even: writer out
            } else {
                // BUG: no odd phase — the write is invisible until the
                // single closing bump, so a reader's two sequence loads
                // can both see the old value around a torn pair.
                a_w.store(10, Ordering::Release);
                b_w.store(11, Ordering::Release);
                seq_w.store(s + 1, Ordering::Release);
            }
        });
        for _attempt in 0..2 {
            let s1 = seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                thread::yield_now();
                continue;
            }
            let ra = a.load(Ordering::Acquire);
            let rb = b.load(Ordering::Acquire);
            if seq.load(Ordering::Acquire) == s1 {
                assert_eq!(rb, ra + 1, "torn read passed seqlock validation");
                break;
            }
        }
        writer.join();
    }
}

#[test]
fn buggy_seqlock_single_bump_is_caught() {
    let v = Builder::new().expect_violation(seqlock_model(false));
    assert!(v.message.contains("torn read"), "{v}");
}

#[test]
fn correct_seqlock_double_bump_passes() {
    let report = Builder::new().check(seqlock_model(true));
    assert!(!report.truncated, "{report:?}");
}

#[test]
fn correct_seqlock_double_bump_passes_under_weak_memory() {
    // The odd store is Relaxed in the real protocol; it is still ordered
    // before the Release data stores (a Release flushes nothing past
    // what precedes it), so weak memory does not break validation.
    let report = Builder::new()
        .with_weak_memory(true)
        .check(seqlock_model(true));
    assert!(!report.truncated, "{report:?}");
}

/// A miniature of the SPSC ring's publish edge: producer writes a slot's
/// payload, then publishes it by stamping the slot's own `seq` word
/// full (`2t + 1`); consumer trusts the payload only once it reads that
/// stamp. `release_publish` selects the real protocol or the seeded bug
/// (Relaxed stamp, which weak memory may commit *before* the payload
/// write).
fn ring_publish_model(release_publish: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let data = Arc::new(AtomicU64::new(0));
        let seq = Arc::new(AtomicU64::new(0));
        let (data_p, seq_p) = (Arc::clone(&data), Arc::clone(&seq));
        let producer = thread::spawn(move || {
            if seq_p.load(Ordering::Acquire) == 0 {
                data_p.store(7, Ordering::Relaxed);
                if release_publish {
                    seq_p.store(1, Ordering::Release);
                } else {
                    // BUG: nothing orders the payload write before the
                    // publishing stamp.
                    seq_p.store(1, Ordering::Relaxed);
                }
            }
        });
        if seq.load(Ordering::Acquire) == 1 {
            let v = data.load(Ordering::Relaxed);
            assert_eq!(v, 7, "consumed an unpublished slot");
            // Hand the slot to the next lap (depth 1: `2(0 + 1)`).
            seq.store(2, Ordering::Release);
        }
        producer.join();
    }
}

#[test]
fn buggy_ring_relaxed_seq_publish_is_caught() {
    let v = Builder::new()
        .with_weak_memory(true)
        .expect_violation(ring_publish_model(false));
    assert!(v.message.contains("unpublished slot"), "{v}");
}

#[test]
fn correct_ring_release_seq_publish_passes() {
    let report = Builder::new()
        .with_weak_memory(true)
        .check(ring_publish_model(true));
    assert!(!report.truncated, "{report:?}");
}
