//! Model-checked interleavings of the real `ssync-mp` transports.
//!
//! Compiled only under `RUSTFLAGS='--cfg ssync_chk'`: the crate's
//! atomics resolve to `ssync-chk` shadow atomics and `SpinWait` /
//! `ParkingWait` degenerate to one scheduler yield per poll, so the
//! checker exhaustively interleaves the actual `send`/`recv` protocol
//! code — the ring's per-slot sequence handshake and the one-line
//! channel's flag protocol — up to the preemption bound.
//!
//! Run with:
//! `RUSTFLAGS='--cfg ssync_chk' cargo test -p ssync-mp --test chk_models`
#![cfg(ssync_chk)]

use ssync_chk::{thread, Builder};
use ssync_core::ParkingWait;
use ssync_mp::{channel, ring_channel, MSG_WORDS};

/// Producer streams more frames than the ring holds; consumer drains
/// them. Every frame must arrive exactly once, in order — no loss on
/// wrap-around, no duplication when the producer blocks on a full ring,
/// and both blocking loops must terminate (a lost wakeup would be
/// reported as a livelock).
#[test]
fn ring_delivers_every_frame_in_order_across_wraps() {
    let report = Builder::new().check(|| {
        let (tx, rx) = ring_channel(2);
        let producer = thread::spawn(move || {
            for i in 1..=3u64 {
                tx.send([i; MSG_WORDS]);
            }
        });
        for i in 1..=3u64 {
            let m = rx.recv();
            assert_eq!(
                m, [i; MSG_WORDS],
                "frame {i} lost, duplicated, or reordered"
            );
        }
        producer.join();
        assert!(rx.try_recv().is_none(), "phantom frame after the stream");
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("ring strong-memory model: {} executions", report.executions);
}

/// The same ring protocol under the store-buffer memory model: the
/// Release stores of each slot's `seq` (publish, then hand-back to the
/// next lap) are all that orders the two sides, and they must still be
/// enough.
#[test]
fn ring_protocol_is_sound_under_weak_memory() {
    let report = Builder::new().with_weak_memory(true).check(|| {
        let (tx, rx) = ring_channel(2);
        let producer = thread::spawn(move || {
            tx.send([7; MSG_WORDS]);
            tx.send([8; MSG_WORDS]);
        });
        assert_eq!(rx.recv(), [7; MSG_WORDS]);
        assert_eq!(rx.recv(), [8; MSG_WORDS]);
        producer.join();
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("ring weak-memory model: {} executions", report.executions);
}

/// A consumer idling in `ParkingWait::snooze` (the server-loop wait,
/// which on real hardware escalates from spinning to parking) must be
/// woken by a concurrent send in every interleaving: if the flag
/// publication could race past the poll, the checker would report the
/// parked consumer as a livelock.
#[test]
fn parking_consumer_never_misses_a_wakeup() {
    let report = Builder::new().check(|| {
        let (tx, rx) = channel();
        let consumer = thread::spawn(move || {
            let mut wait = ParkingWait::new();
            loop {
                if let Some(m) = rx.try_recv() {
                    return m;
                }
                wait.snooze();
            }
        });
        tx.send([42; MSG_WORDS]);
        assert_eq!(consumer.join(), [42; MSG_WORDS]);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("parking wakeup model: {} executions", report.executions);
}

/// The one-line channel's full/empty flag protocol round-trips two
/// messages in order, and the sender's busy-wait for the buffer to
/// drain never deadlocks against the receiver's wait for it to fill.
#[test]
fn channel_ping_pong_is_fifo_and_live() {
    let report = Builder::new().check(|| {
        let (tx, rx) = channel();
        let producer = thread::spawn(move || {
            tx.send([1; MSG_WORDS]);
            tx.send([2; MSG_WORDS]);
        });
        assert_eq!(rx.recv(), [1; MSG_WORDS]);
        assert_eq!(rx.recv(), [2; MSG_WORDS]);
        producer.join();
        assert!(!rx.has_message(), "phantom message after the stream");
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("channel FIFO model: {} executions", report.executions);
}
