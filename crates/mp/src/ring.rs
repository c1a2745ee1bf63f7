//! A bounded SPSC *ring* channel: the one-line channel's protocol with
//! queue depth.
//!
//! The single-buffer channel ([`crate::channel`]) is the paper's
//! `libssmp` model: one cache line, one message in flight, the
//! transfer itself the unit of cost. That is the right model when
//! sender and receiver run on their own cores — the receiver drains
//! concurrently and the buffer never holds the sender long. On an
//! oversubscribed host it serializes differently: every frame of a
//! multi-frame message (a long value's continuation frames, a
//! replication stream's back-to-back entries) blocks the sender until
//! the *scheduler* runs the receiver, so an N-frame transfer costs N
//! context-switch pairs.
//!
//! The ring gives the channel `depth` slots and keeps the `libssmp`
//! cost model per frame: each slot is one 64-byte line holding the
//! seven payload words *and* the word that publishes them, exactly the
//! one-line channel's buffer with its full/empty flag widened to a
//! lap-stamped sequence. There are no shared head/tail counters; each
//! half keeps its own position on a line the other half never reads,
//! so a frame moves between cores as one line transfer. A server can
//! write an entire multi-frame reply and move on; a primary can stream
//! a burst of replication entries without handing the core over per
//! entry.
//!
//! # Protocol
//!
//! A slot's `seq` packs the position it is stamped for with the
//! one-line channel's full/empty flag: `seq = 2·pos + full`. Positions
//! count from zero and never wrap, and slot `i` starts free for
//! position `i` (`seq == 2i`).
//!
//! * The producer at position `t` owns slot `t % depth` once it reads
//!   `seq == 2t` (Acquire), writes the payload, and publishes with a
//!   Release store of `2t + 1`.
//! * The consumer at position `h` owns slot `h % depth` once it reads
//!   `seq == 2h + 1` (Acquire), copies the payload out, and hands the
//!   slot to the producer's next lap with a Release store of
//!   `2(h + depth)`.
//!
//! Every value of a slot's `seq` is stored once, by one side, so a
//! half that reads the value it waits for knows the other half has
//! finished with the payload. Any other value means "not yet": the
//! producer sees `2(t − depth) + 1` (last lap's frame still unread), the
//! consumer sees `2h` (this lap's frame not yet written). The flag bit
//! is what keeps a depth-1 ring sound: with a unit stride, "published
//! `t`" (`t + 1`) and "free for `t + depth`" would be the same value.
//!
//! # Memory ordering (x86/TSO and ARM/RCpc)
//!
//! Two Release/Acquire pairs per slot are the whole argument:
//!
//! * **Publish.** The payload write is sequenced before the producer's
//!   Release store of `2t + 1`; the consumer's Acquire load that reads
//!   that value synchronizes with it, so the write happens-before the
//!   consumer's copy.
//! * **Hand-back.** The consumer's copy is sequenced before its Release
//!   store of `2(h + depth)`; the producer's Acquire load that reads
//!   that value synchronizes with it, so the copy happens-before the
//!   next lap's payload write — no frame is overwritten while read.
//!
//! Both edges are message passing through one location, the slot's
//! `seq`: a Release store and an Acquire load that reads from it. RCpc
//! acquire (ARMv8.3 `LDAPR`, and what C11 `Acquire` promises anyway)
//! keeps exactly that guarantee; what it gives up relative to RCsc is
//! the order between a Release store and a *later* Acquire load of a
//! *different* location, and no step here depends on it. No thread
//! stores one location and then needs to see another thread's store to
//! a second one — the store-buffering shape that needs SeqCst — so no
//! SeqCst access or fence appears. A stale `seq` read only reports
//! "full" or "empty" early; it cannot expose a slot, because the value
//! that grants access is stored only after the other side's last
//! access to the payload.
//!
//! The positions are host atomics read and written only by their own
//! half (`Relaxed`, no data published through them): atomics only so
//! the halves stay `Sync`, and host rather than model-checked so the
//! checker explores the slot handshake, not private bookkeeping.

use crate::sync::atomic::{AtomicU64, Ordering};
use core::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64 as HostAtomicU64, Ordering as HostOrdering};
use std::sync::Arc;

use ssync_core::{CachePadded, SpinWait};

use crate::channel::Message;
use crate::channel::{RX_CLOSED, TX_CLOSED};
use crate::MSG_WORDS;

/// One ring frame: seven payload words and their sequence word, one
/// 64-byte line — [`crate::channel`]'s buffer layout with the flag
/// widened to a lap-stamped sequence.
#[repr(C, align(64))]
struct Slot {
    data: UnsafeCell<Message>,
    /// `2·pos + full`: the position this slot is stamped for and
    /// whether `data` holds that position's frame (module docs).
    // chk: deliberately unpadded — sequence and payload *sharing* one
    // cache line is the libssmp cost model: one line per frame.
    seq: AtomicU64,
}

// SAFETY: `data` is written only by the unique producer while
// `seq == 2t` and read only by the unique consumer while `seq == 2h + 1`;
// each side reaches its state through an Acquire load of the value the
// other side Release-stored after its last access, so no payload access
// is ever concurrent with another.
unsafe impl Sync for Slot {}

struct Ring {
    slots: Box<[Slot]>,
    /// Dropped-half bits ([`crate::channel`]'s `TX_CLOSED`/`RX_CLOSED`),
    /// on their own line so the frame fast path never touches it;
    /// polled only from the cold branch of blocking loops.
    closed: CachePadded<AtomicU64>,
}

impl Ring {
    fn depth(&self) -> u64 {
        self.slots.len() as u64
    }

    fn slot(&self, pos: u64) -> &Slot {
        &self.slots[(pos as usize) & (self.slots.len() - 1)]
    }
}

/// The `seq` of a slot free for position `pos` to write.
const fn free(pos: u64) -> u64 {
    pos << 1
}

/// The `seq` of a slot holding position `pos`'s frame.
const fn full(pos: u64) -> u64 {
    pos << 1 | 1
}

/// Sending half: exactly one per ring.
pub struct RingSender {
    ring: Arc<Ring>,
    /// Next position to write; only this half touches it.
    tail: CachePadded<HostAtomicU64>,
}

/// Receiving half: exactly one per ring.
pub struct RingReceiver {
    ring: Arc<Ring>,
    /// Next position to read; only this half touches it.
    head: CachePadded<HostAtomicU64>,
}

/// Creates a bounded SPSC ring channel with `depth` message slots.
///
/// # Panics
///
/// Panics if `depth` is zero (use [`crate::channel`] for the
/// single-line model) or not a power of two.
pub fn ring_channel(depth: usize) -> (RingSender, RingReceiver) {
    assert!(depth > 0, "ring depth must be positive");
    assert!(depth.is_power_of_two(), "ring depth must be a power of two");
    let ring = Arc::new(Ring {
        slots: (0..depth as u64)
            .map(|i| Slot {
                data: UnsafeCell::new([0; MSG_WORDS]),
                seq: AtomicU64::new(free(i)),
            })
            .collect(),
        closed: CachePadded::new(AtomicU64::new(0)),
    });
    (
        RingSender {
            ring: Arc::clone(&ring),
            tail: CachePadded::new(HostAtomicU64::new(0)),
        },
        RingReceiver {
            ring,
            head: CachePadded::new(HostAtomicU64::new(0)),
        },
    )
}

impl Drop for RingSender {
    fn drop(&mut self) {
        // Release-ordered so a receiver that sees the bit also sees
        // every message published before the drop.
        self.ring.closed.fetch_or(TX_CLOSED, Ordering::Release);
    }
}

impl Drop for RingReceiver {
    fn drop(&mut self) {
        self.ring.closed.fetch_or(RX_CLOSED, Ordering::Release);
    }
}

impl RingSender {
    /// Sends a message, spinning (then yielding) while the ring is
    /// full.
    pub fn send(&self, msg: Message) {
        let mut wait = SpinWait::new();
        while self.try_send(msg).is_err() {
            wait.snooze();
        }
    }

    /// Attempts to send without blocking; returns the message back if
    /// the ring is full.
    pub fn try_send(&self, msg: Message) -> Result<(), Message> {
        let t = self.tail.load(HostOrdering::Relaxed);
        let slot = self.ring.slot(t);
        let seq = slot.seq.load(Ordering::Acquire);
        // Coherence keeps each slot's `seq` monotone, so the producer
        // sees either its own turn or last lap's unread frame.
        debug_assert!(
            seq == free(t) || seq + 2 * self.ring.depth() == full(t),
            "ring slot out of lap: seq {seq}, tail {t}"
        );
        if seq != free(t) {
            return Err(msg);
        }
        // SAFETY: `seq == 2t` (Acquire) means the consumer has finished
        // reading this slot's previous lap and cannot read it again
        // until the store below; we are the unique producer.
        unsafe { *slot.data.get() = msg };
        slot.seq.store(full(t), Ordering::Release);
        self.tail.store(t + 1, HostOrdering::Relaxed);
        Ok(())
    }

    /// True if the receiving half has been dropped: anything sent now
    /// (or still queued) will never be read.
    pub fn receiver_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire) & RX_CLOSED != 0
    }
}

impl RingReceiver {
    /// Receives the next message, spinning (then yielding) until one
    /// arrives.
    pub fn recv(&self) -> Message {
        let mut wait = SpinWait::new();
        loop {
            match self.try_recv() {
                Some(m) => return m,
                None => wait.snooze(),
            }
        }
    }

    /// Attempts to receive without blocking.
    pub fn try_recv(&self) -> Option<Message> {
        let h = self.head.load(HostOrdering::Relaxed);
        let slot = self.ring.slot(h);
        let seq = slot.seq.load(Ordering::Acquire);
        // The consumer sees either this lap's frame not yet written or
        // written; anything else is a torn protocol, not staleness.
        debug_assert!(
            seq == free(h) || seq == full(h),
            "ring slot out of lap: seq {seq}, head {h}"
        );
        if seq != full(h) {
            return None;
        }
        // SAFETY: `seq == 2h + 1` (Acquire) means the producer published
        // this slot and will not write it again until the store below;
        // we are the unique consumer.
        let msg = unsafe { *slot.data.get() };
        slot.seq
            .store(free(h + self.ring.depth()), Ordering::Release);
        self.head.store(h + 1, HostOrdering::Relaxed);
        Some(msg)
    }

    /// True if a message is waiting (advisory).
    pub fn has_message(&self) -> bool {
        let h = self.head.load(HostOrdering::Relaxed);
        self.ring.slot(h).seq.load(Ordering::Relaxed) == full(h)
    }

    /// True if the sending half has been dropped. Queued messages may
    /// still be waiting — drain with [`RingReceiver::try_recv`] before
    /// concluding the conversation is over.
    pub fn sender_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire) & TX_CLOSED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_one_cache_line() {
        assert_eq!(core::mem::size_of::<Slot>(), 64);
        assert_eq!(core::mem::align_of::<Slot>(), 64);
    }

    #[test]
    fn fifo_within_capacity() {
        // Depth 1 is the case a unit-stride sequence gets wrong: its
        // "published" and "free for the next lap" stamps coincide.
        for depth in [1, 2, 8] {
            let (tx, rx) = ring_channel(depth);
            let mut next = 0u64;
            for _lap in 0..1000 {
                for i in 0..depth as u64 {
                    tx.try_send([next + i; MSG_WORDS]).unwrap();
                }
                assert!(tx.try_send([99; MSG_WORDS]).is_err(), "ring must bound");
                for _ in 0..depth {
                    assert_eq!(rx.try_recv(), Some([next; MSG_WORDS]));
                    next += 1;
                }
                assert!(rx.try_recv().is_none());
                assert!(!rx.has_message());
            }
        }
    }

    #[test]
    fn wraps_around_many_times() {
        let (tx, rx) = ring_channel(4);
        for i in 0..1000u64 {
            tx.send([i, i + 1, 0, 0, 0, 0, 0]);
            if i % 3 == 0 {
                // Drain lazily so the ring wraps at varying fill.
                while let Some(m) = rx.try_recv() {
                    assert_eq!(m[1], m[0] + 1);
                }
            }
        }
        while rx.try_recv().is_some() {}
    }

    #[test]
    fn threaded_burst_transfer_is_fifo() {
        // Three-frame bursts (a head plus two continuation frames)
        // overrun a depth-1 or depth-2 ring on every burst.
        for depth in [1, 2, 16] {
            let (tx, rx) = ring_channel(depth);
            const BURSTS: u64 = 2_000;
            std::thread::scope(|s| {
                s.spawn(move || {
                    for b in 0..BURSTS {
                        for f in 0..3 {
                            tx.send([b, f, 0, 0, 0, 0, 0]);
                        }
                    }
                });
                for b in 0..BURSTS {
                    for f in 0..3 {
                        assert_eq!(rx.recv()[..2], [b, f], "depth {depth}");
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = ring_channel(6);
    }

    #[test]
    fn dropping_a_half_is_visible_and_queued_messages_survive() {
        let (tx, rx) = ring_channel(4);
        tx.send([1; MSG_WORDS]);
        tx.send([2; MSG_WORDS]);
        drop(tx);
        assert!(rx.sender_closed());
        // The drop signal must not eat the queued backlog.
        assert_eq!(rx.try_recv(), Some([1; MSG_WORDS]));
        assert_eq!(rx.try_recv(), Some([2; MSG_WORDS]));
        assert!(rx.try_recv().is_none());

        let (tx, rx) = ring_channel(4);
        assert!(!tx.receiver_closed());
        drop(rx);
        assert!(tx.receiver_closed());
    }
}
