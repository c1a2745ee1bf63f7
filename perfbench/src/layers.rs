//! Isolated replays of single layers: each times the layer's public
//! functions with spans, over the workload's op stream where the layer
//! sees ops, and over fixed counts so its counters repeat exactly.

use std::hint::black_box;
use std::sync::Arc;

use bytes::Bytes;
use ssync_core::epoch::EpochDomain;
use ssync_kv::KvStore;
use ssync_locks::{RawLock, TicketLock};
use ssync_mp::{ring_channel, Message, MSG_WORDS};
use ssync_repl::log::{LogEntry, LogOp, OpLog};
use ssync_srv::router::key_bytes;
use ssync_srv::wire::{Request, Response};
use ssync_srv::workload::{Op, OpStream, WorkloadSpec};

use crate::metrics::MetricSet;
use crate::stack::{preload_values, Workload, RING_DEPTH, STRIPES};
use crate::trace::Tracer;

/// Ops of the workload's stream each replay covers.
pub const REPLAY_OPS: u64 = 1 << 19;

/// Ops per span where one op is too short to time alone.
pub const BATCH: u64 = 64;

/// Keys the kv replay's CAS and delete sweep covers.
const SWEEP_KEYS: u64 = 8192;

/// Timed batches of the micro-replays (pin, advance, lock, send+recv).
const BATCHES: u64 = 4096;

/// Round trips of the ring ping-pong.
const ROUND_TRIPS: u64 = 50_000;

/// `p50` of a span's durations divided over `BATCH` ops, in ns.
fn per_op_p50(tracer: &mut Tracer, name: &str, m: &mut MetricSet, metric: &str) {
    if let Some(ns) = tracer.take(&[name]).percentile(0.5) {
        m.put(metric, ns / BATCH as f64, "ns");
    }
}

/// The requests and replies one op puts on the wire, with `lens` the
/// current value length per key (`None` when absent).
fn wire_exchange(
    op: Op,
    lens: &mut [Option<u16>],
    version: &mut u64,
) -> (Vec<Request>, Vec<Response>) {
    let read = |key: u64, lens: &[Option<u16>], version: u64| match lens[key as usize] {
        Some(len) => Response::Value {
            version,
            value: vec![0; usize::from(len)],
        },
        None => Response::Miss,
    };
    *version += 1;
    let v = *version;
    match op {
        Op::Get(key) => (vec![Request::Get { key }], vec![read(key, lens, v)]),
        Op::Set(key, value) => {
            lens[key as usize] = Some(value.len() as u16);
            (
                vec![Request::Set { key, value }],
                vec![Response::Stored { version: v }],
            )
        }
        Op::Cas(key, value) => {
            let mut reqs = vec![Request::Get { key }];
            let mut resps = vec![read(key, lens, v)];
            if lens[key as usize].is_some() {
                lens[key as usize] = Some(value.len() as u16);
                reqs.push(Request::Cas {
                    key,
                    expected: v,
                    value,
                });
                resps.push(Response::Stored { version: v + 1 });
            }
            (reqs, resps)
        }
        Op::Delete(key) => {
            let found = lens[key as usize].take().is_some();
            let resp = if found {
                Response::Deleted { version: v }
            } else {
                Response::NotFound
            };
            (vec![Request::Delete { key }], vec![resp])
        }
        Op::MultiGet(_) => unreachable!("workloads do not batch reads"),
    }
}

/// Encodes and decodes every request (or reply) of a batch, returning
/// the frames they took.
fn codec<T>(
    items: &[T],
    frames: &mut Vec<Message>,
    encode: impl Fn(&T, &mut Vec<Message>),
    decode: impl Fn(Message, &mut dyn FnMut() -> Message) -> bool,
) -> u64 {
    let mut total = 0;
    for item in items {
        encode(item, frames);
        total += frames.len() as u64;
        let mut rest = frames[1..].iter().copied();
        let ok = decode(frames[0], &mut || {
            rest.next().expect("decoder read past the frames")
        });
        assert!(ok, "a frame the encoder wrote failed to decode");
    }
    total
}

/// The `srv.wire` replay: `Request`/`Response` `encode_into` and
/// `decode` over the first `ops` ops of the stream, in spans of
/// [`BATCH`] ops. Returns the frames per op, request and reply frames
/// together.
pub fn wire_replay(spec: &WorkloadSpec, ops: u64, tracer: &mut Tracer) -> f64 {
    let mut lens: Vec<Option<u16>> = preload_values(spec)
        .iter()
        .map(|v| Some(v.len() as u16))
        .collect();
    let mut version = 0;
    let mut stream = OpStream::new(spec, 0);
    let mut frames = Vec::new();
    let mut total = 0;
    let mut done = 0;
    while done < ops {
        let batch = BATCH.min(ops - done);
        let (mut reqs, mut resps) = (Vec::new(), Vec::new());
        for _ in 0..batch {
            let (q, r) = wire_exchange(stream.next_op(), &mut lens, &mut version);
            reqs.extend(q);
            resps.extend(r);
        }
        total += tracer.time("srv.wire.req_codec", || {
            codec(&reqs, &mut frames, Request::encode_into, |head, more| {
                black_box(Request::decode(head, more)).is_ok()
            })
        });
        total += tracer.time("srv.wire.resp_codec", || {
            codec(&resps, &mut frames, Response::encode_into, |head, more| {
                black_box(Response::decode(head, more)).is_ok()
            })
        });
        tracer.finish_request();
        done += batch;
    }
    total as f64 / ops as f64
}

/// The wire metrics, from a [`wire_replay`] of [`REPLAY_OPS`] ops.
pub fn wire(spec: &WorkloadSpec, tracer: &mut Tracer) -> MetricSet {
    let mut m = MetricSet::default();
    let frames_per_op = wire_replay(spec, REPLAY_OPS, tracer);
    per_op_p50(
        tracer,
        "srv.wire.req_codec",
        &mut m,
        "srv.wire.req_codec_p50_ns",
    );
    per_op_p50(
        tracer,
        "srv.wire.resp_codec",
        &mut m,
        "srv.wire.resp_codec_p50_ns",
    );
    m.put("srv.wire.frames_per_op", frames_per_op, "frames");
    m
}

/// The `mp` replay: one-frame ping-pong over a pair of rings with an
/// echo thread, and a same-thread send+recv on one ring.
pub fn mp(tracer: &mut Tracer) -> MetricSet {
    const STOP: u64 = u64::MAX;
    let mut m = MetricSet::default();
    let (req_tx, req_rx) = ring_channel(RING_DEPTH);
    let (rep_tx, rep_rx) = ring_channel(RING_DEPTH);
    std::thread::scope(|s| {
        let echo = s.spawn(move || loop {
            let msg = req_rx.recv();
            rep_tx.send(msg);
            if msg[0] == STOP {
                break;
            }
        });
        for i in 0..ROUND_TRIPS {
            let msg = [i; MSG_WORDS];
            let back = tracer.time("mp.ring_rtt", || {
                req_tx.send(msg);
                rep_rx.recv()
            });
            assert_eq!(back, msg, "the echo returned another frame");
            tracer.finish_request();
        }
        req_tx.send([STOP; MSG_WORDS]);
        rep_rx.recv();
        echo.join().expect("echo thread panicked");
    });
    let rtt = tracer.take(&["mp.ring_rtt"]);
    m.put_pct("mp.ring_rtt_p50_ns", &rtt, 0.5, 1.0, "ns");
    m.put_pct("mp.ring_rtt_p99_ns", &rtt, 0.99, 1.0, "ns");
    let (tx, rx) = ring_channel(RING_DEPTH);
    for i in 0..BATCHES {
        tracer.time("mp.ring_send_recv", || {
            for j in 0..BATCH {
                tx.send([i ^ j; MSG_WORDS]);
                black_box(rx.recv());
            }
        });
        tracer.finish_request();
    }
    per_op_p50(
        tracer,
        "mp.ring_send_recv",
        &mut m,
        "mp.ring_send_recv_p50_ns",
    );
    m
}

/// The `kv` replay: a store of the workload's geometry, preloaded key
/// by key, then [`REPLAY_OPS`] ops of the stream on one thread, with a
/// `reclaim_pass` every 1024 ops as the serve loops run it, then a CAS
/// and delete sweep over [`SWEEP_KEYS`] keys. Counters are
/// `stats_snapshot` deltas over the replayed ops. Also reports the
/// store's epoch advance ratio under `core.epoch`.
pub fn kv(workload: &Workload, spec: &WorkloadSpec, tracer: &mut Tracer) -> MetricSet {
    const RECLAIM_PERIOD: u64 = 1024;
    let mut m = MetricSet::default();
    let store: KvStore<TicketLock> = KvStore::new(workload.buckets(), STRIPES);
    for (key, value) in preload_values(spec).into_iter().enumerate() {
        let key = key_bytes(key as u64);
        tracer.time("kv.preload", || store.set(&key, value));
        tracer.finish_request();
    }
    let before = store.stats_snapshot();
    let mut stream = OpStream::new(spec, 0);
    let (mut cas_ok, mut cas_calls, mut passes, mut backlog_max) = (0u64, 0u64, 0u64, 0u64);
    for i in 1..=REPLAY_OPS {
        match stream.next_op() {
            Op::Get(key) => {
                let key = key_bytes(key);
                black_box(tracer.time("kv.get", || store.get_with_version(&key)));
            }
            Op::Set(key, value) => {
                let key = key_bytes(key);
                tracer.time("kv.set", || store.set(&key, value));
            }
            Op::Cas(key, value) => {
                let key = key_bytes(key);
                if let Some((version, _)) = tracer.time("kv.get", || store.get_with_version(&key)) {
                    cas_calls += 1;
                    if tracer
                        .time("kv.cas", || store.cas(&key, value, version))
                        .is_ok()
                    {
                        cas_ok += 1;
                    }
                }
            }
            Op::Delete(key) => {
                let key = key_bytes(key);
                black_box(tracer.time("kv.delete", || store.delete_versioned(&key)));
            }
            Op::MultiGet(_) => unreachable!("workloads do not batch reads"),
        }
        tracer.finish_request();
        if i % RECLAIM_PERIOD == 0 {
            tracer.time("kv.reclaim_pass", || store.reclaim_pass());
            tracer.finish_request();
            passes += 1;
        }
        backlog_max = backlog_max.max(store.reclaim_backlog());
    }
    let d = store.stats_snapshot().delta(&before);
    // The sweep: a CAS at the version just read, then a delete and an
    // untimed re-insert, on the keys of the stream's first writes. It
    // gives the CAS and delete timings on mixes that have neither op,
    // from the same key distribution, after the counters were taken.
    let mut stream = OpStream::new(spec, 0);
    let mut swept = 0;
    while swept < SWEEP_KEYS {
        let (Op::Set(key, value) | Op::Cas(key, value)) = stream.next_op() else {
            continue;
        };
        let key = key_bytes(key);
        if let Some((version, _)) = store.get_with_version(&key) {
            cas_calls += 1;
            if tracer
                .time("kv.cas", || store.cas(&key, value.clone(), version))
                .is_ok()
            {
                cas_ok += 1;
            }
            tracer.finish_request();
        }
        black_box(tracer.time("kv.delete", || store.delete_versioned(&key)));
        tracer.finish_request();
        store.set(&key, value);
        swept += 1;
    }
    let percentiles: [(&str, &[(f64, &str)]); 6] = [
        ("kv.get", &[(0.5, "kv.get_p50_ns"), (0.99, "kv.get_p99_ns")]),
        (
            "kv.set",
            &[
                (0.5, "kv.set_p50_ns"),
                (0.99, "kv.set_p99_ns"),
                (0.999, "kv.set_p999_ns"),
            ],
        ),
        ("kv.cas", &[(0.5, "kv.cas_p50_ns")]),
        ("kv.delete", &[(0.5, "kv.delete_p50_ns")]),
        ("kv.reclaim_pass", &[(0.5, "kv.reclaim_pass_p50_ns")]),
        ("kv.preload", &[(0.5, "kv.preload_p50_ns")]),
    ];
    for (name, quantiles) in percentiles {
        let sorted = tracer.take(&[name]);
        for &(q, metric) in quantiles {
            m.put_pct(metric, &sorted, q, 1.0, "ns");
        }
    }
    let reads = d.hits + d.misses;
    m.put("kv.maintenance_runs", d.maintenance_runs as f64, "count");
    m.put("kv.read_fallbacks", d.read_fallbacks as f64, "count");
    m.put(
        "kv.optimistic_read_ratio",
        1.0 - d.read_fallbacks as f64 / reads.max(1) as f64,
        "ratio",
    );
    m.put("kv.hit_ratio", d.hits as f64 / reads.max(1) as f64, "ratio");
    m.put(
        "kv.cas_success_ratio",
        cas_ok as f64 / cas_calls.max(1) as f64,
        "ratio",
    );
    m.put("kv.epochs_advanced", d.epochs_advanced as f64, "count");
    m.put("kv.nodes_reclaimed", d.nodes_reclaimed as f64, "count");
    m.put("kv.reclaim_backlog_max", backlog_max as f64, "count");
    // Advance attempts: one per maintenance pass and one per reclaim pass.
    m.put(
        "core.epoch.advance_ratio",
        d.epochs_advanced as f64 / (d.maintenance_runs + passes).max(1) as f64,
        "ratio",
    );
    m
}

/// The `core.epoch` replay: pin+unpin and `try_advance` on a fresh
/// domain, in spans of [`BATCH`] calls.
pub fn epoch(tracer: &mut Tracer) -> MetricSet {
    let mut m = MetricSet::default();
    let domain = Arc::new(EpochDomain::new());
    drop(domain.pin());
    for _ in 0..BATCHES {
        tracer.time("core.epoch.pin", || {
            for _ in 0..BATCH {
                black_box(domain.pin());
            }
        });
        tracer.finish_request();
    }
    for _ in 0..BATCHES {
        tracer.time("core.epoch.try_advance", || {
            for _ in 0..BATCH {
                black_box(domain.try_advance());
            }
        });
        tracer.finish_request();
    }
    per_op_p50(tracer, "core.epoch.pin", &mut m, "core.epoch.pin_p50_ns");
    per_op_p50(
        tracer,
        "core.epoch.try_advance",
        &mut m,
        "core.epoch.try_advance_p50_ns",
    );
    m
}

/// The `locks` replay: uncontended `TicketLock` acquire+release, in
/// spans of [`BATCH`] pairs.
pub fn locks(tracer: &mut Tracer) -> MetricSet {
    let mut m = MetricSet::default();
    let lock = TicketLock::new();
    for _ in 0..BATCHES {
        tracer.time("locks.ticket_acquire_release", || {
            for _ in 0..BATCH {
                let token = lock.lock();
                lock.unlock(black_box(token));
            }
        });
        tracer.finish_request();
    }
    per_op_p50(
        tracer,
        "locks.ticket_acquire_release",
        &mut m,
        "locks.ticket_acquire_release_p50_ns",
    );
    m
}

/// The `repl` op-log replay: every write of the first [`REPLAY_OPS`]
/// ops appended to an `OpLog` and truncated through, as a sync leader
/// does once its backup acknowledges.
pub fn oplog(spec: &WorkloadSpec, tracer: &mut Tracer) -> MetricSet {
    let mut m = MetricSet::default();
    let log = OpLog::new(4096);
    let mut stream = OpStream::new(spec, 0);
    for version in 1..=REPLAY_OPS {
        let (key, op) = match stream.next_op() {
            Op::Set(key, value) | Op::Cas(key, value) => (key, LogOp::Put(Bytes::from(value))),
            Op::Delete(key) => (key, LogOp::Delete),
            _ => continue,
        };
        let entry = LogEntry { key, version, op };
        tracer.time("repl.oplog_append", || {
            log.append(entry);
            log.truncate_through(version);
        });
        tracer.finish_request();
    }
    let sorted = tracer.take(&["repl.oplog_append"]);
    m.put_pct("repl.oplog_append_p50_ns", &sorted, 0.5, 1.0, "ns");
    m
}
