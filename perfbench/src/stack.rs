//! The workloads and the closed-loop sessions that drive the serving
//! stacks through their blocking `KvClient` calls.
//!
//! A session sets the stack up, then one client thread on one
//! connection sends the next op only after the previous call returns.
//! Each call is timed from entry to return, each result is checked
//! against the [`Model`], and after shutdown the whole store is
//! compared with the model.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssync_core::stats::mono_ns;
use ssync_locks::TicketLock;
use ssync_mp::{RingReceiver, RingSender};
use ssync_repl::fault::FaultPlan;
use ssync_repl::service::{repl_mesh, serve_node, NodeConfig, ReplClient, ReplCluster, ReplSpec};
use ssync_srv::router::key_bytes;
use ssync_srv::service::{ring_mesh, serve, KvClient, ReadHit, ServiceClient};
use ssync_srv::wire::WireError;
use ssync_srv::workload::{KeyDist, Mix, Op, OpCounts, OpStream, ValueSize, WorkloadSpec};
use ssync_srv::ShardRouter;

use crate::cpu::{two_cpus, Pinned};
use crate::metrics::{peak_rss_mb, Blocks, MetricSet, Summary};
use crate::model::{Mismatch, Model};
use crate::trace::{Open, Tracer};

/// Lock stripes per store.
pub const STRIPES: usize = 16;

/// Slots per ring of the srv client connection.
pub const RING_DEPTH: usize = 64;

/// Ops every driven stack runs first, untimed, to take the deterministic
/// counts: a fixed op count, unlike the timed phases.
pub const CHECKPOINT_OPS: u64 = 16_384;

/// Value sizes: up to 100 bytes, so values span one to three wire
/// frames.
pub const VALUE_SIZE: ValueSize = ValueSize::Uniform { min: 8, max: 100 };

/// Which serving stack a session drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// `ssync-srv`: one shard server behind a ring connection.
    Srv,
    /// `ssync-repl`: one shard, a leader and one sync backup.
    Repl,
}

impl StackKind {
    /// The metric prefix of the stack's layer.
    pub fn prefix(self) -> &'static str {
        match self {
            StackKind::Srv => "srv",
            StackKind::Repl => "repl",
        }
    }

    /// The other stack.
    pub fn other(self) -> StackKind {
        match self {
            StackKind::Srv => StackKind::Repl,
            StackKind::Repl => StackKind::Srv,
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The stack it drives.
    pub stack: StackKind,
    /// Keyspace size; every key is preloaded.
    pub keys: u64,
    /// Key distribution.
    pub dist: KeyDist,
    /// Op mix.
    pub mix: Mix,
}

/// The workloads. Why each exists is in the README next to this file.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "read-zipf",
        stack: StackKind::Srv,
        keys: 100_000,
        dist: KeyDist::Zipfian { theta: 0.99 },
        mix: Mix::YCSB_B,
    },
    Workload {
        name: "read-uniform",
        stack: StackKind::Srv,
        keys: 100_000,
        dist: KeyDist::Uniform,
        mix: Mix::YCSB_B,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The op-stream spec for `seed`.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            keys: self.keys,
            dist: self.dist,
            mix: self.mix,
            vsize: VALUE_SIZE,
            batch: 1,
            seed,
        }
    }

    /// Buckets per store: the power of two at or above the key count,
    /// as every caller in the repository sizes its stores. A count
    /// that is not a power of two keeps bucket order close to
    /// allocation order for sequentially preloaded keys, a memory
    /// layout real keys do not have.
    pub fn buckets(&self) -> usize {
        usize::try_from(self.keys)
            .expect("key count fits in usize")
            .next_power_of_two()
    }
}

/// The preload values for `spec`, key by key, drawn from its seed.
pub fn preload_values(spec: &WorkloadSpec) -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..spec.keys)
        .map(|_| {
            let len = spec.vsize.sample(&mut rng);
            (0..len).map(|_| rng.gen::<u8>()).collect()
        })
        .collect()
}

/// One timed phase of a session.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Calls timed into latency samples.
    Untraced(Duration),
    /// Calls recorded as spans.
    Traced(Duration),
}

/// How a session runs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Untimed ops after the checkpoint.
    pub warmup: Duration,
    /// The timed phases, in order.
    pub phases: Vec<Phase>,
}

/// Ops, failures and wall time of the phases of one kind.
#[derive(Debug, Default)]
pub struct Measured {
    /// Ops completed.
    pub ops: u64,
    /// Ops that met a transport error or deadline.
    pub failed: u64,
    /// Wall time.
    pub wall: Duration,
}

impl Measured {
    /// Ops per second.
    pub fn ops_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// The summed counts of `windows`.
pub fn total(windows: &[Measured]) -> Measured {
    let mut sum = Measured::default();
    for w in windows {
        sum.ops += w.ops;
        sum.failed += w.failed;
        sum.wall += w.wall;
    }
    sum
}

/// The counts taken after [`CHECKPOINT_OPS`] ops, equal on every run
/// of one seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Ops issued, by type.
    pub issued: OpCounts,
    /// Maintenance passes of the (leader's) store since set-up.
    pub maintenance_runs: u64,
    /// Replication entries the leader produced (repl only).
    pub entries: Option<u64>,
}

/// What a driven stack, and the set-ups of the same stack kind after
/// it, measured.
#[derive(Debug, Default)]
pub struct SessionOut {
    /// Seconds of each set-up, the driven stack's first.
    pub setup_s: Vec<f64>,
    /// The deterministic counts.
    pub checkpoint: Checkpoint,
    /// Each untraced phase, in order.
    pub windows: Vec<Measured>,
    /// Get latency of the untraced phases, ns.
    pub get_ns: Summary,
    /// Write-op latency of the untraced phases, ns.
    pub write_ns: Summary,
    /// Traced phases.
    pub traced: Measured,
    /// Growth of the process's peak RSS from just before the driven
    /// stack's store was created to the end of its timed phases, MiB:
    /// the store, its threads and the client, without the preload
    /// values the model keeps.
    pub rss_mb: f64,
    /// Metrics scraped from the stack after the timed phases (traced
    /// sessions only).
    pub layer: MetricSet,
    /// The first broken expectation, if any.
    pub mismatch: Option<Mismatch>,
}

/// Span names of one stack.
pub struct Names {
    op_get: &'static str,
    op_set: &'static str,
    op_cas: &'static str,
    op_delete: &'static str,
    get: &'static str,
    set: &'static str,
    cas: &'static str,
    delete: &'static str,
}

const SRV_NAMES: Names = Names {
    op_get: "srv.op.get",
    op_set: "srv.op.set",
    op_cas: "srv.op.cas",
    op_delete: "srv.op.delete",
    get: "srv.get",
    set: "srv.set",
    cas: "srv.cas",
    delete: "srv.delete",
};

const REPL_NAMES: Names = Names {
    op_get: "repl.op.get",
    op_set: "repl.op.set",
    op_cas: "repl.op.cas",
    op_delete: "repl.op.delete",
    get: "repl.get",
    set: "repl.set",
    cas: "repl.cas",
    delete: "repl.delete",
};

/// Span names of a stack's get ops and of its write ops.
pub fn op_span_names(stack: StackKind) -> (&'static str, [&'static str; 3]) {
    let n = match stack {
        StackKind::Srv => &SRV_NAMES,
        StackKind::Repl => &REPL_NAMES,
    };
    (n.op_get, [n.op_set, n.op_cas, n.op_delete])
}

/// A client the benchmark can drive and scrape.
pub trait BenchClient: KvClient {
    /// Names of the spans around this client's ops and calls.
    const NAMES: &'static Names;

    /// The get a traced phase sends. Defaults to a plain get.
    fn traced_get(&self, key: u64) -> Result<ReadHit, WireError> {
        self.get(key)
    }

    /// Replication entries the leader produced so far, if replicated.
    fn entries(&self) -> Option<u64> {
        None
    }

    /// Per-layer metrics scraped from the stack; `reads` is the number
    /// of get calls this client made.
    fn layer_metrics(&self, reads: u64) -> MetricSet;
}

impl BenchClient for ServiceClient<RingSender, RingReceiver> {
    const NAMES: &'static Names = &SRV_NAMES;

    /// A `TimedGet`, so the server splits the read into queue wait and
    /// apply time.
    fn traced_get(&self, key: u64) -> Result<ReadHit, WireError> {
        let shard = self.send_get_timed(key, mono_ns());
        self.read_get_reply(shard)
    }

    fn layer_metrics(&self, _reads: u64) -> MetricSet {
        let mut m = MetricSet::default();
        let Ok(snap) = self.stats(0) else {
            eprintln!("perfbench: srv stats scrape failed");
            return m;
        };
        for name in ["srv.requests", "srv.malformed"] {
            m.put(name, snap.counter(name).unwrap_or(0) as f64, "count");
        }
        for (hist, metric) in [
            ("srv.queue_wait_ns", "srv.queue_wait"),
            ("srv.apply_ns", "srv.apply"),
        ] {
            if let Some(h) = snap.hist(hist) {
                m.put_hist_pct(&format!("{metric}_p50_ns"), h, 0.5);
                m.put_hist_pct(&format!("{metric}_p99_ns"), h, 0.99);
            }
        }
        m
    }
}

impl BenchClient for ReplClient {
    const NAMES: &'static Names = &REPL_NAMES;

    fn entries(&self) -> Option<u64> {
        self.stats_of(0, 0).ok()?.counter("node.entries")
    }

    fn layer_metrics(&self, reads: u64) -> MetricSet {
        let mut m = MetricSet::default();
        m.put(
            "repl.replica_read_ratio",
            self.replica_serves() as f64 / reads.max(1) as f64,
            "ratio",
        );
        m.put("repl.fallbacks", self.fallbacks() as f64, "count");
        m.put("repl.redirects", self.redirects() as f64, "count");
        m.put("repl.lost_to_retry", self.lost_to_retry() as f64, "count");
        let mut sums = [0u64; 4];
        for node in 0..2 {
            let Ok(snap) = self.stats_of(0, node) else {
                eprintln!("perfbench: repl stats scrape of node {node} failed");
                return m;
            };
            for (sum, name) in sums.iter_mut().zip([
                "node.entries",
                "node.applied",
                "node.stale_drops",
                "node.from_log",
            ]) {
                *sum += snap.counter(name).unwrap_or(0);
            }
        }
        for (sum, name) in sums.into_iter().zip([
            "repl.entries",
            "repl.applied",
            "repl.stale_drops",
            "repl.from_log",
        ]) {
            m.put(name, sum as f64, "count");
        }
        m
    }
}

/// Where a phase's call timings go.
enum Rec<'a> {
    /// Nowhere (checkpoint and warm-up).
    Skip,
    /// Summed per op into get or write latency samples.
    Lat {
        get: &'a mut Blocks,
        write: &'a mut Blocks,
    },
    /// Spans: one per op, over one per call.
    Trace(&'a mut Tracer),
}

impl Rec<'_> {
    fn begin_op(&mut self, name: &'static str) -> Option<Open> {
        match self {
            Rec::Trace(t) => Some(t.begin(name)),
            _ => None,
        }
    }

    fn call<T>(&mut self, name: &'static str, acc: &mut u64, f: impl FnOnce() -> T) -> T {
        match self {
            Rec::Trace(t) => t.time(name, f),
            Rec::Lat { .. } => {
                let t0 = Instant::now();
                let out = f();
                *acc += t0.elapsed().as_nanos() as u64;
                out
            }
            Rec::Skip => f(),
        }
    }

    fn end_op(&mut self, open: Option<Open>, write: bool, acc: u64) {
        match self {
            Rec::Trace(t) => {
                t.end(open.expect("traced ops open a span"));
                t.finish_request();
            }
            Rec::Lat { get, write: w } => {
                if write {
                    w.record(acc);
                } else {
                    get.record(acc);
                }
            }
            Rec::Skip => {}
        }
    }

    fn traced(&self) -> bool {
        matches!(self, Rec::Trace(_))
    }
}

/// Per-session client-side tallies.
#[derive(Debug, Default)]
struct Tally {
    issued: OpCounts,
    reads: u64,
}

/// Runs one op through the client: `Ok(true)` if it failed in transit.
fn exec<C: BenchClient>(
    c: &C,
    op: Op,
    model: &mut Model,
    rec: &mut Rec<'_>,
    tally: &mut Tally,
) -> Result<bool, Mismatch> {
    let n = C::NAMES;
    let traced = rec.traced();
    let read = |key| {
        if traced {
            c.traced_get(key)
        } else {
            c.get(key)
        }
    };
    let mut acc = 0;
    match op {
        Op::Get(key) => {
            tally.issued.gets += 1;
            tally.reads += 1;
            let span = rec.begin_op(n.op_get);
            let hit = rec.call(n.get, &mut acc, || read(key));
            rec.end_op(span, false, acc);
            match hit {
                Ok(hit) => model.check_read(key, &hit).map(|()| false),
                Err(_) => Ok(true),
            }
        }
        Op::Set(key, value) => {
            tally.issued.sets += 1;
            let span = rec.begin_op(n.op_set);
            let sent = value.clone();
            let stored = rec.call(n.set, &mut acc, || c.set(key, sent));
            rec.end_op(span, true, acc);
            match stored {
                Ok(version) => model.stored(key, version, value).map(|()| false),
                Err(_) => {
                    model.unknown(key);
                    Ok(true)
                }
            }
        }
        Op::Cas(key, value) => {
            tally.issued.cas += 1;
            tally.reads += 1;
            let span = rec.begin_op(n.op_cas);
            let hit = rec.call(n.get, &mut acc, || read(key));
            let hit = match hit {
                Ok(hit) => hit,
                Err(_) => {
                    rec.end_op(span, true, acc);
                    return Ok(true);
                }
            };
            model.check_read(key, &hit)?;
            let Some((expected, _)) = hit else {
                rec.end_op(span, true, acc);
                return Ok(false);
            };
            let sent = value.clone();
            let outcome = rec.call(n.cas, &mut acc, || c.cas(key, sent, expected));
            rec.end_op(span, true, acc);
            match outcome {
                Ok(Ok(version)) => model.stored(key, version, value).map(|()| false),
                Ok(Err(current)) => Err(Mismatch(format!(
                    "cas of key {key} at version {expected} lost to version {current} with no \
                     other client"
                ))),
                Err(_) => {
                    model.unknown(key);
                    Ok(true)
                }
            }
        }
        Op::Delete(key) => {
            tally.issued.deletes += 1;
            let span = rec.begin_op(n.op_delete);
            let found = rec.call(n.delete, &mut acc, || c.delete(key));
            rec.end_op(span, true, acc);
            match found {
                Ok(found) => model.deleted(key, found.is_some()).map(|()| false),
                Err(_) => {
                    model.unknown(key);
                    Ok(true)
                }
            }
        }
        Op::MultiGet(_) => unreachable!("workloads do not batch reads"),
    }
}

/// When a phase ends.
#[derive(Clone, Copy)]
enum Stop {
    Ops(u64),
    After(Duration),
}

/// One client's closed loop over its op stream.
struct Loop<'a, C> {
    client: &'a C,
    stream: OpStream,
    model: &'a mut Model,
    tally: Tally,
}

impl<C: BenchClient> Loop<'_, C> {
    /// Drives ops until `stop`, adding to `m`.
    fn run(&mut self, mut rec: Rec<'_>, stop: Stop, m: &mut Measured) -> Result<(), Mismatch> {
        let start = Instant::now();
        let mut ops = 0u64;
        loop {
            let done = match stop {
                Stop::Ops(limit) => ops >= limit,
                Stop::After(d) => start.elapsed() >= d,
            };
            if done {
                break;
            }
            let op = self.stream.next_op();
            if exec(self.client, op, self.model, &mut rec, &mut self.tally)? {
                m.failed += 1;
            }
            ops += 1;
        }
        m.ops += ops;
        m.wall += start.elapsed();
        Ok(())
    }
}

/// Everything between set-up and shutdown. `rss_base` is the peak RSS
/// before the store was created, on the first stack of the process.
#[allow(clippy::too_many_arguments)]
fn drive<C: BenchClient>(
    c: &C,
    spec: &WorkloadSpec,
    model: &mut Model,
    plan: &Plan,
    tracer: &mut Tracer,
    maintenance_runs: &dyn Fn() -> u64,
    rss_base: Option<f64>,
    out: &mut SessionOut,
) -> Result<(), Mismatch> {
    let mut l = Loop {
        client: c,
        stream: OpStream::new(spec, 0),
        model,
        tally: Tally::default(),
    };
    let mut untimed = Measured::default();
    let m0 = maintenance_runs();
    l.run(Rec::Skip, Stop::Ops(CHECKPOINT_OPS), &mut untimed)?;
    out.checkpoint = Checkpoint {
        issued: l.tally.issued,
        maintenance_runs: maintenance_runs() - m0,
        entries: c.entries(),
    };
    l.run(Rec::Skip, Stop::After(plan.warmup), &mut untimed)?;
    let (mut get_ns, mut write_ns) = (Blocks::default(), Blocks::default());
    for phase in &plan.phases {
        match *phase {
            Phase::Untraced(d) => {
                let mut w = Measured::default();
                let rec = Rec::Lat {
                    get: &mut get_ns,
                    write: &mut write_ns,
                };
                l.run(rec, Stop::After(d), &mut w)?;
                get_ns.flush();
                write_ns.flush();
                out.windows.push(w);
            }
            Phase::Traced(d) => l.run(Rec::Trace(tracer), Stop::After(d), &mut out.traced)?,
        }
    }
    if let Some(base) = rss_base {
        out.rss_mb = peak_rss_mb().map_or(f64::NAN, |peak| peak - base);
    }
    out.get_ns = get_ns.finish();
    out.write_ns = write_ns.finish();
    if plan.phases.iter().any(|p| matches!(p, Phase::Traced(_))) {
        out.layer = c.layer_metrics(l.tally.reads);
    }
    Ok(())
}

/// Sets up a fresh `stack` for `workload`, drives it under `plan` (with
/// `None`, sends no op) and shuts it down, adding what it measured to
/// `out`. Only the first set-up into `out` may drive, as it sets the
/// baseline of `rss_mb`. The first broken expectation is kept.
pub fn session(
    workload: &Workload,
    stack: StackKind,
    seed: u64,
    plan: Option<&Plan>,
    tracer: &mut Tracer,
    out: &mut SessionOut,
) {
    let spec = workload.spec(seed);
    let result = match stack {
        StackKind::Srv => srv_session(workload, &spec, plan, tracer, out),
        StackKind::Repl => repl_session(workload, &spec, plan, tracer, out),
    };
    if let Err(m) = result {
        out.mismatch.get_or_insert(m);
    }
}

fn srv_session(
    workload: &Workload,
    spec: &WorkloadSpec,
    plan: Option<&Plan>,
    tracer: &mut Tracer,
    out: &mut SessionOut,
) -> Result<(), Mismatch> {
    let values = preload_values(spec);
    let mut versions = vec![0u64; values.len()];
    let rss_base = out.setup_s.is_empty().then(peak_rss_mb).flatten();
    let t0 = Instant::now();
    let router: ShardRouter<TicketLock> = ShardRouter::new(1, workload.buckets(), STRIPES);
    let store = router.shard(0);
    for (key, (value, version)) in values.iter().zip(versions.iter_mut()).enumerate() {
        *version = store.set(&key_bytes(key as u64), value.as_slice());
    }
    let (mut endpoints, mut clients) = ring_mesh(1, 1, RING_DEPTH);
    let endpoint = endpoints.pop().expect("one shard endpoint");
    let client = clients.pop().expect("one client");
    let cpus = two_cpus();
    let model = std::thread::scope(|s| {
        // The client and the server each on a CPU of its own (see `cpu`).
        let _client = cpus.and_then(|(client, _)| Pinned::to(client));
        let server = s.spawn(move || {
            let _server = cpus.and_then(|(_, server)| Pinned::to(server));
            serve(store, endpoint)
        });
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let mut model = Model::preloaded(values, &versions);
        let maint = || store.stats_snapshot().maintenance_runs;
        let driven = plan.map_or(Ok(()), |plan| {
            drive(
                &client, spec, &mut model, plan, tracer, &maint, rss_base, out,
            )
        });
        client.close();
        server.join().expect("shard server panicked");
        driven.map(|()| model)
    })?;
    model.check_dump(&store.dump())?;
    Ok(())
}

fn repl_session(
    workload: &Workload,
    spec: &WorkloadSpec,
    plan: Option<&Plan>,
    tracer: &mut Tracer,
    out: &mut SessionOut,
) -> Result<(), Mismatch> {
    let values = preload_values(spec);
    let mut versions = vec![0u64; values.len()];
    let rss_base = out.setup_s.is_empty().then(peak_rss_mb).flatten();
    let t0 = Instant::now();
    let mut cluster: ReplCluster<TicketLock> =
        ReplCluster::new(1, workload.buckets(), STRIPES, ReplSpec::sync(1));
    for (key, (value, version)) in values.iter().zip(versions.iter_mut()).enumerate() {
        *version = cluster.preload(key as u64, value);
    }
    let cluster = &cluster;
    let map = cluster.map().clone();
    let (mut endpoints, mut clients) = repl_mesh(&map, 1);
    let client = clients.pop().expect("one client");
    let model = std::thread::scope(|s| {
        let nodes: Vec<_> = endpoints
            .pop()
            .expect("one shard group")
            .into_iter()
            .map(|endpoint| {
                let store = cluster.node_store(0, endpoint.node());
                let log = cluster.log(0).clone();
                let map = &map;
                let cfg = NodeConfig {
                    shard: 0,
                    mode: cluster.spec().mode,
                    initial_hwm: cluster.preload_hwm(0),
                    backup_plan: FaultPlan::none(),
                    crash_plan: FaultPlan::none(),
                };
                s.spawn(move || serve_node(store, &log, map, endpoint, cfg))
            })
            .collect();
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let mut model = Model::preloaded(values, &versions);
        let maint = || cluster.node_store(0, 0).stats_snapshot().maintenance_runs;
        let driven = plan.map_or(Ok(()), |plan| {
            drive(
                &client, spec, &mut model, plan, tracer, &maint, rss_base, out,
            )
        });
        client.close();
        for node in nodes {
            node.join().expect("repl node panicked");
        }
        driven.map(|()| model)
    })?;
    model.check_dump(&cluster.node_store(0, 0).dump())?;
    if !cluster.converged() {
        return Err(Mismatch(
            "the backup did not converge with the leader".into(),
        ));
    }
    Ok(())
}
