//! Closed-loop benchmark of the ssync KV serving stack.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! README.md next to this package describes the workloads and metrics.

mod cpu;
mod layers;
mod metrics;
mod model;
mod stack;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use metrics::{json_number, json_string, median, MetricSet};
use stack::{
    op_span_names, session, total, Phase, Plan, SessionOut, StackKind, Workload, CHECKPOINT_OPS,
};
use trace::Tracer;

/// Set-ups of an untraced run: the driven stack's, then set-ups that
/// shut down again before a single op; `setup_s` is their median. They
/// come after the driven stack, so that no store is resident yet when
/// its `rss_mb` baseline is taken.
const SETUPS: usize = 11;

/// Length of the windows an untraced run's measured time is split
/// into: `ops_s` is the median of the windows' rates, and every latency
/// percentile the median over consecutive blocks of calls
/// (`metrics::BLOCK`). On a shared 2-vCPU VM the op rate drifts by
/// ±10% over seconds with the host's load; medians over many windows
/// keep a run's figure near the typical level.
const WINDOW_SECONDS: f64 = 1.0;

/// End-to-end metrics printed with the others but left out of the
/// result line, so out of `BENCHMARK.json`: `failed_frac` is 0 on every
/// workload, and `get_p999_us` sits on the reclaim-pass step (see
/// `metrics::Sorted::percentile`), where its spread over ten seeds
/// reached 0.27 to 0.34 of the median in noisy hours, past the largest
/// bound a metric may have (0.25).
const E2E_NOT_IN_RESULT: [&str; 2] = ["get_p999_us", "failed_frac"];

/// Per-layer counters printed with the others but left out of the
/// result line: they count fault and retry paths, which a fault-free
/// single-client run never takes, so they read 0 on every workload.
const LAYER_NOT_IN_RESULT: [&str; 7] = [
    "srv.malformed",
    "repl.fallbacks",
    "repl.redirects",
    "repl.lost_to_retry",
    "repl.stale_drops",
    "repl.from_log",
    "kv.read_fallbacks",
];

/// Share of `--seconds` spent warming up before the timed phases.
const WARMUP_SHARE: f64 = 0.1;

/// Traced runs: share of `--seconds` the main session alternates
/// between untraced and traced phases, and how many pairs it splits
/// that into.
const TRACE_MAIN_SHARE: f64 = 0.55;
const TRACE_PAIRS: u32 = 4;

/// Traced runs: share of `--seconds` the replay through the other
/// stack runs.
const TRACE_OTHER_SHARE: f64 = 0.2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        spans_out,
    })
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Counts that must repeat exactly on every run of one seed.
fn deterministic_line(
    args: &Args,
    sessions: &[(StackKind, &SessionOut)],
    extra: &[(&str, f64)],
) -> String {
    let mut fields = vec![
        ("workload".to_string(), json_string(args.workload.name)),
        ("seed".to_string(), args.seed.to_string()),
        ("checkpoint_ops".to_string(), CHECKPOINT_OPS.to_string()),
    ];
    let issued = sessions[0].1.checkpoint.issued;
    for (name, n) in [
        ("get", issued.gets),
        ("set", issued.sets),
        ("cas", issued.cas),
        ("delete", issued.deletes),
    ] {
        fields.push((format!("issued.{name}"), n.to_string()));
    }
    for (stack, out) in sessions {
        let p = stack.prefix();
        let c = out.checkpoint;
        fields.push((
            format!("{p}.kv.maintenance_runs"),
            c.maintenance_runs.to_string(),
        ));
        if let Some(entries) = c.entries {
            fields.push((format!("{p}.entries"), entries.to_string()));
        }
    }
    for (name, v) in extra {
        fields.push((name.to_string(), json_number(*v)));
    }
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_string(&k)))
        .collect();
    format!("{{\"deterministic\": {{{}}}}}", body.join(", "))
}

fn report_mismatches(sessions: &[(StackKind, &SessionOut)]) -> bool {
    let mut correct = true;
    for (stack, out) in sessions {
        if let Some(m) = &out.mismatch {
            eprintln!("perfbench: output check failed on {}: {m}", stack.prefix());
            correct = false;
        }
    }
    correct
}

/// The plan of one untraced stack driven for `seconds`.
fn stack_plan(seconds: f64) -> Plan {
    let windows = (seconds / WINDOW_SECONDS).round().max(1.0);
    Plan {
        warmup: secs(seconds * WARMUP_SHARE),
        phases: vec![Phase::Untraced(secs(seconds / windows)); windows as usize],
    }
}

fn run_untraced(args: &Args) -> (MetricSet, bool, u64, u64) {
    let w = &args.workload;
    let mut out = SessionOut::default();
    let plan = stack_plan(args.seconds);
    session(
        w,
        w.stack,
        args.seed,
        Some(&plan),
        &mut Tracer::new(),
        &mut out,
    );
    for _ in 1..SETUPS {
        session(w, w.stack, args.seed, None, &mut Tracer::new(), &mut out);
    }
    let frames_per_op = layers::wire_replay(&w.spec(args.seed), CHECKPOINT_OPS, &mut Tracer::new());
    let sessions = [(w.stack, &out)];
    println!(
        "{}",
        deterministic_line(
            args,
            &sessions,
            &[("srv.wire.frames_per_op", frames_per_op)]
        )
    );
    println!(
        "set-ups: {} s each",
        out.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let correct = report_mismatches(&sessions);
    let m = total(&out.windows);
    let mut e2e = MetricSet::default();
    let ops_s: Vec<f64> = out.windows.iter().map(|w| w.ops_s()).collect();
    e2e.put("ops_s", median(&ops_s), "1/s");
    for (name, blocks) in [("get", &out.get_ns), ("write", &out.write_ns)] {
        for (qi, label) in ["p50", "p99", "p999"].into_iter().enumerate() {
            e2e.put_median_pct(&format!("{name}_{label}_us"), blocks, qi, 1000.0, "us");
        }
    }
    println!(
        "windows: ops_s {}",
        ops_s
            .iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    e2e.put("setup_s", median(&out.setup_s), "s");
    e2e.put("rss_mb", out.rss_mb, "MiB");
    e2e.put(
        "failed_frac",
        m.failed as f64 / m.ops.max(1) as f64,
        "ratio",
    );
    println!(
        "end-to-end: workload {}, {} stack, 1 closed-loop client, {} s measured; \
         {SETUPS} set-ups; ops_s is the median over {} windows, \
         percentiles the median over blocks of {} calls, n counts all blocks",
        w.name,
        w.stack.prefix(),
        args.seconds,
        out.windows.len(),
        metrics::BLOCK
    );
    e2e.print_table();
    (e2e, correct, m.ops, m.failed)
}

fn run_traced(args: &Args) -> (MetricSet, bool, u64, u64) {
    let w = &args.workload;
    let spec = w.spec(args.seed);
    let mut tracer = Tracer::new();
    let slice = secs(args.seconds * TRACE_MAIN_SHARE / f64::from(2 * TRACE_PAIRS));
    let main_plan = Plan {
        warmup: secs(args.seconds * WARMUP_SHARE),
        phases: (0..TRACE_PAIRS)
            .flat_map(|_| [Phase::Untraced(slice), Phase::Traced(slice)])
            .collect(),
    };
    let mut main = SessionOut::default();
    session(
        w,
        w.stack,
        args.seed,
        Some(&main_plan),
        &mut tracer,
        &mut main,
    );
    let other_plan = Plan {
        warmup: Duration::ZERO,
        phases: vec![Phase::Traced(secs(args.seconds * TRACE_OTHER_SHARE))],
    };
    let other_stack = w.stack.other();
    let mut other = SessionOut::default();
    session(
        w,
        other_stack,
        args.seed,
        Some(&other_plan),
        &mut tracer,
        &mut other,
    );

    let mut per_layer = MetricSet::default();
    for stack in [w.stack, other_stack] {
        let p = stack.prefix();
        let (get_op, write_ops) = op_span_names(stack);
        let get = tracer.take(&[get_op]);
        let write = tracer.take(&write_ops);
        per_layer.put_pct(&format!("{p}.get_call_p50_ns"), &get, 0.5, 1.0, "ns");
        per_layer.put_pct(&format!("{p}.get_call_p99_ns"), &get, 0.99, 1.0, "ns");
        per_layer.put_pct(&format!("{p}.write_call_p50_ns"), &write, 0.5, 1.0, "ns");
        per_layer.put_pct(&format!("{p}.write_call_p99_ns"), &write, 0.99, 1.0, "ns");
    }
    per_layer.extend(std::mem::take(&mut main.layer));
    per_layer.extend(std::mem::take(&mut other.layer));
    per_layer.extend(layers::wire(&spec, &mut tracer));
    per_layer.extend(layers::mp(&mut tracer));
    let kv = layers::kv(w, &spec, &mut tracer);
    let maintenance = kv
        .iter()
        .find(|m| m.name == "kv.maintenance_runs")
        .map_or(f64::NAN, |m| m.value);
    let frames = per_layer
        .iter()
        .find(|m| m.name == "srv.wire.frames_per_op")
        .map_or(f64::NAN, |m| m.value);
    per_layer.extend(kv);
    per_layer.extend(layers::epoch(&mut tracer));
    per_layer.extend(layers::locks(&mut tracer));
    per_layer.extend(layers::oplog(&spec, &mut tracer));
    let (untraced_ops_s, traced_ops_s) = (total(&main.windows).ops_s(), main.traced.ops_s());
    per_layer.put(
        "trace.overhead_pct",
        (untraced_ops_s / traced_ops_s - 1.0) * 100.0,
        "%",
    );

    let sessions = [(w.stack, &main), (other_stack, &other)];
    println!(
        "{}",
        deterministic_line(
            args,
            &sessions,
            &[
                ("srv.wire.frames_per_op", frames),
                ("kv.maintenance_runs", maintenance)
            ]
        )
    );
    let correct = report_mismatches(&sessions);
    println!(
        "tracing: {} spans; {} ops/s untraced, {} ops/s traced in alternating phases of the {} session",
        tracer.span_count(),
        untraced_ops_s,
        traced_ops_s,
        w.stack.prefix()
    );
    println!("self time per span name:");
    let rows = tracer.self_table();
    let all_self: u64 = rows.iter().map(|r| r.2).sum();
    for (name, spans, self_ns) in rows {
        println!(
            "  {name:<32} {spans:>9} spans {:>12.3} ms self {:>6.2}% {:>10.1} ns/span",
            self_ns as f64 / 1e6,
            100.0 * self_ns as f64 / all_self.max(1) as f64,
            self_ns as f64 / spans.max(1) as f64
        );
    }
    if let Some(path) = &args.spans_out {
        match tracer.write_dump(path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {} failed: {e}", path.display()),
        }
    }
    println!("per-layer metrics:");
    per_layer.print_table();
    let attempted: u64 = [&main, &other]
        .iter()
        .map(|o| total(&o.windows).ops + o.traced.ops)
        .sum();
    let failed: u64 = [&main, &other]
        .iter()
        .map(|o| total(&o.windows).failed + o.traced.failed)
        .sum();
    (per_layer, correct, attempted, failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1] \
                 [--spans-out <file>]",
                stack::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let ((metrics, correct, attempted, failed), leave_out) = if args.trace {
        (run_traced(&args), &LAYER_NOT_IN_RESULT[..])
    } else {
        (run_untraced(&args), &E2E_NOT_IN_RESULT[..])
    };
    println!(
        "{}",
        metrics.result_line(correct, attempted, failed, leave_out)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
