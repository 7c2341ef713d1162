//! `lesgsbench`: the end-to-end and per-layer benchmark of the lesgs
//! compiler, VM and batch service. See `README.md` next to this crate.
//!
//! ```text
//! lesgsbench --workload <exec-suite|compile-stream|svc-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (with its sample count), then one JSON
//! object as the last line of standard output. Exits 1 when any output
//! failed its check, 2 on bad arguments.

mod client;
mod inputs;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

use client::Client;
use stats::{median, Dist};
use workloads::RunResult;

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count and percentile, printed next to the value.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The percentile a timing's tail metric reports. On a shared 2-vCPU
/// host the 99th percentile of sub-millisecond calls is set by host
/// preemption, so the tail stops below it. It is the 97th rather than
/// the 95th because on `exec-suite` the slowest of 16 programs is a
/// sixteenth of the calls: the 95th percentile is that program's
/// fastest calls, whose times jump with the host's speed, and the 97th
/// is its median.
const TAIL: f64 = 0.97;

/// The median and tail of a timing as two metrics.
fn timing(
    p50: &'static str,
    tail_name: &'static str,
    unit: &'static str,
    samples: &[f64],
) -> [Metric; 2] {
    let (p, tail, windows) = stats::windowed_tail(samples, TAIL);
    let n = samples.len();
    [
        metric(p50, median(samples), unit, format!("n={n}")),
        metric(
            tail_name,
            tail,
            unit,
            format!("n={n} p={:.2}, median of {windows} windows", p * 100.0),
        ),
    ]
}

/// The gated end-to-end metrics, and the ones only printed.
fn end_to_end(c: &Client, r: &RunResult) -> (Vec<Metric>, Vec<Metric>) {
    let o = &c.obs;
    let passes = Dist::new(r.pass_mips.clone());
    let (lo, hi) = passes.range();
    let mut m = vec![
        metric(
            "setup_s",
            median(&r.setup_s),
            "s",
            format!("median of n={}", r.setup_s.len()),
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM"),
        metric(
            "ok_rate",
            1.0 - ratio(o.failed as f64, o.attempted as f64),
            "ratio",
            format!("{} of {} checks failed", o.failed, o.attempted),
        ),
        metric(
            "exec_mips",
            ratio(o.exec_instructions as f64, o.exec_ns as f64) * 1e3,
            "Mips",
            format!(
                "{} executions; {} passes, {lo:.1} to {hi:.1}",
                o.counts.executions,
                passes.len()
            ),
        ),
        metric("sim_cycles", r.sim_cycles as f64, "cycles", "exact"),
        metric("stack_refs", r.stack_refs as f64, "count", "exact"),
    ];
    m.extend(timing(
        "compile_ms_p50",
        "compile_ms_p97",
        "ms",
        &o.compile_ms,
    ));
    m.extend(timing("load_us_p50", "load_us_p97", "us", &o.load_us));
    m.push(metric(
        "code_instrs",
        r.code_instrs as f64,
        "count",
        "exact",
    ));
    // The rate of each batch, not of the run's total: the occasional
    // batch that stalls on page faults in the worker thread the pool
    // starts for it would otherwise set the rate.
    let rates: Vec<f64> = o
        .batch_requests
        .iter()
        .zip(&o.batch_ms)
        .map(|(n, ms)| ratio(*n, ms / 1e3))
        .collect();
    m.push(metric(
        "svc_rps",
        median(&rates),
        "1/s",
        format!(
            "{} requests, median of n={} batches",
            o.batch_requests.iter().sum::<f64>(),
            rates.len()
        ),
    ));
    let [batch_p50, batch_p97] = timing("svc_batch_ms_p50", "svc_batch_ms_p97", "ms", &o.batch_ms);
    m.push(batch_p50);
    // Printed but not gated: with the pool starting its threads on
    // every call, the batch tail follows the host's vCPU wake-up
    // latency, whose run-to-run spread exceeded the largest bound.
    (m, vec![batch_p97])
}

fn per_layer(c: &Client, r: &RunResult) -> Vec<Metric> {
    let spans = c.tracer().expect("traced run").spans();
    let layers = trace::by_name(spans);
    let us = |name: &'static str, span: &str| {
        let t = layers.get(span).copied().unwrap_or_default();
        metric(name, t.self_us(), "us", format!("self time, n={}", t.calls))
    };
    let k = c.obs.counts;
    let per = |name: &'static str, sum: u64, n: u64, unit: &'static str| {
        metric(
            name,
            ratio(sum as f64, n as f64),
            unit,
            format!("mean of n={n}"),
        )
    };
    let hist_us = |name: &'static str, key: &str| {
        let h = c.registry.histogram(key).copied().unwrap_or_default();
        metric(name, h.mean() / 1e3, "us", format!("mean of n={}", h.count))
    };
    let svc = c.obs.svc;
    let total = |names: &[&str]| -> u64 {
        names
            .iter()
            .map(|n| layers.get(n).map_or(0, |t| t.total_ns))
            .sum()
    };
    let traced = total(&["compile", "load", "vm.exec"]);
    let untraced = total(&["engine.compile", "engine.load", "engine.execute"]);
    vec![
        us("sexpr.parse_us", "sexpr.parse"),
        us("sexpr.prelude_us", "sexpr.prelude"),
        us("frontend.us", "frontend"),
        per("frontend.funcs", k.funcs, k.compiles, "count"),
        us("ir.us", "ir"),
        per("ir.nodes", k.ir_nodes, k.compiles, "count"),
        us("core.us", "core"),
        us("core.stats_us", "core.stats"),
        per("core.save_sites", k.save_sites, k.compiles, "count"),
        per("core.shuffle_temps", k.shuffle_temps, k.compiles, "count"),
        us("codegen.us", "codegen"),
        per("codegen.instrs", k.instrs, k.compiles, "count"),
        us("vm.decode_us", "vm.decode"),
        us("vm.verify_us", "vm.verify"),
        us("vm.exec_us", "vm.exec"),
        per("vm.instructions", k.instructions, k.executions, "count"),
        per("vm.stall_cycles", k.stall_cycles, k.executions, "cycles"),
        per("vm.calls", k.calls, k.executions, "count"),
        metric(
            "vm.ic_hit_rate",
            ratio(k.ic_hits as f64, (k.ic_hits + k.ic_misses) as f64),
            "ratio",
            format!("{} lookups", k.ic_hits + k.ic_misses),
        ),
        metric(
            "vm.fused_share",
            ratio(k.fused as f64, k.instructions as f64),
            "ratio",
            format!("{} fused of {} instructions", k.fused, k.instructions),
        ),
        us("engine.serialize_us", "engine.serialize"),
        us("engine.deserialize_us", "engine.deserialize"),
        per("engine.blob_bytes", k.blob_bytes, k.blobs, "bytes"),
        us("svc.batch_us", "svc.batch"),
        metric(
            "svc.hit_rate",
            svc.hit_rate(),
            "ratio",
            format!("{} requests", svc.requests),
        ),
        per("svc.misses", svc.misses, k.batches, "count"),
        per("svc.evictions", svc.evictions, k.batches, "count"),
        hist_us("exec.queue_wait_us", "svc.queue_wait_ns"),
        hist_us("exec.job_us", "svc.request_latency_ns"),
        metric(
            "interp.oracle_s",
            median(&r.setup_oracle_s),
            "s",
            format!("per set-up, median of n={}", r.setup_oracle_s.len()),
        ),
        metric(
            "trace.overhead_pct",
            ratio(traced as f64 - untraced as f64, untraced as f64) * 100.0,
            "%",
            format!("staged {traced} ns vs facade {untraced} ns"),
        ),
        metric(
            "trace.span_ns",
            trace::span_cost_ns(),
            "ns",
            "one empty span",
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lesgsbench: {e}");
            eprintln!("usage: lesgsbench --workload <exec-suite|compile-stream|svc-mix> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut c = Client::new(args.trace);
    let run = match args.workload.as_str() {
        "exec-suite" => workloads::exec_suite,
        "compile-stream" => workloads::compile_stream,
        "svc-mix" => workloads::svc_mix,
        other => {
            eprintln!("lesgsbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let r = run(&mut c, args.seed, args.seconds);

    let (metrics, printed_only) = if args.trace {
        (per_layer(&c, &r), Vec::new())
    } else {
        end_to_end(&c, &r)
    };
    if let Some(t) = c.tracer() {
        let path =
            PathBuf::from(".bench_traces").join(format!("{}-{}.jsonl", args.workload, args.seed));
        match t.write_jsonl(&path) {
            Ok(()) => println!("# {} spans written to {}", t.spans().len(), path.display()),
            Err(e) => eprintln!("lesgsbench: cannot write {}: {e}", path.display()),
        }
    }
    for f in &c.obs.failures {
        eprintln!("lesgsbench: FAILED: {f}");
    }
    println!(
        "# {} seed {} loop {:.2} s",
        args.workload, args.seed, r.loop_s
    );
    for m in &metrics {
        println!(
            "{:<22} {:>16.6} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
    for m in &printed_only {
        println!(
            "# {:<20} {:>16.6} {:<6} ({}; not gated)",
            m.name, m.value, m.unit, m.note
        );
    }
    let correct = c.obs.failed == 0 && c.obs.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.obs.attempted.max(1),
        c.obs.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
