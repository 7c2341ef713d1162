//! The three workloads. Each is one closed-loop client in one process:
//! it sends its next call only after the previous one returned.
//!
//! Every workload performs all three kinds of operation the end-to-end
//! metrics describe, with its weight on one of them, and interleaves
//! the others with its main loop so that every metric is sampled
//! across the whole run. Set-up calls are checked but not timed (see
//! [`Client::start_loop`]):
//!
//! | workload         | compile + load                     | execute        | service batches                  |
//! |------------------|------------------------------------|----------------|----------------------------------|
//! | `exec-suite`     | the 16 Standard programs, per pass | main loop      | Small suite programs, all hits   |
//! | `compile-stream` | main loop                          | each source once | the stream's sources, all misses |
//! | `svc-mix`        | a pool program every 4 batches, 8 times | the same probe | main loop                  |

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lesgs_engine::CompiledProgram;
use lesgs_suite::{all_benchmarks, Scale};
use lesgs_svc::{Request, Service, ServiceConfig};

use crate::client::{Client, Expected};
use crate::inputs::{self, Answer, StreamGen};

/// Set-up repetitions per run of each workload; `setup_s` is their
/// median. The lighter a set-up, the more often it is repeated, so
/// that its median holds still: `exec-suite` sets up in about 0.7 s,
/// `svc-mix` in 0.1 s and `compile-stream` in 0.02 s. The counts are
/// fixed, not timed, because each set-up runs the interpreter oracle,
/// which keeps memory, so the number of set-ups shows in `peak_rss_mb`.
const EXEC_SETUPS: usize = 5;
/// See [`EXEC_SETUPS`].
const STREAM_SETUPS: usize = 25;
/// See [`EXEC_SETUPS`].
const SVC_SETUPS: usize = 11;
/// Worker threads of the `svc-mix` service (the host has two cores).
/// The other workloads send their side batches to a one-worker
/// service: the pool's parallelism is `svc-mix`'s to measure.
const SVC_WORKERS: usize = 2;

/// What a workload hands back besides the client's observations.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Interpreter seconds of each set-up repetition.
    pub setup_oracle_s: Vec<f64>,
    /// Million instructions per second of `execute` time in each pass
    /// of the main loop.
    pub pass_mips: Vec<f64>,
    /// Simulated cycles over one run of each program of the fixed set.
    pub sim_cycles: u64,
    /// Stack references over the same runs.
    pub stack_refs: u64,
    /// `code_size()` summed over the fixed set.
    pub code_instrs: u64,
    /// Wall time of the measured loop.
    pub loop_s: f64,
}

/// Runs `setup` `reps` times, keeping the last state.
fn repeated_setup<S>(
    c: &mut Client,
    out: &mut RunResult,
    reps: usize,
    mut setup: impl FnMut(&mut Client) -> S,
) -> S {
    let mut state = None;
    for _ in 0..reps {
        let oracle0 = c.obs.oracle_s;
        let t0 = Instant::now();
        state = Some(setup(c));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.setup_oracle_s.push(c.obs.oracle_s - oracle0);
    }
    state.expect("at least one set-up")
}

fn service(workers: usize, cache_capacity: usize) -> Service {
    Service::new(ServiceConfig {
        workers,
        cache_capacity,
        ..ServiceConfig::default()
    })
}

fn run_requests(sources: impl IntoIterator<Item = String>) -> Vec<Request> {
    sources
        .into_iter()
        .map(|source| Request::Run { source })
        .collect()
}

/// The sums `exec-suite` must reproduce: the "opt cycles" and "opt
/// stack refs" columns of the `comparisons` table in the committed
/// `BENCH_report.json`.
fn report_totals(path: &str) -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = lesgs_metrics::json::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let table = json
        .get("tables")
        .and_then(|t| t.as_array())
        .and_then(|ts| {
            ts.iter()
                .find(|t| t.get("name").and_then(|n| n.as_str()) == Some("comparisons"))
        })
        .ok_or("no comparisons table")?;
    let columns: Vec<&str> = table
        .get("columns")
        .and_then(|c| c.as_array())
        .ok_or("no columns")?
        .iter()
        .filter_map(|c| c.as_str())
        .collect();
    let col = |name: &str| {
        columns
            .iter()
            .position(|c| *c == name)
            .ok_or(format!("no {name} column"))
    };
    let (cycles, refs) = (col("opt cycles")?, col("opt stack refs")?);
    let (mut sum_cycles, mut sum_refs) = (0, 0);
    for row in table
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or("no rows")?
    {
        let cell = |i: usize| {
            row.as_array()
                .and_then(|r| r.get(i))
                .and_then(|v| v.as_str())
        };
        // The "Average" row leaves the count columns empty.
        if let (Some(c), Some(r)) = (cell(cycles), cell(refs)) {
            if let (Ok(c), Ok(r)) = (c.parse::<u64>(), r.parse::<u64>()) {
                sum_cycles += c;
                sum_refs += r;
            }
        }
    }
    Ok((sum_cycles, sum_refs))
}

// ---------------------------------------------------------------- exec-suite

/// Service batches after each pass.
const EXEC_SVC_BATCHES_PER_PASS: usize = 2;
/// Copies of each of the 16 Small suite programs in one batch: 64
/// requests, so that a batch's time is its executions, not the page
/// faults of the worker thread the pool starts for it. Batches of the
/// 16 programs once spread `svc_rps` 31–33% across ten runs.
const EXEC_SVC_COPIES: usize = 4;

struct ExecState {
    programs: Vec<CompiledProgram>,
    expected: Vec<Expected>,
    small: Vec<Request>,
    small_expected: HashMap<String, Expected>,
    svc: Service,
}

/// `exec-suite`: the 16 suite programs at `Scale::Standard`, compiled
/// once in set-up, executed in a seeded round-robin order. After each
/// pass the 16 sources are compiled and loaded again (for the compile
/// and load samples) and the Small versions go through the service.
pub fn exec_suite(c: &mut Client, seed: u64, seconds: f64) -> RunResult {
    let mut out = RunResult::default();
    let suite = all_benchmarks();
    let state = repeated_setup(c, &mut out, EXEC_SETUPS, |c| {
        let mut programs = Vec::new();
        let mut expected = Vec::new();
        for (i, b) in suite.iter().enumerate() {
            c.set_request(i as u64, true);
            let src = b.source(Scale::Standard);
            let Some(p) = c.compile(src) else { continue };
            let Some(p) = c.round_trip(&p) else { continue };
            let want = match b.expected {
                Some(v) => Expected {
                    value: v.to_owned(),
                    output: None,
                },
                None => match c.oracle(src) {
                    Some(e) => e,
                    None => continue,
                },
            };
            programs.push(p);
            expected.push(want);
        }
        let mut small_expected = HashMap::new();
        for b in &suite {
            let src = b.source(Scale::Small);
            if let Some(e) = c.oracle(src) {
                small_expected.insert(src.to_owned(), e);
            }
        }
        let small = run_requests(
            (0..EXEC_SVC_COPIES)
                .flat_map(|_| suite.iter().map(|b| b.source(Scale::Small).to_owned())),
        );
        // Fill the cache before timing: afterwards every request hits.
        let mut svc = service(1, 64);
        let (warm, _) = svc.process_batch(&small, &mut lesgs_metrics::Registry::new());
        c.check_responses(&small, &warm, |s| {
            small_expected.get(s).map(|e| (e.clone(), 0))
        });
        ExecState {
            programs,
            expected,
            small,
            small_expected,
            svc,
        }
    });
    let ExecState {
        programs,
        expected,
        small,
        small_expected,
        mut svc,
    } = state;
    if programs.len() != suite.len() {
        return out;
    }

    c.start_loop();
    let start = Instant::now();
    let mut first: Vec<Option<(u64, u64)>> = vec![None; programs.len()];
    let mut run = 0u64;
    let mut round = 0u64;
    while round == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        c.take_mips();
        for i in inputs::exec_round(seed, round, programs.len()) {
            c.set_request(run, false);
            run += 1;
            let Some(o) = c.execute(&programs[i]) else {
                continue;
            };
            let want = &expected[i];
            c.check(want.matches(&o), || {
                format!(
                    "{}: value {} output {:?}, expected {want:?}",
                    suite[i].name, o.value, o.output
                )
            });
            let counts = (o.stats.cycles, o.stats.stack_refs());
            match first[i] {
                None => first[i] = Some(counts),
                Some(f) => {
                    c.check(f == counts, || {
                        format!("{}: counts changed between runs", suite[i].name)
                    });
                }
            }
        }
        out.pass_mips.push(c.take_mips());
        // Compile and load samples are taken across the whole run, not
        // only at set-up, so that they see the same host as execution.
        for (i, b) in suite.iter().enumerate() {
            c.set_request(run, false);
            let Some(p) = c.compile(b.source(Scale::Standard)) else {
                continue;
            };
            let same = p.code_size() == programs[i].code_size();
            c.check(same, || format!("{}: recompiled to different code", b.name));
            c.round_trip(&p);
        }
        for _ in 0..EXEC_SVC_BATCHES_PER_PASS {
            let responses = c.batch(&mut svc, &small);
            c.check_responses(&small, &responses, |s| {
                small_expected.get(s).map(|e| (e.clone(), 0))
            });
        }
        round += 1;
    }
    out.loop_s = start.elapsed().as_secs_f64();
    for counts in first.into_iter().flatten() {
        out.sim_cycles += counts.0;
        out.stack_refs += counts.1;
    }
    out.code_instrs = programs.iter().map(|p| p.code_size() as u64).sum();
    match report_totals("BENCH_report.json") {
        Ok((cycles, refs)) => {
            c.check(out.sim_cycles == cycles, || {
                format!(
                    "sim_cycles {} != {cycles} in BENCH_report.json",
                    out.sim_cycles
                )
            });
            c.check(out.stack_refs == refs, || {
                format!(
                    "stack_refs {} != {refs} in BENCH_report.json",
                    out.stack_refs
                )
            });
        }
        Err(e) => {
            c.check(false, || format!("cannot read the committed totals: {e}"));
        }
    }
    out
}

// ------------------------------------------------------------ compile-stream

/// Blocks every run completes; the exact counts cover these blocks.
const STREAM_MIN_BLOCKS: u64 = 4;

/// `compile-stream`: a seeded stream of distinct sources, each
/// compiled, serialized, loaded back and run once; each block then
/// goes through the service as one batch of misses. A whole block per
/// batch keeps the pool's per-call thread start-up small next to the
/// work, so the batch figures follow the compiler, not the host's
/// thread wake-up latency.
pub fn compile_stream(c: &mut Client, seed: u64, seconds: f64) -> RunResult {
    let mut out = RunResult::default();
    let (gen, suite_expected) = repeated_setup(c, &mut out, STREAM_SETUPS, |c| {
        let gen = StreamGen::new(seed);
        let suite_expected: Vec<Option<Expected>> = all_benchmarks()
            .iter()
            .enumerate()
            .map(|(i, b)| {
                c.set_request(i as u64, true);
                c.oracle(b.source(Scale::Small))
            })
            .collect();
        (gen, suite_expected)
    });
    let expected_of = |s: &inputs::StreamSource| match &s.answer {
        Answer::Known(value, output) => Some(Expected {
            value: value.clone(),
            output: Some(output.clone()),
        }),
        Answer::Suite(i) => suite_expected[*i].clone(),
    };

    let mut svc = service(1, 64);
    c.start_loop();
    let start = Instant::now();
    let mut block = 0u64;
    while block < STREAM_MIN_BLOCKS || start.elapsed() < Duration::from_secs_f64(seconds) {
        let sources = gen.block(block);
        c.take_mips();
        for s in &sources {
            c.set_request(s.index, false);
            let Some(want) = expected_of(s) else { continue };
            let Some(p) = c.compile(&s.text) else {
                continue;
            };
            let Some(loaded) = c.round_trip(&p) else {
                continue;
            };
            let Some(o) = c.execute(&loaded) else {
                continue;
            };
            c.check(want.matches(&o), || {
                format!(
                    "stream source {}: value {}, expected {want:?}",
                    s.index, o.value
                )
            });
            if block < STREAM_MIN_BLOCKS {
                out.code_instrs += p.code_size() as u64;
                out.sim_cycles += o.stats.cycles;
                out.stack_refs += o.stats.stack_refs();
            }
        }
        out.pass_mips.push(c.take_mips());
        let requests = run_requests(sources.iter().map(|s| s.text.clone()));
        c.set_request(sources[0].index, false);
        let responses = c.batch(&mut svc, &requests);
        c.check_responses(&requests, &responses, |src| {
            let s = sources.iter().find(|s| s.text == src)?;
            expected_of(s).map(|e| (e, 0))
        });
        block += 1;
    }
    out.loop_s = start.elapsed().as_secs_f64();
    out
}

// ------------------------------------------------------------------ svc-mix

/// Requests per `process_batch` call: enough work per call that the
/// pool's thread start-up does not set the batch latency.
const SVC_BATCH: usize = 256;
/// Batches per direct probe of one pool program.
const SVC_PROBE_EVERY: usize = 4;
/// Compiles, loads and runs per probe, back to back.
const SVC_PROBE_REPEATS: usize = 8;
/// Cache capacity: half the program pool.
const SVC_CACHE: usize = inputs::SVC_PROGRAMS / 2;

/// `svc-mix`: the skewed loadgen request stream, replayed in batches
/// through a two-worker service whose cache holds half of the
/// programs.
pub fn svc_mix(c: &mut Client, seed: u64, seconds: f64) -> RunResult {
    let mut out = RunResult::default();
    let (pool, requests, reference, counts) = repeated_setup(c, &mut out, SVC_SETUPS, |c| {
        let (pool, requests) = inputs::svc_stream(seed);
        let mut reference: HashMap<String, (Expected, usize)> = HashMap::new();
        let mut counts = (0u64, 0u64, 0u64);
        for (i, src) in pool.iter().enumerate() {
            c.set_request(i as u64, true);
            let Some(p) = c.compile(src) else { continue };
            let Some(loaded) = c.round_trip(&p) else {
                continue;
            };
            let Some(o) = c.execute(&loaded) else {
                continue;
            };
            let Some(want) = c.oracle(src) else { continue };
            c.check(want.matches(&o), || {
                format!("pool program {i}: {} vs {want:?}", o.value)
            });
            counts.0 += o.stats.cycles;
            counts.1 += o.stats.stack_refs();
            counts.2 += p.code_size() as u64;
            // The service must answer exactly as direct execution does.
            let exact = Expected {
                value: o.value,
                output: Some(o.output),
            };
            reference.insert(src.clone(), (exact, p.code_size()));
        }
        (pool, requests, reference, counts)
    });
    (out.sim_cycles, out.stack_refs, out.code_instrs) = counts;

    let mut svc = service(SVC_WORKERS, SVC_CACHE);
    let batches = requests.len() / SVC_BATCH;
    c.start_loop();
    let start = Instant::now();
    let mut k = 0usize;
    while k < batches || start.elapsed() < Duration::from_secs_f64(seconds) {
        let chunk = &requests[(k % batches) * SVC_BATCH..][..SVC_BATCH];
        c.set_request(k as u64, false);
        let responses = c.batch(&mut svc, chunk);
        c.check_responses(chunk, &responses, |src| reference.get(src).cloned());
        if k.is_multiple_of(SVC_PROBE_EVERY) {
            // Direct compiles, loads and runs of one pool program, back
            // to back, so that the engine's own samples span the whole
            // run. Only the first of them meets the caches the batch
            // left cold: it took about 1.7 times as long to compile and
            // 2.5 times as long to load as the repeats, and stalled for
            // over 2 ms several times as often, by amounts that follow
            // the host's other tenants. The repeats keep the medians on
            // warm calls and the 97th percentiles inside the cold ones.
            let src = &pool[(k / SVC_PROBE_EVERY) % pool.len()];
            for _ in 0..SVC_PROBE_REPEATS {
                let Some(p) = c.compile(src) else { break };
                let Some(loaded) = c.round_trip(&p) else {
                    break;
                };
                let Some(o) = c.execute(&loaded) else { break };
                if let Some((want, _)) = reference.get(src) {
                    c.check(want.matches(&o), || {
                        format!("pool program: {} vs {want:?}", o.value)
                    });
                }
            }
        }
        k += 1;
        if k.is_multiple_of(batches) {
            out.pass_mips.push(c.take_mips());
        }
    }
    out.loop_s = start.elapsed().as_secs_f64();
    out
}
