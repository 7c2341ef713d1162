//! The closed-loop client: every call the benchmark makes into the
//! system under test goes through here.
//!
//! Untraced, each operation is one call to the public facade
//! (`Engine::compile`, `Engine::load_program`, `Engine::execute`,
//! `Service::process_batch`) timed from outside. Traced, the same
//! operation is also replayed stage by stage through each layer's
//! public functions, every call wrapped in a span, and the result must
//! match the facade's byte for byte: the disassembly and code size of
//! a compile or load, the outcome of an execution. A mismatch aborts
//! the run.

use std::time::Instant;

use lesgs_engine::{CompiledProgram, Engine, VmOutcome};
use lesgs_metrics::Registry;
use lesgs_svc::{BatchStats, Request, Response, Service};
use lesgs_vm::{DecodedProgram, Machine};

use crate::trace::Tracer;

/// Reference result of a program: its value, and its output when the
/// reference knows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Final value, `write`-rendered.
    pub value: String,
    /// Printed output, when known.
    pub output: Option<String>,
}

impl Expected {
    /// True when `out` agrees with the reference.
    pub fn matches(&self, out: &VmOutcome) -> bool {
        out.value == self.value && self.output.as_ref().is_none_or(|o| *o == out.output)
    }
}

/// Interpreter step budget: enough for every Standard suite program.
const ORACLE_FUEL: u64 = 4_000_000_000;

/// What the client observed, untraced and traced.
#[derive(Debug, Default)]
pub struct Observed {
    /// `Engine::compile` wall times, milliseconds.
    pub compile_ms: Vec<f64>,
    /// `Engine::load_program` wall times, microseconds.
    pub load_us: Vec<f64>,
    /// Instructions retired by, and nanoseconds spent in, every
    /// `Engine::execute` call.
    pub exec_instructions: u64,
    /// See `exec_instructions`.
    pub exec_ns: u64,
    /// The same, since the last [`Client::take_mips`].
    pass_instructions: u64,
    pass_exec_ns: u64,
    /// `process_batch` wall times, milliseconds.
    pub batch_ms: Vec<f64>,
    /// Requests served by each of those batches.
    pub batch_requests: Vec<f64>,
    /// Deterministic service accounting, summed.
    pub svc: BatchStats,
    /// Checks made and checks failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Seconds spent in the interpreter oracle.
    pub oracle_s: f64,
    /// Layer counts gathered by the traced pipeline.
    pub counts: Counts,
}

/// Sizes and events per layer, summed over the traced calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Traced compiles.
    pub compiles: u64,
    /// Closure-converted functions.
    pub funcs: u64,
    /// IR nodes after lowering.
    pub ir_nodes: u64,
    /// Save expressions after pass 2.
    pub save_sites: u64,
    /// Temporaries introduced by greedy shuffling.
    pub shuffle_temps: u64,
    /// Generated instructions (`code_size()`).
    pub instrs: u64,
    /// Serialized programs, and their bytes.
    pub blobs: u64,
    /// See `blobs`.
    pub blob_bytes: u64,
    /// Executions (direct, not through the service).
    pub executions: u64,
    /// VM counters summed over those executions.
    pub instructions: u64,
    /// See `instructions`.
    pub stall_cycles: u64,
    /// See `instructions`.
    pub calls: u64,
    /// See `instructions`.
    pub ic_hits: u64,
    /// See `instructions`.
    pub ic_misses: u64,
    /// Fused pair and triple executions.
    pub fused: u64,
    /// `process_batch` calls.
    pub batches: u64,
}

/// The benchmark's only way into the system under test.
pub struct Client {
    engine: Engine,
    tracer: Option<Tracer>,
    /// Which of a staged/facade pair runs first next.
    staged_first: bool,
    /// Receives the `svc.*` summaries `process_batch` records.
    pub registry: Registry,
    /// Everything observed so far.
    pub obs: Observed,
}

impl Client {
    /// A client; `traced` selects the traced pipeline.
    pub fn new(traced: bool) -> Client {
        Client {
            engine: Engine::new(),
            tracer: traced.then(Tracer::default),
            staged_first: true,
            registry: Registry::new(),
            obs: Observed::default(),
        }
    }

    /// The tracer of a traced run.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Tags the spans that follow with a request id and phase.
    pub fn set_request(&mut self, request: u64, setup: bool) {
        if let Some(t) = &mut self.tracer {
            t.set_request(request, setup);
        }
    }

    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.obs.attempted += 1;
        if !ok {
            self.obs.failed += 1;
            if self.obs.failures.len() < 8 {
                self.obs.failures.push(what());
            }
        }
        ok
    }

    /// Compiles `src` (`Engine::compile`); `None` after a failed check.
    pub fn compile(&mut self, src: &str) -> Option<CompiledProgram> {
        self.staged_first = !self.staged_first;
        let engine = &self.engine;
        let result = match &mut self.tracer {
            None => {
                let t0 = Instant::now();
                let r = engine.compile(src);
                self.obs.compile_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                r
            }
            Some(t) => {
                t.span("sexpr.parse", |_| {
                    lesgs_sexpr::parse(src).map(|d| d.len()).ok()
                });
                t.span("sexpr.prelude", |_| {
                    lesgs_sexpr::parse(lesgs_frontend::program::PRELUDE)
                        .map(|d| d.len())
                        .ok()
                });
                let staged = |t: &mut Tracer| t.span("compile", |t| staged_compile(t, engine, src));
                let facade = |t: &mut Tracer| t.span("engine.compile", |_| engine.compile(src));
                let (staged, facade) = paired(t, self.staged_first, staged, facade);
                if let (Ok((vm, counts)), Ok(program)) = (&staged, &facade) {
                    if vm.disassemble() != program.disassemble()
                        || vm.code_size() != program.code_size()
                    {
                        abort(&format!(
                            "staged compile differs from Engine::compile on:\n{src}"
                        ));
                    }
                    let c = &mut self.obs.counts;
                    c.compiles += 1;
                    c.funcs += counts.funcs;
                    c.ir_nodes += counts.ir_nodes;
                    c.save_sites += counts.save_sites;
                    c.shuffle_temps += counts.shuffle_temps;
                    c.instrs += vm.code_size() as u64;
                } else if staged.is_ok() != facade.is_ok() {
                    abort(&format!(
                        "staged compile and Engine::compile disagree on:\n{src}"
                    ));
                }
                facade
            }
        };
        match result {
            Ok(program) => Some(program),
            Err(e) => {
                self.check(false, || format!("compile failed: {e}"));
                None
            }
        }
    }

    /// Serializes `program` and loads it back (`to_bytes`,
    /// `Engine::load_program`); the loaded program must have the same
    /// code.
    pub fn round_trip(&mut self, program: &CompiledProgram) -> Option<CompiledProgram> {
        self.staged_first = !self.staged_first;
        let engine = &self.engine;
        let result = match &mut self.tracer {
            None => {
                let bytes = program.to_bytes();
                let t0 = Instant::now();
                let r = engine.load_program(&bytes);
                self.obs.load_us.push(t0.elapsed().as_secs_f64() * 1e6);
                r
            }
            Some(t) => {
                let bytes = t.span("engine.serialize", |_| program.to_bytes());
                self.obs.counts.blobs += 1;
                self.obs.counts.blob_bytes += bytes.len() as u64;
                let staged = |t: &mut Tracer| t.span("load", |t| staged_load(t, &bytes));
                let facade =
                    |t: &mut Tracer| t.span("engine.load", |_| engine.load_program(&bytes));
                let (staged, facade) = paired(t, self.staged_first, staged, facade);
                match (&staged, &facade) {
                    (Ok(vm), Ok(loaded))
                        if vm.disassemble() == loaded.disassemble()
                            && vm.code_size() == loaded.code_size() => {}
                    (Err(_), Err(_)) => {}
                    _ => abort("staged load differs from Engine::load_program"),
                }
                facade
            }
        };
        match result {
            Ok(loaded) => {
                let same = loaded.code_size() == program.code_size();
                self.check(same, || {
                    "loaded program differs from the compiled one".to_owned()
                })
                .then_some(loaded)
            }
            Err(e) => {
                self.check(false, || format!("load failed: {e}"));
                None
            }
        }
    }

    /// Executes `program` (`Engine::execute`).
    pub fn execute(&mut self, program: &CompiledProgram) -> Option<VmOutcome> {
        self.staged_first = !self.staged_first;
        let engine = &self.engine;
        let result = match &mut self.tracer {
            None => {
                let t0 = Instant::now();
                let r = engine.execute(program);
                let ns = t0.elapsed().as_nanos() as u64;
                self.obs.pass_exec_ns += ns;
                self.obs.exec_ns += ns;
                if let Ok(out) = &r {
                    self.obs.exec_instructions += out.stats.instructions;
                }
                r
            }
            Some(t) => {
                let cost = engine.config().cost;
                let staged = |t: &mut Tracer| {
                    t.span("vm.exec", |_| {
                        Machine::from_decoded(program.decoded(), cost).run()
                    })
                };
                let facade = |t: &mut Tracer| t.span("engine.execute", |_| engine.execute(program));
                let (staged, facade) = paired(t, self.staged_first, staged, facade);
                match (&staged, &facade) {
                    (Ok(a), Ok(b)) if a == b => {}
                    (Err(_), Err(_)) => {}
                    _ => abort("Machine::run differs from Engine::execute"),
                }
                facade
            }
        };
        match result {
            Ok(out) => {
                self.obs.pass_instructions += out.stats.instructions;
                let c = &mut self.obs.counts;
                c.executions += 1;
                c.instructions += out.stats.instructions;
                c.stall_cycles += out.stats.stall_cycles;
                c.calls += out.stats.calls;
                c.ic_hits += out.dispatch.ic_hits;
                c.ic_misses += out.dispatch.ic_misses;
                c.fused += out.dispatch.fused_exec.iter().sum::<u64>()
                    + out.dispatch.fused_exec3.iter().sum::<u64>();
                Some(out)
            }
            Err(e) => {
                self.check(false, || format!("execute failed: {e}"));
                None
            }
        }
    }

    /// Drops the wall-time samples taken so far, so that the timing
    /// metrics cover only the measured loop. Set-up calls run in tight
    /// warm loops, a different population from the loop's calls; mixed
    /// in, they would move a median by an amount that depends on how
    /// many loop samples the host's speed allowed. Checks, layer counts
    /// and spans are kept.
    pub fn start_loop(&mut self) {
        let o = &mut self.obs;
        o.compile_ms.clear();
        o.load_us.clear();
        o.exec_instructions = 0;
        o.exec_ns = 0;
        o.pass_instructions = 0;
        o.pass_exec_ns = 0;
        o.batch_ms.clear();
        o.batch_requests.clear();
    }

    /// Million instructions per second of `execute` time since the
    /// last call (0 when nothing ran).
    pub fn take_mips(&mut self) -> f64 {
        let (i, ns) = (self.obs.pass_instructions, self.obs.pass_exec_ns);
        self.obs.pass_instructions = 0;
        self.obs.pass_exec_ns = 0;
        if ns == 0 {
            0.0
        } else {
            i as f64 * 1e3 / ns as f64
        }
    }

    /// Sends one batch through the service (`Service::process_batch`).
    pub fn batch(&mut self, svc: &mut Service, requests: &[Request]) -> Vec<Response> {
        let reg = &mut self.registry;
        let t0 = Instant::now();
        let (responses, stats) = match &mut self.tracer {
            None => svc.process_batch(requests, reg),
            Some(t) => t.span("svc.batch", |_| svc.process_batch(requests, reg)),
        };
        self.obs.batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.obs.batch_requests.push(requests.len() as f64);
        self.obs.svc.merge(&stats);
        self.obs.counts.batches += 1;
        responses
    }

    /// The interpreter's result for `src` (`lesgs_interp::run_source`),
    /// the reference that compiled results are checked against.
    pub fn oracle(&mut self, src: &str) -> Option<Expected> {
        let t0 = Instant::now();
        let result = match &mut self.tracer {
            None => lesgs_interp::run_source(src, ORACLE_FUEL),
            Some(t) => t.span("interp.oracle", |_| {
                lesgs_interp::run_source(src, ORACLE_FUEL)
            }),
        };
        self.obs.oracle_s += t0.elapsed().as_secs_f64();
        match result {
            Ok(out) => Some(Expected {
                value: out.value,
                output: Some(out.output),
            }),
            Err(e) => {
                self.check(false, || format!("oracle failed: {e}"));
                None
            }
        }
    }

    /// Checks every response of a batch against its reference.
    pub fn check_responses(
        &mut self,
        requests: &[Request],
        responses: &[Response],
        reference: impl Fn(&str) -> Option<(Expected, usize)>,
    ) {
        for (req, resp) in requests.iter().zip(responses) {
            let want = reference(req.source());
            let ok = match (resp, &want) {
                (Response::Ran { outcome, .. }, Some((exp, _))) => exp.matches(outcome),
                (Response::Compiled { code_size, .. }, Some((_, size))) => code_size == size,
                _ => false,
            };
            self.check(ok, || {
                format!("service answered {resp:?} for:\n{}", req.source())
            });
        }
        if responses.len() != requests.len() {
            self.check(false, || "service dropped responses".to_owned());
        }
    }
}

/// Sizes the traced compile reads off the intermediate stages.
struct StageCounts {
    funcs: u64,
    ir_nodes: u64,
    save_sites: u64,
    shuffle_temps: u64,
}

/// `Engine::compile`, one layer at a time.
fn staged_compile(
    t: &mut Tracer,
    engine: &Engine,
    src: &str,
) -> Result<(lesgs_vm::VmProgram, StageCounts), String> {
    let cfg = engine.config();
    let closed = t
        .span("frontend", |_| {
            lesgs_frontend::pipeline::front_to_closed(src)
        })
        .map_err(|e| e.to_string())?;
    let (ir, ir_nodes) = t.span("ir", |_| {
        let mut ir = lesgs_ir::lower_program(&closed);
        let nodes = ir.funcs.iter().map(|f| f.body.size() as u64).sum::<u64>();
        if !cfg.no_fold {
            lesgs_ir::fold::fold_program(&mut ir);
        }
        (ir, nodes)
    });
    let allocated = t.span("core", |_| lesgs_core::allocate_program(&ir, &cfg.alloc));
    let stats = t.span("core.stats", |_| lesgs_core::stats::collect(&allocated));
    let vm = t.span("codegen", |_| {
        lesgs_codegen::compile_program_opts(&allocated, !cfg.no_peephole)
    });
    t.span("vm.decode", |_| DecodedProgram::decode(&vm));
    let counts = StageCounts {
        funcs: closed.funcs.len() as u64,
        ir_nodes,
        save_sites: stats.save_sites as u64,
        shuffle_temps: stats.greedy_temps as u64,
    };
    Ok((vm, counts))
}

/// `Engine::load_program`, one layer at a time.
fn staged_load(t: &mut Tracer, bytes: &[u8]) -> Result<lesgs_vm::VmProgram, String> {
    let (vm, _alloc) = t
        .span("engine.deserialize", |_| {
            lesgs_engine::deserialize_program(bytes)
        })
        .map_err(|e| e.to_string())?;
    let errors = t.span("vm.verify", |_| lesgs_vm::verify_bytecode(&vm));
    if !errors.is_empty() {
        return Err(format!("{} verifier errors", errors.len()));
    }
    t.span("vm.decode", |_| DecodedProgram::decode(&vm));
    Ok(vm)
}

/// Runs the staged and the facade version of one operation. Callers
/// alternate which goes first so that neither always finds the caches
/// warm.
fn paired<A, B>(
    t: &mut Tracer,
    staged_first: bool,
    staged: impl FnOnce(&mut Tracer) -> A,
    facade: impl FnOnce(&mut Tracer) -> B,
) -> (A, B) {
    if staged_first {
        let a = staged(t);
        (a, facade(t))
    } else {
        let b = facade(t);
        (staged(t), b)
    }
}

/// Stops a traced run whose staged pipeline disagrees with the facade.
fn abort(why: &str) -> ! {
    eprintln!("lesgsbench: traced run aborted: {why}");
    std::process::exit(1);
}
