//! The fixed-size scoped worker pool.
//!
//! Jobs are drawn from a shared queue by a fixed set of scoped worker
//! threads; each worker keeps its results tagged with the submission
//! index and returns them when it joins, so the caller can reassemble
//! them in order no matter how execution interleaved. Panics are
//! caught per job ([`std::panic::catch_unwind`]) and become that job's
//! result; the worker survives and moves on to the next job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use crate::stats::PoolStats;

/// Worker-pool settings.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads (at least 1; capped at the job count).
    pub workers: usize,
    /// Per-worker stack size in bytes (0 = platform default). The
    /// memory is virtual; only pages actually touched are committed.
    pub stack_bytes: usize,
    /// Thread-name prefix (workers are named `<name>-<i>`).
    pub name: String,
    /// Run once on each worker thread before it takes its first job —
    /// e.g. `lesgs_interp::mark_wide_stack` so interpreter evaluations
    /// run inline on the worker instead of bouncing to a dedicated
    /// thread.
    pub worker_init: Option<fn()>,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig::with_workers(1)
    }
}

impl PoolConfig {
    /// A pool of `workers` threads with default stack and name.
    pub fn with_workers(workers: usize) -> PoolConfig {
        PoolConfig {
            workers: workers.max(1),
            stack_bytes: 0,
            name: "lesgs-exec".to_owned(),
            worker_init: None,
        }
    }
}

/// A job that panicked: the submission index and the rendered payload.
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// The job's submission index.
    pub index: usize,
    /// The panic payload, rendered to a string.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// One job's outcome: its value, or the panic that killed it.
pub type JobResult<T> = Result<T, JobPanic>;

/// What [`map_ordered`] returns: one result per input, in submission
/// order, plus the pool's accounting.
#[derive(Debug)]
pub struct MapOutcome<T> {
    /// One slot per input item, in submission order.
    pub results: Vec<JobResult<T>>,
    /// Jobs, timings, utilization.
    pub stats: PoolStats,
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic".to_owned()
    }
}

/// Runs `f` over `items` on a fixed-size worker pool, returning the
/// results **in submission order** regardless of completion order.
///
/// `f` receives each item's submission index alongside the item. A
/// panicking job yields a [`JobPanic`] in its slot; remaining jobs are
/// unaffected. With one worker this degenerates to a sequential loop
/// on a single (optionally wide-stack) thread, so sequential and
/// parallel drivers share one code path.
pub fn map_ordered<I, T, F>(cfg: &PoolConfig, items: Vec<I>, f: F) -> MapOutcome<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    let workers = cfg.workers.max(1).min(n.max(1));
    let mut stats = PoolStats::new(workers as u64);
    stats.submitted = n as u64;
    let mut slots: Vec<Option<JobResult<T>>> = (0..n).map(|_| None).collect();
    if n == 0 {
        return MapOutcome {
            results: Vec::new(),
            stats,
        };
    }

    let start = Instant::now();
    // The queue is an iterator behind a mutex: workers pull the next
    // (index, item) pair; no work is assigned ahead of time, so a slow
    // job never delays unrelated ones beyond worker availability. Each
    // worker keeps its own results and hands them back when it joins,
    // so the calling thread sleeps until the pool is done instead of
    // waking once per job to compete with the workers for a core.
    let queue = Mutex::new(items.into_iter().enumerate());

    thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queue = &queue;
            let f = &f;
            let init = cfg.worker_init;
            let mut builder = thread::Builder::new().name(format!("{}-{w}", cfg.name));
            if cfg.stack_bytes > 0 {
                builder = builder.stack_size(cfg.stack_bytes);
            }
            let handle = builder
                .spawn_scoped(s, move || {
                    if let Some(init) = init {
                        init();
                    }
                    let mut done = Vec::new();
                    let mut busy_ns = 0.0f64;
                    loop {
                        let job = {
                            // A panic in `f` is caught below, so the
                            // lock is only ever poisoned by a panic in
                            // `next()` itself — recover regardless.
                            let mut guard =
                                queue.lock().unwrap_or_else(|poison| poison.into_inner());
                            guard.next()
                        };
                        let Some((index, item)) = job else { break };
                        let wait_ns = start.elapsed().as_nanos() as f64;
                        let t0 = Instant::now();
                        let result =
                            catch_unwind(AssertUnwindSafe(|| f(index, item))).map_err(|p| {
                                JobPanic {
                                    index,
                                    message: payload_to_string(&*p),
                                }
                            });
                        let run_ns = t0.elapsed().as_nanos() as f64;
                        busy_ns += run_ns;
                        done.push((index, result, wait_ns, run_ns));
                    }
                    (done, busy_ns)
                })
                .expect("spawn pool worker");
            handles.push(handle);
        }
        for handle in handles {
            let (done, busy_ns) = match handle.join() {
                Ok(worker) => worker,
                Err(p) => std::panic::resume_unwind(p),
            };
            stats.busy_ns += busy_ns;
            for (index, result, wait_ns, run_ns) in done {
                if result.is_err() {
                    stats.panicked += 1;
                } else {
                    stats.completed += 1;
                }
                stats.queue_wait.observe(wait_ns);
                stats.job_run.observe(run_ns);
                slots[index] = Some(result);
            }
        }
    });
    stats.wall_ns = start.elapsed().as_nanos() as f64;

    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every job reports exactly once"))
        .collect();
    MapOutcome { results, stats }
}

/// Streaming variant of [`map_ordered`] for long campaigns: jobs
/// `0..n` are built by `make`, dispatched in bounded chunks, and each
/// result is passed to `visit` **in submission order**. Memory is
/// bounded by the chunk size (a small multiple of the worker count),
/// not by `n`.
///
/// `visit` runs on the calling thread; returning `Err` stops the
/// campaign after the current chunk (already-computed results of that
/// chunk are discarded) and propagates the error.
///
/// # Errors
///
/// Whatever `visit` returns.
pub fn for_each_ordered<T, E>(
    cfg: &PoolConfig,
    n: u64,
    make: impl Fn(u64) -> T + Sync,
    mut visit: impl FnMut(u64, JobResult<T>) -> Result<(), E>,
) -> Result<PoolStats, E>
where
    T: Send,
{
    let workers = cfg.workers.max(1);
    let chunk = (workers as u64).saturating_mul(32).max(1);
    let mut stats = PoolStats::new(workers as u64);
    let mut next = 0u64;
    while next < n {
        let hi = next.saturating_add(chunk).min(n);
        let indices: Vec<u64> = (next..hi).collect();
        let out = map_ordered(cfg, indices, |_slot, i| make(i));
        stats.merge(&out.stats);
        for (offset, result) in out.results.into_iter().enumerate() {
            visit(next + offset as u64, result)?;
        }
        next = hi;
    }
    Ok(stats)
}
