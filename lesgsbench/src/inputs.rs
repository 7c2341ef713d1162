//! Seeded input generation for the three workloads.
//!
//! Everything here is a pure function of the seed (and, for the
//! compile stream, the block index), so the same seed replays the same
//! inputs byte for byte. The program under test only ever sees the
//! generated source text.

use std::collections::HashSet;

use lesgs_sexpr::{Lexer, TokenKind};
use lesgs_suite::{all_benchmarks, Scale};
use lesgs_svc::loadgen::{self, WorkloadConfig};
use lesgs_svc::Request;
use lesgs_testkit::Rng;

/// Mixes a seed with a stream label so that the workloads draw from
/// independent generators.
fn sub_seed(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

// ---------------------------------------------------------------- exec-suite

/// The order of one round-robin pass of `exec-suite`: every suite
/// program once, in a seeded order that differs from round to round.
pub fn exec_round(seed: u64, round: u64, programs: usize) -> Vec<usize> {
    let mut rng = Rng::new(sub_seed(seed, 0xE7EC ^ (round << 16)));
    permutation(programs, &mut rng)
}

// ------------------------------------------------------------ compile-stream

/// The three kinds of source in the compile stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `lesgs_svc::loadgen`-style shape of about 100–300 bytes.
    Shape,
    /// A suite program at `Scale::Small`, its top-level names renamed.
    Suite,
    /// A takr-style program made of many procedures.
    Takr,
}

/// One source of the compile stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSource {
    /// Position in the stream (distinct across the whole stream).
    pub index: u64,
    /// Which generator made it.
    pub kind: Kind,
    /// Source text.
    pub text: String,
    /// What running it must give.
    pub answer: Answer,
}

/// The reference result of a stream source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Worked out by hand (shapes) or by a native `tak` (takr-style):
    /// the value and the printed output.
    Known(String, String),
    /// Whatever the interpreter gives for suite program `i` at
    /// `Scale::Small`; renaming does not change it.
    Suite(usize),
}

/// Shapes per block (four of each of the six loadgen shapes).
pub const BLOCK_SHAPES: usize = 24;
/// takr-style programs per block, one per size stratum.
pub const BLOCK_TAKR: usize = 8;
/// Smallest and largest procedure count of a takr-style program. At
/// about 240 bytes per procedure the largest is close to 40 KB.
const TAKR_FUNCS: (usize, usize) = (10, 170);

/// The fixed ingredients of the compile stream: the suite's small
/// sources, with the top-level names each one defines.
pub struct StreamGen {
    seed: u64,
    suite: Vec<(String, Vec<String>)>,
}

impl StreamGen {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> StreamGen {
        let suite = all_benchmarks()
            .iter()
            .map(|b| {
                let src = b.source(Scale::Small).to_owned();
                let names = top_level_names(&src);
                (src, names)
            })
            .collect();
        StreamGen { seed, suite }
    }

    /// Sources per block.
    pub fn block_len(&self) -> usize {
        BLOCK_SHAPES + self.suite.len() + BLOCK_TAKR
    }

    /// Block `block` of the stream. Every block holds the same
    /// multiset of shapes, suite programs and takr sizes, and the
    /// constants that decide what a program computes depend only on
    /// the block and the slot, so sums over whole blocks do not depend
    /// on the seed. The names and the order do.
    pub fn block(&self, block: u64) -> Vec<StreamSource> {
        let mut rng = Rng::new(sub_seed(self.seed, 0xC0DE ^ (block << 16)));
        let base = block * self.block_len() as u64;
        let mut made: Vec<(Kind, usize)> = Vec::new();
        made.extend((0..BLOCK_SHAPES).map(|i| (Kind::Shape, i)));
        made.extend((0..self.suite.len()).map(|i| (Kind::Suite, i)));
        made.extend((0..BLOCK_TAKR).map(|i| (Kind::Takr, i)));
        let order = permutation(made.len(), &mut rng);
        let b = block as usize;
        order
            .into_iter()
            .enumerate()
            .map(|(pos, slot)| {
                let index = base + pos as u64;
                let (kind, i) = made[slot];
                let tag = format!("{:x}", sub_seed(self.seed, index) & 0xFF_FFFF);
                let (text, answer) = match kind {
                    Kind::Shape => {
                        let (x, y) = (2 + (i + b) % 7, 10 + (7 * i + 3 * b) % 30);
                        shape(i % 6, index, &tag, x as i64, y as i64)
                    }
                    Kind::Suite => (
                        rename(&self.suite[i].0, &self.suite[i].1, &tag, index),
                        Answer::Suite(i),
                    ),
                    Kind::Takr => {
                        let (lo, hi) = TAKR_FUNCS;
                        let width = (hi - lo) / BLOCK_TAKR;
                        let n_funcs = lo + i * width + (7 * b) % width;
                        takr_like(n_funcs, index, &tag, [5 + i % 3, 2 + i % 2, i % 2])
                    }
                };
                StreamSource {
                    index,
                    kind,
                    text,
                    answer,
                }
            })
            .collect()
    }
}

/// Names bound by top-level `define` forms.
fn top_level_names(src: &str) -> Vec<String> {
    let forms = lesgs_sexpr::parse(src).expect("suite sources parse");
    forms
        .iter()
        .filter(|form| form.is_form("define"))
        .filter_map(|form| {
            let target = form.as_slice()?.get(1)?;
            let name = match target.as_slice() {
                Some(head) => head.first()?.as_symbol()?,
                None => target.as_symbol()?,
            };
            Some(name.to_owned())
        })
        .collect()
}

/// Renames every occurrence of the given symbols to `<name>-<tag>-<index>`.
fn rename(src: &str, names: &[String], tag: &str, index: u64) -> String {
    let names: HashSet<&str> = names.iter().map(String::as_str).collect();
    let mut out = String::with_capacity(src.len() + 256);
    let mut copied = 0;
    for tok in Lexer::new(src) {
        let tok = tok.expect("suite sources lex");
        if let TokenKind::Symbol(sym) = &tok.kind {
            if names.contains(sym.as_str()) {
                out.push_str(&src[copied..tok.offset]);
                out.push_str(&format!("{sym}-{tag}-{index}"));
                copied = tok.offset + sym.len();
            }
        }
    }
    out.push_str(&src[copied..]);
    out
}

/// One of the six `lesgs_svc::loadgen` shapes, with the stream index
/// baked into its names so that no two sources are equal, and its
/// result worked out by hand.
fn shape(which: usize, index: u64, tag: &str, a: i64, b: i64) -> (String, Answer) {
    let id = format!("{tag}-{index}");
    let i = index as i64;
    let known = |value: i64, output: String| Answer::Known(value.to_string(), output);
    match which {
        0 => (
            format!("(define (f-{id} n) (if (zero? n) {a} (+ {a} (f-{id} (- n 1))))) (f-{id} {b})"),
            known(a * (b + 1), String::new()),
        ),
        1 => (
            format!(
                "(define (loop-{id} n acc) (if (zero? n) acc (loop-{id} (- n 1) (+ acc {a})))) \
                 (loop-{id} {b} {index})"
            ),
            known(i + a * b, String::new()),
        ),
        2 => (
            format!(
                "(define (iota-{id} n) (if (zero? n) '() (cons n (iota-{id} (- n 1))))) \
                 (length (map (lambda (x) (* x {a})) (iota-{id} {b})))"
            ),
            known(b, String::new()),
        ),
        3 => (
            format!(
                "(define (ev-{id} n) (if (zero? n) #t (od-{id} (- n 1)))) \
                 (define (od-{id} n) (if (zero? n) #f (ev-{id} (- n 1)))) \
                 (if (ev-{id} {b}) {a} (- {a}))"
            ),
            known(if b % 2 == 0 { a } else { -a }, String::new()),
        ),
        4 => (
            format!(
                "(define v-{id} (make-vector {a} {b})) \
                 (vector-set! v-{id} 1 {index}) \
                 (display (vector-ref v-{id} 1)) (newline) \
                 (+ (vector-ref v-{id} 0) (vector-ref v-{id} 1))"
            ),
            known(b + i, format!("{index}\n")),
        ),
        _ => (
            format!(
                "(define (g-{id} a b c d e f) (+ a (- b (* c (+ d (- e f)))))) \
                 (g-{id} {a} {b} {index} 3 2 1)"
            ),
            known(a + b - 4 * i, String::new()),
        ),
    }
}

/// tak split across `n_funcs` procedures, as the suite's takr is, with
/// tiny arguments so that running it costs next to nothing. Its value
/// comes from a native `tak`.
fn takr_like(n_funcs: usize, index: u64, tag: &str, [x, y, z]: [usize; 3]) -> (String, Answer) {
    use std::fmt::Write;
    let name = |k: usize| format!("tk{k}-{tag}-{index}");
    let mut s = String::new();
    for i in 0..n_funcs {
        let f = |k: usize| name((i * 4 + k) % n_funcs);
        let _ = writeln!(
            s,
            "(define ({} x y z)
               (if (not (< y x)) z
                   ({} ({} (- x 1) y z)
                       ({} (- y 1) z x)
                       ({} (- z 1) x y))))",
            name(i),
            f(1),
            f(2),
            f(3),
            f(4),
        );
    }
    let _ = write!(s, "({} {x} {y} {z})", name(0));
    let value = tak(x as i64, y as i64, z as i64);
    (s, Answer::Known(value.to_string(), String::new()))
}

fn tak(x: i64, y: i64, z: i64) -> i64 {
    if y < x {
        tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
    } else {
        z
    }
}

// ------------------------------------------------------------------ svc-mix

/// Distinct programs in the `svc-mix` pool: twice the cache.
pub const SVC_PROGRAMS: usize = 64;
/// Requests in one pass over the `svc-mix` stream: 256 batches, so
/// that a tail percentile of batch latency spans many distinct batches.
pub const SVC_REQUESTS: usize = 65_536;

/// The `svc-mix` program pool and request stream for `seed`.
///
/// The pool is the fixed loadgen corpus, so the hot programs and every
/// total over the pool are the same for every seed; the seed draws the
/// request stream from it.
pub fn svc_stream(seed: u64) -> (Vec<String>, Vec<Request>) {
    let corpus = WorkloadConfig {
        programs: SVC_PROGRAMS,
        ..WorkloadConfig::default()
    };
    let pool = loadgen::programs(&corpus);
    let cfg = WorkloadConfig {
        requests: SVC_REQUESTS,
        seed: sub_seed(seed, 0x5FC),
        ..corpus
    };
    let requests = loadgen::requests(&cfg, &pool);
    (pool, requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let (a, b) = (StreamGen::new(7), StreamGen::new(7));
        for block in 0..3 {
            assert_eq!(a.block(block), b.block(block));
        }
        assert_eq!(svc_stream(7), svc_stream(7));
        assert_eq!(exec_round(7, 3, 16), exec_round(7, 3, 16));
    }

    #[test]
    fn different_seeds_give_different_stream_sources() {
        let (a, b) = (StreamGen::new(7).block(0), StreamGen::new(8).block(0));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.text, y.text, "source {} repeats across seeds", x.index);
        }
        assert_ne!(svc_stream(7).1, svc_stream(8).1);
        assert_ne!(exec_round(7, 0, 16), exec_round(8, 0, 16));
    }

    #[test]
    fn stream_sources_are_distinct_and_sized_as_specified() {
        let gen = StreamGen::new(11);
        let mut seen = HashSet::new();
        let mut largest = 0;
        for block in 0..4 {
            for src in gen.block(block) {
                assert!(
                    seen.insert(src.text.clone()),
                    "source {} repeats",
                    src.index
                );
                match src.kind {
                    Kind::Shape => assert!((80..=320).contains(&src.text.len()), "{}", src.text),
                    Kind::Takr => largest = largest.max(src.text.len()),
                    Kind::Suite => {}
                }
            }
        }
        assert!(
            (30_000..=42_000).contains(&largest),
            "largest takr {largest} B"
        );
    }

    #[test]
    fn code_size_of_a_block_repeats() {
        let engine = lesgs_engine::Engine::new();
        let size = |seed| -> usize {
            StreamGen::new(seed)
                .block(0)
                .iter()
                .map(|s| {
                    engine
                        .compile(&s.text)
                        .expect("stream sources compile")
                        .code_size()
                })
                .sum()
        };
        assert_eq!(size(5), size(5));
        assert_eq!(size(5), size(6), "code size does not depend on the seed");
    }

    #[test]
    fn answers_agree_with_the_interpreter() {
        let gen = StreamGen::new(3);
        let original = |i: usize| {
            lesgs_interp::run_source(&gen.suite[i].0, 50_000_000).expect("suite program runs")
        };
        for block in [0, 1] {
            for src in gen.block(block) {
                let got = lesgs_interp::run_source(&src.text, 50_000_000)
                    .unwrap_or_else(|e| panic!("{e}\n{}", src.text));
                let (value, output) = match src.answer {
                    Answer::Known(v, o) => (v, o),
                    Answer::Suite(i) => {
                        let o = original(i);
                        (o.value, o.output)
                    }
                };
                assert_eq!((got.value, got.output), (value, output), "{}", src.text);
            }
        }
    }
}
