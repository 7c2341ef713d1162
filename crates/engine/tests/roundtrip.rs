//! The serialization acceptance property: serialize → deserialize →
//! verify → execute round-trips **byte-identical** results — same
//! value, same output, same `RunStats` — against direct compilation,
//! on every checked-in example and across the full fuzz grammar.

use lesgs_engine::{CompilerConfig, Engine};
use lesgs_fuzz::{generate, GenConfig};
use lesgs_testkit::Rng;

/// Engines covering the configuration axes the fingerprint encodes:
/// the paper default, the stack-only baseline, and the permi shuffle
/// (so `Swap`/`Permi` instructions cross the wire).
fn engines() -> Vec<Engine> {
    use lesgs_core::config::ShuffleStrategy;
    use lesgs_core::AllocConfig;
    let mut configs = vec![
        AllocConfig::paper_default(),
        AllocConfig::baseline(),
        AllocConfig {
            shuffle: ShuffleStrategy::OptimalPermi,
            branch_prediction: true,
            ..AllocConfig::default()
        },
    ];
    configs
        .drain(..)
        .map(|alloc| {
            Engine::with_config(CompilerConfig {
                alloc,
                fuel: 50_000_000,
                ..CompilerConfig::default()
            })
        })
        .collect()
}

/// Asserts the round-trip property for one source under one engine.
/// Returns false if the program doesn't run (fuzz programs may hit
/// runtime errors; those must at least fail identically).
fn assert_round_trips(engine: &Engine, src: &str, label: &str) {
    let program = match engine.compile(src) {
        Ok(p) => p,
        Err(e) => panic!("{label}: failed to compile: {e}"),
    };
    let blob = program.to_bytes();
    let loaded = engine
        .load_program(&blob)
        .unwrap_or_else(|e| panic!("{label}: round-trip rejected: {e}"));
    assert_eq!(
        loaded.disassemble(),
        program.disassemble(),
        "{label}: disassembly differs after round-trip"
    );
    assert_eq!(loaded.alloc(), program.alloc(), "{label}: config differs");
    let direct = engine.execute(&program);
    let replayed = engine.execute(&loaded);
    assert_eq!(
        direct, replayed,
        "{label}: outcome differs after round-trip"
    );
}

#[test]
fn all_scheme_examples_round_trip() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scheme-examples");
    let mut saw = 0;
    for entry in std::fs::read_dir(dir).expect("scheme-examples exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("scm") {
            continue;
        }
        saw += 1;
        let src = std::fs::read_to_string(&path).expect("example reads");
        for engine in engines() {
            assert_round_trips(&engine, &src, &path.display().to_string());
        }
    }
    assert!(saw >= 4, "expected the checked-in examples, found {saw}");
}

#[test]
fn fuzz_programs_round_trip_500_cases() {
    // One deterministic sweep over the full generator grammar; the
    // engine rotates per case so all fingerprint axes get traffic.
    let engines = engines();
    let mut rng = Rng::new(0x1bc0_de00);
    let cfg = GenConfig::default();
    for case in 0..500 {
        let src = generate(&mut rng, &cfg).render();
        let engine = &engines[case % engines.len()];
        assert_round_trips(engine, &src, &format!("fuzz case {case}"));
    }
}

/// `(quote ((…(1)…)))` with `lists` nested lists: the innermost `1`
/// sits at datum depth `lists`.
fn nested_quote(lists: usize) -> String {
    format!(
        "(define x (quote {}1{})) (car x)",
        "(".repeat(lists),
        ")".repeat(lists)
    )
}

/// Every program `Engine::compile` accepts serializes to a blob the
/// loader accepts: the deepest quoted datum the loader takes compiles
/// and round-trips, and one level deeper is a compile error rather
/// than a blob that fails to load.
#[test]
fn quoted_datum_depth_cap_is_a_compile_error() {
    use lesgs_engine::{EngineError, DATUM_MAX_DEPTH};
    let engine = Engine::new();
    assert_round_trips(&engine, &nested_quote(DATUM_MAX_DEPTH), "deepest datum");
    match engine.compile(&nested_quote(DATUM_MAX_DEPTH + 1)) {
        Err(EngineError::Compile(e)) => {
            assert!(e.message.contains("nests deeper"), "{e}");
        }
        Err(e) => panic!("expected a compile error, got {e}"),
        Ok(_) => panic!("a datum the loader rejects compiled"),
    }
}
