//! The interpreter and the VM carry separate value representations;
//! differential testing only works if their `display`/`write`
//! renderings agree on every datum. This property test hammers that
//! agreement through the whole pipeline with quoted random data.

use lesgs_testkit::{run_cases, Rng};

fn gen_symbol(rng: &mut Rng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let mut s = String::new();
    s.push(*rng.pick(FIRST) as char);
    for _ in 0..rng.below(7) {
        s.push(*rng.pick(REST) as char);
    }
    s
}

fn gen_string(rng: &mut Rng) -> String {
    const CHARS: &[u8] = b" abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let body: String = (0..rng.below(9))
        .map(|_| *rng.pick(CHARS) as char)
        .collect();
    format!("\"{body}\"")
}

/// Generates a printable datum expression.
fn gen_datum(rng: &mut Rng, depth: u32) -> String {
    let leaf = |rng: &mut Rng| match rng.below(7) {
        0 => rng.range_i64(-999, 999).to_string(),
        1 => "#t".to_owned(),
        2 => "#f".to_owned(),
        3 => gen_symbol(rng),
        4 => "()".to_owned(),
        5 => (*rng.pick(&["#\\a", "#\\space", "#\\newline"])).to_owned(),
        _ => gen_string(rng),
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.weighted(&[3, 2, 1, 1]) {
        0 => leaf(rng),
        1 => {
            let items: Vec<String> = (0..rng.below(4))
                .map(|_| gen_datum(rng, depth - 1))
                .collect();
            format!("({})", items.join(" "))
        }
        2 => {
            let items: Vec<String> = (0..rng.below(4))
                .map(|_| gen_datum(rng, depth - 1))
                .collect();
            format!("#({})", items.join(" "))
        }
        _ => {
            let a = gen_datum(rng, depth - 1);
            let b = gen_datum(rng, depth - 1);
            format!("({a} . {b})")
        }
    }
}

/// Quoted data renders identically through the interpreter and the
/// compiled VM, in both display and write styles.
#[test]
fn quoted_data_renders_identically() {
    run_cases(64, |rng| {
        let d = gen_datum(rng, 3);
        let src = format!("(display '{d}) (newline) (write '{d}) '{d}");
        let oracle =
            lesgs::interp::run_source(&src, 1_000_000).expect("interpreter accepts the datum");
        let cfg = lesgs::compiler::CompilerConfig {
            poison: true,
            ..Default::default()
        };
        let vm = lesgs::compiler::run_source(&src, &cfg).expect("compiler accepts the datum");
        assert_eq!(&vm.output, &oracle.output, "display/write of {d}");
        assert_eq!(&vm.value, &oracle.value, "final value of {d}");
    });
}

/// The reader round-trips its own printer output for quoted data.
#[test]
fn reader_roundtrips_printed_data() {
    run_cases(64, |rng| {
        let d = gen_datum(rng, 3);
        let parsed = lesgs::sexpr::parse_one(&d).expect("generated datum parses");
        let printed = parsed.to_string();
        let reparsed = lesgs::sexpr::parse_one(&printed).expect("printed datum parses");
        assert_eq!(parsed, reparsed);
    });
}

#[test]
fn shipped_scheme_examples_pass_differential_check() {
    for file in ["tak.scm", "counter.scm", "sieve.scm"] {
        let path = format!("{}/scheme-examples/{file}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap();
        lesgs::compiler::differential_check(&src, &lesgs::compiler::config_matrix(), 200_000_000)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
    }
}

/// Non-ASCII string literals print the same UTF-8 bytes through the
/// interpreter and the compiled VM.
#[test]
fn utf8_string_literals_print_identically() {
    let src = r#"(display "héllo") (newline) (write "λ→日本") (string-length "héllo")"#;
    let oracle = lesgs::interp::run_source(src, 1_000_000).expect("interpreter runs");
    let vm = lesgs::compiler::run_source(src, &Default::default()).expect("compiler runs");
    assert_eq!(oracle.output, "héllo\n\"λ→日本\"");
    assert_eq!(vm.output.as_bytes(), oracle.output.as_bytes());
    assert_eq!(vm.value, oracle.value);
}
