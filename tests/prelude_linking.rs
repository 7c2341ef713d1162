//! How the standard prelude links into a user program: only the
//! defines the program reaches, transitively, in prelude order ahead of
//! the user's own, and never one the user shadows.

use lesgs::frontend::program::{SurfaceProgram, PRELUDE};

fn define_names(src: &str) -> Vec<String> {
    SurfaceProgram::from_source(src)
        .unwrap()
        .defines
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

/// Where `name` is defined in the prelude text.
fn prelude_position(name: &str) -> usize {
    PRELUDE
        .find(&format!("(define ({name} "))
        .unwrap_or_else(|| panic!("{name} is not a prelude define"))
}

/// The interpreter and the VM agree on `src`; returns the final value.
fn agreed_value(src: &str) -> String {
    let oracle = lesgs::interp::run_source(src, 1_000_000).unwrap();
    let vm = lesgs::compiler::run_source(src, &Default::default()).unwrap();
    assert_eq!(vm.output, oracle.output, "{src}");
    assert_eq!(vm.value, oracle.value, "{src}");
    vm.value
}

#[test]
fn user_define_shadows_the_prelude_inside_the_prelude() {
    // The user's `length` counts every element twice; the prelude's
    // `list->vector` sizes its vector with whichever `length` is linked.
    let src = "(define (length l) (if (null? l) 0 (+ 2 (length (cdr l)))))
               (vector-length (list->vector '(1 2 3)))";
    assert_eq!(agreed_value(src), "6");
    let names = define_names(src);
    assert_eq!(names, ["list->vector", "length"]);
}

#[test]
fn transitive_chains_are_linked() {
    let src = "(cadddr '(1 2 3 4 5))";
    assert_eq!(agreed_value(src), "4");
    assert_eq!(define_names(src), ["cddr", "cdddr", "cadddr"]);
}

#[test]
fn defines_come_in_prelude_order_ahead_of_the_users() {
    let src = "(define (twice x) (* 2 x))
               (define (total l) (fold-left + 0 l))
               (list (total (map twice (reverse '(1 2 3)))) (caddr '(4 5 6)) (memq 'b '(a b)))";
    assert_eq!(agreed_value(src), "(12 6 (b))");
    let names = define_names(src);
    let (prelude, user) = names.split_at(names.len() - 2);
    assert_eq!(user, ["twice", "total"]);
    let mut linked: Vec<&str> = prelude.iter().map(String::as_str).collect();
    linked.sort_by_key(|name| prelude_position(name));
    assert_eq!(prelude, linked.as_slice());
    for name in ["cddr", "caddr", "reverse", "memq", "map", "fold-left"] {
        assert!(linked.contains(&name), "{name} missing from {linked:?}");
    }
    assert_eq!(linked.len(), 6, "{linked:?}");
}
