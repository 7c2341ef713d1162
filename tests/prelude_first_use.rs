//! The prelude is built once per process, on first use. Threads that
//! race to that first use must all see the same prelude. This test has
//! its own binary so that nothing else builds the prelude first.

use std::sync::Barrier;

use lesgs::engine::Engine;

#[test]
fn concurrent_first_compiles_agree() {
    const THREADS: usize = 8;
    let src = "(define (sum l) (fold-left + 0 l))
               (sum (map (lambda (x) (* x x)) (iota 10)))";
    let barrier = Barrier::new(THREADS);
    let listings: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let engine = Engine::new();
                    barrier.wait();
                    engine.compile(src).unwrap().disassemble()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let again = Engine::new().compile(src).unwrap().disassemble();
    for listing in &listings {
        assert_eq!(listing, &again);
    }
}
