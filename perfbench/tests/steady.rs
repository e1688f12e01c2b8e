//! Steadiness self-test: the benchmark's deterministic outputs repeat
//! exactly for a seed and change with it. Runs the command line's code on
//! the small input sizes.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use pdgc_perfbench::{run, Sizes, Workload};

const ALL: [Workload; 3] = [Workload::Suite, Workload::ServeMix, Workload::Scale];

#[test]
fn two_runs_of_a_seed_give_identical_counts_and_fingerprints() {
    for w in ALL {
        for trace in [false, true] {
            let a = run(w, 7, 0.1, trace, Sizes::SMALL);
            let b = run(w, 7, 0.1, trace, Sizes::SMALL);
            assert!(a.correct(), "{w:?} trace={trace}: {:?}", a.problems);
            assert!(b.correct(), "{w:?} trace={trace}: {:?}", b.problems);
            assert!(a.counts.contains_key("fingerprints"), "{w:?} trace={trace}");
            assert_eq!(a.counts, b.counts, "{w:?} trace={trace}");
            assert_eq!(a.input_fingerprint, b.input_fingerprint, "{w:?}");
        }
    }
}

#[test]
fn the_serve_counts_are_among_the_repeated_ones() {
    let r = run(Workload::ServeMix, 7, 0.1, true, Sizes::SMALL);
    for key in ["serve.hits", "serve.requests", "serve.evictions"] {
        assert!(r.counts.contains_key(key), "{key} missing");
    }
    assert!(
        r.counts["serve.evictions"] > 0,
        "the small mix must still evict"
    );
    let r = run(Workload::Suite, 7, 0.1, false, Sizes::SMALL);
    for key in ["sim_cycles", "spill_insts", "moves_left"] {
        assert!(r.counts[key] > 0, "{key} is zero");
    }
}

#[test]
fn a_new_seed_gives_a_new_input_set() {
    for w in ALL {
        let a = run(w, 7, 0.1, false, Sizes::SMALL);
        let b = run(w, 8, 0.1, false, Sizes::SMALL);
        assert_ne!(a.input_fingerprint, b.input_fingerprint, "{w:?}");
    }
}
