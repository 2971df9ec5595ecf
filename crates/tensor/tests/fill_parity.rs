//! The weight fill against its oracle, bitwise.
//!
//! The oracle is the loop every initializer ran before the fill had a
//! lane body: one `gen_range` per element from a freshly seeded
//! `ChaCha8Rng` (`kernels::scalar::uniform_fill`, and the Box–Muller
//! loop for `gaussian`). Every [`KernelPath`] and every [`FillLanes`]
//! build the host has must give the same bits and leave the generator
//! on the same word, for lengths around the lane step (64 elements),
//! fills that start off a step boundary or on an odd word, pieces cut
//! across a team, and a fill whose blocks carry the counter from word
//! 12 into word 13. The lane body's plain build
//! (`keystream::uniform_steps`) is held to the oracle wherever a fill is
//! whole steps from a block start.

use cap_tensor::init::{gaussian, gaussian_fill, xavier_bound, xavier_fill, xavier_uniform};
use cap_tensor::kernels::keystream::{self, STEP_ELEMS};
use cap_tensor::kernels::{self, FillLanes, KernelPath};
use cap_tensor::team::run_pieces;
use cap_tensor::Team;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Global serialization for tests that call `kernels::force`.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `n` oracle draws from word `word` of `seed`'s stream, and the word
/// the generator stands on after them.
fn oracle(seed: u64, word: u128, lo: f32, hi: f32, n: usize) -> (Vec<f32>, u128) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rng.set_word_pos(word);
    let out: Vec<f32> = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
    (out, rng.get_word_pos())
}

/// Run `fill` from word `word` on every path and every lane build the
/// host has, and hold each against the oracle.
fn check_everywhere(seed: u64, word: u128, lo: f32, hi: f32, n: usize) {
    let (want, want_word) = oracle(seed, word, lo, hi, n);
    let check = |name: &str, fill: &dyn Fn(&mut ChaCha8Rng, &mut [f32])| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_word_pos(word);
        let mut out = vec![f32::NAN; n];
        fill(&mut rng, &mut out);
        assert!(
            bits(&out) == bits(&want),
            "{name}: {n} elements from word {word} differ from the oracle"
        );
        assert_eq!(
            rng.get_word_pos(),
            want_word,
            "{name}: {n} elements from word {word} leave the generator elsewhere"
        );
    };
    for path in kernels::available_paths() {
        check(path.name(), &|rng, out| {
            kernels::uniform_fill_with(path, rng, lo, hi, out)
        });
    }
    for lanes in FillLanes::available() {
        check(lanes.name(), &|rng, out| {
            kernels::uniform_fill_lanes_with(lanes, rng, lo, hi, out)
        });
    }
    if word.is_multiple_of(16) && n.is_multiple_of(STEP_ELEMS) {
        let key = keystream::key_words(&ChaCha8Rng::seed_from_u64(seed));
        let mut out = vec![f32::NAN; n];
        keystream::uniform_steps(&key, (word / 16) as u64, lo, hi, &mut out);
        assert!(
            bits(&out) == bits(&want),
            "plain body: {n} elements from word {word} differ from the oracle"
        );
    }
}

#[test]
fn every_length_around_the_lane_step() {
    let bound = xavier_bound(1000, 4096);
    for n in [0, 1, 7, 8, 63, 64, 65, 8 * 27, 10 * 128, 1000 * 4096] {
        check_everywhere(17, 0, -bound, bound, n);
    }
}

#[test]
fn starts_off_the_step_boundary_and_on_odd_words() {
    for start in [1usize, 3, 8, 63, 65, 100, 127, 129, 1000] {
        for n in [1, 9, 64, 130, 700] {
            check_everywhere(23, 2 * start as u128, -0.25, 0.75, n);
        }
    }
    // From an odd word each element straddles two blocks' boundaries
    // differently; the fill runs the loop and must still agree.
    for word in [1u128, 15, 17, 129] {
        check_everywhere(23, word, -1.0, 1.0, 200);
    }
}

#[test]
fn the_block_counter_carries_into_its_high_word() {
    // Element 8·(2³² − 1) is the first of block 2³² − 1, the last block
    // whose counter fits word 12: the 128 elements from there span 16
    // blocks, all but the first with word 13 = 1. No buffer of 2³⁵
    // elements needed — the oracle starts there too.
    let first = 8 * ((1u128 << 32) - 1);
    check_everywhere(31, 2 * first, -0.5, 0.5, 128);
    // The same, entered mid-step and mid-block.
    check_everywhere(31, 2 * (first - 5), -0.5, 0.5, 128);
    // A fill only runs the lane body from a multiple of eight blocks, so
    // no step of it straddles the carry; the body itself, started three
    // blocks short of it, must carry lane by lane.
    let key = keystream::key_words(&ChaCha8Rng::seed_from_u64(31));
    let block = (1u64 << 32) - 3;
    let (want, _) = oracle(31, 16 * block as u128, -0.5, 0.5, 2 * STEP_ELEMS);
    let mut out = vec![f32::NAN; want.len()];
    keystream::uniform_steps(&key, block, -0.5, 0.5, &mut out);
    assert!(bits(&out) == bits(&want), "lanes across the carry");
}

#[test]
fn the_lane_builds_accept_any_range() {
    for (lo, hi) in [(0.0, 1.0), (-3.5, -1.25), (1e-30, 2e-30), (-1e30, 1e30)] {
        check_everywhere(41, 0, lo, hi, 3 * STEP_ELEMS + 5);
    }
}

/// The matrix every initializer made before its fill had pieces.
fn xavier_oracle(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let bound = (6.0 / (rows + cols) as f64).sqrt() as f32;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..rows * cols)
        .map(|_| rng.gen_range(-bound..=bound))
        .collect()
}

#[test]
fn xavier_pieces_are_the_oracle_on_every_path() {
    let _lock = force_lock();
    let (rows, cols, seed) = (37, 129, 5);
    let want = xavier_oracle(rows, cols, seed);
    for path in kernels::available_paths() {
        kernels::force(Some(path));
        assert_eq!(
            bits(xavier_uniform(rows, cols, seed).as_slice()),
            bits(&want),
            "{}: whole",
            path.name()
        );
        // Cuts on, next to and far from lane-step boundaries.
        for cuts in [vec![64, 128], vec![1, 65, 4000], vec![63, 64, 2001, 4772]] {
            let mut out = vec![f32::NAN; want.len()];
            let mut start = 0;
            for end in cuts.into_iter().chain([want.len()]) {
                xavier_fill(rows, cols, seed, start, &mut out[start..end]);
                start = end;
            }
            assert_eq!(bits(&out), bits(&want), "{}: pieces", path.name());
        }
        kernels::force(None);
    }
}

#[test]
fn xavier_split_across_a_team_is_the_oracle() {
    let _lock = force_lock();
    let (rows, cols, seed) = (300, 250, 8);
    let want = xavier_oracle(rows, cols, seed);
    for path in kernels::available_paths() {
        kernels::force(Some(path));
        for threads in [2, 3] {
            let mut team = Team::new(threads);
            // Whole lane steps, and units of 7 elements that cut blocks.
            for unit in [STEP_ELEMS, 7] {
                let mut out = vec![f32::NAN; want.len()];
                run_pieces(&mut team, threads, &mut out, unit, &|start, piece| {
                    xavier_fill(rows, cols, seed, start, piece);
                    Ok(())
                })
                .unwrap();
                assert_eq!(
                    bits(&out),
                    bits(&want),
                    "{} on {threads} threads, unit {unit}",
                    path.name()
                );
            }
        }
        kernels::force(None);
    }
}

#[test]
fn gaussian_pieces_are_the_box_muller_loop() {
    let (rows, cols, std, seed) = (41, 67, 0.01f32, 13);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let want: Vec<f32> = (0..rows * cols)
        .map(|_| {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std
        })
        .collect();
    assert_eq!(
        bits(gaussian(rows, cols, std, seed).as_slice()),
        bits(&want)
    );
    let mut team = Team::new(3);
    let mut out = vec![f32::NAN; want.len()];
    run_pieces(&mut team, 3, &mut out, 5, &|start, piece| {
        gaussian_fill(std, seed, start, piece);
        Ok(())
    })
    .unwrap();
    assert_eq!(bits(&out), bits(&want));
}

#[test]
fn the_avx2_path_runs_the_widest_lane_build() {
    if KernelPath::Avx2.is_available() {
        assert_eq!(Some(&FillLanes::for_host()), FillLanes::available().last());
    }
}
