//! Replays every checked-in fuzz reproducer across all oracle axes.
//!
//! Each `tests/corpus/seed-NNNNN-<tag>.asm` file is a verifier-accepted
//! kernel the fuzzer's generator produced (regenerate with
//! `cargo run -p dws-sim --example gen_corpus -- crates/sim/tests/corpus`).
//! The seed in the filename selects the same input image the original
//! campaign used, so a replay is bit-for-bit the original differential
//! check: every policy vs the reference interpreter, stepped vs
//! event-driven, chaos vs zero-fault, melded vs unmelded. All must agree
//! — any finding here is a regression.

use dws_isa::parse_asm;
use dws_sim::fuzz::{check_program, FuzzConfig};

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "asm"))
        .collect();
    files.sort();
    files
}

/// `seed-NNNNN-<tag>.asm` → the campaign seed that chose the input image.
fn seed_of(path: &std::path::Path) -> u64 {
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("utf-8 name");
    name.strip_prefix("seed-")
        .and_then(|rest| rest.split('-').next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("corpus file '{name}' is not named seed-NNNNN-<tag>.asm"))
}

#[test]
fn every_corpus_kernel_replays_clean_on_every_axis() {
    let files = corpus_files();
    assert!(
        files.len() >= 6,
        "corpus should hold at least 6 reproducers, found {}",
        files.len()
    );
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let program = parse_asm(&text)
            .unwrap_or_else(|e| panic!("{name}: checked-in reproducer no longer parses: {e}"));
        let cfg = FuzzConfig::default();
        if let Some(f) = check_program(program, seed_of(&path), &cfg) {
            panic!("{name}: {} — {}", f.class.label(), f.message);
        }
    }
}

#[test]
fn corpus_filenames_carry_their_seeds() {
    for path in corpus_files() {
        // Panics on malformed names; the replay test depends on these.
        let _ = seed_of(&path);
    }
}
