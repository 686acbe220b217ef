//! Invariants of the checked-in `experiments/*.toml`, each figure's
//! only definition:
//!
//! 1. **Round trip** — every figure's file, rebased to any seed,
//!    satisfies `from_toml(to_toml(spec)) == spec` (study stages
//!    resolve by name; spec equality is data equality).
//! 2. **Canonical form** — below its leading comment block, every file
//!    is exactly what the emitter writes for it, so a hand edit cannot
//!    hide a key the loader drops or a value it rounds.
//! 3. **Catalogue agreement** — each file's `name` is its stem and a
//!    `np_bench::FIGURES` entry, every entry has a file, and
//!    `all_figures.toml` lists exactly the entries, in order.
//! 4. **Never panics** — every file under deterministic byte mutations
//!    (delete, truncate, substitute) loads to `Ok` or a typed `Err`.

use np_bench::cli::Args;
use np_bench::spec_files::{load_spec, rebase_seeds, spec_file_name};
use np_bench::{study_stage, FIGURES};
use np_core::experiment::ExperimentSpec;
use np_util::rng::splitmix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn experiments_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

fn read_spec_file(name: &str) -> String {
    let path = experiments_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} is not checked in: {e}", path.display()))
}

/// A spec file split into its leading comment block (comment and
/// blank lines) and the TOML body below it.
fn split_header(text: &str) -> (&str, &str) {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        let trimmed = line.trim();
        if !(trimmed.is_empty() || trimmed.starts_with('#')) {
            break;
        }
        at += line.len();
    }
    text.split_at(at)
}

#[test]
fn every_figure_spec_round_trips_through_toml() {
    for f in FIGURES {
        let file = read_spec_file(&spec_file_name(f.spec));
        for seed in [None, Some(1), Some(0xDEAD_BEEF)] {
            let mut spec = ExperimentSpec::from_toml_with(&file, study_stage)
                .unwrap_or_else(|e| panic!("{}: {e}", f.spec));
            if let Some(seed) = seed {
                rebase_seeds(&mut spec, seed);
            }
            let text = spec.to_toml();
            let back = ExperimentSpec::from_toml_with(&text, study_stage)
                .unwrap_or_else(|e| panic!("{} (seed {seed:?}): {e}\n---\n{text}", f.spec));
            assert_eq!(back, spec, "{} (seed {seed:?}) diverged", f.spec);
            // Serialisation is a fixed point: emit(parse(emit(x))) == emit(x).
            assert_eq!(back.to_toml(), text, "{}: emission not stable", f.spec);
        }
    }
}

#[test]
fn checked_in_spec_files_are_canonical_and_match_the_catalogue() {
    let mut stems: Vec<String> = std::fs::read_dir(experiments_dir())
        .expect("experiments/ is checked in")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .map(|p| {
            p.file_stem()
                .expect("file name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    stems.sort();
    for stem in &stems {
        let text = read_spec_file(&format!("{stem}.toml"));
        let (header, body) = split_header(&text);
        assert!(
            header.starts_with('#'),
            "{stem}.toml: say what the file is and how to run it in a leading comment"
        );
        if stem == "all_figures" {
            let doc = toml::parse(body).unwrap_or_else(|e| panic!("{stem}.toml: {e}"));
            assert_eq!(
                toml::emit(&doc),
                body,
                "{stem}.toml is not in canonical form"
            );
            let listed: Vec<&str> = doc
                .get("catalogue")
                .and_then(|c| c.as_table())
                .and_then(|c| c.get("specs"))
                .and_then(|s| s.as_array())
                .expect("a [catalogue] specs list")
                .iter()
                .map(|v| v.as_str().expect("spec file names are strings"))
                .collect();
            let entries: Vec<String> = FIGURES.iter().map(|f| spec_file_name(f.spec)).collect();
            assert_eq!(
                listed, entries,
                "all_figures.toml must list exactly np_bench::FIGURES"
            );
            continue;
        }
        let spec = ExperimentSpec::from_toml_with(body, study_stage)
            .unwrap_or_else(|e| panic!("{stem}.toml: {e}"));
        assert_eq!(spec.to_toml(), body, "{stem}.toml is not in canonical form");
        assert_eq!(
            &spec.name, stem,
            "{stem}.toml: `name` must be the file stem"
        );
        assert!(
            FIGURES.iter().any(|f| f.spec == stem),
            "{stem}.toml has no np_bench::FIGURES entry"
        );
    }
    for f in FIGURES {
        assert!(
            stems.iter().any(|s| s == f.spec),
            "{} has no spec file",
            f.spec
        );
    }
}

#[test]
fn checked_in_specs_load_resolve_and_validate() {
    let registry = np_bench::full_registry();
    for f in FIGURES {
        let text = read_spec_file(&spec_file_name(f.spec));
        let spec = ExperimentSpec::from_toml_with(&text, study_stage)
            .unwrap_or_else(|e| panic!("{}: {e}", f.spec));
        // Every algorithm name a checked-in spec references must
        // resolve in the registry `np-bench run` uses.
        if let np_core::experiment::Workload::QueryMatrix(cells) = &spec.workload {
            for cell in cells {
                for algo in &cell.algos {
                    registry
                        .lookup(&algo.name)
                        .unwrap_or_else(|e| panic!("{}: {e}", f.spec));
                }
            }
        }
        // Both budget resolutions stay valid.
        assert!(spec.resolve_quick(true).validate().is_ok(), "{}", f.spec);
        let spec = ExperimentSpec::from_toml_with(&text, study_stage).expect("reload");
        assert!(spec.resolve_quick(false).validate().is_ok(), "{}", f.spec);
    }
}

/// Bytes a substitution writes: TOML structure, digits, signs and a
/// byte that breaks UTF-8.
const SUBSTITUTES: &[u8] = b"\"[]{}=,.#\n -+019aex_\xff";

/// The `i`-th deterministic mutation of `bytes`: delete a span of one
/// to eight bytes, truncate, or substitute one byte.
fn mutate(bytes: &[u8], i: u64, salt: u64) -> Vec<u8> {
    let r = splitmix64(salt ^ i);
    let at = (r % bytes.len() as u64) as usize;
    let mut out = bytes.to_vec();
    match i % 3 {
        0 => {
            let end = (at + 1 + (r >> 32) as usize % 8).min(out.len());
            out.drain(at..end);
        }
        1 => out.truncate(at),
        _ => out[at] = SUBSTITUTES[(r >> 40) as usize % SUBSTITUTES.len()],
    }
    out
}

#[test]
fn mutated_spec_files_load_or_fail_without_panicking() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(experiments_dir())
        .expect("experiments/ is checked in")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    for (f, path) in files.iter().enumerate() {
        let bytes = std::fs::read(path).expect("readable spec file");
        for i in 0..2_000 {
            let text = String::from_utf8_lossy(&mutate(&bytes, i, (f as u64) << 32)).into_owned();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut args = Args {
                    quick: i % 2 == 0,
                    ..Args::default()
                };
                load_spec(&text, Path::new("mutant.toml"), &mut args).map(|spec| spec.validate())
            }));
            assert!(
                outcome.is_ok(),
                "{} mutation {i} panicked; input:\n{text}",
                path.display()
            );
        }
    }
}
