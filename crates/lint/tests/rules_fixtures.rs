//! Self-tests for the np-lint rule set, driven by checked-in fixtures.
//!
//! Each fixture in `tests/fixtures/` carries deliberate violations
//! (positives) and near-misses (negatives); this suite lints them via
//! [`np_lint::lint_files`] under synthetic workspace-relative paths
//! and asserts the exact (rule, line) sets. The fixtures directory is
//! excluded from `lint_workspace`'s walk, so the deliberate violations
//! never pollute the real gate — the final test here IS that gate:
//! the enclosing workspace must lint clean.

use np_lint::{lint_files, lint_workspace, Rule};
use std::path::Path;

/// Lint one fixture under a synthetic result-path location (no
/// `tests/` component — that would grant the whole-file exemption).
fn lint_one(name: &str, src: &str) -> np_lint::LintReport {
    lint_files(&[(format!("crates/fixture/src/{name}"), src.to_string())])
}

/// The `(rule, line)` pairs of a report's findings, in report order.
fn sites(report: &np_lint::LintReport) -> Vec<(Rule, usize)> {
    report.findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn d1_fires_on_every_map_iteration_form() {
    let r = lint_one("d1_positive.rs", include_str!("fixtures/d1_positive.rs"));
    assert_eq!(
        sites(&r),
        vec![
            (Rule::D1, 11), // .values() on a map-typed local
            (Rule::D1, 16), // for … in over a map-typed binding
            (Rule::D1, 24), // .retain()
            (Rule::D1, 25), // .drain()
            (Rule::D1, 30), // .keys() on a map-typed field
        ],
        "unexpected finding set:\n{}",
        r.render()
    );
    assert_eq!(r.suppressed, 0);
}

#[test]
fn d1_sees_through_every_near_miss() {
    let r = lint_one("d1_negative.rs", include_str!("fixtures/d1_negative.rs"));
    assert!(
        r.is_clean(),
        "negative fixture must not fire:\n{}",
        r.render()
    );
}

#[test]
fn d2_fires_on_clock_reads_but_not_mentions() {
    let r = lint_one("d2.rs", include_str!("fixtures/d2.rs"));
    assert_eq!(
        sites(&r),
        vec![(Rule::D2, 8), (Rule::D2, 13)],
        "unexpected finding set:\n{}",
        r.render()
    );
}

#[test]
fn d2_allowlisted_paths_are_exempt() {
    // Same source, presented under a timing-allowlisted module path.
    let r = lint_files(&[(
        "crates/serve/src/d2.rs".to_string(),
        include_str!("fixtures/d2.rs").to_string(),
    )]);
    assert!(
        r.is_clean(),
        "allowlisted path must exempt D2:\n{}",
        r.render()
    );
}

#[test]
fn d3_collisions_are_cross_file_and_test_tags_are_exempt() {
    let a = ("crates/a/src/lib.rs".to_string(), include_str!("fixtures/collide/crate_a.rs").to_string());
    let b = ("crates/b/src/lib.rs".to_string(), include_str!("fixtures/collide/crate_b.rs").to_string());

    // Each crate alone is collision-free …
    assert!(lint_files(std::slice::from_ref(&a)).is_clean());
    assert!(lint_files(std::slice::from_ref(&b)).is_clean());

    // … but linted as one set, FILL_TAG / REFILL_TAG share a value and
    // fire at both definition sites. The #[cfg(test)] SCRATCH_TAGs
    // share a value too, and must not.
    let r = lint_files(&[a, b]);
    assert_eq!(
        sites(&r),
        vec![(Rule::D3, 5), (Rule::D3, 2)],
        "expected exactly the FILL/REFILL collision pair:\n{}",
        r.render()
    );
    // Registry: the four non-test tags, sorted by value; test tags out.
    let names: Vec<&str> = r.tags.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names.len(), 4);
    assert!(names.contains(&"FILL_TAG") && names.contains(&"REFILL_TAG"));
    assert!(names.contains(&"PROBE_TAG") && names.contains(&"WALK_TAG"));
    assert!(!names.contains(&"SCRATCH_TAG"));
}

#[test]
fn d3_registry_parses_every_literal_form_and_skips_non_tags() {
    let r = lint_one("d3_distinct.rs", include_str!("fixtures/d3_distinct.rs"));
    assert!(r.is_clean(), "{}", r.render());
    let reg: Vec<(&str, Option<u64>)> =
        r.tags.iter().map(|t| (t.name.as_str(), t.value)).collect();
    // Sorted by value: 7 < 1_000_003 < 0x414C_5048.
    assert_eq!(
        reg,
        vec![
            ("GAMMA_TAG", Some(7)),
            ("BETA_TAG", Some(1_000_003)),
            ("ALPHA_TAG", Some(0x414C_5048)),
        ]
    );
    // NOT_A_TAG (u32) shares ALPHA_TAG's value — had it entered the
    // registry, the clean assertion above would have caught it as a
    // collision. TAGGED (no `_TAG` suffix) stays out too.
}

#[test]
fn d4_requires_safety_comments_even_in_tests() {
    let r = lint_one("d4.rs", include_str!("fixtures/d4.rs"));
    assert_eq!(
        sites(&r),
        vec![
            (Rule::D4, 5),  // unsafe fn, blank line above
            (Rule::D4, 11), // undocumented block
            (Rule::D4, 35), // tests get no D4 exemption
        ],
        "unexpected finding set:\n{}",
        r.render()
    );
}

#[test]
fn d5_fires_only_on_the_inverted_acquisition() {
    let r = lint_one("d5.rs", include_str!("fixtures/d5.rs"));
    assert_eq!(
        sites(&r),
        vec![(Rule::D5, 14)],
        "unexpected finding set:\n{}",
        r.render()
    );
}

#[test]
fn allows_suppress_with_a_reason_and_fire_a0_without_one() {
    let r = lint_one("allow.rs", include_str!("fixtures/allow.rs"));
    // Two properly reasoned allows (above-line and trailing forms).
    assert_eq!(r.suppressed, 2, "{}", r.render());
    assert_eq!(
        sites(&r),
        vec![
            (Rule::A0, 19), // allow with no justification …
            (Rule::D1, 20), // … does not suppress its target
            (Rule::A0, 24), // allow naming an unknown rule id …
            (Rule::D1, 25), // … does not suppress either
        ],
        "unexpected finding set:\n{}",
        r.render()
    );
}

#[test]
fn test_paths_get_the_whole_file_exemption_except_d4() {
    // The all-positive D1 fixture under a tests/ path: nothing fires.
    let r = lint_files(&[(
        "crates/fixture/tests/d1_positive.rs".to_string(),
        include_str!("fixtures/d1_positive.rs").to_string(),
    )]);
    assert!(r.is_clean(), "{}", r.render());
    // But D4 has no test exemption — the undocumented unsafes still fire.
    let r = lint_files(&[(
        "crates/fixture/tests/d4.rs".to_string(),
        include_str!("fixtures/d4.rs").to_string(),
    )]);
    assert_eq!(sites(&r).iter().filter(|(rule, _)| *rule == Rule::D4).count(), 3);
}

/// The gate the CI step enforces, as a plain test: the enclosing
/// workspace lints clean, and the real stream-tag registry is exactly
/// the pinned set (adding or dropping a stream means editing the list).
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").exists());
    let r = lint_workspace(&root).expect("workspace walk");
    assert!(
        r.is_clean(),
        "workspace must lint clean (fix or allow-annotate):\n{}",
        r.render()
    );
    assert!(r.files > 100, "walk found only {} files", r.files);
    let mut names: Vec<&str> = r.tags.iter().map(|t| t.name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "ARRIVAL_TAG",
            "CHURN_TAG",
            "EVT_TAG",
            "FAULT_TAG",
            "FILL_TAG",
            "LOSS_TAG",
            "NSW_TAG",
            "QUERY_TAG",
            "RUN_TAG",
        ],
        "stream-tag registry changed\n{}",
        r.render_tags()
    );
    // Every registered tag parsed to a concrete value.
    assert!(r.tags.iter().all(|t| t.value.is_some()));
}
