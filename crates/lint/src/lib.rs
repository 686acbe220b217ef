//! # np-lint
//!
//! A dependency-free, workspace-wide static-analysis pass that turns
//! the repo's written determinism contract — *same seed ⇒ bit-identical
//! `PaperMetrics` at any thread count, on any backend* — from prose and
//! sampled runtime tests into a machine-checked gate.
//!
//! The runtime suites (`tests/parallel_determinism.rs`,
//! `tests/algo_conformance.rs`) can only catch a nondeterminism the
//! sampled workloads happen to exercise; PR 7's Tapestry bug (HashMap
//! iteration order leaking into routing tables) sat unnoticed until a
//! conformance sweep tripped over it. `np-lint` pins the whole bug
//! *class* instead: every workspace `.rs` file is lexed (strings,
//! comments and char literals handled properly — see
//! [`lexer`]) and checked against the five rules in [`rules`].
//!
//! Findings are suppressed **at the site** with
//!
//! ```text
//! // np-lint: allow(D1) — sorted by (count, peer) below; order cannot reach results
//! ```
//!
//! on the line directly above (a trailing same-line comment also
//! works). The justification is mandatory — an allow without one is
//! itself a finding (rule `A0`).
//!
//! Entry points: [`lint_workspace`] (walk + aggregate),
//! [`lint_files`] (pre-read sources — the fixture self-tests use
//! this), and the `np-lint` binary (`--check` exits nonzero on any
//! unsuppressed finding; `tags` dumps the D3 stream-tag registry).

pub mod lexer;
pub mod rules;

pub use rules::{Allow, Finding, Rule, TagDef};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Modules allowed to read ambient clocks (rule D2): the parallel
/// engine's busy-time accounting, the serve daemon's pacing/latency
/// telemetry, and the vendored bench harness's timing core. Matched as
/// a prefix of the workspace-relative path. Everything else annotates
/// per site.
pub const D2_ALLOWLIST: &[&str] = &[
    "crates/util/src/parallel.rs",
    "crates/serve/src/",
    "crates/compat/criterion/",
];

/// Directory names never walked: build output, VCS, and checked-in
/// lint fixtures (which contain deliberate violations).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Aggregate result of linting a file set.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned allow comment.
    pub suppressed: usize,
    /// The workspace RNG stream-tag registry (non-test defs), sorted
    /// by value.
    pub tags: Vec<TagDef>,
    /// Files analysed.
    pub files: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render findings + summary as the CLI prints them.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!(
                "{}:{}: {}: {}\n    fix: {}\n",
                f.file,
                f.line,
                f.rule.id(),
                f.msg,
                f.hint
            ));
        }
        s.push_str(&format!(
            "np-lint: {} finding(s), {} suppressed, {} file(s), {} stream tag(s)\n",
            self.findings.len(),
            self.suppressed,
            self.files,
            self.tags.len()
        ));
        s
    }

    /// Render the `np-lint tags` registry dump.
    pub fn render_tags(&self) -> String {
        let mut s = String::from("RNG stream-tag registry (D3: values must be workspace-unique):\n");
        for t in &self.tags {
            s.push_str(&format!(
                "  {:<18} = {:>14}  {}:{}\n",
                t.name, t.value_text, t.file, t.line
            ));
        }
        s.push_str(&format!("  {} tag(s)\n", self.tags.len()));
        s
    }
}

/// Is this path test-side code (whole-file exemption for the
/// result-path rules)? Integration tests, benches and examples never
/// feed `PaperMetrics`.
pub fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests" || c == "benches" || c == "examples")
}

/// Lint a set of `(workspace-relative path, source)` pairs and
/// aggregate: apply allow suppressions, then judge D3 tag collisions
/// across the whole set.
pub fn lint_files(files: &[(String, String)]) -> LintReport {
    let mut report = LintReport {
        files: files.len(),
        ..Default::default()
    };
    let mut all_tags: Vec<TagDef> = Vec::new();
    let mut raw: Vec<(Finding, bool)> = Vec::new(); // (finding, suppressed)
    // D3 allows recorded per site as (file, comment line, comment end).
    let mut tag_allows: Vec<(String, usize, usize)> = Vec::new();

    for (rel, src) in files {
        let toks = lexer::lex(src);
        let allowlisted = D2_ALLOWLIST.iter().any(|p| rel.starts_with(p));
        let fl = rules::lint_tokens(rel, &toks, is_test_path(rel), allowlisted);
        let allows = fl.allows;
        for f in fl.findings {
            let suppressed = f.rule != Rule::A0 && is_allowed(&allows, f.rule, f.line);
            raw.push((f, suppressed));
        }
        // D3 collisions are judged across the whole set below; only
        // non-test tag defs participate.
        all_tags.extend(fl.tags.iter().filter(|t| !t.is_test).cloned());
        tag_allows.extend(
            allows
                .iter()
                .filter(|a| a.rule == Some(Rule::D3))
                .map(|a| (rel.clone(), a.line, a.end_line)),
        );
    }

    // Workspace-level D3: group by value.
    all_tags.sort_by(|a, b| (a.value, &a.file, a.line).cmp(&(b.value, &b.file, b.line)));
    let mut by_value: BTreeMap<u64, Vec<&TagDef>> = BTreeMap::new();
    for t in &all_tags {
        if let Some(v) = t.value {
            by_value.entry(v).or_default().push(t);
        }
    }
    for (value, defs) in &by_value {
        if defs.len() > 1 {
            let sites: Vec<String> = defs
                .iter()
                .map(|d| format!("{} ({}:{})", d.name, d.file, d.line))
                .collect();
            for d in defs {
                let f = Finding {
                    rule: Rule::D3,
                    file: d.file.clone(),
                    line: d.line,
                    msg: format!(
                        "stream tag value {:#x} is shared by {}",
                        value,
                        sites.join(", ")
                    ),
                    hint: "pick a fresh u64 (ASCII mnemonic convention) so the sub_seed streams \
                           decorrelate; run `np-lint tags` for the registry"
                        .to_string(),
                };
                let suppressed = tag_allows
                    .iter()
                    .any(|(file, l, el)| {
                        file == &d.file && (d.line == el + 1 || (d.line >= *l && d.line <= *el))
                    });
                raw.push((f, suppressed));
            }
        }
    }
    report.tags = all_tags;

    for (f, suppressed) in raw {
        if suppressed {
            report.suppressed += 1;
        } else {
            report.findings.push(f);
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Is a finding of `rule` at `line` covered by one of `allows`?
/// An allow covers the line directly below its comment and the
/// comment's own line (trailing form).
fn is_allowed(allows: &[Allow], rule: Rule, line: usize) -> bool {
    allows.iter().any(|a| {
        a.rule == Some(rule)
            && a.reason_len >= rules::MIN_ALLOW_REASON
            && (line == a.end_line + 1 || (line >= a.line && line <= a.end_line))
    })
}

/// Walk `root` (skipping `target/`, `.git/`, `fixtures/`), lint every
/// `.rs` file, aggregate. Files are visited in sorted path order so
/// reports are deterministic.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let sources: Vec<(String, String)> = files
        .into_iter()
        .map(|(rel, path)| std::fs::read_to_string(&path).map(|src| (rel, src)))
        .collect::<Result<_, _>>()?;
    Ok(lint_files(&sources))
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        let name = e.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// The command-line entry point of the `np-lint` binary.
///
/// ```text
/// [tags] [--check] [--root DIR]
/// ```
///
/// Prints the report (or the tag registry) and returns the process
/// exit code: 0 clean/suppressed-only, 1 unsuppressed findings under
/// `--check` (or a walk error), 2 usage error.
pub fn run_cli(args: &[String]) -> i32 {
    const USAGE: &str = "usage: [tags] [--check] [--root DIR]";
    let mut check = false;
    let mut tags = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "tags" => tags = true,
            "--check" => check = true,
            "--root" => match it.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => {
                    eprintln!("error: --root requires a directory\n{USAGE}");
                    return 2;
                }
            },
            other => {
                eprintln!("error: unknown argument {other:?}\n{USAGE}");
                return 2;
            }
        }
    }
    let root = root.or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        find_workspace_root(&cwd)
    });
    let Some(root) = root else {
        eprintln!(
            "error: no workspace root found (no Cargo.toml with [workspace] above the \
             current directory); pass --root DIR"
        );
        return 2;
    };
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: walking {}: {e}", root.display());
            return 1;
        }
    };
    if tags {
        print!("{}", report.render_tags());
        return 0;
    }
    print!("{}", report.render());
    if check && !report.is_clean() {
        eprintln!(
            "np-lint --check: {} unsuppressed finding(s) — fix them or add \
             `// np-lint: allow(Dn) — reason` at the site",
            report.findings.len()
        );
        return 1;
    }
    0
}

/// Find the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
