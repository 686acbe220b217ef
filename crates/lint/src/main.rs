//! `np-lint` — the workspace determinism & concurrency lint CLI.
//!
//! ```text
//! np-lint [--check] [--root DIR]   lint the workspace; --check exits 1
//!                                  on any unsuppressed finding (CI gate)
//! np-lint tags [--root DIR]        dump the RNG stream-tag registry (D3)
//! ```
//!
//! With no `--root`, the workspace root is found by walking up from
//! the current directory to the first `Cargo.toml` with a
//! `[workspace]` section.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(np_lint::run_cli(&args));
}
