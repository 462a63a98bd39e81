//! **xtask** — the repo's own static-analysis suite, run as
//! `cargo xtask audit`.
//!
//! The GraphHD workspace trades safety for speed in exactly two places
//! (the `std::arch` SIMD kernels and the `parallel` pool's lifetime
//! erasure) and leans on conventions everywhere else: `SAFETY:`
//! comments on unsafe sites, panic-free library code, documented public
//! surfaces, and a registry of environment knobs. Conventions rot
//! unless a machine checks them, so this crate is a dependency-free
//! source analyzer — a small Rust [lexer] that understands
//! comments, strings and attributes, plus repo-specific [lints]:
//!
//! - [`unsafe-safety`](lints::safety) — every `unsafe` block/fn carries
//!   an adjacent `// SAFETY:` comment (or `# Safety` doc section), and
//!   crates using `unsafe` deny `unsafe_op_in_unsafe_fn`;
//! - [`no-panic`](lints::panics) — no `unwrap` / `expect` / `panic!` /
//!   `unreachable!` in non-test library code, with a justified
//!   [allowlist] (`docs/audit-allowlist.txt`);
//! - [`env-registry`](lints::envreg) — every `std::env::var` read names
//!   a variable registered in `docs/ENV.md`;
//! - [`deprecated-milestone`](lints::deprecated) — `#[deprecated]`
//!   shims name a removal milestone;
//! - [`pub-docs`](lints::pubdocs) — public items in `hdvec`,
//!   `parallel`, `engine`, `graphhd`, `telemetry` and `faultpoint` are
//!   documented.
//!
//! CI runs `cargo xtask audit` as a gate; the analyzer's own test suite
//! drives every lint over pass/fail fixtures and asserts the live
//! workspace stays clean.

pub mod allowlist;
pub mod filter;
pub mod lexer;
pub mod lints;
pub mod workspace;

use std::path::Path;

/// Crates whose public items must be documented.
const DOCUMENTED_CRATES: [&str; 7] = [
    "hdvec",
    "parallel",
    "engine",
    "graphhd",
    "telemetry",
    "faultpoint",
    "netserve",
];

/// Crates exempt from the `no-panic` lint: benchmark binaries are leaf
/// applications where `unwrap` on setup is idiomatic.
const PANIC_EXEMPT_CRATES: [&str; 1] = ["bench"];

/// Repo-relative path of the env-var registry.
pub const ENV_REGISTRY: &str = "docs/ENV.md";

/// Repo-relative path of the audit allowlist.
pub const ALLOWLIST: &str = "docs/audit-allowlist.txt";

/// One lint finding: where, which lint, and what to do about it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The lint that fired.
    pub lint: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The allowlist key: the offending token, env-var name, or item
    /// identifier.
    pub item: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Runs every lint over the workspace rooted at `root` and returns the
/// surviving findings (allowlist applied, stale entries reported),
/// sorted by file and line.
///
/// # Errors
///
/// Returns a message when the workspace cannot be walked or the
/// allowlist is malformed.
pub fn audit(root: &Path) -> Result<Vec<Finding>, String> {
    let registry = workspace::read_file(&root.join(ENV_REGISTRY)).ok();
    let allow_text = workspace::read_file(&root.join(ALLOWLIST)).unwrap_or_default();
    let entries = allowlist::parse(&allow_text)?;

    let mut findings = Vec::new();
    for crate_src in workspace::discover(root)? {
        let mut crate_uses_unsafe = false;
        let mut root_denies_unsafe_op = false;
        for path in &crate_src.files {
            let rel = workspace::relative(root, path);
            let source = workspace::read_file(path)?;
            let tokens = lexer::lex(&source);

            crate_uses_unsafe |= tokens.iter().any(|t| t.is_ident("unsafe"));
            let is_crate_root = path
                .file_name()
                .is_some_and(|n| n == "lib.rs" || n == "main.rs");
            if is_crate_root {
                root_denies_unsafe_op |=
                    tokens.iter().any(|t| t.is_ident("unsafe_op_in_unsafe_fn"));
            }

            findings.extend(lints::safety::check(&rel, &tokens));
            findings.extend(lints::envreg::check(&rel, &tokens, registry.as_deref()));
            findings.extend(lints::deprecated::check(&rel, &tokens));
            if !PANIC_EXEMPT_CRATES.contains(&crate_src.name.as_str()) {
                let mask = filter::test_mask(&tokens);
                findings.extend(lints::panics::check(&rel, &tokens, &mask));
            }
            if DOCUMENTED_CRATES.contains(&crate_src.name.as_str()) {
                findings.extend(lints::pubdocs::check(&rel, path, &tokens));
            }
        }
        if crate_uses_unsafe && !root_denies_unsafe_op {
            findings.push(Finding {
                lint: "unsafe-safety",
                file: format!("crates/{}/src/lib.rs", crate_src.name),
                line: 1,
                item: "unsafe_op_in_unsafe_fn".to_string(),
                message: format!(
                    "crate `{}` uses unsafe but its root does not carry \
                     `#![deny(unsafe_op_in_unsafe_fn)]`",
                    crate_src.name
                ),
            });
        }
    }

    let mut findings = allowlist::apply(findings, &entries, ALLOWLIST);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(findings)
}
