//! `ascend-lint` — CLI for the workspace concurrency checker.
//!
//! ```text
//! cargo run -p ascend-lint -- --check                   # the CI gate
//! cargo run -p ascend-lint -- --check --format github   # PR annotations
//! cargo run -p ascend-lint -- --report                  # every violation
//! ```
//!
//! Exit codes follow the `ascend-cli` convention: 0 clean, 1 violations,
//! 2 usage or I/O problems.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::path::PathBuf;

use ascend_lint::{report, workspace};

const USAGE: &str = "\
ascend-lint — static lock-discipline checker (see crates/lint/RULES.md)

USAGE:
    ascend-lint <--check|--report> [--root PATH] [--format FMT]

MODES:
    --check            Fail (exit 1) on any unwaived violation
    --report           Print every violation and the waiver count (exit 0)

OPTIONS:
    --root PATH        Workspace root (default: found from the current dir)
    --format FMT       Output format for --check: text (default) or github
                       (workflow-command annotations)
";

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn run(args: &[String]) -> i32 {
    let mut mode: Option<&str> = None;
    let mut root_flag: Option<PathBuf> = None;
    let mut github = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                return 0;
            }
            m @ ("--check" | "--report") => {
                if let Some(prev) = mode {
                    eprintln!("ascend-lint: `{m}` conflicts with `{prev}`\n{USAGE}");
                    return 2;
                }
                mode = Some(if m == "--check" { "--check" } else { "--report" });
            }
            "--root" => match it.next() {
                Some(p) => root_flag = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ascend-lint: `--root` needs a path\n{USAGE}");
                    return 2;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => github = false,
                Some("github") => github = true,
                Some(other) => {
                    eprintln!("ascend-lint: unknown format `{other}` (text|github)\n{USAGE}");
                    return 2;
                }
                None => {
                    eprintln!("ascend-lint: `--format` needs a value (text|github)\n{USAGE}");
                    return 2;
                }
            },
            other => {
                eprintln!("ascend-lint: unknown argument `{other}`\n{USAGE}");
                return 2;
            }
        }
    }
    let Some(mode) = mode else {
        eprint!("{USAGE}");
        return 2;
    };
    if github && mode != "--check" {
        eprintln!("ascend-lint: `--format github` only applies to `--check`\n{USAGE}");
        return 2;
    }

    let root = match root_flag {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("ascend-lint: cannot read the current directory: {e}");
                    return 2;
                }
            };
            match workspace::find_root(&cwd) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ascend-lint: {e}");
                    return 2;
                }
            }
        }
    };

    let outcome = match workspace::run(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ascend-lint: {e}");
            return 2;
        }
    };

    if mode == "--report" {
        print!("{}", report::full_report(&outcome));
        return 0;
    }
    if github {
        print!("{}", report::render_github(&outcome));
    } else if outcome.ok() {
        println!("{}", report::summary(&outcome));
    } else {
        eprintln!("{}:", report::summary(&outcome));
        for v in &outcome.violations {
            eprintln!("  {}", v.render());
        }
        eprintln!(
            "fix the violations, or waive a line with \
             `// ascend-lint: allow(<rule>) -- <reason>` (reason mandatory; \
             see crates/lint/RULES.md)"
        );
    }
    i32::from(!outcome.ok())
}
