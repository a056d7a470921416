//! The linter run against the live workspace — the same gate CI enforces:
//! zero unwaived lock-order, blocking-under-lock and condvar-wait-loop
//! violations (or a reasoned waiver on each).

use ascend_lint::workspace;

fn repo_root() -> std::path::PathBuf {
    // crates/lint -> crates -> workspace root
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_has_no_deny_violations() {
    let root = repo_root();
    let outcome = workspace::run(&root).expect("lint run over the live workspace");
    assert!(
        outcome.files > 20,
        "walker found only {} files — the source walk is broken",
        outcome.files
    );
    let rendered: Vec<String> = outcome.violations.iter().map(|v| v.render()).collect();
    assert!(
        rendered.is_empty(),
        "lint violations in the workspace:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn check_entrypoint_agrees_with_the_gate() {
    let root = repo_root();
    let outcome = workspace::run(&root).expect("lint run over the live workspace");
    assert!(
        outcome.ok(),
        "ascend-lint --check would fail CI:\n{}",
        ascend_lint::report::full_report(&outcome)
    );
}
