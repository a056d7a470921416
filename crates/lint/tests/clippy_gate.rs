//! The clippy gate: the panic surface, wall-clock reads, unordered
//! containers, unbounded channels, lossy codec casts and `unsafe` are
//! rustc/clippy lints, not ascend-lint rules. This test runs `cargo clippy` once over
//! `fixtures/clippy-gate` — a crate seeded with each invariant's positive
//! and negative cases — with `CLIPPY_CONF_DIR` at the workspace root, so
//! the workspace's own `clippy.toml` is the one under test. Each case must
//! report exactly the `(file, line, lint)` set its `//~` markers name.
//! Without clippy the run reports nothing and every case fails.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// One lint hit: fixture-relative file, 1-based line, lint name.
type Hit = (String, u32, String);

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/clippy-gate")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `s` after the first `pat`.
fn after<'a>(s: &'a str, pat: &str) -> Option<&'a str> {
    s.find(pat).map(|i| &s[i + pat.len()..])
}

/// Extracts the hit from one `--message-format=json` line. The lint is the
/// first object-valued `code` (a child diagnostic's code is always null);
/// the location is the first `-->` of the rendered text, which rustc
/// always points at the primary span.
fn parse_hit(json: &str) -> Option<Hit> {
    if !json.contains(r#""reason":"compiler-message""#) {
        return None;
    }
    let code = after(json, r#""code":{"code":""#)?;
    let lint = &code[..code.find('"')?];
    let loc = after(after(json, r#""rendered":""#)?, " --> ")?;
    let mut parts = loc[..loc.find("\\n")?].rsplitn(3, ':');
    let _column = parts.next()?;
    let line = parts.next()?.parse().ok()?;
    let file = parts.next()?;
    Some((file.to_string(), line, lint.to_string()))
}

/// Every hit clippy reports on the fixture, from one run per process.
fn reported() -> &'static BTreeSet<Hit> {
    static HITS: OnceLock<BTreeSet<Hit>> = OnceLock::new();
    HITS.get_or_init(|| {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let out = Command::new(cargo)
            .args(["clippy", "--offline", "--locked", "--all-targets", "--keep-going"])
            .arg("--message-format=json")
            .arg("--target-dir")
            .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-gate"))
            .current_dir(fixture())
            .env("CLIPPY_CONF_DIR", workspace_root())
            .output()
            .expect("cargo runs");
        let hits: BTreeSet<Hit> =
            String::from_utf8_lossy(&out.stdout).lines().filter_map(parse_hit).collect();
        assert!(
            !hits.is_empty(),
            "cargo clippy reported no lints on the fixture — is clippy installed?\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        hits
    })
}

/// The fixture's case map: `(file, line)` → the case that line belongs
/// to, and the hits its `//~` markers expect.
struct Cases {
    owner: BTreeMap<(String, u32), String>,
    expected: BTreeSet<Hit>,
}

fn cases() -> &'static Cases {
    static CASES: OnceLock<Cases> = OnceLock::new();
    CASES.get_or_init(|| {
        let mut owner = BTreeMap::new();
        let mut expected = BTreeSet::new();
        let src = fixture().join("src");
        for entry in std::fs::read_dir(&src).expect("fixture src lists") {
            let path = entry.expect("dir entry").path();
            let file = format!("src/{}", path.file_name().expect("file name").to_string_lossy());
            let text = std::fs::read_to_string(&path).expect("fixture file reads");
            let mut case: Option<String> = None;
            for (i, line) in text.lines().enumerate() {
                let n = u32::try_from(i + 1).expect("fixture line fits u32");
                if let Some(name) = line.trim_start().strip_prefix("// case: ") {
                    case = Some(name.trim().to_string());
                }
                let Some(name) = &case else { continue };
                owner.insert((file.clone(), n), name.clone());
                if let Some(lints) = after(line, "//~ ") {
                    for lint in lints.split(',') {
                        expected.insert((file.clone(), n, lint.trim().to_string()));
                    }
                }
            }
        }
        Cases { owner, expected }
    })
}

/// Asserts that `case` exists, marks exactly `lints` (in file and line
/// order), and that clippy reports exactly the marked hits on its lines.
fn check(case: &str, lints: &[&str]) {
    let c = cases();
    let lines: BTreeSet<&(String, u32)> =
        c.owner.iter().filter(|(_, name)| *name == case).map(|(at, _)| at).collect();
    assert!(!lines.is_empty(), "no `// case: {case}` in the fixture");
    let in_case = |h: &&Hit| lines.contains(&(h.0.clone(), h.1));
    let want: BTreeSet<&Hit> = c.expected.iter().filter(in_case).collect();
    let marked: Vec<&str> = want.iter().map(|h| h.2.as_str()).collect();
    assert_eq!(marked, lints, "the fixture's markers for `{case}` drifted from this test");
    let got: BTreeSet<&Hit> = reported().iter().filter(in_case).collect();
    assert_eq!(got, want, "clippy's hits for `{case}` differ from its markers");
}

macro_rules! cases {
    ($($case:ident => [$($lint:literal),*],)*) => {
        /// Every case this file checks, for the coverage test below.
        const CHECKED: &[&str] = &[$(stringify!($case)),*];
        $(
            #[test]
            fn $case() {
                check(stringify!($case), &[$($lint),*]);
            }
        )*
    };
}

cases! {
    // Panic surface, denied per crate root and on the core hot-path modules.
    unwrap_in_hot_path_is_deny_class => ["clippy::unwrap_used"],
    expect_in_hot_path_is_deny_class => ["clippy::expect_used", "clippy::expect_used"],
    panic_macros_fire_but_assert_does_not => ["clippy::panic", "clippy::unreachable"],
    unwrap_or_variants_do_not_fire => [],
    commented_and_quoted_panics_do_not_fire => [],
    test_module_panics_do_not_fire => [],
    unwrap_in_a_cold_module_does_not_fire => [],
    todo_and_unimplemented_are_denied_everywhere => ["clippy::todo", "clippy::unimplemented"],
    dbg_macro_is_denied_everywhere => ["clippy::dbg_macro"],
    // Wall-clock reads (`disallowed_methods`).
    instant_now_is_deny_class_everywhere_but_the_timing_authority => ["clippy::disallowed_methods"],
    system_time_fires_anywhere_in_forward_scope => ["clippy::disallowed_methods"],
    system_time_in_the_timing_authority_does_not_fire => [],
    importing_instant_without_calling_now_is_fine => [],
    elapsed_on_a_passed_in_instant_is_fine => [],
    wallclock_in_test_code_still_needs_an_expect => ["clippy::disallowed_methods"],
    // Unbounded queues (`disallowed_methods`).
    unbounded_channel_is_denied_where_the_clock_is => ["clippy::disallowed_methods"],
    sync_channel_is_the_bounded_queue_and_is_fine => [],
    // Unordered containers (`disallowed_types`).
    hashmap_fires_in_deterministic_crates_only => ["clippy::disallowed_types"],
    hashset_fires_in_deterministic_crates => ["clippy::disallowed_types"],
    btreemap_is_always_fine => [],
    // Lossy casts in the artifact codec.
    narrowing_casts_fire_in_io_only => ["clippy::cast_possible_truncation"],
    usize_to_u32_cast_fires_in_the_codec => ["clippy::cast_possible_truncation"],
    float_to_int_cast_fires_in_the_codec => ["clippy::cast_possible_truncation"],
    widening_casts_do_not_fire => [],
    try_from_is_the_clean_codec_conversion => [],
    // `unsafe_code = "forbid"` from `[workspace.lints.rust]`.
    unsafe_block_is_forbidden => ["unsafe_code"],
    unsafe_fn_is_forbidden => ["unsafe_code"],
    unsafe_impl_is_forbidden => ["unsafe_code"],
    // The escape hatch.
    expect_with_a_reason_suppresses_its_lint => [],
    expect_does_not_leak_past_its_statement => ["clippy::unwrap_used"],
    expect_for_the_wrong_lint_leaves_the_violation_and_is_unfulfilled =>
        ["unfulfilled_lint_expectations", "clippy::unwrap_used"],
    stale_expect_is_unfulfilled => ["unfulfilled_lint_expectations"],
    allow_without_a_reason_is_denied => ["clippy::allow_attributes_without_reason"],
    expect_without_a_reason_is_denied => ["clippy::allow_attributes_without_reason"],
    allow_with_a_reason_is_accepted => [],
}

#[test]
fn every_reported_lint_belongs_to_a_case() {
    let c = cases();
    let stray: Vec<&Hit> =
        reported().iter().filter(|h| !c.owner.contains_key(&(h.0.clone(), h.1))).collect();
    assert!(stray.is_empty(), "hits outside any fixture case: {stray:?}");
}

#[test]
fn every_fixture_case_has_a_test() {
    let named: BTreeSet<&str> = cases().owner.values().map(String::as_str).collect();
    let checked: BTreeSet<&str> = CHECKED.iter().copied().collect();
    assert_eq!(named, checked);
}

/// The `key = value` lines of one TOML table, comments and blanks dropped.
fn table(manifest: &Path, header: &str) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest reads");
    let body = after(&text, &format!("[{header}]\n"))
        .unwrap_or_else(|| panic!("{} has no [{header}]", manifest.display()));
    body.lines()
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn fixture_lints_match_the_workspace_lints() {
    let root = workspace_root().join("Cargo.toml");
    let fixture = fixture().join("Cargo.toml");
    for tool in ["rust", "clippy"] {
        let want = table(&root, &format!("workspace.lints.{tool}"));
        assert!(!want.is_empty(), "[workspace.lints.{tool}] is empty");
        assert_eq!(table(&fixture, &format!("lints.{tool}")), want, "[lints.{tool}]");
    }
}
