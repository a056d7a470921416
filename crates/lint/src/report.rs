//! Renderings of a lint run: the default text form and GitHub Actions
//! workflow commands (`--format github`, annotations land on the
//! offending line in the PR diff).

use crate::workspace::Outcome;

/// The full `--report` listing: every violation, counted.
pub fn full_report(outcome: &Outcome) -> String {
    let mut out = format!(
        "ascend-lint: scanned {} files, {} active waivers\n\n",
        outcome.files, outcome.waivers
    );
    if outcome.violations.is_empty() {
        out.push_str("violations: none\n");
    } else {
        out.push_str(&format!("violations: {}\n", outcome.violations.len()));
        for v in &outcome.violations {
            out.push_str(&format!("  {}\n", v.render()));
        }
    }
    out
}

/// Escapes message *data* for a GitHub workflow command.
fn gh_data(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escapes a workflow-command *property* value (file, title), which
/// additionally reserves `:` and `,`.
fn gh_prop(s: &str) -> String {
    gh_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// The `--format github` rendering: one `::error` annotation per
/// violation anchored at its file and line, and a final plain summary
/// line for the job log.
pub fn render_github(outcome: &Outcome) -> String {
    let mut out = String::new();
    for v in &outcome.violations {
        out.push_str(&format!(
            "::error file={},line={},title={}::{}\n",
            gh_prop(&v.path),
            v.line,
            gh_prop(&format!("ascend-lint {}", v.rule)),
            gh_data(&v.msg)
        ));
    }
    out.push_str(&summary(outcome));
    out.push('\n');
    out
}

/// The one-line verdict both output formats end with.
pub fn summary(outcome: &Outcome) -> String {
    if outcome.ok() {
        format!(
            "ascend-lint: OK — {} files, {} active waivers, 0 violations",
            outcome.files, outcome.waivers
        )
    } else {
        format!("ascend-lint: FAIL — {} problem(s)", outcome.violations.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Violation, LOCK_ORDER};

    fn outcome(violations: Vec<Violation>) -> Outcome {
        Outcome {
            violations,
            files: 3,
            waivers: 1,
        }
    }

    fn order_violation() -> Violation {
        Violation {
            rule: LOCK_ORDER,
            path: "crates/core/src/serve.rs".into(),
            line: 9,
            msg: "acquiring `core:b` while holding `core:a`".into(),
        }
    }

    #[test]
    fn clean_run_passes_and_says_none() {
        let o = outcome(Vec::new());
        assert!(o.ok());
        assert!(full_report(&o).contains("violations: none"));
        assert!(summary(&o).starts_with("ascend-lint: OK — 3 files, 1 active waivers"));
    }

    #[test]
    fn deny_violation_fails_with_file_line_location() {
        let o = outcome(vec![order_violation()]);
        assert!(!o.ok());
        let text = full_report(&o);
        assert!(text.contains("crates/core/src/serve.rs:9 lock-order"), "{text}");
    }

    #[test]
    fn github_format_annotates_the_offending_line() {
        let text = render_github(&outcome(vec![order_violation()]));
        assert!(
            text.contains("::error file=crates/core/src/serve.rs,line=9,title=ascend-lint lock-order::"),
            "{text}"
        );
        assert!(text.contains("ascend-lint: FAIL — 1 problem(s)"));
    }

    #[test]
    fn github_format_escapes_message_data() {
        let mut v = order_violation();
        v.msg = "50% done\nsecond line".into();
        let text = render_github(&outcome(vec![v]));
        assert!(text.contains("50%25 done%0Asecond line"), "{text}");
        // The annotation stays on one physical line.
        let ann = text.lines().next().unwrap();
        assert!(ann.ends_with("second line"), "{ann}");
    }
}
