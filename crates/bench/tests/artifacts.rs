//! Every committed `BENCH_<suite>.json` at the repository root is a full
//! `fpbench` run that passes its suite's schema check, so the numbers
//! the docs cite always come from a tracked, checkable baseline.

use std::path::Path;

use fp_bench::harness::{check_artifact, suite_names};
use fp_optimizer::serve::Json;

#[test]
fn committed_artifacts_pass_their_schema_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // Smoke runs (`--out BENCH_<suite>_smoke.json`, gitignored) are not
    // committed artifacts.
    let mut committed: Vec<String> = std::fs::read_dir(&root)
        .expect("repository root lists")
        .map(|entry| entry.expect("readable entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .filter(|name| !name.ends_with("_smoke.json"))
        .collect();
    committed.sort();
    let mut expected: Vec<String> = suite_names().map(|s| format!("BENCH_{s}.json")).collect();
    expected.sort();
    assert_eq!(committed, expected, "one committed artifact per suite");

    for suite in suite_names() {
        let file = format!("BENCH_{suite}.json");
        let text = std::fs::read_to_string(root.join(&file)).expect("artifact reads");
        let doc = check_artifact(suite, &text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            doc.get("smoke").and_then(Json::as_bool),
            Some(false),
            "{file} is not a full run"
        );
    }
}
