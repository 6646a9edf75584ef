//! Integration tests for the `fpopt` command-line tool: drive the real
//! binary through its major paths.

use std::process::Command;

fn fpopt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpopt"))
}

fn repo_root() -> String {
    format!("{}/../..", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn help_prints_usage() {
    let out = fpopt().arg("--help").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage: fpopt"));
    assert!(text.contains("--k1"));
}

#[test]
fn missing_input_fails_with_usage() {
    let out = fpopt().output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing input"));
}

#[test]
fn unknown_option_reports() {
    let out = fpopt().args(["@fig1", "--bogus"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn builtin_benchmark_runs() {
    let out = fpopt()
        .args(["@fig1", "--n", "4", "--seed", "2"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("instance FIG1: 5 modules"));
    assert!(text.contains("optimal area"));
    assert!(text.contains("verified layout: 5 modules placed"));
}

#[test]
fn pinwheel_asset_via_cli_with_ascii() {
    let out = fpopt()
        .args([&format!("{}/assets/pinwheel.fpt", repo_root()), "--ascii"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimal area 9 as 3x3"));
    assert!(text.contains("dead space 0"));
}

#[test]
fn selection_flags_are_applied() {
    let out = fpopt()
        .args([
            "@fp1",
            "--n",
            "8",
            "--k1",
            "10",
            "--k2",
            "200",
            "--prefilter",
            "2000",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("L-reductions"));
}

#[test]
fn oom_suggests_selection() {
    let out = fpopt()
        .args(["@fp1", "--n", "12", "--memory", "300"])
        .output()
        .expect("runs");
    // Budget exhaustion has a stable, documented exit code.
    assert_eq!(out.status.code(), Some(4));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("out of memory"));
    assert!(text.contains("--k1/--k2"));
    assert!(text.contains("--auto-rescue"));
}

#[test]
fn oom_with_auto_rescue_completes_and_reports() {
    // The acceptance scenario: the same budget that kills the plain run
    // completes under --auto-rescue, with the degradation log on stderr.
    let out = fpopt()
        .args(["@fp1", "--n", "12", "--memory", "2000", "--auto-rescue"])
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rescue:"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("optimal area"));
    assert!(stdout.contains("verified layout"));
}

#[test]
fn injected_fault_exit_codes() {
    // Deterministic fault injection: without rescue the run dies with the
    // budget/fault exit code; with --auto-rescue it completes.
    let fail = fpopt()
        .args(["@fp3", "--n", "3", "--inject-fault", "200"])
        .output()
        .expect("runs");
    assert_eq!(fail.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&fail.stderr).contains("injected fault"));

    let rescued = fpopt()
        .args(["@fp3", "--n", "3", "--inject-fault", "200", "--auto-rescue"])
        .output()
        .expect("runs");
    assert_eq!(
        rescued.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&rescued.stderr)
    );
    let stderr = String::from_utf8_lossy(&rescued.stderr);
    assert!(stderr.contains("rescue:"), "{stderr}");
    assert!(String::from_utf8_lossy(&rescued.stdout).contains("verified layout"));
}

#[test]
fn zero_deadline_exit_code() {
    let out = fpopt()
        .args(["@fp1", "--n", "4", "--deadline", "0"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(5));
    assert!(String::from_utf8_lossy(&out.stderr).contains("deadline"));
}

#[test]
fn outline_and_objective_flags() {
    let ok = fpopt()
        .args(["@fig1", "--n", "4", "--objective", "hp"])
        .output()
        .expect("runs");
    assert!(ok.status.success());
    let fail = fpopt()
        .args(["@fig1", "--n", "4", "--outline", "2x2"])
        .output()
        .expect("runs");
    assert_eq!(fail.status.code(), Some(6));
    assert!(String::from_utf8_lossy(&fail.stderr).contains("outline"));
    let bad = fpopt()
        .args(["@fig1", "--outline", "nonsense"])
        .output()
        .expect("runs");
    assert!(!bad.status.success());
}

#[test]
fn exports_write_files() {
    let dir = std::env::temp_dir().join("fpopt-cli-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let svg = dir.join("out.svg");
    let dot = dir.join("out.dot");
    let fpt = dir.join("out.fpt");
    let out = fpopt()
        .args([
            "@fig1",
            "--n",
            "3",
            "--svg",
            svg.to_str().expect("utf8"),
            "--dot",
            dot.to_str().expect("utf8"),
            "--fpt",
            fpt.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let svg_text = std::fs::read_to_string(&svg).expect("svg written");
    assert!(svg_text.starts_with("<svg"));
    let dot_text = std::fs::read_to_string(&dot).expect("dot written");
    assert!(dot_text.starts_with("digraph"));
    // The .fpt round-trip reloads through the CLI.
    let reload = fpopt()
        .arg(fpt.to_str().expect("utf8"))
        .output()
        .expect("runs");
    assert!(reload.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_builtin_reports() {
    let out = fpopt().arg("@fp9").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown built-in"));
}

#[test]
fn fpcompress_round_trips() {
    let dir = std::env::temp_dir().join("fpcompress-cli-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out_path = dir.join("compact.fpt");
    let input = format!("{}/assets/demo.fpt", repo_root());
    let out = Command::new(env!("CARGO_BIN_EXE_fpcompress"))
        .args([&input, "--k", "2", "-o", out_path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("implementations across 10 modules"));
    // The compressed instance still optimizes, never better than the full.
    let full = fpopt().arg(&input).output().expect("runs");
    let compact = fpopt()
        .arg(out_path.to_str().expect("utf8"))
        .output()
        .expect("runs");
    assert!(full.status.success() && compact.status.success());
    let area = |o: &std::process::Output| -> u128 {
        let text = String::from_utf8_lossy(&o.stdout).to_string();
        let line = text
            .lines()
            .find(|l| l.starts_with("optimal area"))
            .expect("area line")
            .to_owned();
        line.split_whitespace()
            .nth(2)
            .expect("value")
            .parse()
            .expect("number")
    };
    assert!(area(&compact) >= area(&full));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fpcompress_error_budget_zero_is_lossless() {
    let input = format!("{}/assets/demo.fpt", repo_root());
    let out = Command::new(env!("CARGO_BIN_EXE_fpcompress"))
        .args([&input, "--max-error", "0"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("(total staircase error 0)"));
    // Output on stdout parses back.
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("floorplan soc-demo"));
}

#[test]
fn fpcompress_max_impls_cap() {
    // Four dense 8-point shape curves: 32 implementations in total.
    let dir = std::env::temp_dir().join("fpcompress-cap-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let input = dir.join("dense.fpt");
    let curve = "1x8 2x7 3x6 4x5 5x4 6x3 7x2 8x1";
    let text = format!(
        "floorplan dense\nmodule a {curve}\nmodule b {curve}\nmodule c {curve}\n\
         module d {curve}\ntree (hsplit (vsplit a b) (vsplit c d))\n"
    );
    std::fs::write(&input, text).expect("write input");
    let input = input.to_str().expect("utf8");

    // A cap below the compressed size: hard error without rescue...
    let fail = Command::new(env!("CARGO_BIN_EXE_fpcompress"))
        .args([input, "--k", "8", "--max-impls", "12"])
        .output()
        .expect("runs");
    assert_eq!(fail.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&fail.stderr).contains("--auto-rescue"));
    // ...and a degraded-but-fitting output with it (8 -> 4 -> 2 per module).
    let rescued = Command::new(env!("CARGO_BIN_EXE_fpcompress"))
        .args([input, "--k", "8", "--max-impls", "12", "--auto-rescue"])
        .output()
        .expect("runs");
    assert_eq!(
        rescued.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&rescued.stderr)
    );
    let stderr = String::from_utf8_lossy(&rescued.stderr);
    assert!(stderr.contains("rescue:"), "{stderr}");
    // The rescued output still parses and respects the cap.
    let out_text = String::from_utf8_lossy(&rescued.stdout).to_string();
    let impls: usize = out_text
        .lines()
        .filter(|l| l.starts_with("module "))
        .map(|l| l.split_whitespace().skip(2).count())
        .sum();
    assert!(impls <= 12, "{impls} implementations over the cap");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fpcompress_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_fpcompress"))
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_fpcompress"))
        .args(["x.fpt", "--k", "1"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains(">= 2"));
}
