//! Process-level CLI contract tests: every error path must print a
//! `error: …` diagnostic to **stderr** and exit nonzero — never panic,
//! never report success — and the serve/loadgen pair must round-trip over
//! a real socket through the installed binary.

use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_pruneval");

/// Runs the binary and returns (exit-success, stdout, stderr).
fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("binary launches");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_fails_with_error(args: &[&str]) {
    let (ok, _stdout, stderr) = run(args);
    assert!(!ok, "`pruneval {}` must exit nonzero", args.join(" "));
    assert!(
        stderr.contains("error:"),
        "`pruneval {}` must print `error:` to stderr, got: {stderr}",
        args.join(" ")
    );
}

#[test]
fn unknown_command_fails() {
    assert_fails_with_error(&["frobnicate"]);
}

#[test]
fn bogus_model_preset_fails() {
    assert_fails_with_error(&["shapes", "--model", "definitely-not-a-preset"]);
    assert_fails_with_error(&["serve", "--model", "definitely-not-a-preset"]);
    assert_fails_with_error(&["loadgen", "--model", "definitely-not-a-preset"]);
}

#[test]
fn bogus_family_path_fails() {
    // a --family path that does not exist must surface as a typed error,
    // not a hang or a panic
    assert_fails_with_error(&[
        "serve",
        "--model",
        "mlp",
        "--scale",
        "smoke",
        "--family",
        "target/does-not-exist.pvck",
    ]);
}

#[test]
fn bogus_flag_values_fail() {
    assert_fails_with_error(&["study", "--scale", "galactic"]);
    assert_fails_with_error(&["study", "--method", "nope"]);
    assert_fails_with_error(&["serve", "--max-batch", "not-a-number"]);
    assert_fails_with_error(&["serve", "--backend", "cuda"]);
    assert_fails_with_error(&["serve", "--backend", "sparse"]);
    assert_fails_with_error(&["loadgen", "--requests", "many"]);
}

#[test]
fn loadgen_against_dead_server_fails() {
    // nothing listens on this port; loadgen must fail fast with an error
    assert_fails_with_error(&[
        "loadgen",
        "--model",
        "mlp",
        "--scale",
        "smoke",
        "--addr",
        "127.0.0.1:1",
        "--requests",
        "2",
        "--concurrency",
        "1",
    ]);
}

#[test]
fn help_succeeds() {
    let (ok, stdout, _stderr) = run(&["help"]);
    assert!(ok);
    for cmd in ["serve", "loadgen", "study", "analyze"] {
        assert!(stdout.contains(cmd), "usage must mention `{cmd}`");
    }
}

#[test]
fn serve_loadgen_roundtrip_through_the_binary() {
    let addr = "127.0.0.1:17411";
    let mut server = Command::new(BIN)
        .args([
            "serve",
            "--model",
            "mlp",
            "--scale",
            "smoke",
            "--addr",
            addr,
            "--backend",
            "packed",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("server launches");

    // wait (bounded) for the listener to come up
    let mut up = false;
    for _ in 0..100 {
        if TcpStream::connect(addr).is_ok() {
            up = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let result = if up {
        let report =
            std::env::temp_dir().join(format!("pv_cli_loadgen_{}.json", std::process::id()));
        let report_path = report.to_string_lossy().into_owned();
        let (ok, stdout, stderr) = run(&[
            "loadgen",
            "--model",
            "mlp",
            "--scale",
            "smoke",
            "--addr",
            addr,
            "--requests",
            "16",
            "--concurrency",
            "2",
            "--json",
            &report_path,
        ]);
        let json = std::fs::read_to_string(&report)
            .unwrap_or_else(|_| panic!("loadgen wrote {report_path}; stderr: {stderr}"));
        std::fs::remove_file(&report).ok();
        Ok((ok, stdout, json, stderr))
    } else {
        Err("server never started listening")
    };

    server.kill().expect("server killed");
    server.wait().expect("server reaped");

    let (ok, stdout, json, stderr) = result.expect("server came up");
    assert!(ok, "loadgen exits zero against a live server: {stderr}");
    assert!(stdout.contains("req/s"), "{stdout}");
    assert!(json.contains("\"throughput_rps\""), "{json}");
    assert!(json.contains("\"failed\": 0"), "{json}");
}
