//! End-to-end tests of the `vpga` command-line binary.

use std::process::Command;

fn vpga() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vpga"))
}

#[test]
fn help_prints_usage() {
    let out = vpga().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage"), "{text}");
}

#[test]
fn unknown_command_fails_with_message() {
    let out = vpga().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown command"), "{text}");
}

#[test]
fn matrix_stats_show_route_legality() {
    // One legality line per flow; the tiny ALU routes legally.
    let out = vpga()
        .args([
            "matrix",
            "--size",
            "tiny",
            "--only",
            "alu/granular",
            "--stats",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let legality: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("route: "))
        .collect();
    assert_eq!(legality, ["  route: legal", "  route: legal"], "{text}");
}

#[test]
fn gen_flow_program_roundtrip() {
    let dir = std::env::temp_dir().join("vpga_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let design = dir.join("alu.v");
    let fabric = dir.join("alu.fabric");

    // gen → Verilog file.
    let out = vpga()
        .args(["gen", "alu", "--size", "tiny", "-o"])
        .arg(&design)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&design).expect("file written");
    assert!(text.contains("module alu"), "{text}");

    // flow → metrics on stdout, plus one route legality line per flow.
    let out = vpga()
        .args(["flow"])
        .arg(&design)
        .args(["--arch", "granular", "--stats"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("flow a"), "{text}");
    assert!(text.contains("flow b"), "{text}");
    assert!(text.contains("power"), "{text}");
    assert!(text.starts_with("design fingerprint: 0x"), "{text}");
    let legality: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("route: "))
        .collect();
    assert_eq!(legality, ["  route: legal", "  route: legal"], "{text}");

    // program → via map file (internally verified by reconstruction).
    let out = vpga()
        .args(["program"])
        .arg(&design)
        .args(["--arch", "lut", "-o"])
        .arg(&fabric)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&fabric).expect("file written");
    assert!(text.contains("plb "), "{text}");
    assert!(text.contains("vias="), "{text}");
}

#[test]
fn arch_lists_all_architectures() {
    let out = vpga().arg("arch").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["granular", "lut", "homogeneous"] {
        assert!(text.contains(name), "missing {name}: {text}");
    }
    assert!(text.contains("full adder"));
}
