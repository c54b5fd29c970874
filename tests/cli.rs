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
    // The filtered run reports the one pair that ran, in its
    // architecture's table, and withholds the claims without blaming
    // failed cells.
    assert!(
        text.starts_with("matrix fingerprint: 0x841bda1dddab567d\n"),
        "{text}"
    );
    assert!(text.lines().any(|l| l.starts_with("ALU ")), "{text}");
    assert!(!text.contains("failed cells"), "{text}");
    let banner = String::from_utf8_lossy(&out.stderr);
    assert!(banner.contains("running 2 cells"), "{banner}");
    assert!(banner.contains("--only alu/granular"), "{banner}");
}

#[test]
fn gen_flow_program_roundtrip() {
    let dir = std::env::temp_dir().join(format!("vpga_cli_roundtrip_{}", std::process::id()));
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
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn matrix_rejects_unknown_flags_by_name() {
    // A removed or misspelled option must not run the matrix as if it
    // were absent.
    let out = vpga()
        .args(["matrix", "--size", "tiny", "--stage-threads", "2"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("unknown flag --stage-threads (argument 4)"),
        "{text}"
    );
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn flow_rejects_unknown_flags_by_name() {
    let dir = std::env::temp_dir().join(format!("vpga_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let design = dir.join("alu.v");
    let out = vpga()
        .args(["gen", "alu", "--size", "tiny", "-o"])
        .arg(&design)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let out = vpga()
        .args(["flow"])
        .arg(&design)
        .args(["--arch", "granular", "--bogus"])
        .output()
        .expect("binary runs");
    // Flags may come before the positional argument.
    let flow = vpga().args(["flow", "--arch", "lut"]).arg(&design).output();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown flag --bogus (argument 5)"), "{text}");
    assert!(out.stdout.is_empty(), "nothing ran");
    let flow = flow.expect("binary runs");
    let stderr = String::from_utf8_lossy(&flow.stderr);
    assert!(flow.status.success(), "{stderr}");
    assert!(String::from_utf8_lossy(&flow.stdout).starts_with("design fingerprint: 0x"));
}

#[test]
fn other_commands_reject_bad_arguments_by_name() {
    // A misspelled, removed or repeated option must never run a command
    // as if it were absent: nothing reaches stdout, and the error names
    // the flag and its position (the command is argument 1).
    for case in [
        "gen alu --size tiny --ouput x.v => unknown flag --ouput (argument 5)",
        "export-arch lut --out f => unknown flag --out (argument 3)",
        "matrix --size tiny --size paper => repeated flag --size (argument 4",
        "submit 127.0.0.1:1 /healthz --bogus => unknown flag --bogus (argument 4)",
    ] {
        let (line, expected) = case.split_once(" => ").unwrap();
        let out = vpga().args(line.split(' ')).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{line} succeeded");
        assert!(stderr.contains(expected), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} printed output");
    }
}
