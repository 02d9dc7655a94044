//! CLI contract tests: help exits 0 with per-subcommand usage, bad flags
//! exit non-zero, and the serve/query pair works end to end as processes.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn repf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repf"))
}

#[test]
fn help_exits_zero_with_usage() {
    let out = repf().arg("--help").output().unwrap();
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: repf <command>"));
    assert!(text.contains("serve"));
    assert!(text.contains("query"));
}

#[test]
fn per_subcommand_help_exits_zero() {
    for (cmd, marker) in [
        ("list", "usage: repf list"),
        ("profile", "--period"),
        ("analyze", "usage: repf analyze"),
        ("run", "baseline|hw|sw|swnt|sc|combined"),
        ("mix", "usage: repf mix"),
        ("serve", "--budget-mb"),
        ("serve", "--shards"),
        ("serve", "--max-conns"),
        ("query", "session:NAME"),
        ("record", "--sessions"),
        ("replay", "--no-check"),
    ] {
        let out = repf().args([cmd, "--help"]).output().unwrap();
        assert!(out.status.success(), "{cmd} --help must exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(marker), "{cmd} help must mention {marker}: {text}");
    }
}

#[test]
fn bad_flags_exit_nonzero() {
    for args in [
        vec!["--bogus"],
        vec!["run", "--policy", "warp-speed"],
        vec!["run", "--machine", "marvin"],
        vec!["query", "mrc", "gcc"], // missing --addr
        vec!["serve", "--queue", "not-a-number"],
        vec!["serve", "--io-mode", "fibers"], // no such flag
        vec!["serve", "--max-conns", "many"],
        vec!["serve", "--max-conns", "0"],
        vec!["serve", "--shards", "0"],
        vec!["record"],               // missing --out
        vec!["replay"],               // missing --trace
        vec![], // no command at all
    ] {
        let out = repf().args(&args).output().unwrap();
        assert!(
            !out.status.success(),
            "repf {args:?} must fail, got {:?}",
            out.status
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "stderr shows usage for {args:?}");
    }
}

#[test]
fn record_and_replay_roundtrip_as_processes() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("repf-cli-{}.trace", std::process::id()));
    let path_s = path.to_str().unwrap();

    let rec = repf()
        .args(["record", "--out", path_s, "--sessions", "2", "--rounds", "2", "--samples", "24"])
        .output()
        .unwrap();
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));
    let text = String::from_utf8_lossy(&rec.stdout);
    assert!(text.contains("recorded"), "record reports its work: {text}");

    // Replaying the same trace twice must report the same digest and a
    // clean run — that output line is what the CI smoke step greps.
    let mut digests = Vec::new();
    for _ in 0..2 {
        let rep = repf()
            .args(["replay", "--trace", path_s, "--nodes", "2"])
            .output()
            .unwrap();
        assert!(rep.status.success(), "{}", String::from_utf8_lossy(&rep.stderr));
        let text = String::from_utf8_lossy(&rep.stdout);
        assert!(text.contains("divergences 0"), "clean replay: {text}");
        let digest = text
            .lines()
            .find(|l| l.contains("digest"))
            .and_then(|l| l.split("digest ").nth(1))
            .and_then(|s| s.split(',').next())
            .unwrap()
            .to_string();
        digests.push(digest);
    }
    assert_eq!(digests[0], digests[1], "replay digest is reproducible");
    std::fs::remove_file(&path).ok();

    let missing = repf()
        .args(["replay", "--trace", "/no/such/file.trace"])
        .output()
        .unwrap();
    assert!(!missing.status.success(), "missing trace file must fail");
    let err = String::from_utf8_lossy(&missing.stderr);
    assert!(err.contains("failed"), "load error reported: {err}");
}

/// A daemon that dies mid-conversation must surface as a clean
/// "connection closed" error, not an os-level read failure.
#[test]
fn query_against_vanishing_server_reports_connection_closed() {
    // A fake server: accept the connection, then drop it immediately.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let accepter = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        drop(stream);
    });

    let out = repf().args(["query", "ping", "--addr", &addr]).output().unwrap();
    accepter.join().unwrap();
    assert!(!out.status.success(), "query against dead server must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("connection closed by server"),
        "clean disconnect report, got: {err}"
    );
}

#[test]
fn serve_and_query_roundtrip_as_processes() {
    // Ephemeral port; the daemon prints the bound address first.
    let mut server = repf()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--shards", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("repf-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    let ping = repf().args(["query", "ping", "--addr", &addr]).output().unwrap();
    assert!(ping.status.success(), "{}", String::from_utf8_lossy(&ping.stderr));
    assert_eq!(String::from_utf8_lossy(&ping.stdout).trim(), "pong");

    let stats = repf().args(["query", "stats", "--addr", &addr]).output().unwrap();
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("requests.ping = 1"), "stats reflect the ping: {text}");
    assert!(text.contains("sessions.shards = 4"), "per-shard stats exposed: {text}");

    // Shutdown control message drains the daemon; the process exits.
    let down = repf().args(["query", "shutdown", "--addr", &addr]).output().unwrap();
    assert!(down.status.success());
    let status = server.wait().unwrap();
    assert!(status.success(), "server exits cleanly after shutdown");
}
