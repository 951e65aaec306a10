//! End-to-end checks of the `roadpart` binary's usage errors.

use std::process::Command;

fn roadpart(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_roadpart"))
        .args(args)
        .output()
        .expect("roadpart binary runs")
}

#[test]
fn partition_rejects_flags_it_does_not_read() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_unknown_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("city.net");
    let net = net.to_str().unwrap();
    let out = roadpart(&["generate", "--preset", "d1", "--scale", "0.1", "--out", net]);
    assert!(out.status.success(), "{out:?}");

    // A script that still passes the removed --shards flag, or misspells a
    // flag, must fail with the usage exit code instead of running flat.
    for extra in [
        &["--shards", "4"][..],
        &["--sheme", "ag"],
        &["--shardz", "9"],
    ] {
        let mut argv = vec!["partition", "--net", net, "--k", "4"];
        argv.extend_from_slice(extra);
        let out = roadpart(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {}", extra[0])),
            "{stderr}"
        );
    }
    let out = roadpart(&["partition", "--net", net, "--k", "4", "--scheme", "ag"]);
    assert!(out.status.success(), "{out:?}");
}
