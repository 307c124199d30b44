//! A bad value in a variable the reproduction binaries read is a hard
//! error: the binary names the variable and exits with status 2 before
//! doing any work, instead of silently running a default.

use std::process::Command;

fn assert_rejects(bin: &str, var: &str, value: &str) {
    let out = Command::new(bin)
        .env(var, value)
        .output()
        .expect("binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{var}={value:?}: {stderr}");
    assert!(stderr.contains(var), "stderr does not name {var}: {stderr}");
}

#[test]
fn bad_scale_exits_2() {
    assert_rejects(env!("CARGO_BIN_EXE_fig01a"), "SPARKXD_SCALE", "papr");
}

#[test]
fn bad_nightly_seed_exits_2() {
    assert_rejects(
        env!("CARGO_BIN_EXE_nightly_n400"),
        "SPARKXD_NIGHTLY_SEED",
        "abc",
    );
}
